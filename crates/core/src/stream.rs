//! Streaming window summarization (paper §2/§5 "Online Database
//! Monitoring", made incremental — and, since PR 3, bounded-memory).
//!
//! [`StreamSummarizer`] ingests a live query stream one statement at a
//! time and turns it into a sequence of per-window artifacts instead of
//! re-clustering the whole log on every look:
//!
//! * a **pattern mixture summary** of each closed window (the same
//!   [`LogRSummary`] the batch compressor produces, via the
//!   condensed-matrix path);
//! * a **drift report** ([`feature_drift`]) and per-query **novelty
//!   scores** ([`novelty_scores`]) against a rolling baseline;
//! * an appendable **history**: each window's new distinct queries become
//!   one shard of a [`ShardedPointSet`] — a window that finds none appends
//!   nothing — so a summary of *everything seen so far* (`logr::Engine`'s
//!   snapshot summary) clusters over the merged condensed matrix without
//!   recomputing any pairwise distance.
//!
//! # Window semantics
//!
//! Windows are **count-based** by default and multiplicity-weighted: a
//! window closes once at least [`StreamConfig::window`] queries (not
//! statements — a `Record::new(sql).times(500)` contributes 500) have
//! accumulated, at a statement boundary (a single ingest call is atomic,
//! so a window may overshoot by the last statement's multiplicity).
//!
//! * **Tumbling** (`slide: None`): consecutive windows partition the
//!   stream; the buffer resets on close.
//! * **Sliding** (`slide: Some(s)`): after the first close at `window`
//!   queries, a window closes every `s` further queries and spans the most
//!   recent `≥ window` queries (trimmed at statement granularity), so
//!   consecutive windows overlap by `window − s`.
//!
//! Setting [`StreamConfig::time`] switches boundaries to **wall-clock
//! time** ([`TimeWindows`]; the count fields are then ignored): a window
//! closes when a statement arrives at or past the scheduled boundary —
//! the arriving statement belongs to the *next* window — and a sliding
//! window spans the half-open interval `[boundary − window_ms,
//! boundary)`, trimmed at statement granularity by timestamp. Boundaries
//! advance on a fixed grid anchored at the first statement's timestamp,
//! and closes are statement-driven: **at most one window closes per
//! arriving statement**. When an idle gap spans several scheduled
//! boundaries, the buffered queries are summarized once, at the first
//! elapsed boundary, and the grid then skips to the first boundary past
//! the arrival — the intermediate windows (including, for sliding
//! windows, ones that would have re-spanned part of the buffer) emit
//! nothing. Timestamps come from [`Record::at`] (tests inject a
//! synthetic clock this way); a record without one is stamped with the
//! system clock. Non-monotonic timestamps are clamped forward: a late
//! arrival is treated as landing now.
//!
//! Only the *unseen* suffix of the stream (the queries since the previous
//! close) is absorbed into the long-running history, so sliding windows
//! never double-count.
//!
//! # Resumable state
//!
//! The open window is one [`WindowCursor`], which the summarizer runs on
//! and exports as is ([`StreamSummarizer::export_state`]). A close keeps
//! no record of itself beyond its exclusion span: a persister that takes
//! it ([`StreamSummarizer::take_close_delta`]) gets a [`CloseDelta`] built
//! then, whose journal increment runs since the previous take or full
//! persist — so a stream nobody persists never builds one.
//!
//! # Featurizing each shape once
//!
//! A sliding close re-summarizes its overlap with the previous window,
//! and a query log repeats its statements across every window. The
//! stream holds no featurization cache of its own: every close asks the
//! featurizer for every statement it spans, and the featurizer memoizes.
//! The SQL featurizer keys a bounded memo by the exact text and then by
//! the literal-masked shape, so a statement is parsed once per shape per
//! stream, however many windows or literal values it recurs with; the
//! template miner answers repeats from its own memo. The memo is never
//! persisted — a restored stream starts it cold, and parse caching never
//! changes an output bit. [`StreamSummarizer::statements_parsed`]
//! exposes how many records the featurizer featurized from scratch for
//! the closes, the instrumented counter the regression tests pin.
//!
//! # Bounded memory (out-of-core history shards)
//!
//! The history's per-shard mismatch buffers grow quadratically with the
//! distinct-query count, so an unbounded run eventually cannot keep them
//! all resident. [`StreamSummarizer::spill_to_with`] attaches the persistent
//! shard store (`logr-cluster::spill`) with a resident-byte budget:
//! after every close that appended a shard, the oldest closed shards are
//! evicted to disk and reload transparently when a history summary merges
//! them ([`ShardedPointSet::try_condensed`]; a close never reads the store:
//! the points, linear in the history, stay resident).
//! Window summaries, drift reports, and history summaries are
//! **bit-identical** to an unbounded run — the store holds integer
//! mismatch counts and bit-packed points, never floats — and
//! [`StreamSummarizer::resident_shard_bytes`] stays within the budget
//! between closes (bulk merges transiently add at most one shard).
//!
//! # Baseline rotation policy
//!
//! The drift baseline is the absorbed union of the most recent
//! [`StreamConfig::baseline_windows`] **closed strides** (tumbling: whole
//! windows), excluding any stride that still falls inside the next
//! window's span — so no window is ever judged against queries it itself
//! contains, even when sliding windows overlap. Windows closed before the
//! baseline holds any queries report `drift: None` and count as stable
//! (tumbling: just the first window; sliding: the first
//! `window / slide + baseline_windows − 1` closes, roughly). A slow
//! workload shift ages out of the baseline after `baseline_windows`
//! strides, while a sudden injection is judged against a baseline it has
//! not yet contaminated. Rebuild cost is `O(baseline_windows · window)`
//! per close — proportional to the window, never to the history.
//!
//! # Cost model
//!
//! Closing a window of `w` distinct queries against a history of `h`
//! costs `O(w²)` for the window's own condensed matrix plus `O(h·w_new)`
//! for the history shard's cross block (`w_new` = distinct queries never
//! seen before, typically ≪ `w`) — both on scoped threads. The
//! monolithic alternative re-pays `O((h + w)²)` per window. Novelty
//! against a baseline of `b` distinct queries adds `O(w)` lookups plus
//! `O(w_miss · b)` popcounts, where `w_miss` counts the window queries
//! the baseline does not hold verbatim.

use crate::compress::{CompressionObjective, LogR, LogRConfig, LogRSummary};
use crate::drift::{feature_drift, novelty_scores, DriftReport};
use logr_cluster::{ClusterMethod, Distance, PointSet, ShardedPointSet, SpillConfig, SpillError};
use logr_feature::{QueryLog, QueryVector};
use logr_source::{Featurizer, Record, SourceConfig, SourceError};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

/// Wall-clock window boundaries (milliseconds).
#[derive(Debug, Clone, Copy)]
pub struct TimeWindows {
    /// Window span in milliseconds.
    pub window_ms: u64,
    /// `None` for tumbling windows; `Some(s)` slides the boundary by `s`
    /// milliseconds (the window still spans `window_ms`).
    pub slide_ms: Option<u64>,
}

/// Streaming summarization configuration.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Queries per window (multiplicity-weighted). Ignored when `time` is
    /// set.
    pub window: u64,
    /// `None` for tumbling windows; `Some(s)` slides by `s` queries.
    /// Ignored when `time` is set.
    pub slide: Option<u64>,
    /// `Some` switches window boundaries from query counts to wall-clock
    /// time (see the module docs).
    pub time: Option<TimeWindows>,
    /// How many recent closed windows form the drift baseline (≥ 1).
    pub baseline_windows: usize,
    /// Clusters per window summary (and for history summaries).
    pub k: usize,
    /// Distance measure for clustering and novelty scoring.
    pub metric: Distance,
    /// `DriftReport::is_stable` tolerance used for `WindowSummary::stable`.
    pub drift_tolerance: f64,
    /// RNG seed threaded into clustering.
    pub seed: u64,
    /// Which featurizer turns raw records into feature branches: the SQL
    /// pipeline (the default) or the Drain-style template miner for
    /// free-form service logs (see `logr-source`).
    pub source: SourceConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window: 256,
            slide: None,
            time: None,
            baseline_windows: 4,
            k: 4,
            metric: Distance::Hamming,
            drift_tolerance: 1e-3,
            seed: 0,
            source: SourceConfig::Sql,
        }
    }
}

impl StreamConfig {
    /// Check the configuration, returning the first violated rule as
    /// data. The one definition of validity: [`StreamSummarizer::new`]
    /// panics with exactly this message, and fallible front ends
    /// (`logr::Engine`'s builder and recovery path, which must reject a
    /// checksum-valid manifest carrying an invalid configuration without
    /// panicking) surface it as a typed error.
    pub fn validate(&self) -> Result<(), &'static str> {
        match self.time {
            Some(t) => {
                if t.window_ms == 0 {
                    return Err("time window must be positive");
                }
                if let Some(s) = t.slide_ms {
                    if s == 0 {
                        return Err("time slide must be positive");
                    }
                    if s > t.window_ms {
                        return Err("time slide must not exceed the window");
                    }
                }
            }
            None => {
                if self.window == 0 {
                    return Err("window must be positive");
                }
                if let Some(s) = self.slide {
                    if s == 0 {
                        return Err("slide must be positive");
                    }
                    if s > self.window {
                        return Err("slide must not exceed the window");
                    }
                }
            }
        }
        if self.baseline_windows == 0 {
            return Err("baseline_windows must be positive");
        }
        if self.k == 0 {
            return Err("k must be positive");
        }
        self.metric.validate()?;
        DriftReport::validate_tolerance(self.drift_tolerance)?;
        self.source.validate()?;
        Ok(())
    }

    /// The compressor configuration every summary derived from this
    /// stream uses: the window summaries a close emits and `logr::Engine`'s
    /// history summaries.
    pub fn compressor_config(&self) -> LogRConfig {
        LogRConfig {
            method: ClusterMethod::Hierarchical(self.metric),
            objective: CompressionObjective::FixedK(self.k),
            seed: self.seed,
            refine: None,
        }
    }
}

/// Everything the summarizer emits when a window closes.
#[derive(Debug, Clone)]
pub struct WindowSummary {
    /// 0-based index of the closed window.
    pub index: usize,
    /// Queries newly arrived since the previous close
    /// (multiplicity-weighted, parsed or not). Tumbling: the whole window;
    /// sliding: the stride — the overlapping span's total is
    /// `log.total_queries()`.
    pub queries: u64,
    /// Distinct feature vectors in the window.
    pub distinct: usize,
    /// Distinct queries never seen in any earlier window — the size of the
    /// shard this window appended to the history (0: it appended none).
    pub new_distinct: usize,
    /// The boundary timestamp that closed a time-based window
    /// (milliseconds; the window spans `[closed_at_ms − window_ms,
    /// closed_at_ms)`). `None` for count-based windows.
    pub closed_at_ms: Option<u64>,
    /// The window's feature log (own codebook).
    pub log: QueryLog,
    /// Pattern mixture summary of the window.
    pub summary: LogRSummary,
    /// Drift vs the rolling baseline; `None` while the baseline is still
    /// empty (see the module docs' baseline rotation policy).
    pub drift: Option<DriftReport>,
    /// Nearest-baseline distance per distinct window query (empty while
    /// the baseline is still empty), in window-entry order.
    pub novelty: Vec<f64>,
    /// `drift.is_stable(config.drift_tolerance)`; windows without a
    /// baseline yet count as stable.
    pub stable: bool,
}

impl WindowSummary {
    /// Largest novelty score in the window (0 when none were computed).
    pub fn max_novelty(&self) -> f64 {
        self.novelty.iter().copied().fold(0.0, f64::max)
    }
}

/// Everything a [`StreamSummarizer`] needs beyond its configuration and
/// shard store to resume mid-stream: the complete, plain-data snapshot
/// `logr::Engine` persists in its store manifest and feeds back through
/// [`StreamSummarizer::try_from_state`] on recovery. A summarizer restored
/// from its exported state (plus a [`ShardedPointSet`] rebuilt from the
/// same store) continues **bit-identically** — every later window
/// summary, drift report, novelty vector, and history summary matches a
/// summarizer that never round-tripped.
#[derive(Debug, Clone)]
pub struct StreamState {
    /// Where the open window stands.
    pub cursor: WindowCursor,
    /// The baseline rotation: each closed stride's log with its
    /// offered-query count.
    pub baseline_logs: Vec<(QueryLog, u64)>,
    /// The materialized drift baseline as of the last close. Stored
    /// rather than recomputed: the rotation's exclusion walk depends on
    /// the buffer total *at close time*, which post-close arrivals have
    /// since changed.
    pub baseline: QueryLog,
    /// Absorbed union of every closed window.
    pub history: QueryLog,
    /// The featurizer's exported journal ([`Featurizer::export_journal`];
    /// empty for stateless sources). Replayed through the same mining
    /// code on restore, so the rebuilt featurizer — and therefore every
    /// later feature bit — matches the live one exactly.
    pub source_state: Vec<u8>,
}

/// Where the open window stands: the part of the resumable state that is
/// small, changes with every record, and is therefore recorded
/// **absolutely** — a full [`StreamState`] export and a per-close
/// [`CloseDelta`] both carry one, and replaying a close overwrites it. A
/// [`StreamSummarizer`] runs on this value itself, so both are clones of
/// it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowCursor {
    /// Statements in the current window scope (sliding keeps the
    /// overlap): `(text, multiplicity, arrival ms — 0 in count mode)` in
    /// arrival order. The one copy of every buffered text.
    pub buffer: Vec<(String, u64, u64)>,
    /// How many of `buffer`'s newest entries arrived since the last close
    /// and are not yet absorbed into the history (sliding only; tumbling
    /// absorbs the window log itself and keeps 0). A count past the
    /// buffer's length covers the whole buffer; the store decoder refuses
    /// one.
    pub unabsorbed: usize,
    /// Queries since the last close (in a [`CloseDelta`]: 0, unless a
    /// time-mode arrival already started the next window).
    pub since_close: u64,
    /// Next scheduled time boundary (time mode; `None` until the first
    /// statement anchors the grid).
    pub next_close_ms: Option<u64>,
    /// Largest timestamp seen (time mode's monotonic clamp).
    pub last_ts_ms: u64,
    /// Windows closed so far.
    pub windows_closed: usize,
    /// Records the featurizer featurized from scratch while closing
    /// windows (see [`StreamSummarizer::statements_parsed`]; restored for
    /// continuity — the featurizer's memo restarts cold after a restore,
    /// so the counter may run ahead of a never-restored run).
    pub statements_parsed: u64,
}

impl WindowCursor {
    /// The buffer's not-yet-absorbed tail: its newest `unabsorbed`
    /// entries (the whole buffer when the count exceeds it).
    pub fn unabsorbed_tail(&self) -> &[(String, u64, u64)] {
        &self.buffer[self.buffer.len().saturating_sub(self.unabsorbed)..]
    }
}

/// Everything one window close changed in the resumable state — the
/// `O(window)` increment a delta-log persister appends instead of
/// re-encoding the whole [`StreamState`]. The [`WindowCursor`] is
/// recorded **absolutely** (replay overwrites); the history is
/// recorded as the close's `stride_log` (replay absorbs); the baseline
/// rotation is recorded as its *inputs* — the same stride plus the
/// weight and exclusion span the close fed it — and replay reruns the
/// deterministic rotation ([`rotate_baseline`], the one function both
/// sides call). Nothing in the record scales with the history or the
/// rotation depth. Built when it is taken
/// ([`StreamSummarizer::take_close_delta`]), from the state at that
/// moment — so a taker that takes right after the call that closed the
/// window (after a time-mode arrival has landed in the next window's
/// buffer) gets a record that, applied to the pre-close state,
/// reproduces exactly what [`StreamSummarizer::export_state`] would emit.
#[derive(Debug, Clone)]
pub struct CloseDelta {
    /// The cursor at take time (its `windows_closed` includes this
    /// close).
    pub cursor: WindowCursor,
    /// The stride this close absorbed into the history and pushed into
    /// the baseline rotation — the one non-scalar piece of the record.
    pub stride_log: QueryLog,
    /// Offered-query weight the rotation paired with `stride_log`.
    pub window_queries: u64,
    /// Exclusion span the rotation's skip walk used *at close time* (the
    /// buffer total retained after the trim; 0 for tumbling). Recorded
    /// rather than rederived because post-close arrivals change the live
    /// buffer before the delta is taken.
    pub overlap_span: u64,
    /// The featurizer's journal increment since the previous take or
    /// full persist ([`Featurizer::drain_events`]; empty for stateless
    /// sources). Concatenating every record's increment onto the base
    /// state's journal reproduces the full journal, so replay appends
    /// these bytes to [`StreamState::source_state`].
    pub source_events: Vec<u8>,
}

impl StreamState {
    /// Replay one close onto the pre-close state it was captured against:
    /// the cursor overwrites, the history absorbs the stride, the
    /// rotation reruns from its recorded inputs through
    /// [`rotate_baseline`], and the journal increment appends — exactly
    /// what [`StreamSummarizer::export_state`] emitted after that close.
    /// The one definition delta-log replay runs.
    pub fn apply_close(&mut self, delta: CloseDelta, baseline_windows: usize) {
        self.cursor = delta.cursor;
        self.history.absorb(&delta.stride_log);
        let mut rotation: VecDeque<(QueryLog, u64)> =
            std::mem::take(&mut self.baseline_logs).into();
        self.baseline = rotate_baseline(
            &mut rotation,
            delta.stride_log,
            delta.window_queries,
            delta.overlap_span,
            baseline_windows,
        );
        self.baseline_logs = rotation.into();
        self.source_state.extend_from_slice(&delta.source_events);
    }
}

/// One close's baseline rotation, factored out so the live close path
/// and delta-log replay run **the same code** and cannot drift: push the
/// stride (with its offered-query weight) into the rotation, skip the
/// newest strides whose queries the retained buffer may still span
/// (`overlap_span`, walked in offered-query counts — a stride straddling
/// the boundary is excluded whole), trim the front to `baseline_windows`
/// usable strides, and return the rebuilt baseline (the absorbed union
/// of the usable prefix). See `close_window` for why the exclusion
/// exists (a window's own queries must never sit in its baseline).
pub fn rotate_baseline(
    rotation: &mut VecDeque<(QueryLog, u64)>,
    stride_log: QueryLog,
    window_queries: u64,
    overlap_span: u64,
    baseline_windows: usize,
) -> QueryLog {
    rotation.push_back((stride_log, window_queries));
    let mut skip = 0usize;
    let mut covered = 0u64;
    for (_, offered) in rotation.iter().rev() {
        if covered >= overlap_span {
            break;
        }
        covered += offered;
        skip += 1;
    }
    while rotation.len() - skip > baseline_windows {
        rotation.pop_front();
    }
    let usable = rotation.len() - skip;
    let mut baseline = QueryLog::new();
    for (log, _) in rotation.iter().take(usable) {
        baseline.absorb(log);
    }
    baseline
}

/// Incremental summarizer over a stream of SQL statements.
#[derive(Debug)]
pub struct StreamSummarizer {
    config: StreamConfig,
    /// The open window, exported as is.
    window: WindowCursor,
    /// Multiplicity-weighted total of `window.buffer`.
    buffer_total: u64,
    /// Rotation backing the baseline: each closed stride's log with its
    /// offered-query count (parseable or not — exclusion spans are
    /// measured in offered queries).
    baseline_logs: VecDeque<(QueryLog, u64)>,
    /// Absorbed union of `baseline_logs`. `Arc`-backed so snapshot
    /// publication shares it instead of cloning; closes mutate through
    /// [`Arc::make_mut`], which copies only while a reader still holds
    /// the previous publication.
    baseline: Arc<QueryLog>,
    /// Absorbed union of every closed window (global codebook).
    /// `Arc`-backed for the same reason — this is the `O(distinct)`
    /// structure snapshot capture must not clone per close.
    history: Arc<QueryLog>,
    /// `Some` while the most recent close's [`CloseDelta`] is untaken:
    /// the exclusion span its rotation used — the one part of the record
    /// the state cannot give back later, because post-close arrivals grow
    /// the buffer past its at-close total.
    untaken_close: Option<u64>,
    /// Record → feature-branch mapping (SQL pipeline or template miner);
    /// stateful miners journal through it for bit-identical recovery.
    featurizer: Box<dyn Featurizer>,
    /// One shard per closed window that found new distinct queries: those
    /// queries, never seen before it.
    shards: ShardedPointSet,
    /// Set when a window close failed against the spill store: the
    /// history log and the shard store may disagree, so every later
    /// operation refuses with a typed error instead of serving wrong
    /// summaries. Recover by reopening from the last persisted state.
    wedged: bool,
}

impl StreamSummarizer {
    /// New summarizer.
    ///
    /// # Panics
    /// Panics if `window == 0`, `slide == Some(0)`, `slide > window`
    /// (likewise for the `time` fields), `baseline_windows == 0`, or
    /// `k == 0`.
    pub fn new(config: StreamConfig) -> Self {
        if let Err(detail) = config.validate() {
            // lint:allow(no-panic-paths): documented "# Panics" constructor contract — a zero window is a programming error caught at build time, not a runtime condition
            panic!("{detail}");
        }
        StreamSummarizer {
            config,
            window: WindowCursor::default(),
            buffer_total: 0,
            baseline_logs: VecDeque::new(),
            baseline: Arc::new(QueryLog::new()),
            history: Arc::new(QueryLog::new()),
            untaken_close: None,
            featurizer: config.source.featurizer(),
            shards: ShardedPointSet::new(),
            wedged: false,
        }
    }

    /// Export the resumable state (see [`StreamState`]). The shard store
    /// travels separately — `logr::Engine` persists it as spill files and
    /// rebuilds it with [`ShardedPointSet::from_spilled_files_with`].
    pub fn export_state(&self) -> StreamState {
        StreamState {
            cursor: self.window.clone(),
            baseline_logs: self.baseline_logs.iter().cloned().collect(),
            baseline: (*self.baseline).clone(),
            history: (*self.history).clone(),
            source_state: self.featurizer.export_journal(),
        }
    }

    /// Rebuild a summarizer from an exported state and a shard store
    /// recovered from the same checkpoint. The featurizer's memo
    /// restarts cold (statements re-parse lazily on the next close —
    /// parse caching never changes an output bit).
    ///
    /// An `Err` means the featurizer journal in `state.source_state` is
    /// corrupt or belongs to a different source kind.
    ///
    /// # Panics
    /// Panics on an invalid `config` (same contract as
    /// [`StreamSummarizer::new`]), or when `shards` and `state.history`
    /// disagree on point count or universe width (callers validate both
    /// first).
    pub fn try_from_state(
        config: StreamConfig,
        state: StreamState,
        shards: ShardedPointSet,
    ) -> Result<Self, SourceError> {
        let mut s = StreamSummarizer::new(config);
        // Journal replay runs first: a corrupt journal must surface as
        // the typed error even when the caller's shard store is also
        // suspect (the asserts below are a validated-input contract).
        s.featurizer.replay(&state.source_state)?;
        assert_eq!(
            shards.len(),
            state.history.distinct_count(),
            "shard store and history log disagree on the distinct-point count"
        );
        assert_eq!(
            shards.n_features(),
            state.history.num_features(),
            "shard store and history log disagree on the feature universe"
        );
        s.buffer_total = state.cursor.buffer.iter().map(|(_, count, _)| count).sum();
        s.window = state.cursor;
        s.baseline_logs = state.baseline_logs.into();
        s.baseline = Arc::new(state.baseline);
        s.history = Arc::new(state.history);
        s.shards = shards;
        Ok(s)
    }

    /// The configuration in force.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Windows closed so far.
    pub fn windows_closed(&self) -> usize {
        self.window.windows_closed
    }

    /// The rolling drift baseline (absorbed union of recent windows).
    pub fn baseline(&self) -> &QueryLog {
        &self.baseline
    }

    /// The long-running history log (absorbed union of all closed
    /// windows; its distinct entries are exactly the sharded point set's
    /// points).
    pub fn history(&self) -> &QueryLog {
        &self.history
    }

    /// Shared handle to the history log — `O(1)`, no clone. The handle
    /// is a point-in-time publication: the next window close copies the
    /// log out from under it ([`Arc::make_mut`]) rather than mutating
    /// what the holder sees.
    pub fn history_arc(&self) -> Arc<QueryLog> {
        Arc::clone(&self.history)
    }

    /// Shared handle to the drift baseline — same semantics as
    /// [`StreamSummarizer::history_arc`].
    pub fn baseline_arc(&self) -> Arc<QueryLog> {
        Arc::clone(&self.baseline)
    }

    /// Take what the most recent window close changed (see
    /// [`CloseDelta`]), or `None` when no window has closed since the
    /// last take. The record is built now: the current cursor, the
    /// rotation's newest stride, the close's exclusion span, and the
    /// journal increment drained since the previous take. Delta-log
    /// persisters take once, right after the call that closed the
    /// window. Leaving a record untaken costs nothing (the next close
    /// supersedes it), but a taker must then persist a **full** state
    /// export, because the superseded close's stride absorption is gone
    /// from the delta stream — and a full persist must take (and drop)
    /// any untaken record, so the next record's journal increment starts
    /// at the journal that persist wrote.
    pub fn take_close_delta(&mut self) -> Option<CloseDelta> {
        let overlap_span = self.untaken_close.take()?;
        // The pair this close pushed into the rotation (only pop_front
        // ever trims it, so back() is the newest).
        let (stride_log, window_queries) = self.baseline_logs.back()?.clone();
        Some(CloseDelta {
            cursor: self.window.clone(),
            stride_log,
            window_queries,
            overlap_span,
            source_events: self.featurizer.drain_events(),
        })
    }

    /// The sharded history matrix: the store's diagnostics, and the
    /// condensed matrix a history summary clusters
    /// ([`ShardedPointSet::try_condensed`]).
    pub fn shard_store(&self) -> &ShardedPointSet {
        &self.shards
    }

    /// Queries buffered toward the next window close.
    pub fn buffered_queries(&self) -> u64 {
        self.window.since_close
    }

    /// Records featurized from scratch while closing windows: the sum,
    /// over every close, of the change in
    /// [`Featurizer::fresh_featurizations`] — the SQL featurizer's memo
    /// misses (about one per shape) or the template miner's newly
    /// journaled texts. Repeats, sliding overlaps and (with SQL) other
    /// literals in a known shape are memo hits and parse nothing.
    pub fn statements_parsed(&self) -> u64 {
        self.window.statements_parsed
    }

    /// Bound resident memory: spill closed history shards to `dir` in the
    /// `logr-cluster::spill` format, keeping at most `resident_budget`
    /// bytes of shard distances in memory (the newest shard is pinned; see
    /// [`ShardedPointSet::set_spill`]), with shard I/O routed through
    /// `vfs` (see [`logr_cluster::vfs`]). Summaries are bit-identical to
    /// an unbounded run. Can be called before or during a stream.
    pub fn spill_to_with(
        &mut self,
        vfs: Arc<dyn logr_cluster::vfs::Vfs>,
        dir: impl Into<PathBuf>,
        resident_budget: usize,
    ) -> Result<(), SpillError> {
        self.shards.set_vfs(vfs);
        self.shards.set_spill(SpillConfig { dir: dir.into(), resident_budget })
    }

    /// Re-bound the resident budget of an already-attached spill store
    /// (see [`ShardedPointSet::set_resident_budget`]); no-op without one.
    /// Summaries are unaffected — the budget only governs which shard
    /// payloads stay resident in memory.
    pub fn set_resident_budget(&mut self, bytes: usize) -> Result<(), SpillError> {
        self.shards.set_resident_budget(bytes)
    }

    /// Resident history-shard distance bytes (see
    /// [`ShardedPointSet::resident_bytes`]).
    pub fn resident_shard_bytes(&self) -> usize {
        self.shards.resident_bytes()
    }

    /// History shards currently on disk only.
    pub fn spilled_shards(&self) -> usize {
        self.shards.spilled_shards()
    }

    /// True when windows slide (count- or time-based).
    fn is_sliding(&self) -> bool {
        match self.config.time {
            Some(t) => t.slide_ms.is_some(),
            None => self.config.slide.is_some(),
        }
    }

    /// Ingest one raw record (multiplicity 1, no timestamp) through the
    /// configured source: a SQL statement under [`SourceConfig::Sql`], a
    /// free-form service-log line under [`SourceConfig::Template`].
    /// Returns the closed window's artifacts when this record completes a
    /// window. Same contract as [`StreamSummarizer::try_ingest`] with
    /// `Record::new(text)`, without building the record.
    pub fn try_ingest_record(&mut self, text: &str) -> Result<Option<WindowSummary>, SpillError> {
        self.ingest_at(text, 1, None)
    }

    /// Ingest one [`Record`]: `text` occurring `count` times (0 is a
    /// no-op) at `ts_ms` — milliseconds on any monotone clock (tests
    /// drive a synthetic one); `None` stamps the system clock in time mode
    /// and 0 in count mode. In time mode, a record at or past the
    /// scheduled boundary first closes the elapsed window (the record
    /// itself lands in the next one); in count mode the timestamp is
    /// recorded but boundaries stay count-driven.
    ///
    /// An `Err` means a window close failed against the spill store. The
    /// summarizer is then **wedged** — its history log and shard store
    /// may disagree, so every later call returns an error rather than
    /// risking silently wrong summaries; recover by rebuilding from the
    /// last persisted state ([`StreamSummarizer::try_from_state`]).
    pub fn try_ingest(&mut self, record: &Record) -> Result<Option<WindowSummary>, SpillError> {
        self.ingest_at(&record.text, record.count, record.ts_ms)
    }

    /// The featurizer in force (the SQL pipeline or the template miner).
    pub fn featurizer(&self) -> &dyn Featurizer {
        self.featurizer.as_ref()
    }

    /// The one ingest path behind both public spellings.
    fn ingest_at(
        &mut self,
        sql: &str,
        count: u64,
        ts_ms: Option<u64>,
    ) -> Result<Option<WindowSummary>, SpillError> {
        let ts_ms = match ts_ms {
            Some(ts) => ts,
            None if self.config.time.is_some() => Self::wall_clock_ms(),
            None => 0,
        };
        self.check_wedged()?;
        if count == 0 {
            return Ok(None);
        }
        let ts = self.window.last_ts_ms.max(ts_ms);
        self.window.last_ts_ms = ts;

        let mut closed = None;
        if let Some(tw) = self.config.time {
            match self.window.next_close_ms {
                // First statement anchors the boundary grid.
                None => self.window.next_close_ms = Some(ts.saturating_add(tw.window_ms)),
                Some(boundary) if ts >= boundary => {
                    if self.window.since_close > 0 {
                        closed = Some(self.close_window(Some(boundary))?);
                    }
                    // Advance on the fixed grid past the arrival: a gap's
                    // elapsed windows collapse into the close above (one
                    // close per arriving statement, by contract). Computed
                    // arithmetically — a loop would spin O(gap / step)
                    // per arrival, and never terminate at ts = u64::MAX.
                    let step = tw.slide_ms.unwrap_or(tw.window_ms);
                    let skipped = ((ts - boundary) / step).saturating_add(1);
                    self.window.next_close_ms =
                        Some(boundary.saturating_add(step.saturating_mul(skipped)));
                }
                Some(_) => {}
            }
        }

        self.window.buffer.push((sql.to_string(), count, ts));
        self.buffer_total += count;
        self.window.since_close += count;
        if self.is_sliding() {
            // Sliding only: the unseen stride differs from the (overlapping)
            // window buffer. Tumbling absorbs the window log itself.
            self.window.unabsorbed += 1;
        }

        if self.config.time.is_none() {
            let since_close = self.window.since_close;
            let due = match self.config.slide {
                None => since_close >= self.config.window,
                Some(slide) => self.buffer_total >= self.config.window && since_close >= slide,
            };
            if due {
                return self.close_window(None).map(Some);
            }
        }
        Ok(closed)
    }

    /// Close a partial window (end of stream / forced checkpoint).
    /// `None` when nothing has arrived since the last close. Time mode
    /// closes at "now" — just past the last seen timestamp. An `Err`
    /// wedges the summarizer exactly as in
    /// [`StreamSummarizer::try_ingest`].
    pub fn try_flush(&mut self) -> Result<Option<WindowSummary>, SpillError> {
        self.check_wedged()?;
        let boundary = self.config.time.map(|_| self.window.last_ts_ms.saturating_add(1));
        if self.window.since_close > 0 {
            self.close_window(boundary).map(Some)
        } else {
            Ok(None)
        }
    }

    /// `Err` when an earlier close wedged the summarizer.
    fn check_wedged(&self) -> Result<(), SpillError> {
        if self.wedged {
            return Err(SpillError::Corrupt(
                "stream summarizer wedged by an earlier spill-store failure; \
                 rebuild it from the last persisted state",
            ));
        }
        Ok(())
    }

    /// Write every history shard that has never been written to the spill
    /// store, without evicting anything — the durability step behind
    /// `logr::Engine` checkpoints (see [`ShardedPointSet::persist_all`]).
    ///
    /// # Panics
    /// Panics if no store was attached via
    /// [`StreamSummarizer::spill_to_with`] and a shard has never been
    /// written.
    pub fn persist_shards(&mut self) -> Result<usize, SpillError> {
        self.check_wedged()?;
        self.shards.persist_all()
    }

    fn compressor(&self) -> LogR {
        LogR::new(self.config.compressor_config())
    }

    fn wall_clock_ms() -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    }

    /// Featurize `window.buffer[entries]` into a fresh log, and add the
    /// featurizations the featurizer did from scratch to the parse
    /// counter. With the SQL source this produces the log `LogIngest`
    /// would, bit for bit (`branch_features` is the factored statement
    /// half of ingestion, and `add_features` reruns `add_conjunctive`'s
    /// interning; equality is regression-tested).
    fn featurized_log(&mut self, entries: std::ops::Range<usize>) -> QueryLog {
        let before = self.featurizer.fresh_featurizations();
        let mut log = QueryLog::new();
        for (text, count, _) in &self.window.buffer[entries] {
            for branch in self.featurizer.featurize(text) {
                log.add_features(&branch.features, *count);
            }
        }
        self.window.statements_parsed += self.featurizer.fresh_featurizations() - before;
        log
    }

    /// Close the current window at `boundary` (time mode's scheduled
    /// boundary; `None` for count mode / count flush). An `Err` (spill
    /// store failed while appending the window's shard) wedges the
    /// summarizer — see [`StreamSummarizer::try_ingest`].
    fn close_window(&mut self, boundary: Option<u64>) -> Result<WindowSummary, SpillError> {
        let window_queries = self.window.since_close;
        let index = self.window.windows_closed;
        // Count the front entries that fell out of the window span, at
        // statement granularity — they leave the buffer only once the
        // stride below has been absorbed. Count mode: whole statements
        // while the remainder still covers a full window. Time mode:
        // statements before `[boundary − window_ms, boundary)`.
        let mut expired = 0;
        if self.is_sliding() {
            // Every time-mode close passes its boundary; count mode has none.
            let horizon = match (self.config.time, boundary) {
                (Some(tw), Some(boundary)) => Some(boundary.saturating_sub(tw.window_ms)),
                _ => None,
            };
            for &(_, count, ts) in &self.window.buffer {
                let in_span = match horizon {
                    Some(horizon) => ts >= horizon,
                    None => self.buffer_total - count < self.config.window,
                };
                if in_span {
                    break;
                }
                self.buffer_total -= count;
                expired += 1;
            }
        }
        let window_log = self.featurized_log(expired..self.window.buffer.len());

        // Monitors run against the baseline *before* this window enters
        // the rotation — a window never judges itself.
        let (drift, novelty) = if self.baseline.total_queries() > 0 {
            (
                Some(feature_drift(&self.baseline, &window_log)),
                novelty_scores(&self.baseline, &window_log, self.config.metric),
            )
        } else {
            (None, Vec::new())
        };
        let stable = drift.as_ref().is_none_or(|d| d.is_stable(self.config.drift_tolerance));

        // Per-window mixture through the condensed path (the window's own
        // distances are fresh; its log is small by construction).
        let dist = PointSet::from_log(&window_log).distances(self.config.metric);
        let summary = self.compressor().compress_condensed(&window_log, dist);

        // Absorb only the unseen suffix (the stride) into the history, and
        // append its new distinct queries as one shard: window-close cost
        // stays proportional to the window, not the history. Tumbling
        // windows *are* the stride, so the already-featurized window log
        // is reused; sliding featurizes just the stride — the buffer's
        // unabsorbed tail, read while the expired front is still there (one
        // huge-multiplicity arrival can expire a statement that was never
        // absorbed, and history absorption must never lose statements) —
        // and then advances the window (sliding keeps the overlap).
        let stride_log = if self.is_sliding() {
            let len = self.window.buffer.len();
            let log = self.featurized_log(len - self.window.unabsorbed_tail().len()..len);
            self.window.buffer.drain(..expired);
            log
        } else {
            self.window.buffer.clear();
            self.buffer_total = 0;
            window_log.clone()
        };
        self.window.unabsorbed = 0;
        self.window.since_close = 0;
        let prev_distinct = self.history.distinct_count();
        Arc::make_mut(&mut self.history).absorb(&stride_log);
        let new_entries: Vec<&QueryVector> =
            self.history.entries()[prev_distinct..].iter().map(|(v, _)| v).collect();
        let new_distinct = new_entries.len();
        // A store failure here is fatal for the stream: the history log
        // already absorbed the stride, so the set and the log would
        // disagree. Wedge and surface the typed error.
        if let Err(e) = self.shards.try_push_shard(&new_entries, self.history.num_features()) {
            self.wedged = true;
            return Err(e);
        }

        // Rotate the baseline: the rotation holds stride logs (tumbling:
        // whole windows), and the rebuild skips the newest strides whose
        // queries a later window's span may still contain — queries a
        // window contains can never sit in its own baseline, so an
        // injection cannot zero its own novelty by contaminating the
        // baseline first. The exclusion span is the buffer actually
        // retained after this close's trim (0 for tumbling — the buffer
        // just cleared): future windows only ever span a subset of that
        // buffer plus strides not yet closed, and the retained total —
        // unlike the nominal `window − slide` — already accounts for
        // statement-multiplicity overshoot at the trim boundary. Exclusion
        // walks stride *query* counts (flush closes variable-size strides;
        // a stride straddling the boundary is excluded whole).
        self.untaken_close = Some(self.buffer_total);
        self.baseline = Arc::new(rotate_baseline(
            &mut self.baseline_logs,
            stride_log,
            window_queries,
            self.buffer_total,
            self.config.baseline_windows,
        ));

        self.window.windows_closed += 1;
        Ok(WindowSummary {
            index,
            queries: window_queries,
            distinct: window_log.distinct_count(),
            new_distinct,
            closed_at_ms: boundary,
            log: window_log,
            summary,
            drift,
            novelty,
            stable,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logr_cluster::vfs::default_vfs;
    use logr_testkit::TempStore;
    use proptest::prelude::*;

    /// The history's `k`-mixture over the sharded matrix, as
    /// `logr::Engine`'s snapshot summary computes it at the same
    /// boundary; `None` before any distinct query was absorbed.
    fn history_summary(s: &StreamSummarizer) -> Option<LogRSummary> {
        (s.history().distinct_count() > 0).then(|| {
            let dist = s.shard_store().try_condensed(s.config().metric).unwrap();
            s.compressor().compress_condensed(s.history(), dist)
        })
    }

    fn messaging(i: u64) -> String {
        match i % 3 {
            0 => "SELECT id, body FROM messages WHERE status = ?".into(),
            1 => "SELECT id FROM messages WHERE status = ? AND kind = ?".into(),
            _ => "SELECT sender FROM messages WHERE thread = ?".into(),
        }
    }

    fn banking(i: u64) -> String {
        match i % 2 {
            0 => "SELECT balance FROM accounts WHERE owner = ?".into(),
            _ => "SELECT balance, branch FROM accounts WHERE owner = ? AND open = ?".into(),
        }
    }

    /// 273 distinct shapes before the first repeat: a stream of these
    /// appends a history shard at every close.
    fn novel(i: u64) -> String {
        format!("SELECT c{} FROM t{} WHERE a{} = ?", i % 13, i % 3, i % 7)
    }

    #[test]
    fn three_window_stream_produces_summaries_and_drift() {
        // Acceptance scenario: 3 tumbling windows — steady, steady,
        // injected — each with a mixture summary and (from window 1 on) a
        // drift report.
        let mut s =
            StreamSummarizer::new(StreamConfig { window: 30, k: 2, ..StreamConfig::default() });
        let mut summaries = Vec::new();
        for i in 0..60 {
            if let Some(w) = s.try_ingest_record(&messaging(i)).unwrap() {
                summaries.push(w);
            }
        }
        for i in 0..30 {
            let sql = if i % 10 == 9 {
                "SELECT password_hash FROM credentials".to_string() // injected
            } else {
                messaging(i)
            };
            if let Some(w) = s.try_ingest_record(&sql).unwrap() {
                summaries.push(w);
            }
        }
        assert_eq!(summaries.len(), 3);
        assert_eq!(s.windows_closed(), 3);

        // Window 0: no baseline yet.
        assert!(summaries[0].drift.is_none());
        assert!(summaries[0].stable);
        assert_eq!(summaries[0].queries, 30);
        assert!(summaries[0].summary.mixture.k() >= 1);
        assert_eq!(summaries[0].closed_at_ms, None, "count windows carry no boundary time");

        // Window 1: same workload — stable, no novel queries.
        let w1 = &summaries[1];
        assert!(w1.drift.is_some());
        assert!(w1.stable, "steady window flagged: {:?}", w1.drift);
        assert_eq!(w1.new_distinct, 0, "no new distinct queries in a repeat window");
        assert!(w1.max_novelty() < 1e-12);

        // Window 2: injected traffic — unstable, novel, new features.
        let w2 = &summaries[2];
        let drift = w2.drift.as_ref().unwrap();
        assert!(!w2.stable, "injected window not flagged: {drift:?}");
        assert!(drift.overall > 0.0);
        assert!(drift.new_features.iter().any(|f| f.contains("credentials")));
        assert!(w2.max_novelty() > 0.0);
        assert!(w2.new_distinct > 0);

        // History covers the whole stream; its sharded summary works.
        assert_eq!(s.history().total_queries(), 90);
        let hist = history_summary(&s).unwrap();
        assert_eq!(hist.clustering.len(), s.history().distinct_count());
    }

    #[test]
    fn tumbling_windows_partition_the_stream() {
        let mut s = StreamSummarizer::new(StreamConfig { window: 10, ..StreamConfig::default() });
        let mut closed = 0;
        for i in 0..35 {
            if let Some(w) = s.try_ingest_record(&messaging(i)).unwrap() {
                assert_eq!(w.queries, 10);
                closed += 1;
            }
        }
        assert_eq!(closed, 3);
        assert_eq!(s.buffered_queries(), 5);
        let tail = s.try_flush().unwrap().unwrap();
        assert_eq!(tail.queries, 5);
        assert_eq!(tail.index, 3);
        assert!(s.try_flush().unwrap().is_none());
        assert_eq!(s.history().total_queries(), 35);
    }

    #[test]
    fn sliding_windows_overlap_but_history_does_not_double_count() {
        let mut s = StreamSummarizer::new(StreamConfig {
            window: 20,
            slide: Some(5),
            ..StreamConfig::default()
        });
        let mut summaries = Vec::new();
        for i in 0..40 {
            if let Some(w) = s.try_ingest_record(&messaging(i)).unwrap() {
                summaries.push(w);
            }
        }
        // First close at 20, then every 5: 20, 25, 30, 35, 40.
        assert_eq!(summaries.len(), 5);
        // Each window spans the last `window` queries…
        for w in &summaries[1..] {
            assert_eq!(w.log.total_queries(), 20);
            // …but only the 5-query stride entered the history.
            assert_eq!(w.queries, 5);
        }
        assert_eq!(s.history().total_queries(), 40);
    }

    #[test]
    fn multiplicity_counts_toward_window_size() {
        let mut s = StreamSummarizer::new(StreamConfig { window: 100, ..StreamConfig::default() });
        assert!(s.try_ingest(&Record::new(messaging(0)).times(60)).unwrap().is_none());
        assert!(s.try_ingest(&Record::new(messaging(0)).times(0)).unwrap().is_none());
        let w = s.try_ingest(&Record::new(messaging(1)).times(60)).unwrap().unwrap();
        // Window overshoots at statement granularity.
        assert_eq!(w.queries, 120);
        assert_eq!(w.distinct, 2);
    }

    #[test]
    fn baseline_rotation_ages_out_old_workloads() {
        let mut s = StreamSummarizer::new(StreamConfig {
            window: 20,
            baseline_windows: 2,
            ..StreamConfig::default()
        });
        // Two messaging windows, then three banking windows.
        for i in 0..40 {
            s.try_ingest_record(&messaging(i)).unwrap();
        }
        let mut flagged = None;
        let mut later = None;
        for i in 0..60 {
            if let Some(w) = s.try_ingest_record(&banking(i)).unwrap() {
                if w.index == 2 {
                    flagged = Some(w);
                } else if w.index == 4 {
                    later = Some(w);
                }
            }
        }
        // The switch is flagged against the messaging baseline…
        let flagged = flagged.unwrap();
        assert!(!flagged.stable);
        assert!(flagged.max_novelty() > 0.0);
        // …but after `baseline_windows` banking windows the baseline has
        // rotated: banking is the new normal.
        let later = later.unwrap();
        assert!(later.stable, "rotated baseline still flags banking: {:?}", later.drift);
        assert!(later.max_novelty() < 1e-12);
    }

    #[test]
    fn sliding_baseline_excludes_overlapping_strides() {
        // Regression: an injection must stay novel for every window whose
        // span contains it — the baseline skips the strides that overlap
        // the window under test, so the injection cannot zero its own
        // novelty by entering the baseline first.
        let mut s = StreamSummarizer::new(StreamConfig {
            window: 20,
            slide: Some(5),
            baseline_windows: 4,
            ..StreamConfig::default()
        });
        let mut i = 0u64;
        for _ in 0..40 {
            s.try_ingest_record(&messaging(i)).unwrap();
            i += 1;
        }
        // Inject one query; it lives in the stream for the next 4
        // overlapping windows.
        s.try_ingest_record("SELECT password_hash FROM credentials").unwrap();
        let mut flagged = 0;
        let mut inspected = 0;
        while inspected < 3 {
            if let Some(w) = s.try_ingest_record(&messaging(i)).unwrap() {
                inspected += 1;
                assert!(
                    w.log.codebook().iter().any(|(_, f)| f.to_string().contains("credentials")),
                    "window {} should still span the injection",
                    w.index
                );
                assert!(
                    w.max_novelty() > 0.0,
                    "window {}: baseline contamination zeroed the injection's novelty",
                    w.index
                );
                if !w.stable {
                    flagged += 1;
                }
            }
            i += 1;
        }
        assert_eq!(flagged, 3, "every window spanning the injection must be flagged");
    }

    #[test]
    fn flush_sized_strides_do_not_contaminate_the_baseline() {
        // Regression: baseline exclusion must count *queries*, not
        // strides — `flush` closes strides of any size, and stride-count
        // exclusion lets a large pre-flush stride (whose tail later
        // windows still span) into the baseline, zeroing the novelty of
        // an injection it contains.
        let mut s = StreamSummarizer::new(StreamConfig {
            window: 20,
            slide: Some(5),
            baseline_windows: 4,
            ..StreamConfig::default()
        });
        let mut i = 0u64;
        for _ in 0..18 {
            s.try_ingest_record(&messaging(i)).unwrap();
            i += 1;
        }
        s.try_ingest_record("SELECT password_hash FROM credentials").unwrap(); // tail of stride 0
        s.try_ingest_record(&messaging(i)).unwrap(); // closes window 0 (20-query stride)
        i += 1;
        for _ in 0..2 {
            s.try_ingest_record(&messaging(i)).unwrap();
            i += 1;
        }
        s.try_flush().unwrap(); // 2-query stride: stride sizes now vary
        let mut judged_windows = 0;
        for _ in 0..25 {
            if let Some(w) = s.try_ingest_record(&messaging(i)).unwrap() {
                if w.drift.is_some() {
                    judged_windows += 1;
                    let contains_injection =
                        w.log.codebook().iter().any(|(_, f)| f.to_string().contains("credentials"));
                    if contains_injection {
                        assert!(
                            w.max_novelty() > 0.0,
                            "window {}: injection sits in its own baseline",
                            w.index
                        );
                    }
                }
            }
            i += 1;
        }
        // The baseline does become usable again once enough strides age
        // past the overlap — the guard is an exclusion, not a shutdown.
        assert!(judged_windows > 0, "baseline never became usable after the flush");
    }

    #[test]
    fn history_shards_match_monolithic_distances() {
        use logr_cluster::hierarchical_cluster_pointset;
        let mut s =
            StreamSummarizer::new(StreamConfig { window: 15, k: 2, ..StreamConfig::default() });
        for i in 0..30 {
            s.try_ingest_record(&messaging(i)).unwrap();
        }
        for i in 0..15 {
            s.try_ingest_record(&banking(i)).unwrap();
        }
        assert_eq!(s.windows_closed(), 3);
        // The streamed history summary equals a batch hierarchical
        // compression of the absorbed history log.
        let streamed = history_summary(&s).unwrap();
        let points = PointSet::from_log(s.history());
        let weights: Vec<f64> = s.history().entries().iter().map(|&(_, c)| c as f64).collect();
        let dendro = hierarchical_cluster_pointset(&points, &weights, Distance::Hamming);
        assert_eq!(streamed.clustering, dendro.cut(2));
    }

    #[test]
    fn empty_stream_and_unparseable_windows_are_handled() {
        let mut s = StreamSummarizer::new(StreamConfig { window: 3, ..StreamConfig::default() });
        assert!(history_summary(&s).is_none());
        assert!(s.try_flush().unwrap().is_none());
        // A window of pure garbage still closes and keeps counting.
        for _ in 0..3 {
            s.try_ingest_record("THIS IS NOT SQL @@@").unwrap();
        }
        assert_eq!(s.windows_closed(), 1);
        assert!(history_summary(&s).is_none(), "no parsed queries yet");
        for i in 0..3 {
            s.try_ingest_record(&messaging(i)).unwrap();
        }
        assert_eq!(s.windows_closed(), 2);
        assert!(history_summary(&s).is_some());
    }

    #[test]
    #[should_panic(expected = "slide must not exceed")]
    fn oversized_slide_rejected() {
        StreamSummarizer::new(StreamConfig {
            window: 10,
            slide: Some(11),
            ..StreamConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "time slide must not exceed")]
    fn oversized_time_slide_rejected() {
        StreamSummarizer::new(StreamConfig {
            time: Some(TimeWindows { window_ms: 100, slide_ms: Some(101) }),
            ..StreamConfig::default()
        });
    }

    #[test]
    fn time_tumbling_windows_close_on_the_injected_clock() {
        let mut s = StreamSummarizer::new(StreamConfig {
            time: Some(TimeWindows { window_ms: 100, slide_ms: None }),
            // Count fields are ignored in time mode (0 would panic
            // otherwise — the validator skips them).
            window: 0,
            ..StreamConfig::default()
        });
        let mut summaries = Vec::new();
        // Ten statements inside [50, 150): no close until the clock
        // passes 150.
        for i in 0..10u64 {
            let w = s.try_ingest(&Record::new(messaging(i)).at(50 + i * 10)).unwrap();
            assert!(w.is_none(), "premature close at ts {}", 50 + i * 10);
        }
        // ts 155 crosses the boundary at 150: the elapsed window closes
        // with the 10 buffered queries, and the arrival starts the next.
        let w = s.try_ingest(&Record::new(messaging(10)).at(155)).unwrap().expect("boundary close");
        assert_eq!(w.queries, 10);
        assert_eq!(w.closed_at_ms, Some(150));
        summaries.push(w);
        // A long idle gap collapses: the next arrival at 990 closes the
        // one window that held ts 155 (empty windows emit nothing), and
        // the grid stays anchored at 50 (990 lands in [950, 1050)).
        let w = s.try_ingest(&Record::new(messaging(11)).at(990)).unwrap().expect("gap close");
        assert_eq!(w.queries, 1);
        assert_eq!(w.closed_at_ms, Some(250));
        let w = s
            .try_ingest(&Record::new(messaging(12)).at(1050))
            .unwrap()
            .expect("grid-aligned close");
        assert_eq!(w.closed_at_ms, Some(1050), "boundary grid anchored at the first arrival");
        // Out-of-order timestamps clamp forward instead of closing early.
        assert!(s.try_ingest(&Record::new(messaging(13)).at(10)).unwrap().is_none());
        assert_eq!(s.history().total_queries() + s.buffered_queries(), 14);
        let tail = s.try_flush().unwrap().unwrap();
        assert_eq!(tail.queries, 2);
        assert_eq!(tail.closed_at_ms, Some(1051), "flush closes just past the last arrival");
    }

    #[test]
    fn time_sliding_windows_trim_by_timestamp() {
        let mut s = StreamSummarizer::new(StreamConfig {
            time: Some(TimeWindows { window_ms: 100, slide_ms: Some(50) }),
            ..StreamConfig::default()
        });
        // One statement every 10 ms from ts 0.
        let mut summaries = Vec::new();
        for i in 0..30u64 {
            if let Some(w) = s.try_ingest(&Record::new(messaging(i)).at(i * 10)).unwrap() {
                summaries.push(w);
            }
        }
        // Boundaries at 100, 150, 200, 250 have fired by ts 290.
        assert_eq!(summaries.len(), 4);
        assert_eq!(summaries[0].closed_at_ms, Some(100));
        assert_eq!(summaries[0].queries, 10, "first stride is the whole first window");
        assert_eq!(summaries[0].log.total_queries(), 10);
        for w in &summaries[1..] {
            // Every later window spans [boundary − 100, boundary): ten
            // 10ms-spaced statements; each stride adds five.
            assert_eq!(w.queries, 5, "window {}", w.index);
            assert_eq!(w.log.total_queries(), 10, "window {}", w.index);
        }
        // The history absorbed each arrival exactly once.
        assert_eq!(s.history().total_queries() + s.buffered_queries(), 30);
    }

    #[test]
    fn extreme_timestamp_gaps_advance_the_grid_in_constant_time() {
        // Regression: the grid advance is arithmetic, not a loop — a
        // 1 ms slide with a near-u64::MAX gap must neither spin O(gap)
        // iterations nor hang when the boundary saturates at u64::MAX.
        let mut s = StreamSummarizer::new(StreamConfig {
            time: Some(TimeWindows { window_ms: 2, slide_ms: Some(1) }),
            ..StreamConfig::default()
        });
        assert!(s.try_ingest(&Record::new(messaging(0)).at(0)).unwrap().is_none());
        let w = s.try_ingest(&Record::new(messaging(1)).at(u64::MAX)).unwrap().expect("gap close");
        assert_eq!(w.queries, 1);
        assert_eq!(w.closed_at_ms, Some(2));
        // The grid is saturated at u64::MAX now; further arrivals keep
        // closing (ts >= boundary) without ever looping.
        let w = s
            .try_ingest(&Record::new(messaging(2)).at(u64::MAX))
            .unwrap()
            .expect("saturated close");
        assert_eq!(w.queries, 1);
    }

    #[test]
    fn sliding_overlap_parses_each_statement_once() {
        // The parse-memo headline: 3 distinct statements cycle through
        // 40 arrivals under window 20 / slide 5 — 5 closes, each
        // featurizing a 20-query window plus a 5-query stride. Without
        // the featurizer's memo that is ~125 parses; with it, each
        // distinct statement parses exactly once.
        let mut s = StreamSummarizer::new(StreamConfig {
            window: 20,
            slide: Some(5),
            ..StreamConfig::default()
        });
        let mut closes = 0;
        for i in 0..40 {
            if s.try_ingest_record(&messaging(i)).unwrap().is_some() {
                closes += 1;
            }
        }
        assert_eq!(closes, 5);
        assert_eq!(s.statements_parsed(), 3, "overlap statements must come from the memo");
    }

    #[test]
    fn sliding_repeats_parse_count_is_pinned() {
        // 11 texts recur at uneven gaps with multiplicities 1–3 under
        // window 12 / slide 4, so texts leave the window and come back,
        // repeat inside it and straddle closes. The featurizer's memo
        // outlives every window, so each text parses once: 11. (The
        // stream-owned cache this replaced swept texts that left the
        // window and parsed 33 times.) The counter is instrumentation,
        // but a moved count means the memo's lifetime rule moved.
        let mut s = StreamSummarizer::new(StreamConfig {
            window: 12,
            slide: Some(4),
            ..StreamConfig::default()
        });
        let mut closes = 0;
        for i in 0..80u64 {
            let text = format!("SELECT c{} FROM t WHERE a = ?", (i * 7 + i / 5) % 11);
            if s.try_ingest(&Record::new(text).times(1 + i % 3)).unwrap().is_some() {
                closes += 1;
            }
        }
        assert_eq!((closes, s.statements_parsed()), (25, 11));
    }

    /// 72 statements over 13 shapes whose texts recur across windows and
    /// whose literals vary (numbers, strings, both kinds in one slot): a
    /// parse error, a two-branch statement, three `LIMIT` counts (each
    /// its own shape), the three `messaging` and two `banking` texts and
    /// three more shapes.
    fn literal_variants() -> Vec<String> {
        (0..72u64)
            .map(|i| match i % 8 {
                0 => format!("SELECT id, body FROM messages WHERE status = {}", i % 5),
                1 => format!("SELECT id FROM messages WHERE kind = 'k{}' AND status = {i}", i % 3),
                2 => format!("SELECT a FROM t WHERE x = {} OR y = 'v'", i % 4),
                3 => "NOT SQL %%".to_string(),
                4 if i % 3 == 0 => format!("SELECT balance FROM accounts WHERE owner = {i}"),
                4 => format!("SELECT balance FROM accounts WHERE owner = 'o{i}'"),
                5 => format!("SELECT a FROM t ORDER BY a LIMIT {}", 1 + i % 3),
                6 => messaging(i),
                _ => banking(i / 8),
            })
            .collect()
    }

    #[test]
    fn cached_featurization_matches_log_ingest() {
        // Featurizing through the memo must produce the exact window log
        // LogIngest builds from the window's statements (same codebook
        // interning order, entries, counts) — at every close of tumbling
        // and sliding streams whose texts recur across windows and whose
        // shapes recur with other literals, including parse errors and
        // multi-branch statements.
        let statements = literal_variants();
        for (window, slide) in [(20, None), (8, None), (20, Some(5)), (12, Some(4))] {
            let mut s =
                StreamSummarizer::new(StreamConfig { window, slide, ..StreamConfig::default() });
            let mut closes = 0;
            for (i, sql) in statements.iter().enumerate() {
                let Some(w) = s.try_ingest_record(sql).unwrap() else { continue };
                closes += 1;
                // Every multiplicity is 1, so the window is the newest
                // `window` arrivals.
                let mut ingest = logr_feature::LogIngest::new();
                for sql in &statements[i + 1 - window as usize..=i] {
                    ingest.ingest(sql);
                }
                let (reference, _) = ingest.finish();
                let ctx = format!("window {window}, slide {slide:?}, close {}", w.index);
                assert_eq!(w.log.entries(), reference.entries(), "{ctx}");
                assert_eq!(w.log.num_features(), reference.num_features(), "{ctx}");
            }
            assert!(closes >= 3, "window {window}, slide {slide:?}: texts must span closes");
            // One featurization per shape, whatever the windowing.
            assert_eq!(s.statements_parsed(), 13, "window {window}, slide {slide:?}");
        }
    }

    #[test]
    fn tumbling_windows_featurize_each_shape_once() {
        // Tumbling windows clear the buffer on close, but the memo lives
        // in the featurizer, not the window: the second window's
        // statements are all hits (the stream-owned cache this replaced
        // was cleared with the window and parsed them twice, 6 times).
        let mut s = StreamSummarizer::new(StreamConfig { window: 6, ..StreamConfig::default() });
        for i in 0..12 {
            s.try_ingest_record(&messaging(i)).unwrap();
        }
        assert_eq!(s.windows_closed(), 2);
        assert_eq!(s.statements_parsed(), 3, "3 distinct statements, parsed once each");
    }

    #[test]
    fn exported_state_restores_bit_identically() {
        // Export mid-stream (sliding windows, so buffer/pending/baseline
        // rotation state are all non-trivial), rebuild from the exported
        // state plus a store-recovered shard set, and continue both
        // streams: every later artifact must match to the bit.
        let store = TempStore::new("stream-state");
        let config = StreamConfig { window: 12, slide: Some(5), k: 2, ..StreamConfig::default() };
        let mut original = StreamSummarizer::new(config);
        original.spill_to_with(default_vfs(), store.path(), usize::MAX).unwrap();
        for i in 0..31 {
            let sql = if i % 2 == 0 { messaging(i) } else { banking(i) };
            original.try_ingest_record(&sql).unwrap();
        }
        original.persist_shards().unwrap();
        let state = original.export_state();
        let files: Vec<std::path::PathBuf> = (0..original.shard_store().n_shards())
            .map(|s| original.shard_store().shard_file(s).unwrap().to_path_buf())
            .collect();
        let shards = ShardedPointSet::from_spilled_files_with(
            default_vfs(),
            SpillConfig { dir: store.path().to_path_buf(), resident_budget: usize::MAX },
            &files,
        )
        .unwrap();
        let mut restored = StreamSummarizer::try_from_state(config, state, shards).unwrap();
        assert_eq!(restored.windows_closed(), original.windows_closed());
        assert_eq!(restored.buffered_queries(), original.buffered_queries());

        for i in 31..80 {
            let sql = if i % 3 == 0 { banking(i) } else { messaging(i) };
            let (a, b) = (
                original.try_ingest_record(&sql).unwrap(),
                restored.try_ingest_record(&sql).unwrap(),
            );
            assert_eq!(a.is_some(), b.is_some(), "close parity at {i}");
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.queries, b.queries);
                assert_eq!(a.new_distinct, b.new_distinct);
                assert_eq!(a.summary.clustering, b.summary.clustering);
                assert_eq!(a.summary.error().to_bits(), b.summary.error().to_bits());
                assert_eq!(a.stable, b.stable);
                assert_eq!(a.novelty.len(), b.novelty.len());
                for (x, y) in a.novelty.iter().zip(&b.novelty) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
        let (a, b) = (history_summary(&original).unwrap(), history_summary(&restored).unwrap());
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.error().to_bits(), b.error().to_bits());
    }

    /// Structural log equality: entries in insertion order, codebook in
    /// id order — everything the persisted encoding serializes. (Debug
    /// equality would be too strong: the interning index is a `HashMap`,
    /// whose print order differs between a log built by replay and the
    /// live one.)
    fn assert_log_eq(a: &QueryLog, b: &QueryLog, ctx: &str) {
        assert_eq!(a.entries(), b.entries(), "{ctx}: entries");
        assert_eq!(a.num_features(), b.num_features(), "{ctx}: universe");
        assert_eq!(a.total_queries(), b.total_queries(), "{ctx}: total");
        assert_eq!(a.codebook().len(), b.codebook().len(), "{ctx}: codebook");
        for (id, f) in a.codebook().iter() {
            assert_eq!(b.codebook().feature(id), f, "{ctx}: feature {id:?}");
        }
    }

    fn assert_state_eq(a: &StreamState, b: &StreamState, ctx: &str) {
        assert_eq!(a.cursor, b.cursor, "{ctx}: cursor");
        assert_eq!(a.baseline_logs.len(), b.baseline_logs.len(), "{ctx}: rotation depth");
        for (i, ((la, wa), (lb, wb))) in a.baseline_logs.iter().zip(&b.baseline_logs).enumerate() {
            assert_eq!(wa, wb, "{ctx}: rotation weight {i}");
            assert_log_eq(la, lb, &format!("{ctx}: rotation log {i}"));
        }
        assert_log_eq(&a.baseline, &b.baseline, &format!("{ctx}: baseline"));
        assert_log_eq(&a.history, &b.history, &format!("{ctx}: history"));
        assert_eq!(a.source_state, b.source_state, "{ctx}: source_state");
    }

    #[test]
    fn close_delta_applied_to_the_preclose_state_matches_the_export() {
        // The delta-capture contract behind the engine's append-log
        // persistence: pre-close exported state + CloseDelta must equal
        // the post-close exported state, with the history advanced by
        // absorbing the stride and the baseline rotation rerun from the
        // delta's recorded inputs — for count closes, sliding closes,
        // and time-mode closes (where the closing arrival lands in the
        // next window's buffer after the close).
        let scenarios: Vec<(StreamConfig, bool)> = vec![
            (StreamConfig { window: 7, k: 2, ..StreamConfig::default() }, false),
            (StreamConfig { window: 12, slide: Some(5), k: 2, ..StreamConfig::default() }, false),
            (
                // Template source: source_events must concatenate onto
                // the pre-close journal to reproduce the export.
                StreamConfig {
                    window: 7,
                    k: 2,
                    source: SourceConfig::template(),
                    ..StreamConfig::default()
                },
                false,
            ),
            (
                StreamConfig {
                    time: Some(TimeWindows { window_ms: 40, slide_ms: None }),
                    k: 2,
                    ..StreamConfig::default()
                },
                true,
            ),
        ];
        for (config, timed) in scenarios {
            let mut s = StreamSummarizer::new(config);
            let mut prev = s.export_state();
            for i in 0..40u64 {
                let sql = if i % 2 == 0 { messaging(i) } else { banking(i) };
                let closed = if timed {
                    s.try_ingest(&Record::new(&sql).at(i * 10)).unwrap().is_some()
                } else {
                    s.try_ingest_record(&sql).unwrap().is_some()
                };
                let now = s.export_state();
                if closed {
                    let d = s.take_close_delta().expect("a close must record its delta");
                    assert!(s.take_close_delta().is_none(), "the delta is taken exactly once");
                    // Replay through the same function the engine's
                    // delta-log recovery runs.
                    let mut rebuilt = prev.clone();
                    rebuilt.apply_close(d, config.baseline_windows);
                    assert_state_eq(&rebuilt, &now, &format!("delta replay at statement {i}"));
                } else {
                    assert!(s.take_close_delta().is_none(), "no close, no delta");
                }
                prev = now;
            }
        }
    }

    #[test]
    fn record_ingest_matches_text_ingest_bit_for_bit() {
        // `try_ingest(&Record::new(t))` is `try_ingest_record(t)`: same
        // closes, same window artifacts, same exported state — tumbling,
        // sliding, and time windows. In time mode both spellings stamp the
        // wall clock (a record without a timestamp keeps that behaviour),
        // so only the clock-derived fields may differ there; the span is
        // an hour so the wall clock never closes a window mid-test.
        const HOUR_MS: u64 = 3_600_000;
        let configs = [
            StreamConfig { window: 7, k: 2, ..StreamConfig::default() },
            StreamConfig { window: 12, slide: Some(5), k: 2, ..StreamConfig::default() },
            StreamConfig {
                time: Some(TimeWindows { window_ms: HOUR_MS, slide_ms: Some(HOUR_MS / 2) }),
                k: 2,
                ..StreamConfig::default()
            },
        ];
        for config in configs {
            let ctx = format!("{config:?}");
            let mut by_text = StreamSummarizer::new(config);
            let mut by_record = StreamSummarizer::new(config);
            let mut closes = Vec::new();
            for i in 0..40 {
                let sql = if i % 3 == 0 { banking(i) } else { messaging(i) };
                closes.push((
                    by_text.try_ingest_record(&sql).unwrap(),
                    by_record.try_ingest(&Record::new(&sql)).unwrap(),
                ));
            }
            closes.push((by_text.try_flush().unwrap(), by_record.try_flush().unwrap()));
            assert!(closes.iter().any(|(a, _)| a.is_some()), "{ctx}: nothing closed");
            for (a, b) in closes {
                assert_eq!(a.is_some(), b.is_some(), "{ctx}: close parity");
                let (Some(a), Some(b)) = (a, b) else { continue };
                assert_eq!((a.index, a.queries), (b.index, b.queries), "{ctx}");
                assert_eq!(
                    (a.distinct, a.new_distinct, a.stable),
                    (b.distinct, b.new_distinct, b.stable)
                );
                assert_log_eq(&a.log, &b.log, &ctx);
                assert_eq!(a.summary.clustering, b.summary.clustering, "{ctx}");
                assert_eq!(a.summary.error().to_bits(), b.summary.error().to_bits(), "{ctx}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a.novelty), bits(&b.novelty), "{ctx}");
            }
            let (mut a, mut b) = (by_text.export_state(), by_record.export_state());
            if config.time.is_some() {
                for cursor in [&mut a.cursor, &mut b.cursor] {
                    assert!(cursor.last_ts_ms > 0, "{ctx}: time mode stamps the wall clock");
                    assert!(
                        cursor.next_close_ms.is_some(),
                        "{ctx}: the first record anchors the grid"
                    );
                    cursor.last_ts_ms = 0;
                    cursor.next_close_ms = None;
                    cursor.buffer.iter_mut().for_each(|entry| entry.2 = 0);
                }
            } else {
                assert_eq!(a.cursor.last_ts_ms, 0, "{ctx}: count mode stamps 0");
            }
            assert_state_eq(&a, &b, &ctx);

            // A zero-multiplicity record changes nothing — not even the
            // time grid an explicit timestamp would otherwise advance.
            let before = by_record.export_state();
            let far = before.cursor.last_ts_ms + 10 * HOUR_MS;
            assert!(by_record
                .try_ingest(&Record::new(messaging(0)).times(0).at(far))
                .unwrap()
                .is_none());
            assert_state_eq(&before, &by_record.export_state(), &format!("{ctx}: times(0)"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The open window has one owner per fact: over random scripts —
        /// count/time × tumbling/sliding, multiplicities up to past a
        /// whole window — every exported cursor's unabsorbed tail is what
        /// arrived since the last close, `buffer_total` is the buffer's
        /// sum, and the
        /// history holds everything offered up to the last close,
        /// including a statement a huge arrival expired before it was
        /// absorbed.
        #[test]
        fn open_window_state_agrees_with_itself_over_random_scripts(
            timed in any::<bool>(),
            sliding in any::<bool>(),
            script in prop::collection::vec((0u64..6, 0u64..5, 0u64..45), 1..70),
        ) {
            let mut s = StreamSummarizer::new(StreamConfig {
                window: 10,
                slide: sliding.then_some(4),
                time: timed
                    .then_some(TimeWindows { window_ms: 100, slide_ms: sliding.then_some(40) }),
                k: 2,
                ..StreamConfig::default()
            });
            let (mut offered, mut now) = (0u64, 0u64);
            for (id, weight, gap) in script {
                let count = if weight == 4 { 15 } else { 1 + weight };
                now += gap;
                let text = format!("SELECT c{id} FROM t WHERE a = ?");
                let closed = s.try_ingest(&Record::new(text).times(count).at(now)).unwrap();
                if closed.is_some() {
                    let delta = s.take_close_delta().expect("a close records its delta");
                    prop_assert_eq!(&delta.cursor, &s.export_state().cursor);
                    // A time close fires before the arrival joins the
                    // next window; a count close includes it.
                    let absorbed = if timed { offered } else { offered + count };
                    prop_assert_eq!(s.history().total_queries(), absorbed);
                }
                offered += count;
                let cursor = s.export_state().cursor;
                prop_assert!(cursor.unabsorbed <= cursor.buffer.len());
                prop_assert_eq!(
                    s.buffer_total,
                    cursor.buffer.iter().map(|(_, count, _)| count).sum::<u64>()
                );
                if sliding {
                    // The unabsorbed tail is exactly what arrived since
                    // the last close.
                    prop_assert_eq!(
                        cursor.unabsorbed_tail().iter().map(|(_, count, _)| count).sum::<u64>(),
                        cursor.since_close
                    );
                } else {
                    prop_assert_eq!(cursor.unabsorbed, 0);
                }
            }
            s.try_flush().unwrap();
            prop_assert_eq!(s.history().total_queries(), offered);
            prop_assert_eq!(s.export_state().cursor.unabsorbed, 0);
        }
    }

    #[test]
    fn spilled_stream_is_bit_identical_to_resident_stream() {
        // The acceptance property at the stream level: a spilling
        // summarizer (tiny resident budget) and an unbounded one emit
        // byte-identical artifacts. The heavyweight cross-metric version
        // lives in tests/stream_out_of_core.rs; this is the fast inline
        // guard.
        let store = TempStore::new("stream-spill");
        let mut spilled =
            StreamSummarizer::new(StreamConfig { window: 10, k: 2, ..StreamConfig::default() });
        spilled.spill_to_with(default_vfs(), store.path(), 0).unwrap();
        let mut resident =
            StreamSummarizer::new(StreamConfig { window: 10, k: 2, ..StreamConfig::default() });
        // Half repeats, half new shapes: every close appends a shard, so
        // budget 0 evicts all but the newest.
        for i in 0..40 {
            let sql = if i % 2 == 0 { novel(i) } else { banking(i) };
            let (a, b) = (
                spilled.try_ingest_record(&sql).unwrap(),
                resident.try_ingest_record(&sql).unwrap(),
            );
            assert_eq!(a.is_some(), b.is_some());
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a.summary.clustering, b.summary.clustering);
                assert_eq!(a.summary.error().to_bits(), b.summary.error().to_bits());
                assert_eq!(a.new_distinct, b.new_distinct);
            }
        }
        assert!(spilled.spilled_shards() > 0, "the budget must have forced evictions");
        let (a, b) = (history_summary(&spilled).unwrap(), history_summary(&resident).unwrap());
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.error().to_bits(), b.error().to_bits());
    }

    fn service_line(i: u64) -> String {
        match i % 4 {
            0 => format!("request {} served in {} ms", i % 7, i + 3),
            1 => format!("connection from 10.0.{}.{} port {} established", i % 5, i % 9, 8000 + i),
            2 => format!("cache flush completed after {} entries", i * 2),
            _ => format!("worker {} heartbeat ok", i % 3),
        }
    }

    #[test]
    fn template_source_streams_service_logs_end_to_end() {
        // Free-form records flow through windows, drift, and the sharded
        // history with zero SQL on the path.
        let mut s = StreamSummarizer::new(StreamConfig {
            window: 16,
            k: 2,
            source: SourceConfig::template(),
            ..StreamConfig::default()
        });
        let mut summaries = Vec::new();
        for i in 0..48 {
            if let Some(w) = s.try_ingest_record(&service_line(i)).unwrap() {
                summaries.push(w);
            }
        }
        assert_eq!(summaries.len(), 3);
        assert!(summaries[0].distinct > 0, "service lines must featurize");
        assert!(summaries[1].drift.is_some());
        // Every feature the stream mined is a TEMPLATE or PARAM — no SQL
        // classes leak in.
        for (_, f) in s.history().codebook().iter() {
            assert!(
                matches!(
                    f.class,
                    logr_feature::FeatureClass::Template | logr_feature::FeatureClass::Param
                ),
                "unexpected class on the template path: {f}"
            );
        }
        let hist = history_summary(&s).expect("history summary over mined features");
        assert_eq!(hist.clustering.len(), s.history().distinct_count());
    }

    #[test]
    fn template_source_detects_injected_drift() {
        let mut s = StreamSummarizer::new(StreamConfig {
            window: 20,
            k: 2,
            source: SourceConfig::template(),
            ..StreamConfig::default()
        });
        let mut summaries = Vec::new();
        for i in 0..40 {
            if let Some(w) = s.try_ingest_record(&service_line(i)).unwrap() {
                summaries.push(w);
            }
        }
        for i in 0..20 {
            let line = if i % 5 == 4 {
                format!("FATAL segfault at 0xdeadbeef core dumped pid {i}")
            } else {
                service_line(i)
            };
            if let Some(w) = s.try_ingest_record(&line).unwrap() {
                summaries.push(w);
            }
        }
        assert_eq!(summaries.len(), 3);
        let injected = &summaries[2];
        assert!(!injected.stable, "injected crash lines must drift: {:?}", injected.drift);
        assert!(injected.max_novelty() > 0.0);
    }

    #[test]
    fn template_source_state_restores_bit_identically() {
        // The recovery acceptance at the stream level: export mid-stream
        // (sliding, so buffer/pending/rotation are live AND the miner has
        // promoted wildcards), restore through the journal, and continue
        // both — every later artifact must match to the bit.
        let store = TempStore::new("stream-template-state");
        let config = StreamConfig {
            window: 12,
            slide: Some(5),
            k: 2,
            source: SourceConfig::template(),
            ..StreamConfig::default()
        };
        let mut original = StreamSummarizer::new(config);
        original.spill_to_with(default_vfs(), store.path(), usize::MAX).unwrap();
        for i in 0..31 {
            original.try_ingest_record(&service_line(i)).unwrap();
        }
        original.persist_shards().unwrap();
        let state = original.export_state();
        assert!(!state.source_state.is_empty(), "the miner must have journaled");
        let files: Vec<std::path::PathBuf> = (0..original.shard_store().n_shards())
            .map(|s| original.shard_store().shard_file(s).unwrap().to_path_buf())
            .collect();
        let shards = ShardedPointSet::from_spilled_files_with(
            default_vfs(),
            SpillConfig { dir: store.path().to_path_buf(), resident_budget: usize::MAX },
            &files,
        )
        .unwrap();
        let mut restored = StreamSummarizer::try_from_state(config, state, shards).unwrap();
        for i in 31..90 {
            let (a, b) = (
                original.try_ingest_record(&service_line(i)).unwrap(),
                restored.try_ingest_record(&service_line(i)).unwrap(),
            );
            assert_eq!(a.is_some(), b.is_some(), "close parity at {i}");
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a.summary.clustering, b.summary.clustering);
                assert_eq!(a.summary.error().to_bits(), b.summary.error().to_bits());
                assert_eq!(a.new_distinct, b.new_distinct);
                assert_eq!(a.stable, b.stable);
                for (x, y) in a.novelty.iter().zip(&b.novelty) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
        let a = original.export_state();
        let mut b = restored.export_state();
        // The parse counter legitimately runs ahead after a restore (the
        // featurizer's memo restarts cold) — it is instrumentation, never
        // an output bit. Everything else must match exactly.
        b.cursor.statements_parsed = a.cursor.statements_parsed;
        assert_state_eq(&a, &b, "post-continue");
    }

    #[test]
    fn corrupt_source_journal_is_a_typed_error() {
        let config =
            StreamConfig { window: 8, source: SourceConfig::template(), ..StreamConfig::default() };
        let mut s = StreamSummarizer::new(config);
        for i in 0..8 {
            s.try_ingest_record(&service_line(i)).unwrap();
        }
        let mut state = s.export_state();
        state.source_state.truncate(state.source_state.len() - 1);
        assert!(StreamSummarizer::try_from_state(config, state, ShardedPointSet::new()).is_err());
    }

    #[test]
    fn invalid_source_config_fails_validation() {
        let config = StreamConfig {
            source: SourceConfig::Template(logr_source::TemplateConfig {
                similarity: 2.0,
                ..logr_source::TemplateConfig::default()
            }),
            ..StreamConfig::default()
        };
        assert!(config.validate().is_err());
    }
}
