//! Layer replay: the ledger's own copy of the close sequence, driven over
//! the same records with nothing but public functions, one span per
//! stage, beside a bare `StreamSummarizer` that does the real thing.
//!
//! The copy follows `StreamSummarizer`'s close as of this commit. When a
//! later change reorders or replaces stages, `trace.coverage` and
//! `trace.mirror_match` drop; nothing here can fail a run.

use crate::embedded::StoreDir;
use crate::trace::Tracer;
use crate::Res;
use logr::cluster::vfs::Vfs;
use logr::cluster::{hierarchical_cluster_condensed, PointSet, ShardedPointSet, SpillConfig};
use logr::core::{
    feature_drift, novelty_scores, rotate_baseline, LogR, StreamConfig, StreamSummarizer,
};
use logr::feature::{branch_features, ExtractConfig, QueryLog, QueryVector};
use logr::source::{FeatureBranch, Featurizer};
use logr::sql::{anonymize_statement, parse_select, regularize, Lexer};
use logr::SourceConfig;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Stage spans whose time should add up to the bare summarizer's close.
pub const CLOSE_STAGES: [&str; 13] = [
    "sql.parse_select",
    "sql.normalize",
    "feature.extract",
    "source.featurize",
    "feature.encode",
    "core.drift",
    "core.novelty",
    "cluster.distances",
    "core.compress",
    "feature.absorb",
    "cluster.shard_push",
    "core.baseline_rotate",
    "core.close_delta",
];

/// What the replay counted (its timings are spans on the tracer).
#[derive(Debug, Default, Clone)]
pub struct Replayed {
    pub records: u64,
    pub closes: u64,
    /// Closes whose replayed window equals the real one: distinct,
    /// new_distinct and the bits of `summary.error()`.
    pub mirrored: u64,
    /// `StreamSummarizer::statements_parsed` of the bare summarizer.
    pub featurize_calls: u64,
    pub parse_failures: u64,
    pub universe: u64,
    pub journal_bytes: u64,
    pub resident_bytes: u64,
    pub spilled_shards: u64,
}

/// Per-text featurization cache with the summarizer's lifetime rule: a
/// slot lives while a buffered or pending statement carries it.
#[derive(Default)]
struct Slot {
    branches: Option<Vec<FeatureBranch>>,
    refs: usize,
}

struct Replay<'a> {
    cfg: StreamConfig,
    tracer: &'a Tracer,
    featurizer: Box<dyn Featurizer>,
    cache: HashMap<String, Slot>,
    buffer: VecDeque<String>,
    pending: Vec<String>,
    since_close: u64,
    history: QueryLog,
    baseline: QueryLog,
    rotation: VecDeque<(QueryLog, u64)>,
    shards: ShardedPointSet,
    out: Replayed,
}

impl Replay<'_> {
    fn acquire(&mut self, text: &str) {
        match self.cache.get_mut(text) {
            Some(slot) => slot.refs += 1,
            None => {
                self.cache.insert(text.to_string(), Slot { branches: None, refs: 1 });
            }
        }
    }

    fn release(cache: &mut HashMap<String, Slot>, text: &str) {
        if let Some(slot) = cache.get_mut(text) {
            slot.refs = slot.refs.saturating_sub(1);
            if slot.refs == 0 {
                cache.remove(text);
            }
        }
    }

    fn buffer(&mut self, text: &str) {
        self.acquire(text);
        self.buffer.push_back(text.to_string());
        self.since_close += 1;
        if self.cfg.slide.is_some() {
            self.acquire(text);
            self.pending.push(text.to_string());
        }
        self.out.records += 1;
    }

    /// Record → feature branches, stage by stage for SQL.
    fn featurize(&mut self, text: &str) -> Vec<FeatureBranch> {
        if self.cfg.source != SourceConfig::Sql {
            return self
                .tracer
                .time("source.featurize", "source", || self.featurizer.featurize(text));
        }
        // `parse_select` lexes for itself; this pass only prices the lexer.
        self.tracer.time("sql.lex", "sql", || std::hint::black_box(Lexer::tokenize(text)).is_ok());
        let parsed = self.tracer.time("sql.parse_select", "sql", || parse_select(text));
        let Ok(mut statement) = parsed else {
            self.out.parse_failures += 1;
            return Vec::new();
        };
        let regularized = self.tracer.time("sql.normalize", "sql", || {
            anonymize_statement(&mut statement);
            regularize(&statement)
        });
        let Ok(regularized) = regularized else { return Vec::new() };
        self.tracer.time("feature.extract", "feature", || {
            regularized
                .branches
                .iter()
                .map(|b| FeatureBranch::new(branch_features(b, ExtractConfig::default())))
                .collect()
        })
    }

    /// The summarizer's `cached_log`: featurize on miss, encode always.
    /// Encoding time is the loop's time less the featurizing inside it.
    fn log_of(&mut self, texts: &[String]) -> QueryLog {
        let start = Instant::now();
        let mut featurizing = std::time::Duration::ZERO;
        let mut log = QueryLog::new();
        for text in texts {
            if self.cache.get(text).is_none_or(|slot| slot.branches.is_none()) {
                let at = Instant::now();
                let branches = self.featurize(text);
                featurizing += at.elapsed();
                self.cache.entry(text.clone()).or_default().branches = Some(branches);
            }
            for branch in self.cache[text].branches.iter().flatten() {
                log.add_features(&branch.features, 1);
            }
        }
        let end = Instant::now();
        self.tracer.leaf("feature.encode", "feature", start + featurizing, end, texts.len() as u64);
        log
    }

    fn close(&mut self) -> Res<(usize, usize, u64)> {
        let sliding = self.cfg.slide.is_some();
        if sliding {
            while self.buffer.len() as u64 > self.cfg.window {
                let text = self.buffer.pop_front().expect("non-empty");
                Self::release(&mut self.cache, &text);
            }
        }
        let texts: Vec<String> = self.buffer.iter().cloned().collect();
        let window_log = self.log_of(&texts);
        let t = self.tracer;
        if self.baseline.total_queries() > 0 {
            t.time("core.drift", "core", || feature_drift(&self.baseline, &window_log));
            t.time("core.novelty", "core", || {
                novelty_scores(&self.baseline, &window_log, self.cfg.metric)
            });
        }
        let dist = t.time("cluster.distances", "cluster", || {
            PointSet::from_log(&window_log).distances(self.cfg.metric)
        });
        if window_log.distinct_count() > 0 {
            // The dendrogram `compress_condensed` builds again below,
            // priced on a copy so mixture encoding is the difference.
            let weights: Vec<f64> = window_log.entries().iter().map(|&(_, c)| c as f64).collect();
            let copy = dist.clone();
            t.time("cluster.dendrogram", "cluster", || {
                hierarchical_cluster_condensed(copy, &weights)
            });
        }
        let compressor = LogR::new(self.cfg.compressor_config());
        let summary =
            t.time("core.compress", "core", || compressor.compress_condensed(&window_log, dist));

        let prev_distinct = self.history.distinct_count();
        let stride_log = if sliding {
            let pending = std::mem::take(&mut self.pending);
            let log = self.log_of(&pending);
            for text in &pending {
                Self::release(&mut self.cache, text);
            }
            t.time("feature.absorb", "feature", || self.history.absorb(&log));
            log
        } else {
            // Tumbling windows are the stride: the window's log is copied.
            t.time("feature.absorb", "feature", || {
                let log = window_log.clone();
                self.history.absorb(&log);
                log
            })
        };
        let new_entries: Vec<&QueryVector> =
            self.history.entries()[prev_distinct..].iter().map(|(v, _)| v).collect();
        let new_distinct = new_entries.len();
        let n_features = self.history.num_features();
        t.time("cluster.shard_push", "cluster", || {
            self.shards.try_push_shard(&new_entries, n_features)
        })?;

        let overlap_span = if sliding { self.buffer.len() as u64 } else { 0 };
        t.time("core.baseline_rotate", "core", || {
            self.baseline = rotate_baseline(
                &mut self.rotation,
                stride_log,
                self.since_close,
                overlap_span,
                self.cfg.baseline_windows,
            );
            if !sliding {
                for text in std::mem::take(&mut self.buffer) {
                    Self::release(&mut self.cache, &text);
                }
            }
        });
        // What the summarizer records for a delta-log persister after
        // every close, durable or not: the retained buffer, the pending
        // statements, the stride's log and the featurizer's new events.
        t.time("core.close_delta", "core", || {
            let stride = self.rotation.back().map(|(log, _)| log.clone());
            let buffer: Vec<(String, u64, u64)> =
                self.buffer.iter().map(|text| (text.clone(), 1, 0)).collect();
            std::hint::black_box((
                stride,
                buffer,
                self.pending.clone(),
                self.featurizer.drain_events(),
            ))
        });
        self.since_close = 0;
        self.out.closes += 1;
        Ok((window_log.distinct_count(), new_distinct, summary.error().to_bits()))
    }

    /// What a cold read builds: the merged matrix and its dendrogram.
    fn history_summary(&mut self) -> Res<()> {
        let t = self.tracer;
        let dist = t.time("cluster.condensed_merge", "cluster", || {
            self.shards.try_condensed(self.cfg.metric)
        })?;
        let weights: Vec<f64> = self.history.entries().iter().map(|&(_, c)| c as f64).collect();
        t.time("cluster.history_dendrogram", "cluster", || {
            hierarchical_cluster_condensed(dist, &weights)
        });
        Ok(())
    }
}

/// Drive `chunks` through a bare summarizer and the replay side by side.
/// `spill` is the resident budget of a durable workload; both copies then
/// spill through `vfs` into directories of their own.
pub fn run(
    cfg: StreamConfig,
    spill: Option<(usize, Arc<dyn Vfs>)>,
    chunks: impl Iterator<Item = Vec<String>>,
    warmup_closes: u64,
    read_every: u64,
    tracer: &Tracer,
) -> Res<Replayed> {
    let mut bare = StreamSummarizer::new(cfg);
    let mut replay = Replay {
        cfg,
        tracer,
        featurizer: cfg.source.featurizer(),
        cache: HashMap::new(),
        buffer: VecDeque::new(),
        pending: Vec::new(),
        since_close: 0,
        history: QueryLog::new(),
        baseline: QueryLog::new(),
        rotation: VecDeque::new(),
        shards: ShardedPointSet::new(),
        out: Replayed::default(),
    };
    let dirs = spill.as_ref().map(|_| (StoreDir::fresh("replay-bare"), StoreDir::fresh("replay")));
    if let (Some((budget, vfs)), Some((bare_dir, replay_dir))) = (&spill, &dirs) {
        bare.spill_to_with(vfs.clone(), &bare_dir.0, *budget)?;
        replay.shards.set_vfs(vfs.clone());
        replay
            .shards
            .set_spill(SpillConfig { dir: replay_dir.0.clone(), resident_budget: *budget })?;
    }

    for chunk in chunks {
        let mut at = 0usize;
        while at < chunk.len() {
            // The bare summarizer runs a block up to and including its
            // next close; the replay then does the same window.
            let start = Instant::now();
            let mut closed = None;
            let mut end = at;
            while end < chunk.len() && closed.is_none() {
                let before = Instant::now();
                closed = bare.try_ingest_record(&chunk[end])?;
                end += 1;
                if closed.is_some() {
                    let calls = (end - at - 1) as u64;
                    tracer.leaf("core.stream_buffer", "core", start, before, calls);
                    tracer.leaf("core.stream_close", "core", before, Instant::now(), 1);
                }
            }
            if closed.is_none() {
                tracer.leaf("core.stream_buffer", "core", start, Instant::now(), (end - at) as u64);
            }
            for text in &chunk[at..end] {
                replay.buffer(text);
            }
            at = end;
            if let Some(real) = closed {
                let (distinct, new_distinct, error_bits) = replay.close()?;
                let same = real.distinct == distinct
                    && real.new_distinct == new_distinct
                    && real.summary.error().to_bits() == error_bits;
                replay.out.mirrored += u64::from(same);
                let timed = replay.out.closes.saturating_sub(warmup_closes);
                if timed > 0 && timed.is_multiple_of(read_every) {
                    replay.history_summary()?;
                }
            }
        }
    }
    bare.try_flush()?;

    let journal = replay.featurizer.export_journal();
    let mut fresh = cfg.source.featurizer();
    tracer.time("source.journal_replay", "source", || fresh.replay(&journal))?;
    replay.out.featurize_calls = bare.statements_parsed();
    replay.out.journal_bytes = journal.len() as u64;
    replay.out.universe = replay.history.num_features() as u64;
    replay.out.resident_bytes = replay.shards.resident_bytes() as u64;
    replay.out.spilled_shards = replay.shards.spilled_shards() as u64;
    Ok(replay.out)
}
