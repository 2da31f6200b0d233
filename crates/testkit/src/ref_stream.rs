//! [`RefStream`], an executable specification of a window close.
//!
//! The engine reaches each close incrementally: a window cursor, a
//! rotation of stride logs, an `Arc`-shared history, per-window shards,
//! a featurizer memo, a baseline lookup for novelty, a delta log and a
//! journal on disk. `RefStream` keeps none of that. It keeps every raw
//! record and the record count at which each window closed, and at every
//! close it rebuilds everything from those two lists:
//!
//! * the window and stride spans, from the window rules (a sliding
//!   window is the shortest suffix of the records that still covers
//!   `window` queries);
//! * their logs: a template miner assigns features by first sight, so a
//!   **fresh** miner replays every earlier close's spans in the order the
//!   stream fed them; SQL featurization is a function of the text alone,
//!   so each distinct text is featurized once, by a featurizer of its
//!   own, and no memo takes part;
//! * the history, as the union of every stride;
//! * the baseline, from the stride list and each close's exclusion span;
//! * drift against the previous close's baseline, and novelty by a full
//!   scan of every window query against every baseline query;
//! * the window and history summaries, from the sparse distance matrix
//!   ([`crate::distance`]), average linkage over the full matrix, and a
//!   reference cut.
//!
//! Anything an engine flavour (in memory, durable and reopened, served
//! by the daemon) reports at a close must equal this, bit for bit. Only
//! count windows are specified; time windows are not.

use crate::distance::{average_linkage, cut};
use crate::identical::{assert_log_identical, assert_summary_identical, assert_window_identical};
use crate::sql_gen::{arb_query, render, Draws, Query, RenderCfg};
use logr_cluster::{Clustering, Distance};
use logr_core::{feature_drift, LogRSummary, NaiveMixtureEncoding, StreamConfig, WindowSummary};
use logr_feature::{QueryLog, QueryVector};
use logr_source::{FeatureBranch, SourceConfig};
use proptest::strategy::Strategy;
use proptest::test_rng::TestRng;
use std::collections::HashMap;

/// The reference stream: every record, every close point, and the
/// rebuild of the latest close.
#[derive(Debug)]
pub struct RefStream {
    config: StreamConfig,
    /// Every record with a positive multiplicity, in arrival order.
    records: Vec<(String, u64)>,
    /// For each close, how many records had arrived when it closed.
    ends: Vec<usize>,
    /// The rebuild at the latest close.
    last: Option<RefClose>,
    /// Each distinct SQL text's features, from a featurizer of its own.
    sql_features: HashMap<String, Vec<FeatureBranch>>,
}

/// Everything the stream holds right after one close, rebuilt from
/// scratch.
#[derive(Debug)]
struct RefClose {
    /// What the close emits.
    window: WindowSummary,
    /// The union of every stride so far.
    history: QueryLog,
    /// The baseline the next close is judged against.
    baseline: QueryLog,
    /// The history's `k`-mixture; `None` while it holds no query.
    history_summary: Option<LogRSummary>,
}

/// One close's spans, in record indices.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// First record of the window.
    window_start: usize,
    /// First record since the previous close.
    stride_start: usize,
    /// One past the last record.
    end: usize,
}

impl RefStream {
    /// A reference for `config`.
    ///
    /// # Panics
    /// Panics on time windows, which this reference does not specify.
    pub fn new(config: StreamConfig) -> Self {
        assert!(config.time.is_none(), "RefStream specifies count windows only");
        RefStream {
            config,
            records: Vec::new(),
            ends: Vec::new(),
            last: None,
            sql_features: HashMap::new(),
        }
    }

    /// Take one record; whether it completed a window.
    pub fn ingest(&mut self, text: &str, count: u64) -> bool {
        if count == 0 {
            return false;
        }
        self.records.push((text.to_string(), count));
        let since_close = self.queries_since_close();
        let due = match self.config.slide {
            None => since_close >= self.config.window,
            Some(slide) => {
                let start =
                    self.ends.len().checked_sub(1).map_or(0, |c| self.spans()[c].window_start);
                self.total(start, self.records.len()) >= self.config.window && since_close >= slide
            }
        };
        if due {
            self.close();
        }
        due
    }

    /// Close the open window early; `false` when nothing arrived since
    /// the last close.
    pub fn flush(&mut self) -> bool {
        if self.queries_since_close() == 0 {
            return false;
        }
        self.close();
        true
    }

    /// Windows closed so far.
    pub fn windows_closed(&self) -> usize {
        self.ends.len()
    }

    /// Absorbed queries plus every query offered since the last close.
    pub fn total_queries(&self) -> u64 {
        self.last.as_ref().map_or(0, |c| c.history.total_queries()) + self.queries_since_close()
    }

    /// Assert that `window` is what the latest close emits.
    ///
    /// # Panics
    /// Panics on the first difference, or when nothing has closed.
    pub fn check_window(&self, window: &WindowSummary, ctx: &str) {
        let last =
            self.last.as_ref().unwrap_or_else(|| panic!("{ctx}: the reference never closed"));
        assert_window_identical(window, &last.window, ctx);
    }

    /// Assert that a reader's view of the stream — its close count, total,
    /// history, baseline and history summary — is what the reference
    /// holds now.
    ///
    /// # Panics
    /// Panics on the first difference.
    pub fn check_view(
        &self,
        windows_closed: usize,
        total_queries: u64,
        history: &QueryLog,
        baseline: &QueryLog,
        summary: Option<&LogRSummary>,
        ctx: &str,
    ) {
        assert_eq!(windows_closed, self.windows_closed(), "{ctx}: windows closed");
        assert_eq!(total_queries, self.total_queries(), "{ctx}: total queries");
        let empty = QueryLog::new();
        let (ref_history, ref_baseline, ref_summary) = match &self.last {
            Some(c) => (&c.history, &c.baseline, c.history_summary.as_ref()),
            None => (&empty, &empty, None),
        };
        assert_log_identical(history, ref_history, &format!("{ctx}: history"));
        assert_log_identical(baseline, ref_baseline, &format!("{ctx}: baseline"));
        match (summary, ref_summary) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_summary_identical(a, b, &format!("{ctx}: history summary"))
            }
            (a, b) => panic!(
                "{ctx}: history summary presence differs ({} vs {})",
                a.is_some(),
                b.is_some()
            ),
        }
    }

    fn total(&self, from: usize, to: usize) -> u64 {
        self.records[from..to].iter().map(|(_, count)| count).sum()
    }

    fn queries_since_close(&self) -> u64 {
        self.total(self.ends.last().copied().unwrap_or(0), self.records.len())
    }

    /// Every close's spans, from the close points alone.
    fn spans(&self) -> Vec<Span> {
        let mut stride_start = 0;
        self.ends
            .iter()
            .map(|&end| {
                let window_start = match self.config.slide {
                    None => stride_start,
                    // Drop front records while the rest still covers a
                    // full window.
                    Some(_) => {
                        let mut start = 0;
                        while self.total(start + 1, end) >= self.config.window {
                            start += 1;
                        }
                        start
                    }
                };
                let span = Span { window_start, stride_start, end };
                stride_start = end;
                span
            })
            .collect()
    }

    /// Close at the current record and rebuild everything.
    fn close(&mut self) {
        self.ends.push(self.records.len());
        self.last = Some(self.rebuild());
    }

    /// The whole stream up to the latest close, from scratch.
    fn rebuild(&mut self) -> RefClose {
        let spans = self.spans();
        let config = &self.config;
        let sliding = config.slide.is_some();

        // Window and stride logs. A fresh miner is fed in the stream's
        // order: each close's window, then its stride.
        let mut miner = config.source.featurizer();
        let sql_features = &mut self.sql_features;
        let records = &self.records;
        let mut featurize = |from: usize, to: usize| {
            let mut log = QueryLog::new();
            for (text, count) in &records[from..to] {
                let branches = match config.source {
                    SourceConfig::Sql => sql_features
                        .entry(text.clone())
                        .or_insert_with(|| config.source.featurizer().featurize(text))
                        .clone(),
                    SourceConfig::Template(_) => miner.featurize(text),
                };
                for branch in branches {
                    log.add_features(&branch.features, *count);
                }
            }
            log
        };
        let mut windows = Vec::with_capacity(spans.len());
        let mut strides = Vec::with_capacity(spans.len());
        for span in &spans {
            let window = featurize(span.window_start, span.end);
            let stride =
                if sliding { featurize(span.stride_start, span.end) } else { window.clone() };
            windows.push(window);
            strides.push(stride);
        }

        // Baselines: close c's rotation holds the strides [lo, c]; the
        // newest ones that the retained window may still span are
        // skipped, and the front is trimmed to `baseline_windows` usable
        // strides (a trimmed stride never comes back).
        let offered: Vec<u64> = spans.iter().map(|s| self.total(s.stride_start, s.end)).collect();
        let mut baselines = Vec::with_capacity(spans.len());
        let mut lo = 0;
        for (c, span) in spans.iter().enumerate() {
            let exclusion = if sliding { self.total(span.window_start, span.end) } else { 0 };
            let mut skip = 0;
            let mut covered = 0;
            while lo + skip <= c && covered < exclusion {
                covered += offered[c - skip];
                skip += 1;
            }
            let usable_end = c + 1 - skip;
            lo = lo.max(usable_end.saturating_sub(config.baseline_windows));
            let mut baseline = QueryLog::new();
            for stride in &strides[lo..usable_end] {
                baseline.absorb(stride);
            }
            baselines.push(baseline);
        }

        let c = spans.len() - 1;
        let mut history = QueryLog::new();
        for stride in &strides[..c] {
            history.absorb(stride);
        }
        let before = history.distinct_count();
        history.absorb(&strides[c]);

        let window_log = windows.swap_remove(c);
        let empty = QueryLog::new();
        let judge = if c == 0 { &empty } else { &baselines[c - 1] };
        let (drift, novelty) = if judge.total_queries() > 0 {
            (
                Some(feature_drift(judge, &window_log)),
                novelty_scan(judge, &window_log, config.metric),
            )
        } else {
            (None, Vec::new())
        };
        let stable = drift.as_ref().is_none_or(|d| d.is_stable(config.drift_tolerance));
        let window = WindowSummary {
            index: c,
            queries: offered[c],
            distinct: window_log.distinct_count(),
            new_distinct: history.distinct_count() - before,
            closed_at_ms: None,
            summary: summarize(&window_log, config),
            log: window_log,
            drift,
            novelty,
            stable,
        };
        let history_summary = (history.distinct_count() > 0).then(|| summarize(&history, config));
        RefClose { window, history, baseline: baselines.swap_remove(c), history_summary }
    }
}

/// The `k`-mixture of a log: average linkage over its sparse distance
/// matrix, weighted by multiplicity, cut at `k`.
fn summarize(log: &QueryLog, config: &StreamConfig) -> LogRSummary {
    let clustering = if log.distinct_count() == 0 {
        Clustering::new(1, Vec::new())
    } else {
        let points: Vec<&QueryVector> = log.entries().iter().map(|(v, _)| v).collect();
        let weights: Vec<f64> = log.entries().iter().map(|&(_, c)| c as f64).collect();
        let merges = average_linkage(&points, &weights, log.num_features(), config.metric);
        cut(&merges, points.len(), config.k)
    };
    let mixture = NaiveMixtureEncoding::build(log, &clustering);
    LogRSummary { clustering, mixture, refined: None }
}

/// Novelty by full scan: every window query's distance to its nearest
/// baseline query, over the baseline's universe. Window features are
/// matched to baseline ids by identity; a feature the baseline lacks
/// counts as one mismatch against every baseline query.
pub fn novelty_scan(baseline: &QueryLog, window: &QueryLog, metric: Distance) -> Vec<f64> {
    if baseline.distinct_count() == 0 || window.distinct_count() == 0 {
        return Vec::new();
    }
    let nf = baseline.num_features();
    let points: Vec<&QueryVector> = baseline.entries().iter().map(|(v, _)| v).collect();
    window
        .entries()
        .iter()
        .map(|(v, _)| {
            let mut ids = Vec::new();
            let mut unknown = 0;
            for id in v.iter() {
                let feature =
                    (id.index() < window.codebook().len()).then(|| window.codebook().feature(id));
                match feature.and_then(|f| baseline.codebook().get(f)) {
                    Some(base_id) => ids.push(base_id),
                    None => unknown += 1,
                }
            }
            let probe = QueryVector::new(ids);
            points
                .iter()
                .map(|p| metric.of_mismatches(probe.symmetric_difference_size(p) + unknown, nf))
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// `n` record texts for a reference run, drawn from `seed`.
///
/// SQL: a pool of generated statements ([`crate::sql_gen`]), each
/// occurrence rendered with fresh literals, whitespace and comments, a
/// skew toward the front of the pool so most texts recur in shape, a new
/// statement joining the pool now and then, statements that recombine
/// the pool's columns, tables and predicates (known features in a new
/// combination), and an occasional line that does not parse. Template
/// (`template: true`): service-log lines whose variable parts are words
/// as well as numbers — a word the miner has seen in only one spelling
/// stays literal until a second one turns it into a wildcard, so what a
/// text featurizes to depends on what came before it — with a new line
/// shape now and then.
pub fn script_texts(seed: u64, template: bool, n: usize) -> Vec<String> {
    const WORDS: [&str; 6] = ["alice", "bob", "carol", "dave", "erin", "frank"];
    let mut draws = Draws(seed);
    let mut rng = TestRng::from_seed(seed);
    // Every other pool statement is cut to one column and at most one
    // predicate: short vectors over a shared vocabulary are where a window
    // query's ids, read in the wrong codebook, name a baseline query.
    let mut draw_query = |k: usize| {
        let mut q = arb_query().generate(&mut rng);
        if k.is_multiple_of(2) {
            q.columns.truncate(1);
            q.preds.truncate(1);
        }
        q
    };
    let mut pool: Vec<Query> = (0..6).map(&mut draw_query).collect();
    let mut shapes = 4;
    (0..n as u64)
        .map(|i| {
            let roll = draws.next();
            if roll.is_multiple_of(13) {
                pool.push(draw_query(pool.len()));
                shapes += 1;
            }
            let p = draws.next();
            let word = |k: u64| WORDS[((p >> (8 * k)) % WORDS.len() as u64) as usize];
            if template {
                return match (p >> 40) % shapes {
                    0 => format!("auth: user {} logged in from {}", word(1), word(2)),
                    1 => format!("http: GET /api/v1/items/{} -> 200 in {} ms", p % 11, p % 40),
                    2 => format!("db: slow query on shard {} by {}", word(1), word(3)),
                    3 => "cache: flush complete".to_string(),
                    s => format!("job{s}: {} finished step {}", word(1), p % 4),
                };
            }
            if roll % 17 == 1 {
                return format!("THIS IS NOT SQL @@@ {}", i % 3);
            }
            let pick = |draw: u64| {
                let (a, b) = (draw % pool.len() as u64, (draw >> 32) % pool.len() as u64);
                &pool[a.min(b) as usize]
            };
            let cfg = RenderCfg { seed: draws.next(), comments: roll.is_multiple_of(2) };
            if roll % 5 == 2 {
                let (a, b, c) = (pick(p), pick(draws.next()), pick(draws.next()));
                let mixed = Query {
                    columns: a.columns.clone(),
                    table: b.table.clone(),
                    preds: c.preds.clone(),
                    limit: a.limit,
                };
                return render(&mixed, cfg);
            }
            render(pick(p), cfg)
        })
        .collect()
}
