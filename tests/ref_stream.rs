//! Every engine flavour against `RefStream`, the executable reference of
//! a window close (`logr_testkit::RefStream`): the same scripts run
//! through an in-memory `Engine` and a durable one on a `FaultFs`, and at
//! every close both must report what the reference rebuilds from the raw
//! records, bit for bit — the window's counts, log, summary, drift,
//! novelty and verdict; the close count and total; the history, the
//! baseline and the history summary.
//!
//! The durable engine is reopened from its store at random closes, once
//! after a simulated power cut (the store as it stood on the platter when
//! the close returned), so recovery from the delta log, the journal
//! replay of a template source and the spilled shards are all held to
//! the same reference. Scripts draw SQL from the render-many-ways
//! generator (and template-source runs from rotating service lines), with
//! tumbling and sliding count windows, multiplicities large enough to
//! expire whole strides, early flushes, and a resident budget of 0 on
//! some seeds. Time windows are not covered: the reference specifies
//! count windows only.

use logr::cluster::Distance;
use logr::core::StreamConfig;
use logr::{Engine, EngineBuilder, Record, SourceConfig};
use logr_testkit::sql_gen::Draws;
use logr_testkit::vfs::{durable_state, LastOpVariant};
use logr_testkit::{script_texts, FaultFs, RefStream};
use std::sync::Arc;

/// One scripted engine call.
enum Step {
    Ingest(String, u64),
    Flush,
}

/// A stream configuration and its script, drawn from `seed`. Sources
/// and window kinds take turns by seed, so every block of four seeds
/// covers SQL and template, tumbling and sliding.
fn case(seed: u64) -> (StreamConfig, Vec<Step>) {
    let mut d = Draws(seed.wrapping_mul(0x9e37_79b9));
    let template = seed % 2 == 1;
    let window = [6, 8, 12][(d.next() % 3) as usize];
    let config = StreamConfig {
        window,
        slide: (seed % 4 >= 2).then(|| 2 + d.next() % (window / 2 - 1)),
        baseline_windows: 1 + (d.next() % 3) as usize,
        k: 1 + (d.next() % 4) as usize,
        metric: [
            Distance::Hamming,
            Distance::Manhattan,
            Distance::Euclidean,
            Distance::Minkowski(4.0),
        ][(d.next() % 4) as usize],
        seed,
        source: if template { SourceConfig::template() } else { SourceConfig::Sql },
        ..StreamConfig::default()
    };
    let n = 60 + (d.next() % 30) as usize;
    let mut steps = Vec::new();
    for text in script_texts(seed, template, n) {
        let count = match d.next() % 24 {
            0 => window + d.next() % 4,
            1 | 2 => 2 + d.next() % 2,
            _ => 1,
        };
        steps.push(Step::Ingest(text, count));
        if d.next().is_multiple_of(23) {
            steps.push(Step::Flush);
        }
    }
    (config, steps)
}

fn builder(config: &StreamConfig) -> EngineBuilder {
    let b = Engine::builder()
        .window(config.window)
        .baseline_windows(config.baseline_windows)
        .clusters(config.k)
        .metric(config.metric)
        .seed(config.seed)
        .source(config.source);
    match config.slide {
        Some(slide) => b.slide(slide),
        None => b,
    }
}

/// The engine's published view against the reference.
fn check_view(reference: &RefStream, engine: &Engine, ctx: &str) {
    let snap = engine.snapshot().expect("snapshot");
    let summary = snap.summary().expect("history summary");
    reference.check_view(
        snap.windows_closed(),
        snap.total_queries(),
        snap.history(),
        snap.baseline(),
        summary.as_deref(),
        ctx,
    );
}

/// Run one seed through the reference and both engines, checking every
/// close; returns the number of closes.
fn check_seed(seed: u64) -> usize {
    let (config, steps) = case(seed);
    let mut reference = RefStream::new(config);
    let memory = builder(&config).in_memory().expect("in-memory engine");
    let dir = format!("/ref-stream-{seed}");
    let budget = if seed.is_multiple_of(3) { 0 } else { usize::MAX };
    let mut fs = Arc::new(FaultFs::new());
    let mut durable = builder(&config)
        .resident_budget(budget)
        .vfs(fs.clone())
        .open(&dir)
        .expect("durable engine");
    let mut d = Draws(seed ^ 0x00c0_ffee);
    let power_cut_at = 2 + d.next() % 4;
    let mut closes = 0;
    for step in steps {
        let (closed, by_memory, by_durable) = match step {
            Step::Ingest(text, count) => {
                let record = Record::new(text.as_str()).times(count);
                (
                    reference.ingest(&text, count),
                    memory.ingest(&record).expect("in-memory ingest"),
                    durable.ingest(&record).expect("durable ingest"),
                )
            }
            Step::Flush => (
                reference.flush(),
                memory.flush().expect("in-memory flush"),
                durable.flush().expect("durable flush"),
            ),
        };
        let ctx = format!("seed {seed}, close {closes}");
        assert_eq!(by_memory.is_some(), closed, "{ctx}: in-memory close point");
        assert_eq!(by_durable.is_some(), closed, "{ctx}: durable close point");
        let (Some(by_memory), Some(by_durable)) = (by_memory, by_durable) else { continue };
        reference.check_window(&by_memory, &format!("{ctx}, in memory"));
        reference.check_window(&by_durable, &format!("{ctx}, durable"));
        check_view(&reference, &memory, &format!("{ctx}, in memory"));
        check_view(&reference, &durable, &format!("{ctx}, durable"));
        closes += 1;

        let cut = closes as u64 == power_cut_at;
        if cut || d.next().is_multiple_of(4) {
            let trace = fs.trace();
            drop(durable);
            if cut {
                let (files, dirs) = durable_state(&trace, LastOpVariant::Lost);
                fs = Arc::new(FaultFs::from_files(files, dirs));
            }
            durable = EngineBuilder::new().vfs(fs.clone()).resume(&dir).expect("reopen");
            let how = if cut { "after a power cut" } else { "reopened" };
            check_view(&reference, &durable, &format!("{ctx}, {how}"));
        }
    }
    closes
}

fn check_seeds(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let closes = check_seed(seed);
        assert!(closes >= 5, "seed {seed}: only {closes} closes; the script is too short");
    }
}

#[test]
fn every_engine_matches_the_reference_at_every_close_seeds_0_to_3() {
    check_seeds(0..4);
}

#[test]
fn every_engine_matches_the_reference_at_every_close_seeds_4_to_7() {
    check_seeds(4..8);
}
