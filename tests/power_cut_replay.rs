//! PR 6 acceptance, power-cut half: the replay harness — extended for
//! the delta-manifest close path.
//!
//! A scripted engine run executes entirely against a `FaultFs`, which
//! records the full mutating IO-op trace — every write and append,
//! which of them were fsynced, every rename/remove, and every
//! directory sync. For **every prefix** of that trace (a power cut at
//! that exact op), and for the torn/unsynced-page variants of the
//! prefix's final op, the harness materializes the surviving on-disk
//! state (`vfs::durable_state`) and opens an engine on it. The
//! properties:
//!
//! * a crash state holding a durable base manifest recovers to **a
//!   state the run actually reached**: the surviving base bytes are
//!   ones the run wrote, and the recovered (windows closed, total
//!   queries) pair appears in the run's step-by-step record — the
//!   delta log can only land recovery on a step boundary, never on an
//!   invented in-between state;
//! * the delta log replays **bit-identically**: re-encoding the
//!   replayed manifest equals, byte for byte, the base manifest the
//!   recovered engine's own checkpoint writes (decode → replay the
//!   surviving append-log prefix → reconstruct full stream state →
//!   re-encode is the identity);
//! * a writable resume leaves no `*.tmp` litter behind — crash-orphaned
//!   shard temporaries and manifest temporaries are swept;
//! * a crash state without a durable manifest is the typed
//!   [`Error::MissingManifest`], nothing else;
//! * **never** a panic, never silently different data.
//!
//! Exercised across tumbling/sliding/time windows, budget 0 and
//! unbounded, SQL and template sources (the latter proves the miner
//! journal recovers bit-identically), with explicit checkpoints
//! mid-trace —
//! deterministic scenario tests plus a property test over random window
//! shapes, budgets, and scripts, plus an exhaustive record-prefix sweep
//! of one multi-record delta log.

use logr::cluster::Clustering;
use logr::core::TimeWindows;
use logr::{Engine, EngineBuilder, Error, Record};
use logr_testkit::vfs::{durable_state, FaultFs, IoOp, LastOpVariant};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Same statement pool as the recovery suite: repeats, novel queries,
/// unparseable garbage, multi-branch statements.
fn statement(i: u64) -> String {
    match i % 7 {
        0 => format!("SELECT c{}, c{} FROM t{} WHERE a{} = ?", i % 13, i % 11, i % 3, i % 7),
        1 => format!("SELECT c{} FROM t{} WHERE a{} = ? AND b{} = ?", i % 17, i % 3, i % 7, i % 5),
        2 => format!("SELECT c{}, c{} FROM t{}", i % 13, i % 17, i % 4),
        3 => format!("SELECT c{} FROM t{} WHERE a{} > ?", i % 11, i % 4, i % 7),
        4 => format!("SELECT c{} FROM t{} WHERE x{} = ? OR y{} = ?", i % 5, i % 3, i % 5, i % 3),
        5 => "THIS IS NOT SQL @@@".to_string(),
        _ => format!("SELECT balance FROM accounts WHERE owner{} = ?", i % 6),
    }
}

/// Free-form service lines for the template-source scenario: stable
/// shapes with rotating parameters, plus a parameter-free line (which
/// mines to a wildcard-less template).
fn service_line(i: u64) -> String {
    match i % 5 {
        0 => format!("auth: user u{} logged in from 10.0.0.{}", i % 19, i % 251),
        1 => format!("http: GET /api/v1/items/{} -> 200 in {} ms", i % 97, 3 + i % 40),
        2 => format!("db: slow query {} ms on shard {}", 100 + i % 400, i % 8),
        3 => "cache: flush complete".to_string(),
        _ => format!("gc: pause {} ms heap {} mb", i % 60, 256 + i % 512),
    }
}

/// One scripted engine operation.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `ingest_record(statement(i))`.
    Sql(u64),
    /// `ingest_record(service_line(i))` for template-source scenarios.
    Record(u64),
    /// `ingest(&Record::new(statement(i)).at(ts))` for time-window scenarios.
    At(u64, u64),
    Flush,
    Checkpoint,
}

/// What the run left behind: the IO trace, every base manifest the run
/// wrote (bytes → the engine state that wrote it), the engine state
/// after every step (every state a crash may legally recover to), and
/// a fingerprint of the final history summary.
struct Recorded {
    trace: Vec<IoOp>,
    bases: BTreeMap<Vec<u8>, CheckpointMeta>,
    states: Vec<CheckpointMeta>,
    final_summary: Option<(Clustering, u64)>,
}

#[derive(Debug, Clone, PartialEq)]
struct CheckpointMeta {
    windows_closed: usize,
    total_queries: u64,
}

/// Run `steps` on a fresh engine over a `FaultFs`, recording every
/// checkpoint the run writes (keyed by exact manifest bytes) and the
/// full IO trace.
fn run_scripted(
    dir: &Path,
    build: impl FnOnce(EngineBuilder) -> EngineBuilder,
    steps: &[Step],
) -> Recorded {
    let fs = Arc::new(FaultFs::new());
    let manifest_path = dir.join(logr::manifest::FILE_NAME);
    let engine = build(Engine::builder()).vfs(fs.clone()).open(dir).expect("open on FaultFs");
    let mut bases: BTreeMap<Vec<u8>, CheckpointMeta> = BTreeMap::new();
    let mut states: Vec<CheckpointMeta> = Vec::new();
    let mut record = |engine: &Engine| {
        // Persists happen inside the engine call that advanced the
        // state, so metadata captured right after a call matches
        // whatever that call made durable — a crash can only ever land
        // recovery on one of these step-boundary states. `or_insert`
        // keeps the first capture of each base manifest: under the
        // delta log the base bytes stay put across window closes while
        // the recoverable state advances through appended records.
        let meta = CheckpointMeta {
            windows_closed: engine.windows_closed().expect("windows_closed"),
            total_queries: engine.total_queries().expect("total_queries"),
        };
        if let Some(bytes) = fs.files().get(&manifest_path) {
            bases.entry(bytes.clone()).or_insert_with(|| meta.clone());
        }
        states.push(meta);
    };
    record(&engine);
    for step in steps {
        match *step {
            Step::Sql(i) => {
                engine.ingest_record(&statement(i)).expect("ingest");
            }
            Step::Record(i) => {
                engine.ingest_record(&service_line(i)).expect("ingest_record");
            }
            Step::At(i, ts) => {
                engine.ingest(&Record::new(statement(i)).at(ts)).expect("ingest at ts");
            }
            Step::Flush => {
                engine.flush().expect("flush");
            }
            Step::Checkpoint => engine.checkpoint().expect("checkpoint"),
        }
        record(&engine);
    }
    let final_summary =
        engine.summary().expect("summary").map(|s| (s.clustering.clone(), s.error().to_bits()));
    drop(engine);
    Recorded { trace: fs.trace(), bases, states, final_summary }
}

/// The acceptance property, checked at one crash point: recovery either
/// lands on a state the run actually reached — with the surviving
/// delta-log prefix replaying bit-identically into the checkpoint the
/// recovered engine folds — or fails with the one typed error a
/// manifest-less store permits.
fn check_crash_point(dir: &Path, rec: &Recorded, k: usize, variant: LastOpVariant) {
    let manifest_path = dir.join(logr::manifest::FILE_NAME);
    let (files, dirs) = durable_state(&rec.trace[..k], variant);
    let surviving = files.get(&manifest_path).cloned();
    let fs = Arc::new(FaultFs::from_files(files, dirs));
    let Some(bytes) = surviving else {
        match EngineBuilder::new().vfs(fs).resume(dir) {
            Ok(_) => panic!("prefix {k} {variant:?}: resume succeeded without a durable manifest"),
            Err(Error::MissingManifest { .. }) => return,
            Err(other) => panic!("prefix {k} {variant:?}: wrong error: {other}"),
        }
    };
    // The durable base must be one the run actually wrote — a torn or
    // partially-synced manifest surviving under the final name would
    // show up here as unrecognized bytes.
    let base_meta = rec.bases.get(&bytes).unwrap_or_else(|| {
        panic!("prefix {k} {variant:?}: durable manifest is not any checkpoint of the run")
    });
    // Replay the surviving base + delta-log prefix directly and
    // re-encode it: this is the exact byte image a faithful fold must
    // produce from this crash state.
    let (replayed, _) = logr::manifest::read_store_with(&*fs, dir)
        .unwrap_or_else(|e| panic!("prefix {k} {variant:?}: durable store failed to replay: {e}"));
    let expected = logr::manifest::encode(&replayed);
    let engine = EngineBuilder::new().vfs(fs.clone()).resume(dir).unwrap_or_else(|e| {
        panic!("prefix {k} {variant:?}: durable checkpoint failed to recover: {e}")
    });
    let meta = CheckpointMeta {
        windows_closed: engine.windows_closed().expect("windows_closed"),
        total_queries: engine.total_queries().expect("total_queries"),
    };
    assert!(
        rec.states.contains(&meta),
        "prefix {k} {variant:?}: recovered to {meta:?}, a state the run never reached"
    );
    assert!(
        meta.windows_closed >= base_meta.windows_closed
            && meta.total_queries >= base_meta.total_queries,
        "prefix {k} {variant:?}: recovered {meta:?} behind its own base {base_meta:?}"
    );
    // A writable resume sweeps crash litter: no `*.tmp` — shard or
    // manifest temporary — may survive it.
    for path in fs.files().keys() {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        assert!(
            !name.ends_with(".tmp"),
            "prefix {k} {variant:?}: {} survived a writable resume",
            path.display()
        );
    }
    // Bit-identity, the strong form: the recovered engine's own
    // checkpoint must write exactly the re-encoded replayed manifest —
    // decode → replay the delta prefix → reconstruct full stream state
    // → re-encode is the identity exactly when recovery was faithful.
    engine
        .checkpoint()
        .unwrap_or_else(|e| panic!("prefix {k} {variant:?}: re-checkpoint failed: {e}"));
    let rewritten = fs
        .files()
        .get(&manifest_path)
        .cloned()
        .unwrap_or_else(|| panic!("prefix {k} {variant:?}: re-checkpoint wrote nothing"));
    assert_eq!(
        rewritten, expected,
        "prefix {k} {variant:?}: fold diverges from the replayed delta prefix"
    );
}

/// Sweep every crash point of the recorded trace: each prefix with the
/// pessimistic base semantics, plus the applied/torn variants of the
/// prefix's final op. Then confirm the full-trace (clean shutdown) state
/// serves the original run's final history summary bit-identically.
fn replay_everywhere(dir: &Path, rec: &Recorded) {
    assert!(!rec.bases.is_empty(), "run recorded no checkpoints — scenario bug");
    for k in 0..=rec.trace.len() {
        check_crash_point(dir, rec, k, LastOpVariant::Lost);
        if k > 0 {
            check_crash_point(dir, rec, k, LastOpVariant::Applied);
            check_crash_point(dir, rec, k, LastOpVariant::Torn);
        }
    }
    let (files, dirs) = durable_state(&rec.trace, LastOpVariant::Lost);
    let fs = Arc::new(FaultFs::from_files(files, dirs));
    let engine = EngineBuilder::new().vfs(fs).resume(dir).expect("clean-shutdown resume");
    let recovered =
        engine.summary().expect("summary").map(|s| (s.clustering.clone(), s.error().to_bits()));
    assert_eq!(recovered, rec.final_summary, "final history summary diverged after recovery");
}

fn sql_steps(n: u64) -> Vec<Step> {
    (0..n).map(Step::Sql).collect()
}

#[test]
fn power_cut_replay_tumbling_budget_zero_with_checkpoint() {
    // Budget 0 spills aggressively (maximum shard-file traffic), and the
    // mid-window checkpoint persists a half-filled buffer.
    let mut steps = sql_steps(23);
    steps.push(Step::Checkpoint);
    steps.extend((23..26).map(Step::Sql));
    let dir = PathBuf::from("/vstore-tumbling");
    let rec = run_scripted(&dir, |b| b.window(5).clusters(2).resident_budget(0), &steps);
    replay_everywhere(&dir, &rec);
}

#[test]
fn power_cut_replay_sliding_unbounded() {
    let mut steps = sql_steps(20);
    steps.push(Step::Flush);
    let dir = PathBuf::from("/vstore-sliding");
    let rec = run_scripted(&dir, |b| b.window(6).slide(3).clusters(2), &steps);
    replay_everywhere(&dir, &rec);
}

#[test]
fn power_cut_replay_time_windows_budget_zero() {
    // Time-based windows close on timestamp boundaries; jumping the
    // clock forces closes at irregular points in the script.
    let steps: Vec<Step> = (0..22).map(|i| Step::At(i, 140 * i + 1)).collect();
    let dir = PathBuf::from("/vstore-time");
    let rec = run_scripted(
        &dir,
        |b| {
            b.time_windows(TimeWindows { window_ms: 500, slide_ms: None })
                .clusters(2)
                .resident_budget(0)
        },
        &steps,
    );
    replay_everywhere(&dir, &rec);
}

#[test]
fn power_cut_replay_template_source_budget_zero() {
    // A template-source engine carries extra recovery state: the miner's
    // journal rides in the base manifest and its per-record increments in
    // the delta log. The bit-identity half of the sweep (recovered
    // engine's re-checkpoint == replayed manifest bytes) therefore proves
    // the mined template tree survives every crash point exactly — a
    // recovery that dropped or reordered journal entries would re-encode
    // different featurizer bytes and fail the byte comparison.
    let mut steps: Vec<Step> = (0..14).map(Step::Record).collect();
    steps.push(Step::Checkpoint);
    steps.extend((14..24).map(Step::Record));
    let dir = PathBuf::from("/vstore-template");
    let rec = run_scripted(
        &dir,
        |b| b.window(5).clusters(2).resident_budget(0).source(logr::SourceConfig::template()),
        &steps,
    );
    replay_everywhere(&dir, &rec);
}

/// The delta log replays bit-identically at **every** record prefix,
/// not only the prefixes the crash sweep happens to produce: a run
/// that appends several delta records is truncated at each frame
/// boundary, and for every truncation the replayed manifest's
/// re-encoding must equal, byte for byte, the base manifest a resumed
/// engine's fold writes. Recovered window counts step monotonically
/// toward the live engine's final count as records are restored.
#[test]
fn every_delta_log_prefix_folds_bit_identically() {
    let dir = PathBuf::from("/vstore-delta-prefix");
    let fs = Arc::new(FaultFs::new());
    let engine = Engine::builder().window(4).clusters(2).vfs(fs.clone()).open(&dir).expect("open");
    for i in 0..40 {
        engine.ingest_record(&statement(i)).expect("ingest");
    }
    let final_windows = engine.windows_closed().expect("windows_closed");
    drop(engine);
    let files = fs.files();
    let dirs: BTreeSet<PathBuf> = fs.dirs();
    let delta_path = dir.join(logr::manifest::DELTA_FILE_NAME);
    let delta = files.get(&delta_path).cloned().expect("run left a delta log");
    // Frame boundaries: a 36-byte header, then [len u64][payload][fnv u64]
    // per record. Walk them so each cut holds exactly `records` frames.
    let mut cuts = vec![logr::manifest::DELTA_HEADER_LEN];
    let mut at = logr::manifest::DELTA_HEADER_LEN;
    while at < delta.len() {
        let len = u64::from_le_bytes(delta[at..at + 8].try_into().unwrap()) as usize;
        at += 8 + len + 8;
        cuts.push(at);
    }
    assert_eq!(at, delta.len(), "frame walk must land exactly on the file end");
    assert!(cuts.len() > 4, "scenario closed too few windows over the delta log");
    let mut last_windows = None;
    for (records, cut) in cuts.iter().enumerate() {
        let mut truncated = files.clone();
        truncated.insert(delta_path.clone(), delta[..*cut].to_vec());
        let fs = Arc::new(FaultFs::from_files(truncated, dirs.clone()));
        let (replayed, replay) =
            logr::manifest::read_store_with(&*fs, &dir).expect("replay truncated store");
        assert!(replay.log_bound, "prefix {records}: delta must bind to its base");
        assert_eq!(replay.records_applied, records as u64, "prefix {records}: applied count");
        let expected = logr::manifest::encode(&replayed);
        let engine = EngineBuilder::new().vfs(fs.clone()).resume(&dir).expect("resume");
        let recovered = engine.windows_closed().expect("windows_closed");
        if let Some(prev) = last_windows {
            assert!(recovered >= prev, "prefix {records}: windows went backwards");
        }
        last_windows = Some(recovered);
        engine.checkpoint().expect("fold");
        let folded = fs
            .files()
            .get(&dir.join(logr::manifest::FILE_NAME))
            .cloned()
            .expect("fold wrote a base");
        assert_eq!(folded, expected, "prefix {records}: fold diverges from the replayed prefix");
    }
    assert_eq!(last_windows, Some(final_windows), "full prefix must recover every window");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The same property over random window shapes, budgets, and scripts
    /// (a checkpoint at a random point).
    #[test]
    fn power_cut_replay_holds_for_random_scenarios(
        case in 0u64..1_000_000,
        seeds in prop::collection::vec(0u64..60, 10..30),
        window in 4u64..10,
        slide_num in 0u64..3,
        budget_zero in proptest::arbitrary::any::<bool>(),
        checkpoint_frac in 0usize..100,
    ) {
        let mut steps: Vec<Step> = seeds.iter().map(|&s| Step::Sql(s)).collect();
        let checkpoint_at = checkpoint_frac * steps.len() / 100;
        steps.insert(checkpoint_at, Step::Checkpoint);
        // Unique virtual directory per case: the engine's in-process
        // store registry keys on the path, and a shared name would
        // serialize… or collide across concurrently-running cases.
        let dir = PathBuf::from(format!("/vstore-prop-{case}-{window}-{slide_num}"));
        let slide = (slide_num > 0).then(|| (window / (slide_num + 1)).max(1));
        let rec = run_scripted(&dir, |mut b| {
            b = b.window(window).clusters(2);
            if let Some(s) = slide {
                b = b.slide(s);
            }
            if budget_zero {
                b = b.resident_budget(0);
            }
            b
        }, &steps);
        replay_everywhere(&dir, &rec);
    }
}
