//! The traced pass: an untraced round, a wrapped round and a layer
//! replay per iteration, reduced to the per-layer metrics.

use crate::embedded::{self, Embedded, Ops};
use crate::measure::{repeat, Outcome, Workload};
use crate::replay::{self, Replayed, CLOSE_STAGES};
use crate::server::{self, ServerSpec};
use crate::stats::{late_mean, mean, median, percentile};
use crate::trace::{totals, Span, TimingVfs, Totals, Tracer};
use crate::{spec, Res};
use logr::analytics::{Advisor, Pred};
use logr::cluster::vfs::{RealFs, Vfs};
use logr::core::StreamConfig;
use logr::feature::FeatureClass;
use logr::Engine;
use logr_server::json;
use logr_server::protocol::parse_frame;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

fn sum(spans: &[Span], name: &str) -> Totals {
    totals(named(spans, name))
}

/// `x / n`, or 0 when there was nothing to divide by: a layer a workload
/// never enters reports 0, which the README lists as not applicable.
fn per(x: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x / n as f64
    }
}

/// The vfs spans that ran inside any span called `parent` (all of one
/// thread, so containment in time is causation).
fn vfs_inside<'a>(spans: &'a [Span], parent: &str) -> Vec<&'a Span> {
    let parents: Vec<&Span> = named(spans, parent).collect();
    spans
        .iter()
        .filter(|s| s.layer == "vfs")
        .filter(|s| parents.iter().any(|p| p.start_ns <= s.start_ns && s.end_ns <= p.end_ns))
        .collect()
}

fn is_sync(s: &Span) -> bool {
    s.name == "vfs.fsync" || s.name == "vfs.sync_dir"
}

fn is_write(s: &Span) -> bool {
    matches!(s.name, "vfs.write" | "vfs.append" | "vfs.create_exclusive")
}

/// Metrics of the replay spans `r` (and what the replay counted).
fn replay_metrics(m: &mut BTreeMap<&'static str, f64>, r: &[Span], counted: &Replayed) {
    let parses = sum(r, "sql.parse_select");
    let mined = sum(r, "source.featurize");
    let featurized = parses.spans + mined.spans;
    let featurize_us =
        parses.us() + sum(r, "sql.normalize").us() + sum(r, "feature.extract").us() + mined.us();
    m.insert("sql.lex_us", per(sum(r, "sql.lex").us(), parses.spans));
    m.insert("sql.parse_us", per(parses.us() - sum(r, "sql.lex").us(), parses.spans));
    m.insert("sql.regularize_us", per(sum(r, "sql.normalize").us(), parses.spans));
    m.insert("sql.parse_failures", counted.parse_failures as f64);
    m.insert("feature.extract_us", per(sum(r, "feature.extract").us(), parses.spans));
    let encode = sum(r, "feature.encode");
    m.insert("feature.encode_us", per(encode.us(), encode.calls));
    m.insert("feature.absorb_ms", per(sum(r, "feature.absorb").ms(), counted.closes));
    m.insert("feature.universe", counted.universe as f64);
    m.insert("source.featurize_us", per(featurize_us, featurized));
    m.insert("source.parse_share", per(counted.featurize_calls as f64, counted.records));
    m.insert("source.journal_bytes", counted.journal_bytes as f64);
    m.insert("source.replay_ms", sum(r, "source.journal_replay").ms());
    for (metric, span) in [
        ("cluster.distances_ms", "cluster.distances"),
        ("cluster.dendrogram_ms", "cluster.dendrogram"),
        ("cluster.shard_push_ms", "cluster.shard_push"),
        ("core.drift_ms", "core.drift"),
        ("core.novelty_ms", "core.novelty"),
        ("core.baseline_rotate_ms", "core.baseline_rotate"),
        ("core.close_delta_ms", "core.close_delta"),
    ] {
        m.insert(metric, per(sum(r, span).ms(), counted.closes));
    }
    let pushes: Vec<f64> = named(r, "cluster.shard_push").map(|s| s.ns() as f64 / 1e6).collect();
    m.insert(
        "cluster.shard_push_late_ms",
        if pushes.is_empty() { 0.0 } else { late_mean(&pushes) },
    );
    let merges = sum(r, "cluster.condensed_merge");
    m.insert("cluster.condensed_merge_ms", per(merges.ms(), merges.spans));
    let dendrograms = sum(r, "cluster.history_dendrogram");
    m.insert("cluster.history_dendrogram_ms", per(dendrograms.ms(), dendrograms.spans));
    m.insert("cluster.resident_bytes", counted.resident_bytes as f64);
    m.insert("cluster.spilled_shards", counted.spilled_shards as f64);
    let encode_ms = sum(r, "core.compress").ms() - sum(r, "cluster.dendrogram").ms();
    m.insert("core.mixture_encode_ms", per(encode_ms, counted.closes));
    let closes = sum(r, "core.stream_close");
    m.insert("core.stream_close_ms", per(closes.ms(), closes.spans));
    let buffered = sum(r, "core.stream_buffer");
    m.insert("core.stream_buffer_us", per(buffered.us(), buffered.calls));
    let staged: f64 = CLOSE_STAGES.iter().map(|name| sum(r, name).ms()).sum();
    m.insert("trace.coverage", per(staged, 1) / closes.ms().max(f64::MIN_POSITIVE));
    m.insert("trace.mirror_match", per(counted.mirrored as f64, counted.closes));
}

/// Self time of the bare summarizer's closes: its span less the file
/// operations inside it.
fn bare_close_self_ms(r: &[Span]) -> f64 {
    let closes = sum(r, "core.stream_close");
    let io = totals(vfs_inside(r, "core.stream_close"));
    per(closes.ms() - io.ms(), closes.spans)
}

/// Metrics of the wrapped embedded run's spans `w`.
fn wrapped_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    w: &[Span],
    round: &embedded::Round,
    bare_close_self_ms: f64,
) {
    let closes = sum(w, "engine.ingest_record.close");
    let in_close = vfs_inside(w, "engine.ingest_record.close");
    let io = totals(in_close.iter().copied());
    let syncs = totals(in_close.iter().copied().filter(|s| is_sync(s)));
    let written = totals(in_close.iter().copied().filter(|s| is_write(s)));
    m.insert("vfs.fsyncs_per_close", per(syncs.spans as f64, closes.spans));
    m.insert("vfs.fsync_ms", per(syncs.ms(), closes.spans));
    m.insert("vfs.ops_per_close", per(io.spans as f64, closes.spans));
    m.insert("vfs.write_bytes_per_record", per(written.bytes as f64, round.records));
    let builds = sum(w, "engine.summary_build");
    let reloaded =
        totals(vfs_inside(w, "engine.summary_build").into_iter().filter(|s| s.name == "vfs.read"));
    m.insert("vfs.read_bytes_per_cold_read", per(reloaded.bytes as f64, builds.spans));
    let self_ms = per(closes.ms() - io.ms(), closes.spans);
    m.insert("engine.close_overhead_ms", self_ms - bare_close_self_ms);
    let snapshots = sum(w, "engine.snapshot");
    m.insert("engine.snapshot_ns", per(snapshots.ns as f64, snapshots.spans));
    m.insert("engine.summary_build_ms", per(builds.ms(), builds.spans));
    m.insert("engine.open_ms", sum(w, "engine.open").ms());
    let delta = totals(in_close.iter().copied().filter(|s| is_write(s) && s.detail == "delta"));
    m.insert("manifest.delta_bytes_per_close", per(delta.bytes as f64, closes.spans));
    let rewrites = in_close.iter().filter(|s| s.name == "vfs.rename" && s.detail == "base").count();
    m.insert("manifest.base_rewrites", rewrites as f64);
    for (metric, span) in [
        ("analytics.frequency_us", "analytics.frequency"),
        ("analytics.top_k_us", "analytics.top_k"),
        ("analytics.advise_us", "analytics.advise"),
    ] {
        let t = sum(w, span);
        m.insert(metric, per(t.us(), t.spans));
    }
    let templates = round.snapshot.history().codebook().iter();
    m.insert(
        "source.templates",
        templates.filter(|(_, f)| f.class == FeatureClass::Template).count() as f64,
    );
    m.insert("cluster.shard_file_bytes", round.shard_bytes.unwrap_or(0) as f64);
    m.insert("reopen_s", round.reopen.map_or(0.0, |d| d.as_secs_f64()));
    m.insert(
        "store_bytes_per_record",
        round.store_bytes.map_or(0.0, |b| b as f64 / round.counts.records as f64),
    );
}

/// Server-only layers are 0 on embedded workloads and the reverse.
fn fill_absent(m: &mut BTreeMap<&'static str, f64>) {
    for layer in &spec::PER_LAYER {
        m.entry(layer.name).or_insert(0.0);
    }
}

/// One iteration of the traced pass: its metrics, its checks, its spans.
struct Iteration {
    metrics: BTreeMap<&'static str, f64>,
    ops: Ops,
    tracer: Arc<Tracer>,
}

impl Iteration {
    /// Close an iteration over the checks of its untraced and wrapped
    /// rounds, which must have counted the same.
    fn finish(
        mut metrics: BTreeMap<&'static str, f64>,
        (mut ops, wrapped_ops): (Ops, Ops),
        same_counts: bool,
        tracer: Arc<Tracer>,
    ) -> Iteration {
        ops.add(wrapped_ops);
        ops.check("plain and wrapped rounds count the same", same_counts);
        metrics.insert("failed_ops_share", ops.failed as f64 / ops.attempted as f64);
        fill_absent(&mut metrics);
        Iteration { metrics, ops, tracer }
    }
}

fn embedded_iteration(spec: &Embedded, seed: u64) -> Res<Iteration> {
    let plain = embedded::round(spec, seed, None)?;
    let tracer = Tracer::new();
    let wrapped = embedded::round(spec, seed, Some(&tracer))?;
    let boundary = tracer.mark();
    let cfg = StreamConfig {
        window: spec.window,
        slide: spec.slide,
        k: spec.k,
        source: spec.source(),
        ..StreamConfig::default()
    };
    let spill = spec
        .resident_budget
        .filter(|_| spec.durable)
        .map(|budget| (budget, TimingVfs::new(Arc::new(RealFs), tracer.clone()) as Arc<dyn Vfs>));
    let chunks = embedded::regenerate(spec, seed);
    let counted = replay::run(cfg, spill, chunks, spec.warmup_closes, spec.read_every, &tracer)?;
    let (w, r): (Vec<Span>, Vec<Span>) =
        tracer.spans().into_iter().partition(|s| s.start_ns < boundary);

    let mut m = BTreeMap::new();
    replay_metrics(&mut m, &r, &counted);
    wrapped_metrics(&mut m, &w, &wrapped, bare_close_self_ms(&r));
    let (traced, untraced) = (wrapped.ingest.as_secs_f64(), plain.ingest.as_secs_f64());
    m.insert("trace.overhead_share", (traced - untraced) / untraced);
    m.insert("close_p95_ms", percentile(&plain.close_ms, 0.95));
    m.insert("read_warm_p95_us", percentile(&plain.warm_us, 0.95));
    let same_counts = plain.counts == wrapped.counts;
    Ok(Iteration::finish(m, (plain.ops, wrapped.ops), same_counts, tracer))
}

/// Tenant 0's recorded script against an embedded engine of the daemon's
/// profile on a store of its own: what the frames cost without the wire.
fn engine_only(script: &server::Script, tracer: &Tracer) -> Res<()> {
    let store = embedded::StoreDir::fresh("server-engine-only");
    let profile = server::profile();
    let engine = Engine::builder()
        .window(profile.window)
        .clusters(profile.clusters)
        .seed(profile.seed)
        .open(&store.0)?;
    let table = Pred::table(format!("{}_t0", server::tenant_name(0)));
    let mut batches = script.statements.chunks(server::BATCH);
    let start = Instant::now();
    for frame in &script.frames {
        let snapshot = engine.snapshot()?;
        match frame.kind {
            server::Kind::Ingest => {
                for statement in batches.next().expect("a batch per ingest frame") {
                    engine.ingest_record(statement)?;
                }
            }
            server::Kind::Frequency => {
                if let Some(q) = snapshot.query()? {
                    std::hint::black_box(q.frequency(&table)?);
                }
            }
            server::Kind::TopK => {
                if let Some(q) = snapshot.query()? {
                    std::hint::black_box(q.top_k(FeatureClass::From, 5)?);
                }
            }
            server::Kind::Advise => {
                std::hint::black_box(embedded::ADVISOR.advise(&*snapshot)?);
            }
            server::Kind::Stats => {
                std::hint::black_box((engine.windows_closed()?, engine.total_queries()?));
                std::hint::black_box((engine.spilled_shards()?, engine.resident_shard_bytes()?));
            }
        }
    }
    tracer.leaf("server.engine_only", "server", start, Instant::now(), script.frames.len() as u64);
    Ok(())
}

fn server_iteration(spec: &ServerSpec, seed: u64) -> Res<Iteration> {
    let plain = server::round(spec, seed, None)?;
    let tracer = Tracer::new();
    let wrapped = server::round(spec, seed, Some(&tracer))?;
    let boundary = tracer.mark();

    // The codec, priced on the frames tenant 0 really exchanged.
    for (request, reply) in &wrapped.conns[0].recorded {
        tracer.time("protocol.parse_frame", "server", || {
            std::hint::black_box(parse_frame(request)).id == json::Json::Null
        });
        if let Ok(parsed) = tracer.time("json.parse", "server", || json::parse(reply)) {
            tracer.time("json.encode", "server", || std::hint::black_box(parsed.to_text()).len());
        }
    }
    engine_only(&wrapped.scripts[0], &tracer)?;
    let profile = server::profile();
    let cfg = StreamConfig {
        window: profile.window,
        k: profile.clusters,
        seed: profile.seed,
        ..StreamConfig::default()
    };
    let chunks = std::iter::once(wrapped.scripts[0].statements.clone());
    let counted = replay::run(cfg, None, chunks, 0, 64, &tracer)?;
    let (w, r): (Vec<Span>, Vec<Span>) =
        tracer.spans().into_iter().partition(|s| s.start_ns < boundary);

    let mut m = BTreeMap::new();
    replay_metrics(&mut m, &r, &counted);
    let closes: u64 = wrapped.counts.closes;
    let io: Vec<&Span> = w.iter().filter(|s| s.layer == "vfs").collect();
    let syncs = totals(io.iter().copied().filter(|s| is_sync(s)));
    let written = totals(io.iter().copied().filter(|s| is_write(s)));
    let delta = totals(io.iter().copied().filter(|s| is_write(s) && s.detail == "delta"));
    let delta_syncs = io.iter().filter(|s| s.name == "vfs.fsync" && s.detail == "delta").count();
    m.insert("vfs.fsyncs_per_close", per(syncs.spans as f64, closes));
    m.insert("vfs.fsync_ms", per(syncs.ms(), closes));
    m.insert("vfs.ops_per_close", per(io.len() as f64, closes));
    m.insert("vfs.write_bytes_per_record", per(written.bytes as f64, wrapped.counts.records));
    m.insert("manifest.delta_bytes_per_close", per(delta.bytes as f64, closes));
    m.insert("commit.fsyncs_per_ack", per(delta_syncs as f64, closes));
    let (close_ms, buffer_us) = (wrapped.pooled(|c| &c.close_ms), wrapped.pooled(|c| &c.buffer_us));
    m.insert("commit.park_ms", mean(&close_ms) - mean(&buffer_us) / 1e3);
    m.insert("server.ping_rtt_us", median(&wrapped.ping_us));
    let wire = wrapped.conns[0].total.as_secs_f64() * 1e3;
    m.insert("server.engine_share", sum(&r, "server.engine_only").ms() / wire);
    for (metric, span) in [
        ("json.parse_us", "json.parse"),
        ("json.encode_us", "json.encode"),
        ("protocol.parse_frame_us", "protocol.parse_frame"),
    ] {
        let t = sum(&r, span);
        m.insert(metric, per(t.us(), t.spans));
    }
    m.insert("store_bytes_per_record", wrapped.store_bytes as f64 / wrapped.counts.records as f64);
    let wall = |round: &server::ServerRound| {
        round.conns.iter().map(|c| c.ingest.as_secs_f64()).sum::<f64>()
    };
    m.insert("trace.overhead_share", (wall(&wrapped) - wall(&plain)) / wall(&plain));
    m.insert("close_p95_ms", percentile(&plain.pooled(|c| &c.close_ms), 0.95));
    m.insert("read_warm_p95_us", percentile(&plain.pooled(|c| &c.warm_us), 0.95));
    let same_counts = plain.counts == wrapped.counts;
    Ok(Iteration::finish(m, (plain.ops, wrapped.ops), same_counts, tracer))
}

/// The traced pass: every per-layer metric, the median over iterations
/// of an untraced round, a wrapped round and a layer replay. The last
/// iteration's spans go to `trace-<workload>.jsonl`.
pub fn per_layer(workload: &Workload, seed: u64, seconds: f64) -> Res<Outcome> {
    let iterations = repeat(seconds, |_| match workload {
        Workload::Embedded(spec) => embedded_iteration(spec, seed),
        Workload::Server(spec) => server_iteration(spec, seed),
    })?;
    let mut ops = Ops::default();
    let mut metrics = BTreeMap::new();
    for layer in &spec::PER_LAYER {
        let values: Vec<f64> = iterations.iter().map(|i| i.metrics[layer.name]).collect();
        metrics.insert(layer.name, median(&values));
    }
    for iteration in &iterations {
        ops.add(iteration.ops);
    }
    let tracer = &iterations.last().expect("at least one iteration").tracer;
    let path = embedded::scratch_root().join(format!("trace-{}.jsonl", workload.name()));
    tracer.write_jsonl(&path)?;
    let samples =
        BTreeMap::from([("iterations", iterations.len()), ("spans", tracer.spans().len())]);
    Ok(Outcome { ops, metrics, samples, counts: None })
}
