//! The four embedded workloads: one caller thread in a closed loop
//! against a `logr::Engine`, fixed work per round.

use crate::gen::{self, Rng, Universe};
use crate::stats::{ms, us};
use crate::trace::{TimingVfs, Tracer};
use crate::Res;
use logr::analytics::{Advisor, IndexAdvisor, Pred};
use logr::cluster::vfs::RealFs;
use logr::feature::{Feature, FeatureClass, QueryLog};
use logr::{Engine, EngineBuilder, EngineSnapshot, SourceConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stream {
    /// The 605 PocketData statements, each in proportion to its count.
    Pocketdata,
    /// The 13.7k US-bank raw strings, each in proportion to its count.
    Usbank,
    /// Every statement a new shape.
    Novel,
    /// Free-form service-log lines.
    Service,
}

/// One embedded workload. Sizes are record counts, never durations.
#[derive(Debug, Clone, Copy)]
pub struct Embedded {
    pub name: &'static str,
    pub stream: Stream,
    pub durable: bool,
    pub window: u64,
    pub slide: Option<u64>,
    pub k: usize,
    pub resident_budget: Option<usize>,
    /// Windows closed before timing starts.
    pub warmup_closes: u64,
    /// Timed closes per round; fixes the record count.
    pub closes: u64,
    /// Records are generated (untimed) in chunks of this many closes.
    pub chunk_closes: u64,
    /// A read point follows every this-many-th timed close.
    pub read_every: u64,
}

/// Rotations of the warm read set per read point.
const WARM_ROTATIONS: usize = 16;
/// Share below which the index advisor and the probe set ignore a feature.
const MIN_SHARE: f64 = 0.01;
pub const ADVISOR: IndexAdvisor = IndexAdvisor { min_share: MIN_SHARE };

pub const WORKLOADS: [Embedded; 4] = [
    Embedded {
        name: "sql_repeat_mem",
        stream: Stream::Pocketdata,
        durable: false,
        window: 256,
        slide: None,
        k: 4,
        resident_budget: None,
        warmup_closes: 8,
        closes: 192,
        chunk_closes: 192,
        read_every: 16,
    },
    Embedded {
        name: "sql_shapes_sliding",
        stream: Stream::Usbank,
        durable: false,
        window: 256,
        slide: Some(64),
        k: 4,
        resident_budget: None,
        warmup_closes: 8,
        closes: 256,
        chunk_closes: 256,
        read_every: 16,
    },
    Embedded {
        name: "sql_novel_durable",
        stream: Stream::Novel,
        durable: true,
        // Wide enough that computing a close outweighs its three fsyncs,
        // whose cost on a shared disk shifts by 2x between quarter hours.
        window: 64,
        slide: None,
        k: 4,
        resident_budget: Some(8 << 20),
        warmup_closes: 0,
        closes: 96,
        chunk_closes: 96,
        read_every: 32,
    },
    Embedded {
        name: "template_mem",
        stream: Stream::Service,
        durable: false,
        window: 256,
        slide: None,
        k: 4,
        resident_budget: None,
        warmup_closes: 8,
        closes: 2048,
        chunk_closes: 512,
        read_every: 128,
    },
];

impl Embedded {
    pub fn source(&self) -> SourceConfig {
        match self.stream {
            Stream::Service => SourceConfig::template(),
            _ => SourceConfig::Sql,
        }
    }

    /// The same workload at `pct` percent of its closes (smoke runs).
    pub fn scaled(mut self, pct: u64) -> Embedded {
        let shrink = |n: u64| (n * pct / 100).max(1);
        self.closes = shrink(self.closes).max(8);
        self.chunk_closes = self.chunk_closes.min(self.closes);
        self.read_every = shrink(self.read_every).min(self.closes / 2).max(1);
        self.warmup_closes = self.warmup_closes.min(2);
        self
    }

    /// Records that make `closes` windows close, counted from an empty
    /// engine: the first close needs a full window, later ones a stride.
    fn records_for(&self, closes: u64) -> u64 {
        match self.slide {
            Some(slide) if closes > 0 => self.window + (closes - 1) * slide,
            _ => closes * self.window,
        }
    }

    /// Records ingested per round, warm-up included.
    pub fn records(&self) -> u64 {
        self.records_for(self.warmup_closes + self.closes)
    }

    /// Does the `n`-th record (1-based) close a window?
    fn closes_at(&self, n: u64) -> bool {
        match self.slide {
            Some(slide) => n >= self.window && (n - self.window).is_multiple_of(slide),
            None => n.is_multiple_of(self.window),
        }
    }

    pub fn builder(&self) -> EngineBuilder {
        let mut b = Engine::builder().window(self.window).clusters(self.k).source(self.source());
        if let Some(slide) = self.slide {
            b = b.slide(slide);
        }
        if let Some(bytes) = self.resident_budget {
            b = b.resident_budget(bytes);
        }
        b
    }
}

/// Generates one workload's records chunk by chunk; the same seed gives
/// the same records.
pub struct Records {
    spec: Embedded,
    seed: u64,
    /// A stream that is one fixed multiset in seeded order: drawn whole,
    /// handed out in chunks.
    drawn: Option<std::vec::IntoIter<String>>,
    made: u64,
    pub hash: u64,
}

impl Records {
    pub fn new(spec: &Embedded, seed: u64) -> Records {
        let seed = gen::workload_seed(seed, spec.name);
        let mut rng = Rng::new(seed);
        let n = spec.records() as usize;
        let drawn = match spec.stream {
            Stream::Pocketdata => Some(Universe::pocketdata().stream(&mut rng, n)),
            Stream::Usbank => Some(Universe::usbank().stream(&mut rng, n)),
            Stream::Novel => Some(gen::novel_shapes(&mut rng, n)),
            Stream::Service => None,
        }
        .map(Vec::into_iter);
        Records { spec: *spec, seed, drawn, made: 0, hash: 0 }
    }

    /// The next `n` records (`n` is clipped to what the round has left).
    pub fn next(&mut self, n: u64) -> Vec<String> {
        let n = n.min(self.spec.records() - self.made) as usize;
        let chunk = match &mut self.drawn {
            Some(drawn) => drawn.take(n).collect(),
            None => gen::service_lines(self.seed, self.made, n),
        };
        self.made += n as u64;
        self.hash = gen::stream_hash(self.hash, &chunk);
        chunk
    }
}

/// Where durable workloads keep their stores: inside the build
/// directory, so the benchmark writes nowhere outside its checkout.
pub fn scratch_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("ledger")
}

/// A store directory removed on drop, so a failed round leaves nothing.
pub struct StoreDir(pub PathBuf);

impl StoreDir {
    pub fn fresh(tag: &str) -> StoreDir {
        let dir = scratch_root().join(format!("store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StoreDir(dir)
    }

    pub fn bytes(&self) -> u64 {
        dir_bytes(&self.0)
    }

    fn shard_bytes(&self) -> u64 {
        let Ok(entries) = std::fs::read_dir(&self.0) else { return 0 };
        entries
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("shard-"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Output checks and engine calls: `failed` of `attempted`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn call(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("ledger: check failed: {what}");
        }
    }

    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one round measured.
pub struct Round {
    pub setup: Duration,
    /// Summed wall time of the timed ingest calls.
    pub ingest: Duration,
    /// Timed records (warm-up excluded).
    pub records: u64,
    pub close_ms: Vec<f64>,
    pub cold_ms: Vec<f64>,
    pub warm_us: Vec<f64>,
    pub reopen: Option<Duration>,
    pub store_bytes: Option<u64>,
    /// Bytes of the store's shard files alone.
    pub shard_bytes: Option<u64>,
    pub ops: Ops,
    /// Count-type results; equal whenever the seed is.
    pub counts: Counts,
    pub snapshot: Arc<EngineSnapshot>,
}

#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    pub records: u64,
    pub closes: u64,
    pub distinct: u64,
    pub universe: u64,
    pub stream_hash: u64,
}

/// The warm read set: what a dashboard refresh asks of one snapshot.
struct ReadSet {
    single: Pred,
    pair: Pred,
    class: FeatureClass,
}

impl ReadSet {
    fn of(snapshot: &EngineSnapshot, source: SourceConfig) -> Option<ReadSet> {
        let history = snapshot.history();
        let (vector, _) = history.entries().first()?;
        let mut features = vector.iter().map(|id| history.codebook().feature(id).clone());
        let first = features.next()?;
        let second = features.next().unwrap_or_else(|| first.clone());
        Some(ReadSet {
            single: Pred::feature(first.clone()),
            pair: Pred::feature(first).and(Pred::feature(second)),
            class: match source {
                SourceConfig::Sql => FeatureClass::From,
                SourceConfig::Template(_) => FeatureClass::Template,
            },
        })
    }

    /// One rotation: frequency ×2, top-k, advisor. Traced, each answer
    /// is its own span.
    fn rotate(&self, snapshot: &EngineSnapshot, tracer: Option<&Tracer>) -> Res<()> {
        let query = || snapshot.query().map(|q| q.expect("summary exists at a read point"));
        type R<T> = Result<T, logr::Error>;
        match tracer {
            None => {
                std::hint::black_box(query()?.frequency(&self.single)?);
                std::hint::black_box(query()?.frequency(&self.pair)?);
                std::hint::black_box(query()?.top_k(self.class, 5)?);
                std::hint::black_box(ADVISOR.advise(snapshot)?);
            }
            Some(t) => {
                t.time("analytics.frequency", "engine", || -> R<_> {
                    query()?.frequency(&self.single)
                })?;
                t.time("analytics.frequency", "engine", || -> R<_> {
                    query()?.frequency(&self.pair)
                })?;
                t.time("analytics.top_k", "engine", || -> R<_> { query()?.top_k(self.class, 5) })?;
                t.time("analytics.advise", "engine", || ADVISOR.advise(snapshot))?;
            }
        }
        Ok(())
    }
}

/// Run `f` between two clock reads; traced, as a parent span that the
/// file operations inside it nest under.
fn timed<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Instant, Instant) {
    let span = tracer.map(Tracer::enter);
    let start = Instant::now();
    let out = f();
    let stop = Instant::now();
    if let (Some(t), Some(id)) = (tracer, span) {
        t.exit(id, name, "engine", start, stop);
    }
    (out, start, stop)
}

/// Run one round of `spec`. With a tracer, every public call is wrapped
/// in a span and the store goes through a [`TimingVfs`].
pub fn round(spec: &Embedded, seed: u64, tracer: Option<&Arc<Tracer>>) -> Res<Round> {
    let mut ops = Ops::default();
    let setup_start = Instant::now();
    let mut records = Records::new(spec, seed);
    let store = spec.durable.then(|| StoreDir::fresh(spec.name));
    let builder = || match tracer {
        Some(t) => spec.builder().vfs(TimingVfs::new(Arc::new(RealFs), t.clone())),
        None => spec.builder(),
    };
    let open = |b: EngineBuilder| match &store {
        Some(dir) => b.open(&dir.0),
        None => b.in_memory(),
    };
    let engine = open(builder())?;
    let tracer = tracer.map(|t| &**t);

    let chunk_records = |closes: u64, made: u64| spec.records_for(closes) - made;
    let mut seen = 0u64;
    // Queries the closed windows say they were offered, parsed or not.
    let mut offered = 0u64;
    let warmup = records.next(chunk_records(spec.warmup_closes, 0));
    for text in &warmup {
        seen += 1;
        ops.call(1);
        let closed = engine.ingest_record(text)?;
        ops.check("warm-up close schedule", closed.is_some() == spec.closes_at(seen));
        offered += closed.map_or(0, |w| w.queries);
    }
    drop(warmup);

    let mut round = Round {
        setup: setup_start.elapsed(),
        ingest: Duration::ZERO,
        records: spec.records() - seen,
        close_ms: Vec::with_capacity(spec.closes as usize),
        cold_ms: Vec::new(),
        warm_us: Vec::new(),
        reopen: None,
        store_bytes: None,
        shard_bytes: None,
        ops,
        counts: Counts::default(),
        snapshot: engine.snapshot()?,
    };
    let mut timed_closes = 0u64;
    while timed_closes < spec.closes {
        let gen_start = Instant::now();
        let upto = (timed_closes + spec.chunk_closes).min(spec.closes);
        let chunk = records.next(chunk_records(spec.warmup_closes + upto, seen));
        round.setup += gen_start.elapsed();

        let mut at = 0usize;
        while at < chunk.len() {
            // The non-closing calls up to the next close, timed as one block.
            let mut end = at;
            while end < chunk.len() && !spec.closes_at(seen + (end - at) as u64 + 1) {
                end += 1;
            }
            let start = Instant::now();
            let mut early = 0u64;
            for text in &chunk[at..end] {
                early += u64::from(engine.ingest_record(text)?.is_some());
            }
            let stop = Instant::now();
            if let Some(t) = tracer {
                t.leaf("engine.ingest_record.buffer", "engine", start, stop, (end - at) as u64);
            }
            round.ingest += stop - start;
            round.ops.call((end - at) as u64);
            round.ops.check("no window closes off schedule", early == 0);
            seen += (end - at) as u64;
            at = end;
            if at == chunk.len() {
                break;
            }

            let (closed, start, stop) =
                timed(tracer, "engine.ingest_record.close", || engine.ingest_record(&chunk[at]));
            let closed = closed?;
            round.ingest += stop - start;
            round.close_ms.push(ms(stop - start));
            round.ops.call(1);
            round.ops.check("window closes on schedule", closed.is_some());
            offered += closed.map_or(0, |w| w.queries);
            seen += 1;
            at += 1;
            timed_closes += 1;
            if timed_closes.is_multiple_of(spec.read_every) {
                read_point(spec, &engine, tracer, &mut round)?;
            }
        }
    }

    let flushed = timed(tracer, "engine.flush", || engine.flush()).0?;
    round.ops.call(1);
    round.ops.check("nothing left to flush", flushed.is_none());
    let snapshot = engine.snapshot()?;
    round.ops.check("closed windows were offered every record sent", offered == seen);
    round.ops.check(
        "windows_closed = scheduled closes",
        snapshot.windows_closed() as u64 == spec.warmup_closes + spec.closes,
    );
    round.counts = Counts {
        records: seen,
        closes: snapshot.windows_closed() as u64,
        distinct: snapshot.history().distinct_count() as u64,
        universe: snapshot.history().num_features() as u64,
        stream_hash: records.hash,
    };
    round.snapshot = snapshot.clone();

    if let Some(dir) = &store {
        round.store_bytes = Some(dir.bytes());
        round.shard_bytes = Some(dir.shard_bytes());
        let before = summary_identity(&snapshot)?;
        drop(snapshot);
        drop(engine);
        let (reopened, start, _) = timed(tracer, "engine.open", || open(builder()));
        let reopened = reopened?;
        let (summary, _, stop) = timed(tracer, "engine.reopen_summary", || reopened.summary());
        let summary = summary?;
        round.reopen = Some(stop - start);
        round.ops.call(2);
        round.ops.check("a reopened store has a summary", summary.is_some());
        let after = summary_identity(&*reopened.snapshot()?)?;
        round.ops.check("reopened summary equals the one dropped", before == after);
        // The kept snapshot must not read a store that is about to go.
        round.snapshot = reopened.snapshot()?;
        round.snapshot.summary()?;
    }
    Ok(round)
}

/// After a close: a cold read, then the warm rotation.
fn read_point(
    spec: &Embedded,
    engine: &Engine,
    tracer: Option<&Tracer>,
    round: &mut Round,
) -> Res<()> {
    let start = Instant::now();
    let snapshot = engine.snapshot()?;
    if let Some(t) = tracer {
        t.leaf("engine.snapshot", "engine", start, Instant::now(), 1);
    }
    let start = Instant::now();
    if tracer.is_some() {
        // Traced, the summary build is split from the advisor's answer.
        timed(tracer, "engine.summary_build", || snapshot.summary()).0?;
    }
    std::hint::black_box(ADVISOR.advise(&*snapshot)?);
    round.cold_ms.push(ms(start.elapsed()));
    round.ops.call(1);

    let Some(reads) = ReadSet::of(&snapshot, spec.source()) else {
        round.ops.check("a closed window leaves history to read", false);
        return Ok(());
    };
    for _ in 0..WARM_ROTATIONS {
        let start = Instant::now();
        reads.rotate(&snapshot, tracer)?;
        round.warm_us.push(us(start.elapsed()));
        round.ops.call(4);
    }
    Ok(())
}

/// What must survive a drop and reopen: the portable summary's bytes and
/// the bits of its Reproduction Error.
fn summary_identity(snapshot: &EngineSnapshot) -> Res<(Vec<u8>, u64)> {
    let error = snapshot.summary()?.map_or(f64::NAN, |s| s.error());
    Ok((portable_bytes(snapshot)?, error.to_bits()))
}

fn portable_bytes(snapshot: &EngineSnapshot) -> Res<Vec<u8>> {
    let mut bytes = Vec::new();
    if let Some(portable) = snapshot.portable()? {
        portable.write_to(&mut bytes).expect("writing to a Vec cannot fail");
    }
    Ok(bytes)
}

/// Fidelity of a final snapshot against exact counts the ledger keeps
/// from the raw stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Fidelity {
    pub repro_error_nats: f64,
    pub count_err_share: f64,
    pub summary_bytes: u64,
    pub probes: usize,
}

/// Featurize `records` with the ledger's own featurizer into an exact log.
pub fn exact_log(source: SourceConfig, chunks: impl Iterator<Item = Vec<String>>) -> QueryLog {
    let mut featurizer = source.featurizer();
    let mut exact = QueryLog::new();
    // SQL text repeats and parsing is the cost; the template miner keeps
    // its own memo, and a second one here would only cost memory.
    let memoize = source == SourceConfig::Sql;
    let mut memo: HashMap<String, Vec<Vec<Feature>>> = HashMap::new();
    for chunk in chunks {
        for text in chunk {
            if !memoize {
                for branch in featurizer.featurize(&text) {
                    exact.add_features(&branch.features, 1);
                }
                continue;
            }
            let branches = memo.entry(text).or_insert_with_key(|text| {
                featurizer.featurize(text).into_iter().map(|b| b.features).collect()
            });
            for features in branches.iter() {
                exact.add_features(features, 1);
            }
        }
    }
    exact
}

/// Score `snapshot` against `exact`: every single feature with share
/// ≥ 1 % plus the 32 heaviest co-occurring pairs among them.
pub fn fidelity(snapshot: &EngineSnapshot, exact: &QueryLog, ops: &mut Ops) -> Res<Fidelity> {
    let total = exact.total_queries() as f64;
    ops.check(
        "history total = exact total",
        snapshot.history().total_queries() == exact.total_queries(),
    );
    let counts = exact.feature_counts();
    let frequent: Vec<usize> =
        (0..counts.len()).filter(|&i| counts[i] as f64 >= MIN_SHARE * total).collect();
    let rank: HashMap<usize, usize> = frequent.iter().enumerate().map(|(r, &i)| (i, r)).collect();
    let mut pairs: HashMap<(usize, usize), u64> = HashMap::new();
    for (vector, count) in exact.entries() {
        let hot: Vec<usize> =
            vector.iter().filter_map(|id| rank.get(&id.index()).map(|_| id.index())).collect();
        for (i, &a) in hot.iter().enumerate() {
            for &b in &hot[i + 1..] {
                *pairs.entry((a.min(b), a.max(b))).or_default() += count;
            }
        }
    }
    let mut pairs: Vec<((usize, usize), u64)> = pairs.into_iter().collect();
    pairs.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
    pairs.truncate(32);

    let feature = |i: usize| exact.codebook().feature(logr::feature::FeatureId(i as u32)).clone();
    let mut probes: Vec<(Pred, u64)> =
        frequent.iter().map(|&i| (Pred::feature(feature(i)), counts[i])).collect();
    probes.extend(
        pairs
            .iter()
            .map(|&((a, b), n)| (Pred::feature(feature(a)).and(Pred::feature(feature(b))), n)),
    );

    let query = snapshot.query()?;
    let mut err = 0.0;
    for (pred, exact_count) in &probes {
        match query.as_ref().map(|q| q.frequency(pred)) {
            Some(Ok(estimate)) => err += (estimate - *exact_count as f64).abs() / total,
            _ => ops.check("every probe has an estimate", false),
        }
    }
    let fidelity = Fidelity {
        repro_error_nats: snapshot.summary()?.map_or(f64::NAN, |s| s.error()),
        count_err_share: err / probes.len().max(1) as f64,
        summary_bytes: portable_bytes(snapshot)?.len() as u64,
        probes: probes.len(),
    };
    ops.check(
        "repro_error_nats finite and >= 0",
        fidelity.repro_error_nats.is_finite() && fidelity.repro_error_nats >= 0.0,
    );
    ops.check(
        "count_err_share finite and >= 0",
        fidelity.count_err_share.is_finite() && fidelity.count_err_share >= 0.0,
    );
    Ok(fidelity)
}

/// The whole stream of `spec` again, for the exact-count pass.
pub fn regenerate(spec: &Embedded, seed: u64) -> impl Iterator<Item = Vec<String>> {
    let mut records = Records::new(spec, seed);
    let spec = *spec;
    let mut closes = 0u64;
    let mut made = 0u64;
    std::iter::from_fn(move || {
        let total = spec.warmup_closes + spec.closes;
        if closes >= total {
            return None;
        }
        // The chunk boundaries of `round`, so chunked generators repeat.
        closes = if closes < spec.warmup_closes {
            spec.warmup_closes
        } else {
            (closes + spec.chunk_closes).min(total)
        };
        let chunk = records.next(spec.records_for(closes) - made);
        made += chunk.len() as u64;
        Some(chunk)
    })
}
