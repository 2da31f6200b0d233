//! The tracing-off pass: rounds of fixed work, each in a process of its
//! own, repeated until the run length is used up; the median round is
//! what gets reported.

use crate::embedded::{self, Counts, Embedded, Fidelity, Ops};
use crate::server::{self, ServerSpec};
use crate::stats::{late_mean, mean, median, percentile};
use crate::Res;
use logr::{EngineSnapshot, SourceConfig};
use logr_server::json::{self, Json};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub enum Workload {
    Embedded(Embedded),
    Server(ServerSpec),
}

impl Workload {
    /// The workload `name` at `pct` percent of its size.
    pub fn find(name: &str, pct: u64) -> Option<Workload> {
        if name == server::NAME {
            let spec = if pct == 100 { server::SPEC } else { server::SPEC.scaled(pct) };
            return Some(Workload::Server(spec));
        }
        let spec = embedded::WORKLOADS.iter().find(|w| w.name == name)?;
        Some(Workload::Embedded(if pct == 100 { *spec } else { spec.scaled(pct) }))
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::Embedded(spec) => spec.name,
            Workload::Server(_) => server::NAME,
        }
    }
}

/// What one invocation reports.
pub struct Outcome {
    pub ops: Ops,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind the reported numbers, for the reader.
    pub samples: BTreeMap<&'static str, usize>,
    /// Count-type results of the tracing-off pass; equal whenever the
    /// seed is.
    pub counts: Option<(Counts, Fidelity)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(f64::NAN, |k| k / 1024.0)
}

/// Keep running rounds until `seconds` have passed; always at least one.
pub fn repeat<T>(seconds: f64, mut round: impl FnMut(usize) -> Res<T>) -> Res<Vec<T>> {
    let started = Instant::now();
    let mut rounds = Vec::new();
    loop {
        rounds.push(round(rounds.len())?);
        if started.elapsed() >= Duration::from_secs_f64(seconds) {
            return Ok(rounds);
        }
    }
}

/// The per-round values, in the order a round line carries them.
const ROUND_VALUES: [&str; 7] = [
    "setup_s",
    "records_per_s",
    "close_p50_ms",
    "close_late_ms",
    "read_cold_p50_ms",
    "read_warm_p50_us",
    "peak_rss_mb",
];
const ROUND_SAMPLES: [&str; 3] = ["closes", "cold_reads", "warm_reads"];

/// One round, reduced to numbers: what a round's process hands back.
pub struct RoundReport {
    values: Vec<f64>,
    samples: Vec<usize>,
    ops: Ops,
    counts: Counts,
    fidelity: Option<Fidelity>,
}

fn fidelity_of(
    snapshot: &EngineSnapshot,
    source: SourceConfig,
    chunks: impl Iterator<Item = Vec<String>>,
    ops: &mut Ops,
) -> Res<Fidelity> {
    let exact = embedded::exact_log(source, chunks);
    embedded::fidelity(snapshot, &exact, ops)
}

/// Fidelity of a server round: the mean over its tenants.
fn server_fidelity(round: &server::ServerRound, ops: &mut Ops) -> Res<Fidelity> {
    let mut each = Vec::new();
    for (snapshot, script) in round.snapshots.iter().zip(&round.scripts) {
        let chunks = std::iter::once(script.statements.clone());
        each.push(fidelity_of(snapshot, SourceConfig::Sql, chunks, ops)?);
    }
    let avg = |f: fn(&Fidelity) -> f64| mean(&each.iter().map(f).collect::<Vec<_>>());
    Ok(Fidelity {
        repro_error_nats: avg(|f| f.repro_error_nats),
        count_err_share: avg(|f| f.count_err_share),
        summary_bytes: avg(|f| f.summary_bytes as f64).round() as u64,
        probes: each.iter().map(|f| f.probes).sum(),
    })
}

/// The timed samples of a round, whichever kind it was.
struct Timed<'a> {
    setup: Duration,
    records_per_s: f64,
    close_ms: &'a [f64],
    close_late_ms: f64,
    cold_ms: &'a [f64],
    warm_us: &'a [f64],
}

impl Timed<'_> {
    /// [`ROUND_VALUES`], memory last: it is read here, before the
    /// fidelity pass, whose exact counts are the ledger's own memory.
    fn values(&self) -> Vec<f64> {
        vec![
            self.setup.as_secs_f64(),
            self.records_per_s,
            percentile(self.close_ms, 0.50),
            self.close_late_ms,
            percentile(self.cold_ms, 0.50),
            percentile(self.warm_us, 0.50),
            peak_rss_mb(),
        ]
    }

    fn samples(&self) -> Vec<usize> {
        vec![self.close_ms.len(), self.cold_ms.len(), self.warm_us.len()]
    }
}

/// Run one round in this process.
pub fn round_report(workload: &Workload, seed: u64, with_fidelity: bool) -> Res<RoundReport> {
    match workload {
        Workload::Embedded(spec) => {
            let r = embedded::round(spec, seed, None)?;
            let timed = Timed {
                setup: r.setup,
                records_per_s: r.records as f64 / r.ingest.as_secs_f64(),
                close_ms: &r.close_ms,
                close_late_ms: late_mean(&r.close_ms),
                cold_ms: &r.cold_ms,
                warm_us: &r.warm_us,
            };
            let (values, samples, mut ops) = (timed.values(), timed.samples(), r.ops);
            let fidelity = with_fidelity
                .then(|| {
                    let chunks = embedded::regenerate(spec, seed);
                    fidelity_of(&r.snapshot, spec.source(), chunks, &mut ops)
                })
                .transpose()?;
            Ok(RoundReport { values, samples, ops, counts: r.counts, fidelity })
        }
        Workload::Server(spec) => {
            let r = server::round(spec, seed, None)?;
            let statements: u64 = r.conns.iter().map(|c| c.statements).sum();
            let ingest: Duration = r.conns.iter().map(|c| c.ingest).sum();
            let (close, cold, warm) =
                (r.pooled(|c| &c.close_ms), r.pooled(|c| &c.cold_ms), r.pooled(|c| &c.warm_us));
            let timed = Timed {
                setup: r.setup,
                records_per_s: statements as f64 / ingest.as_secs_f64(),
                close_ms: &close,
                // The final eighth of each connection's closes, not of the pool.
                close_late_ms: mean(
                    &r.conns.iter().map(|c| late_mean(&c.close_ms)).collect::<Vec<_>>(),
                ),
                cold_ms: &cold,
                warm_us: &warm,
            };
            let (values, samples, mut ops) = (timed.values(), timed.samples(), r.ops);
            let fidelity = with_fidelity.then(|| server_fidelity(&r, &mut ops)).transpose()?;
            Ok(RoundReport { values, samples, ops, counts: r.counts.clone(), fidelity })
        }
    }
}

impl RoundReport {
    /// One JSON line; the 64-bit stream digest travels as text, which a
    /// JSON number cannot hold.
    pub fn to_line(&self) -> String {
        let values: Vec<String> = self.values.iter().map(f64::to_string).collect();
        let samples: Vec<String> = self.samples.iter().map(usize::to_string).collect();
        let c = &self.counts;
        let fidelity = self.fidelity.as_ref().map_or("null".to_string(), |f| {
            format!(
                "[{},{},{},{}]",
                f.repro_error_nats, f.count_err_share, f.summary_bytes, f.probes
            )
        });
        format!(
            "{{\"values\":[{}],\"samples\":[{}],\"attempted\":{},\"failed\":{},\
             \"counts\":[{},{},{},{}],\"stream_hash\":\"{}\",\"fidelity\":{fidelity}}}",
            values.join(","),
            samples.join(","),
            self.ops.attempted,
            self.ops.failed,
            c.records,
            c.closes,
            c.distinct,
            c.universe,
            c.stream_hash,
        )
    }

    fn parse(line: &str) -> Res<RoundReport> {
        let doc = json::parse(line)?;
        let numbers = |key: &str| -> Res<Vec<f64>> {
            let items =
                doc.get(key).and_then(Json::as_arr).ok_or(format!("round line lacks {key}"))?;
            Ok(items.iter().filter_map(Json::as_f64).collect())
        };
        let whole = |key: &str| {
            doc.get(key).and_then(Json::as_u64).ok_or(format!("round line lacks {key}"))
        };
        let (values, samples, counts) =
            (numbers("values")?, numbers("samples")?, numbers("counts")?);
        if (values.len(), samples.len(), counts.len())
            != (ROUND_VALUES.len(), ROUND_SAMPLES.len(), 4)
        {
            return Err("round line has the wrong number of values".into());
        }
        let hash = doc.get("stream_hash").and_then(Json::as_str).and_then(|h| h.parse().ok());
        let fidelity = numbers("fidelity").ok().filter(|f| f.len() == 4).map(|f| Fidelity {
            repro_error_nats: f[0],
            count_err_share: f[1],
            summary_bytes: f[2] as u64,
            probes: f[3] as usize,
        });
        Ok(RoundReport {
            values,
            samples: samples.iter().map(|&n| n as usize).collect(),
            ops: Ops { attempted: whole("attempted")?, failed: whole("failed")? },
            counts: Counts {
                records: counts[0] as u64,
                closes: counts[1] as u64,
                distinct: counts[2] as u64,
                universe: counts[3] as u64,
                stream_hash: hash.ok_or("round line lacks stream_hash")?,
            },
            fidelity,
        })
    }
}

/// One round in a process of its own, so that every round starts from
/// the same state and its peak memory is its own.
fn round_process(name: &str, seed: u64, pct: u64, with_fidelity: bool) -> Res<RoundReport> {
    let (seed, pct) = (seed.to_string(), pct.to_string());
    let fidelity = if with_fidelity { "1" } else { "0" };
    let stdout = crate::run_self(&[
        "round",
        "--workload",
        name,
        "--seed",
        &seed,
        "--scale-pct",
        &pct,
        "--fidelity",
        fidelity,
    ])?;
    let line = stdout.lines().last().ok_or("a round printed nothing")?;
    eprintln!("ledger: round {line}");
    RoundReport::parse(line)
}

/// The tracing-off pass: every end-to-end metric. Timings and memory are
/// the median round's, so a burst of interference spoils one round, not
/// the run; the fidelity numbers are the first round's and would be the
/// same in any.
pub fn end_to_end(name: &str, seed: u64, seconds: f64, pct: u64) -> Res<Outcome> {
    let rounds = repeat(seconds, |i| round_process(name, seed, pct, i == 0))?;
    let mut ops = Ops::default();
    for r in &rounds {
        ops.add(r.ops);
    }
    let first = &rounds[0];
    ops.check("every round counts the same", rounds.iter().all(|r| r.counts == first.counts));
    let fidelity = first.fidelity.clone().ok_or("the first round reports fidelity")?;
    let mut metrics = BTreeMap::new();
    for (at, name) in ROUND_VALUES.iter().enumerate() {
        metrics.insert(*name, median(&rounds.iter().map(|r| r.values[at]).collect::<Vec<_>>()));
    }
    metrics.insert("repro_error_nats", fidelity.repro_error_nats);
    metrics.insert("count_err_share", fidelity.count_err_share);
    metrics.insert("summary_bytes", fidelity.summary_bytes as f64);
    for (name, value) in &metrics {
        ops.check(&format!("{name} is a positive number"), value.is_finite() && *value > 0.0);
    }
    let mut samples = BTreeMap::from([("rounds", rounds.len()), ("probes", fidelity.probes)]);
    for (at, name) in ROUND_SAMPLES.iter().enumerate() {
        samples.insert(*name, rounds.iter().map(|r| r.samples[at]).sum());
    }
    Ok(Outcome { ops, metrics, samples, counts: Some((first.counts.clone(), fidelity)) })
}
