//! Whole-ledger commands: `run` (every workload in a process of its own,
//! both passes, one JSON document), `selfcheck`, `diff`, and the schema
//! check that keeps the emitted names equal to `BENCHMARK.json`.

use crate::embedded::scratch_root;
use crate::measure::{self, Outcome};
use crate::stats::median;
use crate::{spec, Args, Res};
use logr_server::json::{self, Json};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Size and run length of a `--smoke` run: about a hundredth of the work.
const SMOKE_PCT: u64 = 1;

fn metrics_json(outcome: &Outcome) -> String {
    let cells: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{}\"}}", spec::unit_of(name))
        })
        .collect();
    format!("{{{}}}", cells.join(","))
}

/// The result object the benchmark contract asks for, on one line.
pub fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct(),
        outcome.ops.attempted.max(1),
        outcome.ops.failed,
        metrics_json(outcome)
    )
}

// ---- machine -----------------------------------------------------------

/// Median of 50 × (4 KiB write + fsync) in the store directory, so a run
/// on tmpfs is recognisable.
fn fsync_probe_us() -> Res<f64> {
    let dir = scratch_root();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("fsync-probe-{}", std::process::id()));
    let block = [0x5au8; 4096];
    let mut samples = Vec::new();
    for _ in 0..50 {
        let start = Instant::now();
        let mut file = std::fs::File::create(&path)?;
        file.write_all(&block)?;
        file.sync_all()?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    std::fs::remove_file(&path)?;
    Ok(median(&samples))
}

/// What the numbers depend on and the ledger does not override.
fn machine_json() -> Res<String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var("LOGR_THREADS").ok().and_then(|v| v.parse::<usize>().ok());
    Ok(format!(
        "{{\"nproc\":{nproc},\"logr_threads\":{},\"logr_threads_from_env\":{},\
         \"store_dir\":\"{}\",\"fsync_probe_us\":{}}}",
        threads.unwrap_or(nproc).max(1),
        threads.is_some(),
        scratch_root().display(),
        fsync_probe_us()?
    ))
}

// ---- schema ------------------------------------------------------------

fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn declared(doc: &Json, key: &str) -> Vec<Json> {
    doc.get(key).and_then(Json::as_arr).map(<[Json]>::to_vec).unwrap_or_default()
}

fn names_of(items: &[Json]) -> BTreeSet<String> {
    items.iter().filter_map(|i| i.get("name").and_then(Json::as_str)).map(str::to_string).collect()
}

/// Every way `BENCHMARK.json` (as `text`) and [`spec`] disagree.
fn schema_drift(text: &str) -> Vec<String> {
    let mut drift = Vec::new();
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    let mut compare = |what: &str, ours: &mut dyn Iterator<Item = &str>| {
        let ours: BTreeSet<String> = ours.map(str::to_string).collect();
        let theirs = names_of(&declared(&doc, what));
        for name in ours.symmetric_difference(&theirs) {
            let side =
                if ours.contains(name) { "emitted, not declared" } else { "declared, not emitted" };
            drift.push(format!("{what} {name}: {side}"));
        }
        for name in ours.iter().filter(|n| !valid_name(n)) {
            drift.push(format!("{what} {name}: not of [A-Za-z0-9_.-]+"));
        }
    };
    compare("workloads", &mut spec::WORKLOADS.iter().copied());
    compare("end_to_end", &mut spec::END_TO_END.iter().map(|m| m.name));
    compare("per_layer", &mut spec::PER_LAYER.iter().map(|m| m.name));
    for item in declared(&doc, "end_to_end").iter().chain(&declared(&doc, "per_layer")) {
        let name = item.get("name").and_then(Json::as_str).unwrap_or("");
        let field = |key: &str| item.get(key).and_then(Json::as_str).unwrap_or("").to_string();
        if let Some(ours) = spec::END_TO_END.iter().find(|m| m.name == name) {
            let bound = item.get("bound").and_then(Json::as_f64);
            if (field("unit"), field("better"), bound)
                != (ours.unit.into(), ours.better.into(), Some(ours.bound))
            {
                drift.push(format!("end_to_end {name}: unit, direction or bound differs"));
            }
        }
        if let Some(ours) = spec::PER_LAYER.iter().find(|m| m.name == name) {
            if (field("unit"), field("better")) != (ours.unit.into(), ours.better.into()) {
                drift.push(format!("per_layer {name}: unit or direction differs"));
            }
        }
    }
    drift
}

/// Cells of one workload's emitted metrics that break the declaration:
/// a missing or non-finite value, an end-to-end zero, or a value in a
/// cell declared not applicable.
fn cell_drift(workload: &str, pass: &str, metrics: &Json, drift: &mut Vec<String>) {
    let expected: Vec<&str> = match pass {
        "end_to_end" => spec::END_TO_END.iter().map(|m| m.name).collect(),
        _ => spec::PER_LAYER.iter().map(|m| m.name).collect(),
    };
    let Json::Obj(cells) = metrics else {
        drift.push(format!("{workload}: no {pass} metrics"));
        return;
    };
    for (name, _) in cells {
        if !expected.contains(&name.as_str()) {
            drift.push(format!("{workload}: {pass} metric {name} emitted, not declared"));
        }
    }
    for name in expected {
        let value = metrics.get(name).and_then(|c| c.get("value")).and_then(Json::as_f64);
        match value {
            None => drift.push(format!("{workload}: {pass} metric {name} has no value")),
            Some(v) if !v.is_finite() => drift.push(format!("{workload}: {name} is not finite")),
            Some(v) if pass == "end_to_end" && v == 0.0 => {
                drift.push(format!("{workload}: end-to-end {name} is 0"))
            }
            Some(v) if spec::not_applicable(name, workload) && v != 0.0 => {
                drift.push(format!("{workload}: {name} is declared n/a but reads {v}"))
            }
            Some(_) => {}
        }
    }
}

// ---- run ---------------------------------------------------------------

/// One pass of one workload in a process of its own: its result object
/// and its sample counts.
fn child(workload: &str, seed: u64, seconds: f64, trace: u8, pct: u64) -> Res<(Json, Json)> {
    let (seed, seconds, trace, pct) =
        (seed.to_string(), seconds.to_string(), trace.to_string(), pct.to_string());
    let stdout = crate::run_self(&[
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        &trace,
        "--scale-pct",
        &pct,
    ])?;
    print!("{stdout}");
    let last = stdout.lines().last().ok_or("no result line")?;
    let samples = stdout.lines().find_map(|l| l.strip_prefix("samples ")).unwrap_or("{}");
    Ok((json::parse(last)?, json::parse(samples)?))
}

/// Every workload, tracing off then on, into one document.
pub fn run(args: &Args) -> Res<ExitCode> {
    let seed: u64 = args.parsed("--seed")?.ok_or("--seed <n> is required")?;
    let smoke = args.has("--smoke");
    let benchmark = std::fs::read_to_string("BENCHMARK.json");
    let declared_seconds = benchmark
        .as_ref()
        .ok()
        .and_then(|text| json::parse(text).ok())
        .and_then(|doc| doc.get("run_seconds").and_then(Json::as_f64));
    let (pct, seconds) = match (smoke, args.parsed("--seconds")?) {
        (true, _) => (SMOKE_PCT, 0.0),
        (false, Some(seconds)) => (100, seconds),
        (false, None) => (100, declared_seconds.ok_or("no --seconds and no BENCHMARK.json here")?),
    };

    let mut drift = match &benchmark {
        Ok(text) => schema_drift(text),
        Err(_) if smoke => vec!["BENCHMARK.json not found in the working directory".to_string()],
        Err(_) => Vec::new(),
    };
    let mut failed_checks = 0u64;
    let mut doc = format!(
        "{{\"seed\":{seed},\"claim\":null,\"smoke\":{smoke},\"run_seconds\":{seconds},\
         \"machine\":{},\"workloads\":{{",
        machine_json()?
    );
    for (i, workload) in spec::WORKLOADS.into_iter().enumerate() {
        let (plain, samples) = child(workload, seed, seconds, 0, pct)?;
        let (traced, _) = child(workload, seed, seconds, 1, pct)?;
        for result in [&plain, &traced] {
            failed_checks += result.get("failed").and_then(Json::as_u64).unwrap_or(1);
        }
        let metrics = |result: &Json| result.get("metrics").cloned().unwrap_or(Json::Null);
        cell_drift(workload, "end_to_end", &metrics(&plain), &mut drift);
        cell_drift(workload, "per_layer", &metrics(&traced), &mut drift);
        let count = |result: &Json, key: &str| result.get(key).and_then(Json::as_u64).unwrap_or(0);
        write!(
            doc,
            "{}\"{}\":{{\"correct\":{},\"attempted\":{},\"failed\":{},\"samples\":{},\
             \"end_to_end\":{},\"per_layer\":{}}}",
            if i == 0 { "" } else { "," },
            workload,
            count(&plain, "failed") + count(&traced, "failed") == 0,
            count(&plain, "attempted") + count(&traced, "attempted"),
            count(&plain, "failed") + count(&traced, "failed"),
            samples.to_text(),
            metrics(&plain).to_text(),
            metrics(&traced).to_text(),
        )?;
    }
    doc.push_str("}}");
    if let Some(path) = args.get("--out") {
        std::fs::write(path, &doc)?;
        println!("wrote {path}");
    } else {
        println!("{doc}");
    }
    for line in &drift {
        eprintln!("ledger: schema drift: {line}");
    }
    if failed_checks > 0 {
        eprintln!("ledger: {failed_checks} output checks failed");
    }
    Ok(if drift.is_empty() && failed_checks == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

// ---- selfcheck -----------------------------------------------------------

/// One seed twice gives identical count-type values; another seed gives
/// another stream.
pub fn selfcheck() -> Res<ExitCode> {
    let mut ok = true;
    for workload in spec::WORKLOADS {
        let counted = |seed: u64| -> Res<_> {
            let outcome = measure::end_to_end(workload, seed, 0.0, SMOKE_PCT)?;
            let (counts, fidelity) = outcome.counts.expect("the tracing-off pass counts");
            let bits = (fidelity.repro_error_nats.to_bits(), fidelity.count_err_share.to_bits());
            Ok((outcome.ops.failed, counts, fidelity.summary_bytes, bits))
        };
        let (first, again, other) = (counted(1)?, counted(1)?, counted(2)?);
        let repeats = first == again;
        let differs = first.1.stream_hash != other.1.stream_hash;
        let clean = first.0 + other.0 == 0;
        println!(
            "{workload:20} same seed repeats: {repeats}; other seed differs: {differs}; checks pass: {clean}"
        );
        if !repeats {
            println!("  first: {first:?}\n  again: {again:?}");
        }
        ok &= repeats && differs && clean;
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

// ---- diff ----------------------------------------------------------------

fn value_of(doc: &Json, workload: &str, pass: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?.get(workload)?.get(pass)?.get(metric)?.get("value")?.as_f64()
}

/// `b` against base `a`: how much worse (positive) in the metric's own
/// direction, as a share of `a`.
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// Four digits that mean something, whatever the magnitude.
fn sig(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.1 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// Two `run` documents, metric by metric.
pub fn diff(args: &Args) -> Res<ExitCode> {
    let (Some(a_path), Some(b_path)) = (args.positional(0), args.positional(1)) else {
        return Err("usage: ledger diff <a.json> <b.json>".into());
    };
    let a = json::parse(&std::fs::read_to_string(a_path)?)?;
    let b = json::parse(&std::fs::read_to_string(b_path)?)?;
    let mut worse = 0usize;
    for workload in spec::WORKLOADS {
        println!("== {workload}");
        for metric in &spec::END_TO_END {
            let cell = |doc| value_of(doc, workload, "end_to_end", metric.name);
            let (Some(x), Some(y)) = (cell(&a), cell(&b)) else {
                println!("  {:28} missing in one document", metric.name);
                continue;
            };
            let w = worsening(x, y, metric.better);
            let verdict = match w {
                w if w > metric.bound => "worse",
                w if w < -metric.bound => "better",
                _ => "within",
            };
            worse += usize::from(verdict == "worse");
            println!(
                "  {:28} {:>14} -> {:>14} {:4} x{:.3} of {} (bound {:.0}%, {} is better)  {verdict}",
                metric.name,
                sig(x),
                sig(y),
                metric.unit,
                y / x,
                sig(x),
                metric.bound * 100.0,
                metric.better
            );
            for layer in
                spec::PER_LAYER.iter().filter(|l| l.moves.contains(&(metric.name, workload)))
            {
                let cell = |doc| value_of(doc, workload, "per_layer", layer.name);
                if let (Some(x), Some(y)) = (cell(&a), cell(&b)) {
                    println!(
                        "      {:30} {:>14} -> {:>14} {:5} x{:.3} of {}",
                        layer.name,
                        sig(x),
                        sig(y),
                        layer.unit,
                        y / x,
                        sig(x)
                    );
                }
            }
        }
    }
    println!("{worse} end-to-end cells worse than their bound");
    Ok(ExitCode::SUCCESS)
}
