//! The daemon lifecycle in one process: spawn `logr-server` on an
//! ephemeral loopback port, speak its line-delimited JSON protocol from
//! a plain TCP client — ingest two tenants' workloads, read the
//! analytics surface (frequency, top-k, index advice, drift), watch the
//! shared resident budget apportion itself — then shut the daemon down
//! cleanly.
//!
//! Everything below the `Server::bind` call is exactly what a non-Rust
//! client would do over the wire: newline-delimited JSON frames in, one
//! `{"id":…,"ok":…,…}` line back per frame (see the `logr-server` crate
//! docs for the full protocol reference).
//!
//! Run with: `cargo run --release --example serve_and_query`

use logr_server::json::{self, Json};
use logr_server::{EngineProfile, Server, ServerConfig, ServerError};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Send one frame line, read one response line, parse it.
fn call(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, frame: &str) -> Json {
    writeln!(stream, "{frame}").expect("send frame");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    json::parse(line.trim_end()).expect("daemon speaks valid JSON")
}

fn result(resp: &Json) -> &Json {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "frame failed: {}",
        resp.to_text()
    );
    resp.get("result").expect("ok frame carries a result")
}

fn main() -> Result<(), ServerError> {
    let dir = std::env::temp_dir().join(format!("logr-serve-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A small profile so two windows close quickly: 16-statement
    // windows, 256 KiB of resident shard budget shared by all tenants,
    // each tenant's delta fsyncs coalesced into one every 5 ms.
    let config = ServerConfig::new(&dir)
        .profile(EngineProfile { window: 16, clusters: 2, seed: 42, ..EngineProfile::default() })
        .global_budget(256 * 1024)
        .threads(2)
        .commit_interval(Duration::from_millis(5));
    let handle = Server::bind(config, "127.0.0.1:0")?.spawn();
    println!("daemon listening on {}", handle.addr());

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Two tenants, two workloads. The `sales` tenant is status-lookup
    // heavy; `ops` joins audit tables. Acks arrive only once the close
    // that absorbed a batch is covered by a group-commit fsync.
    for i in 0..48 {
        let sql = if i % 3 == 0 {
            "SELECT id, total FROM orders WHERE status = ?"
        } else {
            "SELECT id, body FROM tickets WHERE status = ?"
        };
        call(
            &mut stream,
            &mut reader,
            &format!("{{\"id\":{i},\"op\":\"ingest\",\"tenant\":\"sales\",\"sql\":\"{sql}\"}}"),
        );
    }
    for _ in 0..32 {
        let sql = "SELECT e.user FROM events e, audits a WHERE e.user = ?";
        call(
            &mut stream,
            &mut reader,
            &format!("{{\"op\":\"ingest\",\"tenant\":\"ops\",\"sql\":\"{sql}\"}}"),
        );
    }

    // The whole analytics read surface is wire ops over lock-free
    // snapshots — ingest on other connections never blocks these.
    let resp = call(&mut stream, &mut reader, "{\"op\":\"frequency\",\"tenant\":\"sales\",\"pred\":{\"and\":[{\"table\":\"orders\"},{\"column_eq\":\"status\"}]}}");
    println!("sales: ~{:.0} status-lookups on orders", result(&resp).as_f64().unwrap_or(0.0));

    let resp = call(
        &mut stream,
        &mut reader,
        "{\"op\":\"top_k\",\"tenant\":\"sales\",\"class\":\"from\",\"k\":2}",
    );
    for entry in result(&resp).as_arr().unwrap_or(&[]) {
        let feature = entry.get("feature").and_then(|f| f.get("text")).and_then(Json::as_str);
        println!(
            "sales hot table: {} (~{:.0} queries)",
            feature.unwrap_or("?"),
            entry.get("estimated").and_then(Json::as_f64).unwrap_or(0.0)
        );
    }

    let resp = call(
        &mut stream,
        &mut reader,
        "{\"op\":\"advise\",\"tenant\":\"sales\",\"advisor\":\"index\",\"min_share\":0.2}",
    );
    for advice in result(&resp).as_arr().unwrap_or(&[]) {
        println!(
            "sales index advice: {}",
            advice.get("subject").and_then(Json::as_str).unwrap_or("?")
        );
    }

    let resp = call(
        &mut stream,
        &mut reader,
        "{\"op\":\"drift\",\"tenant\":\"sales\",\"tolerance\":0.05}",
    );
    match result(&resp) {
        Json::Null => println!("sales drift: no report yet (one window only)"),
        report => println!(
            "sales drift: overall {:.4} nats, stable: {}",
            report.get("overall").and_then(Json::as_f64).unwrap_or(0.0),
            report.get("stable").and_then(Json::as_bool).unwrap_or(false),
        ),
    }

    // Global stats show the budget split across the live tenants.
    let resp = call(&mut stream, &mut reader, "{\"op\":\"stats\"}");
    let stats = result(&resp);
    println!(
        "{} tenants share the budget: {} bytes each",
        stats.get("tenants").and_then(Json::as_u64).unwrap_or(0),
        stats.get("per_tenant_budget").and_then(Json::as_u64).unwrap_or(0),
    );

    // A clean shutdown drains in-flight writes and fsyncs every
    // tenant's delta log before the listener thread exits.
    call(&mut stream, &mut reader, "{\"op\":\"shutdown\"}");
    handle.join()?;
    println!("daemon stopped; stores are durable under {}", dir.display());

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
