//! A daemon tenant against `RefStream`, the executable reference of a
//! window close (`logr_testkit::RefStream`). Scripts go over the wire in
//! `ingest` batches of random size; after each batch a `checkpoint`
//! frame makes the tenant's whole state durable, and a read-only open of
//! its store must then hold what the reference rebuilds from the raw
//! records, bit for bit: the close count and total, the history, the
//! baseline and the history summary. (A read-only open carries no last
//! window; the window artifacts are checked against the engine in
//! `tests/ref_stream.rs` at the workspace root.)
//!
//! The tenant profile fixes tumbling count windows, so that is what this
//! covers, for SQL and template tenants.

use logr::core::StreamConfig;
use logr::{Engine, EngineBuilder, SourceConfig};
use logr_server::json::{self, Json};
use logr_server::{EngineProfile, Server, ServerConfig};
use logr_testkit::sql_gen::Draws;
use logr_testkit::{script_texts, FaultFs, RefStream};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const WINDOW: u64 = 8;
const CLUSTERS: usize = 3;
const SEED: u64 = 11;

/// Send one frame, read its response, and require `"ok": true`.
fn call(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, frame: &str) {
    stream.write_all(format!("{frame}\n").as_bytes()).expect("send frame");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    let resp = json::parse(line.trim_end()).expect("response is valid JSON");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "not ok: {line}");
}

/// A tenant's stream through the daemon, checked after every batch.
fn check_tenant(root: &str, tenant: &str, template: bool, script_seed: u64) {
    let fs = Arc::new(FaultFs::new());
    let source = if template { SourceConfig::template() } else { SourceConfig::Sql };
    let profile = EngineProfile { window: WINDOW, clusters: CLUSTERS, seed: SEED, source };
    let config = ServerConfig::new(root)
        .vfs(fs.clone())
        .profile(profile)
        .threads(2)
        .commit_interval(Duration::from_millis(1));
    let handle = Server::bind(config, "127.0.0.1:0").expect("bind").spawn();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let mut reference = RefStream::new(StreamConfig {
        window: WINDOW,
        k: CLUSTERS,
        seed: SEED,
        source,
        ..StreamConfig::default()
    });
    let texts = script_texts(script_seed, template, 70);
    let mut d = Draws(script_seed);
    let mut at = 0;
    let mut batch_no = 0;
    while at < texts.len() {
        let take = (1 + d.next() % (WINDOW + 4)) as usize;
        let batch = &texts[at..texts.len().min(at + take)];
        at += batch.len();
        let records: Vec<String> =
            batch.iter().map(|text| Json::Str(text.clone()).to_text()).collect();
        call(
            &mut stream,
            &mut reader,
            &format!(
                "{{\"op\":\"ingest\",\"tenant\":\"{tenant}\",\"records\":[{}]}}",
                records.join(",")
            ),
        );
        for text in batch {
            reference.ingest(text, 1);
        }
        call(
            &mut stream,
            &mut reader,
            &format!("{{\"op\":\"checkpoint\",\"tenant\":\"{tenant}\"}}"),
        );

        let reader_engine: Engine = EngineBuilder::new()
            .vfs(fs.clone())
            .read_only()
            .resume(format!("{root}/{tenant}"))
            .expect("read-only open");
        let snap = reader_engine.snapshot().expect("snapshot");
        let summary = snap.summary().expect("history summary");
        reference.check_view(
            snap.windows_closed(),
            snap.total_queries(),
            snap.history(),
            snap.baseline(),
            summary.as_deref(),
            &format!("{tenant}, batch {batch_no}"),
        );
        batch_no += 1;
    }
    assert!(reference.windows_closed() >= 5, "{tenant}: the script is too short");
    drop((stream, reader));
    handle.shutdown();
}

#[test]
fn a_sql_tenant_matches_the_reference_after_every_checkpoint() {
    check_tenant("/daemon-ref-sql", "sql", false, 3);
}

#[test]
fn a_template_tenant_matches_the_reference_after_every_checkpoint() {
    check_tenant("/daemon-ref-template", "svc", true, 5);
}
