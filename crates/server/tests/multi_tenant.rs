//! PR 9 acceptance: the multi-tenant daemon end to end over loopback.
//!
//! Every test binds a real [`Server`] on an ephemeral port over a
//! [`FaultFs`] and speaks the line-delimited JSON protocol through real
//! sockets:
//!
//! * one tenant's injected `ENOSPC` surfaces as a typed per-tenant wire
//!   error while the other tenant (and the daemon itself) keeps
//!   committing — and the broken tenant recovers after a close/reopen;
//! * group commit demonstrably coalesces delta fsyncs: strictly fewer
//!   `engine.delta` fsyncs than durability-bearing acks;
//! * a store grown through the daemon is bit-identical to one grown by
//!   a standalone [`Engine`] fed the same stream (modulo the
//!   process-global spill-file sequence numbers, which are normalized);
//! * the global resident budget is re-apportioned live as tenants come
//!   and go, evicting resident shards when a newcomer halves the share;
//! * more open connections than workers starve no one, the shutdown
//!   frame included;
//! * a failed covering fsync fails the waiting ack typed and rebases the
//!   tenant before its next write, whichever connection sends it — and
//!   a close appended behind that fsync is never acked ok without the
//!   rebase;
//! * a write that appended nothing waits for no one's flush;
//! * a write still running when its tenant closes is acked, not left
//!   waiting for a flush that no longer comes;
//! * reads for any tenant answer while one tenant's close sits inside
//!   its engine's writer lock.

use logr::cluster::vfs::Vfs;
use logr::Engine;
use logr_server::json::{self, Json};
use logr_server::{EngineProfile, Server, ServerConfig, ServerHandle};
use logr_testkit::vfs::{FaultFs, IoOp, OpKind};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const WINDOW: u64 = 8;

fn statement(tag: &str, i: u64) -> String {
    format!("SELECT c{} FROM {tag}_t{} WHERE a{} = ?", i % 13, i % 3, i % 7)
}

fn profile() -> EngineProfile {
    EngineProfile { window: WINDOW, clusters: 2, seed: 7, source: logr::SourceConfig::Sql }
}

/// Serve `fs` from `root`. Every test passes its own root: the paths are
/// virtual (each test has its own `FaultFs`), but the engine's in-process
/// store-lock registry is keyed by path alone, so two tests serving the
/// same tenant name from one root would lock each other out whenever
/// cargo runs them on parallel threads.
fn serve(root: &str, fs: Arc<FaultFs>, budget: usize, interval: Duration) -> ServerHandle {
    let config = ServerConfig::new(root)
        .vfs(fs)
        .profile(profile())
        .global_budget(budget)
        .threads(4)
        .commit_interval(interval);
    Server::bind(config, "127.0.0.1:0").expect("bind").spawn()
}

/// One protocol connection: send a frame line, read the response line.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn call(&mut self, frame: &str) -> Json {
        // Frame and newline in one write: two small writes would wait out
        // Nagle's algorithm against the server's delayed ACK.
        self.stream.write_all(format!("{frame}\n").as_bytes()).expect("send frame");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        assert!(line.ends_with('\n'), "response must be a full line: {line:?}");
        json::parse(line.trim_end()).expect("response is valid JSON")
    }

    /// `call` that must succeed; returns the `result` payload.
    fn ok(&mut self, frame: &str) -> Json {
        let resp = self.call(frame);
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "not ok: {}",
            resp.to_text()
        );
        resp.get("result").cloned().expect("ok frame carries a result")
    }

    /// `call` that must fail; returns the wire error code.
    fn err(&mut self, frame: &str) -> String {
        let resp = self.call(frame);
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(false),
            "not an error: {}",
            resp.to_text()
        );
        resp.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .expect("error frame carries a code")
            .to_owned()
    }

    /// A connection whose reads give up after `WAIT`, so a daemon that
    /// never answers fails the test instead of hanging it.
    fn impatient(addr: SocketAddr) -> Client {
        let client = Client::connect(addr);
        client.stream.set_read_timeout(Some(WAIT)).expect("set read timeout");
        client
    }

    /// Ingest one window-sized batch for `tenant` drawn from its stream
    /// at offset `round`.
    fn ingest_window(&mut self, tenant: &str, round: u64) -> Json {
        self.ok(&window_frame(tenant, round))
    }
}

/// How long the concurrency tests wait for something that must happen
/// before declaring it hung.
const WAIT: Duration = Duration::from_secs(20);

/// The `ingest` frame carrying `tenant`'s window-sized batch at `round`.
fn window_frame(tenant: &str, round: u64) -> String {
    let stmts: Vec<String> =
        (0..WINDOW).map(|i| format!("\"{}\"", statement(tenant, round * WINDOW + i))).collect();
    format!(
        "{{\"id\":{round},\"op\":\"ingest\",\"tenant\":\"{tenant}\",\"statements\":[{}]}}",
        stmts.join(",")
    )
}

fn field_u64(doc: &Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing {key}: {}", doc.to_text()))
}

#[test]
fn protocol_smoke_and_typed_error_frames() {
    let fs = Arc::new(FaultFs::new());
    let handle = serve("/srv/smoke", fs, usize::MAX, Duration::from_millis(2));
    let mut c = Client::connect(handle.addr());

    // Liveness and id echo.
    let resp = c.call("{\"id\":42,\"op\":\"ping\"}");
    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(42));
    assert_eq!(resp.get("result").and_then(Json::as_str), Some("pong"));

    // Malformed frames are typed protocol errors, never disconnects.
    assert_eq!(c.err("{not json"), "Protocol");
    assert_eq!(c.err("{\"op\":\"frobnicate\",\"tenant\":\"a\"}"), "Protocol");
    assert_eq!(c.err("{\"op\":\"ingest\"}"), "Protocol");
    assert_eq!(
        c.err("{\"op\":\"ingest\",\"tenant\":\"../escape\",\"sql\":\"SELECT 1\"}"),
        "Protocol"
    );
    assert_eq!(
        c.err("{\"op\":\"top_k\",\"tenant\":\"a\",\"class\":\"select\",\"k\":0}"),
        "Protocol"
    );

    // The read surface works over the wire after two closed windows.
    c.ingest_window("alpha", 0);
    c.ingest_window("alpha", 1);
    let freq =
        c.ok("{\"op\":\"frequency\",\"tenant\":\"alpha\",\"pred\":{\"table\":\"alpha_t0\"}}");
    assert!(freq.as_f64().expect("frequency is a number") > 0.0);
    let top = c.ok("{\"op\":\"top_k\",\"tenant\":\"alpha\",\"class\":\"from\",\"k\":3}");
    assert!(!top.as_arr().expect("top_k is an array").is_empty());
    let advice =
        c.ok("{\"op\":\"advise\",\"tenant\":\"alpha\",\"advisor\":\"index\",\"min_share\":0.01}");
    assert!(advice.as_arr().is_some());

    // Global stats see the tenant.
    let stats = c.ok("{\"op\":\"stats\"}");
    assert_eq!(field_u64(&stats, "tenants"), 1);
    assert!(stats.get("per_tenant").and_then(|t| t.get("alpha")).is_some());

    handle.shutdown();
    handle.join().expect("clean shutdown");
}

#[test]
fn one_tenants_enospc_never_touches_the_other() {
    let fs = Arc::new(FaultFs::new());
    // Budget 0: every window close spills shard files — maximum IO
    // surface on the injected-fault path.
    let handle = serve("/srv/enospc", fs.clone(), 0, Duration::from_millis(2));

    // Open both tenants and land one durable window each.
    let mut a = Client::connect(handle.addr());
    let mut b = Client::connect(handle.addr());
    a.ingest_window("alpha", 0);
    b.ingest_window("beta", 0);

    // Alpha's next spill hits a full disk; beta's disk is fine.
    fs.inject(OpKind::Write, "alpha/shard-", std::io::ErrorKind::StorageFull, 1);

    // Drive both tenants from parallel threads: beta must keep
    // committing while alpha fails typed.
    let addr = handle.addr();
    let beta_thread = std::thread::spawn(move || {
        let mut b = Client::connect(addr);
        for round in 1..6 {
            b.ingest_window("beta", round);
        }
    });
    let code = a.err(&format!(
        "{{\"op\":\"ingest\",\"tenant\":\"alpha\",\"statements\":[{}]}}",
        (0..WINDOW)
            .map(|i| format!("\"{}\"", statement("alpha", WINDOW + i)))
            .collect::<Vec<_>>()
            .join(",")
    ));
    assert_eq!(code, "StorageExhausted", "ENOSPC must surface typed on the wire");
    beta_thread.join().expect("beta thread");

    // The daemon is alive, beta committed all its windows, and beta's
    // stats are untouched by alpha's failure.
    let mut c = Client::connect(handle.addr());
    assert_eq!(c.call("{\"op\":\"ping\"}").get("result").and_then(Json::as_str), Some("pong"));
    let stats = c.ok("{\"op\":\"stats\",\"tenant\":\"beta\"}");
    assert_eq!(field_u64(&stats, "windows_closed"), 6);
    assert_eq!(field_u64(&stats, "total_queries"), 6 * WINDOW);

    // Alpha recovers through close + reopen (the injection is spent):
    // the wedged in-memory summarizer is discarded and the store reopens
    // at its last durable state.
    let closed = c.ok("{\"op\":\"close\",\"tenant\":\"alpha\"}");
    assert_eq!(closed.get("closed").and_then(Json::as_bool), Some(true));
    c.ingest_window("alpha", 1);
    let stats = c.ok("{\"op\":\"stats\",\"tenant\":\"alpha\"}");
    assert!(field_u64(&stats, "windows_closed") >= 2);

    handle.shutdown();
    handle.join().expect("clean shutdown");
}

#[test]
fn group_commit_coalesces_delta_fsyncs_across_acks() {
    let fs = Arc::new(FaultFs::new());
    // A long commit interval relative to ingest latency: many closes
    // park behind each committer tick, so their delta fsyncs coalesce.
    let handle = serve("/srv/group", fs.clone(), usize::MAX, Duration::from_millis(50));
    let addr = handle.addr();

    const CONNS: u64 = 4;
    const ROUNDS: u64 = 4;
    let workers: Vec<_> = (0..CONNS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for round in 0..ROUNDS {
                    let result = c.ingest_window("gamma", w * ROUNDS + round);
                    // Window-sized batches: every ack covers a close.
                    assert_eq!(field_u64(&result, "closed"), 1);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("loadgen thread");
    }

    let acks = CONNS * ROUNDS;
    let delta_fsyncs = fs
        .trace()
        .iter()
        .filter(|op| matches!(op, IoOp::Fsync { path } if path.ends_with("engine.delta")))
        .count() as u64;
    assert!(delta_fsyncs > 0, "durable closes need at least one delta fsync");
    assert!(
        delta_fsyncs < acks,
        "group commit must coalesce: {delta_fsyncs} delta fsyncs for {acks} durability-bearing acks"
    );
    eprintln!(
        "group commit: {delta_fsyncs} delta fsyncs covered {acks} window-close acks \
         ({:.2} fsyncs/ack)",
        delta_fsyncs as f64 / acks as f64
    );

    // Durability held: the tenant saw every window.
    let mut c = Client::connect(addr);
    let stats = c.ok("{\"op\":\"stats\",\"tenant\":\"gamma\"}");
    assert_eq!(field_u64(&stats, "windows_closed"), acks);

    handle.shutdown();
    handle.join().expect("clean shutdown");
}

/// Store files under `dir`, with the process-global spill-file sequence
/// numbers normalized away: every `shard-SSSSS-PID-XXXXXXXX.bin` name is
/// rewritten (in manifest order) to use a dense counter, both in the
/// manifest bytes (whose trailing 8-byte checksum is zeroed — it covers
/// the original names) and in the file keys. `engine.lock` is gone after
/// close; `engine.delta` is excluded (its header pins the original
/// base-manifest checksum).
fn normalized_store(fs: &FaultFs, dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let manifest_path = dir.join("engine.manifest");
    let mut manifest = fs.read(&manifest_path).expect("store has a manifest");

    // Collect distinct shard names by first occurrence in the manifest.
    let pid = std::process::id().to_string();
    let prefix = b"shard-";
    let name_len = "shard-00000-".len() + pid.len() + 1 + 8 + ".bin".len();
    let mut renames: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut i = 0;
    while i + name_len <= manifest.len() {
        if &manifest[i..i + prefix.len()] == prefix {
            let original = manifest[i..i + name_len].to_vec();
            if !renames.iter().any(|(from, _)| *from == original) {
                let mut normalized = original.clone();
                let seq_at = name_len - ".bin".len() - 8;
                normalized[seq_at..seq_at + 8]
                    .copy_from_slice(format!("{:08x}", renames.len()).as_bytes());
                renames.push((original, normalized));
            }
            i += name_len;
        } else {
            i += 1;
        }
    }
    for (from, to) in &renames {
        let mut j = 0;
        while j + from.len() <= manifest.len() {
            if &manifest[j..j + from.len()] == from.as_slice() {
                manifest[j..j + from.len()].copy_from_slice(to);
                j += from.len();
            } else {
                j += 1;
            }
        }
    }
    let end = manifest.len();
    manifest[end - 8..].fill(0);

    let mut out = BTreeMap::new();
    out.insert(PathBuf::from("engine.manifest"), manifest);
    for (path, bytes) in fs.files() {
        let Ok(rel) = path.strip_prefix(dir) else { continue };
        let name = rel.to_string_lossy().into_owned();
        if name == "engine.manifest" || name == "engine.delta" || name == "engine.lock" {
            continue;
        }
        let renamed = renames
            .iter()
            .find(|(from, _)| from.as_slice() == name.as_bytes())
            .map(|(_, to)| String::from_utf8(to.clone()).expect("ascii name"));
        out.insert(PathBuf::from(renamed.unwrap_or(name)), bytes);
    }
    out
}

#[test]
fn served_stores_are_bit_identical_to_standalone_engines() {
    // Two tenants grown concurrently through the daemon...
    let fs = Arc::new(FaultFs::new());
    let root = "/srv/identical";
    let handle = serve(root, fs.clone(), 0, Duration::from_millis(2));
    let addr = handle.addr();
    let threads: Vec<_> = ["alpha", "beta"]
        .into_iter()
        .map(|tenant| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for round in 0..4 {
                    c.ingest_window(tenant, round);
                }
                c.ok(&format!("{{\"op\":\"checkpoint\",\"tenant\":\"{tenant}\"}}"));
                c.ok(&format!("{{\"op\":\"close\",\"tenant\":\"{tenant}\"}}"));
            })
        })
        .collect();
    for t in threads {
        t.join().expect("tenant thread");
    }
    handle.shutdown();
    handle.join().expect("clean shutdown");

    // ...must be bit-identical to standalone engines fed the same
    // streams (same profile, same per-tenant budget share: 0).
    for tenant in ["alpha", "beta"] {
        let solo_fs = Arc::new(FaultFs::new());
        let dir = PathBuf::from(root).join(tenant);
        let engine = Engine::builder()
            .window(WINDOW)
            .clusters(2)
            .seed(7)
            .resident_budget(0)
            .vfs(solo_fs.clone() as Arc<dyn Vfs>)
            .open(&dir)
            .expect("standalone open");
        for i in 0..4 * WINDOW {
            engine.ingest_record(&statement(tenant, i)).expect("standalone ingest");
        }
        engine.checkpoint().expect("standalone checkpoint");
        drop(engine);

        let served = normalized_store(&fs, &dir);
        let solo = normalized_store(&solo_fs, &dir);
        assert!(served.len() > 1, "{tenant}: store must hold spilled shards");
        assert_eq!(
            served.keys().collect::<Vec<_>>(),
            solo.keys().collect::<Vec<_>>(),
            "{tenant}: file sets differ"
        );
        for (name, bytes) in &served {
            assert_eq!(Some(bytes), solo.get(name), "{tenant}: {} differs", name.display());
        }
    }
}

#[test]
fn template_tenants_mine_free_form_logs_over_the_wire() {
    let fs = Arc::new(FaultFs::new());
    let handle = serve("/srv/template", fs, usize::MAX, Duration::from_millis(2));
    let mut c = Client::connect(handle.addr());

    // Two windows of free-form service-log lines — not a byte of SQL —
    // through the source-neutral `records` field. The first frame's
    // "source":"template" selects the miner at store creation.
    for round in 0..2u64 {
        let lines: Vec<String> = (0..WINDOW)
            .map(|i| {
                let n = round * WINDOW + i;
                if n.is_multiple_of(2) {
                    format!("\"user u{n} logged in from 10.0.0.{n}\"")
                } else {
                    format!("\"disk scan finished in {n} ms\"")
                }
            })
            .collect();
        let result = c.ok(&format!(
            "{{\"op\":\"ingest\",\"tenant\":\"svc\",\"source\":\"template\",\"records\":[{}]}}",
            lines.join(",")
        ));
        assert_eq!(field_u64(&result, "closed"), 1);
    }

    // The analytics surface speaks template/param classes and preds.
    let top = c.ok("{\"op\":\"top_k\",\"tenant\":\"svc\",\"class\":\"template\",\"k\":4}");
    let top = top.as_arr().expect("top_k is an array");
    assert!(!top.is_empty(), "mined templates must rank");
    let texts: Vec<&str> = top
        .iter()
        .filter_map(|r| r.get("feature").and_then(|f| f.get("text")).and_then(Json::as_str))
        .collect();
    assert!(texts.iter().any(|t| t.contains("logged in")), "login template missing from {texts:?}");

    let ip_share = c
        .ok("{\"op\":\"share\",\"tenant\":\"svc\",\"pred\":{\"param\":\"ip\"}}")
        .as_f64()
        .expect("share is a number");
    assert!((ip_share - 0.5).abs() < 0.05, "half the lines carry an IP, got {ip_share}");

    // Negated predicates evaluate as mixture complements on the wire.
    let not_ip = c
        .ok("{\"op\":\"share\",\"tenant\":\"svc\",\"pred\":{\"not\":{\"param\":\"ip\"}}}")
        .as_f64()
        .expect("share is a number");
    assert!((not_ip - (1.0 - ip_share)).abs() < 1e-6, "¬ip must complement: {not_ip}");

    // An explicit source that disagrees with the one in force is a typed
    // protocol error, not a silent ignore.
    assert_eq!(c.err("{\"op\":\"flush\",\"tenant\":\"svc\",\"source\":\"sql\"}"), "Protocol");

    // Reopening the tenant replays the miner journal from the manifest:
    // a frame with no source gets the stored template source back.
    c.ok("{\"op\":\"close\",\"tenant\":\"svc\"}");
    let top2 = c.ok("{\"op\":\"top_k\",\"tenant\":\"svc\",\"class\":\"template\",\"k\":4}");
    let texts2: Vec<String> = top2
        .as_arr()
        .expect("top_k is an array")
        .iter()
        .filter_map(|r| r.get("feature").and_then(|f| f.get("text")).and_then(Json::as_str))
        .map(str::to_owned)
        .collect();
    assert_eq!(
        texts.iter().map(|t| t.to_owned()).collect::<Vec<_>>(),
        texts2,
        "reopened store must rank the same templates"
    );

    handle.shutdown();
    handle.join().expect("clean shutdown");
}

#[test]
fn global_budget_is_reapportioned_as_tenants_come_and_go() {
    // Measure the resident footprint of the workload unconstrained.
    let probe =
        Engine::builder().window(WINDOW).clusters(2).seed(7).in_memory().expect("probe engine");
    for i in 0..4 * WINDOW {
        probe.ingest_record(&statement("alpha", i)).expect("probe ingest");
    }
    let footprint = probe.resident_shard_bytes().expect("probe footprint");
    assert!(footprint > 0, "workload must produce resident shards");

    // Serve with exactly that global budget: a lone tenant fits.
    let fs = Arc::new(FaultFs::new());
    let handle = serve("/srv/budget", fs, footprint, Duration::from_millis(2));
    let mut c = Client::connect(handle.addr());
    for round in 0..4 {
        c.ingest_window("alpha", round);
    }
    let stats = c.ok("{\"op\":\"stats\",\"tenant\":\"alpha\"}");
    assert_eq!(field_u64(&stats, "budget"), footprint as u64);
    assert_eq!(field_u64(&stats, "spilled_shards"), 0, "lone tenant fits the global budget");
    assert_eq!(field_u64(&stats, "resident_shard_bytes"), footprint as u64);

    // A second tenant halves the share — the first tenant's engine is
    // re-budgeted live and evicts down to its new share.
    c.ok("{\"op\":\"stats\",\"tenant\":\"beta\"}");
    let stats = c.ok("{\"op\":\"stats\",\"tenant\":\"alpha\"}");
    assert_eq!(field_u64(&stats, "budget"), (footprint / 2) as u64);
    assert!(field_u64(&stats, "spilled_shards") > 0, "halved share must evict");
    assert!(field_u64(&stats, "resident_shard_bytes") <= (footprint / 2) as u64);

    // The departing tenant hands its share back.
    c.ok("{\"op\":\"close\",\"tenant\":\"beta\"}");
    let stats = c.ok("{\"op\":\"stats\",\"tenant\":\"alpha\"}");
    assert_eq!(field_u64(&stats, "budget"), footprint as u64);

    let global = c.ok("{\"op\":\"stats\"}");
    assert_eq!(field_u64(&global, "tenants"), 1);
    assert_eq!(field_u64(&global, "global_budget"), footprint as u64);

    handle.shutdown();
    handle.join().expect("clean shutdown");
}

#[test]
fn idle_connections_starve_neither_later_ones_nor_shutdown() {
    let fs = Arc::new(FaultFs::new());
    let config = ServerConfig::new("/srv/rotate").vfs(fs).profile(profile()).threads(1);
    let handle = Server::bind(config, "127.0.0.1:0").expect("bind").spawn();
    let addr = handle.addr();

    // A holds the only worker: served once, then silent with half a
    // frame sent.
    let mut a = Client::impatient(addr);
    assert_eq!(a.ok("{\"op\":\"ping\"}").as_str(), Some("pong"));
    a.stream.write_all(b"{\"id\":7,\"op\":\"pi").expect("send half a frame");

    // B arrives while A is open and idle — and is answered.
    let mut b = Client::impatient(addr);
    assert_eq!(b.ok("{\"op\":\"ping\"}").as_str(), Some("pong"));

    // A's half frame went to the back of the queue with its socket: the
    // rest of the line completes it.
    let resp = a.call("ng\"}");
    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(7));
    assert_eq!(resp.get("result").and_then(Json::as_str), Some("pong"));

    // Shutdown opens a third connection; it must get its turn too, with
    // A and B both still connected.
    let (done, joined) = mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = done.send(handle.join());
    });
    joined.recv_timeout(WAIT).expect("shutdown hung behind idle connections").expect("clean");
    drop((a, b));
}

#[test]
fn a_failed_covering_fsync_fails_the_ack_and_rebases_before_the_next_write() {
    let fs = Arc::new(FaultFs::new());
    let handle = serve("/srv/rebase", fs.clone(), usize::MAX, Duration::from_millis(2));
    let mut a = Client::connect(handle.addr());
    a.ingest_window("alpha", 0);

    // The committer's next covering fsync fails: the ack parked behind
    // it fails typed, and the tenant is marked for a rebase.
    fs.inject(OpKind::Fsync, "alpha/engine.delta", std::io::ErrorKind::Other, 1);
    assert_eq!(a.err(&window_frame("alpha", 1)), "Io");
    let stats = a.ok("{\"op\":\"stats\",\"tenant\":\"alpha\"}");
    assert_eq!(stats.get("needs_rebase").and_then(Json::as_bool), Some(true));

    // The next write — from another connection, so another worker — first
    // rewrites the base manifest, and only then logs its own close.
    let mark = fs.trace_len();
    let mut b = Client::connect(handle.addr());
    b.ingest_window("alpha", 2);
    let trace = fs.trace();
    let rebased = trace[mark..].iter().position(|op| {
        matches!(op, IoOp::Rename { from, to }
            if from.ends_with("alpha/engine.tmp") && to.ends_with("alpha/engine.manifest"))
    });
    // The rebase started a new log, so this record creates the file (a
    // `Write`); later ones extend it (`Append`).
    let logged = trace[mark..].iter().position(|op| {
        matches!(op, IoOp::Write { path, .. } | IoOp::Append { path, .. }
            if path.ends_with("alpha/engine.delta"))
    });
    assert!(rebased.is_some(), "the write after a failed flush must rewrite the base");
    assert!(rebased < logged, "base rename at {rebased:?}, delta record at {logged:?}");
    let stats = b.ok("{\"op\":\"stats\",\"tenant\":\"alpha\"}");
    assert_eq!(stats.get("needs_rebase").and_then(Json::as_bool), Some(false));

    // Close + reopen recovers every acked window — and the one whose ack
    // failed, which the rebase made durable after all.
    b.ok("{\"op\":\"close\",\"tenant\":\"alpha\"}");
    let stats = b.ok("{\"op\":\"stats\",\"tenant\":\"alpha\"}");
    assert_eq!(field_u64(&stats, "windows_closed"), 3);
    assert_eq!(field_u64(&stats, "total_queries"), 3 * WINDOW);

    handle.shutdown();
    handle.join().expect("clean shutdown");
}

/// What a stalled fsync does once the test releases it.
#[derive(Debug, PartialEq)]
enum AfterStall {
    /// Syncs through to the inner `FaultFs`.
    PassThrough,
    /// Fails with an injected `Other` error, syncing nothing.
    Fail,
}

/// One armed stall: the path fragment it waits for, what it does after,
/// and the channels it reports in and is released on.
#[derive(Debug)]
struct Stall {
    path: &'static str,
    then: AfterStall,
    entered: mpsc::Sender<()>,
    release: mpsc::Receiver<()>,
}

/// A [`FaultFs`] whose next `fsync` of a path containing the armed
/// fragment reports in and then blocks until released — a close held
/// inside its engine's writer lock, or a committer held inside its
/// covering flush, for as long as the test likes.
#[derive(Debug)]
struct StallFs {
    inner: FaultFs,
    stall: Mutex<Option<Stall>>,
}

impl StallFs {
    /// Arms the stall; returns the receiver that hears the fsync arrive
    /// and the sender that releases it.
    fn arm(&self, path: &'static str, then: AfterStall) -> (mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (entered, stalled) = mpsc::channel();
        let (release, released) = mpsc::channel();
        *self.stall.lock().expect("stall lock") =
            Some(Stall { path, then, entered, release: released });
        (stalled, release)
    }

    /// Polls the trace until `seen` holds for some op at or after `from`.
    fn await_op(&self, from: usize, seen: impl Fn(&IoOp) -> bool) {
        let deadline = std::time::Instant::now() + WAIT;
        while !self.inner.trace()[from..].iter().any(&seen) {
            assert!(std::time::Instant::now() < deadline, "the awaited IO never happened");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Vfs for StallFs {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.write(path, bytes)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.append(path, bytes)
    }
    fn fsync(&self, path: &Path) -> std::io::Result<()> {
        let text = path.to_string_lossy();
        let armed = self.stall.lock().expect("stall lock").take_if(|s| text.contains(s.path));
        if let Some(stall) = armed {
            stall.entered.send(()).expect("test is waiting for the stall");
            stall.release.recv().expect("test releases the stall");
            if stall.then == AfterStall::Fail {
                return Err(std::io::Error::other("injected fsync failure"));
            }
        }
        self.inner.fsync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove(path)
    }
    fn list(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.inner.sync_dir(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.create_exclusive(path, bytes)
    }
}

/// A daemon over a fresh [`StallFs`] at `root`, with `tenants` opened
/// and one window landed each.
fn serve_stalling(root: &str, tenants: &[&str]) -> (Arc<StallFs>, ServerHandle) {
    let fs = Arc::new(StallFs { inner: FaultFs::new(), stall: Mutex::new(None) });
    let config = ServerConfig::new(root)
        .vfs(fs.clone())
        .profile(profile())
        .threads(4)
        .commit_interval(Duration::from_millis(2));
    let handle = Server::bind(config, "127.0.0.1:0").expect("bind").spawn();
    let mut setup = Client::connect(handle.addr());
    for tenant in tenants {
        setup.ingest_window(tenant, 0);
    }
    (fs, handle)
}

/// True for a delta record of `tenant` reaching the log (the first
/// record of a log creates the file, later ones extend it).
fn logs(op: &IoOp, tenant: &str) -> bool {
    matches!(op, IoOp::Write { path, .. } | IoOp::Append { path, .. }
        if path.ends_with(format!("{tenant}/engine.delta")))
}

#[test]
fn reads_answer_while_a_close_holds_the_writer_lock() {
    let (fs, handle) = serve_stalling("/srv/stall", &["alpha", "beta"]);
    let addr = handle.addr();

    // Alpha's second close stalls in its shard fsync — after the engine
    // published the close, before it persisted it, writer lock held.
    let (stalled, release) = fs.arm("alpha/shard-", AfterStall::PassThrough);
    let writer = std::thread::spawn(move || Client::connect(addr).ingest_window("alpha", 1));
    stalled.recv_timeout(WAIT).expect("alpha's close reaches its shard fsync");

    // Other connections read both tenants meanwhile; alpha's own answers
    // already show the window whose ack is still waiting.
    let mut reader = Client::impatient(addr);
    let freq =
        reader.ok("{\"op\":\"frequency\",\"tenant\":\"alpha\",\"pred\":{\"table\":\"alpha_t0\"}}");
    assert!(freq.as_f64().expect("frequency is a number") > 0.0);
    let stats = reader.ok("{\"op\":\"stats\",\"tenant\":\"alpha\"}");
    assert_eq!(field_u64(&stats, "windows_closed"), 2);
    let freq = Client::impatient(addr)
        .ok("{\"op\":\"frequency\",\"tenant\":\"beta\",\"pred\":{\"table\":\"beta_t0\"}}");
    assert!(freq.as_f64().expect("frequency is a number") > 0.0);

    release.send(()).expect("writer is stalled");
    let acked = writer.join().expect("alpha's writer");
    assert_eq!(field_u64(&acked, "closed"), 1);

    handle.shutdown();
    handle.join().expect("clean shutdown");
}

#[test]
fn a_write_behind_a_failed_covering_fsync_is_never_acked_ok() {
    let (fs, handle) = serve_stalling("/srv/amnesia", &["alpha"]);
    let addr = handle.addr();

    // Connection 1's close waits for its ticket; the committer's covering
    // fsync stalls, and will fail.
    let (stalled, release) = fs.arm("alpha/engine.delta", AfterStall::Fail);
    let first = std::thread::spawn(move || Client::impatient(addr).call(&window_frame("alpha", 1)));
    stalled.recv_timeout(WAIT).expect("the committer reaches alpha's covering fsync");

    // Connection 2's close takes the free gate and appends behind it.
    let mark = fs.inner.trace_len();
    let second =
        std::thread::spawn(move || Client::impatient(addr).call(&window_frame("alpha", 2)));
    fs.await_op(mark, |op| logs(op, "alpha"));
    let failed_at = fs.inner.trace_len();
    release.send(()).expect("the committer is stalled");

    let code = |resp: &Json| {
        resp.get("error").and_then(|e| e.get("code")).and_then(Json::as_str).map(str::to_owned)
    };
    let first = first.join().expect("connection 1");
    assert_eq!(code(&first).as_deref(), Some("Io"), "{}", first.to_text());
    // Connection 2's record landed after a failed fsync: it is acked ok
    // only if a base rewrite made it durable after the failure.
    let second = second.join().expect("connection 2");
    if second.get("ok").and_then(Json::as_bool) == Some(true) {
        let rebased = fs.inner.trace()[failed_at..].iter().any(|op| {
            matches!(op, IoOp::Rename { from, to }
                if from.ends_with("alpha/engine.tmp") && to.ends_with("alpha/engine.manifest"))
        });
        assert!(rebased, "acked ok after a failed covering fsync with no rebase between");
    } else {
        assert_eq!(code(&second).as_deref(), Some("Io"), "{}", second.to_text());
    }

    // The failure sticks until the next write rebases the tenant.
    let mut c = Client::impatient(addr);
    let stats = c.ok("{\"op\":\"stats\",\"tenant\":\"alpha\"}");
    assert_eq!(stats.get("needs_rebase").and_then(Json::as_bool), Some(true));
    let acked = c.ingest_window("alpha", 3);
    assert_eq!(field_u64(&acked, "windows_closed"), 4, "the rebase kept both failed closes");
    let stats = c.ok("{\"op\":\"stats\",\"tenant\":\"alpha\"}");
    assert_eq!(stats.get("needs_rebase").and_then(Json::as_bool), Some(false));

    handle.shutdown();
    handle.join().expect("clean shutdown");
}

#[test]
fn a_write_that_appended_nothing_is_not_held_behind_another_connections_flush() {
    let (fs, handle) = serve_stalling("/srv/unticketed", &["alpha", "zeta"]);
    let addr = handle.addr();

    // The committer visits tenants in name order: a stall in alpha's
    // covering fsync holds it before it reaches zeta.
    let (stalled, release) = fs.arm("alpha/engine.delta", AfterStall::PassThrough);
    let alpha = std::thread::spawn(move || Client::impatient(addr).ingest_window("alpha", 1));
    stalled.recv_timeout(WAIT).expect("the committer reaches alpha's covering fsync");

    // Connection 1 closes a zeta window: it appends and waits for its
    // ticket, which the held committer cannot flush yet.
    let mark = fs.inner.trace_len();
    let closing = std::thread::spawn(move || Client::impatient(addr).ingest_window("zeta", 1));
    fs.await_op(mark, |op| logs(op, "zeta"));

    // Connection 2's ingest closes nothing, so it has no ticket to wait
    // for and answers while the committer is still held.
    let (answered, reply) = mpsc::channel();
    std::thread::spawn(move || {
        let frame = format!(
            "{{\"op\":\"ingest\",\"tenant\":\"zeta\",\"sql\":\"{}\"}}",
            statement("zeta", 2 * WINDOW)
        );
        let _ = answered.send(Client::impatient(addr).ok(&frame));
    });
    let unticketed = reply.recv_timeout(WAIT);
    release.send(()).expect("the committer is stalled");

    let unticketed = unticketed.expect("a write with no ticket waited for another's flush");
    assert_eq!(field_u64(&unticketed, "closed"), 0);
    assert_eq!(field_u64(&alpha.join().expect("alpha's close"), "closed"), 1);
    assert_eq!(field_u64(&closing.join().expect("zeta's close"), "closed"), 1);

    handle.shutdown();
    handle.join().expect("clean shutdown");
}

#[test]
fn a_write_in_flight_when_its_tenant_closes_is_still_acked() {
    let (fs, handle) = serve_stalling("/srv/closing", &["alpha"]);
    let addr = handle.addr();

    // Alpha's close stalls in its shard fsync, before it logs its record.
    let (stalled, release) = fs.arm("alpha/shard-", AfterStall::PassThrough);
    let writer = std::thread::spawn(move || Client::impatient(addr).ingest_window("alpha", 1));
    stalled.recv_timeout(WAIT).expect("alpha's close reaches its shard fsync");

    // The tenant closes under the write: no committer tick visits it
    // again, so the record the write logs next must not wait for one.
    Client::impatient(addr).ok("{\"op\":\"close\",\"tenant\":\"alpha\"}");
    release.send(()).expect("the writer is stalled");
    assert_eq!(field_u64(&writer.join().expect("alpha's writer"), "closed"), 1);

    handle.shutdown();
    handle.join().expect("clean shutdown");
}
