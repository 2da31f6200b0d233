//! The daemon: TCP accept loop, one worker pool, and the group-commit
//! committer.
//!
//! # Thread topology
//!
//! * **1 accept thread** — hands accepted sockets to the pool.
//! * **`threads` workers** (sized by [`ServerConfig::threads`],
//!   defaulting to the `LOGR_THREADS` environment variable) — each serves
//!   one connection at a time: parses its frames, answers reads off
//!   lock-free [`logr::EngineSnapshot`]s, and runs writes itself under
//!   the tenant's write gate ([`crate::GroupCommitVfs::run_gated`]), so
//!   one tenant's writes stay ordered while different tenants' writes
//!   run side by side. A connection that stays silent for a poll
//!   interval while another waits for a worker goes to the back of the
//!   queue.
//! * **1 committer thread** — every [`ServerConfig::commit_interval`] it
//!   flushes each tenant that owes an fsync, making the tickets its
//!   writes took durable (group commit, [`crate::GroupCommitVfs`]); its
//!   last tick, after the workers joined, is the shutdown flush.
//!
//! Reads never wait on a writer: they compute on the engine's published
//! snapshot, and nothing on their way takes a tenant's gate or its
//! engine's writer lock. (Admitting or closing a tenant re-budgets every
//! engine under the registry lock; lookups wait behind that.)

use crate::json::{n, obj, s, Json};
use crate::protocol::{
    advice_json, class_name, drift_json, err_frame, feature_json, ok_frame, parse_frame, protocol,
    AdvisorSpec, Frame, ReadOp, Request, ServerError, TenantOp, WriteOp, MAX_FRAME_BYTES,
};
use crate::tenant::{EngineProfile, Tenant, TenantRegistry};
use logr::analytics::{
    Advisor, DriftAdvisor, IndexAdvisor, QueryRecommender, ViewAdvisor, WorkloadQuery,
};
use logr::cluster::vfs::{RealFs, Vfs};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How long a server thread sleeps between checks of the stop flag when
/// it would otherwise block indefinitely (socket reads, queue waits).
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long a write waits for its ticket before failing: reaching it
/// means the committer died or the disk hung past retries.
const ACK_TIMEOUT: Duration = Duration::from_secs(60);

/// Server configuration. Construct with [`ServerConfig::new`], then
/// override fields builder-style.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Directory under which each tenant gets a subdirectory store.
    pub root: PathBuf,
    /// Storage layer tenant engines write through (wrapped per-tenant in
    /// a [`crate::commit::GroupCommitVfs`]). Defaults to [`RealFs`].
    pub vfs: Arc<dyn Vfs>,
    /// Engine parameters for every tenant store.
    pub profile: EngineProfile,
    /// Global resident-byte budget apportioned across tenants' spill
    /// stores. Defaults to `usize::MAX` (everything stays resident).
    pub global_budget: usize,
    /// Worker pool size: how many connections are served (and so how
    /// many writes run) at once. Defaults to the `LOGR_THREADS`
    /// environment variable, else 2; clamped to ≥ 1.
    pub threads: usize,
    /// Group-commit interval: how long delta fsyncs may coalesce before
    /// the covering flush makes their tickets durable.
    pub commit_interval: Duration,
}

impl ServerConfig {
    /// Defaults over `root` (see the field docs).
    pub fn new(root: impl Into<PathBuf>) -> ServerConfig {
        let threads = std::env::var("LOGR_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(2)
            .max(1);
        ServerConfig {
            root: root.into(),
            vfs: Arc::new(RealFs),
            profile: EngineProfile::default(),
            global_budget: usize::MAX,
            threads,
            commit_interval: Duration::from_millis(5),
        }
    }

    /// Overrides the storage layer (in tests, the dev-only `logr-testkit`
    /// crate's `FaultFs`).
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> ServerConfig {
        self.vfs = vfs;
        self
    }

    /// Overrides the per-tenant engine profile.
    pub fn profile(mut self, profile: EngineProfile) -> ServerConfig {
        self.profile = profile;
        self
    }

    /// Overrides the global resident-byte budget.
    pub fn global_budget(mut self, bytes: usize) -> ServerConfig {
        self.global_budget = bytes;
        self
    }

    /// Overrides the worker pool size (clamped to ≥ 1).
    pub fn threads(mut self, threads: usize) -> ServerConfig {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the group-commit interval.
    pub fn commit_interval(mut self, interval: Duration) -> ServerConfig {
        self.commit_interval = interval;
        self
    }
}

/// An accepted socket plus the bytes read off it that do not yet end a
/// line — they travel together when the connection changes workers.
struct Connection {
    stream: TcpStream,
    pending: Vec<u8>,
}

/// A condvar-fronted FIFO drained by the worker pool.
struct JobQueue<T> {
    jobs: Mutex<VecDeque<T>>,
    wake: Condvar,
}

impl<T> JobQueue<T> {
    fn new() -> JobQueue<T> {
        JobQueue { jobs: Mutex::new(VecDeque::new()), wake: Condvar::new() }
    }

    fn push(&self, job: T) {
        if let Ok(mut jobs) = self.jobs.lock() {
            jobs.push_back(job);
            self.wake.notify_one();
        }
    }

    /// True when a job is waiting for a worker.
    fn has_waiting(&self) -> bool {
        self.jobs.lock().map(|jobs| !jobs.is_empty()).unwrap_or(false)
    }

    /// Pops one job, waiting up to [`POLL_INTERVAL`]; `None` on timeout
    /// (so the worker can check the stop flag) or a poisoned lock.
    fn pop(&self) -> Option<T> {
        let mut guard = self.jobs.lock().ok()?;
        if let Some(job) = guard.pop_front() {
            return Some(job);
        }
        let (mut guard, _) = self.wake.wait_timeout(guard, POLL_INTERVAL).ok()?;
        guard.pop_front()
    }
}

struct Shared {
    registry: TenantRegistry,
    connections: JobQueue<Connection>,
    stop: AtomicBool,
    /// Set by [`Server::run`] once every worker has joined — only then
    /// may the committer run its final tick and exit (no write can take
    /// a ticket behind it).
    workers_done: AtomicBool,
    addr: SocketAddr,
    commit_interval: Duration,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        // Wake the accept loop: it blocks in accept(), so connect to it.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A bound, not-yet-running server. [`Server::run`] blocks; spawn it on a
/// thread (or via [`Server::spawn`]) and drive it over TCP.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(config: ServerConfig, addr: impl ToSocketAddrs) -> Result<Server, ServerError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| ServerError::Engine(logr::Error::from(e)))?;
        let addr = listener.local_addr().map_err(|e| ServerError::Engine(logr::Error::from(e)))?;
        Ok(Server { listener, config, addr })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the daemon until a `shutdown` frame arrives, then drains
    /// queues, flushes every tenant, and returns.
    pub fn run(self) -> Result<(), ServerError> {
        let shared = Arc::new(Shared {
            registry: TenantRegistry::new(
                self.config.root.clone(),
                self.config.vfs.clone(),
                self.config.profile.clone(),
                self.config.global_budget,
            ),
            connections: JobQueue::new(),
            stop: AtomicBool::new(false),
            workers_done: AtomicBool::new(false),
            addr: self.addr,
            commit_interval: self.config.commit_interval,
        });

        let mut workers = Vec::new();
        for _ in 0..self.config.threads {
            let shared = shared.clone();
            workers.push(std::thread::spawn(move || worker(&shared)));
        }
        let committer = {
            let shared = shared.clone();
            std::thread::spawn(move || committer_loop(&shared))
        };

        // Accept loop: runs on this thread until request_stop() both sets
        // the flag and self-connects to unblock accept().
        for stream in self.listener.incoming() {
            if shared.stopping() {
                break;
            }
            if let Ok(stream) = stream {
                // The read timeout is what lets a worker notice the stop
                // flag, or a waiting connection, behind a silent socket.
                if stream.set_read_timeout(Some(POLL_INTERVAL)).is_ok() {
                    shared.connections.push(Connection { stream, pending: Vec::new() });
                }
            }
        }

        // Orderly drain: workers finish (their tickets are made durable
        // by the still-running committer), then the committer's final
        // tick flushes every tenant, and its failure is the daemon's.
        for handle in workers {
            let _ = handle.join();
        }
        shared.workers_done.store(true, Ordering::Release);
        committer.join().unwrap_or(Err(ServerError::Engine(logr::Error::Poisoned)))
    }

    /// Runs the daemon on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let thread = std::thread::spawn(move || self.run());
        ServerHandle { addr, thread }
    }
}

/// Handle to a daemon running on a background thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<Result<(), ServerError>>,
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the daemon to stop (equivalent to a `shutdown` frame).
    pub fn shutdown(&self) {
        let mut line = String::from("{\"op\":\"shutdown\"}\n");
        if let Ok(mut stream) = TcpStream::connect(self.addr) {
            let _ = stream.write_all(line.as_bytes());
            line.clear();
            let _ = stream.read_to_string(&mut line);
        }
    }

    /// Waits for the daemon to finish its drain and return.
    pub fn join(self) -> Result<(), ServerError> {
        self.thread.join().unwrap_or(Err(ServerError::Engine(logr::Error::Poisoned)))
    }
}

fn worker(shared: &Shared) {
    loop {
        match shared.connections.pop() {
            Some(conn) => serve_connection(shared, conn),
            None if shared.stopping() => return,
            None => {}
        }
    }
}

/// Reads newline-delimited frames off one socket, answering each in
/// order, until EOF, shutdown, an unrecoverable frame — or until the
/// socket has been silent for a poll interval while another connection
/// waits for a worker, in which case this one requeues behind it.
fn serve_connection(shared: &Shared, mut conn: Connection) {
    let mut chunk = [0u8; 4096];
    loop {
        // Serve every complete line already buffered.
        while let Some(nl) = conn.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = conn.pending.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line[..nl]);
            let frame = parse_frame(line.trim_end_matches('\r'));
            let shutdown = matches!(frame.request, Ok(Request::Shutdown));
            let reply = answer(shared, frame);
            if conn.stream.write_all(reply.as_bytes()).is_err() {
                return;
            }
            if shutdown {
                shared.request_stop();
                return;
            }
        }
        if conn.pending.len() > MAX_FRAME_BYTES {
            let err =
                protocol(format!("unterminated frame exceeds the {MAX_FRAME_BYTES}-byte cap"));
            let _ = conn.stream.write_all(err_frame(&Json::Null, &err).as_bytes());
            return;
        }
        if shared.stopping() {
            return;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(read) => conn.pending.extend_from_slice(&chunk[..read]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // A worker owns one socket at a time, so without this an
                // idle client per worker would starve every later
                // connection (the shutdown frame's included). With no one
                // waiting the worker just keeps polling this socket.
                if shared.connections.has_waiting() {
                    shared.connections.push(conn);
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Answers one frame; every failure becomes a typed error frame, never a
/// dead connection or daemon.
fn answer(shared: &Shared, frame: Frame) -> String {
    let id = frame.id;
    let request = match frame.request {
        Ok(request) => request,
        Err(e) => return err_frame(&id, &e),
    };
    match handle(shared, request) {
        Ok(result) => ok_frame(&id, result),
        Err(e) => err_frame(&id, &e),
    }
}

fn handle(shared: &Shared, request: Request) -> Result<Json, ServerError> {
    match request {
        Request::Ping => Ok(s("pong")),
        Request::Shutdown => Ok(obj(vec![("stopping", Json::Bool(true))])),
        Request::GlobalStats => global_stats(shared),
        Request::Tenant { name, source, op } => {
            let open = || shared.registry.get_or_open(&name, source);
            match op {
                // Close must not lazily open a store just to close it.
                TenantOp::Close => {
                    shared.registry.close(&name)?;
                    Ok(obj(vec![("closed", Json::Bool(true))]))
                }
                TenantOp::Write(op) => write(open()?.as_ref(), op),
                TenantOp::Read(op) => read(open()?.as_ref(), op),
                TenantOp::Stats => {
                    let tenant = open()?;
                    tenant_stats(&tenant, shared.registry.share()?)
                }
            }
        }
    }
}

/// Runs one write on the calling worker under the tenant's gate; when it
/// took a ticket, its ack waits for the committer's covering fsync.
fn write(tenant: &Tenant, op: WriteOp) -> Result<Json, ServerError> {
    let rebase = || Ok(tenant.engine.checkpoint()?);
    let (result, ticket) = tenant.commit.run_gated(rebase, || run_write(tenant, op))?;
    if let Some(ticket) = ticket {
        tenant.commit.wait(ticket, ACK_TIMEOUT).map_err(logr::Error::from)?;
    }
    Ok(result)
}

/// Serves a read off the tenant's published snapshot — no engine lock is
/// held while computing, so reads never block ingestion.
fn read(tenant: &Tenant, op: ReadOp) -> Result<Json, ServerError> {
    let snapshot = tenant.engine.snapshot()?;
    let query = WorkloadQuery::over(&*snapshot)?;
    // Analytics over an engine that has summarized nothing yet answer
    // `null` rather than failing — an empty tenant is not an error.
    let Some(query) = query else {
        return match op {
            ReadOp::Advise { .. } => Ok(Json::Arr(Vec::new())),
            _ => Ok(Json::Null),
        };
    };
    match op {
        ReadOp::Frequency { pred } => Ok(n(query.frequency(&pred)?)),
        ReadOp::Share { pred } => Ok(n(query.share(&pred)?)),
        ReadOp::Conditional { given, pred } => Ok(n(query.conditional(&given, &pred)?)),
        ReadOp::Cooccurrence { class } => Ok(Json::Arr(
            query
                .cooccurrence(class)?
                .into_iter()
                .map(|c| {
                    obj(vec![
                        ("a", feature_json(&c.a)),
                        ("b", feature_json(&c.b)),
                        ("estimated", n(c.estimated)),
                    ])
                })
                .collect(),
        )),
        ReadOp::TopK { class, k } => Ok(Json::Arr(
            query
                .top_k(class, k)?
                .into_iter()
                .map(|r| {
                    obj(vec![
                        ("feature", feature_json(&r.feature)),
                        ("class", s(class_name(r.feature.class))),
                        ("estimated", n(r.estimated)),
                    ])
                })
                .collect(),
        )),
        ReadOp::Advise { spec } => {
            let advice = match spec {
                AdvisorSpec::Index { min_share } => {
                    IndexAdvisor::new(min_share).advise(&*snapshot)?
                }
                AdvisorSpec::View { min_share } => {
                    ViewAdvisor::new(min_share).advise(&*snapshot)?
                }
                AdvisorSpec::Recommend { partial, min_conditional } => {
                    QueryRecommender::new(partial, min_conditional).advise(&*snapshot)?
                }
                AdvisorSpec::Drift { tolerance } => {
                    DriftAdvisor::new(tolerance).advise(&*snapshot)?
                }
            };
            Ok(advice_json(&advice))
        }
        ReadOp::Drift { tolerance } => match snapshot.drift() {
            None => Ok(Json::Null),
            Some(report) => Ok(drift_json(report, tolerance, Some(snapshot.baseline().codebook()))),
        },
    }
}

fn run_write(tenant: &Tenant, op: WriteOp) -> Result<Json, ServerError> {
    match op {
        WriteOp::Ingest { statements } => {
            let count = statements.len();
            let mut closed = 0u64;
            // The source-agnostic entry point: the tenant's configured
            // featurizer decides whether a record is SQL or a log line.
            for record in &statements {
                if tenant.engine.ingest_record(record)?.is_some() {
                    closed += 1;
                }
            }
            Ok(obj(vec![
                ("ingested", n(count as f64)),
                ("closed", n(closed as f64)),
                ("windows_closed", n(tenant.engine.windows_closed()? as f64)),
            ]))
        }
        WriteOp::Flush => {
            let closed = tenant.engine.flush()?.is_some();
            Ok(obj(vec![("closed", Json::Bool(closed))]))
        }
        WriteOp::Checkpoint => {
            tenant.engine.checkpoint()?;
            Ok(obj(vec![("durable", Json::Bool(true))]))
        }
    }
}

/// Flushes every live tenant once per commit interval — an fsync only
/// where one is owed. The tick after the workers joined is the last
/// (nothing can take a ticket behind it), and its failure is returned.
fn committer_loop(shared: &Shared) -> Result<(), ServerError> {
    loop {
        let last = shared.workers_done.load(Ordering::Acquire);
        let mut tick = Ok(());
        for tenant in shared.registry.list()? {
            // Mid-run, a failure is reported by the tickets it fails.
            tick = tick.and(tenant.commit.flush().map_err(|e| ServerError::Engine(e.into())));
        }
        if last {
            return tick;
        }
        std::thread::sleep(shared.commit_interval);
    }
}

fn global_stats(shared: &Shared) -> Result<Json, ServerError> {
    let tenants = shared.registry.list()?;
    let share = shared.registry.share_at(tenants.len());
    let mut per_tenant = Vec::new();
    for tenant in &tenants {
        per_tenant.push((tenant.name.clone(), tenant_stats(tenant, share)?));
    }
    Ok(obj(vec![
        ("tenants", Json::Num(tenants.len() as f64)),
        ("global_budget", budget_json(shared.registry.global_budget())),
        ("per_tenant_budget", budget_json(share)),
        ("per_tenant", Json::Obj(per_tenant)),
    ]))
}

fn budget_json(bytes: usize) -> Json {
    // usize::MAX means "unbounded"; render as null instead of a lossy f64.
    if bytes == usize::MAX {
        Json::Null
    } else {
        n(bytes as f64)
    }
}

fn tenant_stats(tenant: &Tenant, budget: usize) -> Result<Json, ServerError> {
    Ok(obj(vec![
        ("windows_closed", n(tenant.engine.windows_closed()? as f64)),
        ("total_queries", n(tenant.engine.total_queries()? as f64)),
        ("spilled_shards", n(tenant.engine.spilled_shards()? as f64)),
        ("resident_shard_bytes", n(tenant.engine.resident_shard_bytes()? as f64)),
        ("budget", budget_json(budget)),
        ("needs_rebase", Json::Bool(tenant.commit.needs_rebase())),
    ]))
}
