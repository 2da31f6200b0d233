//! `server_mixed`: an in-process `logr-server` on loopback, two tenants
//! with one connection each in a closed loop, writes beside reads.

use crate::embedded::{dir_bytes, Counts, Ops, StoreDir};
use crate::gen::{self, Rng};
use crate::stats::{ms, us};
use crate::trace::{TimingVfs, Tracer};
use crate::Res;
use logr::cluster::vfs::RealFs;
use logr::{Engine, EngineSnapshot, SourceConfig};
use logr_server::json::{self, Json};
use logr_server::{EngineProfile, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAME: &str = "server_mixed";
pub const TENANTS: usize = 2;
pub const WINDOW: u64 = 64;
pub const CLUSTERS: usize = 2;
/// Statements per ingest frame: every fourth ingest closes a window.
pub const BATCH: usize = 16;
const WORKERS: usize = 2;
const COMMIT_INTERVAL: Duration = Duration::from_millis(2);

/// Frame kinds of one ten-frame block: 60 % ingest, 40 % reads rotating
/// frequency / top-k / index advice / stats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Ingest,
    Frequency,
    TopK,
    Advise,
    Stats,
}

const BLOCK: [Kind; 10] = [
    Kind::Ingest,
    Kind::Ingest,
    Kind::Frequency,
    Kind::Ingest,
    Kind::Ingest,
    Kind::TopK,
    Kind::Ingest,
    Kind::Ingest,
    Kind::Advise,
    Kind::Stats,
];

#[derive(Debug, Clone, Copy)]
pub struct ServerSpec {
    /// Untimed ten-frame blocks per connection before timing starts.
    pub warmup_blocks: usize,
    /// Timed ten-frame blocks per connection; fixes the frame count.
    pub blocks: usize,
}

pub const SPEC: ServerSpec = ServerSpec { warmup_blocks: 2, blocks: 120 };

impl ServerSpec {
    pub fn scaled(self, pct: u64) -> ServerSpec {
        ServerSpec { warmup_blocks: 2, blocks: (self.blocks * pct as usize / 100).max(8) }
    }

    fn ingest_frames(&self) -> usize {
        (self.warmup_blocks + self.blocks) * BLOCK.iter().filter(|k| **k == Kind::Ingest).count()
    }
}

pub fn tenant_name(t: usize) -> String {
    format!("t{t}")
}

pub struct ScriptFrame {
    pub kind: Kind,
    pub line: String,
}

/// One tenant's statements and the frame script that carries them.
pub struct Script {
    pub statements: Vec<String>,
    pub frames: Vec<ScriptFrame>,
}

pub fn script(spec: &ServerSpec, seed: u64, t: usize) -> Script {
    let tenant = tenant_name(t);
    let mut rng = Rng::new(gen::workload_seed(seed, NAME) ^ (t as u64 + 1));
    let statements = gen::tenant_statements(&mut rng, &tenant, spec.ingest_frames() * BATCH);
    let mut batches = statements.chunks(BATCH);
    let frames = (0..spec.warmup_blocks + spec.blocks)
        .flat_map(|_| BLOCK)
        .map(|kind| {
            let body = match kind {
                Kind::Ingest => {
                    let batch = batches.next().expect("a batch per ingest frame");
                    let quoted: Vec<String> = batch.iter().map(|s| format!("\"{s}\"")).collect();
                    format!("\"op\":\"ingest\",\"statements\":[{}]", quoted.join(","))
                }
                Kind::Frequency => {
                    format!("\"op\":\"frequency\",\"pred\":{{\"table\":\"{tenant}_t0\"}}")
                }
                Kind::TopK => "\"op\":\"top_k\",\"class\":\"from\",\"k\":5".to_string(),
                Kind::Advise => {
                    "\"op\":\"advise\",\"advisor\":\"index\",\"min_share\":0.01".to_string()
                }
                Kind::Stats => "\"op\":\"stats\"".to_string(),
            };
            ScriptFrame { kind, line: format!("{{\"tenant\":\"{tenant}\",{body}}}") }
        })
        .collect();
    Script { statements, frames }
}

pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader, reply: String::new() })
    }

    /// One round trip; the reply line (unparsed) and how long it took.
    pub fn call(&mut self, line: &str) -> std::io::Result<(&str, Duration)> {
        self.reply.clear();
        let start = Instant::now();
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.reader.read_line(&mut self.reply)?;
        Ok((self.reply.trim_end(), start.elapsed()))
    }
}

/// What one connection measured over its timed frames.
#[derive(Default)]
pub struct ConnResult {
    /// Summed round trips of every frame, warm-up included.
    pub total: Duration,
    pub ingest: Duration,
    pub statements: u64,
    pub close_ms: Vec<f64>,
    pub buffer_us: Vec<f64>,
    pub cold_ms: Vec<f64>,
    pub warm_us: Vec<f64>,
    pub ops: Ops,
    /// When the connection finished its warm-up frames.
    pub warm_done: Option<Instant>,
    /// Timed requests with their replies, kept for the codec replay.
    pub recorded: Vec<(String, String)>,
}

fn drive(
    addr: SocketAddr,
    script: &Script,
    warmup_frames: usize,
    record: bool,
) -> std::io::Result<ConnResult> {
    let mut client = Client::connect(addr)?;
    let mut out = ConnResult::default();
    let mut ingests = 0u64;
    // A close publishes a snapshot nobody has summarised yet: the next
    // read that needs the summary pays for it.
    let mut cold = false;
    for (i, frame) in script.frames.iter().enumerate() {
        let timed = i >= warmup_frames;
        if i == warmup_frames {
            out.warm_done = Some(Instant::now());
        }
        let (reply, took) = client.call(&frame.line)?;
        out.total += took;
        let parsed = json::parse(reply).ok();
        let ok = parsed.as_ref().and_then(|r| r.get("ok")).and_then(Json::as_bool) == Some(true);
        if timed {
            out.ops.call(1);
            out.ops.check("server reply ok:true", ok);
            if record {
                out.recorded.push((frame.line.clone(), reply.to_string()));
            }
        }
        match frame.kind {
            Kind::Ingest => {
                ingests += 1;
                let closes = ingests.is_multiple_of(WINDOW / BATCH as u64);
                let expected = ingests * BATCH as u64 / WINDOW;
                let reported = parsed
                    .as_ref()
                    .and_then(|r| r.get("result"))
                    .and_then(|r| r.get("windows_closed"))
                    .and_then(Json::as_u64);
                cold |= closes;
                if timed {
                    out.ops.check("reply windows_closed matches", reported == Some(expected));
                    out.ingest += took;
                    out.statements += BATCH as u64;
                    if closes {
                        out.close_ms.push(ms(took));
                    } else {
                        out.buffer_us.push(us(took));
                    }
                }
            }
            Kind::Stats => {
                if timed {
                    out.warm_us.push(us(took));
                }
            }
            Kind::Frequency | Kind::TopK | Kind::Advise => {
                if timed && cold {
                    out.cold_ms.push(ms(took));
                } else if timed {
                    out.warm_us.push(us(took));
                }
                cold = false;
            }
        }
    }
    Ok(out)
}

pub struct ServerRound {
    pub setup: Duration,
    pub conns: Vec<ConnResult>,
    pub scripts: Vec<Script>,
    pub store_bytes: u64,
    pub ops: Ops,
    pub counts: Counts,
    /// Each tenant's final state, read back from its store.
    pub snapshots: Vec<Arc<EngineSnapshot>>,
    pub ping_us: Vec<f64>,
}

impl ServerRound {
    /// One kind of sample from every connection, pooled.
    pub fn pooled(&self, samples: fn(&ConnResult) -> &Vec<f64>) -> Vec<f64> {
        self.conns.iter().flat_map(|c| samples(c).iter().copied()).collect()
    }
}

pub fn profile() -> EngineProfile {
    EngineProfile { window: WINDOW, clusters: CLUSTERS, seed: 7, source: SourceConfig::Sql }
}

pub fn round(spec: &ServerSpec, seed: u64, tracer: Option<&Arc<Tracer>>) -> Res<ServerRound> {
    let setup_start = Instant::now();
    let scripts: Vec<Script> = (0..TENANTS).map(|t| script(spec, seed, t)).collect();
    let store = StoreDir::fresh(NAME);
    let mut config = ServerConfig::new(&store.0)
        .profile(profile())
        .threads(WORKERS)
        .commit_interval(COMMIT_INTERVAL);
    if let Some(t) = tracer {
        config = config.vfs(TimingVfs::new(Arc::new(RealFs), t.clone()));
    }
    let handle = Server::bind(config, "127.0.0.1:0")?.spawn();
    let addr = handle.addr();
    let warmup_frames = spec.warmup_blocks * BLOCK.len();

    let results: Vec<std::io::Result<ConnResult>> = std::thread::scope(|scope| {
        let workers: Vec<_> = scripts
            .iter()
            .map(|s| scope.spawn(move || drive(addr, s, warmup_frames, tracer.is_some())))
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread does not panic")).collect()
    });

    let mut ping_us = Vec::new();
    if tracer.is_some() {
        let mut client = Client::connect(addr)?;
        for _ in 0..256 {
            ping_us.push(us(client.call("{\"op\":\"ping\"}")?.1));
        }
    }
    handle.shutdown();
    let joined = handle.join();

    let mut ops = Ops::default();
    ops.check("daemon shut down cleanly", joined.is_ok());
    let mut conns = Vec::new();
    // The warm-up frames run on the timed connections, so set-up ends
    // when the slower connection has finished them.
    let mut setup = Duration::ZERO;
    for r in results {
        let conn = r?;
        ops.add(conn.ops);
        setup = setup.max(conn.warm_done.map_or(Duration::ZERO, |at| at - setup_start));
        conns.push(conn);
    }
    let store_bytes = dir_bytes(&store.0);
    let mut snapshots = Vec::new();
    let mut counts = Counts::default();
    for (t, script) in scripts.iter().enumerate() {
        let engine = Engine::builder().read_only().open(store.0.join(tenant_name(t)))?;
        let snapshot = engine.snapshot()?;
        snapshot.summary()?;
        let sent = script.statements.len() as u64;
        ops.check("total_queries = statements sent", snapshot.total_queries() == sent);
        ops.check(
            "windows_closed = scheduled closes",
            snapshot.windows_closed() as u64 == sent / WINDOW,
        );
        counts.records += sent;
        counts.closes += snapshot.windows_closed() as u64;
        counts.distinct += snapshot.history().distinct_count() as u64;
        counts.universe += snapshot.history().num_features() as u64;
        counts.stream_hash = gen::stream_hash(counts.stream_hash, &script.statements);
        snapshots.push(snapshot);
    }
    Ok(ServerRound { setup, conns, scripts, store_bytes, ops, counts, snapshots, ping_us })
}
