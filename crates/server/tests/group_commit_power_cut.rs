//! Group commit under power cuts, with no sockets: two tenants' engines
//! write through their own [`GroupCommitVfs`] onto one [`FaultFs`], and
//! the script below drives them the way the daemon does — each close
//! through the same gated write, each flush as the committer's —
//! closes of both tenants interleaved, some coalesced under one flush,
//! one flush failing and the next write rebasing.
//!
//! An **ack** is recorded at the trace index where a close became
//! durable: where its engine call returned when it took no ticket, else
//! where the flush (or rebase) that made its ticket durable returned.
//! For every prefix of the IO trace, under each [`LastOpVariant`], each
//! tenant's crash state opened read-only must hold at least every close
//! acked by that prefix and at most every close begun by it; a state
//! without a manifest is allowed only before the tenant's first ack.

use logr::cluster::vfs::Vfs;
use logr::{Engine, Error};
use logr_server::GroupCommitVfs;
use logr_testkit::vfs::{durable_state, FaultFs, IoOp, LastOpVariant, OpKind};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const WINDOW: u64 = 4;

fn statement(tag: &str, i: u64) -> String {
    format!("SELECT c{} FROM {tag}_t{} WHERE a{} = ?", i % 13, i % 3, i % 7)
}

/// One tenant as the daemon holds it, plus what the script saw of it.
struct Tenant {
    name: &'static str,
    dir: PathBuf,
    engine: Engine,
    commit: Arc<GroupCommitVfs>,
    /// `(ticket, windows closed)` of closes whose ticket is not durable.
    waiting: Vec<(u64, usize)>,
    /// `(trace index, windows closed)` at every ack.
    acks: Vec<(usize, usize)>,
    /// Trace index at which each close began.
    closes: Vec<usize>,
}

struct Run {
    fs: Arc<FaultFs>,
    tenants: Vec<Tenant>,
}

impl Run {
    fn open(names: [&'static str; 2]) -> Run {
        let fs = Arc::new(FaultFs::new());
        let tenants = names
            .into_iter()
            .map(|name| {
                let dir = Path::new("/gc").join(name);
                let commit = Arc::new(GroupCommitVfs::new(fs.clone() as Arc<dyn Vfs>, &dir));
                let engine = Engine::builder()
                    .window(WINDOW)
                    .clusters(2)
                    .seed(7)
                    .resident_budget(0)
                    .vfs(commit.clone() as Arc<dyn Vfs>)
                    .open(&dir)
                    .expect("open");
                // The open wrote its initial base synchronously.
                let acks = vec![(fs.trace_len(), 0)];
                Tenant { name, dir, engine, commit, waiting: Vec::new(), acks, closes: Vec::new() }
            })
            .collect();
        Run { fs, tenants }
    }

    /// One window close through the daemon's write path, the same gated
    /// run: a rebase after a failed flush acks every close so far; a
    /// close that took a ticket waits for it, one that took none is acked
    /// at once.
    fn close(&mut self, t: usize) {
        let fs = self.fs.clone();
        let at = || fs.trace_len();
        let Tenant { name, engine, commit, waiting, acks, closes, .. } = &mut self.tenants[t];
        let rebase = || {
            engine.checkpoint()?;
            waiting.clear();
            acks.push((at(), engine.windows_closed()?));
            Ok(())
        };
        let write = || {
            closes.push(at());
            let first = closes.len() as u64 - 1;
            for i in 0..WINDOW {
                engine.ingest_record(&statement(name, first * WINDOW + i))?;
            }
            engine.windows_closed()
        };
        let (windows, ticket) = commit.run_gated(rebase, write).expect("write");
        assert_eq!(windows, closes.len(), "every ingest batch closes one window");
        match ticket {
            Some(ticket) => waiting.push((ticket, windows)),
            None => acks.push((at(), windows)),
        }
    }

    /// One committer visit: flush, then ack every ticket it made durable;
    /// a failed flush fails every waiting ticket.
    fn flush(&mut self, t: usize) -> io::Result<()> {
        let tenant = &mut self.tenants[t];
        let flushed = tenant.commit.flush();
        let at = self.fs.trace_len();
        let commit = tenant.commit.clone();
        let mut acked = None;
        tenant.waiting.retain(|&(ticket, windows)| match commit.wait(ticket, Duration::ZERO) {
            Ok(()) => {
                acked = acked.max(Some(windows));
                false
            }
            Err(e) => e.kind() == io::ErrorKind::TimedOut,
        });
        tenant.acks.extend(acked.map(|windows| (at, windows)));
        flushed
    }
}

fn delta_fsyncs(trace: &[IoOp], tenant: &str) -> usize {
    let log = format!("{tenant}/engine.delta");
    trace.iter().filter(|op| matches!(op, IoOp::Fsync { path } if path.ends_with(&log))).count()
}

#[test]
fn every_acked_close_survives_every_power_cut_and_none_is_invented() {
    let (a, b) = (0, 1);
    let mut run = Run::open(["a", "b"]);

    // Interleaved closes, each flushed on its own.
    run.close(a);
    run.close(b);
    run.flush(b).expect("flush b");
    run.flush(a).expect("flush a");
    // Coalesced: two closes of `a`, one covering fsync.
    let before = delta_fsyncs(&run.fs.trace(), "a");
    run.close(a);
    run.close(b);
    run.close(a);
    run.flush(a).expect("flush a");
    run.flush(b).expect("flush b");
    assert_eq!(delta_fsyncs(&run.fs.trace(), "a"), before + 1, "two closes, one fsync");
    // A failed flush fails both of `a`'s waiting tickets; `b` is untouched.
    run.fs.inject(OpKind::Fsync, "a/engine.delta", io::ErrorKind::Other, 1);
    run.close(a);
    run.close(b);
    run.close(a);
    assert!(run.flush(a).is_err(), "the injected fsync failure reaches the flush");
    assert!(run.flush(a).is_err(), "and sticks until a rebase");
    assert!(run.tenants[a].waiting.is_empty(), "no failed ticket is left waiting");
    run.flush(b).expect("flush b");
    // The next write rebases `a` before it closes; both continue.
    run.close(a);
    run.close(b);
    run.flush(a).expect("flush a after the rebase");
    run.flush(b).expect("flush b");
    run.close(b);
    run.flush(b).expect("flush b");

    let trace = run.fs.trace();
    for tenant in &run.tenants {
        assert!(tenant.waiting.is_empty(), "{}: every ticket resolved", tenant.name);
    }
    let mut checked = 0;
    for k in 0..=trace.len() {
        for variant in [LastOpVariant::Lost, LastOpVariant::Applied, LastOpVariant::Torn] {
            let (files, dirs) = durable_state(&trace[..k], variant);
            let fs = Arc::new(FaultFs::from_files(files, dirs));
            for tenant in &run.tenants {
                let acked = tenant.acks.iter().filter(|(at, _)| *at <= k).map(|(_, w)| *w).max();
                let begun = tenant.closes.iter().filter(|&&at| at < k).count();
                let opened = Engine::builder().vfs(fs.clone()).read_only().open(&tenant.dir);
                let recovered = match opened {
                    Ok(engine) => engine.windows_closed().expect("windows"),
                    Err(Error::MissingManifest { .. }) => {
                        assert_eq!(acked, None, "{} prefix {k} {variant:?}: lost", tenant.name);
                        continue;
                    }
                    Err(e) => panic!("{} prefix {k} {variant:?}: {e}", tenant.name),
                };
                let name = tenant.name;
                assert!(
                    recovered >= acked.unwrap_or(0),
                    "{name} prefix {k} {variant:?}: {recovered} windows, {acked:?} acked"
                );
                assert!(
                    recovered <= begun,
                    "{name} prefix {k} {variant:?}: {recovered} windows, {begun} begun"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 6 * trace.len() / 2, "most crash states hold both manifests");
}
