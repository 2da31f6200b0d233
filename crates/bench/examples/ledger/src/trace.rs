//! Spans recorded from outside the program: one around each public call
//! the ledger makes, and one per file operation through [`TimingVfs`], a
//! decorator over the public `Vfs` trait. Held in memory, written as
//! JSON lines when the run ends.

use logr::cluster::vfs::Vfs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for roots (and for file
    /// operations made on a daemon thread, whose cause is not visible
    /// from outside).
    pub parent: u64,
    pub name: &'static str,
    pub layer: &'static str,
    /// File class for vfs spans (`delta`, `base`, `shard`, `lock`,
    /// `other`); empty otherwise.
    pub detail: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span covers (non-closing ingest calls are recorded as
    /// one span with their count, not one span each).
    pub count: u64,
    pub bytes: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    /// The open span file operations on the caller's thread belong to.
    current: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(0),
        })
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Nanoseconds since the tracer was made: spans that start later are
    /// on the far side of this mark.
    pub fn mark(&self) -> u64 {
        self.ns(Instant::now())
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("no thread panics holding the span list").push(span);
    }

    /// Open a parent span: file operations until [`Tracer::exit`] become
    /// its children.
    pub fn enter(&self) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.current.store(id, Ordering::SeqCst);
        id
    }

    pub fn exit(
        &self,
        id: u64,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.current.store(0, Ordering::SeqCst);
        self.push(Span {
            id,
            parent: 0,
            name,
            layer,
            detail: "",
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            count: 1,
            bytes: 0,
        });
    }

    /// A childless span under the currently open one.
    pub fn leaf(
        &self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        count: u64,
    ) {
        self.leaf_io(name, layer, "", start, end, count, 0);
    }

    #[allow(clippy::too_many_arguments)]
    fn leaf_io(
        &self,
        name: &'static str,
        layer: &'static str,
        detail: &'static str,
        start: Instant,
        end: Instant,
        count: u64,
        bytes: u64,
    ) {
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.current.load(Ordering::SeqCst),
            name,
            layer,
            detail,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            count,
            bytes,
        });
    }

    /// Time `f` as a leaf span and hand back its result.
    pub fn time<T>(&self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.leaf(name, layer, start, Instant::now(), 1);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no thread panics holding the span list").clone()
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"detail\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"count\":{},\"bytes\":{}}}",
                s.id, s.parent, s.name, s.layer, s.detail, s.start_ns, s.end_ns, s.count, s.bytes
            )?;
        }
        out.flush()
    }
}

/// Sums over a span list.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub spans: u64,
    pub calls: u64,
    pub ns: u64,
    pub bytes: u64,
}

impl Totals {
    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }

    pub fn us(&self) -> f64 {
        self.ns as f64 / 1e3
    }
}

pub fn totals<'a>(spans: impl IntoIterator<Item = &'a Span>) -> Totals {
    spans.into_iter().fold(Totals::default(), |mut t, s| {
        t.spans += 1;
        t.calls += s.count;
        t.ns += s.ns();
        t.bytes += s.bytes;
        t
    })
}

fn file_class(path: &Path) -> &'static str {
    match path.file_name().and_then(|n| n.to_str()).unwrap_or("") {
        "engine.delta" => "delta",
        "engine.manifest" | "engine.tmp" => "base",
        "engine.lock" => "lock",
        name if name.starts_with("shard-") => "shard",
        _ => "other",
    }
}

/// Passes every operation to `inner` and records it as a `vfs.*` span.
#[derive(Debug)]
pub struct TimingVfs {
    inner: Arc<dyn Vfs>,
    tracer: Arc<Tracer>,
}

impl TimingVfs {
    pub fn new(inner: Arc<dyn Vfs>, tracer: Arc<Tracer>) -> Arc<TimingVfs> {
        Arc::new(TimingVfs { inner, tracer })
    }

    fn span<T>(
        &self,
        name: &'static str,
        path: &Path,
        bytes_of: impl FnOnce(&io::Result<T>) -> u64,
        op: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        let start = Instant::now();
        let out = op();
        let end = Instant::now();
        self.tracer.leaf_io(name, "vfs", file_class(path), start, end, 1, bytes_of(&out));
        out
    }
}

impl Vfs for TimingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.span(
            "vfs.read",
            path,
            |r: &io::Result<Vec<u8>>| r.as_ref().map_or(0, |b| b.len() as u64),
            || self.inner.read(path),
        )
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.span("vfs.write", path, |_| bytes.len() as u64, || self.inner.write(path, bytes))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.span("vfs.append", path, |_| bytes.len() as u64, || self.inner.append(path, bytes))
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.span("vfs.fsync", path, |_| 0, || self.inner.fsync(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.span("vfs.rename", to, |_| 0, || self.inner.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.span("vfs.remove", path, |_| 0, || self.inner.remove(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.span("vfs.list", dir, |_| 0, || self.inner.list(dir))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.span("vfs.create_dir_all", dir, |_| 0, || self.inner.create_dir_all(dir))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.span("vfs.sync_dir", dir, |_| 0, || self.inner.sync_dir(dir))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.span(
            "vfs.create_exclusive",
            path,
            |_| bytes.len() as u64,
            || self.inner.create_exclusive(path, bytes),
        )
    }
}
