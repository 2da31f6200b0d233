//! A real temp directory per test, for suites that run the store on
//! `RealFs`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique temp directory for one test, removed on drop. The name carries
/// the pid and a process-global sequence number so parallel test binaries
/// and property-test reruns never collide under a shared `TMPDIR`.
pub struct TempStore(PathBuf);

impl TempStore {
    /// Create `$TMPDIR/logr-<tag>-<pid>-<seq>`.
    ///
    /// # Panics
    /// Panics if the directory cannot be created.
    pub fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "logr-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp store dir");
        TempStore(dir)
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
