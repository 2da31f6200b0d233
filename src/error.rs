//! The one error type of the `logr` façade.
//!
//! Every public [`crate::Engine`] entry point returns `Result<_, Error>`:
//! callers match one `#[non_exhaustive]` enum instead of juggling the
//! per-crate error types underneath (`SpillError` from the shard store,
//! `PortableError` from summary serialization, raw `std::io::Error` from
//! the filesystem) — those convert in via `From`, and the originals stay
//! reachable through [`std::error::Error::source`] for callers that need
//! the underlying detail.

use logr_cluster::SpillError;
use logr_core::PortableError;
use std::fmt;
use std::path::PathBuf;

/// Why an engine operation failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Underlying filesystem failure outside the shard store.
    Io(std::io::Error),
    /// The shard spill store failed (reload, append, eviction, or a
    /// recovered file that is truncated/corrupt — the [`SpillError`]
    /// variant says which).
    Spill(SpillError),
    /// Portable-summary serialization failed.
    Portable(PortableError),
    /// The engine configuration is invalid (zero-sized window, slide
    /// wider than the window, `k == 0`, an advisor threshold outside
    /// `[0, 1]`, …).
    Config {
        /// What is wrong with it.
        detail: &'static str,
    },
    /// A typed workload predicate references a feature the workload's
    /// codebook has never seen — the summary can say nothing about it
    /// (the [`crate::analytics`] replacement for the legacy estimators'
    /// silent zero).
    UnknownFeature {
        /// The unresolved feature.
        feature: logr_feature::Feature,
    },
    /// [`crate::EngineBuilder::resume`] found no manifest: the directory
    /// is empty (or was never an engine store).
    MissingManifest {
        /// The store directory inspected.
        dir: PathBuf,
    },
    /// The store manifest (or delta log) is stamped with a format version
    /// other than the one this build reads — older or newer, refused
    /// before any byte of it is interpreted.
    ManifestVersion {
        /// Version found in the file.
        found: u32,
        /// The one version this build reads.
        supported: u32,
    },
    /// The store manifest fails validation (bad magic, checksum mismatch,
    /// or a structurally impossible payload).
    CorruptManifest {
        /// What failed.
        detail: String,
    },
    /// The manifest references a shard file that no longer exists.
    MissingShard {
        /// The missing file.
        path: PathBuf,
    },
    /// Manifest and shard files disagree (point counts or feature
    /// universes that cannot belong to one checkpoint).
    StoreMismatch {
        /// The inconsistency found.
        detail: String,
    },
    /// The store directory is already owned by a live engine (this
    /// process or another): opening it twice would let one engine
    /// garbage-collect shard files the other still reads.
    StoreLocked {
        /// The contested store directory.
        dir: PathBuf,
        /// Process id recorded in the lock.
        pid: u32,
    },
    /// The storage device is out of space (`ENOSPC`). Split from
    /// [`Error::Io`] because it is the one I/O failure an operator fixes
    /// without touching the store: free disk and retry — the engine
    /// leaves the store openable at its previous durable checkpoint.
    StorageExhausted {
        /// The operation that hit the full disk.
        detail: String,
    },
    /// A write operation (ingest, flush, checkpoint) was asked
    /// of an engine opened with [`crate::EngineBuilder::read_only`].
    ReadOnly,
    /// A durable-only operation (checkpoint) was asked of an in-memory
    /// engine.
    NotDurable,
    /// A thread panicked while holding an engine lock; the in-memory
    /// state may be torn. Durable engines recover by reopening from the
    /// last checkpoint.
    Poisoned,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "engine I/O error: {e}"),
            Error::Spill(e) => write!(f, "shard store error: {e}"),
            Error::Portable(e) => write!(f, "portable summary error: {e}"),
            Error::Config { detail } => write!(f, "invalid engine configuration: {detail}"),
            Error::UnknownFeature { feature } => {
                write!(f, "predicate references a feature unknown to this workload: {feature}")
            }
            Error::MissingManifest { dir } => {
                write!(f, "no engine manifest in {} (nothing to resume)", dir.display())
            }
            Error::ManifestVersion { found, supported } => {
                write!(f, "engine manifest version {found}, this build reads {supported}")
            }
            Error::CorruptManifest { detail } => write!(f, "corrupt engine manifest: {detail}"),
            Error::MissingShard { path } => {
                write!(f, "manifest references a missing shard file: {}", path.display())
            }
            Error::StoreMismatch { detail } => {
                write!(f, "inconsistent engine store: {detail}")
            }
            Error::StoreLocked { dir, pid } => {
                write!(f, "engine store {} is locked by live process {pid}", dir.display())
            }
            Error::StorageExhausted { detail } => {
                write!(f, "storage exhausted (disk full): {detail}")
            }
            Error::ReadOnly => {
                write!(f, "engine was opened read-only; writes are not available")
            }
            Error::NotDurable => {
                write!(f, "operation requires a durable engine (opened on a directory)")
            }
            Error::Poisoned => write!(f, "engine lock poisoned by a panicking thread"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Spill(e) => Some(e),
            Error::Portable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::StorageFull {
            return Error::StorageExhausted { detail: e.to_string() };
        }
        Error::Io(e)
    }
}

impl From<SpillError> for Error {
    fn from(e: SpillError) -> Self {
        match e {
            // ENOSPC inside the shard store is the same operator
            // condition as ENOSPC anywhere else — surface it uniformly.
            SpillError::Io(io) if io.kind() == std::io::ErrorKind::StorageFull => {
                Error::StorageExhausted { detail: format!("shard store: {io}") }
            }
            // Shard files that decode but belong to a different chain
            // position (swapped payloads, foreign restores) are a store
            // inconsistency, not file corruption.
            SpillError::ChainMismatch { detail } => {
                Error::StoreMismatch { detail: detail.to_string() }
            }
            other => Error::Spill(other),
        }
    }
}

impl From<PortableError> for Error {
    fn from(e: PortableError) -> Self {
        Error::Portable(e)
    }
}
