//! Test support for the logr workspace, kept out of every product crate.
//!
//! Packages reach this crate only through `[dev-dependencies]`. It holds
//! what the bit-identity and crash suites compare against:
//!
//! * [`vfs`] — [`FaultFs`], an in-memory `Vfs` that records every
//!   mutating op and injects failures, and [`vfs::durable_state`], the
//!   power-cut simulator that materializes what survives a crash at any
//!   point of a recorded trace;
//! * [`TempStore`] — a real temp directory per test, removed on drop;
//! * [`distance`] and [`pointset`] — the sparse reference: distances by
//!   sorted-id merge, full matrices, average linkage over them, and the
//!   condensed matrix expanded back to a full one;
//! * [`sql_gen`] — one SQL statement rendered many ways (literals,
//!   whitespace, comments), the generator behind the memo-soundness
//!   property;
//! * [`RefStream`] — an executable specification of a window close that
//!   rebuilds every artifact from the raw records at each close; every
//!   engine flavour is checked against it;
//! * [`identical`] — the bit-identity assertions those checks share.
//!
//! A crate's *unit* tests must not use a type here that names that same
//! crate: this crate links its own copy of it, so `FaultFs` would
//! implement a second `Vfs` trait. Such tests live in the crate's
//! `tests/` directory, which links one copy.

pub mod distance;
pub mod identical;
pub mod pointset;
pub mod ref_stream;
pub mod sql_gen;
mod temp;
pub mod vfs;

pub use ref_stream::{novelty_scan, script_texts, RefStream};
pub use temp::TempStore;
pub use vfs::FaultFs;
