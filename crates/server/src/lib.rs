//! `logr-server` — a multi-tenant ingestion daemon and wire-level
//! analytics surface over [`logr::Engine`].
//!
//! One daemon owns N tenant engines (per-tenant subdirectories under one
//! root, lazily opened, exclusively locked through the engine's own store
//! lock), ingests query-log statements with **group commit** — each
//! tenant's window-close delta fsyncs are coalesced over a configurable
//! commit interval, one fsync per tenant per interval — and serves the whole
//! `logr::analytics` read surface off lock-free snapshots. Built on
//! `std::net` only: no runtime, no serialization dependency.
//!
//! ```no_run
//! use logr_server::{Server, ServerConfig};
//! let server = Server::bind(ServerConfig::new("/var/lib/logr"), "127.0.0.1:7878")?;
//! server.run()?; // blocks until a shutdown frame
//! # Ok::<(), logr_server::ServerError>(())
//! ```
//!
//! # Protocol reference
//!
//! The wire protocol is **line-delimited JSON over TCP**: each request is
//! one JSON object on one `\n`-terminated line (at most
//! [`protocol::MAX_FRAME_BYTES`] bytes), answered in order by one
//! response line on the same connection.
//!
//! ## Frame format
//!
//! Request: `{"id": <any>, "op": "<op>", "tenant": "<name>", ...}` — `id`
//! is echoed verbatim in the response (defaults to `null`); `tenant`
//! (1–64 bytes of `[A-Za-z0-9_-]`) is required for every tenant-scoped
//! op. Success: `{"id": ..., "ok": true, "result": ...}`. Failure:
//! `{"id": ..., "ok": false, "error": {"code": "...", "detail": "..."}}`.
//!
//! Every tenant-scoped frame may carry an optional `"source"` field
//! naming the featurizer the tenant runs: `"sql"` (the default — parse →
//! anonymize → regularize), `"template"` (Drain-style template mining
//! for free-form service logs), or an object
//! `{"kind": "template", "depth"?, "max_children"?, "similarity"?}`
//! overriding the miner's knobs. The field takes effect on the frame
//! that **creates** the tenant's store; afterwards the store's manifest
//! pins the source forever (a resumed store ignores the server profile
//! too), and a frame whose explicit `"source"` disagrees with the source
//! in force fails with a `Protocol` error instead of being silently
//! ignored.
//!
//! ## Operations
//!
//! | op | extra fields | result |
//! |----|--------------|--------|
//! | `ping` | — | `"pong"` |
//! | `shutdown` | — | `{"stopping": true}`, then the daemon drains and exits |
//! | `stats` | optional `tenant` | daemon-wide or per-tenant statistics |
//! | `ingest` | `sql` / `record` *or* `statements` / `records` (≤ 4096) | `{"ingested", "closed", "windows_closed"}` |
//! | `flush` | — | `{"closed": bool}` (closes a partial window) |
//! | `checkpoint` | — | `{"durable": true}` (delta log folded into the base) |
//! | `compact` | — | `{"merged": n}` (spilled shards merged) |
//! | `close` | — | `{"closed": true}` (engine released, budget re-apportioned) |
//! | `frequency` | `pred` | estimated matching queries (`null` before any summary) |
//! | `share` | `pred` | workload share in `[0, 1]` |
//! | `conditional` | `given`, `pred` | `p(pred | given)` |
//! | `cooccurrence` | `class` | `[{"a", "b", "estimated"}, ...]` |
//! | `top_k` | `class`, `k` | `[{"feature", "estimated"}, ...]` |
//! | `advise` | `advisor` + thresholds | `[{"kind", "subject", "features", "estimated", "share"}, ...]` |
//! | `drift` | optional `tolerance` | drift report or `null` |
//!
//! Predicates mirror the [`logr::analytics::Pred`] constructors:
//! `{"table": "t"}`, `{"column": "c"}`, `{"column_eq": "c"}`,
//! `{"where_atom": "a = 1"}`, `{"template": "user <*> logged in"}`,
//! `{"param": "ip"}`, `{"joins": ["a", "b"]}`, `{"and": [...]}`,
//! `{"or": [...]}`, `{"not": p}` (negations evaluate as mixture
//! complements). Feature classes are `"select"`, `"from"`, `"where"`,
//! `"group_by"`, `"order_by"` for the SQL source and `"template"`,
//! `"param"` for the template source. Advisors are `"index"` / `"view"`
//! (with `min_share`), `"recommend"` (with `partial`,
//! `min_conditional`), and `"drift"` (with `tolerance`).
//!
//! ## Error codes
//!
//! `error.code` is `"Protocol"` for wire-level failures (malformed JSON,
//! unknown op, invalid tenant name, oversized frame) and otherwise the
//! [`logr::Error`] variant name: `Io`, `Spill`, `Portable`, `Config`,
//! `UnknownFeature`, `MissingManifest`, `ManifestVersion`,
//! `CorruptManifest`, `MissingShard`, `StoreMismatch`, `StoreLocked`,
//! `StorageExhausted`, `ReadOnly`, `NotDurable`, `Poisoned` (future
//! variants degrade to `Engine`). Every failure is scoped to its request:
//! a malformed frame or one tenant's `StorageExhausted` never takes down
//! the connection, the daemon, or another tenant.
//!
//! ## Commit/ack semantics
//!
//! Writes (`ingest`, `flush`, `checkpoint`, `compact`) run on the worker
//! serving the connection that sent them, under the tenant's write gate,
//! which the tenant's [`commit::GroupCommitVfs`] owns
//! ([`commit::GroupCommitVfs::run_gated`]): one tenant's writes apply one
//! at a time, a connection's in the order it sent them, and two tenants'
//! writes never wait on each other. When a write appends to the tenant's
//! delta log (a window close), its fsync is **deferred** and the write
//! takes a **ticket**: the count of the tenant's deferred fsyncs. The
//! gate is released and the response waits for that ticket; the
//! committer thread flushes each tenant once per
//! [`server::ServerConfig::commit_interval`], and one fsync makes every
//! ticket the interval issued durable — so **an acked window close has
//! always been fsynced**. A write that took no ticket (statements
//! buffered inside a still-open window) is acked at once, whoever else is
//! waiting; its statements are durable only from the close that later
//! covers them — the same contract a standalone [`logr::Engine`] gives
//! `ingest()` callers. A failed flush is **sticky**: every ticket it did
//! not make durable fails with the typed error, and so does every later
//! one, until the tenant's next write rebases it (full checkpoint through
//! the untouched synchronous path) before running. The daemon and the
//! group-commit power-cut sweep drive this one protocol through the same
//! two calls, `run_gated` and `wait`; its rules are pure transitions that
//! a unit test model-checks over every interleaving.
//!
//! # Crate layout
//!
//! * [`json`] — dependency-free JSON tree, parser (depth-capped), writer.
//! * [`protocol`] — frame parsing, [`ServerError`], response encoding.
//! * [`commit`] — [`commit::GroupCommitVfs`]: each tenant's write gate,
//!   delta-fsync deferral and commit state (tickets, sticky failure).
//! * [`tenant`] — lazy tenant registry + global budget apportionment.
//! * [`server`] — accept loop, the one worker pool, committer, dispatch.

#![warn(missing_docs)]

pub mod commit;
pub mod json;
pub mod protocol;
pub mod server;
pub mod tenant;

pub use commit::GroupCommitVfs;
pub use protocol::ServerError;
pub use server::{Server, ServerConfig, ServerHandle};
pub use tenant::{EngineProfile, TenantRegistry};
