//! Wire protocol: frame parsing, typed errors, and response encoding.
//!
//! See the crate-level docs for the full protocol reference. This module
//! owns the request/response schema: [`parse_frame`] turns one line into a
//! typed [`Request`] (or a [`ServerError::Protocol`] that still echoes the
//! frame id), and the `*_json` helpers encode analytics results back into
//! [`Json`] trees.

use crate::json::{self, n, obj, s, Json};
use logr::analytics::{Advice, AdviceKind, Pred};
use logr::core::DriftReport;
use logr::feature::{Codebook, Feature, FeatureClass};
use logr::{SourceConfig, TemplateConfig};
use std::fmt;

/// Hard cap on one request line, in bytes. Longer frames are rejected with
/// a `Protocol` error before parsing (and the connection handler stops
/// buffering past it, so a missing newline cannot balloon memory).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Upper bound on statements accepted in a single `ingest` frame.
pub const MAX_BATCH_STATEMENTS: usize = 4096;

/// Everything that can go wrong serving a request.
///
/// The engine taxonomy ([`logr::Error`]) is reused verbatim for anything a
/// tenant engine reports; `Protocol` covers wire-level failures (malformed
/// JSON, unknown ops, invalid tenant names) that never reach an engine.
/// Either way the failure is confined to the offending request — the
/// daemon and other tenants keep serving.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServerError {
    /// A tenant engine failed; carries the typed engine error.
    Engine(logr::Error),
    /// The request itself was invalid at the wire level.
    Protocol {
        /// Human-readable description of what was malformed.
        detail: String,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Engine(e) => write!(f, "engine error: {e}"),
            ServerError::Protocol { detail } => write!(f, "protocol error: {detail}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Engine(e) => Some(e),
            ServerError::Protocol { .. } => None,
        }
    }
}

impl From<logr::Error> for ServerError {
    fn from(e: logr::Error) -> ServerError {
        ServerError::Engine(e)
    }
}

/// Shorthand for a `Protocol` error.
pub fn protocol(detail: impl Into<String>) -> ServerError {
    ServerError::Protocol { detail: detail.into() }
}

impl ServerError {
    /// The stable error code written to the wire.
    ///
    /// Engine errors use the [`logr::Error`] variant name; wire-level
    /// failures use `"Protocol"`. Future engine variants (the enum is
    /// `#[non_exhaustive]`) degrade to `"Engine"` rather than breaking
    /// the daemon.
    pub fn wire_code(&self) -> &'static str {
        match self {
            ServerError::Protocol { .. } => "Protocol",
            ServerError::Engine(e) => match e {
                logr::Error::Io(_) => "Io",
                logr::Error::Spill(_) => "Spill",
                logr::Error::Portable(_) => "Portable",
                logr::Error::Config { .. } => "Config",
                logr::Error::UnknownFeature { .. } => "UnknownFeature",
                logr::Error::MissingManifest { .. } => "MissingManifest",
                logr::Error::ManifestVersion { .. } => "ManifestVersion",
                logr::Error::CorruptManifest { .. } => "CorruptManifest",
                logr::Error::MissingShard { .. } => "MissingShard",
                logr::Error::StoreMismatch { .. } => "StoreMismatch",
                logr::Error::StoreLocked { .. } => "StoreLocked",
                logr::Error::StorageExhausted { .. } => "StorageExhausted",
                logr::Error::ReadOnly => "ReadOnly",
                logr::Error::NotDurable => "NotDurable",
                logr::Error::Poisoned => "Poisoned",
                _ => "Engine",
            },
        }
    }
}

/// A parsed request line: the echoed frame id plus the typed request (or
/// the error to answer with).
#[derive(Debug)]
pub struct Frame {
    /// The client's `"id"` value, echoed verbatim in the response
    /// (`null` when the frame was too broken to recover one).
    pub id: Json,
    /// The request, or the protocol error it failed to parse with.
    pub request: Result<Request, ServerError>,
}

/// One decoded request.
#[derive(Debug)]
pub enum Request {
    /// Liveness probe; answered directly.
    Ping,
    /// Stop the daemon after flushing pending commits.
    Shutdown,
    /// Daemon-wide statistics (budget, tenant list).
    GlobalStats,
    /// An operation against one tenant's engine.
    Tenant {
        /// Validated tenant name (see [`crate::tenant`] for the rules).
        name: String,
        /// The frame's optional `"source"` field: which featurizer the
        /// tenant runs. Takes effect when this request is the one that
        /// creates the tenant's store; otherwise it is checked against
        /// the source actually in force and mismatches are errors.
        source: Option<SourceConfig>,
        /// The tenant-scoped operation.
        op: TenantOp,
    },
}

/// A tenant-scoped operation, split by what it needs from the tenant:
/// the write gate, a snapshot, or neither.
#[derive(Debug)]
pub enum TenantOp {
    /// Runs under the tenant's write gate; acked after the covering fsync.
    Write(WriteOp),
    /// Answered off the tenant's published snapshot.
    Read(ReadOp),
    /// Per-tenant statistics (budget, windows, resident bytes).
    Stats,
    /// Flush, release the tenant's engine and store lock, and
    /// re-apportion the global budget over the remaining tenants.
    Close,
}

/// An operation that mutates the tenant's engine.
#[derive(Debug)]
pub enum WriteOp {
    /// Ingest a batch of records; acked only after the covering fsync.
    Ingest {
        /// The raw records, applied in order — SQL statements for
        /// SQL-source tenants, free-form log lines for template-source
        /// ones (the wire accepts `sql`/`statements` and the
        /// source-neutral synonyms `record`/`records` interchangeably).
        statements: Vec<String>,
    },
    /// Close any partially filled window.
    Flush,
    /// Fold the delta log into a fresh base manifest, durably.
    Checkpoint,
}

/// An analytics read over the tenant's snapshot.
#[derive(Debug)]
pub enum ReadOp {
    /// Estimated number of workload queries satisfying the predicate.
    Frequency {
        /// The predicate to estimate.
        pred: Pred,
    },
    /// `frequency / summarized_queries`, in `[0, 1]`.
    Share {
        /// The predicate to estimate.
        pred: Pred,
    },
    /// Conditional probability `p(pred | given)`.
    Conditional {
        /// The conditioning predicate.
        given: Pred,
        /// The target predicate.
        pred: Pred,
    },
    /// Pairwise co-occurrence estimates within one feature class.
    Cooccurrence {
        /// The feature class to correlate.
        class: FeatureClass,
    },
    /// The `k` most frequent features of one class.
    TopK {
        /// The feature class to rank.
        class: FeatureClass,
        /// How many features to return.
        k: usize,
    },
    /// Run an advisor over the tenant's snapshot.
    Advise {
        /// Which advisor, with its thresholds.
        spec: AdvisorSpec,
    },
    /// The latest window drift report.
    Drift {
        /// Stability tolerance evaluated into the response's `"stable"`.
        tolerance: f64,
    },
}

/// Advisor selection for [`ReadOp::Advise`].
#[derive(Debug)]
pub enum AdvisorSpec {
    /// [`logr::analytics::IndexAdvisor`].
    Index {
        /// Minimum workload share for a predicate to be proposed.
        min_share: f64,
    },
    /// [`logr::analytics::ViewAdvisor`].
    View {
        /// Minimum workload share for a join pair to be proposed.
        min_share: f64,
    },
    /// [`logr::analytics::QueryRecommender`].
    Recommend {
        /// The partial query to extend.
        partial: String,
        /// Minimum conditional probability for a suggestion.
        min_conditional: f64,
    },
    /// [`logr::analytics::DriftAdvisor`].
    Drift {
        /// Drift tolerance below which no alarms are raised.
        tolerance: f64,
    },
}

/// Parses one request line into a [`Frame`].
///
/// Never panics; every failure mode becomes a `Protocol` error carrying
/// whatever frame id could be recovered.
pub fn parse_frame(line: &str) -> Frame {
    if line.len() > MAX_FRAME_BYTES {
        return Frame {
            id: Json::Null,
            request: Err(protocol(format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                line.len()
            ))),
        };
    }
    let doc = match json::parse(line) {
        Ok(doc) => doc,
        Err(detail) => {
            return Frame {
                id: Json::Null,
                request: Err(protocol(format!("invalid JSON: {detail}"))),
            }
        }
    };
    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    let request = decode_request(&doc);
    Frame { id, request }
}

fn decode_request(doc: &Json) -> Result<Request, ServerError> {
    if !matches!(doc, Json::Obj(_)) {
        return Err(protocol("frame must be a JSON object"));
    }
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| protocol("missing string field \"op\""))?;
    let tenant = doc.get("tenant").and_then(Json::as_str);
    match op {
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "stats" if tenant.is_none() => Ok(Request::GlobalStats),
        _ => {
            let name = tenant
                .ok_or_else(|| protocol(format!("op \"{op}\" requires a \"tenant\"")))?
                .to_owned();
            Ok(Request::Tenant {
                name,
                source: source_config(doc)?,
                op: decode_tenant_op(op, doc)?,
            })
        }
    }
}

/// Decodes the optional `"source"` field: `"sql"`, `"template"`, or an
/// object `{"kind": "template", "depth"?, "max_children"?, "similarity"?}`
/// overriding the miner's default knobs.
fn source_config(doc: &Json) -> Result<Option<SourceConfig>, ServerError> {
    let Some(v) = doc.get("source") else { return Ok(None) };
    let config = match v {
        Json::Null => return Ok(None),
        Json::Str(kind) => source_kind(kind)?,
        Json::Obj(_) => {
            let kind = v
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| protocol("\"source\" object requires a string \"kind\""))?;
            match source_kind(kind)? {
                SourceConfig::Sql => SourceConfig::Sql,
                SourceConfig::Template(defaults) => {
                    let usize_knob = |key: &str, default: usize| -> Result<usize, ServerError> {
                        match v.get(key) {
                            None | Some(Json::Null) => Ok(default),
                            Some(knob) => knob
                                .as_u64()
                                .map(|x| x as usize)
                                .ok_or_else(|| protocol(format!("\"{key}\" must be an integer"))),
                        }
                    };
                    SourceConfig::Template(TemplateConfig {
                        depth: usize_knob("depth", defaults.depth)?,
                        max_children: usize_knob("max_children", defaults.max_children)?,
                        similarity: optional_f64(v, "similarity", defaults.similarity)?,
                    })
                }
            }
        }
        _ => return Err(protocol("\"source\" must be a string or an object")),
    };
    config.validate().map_err(protocol)?;
    Ok(Some(config))
}

fn source_kind(kind: &str) -> Result<SourceConfig, ServerError> {
    match kind {
        "sql" => Ok(SourceConfig::Sql),
        "template" => Ok(SourceConfig::template()),
        _ => Err(protocol(format!("unknown source \"{kind}\" (expected \"sql\" or \"template\")"))),
    }
}

fn decode_tenant_op(op: &str, doc: &Json) -> Result<TenantOp, ServerError> {
    use TenantOp::{Read, Write};
    Ok(match op {
        "ingest" => Write(WriteOp::Ingest { statements: ingest_statements(doc)? }),
        "flush" => Write(WriteOp::Flush),
        "checkpoint" => Write(WriteOp::Checkpoint),
        "stats" => TenantOp::Stats,
        "close" => TenantOp::Close,
        "frequency" => Read(ReadOp::Frequency { pred: required_pred(doc, "pred")? }),
        "share" => Read(ReadOp::Share { pred: required_pred(doc, "pred")? }),
        "conditional" => Read(ReadOp::Conditional {
            given: required_pred(doc, "given")?,
            pred: required_pred(doc, "pred")?,
        }),
        "cooccurrence" => Read(ReadOp::Cooccurrence { class: required_class(doc)? }),
        "top_k" => {
            let k = doc
                .get("k")
                .and_then(Json::as_u64)
                .ok_or_else(|| protocol("top_k requires an integer \"k\""))?;
            if k == 0 || k > 10_000 {
                return Err(protocol("\"k\" must be in 1..=10000"));
            }
            Read(ReadOp::TopK { class: required_class(doc)?, k: k as usize })
        }
        "advise" => Read(ReadOp::Advise { spec: advisor_spec(doc)? }),
        "drift" => Read(ReadOp::Drift { tolerance: optional_f64(doc, "tolerance", 0.0)? }),
        _ => return Err(protocol(format!("unknown op \"{op}\""))),
    })
}

fn ingest_statements(doc: &Json) -> Result<Vec<String>, ServerError> {
    // `record`/`records` are source-neutral synonyms for `sql`/
    // `statements`: template-source tenants ingest free-form log lines,
    // not SQL, and their clients shouldn't have to pretend otherwise.
    for single in ["sql", "record"] {
        if let Some(v) = doc.get(single) {
            let text =
                v.as_str().ok_or_else(|| protocol(format!("\"{single}\" must be a string")))?;
            return Ok(vec![text.to_owned()]);
        }
    }
    let (key, items) = ["statements", "records"]
        .into_iter()
        .find_map(|key| Some((key, doc.get(key)?)))
        .ok_or_else(|| {
            protocol("ingest requires \"sql\", \"record\", \"statements\", or \"records\"")
        })?;
    let items =
        items.as_arr().ok_or_else(|| protocol(format!("\"{key}\" must be an array of strings")))?;
    if items.is_empty() {
        return Err(protocol(format!("\"{key}\" must not be empty")));
    }
    if items.len() > MAX_BATCH_STATEMENTS {
        return Err(protocol(format!(
            "\"{key}\" exceeds the {MAX_BATCH_STATEMENTS}-record batch cap"
        )));
    }
    items
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_owned)
                .ok_or_else(|| protocol(format!("\"{key}\" entries must be strings")))
        })
        .collect()
}

fn optional_f64(doc: &Json, key: &str, default: f64) -> Result<f64, ServerError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => {
            let x = v.as_f64().ok_or_else(|| protocol(format!("\"{key}\" must be a number")))?;
            if !x.is_finite() {
                return Err(protocol(format!("\"{key}\" must be finite")));
            }
            Ok(x)
        }
    }
}

fn advisor_spec(doc: &Json) -> Result<AdvisorSpec, ServerError> {
    let which = doc
        .get("advisor")
        .and_then(Json::as_str)
        .ok_or_else(|| protocol("advise requires a string \"advisor\""))?;
    match which {
        "index" => Ok(AdvisorSpec::Index { min_share: optional_f64(doc, "min_share", 0.1)? }),
        "view" => Ok(AdvisorSpec::View { min_share: optional_f64(doc, "min_share", 0.1)? }),
        "recommend" => {
            let partial = doc
                .get("partial")
                .and_then(Json::as_str)
                .ok_or_else(|| protocol("advisor \"recommend\" requires a string \"partial\""))?
                .to_owned();
            Ok(AdvisorSpec::Recommend {
                partial,
                min_conditional: optional_f64(doc, "min_conditional", 0.5)?,
            })
        }
        "drift" => Ok(AdvisorSpec::Drift { tolerance: optional_f64(doc, "tolerance", 0.0)? }),
        _ => Err(protocol(format!("unknown advisor \"{which}\""))),
    }
}

fn required_class(doc: &Json) -> Result<FeatureClass, ServerError> {
    let name = doc
        .get("class")
        .and_then(Json::as_str)
        .ok_or_else(|| protocol("missing string field \"class\""))?;
    class_from_name(name).ok_or_else(|| protocol(format!("unknown feature class \"{name}\"")))
}

/// Parses a wire feature-class name (the inverse of [`class_name`]).
pub fn class_from_name(name: &str) -> Option<FeatureClass> {
    FeatureClass::ALL.into_iter().find(|&class| class_name(class) == name)
}

/// The wire name of a feature class.
pub fn class_name(class: FeatureClass) -> &'static str {
    match class {
        FeatureClass::Select => "select",
        FeatureClass::From => "from",
        FeatureClass::Where => "where",
        FeatureClass::GroupBy => "group_by",
        FeatureClass::OrderBy => "order_by",
        FeatureClass::Template => "template",
        FeatureClass::Param => "param",
    }
}

fn required_pred(doc: &Json, key: &str) -> Result<Pred, ServerError> {
    let v = doc.get(key).ok_or_else(|| protocol(format!("missing predicate field \"{key}\"")))?;
    pred_from_json(v)
}

/// Decodes the wire predicate encoding into a [`Pred`].
///
/// The encoding mirrors the [`Pred`] constructors — an object with exactly
/// one of: `{"table": "t"}`, `{"column": "c"}`, `{"column_eq": "c"}`,
/// `{"where_atom": "a = 1"}`, `{"template": "user <*> logged in"}`,
/// `{"param": "ip"}`, `{"joins": ["a", "b"]}`,
/// `{"and": [p, ...]}`, `{"or": [p, ...]}`, `{"not": p}`.
pub fn pred_from_json(v: &Json) -> Result<Pred, ServerError> {
    let pairs = match v {
        Json::Obj(pairs) => pairs,
        _ => return Err(protocol("predicate must be a JSON object")),
    };
    if pairs.len() != 1 {
        return Err(protocol("predicate object must have exactly one key"));
    }
    let (key, val) = &pairs[0];
    let text_leaf = |ctor: fn(String) -> Pred| {
        val.as_str()
            .map(|t| ctor(t.to_owned()))
            .ok_or_else(|| protocol(format!("\"{key}\" expects a string")))
    };
    match key.as_str() {
        "table" => text_leaf(Pred::table),
        "column" => text_leaf(Pred::column),
        "column_eq" => text_leaf(Pred::column_eq),
        "where_atom" => text_leaf(Pred::where_atom),
        "template" => text_leaf(Pred::template),
        "param" => text_leaf(Pred::param),
        "not" => Ok(pred_from_json(val)?.not()),
        "joins" => match val.as_arr() {
            Some([a, b]) => match (a.as_str(), b.as_str()) {
                (Some(a), Some(b)) => Ok(Pred::joins(a, b)),
                _ => Err(protocol("\"joins\" expects two table-name strings")),
            },
            _ => Err(protocol("\"joins\" expects an array of two strings")),
        },
        "and" | "or" => {
            let items =
                val.as_arr().ok_or_else(|| protocol(format!("\"{key}\" expects an array")))?;
            let mut parsed = items.iter().map(pred_from_json);
            let first =
                parsed.next().ok_or_else(|| protocol(format!("\"{key}\" must not be empty")))??;
            parsed.try_fold(first, |acc, item| {
                let item = item?;
                Ok(if key == "and" { acc.and(item) } else { acc.or(item) })
            })
        }
        _ => Err(protocol(format!("unknown predicate key \"{key}\""))),
    }
}

// ---------------------------------------------------------------------------
// Response encoding
// ---------------------------------------------------------------------------

/// Encodes a success response line (with trailing newline).
pub fn ok_frame(id: &Json, result: Json) -> String {
    let mut text =
        obj(vec![("id", id.clone()), ("ok", Json::Bool(true)), ("result", result)]).to_text();
    text.push('\n');
    text
}

/// Encodes an error response line (with trailing newline).
pub fn err_frame(id: &Json, err: &ServerError) -> String {
    let mut text = obj(vec![
        ("id", id.clone()),
        ("ok", Json::Bool(false)),
        ("error", obj(vec![("code", s(err.wire_code())), ("detail", s(&err.to_string()))])),
    ])
    .to_text();
    text.push('\n');
    text
}

/// Encodes a feature as `{"class": ..., "text": ...}`.
pub fn feature_json(f: &Feature) -> Json {
    obj(vec![("class", s(class_name(f.class))), ("text", s(&f.text))])
}

/// Encodes a list of advice entries.
pub fn advice_json(items: &[Advice]) -> Json {
    Json::Arr(
        items
            .iter()
            .map(|a| {
                obj(vec![
                    ("kind", s(advice_kind_name(&a.kind))),
                    ("subject", s(&a.subject)),
                    ("features", Json::Arr(a.features.iter().map(feature_json).collect())),
                    ("estimated", n(a.estimated)),
                    ("share", n(a.share)),
                ])
            })
            .collect(),
    )
}

fn advice_kind_name(kind: &AdviceKind) -> &'static str {
    match kind {
        AdviceKind::Index => "index",
        AdviceKind::MaterializedView => "materialized_view",
        AdviceKind::Recommendation => "recommendation",
        AdviceKind::Drift => "drift",
        _ => "other",
    }
}

/// Encodes a drift report; `baseline` resolves the report's baseline
/// feature ids to text (ids out of range render as `"feature #<id>"`).
pub fn drift_json(report: &DriftReport, tolerance: f64, baseline: Option<&Codebook>) -> Json {
    let resolve = |id: logr::feature::FeatureId| -> String {
        match baseline {
            Some(cb) if id.index() < cb.len() => cb.feature(id).to_string(),
            _ => format!("feature #{}", id.0),
        }
    };
    obj(vec![
        ("overall", n(report.overall)),
        ("stable", Json::Bool(report.is_stable(tolerance))),
        (
            "per_feature",
            Json::Arr(
                report
                    .per_feature
                    .iter()
                    .map(|(id, js)| obj(vec![("feature", s(&resolve(*id))), ("js", n(*js))]))
                    .collect(),
            ),
        ),
        ("new_features", Json::Arr(report.new_features.iter().map(|t| s(t)).collect())),
        (
            "vanished_features",
            Json::Arr(report.vanished_features.iter().map(|id| s(&resolve(*id))).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_core_ops() {
        let f = parse_frame(r#"{"id":1,"op":"ping"}"#);
        assert!(matches!(f.request, Ok(Request::Ping)));
        assert_eq!(f.id, Json::Num(1.0));

        let f = parse_frame(r#"{"id":2,"op":"ingest","tenant":"a","sql":"SELECT x FROM t"}"#);
        match f.request {
            Ok(Request::Tenant {
                name,
                source: None,
                op: TenantOp::Write(WriteOp::Ingest { statements }),
            }) => {
                assert_eq!(name, "a");
                assert_eq!(statements, vec!["SELECT x FROM t".to_owned()]);
            }
            other => panic!("unexpected: {other:?}"),
        }

        let f = parse_frame(r#"{"op":"top_k","tenant":"a","class":"where","k":3}"#);
        assert!(matches!(
            f.request,
            Ok(Request::Tenant {
                op: TenantOp::Read(ReadOp::TopK { class: FeatureClass::Where, k: 3 }),
                ..
            })
        ));
    }

    #[test]
    fn malformed_frames_become_protocol_errors_with_echoed_id() {
        let f = parse_frame("not json");
        assert!(matches!(f.request, Err(ServerError::Protocol { .. })));
        assert_eq!(f.id, Json::Null);

        let f = parse_frame(r#"{"id":"x","op":"frequency","tenant":"a"}"#);
        assert_eq!(f.id, Json::Str("x".to_owned()));
        let err = f.request.unwrap_err();
        assert_eq!(err.wire_code(), "Protocol");

        let f = parse_frame(r#"{"op":"ingest","tenant":"a","statements":[]}"#);
        assert!(f.request.is_err());

        let f = parse_frame(r#"{"op":"frequency"}"#);
        assert!(f.request.is_err(), "tenant ops require a tenant");
    }

    #[test]
    fn compact_is_an_unknown_op() {
        // The op left with store compaction; its frame is answered like
        // any other unknown op, with the request id echoed.
        let f = parse_frame(r#"{"id":7,"op":"compact","tenant":"a"}"#);
        let err = f.request.unwrap_err();
        assert!(matches!(&err, ServerError::Protocol { .. }), "{err:?}");
        let reply = json::parse(err_frame(&f.id, &err).trim_end()).unwrap();
        assert_eq!(reply.get("id"), Some(&Json::Num(7.0)));
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
        let error = reply.get("error").unwrap();
        assert_eq!(error.get("code").and_then(Json::as_str), Some("Protocol"));
        let detail = error.get("detail").and_then(Json::as_str).unwrap();
        assert!(detail.contains(r#"unknown op "compact""#), "{detail}");
    }

    #[test]
    fn record_synonyms_and_source_field_decode() {
        // `record`/`records` carry the same batch as `sql`/`statements`.
        let f = parse_frame(r#"{"op":"ingest","tenant":"svc","records":["a b","c d"]}"#);
        match f.request {
            Ok(Request::Tenant { op: TenantOp::Write(WriteOp::Ingest { statements }), .. }) => {
                assert_eq!(statements, vec!["a b".to_owned(), "c d".to_owned()]);
            }
            other => panic!("unexpected: {other:?}"),
        }
        let f = parse_frame(r#"{"op":"ingest","tenant":"svc","record":"one line"}"#);
        match f.request {
            Ok(Request::Tenant { op: TenantOp::Write(WriteOp::Ingest { statements }), .. }) => {
                assert_eq!(statements, vec!["one line".to_owned()]);
            }
            other => panic!("unexpected: {other:?}"),
        }

        // String and object source spellings.
        let f = parse_frame(r#"{"op":"flush","tenant":"svc","source":"template"}"#);
        match f.request {
            Ok(Request::Tenant { source, .. }) => {
                assert_eq!(source, Some(SourceConfig::template()));
            }
            other => panic!("unexpected: {other:?}"),
        }
        let f = parse_frame(
            r#"{"op":"flush","tenant":"svc","source":{"kind":"template","depth":3,"similarity":0.7}}"#,
        );
        match f.request {
            Ok(Request::Tenant { source: Some(SourceConfig::Template(t)), .. }) => {
                assert_eq!(t.depth, 3);
                assert_eq!(t.max_children, TemplateConfig::default().max_children);
                assert!((t.similarity - 0.7).abs() < 1e-12);
            }
            other => panic!("unexpected: {other:?}"),
        }
        let f = parse_frame(r#"{"op":"flush","tenant":"svc","source":"sql"}"#);
        assert!(matches!(f.request, Ok(Request::Tenant { source: Some(SourceConfig::Sql), .. })));

        // Bad sources are protocol errors: unknown kind, invalid knobs.
        for bad in [
            r#"{"op":"flush","tenant":"svc","source":"drain"}"#,
            r#"{"op":"flush","tenant":"svc","source":7}"#,
            r#"{"op":"flush","tenant":"svc","source":{"kind":"template","depth":0}}"#,
            r#"{"op":"flush","tenant":"svc","source":{"kind":"template","similarity":2.0}}"#,
            r#"{"op":"flush","tenant":"svc","source":{"depth":2}}"#,
        ] {
            let f = parse_frame(bad);
            assert_eq!(f.request.unwrap_err().wire_code(), "Protocol", "accepted {bad}");
        }
    }

    #[test]
    fn pred_wire_encoding_round_trips_through_constructors() {
        let v = json::parse(
            r#"{"and":[{"table":"orders"},{"or":[{"column":"o_id"},{"where_atom":"x = 1"}]}]}"#,
        )
        .unwrap();
        let wire = pred_from_json(&v).unwrap();
        let built = Pred::table("orders").and(Pred::column("o_id").or(Pred::where_atom("x = 1")));
        assert_eq!(format!("{wire:?}"), format!("{built:?}"));

        let v =
            json::parse(r#"{"not":{"and":[{"template":"user <*> in"},{"param":"ip"}]}}"#).unwrap();
        let wire = pred_from_json(&v).unwrap();
        let built = Pred::template("user <*> in").and(Pred::param("ip")).not();
        assert_eq!(format!("{wire:?}"), format!("{built:?}"));

        for bad in [
            r#"{"table":1}"#,
            r#"{"and":[]}"#,
            r#"{"joins":["a"]}"#,
            r#"{"nope":"x"}"#,
            r#"{"table":"a","column":"b"}"#,
            "[]",
        ] {
            let v = json::parse(bad).unwrap();
            assert!(pred_from_json(&v).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn class_names_round_trip_over_every_class() {
        for class in FeatureClass::ALL {
            assert_eq!(class_from_name(class_name(class)), Some(class));
        }
        assert_eq!(class_from_name("SELECT"), None, "wire names are lowercase");
        assert_eq!(class_from_name(""), None);
    }

    #[test]
    fn wire_codes_match_engine_variant_names() {
        assert_eq!(ServerError::from(logr::Error::ReadOnly).wire_code(), "ReadOnly");
        assert_eq!(
            ServerError::from(logr::Error::StorageExhausted { detail: "d".into() }).wire_code(),
            "StorageExhausted"
        );
        assert_eq!(protocol("x").wire_code(), "Protocol");
    }

    #[test]
    fn response_frames_are_single_lines() {
        let ok = ok_frame(&Json::Num(1.0), s("pong"));
        assert_eq!(ok, "{\"id\":1,\"ok\":true,\"result\":\"pong\"}\n");
        let err = err_frame(&Json::Null, &protocol("bad\nframe"));
        assert_eq!(err.matches('\n').count(), 1, "newline escaped in detail");
        assert!(err.ends_with('\n'));
    }
}
