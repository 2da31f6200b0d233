//! Bit-identity assertions over the stream's artifacts: logs compared
//! entry by entry and feature by feature, every float by its bits. Each
//! takes a context string that prefixes every failure message.

use logr_core::{DriftReport, LogRSummary, WindowSummary};
use logr_feature::QueryLog;

/// Same distinct entries with the same counts in the same order, the
/// same universe and total, and the same feature behind every id —
/// everything a store persists of a log. (Debug equality would be too
/// strong: the interning index is a `HashMap`, whose print order differs
/// between a log built by replay and a live one.)
pub fn assert_log_identical(a: &QueryLog, b: &QueryLog, ctx: &str) {
    assert_eq!(a.entries(), b.entries(), "{ctx}: entries");
    assert_eq!(a.num_features(), b.num_features(), "{ctx}: universe");
    assert_eq!(a.total_queries(), b.total_queries(), "{ctx}: total");
    assert_eq!(a.codebook().len(), b.codebook().len(), "{ctx}: codebook");
    for (id, f) in a.codebook().iter() {
        assert_eq!(b.codebook().feature(id), f, "{ctx}: feature {id:?}");
    }
}

/// Both absent, or both present with the same divergences to the bit and
/// the same new and vanished features.
pub fn assert_drift_identical(a: &Option<DriftReport>, b: &Option<DriftReport>, ctx: &str) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.overall.to_bits(), b.overall.to_bits(), "{ctx}: drift overall");
            assert_eq!(a.per_feature.len(), b.per_feature.len(), "{ctx}: drift per-feature");
            for ((fa, da), (fb, db)) in a.per_feature.iter().zip(&b.per_feature) {
                assert_eq!(fa, fb, "{ctx}: drift feature order");
                assert_eq!(da.to_bits(), db.to_bits(), "{ctx}: drift divergence");
            }
            assert_eq!(a.new_features, b.new_features, "{ctx}: new features");
            assert_eq!(a.vanished_features, b.vanished_features, "{ctx}: vanished features");
        }
        _ => panic!("{ctx}: drift presence differs ({} vs {})", a.is_some(), b.is_some()),
    }
}

/// Same clustering, error and verbosity, and a mixture equal component
/// by component: members, totals, weights, errors, entropies and every
/// marginal to the bit.
pub fn assert_summary_identical(a: &LogRSummary, b: &LogRSummary, ctx: &str) {
    assert_eq!(a.clustering, b.clustering, "{ctx}: clustering");
    assert_eq!(a.error().to_bits(), b.error().to_bits(), "{ctx}: error");
    assert_eq!(a.total_verbosity(), b.total_verbosity(), "{ctx}: verbosity");
    let (ca, cb) = (a.mixture.components(), b.mixture.components());
    assert_eq!(ca.len(), cb.len(), "{ctx}: component count");
    for (i, (x, y)) in ca.iter().zip(cb).enumerate() {
        assert_eq!(x.entries, y.entries, "{ctx}: component {i} entries");
        assert_eq!(x.total, y.total, "{ctx}: component {i} total");
        assert_eq!(x.weight.to_bits(), y.weight.to_bits(), "{ctx}: component {i} weight");
        assert_eq!(x.error.to_bits(), y.error.to_bits(), "{ctx}: component {i} error");
        assert_eq!(
            x.empirical_entropy.to_bits(),
            y.empirical_entropy.to_bits(),
            "{ctx}: component {i} entropy"
        );
        let (ma, mb) = (x.encoding.marginals(), y.encoding.marginals());
        assert_eq!(ma.len(), mb.len(), "{ctx}: component {i} marginal len");
        for (p, q) in ma.iter().zip(mb) {
            assert_eq!(p.to_bits(), q.to_bits(), "{ctx}: component {i} marginal");
        }
    }
}

/// Two closes of the same window: index, counts, boundary, log, summary,
/// drift, novelty and verdict.
pub fn assert_window_identical(a: &WindowSummary, b: &WindowSummary, ctx: &str) {
    assert_eq!(a.index, b.index, "{ctx}: index");
    assert_eq!(a.queries, b.queries, "{ctx}: queries");
    assert_eq!(a.distinct, b.distinct, "{ctx}: distinct");
    assert_eq!(a.new_distinct, b.new_distinct, "{ctx}: new distinct");
    assert_eq!(a.closed_at_ms, b.closed_at_ms, "{ctx}: boundary");
    assert_eq!(a.stable, b.stable, "{ctx}: stability verdict");
    assert_eq!(bits(&a.novelty), bits(&b.novelty), "{ctx}: novelty");
    assert_log_identical(&a.log, &b.log, &format!("{ctx}: window log"));
    assert_drift_identical(&a.drift, &b.drift, ctx);
    assert_summary_identical(&a.summary, &b.summary, &format!("{ctx}: window summary"));
}

/// Every float's bit pattern, for whole-vector comparisons.
pub fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}
