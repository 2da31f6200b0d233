//! Workload drift detection (paper §2 "Online Database Monitoring", §5).
//!
//! Two complementary monitors built on pattern mixture summaries:
//!
//! * [`feature_drift`] — compare a baseline log against a monitoring
//!   window: per-feature Jensen–Shannon divergence of the marginal
//!   profiles, plus the features that appeared or vanished. Cheap enough
//!   to run continuously — it only touches marginal vectors, never the
//!   logs themselves.
//! * [`query_typicality`] — score a single query against a baseline
//!   mixture: the per-feature geometric mean of its mixture probability,
//!   so scores are comparable across query lengths. Queries that straddle
//!   anti-correlated workloads (the §5 phantom queries) score near zero.
//! * [`novelty_scores`] — nearest-baseline-query distance for every
//!   distinct window query. Each window feature is translated to its
//!   baseline id once; a vector the baseline holds scores 0 by lookup.
//!   The rest run on the dense popcount engine
//!   ([`logr_cluster::PointSet`]): the baseline is converted to bitsets
//!   on the first probe that needs a scan, and each comparison is one
//!   xor-popcount.

use crate::mixture::NaiveMixtureEncoding;
use logr_cluster::{Distance, PointSet};
use logr_feature::{BitVec, FeatureId, QueryLog, QueryVector};

/// Outcome of comparing a monitoring window against a baseline.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// Mean per-feature Jensen–Shannon divergence (nats; 0 = identical),
    /// averaged over the **union** of baseline features and window-only
    /// (new) features — a new feature diverges from a baseline marginal of
    /// 0, so injections move `overall` even when every baseline marginal
    /// is unchanged.
    pub overall: f64,
    /// Features ranked by divergence, descending: `(baseline id, JS)`.
    pub per_feature: Vec<(FeatureId, f64)>,
    /// Window features never seen in the baseline (highest-signal events
    /// for injection detection).
    pub new_features: Vec<String>,
    /// Baseline features absent from the window.
    pub vanished_features: Vec<FeatureId>,
}

impl DriftReport {
    /// True when nothing moved beyond the tolerance.
    pub fn is_stable(&self, tolerance: f64) -> bool {
        self.overall <= tolerance && self.new_features.is_empty()
    }
}

/// Jensen–Shannon divergence between two Bernoulli marginals, in nats.
fn js_bernoulli(p: f64, q: f64) -> f64 {
    let m = 0.5 * (p + q);
    0.5 * (kl_bernoulli(p, m) + kl_bernoulli(q, m))
}

fn kl_bernoulli(p: f64, q: f64) -> f64 {
    let term = |a: f64, b: f64| {
        if a <= 0.0 {
            0.0
        } else {
            a * (a / b.max(1e-300)).ln()
        }
    };
    term(p, q) + term(1.0 - p, 1.0 - q)
}

/// Compare a monitoring window against a baseline log.
///
/// Window features are matched to baseline ids by feature identity
/// (class + canonical text), so the two logs may use different codebooks.
pub fn feature_drift(baseline: &QueryLog, window: &QueryLog) -> DriftReport {
    let base_marginals = baseline.marginals();
    let win_marginals = window.marginals();

    let mut per_feature: Vec<(FeatureId, f64)> = Vec::new();
    let mut vanished: Vec<FeatureId> = Vec::new();
    let mut matched_window_ids = vec![false; window.num_features()];

    for (base_id, feature) in baseline.codebook().iter() {
        let p = base_marginals[base_id.index()];
        let q = match window.codebook().get(feature) {
            Some(win_id) => {
                matched_window_ids[win_id.index()] = true;
                win_marginals[win_id.index()]
            }
            None => 0.0,
        };
        if p > 0.0 && q == 0.0 {
            vanished.push(base_id);
        }
        per_feature.push((base_id, js_bernoulli(p, q)));
    }

    // Window-only features drift from a baseline marginal of 0. They have
    // no baseline id to rank under `per_feature`, but their divergence must
    // count toward `overall`: a pure injection window that leaves every
    // baseline marginal untouched still shifted the workload.
    let mut new_features: Vec<String> = Vec::new();
    let mut new_divergence = 0.0;
    for (id, feature) in window.codebook().iter() {
        if !matched_window_ids[id.index()] && win_marginals[id.index()] > 0.0 {
            new_features.push(feature.to_string());
            new_divergence += js_bernoulli(0.0, win_marginals[id.index()]);
        }
    }

    let divergence_count = per_feature.len() + new_features.len();
    let overall = if divergence_count == 0 {
        0.0
    } else {
        (per_feature.iter().map(|&(_, d)| d).sum::<f64>() + new_divergence)
            / divergence_count as f64
    };
    per_feature.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

    DriftReport { overall, per_feature, new_features, vanished_features: vanished }
}

/// Distance from every distinct window query to its nearest baseline
/// query, in window-entry order.
///
/// Window features are matched to baseline ids by feature identity (the
/// two logs may use different codebooks); window features the baseline has
/// never seen have no baseline bit to match, so they are added to the
/// symmetric difference of every comparison — an injected query whose
/// features are all unknown scores at least its own length (under every
/// metric: at least `metric.of_mismatches(len, n_baseline_features)`).
/// A raw window id with no entry in the window's codebook (see
/// [`QueryLog::add_vector`]) has no feature identity, so it counts as
/// unknown the same way.
/// The normalizing universe is **fixed at the baseline's**: unknown
/// features inflate only the mismatch count `d`, never the denominator,
/// so more-unknown queries always score at least as high — not lower, as
/// a per-probe denominator would make them under `Distance::Hamming`.
///
/// Each window feature is translated once per call. A vector the
/// baseline holds scores 0 by lookup
/// (`metric.of_mismatches(0, n_baseline_features)`, the bits a scan would
/// find). The baseline's distinct queries are converted to bitsets on the
/// first probe that needs a scan, and each candidate pair then costs one
/// xor-popcount.
///
/// Returns an empty vector when either log is empty.
pub fn novelty_scores(baseline: &QueryLog, window: &QueryLog, metric: Distance) -> Vec<f64> {
    if baseline.distinct_count() == 0 || window.distinct_count() == 0 {
        return Vec::new();
    }
    let nf = baseline.num_features();
    // Window id → baseline id; `None` for features the baseline lacks.
    let translation: Vec<Option<FeatureId>> =
        window.codebook().iter().map(|(_, feature)| baseline.codebook().get(feature)).collect();
    let mut points: Option<PointSet> = None;
    window
        .entries()
        .iter()
        .map(|(v, _)| {
            let known: Vec<FeatureId> =
                v.iter().filter_map(|id| translation.get(id.index()).copied().flatten()).collect();
            let unknown = v.len() - known.len();
            let translated = QueryVector::new(known);
            // Baseline entries are distinct id sets: a point at distance 0
            // exists exactly when the translated vector is an entry, and no
            // metric scores below its `d = 0` value.
            if unknown == 0 && baseline.contains_vector(&translated) {
                return metric.of_mismatches(0, nf);
            }
            let points = points.get_or_insert_with(|| PointSet::from_log(baseline));
            let mut probe = BitVec::zeros(nf);
            for id in translated.iter() {
                probe.set(id.index());
            }
            (0..points.len())
                .map(|i| {
                    let d = probe.xor_count(points.point(i)) + unknown;
                    metric.of_mismatches(d, nf)
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Per-feature geometric-mean probability of a query under a baseline
/// mixture. 1.0 ≈ perfectly typical; 0 = impossible (contains a feature or
/// combination no component admits). The empty query scores 0 (nothing to
/// judge).
pub fn query_typicality(mixture: &NaiveMixtureEncoding, query: &QueryVector) -> f64 {
    if query.is_empty() {
        return 0.0;
    }
    let p = mixture.probability(query);
    if p <= 0.0 {
        return 0.0;
    }
    p.powf(1.0 / query.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logr_cluster::Clustering;
    use logr_feature::{Feature, LogIngest};
    use proptest::prelude::*;

    fn baseline_log() -> QueryLog {
        let mut ingest = LogIngest::new();
        for _ in 0..50 {
            ingest.ingest("SELECT id, body FROM messages WHERE status = ?");
            ingest.ingest("SELECT balance FROM accounts WHERE owner = ?");
        }
        ingest.finish().0
    }

    #[test]
    fn identical_windows_are_stable() {
        let base = baseline_log();
        let window = baseline_log();
        let report = feature_drift(&base, &window);
        assert!(report.overall < 1e-12, "overall {}", report.overall);
        assert!(report.new_features.is_empty());
        assert!(report.vanished_features.is_empty());
        assert!(report.is_stable(1e-9));
    }

    #[test]
    fn injected_workload_surfaces_new_features() {
        let base = baseline_log();
        let mut ingest = LogIngest::new();
        for _ in 0..50 {
            ingest.ingest("SELECT id, body FROM messages WHERE status = ?");
        }
        ingest.ingest("SELECT password_hash FROM credentials"); // injected
        let (window, _) = ingest.finish();

        let report = feature_drift(&base, &window);
        assert!(!report.is_stable(1e-9));
        assert!(
            report.new_features.iter().any(|f| f.contains("credentials")),
            "new features: {:?}",
            report.new_features
        );
        // The vanished accounts-workload features are reported too.
        assert!(!report.vanished_features.is_empty());
    }

    #[test]
    fn drift_magnitude_tracks_shift_size() {
        let base = baseline_log();
        // Small shift: 60/40 instead of 50/50.
        let mut small = LogIngest::new();
        for _ in 0..60 {
            small.ingest("SELECT id, body FROM messages WHERE status = ?");
        }
        for _ in 0..40 {
            small.ingest("SELECT balance FROM accounts WHERE owner = ?");
        }
        // Large shift: 95/5.
        let mut large = LogIngest::new();
        for _ in 0..95 {
            large.ingest("SELECT id, body FROM messages WHERE status = ?");
        }
        for _ in 0..5 {
            large.ingest("SELECT balance FROM accounts WHERE owner = ?");
        }
        let d_small = feature_drift(&base, &small.finish().0).overall;
        let d_large = feature_drift(&base, &large.finish().0).overall;
        assert!(d_small < d_large, "small {d_small} not below large {d_large}");
    }

    #[test]
    fn typicality_separates_phantoms() {
        use logr_feature::FeatureId;
        let qv = |ids: &[u32]| QueryVector::new(ids.iter().map(|&i| FeatureId(i)).collect());
        let mut log = QueryLog::new();
        log.add_vector(qv(&[0, 1]), 10);
        log.add_vector(qv(&[2, 3]), 10);
        let mixture = NaiveMixtureEncoding::build(&log, &Clustering::new(2, vec![0, 1]));

        let typical = query_typicality(&mixture, &qv(&[0, 1]));
        let phantom = query_typicality(&mixture, &qv(&[0, 2]));
        assert!(typical > 0.5, "typical query scored {typical}");
        assert_eq!(phantom, 0.0, "cross-workload phantom must score 0");
        assert_eq!(query_typicality(&mixture, &QueryVector::empty()), 0.0);
    }

    #[test]
    fn typicality_length_normalized() {
        use logr_feature::FeatureId;
        let qv = |ids: &[u32]| QueryVector::new(ids.iter().map(|&i| FeatureId(i)).collect());
        let mut log = QueryLog::new();
        log.add_vector(qv(&[0, 1, 2, 3]), 10);
        let mixture = NaiveMixtureEncoding::single(&log);
        // Certain features: both the short prefix pattern and the full
        // query are fully typical regardless of length.
        let short = query_typicality(&mixture, &qv(&[0, 1, 2, 3]));
        assert!((short - 1.0).abs() < 1e-9, "got {short}");
    }

    #[test]
    fn novelty_scores_flag_injected_queries() {
        let base = baseline_log();
        let mut ingest = LogIngest::new();
        ingest.ingest("SELECT id, body FROM messages WHERE status = ?"); // known
        ingest.ingest("SELECT password_hash FROM credentials"); // injected
        let (window, _) = ingest.finish();

        let scores = novelty_scores(&base, &window, Distance::Manhattan);
        assert_eq!(scores.len(), window.distinct_count());
        // The known query matches a baseline entry exactly; the injected
        // one is far from everything.
        assert_eq!(scores[0], 0.0, "known query should have a zero-distance match");
        assert!(scores[1] >= 2.0, "injected query scored {}", scores[1]);
    }

    #[test]
    fn injection_only_window_reports_positive_overall() {
        // Regression: `overall` used to average JS over *baseline* features
        // only, so a window whose baseline marginals are untouched but
        // which carries injected (window-only) features reported
        // `overall == 0` — stability then hinged entirely on the
        // `new_features` escape hatch.
        let mut b = LogIngest::new();
        for _ in 0..50 {
            b.ingest("SELECT a FROM t");
        }
        let (base, _) = b.finish();

        let mut w = LogIngest::new();
        for _ in 0..50 {
            w.ingest("SELECT a FROM t WHERE leak = ?"); // injected atom
        }
        let (window, _) = w.finish();

        let report = feature_drift(&base, &window);
        // Both baseline features (a, t) sit at marginal 1.0 in both logs…
        assert!(report.per_feature.iter().all(|&(_, d)| d < 1e-12));
        // …yet the injected feature must still move the mean: one new
        // feature at q = 1 contributes JS(0, 1) = ln 2 over 3 features.
        assert!(report.overall > 0.0, "injection-only window scored overall == 0");
        assert!(
            (report.overall - std::f64::consts::LN_2 / 3.0).abs() < 1e-9,
            "overall {} != ln2/3",
            report.overall
        );
        assert!(!report.is_stable(1e-9));
        assert_eq!(report.new_features.len(), 1);
    }

    #[test]
    fn all_unknown_query_scores_at_least_its_own_length() {
        // Regression: the normalizing universe must stay fixed at the
        // baseline's. The old per-probe denominator `nf + unknown` made
        // Hamming *shrink* as a query got more unknown features — an
        // all-unknown injection scored below its documented floor.
        let all_metrics =
            [Distance::Euclidean, Distance::Manhattan, Distance::Minkowski(4.0), Distance::Hamming];
        let mut b = LogIngest::new();
        b.ingest("SELECT a FROM t");
        b.ingest("SELECT b FROM t");
        let (base, _) = b.finish();
        let nf = base.num_features();

        let mut w = LogIngest::new();
        w.ingest("SELECT a FROM t"); // in-baseline
        w.ingest("SELECT b FROM t"); // in-baseline
        w.ingest("SELECT x, y FROM secret"); // all three features unknown
        let (window, _) = w.finish();

        for metric in all_metrics {
            let scores = novelty_scores(&base, &window, metric);
            assert_eq!(scores.len(), 3);
            let injected = scores[2];
            // Documented floor: at least its own length, through the
            // metric kernel at the baseline universe.
            let floor = metric.of_mismatches(3, nf);
            assert!(
                injected >= floor,
                "{metric:?}: all-unknown query scored {injected} below its length floor {floor}"
            );
            // And at least every in-baseline window query.
            for (i, &s) in scores.iter().enumerate().take(2) {
                assert!(
                    injected >= s,
                    "{metric:?}: all-unknown query {injected} below in-baseline query {i} ({s})"
                );
            }
        }
    }

    #[test]
    fn novelty_empty_logs() {
        let base = baseline_log();
        assert!(novelty_scores(&base, &QueryLog::new(), Distance::Manhattan).is_empty());
        assert!(novelty_scores(&QueryLog::new(), &base, Distance::Manhattan).is_empty());
    }

    #[test]
    fn js_divergence_properties() {
        assert_eq!(js_bernoulli(0.5, 0.5), 0.0);
        assert!(js_bernoulli(0.1, 0.9) > js_bernoulli(0.4, 0.6));
        // Symmetric and bounded by ln 2.
        assert!((js_bernoulli(0.2, 0.7) - js_bernoulli(0.7, 0.2)).abs() < 1e-12);
        assert!(js_bernoulli(0.0, 1.0) <= std::f64::consts::LN_2 + 1e-12);
    }

    const ALL_METRICS: [Distance; 4] =
        [Distance::Euclidean, Distance::Manhattan, Distance::Minkowski(3.0), Distance::Hamming];

    /// Reference for the lookup path: every window vector probes every
    /// baseline point, with no lookup and no lazy conversion. A raw
    /// window id past the window's codebook counts as unknown.
    fn novelty_scores_scan(baseline: &QueryLog, window: &QueryLog, metric: Distance) -> Vec<f64> {
        if baseline.distinct_count() == 0 || window.distinct_count() == 0 {
            return Vec::new();
        }
        let points = PointSet::from_log(baseline);
        let nf = baseline.num_features();
        window
            .entries()
            .iter()
            .map(|(v, _)| {
                let mut probe = BitVec::zeros(nf);
                let mut unknown = 0usize;
                for id in v.iter() {
                    let feature = (id.index() < window.codebook().len())
                        .then(|| window.codebook().feature(id));
                    match feature.and_then(|f| baseline.codebook().get(f)) {
                        Some(base_id) => probe.set(base_id.index()),
                        None => unknown += 1,
                    }
                }
                (0..points.len())
                    .map(|i| {
                        let d = probe.xor_count(points.point(i)) + unknown;
                        metric.of_mismatches(d, nf)
                    })
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    fn bits(scores: &[f64]) -> Vec<u64> {
        scores.iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn raw_window_id_counts_as_unknown() {
        // Regression: a raw window id with no codebook entry used to
        // panic in the window codebook's reverse lookup.
        let mut b = LogIngest::new();
        b.ingest("SELECT a FROM t");
        let (base, _) = b.finish();
        let mut window = QueryLog::new();
        window.add_vector(QueryVector::new(vec![FeatureId(7)]), 1);

        // Two baseline features missing plus one unknown.
        assert_eq!(novelty_scores(&base, &window, Distance::Manhattan), vec![3.0]);
        for metric in ALL_METRICS {
            assert_eq!(
                bits(&novelty_scores(&base, &window, metric)),
                bits(&novelty_scores_scan(&base, &window, metric)),
                "{metric:?}"
            );
        }
    }

    #[test]
    fn lookup_matches_scan_on_an_empty_universe_baseline() {
        // `nf == 0`: Hamming's `n == 0` arm, on both the lookup path (the
        // empty window vector) and the scan path (everything else).
        let mut base = QueryLog::new();
        base.add_vector(QueryVector::empty(), 3);
        assert_eq!(base.num_features(), 0);
        let mut w = LogIngest::new();
        w.ingest("SELECT a FROM t");
        let (mut window, _) = w.finish();
        window.add_vector(QueryVector::empty(), 1);
        window.add_vector(QueryVector::new(vec![FeatureId(9)]), 1);
        for metric in ALL_METRICS {
            let scores = novelty_scores(&base, &window, metric);
            assert_eq!(scores.len(), 3);
            assert_eq!(scores[1].to_bits(), 0.0f64.to_bits(), "{metric:?}");
            assert_eq!(bits(&scores), bits(&novelty_scores_scan(&base, &window, metric)));
        }
    }

    /// `(pool features, raw ids, count)` for one entry.
    type EntrySpec = (Vec<usize>, Vec<u32>, u64);

    /// Ten features over two classes; their ids depend on the order a
    /// log interns them.
    fn pool_feature(i: usize) -> Feature {
        if i.is_multiple_of(2) {
            Feature::select(format!("c{i}"))
        } else {
            Feature::from_table(format!("t{i}"))
        }
    }

    /// A log whose codebook first interns `order`, then each entry's
    /// features as the entry arrives; raw ids go in as they are.
    fn spec_log(order: &[usize], entries: &[EntrySpec]) -> QueryLog {
        let mut log = QueryLog::new();
        for &i in order {
            log.codebook_mut().intern(pool_feature(i));
        }
        for (features, raw, count) in entries {
            let mut ids: Vec<FeatureId> =
                features.iter().map(|&i| log.codebook_mut().intern(pool_feature(i))).collect();
            ids.extend(raw.iter().map(|&r| FeatureId(r)));
            log.add_vector(QueryVector::new(ids), *count);
        }
        log
    }

    fn arb_entries() -> impl Strategy<Value = Vec<EntrySpec>> {
        prop::collection::vec(
            (
                prop::collection::vec(0usize..10, 0..5),
                prop::collection::vec(6u32..20, 0..2),
                1u64..4,
            ),
            0..8,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lookup path returns the scan's bits under every metric.
        /// The two logs intern the pool in their own orders (so the
        /// translation is not the identity), each holds features the
        /// other lacks, raw ids land inside and past either codebook,
        /// vectors may be empty on both sides, the window re-spells some
        /// baseline entries by feature identity (exact holds), and one
        /// case in eight swaps in a baseline with `nf == 0`.
        #[test]
        fn lookup_matches_full_scan_bit_for_bit(
            base_order in prop::collection::vec(0usize..10, 0..10),
            base_entries in arb_entries(),
            win_order in prop::collection::vec(0usize..10, 0..10),
            win_entries in arb_entries(),
            shared in prop::collection::vec(0usize..8, 0..6),
            empty_universe in 0u8..8,
        ) {
            let base = if empty_universe == 0 {
                spec_log(&[], &[(Vec::new(), Vec::new(), 1)])
            } else {
                spec_log(&base_order, &base_entries)
            };
            let mut window_specs = win_entries;
            if !base_entries.is_empty() {
                window_specs.extend(shared.iter().map(|&j| {
                    (base_entries[j % base_entries.len()].0.clone(), Vec::new(), 1)
                }));
            }
            let window = spec_log(&win_order, &window_specs);
            for metric in ALL_METRICS {
                prop_assert_eq!(
                    bits(&novelty_scores(&base, &window, metric)),
                    bits(&novelty_scores_scan(&base, &window, metric)),
                    "{:?}",
                    metric
                );
            }
        }
    }
}
