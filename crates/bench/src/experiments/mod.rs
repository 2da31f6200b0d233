//! One module per reproduced table/figure; `repro --help` lists the
//! experiment ids.

pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;

use logr_feature::QueryVector;
use logr_feature::{FeatureId, LabeledDataset, QueryLog};

/// Convert (a subset of) a query log into a labeled dataset for the
/// baselines, using the paper's Appendix D.1 recipe: restrict to the
/// `max_features` highest-entropy features (Laserlight's PostgreSQL
/// implementation caps at 100 arguments), and use the highest-entropy
/// feature as the binary outcome attribute.
pub fn log_to_labeled(
    log: &QueryLog,
    entries: &[usize],
    max_features: usize,
) -> Option<(LabeledDataset, FeatureId)> {
    use logr_math::binary_entropy;
    let marginals = log.marginals_for(entries);
    let mut ranked: Vec<(usize, f64)> = marginals
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p > 0.0 && p < 1.0)
        .map(|(i, &p)| (i, binary_entropy(p)))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let label_feature = FeatureId(ranked.first()?.0 as u32);
    let kept: Vec<FeatureId> =
        ranked.iter().skip(1).take(max_features).map(|&(i, _)| FeatureId(i as u32)).collect();
    let keep_set = QueryVector::new(kept);

    let mut data = LabeledDataset::new(log.num_features());
    for &i in entries {
        let (v, c) = &log.entries()[i];
        let label = v.contains(label_feature);
        data.push(v.intersection(&keep_set), label, *c);
    }
    Some((data, label_feature))
}

/// Convert (a subset of) a query log into an unlabeled dataset (dummy
/// labels) for MTV, which summarizes the transactions themselves.
pub fn log_to_transactions(log: &QueryLog, entries: &[usize]) -> LabeledDataset {
    let mut data = LabeledDataset::new(log.num_features());
    for &i in entries {
        let (v, c) = &log.entries()[i];
        data.push(v.clone(), false, *c);
    }
    data
}
