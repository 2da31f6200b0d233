//! Property tests: sparse vectors and dense bitsets agree with a BTreeSet
//! reference model on all set operations.

use logr_feature::{BitVec, FeatureId, QueryVector};
use proptest::prelude::*;
use std::collections::BTreeSet;

const UNIVERSE: u32 = 192;

fn arb_ids() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..UNIVERSE, 0..24)
}

fn qv(ids: &[u32]) -> QueryVector {
    QueryVector::new(ids.iter().map(|&i| FeatureId(i)).collect())
}

fn set(ids: &[u32]) -> BTreeSet<u32> {
    ids.iter().copied().collect()
}

proptest! {
    #[test]
    fn vector_matches_set_model(a in arb_ids(), b in arb_ids()) {
        let (va, vb) = (qv(&a), qv(&b));
        let (sa, sb) = (set(&a), set(&b));

        prop_assert_eq!(va.len(), sa.len());
        prop_assert_eq!(va.intersection_size(&vb), sa.intersection(&sb).count());
        prop_assert_eq!(va.union_size(&vb), sa.union(&sb).count());
        prop_assert_eq!(
            va.symmetric_difference_size(&vb),
            sa.symmetric_difference(&sb).count()
        );
        prop_assert_eq!(va.contains_all(&vb), sb.is_subset(&sa));

        let u: BTreeSet<u32> = va.union(&vb).iter().map(|f| f.0).collect();
        prop_assert_eq!(u, sa.union(&sb).copied().collect::<BTreeSet<u32>>());
        let i: BTreeSet<u32> = va.intersection(&vb).iter().map(|f| f.0).collect();
        prop_assert_eq!(i, sa.intersection(&sb).copied().collect::<BTreeSet<u32>>());
    }

    #[test]
    fn bitvec_agrees_with_sparse(a in arb_ids(), b in arb_ids()) {
        let (va, vb) = (qv(&a), qv(&b));
        let da = BitVec::from_query_vector(&va, UNIVERSE as usize);
        let db = BitVec::from_query_vector(&vb, UNIVERSE as usize);

        prop_assert_eq!(da.count_ones(), va.len());
        prop_assert_eq!(da.xor_count(&db), va.symmetric_difference_size(&vb));
        prop_assert_eq!(da.contains_all(&db), va.contains_all(&vb));
        prop_assert_eq!(da.to_query_vector(), va);
    }

    #[test]
    fn containment_is_a_partial_order(a in arb_ids(), b in arb_ids(), c in arb_ids()) {
        let (va, vb, vc) = (qv(&a), qv(&b), qv(&c));
        // Reflexivity.
        prop_assert!(va.contains_all(&va));
        // Antisymmetry.
        if va.contains_all(&vb) && vb.contains_all(&va) {
            prop_assert_eq!(&va, &vb);
        }
        // Transitivity.
        if va.contains_all(&vb) && vb.contains_all(&vc) {
            prop_assert!(va.contains_all(&vc));
        }
    }

    #[test]
    fn construction_canonical(mut ids in arb_ids()) {
        let v1 = qv(&ids);
        ids.reverse();
        ids.extend(ids.clone()); // duplicates
        let v2 = qv(&ids);
        prop_assert_eq!(v1, v2);
    }
}
