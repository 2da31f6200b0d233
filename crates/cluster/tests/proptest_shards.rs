//! Property tests for the sharded condensed build: a `ShardedPointSet`
//! assembled from arbitrary shard partitions (including shard size 1 and
//! one-shard-equals-whole-set) merges to the **bit-identical** condensed
//! matrix of the monolithic `PointSet::distances` build, for every §6.1
//! metric — mirroring PR 1's dense-vs-sparse oracle pattern. A second
//! battery covers the universe-growth path (early shards built
//! under a narrower codebook), and a third forces every shard
//! through the on-disk spill store — evict and reload included — and
//! proves the reloaded set bit-identical to both the all-resident set and
//! the monolithic build. Every battery interleaves zero-width pushes among
//! the real ones: they leave no shard, and the universe they report is
//! kept. A last test reruns this binary at forced worker counts to show
//! the fan-out does not change a bit.

use logr_cluster::{Distance, PointSet, ShardedPointSet, SpillConfig};
use logr_feature::{FeatureId, QueryVector};
use logr_testkit::TempStore;
use proptest::prelude::*;
fn all_metrics() -> Vec<Distance> {
    vec![Distance::Euclidean, Distance::Manhattan, Distance::Minkowski(4.0), Distance::Hamming]
}

/// Random point sets over random universe sizes (1–160 features, one to
/// three `u64` blocks), plus a shard size to partition them with and a
/// mask of zero-width pushes to interleave (see [`pushes`]).
fn arb_instance() -> impl Strategy<Value = (Vec<QueryVector>, usize, usize, u32)> {
    (
        1usize..160,
        prop::collection::vec(prop::collection::vec(0u32..4096, 0..12), 2..24),
        1usize..26,
        any::<u32>(),
    )
        .prop_map(|(universe, rows, shard_size, empties)| {
            let vectors: Vec<QueryVector> = rows
                .into_iter()
                .map(|ids| {
                    QueryVector::new(
                        ids.into_iter().map(|i| FeatureId(i % universe as u32)).collect(),
                    )
                })
                .collect();
            // Clamp so shard size 1, interior sizes, and the whole set all
            // occur.
            let shard_size = shard_size.min(vectors.len());
            (vectors, universe, shard_size, empties)
        })
}

/// The `(points, universe)` pushes an instance describes: `refs` in
/// `shard_size` chunks (at most 23) at `universe`, a zero-width push ahead
/// of chunk `s` wherever bit `s` of `empties` is set, and `final_universe`
/// arriving with the last chunk — or, when bit 31 is set, with one more
/// zero-width push after it, which carries nothing but its universe.
fn pushes<'a>(
    refs: &'a [&'a QueryVector],
    shard_size: usize,
    empties: u32,
    universe: usize,
    final_universe: usize,
) -> Vec<(&'a [&'a QueryVector], usize)> {
    let widen_last = empties >> 31 == 0;
    let chunks = refs.chunks(shard_size).count();
    let mut out = Vec::new();
    for (s, chunk) in refs.chunks(shard_size).enumerate() {
        if empties >> s & 1 == 1 {
            out.push((&refs[..0], universe));
        }
        out.push((chunk, if widen_last && s + 1 == chunks { final_universe } else { universe }));
    }
    if !widen_last {
        out.push((&refs[..0], final_universe));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded build == monolithic build, bit for bit, for every metric
    /// and every shard partition; a shard per non-empty push, no more.
    #[test]
    fn sharded_merge_bit_identical_to_monolithic(
        (vectors, universe, shard_size, empties) in arb_instance(),
    ) {
        let refs: Vec<&QueryVector> = vectors.iter().collect();
        let monolithic = PointSet::from_vectors(&refs, universe);
        let mut sharded = ShardedPointSet::new();
        for (chunk, width) in pushes(&refs, shard_size, empties, universe, universe) {
            sharded.try_push_shard(chunk, width).unwrap();
        }
        prop_assert_eq!(sharded.len(), refs.len());
        prop_assert_eq!(sharded.n_shards(), refs.chunks(shard_size).count());
        for metric in all_metrics() {
            let whole = monolithic.distances(metric);
            let merged = sharded.try_condensed(metric).unwrap();
            prop_assert_eq!(merged.n(), whole.n());
            for (a, b) in merged.as_slice().iter().zip(whole.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?} shard_size={}", metric, shard_size);
            }
        }
    }

    /// Spill → evict → reload round-trip (the PR 3 headline): a set whose
    /// shards are forced through the on-disk store — budget 0 evicts
    /// everything but the pinned tail during the build, and `spill_all`
    /// then forces *every* shard (tail included) out before reading —
    /// serves condensed merges **bit-identical** to the
    /// all-resident `ShardedPointSet` and to the monolithic
    /// `PointSet::distances`, across every §6.1 metric, every shard
    /// partition (size 1 through whole-set), and growing universes
    /// (widened on the last shard, or by an empty push after it — the
    /// streaming codebook-growth path crosses the store too).
    #[test]
    fn spilled_reload_bit_identical_to_resident_and_monolithic(
        (vectors, universe, shard_size, empties) in arb_instance(),
        growth in 1usize..64,
    ) {
        let store = TempStore::new("proptest-spill");
        let refs: Vec<&QueryVector> = vectors.iter().collect();
        let final_universe = universe + growth;
        let mut resident = ShardedPointSet::new();
        let mut spilled = ShardedPointSet::new();
        spilled.set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 })
            .expect("attach spill store");
        for (chunk, width) in pushes(&refs, shard_size, empties, universe, final_universe) {
            resident.try_push_shard(chunk, width).unwrap();
            spilled.try_push_shard(chunk, width).unwrap();
        }
        // Budget 0 pinned only the hot tail — the newest push that brought
        // points — during the build…
        prop_assert_eq!(spilled.n_shards(), refs.chunks(shard_size).count());
        prop_assert_eq!(spilled.spilled_shards(), spilled.n_shards() - 1);
        // …and forced eviction takes the tail too: nothing stays resident.
        spilled.spill_all().expect("force-evict every shard");
        prop_assert_eq!(spilled.resident_bytes(), 0);

        let monolithic = PointSet::from_vectors(&refs, final_universe);
        for metric in all_metrics() {
            let whole = monolithic.distances(metric);
            let from_disk = spilled.try_condensed(metric).unwrap();
            let from_ram = resident.try_condensed(metric).unwrap();
            prop_assert_eq!(from_disk.n(), whole.n());
            for ((a, b), c) in
                from_disk.as_slice().iter().zip(from_ram.as_slice()).zip(whole.as_slice())
            {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?} disk != resident", metric);
                prop_assert_eq!(a.to_bits(), c.to_bits(), "{:?} disk != monolithic", metric);
            }
        }
        // Six full merges over a fully spilled set left nothing resident.
        prop_assert_eq!(spilled.resident_bytes(), 0);
    }

    /// Early shards built under a narrower universe merge identically to a
    /// monolithic build at the final width (the streaming codebook-growth
    /// path), whichever push — the last shard or an empty one after it —
    /// brought that width.
    #[test]
    fn growing_universe_matches_final_width_build(
        (vectors, universe, shard_size, empties) in arb_instance(),
        growth in 1usize..64,
    ) {
        let refs: Vec<&QueryVector> = vectors.iter().collect();
        let final_universe = universe + growth;
        let mut sharded = ShardedPointSet::new();
        for (chunk, width) in pushes(&refs, shard_size, empties, universe, final_universe) {
            sharded.try_push_shard(chunk, width).unwrap();
        }
        prop_assert_eq!(sharded.n_features(), final_universe);
        let monolithic = PointSet::from_vectors(&refs, final_universe);
        for metric in all_metrics() {
            let whole = monolithic.distances(metric);
            let merged = sharded.try_condensed(metric).unwrap();
            for (a, b) in merged.as_slice().iter().zip(whole.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?}", metric);
            }
        }
    }
}

/// Set in the child processes of
/// [`shard_fanout_deterministic_across_thread_counts`]: print the digest
/// of the fan-out instance and stop.
const FANOUT_CHILD: &str = "LOGR_SHARD_FANOUT_CHILD";

/// FNV-1a over the merged Manhattan bits of a fixed two-push instance
/// large enough that the intra triangle, the cross block (against a
/// narrower first shard) and the merge all cross the fan-out threshold.
fn fanout_digest() -> u64 {
    let vectors: Vec<QueryVector> = (0..300u32)
        .map(|i| {
            let mut ids = vec![i % 32, (i * 7) % 32, (i * 13) % 32];
            if i >= 150 {
                ids.push(32 + (i * 5) % 64);
            }
            QueryVector::new(ids.into_iter().map(FeatureId).collect())
        })
        .collect();
    let refs: Vec<&QueryVector> = vectors.iter().collect();
    let mut sharded = ShardedPointSet::new();
    for (chunk, width) in pushes(&refs, 150, 0, 32, 96) {
        sharded.try_push_shard(chunk, width).unwrap();
    }
    let merged = sharded.try_condensed(Distance::Manhattan).unwrap();
    merged
        .as_slice()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, d| (h ^ d.to_bits()).wrapping_mul(0x0100_0000_01b3))
}

/// The shard fan-out writes disjoint slices of integer mismatch counts,
/// so every worker count yields the same merged bits. The worker cap is
/// read once per process from `LOGR_THREADS`, so the test reruns itself
/// at 1, 2, 3 and 8 workers and compares the children's digests with
/// each other and with this process's.
#[test]
fn shard_fanout_deterministic_across_thread_counts() {
    if std::env::var_os(FANOUT_CHILD).is_some() {
        println!("digest={}", fanout_digest());
        return;
    }
    let exe = std::env::current_exe().unwrap();
    let here = fanout_digest();
    for n_threads in [1usize, 2, 3, 8] {
        let out = std::process::Command::new(&exe)
            .args(["shard_fanout_deterministic_across_thread_counts", "--exact", "--nocapture"])
            .env("LOGR_THREADS", n_threads.to_string())
            .env(FANOUT_CHILD, "1")
            .output()
            .unwrap();
        assert!(out.status.success(), "child at n_threads={n_threads} failed: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let digest = stdout.lines().find_map(|l| l.strip_prefix("digest="));
        assert_eq!(digest, Some(here.to_string().as_str()), "n_threads={n_threads}");
    }
}
