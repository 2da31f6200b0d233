//! Memory gate for the history read: `ShardedPointSet::try_condensed` over
//! a fully spilled store holds the matrix it returns plus at most one
//! reloaded shard — its file's bytes and the decoded counts — beyond a
//! small per-point allowance. Every shard holds one push's points, so
//! no file grows with the history and a read's peak is the matrix plus a
//! bounded remainder.
//!
//! A counting global allocator tracks live heap bytes and their peak
//! (requested sizes, not the allocator's own overhead), so the figure is
//! deterministic for a fixed worker count. This file holds a single test
//! so no other test allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use logr_cluster::{Distance, ShardedPointSet, SpillConfig};
use logr_feature::{FeatureId, QueryVector};
use logr_testkit::TempStore;

/// Delegates to `System` and counts the bytes currently allocated, and
/// the most that were allocated at once since the last reset.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is the one the caller upholds; the counters are
// bookkeeping beside the call and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` meets `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` meets `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller's
        // `new_size` meets `realloc`'s contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            // Both blocks may be live during the move: count the new one
            // before releasing the old.
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Pushes (one per streaming window that found new points) and points per
/// push.
const PUSHES: u32 = 32;
const PER_PUSH: u32 = 20;

/// Heap a read may hold per point beyond the matrix and one shard: the
/// merge's row cursors (16 B a row), one shard's segment list and the
/// worker buckets it is dealt into (32 B a segment each), and a decoded
/// bitset's header beyond its wire form (24 B a point of the shard).
const PER_POINT: usize = 128;

/// Constant slack: the scoped workers' own bookkeeping and the read's
/// small fixed-size allocations.
const FIXED: usize = 64 << 10;

fn qv(ids: &[u32]) -> QueryVector {
    QueryVector::new(ids.iter().map(|&i| FeatureId(i)).collect())
}

#[test]
fn a_read_holds_the_matrix_plus_one_shard() {
    let store = TempStore::new("read-memory");
    let mut set = ShardedPointSet::new();
    set.set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 }).unwrap();
    let mut i = 0u32;
    for push in 0..PUSHES {
        // The universe grows as the stream goes, as a codebook does.
        let nf = 64 + 2 * push;
        let vectors: Vec<QueryVector> = (0..PER_PUSH)
            .map(|_| {
                i += 1;
                qv(&[i % nf, (i * 7) % nf, (i * 13) % nf])
            })
            .collect();
        let refs: Vec<&QueryVector> = vectors.iter().collect();
        set.try_push_shard(&refs, nf as usize).unwrap();
    }
    // Every shard reloads, the tail included: the read's worst case.
    set.spill_all().unwrap();
    let largest_file = (0..set.n_shards())
        .map(|s| std::fs::metadata(set.shard_file(s).unwrap()).unwrap().len() as usize)
        .max()
        .unwrap();
    let n = set.len();
    let matrix_bytes = 8 * n * (n - 1) / 2;
    let bound = matrix_bytes + 2 * largest_file + PER_POINT * n + FIXED;

    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let matrix = set.try_condensed(Distance::Hamming).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - start;

    assert_eq!(matrix.n(), n);
    println!(
        "{n} points in {} shards: read peak {peak} B = matrix {matrix_bytes} B + {} B \
         (largest shard file {largest_file} B); bound {bound} B",
        set.n_shards(),
        peak - matrix_bytes
    );
    assert!(peak <= bound, "read peak {peak} B over its bound {bound} B");
}
