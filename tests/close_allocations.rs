//! Allocation gate for a window close: how many heap allocations, and how
//! many requested bytes, one close of an in-memory engine makes in steady
//! state, on two fixed streams —
//!
//! * PocketData, tumbling windows of 256;
//! * US-bank, windows of 256 sliding by 64.
//!
//! Both cluster at k 4, and a reader holds a snapshot across every
//! close, so the close pays for copying what the reader still shares.
//! The ceilings are the counts measured when the gate was written plus
//! 5 %; a change that moves a stage of the close lowers its ceiling.
//!
//! A counting global allocator tallies every allocation (requested
//! sizes, not the allocator's overhead), so the figures are
//! deterministic. The clustering fan-out runs serially here
//! (`LOGR_THREADS=1`), so the counts do not depend on the machine's
//! cores. This file holds a single test so no other test allocates while
//! it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use logr::workload::{generate_pocketdata, generate_usbank, PocketDataConfig, UsBankConfig};
use logr::Engine;

/// Delegates to `System` and counts allocations and requested bytes.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is the one the caller upholds; the counters are
// bookkeeping beside the call and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` meets `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` meets `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller's
        // `new_size` meets `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Closes measured, after the history and the baseline rotation fill.
const MEASURED_CLOSES: u64 = 4;

/// Allocations and requested bytes per close in steady state, averaged
/// over `MEASURED_CLOSES` closes. The script first offers every distinct
/// statement once, then skewed draws from the same statements: once the
/// first pass has closed and four more windows (the baseline rotation)
/// have, no close finds a new distinct query.
fn per_close(engine: &Engine, statements: &[(String, u64)], stride: u64) -> (u64, u64) {
    let warmup = (statements.len() as u64).div_ceil(stride) + 4;
    let pass = statements.iter().map(|(text, _)| text.clone());
    let draws = skewed(statements, (stride * (warmup + MEASURED_CLOSES + 4)) as usize);
    let (mut closes, mut allocations, mut bytes) = (0, 0, 0);
    for text in pass.chain(draws) {
        let reader = engine.snapshot().expect("snapshot");
        let (a0, b0) = (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
        let closed = engine.ingest_record(&text).expect("ingest");
        let (a1, b1) = (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
        drop(reader);
        let Some(closed) = closed else { continue };
        closes += 1;
        if closes > warmup {
            assert_eq!(closed.new_distinct, 0, "close {closes} is not in steady state");
            allocations += a1 - a0;
            bytes += b1 - b0;
        }
        if closes == warmup + MEASURED_CLOSES {
            return (allocations / MEASURED_CLOSES, bytes / MEASURED_CLOSES);
        }
    }
    panic!("the script closed only {closes} windows");
}

/// `n` statements drawn from `statements` with a skew toward the front
/// of the list (the min of two xorshift draws).
fn skewed(statements: &[(String, u64)], n: usize) -> Vec<String> {
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % statements.len() as u64) as usize
    };
    (0..n).map(|_| statements[next().min(next())].0.clone()).collect()
}

#[test]
fn a_steady_state_close_allocates_under_its_ceiling() {
    std::env::set_var("LOGR_THREADS", "1");
    let check = |name: &str, measured: (u64, u64), ceiling: (u64, u64)| {
        let (allocations, bytes) = measured;
        println!("{name}: {allocations} allocations, {bytes} bytes per close");
        assert!(
            allocations <= ceiling.0,
            "{name}: {allocations} allocations per close, ceiling {}",
            ceiling.0
        );
        assert!(bytes <= ceiling.1, "{name}: {bytes} bytes per close, ceiling {}", ceiling.1);
    };

    let pocketdata = generate_pocketdata(&PocketDataConfig::default()).statements;
    let tumbling = Engine::builder().window(256).clusters(4).in_memory().expect("engine");
    let measured = per_close(&tumbling, &pocketdata, 256);
    check("PocketData, tumbling", measured, (POCKETDATA_ALLOCS, POCKETDATA_BYTES));

    let usbank = generate_usbank(&UsBankConfig::small(7)).statements;
    let sliding = Engine::builder().window(256).slide(64).clusters(4).in_memory().expect("engine");
    let measured = per_close(&sliding, &usbank, 64);
    check("US-bank, slide 64", measured, (USBANK_ALLOCS, USBANK_BYTES));
}

/// Ceilings: the per-close figures measured when the gate was written
/// (PocketData 18,684 allocations and 1,487,232 bytes; US-bank 17,534 and
/// 1,119,144) plus 5 %.
const POCKETDATA_ALLOCS: u64 = 19_618;
const POCKETDATA_BYTES: u64 = 1_561_593;
const USBANK_ALLOCS: u64 = 18_410;
const USBANK_BYTES: u64 = 1_175_101;
