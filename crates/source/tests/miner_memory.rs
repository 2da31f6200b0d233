//! Memory gate: the template miner's retained heap per distinct text is a
//! constant plus the text's own length. The miner must hold each distinct
//! text once (the journal and the lookup share one copy) and remember its
//! first-sight result as a pin, not as a copied feature tree.
//!
//! A counting global allocator tracks live heap bytes (requested sizes,
//! not the allocator's own overhead), so the figure is deterministic.
//! This file holds a single test so no other test allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use logr_source::{Featurizer, TemplateConfig, TemplateMiner};

/// Delegates to `System` and counts the bytes currently allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is the one the caller upholds; the counter is
// bookkeeping beside the call and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` meets `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` meets `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
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
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Lines of one shape whose request id is unique per line, as in a
/// service log that stamps every request: every line is a distinct text.
fn line(i: u32) -> String {
    format!("api: request req-{i:08} from 10.0.{}.{} served in {} ms", i % 251, i % 13, i % 997)
}

/// Heap bytes the miner may keep per distinct text beyond the text itself:
/// its journal slot and its lookup slot (at most twice their size, the
/// growth slack of a `Vec` and a `HashMap`), the shared text's reference
/// counts, and its pin's three parameter classes. A miner that copies the
/// text or keeps its feature tree keeps about twice this.
const PER_TEXT: usize = 200;

#[test]
fn retained_heap_per_distinct_text_is_a_constant_plus_its_length() {
    const LINES: u32 = 20_000;
    let before = LIVE.load(Ordering::Relaxed);
    let mut miner = TemplateMiner::new(TemplateConfig::default());
    let mut text_bytes = 0usize;
    for i in 0..LINES {
        let text = line(i);
        text_bytes += text.len();
        assert_eq!(miner.featurize(&text).len(), 1);
    }
    let retained = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    assert_eq!(miner.distinct_records(), LINES as usize);
    assert_eq!(miner.template_count(), 1);
    let bound = LINES as usize * PER_TEXT + text_bytes;
    assert!(
        retained <= bound,
        "{retained} bytes retained for {LINES} distinct texts of {text_bytes} bytes: {:.1} per \
         text beyond its length, bound {PER_TEXT}",
        (retained - text_bytes.min(retained)) as f64 / f64::from(LINES)
    );
    drop(miner);
}
