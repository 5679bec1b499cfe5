//! Proof of `PmfScratch::reserve_kernel`'s contract: once a fresh
//! workspace is reserved for the largest kernel call it will run, every
//! call at or below that size — one-shot convolutions and a queue-prefix
//! chain alike — runs without touching the allocator.
//!
//! The whole file is a single `#[test]` in its own integration binary so no
//! concurrent test pollutes the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ecds_pmf::{Pmf, PmfScratch, ReductionPolicy};

/// System allocator wrapper that counts every allocation call.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// An `n`-impulse pmf with distinct, unevenly weighted support points.
fn spread(n: usize, base: f64, step: f64) -> Pmf {
    let pairs: Vec<(f64, f64)> = (0..n)
        .map(|i| (base + i as f64 * step, 1.0 + (i % 5) as f64))
        .collect();
    Pmf::from_pairs(&pairs).unwrap()
}

/// The kernel calls a decision makes at the production cap: 24 × 24 and
/// 12 × 24 one-shot convolutions, then a prefix load, truncation and a
/// three-step `convolve_prefix_with` chain. Returns a digest of the
/// results so the calls cannot be optimised away.
fn decision_calls(scratch: &mut PmfScratch, pmfs: &[Pmf; 4]) -> f64 {
    let [full, other, short, queued] = pmfs;
    let cap = ReductionPolicy::new(24);
    let mut digest = 0.0;
    digest += scratch
        .convolve_reduced_slices(full.impulses(), other.impulses(), cap)
        .expectation();
    digest += scratch
        .convolve_reduced_slices(short.impulses(), full.impulses(), cap)
        .expectation();
    digest += scratch
        .convolve_reduced_slices(full.impulses(), short.impulses(), cap)
        .expectation();
    scratch.load_prefix_shifted(full, 40.0);
    scratch.truncate_prefix_below_or_floor(700.0);
    for next in [other, queued, short] {
        scratch.convolve_prefix_with(next, cap);
    }
    digest + scratch.prefix().expectation()
}

#[test]
fn reserved_workspace_runs_production_shapes_without_allocating() {
    let pmfs = [
        spread(24, 650.0, 37.5),
        spread(24, 800.0, 21.25),
        spread(12, 300.0, 55.0),
        spread(24, 120.0, 9.0),
    ];

    // Control: an unreserved workspace allocates on these calls, so the
    // counter can see the kernel's buffers grow.
    let mut unreserved = PmfScratch::new();
    let before = allocations();
    let control = decision_calls(&mut unreserved, &pmfs);
    assert!(allocations() > before, "an unreserved workspace must grow");

    let mut scratch = PmfScratch::new();
    scratch.reserve_kernel(24 * 24);
    let before = allocations();
    let digest = decision_calls(&mut scratch, &pmfs);
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "a workspace reserved for 576 products allocated {during} times"
    );
    assert_eq!(digest.to_bits(), control.to_bits());
}
