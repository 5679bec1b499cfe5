//! Allocation-free fused convolution kernel over a reusable workspace.
//!
//! The mapper hot path (Sec. IV-B) convolves a queue-prefix pmf with an
//! execution-time pmf for *every* (core, P-state) candidate of every
//! mapping event — millions of times per experiment grid. The legacy
//! pipeline ([`crate::convolve::convolve`] → [`crate::reduce::reduce`])
//! allocates an `n × m` impulse buffer, stable-sorts it (another hidden
//! allocation), constructs an intermediate [`Pmf`], and then `reduce`
//! allocates (or clones) once more. [`PmfScratch`] fuses the pipeline into
//! passes over buffers that are reused across calls, so the steady-state
//! cost is arithmetic only.
//!
//! # Bit-identity contract
//!
//! The fused kernel produces output **bit-identical** to the legacy
//! pipeline — not approximately equal. This is load-bearing: the
//! queue-prefix cache (DESIGN.md §7) argues correctness via "recompute ≡
//! cached bit-for-bit", and impulse reduction makes convolution
//! non-associative, so any rounding divergence would compound across a
//! trial. Three properties carry the contract:
//!
//! 1. **Sorting.** The legacy path stable-sorts the `n × m` products by
//!    `f64::total_cmp`. A stable sort's output *sequence* is uniquely
//!    determined (non-decreasing values, ties in original order), so any
//!    stable algorithm reproduces it bit-for-bit. The kernel counting-sorts
//!    the products: each gets the unsigned key that orders like
//!    `total_cmp`; float addition is monotone in each operand, so the keys
//!    of `small[0] + large[0]` and `small[n-1] + large[m-1]` bound every
//!    key; and a right shift of `key − lo` buckets the products
//!    monotonically into at most `2·(n·m).next_power_of_two()` buckets.
//!    Scattering in row-major order keeps ties in legacy order, and one
//!    insertion pass that moves an element only past strictly greater ones
//!    finishes each bucket stably — `O(n·m)` on spread values, with no
//!    allocation once the workspace has grown.
//! 2. **Summation order.** Coincident-value merging accumulates
//!    probabilities in emission order, exactly as
//!    `sort_and_merge` (in `crate::pmf`) does; the reduction pass replays
//!    [`crate::reduce::reduce`]'s bucket walk (including its running
//!    emitted-mass accumulator) operation for operation.
//! 3. **Post-reduction normalization.** `reduce` stable-sorts and
//!    coincidence-merges its bucket centroids; the kernel does the same
//!    with an in-place insertion sort (stable, therefore the same
//!    permutation) and an in-place merge.
//!
//! The legacy entry points remain untouched as the differential reference;
//! `crates/pmf/tests/kernel_equivalence.rs` proves the equivalence over
//! arbitrary pmfs, policies, and chained convolutions.

use std::cmp::Ordering;

use crate::impulse::Impulse;
use crate::pmf::{values_coincide, Pmf};
use crate::reduce::ReductionPolicy;
use crate::{Prob, Time};

/// A borrowed view of a valid impulse sequence (sorted, merged, positive,
/// unit mass) living in a [`PmfScratch`] buffer.
///
/// Mirrors the read-only query API of [`Pmf`] with the *same* floating-point
/// evaluation order, so moments and tail probabilities computed through a
/// view are bit-identical to materializing a `Pmf` first.
#[derive(Debug, Clone, Copy)]
pub struct PmfView<'a> {
    impulses: &'a [Impulse],
}

impl<'a> PmfView<'a> {
    fn new(impulses: &'a [Impulse]) -> Self {
        debug_assert!(!impulses.is_empty(), "views require at least one impulse");
        Self { impulses }
    }

    /// The impulses, sorted ascending by value.
    #[inline]
    pub fn impulses(&self) -> &'a [Impulse] {
        self.impulses
    }

    /// Number of support points.
    #[inline]
    pub fn len(&self) -> usize {
        self.impulses.len()
    }

    /// `true` for an empty view (unconstructible; API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.impulses.is_empty()
    }

    /// Smallest support value.
    #[inline]
    pub fn min_value(&self) -> Time {
        self.impulses[0].value
    }

    /// Largest support value.
    #[inline]
    pub fn max_value(&self) -> Time {
        self.impulses[self.impulses.len() - 1].value
    }

    /// The expectation `E[X]` — same summation order as
    /// [`Pmf::expectation`].
    pub fn expectation(&self) -> f64 {
        self.impulses.iter().map(Impulse::weighted_value).sum()
    }

    /// `P(X <= x)` — same accumulation order as [`Pmf::prob_le`].
    pub fn prob_le(&self, x: Time) -> Prob {
        let mut acc = 0.0;
        for imp in self.impulses {
            if imp.value <= x {
                acc += imp.prob;
            } else {
                break;
            }
        }
        acc.min(1.0)
    }

    /// Materializes the view as an owned [`Pmf`] (the view's one
    /// allocation; use the slice queries when the distribution is
    /// consumed immediately).
    pub fn to_pmf(&self) -> Pmf {
        Pmf::from_invariant_impulses(self.impulses.to_vec())
    }

    /// Deterministic 64-bit fingerprint of the viewed impulses' exact bit
    /// pattern — same hash as [`Pmf::fingerprint`], so a view and its
    /// materialized pmf always agree.
    pub fn fingerprint(&self) -> u64 {
        crate::impulse::fingerprint_impulses(self.impulses)
    }
}

/// Reusable workspace for the fused convolve→merge→reduce kernel and for a
/// resident queue-prefix pmf built without intermediate allocations.
///
/// One scratch serves one evaluation thread; buffers grow to the high-water
/// mark of the workload and are then reused, so steady-state kernel calls
/// perform **zero heap allocations**. The struct also counts kernel
/// invocations ([`PmfScratch::kernel_calls`]) so callers can report
/// allocation-free-path coverage.
#[derive(Debug, Default)]
pub struct PmfScratch {
    /// The `n × m` products, sorted by value (ties in row-major order).
    products: Vec<Impulse>,
    /// The counting sort's per-bucket counts, then its scatter cursors.
    counts: Vec<u32>,
    /// Sorted, coincidence-merged support of the convolution.
    merged: Vec<Impulse>,
    /// Final (reduced) result of the most recent kernel call.
    out: Vec<Impulse>,
    /// The resident queue-prefix pmf (empty = no prefix loaded).
    prefix: Vec<Impulse>,
    /// Fused kernel invocations since construction or the last
    /// [`PmfScratch::reset_kernel_calls`].
    kernel_calls: u64,
}

impl PmfScratch {
    /// An empty workspace; buffers are grown lazily by the first calls.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of fused kernel invocations recorded so far.
    #[inline]
    pub fn kernel_calls(&self) -> u64 {
        self.kernel_calls
    }

    /// Zeroes the kernel invocation counter (buffers are kept).
    pub fn reset_kernel_calls(&mut self) {
        self.kernel_calls = 0;
    }

    /// Restores the kernel invocation counter to a checkpointed value, so
    /// a resumed run reports the same cumulative instrumentation as an
    /// uninterrupted one. The workspace buffers are untouched — they carry
    /// no observable state between kernel calls.
    pub fn set_kernel_calls(&mut self, calls: u64) {
        self.kernel_calls = calls;
    }

    /// Grows the kernel buffers, and the prefix buffer that trades places
    /// with the kernel output, so that any later kernel call with at most
    /// `products` pairwise products (`a.len() × b.len()`) — and any prefix
    /// load or chain built from such calls — runs without allocating. For
    /// a workspace whose calls are not known in advance — the two lanes of
    /// a fanned-out decision split its calls by schedule — this reaches the
    /// high-water mark that running every call would.
    pub fn reserve_kernel(&mut self, products: usize) {
        for buf in [
            &mut self.products,
            &mut self.merged,
            &mut self.out,
            &mut self.prefix,
        ] {
            buf.reserve(products.saturating_sub(buf.len()));
        }
        let buckets = max_buckets(products);
        self.counts
            .reserve(buckets.saturating_sub(self.counts.len()));
    }

    /// Fused equivalent of `a.convolve(b, policy)`: convolves and reduces
    /// entirely inside the workspace and returns a view of the result,
    /// valid until the next call that touches the workspace.
    ///
    /// Bit-identical to the legacy pipeline (see the module docs).
    pub fn convolve_reduced(&mut self, a: &Pmf, b: &Pmf, policy: ReductionPolicy) -> PmfView<'_> {
        self.convolve_reduced_slices(a.impulses(), b.impulses(), policy)
    }

    /// [`PmfScratch::convolve_reduced`] over raw impulse slices (both must
    /// satisfy the [`Pmf`] invariants).
    pub fn convolve_reduced_slices(
        &mut self,
        a: &[Impulse],
        b: &[Impulse],
        policy: ReductionPolicy,
    ) -> PmfView<'_> {
        let Self {
            products,
            counts,
            merged,
            out,
            kernel_calls,
            ..
        } = self;
        fused_convolve_reduce(a, b, policy, products, counts, merged, out);
        *kernel_calls += 1;
        PmfView::new(out)
    }

    // --- resident queue-prefix operations -------------------------------

    /// Discards the resident prefix (the "idle empty core" state).
    pub fn clear_prefix(&mut self) {
        self.prefix.clear();
    }

    /// `true` when a prefix is loaded.
    #[inline]
    pub fn has_prefix(&self) -> bool {
        !self.prefix.is_empty()
    }

    /// A view of the resident prefix.
    ///
    /// # Panics
    ///
    /// Panics (via the view's debug assertion) if no prefix is loaded;
    /// check [`PmfScratch::has_prefix`] first.
    pub fn prefix(&self) -> PmfView<'_> {
        PmfView::new(&self.prefix)
    }

    /// Loads `pmf.shift(dt)` as the resident prefix without allocating —
    /// the buffer-reuse equivalent of [`Pmf::shift`], value arithmetic
    /// identical (`value + dt` per impulse).
    pub fn load_prefix_shifted(&mut self, pmf: &Pmf, dt: Time) {
        assert!(dt.is_finite(), "shift must be finite");
        self.prefix.clear();
        self.prefix.extend(
            pmf.impulses()
                .iter()
                .map(|i| Impulse::new(i.value + dt, i.prob)),
        );
    }

    /// In-place [`crate::truncate::truncate_below_or_floor`] on the
    /// resident prefix: drops impulses below `cutoff` and renormalizes with
    /// the same summation order as the legacy function; if every impulse is
    /// in the past the prefix degenerates to a singleton at `cutoff`.
    pub fn truncate_prefix_below_or_floor(&mut self, cutoff: Time) {
        assert!(cutoff.is_finite(), "cutoff must be finite");
        debug_assert!(self.has_prefix(), "no prefix loaded");
        // Support is sorted, so the kept impulses are a suffix.
        let kept_from = self
            .prefix
            .iter()
            .position(|i| i.value >= cutoff)
            .unwrap_or(self.prefix.len());
        self.prefix.drain(..kept_from);
        if self.prefix.is_empty() {
            self.prefix.push(Impulse::new(cutoff, 1.0));
            return;
        }
        // Same order as `truncate_below`: sum the kept run, then divide.
        let mass: f64 = self.prefix.iter().map(|i| i.prob).sum();
        for imp in &mut self.prefix {
            imp.prob /= mass;
        }
    }

    /// Replaces the resident prefix with `prefix ⊛ b` (reduced per
    /// `policy`) via the fused kernel — the zero-allocation equivalent of
    /// `prefix = prefix.convolve(b, policy)`.
    pub fn convolve_prefix_with(&mut self, b: &Pmf, policy: ReductionPolicy) {
        debug_assert!(self.has_prefix(), "no prefix loaded");
        let Self {
            products,
            counts,
            merged,
            out,
            prefix,
            kernel_calls,
        } = self;
        fused_convolve_reduce(prefix, b.impulses(), policy, products, counts, merged, out);
        *kernel_calls += 1;
        std::mem::swap(prefix, out);
    }
}

/// The fused kernel: convolve `a ⊛ b`, merge coincident support points, and
/// reduce to `policy.max_impulses`, leaving the result in `out`. All
/// buffers are caller-owned and reused; no allocation happens once they
/// have grown to the workload's high-water mark.
// lint: alloc-free
#[allow(clippy::too_many_arguments)]
fn fused_convolve_reduce(
    a: &[Impulse],
    b: &[Impulse],
    policy: ReductionPolicy,
    products: &mut Vec<Impulse>,
    counts: &mut Vec<u32>,
    merged: &mut Vec<Impulse>,
    out: &mut Vec<Impulse>,
) {
    debug_assert!(!a.is_empty() && !b.is_empty());
    // Same operand orientation as the legacy `convolve` (ties keep `a`).
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let (n, m) = (small.len(), large.len());

    // Pass 1: count the n × m products per bucket. Products are generated
    // row-major with the legacy product loop's `value + value` arithmetic;
    // float addition is monotone in each operand, so the first and last
    // products bound every key, and `(key − lo) >> shift` is monotone.
    let total = n * m;
    assert!(
        u32::try_from(total).is_ok(),
        "bucket counts are u32: at most u32::MAX products per call"
    );
    let lo = sort_key(small[0].value + large[0].value);
    let hi = sort_key(small[n - 1].value + large[m - 1].value);
    debug_assert!(lo <= hi);
    let shift = bucket_shift(hi - lo, total);
    counts.clear();
    counts.resize(((hi - lo) >> shift) as usize + 1, 0);
    for ia in small {
        for ib in large {
            let key = sort_key(ia.value + ib.value);
            debug_assert!((lo..=hi).contains(&key));
            counts[((key - lo) >> shift) as usize] += 1;
        }
    }
    // Exclusive prefix sum: each count becomes its bucket's first slot.
    let mut next = 0u32;
    for count in counts.iter_mut() {
        let len = *count;
        *count = next;
        next += len;
    }

    // Pass 2: recompute the products (same arithmetic, same bits) and
    // scatter them in row-major order, so ties keep the legacy order, then
    // finish each bucket with one stable insertion pass. A stable sort's
    // output is unique, so this is exactly the legacy `sort_by(total_cmp)`
    // order. The sorted products are then streamed through the
    // coincident-value merge, replaying `sort_and_merge`'s accumulation.
    products.clear();
    products.resize(total, Impulse::new(0.0, 1.0));
    for ia in small {
        for ib in large {
            let value = ia.value + ib.value;
            let slot = &mut counts[((sort_key(value) - lo) >> shift) as usize];
            products[*slot as usize] = Impulse::new(value, ia.prob * ib.prob);
            *slot += 1;
        }
    }
    insertion_sort_stable(products);
    merged.clear();
    for &imp in products.iter() {
        push_merged(merged, imp);
    }

    // Pass 3: equal-mass impulse reduction, replaying `reduce`'s bucket
    // walk exactly. At or under the cap the merged support *is* the result
    // (the legacy path clones here; we just hand the buffer over).
    let cap = policy.max_impulses;
    if merged.len() <= cap {
        std::mem::swap(merged, out);
    } else {
        reduce_into(merged, cap, out);
    }

    debug_assert!(!out.is_empty());
    debug_assert!(out.windows(2).all(|w| w[0].value < w[1].value));
    debug_assert!(out.iter().all(Impulse::is_valid));
    debug_assert!(
        (out.iter().map(|i| i.prob).sum::<f64>() - 1.0).abs() < 1e-6,
        "kernel output mass must be 1"
    );
}

/// The unsigned integer that orders exactly like [`f64::total_cmp`]
/// (including `−0.0 < +0.0`): negative values have every bit flipped,
/// non-negative ones only the sign bit.
#[inline]
fn sort_key(value: f64) -> u64 {
    let bits = value.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The bucket budget of a counting sort over `products` keys: twice the
/// next power of two, so a bucket holds at most half a product on average.
fn max_buckets(products: usize) -> usize {
    2 * products.next_power_of_two()
}

/// The smallest right shift that maps a key span of `span` into at most
/// [`max_buckets`]`(products)` buckets.
fn bucket_shift(span: u64, products: usize) -> u32 {
    let span_bits = u64::BITS - span.leading_zeros();
    span_bits.saturating_sub(max_buckets(products).trailing_zeros())
}

/// Streaming arm of [`crate::pmf::sort_and_merge`]: merge `imp` into the
/// last emitted impulse when their values coincide, preserving the legacy
/// accumulation order.
#[inline]
fn push_merged(merged: &mut Vec<Impulse>, imp: Impulse) {
    match merged.last_mut() {
        Some(last) if values_coincide(last.value, imp.value) => {
            last.prob += imp.prob;
        }
        _ => merged.push(imp),
    }
}

/// The equal-mass bucket pass of [`crate::reduce::reduce`], writing into a
/// reused buffer. Operation-for-operation identical to the legacy function
/// (including the running emitted-mass accumulator and the trailing
/// stable-sort + coincidence-merge), minus its allocations.
fn reduce_into(src: &[Impulse], cap: usize, out: &mut Vec<Impulse>) {
    debug_assert!(src.len() > cap && cap >= 1);
    let target_mass = 1.0 / cap as f64;
    out.clear();
    let mut bucket_mass = 0.0;
    let mut bucket_weighted = 0.0;
    let mut filled_buckets = 0usize;
    let mut emitted_mass = 0.0;
    let n = src.len();
    for (idx, imp) in src.iter().enumerate() {
        bucket_mass += imp.prob;
        bucket_weighted += imp.weighted_value();
        let remaining_impulses = n - idx - 1;
        let remaining_buckets = cap - filled_buckets - 1;
        let must_flush = remaining_impulses == remaining_buckets && remaining_buckets > 0;
        let quota_met =
            bucket_mass + 1e-15 >= target_mass * (filled_buckets + 1) as f64 - emitted_mass;
        if (quota_met || must_flush) && remaining_buckets > 0 {
            out.push(Impulse::new(bucket_weighted / bucket_mass, bucket_mass));
            emitted_mass += bucket_mass;
            filled_buckets += 1;
            bucket_mass = 0.0;
            bucket_weighted = 0.0;
        }
    }
    if bucket_mass > 0.0 {
        out.push(Impulse::new(bucket_weighted / bucket_mass, bucket_mass));
    }
    debug_assert!(out.len() <= cap);
    // `reduce` runs `sort_and_merge` on its bucket centroids; replicate
    // with a stable in-place sort (same permutation as any stable sort —
    // centroids are already sorted in all but pathological rounding cases)
    // and an in-place coincidence merge (same accumulation order).
    insertion_sort_stable(out);
    merge_coincident_in_place(out);
}

/// Stable in-place insertion sort by [`f64::total_cmp`] — linear on
/// nearly sorted input (bucketed products, bucket centroids), and by
/// stability bit-identical in output order to the legacy `sort_by`. An
/// element moves only past strictly greater ones.
fn insertion_sort_stable(xs: &mut [Impulse]) {
    for i in 1..xs.len() {
        let cur = xs[i];
        let mut j = i;
        while j > 0 && xs[j - 1].value.total_cmp(&cur.value) == Ordering::Greater {
            xs[j] = xs[j - 1];
            j -= 1;
        }
        xs[j] = cur;
    }
}

/// In-place arm of [`crate::pmf::sort_and_merge`]'s coincidence merge:
/// compacts runs of coinciding values into their first element, summing
/// probabilities in the legacy order.
fn merge_coincident_in_place(xs: &mut Vec<Impulse>) {
    if xs.is_empty() {
        return;
    }
    let mut w = 0usize;
    for r in 1..xs.len() {
        if values_coincide(xs[w].value, xs[r].value) {
            let prob = xs[r].prob;
            xs[w].prob += prob;
        } else {
            w += 1;
            xs[w] = xs[r];
        }
    }
    xs.truncate(w + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolve::convolve;
    use crate::truncate::truncate_below_or_floor;

    fn pmf(pairs: &[(f64, f64)]) -> Pmf {
        Pmf::from_pairs(pairs).unwrap()
    }

    fn wide(n: usize) -> Pmf {
        let pairs: Vec<(f64, f64)> = (0..n).map(|i| (i as f64 * 1.7, 1.0 + i as f64)).collect();
        Pmf::from_pairs(&pairs).unwrap()
    }

    #[test]
    fn fused_matches_legacy_bitwise_simple() {
        let a = pmf(&[(1.0, 0.3), (2.0, 0.7)]);
        let b = pmf(&[(0.5, 0.5), (4.0, 0.25), (8.0, 0.25)]);
        let mut scratch = PmfScratch::new();
        for policy in [
            ReductionPolicy::unlimited(),
            ReductionPolicy::new(1),
            ReductionPolicy::new(3),
            ReductionPolicy::default_cap(),
        ] {
            let legacy = convolve(&a, &b, policy);
            let fused = scratch.convolve_reduced(&a, &b, policy).to_pmf();
            assert_eq!(fused, legacy);
        }
    }

    #[test]
    fn fused_matches_legacy_with_overlapping_sums() {
        // 1+4 == 2+3: exercises the coincidence merge.
        let a = pmf(&[(1.0, 0.5), (2.0, 0.5)]);
        let b = pmf(&[(3.0, 0.5), (4.0, 0.5)]);
        let mut scratch = PmfScratch::new();
        let legacy = convolve(&a, &b, ReductionPolicy::unlimited());
        let fused = scratch
            .convolve_reduced(&a, &b, ReductionPolicy::unlimited())
            .to_pmf();
        assert_eq!(fused, legacy);
        assert_eq!(fused.len(), 3);
    }

    #[test]
    fn fused_matches_legacy_under_heavy_reduction() {
        let a = wide(20);
        let b = wide(17);
        let mut scratch = PmfScratch::new();
        for cap in [1, 2, 5, 8, 24] {
            let policy = ReductionPolicy::new(cap);
            assert_eq!(
                scratch.convolve_reduced(&a, &b, policy).to_pmf(),
                convolve(&a, &b, policy),
                "cap {cap}"
            );
        }
    }

    #[test]
    fn scratch_is_reusable_across_mismatched_sizes() {
        let mut scratch = PmfScratch::new();
        let big = wide(30);
        let small = pmf(&[(5.0, 1.0)]);
        let policy = ReductionPolicy::new(8);
        // Big → small → big again: buffers must not carry stale state.
        assert_eq!(
            scratch.convolve_reduced(&big, &big, policy).to_pmf(),
            convolve(&big, &big, policy)
        );
        assert_eq!(
            scratch.convolve_reduced(&small, &small, policy).to_pmf(),
            convolve(&small, &small, policy)
        );
        assert_eq!(
            scratch.convolve_reduced(&big, &small, policy).to_pmf(),
            convolve(&big, &small, policy)
        );
    }

    #[test]
    fn view_queries_match_pmf_queries() {
        let a = wide(12);
        let b = wide(9);
        let policy = ReductionPolicy::new(6);
        let mut scratch = PmfScratch::new();
        let legacy = convolve(&a, &b, policy);
        let view = scratch.convolve_reduced(&a, &b, policy);
        assert_eq!(view.expectation(), legacy.expectation());
        assert_eq!(view.min_value(), legacy.min_value());
        assert_eq!(view.max_value(), legacy.max_value());
        assert_eq!(view.len(), legacy.len());
        for x in [0.0, 3.0, 17.5, 80.0] {
            assert_eq!(view.prob_le(x), legacy.prob_le(x));
        }
    }

    #[test]
    fn prefix_pipeline_matches_legacy_pipeline() {
        let exec = wide(10);
        let queued = [wide(7), pmf(&[(3.0, 0.4), (9.0, 0.6)]), wide(5)];
        let policy = ReductionPolicy::new(8);
        let (start, now) = (12.5, 20.0);

        // Legacy: shift → truncate-or-floor → fold convolutions.
        let mut legacy = truncate_below_or_floor(&exec.shift(start), now);
        for q in &queued {
            legacy = legacy.convolve(q, policy);
        }

        let mut scratch = PmfScratch::new();
        scratch.load_prefix_shifted(&exec, start);
        scratch.truncate_prefix_below_or_floor(now);
        for q in &queued {
            scratch.convolve_prefix_with(q, policy);
        }
        assert_eq!(scratch.prefix().to_pmf(), legacy);
    }

    #[test]
    fn truncate_prefix_floors_to_singleton() {
        let mut scratch = PmfScratch::new();
        scratch.load_prefix_shifted(&wide(6), 0.0);
        scratch.truncate_prefix_below_or_floor(1e9);
        let view = scratch.prefix();
        assert_eq!(view.len(), 1);
        assert_eq!(view.min_value(), 1e9);
        assert_eq!(view.impulses()[0].prob, 1.0);
    }

    #[test]
    fn kernel_call_counter_counts_and_resets() {
        let mut scratch = PmfScratch::new();
        let a = wide(4);
        assert_eq!(scratch.kernel_calls(), 0);
        let _ = scratch.convolve_reduced(&a, &a, ReductionPolicy::default_cap());
        scratch.load_prefix_shifted(&a, 0.0);
        scratch.convolve_prefix_with(&a, ReductionPolicy::default_cap());
        assert_eq!(scratch.kernel_calls(), 2);
        scratch.reset_kernel_calls();
        assert_eq!(scratch.kernel_calls(), 0);
    }

    #[test]
    fn clear_prefix_resets_residency() {
        let mut scratch = PmfScratch::new();
        assert!(!scratch.has_prefix());
        scratch.load_prefix_shifted(&wide(3), 1.0);
        assert!(scratch.has_prefix());
        scratch.clear_prefix();
        assert!(!scratch.has_prefix());
    }

    /// `a ⊛ b` through the kernel and the legacy pipeline, compared bit
    /// for bit (`Pmf`'s `==` would let `−0.0` stand in for `+0.0`).
    fn assert_fused_bits_eq_legacy(a: &Pmf, b: &Pmf) {
        let bits = |p: &Pmf| -> Vec<(u64, u64)> {
            p.impulses()
                .iter()
                .map(|i| (i.value.to_bits(), i.prob.to_bits()))
                .collect()
        };
        let policy = ReductionPolicy::unlimited();
        let legacy = convolve(a, b, policy);
        let fused = PmfScratch::new().convolve_reduced(a, b, policy).to_pmf();
        assert_eq!(bits(&fused), bits(&legacy));
    }

    #[test]
    fn sort_key_orders_like_total_cmp() {
        let values = [
            f64::MIN,
            -1e6,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            1e300,
            f64::MAX,
        ];
        for x in values {
            for y in values {
                assert_eq!(sort_key(x).cmp(&sort_key(y)), x.total_cmp(&y), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn equal_products_share_one_bucket() {
        // 1e300 + 1.0 rounds to 1e300: both products are equal, the key
        // span is 0 and the sort runs on a single bucket.
        assert_eq!(bucket_shift(0, 2), 0);
        let a = pmf(&[(1e300, 1.0)]);
        let b = pmf(&[(0.0, 0.5), (1.0, 0.5)]);
        assert_fused_bits_eq_legacy(&a, &b);
        assert_eq!(
            PmfScratch::new()
                .convolve_reduced(&a, &b, ReductionPolicy::unlimited())
                .len(),
            1
        );
    }

    #[test]
    fn products_one_ulp_apart_take_adjacent_buckets() {
        let base = 1e300_f64;
        let ulp = f64::from_bits(base.to_bits() + 1) - base;
        let a = pmf(&[(base, 1.0)]);
        let b = pmf(&[(0.0, 0.5), (ulp, 0.5)]);
        let span = sort_key(base + ulp) - sort_key(base);
        assert_eq!(span, 1);
        assert_eq!(bucket_shift(span, 2), 0);
        assert_fused_bits_eq_legacy(&a, &b);
    }

    #[test]
    fn one_by_one_is_a_single_product() {
        assert_eq!(bucket_shift(0, 1), 0);
        assert_fused_bits_eq_legacy(&pmf(&[(3.0, 1.0)]), &pmf(&[(4.0, 1.0)]));
        assert_fused_bits_eq_legacy(&pmf(&[(-0.0, 1.0)]), &pmf(&[(-0.0, 1.0)]));
    }

    #[test]
    fn bucket_shift_fits_any_span_into_the_budget() {
        for products in [1, 2, 3, 288, 576, 1000] {
            let budget = max_buckets(products) as u64;
            for span in [
                0,
                1,
                budget - 1,
                budget,
                budget + 1,
                u64::MAX >> 1,
                u64::MAX,
            ] {
                let shift = bucket_shift(span, products);
                assert!(span >> shift < budget, "span {span}, products {products}");
                // The smallest such shift: one less would overflow the budget.
                if shift > 0 {
                    assert!(span >> (shift - 1) >= budget);
                }
            }
        }
    }

    #[test]
    fn insertion_sort_is_stable_and_sorts() {
        let mut xs = vec![
            Impulse::new(3.0, 0.1),
            Impulse::new(1.0, 0.2),
            Impulse::new(3.0, 0.3),
            Impulse::new(2.0, 0.4),
        ];
        insertion_sort_stable(&mut xs);
        let values: Vec<f64> = xs.iter().map(|i| i.value).collect();
        assert_eq!(values, vec![1.0, 2.0, 3.0, 3.0]);
        // Stability: the 3.0 with prob 0.1 was pushed first and stays first.
        assert_eq!(xs[2].prob, 0.1);
        assert_eq!(xs[3].prob, 0.3);
    }

    #[test]
    fn insertion_sort_orders_signed_zeros_like_total_cmp() {
        let mut xs = vec![Impulse::new(0.0, 0.1), Impulse::new(-0.0, 0.2)];
        insertion_sort_stable(&mut xs);
        assert!(xs[0].value.is_sign_negative() && xs[1].value.is_sign_positive());
    }
}
