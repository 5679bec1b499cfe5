//! Property-based proof that the fused scratch kernel is *bit-identical* —
//! `assert_eq!` on the full impulse lists, not approximate — to the legacy
//! `convolve` + `reduce` pipeline. Bit-identity is load-bearing: impulse
//! reduction makes convolution non-associative, and the prefix cache's
//! correctness argument (DESIGN.md §7) assumes recompute ≡ cached
//! bit-for-bit, so the fused and legacy paths must be interchangeable at
//! the bit level across every policy.

use ecds_pmf::convolve::convolve_all;
use ecds_pmf::truncate::truncate_below_or_floor;
use ecds_pmf::{Pmf, PmfScratch, ReductionPolicy};
use proptest::prelude::*;

/// Strategy producing a valid pmf with 1..=12 impulses, values in
/// [0, 1000], weights in (0, 1].
fn arb_pmf() -> impl Strategy<Value = Pmf> {
    prop::collection::vec((0.0f64..1000.0, 0.01f64..1.0), 1..=12)
        .prop_map(|pairs| Pmf::from_pairs(&pairs).expect("valid pairs"))
}

/// One support value from a mix that reaches every key range the fused
/// kernel's counting sort buckets: both signed zeros, a small integer grid
/// and a decimal grid (exactly equal and merely coincident sums), and a
/// uniform draw over −1e3..1e6, scaled into one of four binades
/// (1e-6, 1e-3, 1, 1e3 times the draw).
fn arb_value() -> impl Strategy<Value = f64> {
    (0u8..8, -1.0e3f64..1.0e6, -8i32..=8).prop_map(|(kind, x, k)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from(k),
        3 => f64::from(k) * 0.1,
        4 => x * 1e-6,
        5 => x * 1e-3,
        6 => x * 1e3,
        _ => x,
    })
}

/// Strategy producing a valid pmf with 1..=24 impulses (the production
/// cap) drawn from [`arb_value`]; coincident draws merge, so some pmfs
/// come out shorter.
fn arb_wide_pmf() -> impl Strategy<Value = Pmf> {
    prop::collection::vec((arb_value(), 0.01f64..1.0), 1..=24)
        .prop_map(|pairs| Pmf::from_pairs(&pairs).expect("valid pairs"))
}

/// Strategy producing a pmf with exactly `len` impulses on an arithmetic
/// grid `base + i·step` — the production 12 × 24 and 24 × 24 kernel
/// shapes, with a spread from 1e-3 to 1e3 per step. Relative steps stay
/// above the merge tolerance, so no two support points coincide.
fn arb_grid_pmf(len: usize) -> impl Strategy<Value = Pmf> {
    (
        -1.0e3f64..1.0e6,
        1.0e-3f64..1.0e3,
        prop::collection::vec(0.01f64..1.0, len),
    )
        .prop_map(|(base, step, weights)| {
            let pairs: Vec<(f64, f64)> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| (base + i as f64 * step, w))
                .collect();
            Pmf::from_pairs(&pairs).expect("valid pairs")
        })
}

/// Every impulse's exact bit pattern: unlike `Pmf`'s `==`, this tells
/// `−0.0` from `+0.0`.
fn bits(p: &Pmf) -> Vec<(u64, u64)> {
    p.impulses()
        .iter()
        .map(|i| (i.value.to_bits(), i.prob.to_bits()))
        .collect()
}

/// The policies under test: no reduction, degenerate single-impulse cap,
/// caps below and at the workspace default.
fn arb_policy() -> impl Strategy<Value = ReductionPolicy> {
    // 0 encodes `unlimited`; 1..=24 are literal caps (1 = degenerate
    // single-impulse cap, 24 = the workspace default).
    (0usize..=24).prop_map(|cap| match cap {
        0 => ReductionPolicy::unlimited(),
        n => ReductionPolicy::new(n),
    })
}

#[test]
fn fused_orders_signed_zero_like_legacy() {
    // −1 + 1 is +0.0 (row 0) and −0.0 + −0.0 is −0.0 (row 1). `total_cmp`
    // puts −0.0 first, so the coincidence merge keeps −0.0 as the middle
    // value; an IEEE `<=` tie-break would keep row 0's +0.0 instead.
    let a = Pmf::from_pairs(&[(-1.0, 0.5), (-0.0, 0.5)]).unwrap();
    let b = Pmf::from_pairs(&[(-0.0, 0.5), (1.0, 0.5)]).unwrap();
    let policy = ReductionPolicy::unlimited();
    let legacy = a.convolve(&b, policy);
    let expected = [(-1.0f64, 0.25f64), (-0.0, 0.5), (1.0, 0.25)]
        .map(|(v, p)| (v.to_bits(), p.to_bits()))
        .to_vec();
    assert_eq!(bits(&legacy), expected);
    let mut scratch = PmfScratch::new();
    let fused = scratch.convolve_reduced(&a, &b, policy).to_pmf();
    assert_eq!(bits(&fused), expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fused_equals_legacy_bitwise_over_wide_values(
        a in arb_wide_pmf(),
        b in arb_wide_pmf(),
        policy in arb_policy(),
    ) {
        let legacy = a.convolve(&b, policy);
        let mut scratch = PmfScratch::new();
        let fused = scratch.convolve_reduced(&a, &b, policy).to_pmf();
        prop_assert_eq!(bits(&fused), bits(&legacy));
    }

    #[test]
    fn fused_equals_legacy_bitwise_at_production_shapes(
        short in arb_grid_pmf(12),
        full in arb_grid_pmf(24),
        other in arb_grid_pmf(24),
        policy in arb_policy(),
    ) {
        // 12 × 24 and 24 × 24 products, in both operand orders, through one
        // reused workspace.
        let mut scratch = PmfScratch::new();
        for (a, b) in [(&short, &full), (&full, &short), (&full, &other)] {
            let fused = scratch.convolve_reduced(a, b, policy).to_pmf();
            prop_assert_eq!(bits(&fused), bits(&a.convolve(b, policy)));
        }
    }

    #[test]
    fn wide_chained_convolutions_stay_bit_identical(
        pmfs in prop::collection::vec(arb_wide_pmf(), 2..=4),
        policy in arb_policy(),
    ) {
        // The prefix is loaded through a shift by 0.0, which turns −0.0
        // into +0.0, so the legacy fold starts from the same shift.
        let mut legacy = pmfs[0].shift(0.0);
        let mut scratch = PmfScratch::new();
        scratch.load_prefix_shifted(&pmfs[0], 0.0);
        for next in &pmfs[1..] {
            legacy = legacy.convolve(next, policy);
            scratch.convolve_prefix_with(next, policy);
            prop_assert_eq!(bits(&scratch.prefix().to_pmf()), bits(&legacy));
        }
    }

    #[test]
    fn fused_equals_legacy_bitwise(a in arb_pmf(), b in arb_pmf(), policy in arb_policy()) {
        let legacy = a.convolve(&b, policy);
        let mut scratch = PmfScratch::new();
        let fused = scratch.convolve_reduced(&a, &b, policy).to_pmf();
        // Pmf's PartialEq compares every impulse's value and prob with f64
        // equality: bit-identity, not tolerance.
        prop_assert_eq!(fused, legacy);
    }

    #[test]
    fn fused_view_moments_equal_legacy_bitwise(
        a in arb_pmf(),
        b in arb_pmf(),
        policy in arb_policy(),
        x in 0.0f64..2500.0,
    ) {
        let legacy = a.convolve(&b, policy);
        let mut scratch = PmfScratch::new();
        let view = scratch.convolve_reduced(&a, &b, policy);
        prop_assert_eq!(view.expectation(), legacy.expectation());
        prop_assert_eq!(view.prob_le(x), legacy.prob_le(x));
        prop_assert_eq!(view.min_value(), legacy.min_value());
        prop_assert_eq!(view.max_value(), legacy.max_value());
    }

    #[test]
    fn chained_convolutions_stay_bit_identical(
        pmfs in prop::collection::vec(arb_pmf(), 2..=5),
        policy in arb_policy(),
    ) {
        // Chains compound any divergence: one ULP in step 1 changes the
        // reduction bucketing of step 2. Fold both pipelines and compare at
        // the end — and at every intermediate step via the prefix API.
        let legacy = convolve_all(pmfs.iter(), policy).expect("non-empty");
        let mut scratch = PmfScratch::new();
        scratch.load_prefix_shifted(&pmfs[0], 0.0);
        for (step, next) in pmfs[1..].iter().enumerate() {
            scratch.convolve_prefix_with(next, policy);
            let legacy_step = convolve_all(pmfs[..step + 2].iter(), policy).unwrap();
            prop_assert_eq!(scratch.prefix().to_pmf(), legacy_step);
        }
        prop_assert_eq!(scratch.prefix().to_pmf(), legacy);
    }

    #[test]
    fn scratch_reuse_does_not_contaminate(
        a in arb_pmf(),
        b in arb_pmf(),
        c in arb_pmf(),
        d in arb_pmf(),
        p1 in arb_policy(),
        p2 in arb_policy(),
    ) {
        // Two unrelated kernel calls through one workspace must each match
        // a fresh legacy computation — stale buffer contents must be
        // invisible.
        let mut scratch = PmfScratch::new();
        let first = scratch.convolve_reduced(&a, &b, p1).to_pmf();
        let second = scratch.convolve_reduced(&c, &d, p2).to_pmf();
        prop_assert_eq!(first, a.convolve(&b, p1));
        prop_assert_eq!(second, c.convolve(&d, p2));
    }

    #[test]
    fn in_place_shift_equals_allocating_shift(p in arb_pmf(), dt in -500.0f64..500.0) {
        let legacy = p.shift(dt);
        let mut in_place = p.clone();
        in_place.shift_in_place(dt);
        prop_assert_eq!(in_place, legacy);
    }

    #[test]
    fn in_place_truncate_equals_allocating_truncate(
        p in arb_pmf(),
        cutoff in 0.0f64..1200.0,
    ) {
        let legacy = truncate_below_or_floor(&p, cutoff);
        let mut in_place = p.clone();
        in_place.truncate_below_or_floor_in_place(cutoff);
        prop_assert_eq!(in_place, legacy);
    }

    #[test]
    fn scratch_prefix_pipeline_equals_legacy_pipeline(
        exec in arb_pmf(),
        queued in prop::collection::vec(arb_pmf(), 0..=4),
        start in 0.0f64..200.0,
        dt in 0.0f64..1500.0,
        policy in arb_policy(),
    ) {
        // The full queue-prefix build as the evaluator runs it: shift the
        // executing pmf by its start, truncate-or-floor at `now`, then
        // convolve the queued pmfs on in FIFO order.
        let now = start + dt;
        let legacy = {
            let mut acc = truncate_below_or_floor(&exec.shift(start), now);
            for q in &queued {
                acc = acc.convolve(q, policy);
            }
            acc
        };
        let mut scratch = PmfScratch::new();
        scratch.load_prefix_shifted(&exec, start);
        scratch.truncate_prefix_below_or_floor(now);
        for q in &queued {
            scratch.convolve_prefix_with(q, policy);
        }
        prop_assert_eq!(scratch.prefix().to_pmf(), legacy);
    }
}
