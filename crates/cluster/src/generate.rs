//! Random cluster generation with the paper's Sec. VI parameters.

use rand::Rng;

use ecds_pmf::{SeedDerive, Stream, Uniform};

use crate::node::NodeSpec;
use crate::power::{PowerProfile, VoltageRange};
use crate::pstate::{PStateLadder, NUM_PSTATES};
use crate::topology::Cluster;

/// Configuration for random cluster generation.
///
/// [`ClusterGenConfig::paper`] reproduces Sec. VI exactly; every knob is
/// public so ablations and examples can deviate deliberately.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterGenConfig {
    /// Number of compute nodes `N`.
    pub nodes: usize,
    /// Inclusive range for `n(i)`, processors per node.
    pub processors_range: (usize, usize),
    /// Inclusive range for `c(i)`, cores per processor.
    pub cores_range: (usize, usize),
    /// Per-state performance step: each state is faster than the next-deeper
    /// one by a fraction drawn uniformly from this range (paper: 15–25%).
    pub perf_step: Uniform,
    /// Minimum allowed ratio of deepest-state to base-state performance;
    /// ladders violating it are resampled (paper observes ≥ 0.42).
    pub min_perf_ratio: f64,
    /// Peak (P0) per-core wattage range (paper: 125–135 W).
    pub peak_watts: Uniform,
    /// Deep-state (P4) core voltage range (paper: 1.000–1.150 V).
    pub v_deep: VoltageRange,
    /// Base-state (P0) core voltage range (paper: 1.400–1.550 V).
    pub v_base: VoltageRange,
    /// Power-supply efficiency range (paper: 0.90–0.98).
    pub efficiency: Uniform,
    /// `Some(k)`: draw only `k` distinct node specs (templates) and stamp
    /// node `i` from template `i mod k` — the mega-scale path, where
    /// building and checkpointing a 10⁴-node cluster costs O(k) spec
    /// draws. `None`: every node is drawn independently (the paper's
    /// fully heterogeneous generation, byte-identical to before this knob
    /// existed).
    pub templates: Option<usize>,
}

impl ClusterGenConfig {
    /// The paper's Sec. VI configuration: 8 nodes, 1–4 processors of 1–4
    /// cores, 15–25% performance steps, 125–135 W peaks, ACPI-style voltage
    /// ranges, 90–98% efficient supplies.
    pub fn paper() -> Self {
        Self {
            nodes: 8,
            processors_range: (1, 4),
            cores_range: (1, 4),
            perf_step: Uniform::new(0.15, 0.25),
            min_perf_ratio: 0.42,
            peak_watts: Uniform::new(125.0, 135.0),
            v_deep: VoltageRange::new(1.000, 1.150),
            v_base: VoltageRange::new(1.400, 1.550),
            efficiency: Uniform::new(0.90, 0.98),
            templates: None,
        }
    }

    /// A scaled-down configuration for fast tests and doc examples: 3 nodes,
    /// 1–2 processors of 1–2 cores.
    pub fn small_for_tests() -> Self {
        Self {
            nodes: 3,
            processors_range: (1, 2),
            cores_range: (1, 2),
            ..Self::paper()
        }
    }

    /// A mega-scale configuration: `nodes` nodes stamped from `templates`
    /// distinct specs, everything else per the paper. This is the knob the
    /// scaling study turns — 10³–10⁴ nodes stay cheap because only
    /// `templates` specs are ever drawn.
    pub fn scaled(nodes: usize, templates: usize) -> Self {
        Self {
            nodes,
            templates: Some(templates),
            ..Self::paper()
        }
    }

    fn validate(&self) {
        assert!(self.nodes >= 1, "need at least one node");
        if let Some(templates) = self.templates {
            assert!(
                templates >= 1 && templates <= self.nodes,
                "template count must be in 1..=nodes"
            );
        }
        assert!(
            self.processors_range.0 >= 1 && self.processors_range.0 <= self.processors_range.1,
            "invalid processors range"
        );
        assert!(
            self.cores_range.0 >= 1 && self.cores_range.0 <= self.cores_range.1,
            "invalid cores range"
        );
        assert!(
            self.min_perf_ratio > 0.0 && self.min_perf_ratio < 1.0,
            "min_perf_ratio must be in (0, 1)"
        );
    }
}

/// Generates a random cluster from `cfg`, deterministically from
/// `seeds`' [`Stream::Cluster`] stream.
pub fn generate_cluster(cfg: &ClusterGenConfig, seeds: &SeedDerive) -> Cluster {
    cfg.validate();
    match cfg.templates {
        None => {
            let mut nodes = Vec::with_capacity(cfg.nodes);
            for i in 0..cfg.nodes {
                let mut rng = seeds.rng(Stream::Cluster, i as u64, 0);
                nodes.push(sample_node(cfg, &mut rng));
            }
            Cluster::new(nodes)
        }
        Some(num_templates) => {
            // Substream 1 keeps template draws disjoint from the per-node
            // substream 0, so the two paths never share RNG state.
            let specs: Vec<NodeSpec> = (0..num_templates)
                .map(|t| {
                    let mut rng = seeds.rng(Stream::Cluster, t as u64, 1);
                    sample_node(cfg, &mut rng)
                })
                .collect();
            let mut nodes = Vec::with_capacity(cfg.nodes);
            let mut template_of = Vec::with_capacity(cfg.nodes);
            for i in 0..cfg.nodes {
                let t = i % num_templates;
                nodes.push(specs[t].clone());
                template_of.push(t as u32);
            }
            Cluster::with_templates(nodes, template_of)
        }
    }
}

/// Draws one node spec: processor/core counts, the P-state ladder, the
/// CMOS power profile, and the supply efficiency.
fn sample_node<R: Rng + ?Sized>(cfg: &ClusterGenConfig, rng: &mut R) -> NodeSpec {
    let processors = rng.gen_range(cfg.processors_range.0..=cfg.processors_range.1);
    let cores = rng.gen_range(cfg.cores_range.0..=cfg.cores_range.1);
    let ladder = sample_ladder(cfg, rng);
    let peak = cfg.peak_watts.sample(rng);
    let v_deep = Uniform::new(cfg.v_deep.lo, cfg.v_deep.hi).sample(rng);
    let v_base = Uniform::new(cfg.v_base.lo, cfg.v_base.hi).sample(rng);
    let power = PowerProfile::from_cmos(peak, v_base, v_deep, &ladder);
    let efficiency = cfg.efficiency.sample(rng);
    NodeSpec::new(processors, cores, ladder, power, efficiency)
}

/// Samples one node's P-state ladder: starting from the deepest state,
/// performance steps up by `1 + U(perf_step)` per state. Resamples (bounded)
/// until the deep/base performance ratio meets `min_perf_ratio`.
#[expect(
    clippy::panic,
    reason = "rejection sampling accepts with p≈0.97 per draw; 64 consecutive rejections only happens with a misconfigured min_perf_ratio, which must abort generation"
)]
fn sample_ladder<R: Rng + ?Sized>(cfg: &ClusterGenConfig, rng: &mut R) -> PStateLadder {
    const MAX_ATTEMPTS: usize = 64;
    for _ in 0..MAX_ATTEMPTS {
        let mut perf = [0.0f64; NUM_PSTATES];
        perf[NUM_PSTATES - 1] = 1.0;
        for idx in (0..NUM_PSTATES - 1).rev() {
            let step = cfg.perf_step.sample(rng);
            perf[idx] = perf[idx + 1] * (1.0 + step);
        }
        let ratio = perf[NUM_PSTATES - 1] / perf[0];
        if ratio >= cfg.min_perf_ratio {
            return PStateLadder::from_relative_performance(perf);
        }
    }
    // With the paper's 15–25% steps the acceptance probability is ~97%, so
    // 64 rejections in a row indicates a misconfigured range.
    panic!("could not sample a P-state ladder satisfying min_perf_ratio");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pstate::PState;

    fn gen() -> Cluster {
        generate_cluster(&ClusterGenConfig::paper(), &SeedDerive::new(1234))
    }

    #[test]
    fn paper_config_generates_eight_nodes() {
        assert_eq!(gen().num_nodes(), 8);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_cluster(&ClusterGenConfig::paper(), &SeedDerive::new(7));
        let b = generate_cluster(&ClusterGenConfig::paper(), &SeedDerive::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_cluster(&ClusterGenConfig::paper(), &SeedDerive::new(7));
        let b = generate_cluster(&ClusterGenConfig::paper(), &SeedDerive::new(8));
        assert_ne!(a, b);
    }

    #[test]
    fn counts_respect_ranges() {
        for node in gen().nodes() {
            assert!((1..=4).contains(&node.processors));
            assert!((1..=4).contains(&node.cores_per_processor));
        }
    }

    #[test]
    fn peak_power_in_paper_range() {
        for node in gen().nodes() {
            let peak = node.power.peak_watts();
            assert!((125.0..135.0).contains(&peak), "peak {peak}");
        }
    }

    #[test]
    fn deep_state_power_near_quarter_peak() {
        for node in gen().nodes() {
            let ratio = node.power.deepest_watts() / node.power.peak_watts();
            assert!((0.15..0.40).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn perf_ratio_bound_holds() {
        for (seed, _) in (0..20).enumerate() {
            let c = generate_cluster(&ClusterGenConfig::paper(), &SeedDerive::new(seed as u64));
            for node in c.nodes() {
                assert!(node.ladder.min_to_max_ratio() >= 0.42);
            }
        }
    }

    #[test]
    fn efficiency_in_paper_range() {
        for node in gen().nodes() {
            assert!((0.90..0.98).contains(&node.efficiency));
        }
    }

    #[test]
    fn nodes_are_heterogeneous() {
        // With 8 nodes, at least two should differ in peak power (the odds
        // of a seed collision across continuous draws are nil).
        let c = gen();
        let first = c.node(0).power.peak_watts();
        assert!(c.nodes().iter().any(|n| n.power.peak_watts() != first));
    }

    #[test]
    fn exec_multipliers_step_15_to_25_percent() {
        for node in gen().nodes() {
            for w in PState::ALL.windows(2) {
                let ratio =
                    node.ladder.relative_performance(w[0]) / node.ladder.relative_performance(w[1]);
                assert!((1.15..1.25).contains(&ratio), "step {ratio}");
            }
        }
    }

    #[test]
    fn small_config_generates() {
        let c = generate_cluster(&ClusterGenConfig::small_for_tests(), &SeedDerive::new(5));
        assert_eq!(c.num_nodes(), 3);
        assert!(c.total_cores() <= 12);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let cfg = ClusterGenConfig {
            nodes: 0,
            ..ClusterGenConfig::paper()
        };
        let _ = generate_cluster(&cfg, &SeedDerive::new(1));
    }

    #[test]
    fn scaled_config_stamps_templates_round_robin() {
        let c = generate_cluster(&ClusterGenConfig::scaled(100, 8), &SeedDerive::new(9));
        assert_eq!(c.num_nodes(), 100);
        assert_eq!(c.num_templates(), 8);
        for i in 0..c.num_nodes() {
            assert_eq!(c.template_of(i), i % 8);
            assert_eq!(c.node(i), c.node(c.template_of(i)));
        }
    }

    #[test]
    fn scaled_generation_is_deterministic() {
        let a = generate_cluster(&ClusterGenConfig::scaled(1_000, 8), &SeedDerive::new(3));
        let b = generate_cluster(&ClusterGenConfig::scaled(1_000, 8), &SeedDerive::new(3));
        assert_eq!(a, b);
    }

    #[test]
    fn untemplated_path_is_unchanged_by_the_knob() {
        // `templates: None` must generate exactly what the pre-knob code
        // did: same per-node RNG substreams, same specs.
        let c = gen();
        assert_eq!(c.num_templates(), c.num_nodes());
        for i in 0..c.num_nodes() {
            assert_eq!(c.template_of(i), i);
        }
    }

    #[test]
    #[should_panic(expected = "1..=nodes")]
    fn more_templates_than_nodes_rejected() {
        let _ = generate_cluster(&ClusterGenConfig::scaled(4, 5), &SeedDerive::new(1));
    }
}
