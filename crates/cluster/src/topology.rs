//! The cluster: a validated collection of nodes with flat core addressing.
//!
//! The paper addresses a core as the triple (node `i`, multicore processor
//! `j`, core `k`); the simulator additionally wants a dense flat index for
//! per-core state arrays. [`CoreId`] carries both.

use crate::node::NodeSpec;
use crate::pstate::{PState, NUM_PSTATES};

/// Address of one core: the paper's `(i, j, k)` triple plus a dense flat
/// index assigned in node-major order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreId {
    /// Node index `i` (0-based).
    pub node: usize,
    /// Multicore-processor index `j` within the node (0-based).
    pub processor: usize,
    /// Core index `k` within the processor (0-based).
    pub core: usize,
    /// Dense index over all cores in the cluster, node-major then
    /// processor-major; stable for a given cluster.
    pub flat: usize,
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}p{}c{}", self.node, self.processor, self.core)
    }
}

/// A heterogeneous compute cluster (paper Fig. 1 level 1).
///
/// Every node belongs to a *template* — an equivalence class of nodes with
/// identical specs. At paper scale each node is its own template (the
/// identity mapping [`Cluster::new`] installs), so nothing changes; the
/// mega-scale generator stamps out thousands of nodes from a handful of
/// templates, and per-node derived data (execution-time pmfs, candidate
/// classes) is stored once per template instead of once per node.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    nodes: Vec<NodeSpec>,
    cores: Vec<CoreId>,
    template_of: Vec<u32>,
    num_templates: usize,
}

impl Cluster {
    /// Builds a cluster from node specs and precomputes the flat core list.
    /// Each node becomes its own template (the heterogeneous identity
    /// mapping — exact for the paper's 8 distinct nodes).
    ///
    /// # Panics
    ///
    /// Panics when `nodes` is empty.
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        let template_of = (0..nodes.len() as u32).collect();
        Self::with_templates(nodes, template_of)
    }

    /// Builds a cluster whose node `i` instantiates template
    /// `template_of[i]`. Templates let derived per-node tables collapse to
    /// per-template tables, so a 10⁴-node cluster with 8 templates costs
    /// what an 8-node cluster does.
    ///
    /// # Panics
    ///
    /// Panics when `nodes` is empty, the mapping length mismatches, a
    /// template id is unused or out of range, or two nodes sharing a
    /// template have different specs (templates assert *exact* spec
    /// equality — that is what makes template-keyed caches sound).
    pub fn with_templates(nodes: Vec<NodeSpec>, template_of: Vec<u32>) -> Self {
        assert!(!nodes.is_empty(), "cluster needs at least one node");
        assert_eq!(
            nodes.len(),
            template_of.len(),
            "template mapping must cover every node"
        );
        #[expect(
            clippy::unwrap_used,
            reason = "with_templates asserts templates is non-empty (one entry per node) just above, so max() over it is always Some"
        )]
        let num_templates = template_of.iter().copied().max().unwrap() as usize + 1;
        let mut representative = vec![usize::MAX; num_templates];
        for (node, &template) in template_of.iter().enumerate() {
            let rep = &mut representative[template as usize];
            if *rep == usize::MAX {
                *rep = node;
            } else {
                assert_eq!(
                    nodes[*rep], nodes[node],
                    "nodes sharing a template must have identical specs"
                );
            }
        }
        assert!(
            representative.iter().all(|&r| r != usize::MAX),
            "every template id up to the maximum must be used"
        );
        let mut cores = Vec::new();
        let mut flat = 0;
        for (node, spec) in nodes.iter().enumerate() {
            for processor in 0..spec.processors {
                for core in 0..spec.cores_per_processor {
                    cores.push(CoreId {
                        node,
                        processor,
                        core,
                        flat,
                    });
                    flat += 1;
                }
            }
        }
        Self {
            nodes,
            cores,
            template_of,
            num_templates,
        }
    }

    /// Number of nodes `N`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node specs.
    #[inline]
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Spec of node `i`.
    #[inline]
    pub fn node(&self, i: usize) -> &NodeSpec {
        &self.nodes[i]
    }

    /// All cores, in flat order.
    #[inline]
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// Total core count `Σ n(i)·c(i)`.
    #[inline]
    pub fn total_cores(&self) -> usize {
        self.cores.len()
    }

    /// The core with the given flat index.
    #[inline]
    pub fn core(&self, flat: usize) -> CoreId {
        self.cores[flat]
    }

    /// The node spec owning `core`.
    #[inline]
    pub fn node_of(&self, core: CoreId) -> &NodeSpec {
        &self.nodes[core.node]
    }

    /// Number of node templates (== [`Cluster::num_nodes`] for clusters
    /// built with [`Cluster::new`]).
    #[inline]
    pub fn num_templates(&self) -> usize {
        self.num_templates
    }

    /// Template id of node `i`.
    #[inline]
    pub fn template_of(&self, node: usize) -> usize {
        self.template_of[node] as usize
    }

    /// The node→template mapping, node-indexed.
    #[inline]
    pub fn templates(&self) -> &[u32] {
        &self.template_of
    }

    /// Eq. 8: `p_avg`, the mean of `μ(i, π)` over all nodes and all
    /// P-states (note: per the paper this averages per *node*, not per
    /// core — a node's core count does not weight it).
    pub fn average_power(&self) -> f64 {
        let total: f64 = self
            .nodes
            .iter()
            .map(|n| PState::ALL.iter().map(|&s| n.power.watts(s)).sum::<f64>())
            .sum();
        total / (self.nodes.len() * NUM_PSTATES) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerProfile;
    use crate::pstate::PStateLadder;

    fn mk_node(processors: usize, cores: usize, peak: f64) -> NodeSpec {
        NodeSpec::new(
            processors,
            cores,
            PStateLadder::from_relative_performance([2.0, 1.7, 1.4, 1.2, 1.0]),
            PowerProfile::from_watts([peak, peak * 0.8, peak * 0.6, peak * 0.4, peak * 0.25]),
            0.95,
        )
    }

    fn cluster() -> Cluster {
        Cluster::new(vec![mk_node(1, 2, 100.0), mk_node(2, 3, 200.0)])
    }

    #[test]
    fn core_enumeration_is_dense_and_ordered() {
        let c = cluster();
        assert_eq!(c.total_cores(), 2 + 2 * 3);
        for (idx, core) in c.cores().iter().enumerate() {
            assert_eq!(core.flat, idx);
        }
        // First node's cores precede the second node's.
        assert_eq!(c.core(0).node, 0);
        assert_eq!(c.core(2).node, 1);
    }

    #[test]
    fn core_triple_addressing() {
        let c = cluster();
        let last = c.core(c.total_cores() - 1);
        assert_eq!(last.node, 1);
        assert_eq!(last.processor, 1);
        assert_eq!(last.core, 2);
    }

    #[test]
    fn node_of_resolves_spec() {
        let c = cluster();
        assert_eq!(c.node_of(c.core(0)).total_cores(), 2);
        assert_eq!(c.node_of(c.core(5)).total_cores(), 6);
    }

    #[test]
    fn average_power_is_node_weighted() {
        let c = cluster();
        // Node 1: mean of 100·(1, .8, .6, .4, .25)/5 = 61.0
        // Node 2: 122.0; cluster average = 91.5 regardless of core counts.
        assert!((c.average_power() - 91.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_rejected() {
        let _ = Cluster::new(vec![]);
    }

    #[test]
    fn display_core_id() {
        let c = cluster();
        assert_eq!(c.core(0).to_string(), "n0p0c0");
    }

    #[test]
    fn single_core_cluster() {
        let c = Cluster::new(vec![mk_node(1, 1, 130.0)]);
        assert_eq!(c.total_cores(), 1);
        assert_eq!(c.core(0).flat, 0);
    }

    #[test]
    fn new_installs_identity_templates() {
        let c = cluster();
        assert_eq!(c.num_templates(), c.num_nodes());
        for i in 0..c.num_nodes() {
            assert_eq!(c.template_of(i), i);
        }
    }

    #[test]
    fn templated_nodes_share_specs() {
        let a = mk_node(1, 2, 100.0);
        let b = mk_node(2, 3, 200.0);
        let c = Cluster::with_templates(vec![a.clone(), b.clone(), a.clone(), b], vec![0, 1, 0, 1]);
        assert_eq!(c.num_templates(), 2);
        assert_eq!(c.template_of(2), 0);
        assert_eq!(c.total_cores(), 2 + 6 + 2 + 6);
    }

    #[test]
    #[should_panic(expected = "identical specs")]
    fn mismatched_template_specs_rejected() {
        let _ =
            Cluster::with_templates(vec![mk_node(1, 2, 100.0), mk_node(1, 2, 150.0)], vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "must be used")]
    fn unused_template_id_rejected() {
        let _ =
            Cluster::with_templates(vec![mk_node(1, 2, 100.0), mk_node(1, 2, 100.0)], vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn short_template_mapping_rejected() {
        let _ = Cluster::with_templates(vec![mk_node(1, 2, 100.0)], vec![]);
    }
}
