//! Network configuration.

use jm_isa::node::MeshDims;

/// How a per-cycle loop finds the components with work: a shard's advance
/// loop looking for routers that hold flits, and (in `jm-machine`) a node
/// scheduler looking for nodes that are due.
///
/// `Auto` (the default) flips between a sparse structure (the active-router
/// bitset; the node wake-up heap) and a dense linear scan (the occupancy
/// array; the wake table), keyed on measured occupancy with hysteresis —
/// up-switch at 5/8 of the shard's components, down-switch at 1/4, so a
/// load hovering near one threshold cannot thrash the mode. Both strategies
/// visit the same components in the same ascending order, so the choice is
/// unobservable in simulated state. The forced variants exist for the
/// differential suites, which run all three side by side through the
/// hidden `Network::set_tuning` hook; no public configuration carries them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanPolicy {
    /// Occupancy-keyed switching with hysteresis.
    #[default]
    Auto,
    /// Always use the sparse structure.
    ForcedSparse,
    /// Always scan densely.
    ForcedDense,
}

/// Configuration of the mesh network.
///
/// Defaults model the prototype's parameters; buffer depths are the small
/// values typical of wormhole routers of the era.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Mesh dimensions.
    pub dims: MeshDims,
    /// Per-input-port, per-priority buffer depth in flits.
    pub flit_buffer: usize,
    /// Injection FIFO depth in flits, per priority. Sized to hold at least
    /// one maximum-length composed message (the interface commits whole
    /// messages atomically).
    pub inject_fifo: usize,
    /// Pipeline latency from a `SEND` retiring to the word being visible to
    /// the local router, in cycles.
    pub inject_latency: u64,
    /// Ejection FIFO depth in words, per priority (the network-interface
    /// staging between the router and the message queue).
    pub eject_fifo: usize,
}

impl NetConfig {
    /// Creates the default configuration for a mesh of the given dimensions.
    pub fn new(dims: MeshDims) -> NetConfig {
        NetConfig {
            dims,
            flit_buffer: 4,
            inject_fifo: 64,
            inject_latency: 2,
            eject_fifo: 8,
        }
    }

    /// Configuration for the 512-node prototype (8×8×8).
    pub fn prototype_512() -> NetConfig {
        NetConfig::new(MeshDims::prototype_512())
    }

    /// Peak bisection bandwidth in bits per second, using the paper's
    /// convention: the mid-plane of the largest dimension, one 36-bit
    /// channel pair per node pair at 0.5 words/cycle. For the 8×8×8
    /// machine this is 14.4 Gbit/s (§2.2).
    pub fn bisection_capacity_bits(&self) -> f64 {
        let pairs = self.bisection_pairs() as f64;
        pairs * 0.5 * 36.0 * jm_isa::consts::CLOCK_HZ as f64
    }

    /// Number of node pairs straddling the bisection mid-plane.
    pub fn bisection_pairs(&self) -> u32 {
        // Bisect the largest dimension (z by construction of `for_nodes`;
        // in general, pick the max extent).
        let d = &self.dims;
        let (a, b, c) = (u32::from(d.x), u32::from(d.y), u32::from(d.z));
        let max = a.max(b).max(c);
        if max <= 1 {
            return 0;
        }
        a * b * c / max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_bisection_is_14_4_gbits() {
        let cfg = NetConfig::prototype_512();
        assert_eq!(cfg.bisection_pairs(), 64);
        assert!((cfg.bisection_capacity_bits() - 14.4e9).abs() < 1e6);
    }

    #[test]
    fn single_node_has_no_bisection() {
        let cfg = NetConfig::new(MeshDims::new(1, 1, 1));
        assert_eq!(cfg.bisection_pairs(), 0);
    }
}
