//! Network configuration.

use jm_isa::node::MeshDims;

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
