//! Network configuration.

use jm_isa::consts::MAX_CYCLE_COST;
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

    /// Whether a network can be built from this configuration. The fields
    /// are public, so a hand-built struct (or a log header) can hold
    /// anything; [`crate::Network`] is only ever built from one that passed.
    ///
    /// # Errors
    ///
    /// The name of the first field out of range, and the range.
    pub fn validate(&self) -> Result<(), &'static str> {
        let d = self.dims;
        // A channel ring is indexed with a byte.
        let ring = |depth: usize| (1..=usize::from(u8::MAX)).contains(&depth);
        if MeshDims::try_new(d.x, d.y, d.z).is_err() {
            Err("net.dims: every extent must be in 1..=31")
        } else if !ring(self.flit_buffer) {
            Err("net.flit_buffer is outside 1..=255")
        } else if !ring(self.inject_fifo) {
            Err("net.inject_fifo is outside 1..=255")
        } else if self.eject_fifo == 0 {
            Err("net.eject_fifo is zero")
        } else if self.inject_latency > MAX_CYCLE_COST {
            Err("net.inject_latency is over MAX_CYCLE_COST")
        } else {
            Ok(())
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
