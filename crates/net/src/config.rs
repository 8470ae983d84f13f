//! Network configuration: the mesh's extents, and the buffer depths and
//! latency of the one router jmsim models.

use jm_isa::node::MeshDims;

/// Per-input-port, per-priority buffer depth in flits: the small depth
/// typical of wormhole routers of the era.
pub(crate) const FLIT_BUFFER: usize = 4;
/// Injection FIFO depth in flits, per priority. Sized to hold at least one
/// maximum-length composed message (the interface commits whole messages
/// atomically).
pub(crate) const INJECT_FIFO: usize = 64;
/// Pipeline latency from a `SEND` retiring to the word being visible to the
/// local router, in cycles.
pub(crate) const INJECT_LATENCY: u64 = 2;
/// Ejection FIFO depth in words, per priority (the network-interface
/// staging between the router and the message queue).
pub(crate) const EJECT_FIFO: usize = 8;

// A channel ring is indexed and counted with a byte.
const _: () = assert!(FLIT_BUFFER <= u8::MAX as usize);
const _: () = assert!(INJECT_FIFO <= u8::MAX as usize);
// The bulk-advance law pipelines at full rate only with one slot of slack
// over the same-cycle credit mask.
const _: () = assert!(FLIT_BUFFER >= 2);
// The shortest message (a route word and one payload word, two flits each)
// must fit the injection FIFO, or no node could ever send.
const _: () = assert!(INJECT_FIFO >= 4);
// A node whose ejection FIFO holds no word delivers nothing.
const _: () = assert!(EJECT_FIFO >= 1);

/// Configuration of the mesh network: its extents. Every other parameter of
/// the router is a constant of this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Mesh dimensions.
    pub dims: MeshDims,
}

impl NetConfig {
    /// The configuration for a mesh of the given dimensions.
    pub fn new(dims: MeshDims) -> NetConfig {
        NetConfig { dims }
    }

    /// Whether a network can be built from this configuration. `MeshDims`'
    /// fields are public, so a hand-built struct (or a log header) can hold
    /// any extent; [`crate::Network`] is only ever built from one that
    /// passed.
    ///
    /// # Errors
    ///
    /// The range the extents must lie in.
    pub fn validate(&self) -> Result<(), &'static str> {
        let d = self.dims;
        match MeshDims::try_new(d.x, d.y, d.z) {
            Ok(_) => Ok(()),
            Err(_) => Err("net.dims: every extent must be in 1..=31"),
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
