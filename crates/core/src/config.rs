//! Machine configuration.

use jm_fault::FaultSpec;
use jm_isa::node::MeshDims;
use jm_mdp::MdpConfig;
use jm_net::NetConfig;
use jm_traffic::TrafficSpec;

/// Which nodes start a background thread at boot (at the program's declared
/// entry point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StartPolicy {
    /// Only node 0 — the common SPMD pattern where node 0 orchestrates and
    /// the rest react to messages.
    #[default]
    Node0,
    /// Every node runs the background entry.
    AllNodes,
    /// No background threads; the host must deliver the first messages.
    None,
}

/// Which simulation engine drives the machine's clock.
///
/// All engines are **cycle-exact**: final memory, machine statistics,
/// per-class cycle attribution, network counters and the lifecycle trace
/// are identical. They differ only in host run time — the event engine tracks work instead of
/// scanning for it, and the parallel engine additionally spreads the mesh's
/// z-slabs over worker threads (bit-identically: see `DESIGN.md` §4.5 for
/// the two-phase tick and the determinism argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Event-driven: active-node worklist, delivery notification, active
    /// routers only, and O(1) quiescence. The default.
    #[default]
    Event,
    /// Naive reference: every node ticks and every router is scanned every
    /// cycle. Kept as the semantic baseline for differential testing.
    Naive,
    /// Deterministic multi-threaded: the mesh is cut into contiguous
    /// z-slabs (about two per worker, clamped to the z extent) and a crew
    /// of this many worker threads advances them as a task graph with
    /// neighbor-only synchronization; global coordination happens only
    /// every 64 cycles (`DESIGN.md` §4.5), the cycles a node error stops a
    /// `run_until_quiescent` drive on under every engine. Results are
    /// bit-identical to the other engines for every thread count.
    /// `Parallel(1)` runs the event engine's sequential path.
    Parallel(u32),
}

/// Message-lifecycle tracing configuration.
///
/// Off by default: an untraced machine allocates no event buffers, and the
/// per-event cost in every component is a single pointer test. Tracing is
/// purely observational — enabling it changes no simulated behavior and no
/// [`MachineStats`](crate::MachineStats) counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether lifecycle events are recorded.
    pub enabled: bool,
    /// Cycle interval between occupancy samples (queue depths, flits in
    /// flight, active routers): one at every multiple the clock reaches,
    /// under every engine. Only read while `enabled`, and then positive:
    /// [`JMachine::try_new`](crate::JMachine::try_new) refuses zero.
    pub sample_every: u64,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            enabled: false,
            sample_every: 64,
        }
    }
}

impl TraceConfig {
    /// Tracing on, default sampling interval.
    pub fn on() -> TraceConfig {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }

    /// Sets the sampling interval (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn sample_every(mut self, every: u64) -> TraceConfig {
        assert!(every > 0, "sample interval must be positive");
        self.sample_every = every;
        self
    }
}

/// Configuration of a whole machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Mesh dimensions.
    pub dims: MeshDims,
    /// Per-node configuration.
    pub mdp: MdpConfig,
    /// Network configuration (dims must match `dims`).
    pub net: NetConfig,
    /// Background start policy.
    pub start: StartPolicy,
    /// Simulation engine.
    pub engine: Engine,
    /// Lifecycle tracing (off by default).
    pub trace: TraceConfig,
    /// Fault-injection plan (none by default). A vacuous spec — no windows,
    /// zero rates, no checksums — canonicalizes to no plan at machine
    /// build, so it takes the exact fault-free code paths.
    pub fault: Option<FaultSpec>,
    /// Synthetic background-traffic plan (none by default). A vacuous
    /// spec — zero load or an empty window — canonicalizes to no plan at
    /// machine build, so it takes the exact traffic-free code paths.
    pub traffic: Option<TrafficSpec>,
}

impl MachineConfig {
    /// Near-cubic machine of `nodes` nodes with default parameters.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` cannot be factored into a mesh (see
    /// [`MeshDims::for_nodes`]).
    pub fn new(nodes: u32) -> MachineConfig {
        MachineConfig::with_dims(MeshDims::for_nodes(nodes))
    }

    /// Machine with explicit mesh dimensions.
    pub fn with_dims(dims: MeshDims) -> MachineConfig {
        MachineConfig {
            dims,
            mdp: MdpConfig::default(),
            net: NetConfig::new(dims),
            start: StartPolicy::default(),
            engine: Engine::default(),
            trace: TraceConfig::default(),
            fault: None,
            traffic: None,
        }
    }

    /// Sets the start policy (builder style).
    pub fn start(mut self, policy: StartPolicy) -> MachineConfig {
        self.start = policy;
        self
    }

    /// Sets the per-node configuration (builder style).
    pub fn mdp(mut self, mdp: MdpConfig) -> MachineConfig {
        self.mdp = mdp;
        self
    }

    /// Sets the simulation engine (builder style).
    pub fn engine(mut self, engine: Engine) -> MachineConfig {
        self.engine = engine;
        self
    }

    /// Sets the tracing configuration (builder style).
    pub fn trace(mut self, trace: TraceConfig) -> MachineConfig {
        self.trace = trace;
        self
    }

    /// Enables tracing with default settings (builder style).
    pub fn traced(mut self) -> MachineConfig {
        self.trace = TraceConfig::on();
        self
    }

    /// Sets the fault-injection plan (builder style).
    pub fn fault(mut self, spec: FaultSpec) -> MachineConfig {
        self.fault = Some(spec);
        self
    }

    /// Sets the synthetic background-traffic plan (builder style).
    pub fn traffic(mut self, spec: TrafficSpec) -> MachineConfig {
        self.traffic = Some(spec);
        self
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.dims.nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match() {
        let c = MachineConfig::new(64);
        assert_eq!(c.nodes(), 64);
        assert_eq!(c.dims, MeshDims::new(4, 4, 4));
        assert_eq!(c.net.dims, c.dims);
    }

    #[test]
    fn builder_style_setters() {
        let c = MachineConfig::new(8).start(StartPolicy::AllNodes);
        assert_eq!(c.start, StartPolicy::AllNodes);
    }
}
