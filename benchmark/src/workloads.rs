//! The six workloads: what each simulates, at what size, and how a
//! machine is built and run for it.
//!
//! Every `MachineConfig` names its engine explicitly, so a process-wide
//! engine default cannot change what a workload measures.

use crate::programs;
use jm_apps::radix::{self, RadixConfig};
use jm_asm::Program;
use jm_isa::node::MeshDims;
use jm_machine::{
    Engine, JMachine, MachineConfig, MachineError, StartPolicy, TrafficPattern, TrafficSpec,
};

/// The seed a bare `jmbench` uses, and the one `golden.json` is taken at.
pub const DEFAULT_SEED: u64 = 7;

/// Cycle budget for the workloads that run to quiescence. Far above what
/// either needs (ring64 takes 41.6M cycles): reaching it is a failure.
const QUIESCENCE_BUDGET: u64 = 2_000_000_000;

/// Common divisor of every cycle count (and of radix's key count, which is
/// what sets its cycle count). 1 is the measured size; 50 is the smoke size
/// the tests run.
///
/// The measured sizes are themselves the sizes the benchmark was designed
/// at times one common factor, 5/8: that puts a run between 1.5 and 4.5 s
/// on the sizing host, so that the driver's 15 s window holds several.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale(pub u64);

impl Scale {
    pub const FULL: Scale = Scale(1);
    pub const SMOKE: Scale = Scale(50);

    fn div(self, n: u64) -> u64 {
        (n / self.0).max(1)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// jm-apps radix sort, 40 960 keys on 8×8×8, to quiescence: the paper's
    /// macro application at the paper's machine size. Interpreter-bound.
    Radix512,
    /// The Figure 3 exchange loop (4-word messages, 20 idle iterations) on
    /// all 512 nodes for 37 500 cycles. Load-dominated: interpreter, router
    /// and delivery are all on the blocking path.
    Exchange512,
    /// The same program on 16×16×16 for 2 500 cycles: a working set far
    /// beyond the host's caches.
    Exchange4096,
    /// One token, 25 000 rounds of a 64-node ring, to quiescence.
    /// Idle-dominated: the event heap, idle-skip and bulk-advance do the
    /// work and the interpreter almost none.
    Ring64,
    /// A sink handler under uniform-random generated traffic at 450 000 ppm
    /// offered, 4-word messages, 15 000 cycles on 8×8×8. Past the
    /// saturation knee: channels full, half the offers dropped.
    /// Router-bound.
    Uniform512,
    /// The same with lifecycle tracing on and the trace assembled inside
    /// the run phase.
    Uniform512Traced,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Radix512,
        Workload::Exchange512,
        Workload::Exchange4096,
        Workload::Ring64,
        Workload::Uniform512,
        Workload::Uniform512Traced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Radix512 => "radix512",
            Workload::Exchange512 => "exchange512",
            Workload::Exchange4096 => "exchange4096",
            Workload::Ring64 => "ring64",
            Workload::Uniform512 => "uniform512",
            Workload::Uniform512Traced => "uniform512_traced",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload that simulates the same machine untraced. The two must
    /// reach the same architectural digest, and the layer pass steps the
    /// twin, since the split stepper wires up no trace buffers.
    pub fn twin(self) -> Option<Workload> {
        match self {
            Workload::Uniform512Traced => Some(Workload::Uniform512),
            _ => None,
        }
    }
}

/// When a run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// After exactly this many cycles.
    Cycles(u64),
    /// When nothing can happen any more.
    Quiescent,
}

/// Everything needed to build and run one machine.
#[derive(Debug, Clone)]
pub struct Spec {
    pub program: Program,
    pub config: MachineConfig,
    pub stop: Stop,
    /// Radix problem whose keys are loaded at set-up and whose output is
    /// compared against a host sort.
    pub radix: Option<RadixConfig>,
}

/// Additive constant of the exchange loop's per-node destination LCG.
fn lcg_add(seed: u64) -> i32 {
    12_345 + (seed % 1_000_000) as i32
}

fn exchange_spec(nodes: u32, engine: Engine, cycles: u64, seed: u64) -> Spec {
    Spec {
        program: programs::exchange(4, 20, lcg_add(seed)),
        config: MachineConfig::new(nodes)
            .start(StartPolicy::AllNodes)
            .engine(engine),
        stop: Stop::Cycles(cycles),
        radix: None,
    }
}

fn uniform_spec(traced: bool, cycles: u64, seed: u64) -> Spec {
    let program = programs::sink();
    let traffic = TrafficSpec::new(seed)
        .pattern(TrafficPattern::UniformRandom)
        .load(450_000)
        .msg_words(4)
        .handler(program.handler("sink"));
    let mut config = MachineConfig::with_dims(MeshDims::new(8, 8, 8))
        .start(StartPolicy::None)
        .engine(Engine::Event)
        .traffic(traffic);
    if traced {
        config = config.traced();
    }
    Spec {
        program,
        config,
        stop: Stop::Cycles(cycles),
        radix: None,
    }
}

fn radix_spec(keys: u64, stop: Stop, seed: u64) -> Spec {
    // Keys must divide across the 512 nodes.
    let cfg = RadixConfig {
        keys: (keys as u32 / 512).max(1) * 512,
        seed,
    };
    Spec {
        program: radix::program(&cfg, 512),
        config: MachineConfig::new(512)
            .start(StartPolicy::AllNodes)
            .engine(Engine::Event),
        stop,
        radix: Some(cfg),
    }
}

fn ring_spec(rounds: u64) -> Spec {
    Spec {
        program: programs::ring(rounds as u32),
        config: MachineConfig::new(64)
            .start(StartPolicy::AllNodes)
            .engine(Engine::Event),
        stop: Stop::Quiescent,
        radix: None,
    }
}

impl Spec {
    /// The measured run of `workload`.
    pub fn full(workload: Workload, seed: u64, scale: Scale) -> Spec {
        match workload {
            Workload::Radix512 => radix_spec(scale.div(40_960), Stop::Quiescent, seed),
            Workload::Exchange512 => exchange_spec(512, Engine::Event, scale.div(37_500), seed),
            Workload::Exchange4096 => exchange_spec(4096, Engine::Event, scale.div(2_500), seed),
            Workload::Ring64 => ring_spec(scale.div(25_000)),
            Workload::Uniform512 => uniform_spec(false, scale.div(15_000), seed),
            Workload::Uniform512Traced => uniform_spec(true, scale.div(15_000), seed),
        }
    }

    /// The prefix of `workload` (of its twin, where it has one) that the
    /// layer pass steps three times over: split stepper, naive engine,
    /// event engine. Shorter than the measured run because the naive
    /// engine and the split stepper pay for every idle node-cycle.
    pub fn prefix(workload: Workload, seed: u64, scale: Scale) -> Spec {
        match workload.twin().unwrap_or(workload) {
            // The whole problem, stopped early: the prefix covers the first
            // passes' count, combine and reorder phases.
            Workload::Radix512 => radix_spec(40_960, Stop::Cycles(scale.div(25_000)), seed),
            Workload::Exchange512 => exchange_spec(512, Engine::Event, scale.div(12_500), seed),
            Workload::Exchange4096 => exchange_spec(4096, Engine::Event, scale.div(1_000), seed),
            Workload::Ring64 => ring_spec(scale.div(625)),
            Workload::Uniform512 => uniform_spec(false, scale.div(5_000), seed),
            Workload::Uniform512Traced => unreachable!("a twin has no twin"),
        }
    }

    /// The same run on another engine.
    pub fn engine(mut self, engine: Engine) -> Spec {
        self.config = self.config.engine(engine);
        self
    }

    /// The radix keys this spec loads, if it is a radix run.
    pub fn keys(&self) -> Option<Vec<u32>> {
        self.radix.map(|cfg| cfg.generate())
    }

    /// Boots the machine and loads its data.
    pub fn machine(&self) -> JMachine {
        let mut m = JMachine::new(self.program.clone(), self.config);
        if let Some(cfg) = &self.radix {
            radix::setup(&mut m, cfg);
        }
        m
    }

    /// Runs `m` to this spec's stop condition; returns the cycles simulated.
    ///
    /// # Errors
    ///
    /// Whatever stopped a run to quiescence short of it.
    pub fn run(&self, m: &mut JMachine) -> Result<u64, MachineError> {
        match self.stop {
            Stop::Cycles(cycles) => {
                m.run(cycles);
                Ok(cycles)
            }
            Stop::Quiescent => m.run_until_quiescent(QUIESCENCE_BUDGET),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_plain_and_round_trip() {
        for w in Workload::ALL {
            let name = w.name();
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad workload name {name:?}"
            );
            assert_eq!(Workload::from_name(name), Some(w));
        }
        assert_eq!(Workload::from_name("radix"), None);
    }

    #[test]
    fn a_twin_differs_only_in_tracing() {
        for w in Workload::ALL {
            let Some(twin) = w.twin() else { continue };
            assert_eq!(twin.twin(), None);
            let (a, b) = (
                Spec::full(w, 9, Scale::SMOKE),
                Spec::full(twin, 9, Scale::SMOKE),
            );
            assert_eq!(a.program.code, b.program.code);
            assert_eq!(a.stop, b.stop);
            assert_eq!(a.config.trace(b.config.trace), b.config);
        }
    }

    #[test]
    fn the_seed_reaches_every_randomized_workload() {
        let traffic = |seed| {
            Spec::full(Workload::Uniform512, seed, Scale::SMOKE)
                .config
                .traffic
        };
        assert_ne!(traffic(1), traffic(2));
        let code = |seed| {
            Spec::full(Workload::Exchange512, seed, Scale::SMOKE)
                .program
                .code
        };
        assert_ne!(code(1), code(2));
        let keys = |seed| Spec::full(Workload::Radix512, seed, Scale::SMOKE).keys();
        assert_ne!(keys(1), keys(2));
    }
}
