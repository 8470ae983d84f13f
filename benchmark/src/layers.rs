//! The layer pass: where the host time of a run goes.
//!
//! Three parts, all timed with spans from this file (spans inside the
//! simulator are a later change): (a) the split stepper on a prefix of the
//! workload, against `JMachine` on the same prefix; (b) isolated kernels
//! and on/off pairs, the same for every workload; (c) the simulated counts
//! of the full-size run. It never runs while an end-to-end metric is
//! being measured.
//!
//! The host this was sized on drifts by a fifth within seconds, so nothing
//! here is timed once. Parts (a) and (b) each run [`REPS`] times with their
//! members interleaved, every ratio is taken between neighbours in time,
//! and the reported value is the median over the repetitions.

use crate::child::{self, Check, ChildResult};
use crate::host;
use crate::metrics::{median, Values};
use crate::probe::Probe;
use crate::programs;
use crate::spans::Spans;
use crate::split::Split;
use crate::workloads::{Scale, Spec, Stop, Workload};
use jm_apps::radix::{self, RadixConfig};
use jm_isa::instr::{MsgPriority, StatClass};
use jm_isa::node::{MeshDims, NodeId};
use jm_isa::word::Word;
use jm_machine::{Engine, MachineStats, TrafficPattern, TrafficSpec};
use jm_mdp::{InjectAck, MdpConfig, MdpNode, NetPort};
use jm_net::{NetConfig, Network};
use jm_traffic::TrafficPlan;
use std::hint::black_box;
use std::sync::Arc;

/// Interleaved repetitions of each timed part.
const REPS: usize = 3;

/// Metrics and checks of one part of the pass.
#[derive(Debug)]
pub struct Report {
    pub values: Values,
    pub checks: Vec<Check>,
}

/// Runs `once` [`REPS`] times; the median of every metric it returns.
fn repeated(mut once: impl FnMut() -> Values) -> Values {
    let reps: Vec<Values> = (0..REPS).map(|_| once()).collect();
    reps[0]
        .keys()
        .map(|&name| {
            let samples: Vec<f64> = reps.iter().map(|rep| rep[name]).collect();
            (name, median(&samples))
        })
        .collect()
}

/// `a / b`, or 0 where the workload has none of `b` (ring64 offers no
/// generated traffic, for one).
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn fixed_cycles(spec: &Spec) -> u64 {
    match spec.stop {
        Stop::Cycles(cycles) => cycles,
        Stop::Quiescent => unreachable!("this prefix runs a fixed cycle count"),
    }
}

/// Builds `spec`'s machine on `engine`, runs it for `cycles`, and returns
/// `(statistics, construction span, run span)`.
fn run_machine(
    spec: &Spec,
    engine: Engine,
    cycles: u64,
    spans: &mut Spans,
    name: &'static str,
    workload: &'static str,
) -> (MachineStats, usize, usize) {
    let spec = spec.clone().engine(engine);
    let (mut m, new) = spans.time("machine.new", workload, |_| spec.machine());
    let ((), run) = spans.time(name, workload, |_| m.run(cycles));
    (m.stats(), new, run)
}

/// (a) Steps a prefix of `workload` phase by phase and compares with
/// `JMachine`.
pub fn split_pass(workload: Workload, seed: u64, scale: Scale, spans: &mut Spans) -> Report {
    let name = workload.name();
    let spec = Spec::prefix(workload, seed, scale);
    let mut checks = Vec::new();
    let values = repeated(|| {
        // The event engine goes first: where the prefix runs to quiescence
        // it is the one that can find out, cheaply, how many cycles that is.
        let (event_stats, new, event) = match spec.stop {
            Stop::Cycles(cycles) => run_machine(&spec, Engine::Event, cycles, spans, "event", name),
            Stop::Quiescent => {
                let (mut m, new) = spans.time("machine.new", name, |_| spec.machine());
                let (outcome, run) = spans.time("event", name, |_| spec.run(&mut m));
                checks.push(Check::new("prefix_quiesced", outcome.is_ok()));
                (m.stats(), new, run)
            }
        };
        let cycles = event_stats.cycles;
        let (naive_stats, _, naive) =
            run_machine(&spec, Engine::Naive, cycles, spans, "naive", name);

        let mut split = Split::new(&spec);
        let ((), split_span) = spans.time("split", name, |s| split.run(cycles, s, name));
        let stats = split.stats();
        checks.push(Check::new(
            "split_equals_machine",
            stats == naive_stats && stats == event_stats,
        ));

        let node_cycles = split.node_count() as f64 * cycles as f64;
        let deliver = spans.total_ns(split_span, "mdp.deliver") as f64;
        let tick = spans.total_ns(split_span, "mdp.tick") as f64;
        let step = spans.total_ns(split_span, "net.step") as f64;
        // What the chunks spent outside their three phases.
        let loop_ns = spans.total_self_ns(split_span, "chunk") as f64;
        let wall = spans.duration_ns(split_span) as f64;
        let coverage = (deliver + tick + step) / wall;
        checks.push(Check::new("split_coverage", coverage >= 0.95));
        Values::from([
            ("mdp.tick_ns", tick / node_cycles),
            (
                "mdp.tick_ns_per_instr",
                per(tick, stats.nodes.instructions as f64),
            ),
            ("mdp.deliver_ns", deliver / node_cycles),
            (
                "mdp.deliver_ns_per_word",
                per(deliver, stats.net.delivered_words as f64),
            ),
            ("net.step_ns", step / node_cycles),
            (
                "net.step_ns_per_flit_hop",
                per(step, stats.net.flit_hops as f64),
            ),
            ("split.loop_ns", loop_ns / node_cycles),
            ("split.coverage", coverage),
            (
                "machine.naive_vs_split",
                spans.duration_ns(naive) as f64 / wall,
            ),
            (
                "machine.event_vs_split",
                spans.duration_ns(event) as f64 / wall,
            ),
            ("machine.new_s", spans.secs(new)),
        ])
    });
    Report { values, checks }
}

/// A port for nodes that never send.
struct NoNet;

impl NetPort for NoNet {
    fn commit(&mut self, _: MsgPriority, _: &[Word]) -> InjectAck {
        InjectAck::Rejected
    }
}

/// The interpreter alone: 64 isolated nodes running the vendored kernel
/// loop against a null port. Returns ns per retired instruction.
fn mdp_kernel(scale: Scale, spans: &mut Spans) -> f64 {
    let dims = MeshDims::new(4, 4, 4);
    let program = Arc::new(programs::kernel_loop());
    let mut nodes: Vec<MdpNode> = dims
        .iter_nodes()
        .map(|id| MdpNode::new(id, dims, Arc::clone(&program), MdpConfig::default(), true))
        .collect();
    let cycles = (100_000 / scale.0).max(1);
    let ((), span) = spans.time("mdp.kernel", "kernel", |_| {
        for now in 0..cycles {
            for node in &mut nodes {
                node.tick(now, &mut NoNet);
            }
        }
    });
    let instructions: u64 = nodes.iter().map(|n| n.stats().instructions).sum();
    spans.duration_ns(span) as f64 / instructions as f64
}

/// The traffic the uniform workloads offer.
fn uniform_traffic(seed: u64) -> TrafficSpec {
    TrafficSpec::new(seed)
        .pattern(TrafficPattern::UniformRandom)
        .load(450_000)
        .msg_words(4)
}

/// The router alone: an 8×8×8 `Network` under the uniform plan, its eject
/// FIFOs drained as fast as they fill. Returns ns per flit-hop.
fn net_kernel(seed: u64, scale: Scale, spans: &mut Spans) -> f64 {
    let mut net = Network::new(NetConfig::new(MeshDims::new(8, 8, 8)));
    net.set_traffic_plan(TrafficPlan::from_spec(uniform_traffic(seed)));
    let cycles = (2_500 / scale.0).max(1);
    let mut pending: Vec<NodeId> = Vec::new();
    let ((), span) = spans.time("net.kernel", "kernel", |_| {
        for _ in 0..cycles {
            net.step();
            pending.clear();
            pending.extend(net.pending_nodes());
            for &id in &pending {
                for priority in MsgPriority::ALL {
                    while net.pop_delivered(id, priority).is_some() {}
                }
            }
        }
    });
    spans.duration_ns(span) as f64 / net.stats().flit_hops as f64
}

/// The generator alone: ns per `fires` (+ `dest` when it fires) decision,
/// 512 nodes × 8 000 cycles of them.
fn traffic_kernel(seed: u64, scale: Scale, spans: &mut Spans) -> f64 {
    let dims = MeshDims::new(8, 8, 8);
    let plan = TrafficPlan::from_spec(uniform_traffic(seed)).expect("the uniform spec has load");
    let cycles = (8_000 / scale.0).max(1);
    let ((), span) = spans.time("traffic.fires", "kernel", |_| {
        let mut acc = 0u32;
        for cycle in 0..cycles {
            for node in 0..dims.nodes() {
                if plan.fires(node, cycle) {
                    acc ^= plan.dest(node, cycle, dims).0;
                }
            }
        }
        black_box(acc);
    });
    spans.duration_ns(span) as f64 / (cycles * u64::from(dims.nodes())) as f64
}

/// (b) Kernels and pairs. Independent of the workload being traced: they
/// locate a change in one layer without that layer's neighbours around it.
///
/// # Errors
///
/// A child process that could not be run.
pub fn kernels_and_pairs(seed: u64, scale: Scale, spans: &mut Spans) -> Result<Report, String> {
    let mut checks = Vec::new();
    let ex512 = Spec::prefix(Workload::Exchange512, seed, scale);
    let ex_cycles = fixed_cycles(&ex512);
    let ex4096 = Spec::prefix(Workload::Exchange4096, seed, scale);
    let big_cycles = fixed_cycles(&ex4096);
    let plain = Spec::prefix(Workload::Uniform512, seed, scale);
    let uni_cycles = fixed_cycles(&plain);
    let mut traced = plain.clone();
    traced.config = traced.config.traced();
    // The largest program the workloads assemble.
    let radix_cfg = RadixConfig { keys: 40_960, seed };
    // Oversubscribed, the two-thread pair would measure the host's
    // scheduler: it is failed, not run.
    let two_cpus = host::cpus() >= 2;
    checks.push(Check::new("par2_has_two_cpus", two_cpus));
    let mut probe = Probe::new();
    // The first run faults the probe's memory in.
    probe.run();

    let mut values = repeated(|| {
        let mut v = Values::new();
        v.insert("host.calib_ns", host::calib_ns());
        v.insert("host.probe_ns", probe.run());
        v.insert("mdp.kernel_ns_per_instr", mdp_kernel(scale, spans));
        v.insert("net.kernel_ns_per_flit_hop", net_kernel(seed, scale, spans));
        v.insert("traffic.fires_ns", traffic_kernel(seed, scale, spans));
        let (program, asm) = spans.time("asm.radix_program", "kernel", |_| {
            radix::program(&radix_cfg, 512)
        });
        black_box(program);
        v.insert("asm.radix_program_s", spans.secs(asm));

        // The exchange loop on the event engine is the base of three pairs.
        let (event_stats, _, event) =
            run_machine(&ex512, Engine::Event, ex_cycles, spans, "event", "pair");
        let event_ns = spans.duration_ns(event) as f64;

        // Two worker threads against one.
        if two_cpus {
            let cpu0 = host::cpu_ns();
            let (par_stats, _, par) = run_machine(
                &ex512,
                Engine::Parallel(2),
                ex_cycles,
                spans,
                "parallel2",
                "pair",
            );
            let cpu = (host::cpu_ns() - cpu0) as f64;
            let par_ns = spans.duration_ns(par) as f64;
            checks.push(Check::new("par2_equals_event", par_stats == event_stats));
            v.insert("machine.par2_vs_event", event_ns / par_ns);
            v.insert("machine.par2_cpu_per_wall", cpu / par_ns);
        } else {
            v.insert("machine.par2_vs_event", 0.0);
            v.insert("machine.par2_cpu_per_wall", 0.0);
        }

        // Replay capture on against off.
        let (mut m, _) = spans.time("machine.new", "pair", |_| ex512.machine());
        m.record_replay(jm_replay::DEFAULT_INTERVAL);
        let ((), capture) = spans.time("replay.capture", "pair", |_| m.run(ex_cycles));
        let log = m.finish_replay().expect("recording was armed");
        checks.push(Check::new(
            "replay_capture_is_invisible",
            m.stats() == event_stats && log.end_cycle() == ex_cycles,
        ));
        v.insert(
            "replay.capture_overhead",
            spans.duration_ns(capture) as f64 / event_ns - 1.0,
        );
        v.insert("replay.log_bytes", log.to_bytes().len() as f64);
        drop(m);

        // Eight times the nodes: per node-cycle cost at 16³ over 8³.
        let (_, _, big) = run_machine(&ex4096, Engine::Event, big_cycles, spans, "event", "pair");
        v.insert(
            "machine.scale4096_vs_512",
            (spans.duration_ns(big) as f64 / (4096.0 * big_cycles as f64))
                / (event_ns / (512.0 * ex_cycles as f64)),
        );

        // Lifecycle tracing on against off, then what the trace costs to use.
        let (plain_stats, _, off) = run_machine(
            &plain,
            Engine::Event,
            uni_cycles,
            spans,
            "trace.off",
            "pair",
        );
        let mut m = traced.machine();
        let ((), on) = spans.time("trace.capture", "pair", |_| m.run(uni_cycles));
        checks.push(Check::new("tracing_is_invisible", m.stats() == plain_stats));
        let (trace, take) = spans.time("trace.take", "pair", |_| m.take_trace());
        let trace = trace.expect("tracing was enabled");
        let (digest, hash) = spans.time("trace.hash", "pair", |_| jm_trace::hash(&trace));
        black_box(digest);
        let (json, chrome) = spans.time("trace.chrome_json", "pair", |_| {
            jm_trace::chrome_json(&trace)
        });
        black_box(json.len());
        v.insert(
            "trace.capture_overhead",
            spans.duration_ns(on) as f64 / spans.duration_ns(off) as f64 - 1.0,
        );
        v.insert("trace.take_s", spans.secs(take));
        v.insert("trace.hash_s", spans.secs(hash));
        v.insert("trace.chrome_json_s", spans.secs(chrome));
        v.insert("trace.events", trace.events.len() as f64);
        v
    });
    values.insert("host.cpus", host::cpus() as f64);

    // What a trace costs in resident memory, from the peaks of two fresh
    // processes: inside this one, freed pages would be reused and hide it.
    let third = Scale(scale.0 * 3);
    let off = child::spawn(Workload::Uniform512, seed, third)?;
    let on = child::spawn(Workload::Uniform512Traced, seed, third)?;
    values.insert(
        "trace.rss_bytes_per_msg",
        per(
            (on.peak_rss_kib - off.peak_rss_kib).max(0.0) * 1024.0,
            on.sim.traffic_accepted as f64,
        ),
    );
    Ok(Report { values, checks })
}

/// (c) Simulated counts of a full-size run, plus the one host-side rate
/// users quote: simulated instructions per host second.
pub fn sim_counts(run: &ChildResult) -> Values {
    let sim = &run.sim;
    let node_cycles = sim.class_cycles.iter().sum::<u64>() as f64;
    Values::from([
        ("sim.cycles", sim.cycles as f64),
        ("sim.instructions", sim.instructions as f64),
        ("sim.ipc", per(sim.instructions as f64, node_cycles)),
        ("sim.threads", sim.threads as f64),
        ("sim.msgs_delivered", sim.msgs_delivered as f64),
        ("sim.flit_hops", sim.flit_hops as f64),
        (
            "sim.mean_latency",
            per(sim.latency_sum as f64, sim.msgs_delivered as f64),
        ),
        ("sim.send_faults", sim.send_faults as f64),
        (
            "sim.idle_fraction",
            per(
                sim.class_cycles[StatClass::Idle.index()] as f64,
                node_cycles,
            ),
        ),
        ("sim.traffic_offered", sim.traffic_offered as f64),
        ("sim.traffic_accepted", sim.traffic_accepted as f64),
        ("sim.traffic_dropped", sim.traffic_dropped as f64),
        (
            "machine.minstr_per_s",
            sim.instructions as f64 / (run.wall_ns / 1e9) / 1e6,
        ),
    ])
}
