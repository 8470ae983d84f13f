//! Lifecycle-tracing integration tests.
//!
//! A 4×4 mesh runs a many-to-one RPC workload (every node sends its id to
//! node 0) with tracing enabled, and the assembled trace must tell a
//! causally consistent story: every message's events strictly ordered
//! (inject < deliver < dispatch < handler-end), hop counts equal to mesh
//! distance, and the latency decomposition summing exactly to the
//! end-to-end latency. Tracing must also be *purely observational*: the
//! same workload with tracing on and off produces bit-identical machine
//! statistics on both engines, and two traced runs produce byte-identical
//! trace summaries. And a trace is an observation of the machine, not of
//! the engine: its hash, events and occupancy samples are the same under
//! every engine and shard cut.

use jm_asm::Program;
use jm_bench::observe;
use jm_bench::registry::Point;
use jm_bench::workloads::{exchange_program, gather_program, ring_program, sink_program};
use jm_isa::node::{MeshDims, NodeId};
use jm_machine::{
    Engine, FaultSpec, JMachine, MachineConfig, MachineTrace, StartPolicy, TraceConfig, TrafficSpec,
};
use jm_runtime::reliable;
use jm_tests::agree;
use jm_trace::{chrome_json, hash, summary_json, EventKind, FaultEvent};

fn mesh() -> MeshDims {
    MeshDims::new(4, 4, 1)
}

fn config(engine: Engine, traced: bool) -> MachineConfig {
    let mut c = MachineConfig::with_dims(mesh())
        .start(StartPolicy::AllNodes)
        .engine(engine);
    if traced {
        c = c.trace(TraceConfig::on().sample_every(16));
    }
    c
}

/// Runs the gather workload to quiescence and returns the machine.
fn run(engine: Engine, traced: bool) -> JMachine {
    let mut m = JMachine::new(gather_program(), config(engine, traced));
    m.run_until_quiescent(100_000).expect("workload finished");
    m
}

fn traced_run(engine: Engine) -> (JMachine, MachineTrace) {
    let mut m = run(engine, true);
    let trace = m.take_trace().expect("tracing was enabled");
    (m, trace)
}

#[test]
fn untraced_machine_has_no_trace() {
    let mut m = run(Engine::Event, false);
    assert!(m.take_trace().is_none());
}

#[test]
fn lifecycle_events_are_strictly_ordered() {
    let (m, trace) = traced_run(Engine::Event);
    let msgs = trace.messages();
    // One message per node, all injected and dispatched.
    assert_eq!(msgs.len() as u64, m.stats().net.injected_msgs);
    assert_eq!(msgs.len(), 16);
    let dims = mesh();
    for msg in &msgs {
        let deliver = msg.deliver.expect("delivered");
        let dispatch = msg.dispatch.expect("dispatched");
        let handler_end = msg.handler_end.expect("handler ended");
        assert!(msg.inject < deliver, "{msg:?}");
        assert!(deliver < dispatch, "{msg:?}");
        assert!(dispatch < handler_end, "{msg:?}");
        assert_eq!(msg.dst, NodeId(0));
        // The head flit crosses one channel per hop of mesh distance.
        let c = dims.coord(msg.src);
        let distance = u32::from(c.x) + u32::from(c.y) + u32::from(c.z);
        assert_eq!(msg.hops, distance, "{msg:?}");
    }
}

#[test]
fn decomposition_sums_to_end_to_end_latency() {
    let (_, trace) = traced_run(Engine::Event);
    for msg in trace.messages() {
        let t_net = msg.t_net().expect("net component");
        let t_queue = msg.t_queue().expect("queue component");
        let end_to_end = msg.end_to_end().expect("end to end");
        assert_eq!(t_net + t_queue, end_to_end, "{msg:?}");
        assert!(msg.t_handler().expect("handler component") > 0);
    }
    let b = trace.breakdown();
    assert_eq!(b.end_to_end.count(), 16);
    assert_eq!(b.net.count(), 16);
    assert_eq!(
        b.net.sum() + b.queue.sum(),
        b.end_to_end.sum(),
        "component sums must add up"
    );
}

#[test]
fn tracing_is_purely_observational() {
    // Bit-identical MachineStats with tracing on vs off, on both engines.
    for engine in [Engine::Event, Engine::Naive] {
        let plain = run(engine, false);
        let traced = run(engine, true);
        assert_eq!(
            plain.stats(),
            traced.stats(),
            "{engine:?}: tracing changed observable statistics"
        );
    }
}

/// Drives `program` under every engine and holds the trace — final cycle,
/// hash, event count, sample count at `sample_every = 16` — to the naive
/// engine's.
fn assert_one_trace(
    name: &str,
    program: Program,
    config: MachineConfig,
    drive: impl Fn(&mut JMachine),
) {
    let config = config.trace(TraceConfig::on().sample_every(16));
    let trace = |m: &mut JMachine| {
        drive(m);
        let trace = m.take_trace().expect("tracing was enabled");
        let counts = (trace.events.len(), trace.samples.len() as u64);
        (m.cycle(), hash(&trace), counts)
    };
    let ((cycles, _, (events, samples)), _) = agree(name, &program, config, trace);
    assert!(events > 0, "{name}: nothing traced");
    assert_eq!(samples, cycles / 16, "{name}: a sample boundary was missed");
}

#[test]
fn the_trace_is_the_same_under_every_engine() {
    let to_quiescence = |m: &mut JMachine| {
        m.run_until_quiescent(1_000_000).expect("workload finished");
    };
    // Meshes deep enough in z that the parallel engines cut them (into 4,
    // 2, 2 and 4 slabs). The ring passes one token: idle almost everywhere,
    // so the event engines skip most cycles and most sample boundaries lie
    // in a skip.
    let all_nodes = |dims| MachineConfig::with_dims(dims).start(StartPolicy::AllNodes);
    let ring = all_nodes(MeshDims::new(2, 1, 8));
    assert_one_trace("ring", ring_program(2, false), ring, to_quiescence);
    let gather = all_nodes(MeshDims::new(2, 2, 4));
    assert_one_trace("gather", gather_program(), gather, to_quiescence);
    let exchange = all_nodes(MeshDims::new(4, 4, 4));
    assert_one_trace("exchange", exchange_program(), exchange, |m| m.run(1_500));
    let sink = sink_program();
    let uniform = TrafficSpec::new(7)
        .load(200_000)
        .msg_words(3)
        .window(100, 400)
        .handler(sink.handler("sink"));
    let windowed = MachineConfig::with_dims(MeshDims::new(2, 2, 8))
        .start(StartPolicy::None)
        .traffic(uniform);
    assert_one_trace("uniform", sink, windowed, to_quiescence);
}

#[test]
fn trace_summary_is_deterministic() {
    let (_, a) = traced_run(Engine::Event);
    let (_, b) = traced_run(Engine::Event);
    assert_eq!(hash(&a), hash(&b));
    assert_eq!(summary_json(&a), summary_json(&b));
}

#[test]
fn exports_are_well_formed() {
    let (_, trace) = traced_run(Engine::Event);
    assert!(!trace.samples.is_empty(), "sampling produced no points");
    assert!(trace.samples.windows(2).all(|w| w[0].cycle < w[1].cycle));

    let chrome = chrome_json(&trace);
    assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());
    assert!(chrome.contains(r#""ph":"X""#), "no complete spans");
    assert!(chrome.contains(r#""ph":"C""#), "no counter samples");
    assert!(chrome.contains("net msg#"));
    assert!(chrome.contains("queue msg#"));
    assert!(chrome.contains("handler@"));

    let summary = summary_json(&trace);
    assert!(summary.contains(r#""injected": 16"#));
    assert!(summary.contains(r#""dispatched": 16"#));
    assert!(summary.contains("\"trace_hash\""));
}

/// The machine merges its components' event buffers into the trace at
/// occupancy samples, a batch at a time, while the run goes on. That is
/// unobservable: however often the samples fall — every cycle, every 16,
/// never before the take — and wherever the run stops to take a trace,
/// the events are those of one take at the end, under every engine.
#[test]
fn merging_the_trace_during_the_run_is_unobservable() {
    let sink = sink_program();
    let traffic = TrafficSpec::new(11)
        .load(400_000)
        .msg_words(3)
        .window(0, 20_000)
        .handler(sink.handler("sink"));
    // Cut into 4 and 2 slabs by the parallel engines.
    let config = MachineConfig::with_dims(MeshDims::new(2, 2, 8))
        .start(StartPolicy::None)
        .traffic(traffic);
    let events = |every: u64, stop: Option<u64>| {
        let config = config.trace(TraceConfig::on().sample_every(every));
        let label = format!("sample every {every}, stop at {stop:?}");
        let (events, _) = agree(&label, &sink, config, |m| {
            let mut events = Vec::new();
            if let Some(stop) = stop {
                m.run(stop);
                events = m.take_trace().expect("tracing was enabled").events;
            }
            m.run_until_quiescent(1_000_000)
                .expect("the traffic drains");
            events.extend(m.take_trace().expect("tracing was enabled").events);
            events
        });
        events
    };
    let whole = events(1 << 40, None);
    // Several of the machine's merge batches (2^16 events each).
    assert!(whole.len() > 3 << 16, "{} events", whole.len());
    for every in [1, 16] {
        assert!(events(every, None) == whole, "sample every {every}");
    }
    assert!(events(16, Some(9_001)) == whole, "taken twice");
}

/// The gather `jmsim repro` traces into `EXPERIMENTS.md` hashes to the
/// committed value. The tests above hold every engine to one trace; this
/// one also catches a change that moves all of them alike.
#[test]
fn the_repro_gather_trace_hash_is_pinned() {
    let Point {
        program,
        config,
        read,
    } = observe::gather(MeshDims::for_nodes(64), 16);
    let mut m = JMachine::new(program, config.engine(Engine::Event));
    let trace = read(&mut m).expect("the gather finishes");
    assert_eq!(hash(&trace), 0x7f8b_f5fa_c6ee_4309);
}

/// Under checksums every message carries a trailer word past its header's
/// length, and a corrupted one is dropped at dispatch: a node frames each
/// arriving message with its trailer, and a drop's fault event names the
/// dropped message. Pinned under every engine.
#[test]
fn a_checksummed_trace_frames_trailers_and_names_drops() {
    let config = MachineConfig::with_dims(MeshDims::new(2, 2, 4))
        .fault(FaultSpec::new(7).corrupt(60_000).checksums(true))
        .trace(TraceConfig::on().sample_every(16));
    let program = reliable::demo_program(3, 15);
    let ((drops, digest), _) = agree("checksummed", &program, config, |m| {
        m.run_until_quiescent(5_000_000)
            .expect("the retries finish");
        let trace = m.take_trace().expect("tracing was enabled");
        let drops = trace
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Fault {
                        what: FaultEvent::DropMessage,
                        ..
                    }
                )
            })
            .count();
        (drops, hash(&trace))
    });
    assert!(drops > 0, "the plan dropped no message");
    assert_eq!(digest, 0x4db5_710d_4f49_f66b);
}
