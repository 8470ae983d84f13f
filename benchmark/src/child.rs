//! One workload, run once, in a process of its own.
//!
//! The parent re-executes this binary with `--child`, so every measured run
//! starts from a fresh heap and `VmHWM` belongs to one workload. The child
//! times set-up and run separately, with no benchmark spans active, checks
//! what it simulated, and prints one JSON line.

use crate::host;
use crate::json::{self, Value};
use crate::workloads::{Scale, Spec, Stop, Workload};
use jm_apps::radix;
use jm_isa::instr::StatClass;
use jm_machine::MachineStats;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The architectural counters of a finished run: the `sim.*` metrics and
/// the input of the golden digest.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCounts {
    pub cycles: u64,
    pub instructions: u64,
    pub threads: u64,
    pub msgs_delivered: u64,
    pub flit_hops: u64,
    pub latency_sum: u64,
    pub send_faults: u64,
    pub traffic_offered: u64,
    pub traffic_accepted: u64,
    pub traffic_dropped: u64,
    /// Node cycles by [`StatClass`], in `StatClass::ALL` order.
    pub class_cycles: [u64; 7],
}

impl SimCounts {
    pub fn of(stats: &MachineStats) -> SimCounts {
        SimCounts {
            cycles: stats.cycles,
            instructions: stats.nodes.instructions,
            threads: stats.nodes.threads,
            msgs_delivered: stats.net.delivered_msgs,
            flit_hops: stats.net.flit_hops,
            latency_sum: stats.net.latency_sum,
            send_faults: stats.nodes.send_faults,
            traffic_offered: stats.net.traffic.offered_msgs,
            traffic_accepted: stats.net.traffic.accepted_msgs,
            traffic_dropped: stats.net.traffic.dropped_msgs,
            class_cycles: StatClass::ALL.map(|c| stats.nodes.class_cycles(c)),
        }
    }

    /// Every counter, in the one fixed order the digest and the pipe between
    /// child and parent both use.
    fn fields(&self) -> [u64; 17] {
        let [c0, c1, c2, c3, c4, c5, c6] = self.class_cycles;
        [
            self.cycles,
            self.instructions,
            self.threads,
            self.msgs_delivered,
            self.flit_hops,
            self.latency_sum,
            self.send_faults,
            self.traffic_offered,
            self.traffic_accepted,
            self.traffic_dropped,
            c0,
            c1,
            c2,
            c3,
            c4,
            c5,
            c6,
        ]
    }

    /// The inverse of [`Self::fields`].
    fn from_fields(fields: [u64; 17]) -> SimCounts {
        let [cycles, instructions, threads, msgs_delivered, flit_hops, latency_sum, send_faults, traffic_offered, traffic_accepted, traffic_dropped, class_cycles @ ..] =
            fields;
        SimCounts {
            cycles,
            instructions,
            threads,
            msgs_delivered,
            flit_hops,
            latency_sum,
            send_faults,
            traffic_offered,
            traffic_accepted,
            traffic_dropped,
            class_cycles,
        }
    }

    /// FNV-1a over the explicit counter list above. Deliberately not a hash
    /// of `{:?}` of `MachineStats`: a host-side counter added to that
    /// struct later must not move the digest.
    pub fn digest(&self) -> u64 {
        let mut h = jm_trace::Fnv1a::new();
        for v in self.fields() {
            h.write_u64(v);
        }
        h.finish()
    }

    fn to_json(&self) -> Value {
        Value::Arr(self.fields().map(Value::from).to_vec())
    }

    fn from_json(v: &Value) -> Option<SimCounts> {
        let fields: Vec<u64> = v
            .as_arr()?
            .iter()
            .map(|n| n.as_f64().map(|n| n as u64))
            .collect::<Option<_>>()?;
        Some(SimCounts::from_fields(fields.try_into().ok()?))
    }
}

/// A named correctness check. Each is one attempted operation of the
/// benchmark; a failed one is a failed operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub name: String,
    pub passed: bool,
}

impl Check {
    pub fn new(name: impl Into<String>, passed: bool) -> Check {
        Check {
            name: name.into(),
            passed,
        }
    }
}

/// What one child measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildResult {
    /// Build program + `JMachine::new` + data load, seconds.
    pub setup_s: f64,
    /// Wall time of the run phase, nanoseconds.
    pub wall_ns: f64,
    /// Process CPU time over the run phase, all threads, nanoseconds.
    pub cpu_ns: f64,
    /// Nodes × simulated cycles: the denominator of both per-node-cycle
    /// metrics.
    pub node_cycles: f64,
    /// `VmHWM` at exit, KiB.
    pub peak_rss_kib: f64,
    pub sim: SimCounts,
    /// Lifecycle events in the assembled trace (traced workload only).
    pub trace_events: u64,
    pub checks: Vec<Check>,
}

/// Runs `workload` once in this process.
pub fn run_here(workload: Workload, seed: u64, scale: Scale) -> ChildResult {
    let t0 = Instant::now();
    let spec = Spec::full(workload, seed, scale);
    let mut m = spec.machine();
    let setup_s = t0.elapsed().as_secs_f64();

    let cpu0 = host::cpu_ns();
    let t1 = Instant::now();
    let outcome = spec.run(&mut m);
    // Assembling the trace is part of what a traced run costs its user.
    let trace = m.take_trace();
    let wall_ns = t1.elapsed().as_nanos() as f64;
    let cpu_ns = (host::cpu_ns() - cpu0) as f64;

    let stats = m.stats();
    let sim = SimCounts::of(&stats);
    let mut checks = vec![Check::new(
        "completed",
        outcome.is_ok() && m.node_errors().is_empty() && sim.instructions > 0,
    )];
    if let (Some(cfg), Some(keys)) = (&spec.radix, spec.keys()) {
        checks.push(Check::new(
            "sorted",
            radix::result(&m, cfg) == radix::reference(&keys),
        ));
    }
    if spec.config.traffic.is_some() {
        checks.push(Check::new(
            "offers_conserved",
            sim.traffic_offered > 0
                && sim.traffic_offered == sim.traffic_accepted + sim.traffic_dropped,
        ));
    } else {
        // Every other workload sends its own messages: what the nodes sent
        // the network took, and no more than that came out of it. (A handler
        // is dispatched on its header, so mid-run a message can be received
        // before its tail is delivered.) Once the machine is quiescent
        // nothing is left in between.
        let (sent, injected) = (stats.nodes.msgs_sent, stats.net.injected_msgs);
        let (delivered, received) = (stats.net.delivered_msgs, stats.nodes.msgs_received);
        let conserved = match spec.stop {
            Stop::Cycles(_) => sent == injected && delivered <= injected && received <= injected,
            Stop::Quiescent => sent == injected && delivered == injected && received == injected,
        };
        checks.push(Check::new("messages_conserved", conserved));
    }
    let trace_events = trace.as_ref().map_or(0, |t| t.events.len() as u64);
    if spec.config.trace.enabled {
        checks.push(Check::new("trace_assembled", trace_events > 0));
    }
    ChildResult {
        setup_s,
        wall_ns,
        cpu_ns,
        node_cycles: f64::from(m.node_count()) * sim.cycles as f64,
        peak_rss_kib: host::peak_rss_kib() as f64,
        sim,
        trace_events,
        checks,
    }
}

impl ChildResult {
    pub fn ns_per_node_cycle(&self) -> f64 {
        self.wall_ns / self.node_cycles
    }

    pub fn cpu_ns_per_node_cycle(&self) -> f64 {
        self.cpu_ns / self.node_cycles
    }

    pub fn peak_rss_mib(&self) -> f64 {
        self.peak_rss_kib / 1024.0
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("setup_s", Value::from(self.setup_s)),
            ("wall_ns", Value::from(self.wall_ns)),
            ("cpu_ns", Value::from(self.cpu_ns)),
            ("node_cycles", Value::from(self.node_cycles)),
            ("peak_rss_kib", Value::from(self.peak_rss_kib)),
            ("sim", self.sim.to_json()),
            ("trace_events", Value::from(self.trace_events)),
            (
                "checks",
                Value::obj(
                    self.checks
                        .iter()
                        .map(|c| (c.name.clone(), Value::from(c.passed))),
                ),
            ),
        ])
    }

    fn from_json(v: &Value) -> Option<ChildResult> {
        let num = |key: &str| v.get(key)?.as_f64();
        Some(ChildResult {
            setup_s: num("setup_s")?,
            wall_ns: num("wall_ns")?,
            cpu_ns: num("cpu_ns")?,
            node_cycles: num("node_cycles")?,
            peak_rss_kib: num("peak_rss_kib")?,
            sim: SimCounts::from_json(v.get("sim")?)?,
            trace_events: num("trace_events")? as u64,
            checks: v
                .get("checks")?
                .as_obj()?
                .iter()
                .map(|(name, passed)| Some(Check::new(name.clone(), passed.as_bool()?)))
                .collect::<Option<_>>()?,
        })
    }
}

/// Runs `workload` once in a fresh process of this binary and waits for it.
///
/// # Errors
///
/// A description of how the child failed: it could not start, exited with
/// a failure (a simulator panic lands here), or printed no result.
pub fn spawn(workload: Workload, seed: u64, scale: Scale) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--scale", &scale.0.to_string()])
        // A CI job that arms replay capture for the simulator's own
        // binaries must not change what this one measures.
        .env_remove("JM_REPLAY_CAPTURE")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {} {}", workload.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    json::parse(line)
        .ok()
        .as_ref()
        .and_then(ChildResult::from_json)
        .ok_or_else(|| format!("child {} printed no result: {line:?}", workload.name()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_survive_the_pipe() {
        let r = run_here(Workload::Ring64, 7, Scale(400));
        assert!(r.checks.iter().all(|c| c.passed), "{:?}", r.checks);
        let back = ChildResult::from_json(&json::parse(&r.to_json().to_string()).unwrap());
        assert_eq!(back, Some(r));
    }

    #[test]
    fn digest_ignores_nothing_it_lists() {
        let base = run_here(Workload::Ring64, 7, Scale(400)).sim;
        let mut moved = base.clone();
        moved.class_cycles[6] += 1;
        assert_ne!(base.digest(), moved.digest());
        let mut moved = base.clone();
        moved.traffic_dropped += 1;
        assert_ne!(base.digest(), moved.digest());
    }
}
