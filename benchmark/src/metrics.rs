//! Every metric the benchmark reports, by name, with its unit and the
//! direction in which it improves. `BENCHMARK.json` lists the same names;
//! a test keeps the two in step.
//!
//! Host time unless prefixed `sim.`. README.md defines each one.

use crate::json::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the simulator sees: every workload reports all four.
pub const END_TO_END: [MetricDef; 4] = [
    lower("ns_per_node_cycle", "ns"),
    lower("cpu_ns_per_node_cycle", "ns"),
    lower("setup_s", "s"),
    lower("peak_rss_mib", "MiB"),
];

/// What the layer pass reports, for every workload.
pub const PER_LAYER: [MetricDef; 42] = [
    // (a) Split stepper, on a prefix of the workload. The `_ns` phase
    // metrics are per node-cycle, so they add up to the stepper's own
    // ns per node-cycle.
    lower("mdp.tick_ns", "ns"),
    lower("mdp.tick_ns_per_instr", "ns"),
    lower("mdp.deliver_ns", "ns"),
    lower("mdp.deliver_ns_per_word", "ns"),
    lower("net.step_ns", "ns"),
    lower("net.step_ns_per_flit_hop", "ns"),
    lower("split.loop_ns", "ns"),
    higher("split.coverage", "ratio"),
    lower("machine.naive_vs_split", "ratio"),
    lower("machine.event_vs_split", "ratio"),
    lower("machine.new_s", "s"),
    // (b) Kernels and pairs: the same for every workload.
    lower("mdp.kernel_ns_per_instr", "ns"),
    lower("net.kernel_ns_per_flit_hop", "ns"),
    lower("traffic.fires_ns", "ns"),
    lower("asm.radix_program_s", "s"),
    higher("machine.par2_vs_event", "ratio"),
    lower("machine.par2_cpu_per_wall", "ratio"),
    lower("machine.scale4096_vs_512", "ratio"),
    lower("trace.capture_overhead", "ratio"),
    lower("trace.take_s", "s"),
    lower("trace.hash_s", "s"),
    lower("trace.chrome_json_s", "s"),
    lower("trace.events", "count"),
    lower("trace.rss_bytes_per_msg", "B"),
    lower("replay.capture_overhead", "ratio"),
    lower("replay.log_bytes", "B"),
    higher("host.cpus", "count"),
    lower("host.calib_ns", "ns"),
    lower("host.probe_ns", "ns"),
    // (c) Simulated counts of the full-size run: exact, and a change that
    // only touches the simulator's speed must leave them where they are.
    // The direction is what a change to the *modelled machine* would want.
    lower("sim.cycles", "count"),
    lower("sim.instructions", "count"),
    higher("sim.ipc", "ratio"),
    lower("sim.threads", "count"),
    higher("sim.msgs_delivered", "count"),
    lower("sim.flit_hops", "count"),
    lower("sim.mean_latency", "cycles"),
    lower("sim.send_faults", "count"),
    lower("sim.idle_fraction", "ratio"),
    higher("sim.traffic_offered", "count"),
    higher("sim.traffic_accepted", "count"),
    lower("sim.traffic_dropped", "count"),
    higher("machine.minstr_per_s", "Minstr/s"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// `{"name": {"value": v, "unit": u}, …}` for every metric in `defs`.
///
/// # Errors
///
/// Names the first metric `values` lacks or holds a non-number for: the
/// contract is every metric, every run.
pub fn to_json(defs: &[MetricDef], values: &Values) -> Result<Value, String> {
    let mut out = BTreeMap::new();
    for def in defs {
        match values.get(def.name) {
            Some(v) if v.is_finite() => {
                out.insert(
                    def.name.to_string(),
                    Value::obj([("value", Value::from(*v)), ("unit", Value::str(def.unit))]),
                );
            }
            Some(v) => return Err(format!("metric {} is {v}", def.name)),
            None => return Err(format!("metric {} was not measured", def.name)),
        }
    }
    Ok(Value::Obj(out))
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn names_are_plain_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                def.name.len() <= 64
                    && def
                        .name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {:?}",
                def.name
            );
            assert!(seen.insert(def.name), "duplicate metric {:?}", def.name);
        }
    }

    #[test]
    fn a_missing_metric_is_an_error() {
        let mut values = Values::new();
        values.insert("ns_per_node_cycle", 1.0);
        assert!(to_json(&END_TO_END, &values).is_err());
    }
}
