//! The benchmark's modes: one workload for a fixed time (the driver's
//! contract), the full suite, the layer pass, and `--bless`.

use crate::child::{self, Check, ChildResult};
use crate::host;
use crate::json::{self, Value};
use crate::layers;
use crate::metrics::{self, median, MetricDef, Values, END_TO_END, PER_LAYER};
use crate::probe::{Probe, NOMINAL_NS};
use crate::spans::Spans;
use crate::workloads::{Scale, Workload, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The benchmark's own directory, where `golden.json` and `out/` live.
fn home() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Digest of every workload at the default seed and full scale, as of the
/// commit that last blessed them. `None` for a workload the file lacks.
fn golden(workload: Workload) -> Option<u64> {
    let doc = json::parse(include_str!("../golden.json")).ok()?;
    let hex = doc.get("digests")?.get(workload.name())?.as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

/// Checks of one workload, gathered over its runs, with failures named on
/// standard error as they are found.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: Vec<String>,
}

impl Tally {
    fn add(&mut self, scope: &str, check: &Check) {
        self.attempted += 1;
        if !check.passed {
            eprintln!("jmbench: FAILED {scope}: {}", check.name);
            self.failed.push(format!("{scope}:{}", check.name));
        }
    }

    fn add_all(&mut self, scope: &str, checks: &[Check]) {
        for check in checks {
            self.add(scope, check);
        }
    }

    /// The checks the parent makes on top of each child's own: the digest
    /// repeats, matches the blessed one (default seed, full scale only),
    /// and matches the twin's.
    fn add_digests(
        &mut self,
        workload: Workload,
        seed: u64,
        scale: Scale,
        runs: &[Measured],
        twin: Option<&ChildResult>,
    ) {
        let name = workload.name();
        let digest = runs[0].run.sim.digest();
        for m in &runs[1..] {
            self.add(
                name,
                &Check::new("digest_repeats", m.run.sim.digest() == digest),
            );
        }
        if seed == DEFAULT_SEED && scale == Scale::FULL {
            self.add(
                name,
                &Check::new("digest_is_golden", golden(workload) == Some(digest)),
            );
        }
        if let Some(twin) = twin {
            self.add(
                name,
                &Check::new("digest_equals_twin", twin.sim.digest() == digest),
            );
        }
    }
}

/// One child's result with the host's speed around it.
#[derive(Debug)]
struct Measured {
    run: ChildResult,
    /// Mean of the probe's time just before and just after the child.
    probe_ns: f64,
}

impl Measured {
    /// What a time measured in this child is multiplied by, so that it
    /// reads as if the host had run at its nominal speed throughout. See
    /// `probe.rs` for why nothing simpler holds still on a shared host.
    fn speed(&self) -> f64 {
        NOMINAL_NS / self.probe_ns
    }
}

/// Runs children one at a time, with a probe run between each two. The
/// probe lives in this process: a child stays a plain simulator run, with
/// no probe memory in its `VmHWM` and no benchmark code between its clock
/// reads.
struct Sampler {
    probe: Probe,
    last_ns: f64,
}

impl Sampler {
    fn new() -> Sampler {
        let mut probe = Probe::new();
        // The first run faults the probe's memory in.
        probe.run();
        let last_ns = probe.run();
        Sampler { probe, last_ns }
    }

    fn child(&mut self, workload: Workload, seed: u64, scale: Scale) -> Result<Measured, String> {
        let before = self.last_ns;
        let run = child::spawn(workload, seed, scale)?;
        self.last_ns = self.probe.run();
        Ok(Measured {
            run,
            probe_ns: (before + self.last_ns) / 2.0,
        })
    }
}

/// The samples of each end-to-end metric over `runs`, in [`END_TO_END`]
/// order. The three times are scaled to the host's nominal speed; memory
/// is as measured.
fn end_to_end(runs: &[Measured]) -> Vec<(&'static MetricDef, Vec<f64>)> {
    let sample: [fn(&Measured) -> f64; 4] = [
        |m| m.run.ns_per_node_cycle() * m.speed(),
        |m| m.run.cpu_ns_per_node_cycle() * m.speed(),
        |m| m.run.setup_s * m.speed(),
        |m| m.run.peak_rss_mib(),
    ];
    END_TO_END
        .iter()
        .zip(sample)
        .map(|(def, f)| (def, runs.iter().map(f).collect()))
        .collect()
}

/// The last line of a driver run.
fn contract_line(tally: &Tally, metrics: Value) -> Value {
    Value::obj([
        ("correct", Value::from(tally.failed.is_empty())),
        ("attempted", Value::from(tally.attempted)),
        ("failed", Value::from(tally.failed.len() as u64)),
        ("metrics", metrics),
    ])
}

/// `--workload W --seed S --seconds T --trace 0`: fresh children of `W`,
/// one after another, until `T` seconds have gone; the median of each
/// end-to-end metric over them.
///
/// # Errors
///
/// A child that could not be run.
pub fn timed(workload: Workload, seed: u64, scale: Scale, seconds: u64) -> Result<bool, String> {
    // The twin's digest is needed for a check, not for a metric: it runs
    // before the measured window opens.
    let twin = match workload.twin() {
        Some(twin) => Some(child::spawn(twin, seed, scale)?),
        None => None,
    };
    let window = Duration::from_secs(seconds);
    let t0 = Instant::now();
    let mut sampler = Sampler::new();
    let mut runs = Vec::new();
    while runs.is_empty() || t0.elapsed() < window {
        runs.push(sampler.child(workload, seed, scale)?);
    }
    // For the person reading the log: what the host was doing, and what
    // the clock read before scaling.
    let over = |f: fn(&Measured) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    eprintln!(
        "jmbench: {} x{}: probe {:.2} ns (nominal {NOMINAL_NS}), unscaled {:.3} ns per node-cycle",
        workload.name(),
        runs.len(),
        over(|m| m.probe_ns),
        over(|m| m.run.ns_per_node_cycle()),
    );
    let mut tally = Tally::default();
    for m in &runs {
        tally.add_all(workload.name(), &m.run.checks);
    }
    tally.add_digests(workload, seed, scale, &runs, twin.as_ref());
    let medians: Values = end_to_end(&runs)
        .into_iter()
        .map(|(def, samples)| (def.name, median(&samples)))
        .collect();
    let metrics = metrics::to_json(&END_TO_END, &medians)?;
    println!("{}", contract_line(&tally, metrics));
    Ok(tally.failed.is_empty())
}

/// Writes the spans of a layer pass where the README says they go.
fn write_spans(spans: &Spans) -> Result<(), String> {
    let dir = home().join("out");
    let path = dir.join("spans.json");
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, format!("{}\n", spans.to_json())))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `--workload W --seed S --seconds T --trace 1`: the layer pass for `W`.
/// The pass is a fixed amount of work (its counts must be comparable from
/// run to run), so `--seconds` does not size it.
///
/// # Errors
///
/// A child that could not be run, or spans that could not be written.
pub fn traced(workload: Workload, seed: u64, scale: Scale) -> Result<bool, String> {
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let mut values = Values::new();
    for report in [
        layers::split_pass(workload, seed, scale, &mut spans),
        layers::kernels_and_pairs(seed, scale, &mut spans)?,
    ] {
        tally.add_all(workload.name(), &report.checks);
        values.extend(report.values);
    }
    write_spans(&spans)?;
    // Simulated counts come from the full-size run, in a process that has
    // never held a span.
    let full = child::spawn(workload, seed, scale)?;
    tally.add_all(workload.name(), &full.checks);
    values.extend(layers::sim_counts(&full));
    let metrics = metrics::to_json(&PER_LAYER, &values)?;
    println!("{}", contract_line(&tally, metrics));
    Ok(tally.failed.is_empty())
}

/// Rounds of a full-scale suite.
const ROUNDS: u32 = 5;

/// Median, extremes and count of one metric over the rounds.
fn summary(samples: &[f64], def: &MetricDef) -> Value {
    Value::obj([
        ("value", Value::from(median(samples))),
        ("unit", Value::str(def.unit)),
        (
            "min",
            Value::from(samples.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        (
            "max",
            Value::from(samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
        ),
        ("n", Value::from(samples.len() as u64)),
    ])
}

fn print_summary(workload: &str, def: &MetricDef, s: &Value) {
    let num = |key: &str| s.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    println!(
        "{workload:<18} {:<24} {:>12.4} {:<4} (min {:.4}, max {:.4}, n={})",
        def.name,
        num("value"),
        def.unit,
        num("min"),
        num("max"),
        num("n"),
    );
}

fn suite_document(
    seed: u64,
    scale: Scale,
    tally: &Tally,
    body: impl IntoIterator<Item = (&'static str, Value)>,
) -> Value {
    let mut doc = BTreeMap::from([
        ("host".to_string(), host::info()),
        ("seed".to_string(), Value::from(seed)),
        ("scale_divisor".to_string(), Value::from(scale.0)),
        ("attempted".to_string(), Value::from(tally.attempted)),
        (
            "failed".to_string(),
            Value::Arr(tally.failed.iter().map(Value::str).collect()),
        ),
    ]);
    doc.extend(body.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Obj(doc)
}

/// A bare `jmbench`: [`ROUNDS`] rounds (one at smoke scale, where the point
/// is that everything runs), each running every workload once in a
/// fresh child, one at a time and round-robin, so a slow phase of the host
/// lands on all workloads alike. Prints every end-to-end metric by name,
/// then the whole result as one JSON line.
///
/// # Errors
///
/// A child that could not be run.
pub fn suite(seed: u64, scale: Scale) -> Result<bool, String> {
    let rounds = if scale == Scale::FULL { ROUNDS } else { 1 };
    let mut tally = Tally::default();
    let mut sampler = Sampler::new();
    let mut runs: BTreeMap<Workload, Vec<Measured>> = BTreeMap::new();
    let mut calib = Vec::new();
    for round in 0..rounds {
        calib.push(host::calib_ns());
        for workload in Workload::ALL {
            let m = sampler.child(workload, seed, scale)?;
            tally.add_all(workload.name(), &m.run.checks);
            runs.entry(workload).or_default().push(m);
        }
        eprintln!("jmbench: round {} of {rounds} done", round + 1);
    }
    let mut workloads = BTreeMap::new();
    for (&workload, results) in &runs {
        let twin = workload
            .twin()
            .and_then(|t| runs.get(&t))
            .map(|r| &r[0].run);
        tally.add_digests(workload, seed, scale, results, twin);
        let mut row = BTreeMap::new();
        for (def, samples) in end_to_end(results) {
            let s = summary(&samples, def);
            print_summary(workload.name(), def, &s);
            row.insert(def.name.to_string(), s);
        }
        workloads.insert(workload.name().to_string(), Value::Obj(row));
    }
    // The host's own state over the run: how far the probe that the times
    // above are scaled by was from nominal, and the plain calibration loop.
    let probes: Vec<f64> = runs.values().flatten().map(|m| m.probe_ns).collect();
    let mut host_rows = Vec::new();
    for (name, samples) in [("host.probe_ns", &probes), ("host.calib_ns", &calib)] {
        let def = PER_LAYER
            .iter()
            .find(|d| d.name == name)
            .expect("host metrics are per-layer metrics");
        let s = summary(samples, def);
        print_summary("(host)", def, &s);
        host_rows.push((name, s));
    }
    println!(
        "checks: {} attempted, {} failed",
        tally.attempted,
        tally.failed.len()
    );
    let doc = suite_document(
        seed,
        scale,
        &tally,
        [
            ("rounds", Value::from(u64::from(rounds))),
            ("workloads", Value::Obj(workloads)),
        ]
        .into_iter()
        .chain(host_rows),
    );
    println!("{doc}");
    Ok(tally.failed.is_empty())
}

/// `--layers`: the split stepper on the five workloads that have a prefix
/// of their own, the kernels and pairs once, and the simulated counts of
/// all six. Writes `out/spans.json`.
///
/// # Errors
///
/// A child that could not be run, or spans that could not be written.
pub fn layer_suite(seed: u64, scale: Scale) -> Result<bool, String> {
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let mut rows: BTreeMap<&'static str, Values> = BTreeMap::new();
    for workload in Workload::ALL {
        let values = rows.entry(workload.name()).or_default();
        if workload.twin().is_none() {
            let report = layers::split_pass(workload, seed, scale, &mut spans);
            tally.add_all(workload.name(), &report.checks);
            values.extend(report.values);
        }
        let full = child::spawn(workload, seed, scale)?;
        tally.add_all(workload.name(), &full.checks);
        values.extend(layers::sim_counts(&full));
    }
    let shared = layers::kernels_and_pairs(seed, scale, &mut spans)?;
    tally.add_all("kernels", &shared.checks);
    rows.insert("kernels", shared.values);
    write_spans(&spans)?;

    let mut layers = BTreeMap::new();
    for (name, values) in &rows {
        let mut row = BTreeMap::new();
        for def in PER_LAYER.iter().filter(|d| values.contains_key(d.name)) {
            let v = values[def.name];
            println!("{name:<18} {:<28} {v:>16.4} {}", def.name, def.unit);
            row.insert(
                def.name.to_string(),
                Value::obj([("value", Value::from(v)), ("unit", Value::str(def.unit))]),
            );
        }
        layers.insert(name.to_string(), Value::Obj(row));
    }
    println!(
        "checks: {} attempted, {} failed",
        tally.attempted,
        tally.failed.len()
    );
    let doc = suite_document(seed, scale, &tally, [("layers", Value::Obj(layers))]);
    println!("{doc}");
    Ok(tally.failed.is_empty())
}

/// `--bless`: runs every workload once at the default seed and full scale
/// and rewrites `golden.json` with the digests it reached. The binary
/// embeds the file, so the new digests are checked from the next build on.
///
/// # Errors
///
/// A child that could not be run or failed its own checks, or a file that
/// could not be written.
pub fn bless() -> Result<bool, String> {
    let mut lines = Vec::new();
    for workload in Workload::ALL {
        let run = child::spawn(workload, DEFAULT_SEED, Scale::FULL)?;
        if let Some(bad) = run.checks.iter().find(|c| !c.passed) {
            return Err(format!(
                "{} fails {}; not blessing",
                workload.name(),
                bad.name
            ));
        }
        let line = format!("    \"{}\": \"{:016x}\"", workload.name(), run.sim.digest());
        println!("{}", line.trim_start());
        lines.push(line);
    }
    // One digest a line, so that a diff of the file names the workload.
    let doc = format!(
        "{{\n  \"seed\": {DEFAULT_SEED},\n  \"digests\": {{\n{}\n  }}\n}}\n",
        lines.join(",\n")
    );
    let path = home().join("golden.json");
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(true)
}
