//! Drives the `jmbench` binary at smoke scale (every cycle count ÷ 50, one
//! round), the way a user and the driver do, and holds `BENCHMARK.json` to
//! the names the code reports.

use jmbench::json::{self, Value};
use jmbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use jmbench::workloads::Workload;
use std::process::Command;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The tests that run the binary take turns: one of them holds the run to a
/// time limit, and one workload wants both CPUs of a small host.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    // A test that failed while holding its turn has already been reported.
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `jmbench` with `args`; returns the JSON on its last line of output.
fn jmbench(args: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_jmbench"))
        .args(args)
        .output()
        .expect("jmbench starts");
    let stdout = String::from_utf8(out.stdout).expect("output is UTF-8");
    assert!(
        out.status.success(),
        "jmbench {args:?} failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("jmbench printed a result");
    json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

/// Asserts `row` holds a finite `{value, unit}` for every metric in `defs`,
/// and nothing else.
fn assert_metrics(row: &Value, defs: &[MetricDef], context: &str) {
    let row = row
        .as_obj()
        .unwrap_or_else(|| panic!("{context}: no metrics"));
    for def in defs {
        let m = row
            .get(def.name)
            .unwrap_or_else(|| panic!("{context}: {} is missing", def.name));
        let value = m.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{context}: {} = {value:?}",
            def.name
        );
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
    }
    assert_eq!(row.len(), defs.len(), "{context}: unexpected extra metrics");
}

#[test]
fn smoke_suite_and_layer_pass_report_everything_quickly() {
    let _turn = one_at_a_time();
    let t0 = Instant::now();
    let suite = jmbench(&["--smoke"]);
    let layers = jmbench(&["--layers", "--smoke"]);
    let elapsed = t0.elapsed();

    for doc in [&suite, &layers] {
        assert_eq!(doc.get("failed"), Some(&Value::Arr(vec![])), "{doc}");
        assert!(doc.get("attempted").and_then(Value::as_f64) >= Some(7.0));
        let host = doc.get("host").expect("host is recorded");
        for key in ["git_commit", "rustc", "cpu_model", "cpus"] {
            assert!(host.get(key).is_some(), "host.{key} is missing");
        }
    }

    // Every workload × every end-to-end metric, none of them zero.
    let rows = suite.get("workloads").expect("suite has workloads");
    for w in Workload::ALL {
        let row = rows
            .get(w.name())
            .unwrap_or_else(|| panic!("{} is missing", w.name()));
        assert_metrics(row, &END_TO_END, w.name());
        for def in &END_TO_END {
            let value = row.get(def.name).and_then(|m| m.get("value"));
            assert!(
                value.and_then(Value::as_f64) > Some(0.0),
                "{} {} is not positive",
                w.name(),
                def.name
            );
        }
    }

    // The split stepper ran where it should, and covered its own wall time.
    let rows = layers.get("layers").expect("layer pass has layers");
    for w in Workload::ALL {
        let row = rows.get(w.name()).expect("every workload has a row");
        assert!(row.get("sim.cycles").is_some(), "{}: no counts", w.name());
        let coverage = row
            .get("split.coverage")
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64);
        match w.twin() {
            None => assert!(coverage >= Some(0.95), "{}: {coverage:?}", w.name()),
            Some(_) => assert_eq!(coverage, None, "{} has no prefix of its own", w.name()),
        }
    }
    assert!(rows
        .get("kernels")
        .is_some_and(|k| k.get("mdp.kernel_ns_per_instr").is_some()));

    let spans = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/out/spans.json"))
        .expect("the layer pass wrote its spans");
    let spans = json::parse(&spans).expect("spans.json is JSON");
    let spans = spans.as_arr().expect("spans.json is a list");
    assert!(spans
        .iter()
        .any(|s| s.get("name").and_then(Value::as_str) == Some("chunk")));
    for key in ["name", "start_ns", "end_ns", "parent", "workload"] {
        assert!(spans[0].get(key).is_some(), "span without {key}");
    }

    assert!(
        elapsed < Duration::from_secs(10),
        "smoke suite + layer pass took {elapsed:?}"
    );
}

#[test]
fn one_workload_as_the_driver_runs_it() {
    let _turn = one_at_a_time();
    for (trace, defs) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        let line = jmbench(&[
            "--workload",
            "uniform512_traced",
            "--seed",
            "11",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ]);
        let keys: Vec<&str> = line
            .as_obj()
            .expect("an object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{line}");
        assert_eq!(line.get("failed"), Some(&Value::Num(0.0)));
        assert!(line.get("attempted").and_then(Value::as_f64) >= Some(1.0));
        assert_metrics(line.get("metrics").unwrap(), defs, "uniform512_traced");
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "radix"][..],
        &["--seconds"],
        &["--frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_jmbench"))
            .args(args)
            .output()
            .expect("jmbench starts");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// `BENCHMARK.json` is what the driver reads; the code is what runs. They
/// must name the same workloads and metrics, in the same words.
#[test]
fn benchmark_json_names_what_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
        .expect("BENCHMARK.json is JSON");
    let list = |key: &str| doc.get(key).and_then(Value::as_arr).expect(key).to_vec();
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).expect(key).to_string();

    let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = list(key);
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (entry, def) in listed.iter().zip(defs) {
            assert_eq!(text(entry, "name"), def.name);
            assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
            assert_eq!(text(entry, "better"), def.better.as_str(), "{}", def.name);
        }
    }
    assert!(list("end_to_end").iter().all(|m| {
        m.get("bound")
            .and_then(Value::as_f64)
            .is_some_and(|b| b > 0.0 && b <= 0.25)
    }));
    assert_eq!(list("paths"), [Value::str("benchmark")]);
}
