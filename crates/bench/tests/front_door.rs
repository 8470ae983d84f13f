//! One harness, one door: a subcommand prints exactly the section `jmsim
//! repro` embeds, two `repro` runs write the same four files, and every
//! `jmsim` invocation written down anywhere in the repository — workflows,
//! composite actions, the docs — names a subcommand the dispatch table has.
//! The workflows are not executed by the test suite, so the last check is
//! what keeps them honest.

use jm_bench::{cli, registry};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn jmsim(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_jmsim"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("jmsim runs");
    (
        out.status.code().expect("jmsim exits"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

/// What `jmsim repro` writes: the report, then the row files beside it.
const REPRO_FILES: [&str; 4] = [
    "EXPERIMENTS.md",
    "BENCH_paper.json",
    "BENCH_fault.json",
    "BENCH_traffic.json",
];

/// The files of two `jmsim repro --quick --out DIR/EXPERIMENTS.md`
/// processes, a directory each, run side by side once for the whole suite.
fn quick_reports() -> &'static [[String; 4]; 2] {
    static REPORTS: OnceLock<[[String; 4]; 2]> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let dirs = ["a", "b"].map(|run| {
            let dir = format!("jmsim-repro-{}-{run}", std::process::id());
            let dir = std::env::temp_dir().join(dir);
            std::fs::create_dir_all(&dir).unwrap();
            dir
        });
        let children = dirs.each_ref().map(|dir| {
            let out = dir.join(REPRO_FILES[0]);
            Command::new(env!("CARGO_BIN_EXE_jmsim"))
                .args(["repro", "--quick", "--out", out.to_str().unwrap()])
                .stdout(std::process::Stdio::null())
                .spawn()
                .expect("jmsim runs")
        });
        for mut child in children {
            assert!(child.wait().expect("jmsim exits").success());
        }
        dirs.map(|dir| {
            let written = std::fs::read_dir(&dir).unwrap().count();
            assert_eq!(written, REPRO_FILES.len(), "{dir:?}");
            let files = REPRO_FILES
                .map(|file| std::fs::read_to_string(dir.join(file)).expect("repro wrote its file"));
            std::fs::remove_dir_all(&dir).unwrap();
            files
        })
    })
}

#[test]
fn a_subcommand_prints_exactly_its_repro_section() {
    // One micro artifact by explicit size and one macro artifact by its
    // `--quick` default, through the front door.
    for argv in [&["fig2", "64"][..], &["table5", "--quick"][..]] {
        let title = registry::find(argv[0]).expect("registered").title;
        let (code, stdout, stderr) = jmsim(argv);
        assert_eq!((code, stderr.as_str()), (0, ""), "{argv:?}");
        let section = format!("## {title}\n\n```text\n{stdout}```\n");
        assert!(quick_reports()[0][0].contains(&section), "{argv:?}");
    }
}

#[test]
fn repro_writes_the_same_bytes_twice_and_no_host_time() {
    let [a, b] = quick_reports();
    for (file, (a, b)) in REPRO_FILES.iter().zip(a.iter().zip(b)) {
        assert!(a == b, "two `repro --quick` runs wrote different {file}");
    }
    // A section per experiment, the traced gather, the scorecard — which
    // off the full size holds the sweeps' shapes and nothing else.
    let report = &a[0];
    let sections = report.matches("\n## ").count();
    assert_eq!(sections, registry::EXPERIMENTS.len() + 2, "{report}");
    assert!(report.contains("\n[skip] "), "{report}");
    assert!(!report.contains("[FAIL]"), "{report}");
    for host_time in ["cyc/s", "host time"] {
        assert!(
            !report.contains(host_time),
            "the report holds `{host_time}`"
        );
    }
}

#[test]
fn misuse_exits_2_with_one_line_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("jmsim-misuse-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for argv in [
        &["fig2", "8junk"][..],
        &["chaos", "--engine", "warp"],
        &["repro", "--quick", "--out"],
        &["trace", "--chrome"],
        // Zero is not an interval, and a size at which an artifact's
        // derived number does not exist is not a size.
        &["trace", "--sample-every", "0"],
        &["replay", "record", "--interval", "0"],
        &["fig2", "1"],
        &["fig2", "2"],
        &["fig3", "1"],
        &["table3", "1"],
        &["replay", "corrupt", "--log", "x.jmrp", "--checkpoint", "3"],
        &[
            "replay",
            "bisect",
            "--log",
            "x.jmrp",
            "--expect-log-mismatch",
            "512",
        ],
        &["gate", "--current", "x.json", "--traffic", "y.json"],
        &["fig7"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_jmsim"))
            .args(argv)
            .current_dir(&dir)
            .output()
            .expect("jmsim runs");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?}");
        assert!(
            stderr.starts_with("jmsim: ") && stderr.lines().count() == 1,
            "{stderr}"
        );
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "{argv:?} wrote a file"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gate_rejects_a_baseline_cut_mid_document() {
    let root = repo_root();
    let committed = std::fs::read_to_string(root.join("BENCH_engine.json")).unwrap();
    let cut: String = committed.split_inclusive('\n').take(12).collect();
    let path = std::env::temp_dir().join(format!("jmsim-cut-{}.json", std::process::id()));
    std::fs::write(&path, cut).unwrap();
    let current = root.join("BENCH_engine.json");
    let (code, _, stderr) = jmsim(&[
        "gate",
        "--baseline",
        path.to_str().unwrap(),
        "--current",
        current.to_str().unwrap(),
    ]);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains(path.to_str().unwrap()) && stderr.contains("malformed"),
        "{stderr}"
    );
    // The committed file gates clean against itself.
    let (code, stdout, stderr) = jmsim(&[
        "gate",
        "--baseline",
        current.to_str().unwrap(),
        "--current",
        current.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}{stderr}");
}

#[test]
fn bisect_of_a_log_with_one_flipped_checkpoint_exits_3() {
    let path = std::env::temp_dir().join(format!("jmsim-flip-{}.jmrp", std::process::id()));
    let path = path.to_str().unwrap();
    let record = ["--out", path, "--interval", "256", "--cycles", "1000"];
    let (code, _, stderr) = jmsim(&[&["replay", "record"][..], &record].concat());
    assert_eq!(code, 0, "{stderr}");
    let mut log = jm_replay::ReplayLog::read_file(path).unwrap();
    let Some(jm_replay::Record::Boundary { cycle, hash }) = log.records.get_mut(1) else {
        panic!("a 1 000-cycle recording at interval 256 has no host ops and three boundaries");
    };
    *hash ^= 1;
    let flipped = *cycle;
    log.write_file(path).unwrap();
    let (code, stdout, stderr) = jmsim(&["replay", "bisect", "--log", path]);
    std::fs::remove_file(path).unwrap();
    assert_eq!(code, 3, "{stdout}{stderr}");
    assert!(
        stdout.contains(&format!("log mismatch at cycle {flipped}")),
        "{stdout}"
    );
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every file that tells a reader or a runner how to invoke the harness.
fn invocation_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![
        root.join("README.md"),
        root.join("DESIGN.md"),
        root.join(".claude/skills/verify/SKILL.md"),
    ];
    for (dir, depth) in [(".github/workflows", 0), (".github/actions", 1)] {
        for entry in std::fs::read_dir(root.join(dir)).expect(dir) {
            let path = entry.unwrap().path();
            files.push(if depth == 0 {
                path
            } else {
                path.join("action.yml")
            });
        }
    }
    files
}

#[test]
fn every_written_invocation_resolves_in_the_dispatch_table() {
    // The leading `[a-z0-9<-]*` run of a token: "repro`'s" is `repro`.
    let word = |w: &str| -> String {
        w.chars()
            .take_while(|c| c.is_ascii_alphanumeric() || ['<', '-'].contains(c))
            .collect()
    };
    let mut seen = 0;
    for file in invocation_files() {
        let text = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{file:?}: {e}"));
        // The twenty binaries `jmsim` replaced were all `-p jm-bench --bin X`;
        // only the examples are still run that way.
        for line in text.lines().filter(|l| l.contains("--bin")) {
            assert!(line.contains("jm-examples"), "{file:?} still has `{line}`");
        }
        let tokens: Vec<&str> = text.split_whitespace().collect();
        for (i, token) in tokens.iter().enumerate() {
            // An invocation is `jmsim …` opening a code span, or a path to
            // the binary; prose about "jmsim" the project is neither.
            if !(*token == "`jmsim" || token.ends_with("/jmsim")) {
                continue;
            }
            let next: Vec<String> = tokens[i + 1..].iter().take(2).map(|w| word(w)).collect();
            let next: Vec<&str> = next.iter().map(String::as_str).collect();
            // `jmsim <subcommand>`, `jmsim …`, `jmsim --help`: no name to check.
            if next
                .first()
                .is_none_or(|w| w.is_empty() || w.starts_with(['<', '-']) || *w == "help")
            {
                continue;
            }
            assert!(
                cli::resolve(&next).is_some(),
                "{file:?}: `jmsim {}` is not a subcommand",
                next.join(" ")
            );
            seen += 1;
        }
    }
    assert!(
        seen >= 30,
        "only {seen} invocations found — the scan is broken"
    );
}
