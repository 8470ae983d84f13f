//! The `jmsim` command line: one dispatch table, one argument parser.
//!
//! Every subcommand is declared by its synopsis — `[--seed N] [--out PATH]
//! [--engine ENGINE]` — and the synopsis *is* the declaration: `parse` reads
//! from it which flags exist, which are required (no brackets), which may
//! repeat (`]...`) and what kind of value each takes (the placeholder:
//! `N`, `PATH`, `ENGINE`, `PATTERN`, `XxYxZ`, `NAME:METRIC=NUM`, or
//! `a|b` choices), and checks a command line against that before anything
//! runs. An unknown subcommand or flag, a flag missing its value, a
//! repeated flag, or a value of the wrong kind is a `CliError::Input` —
//! one line on stderr, exit 2 — never a panic and never a silent default.

use crate::{gate, perf, registry, tools, traffic};
use jm_isa::node::MeshDims;
use jm_machine::{Engine, TrafficPattern};
use std::process::ExitCode;

/// Why a command did not succeed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CliError {
    /// The command line, or a file it names, is not what the command
    /// accepts (exit 2).
    Input(String),
    /// The command ran and failed (exit 1).
    Failed(String),
}

impl CliError {
    /// A failure to read or write `path`.
    pub(crate) fn io(path: &str, err: std::io::Error) -> CliError {
        CliError::Failed(format!("{path}: {err}"))
    }
}

impl From<jm_machine::MachineError> for CliError {
    fn from(err: jm_machine::MachineError) -> CliError {
        CliError::Failed(format!("simulation failed: {err}"))
    }
}

/// Writes `contents` to `path`, naming the path on failure.
pub(crate) fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError::io(path, e))
}

/// What a command returns: its exit code, or why it has none.
pub(crate) type Outcome = Result<ExitCode, CliError>;

/// A `NAME:METRIC=NUMBER` wall for the gate.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Bound {
    /// Row name.
    pub name: String,
    /// Row metric.
    pub metric: String,
    /// The wall.
    pub value: f64,
}

/// One row of the dispatch table.
#[derive(Clone, Copy)]
pub struct Command {
    /// Subcommand name (`fig2`, `replay record`).
    pub(crate) name: &'static str,
    /// The synopsis of its arguments, which is also their declaration
    /// (module docs).
    pub(crate) synopsis: &'static str,
    /// One-line description for `jmsim help`.
    pub(crate) about: &'static str,
    /// What to run.
    pub(crate) run: fn(&Args) -> Outcome,
}

/// One flag of a synopsis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Flag {
    /// `--name`.
    pub name: &'static str,
    /// The value placeholder; `None` for a switch.
    pub value: Option<&'static str>,
    /// Written without brackets.
    pub required: bool,
    /// Written `]...`.
    pub repeats: bool,
}

impl Command {
    /// Name of the optional positional count (`[nodes]`), if any.
    pub(crate) fn positional(&self) -> Option<&'static str> {
        let mut words = self.synopsis.split_whitespace();
        let optional = words.find(|t| t.starts_with('[') && !t.starts_with("[--"));
        optional.map(|t| t.trim_matches(['[', ']']))
    }

    /// The flags the synopsis declares.
    pub(crate) fn flags(&self) -> Vec<Flag> {
        let mut tokens = self.synopsis.split_whitespace();
        let mut flags = Vec::new();
        while let Some(token) = tokens.next() {
            let Some(at) = token.find("--") else { continue };
            let (name, value) = match token.strip_suffix(']') {
                Some(switch) => (&switch[at..], None),
                None => (&token[at..], tokens.next()),
            };
            flags.push(Flag {
                name,
                value: value.map(|v| v.trim_end_matches(['.', ']'])),
                required: at == 0,
                repeats: value.is_some_and(|v| v.ends_with("...")),
            });
        }
        flags
    }

    /// The command's one-line usage.
    pub(crate) fn usage(&self) -> String {
        format!("jmsim {} {}", self.name, self.synopsis)
    }
}

/// A command line checked against its [`Command`]: every value has been
/// validated for its flag's kind, so the typed accessors cannot fail.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Args {
    command: &'static str,
    positional: Option<u64>,
    flags: Vec<(&'static str, String)>,
}

impl Args {
    /// Name of the subcommand the arguments are for.
    pub(crate) fn command(&self) -> &'static str {
        self.command
    }

    /// The positional count, if given.
    pub(crate) fn positional(&self) -> Option<u64> {
        self.positional
    }

    /// The value of path or choice flag `flag` (the empty string for a
    /// switch), if given.
    pub(crate) fn text(&self, flag: &str) -> Option<&str> {
        let found = self.flags.iter().find(|(f, _)| *f == flag);
        found.map(|(_, v)| v.as_str())
    }

    /// Whether `flag` was given.
    pub(crate) fn switch(&self, flag: &str) -> bool {
        self.text(flag).is_some()
    }

    /// The value of `N` flag `flag`.
    pub(crate) fn count(&self, flag: &str) -> Option<u64> {
        self.text(flag).map(|v| v.parse().expect("validated count"))
    }

    /// The value of `N` flag `flag` where zero is not a count of anything
    /// (an interval, a period).
    pub(crate) fn positive(&self, flag: &str) -> Result<Option<u64>, CliError> {
        match self.count(flag) {
            Some(0) => Err(CliError::Input(format!("{flag}: must be at least 1"))),
            n => Ok(n),
        }
    }

    /// The `--engine` value.
    pub(crate) fn engine(&self) -> Option<Engine> {
        self.text("--engine")
            .map(|v| parse_engine(v).expect("validated engine"))
    }

    /// The `--pattern` value.
    pub(crate) fn pattern(&self) -> Option<TrafficPattern> {
        self.text("--pattern")
            .map(|v| parse_pattern(v).expect("validated pattern"))
    }

    /// The `--mesh` value.
    pub(crate) fn mesh(&self) -> Option<MeshDims> {
        self.text("--mesh")
            .map(|v| parse_mesh(v).expect("validated mesh"))
    }

    /// Every occurrence of bound flag `flag`, in command-line order.
    pub(crate) fn bounds(&self, flag: &str) -> Vec<Bound> {
        let given = self.flags.iter().filter(|(f, _)| *f == flag);
        given
            .map(|(_, v)| parse_bound(v).expect("validated bound"))
            .collect()
    }
}

/// Parses an engine name: `naive`, `event`, or `parallelN` with N ≥ 1.
pub(crate) fn parse_engine(s: &str) -> Result<Engine, String> {
    match s {
        "naive" => Ok(Engine::Naive),
        "event" => Ok(Engine::Event),
        _ => match s.strip_prefix("parallel").map(str::parse::<u32>) {
            Some(Ok(n)) if n > 0 => Ok(Engine::Parallel(n)),
            _ => Err(format!("`{s}` is not naive, event or parallelN")),
        },
    }
}

fn parse_pattern(text: &str) -> Result<TrafficPattern, String> {
    let known = traffic::PATTERNS.into_iter().find(|p| p.label() == text);
    known.ok_or_else(|| format!("`{text}` is not a traffic pattern"))
}

fn parse_mesh(text: &str) -> Result<MeshDims, String> {
    let ext: Result<Vec<u8>, _> = text.split('x').map(str::parse).collect();
    match ext.as_deref() {
        Ok(&[x, y, z]) => MeshDims::try_new(x, y, z).map_err(|e| e.to_string()),
        _ => Err(format!("`{text}` is not XxYxZ with each extent in 1..=31")),
    }
}

fn parse_bound(text: &str) -> Result<Bound, String> {
    let parts = text
        .split_once('=')
        .and_then(|(key, v)| Some((key.split_once(':')?, v.parse::<f64>().ok()?)));
    match parts {
        Some(((name, metric), value)) if value.is_finite() => Ok(Bound {
            name: name.to_string(),
            metric: metric.to_string(),
            value,
        }),
        _ => Err(format!("`{text}` is not NAME:METRIC=NUMBER")),
    }
}

/// A machine size the mesh and every experiment accept: a power of two up
/// to 16 384 nodes.
pub(crate) fn machine_size(what: &str, n: u64) -> Result<u32, CliError> {
    match u32::try_from(n) {
        Ok(n) if n.is_power_of_two() && n <= 1 << 14 => Ok(n),
        _ => Err(CliError::Input(format!(
            "{what}: {n} is not a power of two up to 16384"
        ))),
    }
}

/// Checks `text` against the value placeholder `kind` of a synopsis.
fn check_value(kind: &str, text: &str) -> Result<(), String> {
    match kind {
        "N" => match text.parse::<u64>() {
            Ok(_) => Ok(()),
            Err(_) => Err(format!("`{text}` is not an unsigned integer")),
        },
        "PATH" => Ok(()),
        "ENGINE" => parse_engine(text).map(drop),
        "PATTERN" => parse_pattern(text).map(drop),
        "XxYxZ" => parse_mesh(text).map(drop),
        "NAME:METRIC=NUM" => parse_bound(text).map(drop),
        choices if choices.contains('|') => match choices.split('|').any(|c| c == text) {
            true => Ok(()),
            false => Err(format!("`{text}` is not {}", choices.replace('|', " or "))),
        },
        other => unreachable!("a synopsis names an unknown kind of value `{other}`"),
    }
}

const ARTIFACT_SIZED: &str = "[nodes] [--quick] [--engine ENGINE]";
const ARTIFACT_FIXED: &str = "[--quick] [--engine ENGINE]";

const TOOLS: &[Command] = &[
    Command {
        name: "repro",
        synopsis: "[--quick] [--out PATH] [--engine ENGINE]",
        about: "run every experiment; regenerate EXPERIMENTS.md and the BENCH row files beside it",
        run: registry::repro,
    },
    Command {
        name: "perf",
        synopsis: "[--quick] [--trace] [--out PATH]",
        about: "measure host throughput of the engines; write BENCH_engine.json",
        run: perf::run,
    },
    Command {
        name: "gate",
        synopsis:
            "--current PATH [--baseline PATH] [--floor NAME:METRIC=NUM]... \
         [--ceiling NAME:METRIC=NUM]...",
        about: "ratchet, floor and ceiling a fresh BENCH file against a baseline",
        run: gate::run,
    },
    Command {
        name: "faults",
        synopsis: "[--seed N] [--out PATH] [--engine ENGINE]",
        about: "fault-injection degradation sweep; write BENCH_fault.json",
        run: registry::run_one,
    },
    Command {
        name: "traffic",
        synopsis: "[--seed N] [--out PATH] [--engine ENGINE] [--mesh XxYxZ] [--pattern PATTERN] \
         [--load N]",
        about: "traffic saturation sweep (or one --mesh point); write BENCH_traffic.json",
        run: tools::traffic,
    },
    Command {
        name: "chaos",
        synopsis: "[--seed N] [--engine ENGINE]",
        about: "the four applications under a seeded delay-fault plan",
        run: tools::chaos,
    },
    Command {
        name: "mesh",
        synopsis: "[--nodes N] [--cycles N] [--engine ENGINE] [--out PATH]",
        about: "large-mesh smoke: the event vs parallelN thread sweep on a big cube",
        run: perf::mesh,
    },
    Command {
        name: "trace",
        synopsis: "[--nodes N] [--sample-every N] [--chrome PATH] [--summary PATH]",
        about: "run the traced gather; export Chrome trace and summary",
        run: tools::trace,
    },
    Command {
        name: "replay record",
        synopsis:
            "[--workload exchange|chaos64|radix] [--out PATH] [--interval N] [--cycles N] [--engine ENGINE] \
         [--seed N]",
        about: "record a canned workload into a .jmrp replay log",
        run: tools::replay_record,
    },
    Command {
        name: "replay verify",
        synopsis: "--log PATH [--engine ENGINE]",
        about: "re-execute a log and compare every checkpoint hash",
        run: tools::replay_verify,
    },
    Command {
        name: "replay bisect",
        synopsis: "--log PATH [--engine ENGINE]",
        about: "narrow a replay mismatch to its first diverging cycle",
        run: tools::replay_bisect,
    },
];

/// The dispatch table: the ten paper artifacts of the experiment
/// registry, then the tools (the registry's two sweeps among them, under
/// their own synopses).
pub(crate) fn commands() -> Vec<Command> {
    let artifacts = registry::EXPERIMENTS.iter().filter(|e| e.file.is_none());
    let artifacts = artifacts.map(|e| Command {
        name: e.name,
        synopsis: e.nodes.map_or(ARTIFACT_FIXED, |_| ARTIFACT_SIZED),
        about: e.title,
        run: registry::run_one,
    });
    artifacts.chain(TOOLS.iter().copied()).collect()
}

/// Finds the subcommand `argv` starts with (two words for `replay …`) and
/// returns it with the arguments after its name.
pub fn resolve<'a>(argv: &'a [&'a str]) -> Option<(Command, &'a [&'a str])> {
    let table = commands();
    (1..=argv.len().min(2)).rev().find_map(|words| {
        let name = argv[..words].join(" ");
        let cmd = table.iter().find(|c| c.name == name)?;
        Some((*cmd, &argv[words..]))
    })
}

/// Checks a command line (without the program name) against the dispatch
/// table.
pub(crate) fn parse(argv: &[&str]) -> Result<(Command, Args), CliError> {
    let Some((cmd, rest)) = resolve(argv) else {
        let what = match argv.first() {
            Some(given) => format!("unknown subcommand `{given}`"),
            None => "no subcommand given".to_string(),
        };
        return Err(CliError::Input(format!("{what}; `jmsim help` lists them")));
    };
    let fail = |what: String| CliError::Input(format!("{what}; usage: {}", cmd.usage()));
    let flags = cmd.flags();
    let mut args = Args {
        command: cmd.name,
        ..Args::default()
    };
    let mut rest = rest.iter().copied();
    while let Some(word) = rest.next() {
        if !word.starts_with("--") {
            let meta = cmd
                .positional()
                .filter(|_| args.positional.is_none())
                .ok_or_else(|| fail(format!("unexpected argument `{word}`")))?;
            let n = word.parse();
            args.positional =
                Some(n.map_err(|_| fail(format!("{meta}: `{word}` is not a count")))?);
            continue;
        }
        let Some(flag) = flags.iter().find(|f| f.name == word) else {
            return Err(fail(format!("unknown flag `{word}`")));
        };
        if !flag.repeats && args.switch(word) {
            return Err(fail(format!("`{word}` given twice")));
        }
        let mut text = "";
        if let Some(kind) = flag.value {
            text = rest
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| fail(format!("`{word}` needs a value")))?;
            check_value(kind, text).map_err(|why| fail(format!("{word}: {why}")))?;
        }
        args.flags.push((flag.name, text.to_string()));
    }
    if let Some(flag) = flags.iter().find(|f| f.required && !args.switch(f.name)) {
        return Err(fail(format!("`{}` is required", flag.name)));
    }
    Ok((cmd, args))
}

/// The whole program: parses `argv` (without the program name), runs the
/// subcommand, reports an error in one line on stderr.
pub fn main(argv: &[&str]) -> ExitCode {
    if let [word, topic @ ..] = argv {
        if ["help", "--help", "-h"].contains(word) {
            match resolve(topic) {
                Some((cmd, _)) => outln!("{}\n  {}", cmd.usage(), cmd.about),
                None => {
                    outln!("jmsim — the J-Machine simulator's experiment harness\n");
                    for c in commands() {
                        outln!("  {:<15} {}", c.name, c.about);
                    }
                    outln!("\n`jmsim help NAME` prints a subcommand's usage.");
                }
            }
            return ExitCode::SUCCESS;
        }
    }
    let outcome = parse(argv).and_then(|(cmd, args)| {
        // When JM_REPLAY_CAPTURE is set, every machine this process builds
        // records a replay log, so a CI failure ships a reproducer
        // (DESIGN.md §4.8).
        if jm_machine::capture_replay_from_env() {
            outln!("jmsim: replay capture armed (JM_REPLAY_CAPTURE)");
        }
        (cmd.run)(&args)
    });
    let (why, code) = match outcome {
        Ok(code) => return code,
        Err(CliError::Input(why)) => (why, 2),
        Err(CliError::Failed(why)) => (why, 1),
    };
    eprintln!("jmsim: {why}");
    ExitCode::from(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input_error(argv: &[&str]) -> String {
        match parse(argv) {
            Err(CliError::Input(why)) => {
                assert_eq!(why.lines().count(), 1, "{why}");
                why
            }
            Ok((cmd, args)) => panic!("{argv:?} parsed as {} {args:?}", cmd.name),
            Err(other) => panic!("{argv:?}: {other:?}"),
        }
    }

    /// The command line `name extra…` (`name` may be two words).
    fn with<'a>(name: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
        name.split(' ').chain(extra.iter().copied()).collect()
    }

    /// A value that a flag of kind `kind` accepts.
    fn sample(kind: &str) -> &str {
        match kind {
            "ENGINE" => "event",
            "PATTERN" => "hotspot",
            "XxYxZ" => "2x2x2",
            "NAME:METRIC=NUM" => "a:b=1",
            choices if choices.contains('|') => choices.split('|').next().unwrap(),
            _ => "1",
        }
    }

    #[test]
    fn every_subcommand_rejects_every_kind_of_bad_input() {
        for cmd in commands() {
            let (name, flags) = (cmd.name, cmd.flags());
            // The required flags, so that what is rejected is the bad part.
            let required: Vec<&str> = flags
                .iter()
                .filter(|f| f.required)
                .flat_map(|f| [f.name, sample(f.value.expect("required flags take values"))])
                .collect();
            assert!(parse(&with(name, &required)).is_ok(), "{}", cmd.usage());
            let and = |extra: &[&'static str]| with(name, &[&required[..], extra].concat());

            let why = input_error(&and(&["--no-such-flag"]));
            assert!(why.contains("unknown flag `--no-such-flag`"), "{why}");
            assert!(why.contains(&cmd.usage()), "{why}");

            match cmd.positional() {
                Some(meta) => {
                    let why = input_error(&and(&["8junk"]));
                    assert!(why.contains(meta) && why.contains("8junk"), "{why}");
                    input_error(&and(&["8", "9"]));
                }
                None => {
                    let why = input_error(&and(&["8"]));
                    assert!(why.contains("unexpected argument `8`"), "{why}");
                }
            }

            for flag in &flags {
                let Some(kind) = flag.value else {
                    let why = input_error(&and(&[flag.name, flag.name]));
                    assert!(why.contains("given twice"), "{why}");
                    continue;
                };
                // Missing value: at the end, and before another flag.
                for tail in [&[flag.name][..], &[flag.name, "--quick"][..]] {
                    let why = input_error(&with(name, tail));
                    assert!(
                        why.contains(&format!("`{}` needs a value", flag.name)),
                        "{why}"
                    );
                }
                let ok = sample(kind);
                assert_eq!(check_value(kind, ok), Ok(()), "{kind}");
                if !flag.repeats {
                    let why = input_error(&with(name, &[flag.name, ok, flag.name, ok]));
                    assert!(why.contains("given twice"), "{why}");
                }
                if kind != "PATH" {
                    let why = input_error(&with(name, &[flag.name, "8junk"]));
                    assert!(why.contains(flag.name) && why.contains("8junk"), "{why}");
                }
            }
            if let Some(missing) = flags.iter().find(|f| f.required) {
                let why = input_error(&with(name, &[]));
                assert!(
                    why.contains(&format!("`{}` is required", missing.name)),
                    "{why}"
                );
            }
        }
        let why = input_error(&["fig7"]);
        assert!(why.contains("unknown subcommand `fig7`"), "{why}");
        input_error(&["replay"]);
        input_error(&["replay", "rewind"]);
        input_error(&[]);
    }

    #[test]
    fn malformed_engines_meshes_and_bounds_are_rejected() {
        let why = input_error(&["chaos", "--engine", "warp"]);
        assert!(
            why.contains("`warp` is not naive, event or parallelN"),
            "{why}"
        );
        for bad in ["parallel0", "parallel", "parallel-4", "Event", ""] {
            assert!(parse_engine(bad).is_err(), "{bad}");
        }
        for bad in ["4x4", "0x4x4", "4x4x32", "4x4x4x4", "axbxc"] {
            input_error(&["traffic", "--mesh", bad]);
        }
        for bad in [
            "ring=2",
            "ring:speedup",
            "ring:speedup=fast",
            "ring:speedup=inf",
        ] {
            input_error(&["gate", "--current", "x", "--floor", bad]);
        }
        for bad in [0, 37, 100, 1 << 15, u64::MAX] {
            assert!(machine_size("nodes", bad).is_err(), "{bad}");
        }
        assert_eq!(machine_size("nodes", 512), Ok(512));
    }

    #[test]
    fn a_synopsis_declares_its_flags_and_values_come_out_typed() {
        let find = |name: &str| commands().into_iter().find(|c| c.name == name).unwrap();
        let flags = find("gate").flags();
        assert_eq!(flags.len(), 4);
        let floor = Flag {
            name: "--floor",
            value: Some("NAME:METRIC=NUM"),
            required: false,
            repeats: true,
        };
        assert_eq!(flags[2], floor);
        assert!(flags[0].required && flags[0].name == "--current");
        assert_eq!(find("fig3").positional(), Some("nodes"));
        assert_eq!(find("table1").positional(), None);
        assert_eq!(find("fig3").flags()[0].value, None);

        let floors = ["ring64:speedup=2.0", "threads/parallel-4:vs_event=1.5"];
        let (cmd, args) = parse(&[
            "gate",
            "--current",
            "c.json",
            "--floor",
            floors[0],
            "--baseline",
            "b.json",
            "--floor",
            floors[1],
        ])
        .unwrap();
        assert_eq!((cmd.name, args.command()), ("gate", "gate"));
        assert_eq!(args.text("--current"), Some("c.json"));
        assert_eq!(args.text("--baseline"), Some("b.json"));
        let floors = args.bounds("--floor");
        assert_eq!(floors.len(), 2);
        assert_eq!(floors[0].name, "ring64");
        assert_eq!(
            (floors[1].metric.as_str(), floors[1].value),
            ("vs_event", 1.5)
        );
        assert!(args.bounds("--ceiling").is_empty());

        let (cmd, args) =
            parse(&["replay", "verify", "--log", "x", "--engine", "parallel4"]).unwrap();
        assert_eq!(cmd.name, "replay verify");
        assert_eq!(args.engine(), Some(Engine::Parallel(4)));

        let (_, args) = parse(&["fig3", "64", "--quick"]).unwrap();
        assert_eq!((args.command(), args.positional()), ("fig3", Some(64)));
        assert!(args.switch("--quick") && args.engine().is_none());

        let (_, args) = parse(&["traffic", "--mesh", "16x16x16", "--pattern", "hotspot"]).unwrap();
        assert_eq!(args.mesh(), Some(MeshDims::new(16, 16, 16)));
        assert!(matches!(
            args.pattern(),
            Some(TrafficPattern::Hotspot { .. })
        ));
    }
}
