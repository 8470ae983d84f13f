//! `jmbench` command line. See `README.md` for what each mode measures.

use jmbench::child;
use jmbench::run;
use jmbench::workloads::{Scale, Workload, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str = "\
usage: jmbench [--seed S] [--smoke]            every workload, 5 rounds (1 with --smoke)
       jmbench --layers [--seed S] [--smoke]   the layer pass; writes out/spans.json
       jmbench --bless                         regenerate golden.json
       jmbench --workload W --seed S --seconds T --trace 0|1
                                               one workload, as the driver runs it
workloads: radix512 exchange512 exchange4096 ring64 uniform512 uniform512_traced";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    /// `--child W`: run `W` once in this process (what the parent spawns).
    child: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    layers: bool,
    bless: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        child: None,
        seed: DEFAULT_SEED,
        seconds: 15,
        trace: false,
        scale: Scale::FULL,
        layers: false,
        bless: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} takes a value"))
                .map(String::as_str)
        };
        fn num<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: `{text}` is not a number"))
        }
        let workload = |name: &str| {
            Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(workload(value()?)?),
            "--child" => args.child = Some(workload(value()?)?),
            "--seed" => args.seed = num(flag, value()?)?,
            "--seconds" => args.seconds = num(flag, value()?)?,
            "--scale" => args.scale = Scale(num::<u64>(flag, value()?)?.max(1)),
            "--trace" => args.trace = num::<u8>(flag, value()?)? != 0,
            "--smoke" => args.scale = Scale::SMOKE,
            "--layers" => args.layers = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("jmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(workload) = args.child {
        println!(
            "{}",
            child::run_here(workload, args.seed, args.scale).to_json()
        );
        return ExitCode::SUCCESS;
    }
    let outcome = match args.workload {
        Some(w) if args.trace => run::traced(w, args.seed, args.scale),
        Some(w) => run::timed(w, args.seed, args.scale, args.seconds),
        None if args.bless => run::bless(),
        None if args.layers => run::layer_suite(args.seed, args.scale),
        None => run::suite(args.seed, args.scale),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("jmbench: {e}");
            ExitCode::FAILURE
        }
    }
}
