//! `jmsim`: the one front door of the experiment harness. Everything —
//! the dispatch table, the argument parser, every subcommand — lives in
//! the `jm_bench` library ([`jm_bench::cli`]).

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    jm_bench::cli::main(&argv)
}
