//! Synthetic-traffic saturation sweep: accepted throughput and latency
//! vs. offered load for every destination pattern.
//!
//! Usage: `traffic_sweep [--seed S] [--out PATH] [--digest PATH] [--threads N]`
//! or, for a single point on an explicit mesh (the nightly large-mesh
//! canary): `traffic_sweep --mesh XxYxZ --pattern NAME --load PPM
//! [--seed S] [--digest PATH] [--threads N]` — runs one saturation point
//! and records its counters plus the process's peak RSS in the digest.
//!
//! Runs the `jm_bench::traffic` load ladder for all five patterns under
//! one injection seed, prints the curves with their saturation knees,
//! gates on weak monotonicity (offered and accepted message counts must
//! not fall as the load grows — exit code 1 on violation), and writes
//! `BENCH_traffic.json`. `--digest` additionally writes a deterministic
//! fingerprint: an FNV-1a hash over the per-point simulated counters, so
//! CI can diff a plain run against a `--threads 4` run and prove the
//! generator and its accept/drop decisions schedule-independent.

use jm_bench::traffic;

/// Parses `XxYxZ` into mesh dimensions.
fn parse_mesh(text: &str) -> Result<jm_isa::MeshDims, String> {
    let ext: Vec<u8> = text
        .split('x')
        .map(|d| d.parse().map_err(|_| format!("`{d}` is not an extent")))
        .collect::<Result<_, _>>()?;
    match ext[..] {
        [x, y, z] => jm_isa::MeshDims::try_new(x, y, z).map_err(|e| e.to_string()),
        _ => Err(format!("`{text}` does not have three extents")),
    }
}

fn main() {
    // When CI sets JM_REPLAY_CAPTURE, every machine in the sweep records
    // a replay log so a determinism failure ships a reproducer artifact
    // (DESIGN.md §4.11).
    if jm_machine::capture_replay_from_env() {
        println!("traffic_sweep: replay capture armed (JM_REPLAY_CAPTURE)");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let seed: u64 = arg("--seed").map_or(7, |s| s.parse().expect("--seed takes a number"));
    let out_path = arg("--out").unwrap_or_else(|| "BENCH_traffic.json".to_string());
    let digest_path = arg("--digest");
    if let Some(t) = arg("--threads") {
        let t: u32 = t.parse().expect("--threads takes a worker count");
        jm_machine::Engine::set_default(jm_machine::Engine::Parallel(t));
        println!("running the counter runs under Engine::Parallel({t})");
    }

    // Single-point mode: one (mesh, pattern, load) saturation point.
    if let Some(mesh) = arg("--mesh") {
        let dims = parse_mesh(&mesh).unwrap_or_else(|why| {
            eprintln!("traffic_sweep: --mesh takes XxYxZ, each extent in 1..=31: {why}");
            std::process::exit(2);
        });
        let name = arg("--pattern").expect("--pattern NAME is required with --mesh");
        let pattern = traffic::PATTERNS
            .iter()
            .copied()
            .find(|p| p.label() == name)
            .unwrap_or_else(|| panic!("unknown pattern `{name}`"));
        let load: u32 = arg("--load")
            .expect("--load PPM is required with --mesh")
            .parse()
            .expect("--load takes parts per million");
        let p = traffic::measure_point(seed, dims, pattern, load);
        let rss = jm_bench::harness::peak_rss_mib();
        println!(
            "{name} on {mesh} at {load} ppm: offered {} accepted {} dropped {} \
             ({:.4} flits/node/cycle, lat p99 {}, {} cycles to drain, peak rss {rss} MiB)",
            p.offered_msgs,
            p.accepted_msgs,
            p.dropped_msgs,
            p.accepted_throughput(dims.nodes()),
            p.latency_p99,
            p.total_cycles,
        );
        if let Some(path) = digest_path {
            let fingerprint = format!(
                "jm-traffic-point v1\n{name} {mesh} {load} offered {} accepted {} dropped {} \
                 delivered {} cycles {} p50 {} p99 {} max {}\npeak_rss_mib {rss}\n",
                p.offered_msgs,
                p.accepted_msgs,
                p.dropped_msgs,
                p.delivered_msgs,
                p.total_cycles,
                p.latency_p50,
                p.latency_p99,
                p.latency_max,
            );
            std::fs::write(&path, &fingerprint).expect("write digest");
            print!("{fingerprint}");
        }
        return;
    }

    let report = traffic::sweep(seed);
    print!("{}", report.render());

    std::fs::write(&out_path, report.json()).expect("write BENCH_traffic.json");
    println!("\nwrote {out_path}");

    if let Some(path) = digest_path {
        let stats_hash = jm_trace::fnv1a(report.digest_lines().as_bytes());
        let fingerprint = format!("jm-traffic-digest v1\nstats {stats_hash:016x}\n");
        std::fs::write(&path, &fingerprint).expect("write digest");
        print!("{fingerprint}");
    }

    if let Err(violations) = report.check_monotone() {
        eprintln!("\nsaturation curves violate weak monotonicity:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    println!("saturation curves are weakly monotone");
}
