//! Parallel radix sort on a simulated J-Machine: the paper's "fine-grained
//! style" with one 3-word message per key, validated against a host sort.
//!
//! Run with: `cargo run --release -p jm-examples --bin parallel_sort [keys] [nodes]`

use jm_apps::radix::{self, RadixConfig};
use jm_machine::MachineConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let keys: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2048);
    let nodes: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);
    let cfg = RadixConfig { keys, seed: 0xfeed };

    println!("sorting {keys} 28-bit keys on {nodes} nodes (7 passes of 4 bits)…");
    let run = radix::run(MachineConfig::new(nodes), &cfg, 4_000_000_000)?;
    println!(
        "sorted and validated in {} cycles ({:.2} ms at 12.5 MHz)",
        run.cycles,
        run.stats.millis()
    );
    println!(
        "{} messages carried every key to its slot; {} send faults under backpressure",
        run.stats.net.delivered_msgs, run.stats.nodes.send_faults
    );
    jm_examples::print_summary(&run.stats);
    Ok(())
}
