//! Randomized integration tests: the applications produce correct answers
//! for arbitrary inputs and machine sizes. Seeded with the in-tree PRNG so
//! the suite runs hermetically and reproducibly.

use jm_apps::{lcs, nqueens, radix, tsp};
use jm_machine::MachineConfig;
use jm_prng::Prng;

#[test]
fn radix_sorts_arbitrary_inputs() {
    for case in 0..4u64 {
        let mut g = Prng::from_label("radix_sorts", case);
        let nodes = 1u32 << g.range_u32(0, 4);
        let keys = 1u32 << g.range_u32(5, 8);
        let cfg = radix::RadixConfig {
            keys,
            seed: g.next_u64(),
        };
        radix::run(MachineConfig::new(nodes), &cfg, 500_000_000)
            .unwrap_or_else(|e| panic!("case {case} ({nodes} nodes, {keys} keys): {e}"));
    }
}

#[test]
fn lcs_matches_reference_for_arbitrary_strings() {
    for case in 0..4u64 {
        let mut g = Prng::from_label("lcs_matches", case);
        let nodes = 1u32 << g.range_u32(0, 4);
        let cfg = lcs::LcsConfig {
            a_len: 32.max(nodes),
            b_len: 48,
            seed: g.next_u64(),
            alphabet: g.range_u32(2, 6) as u8,
        };
        lcs::run(MachineConfig::new(nodes), &cfg, 500_000_000)
            .unwrap_or_else(|e| panic!("case {case} ({nodes} nodes): {e}"));
    }
}

#[test]
fn tsp_finds_the_optimum_for_arbitrary_matrices() {
    for case in 0..4u64 {
        let mut g = Prng::from_label("tsp_optimum", case);
        let nodes = 1u32 << g.range_u32(0, 4);
        let cfg = tsp::TspConfig {
            cities: 6,
            seed: g.next_u64(),
            task_depth: None,
            yield_every: 16,
        };
        tsp::run(MachineConfig::new(nodes), &cfg, 500_000_000)
            .unwrap_or_else(|e| panic!("case {case} ({nodes} nodes): {e}"));
    }
}

#[test]
fn nqueens_counts_are_right_for_all_depths() {
    // Sweep the expansion-depth knob: the answer must never change.
    for depth in 1..=4 {
        let cfg = nqueens::NqConfig {
            n: 7,
            expand_depth: Some(depth),
        };
        let run = nqueens::run(MachineConfig::new(4), &cfg, 500_000_000).unwrap();
        assert_eq!(run.answer, 40);
        // `THREADS[0]`, `nq_task`, is dispatched once per task.
        assert_eq!(nqueens::THREADS[0].0, "NQueens");
        assert_eq!(run.threads[0].1.threads, nqueens::prefix_count(7, depth));
    }
}

#[test]
fn tsp_yield_period_does_not_change_the_answer() {
    // The CST-style suspension period is a performance knob only.
    let mut costs = Vec::new();
    for yield_every in [4u32, 64, 4096] {
        let cfg = tsp::TspConfig {
            cities: 7,
            seed: 99,
            task_depth: None,
            yield_every,
        };
        let run = tsp::run(MachineConfig::new(4), &cfg, 500_000_000).unwrap();
        costs.push(run.answer);
    }
    assert!(costs.windows(2).all(|w| w[0] == w[1]), "{costs:?}");
}
