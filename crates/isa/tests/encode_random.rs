//! Randomized tests: every representable instruction round-trips through the
//! binary encoding, and footprints are monotone under concatenation.
//!
//! Formerly proptest-based; now driven by the in-tree seeded PRNG so the
//! workspace tests run hermetically. The generator (`arb`) draws uniformly
//! from the same instruction space the proptest strategies covered.

mod arb;

use arb::arb_instr;
use jm_isa::encode::{decode, encode, footprint_words};
use jm_isa::instr::Instruction;
use jm_prng::Prng;

#[test]
fn encoding_round_trips() {
    let mut g = Prng::from_label("encoding_round_trips", 0);
    for i in 0..20_000 {
        let instr = arb_instr(&mut g);
        let encoded = encode(&instr);
        let decoded = decode(&encoded).expect("decode");
        assert_eq!(decoded, instr, "case {i}");
    }
}

#[test]
fn slots_are_positive_and_bounded() {
    let mut g = Prng::from_label("slots_bounded", 0);
    for _ in 0..20_000 {
        let instr = arb_instr(&mut g);
        let encoded = encode(&instr);
        assert!(encoded.slots() >= 1);
        // No instruction should need more than 8 slots (4 words).
        assert!(
            encoded.slots() <= 8,
            "{} slots for {}",
            encoded.slots(),
            instr
        );
        assert_eq!(encoded.slot_values().len(), encoded.slots());
    }
}

#[test]
fn footprint_is_additive_within_rounding() {
    let mut g = Prng::from_label("footprint_additive", 0);
    for _ in 0..500 {
        let a: Vec<Instruction> = (0..g.range_usize(0, 20))
            .map(|_| arb_instr(&mut g))
            .collect();
        let b: Vec<Instruction> = (0..g.range_usize(0, 20))
            .map(|_| arb_instr(&mut g))
            .collect();
        let mut ab = a.clone();
        ab.extend(b.iter().cloned());
        let fa = footprint_words(&a);
        let fb = footprint_words(&b);
        let fab = footprint_words(&ab);
        assert!(fab <= fa + fb);
        assert!(fab + 1 >= fa + fb);
    }
}
