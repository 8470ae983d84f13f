//! A small, dependency-free deterministic PRNG.
//!
//! The workspace must build and test without network access, so external
//! `rand`/`proptest` crates are off limits. Workload generators (the app
//! input builders) and randomized tests use this instead: a seeded
//! [SplitMix64](https://prng.di.unimi.it/splitmix64.c) stream with the few
//! helpers those call sites need. Streams are stable across platforms and
//! releases — changing the output for a given seed is a breaking change,
//! because app workloads are derived from it.

#![warn(missing_docs)]

/// A SplitMix64 pseudo-random number generator.
///
/// Passes BigCrush when used as a 64-bit generator; more than adequate for
/// synthetic-workload generation and randomized testing. Not cryptographic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    state: u64,
}

impl Prng {
    /// Creates a generator from a seed. Distinct seeds give uncorrelated
    /// streams (the output function is a strong 64-bit mixer).
    pub fn new(seed: u64) -> Prng {
        Prng { state: seed }
    }

    /// Derives a generator from a string label, so test cases get distinct
    /// but reproducible streams (FNV-1a over the label, mixed with `seed`).
    pub fn from_label(label: &str, seed: u64) -> Prng {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in label.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Prng::new(hash ^ seed)
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The next 32 uniformly random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        // Lemire-style rejection-free-enough reduction: widen-multiply the
        // 64-bit draw by the span. The modulo bias of plain `% span` would
        // be negligible here, but this is just as cheap and exact enough.
        let span = hi - lo;
        let hi128 = ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64;
        lo + hi128
    }

    /// A uniform `u32` in `[lo, hi)`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(u64::from(lo), u64::from(hi)) as u32
    }

    /// A uniform `i32` in `[lo, hi)`.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = (i64::from(hi) - i64::from(lo)) as u64;
        let off = self.range_u64(0, span);
        (i64::from(lo) + off as i64) as i32
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// One seeded draw per decision point: 64 bits that are a pure function of
/// `(seed, salt, node, port, cycle)`, for the fault and traffic plans, whose
/// answers must not depend on which engine asks or in what order. `salt`
/// separates the decision kinds sharing a seed; a decision that has no port
/// passes 0, which contributes nothing to the key. SplitMix64 fully
/// avalanches the key in a single output, so neighbouring nodes, ports and
/// cycles draw independently. Like the stream itself, the mix is frozen:
/// every committed fault and traffic curve is derived from it.
#[inline]
pub fn keyed_draw(seed: u64, salt: u64, node: u32, port: u32, cycle: u64) -> u64 {
    let key = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ salt
        ^ u64::from(node).wrapping_mul(0xd134_2543_de82_ef95)
        ^ u64::from(port).wrapping_mul(0xaf25_1af3_b0f0_25b5)
        ^ cycle.wrapping_mul(0x2545_f491_4f6c_dd1d);
    Prng::new(key).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // Canonical test vector from the public-domain splitmix64.c: the
        // first three outputs for seed 0. Locks the stream for all time.
        let mut g = Prng::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(g.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut g = Prng::new(7);
        for _ in 0..10_000 {
            let v = g.range_u32(3, 17);
            assert!((3..17).contains(&v));
            let s = g.range_i32(-50, 50);
            assert!((-50..50).contains(&s));
        }
    }

    #[test]
    fn ranges_cover_endpoints() {
        let mut g = Prng::new(11);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[g.range_usize(0, 4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn labels_derive_distinct_streams() {
        let a = Prng::from_label("lcs", 0);
        let b = Prng::from_label("tsp", 0);
        assert_ne!(a, b);
        assert_eq!(Prng::from_label("lcs", 0), Prng::from_label("lcs", 0));
    }

    #[test]
    fn chance_is_calibrated() {
        let mut g = Prng::new(3);
        let hits = (0..10_000).filter(|_| g.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }
}
