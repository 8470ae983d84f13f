//! Deterministic, seeded fault injection.
//!
//! A [`FaultSpec`] describes *what* can go wrong — scheduled outage windows
//! (link-down, router-stall, node-down), a per-link flaky probability, and a
//! per-word ejection corruption probability — and a [`FaultPlan`] answers
//! *whether* a given fault fires, as a pure function of
//! `(seed, node, port, cycle)`. Nothing here keeps mutable state, so every
//! engine (Naive, Event, Parallel with any thread count) asking the same
//! question at the same cycle gets the same answer: fault injection is
//! schedule-independent by construction.
//!
//! Two fault classes exist on purpose:
//!
//! * **Delay faults** ([`FaultPlan::blocked`], [`FaultPlan::node_down`])
//!   never lose data. The network treats a faulted channel exactly like a
//!   channel with no buffer space, so wormhole backpressure holds the
//!   message in place until the fault clears. Programs that are correct
//!   under congestion are correct under delay faults.
//! * **Corruption faults** ([`FaultPlan::corrupt_bit`]) flip one payload
//!   bit at the ejection port. With [`FaultSpec::checksums`] enabled the
//!   MDP validates a trailing checksum word at dispatch and *drops* the
//!   damaged message (counting `FaultKind::CorruptMessage`) — loss is
//!   detected, never silent. Recovery is the runtime's job (idempotent
//!   sequence-numbered RPC resend, see `jm-runtime`).

use jm_isa::word::Word;
use jm_prng::keyed_draw;

/// Router port numbering, stated once for the whole workspace. It lives
/// here because this is the lowest crate that needs it: a fault plan is
/// keyed by port, and `jm-net` (which indexes its buffers, owners and
/// boundary lanes by the same numbers) sits above this crate.
///
/// Ports 0–5 are the six mesh directions in e-cube order (+x, −x, +y, −y,
/// +z, −z): a flit travelling in direction `d` leaves through output port
/// `d` and waits in the next router's input port `d`. Index 6 is the
/// node's own port on both sides of the crossbar — ejection as an output,
/// the injection FIFO as an input.
pub mod port {
    /// The +z direction: the only one that crosses a slab boundary upward.
    pub const ZPOS: usize = 4;
    /// The −z direction: the only one that crosses a slab boundary downward.
    pub const ZNEG: usize = 5;
    /// Output side of the node's port: ejection (local delivery).
    pub const EJECT: usize = 6;
    /// Input side of the node's port: the injection FIFO.
    pub const INJECT: usize = EJECT;
    /// Ports per router and virtual network: the directions plus the node's.
    pub const COUNT: usize = EJECT + 1;
}

/// Maximum number of scheduled outage windows in one spec.
pub const MAX_WINDOWS: usize = 8;

/// Denominator for the probabilistic fault rates (parts per million).
pub const PPM: u64 = 1_000_000;

const SALT_FLAKY: u64 = 0x666c_616b_795f_6c6e; // "flaky_ln"
const SALT_CORRUPT: u64 = 0x636f_7272_7570_7431; // "corrupt1"

/// What a scheduled outage window does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultWindowKind {
    /// One output channel of one router is down: nothing crosses it.
    LinkDown,
    /// A whole router stalls: no flit leaves any of its output ports
    /// (ejection included). Traffic queues upstream.
    RouterStall,
    /// A node's network interface is down: its sends stall (the MDP sees a
    /// send fault and retries) and nothing ejects into it.
    NodeDown,
}

/// One scheduled outage: `kind` at `node` during cycles `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// What stops working.
    pub kind: FaultWindowKind,
    /// Global node id the window applies to.
    pub node: u32,
    /// Output-port index (0–5); only meaningful for [`FaultWindowKind::LinkDown`].
    pub port: u8,
    /// First faulty cycle.
    pub from: u64,
    /// First healthy cycle again (exclusive bound).
    pub until: u64,
}

impl FaultWindow {
    const NONE: FaultWindow = FaultWindow {
        kind: FaultWindowKind::LinkDown,
        node: 0,
        port: 0,
        from: 0,
        until: 0,
    };

    /// A link-down window on `node`'s output `port` (0–5).
    pub fn link_down(node: u32, port: u8, from: u64, until: u64) -> FaultWindow {
        assert!(
            usize::from(port) < crate::port::EJECT,
            "link port out of range: {port}"
        );
        FaultWindow {
            kind: FaultWindowKind::LinkDown,
            node,
            port,
            from,
            until,
        }
    }

    /// A router-stall window on `node`.
    pub fn router_stall(node: u32, from: u64, until: u64) -> FaultWindow {
        FaultWindow {
            kind: FaultWindowKind::RouterStall,
            node,
            port: 0,
            from,
            until,
        }
    }

    /// A node-down (network-interface outage) window on `node`.
    pub fn node_down(node: u32, from: u64, until: u64) -> FaultWindow {
        FaultWindow {
            kind: FaultWindowKind::NodeDown,
            node,
            port: 0,
            from,
            until,
        }
    }

    #[inline]
    fn active(&self, cycle: u64) -> bool {
        cycle >= self.from && cycle < self.until
    }
}

/// A complete, copyable description of a fault campaign.
///
/// `FaultSpec` is plain data (`Copy + Eq`) so it can ride inside
/// `MachineConfig` without breaking its value semantics. An all-defaults
/// spec is *vacuous* — [`FaultPlan::from_spec`] returns `None` for it and
/// the simulator runs the exact fault-free code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// Per-(link, cycle) probability that a directional channel refuses to
    /// move a flit this cycle, in parts per million. Lossless: the flit
    /// waits, exactly as if the downstream buffer were full.
    pub link_flaky_ppm: u32,
    /// Per-(node, cycle) probability that a payload word ejected this cycle
    /// has one bit flipped, in parts per million. The message header is
    /// never corrupted (framing stays intact; see `jm-net`).
    pub corrupt_ppm: u32,
    /// Append a checksum word to every injected message and validate it at
    /// dispatch, dropping (and counting) corrupt messages.
    pub checksums: bool,
    windows: [FaultWindow; MAX_WINDOWS],
    window_count: u8,
}

impl FaultSpec {
    /// An empty spec with the given seed. Vacuous until faults are added.
    pub fn new(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            link_flaky_ppm: 0,
            corrupt_ppm: 0,
            checksums: false,
            windows: [FaultWindow::NONE; MAX_WINDOWS],
            window_count: 0,
        }
    }

    /// The canonical "no faults at all" spec.
    pub fn none() -> FaultSpec {
        FaultSpec::new(0)
    }

    /// Sets the per-link flaky probability (parts per million).
    pub fn flaky(mut self, ppm: u32) -> FaultSpec {
        self.link_flaky_ppm = ppm;
        self
    }

    /// Sets the ejection corruption probability (parts per million).
    pub fn corrupt(mut self, ppm: u32) -> FaultSpec {
        self.corrupt_ppm = ppm;
        self
    }

    /// Enables or disables message checksums.
    pub fn checksums(mut self, on: bool) -> FaultSpec {
        self.checksums = on;
        self
    }

    /// Adds a scheduled outage window.
    ///
    /// # Panics
    ///
    /// Panics if the spec already holds [`MAX_WINDOWS`] windows.
    pub fn window(mut self, w: FaultWindow) -> FaultSpec {
        let i = self.window_count as usize;
        assert!(
            i < MAX_WINDOWS,
            "too many fault windows (max {MAX_WINDOWS})"
        );
        self.windows[i] = w;
        self.window_count = i as u8 + 1;
        self
    }

    /// The scheduled outage windows.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows[..self.window_count as usize]
    }

    /// Whether this spec can never change any simulation outcome.
    pub fn is_vacuous(&self) -> bool {
        self.window_count == 0
            && self.link_flaky_ppm == 0
            && self.corrupt_ppm == 0
            && !self.checksums
    }
}

impl Default for FaultSpec {
    fn default() -> FaultSpec {
        FaultSpec::none()
    }
}

/// A compiled fault plan: the queryable form of a non-vacuous [`FaultSpec`].
///
/// Every query is a pure function of its arguments and the spec, keyed by
/// *global* node id so the answer cannot depend on how the mesh is sharded
/// across worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    spec: FaultSpec,
}

impl FaultPlan {
    /// Compiles a spec; `None` when the spec is vacuous, so callers keep
    /// the exact fault-free fast path (`Option` test only).
    pub fn from_spec(spec: FaultSpec) -> Option<FaultPlan> {
        if spec.is_vacuous() {
            None
        } else {
            Some(FaultPlan { spec })
        }
    }

    /// The spec this plan was compiled from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Whether messages carry a validation checksum.
    #[inline]
    pub fn checksums(&self) -> bool {
        self.spec.checksums
    }

    /// Whether `node`'s output `out_port` refuses to move a flit at
    /// `cycle`. Lossless: callers must treat `true` exactly like "no
    /// downstream space" (the flit stays queued).
    pub fn blocked(&self, node: u32, out_port: usize, cycle: u64) -> bool {
        for w in self.spec.windows() {
            if !w.active(cycle) || w.node != node {
                continue;
            }
            match w.kind {
                FaultWindowKind::LinkDown => {
                    if usize::from(w.port) == out_port {
                        return true;
                    }
                }
                FaultWindowKind::RouterStall => return true,
                FaultWindowKind::NodeDown => {
                    if out_port == port::EJECT {
                        return true;
                    }
                }
            }
        }
        self.spec.link_flaky_ppm != 0
            && out_port != port::EJECT
            && keyed_draw(self.spec.seed, SALT_FLAKY, node, out_port as u32, cycle) % PPM
                < u64::from(self.spec.link_flaky_ppm)
    }

    /// Whether `node`'s network interface is down at `cycle` (sends must
    /// stall at the injection port).
    pub fn node_down(&self, node: u32, cycle: u64) -> bool {
        self.spec
            .windows()
            .iter()
            .any(|w| w.kind == FaultWindowKind::NodeDown && w.node == node && w.active(cycle))
    }

    /// If a payload word ejected at `node` this `cycle` gets corrupted,
    /// returns the bit index (0–31) to flip.
    #[inline]
    pub fn corrupt_bit(&self, node: u32, cycle: u64) -> Option<u32> {
        if self.spec.corrupt_ppm == 0 {
            return None;
        }
        let d = keyed_draw(
            self.spec.seed,
            SALT_CORRUPT,
            node,
            port::EJECT as u32,
            cycle,
        );
        if d % PPM < u64::from(self.spec.corrupt_ppm) {
            Some(((d >> 32) % 32) as u32)
        } else {
            None
        }
    }
}

/// Initial accumulator for the message checksum fold.
pub const CHECKSUM_INIT: u32 = 0x811c_9dc5;

/// Folds one word (tag and payload bits) into a checksum accumulator.
/// FNV-1a-style so a single flipped bit anywhere changes the result.
#[inline]
pub fn checksum_fold(acc: u32, w: Word) -> u32 {
    let acc = (acc ^ w.tag() as u32).wrapping_mul(0x0100_0193);
    (acc ^ w.bits()).wrapping_mul(0x0100_0193)
}

/// Checksum word over a message's payload words (header first, route word
/// excluded). Carried as an `Int`-tagged trailer word on the wire.
pub fn checksum_words(words: &[Word]) -> Word {
    let acc = words
        .iter()
        .fold(CHECKSUM_INIT, |a, &w| checksum_fold(a, w));
    Word::new(jm_isa::tag::Tag::Int, acc)
}

/// Network-side fault-injection counters, carried inside `NetStats` and
/// merged through the same fixed-order reduction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Flit moves refused by a delay fault (windows or flaky links).
    pub blocked_moves: u64,
    /// Injections refused because the sending node's interface was down.
    pub inject_stalls: u64,
    /// Payload words corrupted at an ejection port.
    pub corrupted_words: u64,
}

impl FaultStats {
    /// Accumulates `other` into `self` (plain sums; order-independent, but
    /// callers fold in fixed shard order anyway).
    pub fn merge(&mut self, other: &FaultStats) {
        self.blocked_moves += other.blocked_moves;
        self.inject_stalls += other.inject_stalls;
        self.corrupted_words += other.corrupted_words;
    }

    /// Counters accumulated since `base` was captured.
    pub fn since(&self, base: &FaultStats) -> FaultStats {
        FaultStats {
            blocked_moves: self.blocked_moves - base.blocked_moves,
            inject_stalls: self.inject_stalls - base.inject_stalls,
            corrupted_words: self.corrupted_words - base.corrupted_words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vacuous_specs_compile_to_none() {
        assert!(FaultPlan::from_spec(FaultSpec::none()).is_none());
        assert!(FaultPlan::from_spec(FaultSpec::new(1234)).is_none());
        assert!(FaultPlan::from_spec(FaultSpec::new(7).flaky(1).flaky(0)).is_none());
        assert!(FaultPlan::from_spec(FaultSpec::new(7).flaky(1)).is_some());
        assert!(FaultPlan::from_spec(FaultSpec::new(7).checksums(true)).is_some());
        assert!(
            FaultPlan::from_spec(FaultSpec::new(7).window(FaultWindow::node_down(0, 10, 20)))
                .is_some()
        );
    }

    #[test]
    fn windows_block_exactly_their_interval() {
        let p =
            FaultPlan::from_spec(FaultSpec::new(1).window(FaultWindow::link_down(5, 2, 100, 200)))
                .unwrap();
        assert!(!p.blocked(5, 2, 99));
        assert!(p.blocked(5, 2, 100));
        assert!(p.blocked(5, 2, 199));
        assert!(!p.blocked(5, 2, 200));
        // Other ports and nodes unaffected.
        assert!(!p.blocked(5, 3, 150));
        assert!(!p.blocked(4, 2, 150));
    }

    #[test]
    fn router_stall_blocks_all_ports_and_node_down_blocks_eject() {
        let p = FaultPlan::from_spec(
            FaultSpec::new(1)
                .window(FaultWindow::router_stall(3, 0, 10))
                .window(FaultWindow::node_down(4, 0, 10)),
        )
        .unwrap();
        for out in 0..port::COUNT {
            assert!(p.blocked(3, out, 5));
        }
        assert!(p.blocked(4, port::EJECT, 5));
        assert!(!p.blocked(4, 0, 5));
        assert!(p.node_down(4, 5));
        assert!(!p.node_down(4, 10));
        assert!(!p.node_down(3, 5));
    }

    #[test]
    fn probabilistic_draws_are_deterministic_and_near_rate() {
        let p = FaultPlan::from_spec(FaultSpec::new(42).flaky(100_000)).unwrap();
        let mut hits = 0u32;
        for cycle in 0..10_000 {
            let b = p.blocked(7, 3, cycle);
            assert_eq!(b, p.blocked(7, 3, cycle), "same query, same answer");
            hits += u32::from(b);
        }
        // 10% nominal; allow a generous band for a 10k sample.
        assert!((700..1300).contains(&hits), "hit rate off: {hits}/10000");
        // Different seed gives a different pattern.
        let q = FaultPlan::from_spec(FaultSpec::new(43).flaky(100_000)).unwrap();
        assert!((0..10_000u64).any(|c| p.blocked(7, 3, c) != q.blocked(7, 3, c)));
    }

    #[test]
    fn corrupt_bits_are_in_range_and_rate_limited() {
        let p = FaultPlan::from_spec(FaultSpec::new(9).corrupt(50_000).checksums(true)).unwrap();
        let mut hits = 0u32;
        for cycle in 0..10_000 {
            if let Some(bit) = p.corrupt_bit(2, cycle) {
                assert!(bit < 32);
                hits += 1;
            }
        }
        assert!((300..800).contains(&hits), "hit rate off: {hits}/10000");
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        use jm_isa::tag::Tag;
        let words = [
            Word::new(Tag::Msg, 0x1234),
            Word::int(7),
            Word::new(Tag::Addr, 0xbeef),
        ];
        let good = checksum_words(&words);
        for i in 0..words.len() {
            for bit in 0..32 {
                let mut bad = words;
                bad[i] = Word::new(bad[i].tag(), bad[i].bits() ^ (1 << bit));
                assert_ne!(
                    checksum_words(&bad),
                    good,
                    "missed flip at word {i} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn fault_stats_merge_and_since() {
        let mut a = FaultStats {
            blocked_moves: 1,
            inject_stalls: 2,
            corrupted_words: 3,
        };
        let b = FaultStats {
            blocked_moves: 10,
            inject_stalls: 20,
            corrupted_words: 30,
        };
        a.merge(&b);
        assert_eq!(a.blocked_moves, 11);
        assert_eq!(a.since(&b).inject_stalls, 2);
    }
}
