//! The host-speed probe: a small, frozen machine loop that is *not* the
//! simulator but slows down when the simulator does.
//!
//! The hosts this benchmark runs on are shared virtual machines. Measured on
//! the sizing host, the same simulation ran anywhere between 0.7× and 1.5×
//! its usual time depending on what the neighbours were doing, in phases of
//! seconds to tens of minutes: no amount of repetition inside a 15-second
//! window averages that out. Simple probes do not track it either — a
//! dependent ALU chain and pointer walks over L2-, LLC- and DRAM-sized
//! buffers each correlated 0.1–0.7 with simulation speed — because what a
//! busy sibling thread takes from an interpreter is front-end bandwidth,
//! branch-predictor and cache capacity all at once.
//!
//! So the probe is an interpreter sweep of the same shape as the thing it
//! stands in for: 512 nodes of a few tens of KiB each, visited in order every
//! cycle; a shared program of register, load/store, branch and send
//! operations decoded through a `match`; sends that touch another node's
//! state. Over 20-second blocks it correlated 0.85–0.93 with the 512-node
//! workloads, and dividing by it halved their dispersion.
//!
//! **It is frozen.** Every end-to-end time the benchmark reports is scaled by
//! [`NOMINAL_NS`] over the probe's time around that run, so a change to this
//! file moves every number and breaks every baseline. It shares no code with
//! the simulator, so a change to the simulator cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// What one probe tick costs on the sizing host in its usual state
/// (nanoseconds). Times are reported as if the host ran at this speed.
pub const NOMINAL_NS: f64 = 17.0;

const NODES: usize = 512;
const PROGRAM: usize = 96;
const MEM_WORDS: usize = 4096;
const INBOX: usize = 64;
/// Sweeps per [`Probe::run`]: about 0.1 s. Shorter runs were tried (35 ms):
/// the host's speed flickers within a second, and a probe that short reads
/// the flicker rather than the phase.
const SWEEPS: u64 = 12_000;

#[derive(Clone, Copy)]
enum Op {
    Add(u8, u8, u8),
    Xor(u8, u8, u8),
    Mul(u8, u8, u8),
    Load(u8, u8),
    Store(u8, u8),
    BranchIfZero(u8, u8),
    Send(u8, u8),
    Receive(u8),
}

struct Node {
    regs: [u64; 8],
    pc: usize,
    busy_until: u64,
    mem: Vec<u64>,
    inbox: Vec<u64>,
    head: usize,
    retired: u64,
}

pub struct Probe {
    program: Vec<Op>,
    nodes: Vec<Node>,
    clock: u64,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

impl Probe {
    /// Builds the probe machine (about 17 MiB) from a fixed xorshift stream.
    pub fn new() -> Probe {
        let mut s = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let program = (0..PROGRAM)
            .map(|_| {
                let r = next();
                let (a, b, c) = ((r >> 8 & 7) as u8, (r >> 16 & 7) as u8, (r >> 24 & 7) as u8);
                match r % 16 {
                    0..=3 => Op::Add(a, b, c),
                    4..=5 => Op::Xor(a, b, c),
                    6 => Op::Mul(a, b, c),
                    7..=9 => Op::Load(a, b),
                    10..=11 => Op::Store(a, b),
                    12..=13 => Op::BranchIfZero(a, (r >> 32) as u8),
                    14 => Op::Send(a, b),
                    _ => Op::Receive(a),
                }
            })
            .collect();
        let nodes = (0..NODES)
            .map(|i| Node {
                regs: [i as u64 + 1, 2, 3, 4, 5, 6, 7, 8],
                pc: i % PROGRAM,
                busy_until: 0,
                mem: (0..MEM_WORDS).map(|_| next()).collect(),
                inbox: vec![0; INBOX],
                head: 0,
                retired: 0,
            })
            .collect();
        Probe {
            program,
            nodes,
            clock: 0,
        }
    }

    /// Runs the probe once; nanoseconds per node tick.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..SWEEPS {
            self.sweep();
        }
        black_box(self.nodes[0].regs[0]);
        t0.elapsed().as_nanos() as f64 / (SWEEPS as f64 * NODES as f64)
    }

    fn sweep(&mut self) {
        let now = self.clock;
        self.clock += 1;
        for i in 0..NODES {
            let node = &mut self.nodes[i];
            if now < node.busy_until {
                continue;
            }
            let op = self.program[node.pc];
            node.pc = (node.pc + 1) % PROGRAM;
            node.retired += 1;
            let r = &mut node.regs;
            match op {
                Op::Add(a, b, c) => r[a as usize] = r[b as usize].wrapping_add(r[c as usize]),
                Op::Xor(a, b, c) => r[a as usize] = r[b as usize] ^ r[c as usize].rotate_left(13),
                Op::Mul(a, b, c) => {
                    r[a as usize] = r[b as usize].wrapping_mul(r[c as usize] | 1);
                    node.busy_until = now + 2;
                }
                Op::Load(a, b) => {
                    r[a as usize] ^= node.mem[(r[b as usize] >> 7) as usize % MEM_WORDS];
                }
                Op::Store(a, b) => {
                    node.mem[(r[b as usize] >> 9) as usize % MEM_WORDS] = r[a as usize];
                }
                Op::BranchIfZero(a, target) => {
                    if r[a as usize] & 3 == 0 {
                        node.pc = target as usize % PROGRAM;
                    }
                }
                Op::Send(a, b) => {
                    let (word, to) = (r[a as usize], (r[b as usize] >> 11) as usize % NODES);
                    let dest = &mut self.nodes[to];
                    dest.inbox[dest.head] = word;
                    dest.head = (dest.head + 1) % INBOX;
                }
                Op::Receive(a) => {
                    let last = node.inbox[(node.head + INBOX - 1) % INBOX];
                    r[a as usize] = r[a as usize].wrapping_add(last);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_of_operation_runs_and_the_machine_keeps_moving() {
        let mut probe = Probe::new();
        let mut kinds = [false; 8];
        for op in &probe.program {
            kinds[match op {
                Op::Add(..) => 0,
                Op::Xor(..) => 1,
                Op::Mul(..) => 2,
                Op::Load(..) => 3,
                Op::Store(..) => 4,
                Op::BranchIfZero(..) => 5,
                Op::Send(..) => 6,
                Op::Receive(..) => 7,
            }] = true;
        }
        assert_eq!(kinds, [true; 8], "the fixed program lost an operation kind");
        assert!(probe.run() > 0.0);
        let first: u64 = probe.nodes.iter().map(|n| n.retired).sum();
        probe.run();
        let second: u64 = probe.nodes.iter().map(|n| n.retired).sum();
        // No node is ever busy for long: a second run retires as much again.
        assert!(first > SWEEPS * NODES as u64 / 2);
        assert!(second - first > SWEEPS * NODES as u64 / 2);
    }
}
