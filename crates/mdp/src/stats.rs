//! Per-node statistics — the "statistics hardware" the paper wished the MDP
//! had (§5).

use jm_isa::consts::FaultKind;
use jm_isa::instr::StatClass;

/// Aggregate statistics for one handler entry point (one "thread type" in
/// the paper's Table 4 terminology).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandlerStats {
    /// Times a thread was created at this entry point.
    pub threads: u64,
    /// Instructions executed by those threads.
    pub instructions: u64,
    /// Total message words consumed by those threads (for mean length).
    pub msg_words: u64,
}

impl HandlerStats {
    /// Mean instructions per thread.
    pub fn instr_per_thread(&self) -> f64 {
        if self.threads == 0 {
            0.0
        } else {
            self.instructions as f64 / self.threads as f64
        }
    }

    /// Mean message length in words.
    pub fn mean_msg_len(&self) -> f64 {
        if self.threads == 0 {
            0.0
        } else {
            self.msg_words as f64 / self.threads as f64
        }
    }
}

/// Per-handler statistics table, keyed by entry instruction index.
///
/// Backed by parallel vectors rather than a hash map: the executor bumps a
/// handler's instruction count on *every retired instruction*, and a node
/// only ever runs a handful of distinct handlers, so a cached slot index
/// (a thread's `handler_slot`) turns the hot-path update into a plain
/// indexed add. Slots are assigned in first-touch order and never move.
#[derive(Debug, Clone, Default, Eq)]
pub struct HandlerMap {
    ips: Vec<u32>,
    stats: Vec<HandlerStats>,
}

impl HandlerMap {
    /// Slot index for `ip`, creating a zeroed entry on first touch.
    pub fn entry_slot(&mut self, ip: u32) -> u32 {
        let slot = match self.ips.iter().position(|&k| k == ip) {
            Some(slot) => slot,
            None => {
                self.ips.push(ip);
                self.stats.push(HandlerStats::default());
                self.ips.len() - 1
            }
        };
        slot as u32
    }

    /// The entry for `ip`, created zeroed if absent.
    pub fn entry(&mut self, ip: u32) -> &mut HandlerStats {
        let slot = self.entry_slot(ip);
        self.slot_mut(slot)
    }

    /// Direct access by a slot index previously returned by
    /// [`HandlerMap::entry_slot`] (the per-instruction hot path).
    #[inline]
    pub fn slot_mut(&mut self, slot: u32) -> &mut HandlerStats {
        &mut self.stats[slot as usize]
    }

    /// The entry for `ip`, if any instruction or dispatch touched it.
    pub fn get(&self, ip: &u32) -> Option<&HandlerStats> {
        self.ips
            .iter()
            .position(|k| k == ip)
            .map(|slot| &self.stats[slot])
    }

    /// Inserts or replaces the entry for `ip`.
    pub fn insert(&mut self, ip: u32, stats: HandlerStats) {
        *self.entry(ip) = stats;
    }

    /// Iterates `(ip, stats)` pairs in first-touch order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &HandlerStats)> {
        self.ips.iter().copied().zip(self.stats.iter())
    }

    /// Number of distinct handlers recorded.
    pub fn len(&self) -> usize {
        self.ips.len()
    }

    /// Whether no handler was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.ips.is_empty()
    }
}

impl std::ops::Index<&u32> for HandlerMap {
    type Output = HandlerStats;
    fn index(&self, ip: &u32) -> &HandlerStats {
        self.get(ip).expect("no stats recorded for handler")
    }
}

// Equality ignores slot order (first-touch order can differ between a
// per-node table and a machine-level merge).
impl PartialEq for HandlerMap {
    fn eq(&self, other: &HandlerMap) -> bool {
        self.ips.len() == other.ips.len() && self.iter().all(|(ip, h)| other.get(&ip) == Some(h))
    }
}

/// Counters for one node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Cycles attributed to each [`StatClass`].
    pub cycles: [u64; 7],
    /// Instructions retired.
    pub instructions: u64,
    /// Tasks dispatched from the message queues.
    pub threads: u64,
    /// `SEND` instructions retired.
    pub sends: u64,
    /// Send faults (injection refused; instruction retried).
    pub send_faults: u64,
    /// Messages completed (tail word injected).
    pub msgs_sent: u64,
    /// Messages consumed from the queues.
    pub msgs_received: u64,
    /// `XLATE`/`PROBE` lookups.
    pub xlates: u64,
    /// Lookups that missed.
    pub xlate_misses: u64,
    /// Faults raised, by kind.
    pub faults: [u64; 11],
    /// Cycles stalled waiting for message words to arrive.
    pub arrival_stalls: u64,
    /// Per-handler thread statistics, keyed by entry instruction index.
    pub handlers: HandlerMap,
}

impl NodeStats {
    /// Total cycles accounted.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Cycles attributed to one class.
    pub fn class_cycles(&self, class: StatClass) -> u64 {
        self.cycles[class.index()]
    }

    /// Adds cycles to a class.
    #[inline]
    pub fn add_cycles(&mut self, class: StatClass, cycles: u64) {
        self.cycles[class.index()] += cycles;
    }

    /// Records a fault.
    #[inline]
    pub fn count_fault(&mut self, kind: FaultKind) {
        self.faults[kind.vector() as usize] += 1;
    }

    /// Fault count for one kind.
    pub fn fault_count(&self, kind: FaultKind) -> u64 {
        self.faults[kind.vector() as usize]
    }

    /// Merges another node's counters into this one (machine-level totals).
    pub fn merge(&mut self, other: &NodeStats) {
        for (a, b) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *a += b;
        }
        self.instructions += other.instructions;
        self.threads += other.threads;
        self.sends += other.sends;
        self.send_faults += other.send_faults;
        self.msgs_sent += other.msgs_sent;
        self.msgs_received += other.msgs_received;
        self.xlates += other.xlates;
        self.xlate_misses += other.xlate_misses;
        for (a, b) in self.faults.iter_mut().zip(other.faults.iter()) {
            *a += b;
        }
        self.arrival_stalls += other.arrival_stalls;
        for (ip, h) in other.handlers.iter() {
            let entry = self.handlers.entry(ip);
            entry.threads += h.threads;
            entry.instructions += h.instructions;
            entry.msg_words += h.msg_words;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_accounting() {
        let mut s = NodeStats::default();
        s.add_cycles(StatClass::Compute, 10);
        s.add_cycles(StatClass::Idle, 5);
        assert_eq!(s.class_cycles(StatClass::Compute), 10);
        assert_eq!(s.total_cycles(), 15);
    }

    #[test]
    fn handler_means() {
        let h = HandlerStats {
            threads: 4,
            instructions: 100,
            msg_words: 12,
        };
        assert_eq!(h.instr_per_thread(), 25.0);
        assert_eq!(h.mean_msg_len(), 3.0);
        assert_eq!(HandlerStats::default().instr_per_thread(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = NodeStats::default();
        let mut b = NodeStats::default();
        a.instructions = 5;
        b.instructions = 7;
        b.count_fault(FaultKind::CFutRead);
        b.handlers.insert(
            3,
            HandlerStats {
                threads: 1,
                instructions: 9,
                msg_words: 2,
            },
        );
        a.merge(&b);
        assert_eq!(a.instructions, 12);
        assert_eq!(a.fault_count(FaultKind::CFutRead), 1);
        assert_eq!(a.handlers[&3].instructions, 9);
    }
}
