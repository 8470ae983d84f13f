//! Compact machine-readable trace summary and deterministic hashing.
//!
//! The summary is the machine-consumable counterpart of the Chrome export:
//! a small JSON document with event counts, the latency decomposition, and
//! an [FNV-1a] hash over every event in the trace. Two runs of the same
//! program are cycle-identical exactly when their summary hashes match,
//! which is what the CI determinism job diffs.
//!
//! [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/

use crate::event::EventKind;
use crate::histogram::Histogram;
use crate::trace::MachineTrace;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Streaming FNV-1a fold: the incremental counterpart of [`fnv1a`].
///
/// Because FNV-1a consumes its input strictly left to right, a fold over a
/// concatenation equals a fold over the first part continued over the
/// second — `Fnv1a::with_seed(fold(A)).chain(B) == fold(A ++ B)`. The
/// replay layer's interval digests rely on exactly that composition
/// property, and the state-hash hooks in `jm-mdp`/`jm-net` use the
/// integer-push methods to fold component state without allocating.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A fold starting from the FNV offset basis (equivalent to `fnv1a`
    /// of the empty string).
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    /// Continues a fold from a previously-finished digest.
    pub fn with_seed(seed: u64) -> Fnv1a {
        Fnv1a(seed)
    }

    /// Folds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.0 ^= u64::from(v);
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// Folds a `u32` as little-endian bytes.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `u64` as little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A deterministic 64-bit digest of the whole trace: every event's cycle,
/// kind, and fields, plus every sample point, folded through FNV-1a. The
/// trace's canonical sort order makes the hash independent of component
/// buffer interleaving.
pub fn hash(trace: &MachineTrace) -> u64 {
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for e in &trace.events {
        mix(e.cycle);
        mix(u64::from(e.kind.rank()));
        mix(e.kind.id().0);
        match e.kind {
            EventKind::Inject {
                src,
                dst,
                priority,
                words,
                ..
            } => {
                mix(u64::from(src.0));
                mix(u64::from(dst.0));
                mix(priority.index() as u64);
                mix(u64::from(words));
            }
            EventKind::Hop { node, .. } | EventKind::Deliver { node, .. } => {
                mix(u64::from(node.0));
            }
            EventKind::QueueEnter { node, priority, .. } => {
                mix(u64::from(node.0));
                mix(priority.index() as u64);
            }
            EventKind::Dispatch { node, handler, .. }
            | EventKind::HandlerEnd { node, handler, .. } => {
                mix(u64::from(node.0));
                mix(u64::from(handler));
            }
            EventKind::Fault { node, what, .. } => {
                mix(u64::from(node.0));
                mix(u64::from(what.code()));
            }
        }
    }
    for s in &trace.samples {
        mix(s.cycle);
        mix(s.queued_words);
        mix(s.in_flight);
        mix(u64::from(s.active_routers));
        mix(u64::from(s.busy_nodes));
    }
    h
}

fn histogram_json(h: &Histogram) -> String {
    let nonzero: Vec<String> = h
        .buckets()
        .iter()
        .enumerate()
        .filter(|(_, &c)| c != 0)
        .map(|(i, &c)| format!("[{i},{c}]"))
        .collect();
    format!(
        r#"{{"count":{},"sum":{},"max":{},"mean":{:.3},"p50":{},"p99":{},"log2_buckets":[{}]}}"#,
        h.count(),
        h.sum(),
        h.max(),
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.99),
        nonzero.join(",")
    )
}

/// Renders the compact summary JSON: per-kind event counts, message totals
/// (traced ones, and those injected untraced past the id space), the four
/// latency-component histograms, sample count, and the trace hash
/// (as a hex string so shell tooling can compare it verbatim).
pub fn summary_json(trace: &MachineTrace) -> String {
    let mut kind_counts = [0u64; 7];
    for e in &trace.events {
        kind_counts[e.kind.rank() as usize] += 1;
    }
    let msgs = trace.messages();
    let dispatched = msgs.iter().filter(|m| m.dispatch.is_some()).count();
    let b = trace.breakdown();
    format!(
        concat!(
            "{{\n",
            "  \"nodes\": {},\n",
            "  \"events\": {{\"inject\": {}, \"hop\": {}, \"deliver\": {}, ",
            "\"queue_enter\": {}, \"dispatch\": {}, \"handler_end\": {}, ",
            "\"fault\": {}}},\n",
            "  \"messages\": {{\"injected\": {}, \"dispatched\": {}, \"untraced\": {}}},\n",
            "  \"latency\": {{\n",
            "    \"net\": {},\n",
            "    \"queue\": {},\n",
            "    \"handler\": {},\n",
            "    \"end_to_end\": {},\n",
            "    \"hops\": {}\n",
            "  }},\n",
            "  \"samples\": {},\n",
            "  \"trace_hash\": \"{:016x}\"\n",
            "}}\n"
        ),
        trace.nodes,
        kind_counts[0],
        kind_counts[1],
        kind_counts[2],
        kind_counts[3],
        kind_counts[4],
        kind_counts[5],
        kind_counts[6],
        msgs.len(),
        dispatched,
        trace.untraced(),
        histogram_json(&b.net),
        histogram_json(&b.queue),
        histogram_json(&b.handler),
        histogram_json(&b.end_to_end),
        histogram_json(&b.hops),
        trace.samples.len(),
        hash(trace)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use jm_isa::instr::MsgPriority;
    use jm_isa::node::NodeId;
    use jm_isa::TraceId;

    fn sample_trace() -> MachineTrace {
        let id = TraceId(1);
        let events = vec![
            Event {
                cycle: 1,
                kind: EventKind::Inject {
                    id,
                    src: NodeId(0),
                    dst: NodeId(1),
                    priority: MsgPriority::P0,
                    words: 2,
                },
            },
            Event {
                cycle: 6,
                kind: EventKind::Deliver {
                    id,
                    node: NodeId(1),
                },
            },
            Event {
                cycle: 9,
                kind: EventKind::Dispatch {
                    id,
                    node: NodeId(1),
                    handler: 4,
                },
            },
        ];
        MachineTrace::assemble(vec![events.into_iter().collect()], Vec::new(), 2)
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_fold_matches_and_composes() {
        let mut s = Fnv1a::new();
        s.write(b"foobar");
        assert_eq!(s.finish(), fnv1a(b"foobar"));
        // Composition: fold(A ++ B) == continue(fold(A), B), at any split.
        let bytes = b"the quick brown fox";
        for split in 0..bytes.len() {
            let mut whole = Fnv1a::new();
            whole.write(bytes);
            let mut resumed = Fnv1a::with_seed(fnv1a(&bytes[..split]));
            resumed.write(&bytes[split..]);
            assert_eq!(whole.finish(), resumed.finish(), "split at {split}");
        }
    }

    #[test]
    fn hash_is_stable_and_field_sensitive() {
        let t = sample_trace();
        assert_eq!(hash(&t), hash(&t.clone()));
        let mut t2 = sample_trace();
        t2.events[0].cycle = 2;
        assert_ne!(hash(&t), hash(&t2));
    }

    #[test]
    fn summary_reports_counts_and_hash() {
        let t = sample_trace();
        let json = summary_json(&t);
        assert!(json.contains(r#""inject": 1"#));
        assert!(json.contains(r#""dispatched": 1"#));
        assert!(json.contains(&format!("\"trace_hash\": \"{:016x}\"", hash(&t))));
        let open = json.matches('{').count();
        assert_eq!(open, json.matches('}').count());
    }
}
