//! Randomized tests: under arbitrary random traffic the network never loses,
//! duplicates, corrupts, or interleaves message payloads.
//!
//! Formerly proptest-based; now driven by the in-tree seeded PRNG so the
//! workspace tests run hermetically.

use jm_isa::instr::MsgPriority;
use jm_isa::node::{MeshDims, NodeId, RouteWord};
use jm_isa::word::{MsgHeader, Word};
use jm_net::{InjectResult, NetConfig, Network};
use jm_prng::Prng;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct Msg {
    src: u32,
    dst: u32,
    priority: MsgPriority,
    /// Payload values; the message is sent as header + these ints, where the
    /// header encodes (src, seq) so the receiver can reassociate.
    body: Vec<i32>,
    seq: u32,
}

fn run_traffic(dims: MeshDims, msgs: Vec<Msg>) {
    let mut net = Network::new(NetConfig::new(dims));
    // Whole messages awaiting injection, queued per (src, priority): a
    // node's two priority FIFOs are independent.
    let mut merged: HashMap<(u32, MsgPriority), Vec<Vec<Word>>> = HashMap::new();
    let mut expected: HashMap<(u32, u32), Vec<i32>> = HashMap::new();
    for m in &msgs {
        let route = RouteWord::new(dims.coord(NodeId(m.dst))).to_word();
        // Encode (src, seq) into the header ip field (20 bits available).
        let ip = (m.src << 10) | m.seq;
        let header = MsgHeader::new(ip, m.body.len() as u32 + 1).to_word();
        let mut words = vec![route, header];
        words.extend(m.body.iter().map(|&v| Word::int(v)));
        merged.entry((m.src, m.priority)).or_default().push(words);
        expected.insert((m.src, m.seq), m.body.clone());
    }
    type Stream = (NodeId, MsgPriority, Vec<Vec<Word>>);
    let mut streams: Vec<Stream> = merged
        .into_iter()
        .map(|((src, pri), mut queue)| {
            queue.reverse(); // pop from the back
            (NodeId(src), pri, queue)
        })
        .collect();
    streams.sort_by_key(|(src, pri, _)| (src.0, pri.index()));

    let mut received: HashMap<(NodeId, MsgPriority), Vec<Word>> = HashMap::new();
    let mut cycles = 0u64;
    loop {
        let mut all_empty = true;
        for (src, pri, queue) in streams.iter_mut() {
            // Offer at most one message per stream per cycle, retrying a
            // stalled one the next cycle as the MDP does after a send fault.
            if let Some(msg) = queue.last() {
                all_empty = false;
                match net.commit_msg(*src, *pri, msg) {
                    InjectResult::Accepted => {
                        queue.pop();
                    }
                    InjectResult::Stall => {}
                    InjectResult::BadRoute => panic!("bad framing in generator"),
                }
            }
        }
        net.step();
        for node in dims.iter_nodes() {
            for pri in MsgPriority::ALL {
                while let Some(w) = net.pop_delivered(node, pri) {
                    received.entry((node, pri)).or_default().push(w);
                }
            }
        }
        cycles += 1;
        if all_empty && net.in_flight() == 0 {
            break;
        }
        assert!(cycles < 200_000, "network failed to drain");
    }

    // Parse the received streams: wormhole routing guarantees messages are
    // contiguous per (destination, priority) stream.
    let mut seen = 0usize;
    for ((_node, _pri), words) in received {
        let mut i = 0;
        while i < words.len() {
            let header = MsgHeader::from_word(words[i]);
            assert_eq!(words[i].tag(), jm_isa::Tag::Msg, "stream out of sync");
            let src = header.ip >> 10;
            let seq = header.ip & 0x3ff;
            let body = expected
                .remove(&(src, seq))
                .unwrap_or_else(|| panic!("unexpected or duplicated message {src}/{seq}"));
            assert_eq!(header.len as usize, body.len() + 1);
            for (k, &v) in body.iter().enumerate() {
                assert_eq!(words[i + 1 + k].as_i32(), v, "payload corrupted");
            }
            i += header.len as usize;
            seen += 1;
        }
    }
    assert_eq!(seen, msgs.len());
    assert!(expected.is_empty(), "lost messages: {expected:?}");
}

#[test]
fn random_traffic_is_conserved() {
    let dims = MeshDims::new(3, 3, 2);
    let nodes = dims.nodes();
    for case in 0..24u64 {
        let mut rng = Prng::from_label("random_traffic", case);
        let n_msgs = rng.range_usize(1, 60);
        let mut msgs = Vec::new();
        for seq in 0..n_msgs {
            let src = rng.range_u32(0, nodes);
            let dst = rng.range_u32(0, nodes);
            let len = rng.range_usize(1, 10);
            let priority = if rng.chance(0.25) {
                MsgPriority::P1
            } else {
                MsgPriority::P0
            };
            msgs.push(Msg {
                src,
                dst,
                priority,
                body: (0..len).map(|_| rng.range_i32(-1000, 1000)).collect(),
                seq: seq as u32,
            });
        }
        run_traffic(dims, msgs);
    }
}

/// The bulk-advance law against the flit-by-flit path, cycle for cycle:
/// the same random traffic, committed and drained identically, on a
/// one-shard mesh (where the law engages) and a two-shard one (where it
/// never does) must produce the same acceptances, deliveries, statistics
/// and occupancy every cycle, and the same component hashes whenever they
/// are taken (which materializes every law message).
#[test]
fn the_law_matches_the_sharded_mesh_cycle_for_cycle() {
    let mut engaged = 0;
    let mut materialized = 0;
    for case in 0..12u64 {
        let mut rng = Prng::from_label("law_vs_shards", case);
        let dims = [
            MeshDims::new(4, 4, 4),
            MeshDims::new(8, 4, 2),
            MeshDims::new(2, 2, 4),
        ][case as usize % 3];
        let nodes = dims.nodes();
        // Most messages go to a node's fixed partner, so messages on the
        // law follow each other down the same links.
        let partner: Vec<u32> = (0..nodes).map(|_| rng.range_u32(0, nodes)).collect();
        let config = NetConfig::new(dims);
        let mut nets = [Network::new(config), Network::with_shards(config, 2)];
        assert_eq!(nets[1].shard_count(), 2);
        // Light loads leave most routes clear, heavy ones make them meet.
        let load = [0.005, 0.01, 0.02, 0.04][case as usize / 3 % 4];
        for cycle in 0..8_000u32 {
            if cycle < 6_000 {
                for src in 0..nodes {
                    if !rng.chance(load) {
                        continue;
                    }
                    let dst = if rng.chance(0.8) {
                        partner[src as usize]
                    } else {
                        rng.range_u32(0, nodes)
                    };
                    let priority = if rng.chance(0.25) {
                        MsgPriority::P1
                    } else {
                        MsgPriority::P0
                    };
                    // Mostly short messages, the odd one too long for the
                    // law.
                    let len = if rng.chance(0.8) {
                        rng.range_u32(1, 4)
                    } else {
                        rng.range_u32(4, 11)
                    };
                    let route = RouteWord::new(dims.coord(NodeId(dst))).to_word();
                    let mut words = vec![route, MsgHeader::new(src, len).to_word()];
                    words.extend((1..len).map(|k| Word::int((cycle * 16 + k) as i32)));
                    let [a, b] = &mut nets;
                    let got = a.commit_msg(NodeId(src), priority, &words);
                    assert_eq!(got, b.commit_msg(NodeId(src), priority, &words));
                }
            }
            for net in &mut nets {
                net.step();
            }
            for node in dims.iter_nodes() {
                // A node that drains nothing this cycle backs its FIFO up.
                if rng.chance(0.3) {
                    continue;
                }
                for pri in MsgPriority::ALL {
                    let [a, b] = &mut nets;
                    while let Some(w) = a.pop_delivered(node, pri) {
                        assert_eq!(Some(w), b.pop_delivered(node, pri));
                    }
                    assert_eq!(b.pop_delivered(node, pri), None);
                }
            }
            let [a, b] = &mut nets;
            let at = format!("case {case}, cycle {cycle}");
            assert_eq!(a.stats(), b.stats(), "{at}");
            assert_eq!(a.in_flight(), b.in_flight(), "{at}");
            assert_eq!(a.active_routers(), b.active_routers(), "{at}");
            if rng.chance(0.01) {
                let mut hashes = [Vec::new(), Vec::new()];
                for (net, h) in nets.iter_mut().zip(&mut hashes) {
                    net.fold_components(|n, vnet, hash| h.push((n, vnet, hash)));
                }
                assert_eq!(hashes[0], hashes[1], "{at}");
            }
        }
        assert!(
            nets[0].is_idle() && nets[1].is_idle(),
            "case {case} did not drain"
        );
        let law = nets[0].bulk_stats();
        assert_eq!(nets[1].bulk_stats().engaged, 0);
        engaged += law.engaged;
        materialized += law.materialized;
    }
    assert!(
        engaged > 1_000 && materialized > 100,
        "{engaged} / {materialized}"
    );
}

#[test]
fn conservation_holds_on_a_line() {
    // Deterministic stress on a 4×1×1 line with overlapping paths.
    let dims = MeshDims::new(4, 1, 1);
    let mut msgs = Vec::new();
    for seq in 0..20 {
        msgs.push(Msg {
            src: seq % 4,
            dst: 3 - (seq % 4),
            priority: MsgPriority::P0,
            body: vec![seq as i32; ((seq % 5) + 1) as usize],
            seq,
        });
    }
    run_traffic(dims, msgs);
}
