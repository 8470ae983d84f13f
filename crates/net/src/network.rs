//! The whole-mesh network engine: a facade over one or more z-slab shards.
//!
//! With one shard (the default) this is exactly the former monolithic
//! engine. With more, [`Network::step`] drives the same two-phase cycle the
//! parallel machine engine runs on worker threads — step every shard, then
//! exchange boundary flits — so the sharded data path is exercised (and must
//! stay bit-identical) even in single-threaded use. See [`crate::shard`] for
//! the phase structure and the determinism argument.

use crate::config::NetConfig;
use crate::shard::{edge_pair, BulkStats, Edge, InjectResult, NetShard};
use crate::stats::NetStats;
use jm_isa::instr::MsgPriority;
use jm_isa::node::NodeId;
use jm_isa::word::Word;
use jm_isa::TraceId;
use jm_trace::Tracer;

/// The 3-D mesh network: one router per node, stepped one cycle at a time.
#[derive(Debug)]
pub struct Network {
    config: NetConfig,
    shards: Vec<NetShard>,
    edges: Vec<Edge>,
    /// The machine's one stored clock: the cycle about to be simulated.
    /// Shards hold no copy; every shard call is told the time.
    cycle: u64,
}

impl Network {
    /// Creates an idle network as a single shard.
    pub fn new(config: NetConfig) -> Network {
        Network::with_shards(config, 1)
    }

    /// Creates an idle network cut into (up to) `shards` contiguous z-slabs.
    /// The count is clamped to the z extent; slab sizes differ by at most
    /// one plane. Observable behavior is independent of the cut — sharding
    /// only decides what can be stepped concurrently.
    pub fn with_shards(config: NetConfig, shards: usize) -> Network {
        let dims = config.dims;
        let extents = [dims.x, dims.y, dims.z];
        let bisect_dim = (0..3).max_by_key(|&d| extents[d]).unwrap();
        let bisect_mid = extents[bisect_dim] / 2;
        let plane = dims.x as usize * dims.y as usize;
        let z = dims.z as usize;
        let count = shards.clamp(1, z);
        let mut parts = Vec::with_capacity(count);
        for k in 0..count {
            let z_lo = k * z / count;
            let z_hi = (k + 1) * z / count;
            parts.push(NetShard::new(
                config,
                z_lo * plane,
                (z_hi - z_lo) * plane,
                bisect_dim,
                bisect_mid,
            ));
        }
        let cut = |_| Edge::new(plane, config.flit_buffer);
        Network {
            config,
            shards: parts,
            edges: (1..count).map(cut).collect(),
            cycle: 0,
        }
    }

    /// Installs (or clears) a fault plan on every shard. Must be called
    /// before simulation starts; plan queries key on global node ids and
    /// the cycle, so behavior under faults is independent
    /// of the shard cut exactly like the fault-free case.
    pub fn set_fault_plan(&mut self, plan: Option<jm_fault::FaultPlan>) {
        for shard in &mut self.shards {
            shard.set_fault_plan(plan);
        }
    }

    /// Installs (or clears) a traffic plan on every shard. Must be called
    /// before simulation starts; plan queries key on global node ids and
    /// the cycle, so the generated workload is independent
    /// of the shard cut exactly like the fault plans.
    pub fn set_traffic_plan(&mut self, plan: Option<jm_traffic::TrafficPlan>) {
        for shard in &mut self.shards {
            shard.set_traffic_plan(plan);
        }
    }

    /// The next cycle at or after the current one with possible generated
    /// traffic, or `u64::MAX` when there is none (no plan, or its window is
    /// exhausted). Engines gate idle-skip and quiescence on this: the cycle
    /// counter must never skip past it, and a machine is not finished while
    /// it is finite.
    pub fn traffic_wake(&self) -> u64 {
        let wake = self.shards.iter().map(|s| s.traffic_wake(self.cycle));
        wake.min().unwrap_or(u64::MAX)
    }

    /// Turns lifecycle tracing on or off. While on, every accepted message
    /// is assigned a [`TraceId`] — a function of its source node and that
    /// node's injection ordinal, so the same under every shard cut — and
    /// each shard buffers the inject / per-hop / deliver events of its own
    /// routers.
    pub fn set_tracing(&mut self, on: bool) {
        for shard in &mut self.shards {
            shard.tracer = on.then(Box::default);
        }
    }

    /// The shards' lifecycle event buffers, in slab order (none when
    /// tracing is off), for the machine to drain as it merges its trace.
    pub fn tracers_mut(&mut self) -> impl Iterator<Item = &mut Tracer> {
        self.shards
            .iter_mut()
            .filter_map(|s| s.tracer.as_deref_mut())
    }

    /// Routers currently holding buffered flits.
    pub fn active_routers(&self) -> u32 {
        let active = self.shards.iter().map(|s| s.active_count(self.cycle));
        active.sum()
    }

    /// The network configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// The current cycle number.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Sets the clock to `cycle` after the caller has itself stepped the
    /// shards (handed out by [`Self::shard_parts`]) through every cycle
    /// before it — the machine's engines, which tell each shard the time.
    #[doc(hidden)]
    #[inline]
    pub fn advance_to(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.cycle, "the clock runs forward");
        self.cycle = cycle;
    }

    /// Accumulated statistics, reduced over shards in fixed (ascending slab)
    /// order.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for shard in &self.shards {
            total.merge(shard.stats());
        }
        total
    }

    /// The shards' bulk-advance counters, summed (`peak`: the largest
    /// shard's; host counters, outside [`Self::stats`]).
    pub fn bulk_stats(&self) -> BulkStats {
        let mut total = BulkStats::default();
        for shard in &self.shards {
            let s = shard.bulk_stats();
            total.engaged += s.engaged;
            total.materialized += s.materialized;
            total.moves += s.moves;
            total.peak = total.peak.max(s.peak);
        }
        total
    }

    /// Injection FIFOs allocated: one per `(node, priority)` that has ever
    /// had a message committed to it. A host counter of the simulator's
    /// footprint, outside [`Self::stats`] and every digest; it depends on
    /// the engine, since the bulk law commits a message to its FIFO only if
    /// something contends for its route.
    pub fn inject_fifos(&self) -> u64 {
        self.shards.iter().map(|s| s.inject_fifos() as u64).sum()
    }

    /// Flits currently buffered anywhere in the network (excluding ejected
    /// words awaiting the node).
    pub fn in_flight(&self) -> u64 {
        self.shards.iter().map(NetShard::in_flight).sum()
    }

    /// Whether the network holds no flits and no undelivered words. O(shards):
    /// each shard tracks both quantities incrementally.
    pub fn is_idle(&self) -> bool {
        self.shards.iter().all(NetShard::is_idle)
    }

    /// Nodes currently holding undelivered ejected words, in ascending id
    /// order. This is the engine's delivery notification: after a `step`,
    /// only these nodes can have words to pump (the set also retains nodes
    /// whose earlier deliveries have not been fully consumed, e.g. under
    /// queue backpressure).
    pub fn pending_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        // Shards hold disjoint ascending id ranges, so chaining in slab
        // order preserves global ascending order.
        self.shards.iter().flat_map(|s| {
            let base = s.base();
            s.pending().iter().map(move |l| NodeId((base + l) as u32))
        })
    }

    /// Advances the clock to `cycle` without simulating the intervening
    /// cycles. Only legal while no flits are buffered (`in_flight == 0`)
    /// and no traffic window opens before `cycle`: an empty network's step
    /// changes nothing but the clock, so skipping is an assignment to it.
    /// Undelivered ejected words may remain — they are cycle-independent
    /// state.
    ///
    /// # Panics
    ///
    /// Debug builds panic if flits are in flight or the skip passes the
    /// start of a traffic window.
    pub fn skip_to(&mut self, cycle: u64) {
        debug_assert_eq!(self.in_flight(), 0, "skip_to with flits in flight");
        debug_assert!(
            cycle <= self.traffic_wake(),
            "skip_to past the traffic window"
        );
        self.cycle = self.cycle.max(cycle);
    }

    /// The number of z-slab shards the mesh is cut into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Index of the shard owning `node`.
    pub fn shard_of_node(&self, node: NodeId) -> usize {
        let index = node.index();
        self.shards.partition_point(|s| s.base() + s.len() <= index)
    }

    /// Splits the network into its shards and edges so callers (the parallel
    /// machine engine) can hand each shard to its own worker while all
    /// workers share the edge interfaces.
    pub fn shard_parts(&mut self) -> (&mut [NetShard], &[Edge]) {
        (&mut self.shards, &self.edges)
    }

    #[inline]
    fn shard_for(&mut self, node: NodeId) -> &mut NetShard {
        let k = self.shard_of_node(node);
        &mut self.shards[k]
    }

    /// Atomically offers a whole message to a node's injection port: the
    /// route word followed by at least one payload word. Either every word
    /// is accepted or none is.
    pub fn commit_msg(
        &mut self,
        node: NodeId,
        priority: MsgPriority,
        words: &[Word],
    ) -> InjectResult {
        let cycle = self.cycle;
        self.shard_for(node)
            .commit_msg(cycle, node, priority, words)
    }

    /// Next delivered payload word for a node, if any (peek), with the
    /// trace id of the message that carried it ([`TraceId::NONE`] when
    /// tracing is off).
    pub fn delivered_front_traced(
        &self,
        node: NodeId,
        priority: MsgPriority,
    ) -> Option<(Word, TraceId)> {
        self.shards[self.shard_of_node(node)].delivered_front_traced(node, priority)
    }

    /// Pops the next delivered payload word for a node.
    pub fn pop_delivered(&mut self, node: NodeId, priority: MsgPriority) -> Option<Word> {
        self.shard_for(node).pop_delivered(node, priority)
    }

    /// Number of delivered words waiting at a node.
    pub fn delivered_len(&self, node: NodeId, priority: MsgPriority) -> usize {
        self.shards[self.shard_of_node(node)].delivered_len(node, priority)
    }

    /// Advances the network by one cycle: phase 1 steps every shard, phase 2
    /// exchanges boundary flits and republishes boundary space. Sequential
    /// shard order is immaterial — that is the whole point of the two-phase
    /// scheme (see [`crate::shard`]).
    pub fn step(&mut self) {
        let count = self.shards.len();
        for k in 0..count {
            let (below, above) = edge_pair(&self.edges, k);
            self.shards[k].step_cycle(self.cycle, below, above);
        }
        if count > 1 {
            for k in 0..count {
                let (below, above) = edge_pair(&self.edges, k);
                self.shards[k].exchange(below, above);
            }
        }
        self.cycle += 1;
    }

    /// Runs `cycles` steps.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Calls `f` with a replay occupancy digest for every `(node, vnet)`
    /// pair, in ascending (node id, vnet) order — the network's component
    /// hashes for the replay log's divergence reports. Takes `&mut self`
    /// because a wormhole bulk-advance message must be materialized into
    /// its exact buffered equivalent before hashing (semantically
    /// invisible; see [`crate::shard`]).
    pub fn fold_components(&mut self, mut f: impl FnMut(NodeId, usize, u64)) {
        for shard in &mut self.shards {
            shard.fold_components(self.cycle, &mut f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_isa::node::{Coord, MeshDims, RouteWord};
    use jm_isa::word::MsgHeader;

    /// `words` behind the route word for `to`: a message as `commit_msg`
    /// takes it.
    fn routed(net: &Network, to: NodeId, words: &[Word]) -> Vec<Word> {
        let route = RouteWord::new(net.config().dims.coord(to)).to_word();
        std::iter::once(route)
            .chain(words.iter().copied())
            .collect()
    }

    /// Commits a whole message, pumping the network on FIFO stalls the way
    /// the MDP retries after a send fault.
    fn send_msg(
        net: &mut Network,
        from: NodeId,
        to: NodeId,
        priority: MsgPriority,
        words: &[Word],
    ) {
        let msg = routed(net, to, words);
        loop {
            match net.commit_msg(from, priority, &msg) {
                InjectResult::Accepted => break,
                InjectResult::Stall => net.step(),
                InjectResult::BadRoute => panic!("bad route"),
            }
        }
    }

    /// Steps until no flits remain buffered (delivered words may still be
    /// waiting in ejection FIFOs). Returns whether the network settled.
    fn settle(net: &mut Network, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if net.in_flight() == 0 {
                return true;
            }
            net.step();
        }
        net.in_flight() == 0
    }

    fn drain(net: &mut Network, node: NodeId, priority: MsgPriority) -> Vec<Word> {
        let mut out = Vec::new();
        while let Some(w) = net.pop_delivered(node, priority) {
            out.push(w);
        }
        out
    }

    #[test]
    fn delivers_payload_in_order() {
        let mut net = Network::new(NetConfig::new(MeshDims::new(4, 4, 4)));
        let words = [MsgHeader::new(10, 3).to_word(), Word::int(1), Word::int(2)];
        send_msg(&mut net, NodeId(0), NodeId(63), MsgPriority::P0, &words);
        assert!(settle(&mut net, 200));
        assert_eq!(drain(&mut net, NodeId(63), MsgPriority::P0), words);
        assert_eq!(net.stats().delivered_msgs, 1);
    }

    #[test]
    fn loopback_delivery_works() {
        let mut net = Network::new(NetConfig::new(MeshDims::new(2, 2, 2)));
        let words = [MsgHeader::new(5, 1).to_word()];
        send_msg(&mut net, NodeId(3), NodeId(3), MsgPriority::P0, &words);
        assert!(settle(&mut net, 50));
        assert_eq!(drain(&mut net, NodeId(3), MsgPriority::P0), words);
    }

    #[test]
    fn latency_slope_is_one_cycle_per_hop() {
        // Send the same 2-word message over increasing distances and check
        // the tail-delivery latency increases by 1 cycle per hop.
        let mut latencies = Vec::new();
        for x in 1..8u8 {
            let mut net = Network::new(NetConfig::prototype_512());
            let to = net.config().dims.id(Coord::new(x, 0, 0));
            send_msg(
                &mut net,
                NodeId(0),
                to,
                MsgPriority::P0,
                &[MsgHeader::new(9, 2).to_word(), Word::int(0)],
            );
            assert!(settle(&mut net, 300));
            latencies.push(net.stats().latency_sum);
        }
        for pair in latencies.windows(2) {
            assert_eq!(pair[1] - pair[0], 1, "latencies {latencies:?}");
        }
    }

    #[test]
    fn bandwidth_is_half_word_per_cycle() {
        // Stream many messages between adjacent nodes; steady-state word
        // delivery rate must approach 0.5 words/cycle.
        let mut net = Network::new(NetConfig::new(MeshDims::new(2, 1, 1)));
        // Header plus 7 payload words behind the route word.
        let words: Vec<Word> = std::iter::once(MsgHeader::new(1, 8).to_word())
            .chain((0..7).map(Word::int))
            .collect();
        let msg = routed(&net, NodeId(1), &words);
        let mut cycles = 0u64;
        while cycles < 4000 {
            // Offer messages until the FIFO stalls.
            while net.commit_msg(NodeId(0), MsgPriority::P0, &msg) == InjectResult::Accepted {}
            net.step();
            cycles += 1;
            // Drain so ejection never backpressures.
            while net.pop_delivered(NodeId(1), MsgPriority::P0).is_some() {}
        }
        let rate = net.stats().delivered_words as f64 / cycles as f64;
        assert!(rate > 0.40 && rate <= 0.5, "rate {rate}");
    }

    #[test]
    fn injection_fifo_stalls_when_full() {
        let mut net = Network::new(NetConfig::new(MeshDims::new(2, 1, 1)));
        // Two words a message, two flits a word.
        let msg = routed(&net, NodeId(1), &[MsgHeader::new(1, 1).to_word()]);
        let mut accepted = 0;
        loop {
            match net.commit_msg(NodeId(0), MsgPriority::P0, &msg) {
                InjectResult::Accepted => accepted += 1,
                InjectResult::Stall => break,
                InjectResult::BadRoute => panic!("bad route"),
            }
            assert!(accepted < 100, "never stalled");
        }
        assert_eq!(accepted as usize, net.config().inject_fifo / 4);
    }

    #[test]
    fn rejects_bad_framing() {
        let mut net = Network::new(NetConfig::new(MeshDims::new(2, 1, 1)));
        let header = MsgHeader::new(1, 1).to_word();
        let mut commit = |words: &[Word]| net.commit_msg(NodeId(0), MsgPriority::P0, words);
        // First word must be a route word.
        assert_eq!(commit(&[Word::int(1), header]), InjectResult::BadRoute);
        // Empty messages are rejected.
        let route = RouteWord::new(Coord::new(1, 0, 0)).to_word();
        assert_eq!(commit(&[route]), InjectResult::BadRoute);
        // Out-of-range destinations are rejected.
        let bad = RouteWord::new(Coord::new(5, 0, 0)).to_word();
        assert_eq!(commit(&[bad, header]), InjectResult::BadRoute);
        // Nothing above left anything behind.
        assert_eq!(commit(&[route, header]), InjectResult::Accepted);
        assert_eq!(net.stats().injected_msgs, 1);
    }

    #[test]
    fn priority_one_wins_the_channel() {
        // Saturate P0 between nodes 0→1, then send one P1 message; the P1
        // message must be delivered while P0 traffic still flows.
        let mut net = Network::new(NetConfig::new(MeshDims::new(2, 1, 1)));
        // Fill the P0 FIFO.
        let p0 = routed(
            &net,
            NodeId(1),
            &[MsgHeader::new(1, 3).to_word(), Word::int(0), Word::int(0)],
        );
        while net.commit_msg(NodeId(0), MsgPriority::P0, &p0) == InjectResult::Accepted {}
        // One P1 message.
        let p1 = routed(&net, NodeId(1), &[MsgHeader::new(2, 1).to_word()]);
        assert_eq!(
            net.commit_msg(NodeId(0), MsgPriority::P1, &p1),
            InjectResult::Accepted
        );
        let mut p1_cycle = None;
        for c in 0..200 {
            net.step();
            if p1_cycle.is_none() && net.delivered_len(NodeId(1), MsgPriority::P1) > 0 {
                p1_cycle = Some(c);
            }
        }
        let p1_cycle = p1_cycle.expect("P1 delivered");
        assert!(p1_cycle < 30, "P1 starved until {p1_cycle}");
        assert!(net.delivered_len(NodeId(1), MsgPriority::P0) > 0);
    }

    #[test]
    fn ejection_backpressure_blocks_and_recovers() {
        let mut net = Network::new(NetConfig::new(MeshDims::new(2, 1, 1)));
        // Send more words than the eject FIFO holds and do not drain.
        send_msg(
            &mut net,
            NodeId(0),
            NodeId(1),
            MsgPriority::P0,
            &(0..12).map(Word::int).collect::<Vec<_>>(),
        );
        net.run(400);
        let cap = net.config().eject_fifo;
        assert_eq!(net.delivered_len(NodeId(1), MsgPriority::P0), cap);
        assert!(net.in_flight() > 0, "remaining flits must be blocked");
        // Drain and let the rest through.
        let mut guard = 0;
        while !net.is_idle() {
            while net.pop_delivered(NodeId(1), MsgPriority::P0).is_some() {}
            net.step();
            guard += 1;
            assert!(guard < 1000, "network failed to drain");
        }
        assert_eq!(net.stats().delivered_words, 12);
    }

    #[test]
    fn counts_bisection_crossings() {
        let mut net = Network::new(NetConfig::new(MeshDims::new(2, 2, 4)));
        // z = 0 → z = 3 crosses the z mid-plane exactly once; the route
        // word and payload are 2 words = 4 flits.
        let to = net.config().dims.id(Coord::new(0, 0, 3));
        send_msg(
            &mut net,
            NodeId(0),
            to,
            MsgPriority::P0,
            &[MsgHeader::new(1, 1).to_word()],
        );
        assert!(settle(&mut net, 200));
        assert_eq!(net.stats().bisection_flits, 4);
    }

    #[test]
    fn wormhole_blocking_holds_links() {
        // Two messages from different sources to the same destination input:
        // the second must wait for the first's tail (no interleaving).
        let mut net = Network::new(NetConfig::new(MeshDims::new(3, 1, 1)));
        let dest = NodeId(2);
        let long: Vec<Word> = std::iter::once(MsgHeader::new(1, 12).to_word())
            .chain((0..11).map(Word::int))
            .collect();
        send_msg(&mut net, NodeId(0), dest, MsgPriority::P0, &long);
        let short = [MsgHeader::new(2, 2).to_word(), Word::int(99)];
        send_msg(&mut net, NodeId(1), dest, MsgPriority::P0, &short);
        // Drain while stepping: the eject FIFO is smaller than the long
        // message, so delivery needs concurrent consumption.
        let mut words = Vec::new();
        for _ in 0..500 {
            net.step();
            while let Some(w) = net.pop_delivered(dest, MsgPriority::P0) {
                words.push(w);
            }
            if net.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(net.in_flight(), 0, "network failed to drain");
        assert_eq!(words.len(), 14);
        // Messages must be contiguous: find the short header and check the
        // next word is its payload.
        let pos = words
            .iter()
            .position(|w| *w == short[0])
            .expect("short header delivered");
        assert_eq!(words[pos + 1], short[1]);
    }

    /// Runs dense all-to-all-ish traffic on a given shard count and returns
    /// the full observable record: per-cycle per-node delivered words plus
    /// the final statistics.
    fn crossing_traffic(
        shards: usize,
        plan: Option<jm_fault::FaultPlan>,
    ) -> (Vec<(u64, u32, Word)>, NetStats) {
        let dims = MeshDims::new(2, 2, 8);
        let mut net = Network::with_shards(NetConfig::new(dims), shards);
        net.set_fault_plan(plan);
        let nodes = dims.nodes();
        // Every node sends a 3-word message to its id mirrored in z (all
        // messages cross every slab boundary near the middle).
        for src in 0..nodes {
            let here = dims.coord(NodeId(src));
            let to = dims.id(Coord::new(here.x, here.y, dims.z - 1 - here.z));
            let words = [
                MsgHeader::new(7, 3).to_word(),
                Word::int(src as i32),
                Word::int(-(src as i32)),
            ];
            send_msg(&mut net, NodeId(src), to, MsgPriority::P0, &words);
        }
        let mut record = Vec::new();
        for _ in 0..2000 {
            net.step();
            for n in 0..nodes {
                while let Some(w) = net.pop_delivered(NodeId(n), MsgPriority::P0) {
                    record.push((net.cycle(), n, w));
                }
            }
            if net.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(net.in_flight(), 0, "traffic failed to drain");
        (record, net.stats())
    }

    #[test]
    fn sharding_is_unobservable() {
        // The slab cut must not change delivery cycles, order, or any
        // statistic — the two-phase exchange is bit-identical to the
        // monolithic step.
        let (record1, stats1) = crossing_traffic(1, None);
        assert_eq!(stats1.delivered_msgs, 32);
        for shards in [2, 3, 4, 8] {
            let (record, stats) = crossing_traffic(shards, None);
            assert_eq!(record, record1, "{shards}-shard record diverged");
            assert_eq!(stats, stats1, "{shards}-shard stats diverged");
        }
    }

    #[test]
    fn delay_faults_are_lossless_and_shard_independent() {
        use jm_fault::{FaultPlan, FaultSpec};
        // 5% flaky links: every message must still arrive intact (delay
        // faults only ever hold flits in place), later than fault-free,
        // and the whole observable record must not depend on the shard cut.
        let plan = FaultPlan::from_spec(FaultSpec::new(77).flaky(50_000));
        assert!(plan.is_some());
        let (clean_record, clean_stats) = crossing_traffic(1, None);
        let (record1, stats1) = crossing_traffic(1, plan);
        assert_eq!(stats1.delivered_msgs, clean_stats.delivered_msgs);
        assert_eq!(stats1.delivered_words, clean_stats.delivered_words);
        assert!(stats1.faults.blocked_moves > 0, "no fault ever fired");
        assert!(
            stats1.latency_sum > clean_stats.latency_sum,
            "faults did not delay anything"
        );
        // Same payload words per node, possibly at different cycles (the
        // global interleaving may reorder under delay, but each node's own
        // word stream must be intact).
        let group = |r: &[(u64, u32, Word)]| {
            let mut per_node: Vec<Vec<Word>> = vec![Vec::new(); 32];
            for &(_, n, w) in r {
                per_node[n as usize].push(w);
            }
            per_node
        };
        assert_eq!(group(&record1), group(&clean_record));
        for shards in [2, 4, 8] {
            let (record, stats) = crossing_traffic(shards, plan);
            assert_eq!(record, record1, "{shards}-shard faulted record diverged");
            assert_eq!(stats, stats1, "{shards}-shard faulted stats diverged");
        }
    }

    #[test]
    fn link_down_window_holds_traffic_until_it_clears() {
        use jm_fault::{FaultPlan, FaultSpec, FaultWindow};
        // Node 0's +x channel (port 0) is down for cycles 0..100; a 0→1
        // message cannot start crossing before cycle 100.
        let run = |plan| {
            let mut net = Network::new(NetConfig::new(MeshDims::new(2, 1, 1)));
            net.set_fault_plan(plan);
            send_msg(
                &mut net,
                NodeId(0),
                NodeId(1),
                MsgPriority::P0,
                &[MsgHeader::new(1, 1).to_word()],
            );
            assert!(settle(&mut net, 400));
            (net.cycle(), net.stats())
        };
        let (clean_done, _) = run(None);
        let plan =
            FaultPlan::from_spec(FaultSpec::new(1).window(FaultWindow::link_down(0, 0, 0, 100)));
        let (done, stats) = run(plan);
        assert!(clean_done < 100, "baseline unexpectedly slow");
        assert!(done > 100, "window did not delay delivery: done at {done}");
        assert_eq!(stats.delivered_msgs, 1);
        assert!(stats.faults.blocked_moves > 0);
    }

    #[test]
    fn node_down_window_stalls_injection() {
        use jm_fault::{FaultPlan, FaultSpec, FaultWindow};
        let mut net = Network::new(NetConfig::new(MeshDims::new(2, 1, 1)));
        net.set_fault_plan(FaultPlan::from_spec(
            FaultSpec::new(1).window(FaultWindow::node_down(0, 0, 50)),
        ));
        let msg = routed(&net, NodeId(1), &[MsgHeader::new(1, 1).to_word()]);
        assert_eq!(
            net.commit_msg(NodeId(0), MsgPriority::P0, &msg),
            InjectResult::Stall
        );
        // The other node is unaffected, and the window clears.
        assert_eq!(
            net.commit_msg(NodeId(1), MsgPriority::P0, &msg),
            InjectResult::Accepted
        );
        net.run(50);
        assert_eq!(
            net.commit_msg(NodeId(0), MsgPriority::P0, &msg),
            InjectResult::Accepted
        );
        assert_eq!(net.stats().faults.inject_stalls, 1);
    }

    #[test]
    fn corruption_spares_headers_and_checksums_detect_it() {
        use jm_fault::{checksum_words, FaultPlan, FaultSpec};
        // Very high corruption rate; stream messages via the whole-message
        // API so checksum trailers are appended.
        let mut net = Network::new(NetConfig::new(MeshDims::new(2, 1, 1)));
        net.set_fault_plan(FaultPlan::from_spec(
            FaultSpec::new(3).corrupt(400_000).checksums(true),
        ));
        let dims = net.config().dims;
        let route = RouteWord::new(dims.coord(NodeId(1))).to_word();
        let payload = [MsgHeader::new(1, 3).to_word(), Word::int(7), Word::int(8)];
        let mut words = vec![route];
        words.extend_from_slice(&payload);
        let mut sent = 0;
        let mut delivered: Vec<Vec<Word>> = Vec::new();
        let mut cur = Vec::new();
        for _ in 0..600 {
            if sent < 20
                && net.commit_msg(NodeId(0), MsgPriority::P0, &words) == InjectResult::Accepted
            {
                sent += 1;
            }
            net.step();
            while let Some(w) = net.pop_delivered(NodeId(1), MsgPriority::P0) {
                cur.push(w);
                // Wire length = header len + checksum trailer.
                if cur.len() == payload.len() + 1 {
                    delivered.push(std::mem::take(&mut cur));
                }
            }
        }
        assert_eq!(delivered.len(), 20, "not all messages arrived");
        assert!(net.stats().faults.corrupted_words > 0, "nothing corrupted");
        let mut bad = 0;
        for msg in &delivered {
            // Headers are never corrupted: framing stays parseable.
            assert_eq!(msg[0], payload[0], "header was corrupted");
            let expect = checksum_words(&msg[..payload.len()]);
            if msg[payload.len()] != expect {
                bad += 1;
            } else {
                assert_eq!(msg[1..payload.len()], payload[1..], "undetected corruption");
            }
        }
        assert!(bad > 0, "corruption never hit a validated word");
    }

    #[test]
    fn generated_traffic_is_shard_independent() {
        use jm_traffic::{TrafficPattern, TrafficPlan, TrafficSpec};
        // A bit-reversal workload over a bounded window: every shard cut
        // must offer, accept, drop, and deliver the identical messages at
        // the identical cycles.
        let run = |shards| {
            let dims = MeshDims::new(2, 2, 8);
            let mut net = Network::with_shards(NetConfig::new(dims), shards);
            net.set_traffic_plan(TrafficPlan::from_spec(
                TrafficSpec::new(7)
                    .pattern(TrafficPattern::BitReversal)
                    .load(300_000)
                    .msg_words(2)
                    .window(0, 300)
                    .handler(5),
            ));
            let mut record = Vec::new();
            let drain = |net: &mut Network, record: &mut Vec<(u64, u32, Word)>| {
                for n in 0..dims.nodes() {
                    while let Some(w) = net.pop_delivered(NodeId(n), MsgPriority::P0) {
                        record.push((net.cycle(), n, w));
                    }
                }
            };
            for _ in 0..600 {
                net.step();
                drain(&mut net, &mut record);
                if net.cycle() >= 300 && net.is_idle() {
                    break;
                }
            }
            assert!(net.is_idle(), "traffic failed to drain");
            assert_eq!(net.traffic_wake(), u64::MAX);
            (record, net.stats())
        };
        let (record1, stats1) = run(1);
        assert!(stats1.traffic.offered_msgs > 0, "generator never fired");
        assert_eq!(
            stats1.traffic.offered_msgs,
            stats1.traffic.accepted_msgs + stats1.traffic.dropped_msgs
        );
        assert_eq!(stats1.delivered_msgs, stats1.traffic.accepted_msgs);
        for shards in [2, 4, 8] {
            let (record, stats) = run(shards);
            assert_eq!(record, record1, "{shards}-shard traffic record diverged");
            assert_eq!(stats, stats1, "{shards}-shard traffic stats diverged");
        }
    }

    #[test]
    fn traffic_wake_tracks_the_window() {
        use jm_traffic::{TrafficPlan, TrafficSpec};
        let mut net = Network::new(NetConfig::new(MeshDims::new(2, 1, 1)));
        net.set_traffic_plan(TrafficPlan::from_spec(
            TrafficSpec::new(1)
                .load(500_000)
                .window(100, 120)
                .handler(3),
        ));
        assert_eq!(net.traffic_wake(), 100);
        net.skip_to(100);
        assert_eq!(net.traffic_wake(), 100);
        let mut delivered = 0;
        for _ in 0..200 {
            net.step();
            while net.pop_delivered(NodeId(0), MsgPriority::P0).is_some() {
                delivered += 1;
            }
            while net.pop_delivered(NodeId(1), MsgPriority::P0).is_some() {
                delivered += 1;
            }
        }
        assert_eq!(net.traffic_wake(), u64::MAX);
        assert!(delivered > 0, "windowed traffic never delivered");
        assert!(net.stats().traffic.accepted_msgs > 0);
    }

    #[test]
    fn shard_count_is_clamped_to_z_extent() {
        let net = Network::with_shards(NetConfig::new(MeshDims::new(4, 4, 2)), 16);
        assert_eq!(net.shard_count(), 2);
        let net = Network::with_shards(NetConfig::new(MeshDims::new(4, 4, 2)), 0);
        assert_eq!(net.shard_count(), 1);
    }

    #[test]
    fn shard_of_node_matches_slab_ranges() {
        let mut net = Network::with_shards(NetConfig::new(MeshDims::new(2, 2, 8)), 3);
        let (shards, edges) = net.shard_parts();
        assert_eq!(edges.len(), 2);
        let ranges: Vec<(usize, usize)> = shards.iter().map(|s| (s.base(), s.len())).collect();
        assert_eq!(ranges.iter().map(|r| r.1).sum::<usize>(), 32);
        for (k, &(base, len)) in ranges.iter().enumerate() {
            for id in base..base + len {
                assert_eq!(net.shard_of_node(NodeId(id as u32)), k);
            }
        }
    }
}
