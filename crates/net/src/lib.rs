//! # jm-net
//!
//! Flit-level simulator of the J-Machine's 3-D mesh network.
//!
//! The modelled hardware (paper §2.1–2.2):
//!
//! * deterministic, dimension-order (e-cube) wormhole routing [Dally 90];
//! * channel bandwidth of **0.5 words/cycle** — a channel moves one 18-bit
//!   flit (half-word) per cycle;
//! * minimum latency of **1 cycle/hop** for the head flit;
//! * **two message priorities** sharing each physical channel: priority-1
//!   flits win channel arbitration and use separate buffers end to end;
//! * **fixed-priority output arbitration** among input ports, with through
//!   traffic preferred over injection — reproducing the unfairness the paper
//!   observed during radix sort (§4.3.2: some nodes "may be unable to inject
//!   a message into the network for an arbitrarily long period");
//! * **backpressure**: full downstream buffers block upstream channels, and a
//!   full injection FIFO surfaces to the processor as send faults.
//!
//! A message on the wire is the `route`-tagged destination word followed by
//! the payload words (whose first word must be a `msg` header). Each word is
//! two flits; the route word is stripped at the ejection port.
//!
//! # Modules
//!
//! | module | what it owns |
//! |---|---|
//! | `flit` | the flit, and the message record every flit of a message is made from |
//! | `router` | the e-cube route function; a node's ejection staging |
//! | `arena` | every channel buffer of a shard — flit rings between routers, message FIFOs at injection — and the per-router record arbitration probes |
//! | `shard` | one z-slab's state, and its cycle in four modules: |
//! | `shard::inject` | how a message enters: framing, the checksum trailer, FIFO room, the traffic generator, node-down stalls |
//! | `shard::arbitrate` | which flits move this cycle, and what moving one hop or ejecting *is* |
//! | `shard::edge` | the slab boundary: two identical lanes, each a mailbox and a space snapshot |
//! | `shard::bulk` | the closed-form timing law that stands in for `arbitrate` for every message whose route nothing else contends for |
//! | `network` | the whole mesh: a facade over the shards and the edges between them |
//! | `bitset` | the one worklist type (routers holding flits, nodes with deliveries) |
//! | `config`, `stats` | [`NetConfig`], [`NetStats`] |
//!
//! Port numbers (directions 0–5, ejection/injection 6) are
//! [`jm_fault::port`]'s.
//!
//! # Example
//!
//! ```
//! use jm_net::{Network, NetConfig, InjectResult};
//! use jm_isa::{MeshDims, MsgPriority, NodeId, RouteWord, Word, MsgHeader};
//!
//! let mut net = Network::new(NetConfig::new(MeshDims::new(2, 1, 1)));
//! let src = NodeId(0);
//! let dims = net.config().dims;
//! let route = RouteWord::new(dims.coord(NodeId(1))).to_word();
//! let header = MsgHeader::new(100, 2).to_word();
//!
//! let msg = [route, header, Word::int(7)];
//! assert_eq!(net.commit_msg(src, MsgPriority::P0, &msg), InjectResult::Accepted);
//!
//! for _ in 0..40 { net.step(); }
//! assert_eq!(net.pop_delivered(NodeId(1), MsgPriority::P0), Some(header));
//! assert_eq!(net.pop_delivered(NodeId(1), MsgPriority::P0), Some(Word::int(7)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod arena;
mod bitset;
mod config;
mod flit;
mod network;
mod router;
mod shard;
mod stats;

pub use bitset::{ones, BitSet};
pub use config::NetConfig;
pub use flit::Flit;
pub use network::Network;
pub use shard::{edge_pair, BulkStats, Edge, InjectResult, NetShard};
pub use stats::NetStats;
