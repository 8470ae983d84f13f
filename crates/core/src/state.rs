//! The machine's architectural state as plain data, and the diff that
//! names where two states part.

use jm_isa::word::Word;
use jm_mdp::NodeState;
use jm_net::RouterState;

/// The machine's architectural state at a cycle boundary
/// ([`crate::JMachine::arch_state`]): what every engine must agree on.
/// [`crate::JMachine::state_hash`] is the fold of its parts, nodes first,
/// each by its own type's `fold`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// Every node's state, in node order.
    pub nodes: Vec<NodeState>,
    /// Every router's state, in node order.
    pub routers: Vec<RouterState>,
}

/// `$name field: a vs b` for the first of the listed fields (each
/// optionally indexed) where `$a` and `$b` differ.
macro_rules! first_diff {
    ($name:expr, $a:expr, $b:expr; $($field:ident $([$i:expr])?),+) => {
        None $(.or_else(|| {
            let (a, b) = (&$a.$field $([$i])?, &$b.$field $([$i])?);
            (a != b).then(|| format!("{} {}: {a:?} vs {b:?}", $name, stringify!($field)))
        }))+
    };
}

impl ArchState {
    /// Names the first field where `other` differs, with both values —
    /// `node 17 mem[0x0a12]: 5:int vs 6:int`, `router 3 vnet1 owners: …` —
    /// or `None` when the states, both of one mesh, are equal.
    pub fn diff(&self, other: &ArchState) -> Option<String> {
        let mut nodes = self.nodes.iter().zip(&other.nodes).enumerate();
        let mut routers = self.routers.iter().zip(&other.routers).enumerate();
        let router = |(id, (a, b)): (usize, (&RouterState, &RouterState))| {
            (0..2).find_map(|v| {
                let name = format!("router {id} vnet{v}");
                first_diff!(name, a, b;
                    flits[v], owners[v], ejected[v], eject_hdr_seen[v], eject_committed[v])
            })
        };
        nodes
            .find_map(|(id, (a, b))| node_diff(id, a, b))
            .or_else(|| routers.find_map(router))
    }
}

/// The first field where node `id`'s states `a` and `b` differ.
fn node_diff(id: usize, a: &NodeState, b: &NodeState) -> Option<String> {
    let node = format!("node {id}");
    let word = |s: &NodeState, addr| {
        let at = s.mem.binary_search_by_key(&addr, |&(a, _)| a);
        at.map_or(Word::NIL, |i| s.mem[i].1)
    };
    let addrs = a.mem.iter().chain(&b.mem).map(|&(addr, _)| addr);
    let mem = addrs.filter(|&addr| word(a, addr) != word(b, addr)).min();
    (0..3)
        .find_map(|t| {
            let name = format!("{node} thread {t}");
            first_diff!(name, a, b; regs[t], staging[t], running[t], class[t], handler[t],
                compose[t], commit_pending[t], in_fault[t])
        })
        .or_else(|| first_diff!(node, a, b; queue_heads, queues, running_msgs))
        .or_else(|| {
            let addr = mem?;
            let (x, y) = (word(a, addr), word(b, addr));
            Some(format!("{node} mem[{addr:#06x}]: {x:?} vs {y:?}"))
        })
        .or_else(|| first_diff!(node, a, b; fip, fval, faddr, busy_for, halted, error))
}
