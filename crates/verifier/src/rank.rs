//! Primitive ranks and the rank-ordered settle worklist.
//!
//! A primitive's *rank* is its longest-path depth in the condensation of
//! the prim → fan-out-prim graph: strongly connected components (SCCs)
//! collapse to one node, a component nothing feeds has rank 0, and every
//! other component ranks one above the highest component feeding it.
//! Members of one SCC share a rank, and an edge between two components
//! always climbs, so primitives of one rank never feed each other except
//! inside an SCC. Draining the worklist lowest rank first therefore
//! evaluates each primitive of an acyclic design at most once per
//! settle: by the time a rank is popped, every primitive that could still
//! change one of its inputs has been evaluated and committed.

use scald_netlist::{Netlist, PrimId};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Ranks every primitive of `netlist` (indexed by [`PrimId::index`]):
/// its longest-path depth in the SCC condensation of the prim →
/// fan-out-prim graph. O(prims + fan-out edges).
pub(crate) fn prim_ranks(netlist: &Netlist) -> Arc<[u32]> {
    // One sequential pass over the (wide) primitive records; the graph
    // walks below then touch only this array and the fan-out CSR.
    let outs: Vec<u32> = netlist
        .prims()
        .iter()
        .map(|p| p.output.map_or(NO_OUTPUT, |out| out.index() as u32))
        .collect();
    let fanout = netlist.fanout_csr();
    condensed_ranks(outs.len(), |p| {
        let out = outs[p];
        let row = if out == NO_OUTPUT {
            &[][..]
        } else {
            fanout.row(out as usize)
        };
        row.iter().map(|q| q.index())
    })
}

/// Marks a checker (a primitive without an output) in [`prim_ranks`].
const NO_OUTPUT: u32 = u32::MAX;

/// Marks a node the Tarjan pass has not discovered yet.
const UNSEEN: u32 = u32::MAX;

/// Longest-path depth of every node of an `n`-node graph in its SCC
/// condensation; `succ(p)` lists `p`'s successors (duplicates allowed).
///
/// A Kahn pass ranks every node no cycle reaches, which is the whole
/// graph when it is acyclic. Only if nodes are left over does an
/// iterative Tarjan pass condense them; the components are then ranked
/// in topological order, starting from the lower bounds their
/// Kahn-ranked predecessors left.
fn condensed_ranks<F, I>(n: usize, succ: F) -> Arc<[u32]>
where
    F: Fn(usize) -> I,
    I: Iterator<Item = usize>,
{
    let mut indeg = vec![0u32; n];
    for p in 0..n {
        for q in succ(p) {
            indeg[q] += 1;
        }
    }
    // Filled in place: one allocation, which the verifier keeps.
    let mut ranks: Arc<[u32]> = std::iter::repeat_n(0, n).collect();
    let rank = Arc::get_mut(&mut ranks).expect("a fresh Arc is unique");
    let ids = 0..u32::try_from(n).expect("primitive ids are u32");
    let mut ready: Vec<u32> = ids.filter(|&p| indeg[p as usize] == 0).collect();
    let mut ranked = 0usize;
    while let Some(p) = ready.pop() {
        let p = p as usize;
        ranked += 1;
        let next = rank[p] + 1;
        for q in succ(p) {
            rank[q] = rank[q].max(next);
            indeg[q] -= 1;
            if indeg[q] == 0 {
                ready.push(q as u32);
            }
        }
    }
    if ranked < n {
        // Kahn ranks a node only after all its predecessors, so a node
        // left with `indeg > 0` has only unranked successors: the
        // leftover subgraph is closed downstream and condenses alone.
        rank_leftover(rank, &indeg, &succ);
    }
    ranks
}

/// Condenses the nodes Kahn left unranked (`indeg > 0`) with an
/// iterative Tarjan pass and ranks their components. `rank` holds each
/// leftover node's lower bound from its Kahn-ranked predecessors on
/// entry and its final rank on return.
fn rank_leftover<F, I>(rank: &mut [u32], indeg: &[u32], succ: &F)
where
    F: Fn(usize) -> I,
    I: Iterator<Item = usize>,
{
    let n = rank.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp = vec![0u32; n];
    // Components in completion order, members contiguous: component `c`
    // is `members[comp_start[c]..comp_start[c + 1]]`.
    let mut members: Vec<usize> = Vec::new();
    let mut comp_start: Vec<usize> = vec![0];
    let mut next_index = 0u32;
    let mut call: Vec<(usize, I)> = Vec::new();
    for root in 0..n {
        if indeg[root] == 0 || index[root] != UNSEEN {
            continue;
        }
        let mut discovered = Some(root);
        loop {
            if let Some(v) = discovered.take() {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                on_stack[v] = true;
                stack.push(v);
                call.push((v, succ(v)));
            }
            let Some((v, edges)) = call.last_mut() else {
                break;
            };
            let v = *v;
            match edges.next() {
                Some(w) if index[w] == UNSEEN => discovered = Some(w),
                Some(w) => {
                    if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                }
                None => {
                    call.pop();
                    if let Some(&(u, _)) = call.last() {
                        low[u] = low[u].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let c = (comp_start.len() - 1) as u32;
                        loop {
                            let w = stack.pop().expect("v is still on the stack");
                            on_stack[w] = false;
                            comp[w] = c;
                            members.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp_start.push(members.len());
                    }
                }
            }
        }
    }
    // Tarjan completes a component only after every component it
    // reaches, so reverse completion order is a topological order.
    let comps = comp_start.len() - 1;
    let mut comp_rank = vec![0u32; comps];
    for &p in &members {
        let c = comp[p] as usize;
        comp_rank[c] = comp_rank[c].max(rank[p]);
    }
    for c in (0..comps).rev() {
        let next = comp_rank[c] + 1;
        for &p in &members[comp_start[c]..comp_start[c + 1]] {
            rank[p] = comp_rank[c];
            for q in succ(p) {
                let d = comp[q] as usize;
                if d != c {
                    comp_rank[d] = comp_rank[d].max(next);
                }
            }
        }
    }
}

/// The settle worklist: a set of primitives popped one rank at a time,
/// lowest first, each wave in primitive-id order.
///
/// A min-heap on `(rank, prim id)` plus a queued flag per primitive for
/// deduplication. Popping every entry of the lowest rank yields a wave
/// that is already sorted by id. A primitive pushed while its own rank's
/// wave commits (only possible inside an SCC) lands in the next wave.
/// Every push passes the verifier's [`prim_ranks`]; the queue does not
/// hold them, so a case overlay's worklist costs no more to create than
/// its queued flags.
#[derive(Debug, Clone)]
pub(crate) struct RankQueue {
    heap: BinaryHeap<Reverse<(u32, PrimId)>>,
    queued: Vec<bool>,
}

impl RankQueue {
    /// An empty worklist over a design of `prims` primitives.
    pub(crate) fn new(prims: usize) -> RankQueue {
        RankQueue {
            heap: BinaryHeap::new(),
            queued: vec![false; prims],
        }
    }

    /// Queues `pid`, whose rank is `ranks[pid]`, unless it is already
    /// queued.
    pub(crate) fn push(&mut self, ranks: &[u32], pid: PrimId) {
        let i = pid.index();
        if !self.queued[i] {
            self.queued[i] = true;
            self.heap.push(Reverse((ranks[i], pid)));
        }
    }

    /// Queued primitives.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Replaces `wave` with every queued primitive of the lowest queued
    /// rank, in id order, and unqueues them. Returns `false` (leaving
    /// `wave` empty) once the worklist is drained.
    pub(crate) fn pop_wave(&mut self, wave: &mut Vec<PrimId>) -> bool {
        wave.clear();
        let Some(&Reverse((rank, _))) = self.heap.peek() else {
            // The settle is over: free the buffer rather than hold one
            // sized for a full settle for the verifier's lifetime.
            self.heap = BinaryHeap::new();
            return false;
        };
        while let Some(top) = self.heap.peek_mut() {
            if top.0 .0 != rank {
                break;
            }
            let Reverse((_, pid)) = PeekMut::pop(top);
            self.queued[pid.index()] = false;
            wave.push(pid);
        }
        true
    }

    /// The queued primitives in the order they would be popped. Costs a
    /// sort; meant for error reports.
    pub(crate) fn in_order(&self) -> Vec<PrimId> {
        let mut order: Vec<(u32, PrimId)> = self.heap.iter().map(|e| e.0).collect();
        order.sort_unstable();
        order.into_iter().map(|(_, pid)| pid).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_netlist::{Config, Conn, NetlistBuilder, PrimKind};
    use scald_rng::Rng;
    use scald_wave::DelayRange;

    /// `reach[a][b]`: some non-empty path leads from `a` to `b`.
    fn reachability(adj: &[Vec<usize>]) -> Vec<Vec<bool>> {
        let n = adj.len();
        let mut reach = vec![vec![false; n]; n];
        for (p, succs) in adj.iter().enumerate() {
            for &q in succs {
                reach[p][q] = true;
            }
        }
        for k in 0..n {
            let via = reach[k].clone();
            for row in &mut reach {
                if row[k] {
                    for (hit, &onward) in row.iter_mut().zip(&via) {
                        *hit |= onward;
                    }
                }
            }
        }
        reach
    }

    /// The reference: SCCs by mutual reachability, then the longest path
    /// into each component by relaxing every condensation edge until
    /// nothing changes.
    fn brute_force_ranks(adj: &[Vec<usize>]) -> Vec<u32> {
        let n = adj.len();
        let reach = reachability(adj);
        let same = |a: usize, b: usize| a == b || (reach[a][b] && reach[b][a]);
        let mut rank = vec![0u32; n];
        loop {
            let mut changed = false;
            for (p, succs) in adj.iter().enumerate() {
                for &q in succs {
                    if !same(p, q) && rank[q] < rank[p] + 1 {
                        rank[q] = rank[p] + 1;
                        changed = true;
                    }
                }
            }
            // Members of one SCC share the component's rank.
            for p in 0..n {
                for q in 0..n {
                    if same(p, q) && rank[q] < rank[p] {
                        rank[q] = rank[p];
                        changed = true;
                    }
                }
            }
            if !changed {
                return rank;
            }
        }
    }

    fn ranks_of(adj: &[Vec<usize>]) -> Vec<u32> {
        condensed_ranks(adj.len(), |p| adj[p].iter().copied()).to_vec()
    }

    /// A random graph on `n` nodes: forward edges only when `acyclic`,
    /// otherwise a few back edges and self-loops too, so components of
    /// several sizes appear beside acyclic stretches.
    fn random_graph(rng: &mut Rng, n: usize, acyclic: bool) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); n];
        for (p, succs) in adj.iter_mut().enumerate() {
            for _ in 0..rng.below(4) {
                if p + 1 < n {
                    succs.push(rng.range_usize(p + 1, n));
                }
            }
            if !acyclic && rng.bool_with(0.15) {
                succs.push(rng.range_usize(0, p + 1));
            }
        }
        adj
    }

    #[test]
    fn ranks_match_the_brute_force_reference_on_random_graphs() {
        let mut rng = Rng::seed_from_u64(0x2a4c);
        for round in 0..200 {
            let n = rng.range_usize(1, 40);
            let adj = random_graph(&mut rng, n, round % 2 == 0);
            assert_eq!(ranks_of(&adj), brute_force_ranks(&adj), "round {round}");
        }
    }

    /// The two properties the settle relies on, checked directly: SCC
    /// members share a rank, and every edge between components climbs.
    #[test]
    fn ranks_are_shared_in_components_and_climb_across_them() {
        let mut rng = Rng::seed_from_u64(0x5cc);
        for round in 0..100 {
            let n = rng.range_usize(2, 60);
            let adj = random_graph(&mut rng, n, false);
            let rank = ranks_of(&adj);
            let reach = reachability(&adj);
            for p in 0..n {
                for q in 0..n {
                    if p != q && reach[p][q] && reach[q][p] {
                        assert_eq!(rank[p], rank[q], "round {round}: SCC {p}, {q} split");
                    }
                }
                for &q in &adj[p] {
                    if !reach[q][p] {
                        assert!(rank[q] > rank[p], "round {round}: edge {p} -> {q} falls");
                    }
                }
            }
        }
    }

    #[test]
    fn acyclic_ranks_are_longest_paths() {
        // 0 -> 1 -> 2 -> 4 and 0 -> 3 -> 4: the short path must not win.
        let adj = vec![vec![1, 3], vec![2], vec![4], vec![4], vec![]];
        assert_eq!(ranks_of(&adj), vec![0, 1, 2, 1, 3]);
    }

    #[test]
    fn cycles_share_a_rank_and_feed_upward() {
        // A feeds the ring 1 -> 2 -> 3 -> 1, which feeds 4; 5 loops on
        // itself below the ring's entry.
        let adj = vec![vec![1, 5], vec![2], vec![3], vec![1, 4], vec![], vec![5, 2]];
        assert_eq!(ranks_of(&adj), vec![0, 2, 2, 2, 3, 1]);
    }

    fn w(s: scald_netlist::SignalId) -> Conn {
        Conn::new(s).with_wire_delay(DelayRange::ZERO)
    }

    #[test]
    fn netlist_rings_register_loops_and_self_loops_condense() {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let clk = b.signal("CK .P0-4").unwrap();
        let din = b.signal("IN").unwrap();
        // An inverter ring: AND (id 0) -> INV (id 1) -> AND.
        let fb = b.signal("FB").unwrap();
        let out = b.signal("OUT").unwrap();
        b.and2("A", DelayRange::ZERO, w(fb), w(clk), out);
        b.not("INV", DelayRange::from_ns(0.002, 0.002), w(out), fb);
        // A register loop fed by the ring: REG (2) -> INC (3) -> REG.
        let q = b.signal("Q").unwrap();
        let d = b.signal("D").unwrap();
        b.reg("R", DelayRange::from_ns(1.0, 2.0), clk, d, q);
        b.gate("INC", PrimKind::Xor, DelayRange::ZERO, vec![w(q), w(fb)], d);
        // A self-loop (4) below the ring: HOLD reads its own output.
        let hold = b.signal("HOLD").unwrap();
        b.gate(
            "HOLD",
            PrimKind::Or,
            DelayRange::ZERO,
            vec![w(hold), w(din)],
            hold,
        );
        // A tail (5) reading the self-loop and the register loop.
        let tail = b.signal("TAIL").unwrap();
        b.and2("T", DelayRange::ZERO, w(hold), w(q), tail);
        let netlist = b.finish().unwrap();
        assert_eq!(prim_ranks(&netlist)[..], [0, 0, 1, 1, 0, 2]);
    }

    #[test]
    fn queue_pops_lowest_rank_waves_in_id_order() {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let mut prev = b.signal("IN").unwrap();
        for i in 0..4 {
            let out = b.signal(&format!("S {i}")).unwrap();
            b.not(format!("N {i}"), DelayRange::ZERO, w(prev), out);
            prev = out;
        }
        let netlist = b.finish().unwrap();
        let ids: Vec<PrimId> = netlist.iter_prims().map(|(p, _)| p).collect();
        let ranks = [1, 0, 1, 0];
        let mut q = RankQueue::new(ids.len());
        for i in [2, 0, 3, 2, 1] {
            q.push(&ranks, ids[i]);
        }
        assert_eq!(q.len(), 4, "a queued primitive is not queued twice");
        assert_eq!(q.in_order(), vec![ids[1], ids[3], ids[0], ids[2]]);
        let mut wave = Vec::new();
        assert!(q.pop_wave(&mut wave));
        assert_eq!(wave, vec![ids[1], ids[3]]);
        q.push(&ranks, ids[1]);
        assert!(q.pop_wave(&mut wave));
        assert_eq!(wave, vec![ids[1]], "a same-rank push is the next wave");
        assert!(q.pop_wave(&mut wave));
        assert_eq!(wave, vec![ids[0], ids[2]]);
        assert!(!q.pop_wave(&mut wave));
        assert!(wave.is_empty());
    }
}
