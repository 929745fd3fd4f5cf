//! Suurballe's algorithm: a minimum-total-cost pair of edge-disjoint
//! directed `s -> t` paths (Suurballe 1974, Suurballe–Tarjan 1984).
//!
//! This is the `Find_Two_Paths` subroutine of the paper (§3.3.2): the
//! approximation algorithms run it on the auxiliary graphs `G'`, `G_c` and
//! `G_rc`. The implementation uses the potential (reduced-cost)
//! formulation so both passes are plain Dijkstra runs on non-negative
//! weights:
//!
//! 1. Dijkstra from `s` gives distances `d(·)` and a shortest path `P1`.
//! 2. Every remaining edge `(u, v)` gets reduced cost
//!    `c(e) + d(u) − d(v) ≥ 0`; the edges of `P1` are removed and replaced
//!    by zero-cost reversals (tree edges are tight, so their reversals cost
//!    exactly 0).
//! 3. A second Dijkstra finds `P2'` in that residual graph.
//! 4. Interleaving removal: edges of `P1` whose reversals `P2'` used cancel
//!    (the `E_intersect` step of the paper's pseudocode); the surviving edge
//!    set decomposes into the two edge-disjoint paths, recovered by walking
//!    from `s` (every interior node has equal in/out degree).
//!
//! Also provided: [`node_disjoint_pair`] via the standard node-splitting
//! transform (the paper's remark that node-disjoint routes additionally
//! survive single *node* failures), and the [`two_step_pair`] baseline that
//! the evaluation compares against (greedy shortest-then-remove, which is
//! both suboptimal and incomplete on "trap" topologies).

use crate::dijkstra::{dijkstra_filtered, dijkstra_filtered_to};
use crate::{DiGraph, EdgeId, NodeId, Path};

/// A pair of edge-disjoint paths with their summed cost.
#[derive(Debug, Clone)]
pub struct DisjointPair {
    /// The two paths; `paths\[0\]` is the cheaper of the two.
    pub paths: [Path; 2],
    /// Total cost of both paths under the cost function used to find them.
    pub total_cost: f64,
}

impl DisjointPair {
    /// Verifies edge-disjointness (always true for algorithm output; public
    /// for tests and defensive callers).
    pub fn is_edge_disjoint(&self) -> bool {
        !self.paths[0].shares_edge_with(&self.paths[1])
    }
}

/// Minimum-cost pair of edge-disjoint `s -> t` paths over edges accepted by
/// `filter`, with per-edge costs from `cost` (must be non-negative).
///
/// Returns `None` when fewer than two edge-disjoint paths exist (including
/// `s == t`, for which the problem is degenerate).
///
/// ```
/// use wdm_graph::{DiGraph, NodeId};
/// use wdm_graph::suurballe::edge_disjoint_pair;
///
/// // The classic trap: the single shortest path blocks the naive
/// // two-step approach, but Suurballe re-routes around it.
/// let g = DiGraph::weighted(4, &[
///     (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), // cheap chain
///     (0, 2, 10.0), (1, 3, 10.0),            // expensive detours
/// ]);
/// let pair = edge_disjoint_pair(&g, NodeId(0), NodeId(3), |e| g.weight(e)).unwrap();
/// assert!(pair.is_edge_disjoint());
/// assert_eq!(pair.total_cost, 22.0); // {0-1-3, 0-2-3}
/// ```
///
/// This is the allocating textbook version and the oracle the flat
/// [`SearchArena`](crate::SearchArena) kernels are checked against.
pub fn edge_disjoint_pair_filtered<N, E>(
    g: &DiGraph<N, E>,
    s: NodeId,
    t: NodeId,
    mut cost: impl FnMut(EdgeId) -> f64,
    mut filter: impl FnMut(EdgeId) -> bool,
) -> Option<DisjointPair> {
    if s == t {
        return None;
    }
    // Pass 1: shortest-path tree from s.
    let tree1 = dijkstra_filtered(g, s, &mut cost, &mut filter);
    let p1 = tree1.path_to(g, t)?;
    let mut on_p1 = vec![false; g.edge_count()];
    for &e in &p1.edges {
        on_p1[e.index()] = true;
    }

    // Residual graph with reduced costs: P1's edges reversed at cost 0
    // (tree edges are tight), every other edge between reached nodes at
    // `c(e) + d(u) - d(v)`. Edges touching unreachable nodes cannot lie on
    // any s->t path.
    let mut resid: DiGraph<(), ResidArc> = DiGraph::with_capacity(g.node_count(), g.edge_count());
    for _ in 0..g.node_count() {
        resid.add_node(());
    }
    for e in g.edge_ids() {
        if !filter(e) {
            continue;
        }
        let (u, v) = g.endpoints(e);
        if on_p1[e.index()] {
            resid.add_edge(
                v,
                u,
                ResidArc {
                    cost: 0.0,
                    orig: e,
                    reversed: true,
                },
            );
        } else if tree1.reached(u) && tree1.reached(v) {
            // Floating-point noise can push a tight edge to -epsilon.
            let red = (cost(e) + tree1.dist[u.index()] - tree1.dist[v.index()]).max(0.0);
            resid.add_edge(
                u,
                v,
                ResidArc {
                    cost: red,
                    orig: e,
                    reversed: false,
                },
            );
        }
    }

    // Pass 2: only the path to t is needed, so stop once t settles.
    let tree2 = dijkstra_filtered_to(&resid, s, t, |e| resid.edge(e).cost, |_| true);
    let p2 = tree2.path_to(&resid, t)?;
    Some(cancel_and_walk(g, &resid, on_p1, &p2, cost))
}

/// Arc of a disjoint-pair residual graph.
#[derive(Debug, Clone, Copy)]
struct ResidArc {
    /// Residual cost: reduced (Suurballe) or raw and possibly negative on
    /// reversals (Bhandari).
    cost: f64,
    /// Originating edge in the input graph.
    orig: EdgeId,
    /// Whether this arc traverses `orig` backwards (a P1 reversal).
    reversed: bool,
}

/// The shared epilogue of both disjoint-pair algorithms. Interleaving
/// removal: `in_set` holds P1's edges; edges whose reversals the residual
/// path `p2` used cancel, and `p2`'s forward edges join. The surviving set
/// then decomposes into two `s -> t` paths by walking from `s`.
fn cancel_and_walk<N, E>(
    g: &DiGraph<N, E>,
    resid: &DiGraph<(), ResidArc>,
    mut in_set: Vec<bool>,
    p2: &Path,
    mut cost: impl FnMut(EdgeId) -> f64,
) -> DisjointPair {
    let (s, t) = (p2.src, p2.dst);
    for &re in &p2.edges {
        let arc = resid.edge(re);
        debug_assert_eq!(
            in_set[arc.orig.index()],
            arc.reversed,
            "residual arc disagrees with P1 membership"
        );
        in_set[arc.orig.index()] = !arc.reversed;
    }
    let mut out_lists: Vec<Vec<EdgeId>> = vec![Vec::new(); g.node_count()];
    let mut total = 0.0;
    for e in g.edge_ids() {
        if in_set[e.index()] {
            out_lists[g.src(e).index()].push(e);
            total += cost(e);
        }
    }
    let mut walk = || -> Path {
        let mut edges = Vec::new();
        let mut at = s;
        while at != t {
            let e = out_lists[at.index()]
                .pop()
                .expect("balanced edge set cannot strand a walk before t");
            edges.push(e);
            at = g.dst(e);
        }
        Path {
            src: s,
            dst: t,
            edges,
        }
    };
    let a = walk();
    let b = walk();
    debug_assert!(
        out_lists.iter().all(|l| l.is_empty()),
        "leftover edges after extracting two paths (zero-cost cycle?)"
    );
    let (first, second) = if a.cost(&mut cost) <= b.cost(&mut cost) {
        (a, b)
    } else {
        (b, a)
    };
    debug_assert!(!first.shares_edge_with(&second));
    DisjointPair {
        paths: [first, second],
        total_cost: total,
    }
}

/// [`edge_disjoint_pair_filtered`] over all edges.
pub fn edge_disjoint_pair<N, E>(
    g: &DiGraph<N, E>,
    s: NodeId,
    t: NodeId,
    cost: impl FnMut(EdgeId) -> f64,
) -> Option<DisjointPair> {
    edge_disjoint_pair_filtered(g, s, t, cost, |_| true)
}

/// Minimum-cost pair of *internally node-disjoint* `s -> t` paths, via the
/// node-splitting reduction: each node `v ∉ {s, t}` becomes `v_in -> v_out`
/// with a zero-cost arc, original edges go `u_out -> v_in`; edge-disjoint
/// paths in the split graph are node-disjoint in the original.
pub fn node_disjoint_pair<N, E>(
    g: &DiGraph<N, E>,
    s: NodeId,
    t: NodeId,
    mut cost: impl FnMut(EdgeId) -> f64,
) -> Option<DisjointPair> {
    if s == t {
        return None;
    }
    let n = g.node_count();
    // Split ids: v_in = 2v, v_out = 2v + 1.
    let mut split: DiGraph<(), Option<EdgeId>> = DiGraph::with_capacity(2 * n, g.edge_count() + n);
    for _ in 0..2 * n {
        split.add_node(());
    }
    let vin = |v: NodeId| NodeId(2 * v.0);
    let vout = |v: NodeId| NodeId(2 * v.0 + 1);
    for v in g.node_ids() {
        // s and t keep infinite "capacity": give them the splitter arc too,
        // it cannot be shared because paths only leave s_out / enter t_in.
        split.add_edge(vin(v), vout(v), None);
    }
    let mut costs: Vec<f64> = Vec::with_capacity(g.edge_count());
    for e in g.edge_ids() {
        let (u, v) = g.endpoints(e);
        split.add_edge(vout(u), vin(v), Some(e));
        costs.push(cost(e));
    }
    let pair = edge_disjoint_pair(&split, vout(s), vin(t), |se| match split.edge(se) {
        None => 0.0,
        Some(orig) => costs[orig.index()],
    })?;
    // Map back: keep only original-edge arcs.
    let map_path = |p: &Path| -> Path {
        let edges: Vec<EdgeId> = p.edges.iter().filter_map(|&se| *split.edge(se)).collect();
        Path {
            src: s,
            dst: t,
            edges,
        }
    };
    let a = map_path(&pair.paths[0]);
    let b = map_path(&pair.paths[1]);
    let total = a.cost(&mut cost) + b.cost(&mut cost);
    Some(DisjointPair {
        paths: [a, b],
        total_cost: total,
    })
}

/// Bhandari's variant of the disjoint-pair computation: instead of the
/// reduced-cost (potential) transformation, the second pass runs
/// Bellman–Ford directly on the residual graph whose `P1` edges are
/// replaced by reversals with *negated* costs. Same optimal result as
/// [`edge_disjoint_pair`], simpler transformation, slower second pass
/// (O(nm) vs O(m log n)) — kept as an independent implementation for
/// cross-validation and as the textbook alternative.
pub fn bhandari_pair<N, E>(
    g: &DiGraph<N, E>,
    s: NodeId,
    t: NodeId,
    mut cost: impl FnMut(EdgeId) -> f64,
) -> Option<DisjointPair> {
    if s == t {
        return None;
    }
    let tree1 = dijkstra_filtered(g, s, &mut cost, |_| true);
    if !tree1.reached(t) {
        return None;
    }
    let p1 = tree1.path_to(g, t).expect("t is reached");
    let mut on_p1 = vec![false; g.edge_count()];
    for &e in &p1.edges {
        on_p1[e.index()] = true;
    }

    // Residual graph with raw (possibly negative) costs on reversals.
    let mut resid: DiGraph<(), ResidArc> = DiGraph::with_capacity(g.node_count(), g.edge_count());
    for _ in 0..g.node_count() {
        resid.add_node(());
    }
    for e in g.edge_ids() {
        let (u, v) = g.endpoints(e);
        if on_p1[e.index()] {
            resid.add_edge(
                v,
                u,
                ResidArc {
                    cost: -cost(e),
                    orig: e,
                    reversed: true,
                },
            );
        } else {
            resid.add_edge(
                u,
                v,
                ResidArc {
                    cost: cost(e),
                    orig: e,
                    reversed: false,
                },
            );
        }
    }
    // No negative cycles exist: P1 is a shortest path, so its reversals
    // cannot close a negative loop with forward edges.
    let tree2 = match crate::bellman_ford::bellman_ford(&resid, s, |e| resid.edge(e).cost) {
        crate::bellman_ford::BellmanFord::Tree(t) => t,
        crate::bellman_ford::BellmanFord::NegativeCycle(_) => return None,
    };
    let p2 = tree2.path_to(&resid, t)?;
    Some(cancel_and_walk(g, &resid, on_p1, &p2, cost))
}

/// The greedy two-step baseline: shortest path, delete its edges, shortest
/// path again. Cheaper to compute than Suurballe but (a) may fail on trap
/// topologies where disjoint pairs exist, and (b) is suboptimal in general.
pub fn two_step_pair<N, E>(
    g: &DiGraph<N, E>,
    s: NodeId,
    t: NodeId,
    mut cost: impl FnMut(EdgeId) -> f64,
) -> Option<DisjointPair> {
    if s == t {
        return None;
    }
    let tree1 = dijkstra_filtered(g, s, &mut cost, |_| true);
    let p1 = tree1.path_to(g, t)?;
    let mut banned = vec![false; g.edge_count()];
    for &e in &p1.edges {
        banned[e.index()] = true;
    }
    // The second pass only needs a path to `t`, not the full tree: stop as
    // soon as `t` is settled (its distance and pred chain are exact then).
    let tree2 = dijkstra_filtered_to(g, s, t, &mut cost, |e| !banned[e.index()]);
    let p2 = tree2.path_to(g, t)?;
    let total = p1.cost(&mut cost) + p2.cost(&mut cost);
    let (a, b) = if p1.cost(&mut cost) <= p2.cost(&mut cost) {
        (p1, p2)
    } else {
        (p2, p1)
    };
    Some(DisjointPair {
        paths: [a, b],
        total_cost: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic Suurballe teaching example: the greedy shortest path goes
    /// through the middle and must be partially undone by the second pass.
    fn suurballe_classic() -> DiGraph<(), f64> {
        // Nodes: 0=A 1=B 2=C 3=D 4=E 5=F (Wikipedia's example).
        DiGraph::weighted(
            6,
            &[
                (0, 1, 1.0), // A-B
                (0, 2, 2.0), // A-C
                (1, 3, 1.0), // B-D
                (2, 3, 2.0), // C-D
                (1, 4, 2.0), // B-E
                (4, 5, 2.0), // E-F
                (3, 5, 1.0), // D-F
                (2, 4, 2.0), // C-E (extra, harmless)
            ],
        )
    }

    #[test]
    fn classic_example_total_cost() {
        let g = suurballe_classic();
        let pair = edge_disjoint_pair(&g, NodeId(0), NodeId(5), |e| g.weight(e)).unwrap();
        // Optimal: A-B-D-F (3) + A-C-E... wait for this arc set the optimum
        // pair is {A-B-D-F = 3, A-C-D... not disjoint}; check invariants and
        // the known optimum 3 + 6? Verified by exhaustive enumeration below.
        assert!(pair.is_edge_disjoint());
        assert!(pair.paths[0].is_valid_walk(&g));
        assert!(pair.paths[1].is_valid_walk(&g));
        let brute = brute_force_best_pair(&g, NodeId(0), NodeId(5));
        assert_eq!(pair.total_cost, brute.unwrap());
    }

    /// Exhaustive enumeration of edge-disjoint path pairs (tiny graphs only).
    fn brute_force_best_pair(g: &DiGraph<(), f64>, s: NodeId, t: NodeId) -> Option<f64> {
        let mut paths: Vec<(Vec<EdgeId>, f64)> = Vec::new();
        // DFS over simple paths.
        fn dfs(
            g: &DiGraph<(), f64>,
            at: NodeId,
            t: NodeId,
            seen: &mut Vec<bool>,
            cur: &mut Vec<EdgeId>,
            cost: f64,
            out: &mut Vec<(Vec<EdgeId>, f64)>,
        ) {
            if at == t {
                out.push((cur.clone(), cost));
                return;
            }
            for &e in g.out_edges(at) {
                let v = g.dst(e);
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    cur.push(e);
                    dfs(g, v, t, seen, cur, cost + g.weight(e), out);
                    cur.pop();
                    seen[v.index()] = false;
                }
            }
        }
        let mut seen = vec![false; g.node_count()];
        seen[s.index()] = true;
        dfs(g, s, t, &mut seen, &mut Vec::new(), 0.0, &mut paths);
        let mut best: Option<f64> = None;
        for i in 0..paths.len() {
            for j in 0..paths.len() {
                if i == j {
                    continue;
                }
                let disjoint = paths[i].0.iter().all(|e| !paths[j].0.contains(e));
                if disjoint {
                    let tot = paths[i].1 + paths[j].1;
                    best = Some(best.map_or(tot, |b: f64| b.min(tot)));
                }
            }
        }
        best
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for trial in 0..60 {
            let n = rng.gen_range(4..8);
            let mut arcs = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.gen_bool(0.45) {
                        arcs.push((u, v, rng.gen_range(1..20) as f64));
                    }
                }
            }
            let g = DiGraph::weighted(n as usize, &arcs);
            let s = NodeId(0);
            let t = NodeId(n - 1);
            let ours = edge_disjoint_pair(&g, s, t, |e| g.weight(e));
            let brute = brute_force_best_pair(&g, s, t);
            match (ours, brute) {
                (None, None) => {}
                (Some(pair), Some(best)) => {
                    assert!(
                        (pair.total_cost - best).abs() < 1e-9,
                        "trial {trial}: suurballe {} vs brute {best}",
                        pair.total_cost
                    );
                    assert!(pair.is_edge_disjoint());
                }
                (ours, brute) => panic!("trial {trial}: existence mismatch {ours:?} vs {brute:?}"),
            }
        }
    }

    #[test]
    fn trap_topology_beats_two_step() {
        // Trap: the single shortest path uses the only edge into t from one
        // side, leaving no second disjoint path for the greedy baseline,
        // while a disjoint pair exists.
        //      0 -> 1 (1)   1 -> 3 (1)
        //      0 -> 2 (10)  2 -> 3 (10)
        //      1 -> 2 (1)
        // Greedy shortest: 0-1-3 (2). Removing it leaves 0-2-3 (20): works
        // here. Harder trap: make the shortest path pass 0-1-2-3.
        let g = DiGraph::weighted(
            4,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (0, 2, 10.0),
                (1, 3, 10.0),
            ],
        );
        // Greedy picks 0-1-2-3 (3); removal disconnects... 0-2 and 1-3
        // remain but 0->2->? 2->3 is used. Two-step fails.
        let greedy = two_step_pair(&g, NodeId(0), NodeId(3), |e| g.weight(e));
        assert!(greedy.is_none(), "two-step should fail on the trap");
        let pair = edge_disjoint_pair(&g, NodeId(0), NodeId(3), |e| g.weight(e)).unwrap();
        assert!(pair.is_edge_disjoint());
        // Pair must be {0-1-3, 0-2-3} with total 22.
        assert_eq!(pair.total_cost, 22.0);
    }

    #[test]
    fn bhandari_agrees_with_suurballe_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for trial in 0..60 {
            let n = rng.gen_range(4..12);
            let mut arcs = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.gen_bool(0.35) {
                        arcs.push((u, v, rng.gen_range(1..40) as f64));
                    }
                }
            }
            let g = DiGraph::weighted(n as usize, &arcs);
            let s = NodeId(0);
            let t = NodeId(n - 1);
            let a = edge_disjoint_pair(&g, s, t, |e| g.weight(e));
            let b = bhandari_pair(&g, s, t, |e| g.weight(e));
            match (a, b) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert!(
                        (x.total_cost - y.total_cost).abs() < 1e-9,
                        "trial {trial}: suurballe {} vs bhandari {}",
                        x.total_cost,
                        y.total_cost
                    );
                    assert!(y.is_edge_disjoint());
                }
                (a, b) => panic!("trial {trial}: existence mismatch {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn bhandari_solves_the_trap() {
        let g = DiGraph::weighted(
            4,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (0, 2, 10.0),
                (1, 3, 10.0),
            ],
        );
        let pair = bhandari_pair(&g, NodeId(0), NodeId(3), |e| g.weight(e)).unwrap();
        assert_eq!(pair.total_cost, 22.0);
        assert!(pair.is_edge_disjoint());
    }

    #[test]
    fn no_pair_in_bridge_graph() {
        // All routes share the bridge 1 -> 2.
        let g = DiGraph::weighted(
            4,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (0, 1, 2.0),
                (2, 3, 2.0),
            ],
        );
        assert!(edge_disjoint_pair(&g, NodeId(0), NodeId(3), |e| g.weight(e)).is_none());
    }

    #[test]
    fn parallel_edges_form_a_pair() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(a, b, 3.0);
        let pair = edge_disjoint_pair(&g, a, b, |e| g.weight(e)).unwrap();
        assert_eq!(pair.total_cost, 4.0);
        assert!(pair.is_edge_disjoint());
        assert_eq!(pair.paths[0].cost(|e| g.weight(e)), 1.0);
    }

    #[test]
    fn source_equals_target_is_none() {
        let g = DiGraph::weighted(2, &[(0, 1, 1.0)]);
        assert!(edge_disjoint_pair(&g, NodeId(0), NodeId(0), |e| g.weight(e)).is_none());
    }

    #[test]
    fn node_disjoint_is_stricter() {
        // Two edge-disjoint paths exist but they share node 2; no two
        // node-disjoint paths exist.
        let g = DiGraph::weighted(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (0, 2, 5.0),
                (2, 4, 5.0),
            ],
        );
        let edge_pair = edge_disjoint_pair(&g, NodeId(0), NodeId(4), |e| g.weight(e));
        assert!(edge_pair.is_some());
        let node_pair = node_disjoint_pair(&g, NodeId(0), NodeId(4), |e| g.weight(e));
        assert!(node_pair.is_none());
    }

    #[test]
    fn node_disjoint_pair_on_diamond() {
        let g = DiGraph::weighted(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 2.0), (2, 3, 2.0)]);
        let pair = node_disjoint_pair(&g, NodeId(0), NodeId(3), |e| g.weight(e)).unwrap();
        assert_eq!(pair.total_cost, 6.0);
        assert!(!pair.paths[0].shares_interior_node_with(&pair.paths[1], &g));
    }

    #[test]
    fn cheaper_path_listed_first() {
        let g = DiGraph::weighted(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 5.0), (2, 3, 5.0)]);
        let pair = edge_disjoint_pair(&g, NodeId(0), NodeId(3), |e| g.weight(e)).unwrap();
        assert!(pair.paths[0].cost(|e| g.weight(e)) <= pair.paths[1].cost(|e| g.weight(e)));
    }

    #[test]
    fn two_step_works_when_no_trap() {
        let g = DiGraph::weighted(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 5.0), (2, 3, 5.0)]);
        let pair = two_step_pair(&g, NodeId(0), NodeId(3), |e| g.weight(e)).unwrap();
        assert_eq!(pair.total_cost, 12.0);
        assert!(pair.is_edge_disjoint());
    }

    /// `two_step_pair` with a full (non-pruned) second pass — the reference
    /// for the early-exit differential test below.
    fn two_step_pair_unpruned<N, E>(
        g: &DiGraph<N, E>,
        s: NodeId,
        t: NodeId,
        mut cost: impl FnMut(EdgeId) -> f64,
    ) -> Option<DisjointPair> {
        if s == t {
            return None;
        }
        let tree1 = dijkstra_filtered(g, s, &mut cost, |_| true);
        let p1 = tree1.path_to(g, t)?;
        let mut banned = vec![false; g.edge_count()];
        for &e in &p1.edges {
            banned[e.index()] = true;
        }
        let tree2 = dijkstra_filtered(g, s, &mut cost, |e| !banned[e.index()]);
        let p2 = tree2.path_to(g, t)?;
        let total = p1.cost(&mut cost) + p2.cost(&mut cost);
        let (a, b) = if p1.cost(&mut cost) <= p2.cost(&mut cost) {
            (p1, p2)
        } else {
            (p2, p1)
        };
        Some(DisjointPair {
            paths: [a, b],
            total_cost: total,
        })
    }

    #[test]
    fn two_step_early_exit_matches_unpruned_run() {
        use crate::topology::random_connected;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x75);
        for trial in 0..60 {
            let n = rng.gen_range(6..40);
            let m = n + rng.gen_range(0..2 * n);
            let g = random_connected(n, m, 1.0..10.0, &mut rng);
            let s = NodeId(rng.gen_range(0..n as u32));
            let mut t = NodeId(rng.gen_range(0..n as u32));
            if s == t {
                t = NodeId((t.0 + 1) % n as u32);
            }
            let pruned = two_step_pair(&g, s, t, |e| g.weight(e));
            let full = two_step_pair_unpruned(&g, s, t, |e| g.weight(e));
            match (pruned, full) {
                (None, None) => {}
                (Some(p), Some(f)) => {
                    assert_eq!(
                        p.paths[0].edges, f.paths[0].edges,
                        "trial {trial}: first paths diverge"
                    );
                    assert_eq!(
                        p.paths[1].edges, f.paths[1].edges,
                        "trial {trial}: second paths diverge"
                    );
                    assert_eq!(p.total_cost, f.total_cost, "trial {trial}: costs diverge");
                }
                (p, f) => panic!(
                    "trial {trial}: feasibility diverges (pruned {:?}, full {:?})",
                    p.is_some(),
                    f.is_some()
                ),
            }
        }
    }
}
