//! Reusable search buffers and the flat Suurballe kernels of the routing
//! hot path.
//!
//! The allocating [`edge_disjoint_pair_filtered`](crate::suurballe::edge_disjoint_pair_filtered)
//! builds its `dist`/`pred` vectors, heap, residual graph and walk lists
//! from scratch on every call. [`SearchArena`] owns that working state once
//! and re-serves it across searches over a CSR-flattened [`FlatView`]:
//!
//! * `dist`/`pred` are *generation-stamped*: a slot is valid only if its
//!   stamp equals the current generation, so "resetting" the arrays is a
//!   single counter increment instead of an `O(n)` fill;
//! * the d-ary heap is emptied with [`DaryHeap::clear`] (`O(len)` over the
//!   few leftover slots, not over capacity);
//! * the pass-2 residual is an overlay on the CSR, never materialised;
//! * edge masks are generation-stamped like the distance arrays.
//!
//! The flat kernels run the *same relaxation sequence* as the allocating
//! Suurballe over a graph whose per-node arcs come in ascending id order:
//! identical relaxations in identical order with identical tie-breaking, so
//! results are bit-for-bit equal (the arena tests and
//! `wdm-core/tests/engine_differential.rs` pin this). The allocating
//! version stays independent of this module and serves as the oracle.

use crate::{EdgeId, NodeId, Path};
use wdm_heap::{BucketQueue, DaryHeap, MinQueue};

/// Largest bucket span the flat integer paths will allocate (number of
/// buckets the monotone queue keeps live). Searches whose key window exceeds
/// this fall back to the d-ary heap — results are identical either way, only
/// the queue engine changes.
const BUCKET_SPAN_CAP: u64 = 1 << 18;

/// A generation-stamped shortest-path tree buffer (`dist` + `pred`).
#[derive(Debug, Clone)]
struct TreeBank {
    dist: Vec<f64>,
    pred: Vec<Option<EdgeId>>,
    stamp: Vec<u64>,
    gen: u64,
    source: NodeId,
}

impl Default for TreeBank {
    fn default() -> Self {
        Self {
            dist: Vec::new(),
            pred: Vec::new(),
            stamp: Vec::new(),
            gen: 0,
            source: NodeId::from(0),
        }
    }
}

impl TreeBank {
    /// Starts a new search over `n` nodes: grows the buffers if needed and
    /// invalidates all previous entries by bumping the generation. Returns
    /// whether the buffers grew (an allocation event).
    fn begin(&mut self, n: usize, source: NodeId) -> bool {
        let grew = self.stamp.len() < n;
        if grew {
            self.dist.resize(n, f64::INFINITY);
            self.pred.resize(n, None);
            self.stamp.resize(n, 0);
        }
        self.gen += 1;
        self.source = source;
        grew
    }

    #[inline]
    fn dist(&self, v: usize) -> f64 {
        if self.stamp[v] == self.gen {
            self.dist[v]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn pred(&self, v: usize) -> Option<EdgeId> {
        if self.stamp[v] == self.gen {
            self.pred[v]
        } else {
            None
        }
    }

    #[inline]
    fn set(&mut self, v: usize, d: f64, p: Option<EdgeId>) {
        self.dist[v] = d;
        self.pred[v] = p;
        self.stamp[v] = self.gen;
    }

    #[inline]
    fn reached(&self, v: NodeId) -> bool {
        self.dist(v.index()).is_finite()
    }

    /// Reconstructs the tree path `source -> t`; predecessor arcs are
    /// indices into the caller's per-arc tail array.
    fn path_to(&self, tail_of: &[u32], t: NodeId) -> Option<Path> {
        if !self.reached(t) {
            return None;
        }
        let mut edges = Vec::new();
        let mut at = t;
        while at != self.source {
            let e = self
                .pred(at.index())
                .expect("reached non-source node must have a pred edge");
            edges.push(e);
            at = NodeId::from(tail_of[e.index()] as usize);
        }
        edges.reverse();
        Some(Path {
            src: self.source,
            dst: t,
            edges,
        })
    }
}

/// A borrowed CSR-flattened view of a search graph: contiguous offset/head
/// arrays for traversal plus parallel per-arc attribute arrays. This is the
/// layout the incremental auxiliary-graph engine maintains.
///
/// Layout contract (debug-asserted by the search entry points):
/// * `offsets.len() == node_count + 1`; slot range of node `v` is
///   `offsets[v]..offsets[v + 1]`;
/// * `heads[slot]` is the destination node of the arc occupying `slot`, and
///   `slot_arc[slot]` its arc id;
/// * per-node slots appear in ascending arc-id order (the order
///   [`DiGraph::out_edges`](crate::DiGraph::out_edges) yields for a graph
///   built by pushing arcs in id order), so relaxation order — and
///   therefore every tie — matches the allocating Suurballe over that
///   graph exactly;
/// * `src`/`dst`/`weight` are indexed by arc id; disabled arcs are skipped
///   through `slot_enabled`.
#[derive(Debug, Clone, Copy)]
pub struct FlatView<'a> {
    /// CSR row offsets (`len == node_count + 1`).
    pub offsets: &'a [u32],
    /// Destination node per CSR slot.
    pub heads: &'a [u32],
    /// Arc id per CSR slot.
    pub slot_arc: &'a [u32],
    /// CSR slot per arc id (inverse of `slot_arc`).
    pub arc_slot: &'a [u32],
    /// Tail node per arc id.
    pub src: &'a [u32],
    /// Head node per arc id.
    pub dst: &'a [u32],
    /// Non-negative weight per arc id (cost units).
    pub weight: &'a [f64],
    /// Slot-ordered mirror of `weight`: the relaxation loops read weights
    /// sequentially in slot order instead of hopping through arc ids.
    pub slot_weight: &'a [f64],
    /// Participation flag per CSR slot; disabled arcs are skipped
    /// everywhere.
    pub slot_enabled: &'a [bool],
}

impl FlatView<'_> {
    pub fn node_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    pub fn arc_count(&self) -> usize {
        self.weight.len()
    }

    #[inline]
    fn out_range(&self, v: usize) -> core::ops::Range<usize> {
        self.offsets[v] as usize..self.offsets[v + 1] as usize
    }
}

/// Integer certification of a [`FlatView`]'s weights: every arc weight is
/// exactly `key[a] / 2^scale_shift` in f64. Under this contract the bucket
/// searches below are *bit-identical* to the f64 d-ary searches: integer key
/// order is isomorphic to f64 distance order, partial sums stay below 2^53
/// (guarded), and both heap engines break key ties by smallest node id.
#[derive(Debug, Clone, Copy)]
pub struct IntWeights<'a> {
    /// Integer keys, *slot-ordered* (parallel to [`FlatView::heads`]);
    /// `key[slot] as f64 / 2f64.powi(scale_shift)` must equal
    /// `slot_weight[slot]` bit-exactly for every *enabled* slot.
    pub key: &'a [u64],
    /// Fixed-point scale: weights are multiples of `2^-scale_shift`.
    pub scale_shift: u32,
    /// Upper bound on `key[a]` over all enabled arcs (need not be tight).
    pub max_key: u64,
}

/// Johnson-style vertex potentials carried across searches (key units).
///
/// Feasibility invariant: `pi[v] <= pi[u] + key(a)` for every *enabled* arc
/// `a: u -> v`, so reduced keys `key(a) + pi[u] - pi[v]` are non-negative.
/// `max` is an upper bound on every entry (it sizes the bucket span:
/// reduced keys never exceed `max_key + max`). The owner (the aux engine)
/// must repair or reset the potentials whenever an arc weight decreases or a
/// disabled arc becomes enabled; the all-zero vector is always feasible.
#[derive(Debug, Clone, Default)]
pub struct Potentials {
    /// Per-node potential in key units.
    pub pi: Vec<u64>,
    /// Upper bound on `pi` entries.
    pub max: u64,
}

impl Potentials {
    /// Resets to the all-zero (always feasible) potential over `n` nodes.
    pub fn reset(&mut self, n: usize) {
        self.pi.clear();
        self.pi.resize(n, 0);
        self.max = 0;
    }
}

/// A generation-stamped boolean edge set.
#[derive(Debug, Clone, Default)]
struct EdgeMask {
    bit: Vec<bool>,
    stamp: Vec<u64>,
    gen: u64,
}

impl EdgeMask {
    /// Starts a new mask over `m` edges; returns whether the buffers grew.
    fn begin(&mut self, m: usize) -> bool {
        let grew = self.stamp.len() < m;
        if grew {
            self.bit.resize(m, false);
            self.stamp.resize(m, 0);
        }
        self.gen += 1;
        grew
    }

    #[inline]
    fn get(&self, e: usize) -> bool {
        self.stamp[e] == self.gen && self.bit[e]
    }

    #[inline]
    fn set(&mut self, e: usize, value: bool) {
        self.bit[e] = value;
        self.stamp[e] = self.gen;
    }
}

/// Owns every buffer a Dijkstra or Suurballe run needs, so steady-state
/// searches perform no heap allocation beyond their output paths.
///
/// One arena serves any number of sequential searches over graphs of any
/// (varying) size; buffers only grow. Results are identical to the
/// allocating entry points.
#[derive(Debug, Clone)]
pub struct SearchArena {
    /// Pass-1 tree (kept alive through pass 2, which reads its distances).
    t1: TreeBank,
    /// Pass-2 tree over the residual graph.
    t2: TreeBank,
    heap: DaryHeap<f64, 4>,
    bucket: BucketQueue,
    mask: EdgeMask,
    /// Slot-indexed twin of `mask` for the flat pass-2 scan (sequential
    /// reads); holds the same P1 edges, addressed by CSR slot.
    mask_slot: EdgeMask,
    out_lists: Vec<Vec<EdgeId>>,
    /// Per-node reversed residual arc for the flat pass 2 (`u32::MAX` =
    /// none). P1 is a simple path, so a node has at most one masked
    /// in-arc — i.e. at most one reversed residual arc rooted at it.
    /// Filled from the P1 edges before pass 2 and cleared right after.
    rev_at: Vec<u32>,
    /// Buffer-growth events since construction (telemetry: a steady-state
    /// arena stops allocating, so this should plateau after warm-up).
    allocs: u64,
}

impl Default for SearchArena {
    fn default() -> Self {
        Self::new()
    }
}

impl SearchArena {
    pub fn new() -> Self {
        Self {
            t1: TreeBank::default(),
            t2: TreeBank::default(),
            heap: DaryHeap::with_capacity(0),
            bucket: BucketQueue::new(0, 1),
            mask: EdgeMask::default(),
            mask_slot: EdgeMask::default(),
            out_lists: Vec::new(),
            rev_at: Vec::new(),
            allocs: 0,
        }
    }

    /// Cumulative buffer-growth events (allocations) across all searches
    /// served by this arena.
    pub fn alloc_events(&self) -> u64 {
        self.allocs
    }

    /// [`crate::suurballe::edge_disjoint_pair_filtered`] over a
    /// [`FlatView`]'s enabled arcs: identical algorithm, identical
    /// tie-breaking, bit-identical results, with every traversal over
    /// contiguous CSR arrays and reused buffers. `pass1_done` fires once
    /// after the pass-1 tree and `P1` extraction, before pass 2 — the
    /// observation point for per-pass timing.
    pub fn edge_disjoint_pair_flat(
        &mut self,
        g: &FlatView<'_>,
        s: NodeId,
        t: NodeId,
        pass1_done: impl FnMut(),
    ) -> Option<crate::suurballe::DisjointPair> {
        self.flat_pair_impl(g, None, None, s, t, pass1_done)
    }

    /// [`SearchArena::edge_disjoint_pair_flat`] under certified integer
    /// weights: both Dijkstra passes run on the monotone bucket queue with
    /// `u64` keys (falling back to the d-ary heap when a pass's key window
    /// exceeds `BUCKET_SPAN_CAP`). Results are bit-identical to the f64
    /// path when `warm` is `None` or holds all-zero potentials.
    ///
    /// With `warm` potentials, pass 1 runs on reduced keys
    /// `key(a) + pi[u] - pi[v]` — near-zero along previously-shortest paths,
    /// which keeps the bucket scan short — and the finished tree is adopted
    /// as the next search's potentials (unreached nodes take the running
    /// max, which is feasible because no enabled arc can lead from a reached
    /// to an unreached node). Warm starts change which equal-cost optimum is
    /// selected, but never the optimal total cost.
    pub fn edge_disjoint_pair_flat_int(
        &mut self,
        g: &FlatView<'_>,
        int: &IntWeights<'_>,
        warm: Option<&mut Potentials>,
        s: NodeId,
        t: NodeId,
        pass1_done: impl FnMut(),
    ) -> Option<crate::suurballe::DisjointPair> {
        self.flat_pair_impl(g, Some(int), warm, s, t, pass1_done)
    }

    fn flat_pair_impl(
        &mut self,
        g: &FlatView<'_>,
        int: Option<&IntWeights<'_>>,
        mut warm: Option<&mut Potentials>,
        s: NodeId,
        t: NodeId,
        mut pass1_done: impl FnMut(),
    ) -> Option<crate::suurballe::DisjointPair> {
        let n = g.node_count();
        let m = g.arc_count();
        debug_assert_eq!(g.heads.len(), g.slot_arc.len());
        debug_assert!(g.src.len() == m && g.dst.len() == m);
        debug_assert!(
            g.arc_slot.len() == m && g.slot_weight.len() == m && g.slot_enabled.len() == m
        );
        debug_assert!(s.index() < n && t.index() < n);
        if s == t {
            return None;
        }

        // ---- Pass 1: shortest-path tree from s over enabled arcs. ----
        // Max finite tree distance in key units (int paths only): bounds
        // the pass-2 reduced costs, sizing its bucket span.
        let mut mx_key = 0u64;
        match int {
            None => {
                debug_assert!(warm.is_none(), "warm restart requires integer keys");
                self.allocs += self.t1.begin(n, s) as u64;
                self.heap.ensure_capacity(n);
                self.heap.clear();
                self.t1.set(s.index(), 0.0, None);
                self.heap.insert(s.index(), 0.0);
                while let Some((u, du)) = self.heap.pop_min() {
                    for slot in g.out_range(u) {
                        if !g.slot_enabled[slot] {
                            continue;
                        }
                        let w = g.slot_weight[slot];
                        debug_assert!(w >= 0.0, "negative arc weight {w} in slot {slot}");
                        let v = g.heads[slot] as usize;
                        let nd = du + w;
                        if nd < self.t1.dist(v) {
                            self.t1
                                .set(v, nd, Some(EdgeId::from(g.slot_arc[slot] as usize)));
                            self.heap.insert_or_decrease(v, nd);
                        }
                    }
                }
            }
            Some(iw) => {
                debug_assert_eq!(iw.key.len(), m);
                // Exactness guard: every distance is a sum of < n keys, and
                // residual reduced costs add two distances — all must stay
                // exactly representable in f64.
                debug_assert!(
                    (n as u64 + 2).saturating_mul(iw.max_key.max(1)) < (1 << 52),
                    "integer keys too large for exact f64 mirroring"
                );
                let inv_scale = 1.0 / (1u64 << iw.scale_shift) as f64;
                if let Some(p) = warm.as_deref_mut() {
                    if p.pi.len() != n {
                        p.reset(n);
                    }
                }
                // Warm restart only if the reduced-key window fits the
                // bucket span cap; otherwise run cold (and still re-adopt).
                let use_pi = warm
                    .as_deref()
                    .is_some_and(|p| iw.max_key + p.max < BUCKET_SPAN_CAP);
                let (span, pi_s) = match (use_pi, warm.as_deref()) {
                    (true, Some(p)) => (iw.max_key + p.max + 1, p.pi[s.index()]),
                    _ => (iw.max_key + 1, 0),
                };
                self.allocs += self.t1.begin(n, s) as u64;
                self.bucket.clear();
                self.allocs += self.bucket.ensure(n, span) as u64;
                self.t1.set(s.index(), 0.0, None);
                self.bucket.insert(s.index(), 0);
                let pi_view: &[u64] = match (use_pi, warm.as_deref()) {
                    (true, Some(p)) => &p.pi,
                    _ => &[],
                };
                while let Some((u, du)) = self.bucket.pop_min() {
                    let pi_u = if pi_view.is_empty() { 0 } else { pi_view[u] };
                    for slot in g.out_range(u) {
                        if !g.slot_enabled[slot] {
                            continue;
                        }
                        let v = g.heads[slot] as usize;
                        let r = if pi_view.is_empty() {
                            iw.key[slot]
                        } else {
                            debug_assert!(
                                iw.key[slot] + pi_u >= pi_view[v],
                                "infeasible potential in slot {slot}"
                            );
                            iw.key[slot] + pi_u - pi_view[v]
                        };
                        let nd = du + r;
                        // Exact: nd < n * (max_key + pi.max) < 2^53.
                        let ndf = nd as f64;
                        if ndf < self.t1.dist(v) {
                            self.t1
                                .set(v, ndf, Some(EdgeId::from(g.slot_arc[slot] as usize)));
                            self.bucket.insert_or_decrease(v, nd);
                        }
                    }
                }
                // Convert key-unit (possibly reduced) distances to true cost
                // units; with warm potentials, adopt the finished tree.
                match warm {
                    Some(p) => {
                        let mut mx = 0u64;
                        for v in 0..n {
                            if self.t1.stamp[v] == self.t1.gen {
                                let dk = if use_pi {
                                    (self.t1.dist[v] as u64 + p.pi[v]) - pi_s
                                } else {
                                    self.t1.dist[v] as u64
                                };
                                self.t1.dist[v] = dk as f64 * inv_scale;
                                p.pi[v] = dk;
                                mx = mx.max(dk);
                            }
                        }
                        for v in 0..n {
                            if self.t1.stamp[v] != self.t1.gen {
                                p.pi[v] = mx;
                            }
                        }
                        p.max = mx;
                        mx_key = mx;
                    }
                    None => {
                        for v in 0..n {
                            if self.t1.stamp[v] == self.t1.gen {
                                let dk = self.t1.dist[v] as u64;
                                mx_key = mx_key.max(dk);
                                self.t1.dist[v] = dk as f64 * inv_scale;
                            }
                        }
                    }
                }
            }
        }
        if !self.t1.reached(t) {
            return None;
        }
        let p1 = self.t1.path_to(g.src, t).expect("t is reached");
        self.allocs += self.mask.begin(m) as u64;
        self.allocs += self.mask_slot.begin(m) as u64;
        for &e in &p1.edges {
            self.mask.set(e.index(), true);
            self.mask_slot.set(g.arc_slot[e.index()] as usize, true);
        }
        pass1_done();

        // ---- Pass 2 runs directly over the CSR with a residual overlay ----
        // (no residual graph is materialised). The residual is: every
        // enabled unmasked forward arc whose endpoints both lie in the
        // pass-1 tree, at reduced cost `(w + d(u) - d(v)).max(0)`, plus
        // each P1 arc reversed at reduced cost 0. P1 is a simple path, so a
        // node has at most one masked in-arc — at most one reversed arc —
        // and merging it into the forward slot scan by ascending original
        // arc id reproduces the allocating version's residual insertion
        // order, and therefore every relaxation tie, exactly. Pass-2 predecessor
        // arcs are encoded as `orig_arc << 1 | reversed`.
        if self.rev_at.len() < n {
            self.rev_at.resize(n, u32::MAX);
            self.allocs += 1;
        }
        for &e in &p1.edges {
            self.rev_at[g.dst[e.index()] as usize] = e.index() as u32;
        }

        self.allocs += self.t2.begin(n, s) as u64;
        let bucket2 = int.and_then(|iw| {
            let scale = (1u64 << iw.scale_shift) as f64;
            // Reduced costs are bounded by max_key + (max tree distance in
            // key units): a safe over-estimate of the Dial span needed.
            let span2 = iw.max_key + mx_key + 1;
            (span2 <= BUCKET_SPAN_CAP).then_some((scale, span2))
        });
        match bucket2 {
            Some((scale, span2)) => {
                let inv_scale = 1.0 / scale;
                self.bucket.clear();
                self.allocs += self.bucket.ensure(n, span2) as u64;
                self.t2.set(s.index(), 0.0, None);
                self.bucket.insert(s.index(), 0);
                while let Some((u, du)) = self.bucket.pop_min() {
                    if u == t.index() {
                        break;
                    }
                    // Every pass-2 node is pass-1 reachable (induction from
                    // s), so this distance is finite.
                    let d1_u = self.t1.dist(u);
                    let mut pending_rev = self.rev_at[u];
                    for slot in g.out_range(u) {
                        if (pending_rev as usize) < g.slot_arc[slot] as usize {
                            let ra = pending_rev as usize;
                            pending_rev = u32::MAX;
                            let v = g.src[ra] as usize;
                            let ndf = du as f64;
                            if ndf < self.t2.dist(v) {
                                self.t2.set(v, ndf, Some(EdgeId::from((ra << 1) | 1)));
                                self.bucket.insert_or_decrease(v, du);
                            }
                        }
                        if !g.slot_enabled[slot] || self.mask_slot.get(slot) {
                            continue;
                        }
                        let v = g.heads[slot] as usize;
                        if self.t1.stamp[v] != self.t1.gen {
                            // Unreachable head: not a residual arc.
                            continue;
                        }
                        // Floating-point noise can push a tight edge to
                        // -epsilon; clamp exactly as the allocating version
                        // does.
                        let red = (g.slot_weight[slot] + d1_u - self.t1.dist(v)).max(0.0);
                        let rk = (red * scale) as u64;
                        let nd = du + rk;
                        let ndf = nd as f64;
                        if ndf < self.t2.dist(v) {
                            let a = g.slot_arc[slot] as usize;
                            self.t2.set(v, ndf, Some(EdgeId::from(a << 1)));
                            self.bucket.insert_or_decrease(v, nd);
                        }
                    }
                    if pending_rev != u32::MAX {
                        let ra = pending_rev as usize;
                        let v = g.src[ra] as usize;
                        let ndf = du as f64;
                        if ndf < self.t2.dist(v) {
                            self.t2.set(v, ndf, Some(EdgeId::from((ra << 1) | 1)));
                            self.bucket.insert_or_decrease(v, du);
                        }
                    }
                }
                for v in 0..n {
                    if self.t2.stamp[v] == self.t2.gen {
                        self.t2.dist[v] *= inv_scale;
                    }
                }
            }
            None => {
                self.heap.ensure_capacity(n);
                self.heap.clear();
                self.t2.set(s.index(), 0.0, None);
                self.heap.insert(s.index(), 0.0);
                while let Some((u, du)) = self.heap.pop_min() {
                    if u == t.index() {
                        break;
                    }
                    let d1_u = self.t1.dist(u);
                    let mut pending_rev = self.rev_at[u];
                    for slot in g.out_range(u) {
                        if (pending_rev as usize) < g.slot_arc[slot] as usize {
                            let ra = pending_rev as usize;
                            pending_rev = u32::MAX;
                            let v = g.src[ra] as usize;
                            if du < self.t2.dist(v) {
                                self.t2.set(v, du, Some(EdgeId::from((ra << 1) | 1)));
                                self.heap.insert_or_decrease(v, du);
                            }
                        }
                        if !g.slot_enabled[slot] || self.mask_slot.get(slot) {
                            continue;
                        }
                        let v = g.heads[slot] as usize;
                        if self.t1.stamp[v] != self.t1.gen {
                            continue;
                        }
                        let red = (g.slot_weight[slot] + d1_u - self.t1.dist(v)).max(0.0);
                        let nd = du + red;
                        if nd < self.t2.dist(v) {
                            let a = g.slot_arc[slot] as usize;
                            self.t2.set(v, nd, Some(EdgeId::from(a << 1)));
                            self.heap.insert_or_decrease(v, nd);
                        }
                    }
                    if pending_rev != u32::MAX {
                        let ra = pending_rev as usize;
                        let v = g.src[ra] as usize;
                        if du < self.t2.dist(v) {
                            self.t2.set(v, du, Some(EdgeId::from((ra << 1) | 1)));
                            self.heap.insert_or_decrease(v, du);
                        }
                    }
                }
            }
        }
        // The overlay is per-request state: clear it before any return.
        for &e in &p1.edges {
            self.rev_at[g.dst[e.index()] as usize] = u32::MAX;
        }
        if !self.t2.reached(t) {
            return None;
        }

        // Interleaving removal straight off the pass-2 predecessor codes:
        // cancel (e, reverse(e)) pairs. The mask currently holds P1's edges
        // and becomes the surviving set.
        let mut at = t.index();
        while at != s.index() {
            let code = self
                .t2
                .pred(at)
                .expect("reached non-source node must have a pred edge")
                .index();
            let (a, rev) = (code >> 1, code & 1 == 1);
            if rev {
                debug_assert!(self.mask.get(a), "reversal of non-P1 edge");
                self.mask.set(a, false);
                at = g.dst[a] as usize;
            } else {
                debug_assert!(!self.mask.get(a), "forward arc duplicates P1 edge");
                self.mask.set(a, true);
                at = g.src[a] as usize;
            }
        }

        // Decompose the surviving edge set into two s->t paths by walking.
        if self.out_lists.len() < n {
            self.out_lists.resize_with(n, Vec::new);
            self.allocs += 1;
        }
        let mut total = 0.0;
        for a in 0..m {
            if self.mask.get(a) {
                self.out_lists[g.src[a] as usize].push(EdgeId::from(a));
                total += g.weight[a];
            }
        }
        let out_lists = &mut self.out_lists;
        let mut walk = || -> Path {
            let mut edges = Vec::new();
            let mut at = s;
            while at != t {
                let e = out_lists[at.index()]
                    .pop()
                    .expect("balanced edge set cannot strand a walk before t");
                edges.push(e);
                at = NodeId::from(g.dst[e.index()] as usize);
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
            self.out_lists.iter().all(|l| l.is_empty()),
            "leftover edges after extracting two paths (zero-cost cycle?)"
        );
        for l in &mut self.out_lists {
            l.clear();
        }
        let mut cost = |e: EdgeId| g.weight[e.index()];
        let (first, second) = if a.cost(&mut cost) <= b.cost(&mut cost) {
            (a, b)
        } else {
            (b, a)
        };
        debug_assert!(!first.shares_edge_with(&second));
        Some(crate::suurballe::DisjointPair {
            paths: [first, second],
            total_cost: total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suurballe::edge_disjoint_pair_filtered;
    use crate::{topology, DiGraph};
    use rand::{Rng, SeedableRng};

    fn random_graph(rng: &mut impl Rng, n: usize, p: f64) -> DiGraph<(), f64> {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        for _ in 0..n {
            g.add_node(());
        }
        for u in 0..n {
            for v in 0..n {
                if u != v && rng.gen_bool(p) {
                    g.add_edge(
                        NodeId::from(u),
                        NodeId::from(v),
                        (rng.gen_range(1..=20) as f64) / 2.0,
                    );
                }
            }
        }
        g
    }

    /// A warmed-up arena serves same-size searches without allocating.
    #[test]
    fn alloc_events_plateau_after_warmup() {
        let mut arena = SearchArena::new();
        let g = topology::ring(24, 1.0);
        let flat = FlatArrays::build(&g, |_| true);
        arena
            .edge_disjoint_pair_flat(&flat.view(), NodeId(0), NodeId(12), || {})
            .unwrap();
        let after_warmup = arena.alloc_events();
        assert!(after_warmup > 0, "first search must grow the buffers");
        for _ in 0..10 {
            arena
                .edge_disjoint_pair_flat(&flat.view(), NodeId(0), NodeId(12), || {})
                .unwrap();
        }
        assert_eq!(arena.alloc_events(), after_warmup);
    }

    /// Owned flat arrays mirroring a `DiGraph<(), f64>` (test scaffolding for
    /// the `FlatView` paths; production views are built by the aux engine).
    struct FlatArrays {
        offsets: Vec<u32>,
        heads: Vec<u32>,
        slot_arc: Vec<u32>,
        arc_slot: Vec<u32>,
        src: Vec<u32>,
        dst: Vec<u32>,
        weight: Vec<f64>,
        slot_weight: Vec<f64>,
        slot_enabled: Vec<bool>,
        key: Vec<u64>,
        max_key: u64,
    }

    const TEST_SHIFT: u32 = 6;

    impl FlatArrays {
        fn build(g: &DiGraph<(), f64>, mut filter: impl FnMut(EdgeId) -> bool) -> Self {
            let n = g.node_count();
            let m = g.edge_count();
            let scale = (1u64 << TEST_SHIFT) as f64;
            let mut f = Self {
                offsets: Vec::with_capacity(n + 1),
                heads: Vec::with_capacity(m),
                slot_arc: Vec::with_capacity(m),
                arc_slot: vec![0; m],
                src: vec![0; m],
                dst: vec![0; m],
                weight: vec![0.0; m],
                slot_weight: vec![0.0; m],
                slot_enabled: vec![false; m],
                key: vec![0; m],
                max_key: 0,
            };
            for v in g.node_ids() {
                f.offsets.push(f.heads.len() as u32);
                for &e in g.out_edges(v) {
                    f.heads.push(g.dst(e).index() as u32);
                    f.slot_arc.push(e.index() as u32);
                }
            }
            f.offsets.push(f.heads.len() as u32);
            for (slot, &a) in f.slot_arc.iter().enumerate() {
                f.arc_slot[a as usize] = slot as u32;
            }
            for e in g.edge_ids() {
                let i = e.index();
                f.src[i] = g.src(e).index() as u32;
                f.dst[i] = g.dst(e).index() as u32;
                f.weight[i] = g.weight(e);
                let enabled = filter(e);
                let k = (g.weight(e) * scale) as u64;
                assert_eq!(k as f64 / scale, g.weight(e), "test weights must be dyadic");
                let slot = f.arc_slot[i] as usize;
                f.slot_weight[slot] = f.weight[i];
                f.slot_enabled[slot] = enabled;
                f.key[slot] = k;
                if enabled {
                    f.max_key = f.max_key.max(k);
                }
            }
            f
        }

        fn view(&self) -> FlatView<'_> {
            FlatView {
                offsets: &self.offsets,
                heads: &self.heads,
                slot_arc: &self.slot_arc,
                arc_slot: &self.arc_slot,
                src: &self.src,
                dst: &self.dst,
                weight: &self.weight,
                slot_weight: &self.slot_weight,
                slot_enabled: &self.slot_enabled,
            }
        }

        fn int(&self) -> IntWeights<'_> {
            IntWeights {
                key: &self.key,
                scale_shift: TEST_SHIFT,
                max_key: self.max_key,
            }
        }
    }

    fn assert_same_pair(
        a: &Option<crate::suurballe::DisjointPair>,
        b: &Option<crate::suurballe::DisjointPair>,
        ctx: &str,
    ) {
        match (a, b) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits(), "{ctx}");
                assert_eq!(a.paths[0].edges, b.paths[0].edges, "{ctx}");
                assert_eq!(a.paths[1].edges, b.paths[1].edges, "{ctx}");
            }
            _ => panic!("{ctx}: feasibility disagrees"),
        }
    }

    /// The flat f64 path and the cold integer/bucket path must both be
    /// bit-identical to the allocating Suurballe over the same graph,
    /// including exact path choice among cost ties.
    #[test]
    fn flat_paths_match_allocating_pair() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xF1A7);
        let mut flat_arena = SearchArena::new();
        let mut int_arena = SearchArena::new();
        for trial in 0..200 {
            let n = rng.gen_range(2..14);
            let g = random_graph(&mut rng, n, 0.3);
            let s = NodeId::from(rng.gen_range(0..n));
            let t = NodeId::from(rng.gen_range(0..n));
            let banned = EdgeId::from(rng.gen_range(0..g.edge_count().max(1)));
            let flat = FlatArrays::build(&g, |e| e != banned);
            let base = edge_disjoint_pair_filtered(&g, s, t, |e| g.weight(e), |e| e != banned);
            let f64_pair = flat_arena.edge_disjoint_pair_flat(&flat.view(), s, t, || {});
            let int_pair =
                int_arena.edge_disjoint_pair_flat_int(&flat.view(), &flat.int(), None, s, t, || {});
            assert_same_pair(&base, &f64_pair, &format!("flat f64, trial {trial}"));
            assert_same_pair(&base, &int_pair, &format!("flat int, trial {trial}"));
        }
    }

    /// Warm restarts preserve the optimal total cost (bit-exactly, thanks to
    /// dyadic weights) and always produce a valid disjoint pair, across
    /// repeated solves with changing endpoints.
    #[test]
    fn warm_potentials_preserve_total_cost() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x3A3A);
        let mut cold_arena = SearchArena::new();
        let mut warm_arena = SearchArena::new();
        for trial in 0..40 {
            let n = rng.gen_range(4..14);
            let g = random_graph(&mut rng, n, 0.4);
            let flat = FlatArrays::build(&g, |_| true);
            let mut pot = Potentials::default();
            for solve in 0..12 {
                let s = NodeId::from(rng.gen_range(0..n));
                let t = NodeId::from(rng.gen_range(0..n));
                let cold = cold_arena.edge_disjoint_pair_flat_int(
                    &flat.view(),
                    &flat.int(),
                    None,
                    s,
                    t,
                    || {},
                );
                let warm = warm_arena.edge_disjoint_pair_flat_int(
                    &flat.view(),
                    &flat.int(),
                    Some(&mut pot),
                    s,
                    t,
                    || {},
                );
                match (&cold, &warm) {
                    (None, None) => {}
                    (Some(c), Some(w)) => {
                        assert_eq!(
                            c.total_cost.to_bits(),
                            w.total_cost.to_bits(),
                            "trial {trial} solve {solve}"
                        );
                        assert!(w.is_edge_disjoint());
                        assert_eq!(w.paths[0].src, s);
                        assert_eq!(w.paths[0].dst, t);
                    }
                    _ => panic!("trial {trial} solve {solve}: feasibility disagrees"),
                }
            }
        }
    }

    /// After the first adoption, repeated warm searches over an unchanged
    /// graph run entirely reduced-key-zero and still agree with cold runs;
    /// the arena also stops allocating once warmed up.
    #[test]
    fn warm_flat_searches_stop_allocating() {
        let g = topology::ring(24, 1.0);
        let flat = FlatArrays::build(&g, |_| true);
        let mut arena = SearchArena::new();
        let mut pot = Potentials::default();
        // Two warm-up solves: the first adopts potentials, the second grows
        // the bucket span to the now-nonzero reduced-key window.
        for _ in 0..2 {
            arena
                .edge_disjoint_pair_flat_int(
                    &flat.view(),
                    &flat.int(),
                    Some(&mut pot),
                    NodeId(0),
                    NodeId(12),
                    || {},
                )
                .unwrap();
        }
        assert!(pot.max > 0, "adoption must record reached distances");
        let after_warmup = arena.alloc_events();
        for i in 0..10 {
            let t = NodeId::from(6 + i);
            arena
                .edge_disjoint_pair_flat_int(
                    &flat.view(),
                    &flat.int(),
                    Some(&mut pot),
                    NodeId(0),
                    t,
                    || {},
                )
                .unwrap();
        }
        assert_eq!(arena.alloc_events(), after_warmup);
    }

    /// Reuse across differently-sized graphs must not leak state.
    #[test]
    fn arena_survives_shrinking_and_growing_graphs() {
        let mut arena = SearchArena::new();
        for &n in &[30usize, 4, 50, 3, 12] {
            let g = topology::ring(n, 1.0);
            let flat = FlatArrays::build(&g, |_| true);
            let t = NodeId::from(n / 2);
            let pair = arena
                .edge_disjoint_pair_flat(&flat.view(), NodeId(0), t, || {})
                .expect("ring always has two disjoint paths");
            assert!(pair.is_edge_disjoint());
            let base =
                edge_disjoint_pair_filtered(&g, NodeId(0), t, |e| g.weight(e), |_| true).unwrap();
            assert_eq!(pair.total_cost, base.total_cost);
        }
    }
}
