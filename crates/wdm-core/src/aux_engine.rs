//! Incremental auxiliary-graph engine: the zero-allocation counterpart of
//! [`AuxGraph::build`](crate::aux_graph::AuxGraph::build).
//!
//! `AuxGraph::build` reconstructs the full auxiliary graph — nodes, arcs,
//! `O(W²)` conversion averages — for every request and every threshold
//! probe. [`AuxEngine`] splits that work by change frequency:
//!
//! * **Skeleton (once per network × spec family).** Edge-nodes for *all*
//!   physical links, their traversal arcs, every conversion arc that could
//!   ever exist (pairs `(e_in, e_out)` with at least one allowed conversion
//!   under the links' *full* wavelength sets — availability only shrinks
//!   those sets, so no other pair can ever appear), and both terminal tap
//!   slots per link. Arcs are laid out in the same relative order as the
//!   scratch builder emits them, which makes the enabled subset a
//!   subsequence of the scratch graph's arc list.
//! * **Weight refresh (per dirty link).** [`ResidualState`] stamps every
//!   mutated link with its monotone change clock; [`AuxEngine::sync`]
//!   recomputes traversal weights, conversion averages and admission only
//!   for links stamped after the engine's last sync. The summation loops are
//!   verbatim copies of the scratch builder's, so refreshed weights are
//!   bit-identical to a from-scratch build.
//! * **Admission mask (per threshold change).** Thresholds affect only
//!   which links are admitted, never any weight, so
//!   [`AuxEngine::set_threshold`] flags the mask for an `O(m)` admission
//!   recompute without touching weights — the fast path for MinCog's
//!   geometric escalation and the exact binary search.
//! * **Tap retargeting (per request).** Changing `(s, t)` flips the enabled
//!   bits of the old and new terminals' tap arcs; nothing else moves.
//!
//! Because disabled arcs are filtered (not removed), searches run over a
//! graph whose enabled arcs appear in the same relative order with the same
//! weights as the scratch graph's arcs, and Dijkstra/Suurballe tie-breaking
//! depends only on that order and the weights — routes are identical, not
//! merely equal-cost (`tests/engine_differential.rs` pins this).
//!
//! ### Staleness contract
//!
//! The engine trusts the state's change clocks. Syncing one engine against
//! *independently mutated clones* of a state can alias clock values and
//! miss updates; call [`AuxEngine::invalidate`] (or use one engine per
//! state lineage) in that situation. Syncing against a state whose clock
//! went *backwards* (a fresh or deserialized state) is detected and handled
//! by a full refresh.

use crate::aux_graph::{AuxArc, AuxNode, AuxSpec, AuxWeights, ThresholdBasis};
use crate::network::{ResidualState, WdmNetwork};
use wdm_graph::suurballe::DisjointPair;
use wdm_graph::{EdgeId, FlatView, IntWeights, NodeId, Path, Potentials, SearchArena};

/// Fixed-point scale for integer weight certification: weights that are
/// exact multiples of `2^-SCALE_SHIFT` get a `u64` key `weight << SCALE_SHIFT`.
/// 1/64 covers every dyadic cost the scratch builder can produce from
/// dyadic link/conversion costs (uniform averages of dyadics with power-of-two
/// divisors stay dyadic); congestion-exponential weights never certify and
/// fall back to the f64 search path.
pub const SCALE_SHIFT: u32 = 6;

/// Upper bound on a certified per-arc key. Keys above this (weights ≥ 1024)
/// de-certify the arc: the bucket queue's span is `max_key + 1 + max π`, so
/// unbounded keys would trade heap ops for unbounded bucket scans — and the
/// exactness argument needs headroom below 2^53 for summed distances.
const KEY_CAP: u64 = 1 << 16;
use wdm_telemetry::{
    CacheOutcome, Counter, Hist, NoopRecorder, NoopTracer, Phase, Recorder, Tracer,
};

/// What one [`AuxEngine::sync`] call actually recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncStats {
    /// Every link's weights were refreshed (first sync, invalidation, or a
    /// state-clock regression).
    pub full: bool,
    /// Number of links whose weights were recomputed this sync.
    pub links_refreshed: u32,
    /// The admission mask was recomputed for all links (threshold change).
    pub remasked: bool,
}

/// One potential conversion arc `v_in^{e_in} → v_out^{e_out}` of the
/// skeleton. Slot `i` is skeleton arc `m + i`.
#[derive(Debug, Clone, Copy)]
struct ConvSlot {
    /// The physical node the conversion happens at.
    node: NodeId,
    /// Incoming physical link.
    ein: EdgeId,
    /// Outgoing physical link.
    eout: EdgeId,
    /// `K_v`: allowed conversion pairs under *current* availability (0 ⇒
    /// the arc is disabled regardless of admission).
    k: u32,
}

/// Aux node id of `s'`. The skeleton numbers its nodes `s'`, `t''`, then
/// `OutNode(e)` = `2 + 2e` and `InNode(e)` = `3 + 2e` for every link `e`.
const SOURCE: u32 = 0;
/// Aux node id of `t''`.
const SINK: u32 = 1;

/// Aux node id of `OutNode(e)`.
#[inline]
fn out_node(e: usize) -> u32 {
    (2 + 2 * e) as u32
}

/// Aux node id of `InNode(e)`.
#[inline]
fn in_node(e: usize) -> u32 {
    (3 + 2 * e) as u32
}

/// The payload an aux node id stands for (inverse of the numbering above).
fn aux_node(v: u32) -> AuxNode {
    match v {
        SOURCE => AuxNode::Source,
        SINK => AuxNode::Sink,
        _ if v & 1 == 0 => AuxNode::OutNode(EdgeId::from((v as usize - 2) / 2)),
        _ => AuxNode::InNode(EdgeId::from((v as usize - 3) / 2)),
    }
}

/// Incremental auxiliary-graph engine. See the module docs.
///
/// The skeleton is held only as CSR arrays. Arc ids follow the scratch
/// builder's emission order: traversal arcs `0..m` in link order, then the
/// conversion arcs in `(v, e_in, e_out)` order, then the `m` source taps,
/// then the `m` sink taps (both in link order).
#[derive(Debug, Clone)]
pub struct AuxEngine {
    spec: AuxSpec,
    /// Number of physical links `m`.
    links: usize,
    /// Physical node count of the network the skeleton was built for.
    nodes: usize,
    /// All potential conversion arcs, in skeleton emission order.
    conv: Vec<ConvSlot>,
    /// Per physical link: indices into `conv` of the slots touching it.
    conv_of_link: Vec<Vec<u32>>,
    /// Per skeleton arc: participates in the current auxiliary graph.
    enabled: Vec<bool>,
    /// Per physical link: admitted under the current state + threshold.
    admitted: Vec<bool>,
    /// State change clock at the last sync.
    synced_clock: u64,
    ever_synced: bool,
    /// Set by [`AuxEngine::set_threshold`]: admission of *every* link must
    /// be recomputed on the next sync.
    mask_stale: bool,
    cur_s: Option<NodeId>,
    cur_t: Option<NodeId>,
    /// Dedupes conversion-weight refreshes when both endpoint links are
    /// dirty in the same sync pass.
    conv_stamp: Vec<u64>,
    pass: u64,

    // ---- CSR layout (the arrays the searches traverse) ----
    /// Row offsets per aux node (`len == node_count + 1`).
    csr_off: Vec<u32>,
    /// Destination aux node per CSR slot.
    csr_head: Vec<u32>,
    /// Skeleton arc id per CSR slot.
    csr_arc: Vec<u32>,
    /// CSR slot per arc id (inverse of `csr_arc`).
    arc_slot: Vec<u32>,
    /// Tail / head aux node per arc id.
    arc_src: Vec<u32>,
    arc_dst: Vec<u32>,
    /// Weight per arc id (meaningful only while the arc is enabled).
    arc_weight: Vec<f64>,
    /// Certified integer key per arc id (valid only while `arc_exact`).
    arc_key: Vec<u64>,
    /// Whether the arc's weight is exactly `arc_key / 2^SCALE_SHIFT`.
    arc_exact: Vec<bool>,
    /// Slot-ordered mirrors of `arc_weight` / `enabled` / `arc_key`: the
    /// relaxation loops walk slots sequentially, so keeping their operands
    /// slot-contiguous spares an indirection per scanned arc.
    slot_weight: Vec<f64>,
    slot_enabled: Vec<bool>,
    slot_key: Vec<u64>,
    /// Number of arcs whose weight failed certification; the integer search
    /// engages only at zero.
    inexact: u32,
    /// Monotone upper bound on certified keys ever written.
    max_key: u64,

    // ---- warm Johnson potentials (opt-in) ----
    /// Whether searches may carry potentials across requests.
    warm: bool,
    /// The carried potentials (empty until the first warm search adopts).
    pot: Potentials,
    /// Arcs whose feasibility constraint may have tightened since the last
    /// repair (weight decrease or disabled→enabled flip).
    pi_events: Vec<u32>,
    /// Worklist buffer for `pi_repair`.
    pi_work: Vec<u32>,
}

impl AuxEngine {
    /// Builds the skeleton for `net` under `spec`. No state is consulted;
    /// call [`AuxEngine::sync`] before searching.
    pub fn new(net: &WdmNetwork, spec: AuxSpec) -> Self {
        let m = net.link_count();
        let mut arc_src: Vec<u32> = Vec::with_capacity(4 * m);
        let mut arc_dst: Vec<u32> = Vec::with_capacity(4 * m);

        // Traversal arcs for every link, in link order — matching the
        // scratch builder's emission order over its admitted subset.
        for e in 0..m {
            arc_src.push(out_node(e));
            arc_dst.push(in_node(e));
        }

        // Potential conversion arcs: same (node, e_in, e_out) loop order as
        // the scratch builder, existence decided on the links' full
        // wavelength sets. Availability is a subset of those sets and the
        // conversion table is static, so a pair with no allowed conversion
        // here can never gain one.
        let mut conv: Vec<ConvSlot> = Vec::new();
        let mut conv_of_link: Vec<Vec<u32>> = vec![Vec::new(); m];
        for v in net.graph().node_ids() {
            let table = net.conversion(v);
            for &ein in net.graph().in_edges(v) {
                let lambda_in = net.lambda(ein);
                for &eout in net.graph().out_edges(v) {
                    let lambda_out = net.lambda(eout);
                    let possible = lambda_in
                        .iter()
                        .any(|la| lambda_out.iter().any(|lb| table.allows(la, lb)));
                    if !possible {
                        continue;
                    }
                    arc_src.push(in_node(ein.index()));
                    arc_dst.push(out_node(eout.index()));
                    let idx = conv.len() as u32;
                    conv.push(ConvSlot {
                        node: v,
                        ein,
                        eout,
                        k: 0,
                    });
                    conv_of_link[ein.index()].push(idx);
                    if eout != ein {
                        conv_of_link[eout.index()].push(idx);
                    }
                }
            }
        }

        // Tap slots for every link; the scratch builder emits source taps
        // (in link order) before sink taps, so both groups stay ordered.
        for e in 0..m {
            arc_src.push(SOURCE);
            arc_dst.push(out_node(e));
        }
        for e in 0..m {
            arc_src.push(in_node(e));
            arc_dst.push(SINK);
        }

        // CSR rows by counting sort over the tails. Filling slots in arc-id
        // order keeps each node's slots in ascending arc id, which is what
        // keeps relaxation order — and every Dijkstra tie — identical to a
        // search over the scratch graph's adjacency lists.
        let edge_count = arc_src.len();
        let conv_count = conv.len();
        let n_aux = 2 * m + 2;
        let mut csr_off = vec![0u32; n_aux + 1];
        for &u in &arc_src {
            csr_off[u as usize + 1] += 1;
        }
        for v in 0..n_aux {
            csr_off[v + 1] += csr_off[v];
        }
        let mut next = csr_off[..n_aux].to_vec();
        let mut csr_head = vec![0u32; edge_count];
        let mut csr_arc = vec![0u32; edge_count];
        let mut arc_slot = vec![0u32; edge_count];
        for a in 0..edge_count {
            let u = arc_src[a] as usize;
            let slot = next[u] as usize;
            next[u] += 1;
            csr_head[slot] = arc_dst[a];
            csr_arc[slot] = a as u32;
            arc_slot[a] = slot as u32;
        }

        Self {
            spec,
            links: m,
            conv,
            conv_of_link,
            enabled: vec![false; edge_count],
            admitted: vec![false; m],
            nodes: net.graph().node_count(),
            synced_clock: 0,
            ever_synced: false,
            mask_stale: false,
            cur_s: None,
            cur_t: None,
            conv_stamp: vec![0; conv_count],
            pass: 0,
            csr_off,
            csr_head,
            csr_arc,
            arc_slot,
            arc_src,
            arc_dst,
            // All skeleton weights start at 0.0 == key 0, which certifies.
            arc_weight: vec![0.0; edge_count],
            arc_key: vec![0; edge_count],
            arc_exact: vec![true; edge_count],
            slot_weight: vec![0.0; edge_count],
            slot_enabled: vec![false; edge_count],
            slot_key: vec![0; edge_count],
            inexact: 0,
            max_key: 0,
            warm: false,
            pot: Potentials::default(),
            pi_events: Vec::new(),
            pi_work: Vec::new(),
        }
    }

    /// Number of aux nodes (`2m + 2`).
    #[inline]
    fn node_count(&self) -> usize {
        self.csr_off.len() - 1
    }

    /// Arc id of link `e`'s source tap `s' → OutNode(e)`.
    #[inline]
    fn src_tap(&self, e: usize) -> usize {
        self.links + self.conv.len() + e
    }

    /// Arc id of link `e`'s sink tap `InNode(e) → t''`.
    #[inline]
    fn dst_tap(&self, e: usize) -> usize {
        2 * self.links + self.conv.len() + e
    }

    /// The role of skeleton arc `a`, read off the id layout.
    fn arc_kind(&self, a: usize) -> AuxArc {
        if a < self.links {
            AuxArc::Traversal(EdgeId::from(a))
        } else if a < self.links + self.conv.len() {
            AuxArc::Conversion(self.conv[a - self.links].node)
        } else {
            AuxArc::Tap
        }
    }

    /// Whether this engine's skeleton was built for (a network shaped like)
    /// `net`. A cheap guard, not a content hash: use one engine per network.
    pub fn matches(&self, net: &WdmNetwork) -> bool {
        (self.nodes, self.links) == (net.graph().node_count(), net.link_count())
    }

    /// The active spec (threshold updates via [`AuxEngine::set_threshold`]
    /// are reflected here).
    pub fn spec(&self) -> AuxSpec {
        self.spec
    }

    /// Updates the admission threshold. Weights are unaffected by `ϑ`, so
    /// this only marks the admission mask stale; the next [`AuxEngine::sync`]
    /// recomputes admission for all links in `O(m)` without touching any
    /// `O(W²)` conversion sum.
    pub fn set_threshold(&mut self, threshold: Option<f64>) {
        if self.spec.threshold != threshold {
            self.spec.threshold = threshold;
            self.mask_stale = true;
        }
    }

    /// Forgets all synced state, forcing the next [`AuxEngine::sync`] to do
    /// a full refresh. Required when switching the engine to a different
    /// [`ResidualState`] *lineage* (e.g. an independently mutated clone)
    /// whose change clocks may alias the previous one's.
    pub fn invalidate(&mut self) {
        self.ever_synced = false;
    }

    /// Brings the engine in line with `state` and the request `(s, t)`:
    /// refreshes weights and admission of links mutated since the last
    /// sync (all links on first use, after [`AuxEngine::invalidate`], or
    /// when the state's clock moved backwards), reapplies the admission
    /// mask if the threshold changed, and retargets the terminal taps.
    /// Returns what was recomputed (telemetry's cache-outcome signal).
    pub fn sync(
        &mut self,
        net: &WdmNetwork,
        state: &ResidualState,
        s: NodeId,
        t: NodeId,
    ) -> SyncStats {
        debug_assert!(self.matches(net), "engine used with a different network");
        let full = !self.ever_synced || state.change_clock() < self.synced_clock;
        let mut stats = SyncStats {
            full,
            links_refreshed: 0,
            remasked: self.mask_stale,
        };
        // A full refresh or a whole-mask recompute floods the engine with
        // weight/enable transitions; carrying potentials across one would
        // require trusting the very bookkeeping the reset discards. The
        // all-zero potential is always feasible, so reset (satellite of the
        // `ResidualState`-clock-restart hazard: all-dirty ⇒ full π rebuild).
        let reset_pi = self.warm && (full || self.mask_stale);
        if full || self.mask_stale || state.change_clock() != self.synced_clock {
            self.pass += 1;
            let m = net.link_count();
            for ei in 0..m {
                let e = EdgeId::from(ei);
                let dirty = full || state.link_change_clock(e) > self.synced_clock;
                if dirty {
                    self.refresh_weights(net, state, e);
                    stats.links_refreshed += 1;
                }
                if dirty || self.mask_stale {
                    self.refresh_admission(net, state, e);
                }
            }
            self.mask_stale = false;
            self.synced_clock = state.change_clock();
            self.ever_synced = true;
        }
        if self.warm {
            if reset_pi || self.inexact > 0 {
                self.pot.reset(self.node_count());
                self.pi_events.clear();
            } else {
                self.pi_repair();
            }
        }
        self.retarget(net, s, t);
        stats
    }

    /// Writes the weight of arc `i` into both the arc-indexed and the
    /// slot-ordered arrays, maintaining the integer certification and (when
    /// warm) the potential feasibility event queue.
    fn set_arc_weight(&mut self, i: usize, w: f64) {
        let old = self.arc_weight[i];
        self.arc_weight[i] = w;
        let slot = self.arc_slot[i] as usize;
        self.slot_weight[slot] = w;
        let scaled = w * (1u64 << SCALE_SHIFT) as f64;
        // NaN/negative/huge all fail one of these (NaN.fract() is NaN).
        let exact = scaled >= 0.0 && scaled <= KEY_CAP as f64 && scaled.fract() == 0.0;
        if exact {
            let key = scaled as u64;
            self.arc_key[i] = key;
            self.slot_key[slot] = key;
            if key > self.max_key {
                self.max_key = key;
            }
        }
        if exact != self.arc_exact[i] {
            self.arc_exact[i] = exact;
            if exact {
                self.inexact -= 1;
            } else {
                self.inexact += 1;
            }
        }
        if self.warm && w < old {
            // A weight decrease can break π(v) ≤ π(u) + w.
            self.pi_events.push(i as u32);
        }
    }

    /// Recomputes the traversal weight of `e` and the conversion weights of
    /// every arc touching `e`, with the scratch builder's exact formulas
    /// (same summation loops ⇒ bit-identical results).
    fn refresh_weights(&mut self, net: &WdmNetwork, state: &ResidualState, e: EdgeId) {
        let ei = e.index();
        let avail = state.avail(net, e);
        let weight = if avail.is_empty() {
            // Never enabled (empty availability fails admission under every
            // threshold); avoid the 0/0 in the average formulas.
            0.0
        } else {
            match self.spec.weights {
                AuxWeights::AverageCost => {
                    avail.iter().map(|l| net.link_cost(e, l)).sum::<f64>() / avail.count() as f64
                }
                AuxWeights::AverageCostOverN => {
                    avail.iter().map(|l| net.link_cost(e, l)).sum::<f64>() / net.capacity(e) as f64
                }
                AuxWeights::CongestionExp { a } => {
                    let n = net.capacity(e) as f64;
                    let u = state.used_count(e) as f64;
                    a.powf((u + 1.0) / n) - a.powf(u / n)
                }
            }
        };
        self.set_arc_weight(ei, weight);
        for i in 0..self.conv_of_link[ei].len() {
            let ci = self.conv_of_link[ei][i] as usize;
            if self.conv_stamp[ci] != self.pass {
                self.conv_stamp[ci] = self.pass;
                self.refresh_conv(net, state, ci);
            }
        }
    }

    /// Recomputes one conversion arc's `K_v` and average cost.
    fn refresh_conv(&mut self, net: &WdmNetwork, state: &ResidualState, ci: usize) {
        let slot = self.conv[ci];
        let table = net.conversion(slot.node);
        let avail_in = state.avail(net, slot.ein);
        let avail_out = state.avail(net, slot.eout);
        let mut total = 0.0;
        let mut k = 0usize;
        for la in avail_in.iter() {
            for lb in avail_out.iter() {
                if let Some(c) = table.cost(la, lb) {
                    total += c;
                    k += 1;
                }
            }
        }
        self.conv[ci].k = k as u32;
        if k > 0 {
            let w = match self.spec.weights {
                AuxWeights::CongestionExp { .. } => 0.0,
                _ => total / k as f64,
            };
            self.set_arc_weight(self.links + ci, w);
        }
        self.update_conv_enabled(ci);
    }

    /// Writes an arc's enabled bit into both the arc-indexed array and its
    /// slot-ordered mirror.
    #[inline]
    fn set_enabled(&mut self, idx: usize, en: bool) {
        self.enabled[idx] = en;
        self.slot_enabled[self.arc_slot[idx] as usize] = en;
    }

    /// Recomputes admission of `e` and the enabled bits of the arcs that
    /// depend on it.
    fn refresh_admission(&mut self, net: &WdmNetwork, state: &ResidualState, e: EdgeId) {
        let ei = e.index();
        let adm = if state.avail(net, e).is_empty() {
            false
        } else {
            match (self.spec.threshold, self.spec.basis) {
                (None, _) => true,
                (Some(th), ThresholdBasis::CurrentLoad) => state.load(net, e) < th - 1e-12,
                (Some(th), ThresholdBasis::ProspectiveLoad) => {
                    state.prospective_load(net, e) <= th + 1e-12
                }
            }
        };
        self.admitted[ei] = adm;
        // Link `e`'s traversal arc has arc id `e`.
        if self.warm && adm && !self.enabled[ei] {
            // Newly enabled arc: its feasibility constraint comes into force.
            self.pi_events.push(ei as u32);
        }
        self.set_enabled(ei, adm);
        // Tap constraints are re-derived from scratch each warm solve
        // (`warm_prepare`), so their flips need no events.
        let src_en = adm && self.cur_s == Some(net.graph().src(e));
        self.set_enabled(self.src_tap(ei), src_en);
        let dst_en = adm && self.cur_t == Some(net.graph().dst(e));
        self.set_enabled(self.dst_tap(ei), dst_en);
        for i in 0..self.conv_of_link[ei].len() {
            let ci = self.conv_of_link[ei][i] as usize;
            self.update_conv_enabled(ci);
        }
    }

    /// A conversion arc participates iff both endpoint links are admitted
    /// and at least one conversion is allowed under current availability.
    fn update_conv_enabled(&mut self, ci: usize) {
        let slot = self.conv[ci];
        let en = slot.k > 0 && self.admitted[slot.ein.index()] && self.admitted[slot.eout.index()];
        let idx = self.links + ci;
        if self.warm && en && !self.enabled[idx] {
            self.pi_events.push(idx as u32);
        }
        self.set_enabled(idx, en);
    }

    /// Moves the terminal taps to `(s, t)`.
    fn retarget(&mut self, net: &WdmNetwork, s: NodeId, t: NodeId) {
        if self.cur_s != Some(s) {
            if let Some(old) = self.cur_s {
                for &e in net.graph().out_edges(old) {
                    self.set_enabled(self.src_tap(e.index()), false);
                }
            }
            for &e in net.graph().out_edges(s) {
                self.set_enabled(self.src_tap(e.index()), self.admitted[e.index()]);
            }
            self.cur_s = Some(s);
        }
        if self.cur_t != Some(t) {
            if let Some(old) = self.cur_t {
                for &e in net.graph().in_edges(old) {
                    self.set_enabled(self.dst_tap(e.index()), false);
                }
            }
            for &e in net.graph().in_edges(t) {
                self.set_enabled(self.dst_tap(e.index()), self.admitted[e.index()]);
            }
            self.cur_t = Some(t);
        }
    }

    /// Restores the potential feasibility invariant after queued weight
    /// decreases / arc enables by propagating upper-bound decreases forward
    /// along the CSR (lowering `π(v)` can only break constraints on arcs
    /// *out of* `v`). Budgeted: a change burst whose repair would cost more
    /// than a few sweeps resets to the all-zero potential instead — always
    /// feasible, merely cold.
    fn pi_repair(&mut self) {
        if self.pi_events.is_empty() {
            return;
        }
        if self.pot.pi.is_empty() {
            // Nothing adopted yet; zeros are feasible under any weights.
            self.pi_events.clear();
            return;
        }
        let n = self.node_count();
        debug_assert_eq!(self.pot.pi.len(), n);
        for k in 0..self.pi_events.len() {
            let a = self.pi_events[k] as usize;
            if !self.enabled[a] {
                continue;
            }
            let (u, v) = (self.arc_src[a] as usize, self.arc_dst[a] as usize);
            let bound = self.pot.pi[u] + self.arc_key[a];
            if self.pot.pi[v] > bound {
                self.pot.pi[v] = bound;
                self.pi_work.push(v as u32);
            }
        }
        self.pi_events.clear();
        let mut budget = 4 * n as u64;
        while let Some(x) = self.pi_work.pop() {
            let x = x as usize;
            for slot in self.csr_off[x] as usize..self.csr_off[x + 1] as usize {
                if budget == 0 {
                    self.pi_work.clear();
                    self.pot.reset(n);
                    return;
                }
                budget -= 1;
                let a = self.csr_arc[slot] as usize;
                if !self.enabled[a] {
                    continue;
                }
                let v = self.csr_head[slot] as usize;
                let bound = self.pot.pi[x] + self.arc_key[a];
                if self.pot.pi[v] > bound {
                    self.pot.pi[v] = bound;
                    self.pi_work.push(v as u32);
                }
            }
        }
    }

    /// Re-derives the terminal potentials for the current `(s, t)` taps.
    /// The aux source has no in-arcs, so *raising* `π(source)` to the max
    /// enabled src-tap head keeps every constraint satisfiable without
    /// cascading; symmetrically the sink has no out-arcs, so *lowering*
    /// `π(sink)` to the min enabled dst-tap tail is safe. Call after
    /// [`AuxEngine::sync`] and before a warm search.
    pub fn warm_prepare(&mut self, net: &WdmNetwork) {
        if !self.warm || self.pot.pi.is_empty() {
            return;
        }
        let (Some(s), Some(t)) = (self.cur_s, self.cur_t) else {
            return;
        };
        let mut ps = 0u64;
        for &e in net.graph().out_edges(s) {
            let tap = self.src_tap(e.index());
            if self.enabled[tap] {
                ps = ps.max(self.pot.pi[self.arc_dst[tap] as usize]);
            }
        }
        self.pot.pi[SOURCE as usize] = ps;
        let mut pt = u64::MAX;
        for &e in net.graph().in_edges(t) {
            let tap = self.dst_tap(e.index());
            if self.enabled[tap] {
                pt = pt.min(self.pot.pi[self.arc_src[tap] as usize]);
            }
        }
        // No enabled dst tap ⇒ the sink has no in-arcs at all, so its
        // potential is unconstrained.
        self.pot.pi[SINK as usize] = if pt == u64::MAX { 0 } else { pt };
    }

    /// Opts this engine in/out of carrying Johnson potentials across
    /// requests (off by default). Warm starts keep every total cost
    /// bit-identical under certified integer weights but may select a
    /// different equal-cost optimum, so differential oracles leave this off.
    pub fn set_warm_potentials(&mut self, on: bool) {
        if self.warm != on {
            self.warm = on;
            self.pot = Potentials::default();
            self.pi_events.clear();
            self.pi_work.clear();
        }
    }

    /// Whether warm potentials are enabled.
    #[inline]
    pub fn warm_potentials(&self) -> bool {
        self.warm
    }

    /// The carried potentials (test observability).
    pub fn potentials(&self) -> &Potentials {
        &self.pot
    }

    /// Whether every arc weight currently certifies as an exact multiple of
    /// `2^-SCALE_SHIFT` within the key cap — the precondition for the
    /// integer/bucket search path.
    #[inline]
    pub fn int_certified(&self) -> bool {
        self.inexact == 0
    }

    /// Split-borrow accessor for the search call: the flat view and (when
    /// certified) the integer keys, alongside a mutable borrow of the
    /// potentials for warm adoption.
    pub fn flat_parts(&mut self) -> (FlatView<'_>, Option<IntWeights<'_>>, &mut Potentials) {
        let int = (self.inexact == 0).then_some(IntWeights {
            key: &self.slot_key,
            scale_shift: SCALE_SHIFT,
            max_key: self.max_key,
        });
        let view = FlatView {
            offsets: &self.csr_off,
            heads: &self.csr_head,
            slot_arc: &self.csr_arc,
            arc_slot: &self.arc_slot,
            src: &self.arc_src,
            dst: &self.arc_dst,
            weight: &self.arc_weight,
            slot_weight: &self.slot_weight,
            slot_enabled: &self.slot_enabled,
        };
        (view, int, &mut self.pot)
    }

    /// `s'`.
    #[inline]
    pub fn source(&self) -> NodeId {
        NodeId(SOURCE)
    }

    /// `t''`.
    #[inline]
    pub fn sink(&self) -> NodeId {
        NodeId(SINK)
    }

    /// The enabled arcs in arc-id order, each as `(tail, head, kind,
    /// weight)`: the form in which they are comparable with the arcs of a
    /// scratch [`AuxGraph`](crate::aux_graph::AuxGraph) build, whose arc
    /// list they must equal in order and weight bits.
    pub fn enabled_arcs(&self) -> impl Iterator<Item = (AuxNode, AuxNode, AuxArc, f64)> + '_ {
        (0..self.enabled.len())
            .filter(|&a| self.enabled[a])
            .map(|a| {
                (
                    aux_node(self.arc_src[a]),
                    aux_node(self.arc_dst[a]),
                    self.arc_kind(a),
                    self.arc_weight[a],
                )
            })
    }

    /// Maps a path over the skeleton back to the physical links it
    /// traverses (in order): arc id `e < m` is the traversal of link `e`.
    pub fn physical_edges(&self, path: &Path) -> Vec<EdgeId> {
        path.edges
            .iter()
            .copied()
            .filter(|ae| ae.index() < self.links)
            .collect()
    }

    /// Number of links admitted at the last sync.
    pub fn admitted_links(&self) -> usize {
        self.admitted.iter().filter(|&&a| a).count()
    }
}

/// Per-request accumulator of what the engines and searches did, reset by
/// [`RouterCtx::begin_request`]. One request can issue many disjoint-pair
/// searches (threshold probes), so these are sums over the request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestStats {
    /// Auxiliary-graph skeletons built from scratch.
    pub skeleton_builds: u32,
    /// Engine syncs that refreshed every link's weights.
    pub full_refreshes: u32,
    /// Engine syncs that refreshed only dirty links.
    pub dirty_refreshes: u32,
    /// Total links refreshed across the dirty syncs.
    pub dirty_links: u32,
    /// Engine syncs with nothing to recompute (pure skeleton reuse).
    pub fast_syncs: u32,
    /// Suurballe searches executed.
    pub searches: u32,
    /// Wall-clock nanoseconds spent inside those searches (sync + Suurballe).
    pub search_ns: u64,
}

impl RequestStats {
    /// Collapses the request's engine activity into the trace taxonomy.
    pub fn cache_outcome(&self) -> CacheOutcome {
        if self.skeleton_builds > 0 || self.full_refreshes > 0 {
            CacheOutcome::FullRebuild
        } else if self.dirty_refreshes > 0 {
            CacheOutcome::DirtyRefresh {
                links: self.dirty_links,
            }
        } else {
            CacheOutcome::SkeletonReuse
        }
    }
}

/// Persistent routing context: one engine per auxiliary-graph family plus
/// the shared [`SearchArena`]. Hold one of these per network wherever
/// requests are routed repeatedly (the simulator owns one per run) and the
/// skeleton/refresh machinery amortises across every request; one-shot
/// entry points create a throwaway context internally.
///
/// The context is generic over a [`Recorder`] and a [`Tracer`]. The
/// defaults [`NoopRecorder`] / [`NoopTracer`] monomorphise all
/// instrumentation away (every recording site is gated on an
/// `#[inline(always)] false` `enabled()`), so the uninstrumented hot path
/// is unchanged; [`RouterCtx::with_recorder`] swaps in a live recorder
/// such as `&wdm_telemetry::TelemetrySink`, and
/// [`RouterCtx::with_recorder_and_tracer`] additionally attaches a span
/// buffer that times the pipeline phases (aux refresh, the two Suurballe
/// passes, physical map-back, refinement) per request.
#[derive(Debug, Clone, Default)]
pub struct RouterCtx<R: Recorder = NoopRecorder, T: Tracer = NoopTracer> {
    /// Reusable Dijkstra/Suurballe buffers.
    pub arena: SearchArena,
    recorder: R,
    tracer: T,
    stats: RequestStats,
    /// Arena alloc-event total at the last [`RouterCtx::begin_request`].
    arena_allocs_at_begin: u64,
    g_prime: Option<AuxEngine>,
    g_c: Option<AuxEngine>,
    g_c_prospective: Option<AuxEngine>,
    g_rc: Option<AuxEngine>,
    g_rc_printed: Option<AuxEngine>,
    /// Opt-in: engines carry Johnson potentials across requests.
    warm: bool,
    /// MinCog warm-start memory: `(residual epoch, accepted ladder index)`
    /// of the last §4.1 threshold search (see `mincog::find_two_paths_mincog_ctx`).
    pub(crate) mincog_warm: Option<(u64, u32)>,
}

impl RouterCtx {
    /// An uninstrumented context (the [`NoopRecorder`] / [`NoopTracer`]
    /// defaults).
    pub fn new() -> Self {
        Self::default()
    }
}

impl<R: Recorder> RouterCtx<R, NoopTracer> {
    /// A context whose searches report into `recorder` (no span tracing).
    pub fn with_recorder(recorder: R) -> Self {
        Self::with_recorder_and_tracer(recorder, NoopTracer)
    }
}

impl<R: Recorder, T: Tracer> RouterCtx<R, T> {
    /// A context whose searches report into `recorder` and whose pipeline
    /// phases are timed into `tracer`.
    pub fn with_recorder_and_tracer(recorder: R, tracer: T) -> Self {
        Self {
            arena: SearchArena::new(),
            recorder,
            tracer,
            stats: RequestStats::default(),
            arena_allocs_at_begin: 0,
            g_prime: None,
            g_c: None,
            g_c_prospective: None,
            g_rc: None,
            g_rc_printed: None,
            warm: false,
            mincog_warm: None,
        }
    }

    /// Opts every engine in this context into warm Johnson potentials
    /// (off by default). Warm starts never change a pair's total cost under
    /// the certified integer weights, but may pick a different equal-cost
    /// optimum — leave off when exact route reproducibility against a cold
    /// context matters.
    pub fn set_warm_potentials(&mut self, on: bool) {
        self.warm = on;
        for e in [
            &mut self.g_prime,
            &mut self.g_c,
            &mut self.g_c_prospective,
            &mut self.g_rc,
            &mut self.g_rc_printed,
        ]
        .into_iter()
        .flatten()
        {
            e.set_warm_potentials(on);
        }
    }

    /// A cheap clone for a speculative worker: engines and arena buffers are
    /// carried over (skeletons stay warm), but every engine is invalidated
    /// so the first sync against the worker's snapshot re-weights from that
    /// state instead of trusting the parent's change clocks, and warm-start
    /// memory tied to the parent's lineage is dropped. A live span buffer
    /// clones *empty* (sharing the clock domain), so the worker records its
    /// own spans from ordinal zero.
    pub fn fork(&self) -> Self
    where
        R: Clone,
        T: Clone,
    {
        let mut ctx = self.clone();
        ctx.invalidate();
        ctx
    }

    /// The attached recorder.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// The attached tracer.
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Resets the per-request accumulator. Call once per request before
    /// routing; [`RouterCtx::request_stats`] then describes that request.
    pub fn begin_request(&mut self) {
        self.stats = RequestStats::default();
        self.arena_allocs_at_begin = self.arena.alloc_events();
    }

    /// Engine/search activity since the last [`RouterCtx::begin_request`].
    pub fn request_stats(&self) -> RequestStats {
        self.stats
    }

    /// Arena buffer-growth events since the last
    /// [`RouterCtx::begin_request`].
    pub fn request_arena_allocs(&self) -> u64 {
        self.arena.alloc_events() - self.arena_allocs_at_begin
    }

    /// Invalidates every held engine (see [`AuxEngine::invalidate`]). Call
    /// when reusing the context across independent [`ResidualState`]
    /// lineages.
    pub fn invalidate(&mut self) {
        for e in [
            &mut self.g_prime,
            &mut self.g_c,
            &mut self.g_c_prospective,
            &mut self.g_rc,
            &mut self.g_rc_printed,
        ]
        .into_iter()
        .flatten()
        {
            e.invalidate();
        }
        // Warm-start memory keys on a change clock that is only meaningful
        // within one lineage.
        self.mincog_warm = None;
    }

    /// The engine for `spec`'s family (building it on first use or after a
    /// network change) with its threshold set. Slot selection and (re)build
    /// run over the five engine slots borrowed
    /// individually so callers can keep disjoint borrows of the context's
    /// other fields (arena, tracer) alive alongside the returned engine.
    fn engine_slot<'a>(
        g_prime: &'a mut Option<AuxEngine>,
        g_c: &'a mut Option<AuxEngine>,
        g_c_prospective: &'a mut Option<AuxEngine>,
        g_rc: &'a mut Option<AuxEngine>,
        g_rc_printed: &'a mut Option<AuxEngine>,
        net: &WdmNetwork,
        spec: AuxSpec,
    ) -> (&'a mut AuxEngine, bool) {
        let slot = match (spec.weights, spec.basis) {
            (AuxWeights::AverageCost, _) if spec.threshold.is_none() => g_prime,
            (AuxWeights::AverageCost, _) => g_rc,
            (AuxWeights::AverageCostOverN, _) => g_rc_printed,
            (AuxWeights::CongestionExp { .. }, ThresholdBasis::CurrentLoad) => g_c,
            (AuxWeights::CongestionExp { .. }, ThresholdBasis::ProspectiveLoad) => g_c_prospective,
        };
        let reuse = slot.as_ref().is_some_and(|eng| {
            eng.matches(net) && eng.spec().weights == spec.weights && eng.spec().basis == spec.basis
        });
        if !reuse {
            *slot = Some(AuxEngine::new(net, spec));
        }
        let eng = slot.as_mut().expect("just ensured");
        eng.set_threshold(spec.threshold);
        (eng, !reuse)
    }

    /// Syncs the engine for `spec` and runs Suurballe over the enabled
    /// skeleton. Returns the auxiliary pair and both legs' physical edges.
    pub(crate) fn disjoint_pair(
        &mut self,
        net: &WdmNetwork,
        state: &ResidualState,
        s: NodeId,
        t: NodeId,
        spec: AuxSpec,
    ) -> Option<(DisjointPair, [Vec<EdgeId>; 2])> {
        let enabled = self.recorder.enabled();
        let start = enabled.then(std::time::Instant::now);
        let RouterCtx {
            arena,
            tracer,
            g_prime,
            g_c,
            g_c_prospective,
            g_rc,
            g_rc_printed,
            warm,
            ..
        } = &mut *self;
        // The refresh span opens before engine selection: a cold slot
        // builds its whole skeleton here, and that cost belongs to
        // `AuxRefresh`, not to an attribution gap.
        let tracing = tracer.enabled();
        let sync_t0 = tracer.now_ns();
        let (eng, built) =
            Self::engine_slot(g_prime, g_c, g_c_prospective, g_rc, g_rc_printed, net, spec);
        eng.set_warm_potentials(*warm);
        let sync = eng.sync(net, state, s, t);
        eng.warm_prepare(net);
        if tracing {
            tracer.record(Phase::AuxRefresh, sync_t0);
        }
        let source = eng.source();
        let sink = eng.sink();
        let p1_t0 = tracer.now_ns();
        // The staged callback fires between the two Suurballe passes; it
        // closes the pass-1 span and opens the pass-2 stamp. If pass 1
        // fails (t unreachable) it never fires and neither span records.
        let mut p2_t0 = None;
        // The searches run over the engine's CSR arrays: the bucket-queue
        // integer path when every weight certifies as dyadic (bit-identical
        // to the f64 path), the flat f64 d-ary path otherwise.
        let (view, int, pot) = eng.flat_parts();
        let warm_pot = if *warm { Some(pot) } else { None };
        let pair_opt = match int {
            Some(iw) => {
                arena.edge_disjoint_pair_flat_int(&view, &iw, warm_pot, source, sink, || {
                    if tracing {
                        tracer.record(Phase::SuurballeP1, p1_t0);
                        p2_t0 = Some(tracer.now_ns());
                    }
                })
            }
            None => arena.edge_disjoint_pair_flat(&view, source, sink, || {
                if tracing {
                    tracer.record(Phase::SuurballeP1, p1_t0);
                    p2_t0 = Some(tracer.now_ns());
                }
            }),
        };
        if tracing && p2_t0.is_none() {
            // The staged callback never fired: pass 1 ran to exhaustion
            // and found no path. The failed search is still pass-1 work.
            tracer.record(Phase::SuurballeP1, p1_t0);
        }
        let eng: &AuxEngine = eng;
        let result = pair_opt.map(|pair| {
            if let Some(t0) = p2_t0.take() {
                tracer.record(Phase::SuurballeP2, t0);
            }
            let mb_t0 = tracer.now_ns();
            let phys_a = eng.physical_edges(&pair.paths[0]);
            let phys_b = eng.physical_edges(&pair.paths[1]);
            if tracing {
                tracer.record(Phase::MapBack, mb_t0);
            }
            (pair, [phys_a, phys_b])
        });
        if let Some(t0) = p2_t0 {
            // Pass 2 ran but found no second path: still attribute it.
            tracer.record(Phase::SuurballeP2, t0);
        }
        if enabled {
            self.record_search(built, sync, start);
        }
        result
    }

    /// Cold path: folds one search's engine activity into the counters and
    /// the per-request accumulator. Only called when the recorder is live.
    fn record_search(&mut self, built: bool, sync: SyncStats, start: Option<std::time::Instant>) {
        let r = &self.recorder;
        let s = &mut self.stats;
        r.add(Counter::SuurballeSearches, 1);
        s.searches += 1;
        if built {
            r.add(Counter::EngineSkeletonBuilds, 1);
            s.skeleton_builds += 1;
        }
        if sync.full {
            r.add(Counter::EngineFullRefreshes, 1);
            s.full_refreshes += 1;
        } else if sync.links_refreshed > 0 {
            r.add(Counter::EngineDirtyRefreshes, 1);
            r.add(
                Counter::EngineDirtyLinksRefreshed,
                sync.links_refreshed as u64,
            );
            s.dirty_refreshes += 1;
            s.dirty_links += sync.links_refreshed;
        } else {
            r.add(Counter::EngineFastSyncs, 1);
            s.fast_syncs += 1;
        }
        if let Some(t0) = start {
            let ns = t0.elapsed().as_nanos() as u64;
            r.observe(Hist::SearchNanos, ns);
            s.search_ns += ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aux_graph::AuxGraph;
    use crate::conversion::ConversionTable;
    use crate::network::NetworkBuilder;
    use crate::wavelength::{Wavelength, WavelengthSet};

    fn fig1_like() -> WdmNetwork {
        let mut b = NetworkBuilder::new(3);
        let n: Vec<_> = (0..4)
            .map(|_| b.add_node(ConversionTable::Full { cost: 1.0 }))
            .collect();
        b.add_link_with(n[0], n[1], 2.0, WavelengthSet::from_indices(&[0, 1]));
        b.add_link_with(n[1], n[3], 2.0, WavelengthSet::from_indices(&[1, 2]));
        b.add_link_with(n[0], n[2], 3.0, WavelengthSet::from_indices(&[0]));
        b.add_link_with(n[2], n[3], 3.0, WavelengthSet::from_indices(&[2]));
        b.add_link_with(n[1], n[2], 1.0, WavelengthSet::from_indices(&[0, 1, 2]));
        b.build()
    }

    /// Collects (tail, head, kind, weight-bits) of every enabled / existing
    /// arc — the canonical form both constructions must agree on.
    fn canon_engine(eng: &AuxEngine) -> Vec<(AuxNode, AuxNode, AuxArc, u64)> {
        eng.enabled_arcs()
            .map(|(s, t, kind, w)| (s, t, kind, w.to_bits()))
            .collect()
    }

    fn canon_scratch(aux: &AuxGraph) -> Vec<(AuxNode, AuxNode, AuxArc, u64)> {
        aux.graph
            .edge_ids()
            .map(|e| {
                let d = aux.graph.edge(e);
                let s = *aux.graph.node(aux.graph.src(e));
                let t = *aux.graph.node(aux.graph.dst(e));
                (s, t, d.kind, d.weight.to_bits())
            })
            .collect()
    }

    fn assert_equiv(
        net: &WdmNetwork,
        state: &ResidualState,
        eng: &mut AuxEngine,
        s: NodeId,
        t: NodeId,
        spec: AuxSpec,
    ) {
        eng.sync(net, state, s, t);
        let scratch = AuxGraph::build(net, state, s, t, spec);
        assert_eq!(eng.admitted_links(), scratch.admitted_links());
        assert_eq!(canon_engine(eng), canon_scratch(&scratch));
    }

    #[test]
    fn engine_matches_scratch_across_mutations() {
        let net = fig1_like();
        let mut st = ResidualState::fresh(&net);
        let spec = AuxSpec::g_prime();
        let mut eng = AuxEngine::new(&net, spec);
        let (s, t) = (NodeId(0), NodeId(3));
        assert_equiv(&net, &st, &mut eng, s, t, spec);

        st.occupy(&net, EdgeId(0), Wavelength(1)).unwrap();
        assert_equiv(&net, &st, &mut eng, s, t, spec);

        st.occupy(&net, EdgeId(2), Wavelength(0)).unwrap(); // drops e2
        assert_equiv(&net, &st, &mut eng, s, t, spec);

        st.fail_link(EdgeId(4));
        assert_equiv(&net, &st, &mut eng, s, t, spec);

        st.repair_link(EdgeId(4));
        st.release(EdgeId(2), Wavelength(0)).unwrap();
        assert_equiv(&net, &st, &mut eng, s, t, spec);
    }

    #[test]
    fn retargeting_moves_taps() {
        let net = fig1_like();
        let st = ResidualState::fresh(&net);
        let spec = AuxSpec::g_prime();
        let mut eng = AuxEngine::new(&net, spec);
        assert_equiv(&net, &st, &mut eng, NodeId(0), NodeId(3), spec);
        assert_equiv(&net, &st, &mut eng, NodeId(1), NodeId(2), spec);
        assert_equiv(&net, &st, &mut eng, NodeId(0), NodeId(3), spec);
    }

    #[test]
    fn threshold_updates_re_mask_without_weight_churn() {
        let net = fig1_like();
        let mut st = ResidualState::fresh(&net);
        st.occupy(&net, EdgeId(4), Wavelength(0)).unwrap(); // load 1/3
        let mut eng = AuxEngine::new(&net, AuxSpec::g_c(2.0, 0.3));
        assert_equiv(
            &net,
            &st,
            &mut eng,
            NodeId(0),
            NodeId(3),
            AuxSpec::g_c(2.0, 0.3),
        );
        eng.set_threshold(Some(0.5));
        assert_equiv(
            &net,
            &st,
            &mut eng,
            NodeId(0),
            NodeId(3),
            AuxSpec::g_c(2.0, 0.5),
        );
        eng.set_threshold(Some(0.3));
        assert_equiv(
            &net,
            &st,
            &mut eng,
            NodeId(0),
            NodeId(3),
            AuxSpec::g_c(2.0, 0.3),
        );
    }

    #[test]
    fn clock_regression_triggers_full_refresh() {
        let net = fig1_like();
        let mut st = ResidualState::fresh(&net);
        st.occupy(&net, EdgeId(0), Wavelength(0)).unwrap();
        st.occupy(&net, EdgeId(0), Wavelength(1)).unwrap();
        let spec = AuxSpec::g_prime();
        let mut eng = AuxEngine::new(&net, spec);
        assert_equiv(&net, &st, &mut eng, NodeId(0), NodeId(3), spec);
        // A brand-new state has clock 0 < the engine's synced clock: the
        // engine must notice and fully refresh.
        let fresh = ResidualState::fresh(&net);
        assert_equiv(&net, &fresh, &mut eng, NodeId(0), NodeId(3), spec);
    }
}
