//! Shard-parallel batch provisioning — static topology partitioning with
//! per-shard worker mirrors, bit-identical to the serial fold.
//!
//! The conflict-groups engine ([`crate::speculative`]) already avoids
//! wasted speculation, but every round still routes against one frozen
//! borrow of the live state and synchronises on one commit sweep. This
//! module goes one step further: it partitions the **topology** itself
//! ([`TopologyPartition`]) so that demands confined to different shards
//! cannot conflict *by construction*, and gives every shard a worker that
//! routes its queue with **no inter-shard synchronisation** — each worker
//! owns a long-lived [`ResidualState`] **mirror** and a persistent warm
//! [`RouterCtx`], and applies its own speculative occupations to its
//! mirror as it goes, so consecutive intra-shard demands see each other
//! exactly as the serial fold would.
//!
//! ## Round structure
//!
//! 1. **Plan.** Classify the next `K` pending demands (the same
//!    `--parallel-window` round size as the other schedule modes — round
//!    size bounds how much work one mispredicted abort can poison)
//!    through the [`ShardMap`] ([`FootprintOracle`] ball ∪ endpoint
//!    shards):
//!    intra-shard demands join their shard's queue (in processing order);
//!    cross-shard demands are marked for inline serial routing.
//! 2. **Fan-out.** Up to `N` threads run the active shard workers
//!    (longest-queue-first onto the least-loaded thread — deterministic,
//!    and irrelevant to results since workers share nothing). Each worker
//!    routes its queue sequentially against its own mirror, occupying
//!    each successful route into the mirror so later queue members see
//!    it.
//! 3. **Commit sweep**, on the caller's thread, in exact processing
//!    order over the round's whole range: speculated results commit under
//!    the owner-stamp rule below; cross-shard demands and aborted members
//!    route inline at their serial slot (live = serial there, same as
//!    conflict-groups mode). Every slot of the range is consumed, so the
//!    engine always progresses.
//! 4. **Reconcile.** Each mirror is patched back to equality with the
//!    live state by a channel-level set difference — release what the
//!    worker occupied but the sweep did not commit, occupy what the sweep
//!    committed but the worker did not apply. Mirrors are only ever
//!    mutated through [`ResidualState::occupy`] and
//!    [`release`](ResidualState::release), so each mirror's change clock
//!    advances monotonically in its **own lineage** forever and the
//!    worker's incremental engine sync stays sound — no `invalidate`, no
//!    skeleton rebuilds, warm across the whole batch.
//!
//! ## Why cross-shard demands cannot perturb the serial order
//!
//! A cross-shard demand never executes speculatively: the sweep reaches
//! its slot only after every earlier demand of the batch has committed
//! its serial result, routes it on the live state (= the serial state at
//! that slot, rule 1 of the speculative commit protocol) and commits
//! unconditionally. Shard members that would race with it are caught by
//! revalidation: the inline commit stamps its links with a *foreign*
//! owner, and a speculated route commits only if every link it uses is
//! either untouched this round or stamped by **its own shard** —
//! own-shard stamps are exactly the occupations the worker already
//! applied to its mirror before routing that member (earlier queue
//! members of the same shard, committed unchanged by the sweep), so the
//! route's links carry identical occupancy in the worker view and the
//! serial state, and under the rule-2 guard (link-local policy, distinct
//! static costs) the result is the serial optimum. A route that fails
//! the stamp check gets one more chance — **channel revalidation**:
//! occupancy within a batch is monotone and an unpoisoned lineage has
//! committed every earlier own route unchanged, so the mirror only ever
//! *lags* the live state; if every channel the route uses is still free
//! live, any live-feasible competitor was already mirror-feasible when
//! the route won the argmin there, and the route is still the unique
//! serial optimum — it commits (stamping contested links FOREIGN so no
//! one commits across them again this round). Only a genuine channel
//! collision aborts: the first abort in a shard **poisons** the rest of
//! that shard's round — later members routed on a mirror lineage the
//! serial state diverged from — and each aborted member retries inline
//! at its own slot.
//!
//! Without the rule-2 guard (load-sensitive policy or shared link costs),
//! or with `window <= 1` / one shard, the engine delegates to
//! conflict-groups scheduling, which degenerates to the warm serial loop
//! — the bit-identity contract holds for every policy either way.

use crate::batch::{processing_order, BatchOrder, BatchOutcome, Demand};
use crate::policy::{Policy, ProvisionedRoute};
use crate::speculative::{
    link_local_revalidation_sound, run_conflict_groups, worker_count, SpeculationStats,
};
use std::collections::HashSet;
use wdm_core::aux_engine::RouterCtx;
use wdm_core::error::RoutingError;
use wdm_core::journal::{EventSink, NetEvent};
use wdm_core::load::load_snapshot;
use wdm_core::network::{ResidualState, WdmNetwork};
use wdm_core::partition::{DemandClass, ShardMap, TopologyPartition};
use wdm_core::predict::FootprintOracle;
use wdm_core::semilightpath::Hop;
use wdm_telemetry::{Counter, Hist, NoopRecorder, Phase, Recorder, Tracer};

/// Seed for the deterministic topology partition. Fixed: the partition is
/// part of the observable schedule and batch runs must reproduce
/// bit-for-bit across processes.
const PARTITION_SEED: u64 = 0x5AD5;

/// Owner stamp for links occupied by inline (serial-slot) commits.
const FOREIGN: u32 = u32::MAX;

/// One shard's long-lived routing island: a state mirror reconciled to
/// the live state between rounds, a persistent warm router context, and
/// the current round's queue/results.
struct ShardWorker<T: Tracer> {
    mirror: ResidualState,
    ctx: RouterCtx<NoopRecorder, T>,
    /// Demand ids queued this round, in processing order.
    queue: Vec<usize>,
    /// One result per queue entry after the fan-out.
    results: Vec<Option<Result<ProvisionedRoute, RoutingError>>>,
    /// Channels this worker occupied on its mirror this round.
    applied: Vec<Hop>,
    /// Set when a member of this shard aborted this round: the remaining
    /// members were routed on a diverged mirror lineage and must retry
    /// inline.
    poisoned: bool,
}

impl<T: Tracer> ShardWorker<T> {
    /// Routes the queued demands sequentially against the mirror,
    /// applying each success so later queue members see it — the exact
    /// visibility the serial fold gives consecutive intra-shard demands.
    fn run_round(&mut self, net: &WdmNetwork, demands: &[Demand], policy: Policy) {
        for qi in 0..self.queue.len() {
            let d = demands[self.queue[qi]];
            let res = policy.route_ctx(&mut self.ctx, net, &self.mirror, d.src, d.dst);
            if let Ok(route) = &res {
                self.applied.extend(route.channels());
                route
                    .occupy(net, &mut self.mirror)
                    .expect("route computed on the mirror it occupies");
            }
            self.results.push(Some(res));
        }
    }
}

/// Routes demand `id` on the live state at its exact serial slot and
/// commits whatever comes back (rule 1: live = serial here). Stamps the
/// route's links with the [`FOREIGN`] owner so no later shard member of
/// the round can commit across them.
#[allow(clippy::too_many_arguments)]
fn route_inline_sharded<J: EventSink, T: Tracer + Send, O: FootprintOracle>(
    net: &WdmNetwork,
    st: &mut ResidualState,
    demand: Demand,
    id: usize,
    policy: Policy,
    ctx: &mut RouterCtx<NoopRecorder, T>,
    tracer: &T,
    tracing: bool,
    journal: &mut J,
    oracle: &mut O,
    round: u32,
    touch_round: &mut [u32],
    touch_owner: &mut [u32],
    round_channels: &mut Vec<Hop>,
    committed_any: &mut bool,
    provisioned: &mut Vec<(usize, ProvisionedRoute)>,
    rejected: &mut Vec<usize>,
    total_cost: &mut f64,
) {
    let res = policy.route_ctx(ctx, net, &*st, demand.src, demand.dst);
    if tracing {
        tracer.absorb_worker(ctx.tracer());
    }
    match res {
        Ok(route) => {
            let commit_t0 = tracer.now_ns();
            let fp = route.footprint();
            oracle.observe(demand.src, demand.dst, &fp);
            for e in &fp.links {
                touch_round[e.index()] = round;
                touch_owner[e.index()] = FOREIGN;
            }
            round_channels.extend(route.channels());
            route
                .occupy(net, st)
                .expect("inline route computed on the live state");
            if journal.enabled() {
                journal.record(NetEvent::Provision {
                    id: id as u64,
                    channels: route.channels(),
                });
            }
            *total_cost += route.total_cost();
            provisioned.push((id, route));
            *committed_any = true;
            if tracing {
                tracer.record_earlier(0, Phase::Commit, commit_t0);
            }
        }
        Err(_) => rejected.push(id),
    }
}

/// The sharded engine with a caller-supplied oracle. Classification and
/// footprints only shape the schedule — any oracle yields the same
/// bit-identical [`BatchOutcome`]; mispredictions cost retries (escaped
/// routes) or parallelism (demands classified cross-shard needlessly).
#[allow(clippy::too_many_arguments)]
pub fn provision_batch_sharded<R, J, T, O>(
    net: &WdmNetwork,
    state: &ResidualState,
    demands: &[Demand],
    policy: Policy,
    order: BatchOrder,
    window: usize,
    shards: usize,
    threads: usize,
    recorder: R,
    journal: J,
    tracer: &T,
    oracle: &mut O,
) -> (BatchOutcome, SpeculationStats)
where
    R: Recorder,
    J: EventSink,
    T: Tracer + Send,
    O: FootprintOracle,
{
    run_sharded(
        net, state, demands, policy, order, window, shards, threads, recorder, journal, tracer,
        oracle,
    )
}

/// The sharded engine proper. See the module docs for the protocol.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sharded<R, J, T, O>(
    net: &WdmNetwork,
    state: &ResidualState,
    demands: &[Demand],
    policy: Policy,
    order: BatchOrder,
    window: usize,
    shards: usize,
    threads: usize,
    recorder: R,
    mut journal: J,
    tracer: &T,
    oracle: &mut O,
) -> (BatchOutcome, SpeculationStats)
where
    R: Recorder,
    J: EventSink,
    T: Tracer + Send,
    O: FootprintOracle,
{
    let shards_eff = shards.clamp(1, net.node_count().max(1));
    let guard = link_local_revalidation_sound(policy, net);
    if !guard || window <= 1 || shards_eff <= 1 {
        // Only rule 1 could commit (or there is nothing to parallelise):
        // delegate to conflict-groups, which degenerates to the warm
        // serial loop and keeps the bit-identity contract.
        return run_conflict_groups(
            net, state, demands, policy, order, window, threads, recorder, journal, tracer, oracle,
        );
    }

    let mut st = state.clone();
    let idx = processing_order(net, &st, demands, order);
    let tracing = tracer.enabled();

    let shard_map = ShardMap::new(TopologyPartition::grow(net, shards_eff, PARTITION_SEED));
    let mut shard_map = shard_map;
    let mut workers: Vec<ShardWorker<T>> = (0..shards_eff)
        .map(|_| ShardWorker {
            mirror: st.clone(),
            ctx: RouterCtx::with_recorder_and_tracer(NoopRecorder, tracer.fork_worker()),
            queue: Vec::new(),
            results: Vec::new(),
            applied: Vec::new(),
            poisoned: false,
        })
        .collect();
    let mut inline_ctx: RouterCtx<NoopRecorder, T> =
        RouterCtx::with_recorder_and_tracer(NoopRecorder, tracer.fork_worker());

    // (round, owner) stamps per link: the reservation lock table of the
    // commit sweep. A link is "touched this round" iff its round stamp is
    // current; the owner says which shard's commits touched it.
    let mut touch_round = vec![0u32; net.link_count()];
    let mut touch_owner = vec![FOREIGN; net.link_count()];
    let mut round: u32 = 0;

    /// The sweep's per-slot classification for one round.
    enum Slot {
        /// `(shard, queue position)` of a speculated member.
        Member(u32, usize),
        /// Cross-shard: routed inline at its serial slot.
        Inline,
    }
    let mut slots: Vec<Slot> = Vec::new();
    let mut prefix: Vec<u64> = vec![0; shards_eff + 1];
    let mut round_aborts: Vec<u64> = vec![0; shards_eff];
    let mut round_channels: Vec<Hop> = Vec::new();
    let mut committed_set: HashSet<(usize, u8)> = HashSet::new();
    let mut applied_set: HashSet<(usize, u8)> = HashSet::new();

    let mut provisioned = Vec::new();
    let mut rejected = Vec::new();
    let mut total_cost = 0.0;
    let mut stats = SpeculationStats::default();

    let mut pos = 0;
    while pos < idx.len() {
        stats.rounds += 1;
        round = round.wrapping_add(1);
        if round == 0 {
            // u32 stamp wraparound: old stamps could alias the new round.
            touch_round.iter_mut().for_each(|r| *r = 0);
            round = 1;
        }

        // 1. Plan: classify the next K demands in processing order. One
        // window total (not K per shard): an abort poisons the rest of
        // its shard's round, so round size directly bounds the cascade a
        // single foreign conflict can cause.
        let range = window.min(idx.len() - pos);
        slots.clear();
        for w in workers.iter_mut() {
            w.queue.clear();
            w.results.clear();
            w.applied.clear();
            w.poisoned = false;
        }
        let mut cut = 0u64;
        for k in 0..range {
            let d = demands[idx[pos + k]];
            match shard_map.classify(oracle, d.src, d.dst) {
                DemandClass::Intra(s) => {
                    let w = &mut workers[s as usize];
                    slots.push(Slot::Member(s, w.queue.len()));
                    w.queue.push(idx[pos + k]);
                }
                DemandClass::Cross => {
                    cut += 1;
                    slots.push(Slot::Inline);
                }
            }
        }
        stats.cut_demands += cut;
        if recorder.enabled() {
            recorder.observe(Hist::WindowOccupancy, range as u64);
            if cut > 0 {
                recorder.add(Counter::ShardedCutDemands, cut);
            }
            for w in &workers {
                if !w.queue.is_empty() {
                    recorder.observe(Hist::ShardOccupancy, w.queue.len() as u64);
                }
            }
        }
        let members_total: u64 = workers.iter().map(|w| w.queue.len() as u64).sum();
        for s in 0..shards_eff {
            prefix[s + 1] = prefix[s] + workers[s].queue.len() as u64;
        }

        // 2. Fan-out: active shards onto up to `threads` OS threads,
        // longest queue first onto the least-loaded thread. Deterministic,
        // and the assignment cannot change any result — workers share
        // nothing.
        {
            let mut active: Vec<&mut ShardWorker<T>> =
                workers.iter_mut().filter(|w| !w.queue.is_empty()).collect();
            active.sort_by_key(|w| std::cmp::Reverse(w.queue.len()));
            let nt = worker_count(threads, active.len());
            if nt <= 1 {
                for w in active {
                    w.run_round(net, demands, policy);
                }
            } else {
                let mut bins: Vec<Vec<&mut ShardWorker<T>>> = (0..nt).map(|_| Vec::new()).collect();
                let mut loads = vec![0usize; nt];
                for w in active {
                    let t = (0..nt).min_by_key(|&t| (loads[t], t)).expect("nt > 0");
                    loads[t] += w.queue.len();
                    bins[t].push(w);
                }
                crossbeam::thread::scope(|scope| {
                    for bin in bins {
                        scope.spawn(move |_| {
                            for w in bin {
                                w.run_round(net, demands, policy);
                            }
                        });
                    }
                })
                .expect("shard worker panicked");
            }
        }
        if tracing {
            // Fold worker spans back in shard-id order; the sweep below
            // addresses each member's attempt via `prefix[s] + q`.
            for w in &workers {
                if !w.queue.is_empty() {
                    tracer.absorb_worker(w.ctx.tracer());
                }
            }
        }

        // 3. Commit sweep in exact processing order over the whole range.
        let mut committed_any = false;
        let mut appended: u64 = 0; // inline attempts absorbed since the fold
        round_aborts.iter_mut().for_each(|a| *a = 0);
        round_channels.clear();
        for (k, slot) in slots.iter().enumerate() {
            let i = idx[pos + k];
            let (s, q) = match *slot {
                Slot::Inline => {
                    stats.inline_routes += 1;
                    if recorder.enabled() {
                        recorder.add(Counter::SpeculativeInlineRoutes, 1);
                    }
                    route_inline_sharded(
                        net,
                        &mut st,
                        demands[i],
                        i,
                        policy,
                        &mut inline_ctx,
                        tracer,
                        tracing,
                        &mut journal,
                        oracle,
                        round,
                        &mut touch_round,
                        &mut touch_owner,
                        &mut round_channels,
                        &mut committed_any,
                        &mut provisioned,
                        &mut rejected,
                        &mut total_cost,
                    );
                    appended += 1;
                    continue;
                }
                Slot::Member(s, q) => (s, q),
            };
            let back = (members_total - 1 - (prefix[s as usize] + q as u64)) + appended;
            let w = &mut workers[s as usize];
            let res = w.results[q].take().expect("one result per queue member");
            let poisoned = w.poisoned;
            let committable = !poisoned
                && match &res {
                    // Rule 1 (nothing committed yet: frozen = live for the
                    // head of every shard lineage) or the owner-stamp
                    // revalidation described in the module docs.
                    Ok(route) => {
                        !committed_any
                            || route.footprint().links.iter().all(|e| {
                                touch_round[e.index()] != round || touch_owner[e.index()] == s
                            })
                    }
                    // Monotone failures (guard is on in this path).
                    Err(err) => {
                        !committed_any
                            || matches!(
                                err,
                                RoutingError::DegenerateRequest
                                    | RoutingError::NoDisjointPair
                                    | RoutingError::Unreachable { .. }
                            )
                    }
                };
            // Channel-level revalidation for routes the stamp rule would
            // abort: the worker's mirror only ever lags the live state
            // (occupancy within a batch is monotone, and an unpoisoned
            // lineage has committed every earlier own route unchanged), so
            // any live-feasible competitor was already feasible on the
            // mirror when this route won the argmin there. If every channel
            // the route uses is still free on the live state, the route is
            // live-feasible and therefore still the unique serial optimum —
            // commit it without a retry, and without poisoning the shard.
            let channel_ok = !committable
                && !poisoned
                && matches!(&res, Ok(route) if route
                    .channels()
                    .iter()
                    .all(|h| st.is_avail(net, h.edge, h.wavelength)));
            if committable || channel_ok {
                stats.commits += 1;
                if recorder.enabled() {
                    recorder.add(Counter::SpeculativeCommits, 1);
                    if channel_ok {
                        recorder.add(Counter::ShardedVerifiedCommits, 1);
                    }
                }
                match res {
                    Ok(route) => {
                        let commit_t0 = tracer.now_ns();
                        let fp = route.footprint();
                        oracle.observe(demands[i].src, demands[i].dst, &fp);
                        for e in &fp.links {
                            if channel_ok {
                                // The worker's own mirror carries this
                                // route, so fresh links take the shard's
                                // own stamp — but a link some *other*
                                // owner stamped this round is demoted to
                                // FOREIGN: that owner's mirror lacks this
                                // route's occupancy, so nobody may commit
                                // across it again within the round.
                                if touch_round[e.index()] != round {
                                    touch_round[e.index()] = round;
                                    touch_owner[e.index()] = s;
                                } else if touch_owner[e.index()] != s {
                                    touch_owner[e.index()] = FOREIGN;
                                }
                            } else {
                                touch_round[e.index()] = round;
                                touch_owner[e.index()] = s;
                            }
                        }
                        round_channels.extend(route.channels());
                        route
                            .occupy(net, &mut st)
                            .expect("committed route's links carry the worker's own occupancy");
                        if journal.enabled() {
                            journal.record(NetEvent::Provision {
                                id: i as u64,
                                channels: route.channels(),
                            });
                        }
                        total_cost += route.total_cost();
                        provisioned.push((i, route));
                        committed_any = true;
                        if tracing {
                            tracer.record_earlier(back, Phase::Commit, commit_t0);
                        }
                    }
                    Err(_) => rejected.push(i),
                }
            } else {
                // Abort: either the member's links were touched by a
                // foreign owner (its route escaped the shard, or an
                // inline commit crossed it), or an earlier member of the
                // shard already aborted (lineage divergence). Rule 3,
                // sharded flavor: poison the shard's round and retry this
                // demand inline at its serial slot.
                w.poisoned = true;
                stats.aborts += 1;
                stats.retries += 1;
                round_aborts[s as usize] += 1;
                if recorder.enabled() {
                    recorder.add(Counter::SpeculativeAborts, 1);
                    recorder.add(Counter::SpeculativeRetries, 1);
                    if poisoned {
                        recorder.add(Counter::ShardedLineageAborts, 1);
                    } else {
                        match &res {
                            Ok(route) => {
                                recorder.add(Counter::SpeculativeAbortConflict, 1);
                                let escaped = route
                                    .footprint()
                                    .links
                                    .iter()
                                    .any(|e| shard_map.partition().link_shard(*e) != Some(s));
                                if escaped {
                                    recorder.add(Counter::ShardedEscapeAborts, 1);
                                }
                            }
                            Err(_) => recorder.add(Counter::SpeculativeAbortLoadShift, 1),
                        }
                    }
                }
                if tracing {
                    tracer.record_earlier(back, Phase::Abort, tracer.now_ns());
                }
                route_inline_sharded(
                    net,
                    &mut st,
                    demands[i],
                    i,
                    policy,
                    &mut inline_ctx,
                    tracer,
                    tracing,
                    &mut journal,
                    oracle,
                    round,
                    &mut touch_round,
                    &mut touch_owner,
                    &mut round_channels,
                    &mut committed_any,
                    &mut provisioned,
                    &mut rejected,
                    &mut total_cost,
                );
                appended += 1;
            }
        }
        if recorder.enabled() {
            for s in 0..shards_eff {
                if !workers[s].queue.is_empty() {
                    recorder.observe(Hist::ShardAborts, round_aborts[s]);
                }
            }
        }

        // 4. Reconcile every mirror back to the live state by channel set
        // difference. Only occupy/release are used, so each mirror's
        // change clock stays monotone in its own lineage and the warm
        // worker engines remain sound.
        committed_set.clear();
        committed_set.extend(
            round_channels
                .iter()
                .map(|h| (h.edge.index(), h.wavelength.0)),
        );
        for w in workers.iter_mut() {
            applied_set.clear();
            applied_set.extend(w.applied.iter().map(|h| (h.edge.index(), h.wavelength.0)));
            for h in &w.applied {
                if !committed_set.contains(&(h.edge.index(), h.wavelength.0)) {
                    w.mirror
                        .release(h.edge, h.wavelength)
                        .expect("speculatively applied channel is occupied on the mirror");
                }
            }
            for h in &round_channels {
                if !applied_set.contains(&(h.edge.index(), h.wavelength.0)) {
                    w.mirror
                        .occupy(net, h.edge, h.wavelength)
                        .expect("committed channel is free on the reconciled mirror");
                }
            }
        }

        pos += range;
    }

    let final_load = load_snapshot(net, &st);
    (
        BatchOutcome {
            provisioned,
            rejected,
            total_cost,
            final_load,
            state: st,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{full_mesh_demands, provision_batch};
    use crate::schedule::ScheduleMode;
    use crate::speculative::provision_batch_speculative_scheduled;
    use wdm_core::journal::NoopSink;
    use wdm_core::network::NetworkBuilder;
    use wdm_core::predict::LocalityPredictor;
    use wdm_telemetry::{NoopTracer, SpanBuffer, TelemetrySink};

    /// Two well-connected distinct-cost clusters joined by one bridge
    /// pair: a topology where sharding actually separates traffic.
    /// Conversion is free so the rule-2 guard holds — these tests are
    /// meant to exercise the sharded engine, not its fallback.
    fn two_cluster_net(w: usize) -> WdmNetwork {
        use wdm_core::conversion::ConversionTable;
        let mut b = NetworkBuilder::new(w);
        let n = 16u32;
        let nodes: Vec<_> = (0..n)
            .map(|_| b.add_node(ConversionTable::Full { cost: 0.0 }))
            .collect();
        let mut c = 1.0;
        let mut link = |b: &mut NetworkBuilder, i: usize, j: usize| {
            b.add_link(nodes[i], nodes[j], c);
            c += 0.17;
        };
        for base in [0usize, 8] {
            for i in 0..8 {
                for j in [(i + 1) % 8, (i + 3) % 8] {
                    link(&mut b, base + i, base + j);
                    link(&mut b, base + j, base + i);
                }
            }
        }
        // One bidirected bridge between the clusters.
        link(&mut b, 3, 11);
        link(&mut b, 11, 3);
        b.build()
    }

    fn assert_outcomes_identical(a: &BatchOutcome, b: &BatchOutcome) {
        assert_eq!(a.provisioned, b.provisioned);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
        assert_eq!(a.final_load, b.final_load);
        assert_eq!(a.state, b.state);
    }

    #[test]
    fn sharded_matches_serial_across_shards_threads_and_windows() {
        let net = two_cluster_net(4);
        let st = ResidualState::fresh(&net);
        let demands = full_mesh_demands(16, 1);
        let serial = provision_batch(&net, &st, &demands, Policy::CostOnly, BatchOrder::AsGiven);
        for shards in [1, 2, 4] {
            for threads in [1, 2] {
                for window in [1, 2, 8, 64] {
                    let (out, stats) = provision_batch_speculative_scheduled(
                        &net,
                        &st,
                        &demands,
                        Policy::CostOnly,
                        BatchOrder::AsGiven,
                        window,
                        ScheduleMode::Sharded { shards },
                        threads,
                        NoopRecorder,
                        NoopSink,
                        &NoopTracer,
                    );
                    assert_outcomes_identical(&serial, &out);
                    assert_eq!(
                        stats.commits + stats.retries + stats.inline_routes,
                        demands.len() as u64,
                        "shards={shards} threads={threads} window={window}"
                    );
                    assert_eq!(stats.aborts, stats.retries);
                }
            }
        }
    }

    #[test]
    fn sharded_counters_match_stats() {
        let net = two_cluster_net(4);
        let st = ResidualState::fresh(&net);
        let demands = full_mesh_demands(16, 1);
        let sink = TelemetrySink::new();
        let mut oracle = LocalityPredictor::with_default_radius(&net);
        let (_, stats) = provision_batch_sharded(
            &net,
            &st,
            &demands,
            Policy::CostOnly,
            BatchOrder::AsGiven,
            16,
            2,
            1,
            &sink,
            NoopSink,
            &NoopTracer,
            &mut oracle,
        );
        let snap = sink.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        assert_eq!(counter("speculative_commits"), stats.commits);
        assert_eq!(counter("speculative_aborts"), stats.aborts);
        assert_eq!(counter("speculative_retries"), stats.retries);
        assert_eq!(counter("speculative_inline_routes"), stats.inline_routes);
        assert_eq!(counter("sharded_cut_demands"), stats.cut_demands);
        // Cross-shard demands exist (the full mesh crosses the bridge)
        // and every one routed inline.
        assert!(stats.cut_demands > 0);
        assert_eq!(stats.cut_demands, stats.inline_routes);
        // Shard occupancy was recorded for the active shards.
        assert!(snap.histograms.contains_key("shard_occupancy"));
        assert!(snap.histograms.contains_key("shard_aborts"));
        // No routing telemetry leaks from the speculated calls.
        assert_eq!(counter("suurballe_searches"), 0);
    }

    #[test]
    fn observed_sharded_attaches_spans_to_every_attempt() {
        let net = two_cluster_net(4);
        let st = ResidualState::fresh(&net);
        let demands = full_mesh_demands(16, 1);
        let tracer = SpanBuffer::new();
        let mut oracle = LocalityPredictor::with_default_radius(&net);
        let (out, stats) = provision_batch_sharded(
            &net,
            &st,
            &demands,
            Policy::CostOnly,
            BatchOrder::AsGiven,
            16,
            2,
            2,
            NoopRecorder,
            NoopSink,
            &tracer,
            &mut oracle,
        );
        // One request ordinal per routing attempt: speculated
        // (commits + aborts) plus inline (cut demands + retries).
        assert_eq!(
            tracer.requests_begun(),
            stats.commits + stats.aborts + stats.inline_routes + stats.retries
        );
        let recs = tracer.records();
        let commits = recs.iter().filter(|r| r.phase == Phase::Commit).count();
        assert_eq!(commits, out.provisioned.len());
        let aborts = recs.iter().filter(|r| r.phase == Phase::Abort).count() as u64;
        assert_eq!(aborts, stats.aborts);
    }

    #[test]
    fn uniform_costs_delegate_to_the_degenerate_serial_loop() {
        // NSFNET: the rule-2 guard is off, so sharded mode must fall back
        // to the warm serial loop and still match serially.
        let net = NetworkBuilder::nsfnet(8).build();
        let st = ResidualState::fresh(&net);
        let demands = full_mesh_demands(14, 1);
        let policy = Policy::Joint { a: 2.0 };
        let serial = provision_batch(&net, &st, &demands, policy, BatchOrder::LongestFirst);
        let (out, stats) = provision_batch_speculative_scheduled(
            &net,
            &st,
            &demands,
            policy,
            BatchOrder::LongestFirst,
            8,
            ScheduleMode::Sharded { shards: 4 },
            2,
            NoopRecorder,
            NoopSink,
            &NoopTracer,
        );
        assert_outcomes_identical(&serial, &out);
        assert_eq!(stats.commits, demands.len() as u64);
        assert_eq!(stats.aborts, 0);
        assert_eq!(stats.cut_demands, 0);
        assert_eq!(stats.rounds, demands.len() as u64);
    }
}
