//! Soundness of [`RouterCtx::rollback`]: a context whose engines synced
//! inside a [`Txn`] stays exact after the rollback, without a full refresh.
//!
//! The hazard is the one the `Txn` docs describe. A rollback moves the
//! change clock backwards, and later *forward* mutations re-issue the clock
//! values an engine already synced at, for a different state. An engine
//! that trusted its old sync mark would skip those links, and would never
//! revisit the links the rollback restored (their stamps predate the
//! mark). Each case drives one context on random NSFNET states through
//! rounds of: sync `G_c` (several thresholds), `G_c` prospective, `G_rc`
//! and `G'` inside a transaction, roll back through the context (or
//! commit), then mutate forward past the engines' sync marks. After every
//! sync each engine's enabled arcs must equal a scratch
//! [`AuxGraph::build`] bit-for-bit, no sync after a rollback may be a full
//! refresh, and the §4.2 joint and §3.3 routes must equal those of a fresh
//! context.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wdm_core::aux_engine::RouterCtx;
use wdm_core::aux_graph::{AuxGraph, AuxSpec};
use wdm_core::disjoint::robust_route_ctx;
use wdm_core::joint::find_two_paths_joint_ctx;
use wdm_core::journal::Txn;
use wdm_core::network::{NetworkBuilder, ResidualState, WdmNetwork};
use wdm_core::wavelength::Wavelength;
use wdm_graph::{EdgeId, NodeId};

/// NSFNET with a random wavelength count and random pre-occupancy and
/// failures.
fn random_state(rng: &mut ChaCha8Rng) -> (WdmNetwork, ResidualState) {
    let net = NetworkBuilder::nsfnet(rng.gen_range(3..9usize)).build();
    let mut st = ResidualState::fresh(&net);
    for ei in 0..net.link_count() {
        let e = EdgeId::from(ei);
        for l in net.lambda(e).iter() {
            if rng.gen_bool(0.35) {
                st.occupy(&net, e, l).expect("free channel");
            }
        }
        if rng.gen_bool(0.05) {
            st.fail_link(e);
        }
    }
    (net, st)
}

/// Every engine family the context holds; the two `G_c` and two `G_rc`
/// thresholds share one engine each, so switching between them re-masks.
fn specs() -> [AuxSpec; 7] {
    [
        AuxSpec::g_c(2.0, 0.4),
        AuxSpec::g_c(2.0, 0.8),
        AuxSpec::g_c(2.0, 1.01),
        AuxSpec::g_c_prospective(2.0, 0.8),
        AuxSpec::g_rc(0.8),
        AuxSpec::g_rc(1.01),
        AuxSpec::g_prime(),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Occupy(EdgeId, Wavelength),
    Release(EdgeId, Wavelength),
    Fail(EdgeId),
    Repair(EdgeId),
}

/// A random mutation. Releases pick a used channel when the link has one,
/// so the state churns both ways (as reconfiguration probes do).
fn random_op(rng: &mut ChaCha8Rng, net: &WdmNetwork, st: &ResidualState) -> Op {
    let e = EdgeId::from(rng.gen_range(0..net.link_count()));
    let any = Wavelength(rng.gen_range(0..net.num_wavelengths()) as u8);
    match rng.gen_range(0..10) {
        0..=3 => Op::Occupy(e, any),
        4..=7 => {
            let used: Vec<Wavelength> = st.used(e).iter().collect();
            let l = if used.is_empty() {
                any
            } else {
                used[rng.gen_range(0..used.len())]
            };
            Op::Release(e, l)
        }
        8 => Op::Fail(e),
        _ => Op::Repair(e),
    }
}

/// Applies `op` directly; illegal occupies/releases are no-ops.
fn apply(net: &WdmNetwork, st: &mut ResidualState, op: Op) {
    match op {
        Op::Occupy(e, l) => {
            let _ = st.occupy(net, e, l);
        }
        Op::Release(e, l) => {
            let _ = st.release(e, l);
        }
        Op::Fail(e) => st.fail_link(e),
        Op::Repair(e) => st.repair_link(e),
    }
}

/// Applies `op` inside the transaction.
fn apply_txn(net: &WdmNetwork, txn: &mut Txn<'_>, op: Op) {
    match op {
        Op::Occupy(e, l) => {
            let _ = txn.occupy(net, e, l);
        }
        Op::Release(e, l) => {
            let _ = txn.release(e, l);
        }
        Op::Fail(e) => txn.fail_link(e),
        Op::Repair(e) => txn.repair_link(e),
    }
}

fn random_request(rng: &mut ChaCha8Rng, net: &WdmNetwork) -> (NodeId, NodeId) {
    let n = net.node_count() as u32;
    let s = rng.gen_range(0..n);
    let t = (s + rng.gen_range(1..n)) % n;
    (NodeId(s), NodeId(t))
}

/// Syncs every engine family against `st` and checks it against a scratch
/// build. With `after_rollback`, the syncs must not be full refreshes.
fn check_engines(
    ctx: &mut RouterCtx,
    net: &WdmNetwork,
    st: &ResidualState,
    (s, t): (NodeId, NodeId),
    after_rollback: bool,
) -> Result<(), TestCaseError> {
    for spec in specs() {
        let (eng, sync) = ctx.synced_engine(net, st, s, t, spec);
        let ours: Vec<_> = eng
            .enabled_arcs()
            .map(|(u, v, kind, w)| (u, v, kind, w.to_bits()))
            .collect();
        let admitted = eng.admitted_links();
        let scratch = AuxGraph::build(net, st, s, t, spec);
        let theirs: Vec<_> = scratch
            .graph
            .edge_ids()
            .map(|a| {
                let d = scratch.graph.edge(a);
                let u = *scratch.graph.node(scratch.graph.src(a));
                let v = *scratch.graph.node(scratch.graph.dst(a));
                (u, v, d.kind, d.weight.to_bits())
            })
            .collect();
        prop_assert_eq!(admitted, scratch.admitted_links(), "{:?}", spec);
        prop_assert_eq!(ours, theirs, "{:?}: engine diverged from scratch", spec);
        if after_rollback {
            prop_assert!(!sync.full, "{:?}: full refresh after a rollback", spec);
        }
    }
    Ok(())
}

/// The joint and `G'` routes over `ctx` equal those over a fresh context.
fn check_routes(
    ctx: &mut RouterCtx,
    net: &WdmNetwork,
    st: &ResidualState,
    (s, t): (NodeId, NodeId),
) -> Result<(), TestCaseError> {
    let fresh = &mut RouterCtx::new();
    match (
        find_two_paths_joint_ctx(ctx, net, st, s, t, 2.0),
        find_two_paths_joint_ctx(fresh, net, st, s, t, 2.0),
    ) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
            prop_assert_eq!(a.route, b.route);
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        (a, b) => prop_assert!(false, "joint split: {:?} vs {:?}", a, b),
    }
    match (
        robust_route_ctx(ctx, net, st, s, t),
        robust_route_ctx(fresh, net, st, s, t),
    ) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1.aux_cost.to_bits(), b.1.aux_cost.to_bits());
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        (a, b) => prop_assert!(false, "G' split: {:?} vs {:?}", a, b),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rollback_keeps_engines_exact_without_full_refresh(seed in 0u64..50_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (net, mut st) = random_state(&mut rng);
        let mut ctx = RouterCtx::new();
        let req = random_request(&mut rng, &net);
        check_engines(&mut ctx, &net, &st, req, false)?;

        for _round in 0..6 {
            // Mutate inside a transaction, syncing (and routing) part-way
            // through so the engines' sync marks land past the clock the
            // rollback will restore.
            let before = st.clone();
            let start = st.change_clock();
            let mut txn = Txn::begin(&mut st);
            let synced_inside = rng.gen_bool(0.85);
            for k in 0..rng.gen_range(1..8) {
                let op = random_op(&mut rng, &net, txn.state());
                apply_txn(&net, &mut txn, op);
                if synced_inside && k % 2 == 0 {
                    let req = random_request(&mut rng, &net);
                    check_engines(&mut ctx, &net, txn.state(), req, false)?;
                    if rng.gen_bool(0.3) {
                        check_routes(&mut ctx, &net, txn.state(), req)?;
                    }
                }
            }
            let mark = txn.state().change_clock();
            if rng.gen_bool(0.2) {
                txn.commit();
                continue;
            }
            ctx.rollback(txn);
            prop_assert_eq!(&st, &before);
            prop_assert_eq!(st.change_clock(), start);

            // Forward mutations re-issue the clock values the engines synced
            // at, for a different state — sometimes no further, sometimes
            // past the mark.
            let target = mark + rng.gen_range(0..3);
            let mut tries = 0;
            while st.change_clock() < target && tries < 64 {
                let op = random_op(&mut rng, &net, &st);
                apply(&net, &mut st, op);
                tries += 1;
            }
            let req = random_request(&mut rng, &net);
            check_engines(&mut ctx, &net, &st, req, true)?;
            check_routes(&mut ctx, &net, &st, req)?;
        }
    }
}
