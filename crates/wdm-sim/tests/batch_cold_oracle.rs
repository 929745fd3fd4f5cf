//! Property test: the serial batch fold, which routes every demand through
//! one warm `RouterCtx`, equals a loop of one-shot [`Policy::route`] calls
//! — each building a throwaway context — bit for bit: provisioned routes,
//! rejection set, total cost in the same accumulation order, load
//! snapshot, residual state and the journal's `Provision` events. The
//! speculative and sharded suites compare against `provision_batch`, so
//! this oracle keeps all of them anchored to the cold path.
//!
//! Covered: every policy of `speculative_equivalence.rs` × every
//! [`BatchOrder`], on distinct-cost and uniform-cost topologies (the
//! latter full of equal-cost ties, where a stale engine would pick a
//! different optimum), with degenerate `s == t` demands and a
//! pre-occupied input state.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wdm_core::conversion::ConversionTable;
use wdm_core::load::load_snapshot;
use wdm_core::network::{NetworkBuilder, ResidualState, WdmNetwork};
use wdm_core::optimal_slp::optimal_semilightpath;
use wdm_graph::EdgeId;
use wdm_sim::batch::BatchOutcome;
use wdm_sim::prelude::*;

/// A random connected network: a bidirected ring plus random chords.
/// With `uniform` every link costs 1.0; otherwise directed links carry
/// pairwise-distinct costs (rank `k` lands in `(k, k + 1)`). Conversion is
/// a 50/50 mix of free and costed.
fn random_net(rng: &mut ChaCha8Rng, w: usize, uniform: bool) -> WdmNetwork {
    let n = rng.gen_range(5..12usize);
    let conv = if rng.gen_bool(0.5) {
        ConversionTable::Full { cost: 0.3 }
    } else {
        ConversionTable::None
    };
    let mut b = NetworkBuilder::new(w);
    let nodes: Vec<_> = (0..n).map(|_| b.add_node(conv.clone())).collect();
    let mut k = 0.0f64;
    let mut cost = |rng: &mut ChaCha8Rng| {
        if uniform {
            return 1.0;
        }
        let c = k + rng.gen_range(0.05..0.95);
        k += 1.0;
        c
    };
    for i in 0..n {
        let j = (i + 1) % n;
        let c = cost(rng);
        b.add_link(nodes[i], nodes[j], c);
        let c = cost(rng);
        b.add_link(nodes[j], nodes[i], c);
    }
    for _ in 0..rng.gen_range(n..3 * n) {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i != j {
            let c = cost(rng);
            b.add_link(nodes[i], nodes[j], c);
        }
    }
    b.build()
}

/// Random demands over `n` nodes, some of them degenerate (`s == t`).
fn random_demands(rng: &mut ChaCha8Rng, n: usize) -> Vec<Demand> {
    let count = rng.gen_range(10..40usize);
    (0..count)
        .map(|_| {
            let s = rng.gen_range(0..n as u32);
            let t = if rng.gen_bool(0.1) {
                s
            } else {
                rng.gen_range(0..n as u32)
            };
            Demand::new(s, t)
        })
        .collect()
}

/// A fresh state with roughly a quarter of all channels occupied, so the
/// batch starts from a loaded network whose change clocks are not at 0.
fn pre_occupied(rng: &mut ChaCha8Rng, net: &WdmNetwork) -> ResidualState {
    let mut st = ResidualState::fresh(net);
    for l in 0..net.link_count() {
        let e = EdgeId(l as u32);
        for lambda in net.lambda(e).iter() {
            if rng.gen_bool(0.25) {
                st.occupy(net, e, lambda)
                    .expect("channel free in a fresh state");
            }
        }
    }
    st
}

/// The batch processing order, written out independently: sort keys are
/// the unprotected optimal route cost on the initial state, ties keep
/// input order, and `LongestFirst` reverses `ShortestFirst`.
fn oracle_order(
    net: &WdmNetwork,
    state: &ResidualState,
    demands: &[Demand],
    order: BatchOrder,
) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..demands.len()).collect();
    if order != BatchOrder::AsGiven {
        let keys: Vec<f64> = demands
            .iter()
            .map(|d| {
                optimal_semilightpath(net, state, d.src, d.dst).map_or(f64::INFINITY, |p| p.cost)
            })
            .collect();
        idx.sort_by(|&a, &b| keys[a].partial_cmp(&keys[b]).expect("costs are not NaN"));
        if order == BatchOrder::LongestFirst {
            idx.reverse();
        }
    }
    idx
}

/// The cold reference: one throwaway context per demand via
/// [`Policy::route`], plus the `Provision` events a journal would see.
fn cold_batch(
    net: &WdmNetwork,
    state: &ResidualState,
    demands: &[Demand],
    policy: Policy,
    order: BatchOrder,
) -> (BatchOutcome, Vec<NetEvent>) {
    let mut st = state.clone();
    let mut provisioned = Vec::new();
    let mut rejected = Vec::new();
    let mut events = Vec::new();
    let mut total_cost = 0.0;
    for i in oracle_order(net, state, demands, order) {
        let d = demands[i];
        match policy.route(net, &st, d.src, d.dst) {
            Ok(route) => {
                route.occupy(net, &mut st).expect("route fits the state");
                events.push(NetEvent::Provision {
                    id: i as u64,
                    channels: route.channels(),
                });
                total_cost += route.total_cost();
                provisioned.push((i, route));
            }
            Err(_) => rejected.push(i),
        }
    }
    let final_load = load_snapshot(net, &st);
    let out = BatchOutcome {
        provisioned,
        rejected,
        total_cost,
        final_load,
        state: st,
    };
    (out, events)
}

const POLICIES: [Policy; 8] = [
    Policy::CostOnly,
    Policy::TwoStep,
    Policy::Unrefined,
    Policy::Ksp { k: 3 },
    Policy::LoadOnly { a: 2.0 },
    Policy::Joint { a: 2.0 },
    Policy::NodeDisjoint,
    Policy::PrimaryOnly,
];

const ORDERS: [BatchOrder; 3] = [
    BatchOrder::AsGiven,
    BatchOrder::ShortestFirst,
    BatchOrder::LongestFirst,
];

/// Every policy × order on one instance: the warm fold must equal the
/// cold loop exactly, and its journal must replay to its final state.
fn check_against_cold(
    net: &WdmNetwork,
    state: &ResidualState,
    demands: &[Demand],
) -> Result<(), TestCaseError> {
    for policy in POLICIES {
        for order in ORDERS {
            let (cold, cold_events) = cold_batch(net, state, demands, policy, order);
            let mut journal = StateJournal::new(state.clone());
            let warm = provision_batch_journaled(net, state, demands, policy, order, &mut journal);
            let case = format!("{policy:?} {order:?}");
            prop_assert_eq!(&warm.provisioned, &cold.provisioned, "{}", case);
            prop_assert_eq!(&warm.rejected, &cold.rejected, "{}", case);
            prop_assert_eq!(
                warm.total_cost.to_bits(),
                cold.total_cost.to_bits(),
                "{}",
                case
            );
            prop_assert_eq!(&warm.final_load, &cold.final_load, "{}", case);
            prop_assert_eq!(&warm.state, &cold.state, "{}", case);
            prop_assert_eq!(journal.events(), &cold_events[..], "{}", case);
            let replayed = journal.replay(net).expect("journal replays");
            prop_assert_eq!(&replayed, &warm.state, "{}", case);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Random topologies, distinct or uniform link costs, from a fresh or
    /// a pre-occupied state.
    #[test]
    fn warm_batch_fold_equals_cold_route_loop(
        seed in 0u64..1_000_000,
        w_idx in 0usize..3,
        uniform in any::<bool>(),
        loaded in any::<bool>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = random_net(&mut rng, [2, 4, 8][w_idx], uniform);
        let state = if loaded {
            pre_occupied(&mut rng, &net)
        } else {
            ResidualState::fresh(&net)
        };
        let demands = random_demands(&mut rng, net.node_count());
        check_against_cold(&net, &state, &demands)?;
    }

    /// NSFNET: twin directed links share costs, so equal-cost ties abound.
    #[test]
    fn warm_batch_fold_equals_cold_route_loop_on_nsfnet(
        seed in 0u64..1_000_000,
        loaded in any::<bool>(),
    ) {
        let net = NetworkBuilder::nsfnet(4).build();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let state = if loaded {
            pre_occupied(&mut rng, &net)
        } else {
            ResidualState::fresh(&net)
        };
        let demands = random_demands(&mut rng, net.node_count());
        check_against_cold(&net, &state, &demands)?;
    }
}
