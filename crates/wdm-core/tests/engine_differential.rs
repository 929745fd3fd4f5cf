//! Differential test: the incremental [`AuxEngine`] must be observationally
//! identical to the scratch [`AuxGraph::build`] oracle.
//!
//! A persistent engine per auxiliary-graph family (`G'`, `G_c`, `G_rc`) is
//! dragged through long random sequences of state mutations (occupy /
//! release / fail / repair), request retargets and threshold changes. After
//! every step, each engine's enabled subgraph must match a from-scratch
//! build **bit-for-bit**: same admitted links, same arcs in the same
//! relative order, identical `f64` weight bits. On top of that, the
//! minimum-cost disjoint pairs found by the reusable [`SearchArena`]'s CSR
//! kernels over the engine (the f64 path, and the integer path whenever
//! the weights certify) must equal the allocating Suurballe over the
//! scratch graph — same physical edges, same total-cost bits — which pins
//! route identity (refinement is a deterministic function of the physical
//! edge sets).
//!
//! Finally the persistent-context public entry points
//! ([`find_two_paths_mincog_ctx`], [`find_two_paths_joint_ctx`]) are
//! compared against their one-shot counterparts across the same mutation
//! history.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wdm_core::aux_engine::{AuxEngine, RouterCtx};
use wdm_core::aux_graph::{AuxArc, AuxGraph, AuxNode, AuxSpec};
use wdm_core::conversion::ConversionTable;
use wdm_core::joint::{find_two_paths_joint, find_two_paths_joint_ctx};
use wdm_core::mincog::{find_two_paths_mincog, find_two_paths_mincog_ctx};
use wdm_core::network::{NetworkBuilder, ResidualState, WdmNetwork};
use wdm_core::wavelength::{Wavelength, WavelengthSet};
use wdm_graph::suurballe::{edge_disjoint_pair_filtered, DisjointPair};
use wdm_graph::{EdgeId, NodeId, SearchArena};

fn random_net(rng: &mut ChaCha8Rng) -> WdmNetwork {
    let n = rng.gen_range(4..10usize);
    let w = rng.gen_range(2..6usize);
    let mut b = NetworkBuilder::new(w);
    for _ in 0..n {
        let conv = match rng.gen_range(0..3) {
            0 => ConversionTable::None,
            1 => ConversionTable::Full {
                cost: rng.gen_range(0.0..2.0),
            },
            _ => ConversionTable::Range {
                range: rng.gen_range(1..3),
                cost: rng.gen_range(0.0..2.0),
            },
        };
        b.add_node(conv);
    }
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u != v && rng.gen_bool(0.45) {
                let mut set = WavelengthSet::empty();
                for l in 0..w {
                    if rng.gen_bool(0.7) {
                        set.insert(Wavelength(l as u8));
                    }
                }
                if set.is_empty() {
                    set.insert(Wavelength(0));
                }
                b.add_link_with(NodeId(u), NodeId(v), rng.gen_range(1.0..10.0), set);
            }
        }
    }
    b.build()
}

/// One random state mutation; occupy/release on illegal channels are no-ops
/// (`Err` ignored), which also exercises "nothing changed" syncs.
fn random_op(rng: &mut ChaCha8Rng, net: &WdmNetwork, st: &mut ResidualState) {
    let e = EdgeId::from(rng.gen_range(0..net.link_count()));
    match rng.gen_range(0..4) {
        0 => {
            let l = Wavelength(rng.gen_range(0..net.num_wavelengths()) as u8);
            let _ = st.occupy(net, e, l);
        }
        1 => {
            let l = Wavelength(rng.gen_range(0..net.num_wavelengths()) as u8);
            let _ = st.release(e, l);
        }
        2 => st.fail_link(e),
        _ => st.repair_link(e),
    }
}

/// Canonical form of an auxiliary arc: endpoint payloads + kind + weight
/// bits. Node/edge ids differ between the skeleton and a scratch build, but
/// the payloads (`OutNode(e)`, `InNode(e)`, `Source`, `Sink`, arc kinds)
/// identify arcs across both.
type Canon = (AuxNode, AuxNode, AuxArc, u64);

fn canon_engine(eng: &AuxEngine) -> Vec<Canon> {
    eng.enabled_arcs()
        .map(|(s, t, kind, w)| (s, t, kind, w.to_bits()))
        .collect()
}

fn canon_scratch(aux: &AuxGraph) -> Vec<Canon> {
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

/// A pair found over the engine must agree with the scratch oracle's pair
/// bit-for-bit: same feasibility, same total-cost bits, same physical
/// edges on each leg.
fn assert_matches_scratch(
    eng: &AuxEngine,
    scratch: &AuxGraph,
    ours: &Option<DisjointPair>,
    oracle: &Option<DisjointPair>,
    label: &str,
) {
    match (ours, oracle) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(
                a.total_cost.to_bits(),
                b.total_cost.to_bits(),
                "{label}: pair cost bits"
            );
            for leg in 0..2 {
                assert_eq!(
                    eng.physical_edges(&a.paths[leg]),
                    scratch.physical_edges(&b.paths[leg]),
                    "{label}: physical edges of leg {leg}"
                );
            }
        }
        (a, b) => panic!(
            "{label}: feasibility mismatch (engine {:?}, scratch {:?})",
            a.is_some(),
            b.is_some()
        ),
    }
}

/// Engine-refreshed graph == scratch build, and both CSR pair searches over
/// the engine == allocating pair search over the scratch graph.
#[allow(clippy::too_many_arguments)]
fn check_family(
    net: &WdmNetwork,
    st: &ResidualState,
    eng: &mut AuxEngine,
    arena: &mut SearchArena,
    s: NodeId,
    t: NodeId,
    spec: AuxSpec,
    ctx_label: &str,
) {
    eng.set_threshold(spec.threshold);
    eng.sync(net, st, s, t);
    let scratch = AuxGraph::build(net, st, s, t, spec);
    assert_eq!(
        eng.admitted_links(),
        scratch.admitted_links(),
        "{ctx_label}: admitted-link count"
    );
    assert_eq!(
        canon_engine(eng),
        canon_scratch(&scratch),
        "{ctx_label}: enabled arcs / weight bits"
    );

    // Both CSR searches — the f64 d-ary path and, whenever the dyadic
    // certificate holds, the scaled bucket path — must be bit-identical to
    // the allocating Suurballe over the scratch graph.
    let (aux_s, aux_t) = (eng.source(), eng.sink());
    let (flat_pair, int_pair) = {
        let (view, int, _pot) = eng.flat_parts();
        (
            arena.edge_disjoint_pair_flat(&view, aux_s, aux_t, || {}),
            int.map(|iw| arena.edge_disjoint_pair_flat_int(&view, &iw, None, aux_s, aux_t, || {})),
        )
    };
    let scratch_pair = edge_disjoint_pair_filtered(
        &scratch.graph,
        scratch.source,
        scratch.sink,
        |e| scratch.weight(e),
        |_| true,
    );
    assert_matches_scratch(
        eng,
        &scratch,
        &flat_pair,
        &scratch_pair,
        &format!("{ctx_label}: flat f64"),
    );
    if let Some(ip) = &int_pair {
        assert_matches_scratch(
            eng,
            &scratch,
            ip,
            &scratch_pair,
            &format!("{ctx_label}: flat int"),
        );
    }
}

#[test]
fn engine_equals_scratch_under_random_mutation_sequences() {
    for seed in 0..30u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xD1FF ^ seed);
        let net = random_net(&mut rng);
        let mut st = ResidualState::fresh(&net);
        let mut arena = SearchArena::new();
        let mut eng_gp = AuxEngine::new(&net, AuxSpec::g_prime());
        let mut eng_gc = AuxEngine::new(&net, AuxSpec::g_c(2.0, 0.5));
        let mut eng_grc = AuxEngine::new(&net, AuxSpec::g_rc(0.5));
        let mut theta = 0.5;
        for _step in 0..40 {
            for _ in 0..rng.gen_range(0..3) {
                random_op(&mut rng, &net, &mut st);
            }
            if rng.gen_bool(0.3) {
                theta = rng.gen_range(0.05..1.1);
            }
            let s = NodeId(rng.gen_range(0..net.node_count()) as u32);
            let t = NodeId(rng.gen_range(0..net.node_count()) as u32);
            if s == t {
                continue;
            }
            check_family(
                &net,
                &st,
                &mut eng_gp,
                &mut arena,
                s,
                t,
                AuxSpec::g_prime(),
                "G'",
            );
            check_family(
                &net,
                &st,
                &mut eng_gc,
                &mut arena,
                s,
                t,
                AuxSpec::g_c(2.0, theta),
                "G_c",
            );
            check_family(
                &net,
                &st,
                &mut eng_grc,
                &mut arena,
                s,
                t,
                AuxSpec::g_rc(theta),
                "G_rc",
            );
        }
    }
}

/// Quarter-integer link costs and free conversions make every aux weight a
/// dyadic rational below the scale cap, so the engine's integer certificate
/// must hold and the scaled bucket search must engage — and stay
/// bit-identical to the scratch oracle.
///
/// (Conversion costs must be 0 here: a conversion arc averages over all
/// allowed pairs *including* free identity pairs, so `m·c / k` with `m < k`
/// is generally non-dyadic for `c ≠ 0`.)
fn dyadic_net(rng: &mut ChaCha8Rng) -> WdmNetwork {
    let n = rng.gen_range(4..10usize);
    let w = 4usize;
    let mut b = NetworkBuilder::new(w);
    for _ in 0..n {
        let conv = match rng.gen_range(0..3) {
            0 => ConversionTable::None,
            1 => ConversionTable::Full { cost: 0.0 },
            _ => ConversionTable::Range {
                range: rng.gen_range(1..3),
                cost: 0.0,
            },
        };
        b.add_node(conv);
    }
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u != v && rng.gen_bool(0.45) {
                let mut set = WavelengthSet::empty();
                for l in 0..w {
                    if rng.gen_bool(0.7) {
                        set.insert(Wavelength(l as u8));
                    }
                }
                if set.is_empty() {
                    set.insert(Wavelength(0));
                }
                let cost = rng.gen_range(4..40) as f64 / 4.0;
                b.add_link_with(NodeId(u), NodeId(v), cost, set);
            }
        }
    }
    b.build()
}

#[test]
fn dyadic_costs_engage_certified_integer_path() {
    for seed in 0..10u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0DAD ^ seed);
        let net = dyadic_net(&mut rng);
        let mut st = ResidualState::fresh(&net);
        let mut arena = SearchArena::new();
        let mut eng_gp = AuxEngine::new(&net, AuxSpec::g_prime());
        let mut eng_grc = AuxEngine::new(&net, AuxSpec::g_rc(0.5));
        let mut theta = 0.5;
        for _step in 0..25 {
            for _ in 0..rng.gen_range(0..3) {
                random_op(&mut rng, &net, &mut st);
            }
            if rng.gen_bool(0.3) {
                theta = rng.gen_range(0.05..1.1);
            }
            let s = NodeId(rng.gen_range(0..net.node_count()) as u32);
            let t = NodeId(rng.gen_range(0..net.node_count()) as u32);
            if s == t {
                continue;
            }
            check_family(
                &net,
                &st,
                &mut eng_gp,
                &mut arena,
                s,
                t,
                AuxSpec::g_prime(),
                "dyadic G'",
            );
            assert!(eng_gp.int_certified(), "dyadic G' weights must certify");
            check_family(
                &net,
                &st,
                &mut eng_grc,
                &mut arena,
                s,
                t,
                AuxSpec::g_rc(theta),
                "dyadic G_rc",
            );
            assert!(eng_grc.int_certified(), "dyadic G_rc weights must certify");
        }
    }
}

/// Extreme cost ranges must *decertify* the integer path (scale overflow or
/// non-dyadic fractions) rather than route on clamped keys: the engine falls
/// back to the f64 flat search and still matches the scratch oracle
/// bit-for-bit. Regression for the weight-scaling overflow guard.
#[test]
fn extreme_cost_ranges_decertify_and_still_match() {
    // Case 1: huge dyadic costs — `cost << SCALE_SHIFT` exceeds the key cap.
    // Case 2: fine-grained non-dyadic costs (multiples of 0.1).
    for (case, cost_of) in [
        ("overflow", (|i: u32| 2048.0 + i as f64) as fn(u32) -> f64),
        (
            "non-dyadic",
            (|i: u32| 0.1 * (i + 1) as f64) as fn(u32) -> f64,
        ),
    ] {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB16C057);
        let w = 4usize;
        let mut b = NetworkBuilder::new(w);
        for _ in 0..6 {
            b.add_node(ConversionTable::Full { cost: 0.0 });
        }
        let mut i = 0u32;
        for u in 0..6u32 {
            for v in 0..6u32 {
                if u != v && rng.gen_bool(0.6) {
                    b.add_link_with(NodeId(u), NodeId(v), cost_of(i), WavelengthSet::full(w));
                    i += 1;
                }
            }
        }
        let net = b.build();
        let mut st = ResidualState::fresh(&net);
        let mut arena = SearchArena::new();
        let mut eng = AuxEngine::new(&net, AuxSpec::g_prime());
        for step in 0..10 {
            random_op(&mut rng, &net, &mut st);
            let s = NodeId(rng.gen_range(0..net.node_count()) as u32);
            let t = NodeId(rng.gen_range(0..net.node_count()) as u32);
            if s == t {
                continue;
            }
            check_family(
                &net,
                &st,
                &mut eng,
                &mut arena,
                s,
                t,
                AuxSpec::g_prime(),
                &format!("{case} step {step}"),
            );
            assert!(
                !eng.int_certified(),
                "{case}: extreme costs must decertify the integer path"
            );
        }
    }
}

/// The persistent-context public entry points agree with their one-shot
/// counterparts at every step of a mutation history (same thresholds,
/// probe counts and routes).
#[test]
fn persistent_ctx_entry_points_match_one_shot() {
    for seed in 0..15u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC7 ^ seed);
        let net = random_net(&mut rng);
        let mut st = ResidualState::fresh(&net);
        let mut ctx = RouterCtx::new();
        for _step in 0..25 {
            for _ in 0..rng.gen_range(0..4) {
                random_op(&mut rng, &net, &mut st);
            }
            let s = NodeId(rng.gen_range(0..net.node_count()) as u32);
            let t = NodeId(rng.gen_range(0..net.node_count()) as u32);
            if s == t {
                continue;
            }
            match (
                find_two_paths_mincog_ctx(&mut ctx, &net, &st, s, t, 2.0),
                find_two_paths_mincog(&net, &st, s, t, 2.0),
            ) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
                    assert_eq!(a.probes, b.probes);
                    assert_eq!(a.aux_paths, b.aux_paths);
                    assert_eq!(a.route, b.route);
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("mincog ctx/one-shot mismatch: {a:?} vs {b:?}"),
            }
            match (
                find_two_paths_joint_ctx(&mut ctx, &net, &st, s, t, 2.0),
                find_two_paths_joint(&net, &st, s, t, 2.0),
            ) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
                    assert_eq!(a.route, b.route);
                    assert_eq!(a.bottleneck_load.to_bits(), b.bottleneck_load.to_bits());
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("joint ctx/one-shot mismatch: {a:?} vs {b:?}"),
            }
        }
    }
}
