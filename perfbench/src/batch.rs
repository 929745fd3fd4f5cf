//! `batch_mesh200`: the default `wdm batch` path, `run_batch` with
//! `BatchConfig::serial(CostOnly)`, on a 200-node, 1600-link dyadic mesh
//! with W = 8 and 1000 uniform random demands.
//!
//! Each demand gets a fresh routing context inside `provision_batch`, so
//! context and skeleton construction dominate; channels are only ever
//! occupied (read-mostly) and no serve layer runs. The traced run replays
//! the same demand list through `Policy::route` (fresh context per demand)
//! and `Policy::route_ctx` (one reused context), which must reproduce
//! `run_batch`'s outcome, and reads the routing layers from the reused
//! context's recorder and span buffer.

use std::time::Instant;

use wdm_core::aux_engine::RouterCtx;
use wdm_core::network::{ResidualState, WdmNetwork};
use wdm_sim::parallel::replication_seeds;
use wdm_sim::prelude::{run_batch, BatchConfig, BatchOutcome, Demand, Policy, ProvisionedRoute};
use wdm_sim::traffic::random_pair;
use wdm_telemetry::{NoopRecorder, NoopTracer, Recorder, SpanBuffer, TelemetrySink, Tracer};

use crate::layers;
use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, quantile, secs_since, time_into};
use crate::Args;

const NODES: usize = 200;
const DEGREE: usize = 8;
const WAVELENGTHS: usize = 8;
const DEMANDS: usize = 1000;
const POLICY: Policy = Policy::CostOnly;
/// Network and demand sets per run, each from its own seed derived from
/// `--seed`: pooling two keeps one random graph's cost from deciding the
/// run's figures.
const INSTANCES: usize = 2;
/// Untraced/traced pairs of warm replays in the traced run.
const WARM_PASSES: usize = 2;
/// Set-up repetitions timed before the first job and again before each
/// job; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 10;

type Instance = (WdmNetwork, Vec<Demand>, ResidualState);

fn instance(seed: u64) -> Instance {
    let mut rng = wdm_bench::rng(seed);
    let net = wdm_bench::dyadic_connected_instance(&mut rng, NODES, DEGREE, WAVELENGTHS);
    let demands = (0..DEMANDS)
        .map(|_| {
            let (src, dst) = random_pair(NODES, &mut rng);
            Demand { src, dst }
        })
        .collect();
    let state = ResidualState::fresh(&net);
    (net, demands, state)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seeds = replication_seeds(args.seed, INSTANCES);
    let mut setup_s = Vec::new();
    let set_up = || {
        seeds
            .iter()
            .map(|&s| instance(s))
            .collect::<Vec<Instance>>()
    };
    let instances = time_into(&mut setup_s, SETUP_REPS, set_up);
    if args.trace {
        let (net, demands, fresh) = &instances[0];
        traced(&mut out, net, demands, fresh);
        return out;
    }

    // Whole batch jobs, cycling through the instances until the time is
    // spent; at least two rounds, so that every repeat can be checked
    // against the instance's first outcome. An instance's job time is the
    // best of its repeats, which discounts interference from other work
    // on the host.
    let started = Instant::now();
    let mut firsts: Vec<BatchOutcome> = Vec::new();
    let mut best_s = vec![f64::INFINITY; INSTANCES];
    let (mut k, mut last_s) = (0, 0.0);
    while k < 2 * INSTANCES || secs_since(started) + last_s <= args.seconds {
        let i = k % INSTANCES;
        let (net, demands, fresh) = &instances[i];
        time_into(&mut setup_s, SETUP_REPS, set_up);
        let t0 = Instant::now();
        let outcome = run_batch(net, fresh, demands, BatchConfig::serial(POLICY));
        last_s = secs_since(t0);
        best_s[i] = best_s[i].min(last_s);
        out.attempted += demands.len() as u64;
        if k < INSTANCES {
            check_outcome(&mut out, net, demands, &outcome);
            firsts.push(outcome);
        } else {
            out.check(same_outcome(&firsts[i], &outcome), || {
                format!("instance {i}: a repeated run_batch gave a different outcome")
            });
        }
        k += 1;
    }
    let offered = (INSTANCES * DEMANDS) as f64;
    let provisioned: usize = firsts.iter().map(|o| o.provisioned.len()).sum();
    let total_cost: f64 = firsts.iter().map(|o| o.total_cost).sum();
    out.set("throughput_per_s", offered / best_s.iter().sum::<f64>());
    out.set("latency_p50_ms", quantile(&best_s, 0.5) * 1e3);
    out.set("accept_ratio", provisioned as f64 / offered);
    out.set("mean_route_cost", total_cost / provisioned.max(1) as f64);
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", peak_rss_mb());
    println!(
        "batch_mesh200: {k} jobs over {INSTANCES} instances of {DEMANDS} demands; latency is per \
         job, best of its repeats"
    );
    out
}

/// Output checks on one batch outcome: every demand decided once, every
/// route a valid, edge-disjoint protected pair whose cost matches the
/// network, and replaying the routes' channels on a fresh state
/// reproduces the outcome's final state.
fn check_outcome(out: &mut Outcome, net: &WdmNetwork, demands: &[Demand], o: &BatchOutcome) {
    let mut seen = vec![false; demands.len()];
    for &i in o.provisioned.iter().map(|(i, _)| i).chain(&o.rejected) {
        out.check(!std::mem::replace(&mut seen[i], true), || {
            format!("demand {i} decided twice")
        });
    }
    out.check(seen.iter().all(|&s| s), || {
        "a demand was never decided".into()
    });

    let mut replay = ResidualState::fresh(net);
    let mut cost = 0.0;
    for (i, route) in &o.provisioned {
        let ProvisionedRoute::Protected(r) = route else {
            out.check(false, || format!("demand {i} was provisioned unprotected"));
            continue;
        };
        let d = demands[*i];
        out.check(r.primary.src == d.src && r.primary.dst == d.dst, || {
            format!("demand {i}: route endpoints differ from the demand")
        });
        out.check(r.is_edge_disjoint(), || {
            format!("demand {i}: primary and backup share a link")
        });
        for leg in [&r.primary, &r.backup] {
            out.check(leg.validate(net, &replay).is_ok(), || {
                format!("demand {i}: a leg is invalid on the replayed state")
            });
            out.check((leg.recompute_cost(net) - leg.cost).abs() < 1e-6, || {
                format!("demand {i}: a leg's cost does not match the network")
            });
        }
        out.check(route.occupy(net, &mut replay).is_ok(), || {
            format!("demand {i}: replaying its channels failed")
        });
        cost += route.total_cost();
    }
    out.check(replay.semantic_hash() == o.state.semantic_hash(), || {
        "replayed channels do not reproduce the outcome's state hash".into()
    });
    out.check((cost - o.total_cost).abs() < 1e-6 * cost.max(1.0), || {
        "outcome total cost is not the sum of its routes".into()
    });
}

fn same_outcome(a: &BatchOutcome, b: &BatchOutcome) -> bool {
    a.provisioned == b.provisioned
        && a.rejected == b.rejected
        && a.total_cost == b.total_cost
        && a.state.semantic_hash() == b.state.semantic_hash()
}

/// One pass over the demands on a private state, routing each with
/// `route` and occupying what it returns. Returns per-call route times in
/// microseconds, the pass's wall time in seconds, and the outcome as
/// `(accepted demand indices, total cost, final state hash)`.
fn replay(
    net: &WdmNetwork,
    demands: &[Demand],
    mut route: impl FnMut(&ResidualState, Demand) -> Option<ProvisionedRoute>,
) -> (Vec<f64>, f64, (Vec<usize>, f64, u64)) {
    let mut state = ResidualState::fresh(net);
    let mut call_us = Vec::with_capacity(demands.len());
    let mut accepted = Vec::new();
    let mut cost = 0.0;
    let started = Instant::now();
    for (i, &d) in demands.iter().enumerate() {
        let t0 = Instant::now();
        let routed = route(&state, d);
        call_us.push(secs_since(t0) * 1e6);
        if let Some(r) = routed {
            r.occupy(net, &mut state)
                .expect("a route computed on this state occupies it");
            cost += r.total_cost();
            accepted.push(i);
        }
    }
    let wall = secs_since(started);
    (call_us, wall, (accepted, cost, state.semantic_hash()))
}

fn warm_replay<R: Recorder, T: Tracer>(
    net: &WdmNetwork,
    demands: &[Demand],
    ctx: &mut RouterCtx<R, T>,
) -> (Vec<f64>, f64, (Vec<usize>, f64, u64)) {
    replay(net, demands, |st, d| {
        POLICY.route_ctx(ctx, net, st, d.src, d.dst).ok()
    })
}

fn traced(out: &mut Outcome, net: &WdmNetwork, demands: &[Demand], fresh: &ResidualState) {
    layers::aux_build_ms(out, net);

    let t0 = Instant::now();
    let batch = run_batch(net, fresh, demands, BatchConfig::serial(POLICY));
    let batch_s = secs_since(t0);
    check_outcome(out, net, demands, &batch);
    let expect = (
        batch
            .provisioned
            .iter()
            .map(|(i, _)| *i)
            .collect::<Vec<_>>(),
        batch.total_cost,
        batch.state.semantic_hash(),
    );

    let (cold_us, _, cold) = replay(net, demands, |st, d| {
        POLICY.route(net, st, d.src, d.dst).ok()
    });
    out.check(cold == expect, || {
        "cold replay outcome differs from run_batch's".into()
    });

    // Untraced and traced warm passes alternate; each side reports its
    // best pass, so the tracing tax is not confused with warm-up order.
    let (mut warm_s, mut warm_us, mut traced_s) = (f64::INFINITY, Vec::new(), f64::INFINITY);
    let mut layer_reads = None;
    for _ in 0..WARM_PASSES {
        let (us, s, o) = warm_replay(
            net,
            demands,
            &mut RouterCtx::<NoopRecorder, NoopTracer>::new(),
        );
        out.check(o == expect, || {
            "warm replay outcome differs from run_batch's".into()
        });
        if s < warm_s {
            (warm_s, warm_us) = (s, us);
        }
        let sink = TelemetrySink::new();
        let spans = SpanBuffer::new();
        let (_, s, o) = warm_replay(
            net,
            demands,
            &mut RouterCtx::with_recorder_and_tracer(&sink, &spans),
        );
        out.check(o == expect, || {
            "traced warm replay outcome differs from run_batch's".into()
        });
        traced_s = traced_s.min(s);
        layer_reads = Some((
            sink.snapshot().counters,
            layers::phase_totals(&spans.records()),
        ));
    }
    out.attempted = (2 + 2 * WARM_PASSES as u64) * demands.len() as u64;

    let (counters, phase_ns) = layer_reads.expect("at least one warm pass");
    layers::routing_core(out, &counters, &phase_ns, batch_s * 1e9);
    out.set("route.cold_us.p50", quantile(&cold_us, 0.5));
    out.set("route.warm_us.p50", quantile(&warm_us, 0.5));
    out.set("route.warm_us.p99", quantile(&warm_us, 0.99));
    out.set("batch.ctx_overhead_share", 1.0 - warm_s / batch_s);
    out.set(
        "blocking_prob",
        batch.rejected.len() as f64 / demands.len() as f64,
    );
    out.set("trace.overhead_ratio", traced_s / warm_s);
    println!(
        "batch_mesh200 traced: run_batch {batch_s:.3} s, warm replay {warm_s:.3} s, \
         traced warm replay {traced_s:.3} s; shares are over run_batch wall time"
    );
}
