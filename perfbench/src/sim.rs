//! `sim_nsfnet_churn`: `run_sim` with the §4.2 joint policy on NSFNET,
//! 16 λ, 60 Erlang, link failures and threshold-triggered
//! reconfiguration.
//!
//! Teardowns, failures and transaction rollbacks dirty the aux-engine
//! state, so refresh work dominates, and the §4.1 threshold ladder issues
//! many Suurballe searches per routing call. Blocking, route cost and
//! reconfiguration counts are the paper's quality claims; they are
//! deterministic per seed and checked to repeat exactly.

use std::time::Instant;

use wdm_core::journal::NoopSink;
use wdm_core::network::{NetworkBuilder, WdmNetwork};
use wdm_sim::parallel::replication_seeds;
use wdm_sim::prelude::{run_sim, Metrics, Policy, SimConfig, Simulator, TrafficModel};
use wdm_telemetry::{SpanBuffer, TelemetrySink};

use crate::layers;
use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, quantile, ratio, secs_since, time_into};
use crate::Args;

const WAVELENGTHS: usize = 16;
/// Independent simulations per run, each on its own seed derived from
/// `--seed`; quality metrics pool all of them, so they are deterministic
/// per `--seed` and average out one simulation's luck.
const REPLICATIONS: usize = 4;
/// Set-up repetitions timed before the first simulation and again before
/// each simulation; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 250;

fn config(seed: u64) -> SimConfig {
    SimConfig {
        traffic: TrafficModel::new(1.0, 60.0),
        duration: 3000.0,
        failure_rate: 0.05,
        mean_repair: 10.0,
        reconfig_threshold: Some(0.8),
        ..SimConfig::default_with(
            Policy::Joint {
                a: std::f64::consts::E,
            },
            seed,
        )
    }
}

fn network() -> WdmNetwork {
    NetworkBuilder::nsfnet(WAVELENGTHS).build()
}

/// The simulator's own invariants on one run's metrics.
fn check_metrics(out: &mut Outcome, seed: u64, m: &Metrics) {
    out.check(m.offered == m.admitted + m.blocked, || {
        format!("seed {seed}: offered != admitted + blocked")
    });
    out.check(m.peak_network_load <= 1.0, || {
        format!("seed {seed}: peak network load above 1")
    });
    out.check(m.offered > 0 && m.admitted > 0, || {
        format!("seed {seed}: nothing was offered or admitted")
    });
}

/// Quality pooled over the replications: (accepted share, mean cost,
/// blocking, reconfiguration events per replication, moved per event).
fn pooled(runs: &[Metrics]) -> (f64, f64, f64, f64, f64) {
    let sum = |f: fn(&Metrics) -> f64| runs.iter().map(f).sum::<f64>();
    let offered = sum(|m| m.offered as f64);
    let admitted = sum(|m| m.admitted as f64);
    let events = sum(|m| m.reconfig_events as f64);
    (
        admitted / offered,
        sum(|m| m.total_route_cost) / admitted,
        sum(|m| m.blocked as f64) / offered,
        events / runs.len() as f64,
        ratio(sum(|m| m.reconfig_moved as f64), events),
    )
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seeds = replication_seeds(args.seed, REPLICATIONS);
    let mut setup_s = Vec::new();
    let set_up = || {
        let net = network();
        drop(Simulator::new(&net, config(seeds[0])));
        net
    };
    let net = time_into(&mut setup_s, SETUP_REPS, set_up);

    // Every replication once, in order; then cycle through them again
    // until the time is spent, each repeat checked against its first run.
    // A replication's time is the best of its repeats, which discounts
    // interference from other work on the host.
    let started = Instant::now();
    let mut firsts: Vec<Metrics> = Vec::new();
    let mut best_s = vec![f64::INFINITY; REPLICATIONS];
    let mut offered = 0u64;
    let mut k = 0;
    let budget = if args.trace { 0.0 } else { args.seconds };
    let mut last_s = 0.0;
    while k < 2 * REPLICATIONS || secs_since(started) + last_s <= budget {
        let (i, seed) = (k % REPLICATIONS, seeds[k % REPLICATIONS]);
        time_into(&mut setup_s, SETUP_REPS, set_up);
        let t0 = Instant::now();
        let m = run_sim(&net, config(seed));
        last_s = secs_since(t0);
        best_s[i] = best_s[i].min(last_s);
        offered += m.offered;
        if k < REPLICATIONS {
            check_metrics(&mut out, seed, &m);
            firsts.push(m);
        } else {
            out.check(m == firsts[i], || {
                format!("seed {seed}: a repeated run gave different metrics")
            });
        }
        k += 1;
    }
    out.attempted = offered;
    let (accept, cost, blocking, reconfigs, moved) = pooled(&firsts);

    if args.trace {
        traced(&mut out, &net, seeds[0], &firsts[0]);
        out.set("blocking_prob", blocking);
        out.set("reconfigs", reconfigs);
        out.set("reconfig.moved_per_event", moved);
        return out;
    }
    let work: f64 = firsts.iter().map(|m| m.offered as f64).sum();
    out.set("throughput_per_s", work / best_s.iter().sum::<f64>());
    out.set("latency_p50_ms", quantile(&best_s, 0.5) * 1e3);
    out.set("accept_ratio", accept);
    out.set("mean_route_cost", cost);
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", peak_rss_mb());
    println!(
        "sim_nsfnet_churn: {k} simulations over {REPLICATIONS} seeds; latency is per simulation, \
         best of its repeats; blocking {blocking:.5}, reconfigurations per simulation {reconfigs}"
    );
    out
}

/// The first replication again, through `Simulator::with_observability`
/// with a live recorder and span buffer; its metrics must equal the
/// untraced run's. Traced and untraced runs alternate twice and each side
/// reports its best, so a drift in host speed is not taken for the
/// tracing tax. The layer figures are the last traced run's.
fn traced(out: &mut Outcome, net: &WdmNetwork, seed: u64, untraced: &Metrics) {
    layers::aux_build_ms(out, net);
    let (mut plain_s, mut traced_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..2 {
        let t0 = Instant::now();
        run_sim(net, config(seed));
        plain_s = plain_s.min(secs_since(t0));

        let sink = TelemetrySink::new();
        let spans = SpanBuffer::new();
        let t0 = Instant::now();
        let m =
            Simulator::with_observability(net, config(seed), &sink, NoopSink, &spans, None).run();
        let run_s = secs_since(t0);
        out.check(m == *untraced, || {
            "traced simulation metrics differ from the untraced run's".into()
        });
        layers::routing_core(
            out,
            &sink.snapshot().counters,
            &layers::phase_totals(&spans.records()),
            run_s * 1e9,
        );
        traced_s = traced_s.min(run_s);
        out.attempted += 2 * untraced.offered;
    }
    out.set("trace.overhead_ratio", traced_s / plain_s);
}
