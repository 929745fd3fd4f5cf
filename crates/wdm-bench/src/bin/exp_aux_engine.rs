//! Experiment — incremental auxiliary-graph engine vs scratch rebuild.
//!
//! ```sh
//! cargo run --release -p wdm-bench --bin exp_aux_engine            # full
//! cargo run --release -p wdm-bench --bin exp_aux_engine -- --quick # smoke
//! ```
//!
//! For each network size, routes the same churn-interleaved request stream
//! two ways and reports ns/request:
//!
//! * **scratch** — the oracle pipeline: `AuxGraph::build` over the
//!   residual state, then the allocating Suurballe (`edge_disjoint_pair`);
//! * **csr**     — a persistent [`AuxEngine`] synced per request (only
//!   dirty links refreshed) searched by a reusable [`SearchArena`] over its
//!   CSR arrays: integer-scaled bucket-heap Dijkstra with warm Johnson
//!   potentials carried across requests.
//!
//! Instances use quarter-integer link costs and free conversions so the
//! integer certificate holds on every request (same topology distribution
//! and cost magnitudes as the continuous generator — the tiers stay
//! comparable with earlier baselines).
//!
//! Writes the machine-readable results to `BENCH_aux_engine.json` in the
//! working directory (the committed artifact lives at the repo root).

use rand::Rng;
use wdm_bench::{dyadic_connected_instance, rng, timed, Table};
use wdm_core::aux_engine::AuxEngine;
use wdm_core::aux_graph::{AuxGraph, AuxSpec};
use wdm_core::network::{ResidualState, WdmNetwork};
use wdm_core::wavelength::Wavelength;
use wdm_graph::suurballe::edge_disjoint_pair;
use wdm_graph::{EdgeId, NodeId, SearchArena};

#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct SizeResult {
    name: String,
    nodes: usize,
    links: usize,
    wavelengths: usize,
    requests: usize,
    scratch_ns_per_req: f64,
    csr_ns_per_req: f64,
    /// scratch / csr.
    csr_speedup: f64,
}

#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct BenchReport {
    bench: String,
    unit: String,
    sizes: Vec<SizeResult>,
}

/// Deterministic stationary churn: toggles scripted channels so the load
/// hovers around half the script (same scheme as the Criterion bench).
struct Churn {
    ops: Vec<(EdgeId, Wavelength)>,
    i: usize,
}

impl Churn {
    fn new(net: &WdmNetwork, count: usize, seed: u64) -> Self {
        let mut r = rng(seed);
        let ops = (0..count)
            .map(|_| {
                let e = EdgeId::from(r.gen_range(0..net.link_count()));
                let lambda = net.lambda(e);
                let nth = r.gen_range(0..lambda.count());
                (e, lambda.iter().nth(nth).expect("non-empty"))
            })
            .collect();
        Self { ops, i: 0 }
    }

    fn step(&mut self, net: &WdmNetwork, st: &mut ResidualState) {
        for _ in 0..2 {
            let (e, l) = self.ops[self.i % self.ops.len()];
            self.i += 1;
            if st.used(e).contains(l) {
                let _ = st.release(e, l);
            } else {
                let _ = st.occupy(net, e, l);
            }
        }
    }
}

fn requests(net: &WdmNetwork, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut r = rng(seed);
    (0..count)
        .map(|_| loop {
            let s = r.gen_range(0..net.node_count()) as u32;
            let t = r.gen_range(0..net.node_count()) as u32;
            if s != t {
                return (NodeId(s), NodeId(t));
            }
        })
        .collect()
}

/// One scratch-pipeline pass over the stream: (routes found, seconds).
fn scratch_pass(net: &WdmNetwork, stream: &[(NodeId, NodeId)], seed: u64) -> (usize, f64) {
    let mut st = ResidualState::fresh(net);
    let mut churn = Churn::new(net, 256, seed ^ 2);
    let mut found = 0usize;
    let (_, secs) = timed(|| {
        for &(s, t) in stream {
            churn.step(net, &mut st);
            let aux = AuxGraph::build(net, &st, s, t, AuxSpec::g_prime());
            if edge_disjoint_pair(&aux.graph, aux.source, aux.sink, |e| aux.weight(e)).is_some() {
                found += 1;
            }
        }
    });
    (found, secs)
}

/// One CSR-pipeline pass over the identical stream (fresh engine, so the
/// skeleton build is charged to the pass, as in production start-up):
/// persistent engine synced per request, searched through its CSR arrays —
/// integer bucket-heap Dijkstra with warm Johnson potentials when the
/// dyadic certificate holds (always, on these instances), f64 flat
/// fallback otherwise.
fn csr_pass(net: &WdmNetwork, stream: &[(NodeId, NodeId)], seed: u64) -> (usize, f64) {
    let mut st = ResidualState::fresh(net);
    let mut churn = Churn::new(net, 256, seed ^ 2);
    let mut eng = AuxEngine::new(net, AuxSpec::g_prime());
    eng.set_warm_potentials(true);
    let mut arena = SearchArena::new();
    let mut found = 0usize;
    let (_, secs) = timed(|| {
        for &(s, t) in stream {
            churn.step(net, &mut st);
            eng.sync(net, &st, s, t);
            eng.warm_prepare(net);
            let (aux_s, aux_t) = (eng.source(), eng.sink());
            let (view, int, pot) = eng.flat_parts();
            let pair = match int {
                Some(iw) => {
                    arena.edge_disjoint_pair_flat_int(&view, &iw, Some(pot), aux_s, aux_t, || {})
                }
                None => arena.edge_disjoint_pair_flat(&view, aux_s, aux_t, || {}),
            };
            if pair.is_some() {
                found += 1;
            }
        }
    });
    (found, secs)
}

fn measure(n: usize, d: usize, w: usize, reqs: usize, passes: usize, seed: u64) -> SizeResult {
    let mut r = rng(seed);
    let net = dyadic_connected_instance(&mut r, n, d, w);
    let stream = requests(&net, reqs, seed ^ 1);

    // Alternate the pipelines and keep each one's fastest pass: the minimum
    // is the run least disturbed by other tenants of the machine, so the
    // speedup ratio is stable enough for CI to gate on (a single-pass
    // measurement swings ±25 % on a busy box).
    let mut scratch_secs = f64::INFINITY;
    let mut csr_secs = f64::INFINITY;
    for _ in 0..passes {
        let (found_scratch, ss) = scratch_pass(&net, &stream, seed);
        let (found_csr, cs) = csr_pass(&net, &stream, seed);
        assert_eq!(
            found_scratch, found_csr,
            "the CSR pipeline must route identically"
        );
        scratch_secs = scratch_secs.min(ss);
        csr_secs = csr_secs.min(cs);
    }

    let scratch_ns = scratch_secs / reqs as f64 * 1e9;
    let csr_ns = csr_secs / reqs as f64 * 1e9;
    SizeResult {
        name: format!("n{n}_d{d}_w{w}"),
        nodes: n,
        links: net.link_count(),
        wavelengths: w,
        requests: reqs,
        scratch_ns_per_req: scratch_ns,
        csr_ns_per_req: csr_ns,
        csr_speedup: scratch_ns / csr_ns,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (reqs, passes) = if quick { (200, 3) } else { (2000, 5) };

    println!("aux-engine — scratch rebuild vs CSR engine (ns/request)\n");
    let mut table = Table::new(&["size", "m", "W", "scratch ns", "csr ns", "csr speedup"]);
    let mut sizes = Vec::new();
    for &(n, d, w) in &[(50usize, 4usize, 8usize), (100, 4, 8), (200, 4, 8)] {
        let res = measure(n, d, w, reqs, passes, 0xA0 + n as u64);
        table.row(vec![
            res.name.clone(),
            res.links.to_string(),
            res.wavelengths.to_string(),
            format!("{:.0}", res.scratch_ns_per_req),
            format!("{:.0}", res.csr_ns_per_req),
            format!("{:.2}x", res.csr_speedup),
        ]);
        sizes.push(res);
    }
    table.print();

    let report = BenchReport {
        bench: String::from("aux_engine"),
        unit: String::from("ns_per_request"),
        sizes,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_aux_engine.json", &json).expect("write BENCH_aux_engine.json");
    println!("\nwrote BENCH_aux_engine.json");
}
