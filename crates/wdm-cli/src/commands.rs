//! Subcommand implementations.

use crate::args::Args;
use crate::netio::{emit, load_network, render_network};
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use wdm_core::conversion::ConversionTable;
use wdm_core::load::load_snapshot;
use wdm_core::network::{NetworkBuilder, ResidualState, WdmNetwork};
use wdm_graph::traverse::{edge_connectivity, is_strongly_connected};
use wdm_graph::NodeId;
use wdm_sim::batch::{full_mesh_demands, BatchOrder};
use wdm_sim::metrics::mean_std;
use wdm_sim::parallel::{replication_seeds, run_replications, run_replications_telemetry};
use wdm_sim::policy::{Policy, ProvisionedRoute};
use wdm_sim::prelude::NoopRecorder;
use wdm_sim::schedule::{ScheduleMode, DEFAULT_SHARDS};
use wdm_sim::sim::{run_batch_recorded, BatchConfig, SimConfig, Simulator};
use wdm_sim::traffic::TrafficModel;
use wdm_telemetry::{
    FlightDump, FlightRecorder, Phase, SpanBuffer, TelemetrySink, DEFAULT_ANOMALY_THRESHOLD,
    DEFAULT_ANOMALY_WINDOW, DEFAULT_FLIGHT_CAPACITY,
};

/// On-disk format of `wdm simulate --journal` / `wdm replay`: the network
/// and journal are self-contained, so replay needs no other inputs.
#[derive(serde::Serialize, serde::Deserialize)]
struct JournalFile {
    /// The network the journal was recorded on.
    network: WdmNetwork,
    /// The base seed the simulation ran with (provenance only).
    seed: u64,
    /// The provisioning policy's name (provenance only).
    policy: String,
    /// The full simulation configuration (base seed, not the derived
    /// replication seed), so `wdm replay --telemetry` can re-run the
    /// recorded simulation.
    config: SimConfig,
    /// Checkpoint + ordered event log.
    journal: wdm_core::journal::StateJournal,
    /// [`ResidualState::semantic_hash`] of the live run's final state.
    final_hash: u64,
}

/// On-disk format of `wdm simulate --trace` / `wdm trace analyze`: the
/// flight-recorder dump (per-request phase latencies, outcomes, journal
/// correlation) plus enough provenance to label the analysis.
#[derive(serde::Serialize, serde::Deserialize)]
struct TraceFile {
    /// The provisioning policy's name.
    policy: String,
    /// The base seed the simulation ran with.
    seed: u64,
    /// Phase names in `Phase as usize` index order (the key for every
    /// record's `phase_ns` vector).
    phases: Vec<String>,
    /// Requests offered over the whole run (the ring may hold fewer).
    offered: u64,
    /// The flight-recorder dump.
    flight: FlightDump,
}

/// Parses a `--policy` value.
pub fn parse_policy(spec: &str) -> Result<Policy, String> {
    let a = std::f64::consts::E;
    Ok(match spec {
        "cost-only" | "cost" => Policy::CostOnly,
        "load-only" | "load" => Policy::LoadOnly { a },
        "joint" => Policy::Joint { a },
        "joint-as-printed" => Policy::JointAsPrinted { a },
        "two-step" => Policy::TwoStep,
        "unrefined" => Policy::Unrefined,
        "ksp" => Policy::Ksp { k: 16 },
        "node-disjoint" => Policy::NodeDisjoint,
        "primary-only" => Policy::PrimaryOnly,
        other => return Err(format!("unknown policy '{other}'")),
    })
}

/// Parses a `--conversion` value (`auto` picks cost = cheapest link).
fn parse_conversion(spec: &str, min_link_cost: f64) -> Result<ConversionTable, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    Ok(match parts.as_slice() {
        ["none"] => ConversionTable::None,
        ["full", "auto"] => ConversionTable::Full {
            cost: min_link_cost,
        },
        ["full", c] => ConversionTable::Full {
            cost: c.parse().map_err(|e| format!("bad cost: {e}"))?,
        },
        ["range", k, c] => ConversionTable::Range {
            range: k.parse().map_err(|e| format!("bad range: {e}"))?,
            cost: c.parse().map_err(|e| format!("bad cost: {e}"))?,
        },
        _ => return Err(format!("unknown conversion spec '{spec}'")),
    })
}

/// `wdm topology <preset>`.
pub fn topology(args: &Args) -> Result<(), String> {
    let preset = args
        .positional(0)
        .ok_or("missing topology preset (nsfnet, arpanet, ring:N, grid:WxH, waxman:N)")?;
    let w: usize = args.get_or("wavelengths", 8)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);

    let (topo, scale) = match preset {
        "nsfnet" => (wdm_graph::topology::nsfnet(), 0.01),
        "arpanet" => (wdm_graph::topology::arpanet_like(), 0.01),
        p if p.starts_with("ring:") => {
            let n: usize = p[5..].parse().map_err(|e| format!("bad ring size: {e}"))?;
            (wdm_graph::topology::ring(n, 100.0), 0.01)
        }
        p if p.starts_with("grid:") => {
            let (gw, gh) = p[5..]
                .split_once('x')
                .ok_or("grid wants WxH, e.g. grid:4x4")?;
            let gw: usize = gw.parse().map_err(|e| format!("bad grid width: {e}"))?;
            let gh: usize = gh.parse().map_err(|e| format!("bad grid height: {e}"))?;
            (wdm_graph::topology::grid(gw, gh, false, 100.0), 0.01)
        }
        p if p.starts_with("waxman:") => {
            let n: usize = p[7..].parse().map_err(|e| format!("bad node count: {e}"))?;
            (
                wdm_graph::topology::waxman(n, 0.9, 0.25, 1000.0, &mut rng),
                0.01,
            )
        }
        other => return Err(format!("unknown preset '{other}'")),
    };

    // Cheapest link (after scaling) for conv=full:auto.
    let min_cost = topo
        .edge_ids()
        .map(|e| topo.weight(e) * scale)
        .fold(f64::INFINITY, f64::min);
    let conv = parse_conversion(args.get("conversion").unwrap_or("full:auto"), min_cost)?;
    let net = NetworkBuilder::from_topology(&topo, w, conv, scale).build();

    let format = args.get("format").unwrap_or("wdm");
    let rendered = render_network(&net, format)?;
    emit(args.get("out"), &rendered)
}

/// `wdm info`.
pub fn info(args: &Args) -> Result<(), String> {
    let net = load_network(args.require("net")?)?;
    let g = net.graph();
    let n = net.node_count();
    println!("nodes            {n}");
    println!("directed links   {}", net.link_count());
    println!("wavelengths      {}", net.num_wavelengths());
    println!(
        "total channels   {}",
        (0..net.link_count())
            .map(|i| net.capacity(wdm_graph::EdgeId::from(i)))
            .sum::<usize>()
    );
    println!("max degree       {}", g.max_degree());
    println!("strongly conn.   {}", is_strongly_connected(g));
    if let Some(ap) = wdm_graph::johnson::johnson_all_pairs(g, |e| net.min_link_cost(e)) {
        if let (Some(d), Some(m)) = (ap.diameter(), ap.mean_distance()) {
            println!("cost diameter    {d:.1}");
            println!("mean pair cost   {m:.1}");
        }
    }
    println!(
        "ratio premise    {}",
        if net.satisfies_ratio_premise() {
            "satisfied (Theorem 2 applies)"
        } else {
            "violated"
        }
    );
    // Robustness: min edge connectivity over a sample of pairs (all pairs
    // for small nets).
    let mut min_conn = usize::MAX;
    let mut worst = (0u32, 0u32);
    for s in 0..n as u32 {
        for t in 0..n as u32 {
            if s != t {
                let k = edge_connectivity(g, NodeId(s), NodeId(t));
                if k < min_conn {
                    min_conn = k;
                    worst = (s, t);
                }
            }
        }
    }
    println!(
        "min edge-conn.   {min_conn} (pair {} -> {}) {}",
        worst.0,
        worst.1,
        if min_conn >= 2 {
            "- robust routing feasible everywhere"
        } else {
            "- some pairs cannot be protected"
        }
    );
    Ok(())
}

/// `wdm route`.
pub fn route(args: &Args) -> Result<(), String> {
    let net = load_network(args.require("net")?)?;
    let s: u32 = args.require_parsed("from")?;
    let t: u32 = args.require_parsed("to")?;
    let n = net.node_count() as u32;
    if s >= n || t >= n {
        return Err(format!(
            "node ids must be in 0..{n} (got --from {s} --to {t})"
        ));
    }
    let policy = parse_policy(args.get("policy").unwrap_or("cost-only"))?;
    let state = ResidualState::fresh(&net);
    let routed = policy
        .route(&net, &state, NodeId(s), NodeId(t))
        .map_err(|e| format!("routing failed: {e}"))?;

    if args.flag("json") {
        let json = serde_json::to_string_pretty(&routed).map_err(|e| e.to_string())?;
        println!("{json}");
        return Ok(());
    }
    print_route(&net, &routed);
    Ok(())
}

fn print_route(net: &WdmNetwork, routed: &ProvisionedRoute) {
    let print_leg = |name: &str, slp: &wdm_core::semilightpath::Semilightpath| {
        println!(
            "{name}: cost {:.2}, {} hops, {} conversions",
            slp.cost,
            slp.len(),
            slp.conversion_count()
        );
        for hop in &slp.hops {
            let (u, v) = net.endpoints(hop.edge);
            println!("  {u} -> {v} on {}", hop.wavelength);
        }
    };
    match routed {
        ProvisionedRoute::Protected(r) => {
            print_leg("primary", &r.primary);
            print_leg("backup ", &r.backup);
            println!("total cost {:.2}", r.total_cost());
        }
        ProvisionedRoute::Unprotected(p) => {
            print_leg("route  ", p);
            println!("(unprotected)");
        }
    }
}

/// `wdm simulate`.
pub fn simulate(args: &Args) -> Result<(), String> {
    let net = load_network(args.require("net")?)?;
    let erlangs: f64 = args.require_parsed("erlangs")?;
    let duration: f64 = args.require_parsed("duration")?;
    let holding: f64 = args.get_or("holding", 10.0)?;
    // Negated comparisons are deliberate: NaN must be rejected too.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(erlangs > 0.0) || !(duration > 0.0) || !(holding > 0.0) {
        return Err("erlangs, duration and holding must all be positive".into());
    }
    let policy = parse_policy(args.get("policy").unwrap_or("cost-only"))?;
    let seed: u64 = args.get_or("seed", 1)?;
    let reps: usize = args.get_or("reps", 1)?;
    let failure_rate: f64 = args.get_or("failure-rate", 0.0)?;
    let repair: f64 = args.get_or("repair", 20.0)?;
    let reconfig: f64 = args.get_or("reconfig", 0.0)?;

    let cfg = SimConfig {
        policy,
        traffic: TrafficModel::new(erlangs / holding, holding),
        duration,
        failure_rate,
        mean_repair: repair,
        reconfig_threshold: (reconfig > 0.0).then_some(reconfig),
        seed,
        switchover_time: 0.001,
        setup_time_per_hop: 0.05,
    };
    // Seed i is a pure function of (base seed, i) — identical to the serial
    // and experiment-binary derivations, so replication streams line up
    // across tools.
    let seeds = replication_seeds(seed, reps);
    let telemetry_mode = match args.get("telemetry") {
        None => None,
        Some("json") => Some("json"),
        Some("summary") => Some("summary"),
        Some(other) => return Err(format!("--telemetry wants json|summary, got '{other}'")),
    };
    let journal_path = args.get("journal");
    let trace_path = args.get("trace");
    if journal_path.is_some() || trace_path.is_some() {
        let opt = if journal_path.is_some() {
            "--journal"
        } else {
            "--trace"
        };
        if reps != 1 {
            return Err(format!("{opt} wants --reps 1 (one file describes one run)"));
        }
        if telemetry_mode.is_some() {
            return Err(format!("{opt} cannot be combined with --telemetry"));
        }
    }
    let (runs, telemetry) = if journal_path.is_some() || trace_path.is_some() {
        // The recorded run uses the same derived seed as replication 0, so
        // the metrics printed below are identical to the plain invocation.
        let run_cfg = SimConfig {
            seed: seeds[0],
            ..cfg
        };
        // Ctrl-C on a recorded run is a graceful interrupt, not a kill:
        // the simulator stops at the next event boundary and the journal
        // written below still replays with `wdm replay --verify`.
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        install_sigint_bridge(std::sync::Arc::clone(&stop));
        let mut journal = wdm_core::journal::StateJournal::new(ResidualState::fresh(&net));
        let (metrics, final_state, flight) = if trace_path.is_some() {
            let flight_cap: usize = args.get_or("flight-cap", DEFAULT_FLIGHT_CAPACITY)?;
            let tracer = SpanBuffer::new();
            let flight = FlightRecorder::with_config(
                flight_cap,
                DEFAULT_ANOMALY_WINDOW,
                DEFAULT_ANOMALY_THRESHOLD,
            );
            // The journal is driven even without --journal so every flight
            // record's journal_seq is meaningful correlation, not zero.
            let mut sim = Simulator::with_observability(
                &net,
                run_cfg,
                NoopRecorder,
                &mut journal,
                &tracer,
                Some(&flight),
            );
            sim.set_stop_flag(std::sync::Arc::clone(&stop));
            let (metrics, final_state) = sim.run_into();
            (metrics, final_state, Some(flight))
        } else {
            let mut sim =
                Simulator::with_recorder_and_journal(&net, run_cfg, NoopRecorder, &mut journal);
            sim.set_stop_flag(std::sync::Arc::clone(&stop));
            let (metrics, final_state) = sim.run_into();
            (metrics, final_state, None)
        };
        if stop.load(std::sync::atomic::Ordering::SeqCst) {
            eprintln!(
                "interrupted: stopped at an event boundary after {} events; \
                 the recorded journal still replays with --verify",
                journal.len()
            );
        }
        if let Some(jpath) = journal_path {
            let doc = JournalFile {
                network: net.clone(),
                seed,
                policy: policy.name().to_string(),
                config: cfg,
                journal,
                final_hash: final_state.semantic_hash(),
            };
            let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
            std::fs::write(jpath, json).map_err(|e| format!("writing {jpath}: {e}"))?;
        }
        if let (Some(tpath), Some(flight)) = (trace_path, &flight) {
            let doc = TraceFile {
                policy: policy.name().to_string(),
                seed,
                phases: Phase::ALL.iter().map(|p| p.name().to_string()).collect(),
                offered: metrics.offered,
                flight: flight.dump(),
            };
            let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
            std::fs::write(tpath, json).map_err(|e| format!("writing {tpath}: {e}"))?;
        }
        (vec![metrics], None)
    } else if telemetry_mode.is_some() {
        let (runs, snap) = run_replications_telemetry(&net, cfg, &seeds);
        (runs, Some(snap))
    } else {
        (run_replications(&net, cfg, &seeds), None)
    };

    if args.flag("json") {
        let json = match &telemetry {
            // One JSON document carrying both: keeps stdout parseable.
            Some(snap) => {
                let combined = serde_json::Value::Object(vec![
                    ("metrics".to_string(), serde_json::to_value(&runs)),
                    ("telemetry".to_string(), serde_json::to_value(snap)),
                ]);
                serde_json::to_string_pretty(&combined).map_err(|e| e.to_string())?
            }
            None => serde_json::to_string_pretty(&runs).map_err(|e| e.to_string())?,
        };
        println!("{json}");
        return Ok(());
    }
    let stat = |f: &dyn Fn(&wdm_sim::metrics::Metrics) -> f64| {
        mean_std(&runs.iter().map(f).collect::<Vec<_>>())
    };
    let (bp, bp_sd) = stat(&|m| m.blocking_probability() * 100.0);
    let (cost, _) = stat(&|m| m.mean_route_cost());
    let (load, _) = stat(&|m| m.mean_network_load());
    let (peak, _) = stat(&|m| m.peak_network_load);
    println!("policy            {}", policy.name());
    println!("offered load      {erlangs} Erlang over {duration} time units x {reps} reps");
    println!("blocking          {bp:.3}% ± {bp_sd:.3}");
    println!("mean route cost   {cost:.2}");
    println!("mean network load {load:.3}");
    println!("peak network load {peak:.3}");
    if failure_rate > 0.0 {
        let cuts: u64 = runs.iter().map(|m| m.failures_injected).sum();
        let fast: u64 = runs.iter().map(|m| m.fast_switchovers).sum();
        let passive: u64 = runs.iter().map(|m| m.passive_recoveries).sum();
        let dropped: u64 = runs.iter().map(|m| m.recovery_failures).sum();
        println!(
            "fibre cuts        {cuts} (instant {fast}, recomputed {passive}, dropped {dropped})"
        );
    }
    if cfg.reconfig_threshold.is_some() {
        let rc: u64 = runs.iter().map(|m| m.reconfig_events).sum();
        let moved: u64 = runs.iter().map(|m| m.reconfig_moved).sum();
        println!("reconfigurations  {rc} (moved {moved} connections)");
    }
    if let (Some(mode), Some(snap)) = (telemetry_mode, &telemetry) {
        println!("--- telemetry ({} replications merged) ---", runs.len());
        if mode == "summary" {
            print!("{}", snap.summary());
        } else {
            let json = serde_json::to_string_pretty(snap).map_err(|e| e.to_string())?;
            println!("{json}");
        }
    }
    Ok(())
}

/// Bridges SIGINT into a simulator stop flag. Installing the handler
/// keeps the first Ctrl-C from killing the process; a watcher thread
/// trips `stop` instead, so the run ends at the next event boundary with
/// every recorded artefact intact. The watcher is detached — it dies
/// with the process on the normal exit path.
fn install_sigint_bridge(stop: std::sync::Arc<std::sync::atomic::AtomicBool>) {
    use wdm_serve::signal;
    if !signal::install(signal::SIGINT) {
        return; // No handler (non-unix or sigaction failure): Ctrl-C kills as before.
    }
    std::thread::spawn(move || loop {
        if signal::tripped(signal::SIGINT) {
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    });
}

/// `wdm replay` — reconstruct a recorded simulation's final state from its
/// journal and (with `--verify`) check it against the recorded hash.
///
/// Accepts both on-disk formats: a `wdm simulate --journal` document and a
/// `wdm serve` write-ahead log (sniffed by its `{"wal":…}` header line).
pub fn replay(args: &Args) -> Result<(), String> {
    use std::io::Read;

    let path = args.positional(0).ok_or("missing journal file")?;
    // Sniff the format from the first bytes only: a daemon WAL can be far
    // larger than memory needs to be, and `wal::recover` streams it.
    let mut head = Vec::new();
    std::fs::File::open(path)
        .and_then(|f| f.take(64).read_to_end(&mut head))
        .map_err(|e| format!("reading {path}: {e}"))?;
    if String::from_utf8_lossy(&head)
        .trim_start()
        .starts_with("{\"wal\":")
    {
        return replay_wal(args, path);
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc: JournalFile =
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;

    let replayed = doc
        .journal
        .replay(&doc.network)
        .map_err(|e| format!("replay diverged: {e}"))?;
    let hash = replayed.semantic_hash();
    let verified = hash == doc.final_hash;

    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for ev in doc.journal.events() {
        *counts.entry(ev.kind().to_string()).or_default() += 1;
    }
    let load = load_snapshot(&doc.network, &replayed);

    // `--telemetry json|summary`: re-run the recorded simulation (the
    // journal embeds its full config) with a live recorder. Counters are
    // a pure function of (config, seed), so they must equal what the
    // original run would have recorded; only the `*_ns` timing histograms
    // differ between machines and runs.
    let replayed_telemetry = match args.get("telemetry") {
        None => None,
        Some(mode @ ("json" | "summary")) => {
            let cfg = doc.config;
            let sink = TelemetrySink::new();
            let seeds = replication_seeds(cfg.seed, 1);
            let sim_cfg = SimConfig {
                seed: seeds[0],
                ..cfg
            };
            let sim = Simulator::with_recorder(&doc.network, sim_cfg, &sink);
            let _ = sim.run();
            Some((mode, sink.snapshot()))
        }
        Some(other) => return Err(format!("--telemetry wants json|summary, got '{other}'")),
    };

    if args.flag("json") {
        let mut fields = vec![
            ("policy".to_string(), serde_json::to_value(&doc.policy)),
            ("seed".to_string(), serde_json::to_value(&doc.seed)),
            ("events".to_string(), serde_json::to_value(&counts)),
            ("final_load".to_string(), serde_json::to_value(&load)),
            (
                "recorded_hash".to_string(),
                serde_json::to_value(&doc.final_hash),
            ),
            ("replayed_hash".to_string(), serde_json::to_value(&hash)),
            ("verified".to_string(), serde_json::to_value(&verified)),
        ];
        if let Some((_, snap)) = &replayed_telemetry {
            fields.push(("telemetry".to_string(), serde_json::to_value(snap)));
        }
        let combined = serde_json::Value::Object(fields);
        let json = serde_json::to_string_pretty(&combined).map_err(|e| e.to_string())?;
        println!("{json}");
    } else {
        println!("policy       {}", doc.policy);
        println!("base seed    {}", doc.seed);
        println!("events       {}", doc.journal.len());
        for (kind, n) in &counts {
            println!("  {kind:<12} {n}");
        }
        println!(
            "final load   max {:.3}, p90 {:.3}, mean {:.3}",
            load.max, load.p90, load.mean
        );
        println!(
            "state hash   {:#018x} ({})",
            hash,
            if verified {
                "matches the recorded hash"
            } else {
                "MISMATCH against the recorded hash"
            }
        );
        if let Some((mode, snap)) = &replayed_telemetry {
            println!("--- replayed telemetry ---");
            if *mode == "summary" {
                print!("{}", snap.summary());
            } else {
                let json = serde_json::to_string_pretty(snap).map_err(|e| e.to_string())?;
                println!("{json}");
            }
        }
    }
    if args.flag("verify") && !verified {
        return Err(format!(
            "final-state hash mismatch: recorded {:#018x}, replayed {:#018x}",
            doc.final_hash, hash
        ));
    }
    Ok(())
}

/// `wdm replay` over a daemon write-ahead log. [`wdm_serve::wal::recover`]
/// already verifies the sequence chain, every checkpoint anchor, and the
/// graceful-close hash when one exists — reaching this function's body
/// means the lineage replayed consistently.
fn replay_wal(args: &Args, path: &str) -> Result<(), String> {
    let rec = wdm_serve::wal::recover(std::path::Path::new(path))
        .map_err(|e| format!("recovering {path}: {e}"))?;
    let hash = rec.semantic_hash();
    let load = load_snapshot(&rec.network, &rec.state);
    if args.flag("json") {
        let fields = vec![
            ("format".to_string(), serde_json::to_value(&"wal")),
            (
                "policy".to_string(),
                serde_json::to_value(&rec.policy.name()),
            ),
            ("events".to_string(), serde_json::to_value(&rec.seq)),
            ("final_load".to_string(), serde_json::to_value(&load)),
            ("replayed_hash".to_string(), serde_json::to_value(&hash)),
            (
                "anchors_verified".to_string(),
                serde_json::to_value(&rec.anchors_verified),
            ),
            (
                "clean_shutdown".to_string(),
                serde_json::to_value(&rec.clean_shutdown()),
            ),
            (
                "torn_tail".to_string(),
                serde_json::to_value(&rec.torn_tail),
            ),
        ];
        let json = serde_json::to_string_pretty(&serde_json::Value::Object(fields))
            .map_err(|e| e.to_string())?;
        println!("{json}");
    } else {
        println!("format       write-ahead log (wdm serve)");
        println!("policy       {}", rec.policy.name());
        println!("events       {}", rec.seq);
        println!(
            "final load   max {:.3}, p90 {:.3}, mean {:.3}",
            load.max, load.p90, load.mean
        );
        println!(
            "state hash   {hash:#018x} ({} checkpoint anchor(s) verified)",
            rec.anchors_verified
        );
        println!(
            "shutdown     {}{}",
            if rec.clean_shutdown() {
                "clean (graceful-close hash matches)"
            } else {
                "unclean (no graceful-close line — recovered from events)"
            },
            if rec.torn_tail {
                "; one torn tail line discarded"
            } else {
                ""
            }
        );
    }
    if args.flag("verify") && !rec.clean_shutdown() && rec.anchors_verified == 0 {
        return Err(
            "nothing to verify against: the log has neither a graceful-close line \
             nor a checkpoint anchor (the sequence chain itself was intact)"
                .into(),
        );
    }
    Ok(())
}

/// `wdm batch`.
pub fn batch(args: &Args) -> Result<(), String> {
    let net = load_network(args.require("net")?)?;
    let mesh: usize = args.get_or("mesh", 1)?;
    let policy = parse_policy(args.get("policy").unwrap_or("cost-only"))?;
    let order = match args.get("order").unwrap_or("as-given") {
        "as-given" => BatchOrder::AsGiven,
        "shortest-first" => BatchOrder::ShortestFirst,
        "longest-first" => BatchOrder::LongestFirst,
        other => return Err(format!("unknown order '{other}'")),
    };
    let window: usize = args.get_or("parallel-window", 1)?;
    if window == 0 {
        return Err("--parallel-window wants a positive window size".into());
    }
    let mut schedule = match args.get("schedule") {
        None => ScheduleMode::default(),
        Some(s) => ScheduleMode::parse(s).ok_or_else(|| {
            format!("unknown schedule '{s}' (expected 'windowed', 'conflict-groups' or 'sharded')")
        })?,
    };
    if let ScheduleMode::Sharded { shards } = &mut schedule {
        *shards = args.get_or("shards", DEFAULT_SHARDS)?;
        if *shards == 0 {
            return Err("--shards wants a positive shard count".into());
        }
    } else if args.get("shards").is_some() {
        return Err("--shards only applies to --schedule sharded".into());
    }
    let threads: usize = args.get_or("threads", 0)?;
    let state = ResidualState::fresh(&net);
    let demands = full_mesh_demands(net.node_count(), mesh);
    let cfg = BatchConfig {
        policy,
        order,
        parallel_window: window,
        schedule,
        threads,
    };
    let (out, stats) = run_batch_recorded(&net, &state, &demands, cfg, NoopRecorder);
    let snap = load_snapshot(&net, &out.state);
    println!(
        "accepted   {}/{} ({:.1}%)",
        out.provisioned.len(),
        demands.len(),
        out.acceptance_ratio(demands.len()) * 100.0
    );
    println!("total cost {:.1}", out.total_cost);
    println!(
        "final load max {:.3}, p90 {:.3}, mean {:.3}",
        snap.max, snap.p90, snap.mean
    );
    if window > 1 {
        println!(
            "speculation [{}] rounds {}, commits {}, aborts {} ({:.1}% abort rate), \
             retries {}, inline {}",
            schedule.name(),
            stats.rounds,
            stats.commits,
            stats.aborts,
            stats.abort_rate() * 100.0,
            stats.retries,
            stats.inline_routes
        );
        if let ScheduleMode::Sharded { shards } = schedule {
            println!(
                "sharding   {} shards, cut demands {} ({:.1}% of batch)",
                shards,
                stats.cut_demands,
                if demands.is_empty() {
                    0.0
                } else {
                    stats.cut_demands as f64 / demands.len() as f64 * 100.0
                }
            );
        }
    }
    Ok(())
}

/// `wdm trace <verb>`.
pub fn trace(args: &Args) -> Result<(), String> {
    match args.positional(0) {
        Some("analyze") => trace_analyze(args),
        Some(other) => Err(format!("unknown trace verb '{other}' (expected 'analyze')")),
        None => Err("usage: wdm trace analyze <trace.json> [--top K] [--json]".into()),
    }
}

/// `wdm trace analyze` — per-phase latency attribution, slowest requests
/// and abort causes from a `wdm simulate --trace` dump.
fn trace_analyze(args: &Args) -> Result<(), String> {
    let path = args.positional(1).ok_or("missing trace file")?;
    let top_k: usize = args.get_or("top", 5)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc: TraceFile = serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;

    let records = &doc.flight.records;
    if records.is_empty() {
        return Err("trace holds no flight records".into());
    }

    // Aggregate: total request time, per-phase attribution, the residual
    // the sub-phases do not cover (queueing between spans, bookkeeping),
    // outcome and abort-cause counts.
    let root = Phase::Request.name();
    let mut total_ns = 0u64;
    let mut attributed_ns = 0u64;
    let mut phase_sums: BTreeMap<String, u64> = BTreeMap::new();
    let mut outcomes: BTreeMap<String, u64> = BTreeMap::new();
    let mut abort_causes: BTreeMap<String, u64> = BTreeMap::new();
    for r in records {
        total_ns += r.total_ns;
        for (name, ns) in r.named_phases() {
            attributed_ns += ns;
            *phase_sums.entry(name.to_string()).or_default() += ns;
        }
        *outcomes.entry(r.outcome.clone()).or_default() += 1;
        if let Some(cause) = &r.abort_cause {
            *abort_causes.entry(cause.clone()).or_default() += 1;
        }
    }
    let attributed_fraction = if total_ns > 0 {
        attributed_ns as f64 / total_ns as f64
    } else {
        1.0
    };
    // The invariant the span layer guarantees: sub-phases nest inside the
    // root span, so attribution can never exceed the measured total.
    let phase_sum_ok = attributed_ns <= total_ns;

    let mut slowest: Vec<usize> = (0..records.len()).collect();
    slowest.sort_by_key(|&i| std::cmp::Reverse(records[i].total_ns));
    slowest.truncate(top_k);

    if args.flag("json") {
        let top: Vec<serde_json::Value> = slowest
            .iter()
            .map(|&i| {
                let r = &records[i];
                serde_json::Value::Object(vec![
                    ("request".to_string(), serde_json::to_value(&r.request)),
                    ("src".to_string(), serde_json::to_value(&r.src)),
                    ("dst".to_string(), serde_json::to_value(&r.dst)),
                    ("outcome".to_string(), serde_json::to_value(&r.outcome)),
                    ("total_ns".to_string(), serde_json::to_value(&r.total_ns)),
                    (
                        "journal_seq".to_string(),
                        serde_json::to_value(&r.journal_seq),
                    ),
                    (
                        "phases".to_string(),
                        serde_json::to_value(
                            &r.named_phases()
                                .into_iter()
                                .map(|(n, ns)| (n.to_string(), ns))
                                .collect::<BTreeMap<String, u64>>(),
                        ),
                    ),
                ])
            })
            .collect();
        let combined = serde_json::Value::Object(vec![
            ("policy".to_string(), serde_json::to_value(&doc.policy)),
            ("seed".to_string(), serde_json::to_value(&doc.seed)),
            ("offered".to_string(), serde_json::to_value(&doc.offered)),
            ("records".to_string(), serde_json::to_value(&records.len())),
            (
                "dropped".to_string(),
                serde_json::to_value(&doc.flight.dropped),
            ),
            ("outcomes".to_string(), serde_json::to_value(&outcomes)),
            (
                "abort_causes".to_string(),
                serde_json::to_value(&abort_causes),
            ),
            ("total_ns".to_string(), serde_json::to_value(&total_ns)),
            (
                "attributed_ns".to_string(),
                serde_json::to_value(&attributed_ns),
            ),
            (
                "attributed_fraction".to_string(),
                serde_json::to_value(&attributed_fraction),
            ),
            (
                "phase_sum_ok".to_string(),
                serde_json::to_value(&phase_sum_ok),
            ),
            ("phase_ns".to_string(), serde_json::to_value(&phase_sums)),
            (
                "anomaly_fired".to_string(),
                serde_json::to_value(&doc.flight.anomaly.is_some()),
            ),
            ("top".to_string(), serde_json::Value::Array(top)),
        ]);
        let json = serde_json::to_string_pretty(&combined).map_err(|e| e.to_string())?;
        println!("{json}");
        return Ok(());
    }

    println!("policy        {}", doc.policy);
    println!(
        "records       {} of {} offered ({} dropped off the ring)",
        records.len(),
        doc.offered,
        doc.flight.dropped
    );
    for (outcome, n) in &outcomes {
        println!("  {outcome:<12} {n}");
    }
    if !abort_causes.is_empty() {
        println!("abort causes");
        for (cause, n) in &abort_causes {
            println!("  {cause:<12} {n}");
        }
    }
    println!(
        "latency       total {:.3} ms across {} requests ({} mean us/request)",
        total_ns as f64 / 1e6,
        records.len(),
        total_ns / records.len() as u64 / 1_000
    );
    println!(
        "attribution   {:.1}% of {root} time inside named sub-phases ({})",
        attributed_fraction * 100.0,
        if phase_sum_ok {
            "sums consistently"
        } else {
            "EXCEEDS the measured total"
        }
    );
    for (name, ns) in &phase_sums {
        println!(
            "  {name:<14} {:>10.3} ms ({:.1}%)",
            *ns as f64 / 1e6,
            *ns as f64 / total_ns.max(1) as f64 * 100.0
        );
    }
    if doc.flight.anomaly.is_some() {
        println!("anomaly       FIRED (see the trace file's anomaly snapshot)");
    }
    println!("slowest {} requests", slowest.len());
    for &i in &slowest {
        let r = &records[i];
        let phases: Vec<String> = r
            .named_phases()
            .iter()
            .map(|(n, ns)| format!("{n} {:.1}us", *ns as f64 / 1e3))
            .collect();
        println!(
            "  #{:<6} {} -> {} {:<8} {:>8.1}us  seq {}  [{}]",
            r.request,
            r.src,
            r.dst,
            r.outcome,
            r.total_ns as f64 / 1e3,
            r.journal_seq,
            phases.join(", ")
        );
    }
    Ok(())
}

/// `wdm serve-metrics` — run a simulation while exposing live telemetry as
/// a Prometheus text-format endpoint on a plain `TcpListener` (no HTTP
/// dependency; the exposition format is newline-delimited text).
pub fn serve_metrics(args: &Args) -> Result<(), String> {
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};

    let net = load_network(args.require("net")?)?;
    let erlangs: f64 = args.get_or("erlangs", 60.0)?;
    let duration: f64 = args.get_or("duration", 1000.0)?;
    let holding: f64 = args.get_or("holding", 10.0)?;
    let policy = parse_policy(args.get("policy").unwrap_or("cost-only"))?;
    let seed: u64 = args.get_or("seed", 1)?;
    let port: u16 = args.get_or("port", 9184)?;
    let serve_requests: u64 = args.get_or("serve-requests", 0)?;

    let cfg = SimConfig {
        policy,
        traffic: TrafficModel::new(erlangs / holding, holding),
        duration,
        failure_rate: args.get_or("failure-rate", 0.0)?,
        mean_repair: args.get_or("repair", 20.0)?,
        reconfig_threshold: None,
        seed: replication_seeds(seed, 1)[0],
        switchover_time: 0.001,
        setup_time_per_hop: 0.05,
    };

    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("binding 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // `--port 0` binds an ephemeral port; print the resolved address first
    // (and flushed) so scripted callers can scrape it.
    println!("serving http://{addr}/metrics");
    std::io::stdout().flush().ok();

    let sink = TelemetrySink::new();
    let done = AtomicBool::new(false);
    let mut served = 0u64;
    let metrics = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            let m = Simulator::with_recorder(&net, cfg, &sink).run();
            done.store(true, Ordering::Release);
            m
        });
        // Poll-accept so the loop notices simulation completion: with
        // `--serve-requests N` it keeps serving until N responses went
        // out (even past completion — CI probes race the short sims);
        // without it, it serves whatever arrives while the run lasts.
        listener.set_nonblocking(true).ok();
        loop {
            let finished = done.load(Ordering::Acquire);
            if serve_requests > 0 {
                if served >= serve_requests && finished {
                    break;
                }
            } else if finished {
                break;
            }
            match listener.accept() {
                Ok((mut conn, _)) => {
                    conn.set_nonblocking(false).ok();
                    // The shared daemon listener does the parsing: size
                    // caps, timeouts, and malformed-head rejection all
                    // behave exactly as they do under `wdm serve`.
                    match wdm_serve::http::read_request(&mut conn) {
                        Ok(req) if req.target == "/metrics" => {
                            let body = sink.snapshot().prometheus("wdm");
                            wdm_serve::http::write_response(
                                &mut conn,
                                "200 OK",
                                "text/plain; version=0.0.4",
                                &[],
                                body.as_bytes(),
                            )
                            .ok();
                        }
                        Ok(_) => {
                            wdm_serve::http::write_response(
                                &mut conn,
                                "404 Not Found",
                                "text/plain",
                                &[],
                                b"only /metrics is exported\n",
                            )
                            .ok();
                        }
                        Err(e) => wdm_serve::http::answer_error(&mut conn, &e),
                    }
                    served += 1;
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                Err(e) => eprintln!("accept: {e}"),
            }
        }
        handle.join().expect("simulation thread panicked")
    });

    println!(
        "simulation done: {} offered, {} admitted, {:.3}% blocking; served {served} scrape(s)",
        metrics.offered,
        metrics.admitted,
        metrics.blocking_probability() * 100.0
    );
    Ok(())
}

/// `wdm serve` — the long-lived provisioning daemon (DESIGN.md §5i).
pub fn serve(args: &Args) -> Result<(), String> {
    use std::io::Write;
    use wdm_serve::daemon::{run, Control, ServeConfig};

    let net = load_network(args.require("net")?)?;
    let port: u16 = args.get_or("port", 9190)?;
    let wal_path = args.get("wal").unwrap_or("wdm-serve.wal.jsonl");
    let mut cfg = ServeConfig::new(format!("127.0.0.1:{port}"), wal_path);
    cfg.threads = args.get_or("threads", 4)?;
    cfg.policy = parse_policy(args.get("policy").unwrap_or("cost-only"))?;
    cfg.queue_capacity = args.get_or("queue", 256)?;
    cfg.deadline = std::time::Duration::from_millis(args.get_or("deadline-ms", 2000u64)?);
    cfg.checkpoint_every = args.get_or("checkpoint-every", 256)?;
    cfg.handle_signals = true; // SIGINT/SIGTERM drain, checkpoint, close.
                               // --trace FILE turns on end-to-end span recording (queue wait through
                               // WAL fsync); the file is `wdm trace analyze`-compatible and written
                               // at clean shutdown.
    cfg.trace_path = args.get("trace").map(std::path::PathBuf::from);
    cfg.flight_capacity = args.get_or("flight-cap", wdm_telemetry::DEFAULT_FLIGHT_CAPACITY)?;
    if cfg.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if cfg.queue_capacity == 0 {
        return Err("--queue must be at least 1".into());
    }
    if cfg.flight_capacity == 0 {
        return Err("--flight-cap must be at least 1".into());
    }
    if let Some(prev) = args.get("resume") {
        // Crash recovery: replay the previous WAL and seed the daemon
        // with its state. The new WAL must be a different file — its
        // header checkpoint *is* the recovered state.
        if prev == wal_path {
            return Err("--resume must name a different file than --wal".into());
        }
        let rec = wdm_serve::wal::recover(std::path::Path::new(prev))
            .map_err(|e| format!("recovering {prev}: {e}"))?;
        eprintln!(
            "resuming from {prev}: {} event(s), hash {:#018x}{}",
            rec.seq,
            rec.semantic_hash(),
            if rec.clean_shutdown() {
                ""
            } else {
                " (unclean shutdown — recovered from events)"
            }
        );
        cfg.resume_state = Some(rec.state);
    }

    let control = Control::new();
    let report = std::thread::scope(|s| {
        // The daemon owns this thread until shutdown; a sidecar waits for
        // the bind and prints the resolved address (so `--port 0` works
        // for scripts). If the bind fails, `run` returns before ever
        // publishing and the sidecar times out silently.
        s.spawn(|| {
            if let Some(addr) = control.wait_addr(std::time::Duration::from_secs(5)) {
                println!("serving http://{addr}/ (wal: {wal_path})");
                std::io::stdout().flush().ok();
            }
        });
        run(&net, &cfg, &control)
    })
    .map_err(|e| format!("serve: {e}"))?;

    if args.flag("json") {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        println!("{json}");
    } else {
        println!(
            "shutdown     {}",
            if report.clean_shutdown {
                "clean (final checkpoint + graceful-close line flushed)"
            } else {
                "crash-style (no close line)"
            }
        );
        println!("journal      {} event(s) in {wal_path}", report.journal_seq);
        println!("connections  {} live at shutdown", report.connections);
        println!("state hash   {:#018x}", report.semantic_hash);
        for (name, v) in &report.counters {
            println!("  {name:<24} {v}");
        }
    }
    Ok(())
}

/// `wdm loadgen` — open-loop Poisson load against a running daemon.
pub fn loadgen(args: &Args) -> Result<(), String> {
    use wdm_serve::loadgen::LoadgenConfig;

    let target = args.require("target")?;
    // Endpoint/link ranges come from the served network file (preferred)
    // or explicit counts — the generator itself never loads the topology.
    let (nodes, links) = if let Some(netfile) = args.get("net") {
        let net = load_network(netfile)?;
        (net.node_count() as u32, net.link_count() as u32)
    } else {
        let nodes: u32 = args
            .get("nodes")
            .ok_or("missing --net FILE (or explicit --nodes/--links)")?
            .parse()
            .map_err(|e| format!("bad value for --nodes: {e}"))?;
        (nodes, args.get_or("links", 0)?)
    };
    if nodes < 2 {
        return Err("need at least two nodes to provision".into());
    }
    let mut cfg = LoadgenConfig::new(target, nodes, links);
    cfg.rate = args.get_or("rate", 200.0)?;
    cfg.duration = args.get_or("duration", 5.0)?;
    cfg.mean_hold = args.get_or("hold", 1.0)?;
    cfg.fail_fraction = args.get_or("fail-fraction", 0.01)?;
    cfg.seed = args.get_or("seed", 1)?;
    // Negated comparisons are deliberate: NaN must be rejected too.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(cfg.rate > 0.0) || !(cfg.duration > 0.0) || !(cfg.mean_hold > 0.0) {
        return Err("rate, duration and hold must all be positive".into());
    }
    if !(0.0..=1.0).contains(&cfg.fail_fraction) {
        return Err("--fail-fraction wants a value in [0, 1]".into());
    }

    let report = wdm_serve::loadgen::run(&cfg);
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    if let Some(out) = args.get("out") {
        std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    }
    if args.flag("json") {
        println!("{json}");
    } else {
        println!(
            "offered      {} request(s) in {:.2}s ({:.0} req/s)",
            report.offered, report.elapsed, report.rps
        );
        println!(
            "outcomes     {} ok, {} blocked (409), {} shed (503), {} error(s)",
            report.ok, report.blocked, report.shed, report.errors
        );
        println!(
            "latency      p50 {:.2} ms, p99 {:.2} ms",
            report.p50_ms, report.p99_ms
        );
        if !report.server_phases.is_empty() {
            println!("server phases (scraped from /metrics):");
            for p in &report.server_phases {
                println!(
                    "  {:<20} {:>8} obs   p50 {:>9.3} ms   p99 {:>9.3} ms",
                    p.phase, p.count, p.p50_ms, p.p99_ms
                );
            }
        }
    }
    Ok(())
}

/// `wdm telemetry <verb>`.
pub fn telemetry(args: &Args) -> Result<(), String> {
    match args.positional(0) {
        Some("diff") => telemetry_diff(args),
        Some("assert") => telemetry_assert(args),
        Some(other) => Err(format!(
            "unknown telemetry verb '{other}' (expected 'diff' or 'assert')"
        )),
        None => Err(
            "usage: wdm telemetry diff <baseline.json> <candidate.json> \
                     [--metrics SUBSTR] [--fail-drop PCT]\n\
             \x20      wdm telemetry assert <file.json> --metric PATH [--min X] [--max X]"
                .into(),
        ),
    }
}

/// `wdm telemetry assert` — absolute gate on one metric of a JSON file.
///
/// Complements `telemetry diff`'s relative gate: where diff compares a
/// candidate against a baseline, assert checks a single dotted-path metric
/// against fixed bounds (`--min` and/or `--max`), exiting non-zero on
/// violation. The CI batch-scheduling leg uses it to pin abort rates and
/// speedup ratios to absolute budgets no re-baselining can erode.
fn telemetry_assert(args: &Args) -> Result<(), String> {
    let path = args.positional(1).ok_or("missing telemetry file")?;
    let metric = args.require("metric")?;
    let min = args.get("min").map(str::parse::<f64>).transpose();
    let min = min.map_err(|e| format!("bad value for --min: {e}"))?;
    let max = args.get("max").map(str::parse::<f64>).transpose();
    let max = max.map_err(|e| format!("bad value for --max: {e}"))?;
    if min.is_none() && max.is_none() {
        return Err("telemetry assert wants --min and/or --max".into());
    }
    let flat = flatten_json_file(path)?;
    let &value = flat.get(metric).ok_or_else(|| {
        let mut near: Vec<&str> = flat
            .keys()
            .filter(|k| k.contains(metric) || metric.contains(k.as_str()))
            .map(|k| k.as_str())
            .take(5)
            .collect();
        if near.is_empty() {
            near = flat.keys().map(|k| k.as_str()).take(5).collect();
        }
        format!(
            "metric '{metric}' not found in {path} (nearby: {})",
            near.join(", ")
        )
    })?;
    let mut violations = Vec::new();
    if let Some(lo) = min {
        if value < lo || value.is_nan() {
            violations.push(format!("{value:.4} < required minimum {lo}"));
        }
    }
    if let Some(hi) = max {
        if value > hi || value.is_nan() {
            violations.push(format!("{value:.4} > allowed maximum {hi}"));
        }
    }
    let bounds = match (min, max) {
        (Some(lo), Some(hi)) => format!("[{lo}, {hi}]"),
        (Some(lo), None) => format!(">= {lo}"),
        (None, Some(hi)) => format!("<= {hi}"),
        (None, None) => unreachable!("checked above"),
    };
    if violations.is_empty() {
        println!("{metric} = {value:.4} ok ({bounds})");
        Ok(())
    } else {
        Err(format!("{metric}: {}", violations.join("; ")))
    }
}

/// `wdm telemetry diff` — per-metric deltas between two JSON files.
///
/// Works on any JSON whose leaves are numbers (telemetry snapshots, the
/// BENCH_*.json experiment outputs, combined simulate dumps): the files are
/// flattened to dotted paths and compared metric-by-metric. With
/// `--fail-drop PCT` the command exits non-zero when any selected metric
/// falls more than PCT percent below the baseline, or is in the baseline
/// but missing from the candidate — the CI perf gate, which must not pass
/// because the series it gates stopped being written.
fn telemetry_diff(args: &Args) -> Result<(), String> {
    let a_path = args.positional(1).ok_or("missing baseline file")?;
    let b_path = args.positional(2).ok_or("missing candidate file")?;
    let filter = args.get("metrics");
    let fail_drop: f64 = args.get_or("fail-drop", 0.0)?;
    if fail_drop < 0.0 {
        return Err("--fail-drop wants a non-negative percentage".into());
    }
    let a = flatten_json_file(a_path)?;
    let b = flatten_json_file(b_path)?;

    let keys: BTreeSet<&String> = a
        .keys()
        .chain(b.keys())
        .filter(|k| filter.is_none_or(|f| k.contains(f)))
        .collect();
    if keys.is_empty() {
        return Err(match filter {
            Some(f) => format!("no numeric metrics matching '{f}' in either file"),
            None => "no numeric metrics in either file".into(),
        });
    }

    println!(
        "{:<44} {:>14} {:>14} {:>9}",
        "metric", "baseline", "candidate", "delta"
    );
    let mut regressions = Vec::new();
    for key in keys {
        match (a.get(key), b.get(key)) {
            (Some(&va), Some(&vb)) => {
                let delta = if va != 0.0 {
                    format!("{:+.1}%", (vb - va) / va * 100.0)
                } else if vb == 0.0 {
                    "0.0%".to_string()
                } else {
                    "new".to_string()
                };
                println!("{key:<44} {va:>14.3} {vb:>14.3} {delta:>9}");
                if fail_drop > 0.0 && va > 0.0 && (vb - va) / va * 100.0 < -fail_drop {
                    regressions.push(format!(
                        "{key}: {va:.3} -> {vb:.3} ({:+.1}%, limit -{fail_drop}%)",
                        (vb - va) / va * 100.0
                    ));
                }
            }
            (Some(&va), None) => {
                println!("{key:<44} {va:>14.3} {:>14} {:>9}", "-", "gone");
                if fail_drop > 0.0 {
                    regressions.push(format!("{key}: {va:.3} -> missing from the candidate"));
                }
            }
            (None, Some(&vb)) => println!("{key:<44} {:>14} {vb:>14.3} {:>9}", "-", "new"),
            (None, None) => unreachable!("key came from one of the maps"),
        }
    }
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} metric(s) regressed beyond {fail_drop}%:\n  {}",
            regressions.len(),
            regressions.join("\n  ")
        ))
    }
}

/// Loads a JSON file and flattens every numeric leaf to a dotted path.
fn flatten_json_file(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    flatten_value("", &value, &mut out);
    Ok(out)
}

fn flatten_value(prefix: &str, value: &serde_json::Value, out: &mut BTreeMap<String, f64>) {
    let join = |key: &str| {
        if prefix.is_empty() {
            key.to_string()
        } else {
            format!("{prefix}.{key}")
        }
    };
    match value {
        serde_json::Value::Number(n) => {
            out.insert(prefix.to_string(), n.as_f64());
        }
        serde_json::Value::Object(fields) => {
            for (k, v) in fields {
                flatten_value(&join(k), v, out);
            }
        }
        serde_json::Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten_value(&join(&i.to_string()), v, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parser_accepts_all_names() {
        for p in [
            "cost-only",
            "load-only",
            "joint",
            "joint-as-printed",
            "two-step",
            "unrefined",
            "ksp",
            "node-disjoint",
            "primary-only",
        ] {
            assert!(parse_policy(p).is_ok(), "{p}");
        }
        assert!(parse_policy("nonsense").is_err());
    }

    #[test]
    fn conversion_parser() {
        assert_eq!(
            parse_conversion("none", 1.0).unwrap(),
            ConversionTable::None
        );
        assert_eq!(
            parse_conversion("full:auto", 2.5).unwrap(),
            ConversionTable::Full { cost: 2.5 }
        );
        assert_eq!(
            parse_conversion("full:1.25", 9.0).unwrap(),
            ConversionTable::Full { cost: 1.25 }
        );
        assert_eq!(
            parse_conversion("range:2:0.5", 9.0).unwrap(),
            ConversionTable::Range {
                range: 2,
                cost: 0.5
            }
        );
        assert!(parse_conversion("bogus", 1.0).is_err());
    }

    #[test]
    fn flatten_value_walks_nested_json() {
        let v: serde_json::Value = serde_json::from_str(
            r#"{"a": 1, "b": {"c": 2.5, "d": [10, 20]}, "e": "text", "f": null}"#,
        )
        .unwrap();
        let mut out = BTreeMap::new();
        flatten_value("", &v, &mut out);
        assert_eq!(out["a"], 1.0);
        assert_eq!(out["b.c"], 2.5);
        assert_eq!(out["b.d.0"], 10.0);
        assert_eq!(out["b.d.1"], 20.0);
        assert_eq!(out.len(), 4, "non-numeric leaves are skipped: {out:?}");
    }

    #[test]
    fn telemetry_diff_gates_on_drop() {
        let dir = std::env::temp_dir().join("wdm_cli_diff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        std::fs::write(&a, r#"{"speedup": 10.0, "other": 1.0}"#).unwrap();
        std::fs::write(&b, r#"{"speedup": 8.0, "other": 1.0}"#).unwrap();
        let argv = |extra: &[&str]| {
            let mut v = vec![
                "diff".to_string(),
                a.to_string_lossy().into_owned(),
                b.to_string_lossy().into_owned(),
            ];
            v.extend(extra.iter().map(|s| s.to_string()));
            Args::parse(&v).unwrap()
        };
        // 20% drop: passes a 25% gate, fails a 15% gate.
        assert!(telemetry(&argv(&["--fail-drop", "25"])).is_ok());
        let err = telemetry(&argv(&["--fail-drop", "15"])).unwrap_err();
        assert!(err.contains("speedup"), "{err}");
        // Filtering to an unaffected metric passes.
        assert!(telemetry(&argv(&["--metrics", "other", "--fail-drop", "15"])).is_ok());
        // No gate: informational diff always succeeds.
        assert!(telemetry(&argv(&[])).is_ok());
    }
}
