//! Per-layer metrics shared by every workload: the routing core's
//! counters (aux engine, Suurballe, threshold search) and phase shares.

use std::collections::BTreeMap;

use wdm_core::aux_engine::AuxEngine;
use wdm_core::aux_graph::AuxSpec;
use wdm_core::network::WdmNetwork;
use wdm_telemetry::{Phase, SpanRecord};

use crate::report::Outcome;
use crate::stats::{median_time, ratio};

/// Total span time per phase. Routing sub-phase spans never overlap, so a
/// sub-phase's total is its self time; the root `Request` span is not
/// used as a share.
pub fn phase_totals(spans: &[SpanRecord]) -> [u64; Phase::COUNT] {
    let mut out = [0u64; Phase::COUNT];
    for s in spans {
        out[s.phase as usize] += s.duration_ns();
    }
    out
}

/// Sets the routing-core metrics from a counter snapshot (names as in
/// `Counter::name`) and per-phase span totals over `wall_ns` of workload
/// wall time.
pub fn routing_core(
    out: &mut Outcome,
    counters: &BTreeMap<String, u64>,
    phase_ns: &[u64; Phase::COUNT],
    wall_ns: f64,
) {
    let c = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let routed = c("requests_routed");
    let requests = routed + c("requests_blocked");
    let syncs = c("engine_full_refreshes") + c("engine_dirty_refreshes") + c("engine_fast_syncs");
    let share = |p: Phase| ratio(phase_ns[p as usize] as f64, wall_ns);
    out.set("aux_engine.refresh_share", share(Phase::AuxRefresh));
    out.set(
        "aux_engine.skeleton_builds_per_req",
        ratio(c("engine_skeleton_builds"), requests),
    );
    out.set(
        "aux_engine.full_refreshes_per_req",
        ratio(c("engine_full_refreshes"), requests),
    );
    out.set(
        "aux_engine.dirty_links_per_req",
        ratio(c("engine_dirty_links_refreshed"), requests),
    );
    out.set(
        "aux_engine.fast_sync_ratio",
        ratio(c("engine_fast_syncs"), syncs),
    );
    out.set("suurballe.p1_share", share(Phase::SuurballeP1));
    out.set("suurballe.p2_share", share(Phase::SuurballeP2));
    out.set(
        "suurballe.searches_per_req",
        ratio(c("suurballe_searches"), requests),
    );
    let probes = c("threshold_probes");
    out.set("mincog.probes_per_req", ratio(probes, requests));
    out.set("mincog.useful_probe_ratio", ratio(routed, probes));
    out.set("refine.share", share(Phase::Refine));
    out.set("map_back.share", share(Phase::MapBack));
}

/// Median time of a from-scratch `AuxEngine` skeleton build on `net`, ms.
pub fn aux_build_ms(out: &mut Outcome, net: &WdmNetwork) {
    let (secs, _) = median_time(5, || AuxEngine::new(net, AuxSpec::g_prime()));
    out.set("aux_engine.build_ms", secs * 1e3);
}
