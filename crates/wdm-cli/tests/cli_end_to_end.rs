//! End-to-end tests of the `wdm` binary (invoked as a process).

use std::path::PathBuf;
use std::process::Command;

fn wdm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wdm"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("wdm-cli-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn help_prints_usage() {
    let out = wdm().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("topology"));
    assert!(text.contains("simulate"));
}

#[test]
fn no_args_prints_usage_and_succeeds() {
    let out = wdm().output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = wdm().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn topology_info_route_pipeline() {
    let net_path = tmp("pipeline.wdm");
    let out = wdm()
        .args([
            "topology",
            "nsfnet",
            "--wavelengths",
            "8",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(net_path.exists());

    let out = wdm()
        .args(["info", "--net", net_path.to_str().expect("utf8")])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("nodes            14"));
    assert!(text.contains("robust routing feasible everywhere"));

    let out = wdm()
        .args([
            "route",
            "--net",
            net_path.to_str().expect("utf8"),
            "--from",
            "0",
            "--to",
            "13",
            "--policy",
            "joint",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("primary:"));
    assert!(text.contains("backup"));
    assert!(text.contains("total cost"));
}

#[test]
fn route_json_output_is_parseable() {
    let net_path = tmp("json_route.wdm");
    assert!(wdm()
        .args([
            "topology",
            "ring:6",
            "--wavelengths",
            "4",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .status()
        .expect("spawn")
        .success());
    let out = wdm()
        .args([
            "route",
            "--net",
            net_path.to_str().expect("utf8"),
            "--from",
            "0",
            "--to",
            "3",
            "--json",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let v: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("route --json must emit valid JSON");
    assert!(v.get("Protected").is_some(), "{v}");
}

#[test]
fn simulate_runs_and_reports() {
    let net_path = tmp("sim.wdm");
    assert!(wdm()
        .args([
            "topology",
            "nsfnet",
            "--wavelengths",
            "8",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .status()
        .expect("spawn")
        .success());
    let out = wdm()
        .args([
            "simulate",
            "--net",
            net_path.to_str().expect("utf8"),
            "--erlangs",
            "10",
            "--duration",
            "50",
            "--seed",
            "7",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("blocking"));
    assert!(text.contains("mean route cost"));
}

#[test]
fn routing_failure_maps_to_error_exit() {
    // A 3-node chain has no protected route.
    let net_path = tmp("chain.wdm");
    std::fs::write(
        &net_path,
        "wavelengths 2\nnode 0 conv=none\nnode 1 conv=none\nnode 2 conv=none\n\
         link 0 1 cost=1\nlink 1 2 cost=1\n",
    )
    .expect("write");
    let out = wdm()
        .args([
            "route",
            "--net",
            net_path.to_str().expect("utf8"),
            "--from",
            "0",
            "--to",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("routing failed"));
}

#[test]
fn out_of_range_node_is_a_clean_error() {
    let net_path = tmp("range.wdm");
    assert!(wdm()
        .args([
            "topology",
            "ring:5",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .status()
        .expect("spawn")
        .success());
    let out = wdm()
        .args([
            "route",
            "--net",
            net_path.to_str().expect("utf8"),
            "--from",
            "0",
            "--to",
            "99",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("node ids must be in 0..5"), "{err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn non_positive_simulate_params_are_clean_errors() {
    let net_path = tmp("params.wdm");
    assert!(wdm()
        .args([
            "topology",
            "ring:5",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .status()
        .expect("spawn")
        .success());
    for bad in [
        ["--erlangs", "-5", "--duration", "10"],
        ["--erlangs", "0", "--duration", "10"],
        ["--erlangs", "5", "--duration", "0"],
    ] {
        let out = wdm()
            .args(["simulate", "--net", net_path.to_str().expect("utf8")])
            .args(bad)
            .output()
            .expect("spawn");
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("must all be positive"), "{err}");
        assert!(!err.contains("panicked"), "must not panic: {err}");
    }
}

#[test]
fn journal_record_and_replay_verify() {
    let net_path = tmp("journal.wdm");
    assert!(wdm()
        .args([
            "topology",
            "nsfnet",
            "--wavelengths",
            "8",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .status()
        .expect("spawn")
        .success());
    let journal_path = tmp("journal.json");
    let out = wdm()
        .args([
            "simulate",
            "--net",
            net_path.to_str().expect("utf8"),
            "--erlangs",
            "40",
            "--duration",
            "100",
            "--seed",
            "3",
            "--failure-rate",
            "0.02",
            "--reconfig",
            "0.7",
            "--journal",
            journal_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = wdm()
        .args(["replay", journal_path.to_str().expect("utf8"), "--verify"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "replay --verify must pass on an untampered journal: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("provision"), "{text}");
    assert!(text.contains("matches the recorded hash"), "{text}");

    // Tampering with the recorded hash must flip --verify to a failure.
    let doc = std::fs::read_to_string(&journal_path).expect("read journal");
    let mut v: serde_json::Value = serde_json::from_str(&doc).expect("journal is JSON");
    if let serde_json::Value::Object(fields) = &mut v {
        for (k, val) in fields.iter_mut() {
            if k == "final_hash" {
                *val = serde_json::to_value(&1234567u64);
            }
        }
    }
    let bad_path = tmp("journal_bad.json");
    std::fs::write(&bad_path, serde_json::to_string(&v).expect("render")).expect("write");
    let out = wdm()
        .args(["replay", bad_path.to_str().expect("utf8"), "--verify"])
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "tampered hash must fail --verify");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("hash mismatch"), "{err}");

    // --journal is a single-run recording: multi-rep invocations refuse.
    let out = wdm()
        .args([
            "simulate",
            "--net",
            net_path.to_str().expect("utf8"),
            "--erlangs",
            "10",
            "--duration",
            "20",
            "--reps",
            "2",
            "--journal",
            journal_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--reps 1"));
}

#[test]
fn dot_format_renders() {
    let out = wdm()
        .args(["topology", "grid:3x3", "--format", "dot"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("digraph"));
}

/// Drops `*_ns` timing histograms (wall-clock, machine-dependent) from a
/// telemetry snapshot value; counters and event-shape histograms are pure
/// functions of (config, seed) and must reproduce exactly.
fn comparable_telemetry(telemetry: &serde_json::Value) -> serde_json::Value {
    let counters = telemetry.get("counters").expect("counters").clone();
    let hists: Vec<(String, serde_json::Value)> = telemetry
        .get("histograms")
        .and_then(|h| h.as_object())
        .expect("histograms")
        .iter()
        .filter(|(name, _)| !name.ends_with("_ns"))
        .cloned()
        .collect();
    serde_json::Value::Object(vec![
        ("counters".to_string(), counters),
        ("histograms".to_string(), serde_json::Value::Object(hists)),
    ])
}

#[test]
fn trace_record_and_analyze() {
    let net_path = tmp("trace.wdm");
    assert!(wdm()
        .args([
            "topology",
            "nsfnet",
            "--wavelengths",
            "8",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .status()
        .expect("spawn")
        .success());
    let trace_path = tmp("trace.json");
    let out = wdm()
        .args([
            "simulate",
            "--net",
            net_path.to_str().expect("utf8"),
            "--erlangs",
            "60",
            "--duration",
            "200",
            "--policy",
            "cost-only",
            "--seed",
            "3",
            "--trace",
            trace_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Text report renders.
    let out = wdm()
        .args(["trace", "analyze", trace_path.to_str().expect("utf8")])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("routed"), "{text}");
    assert!(text.contains("latency"), "{text}");

    // JSON report: the span layer's structural invariant (sub-phase time
    // nests inside each request's root span) and the per-phase attribution
    // covering the bulk of measured time.
    let out = wdm()
        .args([
            "trace",
            "analyze",
            trace_path.to_str().expect("utf8"),
            "--json",
            "--top",
            "3",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("trace analyze emits JSON");
    assert_eq!(
        v.get("phase_sum_ok"),
        Some(&serde_json::Value::Bool(true)),
        "sub-phase durations must nest inside each root span"
    );
    let fraction = match v.get("attributed_fraction") {
        Some(serde_json::Value::Number(n)) => n.as_f64(),
        other => panic!("attributed_fraction missing: {other:?}"),
    };
    // The acceptance bar is 95% on a quiet machine; leave headroom for
    // noisy CI schedulers inflating the root span between sub-phases.
    assert!(
        fraction > 0.90,
        "per-phase attribution explains only {:.1}% of measured time",
        fraction * 100.0
    );
    let phases = v
        .get("phase_ns")
        .and_then(|p| p.as_object())
        .expect("phase_ns object");
    for required in ["suurballe_p1", "suurballe_p2", "commit"] {
        let ns = phases
            .iter()
            .find(|(k, _)| k == required)
            .map(|(_, val)| match val {
                serde_json::Value::Number(n) => n.as_f64(),
                _ => 0.0,
            })
            .unwrap_or(0.0);
        assert!(ns > 0.0, "phase '{required}' recorded no time: {phases:?}");
    }
    let top = v.get("top").and_then(|t| t.as_array()).expect("top array");
    assert!(!top.is_empty() && top.len() <= 3, "top-K wants K entries");
    for entry in top {
        assert!(entry.get("journal_seq").is_some(), "top entries correlate");
    }
}

#[test]
fn replay_telemetry_matches_live() {
    let net_path = tmp("replay_telemetry.wdm");
    assert!(wdm()
        .args([
            "topology",
            "nsfnet",
            "--wavelengths",
            "8",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .status()
        .expect("spawn")
        .success());
    for policy in ["cost-only", "joint"] {
        for seed in ["3", "9"] {
            let base = [
                "simulate",
                "--net",
                net_path.to_str().expect("utf8"),
                "--erlangs",
                "40",
                "--duration",
                "120",
                "--policy",
                policy,
                "--seed",
                seed,
            ];
            let out = wdm()
                .args(base)
                .args(["--telemetry", "json", "--json"])
                .output()
                .expect("spawn");
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let live: serde_json::Value =
                serde_json::from_slice(&out.stdout).expect("live telemetry JSON");

            let journal_path = tmp(&format!("replay_telemetry_{policy}_{seed}.json"));
            assert!(wdm()
                .args(base)
                .args(["--journal", journal_path.to_str().expect("utf8")])
                .status()
                .expect("spawn")
                .success());
            let out = wdm()
                .args([
                    "replay",
                    journal_path.to_str().expect("utf8"),
                    "--telemetry",
                    "json",
                    "--json",
                ])
                .output()
                .expect("spawn");
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let replayed: serde_json::Value =
                serde_json::from_slice(&out.stdout).expect("replayed telemetry JSON");

            let live_t = comparable_telemetry(live.get("telemetry").expect("live telemetry"));
            let replayed_t =
                comparable_telemetry(replayed.get("telemetry").expect("replayed telemetry"));
            assert_eq!(
                live_t, replayed_t,
                "replayed telemetry diverged from live run ({policy}, seed {seed})"
            );
        }
    }
}

#[test]
fn serve_metrics_answers_prometheus_scrape() {
    use std::io::{BufRead, BufReader, Read, Write};

    let net_path = tmp("serve.wdm");
    assert!(wdm()
        .args([
            "topology",
            "nsfnet",
            "--wavelengths",
            "8",
            "--out",
            net_path.to_str().expect("utf8"),
        ])
        .status()
        .expect("spawn")
        .success());
    let mut child = wdm()
        .args([
            "serve-metrics",
            "--net",
            net_path.to_str().expect("utf8"),
            "--erlangs",
            "40",
            "--duration",
            "80",
            "--port",
            "0",
            "--serve-requests",
            "1",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("address line");
    let addr = line
        .trim()
        .strip_prefix("serving http://")
        .and_then(|rest| rest.strip_suffix("/metrics"))
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .to_string();

    let scrape = |addr: &str| -> std::io::Result<String> {
        let mut conn = std::net::TcpStream::connect(addr)?;
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: wdm\r\nConnection: close\r\n\r\n")?;
        let mut response = String::new();
        conn.read_to_string(&mut response)?;
        Ok(response)
    };

    let response = scrape(&addr).expect("first scrape");
    assert!(
        response.starts_with("HTTP/1.1 200 OK"),
        "{}",
        &response[..response.len().min(200)]
    );
    assert!(response.contains("text/plain; version=0.0.4"), "{response}");
    assert!(
        response.contains("wdm_requests_routed_total"),
        "counter exposition missing: {response}"
    );
    assert!(
        response.contains("# HELP wdm_requests_routed_total"),
        "HELP metadata missing: {response}"
    );
    assert!(
        response.contains("# TYPE wdm_requests_routed_total counter"),
        "TYPE metadata missing: {response}"
    );

    // The first scrape can land before any request completes, when every
    // histogram is still empty and thus skipped. Keep scraping while the
    // simulation makes progress until buckets show up; the server stays
    // alive until the run ends, so this converges well before it exits.
    let mut response = response;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !response.contains("_bucket{le=") {
        assert!(
            std::time::Instant::now() < deadline,
            "no histogram exposition before timeout: {response}"
        );
        match scrape(&addr) {
            Ok(r) => response = r,
            // Server already drained and exited — the previous response is
            // final and must have carried the finished run's histograms.
            Err(_) => break,
        }
    }
    assert!(
        response.contains("_bucket{le="),
        "histogram exposition missing: {response}"
    );

    // Scrapes answered: the server drains the run and exits cleanly.
    let status = child.wait().expect("wait");
    assert!(status.success());
    let mut rest = String::new();
    reader.read_to_string(&mut rest).ok();
    assert!(rest.contains("scrape(s)"), "{rest}");
}

/// SIGTERM drains `wdm serve` gracefully. The daemon's accept loop blocks
/// in `accept`, which a restarting signal handler does not interrupt, so
/// this pins the path where a worker notices the signal and stops it.
#[cfg(unix)]
/// The `accepted`, `total cost` and `final load` lines of a `wdm batch`
/// report.
fn batch_outcome_lines(args: &[&str]) -> Vec<String> {
    let out = wdm().arg("batch").args(args).output().expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| {
            l.starts_with("accepted") || l.starts_with("total cost") || l.starts_with("final load")
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn batch_serial_and_speculative_report_the_same_outcome() {
    let net_path = tmp("batch.wdm");
    assert!(wdm()
        .args(["topology", "nsfnet", "--out"])
        .arg(&net_path)
        .status()
        .expect("spawn")
        .success());
    let net = net_path.to_str().expect("utf8");
    let serial = batch_outcome_lines(&["--net", net, "--mesh", "1"]);
    let speculative = batch_outcome_lines(&[
        "--net",
        net,
        "--mesh",
        "1",
        "--parallel-window",
        "8",
        "--schedule",
        "conflict-groups",
    ]);
    // Golden: the protected full mesh on 8-λ NSFNET under cost-only, as
    // routed by one throwaway router context per demand.
    let golden = [
        "accepted   55/182 (30.2%)",
        "total cost 2892.0",
        "final load max 1.000, p90 1.000, mean 0.842",
    ];
    assert_eq!(serial, golden);
    assert_eq!(speculative, golden);
}

#[test]
fn serve_exits_cleanly_on_sigterm() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::time::{Duration, Instant};

    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let net_path = tmp("sigterm.wdm");
    let wal_path = tmp("sigterm.wal.jsonl");
    assert!(wdm()
        .args(["topology", "nsfnet", "--wavelengths", "8", "--out"])
        .arg(&net_path)
        .status()
        .expect("spawn")
        .success());
    let mut child = wdm()
        .args(["serve", "--port", "0", "--threads", "2", "--net"])
        .arg(&net_path)
        .arg("--wal")
        .arg(&wal_path)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("address line");
    let addr = line
        .strip_prefix("serving http://")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .to_string();

    // One journalled mutation, so the close line follows a real event.
    let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
    let body = "{\"src\":0,\"dst\":13}";
    write!(
        conn,
        "POST /provision HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("answer");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");

    // SAFETY: kill(2) takes plain integers and touches no memory; the pid
    // is our own child's, not yet reaped.
    assert_eq!(unsafe { kill(child.id() as i32, SIGTERM) }, 0);
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("wdm serve did not exit within 10 s of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "exit status {status:?}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).ok();
    assert!(rest.contains("shutdown     clean"), "{rest}");

    let wal = std::fs::read_to_string(&wal_path).expect("wal written");
    let last = wal.lines().last().expect("non-empty wal");
    assert!(
        last.starts_with("{\"final_seq\":1,"),
        "the WAL ends in the graceful-close line: {last}"
    );
    let out = wdm()
        .arg("replay")
        .arg(&wal_path)
        .arg("--verify")
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("graceful-close hash matches"), "{text}");
}

/// The perf gate must not pass vacuously: a gated metric present in the
/// baseline but missing from the candidate exits non-zero and names the
/// metric, while the same diff without `--fail-drop` stays informational
/// and a metric only the candidate has is not a regression.
#[test]
fn telemetry_diff_fails_when_a_gated_metric_vanishes() {
    let base = tmp("diff_gone_base.json");
    let cand = tmp("diff_gone_cand.json");
    std::fs::write(&base, r#"{"a": {"speedup": 2.0}, "b": 1.0}"#).expect("write");
    std::fs::write(&cand, r#"{"b": 1.0, "fresh": 3.0}"#).expect("write");
    let diff = |extra: &[&str]| {
        wdm()
            .arg("telemetry")
            .arg("diff")
            .arg(&base)
            .arg(&cand)
            .args(extra)
            .output()
            .expect("spawn")
    };
    let out = diff(&["--metrics", "speedup", "--fail-drop", "15"]);
    assert!(!out.status.success(), "a vanished gated metric must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("a.speedup") && err.contains("missing"),
        "{err}"
    );
    assert!(diff(&["--metrics", "speedup"]).status.success());
    assert!(diff(&["--metrics", "b", "--fail-drop", "15"])
        .status
        .success());
    assert!(diff(&["--metrics", "fresh", "--fail-drop", "15"])
        .status
        .success());
}
