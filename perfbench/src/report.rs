//! The result line and the host record.
//!
//! The metric catalogue is `BENCHMARK.json` itself, compiled in: every
//! workload prints every metric of the list its `--trace` mode selects, in
//! that order and with that unit. A per-layer metric whose layer a
//! workload does not run reads 0 there (no work done, no time spent); an
//! end-to-end metric a workload fails to produce is a harness bug and
//! panics.

use std::collections::BTreeMap;
use std::path::Path;

#[derive(serde::Deserialize)]
struct Catalogue {
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

#[derive(serde::Deserialize)]
struct MetricDef {
    name: String,
    unit: String,
}

fn catalogue() -> Catalogue {
    serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (requests sent, demands routed, requests
    /// offered to the simulator).
    pub attempted: u64,
    /// Operations failed: transport errors, 5xx answers, failed checks.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Output checks that did not hold.
    pub check_failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an output check; a failed one is printed at once and makes
    /// the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            println!("check failed: {msg}");
            self.check_failures.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The final stdout line.
    pub fn result_json(&self, trace: bool) -> String {
        let cat = catalogue();
        let list = if trace { cat.per_layer } else { cat.end_to_end };
        let metrics: Vec<String> = list
            .iter()
            .map(|MetricDef { name, unit }| {
                let value = match self.metrics.get(name.as_str()) {
                    Some(&v) => v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The host record printed before every result: numbers are only ever
/// compared between runs on the same host.
pub fn host_json(work_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let text = |s: String| serde_json::to_string(&s).expect("strings serialize");
    format!(
        "{{\"nproc\": {nproc}, \"single_core_host\": {}, \"rustc\": {}, \"loopback\": \"127.0.0.1\", \
         \"wal_fs\": {}, \"commit\": {}}}",
        nproc == 1,
        text(command_line("rustc", &["--version"])),
        text(filesystem_of(work_dir)),
        text(command_line("git", &["rev-parse", "HEAD"])),
    )
}

/// First stdout line of a command, or `unknown` when it cannot run (the
/// benchmark checkout need not be a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `dir`, from `/proc/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
