//! End-to-end and per-layer benchmark of the WDM robust-routing stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_nsfnet --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One workload per invocation. The inputs come from `--seed`; the
//! measuring loops run for about `--seconds`. With `--trace 0` the last
//! stdout line carries the end-to-end metrics (program built and run with
//! its no-op telemetry); with `--trace 1` a separate, instrumented run
//! carries the per-layer metrics, read through the program's public
//! telemetry hooks. Every run checks the program's outputs; a failed
//! check prints `"correct": false` and exits non-zero. See `README.md`
//! for the workloads, the metric definitions and the prediction map.

mod batch;
mod client;
mod layers;
mod report;
mod serve;
mod sim;
mod stats;

use std::path::PathBuf;

use report::Outcome;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A per-process scratch directory inside the build directory (the
/// benchmark reads and writes nothing outside its checkout); removed on
/// drop, also when a workload panics.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<Self> {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("perfbench/target"));
        let dir = base.join(format!("perfbench-work-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve_nsfnet|batch_mesh200|sim_nsfnet_churn \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            std::process::exit(2);
        }
    };
    println!("host {}", report::host_json(&work.0));
    let outcome: Outcome = match args.workload.as_str() {
        "serve_nsfnet" => serve::run(&args, &work.0),
        "batch_mesh200" => batch::run(&args),
        "sim_nsfnet_churn" => sim::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    drop(work);
    let ok = outcome.correct();
    println!("{}", outcome.result_json(args.trace));
    if !ok {
        std::process::exit(1);
    }
}
