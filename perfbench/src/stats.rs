//! Small statistics helpers.

use std::time::Instant;

/// Nearest-rank quantile (the ⌈q·n⌉-th smallest value) of unsorted
/// samples; 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Median of `reps` timings of `f` in seconds, and the last result.
pub fn median_time<T>(reps: usize, f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let last = time_into(&mut times, reps, f);
    (median(&times), last)
}

/// Times `reps` calls of `f` (at least one), appending each time in
/// seconds to `times`, and returns the last result. Set-up work is timed
/// in several such rounds spread over a run, so that its median samples
/// the host over the whole run rather than in its first milliseconds,
/// when a busy or idle neighbour can shift a microsecond-scale set-up by
/// half.
pub fn time_into<T>(times: &mut Vec<f64>, reps: usize, mut f: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        times.push(secs_since(t0));
        last = Some(out);
    }
    last.expect("at least one repetition")
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
