//! `serve_nsfnet`: the `wdm serve` daemon, run in-process on loopback
//! (NSFNET, 8 λ, cost-only policy, 2 workers, WAL in the work directory),
//! driven by the benchmark's own client.
//!
//! * **Open-loop phase:** Poisson provisions at 400/s with exponential
//!   holds of mean 60 ms (about 24 Erlang), each torn down when its hold
//!   ends; 1 % of arrivals fail a link instead, repaired after an
//!   exponential delay. Every request is timed from its *scheduled* send
//!   time to its last response byte, so a stalled generator or server is
//!   charged to the requests behind it; the generator's own lateness is
//!   reported too.
//! * **Closed-loop phase:** two connections, each sending a provision and,
//!   when it succeeds, its teardown, back to back: the capacity at the
//!   allowed concurrency. The end-to-end latency and throughput are this
//!   phase's medians: on a shared 2-vCPU host the open loop's figures
//!   depend on how fast idle vCPUs wake, which other tenants decide (see
//!   `README.md`).
//!
//! The generator uses two threads and at most two connections at a time.
//! Routing is a small part of a request here; accept, HTTP, admission and
//! WAL costs dominate.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::Rng;
use wdm_core::network::{NetworkBuilder, WdmNetwork};
use wdm_serve::{Control, ServeConfig, ServeReport};
use wdm_sim::prelude::Policy;
use wdm_sim::traffic::{random_pair, sample_exp};
use wdm_telemetry::{FlightDump, Phase};

use crate::client::{exchange, provisioned, Marks, Scrape};
use crate::layers;
use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, quantile, ratio, secs_since};
use crate::Args;

const WAVELENGTHS: usize = 8;
const WORKERS: usize = 2;
/// Generator threads, hence the most connections open at once.
const CONNECTIONS: usize = 2;
const RATE_PER_S: f64 = 400.0;
const MEAN_HOLD_S: f64 = 0.060;
const FAIL_FRACTION: f64 = 0.01;
const MEAN_REPAIR_S: f64 = 0.060;
/// The open-loop phase's latency limit on p99.
const P99_LIMIT_MS: f64 = 5.0;
/// Generator lateness p99 above which the run says the generator fell
/// behind its schedule.
const LATENESS_LIMIT_MS: f64 = 1.0;
/// How long before a request's due time the generator stops sleeping and
/// spins instead, so that it sends on time.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(200);
/// An untimed open loop of this length, on its own arrivals, runs before
/// the timed one, so that the first timed requests find a warm daemon.
const WARM_UP_S: f64 = 1.0;
const WARM_UP_SEED: u64 = 0x3A_2F_0B;
/// Extra daemon starts timed for `setup_s`, besides the measured one.
const SETUP_REPS: usize = 20;
/// Flight-ring capacity of the traced daemon: enough to keep every
/// provision of the traced run.
const TRACED_FLIGHT_CAPACITY: usize = 1 << 16;

#[derive(Clone, Copy, Debug)]
enum Op {
    Provision { src: u32, dst: u32, hold_s: f64 },
    Fail { link: u32, repair_s: f64 },
    Teardown { id: u64 },
    Repair { link: u32 },
}

impl Op {
    fn request(&self) -> (&'static str, String) {
        match *self {
            Op::Provision { src, dst, .. } => {
                ("/provision", format!("{{\"src\":{src},\"dst\":{dst}}}"))
            }
            Op::Fail { link, .. } => ("/fail-link", format!("{{\"link\":{link}}}")),
            Op::Teardown { id } => ("/teardown", format!("{{\"id\":{id}}}")),
            Op::Repair { link } => ("/repair-link", format!("{{\"link\":{link}}}")),
        }
    }
}

/// One answered (or failed) request.
struct Sample {
    op: Op,
    /// Seconds from the scheduled send time to the last response byte.
    latency_s: f64,
    /// Seconds the generator started the request after its scheduled time.
    late_s: f64,
    marks: Marks,
    /// HTTP status; 0 on a transport error.
    status: u16,
    /// Route cost of an accepted provision.
    cost: Option<f64>,
}

impl Sample {
    fn is_provision(&self) -> bool {
        matches!(self.op, Op::Provision { .. })
    }

    /// A transport error, a 5xx, or an answer the request cannot get
    /// (anything but 200, and 409 for a provision the router refused).
    fn failed(&self) -> bool {
        !(self.status == 200 || (self.status == 409 && self.is_provision()))
    }
}

fn config(wal: &Path) -> ServeConfig {
    ServeConfig {
        threads: WORKERS,
        policy: Policy::CostOnly,
        ..ServeConfig::new("127.0.0.1:0", wal)
    }
}

/// Runs the daemon on a scoped thread, waits for its first `/healthz`
/// 200, hands the address and that start-up time to `f`, then shuts the
/// daemon down gracefully and returns its report.
fn with_daemon<T>(
    net: &WdmNetwork,
    cfg: &ServeConfig,
    f: impl FnOnce(SocketAddr, f64) -> T,
) -> (T, ServeReport) {
    /// Stops the daemon also when `f` panics, so the scope can join it.
    struct Stop<'a>(&'a Control);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }
    let control = Control::new();
    std::thread::scope(|s| {
        let spawned = Instant::now();
        let daemon = s.spawn(|| wdm_serve::run(net, cfg, &control));
        let stop = Stop(&control);
        let addr = control
            .wait_addr(Duration::from_secs(10))
            .expect("the daemon binds its listener");
        let healthy = |a| matches!(exchange(a, "GET", "/healthz", ""), Ok(r) if r.status == 200);
        while !healthy(addr) {
            assert!(
                spawned.elapsed() < Duration::from_secs(10),
                "daemon never healthy"
            );
        }
        let setup_s = secs_since(spawned);
        let out = f(addr, setup_s);
        drop(stop);
        let report = daemon
            .join()
            .expect("daemon thread")
            .expect("daemon shuts down cleanly");
        (out, report)
    })
}

/// The open-loop arrival schedule: `(seconds from phase start, op)`.
fn arrivals(seed: u64, secs: f64, net: &WdmNetwork) -> VecDeque<(f64, Op)> {
    let mut rng = wdm_bench::rng(seed);
    let links = net.link_count() as u32;
    let mut out = VecDeque::new();
    let mut t = 0.0;
    loop {
        t += sample_exp(&mut rng, RATE_PER_S);
        if t >= secs {
            return out;
        }
        let op = if rng.gen::<f64>() < FAIL_FRACTION {
            Op::Fail {
                link: rng.gen_range(0..links),
                repair_s: sample_exp(&mut rng, 1.0 / MEAN_REPAIR_S),
            }
        } else {
            let (s, d) = random_pair(net.node_count(), &mut rng);
            Op::Provision {
                src: s.0,
                dst: d.0,
                hold_s: sample_exp(&mut rng, 1.0 / MEAN_HOLD_S),
            }
        };
        out.push_back((t, op));
    }
}

/// The open loop's pending requests: the arrival schedule, plus the
/// teardowns and repairs due a hold (repair delay) after the answer that
/// created them, heaped by due time in nanoseconds, then creation order.
struct Schedule {
    arrivals: VecDeque<(f64, Op)>,
    followups: BinaryHeap<Reverse<(u64, usize)>>,
    followup_ops: Vec<Op>,
    in_flight: usize,
}

impl Schedule {
    /// The earliest pending op, removed from the schedule.
    fn pop(&mut self) -> Option<(f64, Op)> {
        let arrival = self.arrivals.front().map(|a| a.0);
        let followup = self.followups.peek().map(|r| r.0 .0 as f64 / 1e9);
        match (arrival, followup) {
            (None, None) => None,
            (Some(a), Some(f)) if a <= f => self.arrivals.pop_front(),
            (Some(_), None) => self.arrivals.pop_front(),
            _ => {
                let Reverse((due, i)) = self.followups.pop().expect("peeked");
                Some((due as f64 / 1e9, self.followup_ops[i]))
            }
        }
    }

    fn push(&mut self, due_s: f64, op: Op) {
        self.followups
            .push(Reverse(((due_s * 1e9) as u64, self.followup_ops.len())));
        self.followup_ops.push(op);
    }
}

fn open_loop(addr: SocketAddr, arrivals: VecDeque<(f64, Op)>) -> Vec<Sample> {
    // Every arrival answers once and schedules at most one follow-up;
    // reserving that up front keeps reallocation copies out of the peak
    // RSS (untouched capacity is not resident).
    let most = 2 * arrivals.len();
    let sched = Mutex::new(Schedule {
        arrivals,
        followups: BinaryHeap::new(),
        followup_ops: Vec::new(),
        in_flight: 0,
    });
    let start = Instant::now();
    let worker = || {
        let mut samples = Vec::with_capacity(most);
        loop {
            let next = {
                let mut s = sched.lock().expect("schedule lock");
                let next = s.pop();
                if next.is_some() {
                    s.in_flight += 1;
                } else if s.in_flight == 0 {
                    return samples;
                }
                next
            };
            let Some((due_s, op)) = next else {
                // Another request in flight may still schedule follow-ups.
                std::thread::sleep(Duration::from_micros(200));
                continue;
            };
            // Sleep to just short of the due time, then spin until it: a
            // timer wake-up's overshoot would otherwise count as latency.
            let due = Duration::from_secs_f64(due_s);
            if let Some(wait) = due.checked_sub(start.elapsed() + SPIN_BEFORE_DUE) {
                std::thread::sleep(wait);
            }
            while start.elapsed() < due {
                std::hint::spin_loop();
            }
            let late_s = secs_since(start) - due_s;
            let (path, body) = op.request();
            let res = exchange(addr, "POST", path, &body);
            let done_s = secs_since(start);
            let (status, marks, body) = match res {
                Ok(r) => (r.status, r.marks, r.body),
                Err(_) => (0, Marks::default(), String::new()),
            };
            let answer = (status == 200 && matches!(op, Op::Provision { .. }))
                .then(|| provisioned(&body))
                .flatten();
            let followup = match op {
                Op::Provision { hold_s, .. } => {
                    answer.map(|(id, _)| (done_s + hold_s, Op::Teardown { id }))
                }
                Op::Fail { link, repair_s } if status == 200 => {
                    Some((done_s + repair_s, Op::Repair { link }))
                }
                _ => None,
            };
            samples.push(Sample {
                op,
                latency_s: done_s - due_s,
                late_s,
                marks,
                status,
                cost: answer.map(|(_, cost)| cost),
            });
            let mut s = sched.lock().expect("schedule lock");
            if let Some((due_s, op)) = followup {
                s.push(due_s, op);
            }
            s.in_flight -= 1;
        }
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    })
}

/// Request counts for the output checks.
#[derive(Default)]
struct Tally {
    sent: u64,
    failed: u64,
    /// Accepted provisions answered without a positive cost.
    costless: u64,
}

impl Tally {
    fn add(&mut self, s: &Sample) {
        self.sent += 1;
        self.failed += s.failed() as u64;
        self.costless +=
            (s.is_provision() && s.status == 200 && s.cost.is_none_or(|c| c <= 0.0)) as u64;
    }

    fn merge(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.failed += other.failed;
        self.costless += other.costless;
    }

    fn of(samples: &[Sample]) -> Tally {
        let mut t = Tally::default();
        samples.iter().for_each(|s| t.add(s));
        t
    }
}

/// What a closed loop measured. Requests are tallied, not kept; only two
/// times of each are stored, four bytes apiece.
struct ClosedLoop {
    tally: Tally,
    /// Time of every answered request, from the start of its connect to
    /// its last response byte, in ms.
    latency_ms: Vec<f32>,
    /// Time from each answer to the previous answer on its connection (or
    /// to the phase start), in seconds.
    cycle_s: Vec<f32>,
    elapsed_s: f64,
}

impl ClosedLoop {
    /// Median request time in ms.
    fn latency_p50_ms(&self) -> f64 {
        median(&widen(&self.latency_ms))
    }

    /// Completions per second at the median cycle: the connections over
    /// the median time between a connection's consecutive answers. The
    /// mean rate also counts the requests that other work on a shared
    /// host stalls: over six runs of the same code on a 2-vCPU VM it
    /// ranged from 1110/s to 1730/s, and this rate from 1555/s to 1697/s.
    fn rate(&self) -> f64 {
        CONNECTIONS as f64 / median(&widen(&self.cycle_s))
    }
}

fn widen(v: &[f32]) -> Vec<f64> {
    v.iter().map(|&x| f64::from(x)).collect()
}

/// Closed loop: each connection sends a provision and, on success, its
/// teardown, back to back until `secs` have passed.
fn closed_loop(addr: SocketAddr, seed: u64, secs: f64, nodes: usize) -> ClosedLoop {
    let start = Instant::now();
    let per_thread = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS as u64)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = wdm_bench::rng(seed ^ (0xC1_05ED << 8) ^ c);
                    let mut tally = Tally::default();
                    let (mut latency_ms, mut cycle_s) = (Vec::new(), Vec::new());
                    let mut last_s = 0.0;
                    let mut send = |op: Op| {
                        let (path, body) = op.request();
                        let r = exchange(addr, "POST", path, &body);
                        let (status, body) = match r {
                            Ok(r) => {
                                let at_s = secs_since(start);
                                latency_ms.push((r.marks.total * 1e3) as f32);
                                cycle_s.push((at_s - last_s) as f32);
                                last_s = at_s;
                                (r.status, r.body)
                            }
                            Err(_) => (0, String::new()),
                        };
                        let answer = (status == 200 && matches!(op, Op::Provision { .. }))
                            .then(|| provisioned(&body))
                            .flatten();
                        tally.add(&Sample {
                            op,
                            latency_s: 0.0,
                            late_s: 0.0,
                            marks: Marks::default(),
                            status,
                            cost: answer.map(|(_, cost)| cost),
                        });
                        answer.map(|(id, _)| id)
                    };
                    while secs_since(start) < secs {
                        let (a, b) = random_pair(nodes, &mut rng);
                        let provision = Op::Provision {
                            src: a.0,
                            dst: b.0,
                            hold_s: 0.0,
                        };
                        if let Some(id) = send(provision) {
                            send(Op::Teardown { id });
                        }
                    }
                    (tally, latency_ms, cycle_s)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread"))
            .collect::<Vec<_>>()
    });
    let mut out = ClosedLoop {
        tally: Tally::default(),
        latency_ms: Vec::new(),
        cycle_s: Vec::new(),
        elapsed_s: secs_since(start),
    };
    for (tally, latency_ms, cycle_s) in &per_thread {
        out.tally.merge(tally);
        out.latency_ms.extend(latency_ms);
        out.cycle_s.extend(cycle_s);
    }
    out
}

/// Output checks once a daemon has shut down: no failed request, no
/// connection left after the drain, a graceful close, and a WAL whose
/// recovery reproduces the live state's hash.
fn check_daemon(out: &mut Outcome, tally: &Tally, report: &ServeReport, wal: &Path) {
    out.check(tally.failed == 0, || {
        format!(
            "{} requests failed (transport error, 5xx or unexpected status)",
            tally.failed
        )
    });
    out.check(tally.costless == 0, || {
        "an accepted provision did not answer an id and a positive cost".into()
    });
    out.check(report.clean_shutdown, || {
        "the daemon did not shut down cleanly".into()
    });
    out.check(report.connections == 0, || {
        format!("{} connections left after the drain", report.connections)
    });
    match wdm_serve::recover(wal) {
        Ok(rec) => {
            out.check(rec.semantic_hash() == report.semantic_hash, || {
                "WAL recovery hash differs from the live state's".into()
            });
            out.check(rec.clean_shutdown(), || {
                "WAL has no graceful-close line".into()
            });
            out.check(rec.seq == report.journal_seq, || {
                format!(
                    "WAL holds {} events, the daemon wrote {}",
                    rec.seq, report.journal_seq
                )
            });
        }
        Err(e) => out.check(false, || format!("WAL recovery failed: {e}")),
    }
    out.attempted += tally.sent;
    out.failed += tally.failed;
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let net = NetworkBuilder::nsfnet(WAVELENGTHS).build();
    let wal = work.join("serve.wal");
    if args.trace {
        traced(args, &mut out, &net, work);
        return out;
    }
    let mut setup_s: Vec<f64> = (0..SETUP_REPS)
        .map(|_| with_daemon(&net, &config(&wal), |_, setup| setup).0)
        .collect();

    let open_secs = 0.55 * args.seconds;
    let closed_secs = 0.4 * args.seconds;
    let warm_up = arrivals(args.seed ^ WARM_UP_SEED, WARM_UP_S, &net);
    let schedule = arrivals(args.seed, open_secs, &net);
    let ((warm, open, closed), report) = with_daemon(&net, &config(&wal), |addr, setup| {
        setup_s.push(setup);
        let warm = open_loop(addr, warm_up);
        let open = open_loop(addr, schedule);
        let closed = closed_loop(addr, args.seed, closed_secs, net.node_count());
        (warm, open, closed)
    });
    let mut tally = Tally::of(&warm);
    tally.merge(&Tally::of(&open));
    tally.merge(&closed.tally);
    check_daemon(&mut out, &tally, &report, &wal);

    let latency_ms: Vec<f64> = open.iter().map(|s| s.latency_s * 1e3).collect();
    let late_ms: Vec<f64> = open.iter().map(|s| s.late_s * 1e3).collect();
    let provisions: Vec<&Sample> = open.iter().filter(|s| s.is_provision()).collect();
    let accepted: Vec<f64> = provisions.iter().filter_map(|s| s.cost).collect();
    out.set("throughput_per_s", closed.rate());
    out.set("latency_p50_ms", closed.latency_p50_ms());
    out.set(
        "accept_ratio",
        accepted.len() as f64 / provisions.len().max(1) as f64,
    );
    out.set(
        "mean_route_cost",
        accepted.iter().sum::<f64>() / accepted.len().max(1) as f64,
    );
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", peak_rss_mb());
    report_limits(&latency_ms, &late_ms);
    println!(
        "serve_nsfnet: closed loop {} requests in {:.2} s over {CONNECTIONS} connections",
        closed.tally.sent, closed.elapsed_s
    );
    out
}

/// States the open loop's sample count, p50, p99 against its limit, and
/// whether the generator kept to its schedule.
fn report_limits(latency_ms: &[f64], late_ms: &[f64]) {
    let p50 = quantile(latency_ms, 0.5);
    let p99 = quantile(latency_ms, 0.99);
    let late_p50 = quantile(late_ms, 0.5);
    let late_p99 = quantile(late_ms, 0.99);
    println!(
        "serve_nsfnet: open loop {} requests, latency p50 {p50:.3} ms, p99 {p99:.3} ms, \
         generator lateness p50 {late_p50:.4} ms, p99 {late_p99:.3} ms",
        latency_ms.len()
    );
    if p99 > P99_LIMIT_MS {
        println!("serve_nsfnet: open-loop p99 {p99:.3} ms exceeds the {P99_LIMIT_MS} ms limit");
    }
    if late_p99 > LATENESS_LIMIT_MS {
        println!("serve_nsfnet: the generator fell behind its schedule");
    }
}

#[derive(serde::Deserialize)]
struct TraceFile {
    flight: FlightDump,
}

/// The traced run: an untraced daemon's closed loop (the tracing tax's
/// base), then a daemon with `trace_path` set through both phases, with
/// `/metrics` scraped after each phase and the trace file read at the end.
fn traced(args: &Args, out: &mut Outcome, net: &WdmNetwork, work: &Path) {
    layers::aux_build_ms(out, net);
    let wal = work.join("serve.wal");
    let nodes = net.node_count();
    // An untraced daemon's closed loop before and after the traced one:
    // their mean rate is the tracing tax's base, so a drift in host speed
    // during the run cancels to first order.
    let plain_closed_loop = |out: &mut Outcome| {
        let (plain, report) = with_daemon(net, &config(&wal), |addr, _| {
            closed_loop(addr, args.seed, 0.1 * args.seconds, nodes)
        });
        check_daemon(out, &plain.tally, &report, &wal);
        plain.rate()
    };
    let plain_before = plain_closed_loop(out);

    let trace_path = work.join("serve-trace.json");
    let cfg = ServeConfig {
        trace_path: Some(trace_path.clone()),
        flight_capacity: TRACED_FLIGHT_CAPACITY,
        ..config(&wal)
    };
    let schedule = arrivals(args.seed, 0.45 * args.seconds, net);
    let wal_size = || std::fs::metadata(&wal).map_or(0, |m| m.len());
    let ((open, closed, scrapes, wal_bytes), report) = with_daemon(net, &cfg, |addr, _| {
        let s0 = Scrape::fetch(addr).expect("scrape before the open loop");
        let w0 = wal_size();
        let open = open_loop(addr, schedule);
        let s1 = Scrape::fetch(addr).expect("scrape after the open loop");
        let w1 = wal_size();
        let closed = closed_loop(addr, args.seed, 0.2 * args.seconds, nodes);
        let s2 = Scrape::fetch(addr).expect("scrape after the closed loop");
        (open, closed, [s0, s1, s2], w1 - w0)
    });
    let mut tally = Tally::of(&open);
    tally.merge(&closed.tally);
    check_daemon(out, &tally, &report, &wal);
    let [s0, s1, s2] = &scrapes;
    let plain_rate = (plain_before + plain_closed_loop(out)) / 2.0;
    out.set("trace.overhead_ratio", ratio(plain_rate, closed.rate()));

    let latency_ms: Vec<f64> = open.iter().map(|s| s.latency_s * 1e3).collect();
    let connect_ms: Vec<f64> = open.iter().map(|s| s.marks.connect * 1e3).collect();
    let first_byte_ms: Vec<f64> = open.iter().map(|s| s.marks.first_byte * 1e3).collect();
    let late_ms: Vec<f64> = open.iter().map(|s| s.late_s * 1e3).collect();
    let p50 = quantile(&latency_ms, 0.5);
    out.set("client.latency_ms.p50", p50);
    out.set("client.latency_ms.p99", quantile(&latency_ms, 0.99));
    out.set("client.connect_ms.p50", quantile(&connect_ms, 0.5));
    out.set(
        "client.pre_dequeue_ms.p50",
        p50 - s1.quantile_ms(s0, "serve_latency_ns", 0.5),
    );
    out.set(
        "admission.queue_wait_ms.p50",
        s1.quantile_ms(s0, "serve_queue_ns", 0.5),
    );
    out.set(
        "admission.queue_wait_ms.p99",
        s1.quantile_ms(s0, "serve_queue_ns", 0.99),
    );
    out.set("admission.shed", s2.value("serve_shed") as f64);
    out.set(
        "admission.deadline_drops",
        s2.value("serve_deadline_drop") as f64,
    );
    out.set(
        "daemon.lock_wait_ms.p99",
        s2.quantile_ms(s1, "serve_lock_ns", 0.99),
    );
    out.set(
        "daemon.route_ms.p50",
        s2.quantile_ms(s1, "serve_route_ns", 0.5),
    );
    out.set(
        "daemon.commit_ms.p50",
        s2.quantile_ms(s1, "serve_commit_ns", 0.5),
    );
    out.set(
        "daemon.conflict_retries",
        s2.delta(s1, "serve_conflict_retries") as f64,
    );
    out.set("wal.write_ms.p50", s1.quantile_ms(s0, "wal_fsync_ns", 0.5));
    out.set("wal.write_ms.p99", s1.quantile_ms(s0, "wal_fsync_ns", 0.99));
    out.set(
        "wal.bytes_per_event",
        ratio(wal_bytes as f64, s1.delta(s0, "wal_seq") as f64),
    );
    out.set("loadgen.lateness_ms.p99", quantile(&late_ms, 0.99));

    let provisions: Vec<&Sample> = open.iter().filter(|s| s.is_provision()).collect();
    let blocked = provisions.iter().filter(|s| s.status == 409).count();
    out.set(
        "blocking_prob",
        ratio(blocked as f64, provisions.len() as f64),
    );

    // Server spans of the open-loop provisions: the first flight records,
    // since the closed loop starts only after every open-loop answer.
    let trace: TraceFile = std::fs::read_to_string(&trace_path)
        .ok()
        .and_then(|t| serde_json::from_str(&t).ok())
        .expect("the traced daemon writes a readable trace file");
    let mut records = trace.flight.records;
    records.sort_by_key(|r| r.request);
    out.check(
        trace.flight.dropped == 0 && records.len() >= provisions.len(),
        || "the flight ring lost open-loop provisions".into(),
    );
    records.truncate(provisions.len());
    let mut phase_ns = [0u64; Phase::COUNT];
    for r in &records {
        for (slot, ns) in phase_ns.iter_mut().zip(&r.phase_ns) {
            *slot += ns;
        }
    }
    let server_ns: u64 = records.iter().map(|r| r.total_ns).sum();
    let client_ns: f64 = provisions.iter().map(|s| s.marks.total * 1e9).sum();
    out.set(
        "trace.attributed_share_client",
        ratio(server_ns as f64, client_ns),
    );
    layers::routing_core(out, &s2.values, &phase_ns, client_ns);
    report_limits(&latency_ms, &late_ms);
    println!(
        "serve_nsfnet traced: client p50 {p50:.3} ms from the scheduled time, send to first \
         byte p50 {:.3} ms; shares are over client wall time of {} open-loop provisions",
        quantile(&first_byte_ms, 0.5),
        provisions.len()
    );
}
