//! `wdm` — command-line interface to the robust-routing library.
//!
//! ```text
//! wdm topology nsfnet --wavelengths 8 --out nsfnet.wdm
//! wdm info --net nsfnet.wdm
//! wdm route --net nsfnet.wdm --from 0 --to 13 --policy joint
//! wdm simulate --net nsfnet.wdm --erlangs 80 --duration 1000 --policy cost-only
//! wdm batch --net nsfnet.wdm --mesh 1 --policy joint --order longest-first
//! ```

mod args;
mod commands;
mod netio;

use args::Args;

const USAGE: &str = "\
wdm — robust routing in wide-area WDM networks (Liang, IPPS 2001)

USAGE:
  wdm <COMMAND> [OPTIONS]

COMMANDS:
  topology <PRESET>   generate a network (presets: nsfnet, arpanet,
                      ring:N, grid:WxH, waxman:N)
      --wavelengths W   channels per fibre (default 8)
      --conversion C    none | full:COST | range:K:COST (default full:auto)
      --format F        wdm | json | dot (default wdm)
      --out FILE        write to file instead of stdout
      --seed S          RNG seed for random presets (default 1)

  info      --net FILE        print topology/capacity statistics

  route     --net FILE --from S --to T
      --policy P        cost-only | load-only | joint | two-step |
                        unrefined | ksp | node-disjoint | primary-only
                        (default cost-only)
      --json            machine-readable output

  simulate  --net FILE --erlangs E --duration D
      --policy P        as above (default cost-only)
      --holding H       mean holding time (default 10)
      --seed S          base seed (default 1)
      --reps N          replications, run in parallel (default 1)
      --failure-rate F  fibre-cut rate (default 0)
      --repair R        mean repair time (default 20)
      --reconfig T      reconfiguration load threshold (default off)
      --telemetry M     json | summary: collect and print merged telemetry
      --journal FILE    record the event journal (checkpoint + every
                        provision/teardown/failure/repair/reconfigure) to
                        FILE as JSON; wants --reps 1; Ctrl-C stops at an
                        event boundary and the journal still verifies
      --trace FILE      record per-request spans + flight records (phase
                        latencies, outcomes, journal correlation) to FILE
                        as JSON; wants --reps 1; combines with --journal
      --flight-cap N    flight-recorder ring capacity (default 512)
      --json            machine-readable output

  replay <JOURNAL.json | WAL.jsonl>
      --verify          exit non-zero unless the replayed final state's
                        hash matches the recorded one; daemon write-ahead
                        logs (from 'wdm serve') are detected by their
                        header and verified against their checkpoint
                        anchors and graceful-close hash
      --telemetry M     json | summary: re-run the recorded simulation
                        from the journal's embedded config with a live
                        recorder and print its telemetry (simulation
                        journals only)
      --json            machine-readable output

  serve     --net FILE  long-lived provisioning daemon: POST /provision
                        {src,dst} | /teardown {id} | /fail-link {link} |
                        /repair-link {link}; GET /state /metrics /healthz
      --port P          listen on 127.0.0.1:P (default 9190; 0 picks an
                        ephemeral port, printed on startup)
      --threads N       worker threads, each with a warm router context
                        (default 4)
      --policy P        as above (default cost-only)
      --wal FILE        write-ahead log; every mutation is flushed before
                        its response (default wdm-serve.wal.jsonl)
      --queue N         admission queue depth; full sheds 503 (default 256)
      --deadline-ms MS  drop requests that waited longer (default 2000)
      --checkpoint-every N  WAL checkpoint anchor cadence (default 256)
      --resume WAL      recover a previous log and resume from its state
      --json            print the shutdown report as JSON
                        (SIGINT/SIGTERM shut down gracefully: drain,
                        final checkpoint, graceful-close line)

  loadgen   --target HOST:PORT --net FILE
      --nodes N --links L   endpoint/link ranges when --net is omitted
      --rate R          provision arrivals per second, Poisson (default 200)
      --duration S      run length in wall-clock seconds (default 5)
      --hold H          mean holding time before teardown (default 1)
      --fail-fraction F fraction of arrivals failing a link (default 0.01)
      --seed S          RNG seed (default 1)
      --out FILE        write the JSON report to FILE
      --json            print the report as JSON

  trace analyze <TRACE.json>
      --top K           show the K slowest requests (default 5)
      --json            machine-readable output

  serve-metrics --net FILE
      --port P          listen on 127.0.0.1:P (default 9184; 0 picks an
                        ephemeral port, printed on startup)
      --serve-requests N  keep serving until N scrapes answered (default:
                        exit when the simulation ends)
      --erlangs E --duration D --holding H --policy P --seed S
                        simulation shape, as in 'wdm simulate'

  batch     --net FILE --mesh K
      --policy P        as above (default cost-only)
      --order O         as-given | shortest-first | longest-first
      --parallel-window K   speculate K demands per round (default 1 =
                        serial; results are bit-identical for every K)
      --schedule S      windowed | conflict-groups (default) | sharded:
                        how the speculative engine picks each round's
                        demands
      --shards S        shard count for --schedule sharded (default 4)
      --threads N       worker threads for speculative routing (default
                        0 = all available cores)

  telemetry diff <BASELINE.json> <CANDIDATE.json>
      --metrics SUBSTR  only compare metrics whose dotted path contains SUBSTR
      --fail-drop PCT   exit non-zero if any compared metric drops > PCT%
                        below the baseline or is missing from the
                        candidate (the CI perf gate)

  telemetry assert <FILE.json> --metric PATH
      --min X           exit non-zero unless metric >= X
      --max X           exit non-zero unless metric <= X
                        (absolute gates; PATH is the exact dotted path)
";

fn main() {
    // Piping output through `head` and friends closes stdout early; the
    // resulting println! panic ("Broken pipe") is normal Unix usage, not a
    // crash — suppress its report and exit 0 like other CLI tools.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !panic_is_broken_pipe(info.payload()) {
            default_hook(info);
        }
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match std::panic::catch_unwind(|| run(&argv)) {
        Ok(Ok(())) => 0,
        Ok(Err(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("run 'wdm help' for usage");
            2
        }
        Err(payload) => {
            if panic_is_broken_pipe(payload.as_ref()) {
                0
            } else {
                std::panic::resume_unwind(payload)
            }
        }
    };
    std::process::exit(code);
}

/// Whether a panic payload is the stdlib's broken-pipe print failure.
fn panic_is_broken_pipe(payload: &(dyn std::any::Any + Send)) -> bool {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("");
    msg.contains("Broken pipe")
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        println!("{USAGE}");
        return Ok(());
    };
    let rest = Args::parse(&argv[1..])?;
    if rest.flag("help") {
        println!("{USAGE}");
        return Ok(());
    }
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        "topology" => commands::topology(&rest),
        "info" => commands::info(&rest),
        "route" => commands::route(&rest),
        "simulate" => commands::simulate(&rest),
        "replay" => commands::replay(&rest),
        "serve" => commands::serve(&rest),
        "loadgen" => commands::loadgen(&rest),
        "batch" => commands::batch(&rest),
        "telemetry" => commands::telemetry(&rest),
        "trace" => commands::trace(&rest),
        "serve-metrics" => commands::serve_metrics(&rest),
        other => Err(format!("unknown command '{other}'")),
    }
}
