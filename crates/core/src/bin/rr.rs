//! `rr` — the register-relocation toolchain driver.
//!
//! ```text
//! rr asm    <file.s>                      assemble; print one hex word per line
//! rr dis    <file.hex>                    disassemble hex words
//! rr demand <file.s>                      report register demand and context size
//! rr check  <file.s> --size <n>           static context-bounds check (section 2.4)
//! rr run    <file.s> [--rrm <mask>] [--cycles <n>] [--regs <n>] [--trace]
//!                                         execute on the cycle-level machine
//! rr fig5        [--file <F>] [--jobs <n>] [--json <path>] [--seed <s>] [--progress]
//! rr fig6        [--file <F>] [--jobs <n>] [--json <path>] [--seed <s>] [--progress]
//! rr homogeneous [--file <F>] [--context <C>] [--jobs <n>] [--json <path>] [--seed <s>] [--progress]
//!                                         regenerate figure sweeps in parallel
//! rr trace <fig5|fig6|homogeneous> --point <F,R,L> [--trace-out <t.json>] [--metrics <m.json>]
//!                                         deep-dive one grid point with verified event tracing
//! rr diverge <fig5|fig6|homogeneous> (--point <F,R,L> | --heatmap) [--arch-a <l>] [--arch-b <l>]
//!                                         bisect two configurations to their first divergent event
//! rr cache <stats|verify|gc> [--store <dir>] [--json]
//!                                         inspect or maintain the result store
//! rr bench [--quick] [--check] [--tolerance <f>]
//!                                         run or check the pinned perf suite
//! rr serve [--addr <a>] [--workers <n>] [--queue-cap <n>] [--rate-budget <n>]
//!                                         run the sweep-job HTTP daemon
//! rr top   [--addr <a>] [--interval-secs <n>] [--count <n>]
//!                                         live latency/queue view of a daemon
//! ```
//!
//! Every subcommand also accepts `--log-level <level>` (stderr filter,
//! default `info`; `RUST_LOG` understood) and `--metrics-out <path>`
//! (dump the process's telemetry counters as JSON on exit).
//!
//! Sources are the `rr-isa` assembly dialect; hex files contain one 32-bit
//! word per line (comments after `#`). The figure subcommands run the
//! paper's sweeps on a worker pool (`--jobs 0` = one worker per hardware
//! thread, the default) and can dump the full per-run observability record
//! as JSON (`--json -` for stdout); results are bit-identical for every
//! worker count.
//!
//! Sweeps accept `--store [dir]` (default `.rr-store`, or the `RR_STORE`
//! environment variable) to persist every computed point in a
//! content-addressed store and serve it back on the next run; a warm sweep
//! skips the simulations entirely and its `--json` output byte-matches the
//! cold run's. `--no-store` disables caching outright.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use register_relocation::bench::{self, BenchConfig, BenchReport, Suite};
use register_relocation::cache;
use register_relocation::diverge::{
    diverge_grid, diverge_point, DivergeGridReport, DivergePair, DivergenceRecord,
};
use register_relocation::experiments::Arch;
use register_relocation::isa::{analysis, assemble, disassemble, Rrm};
use register_relocation::runtime::{event_diff, CostBucket, Event};
use register_relocation::sim::{write_chrome_trace, DivergeConfig, DivergeOutcome};
use register_relocation::machine::{Machine, MachineConfig};
use register_relocation::report::{format_panel, format_sweep_summary, format_trace_point};
use register_relocation::store::Store;
use register_relocation::sweep::{SweepGrid, SweepRunner};
use register_relocation::trace::{persist_trace_metrics, TracedPoint};
use rr_telemetry::log::{self, Level};
use rr_telemetry::{error, info, warn, METRICS};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Global flags, honored by every subcommand, stripped before dispatch
    // so positional-argument scans (e.g. input files) never see their
    // values.
    let log_level = take_flag_value(&mut args, "--log-level");
    let metrics_out = take_flag_value(&mut args, "--metrics-out");
    // The CLI talks at `info` by default (sweep summaries, files written);
    // `RUST_LOG` overrides that, and an explicit `--log-level` overrides
    // both.
    log::set_level(Level::Info);
    log::init_from_env();
    if let Some(raw) = log_level {
        match Level::parse(&raw) {
            Some(level) => log::set_level(level),
            None => {
                eprintln!("rr: bad --log-level `{raw}`; expected error, warn, info, debug, or off");
                return ExitCode::FAILURE;
            }
        }
    }
    // dispatch: begin (the sync test scans this block against SUBCOMMANDS)
    let result = match args.first().map(String::as_str) {
        Some("asm") => cmd_asm(&args[1..]),
        Some("dis") => cmd_dis(&args[1..]),
        Some("demand") => cmd_demand(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("fig5") => cmd_sweep(&args[1..], Figure::Fig5),
        Some("fig6") => cmd_sweep(&args[1..], Figure::Fig6),
        Some("homogeneous") => cmd_sweep(&args[1..], Figure::Homogeneous),
        Some("trace") => cmd_trace(&args[1..]),
        Some("diverge") => cmd_diverge(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("serve") => cmd_serve(&args[1..], metrics_out.as_deref()),
        Some("top") => cmd_top(&args[1..]),
        Some("help") | None => {
            if args.iter().any(|a| a == "--list") {
                // Bare subcommand names, one per line, for shell completion.
                for sub in SUBCOMMANDS {
                    println!("{sub}");
                }
            } else {
                print!("{}", USAGE);
            }
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}`; try `rr help`")),
    };
    // dispatch: end
    if let Some(path) = metrics_out {
        let json = METRICS.snapshot().to_json_pretty();
        if let Err(e) = std::fs::write(&path, json) {
            error!("rr", "cannot write metrics to `{path}`: {e}");
        } else {
            info!("rr", "wrote telemetry metrics to {path}");
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // The one deliberate raw stderr write: the process's dying
            // words must not depend on the logger's configured level.
            eprintln!("rr: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Removes `name <value>` from `args`, returning the value.
fn take_flag_value(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 < args.len() {
        let value = args.remove(i + 1);
        args.remove(i);
        Some(value)
    } else {
        args.remove(i);
        None
    }
}

/// Every subcommand, in `rr help` order — what `rr help --list` prints for
/// shell completion.
const SUBCOMMANDS: &[&str] = &[
    "asm", "dis", "demand", "check", "run", "fig5", "fig6", "homogeneous", "trace", "diverge",
    "cache", "bench", "serve", "top", "help",
];

const USAGE: &str = "\
rr — register-relocation toolchain

  rr asm    <file.s>                      assemble to hex words
  rr dis    <file.hex>                    disassemble hex words
  rr demand <file.s>                      register demand and context size
  rr check  <file.s> --size <n>           static context-bounds check
  rr run    <file.s> [--rrm <mask>] [--cycles <n>] [--regs <n>] [--trace]
  rr fig5        [--file <F>] [--jobs <n>] [--json <path>] [--seed <s>] [--progress] [--trace-out <path>]
  rr fig6        [--file <F>] [--jobs <n>] [--json <path>] [--seed <s>] [--progress] [--trace-out <path>]
  rr homogeneous [--file <F>] [--context <C>] [--jobs <n>] [--json <path>] [--seed <s>] [--progress] [--trace-out <path>]
  rr trace <fig5|fig6|homogeneous> --point <F,R,L> [--trace-out <path>] [--metrics <path>]
  rr diverge <fig5|fig6|homogeneous> (--point <F,R,L> | --heatmap) [--arch-a <l>] [--arch-b <l>]
  rr cache <stats|verify|gc> [--store <dir>] [--json]
  rr bench [--quick] [--check] [--tolerance <f>] [--iterations <n>] [--baseline <path>]
  rr serve [--addr <a>] [--workers <n>] [--queue-cap <n>] [--sim-jobs <n>]
           [--rate-budget <n>] [--rate-refill <n>] [--no-rate] [--store <dir>]
  rr top   [--addr <a>] [--interval-secs <n>] [--count <n>]
  rr help [--list]

Global flags (any subcommand): --log-level <error|warn|info|debug|off>
sets the stderr log filter (default info; $RUST_LOG also understood);
--metrics-out <path> writes the process's telemetry counters as JSON on
exit.
Sweep flags: --jobs 0 (default) = one worker per hardware thread; --json -
writes the full per-run report to stdout; --threads <n> / --work <n> shrink
the workloads for quick looks (figures use 64 threads x 20000 cycles);
--trace-out <path> re-runs the sweep's busiest point (most simulated cycles
over both architectures, so the same sweep always picks the same point)
with event recording and writes a Perfetto-loadable Chrome trace there.
Tracing: rr trace deep-dives one grid point — see `rr trace --help`.
Divergence: rr diverge runs two configurations of one seeded workload in
lockstep and bisects to the exact first divergent event (or sweeps the
whole grid as a heatmap) — see `rr diverge --help`.
Caching: --store [dir] persists every computed point (default dir
.rr-store, or $RR_STORE) and serves it back on warm runs byte-identically;
--no-store disables the cache. rr cache stats/verify/gc inspect, integrity-
check, and clean the store (stats --json prints the machine-readable shape
the daemon's /health embeds). rr help --list prints bare subcommand names,
one per line, for shell completion.
Checkpointing: --checkpoint-every <cycles> (sweeps; needs --store) snapshots
every in-flight engine into the store at that simulated-cycle stride, and an
interrupted sweep rerun resumes each point from its newest valid checkpoint
instead of starting over. Results are bit-identical with or without
checkpoints; damaged checkpoints degrade to recomputation from cycle 0.
Serving: rr serve runs a long-lived HTTP daemon accepting sweep jobs
(POST /jobs), deduping them against the result store, and answering
/health and /metrics — see `rr serve --help`. rr top polls a running
daemon's /metrics?format=prometheus and renders live per-endpoint
p50/p95/p99 latencies plus queue depth — see `rr top --help`.
Benching: rr bench runs the pinned perf suite and writes the next
BENCH_<seq>.json; rr bench --check reruns it and exits nonzero if cycle
invariants changed or wall clock regressed beyond --tolerance (default
0.25 = 25%) vs the latest (or --baseline) report — see `rr bench --help`.
";

const BENCH_USAGE: &str = "\
rr bench — the pinned perf-regression suite

  rr bench [flags]            run the suite, write BENCH_<seq>.json
  rr bench --check [flags]    run the suite, compare against a baseline,
                              exit nonzero on regression (writes nothing)

The suite executes cold and warm figure sweeps against a fresh result
store, a store integrity pass, and one fully traced point, several times
over. Each case reports its median/min wall nanoseconds plus cycle-exact
invariants (simulated cycle totals, point counts, cache hits, event
counts) that must be identical run to run: --check compares invariants
exactly and wall clock in the regression direction only.

  --quick              panel-sized suite with shrunk workloads (CI smoke;
                       the default suite is the full paper-scale grids)
  --check              compare instead of record
  --baseline <path>    baseline report for --check (default: the highest
                       BENCH_<seq>.json in the current directory)
  --tolerance <f>      allowed fractional wall regression (default 0.25)
  --iterations <n>     repeats per case (default: 3 quick, 5 full)
  --seed <s>           workload seed (default 1993; must match baseline)
  --jobs <n>           sweep workers (default 1 for stable wall clocks)
";

const TRACE_USAGE: &str = "\
rr trace — deep-dive one sweep point with cycle-stamped event tracing

  rr trace <fig5|fig6|homogeneous> --point <F,R,L> [flags]

The point runs both architectures (fixed and flexible) with full event
recording; every stream is verified against the replay accountant (the
events must re-derive the engine's statistics exactly) before anything is
reported. Output: a side-by-side terminal summary, and optionally

  --trace-out <path>   Chrome trace_event JSON of both runs (fixed is
                       process 1, flexible process 2; 1 us = 1 cycle).
                       Load in https://ui.perfetto.dev or chrome://tracing.
  --metrics <path>     windowed metrics + histograms as JSON (--metrics -
                       for stdout)

Flags shared with the sweep subcommands: --seed <s>, --threads <n>,
--work <n>, --context <C> (homogeneous only), --store [dir] / --no-store.
With a store attached, the point's metric summary is persisted under a
trace-tagged content address next to the sweep results.

Coordinates: --point F,R,L — register file size, mean run length, fault
latency, which must lie on the figure's grid (fig5: F in {64,128,256},
R in {8,32,128}, L in {20,50,100,200,400,800}; fig6: R in {32,128,512},
L in {25,50,100,200,350,500}).

Examples

  # The Figure 5 efficiency-cliff point, traced into Perfetto
  rr trace fig5 --point 64,8,400 --trace-out cliff.json

  # Quick look with a smaller workload, metrics to stdout
  rr trace fig5 --point 64,8,100 --threads 8 --work 2000 --metrics -

  # A synchronization point, persisting the metric summary in the store
  rr trace fig6 --point 128,128,500 --store
";

const DIVERGE_USAGE: &str = "\
rr diverge — cycle-accurate divergence explorer for policy comparisons

  rr diverge <fig5|fig6|homogeneous> --point <F,R,L> [flags]
  rr diverge <fig5|fig6|homogeneous> --heatmap [--jobs <n>] [flags]

Runs two configurations (two architectures) of the *same seeded workload*
in lockstep, window by window, comparing their event streams at every
scheduling boundary. On the first differing window it binary-searches
from the last clean pair of snapshots down to the exact first divergent
event, verifies the replay reproduces it bit for bit, and reports the
event with surrounding context from both legs, the per-bucket cost split
at the divergence cycle, and a field-by-field engine state diff.
Identical configurations always report `no divergence`, and every number
printed is deterministic — byte-identical across reruns and `--jobs`.

  --arch-a <label>     leg A, the baseline (default fixed)
  --arch-b <label>     leg B, the candidate (default flexible); labels:
                       fixed, flexible, flexible-ff1, flexible-lookup,
                       flexible-add (self-compare: same label twice)
  --window <cycles>    lockstep stride between comparisons (default 8192)
  --context-events <k> events of context shown around the divergence
                       (default 8)
  --json <path|->      machine-readable report (point: the full outcome
                       minus raw streams; heatmap: the record list)
  --trace-out <path>   point mode: dual-process Chrome trace_event JSON of
                       both legs (leg A is pid 1, leg B pid 2; 1 us =
                       1 cycle) — load in https://ui.perfetto.dev
  --heatmap            sweep the figure's whole F x R x L grid instead,
                       printing per-panel tables of first-divergence
                       cycles and efficiency deltas
  --jobs <n>           heatmap workers (default 0 = all hardware threads)

Flags shared with the sweep subcommands: --seed <s>, --threads <n>,
--work <n>, --file <F>, --context <C> (homogeneous only), and
--store [dir] / --no-store. With a store attached, each point's compact
divergence record is cached under a diverge-tagged content address:
a warm heatmap replays records byte-identically without simulating.

Examples

  # Where does fixed partitioning first part ways with relocation on the
  # Figure 5 efficiency-cliff point?
  rr diverge fig5 --point 64,8,400

  # Prove determinism to yourself: a self-compare never diverges
  rr diverge fig5 --point 64,8,400 --arch-a flexible --arch-b flexible

  # Allocator-cost comparison, full grid, cached
  rr diverge fig5 --heatmap --arch-a flexible --arch-b flexible-ff1 --store
";

const SERVE_USAGE: &str = "\
rr serve — the sweep-job HTTP daemon

  rr serve [flags]

Runs a long-lived service that accepts figure sweeps as jobs over a
minimal HTTP/1.1 API (std::net only; JSON bodies), executes them on a
bounded worker pool through the same runner and result store as the
sweep subcommands, and serves results byte-identical to `rr fig5 --json`.
Resubmitting a spec already queued, running, or finished returns the
existing job (dedup by content fingerprint); points previously computed
by any run against the same store are served from it without simulating.

  --addr <a>           bind address (default 127.0.0.1:8553; use :0 for
                       an ephemeral port, printed on startup)
  --workers <n>        concurrent sweep jobs (default 1)
  --queue-cap <n>      max queued jobs before 503 (default 64)
  --sim-jobs <n>       simulator threads per sweep (default 0 = all cores)
  --rate-budget <n>    per-client burst budget (default 20 requests)
  --rate-refill <n>    per-client steady rate (default 10 requests/s)
  --no-rate            disable rate limiting
  --store [dir] / --no-store
                       result store (default .rr-store, or $RR_STORE);
                       --no-store runs uncached and disables job reuse
                       across restarts
  --journal <path> / --no-journal
                       crash-safe job journal (default
                       <store>/serve-journal.jsonl when a store is on).
                       A restarted daemon — graceful or kill -9 —
                       re-adopts unfinished jobs and keeps finished
                       tickets servable without recompute
  --job-ttl-secs <n>   drop finished/failed/cancelled tickets n seconds
                       after they settle (default: keep until deleted)
  --checkpoint-every <cycles>
                       snapshot in-flight engines into the store at this
                       cycle stride, so re-adopted jobs resume points
                       mid-simulation (needs a store)

API: POST /jobs {\"kind\": \"fig5\"|\"fig6\"|\"homogeneous\", \"file\"?, \"seed\"?,
\"threads\"?, \"work\"?, \"context\"?} -> job ticket; GET /jobs; GET /jobs/<id>;
GET /jobs/<id>/result; GET /jobs/<id>/timeline (Chrome/Perfetto trace of
the job's spans: queue wait, per-point compute, store traffic — load it
at ui.perfetto.dev); DELETE /jobs/<id> (cancel while queued, drop when
terminal, 409 while running); GET /health (includes journal entry and
compaction stats); GET /metrics (JSON snapshot; ?format=prometheus for
text exposition 0.0.4 with latency histograms); PUT /shutdown (graceful:
drains accepted jobs before exiting). Over-budget clients get 429 with a
Retry-After; /health, /metrics, and /shutdown are never rate limited. A
request not delivered within the read deadline gets 408.

Observability: every request gets a trace id; all log lines emitted while
handling it (and while its job runs) carry `trace=<id>`, and the id is in
the job's status body. The global `--metrics-out <path>` flag makes the
daemon flush its metrics snapshot to the path every second (atomically,
on top of the write-on-exit every subcommand does). `rr top` renders the
daemon's latency histograms live.

Example

  rr serve --addr 127.0.0.1:8553 --workers 2 --store &
  curl -s -X POST localhost:8553/jobs \\
       -d '{\"kind\": \"fig5\", \"file\": 64, \"threads\": 8, \"work\": 2000}'
  curl -s localhost:8553/jobs/1
  curl -s localhost:8553/jobs/1/result
  curl -s -X PUT localhost:8553/shutdown
";

fn read_source(args: &[String]) -> Result<(String, String), String> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("missing input file")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Ok((path.clone(), text))
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_u32(s: &str, what: &str) -> Result<u32, String> {
    let (radix, body) = match s.strip_prefix("0x") {
        Some(hex) => (16, hex),
        None => (10, s),
    };
    u32::from_str_radix(body, radix).map_err(|_| format!("bad {what} `{s}`"))
}

fn cmd_asm(args: &[String]) -> Result<(), String> {
    let (_path, text) = read_source(args)?;
    let p = assemble(&text).map_err(|e| e.to_string())?;
    for w in p.words() {
        println!("{w:08x}");
    }
    Ok(())
}

fn cmd_dis(args: &[String]) -> Result<(), String> {
    let (_path, text) = read_source(args)?;
    let mut words = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let body = line.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let w = u32::from_str_radix(body.trim_start_matches("0x"), 16)
            .map_err(|_| format!("line {}: bad hex word `{body}`", i + 1))?;
        words.push(w);
    }
    for line in disassemble(&words) {
        println!("{line}");
    }
    Ok(())
}

fn cmd_demand(args: &[String]) -> Result<(), String> {
    let (path, text) = read_source(args)?;
    let p = assemble(&text).map_err(|e| e.to_string())?;
    let usage = analysis::register_usage(p.words());
    let size = analysis::context_size_needed(usage.demand, 4);
    println!("{path}: demand {} registers ({} distinct)", usage.demand, usage.distinct);
    println!("context size needed: {size} (waste {})", size - usage.demand);
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let (path, text) = read_source(args)?;
    let size = parse_u32(
        &flag_value(args, "--size").ok_or("check needs --size <registers>")?,
        "context size",
    )?;
    let p = assemble(&text).map_err(|e| e.to_string())?;
    let violations = analysis::check_context_bounds(p.words(), size);
    if violations.is_empty() {
        println!("{path}: ok for a {size}-register context");
        Ok(())
    } else {
        for v in &violations {
            error!("check", "{path}: {v}");
        }
        Err(format!("{} context-bounds violation(s)", violations.len()))
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let (_path, text) = read_source(args)?;
    let p = assemble(&text).map_err(|e| e.to_string())?;
    let cycles = match flag_value(args, "--cycles") {
        Some(v) => u64::from(parse_u32(&v, "cycle budget")?),
        None => 100_000,
    };
    let mut cfg = MachineConfig::default_128();
    if let Some(v) = flag_value(args, "--regs") {
        cfg.num_registers = parse_u32(&v, "register count")? as u16;
        cfg.operand_width = 6;
    }
    let mut m = Machine::new(cfg).map_err(|e| e.to_string())?;
    if args.iter().any(|a| a == "--trace") {
        m.enable_trace(32);
    }
    if let Some(v) = flag_value(args, "--rrm") {
        m.set_rrm(0, Rrm::from_raw(parse_u32(&v, "rrm")? as u16));
    }
    m.load_program(&p).map_err(|e| e.to_string())?;
    let outcome = m.run(cycles).map_err(|e| e.to_string())?;
    println!("{outcome:?} after {} cycles, {} instructions", m.cycles(), m.instret());
    let touched: Vec<(usize, u32)> = m
        .registers()
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != 0)
        .map(|(i, &v)| (i, v))
        .collect();
    if touched.is_empty() {
        println!("all registers zero");
    } else {
        for (i, v) in touched {
            println!("R{i:<4} = {v:#010x} ({v})");
        }
    }
    if args.iter().any(|a| a == "--trace") {
        println!("-- last instructions --\n{}", m.trace().render());
    }
    Ok(())
}

/// Which figure family a sweep subcommand regenerates.
#[derive(Debug, Clone, Copy)]
enum Figure {
    Fig5,
    Fig6,
    Homogeneous,
}

/// Builds the grid a sweep or trace subcommand addresses, applying the
/// shared flags: `--seed`, `--file`, `--context` (homogeneous), and the
/// workload-scaling knobs `--threads` / `--work` (the paper's figures use
/// the defaults: 64 threads, 20k cycles of work each).
fn build_grid(args: &[String], figure: Figure) -> Result<(SweepGrid, &'static str), String> {
    let seed = match flag_value(args, "--seed") {
        Some(v) => v.parse::<u64>().map_err(|_| format!("bad seed `{v}`"))?,
        None => std::env::var("RR_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1993),
    };
    let file = flag_value(args, "--file")
        .map(|v| parse_u32(&v, "register file size"))
        .transpose()?;
    let (mut grid, title) = match figure {
        Figure::Fig5 => (
            match file {
                Some(f) => SweepGrid::figure5_panel(f, seed),
                None => SweepGrid::figure5(seed),
            },
            "Figure 5 (cache faults)",
        ),
        Figure::Fig6 => (
            match file {
                Some(f) => SweepGrid::figure6_panel(f, seed),
                None => SweepGrid::figure6(seed),
            },
            "Figure 6 (synchronization faults)",
        ),
        Figure::Homogeneous => {
            let c = match flag_value(args, "--context") {
                Some(v) => parse_u32(&v, "context size")?,
                None => 8,
            };
            (
                SweepGrid::homogeneous(file.unwrap_or(128), c, seed),
                "Section 3.4 (homogeneous contexts)",
            )
        }
    };
    if let Some(v) = flag_value(args, "--threads") {
        grid.base.threads =
            v.parse::<usize>().map_err(|_| format!("bad thread count `{v}`"))?;
    }
    if let Some(v) = flag_value(args, "--work") {
        grid.base.work_per_thread =
            v.parse::<u64>().map_err(|_| format!("bad work amount `{v}`"))?;
    }
    Ok((grid, title))
}

fn cmd_sweep(args: &[String], figure: Figure) -> Result<(), String> {
    let jobs = match flag_value(args, "--jobs") {
        Some(v) => v.parse::<usize>().map_err(|_| format!("bad job count `{v}`"))?,
        None => 0, // one worker per hardware thread
    };
    let (grid, title) = build_grid(args, figure)?;
    let mut runner = SweepRunner::new(jobs).with_store(resolve_store(args));
    if let Some(v) = flag_value(args, "--checkpoint-every") {
        let every = v.parse::<u64>().map_err(|_| format!("bad checkpoint stride `{v}`"))?;
        if runner.store().is_none() {
            return Err(
                "--checkpoint-every needs a result store (add --store [dir])".to_string()
            );
        }
        runner = runner.with_checkpoint_every(Some(every));
    }
    if args.iter().any(|a| a == "--progress") {
        runner = runner.with_progress(true);
    }
    let run = runner.run(&grid)?;
    for &f in &grid.file_sizes {
        println!("{}", format_panel(&format!("{title}: F = {f} registers"), &run.report.panel(f)));
    }
    info!("sweep", "{}", format_sweep_summary(&run));
    if let Some(path) = flag_value(args, "--json") {
        let json = run.report.to_json_pretty()?;
        if path == "-" {
            println!("{json}");
        } else {
            std::fs::write(&path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            info!("sweep", "wrote sweep report to {path}");
        }
    }
    if let Some(path) = flag_value(args, "--trace-out") {
        let busiest = run
            .report
            .busiest_point()
            .ok_or("cannot trace the busiest point of an empty sweep")?;
        let point = grid
            .point_at(busiest.file_size, busiest.run_length, busiest.latency)
            .ok_or("busiest point fell off its own grid (bug)")?;
        info!(
            "sweep",
            "tracing busiest point F={} R={} L={} ...",
            busiest.file_size,
            busiest.run_length,
            busiest.latency
        );
        let traced = TracedPoint::run(&point.spec)?;
        write_trace_file(&path, |out| traced.write_chrome_trace(out))?;
        info!("sweep", "wrote Chrome trace to {path} (load in https://ui.perfetto.dev)");
        if let Some(store) = runner.store() {
            if let Err(e) = persist_trace_metrics(store, &traced) {
                warn!("sweep", "could not store trace metrics: {e}");
            }
        }
    }
    Ok(())
}

/// Parses `--point F,R,L` trace coordinates.
fn parse_point(raw: &str) -> Result<(u32, f64, u64), String> {
    let parts: Vec<&str> = raw.split(',').map(str::trim).collect();
    if parts.len() != 3 {
        return Err(format!("bad --point `{raw}`; expected F,R,L (e.g. 64,8,400)"));
    }
    let file_size = parse_u32(parts[0], "point file size")?;
    let run_length =
        parts[1].parse::<f64>().map_err(|_| format!("bad point run length `{}`", parts[1]))?;
    let latency =
        parts[2].parse::<u64>().map_err(|_| format!("bad point latency `{}`", parts[2]))?;
    Ok((file_size, run_length, latency))
}

/// Streams a Chrome trace into `path` through a buffered file, so the
/// document is never held in memory.
fn write_trace_file(
    path: &str,
    write: impl FnOnce(BufWriter<File>) -> io::Result<BufWriter<File>>,
) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    write(BufWriter::new(file))
        .and_then(|mut out| out.flush())
        .map_err(|e| format!("cannot write `{path}`: {e}"))
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    if args.is_empty() || args.iter().any(|a| a == "--help") {
        print!("{}", TRACE_USAGE);
        return Ok(());
    }
    let figure = match args.first().map(String::as_str) {
        Some("fig5") => Figure::Fig5,
        Some("fig6") => Figure::Fig6,
        Some("homogeneous") => Figure::Homogeneous,
        Some(other) => {
            return Err(format!(
                "unknown trace target `{other}`; expected fig5, fig6, or homogeneous \
                 (see `rr trace --help`)"
            ))
        }
        None => unreachable!("args checked non-empty above"),
    };
    let args = &args[1..];
    let (grid, title) = build_grid(args, figure)?;
    let raw_point =
        flag_value(args, "--point").ok_or("trace needs --point F,R,L (see `rr trace --help`)")?;
    let (file_size, run_length, latency) = parse_point(&raw_point)?;
    let point = grid.point_at(file_size, run_length, latency).ok_or_else(|| {
        format!(
            "point F={file_size} R={run_length} L={latency} is not on the {title} grid \
             (F in {:?}, R in {:?}, L in {:?})",
            grid.file_sizes, grid.run_lengths, grid.latencies
        )
    })?;
    let traced = TracedPoint::run(&point.spec)?;
    println!("{}", format_trace_point(&traced));
    if let Some(path) = flag_value(args, "--trace-out") {
        write_trace_file(&path, |out| traced.write_chrome_trace(out))?;
        info!("trace", "wrote Chrome trace to {path} (load in https://ui.perfetto.dev)");
    }
    if let Some(path) = flag_value(args, "--metrics") {
        let json = traced.metrics_record().to_json()?;
        if path == "-" {
            println!("{json}");
        } else {
            std::fs::write(&path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            info!("trace", "wrote trace metrics to {path}");
        }
    }
    if let Some(store) = resolve_store(args) {
        persist_trace_metrics(&store, &traced).map_err(|e| e.to_string())?;
        info!("trace", "stored trace metrics under {}", store.root().display());
    }
    Ok(())
}

/// Formats a window/bracket upper bound, which is `u64::MAX` when the
/// divergence was only visible in the run totals (no stream mismatch).
fn fmt_bound(b: u64) -> String {
    if b == u64::MAX { "end".to_string() } else { b.to_string() }
}

/// Prints one leg's event context around the divergence, marking the
/// first divergent event (or its absence) with `>`.
fn print_leg_context(label: &str, ctx: &[Event], first: Option<&Event>) {
    println!("  leg {label}:");
    if ctx.is_empty() && first.is_none() {
        println!("    > (no event — the other leg acted here)");
        return;
    }
    let mut marked = false;
    for e in ctx {
        let hit = !marked && first == Some(e);
        if hit {
            marked = true;
        }
        println!("    {} {}", if hit { '>' } else { ' ' }, event_diff::summary(e));
    }
}

fn print_diverge_point(
    title: &str,
    f: u32,
    r: f64,
    l: u64,
    pair: &DivergePair,
    out: &DivergeOutcome,
) {
    println!(
        "rr diverge — {title} point F={f} R={r} L={l} — {} vs {}",
        pair.arch_a.label(),
        pair.arch_b.label()
    );
    match &out.divergence {
        None => println!(
            "no divergence: {} event(s) identical across {} lockstep window(s)",
            out.events_compared, out.windows_scanned
        ),
        Some(d) => {
            println!(
                "divergence at cycle {} (event index {}, window {}..{}, bracket {}..{}, \
                 {} bisection step(s))",
                d.cycle,
                d.event_index,
                d.window.0,
                fmt_bound(d.window.1),
                d.bracket.0,
                fmt_bound(d.bracket.1),
                d.bisect_steps
            );
            print_leg_context(&out.a.label, &d.context_a, d.first_a.as_ref());
            print_leg_context(&out.b.label, &d.context_b, d.first_b.as_ref());
            let deltas: Vec<String> = CostBucket::ALL
                .iter()
                .enumerate()
                .filter(|&(i, _)| d.cost_a[i] != d.cost_b[i])
                .map(|(i, b)| {
                    format!("{} {:+}", b.label(), d.cost_b[i] as i64 - d.cost_a[i] as i64)
                })
                .collect();
            if deltas.is_empty() {
                println!("  cumulative cost at divergence: identical in every bucket");
            } else {
                println!(
                    "  cumulative cost delta at divergence ({} - {}): {}",
                    out.b.label,
                    out.a.label,
                    deltas.join(", ")
                );
            }
            if d.state.is_empty() {
                println!("  engine state at divergence: identical");
            } else {
                println!("  engine state at cycle {}:", d.cycle);
                for delta in &d.state {
                    println!("    {:<20} {} vs {}", delta.field, delta.a, delta.b);
                }
            }
        }
    }
    for leg in [&out.a, &out.b] {
        println!(
            "  {:<16} efficiency {:.4}, {} total cycles",
            leg.label,
            leg.stats.efficiency(),
            leg.stats.total_cycles
        );
    }
}

fn print_diverge_heatmap(
    grid: &SweepGrid,
    title: &str,
    arch_a: Arch,
    arch_b: Arch,
    report: &DivergeGridReport,
) {
    println!("rr diverge heatmap — {title} — {} vs {}", arch_a.label(), arch_b.label());
    let n_r = grid.run_lengths.len();
    let n_l = grid.latencies.len();
    let header: String = grid.latencies.iter().map(|l| format!("{l:>10}")).collect();
    for (fi, &f) in grid.file_sizes.iter().enumerate() {
        println!();
        println!("F = {f} registers — first divergence cycle ('-' = no divergence)");
        println!("  {:>6}{header}", "R \\ L");
        for (ri, &r) in grid.run_lengths.iter().enumerate() {
            let mut row = format!("  {r:>6}");
            for li in 0..n_l {
                let rec = &report.records[(fi * n_r + ri) * n_l + li];
                match rec.divergence_cycle {
                    Some(c) => row.push_str(&format!("{c:>10}")),
                    None => row.push_str(&format!("{:>10}", "-")),
                }
            }
            println!("{row}");
        }
        println!("  efficiency delta ({} - {})", arch_b.label(), arch_a.label());
        for (ri, &r) in grid.run_lengths.iter().enumerate() {
            let mut row = format!("  {r:>6}");
            for li in 0..n_l {
                let rec = &report.records[(fi * n_r + ri) * n_l + li];
                row.push_str(&format!("{:>10}", format!("{:+.3}", rec.efficiency_delta())));
            }
            println!("{row}");
        }
    }
    let diverged = report.records.iter().filter(|r| r.divergence_cycle.is_some()).count();
    println!();
    println!("{diverged}/{} point(s) diverged", report.records.len());
}

fn cmd_diverge(args: &[String]) -> Result<(), String> {
    if args.is_empty() || args.iter().any(|a| a == "--help") {
        print!("{}", DIVERGE_USAGE);
        return Ok(());
    }
    let figure = match args.first().map(String::as_str) {
        Some("fig5") => Figure::Fig5,
        Some("fig6") => Figure::Fig6,
        Some("homogeneous") => Figure::Homogeneous,
        Some(other) => {
            return Err(format!(
                "unknown diverge target `{other}`; expected fig5, fig6, or homogeneous \
                 (see `rr diverge --help`)"
            ))
        }
        None => unreachable!("args checked non-empty above"),
    };
    let args = &args[1..];
    let (grid, title) = build_grid(args, figure)?;
    let arch_a = match flag_value(args, "--arch-a") {
        Some(v) => Arch::from_label(&v)?,
        None => Arch::Fixed,
    };
    let arch_b = match flag_value(args, "--arch-b") {
        Some(v) => Arch::from_label(&v)?,
        None => Arch::Flexible,
    };
    let window = match flag_value(args, "--window") {
        Some(v) => v.parse::<u64>().map_err(|_| format!("bad lockstep window `{v}`"))?,
        None => 8192,
    };
    let context = match flag_value(args, "--context-events") {
        Some(v) => v.parse::<usize>().map_err(|_| format!("bad context event count `{v}`"))?,
        None => 8,
    };
    let trace_out = flag_value(args, "--trace-out");
    let cfg = DivergeConfig { window, context, keep_events: trace_out.is_some() };

    if args.iter().any(|a| a == "--heatmap") {
        if trace_out.is_some() {
            return Err("--trace-out needs point mode (--point F,R,L), not --heatmap".to_string());
        }
        let jobs = match flag_value(args, "--jobs") {
            Some(v) => v.parse::<usize>().map_err(|_| format!("bad job count `{v}`"))?,
            None => 0,
        };
        let store = resolve_store(args);
        let report = diverge_grid(&grid, arch_a, arch_b, &cfg, store.as_ref(), jobs)?;
        print_diverge_heatmap(&grid, title, arch_a, arch_b, &report);
        if store.is_some() {
            info!(
                "diverge",
                "store: {} hit(s), {} miss(es), {} newly stored",
                report.hits,
                report.misses,
                report.stored
            );
        }
        if let Some(path) = flag_value(args, "--json") {
            let json = serde_json::to_string_pretty(&report.records)
                .map_err(|e| format!("cannot serialize divergence records: {e}"))?;
            if path == "-" {
                println!("{json}");
            } else {
                std::fs::write(&path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
                info!("diverge", "wrote {} divergence record(s) to {path}", report.records.len());
            }
        }
        return Ok(());
    }

    let raw_point = flag_value(args, "--point")
        .ok_or("diverge needs --point F,R,L or --heatmap (see `rr diverge --help`)")?;
    let (file_size, run_length, latency) = parse_point(&raw_point)?;
    let point = grid.point_at(file_size, run_length, latency).ok_or_else(|| {
        format!(
            "point F={file_size} R={run_length} L={latency} is not on the {title} grid \
             (F in {:?}, R in {:?}, L in {:?})",
            grid.file_sizes, grid.run_lengths, grid.latencies
        )
    })?;
    let pair = DivergePair { spec: point.spec, arch_a, arch_b };
    let outcome = diverge_point(&pair, &cfg)?;
    print_diverge_point(title, file_size, run_length, latency, &pair, &outcome);
    if let Some(path) = trace_out {
        let ea = outcome.a.events.as_ref().ok_or("leg A events missing under --trace-out (bug)")?;
        let eb = outcome.b.events.as_ref().ok_or("leg B events missing under --trace-out (bug)")?;
        let legs = [(1, pair.arch_a.label(), ea), (2, pair.arch_b.label(), eb)];
        write_trace_file(&path, |out| write_chrome_trace(out, &legs))?;
        info!("diverge", "wrote dual-leg Chrome trace to {path} (load in https://ui.perfetto.dev)");
    }
    if let Some(path) = flag_value(args, "--json") {
        // The raw event streams can run to hundreds of thousands of
        // entries; the JSON report carries everything but them.
        let mut slim = outcome.clone();
        slim.a.events = None;
        slim.b.events = None;
        let json = serde_json::to_string_pretty(&slim)
            .map_err(|e| format!("cannot serialize divergence report: {e}"))?;
        if path == "-" {
            println!("{json}");
        } else {
            std::fs::write(&path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            info!("diverge", "wrote divergence report to {path}");
        }
    }
    if let Some(store) = resolve_store(args) {
        let record = DivergenceRecord::from_outcome(&pair, &cfg, &outcome);
        let persisted = cache::diverge_key(&pair.spec_a(), store.salt())
            .and_then(|key| record.to_json().and_then(|json| store.put(&key, json.as_bytes())));
        match persisted {
            Ok(()) => {
                info!("diverge", "stored divergence record under {}", store.root().display())
            }
            Err(e) => warn!("diverge", "could not store divergence record: {e}"),
        }
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help") {
        print!("{}", BENCH_USAGE);
        return Ok(());
    }
    let suite = if args.iter().any(|a| a == "--quick") { Suite::Quick } else { Suite::Full };
    let mut config = BenchConfig::new(suite);
    if let Some(v) = flag_value(args, "--iterations") {
        config.iterations =
            v.parse::<usize>().map_err(|_| format!("bad iteration count `{v}`"))?;
    }
    if let Some(v) = flag_value(args, "--seed") {
        config.seed = v.parse::<u64>().map_err(|_| format!("bad seed `{v}`"))?;
    }
    if let Some(v) = flag_value(args, "--jobs") {
        config.jobs = v.parse::<usize>().map_err(|_| format!("bad job count `{v}`"))?;
    }
    let tolerance = match flag_value(args, "--tolerance") {
        Some(v) => {
            let t = v.parse::<f64>().map_err(|_| format!("bad tolerance `{v}`"))?;
            if t.is_nan() || t < 0.0 {
                return Err(format!("tolerance must be >= 0, got `{v}`"));
            }
            t
        }
        None => 0.25,
    };
    let dir = std::env::current_dir().map_err(|e| format!("cannot resolve cwd: {e}"))?;
    // Resolve and parse the baseline *before* the (possibly minutes-long)
    // suite, so a missing or malformed baseline fails in milliseconds.
    let baseline = if args.iter().any(|a| a == "--check") {
        let path = match flag_value(args, "--baseline") {
            Some(p) => PathBuf::from(p),
            None => bench::latest_bench_path(&dir).ok_or_else(|| {
                format!("no BENCH_<seq>.json baseline in {}; run `rr bench` first", dir.display())
            })?,
        };
        let json = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read baseline `{}`: {e}", path.display()))?;
        Some((path, BenchReport::from_json(&json)?))
    } else {
        None
    };
    info!(
        "bench",
        "running the {} suite: {} iteration(s), seed {}, {} worker(s)",
        suite.name(),
        config.iterations,
        config.seed,
        config.jobs
    );
    let report = bench::run(&config)?;
    for case in &report.cases {
        println!(
            "{:<14} median {:>9.1}ms  min {:>9.1}ms  ({})",
            case.name,
            case.wall_nanos_median as f64 / 1e6,
            case.wall_nanos_min as f64 / 1e6,
            case.invariants
                .iter()
                .map(|i| format!("{}={}", i.name, i.value))
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    // `finish` checks or records, never both: a failing (or even passing)
    // `--check` writes nothing, so a caught regression cannot become the
    // next run's baseline.
    match bench::finish(&dir, &report, baseline.as_ref().map(|(_, b)| (b, tolerance)))? {
        Some(path) => info!("bench", "wrote {}", path.display()),
        None => {
            let (baseline_path, _) = baseline.expect("check mode has a baseline");
            println!(
                "bench check ok vs {} (tolerance {:.0}%)",
                baseline_path.display(),
                tolerance * 100.0
            );
        }
    }
    Ok(())
}

/// Opens the result store a sweep asked for, degrading to uncached (with a
/// warning) if the store cannot be opened — figure regeneration must never
/// die over its cache.
fn resolve_store(args: &[String]) -> Option<Store> {
    let dir = cache::store_dir_from_args(args)?;
    match cache::open_store(&dir) {
        Ok(store) => Some(store),
        Err(e) => {
            warn!("rr", "cannot open result store at `{}`: {e}; running uncached", dir.display());
            None
        }
    }
}

fn cmd_serve(args: &[String], metrics_out: Option<&str>) -> Result<(), String> {
    if args.iter().any(|a| a == "--help") {
        print!("{}", SERVE_USAGE);
        return Ok(());
    }
    // The global --metrics-out flag is write-on-exit for one-shot
    // subcommands; a daemon also flushes it periodically so scrapers see
    // live counters without waiting for shutdown.
    let mut opts = register_relocation::serve::ServeOptions {
        metrics_out: metrics_out.map(PathBuf::from),
        ..Default::default()
    };
    if let Some(v) = flag_value(args, "--addr") {
        opts.addr = v;
    }
    if let Some(v) = flag_value(args, "--workers") {
        opts.workers = v.parse::<usize>().map_err(|_| format!("bad worker count `{v}`"))?;
        if opts.workers == 0 {
            return Err("serve needs at least one worker".to_string());
        }
    }
    if let Some(v) = flag_value(args, "--queue-cap") {
        opts.queue_capacity =
            v.parse::<usize>().map_err(|_| format!("bad queue capacity `{v}`"))?;
        if opts.queue_capacity == 0 {
            return Err("queue capacity must be >= 1".to_string());
        }
    }
    if let Some(v) = flag_value(args, "--sim-jobs") {
        opts.sim_jobs = v.parse::<usize>().map_err(|_| format!("bad sim job count `{v}`"))?;
    }
    if args.iter().any(|a| a == "--no-rate") {
        opts.rate = None;
    } else if let Some(rate) = opts.rate.as_mut() {
        if let Some(v) = flag_value(args, "--rate-budget") {
            rate.budget = v.parse::<u64>().map_err(|_| format!("bad rate budget `{v}`"))?;
            if rate.budget == 0 {
                return Err("rate budget must be >= 1 (or use --no-rate)".to_string());
            }
        }
        if let Some(v) = flag_value(args, "--rate-refill") {
            rate.refill_per_sec =
                v.parse::<u64>().map_err(|_| format!("bad rate refill `{v}`"))?;
        }
    }
    // Unlike one-shot sweeps, the daemon caches by default: cross-restart
    // job reuse is half the point of running it. `--no-store` opts out.
    opts.store_dir = if args.iter().any(|a| a == "--no-store") {
        None
    } else {
        cache::store_dir_from_args(args)
            .or_else(|| Some(PathBuf::from(cache::DEFAULT_STORE_DIR)))
    };
    // The journal defaults on whenever a store exists: a daemon that caches
    // should also survive kill -9 without losing accepted jobs.
    opts.journal = if args.iter().any(|a| a == "--no-journal") {
        None
    } else if let Some(v) = flag_value(args, "--journal") {
        Some(PathBuf::from(v))
    } else {
        opts.store_dir.as_ref().map(|dir| dir.join("serve-journal.jsonl"))
    };
    if let Some(v) = flag_value(args, "--job-ttl-secs") {
        let secs = v.parse::<u64>().map_err(|_| format!("bad job TTL `{v}`"))?;
        if secs == 0 {
            return Err("job TTL must be >= 1 second (omit the flag to keep tickets)".to_string());
        }
        opts.job_ttl = Some(std::time::Duration::from_secs(secs));
    }
    if let Some(v) = flag_value(args, "--checkpoint-every") {
        let every = v.parse::<u64>().map_err(|_| format!("bad checkpoint stride `{v}`"))?;
        if every == 0 {
            return Err("--checkpoint-every must be >= 1 cycle".to_string());
        }
        if opts.store_dir.is_none() {
            return Err("--checkpoint-every needs a store to keep snapshots in \
                        (drop --no-store)"
                .to_string());
        }
        opts.checkpoint_every = Some(every);
    }
    register_relocation::serve::run_serve(&opts, None)
}

const TOP_USAGE: &str = "\
rr top — live latency view of a running daemon

  rr top [flags]

Polls a daemon's GET /metrics?format=prometheus and renders, per span
kind, the recorded count plus p50/p95/p99 latency (histogram bucket
upper bounds, so quantiles are conservative), alongside the current
queue depth. Endpoint rows cover whole requests; the others (queue_wait,
point_compute, store_get/put, journal_append, ...) break a job's time
down by stage.

  --addr <a>           daemon address (default 127.0.0.1:8553)
  --interval-secs <n>  seconds between refreshes (default 2)
  --count <n>          exit after n refreshes (default 0 = until ^C)

Example

  rr serve --addr 127.0.0.1:8553 --workers 2 --store &
  rr top --interval-secs 1
";

fn cmd_top(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help") {
        print!("{}", TOP_USAGE);
        return Ok(());
    }
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:8553".to_string());
    let interval = match flag_value(args, "--interval-secs") {
        Some(v) => v.parse::<u64>().map_err(|_| format!("bad interval `{v}`"))?,
        None => 2,
    };
    let count = match flag_value(args, "--count") {
        Some(v) => v.parse::<u64>().map_err(|_| format!("bad refresh count `{v}`"))?,
        None => 0,
    };
    let period = std::time::Duration::from_secs(interval.max(1));
    let mut refreshes = 0u64;
    let mut last: Option<TopView> = None;
    // Ticks are scheduled against deadlines, not `sleep(period)` after
    // rendering, so slow scrapes don't accumulate drift.
    let mut next = std::time::Instant::now();
    loop {
        let stale = match http_get_text(&addr, "/metrics?format=prometheus") {
            Ok(body) => {
                last = Some(TopView::parse(&body));
                false
            }
            // A daemon that was never reachable is an error; one that
            // drops mid-session renders the last view marked stale.
            Err(e) => match &last {
                Some(_) => true,
                None => return Err(e),
            },
        };
        refreshes += 1;
        if refreshes > 1 {
            println!();
        }
        if let Some(view) = &last {
            print!("{}", view.render(&addr, stale));
        }
        if count != 0 && refreshes >= count {
            return Ok(());
        }
        next += period;
        let now = std::time::Instant::now();
        if next <= now {
            // Fell a whole period behind (suspend, very slow scrape):
            // realign instead of firing a catch-up burst.
            next = now + period;
        }
        std::thread::sleep(next - now);
    }
}

/// One HTTP/1.1 GET against the daemon, returning the body on a 200.
///
/// The daemon closes the connection after each response, so reading to
/// EOF (after the blank line) is the framing — no chunked decoding or
/// Content-Length tracking needed.
fn http_get_text(addr: &str, path_and_query: &str) -> Result<String, String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot reach daemon at {addr}: {e} (is `rr serve` running?)"))?;
    let deadline = Some(std::time::Duration::from_secs(5));
    stream.set_read_timeout(deadline).map_err(|e| format!("socket setup: {e}"))?;
    stream.set_write_timeout(deadline).map_err(|e| format!("socket setup: {e}"))?;
    stream
        .write_all(
            format!("GET {path_and_query} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("cannot send request to {addr}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("cannot read response from {addr}: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response from {addr} (no header terminator)"))?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line from {addr}: `{status_line}`"))?;
    if status != 200 {
        return Err(format!("daemon at {addr} answered {status} for {path_and_query}"));
    }
    Ok(body.to_string())
}

/// A latency histogram reconstructed from Prometheus text exposition:
/// cumulative `le` buckets (`None` = +Inf) plus the exact count and sum.
struct HistView {
    kind: String,
    count: u64,
    sum_nanos: u64,
    /// `(upper_bound_nanos, cumulative_count)`, in exposition order.
    buckets: Vec<(Option<u64>, u64)>,
}

impl HistView {
    /// Upper bound (in nanos) of the bucket containing quantile `q`;
    /// `None` when it lands in the +Inf bucket or nothing was recorded.
    fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        self.buckets
            .iter()
            .find(|(_, cum)| *cum >= target)
            .and_then(|(bound, _)| *bound)
    }
}

/// Everything `rr top` shows for one refresh, parsed from one scrape.
struct TopView {
    histograms: Vec<HistView>,
    queue_depth: Option<u64>,
}

impl TopView {
    /// Parses the daemon's text exposition. Unknown lines are skipped, so
    /// new metric families never break an older `rr top`.
    fn parse(text: &str) -> TopView {
        fn hist(histograms: &mut Vec<HistView>, kind: &str) -> usize {
            if let Some(i) = histograms.iter().position(|h| h.kind == kind) {
                return i;
            }
            histograms.push(HistView {
                kind: kind.to_string(),
                count: 0,
                sum_nanos: 0,
                buckets: Vec::new(),
            });
            histograms.len() - 1
        }
        let mut histograms: Vec<HistView> = Vec::new();
        let mut queue_depth = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((name_and_labels, value)) = line.rsplit_once(' ') else { continue };
            let Ok(value) = value.parse::<u64>() else { continue };
            if name_and_labels == "rr_serve_queue_depth" {
                queue_depth = Some(value);
                continue;
            }
            let Some(rest) = name_and_labels.strip_prefix("rr_span_") else { continue };
            if let Some((kind_part, labels)) = rest.split_once('{') {
                let Some(kind) = kind_part.strip_suffix("_nanos_bucket") else { continue };
                let Some(le) = labels
                    .strip_prefix("le=\"")
                    .and_then(|l| l.strip_suffix("\"}"))
                else {
                    continue;
                };
                let bound = if le == "+Inf" {
                    None
                } else {
                    match le.parse::<u64>() {
                        Ok(b) => Some(b),
                        Err(_) => continue,
                    }
                };
                let i = hist(&mut histograms, kind);
                histograms[i].buckets.push((bound, value));
            } else if let Some(kind) = rest.strip_suffix("_nanos_count") {
                let i = hist(&mut histograms, kind);
                histograms[i].count = value;
            } else if let Some(kind) = rest.strip_suffix("_nanos_sum") {
                let i = hist(&mut histograms, kind);
                histograms[i].sum_nanos = value;
            }
        }
        TopView { histograms, queue_depth }
    }

    fn render(&self, addr: &str, stale: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let depth = match self.queue_depth {
            Some(d) => d.to_string(),
            None => "?".to_string(),
        };
        let marker = if stale { " — stale (last scrape failed)" } else { "" };
        let _ = writeln!(out, "rr top — {addr} — queue depth {depth}{marker}");
        let _ = writeln!(
            out,
            "  {:<22} {:>10} {:>9} {:>9} {:>9} {:>9}",
            "span", "count", "p50", "p95", "p99", "mean"
        );
        for h in &self.histograms {
            if h.count == 0 {
                continue;
            }
            let q = |q: f64| match h.quantile(q) {
                Some(nanos) => fmt_nanos(nanos),
                None => ">17s".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<22} {:>10} {:>9} {:>9} {:>9} {:>9}",
                h.kind,
                h.count,
                q(0.50),
                q(0.95),
                q(0.99),
                fmt_nanos(h.sum_nanos / h.count)
            );
        }
        if self.histograms.iter().all(|h| h.count == 0) {
            let _ = writeln!(out, "  (no spans recorded yet — submit a job or hit an endpoint)");
        }
        out
    }
}

/// Renders a nanosecond latency at a glance: `840ns`, `3.2µs`, `17ms`, `2.4s`.
fn fmt_nanos(nanos: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let n = nanos as f64;
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", n / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.1}ms", n / 1e6)
    } else {
        format!("{:.1}s", n / 1e9)
    }
}

fn cmd_cache(args: &[String]) -> Result<(), String> {
    let action = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .ok_or("cache needs an action: stats, verify, or gc")?;
    let dir = cache::store_dir_from_args(args)
        .unwrap_or_else(|| PathBuf::from(cache::DEFAULT_STORE_DIR));
    let store = cache::open_store(&dir)?;
    match action {
        "stats" => {
            if args.iter().any(|a| a == "--json") {
                // The same shape the daemon's /health embeds (see
                // `cache::CacheStatsReport`), so tooling parses one format.
                let report = cache::stats_report(&store)?;
                let json = serde_json::to_string_pretty(&report)
                    .map_err(|e| format!("cannot serialize store stats: {e}"))?;
                println!("{json}");
                return Ok(());
            }
            let s = store.stats()?;
            println!("store: {}", store.root().display());
            println!("salt:  {}", store.salt());
            println!("  records      {:>8}", s.records);
            println!("  stale        {:>8}  (other code versions; `rr cache gc` reclaims)", s.stale);
            println!("  quarantined  {:>8}", s.quarantined);
            println!("  shards       {:>8}", s.shards);
            println!("  payload      {:>8} bytes", s.payload_bytes);
            println!("  on disk      {:>8} bytes", s.file_bytes);
            Ok(())
        }
        "verify" => {
            let report = store.verify()?;
            println!("verified {} record(s): {} ok, {} quarantined",
                report.ok + report.quarantined.len() as u64,
                report.ok,
                report.quarantined.len());
            for (path, reason) in &report.quarantined {
                error!("cache", "{}: {reason}", path.display());
            }
            if report.quarantined.is_empty() {
                Ok(())
            } else {
                Err(format!("{} corrupt record(s) moved to quarantine", report.quarantined.len()))
            }
        }
        "gc" => {
            let report = store.gc()?;
            println!(
                "gc: removed {} stale/corrupt record(s) and {} quarantined file(s), freed {} bytes",
                report.removed_stale, report.removed_quarantined, report.bytes_freed
            );
            Ok(())
        }
        other => Err(format!("unknown cache action `{other}`; try stats, verify, or gc")),
    }
}

#[cfg(test)]
mod tests {
    use super::{fmt_nanos, TopView, SUBCOMMANDS, USAGE};

    /// Extracts the `Some("...")` subcommand patterns between the dispatch
    /// markers of this very source file. Scoped by the markers because
    /// `Some("fig5")`-style patterns also appear in other matches (e.g. the
    /// trace-target dispatch) and must not leak in.
    fn dispatched_subcommands() -> Vec<String> {
        let source = include_str!("rr.rs");
        let begin = source.find("// dispatch: begin").expect("begin marker present");
        let end = source[begin..].find("// dispatch: end").expect("end marker present") + begin;
        let mut names: Vec<String> = source[begin..end]
            .split("Some(\"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .map(str::to_string)
            .collect();
        names.sort();
        names.dedup();
        names
    }

    #[test]
    fn subcommand_list_matches_the_dispatch_match() {
        let dispatched = dispatched_subcommands();
        let mut listed: Vec<String> = SUBCOMMANDS.iter().map(|s| s.to_string()).collect();
        listed.sort();
        assert_eq!(
            dispatched, listed,
            "SUBCOMMANDS and the dispatch match in main() have drifted apart; \
             update both when adding or removing a subcommand"
        );
    }

    #[test]
    fn every_subcommand_is_documented_in_usage() {
        for sub in SUBCOMMANDS {
            assert!(
                USAGE.contains(&format!("rr {sub}")),
                "subcommand `{sub}` is missing from the usage text"
            );
        }
    }

    /// A miniature scrape in the daemon's exact exposition shape: one
    /// histogram family plus the queue-depth gauge, with comment and
    /// unknown lines that must be skipped.
    const SCRAPE: &str = "\
# HELP rr_span_endpoint_health_nanos latency of GET /health
# TYPE rr_span_endpoint_health_nanos histogram
rr_span_endpoint_health_nanos_bucket{le=\"16\"} 0
rr_span_endpoint_health_nanos_bucket{le=\"1024\"} 6
rr_span_endpoint_health_nanos_bucket{le=\"2048\"} 9
rr_span_endpoint_health_nanos_bucket{le=\"+Inf\"} 10
rr_span_endpoint_health_nanos_sum 12000
rr_span_endpoint_health_nanos_count 10
rr_serve_queue_depth 3
rr_serve_requests_total 42
not a metric line
";

    #[test]
    fn top_view_parses_histograms_and_queue_depth() {
        let view = TopView::parse(SCRAPE);
        assert_eq!(view.queue_depth, Some(3));
        assert_eq!(view.histograms.len(), 1);
        let h = &view.histograms[0];
        assert_eq!(h.kind, "endpoint_health");
        assert_eq!(h.count, 10);
        assert_eq!(h.sum_nanos, 12_000);
        assert_eq!(h.buckets.len(), 4);
        // p50: target 5 of 10 → first bucket with cum >= 5 is le=1024.
        assert_eq!(h.quantile(0.50), Some(1024));
        // p95: target 10 → only +Inf reaches it → None (render shows >17s).
        assert_eq!(h.quantile(0.95), None);
        // p80: target 8 → le=2048.
        assert_eq!(h.quantile(0.80), Some(2048));

        let rendered = view.render("127.0.0.1:1", false);
        assert!(rendered.contains("queue depth 3"), "{rendered}");
        assert!(!rendered.contains("stale"), "{rendered}");
        let stale = view.render("127.0.0.1:1", true);
        assert!(stale.contains("stale (last scrape failed)"), "{stale}");
        assert!(rendered.contains("endpoint_health"), "{rendered}");
        assert!(rendered.contains(">17s"), "{rendered}");
    }

    #[test]
    fn top_view_survives_an_empty_scrape() {
        let view = TopView::parse("");
        assert_eq!(view.queue_depth, None);
        assert!(view.histograms.is_empty());
        let rendered = view.render("127.0.0.1:1", false);
        assert!(rendered.contains("no spans recorded yet"), "{rendered}");
    }

    #[test]
    fn fmt_nanos_picks_the_readable_unit() {
        assert_eq!(fmt_nanos(840), "840ns");
        assert_eq!(fmt_nanos(3_200), "3.2µs");
        assert_eq!(fmt_nanos(17_000_000), "17.0ms");
        assert_eq!(fmt_nanos(2_400_000_000), "2.4s");
    }
}
