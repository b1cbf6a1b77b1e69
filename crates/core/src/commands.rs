//! The `rr` command line as data: every subcommand's flag table, and the
//! notes its `--help` prints above the flags.
//!
//! The tables are what [`crate::cli::parse`] accepts, so a flag exists for
//! a subcommand exactly when its row is here, and `--help` lists exactly
//! those rows ([`crate::cli::Command::usage`]).

use crate::cli::{Command, Flag};

/// Flags every subcommand accepts.
const GLOBAL: &[Flag] = &[
    Flag::value("--log-level <level>", "log level", "stderr log filter: error, warn, info, debug\n\
        or off (default info; $RUST_LOG also understood)"),
    Flag::value("--metrics-out <path>", "metrics path", "telemetry counters as JSON, written on exit"),
];

/// The [`crate::spec::RunSpec`] knobs of the sweep, trace and diverge
/// subcommands (and of a `rr serve` job).
const GRID: &[Flag] = &[
    Flag::value("--file <F>", "register file size", "one panel, by register file size (default:\n\
        every panel; homogeneous: 128)"),
    Flag::value("--seed <s>", "seed", "workload seed (default $RR_SEED, else 1993)"),
    Flag::value("--threads <n>", "thread count", "threads per workload (default 64)"),
    Flag::value("--work <n>", "work amount", "useful cycles per thread (default 20000)"),
];
const CONTEXT: &[Flag] =
    &[Flag::value("--context <C>", "context size", "homogeneous context size (default 8)")];
const STORE: &[Flag] = &[
    Flag::optional_value("--store [dir]", "store directory", "persist every computed result (default\n\
        dir .rr-store, or $RR_STORE); warm runs replay it"),
    Flag::switch("--no-store", "run uncached, even with $RR_STORE set"),
];

const JOBS: Flag = Flag::value("--jobs <n>", "job count", "workers (default 0 = one per hardware\n\
    thread); results are byte-identical for every count");
const CHECKPOINT_EVERY: Flag = Flag::value("--checkpoint-every <cycles>", "checkpoint stride",
    "snapshot in-flight engines into the store at this cycle\n\
    stride, so an interrupted run resumes from its newest\n\
    checkpoint (needs a store)");
const POINT: Flag =
    Flag::value("--point <F,R,L>", "point", "the grid point: file size, run length, latency");

const SWEEP: &[Flag] = &[
    JOBS,
    Flag::value("--json <path>", "JSON path", "the full per-run report as JSON (- for stdout)"),
    Flag::switch("--progress", "per-point progress lines on stderr"),
    Flag::value("--trace-out <path>", "trace path", "re-run the busiest point with event recording\n\
        and write a Perfetto-loadable Chrome trace"),
    CHECKPOINT_EVERY,
];

/// Every `rr` subcommand, in `rr help` order.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "asm",
        about: "rr asm — assemble a source file to hex words\n\n  rr asm <file.s>\n",
        flags: &[GLOBAL],
        operands: 1,
    },
    Command {
        name: "dis",
        about: "rr dis — disassemble hex words, one per line\n\n  rr dis <file.hex>\n",
        flags: &[GLOBAL],
        operands: 1,
    },
    Command {
        name: "demand",
        about: "rr demand — register demand and context size\n\n  rr demand <file.s>\n",
        flags: &[GLOBAL],
        operands: 1,
    },
    Command {
        name: "check",
        about: "rr check — static context-bounds check (section 2.4)\n\n  \
            rr check <file.s> --size <n>\n\n\
            Exits nonzero, naming each violation, when an instruction reaches a\n\
            register outside the declared context.\n",
        flags: &[&[Flag::value("--size <n>", "context size", "declared context size (required)")], GLOBAL],
        operands: 1,
    },
    Command {
        name: "run",
        about: "rr run — execute a program on the cycle-level machine\n\n  rr run <file.s>\n",
        flags: &[
            &[
                Flag::value("--cycles <n>", "cycle budget", "cycle budget (default 100000)"),
                Flag::value("--regs <n>", "register count", "register file size (default 128)"),
                Flag::value("--rrm <mask>", "rrm", "relocation mask of context 0"),
                Flag::switch("--trace", "print the last instructions executed"),
            ],
            GLOBAL,
        ],
        operands: 1,
    },
    Command {
        name: "fig5",
        about: "rr fig5 — regenerate Figure 5 (cache faults), one table per panel\n\n  \
            rr fig5 [flags]\n",
        flags: &[GRID, SWEEP, STORE, GLOBAL],
        operands: 0,
    },
    Command {
        name: "fig6",
        about: "rr fig6 — regenerate Figure 6 (synchronization faults), one table per\n\
            panel\n\n  rr fig6 [flags]\n",
        flags: &[GRID, SWEEP, STORE, GLOBAL],
        operands: 0,
    },
    Command {
        name: "homogeneous",
        about: "rr homogeneous — the Figure 5 grid with every context one size (section\n\
            3.4)\n\n  rr homogeneous [flags]\n",
        flags: &[GRID, CONTEXT, SWEEP, STORE, GLOBAL],
        operands: 0,
    },
    Command {
        name: "trace",
        about: "\
rr trace — deep-dive one sweep point with cycle-stamped event tracing

  rr trace <fig5|fig6|homogeneous> --point <F,R,L> [flags]

Runs both architectures with full event recording, verifies every stream
against the replay accountant, and prints a side-by-side summary. With a
store, the point's metric summary is stored next to the sweep results.

Coordinates must lie on the figure's grid (fig5: F in {64,128,256},
R in {8,32,128}, L in {20,50,100,200,400,800}; fig6: R in {32,128,512},
L in {25,50,100,200,350,500}).

Examples

  # The Figure 5 efficiency-cliff point, traced into Perfetto
  rr trace fig5 --point 64,8,400 --trace-out cliff.json

  # Quick look with a smaller workload, metrics to stdout
  rr trace fig5 --point 64,8,100 --threads 8 --work 2000 --metrics -

  # A synchronization point, persisting the metric summary in the store
  rr trace fig6 --point 128,128,500 --store
",
        flags: &[
            &[
                POINT,
                Flag::value("--trace-out <path>", "trace path", "Chrome trace of both runs (fixed is pid\n\
                    1, flexible pid 2; 1 us = 1 cycle) for ui.perfetto.dev"),
                Flag::value("--metrics <path>", "metrics path",
                    "windowed metrics and histograms as JSON (- for stdout)"),
            ],
            GRID,
            CONTEXT,
            STORE,
            GLOBAL,
        ],
        operands: 1,
    },
    Command {
        name: "diverge",
        about: "\
rr diverge — cycle-accurate divergence explorer for policy comparisons

  rr diverge <fig5|fig6|homogeneous> --point <F,R,L> [flags]
  rr diverge <fig5|fig6|homogeneous> --heatmap [flags]

Runs two architectures on the *same seeded workload* in lockstep and
bisects to the exact first divergent event, reporting it with context from
both legs, the per-bucket cost split and an engine state diff. A
self-compare always reports `no divergence`; the output is byte-identical
across reruns and worker counts. With a store, each point's divergence
record is cached, so a warm heatmap replays without simulating.

Examples

  # Where does fixed partitioning first part ways with relocation on the
  # Figure 5 efficiency-cliff point?
  rr diverge fig5 --point 64,8,400

  # Prove determinism to yourself: a self-compare never diverges
  rr diverge fig5 --point 64,8,400 --arch-a flexible --arch-b flexible

  # Allocator-cost comparison, full grid, cached
  rr diverge fig5 --heatmap --arch-a flexible --arch-b flexible-ff1 --store
",
        flags: &[
            &[
                POINT,
                Flag::switch("--heatmap", "sweep the whole grid instead: per-panel tables of\n\
                    first-divergence cycles and efficiency deltas"),
                Flag::value("--arch-a <label>", "architecture", "leg A, the baseline (default fixed)"),
                Flag::value("--arch-b <label>", "architecture", "leg B (default flexible); labels: fixed,\n\
                    flexible, flexible-ff1, flexible-lookup, flexible-add"),
                Flag::value("--window <cycles>", "lockstep window", "lockstep stride (default 8192)"),
                Flag::value("--context-events <k>", "context event count",
                    "events shown around the divergence (default 8)"),
                Flag::value("--json <path>", "JSON path", "the report as JSON (- for stdout)"),
                Flag::value("--trace-out <path>", "trace path", "point mode: Chrome trace of both legs (leg\n\
                    A is pid 1, leg B pid 2)"),
                JOBS,
            ],
            GRID,
            CONTEXT,
            STORE,
            GLOBAL,
        ],
        operands: 1,
    },
    Command {
        name: "cache",
        about: "\
rr cache — inspect or maintain the result store

  rr cache <stats|verify|gc> [flags]

stats prints record counts, bytes and the store's salt; verify checks
every record, moves corrupt ones to quarantine and exits nonzero if there
were any; gc removes stale (other code versions) and quarantined records.
",
        flags: &[
            &[
                Flag::optional_value("--store [dir]", "store directory",
                    "the store (default .rr-store, or $RR_STORE)"),
                Flag::switch("--no-store", "ignore $RR_STORE and use .rr-store"),
                Flag::switch("--json", "stats as the JSON /health embeds"),
            ],
            GLOBAL,
        ],
        operands: 1,
    },
    Command {
        name: "bench",
        about: "\
rr bench — the pinned perf-regression suite

  rr bench [flags]            run the suite, write BENCH_<seq>.json
  rr bench --check [flags]    run the suite, compare against a baseline,
                              exit nonzero on regression (writes nothing)

Times cold and warm figure sweeps, a store integrity pass and a traced
point. A check compares the cycle-exact invariants exactly and wall clock
in the regression direction only.
",
        flags: &[
            &[
                Flag::switch("--quick", "panel-sized suite with shrunk workloads (the default\n\
                    is the full paper-scale grids)"),
                Flag::switch("--check", "compare instead of record"),
                Flag::value("--baseline <path>", "baseline path", "report to check against (default: the\n\
                    highest BENCH_<seq>.json in the current directory)"),
                Flag::value("--tolerance <f>", "tolerance",
                    "allowed fractional wall regression (default 0.25)"),
                Flag::value("--iterations <n>", "iteration count",
                    "repeats per case (default: 3 quick, 5 full)"),
                Flag::value("--seed <s>", "seed", "workload seed (default 1993; must match)"),
                Flag::value("--jobs <n>", "job count", "sweep workers (default 1; must match)"),
            ],
            GLOBAL,
        ],
        operands: 0,
    },
    Command {
        name: "serve",
        about: "\
rr serve — the sweep-job HTTP daemon

  rr serve [flags]

Accepts figure sweeps as jobs over HTTP, runs them through the same runner
and result store as the sweep subcommands (stored by default), and serves
results byte-identical to the JSON report `rr fig5` writes; a resubmitted
spec returns its existing job.

API: POST /jobs {\"kind\": \"fig5\"|\"fig6\"|\"homogeneous\", \"file\"?, \"seed\"?,
\"threads\"?, \"work\"?, \"context\"?} (any other field is a 400); GET /jobs;
GET|DELETE /jobs/<id>; GET /jobs/<id>/result|timeline; GET /health;
GET /metrics[?format=prometheus]; PUT /shutdown (drains, then exits).

Example

  rr serve --addr 127.0.0.1:8553 --workers 2 --store &
  curl -s -X POST localhost:8553/jobs -d '{\"kind\": \"fig5\", \"file\": 64}'
  curl -s localhost:8553/jobs/1/result
",
        flags: &[
            &[
                Flag::value("--addr <a>", "address", "bind address (default 127.0.0.1:8553; :0\n\
                    picks a port and prints it)"),
                Flag::value("--workers <n>", "worker count", "concurrent sweep jobs (default 1)"),
                Flag::value("--queue-cap <n>", "queue capacity", "queued jobs before 503 (default 64)"),
                Flag::value("--sim-jobs <n>", "sim job count", "threads per sweep (default 0 = all)"),
                Flag::value("--rate-budget <n>", "rate budget", "per-client burst (default 20 requests)"),
                Flag::value("--rate-refill <n>", "rate refill", "per-client rate (default 10 requests/s)"),
                Flag::switch("--no-rate", "disable rate limiting"),
                Flag::value("--journal <path>", "journal path", "crash-safe job journal (default\n\
                    <store>/serve-journal.jsonl); a restart re-adopts jobs"),
                Flag::switch("--no-journal", "keep the job table in memory only"),
                Flag::value("--job-ttl-secs <n>", "job TTL",
                    "drop settled tickets after n seconds (default: keep)"),
                CHECKPOINT_EVERY,
            ],
            STORE,
            GLOBAL,
        ],
        operands: 0,
    },
    Command {
        name: "top",
        about: "\
rr top — live latency view of a running daemon

  rr top [flags]

Polls a daemon's Prometheus metrics and renders the queue depth and, per
span kind, the count and p50/p95/p99 latency (bucket upper bounds).
",
        flags: &[
            &[
                Flag::value("--addr <a>", "address", "daemon address (default 127.0.0.1:8553)"),
                Flag::value("--interval-secs <n>", "interval", "seconds between refreshes (default 2)"),
                Flag::value("--count <n>", "refresh count", "refreshes before exiting (default 0 = no end)"),
            ],
            GLOBAL,
        ],
        operands: 0,
    },
    Command {
        name: "help",
        about: "\
rr — register-relocation toolchain

  rr asm    <file.s>                   assemble to hex words
  rr dis    <file.hex>                 disassemble hex words
  rr demand <file.s>                   register demand and context size
  rr check  <file.s> --size <n>        static context-bounds check
  rr run    <file.s> [flags]           execute on the cycle-level machine
  rr fig5        [flags]               regenerate Figure 5 (cache faults)
  rr fig6        [flags]               regenerate Figure 6 (sync faults)
  rr homogeneous [flags]               section 3.4's homogeneous contexts
  rr trace   <fig5|fig6|homogeneous> --point <F,R,L> [flags]
                                       deep-dive one point with event tracing
  rr diverge <fig5|fig6|homogeneous> (--point <F,R,L> | --heatmap) [flags]
                                       bisect two configurations to their
                                       first divergent event
  rr cache   <stats|verify|gc> [flags] inspect or maintain the result store
  rr bench   [flags]                   run or check the pinned perf suite
  rr serve   [flags]                   run the sweep-job HTTP daemon
  rr top     [flags]                   live latency view of a daemon
  rr help    [--list]                  this text

`rr <subcommand> --help` lists its flags; a flag it does not take is an
error. Sweeps cache every point with --store [dir] and resume an
interrupted run with --checkpoint-every.
",
        flags: &[&[Flag::switch("--list", "print bare subcommand names, one per line")], GLOBAL],
        operands: 0,
    },
];

/// The subcommand called `name`.
pub fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}
