//! `rr` — the register-relocation toolchain driver: the assembler and
//! machine tools, the figure sweeps, tracing and divergence analysis, the
//! result store, the perf suite, and the job daemon. `rr help` lists the
//! subcommands and `rr <subcommand> --help` their flags.
//!
//! Each subcommand's flags are a table in [`register_relocation::commands`]
//! read by the one parser in [`register_relocation::cli`]; the sweep, trace
//! and diverge subcommands read their grid flags into a [`RunSpec`], the
//! type `POST /jobs` takes too.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use register_relocation::bench::{self, BenchConfig, BenchReport, Suite};
use register_relocation::cache;
use register_relocation::cli::{self, Args};
use register_relocation::commands::{self, COMMANDS};
use register_relocation::diverge::{
    diverge_grid, diverge_point, DivergeGridReport, DivergePair, DivergenceRecord,
};
use register_relocation::experiments::Arch;
use register_relocation::isa::{analysis, assemble, disassemble, Rrm};
use register_relocation::machine::{Machine, MachineConfig};
use register_relocation::report::{format_panel, format_sweep_summary, format_trace_point};
use register_relocation::runtime::{event_diff, CostBucket, Event};
use register_relocation::sim::{write_chrome_trace, DivergeConfig, DivergeOutcome};
use register_relocation::spec::{self, RunSpec};
use register_relocation::store::Store;
use register_relocation::sweep::{SweepGrid, SweepPoint, SweepRunner};
use register_relocation::trace::{persist_trace_metrics, TracedPoint};
use rr_telemetry::log::{self, Level};
use rr_telemetry::{error, info, warn, METRICS};

fn main() -> ExitCode {
    let argv = cli::words();
    let (name, words) = match argv.split_first() {
        Some((name, words)) if name != "--help" => (name.as_str(), words),
        _ => ("help", &[][..]),
    };
    let Some(command) = commands::command(name) else {
        eprintln!("rr: unknown subcommand `{name}`; try `rr help`");
        return ExitCode::FAILURE;
    };
    let args = match cli::parse(command, words) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", command.usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("rr: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The CLI talks at `info` by default (sweep summaries, files written);
    // `RUST_LOG` overrides that, and an explicit `--log-level` overrides
    // both.
    log::set_level(Level::Info);
    log::init_from_env();
    if let Some(raw) = args.raw("--log-level") {
        match Level::parse(raw) {
            Some(level) => log::set_level(level),
            None => {
                eprintln!("rr: bad --log-level `{raw}`; expected error, warn, info, debug, or off");
                return ExitCode::FAILURE;
            }
        }
    }
    // dispatch: begin (the sync test scans this block against COMMANDS)
    let result = match command.name {
        "asm" => cmd_asm(&args),
        "dis" => cmd_dis(&args),
        "demand" => cmd_demand(&args),
        "check" => cmd_check(&args),
        "run" => cmd_run(&args),
        "fig5" => cmd_sweep("fig5", &args),
        "fig6" => cmd_sweep("fig6", &args),
        "homogeneous" => cmd_sweep("homogeneous", &args),
        "trace" => cmd_trace(&args),
        "diverge" => cmd_diverge(&args),
        "cache" => cmd_cache(&args),
        "bench" => cmd_bench(&args),
        "serve" => cmd_serve(&args),
        "top" => cmd_top(&args),
        "help" => {
            if args.has("--list") {
                // Bare subcommand names, one per line, for shell completion.
                for command in COMMANDS {
                    println!("{}", command.name);
                }
            } else {
                print!("{}", command.usage());
            }
            Ok(())
        }
        other => Err(format!("subcommand `{other}` has no handler (bug)")),
    };
    // dispatch: end
    if let Some(path) = args.raw("--metrics-out") {
        let json = METRICS.snapshot().to_json_pretty();
        if let Err(e) = std::fs::write(path, json) {
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

fn read_source(args: &Args) -> Result<(String, String), String> {
    let path = args.operand(0).ok_or("missing input file")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Ok((path.to_string(), text))
}

/// Writes a JSON document to `path`, or to stdout when `path` is `-`.
fn write_json(target: &str, path: &str, json: &str, what: &str) -> Result<(), String> {
    if path == "-" {
        println!("{json}");
    } else {
        std::fs::write(path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        info!(target, "wrote {what} to {path}");
    }
    Ok(())
}

fn cmd_asm(args: &Args) -> Result<(), String> {
    let (_path, text) = read_source(args)?;
    let p = assemble(&text).map_err(|e| e.to_string())?;
    for w in p.words() {
        println!("{w:08x}");
    }
    Ok(())
}

fn cmd_dis(args: &Args) -> Result<(), String> {
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

fn cmd_demand(args: &Args) -> Result<(), String> {
    let (path, text) = read_source(args)?;
    let p = assemble(&text).map_err(|e| e.to_string())?;
    let usage = analysis::register_usage(p.words());
    let size = analysis::context_size_needed(usage.demand, 4);
    println!("{path}: demand {} registers ({} distinct)", usage.demand, usage.distinct);
    println!("context size needed: {size} (waste {})", size - usage.demand);
    Ok(())
}

fn cmd_check(args: &Args) -> Result<(), String> {
    let (path, text) = read_source(args)?;
    let size: u32 = args.get("--size")?.ok_or("check needs --size <registers>")?;
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

fn cmd_run(args: &Args) -> Result<(), String> {
    let (_path, text) = read_source(args)?;
    let p = assemble(&text).map_err(|e| e.to_string())?;
    let cycles = args.get("--cycles")?.unwrap_or(100_000);
    let mut cfg = MachineConfig::default_128();
    if let Some(regs) = args.get("--regs")? {
        cfg.num_registers = regs;
        cfg.operand_width = 6;
    }
    let mut m = Machine::new(cfg).map_err(|e| e.to_string())?;
    if args.has("--trace") {
        m.enable_trace(32);
    }
    if let Some(rrm) = args.get("--rrm")? {
        m.set_rrm(0, Rrm::from_raw(rrm));
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
    if args.has("--trace") {
        println!("-- last instructions --\n{}", m.trace().render());
    }
    Ok(())
}

/// The grid and title a sweep, trace or diverge subcommand addresses: its
/// grid flags as a [`RunSpec`], with `RR_SEED` as the default seed.
fn spec_grid(kind: &str, args: &Args) -> Result<(SweepGrid, &'static str), String> {
    let mut spec = RunSpec::from_args(kind, args)?;
    spec.seed = spec.seed.or_else(spec::env_seed);
    Ok((spec.to_grid()?, spec.title()?))
}

/// The figure a trace or diverge subcommand targets, or `None` after
/// printing the usage for a bare invocation.
fn target(args: &Args) -> Result<Option<&str>, String> {
    let name = args.command().name;
    match args.operand(0) {
        Some(kind) => Ok(Some(kind)),
        None if args.is_empty() => {
            print!("{}", args.command().usage());
            Ok(None)
        }
        None => Err(format!(
            "{name} needs a figure: fig5, fig6, or homogeneous (see `rr {name} --help`)"
        )),
    }
}

fn cmd_sweep(kind: &str, args: &Args) -> Result<(), String> {
    let (grid, title) = spec_grid(kind, args)?;
    let checkpoint_every: Option<u64> = args.get("--checkpoint-every")?;
    let jobs = args.get("--jobs")?.unwrap_or(0);
    let mut runner = SweepRunner::new(jobs).with_store(open_store(args));
    if args.has("--progress") {
        runner = runner.with_progress(true);
    }
    if checkpoint_every.is_some() {
        if runner.store().is_none() {
            return Err(
                "--checkpoint-every needs a result store (add --store [dir])".to_string()
            );
        }
        runner = runner.with_checkpoint_every(checkpoint_every);
    }
    let run = runner.run(&grid)?;
    for &f in &grid.file_sizes {
        println!("{}", format_panel(&format!("{title}: F = {f} registers"), &run.report.panel(f)));
    }
    info!("sweep", "{}", format_sweep_summary(&run));
    if let Some(path) = args.raw("--json") {
        write_json("sweep", path, &run.report.to_json_pretty()?, "sweep report")?;
    }
    if let Some(path) = args.raw("--trace-out") {
        let busiest = run
            .report
            .busiest_point()
            .ok_or("cannot trace the busiest point of an empty sweep")?;
        let point = grid
            .point_at(busiest.file_size, busiest.run_length, busiest.latency)
            .ok_or("busiest point fell off its own grid (bug)")?;
        let (f, r, l) = (busiest.file_size, busiest.run_length, busiest.latency);
        info!("sweep", "tracing busiest point F={f} R={r} L={l} ...");
        let traced = TracedPoint::run(&point.spec)?;
        write_trace_file(path, |out| traced.write_chrome_trace(out))?;
        info!("sweep", "wrote Chrome trace to {path} (load in https://ui.perfetto.dev)");
        if let Some(store) = runner.store() {
            if let Err(e) = persist_trace_metrics(store, &traced) {
                warn!("sweep", "could not store trace metrics: {e}");
            }
        }
    }
    Ok(())
}

/// Finds `--point F,R,L` trace coordinates on the grid.
fn grid_point(raw: &str, grid: &SweepGrid, title: &str) -> Result<SweepPoint, String> {
    let parts: Vec<&str> = raw.split(',').map(str::trim).collect();
    let [f, r, l] = parts[..] else {
        return Err(format!("bad --point `{raw}`; expected F,R,L (e.g. 64,8,400)"));
    };
    let file_size: u32 = f.parse().map_err(|_| format!("bad point file size `{f}`"))?;
    let run_length: f64 = r.parse().map_err(|_| format!("bad point run length `{r}`"))?;
    let latency: u64 = l.parse().map_err(|_| format!("bad point latency `{l}`"))?;
    grid.point_at(file_size, run_length, latency).ok_or_else(|| {
        format!(
            "point F={file_size} R={run_length} L={latency} is not on the {title} grid \
             (F in {:?}, R in {:?}, L in {:?})",
            grid.file_sizes, grid.run_lengths, grid.latencies
        )
    })
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

fn cmd_trace(args: &Args) -> Result<(), String> {
    let Some(kind) = target(args)? else { return Ok(()) };
    let (grid, title) = spec_grid(kind, args)?;
    let raw_point =
        args.raw("--point").ok_or("trace needs --point F,R,L (see `rr trace --help`)")?;
    let point = grid_point(raw_point, &grid, title)?;
    let traced = TracedPoint::run(&point.spec)?;
    println!("{}", format_trace_point(&traced));
    if let Some(path) = args.raw("--trace-out") {
        write_trace_file(path, |out| traced.write_chrome_trace(out))?;
        info!("trace", "wrote Chrome trace to {path} (load in https://ui.perfetto.dev)");
    }
    if let Some(path) = args.raw("--metrics") {
        write_json("trace", path, &traced.metrics_record().to_json()?, "trace metrics")?;
    }
    if let Some(store) = open_store(args) {
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

fn print_diverge_point(title: &str, point: &SweepPoint, pair: &DivergePair, out: &DivergeOutcome) {
    let (f, r, l) = (point.file_size, point.run_length, point.latency);
    let (a, b) = (pair.arch_a.label(), pair.arch_b.label());
    println!("rr diverge — {title} point F={f} R={r} L={l} — {a} vs {b}");
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
                let (a, b, deltas) = (&out.a.label, &out.b.label, deltas.join(", "));
                println!("  cumulative cost delta at divergence ({b} - {a}): {deltas}");
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
        let (label, stats) = (&leg.label, &leg.stats);
        let (efficiency, cycles) = (stats.efficiency(), stats.total_cycles);
        println!("  {label:<16} efficiency {efficiency:.4}, {cycles} total cycles");
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
    let (n_r, n_l) = (grid.run_lengths.len(), grid.latencies.len());
    let header: String = grid.latencies.iter().map(|l| format!("{l:>10}")).collect();
    for (fi, &f) in grid.file_sizes.iter().enumerate() {
        // One row per run length, one cell per latency.
        let table = |cell: &dyn Fn(&DivergenceRecord) -> String| {
            for (ri, &r) in grid.run_lengths.iter().enumerate() {
                let records = &report.records[(fi * n_r + ri) * n_l..][..n_l];
                let row: String = records.iter().map(|rec| format!("{:>10}", cell(rec))).collect();
                println!("  {r:>6}{row}");
            }
        };
        println!();
        println!("F = {f} registers — first divergence cycle ('-' = no divergence)");
        println!("  {:>6}{header}", "R \\ L");
        table(&|rec| rec.divergence_cycle.map_or("-".to_string(), |c| c.to_string()));
        println!("  efficiency delta ({} - {})", arch_b.label(), arch_a.label());
        table(&|rec| format!("{:+.3}", rec.efficiency_delta()));
    }
    let diverged = report.records.iter().filter(|r| r.divergence_cycle.is_some()).count();
    println!();
    println!("{diverged}/{} point(s) diverged", report.records.len());
}

fn cmd_diverge(args: &Args) -> Result<(), String> {
    let Some(kind) = target(args)? else { return Ok(()) };
    let (grid, title) = spec_grid(kind, args)?;
    let arch = |flag: &str, default: Arch| match args.raw(flag) {
        Some(label) => Arch::from_label(label),
        None => Ok(default),
    };
    let (arch_a, arch_b) = (arch("--arch-a", Arch::Fixed)?, arch("--arch-b", Arch::Flexible)?);
    let window = args.get("--window")?.unwrap_or(8192);
    let context = args.get("--context-events")?.unwrap_or(8);
    let trace_out = args.raw("--trace-out");
    let cfg = DivergeConfig { window, context, keep_events: trace_out.is_some() };

    if args.has("--heatmap") {
        if trace_out.is_some() {
            return Err("--trace-out needs point mode (--point F,R,L), not --heatmap".to_string());
        }
        let jobs = args.get("--jobs")?.unwrap_or(0);
        let store = open_store(args);
        let report = diverge_grid(&grid, arch_a, arch_b, &cfg, store.as_ref(), jobs)?;
        print_diverge_heatmap(&grid, title, arch_a, arch_b, &report);
        if store.is_some() {
            let (hits, misses, stored) = (report.hits, report.misses, report.stored);
            info!("diverge", "store: {hits} hit(s), {misses} miss(es), {stored} newly stored");
        }
        if let Some(path) = args.raw("--json") {
            let json = serde_json::to_string_pretty(&report.records)
                .map_err(|e| format!("cannot serialize divergence records: {e}"))?;
            let what = format!("{} divergence record(s)", report.records.len());
            write_json("diverge", path, &json, &what)?;
        }
        return Ok(());
    }

    let raw_point = args
        .raw("--point")
        .ok_or("diverge needs --point F,R,L or --heatmap (see `rr diverge --help`)")?;
    let point = grid_point(raw_point, &grid, title)?;
    let pair = DivergePair { spec: point.spec, arch_a, arch_b };
    let outcome = diverge_point(&pair, &cfg)?;
    print_diverge_point(title, &point, &pair, &outcome);
    if let Some(path) = trace_out {
        let ea = outcome.a.events.as_ref().ok_or("leg A events missing under --trace-out (bug)")?;
        let eb = outcome.b.events.as_ref().ok_or("leg B events missing under --trace-out (bug)")?;
        let legs = [(1, pair.arch_a.label(), ea), (2, pair.arch_b.label(), eb)];
        write_trace_file(path, |out| write_chrome_trace(out, &legs))?;
        info!("diverge", "wrote dual-leg Chrome trace to {path} (load in https://ui.perfetto.dev)");
    }
    if let Some(path) = args.raw("--json") {
        // The raw event streams can run to hundreds of thousands of
        // entries; the JSON report carries everything but them.
        let mut slim = outcome.clone();
        slim.a.events = None;
        slim.b.events = None;
        let json = serde_json::to_string_pretty(&slim)
            .map_err(|e| format!("cannot serialize divergence report: {e}"))?;
        write_json("diverge", path, &json, "divergence report")?;
    }
    if let Some(store) = open_store(args) {
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

fn cmd_bench(args: &Args) -> Result<(), String> {
    let suite = if args.has("--quick") { Suite::Quick } else { Suite::Full };
    let mut config = BenchConfig::new(suite);
    config.iterations = args.get("--iterations")?.unwrap_or(config.iterations);
    config.seed = args.get("--seed")?.unwrap_or(config.seed);
    config.jobs = args.get("--jobs")?.unwrap_or(config.jobs);
    let tolerance = args.get::<f64>("--tolerance")?.unwrap_or(0.25);
    if tolerance.is_nan() || tolerance < 0.0 {
        return Err(format!("tolerance must be >= 0, got `{tolerance}`"));
    }
    let dir = std::env::current_dir().map_err(|e| format!("cannot resolve cwd: {e}"))?;
    // Resolve and parse the baseline *before* the (possibly minutes-long)
    // suite, so a missing or malformed baseline fails in milliseconds.
    let baseline = if args.has("--check") {
        let path = match args.raw("--baseline") {
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
    let (name, iterations) = (suite.name(), config.iterations);
    let (seed, jobs) = (config.seed, config.jobs);
    let what = format!("{iterations} iteration(s), seed {seed}, {jobs} worker(s)");
    info!("bench", "running the {name} suite: {what}");
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
            let (path, percent) = (baseline_path.display(), tolerance * 100.0);
            println!("bench check ok vs {path} (tolerance {percent:.0}%)");
        }
    }
    Ok(())
}

/// Opens the result store a command asked for, degrading to uncached (with
/// a warning) if the store cannot be opened — figure regeneration must
/// never die over its cache.
fn open_store(args: &Args) -> Option<Store> {
    let dir = args.store_dir()?;
    let shown = dir.display();
    let warn = |e| warn!("rr", "cannot open result store at `{shown}`: {e}; running uncached");
    cache::open_store(&dir).map_err(warn).ok()
}

/// A flag value that must be at least 1, or `None` when the flag is absent.
fn positive<T: std::str::FromStr + Default + PartialEq>(
    args: &Args,
    flag: &str,
    zero: &str,
) -> Result<Option<T>, String> {
    match args.get(flag)? {
        Some(v) if v == T::default() => Err(zero.to_string()),
        v => Ok(v),
    }
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    // The global --metrics-out flag is write-on-exit for one-shot
    // subcommands; a daemon also flushes it periodically so scrapers see
    // live counters without waiting for shutdown.
    let defaults = register_relocation::serve::ServeOptions::default();
    let mut opts = register_relocation::serve::ServeOptions {
        addr: args.raw("--addr").map_or(defaults.addr, str::to_string),
        workers: positive(args, "--workers", "serve needs at least one worker")?
            .unwrap_or(defaults.workers),
        queue_capacity: positive(args, "--queue-cap", "queue capacity must be >= 1")?
            .unwrap_or(defaults.queue_capacity),
        sim_jobs: args.get("--sim-jobs")?.unwrap_or(defaults.sim_jobs),
        metrics_out: args.raw("--metrics-out").map(PathBuf::from),
        ..defaults
    };
    if args.has("--no-rate") {
        opts.rate = None;
    } else if let Some(rate) = opts.rate.as_mut() {
        let budget = "rate budget must be >= 1 (or use --no-rate)";
        rate.budget = positive(args, "--rate-budget", budget)?.unwrap_or(rate.budget);
        rate.refill_per_sec = args.get("--rate-refill")?.unwrap_or(rate.refill_per_sec);
    }
    // Unlike one-shot sweeps, the daemon caches by default: cross-restart
    // job reuse is half the point of running it. `--no-store` opts out.
    let store_dir = || args.store_dir().unwrap_or_else(|| PathBuf::from(cache::DEFAULT_STORE_DIR));
    opts.store_dir = (!args.has("--no-store")).then(store_dir);
    // The journal defaults on whenever a store exists: a daemon that caches
    // should also survive kill -9 without losing accepted jobs.
    opts.journal = match args.raw("--journal") {
        _ if args.has("--no-journal") => None,
        Some(path) => Some(PathBuf::from(path)),
        None => opts.store_dir.as_ref().map(|dir| dir.join("serve-journal.jsonl")),
    };
    let ttl = "job TTL must be >= 1 second (omit the flag to keep tickets)";
    opts.job_ttl = positive(args, "--job-ttl-secs", ttl)?.map(std::time::Duration::from_secs);
    let every = positive(args, "--checkpoint-every", "--checkpoint-every must be >= 1 cycle")?;
    if every.is_some() && opts.store_dir.is_none() {
        return Err(
            "--checkpoint-every needs a store to keep snapshots in (drop --no-store)".to_string()
        );
    }
    opts.checkpoint_every = every;
    register_relocation::serve::run_serve(&opts, None)
}

fn cmd_top(args: &Args) -> Result<(), String> {
    let addr = args.raw("--addr").unwrap_or("127.0.0.1:8553");
    let interval: u64 = args.get("--interval-secs")?.unwrap_or(2);
    let count: u64 = args.get("--count")?.unwrap_or(0);
    let period = std::time::Duration::from_secs(interval.max(1));
    let mut refreshes = 0u64;
    let mut last: Option<TopView> = None;
    // Ticks are scheduled against deadlines, not `sleep(period)` after
    // rendering, so slow scrapes don't accumulate drift.
    let mut next = std::time::Instant::now();
    loop {
        let stale = match http_get_text(addr, "/metrics?format=prometheus") {
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
            print!("{}", view.render(addr, stale));
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

fn cmd_cache(args: &Args) -> Result<(), String> {
    let action = args.operand(0).ok_or("cache needs an action: stats, verify, or gc")?;
    let dir = args.store_dir().unwrap_or_else(|| PathBuf::from(cache::DEFAULT_STORE_DIR));
    let store = cache::open_store(&dir)?;
    match action {
        "stats" => {
            if args.has("--json") {
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
    use super::{commands, fmt_nanos, TopView, COMMANDS};

    /// Extracts the `"name" =>` subcommand arms between the dispatch
    /// markers of this very source file.
    fn dispatched_subcommands() -> Vec<String> {
        let source = include_str!("rr.rs");
        let begin = source.find("// dispatch: begin").expect("begin marker present");
        let end = source[begin..].find("// dispatch: end").expect("end marker present") + begin;
        let mut names: Vec<String> = source[begin..end]
            .lines()
            .filter_map(|line| line.trim().strip_prefix('"'))
            .filter_map(|rest| rest.split_once("\" =>"))
            .map(|(name, _)| name.to_string())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    #[test]
    fn subcommand_list_matches_the_dispatch_match() {
        let dispatched = dispatched_subcommands();
        let mut listed: Vec<String> = COMMANDS.iter().map(|c| c.name.to_string()).collect();
        listed.sort();
        assert_eq!(
            dispatched, listed,
            "COMMANDS and the dispatch match in main() have drifted apart; \
             update both when adding or removing a subcommand"
        );
    }

    #[test]
    fn every_subcommand_is_documented_in_usage() {
        let overview = commands::command("help").expect("help exists").usage();
        for command in COMMANDS {
            assert!(
                overview.contains(&format!("rr {}", command.name)),
                "subcommand `{}` is missing from the usage text",
                command.name
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
