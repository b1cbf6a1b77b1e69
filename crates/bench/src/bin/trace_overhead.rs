//! Measures the cost of event-stream observability: the same experiment
//! run under the monomorphized [`NullSink`] (the production default, which
//! must be free), a [`CountingSink`] (the cheapest possible live sink), and
//! an [`EventLog`] (full, compact capture — what `rr trace` uses).
//!
//! The simulated statistics must be bit-identical across all three: a sink
//! observes, it never perturbs.
//!
//! `cargo run --release --bin trace_overhead`

use std::time::Instant;

use register_relocation::experiments::Arch;
use rr_runtime::{CountingSink, EventLog, EventSink, NullSink, SchedCosts, UnloadPolicyKind};
use rr_sim::{Engine, SimOptions, SimStats};
use rr_workload::{ContextSizeDist, Dist, Workload, WorkloadBuilder};

const RUNS: usize = 9;

fn workload() -> Workload {
    WorkloadBuilder::new()
        .threads(32)
        .run_length(Dist::Geometric { mean: 16.0 })
        .latency(Dist::Constant(200))
        .context_size(ContextSizeDist::PAPER_UNIFORM)
        .work_per_thread(10_000)
        .seed(1993)
        .build()
        .expect("benchmark workload builds")
}

fn run_once<S: EventSink>(sink: S) -> (u64, SimStats, S) {
    let engine = Engine::with_sink(
        Arch::Flexible.make_allocator(128).expect("allocator builds"),
        SchedCosts::cache_experiments(),
        UnloadPolicyKind::Never,
        workload(),
        SimOptions::cache_experiments(),
        sink,
    )
    .expect("engine builds");
    let started = Instant::now();
    let (stats, sink) = engine.run_with_sink();
    (u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX), stats, sink)
}

fn median(mut nanos: Vec<u64>) -> u64 {
    nanos.sort_unstable();
    nanos[nanos.len() / 2]
}

fn main() {
    let mut null_times = Vec::new();
    let mut count_times = Vec::new();
    let mut record_times = Vec::new();
    let mut stats: Vec<SimStats> = Vec::new();
    let mut events_seen = 0u64;
    let mut log_bytes = 0;

    for _ in 0..RUNS {
        let (t, s, _) = run_once(NullSink);
        null_times.push(t);
        stats.push(s);
        let (t, s, sink) = run_once(CountingSink::default());
        count_times.push(t);
        events_seen = sink.count;
        stats.push(s);
        let (t, s, log) = run_once(EventLog::new());
        record_times.push(t);
        assert_eq!(log.len() as u64, events_seen, "both live sinks see every event");
        log_bytes = log.encoded_bytes();
        stats.push(s);
    }
    let first = &stats[0];
    assert!(stats.iter().all(|s| s == first), "sinks must not perturb the simulation");

    let null = median(null_times);
    let count = median(count_times);
    let record = median(record_times);
    let pct = |t: u64| (t as f64 / null as f64 - 1.0) * 100.0;

    println!("event-sink overhead ({} events/run, median of {RUNS} runs)\n", events_seen);
    println!("{:<16}{:>12}{:>14}", "sink", "median ms", "vs NullSink");
    println!("{:<16}{:>12.2}{:>14}", "NullSink", null as f64 / 1e6, "--");
    println!("{:<16}{:>12.2}{:>13.1}%", "CountingSink", count as f64 / 1e6, pct(count));
    println!("{:<16}{:>12.2}{:>13.1}%", "EventLog", record as f64 / 1e6, pct(record));
    println!(
        "\nEventLog holds {log_bytes} bytes ({:.2} B/event)",
        log_bytes as f64 / events_seen as f64
    );
    println!("\nsimulated stats identical across all sinks: efficiency {:.4}", first.efficiency());
}
