//! Host-side telemetry: a lock-free metrics registry and a leveled
//! structured logger for the *tool*, not the simulated machine.
//!
//! The simulator has its own cycle-stamped observability (`rr_runtime`
//! events, `rr_sim` windowed metrics); this crate watches the host process
//! that runs it — how many sweep points were computed vs served from the
//! result store, where the wall-clock went (simulation vs serialization vs
//! store I/O), how busy the worker pool was, how often the store fsynced.
//! The design reproduces the Firecracker logger crate's production pattern:
//!
//! * **Metrics** ([`metrics`]) — a process-wide [`METRICS`] registry of
//!   named counter groups. Every counter is a [`SharedIncMetric`]: one
//!   `AtomicU64` bumped with `Ordering::Relaxed`, so instrumentation on the
//!   sweep hot path costs a single uncontended atomic add and never takes a
//!   lock (each counter has a single logical writer per event source — the
//!   wait-free (1,N) register discipline). Reading is a *snapshot*:
//!   [`Metrics::snapshot`] flushes every counter into an immutable
//!   [`MetricsSnapshot`] that serializes to deterministic JSON — same
//!   counters, same bytes.
//! * **Logging** ([`log`]) — `error!`/`warn!`/`info!`/`debug!` macros in
//!   front of a global leveled logger with a `target` and monotonic-nanos
//!   prefix, configured from `RUST_LOG=<level>` or an explicit
//!   [`log::set_level`] (the `rr` CLI's `--log-level`). Disabled levels
//!   cost one relaxed atomic load.
//! * **Trace documents** ([`trace`]) — the one Chrome `trace_event` JSON
//!   writer, [`trace::TraceWriter`], streaming into any `io::Write` with a single
//!   escaper and a per-track begin/end balance check. The simulator's
//!   Perfetto export and [`span`]'s per-job timelines both write through
//!   it.
//!
//! Zero dependencies; nothing here touches the replayable experiment
//! reports. Telemetry observes the host, it never perturbs the science.
//!
//! # Example
//!
//! ```
//! use rr_telemetry::{info, IncMetric, METRICS};
//!
//! METRICS.sweep.points_computed.inc();
//! METRICS.sweep.sim_nanos.add(1_234);
//! let snap = METRICS.snapshot();
//! assert!(snap.get("sweep", "points_computed").unwrap() >= 1);
//! info!("example", "computed {} point(s)", snap.get("sweep", "points_computed").unwrap());
//! ```

pub mod log;
pub mod metrics;
pub mod span;
pub mod trace;

pub use log::{Level, LOGGER};
pub use metrics::{
    IncMetric, Metrics, MetricsSnapshot, ServeMetrics, SharedIncMetric, SharedStoreMetric,
    StoreMetric, METRICS,
};
pub use span::{LatencyHistogram, SpanMetrics, SpanTimer, TimelineSpan, TraceId};
