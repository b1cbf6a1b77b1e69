//! Request-scoped tracing: trace ids, timed spans, and lock-free latency
//! histograms.
//!
//! Three pieces, all as allocation-free as the metrics registry they extend:
//!
//! * **Trace ids** — a [`TraceId`] names one request (or one job) for its
//!   whole life. The id lives in a thread-local *trace context*
//!   ([`enter`]/[`current`]); while a context is entered, every log record
//!   the thread emits carries `trace=<id>` in its prefix, so a grep for the
//!   id reconstructs the request's story across subsystems. Contexts are
//!   explicitly re-entered on worker threads (the job queue and the sweep
//!   runner both do this), because a request's work rarely stays on the
//!   thread that accepted it.
//! * **Latency histograms** — a [`LatencyHistogram`] is a fixed array of
//!   power-of-two (log2) buckets plus an *exact* count and sum, all relaxed
//!   `AtomicU64`s: recording is three uncontended atomic adds, well inside
//!   the telemetry overhead budget. One histogram per span kind lives in
//!   the global registry ([`SpanMetrics`], the `spans` group of
//!   `METRICS.snapshot()`); the buckets feed the Prometheus exposition and
//!   `rr top`'s percentile display.
//! * **Timed spans** — [`LatencyHistogram::start`] returns a [`SpanTimer`]
//!   guard that records the elapsed nanoseconds into its histogram when
//!   dropped (or explicitly via [`SpanTimer::finish`], which also returns
//!   the duration for callers that feed per-job timelines).
//!
//! The per-job Perfetto view is rendered by [`chrome_timeline_json`]: a
//! flat list of [`TimelineSpan`]s (wall-clock microseconds relative to job
//! submission) becomes a Chrome `trace_event` document of balanced
//! `ph:"B"`/`"E"` pairs, with overlapping spans spread across lanes so
//! every lane nests trivially.

use std::cell::Cell;
use std::fmt;
use std::io;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::metrics::Metrics;
use crate::trace::{into_string, Escaped, TraceWriter};

// ---------------------------------------------------------------------------
// Trace ids and the thread-local trace context
// ---------------------------------------------------------------------------

/// Identifies one request (or one job) across threads, log lines, and
/// timeline documents. Renders as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// A fresh process-unique id. Ids from two daemons started close
    /// together still diverge: the sequence base mixes wall-clock and pid
    /// through a SplitMix64 finalizer.
    pub fn next() -> TraceId {
        static COUNTER: AtomicU64 = AtomicU64::new(1);
        TraceId(trace_base().wrapping_add(COUNTER.fetch_add(1, Ordering::Relaxed)))
    }

    /// The raw 64-bit value (for compact storage; `Display` for rendering).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from [`TraceId::as_u64`].
    pub fn from_u64(v: u64) -> TraceId {
        TraceId(v)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

fn trace_base() -> u64 {
    static BASE: OnceLock<u64> = OnceLock::new();
    *BASE.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let mut z = nanos ^ (u64::from(std::process::id()) << 32);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    })
}

thread_local! {
    static CURRENT_TRACE: Cell<Option<TraceId>> = const { Cell::new(None) };
}

/// The trace id of the context this thread is currently inside, if any.
/// The logger reads this to stamp `trace=<id>` onto every record.
pub fn current() -> Option<TraceId> {
    CURRENT_TRACE.with(Cell::get)
}

/// Enters a trace context on this thread; the returned guard restores the
/// previous context (contexts nest) when dropped.
pub fn enter(id: TraceId) -> TraceGuard {
    enter_opt(Some(id))
}

/// Sets this thread's trace context to exactly `id` — `None` clears it —
/// restoring the previous context on drop. The `Option` form is for
/// propagation: a worker re-enters whatever context the submitting thread
/// had, including "none".
pub fn enter_opt(id: Option<TraceId>) -> TraceGuard {
    let prev = CURRENT_TRACE.with(|c| c.replace(id));
    TraceGuard { prev, _not_send: PhantomData }
}

/// Restores the previous trace context when dropped. Not `Send`: a context
/// belongs to the thread that entered it.
#[must_use = "dropping the guard immediately exits the trace context"]
#[derive(Debug)]
pub struct TraceGuard {
    prev: Option<TraceId>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|c| c.set(self.prev));
    }
}

// ---------------------------------------------------------------------------
// Lock-free latency histograms
// ---------------------------------------------------------------------------

/// Buckets per histogram. Bucket `i < HISTOGRAM_BUCKETS - 1` counts samples
/// `v` with `v <= 2^(FIRST_BUCKET_SHIFT + i)` nanoseconds (and above the
/// previous bucket's bound); the last bucket is the `+Inf` overflow.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// The first bucket's upper bound is `2^FIRST_BUCKET_SHIFT` = 16 ns; the
/// last finite bound is `2^(FIRST_BUCKET_SHIFT + HISTOGRAM_BUCKETS - 2)`
/// ≈ 17.2 s. Everything slower lands in `+Inf`.
const FIRST_BUCKET_SHIFT: u32 = 4;

/// A latency histogram with power-of-two bucket bounds and an exact
/// count/sum, every cell a relaxed `AtomicU64`. `const`-constructible so a
/// registry of histograms can live in a static; recording is wait-free
/// (three uncontended atomic adds, no lock, no allocation).
///
/// Bucket bounds are *inclusive* and exact at powers of two: a sample of
/// exactly `2^k` ns lands in the bucket whose bound is `2^k`, and `2^k + 1`
/// in the next one — so cumulative bucket counts translate directly to
/// Prometheus `le` semantics.
#[derive(Debug)]
pub struct LatencyHistogram {
    count: AtomicU64,
    sum_nanos: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// A zeroed histogram (const, so span registries can live in statics).
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)] // template for array init
        const ZERO: AtomicU64 = AtomicU64::new(0);
        LatencyHistogram {
            count: ZERO,
            sum_nanos: ZERO,
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// The bucket a sample of `nanos` falls into.
    fn bucket_index(nanos: u64) -> usize {
        let v = nanos.max(1);
        // Smallest k with v <= 2^k.
        let k = 64 - (v - 1).leading_zeros();
        (k.saturating_sub(FIRST_BUCKET_SHIFT) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// The inclusive upper bound of bucket `i` in nanoseconds, or `None`
    /// for the `+Inf` overflow bucket.
    pub fn bucket_bound(i: usize) -> Option<u64> {
        if i + 1 < HISTOGRAM_BUCKETS {
            Some(1u64 << (FIRST_BUCKET_SHIFT + i as u32))
        } else {
            None
        }
    }

    /// Records one sample of `nanos`.
    pub fn record(&self, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.buckets[Self::bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records the time elapsed since `started` and returns it in
    /// nanoseconds.
    pub fn observe_since(&self, started: Instant) -> u64 {
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.record(nanos);
        nanos
    }

    /// Starts a timed span that records into this histogram when dropped.
    pub fn start(&self) -> SpanTimer<'_> {
        SpanTimer { histogram: self, started: Instant::now() }
    }

    /// Exact number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all recorded samples, in nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos.load(Ordering::Relaxed)
    }

    /// A relaxed load of every bucket, non-cumulative, in bound order.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`) from the
    /// bucket counts: the bound of the first bucket whose cumulative count
    /// reaches `q` of the total. Samples in the `+Inf` bucket saturate to
    /// one doubling past the largest finite bound. `0` when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let buckets = self.bucket_counts();
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, n) in buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return Self::bucket_bound(i)
                    .unwrap_or(1u64 << (FIRST_BUCKET_SHIFT + HISTOGRAM_BUCKETS as u32 - 1));
            }
        }
        unreachable!("cumulative bucket count reaches the total")
    }
}

/// Times one span; records into its histogram when dropped.
#[must_use = "dropping the timer immediately ends the span"]
#[derive(Debug)]
pub struct SpanTimer<'a> {
    histogram: &'a LatencyHistogram,
    started: Instant,
}

impl SpanTimer<'_> {
    /// Ends the span now, recording and returning its nanoseconds.
    pub fn finish(self) -> u64 {
        let this = ManuallyDrop::new(self);
        this.histogram.observe_since(this.started)
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        self.histogram.observe_since(self.started);
    }
}

// ---------------------------------------------------------------------------
// The span-kind registry group
// ---------------------------------------------------------------------------

/// One latency histogram per span kind, the `spans` group of the global
/// registry. Serve-path kinds (`http_read`, `limiter_check`, `queue_wait`,
/// `worker_run`, `endpoint_*`) are recorded by `rr-serve`; compute-path
/// kinds (`point_compute`, `store_get`, `store_put`, `journal_append`,
/// `diverge_compare`, `diverge_grid`) by `core`'s sweep/journal/diverge
/// code.
#[derive(Debug, Default)]
pub struct SpanMetrics {
    /// One lockstep divergence comparison (`rr diverge`, single point).
    pub diverge_compare: LatencyHistogram,
    /// One full divergence heatmap sweep (`rr diverge --heatmap`).
    pub diverge_grid: LatencyHistogram,
    /// `GET /health` handling.
    pub endpoint_health: LatencyHistogram,
    /// `DELETE /jobs/{id}` handling.
    pub endpoint_jobs_cancel: LatencyHistogram,
    /// `GET /jobs`, `/jobs/{id}`, `/jobs/{id}/result`, `/jobs/{id}/timeline`.
    pub endpoint_jobs_read: LatencyHistogram,
    /// `POST /jobs` handling (parse, dedup, enqueue).
    pub endpoint_jobs_submit: LatencyHistogram,
    /// `GET /metrics` handling (either exposition format).
    pub endpoint_metrics: LatencyHistogram,
    /// Requests that matched no route (404 paths).
    pub endpoint_other: LatencyHistogram,
    /// `PUT /shutdown` handling.
    pub endpoint_shutdown: LatencyHistogram,
    /// Reading + parsing one HTTP request off the socket.
    pub http_read: LatencyHistogram,
    /// One crash-safe journal append (serialize + write + sync).
    pub journal_append: LatencyHistogram,
    /// One rate-limiter admission decision.
    pub limiter_check: LatencyHistogram,
    /// One sweep point computed by the paired simulation.
    pub point_compute: LatencyHistogram,
    /// Job submission to worker claim.
    pub queue_wait: LatencyHistogram,
    /// One result-store lookup (I/O + decode + validation).
    pub store_get: LatencyHistogram,
    /// One result-store persist (serialize + I/O).
    pub store_put: LatencyHistogram,
    /// Worker claim to job completion (the whole execution).
    pub worker_run: LatencyHistogram,
}

/// `(kind, count_field, sum_field)` for every histogram, in the canonical
/// (alphabetical) order. The field names are pre-concatenated so the
/// snapshot's `(&'static str, u64)` shape holds without allocation tricks.
const SPAN_KINDS: [(&str, &str, &str); 17] = [
    ("diverge_compare", "diverge_compare_count", "diverge_compare_sum_nanos"),
    ("diverge_grid", "diverge_grid_count", "diverge_grid_sum_nanos"),
    ("endpoint_health", "endpoint_health_count", "endpoint_health_sum_nanos"),
    ("endpoint_jobs_cancel", "endpoint_jobs_cancel_count", "endpoint_jobs_cancel_sum_nanos"),
    ("endpoint_jobs_read", "endpoint_jobs_read_count", "endpoint_jobs_read_sum_nanos"),
    ("endpoint_jobs_submit", "endpoint_jobs_submit_count", "endpoint_jobs_submit_sum_nanos"),
    ("endpoint_metrics", "endpoint_metrics_count", "endpoint_metrics_sum_nanos"),
    ("endpoint_other", "endpoint_other_count", "endpoint_other_sum_nanos"),
    ("endpoint_shutdown", "endpoint_shutdown_count", "endpoint_shutdown_sum_nanos"),
    ("http_read", "http_read_count", "http_read_sum_nanos"),
    ("journal_append", "journal_append_count", "journal_append_sum_nanos"),
    ("limiter_check", "limiter_check_count", "limiter_check_sum_nanos"),
    ("point_compute", "point_compute_count", "point_compute_sum_nanos"),
    ("queue_wait", "queue_wait_count", "queue_wait_sum_nanos"),
    ("store_get", "store_get_count", "store_get_sum_nanos"),
    ("store_put", "store_put_count", "store_put_sum_nanos"),
    ("worker_run", "worker_run_count", "worker_run_sum_nanos"),
];

impl SpanMetrics {
    pub(crate) const fn new() -> Self {
        SpanMetrics {
            diverge_compare: LatencyHistogram::new(),
            diverge_grid: LatencyHistogram::new(),
            endpoint_health: LatencyHistogram::new(),
            endpoint_jobs_cancel: LatencyHistogram::new(),
            endpoint_jobs_read: LatencyHistogram::new(),
            endpoint_jobs_submit: LatencyHistogram::new(),
            endpoint_metrics: LatencyHistogram::new(),
            endpoint_other: LatencyHistogram::new(),
            endpoint_shutdown: LatencyHistogram::new(),
            http_read: LatencyHistogram::new(),
            journal_append: LatencyHistogram::new(),
            limiter_check: LatencyHistogram::new(),
            point_compute: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            store_get: LatencyHistogram::new(),
            store_put: LatencyHistogram::new(),
            worker_run: LatencyHistogram::new(),
        }
    }

    /// Every histogram with its kind name, in canonical order.
    pub fn histograms(&self) -> [(&'static str, &LatencyHistogram); 17] {
        [
            (SPAN_KINDS[0].0, &self.diverge_compare),
            (SPAN_KINDS[1].0, &self.diverge_grid),
            (SPAN_KINDS[2].0, &self.endpoint_health),
            (SPAN_KINDS[3].0, &self.endpoint_jobs_cancel),
            (SPAN_KINDS[4].0, &self.endpoint_jobs_read),
            (SPAN_KINDS[5].0, &self.endpoint_jobs_submit),
            (SPAN_KINDS[6].0, &self.endpoint_metrics),
            (SPAN_KINDS[7].0, &self.endpoint_other),
            (SPAN_KINDS[8].0, &self.endpoint_shutdown),
            (SPAN_KINDS[9].0, &self.http_read),
            (SPAN_KINDS[10].0, &self.journal_append),
            (SPAN_KINDS[11].0, &self.limiter_check),
            (SPAN_KINDS[12].0, &self.point_compute),
            (SPAN_KINDS[13].0, &self.queue_wait),
            (SPAN_KINDS[14].0, &self.store_get),
            (SPAN_KINDS[15].0, &self.store_put),
            (SPAN_KINDS[16].0, &self.worker_run),
        ]
    }

    /// The snapshot fields: each kind's exact count and sum, alphabetical.
    /// Sum fields end in `_nanos` so the telemetry overhead budget treats
    /// them as durations, not operation counts.
    pub(crate) fn values(&self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::with_capacity(SPAN_KINDS.len() * 2);
        for (i, (_, h)) in self.histograms().into_iter().enumerate() {
            out.push((SPAN_KINDS[i].1, h.count()));
            out.push((SPAN_KINDS[i].2, h.sum_nanos()));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition (format 0.0.4)
// ---------------------------------------------------------------------------

/// Renders the whole registry in the Prometheus text exposition format
/// (version 0.0.4): every scalar counter/gauge as `rr_<group>_<field>`, and
/// every span-kind histogram as an `rr_span_<kind>_nanos` family with
/// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`. The
/// `_count`/`+Inf` values are derived from one bucket load, so they always
/// agree even while writers are recording.
pub fn prometheus_text(metrics: &Metrics) -> String {
    let mut out = String::with_capacity(16 * 1024);
    let snapshot = metrics.snapshot();
    for group in &snapshot.groups {
        if group.name == "spans" {
            continue; // exposed as full histograms below
        }
        for &(field, value) in &group.values {
            let kind = match (group.name, field) {
                ("serve", "queue_depth") | ("sweep", "workers") => "gauge",
                _ => "counter",
            };
            let name = format!("rr_{}_{}", group.name, field);
            out.push_str(&format!("# HELP {name} rr `{}` group `{field}`.\n", group.name));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            out.push_str(&format!("{name} {value}\n"));
        }
    }
    for (kind, histogram) in metrics.spans.histograms() {
        let name = format!("rr_span_{kind}_nanos");
        out.push_str(&format!("# HELP {name} Latency of `{kind}` spans in nanoseconds.\n"));
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let buckets = histogram.bucket_counts();
        let mut cumulative = 0u64;
        for (i, n) in buckets.iter().enumerate() {
            cumulative += n;
            match LatencyHistogram::bucket_bound(i) {
                Some(le) => {
                    out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                }
                None => {
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                }
            }
        }
        out.push_str(&format!("{name}_sum {}\n", histogram.sum_nanos()));
        out.push_str(&format!("{name}_count {cumulative}\n"));
    }
    out
}

// ---------------------------------------------------------------------------
// Per-job Chrome/Perfetto timelines
// ---------------------------------------------------------------------------

/// One wall-clock span of a job's life, microseconds relative to the job's
/// submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineSpan {
    /// Slice name shown by Perfetto.
    pub name: String,
    /// Start, µs since job submission.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Fixed lane (Perfetto `tid`), or `None` to auto-assign a free lane.
    /// Spans sharing a fixed lane must not overlap.
    pub lane: Option<u64>,
}

/// Renders `s` as a JSON string literal (for `otherData` values).
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", Escaped(s))
}

/// Renders a job's spans as a Chrome `trace_event` JSON document of
/// balanced `ph:"B"`/`"E"` pairs, through the same [`TraceWriter`] as the
/// simulator's `register_relocation::sim::chrome_trace_json` (Perfetto and
/// `chrome://tracing` both open it).
///
/// Spans with a fixed lane keep it; the rest are spread greedily across
/// additional lanes so no lane ever holds overlapping spans — which makes
/// every `B` trivially matched by the next `E` on its lane. `other` is
/// appended to `otherData`; values must already be JSON fragments (use
/// [`json_string`] for strings).
pub fn chrome_timeline_json(
    process_name: &str,
    spans: &[TimelineSpan],
    other: &[(&str, String)],
) -> String {
    let mut otherdata = vec![("time_unit", "\"1 us = 1 us of job wall clock\"")];
    otherdata.extend(other.iter().map(|(key, value)| (*key, value.as_str())));
    into_string(write_timeline(process_name, spans, &otherdata)).expect("a Vec sink cannot fail and every lane's B is closed at once")
}

fn write_timeline(
    process_name: &str,
    spans: &[TimelineSpan],
    other: &[(&str, &str)],
) -> io::Result<Vec<u8>> {
    // Assign lanes: fixed lanes first, then greedy first-fit above them.
    let first_auto = spans.iter().filter_map(|s| s.lane).max().map_or(1, |l| l + 1);
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start_us, u64::MAX - spans[i].dur_us));
    // (lane, busy-until) for auto lanes.
    let mut auto_lanes: Vec<(u64, u64)> = Vec::new();
    let mut assigned: Vec<u64> = vec![0; spans.len()];
    for &i in &order {
        let s = &spans[i];
        assigned[i] = match s.lane {
            Some(lane) => lane,
            None => match auto_lanes.iter_mut().find(|(_, busy)| *busy <= s.start_us) {
                Some(slot) => {
                    slot.1 = s.start_us + s.dur_us;
                    slot.0
                }
                None => {
                    let lane = first_auto + auto_lanes.len() as u64;
                    auto_lanes.push((lane, s.start_us + s.dur_us));
                    lane
                }
            },
        };
    }
    let mut tw = TraceWriter::new(Vec::new())?;
    tw.meta(1, 0, "process_name", process_name)?;
    let mut lanes: Vec<u64> = assigned.clone();
    lanes.sort_unstable();
    lanes.dedup();
    for &lane in &lanes {
        let label = if lane == 0 { "lifecycle".to_string() } else { format!("worker lane {lane}") };
        tw.meta(1, lane, "thread_name", &label)?;
    }
    // Emit each lane's spans in start order: B then E, never interleaved.
    for &lane in &lanes {
        let mut on_lane: Vec<usize> =
            (0..spans.len()).filter(|&i| assigned[i] == lane).collect();
        on_lane.sort_by_key(|&i| spans[i].start_us);
        for i in on_lane {
            let s = &spans[i];
            tw.begin(1, lane, &s.name, s.start_us, &[])?;
            tw.end(1, lane, s.start_us + s.dur_us)?;
        }
    }
    tw.finish(other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::IncMetric;
    use proptest::prelude::*;

    #[test]
    fn trace_ids_are_distinct_and_render_as_hex() {
        let a = TraceId::next();
        let b = TraceId::next();
        assert_ne!(a, b);
        let rendered = a.to_string();
        assert_eq!(rendered.len(), 16);
        assert!(rendered.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(TraceId::from_u64(a.as_u64()), a);
    }

    #[test]
    fn trace_contexts_nest_and_restore() {
        assert_eq!(current(), None);
        let outer = TraceId::next();
        let inner = TraceId::next();
        {
            let _a = enter(outer);
            assert_eq!(current(), Some(outer));
            {
                let _b = enter(inner);
                assert_eq!(current(), Some(inner));
                {
                    let _c = enter_opt(None);
                    assert_eq!(current(), None, "enter_opt(None) clears the context");
                }
                assert_eq!(current(), Some(inner));
            }
            assert_eq!(current(), Some(outer));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn bucket_boundaries_are_exact_at_powers_of_two() {
        // 2^k lands in the bucket whose bound is 2^k; 2^k + 1 in the next.
        for k in FIRST_BUCKET_SHIFT..(FIRST_BUCKET_SHIFT + HISTOGRAM_BUCKETS as u32 - 2) {
            let v = 1u64 << k;
            let i = LatencyHistogram::bucket_index(v);
            assert_eq!(LatencyHistogram::bucket_bound(i), Some(v), "2^{k} on its own bound");
            let j = LatencyHistogram::bucket_index(v + 1);
            assert_eq!(j, i + 1, "2^{k}+1 spills into the next bucket");
        }
        // Everything at or below the first bound shares bucket 0.
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(16), 0);
        assert_eq!(LatencyHistogram::bucket_index(17), 1);
        // Past the largest finite bound is +Inf.
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_counts_sums_and_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_upper_bound(0.5), 0, "empty histogram");
        for v in [10u64, 20, 100, 1_000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_nanos(), 1_001_130);
        let buckets = h.bucket_counts();
        assert_eq!(buckets.iter().sum::<u64>(), 5);
        // Median of {10,20,100,1000,1000000} is 100; its bucket bound is 128.
        assert_eq!(h.quantile_upper_bound(0.5), 128);
        assert!(h.quantile_upper_bound(1.0) >= 1_000_000);
    }

    #[test]
    fn span_timer_records_on_drop_and_finish() {
        let h = LatencyHistogram::new();
        {
            let _t = h.start();
        }
        assert_eq!(h.count(), 1);
        let timer = h.start();
        let nanos = timer.finish();
        assert_eq!(h.count(), 2);
        assert!(h.sum_nanos() >= nanos);
    }

    #[test]
    fn prometheus_exposition_has_scalars_and_histograms() {
        let registry = Metrics::default();
        registry.store.hits.add(3);
        registry.spans.http_read.record(100);
        registry.spans.http_read.record(1u64 << 40); // +Inf bucket
        let text = prometheus_text(&registry);
        assert!(text.contains("# TYPE rr_store_hits counter\nrr_store_hits 3\n"));
        assert!(text.contains("# TYPE rr_serve_queue_depth gauge\n"));
        assert!(text.contains("# TYPE rr_span_http_read_nanos histogram\n"));
        assert!(text.contains("rr_span_http_read_nanos_bucket{le=\"128\"} 1\n"));
        assert!(text.contains("rr_span_http_read_nanos_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("rr_span_http_read_nanos_count 2\n"));
        assert!(!text.contains("rr_spans_"), "the spans group is only exposed as histograms");
        assert!(text.ends_with('\n'));
        // Bucket series are cumulative: never decreasing down the family.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("rr_span_http_read_nanos_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative buckets are monotone");
            last = v;
        }
    }

    #[test]
    fn timeline_renders_balanced_pairs_on_non_overlapping_lanes() {
        let spans = vec![
            TimelineSpan { name: "queue wait".into(), start_us: 0, dur_us: 50, lane: Some(0) },
            TimelineSpan { name: "run".into(), start_us: 50, dur_us: 400, lane: Some(0) },
            TimelineSpan { name: "point 0".into(), start_us: 60, dur_us: 200, lane: None },
            TimelineSpan { name: "point 1".into(), start_us: 80, dur_us: 200, lane: None },
            TimelineSpan { name: "point 2".into(), start_us: 270, dur_us: 100, lane: None },
        ];
        let doc = chrome_timeline_json(
            "job 1 (fig5)",
            &spans,
            &[("job_id", "1".to_string()), ("label", json_string("fig5"))],
        );
        assert_eq!(doc.matches("\"ph\":\"B\"").count(), spans.len());
        assert_eq!(doc.matches("\"ph\":\"E\"").count(), spans.len());
        assert!(doc.contains("\"job 1 (fig5)\""));
        assert!(doc.contains("\"job_id\":1"));
        assert!(doc.contains("\"label\":\"fig5\""));
        // point 0 and point 1 overlap, so they must sit on different lanes;
        // point 2 starts after point 0 ends and reuses its lane.
        assert!(doc.contains("\"name\":\"point 1\",\"ph\":\"B\",\"pid\":1,\"tid\":2"));
        assert!(doc.contains("\"name\":\"point 2\",\"ph\":\"B\",\"pid\":1,\"tid\":1"));
    }

    #[test]
    fn timeline_escapes_special_characters() {
        let spans = vec![TimelineSpan {
            name: "a\"b\\c".into(),
            start_us: 0,
            dur_us: 1,
            lane: Some(0),
        }];
        let doc = chrome_timeline_json("p", &spans, &[]);
        assert!(doc.contains("a\\\"b\\\\c"));
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
    }

    proptest! {
        /// Concurrent recording into one shared histogram loses nothing:
        /// the result is identical to recording the same samples serially.
        #[test]
        fn concurrent_recording_equals_serial(
            chunks in proptest::collection::vec(
                proptest::collection::vec(0u64..=u64::MAX / 8, 0..64),
                1..8,
            )
        ) {
            let concurrent = LatencyHistogram::new();
            let shared = &concurrent;
            std::thread::scope(|scope| {
                for chunk in &chunks {
                    scope.spawn(move || {
                        for &v in chunk {
                            shared.record(v);
                        }
                    });
                }
            });
            let serial = LatencyHistogram::new();
            for chunk in &chunks {
                for &v in chunk {
                    serial.record(v);
                }
            }
            prop_assert_eq!(concurrent.count(), serial.count());
            prop_assert_eq!(concurrent.sum_nanos(), serial.sum_nanos());
            prop_assert_eq!(concurrent.bucket_counts(), serial.bucket_counts());
        }

        /// Every sample lands in exactly one bucket whose bound brackets it.
        #[test]
        fn samples_land_in_their_bracketing_bucket(v in any::<u64>()) {
            let i = LatencyHistogram::bucket_index(v);
            if let Some(bound) = LatencyHistogram::bucket_bound(i) {
                prop_assert!(v <= bound);
            } else {
                // +Inf bucket: v exceeds every finite bound.
                let largest = LatencyHistogram::bucket_bound(HISTOGRAM_BUCKETS - 2).unwrap();
                prop_assert!(v > largest);
            }
            if i > 0 {
                let prev = LatencyHistogram::bucket_bound(i - 1).unwrap();
                prop_assert!(v > prev);
            }
        }
    }
}
