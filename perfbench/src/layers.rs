//! Per-layer attribution for traced runs: timed spans around the calls the
//! benchmark makes into each layer's public functions, counts recorded at
//! the same boundaries, and a Perfetto-readable export of the spans.

use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric a traced run reports, with its unit. A layer a
/// workload does not cross reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("workload.build_us", "us"),
    ("sim.run_ms", "ms"),
    ("sim.cycles_per_us", "cycles/us"),
    ("sim.ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sim.cycles", "count"),
    ("alloc.bitmap_op_ns", "ns"),
    ("alloc.fixed_op_ns", "ns"),
    ("alloc.attempts", "count"),
    ("alloc.failures", "count"),
    ("alloc.success_ratio", "ratio"),
    ("runtime.loads", "count"),
    ("runtime.unloads", "count"),
    ("sweep.cold_point_ms", "ms"),
    ("sweep.warm_point_ms", "ms"),
    ("cache.key_us", "us"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("store.verify_us", "us"),
    ("store.record_kib", "KiB"),
    ("store.hit_ratio", "ratio"),
    ("report.decode_us", "us"),
    ("report.encode_ms", "ms"),
    ("report.job_mib", "MiB"),
    ("journal.append_us", "us"),
    ("serve.submit_ms", "ms"),
    ("serve.status_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.result_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.health_us", "us"),
    ("serve.deduped", "count"),
    ("telemetry.record_ns", "ns"),
    ("telemetry.scrape_ms", "ms"),
    ("trace.point_ms", "ms"),
    ("trace.events", "count"),
    ("trace.replay_ms", "ms"),
    ("trace.windows_ms", "ms"),
    ("trace.export_ms", "ms"),
    ("trace.export_mib", "MiB"),
    ("diverge.bisect_ms", "ms"),
    ("diverge.selfcheck_ms", "ms"),
    ("diverge.windows", "count"),
    ("snapshot.encode_us", "us"),
    ("snapshot.decode_us", "us"),
    ("snapshot.kib", "KiB"),
    ("host.calibration_ms", "ms"),
    ("host.tracing_overhead_pct", "%"),
];

/// One completed span, in microseconds from the recorder's origin.
struct Span {
    name: &'static str,
    start_us: f64,
    dur_us: f64,
}

/// Collects samples, counts and spans while a pass runs traced. Disabled,
/// every method is a no-op that reads no clock.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    samples: BTreeMap<&'static str, Vec<f64>>,
    pass_counts: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
    inconsistent: Vec<String>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            enabled: false,
            origin: Instant::now(),
            samples: BTreeMap::new(),
            pass_counts: BTreeMap::new(),
            counts: BTreeMap::new(),
            inconsistent: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f` inside a span and returns its result with the span length
    /// in seconds (0 when disabled).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.enabled {
            return (f(), 0.0);
        }
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        let start_us = started.duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us,
            dur_us: secs * 1e6,
        });
        (out, secs)
    }

    /// Adds one sample of a per-layer metric (reported as the median).
    pub fn sample(&mut self, metric: &'static str, value: f64) {
        if self.enabled {
            self.samples.entry(metric).or_default().push(value);
        }
    }

    /// Adds to a whole-pass count. Counts are simulated or structural
    /// quantities that must repeat exactly from pass to pass: a change that
    /// only speeds the program up leaves them identical.
    pub fn count(&mut self, metric: &'static str, value: f64) {
        if self.enabled {
            *self.pass_counts.entry(metric).or_default() += value;
        }
    }

    /// Sets a whole-pass ratio or count outright.
    pub fn set_count(&mut self, metric: &'static str, value: f64) {
        if self.enabled {
            self.pass_counts.insert(metric, value);
        }
    }

    /// Closes a traced pass: its counts must equal every earlier traced
    /// pass's.
    pub fn end_pass(&mut self) {
        let pass = std::mem::take(&mut self.pass_counts);
        if self.counts.is_empty() {
            self.counts = pass;
        } else if pass != self.counts {
            self.inconsistent
                .push(format!("{pass:?} != {:?}", self.counts));
        }
    }

    /// Exact counts that differed between traced passes, if any.
    pub fn inconsistencies(&self) -> &[String] {
        &self.inconsistent
    }

    /// The final value of every metric in [`LAYER_METRICS`]: the median of
    /// its samples, else its per-pass count, else 0.
    pub fn values(&self) -> Vec<(&'static str, &'static str, f64)> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = match (self.samples.get(name), self.counts.get(name)) {
                    (Some(s), _) if !s.is_empty() => median(s),
                    (_, Some(&c)) => c,
                    _ => 0.0,
                };
                (name, unit, value)
            })
            .collect()
    }

    /// The recorded spans as a Chrome `trace_event` document of complete
    /// `X` events, loadable in Perfetto.
    pub fn chrome_trace(&self, process: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{process}\"}}}}"
        ));
        for s in &self.spans {
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_us,
                s.dur_us
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Median of a non-empty sample; the two middle values are averaged for
/// even counts.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new();
        let (v, secs) = r.time("sim.run_ms", || 5);
        assert_eq!((v, secs), (5, 0.0));
        r.sample("sim.run_ms", 1.0);
        r.count("sim.cycles", 1.0);
        r.end_pass();
        assert!(r.values().iter().all(|&(_, _, v)| v == 0.0));
    }

    #[test]
    fn counts_must_repeat_between_passes() {
        let mut r = Recorder::new();
        r.set_enabled(true);
        r.count("sim.cycles", 10.0);
        r.end_pass();
        r.count("sim.cycles", 10.0);
        r.end_pass();
        assert!(r.inconsistencies().is_empty());
        r.count("sim.cycles", 11.0);
        r.end_pass();
        assert_eq!(r.inconsistencies().len(), 1);
    }

    #[test]
    fn spans_export_as_balanced_chrome_trace() {
        let mut r = Recorder::new();
        r.set_enabled(true);
        r.time("store.get_us", || ());
        let doc = r.chrome_trace("test");
        let summary = crate::checks::check_chrome_trace(&doc).unwrap();
        assert_eq!(summary.events, 2);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
