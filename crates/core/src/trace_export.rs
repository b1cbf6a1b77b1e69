//! Chrome `trace_event` JSON export of event streams.
//!
//! Emits the subset of the [Trace Event Format] that Perfetto and
//! `chrome://tracing` both render: complete slices (`ph:"X"`) for cycle
//! charges, instants (`ph:"i"`) for faults and allocation failures, and
//! duration begin/end pairs (`ph:"B"`/`"E"`) for context residency. One
//! process per architecture run; within it, track 0 is the scheduler
//! (idle and other unattributed charges), one track per software thread,
//! and one track per hardware context base register showing which thread
//! occupies it — the paper's register file, drawn over time.
//!
//! Timestamps are microseconds in the format; we map **1 simulated cycle to
//! 1 µs**, so Perfetto's "µs" readout is really "cycles" (noted in
//! `otherData`). The document streams through `rr_telemetry`'s
//! [`TraceWriter`] (no serializer round-trip, no per-event `String`): the
//! format is flat and append-only, and a run can emit millions of slices.
//! The exporter lives here rather than in `rr-sim` because this crate
//! already depends on both the simulator and `rr-telemetry`; callers reach
//! it as `register_relocation::sim::{chrome_trace_json, write_chrome_trace}`.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::fmt::Write as _;
use std::io::{self, Write};

use rr_runtime::{Event, EventKind};
use rr_telemetry::trace::{into_string, TraceWriter};

/// Offset separating context-track ids from thread-track ids within a
/// process: context base `b` renders as tid `CONTEXT_TRACK_BASE + b`.
const CONTEXT_TRACK_BASE: u64 = 100_000;

/// Per-process track state, addressed by thread index and context base.
#[derive(Default)]
struct Tracks {
    named_threads: Vec<bool>,
    named_contexts: Vec<bool>,
    /// Per thread, while its context is resident: (load order, base). The
    /// load order closes still-resident contexts in the order they opened.
    resident: Vec<Option<(u64, u16)>>,
    loads: u64,
}

/// Marks `flags[i]`, growing the vector; true if it was not yet marked.
fn first_mark(flags: &mut Vec<bool>, i: usize) -> bool {
    if flags.len() <= i {
        flags.resize(i + 1, false);
    }
    !std::mem::replace(&mut flags[i], true)
}

fn context_tid(base: u16) -> u64 {
    CONTEXT_TRACK_BASE + u64::from(base)
}

impl Tracks {
    fn slot(&mut self, thread: usize) -> &mut Option<(u64, u16)> {
        if self.resident.len() <= thread {
            self.resident.resize(thread + 1, None);
        }
        &mut self.resident[thread]
    }

    /// Ends `thread`'s residency slice, if it has one open.
    fn vacate<W: Write>(
        &mut self,
        tw: &mut TraceWriter<W>,
        pid: u32,
        thread: usize,
        ts: u64,
    ) -> io::Result<()> {
        match self.slot(thread).take() {
            Some((_, base)) => tw.end(pid, context_tid(base), ts),
            None => Ok(()),
        }
    }

    /// Ends every open residency slice at `ts`, oldest load first.
    fn vacate_all<W: Write>(
        &mut self,
        tw: &mut TraceWriter<W>,
        pid: u32,
        ts: u64,
    ) -> io::Result<()> {
        let mut open: Vec<(u64, u16)> = self.resident.iter_mut().filter_map(Option::take).collect();
        open.sort_unstable();
        open.into_iter().try_for_each(|(_, base)| tw.end(pid, context_tid(base), ts))
    }
}

/// Renders the events of one process (one architecture run) into `tw`.
fn emit_process<W: Write>(
    tw: &mut TraceWriter<W>,
    pid: u32,
    name: &str,
    events: &[Event],
) -> io::Result<()> {
    tw.meta(pid, 0, "process_name", name)?;
    tw.meta(pid, 0, "thread_name", "scheduler")?;
    let mut tracks = Tracks::default();
    // Reused for the few names that carry a number.
    let mut label = String::new();

    for e in events {
        match e.kind {
            EventKind::Charge { bucket, cycles, thread, .. } => {
                let tid = match thread {
                    Some(t) => {
                        if first_mark(&mut tracks.named_threads, t) {
                            label.clear();
                            let _ = write!(label, "thread {t}");
                            tw.meta(pid, t as u64 + 1, "thread_name", &label)?;
                        }
                        t as u64 + 1
                    }
                    None => 0,
                };
                tw.complete(pid, tid, bucket.label(), e.cycle, cycles, &[])?;
            }
            EventKind::Fault { thread, latency, wake } => {
                let args = [("latency", latency), ("wake", wake)];
                tw.instant(pid, thread as u64 + 1, "fault", e.cycle, &args)?;
            }
            EventKind::AllocFailure { thread, regs } => {
                let args = [("thread", thread as u64), ("regs", u64::from(regs))];
                tw.instant(pid, 0, "alloc failure", e.cycle, &args)?;
            }
            EventKind::ContextLoad { thread, regs, base, .. } => {
                if first_mark(&mut tracks.named_contexts, usize::from(base)) {
                    label.clear();
                    let _ = write!(label, "context @r{base}");
                    tw.meta(pid, context_tid(base), "thread_name", &label)?;
                }
                tracks.vacate(tw, pid, thread, e.cycle)?;
                *tracks.slot(thread) = Some((tracks.loads, base));
                tracks.loads += 1;
                label.clear();
                let _ = write!(label, "thread {thread}");
                tw.begin(pid, context_tid(base), &label, e.cycle, &[("regs", u64::from(regs))])?;
            }
            EventKind::ContextUnload { thread, .. } => tracks.vacate(tw, pid, thread, e.cycle)?,
            EventKind::ThreadComplete { thread } => {
                // A completing thread's context frees without a
                // ContextUnload (that event is policy eviction only).
                tracks.vacate(tw, pid, thread, e.cycle)?;
                tw.instant(pid, thread as u64 + 1, "complete", e.cycle, &[])?;
            }
            EventKind::ThreadSpawn { thread } => {
                tw.instant(pid, thread as u64 + 1, "spawn", e.cycle, &[])?;
            }
            // Close any contexts still resident at the horizon.
            EventKind::RunEnd { total_cycles, .. } => tracks.vacate_all(tw, pid, total_cycles)?,
            _ => {}
        }
    }
    // A stream cut before its RunEnd closes what is still open at its
    // last event, so the document stays balanced.
    tracks.vacate_all(tw, pid, events.last().map_or(0, |e| e.cycle))
}

/// Streams one or more processes' event streams into `out` as a Chrome
/// `trace_event`-format JSON document, and returns `out` (unflushed). Each
/// `(pid, name, events)` tuple becomes one process group in the Perfetto
/// UI.
///
/// # Errors
///
/// `out`'s write error.
pub fn write_chrome_trace<W: Write>(out: W, processes: &[(u32, &str, &[Event])]) -> io::Result<W> {
    let mut tw = TraceWriter::new(out)?;
    for &(pid, name, events) in processes {
        emit_process(&mut tw, pid, name, events)?;
    }
    tw.finish(&[("time_unit", "\"1 us = 1 simulated cycle\"")])
}

/// [`write_chrome_trace`] into memory.
pub fn chrome_trace_json(processes: &[(u32, &str, &[Event])]) -> String {
    into_string(write_chrome_trace(Vec::new(), processes))
        .expect("a Vec sink cannot fail and every residency slice is closed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_runtime::CostBucket;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                cycle: 0,
                kind: EventKind::RunStart {
                    threads: 1,
                    checkpoint_interval: 1024,
                    checkpoint_cap: 65536,
                    transient_trim: 0.1,
                },
            },
            Event { cycle: 0, kind: EventKind::AllocSuccess { thread: 0, regs: 8 } },
            Event { cycle: 0, kind: EventKind::ThreadSpawn { thread: 0 } },
            Event {
                cycle: 0,
                kind: EventKind::ContextLoad { thread: 0, regs: 8, base: 32, resident: 1 },
            },
            Event {
                cycle: 0,
                kind: EventKind::Charge {
                    bucket: CostBucket::Busy,
                    cycles: 40,
                    resident: 1,
                    thread: Some(0),
                },
            },
            Event { cycle: 40, kind: EventKind::Fault { thread: 0, latency: 100, wake: 140 } },
            Event {
                cycle: 40,
                kind: EventKind::Charge {
                    bucket: CostBucket::Idle,
                    cycles: 100,
                    resident: 1,
                    thread: None,
                },
            },
            Event { cycle: 140, kind: EventKind::ThreadComplete { thread: 0 } },
            Event {
                cycle: 140,
                kind: EventKind::RunEnd { total_cycles: 140, supply_drained_at: Some(0) },
            },
        ]
    }

    #[test]
    fn export_is_valid_json_with_expected_tracks() {
        let events = sample_events();
        let doc = chrome_trace_json(&[(1, "flexible", &events)]);
        let parsed = serde_json::from_str::<serde::Value>(&doc).unwrap();
        let top = match &parsed {
            serde::Value::Object(fields) => fields,
            other => panic!("expected object, got {other:?}"),
        };
        let trace_events = top
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| match v {
                serde::Value::Array(a) => a,
                other => panic!("traceEvents must be an array, got {other:?}"),
            })
            .unwrap();
        assert!(trace_events.len() >= 8, "got {}", trace_events.len());
        // Process metadata, a busy slice on the thread track, an idle slice
        // on the scheduler track, a fault instant, and a closed context pair.
        let rendered = doc.as_str();
        assert!(rendered.contains("\"process_name\""));
        assert!(rendered.contains("\"flexible\""));
        assert!(rendered.contains("\"context @r32\""));
        assert!(rendered.contains("\"ph\":\"B\""));
        assert!(rendered.contains("\"ph\":\"E\""));
        assert!(rendered.contains("\"fault\""));
        assert!(rendered.contains("\"run\""));
        assert!(rendered.contains("\"idle\""));
    }

    #[test]
    fn context_closes_at_horizon_if_still_resident() {
        // Drop the completion so the context is still resident at RunEnd.
        let mut resident = sample_events();
        resident.retain(|e| !matches!(e.kind, EventKind::ThreadComplete { .. }));
        // A stream cut before its RunEnd closes at its last event.
        let mut cut = resident.clone();
        cut.pop();
        // A stream cut before the load: its unload has nothing to close.
        let mut headless = sample_events();
        headless.retain(|e| !matches!(e.kind, EventKind::ContextLoad { .. }));
        headless.insert(
            5,
            Event {
                cycle: 40,
                kind: EventKind::ContextUnload { thread: 0, regs: 8, base: 32, resident: 0 },
            },
        );
        for (events, pairs, closed_at) in [(resident, 1, 140), (cut, 1, 40), (headless, 0, 0)] {
            let doc = chrome_trace_json(&[(1, "flexible", &events)]);
            serde_json::from_str::<serde::Value>(&doc).unwrap();
            assert_eq!(doc.matches("\"ph\":\"B\"").count(), pairs, "{doc}");
            assert_eq!(doc.matches("\"ph\":\"E\"").count(), pairs, "every B has an E: {doc}");
            if pairs > 0 {
                let end = format!("\"tid\":100032,\"ts\":{closed_at}}}");
                assert!(doc.contains(&format!("{{\"ph\":\"E\",\"pid\":1,{end}")), "{doc}");
            }
        }
    }

    #[test]
    fn two_processes_use_distinct_pids() {
        let events = sample_events();
        let doc = chrome_trace_json(&[(1, "fixed", &events), (2, "flexible", &events)]);
        serde_json::from_str::<serde::Value>(&doc).unwrap();
        assert!(doc.contains("\"pid\":1"));
        assert!(doc.contains("\"pid\":2"));
    }

    #[test]
    fn escaping_handles_special_characters() {
        // Process names reach the document through the writer's escaper.
        let events = sample_events();
        let doc = chrome_trace_json(&[(1, "a\"b\\c\nd", &events), (2, "plain", &events)]);
        assert!(doc.contains("\"name\":\"a\\\"b\\\\c\\nd\""), "{doc}");
        assert!(doc.contains("\"name\":\"plain\""), "{doc}");
    }

    #[test]
    fn hostile_process_names_still_produce_valid_json() {
        // A workload name is caller-controlled; quotes, backslashes, and
        // control characters must not break the handcrafted document.
        let events = sample_events();
        let name = "fig\"5\\ case\n\u{1}";
        let doc = chrome_trace_json(&[(1, name, &events)]);
        serde_json::from_str::<serde::Value>(&doc).expect("valid JSON");
        assert!(doc.contains("fig\\\"5\\\\ case\\n\\u0001"), "{doc}");
    }
}
