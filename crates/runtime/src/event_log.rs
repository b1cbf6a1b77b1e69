//! A compact, append-only log of a whole run's events.
//!
//! A traced run emits millions of [`Event`]s; held as a `Vec<Event>` each
//! costs 48 bytes, so the two legs of the Figure 5 cliff point
//! (F=64, R=8, L=400) occupy 116 MiB. Almost all of that is slack: stamps
//! grow by a few cycles per event, thread ids and resident counts are
//! small, and most fields fit one byte. [`EventLog`] encodes each event as
//! it is appended, in about 4.5 bytes, and decodes it again on iteration.
//! It is the only structure that holds a complete run; bounded buffers
//! (the divergence comparator's lockstep window, report context) stay
//! plain `Vec<Event>`s.
//!
//! # Format
//!
//! One record per event, back to back:
//!
//! 1. a **tag byte** naming the [`EventKind`] variant. `Charge` folds its
//!    [`CostBucket`] and whether it carries a thread into the tag, and
//!    `RunEnd` whether `supply_drained_at` is present, so neither needs a
//!    presence byte;
//! 2. the **stamp** as the wrapping difference from the previous event's
//!    stamp (the first event's from 0), an unsigned LEB128 varint. A stamp
//!    that goes backwards wraps to a large delta and still decodes exactly;
//! 3. the variant's **fields** in declaration order as LEB128 varints,
//!    except that `Fault.wake` is stored as `wake - (stamp + latency)` and
//!    `IdleStart.until` as `until - stamp` (both wrapping; the engine's
//!    faults always store 0), and `RunStart.transient_trim` as its eight
//!    raw little-endian bytes, so NaN payloads and `-0.0` survive.
//!
//! The encoding is lossless for every value of every field; the property
//! tests in `crates/runtime/tests/event_log.rs` check that, including
//! extreme values and decreasing stamps.

use std::fmt;

use serde::{Deserialize, Serialize, Value};

use crate::events::{CostBucket, Event, EventKind, EventSink, OsRoutine};

// Tag bytes. `CHARGE + 2 * bucket + has_thread` covers 1..=18.
const RUN_START: u8 = 0;
const CHARGE: u8 = 1;
const CHARGE_LAST: u8 = CHARGE + 2 * CostBucket::ALL.len() as u8 - 1;
const SWITCH_TO: u8 = 19;
const THREAD_SPAWN: u8 = 20;
const FAULT: u8 = 21;
const THREAD_RESUME: u8 = 22;
const THREAD_REQUEUE: u8 = 23;
const ALLOC_SUCCESS: u8 = 24;
const ALLOC_FAILURE: u8 = 25;
const CONTEXT_LOAD: u8 = 26;
const CONTEXT_UNLOAD: u8 = 27;
const SPIN_STEP: u8 = 28;
const IDLE_START: u8 = 29;
const IDLE_END: u8 = 30;
const THREAD_COMPLETE: u8 = 31;
const OS_CALL: u8 = 32;
const RUN_END: u8 = 33;
const RUN_END_DRAINED: u8 = 34;

const OS_ROUTINES: [OsRoutine; 5] = [
    OsRoutine::AllocInit,
    OsRoutine::Alloc,
    OsRoutine::Dealloc,
    OsRoutine::Load,
    OsRoutine::Unload,
];

/// A whole run's events, varint-encoded as they are appended.
///
/// Iteration yields [`Event`]s by value, in append order; serialization
/// produces exactly the JSON array a `Vec<Event>` of the same events does.
#[derive(Clone, Default)]
pub struct EventLog {
    bytes: Vec<u8>,
    len: usize,
    /// Stamp of the last appended event: the next event's delta base.
    stamp: u64,
    /// The last appended event, for consumers that read a run's end.
    last: Option<Event>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events in the log.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the encoded events in bytes (excluding spare capacity).
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The most recently appended event.
    pub fn last(&self) -> Option<Event> {
        self.last
    }

    /// Decodes the events in append order.
    #[inline]
    pub fn iter(&self) -> Iter<'_> {
        Iter { bytes: &self.bytes, pos: 0, stamp: 0, left: self.len }
    }

    /// Appends one event.
    pub fn push(&mut self, event: Event) {
        let out = &mut self.bytes;
        let stamp = event.cycle;
        let tag = match event.kind {
            EventKind::RunStart { .. } => RUN_START,
            EventKind::Charge { bucket, thread, .. } => {
                CHARGE + 2 * bucket as u8 + u8::from(thread.is_some())
            }
            EventKind::SwitchTo { .. } => SWITCH_TO,
            EventKind::ThreadSpawn { .. } => THREAD_SPAWN,
            EventKind::Fault { .. } => FAULT,
            EventKind::ThreadResume { .. } => THREAD_RESUME,
            EventKind::ThreadRequeue { .. } => THREAD_REQUEUE,
            EventKind::AllocSuccess { .. } => ALLOC_SUCCESS,
            EventKind::AllocFailure { .. } => ALLOC_FAILURE,
            EventKind::ContextLoad { .. } => CONTEXT_LOAD,
            EventKind::ContextUnload { .. } => CONTEXT_UNLOAD,
            EventKind::SpinStep { .. } => SPIN_STEP,
            EventKind::IdleStart { .. } => IDLE_START,
            EventKind::IdleEnd => IDLE_END,
            EventKind::ThreadComplete { .. } => THREAD_COMPLETE,
            EventKind::OsCall { .. } => OS_CALL,
            EventKind::RunEnd { supply_drained_at: None, .. } => RUN_END,
            EventKind::RunEnd { supply_drained_at: Some(_), .. } => RUN_END_DRAINED,
        };
        out.push(tag);
        put(out, stamp.wrapping_sub(self.stamp));
        match event.kind {
            EventKind::RunStart { threads, checkpoint_interval, checkpoint_cap, transient_trim } => {
                put(out, threads as u64);
                put(out, checkpoint_interval);
                put(out, checkpoint_cap as u64);
                out.extend_from_slice(&transient_trim.to_bits().to_le_bytes());
            }
            EventKind::Charge { cycles, resident, thread, .. } => {
                put(out, cycles);
                put(out, resident as u64);
                if let Some(t) = thread {
                    put(out, t as u64);
                }
            }
            EventKind::SwitchTo { thread, hops } => {
                put(out, thread as u64);
                put(out, hops as u64);
            }
            EventKind::ThreadSpawn { thread }
            | EventKind::ThreadResume { thread }
            | EventKind::ThreadRequeue { thread }
            | EventKind::ThreadComplete { thread } => put(out, thread as u64),
            EventKind::Fault { thread, latency, wake } => {
                put(out, thread as u64);
                put(out, latency);
                put(out, wake.wrapping_sub(stamp).wrapping_sub(latency));
            }
            EventKind::AllocSuccess { thread, regs } | EventKind::AllocFailure { thread, regs } => {
                put(out, thread as u64);
                put(out, u64::from(regs));
            }
            EventKind::ContextLoad { thread, regs, base, resident }
            | EventKind::ContextUnload { thread, regs, base, resident } => {
                put(out, thread as u64);
                put(out, u64::from(regs));
                put(out, u64::from(base));
                put(out, resident as u64);
            }
            EventKind::SpinStep { thread, accumulated, budget } => {
                put(out, thread as u64);
                put(out, accumulated);
                put(out, budget);
            }
            EventKind::IdleStart { until } => put(out, until.wrapping_sub(stamp)),
            EventKind::IdleEnd => {}
            EventKind::OsCall { routine, cycles } => {
                put(out, routine as u64);
                put(out, cycles);
            }
            EventKind::RunEnd { total_cycles, supply_drained_at } => {
                put(out, total_cycles);
                if let Some(at) = supply_drained_at {
                    put(out, at);
                }
            }
        }
        self.stamp = stamp;
        self.last = Some(event);
        self.len += 1;
    }
}

/// Appends `v` as an unsigned LEB128 varint.
#[inline]
fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decoding iterator over an [`EventLog`].
#[derive(Clone)]
pub struct Iter<'a> {
    bytes: &'a [u8],
    pos: usize,
    stamp: u64,
    left: usize,
}

impl Iter<'_> {
    #[inline]
    fn byte(&mut self) -> u8 {
        let b = self.bytes[self.pos];
        self.pos += 1;
        b
    }

    /// Reads one unsigned LEB128 varint.
    #[inline]
    fn take(&mut self) -> u64 {
        let b = self.byte();
        if b < 0x80 {
            return u64::from(b);
        }
        let mut v = u64::from(b & 0x7f);
        let mut shift = 7;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    // Narrowing reads of fields that were widened from these types on
    // append, so the casts are exact.
    #[inline]
    fn usize(&mut self) -> usize {
        self.take() as usize
    }

    #[inline]
    fn u32(&mut self) -> u32 {
        self.take() as u32
    }

    #[inline]
    fn u16(&mut self) -> u16 {
        self.take() as u16
    }
}

impl Iterator for Iter<'_> {
    type Item = Event;

    #[inline]
    fn next(&mut self) -> Option<Event> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let tag = self.byte();
        let cycle = self.stamp.wrapping_add(self.take());
        self.stamp = cycle;
        let kind = match tag {
            RUN_START => EventKind::RunStart {
                threads: self.usize(),
                checkpoint_interval: self.take(),
                checkpoint_cap: self.usize(),
                transient_trim: {
                    let raw = &self.bytes[self.pos..self.pos + 8];
                    self.pos += 8;
                    f64::from_bits(u64::from_le_bytes(raw.try_into().expect("eight bytes")))
                },
            },
            CHARGE..=CHARGE_LAST => {
                let code = tag - CHARGE;
                EventKind::Charge {
                    bucket: CostBucket::ALL[usize::from(code / 2)],
                    cycles: self.take(),
                    resident: self.usize(),
                    thread: if code % 2 == 1 { Some(self.usize()) } else { None },
                }
            }
            SWITCH_TO => EventKind::SwitchTo { thread: self.usize(), hops: self.usize() },
            THREAD_SPAWN => EventKind::ThreadSpawn { thread: self.usize() },
            FAULT => {
                let thread = self.usize();
                let latency = self.take();
                let wake = self.take().wrapping_add(cycle).wrapping_add(latency);
                EventKind::Fault { thread, latency, wake }
            }
            THREAD_RESUME => EventKind::ThreadResume { thread: self.usize() },
            THREAD_REQUEUE => EventKind::ThreadRequeue { thread: self.usize() },
            ALLOC_SUCCESS => EventKind::AllocSuccess { thread: self.usize(), regs: self.u32() },
            ALLOC_FAILURE => EventKind::AllocFailure { thread: self.usize(), regs: self.u32() },
            CONTEXT_LOAD => EventKind::ContextLoad {
                thread: self.usize(),
                regs: self.u32(),
                base: self.u16(),
                resident: self.usize(),
            },
            CONTEXT_UNLOAD => EventKind::ContextUnload {
                thread: self.usize(),
                regs: self.u32(),
                base: self.u16(),
                resident: self.usize(),
            },
            SPIN_STEP => EventKind::SpinStep {
                thread: self.usize(),
                accumulated: self.take(),
                budget: self.take(),
            },
            IDLE_START => EventKind::IdleStart { until: self.take().wrapping_add(cycle) },
            IDLE_END => EventKind::IdleEnd,
            THREAD_COMPLETE => EventKind::ThreadComplete { thread: self.usize() },
            OS_CALL => EventKind::OsCall {
                routine: OS_ROUTINES[self.usize()],
                cycles: self.take(),
            },
            RUN_END => EventKind::RunEnd { total_cycles: self.take(), supply_drained_at: None },
            RUN_END_DRAINED => EventKind::RunEnd {
                total_cycles: self.take(),
                supply_drained_at: Some(self.take()),
            },
            other => unreachable!("event log tag {other} was never written"),
        };
        Some(Event { cycle, kind })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a EventLog {
    type Item = Event;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<Event> for EventLog {
    fn from_iter<I: IntoIterator<Item = Event>>(events: I) -> Self {
        let mut log = EventLog::new();
        log.extend(events);
        log
    }
}

impl Extend<Event> for EventLog {
    fn extend<I: IntoIterator<Item = Event>>(&mut self, events: I) {
        for e in events {
            self.push(e);
        }
    }
}

impl EventSink for EventLog {
    #[inline]
    fn emit(&mut self, event: Event) {
        self.push(event);
    }
}

/// Logs hold the same events exactly when their encodings are equal.
impl PartialEq for EventLog {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.bytes == other.bytes
    }
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for EventLog {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(|e| e.to_value()).collect())
    }
}

impl Deserialize for EventLog {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Vec::<Event>::from_value(v).map(EventLog::from_iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn(cycle: u64, thread: usize) -> Event {
        Event { cycle, kind: EventKind::ThreadSpawn { thread } }
    }

    #[test]
    fn appended_events_decode_in_order() {
        let mut log = EventLog::new();
        assert!(log.is_empty() && log.last().is_none());
        for c in [0, 5, 5, 900, 3] {
            log.emit(spawn(c, c as usize));
        }
        assert_eq!(log.len(), 5);
        assert_eq!(log.last(), Some(spawn(3, 3)));
        let cycles: Vec<u64> = log.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 5, 5, 900, 3]);
        assert_eq!(log.iter().len(), 5);
    }

    #[test]
    fn small_fields_take_one_byte_each() {
        let log: EventLog = [
            spawn(0, 3),
            Event {
                cycle: 10,
                kind: EventKind::Charge {
                    bucket: CostBucket::Busy,
                    cycles: 40,
                    resident: 2,
                    thread: Some(3),
                },
            },
            Event { cycle: 50, kind: EventKind::Fault { thread: 3, latency: 100, wake: 150 } },
        ]
        .into_iter()
        .collect();
        // tag + stamp + thread; tag + stamp + cycles + resident + thread;
        // tag + stamp + thread + latency + wake offset.
        assert_eq!(log.encoded_bytes(), 3 + 5 + 5);
    }

    #[test]
    fn equal_events_make_equal_logs() {
        let a: EventLog = (0..4).map(|c| spawn(c, 1)).collect();
        let b: EventLog = (0..4).map(|c| spawn(c, 1)).collect();
        let c: EventLog = (0..4).map(|c| spawn(c, 2)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(format!("{a:?}"), format!("{:?}", a.iter().collect::<Vec<_>>()));
    }
}
