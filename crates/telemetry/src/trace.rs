//! The one Chrome `trace_event` JSON writer.
//!
//! Both Perfetto documents the toolchain emits are written here: the
//! simulated register file over time
//! (`register_relocation::sim::chrome_trace_json`) and a served job's
//! wall-clock timeline ([`crate::span::chrome_timeline_json`]).
//! A [`TraceWriter`] streams the document straight into any
//! [`std::io::Write`] sink: numbers are formatted in place and names are
//! escaped in place, so no event is ever held as its own `String`, and a
//! writer over a `BufWriter<File>` never holds the document at all.
//!
//! The envelope is fixed:
//!
//! ```text
//! {"traceEvents":[
//! <event>,
//! <event>
//! ],"displayTimeUnit":"ms","otherData":{<key>:<value>,...}}
//! ```
//!
//! Duration begin/end pairs (`ph:"B"`/`"E"`) are balanced per `(pid, tid)`
//! track as they are written: an `E` with no open `B` on its track, or a
//! [`TraceWriter::finish`] that would leave a `B` open, returns an
//! [`io::ErrorKind::InvalidInput`] error instead of writing a document
//! Perfetto would misdraw.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};

/// A JSON string's contents, escaped as it is displayed: `"` and `\`
/// get a backslash, `\n` `\t` `\r` their short escapes, and every other
/// control character a `\u00XX` escape. Everything else, non-ASCII
/// included, passes through unchanged.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Escaped<'a>(pub(crate) &'a str);

fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        let mut start = 0;
        // Every escaped byte is ASCII, so each split lands on a char
        // boundary.
        for (i, b) in s.bytes().enumerate() {
            if !needs_escape(b) {
                continue;
            }
            f.write_str(&s[start..i])?;
            match b {
                b'"' => f.write_str("\\\"")?,
                b'\\' => f.write_str("\\\\")?,
                b'\n' => f.write_str("\\n")?,
                b'\t' => f.write_str("\\t")?,
                b'\r' => f.write_str("\\r")?,
                _ => write!(f, "\\u{b:04x}")?,
            }
            start = i + 1;
        }
        f.write_str(&s[start..])
    }
}

/// Streams one Chrome `trace_event` JSON document into `W`. See the
/// [module docs](self) for the envelope and the balance check. Every method
/// returns the sink's write error; [`end`](Self::end) and
/// [`finish`](Self::finish) also reject an unbalanced track.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    /// Whether an event has been written (the next one needs a `,\n`).
    started: bool,
    /// Open `B` count per `(pid, tid)` track.
    open: BTreeMap<(u32, u64), u32>,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a document by writing the envelope's opening.
    pub fn new(mut out: W) -> io::Result<TraceWriter<W>> {
        out.write_all(b"{\"traceEvents\":[\n")?;
        Ok(TraceWriter { out, started: false, open: BTreeMap::new() })
    }

    /// A metadata event (`ph:"M"`), e.g. `which = "process_name"` or
    /// `"thread_name"`, naming the track `(pid, tid)` as `name`.
    pub fn meta(&mut self, pid: u32, tid: u64, which: &str, name: &str) -> io::Result<()> {
        self.head(which, "M", pid, tid)?;
        self.out.write_all(b",\"args\":{\"name\":")?;
        self.string(name)?;
        self.out.write_all(b"}}")
    }

    /// A complete slice (`ph:"X"`) of `dur` starting at `ts`. `args`, if
    /// any, become the slice's integer arguments.
    pub fn complete(
        &mut self,
        pid: u32,
        tid: u64,
        name: &str,
        ts: u64,
        dur: u64,
        args: &[(&str, u64)],
    ) -> io::Result<()> {
        self.head(name, "X", pid, tid)?;
        self.field("ts", ts)?;
        self.field("dur", dur)?;
        self.args_and_close(args)
    }

    /// A thread-scoped instant (`ph:"i"`, `s:"t"`) at `ts`.
    pub fn instant(
        &mut self,
        pid: u32,
        tid: u64,
        name: &str,
        ts: u64,
        args: &[(&str, u64)],
    ) -> io::Result<()> {
        self.sep()?;
        self.out.write_all(b"{\"name\":")?;
        self.string(name)?;
        self.out.write_all(b",\"ph\":\"i\",\"s\":\"t\"")?;
        self.field("pid", u64::from(pid))?;
        self.field("tid", tid)?;
        self.field("ts", ts)?;
        self.args_and_close(args)
    }

    /// Opens a duration (`ph:"B"`) on track `(pid, tid)`; the next
    /// [`end`](Self::end) on the same track closes it.
    pub fn begin(
        &mut self,
        pid: u32,
        tid: u64,
        name: &str,
        ts: u64,
        args: &[(&str, u64)],
    ) -> io::Result<()> {
        self.head(name, "B", pid, tid)?;
        self.field("ts", ts)?;
        self.args_and_close(args)?;
        *self.open.entry((pid, tid)).or_default() += 1;
        Ok(())
    }

    /// Closes the innermost open duration (`ph:"E"`) on track `(pid, tid)`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`], with nothing written, if the track
    /// has no open `B`; otherwise the sink's write error.
    pub fn end(&mut self, pid: u32, tid: u64, ts: u64) -> io::Result<()> {
        match self.open.get_mut(&(pid, tid)) {
            Some(depth) if *depth > 0 => *depth -= 1,
            _ => return Err(unbalanced(pid, tid, "an end with no open begin")),
        }
        self.sep()?;
        self.out.write_all(b"{\"ph\":\"E\"")?;
        self.field("pid", u64::from(pid))?;
        self.field("tid", tid)?;
        self.field("ts", ts)?;
        self.out.write_all(b"}")
    }

    /// Closes the document with `otherData` holding `other` in order, and
    /// returns the sink (unflushed). Each value must already be a JSON
    /// fragment (a number, `null`, or a string from
    /// [`crate::span::json_string`]); keys are escaped here.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`], with the envelope left unclosed, if
    /// any track still has an open `B`; otherwise the sink's write error.
    pub fn finish(mut self, other: &[(&str, &str)]) -> io::Result<W> {
        if let Some((&(pid, tid), _)) = self.open.iter().find(|(_, &depth)| depth > 0) {
            return Err(unbalanced(pid, tid, "a begin left open at finish"));
        }
        self.out.write_all(b"\n],\"displayTimeUnit\":\"ms\",\"otherData\":{")?;
        for (i, (key, value)) in other.iter().enumerate() {
            if i > 0 {
                self.out.write_all(b",")?;
            }
            self.string(key)?;
            self.out.write_all(b":")?;
            self.out.write_all(value.as_bytes())?;
        }
        self.out.write_all(b"}}")?;
        Ok(self.out)
    }

    /// The separator before every event but the first.
    fn sep(&mut self) -> io::Result<()> {
        if self.started {
            self.out.write_all(b",\n")
        } else {
            self.started = true;
            Ok(())
        }
    }

    /// `{"name":<name>,"ph":"<ph>","pid":<pid>,"tid":<tid>` — the shared
    /// opening of every named event.
    fn head(&mut self, name: &str, ph: &str, pid: u32, tid: u64) -> io::Result<()> {
        self.sep()?;
        self.out.write_all(b"{\"name\":")?;
        self.string(name)?;
        self.out.write_all(b",\"ph\":\"")?;
        self.out.write_all(ph.as_bytes())?;
        self.out.write_all(b"\"")?;
        self.field("pid", u64::from(pid))?;
        self.field("tid", tid)
    }

    /// `,"<key>":<n>`.
    fn field(&mut self, key: &str, n: u64) -> io::Result<()> {
        self.out.write_all(b",\"")?;
        self.out.write_all(key.as_bytes())?;
        self.out.write_all(b"\":")?;
        self.number(n)
    }

    /// `,"args":{...}` when `args` is non-empty, then the closing brace.
    fn args_and_close(&mut self, args: &[(&str, u64)]) -> io::Result<()> {
        if !args.is_empty() {
            self.out.write_all(b",\"args\":{")?;
            for (i, &(key, n)) in args.iter().enumerate() {
                if i > 0 {
                    self.out.write_all(b",")?;
                }
                self.string(key)?;
                self.out.write_all(b":")?;
                self.number(n)?;
            }
            self.out.write_all(b"}")?;
        }
        self.out.write_all(b"}")
    }

    /// `n` in decimal, formatted on the stack.
    fn number(&mut self, mut n: u64) -> io::Result<()> {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out.write_all(&digits[at..])
    }

    /// `s` as a quoted JSON string.
    fn string(&mut self, s: &str) -> io::Result<()> {
        self.out.write_all(b"\"")?;
        if s.bytes().any(needs_escape) {
            write!(self.out, "{}", Escaped(s))?;
        } else {
            self.out.write_all(s.as_bytes())?;
        }
        self.out.write_all(b"\"")
    }
}

fn unbalanced(pid: u32, tid: u64, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("unbalanced trace: {what} on track pid {pid} tid {tid}"),
    )
}

/// The document a writer over a `Vec<u8>` produced, as a `String`.
///
/// # Errors
///
/// `doc`'s own error, or [`io::ErrorKind::InvalidData`] if the bytes are
/// not UTF-8 (a [`TraceWriter`] only ever writes UTF-8).
pub fn into_string(doc: io::Result<Vec<u8>>) -> io::Result<String> {
    String::from_utf8(doc?).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde::Value;

    /// Characters JSON must escape, their neighbours, and non-ASCII up to
    /// the last scalar value.
    const PALETTE: [char; 20] = [
        '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', ' ',
        'a', 'Z', '/', 'é', '→', '😀', '\u{10ffff}', '\u{2028}',
    ];

    fn name() -> impl Strategy<Value = String> {
        prop::collection::vec(0..PALETTE.len(), 0..10)
            .prop_map(|ix| ix.into_iter().map(|i| PALETTE[i]).collect())
    }

    /// One step on track `track % TRACKS`: `kind` 0 opens a duration,
    /// 1 closes one, 2 is an instant, 3 a complete slice.
    fn ops() -> impl Strategy<Value = Vec<(u8, u8, String)>> {
        prop::collection::vec((0u8..4, 0u8..4, name()), 0..40)
    }

    const TRACKS: u8 = 3;

    /// Track `t % TRACKS` as `(pid, tid)`: two pids, distinct tids.
    fn track(t: u8) -> (u32, u64) {
        let t = t % TRACKS;
        (u32::from(t % 2) + 1, u64::from(t) * 7)
    }

    fn events(doc: &str) -> Vec<Value> {
        let parsed: Value = serde_json::from_str(doc).expect("document parses");
        match parsed.get("traceEvents") {
            Some(Value::Array(events)) => events.clone(),
            other => panic!("traceEvents is not an array: {other:?}"),
        }
    }

    fn u64_field(e: &Value, key: &str) -> u64 {
        match e.get(key) {
            Some(Value::U64(n)) => *n,
            other => panic!("{key} is not a u64: {other:?}"),
        }
    }

    fn str_field<'a>(e: &'a Value, key: &str) -> Option<&'a str> {
        match e.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    #[test]
    fn envelope_of_an_empty_document() {
        let doc = into_string(TraceWriter::new(Vec::new()).and_then(|tw| tw.finish(&[]))).unwrap();
        assert_eq!(doc, "{\"traceEvents\":[\n\n],\"displayTimeUnit\":\"ms\",\"otherData\":{}}");
    }

    #[test]
    fn events_render_in_the_documented_field_order() {
        let mut tw = TraceWriter::new(Vec::new()).unwrap();
        tw.meta(1, 0, "process_name", "p").unwrap();
        tw.complete(1, 2, "run", 3, 4, &[]).unwrap();
        tw.instant(1, 2, "fault", 5, &[("latency", 6), ("wake", 11)]).unwrap();
        tw.begin(1, 100_032, "thread 0", 7, &[("regs", 8)]).unwrap();
        tw.end(1, 100_032, u64::MAX).unwrap();
        let doc = into_string(tw.finish(&[("time_unit", "\"x\""), ("n", "9")])).unwrap();
        assert_eq!(
            doc,
            "{\"traceEvents\":[\n\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"p\"}},\n\
             {\"name\":\"run\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":3,\"dur\":4},\n\
             {\"name\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":2,\"ts\":5,\
             \"args\":{\"latency\":6,\"wake\":11}},\n\
             {\"name\":\"thread 0\",\"ph\":\"B\",\"pid\":1,\"tid\":100032,\"ts\":7,\
             \"args\":{\"regs\":8}},\n\
             {\"ph\":\"E\",\"pid\":1,\"tid\":100032,\"ts\":18446744073709551615}\n\
             ],\"displayTimeUnit\":\"ms\",\"otherData\":{\"time_unit\":\"x\",\"n\":9}}"
        );
    }

    proptest! {
        /// Hostile names round-trip through the escaper and the vendored
        /// parser, well-nested B/E sequences over several tracks come back
        /// balanced with their names in order, and the document parses.
        #[test]
        fn well_nested_documents_parse_and_round_trip(ops in ops(), process in name()) {
            let mut tw = TraceWriter::new(Vec::new()).unwrap();
            tw.meta(1, 0, "process_name", &process).unwrap();
            let mut open: Vec<Vec<String>> = vec![Vec::new(); usize::from(TRACKS)];
            let mut names = Vec::new();
            for (t, kind, label) in &ops {
                let (pid, tid) = track(*t);
                let stack = &mut open[usize::from(t % TRACKS)];
                match kind {
                    0 => {
                        tw.begin(pid, tid, label, 1, &[]).unwrap();
                        stack.push(label.clone());
                    }
                    1 if stack.pop().is_some() => tw.end(pid, tid, 2).unwrap(),
                    1 => continue,
                    2 => tw.instant(pid, tid, label, 3, &[(label, 4)]).unwrap(),
                    _ => tw.complete(pid, tid, label, 5, 6, &[]).unwrap(),
                }
                if *kind != 1 {
                    names.push(label.clone());
                }
            }
            for (t, stack) in open.iter_mut().enumerate() {
                let (pid, tid) = track(t as u8);
                while stack.pop().is_some() {
                    tw.end(pid, tid, 9).unwrap();
                }
            }
            let json = crate::span::json_string(&process);
            let doc = into_string(tw.finish(&[("na\"me", &json)])).unwrap();

            // Strict JSON: no raw control character inside a string, so the
            // only ones left are the newlines between events. The vendored
            // parser rejects them too; this byte check does not depend on it.
            prop_assert!(doc.bytes().all(|b| b >= 0x20 || b == b'\n'), "{doc:?}");
            let parsed: Value = serde_json::from_str(&doc).expect("document parses");
            let other = parsed.get("otherData").and_then(|o| o.get("na\"me"));
            prop_assert_eq!(other, Some(&Value::Str(process.clone())));
            let events = events(&doc);
            prop_assert_eq!(doc.lines().count(), events.len() + 2, "one event per line");
            prop_assert_eq!(
                events[0].get("args").and_then(|a| str_field(a, "name")),
                Some(process.as_str())
            );
            let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<String>> =
                Default::default();
            let mut seen = Vec::new();
            for e in &events[1..] {
                let key = (u64_field(e, "pid"), u64_field(e, "tid"));
                let name = str_field(e, "name").map(str::to_string);
                match str_field(e, "ph") {
                    Some("B") => stacks.entry(key).or_default().push(name.clone().unwrap()),
                    Some("E") => {
                        let popped = stacks.get_mut(&key).and_then(Vec::pop);
                        prop_assert!(popped.is_some(), "E with no open B on {key:?}");
                    }
                    Some("i") => prop_assert!(e.get("args").and_then(|a| a.get(name.as_deref().unwrap())).is_some()),
                    _ => {}
                }
                seen.extend(name);
            }
            prop_assert_eq!(seen, names);
            prop_assert!(stacks.values().all(Vec::is_empty), "unbalanced: {stacks:?}");
        }

        /// Arbitrary B/E sequences: the writer errs, never panics, exactly
        /// when an `E` finds its track empty or `finish` finds one open —
        /// and whatever it does finish is balanced JSON.
        #[test]
        fn unbalanced_sequences_are_errors(ops in prop::collection::vec((0u8..4, any::<bool>()), 0..24)) {
            let mut tw = TraceWriter::new(Vec::new()).unwrap();
            let mut depth = [0u32; TRACKS as usize];
            for (t, is_begin) in ops {
                let (pid, tid) = track(t);
                let d = &mut depth[usize::from(t % TRACKS)];
                if is_begin {
                    tw.begin(pid, tid, "b", 0, &[]).unwrap();
                    *d += 1;
                } else if *d == 0 {
                    let err = tw.end(pid, tid, 0).unwrap_err();
                    prop_assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
                } else {
                    tw.end(pid, tid, 0).unwrap();
                    *d -= 1;
                }
            }
            match tw.finish(&[]) {
                Ok(doc) => {
                    prop_assert!(depth.iter().all(|&d| d == 0));
                    let doc = into_string(Ok(doc)).unwrap();
                    let events = events(&doc);
                    let begins = events.iter().filter(|e| str_field(e, "ph") == Some("B")).count();
                    prop_assert_eq!(begins * 2, events.len());
                }
                Err(err) => {
                    prop_assert!(depth.iter().any(|&d| d > 0));
                    prop_assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
                }
            }
        }
    }
}
