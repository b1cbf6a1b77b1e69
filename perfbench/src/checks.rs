//! Output checks. Each one is either computed apart from the program or
//! follows from a property the method must have; none compares against a
//! stored copy of earlier output.

use std::collections::BTreeMap;

use register_relocation::sim::{DivergeOutcome, SimStats};
use register_relocation::{ExperimentSpec, PointReport, SweepGrid, SweepReport};

/// Checks one architecture leg's statistics against the accounting
/// identities every run must satisfy.
pub fn check_stats(spec: &ExperimentSpec, label: &str, s: &SimStats) -> Result<(), String> {
    let fail = |why: String| {
        Err(format!(
            "F={} R={} L={} {label}: {why}",
            spec.file_size,
            spec.run_length,
            spec.fault.mean_latency()
        ))
    };
    let buckets = [
        s.busy_cycles,
        s.switch_cycles,
        s.spin_cycles,
        s.alloc_cycles,
        s.dealloc_cycles,
        s.load_cycles,
        s.unload_cycles,
        s.queue_cycles,
        s.idle_cycles,
    ];
    let sum: u128 = buckets.iter().map(|&c| u128::from(c)).sum();
    if sum != u128::from(s.total_cycles) {
        return fail(format!(
            "cost buckets sum to {sum}, total_cycles is {}",
            s.total_cycles
        ));
    }
    if s.completed_threads == spec.threads {
        let expected = spec.threads as u128 * u128::from(spec.work_per_thread);
        if u128::from(s.busy_cycles) != expected {
            return fail(format!(
                "all {} threads completed but busy_cycles {} != threads x work {expected}",
                spec.threads, s.busy_cycles
            ));
        }
    } else if s.completed_threads > spec.threads {
        return fail(format!(
            "{} of {} threads completed",
            s.completed_threads, spec.threads
        ));
    } else if s.total_cycles < spec.max_cycles {
        return fail(format!(
            "{}/{} threads completed before the horizon ({} < {} cycles)",
            s.completed_threads, spec.threads, s.total_cycles, spec.max_cycles
        ));
    }
    let eff = s.efficiency();
    if !(eff > 0.0 && eff <= 1.0) {
        return fail(format!("efficiency {eff} outside (0, 1]"));
    }
    if s.alloc_failures > s.allocs {
        return fail(format!(
            "{} alloc failures > {} allocs",
            s.alloc_failures, s.allocs
        ));
    }
    Ok(())
}

/// Checks every point of a sweep report: the grid coordinates it claims,
/// both legs' accounting identities, and the plotted point's agreement
/// with the legs it summarizes.
pub fn check_report(grid: &SweepGrid, report: &SweepReport) -> Result<(), String> {
    let points = grid.points();
    if report.points.len() != points.len() {
        return Err(format!(
            "{} points reported, grid has {}",
            report.points.len(),
            points.len()
        ));
    }
    if report.seed != grid.seed() {
        return Err(format!(
            "report seed {} != grid seed {}",
            report.seed,
            grid.seed()
        ));
    }
    for (p, r) in points.iter().zip(&report.points) {
        if (r.index, r.file_size, r.latency, r.seed)
            != (p.index, p.file_size, p.latency, p.spec.seed)
            || r.run_length.to_bits() != p.run_length.to_bits()
        {
            return Err(format!(
                "point {} reports coordinates of another point",
                p.index
            ));
        }
        check_stats(&p.spec, "fixed", &r.fixed)?;
        check_stats(&p.spec, "flexible", &r.flexible)?;
        let c = &r.figure.comparison;
        if c.fixed_efficiency.to_bits() != r.fixed.efficiency().to_bits()
            || c.flexible_efficiency.to_bits() != r.flexible.efficiency().to_bits()
        {
            return Err(format!(
                "point {}: plotted efficiency disagrees with its legs",
                p.index
            ));
        }
    }
    Ok(())
}

/// Checks that two runs of the same seeded leg agree on every statistic
/// (traced against untraced, replayed, lockstep or resumed against
/// straight).
pub fn same_stats(what: &str, reference: &SimStats, got: &SimStats) -> Result<(), String> {
    if reference == got {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} total / {} busy cycles, expected {} / {}",
            got.total_cycles, got.busy_cycles, reference.total_cycles, reference.busy_cycles
        ))
    }
}

/// Checks that a self-compare found no divergence.
pub fn no_divergence(what: &str, outcome: &DivergeOutcome) -> Result<(), String> {
    match &outcome.divergence {
        None => Ok(()),
        Some(d) => Err(format!(
            "{what}: diverged at cycle {} (event {})",
            d.cycle, d.event_index
        )),
    }
}

/// A point report with its host wall-clock fields cleared: what two
/// executions of the same science must agree on.
fn science(p: &PointReport) -> PointReport {
    PointReport {
        fixed_wall_nanos: 0,
        flexible_wall_nanos: 0,
        wall_nanos: 0,
        ..p.clone()
    }
}

/// Whether two point reports agree on everything but host wall clock.
pub fn same_point(a: &PointReport, b: &PointReport) -> bool {
    science(a) == science(b)
}

/// Checks that `got` equals `reference` on every field except the host
/// `*wall_nanos` fields.
pub fn same_science(reference: &SweepReport, got: &SweepReport) -> Result<(), String> {
    if (
        reference.schema_version,
        reference.seed,
        reference.points.len(),
    ) != (got.schema_version, got.seed, got.points.len())
    {
        return Err("report header or point count differs from the reference".to_string());
    }
    for (a, b) in reference.points.iter().zip(&got.points) {
        if !same_point(a, b) {
            return Err(format!(
                "point {} (F={} R={} L={}) differs from the directly computed reference",
                a.index, a.file_size, a.run_length, a.latency
            ));
        }
    }
    Ok(())
}

/// What a Chrome trace document holds, as counted by [`check_chrome_trace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Entries of `traceEvents`.
    pub events: u64,
    /// `B`/`E` pairs closed.
    pub slices: u64,
    /// Distinct `(pid, tid)` tracks that carried a slice.
    pub tracks: usize,
    /// Distinct pids.
    pub pids: usize,
}

/// Parses a Chrome `trace_event` document with a parser of its own and
/// checks that every track's `B`/`E` events balance: no `E` without an
/// open `B`, no `E` earlier than its `B`, and nothing left open at the end.
pub fn check_chrome_trace(doc: &str) -> Result<ChromeSummary, String> {
    let mut p = Json {
        b: doc.as_bytes(),
        i: 0,
    };
    let mut open: BTreeMap<(u64, u64), Vec<f64>> = BTreeMap::new();
    let mut tracks = std::collections::BTreeSet::new();
    let mut pids = std::collections::BTreeSet::new();
    let mut summary = ChromeSummary::default();
    let mut saw_events = false;
    p.ws();
    p.expect(b'{')?;
    p.ws();
    if !p.eat(b'}') {
        loop {
            p.ws();
            let key = p.string()?;
            p.ws();
            p.expect(b':')?;
            p.ws();
            if key == "traceEvents" {
                saw_events = true;
                p.expect(b'[')?;
                p.ws();
                if !p.eat(b']') {
                    loop {
                        p.ws();
                        let ev = p.event()?;
                        summary.events += 1;
                        if let Some(pid) = ev.pid {
                            pids.insert(pid);
                        }
                        match ev.ph.as_deref() {
                            Some("B") | Some("E") => {
                                let (Some(pid), Some(tid), Some(ts)) = (ev.pid, ev.tid, ev.ts)
                                else {
                                    return Err(format!(
                                        "event {} is a B/E without pid, tid and ts",
                                        summary.events
                                    ));
                                };
                                let stack = open.entry((pid, tid)).or_default();
                                if ev.ph.as_deref() == Some("B") {
                                    stack.push(ts);
                                    tracks.insert((pid, tid));
                                } else {
                                    match stack.pop() {
                                        Some(begin) if begin <= ts => summary.slices += 1,
                                        Some(begin) => {
                                            return Err(format!(
                                            "track {pid}/{tid}: E at {ts} before its B at {begin}"
                                        ))
                                        }
                                        None => {
                                            return Err(format!(
                                                "track {pid}/{tid}: E at {ts} with no open B"
                                            ))
                                        }
                                    }
                                }
                            }
                            Some(_) => {}
                            None => return Err(format!("event {} has no ph", summary.events)),
                        }
                        p.ws();
                        if p.eat(b']') {
                            break;
                        }
                        p.expect(b',')?;
                    }
                }
            } else {
                p.skip_value()?;
            }
            p.ws();
            if p.eat(b'}') {
                break;
            }
            p.expect(b',')?;
        }
    }
    p.ws();
    if p.i != p.b.len() {
        return Err(format!(
            "trailing bytes after the document at offset {}",
            p.i
        ));
    }
    if !saw_events {
        return Err("no traceEvents array".to_string());
    }
    if let Some(((pid, tid), stack)) = open.iter().find(|(_, s)| !s.is_empty()) {
        return Err(format!(
            "track {pid}/{tid}: {} B event(s) never closed",
            stack.len()
        ));
    }
    summary.tracks = tracks.len();
    summary.pids = pids.len();
    Ok(summary)
}

/// The fields of one trace event the balance check needs.
#[derive(Default)]
struct TraceEvent {
    ph: Option<String>,
    pid: Option<u64>,
    tid: Option<u64>,
    ts: Option<f64>,
}

/// A minimal validating JSON reader over bytes.
struct Json<'a> {
    b: &'a [u8],
    i: usize,
}

impl Json<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("invalid JSON at offset {}: {what}", self.i))
    }

    fn ws(&mut self) {
        while let Some(b' ' | b'\n' | b'\r' | b'\t') = self.b.get(self.i) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            self.err(&format!("expected `{}`", c as char))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.b.get(self.i) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).or_else(|_| self.err("string is not UTF-8"));
                }
                Some(b'\\') => {
                    let esc = self.b.get(self.i + 1).copied();
                    self.i += 2;
                    match esc {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'b' | b'f' | b'n' | b'r' | b't') => out.push(b' '),
                        Some(b'u') => {
                            let hex = self.b.get(self.i..self.i + 4).unwrap_or_default();
                            if hex.len() != 4 || !hex.iter().all(u8::is_ascii_hexdigit) {
                                return self.err("bad \\u escape");
                            }
                            self.i += 4;
                            out.push(b'?');
                        }
                        _ => return self.err("bad escape"),
                    }
                }
                Some(&c) if c < 0x20 => return self.err("control byte in string"),
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.i;
        self.eat(b'-');
        let digits = |p: &mut Self| {
            let s = p.i;
            while p.b.get(p.i).is_some_and(u8::is_ascii_digit) {
                p.i += 1;
            }
            p.i > s
        };
        if !digits(self) {
            return self.err("expected a number");
        }
        if self.eat(b'.') && !digits(self) {
            return self.err("expected fraction digits");
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if !digits(self) {
                return self.err("expected exponent digits");
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("number bytes are ASCII");
        text.parse().or_else(|_| self.err("unparsable number"))
    }

    fn literal(&mut self, word: &[u8]) -> Result<(), String> {
        if self.b.get(self.i..self.i + word.len()) == Some(word) {
            self.i += word.len();
            Ok(())
        } else {
            self.err("unknown literal")
        }
    }

    fn skip_value(&mut self) -> Result<(), String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                self.ws();
                if self.eat(b'}') {
                    return Ok(());
                }
                loop {
                    self.ws();
                    self.string()?;
                    self.ws();
                    self.expect(b':')?;
                    self.skip_value()?;
                    self.ws();
                    if self.eat(b'}') {
                        return Ok(());
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'[') => {
                self.i += 1;
                self.ws();
                if self.eat(b']') {
                    return Ok(());
                }
                loop {
                    self.skip_value()?;
                    self.ws();
                    if self.eat(b']') {
                        return Ok(());
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'"') => self.string().map(|_| ()),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(_) => self.number().map(|_| ()),
            None => self.err("unexpected end"),
        }
    }

    fn event(&mut self) -> Result<TraceEvent, String> {
        let mut ev = TraceEvent::default();
        self.expect(b'{')?;
        self.ws();
        if self.eat(b'}') {
            return Ok(ev);
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            match key.as_str() {
                "ph" => ev.ph = Some(self.string()?),
                "pid" | "tid" => {
                    let v = self.number()?;
                    if v < 0.0 || v.fract() != 0.0 {
                        return self.err("pid/tid must be a whole number");
                    }
                    if key == "pid" {
                        ev.pid = Some(v as u64);
                    } else {
                        ev.tid = Some(v as u64);
                    }
                }
                "ts" => ev.ts = Some(self.number()?),
                _ => self.skip_value()?,
            }
            self.ws();
            if self.eat(b'}') {
                return Ok(ev);
            }
            self.expect(b',')?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use register_relocation::experiments::FaultKind;
    use register_relocation::{Arch, SweepRunner};

    fn small_grid() -> SweepGrid {
        let mut grid = SweepGrid::figure5_panel(64, 7);
        grid.run_lengths = vec![8.0];
        grid.latencies = vec![100, 800];
        grid.base.threads = 8;
        grid.base.work_per_thread = 2_000;
        grid
    }

    fn small_report() -> (SweepGrid, SweepReport) {
        let grid = small_grid();
        let run = SweepRunner::new(1)
            .with_progress(false)
            .run(&grid)
            .expect("sweep runs");
        (grid, run.report)
    }

    #[test]
    fn a_computed_report_passes_every_check() {
        let (grid, report) = small_report();
        check_report(&grid, &report).unwrap();
        same_science(&report, &report.clone()).unwrap();
    }

    #[test]
    fn bucket_sum_check_rejects_a_shifted_bucket() {
        let (grid, mut report) = small_report();
        report.points[0].flexible.idle_cycles += 1;
        let err = check_report(&grid, &report).unwrap_err();
        assert!(err.contains("cost buckets"), "{err}");
    }

    #[test]
    fn completion_check_rejects_lost_work_and_early_stops() {
        let (grid, mut report) = small_report();
        let p = &mut report.points[0].fixed;
        assert_eq!(p.completed_threads, 8);
        p.busy_cycles -= 1;
        p.idle_cycles += 1;
        let err = check_report(&grid, &report).unwrap_err();
        assert!(err.contains("busy_cycles"), "{err}");

        let (grid, mut report) = small_report();
        report.points[1].flexible.completed_threads -= 1;
        let err = check_report(&grid, &report).unwrap_err();
        assert!(err.contains("before the horizon"), "{err}");
    }

    #[test]
    fn a_run_that_hit_the_horizon_passes() {
        // The horizon cuts the run short: fewer threads complete, and the
        // check must accept that because the run reached max_cycles.
        let spec = ExperimentSpec {
            file_size: 64,
            run_length: 8.0,
            fault: FaultKind::Cache { latency: 800 },
            threads: 16,
            work_per_thread: 50_000,
            max_cycles: 100_000,
            arch: Arch::Fixed,
            ..ExperimentSpec::default()
        };
        let stats = spec.run().unwrap();
        assert!(stats.completed_threads < spec.threads);
        check_stats(&spec, "fixed", &stats).unwrap();
    }

    #[test]
    fn efficiency_and_alloc_checks_reject_impossible_values() {
        let (grid, mut report) = small_report();
        let s = &mut report.points[0].flexible;
        s.alloc_failures = s.allocs + 1;
        let err = check_report(&grid, &report).unwrap_err();
        assert!(err.contains("alloc failures"), "{err}");

        let (grid, mut report) = small_report();
        let s = &mut report.points[0].flexible;
        // A busy-cycle curve rising faster than time: efficiency > 1.
        s.transient_trim = 0.0;
        s.supply_drained_at = None;
        let total = s.total_cycles;
        s.checkpoints = vec![(0, 0), (total, total * 2)];
        let err = check_report(&grid, &report).unwrap_err();
        assert!(err.contains("efficiency"), "{err}");
    }

    #[test]
    fn plotted_point_must_match_its_legs() {
        let (grid, mut report) = small_report();
        report.points[1].figure.comparison.flexible_efficiency += 1e-9;
        let err = check_report(&grid, &report).unwrap_err();
        assert!(err.contains("plotted efficiency"), "{err}");
    }

    #[test]
    fn science_comparison_ignores_wall_clock_only() {
        let (_, report) = small_report();
        let mut timed = report.clone();
        timed.points[0].wall_nanos += 1;
        timed.points[1].fixed_wall_nanos += 7;
        same_science(&report, &timed).unwrap();
        let mut changed = report.clone();
        changed.points[1].flexible.faults += 1;
        assert!(same_science(&report, &changed).is_err());
        let mut moved = report.clone();
        moved.points[0].flexible.checkpoints.pop();
        assert!(same_science(&report, &moved).is_err());
    }

    #[test]
    fn stats_comparison_rejects_any_changed_field() {
        let (_, report) = small_report();
        let s = &report.points[0].flexible;
        same_stats("leg", s, &s.clone()).unwrap();
        let mut changed = s.clone();
        changed.unloads += 1;
        assert!(same_stats("leg", s, &changed).is_err());
        let mut changed = s.clone();
        changed.completions.pop();
        assert!(same_stats("leg", s, &changed).is_err());
    }

    #[test]
    fn divergence_check_rejects_a_diverging_compare() {
        use register_relocation::diverge::{diverge_point, DivergePair};
        use register_relocation::sim::DivergeConfig;
        let spec = small_grid().points()[0].spec;
        let cfg = DivergeConfig::default();
        let same = DivergePair {
            spec,
            arch_a: Arch::Flexible,
            arch_b: Arch::Flexible,
        };
        no_divergence("self", &diverge_point(&same, &cfg).unwrap()).unwrap();
        let other = DivergePair {
            spec,
            arch_a: Arch::Fixed,
            arch_b: Arch::Flexible,
        };
        let err = no_divergence("pair", &diverge_point(&other, &cfg).unwrap()).unwrap_err();
        assert!(err.contains("diverged at cycle"), "{err}");
    }

    #[test]
    fn chrome_check_accepts_the_exporter_and_rejects_damage() {
        let spec = small_grid().points()[0].spec;
        let (_, fixed) = spec.with_arch(Arch::Fixed).run_with_events().unwrap();
        let (_, flex) = spec.with_arch(Arch::Flexible).run_with_events().unwrap();
        let doc = register_relocation::sim::chrome_trace_json(&[
            (1, "fixed", &fixed),
            (2, "flexible", &flex),
        ]);
        let summary = check_chrome_trace(&doc).unwrap();
        assert_eq!(summary.pids, 2);
        assert!(summary.slices > 0 && summary.tracks > 1);

        let unbalanced = doc.replacen("\"ph\":\"E\"", "\"ph\":\"i\"", 1);
        assert!(check_chrome_trace(&unbalanced)
            .unwrap_err()
            .contains("never closed"));
        let orphan = doc.replacen("\"ph\":\"B\"", "\"ph\":\"i\"", 1);
        assert!(check_chrome_trace(&orphan)
            .unwrap_err()
            .contains("no open B"));
        let truncated = &doc[..doc.len() / 2];
        assert!(check_chrome_trace(truncated)
            .unwrap_err()
            .contains("invalid JSON"));
        assert!(check_chrome_trace(&format!("{doc}x")).is_err());
        assert!(check_chrome_trace("{\"otherData\":{}}")
            .unwrap_err()
            .contains("traceEvents"));
    }
}
