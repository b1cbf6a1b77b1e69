//! `serve_mixed`: an in-process `rr serve` daemon with a result store,
//! driven over loopback by one closed-loop client.
//!
//! Each job submits one figure panel, polls until it is done, downloads
//! and checks the result, reads the job's timeline, and deletes the job.
//! A third of the jobs use fresh seeds (compute, store put); the rest
//! repeat panels the store already holds (store get, result encoding, 5 to
//! 21 MB of JSON per panel over HTTP). Rate limiting is off, so no request
//! is refused.
//!
//! The daemon runs without its job journal: the journal appends every
//! finished job's whole result and is compacted only when a daemon starts,
//! so under this load it grows by about 40 MB a second and passes 1 GB
//! within one run. A traced run times `JobJournal::append` on a journal of
//! the benchmark's own instead.
//!
//! One client, not two: with two, peak memory depended on whether both
//! clients' 21 MB result decodes overlapped the daemon's encode, and its
//! spread over seeds tripled (see `perfbench/README.md`).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use register_relocation::cache;
use register_relocation::serve::{run_serve, ServeOptions, SubmitRequest};
use register_relocation::{JobJournal, JournalRecord, SweepGrid, SweepReport, SweepRunner};
use rr_telemetry::LatencyHistogram;

use crate::checks::{check_chrome_trace, check_report, same_science};
use crate::http::{field_str, field_u64, request};
use crate::layers::Recorder;
use crate::{Context, JobOutcome, Workload};

/// How often the client polls a running job.
const POLL: Duration = Duration::from_millis(5);

/// One job of the list: a figure panel, repeated (served from the store)
/// or fresh (a seed never submitted before).
#[derive(Clone, Copy)]
struct JobSpec {
    kind: &'static str,
    file: u32,
    repeat: bool,
}

/// The job list of one pass. The Figure 5 F=64 panel is the 21 MB result.
const JOBS: [JobSpec; 6] = [
    JobSpec {
        kind: "fig5",
        file: 64,
        repeat: true,
    },
    JobSpec {
        kind: "fig6",
        file: 128,
        repeat: false,
    },
    JobSpec {
        kind: "fig6",
        file: 256,
        repeat: true,
    },
    JobSpec {
        kind: "fig5",
        file: 128,
        repeat: true,
    },
    JobSpec {
        kind: "fig6",
        file: 64,
        repeat: false,
    },
    JobSpec {
        kind: "fig5",
        file: 256,
        repeat: true,
    },
];

fn submission(kind: &str, file: u32, seed: u64) -> SubmitRequest {
    SubmitRequest {
        kind: kind.to_string(),
        file: Some(file),
        context: None,
        seed: Some(seed),
        threads: None,
        work: None,
    }
}

/// A seed no earlier job of this run used: distinct per pass and slot, and
/// never the run's own seed.
fn fresh_seed(seed: u64, pass: u64, slot: usize) -> u64 {
    seed.wrapping_add(1_000_003u64.wrapping_mul(pass * JOBS.len() as u64 + slot as u64 + 1))
}

pub struct ServeMixed {
    addr: SocketAddr,
    daemon: Option<JoinHandle<Result<(), String>>>,
    seed: u64,
    /// Directly computed reports of the repeated panels, by job slot.
    references: Vec<Option<SweepReport>>,
    pass: u64,
    /// Served fresh-seed results, checked against a direct computation
    /// once the measured phase is over.
    fresh: Vec<(SweepGrid, SweepReport)>,
    /// Jobs the client completed, warm-up included.
    completed: u64,
    journal_probe: JobJournal,
}

fn metrics_counter(addr: SocketAddr, group: &str, name: &str) -> Result<u64, String> {
    let v = request(addr, "GET", "/metrics", "")?.json()?;
    v.get(group)
        .and_then(|g| field_u64(g, name))
        .ok_or_else(|| format!("/metrics has no {group}.{name}"))
}

impl ServeMixed {
    pub fn new(ctx: &Context) -> Result<ServeMixed, String> {
        let store_dir = ctx.tmp.join("serve-store");
        let mut references = Vec::new();
        for spec in JOBS {
            references.push(if spec.repeat {
                let grid = submission(spec.kind, spec.file, ctx.seed).to_grid()?;
                let store = cache::open_store(&store_dir).map_err(|e| e.to_string())?;
                let run = SweepRunner::new(1)
                    .with_progress(false)
                    .with_store(Some(store))
                    .run(&grid)?;
                check_report(&grid, &run.report)?;
                Some(run.report)
            } else {
                None
            });
        }
        let opts = ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_capacity: 64,
            sim_jobs: 1,
            rate: None,
            store_dir: Some(store_dir),
            journal: None,
            ..ServeOptions::default()
        };
        let (tx, rx) = mpsc::channel();
        let daemon = std::thread::spawn(move || {
            run_serve(
                &opts,
                Some(&move |addr| {
                    let _ = tx.send(addr);
                }),
            )
        });
        let addr = match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(addr) => addr,
            Err(_) => {
                let outcome = daemon.join();
                return Err(format!("daemon did not bind: {outcome:?}"));
            }
        };
        let journal_path: PathBuf = ctx.tmp.join("probe-journal.jsonl");
        let journal_probe = JobJournal::open(&journal_path)
            .map_err(|e| format!("cannot open {}: {e}", journal_path.display()))?;
        Ok(ServeMixed {
            addr,
            daemon: Some(daemon),
            seed: ctx.seed,
            references,
            pass: 0,
            fresh: Vec::new(),
            completed: 0,
            journal_probe,
        })
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(daemon) = self.daemon.take() else {
            return Ok(());
        };
        let sent = request(self.addr, "PUT", "/shutdown", "");
        let joined = daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        sent?;
        joined
    }

    /// Runs one job end to end, as a user's client would. Returns the
    /// job's latency and its checked report.
    fn job(
        &self,
        slot: usize,
        seed: u64,
        rec: &mut Recorder,
        problems: &mut Vec<String>,
    ) -> Result<(f64, SweepGrid, SweepReport), String> {
        let spec = JOBS[slot];
        let reference = self.references[slot].as_ref();
        let addr = self.addr;
        let grid = submission(spec.kind, spec.file, seed).to_grid()?;
        let started = Instant::now();
        let body = format!(
            "{{\"kind\": \"{}\", \"file\": {}, \"seed\": {seed}}}",
            spec.kind, spec.file
        );
        let (ticket, secs) = rec.time("serve.submit_ms", || request(addr, "POST", "/jobs", &body));
        rec.sample("serve.submit_ms", secs * 1e3);
        let ticket = ticket?;
        if ticket.status != 201 && ticket.status != 200 {
            return Err(format!(
                "submit answered {}: {}",
                ticket.status,
                ticket.text().unwrap_or("")
            ));
        }
        let ticket = ticket.json()?;
        let id = field_u64(&ticket, "id").ok_or("ticket has no id")?;
        let deduped = matches!(ticket.get("deduped"), Some(serde::Value::Bool(true)));
        rec.count("serve.deduped", f64::from(u8::from(deduped)));
        let mut polls = 0u64;
        loop {
            let path = format!("/jobs/{id}");
            let (status, secs) = rec.time("serve.status_ms", || request(addr, "GET", &path, ""));
            rec.sample("serve.status_ms", secs * 1e3);
            let status = status?;
            polls += 1;
            match field_str(&status.json()?, "state") {
                Some("done") => break,
                Some("failed") => return Err(format!("job {id} failed: {}", status.text()?)),
                Some(_) if started.elapsed() > Duration::from_secs(120) => {
                    return Err(format!("job {id} still not done after 120 s"))
                }
                Some(_) => std::thread::sleep(POLL),
                None => return Err(format!("job {id} status has no state")),
            }
        }
        rec.sample("serve.polls_per_job", polls as f64);
        let path = format!("/jobs/{id}/result");
        let (result, secs) = rec.time("serve.result_ms", || request(addr, "GET", &path, ""));
        rec.sample("serve.result_ms", secs * 1e3);
        let result = result?;
        if result.status != 200 {
            return Err(format!("result answered {}", result.status));
        }
        let (report, secs) = rec.time("report.decode_us", || {
            result
                .text()
                .and_then(|t| SweepReport::from_json(t).map_err(|e| e.to_string()))
        });
        let report = report?;
        rec.sample(
            "report.decode_us",
            secs * 1e6 / report.points.len().max(1) as f64,
        );
        rec.sample(
            "report.job_mib",
            result.body.len() as f64 / (1024.0 * 1024.0),
        );
        if let Err(e) = check_report(&grid, &report) {
            problems.push(format!(
                "served {} F={} seed={seed}: {e}",
                spec.kind, spec.file
            ));
        }
        if let Some(reference) = reference {
            if let Err(e) = same_science(reference, &report) {
                problems.push(format!("served {} F={}: {e}", spec.kind, spec.file));
            }
        }
        let latency_s = started.elapsed().as_secs_f64();

        // The daemon's own record of the job: queue wait plus run can never
        // exceed the turnaround the client measured around it.
        let timeline = request(addr, "GET", &format!("/jobs/{id}/timeline"), "")?;
        let (wall_us, queue_wait_us, run_us) = timeline_lifecycle(timeline.text()?)?;
        if wall_us as f64 > latency_s * 1e6 {
            problems.push(format!(
                "job {id}: daemon queue wait + run {wall_us} us exceeds the client's {:.0} us",
                latency_s * 1e6
            ));
        }
        rec.sample("serve.queue_wait_ms", queue_wait_us as f64 / 1e3);
        rec.sample("serve.run_ms", run_us as f64 / 1e3);
        let deleted = request(addr, "DELETE", &format!("/jobs/{id}"), "")?;
        if deleted.status != 200 {
            return Err(format!("delete answered {}", deleted.status));
        }

        if rec.enabled() {
            let (encoded, secs) = rec.time("report.encode_ms", || report.to_json_pretty());
            rec.sample("report.encode_ms", secs * 1e3);
            if encoded.map_err(|e| e.to_string())?.as_bytes() != result.body.as_slice() {
                problems.push(format!(
                    "job {id}: re-encoding the result does not give the served bytes"
                ));
            }
            let (health, secs) =
                rec.time("serve.health_us", || request(addr, "GET", "/health", ""));
            rec.sample("serve.health_us", secs * 1e6);
            if health?.status != 200 {
                return Err("/health failed".to_string());
            }
            let (scrape, secs) = rec.time("telemetry.scrape_ms", || {
                request(addr, "GET", "/metrics?format=prometheus", "")
            });
            rec.sample("telemetry.scrape_ms", secs * 1e3);
            if scrape?.status != 200 {
                return Err("/metrics?format=prometheus failed".to_string());
            }
            let hist = LatencyHistogram::new();
            let ((), secs) = rec.time("telemetry.record_ns", || {
                for i in 0..10_000u64 {
                    hist.record(std::hint::black_box(i * 37));
                }
            });
            rec.sample("telemetry.record_ns", secs * 1e9 / 10_000.0);
            let (appended, secs) = rec.time("journal.append_us", || {
                self.journal_probe.append(&JournalRecord::cancelled(id))
            });
            appended.map_err(|e| format!("journal probe: {e}"))?;
            rec.sample("journal.append_us", secs * 1e6);
        }
        Ok((latency_s, grid, report))
    }
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// `(wall_us, queue_wait_us, run_us)` from a job timeline: lane 0 holds the
/// queue-wait and run spans, which together make up `otherData.wall_us`.
fn timeline_lifecycle(doc: &str) -> Result<(u64, u64, u64), String> {
    check_chrome_trace(doc).map_err(|e| format!("job timeline: {e}"))?;
    let v: serde::Value = serde_json::from_str(doc).map_err(|e| format!("job timeline: {e}"))?;
    let wall = v
        .get("otherData")
        .and_then(|o| field_u64(o, "wall_us"))
        .ok_or("timeline has no wall_us")?;
    let Some(serde::Value::Array(events)) = v.get("traceEvents") else {
        return Err("timeline has no traceEvents".to_string());
    };
    let lane0: Vec<u64> = events
        .iter()
        .filter(|e| field_u64(e, "tid") == Some(0) && matches!(field_str(e, "ph"), Some("B" | "E")))
        .filter_map(|e| field_u64(e, "ts"))
        .collect();
    match lane0.as_slice() {
        &[qb, qe, rb, re] if qb <= qe && rb <= re => Ok((wall, qe - qb, re - rb)),
        other => Err(format!(
            "timeline lane 0 has B/E stamps {other:?}, expected queue wait then run"
        )),
    }
}

impl Workload for ServeMixed {
    fn pass(&mut self, rec: &mut Recorder, problems: &mut Vec<String>) -> Vec<JobOutcome> {
        let pass = self.pass;
        self.pass += 1;
        let before = if rec.enabled() {
            match (
                metrics_counter(self.addr, "sweep", "points_cached"),
                metrics_counter(self.addr, "sweep", "points_computed"),
            ) {
                (Ok(c), Ok(p)) => Some((c, p)),
                (Err(e), _) | (_, Err(e)) => {
                    problems.push(e);
                    None
                }
            }
        } else {
            None
        };
        let mut outcomes = Vec::new();
        for (slot, spec) in JOBS.iter().enumerate() {
            let seed = if spec.repeat {
                self.seed
            } else {
                fresh_seed(self.seed, pass, slot)
            };
            let started = Instant::now();
            match self.job(slot, seed, rec, problems) {
                Ok((latency_s, grid, report)) => {
                    self.completed += 1;
                    outcomes.push(JobOutcome {
                        latency_s,
                        points: report.points.len() as u64,
                        failed: false,
                    });
                    if !spec.repeat {
                        self.fresh.push((grid, report));
                    }
                }
                Err(e) => outcomes.push(JobOutcome::failed(
                    started,
                    format!("{} F={} seed={seed}: {e}", spec.kind, spec.file),
                )),
            }
        }
        if let Some((cached, computed)) = before {
            match (
                metrics_counter(self.addr, "sweep", "points_cached"),
                metrics_counter(self.addr, "sweep", "points_computed"),
            ) {
                (Ok(c), Ok(p)) => {
                    let (hits, misses) = (c - cached, p - computed);
                    rec.set_count(
                        "store.hit_ratio",
                        hits as f64 / (hits + misses).max(1) as f64,
                    );
                }
                (Err(e), _) | (_, Err(e)) => problems.push(e),
            }
        }
        outcomes
    }

    fn finish(&mut self, _rec: &mut Recorder, problems: &mut Vec<String>) {
        match metrics_counter(self.addr, "serve", "jobs_completed") {
            Ok(n) if n == self.completed => {}
            Ok(n) => problems.push(format!(
                "the client completed {} jobs, the daemon counted {n}",
                self.completed
            )),
            Err(e) => problems.push(e),
        }
        if let Err(e) = self.shutdown() {
            problems.push(format!("daemon shutdown: {e}"));
        }
        // Fresh-seed results against a direct computation of the same grid.
        let runner = SweepRunner::new(2).with_progress(false);
        for (grid, served) in &self.fresh {
            match runner.run(grid) {
                Ok(direct) => {
                    if let Err(e) = same_science(&direct.report, served) {
                        problems.push(format!("fresh seed {}: {e}", grid.seed()));
                    }
                }
                Err(e) => problems.push(format!(
                    "fresh seed {}: direct run failed: {e}",
                    grid.seed()
                )),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_telemetry::span::{chrome_timeline_json, TimelineSpan};

    fn timeline(queue_wait_us: u64, run_us: u64, wall_us: u64) -> String {
        let lane0 = |name: &str, start_us, dur_us| TimelineSpan {
            name: name.to_string(),
            start_us,
            dur_us,
            lane: Some(0),
        };
        chrome_timeline_json(
            "job 1",
            &[
                lane0("queue wait", 0, queue_wait_us),
                lane0("run", queue_wait_us, run_us),
            ],
            &[("wall_us", wall_us.to_string())],
        )
    }

    #[test]
    fn lifecycle_reads_queue_wait_and_run_from_lane_zero() {
        assert_eq!(
            timeline_lifecycle(&timeline(40, 9_000, 9_040)).unwrap(),
            (9_040, 40, 9_000)
        );
    }

    #[test]
    fn lifecycle_rejects_a_damaged_timeline() {
        let doc = timeline(40, 9_000, 9_040);
        let unbalanced = doc.replacen("\"ph\":\"E\"", "\"ph\":\"i\"", 1);
        assert!(timeline_lifecycle(&unbalanced).is_err());
        let no_wall = doc.replace("wall_us", "wall");
        assert!(timeline_lifecycle(&no_wall)
            .unwrap_err()
            .contains("wall_us"));
    }

    #[test]
    fn fresh_seeds_never_repeat_within_a_run() {
        let mut seen = std::collections::BTreeSet::from([7u64]);
        for pass in 0..1_000 {
            for slot in 0..JOBS.len() {
                assert!(seen.insert(fresh_seed(7, pass, slot)));
            }
        }
    }
}
