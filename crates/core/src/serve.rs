//! The `rr serve` daemon: sweep jobs over HTTP.
//!
//! This module binds the generic [`rr_serve`] service framework to the
//! experiment harness. A client POSTs a [`SubmitRequest`] (a
//! [`crate::spec::RunSpec`]) naming a figure family and the usual sweep
//! knobs; the daemon expands it into the exact [`SweepGrid`] the CLI
//! builds, fingerprints the grid, and runs it on
//! a bounded worker pool backed by [`SweepRunner`] — result store, point
//! caching, and all. The finished job's payload is *byte-identical* to what
//! `rr fig5 --json` writes for the same spec and seed, because both paths
//! serialize the same [`SweepReport`] through the same store.
//!
//! Dedup happens at two levels. The job queue dedups *submissions*: a spec
//! whose fingerprint matches an existing job (queued, running, or finished)
//! returns that job's ticket instead of recomputing. The result store
//! dedups *points*: a new job whose grid overlaps anything previously
//! computed — by this daemon or by any `rr fig5 --store` run against the
//! same directory — serves those points from the store without touching a
//! simulator.
//!
//! # API
//!
//! | Method | Path                | Reply                                      |
//! |--------|---------------------|--------------------------------------------|
//! | POST   | `/jobs`             | `201` + [`rr_serve::JobTicket`] (`200` when deduped) |
//! | GET    | `/jobs`             | [`rr_serve::JobListBody`]                  |
//! | GET    | `/jobs/{id}`        | [`rr_serve::JobStatusBody`]                |
//! | GET    | `/jobs/{id}/result` | the sweep report JSON; `409` until done    |
//! | DELETE | `/jobs/{id}`        | cancel a queued job / drop a finished ticket; `409` while running |
//! | GET    | `/health`           | [`HealthBody`]                             |
//! | GET    | `/metrics`          | the [`rr_telemetry::METRICS`] snapshot     |
//! | PUT    | `/shutdown`         | `200`, then graceful drain and exit        |
//!
//! Rate limiting (when enabled) sheds with `429` + `Retry-After` before a
//! request body is even read; `/health`, `/metrics`, and `/shutdown` are
//! exempt. A client that never delivers its request within the read
//! deadline gets `408`.
//!
//! # Crash safety
//!
//! With a [`crate::journal`] attached, every accepted job is persisted
//! before its ticket is returned, and every terminal transition follows it
//! to disk. A daemon restarted on the same journal — graceful exit or
//! `kill -9` alike — re-adopts unfinished jobs (they re-queue and re-run,
//! cheap thanks to the result store and any `--checkpoint-every` engine
//! snapshots) and serves finished results without recomputing. Finished
//! tickets can be aged out with a TTL; cancelled and expired tickets
//! release their fingerprints for resubmission.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::cache::{self, CacheStatsReport};
use crate::journal::{JobJournal, JournalRecord};
use crate::sweep::{PointOutcome, SweepGrid, SweepRunner};
use rr_serve::queue::ProgressCells;
use rr_serve::{
    api, CancelError, CancelOutcome, Handler, JobListBody, JobQueue, JobState, JobStatusBody,
    JobTicket, Method, RateConfig, Request, Response, RestoredJob, Server, ServerConfig,
    ServiceHealth, StatusCode, StopHandle, SubmitError,
};
use rr_store::Fingerprint;
use rr_telemetry::span::{self, TimelineSpan};
use rr_telemetry::{info, warn, LatencyHistogram, TraceId, METRICS};

/// Re-exported so daemon embedders can configure rate limiting without
/// depending on `rr-serve` directly.
pub use rr_serve::RateConfig as ServeRateConfig;

/// How the daemon runs: the `rr serve` flags, resolved.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to bind (`127.0.0.1:8553` by default; `:0` picks a port).
    pub addr: String,
    /// Concurrent sweep jobs (worker threads of the job pool).
    pub workers: usize,
    /// Bound on queued (not yet running) jobs.
    pub queue_capacity: usize,
    /// Worker threads *per sweep* (the [`SweepRunner`] pool; `0` = one per
    /// hardware thread).
    pub sim_jobs: usize,
    /// Per-client rate limiting; `None` admits everything.
    pub rate: Option<RateConfig>,
    /// Result-store directory; `None` runs uncached.
    pub store_dir: Option<PathBuf>,
    /// Crash-safe job journal path; `None` keeps the job table
    /// memory-only (jobs are lost on restart, as before).
    pub journal: Option<PathBuf>,
    /// Drop finished/failed/cancelled tickets this long after they reach a
    /// terminal state; `None` keeps them until deleted or shutdown.
    pub job_ttl: Option<Duration>,
    /// Engine-snapshot stride (simulated cycles) for in-flight sweep legs;
    /// requires a store. `None` disables checkpointing.
    pub checkpoint_every: Option<u64>,
    /// Periodically flush the telemetry registry snapshot (deterministic
    /// JSON) to this path while the daemon runs; `None` disables flushing.
    pub metrics_out: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:8553".to_string(),
            workers: 1,
            queue_capacity: 64,
            sim_jobs: 0,
            rate: Some(RateConfig { budget: 20, refill_per_sec: 10 }),
            store_dir: None,
            journal: None,
            job_ttl: None,
            checkpoint_every: None,
            metrics_out: None,
        }
    }
}

/// A sweep-job submission, the body of `POST /jobs`: the same
/// [`RunSpec`] the sweep subcommands parse their flags into. A field the
/// spec does not have is rejected with `400`.
pub use crate::spec::RunSpec as SubmitRequest;

/// The content address a submission dedups on: the expanded grid's
/// canonical JSON under the store salt, domain-tagged `"job"` so it can
/// never collide with per-point or trace records in the same store.
///
/// # Errors
///
/// Propagates grid serialization failures.
pub fn job_fingerprint(grid: &SweepGrid, salt: &str) -> Result<Fingerprint, String> {
    let canonical = serde_json::to_string(grid)
        .map_err(|e| format!("cannot serialize grid for fingerprinting: {e}"))?;
    Ok(Fingerprint::of_domain(salt, "job", canonical.as_bytes()))
}

/// Body of `GET /health`: service state plus (when a store is attached) the
/// exact [`CacheStatsReport`] shape `rr cache stats --json` prints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthBody {
    /// Queue, worker, and uptime facts.
    pub service: ServiceHealth,
    /// Store statistics, `null` when running uncached.
    pub store: Option<CacheStatsReport>,
    /// Journal statistics, `null` when running without a journal.
    pub journal: Option<JournalHealth>,
}

/// The journal half of `GET /health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHealth {
    /// Records in the journal file: what the startup compaction left plus
    /// every append since.
    pub entries: u64,
    /// Records the startup compaction rewrote the journal down to (`0`
    /// when no compaction was needed).
    pub compacted_records: u64,
}

/// One queued sweep: the expanded grid (the fingerprint lives on the queue
/// entry).
struct SweepJob {
    grid: SweepGrid,
}

/// The HTTP request router. Shared immutably across connection threads.
struct ServeHandler {
    queue: Arc<JobQueue<SweepJob>>,
    store_dir: Option<PathBuf>,
    salt: String,
    stop: StopHandle,
    workers: usize,
    started: Instant,
    journal: Option<Arc<JobJournal>>,
    /// Records the startup compaction rewrote the journal down to.
    compacted_records: u64,
}

/// Appends one journal record, warning instead of failing: a sick journal
/// degrades crash-durability, never availability.
fn journal_append(journal: Option<&Arc<JobJournal>>, record: &JournalRecord) {
    if let Some(journal) = journal {
        if let Err(e) = journal.append(record) {
            warn!(
                "serve",
                "cannot journal {} for job {} to `{}`: {e}; continuing without durability",
                record.event,
                record.id,
                journal.path().display()
            );
        }
    }
}

impl ServeHandler {
    fn submit(&self, req: &Request) -> Response {
        let body = match req.body_str() {
            Ok(text) => text,
            Err(_) => return Response::error(StatusCode::BadRequest, "body is not UTF-8"),
        };
        let parsed: SubmitRequest = match serde_json::from_str(body) {
            Ok(p) => p,
            Err(e) => {
                return Response::error(StatusCode::BadRequest, &format!("bad submission: {e}"))
            }
        };
        let grid = match parsed.to_grid() {
            Ok(g) => g,
            Err(e) => return Response::error(StatusCode::BadRequest, &e.to_string()),
        };
        if grid.is_empty() {
            return Response::error(StatusCode::BadRequest, "submission expands to an empty grid");
        }
        let fingerprint = match job_fingerprint(&grid, &self.salt) {
            Ok(f) => f.to_hex(),
            Err(e) => return Response::error(StatusCode::InternalServerError, &e),
        };
        let payload = serde_json::to_string(&grid).ok();
        let label = parsed.label();
        match self.queue.submit(label.clone(), fingerprint.clone(), SweepJob { grid }) {
            Ok(outcome) => {
                if !outcome.deduped() {
                    journal_append(
                        self.journal.as_ref(),
                        &JournalRecord::submitted(
                            outcome.id(),
                            &label,
                            &fingerprint,
                            payload.unwrap_or_default(),
                        ),
                    );
                }
                let snapshot =
                    self.queue.job(outcome.id()).expect("submitted job exists");
                let status = if outcome.deduped() { StatusCode::Ok } else { StatusCode::Created };
                Response::json(
                    status,
                    api::to_body(&JobTicket {
                        id: outcome.id(),
                        state: snapshot.state.as_str().to_string(),
                        deduped: outcome.deduped(),
                        fingerprint,
                    }),
                )
            }
            Err(SubmitError::QueueFull { capacity }) => Response::error(
                StatusCode::ServiceUnavailable,
                &format!("job queue is full ({capacity} queued); retry later"),
            )
            .with_header("Retry-After", "5"),
            Err(SubmitError::ShuttingDown) => {
                Response::error(StatusCode::ServiceUnavailable, "service is shutting down")
            }
        }
    }

    fn job_status(&self, id_raw: &str) -> Response {
        let Ok(id) = id_raw.parse::<u64>() else {
            return Response::error(StatusCode::BadRequest, &format!("bad job id `{id_raw}`"));
        };
        match self.queue.job(id) {
            Some(snap) => {
                Response::json(StatusCode::Ok, api::to_body(&JobStatusBody::from_snapshot(&snap)))
            }
            None => Response::error(StatusCode::NotFound, &format!("no job {id}")),
        }
    }

    fn job_result(&self, id_raw: &str) -> Response {
        let Ok(id) = id_raw.parse::<u64>() else {
            return Response::error(StatusCode::BadRequest, &format!("bad job id `{id_raw}`"));
        };
        let Some(snap) = self.queue.job(id) else {
            return Response::error(StatusCode::NotFound, &format!("no job {id}"));
        };
        match snap.state {
            rr_serve::JobState::Done => {
                let payload = self.queue.result(id).expect("done job has a result");
                Response::json(StatusCode::Ok, payload.as_bytes().to_vec())
            }
            rr_serve::JobState::Failed => Response::error(
                StatusCode::Conflict,
                &format!(
                    "job {id} failed: {}",
                    snap.error.as_deref().unwrap_or("unknown error")
                ),
            ),
            state => Response::error(
                StatusCode::Conflict,
                &format!("job {id} is {}; poll /jobs/{id} until done", state.as_str()),
            ),
        }
    }

    fn cancel_job(&self, id_raw: &str) -> Response {
        let Ok(id) = id_raw.parse::<u64>() else {
            return Response::error(StatusCode::BadRequest, &format!("bad job id `{id_raw}`"));
        };
        match self.queue.cancel(id) {
            Ok(CancelOutcome::Cancelled) => {
                info!("serve", "job {id} cancelled while queued");
                journal_append(self.journal.as_ref(), &JournalRecord::cancelled(id));
                Response::json(
                    StatusCode::Ok,
                    api::to_body(&rr_serve::JobCancelBody {
                        id,
                        outcome: "cancelled".to_string(),
                    }),
                )
            }
            Ok(CancelOutcome::Removed) => {
                journal_append(self.journal.as_ref(), &JournalRecord::expired(id));
                Response::json(
                    StatusCode::Ok,
                    api::to_body(&rr_serve::JobCancelBody {
                        id,
                        outcome: "removed".to_string(),
                    }),
                )
            }
            Err(CancelError::Running) => Response::error(
                StatusCode::Conflict,
                &format!("job {id} is running and cannot be cancelled; poll until terminal"),
            ),
            Err(CancelError::NotFound) => {
                Response::error(StatusCode::NotFound, &format!("no job {id}"))
            }
        }
    }

    fn health(&self) -> Response {
        let counts = self.queue.counts();
        let store = self.store_dir.as_ref().and_then(|dir| {
            let report = cache::open_store(dir).and_then(|s| cache::stats_report(&s));
            match report {
                Ok(r) => Some(r),
                Err(e) => {
                    warn!("serve", "health: cannot stat store: {e}");
                    None
                }
            }
        });
        Response::json(
            StatusCode::Ok,
            api::to_body(&HealthBody {
                service: ServiceHealth {
                    status: "ok".to_string(),
                    uptime_secs: self.started.elapsed().as_secs(),
                    queue_depth: counts.queued,
                    queue_capacity: self.queue.capacity() as u64,
                    workers: self.workers as u64,
                    jobs: counts,
                },
                store,
                journal: self.journal.as_ref().map(|j| JournalHealth {
                    entries: j.entries(),
                    compacted_records: self.compacted_records,
                }),
            }),
        )
    }

    fn job_timeline(&self, id_raw: &str) -> Response {
        let Ok(id) = id_raw.parse::<u64>() else {
            return Response::error(StatusCode::BadRequest, &format!("bad job id `{id_raw}`"));
        };
        let Some(snap) = self.queue.job(id) else {
            return Response::error(StatusCode::NotFound, &format!("no job {id}"));
        };
        match self.queue.timeline(id) {
            Some(timeline) => Response::json(StatusCode::Ok, timeline.as_bytes().to_vec()),
            None => Response::error(
                StatusCode::Conflict,
                &format!(
                    "job {id} is {}; its timeline appears once it has run",
                    snap.state.as_str()
                ),
            ),
        }
    }

    fn metrics(&self, req: &Request) -> Response {
        match req.query_param("format") {
            Some("prometheus") => Response::text(
                StatusCode::Ok,
                "text/plain; version=0.0.4",
                span::prometheus_text(&METRICS).into_bytes(),
            ),
            Some(other) => Response::error(
                StatusCode::BadRequest,
                &format!("unknown metrics format `{other}`; expected `prometheus`"),
            ),
            None => Response::json(StatusCode::Ok, METRICS.snapshot().to_json_pretty()),
        }
    }

    /// The latency histogram this request's endpoint feeds. Resolution is
    /// by route shape, not outcome, so a 404'd job id still counts toward
    /// its endpoint family.
    fn endpoint_histogram(req: &Request) -> &'static LatencyHistogram {
        let spans = &METRICS.spans;
        match (req.method, req.path.as_str()) {
            (Method::Get, "/health") => &spans.endpoint_health,
            (Method::Get, "/metrics") => &spans.endpoint_metrics,
            (Method::Put, "/shutdown") => &spans.endpoint_shutdown,
            (Method::Post, "/jobs") => &spans.endpoint_jobs_submit,
            (Method::Get, "/jobs") => &spans.endpoint_jobs_read,
            (Method::Get, p) if p.starts_with("/jobs/") => &spans.endpoint_jobs_read,
            (Method::Delete, p) if p.starts_with("/jobs/") => &spans.endpoint_jobs_cancel,
            _ => &spans.endpoint_other,
        }
    }

    fn shutdown(&self) -> Response {
        info!("serve", "shutdown requested; draining {} job(s)", {
            let c = self.queue.counts();
            c.queued + c.running
        });
        self.queue.shutdown();
        self.stop.trigger();
        Response::json(StatusCode::Ok, b"{\n  \"status\": \"shutting down\"\n}\n".to_vec())
    }
}

impl Handler for ServeHandler {
    fn handle(&self, req: &Request) -> Response {
        let started = Instant::now();
        let response = self.route(req);
        ServeHandler::endpoint_histogram(req).observe_since(started);
        response
    }
}

impl ServeHandler {
    fn route(&self, req: &Request) -> Response {
        match (req.method, req.path.as_str()) {
            (Method::Post, "/jobs") => self.submit(req),
            (Method::Get, "/jobs") => Response::json(
                StatusCode::Ok,
                api::to_body(&JobListBody {
                    jobs: self.queue.jobs().iter().map(JobStatusBody::from_snapshot).collect(),
                }),
            ),
            (Method::Get, "/health") => self.health(),
            (Method::Get, "/metrics") => self.metrics(req),
            (Method::Put, "/shutdown") => self.shutdown(),
            (Method::Get, path) => match path.strip_prefix("/jobs/") {
                Some(rest) => match rest.strip_suffix("/result") {
                    Some(id) => self.job_result(id),
                    None => match rest.strip_suffix("/timeline") {
                        Some(id) => self.job_timeline(id),
                        None => self.job_status(rest),
                    },
                },
                None => Response::error(StatusCode::NotFound, &format!("no route for {path}")),
            },
            (Method::Delete, path) => match path.strip_prefix("/jobs/") {
                Some(id) => self.cancel_job(id),
                None => Response::error(
                    StatusCode::MethodNotAllowed,
                    &format!("DELETE {path} is not part of this API"),
                ),
            },
            (method, path) => Response::error(
                StatusCode::MethodNotAllowed,
                &format!("{} {} is not part of this API", method.as_str(), path),
            ),
        }
    }
}

/// The executor the job-queue workers run: one full sweep per job, store
/// attached, per-point progress fed back into the job's counters. With
/// `checkpoint_every` set (and a store to keep them in), in-flight engine
/// snapshots land in the store at that cycle stride, so a killed daemon's
/// re-adopted jobs resume points mid-simulation instead of from cycle 0.
fn execute_sweep(
    id: u64,
    job: &SweepJob,
    progress: Arc<ProgressCells>,
    store_dir: Option<&PathBuf>,
    sim_jobs: usize,
    checkpoint_every: Option<u64>,
    queue: &JobQueue<SweepJob>,
) -> Result<String, String> {
    progress.set_total(job.grid.len() as u64);
    // The cells were created when the job was accepted, so this is the
    // job's queue wait — lane 0 of its timeline.
    let queue_wait_nanos = progress.accepted_ago_nanos();
    info!("serve", "job {id}: running {} point(s)", job.grid.len());
    let store = store_dir.and_then(|dir| match cache::open_store(dir) {
        Ok(store) => Some(store),
        Err(e) => {
            warn!("serve", "cannot open store at `{}`: {e}; running uncached", dir.display());
            None
        }
    });
    let checkpoint_every = if store.is_some() { checkpoint_every } else { None };
    let cells = Arc::clone(&progress);
    let run_started = Instant::now();
    // Per-point completion events, stamped with their offset from run
    // start; the timeline builder turns them into Perfetto spans.
    let events: Arc<Mutex<Vec<(PointOutcome, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let observer_events = Arc::clone(&events);
    let runner = SweepRunner::new(sim_jobs)
        .with_progress(false)
        .with_store(store)
        .with_checkpoint_every(checkpoint_every)
        .with_observer(Arc::new(move |o: PointOutcome| {
            cells.record_point(o.cached);
            let at = u64::try_from(run_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            observer_events.lock().expect("events lock").push((o, at));
        }));
    let run = runner.run(&job.grid);
    let run_nanos = u64::try_from(run_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let label = queue.job(id).map(|s| s.label).unwrap_or_default();
    let timeline = job_timeline_json(
        id,
        &label,
        span::current(),
        queue_wait_nanos,
        run_nanos,
        &events.lock().expect("events lock"),
    );
    queue.set_timeline(id, timeline);
    let run = run?;
    info!(
        "serve",
        "job {id}: finished in {:.1}ms ({} cache hit(s))",
        run_nanos as f64 / 1e6,
        run.cache.hits
    );
    // Exactly the bytes `rr fig5 --json <path>` writes for this grid.
    run.report.to_json_pretty().map_err(|e| e.to_string())
}

/// Renders one job's execution as a Chrome/Perfetto trace: lane 0 holds
/// the lifecycle ("queue wait" then "run", which together span the job's
/// whole wall clock), and the remaining lanes hold one span per completed
/// point plus its store traffic (the lookup that served a cached point,
/// the persist that stored a computed one).
fn job_timeline_json(
    id: u64,
    label: &str,
    trace: Option<TraceId>,
    queue_wait_nanos: u64,
    run_nanos: u64,
    events: &[(PointOutcome, u64)],
) -> String {
    let qw_us = queue_wait_nanos / 1_000;
    let mut spans = vec![
        TimelineSpan { name: "queue wait".to_string(), start_us: 0, dur_us: qw_us, lane: Some(0) },
        TimelineSpan {
            name: "run".to_string(),
            start_us: qw_us,
            dur_us: run_nanos / 1_000,
            lane: Some(0),
        },
    ];
    for (o, at) in events {
        let end_us = qw_us + at / 1_000;
        let dur_us = o.wall_nanos / 1_000;
        let start_us = end_us.saturating_sub(dur_us);
        let name = if o.cached {
            format!("point {} (cached)", o.index)
        } else {
            format!("point {}", o.index)
        };
        spans.push(TimelineSpan { name, start_us, dur_us, lane: None });
        if o.store_nanos > 0 {
            let store_dur = o.store_nanos / 1_000;
            // A cached point's store traffic is the lookup at its start; a
            // computed point's is the persist at its end.
            let (store_name, store_start) = if o.cached {
                (format!("store get {}", o.index), start_us)
            } else {
                (format!("store put {}", o.index), end_us.saturating_sub(store_dur))
            };
            spans.push(TimelineSpan {
                name: store_name,
                start_us: store_start,
                dur_us: store_dur,
                lane: None,
            });
        }
    }
    let wall_us = (queue_wait_nanos + run_nanos) / 1_000;
    let trace_json =
        trace.map(|t| span::json_string(&t.to_string())).unwrap_or_else(|| "null".to_string());
    span::chrome_timeline_json(
        &format!("rr-serve job {id}"),
        &spans,
        &[
            ("job_id", id.to_string()),
            ("label", span::json_string(label)),
            ("trace_id", trace_json),
            ("wall_us", wall_us.to_string()),
        ],
    )
}

/// Folds replayed journal records into the jobs a restarted queue should
/// carry, plus the largest job id the journal ever mentioned (ids must
/// never be reused, even when their jobs were expired away).
fn reduce_journal(records: Vec<JournalRecord>) -> (Vec<RestoredJob<SweepJob>>, u64) {
    use std::collections::BTreeMap;
    let mut jobs: BTreeMap<u64, RestoredJob<SweepJob>> = BTreeMap::new();
    let mut max_id = 0;
    for rec in records {
        max_id = max_id.max(rec.id);
        match rec.event.as_str() {
            "submitted" => {
                let payload = rec
                    .payload
                    .as_deref()
                    .and_then(|raw| serde_json::from_str::<SweepGrid>(raw).ok())
                    .map(|grid| SweepJob { grid });
                jobs.insert(
                    rec.id,
                    RestoredJob {
                        id: rec.id,
                        label: rec.label.unwrap_or_default(),
                        fingerprint: rec.fingerprint.unwrap_or_default(),
                        state: JobState::Queued,
                        result: None,
                        error: None,
                        payload,
                    },
                );
            }
            "finished" => {
                if let Some(job) = jobs.get_mut(&rec.id) {
                    job.payload = None;
                    if rec.state.as_deref() == Some("done") {
                        job.state = JobState::Done;
                        job.result = rec.result;
                    } else {
                        job.state = JobState::Failed;
                        job.error =
                            rec.error.or_else(|| Some("failed (reason lost)".to_string()));
                    }
                }
            }
            "cancelled" => {
                if let Some(job) = jobs.get_mut(&rec.id) {
                    job.state = JobState::Cancelled;
                    job.payload = None;
                }
            }
            "expired" => {
                jobs.remove(&rec.id);
            }
            other => {
                warn!("serve", "journal: unknown event `{other}` for job {}; ignored", rec.id);
            }
        }
    }
    (jobs.into_values().collect(), max_id)
}

/// The compacted journal equivalent to a restored job set: one `submitted`
/// per job, plus its terminal event where it has one.
fn compaction_records(jobs: &[RestoredJob<SweepJob>]) -> Vec<JournalRecord> {
    let mut records = Vec::new();
    for job in jobs {
        let payload = job
            .payload
            .as_ref()
            .and_then(|p| serde_json::to_string(&p.grid).ok())
            .unwrap_or_default();
        records.push(JournalRecord::submitted(job.id, &job.label, &job.fingerprint, payload));
        match job.state {
            JobState::Done => records.push(JournalRecord::finished_ok(
                job.id,
                job.result.clone().unwrap_or_default(),
            )),
            JobState::Failed => records.push(JournalRecord::finished_err(
                job.id,
                job.error.clone().unwrap_or_default(),
            )),
            JobState::Cancelled => records.push(JournalRecord::cancelled(job.id)),
            JobState::Queued | JobState::Running => {}
        }
    }
    records
}

/// Binds, serves, and — once `PUT /shutdown` (or `stop`) fires — drains the
/// job queue before returning. This is `rr serve`'s whole runtime.
///
/// `on_bound`, when set, receives the actual bound address (tests bind
/// `:0`); it runs before the first request can be accepted.
///
/// # Errors
///
/// Fails on bind errors; everything after binding degrades per-request.
pub fn run_serve(
    opts: &ServeOptions,
    on_bound: Option<&dyn Fn(std::net::SocketAddr)>,
) -> Result<(), String> {
    let server = Server::bind(&ServerConfig {
        addr: opts.addr.clone(),
        rate: opts.rate,
        read_timeout: Duration::from_secs(10),
    })
    .map_err(|e| format!("cannot bind `{}`: {e}", opts.addr))?;
    let addr = server.local_addr();
    if let Some(hook) = on_bound {
        hook(addr);
    }
    info!(
        "serve",
        "listening on http://{addr} ({} job worker(s), queue capacity {}, store {})",
        opts.workers,
        opts.queue_capacity,
        opts.store_dir
            .as_ref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "disabled".to_string()),
    );
    if opts.checkpoint_every.is_some() && opts.store_dir.is_none() {
        warn!("serve", "--checkpoint-every needs a store to keep snapshots in; running without checkpoints");
    }
    let queue: Arc<JobQueue<SweepJob>> = JobQueue::new(opts.queue_capacity);

    // Replay the journal first (re-adopting work a crashed predecessor had
    // accepted), compact it, and only then open it for appending — the
    // compaction rename must not race an already-open append handle.
    let mut compacted_records = 0u64;
    if let Some(path) = &opts.journal {
        let replay = JobJournal::replay(path);
        if replay.skipped > 0 {
            warn!(
                "serve",
                "journal `{}`: skipped {} damaged record(s) during replay",
                path.display(),
                replay.skipped
            );
        }
        let (restored, max_id) = reduce_journal(replay.records);
        if !restored.is_empty() || replay.skipped > 0 {
            let records = compaction_records(&restored);
            compacted_records = records.len() as u64;
            if let Err(e) = JobJournal::rewrite(path, &records) {
                warn!("serve", "cannot compact journal `{}`: {e}; continuing", path.display());
            }
        }
        if !restored.is_empty() {
            let adopted = restored.len();
            let requeued = queue.restore(restored);
            info!(
                "serve",
                "journal `{}`: re-adopted {adopted} job(s), {requeued} re-queued for execution",
                path.display()
            );
        }
        queue.reserve_ids(max_id);
    }
    let journal: Option<Arc<JobJournal>> = opts.journal.as_ref().and_then(|path| {
        match JobJournal::open(path) {
            Ok(journal) => Some(Arc::new(journal)),
            Err(e) => {
                warn!(
                    "serve",
                    "cannot open journal `{}`: {e}; running without crash safety",
                    path.display()
                );
                None
            }
        }
    });

    let store_dir = opts.store_dir.clone();
    let sim_jobs = opts.sim_jobs;
    let checkpoint_every = opts.checkpoint_every;
    let worker_journal = journal.clone();
    // The executor holds its own handle to the queue to attach timelines;
    // no cycle, since the queue never owns the executor (only the worker
    // threads do, and they exit at shutdown).
    let timeline_queue = Arc::clone(&queue);
    let worker_handles = queue.spawn_workers(opts.workers, move |id, job, progress| {
        let outcome = execute_sweep(
            id,
            job,
            progress,
            store_dir.as_ref(),
            sim_jobs,
            checkpoint_every,
            &timeline_queue,
        );
        let record = match &outcome {
            Ok(result) => JournalRecord::finished_ok(id, result.clone()),
            Err(error) => JournalRecord::finished_err(id, error.clone()),
        };
        journal_append(worker_journal.as_ref(), &record);
        outcome
    });

    // Finished tickets expire after the TTL so the job table stays bounded
    // on a long-lived daemon.
    let janitor = opts.job_ttl.map(|ttl| {
        let queue = Arc::clone(&queue);
        let stop = server.stop_handle();
        let journal = journal.clone();
        std::thread::spawn(move || {
            while !stop.is_triggered() {
                for id in queue.expire_finished(ttl) {
                    info!("serve", "job {id} expired ({}s after finishing)", ttl.as_secs());
                    journal_append(journal.as_ref(), &JournalRecord::expired(id));
                }
                std::thread::sleep(Duration::from_millis(200));
            }
        })
    });

    // Periodic registry flush: the on-disk snapshot trails the live
    // registry by at most a second, and a final flush lands after the
    // accept loop closes so the file reflects the whole run.
    let metrics_flusher = opts.metrics_out.as_ref().map(|path| {
        let path = path.clone();
        let stop = server.stop_handle();
        std::thread::spawn(move || {
            loop {
                if let Err(e) = std::fs::write(&path, METRICS.snapshot().to_json_pretty()) {
                    warn!("serve", "cannot flush metrics to `{}`: {e}", path.display());
                }
                if stop.is_triggered() {
                    break;
                }
                for _ in 0..5 {
                    if stop.is_triggered() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(200));
                }
            }
        })
    });

    let handler = ServeHandler {
        queue: Arc::clone(&queue),
        store_dir: opts.store_dir.clone(),
        salt: cache::store_salt(),
        stop: server.stop_handle(),
        workers: opts.workers.max(1),
        started: Instant::now(),
        journal,
        compacted_records,
    };
    server.serve(&handler);
    // The accept loop is closed; finish every accepted job before exiting.
    queue.shutdown();
    queue.join();
    for handle in worker_handles {
        let _ = handle.join();
    }
    if let Some(handle) = janitor {
        let _ = handle.join();
    }
    if let Some(handle) = metrics_flusher {
        let _ = handle.join();
        // One last flush now the drain is complete, so the file carries
        // the run's final counters.
        if let Some(path) = &opts.metrics_out {
            if let Err(e) = std::fs::write(path, METRICS.snapshot().to_json_pretty()) {
                warn!("serve", "cannot flush final metrics to `{}`: {e}", path.display());
            }
        }
    }
    let counts = queue.counts();
    info!(
        "serve",
        "drained: {} done, {} failed; goodbye",
        counts.done,
        counts.failed
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(json: &str) -> SubmitRequest {
        serde_json::from_str(json).expect("valid submission")
    }

    #[test]
    fn submissions_parse_with_optional_fields_absent() {
        let req = parse(r#"{"kind": "fig5"}"#);
        assert_eq!(req.kind, "fig5");
        assert_eq!((req.file, req.seed, req.threads, req.work, req.context),
                   (None, None, None, None, None));
        let grid = req.to_grid().unwrap();
        assert_eq!(grid, SweepGrid::figure5(1993), "every default applies");
    }

    #[test]
    fn submissions_parse_with_all_fields() {
        let req = parse(
            r#"{"kind": "fig5", "file": 64, "seed": 7, "threads": 8, "work": 2000, "context": null}"#,
        );
        assert_eq!(req.file, Some(64));
        assert_eq!(req.context, None, "explicit null is absent");
        let grid = req.to_grid().unwrap();
        let mut expected = SweepGrid::figure5_panel(64, 7);
        expected.base.threads = 8;
        expected.base.work_per_thread = 2000;
        assert_eq!(grid, expected);
    }

    #[test]
    fn bad_submissions_are_rejected() {
        assert!(serde_json::from_str::<SubmitRequest>(r#"{"file": 64}"#).is_err(), "kind required");
        assert!(serde_json::from_str::<SubmitRequest>(r#"[1,2]"#).is_err());
        assert!(serde_json::from_str::<SubmitRequest>(r#"{"kind": "fig5", "seed": "x"}"#).is_err());
        assert!(parse(r#"{"kind": "fig7"}"#).to_grid().is_err(), "unknown kind");
        assert!(parse(r#"{"kind": "fig5", "threads": 0}"#).to_grid().is_err());
        assert!(parse(r#"{"kind": "fig5", "work": 0}"#).to_grid().is_err());
        let typo = serde_json::from_str::<SubmitRequest>(r#"{"kind": "fig5", "fiel": 64}"#);
        assert!(typo.unwrap_err().to_string().contains("unknown field `fiel`"));
    }

    #[test]
    fn job_fingerprints_identify_grids() {
        let salt = cache::store_salt();
        let a = parse(r#"{"kind": "fig5", "file": 64, "seed": 7}"#).to_grid().unwrap();
        let b = parse(r#"{"kind": "fig5", "seed": 7, "file": 64}"#).to_grid().unwrap();
        assert_eq!(
            job_fingerprint(&a, &salt).unwrap(),
            job_fingerprint(&b, &salt).unwrap(),
            "field order in the submission does not matter"
        );
        let c = parse(r#"{"kind": "fig5", "file": 64, "seed": 8}"#).to_grid().unwrap();
        assert_ne!(job_fingerprint(&a, &salt).unwrap(), job_fingerprint(&c, &salt).unwrap());
        // Job fingerprints never collide with point keys for related specs.
        let point = cache::point_key(&a.points()[0].spec, &salt).unwrap();
        assert_ne!(job_fingerprint(&a, &salt).unwrap(), point);
    }

    #[test]
    fn journal_reduction_rebuilds_the_job_table() {
        let grid = SweepGrid::figure5_panel(64, 7);
        let payload = serde_json::to_string(&grid).unwrap();
        let records = vec![
            JournalRecord::submitted(1, "a", "fp-a", payload.clone()),
            JournalRecord::finished_ok(1, "{\"report\":1}".to_string()),
            JournalRecord::submitted(2, "b", "fp-b", payload.clone()),
            JournalRecord::finished_err(2, "bad spec".to_string()),
            JournalRecord::submitted(3, "c", "fp-c", payload.clone()),
            JournalRecord::cancelled(3),
            JournalRecord::submitted(4, "d", "fp-d", payload.clone()),
            JournalRecord::expired(4),
            // Interrupted mid-run: submitted, never finished.
            JournalRecord::submitted(5, "e", "fp-e", payload.clone()),
            // Payload rotted: non-terminal and unparseable.
            JournalRecord::submitted(6, "f", "fp-f", "not json".to_string()),
        ];
        let (jobs, max_id) = reduce_journal(records);
        assert_eq!(max_id, 6, "expired ids still count toward the id horizon");
        let by_id: std::collections::BTreeMap<u64, &RestoredJob<SweepJob>> =
            jobs.iter().map(|j| (j.id, j)).collect();
        assert_eq!(by_id.len(), 5, "the expired job is gone");
        assert_eq!(by_id[&1].state, JobState::Done);
        assert_eq!(by_id[&1].result.as_deref(), Some("{\"report\":1}"));
        assert_eq!(by_id[&2].state, JobState::Failed);
        assert_eq!(by_id[&2].error.as_deref(), Some("bad spec"));
        assert_eq!(by_id[&3].state, JobState::Cancelled);
        assert_eq!(by_id[&5].state, JobState::Queued);
        assert_eq!(by_id[&5].payload.as_ref().map(|p| &p.grid), Some(&grid), "payload survives");
        assert!(by_id[&6].payload.is_none(), "rotten payload surfaces as None, not a panic");

        // The queue re-adopts exactly the unfinished work.
        let queue: Arc<JobQueue<SweepJob>> = JobQueue::new(2);
        assert_eq!(queue.restore(jobs), 1, "only the interrupted job with a payload re-queues");
        queue.reserve_ids(max_id);
        let outcome = queue
            .submit("g".to_string(), "fp-g".to_string(), SweepJob { grid })
            .unwrap();
        assert_eq!(outcome.id(), 7, "the expired id 4 and rotten id 6 are never reused");
    }

    #[test]
    fn journal_compaction_is_a_fixed_point() {
        let grid = SweepGrid::figure5_panel(64, 7);
        let payload = serde_json::to_string(&grid).unwrap();
        let records = vec![
            JournalRecord::submitted(1, "a", "fp-a", payload.clone()),
            JournalRecord::finished_ok(1, "r".to_string()),
            JournalRecord::submitted(2, "b", "fp-b", payload),
            JournalRecord::cancelled(2),
        ];
        let (jobs, _) = reduce_journal(records);
        let compacted = compaction_records(&jobs);
        let (again, _) = reduce_journal(compacted.clone());
        assert_eq!(compaction_records(&again), compacted, "reduce∘compact is idempotent");
    }

    #[test]
    fn labels_name_the_knobs() {
        let label = parse(r#"{"kind": "fig5", "file": 64, "threads": 8, "work": 2000}"#).label();
        assert_eq!(label, "fig5 F=64 seed=1993 threads=8 work=2000");
        assert_eq!(parse(r#"{"kind": "fig6"}"#).label(), "fig6 seed=1993");
    }

    #[test]
    fn job_timelines_balance_and_lane_zero_spans_the_wall_clock() {
        let events = vec![
            (
                PointOutcome { index: 0, cached: false, wall_nanos: 4_000_000, store_nanos: 500_000 },
                4_000_000,
            ),
            (
                PointOutcome { index: 1, cached: true, wall_nanos: 300_000, store_nanos: 300_000 },
                4_300_000,
            ),
            (PointOutcome { index: 2, cached: false, wall_nanos: 5_000_000, store_nanos: 0 }, 9_300_000),
        ];
        let trace = rr_telemetry::TraceId::from_u64(0xabc);
        let json = job_timeline_json(7, "fig5 F=64", Some(trace), 2_000_000, 10_000_000, &events);
        let v: serde::Value = serde_json::from_str(&json).expect("timeline is valid JSON");

        let serde::Value::Array(entries) = v.get("traceEvents").expect("traceEvents") else {
            panic!("traceEvents is not an array");
        };
        // Every B has its E: the count splits exactly in half (metadata
        // events are ph=M).
        let phases: Vec<String> = entries
            .iter()
            .filter_map(|e| match e.get("ph") {
                Some(serde::Value::Str(p)) => Some(p.clone()),
                _ => None,
            })
            .collect();
        let begins = phases.iter().filter(|p| *p == "B").count();
        let ends = phases.iter().filter(|p| *p == "E").count();
        assert_eq!(begins, ends, "every span opens and closes");
        // 2 lifecycle + 3 points + 2 store spans (point 2 had no store
        // traffic).
        assert_eq!(begins, 7);

        assert_eq!(v.get("otherData").and_then(|o| o.get("wall_us")),
                   Some(&serde::Value::U64(12_000)));
        assert_eq!(v.get("otherData").and_then(|o| o.get("trace_id")),
                   Some(&serde::Value::Str("0000000000000abc".into())));
        assert_eq!(v.get("otherData").and_then(|o| o.get("job_id")),
                   Some(&serde::Value::U64(7)));

        // Reconstruct the lifecycle lane's (tid 0) B/E pairs and sum them:
        // queue wait + run must equal the advertised wall clock exactly.
        let mut lane0_b: Vec<u64> = Vec::new();
        let mut lane0_e: Vec<u64> = Vec::new();
        for e in entries {
            let (Some(serde::Value::U64(tid)), Some(serde::Value::Str(ph))) =
                (e.get("tid"), e.get("ph"))
            else {
                continue;
            };
            if *tid == 0 {
                let Some(serde::Value::U64(ts)) = e.get("ts") else { continue };
                match ph.as_str() {
                    "B" => lane0_b.push(*ts),
                    "E" => lane0_e.push(*ts),
                    _ => {}
                }
            }
        }
        assert_eq!(lane0_b.len(), 2, "lifecycle lane has queue-wait and run");
        let total: u64 = lane0_e.iter().sum::<u64>() - lane0_b.iter().sum::<u64>();
        assert_eq!(total, 12_000, "queue wait + run == wall_us");
    }
}
