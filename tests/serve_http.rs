//! Integration: the `rr serve` daemon end to end, over real sockets.
//!
//! The tentpole checks: a sweep job submitted over HTTP returns a report
//! *byte-identical* to what `rr fig5 --json` writes for the same spec and
//! seed (both route through the same result store, so even wall-clock
//! fields match); resubmission is answered by dedup without recomputation;
//! a fresh daemon on the same store serves every point from cache; and the
//! rate limiter sheds bursts with `429` + `Retry-After`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::Command;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use register_relocation::serve::{run_serve, ServeOptions};
use register_relocation::{JobJournal, JournalRecord, SweepGrid};

/// Self-cleaning temp directory for the result store.
struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(name: &str) -> TempDir {
        let mut path = std::env::temp_dir();
        path.push(format!("rr-serve-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir { path }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A daemon running on its own thread, torn down via `PUT /shutdown`.
struct Daemon {
    addr: SocketAddr,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl Daemon {
    fn start(opts: ServeOptions) -> Daemon {
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            run_serve(&opts, Some(&move |addr| tx.send(addr).unwrap()))
        });
        let addr = rx.recv_timeout(Duration::from_secs(10)).expect("daemon bound");
        Daemon { addr, thread: Some(thread) }
    }

    fn options(store: &TempDir) -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_capacity: 8,
            sim_jobs: 2,
            rate: None,
            store_dir: Some(store.path.clone()),
            ..ServeOptions::default()
        }
    }

    fn shutdown(mut self) {
        let (status, _, _) = request(self.addr, "PUT", "/shutdown", None);
        assert_eq!(status, 200, "shutdown acknowledged");
        let result = self.thread.take().unwrap().join().expect("daemon thread exits");
        assert_eq!(result, Ok(()), "daemon exits cleanly");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            // A test failed before calling shutdown(); try not to leak the
            // serve loop.
            let _ = request(self.addr, "PUT", "/shutdown", None);
            let _ = thread.join();
        }
    }
}

/// Sends one HTTP/1.1 request, returns (status, headers, body).
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    let body = body.unwrap_or("");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read response");
    let reply = String::from_utf8(reply).expect("response is UTF-8");
    let (head, payload) = reply.split_once("\r\n\r\n").expect("response has a header block");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head}"));
    (status, head.to_string(), payload.to_string())
}

/// Pulls a `"field": <scalar>` value out of a JSON body (the test's JSON
/// needs are too simple for a parser dependency).
fn json_field<'a>(body: &'a str, field: &str) -> &'a str {
    let probe = format!("\"{field}\": ");
    let at = body.find(&probe).unwrap_or_else(|| panic!("no `{field}` in {body}"));
    let rest = &body[at + probe.len()..];
    rest.split([',', '\n', '}']).next().unwrap().trim()
}

fn poll_until_done(addr: SocketAddr, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, _, body) = request(addr, "GET", &format!("/jobs/{id}"), None);
        assert_eq!(status, 200, "{body}");
        match json_field(&body, "state") {
            "\"done\"" => return body,
            "\"failed\"" => panic!("job failed: {body}"),
            _ if Instant::now() > deadline => panic!("job never finished: {body}"),
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// The submission every test uses: one fig5 panel, shrunk workloads.
const SUBMIT: &str = r#"{"kind": "fig5", "file": 64, "seed": 7, "threads": 8, "work": 2000}"#;

#[test]
fn daemon_results_match_the_cli_byte_for_byte_and_dedup() {
    let store = TempDir::new("e2e");
    let daemon = Daemon::start(Daemon::options(&store));

    // Submit and run to completion.
    let (status, _, ticket) = request(daemon.addr, "POST", "/jobs", Some(SUBMIT));
    assert_eq!(status, 201, "{ticket}");
    assert_eq!(json_field(&ticket, "deduped"), "false");
    let id = json_field(&ticket, "id").to_string();
    let done = poll_until_done(daemon.addr, &id);
    assert_eq!(json_field(&done, "total"), "18", "fig5 panel is 3 R x 6 L");
    assert_eq!(json_field(&done, "done"), "18");
    assert_eq!(json_field(&done, "cached"), "0", "cold store computed everything");

    let (status, _, daemon_report) =
        request(daemon.addr, "GET", &format!("/jobs/{id}/result"), None);
    assert_eq!(status, 200);

    // The CLI, warm on the same store, must produce the identical bytes.
    let json_out = store.path.join("cli-report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_rr"))
        .args(["fig5", "--file", "64", "--seed", "7", "--threads", "8", "--work", "2000"])
        .args(["--jobs", "2", "--store"])
        .arg(&store.path)
        .arg("--json")
        .arg(&json_out)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let cli_report = std::fs::read_to_string(&json_out).unwrap();
    assert_eq!(
        daemon_report, cli_report,
        "daemon result and `rr fig5 --json` disagree for the same spec"
    );

    // Resubmission dedups to the same finished job, instantly.
    let (status, _, resubmit) = request(daemon.addr, "POST", "/jobs", Some(SUBMIT));
    assert_eq!(status, 200, "{resubmit}");
    assert_eq!(json_field(&resubmit, "deduped"), "true");
    assert_eq!(json_field(&resubmit, "id"), id);

    // A *different* spec is a different job.
    let other = r#"{"kind": "fig5", "file": 64, "seed": 8, "threads": 8, "work": 2000}"#;
    let (status, _, ticket2) = request(daemon.addr, "POST", "/jobs", Some(other));
    assert_eq!(status, 201, "{ticket2}");
    assert_ne!(json_field(&ticket2, "id"), id);
    poll_until_done(daemon.addr, json_field(&ticket2, "id"));

    // The job list shows both, in submission order.
    let (status, _, list) = request(daemon.addr, "GET", "/jobs", None);
    assert_eq!(status, 200);
    assert!(list.contains("\"fig5 F=64 seed=7 threads=8 work=2000\""), "{list}");
    assert!(list.contains("\"fig5 F=64 seed=8 threads=8 work=2000\""), "{list}");

    // /health reports the service and the shared store-stats shape.
    let (status, _, health) = request(daemon.addr, "GET", "/health", None);
    assert_eq!(status, 200);
    assert_eq!(json_field(&health, "status"), "\"ok\"");
    assert_eq!(json_field(&health, "records"), "36", "two 18-point sweeps stored");
    assert_eq!(json_field(&health, "queue_depth"), "0");

    // /metrics serves the telemetry registry.
    let (status, _, metrics) = request(daemon.addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(metrics.contains("\"serve\""), "{metrics}");
    assert!(metrics.contains("\"jobs_submitted\""), "{metrics}");

    daemon.shutdown();
}

#[test]
fn a_fresh_daemon_serves_a_warm_store_without_recomputing() {
    let store = TempDir::new("warm");
    // First daemon: compute and store the panel.
    let first = Daemon::start(Daemon::options(&store));
    let (status, _, ticket) = request(first.addr, "POST", "/jobs", Some(SUBMIT));
    assert_eq!(status, 201, "{ticket}");
    let id = json_field(&ticket, "id").to_string();
    poll_until_done(first.addr, &id);
    let (_, _, cold_report) = request(first.addr, "GET", &format!("/jobs/{id}/result"), None);
    first.shutdown();

    // Second daemon, same store: the job queue is empty (no cross-restart
    // job state) but every *point* comes from the store.
    let second = Daemon::start(Daemon::options(&store));
    let (status, _, ticket) = request(second.addr, "POST", "/jobs", Some(SUBMIT));
    assert_eq!(status, 201, "a fresh queue accepts the job anew: {ticket}");
    assert_eq!(json_field(&ticket, "deduped"), "false");
    let id = json_field(&ticket, "id").to_string();
    let done = poll_until_done(second.addr, &id);
    assert_eq!(json_field(&done, "cached"), "18", "warm store served every point");
    let (_, _, warm_report) = request(second.addr, "GET", &format!("/jobs/{id}/result"), None);
    assert_eq!(warm_report, cold_report, "warm replay is byte-identical");
    second.shutdown();
}

#[test]
fn burst_traffic_is_shed_with_retry_after() {
    let store = TempDir::new("rate");
    let daemon = Daemon::start(ServeOptions {
        rate: Some(register_relocation::serve::ServeRateConfig { budget: 2, refill_per_sec: 1 }),
        ..Daemon::options(&store)
    });

    // Two requests fit the budget; the third sheds.
    let mut saw_429 = false;
    for _ in 0..5 {
        let (status, head, body) = request(daemon.addr, "GET", "/jobs", None);
        if status == 429 {
            assert!(head.contains("Retry-After: "), "{head}");
            assert!(body.contains("rate limit"), "{body}");
            saw_429 = true;
            break;
        }
        assert_eq!(status, 200, "{body}");
    }
    assert!(saw_429, "a 5-request burst against budget 2 must shed");

    // The observability plane is exempt.
    for _ in 0..5 {
        assert_eq!(request(daemon.addr, "GET", "/health", None).0, 200);
        assert_eq!(request(daemon.addr, "GET", "/metrics", None).0, 200);
    }
    daemon.shutdown();
}

#[test]
fn api_rejects_what_it_should() {
    let store = TempDir::new("errors");
    let daemon = Daemon::start(Daemon::options(&store));

    let (status, _, body) = request(daemon.addr, "GET", "/jobs/999", None);
    assert_eq!((status, body.contains("no job 999")), (404, true), "{body}");
    let (status, _, body) = request(daemon.addr, "GET", "/jobs/999/result", None);
    assert_eq!(status, 404, "{body}");
    let (status, _, body) = request(daemon.addr, "GET", "/nope", None);
    assert_eq!(status, 404, "{body}");
    let (status, _, body) = request(daemon.addr, "POST", "/jobs", Some("not json"));
    assert_eq!(status, 400, "{body}");
    let (status, _, body) = request(daemon.addr, "POST", "/jobs", Some(r#"{"file": 64}"#));
    assert_eq!((status, body.contains("kind")), (400, true), "{body}");
    let (status, _, body) =
        request(daemon.addr, "POST", "/jobs", Some(r#"{"kind": "fig7"}"#));
    assert_eq!((status, body.contains("fig7")), (400, true), "{body}");
    let (status, _, body) =
        request(daemon.addr, "POST", "/jobs", Some(r#"{"kind": "fig5", "fiel": 64}"#));
    assert_eq!((status, body.contains("unknown field `fiel`")), (400, true), "{body}");
    let (status, _, body) = request(daemon.addr, "DELETE", "/jobs", None);
    assert_eq!(status, 405, "{body}");

    // A queued-but-unfinished job's result is a 409, not a hang: submit
    // against a daemon whose single worker is busy with a real job.
    let (_, _, ticket) = request(daemon.addr, "POST", "/jobs", Some(SUBMIT));
    let id = json_field(&ticket, "id").to_string();
    let (status, _, body) = request(daemon.addr, "GET", &format!("/jobs/{id}/result"), None);
    assert!(
        status == 409 || status == 200,
        "result before completion is 409 (or 200 if the tiny sweep already finished): {body}"
    );
    poll_until_done(daemon.addr, &id);
    daemon.shutdown();
}

#[test]
fn delete_cancels_queued_jobs_and_removes_finished_tickets() {
    let store = TempDir::new("cancel");
    let daemon = Daemon::start(Daemon::options(&store));

    // One worker: A runs, B waits in the queue where DELETE can reach it.
    let (_, _, ticket_a) = request(daemon.addr, "POST", "/jobs", Some(SUBMIT));
    let id_a = json_field(&ticket_a, "id").to_string();
    let b_spec = r#"{"kind": "fig5", "file": 64, "seed": 9, "threads": 8, "work": 2000}"#;
    let (status, _, ticket_b) = request(daemon.addr, "POST", "/jobs", Some(b_spec));
    assert_eq!(status, 201, "{ticket_b}");
    let id_b = json_field(&ticket_b, "id").to_string();

    let (status, _, body) = request(daemon.addr, "DELETE", &format!("/jobs/{id_b}"), None);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "outcome"), "\"cancelled\"");
    let (status, _, body) = request(daemon.addr, "GET", &format!("/jobs/{id_b}"), None);
    assert_eq!(status, 200, "the cancelled ticket remains visible: {body}");
    assert_eq!(json_field(&body, "state"), "\"cancelled\"");

    // Cancellation released the fingerprint: the same spec resubmits fresh.
    let (status, _, ticket_b2) = request(daemon.addr, "POST", "/jobs", Some(b_spec));
    assert_eq!(status, 201, "{ticket_b2}");
    assert_eq!(json_field(&ticket_b2, "deduped"), "false");
    assert_ne!(json_field(&ticket_b2, "id"), id_b);

    // A running job refuses cancellation with 409 (unless it already won the
    // race and finished, in which case DELETE removes the ticket).
    let (status, _, body) = request(daemon.addr, "DELETE", &format!("/jobs/{id_a}"), None);
    match status {
        409 => {
            assert!(body.contains("running"), "{body}");
            poll_until_done(daemon.addr, &id_a);
            let (status, _, body) =
                request(daemon.addr, "DELETE", &format!("/jobs/{id_a}"), None);
            assert_eq!(status, 200, "{body}");
            assert_eq!(json_field(&body, "outcome"), "\"removed\"");
        }
        200 => assert_eq!(json_field(&body, "outcome"), "\"removed\""),
        other => panic!("unexpected DELETE status {other}: {body}"),
    }
    let (status, _, body) = request(daemon.addr, "GET", &format!("/jobs/{id_a}"), None);
    assert_eq!(status, 404, "removed tickets are gone: {body}");
    let (status, _, _) = request(daemon.addr, "DELETE", &format!("/jobs/{id_a}"), None);
    assert_eq!(status, 404, "double delete is a 404, not an error");

    poll_until_done(daemon.addr, json_field(&ticket_b2, "id"));
    daemon.shutdown();
}

#[test]
fn finished_tickets_expire_over_http_when_a_ttl_is_set() {
    let store = TempDir::new("ttl");
    let daemon = Daemon::start(ServeOptions {
        job_ttl: Some(Duration::from_millis(1)),
        ..Daemon::options(&store)
    });
    let (status, _, ticket) = request(daemon.addr, "POST", "/jobs", Some(SUBMIT));
    assert_eq!(status, 201, "{ticket}");
    let id = json_field(&ticket, "id").to_string();

    // The ticket finishes, then the janitor ages it out; either way the id
    // must eventually answer 404.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, _, body) = request(daemon.addr, "GET", &format!("/jobs/{id}"), None);
        match status {
            404 => break,
            200 if json_field(&body, "state") == "\"failed\"" => panic!("job failed: {body}"),
            200 => {}
            other => panic!("unexpected status {other}: {body}"),
        }
        assert!(Instant::now() < deadline, "ticket never expired: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon.shutdown();
}

#[test]
fn a_journalled_daemon_readopts_accepted_jobs_across_restarts() {
    let store = TempDir::new("journal");
    let journal_path = store.path.join("serve-journal.jsonl");
    let options = || ServeOptions {
        journal: Some(journal_path.clone()),
        ..Daemon::options(&store)
    };

    // First life: complete one job, remember its bytes.
    let first = Daemon::start(options());
    let (status, _, ticket) = request(first.addr, "POST", "/jobs", Some(SUBMIT));
    assert_eq!(status, 201, "{ticket}");
    let id = json_field(&ticket, "id").to_string();
    poll_until_done(first.addr, &id);
    let (_, _, first_report) = request(first.addr, "GET", &format!("/jobs/{id}/result"), None);
    first.shutdown();

    // Simulate a crash-interrupted job: an accepted submission whose
    // `finished` record never made it to disk. (A real kill -9 produces
    // exactly this journal; the CI smoke test does it to the binary.)
    let mut grid = SweepGrid::figure5_panel(64, 7);
    grid.base.threads = 8;
    grid.base.work_per_thread = 2000;
    let journal = JobJournal::open(&journal_path).unwrap();
    journal
        .append(&JournalRecord::submitted(
            9,
            "crafted interrupted job",
            "fp-crafted",
            serde_json::to_string(&grid).unwrap(),
        ))
        .unwrap();
    drop(journal);

    // Second life: the finished job answers from the journal without
    // recompute; the interrupted one re-runs (warm, so every point cached).
    let second = Daemon::start(options());
    let (status, _, report) = request(second.addr, "GET", &format!("/jobs/{id}/result"), None);
    assert_eq!(status, 200, "restored ticket serves its result: {report}");
    assert_eq!(report, first_report, "restored result is byte-identical");
    let done = poll_until_done(second.addr, "9");
    assert_eq!(json_field(&done, "cached"), "18", "re-run leans on the warm store");

    // Restored fingerprints still dedup, and ids never regress.
    let (status, _, resubmit) = request(second.addr, "POST", "/jobs", Some(SUBMIT));
    assert_eq!(status, 200, "{resubmit}");
    assert_eq!(json_field(&resubmit, "deduped"), "true");
    assert_eq!(json_field(&resubmit, "id"), id);
    let fresh = r#"{"kind": "fig5", "file": 64, "seed": 11, "threads": 8, "work": 2000}"#;
    let (status, _, ticket) = request(second.addr, "POST", "/jobs", Some(fresh));
    assert_eq!(status, 201, "{ticket}");
    assert_eq!(json_field(&ticket, "id"), "10", "ids continue past every journalled id");
    poll_until_done(second.addr, "10");
    second.shutdown();

    // Third life: both completed jobs are still there, results intact.
    let third = Daemon::start(options());
    let (status, _, report) = request(third.addr, "GET", &format!("/jobs/{id}/result"), None);
    assert_eq!(status, 200, "{report}");
    assert_eq!(report, first_report);
    let (status, _, report9) = request(third.addr, "GET", "/jobs/9/result", None);
    assert_eq!(status, 200, "{report9}");
    third.shutdown();
}

#[test]
fn observability_plane_serves_traces_prometheus_and_timelines() {
    let store = TempDir::new("obs");
    let daemon = Daemon::start(ServeOptions {
        journal: Some(store.path.join("journal.jsonl")),
        ..Daemon::options(&store)
    });

    let (status, _, ticket) = request(daemon.addr, "POST", "/jobs", Some(SUBMIT));
    assert_eq!(status, 201, "{ticket}");
    let id = json_field(&ticket, "id").to_string();
    let done = poll_until_done(daemon.addr, &id);

    // The status body names the submitting request's trace.
    let trace = json_field(&done, "trace_id").trim_matches('"').to_string();
    assert_eq!(trace.len(), 16, "trace id is 16 hex chars: {done}");
    assert!(trace.chars().all(|c| c.is_ascii_hexdigit()), "{trace}");

    // The timeline is a loadable Chrome/Perfetto trace whose lifecycle
    // lane (tid 0: queue wait + run) accounts for the job's wall clock.
    let (status, head, timeline) =
        request(daemon.addr, "GET", &format!("/jobs/{id}/timeline"), None);
    assert_eq!(status, 200, "{timeline}");
    assert!(head.contains("application/json"), "{head}");
    let v: serde::Value = serde_json::from_str(&timeline).expect("timeline is valid JSON");
    let Some(serde::Value::Array(events)) = v.get("traceEvents") else {
        panic!("no traceEvents array in {timeline}");
    };
    let ph = |e: &serde::Value| match e.get("ph") {
        Some(serde::Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    let spans: Vec<&serde::Value> =
        events.iter().filter(|e| ph(e) == "B" || ph(e) == "E").collect();
    let begins = spans.iter().filter(|e| ph(e) == "B").count();
    let ends = spans.len() - begins;
    assert_eq!(begins, ends, "B/E spans are balanced: {timeline}");
    assert!(begins >= 20, "lifecycle pair + 18 point spans expected, got {begins}: {timeline}");

    let ts = |e: &serde::Value| -> i64 {
        match e.get("ts") {
            Some(serde::Value::U64(n)) => i64::try_from(*n).unwrap(),
            Some(serde::Value::I64(n)) => *n,
            other => panic!("span without integer ts: {other:?}"),
        }
    };
    let tid = |e: &serde::Value| match e.get("tid") {
        Some(serde::Value::U64(n)) => *n,
        _ => u64::MAX,
    };
    // Sequential spans on the lifecycle lane: sum(E.ts) - sum(B.ts) is the
    // lane's total covered time, which must be within 5% of the reported
    // wall clock (by construction it is exact).
    let lane0: i64 = spans
        .iter()
        .filter(|e| tid(e) == 0)
        .map(|e| if ph(e) == "B" { -ts(e) } else { ts(e) })
        .sum();
    let other = v.get("otherData").expect("otherData present");
    let Some(serde::Value::U64(wall_us)) = other.get("wall_us") else {
        panic!("no wall_us in {timeline}");
    };
    let wall_us = i64::try_from(*wall_us).unwrap();
    assert!(wall_us > 0, "{timeline}");
    assert!(
        (lane0 - wall_us).abs() * 20 <= wall_us,
        "lifecycle lane covers {lane0}µs but the job took {wall_us}µs"
    );
    assert_eq!(
        other.get("trace_id"),
        Some(&serde::Value::Str(trace.clone())),
        "timeline is tagged with the job's trace: {timeline}"
    );

    let (status, _, body) = request(daemon.addr, "GET", "/jobs/999/timeline", None);
    assert_eq!(status, 404, "{body}");

    // Prometheus exposition rides the same /metrics endpoint behind
    // ?format=prometheus; JSON stays the default.
    let (status, head, prom) =
        request(daemon.addr, "GET", "/metrics?format=prometheus", None);
    assert_eq!(status, 200, "{prom}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    // Counts are not asserted exactly: every in-process daemon in this test
    // binary shares the one global registry.
    for needle in [
        "# TYPE rr_span_endpoint_jobs_submit_nanos histogram",
        "rr_span_worker_run_nanos_bucket{le=\"+Inf\"}",
        "rr_span_point_compute_nanos_count",
        "rr_span_queue_wait_nanos_sum",
        "rr_span_journal_append_nanos_count",
        "# TYPE rr_serve_queue_depth gauge",
        "rr_serve_jobs_submitted",
    ] {
        assert!(prom.contains(needle), "missing `{needle}` in exposition:\n{prom}");
    }
    let (status, _, body) = request(daemon.addr, "GET", "/metrics?format=bogus", None);
    assert_eq!(status, 400, "{body}");
    let (status, head, metrics) = request(daemon.addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(head.contains("application/json"), "{head}");
    assert!(metrics.contains("\"spans\""), "{metrics}");
    assert!(metrics.contains("\"requests_timed_out\""), "{metrics}");

    // /health carries journal stats (submitted + finished >= 2 entries).
    let (status, _, health) = request(daemon.addr, "GET", "/health", None);
    assert_eq!(status, 200);
    let entries: u64 = json_field(&health, "entries").parse().unwrap();
    assert!(entries >= 2, "journal entries surfaced in /health: {health}");
    assert!(health.contains("\"compacted_records\""), "{health}");

    daemon.shutdown();
}

#[test]
fn the_binary_daemon_traces_job_logs_flushes_metrics_and_feeds_rr_top() {
    let store = TempDir::new("binary-obs");
    let metrics_path = store.path.join("metrics.json");
    let log_path = store.path.join("serve.log");
    let log_file = std::fs::File::create(&log_path).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_rr"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .args(["--sim-jobs", "2", "--no-rate", "--store"])
        .arg(&store.path)
        .args(["--log-level", "debug", "--metrics-out"])
        .arg(&metrics_path)
        .stdout(std::process::Stdio::null())
        .stderr(log_file)
        .spawn()
        .expect("spawn rr serve");

    // The daemon announces its ephemeral port on stderr.
    let addr: SocketAddr = {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let log = std::fs::read_to_string(&log_path).unwrap_or_default();
            if let Some(at) = log.find("http://") {
                let rest = &log[at + "http://".len()..];
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap()
                    .trim_end_matches('/')
                    .parse()
                    .expect("parse announced address");
            }
            assert!(Instant::now() < deadline, "daemon never announced its address:\n{log}");
            std::thread::sleep(Duration::from_millis(20));
        }
    };

    let (status, _, ticket) = request(addr, "POST", "/jobs", Some(SUBMIT));
    assert_eq!(status, 201, "{ticket}");
    let id = json_field(&ticket, "id").to_string();
    let done = poll_until_done(addr, &id);
    let trace = json_field(&done, "trace_id").trim_matches('"').to_string();
    assert_eq!(trace.len(), 16, "{done}");

    // Every log line the job emitted carries its trace id — that is what
    // makes `grep trace=<id>` a complete story of the request.
    let deadline = Instant::now() + Duration::from_secs(30);
    let log = loop {
        let log = std::fs::read_to_string(&log_path).unwrap();
        if log.contains(&format!("job {id} done")) {
            break log;
        }
        assert!(Instant::now() < deadline, "job completion never logged:\n{log}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(log.contains(&format!("trace={trace}")), "trace id absent from logs:\n{log}");
    let job_lines: Vec<&str> =
        log.lines().filter(|l| l.contains(&format!("job {id}"))).collect();
    assert!(job_lines.len() >= 3, "claim/finish/state lines expected:\n{log}");
    for line in &job_lines {
        assert!(
            line.contains(&format!("trace={trace}")),
            "job log line lost its trace: {line}"
        );
    }

    // --metrics-out flushes periodically while the daemon lives (not just
    // at exit): the snapshot file appears and contains span counters.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = std::fs::read_to_string(&metrics_path).unwrap_or_default();
        if snap.contains("\"point_compute_count\"") && snap.contains("\"spans\"") {
            break;
        }
        assert!(Instant::now() < deadline, "metrics-out never flushed: {snap}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // `rr top` renders the live histograms from one scrape.
    let out = Command::new(env!("CARGO_BIN_EXE_rr"))
        .args(["top", "--addr", &addr.to_string(), "--count", "1"])
        .output()
        .expect("run rr top");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let top = String::from_utf8_lossy(&out.stdout);
    assert!(top.contains("queue depth 0"), "{top}");
    assert!(top.contains("endpoint_jobs_submit"), "{top}");
    assert!(top.contains("worker_run"), "{top}");
    assert!(top.contains("point_compute"), "{top}");

    let (status, _, _) = request(addr, "PUT", "/shutdown", None);
    assert_eq!(status, 200);
    let exit = child.wait().expect("daemon exits");
    assert!(exit.success(), "daemon exit status {exit:?}");
}
