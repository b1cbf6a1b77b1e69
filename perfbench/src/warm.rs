//! `warm_replay`: the same six panels as `cold_sweep`, replayed from a
//! result store filled during set-up. The engine does nothing; cache
//! keying, store reads with SHA-256 validation, and `PointReport` JSON
//! decoding do all the work.
//!
//! A traced pass replays each point through those layers' public calls
//! (`cache::point_key`, `Store::get`, JSON decode) and verifies the whole
//! store once.

use std::path::PathBuf;
use std::time::Instant;

use register_relocation::cache;
use register_relocation::store::{Lookup, Store};
use register_relocation::{PointReport, SweepGrid, SweepReport, SweepRunner};

use crate::checks::{check_report, same_point, same_science};
use crate::cold::figure_panels;
use crate::layers::Recorder;
use crate::{Context, JobOutcome, Workload};

pub struct WarmReplay {
    panels: Vec<SweepGrid>,
    /// One store-backed runner per panel, as a user replaying a figure
    /// would hold.
    runners: Vec<SweepRunner>,
    /// A separate handle for the traced, layer-by-layer replay.
    store: Store,
    /// The directly computed report of each panel (from the set-up run
    /// that filled the store).
    reference: Vec<SweepReport>,
    /// `SweepRunner::run` milliseconds per point, from untraced passes.
    point_ms: Vec<f64>,
    /// Store hits and lookups of the traced pass.
    lookups: (u64, u64),
}

fn open(dir: &PathBuf) -> Result<Store, String> {
    cache::open_store(dir).map_err(|e| format!("cannot open store {}: {e}", dir.display()))
}

impl WarmReplay {
    pub fn new(ctx: &Context, rec: &mut Recorder) -> Result<WarmReplay, String> {
        let dir = ctx.tmp.join("store");
        let panels = figure_panels(ctx.seed);
        let mut runners = Vec::new();
        let mut reference = Vec::new();
        for grid in &panels {
            let runner = SweepRunner::new(1)
                .with_progress(false)
                .with_store(Some(open(&dir)?));
            let run = runner.run(grid)?;
            check_report(grid, &run.report)?;
            if run.cache.stored != grid.len() {
                return Err(format!(
                    "set-up stored {} of {} points",
                    run.cache.stored,
                    grid.len()
                ));
            }
            runners.push(runner);
            reference.push(run.report);
        }
        let store = open(&dir)?;
        if rec.enabled() {
            // Time the store's write path by rewriting every record in place
            // (same key, same bytes): what filling the store cost per point.
            for grid in &panels {
                for p in grid.points() {
                    let key = cache::point_key(&p.spec, store.salt()).map_err(|e| e.to_string())?;
                    let Ok(Lookup::Hit(bytes)) = store.get(&key) else {
                        return Err(format!("set-up point {} is not in the store", p.index));
                    };
                    let (put, secs) = rec.time("store.put_us", || store.put(&key, &bytes));
                    put.map_err(|e| e.to_string())?;
                    rec.sample("store.put_us", secs * 1e6);
                }
            }
        }
        Ok(WarmReplay {
            panels,
            runners,
            store,
            reference,
            point_ms: Vec::new(),
            lookups: (0, 0),
        })
    }

    fn plain_job(&mut self, i: usize, problems: &mut Vec<String>) -> JobOutcome {
        let started = Instant::now();
        let run = match self.runners[i].run(&self.panels[i]) {
            Ok(run) => run,
            Err(e) => return JobOutcome::failed(started, format!("warm panel {i}: {e}")),
        };
        if run.cache.hits != self.panels[i].len() {
            problems.push(format!(
                "warm panel {i}: {} of {} points served from the store",
                run.cache.hits,
                self.panels[i].len()
            ));
        }
        if let Err(e) = same_science(&self.reference[i], &run.report) {
            problems.push(format!("warm panel {i}: {e}"));
        }
        let latency_s = started.elapsed().as_secs_f64();
        let points = run.report.points.len() as u64;
        self.point_ms.push(latency_s * 1e3 / points as f64);
        JobOutcome {
            latency_s,
            points,
            failed: false,
        }
    }

    fn traced_job(
        &mut self,
        i: usize,
        rec: &mut Recorder,
        problems: &mut Vec<String>,
    ) -> JobOutcome {
        let started = Instant::now();
        let points = self.panels[i].points();
        let mut hits = 0u64;
        for p in &points {
            let (key, key_s) = rec.time("cache.key_us", || {
                cache::point_key(&p.spec, self.store.salt())
            });
            let key = match key {
                Ok(key) => key,
                Err(e) => return JobOutcome::failed(started, format!("warm key: {e}")),
            };
            rec.sample("cache.key_us", key_s * 1e6);
            let (lookup, get_s) = rec.time("store.get_us", || self.store.get(&key));
            rec.sample("store.get_us", get_s * 1e6);
            let bytes = match lookup {
                Ok(Lookup::Hit(bytes)) => bytes,
                Ok(other) => {
                    problems.push(format!(
                        "warm point {}: store lookup gave {other:?}",
                        p.index
                    ));
                    continue;
                }
                Err(e) => return JobOutcome::failed(started, format!("warm get: {e}")),
            };
            hits += 1;
            rec.sample("store.record_kib", bytes.len() as f64 / 1024.0);
            let (decoded, decode_s) = rec.time("report.decode_us", || {
                std::str::from_utf8(&bytes)
                    .map_err(|e| e.to_string())
                    .and_then(|s| serde_json::from_str::<PointReport>(s).map_err(|e| e.to_string()))
            });
            rec.sample("report.decode_us", decode_s * 1e6);
            match decoded {
                Ok(point) if same_point(&self.reference[i].points[p.index], &point) => {}
                Ok(_) => problems.push(format!("warm point {}: stored record differs", p.index)),
                Err(e) => problems.push(format!(
                    "warm point {}: record does not decode: {e}",
                    p.index
                )),
            }
        }
        self.lookups.0 += hits;
        self.lookups.1 += points.len() as u64;
        JobOutcome {
            latency_s: started.elapsed().as_secs_f64(),
            points: points.len() as u64,
            failed: false,
        }
    }
}

impl Workload for WarmReplay {
    fn pass(&mut self, rec: &mut Recorder, problems: &mut Vec<String>) -> Vec<JobOutcome> {
        let traced = rec.enabled();
        let jobs = (0..self.panels.len())
            .map(|i| {
                if traced {
                    self.traced_job(i, rec, problems)
                } else {
                    self.plain_job(i, problems)
                }
            })
            .collect();
        if traced {
            let (hits, lookups) = std::mem::take(&mut self.lookups);
            rec.set_count("store.hit_ratio", hits as f64 / lookups.max(1) as f64);
            let (report, secs) = rec.time("store.verify_us", || self.store.verify());
            match report {
                Ok(r) if r.quarantined.is_empty() && r.ok > 0 => {
                    rec.sample("store.verify_us", secs * 1e6 / r.ok as f64)
                }
                Ok(r) => problems.push(format!(
                    "store verify quarantined {} record(s)",
                    r.quarantined.len()
                )),
                Err(e) => problems.push(format!("store verify failed: {e}")),
            }
        }
        jobs
    }

    fn finish(&mut self, rec: &mut Recorder, _problems: &mut Vec<String>) {
        for &ms in &self.point_ms {
            rec.sample("sweep.warm_point_ms", ms);
        }
    }
}
