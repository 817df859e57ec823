//! `serve-mix`: an in-process campaign daemon on loopback, driven by one
//! open-loop generator thread at a fixed rate below saturation, then
//! saturated.
//!
//! A run has two parts, each daemon in them over a fresh cell store:
//!
//! - [`SESSIONS`] sessions: a daemon plays the seeded schedule of
//!   [`SESSION_SUBMISSIONS`] submissions at the open-loop rate, which gives
//!   the latencies and the correctness checks;
//! - bursts, repeated for the rest of the window: every distinct cell the
//!   schedule names, as one grid per predictor × scheme axis ([`burst`]),
//!   posted back to back, so the daemon runs saturated. A burst's timed
//!   quantity is the daemon's own busy time (the `busy_seconds` its
//!   `/metrics` reports: wall time its worker pool spent inside batches)
//!   and its work the cells it computed, so the throughput figures measure
//!   the daemon, not the generator's rate. At the open-loop rate the daemon
//!   mostly runs one cell at a time and how often two overlap depends on
//!   timing, which made busy time per cell vary from run to run.
//!
//! The seeded suite is exported one trace per directory ([`DIRS`] of them),
//! so every directory is a one-trace suite a grid can name. Out of every
//! ten submissions:
//!
//! - eight are small grids — one (predictor, scheme) pair from a fixed cycle
//!   over two directories, one the pair already ran on (a cell-store read)
//!   and one it has not (a compute and a cell-store write);
//! - one is an identical resubmission of an earlier small grid;
//! - one is a large grid: two TAGE predictors × {storage-free,
//!   jrs-classic} over two directories, four cells fresh and four repeated.
//!
//! The seed picks the traces and which directories each grid names; the
//! cycle of pairs is fixed, so the amount of work per run barely depends on
//! the seed. A second client thread polls `GET /campaigns/<id>/report`
//! every [`POLL_INTERVAL`] for every outstanding submission. Latency runs
//! from a submission's due time to the moment its report arrives, so a late
//! generator or a blocked daemon both count. The daemon's accept loop
//! sleeps 25 ms whenever no connection is pending, so most of a small
//! grid's latency is that sleep, not the 2 ms poll.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tage_bench::campaign::run_campaign_with_engine;
use tage_bench::cellstore::cell_key;
use tage_bench::jsonish;
use tage_bench::service::grid::GridRequest;
use tage_bench::service::http::client_request;
use tage_bench::service::{start, ServeOptions};
use tage_sim::EngineKind;
use tage_traces::SplitMix64;

use super::{
    campaign_extras, check_digest, check_repeatable, render_checked, repeat_for, Inputs, Sample,
    Workload, WORKERS,
};
use crate::report::Outcome;
use crate::stats::{median, quantile, ratio};
use crate::tracer;
use crate::RunArgs;

/// Conditional branches per exported trace.
pub const BRANCHES_PER_TRACE: usize = 100_000;

/// Submissions per second.
pub const RATE_PER_S: f64 = 20.0;

/// Submissions of one session.
pub const SESSION_SUBMISSIONS: usize = 50;

/// Open-loop sessions a run plays: 100 latency samples, ten of them beyond
/// the 90th percentile.
pub const SESSIONS: usize = 2;

/// How long the polling client waits between rounds over the outstanding
/// submissions.
pub const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// How long the run waits for the last reports after the last submission.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Served grids re-run through the library and compared byte for byte.
const VERIFIED_GRIDS: usize = 6;

/// `GET /healthz` round trips timed after the schedule.
const HEALTH_PROBES: usize = 20;

/// The (predictor, scheme) cycle of the small grids. With [`DIRS`]
/// directories per pair, a pair gets a fresh cell on each of its first
/// `DIRS` uses: 12 pairs keep every small grid half fresh for 480 small
/// grids.
const SMALL_PAIRS: [(&str, &str); 12] = [
    ("tage-256k", "storage-free"),
    ("gshare", "jrs-classic"),
    ("tage-64k", "jrs-enhanced"),
    ("bimodal", "self-confidence"),
    ("tage-16k", "jrs-enhanced"),
    ("tage-64k-std", "storage-free"),
    ("gshare", "self-confidence"),
    ("tage-256k", "jrs-classic"),
    ("tage-16k", "self-confidence"),
    ("bimodal", "jrs-classic"),
    ("tage-64k-std", "jrs-enhanced"),
    ("tage-256k", "self-confidence"),
];

/// The predictor axes the large grids alternate between, each crossed with
/// [`LARGE_SCHEMES`] (no pair is also in [`SMALL_PAIRS`]).
const LARGE_PREDICTORS: [[&str; 2]; 2] =
    [["tage-16k", "tage-64k"], ["tage-16k-std", "tage-256k-std"]];
const LARGE_SCHEMES: [&str; 2] = ["storage-free", "jrs-classic"];

/// One-trace directories the workload exports: the seeded suite twice, the
/// second time under a derived seed.
pub const DIRS: usize = 40;

/// What kind of submission a schedule slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A two-directory (or, first time for its pair, one-directory) grid.
    Small,
    /// An identical resubmission of an earlier small grid.
    Resubmit,
    /// The eight-cell grid.
    Large,
}

/// One scheduled submission.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Its kind.
    pub kind: Kind,
    /// The grid it posts.
    pub grid: GridRequest,
}

fn shuffled(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    order
}

fn grid(predictors: &[&str], schemes: &[&str], dirs: Vec<&Path>) -> GridRequest {
    GridRequest {
        label: "serve-mix".to_string(),
        predictors: predictors.iter().map(|t| t.to_string()).collect(),
        schemes: schemes.iter().map(|t| t.to_string()).collect(),
        suites: Vec::new(),
        trace_dirs: dirs.iter().map(|d| d.display().to_string()).collect(),
        scenarios: vec!["baseline".to_string()],
        branches_per_trace: BRANCHES_PER_TRACE,
    }
}

/// The seeded schedule of `count` submissions over the one-trace
/// directories `dirs`.
pub fn schedule(seed: u64, dirs: &[PathBuf], count: usize) -> Vec<Submission> {
    let mut rng = SplitMix64::new(seed ^ 0x5e7e_5e7e);
    let n = dirs.len();
    let small_orders: Vec<Vec<usize>> = SMALL_PAIRS.iter().map(|_| shuffled(&mut rng, n)).collect();
    let large_orders: Vec<Vec<usize>> = LARGE_PREDICTORS
        .iter()
        .map(|_| shuffled(&mut rng, n))
        .collect();
    let mut small_uses = [0usize; SMALL_PAIRS.len()];
    let mut large_uses = 0usize;
    let mut next_pair = 0usize;
    let mut smalls: Vec<usize> = Vec::new();
    let mut out: Vec<Submission> = Vec::with_capacity(count);
    for slot in 0..count {
        let submission = match slot % 10 {
            9 => {
                // Each predictor set advances through its own order: one
                // directory it ran last time, one it has not.
                let set = large_uses % LARGE_PREDICTORS.len();
                let uses = large_uses / LARGE_PREDICTORS.len();
                let order = &large_orders[set];
                let dirs = vec![
                    dirs[order[uses % n]].as_path(),
                    dirs[order[(uses + 1) % n]].as_path(),
                ];
                large_uses += 1;
                Submission {
                    kind: Kind::Large,
                    grid: grid(&LARGE_PREDICTORS[set], &LARGE_SCHEMES, dirs),
                }
            }
            4 if !smalls.is_empty() => {
                let earlier = smalls[rng.next_below(smalls.len() as u64) as usize];
                Submission {
                    kind: Kind::Resubmit,
                    grid: out[earlier].grid.clone(),
                }
            }
            _ => {
                let pair = next_pair % SMALL_PAIRS.len();
                next_pair += 1;
                let uses = small_uses[pair];
                small_uses[pair] += 1;
                let order = &small_orders[pair];
                let fresh = dirs[order[uses % n]].as_path();
                let dirs = if uses == 0 {
                    vec![fresh]
                } else {
                    vec![dirs[order[(uses - 1) % n]].as_path(), fresh]
                };
                smalls.push(slot);
                let (predictor, scheme) = SMALL_PAIRS[pair];
                Submission {
                    kind: Kind::Small,
                    grid: grid(&[predictor], &[scheme], dirs),
                }
            }
        };
        out.push(submission);
    }
    out
}

/// The outcome of one submission.
#[derive(Debug, Clone)]
struct Served {
    /// Milliseconds from the due time to the report's arrival.
    latency_ms: f64,
    /// The report document.
    report: String,
}

/// Everything one open-loop session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// Latency of every submission whose report arrived, in schedule order
    /// (`None` when it never did).
    latencies_ms: Vec<Option<f64>>,
    /// The reports, in schedule order.
    reports: Vec<Option<String>>,
    /// How late the generator started each submission, ms.
    late_ms: Vec<f64>,
    /// How long each `POST /campaigns` took, ms.
    ack_ms: Vec<f64>,
    /// Failures (refused or failed requests, missing reports).
    failures: Vec<String>,
    /// `GET /healthz` round trips, ms.
    rtt_ms: Vec<f64>,
    /// The daemon's `/metrics` document after the schedule.
    metrics: String,
}

impl Session {
    /// Why submissions failed (refused or failed requests, missing
    /// reports).
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// A number from the daemon's `/metrics` document.
    pub fn daemon_metric(&self, name: &str) -> Option<f64> {
        jsonish::number_field(&self.metrics, name)
    }
}

/// Starts a daemon over a fresh store under `work`, plays `schedule` at
/// `rate` submissions per second (`f64::INFINITY` posts them back to
/// back), waits for every report, times a few health checks and reads
/// `/metrics`, then stops the daemon.
///
/// # Errors
///
/// A message when the daemon cannot start.
pub fn play(schedule: &[Submission], rate: f64, work: &Path) -> Result<Session, String> {
    let daemon = start(ServeOptions {
        workers: WORKERS,
        ..ServeOptions::ephemeral(work.join("store"), work.join("journal"))
    })?;
    let host = daemon.addr().to_string();
    let (sender, receiver) = mpsc::channel::<(usize, Instant)>();
    let origin = Instant::now() + Duration::from_millis(50);
    let mut session = Session {
        latencies_ms: vec![None; schedule.len()],
        reports: vec![None; schedule.len()],
        ..Session::default()
    };
    let generator_failures = std::thread::scope(|scope| {
        let collector = scope.spawn(|| collect(&host, schedule, receiver));
        let mut failures = Vec::new();
        let mut late = Vec::with_capacity(schedule.len());
        let mut acks = Vec::with_capacity(schedule.len());
        for (index, submission) in schedule.iter().enumerate() {
            let due = origin + Duration::from_secs_f64(index as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late.push(due.elapsed().as_secs_f64() * 1e3);
            let _span = tracer::span("loadgen.submit");
            let body = submission.grid.to_json();
            let (response, ack) = tracer::timed("bench.service.post_campaigns", || {
                client_request(&host, "POST", "/campaigns", Some(&body))
            });
            acks.push(ack.as_secs_f64() * 1e3);
            match response {
                Ok((202, _)) => {
                    let _ = sender.send((index, due));
                }
                Ok((status, body)) => {
                    failures.push(format!("submission {index} refused ({status}): {body}"))
                }
                Err(error) => failures.push(format!("submission {index}: {error}")),
            }
        }
        drop(sender);
        let (served, collector_failures) = collector.join().expect("the collector thread panicked");
        failures.extend(collector_failures);
        session.late_ms = late;
        session.ack_ms = acks;
        for (index, served) in served {
            session.latencies_ms[index] = Some(served.latency_ms);
            session.reports[index] = Some(served.report);
        }
        failures
    });
    session.failures = generator_failures;
    for _ in 0..HEALTH_PROBES {
        let (response, rtt) = tracer::timed("bench.service.healthz", || {
            client_request(&host, "GET", "/healthz", None)
        });
        match response {
            Ok((200, _)) => session.rtt_ms.push(rtt.as_secs_f64() * 1e3),
            other => session.failures.push(format!("GET /healthz: {other:?}")),
        }
    }
    match client_request(&host, "GET", "/metrics", None) {
        Ok((200, body)) => session.metrics = body,
        other => session.failures.push(format!("GET /metrics: {other:?}")),
    }
    daemon.request_shutdown();
    daemon.join();
    Ok(session)
}

/// The polling client: takes accepted submissions from `accepted` and
/// polls each one's report until it arrives, until the generator is done
/// and nothing is outstanding (or the drain timeout passes).
fn collect(
    host: &str,
    schedule: &[Submission],
    accepted: mpsc::Receiver<(usize, Instant)>,
) -> (Vec<(usize, Served)>, Vec<String>) {
    let mut outstanding: Vec<(usize, Instant, String)> = Vec::new();
    let mut served = Vec::new();
    let mut failures = Vec::new();
    let mut generator_done = false;
    let mut deadline: Option<Instant> = None;
    loop {
        loop {
            let next = if outstanding.is_empty() && !generator_done {
                accepted
                    .recv()
                    .map_err(|_| mpsc::TryRecvError::Disconnected)
            } else {
                accepted.try_recv()
            };
            match next {
                Ok((index, due)) => {
                    outstanding.push((index, due, schedule[index].grid.id()));
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    generator_done = true;
                    deadline.get_or_insert(Instant::now() + DRAIN_TIMEOUT);
                    break;
                }
            }
        }
        if generator_done && outstanding.is_empty() {
            break;
        }
        if deadline.is_some_and(|d| Instant::now() > d) {
            for (index, _, _) in &outstanding {
                failures.push(format!(
                    "submission {index}: no report before the drain timeout"
                ));
            }
            break;
        }
        let mut still = Vec::with_capacity(outstanding.len());
        for (index, due, id) in outstanding.drain(..) {
            let path = format!("/campaigns/{id}/report");
            let (response, _) = tracer::timed("bench.service.get_report", || {
                client_request(host, "GET", &path, None)
            });
            match response {
                Ok((200, report)) => served.push((
                    index,
                    Served {
                        latency_ms: due.elapsed().as_secs_f64() * 1e3,
                        report,
                    },
                )),
                Ok((409, _)) => still.push((index, due, id)),
                Ok((status, body)) => {
                    failures.push(format!("submission {index}: report {status}: {body}"))
                }
                Err(error) => failures.push(format!("submission {index}: {error}")),
            }
        }
        outstanding = still;
        if !outstanding.is_empty() {
            std::thread::sleep(POLL_INTERVAL);
        }
    }
    (served, failures)
}

/// The distinct cells `schedule` names, by cell-store key: what a daemon
/// over a fresh store must compute, each exactly once.
///
/// # Errors
///
/// A message when a grid does not resolve to a campaign.
pub fn distinct_cells(schedule: &[Submission]) -> Result<HashSet<u64>, String> {
    let mut keys = HashSet::new();
    for submission in schedule {
        let spec = submission.grid.to_spec()?;
        let (points, _) = spec.expand();
        keys.extend(
            points
                .iter()
                .map(|point| cell_key(spec.branches_per_trace, point)),
        );
    }
    Ok(keys)
}

/// Branch predictions summed over the distinct points of `reports`: the
/// predictions a daemon over a fresh store computes to serve them all. A
/// timing-free point renders the same bytes in every report that holds
/// it. Also returns how many distinct points there were.
fn distinct_predictions(reports: &[Option<String>]) -> (u64, usize) {
    let mut seen = HashSet::new();
    let mut predictions = 0u64;
    for report in reports.iter().flatten() {
        for point in jsonish::extract_array_objects(report, "points") {
            if let Some(n) = jsonish::number_field(&point, "predictions") {
                if seen.insert(point) {
                    predictions += n as u64;
                }
            }
        }
    }
    (predictions, seen.len())
}

/// The distinct cells of `schedule` as few grids: one per predictor ×
/// scheme axis of the schedule, over every directory the schedule names
/// with that axis, in order of first use.
pub fn burst(schedule: &[Submission]) -> Vec<Submission> {
    let mut grids: Vec<Submission> = Vec::new();
    for submission in schedule {
        let grid = &submission.grid;
        match grids
            .iter_mut()
            .find(|b| b.grid.predictors == grid.predictors && b.grid.schemes == grid.schemes)
        {
            Some(merged) => {
                for dir in &grid.trace_dirs {
                    if !merged.grid.trace_dirs.contains(dir) {
                        merged.grid.trace_dirs.push(dir.clone());
                    }
                }
            }
            None => grids.push(submission.clone()),
        }
    }
    grids
}

/// Submissions whose served reports the run re-runs through the library: a
/// seeded choice that always includes a large grid and a resubmission.
fn verified_submissions(seed: u64, schedule: &[Submission]) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x7e51_f1ed);
    let mut verify: Vec<usize> = [Kind::Large, Kind::Resubmit]
        .iter()
        .filter_map(|kind| schedule.iter().position(|s| s.kind == *kind))
        .collect();
    while verify.len() < VERIFIED_GRIDS {
        verify.push(rng.next_below(schedule.len() as u64) as usize);
    }
    verify
}

/// Plays sessions of the workload's schedule over the run's window.
///
/// # Errors
///
/// A message when the daemon cannot start or a grid cannot be resolved.
pub fn measure(
    inputs: &Inputs,
    args: &RunArgs,
    window: Duration,
    work: &Path,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let start = Instant::now();
    let schedule = schedule(inputs.seed, &inputs.dirs, SESSION_SUBMISSIONS);
    let cells = distinct_cells(&schedule)?;
    let verify = verified_submissions(inputs.seed, &schedule);

    // Open-loop sessions: the latencies and the correctness checks.
    let mut pool = Pool::default();
    let mut kept: Vec<(usize, String)> = Vec::new();
    let mut first_reports = None;
    for index in 0..SESSIONS {
        let session = play(
            &schedule,
            RATE_PER_S,
            &work.join(format!("session-{index}")),
        )?;
        let _ = std::fs::remove_dir_all(work.join(format!("session-{index}")));
        for _ in &schedule {
            outcome.attempt();
        }
        for failure in session.failures() {
            outcome.fail(format!("serve-mix: {failure}"));
        }
        let computed = session.daemon_metric("cells_computed").unwrap_or(0.0) as u64;
        outcome.check(computed as usize == cells.len(), || {
            format!(
                "serve-mix: a daemon over a fresh store computed {computed} cells; the schedule names {} distinct cells",
                cells.len()
            )
        });
        let all: Vec<&str> = session
            .reports
            .iter()
            .map(|r| r.as_deref().unwrap_or(""))
            .collect();
        let all = all.concat();
        if first_reports.is_none() {
            check_digest(Workload::ServeMix, inputs.seed, &all, outcome);
            kept = verify
                .iter()
                .filter_map(|&i| session.reports[i].clone().map(|r| (i, r)))
                .collect();
        }
        check_repeatable(&mut first_reports, &all, "serve-mix", outcome);
        pool.add(&session, &schedule);
    }

    // Saturated bursts for the rest of the window: the daemon's throughput.
    let burst = burst(&schedule);
    let mut first_burst = None;
    let mut bursts = 0usize;
    let remaining = window.saturating_sub(start.elapsed());
    repeat_for(remaining, args.trace, outcome, |outcome| {
        let dir = work.join(format!("burst-{bursts}"));
        bursts += 1;
        let saturated = play(&burst, f64::INFINITY, &dir)?;
        let _ = std::fs::remove_dir_all(&dir);
        for _ in &burst {
            outcome.attempt();
        }
        for failure in saturated.failures() {
            outcome.fail(format!("serve-mix burst: {failure}"));
        }
        let computed = saturated.daemon_metric("cells_computed").unwrap_or(0.0) as u64;
        let busy = saturated.daemon_metric("busy_seconds").unwrap_or(0.0);
        let (predictions, points) = distinct_predictions(&saturated.reports);
        outcome.check(
            computed as usize == cells.len() && points == cells.len() && busy > 0.0,
            || {
                format!(
                    "serve-mix: the burst computed {computed} cells in {busy} s and reported {points} distinct points; the schedule names {} cells",
                    cells.len()
                )
            },
        );
        let all: Vec<&str> = saturated
            .reports
            .iter()
            .map(|r| r.as_deref().unwrap_or(""))
            .collect();
        check_repeatable(&mut first_burst, &all.concat(), "serve-mix burst", outcome);
        Ok(Sample {
            wall: busy,
            predictions,
            cells: computed,
            extra: Vec::new(),
        })
    })?;

    // Served reports byte-equal library runs of the same grids.
    let mut campaign_figures = Vec::new();
    for (index, served) in &kept {
        let spec = schedule[*index].grid.to_spec()?;
        let library = run_campaign_with_engine(&spec, WORKERS, EngineKind::Multilane)
            .map_err(|e| format!("serve-mix library run of submission {index}: {e}"))?;
        let (json, report_times) = render_checked(&library, outcome);
        outcome.check(&json == served, || {
            format!("serve-mix: submission {index}'s served report differs from a library run")
        });
        campaign_figures.extend(campaign_extras(&library));
        campaign_figures.extend(report_times);
    }
    outcome.check(kept.len() == verify.len(), || {
        format!(
            "serve-mix: {} of {} verified submissions were served",
            kept.len(),
            verify.len()
        )
    });
    let latencies = &pool.latencies_ms;
    outcome.notes.push(format!(
        "serve-mix: {SESSIONS} sessions of {SESSION_SUBMISSIONS} submissions at {RATE_PER_S}/s, submit-to-report p50 {:.1} ms, p90 {:.1} ms, generator late p90 {:.2} ms; {bursts} bursts of {} grids",
        quantile(latencies, 0.5),
        quantile(latencies, 0.9),
        quantile(&pool.late_ms, 0.9),
        burst.len(),
    ));
    if args.trace {
        for (name, value, samples) in pool.figures() {
            outcome.set(name, value, samples);
        }
        for name in [
            "bench.campaign.worker_busy_frac",
            "bench.campaign.cell_s.p50",
            "bench.campaign.cell_s.max",
            "bench.campaign.steals",
            "bench.report.render_ms",
            "bench.report.validate_ms",
        ] {
            let values: Vec<f64> = campaign_figures
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .collect();
            if !values.is_empty() {
                outcome.set(name, median(&values), values.len());
            }
        }
    }
    Ok(())
}

/// The service figures of one or more sessions, pooled.
#[derive(Debug, Default)]
pub struct Pool {
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    rtt_ms: Vec<f64>,
    server_walls_ms: Vec<f64>,
    cache_hits: f64,
    cache_misses: f64,
}

impl Pool {
    /// Adds a session of `schedule`.
    pub fn add(&mut self, session: &Session, schedule: &[Submission]) {
        self.latencies_ms
            .extend(session.latencies_ms.iter().flatten().copied());
        self.late_ms.extend(&session.late_ms);
        self.ack_ms.extend(&session.ack_ms);
        self.rtt_ms.extend(&session.rtt_ms);
        self.server_walls_ms.extend(
            schedule
                .iter()
                .filter_map(|s| session.daemon_metric(&s.grid.id()))
                .map(|seconds| seconds * 1e3),
        );
        self.cache_hits += session.daemon_metric("cache_hits").unwrap_or(0.0);
        self.cache_misses += session.daemon_metric("cache_misses").unwrap_or(0.0);
    }

    /// Submit-to-report percentiles, the generator's lateness,
    /// acknowledgement and round-trip times, the daemon's own campaign
    /// walls and its cell-store hit ratio — each with its sample count.
    pub fn figures(&self) -> Vec<(&'static str, f64, usize)> {
        let latencies = &self.latencies_ms;
        let n = latencies.len();
        vec![
            ("submit_to_report_p50_ms", quantile(latencies, 0.5), n),
            ("submit_to_report_p90_ms", quantile(latencies, 0.9), n),
            (
                "loadgen.late_ms.p90",
                quantile(&self.late_ms, 0.9),
                self.late_ms.len(),
            ),
            (
                "bench.service.ack_ms",
                median(&self.ack_ms),
                self.ack_ms.len(),
            ),
            (
                "bench.service.http_rtt_ms",
                median(&self.rtt_ms),
                self.rtt_ms.len(),
            ),
            (
                "bench.service.server_wall_ms",
                median(&self.server_walls_ms),
                self.server_walls_ms.len(),
            ),
            (
                "bench.cellstore.hit_ratio",
                ratio(self.cache_hits, self.cache_hits + self.cache_misses),
                1,
            ),
        ]
    }
}
