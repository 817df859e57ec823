//! The benchmark's workloads. Each derives its inputs from the seed in
//! [`Workload::setup`] and runs its operation for the measurement window
//! in [`Workload::measure`].
//!
//! - `grid-cold`: the paper's grid as a checkpointed campaign into a fresh
//!   cell store ([`grid_cold`]).
//! - `serve-mix`: an open-loop schedule of grids against an in-process
//!   campaign daemon ([`serve_mix`]).
//!
//! The trace decoders, snapshots, phase sampling and the warm-state cache
//! have no workload of their own: every traced run's [`crate::probe`]
//! measures them.

pub mod grid_cold;
pub mod serve_mix;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tage_bench::campaign::{validate_report, CampaignReport, CampaignSpec};
use tage_bench::jsonish;
use tage_traces::snapshot::fnv1a64;
use tage_traces::Suite;

use crate::inputs;
use crate::report::Outcome;
use crate::stats::{max, median};
use crate::tracer;
use crate::{reference, RunArgs, DEFAULT_SEED};

/// Campaign worker threads (and daemon workers): the host's core count.
pub const WORKERS: usize = 2;

/// Timing-free report digests of each workload at [`DEFAULT_SEED`]. A run
/// with that seed fails when its reports hash differently: the simulated
/// statistics drifted.
pub const EXPECTED_DIGESTS: [(&str, u64); 2] = [
    ("grid-cold", 0x83ca_d709_91db_ebd6),
    ("serve-mix", 0x28a1_e685_6360_9858),
];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's predictor × scheme grid as a cold checkpointed campaign.
    GridCold,
    /// Open-loop grid submissions to an in-process daemon.
    ServeMix,
}

impl Workload {
    /// Every workload, in listing order.
    pub const ALL: [Workload; 2] = [Workload::GridCold, Workload::ServeMix];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridCold => "grid-cold",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generates the workload's inputs from `seed` under `root`: on
    /// `grid-cold` the campaign over the seeded suite and its cell keys, on
    /// `serve-mix` one exported trace file per directory.
    ///
    /// # Errors
    ///
    /// A message when an input file cannot be written.
    pub fn setup(self, seed: u64, root: &Path) -> Result<Inputs, String> {
        let suite = inputs::seeded_suite(seed);
        let mut prepared = Inputs {
            root: root.to_path_buf(),
            seed,
            suite,
            campaign: None,
            dirs: Vec::new(),
        };
        match self {
            Workload::GridCold => {
                let spec = grid_cold::spec(&prepared.suite);
                grid_cold::plan(&spec)?;
                prepared.campaign = Some(spec);
            }
            Workload::ServeMix => {
                let mut traces = prepared.suite.traces().to_vec();
                traces.extend_from_slice(inputs::seeded_suite(!seed).traces());
                traces.truncate(serve_mix::DIRS);
                prepared.dirs =
                    inputs::export_one_per_dir(&traces, serve_mix::BRANCHES_PER_TRACE, root)?
            }
        }
        Ok(prepared)
    }

    /// Runs the workload for `window` and records its metrics into
    /// `outcome`: the end-to-end set for an untraced run, the workload's own
    /// per-layer figures for a traced one.
    ///
    /// # Errors
    ///
    /// A message when the workload could not run at all.
    pub fn measure(
        self,
        inputs: &Inputs,
        args: &RunArgs,
        window: Duration,
        work: &Path,
        outcome: &mut Outcome,
    ) -> Result<(), String> {
        match self {
            Workload::GridCold => grid_cold::measure(inputs, args, window, work, outcome),
            Workload::ServeMix => serve_mix::measure(inputs, args, window, work, outcome),
        }
    }
}

/// A workload's generated inputs. The directory they were written under is
/// removed when they are dropped.
#[derive(Debug)]
pub struct Inputs {
    /// Directory holding the exported files (`serve-mix` only).
    pub root: PathBuf,
    /// The seed they were generated from.
    pub seed: u64,
    /// The seeded suite.
    pub suite: Suite,
    /// The campaign `grid-cold` runs.
    pub campaign: Option<CampaignSpec>,
    /// Exported one-trace directories (`serve-mix`).
    pub dirs: Vec<PathBuf>,
}

impl Drop for Inputs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// What one repetition of a workload's operation produced.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Wall seconds of the operation.
    pub wall: f64,
    /// Branch predictions in the reports it produced.
    pub predictions: u64,
    /// Campaign cells it reported.
    pub cells: u64,
    /// Per-layer figures the operation measured along the way.
    pub extra: Vec<(&'static str, f64)>,
}

/// Repeats `operation` until `window` has elapsed, then records the
/// end-to-end metrics of an untraced run or, for a traced run, the
/// per-layer figures plus the tracing overhead. The first repetition warms
/// caches and the allocator and is not timed (its checks count); at least
/// one more always runs. The [`crate::reference`] kernel runs after the
/// warm-up and after every repetition; the gated rates are the median
/// per-second rates times the median kernel time. A traced run alternates
/// untraced and traced repetitions so the overhead is measured within one
/// process.
///
/// # Errors
///
/// The first error `operation` returns.
pub fn repeat_for(
    window: Duration,
    traced: bool,
    outcome: &mut Outcome,
    mut operation: impl FnMut(&mut Outcome) -> Result<Sample, String>,
) -> Result<(), String> {
    let start = Instant::now();
    operation(outcome)?;
    let mut references = vec![reference::kernel_seconds()];
    let mut plain = Vec::new();
    let mut with_spans = Vec::new();
    // Stop before a repetition that would likely run past the window.
    let mut longest = Duration::ZERO;
    while plain.is_empty()
        || (traced && with_spans.is_empty())
        || start.elapsed() + longest.min(window / 4) < window
    {
        let repetition = Instant::now();
        let trace_this = traced && plain.len() > with_spans.len();
        tracer::set_enabled(trace_this);
        let sample = operation(outcome);
        tracer::set_enabled(false);
        let sample = sample?;
        references.push(reference::kernel_seconds());
        longest = longest.max(repetition.elapsed());
        if trace_this {
            with_spans.push(sample);
        } else {
            plain.push(sample);
        }
    }
    // The per-layer figures the repetitions measured: recorded by a traced
    // run, shown as notes by an untraced one.
    let all: Vec<&Sample> = plain.iter().chain(&with_spans).collect();
    let mut names: Vec<&'static str> = all
        .iter()
        .flat_map(|s| s.extra.iter().map(|(name, _)| *name))
        .collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let values: Vec<f64> = all
            .iter()
            .flat_map(|s| s.extra.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v))
            .collect();
        if traced {
            outcome.set(name, median(&values), values.len());
        } else {
            outcome.notes.push(format!(
                "{name:<40} {:>16.6} median (n={})",
                median(&values),
                values.len()
            ));
        }
    }
    let n = plain.len();
    let walls: Vec<f64> = plain.iter().map(|s| s.wall).collect();
    let wall_s = median(&walls);
    let reference_s = median(&references);
    let rate = |count: fn(&Sample) -> u64| -> f64 {
        median(
            &plain
                .iter()
                .map(|s| count(s) as f64 / s.wall)
                .collect::<Vec<_>>(),
        )
    };
    let (branches_per_s, cells_per_s) = (rate(|s| s.predictions), rate(|s| s.cells));
    // The host-time figures behind the gated rates: per-layer metrics of a
    // traced run, notes of an untraced one.
    for (name, value, samples) in [
        ("wall_s", wall_s, n),
        ("branches_per_s", branches_per_s, n),
        ("cells_per_s", cells_per_s, n),
        ("ref.kernel_ms", reference_s * 1e3, references.len()),
    ] {
        if traced {
            outcome.set(name, value, samples);
        } else {
            outcome.notes.push(format!(
                "{name:<40} {value:>16.6} host time, not gated (n={samples})"
            ));
        }
    }
    if traced {
        let walls_traced: Vec<f64> = with_spans.iter().map(|s| s.wall).collect();
        outcome.set(
            "trace.overhead_s",
            median(&walls_traced) - wall_s,
            with_spans.len(),
        );
    } else {
        let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
        outcome
            .notes
            .push(format!("wall_s samples: {}", listed.join(" ")));
        let listed: Vec<String> = references
            .iter()
            .map(|r| format!("{:.1}", r * 1e3))
            .collect();
        outcome
            .notes
            .push(format!("ref.kernel_ms samples: {}", listed.join(" ")));
        outcome.set("branches_per_ref", branches_per_s * reference_s, n);
        outcome.set("cells_per_ref", cells_per_s * reference_s, n);
    }
    Ok(())
}

/// Renders `report` timing-free and validates it, checking the validation
/// into `outcome`. Returns the bytes and the render and validate times as
/// per-layer figures.
pub fn render_checked(
    report: &CampaignReport,
    outcome: &mut Outcome,
) -> (String, [(&'static str, f64); 2]) {
    let (json, render) = tracer::timed("bench.report.render_json", || report.render_json(false));
    let (validated, validate) =
        tracer::timed("bench.report.validate_report", || validate_report(&json));
    outcome.check(validated.is_ok(), || {
        format!(
            "report of {} does not validate: {validated:?}",
            report.label
        )
    });
    (
        json,
        [
            ("bench.report.render_ms", render.as_secs_f64() * 1e3),
            ("bench.report.validate_ms", validate.as_secs_f64() * 1e3),
        ],
    )
}

/// Per-layer campaign figures of one executed report: how busy the workers
/// were, the median and slowest cell, and the scheduler's steals.
pub fn campaign_extras(report: &CampaignReport) -> Vec<(&'static str, f64)> {
    let walls: Vec<f64> = report
        .points
        .iter()
        .filter_map(|cell| cell.computed())
        .map(|point| point.wall_seconds)
        .collect();
    if walls.is_empty() {
        return Vec::new();
    }
    let busy = walls.iter().sum::<f64>() / (report.workers as f64 * report.wall_seconds);
    vec![
        ("bench.campaign.worker_busy_frac", busy),
        ("bench.campaign.cell_s.p50", median(&walls)),
        ("bench.campaign.cell_s.max", max(&walls)),
        ("bench.campaign.steals", report.steals as f64),
    ]
}

/// Branch predictions summed over a rendered report's points.
pub fn report_predictions(json: &str) -> u64 {
    jsonish::extract_array_objects(json, "points")
        .iter()
        .filter_map(|point| jsonish::number_field(point, "predictions"))
        .map(|n| n as u64)
        .sum()
}

/// Checks that this repetition's report bytes equal the first
/// repetition's, remembering the first.
pub fn check_repeatable(first: &mut Option<String>, json: &str, what: &str, outcome: &mut Outcome) {
    match first {
        None => *first = Some(json.to_string()),
        Some(expected) => outcome.check(expected == json, || {
            format!("{what}: the report changed between repetitions of the same inputs")
        }),
    }
}

/// At [`DEFAULT_SEED`], checks the digest of the workload's timing-free
/// reports against [`EXPECTED_DIGESTS`]; at every seed, notes it.
pub fn check_digest(workload: Workload, seed: u64, reports: &str, outcome: &mut Outcome) {
    let digest = fnv1a64(reports.as_bytes());
    outcome.notes.push(format!(
        "report digest ({} seed {seed}): {digest:#018x}",
        workload.name()
    ));
    if seed != DEFAULT_SEED {
        return;
    }
    let expected = EXPECTED_DIGESTS
        .iter()
        .find(|(name, _)| *name == workload.name())
        .map(|(_, digest)| *digest);
    outcome.check(expected == Some(digest), || {
        format!(
            "{}: report digest {digest:#018x} differs from the committed {:#018x}",
            workload.name(),
            expected.unwrap_or(0)
        )
    });
}
