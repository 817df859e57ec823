//! `grid-cold`: the paper's own workload. The grid {tage-16k, tage-64k,
//! tage-256k, gshare} × {storage-free, jrs-classic} over the seeded suite,
//! run as a checkpointed campaign into a fresh cell store on every
//! repetition. Storage-free cells take the lane-batched engine, jrs cells
//! the scalar engine with an estimator table; gshare × storage-free is
//! skipped by the grid.
//!
//! The suite axis holds the seeded suite split into its four workload
//! categories (FP, INT, MM, SERV), which makes 28 cells instead of 7: with
//! two workers and seven uneven cells, which cell happens to run last would
//! set most of the wall time, and that order shifts with small timing
//! noise.

use std::path::Path;
use std::time::{Duration, Instant};

use tage_bench::campaign::{run_campaign_checkpointed, CampaignSpec};
use tage_bench::cellstore::{cell_key, CellStore};
use tage_sim::point::{PredictorSpec, SchemeSpec};
use tage_sim::scenarios::ScenarioSpec;
use tage_sim::EngineKind;
use tage_traces::source::SourceSuite;
use tage_traces::Suite;

use super::{
    campaign_extras, check_digest, check_repeatable, render_checked, repeat_for,
    report_predictions, Inputs, Sample, Workload, WORKERS,
};
use crate::inputs;
use crate::report::Outcome;
use crate::tracer;
use crate::RunArgs;

/// Conditional branches per trace.
pub const BRANCHES_PER_TRACE: usize = 100_000;

/// The predictor axis.
pub const PREDICTORS: [&str; 4] = ["tage-16k", "tage-64k", "tage-256k", "gshare"];

/// The confidence-scheme axis.
pub const SCHEMES: [&str; 2] = ["storage-free", "jrs-classic"];

/// Executable cells of the grid: seven predictor × scheme pairs (gshare ×
/// storage-free is skipped) over four category suites.
pub const CELLS: usize = 28;

/// Builds a campaign over `suite` from axis tokens.
///
/// # Panics
///
/// Panics on an unknown token: the tokens are this crate's constants.
pub fn campaign(
    label: &str,
    predictors: &[&str],
    schemes: &[&str],
    suites: Vec<SourceSuite>,
    branches_per_trace: usize,
) -> CampaignSpec {
    CampaignSpec {
        label: label.to_string(),
        predictors: predictors
            .iter()
            .map(|t| PredictorSpec::parse(t).expect("known predictor token"))
            .collect(),
        schemes: schemes
            .iter()
            .map(|t| SchemeSpec::parse(t).expect("known scheme token"))
            .collect(),
        suites,
        scenarios: vec![ScenarioSpec::Baseline],
        branches_per_trace,
    }
}

/// The workload's campaign over the seeded suite.
pub fn spec(suite: &Suite) -> CampaignSpec {
    campaign(
        "grid-cold",
        &PREDICTORS,
        &SCHEMES,
        inputs::category_suites(suite),
        BRANCHES_PER_TRACE,
    )
}

/// Expands the campaign into its cells and derives each cell's store key
/// (which digests the cell's suite), as a checkpointed run does before it
/// executes anything.
///
/// # Errors
///
/// A message when the grid does not expand to [`CELLS`] distinct keys.
pub fn plan(spec: &CampaignSpec) -> Result<(), String> {
    let (points, _) = spec.expand();
    let mut keys: Vec<u64> = points
        .iter()
        .map(|point| cell_key(spec.branches_per_trace, point))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    if keys.len() == CELLS {
        Ok(())
    } else {
        Err(format!(
            "grid-cold expands to {} distinct cells, not {CELLS}",
            keys.len()
        ))
    }
}

/// Runs the grid into a fresh store per repetition until `window` elapses.
///
/// # Errors
///
/// A message when the store cannot be created or a cell fails to run.
pub fn measure(
    inputs: &Inputs,
    args: &RunArgs,
    window: Duration,
    work: &Path,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let spec = inputs
        .campaign
        .as_ref()
        .ok_or("grid-cold inputs hold no campaign")?;
    let mut first = None;
    let mut repetition = 0usize;
    repeat_for(window, args.trace, outcome, |outcome| {
        let store_dir = work.join(format!("store-{repetition}"));
        repetition += 1;
        let start = Instant::now();
        let (store, _) = tracer::timed("bench.cellstore.new", || CellStore::new(&store_dir));
        let store = store.map_err(|e| format!("cell store {}: {e}", store_dir.display()))?;
        let (run, _) = tracer::timed("bench.campaign.run_campaign_checkpointed", || {
            run_campaign_checkpointed(spec, WORKERS, EngineKind::Multilane, &store, None)
        });
        let run = run.map_err(|e| format!("grid-cold campaign failed: {e}"))?;
        let (json, report_times) = render_checked(&run.report, outcome);
        let wall = start.elapsed().as_secs_f64();
        for _ in 0..run.executed {
            outcome.attempt();
        }
        outcome.check(run.executed == CELLS && run.restored == 0, || {
            format!(
                "grid-cold: a fresh store executed {} and restored {} of {CELLS} cells",
                run.executed, run.restored
            )
        });
        let lookups = (store.hits() + store.misses()) as f64;
        let mut extra = campaign_extras(&run.report);
        extra.extend(report_times);
        extra.push((
            "bench.cellstore.hit_ratio",
            crate::stats::ratio(store.hits() as f64, lookups),
        ));
        if first.is_none() {
            check_digest(Workload::GridCold, inputs.seed, &json, outcome);
        }
        check_repeatable(&mut first, &json, "grid-cold", outcome);
        drop(store);
        let _ = std::fs::remove_dir_all(&store_dir);
        Ok(Sample {
            wall,
            predictions: report_predictions(&json),
            cells: CELLS as u64,
            extra,
        })
    })
}
