//! Seeded generation: different seeds give different inputs, one seed gives
//! identical inputs and identical report bytes; and the metric sets this
//! crate prints match the repository's `BENCHMARK.json`.

use std::path::PathBuf;

use perfbench::inputs::{category_suites, cbpb_bytes, seeded_suite};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workloads::grid_cold::{campaign, PREDICTORS, SCHEMES};
use perfbench::workloads::serve_mix::{burst, distinct_cells, schedule, Kind, DIRS};
use perfbench::RunArgs;
use tage_bench::campaign::run_campaign_with_engine;
use tage_bench::jsonish;
use tage_sim::EngineKind;
use tage_traces::BranchRecord;

const BRANCHES: usize = 2_000;

#[test]
fn two_seeds_give_different_traces_and_one_seed_the_same() {
    let records = |seed: u64| -> Vec<Vec<BranchRecord>> {
        seeded_suite(seed)
            .traces()
            .iter()
            .map(|spec| spec.generate(BRANCHES).records().to_vec())
            .collect()
    };
    let one = records(1);
    assert_eq!(one, records(1));
    let two = records(2);
    assert!(one.iter().zip(&two).all(|(a, b)| a != b));
}

#[test]
fn one_seed_gives_identical_report_bytes_across_runs() {
    let run = |seed: u64| {
        let spec = campaign(
            "determinism",
            &PREDICTORS,
            &SCHEMES,
            category_suites(&seeded_suite(seed)),
            BRANCHES,
        );
        run_campaign_with_engine(&spec, 2, EngineKind::Multilane)
            .expect("synthetic cells run")
            .render_json(false)
    };
    let first = run(7);
    assert_eq!(first, run(7));
    assert_ne!(first, run(8));
    assert_eq!(jsonish::extract_array_objects(&first, "points").len(), 28);
}

#[test]
fn the_serve_schedule_is_seeded_and_mixes_its_kinds() {
    let dirs: Vec<PathBuf> = (0..DIRS)
        .map(|i| PathBuf::from(format!("t{i:02}")))
        .collect();
    let ids = |seed| -> Vec<String> {
        schedule(seed, &dirs, 100)
            .iter()
            .map(|s| s.grid.id())
            .collect()
    };
    assert_eq!(ids(3), ids(3));
    assert_ne!(ids(3), ids(4));
    let plan = schedule(3, &dirs, 100);
    let count = |kind| plan.iter().filter(|s| s.kind == kind).count();
    assert_eq!(
        (
            count(Kind::Small),
            count(Kind::Resubmit),
            count(Kind::Large)
        ),
        (80, 10, 10)
    );
    for (index, submission) in plan.iter().enumerate() {
        if submission.kind == Kind::Resubmit {
            assert!(plan[..index].iter().any(|s| s.grid == submission.grid));
        }
    }
}

/// Fifty submissions hold 40 small grids (12 first uses of a pair with one
/// fresh cell, 28 later ones with one fresh and one repeated cell), five
/// resubmissions and five large grids (three of one predictor set over
/// four directories, two of the other over three, four cells per
/// directory): 40 + 16 + 12 distinct cells.
#[test]
fn a_session_names_68_distinct_cells_and_its_burst_each_once() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("test-cells-{}", std::process::id()));
    let specs = seeded_suite(5).traces().to_vec();
    let dirs = perfbench::inputs::export_one_per_dir(&specs, 500, &root).unwrap();
    let plan = schedule(5, &dirs, 50);
    let distinct = distinct_cells(&plan);
    let merged = burst(&plan);
    let burst_cells = distinct_cells(&merged);
    std::fs::remove_dir_all(&root).unwrap();
    assert_eq!(distinct.as_ref().map(|cells| cells.len()), Ok(68));
    // The burst names the same cells, each once, in 12 small and 2 large
    // grids.
    assert_eq!(burst_cells, distinct);
    assert_eq!(merged.len(), 14);
    let requested: usize = merged
        .iter()
        .map(|s| s.grid.predictors.len() * s.grid.schemes.len() * s.grid.trace_dirs.len())
        .sum();
    assert_eq!(requested, 68);
}

#[test]
fn cbp_binary_export_keeps_only_conditional_branches() {
    let records = [
        BranchRecord::conditional(0x40, true),
        BranchRecord {
            kind: tage_traces::BranchKind::Call,
            ..BranchRecord::conditional(0x44, true)
        },
        BranchRecord::conditional(0x48, false),
    ];
    let bytes = cbpb_bytes(&records);
    assert_eq!(bytes.len(), 18);
    assert_eq!(&bytes[..9], &[0x40, 0, 0, 0, 0, 0, 0, 0, 1]);
    assert_eq!(bytes[17], 0);
}

#[test]
fn the_command_line_follows_the_benchmark_contract() {
    let args = |list: &[&str]| RunArgs::parse(list.iter().map(|s| s.to_string()));
    let parsed = args(&[
        "--workload",
        "serve-mix",
        "--seed",
        "9",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (9, 3, true));
    assert!(args(&["--workload", "nope"]).is_err());
    assert!(args(&["--workload", "grid-cold", "--trace", "2"]).is_err());
    assert!(args(&["--workload", "sampled"]).is_err());
    assert!(args(&["--seed", "1"]).is_err());
}

#[test]
fn printed_metric_sets_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (section, metrics) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(String, String)> = jsonish::extract_array_objects(&json, section)
            .iter()
            .map(|object| {
                (
                    jsonish::string_field(object, "name").expect("a name"),
                    jsonish::string_field(object, "unit").expect("a unit"),
                )
            })
            .collect();
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect();
        assert_eq!(listed, printed, "{section} differs from BENCHMARK.json");
    }
}
