//! The layer probe of a traced run: times the calls into each layer's
//! public functions over the first [`PROBE_TRACES`] traces of the run's own
//! seeded suite, cut to [`PROBE_BRANCHES`] branches.
//!
//! Per-call timings are corrected by the measured cost of reading the
//! clock ([`calibrate_timer_ns`]). Figures a workload already measured on
//! its own operation (the campaign figures on `grid-cold`, the service
//! latencies on `serve-mix`) are kept; the probe fills in the rest with
//! small versions of the same operations, so every traced run reports every
//! per-layer metric. The decoders, snapshots, phase sampling and the
//! warm-state cache are measured here only.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use tage::{LaneGroup, TageBlueprint, TagePredictor};
use tage_bench::campaign::run_campaign_with_engine;
use tage_bench::cellstore::{cell_key, CellStore};
use tage_confidence::estimators::EstimatorSpec;
use tage_confidence::scheme::{ConfidenceScheme, EstimatorScheme};
use tage_confidence::TageConfidenceClassifier;
use tage_predictors::{MarginPredictor, PredictorCore};
use tage_sim::engine::{ReportObserver, SimEngine};
use tage_sim::multilane::{MultilaneEngine, DEFAULT_LANES};
use tage_sim::phase::{build_plan, run_sampled_source};
use tage_sim::point::PredictorSpec;
use tage_sim::runner::{run_source, RunOptions};
use tage_sim::warmcache::WarmCache;
use tage_sim::EngineKind;
use tage_traces::decoder::decode_file;
use tage_traces::source::{
    BinaryFileSource, BranchSource, SamplingSpec, SourceSuite, SyntheticSource,
};
use tage_traces::{BranchRecord, Suite, TraceSpec};

use crate::alloc;
use crate::inputs::{self, Format};
use crate::report::Outcome;
use crate::stats::{median, ratio};
use crate::tracer::{self, Tally};
use crate::workloads::grid_cold::campaign;
use crate::workloads::serve_mix;
use crate::workloads::{campaign_extras, render_checked, Inputs, WORKERS};

/// Traces of the run's suite the probe uses.
pub const PROBE_TRACES: usize = 4;

/// Conditional branches per probe trace.
pub const PROBE_BRANCHES: usize = 50_000;

/// Submissions of the probe's small service session.
const PROBE_SUBMISSIONS: usize = 20;

/// Snapshot saves and restores timed.
const SNAPSHOT_REPEATS: usize = 20;

/// Cell-store loads and stores timed per cell.
const CELLSTORE_REPEATS: usize = 10;

/// The predictor every single-predictor probe uses.
const PROBE_PREDICTOR: &str = "tage-64k";

/// The plan of the cold sampled probe cell: default-sized slices in at
/// most two phases.
const PLAN_COLD: SamplingSpec = SamplingSpec {
    interval: SamplingSpec::DEFAULT_INTERVAL,
    k: 2,
    seed: 1,
};

/// The plan of the warm sampled probe cell: the cold plan under another
/// clustering seed, so it restores the checkpoints the cold cell wrote
/// wherever the two plans pick the same slice.
const PLAN_WARM: SamplingSpec = SamplingSpec {
    seed: 2,
    ..PLAN_COLD
};

/// The median cost of reading the monotonic clock, nanoseconds: what one
/// timed call's measured duration overstates its true duration by.
pub fn calibrate_timer_ns() -> f64 {
    let samples: Vec<f64> = (0..10_001)
        .map(|_| {
            let start = Instant::now();
            let end = Instant::now();
            end.duration_since(start).as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Runs the probe and records every per-layer metric the workload did not
/// measure itself.
///
/// # Errors
///
/// A message when a probe input cannot be written or an operation fails.
pub fn run(inputs: &Inputs, work: &Path, outcome: &mut Outcome) -> Result<(), String> {
    tracer::set_enabled(true);
    let timer_ns = calibrate_timer_ns();
    outcome.set("trace.timer_ns", timer_ns, 10_001);
    let probe_suite = Suite::new(
        inputs::SUITE_NAME,
        inputs.suite.traces()[..PROBE_TRACES].to_vec(),
    );
    let predictor_spec = PredictorSpec::parse(PROBE_PREDICTOR).expect("known predictor token");
    let blueprint = predictor_spec
        .tage_blueprint()
        .expect("the probe predictor is a TAGE");
    let records: Vec<Vec<BranchRecord>> = probe_suite
        .traces()
        .iter()
        .map(|spec| spec.generate(PROBE_BRANCHES).records().to_vec())
        .collect();

    let hot = hot_path(blueprint, &records, timer_ns, outcome);
    synthetic_and_engines(blueprint, &probe_suite, timer_ns, &hot, outcome);
    lanes(blueprint, &records, outcome);
    jrs(blueprint, &records, outcome);
    let probe_dir = work.join("probe");
    decoders(&probe_suite, &probe_dir, outcome)?;
    phase(blueprint, &probe_suite, &probe_dir, outcome)?;
    campaign_and_store(&probe_suite, &probe_dir, outcome)?;
    if !outcome.values.contains_key("submit_to_report_p50_ms") {
        service(inputs.seed, &probe_suite, &probe_dir, outcome)?;
    }
    tracer::set_enabled(false);
    let _ = std::fs::remove_dir_all(&probe_dir);
    Ok(())
}

/// Per-branch timings of the direct predictor and classifier calls.
struct HotPath {
    predict_ns: f64,
    update_ns: f64,
    classify_ns: f64,
}

/// Lookups buffered before a batch of classifier (or estimator) calls is
/// timed: small enough that the batch reads them from cache.
const BATCH: usize = 256;

/// The predict → classify → update work the engine does per branch, called
/// directly. Predict and update are timed per call; the clock reads keep
/// neighbouring calls from overlapping, so the two are then scaled to the
/// time the same predict → update loop takes without per-call timers,
/// split in the timed ratio. The classifier — a few nanoseconds per call,
/// below what one clock read resolves — is timed per batch: every
/// [`BATCH`] branches it grades the lookups and outcomes the predictor loop
/// just buffered, in the same order. Counts heap allocations around the
/// loop and reads the predictor's simulated allocation statistics
/// afterwards.
fn hot_path(
    blueprint: &dyn TageBlueprint,
    records: &[Vec<BranchRecord>],
    timer_ns: f64,
    outcome: &mut Outcome,
) -> HotPath {
    let _span = tracer::span("sim.probe.hot_path");
    let mut predict = Tally::default();
    let mut classify = Tally::default();
    let mut update = Tally::default();
    let mut branches = 0u64;
    let mut allocations = 0u64;
    let mut stats = tage::predictor::TageStats::default();
    let mut checksum = 0u64;
    let mut snapshot_predictor = None;
    let mut lookups = Vec::with_capacity(BATCH);
    for trace in records {
        let mut predictor = TagePredictor::new(blueprint);
        let mut classifier = TageConfidenceClassifier::new(blueprint);
        let mut grade = |lookups: &mut Vec<(tage::TagePrediction, bool)>| {
            let start = Instant::now();
            for (prediction, taken) in lookups.iter() {
                let class = classifier.classify_and_observe(prediction, *taken);
                checksum = checksum.wrapping_add(class as u64);
            }
            classify.add_calls(start, start.elapsed(), lookups.len() as u64);
            lookups.clear();
        };
        let before = alloc::allocations();
        for record in trace.iter().filter(|r| r.kind.is_conditional()) {
            let prediction = predict.time(|| predictor.predict(record.pc));
            update.time(|| predictor.update(record.pc, record.taken, &prediction));
            lookups.push((prediction, record.taken));
            branches += 1;
            if lookups.len() == BATCH {
                grade(&mut lookups);
            }
        }
        grade(&mut lookups);
        allocations += alloc::allocations() - before;
        let trace_stats = predictor.stats();
        stats.updates += trace_stats.updates;
        stats.allocations += trace_stats.allocations;
        stats.allocation_failures += trace_stats.allocation_failures;
        stats.useful_resets += trace_stats.useful_resets;
        snapshot_predictor = Some(predictor);
    }
    black_box(checksum);
    tracer::record_tally("tage.predict", &predict);
    tracer::record_tally("confidence.classify", &classify);
    tracer::record_tally("tage.update", &update);
    let mut untimed_ns = 0u64;
    for trace in records {
        let mut predictor = TagePredictor::new(blueprint);
        let start = Instant::now();
        for record in trace.iter().filter(|r| r.kind.is_conditional()) {
            let prediction = predictor.predict(record.pc);
            predictor.update(record.pc, record.taken, &prediction);
        }
        untimed_ns += start.elapsed().as_nanos() as u64;
        black_box(&predictor);
    }
    let timed_predict = predict.ns_per_call(timer_ns).max(0.0);
    let timed_update = update.ns_per_call(timer_ns).max(0.0);
    let untimed = ratio(untimed_ns as f64, branches as f64);
    let predict_share = ratio(timed_predict, timed_predict + timed_update);
    let hot = HotPath {
        predict_ns: untimed * predict_share,
        update_ns: untimed * (1.0 - predict_share),
        classify_ns: classify.ns_per_call(0.0),
    };
    let n = branches as usize;
    outcome.set("tage.predict.ns_per_branch", hot.predict_ns, n);
    outcome.set("tage.update.ns_per_branch", hot.update_ns, n);
    outcome.set("confidence.classify.ns_per_branch", hot.classify_ns, n);
    outcome.set(
        "tage.allocs_per_branch",
        allocations as f64 / branches as f64,
        n,
    );
    outcome.check(allocations == 0, || {
        format!("the predict/classify/update loop made {allocations} heap allocations")
    });
    outcome.set(
        "tage.alloc_success_ratio",
        ratio(
            stats.allocations as f64,
            (stats.allocations + stats.allocation_failures) as f64,
        ),
        stats.updates as usize,
    );
    outcome.set(
        "tage.useful_resets_per_kbr",
        1e3 * ratio(stats.useful_resets as f64, stats.updates as f64),
        stats.updates as usize,
    );
    if let Some(trained) = snapshot_predictor {
        snapshots(blueprint, &trained, outcome);
    }
    hot
}

/// Snapshot save and restore of a trained predictor.
fn snapshots(blueprint: &dyn TageBlueprint, trained: &TagePredictor, outcome: &mut Outcome) {
    let _span = tracer::span("traces.snapshot.probe");
    let mut save = Tally::default();
    let mut restore = Tally::default();
    let mut bytes = Vec::new();
    let mut target = TagePredictor::new(blueprint);
    for _ in 0..SNAPSHOT_REPEATS {
        bytes = save.time(|| trained.snapshot());
        let restored = restore.time(|| target.restore(&bytes));
        outcome.check(restored.is_ok(), || {
            format!("a predictor snapshot did not restore: {restored:?}")
        });
    }
    tracer::record_tally("tage.snapshot", &save);
    tracer::record_tally("tage.restore", &restore);
    outcome.set(
        "traces.snapshot.save_us",
        save.ns_per_call(0.0) / 1e3,
        SNAPSHOT_REPEATS,
    );
    outcome.set(
        "traces.snapshot.restore_us",
        restore.ns_per_call(0.0) / 1e3,
        SNAPSHOT_REPEATS,
    );
    outcome.set(
        "traces.snapshot.bytes",
        bytes.len() as f64,
        SNAPSHOT_REPEATS,
    );
}

/// Synthetic generation alone, the scalar engine and the lane-batched
/// engine over the same streams, and the reconciliation of the scalar
/// engine's cost against its parts.
fn synthetic_and_engines(
    blueprint: &dyn TageBlueprint,
    suite: &Suite,
    timer_ns: f64,
    hot: &HotPath,
    outcome: &mut Outcome,
) {
    let mut batch = vec![BranchRecord::default(); tage_traces::source::DEFAULT_CHUNK_RECORDS];
    let mut generate = Tally::default();
    let mut records = 0u64;
    {
        let _span = tracer::span("traces.synthetic.drain");
        for spec in suite.traces() {
            let mut source = SyntheticSource::from_spec(spec, PROBE_BRANCHES);
            loop {
                let filled = generate
                    .time(|| source.next_batch(&mut batch))
                    .expect("synthetic sources are infallible");
                if filled == 0 {
                    break;
                }
                records += filled as u64;
            }
        }
        tracer::record_tally("traces.synthetic.next_batch", &generate);
    }
    let synthetic_ns = ratio(generate.busy_ns as f64, records as f64);
    outcome.set(
        "traces.synthetic.ns_per_record",
        synthetic_ns,
        records as usize,
    );

    let mut engine_ns = 0u64;
    let mut branches = 0u64;
    for spec in suite.traces() {
        let mut source = SyntheticSource::from_spec(spec, PROBE_BRANCHES);
        let mut engine = SimEngine::new(
            TagePredictor::new(blueprint),
            TageConfidenceClassifier::new(blueprint),
        );
        let mut report = ReportObserver::default();
        let (summary, elapsed) = tracer::timed("sim.engine.run_source", || {
            engine.run_source(&mut source, &mut report)
        });
        branches += summary
            .expect("synthetic sources are infallible")
            .total_branches;
        engine_ns += elapsed.as_nanos() as u64;
    }
    let engine_per_branch = ratio(engine_ns as f64, branches as f64);
    outcome.set(
        "sim.engine.ns_per_branch",
        engine_per_branch,
        branches as usize,
    );
    // The source streams records, not only conditional branches: charge
    // its whole cost to the branches the engine predicted.
    let source_per_branch = ratio(synthetic_ns * records as f64, branches as f64);
    let parts = source_per_branch + hot.predict_ns + hot.update_ns + hot.classify_ns;
    let unattributed = engine_per_branch - parts;
    outcome.set(
        "sim.engine.unattributed_ns_per_branch",
        unattributed,
        branches as usize,
    );
    outcome.notes.push(format!(
        "reconciliation (ns/branch): engine {engine_per_branch:.1} = source {source_per_branch:.1} + predict {:.1} + update {:.1} + classify {:.1} + unattributed {unattributed:.1} (timer {timer_ns:.1} ns/call removed)",
        hot.predict_ns, hot.update_ns, hot.classify_ns
    ));

    let mut sources: Vec<SyntheticSource> = suite
        .traces()
        .iter()
        .map(|spec| SyntheticSource::from_spec(spec, PROBE_BRANCHES))
        .collect();
    let mut engine = MultilaneEngine::new(blueprint, &RunOptions::default(), DEFAULT_LANES);
    let mut results: Vec<_> = sources
        .iter()
        .map(|_| MultilaneEngine::placeholder_result())
        .collect();
    let (run, elapsed) = tracer::timed("sim.multilane.run_into", || {
        engine.run_into(&mut sources, &mut results)
    });
    outcome.check(run.is_ok(), || {
        format!("multilane probe run failed: {run:?}")
    });
    let lane_branches: u64 = results.iter().map(|r| r.conditional_branches).sum();
    outcome.set(
        "sim.multilane.ns_per_branch",
        ratio(elapsed.as_nanos() as f64, lane_branches as f64),
        lane_branches as usize,
    );
}

/// `LaneGroup::predict` + `train` (which advances the histories) over the
/// probe traces in lockstep, one lane per trace; allocation-free after the
/// first cycle sizes the prediction buffer.
fn lanes(blueprint: &dyn TageBlueprint, records: &[Vec<BranchRecord>], outcome: &mut Outcome) {
    let streams: Vec<Vec<(u64, bool)>> = records
        .iter()
        .map(|trace| {
            trace
                .iter()
                .filter(|r| r.kind.is_conditional())
                .map(|r| (r.pc, r.taken))
                .collect()
        })
        .collect();
    let cycles = streams.iter().map(Vec::len).min().unwrap_or(0);
    let lane_count = streams.len();
    let mut group = LaneGroup::new(blueprint, lane_count);
    for k in 0..lane_count {
        group.arm(k);
    }
    let mut pcs = vec![0u64; lane_count];
    let mut takens = vec![false; lane_count];
    let mut predictions = Vec::with_capacity(lane_count);
    let mut cycle = |group: &mut LaneGroup, i: usize| {
        for (k, stream) in streams.iter().enumerate() {
            (pcs[k], takens[k]) = stream[i];
        }
        group.predict(&pcs, &mut predictions);
        group.train(&takens, &predictions);
    };
    if cycles > 0 {
        cycle(&mut group, 0);
    }
    let before = alloc::allocations();
    let (_, elapsed) = tracer::timed("tage.lanes", || {
        for i in 1..cycles {
            cycle(&mut group, i);
        }
    });
    let allocations = alloc::allocations() - before;
    let lane_branches = (cycles.saturating_sub(1) * lane_count) as f64;
    outcome.set(
        "tage.lanes.ns_per_branch",
        ratio(elapsed.as_nanos() as f64, lane_branches),
        lane_branches as usize,
    );
    outcome.check(allocations == 0, || {
        format!("the lane-group loop made {allocations} heap allocations")
    });
}

/// The JRS estimator (the jrs-classic grid scheme) grading a margin-exposing
/// TAGE: `assess` + `observe` (a few tens of nanoseconds per call) timed per
/// batch of [`BATCH`] lookups the predictor loop buffered, like the
/// classifier in [`hot_path`].
fn jrs(blueprint: &dyn TageBlueprint, records: &[Vec<BranchRecord>], outcome: &mut Outcome) {
    let _span = tracer::span("sim.probe.jrs");
    let mut tally = Tally::default();
    let threshold = PredictorSpec::parse(PROBE_PREDICTOR)
        .expect("known predictor token")
        .self_confidence_threshold();
    let mut checksum = 0u64;
    let mut lookups = Vec::with_capacity(BATCH);
    for trace in records {
        let mut core = MarginPredictor(TagePredictor::new(blueprint));
        let mut scheme = EstimatorScheme(EstimatorSpec::JrsClassic.build(threshold));
        let mut grade = |lookups: &mut Vec<(u64, tage_predictors::Prediction, bool)>| {
            let start = Instant::now();
            for (pc, lookup, taken) in lookups.iter() {
                let assessment = scheme.assess(*pc, lookup);
                scheme.observe(*pc, lookup, *taken);
                checksum = checksum.wrapping_add(u64::from(assessment.is_high()));
            }
            tally.add_calls(start, start.elapsed(), lookups.len() as u64);
            lookups.clear();
        };
        for record in trace.iter().filter(|r| r.kind.is_conditional()) {
            let lookup = core.lookup(record.pc);
            core.train(record.pc, record.taken, &lookup);
            lookups.push((record.pc, lookup, record.taken));
            if lookups.len() == BATCH {
                grade(&mut lookups);
            }
        }
        grade(&mut lookups);
    }
    black_box(checksum);
    tracer::record_tally("confidence.jrs", &tally);
    outcome.set(
        "confidence.jrs.ns_per_branch",
        tally.ns_per_call(0.0),
        tally.calls as usize,
    );
}

/// Decoding the probe traces from each exported format.
fn decoders(suite: &Suite, dir: &Path, outcome: &mut Outcome) -> Result<(), String> {
    let dirs = inputs::export(suite, PROBE_BRANCHES, &dir.join("formats"), &Format::ALL)?;
    let mut batch = vec![BranchRecord::default(); tage_traces::source::DEFAULT_CHUNK_RECORDS];
    for (format, format_dir) in Format::ALL.iter().zip(&dirs) {
        let name = match format {
            Format::Native => "traces.decode.native",
            Format::Gzip => "traces.decode.gzip",
            Format::Cbpb => "traces.decode.cbpb",
        };
        let mut records = 0u64;
        let mut busy = Duration::ZERO;
        for spec in suite.traces() {
            let path = format_dir.join(format!("{}.{}", spec.name(), format.suffix()));
            let (drained, elapsed) = tracer::timed(name, || -> Result<u64, String> {
                let mut count = 0u64;
                let mut drain = |source: &mut dyn BranchSource| -> Result<(), String> {
                    loop {
                        match source.next_batch(&mut batch) {
                            Ok(0) => return Ok(()),
                            Ok(n) => count += n as u64,
                            Err(e) => return Err(e.to_string()),
                        }
                    }
                };
                match format {
                    Format::Native => {
                        drain(&mut BinaryFileSource::open(&path).map_err(|e| e.to_string())?)?
                    }
                    Format::Gzip | Format::Cbpb => {
                        drain(&mut decode_file(&path).map_err(|e| e.to_string())?)?
                    }
                }
                Ok(count)
            });
            let drained = drained.map_err(|e| format!("{}: {e}", path.display()))?;
            records += drained;
            busy += elapsed;
        }
        let metric = match format {
            Format::Native => "traces.decode.native.ns_per_record",
            Format::Gzip => "traces.decode.gzip.ns_per_record",
            Format::Cbpb => "traces.decode.cbpb.ns_per_record",
        };
        outcome.set(
            metric,
            ratio(busy.as_nanos() as f64, records as f64),
            records as usize,
        );
    }
    Ok(())
}

/// Plan building, and a small exact / cold-sampled / warm-sampled trio
/// through the sim layer directly.
fn phase(
    blueprint: &dyn TageBlueprint,
    suite: &Suite,
    dir: &Path,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let open = |spec: &TraceSpec| {
        let spec = spec.clone();
        move || {
            Ok::<_, tage_traces::format::FormatError>(SyntheticSource::from_spec(
                &spec,
                PROBE_BRANCHES,
            ))
        }
    };
    let mut plan_seconds = 0.0;
    for spec in suite.traces() {
        let mut source = SyntheticSource::from_spec(spec, PROBE_BRANCHES);
        let (plan, elapsed) = tracer::timed("sim.phase.build_plan", || {
            build_plan(&mut source, PLAN_COLD)
        });
        outcome.check(plan.is_ok(), || format!("phase plan failed: {plan:?}"));
        plan_seconds += elapsed.as_secs_f64();
    }
    outcome.set("sim.phase.plan_s", plan_seconds, suite.traces().len());

    let cache = WarmCache::new(dir.join("warm")).map_err(|e| format!("warm cache: {e}"))?;
    let options = RunOptions::default();
    let mut walls = [0.0f64; 3];
    let mut exact_mpki = Vec::new();
    let mut sampled_mpki = Vec::new();
    let (mut simulated, mut total) = (0u64, 0u64);
    let mut warm_lookups = (0u64, 0u64);
    for spec in suite.traces() {
        let digest =
            tage_traces::source::SourceSpec::Synthetic(spec.clone()).digest(PROBE_BRANCHES);
        let mut source = SyntheticSource::from_spec(spec, PROBE_BRANCHES);
        let (exact, elapsed) = tracer::timed("sim.runner.run_source", || {
            run_source(blueprint, &mut source, &options)
        });
        walls[0] += elapsed.as_secs_f64();
        let exact = exact.map_err(|e| format!("exact probe run: {e}"))?;
        exact_mpki.push(exact.report.mpki());
        let (cold, elapsed) = tracer::timed("sim.phase.run_sampled_source", || {
            run_sampled_source(
                blueprint,
                &options,
                PLAN_COLD,
                Some((&cache, digest)),
                open(spec),
            )
        });
        walls[1] += elapsed.as_secs_f64();
        let cold = cold.map_err(|e| format!("cold sampled probe run: {e}"))?;
        sampled_mpki.push(cold.result.report.mpki());
        simulated += cold.simulated_records();
        total += cold.plan.total_records;
        let before = (cache.hits(), cache.misses());
        let (warm, elapsed) = tracer::timed("sim.phase.run_sampled_source", || {
            run_sampled_source(
                blueprint,
                &options,
                PLAN_WARM,
                Some((&cache, digest)),
                open(spec),
            )
        });
        walls[2] += elapsed.as_secs_f64();
        warm.map_err(|e| format!("warm sampled probe run: {e}"))?;
        warm_lookups.0 += cache.hits() - before.0;
        warm_lookups.1 += cache.misses() - before.1;
    }
    outcome.set(
        "sim.phase.simulated_frac",
        ratio(simulated as f64, total as f64),
        1,
    );
    let n = suite.traces().len();
    outcome.set(
        "sim.warmcache.hit_ratio",
        ratio(
            warm_lookups.0 as f64,
            (warm_lookups.0 + warm_lookups.1) as f64,
        ),
        n,
    );
    outcome.set("sample_speedup_cold", walls[0] / walls[1], n);
    outcome.set("sample_speedup_warm", walls[0] / walls[2], n);
    let exact = exact_mpki.iter().sum::<f64>() / n as f64;
    let sampled = sampled_mpki.iter().sum::<f64>() / n as f64;
    outcome.set(
        "sample_mpki_err_pct",
        100.0 * ratio((sampled - exact).abs(), exact),
        n,
    );
    Ok(())
}

/// A small campaign (for the campaign and report figures) and timed
/// cell-store loads and stores of its cells: each cell is looked up once
/// before it is stored (a miss), then stored and loaded repeatedly.
fn campaign_and_store(suite: &Suite, dir: &Path, outcome: &mut Outcome) -> Result<(), String> {
    let spec = campaign(
        "probe",
        &["tage-16k", "gshare"],
        &["jrs-classic"],
        vec![SourceSuite::from_suite(suite)],
        PROBE_BRANCHES,
    );
    let (report, _) = tracer::timed("bench.campaign.run_campaign_with_engine", || {
        run_campaign_with_engine(&spec, WORKERS, EngineKind::Multilane)
    });
    let report = report.map_err(|e| format!("probe campaign: {e}"))?;
    let (_, report_times) = render_checked(&report, outcome);
    for (name, value) in campaign_extras(&report).into_iter().chain(report_times) {
        outcome.set_default(name, value, 1);
    }
    let store = CellStore::new(dir.join("cells")).map_err(|e| format!("probe cell store: {e}"))?;
    let (points, _) = spec.expand();
    let mut load = Tally::default();
    let mut save = Tally::default();
    for (point, rendered) in points.iter().zip(report.cell_bytes()) {
        let key = cell_key(spec.branches_per_trace, point);
        let missing = load.time(|| store.load_cell(key, point));
        outcome.check(missing.is_none(), || {
            "a fresh cell store served a cell".to_string()
        });
        for _ in 0..CELLSTORE_REPEATS {
            let stored = save.time(|| store.store_cell(key, &rendered));
            outcome.check(stored.is_ok(), || format!("cell store write: {stored:?}"));
            let loaded = load.time(|| store.load_cell(key, point));
            outcome.check(loaded.as_deref() == Some(rendered.as_str()), || {
                "the cell store returned different bytes".to_string()
            });
        }
    }
    tracer::record_tally("bench.cellstore.load_cell", &load);
    tracer::record_tally("bench.cellstore.store_cell", &save);
    outcome.set(
        "bench.cellstore.load_us",
        load.ns_per_call(0.0) / 1e3,
        load.calls as usize,
    );
    outcome.set(
        "bench.cellstore.store_us",
        save.ns_per_call(0.0) / 1e3,
        save.calls as usize,
    );
    outcome.set_default(
        "bench.cellstore.hit_ratio",
        ratio(store.hits() as f64, (store.hits() + store.misses()) as f64),
        load.calls as usize,
    );
    Ok(())
}

/// A short open-loop session against a daemon over the probe traces.
fn service(seed: u64, suite: &Suite, dir: &Path, outcome: &mut Outcome) -> Result<(), String> {
    let dirs = inputs::export_one_per_dir(suite.traces(), PROBE_BRANCHES, &dir.join("serve"))?;
    let schedule = serve_mix::schedule(seed, &dirs, PROBE_SUBMISSIONS);
    let rate = 20.0;
    let session = serve_mix::play(&schedule, rate, &dir.join("daemon"))?;
    let mut pool = serve_mix::Pool::default();
    pool.add(&session, &schedule);
    for (name, value, samples) in pool.figures() {
        outcome.set_default(name, value, samples);
    }
    for _ in &schedule {
        outcome.attempt();
    }
    for failure in session.failures() {
        outcome.fail(format!("probe service session: {failure}"));
    }
    Ok(())
}
