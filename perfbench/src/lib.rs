//! The repository benchmark: two seeded workloads driven through the public
//! APIs of the `traces`, `tage`, `confidence`, `sim` and `bench` crates.
//!
//! [`run`] executes one workload for a fixed measurement window and returns
//! the metrics the binary prints. An untraced run (`--trace 0`) reports the
//! end-to-end metrics; a traced run (`--trace 1`) records spans around the
//! benchmark's own calls into each layer and reports the per-layer metrics.
//! See `README.md` next to this crate for the metric definitions.

#![warn(missing_docs)]

pub mod alloc;
pub mod inputs;
pub mod probe;
pub mod reference;
pub mod report;
pub mod stats;
pub mod sys;
pub mod tracer;
pub mod workloads;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use report::Outcome;
use workloads::Workload;

/// The seed whose timing-free report digests are committed in
/// [`workloads::EXPECTED_DIGESTS`].
pub const DEFAULT_SEED: u64 = 1;

/// How many times a run repeats its set-up at least; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 7;

/// Set-up repeats go on until together they took this long, so a set-up of
/// half a millisecond (`grid-cold`) is timed about a thousand times and its
/// median does not hang on a few samples.
pub const SETUP_SECONDS: f64 = 0.5;

/// Parsed command line of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl RunArgs {
    /// Parses `--workload NAME --seed N --seconds N --trace 0|1`.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<RunArgs, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 45;
        let mut trace = false;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| {
                        format!(
                            "unknown workload \"{value}\" (known: {})",
                            Workload::ALL.map(Workload::name).join(", ")
                        )
                    })?)
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?.max(1),
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(RunArgs {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// A scratch directory under the benchmark's own directory, removed when
/// dropped.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates a fresh `.work/<label>-<pid>` directory next to this crate.
    ///
    /// # Errors
    ///
    /// The I/O error from creating it.
    pub fn create(label: &str) -> std::io::Result<WorkDir> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("{label}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Runs one workload as `args` asks: set-up [`SETUP_REPEATS`] times or
/// more (see [`SETUP_SECONDS`]), then the measurement window, then (traced
/// runs only) the layer probe.
///
/// # Errors
///
/// A message when the run could not produce a result at all (inputs could
/// not be written, the daemon could not start). Correctness mismatches are
/// not errors: they are counted in the returned [`Outcome`].
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let work = WorkDir::create(args.workload.name()).map_err(|e| format!("work dir: {e}"))?;
    let window = Duration::from_secs(args.seconds);
    tracer::set_enabled(false);
    let mut outcome = Outcome::default();
    let mut setup_seconds: Vec<f64> = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    while setup_seconds.len() < SETUP_REPEATS || setup_seconds.iter().sum::<f64>() < SETUP_SECONDS {
        let repeat = setup_seconds.len();
        // Each repeat writes into its own directory; replacing the previous
        // inputs removes theirs, so every repeat pays the full set-up.
        let start = Instant::now();
        let fresh = args
            .workload
            .setup(args.seed, &work.path().join(format!("setup-{repeat}")))?;
        setup_seconds.push(start.elapsed().as_secs_f64());
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("at least one set-up ran");
    outcome.setup_seconds = setup_seconds;
    // The heap peak covers the measurement, not the set-ups.
    alloc::reset_peak();
    args.workload
        .measure(&inputs, args, window, work.path(), &mut outcome)?;
    if args.trace {
        probe::run(&inputs, work.path(), &mut outcome)?;
        let spans = tracer::take();
        let layers = tracer::self_time_by_layer(&spans);
        for (metric, layer) in SELF_TIME_METRICS {
            let self_ns = layers.get(layer).copied().unwrap_or(0);
            outcome.set(metric, self_ns as f64 / 1e6, spans.len());
        }
        outcome.set("trace.spans", spans.len() as f64, 1);
        outcome.spans = spans;
        let (failed, attempted) = (outcome.failed as f64, outcome.attempted as f64);
        outcome.set(
            "failed_ops_frac",
            stats::ratio(failed, attempted),
            outcome.attempted as usize,
        );
    } else {
        outcome.set(
            "setup_s",
            stats::median(&outcome.setup_seconds),
            outcome.setup_seconds.len(),
        );
        outcome.set(
            "peak_heap_mb",
            alloc::peak_heap_bytes() as f64 / f64::from(1 << 20),
            1,
        );
        outcome
            .notes
            .push(format!("peak resident set: {:.1} MiB", sys::peak_rss_mb()?));
    }
    Ok(outcome)
}

/// The per-layer self-time metrics and the span layer each sums.
const SELF_TIME_METRICS: [(&str, &str); 6] = [
    ("traces.self_ms", "traces"),
    ("tage.self_ms", "tage"),
    ("confidence.self_ms", "confidence"),
    ("sim.self_ms", "sim"),
    ("bench.self_ms", "bench"),
    ("loadgen.self_ms", "loadgen"),
];
