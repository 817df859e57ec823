//! Seeded input generation: the reseeded CBP-1-like suite and its export
//! to on-disk trace formats.
//!
//! Every input of every workload derives from the run's `--seed`: the suite
//! keeps the 20 CBP-1-like workload profiles and draws each trace's
//! generation seed from a [`SplitMix64`] seeded with it. The program under
//! test only ever sees the generated suite or the files exported from it.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use tage_traces::inflate::gzip_compress;
use tage_traces::source::SourceSuite;
use tage_traces::writer::TraceWriter;
use tage_traces::{suites, BranchRecord, SplitMix64, Suite, TraceSpec};

/// Name of the seeded suite in every report (kept seed-free so report
/// layouts match across seeds).
pub const SUITE_NAME: &str = "seeded-cbp1";

/// The CBP-1-like suite with every trace's generation seed drawn from
/// `seed`.
pub fn seeded_suite(seed: u64) -> Suite {
    let mut rng = SplitMix64::new(seed);
    let traces = suites::cbp1_like()
        .traces()
        .iter()
        .map(|spec| TraceSpec::new(spec.name(), spec.profile().clone(), rng.next_u64()))
        .collect();
    Suite::new(SUITE_NAME, traces)
}

/// The seeded suite split by workload category (the trace-name prefix:
/// `FP`, `INT`, `MM`, `SERV`) into streaming suites named
/// `seeded-cbp1-<category>`, in suite order.
pub fn category_suites(suite: &Suite) -> Vec<SourceSuite> {
    let mut groups: Vec<(String, Vec<TraceSpec>)> = Vec::new();
    for spec in suite.traces() {
        let category = spec
            .name()
            .split('-')
            .next()
            .unwrap_or(spec.name())
            .to_ascii_lowercase();
        match groups.iter_mut().find(|(name, _)| *name == category) {
            Some((_, specs)) => specs.push(spec.clone()),
            None => groups.push((category, vec![spec.clone()])),
        }
    }
    groups
        .into_iter()
        .map(|(category, specs)| {
            SourceSuite::from_suite(&Suite::new(format!("{SUITE_NAME}-{category}"), specs))
        })
        .collect()
}

/// An on-disk trace format the suite is exported to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// The native binary format, streamed chunk by chunk.
    Native,
    /// The native format inside a gzip container, decoded whole.
    Gzip,
    /// CBP-style 9-byte binary records (conditional branches only), decoded
    /// whole.
    Cbpb,
}

impl Format {
    /// Every format, in report order.
    pub const ALL: [Format; 3] = [Format::Native, Format::Gzip, Format::Cbpb];

    /// The format's name, also the directory (and so suite) name it is
    /// exported under.
    pub fn name(self) -> &'static str {
        match self {
            Format::Native => "native",
            Format::Gzip => "gzip",
            Format::Cbpb => "cbpb",
        }
    }

    /// The file-name suffix the repository's format detection keys on.
    pub fn suffix(self) -> &'static str {
        match self {
            Format::Native => "trace",
            Format::Gzip => "trace.gz",
            Format::Cbpb => "cbpb",
        }
    }
}

/// The bytes of `records` in the CBP-style binary layout: per conditional
/// record, the pc as a little-endian u64 and one outcome byte.
pub fn cbpb_bytes(records: &[BranchRecord]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(records.len() * 9);
    for record in records.iter().filter(|r| r.kind.is_conditional()) {
        bytes.extend_from_slice(&record.pc.to_le_bytes());
        bytes.push(u8::from(record.taken));
    }
    bytes
}

/// Writes `bytes` to `path`. The files are read back by the same process,
/// so they are not synced to disk.
fn write_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    fs::File::create(path)?.write_all(bytes)
}

/// Exports every trace of `suite` at `branches` conditional branches into
/// `root/<format>/<trace>.<suffix>` for each of `formats`, returning the
/// format directories in the order given.
///
/// # Errors
///
/// A message naming the file that could not be written.
pub fn export(
    suite: &Suite,
    branches: usize,
    root: &Path,
    formats: &[Format],
) -> Result<Vec<PathBuf>, String> {
    let dirs: Vec<PathBuf> = formats.iter().map(|f| root.join(f.name())).collect();
    for dir in &dirs {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    for spec in suite.traces() {
        let trace = spec.generate(branches);
        let native = TraceWriter::to_binary_bytes(&trace);
        for (format, dir) in formats.iter().zip(&dirs) {
            let path = dir.join(format!("{}.{}", spec.name(), format.suffix()));
            let bytes = match format {
                Format::Native => native.clone(),
                Format::Gzip => gzip_compress(&native),
                Format::Cbpb => cbpb_bytes(trace.records()),
            };
            write_file(&path, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(dirs)
}

/// Exports each of `traces` natively into a directory of its own,
/// `root/tNN/<trace>.trace`, so every trace is a one-trace suite a campaign
/// grid can name. Returns the directories in order.
///
/// # Errors
///
/// A message naming the file that could not be written.
pub fn export_one_per_dir(
    traces: &[TraceSpec],
    branches: usize,
    root: &Path,
) -> Result<Vec<PathBuf>, String> {
    let mut dirs = Vec::with_capacity(traces.len());
    for (index, spec) in traces.iter().enumerate() {
        let dir = root.join(format!("t{index:02}"));
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.trace", spec.name()));
        let bytes = TraceWriter::to_binary_bytes(&spec.generate(branches));
        write_file(&path, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        dirs.push(dir);
    }
    Ok(dirs)
}
