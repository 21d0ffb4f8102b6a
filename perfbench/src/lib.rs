//! The repository benchmark.
//!
//! Each workload is one model in one output format, exercised through
//! both of the system's access paths: a whole-project batch generation
//! run (`GenerationRun` with one worker per core) and the serving data
//! plane (an in-process `Server` answering a closed loop of one client
//! per core, first over TCP, then over HTTP). The untraced run
//! (`--trace 0`) prints the end-to-end metrics of [`metrics::END_TO_END`];
//! the traced run (`--trace 1`) replays the same work one public layer
//! call at a time inside spans and prints [`metrics::PER_LAYER`]. Every
//! run checks its outputs untimed and counts mismatches as failures.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpch_csv_null --seed 1 --seconds 40 --trace 0
//! ```

#![forbid(unsafe_code)]

pub mod digest;
pub mod gen;
pub mod metrics;
pub mod replay;
pub mod requests;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;

use pdgf::OutputFormat;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Model name (registry slot name on the server).
    pub model: &'static str,
    /// Model file, relative to the repository root.
    pub path: &'static str,
    /// Output format of both the batch run and the served responses.
    pub format: OutputFormat,
    /// Batch output goes to one buffered file per table (no fsync) in a
    /// fresh directory; otherwise to counting null sinks.
    pub files: bool,
    /// The fact table: served by the request mix, and the `fact` role
    /// of the per-table layer metrics.
    pub fact: &'static str,
    /// Scale factor of the batch run. The server loads the model file as
    /// shipped (SF 1), like `pdgf serve` does.
    pub sf: &'static str,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "tpch_csv_null",
        model: "tpch",
        path: "models/tpch.xml",
        format: OutputFormat::Csv,
        files: false,
        fact: "lineitem",
        sf: "0.05",
    },
    Workload {
        name: "ssb_json_files",
        model: "ssb",
        path: "models/ssb.xml",
        format: OutputFormat::Json,
        files: true,
        fact: "lineorder",
        sf: "0.05",
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: the model seed of the batch run, and the seed of
    /// the serving request sequence.
    pub seed: u64,
    /// Measured seconds, split across the run's phases.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Generation workers, serve workers and client connections: one
    /// per available core.
    pub workers: usize,
    /// Ranges each p99 series must reach before a run may end
    /// ([`run::MIN_RANGES`]; tests lower it).
    pub min_ranges: u64,
    /// Scale factor override (tests use a tiny one); `None` = workload's.
    pub sf: Option<String>,
    /// Where the file-sink workload writes its per-run directories.
    pub scratch_dir: std::path::PathBuf,
}

impl Config {
    /// Scale factor of the batch run.
    pub fn sf<'a>(&'a self, w: &'a Workload) -> &'a str {
        self.sf.as_deref().unwrap_or(w.sf)
    }
}
