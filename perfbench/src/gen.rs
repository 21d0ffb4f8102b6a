//! The batch-generation phase: set-up, timed `GenerationRun`s, the
//! traced replay, and the untimed output checks.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pdgf::{Pdgf, PdgfProject};
use pdgf_output::{DirSinkFactory, NullSink, NullSinkFactory, Sink, SinkFactory};
use pdgf_runtime::{GenerationRun, RunConfig, RunReport};

use crate::digest::{Digest, DigestSinkFactory};
use crate::replay::{replay, ReplayOut, TableOut};
use crate::trace::Trace;
use crate::{Config, Workload};

/// Load, seed, scale and compile the batch project — the batch path's
/// set-up (`Pdgf::from_xml_file` → `build`).
pub fn setup(w: &Workload, cfg: &Config) -> Result<(f64, PdgfProject), String> {
    let started = Instant::now();
    let project = builder(w, cfg)?
        .build()
        .map_err(|e| format!("{}: build: {e}", w.path))?;
    Ok((started.elapsed().as_secs_f64(), project))
}

/// The seeded, scaled project builder.
fn builder(w: &Workload, cfg: &Config) -> Result<Pdgf, String> {
    Ok(Pdgf::from_xml_file(w.path)
        .map_err(|e| format!("{}: {e}", w.path))?
        .seed(cfg.seed)
        .set_property("SF", cfg.sf(w)))
}

/// The reference output: per table, schema order, the rows, bytes and
/// digest of the benchmark's own (untraced) replay.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Table names, schema order.
    pub names: Vec<&'static str>,
    /// Row/byte counts and digests, schema order.
    pub tables: Vec<(TableOut, Digest)>,
}

impl Expected {
    /// Replay the whole project into digest sinks.
    pub fn compute(project: &PdgfProject, w: &Workload, cfg: &Config) -> Result<Self, String> {
        let rt = project.runtime();
        let names = crate::replay::table_names(rt);
        let mut factory = DigestSinkFactory::default();
        let mut sinks: Vec<Box<dyn Sink>> = rt
            .tables()
            .iter()
            .map(|t| factory.make_sink(&t.name))
            .collect::<std::io::Result<_>>()
            .map_err(|e| e.to_string())?;
        let out = replay(
            rt,
            &names,
            &*w.format.formatter(),
            cfg.workers,
            &mut sinks,
            None,
        )
        .map_err(|e| format!("reference replay: {e}"))?;
        let tables = out
            .tables
            .into_iter()
            .zip(&names)
            .map(|(t, name)| (t, factory.digest(name).unwrap_or_default()))
            .collect();
        Ok(Self { names, tables })
    }
}

/// Measurements of the timed batch phase.
#[derive(Debug, Default)]
pub struct GenPhase {
    /// MB/s of each `GenerationRun::run` call.
    pub mb_s: Vec<f64>,
    /// Wall seconds of each call.
    pub walls: Vec<f64>,
    /// Tables generated (one operation each) and tables that failed.
    pub attempted: u64,
    /// Tables whose run errored or whose output mismatched.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
}

impl GenPhase {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// A whole run failed: every one of its tables counts as failed.
    fn fail_run(&mut self, expected: &Expected, what: String) {
        let tables = expected.tables.len() as u64;
        self.attempted += tables;
        self.failed += tables;
        self.problems.push(what);
    }

    /// Compare one run's per-table counts (and files) with the reference.
    fn check(&mut self, report: &RunReport, expected: &Expected, dir: Option<&Path>, ext: &str) {
        for (i, (want, digest)) in expected.tables.iter().enumerate() {
            let name = expected.names[i];
            self.attempted += 1;
            let Some(got) = report.tables.iter().find(|t| t.table == name) else {
                self.fail(format!("{name}: missing from the run report"));
                continue;
            };
            if got.rows != want.rows || got.bytes != want.bytes {
                self.fail(format!(
                    "{name}: {} rows / {} bytes, reference {} / {}",
                    got.rows, got.bytes, want.rows, want.bytes
                ));
                continue;
            }
            if let Some(dir) = dir {
                match Digest::of_file(&dir.join(format!("{name}.{ext}"))) {
                    Ok(d) if d == *digest => {}
                    Ok(_) => self.fail(format!("{name}: file digest differs from the reference")),
                    Err(e) => self.fail(format!("{name}: reading output: {e}")),
                }
            }
        }
    }
}

/// One `GenerationRun::run` of the workload's project into its sinks;
/// returns the report and the call's wall seconds.
fn run_once(
    project: &PdgfProject,
    w: &Workload,
    cfg: &Config,
    dir: &Path,
) -> std::io::Result<(RunReport, f64)> {
    let run = GenerationRun::new(project.runtime(), RunConfig::new().workers(cfg.workers));
    let formatter = w.format.formatter();
    let started = Instant::now();
    let report = if w.files {
        run.run(&*formatter, DirSinkFactory::new(dir, w.format.extension()))?
    } else {
        run.run(&*formatter, NullSinkFactory)?
    };
    Ok((report, started.elapsed().as_secs_f64()))
}

/// A fresh per-run output directory under the scratch dir.
fn run_dir(cfg: &Config, tag: &str, rep: usize) -> PathBuf {
    cfg.scratch_dir.join(format!("{tag}-{rep}"))
}

impl GenPhase {
    /// One timed `GenerationRun::run` (repetition `rep`), then its
    /// untimed output check and, for file sinks, removal of its directory.
    pub fn rep(
        &mut self,
        project: &PdgfProject,
        w: &Workload,
        cfg: &Config,
        expected: &Expected,
        rep: usize,
    ) {
        let dir = run_dir(cfg, "gen", rep);
        match run_once(project, w, cfg, &dir) {
            Ok((report, wall)) => {
                self.walls.push(wall);
                self.mb_s.push(report.total_bytes() as f64 / 1e6 / wall);
                self.check(
                    &report,
                    expected,
                    w.files.then_some(dir.as_path()),
                    w.format.extension(),
                );
            }
            Err(e) => {
                self.fail_run(expected, format!("run {rep}: {e}"));
            }
        }
        if w.files {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// For null sinks, which keep only counts: one more untimed run
    /// through digest sinks, checking the bytes themselves.
    pub fn check_bytes(
        &mut self,
        project: &PdgfProject,
        w: &Workload,
        cfg: &Config,
        expected: &Expected,
    ) {
        if !w.files {
            check_digests(project, w, cfg, expected, self);
        }
    }
}

/// Repeat `GenerationRun::run` until `budget` is spent (at least
/// `min_reps` times), checking every run's output untimed.
pub fn measure(
    project: &PdgfProject,
    w: &Workload,
    cfg: &Config,
    expected: &Expected,
    budget: Duration,
    min_reps: usize,
) -> GenPhase {
    let mut phase = GenPhase::default();
    let started = Instant::now();
    let mut rep = 0;
    while rep < min_reps || started.elapsed() < budget {
        phase.rep(project, w, cfg, expected, rep);
        rep += 1;
    }
    phase.check_bytes(project, w, cfg, expected);
    phase
}

/// Run once more into digest sinks and compare every table's digest.
fn check_digests(
    project: &PdgfProject,
    w: &Workload,
    cfg: &Config,
    expected: &Expected,
    phase: &mut GenPhase,
) {
    let run = GenerationRun::new(project.runtime(), RunConfig::new().workers(cfg.workers));
    let factory = DigestSinkFactory::default();
    if let Err(e) = run.run(&*w.format.formatter(), factory.clone()) {
        phase.fail_run(expected, format!("digest run: {e}"));
        return;
    }
    for (i, (_, digest)) in expected.tables.iter().enumerate() {
        let name = expected.names[i];
        phase.attempted += 1;
        if factory.digest(name) != Some(*digest) {
            phase.fail(format!("{name}: digest differs from the reference"));
        }
    }
}

/// Repeat the traced replay until `budget` is spent (at least `min_reps`
/// times) into the workload's own kind of sinks, folding every span into
/// `trace`. Returns each replay's wall seconds and the replays' outputs'
/// agreement with the reference as a phase.
pub fn traced_replays(
    project: &PdgfProject,
    w: &Workload,
    cfg: &Config,
    expected: &Expected,
    budget: Duration,
    min_reps: usize,
    trace: &mut Trace,
) -> (GenPhase, Vec<ReplayOut>) {
    let rt = project.runtime();
    let formatter = w.format.formatter();
    let mut phase = GenPhase::default();
    let mut outs = Vec::new();
    let started = Instant::now();
    let mut rep = 0;
    while rep < min_reps || started.elapsed() < budget {
        let dir = run_dir(cfg, "replay", rep);
        let sinks: std::io::Result<Vec<Box<dyn Sink>>> = rt
            .tables()
            .iter()
            .map(|t| -> std::io::Result<Box<dyn Sink>> {
                if w.files {
                    DirSinkFactory::new(&dir, w.format.extension()).make_sink(&t.name)
                } else {
                    Ok(Box::new(NullSink::new()))
                }
            })
            .collect();
        let result = sinks.and_then(|mut sinks| {
            replay(
                rt,
                &expected.names,
                &*formatter,
                cfg.workers,
                &mut sinks,
                Some(trace),
            )
        });
        match result {
            Ok(out) => {
                for (i, (want, _)) in expected.tables.iter().enumerate() {
                    phase.attempted += 1;
                    if out.tables[i] != *want {
                        phase.fail(format!("{}: replay output differs", expected.names[i]));
                    }
                }
                outs.push(out);
            }
            Err(e) => {
                phase.fail_run(expected, format!("replay {rep}: {e}"));
            }
        }
        if w.files {
            let _ = std::fs::remove_dir_all(&dir);
        }
        rep += 1;
    }
    (phase, outs)
}
