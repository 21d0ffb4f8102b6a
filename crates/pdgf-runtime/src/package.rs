//! Work packages: the unit of work of every engine, and its renderer.
//!
//! "A work package is a set of rows of a table that need to be generated."
//! Packages are contiguous row ranges; their sequence number doubles as
//! the sort key for ordered output. A [`TableJob`] describes one table
//! shard with its framing obligations — a batch file, a node shard and a
//! served range are all jobs — and [`TableJob::package`] addresses its
//! packages by sequence number, handing the job's `begin` framing to the
//! first package and its `end` framing to the last.
//!
//! PDGF's seeding hierarchy makes a package a pure function of (model,
//! table, update, row range, framing), so one function renders it for
//! every engine: [`render_package`] is the package body of both the batch
//! scheduler ([`crate::run_project`], inline and pooled) and the row
//! service ([`crate::serve`]). [`render_reference`] is the row-at-a-time
//! oracle no engine calls; the identity suites compare every engine
//! against it.

use std::ops::Range;

use pdgf_gen::{GenScratch, SchemaRuntime};
use pdgf_output::{Formatter, TableMeta};
use pdgf_schema::ColumnBatch;

use crate::metrics::{now_ns, PackageTimings, WorkerPhases};
use crate::scheduler::table_meta;

/// A contiguous run of rows of one table at one update epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkPackage {
    /// Sequence number within the job (sort key for output).
    pub seq: u64,
    /// Table index.
    pub table: u32,
    /// Update epoch.
    pub update: u32,
    /// Row range (global row numbers).
    pub rows: Range<u64>,
}

impl WorkPackage {
    /// Number of rows in the package.
    pub fn len(&self) -> u64 {
        self.rows.end - self.rows.start
    }

    /// True when the package covers no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Which of the formatter's `begin`/`end` bytes a table shard owns.
///
/// A whole-table run owns both. A node shard of a framed format (CSV with
/// header, XML document, SQL script) owns `begin` only when it starts at
/// row 0 and `end` only when it finishes the table, so that concatenating
/// shard outputs in node order reproduces the single-node byte stream
/// exactly — headers appear once, documents close once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framing {
    /// Emit the formatter's `begin` bytes before the first row.
    pub begin: bool,
    /// Emit the formatter's `end` bytes after the last row.
    pub end: bool,
}

impl Framing {
    /// Both `begin` and `end`: a self-contained document.
    pub fn full() -> Self {
        Self {
            begin: true,
            end: true,
        }
    }

    /// Neither: a middle fragment of a larger stream.
    pub fn none() -> Self {
        Self {
            begin: false,
            end: false,
        }
    }

    /// Framing implied by a row range of a `table_size`-row table: `begin`
    /// iff the range starts at row 0, `end` iff it reaches the table end.
    pub fn for_range(rows: &Range<u64>, table_size: u64) -> Self {
        Self {
            begin: rows.start == 0,
            end: rows.end >= table_size,
        }
    }
}

/// One table shard in a project run: the rows to generate plus the
/// framing bytes this shard is responsible for. The project scheduler
/// drains the packages of every job through one worker pool; each job has
/// its own sink and its own reorder stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableJob {
    /// Table index.
    pub table: u32,
    /// Update epoch.
    pub update: u32,
    /// Row range (global row numbers).
    pub rows: Range<u64>,
    /// Framing obligations of this shard.
    pub framing: Framing,
}

impl TableJob {
    /// Job covering all `size` rows of `table` at update epoch 0, with
    /// full framing.
    pub fn full_table(table: u32, size: u64) -> Self {
        Self {
            table,
            update: 0,
            rows: 0..size,
            framing: Framing::full(),
        }
    }

    /// Job for a sub-range of a `table_size`-row table, framed by
    /// position ([`Framing::for_range`]).
    pub fn shard(table: u32, update: u32, rows: Range<u64>, table_size: u64) -> Self {
        let framing = Framing::for_range(&rows, table_size);
        Self {
            table,
            update,
            rows,
            framing,
        }
    }

    /// Packages this job renders at `package_rows` rows each. A rowless
    /// job that owns framing still renders one empty package, which
    /// carries its `begin`/`end` bytes.
    pub fn package_count(&self, package_rows: u64) -> u64 {
        let rows = self.rows.end.saturating_sub(self.rows.start);
        match rows.div_ceil(package_rows) {
            0 if self.framing.begin || self.framing.end => 1,
            n => n,
        }
    }

    /// Package `seq` of this job: its rows, and the share of the job's
    /// framing it carries — `begin` on the first package, `end` on the
    /// last.
    pub fn package(&self, seq: u64, package_rows: u64) -> (WorkPackage, Framing) {
        let start = seq
            .saturating_mul(package_rows)
            .saturating_add(self.rows.start)
            .min(self.rows.end);
        let end = start.saturating_add(package_rows).min(self.rows.end);
        let framing = Framing {
            begin: self.framing.begin && seq == 0,
            end: self.framing.end && seq + 1 == self.package_count(package_rows),
        };
        let pkg = WorkPackage {
            seq,
            table: self.table,
            update: self.update,
            rows: start..end,
        };
        (pkg, framing)
    }
}

/// A work package within a project run: the job index routes the output,
/// the embedded package's `seq` orders it within the job's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProjectPackage {
    /// Index into the run's job list.
    pub job: u32,
    /// The row range and per-job sequence number.
    pub pkg: WorkPackage,
}

/// Split `rows` of `table` into packages of at most `package_rows` rows,
/// numbered from 0.
pub fn packages_for(
    table: u32,
    update: u32,
    rows: Range<u64>,
    package_rows: u64,
) -> Vec<WorkPackage> {
    assert!(package_rows > 0, "package size must be positive");
    let job = TableJob {
        table,
        update,
        rows,
        framing: Framing::none(),
    };
    (0..job.package_count(package_rows))
        .map(|seq| job.package(seq, package_rows).0)
        .collect()
}

/// Flatten every job of a project into one global package list, job-major
/// (all of job 0's packages, then job 1's, …) with per-job sequence
/// numbers from 0. Workers claim entries in list order, so a run tends to
/// finish tables in schema order while later tables absorb idle workers
/// during each table's tail.
pub fn packages_for_jobs(jobs: &[TableJob], package_rows: u64) -> Vec<ProjectPackage> {
    assert!(
        jobs.len() <= u32::MAX as usize,
        "job index limited to u32::MAX"
    );
    let mut out = Vec::new();
    for (idx, job) in jobs.iter().enumerate() {
        for pkg in packages_for(job.table, job.update, job.rows.clone(), package_rows) {
            out.push(ProjectPackage {
                job: idx as u32,
                pkg,
            });
        }
    }
    out
}

/// Reusable per-worker buffers: the column batch and the generator
/// scratch. One lives on the inline thread and one in each pool or serve
/// worker; after warm-up a package allocates nothing.
#[derive(Default)]
pub(crate) struct WorkerState {
    pub(crate) batch: ColumnBatch,
    pub(crate) scratch: GenScratch,
}

/// Cap on statically sized package buffers: a proven-but-huge bound (wide
/// rows × large packages) must not balloon a single allocation; past this
/// size ordinary growth takes over.
const MAX_PREALLOC_BYTES: u64 = 64 << 20;

/// Up-front capacity for one package buffer: the proven per-row bound
/// times the package's rows, capped at [`MAX_PREALLOC_BYTES`]. Zero (no
/// reservation) when the bound is unknown.
pub(crate) fn package_capacity_hint(row_bound: Option<u64>, rows: u64) -> usize {
    row_bound
        .and_then(|b| b.checked_mul(rows))
        .map_or(0, |b| b.min(MAX_PREALLOC_BYTES) as usize)
}

/// Render one package into `out`: generate its rows column by column into
/// a typed [`ColumnBatch`], then write the package's framing share around
/// the formatter's [`rows_columnar`](Formatter::rows_columnar) transpose.
/// Byte-identical to [`render_reference`] by the kernel and formatter
/// contracts.
///
/// With `phases` the package is timed at its natural boundaries (fill,
/// then format) and the per-row averages feed the worker's histograms —
/// three clock reads per package. Without it the clock is never read.
#[allow(clippy::too_many_arguments)] // the package coordinates are the API
pub(crate) fn render_package(
    rt: &SchemaRuntime,
    formatter: &dyn Formatter,
    meta: &TableMeta,
    pkg: &WorkPackage,
    framing: Framing,
    state: &mut WorkerState,
    out: &mut Vec<u8>,
    phases: Option<&WorkerPhases>,
) -> PackageTimings {
    let clock = || phases.map(|_| now_ns());
    let started = clock();
    rt.fill_batch(
        pkg.table,
        pkg.update,
        pkg.rows.clone(),
        &mut state.batch,
        &mut state.scratch,
    );
    let filled = clock();
    if framing.begin {
        formatter.begin(out, meta);
    }
    formatter.rows_columnar(out, meta, &state.batch);
    if framing.end {
        formatter.end(out, meta);
    }
    let (Some(phases), Some(started), Some(filled)) = (phases, started, filled) else {
        return PackageTimings::default();
    };
    let finished = now_ns();
    let mut t = PackageTimings {
        total_ns: finished.saturating_sub(started),
        generate_ns: filled.saturating_sub(started),
        format_ns: finished.saturating_sub(filled),
        ..PackageTimings::default()
    };
    let rows = pkg.len();
    if let (Some(g), Some(f)) = (
        t.generate_ns.checked_div(rows),
        t.format_ns.checked_div(rows),
    ) {
        phases.generate.record(g);
        phases.format.record(f);
        t.sampled_rows = rows;
    }
    phases.add_busy_ns(t.total_ns);
    t
}

/// The row-at-a-time reference renderer: `job`'s `begin` framing, then
/// one [`SchemaRuntime::row_into`] plus [`Formatter::row`] per row, then
/// its `end` framing. No engine calls it. It is the oracle the identity
/// suites compare every engine against, and the baseline package body of
/// the throughput bench's columnar-speedup A/B.
pub fn render_reference(
    rt: &SchemaRuntime,
    job: &TableJob,
    formatter: &dyn Formatter,
    out: &mut Vec<u8>,
) {
    let meta = table_meta(rt, job.table);
    let mut values = Vec::new();
    let mut scratch = GenScratch::default();
    if job.framing.begin {
        formatter.begin(out, &meta);
    }
    for row in job.rows.clone() {
        rt.row_into_with_scratch(job.table, job.update, row, &mut values, &mut scratch);
        formatter.row(out, &meta, &values);
    }
    if job.framing.end {
        formatter.end(out, &meta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        let p = packages_for(0, 0, 0..100, 25);
        assert_eq!(p.len(), 4);
        assert!(p.iter().all(|w| w.len() == 25));
        assert_eq!(p[3].rows, 75..100);
        assert_eq!(p[3].seq, 3);
    }

    #[test]
    fn remainder_package_is_short() {
        let p = packages_for(1, 2, 0..10, 4);
        assert_eq!(p.len(), 3);
        assert_eq!(p[2].rows, 8..10);
        assert_eq!(p[2].len(), 2);
        assert_eq!(p[0].table, 1);
        assert_eq!(p[0].update, 2);
    }

    #[test]
    fn offset_ranges_are_respected() {
        let p = packages_for(0, 0, 50..60, 100);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].rows, 50..60);
        assert!(!p[0].is_empty());
    }

    #[test]
    fn empty_range_yields_no_packages() {
        assert!(packages_for(0, 0, 5..5, 10).is_empty());
    }

    #[test]
    fn packages_cover_range_exactly_once() {
        let p = packages_for(0, 0, 0..1013, 64);
        let mut covered = 0u64;
        let mut expected_start = 0;
        for w in &p {
            assert_eq!(w.rows.start, expected_start, "gap or overlap");
            covered += w.len();
            expected_start = w.rows.end;
        }
        assert_eq!(covered, 1013);
    }

    #[test]
    fn framing_from_range_position() {
        assert_eq!(Framing::for_range(&(0..100), 100), Framing::full());
        assert!(Framing::for_range(&(0..50), 100).begin);
        assert!(!Framing::for_range(&(0..50), 100).end);
        assert!(!Framing::for_range(&(50..100), 100).begin);
        assert!(Framing::for_range(&(50..100), 100).end);
        assert_eq!(Framing::for_range(&(25..75), 100), Framing::none());
        // Empty table: the full range is 0..0, a complete document.
        assert_eq!(Framing::for_range(&(0..0), 0), Framing::full());
    }

    #[test]
    fn job_packages_carry_framing_on_first_and_last() {
        let job = TableJob::full_table(0, 10);
        assert_eq!(job.package_count(4), 3);
        let begin_only = Framing {
            begin: true,
            end: false,
        };
        let end_only = Framing {
            begin: false,
            end: true,
        };
        assert_eq!(job.package(0, 4).0.rows, 0..4);
        assert_eq!(job.package(0, 4).1, begin_only);
        assert_eq!(job.package(1, 4).1, Framing::none());
        assert_eq!(job.package(2, 4).0.rows, 8..10);
        assert_eq!(job.package(2, 4).1, end_only);
        assert_eq!(job.package(0, 100).1, Framing::full());
        // Packages of a shard start at the shard's first row and carry
        // only the framing the shard owns.
        let shard = TableJob::shard(1, 2, 4..12, 20);
        let (pkg, framing) = shard.package(1, 4);
        assert_eq!((pkg.table, pkg.update, pkg.seq), (1, 2, 1));
        assert_eq!(pkg.rows, 8..12);
        assert_eq!(framing, Framing::none());
    }

    #[test]
    fn rowless_jobs_render_one_package_only_when_they_own_framing() {
        let empty = TableJob::full_table(0, 0);
        assert_eq!(empty.package_count(4), 1);
        let (pkg, framing) = empty.package(0, 4);
        assert!(pkg.is_empty());
        assert_eq!(framing, Framing::full());
        assert_eq!(TableJob::shard(0, 0, 5..5, 10).package_count(4), 0);
    }

    #[test]
    fn project_packages_are_job_major_with_per_job_sequences() {
        let jobs = [
            TableJob::full_table(0, 10),
            TableJob::full_table(3, 0),
            TableJob::shard(1, 2, 4..12, 20),
        ];
        let p = packages_for_jobs(&jobs, 4);
        // Job 0: 10 rows → 3 packages; job 1: empty → none; job 2: 8 rows
        // → 2 packages.
        assert_eq!(p.len(), 5);
        assert_eq!(
            p.iter().map(|x| x.job).collect::<Vec<_>>(),
            vec![0, 0, 0, 2, 2]
        );
        assert_eq!(p[0].pkg.seq, 0);
        assert_eq!(p[2].pkg.seq, 2);
        assert_eq!(p[3].pkg.seq, 0, "sequences restart per job");
        assert_eq!(p[3].pkg.table, 1);
        assert_eq!(p[3].pkg.update, 2);
        assert_eq!(p[3].pkg.rows, 4..8);
        assert_eq!(p[4].pkg.rows, 8..12);
    }
}
