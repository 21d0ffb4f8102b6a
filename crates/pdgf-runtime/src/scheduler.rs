//! The project-wide scheduler: generating the work packages of *every*
//! table with sorted, per-table output streams.
//!
//! The pipeline is the paper's data flow: scheduler → workers (seed +
//! generate + format) → output system (reorder + sink). [`run_project`]
//! runs a whole project as ONE request of the runtime's worker pool, the
//! pool the row service answers ranges with: its packages are the jobs'
//! packages in job-major order, so workers stay busy across table
//! boundaries. `workers` scoped threads render; the calling thread reads
//! the packages back in order, writes each to its job's sink and hands
//! the buffer back. With `workers == 0` the run is a plain loop on the
//! calling thread, the reference the byte checks compare against.
//!
//! Framing ([`Framing`](crate::Framing)) makes node sharding exact for
//! framed formats: a shard emits the formatter's `begin`/`end` bytes only
//! when it owns the start/end of the table, and those bytes travel inside
//! the job's first and last package, so concatenated shard outputs equal
//! the single-node byte stream.
//!
//! Observers ([`Observability`]) see copies of counters and events, timed
//! per package; nothing flows back into generation, so output stays a
//! pure function of (schema, seed, format) with or without them.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use pdgf_gen::SchemaRuntime;
use pdgf_output::{Formatter, Sink, TableMeta};

use crate::metrics::{now_ns, PackageTimings, WorkerPhases};
use crate::monitor::TableHandle;
use crate::package::{TableJob, WorkerState};
use crate::pool::{Held, Pool, Reader, Request, Stop};
use crate::telemetry::{JobInfo, Observability, RunScope};

/// Scheduler configuration, built fluently and validated at set time:
///
/// ```
/// use pdgf_runtime::RunConfig;
/// let cfg = RunConfig::new().workers(8).package_rows(16_384);
/// assert_eq!(cfg.worker_threads(), 8);
/// assert_eq!(cfg.rows_per_package(), 16_384);
/// ```
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker threads. `0` runs inline on the calling thread (no thread
    /// or queue overhead — the configuration for latency microbenches).
    pub(crate) workers: usize,
    /// Rows per work package; always ≥ 1.
    pub(crate) package_rows: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            workers: available_workers(),
            package_rows: 10_000,
        }
    }
}

impl RunConfig {
    /// Start from the defaults: one worker per available core, 10 000
    /// rows per package.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker thread count. `0` means inline execution on the
    /// calling thread.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the rows per work package.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is 0 — a zero-row package cannot make progress,
    /// and catching the misconfiguration at build time beats an infinite
    /// scheduling loop at run time.
    pub fn package_rows(mut self, rows: u64) -> Self {
        assert!(rows > 0, "RunConfig::package_rows must be at least 1");
        self.package_rows = rows;
        self
    }

    /// Configured worker thread count (`0` = inline).
    pub fn worker_threads(&self) -> usize {
        self.workers
    }

    /// Configured rows per work package.
    pub fn rows_per_package(&self) -> u64 {
        self.package_rows
    }
}

/// Default worker count: one per available core.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Result of generating one table (or table shard).
#[derive(Debug, Clone, Default)]
pub struct TableRunStats {
    /// Rows actually written to the sink (counted from the packages the
    /// reader wrote, not assumed from the requested range).
    pub rows: u64,
    /// Bytes this run wrote to the sink — the delta produced by this job,
    /// not the sink's cumulative total, so reusing one sink across table
    /// runs (single-file multi-table output) does not over-count.
    pub bytes: u64,
    /// Wall-clock seconds from run start until this job's output was
    /// fully written. In a project run tables overlap in time, so this is
    /// a completion time, not an exclusive-occupancy time.
    pub seconds: f64,
}

impl TableRunStats {
    /// Megabytes per second.
    pub fn throughput_mb_s(&self) -> f64 {
        if self.seconds > 0.0 {
            self.bytes as f64 / 1e6 / self.seconds
        } else {
            0.0
        }
    }
}

/// Metadata for a runtime table.
pub fn table_meta(rt: &SchemaRuntime, table: u32) -> TableMeta {
    let t = &rt.tables()[table as usize];
    TableMeta {
        name: t.name.clone(),
        columns: t.columns.iter().map(|c| c.name.clone()).collect(),
    }
}

/// Generate rows `rows` of `table` (update epoch `update`), formatted by
/// `formatter`, into `sink`. Output bytes are identical for any worker
/// count — the determinism contract the test suite checks.
///
/// Framing is positional: `formatter.begin` is emitted only when the
/// range starts at row 0 and `formatter.end` only when it reaches the
/// table's last row, so node shards of framed formats concatenate into
/// exactly the single-node byte stream. Build a [`TableJob`] and call
/// [`run_project`] for explicit control over framing.
///
/// `obs` attaches observers: `None`, `&Monitor`, `&Telemetry`, or a full
/// [`Observability`].
#[allow(clippy::too_many_arguments)] // the full coordinate set is the API
pub fn generate_table_range<'a>(
    rt: &SchemaRuntime,
    table: u32,
    update: u32,
    rows: std::ops::Range<u64>,
    formatter: &dyn Formatter,
    sink: &mut dyn Sink,
    cfg: &RunConfig,
    obs: impl Into<Observability<'a>>,
) -> io::Result<TableRunStats> {
    let job = TableJob::shard(table, update, rows, rt.tables()[table as usize].size);
    let mut stats = run_project(rt, &[job], formatter, &mut [sink], cfg, obs)?;
    Ok(stats.pop().unwrap_or_default())
}

/// Read-only context of a run's reader: its observers and clock.
struct RunCtx<'a> {
    /// Per-job monitor handles, registered up front.
    handles: Option<&'a [TableHandle]>,
    scope: Option<&'a RunScope>,
    started: Instant,
}

/// Generate every job of a project on the worker pool.
///
/// `jobs[i]` writes to `sinks[i]`; each sink receives its job's bytes in
/// row order (byte-identical to a sequential run of that job alone),
/// while the pool keeps all workers busy across job boundaries. Sinks are
/// *not* [`finish`](Sink::finish)ed — that stays with the caller, which
/// may reuse a sink across runs.
///
/// On the first sink error the run aborts and returns the error; the
/// run's queued packages are cancelled, so workers that have moved on to
/// the next table stop too. A panic while rendering a package is
/// contained and returned as an error naming the table.
///
/// `obs` attaches observers: `None`, `&Monitor`, `&Telemetry`, or a full
/// [`Observability`]. Observers see lifecycle events and counters; they
/// cannot affect generated bytes.
pub fn run_project<'a>(
    rt: &SchemaRuntime,
    jobs: &[TableJob],
    formatter: &dyn Formatter,
    sinks: &mut [&mut dyn Sink],
    cfg: &RunConfig,
    obs: impl Into<Observability<'a>>,
) -> io::Result<Vec<TableRunStats>> {
    assert_eq!(jobs.len(), sinks.len(), "one sink per job");
    let obs = obs.into();
    // audit:allow(wall-clock) run statistics only; never influences generated bytes
    let started = Instant::now();
    let req = Request::new(
        Held::Borrowed(rt),
        Held::Borrowed(formatter),
        jobs.to_vec(),
        cfg.package_rows,
    );

    // Registering every job up front makes per-package recording a
    // direct handle bump; job order keeps first-seen order stable.
    let handles: Option<Vec<TableHandle>> = obs.monitor.map(|m| {
        req.jobs
            .iter()
            .map(|j| m.register_table(&j.meta.name))
            .collect()
    });
    let scope: Option<RunScope> = obs.telemetry.map(|t| {
        t.begin_run(
            req.jobs
                .iter()
                .map(|j| {
                    let rows = j.job.rows.end.saturating_sub(j.job.rows.start);
                    JobInfo::new(j.meta.name.clone(), rows)
                })
                .collect(),
            cfg.workers,
        )
    });

    let ctx = RunCtx {
        handles: handles.as_deref(),
        scope: scope.as_ref(),
        started,
    };
    let mut stats = vec![TableRunStats::default(); jobs.len()];
    // A job with no packages (an unframed rowless shard) completes here.
    for (idx, job) in req.jobs.iter().enumerate() {
        if job.packages == 0 {
            ctx.finish_job(idx, &mut stats);
        }
    }
    let result = if cfg.workers == 0 {
        ctx.run_inline(&req, sinks, &mut stats)
    } else {
        ctx.run_pooled(req, sinks, &mut stats, cfg.workers)
    };

    if let Some(scope) = scope {
        // Success or failure, the scope closes with a terminal
        // `RunFinished` carrying whatever was actually written — so a
        // subscriber draining to JSONL always sees a terminated stream
        // (on errors: the `SinkError` from the reader, then this).
        let rows = stats.iter().map(|s| s.rows).sum();
        let bytes = stats.iter().map(|s| s.bytes).sum();
        scope.finish(rows, bytes, started.elapsed().as_secs_f64());
    }
    result?;
    Ok(stats)
}

/// The error a contained render panic becomes: it names the table and
/// the rows of the package that failed.
fn render_panic(req: &Request<'_>, seq: u64) -> io::Error {
    let (idx, pkg, _) = req.package(seq);
    io::Error::other(format!(
        "rendering table `{}` rows {}..{} panicked",
        req.jobs[idx].meta.name, pkg.rows.start, pkg.rows.end
    ))
}

/// Shuts the pool down however the reader ends (a panicking sink too).
struct ShutDownOnDrop<'p, 'a>(&'p Pool<'a>);

impl Drop for ShutDownOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.shut_down();
    }
}

impl RunCtx<'_> {
    /// Stamp job `idx`'s completion time. Called exactly once per job,
    /// when its last package is written — or up front for jobs with none.
    fn finish_job(&self, idx: usize, stats: &mut [TableRunStats]) {
        stats[idx].seconds = self.started.elapsed().as_secs_f64();
        if let Some(scope) = self.scope {
            // A job with no packages never announced itself;
            // `job_started` is idempotent.
            scope.job_started(idx);
            scope.job_finished(idx, &stats[idx]);
        }
    }

    /// Write the rendered package `seq` to its job's sink and, when it
    /// was the job's last, finish the job.
    fn write_package(
        &self,
        req: &Request<'_>,
        seq: u64,
        buf: &[u8],
        mut timings: PackageTimings,
        sinks: &mut [&mut dyn Sink],
        stats: &mut [TableRunStats],
    ) -> io::Result<()> {
        let (idx, pkg, _) = req.package(seq);
        let write_started = self.scope.map(|scope| {
            scope.job_started(idx);
            scope.begin_write(idx);
            now_ns()
        });
        // An empty package (a rowless job whose format has no framing
        // bytes) never reaches the sink, so it cannot open an empty part.
        let write_result = if buf.is_empty() {
            Ok(())
        } else {
            sinks[idx].write_chunk(buf)
        };
        if let Some(scope) = self.scope {
            scope.end_write();
            if let Err(e) = &write_result {
                scope.sink_error(idx, e);
            }
        }
        write_result?;
        let out = &mut stats[idx];
        out.rows += pkg.len();
        out.bytes += buf.len() as u64;
        if let Some(handles) = self.handles {
            handles[idx].record_package(pkg.len(), buf.len() as u64);
        }
        if let (Some(scope), Some(w0)) = (self.scope, write_started) {
            timings.write_ns = now_ns().saturating_sub(w0);
            scope.package_completed(idx, pkg.seq, pkg.len(), buf.len() as u64, timings);
        }
        if pkg.seq + 1 == req.jobs[idx].packages {
            self.finish_job(idx, stats);
        }
        Ok(())
    }

    /// Inline execution on the calling thread, in package order — which
    /// is already per-job row order. The reference the byte checks
    /// compare the pool against.
    fn run_inline(
        &self,
        req: &Request<'_>,
        sinks: &mut [&mut dyn Sink],
        stats: &mut [TableRunStats],
    ) -> io::Result<()> {
        let mut state = WorkerState::default();
        let mut out = Vec::new();
        let phases: Option<Arc<WorkerPhases>> = self.scope.map(|s| s.slot(0));
        for seq in 0..req.total {
            out.clear();
            out.reserve(req.capacity_hint(seq));
            // The package counts as pending while it renders, so an
            // inline run that wedges inside a render is not idle.
            if let Some(scope) = self.scope {
                scope.ticket_issued();
            }
            let timings = req.render(seq, &mut state, &mut out, phases.as_deref());
            if let Some(scope) = self.scope {
                scope.ticket_done();
            }
            let timings = timings.ok_or_else(|| render_panic(req, seq))?;
            self.write_package(req, seq, &out, timings, sinks, stats)?;
        }
        Ok(())
    }

    /// Pooled execution: `workers` scoped threads render the run as one
    /// request of the worker pool; this thread reads it back.
    fn run_pooled(
        &self,
        req: Request<'_>,
        sinks: &mut [&mut dyn Sink],
        stats: &mut [TableRunStats],
        workers: usize,
    ) -> io::Result<()> {
        // Four packages of slack per worker plus the one it renders, less
        // the one the sink is writing: a blocked sink holds at most
        // 5 × workers packages in memory.
        let pool = Pool::new(self.scope.map(Held::Borrowed), 5 * workers - 1, workers);
        std::thread::scope(|threads| {
            for worker in 0..workers {
                let pool = &pool;
                threads.spawn(move || pool.work(worker));
            }
            let _shut_down = ShutDownOnDrop(&pool);
            // Dropped first, the reader cancels what is still queued.
            let mut reader = Reader::start(req, &pool);
            loop {
                let (seq, (buf, timings)) = match reader.next(&pool) {
                    Ok(Some(package)) => package,
                    Ok(None) => return Ok(()),
                    Err(Stop::Panicked(seq)) => return Err(render_panic(reader.request(), seq)),
                    Err(Stop::ShutDown) => return Err(io::Error::other("worker pool shut down")),
                };
                self.write_package(reader.request(), seq, &buf, timings, sinks, stats)?;
                pool.buffers.put(buf);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    use pdgf_gen::MapResolver;
    use pdgf_output::{CsvFormatter, JsonFormatter, MemorySink, SqlFormatter, XmlFormatter};
    use pdgf_schema::{ColumnBatch, Expr, Field, GeneratorSpec, Schema, SqlType, Table, Value};

    use crate::monitor::Monitor;
    use crate::package::render_reference;

    fn runtime(rows: u64) -> SchemaRuntime {
        let schema = Schema::new("sched", 11).table(
            Table::new("t", &format!("{rows}"))
                .field(
                    Field::new("id", SqlType::BigInt, GeneratorSpec::Id { permute: false })
                        .primary(),
                )
                .field(Field::new(
                    "v",
                    SqlType::Integer,
                    GeneratorSpec::Long {
                        min: Expr::parse("0").unwrap(),
                        max: Expr::parse("999999").unwrap(),
                    },
                )),
        );
        SchemaRuntime::build(&schema, &MapResolver::new()).unwrap()
    }

    /// Runtime with several tables of mixed sizes for project runs.
    fn multi_runtime(sizes: &[u64]) -> SchemaRuntime {
        let mut schema = Schema::new("multi", 23);
        for (i, rows) in sizes.iter().enumerate() {
            schema = schema.table(
                Table::new(&format!("t{i}"), &format!("{rows}"))
                    .field(
                        Field::new("id", SqlType::BigInt, GeneratorSpec::Id { permute: false })
                            .primary(),
                    )
                    .field(Field::new(
                        "v",
                        SqlType::Integer,
                        GeneratorSpec::Long {
                            min: Expr::parse("0").unwrap(),
                            max: Expr::parse("999999").unwrap(),
                        },
                    )),
            );
        }
        SchemaRuntime::build(&schema, &MapResolver::new()).unwrap()
    }

    fn run_fmt(
        rt: &SchemaRuntime,
        formatter: &dyn Formatter,
        workers: usize,
        package_rows: u64,
    ) -> String {
        let mut sink = MemorySink::new();
        let cfg = RunConfig::new().workers(workers).package_rows(package_rows);
        let stats = generate_table_range(
            rt,
            0,
            0,
            0..rt.tables()[0].size,
            formatter,
            &mut sink,
            &cfg,
            None,
        )
        .unwrap();
        assert_eq!(stats.rows, rt.tables()[0].size);
        assert_eq!(stats.bytes, sink.bytes_written());
        sink.as_str().to_string()
    }

    fn run(rt: &SchemaRuntime, workers: usize, package_rows: u64) -> String {
        run_fmt(rt, &CsvFormatter::new(), workers, package_rows)
    }

    #[test]
    fn config_builder_defaults_and_setters() {
        let d = RunConfig::default();
        assert_eq!(d.worker_threads(), available_workers());
        assert_eq!(d.rows_per_package(), 10_000);
        let cfg = RunConfig::new().workers(0).package_rows(1);
        assert_eq!(cfg.worker_threads(), 0, "0 workers = inline is legal");
        assert_eq!(cfg.rows_per_package(), 1);
    }

    #[test]
    #[should_panic(expected = "package_rows must be at least 1")]
    fn config_builder_rejects_zero_package_rows() {
        let _ = RunConfig::new().package_rows(0);
    }

    #[test]
    fn inline_output_has_one_line_per_row() {
        let rt = runtime(100);
        let out = run(&rt, 0, 10);
        assert_eq!(out.lines().count(), 100);
        assert!(out.starts_with("1,"));
    }

    #[test]
    fn parallel_output_is_byte_identical_to_inline() {
        let rt = runtime(5_000);
        let reference = run(&rt, 0, 128);
        for workers in [1, 2, 4, 8] {
            for pkg in [7, 100, 1024, 100_000] {
                assert_eq!(
                    run(&rt, workers, pkg),
                    reference,
                    "workers={workers} pkg={pkg}"
                );
            }
        }
    }

    #[test]
    fn every_format_is_byte_identical_across_parallelism() {
        let rt = runtime(2_000);
        let formatters: [&dyn Formatter; 4] = [
            &CsvFormatter::new(),
            &JsonFormatter,
            &XmlFormatter,
            &SqlFormatter::new(),
        ];
        for formatter in formatters {
            let reference = run_fmt(&rt, formatter, 0, 128);
            for workers in [1, 2, 4] {
                for pkg in [7, 256, 100_000] {
                    assert_eq!(
                        run_fmt(&rt, formatter, workers, pkg),
                        reference,
                        "format={} workers={workers} pkg={pkg}",
                        formatter.name()
                    );
                }
            }
        }
    }

    /// The engine produces the row reference renderer's bytes for every
    /// format, worker count, and package size — including ragged tails.
    #[test]
    fn engine_matches_row_reference_bytes() {
        let rt = runtime(1_500);
        let formatters: [&dyn Formatter; 4] = [
            &CsvFormatter::new(),
            &JsonFormatter,
            &XmlFormatter,
            &SqlFormatter::new(),
        ];
        for formatter in formatters {
            let mut reference = Vec::new();
            render_reference(
                &rt,
                &TableJob::full_table(0, rt.tables()[0].size),
                formatter,
                &mut reference,
            );
            for workers in [0usize, 2] {
                for pkg in [7u64, 256, 100_000] {
                    assert_eq!(
                        run_fmt(&rt, formatter, workers, pkg).as_bytes(),
                        reference,
                        "format={} workers={workers} pkg={pkg}",
                        formatter.name()
                    );
                }
            }
        }
    }

    /// The heart of the project pool: every table's stream is byte-
    /// identical to its own sequential run, for every worker count, even
    /// though the pool interleaves tables.
    #[test]
    fn project_run_streams_match_sequential_per_table_runs() {
        let rt = multi_runtime(&[1, 700, 0, 2_500, 35, 1_200]);
        let formatters: [&dyn Formatter; 2] = [&CsvFormatter::new().with_header(), &XmlFormatter];
        for formatter in formatters {
            let reference: Vec<String> = (0..rt.tables().len())
                .map(|t| {
                    let mut sink = MemorySink::new();
                    generate_table_range(
                        &rt,
                        t as u32,
                        0,
                        0..rt.tables()[t].size,
                        formatter,
                        &mut sink,
                        &RunConfig::new().workers(0).package_rows(64),
                        None,
                    )
                    .unwrap();
                    sink.as_str().to_string()
                })
                .collect();
            for workers in [0usize, 1, 2, 4, 8] {
                let jobs: Vec<TableJob> = rt
                    .tables()
                    .iter()
                    .enumerate()
                    .map(|(t, table)| TableJob::full_table(t as u32, table.size))
                    .collect();
                let mut sinks: Vec<MemorySink> =
                    (0..jobs.len()).map(|_| MemorySink::new()).collect();
                {
                    let mut refs: Vec<&mut dyn Sink> =
                        sinks.iter_mut().map(|s| s as &mut dyn Sink).collect();
                    let stats = run_project(
                        &rt,
                        &jobs,
                        formatter,
                        &mut refs,
                        &RunConfig::new().workers(workers).package_rows(77),
                        None,
                    )
                    .unwrap();
                    for (t, s) in stats.iter().enumerate() {
                        assert_eq!(s.rows, rt.tables()[t].size, "table {t} rows");
                    }
                }
                for (t, sink) in sinks.iter().enumerate() {
                    assert_eq!(
                        sink.as_str(),
                        reference[t],
                        "format={} workers={workers} table={t}",
                        formatter.name()
                    );
                }
            }
        }
    }

    #[test]
    fn sub_ranges_generate_the_matching_slice() {
        let rt = runtime(1000);
        let all = run(&rt, 0, 100);
        let mut sink = MemorySink::new();
        let stats = generate_table_range(
            &rt,
            0,
            0,
            200..300,
            &CsvFormatter::new(),
            &mut sink,
            &RunConfig::new().workers(2).package_rows(17),
            None,
        )
        .unwrap();
        assert_eq!(stats.rows, 100, "rows reflect the requested sub-range");
        let slice: Vec<&str> = all.lines().skip(200).take(100).collect();
        let got: Vec<&str> = sink.as_str().lines().collect();
        assert_eq!(got, slice);
    }

    /// Sharded framing: only the shard containing row 0 emits `begin`,
    /// only the shard reaching the last row emits `end`, so concatenated
    /// shards equal the whole-table bytes for framed formats.
    #[test]
    fn shards_concatenate_to_whole_table_bytes_for_framed_formats() {
        let rt = runtime(100);
        let formatters: [&dyn Formatter; 3] = [
            &CsvFormatter::new().with_header(),
            &XmlFormatter,
            &SqlFormatter::new(),
        ];
        for formatter in formatters {
            let whole = run_fmt(&rt, formatter, 2, 13);
            let mut concat = String::new();
            for shard in [0..40u64, 40..70, 70..100] {
                let mut sink = MemorySink::new();
                generate_table_range(
                    &rt,
                    0,
                    0,
                    shard,
                    formatter,
                    &mut sink,
                    &RunConfig::new().workers(2).package_rows(13),
                    None,
                )
                .unwrap();
                concat.push_str(sink.as_str());
            }
            assert_eq!(concat, whole, "format={}", formatter.name());
        }
    }

    #[test]
    fn monitor_sees_all_rows_and_bytes() {
        let rt = runtime(1000);
        let monitor = Monitor::new();
        let mut sink = MemorySink::new();
        generate_table_range(
            &rt,
            0,
            0,
            0..1000,
            &CsvFormatter::new(),
            &mut sink,
            &RunConfig::new().workers(3).package_rows(64),
            Some(&monitor),
        )
        .unwrap();
        let snap = monitor.snapshot();
        assert_eq!(snap.rows, 1000);
        assert_eq!(snap.bytes, sink.bytes_written());
        assert!(snap.packages >= 1000 / 64);
        // Per-table counters agree with the aggregate for a one-table run.
        let t = monitor.table_snapshot("t").expect("table t recorded");
        assert_eq!(t.rows, 1000);
        assert_eq!(t.bytes, snap.bytes);
    }

    #[test]
    fn monitor_tracks_headers_and_tables_separately() {
        let rt = multi_runtime(&[100, 300]);
        let monitor = Monitor::new();
        let jobs = [TableJob::full_table(0, 100), TableJob::full_table(1, 300)];
        let mut s0 = MemorySink::new();
        let mut s1 = MemorySink::new();
        {
            let mut refs: Vec<&mut dyn Sink> = vec![&mut s0, &mut s1];
            run_project(
                &rt,
                &jobs,
                &CsvFormatter::new().with_header(),
                &mut refs,
                &RunConfig::new().workers(2).package_rows(32),
                Some(&monitor),
            )
            .unwrap();
        }
        let t0 = monitor.table_snapshot("t0").expect("t0 recorded");
        let t1 = monitor.table_snapshot("t1").expect("t1 recorded");
        assert_eq!(t0.rows, 100);
        assert_eq!(t1.rows, 300);
        assert_eq!(t0.bytes, s0.bytes_written(), "header bytes included");
        assert_eq!(t1.bytes, s1.bytes_written());
        let snap = monitor.snapshot();
        assert_eq!(snap.rows, 400);
        assert_eq!(snap.bytes, s0.bytes_written() + s1.bytes_written());
    }

    #[test]
    fn empty_table_produces_no_rows() {
        let rt = runtime(0);
        assert_eq!(run(&rt, 2, 10), "");
    }

    #[test]
    fn empty_table_still_owns_its_framing() {
        let rt = runtime(0);
        // A header-CSV empty table is a header and nothing else; an XML
        // empty table is an open+close pair.
        let header = run_fmt(&rt, &CsvFormatter::new().with_header(), 2, 10);
        assert_eq!(header, "id,v\n");
        let xml = run_fmt(&rt, &XmlFormatter, 2, 10);
        assert!(xml.starts_with("<t>"), "{xml}");
        assert!(xml.trim_end().ends_with("</t>"), "{xml}");
    }

    #[test]
    fn header_formatter_emits_begin_once() {
        let rt = runtime(10);
        let mut sink = MemorySink::new();
        generate_table_range(
            &rt,
            0,
            0,
            0..10,
            &CsvFormatter::new().with_header(),
            &mut sink,
            &RunConfig::new().workers(2).package_rows(3),
            None,
        )
        .unwrap();
        let out = sink.as_str();
        assert!(out.starts_with("id,v\n"));
        assert_eq!(out.matches("id,v").count(), 1);
    }

    /// `TableRunStats::bytes` reports this run's delta, not the sink's
    /// cumulative counter, so reusing one sink across table runs (single-
    /// file multi-table output) does not over-count.
    #[test]
    fn stats_bytes_are_per_run_deltas_on_a_shared_sink() {
        let rt = multi_runtime(&[200, 500]);
        let mut sink = MemorySink::new();
        let cfg = RunConfig::new().workers(2).package_rows(64);
        let first = generate_table_range(
            &rt,
            0,
            0,
            0..200,
            &CsvFormatter::new(),
            &mut sink,
            &cfg,
            None,
        )
        .unwrap();
        let after_first = sink.bytes_written();
        assert_eq!(first.bytes, after_first);
        let second = generate_table_range(
            &rt,
            1,
            0,
            0..500,
            &CsvFormatter::new(),
            &mut sink,
            &cfg,
            None,
        )
        .unwrap();
        assert_eq!(
            second.bytes,
            sink.bytes_written() - after_first,
            "second run must report its own bytes, not the sink total"
        );
        assert!(second.bytes > 0);
    }

    struct FailingSink {
        wrote: u64,
        budget: u64,
    }

    impl Sink for FailingSink {
        fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
            if self.wrote + bytes.len() as u64 > self.budget {
                return Err(io::Error::other("disk full"));
            }
            self.wrote += bytes.len() as u64;
            Ok(())
        }
        fn finish(&mut self) -> io::Result<u64> {
            Ok(self.wrote)
        }
        fn bytes_written(&self) -> u64 {
            self.wrote
        }
    }

    #[test]
    fn failing_sink_surfaces_the_error() {
        let rt = runtime(10_000);
        let mut sink = FailingSink {
            wrote: 0,
            budget: 4_096,
        };
        let err = generate_table_range(
            &rt,
            0,
            0,
            0..10_000,
            &CsvFormatter::new(),
            &mut sink,
            &RunConfig::new().workers(2).package_rows(100),
            None,
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    /// A sink error on table k must stop the whole pool without
    /// deadlocking workers that are already generating table k+1: the
    /// run's cancellation reaches every worker regardless of which job
    /// its current package belongs to.
    #[test]
    fn failing_sink_on_one_table_does_not_deadlock_the_project_pool() {
        let rt = multi_runtime(&[20_000, 20_000, 20_000]);
        let jobs: Vec<TableJob> = rt
            .tables()
            .iter()
            .enumerate()
            .map(|(t, table)| TableJob::full_table(t as u32, table.size))
            .collect();
        let mut ok0 = MemorySink::new();
        let mut bad = FailingSink {
            wrote: 0,
            budget: 2_048,
        };
        let mut ok2 = MemorySink::new();
        let mut refs: Vec<&mut dyn Sink> = vec![&mut ok0, &mut bad, &mut ok2];
        let err = run_project(
            &rt,
            &jobs,
            &CsvFormatter::new(),
            &mut refs,
            &RunConfig::new().workers(4).package_rows(100),
            None,
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    /// CSV that panics on the batch holding row `at` of a table, and
    /// counts every batch it is asked to render.
    struct FaultyFormatter {
        at: Option<(&'static str, u64)>,
        renders: AtomicU64,
    }

    impl FaultyFormatter {
        fn panicking_at(table: &'static str, row: u64) -> Self {
            Self {
                at: Some((table, row)),
                renders: AtomicU64::new(0),
            }
        }

        fn counting() -> Self {
            Self {
                at: None,
                renders: AtomicU64::new(0),
            }
        }
    }

    impl Formatter for FaultyFormatter {
        fn row(&self, out: &mut Vec<u8>, meta: &TableMeta, values: &[Value]) {
            CsvFormatter::new().row(out, meta, values);
        }

        fn rows_columnar(&self, out: &mut Vec<u8>, meta: &TableMeta, batch: &ColumnBatch) {
            self.renders.fetch_add(1, Ordering::SeqCst);
            if let (Some((table, at)), Value::Long(id)) = (self.at, batch.columns()[0].value(0)) {
                // Ids count from 1, so the batch holds rows id-1 onwards.
                let first = id as u64 - 1;
                if meta.name == table && (first..first + batch.rows() as u64).contains(&at) {
                    panic!("deliberate render failure");
                }
            }
            CsvFormatter::new().rows_columnar(out, meta, batch);
        }

        fn name(&self) -> &'static str {
            "faulty-csv"
        }
    }

    /// A render panic becomes an error naming the table and the failing
    /// rows, at every worker count, instead of unwinding out of the run.
    #[test]
    fn render_panic_is_an_error_naming_the_table() {
        let rt = multi_runtime(&[300, 500]);
        let jobs = [TableJob::full_table(0, 300), TableJob::full_table(1, 500)];
        for workers in [0usize, 1, 2, 4] {
            let mut s0 = MemorySink::new();
            let mut s1 = MemorySink::new();
            let mut refs: Vec<&mut dyn Sink> = vec![&mut s0, &mut s1];
            let err = run_project(
                &rt,
                &jobs,
                &FaultyFormatter::panicking_at("t1", 250),
                &mut refs,
                &RunConfig::new().workers(workers).package_rows(100),
                None,
            )
            .unwrap_err();
            assert_eq!(
                err.to_string(),
                "rendering table `t1` rows 200..300 panicked",
                "workers={workers}"
            );
        }
    }

    /// Sink whose first write blocks until the test unlocks `gate`.
    struct BlockedSink<'a> {
        gate: Option<&'a Mutex<()>>,
    }

    impl Sink for BlockedSink<'_> {
        fn write_chunk(&mut self, _bytes: &[u8]) -> io::Result<()> {
            if let Some(gate) = self.gate.take() {
                drop(gate.lock());
            }
            Ok(())
        }
        fn finish(&mut self) -> io::Result<u64> {
            Ok(0)
        }
        fn bytes_written(&self) -> u64 {
            0
        }
    }

    /// While the sink is blocked on its first write, the pool renders at
    /// most 5 × workers packages: what is in flight is bounded by the
    /// worker count, not by the table.
    #[test]
    fn blocked_sink_bounds_packages_in_flight() {
        let rt = runtime(10_000);
        for workers in [1usize, 2] {
            let formatter = FaultyFormatter::counting();
            let gate = Mutex::new(());
            let held = gate.lock();
            std::thread::scope(|s| {
                let run = s.spawn(|| {
                    let mut sink = BlockedSink { gate: Some(&gate) };
                    let cfg = RunConfig::new().workers(workers).package_rows(50);
                    generate_table_range(&rt, 0, 0, 0..10_000, &formatter, &mut sink, &cfg, None)
                });
                std::thread::sleep(Duration::from_millis(300));
                let rendered = formatter.renders.load(Ordering::SeqCst);
                drop(held);
                assert_eq!(run.join().unwrap().unwrap().rows, 10_000);
                assert!(
                    rendered <= 5 * workers as u64,
                    "workers={workers}: {rendered} packages rendered behind a blocked sink"
                );
            });
            assert_eq!(formatter.renders.load(Ordering::SeqCst), 200);
        }
    }
}
