//! The project-wide scheduler: one worker pool generating the work
//! packages of *every* table with sorted, per-table output streams.
//!
//! The pipeline is the paper's data flow: scheduler → workers (seed +
//! generate + format) → output system (reorder + sink). Where earlier
//! revisions spawned a fresh pool per table and ran tables strictly
//! sequentially — paying the spawn cost for every small table and idling
//! workers during each table's tail — [`run_project`] creates one pool
//! per run and drains a single global queue of packages spanning all
//! tables (and update epochs). Workers claim packages from a shared
//! ticket counter (packages are uniform, so a ticket counter beats work
//! stealing), format rows into recycled byte buffers, and hand completed
//! buffers to the output stage through a bounded channel for
//! backpressure. The output stage routes each package to its job's
//! [`ReorderBuffer`] and sink, so every table's stream stays byte-
//! identical to a sequential run even while tables overlap in time, and
//! written buffers return to a [`BufferPool`] shared with the workers —
//! after warm-up the steady state allocates nothing per package.
//!
//! Every package runs through the one package body shared with the row
//! service, [`render_package`](crate::package). Framing ([`Framing`])
//! makes node sharding exact for framed formats: a shard emits the
//! formatter's `begin`/`end` bytes only when it owns the start/end of the
//! table, and those bytes travel inside the job's first and last package,
//! so concatenated shard outputs equal the single-node byte stream for
//! CSV-with-header, XML, and SQL alike.
//!
//! Observability rides along without touching the bytes: a run accepts an
//! [`Observability`] bundle (progress [`Monitor`] and/or [`Telemetry`]).
//! With telemetry attached, workers time each package's generate and
//! format phases into per-worker histograms and the output stage
//! publishes run/job/package events — all copies of counters flowing
//! outward, nothing flowing back into generation, so output stays a pure
//! function of (schema, seed, format) with or without observers.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use pdgf_gen::SchemaRuntime;
use pdgf_output::{BufferPool, Formatter, ReorderBuffer, Sink, TableMeta};

use crate::handoff::{channel, TicketCounter};
use crate::metrics::{now_ns, PackageTimings, WorkerPhases};
use crate::monitor::TableHandle;
use crate::package::{
    package_capacity_hint, render_package, Framing, TableJob, WorkPackage, WorkerState,
};
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
    /// or channel overhead — the configuration for latency microbenches).
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
    /// output stage wrote, not assumed from the requested range).
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
    let size = rt.tables()[table as usize].size;
    let job = TableJob {
        table,
        update,
        framing: Framing::for_range(&rows, size),
        rows,
    };
    let stats = run_project(rt, &[job], formatter, &mut [sink], cfg, obs)?;
    stats
        .into_iter()
        .next()
        .ok_or_else(|| io::Error::other("run_project returned no stats for its single job"))
}

/// Per-job bookkeeping of the output stage.
struct JobOutput {
    /// Packages of this job not yet written to the sink.
    remaining: u64,
    reorder: ReorderBuffer<(u64, u64, Vec<u8>, PackageTimings)>,
    stats: TableRunStats,
}

/// Read-only context shared by the output-stage helpers: the run's static
/// shape plus its (optional) observers.
struct RunCtx<'a> {
    formatter: &'a dyn Formatter,
    jobs: &'a [TableJob],
    metas: &'a [TableMeta],
    /// Per-job proven upper bound on formatted bytes per row, from the
    /// abstract interpreter's column profiles. `None` when no finite
    /// bound exists; package buffers are then sized by growth as before.
    row_bounds: &'a [Option<u64>],
    /// Per-job monitor handles, pre-registered at run start so the
    /// per-package path indexes directly instead of scanning by name.
    handles: Option<&'a [TableHandle]>,
    scope: Option<&'a RunScope>,
    started: Instant,
}

/// One entry of a run's global package queue: the job it belongs to, its
/// rows, and the share of the job's framing it carries.
type QueuedPackage = (usize, WorkPackage, Framing);

/// Generate every job of a project through one persistent worker pool.
///
/// `jobs[i]` writes to `sinks[i]`; each sink receives its job's bytes in
/// row order (byte-identical to a sequential run of that job alone),
/// while the pool keeps all workers busy across job boundaries. Sinks are
/// *not* [`finish`](Sink::finish)ed — that stays with the caller, which
/// may reuse a sink across runs.
///
/// On the first sink error the run aborts: the error is returned, and the
/// channel hang-up stops every worker regardless of which job it was
/// generating — an error on one table cannot deadlock workers that have
/// moved on to the next.
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
    let metas: Vec<TableMeta> = jobs.iter().map(|j| table_meta(rt, j.table)).collect();

    // Pre-register every job's table with the monitor so per-package
    // recording is a direct handle bump, not a name scan under a lock.
    // Registration order = job order, keeping first-seen order stable.
    let handles: Option<Vec<TableHandle>> = obs.monitor.map(|m| {
        metas
            .iter()
            .map(|meta| m.register_table(&meta.name))
            .collect()
    });
    let scope: Option<RunScope> = obs.telemetry.map(|t| {
        t.begin_run(
            jobs.iter()
                .zip(&metas)
                .map(|(j, m)| JobInfo::new(m.name.clone(), j.rows.end.saturating_sub(j.rows.start)))
                .collect(),
            cfg.workers,
        )
    });

    let mut outputs: Vec<JobOutput> = jobs
        .iter()
        .map(|_| JobOutput {
            remaining: 0,
            reorder: ReorderBuffer::new(),
            stats: TableRunStats::default(),
        })
        .collect();

    // Proven per-row byte bounds from the abstract interpreter, used to
    // pre-size package buffers to their final capacity. Purely an
    // allocation hint: output bytes are identical with or without it.
    let profiles = rt.profiles();
    let row_bounds: Vec<Option<u64>> = jobs
        .iter()
        .zip(&metas)
        .map(|(j, m)| formatter.max_row_bytes(m, &profiles[j.table as usize]))
        .collect();

    let ctx = RunCtx {
        formatter,
        jobs,
        metas: &metas,
        row_bounds: &row_bounds,
        handles: handles.as_deref(),
        scope: scope.as_ref(),
        started,
    };
    let result = run_phases(rt, &ctx, sinks, &mut outputs, cfg);

    if let Some(scope) = scope {
        // Success or failure, the scope closes with a terminal
        // `RunFinished` carrying whatever was actually written — so a
        // subscriber draining to JSONL always sees a terminated stream
        // (on errors: the `SinkError` from the output stage, then this).
        let rows = outputs.iter().map(|o| o.stats.rows).sum();
        let bytes = outputs.iter().map(|o| o.stats.bytes).sum();
        scope.finish(rows, bytes, started.elapsed().as_secs_f64());
    }
    result?;
    Ok(outputs.into_iter().map(|o| o.stats).collect())
}

/// The run body: queue every job's packages, then execute them inline or
/// on the pool.
fn run_phases(
    rt: &SchemaRuntime,
    ctx: &RunCtx<'_>,
    sinks: &mut [&mut dyn Sink],
    outputs: &mut [JobOutput],
    cfg: &RunConfig,
) -> io::Result<()> {
    // One global list, job-major. Framing rides inside each job's first
    // and last package; a rowless job that owns framing gets one empty
    // package, so only an unframed rowless shard completes right here.
    let mut packages: Vec<QueuedPackage> = Vec::new();
    for (idx, job) in ctx.jobs.iter().enumerate() {
        let count = job.package_count(cfg.package_rows);
        outputs[idx].remaining = count;
        if count == 0 {
            finish_job(ctx, idx, outputs);
        }
        packages.extend((0..count).map(|seq| {
            let (pkg, framing) = job.package(seq, cfg.package_rows);
            (idx, pkg, framing)
        }));
    }

    if packages.is_empty() {
        return Ok(());
    }
    if cfg.workers == 0 {
        run_inline(rt, ctx, &packages, sinks, outputs)
    } else {
        run_pool(rt, ctx, &packages, sinks, outputs, cfg)
    }
}

/// Stamp job `idx`'s completion time. Called exactly once per job, when
/// its last package is written — or immediately for jobs with none.
fn finish_job(ctx: &RunCtx<'_>, idx: usize, outputs: &mut [JobOutput]) {
    outputs[idx].stats.seconds = ctx.started.elapsed().as_secs_f64();
    if let Some(scope) = ctx.scope {
        // A job with no packages never announced itself; `job_started`
        // is idempotent.
        scope.job_started(idx);
        scope.job_finished(idx, &outputs[idx].stats);
    }
}

/// Write one completed package of job `idx` and, when it was the job's
/// last, finish the job.
#[allow(clippy::too_many_arguments)]
fn write_package(
    ctx: &RunCtx<'_>,
    seq: u64,
    rows: u64,
    buf: &[u8],
    mut timings: PackageTimings,
    idx: usize,
    sinks: &mut [&mut dyn Sink],
    outputs: &mut [JobOutput],
) -> io::Result<()> {
    if let Some(scope) = ctx.scope {
        scope.job_started(idx);
        scope.begin_write(idx);
    }
    let write_started = ctx.scope.map(|_| now_ns());
    // An empty package (a rowless job whose format has no framing bytes)
    // never reaches the sink, so it cannot open an empty output part.
    let write_result = if buf.is_empty() {
        Ok(())
    } else {
        sinks[idx].write_chunk(buf)
    };
    if let Some(scope) = ctx.scope {
        scope.end_write();
        if let Err(e) = &write_result {
            scope.sink_error(idx, e);
        }
    }
    write_result?;
    let out = &mut outputs[idx];
    out.stats.rows += rows;
    out.stats.bytes += buf.len() as u64;
    out.remaining -= 1;
    if let Some(handles) = ctx.handles {
        handles[idx].record_package(rows, buf.len() as u64);
    }
    if let Some(scope) = ctx.scope {
        if let Some(w0) = write_started {
            timings.write_ns = now_ns().saturating_sub(w0);
        }
        scope.package_completed(idx, seq, rows, buf.len() as u64, timings);
    }
    if out.remaining == 0 {
        finish_job(ctx, idx, outputs);
    }
    Ok(())
}

/// Inline execution on the calling thread: packages run in global queue
/// order, which is already per-job row order.
fn run_inline(
    rt: &SchemaRuntime,
    ctx: &RunCtx<'_>,
    packages: &[QueuedPackage],
    sinks: &mut [&mut dyn Sink],
    outputs: &mut [JobOutput],
) -> io::Result<()> {
    let mut state = WorkerState::default();
    let mut out = Vec::new();
    let phases: Option<Arc<WorkerPhases>> = ctx.scope.map(|s| s.slot(0));
    let total = packages.len() as u64;
    // Seed the watchdog's pending gauge up front: an inline run that
    // wedges inside its first package is outstanding work, not idle.
    if let Some(scope) = ctx.scope {
        scope.set_queue_depth(total);
    }
    for (done, (idx, pkg, framing)) in packages.iter().enumerate() {
        out.clear();
        let want = package_capacity_hint(ctx.row_bounds[*idx], pkg.len());
        if out.capacity() < want {
            out.reserve(want);
        }
        let timings = render_package(
            rt,
            ctx.formatter,
            &ctx.metas[*idx],
            pkg,
            *framing,
            &mut state,
            &mut out,
            phases.as_deref(),
        );
        write_package(ctx, pkg.seq, pkg.len(), &out, timings, *idx, sinks, outputs)?;
        if let Some(scope) = ctx.scope {
            scope.set_queue_depth(total - (done as u64 + 1));
        }
    }
    Ok(())
}

/// Pooled execution: one scope of workers drains the global package
/// queue; the output stage on the calling thread reorders per job.
fn run_pool(
    rt: &SchemaRuntime,
    ctx: &RunCtx<'_>,
    packages: &[QueuedPackage],
    sinks: &mut [&mut dyn Sink],
    outputs: &mut [JobOutput],
    cfg: &RunConfig,
) -> io::Result<()> {
    let n_packages = packages.len() as u64;
    let tickets = TicketCounter::new(n_packages);
    // Bounded channel: workers stall rather than buffering the whole
    // project when a sink is slow.
    let channel_depth = cfg.workers * 4;
    let (tx, rx) = channel::<(usize, u64, u64, Vec<u8>, PackageTimings)>(channel_depth);
    // Written buffers return here and workers take them back out; sized
    // past the channel depth so even a full pipeline keeps recycling.
    let pool = BufferPool::new(channel_depth + cfg.workers + 1);
    if let Some(scope) = ctx.scope {
        scope.set_queue_depth(n_packages);
    }

    let mut result: io::Result<()> = Ok(());
    let mut written_packages = 0u64;
    std::thread::scope(|thread_scope| {
        for worker in 0..cfg.workers {
            let tx = tx.clone();
            let tickets = &tickets;
            let pool = &pool;
            let phases: Option<Arc<WorkerPhases>> = ctx.scope.map(|s| s.slot(worker));
            thread_scope.spawn(move || {
                let mut state = WorkerState::default();
                while let Some(ticket) = tickets.claim() {
                    let (idx, pkg, framing) = &packages[ticket as usize];
                    let mut out = pool
                        .take_with_capacity(package_capacity_hint(ctx.row_bounds[*idx], pkg.len()));
                    let timings = render_package(
                        rt,
                        ctx.formatter,
                        &ctx.metas[*idx],
                        pkg,
                        *framing,
                        &mut state,
                        &mut out,
                        phases.as_deref(),
                    );
                    if tx.send((*idx, pkg.seq, pkg.len(), out, timings)).is_err() {
                        // Output stage failed and hung up; stop quietly,
                        // the error is reported from the output side.
                        return;
                    }
                }
            });
        }
        drop(tx);

        // Output stage on the calling thread: route each package to its
        // job's reorder buffer and sink, recycle written buffers.
        for (idx, seq, rows, buf, timings) in rx {
            let mut ready = outputs[idx].reorder.push(seq, (seq, rows, buf, timings));
            while let Some((ready_seq, ready_rows, ready_buf, ready_timings)) = ready {
                if let Err(e) = write_package(
                    ctx,
                    ready_seq,
                    ready_rows,
                    &ready_buf,
                    ready_timings,
                    idx,
                    sinks,
                    outputs,
                ) {
                    result = Err(e);
                    return; // drops `rx`; workers see the hangup and stop
                }
                pool.put(ready_buf);
                written_packages += 1;
                if let Some(scope) = ctx.scope {
                    scope.set_queue_depth(n_packages - written_packages);
                }
                ready = outputs[idx].reorder.pop_ready();
            }
        }
        // Every sender completed, so a shortfall here means packages were
        // dropped between the workers and the sink — corrupt output, not
        // a debug-only concern.
        if written_packages != n_packages {
            let parked: usize = outputs.iter().map(|o| o.reorder.pending()).sum();
            result = Err(io::Error::other(format!(
                "output stage lost packages: wrote {written_packages} of \
                 {n_packages} ({parked} parked out of order)"
            )));
        }
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgf_gen::MapResolver;
    use pdgf_output::{CsvFormatter, JsonFormatter, MemorySink, SqlFormatter, XmlFormatter};
    use pdgf_schema::{Expr, Field, GeneratorSpec, Schema, SqlType, Table};

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
    /// channel hang-up reaches every worker regardless of which job its
    /// current package belongs to.
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
}
