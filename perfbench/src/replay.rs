//! The benchmark's own replay of a whole-project generation run, one
//! public layer call at a time.
//!
//! [`replay`] reproduces what `GenerationRun::run` does with a worker
//! pool — package tickets, `SchemaRuntime::fill_batch`,
//! `Formatter::rows_columnar`, the `handoff` channel, `BufferPool`
//! recycling, a `ReorderBuffer` per table and the table's `Sink` — by
//! calling those public functions directly, each inside a span when a
//! trace is requested. Its bytes must equal the real run's; the untimed
//! output checks use it (untraced) as the reference stream, and the
//! traced run uses it to split wall time into layers.
//!
//! [`kernel_probe`] repeats `fill_batch` column by column through each
//! generator's `fill_column`, so per-kind kernel cost can be read off
//! one span per column.

use std::io;
use std::time::Instant;

use pdgf_gen::{ColumnCtx, GenScratch, SchemaRuntime};
use pdgf_output::{BufferPool, Formatter, ReorderBuffer, Sink, TableMeta};
use pdgf_runtime::handoff::{channel, TicketCounter};
use pdgf_runtime::{packages_for_jobs, table_meta, TableJob};
use pdgf_schema::ColumnBatch;

use crate::trace::{Recorder, Trace};

/// Rows per work package: the `RunConfig` default the measured runs use.
pub const PACKAGE_ROWS: u64 = 10_000;

/// Cap on a pre-sized package buffer, as in the scheduler.
const MAX_PREALLOC_BYTES: u64 = 64 << 20;

/// Layer names used as span labels.
pub mod layer {
    /// `SchemaRuntime::fill_batch`, keyed by table.
    pub const FILL_BATCH: &str = "pdgf-gen.fill_batch";
    /// `Generator::fill_column`, keyed by generator kind.
    pub const FILL_COLUMN: &str = "pdgf-gen.fill_column";
    /// `Formatter::rows_columnar`, keyed by table.
    pub const ROWS_COLUMNAR: &str = "pdgf-output.rows_columnar";
    /// `Formatter::begin`/`end`, keyed by table.
    pub const FRAMING: &str = "pdgf-output.framing";
    /// `Sink::write_chunk`/`finish`.
    pub const SINK: &str = "pdgf-output.sink";
    /// `ReorderBuffer::push`/`pop_ready`.
    pub const REORDER: &str = "pdgf-output.reorder";
    /// `BufferPool::take_with_capacity`/`put`.
    pub const POOL: &str = "pdgf-output.pool";
    /// `handoff::Sender::send` (a worker blocked on a full channel).
    pub const SEND: &str = "pdgf-runtime.handoff.send";
    /// `handoff::Receiver::recv` (the output stage waiting for work).
    pub const RECV: &str = "pdgf-runtime.handoff.recv";
}

/// Every table's name, leaked once so spans can key on `&'static str`.
pub fn table_names(rt: &SchemaRuntime) -> Vec<&'static str> {
    rt.tables()
        .iter()
        .map(|t| &*Box::leak(t.name.clone().into_boxed_str()))
        .collect()
}

/// One table's output as the replay saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableOut {
    /// Rows written.
    pub rows: u64,
    /// Bytes written, framing included.
    pub bytes: u64,
}

/// Result of one replay.
#[derive(Debug)]
pub struct ReplayOut {
    /// Wall seconds from the first framing write to the last sink finish.
    pub wall_s: f64,
    /// Per table, schema order.
    pub tables: Vec<TableOut>,
    /// Packages generated.
    pub packages: u64,
}

/// Generate every table of `rt` into `sinks` (schema order) on `workers`
/// threads (at least 1), exactly as a pooled `GenerationRun` would, and
/// fold the spans into `trace` when one is given.
pub fn replay(
    rt: &SchemaRuntime,
    names: &[&'static str],
    formatter: &dyn Formatter,
    workers: usize,
    sinks: &mut [Box<dyn Sink>],
    trace: Option<&mut Trace>,
) -> io::Result<ReplayOut> {
    let workers = workers.max(1);
    let tables = rt.tables();
    assert_eq!(sinks.len(), tables.len(), "one sink per table");
    let order: Vec<u32> = if rt.generation_order().len() == tables.len() {
        rt.generation_order().to_vec()
    } else {
        (0..tables.len() as u32).collect()
    };
    let jobs: Vec<TableJob> = order
        .iter()
        .map(|&t| TableJob::full_table(t, tables[t as usize].size))
        .collect();
    let metas: Vec<_> = order.iter().map(|&t| table_meta(rt, t)).collect();
    let profiles = rt.profiles();
    let row_bounds: Vec<Option<u64>> = order
        .iter()
        .zip(&metas)
        .map(|(&t, m)| formatter.max_row_bytes(m, &profiles[t as usize]))
        .collect();
    let packages = packages_for_jobs(&jobs, PACKAGE_ROWS);
    let mut remaining = vec![0u64; jobs.len()];
    for p in &packages {
        remaining[p.job as usize] += 1;
    }
    let mut outs = vec![TableOut { rows: 0, bytes: 0 }; tables.len()];
    let mut reorder: Vec<ReorderBuffer<(u64, Vec<u8>)>> =
        jobs.iter().map(|_| ReorderBuffer::new()).collect();

    let epoch = Instant::now();
    let mut main = if trace.is_some() {
        Recorder::new(epoch)
    } else {
        Recorder::off()
    };
    let key = |job: usize| names[order[job] as usize];

    let mut frame = Vec::new();
    for job in 0..jobs.len() {
        let t = order[job] as usize;
        let sink = &mut *sinks[t];
        outs[t].bytes += framing(
            &mut main,
            formatter,
            &metas[job],
            key(job),
            true,
            sink,
            &mut frame,
        )?;
        if remaining[job] == 0 {
            outs[t].bytes += framing(
                &mut main,
                formatter,
                &metas[job],
                key(job),
                false,
                sink,
                &mut frame,
            )?;
        }
    }

    let tickets = TicketCounter::new(packages.len() as u64);
    let depth = workers * 4;
    let (tx, rx) = channel::<(u32, u64, u64, Vec<u8>)>(depth);
    let pool = BufferPool::new(depth + workers + 1);
    let mut result: io::Result<()> = Ok(());
    let worker_recs: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                let (tickets, pool, packages, metas, row_bounds) =
                    (&tickets, &pool, &packages, &metas, &row_bounds);
                let mut rec = main.sibling();
                scope.spawn(move || {
                    let mut batch = ColumnBatch::new();
                    let mut scratch = GenScratch::default();
                    while let Some(i) = tickets.claim() {
                        let p = &packages[i as usize];
                        let job = p.job as usize;
                        let rows = p.pkg.len();
                        let want = row_bounds[job]
                            .and_then(|b| b.checked_mul(rows))
                            .map_or(0, |b| b.min(MAX_PREALLOC_BYTES) as usize);
                        let mut out =
                            rec.span(layer::POOL, "take", 1, |_| pool.take_with_capacity(want));
                        rec.span(layer::FILL_BATCH, key(job), rows, |_| {
                            rt.fill_batch(
                                p.pkg.table,
                                p.pkg.update,
                                p.pkg.rows.clone(),
                                &mut batch,
                                &mut scratch,
                            )
                        });
                        rec.span(layer::ROWS_COLUMNAR, key(job), rows, |_| {
                            formatter.rows_columnar(&mut out, &metas[job], &batch)
                        });
                        let sent = rec.span(layer::SEND, "", 1, |_| {
                            tx.send((p.job, p.pkg.seq, rows, out))
                        });
                        if sent.is_err() {
                            break;
                        }
                    }
                    rec
                })
            })
            .collect();
        drop(tx);

        let mut written = 0u64;
        while let Some((job, seq, rows, buf)) = main.span(layer::RECV, "", 1, |_| rx.recv()) {
            let job = job as usize;
            let mut ready = main.span(layer::REORDER, "push", 1, |_| {
                reorder[job].push(seq, (rows, buf))
            });
            while let Some((rows, buf)) = ready {
                let t = order[job] as usize;
                if let Err(e) = main.span(layer::SINK, "write_chunk", buf.len() as u64, |_| {
                    sinks[t].write_chunk(&buf)
                }) {
                    result = Err(e);
                    break;
                }
                outs[t].rows += rows;
                outs[t].bytes += buf.len() as u64;
                main.span(layer::POOL, "put", 1, |_| pool.put(buf));
                written += 1;
                remaining[job] -= 1;
                if remaining[job] == 0 {
                    let sink = &mut *sinks[t];
                    match framing(
                        &mut main,
                        formatter,
                        &metas[job],
                        key(job),
                        false,
                        sink,
                        &mut frame,
                    ) {
                        Ok(n) => outs[t].bytes += n,
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
                ready = main.span(layer::REORDER, "pop_ready", 1, |_| reorder[job].pop_ready());
            }
            if result.is_err() {
                break;
            }
        }
        drop(rx);
        if result.is_ok() && written != packages.len() as u64 {
            result = Err(io::Error::other(format!(
                "replay lost packages: wrote {written} of {}",
                packages.len()
            )));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    result?;
    for sink in sinks.iter_mut() {
        main.span(layer::SINK, "finish", 0, |_| sink.finish())?;
    }
    let wall_s = epoch.elapsed().as_secs_f64();
    if let Some(trace) = trace {
        trace.absorb(&main);
        for rec in &worker_recs {
            trace.absorb(rec);
        }
    }
    Ok(ReplayOut {
        wall_s,
        tables: outs,
        packages: packages.len() as u64,
    })
}

/// Write a table's begin (or end) framing; returns the bytes written.
fn framing(
    rec: &mut Recorder,
    formatter: &dyn Formatter,
    meta: &TableMeta,
    key: &'static str,
    begin: bool,
    sink: &mut dyn Sink,
    frame: &mut Vec<u8>,
) -> io::Result<u64> {
    frame.clear();
    rec.span(layer::FRAMING, key, 1, |_| {
        if begin {
            formatter.begin(frame, meta);
        } else {
            formatter.end(frame, meta);
        }
    });
    if !frame.is_empty() {
        rec.span(layer::SINK, "write_chunk", frame.len() as u64, |_| {
            sink.write_chunk(frame)
        })?;
    }
    Ok(frame.len() as u64)
}

/// Generate every package of every table on the calling thread, column
/// by column through `Generator::fill_column` (what `fill_batch` does
/// inside), recording one span per column keyed by the generator's kind
/// name. Returns the cells generated.
pub fn kernel_probe(rt: &SchemaRuntime, rec: &mut Recorder) -> u64 {
    let profiles = rt.profiles();
    let mut batch = ColumnBatch::new();
    let mut scratch = GenScratch::default();
    let mut cells = 0;
    for (t, table) in rt.tables().iter().enumerate() {
        let mut start = 0;
        while start < table.size {
            let end = table.size.min(start + PACKAGE_ROWS);
            let rows = end - start;
            batch.begin(table.columns.len(), rows as usize);
            for (c, (col, out)) in table.columns.iter().zip(batch.columns_mut()).enumerate() {
                let ctx = ColumnCtx {
                    runtime: rt,
                    update_seed: rt.seed_tree().update_seed(t as u32, c as u32, 0),
                    update: 0,
                    width_hint: profiles[t][c].width.bound(),
                };
                rec.span(layer::FILL_COLUMN, col.generator.name(), rows, |_| {
                    col.generator
                        .fill_column(&ctx, start..end, out, &mut scratch)
                });
                cells += rows;
            }
            start = end;
        }
    }
    cells
}
