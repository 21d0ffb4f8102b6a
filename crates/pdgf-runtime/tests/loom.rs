//! Loom models of the runtime's concurrency.
//!
//! The top-level models cover the `handoff` primitives the benchmark
//! replay and the A/B throughput bench drive: ticket queue → format into
//! pooled buffer → bounded channel → reorder → "sink" → recycle. They
//! check the three properties such a pipeline's correctness rests on: no
//! lost package, no double-write, and in-order output — plus clean
//! shutdown when the output stage dies early. `serve_models` runs the
//! real worker pool that `run_project` and the row service share. Build
//! with `RUSTFLAGS="--cfg loom" cargo test -p pdgf-runtime --test loom`
//! (see `scripts/concurrency.sh`).
#![cfg(loom)]

use loom::sync::Arc;
use pdgf_output::{BufferPool, ReorderBuffer};
use pdgf_runtime::handoff::{channel, TicketCounter};

/// The handoff dataflow in miniature: workers claim tickets,
/// stamp the ticket into a pooled buffer, and send it; the output stage
/// reorders, verifies, and recycles. Every ticket must come out exactly
/// once, in order, with intact payload bytes.
#[test]
fn handoff_delivers_every_package_once_in_order() {
    const WORKERS: u64 = 3;
    const PACKAGES: u64 = 9;
    loom::model(|| {
        let tickets = Arc::new(TicketCounter::new(PACKAGES));
        let pool = Arc::new(BufferPool::new(4));
        let (tx, rx) = channel::<(u64, Vec<u8>)>(4);

        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let tickets = tickets.clone();
                let pool = pool.clone();
                let tx = tx.clone();
                loom::thread::spawn(move || {
                    while let Some(seq) = tickets.claim() {
                        let mut buf = pool.take();
                        assert!(buf.is_empty(), "recycled buffer was not cleared");
                        buf.extend_from_slice(&seq.to_le_bytes());
                        if tx.send((seq, buf)).is_err() {
                            return; // output stage hung up
                        }
                    }
                })
            })
            .collect();
        drop(tx);

        // Output stage on this thread, exactly like the scheduler's.
        let mut reorder = ReorderBuffer::<(u64, Vec<u8>)>::new();
        let mut written = Vec::new();
        for (seq, buf) in rx {
            let mut ready = reorder.push(seq, (seq, buf));
            while let Some((ready_seq, ready_buf)) = ready {
                assert_eq!(
                    ready_buf,
                    ready_seq.to_le_bytes().to_vec(),
                    "payload corrupted in flight"
                );
                written.push(ready_seq);
                pool.put(ready_buf);
                ready = reorder.pop_ready();
            }
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(
            written,
            (0..PACKAGES).collect::<Vec<_>>(),
            "packages lost, duplicated, or reordered"
        );
        assert!(reorder.is_drained());
        assert!(pool.idle() <= 4, "double-put grew the pool past its bound");
    });
}

/// When the output stage drops the receiver mid-run (sink error), every
/// worker must observe the hang-up and stop — no deadlock, no panic.
#[test]
fn receiver_drop_stops_all_workers() {
    loom::model(|| {
        let tickets = Arc::new(TicketCounter::new(6));
        let (tx, rx) = channel::<u64>(1);
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let tickets = tickets.clone();
                let tx = tx.clone();
                loom::thread::spawn(move || {
                    let mut sent = 0u64;
                    while let Some(seq) = tickets.claim() {
                        if tx.send(seq).is_err() {
                            return sent;
                        }
                        sent += 1;
                    }
                    sent
                })
            })
            .collect();
        drop(tx);

        // Accept one value, then fail like a full sink.
        let first = rx.recv();
        assert!(first.is_some());
        drop(rx);

        let delivered: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert!(
            delivered >= 1,
            "the received package was counted by its sender"
        );
    });
}

mod serve_models {
    //! Models of the worker pool that `run_project` and the row service
    //! share: the ticket-queue/`Condvar` delivery path under a batch run
    //! and under concurrent [`RowService`] clients, and the
    //! `submit_clamped` cursor admission path. The pool uses std
    //! primitives internally, which the loom facade delegates to, so the
    //! real pool runs under the model harness unmodified.
    use std::sync::Arc;

    use pdgf_gen::{MapResolver, SchemaRuntime};
    use pdgf_output::{CsvFormatter, Formatter, MemorySink, Sink};
    use pdgf_runtime::serve::{RowRequest, RowService, ServeConfig};
    use pdgf_runtime::{run_project, RunConfig, TableJob};
    use pdgf_schema::{Expr, Field, GeneratorSpec, Schema, SqlType, Table};

    fn runtime(rows: u64) -> Arc<SchemaRuntime> {
        runtime_of(&[rows])
    }

    /// One `id, v` table per entry of `sizes`.
    fn runtime_of(sizes: &[u64]) -> Arc<SchemaRuntime> {
        let mut schema = Schema::new("serve-loom", 77);
        for (i, rows) in sizes.iter().enumerate() {
            let name = if i == 0 {
                "t".to_string()
            } else {
                format!("t{i}")
            };
            schema = schema.table(
                Table::new(&name, &format!("{rows}"))
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
        Arc::new(SchemaRuntime::build(&schema, &MapResolver::new()).unwrap())
    }

    /// Both jobs' bytes from one `run_project` call.
    fn project_bytes(rt: &SchemaRuntime, workers: usize) -> Vec<Vec<u8>> {
        let jobs: Vec<TableJob> = rt
            .tables()
            .iter()
            .enumerate()
            .map(|(t, table)| TableJob::full_table(t as u32, table.size))
            .collect();
        let mut sinks: Vec<MemorySink> = jobs.iter().map(|_| MemorySink::new()).collect();
        let mut refs: Vec<&mut dyn Sink> = sinks.iter_mut().map(|s| s as &mut dyn Sink).collect();
        run_project(
            rt,
            &jobs,
            &CsvFormatter::new().with_header(),
            &mut refs,
            &RunConfig::new().workers(workers).package_rows(8),
            None,
        )
        .unwrap();
        sinks
            .iter()
            .map(|s| s.as_str().as_bytes().to_vec())
            .collect()
    }

    /// The production batch path: a two-job project on two pool workers.
    /// Packages of both tables interleave across the workers and come
    /// back through one reorder stage, yet every iteration's sinks must
    /// equal the inline run's bytes.
    #[test]
    fn run_project_sinks_are_byte_identical_on_the_pool() {
        let rt = runtime_of(&[40, 28]);
        let expected = Arc::new(project_bytes(&rt, 0));
        loom::model(move || {
            assert_eq!(
                project_bytes(&rt, 2),
                *expected,
                "pooled project run diverged from the inline bytes"
            );
        });
    }

    fn formatter() -> Arc<dyn Formatter> {
        Arc::new(CsvFormatter::new())
    }

    /// Three clients race full-table requests through a two-worker
    /// service. The ticket queue hands packages to whichever worker is
    /// free, the reorder buffer re-sequences them, and the `ready`
    /// condvar hands them to the reader — every client must still see
    /// the identical in-order byte stream, every iteration.
    #[test]
    fn row_service_delivers_in_order_under_contention() {
        const ROWS: u64 = 96;
        let rt = runtime(ROWS);
        // Reference bytes from an uncontended single-client drain.
        let expected: Vec<u8> = {
            let service = RowService::new(
                Arc::clone(&rt),
                ServeConfig::new().workers(1).package_rows(8).window(2),
                None,
            );
            let mut stream = service
                .submit(RowRequest::range(0, 0, 0..ROWS), formatter())
                .unwrap();
            let mut out = Vec::new();
            while let Some(pkg) = stream.next_package() {
                out.extend_from_slice(&pkg);
            }
            out
        };
        let expected = Arc::new(expected);
        let rt2 = Arc::clone(&rt);
        loom::model(move || {
            let service = Arc::new(RowService::new(
                Arc::clone(&rt2),
                ServeConfig::new().workers(2).package_rows(8).window(3),
                None,
            ));
            let clients: Vec<_> = (0..3)
                .map(|_| {
                    let service = Arc::clone(&service);
                    let expected = Arc::clone(&expected);
                    loom::thread::spawn(move || {
                        let mut stream = service
                            .submit(RowRequest::range(0, 0, 0..ROWS), formatter())
                            .unwrap();
                        let mut out = Vec::new();
                        while let Some(pkg) = stream.next_package() {
                            out.extend_from_slice(&pkg);
                        }
                        assert_eq!(
                            out, *expected,
                            "contended stream diverged from the uncontended bytes"
                        );
                    })
                })
                .collect();
            for c in clients {
                c.join().unwrap();
            }
            let stats = service.stats();
            assert_eq!(stats.completed, 3, "every request must complete");
            assert_eq!(stats.aborted, 0);
        });
    }

    /// Two cursors tile the same table concurrently via
    /// `submit_clamped`: each admission serves exactly
    /// `max_request_rows` rows (except the final tile) and reports the
    /// resume row; the concatenated tiles must equal one unclamped
    /// response even while another cursor races the admission path.
    #[test]
    fn submit_clamped_cursors_tile_byte_identically() {
        const ROWS: u64 = 60;
        const CAP: u64 = 16;
        let rt = runtime(ROWS);
        let expected: Vec<u8> = {
            let service = RowService::new(
                Arc::clone(&rt),
                ServeConfig::new().workers(1).package_rows(8).window(2),
                None,
            );
            let mut stream = service
                .submit(RowRequest::range(0, 0, 0..ROWS), formatter())
                .unwrap();
            let mut out = Vec::new();
            while let Some(pkg) = stream.next_package() {
                out.extend_from_slice(&pkg);
            }
            out
        };
        let expected = Arc::new(expected);
        let rt2 = Arc::clone(&rt);
        loom::model(move || {
            let service = Arc::new(RowService::new(
                Arc::clone(&rt2),
                ServeConfig::new()
                    .workers(2)
                    .package_rows(8)
                    .window(2)
                    .max_request_rows(CAP),
                None,
            ));
            let cursors: Vec<_> = (0..2)
                .map(|_| {
                    let service = Arc::clone(&service);
                    let expected = Arc::clone(&expected);
                    loom::thread::spawn(move || {
                        let mut out = Vec::new();
                        let mut cursor = 0u64;
                        loop {
                            let admitted = service
                                .submit_clamped(RowRequest::range(0, 0, cursor..ROWS), formatter())
                                .unwrap();
                            let served_to = admitted.resume_at.unwrap_or(ROWS);
                            assert!(
                                served_to - cursor <= CAP,
                                "tile wider than the admission cap"
                            );
                            if served_to < ROWS {
                                assert_eq!(
                                    served_to - cursor,
                                    CAP,
                                    "non-final tile must serve exactly the cap"
                                );
                            }
                            let mut stream = admitted.stream;
                            while let Some(pkg) = stream.next_package() {
                                out.extend_from_slice(&pkg);
                            }
                            match admitted.resume_at {
                                Some(next) => cursor = next,
                                None => break,
                            }
                        }
                        assert_eq!(
                            out, *expected,
                            "clamped tiles did not concatenate to the unclamped bytes"
                        );
                    })
                })
                .collect();
            for c in cursors {
                c.join().unwrap();
            }
            assert_eq!(service.stats().aborted, 0);
        });
    }
}
