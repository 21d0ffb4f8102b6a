//! Figure 6 — DBGen vs PDGF performance.
//!
//! "A comparison of the data generator DBGen and PDGF … both tools
//! achieve a similar performance. … We also show PDGF's CPU-bound
//! performance, which is 33% higher than its disk-bound performance. …
//! When comparing the single process performance … DBGen achieves
//! 48 MB/s and PDGF 30 MB/s. Thus, PDGF has the same order of
//! performance as DBGen, although being completely generic and
//! adaptable."
//!
//! Series: duration (s) vs scale factor for (a) DBGen to files,
//! (b) PDGF to files, (c) PDGF to null sinks — plus the single-stream
//! MB/s comparison.
//!
//! Knobs: `FIG6_SFS` (default "0.001,0.003,0.01,0.03"), `FIG6_WORKERS`.

use std::path::{Path, PathBuf};

use bench::{banner, check, env_usize, timed};
use pdgf::{OutputFormat, Pdgf};
use pdgf_output::{FileSink, NullSink, Sink};
use workloads::dbgen::{DbGen, TpchTable};
use workloads::tpch;

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fig6-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn dbgen_run(sf: f64, dir: &Path) -> (f64, u64) {
    let g = DbGen::new(sf, 7);
    let t = timed(|| {
        let mut bytes = 0;
        for table in TpchTable::ALL {
            let mut sink = FileSink::create(dir.join(format!("{}.tbl", table.file_stem())))
                .expect("create .tbl file");
            g.generate_table(table, &mut sink)
                .expect("dbgen generation");
            bytes += sink.finish().expect("flush");
        }
        bytes
    });
    (t.seconds, t.value)
}

fn pdgf_run(sf: f64, workers: usize, to_null: bool, dir: &Path) -> (f64, u64) {
    let project = Pdgf::from_schema(tpch::schema(12_456_789))
        .resolver(tpch::resolver())
        .set_property("SF", &format!("{sf}"))
        .workers(workers)
        .package_rows(5_000)
        .build()
        .expect("tpch model builds");
    let t = timed(|| {
        if to_null {
            project
                .generate_to_null(None)
                .expect("generation")
                .total_bytes()
        } else {
            project
                .generate_to_dir(dir.join(format!("pdgf-{sf}")), OutputFormat::Csv, None)
                .expect("generation")
                .total_bytes()
        }
    });
    (t.seconds, t.value)
}

/// Single-stream throughput: one dbgen instance vs one PDGF worker,
/// both CPU-bound (memory/null sinks).
fn single_stream(sf: f64) -> (f64, f64) {
    let g = DbGen::new(sf, 7);
    let t_dbgen = timed(|| {
        let mut sink = NullSink::new();
        for table in TpchTable::ALL {
            g.generate_table(table, &mut sink)
                .expect("dbgen generation");
        }
        sink.bytes_written()
    });
    let dbgen_mbs = t_dbgen.value as f64 / 1e6 / t_dbgen.seconds;

    let project = Pdgf::from_schema(tpch::schema(12_456_789))
        .resolver(tpch::resolver())
        .set_property("SF", &format!("{sf}"))
        .workers(0)
        .build()
        .expect("tpch model builds");
    let t_pdgf = timed(|| {
        project
            .generate_to_null(None)
            .expect("generation")
            .total_bytes()
    });
    let pdgf_mbs = t_pdgf.value as f64 / 1e6 / t_pdgf.seconds;
    (dbgen_mbs, pdgf_mbs)
}

fn main() {
    banner(
        "Figure 6: DBGen vs PDGF (duration s vs scale factor; single-stream MB/s)",
        "similar order of performance; PDGF /dev/null ≈ 33% above disk-bound; \
         single-stream DBGen 48 MB/s vs PDGF 30 MB/s (DBGen somewhat faster)",
    );
    let workers = env_usize("FIG6_WORKERS", pdgf_runtime::available_workers());
    let sfs: Vec<f64> = std::env::var("FIG6_SFS")
        .unwrap_or_else(|_| "0.001,0.003,0.01,0.03".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let dir = tmpdir();

    println!(
        "\n{:>8} {:>14} {:>14} {:>18}",
        "SF", "DBGen s", "PDGF s", "PDGF /dev/null s"
    );
    let mut last = (1.0, 1.0, 1.0);
    for &sf in &sfs {
        let (dbgen_s, _) = dbgen_run(sf, &dir);
        let (pdgf_s, _) = pdgf_run(sf, workers, false, &dir);
        let (pdgf_null_s, _) = pdgf_run(sf, workers, true, &dir);
        println!("{sf:>8} {dbgen_s:>14.3} {pdgf_s:>14.3} {pdgf_null_s:>18.3}");
        last = (dbgen_s, pdgf_s, pdgf_null_s);
    }
    std::fs::remove_dir_all(&dir).ok();

    let (dbgen_s, pdgf_s, pdgf_null_s) = last;
    check(
        "same-order-of-performance",
        pdgf_s < dbgen_s * 10.0 && dbgen_s < pdgf_s * 10.0,
        &format!("largest SF: DBGen {dbgen_s:.2}s vs PDGF {pdgf_s:.2}s"),
    );
    check(
        "null-sink-not-slower",
        pdgf_null_s <= pdgf_s * 1.10,
        &format!("PDGF file {pdgf_s:.2}s vs null {pdgf_null_s:.2}s"),
    );

    let (dbgen_mbs, pdgf_mbs) = single_stream(*sfs.last().expect("non-empty sweep"));
    println!(
        "\nsingle-stream: DBGen {dbgen_mbs:.1} MB/s vs PDGF (1 worker) {pdgf_mbs:.1} MB/s \
         (paper: 48 vs 30)"
    );
    check(
        "single-stream-same-order",
        pdgf_mbs > dbgen_mbs / 10.0,
        &format!(
            "ratio {:.2} (paper ratio 30/48 = 0.63)",
            pdgf_mbs / dbgen_mbs
        ),
    );
}
