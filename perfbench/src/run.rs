//! One benchmark run: the end-to-end run (`--trace 0`) or the traced
//! per-layer run (`--trace 1`) of a workload.
//!
//! The end-to-end run spends its measured seconds in rounds of one batch
//! generation run, one TCP segment and one HTTP segment of the request
//! mix. The traced run spends
//! them on the untraced baseline, the traced replay, the kernel probe,
//! and the in-process, TCP and HTTP passes of the request mix.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdgf::ModelRegistry;
use pdgf_gen::SchemaRuntime;
use pdgf_prng::{mix64_pair, FieldCoord, SeedTree};
use pdgf_runtime::{RowService, ServeConfig};

use crate::gen::{self, Expected, GenPhase};
use crate::metrics::{Report, END_TO_END, PER_LAYER};
use crate::replay::{kernel_probe, layer};
use crate::requests::Sequence;
use crate::serve::{self, Budget, LoadPhase, Path, References};
use crate::stats::{median, Series};
use crate::trace::{Recorder, Trace};
use crate::{Config, Workload};

/// Set-ups per traced run; each step's time is the median.
pub const SETUP_REPS: usize = 25;
/// Fewest timed generation runs in a phase, however short its budget.
pub const MIN_GEN_REPS: usize = 3;
/// Ranges a p99 pass must complete: p99 needs ten samples beyond it.
pub const MIN_RANGES: u64 = 1000;
/// Requests of the mix per TCP round (fresh connections each round).
pub const TCP_ROUND: u64 = 100;
/// Requests per HTTP round: HTTP answers the mix several times faster,
/// so it walks further along the same sequence.
pub const HTTP_ROUND: u64 = 400;
/// TCP responses at or above this latency sat on the delayed-ACK floor.
pub const DELAYED_ACK_MS: f64 = 40.0;

/// What a run measured and how its checks went.
#[derive(Debug)]
pub struct Outcome {
    /// The metrics.
    pub report: Report,
    /// Operations attempted: tables generated plus requests sent.
    pub attempted: u64,
    /// Operations that failed or whose output mismatched.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Informational lines (repeat counts, short-series flags, the trace).
    pub notes: Vec<String>,
}

impl Outcome {
    fn new(report: Report) -> Self {
        Self {
            report,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn absorb_gen(&mut self, phase: GenPhase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.problems.extend(phase.problems);
    }

    fn absorb_load(&mut self, phase: &mut LoadPhase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.problems.append(&mut phase.problems);
    }

    /// Set `name` to percentile `p` of `samples` (scaled by `scale`),
    /// noting a series too short for that percentile.
    fn set_percentile(&mut self, name: &str, samples: &[f64], p: f64, scale: f64) {
        let series = Series::new(samples.to_vec());
        match series.percentile(p) {
            Some(q) => {
                if q.too_short {
                    self.notes.push(format!(
                        "{name}: series too short ({} samples, {} beyond p{})",
                        series.len(),
                        q.beyond,
                        p * 100.0
                    ));
                }
                self.report.set(name, q.value * scale);
            }
            None => self.problems.push(format!("{name}: no samples")),
        }
    }
}

fn secs(total: f64, share: f64) -> Duration {
    Duration::from_secs_f64(total * share)
}

/// A pass that runs for `share` of the run and, when `min_ranges` is
/// set, until that many ranges completed (capped at 3× its share + 5 s).
fn budget(cfg: &Config, share: f64, min_ranges: u64) -> Budget {
    let budget = secs(cfg.seconds, share);
    Budget {
        indices: 0..u64::MAX,
        budget,
        min_ranges,
        hard_stop: budget * 3 + Duration::from_secs(5),
    }
}

/// Run workload `w`.
pub fn run(w: &Workload, cfg: &Config) -> Result<Outcome, String> {
    if cfg.trace {
        traced(w, cfg)
    } else {
        end_to_end(w, cfg)
    }
}

fn end_to_end(w: &Workload, cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::new(Report::new(END_TO_END));

    let (_, project) = gen::setup(w, cfg)?;
    let expected = Expected::compute(&project, w, cfg)?;
    let served = serve::reference_project(w)?;
    let rt = served.runtime();
    let seq = sequence(w, rt, cfg.seed);

    // Rounds of: both set-ups, one generation run, then one TCP and one
    // HTTP segment of the request mix against the server the round set
    // up (fresh server, pool and connections each round), until the
    // run's seconds are spent and TCP has enough ranges for its p99. Interleaving exposes every metric to the same stretch of
    // machine time; medians and pooled percentiles over rounds steady them.
    let (mut gen_setup, mut serve_setup, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut gen = GenPhase::default();
    let (mut tcp, mut http) = (LoadPhase::default(), LoadPhase::default());
    let started = Instant::now();
    let hard_stop = Duration::from_secs_f64(cfg.seconds * 1.5);
    for round in 0.. {
        let peak_reset = reset_peak_rss();
        gen_setup.push(gen::setup(w, cfg)?.0);
        let (seconds, server) = serve::setup(w)?;
        serve_setup.push(seconds);
        gen.rep(&project, w, cfg, &expected, round);
        let handle = server.spawn().map_err(|e| format!("spawn server: {e}"))?;
        let http_addr = handle.http_addr().ok_or("server has no HTTP listener")?;
        for (path, phase, len) in [
            (Path::Tcp(handle.addr()), &mut tcp, TCP_ROUND),
            (Path::Http(http_addr), &mut http, HTTP_ROUND),
        ] {
            let first = round as u64 * len;
            let left = hard_stop.saturating_sub(started.elapsed());
            let budget = Budget::segment(first..first + len, left);
            phase.merge(serve::load(
                path,
                w,
                rt,
                None,
                seq,
                cfg.workers,
                budget,
                None,
            ));
        }
        handle.stop();
        if peak_reset {
            peaks.push(peak_rss_mb());
        }
        // tcp_range_p99_ms needs its ranges; HTTP always has more.
        let enough = tcp.ranges.len() as u64 >= cfg.min_ranges;
        let elapsed = started.elapsed();
        if (elapsed.as_secs_f64() >= cfg.seconds && enough) || elapsed >= hard_stop {
            break;
        }
    }
    gen.check_bytes(&project, w, cfg, &expected);
    out.report.set("gen_mb_s", median(&gen.mb_s));
    out.notes
        .push(format!("generation runs: {}", gen.walls.len()));
    out.absorb_gen(gen);
    drop(project);

    let mut refs = References::default();
    refs.check(&mut tcp, w, rt, seq);
    refs.check(&mut http, w, rt, seq);
    out.notes.push(format!(
        "tcp: {} ranges, {} points in {:.2} s; http: {} ranges, {} points in {:.2} s",
        tcp.ranges.len(),
        tcp.points.len(),
        tcp.wall_s,
        http.ranges.len(),
        http.points.len(),
        http.wall_s
    ));
    out.set_percentile("tcp_range_p99_ms", &tcp.ranges, 0.99, 1.0);
    out.set_percentile("http_range_p50_ms", &http.ranges, 0.5, 1.0);
    out.set_percentile("http_point_p50_ms", &http.points, 0.5, 1.0);
    out.absorb_load(&mut tcp);
    out.absorb_load(&mut http);

    out.report
        .set("setup_s", median(&gen_setup) + median(&serve_setup));
    let process_peak = peak_rss_mb();
    out.notes.push(format!(
        "rounds: {}; process peak RSS {process_peak:.1} MB",
        gen_setup.len()
    ));
    // Without a resettable high-water mark, fall back to the process's.
    out.report.set(
        "peak_rss_mb",
        if peaks.is_empty() {
            process_peak
        } else {
            median(&peaks)
        },
    );
    Ok(out)
}

/// The request mix over the workload's fact table.
fn sequence(w: &Workload, rt: &SchemaRuntime, seed: u64) -> Sequence {
    let (_, fact) = rt
        .table_by_name(w.fact)
        .expect("workload fact table exists");
    Sequence::new(seed, fact.size)
}

/// Reset this process's resident-set high-water mark to its current
/// resident set (Linux `clear_refs` value 5); false where unsupported.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (VmHWM) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

fn traced(w: &Workload, cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::new(Report::new(PER_LAYER));
    setup_layers(w, &mut out)?;

    // Batch generation: untraced baseline, traced replays, kernel probe.
    let (_, project) = gen::setup(w, cfg)?;
    let rt = project.runtime();
    let expected = Expected::compute(&project, w, cfg)?;
    let base = gen::measure(
        &project,
        w,
        cfg,
        &expected,
        secs(cfg.seconds, 0.15),
        MIN_GEN_REPS,
    );
    let base_wall = median(&base.walls);
    out.absorb_gen(base);
    let mut trace = Trace::default();
    let (replays, outs) = gen::traced_replays(
        &project,
        w,
        cfg,
        &expected,
        secs(cfg.seconds, 0.15),
        MIN_GEN_REPS,
        &mut trace,
    );
    out.absorb_gen(replays);
    let reps = outs.len().max(1) as f64;
    let packages: u64 = outs.iter().map(|o| o.packages).sum();
    let traced_wall = median(&outs.iter().map(|o| o.wall_s).collect::<Vec<_>>());
    gen_layers(
        w,
        cfg,
        &trace,
        packages,
        reps,
        base_wall,
        traced_wall,
        &mut out,
    );
    out.notes.push(format!(
        "untraced generation wall {base_wall:.4} s, traced replay wall {traced_wall:.4} s over {reps} replays"
    ));

    let mut probe = Trace::default();
    let mut rec = Recorder::new(Instant::now());
    kernel_probe(rt, &mut rec);
    probe.absorb(&rec);
    for kind in crate::metrics::KINDS {
        let t = probe.get(layer::FILL_COLUMN, kind);
        out.report.set(
            &format!("pdgf-gen.kind_ns_per_cell.{kind}"),
            t.total_ns as f64 / t.work as f64,
        );
    }
    draw_layers(w, rt, &mut out);
    prng_layers(rt, &mut out);

    // Serving: in process, then over both protocols.
    let (_, server) = serve::setup(w)?;
    let handle = server.spawn().map_err(|e| format!("spawn server: {e}"))?;
    let served: Arc<SchemaRuntime> = Arc::new(serve::reference_project(w)?.into_runtime());
    let seq = sequence(w, &served, cfg.seed);
    let mut strace = Trace::default();
    let load = |path, service: Option<&RowService>, budget, trace: &mut Trace| {
        serve::load(
            path,
            w,
            &served,
            service,
            seq,
            cfg.workers,
            budget,
            Some(trace),
        )
    };
    let service = RowService::new(Arc::clone(&served), ServeConfig::new(), None);
    let in_process = budget(cfg, 0.2, cfg.min_ranges);
    let mut local = load(Path::InProcess, Some(&service), in_process, &mut strace);
    drop(service);
    let http_addr = handle.http_addr().ok_or("server has no HTTP listener")?;
    let mut tcp = load(
        Path::Tcp(handle.addr()),
        None,
        budget(cfg, 0.15, 0),
        &mut strace,
    );
    let mut http = load(
        Path::Http(http_addr),
        None,
        budget(cfg, 0.15, 0),
        &mut strace,
    );
    handle.stop();
    let mut refs = References::default();
    for phase in [&mut local, &mut tcp, &mut http] {
        refs.check(phase, w, &served, seq);
    }
    serve_layers(&local, &tcp, &http, &mut out);
    for phase in [&mut local, &mut tcp, &mut http] {
        out.absorb_load(phase);
    }

    for t in [&trace, &probe, &strace] {
        for (layer, key, totals) in t.rows() {
            out.notes.push(format!(
                "span {layer} {key}: calls {} total_ms {:.3} self_ms {:.3} work {}",
                totals.calls,
                totals.total_ns as f64 / 1e6,
                totals.self_ns as f64 / 1e6,
                totals.work
            ));
        }
    }
    Ok(out)
}

/// Parse, analyze, prove and build the served model (the steps of
/// `ModelRegistry::load_file`) and bind the listeners, each timed on its
/// own; medians of [`SETUP_REPS`].
fn setup_layers(w: &Workload, out: &mut Outcome) -> Result<(), String> {
    let mut steps = [(); 5].map(|_| Vec::new());
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let builder = pdgf::Pdgf::from_xml_file(w.path).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        builder.analyze().map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        builder.prove().map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        let project = builder.build().map_err(|e| e.to_string())?;
        let t4 = Instant::now();
        let registry = ModelRegistry::new()
            .register(w.model, project)
            .map_err(|e| e.to_string())?;
        let t5 = Instant::now();
        let server = serve::bind(registry)?;
        let t6 = Instant::now();
        drop(server);
        for (i, (a, b)) in [(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t5, t6)]
            .into_iter()
            .enumerate()
        {
            steps[i].push((b - a).as_secs_f64());
        }
    }
    let names = [
        "pdgf.setup.parse_s",
        "pdgf.setup.analyze_s",
        "pdgf.setup.prove_s",
        "pdgf.setup.build_s",
        "pdgf.serve.bind_s",
    ];
    for (name, samples) in names.iter().zip(&steps) {
        out.report.set(name, median(samples));
    }
    Ok(())
}

/// Per-layer generation metrics from the traced replays.
#[allow(clippy::too_many_arguments)]
fn gen_layers(
    w: &Workload,
    cfg: &Config,
    trace: &Trace,
    packages: u64,
    reps: f64,
    base_wall: f64,
    traced_wall: f64,
    out: &mut Outcome,
) {
    let fact = |k: &str| k == w.fact;
    let dims = |k: &str| k != w.fact;
    let per = |t: crate::trace::LayerTotals| t.total_ns as f64 / t.work as f64;
    let r = &mut out.report;
    r.set(
        "pdgf-gen.fill_batch_ns_per_row.fact",
        per(trace.sum(layer::FILL_BATCH, fact)),
    );
    r.set(
        "pdgf-gen.fill_batch_ns_per_row.dims",
        per(trace.sum(layer::FILL_BATCH, dims)),
    );
    r.set(
        "pdgf-output.format_ns_per_row.fact",
        per(trace.sum(layer::ROWS_COLUMNAR, fact)),
    );
    r.set(
        "pdgf-output.format_ns_per_row.dims",
        per(trace.sum(layer::ROWS_COLUMNAR, dims)),
    );
    let sink = trace.sum(layer::SINK, |_| true);
    r.set(
        "pdgf-output.sink_ns_per_mb",
        sink.total_ns as f64 / (sink.work as f64 / 1e6),
    );
    let per_package = |layer: &str| trace.sum(layer, |_| true).total_ns as f64 / packages as f64;
    r.set(
        "pdgf-output.reorder_ns_per_package",
        per_package(layer::REORDER),
    );
    r.set("pdgf-output.pool_ns_per_package", per_package(layer::POOL));
    r.set(
        "pdgf-runtime.handoff.send_wait_ns_per_package",
        per_package(layer::SEND),
    );
    r.set(
        "pdgf-runtime.handoff.recv_wait_ns_per_package",
        per_package(layer::RECV),
    );
    let work_ns: u64 = [
        layer::FILL_BATCH,
        layer::ROWS_COLUMNAR,
        layer::FRAMING,
        layer::SINK,
        layer::REORDER,
        layer::POOL,
    ]
    .iter()
    .map(|l| trace.sum(l, |_| true).self_ns)
    .sum();
    let layer_s_per_worker = work_ns as f64 / 1e9 / reps / cfg.workers as f64;
    r.set(
        "pdgf-runtime.scheduler.residual_share",
        1.0 - layer_s_per_worker / traced_wall,
    );
    r.set("trace.overhead_share", traced_wall / base_wall - 1.0);
}

/// Exact PRNG draws per row from `SchemaRuntime::value_counting`, over
/// up to 500 evenly spaced rows per table; `dims` is row-weighted.
fn draw_layers(w: &Workload, rt: &SchemaRuntime, out: &mut Outcome) {
    let (mut dim_draws, mut dim_rows) = (0.0, 0.0);
    for (t, table) in rt.tables().iter().enumerate() {
        let samples = table.size.min(500);
        if samples == 0 {
            continue;
        }
        let mut draws = 0u64;
        for j in 0..samples {
            let row = j * table.size / samples;
            for c in 0..table.columns.len() {
                draws += rt.value_counting(t as u32, c as u32, 0, row).1;
            }
        }
        let per_row = draws as f64 / samples as f64;
        if table.name == w.fact {
            out.report.set("pdgf-prng.draws_per_row.fact", per_row);
        } else {
            dim_draws += per_row * table.size as f64;
            dim_rows += table.size as f64;
        }
    }
    out.report
        .set("pdgf-prng.draws_per_row.dims", dim_draws / dim_rows);
}

/// Seed-derivation microbenchmarks over the model's own coordinates:
/// medians of five timed loops each.
fn prng_layers(rt: &SchemaRuntime, out: &mut Outcome) {
    let coords: Vec<(u32, u32)> = rt
        .tables()
        .iter()
        .enumerate()
        .flat_map(|(t, table)| (0..table.columns.len() as u32).map(move |c| (t as u32, c)))
        .collect();
    let coord = |i: u64| {
        let (table, column) = coords[(i % coords.len() as u64) as usize];
        FieldCoord {
            table,
            column,
            update: 0,
            row: i,
        }
    };
    let time = |n: u64, f: &dyn Fn(u64) -> u64| {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let started = Instant::now();
                let mut acc = 0u64;
                for i in 0..n {
                    acc ^= f(black_box(i));
                }
                black_box(acc);
                started.elapsed().as_nanos() as f64 / n as f64
            })
            .collect();
        median(&samples)
    };
    let tree = rt.seed_tree();
    let project_seed = rt.seed();
    out.report.set(
        "pdgf-prng.mix64_pair_ns",
        time(4_000_000, &|i| mix64_pair(project_seed, i)),
    );
    out.report.set(
        "pdgf-prng.field_seed_ns",
        time(2_000_000, &|i| tree.field_seed(coord(i))),
    );
    out.report.set(
        "pdgf-prng.field_seed_uncached_ns",
        time(1_000_000, &|i| {
            SeedTree::field_seed_uncached(project_seed, coord(i))
        }),
    );
}

/// Per-layer serving metrics: the in-process pass alone, each protocol's
/// median latency over it, and the protocols' own tails.
fn serve_layers(local: &LoadPhase, tcp: &LoadPhase, http: &LoadPhase, out: &mut Outcome) {
    for (name, samples, p, scale) in [
        ("pdgf-runtime.serve.range_p50_ms", &local.ranges, 0.5, 1.0),
        ("pdgf-runtime.serve.range_p99_ms", &local.ranges, 0.99, 1.0),
        ("pdgf-runtime.serve.point_p50_us", &local.points, 0.5, 1e3),
        ("pdgf-runtime.serve.point_p99_us", &local.points, 0.99, 1e3),
        (
            "pdgf-runtime.serve.first_package_p50_ms",
            &local.first_package,
            0.5,
            1.0,
        ),
        ("pdgf.serve.tcp.range_p50_ms", &tcp.ranges, 0.5, 1.0),
        ("pdgf.serve.tcp.point_p50_ms", &tcp.points, 0.5, 1.0),
        ("pdgf.serve.tcp.point_p99_ms", &tcp.points, 0.99, 1.0),
        ("pdgf.serve.http.range_p99_ms", &http.ranges, 0.99, 1.0),
        ("pdgf.serve.http.point_p99_ms", &http.points, 0.99, 1.0),
    ] {
        out.set_percentile(name, samples, p, scale);
    }
    let med = |s: &[f64]| Series::new(s.to_vec()).median().unwrap_or(f64::NAN);
    let r = &mut out.report;
    for (proto, phase) in [("tcp", tcp), ("http", http)] {
        r.set(
            &format!("pdgf.serve.{proto}.range_overhead_ms"),
            med(&phase.ranges) - med(&local.ranges),
        );
        r.set(
            &format!("pdgf.serve.{proto}.point_overhead_us"),
            (med(&phase.points) - med(&local.points)) * 1e3,
        );
    }
    let slow = tcp
        .ranges
        .iter()
        .filter(|&&ms| ms >= DELAYED_ACK_MS)
        .count();
    r.set(
        "pdgf.serve.tcp.delayed_ack_share",
        slow as f64 / tcp.ranges.len() as f64,
    );
}
