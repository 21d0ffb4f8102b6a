//! `pdgf serve` load benchmark: QPS and request-latency percentiles at N
//! concurrent clients against an in-process server, written to
//! `BENCH_serve.json` so the serving path's performance is tracked
//! across PRs.
//!
//! Three phases:
//!
//! 1. **Load** — `REPEATS` (5) rounds, each running the TCP and the
//!    HTTP load back to back (alternating which goes first). In each
//!    load `SERVE_CLIENTS` concurrent clients issue `SERVE_REQUESTS`
//!    range requests of `SERVE_RANGE_ROWS` rows at striding offsets
//!    over TPC-H lineitem; client-observed latencies give p50/p99 and
//!    aggregate QPS. The parity gate compares the two protocols'
//!    median-of-rounds p50: the length-prefixed TCP protocol is the
//!    minimum-overhead one, so it may not run more than 2x slower than
//!    HTTP over the same pool.
//! 2. **Slow reader** — the TCP load again while one extra connection
//!    requests a large range and drains it one byte at a time. The
//!    backpressure contract says a stalled reader starves only itself
//!    (its request window), so the well-behaved clients' p99 must stay
//!    within 2x of an uncontended TCP round's (the median of the
//!    phase-1 rounds' p99s).
//! 3. **Point lookups** — one client, `SERVE_REQUESTS` single-row
//!    fetches, for the O(1)-cell-access latency the paper's design
//!    promises.
//!
//! Knobs: `SERVE_SF` (default 0.02), `SERVE_CLIENTS` (default 4),
//! `SERVE_REQUESTS` (default 50), `SERVE_RANGE_ROWS` (default 2000),
//! `SERVE_OUT` (default `BENCH_serve.json`). The round count is fixed:
//! a single round's TCP/HTTP ratio moves inside run-to-run noise.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{banner, check, env_f64, env_usize, git_rev, host_cores};
use pdgf::runtime::ServeConfig;
use pdgf::serve::TAG_QUERY;
use pdgf::{FetchRequest, OutputFormat, Pdgf, ServeClient, ServerOptions};
use workloads::tpch;

/// Interleaved TCP/HTTP load rounds behind the parity gate.
const REPEATS: usize = 5;

/// One measured phase: its request count, wall time, and sorted
/// client-observed latencies (seconds).
struct Phase {
    requests: u64,
    seconds: f64,
    lat: Vec<f64>,
}

impl Phase {
    fn new(mut lat: Vec<f64>, seconds: f64) -> Self {
        assert!(!lat.is_empty(), "no latencies recorded");
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        Phase {
            requests: lat.len() as u64,
            seconds,
            lat,
        }
    }

    /// Several rounds of the same load as one distribution.
    fn merge(rounds: &[Phase]) -> Self {
        Phase::new(
            rounds.iter().flat_map(|r| r.lat.iter().copied()).collect(),
            rounds.iter().map(|r| r.seconds).sum(),
        )
    }

    /// Nearest-rank percentile, in milliseconds.
    fn percentile_ms(&self, p: f64) -> f64 {
        let n = self.lat.len();
        self.lat[((n as f64 * p).ceil() as usize).clamp(1, n) - 1] * 1e3
    }
    fn p50_ms(&self) -> f64 {
        self.percentile_ms(0.50)
    }
    fn p99_ms(&self) -> f64 {
        self.percentile_ms(0.99)
    }
    fn qps(&self) -> f64 {
        self.requests as f64 / self.seconds
    }
    fn to_json(&self) -> String {
        format!(
            "{{\"requests\": {}, \"seconds\": {:.4}, \"qps\": {:.1}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}",
            self.requests,
            self.seconds,
            self.qps(),
            self.p50_ms(),
            self.p99_ms()
        )
    }
    fn print(&self, label: &str) {
        println!(
            "{label:<13}{:>8.1} qps  p50 {:>8.3} ms  p99 {:>8.3} ms",
            self.qps(),
            self.p50_ms(),
            self.p99_ms()
        );
    }
}

/// Median of a non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// N concurrent clients, `requests` range fetches each, over the TCP or
/// HTTP transport; returns the merged client-observed latency
/// distribution as a [`Phase`].
fn run_load(
    addr: SocketAddr,
    clients: usize,
    requests: usize,
    rows: u64,
    size: u64,
    http: bool,
) -> Phase {
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = if http {
                    ServeClient::connect_http(addr).expect("connect http")
                } else {
                    ServeClient::connect(addr).expect("connect")
                };
                let mut lat = Vec::with_capacity(requests);
                for r in 0..requests {
                    // Deterministic striding offsets, distinct per client.
                    let start = ((c * 7919 + r * 104_729) as u64 * rows) % size.max(1);
                    let end = (start + rows).min(size);
                    let t = Instant::now();
                    let bytes = client
                        .fetch(
                            FetchRequest::range("lineitem", start, end - start)
                                .format(OutputFormat::Csv),
                        )
                        .expect("range request");
                    lat.push(t.elapsed().as_secs_f64());
                    assert!(end == start || !bytes.is_empty(), "empty response");
                }
                lat
            })
        })
        .collect();
    let mut all = Vec::new();
    for h in handles {
        all.extend(h.join().expect("client thread"));
    }
    Phase::new(all, started.elapsed().as_secs_f64())
}

/// The slow reader: request a large range on a raw socket, then drain
/// the response one byte at a time until told to stop. Never a protocol
/// client — the point is a reader that sits on unconsumed bytes.
fn slow_reader(addr: SocketAddr, size: u64, stop: Arc<AtomicBool>) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    let command = format!("RANGE lineitem 0 0 {size} csv");
    let mut frame = (command.len() as u32).to_be_bytes().to_vec();
    frame.push(TAG_QUERY);
    frame.extend_from_slice(command.as_bytes());
    if stream.write_all(&frame).is_err() {
        return;
    }
    let mut byte = [0u8; 1];
    while !stop.load(Ordering::Relaxed) {
        if stream.read(&mut byte).map(|n| n == 0).unwrap_or(true) {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // Dropping the socket mid-response cancels the request server-side.
}

fn main() {
    banner(
        "Serve load: QPS and latency percentiles over the on-the-fly row service",
        "rows are recomputed on demand from the seeding hierarchy (O(1) cell \
         access), so serving needs no files and slow readers starve only themselves",
    );
    let sf = env_f64("SERVE_SF", 0.02);
    let clients = env_usize("SERVE_CLIENTS", 4);
    let requests = env_usize("SERVE_REQUESTS", 50);
    let range_rows = env_usize("SERVE_RANGE_ROWS", 2_000) as u64;
    let out_path = std::env::var("SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_string());
    let cores = host_cores();

    let project = Pdgf::from_schema(tpch::schema(12_456_789))
        .resolver(tpch::resolver())
        .set_property("SF", &format!("{sf}"))
        .build()
        .expect("tpch model builds");
    let (_, t) = project
        .runtime()
        .table_by_name("lineitem")
        .expect("lineitem exists");
    let size = t.size;
    let runtime = Arc::new(project.into_runtime());
    let options = ServerOptions::builder()
        .config(ServeConfig::new().package_rows(1_000).window(4))
        .build()
        .expect("valid server options");
    let server = pdgf::Server::bind(runtime, "127.0.0.1:0", options, None)
        .expect("bind server")
        .with_http("127.0.0.1:0")
        .expect("bind http listener");
    let handle = server.spawn().expect("spawn accept loop");
    let addr = handle.addr();
    let http_addr = handle.http_addr().expect("http listener attached");
    println!(
        "lineitem rows: {size} (SF {sf}), {clients} clients x {requests} requests \
         of {range_rows} rows, {REPEATS} rounds, host cores {cores}\n"
    );

    // Warm-up (dictionaries, markov models, seed caches), both protocols.
    run_load(addr, 1, 3, range_rows, size, false);
    run_load(http_addr, 1, 3, range_rows, size, true);

    // TCP and HTTP (keep-alive, chunked transfer) over the same pool,
    // interleaved per round so drift in host load hits both protocols.
    let load_over = |http: bool| {
        let target = if http { http_addr } else { addr };
        run_load(target, clients, requests, range_rows, size, http)
    };
    let mut tcp_rounds = Vec::with_capacity(REPEATS);
    let mut http_rounds = Vec::with_capacity(REPEATS);
    for round in 0..REPEATS {
        let (tcp, http) = if round % 2 == 0 {
            let tcp = load_over(false);
            (tcp, load_over(true))
        } else {
            let http = load_over(true);
            (load_over(false), http)
        };
        println!(
            "round {round}:     tcp p50 {:>8.3} ms  p99 {:>8.3} ms | http p50 {:>8.3} ms  p99 {:>8.3} ms",
            tcp.p50_ms(),
            tcp.p99_ms(),
            http.p50_ms(),
            http.p99_ms()
        );
        tcp_rounds.push(tcp);
        http_rounds.push(http);
    }
    let load = Phase::merge(&tcp_rounds);
    let http_load = Phase::merge(&http_rounds);
    load.print("load:");
    http_load.print("http load:");
    let tcp_p50_median = median(tcp_rounds.iter().map(Phase::p50_ms).collect());
    let http_p50_median = median(http_rounds.iter().map(Phase::p50_ms).collect());
    // One TCP round's figures for the single-run checks below: the
    // slow-reader and point-lookup runs are one load each, so they are
    // held against one round (the median one), not the pooled rounds.
    let tcp_p99_median = median(tcp_rounds.iter().map(Phase::p99_ms).collect());

    let stop = Arc::new(AtomicBool::new(false));
    let slow = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || slow_reader(addr, size, stop))
    };
    let contended = run_load(addr, clients, requests, range_rows, size, false);
    stop.store(true, Ordering::Relaxed);
    let _ = slow.join();
    contended.print("slow reader:");

    let points = {
        let started = Instant::now();
        let mut client = ServeClient::connect(addr).expect("connect");
        let mut lat = Vec::with_capacity(requests);
        for r in 0..requests {
            let row = (r as u64 * 104_729) % size.max(1);
            let t = Instant::now();
            client
                .fetch(FetchRequest::row("lineitem", row).format(OutputFormat::Csv))
                .expect("point lookup");
            lat.push(t.elapsed().as_secs_f64());
        }
        Phase::new(lat, started.elapsed().as_secs_f64())
    };
    points.print("point:");

    let stats = handle.stats();
    println!(
        "\nserver: {} requests, {} completed, {} aborted, {:.1} qps lifetime",
        stats.requests, stats.completed, stats.aborted, stats.qps
    );

    let rounds_json: Vec<String> = tcp_rounds
        .iter()
        .zip(&http_rounds)
        .map(|(tcp, http)| {
            format!(
                "{{\"tcp_p50_ms\": {:.3}, \"http_p50_ms\": {:.3}}}",
                tcp.p50_ms(),
                http.p50_ms()
            )
        })
        .collect();
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"serve_load\",\n");
    json.push_str("  \"table\": \"lineitem\",\n");
    json.push_str(&format!("  \"sf\": {sf},\n"));
    json.push_str(&format!("  \"clients\": {clients},\n"));
    json.push_str(&format!("  \"requests_per_client\": {requests},\n"));
    json.push_str(&format!("  \"range_rows\": {range_rows},\n"));
    json.push_str(&format!("  \"host_cores\": {cores},\n"));
    json.push_str(&format!("  \"git_rev\": \"{}\",\n", git_rev()));
    json.push_str(&format!("  \"repeats\": {REPEATS},\n"));
    json.push_str(&format!("  \"rounds\": [{}],\n", rounds_json.join(", ")));
    json.push_str(&format!(
        "  \"parity\": {{\"tcp_p50_median_ms\": {tcp_p50_median:.3}, \
         \"http_p50_median_ms\": {http_p50_median:.3}}},\n"
    ));
    json.push_str(&format!("  \"load\": {},\n", load.to_json()));
    json.push_str(&format!("  \"slow_reader\": {},\n", contended.to_json()));
    json.push_str(&format!("  \"http_load\": {},\n", http_load.to_json()));
    json.push_str(&format!("  \"point_lookup\": {},\n", points.to_json()));
    json.push_str("  \"server\": {\n");
    json.push_str(&format!("    \"requests\": {},\n", stats.requests));
    json.push_str(&format!("    \"completed\": {},\n", stats.completed));
    json.push_str(&format!("    \"aborted\": {},\n", stats.aborted));
    json.push_str(&format!(
        "    \"latency_p50_ns\": {},\n",
        stats.latency.p50_ns
    ));
    json.push_str(&format!(
        "    \"latency_p99_ns\": {}\n",
        stats.latency.p99_ns
    ));
    json.push_str("  }\n");
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write serve json");
    println!("wrote {out_path}");

    let per_load = (clients * requests) as u64;
    check(
        "all-requests-served",
        load.requests == per_load * REPEATS as u64
            && http_load.requests == load.requests
            && contended.requests == per_load,
        &format!(
            "{} (tcp) + {} (http) + {} (slow reader) requests completed",
            load.requests, http_load.requests, contended.requests
        ),
    );
    // The protocol parity gate: both front ends stream the same packages
    // from the same pool, so the compact TCP protocol must not lose to
    // HTTP by more than 2x (a per-response Nagle/delayed-ACK stall costs
    // ~40 ms and shows up as a 5x+ gap). Medians over interleaved rounds,
    // because a single round's ratio moves inside run-to-run noise.
    check(
        "tcp-http-parity",
        tcp_p50_median <= 2.0 * http_p50_median,
        &format!(
            "median range p50 over {REPEATS} rounds: tcp {tcp_p50_median:.3} ms vs \
             http {http_p50_median:.3} ms ({:.2}x, need <= 2x)",
            tcp_p50_median / http_p50_median.max(1e-9)
        ),
    );
    // The backpressure gate: a reader draining one byte at a time may
    // only stall its own request window, so well-behaved clients' p99
    // must stay within 2x of an uncontended run.
    check(
        "slow-reader-isolation",
        contended.p99_ms() <= tcp_p99_median * 2.0,
        &format!(
            "p99 {:.3} ms with slow reader vs {tcp_p99_median:.3} ms without \
             ({:.2}x, need <= 2x)",
            contended.p99_ms(),
            contended.p99_ms() / tcp_p99_median.max(1e-9)
        ),
    );
    check(
        "point-lookup-fast",
        points.p50_ms() < tcp_p50_median.max(1.0) * 10.0,
        &format!(
            "single-row p50 {:.3} ms vs {range_rows}-row range p50 {tcp_p50_median:.3} ms",
            points.p50_ms()
        ),
    );
}
