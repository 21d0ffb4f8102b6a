//! The serving phase: set-up, the closed-loop request mix over TCP,
//! HTTP or the in-process `RowService`, and the untimed byte checks.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pdgf::{FetchRequest, ModelRegistry, Pdgf, PdgfProject, ServeClient, Server, ServerOptions};
use pdgf_gen::SchemaRuntime;
use pdgf_output::{Formatter, MemorySink};
use pdgf_runtime::{generate_table_range, RowRequest, RowService, RunConfig};

use crate::digest::Digest;
use crate::requests::{Request, Sequence};
use crate::trace::{Recorder, Trace};
use crate::Workload;

/// One in every this many responses is kept (as a digest) for the
/// byte-equality check.
pub const SAMPLE_EVERY: u64 = 8;

/// Seconds to load the model through the registry's gated pipeline
/// (parse → analyze → prove → build) and bind both listeners; returns
/// the bound (not yet running) server too.
pub fn setup(w: &Workload) -> Result<(f64, Server), String> {
    let started = Instant::now();
    let registry = ModelRegistry::new()
        .load_file(w.model, w.path)
        .map_err(|e| format!("load {}: {e}", w.path))?;
    let server = bind(registry)?;
    Ok((started.elapsed().as_secs_f64(), server))
}

/// Bind TCP and HTTP listeners on OS-assigned loopback ports with the
/// default server options.
pub fn bind(registry: ModelRegistry) -> Result<Server, String> {
    Server::bind_registry(registry, "127.0.0.1:0", ServerOptions::new(), None)
        .and_then(|s| s.with_http("127.0.0.1:0"))
        .map_err(|e| format!("bind: {e}"))
}

/// The served model compiled as the server compiles it (shipped SF and
/// seed), for the reference bytes and the in-process replay.
pub fn reference_project(w: &Workload) -> Result<PdgfProject, String> {
    Pdgf::from_xml_file(w.path)
        .and_then(|b| b.build())
        .map_err(|e| format!("{}: {e}", w.path))
}

/// Which path the request mix goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// The length-prefixed TCP protocol, via `ServeClient::connect`.
    Tcp(SocketAddr),
    /// HTTP/1.1 keep-alive, via `ServeClient::connect_http`.
    Http(SocketAddr),
    /// `RowService::submit` + `ResponseStream::next_package`, in process.
    InProcess,
}

/// Span layer names of the serving phase.
pub mod layer {
    /// `ServeClient::fetch` over TCP.
    pub const TCP_FETCH: &str = "pdgf.serve.tcp.fetch";
    /// `ServeClient::fetch` over HTTP.
    pub const HTTP_FETCH: &str = "pdgf.serve.http.fetch";
    /// `RowService::submit`.
    pub const SUBMIT: &str = "pdgf-runtime.serve.submit";
    /// `ResponseStream::next_package`.
    pub const NEXT_PACKAGE: &str = "pdgf-runtime.serve.next_package";
}

/// Results of one pass of the request mix.
#[derive(Debug, Default)]
pub struct LoadPhase {
    /// Range latencies, ms; a failed request counts as +∞.
    pub ranges: Vec<f64>,
    /// Point latencies, ms; a failed request counts as +∞.
    pub points: Vec<f64>,
    /// Time to the first package of each range, ms (in process only).
    pub first_package: Vec<f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Sampled responses: request index → digest.
    pub sampled: Vec<(u64, Digest)>,
    /// Wall seconds of the pass.
    pub wall_s: f64,
}

/// Which requests a pass sends: sequence indices from `indices.start`
/// on, for at least `budget` and until `min_ranges` ranges completed —
/// but never past `indices.end` or `hard_stop`.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Sequence indices the pass may use, consumed in order.
    pub indices: std::ops::Range<u64>,
    /// Time the pass runs for.
    pub budget: Duration,
    /// Ranges the pass needs before it may stop (p99 needs 1000).
    pub min_ranges: u64,
    /// Absolute cap on the pass's length.
    pub hard_stop: Duration,
}

impl Budget {
    /// Exactly the requests `indices` (unless `hard_stop` passes first).
    pub fn segment(indices: std::ops::Range<u64>, hard_stop: Duration) -> Self {
        Self {
            indices,
            budget: Duration::MAX,
            min_ranges: 0,
            hard_stop,
        }
    }
}

/// Everything a client thread needs to issue one request.
struct Target<'a> {
    w: &'a Workload,
    table: u32,
    formatter: Arc<dyn Formatter>,
    service: Option<&'a RowService>,
}

/// One response: bytes plus, in process, the time to its first package.
struct Response {
    bytes: Vec<u8>,
    first_package: Option<Duration>,
}

enum Client<'a> {
    Net(ServeClient, &'static str),
    Local(&'a RowService),
}

impl Client<'_> {
    fn fetch(
        &mut self,
        target: &Target<'_>,
        req: Request,
        rec: &mut Recorder,
    ) -> Result<Response, String> {
        match self {
            Client::Net(client, layer) => {
                let fetch = if req.is_point() {
                    FetchRequest::row(target.w.fact, req.start)
                } else {
                    FetchRequest::range(target.w.fact, req.start, req.rows)
                };
                let fetch = fetch.model(target.w.model).format(target.w.format);
                rec.span(layer, "", req.rows, |_| client.fetch(fetch))
                    .map(|bytes| Response {
                        bytes,
                        first_package: None,
                    })
                    .map_err(|e| e.to_string())
            }
            Client::Local(service) => {
                let started = Instant::now();
                let request = if req.is_point() {
                    RowRequest::point(target.table, 0, req.start)
                } else {
                    RowRequest::range(target.table, 0, req.start..req.start + req.rows)
                };
                let mut stream = rec
                    .span(layer::SUBMIT, "", req.rows, |_| {
                        service.submit(request, Arc::clone(&target.formatter))
                    })
                    .map_err(|e| e.to_string())?;
                let mut bytes = Vec::new();
                let mut first_package = None;
                while let Some(pkg) =
                    rec.span(layer::NEXT_PACKAGE, "", 1, |_| stream.next_package())
                {
                    first_package.get_or_insert_with(|| started.elapsed());
                    bytes.extend_from_slice(&pkg);
                }
                Ok(Response {
                    bytes,
                    first_package,
                })
            }
        }
    }
}

impl LoadPhase {
    /// Pool another pass's samples and counts into this one.
    pub fn merge(&mut self, other: LoadPhase) {
        self.ranges.extend(other.ranges);
        self.points.extend(other.points);
        self.first_package.extend(other.first_package);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.sampled.extend(other.sampled);
        self.wall_s += other.wall_s;
    }
}

/// Drive the seeded request mix through `path` from `clients` closed-loop
/// client threads (each sends its next request only after the previous
/// reply), consuming the sequence in index order from
/// `budget.indices.start`.
#[allow(clippy::too_many_arguments)]
pub fn load(
    path: Path,
    w: &Workload,
    rt: &SchemaRuntime,
    service: Option<&RowService>,
    seq: Sequence,
    clients: usize,
    budget: Budget,
    trace: Option<&mut Trace>,
) -> LoadPhase {
    let table = rt
        .table_by_name(w.fact)
        .map(|(i, _)| i)
        .expect("workload fact table exists");
    let target = Target {
        w,
        table,
        formatter: Arc::from(w.format.formatter()),
        service,
    };
    let next = AtomicU64::new(budget.indices.start);
    let ranges_done = AtomicU64::new(0);
    let merged = Mutex::new(LoadPhase::default());
    let tracing = trace.is_some();
    let started = Instant::now();
    let recorders: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                let (target, next, ranges_done, merged, budget) =
                    (&target, &next, &ranges_done, &merged, &budget);
                scope.spawn(move || {
                    let mut rec = if tracing {
                        Recorder::new(started)
                    } else {
                        Recorder::off()
                    };
                    let mut local = LoadPhase::default();
                    client_loop(
                        path,
                        target,
                        seq,
                        budget,
                        started,
                        next,
                        ranges_done,
                        &mut rec,
                        &mut local,
                    );
                    merged
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .merge(local);
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = merged.into_inner().unwrap_or_else(|e| e.into_inner());
    phase.wall_s = started.elapsed().as_secs_f64();
    if let Some(trace) = trace {
        for rec in &recorders {
            trace.absorb(rec);
        }
    }
    phase
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    path: Path,
    target: &Target<'_>,
    seq: Sequence,
    budget: &Budget,
    started: Instant,
    next: &AtomicU64,
    ranges_done: &AtomicU64,
    rec: &mut Recorder,
    out: &mut LoadPhase,
) {
    // A connection is opened and pinged untimed, so the server's accept
    // and handler start-up never count as request latency.
    let connect = || -> Result<Client<'_>, String> {
        let (client, layer) = match path {
            Path::Tcp(addr) => (ServeClient::connect(addr), layer::TCP_FETCH),
            Path::Http(addr) => (ServeClient::connect_http(addr), layer::HTTP_FETCH),
            Path::InProcess => {
                return target
                    .service
                    .map(Client::Local)
                    .ok_or_else(|| "no in-process service".to_string())
            }
        };
        let mut client = client.map_err(|e| format!("connect: {e}"))?;
        client.ping().map_err(|e| format!("ping: {e}"))?;
        Ok(Client::Net(client, layer))
    };
    let mut client = None;
    loop {
        let elapsed = started.elapsed();
        let enough = ranges_done.load(Ordering::Relaxed) >= budget.min_ranges;
        if elapsed >= budget.hard_stop || (elapsed >= budget.budget && enough) {
            return;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= budget.indices.end {
            return;
        }
        let req = seq.get(i);
        out.attempted += 1;
        let connected = match client.as_mut() {
            Some(c) => Ok(c),
            None => connect().map(|c| client.insert(c)),
        };
        let t0 = Instant::now();
        let result = connected.and_then(|c| c.fetch(target, req, rec));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let ms = match result {
            Ok(resp) if !resp.bytes.is_empty() => {
                if seq.sampled(i, SAMPLE_EVERY) {
                    out.sampled.push((i, Digest::of(&resp.bytes)));
                }
                if let (false, Some(first)) = (req.is_point(), resp.first_package) {
                    out.first_package.push(first.as_secs_f64() * 1e3);
                }
                ms
            }
            Ok(_) => {
                out.failed += 1;
                out.problems.push(format!("request {i}: empty response"));
                f64::INFINITY
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("request {i}: {e}"));
                // Reconnect for the next request: the connection may be gone.
                client = None;
                f64::INFINITY
            }
        };
        if req.is_point() {
            out.points.push(ms);
        } else {
            out.ranges.push(ms);
            ranges_done.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Reference digests of sampled requests, computed once per request
/// index with `generate_table_range` into a `MemorySink` (inline, on the
/// calling thread) and shared across passes.
#[derive(Default)]
pub struct References {
    digests: BTreeMap<u64, Digest>,
}

impl References {
    /// Check every sampled response of `phase` against the reference
    /// bytes of the same range; mismatches become failures.
    pub fn check(
        &mut self,
        phase: &mut LoadPhase,
        w: &Workload,
        rt: &SchemaRuntime,
        seq: Sequence,
    ) {
        let (table, _) = rt.table_by_name(w.fact).expect("fact table exists");
        let formatter = w.format.formatter();
        for (i, got) in std::mem::take(&mut phase.sampled) {
            let want = *self.digests.entry(i).or_insert_with(|| {
                let req = seq.get(i);
                let mut sink = MemorySink::new();
                let cfg = RunConfig::new().workers(0);
                match generate_table_range(
                    rt,
                    table,
                    0,
                    req.start..req.start + req.rows,
                    &*formatter,
                    &mut sink,
                    &cfg,
                    None,
                ) {
                    Ok(_) => Digest::of(sink.data()),
                    Err(_) => Digest::default(),
                }
            });
            if got != want {
                phase.failed += 1;
                phase.problems.push(format!(
                    "request {i}: response bytes differ from generate_table_range"
                ));
            }
        }
    }
}
