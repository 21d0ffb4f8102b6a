//! The one worker pool of the runtime: batch runs and the row service
//! both render on it.
//!
//! A [`Request`] is a list of table jobs whose packages are numbered
//! job-major; a served range is the one-job case, a
//! [`run_project`](crate::run_project) batch the many-job case. Its
//! [`Reader`] keeps at most `window` package tickets issued and not yet
//! taken on the FIFO queue, so a slow reader starves only itself.
//! Workers ([`Pool::work`]) render each ticket into a recycled buffer and
//! deliver it, with its phase timings, to the request's reorder stage. A
//! render panic fails only its request; the worker survives.
//!
//! The runtime and formatter are [`Held`]: borrowed by a batch run's
//! scoped threads, shared through `Arc` with the service's long-lived
//! ones. With a [`RunScope`] the pool keeps the watchdog's pending gauge:
//! tickets issued but not yet delivered, queued or rendering.

use std::collections::VecDeque;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use pdgf_gen::SchemaRuntime;
use pdgf_output::{BufferPool, Formatter, ReorderBuffer, TableMeta};

use crate::metrics::{PackageTimings, WorkerPhases};
use crate::package::{
    package_capacity_hint, render_package, Framing, TableJob, WorkPackage, WorkerState,
};
use crate::scheduler::table_meta;
use crate::telemetry::RunScope;

/// A value the pool either borrows (a batch run's scoped threads) or
/// shares (the service's long-lived threads).
pub(crate) enum Held<'a, T: ?Sized> {
    Borrowed(&'a T),
    Shared(Arc<T>),
}

impl<T: ?Sized> Deref for Held<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Self::Borrowed(t) => t,
            Self::Shared(t) => t,
        }
    }
}

/// One job of a request, with what its packages need to render.
pub(crate) struct PlannedJob {
    pub(crate) job: TableJob,
    pub(crate) meta: TableMeta,
    /// Proven per-row byte bound (buffer pre-sizing only).
    row_bound: Option<u64>,
    /// Request-wide sequence number of the job's first package.
    first: u64,
    /// Packages this job renders.
    pub(crate) packages: u64,
}

/// A rendered package and its phase timings.
pub(crate) type Rendered = (Vec<u8>, PackageTimings);

/// Reorder-and-ready state of one request.
#[derive(Default)]
struct RequestState {
    reorder: ReorderBuffer<Rendered>,
    ready: VecDeque<Rendered>,
    /// Sequence number of the first package whose render panicked.
    failed: Option<u64>,
}

/// Everything a worker needs to render a request's packages, shared
/// between the reader and the pool.
pub(crate) struct Request<'a> {
    rt: Held<'a, SchemaRuntime>,
    formatter: Held<'a, dyn Formatter + 'a>,
    pub(crate) jobs: Vec<PlannedJob>,
    package_rows: u64,
    /// Packages across every job.
    pub(crate) total: u64,
    /// Set when the request fails or its reader goes away; queued
    /// tickets are then skipped.
    cancelled: AtomicBool,
    state: Mutex<RequestState>,
    ready: Condvar,
}

impl<'a> Request<'a> {
    pub(crate) fn new(
        rt: Held<'a, SchemaRuntime>,
        formatter: Held<'a, dyn Formatter + 'a>,
        jobs: Vec<TableJob>,
        package_rows: u64,
    ) -> Self {
        let profiles = rt.profiles();
        let mut total = 0;
        let jobs = jobs
            .into_iter()
            .map(|job| {
                let meta = table_meta(&rt, job.table);
                let row_bound = formatter.max_row_bytes(&meta, &profiles[job.table as usize]);
                let packages = job.package_count(package_rows);
                total += packages;
                PlannedJob {
                    job,
                    meta,
                    row_bound,
                    first: total - packages,
                    packages,
                }
            })
            .collect();
        Self {
            rt,
            formatter,
            jobs,
            package_rows,
            total,
            cancelled: AtomicBool::new(false),
            state: Mutex::default(),
            ready: Condvar::new(),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, RequestState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Package `seq` of the request: its job index, its rows (numbered
    /// within the job) and its share of the job's framing.
    pub(crate) fn package(&self, seq: u64) -> (usize, WorkPackage, Framing) {
        // Rowless jobs share their `first` with the next job; the last
        // job starting at or before `seq` is the one that owns it.
        let idx = self.jobs.partition_point(|j| j.first <= seq) - 1;
        let job = &self.jobs[idx];
        let (pkg, framing) = job.job.package(seq - job.first, self.package_rows);
        (idx, pkg, framing)
    }

    /// Up-front capacity for package `seq`'s buffer, from its job's
    /// proven per-row bound.
    pub(crate) fn capacity_hint(&self, seq: u64) -> usize {
        let (idx, pkg, _) = self.package(seq);
        package_capacity_hint(self.jobs[idx].row_bound, pkg.len())
    }

    /// Render package `seq` into the empty buffer `out`. A panic inside
    /// the renderer is contained: the result is `None` and `state` is
    /// reset, since a half-filled batch is garbage.
    pub(crate) fn render(
        &self,
        seq: u64,
        state: &mut WorkerState,
        out: &mut Vec<u8>,
        phases: Option<&WorkerPhases>,
    ) -> Option<PackageTimings> {
        let (idx, pkg, framing) = self.package(seq);
        let job = &self.jobs[idx];
        let rendered = catch_unwind(AssertUnwindSafe(|| {
            render_package(
                &self.rt,
                &*self.formatter,
                &job.meta,
                &pkg,
                framing,
                state,
                out,
                phases,
            )
        }));
        if rendered.is_err() {
            *state = WorkerState::default();
        }
        rendered.ok()
    }

    /// Hand package `seq` (`None`: its render panicked) to the reader,
    /// waking it only after the guard is released.
    fn deliver(&self, seq: u64, rendered: Option<Rendered>) {
        let mut st = self.lock_state();
        match rendered {
            Some(package) => {
                let mut ready = st.reorder.push(seq, package);
                while let Some(package) = ready {
                    st.ready.push_back(package);
                    ready = st.reorder.pop_ready();
                }
            }
            None => {
                st.failed.get_or_insert(seq);
                self.cancelled.store(true, Ordering::Relaxed);
            }
        }
        drop(st);
        self.ready.notify_all();
    }
}

/// Why a request ended before its last package: the render of a
/// package panicked, or the pool shut down.
pub(crate) enum Stop {
    Panicked(u64),
    ShutDown,
}

/// The reading side of a request: it issues tickets and takes the
/// rendered packages back in order. At most the pool's `window` tickets
/// are issued and not yet taken (queued, rendering or waiting to be
/// reordered); the package the reader holds is beyond that.
pub(crate) struct Reader<'a> {
    req: Arc<Request<'a>>,
    issued: u64,
    /// Packages taken so far: the next one has this sequence number.
    taken: u64,
}

impl<'a> Reader<'a> {
    /// Start reading `req`: its first `window` tickets go on the queue.
    pub(crate) fn start(req: Request<'a>, pool: &Pool<'a>) -> Self {
        let mut reader = Self {
            req: Arc::new(req),
            issued: 0,
            taken: 0,
        };
        reader.issue(pool);
        reader
    }

    pub(crate) fn request(&self) -> &Request<'a> {
        &self.req
    }

    pub(crate) fn is_complete(&self) -> bool {
        self.taken == self.req.total
    }

    fn issue(&mut self, pool: &Pool<'a>) {
        while self.issued < self.req.total && self.issued - self.taken < pool.window {
            pool.push(Task {
                req: Arc::clone(&self.req),
                seq: self.issued,
            });
            self.issued += 1;
        }
    }

    /// Blocking: take the next package in sequence order, with its
    /// sequence number, and refill the window behind it. `Ok(None)`
    /// after the last one.
    pub(crate) fn next(&mut self, pool: &Pool<'a>) -> Result<Option<(u64, Rendered)>, Stop> {
        if self.is_complete() {
            return Ok(None);
        }
        let mut st = self.req.lock_state();
        let package = loop {
            if let Some(package) = st.ready.pop_front() {
                break package;
            }
            if let Some(seq) = st.failed {
                return Err(Stop::Panicked(seq));
            }
            if pool.shutdown.load(Ordering::Acquire) {
                return Err(Stop::ShutDown);
            }
            // Timed wait so a shutdown while parked is noticed.
            st = self
                .req
                .ready
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        };
        drop(st);
        let seq = self.taken;
        self.taken += 1;
        self.issue(pool);
        Ok(Some((seq, package)))
    }
}

impl Drop for Reader<'_> {
    /// A request nobody reads is given up: workers skip its queued tickets.
    fn drop(&mut self) {
        self.req.cancelled.store(true, Ordering::Relaxed);
    }
}

/// One package ticket on the queue.
struct Task<'a> {
    req: Arc<Request<'a>>,
    seq: u64,
}

/// The FIFO ticket queue and what its workers share.
pub(crate) struct Pool<'a> {
    queue: Mutex<VecDeque<Task<'a>>>,
    work: Condvar,
    shutdown: AtomicBool,
    /// Tickets each reader keeps issued and not yet taken (≥ 1).
    window: u64,
    /// Written package buffers, recycled into later renders.
    pub(crate) buffers: BufferPool,
    pub(crate) scope: Option<Held<'a, RunScope>>,
}

impl<'a> Pool<'a> {
    /// An empty pool for `workers` threads whose readers keep `window`
    /// tickets ahead. It parks at most a full window of written buffers
    /// plus one per worker and one for the reader.
    pub(crate) fn new(scope: Option<Held<'a, RunScope>>, window: usize, workers: usize) -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            window: window as u64,
            buffers: BufferPool::new(window + workers + 1),
            scope,
        }
    }

    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Task<'a>>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, task: Task<'a>) {
        if let Some(scope) = &self.scope {
            scope.ticket_issued();
        }
        // locks:allow(W034) depth is bounded externally: every reader
        // keeps at most `window` tickets in flight
        self.lock_queue().push_back(task);
        self.work.notify_one();
    }

    /// Stop the workers once the queue is drained. Returns whether the
    /// pool was already shut down.
    pub(crate) fn shut_down(&self) -> bool {
        let was = self.shutdown.swap(true, Ordering::AcqRel);
        self.work.notify_all();
        was
    }

    pub(crate) fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Blocking: the next ticket, or `None` once the pool is shut down
    /// and nothing is queued.
    fn pop(&self) -> Option<Task<'a>> {
        let mut q = self.lock_queue();
        loop {
            if let Some(task) = q.pop_front() {
                return Some(task);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            q = self
                .work
                .wait_timeout(q, Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// One worker's life: render tickets until the pool shuts down.
    /// `worker` picks its metric slot.
    pub(crate) fn work(&self, worker: usize) {
        let mut state = WorkerState::default();
        let phases = self.scope.as_ref().map(|s| s.slot(worker));
        while let Some(Task { req, seq }) = self.pop() {
            if !req.cancelled.load(Ordering::Relaxed) {
                let mut out = self.buffers.take_with_capacity(req.capacity_hint(seq));
                let timings = req.render(seq, &mut state, &mut out, phases.as_deref());
                req.deliver(seq, timings.map(|t| (out, t)));
            }
            if let Some(scope) = &self.scope {
                scope.ticket_done();
            }
        }
    }
}
