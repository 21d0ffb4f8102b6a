//! Execution layer of the PDGF reproduction.
//!
//! Figure 2 of the paper shows the architecture this crate implements:
//! a controller initializes the system, "the meta scheduler manages
//! multi-node scheduling, while the scheduler assigns work packages to
//! the workers. A work package is a set of rows of a table that need to
//! be generated. The workers then initialize the correct generators using
//! the seeding system and the update black box. Whenever a work package
//! is generated, it is sent to the output system, where it can be
//! formatted and sorted."
//!
//! * [`package`] — work packages, row-range partitioning, and the one
//!   package renderer every engine shares (plus the row reference
//!   renderer the identity suites check it against),
//! * [`scheduler`] — project runs with sorted output, on the row service's pool,
//! * [`meta`] — the meta-scheduler: sharding a project across nodes,
//! * [`update`] — the update black box: deterministic insert/update/
//!   delete batches per abstract time unit,
//! * [`monitor`] — live progress counters (the demo's Mission Control
//!   substitute),
//! * [`events`] — the structured run-event stream (bounded, never
//!   blocking; a slow subscriber drops events, it cannot stall the run),
//! * [`metrics`] — per-worker phase-latency histograms, utilization and
//!   queue-depth sampling,
//! * [`telemetry`] — the handle tying events + metrics + the stall
//!   watchdog to a run ([`Observability`] attaches them),
//! * [`serve`] — the on-the-fly row service: the worker pool kept alive,
//!   answering row-range and point-lookup requests on demand, byte-
//!   identical to batch output,
//! * [`driver`] — whole-project generation runs and reports,
//! * [`handoff`] — a ticket counter and bounded channel, driven by the
//!   benchmark replay, the A/B bench and loom (`--cfg loom`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod driver;
pub mod events;
pub mod handoff;
pub mod meta;
pub mod metrics;
pub mod monitor;
pub mod package;
mod pool;
pub mod scheduler;
pub mod serve;
mod sync;
pub mod telemetry;
pub mod update;

pub use driver::{GenerationRun, RunReport, TableReport};
pub use events::{EventBus, EventSubscriber, RunEvent, StampedEvent};
pub use handoff::TicketCounter;
pub use meta::{MetaScheduler, NodeReport, NodeSinkFactory};
pub use metrics::{
    Histogram, HistogramSnapshot, MetricsSnapshot, PackageTimings, PhaseStats, QueueDepthStats,
};
pub use monitor::{Monitor, Snapshot, TableHandle, TableSnapshot};
pub use package::{
    packages_for, packages_for_jobs, render_reference, Framing, ProjectPackage, TableJob,
    WorkPackage,
};
pub use scheduler::{
    available_workers, generate_table_range, run_project, table_meta, RunConfig, TableRunStats,
};
pub use serve::{
    Admitted, ResponseStream, RowRequest, RowService, ServeConfig, ServeStats, SubmitError,
};
pub use telemetry::{Observability, Telemetry, TelemetryConfig};
pub use update::{UpdateBatch, UpdateBlackBox, UpdateConfig, UpdateOp};
