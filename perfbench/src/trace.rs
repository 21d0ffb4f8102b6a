//! In-memory span tracing for the traced (per-layer) run.
//!
//! The benchmark's own code wraps every call it makes into a layer's
//! public function in a span: layer name, a key (table index, kind
//! name, …), start, end, the enclosing span, and a work count (rows,
//! cells, bytes). Each thread records into its own [`Recorder`] with no
//! locking; recorders are merged into one [`Trace`] when the traced
//! phase ends. A span's *self time* is its duration minus the durations
//! of its direct children, so nested layers are not counted twice.

use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (public function) the span wraps, e.g. `pdgf-output.rows_columnar`.
    pub layer: &'static str,
    /// Sub-key within the layer (a table or generator kind), or "".
    pub key: &'static str,
    /// Start, in ns since the trace epoch.
    pub start: u64,
    /// End, in ns since the trace epoch.
    pub end: u64,
    /// Index of the enclosing span in the same recorder.
    parent: u32,
    /// Work done inside the span (rows, cells, bytes: layer-specific).
    pub work: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder whose clock counts from `epoch` (share one epoch across
    /// a phase's threads so their spans line up).
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing: [`span`](Self::span) just calls
    /// through, with no clock reads.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::new(Instant::now())
        }
    }

    /// A recorder like `self` (enabled or not, same epoch), for another
    /// thread of the same phase.
    pub fn sibling(&self) -> Self {
        Self {
            enabled: self.enabled,
            ..Self::new(self.epoch)
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span of `layer`/`key` with `work` units of work.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        key: &'static str,
        work: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            layer,
            key,
            start,
            end: start,
            parent,
            work,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.now();
        self.spans[idx as usize].end = end;
        out
    }
}

/// Aggregate of every span of one `(layer, key)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), ns.
    pub self_ns: u64,
    /// Summed work counts.
    pub work: u64,
}

/// Merged spans of one traced phase, aggregated per `(layer, key)`.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    totals: BTreeMap<(&'static str, &'static str), LayerTotals>,
}

impl Trace {
    /// Fold one recorder's spans into the aggregate.
    pub fn absorb(&mut self, rec: &Recorder) {
        let mut child_ns = vec![0u64; rec.spans.len()];
        for s in &rec.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        for (s, children) in rec.spans.iter().zip(child_ns) {
            let t = self.totals.entry((s.layer, s.key)).or_default();
            t.calls += 1;
            t.total_ns += s.ns();
            t.self_ns += s.ns().saturating_sub(children);
            t.work += s.work;
        }
    }

    /// Totals of one `(layer, key)` (zero when never recorded).
    pub fn get(&self, layer: &str, key: &str) -> LayerTotals {
        self.totals
            .iter()
            .find(|((l, k), _)| *l == layer && *k == key)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// Totals of `layer` summed over every key accepted by `keep`.
    pub fn sum(&self, layer: &str, keep: impl Fn(&str) -> bool) -> LayerTotals {
        let mut out = LayerTotals::default();
        for ((l, k), t) in &self.totals {
            if *l == layer && keep(k) {
                out.calls += t.calls;
                out.total_ns += t.total_ns;
                out.self_ns += t.self_ns;
                out.work += t.work;
            }
        }
        out
    }

    /// Every `(layer, key)` aggregate, sorted by layer then key.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, &LayerTotals)> {
        self.totals.iter().map(|((l, k), t)| (*l, *k, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children_only() {
        let mut rec = Recorder::new(Instant::now());
        rec.span("outer", "", 1, |rec| {
            rec.span("inner", "a", 10, |rec| {
                rec.span("leaf", "", 100, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            rec.span("inner", "b", 20, |_| ());
        });
        let mut trace = Trace::default();
        trace.absorb(&rec);
        let outer = trace.get("outer", "");
        let inner = trace.sum("inner", |_| true);
        let leaf = trace.get("leaf", "");
        assert_eq!((outer.calls, inner.calls, leaf.calls), (1, 2, 1));
        assert_eq!(inner.work, 30);
        assert!(leaf.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(
            trace.rows().map(|(_, _, t)| t.self_ns).sum::<u64>(),
            outer.total_ns,
            "self times of a tree add up to the root's duration"
        );
        assert_eq!(trace.get("missing", ""), LayerTotals::default());
    }
}
