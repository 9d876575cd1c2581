//! In-memory span tracer for the traced (`--trace 1`) run.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! its name (`<layer>.<call>`), start, end and the span that was open
//! when it began. Calls made once per simulated cycle (`step`, port
//! I/O) would produce millions of spans, so they are *rolled up*: each
//! (parent span, name) pair keeps a call count and a summed duration,
//! which still lets self time be computed exactly. Spans stay in memory
//! and are written out once, when the run ends.
//!
//! With tracing off every entry point is a single branch and a direct
//! call: the end-to-end run pays nothing measurable.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Summed per-cycle calls under one parent span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rollup {
    pub calls: u64,
    pub total_ns: u64,
}

/// A per-thread tracer; merge the threads' tracers with [`Tracer::absorb`].
pub struct Tracer {
    on: bool,
    spans: RefCell<Vec<Span>>,
    open: Cell<Option<usize>>,
    rollups: RefCell<BTreeMap<(Option<usize>, &'static str), Rollup>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        epoch();
        Tracer {
            on,
            spans: RefCell::new(Vec::new()),
            open: Cell::new(None),
            rollups: RefCell::new(BTreeMap::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let parent = self.open.get();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                parent,
                start_ns: now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.set(Some(idx));
        let out = f();
        self.spans.borrow_mut()[idx].end_ns = now_ns();
        self.open.set(parent);
        out
    }

    /// Runs `f`, a per-cycle call, adding its duration to the
    /// `(open span, name)` rollup.
    #[inline]
    pub fn hot<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let mut r = self.rollups.borrow_mut();
        let e = r.entry((self.open.get(), name)).or_default();
        e.calls += 1;
        e.total_ns += ns;
        out
    }

    /// Moves another thread's spans and rollups into this tracer.
    pub fn absorb(&self, other: Tracer) {
        let base = self.spans.borrow().len();
        let shift = |p: Option<usize>| p.map(|i| i + base);
        let mut spans = self.spans.borrow_mut();
        for s in other.spans.into_inner() {
            spans.push(Span {
                parent: shift(s.parent),
                ..s
            });
        }
        let mut rollups = self.rollups.borrow_mut();
        for ((p, name), r) in other.rollups.into_inner() {
            let e = rollups.entry((shift(p), name)).or_default();
            e.calls += r.calls;
            e.total_ns += r.total_ns;
        }
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Total calls and nanoseconds of the rolled-up calls named `name`.
    pub fn rollup(&self, name: &str) -> Rollup {
        self.rollups
            .borrow()
            .iter()
            .filter(|((_, n), _)| *n == name)
            .fold(Rollup::default(), |a, (_, r)| Rollup {
                calls: a.calls + r.calls,
                total_ns: a.total_ns + r.total_ns,
            })
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time per layer (the span-name prefix before the first `.`)
    /// in nanoseconds: each span's duration minus the time its child
    /// spans and rolled-up calls cover; rolled-up calls are all self.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans.borrow();
        let rollups = self.rollups.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for ((p, name), r) in rollups.iter() {
            if let Some(p) = p {
                child_ns[*p] += r.total_ns;
            }
            *out.entry(layer(name)).or_default() += r.total_ns;
        }
        for (i, s) in spans.iter().enumerate() {
            *out.entry(layer(s.name)).or_default() += s.dur_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Renders every span and rollup as one JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"spans\":[");
        for (i, sp) in self.spans.borrow().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                sp.name, sp.start_ns, sp.end_ns
            ));
        }
        s.push_str("],\"rollups\":[");
        for (i, ((p, name), r)) in self.rollups.borrow().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = p.map_or("null".to_owned(), |p| p.to_string());
            s.push_str(&format!(
                "{{\"name\":\"{name}\",\"parent\":{parent},\"calls\":{},\"total_ns\":{}}}",
                r.calls, r.total_ns
            ));
        }
        s.push_str("]}\n");
        s
    }
}

fn layer(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or(name) {
        "core" => "core",
        "designs" => "designs",
        "hdl" => "hdl",
        "synth" => "synth",
        "gatesim" => "gatesim",
        "serve" => "serve",
        _ => "bench",
    }
}

/// The layers self time is reported for, in report order.
pub const LAYERS: [&str; 7] = [
    "core", "designs", "hdl", "synth", "gatesim", "serve", "bench",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_rollups() {
        let t = Tracer::new(true);
        t.span("bench.round", || {
            t.span("core.capture", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.hot("core.step", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let by = t.self_ns_by_layer();
        assert!(by["core"] >= 3_000_000);
        let total = t.durations_ms("bench.round")[0] * 1e6;
        let sum: u64 = by.values().sum();
        assert!(
            (sum as f64 - total).abs() < 1.0,
            "self times partition the root span"
        );
        assert_eq!(t.rollup("core.step").calls, 1);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        t.span("core.capture", || t.hot("core.step", || ()));
        assert_eq!(t.span_count(), 0);
        assert_eq!(t.rollup("core.step").calls, 0);
    }
}
