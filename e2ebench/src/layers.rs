//! The benchmark's own span timer for the traced run.
//!
//! The program itself carries no benchmark spans: the traced run calls
//! each layer's public functions from benchmark code and wraps those calls
//! here. Spans nest on one thread; a span's *self* time is its wall time
//! minus the wall time of the spans opened inside it, so the self times of
//! every layer plus the time no span covered (`unattributed`) add up to the
//! traced pass's wall time exactly. A traced pass may be made of several
//! segments ([`Tracer::pass`]), interleaved with untraced work that is
//! timed for comparison.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated timings of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    /// Wall time inside the layer minus time in nested spans, ns.
    pub self_ns: u64,
    /// Wall time inside the layer, nested spans included, ns.
    pub total_ns: u64,
}

struct Frame {
    start: Instant,
    child_ns: u64,
}

/// A single-threaded span timer; a disabled tracer only calls through.
pub struct Tracer {
    on: bool,
    wall_ns: Cell<u64>,
    stack: RefCell<Vec<Frame>>,
    layers: RefCell<BTreeMap<&'static str, Layer>>,
}

/// What a traced pass measured.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Wall time of every [`Tracer::pass`] segment, ns.
    pub wall_ns: u64,
    /// Per-layer accumulations.
    pub layers: BTreeMap<&'static str, Layer>,
}

impl Tracer {
    /// A tracer that records when `on`, and only calls through otherwise.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            wall_ns: Cell::new(0),
            stack: RefCell::new(Vec::new()),
            layers: RefCell::new(BTreeMap::new()),
        }
    }

    /// Whether this tracer records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` as one segment of the traced pass.
    pub fn pass<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.wall_ns.set(self.wall_ns.get() + nanos(t0));
        r
    }

    /// Runs `f` as one call of layer `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.stack.borrow_mut().push(Frame {
            start: Instant::now(),
            child_ns: 0,
        });
        let r = f();
        let frame = self.stack.borrow_mut().pop().expect("balanced spans");
        let total = nanos(frame.start);
        self.attribute(name, total, total.saturating_sub(frame.child_ns));
        r
    }

    /// Attributes `ns` of leaf calls to layer `name` that the caller timed
    /// itself (hot loops read the clock once per phase and report once).
    pub fn leaf(&self, name: &'static str, ns: u64) {
        if self.on {
            self.attribute(name, ns, ns);
        }
    }

    fn attribute(&self, name: &'static str, total: u64, self_ns: u64) {
        let mut layers = self.layers.borrow_mut();
        let l = layers.entry(name).or_default();
        l.self_ns += self_ns;
        l.total_ns += total;
        drop(layers);
        if let Some(parent) = self.stack.borrow_mut().last_mut() {
            parent.child_ns += total;
        }
    }

    /// Ends the traced pass.
    pub fn finish(self) -> Trace {
        debug_assert!(self.stack.borrow().is_empty(), "unclosed span");
        Trace {
            wall_ns: self.wall_ns.get(),
            layers: self.layers.into_inner(),
        }
    }
}

impl Trace {
    /// The accumulation of `name` (zero when the layer was never entered).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Self time of `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.layer(name).self_ns as f64 / 1e9
    }

    /// Wall time of the pass, seconds.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Wall time no span covered, seconds.
    pub fn unattributed_s(&self) -> f64 {
        let attributed: u64 = self.layers.values().map(|l| l.self_ns).sum();
        self.wall_ns.saturating_sub(attributed) as f64 / 1e9
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Runs `f` with the `pka-obs` registry enabled (no sink attached), then
/// disables and clears it again.
pub fn with_registry<R>(f: impl FnOnce() -> R) -> R {
    pka_obs::enable();
    let r = f();
    pka_obs::disable();
    pka_obs::reset();
    r
}

/// Nanoseconds since `t`.
pub fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while nanos(t) < ns {}
    }

    #[test]
    fn self_times_and_remainder_sum_to_wall() {
        let t = Tracer::new(true);
        t.pass(|| {
            t.span("outer", || {
                spin(2_000_000);
                t.span("inner", || spin(3_000_000));
                t.leaf("leaf", 1_000_000);
            });
            spin(1_000_000);
        });
        spin(5_000_000);
        t.pass(|| spin(1_000_000));
        let trace = t.finish();
        let inner = trace.layer("inner");
        let outer = trace.layer("outer");
        assert!(inner.total_ns >= 3_000_000);
        assert!(outer.total_ns >= outer.self_ns + inner.total_ns + 1_000_000);
        assert_eq!(trace.layer("leaf").self_ns, 1_000_000);
        let sum: u64 = trace.layers.values().map(|l| l.self_ns).sum();
        let rest = trace.unattributed_s();
        assert!((0.002..0.005).contains(&rest), "remainder {rest}");
        assert!((sum as f64 / 1e9 + rest - trace.wall_s()).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        t.leaf("y", 5);
        assert!(t.finish().layers.is_empty());
    }
}
