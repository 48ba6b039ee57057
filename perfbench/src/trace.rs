//! Timing and counting decorators around the simulator's public plug-in
//! traits, and the calibration that turns their raw intervals into
//! self times.
//!
//! Each decorator forwards every call unchanged to the wrapped object,
//! in the same order, so a decorated run makes exactly the decisions
//! of an undecorated one (the test suite checks the report digests).

use rpu_serve::snapshot::{SnapshotReader, SnapshotWriter};
use rpu_serve::{
    ActiveRequest, CostModel, FleetEvent, QueuedRequest, Request, Router, RoutingView,
    SchedulingPolicy, SnapshotError,
};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Calls made into one layer and the raw nanoseconds they spanned.
#[derive(Debug, Default)]
pub struct Tally {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl Tally {
    /// Calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Raw timed nanoseconds so far (clock overhead included).
    pub fn raw_ns(&self) -> u64 {
        self.ns.get()
    }

    /// Self time: the raw intervals minus the calibrated cost an empty
    /// timed call shows inside its own interval.
    pub fn self_ns(&self, calib: &Calibration) -> f64 {
        (self.raw_ns() as f64 - self.calls() as f64 * calib.in_interval_ns).max(0.0)
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }
}

/// The three plug-in layers a traced run times.
#[derive(Debug, Default)]
pub struct Tallies {
    /// [`Router::route`].
    pub router: Tally,
    /// [`SchedulingPolicy::select`] and `preempt_victim`.
    pub policy: Tally,
    /// [`CostModel::decode_step_s`], `prefill_s` and `fits`.
    pub cost: Tally,
}

/// Times every routing decision of the wrapped router.
pub struct TimedRouter<'a> {
    inner: &'a mut dyn Router,
    tallies: Rc<Tallies>,
}

impl<'a> TimedRouter<'a> {
    /// Wraps `inner`, charging its route calls to `tallies.router`.
    pub fn new(inner: &'a mut dyn Router, tallies: Rc<Tallies>) -> Self {
        Self { inner, tallies }
    }
}

impl Router for TimedRouter<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, req: &Request, view: &RoutingView<'_>) -> usize {
        let inner = &mut self.inner;
        self.tallies.router.time(|| inner.route(req, view))
    }

    fn on_fleet_event(&mut self, event: &FleetEvent, view: &RoutingView<'_>) {
        self.inner.on_fleet_event(event, view);
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(r)
    }
}

/// Forwards to the wrapped router and records every lifecycle event
/// the fleet applies — how the benchmark learns an autoscaler's
/// decisions through the public [`Router::on_fleet_event`] hook.
pub struct Recorder<'a> {
    inner: &'a mut dyn Router,
    /// Lifecycle events in the order the fleet applied them.
    pub events: Vec<FleetEvent>,
}

impl<'a> Recorder<'a> {
    /// Wraps `inner` with an empty event record.
    pub fn new(inner: &'a mut dyn Router) -> Self {
        Self {
            inner,
            events: Vec::new(),
        }
    }
}

impl Router for Recorder<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, req: &Request, view: &RoutingView<'_>) -> usize {
        self.inner.route(req, view)
    }

    fn on_fleet_event(&mut self, event: &FleetEvent, view: &RoutingView<'_>) {
        self.events.push(*event);
        self.inner.on_fleet_event(event, view);
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(r)
    }
}

/// Times every admission and eviction decision of the wrapped policy.
pub struct TimedPolicy {
    inner: Box<dyn SchedulingPolicy>,
    tallies: Rc<Tallies>,
}

impl TimedPolicy {
    /// Wraps `inner`, charging its decisions to `tallies.policy`.
    pub fn new(inner: Box<dyn SchedulingPolicy>, tallies: Rc<Tallies>) -> Self {
        Self { inner, tallies }
    }
}

impl SchedulingPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, queue: &[QueuedRequest], clock: f64) -> Option<usize> {
        let inner = &mut self.inner;
        self.tallies.policy.time(|| inner.select(queue, clock))
    }

    fn preempt_victim(
        &mut self,
        active: &[ActiveRequest],
        candidate: &QueuedRequest,
        clock: f64,
    ) -> Option<usize> {
        let inner = &mut self.inner;
        self.tallies
            .policy
            .time(|| inner.preempt_victim(active, candidate, clock))
    }

    /// A constant fast-path hint, forwarded untimed.
    fn may_preempt(&self) -> bool {
        self.inner.may_preempt()
    }
}

/// Times every pricing and capacity query of the wrapped cost model.
pub struct TimedCost {
    inner: Box<dyn CostModel>,
    tallies: Rc<Tallies>,
}

impl TimedCost {
    /// Wraps `inner`, charging its queries to `tallies.cost`.
    pub fn new(inner: Box<dyn CostModel>, tallies: Rc<Tallies>) -> Self {
        Self { inner, tallies }
    }
}

impl CostModel for TimedCost {
    fn decode_step_s(&mut self, batch: u32, max_context: u32) -> f64 {
        let inner = &mut self.inner;
        self.tallies
            .cost
            .time(|| inner.decode_step_s(batch, max_context))
    }

    fn prefill_s(&mut self, prompt_len: u32) -> f64 {
        let inner = &mut self.inner;
        self.tallies.cost.time(|| inner.prefill_s(prompt_len))
    }

    fn fits(&self, context_tokens: u64) -> bool {
        self.tallies.cost.time(|| self.inner.fits(context_tokens))
    }

    /// Read once per replica when a run starts; forwarded untimed.
    fn kv_capacity_tokens(&self) -> u64 {
        self.inner.kv_capacity_tokens()
    }
}

/// What an empty timed call shows inside its own timed interval on
/// this machine (mostly the clock reads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Nanoseconds per empty timed call; subtracted from every timed
    /// call to give self time.
    pub in_interval_ns: f64,
}

/// Measures [`Calibration`] by timing batches of empty calls through
/// the same [`Tally`] path the decorators use; keeps the cheapest of a
/// few batches so a preempted batch does not inflate it.
pub fn calibrate() -> Calibration {
    const CALLS: u32 = 20_000;
    let in_interval_ns = (0..5)
        .map(|_| {
            let tally = Tally::default();
            for i in 0..CALLS {
                black_box(tally.time(|| black_box(i)));
            }
            tally.raw_ns() as f64 / f64::from(CALLS)
        })
        .fold(f64::INFINITY, f64::min);
    Calibration { in_interval_ns }
}
