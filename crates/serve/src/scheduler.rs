//! The continuous-batching scheduler and its driving event loop.
//!
//! # State machine
//!
//! Every request moves through four states (five with a preemptive
//! policy):
//!
//! ```text
//!             admission (policy pick,        prefill done          last token
//!             batch + KV gates)              (ready_at <= clock)   (generated == output_len)
//!   Queued ─────────────────────> Prefilling ────────────────────> Decoding ────> Done
//!      │  ^                                                           │
//!      │  └───────────────── preemption (policy victim) ─────────────┘
//!      └──> Rejected  (reserved tokens exceed machine capacity even alone)
//! ```
//!
//! The loop alternates three phases on one global clock:
//!
//! 1. **Admit** — ask the [`SchedulingPolicy`] which queued request to
//!    admit next, while the batch has a free slot and the *conservative
//!    KV reservation* (prompt + full output for every admitted request)
//!    is still at most the replica's published
//!    [`CostModel::kv_capacity_tokens`]. When the gates refuse, a
//!    preemptive policy may evict a resident request instead: the
//!    victim returns to the queue keeping its generated tokens and
//!    resumes later with a fresh prefill of prompt + generated tokens
//!    (recompute-style). Each admitted request starts its prefill: with
//!    collocated prefill the clock (and every decoding request) stalls
//!    for it; with disaggregated prefill (the paper's Splitwise-style
//!    split) it runs on the prefill tier and the request joins the
//!    decode batch `prefill_s` later.
//! 2. **Decode** — one iteration emits one token for every request
//!    whose prefill has completed, costed by [`CostModel::decode_step_s`]
//!    at the current batch size and largest (bucketed) context.
//! 3. **Advance** — with nothing decodable, the clock jumps to the next
//!    event (prefill completion or arrival).
//!
//! A replica with an empty queue changes nothing anyone outside it can
//! see until its next completion, even while some of its batch is still
//! prefilling, so it runs the decode iterations up to that one within a
//! single step, pricing each stretch at one `(batch, bucket)` once. When an
//! arrival, a re-route or a failure reaches it before its clock, the
//! event loop rewinds it to that instant: the iterations that had not
//! begun are taken back, and the schedule is the
//! one-iteration-per-event schedule, bit for bit.
//!
//! Completed requests leave the batch at the end of the iteration that
//! produced their last token, immediately freeing their slot and KV
//! reservation; in closed-loop workloads the completion also triggers
//! the owning client's next arrival.
//!
//! Policies change *ordering only*: every policy completes the same
//! request set and emits the same tokens (the differential suite
//! asserts this), differing in who waits — and therefore in TTFT/TPOT
//! tails per SLO class.
//!
//! # Example
//!
//! Saturating a one-slot machine serialises requests; two identical
//! seeded runs are bit-identical:
//!
//! ```
//! use rpu_serve::{serve, AnalyticCostModel, ServeConfig, Workload};
//!
//! let wl = Workload::poisson(50.0, 256, 16, 40);
//! let cfg = ServeConfig {
//!     max_batch: 1,
//!     ..ServeConfig::default()
//! };
//! let a = serve(&wl, &mut AnalyticCostModel::small(), &cfg);
//! let b = serve(&wl, &mut AnalyticCostModel::small(), &cfg);
//! assert_eq!(a.records.len(), 40);
//! assert_eq!(a.peak_batch, 1);
//! // Bit-reproducible: identical tapes give identical schedules.
//! assert_eq!(a.makespan_s, b.makespan_s);
//! assert_eq!(
//!     a.records.iter().map(|r| r.finish_s).sum::<f64>(),
//!     b.records.iter().map(|r| r.finish_s).sum::<f64>(),
//! );
//! ```

use crate::arrivals::{RequestSource, Workload};
use crate::cost::CostModel;
use crate::fleet::{Advance, FleetRun};
use crate::lifecycle::LifecycleState;
use crate::policy::{ActiveRequest, Fifo, QueuedRequest, SchedulingPolicy};
use crate::request::{Request, RequestRecord};
use crate::router::{ReplicaTelemetry, RoundRobin};

/// Scheduler knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Maximum concurrent requests in the serving batch (admission gate;
    /// continuous batching refills slots as requests complete).
    pub max_batch: u32,
    /// Contexts are rounded up to multiples of this for decode-cost
    /// lookups, bounding the number of distinct simulator calls a
    /// memoising cost model must make.
    pub seq_bucket: u32,
    /// `true` runs prefill on the decode machine, stalling the decode
    /// batch (single-box serving); `false` models a disaggregated
    /// prefill tier that only delays the request's own first token.
    pub collocated_prefill: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            seq_bucket: 256,
            collocated_prefill: false,
        }
    }
}

impl ServeConfig {
    /// Rounds a context length up to the cost-lookup bucket. Machines
    /// should be provisioned for `bucket(prompt + output)` — the
    /// scheduler prices decode iterations at bucketed contexts, so the
    /// bucketed maximum is what the cost model actually simulates.
    /// Saturates at `u32::MAX` for a context within one bucket of it,
    /// so the result is never below `context`.
    #[must_use]
    pub fn bucket(&self, context: u32) -> u32 {
        let b = self.seq_bucket.max(1);
        context.div_ceil(b).saturating_mul(b)
    }
}

/// An admitted request and its progress through prefill and decode.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The request plus its cross-preemption progress (generated
    /// tokens, first admit/token timestamps, preemption count).
    q: QueuedRequest,
    /// When the (re-)prefill completes and decoding may start.
    ready_at: f64,
    /// Current context length (prompt + generated tokens).
    context: u32,
    /// The iteration of the pending run (0 = its first) this slot first
    /// decoded in; the run's length or more if it decoded in none.
    /// Meaningless while no run is pending.
    joined: u32,
}

/// Decode iterations a core ran ahead of the fleet clock: a checkpoint
/// of the clock and decode counters where the run began, and the price
/// of each stretch of iterations at one `(batch, bucket)`. A rewind
/// restores the checkpoint and replays the prices, and the slots'
/// join iterations say how many tokens each gives back; the audit
/// replays them all.
#[derive(Default)]
struct Run {
    clock: f64,
    decode_busy_s: f64,
    decode_iterations: u64,
    /// `(iterations, seconds per iteration)`, in run order. Empty when
    /// no run is pending.
    segments: Vec<(u32, f64)>,
}

/// The seconds one decode iteration of `batch` requests at bucketed
/// context `context` takes.
fn price(cost: &mut dyn CostModel, batch: u32, context: u32) -> f64 {
    let dt = cost.decode_step_s(batch, context);
    assert!(
        dt.is_finite() && dt > 0.0,
        "decode step must be finite and positive: cost model said {dt} s for batch {batch} at context {context}"
    );
    dt
}

/// Each iteration's price, in run order, from a run's segments.
fn iteration_prices(segments: &[(u32, f64)]) -> impl Iterator<Item = f64> + '_ {
    segments
        .iter()
        .flat_map(|&(n, dt)| std::iter::repeat_n(dt, n as usize))
}

/// The outcome of serving one workload.
///
/// `R` is the record store. A machine's own report owns its records
/// (`Vec<RequestRecord>`); a fleet's aggregate holds only the
/// completion order over its replicas' records (see
/// [`crate::FleetReport::records`]), so every record is stored once.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport<R = Vec<RequestRecord>> {
    /// Completion records, in completion order.
    pub records: R,
    /// Requests dropped because they exceed machine capacity even as
    /// the only resident request.
    pub rejected: u32,
    /// The dropped requests themselves (for per-class accounting).
    pub rejected_requests: Vec<Request>,
    /// Preemptions performed (0 under non-preemptive policies).
    pub preemptions: u32,
    /// Wall-clock time from the first arrival to the last completion.
    pub makespan_s: f64,
    /// Time the decode machine spent in decode iterations.
    pub decode_busy_s: f64,
    /// Total prefill time (on the decode machine when collocated, on
    /// the prefill tier otherwise), re-prefills after preemption
    /// included.
    pub prefill_busy_s: f64,
    /// Decode iterations executed.
    pub decode_iterations: u64,
    /// Largest concurrent batch observed.
    pub peak_batch: u32,
    /// Largest conservative KV reservation observed, tokens.
    pub peak_reserved_tokens: u64,
}

impl ServeReport {
    /// Output tokens emitted across all completed requests.
    #[must_use]
    pub fn output_tokens(&self) -> u64 {
        self.records.iter().map(|r| u64::from(r.output_len)).sum()
    }
}

impl<R> ServeReport<R> {
    /// The same counters over another record store: for example
    /// `fleet.aggregate.with_records(fleet.records().copied().collect())`
    /// materialises a fleet's aggregate as an owned report.
    #[must_use]
    pub fn with_records<S>(&self, records: S) -> ServeReport<S> {
        ServeReport {
            records,
            rejected: self.rejected,
            rejected_requests: self.rejected_requests.clone(),
            preemptions: self.preemptions,
            makespan_s: self.makespan_s,
            decode_busy_s: self.decode_busy_s,
            prefill_busy_s: self.prefill_busy_s,
            decode_iterations: self.decode_iterations,
            peak_batch: self.peak_batch,
            peak_reserved_tokens: self.peak_reserved_tokens,
        }
    }

    /// Decode-machine utilisation: fraction of the makespan spent in
    /// decode iterations (plus collocated prefills when applicable
    /// counted via [`ServeReport::decode_busy_s`] only).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.decode_busy_s / self.makespan_s
        } else {
            0.0
        }
    }
}

/// Serves a workload under the baseline FIFO policy — shorthand for
/// [`serve_with`] + [`Fifo`]. Matches the admission behaviour of the
/// revisions before policies became pluggable, with one deliberate
/// exception: a request too large to ever fit is rejected as soon as
/// it is selected, instead of head-of-line-blocking the queue until
/// the batch drains around it.
///
/// # Panics
///
/// Panics if `config.max_batch` is zero (no request could ever be
/// admitted).
#[must_use]
pub fn serve(workload: &Workload, cost: &mut dyn CostModel, config: &ServeConfig) -> ServeReport {
    serve_with(workload, cost, config, &mut Fifo)
}

/// Serves a workload against a cost model under continuous batching,
/// with admission/eviction ordered by `policy`.
///
/// The run is a one-replica [`crate::FleetRun`] under
/// [`crate::RoundRobin`], driven by the same event loop as every fleet,
/// and the result is its one replica's report. To step or audit a
/// single machine, build that fleet with
/// [`crate::FleetBuilder`].
///
/// Deterministic: the schedule depends only on the workload (seed
/// included), the cost model's returned latencies, the config and the
/// policy.
///
/// # Panics
///
/// Panics if `config.max_batch` is zero (no request could ever be
/// admitted), or if the policy returns an out-of-range index.
#[must_use]
pub fn serve_with(
    workload: &Workload,
    cost: &mut dyn CostModel,
    config: &ServeConfig,
    policy: &mut dyn SchedulingPolicy,
) -> ServeReport {
    let mut run = FleetRun::new(
        workload,
        [(*config, cost.kv_capacity_tokens())],
        vec![LifecycleState::Live],
        0.0,
    );
    let mut router = RoundRobin::new();
    while run.advance(f64::INFINITY, &mut router, |_, core, source| {
        core.step(cost, policy, source);
    }) == Advance::Stepped
    {}
    run.into_report().replicas.swap_remove(0)
}

/// Point-in-time counters of a run, for invariant checks mid-run (see
/// [`crate::FleetRun::audit`]): every issued request must be exactly
/// one of pending, queued, active, completed, rejected or displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Requests issued by the arrival source so far.
    pub issued: u32,
    /// Issued but not yet handed to any scheduler. A Poisson, on/off
    /// or diurnal run holds at most one (its source draws one request
    /// ahead); a trace holds the rest of its tape.
    pub pending_arrivals: usize,
    /// Waiting in scheduler queues (all replicas).
    pub queued: u32,
    /// Resident in serving batches (all replicas).
    pub active: u32,
    /// Completed (all replicas).
    pub completed: u32,
    /// Rejected as over-capacity (all replicas).
    pub rejected: u32,
    /// Displaced by a replica failure and waiting out the migration
    /// delay before re-routing (zero until a replica fails).
    pub displaced: u32,
}

impl RunStats {
    /// `true` when every issued request is accounted for exactly once.
    #[must_use]
    pub fn conserved(&self) -> bool {
        u64::from(self.issued)
            == self.pending_arrivals as u64
                + u64::from(self.queued)
                + u64::from(self.active)
                + u64::from(self.completed)
                + u64::from(self.rejected)
                + u64::from(self.displaced)
    }
}

/// One replica's scheduler state machine, stepped by the one
/// event loop ([`crate::FleetRun`]) behind both [`serve_with`] and the
/// fleet layer ([`crate::Fleet`]).
///
/// One `Core` is one replica: it owns the queue, the serving batch and
/// its own clock, but *not* the request stream — arrivals are pushed in
/// from outside via [`Core::enqueue`], which is what lets the driver
/// interleave N cores in global event order and route each arrival on
/// live telemetry. [`Core::step`] runs one scheduling event: one
/// admission phase, then a clock jump or a decode iteration, and after
/// a decode iteration, when the queue is empty, the iterations that
/// complete nothing, slots joining as their prefills end (see
/// `Core::run_ahead`). The
/// event loop [rewinds](Core::rewind) such a run when an event reaches the
/// core before its clock, so the schedule is the one a core stepping
/// one iteration per event makes, and a one-replica run replays the
/// pre-fleet scheduler bit-for-bit: the golden policy-sweep snapshots
/// and the pinned `serve_with` digest table pin that equivalence.
///
/// The batch is one plain array of at most `max_batch` slots in
/// admission order; readiness (`ready_at <= clock`) is answered by
/// scanning it, which the decode iteration does anyway.
pub(crate) struct Core {
    config: ServeConfig,
    /// The machine's KV capacity, tokens: admission's one gate and the
    /// number the core publishes in its telemetry. Read from the cost
    /// model when the run starts.
    kv_capacity_tokens: u64,
    queue: Vec<QueuedRequest>,
    /// The serving batch, in admission order — the order policy
    /// indices address.
    active: Vec<Slot>,
    // Incrementally maintained telemetry counters. All integer
    // arithmetic, so they equal recomputation by scan exactly
    // (debug-asserted in `telemetry`).
    active_reserved: u64,
    queued_reserved: u64,
    /// Reusable buffer for the policy's view of the batch during
    /// preemption decisions — no per-decision allocation.
    views: Vec<ActiveRequest>,
    run: Run,
    clock: f64,
    // Trace tapes may start long after t = 0; the makespan (and every
    // rate derived from it) is anchored at the first arrival.
    first_arrival_s: f64,
    last_finish_s: f64,
    /// Set when a step made no progress (a policy refusing to select
    /// from a non-empty queue — a contract violation). A stalled core
    /// reports no further events rather than spinning the driver.
    stalled: bool,
    report: ServeReport,
}

impl Core {
    /// A fresh, idle core at clock zero on a machine holding
    /// `kv_capacity_tokens` KV tokens. Allocates nothing until the
    /// first request arrives.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch` is zero.
    pub(crate) fn new(config: ServeConfig, kv_capacity_tokens: u64) -> Self {
        assert!(config.max_batch >= 1, "max_batch must admit at least one");
        Self {
            config,
            kv_capacity_tokens,
            queue: Vec::new(),
            active: Vec::new(),
            active_reserved: 0,
            queued_reserved: 0,
            views: Vec::new(),
            run: Run::default(),
            clock: 0.0,
            first_arrival_s: f64::INFINITY,
            last_finish_s: f64::NEG_INFINITY,
            stalled: false,
            report: ServeReport {
                records: Vec::new(),
                rejected: 0,
                rejected_requests: Vec::new(),
                preemptions: 0,
                makespan_s: 0.0,
                decode_busy_s: 0.0,
                prefill_busy_s: 0.0,
                decode_iterations: 0,
                peak_batch: 0,
                peak_reserved_tokens: 0,
            },
        }
    }

    /// Hands an arrived request to this core. The clock advances to the
    /// arrival time if the core was idle before it (mirroring the
    /// pre-fleet scheduler's jump-to-next-arrival).
    pub(crate) fn enqueue(&mut self, req: Request) {
        self.first_arrival_s = self.first_arrival_s.min(req.arrival_s);
        self.clock = self.clock.max(req.arrival_s);
        self.stalled = false;
        let q = QueuedRequest::fresh(req);
        self.queued_reserved += q.req.reserved_tokens();
        self.queue.push(q);
    }

    /// Hands a *displaced* request — one that lost its replica to a
    /// failure — back to this core at sim time `now`. Unlike a fresh
    /// arrival it keeps its cross-preemption progress: generated
    /// tokens, first admit/token stamps and preemption count survive,
    /// and the next admission re-prefills prompt + generated tokens
    /// exactly as a preemption resume would.
    pub(crate) fn enqueue_displaced(&mut self, q: QueuedRequest, now: f64) {
        self.first_arrival_s = self.first_arrival_s.min(q.req.arrival_s);
        self.clock = self.clock.max(now);
        self.stalled = false;
        self.queued_reserved += q.req.reserved_tokens();
        self.queue.push(q);
    }

    /// Crashes this core: every queued and resident request is stripped
    /// out and returned (queue order first, then batch admission
    /// order), the batch and telemetry counters are emptied, and the
    /// clock stays where it was. Resident requests count one more
    /// preemption — their KV is gone and the next admission pays a full
    /// re-prefill of prompt + generated tokens. Completion records and
    /// rejection counts survive: the failure loses in-flight *work*,
    /// not history.
    pub(crate) fn fail(&mut self) -> Vec<QueuedRequest> {
        let mut displaced: Vec<QueuedRequest> =
            Vec::with_capacity(self.queue.len() + self.active.len());
        for q in self.queue.drain(..) {
            self.queued_reserved -= q.req.reserved_tokens();
            displaced.push(q);
        }
        for s in self.active.drain(..) {
            self.active_reserved -= s.q.req.reserved_tokens();
            displaced.push(QueuedRequest {
                preemptions: s.q.preemptions + 1,
                ..s.q
            });
        }
        debug_assert_eq!(
            self.active_reserved + self.queued_reserved,
            0,
            "failed core still reserves KV"
        );
        self.stalled = false;
        displaced
    }

    /// Completion records so far, in completion order and therefore
    /// sorted by `finish_s` (the core clock never goes back) — the
    /// telemetry window the autoscaler derives its p99 TTFT signal
    /// from.
    pub(crate) fn records(&self) -> &[RequestRecord] {
        &self.report.records
    }

    /// When this core next wants to run: now (its clock) while it has
    /// queued or decodable work, the earliest prefill completion while
    /// everything admitted is still prefilling, infinity when idle.
    /// One scan of the batch (at most `max_batch` slots).
    pub(crate) fn next_event_s(&self) -> f64 {
        if self.stalled {
            return f64::INFINITY;
        }
        let next_ready = self
            .active
            .iter()
            .map(|s| s.ready_at)
            .fold(f64::INFINITY, f64::min);
        if !self.queue.is_empty() || next_ready <= self.clock {
            self.clock
        } else {
            next_ready
        }
    }

    /// What the core publishes to a fleet router: queue depth, KV
    /// occupancy and outstanding work — never the sampled lengths of
    /// individual requests or the machine's internals. O(1) from the
    /// incrementally maintained counters.
    pub(crate) fn telemetry(&self) -> ReplicaTelemetry {
        let t = ReplicaTelemetry {
            queue_depth: self.queue.len() as u32,
            active_requests: self.active.len() as u32,
            reserved_tokens: self.active_reserved,
            queued_tokens: self.queued_reserved,
            kv_capacity_tokens: self.kv_capacity_tokens,
        };
        debug_assert_eq!(
            t,
            self.telemetry_scan(),
            "incremental telemetry disagrees with scan"
        );
        t
    }

    /// The telemetry recomputed by scanning the queue and the batch —
    /// the debug cross-check for the incremental counters, and what
    /// `FleetRun::audit` rebuilds from (the queue can be long, so the
    /// hot path never scans it).
    pub(crate) fn telemetry_scan(&self) -> ReplicaTelemetry {
        ReplicaTelemetry {
            queue_depth: self.queue.len() as u32,
            active_requests: self.active.len() as u32,
            reserved_tokens: self.active.iter().map(|s| s.q.req.reserved_tokens()).sum(),
            queued_tokens: self.queue.iter().map(|q| q.req.reserved_tokens()).sum(),
            kv_capacity_tokens: self.kv_capacity_tokens,
        }
    }

    /// Runs one scheduling event: one admission phase, then either a
    /// clock jump to the next prefill completion or one decode
    /// iteration and the iterations [run ahead](Core::run_ahead) after
    /// it.
    /// An empty-queue core never jumps past the source's next arrival —
    /// read *after* the admission phase, because a rejection's
    /// closed-loop follow-up may arrive sooner than anything that
    /// existed when the step began — so admission happens *at* arrival
    /// times, exactly as in the pre-fleet loop (a queued core jumps
    /// unconditionally — its admissions wait on the machine, not on
    /// arrivals). The source is also notified once per request whose
    /// lifecycle ends here (completion or rejection), with the event
    /// time — closed-loop clients hang off that.
    pub(crate) fn step(
        &mut self,
        cost: &mut dyn CostModel,
        policy: &mut dyn SchedulingPolicy,
        source: &mut RequestSource,
    ) {
        // This step's wake comes after every outside event before the
        // clock, so a pending run is final.
        self.run.segments.clear();
        let mut progressed = false;
        // Admission: the policy picks, the scheduler gates. Evictions
        // per phase are capped so a pathological policy cannot spin the
        // admission loop without the clock advancing in between.
        let mut evictions_this_phase = 0u32;
        'admit: while !self.queue.is_empty() {
            let Some(pick) = policy.select(&self.queue, self.clock) else {
                break;
            };
            assert!(pick < self.queue.len(), "policy selected out of range");
            let cand = self.queue[pick];
            if cand.req.reserved_tokens() > self.kv_capacity_tokens {
                // Too large even alone: drop it or the queue wedges.
                self.queue.remove(pick);
                self.queued_reserved -= cand.req.reserved_tokens();
                self.report.rejected += 1;
                self.report.rejected_requests.push(cand.req);
                progressed = true;
                // A rejection terminates the request's lifecycle: the
                // closed-loop client behind it moves on to its next
                // request after its think time, exactly as if it had
                // completed (otherwise the source never exhausts).
                source.on_completion(self.clock);
                continue;
            }
            // Make room, preempting if the policy allows.
            loop {
                if self.active.len() < self.config.max_batch as usize
                    && self.active_reserved + cand.req.reserved_tokens() <= self.kv_capacity_tokens
                {
                    break;
                }
                if evictions_this_phase >= self.config.max_batch {
                    break 'admit;
                }
                // A policy that never preempts always answers "the
                // candidate waits" — skip assembling the batch view it
                // would ignore.
                if !policy.may_preempt() {
                    break 'admit;
                }
                self.views.clear();
                self.views.extend(self.active.iter().map(|s| ActiveRequest {
                    req: s.q.req,
                    generated: s.q.generated,
                    ready: s.ready_at <= self.clock,
                }));
                let Some(victim) = policy.preempt_victim(&self.views, &cand, self.clock) else {
                    break 'admit;
                };
                assert!(victim < self.active.len(), "policy evicted out of range");
                let evicted = self.active.remove(victim).q;
                self.active_reserved -= evicted.req.reserved_tokens();
                evictions_this_phase += 1;
                self.report.preemptions += 1;
                progressed = true;
                let back = QueuedRequest {
                    preemptions: evicted.preemptions + 1,
                    ..evicted
                };
                self.queued_reserved += back.req.reserved_tokens();
                self.queue.push(back);
            }
            // Preemption only appends to the queue, so `pick` still
            // names the same request.
            let mut q = self.queue.remove(pick);
            debug_assert_eq!(q.req.id, cand.req.id);
            self.queued_reserved -= q.req.reserved_tokens();
            progressed = true;
            // Resumed requests rebuild their KV with a fresh prefill of
            // everything they had (prompt + generated), vLLM
            // recompute-style.
            let context = q.req.prompt_len.saturating_add(q.generated);
            let prefill = cost.prefill_s(context);
            assert!(
                prefill.is_finite() && prefill >= 0.0,
                "prefill must be finite and non-negative: cost model said {prefill} s for context {context}"
            );
            self.report.prefill_busy_s += prefill;
            let ready_at = if self.config.collocated_prefill {
                self.clock += prefill;
                self.clock
            } else {
                self.clock + prefill
            };
            if q.first_admit_s.is_none() {
                q.first_admit_s = Some(self.clock);
            }
            self.active_reserved += q.req.reserved_tokens();
            self.active.push(Slot {
                q,
                ready_at,
                context,
                joined: 0,
            });
            self.report.peak_reserved_tokens =
                self.report.peak_reserved_tokens.max(self.active_reserved);
            self.report.peak_batch = self.report.peak_batch.max(self.active.len() as u32);
        }

        // One pass over the batch: the decodable count and widest
        // context, and the earliest pending prefill completion.
        let mut batch = 0u32;
        let mut max_context = 0u32;
        let mut next_ready = f64::INFINITY;
        for s in &self.active {
            if s.ready_at <= self.clock {
                batch += 1;
                max_context = max_context.max(s.context);
            } else {
                next_ready = next_ready.min(s.ready_at);
            }
        }

        if batch == 0 {
            // Nothing to decode: jump to the next prefill completion —
            // unless the queue is empty and an arrival comes first, in
            // which case the driver pushes it in and the clock advances
            // to the arrival instead (via `enqueue`).
            // The cap is read here, not at step entry: a rejection
            // above may have prompted a closed-loop client to issue a
            // request sooner than any arrival that existed before.
            let arrival_cap = source.next_arrival_s().unwrap_or(f64::INFINITY);
            if next_ready.is_finite() && (!self.queue.is_empty() || next_ready <= arrival_cap) {
                debug_assert!(next_ready > self.clock, "unready slot at or before clock");
                self.clock = self.clock.max(next_ready);
            } else if !progressed && next_ready.is_infinite() {
                debug_assert!(
                    self.queue.is_empty(),
                    "policy stranded a non-empty queue (select returned None)"
                );
                self.stalled = !self.queue.is_empty();
            }
            return;
        }

        // One decode iteration: one token for every ready request.
        let context = self.config.bucket(max_context);
        let dt = price(cost, batch, context);
        let iter_start = self.clock;
        self.decode(dt);

        let mut i = 0;
        while i < self.active.len() {
            let s = &mut self.active[i];
            if s.ready_at > iter_start {
                i += 1;
                continue;
            }
            s.q.generated += 1;
            // Saturate like admission does: a context at `u32::MAX`
            // stays there rather than wrapping to bucket 0.
            s.context = s.context.saturating_add(1);
            s.q.first_token_s.get_or_insert(self.clock);
            if s.q.generated >= s.q.req.output_len {
                let done = self.active.swap_remove(i).q;
                self.active_reserved -= done.req.reserved_tokens();
                debug_assert!(
                    self.report
                        .records
                        .last()
                        .is_none_or(|r| r.finish_s <= self.clock),
                    "records must stay sorted by finish time"
                );
                self.report.records.push(RequestRecord {
                    id: done.req.id,
                    arrival_s: done.req.arrival_s,
                    admit_s: done.first_admit_s.expect("admitted at least once"),
                    first_token_s: done.first_token_s.expect("at least one token"),
                    finish_s: self.clock,
                    prompt_len: done.req.prompt_len,
                    output_len: done.req.output_len,
                    tenant: done.req.tenant,
                    class: done.req.class,
                    preemptions: done.preemptions,
                });
                source.on_completion(self.clock);
            } else {
                i += 1;
            }
        }
        self.last_finish_s = self.last_finish_s.max(self.clock);
        self.run_ahead(cost, (batch, context, dt));
    }

    /// One decode iteration's clock and counters.
    fn decode(&mut self, dt: f64) {
        let iter_start = self.clock;
        self.clock += dt;
        // A step too small to register at this clock would complete
        // tokens at no elapsed time: every latency would read zero.
        assert!(
            self.clock > iter_start,
            "decode step did not move the clock: {dt} s at clock {iter_start} s"
        );
        self.report.decode_busy_s += dt;
        self.report.decode_iterations += 1;
    }

    /// Runs, inside this step, the decode iterations after it that
    /// complete nothing, stopping before the first one that would. Only
    /// a core with an empty queue runs ahead: nothing it does then until
    /// that completion shows outside it (its telemetry stays put, it
    /// notifies the source of nothing and asks the policy nothing), so
    /// those iterations need no events of their own, even while some
    /// slots are still prefilling. The run is a sequence of stretches,
    /// each priced once at one `(batch, bucket)`: every decoding slot
    /// gains one token per iteration, so the widest context grows by one
    /// and the price holds until a stretch ends at the first of
    ///
    /// - the bucket boundary;
    /// - the iteration before the next completion;
    /// - the iteration after which the clock reaches the next
    ///   `ready_at`: the next stretch begins at that clock, so the slot
    ///   decodes in it (`ready_at <=` iteration start, as in a step) and
    ///   takes its first token at that stretch's start + `dt`.
    ///
    /// A stretch that would carry a context past `u32::MAX`, where it
    /// saturates, is not taken. Each slot records the run iteration it
    /// joined at, for [`Core::rewind`], which the event loop calls when
    /// something touches the core before its clock. `priced` is the
    /// `(batch, bucket, seconds)` the step's own iteration paid; the
    /// run's first stretch reuses it when it matches.
    fn run_ahead(&mut self, cost: &mut dyn CostModel, mut priced: (u32, u32, f64)) {
        if !self.queue.is_empty() {
            return;
        }
        // A rewind lands `last_finish_s` on the clock it replays to, so
        // the checkpoint need not keep it.
        debug_assert_eq!(self.last_finish_s, self.clock);
        self.run.clock = self.clock;
        self.run.decode_busy_s = self.report.decode_busy_s;
        self.run.decode_iterations = self.report.decode_iterations;
        let mut total = 0u32;
        loop {
            // The stretch's batch: every slot ready by its first
            // iteration's start; a slot ready for the first time joins.
            let (mut batch, mut widest, mut left) = (0u32, 0u32, u32::MAX);
            let mut next_ready = f64::INFINITY;
            for s in &mut self.active {
                if s.ready_at > self.clock {
                    s.joined = u32::MAX;
                    next_ready = next_ready.min(s.ready_at);
                    continue;
                }
                s.joined = s.joined.min(total);
                batch += 1;
                widest = widest.max(s.context);
                // The iterations before the one that emits its last token.
                left = left.min(s.q.req.output_len.saturating_sub(s.q.generated + 1));
            }
            // Contexts up to the bucket's top share its price.
            let bucket = self.config.bucket(widest);
            let n = left.min(bucket - widest + 1);
            if batch == 0 || n == 0 || widest > u32::MAX - n {
                break;
            }
            if (priced.0, priced.1) != (batch, bucket) {
                priced = (batch, bucket, price(cost, batch, bucket));
            }
            let (start, dt) = (self.clock, priced.2);
            let mut ran = 0;
            while ran < n {
                self.decode(dt);
                ran += 1;
                if self.clock >= next_ready {
                    break;
                }
            }
            for s in self.active.iter_mut().filter(|s| s.joined <= total) {
                s.q.generated += ran;
                s.context += ran;
                s.q.first_token_s.get_or_insert(start + dt);
            }
            self.run.segments.push((ran, dt));
            total += ran;
        }
        self.last_finish_s = self.clock;
    }

    /// Takes back the pending run's iterations that had not begun by
    /// `until` — keeping one that begins exactly at `until` only when
    /// `inclusive` — so the core reads as if it had stepped one
    /// iteration per event up to there. The event loop calls it before it
    /// hands the core a request or fails it. Replays the stored prices
    /// from the checkpoint: no cost-model call. Each slot gives back the
    /// tokens of the iterations taken back from its join on, and a slot
    /// left with none has no first token either: one it had before the
    /// run (a resumed request's) came with tokens.
    pub(crate) fn rewind(&mut self, until: f64, inclusive: bool) {
        if self.run.segments.is_empty() {
            return;
        }
        let total = (self.report.decode_iterations - self.run.decode_iterations) as u32;
        self.clock = self.run.clock;
        self.report.decode_busy_s = self.run.decode_busy_s;
        self.report.decode_iterations = self.run.decode_iterations;
        let segments = std::mem::take(&mut self.run.segments);
        for dt in iteration_prices(&segments) {
            let begun = if inclusive {
                self.clock <= until
            } else {
                self.clock < until
            };
            if !begun {
                break;
            }
            self.decode(dt);
        }
        self.run.segments = segments;
        self.run.segments.clear();
        let kept = (self.report.decode_iterations - self.run.decode_iterations) as u32;
        for s in &mut self.active {
            let undone = total.saturating_sub(s.joined) - kept.saturating_sub(s.joined);
            s.q.generated -= undone;
            s.context -= undone;
            if s.q.generated == 0 {
                s.q.first_token_s = None;
            }
        }
        self.last_finish_s = self.clock;
    }

    /// Replays the pending run from its checkpoint and checks it lands
    /// exactly on the core's clock, decode-busy time and iteration
    /// count; that the core could run ahead from there (an empty queue
    /// and a slot decoding); and that each slot joined the run at the
    /// first iteration starting at or after its `ready_at`, with a first
    /// token by that iteration's end (at it, when the run gave it).
    /// `Err` names what differs.
    pub(crate) fn check_run(&self) -> Result<(), String> {
        let run = &self.run;
        if run.segments.is_empty() {
            return Ok(());
        }
        if !self.queue.is_empty() || !self.active.iter().any(|s| s.ready_at <= run.clock) {
            return Err(format!(
                "a run is pending but the core cannot run ahead ({} queued, {} resident)",
                self.queue.len(),
                self.active.len()
            ));
        }
        // Each iteration's start, then the run's end.
        let mut bounds = vec![run.clock];
        let (mut busy, mut iterations) = (run.decode_busy_s, run.decode_iterations);
        for dt in iteration_prices(&run.segments) {
            bounds.push(bounds[bounds.len() - 1] + dt);
            busy += dt;
            iterations += 1;
        }
        let (total, clock) = (bounds.len() - 1, bounds[bounds.len() - 1]);
        if clock.to_bits() != self.clock.to_bits() {
            return Err(format!(
                "run replays to clock {clock}, core is at {}",
                self.clock
            ));
        }
        if busy.to_bits() != self.report.decode_busy_s.to_bits() {
            return Err(format!(
                "run replays to decode-busy {busy} s, core reads {}",
                self.report.decode_busy_s
            ));
        }
        if iterations != self.report.decode_iterations {
            return Err(format!(
                "run replays to {iterations} iterations, core reads {}",
                self.report.decode_iterations
            ));
        }
        for (i, s) in self.active.iter().enumerate() {
            let join = bounds[..total].partition_point(|&t| t < s.ready_at);
            let first_token_ok = join == total
                || s.q.first_token_s.is_some_and(|t| {
                    t.to_bits() == bounds[join + 1].to_bits()
                        || (s.q.generated as usize > total - join && t <= run.clock)
                });
            if s.joined.min(total as u32) != join as u32 || !first_token_ok {
                return Err(format!(
                    "slot {i} joined the run at iteration {} with first token {:?}; \
                     its ready_at puts it at {join}",
                    s.joined, s.q.first_token_s
                ));
            }
        }
        Ok(())
    }

    pub(crate) fn max_batch(&self) -> u32 {
        self.config.max_batch
    }

    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn active_len(&self) -> usize {
        self.active.len()
    }

    pub(crate) fn completed(&self) -> u32 {
        self.report.records.len() as u32
    }

    pub(crate) fn rejected(&self) -> u32 {
        self.report.rejected
    }

    /// Finalises the run: computes the makespan and yields the report.
    pub(crate) fn into_report(mut self) -> ServeReport {
        debug_assert!(
            self.stalled || (self.queue.is_empty() && self.active.is_empty()),
            "report taken with work still in flight"
        );
        debug_assert!(self.run.segments.is_empty(), "report taken mid-run");
        if self.last_finish_s.is_finite() && self.first_arrival_s.is_finite() {
            self.report.makespan_s = (self.last_finish_s - self.first_arrival_s).max(0.0);
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use crate::class::ClassSpec;
    use crate::cost::AnalyticCostModel;
    use crate::fleet::{Fleet, FleetBuilder};
    use crate::policy::{DeadlineEdf, PriorityAging, ShortestJobFirst};
    use rpu_models::LengthDistribution;

    fn run(wl: &Workload, cfg: &ServeConfig) -> ServeReport {
        serve(wl, &mut AnalyticCostModel::small(), cfg)
    }

    /// One machine under FIFO: a one-replica fleet.
    fn machine(cfg: &ServeConfig) -> Fleet {
        FleetBuilder::new()
            .group(
                1,
                cfg,
                || Box::new(AnalyticCostModel::small()),
                || Box::new(Fifo),
            )
            .build()
    }

    #[test]
    fn recorded_run_equals_direct_serve_with() {
        let wl = Workload::poisson(800.0, 128, 16, 32);
        let cfg = ServeConfig::default();
        let direct = serve_with(&wl, &mut AnalyticCostModel::small(), &cfg, &mut Fifo);
        let mut fleet = machine(&cfg);
        let mut router = RoundRobin::new();
        let mut run = fleet.start(&wl);
        while run.step(&mut fleet, &mut router) {}
        assert_eq!(direct, run.into_report().replicas[0]);
    }

    #[test]
    fn completes_every_request_exactly() {
        let wl = Workload::poisson(200.0, 256, 32, 64);
        let r = run(&wl, &ServeConfig::default());
        assert_eq!(r.records.len(), 64);
        assert_eq!(r.rejected, 0);
        assert_eq!(r.output_tokens(), 64 * 32);
        // Every record's tokens were actually produced in iterations.
        assert!(r.decode_iterations >= 32);
    }

    #[test]
    fn deterministic_across_runs() {
        let wl = Workload::poisson(300.0, 512, 64, 48);
        let a = run(&wl, &ServeConfig::default());
        let b = run(&wl, &ServeConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn latency_ordering_invariants() {
        let wl = Workload::poisson(150.0, 256, 16, 40);
        let r = run(&wl, &ServeConfig::default());
        for rec in &r.records {
            assert!(rec.admit_s >= rec.arrival_s);
            assert!(rec.first_token_s > rec.admit_s);
            assert!(rec.finish_s >= rec.first_token_s);
            assert!(rec.ttft_s() > 0.0 && rec.tpot_s() >= 0.0);
        }
    }

    #[test]
    fn higher_load_degrades_ttft() {
        let mk = |rate| Workload::poisson(rate, 256, 32, 64);
        let lo = run(&mk(50.0), &ServeConfig::default());
        let hi = run(&mk(5000.0), &ServeConfig::default());
        let mean = |r: &ServeReport| {
            r.records.iter().map(RequestRecord::ttft_s).sum::<f64>() / r.records.len() as f64
        };
        assert!(
            mean(&hi) > mean(&lo),
            "saturated {} vs light {}",
            mean(&hi),
            mean(&lo)
        );
    }

    #[test]
    fn batch_capped_by_config() {
        let wl = Workload::poisson(10_000.0, 64, 64, 64);
        let cfg = ServeConfig {
            max_batch: 3,
            ..ServeConfig::default()
        };
        let r = run(&wl, &cfg);
        assert_eq!(r.peak_batch, 3);
    }

    #[test]
    fn kv_backpressure_limits_batch_below_slot_count() {
        // Capacity 4096 tokens, each request reserves 2048: only two fit
        // even though eight slots exist.
        let wl = Workload {
            prompt_lens: LengthDistribution::Fixed(2000),
            output_lens: LengthDistribution::Fixed(48),
            ..Workload::poisson(10_000.0, 1, 1, 32)
        };
        let r = run(&wl, &ServeConfig::default());
        assert_eq!(r.peak_batch, 2);
        assert!(r.peak_reserved_tokens <= 4096);
        assert_eq!(r.records.len(), 32);
    }

    #[test]
    fn oversized_requests_are_rejected_not_wedged() {
        let wl = Workload {
            prompt_lens: LengthDistribution::Fixed(8192), // > 4096 capacity
            ..Workload::poisson(100.0, 1, 8, 5)
        };
        let r = run(&wl, &ServeConfig::default());
        assert_eq!(r.rejected, 5);
        assert_eq!(r.rejected_requests.len(), 5);
        assert!(r.records.is_empty());
    }

    #[test]
    fn closed_loop_survives_rejections() {
        // Regression: a rejected request must still advance its
        // closed-loop client, or the source never exhausts and the
        // scheduler wedges on its termination check.
        let wl = Workload {
            arrivals: ArrivalProcess::ClosedLoop {
                clients: 2,
                think_s: 0.01,
            },
            prompt_lens: LengthDistribution::Fixed(8192), // > 4096 capacity
            ..Workload::poisson(1.0, 1, 8, 10)
        };
        let r = run(&wl, &ServeConfig::default());
        assert_eq!(r.rejected, 10);
        assert!(r.records.is_empty());
    }

    #[test]
    fn closed_loop_with_mixed_rejections_completes_the_rest() {
        // Every other request oversized: rejected ones advance the
        // client, fitting ones complete normally.
        let wl = Workload {
            arrivals: ArrivalProcess::ClosedLoop {
                clients: 1,
                think_s: 0.0,
            },
            prompt_lens: LengthDistribution::Empirical(vec![(64, 1.0), (8192, 1.0)]),
            output_lens: LengthDistribution::Fixed(4),
            ..Workload::poisson(1.0, 1, 1, 20)
        };
        let r = run(&wl, &ServeConfig::default());
        assert_eq!(r.records.len() as u32 + r.rejected, 20);
        assert!(r.rejected > 0, "harness must exercise the rejection path");
        assert!(!r.records.is_empty());
    }

    #[test]
    fn collocated_prefill_stalls_decode() {
        let wl = Workload::poisson(400.0, 2048, 64, 32);
        let dis = run(&wl, &ServeConfig::default());
        let col = run(
            &wl,
            &ServeConfig {
                collocated_prefill: true,
                ..ServeConfig::default()
            },
        );
        let mean_tpot = |r: &ServeReport| {
            r.records.iter().map(RequestRecord::tpot_s).sum::<f64>() / r.records.len() as f64
        };
        // Stalling the batch for every prefill lengthens other
        // requests' inter-token gaps.
        assert!(mean_tpot(&col) >= mean_tpot(&dis));
        assert!(col.makespan_s >= dis.makespan_s);
    }

    #[test]
    fn closed_loop_bounds_concurrency_by_clients() {
        let wl = Workload {
            arrivals: ArrivalProcess::ClosedLoop {
                clients: 3,
                think_s: 0.0,
            },
            ..Workload::poisson(1.0, 128, 16, 30)
        };
        let r = run(&wl, &ServeConfig::default());
        assert_eq!(r.records.len(), 30);
        assert!(r.peak_batch <= 3);
    }

    #[test]
    fn makespan_is_anchored_at_first_arrival() {
        // A trace that starts late must not dilute the rates with the
        // idle lead-in before its first request.
        let offset = Workload {
            arrivals: ArrivalProcess::Trace {
                arrivals_s: vec![1000.0, 1000.01],
            },
            ..Workload::poisson(1.0, 128, 16, 2)
        };
        let zero = Workload {
            arrivals: ArrivalProcess::Trace {
                arrivals_s: vec![0.0, 0.01],
            },
            ..Workload::poisson(1.0, 128, 16, 2)
        };
        let a = run(&offset, &ServeConfig::default());
        let b = run(&zero, &ServeConfig::default());
        assert!(a.makespan_s < 1.0, "lead-in leaked in: {}", a.makespan_s);
        assert!((a.makespan_s - b.makespan_s).abs() < 1e-9);
        assert!((a.utilization() - b.utilization()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_batch_config_is_rejected() {
        let wl = Workload::poisson(10.0, 64, 8, 1);
        let cfg = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        let _ = run(&wl, &cfg);
    }

    #[test]
    fn seq_bucket_rounds_up() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.bucket(1), 256);
        assert_eq!(cfg.bucket(256), 256);
        assert_eq!(cfg.bucket(257), 512);
    }

    #[test]
    fn seq_bucket_saturates_at_the_top_of_the_range() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.bucket(u32::MAX - 255), u32::MAX - 255);
        assert_eq!(cfg.bucket(u32::MAX - 254), u32::MAX);
        assert_eq!(cfg.bucket(u32::MAX), u32::MAX);
    }

    #[test]
    fn a_context_near_u32_max_is_priced_at_its_bucket() {
        // Every decode context lies within one bucket of `u32::MAX`,
        // where rounding up used to overflow: a debug build panicked
        // and a release build priced each step at context 0. The second
        // request's decoding carries its context past `u32::MAX`, where
        // the increment used to overflow the same way.
        for (prompt, output) in [(u32::MAX - 8, 4), (u32::MAX - 2, 8)] {
            let wl = Workload {
                arrivals: ArrivalProcess::Trace {
                    arrivals_s: vec![0.0],
                },
                prompt_lens: LengthDistribution::Fixed(prompt),
                output_lens: LengthDistribution::Fixed(output),
                ..Workload::poisson(1.0, 1, 1, 1)
            };
            let mut cost = AnalyticCostModel {
                kv_capacity_tokens: u64::MAX,
                ..AnalyticCostModel::small()
            };
            let r = serve(&wl, &mut cost, &ServeConfig::default());
            assert_eq!(r.records.len(), 1);
            let step = cost.decode_step_s(1, u32::MAX);
            let priced = (0..r.decode_iterations).fold(0.0, |busy, _| busy + step);
            assert_eq!(r.decode_busy_s, priced, "prompt {prompt}");
        }
    }

    /// A two-class workload with a long-job batch class, for the
    /// policy-facing tests below.
    fn two_class_workload(rate_rps: f64, n: u32) -> Workload {
        Workload::poisson(rate_rps, 1, 1, n).with_classes(vec![
            ClassSpec {
                share: 0.6,
                prompt_lens: Some(LengthDistribution::Fixed(128)),
                output_lens: Some(LengthDistribution::Fixed(16)),
                ..ClassSpec::interactive()
            },
            ClassSpec {
                share: 0.4,
                prompt_lens: Some(LengthDistribution::Fixed(1024)),
                output_lens: Some(LengthDistribution::Fixed(192)),
                ..ClassSpec::batch()
            },
        ])
    }

    #[test]
    fn every_policy_completes_the_same_request_set() {
        let wl = two_class_workload(2000.0, 48);
        let cfg = ServeConfig::default();
        let fifo = run(&wl, &cfg);
        let mut sjf = ShortestJobFirst::for_workload(&wl);
        let mut prio = PriorityAging::new(0.5);
        let mut edf = DeadlineEdf;
        let policies: [&mut dyn SchedulingPolicy; 3] = [&mut sjf, &mut prio, &mut edf];
        for p in policies {
            let r = serve_with(&wl, &mut AnalyticCostModel::small(), &cfg, p);
            assert_eq!(r.records.len(), fifo.records.len(), "{}", p.name());
            assert_eq!(r.output_tokens(), fifo.output_tokens(), "{}", p.name());
            assert!(r.peak_batch <= cfg.max_batch);
            assert!(r.peak_reserved_tokens <= 4096);
        }
    }

    #[test]
    fn priority_beats_fifo_on_interactive_ttft_under_saturation() {
        let wl = two_class_workload(3000.0, 64);
        let cfg = ServeConfig::default();
        let fifo = run(&wl, &cfg);
        let prio = serve_with(
            &wl,
            &mut AnalyticCostModel::small(),
            &cfg,
            &mut PriorityAging::new(30.0),
        );
        let mean_interactive_ttft = |r: &ServeReport| {
            let recs: Vec<f64> = r
                .records
                .iter()
                .filter(|rec| rec.class == 0)
                .map(RequestRecord::ttft_s)
                .collect();
            recs.iter().sum::<f64>() / recs.len() as f64
        };
        assert!(
            mean_interactive_ttft(&prio) < mean_interactive_ttft(&fifo),
            "priority {} vs fifo {}",
            mean_interactive_ttft(&prio),
            mean_interactive_ttft(&fifo)
        );
    }

    #[test]
    fn edf_preempts_under_pressure_and_still_finishes_everyone() {
        // One slot forces every urgent arrival to preempt the resident
        // batch job.
        let wl = two_class_workload(5000.0, 32);
        let cfg = ServeConfig {
            max_batch: 2,
            ..ServeConfig::default()
        };
        let r = serve_with(&wl, &mut AnalyticCostModel::small(), &cfg, &mut DeadlineEdf);
        assert_eq!(r.records.len(), 32);
        assert!(r.preemptions > 0, "expected preemptions under pressure");
        // Preempted requests resumed: records with preemptions > 0
        // still emitted their full output.
        let preempted: Vec<_> = r.records.iter().filter(|rec| rec.preemptions > 0).collect();
        assert!(!preempted.is_empty());
        for rec in preempted {
            assert!(rec.finish_s >= rec.first_token_s);
        }
    }

    #[test]
    fn fifo_reports_no_preemptions() {
        let wl = two_class_workload(3000.0, 32);
        let r = run(&wl, &ServeConfig::default());
        assert_eq!(r.preemptions, 0);
        assert!(r.records.iter().all(|rec| rec.preemptions == 0));
    }
}
