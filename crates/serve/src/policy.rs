//! Pluggable admission/eviction policies for the continuous-batching
//! scheduler.
//!
//! The scheduler ([`crate::serve_with`]) owns the mechanism — queues,
//! batch slots, KV reservations, the clock — and delegates *ordering*
//! to a [`SchedulingPolicy`]: which queued request to admit next, and
//! (for preemptive policies) which resident request to evict when the
//! machine is full. Policies therefore change who waits, never how much
//! total work is done; the differential test suite holds every policy
//! to that contract.
//!
//! | Policy | Orders admission by | Preempts | Starvation |
//! |---|---|---|---|
//! | [`Fifo`] | arrival time | no | none (strict FIFO) |
//! | [`ShortestJobFirst`] | predicted work | no | possible for long jobs |
//! | [`PriorityAging`] | class priority, aged | no | bounded by the horizon |
//! | [`DeadlineEdf`] | TTFT deadline | yes | bounded by deadlines |

use crate::arrivals::Workload;
use crate::request::Request;

/// A queued request as seen by a policy: the request itself plus any
/// progress it made before a preemption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedRequest {
    /// The request awaiting (re-)admission.
    pub req: Request,
    /// Output tokens already emitted before a preemption (0 on first
    /// admission). Progress is never lost: a resumed request decodes
    /// only its remaining tokens after its KV is recomputed.
    pub generated: u32,
    /// Times this request has been preempted so far.
    pub preemptions: u32,
    /// First admission time, if it was ever admitted.
    pub first_admit_s: Option<f64>,
    /// First-token completion time, if it got that far before a
    /// preemption.
    pub first_token_s: Option<f64>,
}

impl QueuedRequest {
    pub(crate) fn fresh(req: Request) -> Self {
        Self {
            req,
            generated: 0,
            preemptions: 0,
            first_admit_s: None,
            first_token_s: None,
        }
    }
}

/// A resident (admitted) request as seen by a policy when it considers
/// preemption victims.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveRequest {
    /// The resident request.
    pub req: Request,
    /// Output tokens emitted so far.
    pub generated: u32,
    /// `true` once its prefill has completed and it is decoding.
    pub ready: bool,
}

/// An admission/eviction ordering for the continuous-batching
/// scheduler.
///
/// The scheduler calls [`SchedulingPolicy::select`] repeatedly during
/// each admission phase; the selected request is admitted if the batch
/// and KV gates allow. When they do not, preemptive policies may name a
/// victim via [`SchedulingPolicy::preempt_victim`]; the victim returns
/// to the queue with its progress intact and resumes later (its KV is
/// recomputed on re-admission, Splitwise/vLLM recompute-style).
///
/// # Contract
///
/// - `select` must return `Some` index for a non-empty queue (returning
///   `None` postpones admission to the next scheduler event; a policy
///   that always returns `None` strands the queue).
/// - Decisions must be deterministic functions of the arguments — the
///   whole simulator is bit-reproducible and the differential suite
///   re-runs policies expecting identical schedules.
/// - Policies reorder work; they must not try to drop it. Rejection of
///   over-capacity requests is the scheduler's job, not the policy's.
///
/// # Worked example
///
/// A custom policy is one `impl`. Longest-prompt-first, admitting the
/// queued request with the most prompt tokens:
///
/// ```
/// use rpu_serve::{
///     serve_with, ActiveRequest, AnalyticCostModel, QueuedRequest, SchedulingPolicy,
///     ServeConfig, Workload,
/// };
///
/// struct LongestPromptFirst;
///
/// impl SchedulingPolicy for LongestPromptFirst {
///     fn name(&self) -> &'static str {
///         "longest-prompt-first"
///     }
///
///     fn select(&mut self, queue: &[QueuedRequest], _clock: f64) -> Option<usize> {
///         // Ties broken by id to stay deterministic.
///         (0..queue.len()).max_by_key(|&i| (queue[i].req.prompt_len, queue[i].req.id))
///     }
/// }
///
/// let wl = Workload::poisson(500.0, 256, 16, 24);
/// let cfg = ServeConfig::default();
/// let report = serve_with(
///     &wl,
///     &mut AnalyticCostModel::small(),
///     &cfg,
///     &mut LongestPromptFirst,
/// );
/// // Ordering changed; the work did not.
/// assert_eq!(report.records.len(), 24);
/// assert_eq!(report.output_tokens(), 24 * 16);
/// ```
pub trait SchedulingPolicy {
    /// Policy name for reports and tables.
    fn name(&self) -> &'static str;

    /// Picks the index of the queued request to admit next, or `None`
    /// to leave the queue idle until the next scheduler event.
    fn select(&mut self, queue: &[QueuedRequest], clock: f64) -> Option<usize>;

    /// Picks the index of a resident request to evict so `candidate`
    /// can be admitted, or `None` to make the candidate wait. The
    /// default is non-preemptive.
    fn preempt_victim(
        &mut self,
        active: &[ActiveRequest],
        candidate: &QueuedRequest,
        clock: f64,
    ) -> Option<usize> {
        let _ = (active, candidate, clock);
        None
    }

    /// Whether [`SchedulingPolicy::preempt_victim`] can ever name a
    /// victim. Purely a fast-path hint: when `false`, the scheduler
    /// skips building the batch view it would otherwise assemble on
    /// every admission attempt against a full batch — the outcome (the
    /// candidate waits) is identical either way. Policies overriding
    /// `preempt_victim` must leave this at `true`.
    fn may_preempt(&self) -> bool {
        true
    }
}

/// Selects the queue index minimising `key`, or `None` on an empty
/// queue. `f64` keys must not be NaN (the scheduler never produces
/// NaN timestamps or lengths).
fn argmin_by<K: PartialOrd>(
    queue: &[QueuedRequest],
    key: impl Fn(&QueuedRequest) -> K,
) -> Option<usize> {
    let mut best: Option<(usize, K)> = None;
    for (i, q) in queue.iter().enumerate() {
        let k = key(q);
        let better = match &best {
            None => true,
            Some((_, bk)) => k < *bk,
        };
        if better {
            best = Some((i, k));
        }
    }
    best.map(|(i, _)| i)
}

/// First-in-first-out admission: strict arrival order, no overtaking,
/// no preemption. The baseline every other policy is differentially
/// tested against.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl SchedulingPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn select(&mut self, queue: &[QueuedRequest], _clock: f64) -> Option<usize> {
        argmin_by(queue, |q| (q.req.arrival_s, q.req.id))
    }

    fn may_preempt(&self) -> bool {
        false
    }
}

/// Shortest-job-first on *predicted* length: prompt tokens are known at
/// admission, output tokens are predicted by the expected value of the
/// request's class output-length distribution (no oracle access to the
/// sampled length). Minimises mean waiting time; long jobs can starve
/// under sustained overload.
#[derive(Debug, Clone)]
pub struct ShortestJobFirst {
    /// Predicted output tokens per class index.
    predicted_output: Vec<f64>,
}

impl ShortestJobFirst {
    /// Builds the predictor from a workload's class structure (each
    /// class predicts the mean of its effective output distribution).
    #[must_use]
    pub fn for_workload(workload: &Workload) -> Self {
        let predicted_output = workload
            .classes
            .iter()
            .map(|c| {
                c.output_lens
                    .as_ref()
                    .unwrap_or(&workload.output_lens)
                    .mean()
            })
            .collect();
        Self { predicted_output }
    }

    /// Predicted remaining work for one queued request, tokens.
    fn predicted_work(&self, q: &QueuedRequest) -> f64 {
        let out = self
            .predicted_output
            .get(q.req.class as usize)
            .copied()
            .unwrap_or(0.0);
        f64::from(q.req.prompt_len) + (out - f64::from(q.generated)).max(0.0)
    }
}

impl SchedulingPolicy for ShortestJobFirst {
    fn name(&self) -> &'static str {
        "sjf"
    }

    fn select(&mut self, queue: &[QueuedRequest], _clock: f64) -> Option<usize> {
        argmin_by(queue, |q| (self.predicted_work(q), q.req.id))
    }

    fn may_preempt(&self) -> bool {
        false
    }
}

/// Priority-class admission with bounded-starvation aging.
///
/// Requests are admitted in (priority, arrival) order — priority 0
/// first — but any request that has waited longer than the aging
/// horizon is boosted to priority 0 and competes FIFO among the boosted
/// and native-priority-0 requests. Consequence (property-tested): once
/// a request has waited past the horizon, it can only be overtaken by
/// requests that arrived before it — its extra wait behind later
/// arrivals is bounded by the horizon.
#[derive(Debug, Clone, Copy)]
pub struct PriorityAging {
    /// Waiting time after which any request is boosted to the top
    /// priority, seconds.
    pub aging_horizon_s: f64,
}

impl PriorityAging {
    /// A policy with the given aging horizon (seconds).
    ///
    /// # Panics
    ///
    /// Panics if the horizon is not strictly positive (a zero horizon
    /// is plain FIFO; ask [`Fifo`] for that).
    #[must_use]
    pub fn new(aging_horizon_s: f64) -> Self {
        assert!(
            aging_horizon_s > 0.0,
            "aging horizon must be positive (zero aging is FIFO)"
        );
        Self { aging_horizon_s }
    }
}

impl SchedulingPolicy for PriorityAging {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn select(&mut self, queue: &[QueuedRequest], clock: f64) -> Option<usize> {
        argmin_by(queue, |q| {
            let waited = clock - q.req.arrival_s;
            let effective = if waited > self.aging_horizon_s {
                0
            } else {
                q.req.priority
            };
            (effective, q.req.arrival_s, q.req.id)
        })
    }

    fn may_preempt(&self) -> bool {
        false
    }
}

/// Preemptive earliest-deadline-first admission.
///
/// Requests are admitted by TTFT deadline (arrival plus the class TTFT
/// target). Under batch or KV back-pressure the policy evicts the
/// resident request with the *latest* deadline — but only if that
/// deadline is strictly later than the candidate's, so a preempted
/// request can never bounce its preemptor back out and every eviction
/// strictly improves the urgency of the resident set. Victims return to
/// the queue with their generated tokens intact and resume later
/// (recompute-style: their KV is rebuilt by a fresh prefill of prompt +
/// generated tokens).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadlineEdf;

impl SchedulingPolicy for DeadlineEdf {
    fn name(&self) -> &'static str {
        "edf"
    }

    fn select(&mut self, queue: &[QueuedRequest], _clock: f64) -> Option<usize> {
        argmin_by(queue, |q| (q.req.deadline_s, q.req.id))
    }

    fn preempt_victim(
        &mut self,
        active: &[ActiveRequest],
        candidate: &QueuedRequest,
        _clock: f64,
    ) -> Option<usize> {
        let mut victim: Option<usize> = None;
        for (i, a) in active.iter().enumerate() {
            if a.req.deadline_s <= candidate.req.deadline_s {
                continue; // never evict someone at least as urgent
            }
            let better = match victim {
                None => true,
                Some(v) => {
                    let cur = &active[v];
                    (a.req.deadline_s, a.req.id) > (cur.req.deadline_s, cur.req.id)
                }
            };
            if better {
                victim = Some(i);
            }
        }
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassSpec;
    use rpu_models::LengthDistribution;

    fn req(id: u32, arrival_s: f64) -> Request {
        Request {
            id,
            arrival_s,
            prompt_len: 100,
            output_len: 10,
            tenant: 0,
            session: 0,
            class: 0,
            priority: 0,
            deadline_s: arrival_s + 0.5,
        }
    }

    fn queued(req: Request) -> QueuedRequest {
        QueuedRequest::fresh(req)
    }

    #[test]
    fn fifo_selects_earliest_arrival() {
        let q = vec![
            queued(req(1, 2.0)),
            queued(req(0, 1.0)),
            queued(req(2, 3.0)),
        ];
        assert_eq!(Fifo.select(&q, 10.0), Some(1));
        assert_eq!(Fifo.select(&[], 10.0), None);
    }

    #[test]
    fn sjf_prefers_predicted_short_jobs_and_credits_progress() {
        let wl = Workload {
            output_lens: LengthDistribution::Fixed(50),
            ..Workload::poisson(1.0, 1, 1, 1)
        };
        let mut sjf = ShortestJobFirst::for_workload(&wl);
        let mut long = queued(req(0, 0.0));
        long.req.prompt_len = 400;
        let short = queued(req(1, 1.0));
        assert_eq!(sjf.select(&[long, short], 10.0), Some(1));
        // A preempted request near completion looks *shorter* than a
        // fresh short one: only its remaining tokens count.
        let mut resumed = long;
        resumed.generated = 49;
        resumed.req.prompt_len = 90;
        assert_eq!(sjf.select(&[resumed, short], 10.0), Some(0));
    }

    #[test]
    fn priority_orders_by_class_until_aging_boosts() {
        let mut pol = PriorityAging::new(1.0);
        let mut batch = queued(req(0, 0.0));
        batch.req.priority = 2;
        let interactive = queued(req(1, 0.5));
        // Fresh: interactive (priority 0) wins despite arriving later.
        assert_eq!(pol.select(&[batch, interactive], 0.6), Some(1));
        // Aged past the horizon: the batch request is boosted to
        // priority 0 and its earlier arrival wins the tie.
        assert_eq!(pol.select(&[batch, interactive], 1.5), Some(0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_horizon_is_rejected() {
        let _ = PriorityAging::new(0.0);
    }

    #[test]
    fn edf_selects_earliest_deadline_and_evicts_latest() {
        let mut pol = DeadlineEdf;
        let tight = queued(req(0, 1.0)); // deadline 1.5
        let mut loose = queued(req(1, 0.0));
        loose.req.deadline_s = 10.0;
        assert_eq!(pol.select(&[loose, tight], 1.0), Some(1));

        let active = vec![
            ActiveRequest {
                req: loose.req,
                generated: 3,
                ready: true,
            },
            ActiveRequest {
                req: req(2, 0.2),
                generated: 0,
                ready: false,
            },
        ];
        // Evicts the loose deadline, not the one tighter than the
        // candidate.
        assert_eq!(pol.preempt_victim(&active, &tight, 1.0), Some(0));
        // No victim strictly later than the candidate: wait instead.
        let mut urgent = tight;
        urgent.req.deadline_s = 100.0;
        assert_eq!(pol.preempt_victim(&active, &urgent, 1.0), None);
    }

    #[test]
    fn sjf_predicts_per_class_means() {
        let wl = Workload::poisson(1.0, 1, 1, 1).with_classes(vec![
            ClassSpec {
                output_lens: Some(LengthDistribution::Fixed(8)),
                ..ClassSpec::interactive()
            },
            ClassSpec {
                output_lens: Some(LengthDistribution::Fixed(800)),
                ..ClassSpec::batch()
            },
        ]);
        let sjf = ShortestJobFirst::for_workload(&wl);
        let mut a = queued(req(0, 0.0));
        a.req.class = 0;
        let mut b = queued(req(1, 0.0));
        b.req.class = 1;
        assert!(sjf.predicted_work(&a) < sjf.predicted_work(&b));
    }
}
