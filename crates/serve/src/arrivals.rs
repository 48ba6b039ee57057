//! Arrival processes and workload generation.
//!
//! A [`Workload`] pairs an [`ArrivalProcess`] with prompt/output
//! [`LengthDistribution`]s, a set of SLO [`ClassSpec`]s and a seed.
//! Random open-loop processes (Poisson, on/off, diurnal) are drawn
//! lazily, one request ahead of the simulation, so a source's memory
//! does not grow with run length; trace replay holds its explicit tape.
//! The closed loop issues a client's next request only after its
//! previous one finishes, so its arrivals are produced during
//! simulation via [`RequestSource::on_completion`].
//!
//! Each request is stamped with an SLO class (sampled from the class
//! shares when more than one class is configured), a tenant id
//! (round-robin within its class) and the priority/deadline derived
//! from its class spec — the fields scheduling policies order by.

use crate::class::{ClassSpec, SloTargets};
use crate::request::Request;
use crate::rng::ServeRng;
use rpu_models::LengthDistribution;
use std::collections::VecDeque;

/// When requests arrive.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Open loop: exponential inter-arrival times at the given offered
    /// load (requests per second), seeded from the workload seed.
    Poisson {
        /// Offered load, requests/second.
        rate_rps: f64,
    },
    /// Open loop: replay explicit arrival timestamps (seconds). The
    /// tape is sorted internally; `num_requests` caps how many are used.
    Trace {
        /// Recorded arrival times, seconds.
        arrivals_s: Vec<f64>,
    },
    /// Open loop: a two-state on/off burst process — an MMPP with rates
    /// `{rate_rps, 0}`. Arrivals are Poisson at `rate_rps` during ON
    /// periods and silent during OFF periods; the state sojourns are
    /// exponential with the given means, so the long-run mean offered
    /// load is `rate_rps * mean_on_s / (mean_on_s + mean_off_s)` — the
    /// homogeneous-Poisson equivalent a burst sweep is matched against.
    /// The tape starts at the beginning of an ON period.
    OnOff {
        /// Arrival rate while ON, requests/second.
        rate_rps: f64,
        /// Mean ON-period duration, seconds.
        mean_on_s: f64,
        /// Mean OFF-period duration, seconds.
        mean_off_s: f64,
    },
    /// Open loop: the on/off burst process modulated by a diurnal rate
    /// envelope plus periodic flash crowds — the autoscaler's natural
    /// habitat. Candidate arrivals are generated by the
    /// [`ArrivalProcess::OnOff`] machinery at the highest instantaneous
    /// rate (`rate_rps * flash_mult`), then thinned so the accepted
    /// rate at time `t` is `rate_rps * envelope(t) * flash(t)`, where
    /// `envelope(t) = trough + (1 - trough) * (1 - cos(2πt/period_s))/2`
    /// rises from `trough` at `t = 0` to `1` at half period, and
    /// `flash(t)` is `flash_mult` inside each flash window and `1`
    /// outside. Thinning a Poisson stream is exact, so every slice of
    /// an ON period is still Poisson at the modulated rate.
    DiurnalOnOff {
        /// Arrival rate while ON at the diurnal peak (no flash),
        /// requests/second.
        rate_rps: f64,
        /// Mean ON-period duration, seconds.
        mean_on_s: f64,
        /// Mean OFF-period duration, seconds.
        mean_off_s: f64,
        /// Diurnal period (one simulated "day"), seconds.
        period_s: f64,
        /// Envelope floor at the diurnal trough, in `(0, 1]`.
        trough: f64,
        /// Flash-crowd spacing: a flash window opens at every multiple
        /// of this, seconds.
        flash_every_s: f64,
        /// Flash-window width, seconds (`0` disables flash crowds).
        flash_width_s: f64,
        /// Rate multiplier inside a flash window, `>= 1`.
        flash_mult: f64,
    },
    /// Closed loop: `clients` concurrent users, each issuing its next
    /// request `think_s` after its previous one completes.
    ClosedLoop {
        /// Concurrent clients (initial requests all arrive at t = 0).
        clients: u32,
        /// Think time between a completion and the next request.
        think_s: f64,
    },
}

impl ArrivalProcess {
    /// The long-run mean offered load of an open-loop random process,
    /// requests/second: the Poisson rate itself, or the duty-cycle
    /// scaled ON rate of [`ArrivalProcess::OnOff`]. `None` for trace
    /// replay and closed loops, whose rate is data- or
    /// completion-driven, and for [`ArrivalProcess::DiurnalOnOff`],
    /// whose whole point is that no single rate describes it.
    #[must_use]
    pub fn mean_rate_rps(&self) -> Option<f64> {
        match self {
            Self::Poisson { rate_rps } => Some(*rate_rps),
            Self::OnOff {
                rate_rps,
                mean_on_s,
                mean_off_s,
            } => Some(rate_rps * mean_on_s / (mean_on_s + mean_off_s)),
            Self::Trace { .. } | Self::ClosedLoop { .. } | Self::DiurnalOnOff { .. } => None,
        }
    }
}

/// A complete serving workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Prompt-length distribution (per-class overrides win).
    pub prompt_lens: LengthDistribution,
    /// Output-length distribution (per-class overrides win).
    pub output_lens: LengthDistribution,
    /// Total requests to issue.
    pub num_requests: u32,
    /// Seed for every random draw (arrivals, classes and lengths).
    pub seed: u64,
    /// The SLO classes multiplexed over this workload. A single class
    /// consumes no random draws, so single-class tapes are identical to
    /// the classless ones of earlier revisions.
    pub classes: Vec<ClassSpec>,
}

impl Default for Workload {
    /// A placeholder for struct-update syntax (`..Workload::default()`):
    /// a single interactive class, trivial lengths and *zero* requests —
    /// override what you mean, it serves nothing on its own.
    fn default() -> Self {
        Self::poisson(1.0, 1, 1, 0)
    }
}

impl Workload {
    /// A Poisson workload with fixed prompt/output lengths and a single
    /// interactive class — the basic load-sweep configuration.
    #[must_use]
    pub fn poisson(rate_rps: f64, prompt_len: u32, output_len: u32, num_requests: u32) -> Self {
        Self {
            arrivals: ArrivalProcess::Poisson { rate_rps },
            prompt_lens: LengthDistribution::Fixed(prompt_len),
            output_lens: LengthDistribution::Fixed(output_len),
            num_requests,
            seed: 0xC0FFEE,
            classes: vec![ClassSpec::interactive()],
        }
    }

    /// Replaces the SLO classes (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty or no class has positive share.
    #[must_use]
    pub fn with_classes(mut self, classes: Vec<ClassSpec>) -> Self {
        assert!(!classes.is_empty(), "a workload needs at least one class");
        assert!(
            classes.iter().any(|c| c.share > 0.0),
            "at least one class needs positive share"
        );
        self.classes = classes;
        self
    }
}

/// The mean gap `1 / rate` of an open-loop process at `rate_rps` that
/// is to issue `num_requests`.
///
/// # Panics
///
/// Panics if the gap is not finite: a rate so small (`5e-324`, say)
/// that every arrival would land at infinity, and be lost. Panics too
/// if `num_requests` mean gaps are not finite: a rate (`f64::MIN_POSITIVE`,
/// say) whose later arrivals would overflow, so the run would fail
/// part-way through instead of here.
fn finite_gap(rate_rps: f64, num_requests: u32) -> f64 {
    let gap = 1.0 / rate_rps;
    assert!(
        gap.is_finite(),
        "arrival rate {rate_rps} req/s has no finite mean gap"
    );
    assert!(
        (f64::from(num_requests) * gap).is_finite(),
        "arrival rate {rate_rps} req/s has no finite horizon for {num_requests} requests"
    );
    gap
}

/// The generator state of a lazily drawn open-loop process: the time
/// of the last candidate arrival, the ON time left in the current burst
/// and the process parameters. The mean gap `1 / rate` is computed once;
/// the division is exact to the bit, so caching it changes no draw.
#[derive(Debug, Clone)]
enum Clock {
    /// [`ArrivalProcess::Poisson`].
    Poisson { t: f64, gap_mean: f64 },
    /// [`ArrivalProcess::OnOff`], and [`ArrivalProcess::DiurnalOnOff`]
    /// when `envelope` is set: candidates at the peak rate, thinned.
    OnOff {
        t: f64,
        on_left: f64,
        gap_mean: f64,
        mean_on_s: f64,
        mean_off_s: f64,
        envelope: Option<Envelope>,
    },
}

/// The diurnal and flash-crowd rate modulation of
/// [`ArrivalProcess::DiurnalOnOff`].
#[derive(Debug, Clone, Copy)]
struct Envelope {
    period_s: f64,
    trough: f64,
    flash_every_s: f64,
    flash_width_s: f64,
    flash_mult: f64,
}

impl Clock {
    /// Draws the next arrival time. The draws are gap, then any burned
    /// ON/OFF windows, then (diurnal only) the thinning coin, repeated
    /// until a candidate is accepted.
    fn next(&mut self, rng: &mut ServeRng) -> f64 {
        match self {
            Self::Poisson { t, gap_mean } => {
                *t += rng.next_exp(*gap_mean);
                *t
            }
            Self::OnOff {
                t,
                on_left,
                gap_mean,
                mean_on_s,
                mean_off_s,
                envelope,
            } => loop {
                let mut gap = rng.next_exp(*gap_mean);
                // Burn whole ON windows the gap jumps over; the
                // exponential is memoryless, so the residual gap stays
                // exponential and the thinned process is exactly
                // Poisson-on/silent-off.
                while gap > *on_left {
                    gap -= *on_left;
                    *t += *on_left + rng.next_exp(*mean_off_s);
                    *on_left = rng.next_exp(*mean_on_s);
                }
                *t += gap;
                *on_left -= gap;
                let Some(e) = envelope else {
                    return *t;
                };
                let level = e.trough
                    + (1.0 - e.trough)
                        * 0.5
                        * (1.0 - (std::f64::consts::TAU * *t / e.period_s).cos());
                let flash = if *t % e.flash_every_s < e.flash_width_s {
                    e.flash_mult
                } else {
                    1.0
                };
                if rng.next_f64() * e.flash_mult < level * flash {
                    return *t;
                }
            },
        }
    }
}

/// The stream of requests feeding the scheduler.
///
/// Poisson, on/off and diurnal sources draw lazily: the source holds a
/// one-request lookahead and draws the next request when the current
/// one is popped, so its memory does not grow with the run length.
/// Trace replay holds its (already explicit) tape; the closed loop
/// issues on completions. Either way, arrival times, classes and
/// lengths are drawn from one deterministic stream in issue order, so
/// a fixed seed fixes the tape.
#[derive(Debug, Clone)]
pub struct RequestSource {
    pending: VecDeque<Request>,
    rng: ServeRng,
    /// The open-loop generator still drawing, if any. `None` for trace
    /// replay (whose tape is issued up front) and closed loops (which
    /// issue on completions).
    clock: Option<Clock>,
    prompt_lens: LengthDistribution,
    output_lens: LengthDistribution,
    classes: Vec<ClassSpec>,
    /// Requests issued so far per class, for round-robin tenant ids.
    class_issued: Vec<u32>,
    issued: u32,
    budget: u32,
    think_s: Option<f64>,
}

impl RequestSource {
    /// Builds the source for a workload. A random open-loop source
    /// draws its first request here.
    ///
    /// # Panics
    ///
    /// Panics if the workload has no classes, none with positive share,
    /// an open-loop rate that is not positive or whose mean gap
    /// `1 / rate`, or `num_requests` of them, is not finite, a trace
    /// time or think time that is not finite and non-negative, or a
    /// clientless closed loop. A lazy
    /// draw panics later if the arrival time it produces is not finite.
    #[must_use]
    pub fn new(workload: &Workload) -> Self {
        let mut src = Self::bare(workload);
        match &workload.arrivals {
            ArrivalProcess::Poisson { rate_rps } => {
                assert!(*rate_rps > 0.0, "Poisson rate must be positive");
                src.clock = Some(Clock::Poisson {
                    t: 0.0,
                    gap_mean: finite_gap(*rate_rps, workload.num_requests),
                });
            }
            ArrivalProcess::OnOff {
                rate_rps,
                mean_on_s,
                mean_off_s,
            } => {
                assert!(*rate_rps > 0.0, "on/off burst rate must be positive");
                assert!(
                    *mean_on_s > 0.0 && *mean_off_s > 0.0,
                    "on/off sojourn means must be positive"
                );
                src.clock = Some(Clock::OnOff {
                    t: 0.0,
                    on_left: src.rng.next_exp(*mean_on_s),
                    gap_mean: finite_gap(*rate_rps, workload.num_requests),
                    mean_on_s: *mean_on_s,
                    mean_off_s: *mean_off_s,
                    envelope: None,
                });
            }
            ArrivalProcess::DiurnalOnOff {
                rate_rps,
                mean_on_s,
                mean_off_s,
                period_s,
                trough,
                flash_every_s,
                flash_width_s,
                flash_mult,
            } => {
                assert!(*rate_rps > 0.0, "diurnal peak rate must be positive");
                assert!(
                    *mean_on_s > 0.0 && *mean_off_s > 0.0,
                    "on/off sojourn means must be positive"
                );
                assert!(*period_s > 0.0, "diurnal period must be positive");
                assert!(
                    *trough > 0.0 && *trough <= 1.0,
                    "diurnal trough must be in (0, 1]"
                );
                assert!(*flash_mult >= 1.0, "flash multiplier must be >= 1");
                assert!(
                    *flash_every_s > 0.0 && (0.0..*flash_every_s).contains(flash_width_s),
                    "flash window must fit its spacing"
                );
                // Candidates at the highest instantaneous rate, thinned
                // down to the modulated one — exact for Poisson streams.
                src.clock = Some(Clock::OnOff {
                    t: 0.0,
                    on_left: src.rng.next_exp(*mean_on_s),
                    gap_mean: finite_gap(rate_rps * flash_mult, workload.num_requests),
                    mean_on_s: *mean_on_s,
                    mean_off_s: *mean_off_s,
                    envelope: Some(Envelope {
                        period_s: *period_s,
                        trough: *trough,
                        flash_every_s: *flash_every_s,
                        flash_width_s: *flash_width_s,
                        flash_mult: *flash_mult,
                    }),
                });
            }
            ArrivalProcess::Trace { arrivals_s } => {
                let mut tape: Vec<f64> = arrivals_s
                    .iter()
                    .copied()
                    .take(workload.num_requests as usize)
                    .collect();
                assert!(
                    tape.iter().all(|t| t.is_finite() && *t >= 0.0),
                    "trace arrival times must be finite and non-negative"
                );
                tape.sort_by(f64::total_cmp);
                for t in tape {
                    src.issue(t);
                }
                src.budget = src.issued;
            }
            ArrivalProcess::ClosedLoop { clients, think_s } => {
                assert!(*clients > 0, "closed loop needs at least one client");
                assert!(
                    think_s.is_finite() && *think_s >= 0.0,
                    "closed-loop think time must be finite and non-negative"
                );
                src.think_s = Some(*think_s);
                for _ in 0..(*clients).min(workload.num_requests) {
                    src.issue(0.0);
                }
            }
        }
        src.draw();
        src
    }

    /// A source for `workload` that has issued nothing and has no
    /// arrival process attached yet.
    fn bare(workload: &Workload) -> Self {
        assert!(
            !workload.classes.is_empty(),
            "a workload needs at least one class"
        );
        assert!(
            workload.classes.iter().any(|c| c.share > 0.0),
            "at least one class needs positive share"
        );
        assert!(
            workload.classes.len() <= usize::from(u8::MAX) + 1,
            "at most 256 SLO classes (class ids are u8)"
        );
        Self {
            pending: VecDeque::new(),
            rng: ServeRng::new(workload.seed),
            clock: None,
            prompt_lens: workload.prompt_lens.clone(),
            output_lens: workload.output_lens.clone(),
            classes: workload.classes.clone(),
            class_issued: vec![0; workload.classes.len()],
            issued: 0,
            budget: workload.num_requests,
            think_s: None,
        }
    }

    /// Issues the open-loop generator's next request, if it has one
    /// left. The clock is borrowed in place: this runs once per arrival.
    fn draw(&mut self) {
        if self.issued < self.budget {
            if let Some(clock) = &mut self.clock {
                let t = clock.next(&mut self.rng);
                assert!(
                    t.is_finite(),
                    "open-loop arrival time must be finite: request {} drew {t} s",
                    self.issued
                );
                self.issue(t);
            }
        }
    }

    /// Samples a class index by cumulative share. Single-class
    /// workloads take the fast path and consume no random draw, keeping
    /// their tapes identical to pre-multi-tenant revisions.
    fn sample_class(&mut self) -> usize {
        if self.classes.len() <= 1 {
            return 0;
        }
        let total: f64 = self.classes.iter().map(|c| c.share.max(0.0)).sum();
        let u = self.rng.next_f64() * total;
        let mut acc = 0.0;
        for (i, c) in self.classes.iter().enumerate() {
            acc += c.share.max(0.0);
            if u < acc {
                return i;
            }
        }
        self.classes.len() - 1
    }

    fn issue(&mut self, arrival_s: f64) {
        let class = self.sample_class();
        let spec = &self.classes[class];
        let prompt_dist = spec.prompt_lens.as_ref().unwrap_or(&self.prompt_lens);
        let output_dist = spec.output_lens.as_ref().unwrap_or(&self.output_lens);
        let prompt_len = prompt_dist.sample(self.rng.next_f64());
        let output_len = output_dist.sample(self.rng.next_f64());
        // Tenant ids are globally unique: each class owns a contiguous
        // id range and round-robins its own requests over it.
        let base: u32 = self.classes[..class].iter().map(|c| c.tenants.max(1)).sum();
        let tenant = base + self.class_issued[class] % self.classes[class].tenants.max(1);
        self.class_issued[class] += 1;
        let spec = &self.classes[class];
        let req = Request {
            id: self.issued,
            arrival_s,
            prompt_len,
            output_len,
            tenant,
            // One ongoing conversation per tenant: successive requests
            // from a tenant share the session key affinity routers hash.
            session: u64::from(tenant),
            class: u8::try_from(class).expect("class count checked at construction"),
            priority: spec.priority,
            deadline_s: arrival_s + spec.slo.ttft_s,
        };
        // Open-loop tapes are generated in time order (O(1) append);
        // closed-loop completions can land out of order when several
        // fleet replicas finish interleaved, so keep the pending queue
        // sorted by arrival (stable: equal times stay in issue order).
        let pos = if self.pending.back().is_none_or(|b| b.arrival_s <= arrival_s) {
            self.pending.len()
        } else {
            self.pending.partition_point(|r| r.arrival_s <= arrival_s)
        };
        self.pending.insert(pos, req);
        self.issued += 1;
    }

    /// The next arrival time not yet handed out, if any.
    #[must_use]
    pub fn next_arrival_s(&self) -> Option<f64> {
        self.pending.front().map(|r| r.arrival_s)
    }

    /// Pops the next request if it has arrived by `now`; a lazy
    /// open-loop source then draws the one after it.
    pub fn pop_ready(&mut self, now: f64) -> Option<Request> {
        if self.pending.front()?.arrival_s > now {
            return None;
        }
        let req = self.pending.pop_front();
        self.draw();
        req
    }

    /// Notifies the source that a request finished at `finish_s`; in
    /// closed-loop mode the owning client issues its next request after
    /// its think time.
    pub fn on_completion(&mut self, finish_s: f64) {
        if let Some(think) = self.think_s {
            if self.issued < self.budget {
                // Completions advance with the global clock, so pushes
                // stay time-ordered.
                self.issue(finish_s + think);
            }
        }
    }

    /// `true` once every request of the workload has been handed out.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.pending.is_empty() && self.issued >= self.budget
    }

    /// Requests issued so far: handed out plus [pending](Self::pending).
    #[must_use]
    pub fn issued(&self) -> u32 {
        self.issued
    }

    /// Requests generated but not yet handed to a scheduler: at most
    /// one for a Poisson, on/off or diurnal source, the rest of the
    /// tape for a trace, and the clients' next requests for a closed
    /// loop.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

/// The hostile-tape families of the adversarial battery. Each stresses
/// a different scheduler/router pathway; all are deterministic in the
/// seed, so a failing tape is a one-line reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzFamily {
    /// Whole bursts of requests arriving at the *same instant*,
    /// separated by silence — worst case for tie-breaking, telemetry
    /// staleness and admission-order determinism.
    FlashBurst,
    /// A mix dominated by zero-length prompts (nothing to prefill,
    /// instant readiness) interleaved with ordinary requests.
    ZeroPrompt,
    /// Prompts around and beyond the KV capacity: some fill the whole
    /// machine alone, some can never fit and must be rejected.
    MonsterContext,
    /// Class priorities and TTFT deadlines pulling in *opposite*
    /// directions, so priority- and deadline-ordered policies disagree
    /// maximally.
    DeadlineInversion,
    /// A closed loop of many short-session clients churning across
    /// tenants — completions constantly re-seed the arrival tape.
    SessionChurn,
    /// Steady session-heavy bursts meant to be served while the
    /// *replica set* churns underneath them: the adversarial battery
    /// pairs this tape with a [`crate::churn_tape`] lifecycle storm, so
    /// failure displacement, re-prefill and affinity re-steering — not
    /// the workload itself — are the stressor.
    ReplicaChurn,
}

impl FuzzFamily {
    /// Every family, for exhaustive sweeps.
    pub const ALL: [Self; 6] = [
        Self::FlashBurst,
        Self::ZeroPrompt,
        Self::MonsterContext,
        Self::DeadlineInversion,
        Self::SessionChurn,
        Self::ReplicaChurn,
    ];

    /// Family name for test labels and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::FlashBurst => "flash-burst",
            Self::ZeroPrompt => "zero-prompt",
            Self::MonsterContext => "monster-context",
            Self::DeadlineInversion => "deadline-inversion",
            Self::SessionChurn => "session-churn",
            Self::ReplicaChurn => "replica-churn",
        }
    }
}

/// Generates one hostile workload tape. Deterministic in
/// `(family, seed)`; tapes are sized for fast exhaustive sweeps
/// (~100 requests) while still hitting the family's pathology.
/// Capacity-relative sizes target [`crate::AnalyticCostModel::small`]'s
/// 4096-token KV.
#[must_use]
pub fn fuzz_tape(family: FuzzFamily, seed: u64) -> Workload {
    let salt = FuzzFamily::ALL
        .iter()
        .position(|&f| f == family)
        .expect("family is in ALL") as u64;
    let mut rng = ServeRng::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    match family {
        FuzzFamily::FlashBurst => {
            let bursts = 4 + (rng.next_u64() % 4) as usize;
            let per_burst = 12 + (rng.next_u64() % 12) as usize;
            let mut arrivals_s = Vec::with_capacity(bursts * per_burst);
            let mut t = 0.0;
            for _ in 0..bursts {
                t += 0.05 + 0.15 * rng.next_f64();
                // Every request in the burst lands at exactly t.
                arrivals_s.extend(std::iter::repeat_n(t, per_burst));
            }
            let n = arrivals_s.len() as u32;
            Workload {
                arrivals: ArrivalProcess::Trace { arrivals_s },
                prompt_lens: LengthDistribution::Uniform { lo: 16, hi: 256 },
                output_lens: LengthDistribution::Uniform { lo: 4, hi: 32 },
                num_requests: n,
                seed,
                classes: vec![ClassSpec::interactive()],
            }
        }
        FuzzFamily::ZeroPrompt => Workload {
            prompt_lens: LengthDistribution::Fixed(0),
            output_lens: LengthDistribution::Uniform { lo: 1, hi: 8 },
            seed,
            ..Workload::poisson(1500.0, 0, 1, 96)
        }
        .with_classes(vec![
            ClassSpec {
                share: 2.0,
                prompt_lens: Some(LengthDistribution::Fixed(0)),
                output_lens: Some(LengthDistribution::Uniform { lo: 1, hi: 8 }),
                tenants: 4,
                ..ClassSpec::interactive()
            },
            ClassSpec {
                share: 1.0,
                prompt_lens: Some(LengthDistribution::Uniform { lo: 32, hi: 128 }),
                output_lens: Some(LengthDistribution::Uniform { lo: 4, hi: 16 }),
                ..ClassSpec::batch()
            },
        ]),
        FuzzFamily::MonsterContext => Workload {
            prompt_lens: LengthDistribution::Empirical(vec![
                (64, 2.0),
                (1024, 1.0),
                (2000, 1.0),
                (4000, 1.0),
                (4090, 1.0),
                (6000, 1.0),
            ]),
            output_lens: LengthDistribution::Uniform { lo: 1, hi: 16 },
            seed,
            ..Workload::poisson(600.0, 1, 1, 96)
        },
        FuzzFamily::DeadlineInversion => Workload {
            seed,
            ..Workload::poisson(2500.0, 1, 1, 96)
        }
        .with_classes(vec![
            // Urgent priority, slack deadline…
            ClassSpec {
                share: 1.0,
                slo: SloTargets::batch(),
                prompt_lens: Some(LengthDistribution::Uniform { lo: 64, hi: 512 }),
                output_lens: Some(LengthDistribution::Uniform { lo: 8, hi: 48 }),
                tenants: 3,
                ..ClassSpec::interactive()
            },
            // …against lazy priority, tight deadline: priority- and
            // deadline-ordered policies now disagree on every pick.
            ClassSpec {
                share: 1.0,
                slo: SloTargets::interactive(),
                prompt_lens: Some(LengthDistribution::Uniform { lo: 64, hi: 512 }),
                output_lens: Some(LengthDistribution::Uniform { lo: 8, hi: 48 }),
                tenants: 3,
                ..ClassSpec::batch()
            },
        ]),
        FuzzFamily::SessionChurn => Workload {
            arrivals: ArrivalProcess::ClosedLoop {
                clients: 8 + (rng.next_u64() % 8) as u32,
                think_s: 0.002 * rng.next_f64(),
            },
            seed,
            ..Workload::poisson(1.0, 1, 1, 128)
        }
        .with_classes(vec![ClassSpec {
            tenants: 32,
            prompt_lens: Some(LengthDistribution::Uniform { lo: 16, hi: 192 }),
            output_lens: Some(LengthDistribution::Uniform { lo: 2, hi: 24 }),
            ..ClassSpec::interactive()
        }]),
        FuzzFamily::ReplicaChurn => Workload {
            arrivals: ArrivalProcess::OnOff {
                rate_rps: 900.0 + 600.0 * rng.next_f64(),
                mean_on_s: 0.02,
                mean_off_s: 0.01,
            },
            seed,
            ..Workload::poisson(1.0, 1, 1, 128)
        }
        .with_classes(vec![ClassSpec {
            tenants: 16,
            prompt_lens: Some(LengthDistribution::Uniform { lo: 32, hi: 256 }),
            output_lens: Some(LengthDistribution::Uniform { lo: 4, hi: 24 }),
            ..ClassSpec::interactive()
        }]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::SloTargets;
    use proptest::{prop_assert, prop_assert_eq};

    fn drain(src: &mut RequestSource) -> Vec<Request> {
        let mut v = Vec::new();
        while let Some(r) = src.pop_ready(f64::INFINITY) {
            v.push(r);
        }
        v
    }

    /// The eager generator the random open-loop processes used before
    /// they went lazy: the whole tape drawn in `new`, in the same RNG
    /// order, with nothing left to draw.
    fn eager(workload: &Workload) -> RequestSource {
        let mut src = RequestSource::bare(workload);
        match &workload.arrivals {
            ArrivalProcess::Poisson { rate_rps } => {
                let mut t = 0.0;
                for _ in 0..workload.num_requests {
                    t += src.rng.next_exp(1.0 / rate_rps);
                    src.issue(t);
                }
            }
            ArrivalProcess::OnOff {
                rate_rps,
                mean_on_s,
                mean_off_s,
            } => {
                let mut t = 0.0;
                let mut on_left = src.rng.next_exp(*mean_on_s);
                for _ in 0..workload.num_requests {
                    let mut gap = src.rng.next_exp(1.0 / rate_rps);
                    while gap > on_left {
                        gap -= on_left;
                        t += on_left + src.rng.next_exp(*mean_off_s);
                        on_left = src.rng.next_exp(*mean_on_s);
                    }
                    t += gap;
                    on_left -= gap;
                    src.issue(t);
                }
            }
            ArrivalProcess::DiurnalOnOff {
                rate_rps,
                mean_on_s,
                mean_off_s,
                period_s,
                trough,
                flash_every_s,
                flash_width_s,
                flash_mult,
            } => {
                let peak = rate_rps * flash_mult;
                let mut t = 0.0;
                let mut on_left = src.rng.next_exp(*mean_on_s);
                while src.issued < workload.num_requests {
                    let mut gap = src.rng.next_exp(1.0 / peak);
                    while gap > on_left {
                        gap -= on_left;
                        t += on_left + src.rng.next_exp(*mean_off_s);
                        on_left = src.rng.next_exp(*mean_on_s);
                    }
                    t += gap;
                    on_left -= gap;
                    let envelope = trough
                        + (1.0 - trough)
                            * 0.5
                            * (1.0 - (std::f64::consts::TAU * t / period_s).cos());
                    let flash = if t % flash_every_s < *flash_width_s {
                        *flash_mult
                    } else {
                        1.0
                    };
                    if src.rng.next_f64() * flash_mult < envelope * flash {
                        src.issue(t);
                    }
                }
            }
            other => unreachable!("no eager reference for {other:?}"),
        }
        src
    }

    /// The source's tape as it stands: how many requests it has handed
    /// out (issued minus pending), then every request a clone of it
    /// still hands out, drawn to the end, with arrival and deadline
    /// bits.
    fn tape(src: &RequestSource) -> (u32, Vec<(Request, u64, u64)>) {
        let handed_out = src.issued() - src.pending() as u32;
        let rest = drain(&mut src.clone())
            .into_iter()
            .map(|r| (r, r.arrival_s.to_bits(), r.deadline_s.to_bits()))
            .collect();
        (handed_out, rest)
    }

    fn same_request(a: &Request, b: &Request) -> bool {
        a == b
            && a.arrival_s.to_bits() == b.arrival_s.to_bits()
            && a.deadline_s.to_bits() == b.deadline_s.to_bits()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// A lazily drawn Poisson, on/off or diurnal source hands out
        /// exactly the eager tape (arrival times compared by bits),
        /// never holds more than one request ahead, and leaves the eager
        /// source's tape, by bits, at the start and after `k` pops.
        #[test]
        fn lazy_tape_is_the_eager_tape(
            seed in 0u64..1 << 48,
            kind in 0u8..3,
            rate_rps in 5.0f64..5000.0,
            on_off in (0.0005f64..0.5, 0.0005f64..0.5),
            diurnal in (0.05f64..5.0, 0.05f64..1.0, 0.01f64..1.0, 0.0f64..0.95, 1.0f64..6.0),
            mix in (0u32..300, 1usize..=2, 0.0f64..1.0),
        ) {
            let (mean_on_s, mean_off_s) = on_off;
            let (period_s, trough, flash_every_s, width_frac, flash_mult) = diurnal;
            let (num_requests, n_classes, pop_frac) = mix;
            let arrivals = match kind {
                0 => ArrivalProcess::Poisson { rate_rps },
                1 => ArrivalProcess::OnOff { rate_rps, mean_on_s, mean_off_s },
                _ => ArrivalProcess::DiurnalOnOff {
                    rate_rps,
                    mean_on_s,
                    mean_off_s,
                    period_s,
                    trough,
                    flash_every_s,
                    flash_width_s: width_frac * flash_every_s,
                    flash_mult,
                },
            };
            let classes = [
                ClassSpec {
                    share: 2.0,
                    tenants: 3,
                    ..ClassSpec::interactive()
                },
                ClassSpec {
                    prompt_lens: Some(LengthDistribution::Uniform { lo: 1, hi: 900 }),
                    ..ClassSpec::batch()
                },
            ];
            let w = Workload {
                arrivals,
                prompt_lens: LengthDistribution::Uniform { lo: 16, hi: 512 },
                output_lens: LengthDistribution::Uniform { lo: 1, hi: 64 },
                num_requests,
                seed,
                classes: classes[..n_classes].to_vec(),
            };
            let mut lazy = RequestSource::new(&w);
            let mut reference = eager(&w);
            prop_assert!(tape(&lazy) == tape(&reference), "fresh tapes differ");
            let k = (f64::from(num_requests) * pop_frac) as u32;
            for i in 0..=num_requests {
                prop_assert!(lazy.pending() <= 1, "{} requests pending", lazy.pending());
                if i == k {
                    prop_assert!(tape(&lazy) == tape(&reference), "tapes differ after {k} pops");
                }
                match (lazy.pop_ready(f64::INFINITY), reference.pop_ready(f64::INFINITY)) {
                    (Some(a), Some(b)) => prop_assert!(same_request(&a, &b), "{a:?} != {b:?}"),
                    (None, None) => prop_assert_eq!(i, num_requests),
                    (a, b) => prop_assert!(false, "tape lengths differ: {a:?} vs {b:?}"),
                }
            }
            prop_assert!(lazy.exhausted() && reference.exhausted());
            prop_assert_eq!(lazy.issued(), num_requests);
        }
    }

    #[test]
    fn poisson_tape_is_reproducible_and_sorted() {
        let w = Workload::poisson(100.0, 512, 64, 50);
        let a = drain(&mut RequestSource::new(&w));
        let b = drain(&mut RequestSource::new(&w));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert_eq!(a.len(), 50);
        // Mean inter-arrival ~ 1/rate.
        let span = a.last().unwrap().arrival_s;
        assert!((span / 50.0 - 0.01).abs() < 0.005, "span {span}");
    }

    #[test]
    fn different_seeds_give_different_tapes() {
        let w = Workload::poisson(100.0, 512, 64, 10);
        let w2 = Workload {
            seed: 7,
            ..w.clone()
        };
        assert_ne!(
            drain(&mut RequestSource::new(&w))[0].arrival_s,
            drain(&mut RequestSource::new(&w2))[0].arrival_s
        );
    }

    #[test]
    fn onoff_tape_is_reproducible_sorted_and_near_its_mean_rate() {
        let arrivals = ArrivalProcess::OnOff {
            rate_rps: 400.0,
            mean_on_s: 0.02,
            mean_off_s: 0.02,
        };
        assert!((arrivals.mean_rate_rps().unwrap() - 200.0).abs() < 1e-12);
        let w = Workload {
            arrivals,
            num_requests: 4000,
            ..Workload::poisson(1.0, 128, 16, 4000)
        };
        let a = drain(&mut RequestSource::new(&w));
        let b = drain(&mut RequestSource::new(&w));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        // ~200 req/s long-run mean over ~100 on/off cycles.
        let measured = a.len() as f64 / a.last().unwrap().arrival_s;
        assert!(
            (measured / 200.0 - 1.0).abs() < 0.2,
            "measured mean rate {measured}"
        );
    }

    #[test]
    fn onoff_is_burstier_than_the_matched_poisson() {
        // Same mean load, but the inter-arrival coefficient of
        // variation must exceed the Poisson's CV of 1: that burstiness
        // is the whole point of the process.
        let onoff = Workload {
            arrivals: ArrivalProcess::OnOff {
                rate_rps: 800.0,
                mean_on_s: 0.01,
                mean_off_s: 0.03,
            },
            num_requests: 4000,
            ..Workload::poisson(1.0, 128, 16, 4000)
        };
        let cv = |tape: &[Request]| {
            let gaps: Vec<f64> = tape
                .windows(2)
                .map(|w| w[1].arrival_s - w[0].arrival_s)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        let bursty_cv = cv(&drain(&mut RequestSource::new(&onoff)));
        let poisson = Workload {
            arrivals: ArrivalProcess::Poisson { rate_rps: 200.0 },
            num_requests: 4000,
            ..Workload::poisson(1.0, 128, 16, 4000)
        };
        let poisson_cv = cv(&drain(&mut RequestSource::new(&poisson)));
        assert!(
            bursty_cv > 1.5 && bursty_cv > poisson_cv,
            "bursty CV {bursty_cv} vs Poisson CV {poisson_cv}"
        );
    }

    #[test]
    fn diurnal_tape_is_reproducible_and_follows_the_envelope() {
        let w = Workload {
            arrivals: ArrivalProcess::DiurnalOnOff {
                rate_rps: 2000.0,
                mean_on_s: 1.0,
                mean_off_s: 0.001,
                period_s: 1.0,
                trough: 0.1,
                flash_every_s: 1.0,
                flash_width_s: 0.0,
                flash_mult: 1.0,
            },
            num_requests: 3000,
            ..Workload::poisson(1.0, 128, 16, 3000)
        };
        let a = drain(&mut RequestSource::new(&w));
        let b = drain(&mut RequestSource::new(&w));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert_eq!(a.len(), 3000);
        // Peak phase (around half period) must carry far more traffic
        // than the trough phase (around integer periods).
        let phase_count = |lo: f64, hi: f64| {
            a.iter()
                .filter(|r| {
                    let p = r.arrival_s % 1.0;
                    p >= lo && p < hi
                })
                .count() as f64
        };
        let peak = phase_count(0.4, 0.6);
        let trough = phase_count(0.9, 1.0) + phase_count(0.0, 0.1);
        assert!(
            peak > 3.0 * trough,
            "peak {peak} vs trough {trough}: envelope not expressed"
        );
    }

    #[test]
    fn flash_windows_spike_the_diurnal_rate() {
        let w = Workload {
            arrivals: ArrivalProcess::DiurnalOnOff {
                rate_rps: 1000.0,
                mean_on_s: 1.0,
                mean_off_s: 0.001,
                // Flat envelope isolates the flash effect.
                period_s: 1000.0,
                trough: 1.0,
                flash_every_s: 0.5,
                flash_width_s: 0.1,
                flash_mult: 4.0,
            },
            num_requests: 3000,
            ..Workload::poisson(1.0, 128, 16, 3000)
        };
        let a = drain(&mut RequestSource::new(&w));
        let in_flash = a.iter().filter(|r| r.arrival_s % 0.5 < 0.1).count() as f64;
        let outside = a.len() as f64 - in_flash;
        // Flash windows are 20% of time at 4x rate: expected share
        // 0.2*4 / (0.2*4 + 0.8) = 50%, against 20% with no flash.
        let share = in_flash / (in_flash + outside);
        assert!((0.4..0.6).contains(&share), "flash share {share}");
    }

    #[test]
    fn replica_churn_family_is_deterministic() {
        let w = fuzz_tape(FuzzFamily::ReplicaChurn, 3);
        assert_eq!(w, fuzz_tape(FuzzFamily::ReplicaChurn, 3));
        assert_ne!(w, fuzz_tape(FuzzFamily::ReplicaChurn, 4));
        assert_eq!(FuzzFamily::ALL.len(), 6);
        assert_eq!(FuzzFamily::ReplicaChurn.name(), "replica-churn");
    }

    #[test]
    fn mean_rate_is_only_defined_for_random_open_loops() {
        assert_eq!(
            ArrivalProcess::Poisson { rate_rps: 50.0 }.mean_rate_rps(),
            Some(50.0)
        );
        assert_eq!(
            ArrivalProcess::Trace { arrivals_s: vec![] }.mean_rate_rps(),
            None
        );
        assert_eq!(
            ArrivalProcess::ClosedLoop {
                clients: 1,
                think_s: 0.0
            }
            .mean_rate_rps(),
            None
        );
    }

    #[test]
    fn trace_replay_sorts_and_caps() {
        let w = Workload {
            arrivals: ArrivalProcess::Trace {
                arrivals_s: vec![3.0, 1.0, 2.0, 4.0],
            },
            num_requests: 3,
            ..Workload::poisson(1.0, 128, 16, 3)
        };
        let tape = drain(&mut RequestSource::new(&w));
        let times: Vec<f64> = tape.iter().map(|r| r.arrival_s).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn closed_loop_issues_on_completion() {
        let w = Workload {
            arrivals: ArrivalProcess::ClosedLoop {
                clients: 2,
                think_s: 0.5,
            },
            ..Workload::poisson(1.0, 128, 16, 4)
        };
        let mut src = RequestSource::new(&w);
        assert_eq!(src.issued(), 2);
        assert!(!src.exhausted());
        src.pop_ready(0.0).unwrap();
        src.pop_ready(0.0).unwrap();
        src.on_completion(1.0);
        let r = src.pop_ready(10.0).unwrap();
        assert!((r.arrival_s - 1.5).abs() < 1e-12);
        src.on_completion(2.0);
        assert_eq!(src.issued(), 4);
        src.on_completion(3.0); // budget reached: no further issue
        assert_eq!(src.issued(), 4);
    }

    #[test]
    fn lengths_follow_the_distributions() {
        let w = Workload {
            prompt_lens: LengthDistribution::Uniform { lo: 10, hi: 20 },
            output_lens: LengthDistribution::Fixed(5),
            ..Workload::poisson(10.0, 1, 1, 100)
        };
        for r in drain(&mut RequestSource::new(&w)) {
            assert!((10..=20).contains(&r.prompt_len));
            assert_eq!(r.output_len, 5);
        }
    }

    #[test]
    fn single_class_stamps_defaults() {
        let w = Workload::poisson(100.0, 128, 16, 20);
        for r in drain(&mut RequestSource::new(&w)) {
            assert_eq!(r.class, 0);
            assert_eq!(r.tenant, 0);
            assert_eq!(r.priority, 0);
            assert!((r.deadline_s - r.arrival_s - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn class_mix_follows_shares_and_overrides_lengths() {
        let classes = vec![
            ClassSpec {
                share: 3.0,
                output_lens: Some(LengthDistribution::Fixed(7)),
                tenants: 2,
                ..ClassSpec::interactive()
            },
            ClassSpec {
                share: 1.0,
                prompt_lens: Some(LengthDistribution::Fixed(999)),
                ..ClassSpec::batch()
            },
        ];
        let w = Workload::poisson(100.0, 128, 16, 400).with_classes(classes);
        let tape = drain(&mut RequestSource::new(&w));
        let interactive: Vec<&Request> = tape.iter().filter(|r| r.class == 0).collect();
        let batch: Vec<&Request> = tape.iter().filter(|r| r.class == 1).collect();
        // 3:1 share split, within sampling noise.
        let frac = interactive.len() as f64 / tape.len() as f64;
        assert!((0.65..0.85).contains(&frac), "interactive share {frac}");
        for r in &interactive {
            assert_eq!(r.output_len, 7); // class override
            assert_eq!(r.prompt_len, 128); // workload default
            assert!(r.tenant < 2);
            assert_eq!(r.priority, 0);
        }
        for r in &batch {
            assert_eq!(r.prompt_len, 999); // class override
            assert_eq!(r.output_len, 16); // workload default
            assert_eq!(r.tenant, 2); // offset past class 0's tenants
            assert_eq!(r.priority, 2);
            assert!((r.deadline_s - r.arrival_s - 10.0).abs() < 1e-12);
        }
    }

    #[test]
    fn tenants_round_robin_within_class() {
        let classes = vec![ClassSpec {
            tenants: 3,
            ..ClassSpec::interactive()
        }];
        let w = Workload::poisson(100.0, 64, 8, 9).with_classes(classes);
        let tenants: Vec<u32> = drain(&mut RequestSource::new(&w))
            .iter()
            .map(|r| r.tenant)
            .collect();
        assert_eq!(tenants, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn single_class_tape_matches_classless_draw_order() {
        // The class draw is skipped for single-class workloads, so the
        // prompt/output streams are exactly the pre-multi-tenant ones.
        let w = Workload {
            prompt_lens: LengthDistribution::Uniform { lo: 1, hi: 1000 },
            ..Workload::poisson(100.0, 1, 1, 10)
        };
        let with_explicit_class = Workload {
            classes: vec![ClassSpec {
                slo: SloTargets::interactive(),
                ..ClassSpec::interactive()
            }],
            ..w.clone()
        };
        assert_eq!(
            drain(&mut RequestSource::new(&w)),
            drain(&mut RequestSource::new(&with_explicit_class))
        );
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn classless_workload_is_rejected() {
        let w = Workload {
            classes: vec![],
            ..Workload::poisson(1.0, 1, 1, 1)
        };
        let _ = RequestSource::new(&w);
    }
}
