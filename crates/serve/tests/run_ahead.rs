//! Rewind edge cases of a core that runs decode iterations ahead.
//!
//! A core whose queue is empty runs the iterations that complete
//! nothing inside one step, slots still prefilling joining the batch as
//! their prefills end, and the event loop rewinds it when an arrival, a
//! re-route or a failure touches it before its clock. Every case below
//! is pinned to the digest the same scenario produced when each decode
//! iteration was its own event (the mid-run-join cases: when a core
//! with a slot still prefilling stepped one iteration per event), so a
//! rewind that keeps one iteration or token too many or too few shows
//! as a changed digest.
//!
//! Each edge case is one or two requests of [`PROMPT`] prompt and
//! [`OUTPUT`] output tokens on [`AnalyticCostModel::small`] machines:
//! decoding crosses the 256-token context bucket at iteration 57, so a
//! run is priced in two segments. [`start`] computes when each
//! iteration of a lone request begins, the way the core accumulates its
//! clock, so an event can land exactly on one. A seeded battery then
//! pauses multi-replica runs at random bounds and fails or joins
//! replicas there, pinned the same way. The mid-run-join cases run on
//! [`slow_prefill`] machines, whose prefills span several iterations.

use rpu_models::LengthDistribution;
use rpu_serve::{
    digest_fleet_report, ActiveRequest, AnalyticCostModel, ArrivalProcess, CostModel, DeadlineEdf,
    Fifo, Fleet, FleetBuilder, FleetEvent, FleetEventKind, FleetReport, FleetRun,
    JoinShortestQueue, LifecycleState, QueuedRequest, RoundRobin, Router, SchedulingPolicy,
    ServeConfig, ServeRng, Workload,
};

const PROMPT: u32 = 200;
const OUTPUT: u32 = 120;

/// When decode iteration `k` (1-based) of a lone request that arrived
/// at zero on an idle machine begins: its prefill, then `k - 1`
/// iterations, each priced at the widest context's bucket.
fn start(k: u32) -> f64 {
    let mut cost = AnalyticCostModel::small();
    let bucket = |c| ServeConfig::default().bucket(c);
    let mut t = cost.prefill_s(PROMPT);
    for j in 1..k {
        t += cost.decode_step_s(1, bucket(PROMPT + j - 1));
    }
    t
}

fn workload(arrivals_s: Vec<f64>) -> Workload {
    Workload {
        num_requests: arrivals_s.len() as u32,
        arrivals: ArrivalProcess::Trace { arrivals_s },
        prompt_lens: LengthDistribution::Fixed(PROMPT),
        output_lens: LengthDistribution::Fixed(OUTPUT),
        ..Workload::poisson(1.0, 1, 1, 1)
    }
}

fn fleet(replicas: usize, migration_delay_s: f64) -> Fleet {
    FleetBuilder::new()
        .migration_delay_s(migration_delay_s)
        .group(
            replicas,
            &ServeConfig::default(),
            || Box::new(AnalyticCostModel::small()),
            || Box::new(Fifo),
        )
        .build()
}

fn fail(replica: u32, at_s: f64) -> FleetEvent {
    FleetEvent {
        at_s,
        replica,
        kind: FleetEventKind::Fail,
    }
}

/// Runs `run` to the end under round-robin, auditing after every
/// event.
fn finish(mut fleet: Fleet, mut run: FleetRun) -> FleetReport {
    let mut router = RoundRobin::new();
    while run.step(&mut fleet, &mut router) {
        run.audit();
    }
    run.into_report()
}

fn serve(replicas: usize, delay_s: f64, arrivals_s: Vec<f64>, fails: &[FleetEvent]) -> FleetReport {
    let fleet = fleet(replicas, delay_s);
    let mut run = fleet.start(&workload(arrivals_s));
    for ev in fails {
        run.inject(*ev);
    }
    finish(fleet, run)
}

fn digest(report: &FleetReport) -> String {
    digest_fleet_report(report).to_string()
}

#[test]
fn an_arrival_exactly_at_a_run_ahead_iteration_start() {
    // Iteration 2 opens the run (its checkpoint); 40 lies inside the
    // first price segment, 90 inside the second.
    for (k, pinned) in [
        (2, "18f7a4d96be4bda2"),
        (40, "437cc08b20432f7a"),
        (90, "6110aeea8217413a"),
    ] {
        let report = serve(1, 0.0, vec![0.0, start(k)], &[]);
        assert_eq!(report.aggregate.records.len(), 2);
        assert_eq!(digest(&report), pinned, "arrival at iteration {k}");
    }
}

#[test]
fn an_arrival_between_run_ahead_iteration_starts() {
    let t = (start(70) + start(71)) / 2.0;
    let report = serve(1, 0.0, vec![0.0, t], &[]);
    assert_eq!(digest(&report), "f290b3151405332e");
}

#[test]
fn an_arrival_at_the_completing_iteration_start() {
    let report = serve(1, 0.0, vec![0.0, start(OUTPUT)], &[]);
    assert_eq!(report.records().next().map(|r| r.id), Some(0));
    assert_eq!(digest(&report), "15794e459757c466");
}

#[test]
fn a_failure_mid_run_displaces_the_tokens_generated_by_then() {
    // A failure strictly inside iteration 60 keeps its 60 tokens; one
    // exactly at iteration 60's start keeps 59 (the failure outranks
    // the iteration). The survivor decodes the rest after a re-prefill.
    for (at_s, generated, pinned) in [
        ((start(60) + start(61)) / 2.0, 60u32, "7fac127c0dee4074"),
        (start(60), 59, "0545b00f95e3d800"),
    ] {
        let report = serve(2, 0.001, vec![0.0], &[fail(0, at_s)]);
        assert_eq!(report.lifecycle.displaced, 1);
        assert_eq!(report.replicas[0].decode_iterations, u64::from(generated));
        assert_eq!(
            report.replicas[1].decode_iterations,
            u64::from(OUTPUT - generated)
        );
        assert_eq!(digest(&report), pinned, "failure at {at_s}");
    }
}

#[test]
fn a_reroute_into_a_core_running_ahead() {
    // Both replicas run the same request shape from zero, so their
    // iterations start at the same instants. Replica 0 fails; its
    // request lands on replica 1 mid-run: at an iteration start (no
    // migration delay) and between two starts.
    for (delay_s, pinned) in [(0.0, "cc3cfe120271af29"), (0.0005, "17b5e79d4f19ad34")] {
        let report = serve(2, delay_s, vec![0.0, 0.0], &[fail(0, start(30))]);
        assert_eq!(report.lifecycle.displaced, 1);
        assert_eq!(report.assigned, vec![1, 2]);
        assert_eq!(digest(&report), pinned, "delay {delay_s}");
    }
}

#[test]
fn a_failure_injected_after_pausing_mid_run() {
    // `step_until` pauses inside the run; the failure injected at the
    // pause bound comes after every iteration that starts at or before
    // the bound, so the iteration starting exactly there is kept.
    for (pause, generated, pinned) in [
        (start(45), 45u32, "0ebe609eba62fb5a"),
        ((start(45) + start(46)) / 2.0, 45, "b854b947d20ed63e"),
    ] {
        let mut fleet = fleet(2, 0.001);
        let mut run = fleet.start(&workload(vec![0.0]));
        assert!(run.step_until(&mut fleet, &mut RoundRobin::new(), pause));
        run.audit();
        assert!(run.now_s() <= pause);
        run.inject(fail(0, pause));
        let report = finish(fleet, run);
        assert_eq!(report.replicas[0].decode_iterations, u64::from(generated));
        assert_eq!(digest(&report), pinned, "pause at {pause}");
    }
}

#[test]
fn a_context_near_u32_max_does_not_run_ahead() {
    // A run would carry the context past `u32::MAX` in the first two
    // shapes, so those cores step one iteration per event: as many
    // events as before cores ran ahead. The third is far enough below
    // to run ahead, in fewer events.
    for (prompt, output, pinned, events, runs_ahead) in [
        (u32::MAX - 20, 32u32, "167882b240bb7a4b", 34u64, false),
        (u32::MAX - 2, 8, "cd7c2909b65926c3", 10, false),
        (u32::MAX - 40, 32, "2f61276f54bb0aaf", 34, true),
    ] {
        let wl = Workload {
            num_requests: 1,
            arrivals: ArrivalProcess::Trace {
                arrivals_s: vec![0.0],
            },
            prompt_lens: LengthDistribution::Fixed(prompt),
            output_lens: LengthDistribution::Fixed(output),
            ..Workload::poisson(1.0, 1, 1, 1)
        };
        let mut fleet = FleetBuilder::new()
            .group(
                1,
                &ServeConfig::default(),
                || {
                    Box::new(AnalyticCostModel {
                        kv_capacity_tokens: u64::MAX,
                        ..AnalyticCostModel::small()
                    })
                },
                || Box::new(Fifo),
            )
            .build();
        let mut run = fleet.start(&wl);
        while run.step(&mut fleet, &mut RoundRobin::new()) {
            run.audit();
        }
        assert_eq!(run.events() < events, runs_ahead, "prompt {prompt}");
        assert!(run.events() <= events, "prompt {prompt}");
        let report = run.into_report();
        assert_eq!(report.replicas[0].decode_iterations, u64::from(output));
        assert_eq!(digest(&report), pinned, "prompt {prompt}");
    }
}

/// Machines whose every decode iteration costs the same (the KV term is
/// zero), so replicas serving the same prompt length step in lockstep:
/// their iterations start at the same instants, and a wake-up on one
/// ties with an iteration start on another.
fn flat_fleet(replicas: usize) -> Fleet {
    FleetBuilder::new()
        .group(
            replicas,
            &ServeConfig::default(),
            || {
                Box::new(AnalyticCostModel {
                    kv_token_s: 0.0,
                    ..AnalyticCostModel::small()
                })
            },
            || Box::new(Fifo),
        )
        .build()
}

#[test]
fn a_rejection_follow_up_lands_after_a_lower_replica_decoded_at_its_tick() {
    // Two closed-loop clients with no think time on two lockstep
    // replicas; one request is too large for any machine and replica 1
    // rejects it at a wake-up that ties with an iteration start on
    // replica 0. The follow-up it issues at that very tick is routed to
    // replica 0, whose iteration starting then ran first (lower index),
    // so it queues behind that iteration instead of displacing it.
    let wl = Workload {
        num_requests: 12,
        arrivals: ArrivalProcess::ClosedLoop {
            clients: 2,
            think_s: 0.0,
        },
        prompt_lens: LengthDistribution::Empirical(vec![(200, 0.8), (5000, 0.2)]),
        output_lens: LengthDistribution::Uniform { lo: 20, hi: 80 },
        seed: 63,
        ..Workload::poisson(1.0, 1, 1, 1)
    };
    let fleet = flat_fleet(2);
    let run = fleet.start(&wl);
    let report = finish(fleet, run);
    let rejected: Vec<u32> = report.replicas.iter().map(|r| r.rejected).collect();
    assert_eq!(rejected, vec![0, 1]);
    assert_eq!(digest(&report), "f4f438f186944c64");
}

#[test]
fn a_failure_injected_after_a_plain_step_keeps_iterations_that_ran() {
    // Two lockstep replicas, one request each; replica 0's is the
    // longer. Step until replica 1's completing wake-up has run, then
    // fail replica 0 at that tick: replica 0's iteration starting then
    // ran before replica 1's wake-up (lower index), so it is kept, and
    // replica 0 has decoded exactly as many iterations as replica 1.
    let wl = Workload {
        output_lens: LengthDistribution::Uniform { lo: 20, hi: 80 },
        seed: 1,
        ..workload(vec![0.0, 0.0])
    };
    let mut fleet = flat_fleet(2);
    let mut run = fleet.start(&wl);
    let mut router = RoundRobin::new();
    for busy in [true, false] {
        while (run.telemetry()[1].active_requests > 0) != busy {
            assert!(run.step(&mut fleet, &mut router));
        }
    }
    run.inject(fail(0, run.now_s()));
    let report = finish(fleet, run);
    // Replica 1 completes its own request, then the displaced one.
    let out: Vec<u32> = report.replicas[1]
        .records
        .iter()
        .map(|r| r.output_len)
        .collect();
    assert!(out[0] < out[1], "replica 0's request must be the longer");
    assert_eq!(report.lifecycle.displaced, 1);
    assert_eq!(report.replicas[0].decode_iterations, u64::from(out[0]));
    assert_eq!(digest(&report), "5b8beab5fd208174");
}

/// One seeded scenario of the batteries below: a few replicas and a
/// run driven by `step_until` to random bounds, at some of which a live
/// replica fails or a down one joins, at the bound itself or just after
/// it. Requests arrive on a grid of decode-step multiples (so arrivals
/// tie with iteration starts), or, on `lockstep` fleets of
/// [flat-priced](flat_fleet) machines, from closed-loop clients with no
/// think time, some too large for any machine (so a rejection's
/// follow-up ties with iteration starts on other replicas). Returns the
/// report digest and what the run published at every pause.
fn paused_scenario(case: u64, lockstep: bool) -> (u64, Vec<String>) {
    let mut rng = ServeRng::new(case ^ 0x00C0_FFEE);
    let mut draw = |n: u64| rng.next_u64() % n;
    let width = 2 + draw(3) as usize;
    let machine = move || AnalyticCostModel {
        kv_token_s: if lockstep {
            0.0
        } else {
            AnalyticCostModel::small().kv_token_s
        },
        ..AnalyticCostModel::small()
    };
    let step = machine().decode_step_s(1, 256);
    let wl = if lockstep {
        Workload {
            num_requests: 10 + draw(40) as u32,
            arrivals: ArrivalProcess::ClosedLoop {
                clients: 1 + draw(4) as u32,
                think_s: 0.0,
            },
            prompt_lens: LengthDistribution::Empirical(vec![
                (1 + draw(300) as u32, 0.8),
                (5000, 0.2),
            ]),
            output_lens: LengthDistribution::Uniform { lo: 1, hi: 200 },
            seed: case,
            ..Workload::poisson(1.0, 1, 1, 1)
        }
    } else {
        let mut arrivals_s: Vec<f64> = (0..10 + draw(40))
            .map(|_| step * draw(300) as f64)
            .collect();
        arrivals_s.sort_by(f64::total_cmp);
        Workload {
            num_requests: arrivals_s.len() as u32,
            arrivals: ArrivalProcess::Trace { arrivals_s },
            prompt_lens: LengthDistribution::Fixed(1 + draw(300) as u32),
            output_lens: LengthDistribution::Uniform { lo: 1, hi: 200 },
            seed: case,
            ..Workload::poisson(1.0, 1, 1, 1)
        }
    };
    let cfg = ServeConfig {
        max_batch: 1 + draw(8) as u32,
        seq_bucket: [1, 16, 256][draw(3) as usize],
        collocated_prefill: draw(4) == 0,
    };
    let preempts = draw(2) == 0;
    let mut fleet = FleetBuilder::new()
        .migration_delay_s([0.0, 0.0005][draw(2) as usize])
        .group(
            width,
            &cfg,
            || Box::new(machine()),
            || -> Box<dyn SchedulingPolicy> {
                if preempts {
                    Box::new(DeadlineEdf)
                } else {
                    Box::new(Fifo)
                }
            },
        )
        .build();
    let mut router: Box<dyn Router> = if draw(2) == 0 {
        Box::new(RoundRobin::new())
    } else {
        Box::new(JoinShortestQueue)
    };
    let mut run = fleet.start(&wl);
    let mut published = Vec::new();
    let mut bound = 0.0;
    while run.step_until(&mut fleet, router.as_mut(), bound) {
        run.audit();
        let of = |state| {
            (0..width)
                .filter(|&i| run.states()[i] == state)
                .collect::<Vec<_>>()
        };
        let (live, down) = (of(LifecycleState::Live), of(LifecycleState::Down));
        published.push(format!("{:?} {:?}", run.stats(), run.states()));
        let at_s = if draw(2) == 0 { bound } else { bound + 1e-5 };
        match draw(4) {
            0 if live.len() >= 2 => {
                run.inject(fail(live[draw(live.len() as u64) as usize] as u32, at_s))
            }
            1 if !down.is_empty() => run.inject(FleetEvent {
                at_s,
                replica: down[draw(down.len() as u64) as usize] as u32,
                kind: FleetEventKind::Join,
            }),
            _ => {}
        }
        bound += step * (1 + draw(6)) as f64;
    }
    (digest_fleet_report(&run.into_report()).0, published)
}

#[test]
fn paused_runs_with_failures_match_their_pinned_digests() {
    assert_eq!(battery(false), "c6b5c1767c8e21a1");
}

#[test]
fn paused_lockstep_closed_loop_runs_match_their_pinned_digests() {
    assert_eq!(battery(true), "97c6cad1520b3553");
}

/// 60 scenarios folded into one value, each pause's published state
/// too, for a pin taken before cores ran ahead.
fn battery(lockstep: bool) -> String {
    let mut folded = 0u64;
    for case in 0..60 {
        let (digest, published) = paused_scenario(case, lockstep);
        folded = folded.rotate_left(7) ^ digest;
        for p in published {
            folded = p.bytes().fold(folded, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
        }
    }
    format!("{folded:016x}")
}

/// One lone decode iteration's price on [`slow_prefill`] machines, and
/// the unit their prices are multiples of.
const U: f64 = 1.0 / 1024.0;

/// The prompt of the mid-run-join cases: its prefill takes 40 [`U`],
/// eight decode iterations of a lone request.
const LONG: u32 = 640;

/// Machines whose prefill of a [`LONG`] prompt spans several decode
/// iterations. On a [`joins_fleet`] every context prices at one
/// bucket, so a batch of `b` costs `(1 + 4b)` [`U`] per iteration and
/// clocks add exactly: a prefill can end exactly at an iteration start.
fn slow_prefill() -> AnalyticCostModel {
    AnalyticCostModel {
        weight_stream_s: U,
        kv_token_s: U / 1024.0,
        prefill_token_s: U / 16.0,
        kv_capacity_tokens: 1 << 16,
    }
}

/// When decode iteration `k` (1-based) of a lone [`LONG`]-prompt
/// request that arrived at zero begins.
fn lone(k: u32) -> f64 {
    let mut cost = slow_prefill();
    let mut t = cost.prefill_s(LONG);
    for _ in 1..k {
        t += cost.decode_step_s(1, 4096);
    }
    t
}

/// Request 1 of every mid-run-join case arrives inside request 0's
/// third lone iteration, is admitted when it ends and joins the batch
/// exactly when its prefill ends, at the start of lone iteration 12.
fn joiner_start() -> f64 {
    lone(12)
}

fn joins_fleet(
    replicas: usize,
    policy: fn() -> Box<dyn SchedulingPolicy>,
    max_batch: u32,
) -> Fleet {
    FleetBuilder::new()
        .migration_delay_s(U)
        .group(
            replicas,
            &ServeConfig {
                max_batch,
                seq_bucket: 4096,
                collocated_prefill: false,
            },
            || Box::new(slow_prefill()),
            policy,
        )
        .build()
}

fn join_workload(arrivals_s: Vec<f64>, output_lens: LengthDistribution, seed: u64) -> Workload {
    Workload {
        prompt_lens: LengthDistribution::Fixed(LONG),
        output_lens,
        seed,
        ..workload(arrivals_s)
    }
}

/// Serves a [`LONG`]-prompt, 48-token-output trace on `replicas`
/// [`slow_prefill`] FIFO machines under round-robin, failing at
/// `fails`, auditing after every event.
fn serve_joins(replicas: usize, arrivals_s: Vec<f64>, fails: &[FleetEvent]) -> FleetReport {
    let fleet = joins_fleet(replicas, || Box::new(Fifo), 8);
    let mut run = fleet.start(&join_workload(arrivals_s, LengthDistribution::Fixed(48), 0));
    for ev in fails {
        run.inject(*ev);
    }
    finish(fleet, run)
}

#[test]
fn an_arrival_around_a_joiners_first_iteration() {
    // Request 1 joins request 0's run mid-way; request 2 lands one unit
    // before, exactly at and one unit after request 1's first iteration
    // start. Arriving after it, request 2's own prefill ends between two
    // iteration starts.
    let t = joiner_start();
    for (at_s, pinned) in [
        (t - U, "a9209683c9c1f515"),
        (t, "680e584b9a09e695"),
        (t + U, "89d25ee96be0ec7d"),
    ] {
        let report = serve_joins(1, vec![0.0, lone(3) + U, at_s], &[]);
        assert_eq!(report.aggregate.records.len(), 3);
        assert_eq!(digest(&report), pinned, "arrival at {at_s}");
    }
}

#[test]
fn a_joiner_with_one_token_left_stops_the_run_before_its_iteration() {
    // Request 1 needs one token: the iteration it joins at completes it,
    // so the run stops before that iteration and the core wakes there.
    let wl = join_workload(
        vec![0.0, lone(3) + U],
        LengthDistribution::Empirical(vec![(1, 1.0), (48, 1.0)]),
        SEED_48_THEN_1,
    );
    let fleet = joins_fleet(1, || Box::new(Fifo), 8);
    let run = fleet.start(&wl);
    let report = finish(fleet, run);
    let out: Vec<(u32, u32)> = report.records().map(|r| (r.id, r.output_len)).collect();
    assert_eq!(out, vec![(1, 1), (0, 48)]);
    assert_eq!(report.replicas[0].decode_iterations, 48);
    assert_eq!(
        report.records().next().map(|r| r.finish_s),
        Some(joiner_start() + 9.0 * U)
    );
    assert_eq!(digest(&report), "878fb4758b8a1e5e");
}

#[test]
fn a_failure_around_a_join_displaces_the_joiner_as_of_then() {
    // Round-robin puts requests 0 and 2 on replica 0 (request 1 on
    // replica 1); request 2 joins replica 0's run as request 1 does in
    // the cases above. Replica 0 fails before, exactly at and inside
    // request 2's first iteration: only the last keeps its token and
    // first-token stamp; the others re-route as fresh as they came.
    let t = joiner_start();
    for (at_s, pinned) in [
        (t - U, "53db59c717fc43b1"),
        (t, "1d0f521affb480fd"),
        (t + U, "745afa637295e63f"),
    ] {
        let report = serve_joins(2, vec![0.0, 0.0, lone(3) + U], &[fail(0, at_s)]);
        assert_eq!(report.assigned, vec![2, 3]);
        assert_eq!(report.lifecycle.displaced, 2);
        assert_eq!(digest(&report), pinned, "failure at {at_s}");
    }
}

#[test]
fn a_pause_inside_a_stretch_around_a_join() {
    // `step_until` pauses inside the stretch before request 2 joins
    // (its prefill still running) and inside the second iteration of
    // the one it opens; replica 0 fails at the pause bound.
    let t = joiner_start();
    for (pause, pinned) in [
        (lone(8) + U, "c724d18e803cabdc"),
        (t + 13.0 * U, "e1d25ec50e9438af"),
    ] {
        let mut fleet = joins_fleet(2, || Box::new(Fifo), 8);
        let mut run = fleet.start(&join_workload(
            vec![0.0, 0.0, lone(3) + U],
            LengthDistribution::Fixed(48),
            0,
        ));
        assert!(run.step_until(&mut fleet, &mut RoundRobin::new(), pause));
        run.audit();
        run.inject(fail(0, pause));
        let report = finish(fleet, run);
        assert_eq!(report.lifecycle.displaced, 2);
        assert_eq!(digest(&report), pinned, "pause at {pause}");
    }
}

/// Admits the newest request first and makes room for a fresh one by
/// evicting the newest resident older than it; a resumed request never
/// evicts.
struct NewestFirst;

impl SchedulingPolicy for NewestFirst {
    fn name(&self) -> &'static str {
        "newest-first"
    }

    fn select(&mut self, queue: &[QueuedRequest], _clock: f64) -> Option<usize> {
        (0..queue.len()).max_by_key(|&i| queue[i].req.id)
    }

    fn preempt_victim(
        &mut self,
        active: &[ActiveRequest],
        candidate: &QueuedRequest,
        _clock: f64,
    ) -> Option<usize> {
        if candidate.preemptions > 0 {
            return None;
        }
        (0..active.len())
            .filter(|&i| active[i].req.id < candidate.req.id)
            .max_by_key(|&i| active[i].req.id)
    }
}

#[test]
fn a_resumed_request_rewound_before_its_join_keeps_its_first_token() {
    // Two slots. Request 2 evicts request 1 after two tokens; when
    // request 0 completes (at 436 U), request 1 resumes with a
    // re-prefill that ends mid-run, and it joins request 2's run at
    // 481 U. Request 3 lands before that join, and inside the iteration
    // after it: either way request 1 keeps the first token it had before
    // its eviction.
    for (at_s, pinned) in [
        (456.0 * U, "04768e8c2cf6ce04"),
        (485.0 * U, "af8ffb390f226bd0"),
    ] {
        let fleet = joins_fleet(1, || Box::new(NewestFirst), 2);
        let run = fleet.start(&join_workload(
            vec![0.0, U, 60.0 * U, at_s],
            LengthDistribution::Fixed(48),
            0,
        ));
        let report = finish(fleet, run);
        let resumed = report
            .records()
            .find(|r| r.id == 1)
            .expect("request 1 completes");
        assert!(resumed.preemptions >= 1);
        assert_eq!(resumed.first_token_s, 54.0 * U);
        assert_eq!(digest(&report), pinned, "arrival at {at_s}");
    }
}

/// A seed whose first two draws from `{1, 48}` output tokens are 48,
/// then 1.
const SEED_48_THEN_1: u64 = 1;
