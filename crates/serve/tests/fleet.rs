//! Fleet and router edge cases.
//!
//! Four contract families:
//!
//! 1. **Degenerate fleet** — an empty fleet is rejected at
//!    construction, and a single-replica fleet is *differentially*
//!    identical to the bare scheduler: every router degenerates to
//!    "replica 0", so the fleet driver must reproduce [`serve_with`]
//!    record-for-record across seeded workloads and every scheduling
//!    policy.
//! 2. **Affinity stability** — growing the fleet moves a session only
//!    if it moves to the *new* replica; sessions that stay keep their
//!    replica index.
//! 3. **JSQ capacity honesty** — join-shortest-queue never routes a
//!    request over a replica's published KV capacity while another
//!    replica has headroom.
//! 4. **Router-facing telemetry** — what the router sees matches what
//!    the replicas report afterwards (assignment counts add up).

use rpu_models::LengthDistribution;
use rpu_serve::{
    serve_with, AnalyticCostModel, ArrivalProcess, ClassSpec, CostModel, DeadlineEdf, Fifo,
    FleetBuilder, FleetReplica, JoinShortestQueue, LeastKvLoad, PriorityAging, Request,
    RequestRecord, RoundRobin, Router, RoutingView, SchedulingPolicy, ServeConfig, ServeRng,
    SessionAffinity, ShortestJobFirst, Workload,
};

const NUM_WORKLOADS: u64 = 24;

fn machine() -> AnalyticCostModel {
    AnalyticCostModel::small()
}

/// Builds the `i`-th differential workload: mixed arrival processes,
/// class structures and length distributions, capped so every request
/// fits the machine alone.
fn workload(i: u64) -> (Workload, ServeConfig) {
    let mut s = ServeRng::new(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(3));
    let arrivals = match s.next_u64() % 3 {
        0 => ArrivalProcess::Poisson {
            rate_rps: 20.0 + (s.next_u64() % 3000) as f64,
        },
        1 => ArrivalProcess::ClosedLoop {
            clients: 1 + (s.next_u64() % 8) as u32,
            think_s: (s.next_u64() % 30) as f64 * 1e-3,
        },
        _ => {
            let n = 4 + s.next_u64() % 24;
            let mut t = 0.0;
            let arrivals_s = (0..n)
                .map(|_| {
                    t += (s.next_u64() % 800) as f64 * 1e-4;
                    t
                })
                .collect();
            ArrivalProcess::Trace { arrivals_s }
        }
    };
    let classes = vec![
        ClassSpec {
            share: 2.0,
            tenants: 1 + (s.next_u64() as u32) % 6,
            prompt_lens: Some(LengthDistribution::Uniform { lo: 16, hi: 256 }),
            output_lens: Some(LengthDistribution::Exponential {
                mean: 12.0,
                cap: 64,
            }),
            ..ClassSpec::interactive()
        },
        ClassSpec {
            share: 1.0,
            tenants: 1 + (s.next_u64() as u32) % 3,
            prompt_lens: Some(LengthDistribution::Fixed(512)),
            output_lens: Some(LengthDistribution::Fixed(128)),
            ..ClassSpec::batch()
        },
    ];
    let num_requests = match &arrivals {
        ArrivalProcess::Trace { arrivals_s } => arrivals_s.len() as u32,
        _ => 6 + (s.next_u64() as u32) % 30,
    };
    let wl = Workload {
        arrivals,
        prompt_lens: LengthDistribution::Fixed(64),
        output_lens: LengthDistribution::Fixed(16),
        num_requests,
        seed: s.next_u64(),
        classes: vec![],
    }
    .with_classes(classes);
    let config = ServeConfig {
        max_batch: 1 + (s.next_u64() as u32) % 8,
        seq_bucket: [1u32, 64, 256][(s.next_u64() % 3) as usize],
        collocated_prefill: s.next_u64().is_multiple_of(2),
    };
    (wl, config)
}

fn policies(wl: &Workload) -> Vec<Box<dyn SchedulingPolicy>> {
    vec![
        Box::new(Fifo),
        Box::new(ShortestJobFirst::for_workload(wl)),
        Box::new(PriorityAging::new(0.5)),
        Box::new(DeadlineEdf),
    ]
}

fn routers() -> Vec<Box<dyn Router>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(JoinShortestQueue),
        Box::new(LeastKvLoad),
        Box::new(SessionAffinity::new()),
    ]
}

/// A single-replica fleet is the bare scheduler with extra plumbing:
/// same records, same report, under every policy and every router.
#[test]
fn single_replica_fleet_matches_bare_scheduler() {
    for i in 0..NUM_WORKLOADS {
        let (wl, config) = workload(i);
        for (p, policy) in policies(&wl).iter_mut().enumerate() {
            let expected = serve_with(&wl, &mut machine(), &config, policy.as_mut());
            for router in &mut routers() {
                let mut fleet = FleetBuilder::new()
                    .replica(FleetReplica {
                        cost: Box::new(machine()),
                        policy: match p {
                            0 => Box::new(Fifo),
                            1 => Box::new(ShortestJobFirst::for_workload(&wl)),
                            2 => Box::new(PriorityAging::new(0.5)),
                            _ => Box::new(DeadlineEdf),
                        },
                        config,
                    })
                    .build();
                let got = fleet.serve(&wl, router.as_mut());
                assert_eq!(
                    got.replicas[0],
                    expected,
                    "workload {i}, policy {}, router {}",
                    policy.name(),
                    router.name()
                );
                // The aggregate is the same run, re-sorted into
                // fleet-wide completion order.
                let mut sorted = expected.records.clone();
                sorted.sort_by(|a, b| a.finish_s.total_cmp(&b.finish_s).then(a.id.cmp(&b.id)));
                assert!(got.records().eq(&sorted));
                assert_eq!(got.aggregate.makespan_s, expected.makespan_s);
                assert_eq!(got.aggregate.decode_busy_s, expected.decode_busy_s);
                assert_eq!(got.assigned, vec![wl.num_requests]);
            }
        }
    }
}

/// Growing the fleet only reroutes sessions onto the *new* replica;
/// unchanged keys keep their placement (consistent hashing, observed
/// end-to-end through real fleet runs).
#[test]
fn affinity_growth_moves_sessions_only_to_the_new_replica() {
    let wl = Workload {
        classes: vec![ClassSpec {
            tenants: 32,
            ..ClassSpec::interactive()
        }],
        ..Workload::poisson(300.0, 64, 8, 128)
    };
    let placement = |n: usize| -> Vec<Option<usize>> {
        let mut fleet = FleetBuilder::new()
            .group(
                n,
                &ServeConfig::default(),
                || Box::new(machine()),
                || Box::new(Fifo),
            )
            .build();
        let report = fleet.serve(&wl, &mut SessionAffinity::new());
        let mut by_tenant = vec![None; 32];
        for (r, rep) in report.replicas.iter().enumerate() {
            for rec in &rep.records {
                let prev = by_tenant[rec.tenant as usize].replace(r);
                assert!(
                    prev.is_none_or(|p| p == r),
                    "tenant {} split across replicas {prev:?} and {r}",
                    rec.tenant
                );
            }
        }
        by_tenant
    };
    let before = placement(3);
    let after = placement(4);
    let mut moved = 0;
    for (tenant, (b, a)) in before.iter().zip(&after).enumerate() {
        let (Some(b), Some(a)) = (b, a) else { continue };
        if b != a {
            assert_eq!(*a, 3, "tenant {tenant} moved to old replica {a}");
            moved += 1;
        }
    }
    assert!(moved >= 1, "growing the ring must claim some sessions");
}

/// JSQ never routes over a replica's published KV capacity while
/// another replica has headroom — checked against a telemetry trace
/// recorded by a wrapping router.
#[test]
fn jsq_respects_published_kv_capacity() {
    /// Records every routing decision with the telemetry it saw.
    struct Recording<R> {
        inner: R,
        violations: u32,
        decisions: u32,
    }

    impl<R: Router> Router for Recording<R> {
        fn name(&self) -> &'static str {
            "recording"
        }

        fn route(&mut self, req: &Request, view: &RoutingView<'_>) -> usize {
            let pick = self.inner.route(req, view);
            self.decisions += 1;
            let need = req.reserved_tokens();
            if !view.replica(pick).has_kv_headroom(need)
                && view.telemetry().iter().any(|t| t.has_kv_headroom(need))
            {
                self.violations += 1;
            }
            pick
        }
    }

    // Two small replicas, long requests: each replica fits only one
    // request at a time, so headroom genuinely constrains routing.
    let wl = Workload {
        prompt_lens: LengthDistribution::Fixed(1400),
        output_lens: LengthDistribution::Fixed(600),
        ..Workload::poisson(2000.0, 1, 1, 40)
    };
    let mut router = Recording {
        inner: JoinShortestQueue,
        violations: 0,
        decisions: 0,
    };
    let mut fleet = FleetBuilder::new()
        .group(
            3,
            &ServeConfig::default(),
            || {
                Box::new(AnalyticCostModel {
                    kv_capacity_tokens: 2048,
                    ..AnalyticCostModel::small()
                })
            },
            || Box::new(Fifo),
        )
        .build();
    let report = fleet.serve(&wl, &mut router);
    assert_eq!(router.decisions, 40);
    assert_eq!(router.violations, 0, "JSQ routed over KV capacity");
    assert_eq!(report.aggregate.records.len(), 40);
}

/// The assignment counters account for every issued request, and
/// telemetry-driven routers genuinely spread them.
#[test]
fn assignments_account_for_every_request() {
    for i in 0..NUM_WORKLOADS {
        let (wl, config) = workload(i);
        for router in &mut routers() {
            let mut fleet = FleetBuilder::new()
                .group(3, &config, || Box::new(machine()), || Box::new(Fifo))
                .build();
            let report = fleet.serve(&wl, router.as_mut());
            assert_eq!(
                report.assigned.iter().sum::<u32>(),
                wl.num_requests,
                "workload {i}, router {}",
                router.name()
            );
            let routed: u32 = report
                .replicas
                .iter()
                .map(|r| r.records.len() as u32 + r.rejected)
                .sum();
            assert_eq!(routed, wl.num_requests);
        }
    }
}

/// Heterogeneous replicas publish their own capacities, and each
/// scheduler admits against exactly the capacity its replica publishes
/// (`kv_capacity_tokens`).
#[test]
fn heterogeneous_fleet_serves_oversized_requests_on_the_big_replica() {
    // One client in a closed loop: at most one request in flight, so
    // the big replica always has headroom when the next one arrives
    // (the JSQ fallback path never has to fire).
    let wl = Workload {
        arrivals: ArrivalProcess::ClosedLoop {
            clients: 1,
            think_s: 0.01,
        },
        prompt_lens: LengthDistribution::Fixed(3000),
        output_lens: LengthDistribution::Fixed(100),
        ..Workload::poisson(1.0, 1, 1, 12)
    };
    let big = AnalyticCostModel {
        kv_capacity_tokens: 8192,
        ..machine()
    };
    let small = AnalyticCostModel {
        kv_capacity_tokens: 2048,
        ..machine()
    };
    assert_eq!(big.kv_capacity_tokens(), 8192);
    let mut fleet = FleetBuilder::new()
        .replica(FleetReplica {
            cost: Box::new(small),
            policy: Box::new(Fifo),
            config: ServeConfig::default(),
        })
        .replica(FleetReplica {
            cost: Box::new(big),
            policy: Box::new(Fifo),
            config: ServeConfig::default(),
        })
        .build();
    let report = fleet.serve(&wl, &mut JoinShortestQueue);
    // 3100-token requests only ever fit replica 1; JSQ sees that from
    // telemetry, so nothing lands on (and bounces off) replica 0.
    assert_eq!(report.assigned[0], 0);
    assert_eq!(report.aggregate.records.len(), 12);
    assert_eq!(report.aggregate.rejected, 0);
    assert!(report.replicas[1]
        .records
        .iter()
        .map(RequestRecord::ttft_s)
        .all(|t| t > 0.0));
}
