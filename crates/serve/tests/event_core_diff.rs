//! Differential closure battery for the event core.
//!
//! There is one event loop, `FleetRun`; `serve_with` is a
//! one-replica run of it. What must hold is that the loop is **closed
//! under its own mechanisms**: for every workload, an uninterrupted
//! run and a re-run audited mid-flight produce byte-identical reports
//! and digests. This suite drives a family of 112 seeded workloads
//! (open loop, closed loop, traced; single- and multi-class; with
//! preemption pressure) through that pair:
//!
//! - one machine (a one-replica fleet under round-robin), under every
//!   scheduling policy (Fifo, SJF, PriorityAging, DeadlineEdf):
//!   uninterrupted == a re-run with `FleetRun::audit` at the run's
//!   midpoint;
//! - a three-replica fleet, under every router (RoundRobin,
//!   JoinShortestQueue, LeastKvLoad, SessionAffinity), policies
//!   rotating per workload: the same pair;
//! - `serve_with` against `serve_with_digests.txt`: the 448 report
//!   digests the stand-alone single-machine loop produced for this
//!   battery before it was deleted, so the one-replica driver must
//!   reproduce that loop byte for byte;
//! - a one-replica fleet's aggregate against the single machine's
//!   records in completion order.
//!
//! The scan-era cross-checks live on as `debug_assert`s inside the
//! core (incremental telemetry and next-event vs recomputation by
//! scan), so every debug run of this battery still exercises them; the
//! repro-target goldens are held byte-identical by the separate golden
//! gate in CI.

use rpu_models::LengthDistribution;
use rpu_serve::{
    digest_fleet_report, digest_serve_report, serve_with, AnalyticCostModel, ArrivalProcess,
    ClassSpec, CostModel, DeadlineEdf, Fifo, Fleet, FleetBuilder, JoinShortestQueue, LeastKvLoad,
    PriorityAging, RoundRobin, Router, SchedulingPolicy, ServeConfig, ServeRng, SessionAffinity,
    ShortestJobFirst, SloTargets, Workload,
};

const NUM_WORKLOADS: u64 = 112;

/// Builds the `i`-th battery workload and its machine config. Seeded
/// from the index alone, so the battery is reproducible run to run.
fn workload(i: u64) -> (Workload, ServeConfig) {
    let mut s = ServeRng::new(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i + 1));
    let arrivals = match s.next_u64() % 3 {
        0 => ArrivalProcess::Poisson {
            rate_rps: 50.0 + (s.next_u64() % 3000) as f64,
        },
        1 => ArrivalProcess::ClosedLoop {
            clients: 1 + (s.next_u64() % 10) as u32,
            think_s: (s.next_u64() % 40) as f64 * 1e-3,
        },
        _ => {
            let n = 6 + s.next_u64() % 30;
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
    let classes = if s.next_u64().is_multiple_of(2) {
        vec![ClassSpec::interactive()]
    } else {
        vec![
            ClassSpec {
                share: 3.0,
                tenants: 2 + (s.next_u64() % 3) as u32,
                slo: SloTargets::interactive(),
                ..ClassSpec::interactive()
            },
            ClassSpec {
                share: 1.0,
                ..ClassSpec::batch()
            },
        ]
    };
    let num_requests = match &arrivals {
        ArrivalProcess::Trace { arrivals_s } => arrivals_s.len() as u32,
        _ => 12 + (s.next_u64() % 36) as u32,
    };
    let wl = Workload {
        arrivals,
        prompt_lens: LengthDistribution::Uniform {
            lo: 8,
            hi: 64 + (s.next_u64() % 448) as u32,
        },
        output_lens: LengthDistribution::Uniform {
            lo: 1,
            hi: 4 + (s.next_u64() % 28) as u32,
        },
        num_requests,
        seed: s.next_u64(),
        classes: vec![],
    }
    .with_classes(classes);
    let config = ServeConfig {
        max_batch: 2 + (s.next_u64() % 7) as u32,
        collocated_prefill: s.next_u64().is_multiple_of(4),
        ..ServeConfig::default()
    };
    (wl, config)
}

const POLICIES: [&str; 4] = ["fifo", "sjf", "aging", "edf"];
const ROUTERS: [&str; 4] = ["round-robin", "jsq", "least-kv", "affinity"];

/// A fresh policy instance by name — every leg of the pair gets
/// its own copy so stateful policies cannot leak decisions across the
/// comparison.
fn policy(name: &str, wl: &Workload) -> Box<dyn SchedulingPolicy> {
    match name {
        "fifo" => Box::new(Fifo),
        "sjf" => Box::new(ShortestJobFirst::for_workload(wl)),
        "aging" => Box::new(PriorityAging::new(0.05)),
        "edf" => Box::new(DeadlineEdf),
        _ => unreachable!("unknown policy {name}"),
    }
}

/// A fresh router instance by name.
fn router(name: &str) -> Box<dyn Router> {
    match name {
        "round-robin" => Box::new(RoundRobin::new()),
        "jsq" => Box::new(JoinShortestQueue),
        "least-kv" => Box::new(LeastKvLoad),
        "affinity" => Box::new(SessionAffinity::new()),
        _ => unreachable!("unknown policy {name}"),
    }
}

fn machine() -> AnalyticCostModel {
    AnalyticCostModel::small()
}

/// One machine under the named policy: a one-replica fleet.
fn single_machine(config: &ServeConfig, name: &str, wl: &Workload) -> Fleet {
    FleetBuilder::new()
        .group(
            1,
            config,
            || Box::new(machine()) as Box<dyn CostModel>,
            || policy(name, wl),
        )
        .build()
}

#[test]
fn serve_closes_under_audit_and_replay_under_every_policy() {
    for i in 0..NUM_WORKLOADS {
        let (wl, config) = workload(i);
        for name in POLICIES {
            // Leg 1: the uninterrupted run.
            let mut fleet = single_machine(&config, name, &wl);
            let mut router = RoundRobin::new();
            let mut full = fleet.start(&wl);
            while full.step(&mut fleet, &mut router) {}
            let total = full.events();
            let uninterrupted = full.into_report();

            // Leg 2: re-run, audit at the midpoint, finish.
            let mut fleet_a = single_machine(&config, name, &wl);
            let mut router_a = RoundRobin::new();
            let mut rerun = fleet_a.start(&wl);
            for _ in 0..total / 2 {
                assert!(rerun.step(&mut fleet_a, &mut router_a));
            }
            rerun.audit();
            while rerun.step(&mut fleet_a, &mut router_a) {}
            let audited = rerun.into_report();
            assert_eq!(
                digest_serve_report(&audited.replicas[0]),
                digest_serve_report(&uninterrupted.replicas[0]),
                "workload {i} policy {name}: audited re-run digest diverges"
            );
            assert_eq!(
                audited, uninterrupted,
                "workload {i} policy {name}: audited re-run report diverges"
            );
        }
    }
}

/// The committed reference table: `(workload, policy) -> digest`.
fn pinned_serve_with_digests() -> Vec<(u64, String, String)> {
    include_str!("serve_with_digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(cols.len(), 3, "malformed table line {l:?}");
            let i = cols[0].parse().expect("workload index");
            (i, cols[1].to_string(), cols[2].to_string())
        })
        .collect()
}

#[test]
fn serve_with_reproduces_the_pinned_digest_table() {
    let table = pinned_serve_with_digests();
    let pairs: Vec<(u64, &str)> = (0..NUM_WORKLOADS)
        .flat_map(|i| POLICIES.map(|name| (i, name)))
        .collect();
    assert_eq!(
        table
            .iter()
            .map(|(i, name, _)| (*i, name.as_str()))
            .collect::<Vec<_>>(),
        pairs,
        "the table must cover every (workload, policy) pair once, in order"
    );
    for (i, name, pinned) in &table {
        let (wl, config) = workload(*i);
        let report = serve_with(&wl, &mut machine(), &config, policy(name, &wl).as_mut());
        assert_eq!(
            &digest_serve_report(&report).to_string(),
            pinned,
            "workload {i} policy {name}: serve_with left the pinned digest"
        );
    }
}

#[test]
fn fleet_closes_under_audit_and_replay_under_every_router() {
    for i in 0..NUM_WORKLOADS {
        let (wl, config) = workload(i);
        // Rotate the replica policy across workloads so every
        // (policy, router) pairing is exercised many times.
        let mk_fleet = || {
            let wl = &wl;
            FleetBuilder::new()
                .group(
                    3,
                    &config,
                    || Box::new(machine()) as Box<dyn CostModel>,
                    move || match i % 4 {
                        0 => Box::new(Fifo) as Box<dyn SchedulingPolicy>,
                        1 => Box::new(ShortestJobFirst::for_workload(wl)),
                        2 => Box::new(PriorityAging::new(0.05)),
                        _ => Box::new(DeadlineEdf),
                    },
                )
                .build()
        };
        for name in ROUTERS {
            // Leg 1: uninterrupted.
            let mut fleet = mk_fleet();
            let mut r = router(name);
            let mut full = fleet.start(&wl);
            while full.step(&mut fleet, r.as_mut()) {}
            let total = full.events();
            let uninterrupted = full.into_report();

            // Leg 2: re-run with a fresh router, audit at the midpoint,
            // finish.
            let mut fleet_a = mk_fleet();
            let mut router_a = router(name);
            let mut rerun = fleet_a.start(&wl);
            for _ in 0..total / 2 {
                assert!(rerun.step(&mut fleet_a, router_a.as_mut()));
            }
            rerun.audit();
            while rerun.step(&mut fleet_a, router_a.as_mut()) {}
            let audited = rerun.into_report();
            assert_eq!(
                digest_fleet_report(&audited),
                digest_fleet_report(&uninterrupted),
                "workload {i} router {name}: audited re-run digest diverges"
            );
            assert_eq!(
                audited, uninterrupted,
                "workload {i} router {name}: audited re-run report diverges"
            );
        }
    }
}

#[test]
fn one_replica_fleet_degenerates_to_the_single_machine_scheduler() {
    for i in 0..NUM_WORKLOADS {
        let (wl, config) = workload(i);
        for name in POLICIES {
            let mut single = serve_with(&wl, &mut machine(), &config, policy(name, &wl).as_mut());
            let fleet_report =
                single_machine(&config, name, &wl).serve(&wl, router("round-robin").as_mut());
            // The aggregate orders records canonically by (finish
            // time, id); the single machine emits exact finish-time
            // ties in batch order. Re-sorted, the single run is the
            // aggregate read through its completion order — every
            // record and every scalar.
            single
                .records
                .sort_by(|a, b| a.finish_s.total_cmp(&b.finish_s).then(a.id.cmp(&b.id)));
            let aggregate = fleet_report
                .aggregate
                .with_records(fleet_report.records().copied().collect::<Vec<_>>());
            assert_eq!(
                digest_serve_report(&aggregate),
                digest_serve_report(&single),
                "workload {i} policy {name}: 1-replica fleet digest diverges"
            );
            assert_eq!(
                aggregate, single,
                "workload {i} policy {name}: 1-replica fleet diverges record-for-record"
            );
        }
    }
}
