//! The serve-layer contracts, end to end:
//!
//! - **Differential**: the serving kernel at [`HoldPolicy::disabled`]
//!   (per-step serving) is bit-identical to the naive per-request
//!   `evaluate_with_retries` reference, clean and faulted — the amortized
//!   routing (one SSSP per distinct source per round) must be invisible in
//!   the output.
//! - **Every worker count**, **report ≡ folded outcomes**,
//!   **resilient ≡ in-memory**: every execution mode lands on the same
//!   bits.
//! - **Admission**: with ample budgets `serve_overload` reproduces the
//!   uncapacitated group serve; with zero budget everything expires, with
//!   deferrals counted; always deterministic.
//! - **Workloads**: every generator emits streams the boundary fully
//!   accepts, deterministically per seed.
//! - **Goldens**: every output bit of an overload run on which every
//!   mechanism fires, and of hold-aware serving on a faulted engine.

use qntn_geo::{Epoch, Geodetic};
use qntn_net::capacity::CapacityModel;
use qntn_net::faults::{CompiledFaults, FaultModel};
use qntn_net::requests::{Request, RequestWorkload, RetryOutcome, RetryPolicy};
use qntn_net::runtime::RunPolicy;
use qntn_net::{Host, QuantumNetworkSim, SimConfig, SweepEngine};
use qntn_orbit::{paper_constellation, Ephemeris, PerturbationModel, Propagator};
use qntn_routing::RouteMetric;
use qntn_serve::serve::GroupAgg;
use qntn_serve::{
    generate, ingest, overload_report, report_from_aggs, report_from_run, serve_full_with_holds,
    serve_overload, serve_report_with_holds, serve_resilient, DegradePolicy, FlashCrowdConfig,
    HoldPolicy, OverloadPolicy, RawRequest, RequestQueue, RetryBudget, ShedPolicy, ShedReason,
    WorkloadKind,
};
use std::sync::{Arc, OnceLock};

/// Three ground LANs, one HAP, two paper-constellation satellites over
/// 60 thirty-second steps — the shared fixture (sim construction is the
/// expensive part, so it is built once).
fn sim() -> &'static QuantumNetworkSim {
    static SIM: OnceLock<QuantumNetworkSim> = OnceLock::new();
    SIM.get_or_init(|| {
        let steps = 60;
        let props: Vec<Propagator> = paper_constellation(2)
            .into_iter()
            .map(|k| Propagator::new(k, Epoch::J2000, PerturbationModel::TwoBody))
            .collect();
        let ephs = Ephemeris::generate_many(&props, Epoch::J2000, 30.0, steps as f64 * 30.0);
        let mut hosts = vec![
            Host::ground(
                "TTU-0",
                0,
                Geodetic::from_deg(36.1757, -85.5066, 300.0),
                1.2,
            ),
            Host::ground(
                "TTU-1",
                0,
                Geodetic::from_deg(36.1751, -85.5067, 300.0),
                1.2,
            ),
            Host::ground("ORNL-0", 1, Geodetic::from_deg(35.91, -84.3, 250.0), 1.2),
            Host::ground(
                "EPB-0",
                2,
                Geodetic::from_deg(35.04159, -85.2799, 200.0),
                1.2,
            ),
            Host::hap("HAP", Geodetic::from_deg(35.6692, -85.0662, 30_000.0), 0.3),
        ];
        for (i, eph) in ephs.into_iter().enumerate() {
            hosts.push(Host::satellite(format!("SAT-{i:03}"), eph, 1.2));
        }
        QuantumNetworkSim::new(hosts, SimConfig::default(), steps, 30.0)
    })
}

fn queue_from(kind: WorkloadKind, n: usize, seed: u64) -> RequestQueue {
    let stream = generate(sim(), kind, n, seed);
    let (queue, rejected) = ingest(sim().hosts().len(), sim().steps(), &stream);
    assert!(rejected.is_empty(), "generators emit only valid requests");
    queue
}

/// The naive reference, one request at a time:
/// `RequestWorkload::evaluate_with_retries` with the request's effective
/// deadline (the tighter of its own and the policy's) folded into the
/// policy. Returns outcomes in queue order.
fn naive_reference(
    queue: &RequestQueue,
    policy: RetryPolicy,
    metric: RouteMetric,
    faults: &CompiledFaults,
) -> Vec<RetryOutcome> {
    (0..queue.len())
        .map(|qi| {
            let workload = RequestWorkload {
                requests: vec![Request {
                    src: queue.src(qi),
                    dst: queue.dst(qi),
                }],
            };
            let policy = RetryPolicy {
                deadline_steps: queue.deadline(qi).min(policy.deadline_steps),
                ..policy
            };
            workload
                .evaluate_with_retries(sim(), queue.arrival(qi), metric, policy, faults)
                .remove(0)
        })
        .collect()
}

#[test]
fn per_step_kernel_is_bit_identical_to_the_naive_reference() {
    let queue = queue_from(WorkloadKind::Uniform, 150, 11);
    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    let clean = CompiledFaults::identity(sim().hosts().len(), sim().steps());
    let engine = SweepEngine::new(sim());
    assert_eq!(
        serve_full_with_holds(&engine, &queue, policy, metric, &HoldPolicy::disabled()),
        naive_reference(&queue, policy, metric, &clean)
    );
}

#[test]
fn per_step_kernel_matches_naive_under_faults() {
    let queue = queue_from(WorkloadKind::Poisson, 120, 23);
    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    let faults = Arc::new(FaultModel::standard(7).with_intensity(2.5).compile(sim()));
    let engine = SweepEngine::new(sim()).with_faults(faults.clone());
    assert_eq!(
        serve_full_with_holds(&engine, &queue, policy, metric, &HoldPolicy::disabled()),
        naive_reference(&queue, policy, metric, &faults)
    );
}

#[test]
fn serves_are_bit_identical_at_every_worker_count() {
    let queue = queue_from(WorkloadKind::Diurnal, 140, 31);
    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    let faults = Arc::new(FaultModel::standard(7).with_intensity(2.5).compile(sim()));
    for mask in [None, Some(faults)] {
        let engine = match &mask {
            Some(f) => SweepEngine::new(sim()).with_faults(f.clone()),
            None => SweepEngine::new(sim()),
        };
        let at = |workers: usize| engine.clone().with_workers(workers);
        let one = at(1);
        let holds = [
            HoldPolicy::disabled(),
            HoldPolicy::with_horizon(4),
            HoldPolicy::with_horizon(6),
            HoldPolicy::with_horizon(16),
        ];
        for hold in &holds {
            let full = serve_full_with_holds(&one, &queue, policy, metric, hold);
            let report = serve_report_with_holds(&one, &queue, policy, metric, hold, 0);
            for workers in [2, 3, 8] {
                let ctx = format!("{workers} workers, {hold:?}, faulted {}", mask.is_some());
                let engine = at(workers);
                assert_eq!(
                    serve_full_with_holds(&engine, &queue, policy, metric, hold),
                    full,
                    "{ctx}"
                );
                assert_eq!(
                    serve_report_with_holds(&engine, &queue, policy, metric, hold, 0),
                    report,
                    "{ctx}"
                );
            }
        }
        // The resilient runtime claims its own work units, so it must land
        // on the in-memory report at every count and chunk size.
        let reference =
            serve_report_with_holds(&one, &queue, policy, metric, &HoldPolicy::disabled(), 0);
        for workers in [1, 2, 3, 8] {
            for chunk in [1, 7, 64] {
                let ctx = format!(
                    "{workers} workers, chunk {chunk}, faulted {}",
                    mask.is_some()
                );
                let run_policy = RunPolicy::default().with_chunk_steps(chunk);
                let run =
                    serve_resilient(&at(workers), &queue, policy, metric, 0, &run_policy).unwrap();
                assert!(run.is_clean(), "{ctx}");
                assert_eq!(report_from_run(&run, 0), reference, "{ctx}");
            }
        }
    }
}

#[test]
fn report_equals_the_fold_of_materialized_outcomes() {
    let queue = queue_from(WorkloadKind::Hotspot, 130, 5);
    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    let per_step = HoldPolicy::disabled();
    let engine = SweepEngine::new(sim());
    let outcomes = serve_full_with_holds(&engine, &queue, policy, metric, &per_step);
    let aggs: Vec<GroupAgg> = queue
        .groups()
        .iter()
        .map(|(_, range)| {
            let classes: Vec<usize> = range.clone().map(|qi| queue.class(qi)).collect();
            GroupAgg::from_outcomes(&outcomes[range.clone()], &classes)
        })
        .collect();
    let report = serve_report_with_holds(&engine, &queue, policy, metric, &per_step, 3);
    assert_eq!(report, report_from_aggs(&aggs, 3));
    assert_eq!(report.rejected, 3);
    assert_eq!(report.attempted as usize, queue.len());
    assert_eq!(
        report.attempted,
        report.served() + report.expired,
        "every request is served or expired"
    );
    let class_total: u64 = report.classes.iter().map(|c| c.attempted).sum();
    assert_eq!(class_total, report.attempted);
    // The JSON artifact carries the headline numbers.
    let json = report.to_json();
    assert!(json.contains("\"served_percent\""));
    assert!(json.contains("\"p95_wait_steps\""));
    assert!(json.contains(&format!("\"attempted\": {}", report.attempted)));
}

#[test]
fn resilient_run_reproduces_the_in_memory_report_and_resumes_from_checkpoint() {
    let queue = queue_from(WorkloadKind::Uniform, 90, 17);
    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    let engine = SweepEngine::new(sim());
    let reference =
        serve_report_with_holds(&engine, &queue, policy, metric, &HoldPolicy::disabled(), 0);

    let ckpt = std::env::temp_dir().join(format!(
        "qntn_serve_test_{}_resume.ckpt",
        std::process::id()
    ));
    std::fs::remove_file(&ckpt).ok();
    let run_policy = RunPolicy::default()
        .with_checkpoint(&ckpt)
        .with_chunk_steps(4);
    let run = serve_resilient(&engine, &queue, policy, metric, 0xD15C0, &run_policy).unwrap();
    assert!(run.is_clean() && run.is_complete());
    assert_eq!(run.resumed_from, 0);
    assert_eq!(report_from_run(&run, 0), reference);

    // Re-running against the completed checkpoint replays every group
    // from the frame file — a full codec round-trip of GroupAgg.
    let resumed = serve_resilient(&engine, &queue, policy, metric, 0xD15C0, &run_policy).unwrap();
    assert_eq!(resumed.resumed_from, queue.arrival_steps().len());
    assert_eq!(report_from_run(&resumed, 0), reference);
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn ample_capacity_admission_reproduces_the_uncapacitated_outcomes() {
    let queue = queue_from(WorkloadKind::Uniform, 80, 41);
    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    let per_step = HoldPolicy::disabled();
    let engine = SweepEngine::new(sim());
    let model = CapacityModel {
        attempt_rate_hz: 1e9,
        window_s: 30.0,
    };
    let admitted = serve_overload(
        &engine,
        &queue,
        policy,
        metric,
        Some(model),
        &per_step,
        &OverloadPolicy::disabled(),
    );
    assert_eq!(admitted.congestion_deferrals, 0);
    assert_eq!(
        admitted.outcomes,
        serve_full_with_holds(&engine, &queue, policy, metric, &per_step)
    );
}

#[test]
fn zero_capacity_expires_everything_and_counts_deferrals() {
    let queue = queue_from(WorkloadKind::Uniform, 40, 43);
    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    let engine = SweepEngine::new(sim());
    let model = CapacityModel {
        attempt_rate_hz: 0.0,
        window_s: 30.0,
    };
    let admit = |engine: &SweepEngine<'_>, policy: RetryPolicy| {
        serve_overload(
            engine,
            &queue,
            policy,
            metric,
            Some(model),
            &HoldPolicy::disabled(),
            &OverloadPolicy::disabled(),
        )
    };
    let admitted = admit(&engine, policy);
    assert!(admitted
        .outcomes
        .iter()
        .all(|o| matches!(o, RetryOutcome::Expired { .. })));
    assert_eq!(admitted.served_count(), 0);
    // Every routable attempt was a budget deferral.
    assert!(admitted.congestion_deferrals > 0);
    // Deterministic across runs.
    assert_eq!(admitted, admit(&engine, policy));

    // With one attempt each, the deferrals are exactly the routable
    // requests: an unroutable request fails routing, not admission. A
    // fault storm makes some requests unroutable.
    let faults = Arc::new(FaultModel::standard(3).with_intensity(6.0).compile(sim()));
    let faulted = SweepEngine::new(sim()).with_faults(faults);
    let single = RetryPolicy::none();
    let routable = serve_full_with_holds(&faulted, &queue, single, metric, &HoldPolicy::disabled())
        .iter()
        .filter(|o| o.distribution().is_some())
        .count();
    assert!(0 < routable && routable < queue.len(), "{routable}");
    assert_eq!(
        admit(&faulted, single).congestion_deferrals,
        routable as u64
    );
}

#[test]
fn workload_generators_emit_valid_deterministic_streams() {
    for kind in [
        WorkloadKind::Uniform,
        WorkloadKind::Poisson,
        WorkloadKind::Diurnal,
        WorkloadKind::Hotspot,
        WorkloadKind::FlashCrowd,
    ] {
        let a = generate(sim(), kind, 200, 9);
        let b = generate(sim(), kind, 200, 9);
        assert_eq!(a, b, "{kind:?} not deterministic");
        let c = generate(sim(), kind, 200, 10);
        assert_ne!(a, c, "{kind:?} ignores the seed");
        assert_eq!(a.len(), 200);
        let (queue, rejected) = ingest(sim().hosts().len(), sim().steps(), &a);
        assert!(rejected.is_empty(), "{kind:?} emitted invalid requests");
        assert_eq!(queue.len(), 200);
        for r in &a {
            assert!(r.arrival_step < sim().steps());
            let src_lan = sim().hosts()[r.src].lan().unwrap();
            let dst_lan = sim().hosts()[r.dst].lan().unwrap();
            assert_ne!(src_lan, dst_lan, "{kind:?} emitted an intra-LAN pair");
        }
    }
    // Hotspot skews: well over half the traffic rides the hot LAN pair.
    let hot = generate(sim(), WorkloadKind::Hotspot, 400, 3);
    let on_pair = hot
        .iter()
        .filter(|r| {
            let a = sim().hosts()[r.src].lan().unwrap();
            let b = sim().hosts()[r.dst].lan().unwrap();
            (a, b) == (0, 1)
        })
        .count();
    assert!(on_pair > 200, "hotspot skew too weak: {on_pair}/400");
}

#[test]
fn malformed_stream_is_rejected_per_request_and_the_rest_is_served() {
    let hosts = sim().hosts().len();
    let steps = sim().steps();
    let mut stream = generate(sim(), WorkloadKind::Uniform, 30, 55);
    stream.push(RawRequest {
        src: usize::MAX,
        dst: 0,
        arrival_step: 0,
        deadline_steps: 5,
        priority: 0,
    });
    stream.push(RawRequest {
        src: 0,
        dst: 0,
        arrival_step: 0,
        deadline_steps: 5,
        priority: 0,
    });
    stream.push(RawRequest {
        src: 0,
        dst: 1,
        arrival_step: usize::MAX,
        deadline_steps: 5,
        priority: 0,
    });
    let (queue, rejected) = ingest(hosts, steps, &stream);
    assert_eq!(queue.len(), 30);
    assert_eq!(rejected.len(), 3);
    let engine = SweepEngine::new(sim());
    let report = serve_report_with_holds(
        &engine,
        &queue,
        RetryPolicy::standard(),
        RouteMetric::PaperInverseEta,
        &HoldPolicy::disabled(),
        rejected.len() as u64,
    );
    assert_eq!(report.attempted, 30);
    assert_eq!(report.rejected, 3);
}

#[test]
fn empty_served_set_reports_explicit_null_percentiles() {
    // Regression: nearest-rank p50/p95 on a run that served nothing used
    // to report 0 — indistinguishable from "everything served with zero
    // wait". The empty case is now explicit (`None` / JSON `null`).
    let all_expired: Vec<RetryOutcome> = (0..4)
        .map(|_| RetryOutcome::Expired { attempts: 2 })
        .collect();
    let classes = vec![0usize; 4];
    let agg = GroupAgg::from_outcomes(&all_expired, &classes);
    let report = report_from_aggs(&[agg], 1);
    assert_eq!(report.served(), 0);
    assert_eq!(report.p50_wait_steps, None);
    assert_eq!(report.p95_wait_steps, None);
    let json = report.to_json();
    assert!(json.contains("\"p50_wait_steps\": null"), "{json}");
    assert!(json.contains("\"p95_wait_steps\": null"), "{json}");

    // No aggregates at all (a run with zero accepted requests) likewise.
    let empty = report_from_aggs(&[], 0);
    assert_eq!(empty.p50_wait_steps, None);
    assert_eq!(empty.p95_wait_steps, None);

    // And a run that did serve keeps reporting concrete numbers.
    let queue = queue_from(WorkloadKind::Uniform, 80, 3);
    let engine = SweepEngine::new(sim());
    let served = serve_report_with_holds(
        &engine,
        &queue,
        RetryPolicy::standard(),
        RouteMetric::PaperInverseEta,
        &HoldPolicy::disabled(),
        0,
    );
    if served.served() > 0 {
        let p50 = served.p50_wait_steps.expect("served set is non-empty");
        let p95 = served.p95_wait_steps.expect("served set is non-empty");
        assert!(p50 <= p95);
        assert!(served
            .to_json()
            .contains(&format!("\"p95_wait_steps\": {p95}")));
    }
}

#[test]
fn hold_serving_with_zero_floor_never_serves_fewer() {
    // A horizon-H graph contains every layer-0 edge, so any request the
    // per-step path serves stays reachable: with no fidelity floor the
    // served set can only grow.
    let queue = queue_from(WorkloadKind::Hotspot, 120, 9);
    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    let engine = SweepEngine::new(sim());
    let base = serve_report_with_holds(&engine, &queue, policy, metric, &HoldPolicy::disabled(), 0);
    for horizon in [1usize, 4, 10] {
        let hold = HoldPolicy::with_horizon(horizon);
        let held = serve_report_with_holds(&engine, &queue, policy, metric, &hold, 0);
        assert!(
            held.served() >= base.served(),
            "horizon {horizon}: {} < {}",
            held.served(),
            base.served()
        );
    }
}

#[test]
fn a_horizon_past_the_day_serves_like_the_whole_day() {
    // `usize::MAX` saturates to the day's last step instead of overflowing,
    // so every window is the one a horizon of the day's length builds.
    let queue = queue_from(WorkloadKind::Uniform, 60, 41);
    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    let engine = SweepEngine::new(sim());
    let serve = |horizon| {
        serve_full_with_holds(
            &engine,
            &queue,
            policy,
            metric,
            &HoldPolicy::with_horizon(horizon),
        )
    };
    assert_eq!(serve(usize::MAX), serve(sim().steps()));
}

#[test]
fn fidelity_floor_cuts_deliveries_monotonically() {
    let queue = queue_from(WorkloadKind::Uniform, 100, 27);
    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    let engine = SweepEngine::new(sim());
    let mut prev_served = u64::MAX;
    for floor in [0.0, 0.8, 0.9, 0.97, 1.1] {
        let hold = HoldPolicy {
            fidelity_floor: floor,
            ..HoldPolicy::with_horizon(4)
        };
        let report = serve_report_with_holds(&engine, &queue, policy, metric, &hold, 0);
        assert!(report.served() <= prev_served, "floor {floor}: served grew");
        prev_served = report.served();
    }
    // A floor above 1.0 is unsatisfiable: nothing can be served.
    assert_eq!(prev_served, 0);
}

// ---------------------------------------------------------------------------
// Overload control (crate::overload)
// ---------------------------------------------------------------------------

#[test]
fn disabled_overload_reproduces_the_hold_path_bitwise() {
    // The zero-config differential contract: without a capacity model
    // and with the overload layer off, walking every group in one range
    // must serve exactly as the parallel ranges do — clean and faulted,
    // with and without a horizon.
    let queue = queue_from(WorkloadKind::Diurnal, 130, 19);
    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    let disabled = OverloadPolicy::disabled();
    let faults = Arc::new(FaultModel::standard(9).with_intensity(1.5).compile(sim()));
    for engine in [
        SweepEngine::new(sim()),
        SweepEngine::new(sim()).with_faults(faults),
    ] {
        for hold in [HoldPolicy::disabled(), HoldPolicy::with_horizon(4)] {
            let base = serve_full_with_holds(&engine, &queue, policy, metric, &hold);
            let over = serve_overload(&engine, &queue, policy, metric, None, &hold, &disabled);
            assert_eq!(over.outcomes, base, "horizon {}", hold.horizon_steps);
            assert_eq!(over.shed_count(), 0);
            assert_eq!(over.congestion_deferrals, 0);
            assert_eq!(over.budget_deferrals, 0);
            // Every step sits on the Normal rung when the ladder is off.
            assert_eq!(over.degrade_mode_steps, [sim().steps() as u64, 0, 0, 0]);
        }
    }
}

#[test]
fn overload_served_count_cache_matches_the_scan() {
    // Regression for the cached count: it must equal a fresh scan over
    // the outcomes, served-something and served-nothing alike.
    let queue = queue_from(WorkloadKind::Uniform, 90, 61);
    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    let engine = SweepEngine::new(sim());
    for rate in [1e9, 0.0] {
        let model = CapacityModel {
            attempt_rate_hz: rate,
            window_s: 30.0,
        };
        let admitted = serve_overload(
            &engine,
            &queue,
            policy,
            metric,
            Some(model),
            &HoldPolicy::disabled(),
            &OverloadPolicy::disabled(),
        );
        let scan = admitted
            .outcomes
            .iter()
            .filter(|o| o.distribution().is_some())
            .count();
        assert_eq!(admitted.served_count(), scan, "rate {rate}");
    }
}

#[test]
fn zero_utilization_sheds_every_attempt_deterministically() {
    let queue = queue_from(WorkloadKind::Uniform, 60, 83);
    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    let engine = SweepEngine::new(sim());
    let overload = OverloadPolicy {
        shed: ShedPolicy {
            utilization: 0.0,
            seed: 7,
        },
        ..OverloadPolicy::disabled()
    };
    let out = serve_overload(
        &engine,
        &queue,
        policy,
        metric,
        None,
        &HoldPolicy::disabled(),
        &overload,
    );
    assert_eq!(out.served_count(), 0);
    assert_eq!(out.shed_count(), queue.len());
    assert!(out.shed.iter().all(|s| *s == Some(ShedReason::Overload)));
    // Shed before any attempt: zero attempts in every outcome.
    assert!(out
        .outcomes
        .iter()
        .all(|o| matches!(o, RetryOutcome::Expired { attempts: 0 })));
    let again = serve_overload(
        &engine,
        &queue,
        policy,
        metric,
        None,
        &HoldPolicy::disabled(),
        &overload,
    );
    assert_eq!(out, again);
}

#[test]
fn utilization_shedding_takes_lowest_priority_first() {
    // Under a tight utilization threshold the shed set must concentrate
    // on the lower classes: no shed request may outrank a surviving
    // same-step competitor.
    let queue = queue_from(WorkloadKind::Hotspot, 200, 29);
    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    let engine = SweepEngine::new(sim());
    // Sweep thresholds until one sheds part of the load (which exists by
    // the monotone staircase between shed-nothing at ∞ and shed-all at 0).
    let mut checked = false;
    for utilization in [0.05, 0.1, 0.2, 0.3, 0.5, 0.8] {
        let overload = OverloadPolicy {
            shed: ShedPolicy {
                utilization,
                seed: 11,
            },
            ..OverloadPolicy::disabled()
        };
        let out = serve_overload(
            &engine,
            &queue,
            policy,
            metric,
            None,
            &HoldPolicy::disabled(),
            &overload,
        );
        // Aggregate fairness check at a partial shed: the mean priority
        // of shed requests never exceeds the mean priority of survivors.
        let (mut shed_sum, mut shed_n, mut kept_sum, mut kept_n) = (0u64, 0u64, 0u64, 0u64);
        for qi in 0..queue.len() {
            if out.shed[qi].is_some() {
                shed_sum += queue.priority(qi) as u64;
                shed_n += 1;
            } else {
                kept_sum += queue.priority(qi) as u64;
                kept_n += 1;
            }
        }
        if shed_n == 0 || kept_n == 0 {
            continue;
        }
        checked = true;
        assert!(
            shed_sum * kept_n <= kept_sum * shed_n,
            "at utilization {utilization} shed requests outrank survivors: \
             shed mean {} vs kept mean {}",
            shed_sum as f64 / shed_n as f64,
            kept_sum as f64 / kept_n as f64
        );
    }
    assert!(checked, "no utilization produced a partial shed");
}

#[test]
fn exhausted_retry_budget_defers_then_sheds_retries() {
    // A zero-refill budget denies every retry: the run still serves
    // first attempts, but anything that needed a retry is deferred while
    // slots remain and shed (RetryBudget) when they run out — so the
    // served set can only shrink against the unbudgeted run. A congested
    // admission model forces first attempts to fail, so retries exist.
    let queue = queue_from(WorkloadKind::Hotspot, 300, 37);
    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    let engine = SweepEngine::new(sim());
    let hold_off = HoldPolicy::disabled();
    // ~1 pair per link per step: the hotspot pair contends every step.
    let model = CapacityModel {
        attempt_rate_hz: 0.05,
        window_s: 30.0,
    };
    let unbudgeted = serve_overload(
        &engine,
        &queue,
        policy,
        metric,
        Some(model),
        &hold_off,
        &OverloadPolicy::disabled(),
    );
    // The fixture must generate retries at all, or the budget is idle.
    assert!(
        unbudgeted.outcomes.iter().any(|o| matches!(
            o,
            RetryOutcome::ServedAfterRetry { .. } | RetryOutcome::Expired { attempts: 2.. }
        )),
        "fixture produced no retries"
    );
    let overload = OverloadPolicy {
        budget: RetryBudget {
            global_per_step: 0.0,
            global_burst: 0.0,
            class_per_step: [0.0; qntn_serve::PRIORITY_CLASSES],
            class_burst: [0.0; qntn_serve::PRIORITY_CLASSES],
        },
        ..OverloadPolicy::disabled()
    };
    let budgeted = serve_overload(
        &engine,
        &queue,
        policy,
        metric,
        Some(model),
        &hold_off,
        &overload,
    );
    // Denying retries never costs a first attempt: retries only consume
    // link budget, so removing them from a step's admit set can only free
    // budget for first attempts.
    let first_tries = |o: &[RetryOutcome]| {
        o.iter()
            .filter(|r| matches!(r, RetryOutcome::ServedFirstTry(_)))
            .count()
    };
    assert!(first_tries(&budgeted.outcomes) >= first_tries(&unbudgeted.outcomes));
    // No retry ever ran: every served outcome is a first try, and every
    // denied retry was deferred or shed.
    assert!(budgeted
        .outcomes
        .iter()
        .all(|o| !matches!(o, RetryOutcome::ServedAfterRetry { .. })));
    assert!(
        budgeted.budget_deferrals > 0 || budgeted.shed_count_for(ShedReason::RetryBudget) > 0,
        "fixture produced no retries to deny"
    );
}

#[test]
fn degrade_ladder_sheds_classes_under_a_fault_storm() {
    // Thresholds above 1.0 engage the deepest rung on every step: the
    // whole timeline runs degraded and every request is shed before its
    // first attempt.
    let queue = queue_from(WorkloadKind::Uniform, 70, 53);
    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    let engine = SweepEngine::new(sim());
    let overload = OverloadPolicy {
        degrade: DegradePolicy {
            no_holds_below: 1.1,
            stretch_backoff_below: 1.1,
            shed_class_below: [1.1; qntn_serve::PRIORITY_CLASSES],
        },
        ..OverloadPolicy::disabled()
    };
    let out = serve_overload(
        &engine,
        &queue,
        policy,
        metric,
        None,
        &HoldPolicy::disabled(),
        &overload,
    );
    assert_eq!(out.shed_count(), queue.len());
    assert!(out.shed.iter().all(|s| *s == Some(ShedReason::Degraded)));
    assert_eq!(out.degrade_mode_steps, [0, 0, 0, sim().steps() as u64]);
}

#[test]
fn overload_report_carries_the_new_counters() {
    let queue = queue_from(WorkloadKind::Hotspot, 160, 71);
    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    let engine = SweepEngine::new(sim());
    let overload = OverloadPolicy {
        shed: ShedPolicy {
            utilization: 0.05,
            seed: 3,
        },
        ..OverloadPolicy::disabled()
    };
    let out = serve_overload(
        &engine,
        &queue,
        policy,
        metric,
        None,
        &HoldPolicy::disabled(),
        &overload,
    );
    let report = overload_report(&out, &queue, 2);
    assert_eq!(report.rejected, 2);
    assert_eq!(report.shed, out.shed_count() as u64);
    assert_eq!(report.deferred_by_budget, out.budget_deferrals);
    assert_eq!(report.degrade_mode_steps, out.degrade_mode_steps);
    // Shed requests are a subset of expired: the report still accounts
    // for every request.
    assert_eq!(report.attempted, report.served() + report.expired);
    assert!(report.shed <= report.expired);
    let json = report.to_json();
    assert!(json.contains("\"shed\""), "{json}");
    assert!(json.contains("\"deferred_by_budget\""), "{json}");
    assert!(json.contains("\"degrade_mode_steps\""), "{json}");
    // The group driver's report carries the counters at zero.
    let base = serve_report_with_holds(&engine, &queue, policy, metric, &HoldPolicy::disabled(), 0);
    assert_eq!(base.shed, 0);
    assert_eq!(base.deferred_by_budget, 0);
    assert_eq!(base.degrade_mode_steps, [0; qntn_serve::DEGRADE_MODES]);
}

#[test]
fn shed_counts_are_monotone_in_offered_load_and_fault_intensity() {
    // The by-construction monotonicity contract on the single-attempt
    // path (no retry dynamics): prefix workloads only grow each step's
    // bucket, fault schedules nest, so sheds only grow. The root
    // proptests in tests/overload.rs randomize this; here we pin one
    // deterministic staircase.
    let single = RetryPolicy {
        max_attempts: 1,
        backoff_steps: 0,
        deadline_steps: 20,
    };
    let metric = RouteMetric::PaperInverseEta;
    let overload = OverloadPolicy {
        shed: ShedPolicy {
            utilization: 0.1,
            seed: 13,
        },
        degrade: DegradePolicy::standard(),
        ..OverloadPolicy::disabled()
    };
    let hold_off = HoldPolicy::disabled();
    // Offered load: streams of one seed are prefixes of one another.
    let mut prev = 0usize;
    for n in [50usize, 150, 300] {
        let queue = queue_from(WorkloadKind::Uniform, n, 101);
        let engine = SweepEngine::new(sim());
        let out = serve_overload(&engine, &queue, single, metric, None, &hold_off, &overload);
        assert!(
            out.shed_count() >= prev,
            "shed fell from {prev} to {} at n={n}",
            out.shed_count()
        );
        prev = out.shed_count();
    }
    // Fault intensity: masks nest, health only drops, budgets only shrink.
    let queue = queue_from(WorkloadKind::Uniform, 200, 101);
    let mut prev = 0usize;
    for intensity in [0.0, 1.0, 2.5, 5.0] {
        let faults = Arc::new(
            FaultModel::standard(21)
                .with_intensity(intensity)
                .compile(sim()),
        );
        let engine = SweepEngine::new(sim()).with_faults(faults);
        let out = serve_overload(&engine, &queue, single, metric, None, &hold_off, &overload);
        assert!(
            out.shed_count() >= prev,
            "shed fell from {prev} to {} at intensity {intensity}",
            out.shed_count()
        );
        prev = out.shed_count();
    }
}

#[test]
fn flash_crowd_bursts_dominate_and_are_seed_deterministic() {
    let a = generate(sim(), WorkloadKind::FlashCrowd, 400, 19);
    let b = generate(sim(), WorkloadKind::FlashCrowd, 400, 19);
    assert_eq!(a, b, "flash crowd not deterministic");
    let c = generate(sim(), WorkloadKind::FlashCrowd, 400, 20);
    assert_ne!(a, c, "flash crowd ignores the seed");
    let (_, rejected) = ingest(sim().hosts().len(), sim().steps(), &a);
    assert!(rejected.is_empty());

    // The default shape covers at most windows × window_frac of the day;
    // the arrivals inside that sliver must still be the majority.
    let crowd = FlashCrowdConfig::default();
    let cover = ((sim().steps() as f64 * crowd.window_frac).round() as usize).max(1);
    let mut per_step = vec![0usize; sim().steps()];
    for r in &a {
        per_step[r.arrival_step] += 1;
    }
    let mut counts: Vec<usize> = per_step.clone();
    counts.sort_unstable_by(|x, y| y.cmp(x));
    let burst_like: usize = counts.iter().take(crowd.windows * cover).sum();
    assert!(
        burst_like * 2 > a.len(),
        "burst steps hold {burst_like}/{} arrivals — bursts do not dominate",
        a.len()
    );

    // The explicit-config entry point honours the amplitude axis: a flat
    // amplitude of 1 is statistically uniform (no dominating sliver).
    let flat = qntn_serve::flash_crowd(
        sim(),
        400,
        19,
        FlashCrowdConfig {
            amplitude: 1.0,
            ..FlashCrowdConfig::default()
        },
    );
    let mut flat_per_step = vec![0usize; sim().steps()];
    for r in &flat {
        flat_per_step[r.arrival_step] += 1;
    }
    let mut flat_counts: Vec<usize> = flat_per_step;
    flat_counts.sort_unstable_by(|x, y| y.cmp(x));
    let flat_top: usize = flat_counts.iter().take(crowd.windows * cover).sum();
    assert!(
        flat_top * 2 < flat.len(),
        "amplitude 1 still bursts: {flat_top}/{}",
        flat.len()
    );
}

// ---------------------------------------------------------------------------
// Bit goldens of the serving walk
// ---------------------------------------------------------------------------

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Every field of `outcome` as words: its variant, attempts and wait, and
/// the distribution's path and floats as bits.
fn push_outcome(words: &mut Vec<u64>, outcome: &RetryOutcome) {
    let (tag, attempts, waited) = match outcome {
        RetryOutcome::ServedFirstTry(_) => (0, 1, 0),
        RetryOutcome::ServedAfterRetry {
            attempts,
            waited_steps,
            ..
        } => (1, *attempts, *waited_steps),
        RetryOutcome::Expired { attempts } => (2, *attempts, 0),
    };
    words.extend([tag, attempts as u64, waited as u64]);
    if let Some(d) = outcome.distribution() {
        words.push(d.path.len() as u64);
        words.extend(d.path.iter().map(|&n| n as u64));
        words.extend([d.eta, d.fidelity, d.fidelity_jozsa, d.mean_link_fidelity].map(f64::to_bits));
    }
}

#[test]
fn overload_outcomes_match_their_golden_bits() {
    // Every overload mechanism fires on one faulted day with holds on:
    // link budgets defer attempts, the retry budget defers and sheds
    // retries, the utilization threshold sheds, and the ladder's health
    // walks all four rungs, so some steps route at horizon 4, some at 0
    // with stretched backoff, and some shed whole classes.
    let faults = Arc::new(FaultModel::standard(13).with_intensity(2.0).compile(sim()));
    let engine = SweepEngine::new(sim()).with_faults(faults);
    let queue = queue_from(WorkloadKind::Uniform, 240, 7);
    let overload = OverloadPolicy {
        budget: RetryBudget {
            global_per_step: 2.0,
            global_burst: 4.0,
            class_per_step: [1.0; qntn_serve::PRIORITY_CLASSES],
            class_burst: [2.0; qntn_serve::PRIORITY_CLASSES],
        },
        shed: ShedPolicy {
            utilization: 0.6,
            seed: 17,
        },
        degrade: DegradePolicy {
            no_holds_below: 0.95,
            stretch_backoff_below: 0.8,
            shed_class_below: [0.65, 0.5, 0.0, 0.0],
        },
    };
    let model = CapacityModel {
        attempt_rate_hz: 0.1,
        window_s: 30.0,
    };
    let out = serve_overload(
        &engine,
        &queue,
        RetryPolicy::standard(),
        RouteMetric::PaperInverseEta,
        Some(model),
        &HoldPolicy::with_horizon(4),
        &overload,
    );
    assert!(out.congestion_deferrals > 0 && out.budget_deferrals > 0);
    for reason in [
        ShedReason::Overload,
        ShedReason::RetryBudget,
        ShedReason::Degraded,
    ] {
        assert!(out.shed_count_for(reason) > 0, "{reason:?}");
    }
    assert!(out.degrade_mode_steps.iter().all(|&n| n > 0));
    assert!(out
        .outcomes
        .iter()
        .any(|o| matches!(o, RetryOutcome::ServedAfterRetry { .. })));

    let mut words = vec![
        out.congestion_deferrals,
        out.budget_deferrals,
        out.served_count() as u64,
    ];
    words.extend(out.degrade_mode_steps);
    for (outcome, shed) in out.outcomes.iter().zip(&out.shed) {
        push_outcome(&mut words, outcome);
        words.push(match shed {
            None => 0,
            Some(ShedReason::Overload) => 1,
            Some(ShedReason::RetryBudget) => 2,
            Some(ShedReason::Degraded) => 3,
        });
    }
    // 58 of 240 served; 35 congestion and 56 budget deferrals; 69, 26
    // and 58 shed by overload, retry budget and ladder; rungs held for 6,
    // 11, 14 and 29 steps.
    assert_eq!(out.outcomes.len(), queue.len());
    assert_eq!(fnv1a(&words), 0xd5d2_7020_5966_0639, "{out:#?}");
}

#[test]
fn faulted_hold_outcomes_match_their_golden_bits() {
    let faults = Arc::new(FaultModel::standard(7).with_intensity(2.5).compile(sim()));
    let engine = SweepEngine::new(sim()).with_faults(faults);
    let queue = queue_from(WorkloadKind::Poisson, 150, 23);
    let digests: Vec<u64> = [4, 16]
        .map(|horizon| {
            let outcomes = serve_full_with_holds(
                &engine,
                &queue,
                RetryPolicy::standard(),
                RouteMetric::PaperInverseEta,
                &HoldPolicy::with_horizon(horizon),
            );
            // Some first attempts are rescued by a held memory.
            assert!(
                outcomes
                    .iter()
                    .any(|o| matches!(o, RetryOutcome::ServedAfterRetry { attempts: 1, .. })),
                "horizon {horizon}"
            );
            let mut words = Vec::new();
            for outcome in &outcomes {
                push_outcome(&mut words, outcome);
            }
            fnv1a(&words)
        })
        .to_vec();
    assert_eq!(digests, [0x4c94_2802_1d45_b768, 0x29dc_ed69_6bcf_1c77]);
}
