//! Differential property tests for the serving kernel's time axis.
//!
//! `qntn-serve` routes every attempt over a time-expanded graph; its
//! correctness anchor is the zero-horizon contract: with
//! [`HoldPolicy::disabled`] (horizon 0, zero memory, no floor) the kernel
//! must reproduce per-step routing **bit for bit** — the naive oracle
//! `RequestWorkload::evaluate_with_retries`, one Bellman–Ford per request
//! per attempt on the per-step graph — clean and under arbitrary fault
//! seeds, for *arbitrary* constellations and workloads, not just the
//! hand-picked fixtures in the serve crate's unit tests. With memories
//! enabled and no fidelity floor, the horizon-H graph contains every
//! layer-0 edge, so holding may only add served requests.
//!
//! Case counts are small by default so `cargo test` stays fast; the
//! nightly CI job sets `PROPTEST_CASES=2048` to deepen every block.

use proptest::prelude::*;
use qntn::geo::{Epoch, Geodetic};
use qntn::net::faults::{CompiledFaults, FaultModel};
use qntn::net::{
    Host, QuantumNetworkSim, Request, RequestWorkload, RetryOutcome, RetryPolicy, SimConfig,
    SweepEngine,
};
use qntn::orbit::{paper_constellation, Ephemeris, PerturbationModel, Propagator};
use qntn::routing::RouteMetric;
use qntn::serve::{
    generate, ingest, serve_full_with_holds, HoldPolicy, RequestQueue, WorkloadKind,
};
use std::sync::Arc;

/// `ProptestConfig` with `n` cases, overridable via `PROPTEST_CASES`
/// (nightly CI runs this suite with `PROPTEST_CASES=2048`).
fn cases_or(n: u32) -> ProptestConfig {
    ProptestConfig::with_cases(proptest::test_runner::env_case_count().unwrap_or(n))
}

/// Three LANs of ground nodes plus an `n_sats` Walker shell — the smallest
/// shape on which inter-LAN serving is non-trivial.
fn sim_with(n_sats: usize, steps: usize) -> QuantumNetworkSim {
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
    ];
    let props: Vec<Propagator> = paper_constellation(n_sats)
        .into_iter()
        .map(|k| Propagator::new(k, Epoch::J2000, PerturbationModel::TwoBody))
        .collect();
    let ephs = Ephemeris::generate_many(&props, Epoch::J2000, 30.0, steps as f64 * 30.0);
    for (i, eph) in ephs.into_iter().enumerate() {
        hosts.push(Host::satellite(format!("SAT-{i:03}"), eph, 1.2));
    }
    QuantumNetworkSim::new(hosts, SimConfig::default(), steps, 30.0)
}

fn workload_kind(ix: usize) -> WorkloadKind {
    [
        WorkloadKind::Uniform,
        WorkloadKind::Poisson,
        WorkloadKind::Diurnal,
        WorkloadKind::Hotspot,
    ][ix % 4]
}

fn queue_for(sim: &QuantumNetworkSim, kind: WorkloadKind, n: usize, seed: u64) -> RequestQueue {
    let stream = generate(sim, kind, n, seed);
    let (queue, _rejected) = ingest(sim.hosts().len(), sim.steps(), &stream);
    queue
}

/// The naive oracle, one request at a time:
/// `RequestWorkload::evaluate_with_retries` with the request's effective
/// deadline (the tighter of its own and the policy's) folded into the
/// policy. Outcomes in queue order.
fn naive_oracle(
    sim: &QuantumNetworkSim,
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
                .evaluate_with_retries(sim, queue.arrival(qi), metric, policy, faults)
                .remove(0)
        })
        .collect()
}

fn served(outcomes: &[RetryOutcome]) -> usize {
    outcomes
        .iter()
        .filter(|o| {
            matches!(
                o,
                RetryOutcome::ServedFirstTry(_) | RetryOutcome::ServedAfterRetry { .. }
            )
        })
        .count()
}

proptest! {
    #![proptest_config(cases_or(12))]

    /// The zero-horizon differential contract, clean pipeline: the kernel
    /// at the disabled hold policy ≡ the naive per-step oracle, outcome for
    /// outcome, for arbitrary constellations and workloads.
    #[test]
    fn zero_horizon_zero_memory_serving_is_bit_identical_to_per_step(
        n_sats in 2usize..6,
        steps in 24usize..48,
        kind_ix in 0usize..4,
        n_requests in 50usize..200,
        seed in any::<u64>(),
        policy_ix in 0usize..2,
        metric_ix in 0usize..3,
    ) {
        let sim = sim_with(n_sats, steps);
        let engine = SweepEngine::new(&sim);
        let queue = queue_for(&sim, workload_kind(kind_ix), n_requests, seed);
        // A single attempt is the paper's request sweep; the metrics other
        // than the paper's are ablation A1's.
        let policy = [RetryPolicy::none(), RetryPolicy::standard()][policy_ix];
        let metric = [
            RouteMetric::PaperInverseEta,
            RouteMetric::NegLogEta,
            RouteMetric::HopCount,
        ][metric_ix];
        let clean = CompiledFaults::identity(sim.hosts().len(), sim.steps());
        let oracle = naive_oracle(&sim, &queue, policy, metric, &clean);
        let kernel =
            serve_full_with_holds(&engine, &queue, policy, metric, &HoldPolicy::disabled());
        prop_assert_eq!(kernel, oracle);
    }

    /// The same contract under arbitrary fault masks: the kernel must
    /// consult the identical compiled fault schedule per layer, at any
    /// worker count.
    #[test]
    fn zero_horizon_contract_holds_under_arbitrary_faults(
        workers in 1usize..=8,
        n_sats in 2usize..6,
        steps in 24usize..48,
        n_requests in 50usize..150,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        intensity in 0.0..3.0f64,
    ) {
        let sim = sim_with(n_sats, steps);
        let faults = Arc::new(
            FaultModel::standard(fault_seed)
                .with_intensity(intensity)
                .compile(&sim),
        );
        let queue = queue_for(&sim, WorkloadKind::Uniform, n_requests, seed);
        let policy = RetryPolicy::standard();
        let metric = RouteMetric::PaperInverseEta;
        let oracle = naive_oracle(&sim, &queue, policy, metric, &faults);
        let engine = SweepEngine::new(&sim).with_faults(faults).with_workers(workers);
        let kernel =
            serve_full_with_holds(&engine, &queue, policy, metric, &HoldPolicy::disabled());
        prop_assert_eq!(&kernel, &oracle, "{} workers", workers);
    }

    /// With memories and no floor, the horizon-H time-expanded graph is a
    /// superset of every per-step graph it spans, so holding can only add
    /// served requests — never lose one.
    #[test]
    fn holding_with_zero_floor_never_serves_fewer(
        n_sats in 2usize..6,
        steps in 24usize..40,
        horizon in 1usize..8,
        n_requests in 50usize..150,
        seed in any::<u64>(),
    ) {
        let sim = sim_with(n_sats, steps);
        let engine = SweepEngine::new(&sim);
        let queue = queue_for(&sim, WorkloadKind::Poisson, n_requests, seed);
        let policy = RetryPolicy::standard();
        let metric = RouteMetric::PaperInverseEta;
        let base = serve_full_with_holds(&engine, &queue, policy, metric, &HoldPolicy::disabled());
        let held = serve_full_with_holds(
            &engine,
            &queue,
            policy,
            metric,
            &HoldPolicy::with_horizon(horizon),
        );
        prop_assert_eq!(base.len(), held.len());
        prop_assert!(
            served(&held) >= served(&base),
            "horizon {} lost served requests: {} < {}",
            horizon,
            served(&held),
            served(&base)
        );
    }
}
