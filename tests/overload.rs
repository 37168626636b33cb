//! Differential and monotonicity property tests for the overload layer.
//!
//! The overload controller (`qntn::serve::overload`) has two headline
//! contracts, both pinned here for *arbitrary* constellations, workloads
//! and fault masks rather than hand-picked fixtures:
//!
//! 1. **The zero-config differential contract** — with
//!    [`OverloadPolicy::disabled`] and no capacity model, or one whose
//!    budgets no request can exhaust, `serve_overload` reproduces the
//!    per-group serve **bit for bit**, clean and faulted, at every
//!    memory horizon, with zero deferrals. Both run the one serving
//!    walk, so this pins that one range of groups equals parallel
//!    ranges and that zero-config controls are no-ops.
//! 2. **Shed monotonicity** — on the single-attempt path (no retry
//!    feedback into the agenda), shed counts never decrease as offered
//!    load grows (prefix workloads) or as fault intensity grows (nested
//!    fault schedules shrinking the live budget).
//!
//! Case counts are small by default so `cargo test` stays fast; the
//! nightly CI job sets `PROPTEST_CASES=2048` to deepen every block.

use proptest::prelude::*;
use qntn::geo::{Epoch, Geodetic};
use qntn::net::capacity::CapacityModel;
use qntn::net::faults::FaultModel;
use qntn::net::{Host, QuantumNetworkSim, RetryPolicy, SimConfig, SweepEngine};
use qntn::orbit::{paper_constellation, Ephemeris, PerturbationModel, Propagator};
use qntn::routing::RouteMetric;
use qntn::serve::{
    generate, ingest, serve_full_with_holds, serve_overload, HoldPolicy, OverloadPolicy,
    RequestQueue, ShedPolicy, WorkloadKind,
};
use std::sync::Arc;

/// `ProptestConfig` with `n` cases, overridable via `PROPTEST_CASES`
/// (nightly CI runs this suite with `PROPTEST_CASES=2048`).
fn cases_or(n: u32) -> ProptestConfig {
    ProptestConfig::with_cases(proptest::test_runner::env_case_count().unwrap_or(n))
}

/// Three LANs of ground nodes plus an `n_sats` Walker shell — the smallest
/// shape on which inter-LAN serving is non-trivial (see `tests/timexp.rs`).
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

fn queue_for(sim: &QuantumNetworkSim, kind: WorkloadKind, n: usize, seed: u64) -> RequestQueue {
    let stream = generate(sim, kind, n, seed);
    let (queue, _rejected) = ingest(sim.hosts().len(), sim.steps(), &stream);
    queue
}

/// The single-attempt retry policy: no backoff, so no retry dynamics feed
/// back into the agenda and shed monotonicity holds by construction.
fn single_attempt() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1,
        backoff_steps: 0,
        deadline_steps: 20,
    }
}

proptest! {
    #![proptest_config(cases_or(10))]

    /// Zero-config contract with a capacity model whose budgets no request
    /// can exhaust: the capacity-admitted serve equals the per-group serve
    /// on hotspot workloads, at zero and nonzero memory horizons, for
    /// arbitrary fault masks, with zero deferrals.
    #[test]
    fn disabled_overload_equals_the_admission_serve_bitwise(
        n_sats in 2usize..5,
        steps in 24usize..40,
        horizon in 0usize..5,
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
        let engine = SweepEngine::new(&sim).with_faults(faults);
        let queue = queue_for(&sim, WorkloadKind::Hotspot, n_requests, seed);
        let policy = RetryPolicy::standard();
        let metric = RouteMetric::PaperInverseEta;
        let hold = if horizon == 0 {
            HoldPolicy::disabled()
        } else {
            HoldPolicy::with_horizon(horizon)
        };
        let model = CapacityModel {
            attempt_rate_hz: 1e9,
            window_s: 30.0,
        };
        let base = serve_full_with_holds(&engine, &queue, policy, metric, &hold);
        let out = serve_overload(
            &engine,
            &queue,
            policy,
            metric,
            Some(model),
            &hold,
            &OverloadPolicy::disabled(),
        );
        prop_assert_eq!(&out.outcomes, &base);
        prop_assert_eq!(out.congestion_deferrals, 0);
        prop_assert_eq!(
            out.served_count(),
            base.iter().filter(|o| o.distribution().is_some()).count()
        );
        prop_assert_eq!(out.shed_count(), 0);
        prop_assert_eq!(out.budget_deferrals, 0);
    }

    /// Zero-config contract against the uncapacitated per-group serve, at
    /// zero and nonzero memory horizons, clean and faulted.
    #[test]
    fn disabled_overload_equals_the_hold_path_bitwise(
        n_sats in 2usize..5,
        steps in 24usize..40,
        horizon in 0usize..5,
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
        let engine = SweepEngine::new(&sim).with_faults(faults);
        let queue = queue_for(&sim, WorkloadKind::Poisson, n_requests, seed);
        let policy = RetryPolicy::standard();
        let metric = RouteMetric::PaperInverseEta;
        let hold = if horizon == 0 {
            HoldPolicy::disabled()
        } else {
            HoldPolicy::with_horizon(horizon)
        };
        let base = serve_full_with_holds(&engine, &queue, policy, metric, &hold);
        let out = serve_overload(
            &engine,
            &queue,
            policy,
            metric,
            None,
            &hold,
            &OverloadPolicy::disabled(),
        );
        prop_assert_eq!(&out.outcomes, &base);
        prop_assert_eq!(out.shed_count(), 0);
        prop_assert_eq!(out.congestion_deferrals, 0);
    }

    /// On the single-attempt path, growing the offered load (a prefix
    /// workload: the smaller stream is the first `n` requests of the
    /// larger) never decreases the shed count.
    #[test]
    fn shed_counts_are_monotone_in_offered_load(
        n_sats in 2usize..5,
        steps in 24usize..40,
        seed in any::<u64>(),
        shed_seed in any::<u64>(),
        utilization in 0.05..0.5f64,
        n_small in 40usize..120,
        extra in 1usize..150,
    ) {
        let sim = sim_with(n_sats, steps);
        let engine = SweepEngine::new(&sim);
        let policy = single_attempt();
        let metric = RouteMetric::PaperInverseEta;
        let overload = OverloadPolicy {
            shed: ShedPolicy { utilization, seed: shed_seed },
            ..OverloadPolicy::disabled()
        };
        let shed_at = |n: usize| {
            let queue = queue_for(&sim, WorkloadKind::Uniform, n, seed);
            serve_overload(
                &engine,
                &queue,
                policy,
                metric,
                None,
                &HoldPolicy::disabled(),
                &overload,
            )
            .shed_count()
        };
        let small = shed_at(n_small);
        let big = shed_at(n_small + extra);
        prop_assert!(
            big >= small,
            "offered {} shed {} but offered {} shed {}",
            n_small, small, n_small + extra, big
        );
    }

    /// On the single-attempt path, growing the fault intensity (nested
    /// schedules: every fault at intensity i is present at j >= i) never
    /// decreases the shed count — dead hosts shrink the live budget.
    #[test]
    fn shed_counts_are_monotone_in_fault_intensity(
        n_sats in 2usize..5,
        steps in 24usize..40,
        n_requests in 50usize..150,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        shed_seed in any::<u64>(),
        utilization in 0.05..0.5f64,
        lo in 0.0..4.0f64,
        delta in 0.0..4.0f64,
    ) {
        let sim = sim_with(n_sats, steps);
        let queue = queue_for(&sim, WorkloadKind::Uniform, n_requests, seed);
        let policy = single_attempt();
        let metric = RouteMetric::PaperInverseEta;
        let overload = OverloadPolicy {
            shed: ShedPolicy { utilization, seed: shed_seed },
            ..OverloadPolicy::disabled()
        };
        let hi = (lo + delta).min(FaultModel::INTENSITY_CAP);
        let shed_at = |intensity: f64| {
            let engine = SweepEngine::new(&sim).with_faults(Arc::new(
                FaultModel::standard(fault_seed)
                    .with_intensity(intensity)
                    .compile(&sim),
            ));
            serve_overload(
                &engine,
                &queue,
                policy,
                metric,
                None,
                &HoldPolicy::disabled(),
                &overload,
            )
            .shed_count()
        };
        let at_lo = shed_at(lo);
        let at_hi = shed_at(hi);
        prop_assert!(
            at_hi >= at_lo,
            "intensity {} shed {} but intensity {} shed {}",
            lo, at_lo, hi, at_hi
        );
    }
}
