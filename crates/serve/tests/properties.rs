//! The serve boundary's headline property: **no panic path is reachable
//! from request input**. Arbitrary `(src, dst, arrival, deadline,
//! priority)` tuples — including out-of-range host ids, arrivals past the
//! day end, zero deadlines and degenerate pairs — flow through ingest →
//! serve (full, report, capacity-admitted) without ever panicking, and
//! the accounting always balances.
//!
//! Two execution contracts ride along: the counting-sort ingest equals
//! the stable comparison sort it replaced, and the resilient runtime
//! serves bit-identically to the in-memory report at any chunk size.
//!
//! Case counts are small by default; the nightly CI job sets
//! `PROPTEST_CASES=2048` to deepen the sweep.

use proptest::collection::vec;
use proptest::prelude::*;
use qntn_geo::{Epoch, Geodetic};
use qntn_net::capacity::CapacityModel;
use qntn_net::faults::FaultModel;
use qntn_net::requests::{RetryOutcome, RetryPolicy};
use qntn_net::runtime::RunPolicy;
use qntn_net::{Host, QuantumNetworkSim, SimConfig, SweepEngine};
use qntn_orbit::{paper_constellation, Ephemeris, PerturbationModel, Propagator};
use qntn_routing::RouteMetric;
use qntn_serve::{
    generate, ingest, report_from_run, serve_full_with_holds, serve_overload,
    serve_report_with_holds, serve_resilient, HoldPolicy, OverloadPolicy, RawRequest, ServeError,
    WorkloadKind,
};
use std::sync::{Arc, OnceLock};

/// Shared small fixture (see `tests/serve.rs`); 40 steps keeps the retry
/// schedules short without losing the satellite links.
fn sim() -> &'static QuantumNetworkSim {
    static SIM: OnceLock<QuantumNetworkSim> = OnceLock::new();
    SIM.get_or_init(|| {
        let steps = 40;
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

fn cases_or(n: u32) -> ProptestConfig {
    ProptestConfig::with_cases(proptest::test_runner::env_case_count().unwrap_or(n))
}

/// Raw request tuples biased toward the interesting boundaries: ids that
/// straddle the host count (the fixture has 6 hosts), arrivals that
/// straddle the 40-step day, tiny and huge deadlines. (The vendored
/// proptest has no `prop_oneof`, so the skew is a mapped range.)
fn raw_request() -> impl Strategy<Value = RawRequest> {
    fn skew(v: u64, common: usize) -> usize {
        match v % 10 {
            // Mostly in or just past the common range...
            0..=7 => (v / 10) as usize % (common + 2),
            // ...with extreme values mixed in.
            8 => usize::MAX,
            _ => usize::MAX - (v as usize % 3),
        }
    }
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(a, b, c, d, e)| RawRequest {
            src: skew(a, 6),
            dst: skew(b, 6),
            arrival_step: skew(c, 40),
            deadline_steps: skew(d, 45),
            priority: (e % 256) as u8,
        })
}

/// The ingest order before the counting sort, kept as its oracle: the
/// accepted requests (every stream index `ingest` did not reject) as
/// `(stream index, request)` pairs, stably sorted by arrival with a
/// comparison sort.
fn stably_sorted_accepted(
    stream: &[RawRequest],
    rejected: &[(usize, ServeError)],
) -> Vec<(usize, RawRequest)> {
    let mut refused = rejected.iter().map(|&(i, _)| i).peekable();
    let mut accepted: Vec<(usize, RawRequest)> = Vec::new();
    for (i, r) in stream.iter().enumerate() {
        if refused.next_if_eq(&i).is_none() {
            accepted.push((i, *r));
        }
    }
    accepted.sort_by_key(|(_, r)| r.arrival_step);
    accepted
}

proptest! {
    #![proptest_config(cases_or(24))]

    /// The counting-sort ingest builds exactly the queue, groups and
    /// rejection list of the stable comparison sort it replaced, for any
    /// host count and day length (arrivals past the day are rejected and
    /// never size the count table).
    #[test]
    fn counting_sort_ingest_equals_the_stable_sort(
        stream in vec(raw_request(), 0..200),
        hosts in 0usize..8,
        steps in 0usize..45,
    ) {
        let (queue, rejected) = ingest(hosts, steps, &stream);
        prop_assert!(rejected.windows(2).all(|w| w[0].0 < w[1].0));
        let oracle = stably_sorted_accepted(&stream, &rejected);
        prop_assert_eq!(queue.len(), oracle.len());
        prop_assert_eq!(queue.len() + rejected.len(), stream.len());
        for (qi, (i, r)) in oracle.iter().enumerate() {
            prop_assert_eq!(queue.original_index(qi), *i);
            prop_assert_eq!(
                (queue.src(qi), queue.dst(qi), queue.arrival(qi)),
                (r.src, r.dst, r.arrival_step)
            );
            prop_assert_eq!((queue.deadline(qi), queue.priority(qi)), (r.deadline_steps, r.priority));
        }
        let mut groups: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        for (qi, (_, r)) in oracle.iter().enumerate() {
            match groups.last_mut() {
                Some((step, range)) if *step == r.arrival_step => range.end = qi + 1,
                _ => groups.push((r.arrival_step, qi..qi + 1)),
            }
        }
        prop_assert_eq!(queue.groups(), &groups[..]);
    }

    #[test]
    fn ingest_then_serve_never_panics(
        stream in vec(raw_request(), 0..40),
        backoff in 0usize..4,
        deadline in 0usize..30,
        max_attempts in 1usize..5,
    ) {
        let hosts = sim().hosts().len();
        let steps = sim().steps();
        let (queue, rejected) = ingest(hosts, steps, &stream);
        prop_assert_eq!(queue.len() + rejected.len(), stream.len());

        // Every accepted request satisfies the boundary invariants.
        for i in 0..queue.len() {
            prop_assert!(queue.src(i) < hosts);
            prop_assert!(queue.dst(i) < hosts);
            prop_assert!(queue.src(i) != queue.dst(i));
            prop_assert!(queue.arrival(i) < steps);
        }

        let policy = RetryPolicy { max_attempts, backoff_steps: backoff, deadline_steps: deadline };
        let metric = RouteMetric::PaperInverseEta;
        let per_step = HoldPolicy::disabled();
        let engine = SweepEngine::new(sim());

        let outcomes = serve_full_with_holds(&engine, &queue, policy, metric, &per_step);
        prop_assert_eq!(outcomes.len(), queue.len());

        let report = serve_report_with_holds(
            &engine, &queue, policy, metric, &per_step, rejected.len() as u64,
        );
        prop_assert_eq!(report.attempted as usize, queue.len());
        prop_assert_eq!(report.attempted, report.served() + report.expired);
        let served = outcomes.iter().filter(|o| o.distribution().is_some()).count();
        prop_assert_eq!(served as u64, report.served());

        // The capacity-admitted path holds the same never-panics bar.
        let model = CapacityModel { attempt_rate_hz: 2.0, window_s: 30.0 };
        let admitted = serve_overload(
            &engine,
            &queue,
            policy,
            metric,
            Some(model),
            &per_step,
            &OverloadPolicy::disabled(),
        );
        prop_assert_eq!(admitted.outcomes.len(), queue.len());
        for o in &admitted.outcomes {
            if let RetryOutcome::Expired { attempts } = o {
                prop_assert!(*attempts <= policy.max_attempts.max(1));
            }
        }
    }

    /// The combined path — capacity admission, memory holds and a fault
    /// mask at once — never panics on arbitrary request input, and serves
    /// a per-request subset of the uncapacitated hold path: admission can
    /// only deny attempts, never rescue one, and both runs walk the same
    /// attempt schedule with identical routing.
    #[test]
    fn combined_admission_holds_faults_serve_a_subset_without_panicking(
        stream in vec(raw_request(), 0..40),
        horizon in 0usize..4,
        intensity in 0.0..3.0f64,
        fault_seed in any::<u64>(),
        rate_ix in 0usize..3,
    ) {
        let (queue, _rejected) = ingest(sim().hosts().len(), sim().steps(), &stream);
        let faults = Arc::new(
            FaultModel::standard(fault_seed)
                .with_intensity(intensity)
                .compile(sim()),
        );
        let engine = SweepEngine::new(sim()).with_faults(faults);
        let policy = RetryPolicy::standard();
        let metric = RouteMetric::PaperInverseEta;
        let hold = if horizon == 0 {
            HoldPolicy::disabled()
        } else {
            HoldPolicy::with_horizon(horizon)
        };
        let model = CapacityModel {
            attempt_rate_hz: [0.05, 0.5, 5.0][rate_ix],
            window_s: 30.0,
        };
        let admitted = serve_overload(
            &engine,
            &queue,
            policy,
            metric,
            Some(model),
            &hold,
            &OverloadPolicy::disabled(),
        );
        prop_assert_eq!(admitted.outcomes.len(), queue.len());
        prop_assert_eq!(admitted.shed_count(), 0);
        prop_assert_eq!(admitted.budget_deferrals, 0);
        let unconstrained = serve_full_with_holds(&engine, &queue, policy, metric, &hold);
        for (qi, free) in unconstrained.iter().enumerate() {
            if admitted.outcomes[qi].distribution().is_some() {
                prop_assert!(
                    free.distribution().is_some(),
                    "request {} served under admission but not uncapacitated",
                    qi
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(cases_or(12))]

    /// The resilient runtime is one parallel stage whose chunks set only
    /// the checkpoint and stop granularity: at any chunk size and any
    /// worker count, clean and faulted, its report equals the in-memory
    /// per-step report bit for bit (the `Debug` rendering prints every
    /// float's shortest round-trip form).
    #[test]
    fn resilient_serve_equals_the_in_memory_report_at_any_chunk_size(
        workers in 1usize..=8,
        n_requests in 1usize..300,
        seed in any::<u64>(),
        kind_ix in 0usize..3,
        chunk_pick in any::<u64>(),
        faulted in any::<bool>(),
        fault_seed in any::<u64>(),
        intensity in 0.0..3.0f64,
    ) {
        let kind = [WorkloadKind::Uniform, WorkloadKind::Hotspot, WorkloadKind::Poisson][kind_ix];
        let stream = generate(sim(), kind, n_requests, seed);
        let (queue, rejected) = ingest(sim().hosts().len(), sim().steps(), &stream);
        let rejected = rejected.len() as u64;
        let groups = queue.groups().len() as u64;
        let chunk_steps = 1 + (chunk_pick % (groups + 1)) as usize;
        let policy = RetryPolicy::standard();
        let metric = RouteMetric::PaperInverseEta;
        let mut engine = SweepEngine::new(sim()).with_workers(workers);
        if faulted {
            let mask = FaultModel::standard(fault_seed).with_intensity(intensity).compile(sim());
            engine = engine.with_faults(Arc::new(mask));
        }
        let reference = serve_report_with_holds(
            &engine, &queue, policy, metric, &HoldPolicy::disabled(), rejected,
        );
        let run_policy = RunPolicy::default().with_chunk_steps(chunk_steps);
        let run = serve_resilient(&engine, &queue, policy, metric, seed, &run_policy)
            .map_err(|e| e.to_string())?;
        prop_assert!(run.is_clean(), "chunk_steps {}: unclean run", chunk_steps);
        let report = report_from_run(&run, rejected);
        prop_assert_eq!(
            format!("{report:?}"),
            format!("{reference:?}"),
            "chunk_steps {}, {} workers",
            chunk_steps,
            workers
        );
    }
}
