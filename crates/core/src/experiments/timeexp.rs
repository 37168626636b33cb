//! Store-and-forward serving vs. the memoryless baseline — the
//! `reproduce timeexp` artifact.
//!
//! The paper's routing is strictly simultaneous: a request is served only
//! if every link of some path is up *on the same step*. With decohering
//! quantum memories ([`qntn_quantum::memory`]) an intermediate node can
//! instead hold a Bell half across a contact gap and swap when the next
//! pass arrives. This experiment serves one seeded workload over the same
//! day through [`qntn_serve::serve_report_with_holds`] — once per-step
//! ([`HoldPolicy::disabled`], the memoryless baseline) and once per rung
//! of a ladder of memory horizons — and reports how the served
//! percentage, waiting profile and delivered fidelity trade off as the
//! horizon grows. A horizon-0 row without a fidelity floor equals the
//! baseline bit for bit: one layer has no hold edges, so the memories
//! never enter.

use crate::architecture::SpaceGround;
use crate::scenario::Qntn;
use qntn_net::requests::RetryPolicy;
use qntn_net::{SimConfig, SweepEngine};
use qntn_orbit::PerturbationModel;
use qntn_quantum::memory::ClassMemory;
use qntn_routing::RouteMetric;
use qntn_serve::{
    generate, ingest, serve_report_with_holds, HoldPolicy, ServeReport, WorkloadKind,
};
use serde::{Deserialize, Serialize};

/// Settings for one store-and-forward comparison sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeexpExperiment {
    /// Space–ground constellation size.
    pub satellites: usize,
    /// The memory-horizon ladder, in steps (0 = hold-aware machinery with
    /// no lookahead; the memoryless per-step baseline is reported
    /// separately).
    pub horizons: Vec<usize>,
    /// Minimum end-to-end square-root fidelity a held delivery must
    /// retain, memory decay included ([`HoldPolicy::fidelity_floor`]).
    pub fidelity_floor: f64,
    /// Workload size (requests over the day).
    pub requests: usize,
    /// Workload shape.
    pub workload: WorkloadKind,
    /// Workload RNG seed.
    pub seed: u64,
    /// Routing metric.
    pub metric: RouteMetric,
    /// Retry policy shared by both serving modes.
    pub retry: RetryPolicy,
}

/// One serving mode's headline numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeexpPoint {
    /// Memory horizon in steps; `None` for the per-step baseline.
    pub horizon_steps: Option<usize>,
    /// Requests served by any attempt, percent of attempted.
    pub served_percent: f64,
    /// Served on the arrival step with no wait, percent.
    pub first_try_percent: f64,
    /// Rescued by a retry or a memory hold, percent.
    pub rescued_percent: f64,
    /// Expired unserved, percent.
    pub expired_percent: f64,
    /// Mean end-to-end square-root fidelity over served requests (memory
    /// decay included in the hold-aware rows).
    pub mean_fidelity: f64,
    /// Mean attempts per request.
    pub mean_attempts: f64,
    /// Median wait over served requests; `None` when nothing was served.
    pub p50_wait_steps: Option<u64>,
    /// 95th-percentile wait over served requests; `None` when nothing was
    /// served.
    pub p95_wait_steps: Option<u64>,
}

impl TimeexpPoint {
    fn from_report(horizon_steps: Option<usize>, r: &ServeReport) -> TimeexpPoint {
        TimeexpPoint {
            horizon_steps,
            served_percent: r.served_percent(),
            first_try_percent: r.first_try_percent(),
            rescued_percent: r.rescued_percent(),
            expired_percent: r.expired_percent(),
            mean_fidelity: r.mean_fidelity,
            mean_attempts: r.mean_attempts,
            p50_wait_steps: r.p50_wait_steps,
            p95_wait_steps: r.p95_wait_steps,
        }
    }
}

/// The full comparison: the memoryless baseline plus one row per horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeexpSweep {
    pub satellites: usize,
    pub fidelity_floor: f64,
    /// The per-step (memoryless) serve of the identical workload.
    pub baseline: TimeexpPoint,
    /// Hold-aware rows, one per horizon, in ladder order.
    pub points: Vec<TimeexpPoint>,
}

impl TimeexpExperiment {
    /// The full artifact: the paper's 108-satellite constellation, a
    /// day-scale workload, horizons from none to eight minutes of memory.
    pub fn standard() -> TimeexpExperiment {
        TimeexpExperiment {
            satellites: 108,
            horizons: vec![0, 1, 2, 4, 8, 16],
            fidelity_floor: 0.85,
            requests: 200_000,
            workload: WorkloadKind::Poisson,
            seed: 2024,
            metric: RouteMetric::PaperInverseEta,
            retry: RetryPolicy::standard(),
        }
    }

    /// A small configuration for tests and `--quick` runs. No fidelity
    /// floor: the quick artifact isolates the pure with/without-memory
    /// served-percentage comparison (and pins horizon 0 ≡ baseline in the
    /// output itself); the floor's semantics are covered by the serve and
    /// routing test suites.
    pub fn quick() -> TimeexpExperiment {
        TimeexpExperiment {
            satellites: 8,
            horizons: vec![0, 2, 6],
            fidelity_floor: 0.0,
            requests: 2_000,
            workload: WorkloadKind::Poisson,
            seed: 2024,
            metric: RouteMetric::PaperInverseEta,
            retry: RetryPolicy::standard(),
        }
    }

    /// Run the comparison (parallel over arrival groups). The
    /// architecture, engine and ingested queue are built once; every row
    /// serves the same accepted requests.
    pub fn run(&self, scenario: &Qntn, config: SimConfig) -> TimeexpSweep {
        let arch = SpaceGround::new(
            scenario,
            self.satellites,
            config,
            PerturbationModel::TwoBody,
        );
        let sim = arch.sim();
        let engine = SweepEngine::new(sim);
        let stream = generate(sim, self.workload, self.requests, self.seed);
        let (queue, rejected) = ingest(sim.hosts().len(), sim.steps(), &stream);
        let rejected = rejected.len() as u64;

        let base = serve_report_with_holds(
            &engine,
            &queue,
            self.retry,
            self.metric,
            &HoldPolicy::disabled(),
            rejected,
        );
        let points = self
            .horizons
            .iter()
            .map(|&h| {
                let hold = HoldPolicy {
                    horizon_steps: h,
                    memory: ClassMemory::standard(),
                    fidelity_floor: self.fidelity_floor,
                };
                let r = serve_report_with_holds(
                    &engine,
                    &queue,
                    self.retry,
                    self.metric,
                    &hold,
                    rejected,
                );
                TimeexpPoint::from_report(Some(h), &r)
            })
            .collect();
        TimeexpSweep {
            satellites: self.satellites,
            fidelity_floor: self.fidelity_floor,
            baseline: TimeexpPoint::from_report(None, &base),
            points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TimeexpExperiment {
        TimeexpExperiment {
            satellites: 4,
            horizons: vec![0, 4],
            requests: 300,
            ..TimeexpExperiment::quick()
        }
    }

    #[test]
    fn zero_horizon_row_equals_the_per_step_baseline_bitwise() {
        // The differential anchor inside the experiment itself: horizon 0
        // with the standard memories and no floor is per-step serving, so
        // its row reproduces the memoryless baseline exactly.
        let q = Qntn::standard();
        let mut e = tiny();
        e.horizons = vec![0];
        e.fidelity_floor = 0.0;
        let sweep = e.run(&q, SimConfig::default());
        assert_eq!(
            sweep.points,
            vec![TimeexpPoint {
                horizon_steps: Some(0),
                ..sweep.baseline
            }]
        );
    }

    #[test]
    fn rows_share_the_baseline_workload_and_report_all_horizons() {
        let q = Qntn::standard();
        let e = tiny();
        let sweep = e.run(&q, SimConfig::default());
        assert_eq!(sweep.baseline.horizon_steps, None);
        let horizons: Vec<Option<usize>> = sweep.points.iter().map(|p| p.horizon_steps).collect();
        assert_eq!(horizons, vec![Some(0), Some(4)]);
        for p in std::iter::once(&sweep.baseline).chain(&sweep.points) {
            let total = p.first_try_percent + p.rescued_percent + p.expired_percent;
            assert!((total - 100.0).abs() < 1e-9, "{total}");
        }
    }

    /// Two runs agree. That the thread count changes no bit is checked
    /// through the binary (`crates/bench/tests/cli.rs`), which can pin
    /// the process thread count.
    #[test]
    fn deterministic_across_runs_and_parallelism() {
        let q = Qntn::standard();
        let e = tiny();
        let a = e.run(&q, SimConfig::default());
        let b = e.run(&q, SimConfig::default());
        assert_eq!(a, b);
    }
}
