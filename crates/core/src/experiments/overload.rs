//! Overload-controlled serving under fault storms — the `reproduce
//! overload` artifact.
//!
//! The serve layer fails *open*: a flash crowd or a fault storm just
//! inflates retry rounds and deadline expiries. The overload layer
//! ([`qntn_serve::overload`]) bounds that with retry budgets,
//! utilization-threshold load shedding and a health-driven degradation
//! ladder. This experiment maps the control surface: a flash-crowd
//! workload at a ladder of offered loads, served under capacity
//! admission and a standard [`OverloadPolicy`] against fault masks at a
//! ladder of intensities — reporting how served percentage, shed
//! percentage and delivered fidelity trade off as both axes grow. With
//! [`OverloadPolicy::disabled`] and ample capacity every cell reproduces
//! the uncapacitated per-group serve bit for bit (pinned by the unit test
//! below and the serve-crate differential suite).

use crate::architecture::SpaceGround;
use crate::scenario::Qntn;
use qntn_net::capacity::CapacityModel;
use qntn_net::faults::FaultModel;
use qntn_net::requests::RetryPolicy;
use qntn_net::{QuantumNetworkSim, SimConfig, SweepEngine};
use qntn_orbit::PerturbationModel;
use qntn_routing::RouteMetric;
use qntn_serve::{
    flash_crowd, ingest, overload_report, serve_overload, FlashCrowdConfig, HoldPolicy,
    OverloadPolicy, ServeReport, DEGRADE_MODES,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Settings for one overload-control surface sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadExperiment {
    /// Space–ground constellation size.
    pub satellites: usize,
    /// The offered-load ladder (flash-crowd requests over the day).
    pub loads: Vec<usize>,
    /// The fault-intensity ladder (0 = the paper's ideal conditions).
    pub intensities: Vec<f64>,
    /// Fault-schedule seed (shared across intensities so the schedules
    /// nest — see [`FaultModel::with_intensity`]).
    pub fault_seed: u64,
    /// Burst shape of the flash-crowd workload.
    pub crowd: FlashCrowdConfig,
    /// Workload seed; also seeds the shed tie-break.
    pub seed: u64,
    /// Per-link pair-generation model (the admission budgets).
    pub capacity: CapacityModel,
    /// Routing metric.
    pub metric: RouteMetric,
    /// Retry policy.
    pub retry: RetryPolicy,
}

/// One cell of the surface: a (load, intensity) pair served under the
/// standard overload policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverloadPoint {
    /// Offered load (requests generated).
    pub requests: usize,
    /// Fault intensity of this cell's mask.
    pub intensity: f64,
    /// Requests served by any attempt, percent of attempted.
    pub served_percent: f64,
    /// Served on the arrival step with no wait, percent.
    pub first_try_percent: f64,
    /// Requests shed by any overload mechanism, percent of attempted.
    pub shed_percent: f64,
    /// Expired unserved (sheds included), percent.
    pub expired_percent: f64,
    /// Mean end-to-end square-root fidelity over served requests.
    pub mean_fidelity: f64,
    /// Attempts deferred by exhausted link budgets.
    pub congestion_deferrals: u64,
    /// Retries deferred by the retry budget.
    pub budget_deferrals: u64,
    /// Steps spent on each degradation rung (Normal first).
    pub degrade_mode_steps: [u64; DEGRADE_MODES],
}

impl OverloadPoint {
    fn from_report(
        requests: usize,
        intensity: f64,
        r: &ServeReport,
        congestion_deferrals: u64,
    ) -> OverloadPoint {
        let attempted = (r.attempted as f64).max(1.0);
        OverloadPoint {
            requests,
            intensity,
            served_percent: r.served_percent(),
            first_try_percent: r.first_try_percent(),
            shed_percent: 100.0 * r.shed as f64 / attempted,
            expired_percent: r.expired_percent(),
            mean_fidelity: r.mean_fidelity,
            congestion_deferrals,
            budget_deferrals: r.deferred_by_budget,
            degrade_mode_steps: r.degrade_mode_steps,
        }
    }

    /// Steps spent on any rung other than full service.
    pub fn degraded_steps(&self) -> u64 {
        self.degrade_mode_steps.iter().skip(1).sum()
    }
}

/// The full surface, row-major over `loads × intensities`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadSurface {
    pub satellites: usize,
    pub attempt_rate_hz: f64,
    pub points: Vec<OverloadPoint>,
}

impl OverloadExperiment {
    /// The full artifact: the paper's 108-satellite constellation, three
    /// offered loads against three fault intensities.
    pub fn standard() -> OverloadExperiment {
        OverloadExperiment {
            satellites: 108,
            loads: vec![50_000, 150_000, 400_000],
            intensities: vec![0.0, 2.0, 5.0],
            fault_seed: 42,
            crowd: FlashCrowdConfig::default(),
            seed: 2024,
            capacity: CapacityModel {
                attempt_rate_hz: 5.0,
                window_s: 30.0,
            },
            metric: RouteMetric::PaperInverseEta,
            retry: RetryPolicy::standard(),
        }
    }

    /// A small configuration for tests and `--quick` runs.
    pub fn quick() -> OverloadExperiment {
        OverloadExperiment {
            satellites: 8,
            loads: vec![1_000, 4_000],
            intensities: vec![0.0, 2.0],
            fault_seed: 42,
            crowd: FlashCrowdConfig::default(),
            seed: 2024,
            capacity: CapacityModel {
                attempt_rate_hz: 5.0,
                window_s: 30.0,
            },
            metric: RouteMetric::PaperInverseEta,
            retry: RetryPolicy::standard(),
        }
    }

    /// Run the surface sweep. The architecture is built once; each
    /// intensity compiles one fault mask, each load generates one
    /// workload, and every `(load, intensity)` cell serves under
    /// [`OverloadPolicy::standard`] seeded from the workload seed.
    pub fn run(&self, scenario: &Qntn, config: SimConfig) -> OverloadSurface {
        let arch = SpaceGround::new(
            scenario,
            self.satellites,
            config,
            PerturbationModel::TwoBody,
        );
        let sim = arch.sim();
        let overload = OverloadPolicy::standard(self.seed);
        let hold = HoldPolicy::disabled();

        let mut points = Vec::with_capacity(self.loads.len() * self.intensities.len());
        for &n in &self.loads {
            let stream = flash_crowd(sim, n, self.seed, self.crowd);
            let (queue, rejected) = ingest(sim.hosts().len(), sim.steps(), &stream);
            let rejected = rejected.len() as u64;
            for &intensity in &self.intensities {
                let engine = self.engine_at(sim, intensity);
                let out = serve_overload(
                    &engine,
                    &queue,
                    self.retry,
                    self.metric,
                    Some(self.capacity),
                    &hold,
                    &overload,
                );
                let report = overload_report(&out, &queue, rejected);
                points.push(OverloadPoint::from_report(
                    n,
                    intensity,
                    &report,
                    out.congestion_deferrals,
                ));
            }
        }
        OverloadSurface {
            satellites: self.satellites,
            attempt_rate_hz: self.capacity.attempt_rate_hz,
            points,
        }
    }

    /// The engine for one intensity rung: clean at 0, masked above.
    fn engine_at<'a>(&self, sim: &'a QuantumNetworkSim, intensity: f64) -> SweepEngine<'a> {
        let engine = SweepEngine::new(sim);
        if intensity == 0.0 {
            engine
        } else {
            engine.with_faults(Arc::new(
                FaultModel::standard(self.fault_seed)
                    .with_intensity(intensity)
                    .compile(sim),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qntn_serve::serve_full_with_holds;

    fn tiny() -> OverloadExperiment {
        OverloadExperiment {
            satellites: 4,
            loads: vec![200, 500],
            intensities: vec![0.0, 2.0],
            ..OverloadExperiment::quick()
        }
    }

    #[test]
    fn zero_config_cell_with_ample_capacity_equals_the_group_serve_bitwise() {
        // The differential anchor inside the experiment itself: with the
        // controls off and budgets no request can exhaust, the walk over
        // one range reproduces the per-group serve exactly, clean and
        // faulted.
        let q = Qntn::standard();
        let e = tiny();
        let arch = SpaceGround::new(
            &q,
            e.satellites,
            SimConfig::default(),
            PerturbationModel::TwoBody,
        );
        let sim = arch.sim();
        let stream = flash_crowd(sim, 300, e.seed, e.crowd);
        let (queue, _) = ingest(sim.hosts().len(), sim.steps(), &stream);
        let ample = CapacityModel {
            attempt_rate_hz: 1e9,
            ..e.capacity
        };
        let hold = HoldPolicy::disabled();
        for intensity in [0.0, 2.0] {
            let engine = e.engine_at(sim, intensity);
            let base = serve_full_with_holds(&engine, &queue, e.retry, e.metric, &hold);
            let out = serve_overload(
                &engine,
                &queue,
                e.retry,
                e.metric,
                Some(ample),
                &hold,
                &OverloadPolicy::disabled(),
            );
            assert_eq!(out.outcomes, base, "intensity {intensity}");
            assert_eq!(out.congestion_deferrals, 0);
            assert_eq!(out.shed_count(), 0);
            assert_eq!(out.budget_deferrals, 0);
        }
    }

    #[test]
    fn surface_is_row_major_with_sane_percentages() {
        let q = Qntn::standard();
        let e = tiny();
        let surface = e.run(&q, SimConfig::default());
        assert_eq!(surface.points.len(), e.loads.len() * e.intensities.len());
        let mut k = 0;
        for &n in &e.loads {
            for &intensity in &e.intensities {
                let p = &surface.points[k];
                assert_eq!(p.requests, n);
                assert_eq!(p.intensity, intensity);
                for pct in [
                    p.served_percent,
                    p.first_try_percent,
                    p.shed_percent,
                    p.expired_percent,
                ] {
                    assert!((0.0..=100.0).contains(&pct), "cell {k}: {pct}");
                }
                // Sheds expire by definition.
                assert!(p.shed_percent <= p.expired_percent + 1e-9);
                k += 1;
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let q = Qntn::standard();
        let e = tiny();
        let a = e.run(&q, SimConfig::default());
        let b = e.run(&q, SimConfig::default());
        assert_eq!(a, b);
    }
}
