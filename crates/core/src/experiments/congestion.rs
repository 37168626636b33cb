//! Congestion extension: finite pair-generation rates.
//!
//! Drops the paper's "infinite queue capacity" assumption: each link
//! produces `R·η` pairs per second, and a served request consumes one pair
//! on every link of its path. The air-ground star funnels all inter-city
//! traffic through the HAP's links, so it saturates first — quantifying how
//! load-bearing the ideal-capacity assumption is for the paper's 100 %
//! air-ground headline.
//!
//! The batch is served by `qntn-serve`'s serving walk under a capacity
//! model ([`serve_overload`]) as one arrival group at step 0 with a single
//! attempt ([`RetryPolicy::none`]) and every overload control off: in
//! request order, each routed request takes one pair from every link of
//! its path, or — when a link on it is exhausted — is deferred, which
//! with a single attempt means blocked.

use crate::architecture::AirGround;
use crate::scenario::Qntn;
use qntn_net::capacity::CapacityModel;
use qntn_net::requests::RetryPolicy;
use qntn_net::{SimConfig, SweepEngine};
use qntn_routing::RouteMetric;
use qntn_serve::{ingest, serve_overload, step_batches, HoldPolicy, OverloadPolicy};
use serde::{Deserialize, Serialize};

/// One point of the rate sweep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CongestionPoint {
    /// Pair attempt rate, Hz.
    pub attempt_rate_hz: f64,
    /// Requests served, percent.
    pub served_percent: f64,
    /// Requests blocked by congestion, percent.
    pub congestion_percent: f64,
}

/// The attempt-rate sweep over the air-ground architecture.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CongestionSweep {
    /// Requests per evaluation window.
    pub load: usize,
    pub points: Vec<CongestionPoint>,
}

impl CongestionSweep {
    /// Run: `load` simultaneous requests against the air-ground network at
    /// each attempt rate, one 30 s window, seeded.
    pub fn run(scenario: &Qntn, rates_hz: &[f64], load: usize, seed: u64) -> CongestionSweep {
        let arch = AirGround::new(scenario, SimConfig::default());
        let sim = arch.sim();
        let engine = SweepEngine::new(sim);
        let stream = step_batches(sim, &[0], load, seed, 0);
        // Inter-LAN requests at step 0 always pass the boundary.
        let (queue, _) = ingest(sim.hosts().len(), sim.steps(), &stream);
        let points = rates_hz
            .iter()
            .map(|&rate| {
                let model = CapacityModel {
                    attempt_rate_hz: rate,
                    window_s: 30.0,
                };
                let out = serve_overload(
                    &engine,
                    &queue,
                    RetryPolicy::none(),
                    RouteMetric::PaperInverseEta,
                    Some(model),
                    &HoldPolicy::disabled(),
                    &OverloadPolicy::disabled(),
                );
                CongestionPoint {
                    attempt_rate_hz: rate,
                    served_percent: 100.0 * out.served_count() as f64 / load as f64,
                    congestion_percent: 100.0 * out.congestion_deferrals as f64 / load as f64,
                }
            })
            .collect();
        CongestionSweep { load, points }
    }

    /// Lowest rate that serves everything, if any point does.
    pub fn saturation_rate_hz(&self) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.served_percent >= 100.0 - 1e-9)
            .map(|p| p.attempt_rate_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_is_monotone_in_rate() {
        let q = Qntn::standard();
        let sweep = CongestionSweep::run(&q, &[0.01, 0.1, 1.0, 10.0], 60, 7);
        for w in sweep.points.windows(2) {
            assert!(w[1].served_percent >= w[0].served_percent - 1e-9);
        }
        // Served + congested = 100 (air-ground always has routes).
        for p in &sweep.points {
            assert!((p.served_percent + p.congestion_percent - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn high_rate_recovers_the_ideal_assumption() {
        let q = Qntn::standard();
        let sweep = CongestionSweep::run(&q, &[100.0], 60, 7);
        assert!((sweep.points[0].served_percent - 100.0).abs() < 1e-9);
        assert_eq!(sweep.saturation_rate_hz(), Some(100.0));
    }

    #[test]
    fn starved_network_serves_little() {
        let q = Qntn::standard();
        let sweep = CongestionSweep::run(&q, &[0.001], 60, 7);
        assert!(
            sweep.points[0].served_percent < 20.0,
            "{}",
            sweep.points[0].served_percent
        );
        assert_eq!(sweep.saturation_rate_hz(), None);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let q = Qntn::standard();
        let a = CongestionSweep::run(&q, &[0.5], 40, 11);
        let b = CongestionSweep::run(&q, &[0.5], 40, 11);
        assert!((a.points[0].served_percent - b.points[0].served_percent).abs() < 1e-12);
    }
}
