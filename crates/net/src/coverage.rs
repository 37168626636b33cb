//! Coverage-period analysis (the paper's Eq. 6–7 and Fig. 6).
//!
//! The coverage period `T_c` is the total time during which all three LANs
//! are pairwise interconnected through the space segment; `P = T_c/T_day`.
//! Steps are evaluated on the sweep engine's workers — each step's graph
//! build is independent — and stitched into intervals in index order, so
//! the result is deterministic.

use crate::simulator::QuantumNetworkSim;
use qntn_orbit::{merge_intervals, Interval};
use serde::{Deserialize, Serialize};

/// Result of a coverage analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoverageReport {
    /// Step duration, seconds.
    pub step_s: f64,
    /// Per-step connectivity flags.
    pub connected: Vec<bool>,
    /// Merged connected intervals on the simulation timeline.
    pub intervals: Vec<Interval>,
}

impl CoverageReport {
    /// Coverage period `T_c` in seconds (paper Eq. 6).
    pub fn coverage_s(&self) -> f64 {
        self.intervals.iter().map(Interval::duration_s).sum()
    }

    /// Coverage period in minutes, as the paper reports it.
    pub fn coverage_minutes(&self) -> f64 {
        self.coverage_s() / 60.0
    }

    /// Coverage percentage `P` of the simulated window (paper Eq. 7).
    pub fn percent(&self) -> f64 {
        100.0 * self.coverage_s() / (self.connected.len() as f64 * self.step_s)
    }

    /// Number of distinct connected intervals.
    pub fn interval_count(&self) -> usize {
        self.intervals.len()
    }
}

/// Runs coverage analyses over a simulator.
pub struct CoverageAnalyzer;

impl CoverageAnalyzer {
    /// Full-window coverage of `sim`, via the contact-window-pruned
    /// [`crate::sweep_engine::SweepEngine`] (parallel over time steps;
    /// construct the engine directly to control parallelism).
    pub fn analyze(sim: &QuantumNetworkSim) -> CoverageReport {
        crate::sweep_engine::SweepEngine::new(sim).coverage()
    }

    /// Build a report from precomputed per-step flags (the Fig. 6 sweep
    /// derives every constellation size's flags from one engine day).
    pub fn from_flags(connected: Vec<bool>, step_s: f64) -> CoverageReport {
        let mut raw = Vec::new();
        let mut start: Option<f64> = None;
        for (k, &on) in connected.iter().enumerate() {
            let t = k as f64 * step_s;
            if on {
                if start.is_none() {
                    start = Some(t);
                }
            } else if let Some(s) = start.take() {
                raw.push(Interval::new(s, t));
            }
        }
        if let Some(s) = start {
            raw.push(Interval::new(s, connected.len() as f64 * step_s));
        }
        CoverageReport {
            step_s,
            connected,
            intervals: merge_intervals(raw),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;
    use crate::linkeval::SimConfig;
    use qntn_geo::Geodetic;

    #[test]
    fn from_flags_intervals() {
        let flags = vec![false, true, true, false, true, false];
        let r = CoverageAnalyzer::from_flags(flags, 30.0);
        assert_eq!(r.interval_count(), 2);
        assert_eq!(r.coverage_s(), 3.0 * 30.0);
        assert!((r.percent() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn all_connected() {
        let r = CoverageAnalyzer::from_flags(vec![true; 10], 30.0);
        assert_eq!(r.interval_count(), 1);
        assert!((r.percent() - 100.0).abs() < 1e-12);
        assert!((r.coverage_minutes() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn never_connected() {
        let r = CoverageAnalyzer::from_flags(vec![false; 10], 30.0);
        assert_eq!(r.interval_count(), 0);
        assert_eq!(r.percent(), 0.0);
    }

    #[test]
    fn trailing_interval_closed_at_window_end() {
        let r = CoverageAnalyzer::from_flags(vec![false, true, true], 30.0);
        assert_eq!(r.interval_count(), 1);
        assert_eq!(r.intervals[0].start_s, 30.0);
        assert_eq!(r.intervals[0].end_s, 90.0);
    }

    #[test]
    fn hap_network_has_full_coverage() {
        // The paper's air-ground headline: 100% of the day.
        let hosts = vec![
            Host::ground("A", 0, Geodetic::from_deg(36.1757, -85.5066, 300.0), 1.2),
            Host::ground("B", 1, Geodetic::from_deg(35.91, -84.3, 250.0), 1.2),
            Host::ground("C", 2, Geodetic::from_deg(35.04159, -85.2799, 200.0), 1.2),
            Host::hap("HAP", Geodetic::from_deg(35.6692, -85.0662, 30_000.0), 0.3),
        ];
        let sim = crate::simulator::QuantumNetworkSim::new(hosts, SimConfig::default(), 20, 30.0);
        let r = CoverageAnalyzer::analyze(&sim);
        assert!((r.percent() - 100.0).abs() < 1e-12, "{}", r.percent());
        assert_eq!(r.interval_count(), 1);
    }
}
