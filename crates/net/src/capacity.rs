//! Finite link capacity — relaxing the paper's infinite-queue assumption.
//!
//! The paper assumes "each node can serve all entanglement requests while
//! in range … without limitations". Physically, a link generates Bell pairs
//! at a finite rate: an attempt rate R (source repetition rate) times the
//! survival probability η. [`CapacityModel`] turns that into a per-link
//! pair budget per window; `qntn-serve`'s serving walk, coupled by one
//! (`serve_overload`), admits routed requests against those budgets,
//! exposing the congestion the ideal model hides — most visibly at the
//! HAP, whose star topology funnels *every* inter-city request through
//! two of its links.

use serde::{Deserialize, Serialize};

/// The pair-generation model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityModel {
    /// Entangled-pair attempt rate per link, pairs/second (source clock).
    pub attempt_rate_hz: f64,
    /// Time window the budget covers, seconds (the simulator step).
    pub window_s: f64,
}

impl CapacityModel {
    /// Pair budget of a link with transmissivity `eta` over the window.
    pub fn link_budget(&self, eta: f64) -> f64 {
        self.attempt_rate_hz * eta * self.window_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_formula() {
        let m = CapacityModel {
            attempt_rate_hz: 10.0,
            window_s: 30.0,
        };
        assert!((m.link_budget(0.5) - 150.0).abs() < 1e-12);
        assert_eq!(m.link_budget(0.0), 0.0);
    }
}
