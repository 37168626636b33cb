//! One module per artifact of the paper's evaluation section.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig5`] | Fig. 5 — transmissivity vs entanglement fidelity |
//! | [`fig6`] | Fig. 6 — coverage % vs number of satellites |
//! | [`sweep`] + [`fig7`]/[`fig8`] | Fig. 7/8 — served % and fidelity vs N |
//! | [`fidelity`] | the per-architecture fidelity/served experiment (Table III inputs) |
//! | [`hybrid`] | the paper's future-work hybrid (HAP + constellation) |
//! | [`faults`] | degradation vs. fault intensity (extension; intensity 0 = the paper) |
//! | [`timeexp`] | store-and-forward serving vs. the memoryless baseline (extension) |
//! | [`overload`] | overload-control surface: offered load × fault intensity (extension) |
//!
//! All experiments are deterministic for a fixed seed and parallel over
//! their dominant axis (satellites or time steps).
//!
//! Every experiment that serves requests serves them through
//! `qntn-serve`'s one serving walk. The paper's request sweep (Figs. 7–8,
//! Table III, ablation A1 and the QKD extension) is [`serve_batches`]: the
//! walk at a single attempt with holds disabled.

use qntn_net::requests::{RetryOutcome, RetryPolicy};
use qntn_net::SweepEngine;
use qntn_routing::RouteMetric;
use qntn_serve::{ingest, serve_full_with_holds, step_batches, HoldPolicy};

pub mod congestion;
pub mod demand;
pub mod faults;
pub mod fidelity;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fleet;
pub mod hybrid;
pub mod night;
pub mod overload;
pub mod purified_qkd;
pub mod qkd;
pub mod sensitivity;
pub mod stability;
pub mod survivability;
pub mod sweep;
pub mod timeexp;

/// The paper's request sweep on `engine`: at each of `steps`, a fresh
/// seeded batch of `per_step` inter-LAN requests ([`step_batches`]), each
/// attempted once on its step's graph with `metric`. Outcomes come back in
/// step order, then request order; fold them with
/// [`qntn_net::requests::aggregate_retry_outcomes`]. `steps` must ascend.
pub fn serve_batches(
    engine: &SweepEngine<'_>,
    steps: &[usize],
    per_step: usize,
    seed: u64,
    metric: RouteMetric,
) -> Vec<RetryOutcome> {
    let policy = RetryPolicy::none();
    let sim = engine.sim();
    let stream = step_batches(sim, steps, per_step, seed, policy.deadline_steps);
    // Inter-LAN requests at in-day steps always pass the boundary, and
    // ascending steps keep the queue in stream order.
    let (queue, _) = ingest(sim.hosts().len(), sim.steps(), &stream);
    serve_full_with_holds(engine, &queue, policy, metric, &HoldPolicy::disabled())
}

/// The constellation sizes the paper sweeps: 6, 12, …, 108.
pub fn paper_constellation_sizes() -> Vec<usize> {
    (1..=18).map(|k| k * 6).collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn sizes_are_6_to_108() {
        let s = super::paper_constellation_sizes();
        assert_eq!(s.first(), Some(&6));
        assert_eq!(s.last(), Some(&108));
        assert_eq!(s.len(), 18);
        assert!(s.windows(2).all(|w| w[1] - w[0] == 6));
    }
}
