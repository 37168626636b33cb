//! Hold-aware serving: store-and-forward entanglement over the sweep
//! timeline.
//!
//! The crate's serving kernel routes every attempt over a *time-expanded*
//! graph (`qntn_routing::timexp`, built by the pipeline's
//! `build_time_expanded_into`). A [`HoldPolicy`] sets how far it looks:
//! within a bounded horizon of future steps, an intermediate node may
//! hold its half of a pair in a decohering quantum memory and swap when a
//! later pass brings the next link up. A request then counts as served
//! when the pair is *delivered* — possibly some steps after the attempt
//! started — with the memory decay folded into the end-to-end η and a
//! fidelity-floor cutoff rejecting too-decohered deliveries.
//!
//! ## Horizon 0 is per-step serving
//!
//! [`HoldPolicy::disabled`] (horizon 0, no memories, floor 0) is the
//! paper's per-step routing, bit for bit, clean and faulted: a horizon-0
//! time-expanded graph carries exactly the per-step active edge list (same
//! floats, same order); `time_sssp_into` runs the same relaxation loop as
//! `bellman_ford_all_into`; and `extract_time_route` +
//! `realize_with_hold(·, ·, 1.0)` perform the same float operations as
//! `route_from_table` + `realize`. The differential proptests in
//! `tests/timexp.rs` and this crate's test suite pin the kernel at this
//! policy against the naive per-request oracle.
//!
//! ## Outcome semantics
//!
//! [`RetryOutcome`](qntn_net::requests::RetryOutcome) is reused unchanged.
//! A delivery that waited for a later pass reports
//! `waited_steps = attempt offset + delivery offset`; a first-attempt
//! request delivered via a hold is therefore a
//! `ServedAfterRetry { attempts: 1, .. }` — "rescued by memory" rather
//! than by the retry layer, which is exactly the quantity the
//! `reproduce timeexp` artifact compares. With holds disabled the
//! delivery offset is always 0 and the semantics collapse to the
//! per-step ones.

use qntn_quantum::memory::ClassMemory;

/// How far ahead the server may look, and what it costs to wait.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoldPolicy {
    /// Steps beyond the attempt step a delivery may land on (0 = route
    /// each attempt on its own step, the paper's behaviour).
    pub horizon_steps: usize,
    /// Per-node-class memory parameters.
    pub memory: ClassMemory,
    /// Minimum end-to-end square-root fidelity a delivery must retain,
    /// memory decay included; below it the route is rejected. `0.0`
    /// disables the cutoff (every fidelity is ≥ 0.5 ≥ 0).
    pub fidelity_floor: f64,
}

impl HoldPolicy {
    /// Per-step serving: zero horizon, zero memory, no floor — the
    /// paper's routing, bit for bit (see the module docs).
    pub fn disabled() -> HoldPolicy {
        HoldPolicy {
            horizon_steps: 0,
            memory: ClassMemory::none(),
            fidelity_floor: 0.0,
        }
    }

    /// A horizon with the standard memory classes and no fidelity floor.
    pub fn with_horizon(horizon_steps: usize) -> HoldPolicy {
        HoldPolicy {
            horizon_steps,
            memory: ClassMemory::standard(),
            fidelity_floor: 0.0,
        }
    }

    /// The η-space floor equivalent to the fidelity floor under the
    /// workspace convention `F = (1 + √η)/2` (monotone, so cutting on η
    /// is cutting on fidelity): `η_floor = (2F − 1)²`, clamped at 0 for
    /// floors at or below the classical 1/2.
    pub fn eta_floor(&self) -> f64 {
        let s = (2.0 * self.fidelity_floor - 1.0).max(0.0);
        s * s
    }
}
