//! The serving kernel: the crate's one router and one attempt round,
//! driven by its one walk in [`crate::serve`]. The walk builds a step's
//! graph once with [`Router::build`] and routes every request attempting
//! there in one [`Router::route_round`], whether it walks ranges of
//! arrival groups in parallel or, coupled by link budgets, retry budgets
//! and shedding, every group in one range ([`crate::serve_overload`]).
//!
//! Horizon 0 *is* per-step serving: the single layer carries exactly the
//! per-step thresholded edge list and `time_sssp_into` relaxes it with
//! the per-step Bellman–Ford loop, so the kernel at
//! [`HoldPolicy::disabled`] equals the naive per-request oracle
//! `RequestWorkload::evaluate_with_retries`, which the differential
//! suites pin bit for bit.
//!
//! A round's outcome for one request depends only on the graph at its
//! step, its source's SSSP table and its own destination, so a round may
//! mix requests of any number of groups.

use crate::hold::HoldPolicy;
use qntn_net::pipeline::host_hold_factors;
use qntn_net::{SweepEngine, SweepScratch};
use qntn_routing::{extract_time_route, time_sssp_into, RouteMetric, TimeRoute};

/// One round's request, as the router sees it: source host, destination
/// host, and the driver's slot for the result.
pub(crate) type RoundEntry = (usize, usize, usize);

/// The one router: time-expanded routing over one engine at a fixed
/// metric, memory model and fidelity floor.
pub(crate) struct Router<'e> {
    pub(crate) engine: &'e SweepEngine<'e>,
    /// Steps beyond the attempt step a delivery may land on (0 = per-step
    /// routing).
    pub(crate) horizon: usize,
    metric: RouteMetric,
    eta_floor: f64,
    hold_factors: Vec<f64>,
    /// Rounds routed, and the `(step, source)` of every SSSP run.
    #[cfg(test)]
    pub(crate) log: std::sync::Mutex<(u64, Vec<(usize, usize)>)>,
}

impl<'e> Router<'e> {
    pub(crate) fn new(
        engine: &'e SweepEngine<'e>,
        metric: RouteMetric,
        hold: &HoldPolicy,
    ) -> Router<'e> {
        Router {
            engine,
            horizon: hold.horizon_steps,
            metric,
            eta_floor: hold.eta_floor(),
            hold_factors: host_hold_factors(engine.sim().hosts(), &hold.memory),
            #[cfg(test)]
            log: Default::default(),
        }
    }

    /// Build the topology of a round at `step` into `scratch.texp`: the
    /// time-expanded graph over `step ..= step + horizon`, clamped to the
    /// day.
    pub(crate) fn build(&self, step: usize, horizon: usize, scratch: &mut SweepScratch) {
        self.engine
            .time_expanded_into(step, horizon, &self.hold_factors, scratch);
    }

    /// Route one attempt round over the graph of the last
    /// [`Router::build`]: one SSSP per distinct source, one extraction per
    /// entry, and `deliver(slot, route)` for every entry that routed. The
    /// sort is stable, so one source's entries keep their round order.
    pub(crate) fn route_round(
        &self,
        scratch: &mut SweepScratch,
        round: &mut [RoundEntry],
        mut deliver: impl FnMut(usize, TimeRoute),
    ) {
        round.sort_by_key(|&(src, _, _)| src);
        #[cfg(test)]
        let mut log = self.log.lock().unwrap();
        #[cfg(test)]
        {
            log.0 += 1;
        }
        for run in round.chunk_by(|a, b| a.0 == b.0) {
            let src = run[0].0;
            #[cfg(test)]
            log.1.push((scratch.texp.base_step(), src));
            time_sssp_into(&scratch.texp, src, self.metric, &mut scratch.ttable);
            for &(_, dst, slot) in run {
                if let Some(route) = extract_time_route(
                    &scratch.texp,
                    &scratch.ttable,
                    src,
                    dst,
                    self.metric,
                    self.eta_floor,
                ) {
                    deliver(slot, route);
                }
            }
        }
    }
}
