//! The serving walk and the SLO report.
//!
//! Every serve path of this crate is one step-major walk over a
//! contiguous range of arrival groups. Per step it takes every request
//! attempting there, builds the step's graph once, routes them in one
//! kernel round (one SSSP per *distinct source* across the groups, one
//! extraction per request), and serves, reschedules or expires each. A
//! coupling adds what ties one step's requests together
//! ([`crate::overload`]); [`crate::serve_overload`] walks every group in
//! one range under it.
//!
//! Without a coupling, groups never interact, so ranges walk in parallel.
//! The range bounds the sharing: a range of one group is the per-group
//! algorithm. At [`HoldPolicy::disabled`] the walk is bit-identical to
//! the naive per-request path (`RequestWorkload::evaluate_with_retries`
//! in `qntn-net`, one full Bellman–Ford per request per attempt), clean
//! and faulted, at every worker count — the differential suites hold the
//! whole stack to that claim. A request's own deadline caps the
//! policy's; backoff offsets are monotone (`b, 3b, 7b, …`), so its
//! attempt schedule is a *prefix* of its group's.
//!
//! Three entry points walk ranges without a coupling:
//! - [`serve_full_with_holds`] materializes every [`RetryOutcome`]
//!   (differential tests, small batches);
//! - [`serve_report_with_holds`] folds each group straight into a compact
//!   [`GroupAgg`] so million-request runs never hold per-request state;
//! - [`serve_resilient`] runs the same fold for per-step serving under the
//!   resilient runtime contract (checkpoint/cancel/panic isolation) via
//!   [`qntn_net::run_ranges`], one walk per work unit.

use crate::hold::HoldPolicy;
use crate::kernel::{RoundEntry, Router};
use crate::overload::{tie_hash, DegradeMode, OverloadPolicy, ShedReason, DEGRADE_MODES};
use crate::request::{RequestQueue, PRIORITY_CLASSES};
use qntn_common::codec::{ByteReader, DecodeError, FrameCodec};
use qntn_common::QntnError;
use qntn_net::capacity::CapacityModel;
use qntn_net::entanglement::{realize_with_hold, Distribution};
use qntn_net::requests::{RetryOutcome, RetryPolicy};
use qntn_net::runtime::{run_ranges, RunPolicy, RunReport};
use qntn_net::{SweepEngine, SweepScratch};
use qntn_routing::RouteMetric;
use std::collections::VecDeque;
use std::ops::Range;

/// What ties one step's requests together. With a capacity model, routed
/// attempts spend per-link pair budgets, admitted in (priority
/// descending, queue index ascending) order; the overload policy adds a
/// retry budget, utilization shedding and a degradation ladder. With
/// neither, groups never interact.
pub(crate) struct Coupling {
    pub(crate) admission: Option<CapacityModel>,
    pub(crate) overload: OverloadPolicy,
}

/// Everything one serve call's walks read but their range: the router,
/// the queue, the retry policy and the coupling.
pub(crate) struct Walk<'a> {
    pub(crate) router: Router<'a>,
    pub(crate) queue: &'a RequestQueue,
    pub(crate) policy: RetryPolicy,
    pub(crate) coupling: Coupling,
}

/// What a walk counts besides its outcomes; see
/// [`crate::OverloadOutcome`].
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) congestion_deferrals: u64,
    pub(crate) budget_deferrals: u64,
    pub(crate) degrade_mode_steps: [u64; DEGRADE_MODES],
}

/// One arrival group in flight. Per request, in queue order: its
/// outcome, why it was shed, and its backoff offset from arrival (0
/// before the first attempt, then `b, 3b, 7b, …`, with `b` doubled on a
/// stretched step). Until a request is served its outcome reads
/// [`RetryOutcome::Expired`] with the attempts it has made, so a request
/// that is final without being served needs no further write.
struct Flight {
    arrival: usize,
    /// The group's queue range.
    requests: Range<usize>,
    outcomes: Vec<RetryOutcome>,
    shed: Vec<Option<ShedReason>>,
    offsets: Vec<usize>,
    /// Requests not final yet.
    pending: usize,
}

impl Flight {
    fn new(queue: &RequestQueue, arrival: usize) -> Flight {
        let requests = queue
            .group_range(arrival)
            .expect("arrival steps come from the queue's own groups");
        let len = requests.len();
        Flight {
            arrival,
            requests,
            outcomes: vec![RetryOutcome::Expired { attempts: 0 }; len],
            shed: vec![None; len],
            offsets: vec![0; len],
            pending: len,
        }
    }

    /// Attempts request `qi` has made. It is not served yet.
    fn made(&self, qi: usize) -> usize {
        match self.outcomes[qi - self.requests.start] {
            RetryOutcome::Expired { attempts } => attempts,
            _ => unreachable!("a served request never attempts again"),
        }
    }

    /// Make request `qi` final without an attempt at this step.
    fn shed_request(&mut self, qi: usize, reason: ShedReason) {
        self.shed[qi - self.requests.start] = Some(reason);
        self.pending -= 1;
    }

    /// Move request `qi` to its next backoff slot, `stretch` base backoffs
    /// past twice its offset, and return the slot's step. `None` when its
    /// schedule has no later slot: no backoff, no attempt left, past its
    /// deadline (the tighter of its own and the policy's), or past the
    /// day.
    fn next_slot(
        &mut self,
        queue: &RequestQueue,
        policy: &RetryPolicy,
        qi: usize,
        stretch: usize,
        n_steps: usize,
    ) -> Option<usize> {
        let li = qi - self.requests.start;
        let next = self.offsets[li]
            .saturating_mul(2)
            .saturating_add(policy.backoff_steps.saturating_mul(stretch));
        let step = self.arrival.saturating_add(next);
        let open = policy.backoff_steps > 0
            && self.made(qi) < policy.max_attempts.max(1)
            && next <= queue.deadline(qi).min(policy.deadline_steps)
            && step < n_steps;
        open.then(|| {
            self.offsets[li] = next;
            step
        })
    }
}

/// The step's link-budget table: its live edges, keyed `(min, max)` in
/// ascending order, and each one's pair budget left.
#[derive(Default)]
struct LinkTable {
    keys: Vec<(usize, usize)>,
    budgets: Vec<f64>,
    /// Scratch: the table slots of one route's hops.
    hops: Vec<usize>,
}

impl LinkTable {
    /// Charge one pair to every hop of `nodes` in the table, or refuse
    /// the route when a hop's budget is spent (a congestion deferral). At
    /// horizon 0 every routed hop is a live edge of the step, so a miss
    /// means a corrupt table: the route counts as unroutable. At a
    /// horizon, hops on later layers miss and ride uncharged — the budget
    /// window *is* the attempt step.
    fn admit(&mut self, nodes: &[usize], horizon: usize, congestion: &mut u64) -> bool {
        self.hops.clear();
        for w in nodes.windows(2) {
            match self.keys.binary_search(&(w[0].min(w[1]), w[0].max(w[1]))) {
                Ok(slot) => self.hops.push(slot),
                Err(_) if horizon == 0 => return false,
                Err(_) => {}
            }
        }
        if self.hops.iter().any(|&s| self.budgets[s] < 1.0) {
            *congestion += 1;
            return false;
        }
        for &s in &self.hops {
            self.budgets[s] -= 1.0;
        }
        true
    }
}

impl Walk<'_> {
    /// A walk without a coupling, for the group entry points.
    fn uncoupled<'a>(
        engine: &'a SweepEngine<'a>,
        queue: &'a RequestQueue,
        policy: RetryPolicy,
        metric: RouteMetric,
        hold: &HoldPolicy,
    ) -> Walk<'a> {
        let coupling = Coupling {
            admission: None,
            overload: OverloadPolicy::disabled(),
        };
        Walk {
            router: Router::new(engine, metric, hold),
            queue,
            policy,
            coupling,
        }
    }

    /// Serve the arrival groups at `arrivals` — ascending arrival steps of
    /// `queue`'s groups — in one walk over `steps`, returning `fold(queue
    /// range, outcomes, shed reasons)` per group in arrival order, and the
    /// walk's counters.
    ///
    /// Each visited step runs these phases in order:
    /// 1. refill the retry budget's buckets and read the degradation rung
    ///    from the step's health;
    /// 2. open the group arriving at the step;
    /// 3. take the step's attempts in queue order;
    /// 4. on the deepest rung, shed whole classes;
    /// 5. charge retries to the retry budget; a denied retry defers to its
    ///    next slot without spending an attempt, or is shed when its
    ///    schedule has none;
    /// 6. build the step's graph once;
    /// 7. fill the link-budget table from its layer 0, and shed the attempts
    ///    beyond the utilization threshold of the step's total budget;
    /// 8. route the rest in one kernel round;
    /// 9. admit routed attempts in admission order;
    /// 10. serve, reschedule or expire each request.
    ///
    /// At the end of every visited step, each group that is final is folded,
    /// once every earlier group is final too, so only groups in flight are
    /// held. Offsets grow monotonically, so a request past its deadline never
    /// attempts again. Every attempt of a group lands within
    /// `arrival ..= arrival + deadline` and the day, which `steps` must
    /// cover; groups arriving past the day make no attempt.
    pub(crate) fn run<R>(
        &self,
        arrivals: &[usize],
        steps: Range<usize>,
        scratch: &mut SweepScratch,
        mut fold: impl FnMut(Range<usize>, Vec<RetryOutcome>, Vec<Option<ShedReason>>) -> R,
    ) -> (Vec<R>, Counters) {
        let Walk {
            router,
            queue,
            policy,
            coupling,
        } = self;
        let n_steps = router.engine.sim().steps();
        let n_hosts = router.engine.sim().hosts().len();
        let faults = router.engine.faults();
        let (admission, overload) = (coupling.admission, &coupling.overload);
        let budget = &overload.budget;
        let mut counters = Counters::default();
        // Token buckets start full.
        let mut global_tokens = budget.global_burst;
        let mut class_tokens = budget.class_burst;

        let mut out = Vec::with_capacity(arrivals.len());
        let last = arrivals.last().copied().unwrap_or(0);
        let lo = steps.start;
        // Agenda: the attempts at each step of `steps`, as (queue index,
        // index of the group in `arrivals`) pairs; `flights[0]` is the
        // group at `arrivals[out.len()]`.
        let mut agenda: Vec<Vec<(usize, usize)>> = vec![Vec::new(); steps.len()];
        let mut flights: VecDeque<Flight> = VecDeque::new();
        let by_admission = |&(qi, _): &(usize, usize)| (u8::MAX - queue.priority(qi), qi);
        let mut table = LinkTable::default();
        let mut round: Vec<RoundEntry> = Vec::new();
        let mut routed: Vec<Option<(Distribution, usize)>> = Vec::new();

        for t in steps {
            // 1. The refills and the rung advance every step: they model
            // time, not work.
            global_tokens = (global_tokens + budget.global_per_step).min(budget.global_burst);
            for (c, tokens) in class_tokens.iter_mut().enumerate() {
                *tokens = (*tokens + budget.class_per_step[c]).min(budget.class_burst[c]);
            }
            let health = faults.map_or(1.0, |f| f.step_health(t));
            let mode = overload.degrade.mode(health);
            counters.degrade_mode_steps[mode as usize] += 1;
            let (horizon, stretch) = match mode {
                DegradeMode::Normal => (router.horizon, 1),
                DegradeMode::NoHolds => (0, 1),
                DegradeMode::StretchedBackoff | DegradeMode::ShedClasses => (0, 2),
            };

            // 2.
            let g = out.len() + flights.len();
            if arrivals.get(g) == Some(&t) {
                let flight = Flight::new(queue, t);
                agenda[t - lo].extend(flight.requests.clone().map(|qi| (qi, g)));
                flights.push_back(flight);
            }

            // 3. Outcomes depend on this order only where attempts share a
            // budget, and each phase that charges one sorts them its way.
            let mut bucket = std::mem::take(&mut agenda[t - lo]);
            bucket.sort_unstable();
            let folded = out.len();

            // 4.
            if mode == DegradeMode::ShedClasses {
                let class_shed = overload.degrade.shed_classes(health);
                bucket.retain(|&(qi, g)| {
                    let shed = class_shed[queue.class(qi)];
                    if shed {
                        flights[g - folded].shed_request(qi, ShedReason::Degraded);
                    }
                    !shed
                });
            }

            // 5. Retries each take one global and one class token, granted in
            // admission order; first attempts ride free.
            if !budget.is_unlimited() {
                bucket.sort_unstable_by_key(by_admission);
                bucket.retain(|&(qi, g)| {
                    let c = queue.class(qi);
                    if flights[g - folded].made(qi) == 0 {
                        return true;
                    }
                    if global_tokens >= 1.0 && class_tokens[c] >= 1.0 {
                        global_tokens -= 1.0;
                        class_tokens[c] -= 1.0;
                        return true;
                    }
                    match flights[g - folded].next_slot(queue, policy, qi, stretch, n_steps) {
                        Some(next) => {
                            agenda[next - lo].push((qi, g));
                            counters.budget_deferrals += 1;
                        }
                        None => flights[g - folded].shed_request(qi, ShedReason::RetryBudget),
                    }
                    false
                });
            }

            'route: {
                if bucket.is_empty() {
                    break 'route;
                }
                // 6. Steps only ascend within a walk, so none of its later
                // windows starts below `t`. A later walk on this scratch
                // serves later groups, so the layers past `last` stay for it
                // to copy. The scratch holds at most `deadline + horizon + 1`
                // layers.
                scratch.layers.retire_below(t.min(last + 1));
                router.build(t, horizon, scratch);

                // 7. Layer 0's link edges lead the edge list, in the per-step
                // graph's ascending `(u, v)` order; every later edge — the
                // holds into layer 1 and the links of later layers — ends
                // past the first `n_hosts` nodes.
                table.keys.clear();
                table.budgets.clear();
                if admission.is_some() || overload.shed.utilization.is_finite() {
                    for e in scratch.texp.edges().iter().take_while(|e| e.to < n_hosts) {
                        table.keys.push((e.from.min(e.to), e.from.max(e.to)));
                        table
                            .budgets
                            .push(admission.map_or(1.0, |model| model.link_budget(e.eta)));
                    }
                    debug_assert!(table.keys.windows(2).all(|w| w[0] < w[1]));
                }
                // Offered attempts beyond the threshold share of the step's
                // total live budget go, lowest priority first, with a seeded
                // tie-break among equals.
                if overload.shed.utilization.is_finite() {
                    let total: f64 = table.budgets.iter().sum();
                    let cap = overload.shed.utilization * total;
                    let allowed = if cap >= bucket.len() as f64 {
                        bucket.len()
                    } else {
                        cap.max(0.0).floor() as usize
                    };
                    if bucket.len() > allowed {
                        bucket.sort_unstable_by_key(|&(qi, _)| {
                            (queue.priority(qi), tie_hash(overload.shed.seed, qi), qi)
                        });
                        for (qi, g) in bucket.drain(..bucket.len() - allowed) {
                            flights[g - folded].shed_request(qi, ShedReason::Overload);
                        }
                    }
                }
                if bucket.is_empty() {
                    break 'route;
                }

                // 8. Admission cannot change routes, so everything routes
                // first, in the order the next phase admits in.
                if admission.is_some() {
                    bucket.sort_unstable_by_key(by_admission);
                }
                round.clear();
                round.extend(
                    bucket
                        .iter()
                        .enumerate()
                        .map(|(bi, &(qi, _))| (queue.src(qi), queue.dst(qi), bi)),
                );
                routed.clear();
                routed.resize(bucket.len(), None);
                router.route_round(scratch, &mut round, |bi, tr| {
                    let distribution = realize_with_hold(&tr.route, &tr.link_etas, tr.hold_eta);
                    routed[bi] = Some((distribution, tr.delivered_layer));
                });

                // 9 and 10.
                for (&(qi, g), route) in bucket.iter().zip(routed.drain(..)) {
                    let flight = &mut flights[g - folded];
                    let li = qi - flight.requests.start;
                    let attempts = flight.made(qi) + 1;
                    let congestion = &mut counters.congestion_deferrals;
                    match route {
                        Some((distribution, layer))
                            if admission.is_none()
                                || table.admit(&distribution.path, horizon, congestion) =>
                        {
                            let waited = t - flight.arrival + layer;
                            flight.outcomes[li] = if attempts == 1 && waited == 0 {
                                RetryOutcome::ServedFirstTry(distribution)
                            } else {
                                RetryOutcome::ServedAfterRetry {
                                    distribution,
                                    attempts,
                                    waited_steps: waited,
                                }
                            };
                            flight.pending -= 1;
                        }
                        _ => {
                            flight.outcomes[li] = RetryOutcome::Expired { attempts };
                            match flight.next_slot(queue, policy, qi, stretch, n_steps) {
                                Some(next) => agenda[next - lo].push((qi, g)),
                                None => flight.pending -= 1,
                            }
                        }
                    }
                }
            }

            let finished = flights.iter().take_while(|f| f.pending == 0).count();
            for f in flights.drain(..finished) {
                out.push(fold(f.requests, f.outcomes, f.shed));
            }
        }
        // Every attempt of an opened group came within `steps`, so only groups
        // arriving past the end of the day are left; they make no attempt.
        debug_assert!(flights.is_empty());
        for &arrival in &arrivals[out.len()..] {
            let f = Flight::new(queue, arrival);
            out.push(fold(f.requests, f.outcomes, f.shed));
        }
        (out, counters)
    }

    /// Walk a range of groups over the steps its attempts can land on:
    /// from the first arrival through the last arrival's deadline, within
    /// the day.
    fn groups<R>(
        &self,
        arrivals: &[usize],
        scratch: &mut SweepScratch,
        fold: impl FnMut(Range<usize>, Vec<RetryOutcome>, Vec<Option<ShedReason>>) -> R,
    ) -> Vec<R> {
        let n_steps = self.router.engine.sim().steps();
        let lo = arrivals.first().map_or(n_steps, |&a| a.min(n_steps));
        let hi = arrivals.last().map_or(lo, |&last| {
            last.saturating_add(self.policy.deadline_steps)
                .saturating_add(1)
                .clamp(lo, n_steps)
        });
        self.run(arrivals, lo..hi, scratch, fold).0
    }

    /// Walk a range of groups into one [`GroupAgg`] per group — the fold
    /// of [`serve_report_with_holds`] and [`serve_resilient`].
    fn aggs(&self, arrivals: &[usize], scratch: &mut SweepScratch) -> Vec<GroupAgg> {
        self.groups(arrivals, scratch, |requests, outcomes, _| {
            let mut agg = GroupAgg::default();
            for (qi, outcome) in requests.zip(&outcomes) {
                agg.absorb(outcome, self.queue.class(qi));
            }
            agg
        })
    }
}

/// Serve the whole queue under `hold`, materializing one [`RetryOutcome`]
/// per accepted request in queue order — the differential-comparable
/// entry point. Parallel over contiguous ranges of arrival groups on the
/// engine's workers; results are bit-identical at every worker count.
/// With [`HoldPolicy::disabled`] this is per-step serving.
pub fn serve_full_with_holds(
    engine: &SweepEngine<'_>,
    queue: &RequestQueue,
    policy: RetryPolicy,
    metric: RouteMetric,
    hold: &HoldPolicy,
) -> Vec<RetryOutcome> {
    let walk = Walk::uncoupled(engine, queue, policy, metric, hold);
    engine
        .map_ranges(&queue.arrival_steps(), |scratch, arrivals| {
            walk.groups(arrivals, scratch, |_, outcomes, _| outcomes)
        })
        .concat()
}

/// Per-arrival-group aggregate — the compact fold that lets a
/// million-request serve run in O(groups) memory, and the checkpoint
/// payload of [`serve_resilient`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAgg {
    pub attempted: u64,
    pub served_first_try: u64,
    pub served_after_retry: u64,
    pub expired: u64,
    pub fidelity_sum: f64,
    pub link_fidelity_sum: f64,
    pub eta_sum: f64,
    pub hops_sum: f64,
    pub attempts_sum: f64,
    /// Histogram of waited steps over served requests (first-try = 0).
    pub wait_hist: Vec<u64>,
    /// Per priority class: attempted / served / fidelity sum over served.
    pub class_attempted: Vec<u64>,
    pub class_served: Vec<u64>,
    pub class_fidelity_sum: Vec<f64>,
}

impl Default for GroupAgg {
    fn default() -> GroupAgg {
        GroupAgg {
            attempted: 0,
            served_first_try: 0,
            served_after_retry: 0,
            expired: 0,
            fidelity_sum: 0.0,
            link_fidelity_sum: 0.0,
            eta_sum: 0.0,
            hops_sum: 0.0,
            attempts_sum: 0.0,
            wait_hist: Vec::new(),
            class_attempted: vec![0; PRIORITY_CLASSES],
            class_served: vec![0; PRIORITY_CLASSES],
            class_fidelity_sum: vec![0.0; PRIORITY_CLASSES],
        }
    }
}

impl GroupAgg {
    /// Fold one request's outcome in; `class` is its reporting class.
    fn absorb(&mut self, outcome: &RetryOutcome, class: usize) {
        self.attempted += 1;
        self.class_attempted[class] += 1;
        let waited = match outcome {
            RetryOutcome::ServedFirstTry(_) => {
                self.served_first_try += 1;
                self.attempts_sum += 1.0;
                Some(0)
            }
            RetryOutcome::ServedAfterRetry {
                attempts,
                waited_steps,
                ..
            } => {
                self.served_after_retry += 1;
                self.attempts_sum += *attempts as f64;
                Some(*waited_steps)
            }
            RetryOutcome::Expired { attempts } => {
                self.expired += 1;
                self.attempts_sum += *attempts as f64;
                None
            }
        };
        if let Some(w) = waited {
            if self.wait_hist.len() <= w {
                self.wait_hist.resize(w + 1, 0);
            }
            self.wait_hist[w] += 1;
        }
        if let Some(d) = outcome.distribution() {
            self.fidelity_sum += d.fidelity;
            self.link_fidelity_sum += d.mean_link_fidelity;
            self.eta_sum += d.eta;
            self.hops_sum += (d.path.len() - 1) as f64;
            self.class_served[class] += 1;
            self.class_fidelity_sum[class] += d.fidelity;
        }
    }

    /// Fold `other` into `self` (order-independent for the count fields;
    /// float sums are folded in group order everywhere for determinism).
    pub fn merge(&mut self, other: &GroupAgg) {
        self.attempted += other.attempted;
        self.served_first_try += other.served_first_try;
        self.served_after_retry += other.served_after_retry;
        self.expired += other.expired;
        self.fidelity_sum += other.fidelity_sum;
        self.link_fidelity_sum += other.link_fidelity_sum;
        self.eta_sum += other.eta_sum;
        self.hops_sum += other.hops_sum;
        self.attempts_sum += other.attempts_sum;
        if self.wait_hist.len() < other.wait_hist.len() {
            self.wait_hist.resize(other.wait_hist.len(), 0);
        }
        for (slot, v) in self.wait_hist.iter_mut().zip(&other.wait_hist) {
            *slot += v;
        }
        for c in 0..PRIORITY_CLASSES {
            self.class_attempted[c] += other.class_attempted[c];
            self.class_served[c] += other.class_served[c];
            self.class_fidelity_sum[c] += other.class_fidelity_sum[c];
        }
    }

    /// Fold a slice of materialized outcomes (with their classes).
    pub fn from_outcomes(outcomes: &[RetryOutcome], classes: &[usize]) -> GroupAgg {
        let mut agg = GroupAgg::default();
        for (o, &c) in outcomes.iter().zip(classes) {
            agg.absorb(o, c);
        }
        agg
    }
}

impl FrameCodec for GroupAgg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.attempted.encode(out);
        self.served_first_try.encode(out);
        self.served_after_retry.encode(out);
        self.expired.encode(out);
        self.fidelity_sum.encode(out);
        self.link_fidelity_sum.encode(out);
        self.eta_sum.encode(out);
        self.hops_sum.encode(out);
        self.attempts_sum.encode(out);
        self.wait_hist.encode(out);
        self.class_attempted.encode(out);
        self.class_served.encode(out);
        self.class_fidelity_sum.encode(out);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let agg = GroupAgg {
            attempted: u64::decode(r)?,
            served_first_try: u64::decode(r)?,
            served_after_retry: u64::decode(r)?,
            expired: u64::decode(r)?,
            fidelity_sum: f64::decode(r)?,
            link_fidelity_sum: f64::decode(r)?,
            eta_sum: f64::decode(r)?,
            hops_sum: f64::decode(r)?,
            attempts_sum: f64::decode(r)?,
            wait_hist: Vec::<u64>::decode(r)?,
            class_attempted: Vec::<u64>::decode(r)?,
            class_served: Vec::<u64>::decode(r)?,
            class_fidelity_sum: Vec::<f64>::decode(r)?,
        };
        if agg.class_attempted.len() != PRIORITY_CLASSES
            || agg.class_served.len() != PRIORITY_CLASSES
            || agg.class_fidelity_sum.len() != PRIORITY_CLASSES
        {
            return Err(DecodeError("group agg class arity".into()));
        }
        Ok(agg)
    }
}

/// Per-priority-class service-level numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassSlo {
    pub attempted: u64,
    pub served: u64,
    pub served_percent: f64,
    pub mean_fidelity: f64,
}

/// The SLO report of one serve run — everything the artifact publishes.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Accepted requests attempted.
    pub attempted: u64,
    pub served_first_try: u64,
    pub served_after_retry: u64,
    pub expired: u64,
    /// Requests rejected at the ingest boundary (never attempted).
    pub rejected: u64,
    /// Median wait (steps from arrival to service) over served requests;
    /// `None` when nothing was served (a run with zero served requests
    /// has no waits to rank — it used to report a misleading `0`, which
    /// is indistinguishable from "everything served instantly").
    pub p50_wait_steps: Option<u64>,
    /// 95th-percentile wait over served requests (nearest-rank); `None`
    /// when nothing was served.
    pub p95_wait_steps: Option<u64>,
    pub mean_fidelity: f64,
    pub mean_link_fidelity: f64,
    pub mean_eta: f64,
    pub mean_hops: f64,
    pub mean_attempts: f64,
    /// Requests shed by the overload layer (a subset of `expired`; zero
    /// in the group entry points' reports). See [`crate::overload`].
    pub shed: u64,
    /// Retries deferred to a later backoff slot by the retry budget
    /// (zero in the group entry points' reports).
    pub deferred_by_budget: u64,
    /// Steps spent on each degradation rung over the whole timeline,
    /// indexed by [`crate::overload::DegradeMode`]; all-zero in the group
    /// entry points' reports, which walk without a coupling.
    pub degrade_mode_steps: [u64; crate::overload::DEGRADE_MODES],
    /// Per priority class, index = class.
    pub classes: Vec<ClassSlo>,
}

impl ServeReport {
    /// Requests served by any attempt.
    pub fn served(&self) -> u64 {
        self.served_first_try + self.served_after_retry
    }

    /// Served percentage over attempted.
    pub fn served_percent(&self) -> f64 {
        percent(self.served(), self.attempted)
    }

    /// Percentage served without a retry.
    pub fn first_try_percent(&self) -> f64 {
        percent(self.served_first_try, self.attempted)
    }

    /// Percentage rescued by the retry layer.
    pub fn rescued_percent(&self) -> f64 {
        percent(self.served_after_retry, self.attempted)
    }

    /// Percentage that expired unserved.
    pub fn expired_percent(&self) -> f64 {
        percent(self.expired, self.attempted)
    }

    /// Render as a JSON object (hand-rolled: the artifact writers in this
    /// workspace avoid a serializer dependency).
    pub fn to_json(&self) -> String {
        let classes: Vec<String> = self
            .classes
            .iter()
            .enumerate()
            .map(|(c, s)| {
                format!(
                    "{{\"class\":{c},\"attempted\":{},\"served\":{},\"served_percent\":{:.4},\"mean_fidelity\":{:.6}}}",
                    s.attempted, s.served, s.served_percent, s.mean_fidelity
                )
            })
            .collect();
        let modes: Vec<String> = self
            .degrade_mode_steps
            .iter()
            .map(|m| m.to_string())
            .collect();
        format!(
            "{{\n  \"attempted\": {},\n  \"rejected\": {},\n  \"served_percent\": {:.4},\n  \"first_try_percent\": {:.4},\n  \"rescued_percent\": {:.4},\n  \"expired_percent\": {:.4},\n  \"p50_wait_steps\": {},\n  \"p95_wait_steps\": {},\n  \"mean_fidelity\": {:.6},\n  \"mean_link_fidelity\": {:.6},\n  \"mean_eta\": {:.6},\n  \"mean_hops\": {:.4},\n  \"mean_attempts\": {:.4},\n  \"shed\": {},\n  \"deferred_by_budget\": {},\n  \"degrade_mode_steps\": [{}],\n  \"classes\": [{}]\n}}\n",
            self.attempted,
            self.rejected,
            self.served_percent(),
            self.first_try_percent(),
            self.rescued_percent(),
            self.expired_percent(),
            json_opt_u64(self.p50_wait_steps),
            json_opt_u64(self.p95_wait_steps),
            self.mean_fidelity,
            self.mean_link_fidelity,
            self.mean_eta,
            self.mean_hops,
            self.mean_attempts,
            self.shed,
            self.deferred_by_budget,
            modes.join(","),
            classes.join(",")
        )
    }
}

/// JSON rendering of an optional count: the number, or `null`.
fn json_opt_u64(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Nearest-rank percentile over a wait histogram; `None` on an empty
/// served set (there is no rank to take — reporting `0` would conflate
/// "nothing served" with "everything served with zero wait").
fn percentile(hist: &[u64], total: u64, q: f64) -> Option<u64> {
    if total == 0 {
        return None;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (w, &count) in hist.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return Some(w as u64);
        }
    }
    Some(hist.len().saturating_sub(1) as u64)
}

/// Fold per-group aggregates (in group order) into the final report.
pub fn report_from_aggs(aggs: &[GroupAgg], rejected: u64) -> ServeReport {
    let mut total = GroupAgg::default();
    for agg in aggs {
        total.merge(agg);
    }
    let served = total.served_first_try + total.served_after_retry;
    let classes = (0..PRIORITY_CLASSES)
        .map(|c| ClassSlo {
            attempted: total.class_attempted[c],
            served: total.class_served[c],
            served_percent: percent(total.class_served[c], total.class_attempted[c]),
            mean_fidelity: if total.class_served[c] == 0 {
                0.0
            } else {
                total.class_fidelity_sum[c] / total.class_served[c] as f64
            },
        })
        .collect();
    ServeReport {
        attempted: total.attempted,
        served_first_try: total.served_first_try,
        served_after_retry: total.served_after_retry,
        expired: total.expired,
        rejected,
        p50_wait_steps: percentile(&total.wait_hist, served, 0.50),
        p95_wait_steps: percentile(&total.wait_hist, served, 0.95),
        mean_fidelity: mean(total.fidelity_sum, served),
        mean_link_fidelity: mean(total.link_fidelity_sum, served),
        mean_eta: mean(total.eta_sum, served),
        mean_hops: mean(total.hops_sum, served),
        mean_attempts: mean(total.attempts_sum, total.attempted),
        shed: 0,
        deferred_by_budget: 0,
        degrade_mode_steps: [0; crate::overload::DEGRADE_MODES],
        classes,
    }
}

fn mean(sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Serve the whole queue under `hold` into an SLO report, holding only
/// one [`GroupAgg`] per arrival group. Parallel over contiguous ranges of
/// groups on the engine's workers; bit-identical to folding
/// [`serve_full_with_holds`]'s outcomes.
pub fn serve_report_with_holds(
    engine: &SweepEngine<'_>,
    queue: &RequestQueue,
    policy: RetryPolicy,
    metric: RouteMetric,
    hold: &HoldPolicy,
    rejected: u64,
) -> ServeReport {
    let walk = Walk::uncoupled(engine, queue, policy, metric, hold);
    let aggs = engine.map_ranges(&queue.arrival_steps(), |scratch, arrivals| {
        walk.aggs(arrivals, scratch)
    });
    report_from_aggs(&aggs, rejected)
}

/// Per-step serving ([`HoldPolicy::disabled`]) into per-group aggregates
/// under the resilient runtime contract: checkpointed, cancellable,
/// panic-isolated per chunk of arrival groups. Each work unit — a chunk
/// of [`RunPolicy::chunk_steps`] groups, or a piece of one — is one
/// step-major walk, so the chunk size also bounds how many groups share
/// a routing round; a panic poisons the whole unit. The fingerprint must
/// cover every parameter the outcomes depend on (workload
/// seed/kind/size, policy, metric, constellation) — see
/// [`qntn_common::frame::fingerprint`].
pub fn serve_resilient(
    engine: &SweepEngine<'_>,
    queue: &RequestQueue,
    policy: RetryPolicy,
    metric: RouteMetric,
    caller_fingerprint: u64,
    run_policy: &RunPolicy,
) -> Result<RunReport<GroupAgg>, QntnError> {
    let walk = Walk::uncoupled(engine, queue, policy, metric, &HoldPolicy::disabled());
    run_ranges(
        engine,
        &queue.arrival_steps(),
        caller_fingerprint,
        run_policy,
        |scratch, arrivals| walk.aggs(arrivals, scratch),
    )
}

/// Fold a (possibly partial) resilient run into a report: completed
/// groups only. A clean complete run's report equals
/// [`serve_report_with_holds`]'s at [`HoldPolicy::disabled`] bit for bit.
pub fn report_from_run(run: &RunReport<GroupAgg>, rejected: u64) -> ServeReport {
    let mut total = GroupAgg::default();
    for agg in run.outputs.iter().flatten() {
        total.merge(agg);
    }
    report_from_aggs(&[total], rejected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ingest, RawRequest};
    use qntn_geo::{Epoch, Geodetic};
    use qntn_net::{Host, QuantumNetworkSim, SimConfig};
    use qntn_orbit::{paper_constellation, Ephemeris, PerturbationModel, Propagator};

    /// Four ground hosts in three LANs and 24 satellites over 60 steps,
    /// with no HAP: the LANs meet only through passing satellites, so
    /// some requests are served at once, some after retries, and some
    /// expire.
    fn satellite_only_sim() -> QuantumNetworkSim {
        let steps = 60;
        let props: Vec<Propagator> = paper_constellation(24)
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
        for (i, eph) in ephs.into_iter().enumerate() {
            hosts.push(Host::satellite(format!("SAT-{i:03}"), eph, 1.2));
        }
        QuantumNetworkSim::new(hosts, SimConfig::default(), steps, 30.0)
    }

    /// Attempts a request made, by its outcome.
    fn attempts(outcome: &RetryOutcome) -> usize {
        match outcome {
            RetryOutcome::ServedFirstTry(_) => 1,
            RetryOutcome::ServedAfterRetry { attempts, .. } => *attempts,
            RetryOutcome::Expired { attempts } => *attempts,
        }
    }

    #[test]
    fn a_range_routes_one_round_per_step_and_one_sssp_per_step_and_source() {
        let sim = satellite_only_sim();
        let engine = SweepEngine::new(&sim);
        let metric = RouteMetric::PaperInverseEta;
        let policy = RetryPolicy::standard();
        let hold = HoldPolicy::disabled();
        // One group at each of the first 40 steps, every group with the
        // same sources.
        let groups = 40;
        let pairs = [(0, 2), (0, 3), (2, 3), (3, 0), (1, 2), (2, 0)];
        let stream: Vec<RawRequest> = (0..groups)
            .flat_map(|t| {
                pairs.iter().map(move |&(src, dst)| RawRequest {
                    src,
                    dst,
                    arrival_step: t,
                    deadline_steps: 20,
                    priority: 0,
                })
            })
            .collect();
        let (queue, rejected) = ingest(sim.hosts().len(), sim.steps(), &stream);
        assert!(rejected.is_empty());
        let arrivals = queue.arrival_steps();
        assert_eq!(arrivals.len(), groups);

        let serve = |walk: &Walk<'_>, range: &[usize]| {
            walk.groups(range, &mut SweepScratch::default(), |_, outcomes, _| {
                outcomes
            })
            .concat()
        };
        let shared = Walk::uncoupled(&engine, &queue, policy, metric, &hold);
        let outcomes = serve(&shared, &arrivals);
        // Ranges of one group are the per-group algorithm, round for round.
        let single = Walk::uncoupled(&engine, &queue, policy, metric, &hold);
        let per_group: Vec<RetryOutcome> = arrivals
            .iter()
            .flat_map(|a| serve(&single, std::slice::from_ref(a)))
            .collect();
        assert_eq!(per_group, outcomes);

        // Each group makes as many rounds as its longest-lived request
        // attempts, and a request attempts at a prefix of its group's
        // schedule.
        let mut group_rounds = 0;
        let mut attempted = Vec::new();
        for (arrival, requests) in queue.groups() {
            let schedule = policy.attempt_steps(*arrival, sim.steps());
            let made = requests
                .clone()
                .map(|qi| attempts(&outcomes[qi]))
                .max()
                .unwrap();
            group_rounds += made as u64;
            for qi in requests.clone() {
                let steps = &schedule[..attempts(&outcomes[qi])];
                attempted.extend(steps.iter().map(|&t| (t, queue.src(qi))));
            }
        }
        attempted.sort_unstable();
        attempted.dedup();

        let first_try = outcomes
            .iter()
            .filter(|o| matches!(o, RetryOutcome::ServedFirstTry(_)))
            .count();
        let served = outcomes
            .iter()
            .filter(|o| o.distribution().is_some())
            .count();
        assert!(0 < first_try && first_try < served && served < outcomes.len());
        let bound = (groups + 14) as u64;
        assert!(
            group_rounds > bound,
            "groups must retry for the bound to bite"
        );
        assert_eq!(single.router.log.lock().unwrap().0, group_rounds);
        let (rounds, mut runs) = shared.router.log.into_inner().unwrap();
        assert!(rounds <= bound, "{rounds} rounds for {groups} groups");
        runs.sort_unstable();
        assert_eq!(runs, attempted, "one SSSP per distinct (step, source)");
    }

    #[test]
    fn groups_arriving_past_the_end_of_the_day_expire_unattempted() {
        let sim = satellite_only_sim();
        let engine = SweepEngine::new(&sim);
        // A queue ingested for a longer day than the engine's 60 steps.
        let stream: Vec<RawRequest> = [58, 59, 70, 80]
            .into_iter()
            .map(|arrival_step| RawRequest {
                src: 0,
                dst: 2,
                arrival_step,
                deadline_steps: 20,
                priority: 0,
            })
            .collect();
        let (queue, rejected) = ingest(sim.hosts().len(), 100, &stream);
        assert!(rejected.is_empty());
        let policy = RetryPolicy::standard();
        let outcomes = serve_full_with_holds(
            &engine,
            &queue,
            policy,
            RouteMetric::PaperInverseEta,
            &HoldPolicy::disabled(),
        );
        assert!(attempts(&outcomes[0]) >= 1 && attempts(&outcomes[1]) >= 1);
        for late in &outcomes[2..] {
            assert_eq!(*late, RetryOutcome::Expired { attempts: 0 });
        }
        // The same in one range that mixes both kinds of group.
        let walk = Walk::uncoupled(
            &engine,
            &queue,
            policy,
            RouteMetric::PaperInverseEta,
            &HoldPolicy::disabled(),
        );
        let walked = walk.groups(
            &queue.arrival_steps(),
            &mut SweepScratch::default(),
            |_, outcomes, _| outcomes,
        );
        assert_eq!(walked.concat(), outcomes);
        // And under every coupling, where the whole queue is one range.
        let model = CapacityModel {
            attempt_rate_hz: 5.0,
            window_s: 30.0,
        };
        for overload in [OverloadPolicy::disabled(), OverloadPolicy::standard(3)] {
            for admission in [None, Some(model)] {
                let out = crate::serve_overload(
                    &engine,
                    &queue,
                    policy,
                    RouteMetric::PaperInverseEta,
                    admission,
                    &HoldPolicy::disabled(),
                    &overload,
                );
                let ctx = format!("{overload:?}, {admission:?}");
                assert!(attempts(&out.outcomes[0]) >= 1, "{ctx}");
                for qi in 2..queue.len() {
                    assert_eq!(out.outcomes[qi], RetryOutcome::Expired { attempts: 0 });
                    assert_eq!(out.shed[qi], None, "{ctx}");
                }
                if overload == OverloadPolicy::disabled() && admission.is_none() {
                    assert_eq!(out.outcomes, outcomes);
                }
            }
        }
    }
}
