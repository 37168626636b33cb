//! The group walk and the SLO report.
//!
//! Without link capacities arrival groups never interact, so this module
//! serves a contiguous range of arrival groups in one step-major walk,
//! and ranges in parallel. Per step it collects every group attempting
//! there, builds the step's graph once, routes all their still-pending
//! eligible requests in one kernel round (one SSSP per *distinct source*
//! across the groups, one extraction per request) and realizes each
//! route. The range bounds the sharing: groups of different ranges route
//! in different rounds, and a range of one group is the per-group
//! algorithm. At [`HoldPolicy::disabled`] the walk is bit-identical to
//! the naive per-request path (`RequestWorkload::evaluate_with_retries`
//! in `qntn-net`, one full Bellman–Ford per request per attempt), clean
//! and faulted, at every worker count — the differential suites hold the
//! whole stack to that claim.
//!
//! Retry semantics reuse [`RetryPolicy`] unchanged. A request's
//! per-request deadline caps the policy's: because backoff offsets are
//! monotone (`b, 3b, 7b, …`), every request's attempt schedule is a
//! *prefix* of its group's, so per-request deadlines cost one comparison
//! per round, not a schedule recomputation.
//!
//! Three entry points share the walk:
//! - [`serve_full_with_holds`] materializes every [`RetryOutcome`]
//!   (differential tests, small batches);
//! - [`serve_report_with_holds`] folds each group straight into a compact
//!   [`GroupAgg`] so million-request runs never hold per-request state;
//! - [`serve_resilient`] runs the same fold for per-step serving under the
//!   resilient runtime contract (checkpoint/cancel/panic isolation) via
//!   [`qntn_net::run_ranges`], one walk per work unit.

use crate::hold::HoldPolicy;
use crate::kernel::{RoundEntry, Router};
use crate::request::{RequestQueue, PRIORITY_CLASSES};
use qntn_common::codec::{ByteReader, DecodeError, FrameCodec};
use qntn_common::QntnError;
use qntn_net::entanglement::realize_with_hold;
use qntn_net::requests::{RetryOutcome, RetryPolicy};
use qntn_net::runtime::{run_ranges, RunPolicy, RunReport};
use qntn_net::{SweepEngine, SweepScratch};
use qntn_routing::RouteMetric;
use std::collections::VecDeque;
use std::ops::Range;

/// One arrival group in flight in a range walk.
struct Flight {
    arrival: usize,
    /// The group's queue range.
    requests: Range<usize>,
    schedule: Vec<usize>,
    /// Attempts made so far; `schedule[attempt]` is the next one.
    attempt: usize,
    /// Per request, in queue order: its outcome once served, and the
    /// rounds it was eligible for.
    outcome: Vec<Option<RetryOutcome>>,
    eligible_attempts: Vec<usize>,
    pending: usize,
    done: bool,
}

impl Flight {
    fn new(queue: &RequestQueue, policy: RetryPolicy, arrival: usize, n_steps: usize) -> Flight {
        let requests = queue
            .group_range(arrival)
            .expect("arrival steps come from the queue's own groups");
        let schedule = policy.attempt_steps(arrival, n_steps);
        let len = requests.len();
        Flight {
            arrival,
            requests,
            done: schedule.is_empty(),
            schedule,
            attempt: 0,
            outcome: vec![None; len],
            eligible_attempts: vec![0; len],
            pending: len,
        }
    }

    /// The group's queue range and its outcomes in queue order; a request
    /// never served expired after its eligible rounds.
    fn finish(self) -> (Range<usize>, Vec<RetryOutcome>) {
        let outcomes = self
            .outcome
            .into_iter()
            .zip(self.eligible_attempts)
            .map(|(slot, attempts)| slot.unwrap_or(RetryOutcome::Expired { attempts }))
            .collect();
        (self.requests, outcomes)
    }
}

/// Serve the arrival groups at `arrivals` — ascending arrival steps of
/// `queue`'s groups — step-major, returning `fold(queue range, outcomes)`
/// per group in arrival order.
///
/// Per step: every group attempting there adds its still-pending requests
/// within their deadline to one round; the step's graph is built once and
/// the round routed through the kernel, and every routed request
/// realized. A group with no eligible request in a round is done, and so
/// is one with nothing pending or no attempt left. Offsets grow
/// monotonically, so a request past its deadline never becomes eligible
/// again. Each group is folded as soon as it and every earlier group are
/// done, so only groups in flight are held.
fn serve_range<R>(
    router: &Router<'_>,
    queue: &RequestQueue,
    policy: RetryPolicy,
    arrivals: &[usize],
    scratch: &mut SweepScratch,
    mut fold: impl FnMut(Range<usize>, Vec<RetryOutcome>) -> R,
) -> Vec<R> {
    let n_steps = router.engine.sim().steps();
    let mut out = Vec::with_capacity(arrivals.len());
    let Some((&lo, &last)) = arrivals.first().zip(arrivals.last()) else {
        return out;
    };
    // Every attempt lands within `arrival ..= arrival + deadline` and the
    // day.
    let hi = last
        .saturating_add(policy.deadline_steps)
        .saturating_add(1)
        .min(n_steps);
    // Agenda: the groups (indices into `arrivals`) attempting at each
    // step from `lo`; `flights[0]` is the group at `arrivals[out.len()]`.
    let mut agenda: Vec<Vec<usize>> = vec![Vec::new(); hi.saturating_sub(lo)];
    let mut flights: VecDeque<Flight> = VecDeque::new();
    let mut round: Vec<RoundEntry> = Vec::new();
    // The `(group, request)` of each round entry.
    let mut slots: Vec<(usize, usize)> = Vec::new();

    for t in lo..hi {
        let opened = out.len() + flights.len();
        if arrivals.get(opened) == Some(&t) {
            agenda[t - lo].push(opened);
            flights.push_back(Flight::new(queue, policy, t, n_steps));
        }
        let due = std::mem::take(&mut agenda[t - lo]);
        if due.is_empty() {
            continue;
        }
        let folded = out.len();
        round.clear();
        slots.clear();
        for &j in &due {
            let f = &mut flights[j - folded];
            let (k, offset) = (f.attempt, t - f.arrival);
            let before = round.len();
            for li in 0..f.outcome.len() {
                if f.outcome[li].is_some() {
                    continue;
                }
                let qi = f.requests.start + li;
                // The effective deadline is the tighter of the request's
                // and the policy's; the group schedule already enforced
                // the policy's, so only the per-request cap needs checking.
                if k > 0 && offset > queue.deadline(qi) {
                    continue;
                }
                f.eligible_attempts[li] += 1;
                round.push((queue.src(qi), queue.dst(qi), slots.len()));
                slots.push((j, li));
            }
            f.done = round.len() == before;
        }
        if !round.is_empty() {
            // Steps only ascend within a walk, so none of its later
            // windows starts below `t`. A later walk on this scratch
            // serves later groups, so the layers past `last` stay for it
            // to copy. The scratch holds at most `deadline + horizon + 1`
            // layers.
            scratch.layers.retire_below(t.min(last + 1));
            router.build(t, router.horizon, scratch);
            router.route_round(scratch, &mut round, |e, tr| {
                let (j, li) = slots[e];
                let f = &mut flights[j - folded];
                let d = realize_with_hold(&tr.route, &tr.link_etas, tr.hold_eta);
                let waited = t - f.arrival + tr.delivered_layer;
                f.outcome[li] = Some(if f.attempt == 0 && waited == 0 {
                    RetryOutcome::ServedFirstTry(d)
                } else {
                    RetryOutcome::ServedAfterRetry {
                        distribution: d,
                        attempts: f.attempt + 1,
                        waited_steps: waited,
                    }
                });
                f.pending -= 1;
            });
        }
        for &j in &due {
            let f = &mut flights[j - folded];
            if f.done {
                continue;
            }
            f.attempt += 1;
            match f.schedule.get(f.attempt) {
                Some(&next) if f.pending > 0 => agenda[next - lo].push(j),
                _ => f.done = true,
            }
        }
        let finished = flights.iter().take_while(|f| f.done).count();
        for f in flights.drain(..finished) {
            let (requests, outcomes) = f.finish();
            out.push(fold(requests, outcomes));
        }
    }
    // Every attempt of an opened group came before `hi`, so only groups
    // arriving past the end of the day are left; they make no attempt.
    debug_assert!(flights.is_empty());
    for &arrival in &arrivals[out.len()..] {
        let (requests, outcomes) = Flight::new(queue, policy, arrival, n_steps).finish();
        out.push(fold(requests, outcomes));
    }
    out
}

/// Fold one group's outcomes, in queue order over `requests`, into a
/// [`GroupAgg`] — the per-group fold of [`serve_report_with_holds`] and
/// [`serve_resilient`].
fn group_agg(
    queue: &RequestQueue,
    requests: Range<usize>,
    outcomes: Vec<RetryOutcome>,
) -> GroupAgg {
    let mut agg = GroupAgg::default();
    for (qi, outcome) in requests.zip(&outcomes) {
        agg.absorb(outcome, queue.class(qi));
    }
    agg
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
    let router = Router::new(engine, metric, hold);
    engine
        .map_ranges(&queue.arrival_steps(), |scratch, arrivals| {
            serve_range(&router, queue, policy, arrivals, scratch, |_, outcomes| {
                outcomes
            })
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
    /// in the group driver's reports). See [`crate::overload`].
    pub shed: u64,
    /// Retries deferred to a later backoff slot by the retry budget
    /// (zero in the group driver's reports).
    pub deferred_by_budget: u64,
    /// Steps spent on each degradation rung over the whole timeline,
    /// indexed by [`crate::overload::DegradeMode`]; all-zero in the group
    /// driver's reports (it never evaluates the ladder).
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
    let router = Router::new(engine, metric, hold);
    let aggs = engine.map_ranges(&queue.arrival_steps(), |scratch, arrivals| {
        serve_range(
            &router,
            queue,
            policy,
            arrivals,
            scratch,
            |requests, outcomes| group_agg(queue, requests, outcomes),
        )
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
    let router = Router::new(engine, metric, &HoldPolicy::disabled());
    run_ranges(
        engine,
        &queue.arrival_steps(),
        caller_fingerprint,
        run_policy,
        |scratch, arrivals| {
            serve_range(
                &router,
                queue,
                policy,
                arrivals,
                scratch,
                |requests, outcomes| group_agg(queue, requests, outcomes),
            )
        },
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

        let walk = |router: &Router<'_>, range: &[usize]| {
            serve_range(
                router,
                &queue,
                policy,
                range,
                &mut SweepScratch::default(),
                |_, outcomes| outcomes,
            )
            .concat()
        };
        let shared = Router::new(&engine, metric, &hold);
        let outcomes = walk(&shared, &arrivals);
        // Ranges of one group are the per-group algorithm, round for round.
        let single = Router::new(&engine, metric, &hold);
        let per_group: Vec<RetryOutcome> = arrivals
            .iter()
            .flat_map(|a| walk(&single, std::slice::from_ref(a)))
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
        assert_eq!(single.log.lock().unwrap().0, group_rounds);
        let (rounds, mut runs) = shared.log.into_inner().unwrap();
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
        let router = Router::new(
            &engine,
            RouteMetric::PaperInverseEta,
            &HoldPolicy::disabled(),
        );
        let walked = serve_range(
            &router,
            &queue,
            policy,
            &queue.arrival_steps(),
            &mut SweepScratch::default(),
            |_, outcomes| outcomes,
        );
        assert_eq!(walked.concat(), outcomes);
    }
}
