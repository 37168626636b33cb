//! Entanglement-request workloads (paper Fig. 7 / Fig. 8).
//!
//! The paper generates 100 random requests whose source and destination lie
//! in *different* LANs, counts how many can be served at each of 100 time
//! steps of satellite movement, and averages. [`RequestWorkload::generate`]
//! draws such a batch (seeded, deterministic) and [`sample_steps`] picks
//! the steps; `qntn-serve`'s serving walk serves the batches, at a single
//! attempt for the paper's sweep.
//!
//! The retry layer ([`RetryPolicy`], [`RetryOutcome`], [`RetryStats`])
//! extends this for faulty networks: a request blocked at its arrival step
//! may be re-attempted with doubling backoff within a deadline window, and
//! outcomes split into served-first-try / served-after-retry / expired.
//! [`RetryPolicy::none`] is the paper's single attempt, and
//! [`aggregate_retry_outcomes`] folds every served-request statistic.
//! [`RequestWorkload::evaluate_with_retries`] is the naive per-request
//! oracle the serving walk is differentially tested against.

use crate::entanglement::{distribute, Distribution};
use crate::faults::CompiledFaults;
use crate::simulator::QuantumNetworkSim;
use qntn_routing::{NodeId, RouteMetric};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// One entanglement-distribution request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    pub src: NodeId,
    pub dst: NodeId,
}

/// A batch of inter-LAN requests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestWorkload {
    pub requests: Vec<Request>,
}

impl RequestWorkload {
    /// Draw `n` random requests between ground nodes of *different* LANs,
    /// deterministically from `seed`.
    ///
    /// # Panics
    /// Panics when the simulator has fewer than two LANs with members.
    pub fn generate(sim: &QuantumNetworkSim, n: usize, seed: u64) -> RequestWorkload {
        let lans: Vec<&[usize]> = (0..sim.lan_count())
            .map(|l| sim.lan_members(l))
            .filter(|m| !m.is_empty())
            .collect();
        assert!(lans.len() >= 2, "need at least two populated LANs");
        let mut rng = StdRng::seed_from_u64(seed);
        let requests = (0..n)
            .map(|_| {
                let a = rng.random_range(0..lans.len());
                let b = loop {
                    let b = rng.random_range(0..lans.len());
                    if b != a {
                        break b;
                    }
                };
                let src = lans[a][rng.random_range(0..lans[a].len())];
                let dst = lans[b][rng.random_range(0..lans[b].len())];
                Request { src, dst }
            })
            .collect();
        RequestWorkload { requests }
    }

    /// Evaluate the workload arriving at step `arrival` under `faults`,
    /// with `policy` governing re-attempts — the naive per-request oracle
    /// `qntn-serve`'s serving kernel is differentially tested against.
    /// Builds one faulted thresholded graph per attempt step and serves
    /// every still-pending request on it with its own Bellman–Ford;
    /// requests that exhaust the schedule expire. Outcomes are returned in
    /// request order.
    pub fn evaluate_with_retries(
        &self,
        sim: &QuantumNetworkSim,
        arrival: usize,
        metric: RouteMetric,
        policy: RetryPolicy,
        faults: &CompiledFaults,
    ) -> Vec<RetryOutcome> {
        let schedule = policy.attempt_steps(arrival, sim.steps());
        let mut outcomes: Vec<Option<RetryOutcome>> = vec![None; self.requests.len()];
        let mut pending = self.requests.len();
        for (k, &t) in schedule.iter().enumerate() {
            if pending == 0 {
                break;
            }
            let graph = sim.active_graph_at_with_faults(t, faults);
            for (r, slot) in self.requests.iter().zip(outcomes.iter_mut()) {
                if slot.is_some() {
                    continue;
                }
                if let Some(d) = distribute(&graph, r.src, r.dst, metric) {
                    *slot = Some(if k == 0 {
                        RetryOutcome::ServedFirstTry(d)
                    } else {
                        RetryOutcome::ServedAfterRetry {
                            distribution: d,
                            attempts: k + 1,
                            waited_steps: t - arrival,
                        }
                    });
                    pending -= 1;
                }
            }
        }
        outcomes
            .into_iter()
            .map(|o| {
                o.unwrap_or(RetryOutcome::Expired {
                    attempts: schedule.len(),
                })
            })
            .collect()
    }
}

/// When and how often a blocked request may be re-attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum total attempts (including the first). At least 1.
    pub max_attempts: usize,
    /// First re-attempt delay, steps; subsequent delays double. 0 disables
    /// retries entirely (single attempt).
    pub backoff_steps: usize,
    /// A re-attempt may not be scheduled later than `arrival +
    /// deadline_steps`.
    pub deadline_steps: usize,
}

impl RetryPolicy {
    /// Single attempt, no retries — the paper's semantics.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff_steps: 0,
            deadline_steps: 0,
        }
    }

    /// Default production-ish policy: up to 4 attempts at arrival,
    /// +2, +6, +14 steps (doubling backoff), all within a 20-step
    /// (10-minute) deadline.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff_steps: 2,
            deadline_steps: 20,
        }
    }

    /// The attempt steps for a request arriving at `arrival`: the arrival
    /// step itself, then doubling-backoff re-attempts while they stay
    /// within the deadline window and the simulated day. An arrival at or
    /// beyond `n_steps` is simply unschedulable — empty schedule, never a
    /// panic (request arrivals are untrusted input once `qntn-serve`
    /// ingests them by the million).
    pub fn attempt_steps(&self, arrival: usize, n_steps: usize) -> Vec<usize> {
        if arrival >= n_steps {
            return Vec::new();
        }
        let mut steps = vec![arrival];
        if self.backoff_steps == 0 {
            return steps;
        }
        // Offsets from arrival: b, 3b, 7b, ... — each gap doubles.
        let mut offset = self.backoff_steps;
        while steps.len() < self.max_attempts.max(1) {
            let t = arrival.saturating_add(offset);
            if t >= n_steps || offset > self.deadline_steps {
                break;
            }
            steps.push(t);
            offset = offset.saturating_mul(2).saturating_add(self.backoff_steps);
        }
        steps
    }
}

/// Outcome of one request under a retry policy.
#[derive(Debug, Clone, PartialEq)]
pub enum RetryOutcome {
    /// Served on the arrival step, no retry needed.
    ServedFirstTry(Distribution),
    /// Blocked at arrival but served later — by a retry, or (in the
    /// hold-aware serving mode) by a quantum memory bridging to a later
    /// pass within the same attempt.
    ServedAfterRetry {
        distribution: Distribution,
        /// Total attempts used, including the first (≥ 2 on the per-step
        /// path; a memory-rescued first attempt reports 1).
        attempts: usize,
        /// Steps between arrival and delivery (attempt offset plus, in
        /// hold mode, the steps spent holding).
        waited_steps: usize,
    },
    /// Every attempt within the deadline failed.
    Expired {
        /// Total attempts made.
        attempts: usize,
    },
}

impl RetryOutcome {
    /// The serving distribution, if the request was served at all.
    pub fn distribution(&self) -> Option<&Distribution> {
        match self {
            RetryOutcome::ServedFirstTry(d) => Some(d),
            RetryOutcome::ServedAfterRetry { distribution, .. } => Some(distribution),
            RetryOutcome::Expired { .. } => None,
        }
    }
}

/// Aggregate statistics over a retried (steps × requests) sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryStats {
    /// Total requests attempted.
    pub attempted: usize,
    /// Served on the arrival step.
    pub served_first_try: usize,
    /// Served by a re-attempt.
    pub served_after_retry: usize,
    /// Never served within the deadline.
    pub expired: usize,
    /// Mean end-to-end square-root fidelity over served requests.
    pub mean_fidelity: f64,
    /// Mean per-link square-root fidelity over served requests.
    pub mean_link_fidelity: f64,
    /// Mean end-to-end transmissivity over served requests.
    pub mean_eta: f64,
    /// Mean hop count over served requests.
    pub mean_hops: f64,
    /// Mean attempts per request (served or not).
    pub mean_attempts: f64,
    /// Mean wait (steps from arrival to service) over served requests.
    pub mean_wait_steps: f64,
}

impl RetryStats {
    /// Requests served by any attempt.
    pub fn served(&self) -> usize {
        self.served_first_try + self.served_after_retry
    }

    /// Served percentage (any attempt).
    pub fn served_percent(&self) -> f64 {
        percent(self.served(), self.attempted)
    }

    /// Percentage served without needing a retry.
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
}

fn percent(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Fold per-arrival-step retry outcomes into [`RetryStats`], in step order.
pub fn aggregate_retry_outcomes(per_step: &[Vec<RetryOutcome>]) -> RetryStats {
    let mut stats = RetryStats {
        attempted: 0,
        served_first_try: 0,
        served_after_retry: 0,
        expired: 0,
        mean_fidelity: 0.0,
        mean_link_fidelity: 0.0,
        mean_eta: 0.0,
        mean_hops: 0.0,
        mean_attempts: 0.0,
        mean_wait_steps: 0.0,
    };
    let (mut f_sum, mut fl_sum, mut eta_sum, mut hop_sum) = (0.0, 0.0, 0.0, 0.0);
    let (mut attempt_sum, mut wait_sum) = (0.0, 0.0);
    for outcomes in per_step {
        for o in outcomes {
            stats.attempted += 1;
            match o {
                RetryOutcome::ServedFirstTry(_) => {
                    stats.served_first_try += 1;
                    attempt_sum += 1.0;
                }
                RetryOutcome::ServedAfterRetry {
                    attempts,
                    waited_steps,
                    ..
                } => {
                    stats.served_after_retry += 1;
                    attempt_sum += *attempts as f64;
                    wait_sum += *waited_steps as f64;
                }
                RetryOutcome::Expired { attempts } => {
                    stats.expired += 1;
                    attempt_sum += *attempts as f64;
                }
            }
            if let Some(d) = o.distribution() {
                f_sum += d.fidelity;
                fl_sum += d.mean_link_fidelity;
                eta_sum += d.eta;
                hop_sum += (d.path.len() - 1) as f64;
            }
        }
    }
    let served = stats.served();
    if served > 0 {
        stats.mean_fidelity = f_sum / served as f64;
        stats.mean_link_fidelity = fl_sum / served as f64;
        stats.mean_eta = eta_sum / served as f64;
        stats.mean_hops = hop_sum / served as f64;
        stats.mean_wait_steps = wait_sum / served as f64;
    }
    if stats.attempted > 0 {
        stats.mean_attempts = attempt_sum / stats.attempted as f64;
    }
    stats
}

/// Evenly spaced sample of `count` step indices across `total` steps —
/// how the experiments pick their "100 time steps of satellite movement".
pub fn sample_steps(total: usize, count: usize) -> Vec<usize> {
    assert!(total > 0 && count > 0);
    if count >= total {
        return (0..total).collect();
    }
    (0..count).map(|i| i * total / count).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;
    use crate::linkeval::SimConfig;
    use qntn_geo::Geodetic;

    fn hap_sim() -> QuantumNetworkSim {
        let hosts = vec![
            Host::ground("A-0", 0, Geodetic::from_deg(36.1757, -85.5066, 300.0), 1.2),
            Host::ground("A-1", 0, Geodetic::from_deg(36.1751, -85.5067, 300.0), 1.2),
            Host::ground("B-0", 1, Geodetic::from_deg(35.91, -84.3, 250.0), 1.2),
            Host::ground("C-0", 2, Geodetic::from_deg(35.04159, -85.2799, 200.0), 1.2),
            Host::hap("HAP", Geodetic::from_deg(35.6692, -85.0662, 30_000.0), 0.3),
        ];
        QuantumNetworkSim::new(hosts, SimConfig::default(), 5, 30.0)
    }

    #[test]
    fn generation_is_deterministic_and_inter_lan() {
        let sim = hap_sim();
        let w1 = RequestWorkload::generate(&sim, 100, 7);
        let w2 = RequestWorkload::generate(&sim, 100, 7);
        assert_eq!(w1.requests, w2.requests);
        let w3 = RequestWorkload::generate(&sim, 100, 8);
        assert_ne!(w1.requests, w3.requests);
        for r in &w1.requests {
            let src_lan = sim.hosts()[r.src].lan().unwrap();
            let dst_lan = sim.hosts()[r.dst].lan().unwrap();
            assert_ne!(
                src_lan, dst_lan,
                "source and destination must differ in LAN"
            );
        }
    }

    #[test]
    fn outcomes_match_graph_connectivity() {
        let sim = hap_sim();
        let faults = CompiledFaults::identity(sim.hosts().len(), sim.steps());
        let w = RequestWorkload::generate(&sim, 20, 3);
        let outcomes = w.evaluate_with_retries(
            &sim,
            0,
            RouteMetric::PaperInverseEta,
            RetryPolicy::none(),
            &faults,
        );
        let g = sim.active_graph_at(0);
        for (r, o) in w.requests.iter().zip(&outcomes) {
            match o {
                RetryOutcome::ServedFirstTry(d) => {
                    assert!(g.connected(r.src, r.dst));
                    assert_eq!(d.path[0], r.src);
                    assert_eq!(*d.path.last().unwrap(), r.dst);
                }
                RetryOutcome::Expired { attempts: 1 } => assert!(!g.connected(r.src, r.dst)),
                other => panic!("one attempt can only serve first try or expire: {other:?}"),
            }
        }
    }

    #[test]
    fn empty_sweep_is_zeroed() {
        let stats = aggregate_retry_outcomes(&[]);
        assert_eq!(stats.attempted, 0);
        assert_eq!(stats.served_percent(), 0.0);
        assert_eq!(stats.mean_fidelity, 0.0);
    }

    #[test]
    fn sample_steps_spacing() {
        let s = sample_steps(2880, 100);
        assert_eq!(s.len(), 100);
        assert_eq!(s[0], 0);
        assert!(s.windows(2).all(|w| w[1] > w[0]));
        assert!(*s.last().unwrap() < 2880);
        // Short totals return everything.
        assert_eq!(sample_steps(5, 100), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn retry_schedule_doubles_and_respects_deadline() {
        let p = RetryPolicy::standard();
        assert_eq!(p.attempt_steps(10, 1000), vec![10, 12, 16, 24]);
        // The +14 offset would land at 24; deadline 20 admits it (14 ≤ 20)
        // but a tighter deadline trims the tail.
        let tight = RetryPolicy {
            deadline_steps: 7,
            ..RetryPolicy::standard()
        };
        assert_eq!(tight.attempt_steps(10, 1000), vec![10, 12, 16]);
        // max_attempts caps the schedule.
        let two = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::standard()
        };
        assert_eq!(two.attempt_steps(0, 1000), vec![0, 2]);
        // The day boundary truncates re-attempts.
        assert_eq!(RetryPolicy::standard().attempt_steps(998, 1000), vec![998]);
        // No-retry policy: arrival only.
        assert_eq!(RetryPolicy::none().attempt_steps(5, 1000), vec![5]);
        // Out-of-range arrivals are unschedulable, not a panic.
        assert!(p.attempt_steps(1000, 1000).is_empty());
        assert!(p.attempt_steps(usize::MAX, 1000).is_empty());
        assert!(p.attempt_steps(0, 0).is_empty());
    }

    #[test]
    fn out_of_range_arrival_expires_without_attempts() {
        // Regression: an arrival at/after the end of the simulated day used
        // to assert inside `attempt_steps`, killing the whole sweep. It must
        // simply expire every request with zero attempts.
        let sim = hap_sim();
        let faults = CompiledFaults::identity(sim.hosts().len(), sim.steps());
        let w = RequestWorkload::generate(&sim, 5, 4);
        let outcomes = w.evaluate_with_retries(
            &sim,
            sim.steps(),
            RouteMetric::PaperInverseEta,
            RetryPolicy::standard(),
            &faults,
        );
        assert_eq!(outcomes.len(), 5);
        assert!(outcomes
            .iter()
            .all(|o| *o == RetryOutcome::Expired { attempts: 0 }));
    }

    #[test]
    fn retries_on_a_healthy_network_are_all_first_try() {
        let sim = hap_sim();
        let faults = CompiledFaults::identity(sim.hosts().len(), sim.steps());
        let w = RequestWorkload::generate(&sim, 25, 4);
        let outcomes = w.evaluate_with_retries(
            &sim,
            0,
            RouteMetric::PaperInverseEta,
            RetryPolicy::standard(),
            &faults,
        );
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, RetryOutcome::ServedFirstTry(_))));
        let stats = aggregate_retry_outcomes(&[outcomes]);
        assert_eq!(stats.served_first_try, 25);
        assert_eq!(stats.served_after_retry, 0);
        assert_eq!(stats.expired, 0);
        assert_eq!(stats.served_percent(), 100.0);
        assert_eq!(stats.mean_attempts, 1.0);
        assert_eq!(stats.mean_wait_steps, 0.0);
    }

    #[test]
    fn retry_rescues_a_transient_outage_and_expiry_counts_attempts() {
        let sim = hap_sim();
        // HAP (host 4, the only inter-LAN relay) down at steps 0 and 1,
        // back at step 2.
        let mut faults = CompiledFaults::identity(sim.hosts().len(), sim.steps());
        faults.force_host_down(0, 4);
        faults.force_host_down(1, 4);
        let w = RequestWorkload::generate(&sim, 10, 4);
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff_steps: 1,
            deadline_steps: 4,
        }; // attempts at 0, 1, 3
        let outcomes =
            w.evaluate_with_retries(&sim, 0, RouteMetric::PaperInverseEta, policy, &faults);
        for o in &outcomes {
            match o {
                RetryOutcome::ServedAfterRetry {
                    attempts,
                    waited_steps,
                    ..
                } => {
                    assert_eq!(*attempts, 3);
                    assert_eq!(*waited_steps, 3);
                }
                other => panic!("expected ServedAfterRetry, got {other:?}"),
            }
        }
        // A permanent outage expires every request after the full schedule.
        let mut dead = CompiledFaults::identity(sim.hosts().len(), sim.steps());
        for t in 0..sim.steps() {
            dead.force_host_down(t, 4);
        }
        let outcomes =
            w.evaluate_with_retries(&sim, 0, RouteMetric::PaperInverseEta, policy, &dead);
        assert!(outcomes
            .iter()
            .all(|o| *o == RetryOutcome::Expired { attempts: 3 }));
        let stats = aggregate_retry_outcomes(&[outcomes]);
        assert_eq!(stats.expired_percent(), 100.0);
        assert_eq!(stats.mean_attempts, 3.0);
        assert_eq!(stats.mean_fidelity, 0.0);
    }
}
