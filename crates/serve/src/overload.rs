//! Overload control: retry budgets, deterministic load shedding and
//! graceful degradation under fault storms.
//!
//! The serve layer below this module fails *open*: a flash crowd or a
//! fault storm just inflates retry rounds and deadline expiries. This
//! module bounds that behaviour with three deterministic mechanisms,
//! each independently configurable and each a provable no-op when
//! disabled:
//!
//! 1. **Retry budgets** ([`RetryBudget`]) — a global and a per-priority-
//!    class token bucket over *retry* attempts (first attempts ride
//!    free). A retry beyond the budget is deferred to its next backoff
//!    slot without consuming an attempt, or shed
//!    ([`ShedReason::RetryBudget`]) when no later slot exists — so a
//!    retry storm cannot amplify offered load.
//! 2. **Load shedding** ([`ShedPolicy`]) — when a step's offered
//!    attempts exceed a utilization threshold of the step's total live
//!    link budget, the excess is shed lowest-priority-first
//!    ([`ShedReason::Overload`]) with a seeded, bit-deterministic
//!    tie-break among equal priorities.
//! 3. **Graceful degradation** ([`DegradePolicy`]) — a ladder driven by
//!    the per-step health signal
//!    [`CompiledFaults::step_health`](qntn_net::faults::CompiledFaults::step_health)
//!    (up-host fraction × weather η factor): as health drops, first
//!    memory holds are disabled, then backoff slots stretch, then whole
//!    priority classes are shed ([`ShedReason::Degraded`]) — progressive
//!    cheapening instead of cliff-edge collapse.
//!
//! ## One walk and its zero-config contract
//!
//! [`serve_overload`] serves through the crate's one walk (see
//! [`crate::serve`]), coupled: link budgets, retry budgets and shedding
//! tie together the requests attempting at one step, so it walks every
//! arrival group in one range over the whole day. Each served step builds
//! its time-expanded graph once; the link-budget table and the shed
//! layer's capacity come from layer 0 of that build, and the same graph
//! routes the step's attempts through the kernel's attempt round. Routing
//! stays congestion-blind (the paper's metric has no load term), so
//! admission only decides whether a routed path may *consume* budget this
//! step; a budget-blocked attempt re-enters the request's own backoff
//! schedule like any routing failure.
//!
//! With [`OverloadPolicy::disabled`] and no capacity model, or one whose
//! budgets no request can exhaust, every coupling phase is a no-op, so
//! the one range serves exactly as the parallel ranges of
//! [`crate::serve_full_with_holds`] do, **bit for bit**, clean and
//! faulted, at every horizon. That is pinned at the unit, integration and
//! root-proptest layers (`crates/serve/tests/serve.rs`,
//! `tests/overload.rs`).
//!
//! ## Monotonicity
//!
//! On the single-attempt path (`backoff_steps == 0`, where no retry
//! dynamics feed back into the agenda) shed counts are monotone
//! non-decreasing in offered load and in fault intensity *by
//! construction*: prefix workloads only grow each step's bucket, fault
//! schedules nest ([`qntn_net::faults::FaultModel`]), health is monotone
//! in intensity and live budgets only shrink — and
//! `shed(step) = degraded + max(0, offered − degraded − capacity)` is
//! monotone in each argument. Property-tested in `tests/overload.rs`.

use crate::hold::HoldPolicy;
use crate::kernel::Router;
use crate::request::{RequestQueue, PRIORITY_CLASSES};
use crate::serve::{report_from_aggs, Coupling, GroupAgg, ServeReport, Walk};
use qntn_net::capacity::CapacityModel;
use qntn_net::requests::{RetryOutcome, RetryPolicy};
use qntn_net::{SweepEngine, SweepScratch};
use qntn_routing::RouteMetric;

/// Token buckets over retry attempts. First attempts are never charged;
/// every retry consumes one token from the global bucket *and* one from
/// its priority class's bucket. Buckets start full and refill once per
/// step, capped at their burst size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudget {
    /// Tokens added to the global bucket each step.
    pub global_per_step: f64,
    /// Global bucket capacity (burst).
    pub global_burst: f64,
    /// Per-class per-step refill.
    pub class_per_step: [f64; PRIORITY_CLASSES],
    /// Per-class bucket capacity.
    pub class_burst: [f64; PRIORITY_CLASSES],
}

impl RetryBudget {
    /// The budget under which no retry is ever deferred — the
    /// differential-contract configuration.
    pub fn unlimited() -> RetryBudget {
        RetryBudget {
            global_per_step: f64::INFINITY,
            global_burst: f64::INFINITY,
            class_per_step: [f64::INFINITY; PRIORITY_CLASSES],
            class_burst: [f64::INFINITY; PRIORITY_CLASSES],
        }
    }

    /// A finite budget sized for the standard workloads: 64 retries per
    /// step globally (burst 256), 24 per class (burst 96).
    pub fn standard() -> RetryBudget {
        RetryBudget {
            global_per_step: 64.0,
            global_burst: 256.0,
            class_per_step: [24.0; PRIORITY_CLASSES],
            class_burst: [96.0; PRIORITY_CLASSES],
        }
    }

    /// Is every bucket infinite (the gate provably never fires)?
    pub fn is_unlimited(&self) -> bool {
        self.global_per_step.is_infinite()
            && self.global_burst.is_infinite()
            && self.class_per_step.iter().all(|r| r.is_infinite())
            && self.class_burst.iter().all(|r| r.is_infinite())
    }
}

/// Utilization-threshold load shedding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedPolicy {
    /// Shed when a step's offered attempts exceed `utilization ×` the
    /// step's total live link budget (the sum of
    /// [`CapacityModel::link_budget`] over live edges; one unit per live
    /// edge when serving uncapacitated). `f64::INFINITY` disables.
    pub utilization: f64,
    /// Seed for the bit-deterministic tie-break among equal-priority
    /// victims (same role as [`qntn_net::faults::FaultModel`]'s seed).
    pub seed: u64,
}

impl ShedPolicy {
    /// Never shed — the differential-contract configuration.
    pub fn disabled() -> ShedPolicy {
        ShedPolicy {
            utilization: f64::INFINITY,
            seed: 0,
        }
    }

    /// Shed offered attempts beyond the step's full live budget.
    pub fn standard(seed: u64) -> ShedPolicy {
        ShedPolicy {
            utilization: 1.0,
            seed,
        }
    }
}

/// Why a request was shed, reported positionally per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The step's offered attempts exceeded the utilization threshold of
    /// its live link budgets and this request lost the priority order.
    Overload,
    /// The retry budget was exhausted and the backoff schedule had no
    /// later slot to defer into.
    RetryBudget,
    /// The degradation ladder dropped this request's priority class at
    /// its attempt step.
    Degraded,
}

/// The degradation ladder's rungs, shallow to deep. Deeper rungs imply
/// the shallower behaviours (a [`DegradeMode::ShedClasses`] step also
/// serves without holds and with stretched backoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeMode {
    /// Full service.
    Normal,
    /// Memory holds disabled (attempts route on their own step only).
    NoHolds,
    /// Holds disabled and backoff slots doubled — retries spread out.
    StretchedBackoff,
    /// All of the above, plus whole priority classes shed.
    ShedClasses,
}

/// Number of [`DegradeMode`] rungs (the length of the per-mode step
/// counters in [`OverloadOutcome`] and [`ServeReport`]).
pub const DEGRADE_MODES: usize = 4;

/// Health thresholds driving the [`DegradeMode`] ladder. A rung engages
/// when the step's health falls strictly below its threshold; health is
/// in `[0, 1]`, so a threshold of `0.0` can never engage (the disabled
/// configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradePolicy {
    /// Below this health, memory holds are disabled.
    pub no_holds_below: f64,
    /// Below this health, backoff slots double as well.
    pub stretch_backoff_below: f64,
    /// Below `shed_class_below[c]`, priority class `c` is shed at that
    /// step. Class 0 is the lowest priority, so sensible ladders are
    /// non-increasing in `c` — lower classes go first.
    pub shed_class_below: [f64; PRIORITY_CLASSES],
}

impl DegradePolicy {
    /// Never degrade — the differential-contract configuration.
    pub fn disabled() -> DegradePolicy {
        DegradePolicy {
            no_holds_below: 0.0,
            stretch_backoff_below: 0.0,
            shed_class_below: [0.0; PRIORITY_CLASSES],
        }
    }

    /// A ladder tuned to the standard fault model: holds off below 0.9,
    /// backoff stretched below 0.75, classes shed at 0.6/0.45/0.3/0.15.
    pub fn standard() -> DegradePolicy {
        DegradePolicy {
            no_holds_below: 0.9,
            stretch_backoff_below: 0.75,
            shed_class_below: [0.6, 0.45, 0.3, 0.15],
        }
    }

    /// Which classes the ladder sheds at `health`.
    pub fn shed_classes(&self, health: f64) -> [bool; PRIORITY_CLASSES] {
        std::array::from_fn(|c| health < self.shed_class_below[c])
    }

    /// The deepest rung engaged at `health`.
    pub fn mode(&self, health: f64) -> DegradeMode {
        if self.shed_classes(health).iter().any(|&s| s) {
            DegradeMode::ShedClasses
        } else if health < self.stretch_backoff_below {
            DegradeMode::StretchedBackoff
        } else if health < self.no_holds_below {
            DegradeMode::NoHolds
        } else {
            DegradeMode::Normal
        }
    }
}

/// The full overload-control configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPolicy {
    pub budget: RetryBudget,
    pub shed: ShedPolicy,
    pub degrade: DegradePolicy,
}

impl OverloadPolicy {
    /// Unlimited budget, no shedding, no degradation — under this
    /// configuration [`serve_overload`] reproduces the group entry points
    /// bit for bit (see the module docs).
    pub fn disabled() -> OverloadPolicy {
        OverloadPolicy {
            budget: RetryBudget::unlimited(),
            shed: ShedPolicy::disabled(),
            degrade: DegradePolicy::disabled(),
        }
    }

    /// Every mechanism on at its standard setting.
    pub fn standard(seed: u64) -> OverloadPolicy {
        OverloadPolicy {
            budget: RetryBudget::standard(),
            shed: ShedPolicy::standard(seed),
            degrade: DegradePolicy::standard(),
        }
    }
}

/// Outcome of an overload-controlled serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadOutcome {
    /// Per accepted request, in queue order. Shed requests report
    /// [`RetryOutcome::Expired`] with the attempts made before the shed;
    /// `shed` distinguishes them.
    pub outcomes: Vec<RetryOutcome>,
    /// Positional shed reasons, queue order; `None` = not shed.
    pub shed: Vec<Option<ShedReason>>,
    /// Attempts deferred because a link budget was exhausted (each
    /// deferral re-enters the request's backoff schedule).
    pub congestion_deferrals: u64,
    /// Retries deferred to a later slot by the retry budget.
    pub budget_deferrals: u64,
    /// Steps spent on each [`DegradeMode`] rung over the whole timeline.
    pub degrade_mode_steps: [u64; DEGRADE_MODES],
    /// Requests served by any attempt, cached at construction.
    served: usize,
}

impl OverloadOutcome {
    /// Requests served by any attempt.
    pub fn served_count(&self) -> usize {
        self.served
    }

    /// Requests shed for any reason.
    pub fn shed_count(&self) -> usize {
        self.shed.iter().filter(|s| s.is_some()).count()
    }

    /// Requests shed for `reason`.
    pub fn shed_count_for(&self, reason: ShedReason) -> usize {
        self.shed.iter().filter(|s| **s == Some(reason)).count()
    }
}

/// The seeded, bit-deterministic tie-break among equal-priority shed
/// victims (splitmix-style finalizer over the queue index).
pub(crate) fn tie_hash(seed: u64, qi: usize) -> u64 {
    let mut x = seed ^ (qi as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Serve `queue` under overload control: every arrival group in one
/// walk over the whole day on one scratch, since the budgets and buckets
/// couple the steps. Deterministic for a given queue/policy/model/mask.
/// With `Some(model)` same-step requests contend for per-link pair
/// budgets, admitted in (priority descending, queue index ascending)
/// order; with `None` the run is uncapacitated. See the module docs for
/// the zero-config differential contract.
#[allow(clippy::too_many_arguments)] // the serving core's full context, plus the overload policy
pub fn serve_overload(
    engine: &SweepEngine<'_>,
    queue: &RequestQueue,
    policy: RetryPolicy,
    metric: RouteMetric,
    admission: Option<CapacityModel>,
    hold: &HoldPolicy,
    overload: &OverloadPolicy,
) -> OverloadOutcome {
    let walk = Walk {
        router: Router::new(engine, metric, hold),
        queue,
        policy,
        coupling: Coupling {
            admission,
            overload: *overload,
        },
    };
    let mut outcomes = Vec::with_capacity(queue.len());
    let mut shed = Vec::with_capacity(queue.len());
    let steps = 0..engine.sim().steps();
    let mut scratch = SweepScratch::default();
    let (_, counters) = walk.run(&queue.arrival_steps(), steps, &mut scratch, |_, o, s| {
        outcomes.extend(o);
        shed.extend(s);
    });
    let served = outcomes
        .iter()
        .filter(|o| o.distribution().is_some())
        .count();
    OverloadOutcome {
        outcomes,
        shed,
        congestion_deferrals: counters.congestion_deferrals,
        budget_deferrals: counters.budget_deferrals,
        degrade_mode_steps: counters.degrade_mode_steps,
        served,
    }
}

/// Fold an overload run into an SLO report. Shed requests count inside
/// `expired` (they made no delivery) with the `shed` counter recording
/// the subset; the budget-deferral and degrade-mode counters carry over
/// verbatim.
pub fn overload_report(
    outcome: &OverloadOutcome,
    queue: &RequestQueue,
    rejected: u64,
) -> ServeReport {
    let classes: Vec<usize> = (0..queue.len()).map(|qi| queue.class(qi)).collect();
    let agg = GroupAgg::from_outcomes(&outcome.outcomes, &classes);
    let mut report = report_from_aggs(&[agg], rejected);
    report.shed = outcome.shed_count() as u64;
    report.deferred_by_budget = outcome.budget_deferrals;
    report.degrade_mode_steps = outcome.degrade_mode_steps;
    report
}
