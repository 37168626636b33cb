//! # qntn-serve — batch entanglement-request service
//!
//! Everything below this crate computes topology; this crate serves
//! traffic against it. The shape of the problem (after *Dynamic Routing
//! in Space-Ground Integrated Quantum Networks* and *QuESat*): a stream
//! of hundreds of thousands to millions of entanglement requests
//! `(src, dst, arrival_step, deadline_steps, priority)` arriving over a
//! simulated day, served against the time-varying Scene → LinkMap →
//! Topology pipeline with retry/deadline semantics.
//!
//! The layers:
//!
//! - [`request`] — the validation boundary. Raw streams are untrusted;
//!   [`ingest`] rejects each malformed request with a [`ServeError`]
//!   (never a panic) and compacts the rest into a SoA [`RequestQueue`]
//!   grouped by arrival step.
//! - [`workload`] — seeded stream generators (uniform, Poisson, diurnal,
//!   hotspot) as scenario axes, and the paper's per-step request batches
//!   ([`step_batches`]).
//! - `kernel` (crate-internal) — the serving kernel: one router
//!   (time-expanded routing, where horizon 0 *is* per-step routing) and
//!   one attempt round (one SSSP per *distinct source*, one route
//!   extraction per request).
//! - [`serve`] — the one serving walk: a step-major pass over a
//!   contiguous range of arrival groups, one kernel round per step for
//!   every request attempting there. Without a coupling, ranges walk in
//!   parallel, bit-identical to the naive per-request
//!   [`qntn_net::requests::RequestWorkload::evaluate_with_retries`] path
//!   at [`HoldPolicy::disabled`] (the differential contract, enforced by
//!   tests). Entry points for materialized outcomes
//!   ([`serve_full_with_holds`]), streaming SLO aggregation
//!   ([`serve_report_with_holds`]) and checkpointed/cancellable resilient
//!   runs ([`serve_resilient`]).
//! - [`hold`] — the store-and-forward policy: attempts route over a
//!   *time-expanded* graph within a bounded horizon, so nodes with
//!   decohering quantum memories ([`qntn_quantum::memory`]) can hold a
//!   Bell half for a better pass and swap across non-simultaneous links.
//! - [`overload`] — what couples one step's requests, and
//!   [`serve_overload`], which walks every group in one range under it:
//!   same-step requests contend for per-link pair budgets
//!   ([`qntn_net::capacity::CapacityModel`]) in (priority, queue order),
//!   under retry budgets (token buckets over retry attempts),
//!   deterministic utilization-threshold load shedding with per-request
//!   [`ShedReason`]s, and a health-driven degradation ladder
//!   ([`DegradePolicy`]). With an [`OverloadPolicy::disabled`] and no
//!   capacity model every coupling phase is a no-op, so it serves exactly
//!   as the group entry points do (the zero-config differential
//!   contract).

pub mod hold;
mod kernel;
pub mod overload;
pub mod request;
pub mod serve;
pub mod workload;

pub use hold::HoldPolicy;
pub use overload::{
    overload_report, serve_overload, DegradeMode, DegradePolicy, OverloadOutcome, OverloadPolicy,
    RetryBudget, ShedPolicy, ShedReason, DEGRADE_MODES,
};
pub use request::{ingest, RawRequest, RequestQueue, ServeError, PRIORITY_CLASSES};
pub use serve::{
    report_from_aggs, report_from_run, serve_full_with_holds, serve_report_with_holds,
    serve_resilient, ClassSlo, GroupAgg, ServeReport,
};
pub use workload::{flash_crowd, generate, step_batches, FlashCrowdConfig, WorkloadKind};
