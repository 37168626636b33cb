//! # qntn-net — the quantum network simulator
//!
//! The discrete-time simulator that replaces the paper's upgraded QuNetSim:
//!
//! - [`host::Host`] — network nodes: ground stations (members of one of the
//!   three LANs), satellites (driven by an [`qntn_orbit::Ephemeris`]
//!   movement sheet, exactly as the paper replayed STK output), and HAPs
//!   (hovering at a fixed geodetic position).
//! - [`linkeval::LinkEvaluator`] — turns pairwise geometry into
//!   transmissivities each time step: static fiber for intra-LAN pairs,
//!   FSO for satellite–ground / HAP–ground / satellite–satellite pairs,
//!   with a cached Rytov table so a full day × constellation sweep stays
//!   fast.
//! - [`simulator::QuantumNetworkSim`] — assembles the time-varying
//!   transmissivity graph and applies the paper's threshold gating.
//! - [`coverage`] — the coverage period T_c and percentage P (paper
//!   Eq. 6–7): the fraction of the day during which all three LANs are
//!   pairwise interconnected.
//! - [`requests`] — random inter-LAN entanglement request workloads, the
//!   retry policy and outcome type every serving path shares, and the
//!   served-percentage statistic (paper Fig. 7).
//! - [`entanglement`] — end-to-end distribution: route (paper's
//!   Bellman–Ford), compose the per-link amplitude-damping channels
//!   (η multiplies), damp one half of `|Φ+⟩`, report fidelity (paper
//!   Fig. 8; square-root convention, see `qntn-quantum`).
//! - [`faults`] — seeded deterministic fault injection (platform outages,
//!   link flaps, weather fronts) compiled into a per-step mask both the
//!   engine and the naive evaluator consult, plus retry-with-backoff
//!   request semantics in [`requests`].
//! - [`pipeline`] — the single-source topology pipeline
//!   (Scene → LinkMap → Topology): the one code path that turns positions
//!   and η into a per-step graph, shared by the naive `graph_at*` family,
//!   the [`sweep_engine::SweepEngine`], and every fault-masked variant.
//! - [`runtime`] — the resilient execution runtime layered on the engine:
//!   checkpoint/resume (interrupted-then-resumed ≡ uninterrupted,
//!   bit-identical), cooperative cancellation and deadlines, and per-chunk
//!   panic isolation with a fail-fast vs. quarantine policy knob.
//!
//! Determinism: given one seed, every statistic is bit-reproducible; the
//! rayon-parallel sweeps chunk by time step and merge in index order.

pub mod capacity;
pub mod coverage;
pub mod entanglement;
pub mod faults;
pub mod heralded;
pub mod host;
pub mod linkeval;
pub mod pipeline;
pub mod requests;
pub mod runtime;
pub mod simulator;
pub mod snapshot;
pub mod sweep_engine;

pub use capacity::CapacityModel;
pub use coverage::{CoverageAnalyzer, CoverageReport};
pub use entanglement::{distribute, realize_with_hold, Distribution};
pub use faults::{CompiledFaults, FaultModel};
pub use heralded::{Delivery, HeraldedLink, HeraldedStats};
pub use host::{Host, HostKind, LanId};
pub use linkeval::{BatchOutcome, LinkEvaluator, SimConfig};
pub use pipeline::{
    build_time_expanded_into, build_topology, build_topology_into, build_topology_into_with,
    host_hold_factors, Candidate, ContactWindows, LayerCache, LinkMap, Scene, StepCursor,
};
pub use requests::{Request, RequestWorkload, RetryOutcome, RetryPolicy, RetryStats};
pub use runtime::{run_ranges, run_steps, ChunkPanicReport, PanicPolicy, RunPolicy, RunReport};
pub use simulator::QuantumNetworkSim;
pub use snapshot::{LinkClass, Snapshot};
pub use sweep_engine::{SweepEngine, SweepScratch};
