//! The single-source topology pipeline: **Scene → LinkMap → Topology**.
//!
//! Every per-step link graph in the workspace — the naive
//! [`QuantumNetworkSim::graph_at`] family, the window-pruned
//! [`crate::SweepEngine`], and both of their fault-masked variants — is
//! built in this module from one canonical link sequence, fed by two
//! layered stages:
//!
//! 1. **[`Scene`]** — the time-invariant layer. Classifies every host pair
//!    once into a [`Candidate`] (static geometry evaluated eagerly,
//!    ground–satellite pairs tagged with their [`ContactWindows`] slots,
//!    inter-satellite links listed for a per-step range gate, the few
//!    remaining pairs dynamic) and owns the per-step visibility masks.
//!    Positions themselves stay columnar in the `qntn-orbit`
//!    [`Ephemeris`] sheets each [`Host`] references; the Scene adds the
//!    visibility and link-class layers on top rather than copying them.
//! 2. **[`LinkMap`]** — the per-step layer. Borrows a simulator, a Scene
//!    and an optional [`CompiledFaults`] mask and yields `(a, b, η)` for
//!    every live link of a step in the canonical insertion order (fiber
//!    mesh first, then candidates in ascending `(a, b)` order). The fault
//!    mask is a composable stage of this iteration — a gate and a weather
//!    factor folded into the single loop — not a forked copy of it.
//! 3. **Topology** — [`build_topology_into`] inserts the LinkMap's links
//!    into a caller-provided [`Graph`] scratch, allocation-free on the hot
//!    path. This rescan path is the only one that builds full
//!    (unthresholded) graphs.
//!
//! ## The incremental path
//!
//! Sweeps visit steps consecutively, and between consecutive steps only a
//! handful of contact windows open or close. The Scene therefore also
//! precomputes a CSR table of per-step *edge deltas*, and a [`StepCursor`]
//! carries the resulting active set (plus the SoA η batch scratch) from
//! step to step: [`LinkMap::for_each_active_link_with`] advances the
//! cursor in O(transitions) and evaluates the surviving ground–satellite
//! links through the auto-vectorizable `FsoBatch` kernel. Inter-satellite
//! links have no windows: the same entry point gathers the step's
//! satellite positions once and range-gates every ISL pair in one tight
//! loop. Both kinds then pass the *reach gate*: a link longer than its
//! diffraction-limited reach
//! ([`qntn_channel::params::FsoParams::reach_m`]) cannot reach the
//! threshold, so it is skipped before its look angles, the fault gate and
//! η are computed. The walk therefore yields exactly the above-threshold
//! subsequence of the rescan walk, and the engine builds its thresholded
//! graph and its time-expanded layers from that subsequence without a full
//! graph. All of this is pure optimization — the cursor reseeds itself
//! bitwise-identically on any non-consecutive access (or when handed to a
//! different Scene), the batch kernel replicates the scalar evaluator's
//! float operations exactly, the range gate applies
//! [`LinkEvaluator::fso_eta`]'s own range test to the same positions, and
//! the reach gate skips only links whose η·w is provably below the
//! threshold — so the incremental path emits the same bits in the same
//! order as the rescan path, less the links the threshold drops.
//!
//! The time-expanded materializer [`build_time_expanded_into`] adds one
//! more reuse on top: a per-worker [`LayerCache`] of the thresholded link
//! lists it has built, so overlapping windows copy a step's layer instead
//! of building it again.
//!
//! ## Determinism guarantee
//!
//! For any step the pipeline's graph is bit-identical — including
//! adjacency-list order, which routing tie-breaking depends on — across
//! every entry point, because every entry point inserts the one link
//! sequence in the order [`Graph::thresholded_into`] would. The clean and
//! faulted variants coincide bitwise under an identity mask: no edge is
//! withheld and the weather multiply is `η × 1.0`, a bitwise no-op for
//! finite floats. Static candidates are evaluated once at step 0, which is
//! bitwise equal to evaluating them at any step because their geometry
//! (and therefore every float the evaluator reads) is step-invariant.
//! `tests/pipeline_goldens.rs` pins all of this against fingerprints
//! captured from the pre-pipeline implementation.

use crate::faults::CompiledFaults;
use crate::host::{Host, HostKind};
use crate::linkeval::{BatchOutcome, LinkEvaluator};
use crate::simulator::QuantumNetworkSim;
use qntn_channel::fso::FsoBatch;
use qntn_common::{HostId, QntnError, RunControl, SatId, StepId, StopCause};
use qntn_geo::{Enu, Geodetic, Vec3, WGS84};
use qntn_orbit::{Ephemeris, GroundGrid, PassPredictor};
use qntn_quantum::memory::ClassMemory;
use qntn_routing::{Graph, TimeExpandedGraph};
use rayon::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-(satellite, step) bitmasks of which ground sites a satellite is at
/// or above the horizon of (elevation ≥ 0, the conservative superset of
/// the link evaluator's `elevation > 0` requirement).
///
/// Ground sites map to bit slots in host order; per-satellite step vectors
/// are `Arc`-shared so [`ContactWindows::prefix`] reuses one full-
/// constellation precompute across every constellation size of a sweep.
/// With more than 64 ground sites (not the paper's 31) the windows
/// degrade to "always visible" — correct, merely unpruned.
#[derive(Debug, Clone)]
pub struct ContactWindows {
    n_steps: usize,
    n_lows: usize,
    /// One mask vector per satellite; an empty vector means "no data,
    /// treat everything as visible".
    masks: Vec<Arc<Vec<u64>>>,
}

impl ContactWindows {
    /// Most ground slots a mask word can hold.
    const MAX_LOWS: usize = 64;

    /// Precompute windows for every step of every `(low, satellite)` pair.
    pub fn compute(lows: &[Geodetic], ephemerides: &[&Ephemeris], n_steps: usize) -> Self {
        match Self::compute_with_control(lows, ephemerides, n_steps, &RunControl::unlimited()) {
            Ok(windows) => windows,
            Err(cause) => unreachable!("unlimited control stopped a precompute: {cause}"),
        }
    }

    /// [`ContactWindows::compute`] under a cancellation/deadline budget,
    /// polled between per-satellite batches. A stopped precompute has no
    /// useful partial result, so it returns the [`StopCause`] instead of a
    /// torn table.
    ///
    /// Spatially pruned: a [`GroundGrid`] over the sub-satellite direction
    /// sphere reduces the per-sample site loop from *all* ground slots to
    /// the handful the satellite could possibly be above the horizon of;
    /// each surviving slot still runs the exact predicate, and the grid's
    /// conservativeness proof (see `qntn_orbit::spatial`) makes every
    /// skipped slot provably below-horizon — so the masks are bit-identical
    /// to [`ContactWindows::compute_exhaustive`], which
    /// `tests/synthetic_regions.rs` pins differentially.
    pub fn compute_with_control(
        lows: &[Geodetic],
        ephemerides: &[&Ephemeris],
        n_steps: usize,
        control: &RunControl,
    ) -> Result<Self, StopCause> {
        let n_lows = lows.len();
        if n_lows > Self::MAX_LOWS {
            return Ok(Self::all_visible(n_steps, n_lows, ephemerides.len()));
        }
        // The exact per-site geometry of `PassPredictor::
        // above_horizon_flags`: ellipsoidal up vector and ECEF position.
        let sites: Vec<(Vec3, Vec3)> = lows
            .iter()
            .map(|&site| (site.to_ecef(&WGS84), Enu::at(site, &WGS84).up()))
            .collect();
        // Conservative geocentric-radius bound over every sample the grid
        // will be consulted for (per-satellite maxima in parallel, folded
        // in input order — deterministic, and max is order-insensitive
        // anyway).
        let per_sat_max: Vec<f64> = ephemerides
            .par_iter()
            .map(|eph| {
                eph.samples()
                    .iter()
                    .map(|s| s.ecef.norm())
                    .fold(0.0, f64::max)
            })
            .collect();
        let r_sat_max = per_sat_max.into_iter().fold(0.0, f64::max);
        let grid = GroundGrid::build(&sites, r_sat_max);
        // Batch the satellites so cancellation has chunk granularity
        // without a per-sample check on the hot path.
        const BATCH: usize = 8;
        let mut masks = Vec::with_capacity(ephemerides.len());
        for batch in ephemerides.chunks(BATCH) {
            if let Some(cause) = control.should_stop() {
                return Err(cause);
            }
            let part: Vec<Arc<Vec<u64>>> = batch
                .par_iter()
                .map(|eph| {
                    let mut mask = vec![0u64; n_steps];
                    let samples = eph.samples();
                    for (k, word) in mask.iter_mut().enumerate().take(samples.len()) {
                        let ecef = samples[k].ecef;
                        let mut near = grid.near_mask(ecef);
                        let mut w = 0u64;
                        while near != 0 {
                            let slot = near.trailing_zeros() as usize;
                            near &= near - 1;
                            let (site_ecef, up) = sites[slot];
                            if (ecef - site_ecef).dot(up) >= 0.0 {
                                w |= 1 << slot;
                            }
                        }
                        *word = w;
                    }
                    Arc::new(mask)
                })
                .collect();
            masks.extend(part);
        }
        Ok(ContactWindows {
            n_steps,
            n_lows,
            masks,
        })
    }

    /// The pre-spatial-index window precompute: per (site, satellite)
    /// pair, `PassPredictor::above_horizon_flags` over every sample — the
    /// O(sats × steps × sites) full scan. Kept as the differential oracle
    /// for the pruned [`ContactWindows::compute_with_control`]; the two
    /// must agree bit for bit on every mask word.
    pub fn compute_exhaustive(
        lows: &[Geodetic],
        ephemerides: &[&Ephemeris],
        n_steps: usize,
    ) -> Self {
        let n_lows = lows.len();
        if n_lows > Self::MAX_LOWS {
            return Self::all_visible(n_steps, n_lows, ephemerides.len());
        }
        let predictors: Vec<PassPredictor> = lows
            .iter()
            .map(|&site| PassPredictor::new(site, 0.0))
            .collect();
        let masks = ephemerides
            .par_iter()
            .map(|eph| {
                let mut mask = vec![0u64; n_steps];
                for (slot, pred) in predictors.iter().enumerate() {
                    let flags = pred.above_horizon_flags(eph);
                    for (k, word) in mask.iter_mut().enumerate() {
                        if flags.get(k).copied().unwrap_or(false) {
                            *word |= 1 << slot;
                        }
                    }
                }
                Arc::new(mask)
            })
            .collect();
        ContactWindows {
            n_steps,
            n_lows,
            masks,
        }
    }

    /// Windows for every (ground, satellite) pair of `sim`, all steps.
    pub fn for_sim(sim: &QuantumNetworkSim) -> Self {
        let (lows, ephs) = Self::sim_geometry(sim);
        Self::compute(&lows, &ephs, sim.steps())
    }

    /// [`ContactWindows::for_sim`] under a cancellation/deadline budget.
    pub fn for_sim_with_control(
        sim: &QuantumNetworkSim,
        control: &RunControl,
    ) -> Result<Self, StopCause> {
        let (lows, ephs) = Self::sim_geometry(sim);
        Self::compute_with_control(&lows, &ephs, sim.steps(), control)
    }

    fn sim_geometry(sim: &QuantumNetworkSim) -> (Vec<Geodetic>, Vec<&Ephemeris>) {
        let lows = sim
            .hosts()
            .iter()
            .filter(|h| h.is_ground())
            .map(|h| h.geodetic_at(0))
            .collect();
        let ephs = sim
            .hosts()
            .iter()
            .filter_map(|h| match &h.kind {
                HostKind::Satellite { ephemeris } => Some(ephemeris),
                _ => None,
            })
            .collect();
        (lows, ephs)
    }

    pub(crate) fn all_visible(n_steps: usize, n_lows: usize, n_sats: usize) -> Self {
        // Every satellite shares one empty "no data" mask: the absence of
        // window data is represented by emptiness, not contents, so one
        // allocation serves the whole constellation.
        let empty = Arc::new(Vec::new());
        ContactWindows {
            n_steps,
            n_lows,
            masks: vec![empty; n_sats],
        }
    }

    /// Windows restricted to the first `n` satellites — the paper's
    /// constellation prefixes (Table II) at zero recompute cost.
    pub fn prefix(&self, n: usize) -> Self {
        assert!(
            n <= self.masks.len(),
            "prefix larger than the computed constellation"
        );
        ContactWindows {
            n_steps: self.n_steps,
            n_lows: self.n_lows,
            masks: self.masks[..n].to_vec(),
        }
    }

    /// Number of time steps covered.
    #[inline]
    pub fn steps(&self) -> usize {
        self.n_steps
    }

    /// Number of ground slots.
    #[inline]
    pub fn lows(&self) -> usize {
        self.n_lows
    }

    /// Number of satellites covered.
    #[inline]
    pub fn satellites(&self) -> usize {
        self.masks.len()
    }

    /// Is satellite `sat` at/above the horizon of ground slot `low` at
    /// `step`? Conservative: `true` whenever no window data exists.
    #[inline]
    pub fn visible(&self, sat: usize, step: usize, low: usize) -> bool {
        let mask = &self.masks[sat];
        if mask.is_empty() {
            return true;
        }
        (mask[step] >> low) & 1 == 1
    }
}

/// How the pipeline treats one host pair of the O(N²) loop — the Scene's
/// time-invariant classification of a candidate edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Candidate {
    /// Neither endpoint moves: evaluated once at Scene construction; the
    /// stored η is bitwise equal to evaluating at any step.
    Static {
        /// Lower host id of the pair.
        a: HostId,
        /// Higher host id of the pair.
        b: HostId,
        /// The pair's step-invariant transmissivity.
        eta: f64,
        /// Does the link cross the atmosphere (≥ 1 ground endpoint), i.e.
        /// is it subject to the fault layer's weather factor?
        crosses_atmosphere: bool,
    },
    /// Ground–satellite: evaluated only inside the contact window. Always
    /// crosses the atmosphere.
    GroundSat {
        /// Lower host id of the pair.
        a: HostId,
        /// Higher host id of the pair.
        b: HostId,
        /// The satellite's row in the [`ContactWindows`].
        sat: SatId,
        /// The ground endpoint's bit slot in the [`ContactWindows`].
        low: usize,
    },
    /// Satellite–satellite (an inter-satellite link, listed only with
    /// `enable_isl`): range-gated once per step on the incremental path,
    /// so only pairs within `isl_max_range_m` are evaluated. Both
    /// endpoints are in space, so the link never crosses the atmosphere.
    Isl {
        /// Lower host id of the pair.
        a: HostId,
        /// Higher host id of the pair.
        b: HostId,
    },
    /// Anything else time-varying (HAP–satellite, or a ground–satellite
    /// pair whose satellite starts below 20 km): evaluated every step.
    Dynamic {
        /// Lower host id of the pair.
        a: HostId,
        /// Higher host id of the pair.
        b: HostId,
        /// Does the link cross the atmosphere (≥ 1 ground endpoint)?
        crosses_atmosphere: bool,
    },
}

/// Process-unique identities of [`Scene`]s and [`CompiledFaults`] masks,
/// drawn at construction. Starts at 1 so a `Default` [`StepCursor`] or
/// [`LayerCache`] (token 0) can never match a real Scene, and 0 can stand
/// for "no mask". Relaxed ordering suffices: `fetch_add` is atomic under
/// any ordering, so every token is unique, and no other data is published
/// through it.
static TOKENS: AtomicU64 = AtomicU64::new(1);

/// A fresh process-unique identity (see [`TOKENS`]).
pub(crate) fn next_token() -> u64 {
    TOKENS.fetch_add(1, Ordering::Relaxed)
}

/// How far under the threshold the reach gate's floor sits. A candidate's
/// reach is the range past which even its diffraction-only bound is below
/// `threshold − REACH_MARGIN` ([`qntn_channel::params::FsoParams::reach_m`]).
/// The bound holds for every η·w a validated configuration emits: η_atm ≤
/// 1, the turbulence spread factor is ≥ 1, jitter only widens the spot,
/// and the fault weather factor is ≤ 1. The gate measures a ground link's
/// range as the plain ECEF distance, while the budget reads the norm of
/// the ENU-rotated vector. The two differ by rounding, about 1e-15 of the
/// range or 1e-9 m at the paper's reach of 1,146 km, where η falls by
/// about 3.5e-7 per metre: the margin is worth about 3 mm there.
const REACH_MARGIN: f64 = 1e-9;

/// One [`Candidate::Isl`] as the per-step range gate reads it: the
/// candidate index and the endpoints' satellite rows, which index the
/// step's gathered positions.
#[derive(Debug, Clone, Copy)]
struct IslPair {
    ci: u32,
    a: u32,
    b: u32,
}

/// Stage 1 of the pipeline: the time-invariant description of what can
/// link to what — every candidate FSO edge classified once, plus the
/// precomputed visibility windows. Built once per simulator (unpruned) or
/// per engine (window-pruned); consulted by every per-step [`LinkMap`].
///
/// Alongside the candidate list the Scene precomputes the *incremental*
/// view of the windows: a CSR table of per-step edge deltas (which
/// window-pruned candidates open or close at each step) that lets a
/// [`StepCursor`] maintain the active set in O(changes) when sweeping
/// consecutive steps instead of rescanning every ground–satellite pair.
#[derive(Debug, Clone)]
pub struct Scene {
    n_hosts: usize,
    candidates: Vec<Candidate>,
    windows: ContactWindows,
    /// Indices (ascending) of the Static/Dynamic candidates — evaluated at
    /// every step regardless of visibility.
    always_eval: Vec<u32>,
    /// Indices (ascending) of the window-pruned GroundSat candidates.
    ground_sat: Vec<u32>,
    /// The Isl candidates (ascending), range-gated once per step.
    isl: Vec<IslPair>,
    /// Host id of each satellite row: the positions the ISL gate gathers.
    sat_hosts: Vec<HostId>,
    /// ECEF position of each ground slot, for the reach gate's range.
    ground_ecef: Vec<Vec3>,
    /// Per candidate, the range past which its η·w is below the threshold
    /// (see [`REACH_MARGIN`]): the larger reach of its two transmit
    /// orientations for the GroundSat and Isl candidates the walk gates,
    /// +∞ for the rest and under a configuration `validate` refuses.
    reach: Vec<f64>,
    /// CSR offsets into `delta_events`: `n_steps + 1` entries, step 0
    /// always empty (a cursor seeds there, it never transitions into it).
    delta_offsets: Vec<u32>,
    /// Per-step visibility transitions, `candidate_index << 1 | open_bit`,
    /// sorted ascending within each step.
    delta_events: Vec<u32>,
    /// This Scene's process-unique identity; a [`StepCursor`] carrying a
    /// different token is reseeded rather than trusted.
    token: u64,
}

impl Scene {
    /// Classify every host pair against precomputed `windows`.
    ///
    /// # Errors
    /// Returns [`QntnError::ShapeMismatch`] when the windows' shape does
    /// not match the hosts' ground / satellite counts or `n_steps` —
    /// windows built for a different ground set, constellation, or time
    /// span describe a different scene and cannot be reinterpreted.
    pub fn new(
        hosts: &[Host],
        evaluator: &LinkEvaluator,
        n_steps: usize,
        windows: ContactWindows,
    ) -> Result<Scene, QntnError> {
        let n = hosts.len();
        // Slot maps: ground index -> window bit, satellite index -> window row.
        let mut ground_slot = vec![usize::MAX; n];
        let mut sat_slot = vec![usize::MAX; n];
        let mut sat_hosts = Vec::new();
        let mut n_ground = 0;
        for (i, h) in hosts.iter().enumerate() {
            if h.is_ground() {
                ground_slot[i] = n_ground;
                n_ground += 1;
            } else if h.is_satellite() {
                sat_slot[i] = sat_hosts.len();
                sat_hosts.push(HostId::from(i));
            }
        }
        let n_sat = sat_hosts.len();
        if windows.lows() != n_ground {
            return Err(QntnError::ShapeMismatch {
                what: "windows ground slots (built for a different ground set)",
                expected: n_ground,
                got: windows.lows(),
            });
        }
        if windows.satellites() != n_sat {
            return Err(QntnError::ShapeMismatch {
                what: "windows satellite rows (built for a different constellation)",
                expected: n_sat,
                got: windows.satellites(),
            });
        }
        if windows.steps() != n_steps {
            return Err(QntnError::ShapeMismatch {
                what: "windows steps (built for a different time span)",
                expected: n_steps,
                got: windows.steps(),
            });
        }

        let enable_isl = evaluator.config().enable_isl;
        let mut candidates = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                let (ha, hb) = (&hosts[a], &hosts[b]);
                if ha.is_ground() && hb.is_ground() {
                    continue; // fiber mesh handles these; no FSO class
                }
                let crosses_atmosphere = ha.is_ground() || hb.is_ground();
                if !ha.is_satellite() && !hb.is_satellite() {
                    // Static geometry: the evaluation is time-invariant.
                    if let Some(eta) = evaluator.fso_eta(ha, hb, 0) {
                        candidates.push(Candidate::Static {
                            a: HostId::from(a),
                            b: HostId::from(b),
                            eta,
                            crosses_atmosphere,
                        });
                    }
                    continue;
                }
                if ha.is_satellite() && hb.is_satellite() {
                    if enable_isl {
                        candidates.push(Candidate::Isl {
                            a: HostId::from(a),
                            b: HostId::from(b),
                        });
                    }
                    continue;
                }
                // Exactly one satellite. Window-prune only the ordinary
                // case where the other endpoint is a ground site and the
                // satellite is unambiguously the high endpoint; anything
                // exotic stays on the always-evaluate path.
                let (sat_idx, other) = if ha.is_satellite() { (a, b) } else { (b, a) };
                if hosts[other].is_ground() && hosts[sat_idx].altitude_at(0) >= 20_000.0 {
                    candidates.push(Candidate::GroundSat {
                        a: HostId::from(a),
                        b: HostId::from(b),
                        sat: SatId::from(sat_slot[sat_idx]),
                        low: ground_slot[other],
                    });
                } else {
                    candidates.push(Candidate::Dynamic {
                        a: HostId::from(a),
                        b: HostId::from(b),
                        crosses_atmosphere,
                    });
                }
            }
        }
        // Split the candidate list into the always-evaluated set, the
        // window-pruned set and the range-gated ISL set, and map (sat row,
        // ground slot) back to the candidate index so window transitions
        // become candidate events. The last two get their reach.
        let n_lows = windows.lows();
        let mut cand_of = vec![u32::MAX; n_sat * n_lows];
        let mut always_eval = Vec::new();
        let mut ground_sat = Vec::new();
        let mut isl = Vec::new();
        let mut reach = vec![f64::INFINITY; candidates.len()];
        let config = evaluator.config();
        let floor = config.threshold - REACH_MARGIN;
        let gated = config.validate().is_ok();
        // Apertures repeat across a constellation: solve each distinct
        // aperture pair once.
        let mut solved: Vec<([u64; 2], f64)> = Vec::new();
        let mut reach_of = |a: HostId, b: HostId| {
            let (da, db) = (hosts[a.index()].aperture_m, hosts[b.index()].aperture_m);
            let key = [da.to_bits(), db.to_bits()];
            if let Some(&(_, reach)) = solved.iter().find(|(k, _)| *k == key) {
                return reach;
            }
            let fso = &config.fso;
            let reach = if gated {
                fso.reach_m(da, db, floor).max(fso.reach_m(db, da, floor))
            } else {
                f64::INFINITY
            };
            solved.push((key, reach));
            reach
        };
        for (ci, c) in candidates.iter().enumerate() {
            match *c {
                Candidate::GroundSat { a, b, sat, low } => {
                    cand_of[sat.index() * n_lows + low] = ci as u32;
                    ground_sat.push(ci as u32);
                    reach[ci] = reach_of(a, b);
                }
                Candidate::Isl { a, b } => {
                    isl.push(IslPair {
                        ci: ci as u32,
                        a: sat_slot[a.index()] as u32,
                        b: sat_slot[b.index()] as u32,
                    });
                    reach[ci] = reach_of(a, b);
                }
                _ => always_eval.push(ci as u32),
            }
        }
        let ground_ecef = hosts
            .iter()
            .filter(|h| h.is_ground())
            .map(|h| h.ecef_at(0))
            .collect();
        let (delta_offsets, delta_events) = Scene::build_deltas(&windows, &cand_of);
        Scene::resolve_altitudes(hosts, &sat_hosts, &windows);
        Ok(Scene {
            n_hosts: n,
            candidates,
            windows,
            always_eval,
            ground_sat,
            isl,
            sat_hosts,
            ground_ecef,
            reach,
            delta_offsets,
            delta_events,
            token: next_token(),
        })
    }

    /// Resolve the altitude of every (satellite, step) sample whose window
    /// mask is nonzero, in parallel over satellites: the only samples a
    /// [`Candidate::GroundSat`] evaluation reads, so the step path finds
    /// them resolved. An empty (all-visible) mask resolves nothing; its
    /// satellites resolve lazily on first read.
    fn resolve_altitudes(hosts: &[Host], sat_hosts: &[HostId], windows: &ContactWindows) {
        (0..sat_hosts.len()).into_par_iter().for_each(|row| {
            let HostKind::Satellite { ephemeris } = &hosts[sat_hosts[row].index()].kind else {
                unreachable!("a satellite row names a non-satellite host");
            };
            for (step, &word) in windows.masks[row].iter().enumerate() {
                if word != 0 {
                    ephemeris.at_step(step).altitude_m();
                }
            }
        });
    }

    /// Turn the windows' per-step mask transitions into the CSR delta
    /// table: for each step `t ≥ 1`, the sorted list of window-pruned
    /// candidates whose visibility flips between `t-1` and `t`. Empty
    /// masks (all-visible) contribute no events — their candidates are in
    /// every seeded active set and never transition.
    fn build_deltas(windows: &ContactWindows, cand_of: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let n_steps = windows.steps();
        let n_lows = windows.lows();
        let mut per_step: Vec<Vec<u32>> = vec![Vec::new(); n_steps];
        for (sat, mask) in windows.masks.iter().enumerate() {
            if mask.is_empty() {
                continue;
            }
            for t in 1..n_steps {
                let mut flips = mask[t] ^ mask[t - 1];
                while flips != 0 {
                    let low = flips.trailing_zeros() as usize;
                    flips &= flips - 1;
                    let ci = cand_of[sat * n_lows + low];
                    if ci == u32::MAX {
                        continue; // slot pair carries no GroundSat candidate
                    }
                    let open = (mask[t] >> low) & 1;
                    per_step[t].push(ci << 1 | open as u32);
                }
            }
        }
        let mut offsets = Vec::with_capacity(n_steps + 1);
        offsets.push(0u32);
        let mut events = Vec::new();
        for mut step_events in per_step {
            // A candidate flips at most once per step, so sorting the
            // encoded events sorts by candidate index.
            step_events.sort_unstable();
            events.extend_from_slice(&step_events);
            offsets.push(events.len() as u32);
        }
        (offsets, events)
    }

    /// A Scene whose windows treat every satellite as always visible — the
    /// naive evaluator's configuration. Exact (pruning is an optimization,
    /// never a semantic), merely unpruned.
    pub fn unpruned(hosts: &[Host], evaluator: &LinkEvaluator, n_steps: usize) -> Scene {
        let n_ground = hosts.iter().filter(|h| h.is_ground()).count();
        let n_sat = hosts.iter().filter(|h| h.is_satellite()).count();
        match Scene::new(
            hosts,
            evaluator,
            n_steps,
            ContactWindows::all_visible(n_steps, n_ground, n_sat),
        ) {
            Ok(scene) => scene,
            Err(e) => unreachable!("all-visible windows mismatched their own host set: {e}"),
        }
    }

    /// Bring `cursor` up to `step`'s active set. A consecutive step
    /// (`cursor.step + 1` on a cursor this Scene seeded) advances by
    /// applying that step's edge deltas in O(transitions); any other
    /// target — a fresh cursor, a jump, or a cursor seeded by a different
    /// Scene (token mismatch) — reseeds by a full window scan. Both paths
    /// produce the identical active set, so correctness never depends on
    /// how the cursor got here.
    pub fn advance_cursor(&self, cursor: &mut StepCursor, step: usize) {
        if cursor.token == self.token {
            if cursor.step == step {
                return;
            }
            if step == cursor.step + 1 {
                self.apply_step_events(cursor, step);
                cursor.step = step;
                return;
            }
        }
        self.seed_cursor(cursor, step);
    }

    /// Rebuild the active set from scratch at `step` and bind the cursor
    /// to this Scene.
    fn seed_cursor(&self, cursor: &mut StepCursor, step: usize) {
        cursor.active.clear();
        for &ci in &self.ground_sat {
            let Candidate::GroundSat { sat, low, .. } = self.candidates[ci as usize] else {
                unreachable!("ground_sat index names a non-GroundSat candidate");
            };
            if self.windows.visible(sat.index(), step, low) {
                cursor.active.push(ci);
            }
        }
        cursor.token = self.token;
        cursor.step = step;
    }

    /// Apply `step`'s open/close events to the cursor's (sorted) active
    /// set via a linear merge into the cursor's scratch vector.
    fn apply_step_events(&self, cursor: &mut StepCursor, step: usize) {
        let lo = self.delta_offsets[step] as usize;
        let hi = self.delta_offsets[step + 1] as usize;
        let events = &self.delta_events[lo..hi];
        if events.is_empty() {
            return;
        }
        let StepCursor { active, merge, .. } = cursor;
        merge.clear();
        let mut i = 0;
        for &ev in events {
            let ci = ev >> 1;
            let open = ev & 1 == 1;
            while i < active.len() && active[i] < ci {
                merge.push(active[i]);
                i += 1;
            }
            if open {
                merge.push(ci);
            } else {
                debug_assert!(
                    i < active.len() && active[i] == ci,
                    "close event for an inactive candidate"
                );
                i += 1; // the closing candidate is dropped, not copied
            }
        }
        merge.extend_from_slice(&active[i..]);
        std::mem::swap(active, merge);
    }

    /// Number of hosts classified.
    #[inline]
    pub fn hosts(&self) -> usize {
        self.n_hosts
    }

    /// Number of time steps covered.
    #[inline]
    pub fn steps(&self) -> usize {
        self.windows.steps()
    }

    /// The classified candidate edges, in ascending `(a, b)` order.
    #[inline]
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// The visibility windows in use.
    #[inline]
    pub fn windows(&self) -> &ContactWindows {
        &self.windows
    }
}

/// Resumable sweep state for the incremental topology path: the sorted
/// set of window-pruned candidates visible at the cursor's current step,
/// maintained from the [`Scene`]'s per-step edge deltas, plus the reusable
/// scratch (merge buffer, ISL gate, batch plan, SoA η batch) the
/// incremental link walk needs. Only the active set carries over from
/// step to step; every call rebuilds the scratch it uses. `Default`
/// yields an unseeded cursor (token 0, which no Scene ever issues) that
/// any [`Scene::advance_cursor`] call seeds on first use; holding one per
/// sweep worker makes consecutive-step sweeps O(changes) instead of
/// O(candidates) per step.
#[derive(Debug, Default, Clone)]
pub struct StepCursor {
    /// Token of the Scene that last seeded this cursor (0 = unseeded).
    token: u64,
    /// The step `active` describes.
    step: usize,
    /// Ascending candidate indices of the visible GroundSat candidates.
    active: Vec<u32>,
    /// Merge scratch: [`Scene::apply_step_events`]'s merge, then the
    /// step's walk.
    merge: Vec<u32>,
    /// The step's satellite ECEF positions, by satellite row.
    positions: Vec<Vec3>,
    /// The step's in-range ISL pairs, ascending: `(candidate, range)`.
    in_range: Vec<(u32, f64)>,
    /// Per-walk-candidate outcome of the enqueue pass.
    plan: Vec<BatchOutcome>,
    /// SoA batch for the vectorized η kernel.
    batch: FsoBatch,
    /// The step's active links, in the order
    /// [`build_active_topology_into`] inserts them.
    links: Links,
}

/// One step's thresholded links, in `Graph::edges()` order.
type Links = Vec<(usize, usize, f64)>;

/// Per-worker cache of the thresholded per-step link lists that
/// [`build_time_expanded_into`] has built, tagged by step, so overlapping
/// time-expanded windows copy a layer instead of rebuilding it: a group's
/// retry windows overlap each other and the next groups' windows.
///
/// The held layers are keyed on the process-unique tokens of the [`Scene`]
/// and of the fault mask they were built through. A Scene is classified
/// from one host set and link evaluator, so its token also names every η
/// and the threshold. A build under any other key drops every held layer
/// first, so one engine's layer is never served to another. A slot is
/// filled only once its link list is complete, so a build that panics
/// leaves no partial layer behind.
///
/// The cache spans the steps from the lowest held to the highest built: at
/// most one layer per step of the day. A caller that knows no later window
/// starts below some step bounds it with [`LayerCache::retire_below`], and
/// later builds reuse the retired link buffers. `Default` yields an empty
/// cache.
#[derive(Debug, Default, Clone)]
pub struct LayerCache {
    /// Tokens of the Scene and of the fault mask (0 = none) the held
    /// layers were built through.
    key: (u64, u64),
    /// The step of `slots[0]`.
    base: usize,
    /// One slot per step from `base`; `None` until that step is built.
    slots: VecDeque<Option<Links>>,
    /// Link buffers of retired layers, reused by later builds.
    spare: Vec<Links>,
    /// Layers built rather than copied.
    #[cfg(test)]
    built: u64,
}

impl LayerCache {
    /// Drop every held layer below `step`, for a caller whose later
    /// windows all start at or after it. Results never depend on it: a
    /// retired step asked for again is rebuilt, bit-identically.
    pub fn retire_below(&mut self, step: usize) {
        let n = step.saturating_sub(self.base).min(self.slots.len());
        self.spare.extend(self.slots.drain(..n).flatten());
        self.base += n;
    }

    /// Bind the cache to `key`, dropping every layer built under another.
    fn bind(&mut self, key: (u64, u64)) {
        if self.key != key {
            self.retire_below(usize::MAX);
            self.key = key;
        }
    }

    /// The links of `step`; when the step is not held, `build` first fills
    /// an empty buffer with them.
    fn layer(&mut self, step: usize, build: impl FnOnce(&mut Links)) -> &[(usize, usize, f64)] {
        if self.slots.is_empty() {
            self.base = step;
        }
        while step < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let i = step - self.base;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        match &mut self.slots[i] {
            Some(links) => links,
            slot => {
                let mut links = self.spare.pop().unwrap_or_default();
                links.clear();
                build(&mut links);
                #[cfg(test)]
                {
                    self.built += 1;
                }
                slot.insert(links)
            }
        }
    }

    /// Layers built rather than copied so far.
    #[cfg(test)]
    pub(crate) fn built(&self) -> u64 {
        self.built
    }

    /// Link buffers the cache owns: held layers plus spare buffers.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> usize {
        self.slots.iter().flatten().count() + self.spare.len()
    }
}

/// Stage 2 of the pipeline: the per-step link view. Borrows a simulator,
/// a [`Scene`] and an optional fault mask, and yields every live link of a
/// step — in the canonical insertion order — with the mask applied as a
/// composable gate + weather stage inside the single iteration.
#[derive(Debug, Clone, Copy)]
pub struct LinkMap<'a> {
    hosts: &'a [Host],
    evaluator: &'a LinkEvaluator,
    fiber: &'a [(usize, usize, f64)],
    scene: &'a Scene,
    faults: Option<&'a CompiledFaults>,
}

impl<'a> LinkMap<'a> {
    /// A link view of `sim` through `scene`, optionally fault-masked.
    ///
    /// # Panics
    /// Panics when `scene` or `faults` was built for a different host
    /// count or time span than `sim`.
    pub fn new(
        sim: &'a QuantumNetworkSim,
        scene: &'a Scene,
        faults: Option<&'a CompiledFaults>,
    ) -> LinkMap<'a> {
        assert_eq!(
            scene.hosts(),
            sim.hosts().len(),
            "scene built for a different host set"
        );
        assert_eq!(
            scene.steps(),
            sim.steps(),
            "scene built for a different time span"
        );
        if let Some(f) = faults {
            assert_eq!(
                f.hosts(),
                sim.hosts().len(),
                "faults compiled for a different host set"
            );
            assert_eq!(
                f.steps(),
                sim.steps(),
                "faults compiled for a different time span"
            );
        }
        LinkMap {
            hosts: sim.hosts(),
            evaluator: sim.evaluator(),
            fiber: sim.fiber_edges(),
            scene,
            faults,
        }
    }

    /// The scene this view consults.
    #[inline]
    pub fn scene(&self) -> &Scene {
        self.scene
    }

    /// The fault mask applied, if any.
    #[inline]
    pub fn faults(&self) -> Option<&CompiledFaults> {
        self.faults
    }

    /// A host's ECEF position at `step` — the Scene's position column,
    /// read straight from the `qntn-orbit` movement sheet (satellites) or
    /// the fixed geodetic (ground, HAPs).
    #[inline]
    pub fn ecef_of(&self, host: HostId, step: StepId) -> Vec3 {
        self.hosts[host.index()].ecef_at(step.index())
    }

    /// Yield `(a, b, η)` for every live link at `step`, in the canonical
    /// insertion order: fiber mesh first, then candidates in ascending
    /// `(a, b)` order.
    ///
    /// The fault mask, when present, is applied inline: downed-host /
    /// flapped edges are withheld, and atmosphere-crossing links are
    /// scaled by the step's weather factor. Without a mask the weather
    /// factor is exactly 1.0 and `η × 1.0` is a bitwise no-op for the
    /// finite η the evaluator produces, so both configurations run the
    /// same loop without a bit of divergence. An identity mask likewise
    /// reproduces the clean output bit for bit — a checked property, not a
    /// short-circuit.
    ///
    /// # Panics
    /// Panics when `step` is out of range.
    pub fn for_each_link(&self, step: StepId, mut emit: impl FnMut(HostId, HostId, f64)) {
        let t = step.index();
        assert!(t < self.scene.steps(), "step out of range");
        let w = self.faults.map_or(1.0, |f| f.eta_factor(t));
        let up = |a: HostId, b: HostId| match self.faults {
            Some(f) => f.edge_up(t, a.index(), b.index()),
            None => true,
        };
        for &(a, b, eta) in self.fiber {
            let (a, b) = (HostId::from(a), HostId::from(b));
            if up(a, b) {
                emit(a, b, eta);
            }
        }
        for c in self.scene.candidates() {
            match *c {
                Candidate::Static {
                    a,
                    b,
                    eta,
                    crosses_atmosphere,
                } => {
                    if up(a, b) {
                        emit(a, b, if crosses_atmosphere { eta * w } else { eta });
                    }
                }
                Candidate::GroundSat { a, b, sat, low } => {
                    if up(a, b) && self.scene.windows().visible(sat.index(), t, low) {
                        if let Some(eta) = self.evaluator.fso_eta(
                            &self.hosts[a.index()],
                            &self.hosts[b.index()],
                            t,
                        ) {
                            // One endpoint is ground by construction.
                            emit(a, b, eta * w);
                        }
                    }
                }
                Candidate::Isl { a, b } => {
                    if up(a, b) {
                        if let Some(eta) = self.evaluator.fso_eta(
                            &self.hosts[a.index()],
                            &self.hosts[b.index()],
                            t,
                        ) {
                            // Both endpoints are in space: no weather.
                            emit(a, b, eta);
                        }
                    }
                }
                Candidate::Dynamic {
                    a,
                    b,
                    crosses_atmosphere,
                } => {
                    if up(a, b) {
                        if let Some(eta) = self.evaluator.fso_eta(
                            &self.hosts[a.index()],
                            &self.hosts[b.index()],
                            t,
                        ) {
                            emit(a, b, if crosses_atmosphere { eta * w } else { eta });
                        }
                    }
                }
            }
        }
    }

    /// The *active* links of `step` — the subsequence of
    /// [`LinkMap::for_each_link`]'s `(a, b, η)` whose η reaches the
    /// threshold, in the same order and with the same bits — driven by a
    /// resumable [`StepCursor`].
    ///
    /// The window-pruned candidates come from the cursor's incrementally
    /// maintained active set instead of a full candidate scan, and their η
    /// evaluations run through the SoA batch kernel
    /// (`qntn_channel::fso::FsoBatch`) instead of one scalar call per
    /// link. ISL candidates are range-gated once per step: the step's
    /// satellite positions are gathered once and every pair's range is
    /// tested in one loop with [`LinkEvaluator::fso_eta`]'s own test. Both
    /// kinds then pass the reach gate: a candidate whose range exceeds its
    /// reach ([`qntn_channel::params::FsoParams::reach_m`] at the threshold
    /// less a 1e-9 margin) cannot reach the threshold, so it is skipped
    /// before its look angles, the fault gate and η. Every emitted bit is
    /// [`LinkMap::for_each_link`]'s — the batch kernel replicates the
    /// scalar expressions operation for operation, the range gate measures
    /// the range from the same positions `fso_eta` reads, and the merge
    /// walks restore the canonical ascending `(a, b)` candidate order —
    /// which `tests/pipeline_goldens.rs` pins differentially.
    ///
    /// # Panics
    /// Panics when `step` is out of range.
    pub fn for_each_active_link_with(
        &self,
        step: StepId,
        cursor: &mut StepCursor,
        mut emit: impl FnMut(HostId, HostId, f64),
    ) {
        let t = step.index();
        assert!(t < self.scene.steps(), "step out of range");
        self.scene.advance_cursor(cursor, t);
        let config = self.evaluator.config();
        let mut emit = |a, b, eta: f64| {
            if eta >= config.threshold {
                emit(a, b, eta);
            }
        };
        let w = self.faults.map_or(1.0, |f| f.eta_factor(t));
        let up = |a: HostId, b: HostId| match self.faults {
            Some(f) => f.edge_up(t, a.index(), b.index()),
            None => true,
        };
        for &(a, b, eta) in self.fiber {
            let (a, b) = (HostId::from(a), HostId::from(b));
            if up(a, b) {
                emit(a, b, eta);
            }
        }
        let StepCursor {
            active,
            merge: walk,
            positions,
            in_range,
            plan,
            batch,
            ..
        } = cursor;
        // The ISL range gate: gather the step's satellite positions once,
        // then keep the pairs that pass `fso_eta`'s range test and lie
        // within their reach, with the range measured.
        in_range.clear();
        if config.enable_isl && !self.scene.isl.is_empty() {
            positions.clear();
            positions.extend(
                self.scene
                    .sat_hosts
                    .iter()
                    .map(|h| self.hosts[h.index()].ecef_at(t)),
            );
            for pair in &self.scene.isl {
                let range = positions[pair.a as usize].distance(positions[pair.b as usize]);
                if range > config.isl_max_range_m
                    || range <= 0.0
                    || range > self.scene.reach[pair.ci as usize]
                {
                    continue;
                }
                in_range.push((pair.ci, range));
            }
        }
        // The step's walk: the visible window-pruned candidates within
        // their reach and the gated ISL pairs, merged in ascending
        // candidate order.
        walk.clear();
        let mut isls = in_range.iter().map(|&(ci, _)| ci).peekable();
        for &ci in active.iter() {
            let Candidate::GroundSat { sat, low, .. } = self.scene.candidates[ci as usize] else {
                unreachable!("the active set names a non-GroundSat candidate");
            };
            let sat_ecef = self.ecef_of(self.scene.sat_hosts[sat.index()], step);
            if sat_ecef.distance(self.scene.ground_ecef[low]) > self.scene.reach[ci as usize] {
                continue;
            }
            while let Some(isl) = isls.next_if(|&isl| isl < ci) {
                walk.push(isl);
            }
            walk.push(ci);
        }
        walk.extend(isls);
        // Pass 1: one outcome per walk candidate. A ground–satellite link
        // the fault gate lets through is enqueued into the SoA batch (or
        // resolved inline when the evaluator can); an ISL it lets through
        // is evaluated at the range the gate measured.
        plan.clear();
        batch.clear();
        let mut ranges = in_range.iter().map(|&(_, range)| range);
        for &ci in walk.iter() {
            plan.push(match self.scene.candidates[ci as usize] {
                Candidate::GroundSat { a, b, .. } => {
                    if up(a, b) {
                        self.evaluator.fso_eta_batch_enqueue(
                            &self.hosts[a.index()],
                            &self.hosts[b.index()],
                            t,
                            batch,
                        )
                    } else {
                        BatchOutcome::Resolved(None)
                    }
                }
                Candidate::Isl { a, b } => {
                    // The walk holds the in-range pairs in `in_range`'s order.
                    let range = ranges
                        .next()
                        .expect("an ISL in the walk was gated in range");
                    BatchOutcome::Resolved(up(a, b).then(|| {
                        self.evaluator.isl_eta(
                            &self.hosts[a.index()],
                            &self.hosts[b.index()],
                            t,
                            range,
                        )
                    }))
                }
                _ => unreachable!("the walk names an always-evaluated candidate"),
            });
        }
        batch.compute(&config.fso);
        // Pass 2: merge the always-evaluated candidates and the walk in
        // ascending candidate order, so the emissions keep
        // `for_each_link`'s order.
        let etas = batch.eta();
        let always = &self.scene.always_eval;
        let mut next_slot = 0;
        let mut wi = 0; // cursor into `walk` / `plan`
        let mut ei = 0; // cursor into `always`
        loop {
            let from_walk = match (always.get(ei), walk.get(wi)) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                // The two sets are disjoint, so strict inequality decides.
                (Some(&e), Some(&c)) => c < e,
            };
            if from_walk {
                let eta = match plan[wi] {
                    BatchOutcome::Resolved(eta) => eta,
                    BatchOutcome::Queued => {
                        let eta = etas[next_slot];
                        next_slot += 1;
                        Some(eta)
                    }
                };
                if let Some(eta) = eta {
                    match self.scene.candidates[walk[wi] as usize] {
                        // One endpoint is ground by construction: always × w.
                        Candidate::GroundSat { a, b, .. } => emit(a, b, eta * w),
                        // Both endpoints are in space: no weather.
                        Candidate::Isl { a, b } => emit(a, b, eta),
                        _ => unreachable!("the walk names an always-evaluated candidate"),
                    }
                }
                wi += 1;
            } else {
                match self.scene.candidates[always[ei] as usize] {
                    Candidate::Static {
                        a,
                        b,
                        eta,
                        crosses_atmosphere,
                    } => {
                        if up(a, b) {
                            emit(a, b, if crosses_atmosphere { eta * w } else { eta });
                        }
                    }
                    Candidate::Dynamic {
                        a,
                        b,
                        crosses_atmosphere,
                    } => {
                        if up(a, b) {
                            if let Some(eta) = self.evaluator.fso_eta(
                                &self.hosts[a.index()],
                                &self.hosts[b.index()],
                                t,
                            ) {
                                emit(a, b, if crosses_atmosphere { eta * w } else { eta });
                            }
                        }
                    }
                    Candidate::GroundSat { .. } | Candidate::Isl { .. } => {
                        unreachable!("always-eval set names a walked candidate")
                    }
                }
                ei += 1;
            }
        }
    }
}

/// Stage 3 of the pipeline: build the full (unthresholded) per-step
/// [`Graph`] into caller-provided scratch — the rescan path behind every
/// `graph_at*` wrapper and [`crate::SweepEngine::graph_into`], and the
/// oracle the incremental path is pinned against.
///
/// # Panics
/// Panics when `step` is out of range.
pub fn build_topology_into(links: &LinkMap<'_>, step: StepId, g: &mut Graph) {
    g.reset(links.scene().hosts());
    links.for_each_link(step, |a, b, eta| g.set_edge(a.index(), b.index(), eta));
}

/// Fill `out` with `step`'s active links as `(lower, higher, η)`, in the
/// order the thresholded graph's `Graph::edges()` lists them.
/// [`Graph::thresholded_into`] inserts a full graph's edges in that order:
/// by lower endpoint, and in insertion order within one. A stable sort by
/// lower endpoint restores it from the walk's insertion order, so a graph
/// built from `out` has the naive thresholded graph's adjacency lists for
/// any host order.
fn active_links_into(links: &LinkMap<'_>, step: StepId, cursor: &mut StepCursor, out: &mut Links) {
    out.clear();
    links.for_each_active_link_with(step, cursor, |a, b, eta| {
        let (a, b) = (a.index(), b.index());
        out.push((a.min(b), a.max(b), eta));
    });
    out.sort_by_key(|&(lower, _, _)| lower);
}

/// The thresholded per-step graph into `g`, built by the incremental walk
/// through `cursor` — the sweep engine's hot path. Bit-identical to
/// [`build_topology_into`] followed by [`Graph::thresholded_into`],
/// adjacency lists included (see [`active_links_into`]), without building
/// the full graph.
///
/// # Panics
/// Panics when `step` is out of range.
pub(crate) fn build_active_topology_into(
    links: &LinkMap<'_>,
    step: StepId,
    cursor: &mut StepCursor,
    g: &mut Graph,
) {
    let mut list = std::mem::take(&mut cursor.links);
    active_links_into(links, step, cursor, &mut list);
    g.reset(links.scene().hosts());
    for &(u, v, eta) in &list {
        g.set_edge(u, v, eta);
    }
    cursor.links = list;
}

/// Allocating convenience wrapper over [`build_topology_into`].
pub fn build_topology(links: &LinkMap<'_>, step: StepId) -> Graph {
    let mut g = Graph::default();
    build_topology_into(links, step, &mut g);
    g
}

/// Per-host per-step memory-decay factors: each host's class
/// (ground / satellite / HAP) looked up in `memory`, mapped to the η-space
/// factor one hold step costs (`MemoryParams::per_step_eta_factor`).
/// A factor of `0.0` marks a host that cannot hold at all — the
/// time-expanded builder emits no hold edge for it.
pub fn host_hold_factors(hosts: &[Host], memory: &ClassMemory) -> Vec<f64> {
    hosts
        .iter()
        .map(|h| {
            let params = if h.is_ground() {
                &memory.ground
            } else if h.is_satellite() {
                &memory.satellite
            } else {
                &memory.hap
            };
            params.per_step_eta_factor()
        })
        .collect()
}

/// The single materializer of the time-expanded layer: fill `out` with
/// `(host, step)` nodes covering sweep steps `arrival ..= arrival + horizon`
/// (clamped to the scene's last step; the sum saturates, so any horizon is
/// safe).
///
/// Each layer's links are the per-step active links of the incremental
/// walk, in `Graph::edges()` order of the thresholded graph (the list
/// [`crate::SweepEngine::active_graph_into`] inserts), so with
/// `horizon == 0` the time-expanded edge list is bitwise the per-step
/// active edge list.
/// Between consecutive layers, one directed hold edge per holding-capable
/// host (ascending host order, factors from [`host_hold_factors`]) carries
/// a stored qubit forward, paying its memory decay; holds are emitted on
/// every call.
///
/// The per-step walk runs only for steps `layers` does not hold: the cache
/// keeps every layer this scratch has built under the same Scene and
/// fault-mask tokens (see [`LayerCache`]), and a held layer is copied
/// instead — the same floats in the same order. Callers bound the cache
/// with [`LayerCache::retire_below`]; the serving walk of `qntn-serve`
/// keeps at most `deadline + horizon + 1` layers.
///
/// Every output and the cache reuse their storage across calls (the
/// stable sort of a fresh layer's links may take sort scratch), and the
/// cursor keeps the walk over fresh steps incremental.
///
/// # Panics
/// Panics when `arrival` is out of range or `hold_factors` does not match
/// the scene's host count.
pub fn build_time_expanded_into(
    links: &LinkMap<'_>,
    arrival: StepId,
    horizon: usize,
    hold_factors: &[f64],
    cursor: &mut StepCursor,
    layers: &mut LayerCache,
    out: &mut TimeExpandedGraph,
) {
    let n_hosts = links.scene().hosts();
    let n_steps = links.scene().steps();
    assert_eq!(
        hold_factors.len(),
        n_hosts,
        "hold factors for a different host set"
    );
    let t0 = arrival.index();
    assert!(t0 < n_steps, "arrival step out of range");
    let last = t0.saturating_add(horizon).min(n_steps - 1);
    layers.bind((links.scene().token, links.faults().map_or(0, |f| f.token())));

    out.reset(n_hosts, t0);
    for (layer, step) in (t0..=last).enumerate() {
        out.begin_layer();
        if layer > 0 {
            for (host, &factor) in hold_factors.iter().enumerate() {
                if factor > 0.0 {
                    out.push_hold(host, factor);
                }
            }
        }
        let step_links = layers.layer(step, |fresh| {
            active_links_into(links, StepId::from(step), cursor, fresh)
        });
        for &(u, v, eta) in step_links {
            out.push_link(u, v, eta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;
    use crate::linkeval::SimConfig;
    use qntn_geo::Epoch;
    use qntn_orbit::{paper_constellation, PerturbationModel, Propagator};

    fn sat_ephemerides(n_sats: usize, steps: usize) -> Vec<Ephemeris> {
        let props: Vec<Propagator> = paper_constellation(n_sats)
            .into_iter()
            .map(|k| Propagator::new(k, Epoch::J2000, PerturbationModel::TwoBody))
            .collect();
        Ephemeris::generate_many(&props, Epoch::J2000, 30.0, steps as f64 * 30.0)
    }

    fn hosts(n_sats: usize, steps: usize) -> Vec<Host> {
        let mut hosts = vec![
            Host::ground(
                "TTU-0",
                0,
                Geodetic::from_deg(36.1757, -85.5066, 300.0),
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
        for (i, eph) in sat_ephemerides(n_sats, steps).into_iter().enumerate() {
            hosts.push(Host::satellite(format!("SAT-{i:03}"), eph, 1.2));
        }
        hosts
    }

    fn real_windows(hosts: &[Host], n_steps: usize) -> ContactWindows {
        let lows: Vec<Geodetic> = hosts
            .iter()
            .filter(|h| h.is_ground())
            .map(|h| h.geodetic_at(0))
            .collect();
        let ephs: Vec<&Ephemeris> = hosts
            .iter()
            .filter_map(|h| match &h.kind {
                HostKind::Satellite { ephemeris } => Some(ephemeris),
                _ => None,
            })
            .collect();
        ContactWindows::compute(&lows, &ephs, n_steps)
    }

    #[test]
    fn all_visible_shares_one_empty_mask_and_stays_all_visible() {
        let windows = ContactWindows::all_visible(16, 5, 8);
        for sat in 1..8 {
            assert!(
                Arc::ptr_eq(&windows.masks[0], &windows.masks[sat]),
                "satellite {sat} got its own empty-mask allocation"
            );
        }
        for sat in 0..8 {
            for step in 0..16 {
                for low in 0..5 {
                    assert!(windows.visible(sat, step, low));
                }
            }
        }
    }

    #[test]
    fn mismatched_windows_are_reported_not_panicked() {
        let steps = 8;
        let hosts = hosts(3, steps);
        let evaluator = LinkEvaluator::new(SimConfig::default());
        // Each axis, both directions: the windows claim more and fewer
        // grounds / satellites / steps than the hosts describe.
        let cases = [
            (ContactWindows::all_visible(steps, 2, 3), "ground set", 3, 2),
            (ContactWindows::all_visible(steps, 4, 3), "ground set", 3, 4),
            (
                ContactWindows::all_visible(steps, 3, 2),
                "constellation",
                3,
                2,
            ),
            (
                ContactWindows::all_visible(steps, 3, 4),
                "constellation",
                3,
                4,
            ),
            (
                ContactWindows::all_visible(steps - 1, 3, 3),
                "time span",
                steps,
                steps - 1,
            ),
            (
                ContactWindows::all_visible(steps + 1, 3, 3),
                "time span",
                steps,
                steps + 1,
            ),
        ];
        for (windows, needle, want_expected, want_got) in cases {
            match Scene::new(&hosts, &evaluator, steps, windows) {
                Err(QntnError::ShapeMismatch {
                    what,
                    expected,
                    got,
                }) => {
                    assert!(
                        what.contains(needle),
                        "error {what:?} does not mention {needle:?}"
                    );
                    assert_eq!((expected, got), (want_expected, want_got), "axis {needle}");
                }
                other => panic!("expected a ShapeMismatch for {needle}, got {other:?}"),
            }
        }
        // And a matching shape still succeeds.
        let ok = Scene::new(
            &hosts,
            &evaluator,
            steps,
            ContactWindows::all_visible(steps, 3, 3),
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn consecutive_advance_matches_a_fresh_seed() {
        let steps = 60;
        let hosts = hosts(4, steps);
        let evaluator = LinkEvaluator::new(SimConfig::default());
        let windows = real_windows(&hosts, steps);
        let scene = Scene::new(&hosts, &evaluator, steps, windows).expect("matching shape");
        let mut walked = StepCursor::default();
        let mut transitions = 0;
        for step in 0..steps {
            scene.advance_cursor(&mut walked, step);
            let mut fresh = StepCursor::default();
            scene.advance_cursor(&mut fresh, step);
            assert_eq!(
                walked.active, fresh.active,
                "incremental active set diverged from a fresh seed at step {step}"
            );
            let lo = scene.delta_offsets[step] as usize;
            let hi = scene.delta_offsets[step + 1] as usize;
            transitions += hi - lo;
        }
        assert!(
            transitions > 0,
            "the paper constellation never crossed a horizon in 60 steps; \
             the delta path was not exercised"
        );
    }

    #[test]
    fn a_cursor_from_another_scene_is_reseeded_not_trusted() {
        let steps = 20;
        let hosts = hosts(3, steps);
        let evaluator = LinkEvaluator::new(SimConfig::default());
        let pruned = Scene::new(&hosts, &evaluator, steps, real_windows(&hosts, steps))
            .expect("matching shape");
        let unpruned = Scene::unpruned(&hosts, &evaluator, steps);
        let mut cursor = StepCursor::default();
        scene_walk(&pruned, &mut cursor, 5);
        // The unpruned scene has no deltas at all; were the cursor's
        // step-5 state trusted, a consecutive advance would keep the
        // pruned active set instead of the full one.
        unpruned.advance_cursor(&mut cursor, 6);
        assert_eq!(
            cursor.active, unpruned.ground_sat,
            "foreign cursor was advanced instead of reseeded"
        );
        assert_eq!(cursor.token, unpruned.token);
    }

    fn scene_walk(scene: &Scene, cursor: &mut StepCursor, to: usize) {
        for step in 0..=to {
            scene.advance_cursor(cursor, step);
        }
    }
}
