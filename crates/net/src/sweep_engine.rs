//! The sweep engine: fast, deterministic evaluation of the daily time loop.
//!
//! Every headline number of the paper (Figs. 6–8, Table III) is a function
//! of the thresholded link graph at up to 2880 time steps. The naive loop
//! re-evaluates every host pair at every step — O(N²) full FSO budgets per
//! step, although a 500 km satellite is above a Tennessee site's horizon
//! only a few percent of the day. [`SweepEngine`] removes that waste in
//! five layers:
//!
//! 1. **Contact-window pruning** ([`ContactWindows`]): per (ground,
//!    satellite) pair, the zero-elevation-mask visibility windows are
//!    precomputed from the movement sheets with `qntn-orbit`'s pass
//!    machinery (one dot product per sample). Outside a window the link
//!    evaluator is provably `None` (it requires strictly positive
//!    elevation, the windows include elevation ≥ 0), so the engine skips
//!    the FSO budget entirely. Inside a window the evaluator runs
//!    unchanged — pruning is exact, not approximate.
//! 2. **Step parallelism**: time steps are independent, so sweeps cut
//!    them into contiguous work units, let [`SweepEngine::workers`]
//!    workers claim the units in ascending order, and reassemble results
//!    in step order. The worker count is the process thread count
//!    (`RAYON_NUM_THREADS`, else the core count) or
//!    [`SweepEngine::with_workers`]; results are bit-identical at every
//!    count because no result depends on which worker claims which unit.
//! 3. **Scratch reuse** ([`SweepScratch`]): each worker of a sweep or of a
//!    resilient run keeps one scratch — graph buffers, routing tables and
//!    the time-expanded graph — for every unit it claims, reset (not
//!    reallocated) per step via `Graph::reset` / `SsspTable::reset`.
//! 4. **Incremental topology + batched η** ([`crate::pipeline::StepCursor`]):
//!    each worker's scratch also carries a step cursor, and workers sweep
//!    *contiguous* step chunks, so between consecutive steps the active
//!    ground–satellite set advances from the Scene's precomputed edge
//!    deltas in O(windows opened/closed) instead of a full candidate
//!    rescan — and the surviving links evaluate through the SoA
//!    `FsoBatch` kernel. On a non-consecutive step the cursor reseeds
//!    itself, bit-identically, so chunk boundaries cannot affect results.
//! 5. **Layer reuse** ([`crate::pipeline::LayerCache`]): the hold-aware
//!    serving path routes each attempt over the window `t ..= t + horizon`,
//!    and overlapping windows share layers. Each worker's scratch keeps the
//!    thresholded link lists it has built, keyed on the Scene and fault
//!    mask, so a window builds only the steps this worker has not built
//!    and copies the rest — the same floats in the same order.
//!
//! The engine builds graphs and runs work over steps; it routes no
//! requests itself. Every request path, the paper's Fig. 7–8 and Table III
//! sweep included, is `qntn-serve`'s serving walk on top of it, which
//! routes over [`SweepEngine::time_expanded_into`]'s graphs.
//!
//! **Determinism guarantee**: for any step, the engine's graphs are
//! bit-identical — including adjacency-list order, which routing
//! tie-breaking depends on — to `QuantumNetworkSim::graph_at` /
//! `active_graph_at`, *by construction*: both delegate to the shared
//! Scene → LinkMap → Topology pipeline in [`crate::pipeline`], so there is
//! only one code path that builds a per-step graph (fiber mesh first, then
//! host pairs in ascending `(a, b)` order; the thresholded graph is
//! derived from it by the same `thresholded` filter). The pre-pipeline
//! differential tests (naive == the engine at every worker count, down to
//! the adjacency lists) are kept as regression.

use crate::coverage::{CoverageAnalyzer, CoverageReport};
use crate::faults::CompiledFaults;
use crate::pipeline::{
    build_time_expanded_into, build_topology_into, build_topology_into_with, LayerCache, LinkMap,
    Scene, StepCursor,
};
use crate::runtime::plan_units;
use crate::simulator::QuantumNetworkSim;
use qntn_common::{QntnError, StepId};
use qntn_routing::{Graph, SsspTable, TimeExpandedGraph, TimeTable};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

pub use crate::pipeline::ContactWindows;

/// Per-worker reusable buffers for a sweep: the per-step graphs and
/// Bellman–Ford table, the step cursor, and the time-expanded graph with
/// its layer cache and routing table.
#[derive(Debug, Default)]
pub struct SweepScratch {
    /// The unthresholded graph of the last [`SweepEngine::active_graph_into`].
    pub full: Graph,
    /// The thresholded graph of the last [`SweepEngine::active_graph_into`].
    pub active: Graph,
    /// A Bellman–Ford table for callers that route on
    /// [`SweepScratch::active`] themselves. The library's serving path
    /// routes through the time-expanded solver and leaves it untouched;
    /// perfbench's replay reads it.
    pub sssp: SsspTable,
    /// Incremental-topology state: the visible candidate set carried from
    /// step to step (plus the batched-η scratch). Self-seeding — a fresh
    /// or out-of-sequence cursor rebuilds itself bit-identically.
    pub cursor: StepCursor,
    /// The layered graph of the last [`SweepEngine::time_expanded_into`].
    pub texp: TimeExpandedGraph,
    /// The thresholded layers [`SweepEngine::time_expanded_into`] has
    /// built, copied into later windows that overlap them. Callers that
    /// know their next windows start no earlier than some step bound it
    /// with [`LayerCache::retire_below`].
    pub layers: LayerCache,
    /// Routing scratch for the time-expanded solver.
    pub ttable: TimeTable,
}

/// The window-pruned, step-parallel, buffer-reusing sweep evaluator. See
/// the module docs for the design and the determinism guarantee.
#[derive(Debug, Clone)]
pub struct SweepEngine<'a> {
    sim: &'a QuantumNetworkSim,
    /// Window-pruned classification of the simulator's candidate edges.
    scene: Scene,
    /// Set by [`SweepEngine::with_workers`]; `None` follows the process
    /// thread count.
    workers: Option<usize>,
    faults: Option<Arc<CompiledFaults>>,
}

impl<'a> SweepEngine<'a> {
    /// An engine with full-day contact windows.
    pub fn new(sim: &'a QuantumNetworkSim) -> Self {
        Self::with_windows(sim, ContactWindows::for_sim(sim))
    }

    /// [`SweepEngine::new`] with the full-day window precompute itself
    /// under a cancellation/deadline budget — the precompute is the one
    /// setup phase long enough to need it on large constellations.
    pub fn try_new(
        sim: &'a QuantumNetworkSim,
        control: &qntn_common::RunControl,
    ) -> Result<Self, qntn_common::StopCause> {
        Ok(Self::with_windows(
            sim,
            ContactWindows::for_sim_with_control(sim, control)?,
        ))
    }

    /// An engine reusing precomputed windows — e.g. a
    /// [`ContactWindows::prefix`] of one full-constellation precompute
    /// shared across every size of a constellation sweep.
    ///
    /// # Panics
    /// Panics when the windows' shape does not match the simulator's
    /// ground/satellite counts or step count; [`SweepEngine::try_with_windows`]
    /// is the non-panicking form.
    pub fn with_windows(sim: &'a QuantumNetworkSim, windows: ContactWindows) -> Self {
        match Self::try_with_windows(sim, windows) {
            Ok(engine) => engine,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`SweepEngine::with_windows`] that reports a shape mismatch as a
    /// [`QntnError::ShapeMismatch`] instead of panicking — the right form
    /// at request boundaries, where mismatched precomputes are an input
    /// error, not a bug.
    pub fn try_with_windows(
        sim: &'a QuantumNetworkSim,
        windows: ContactWindows,
    ) -> Result<Self, QntnError> {
        let scene = Scene::new(sim.hosts(), sim.evaluator(), sim.steps(), windows)?;
        Ok(SweepEngine {
            sim,
            scene,
            workers: None,
            faults: None,
        })
    }

    /// Run every stage of this engine on `workers` workers (clamped to at
    /// least 1) instead of the process thread count. Results are
    /// bit-identical at every count; the knob exists so that tests can
    /// compare counts in one process.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The worker count of an engine built without
    /// [`SweepEngine::with_workers`]: the process thread count, which is
    /// `RAYON_NUM_THREADS` when that is set and the core count otherwise.
    pub fn default_workers() -> usize {
        rayon::current_num_threads().max(1)
    }

    /// Workers a stage of this engine runs on: the count given to
    /// [`SweepEngine::with_workers`], else
    /// [`SweepEngine::default_workers`], read when the stage starts.
    pub fn workers(&self) -> usize {
        self.workers.unwrap_or_else(Self::default_workers)
    }

    /// Attach a compiled fault mask: every graph the engine builds then
    /// matches [`QuantumNetworkSim::graph_at_with_faults`] bit-for-bit
    /// (the fault-extended differential contract). The mask is `Arc`-shared
    /// so one compile serves every worker.
    ///
    /// # Panics
    /// Panics when the mask's shape does not match the simulator.
    pub fn with_faults(mut self, faults: Arc<CompiledFaults>) -> Self {
        assert_eq!(
            faults.hosts(),
            self.sim.hosts().len(),
            "faults compiled for a different host set"
        );
        assert_eq!(
            faults.steps(),
            self.sim.steps(),
            "faults compiled for a different time span"
        );
        self.faults = Some(faults);
        self
    }

    /// The attached fault mask, if any.
    #[inline]
    pub fn faults(&self) -> Option<&CompiledFaults> {
        self.faults.as_deref()
    }

    /// The simulator this engine evaluates.
    #[inline]
    pub fn sim(&self) -> &QuantumNetworkSim {
        self.sim
    }

    /// The contact windows in use.
    #[inline]
    pub fn windows(&self) -> &ContactWindows {
        self.scene.windows()
    }

    /// The window-pruned [`Scene`] this engine evaluates through.
    #[inline]
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// Build the full (unthresholded) graph at `step` into `g` — a thin
    /// wrapper over the shared Scene → LinkMap → Topology pipeline
    /// ([`crate::pipeline::build_topology_into`]), so the result is
    /// bit-identical to [`QuantumNetworkSim::graph_at`] (or, with a fault
    /// mask attached, [`QuantumNetworkSim::graph_at_with_faults`]) by
    /// construction: both run the exact same code.
    pub fn graph_into(&self, step: usize, g: &mut Graph) {
        let links = LinkMap::new(self.sim, &self.scene, self.faults.as_deref());
        build_topology_into(&links, StepId::from(step), g);
    }

    /// The full graph at `step` (allocating convenience wrapper).
    pub fn graph_at(&self, step: usize) -> Graph {
        let mut g = Graph::default();
        self.graph_into(step, &mut g);
        g
    }

    /// Build the threshold-gated graph at `step` into `scratch.active`
    /// (using `scratch.full` as the intermediate), matching
    /// [`QuantumNetworkSim::active_graph_at`] bit-for-bit.
    ///
    /// This is the engine's hot path, so it runs the *incremental*
    /// pipeline entry point: `scratch.cursor` carries the visible
    /// candidate set between calls (O(window transitions) on consecutive
    /// steps) and the batched η kernel evaluates the survivors. The
    /// rescan path stays available as [`SweepEngine::graph_into`], and
    /// the two are differentially pinned against each other (and against
    /// the naive simulator) by the engine tests and
    /// `tests/pipeline_goldens.rs`.
    pub fn active_graph_into(&self, step: usize, scratch: &mut SweepScratch) {
        let links = LinkMap::new(self.sim, &self.scene, self.faults.as_deref());
        build_topology_into_with(
            &links,
            StepId::from(step),
            &mut scratch.cursor,
            &mut scratch.full,
        );
        scratch
            .full
            .thresholded_into(self.sim.evaluator().config().threshold, &mut scratch.active);
    }

    /// Build the time-expanded graph spanning steps
    /// `arrival ..= arrival + horizon` (clamped to the last step, for any
    /// horizon) into `scratch.texp` — the hold-aware serving mode's
    /// topology entry point, a thin wrapper over the pipeline's single
    /// materializer [`crate::pipeline::build_time_expanded_into`].
    ///
    /// Each layer runs the exact per-step path of
    /// [`SweepEngine::active_graph_into`] (cursor-driven build, then
    /// threshold), so with `horizon == 0` the single layer's edge list is
    /// bitwise the per-step active graph's — the seam the zero-horizon
    /// differential contract rests on. A step `scratch.layers` already
    /// holds for this engine's Scene and fault mask is copied from there
    /// instead of rebuilt. `hold_factors` comes from
    /// [`crate::pipeline::host_hold_factors`]; hosts with factor `0.0`
    /// get no hold edges.
    pub fn time_expanded_into(
        &self,
        arrival: usize,
        horizon: usize,
        hold_factors: &[f64],
        scratch: &mut SweepScratch,
    ) {
        let links = LinkMap::new(self.sim, &self.scene, self.faults.as_deref());
        build_time_expanded_into(
            &links,
            StepId::from(arrival),
            horizon,
            hold_factors,
            &mut scratch.cursor,
            &mut scratch.layers,
            &mut scratch.full,
            &mut scratch.active,
            &mut scratch.texp,
        );
    }

    /// The threshold-gated graph at `step` (allocating convenience wrapper).
    pub fn active_graph_at(&self, step: usize) -> Graph {
        let mut scratch = SweepScratch::default();
        self.active_graph_into(step, &mut scratch);
        scratch.active
    }

    /// Run `f` over `steps` on [`SweepEngine::workers`] workers, each with
    /// its own [`SweepScratch`], returning results in step order.
    ///
    /// `f` is `Fn + Sync`, like every closure a rayon combinator takes, so
    /// workers cannot mutate state they share: a `&mut` capture of an outer
    /// binding and a captured `RefCell` or `Cell` do not compile. Mutable
    /// per-worker state belongs in the [`SweepScratch`] each call receives.
    /// Below, each call works on its own copy or cell and compiles; either
    /// shared capture does not.
    ///
    /// ```
    /// use rayon::prelude::*;
    /// use std::cell::RefCell;
    /// fn add(acc: &mut f64, x: f64) { *acc += x }
    /// fn bump(hits: &RefCell<usize>) { *hits.borrow_mut() += 1 }
    /// let xs = vec![1.0_f64, 2.0, 3.0];
    /// let (mut acc, hits) = (0.0, RefCell::new(0usize));
    /// xs.par_iter().for_each(|x| add(&mut { acc }, *x));
    /// xs.par_iter().for_each(|_x| bump(&RefCell::new(0)));
    /// add(&mut acc, 4.0);
    /// bump(&hits);
    /// ```
    ///
    /// ```compile_fail,E0596
    /// use rayon::prelude::*;
    /// use std::cell::RefCell;
    /// fn add(acc: &mut f64, x: f64) { *acc += x }
    /// fn bump(hits: &RefCell<usize>) { *hits.borrow_mut() += 1 }
    /// let xs = vec![1.0_f64, 2.0, 3.0];
    /// let (mut acc, hits) = (0.0, RefCell::new(0usize));
    /// xs.par_iter().for_each(|x| add(&mut acc, *x));
    /// xs.par_iter().for_each(|_x| bump(&RefCell::new(0)));
    /// add(&mut acc, 4.0);
    /// bump(&hits);
    /// ```
    ///
    /// ```compile_fail,E0277
    /// use rayon::prelude::*;
    /// use std::cell::RefCell;
    /// fn add(acc: &mut f64, x: f64) { *acc += x }
    /// fn bump(hits: &RefCell<usize>) { *hits.borrow_mut() += 1 }
    /// let xs = vec![1.0_f64, 2.0, 3.0];
    /// let (mut acc, hits) = (0.0, RefCell::new(0usize));
    /// xs.par_iter().for_each(|x| add(&mut { acc }, *x));
    /// xs.par_iter().for_each(|_x| bump(&hits));
    /// add(&mut acc, 4.0);
    /// bump(&hits);
    /// ```
    pub fn map_steps<R, F>(&self, steps: &[usize], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut SweepScratch, usize) -> R + Sync,
    {
        self.map_ranges(steps, |scratch, range| {
            range.iter().map(|&step| f(scratch, step)).collect()
        })
    }

    /// Run `f` over contiguous ranges of `steps`, returning the per-step
    /// results in step order: `f` returns one result per step of its
    /// range. The ranges are the `4 × workers` equal work units that the
    /// resilient runtime cuts from a single chunk spanning the slice; the
    /// [`SweepEngine::workers`] workers claim them in ascending order, each
    /// keeping one [`SweepScratch`] for every range it claims.
    /// [`SweepEngine::map_steps`] is the per-step form.
    ///
    /// Contiguous ranges (instead of per-step work items) keep each
    /// worker's step cursor on consecutive steps, where the incremental
    /// topology path is O(window transitions). The cut cannot affect
    /// results: `f` sees only its scratch and its range, and the scratch's
    /// every construction path is bit-identical however steps are grouped
    /// and whichever ranges it saw before.
    ///
    /// # Panics
    /// Panics when `f` returns a different number of results than its
    /// range has steps, and re-raises a panic of `f` once every worker
    /// has stopped.
    pub fn map_ranges<R, F>(&self, steps: &[usize], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut SweepScratch, &[usize]) -> Vec<R> + Sync,
    {
        const UNPOISONED: &str = "a slot is locked only to store a finished range";
        let units = plan_units(0, steps.len(), steps.len().max(1), self.workers());
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Vec<R>>> = units.iter().map(|_| Mutex::default()).collect();
        self.run_workers(|scratch| loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(unit) = units.get(index) else { break };
            let range = &steps[unit.clone()];
            let out = f(scratch, range);
            assert_eq!(out.len(), range.len(), "one result per step of a range");
            *results[index].lock().expect(UNPOISONED) = out;
        });
        results
            .into_iter()
            .flat_map(|slot| slot.into_inner().expect(UNPOISONED))
            .collect()
    }

    /// Run `worker` on [`SweepEngine::workers`] workers at once: the
    /// calling thread and `workers − 1` scoped threads, each with a fresh
    /// [`SweepScratch`] it keeps until it returns. Workers share nothing
    /// else, so each is meant to claim work from shared state until none
    /// is left. A stage built that way cannot depend on the worker count
    /// or on which worker claims what, as long as every result is a
    /// function of its step alone. A panicking worker's panic is re-raised
    /// once every worker has returned.
    pub(crate) fn run_workers<F>(&self, worker: F)
    where
        F: Fn(&mut SweepScratch) + Sync,
    {
        let run = || worker(&mut SweepScratch::default());
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..self.workers()).map(|_| scope.spawn(run)).collect();
            run();
            for helper in helpers {
                if let Err(payload) = helper.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    /// Per-step "all LANs interconnected" flags over the whole window.
    pub fn connectivity_flags(&self) -> Vec<bool> {
        let steps: Vec<usize> = (0..self.sim.steps()).collect();
        self.map_steps(&steps, |scratch, step| {
            self.active_graph_into(step, scratch);
            self.sim.lans_interconnected(&scratch.active)
        })
    }

    /// Full-window coverage report (paper Eq. 6–7).
    pub fn coverage(&self) -> CoverageReport {
        CoverageAnalyzer::from_flags(self.connectivity_flags(), self.sim.step_s())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;
    use crate::linkeval::SimConfig;
    use qntn_geo::{Epoch, Geodetic};
    use qntn_orbit::{paper_constellation, Ephemeris, PerturbationModel, Propagator};

    fn sat_ephemerides(n_sats: usize, steps: usize) -> Vec<Ephemeris> {
        let props: Vec<Propagator> = paper_constellation(n_sats)
            .into_iter()
            .map(|k| Propagator::new(k, Epoch::J2000, PerturbationModel::TwoBody))
            .collect();
        Ephemeris::generate_many(&props, Epoch::J2000, 30.0, steps as f64 * 30.0)
    }

    fn grounds() -> Vec<Host> {
        vec![
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
        ]
    }

    fn sat_sim(n_sats: usize, steps: usize) -> QuantumNetworkSim {
        let mut hosts = grounds();
        for (i, eph) in sat_ephemerides(n_sats, steps).into_iter().enumerate() {
            hosts.push(Host::satellite(format!("SAT-{i:03}"), eph, 1.2));
        }
        QuantumNetworkSim::new(hosts, SimConfig::default(), steps, 30.0)
    }

    fn hybrid_sim(steps: usize) -> QuantumNetworkSim {
        let mut hosts = grounds();
        hosts.push(Host::hap(
            "HAP",
            Geodetic::from_deg(35.6692, -85.0662, 30_000.0),
            0.3,
        ));
        for (i, eph) in sat_ephemerides(4, steps).into_iter().enumerate() {
            hosts.push(Host::satellite(format!("SAT-{i:03}"), eph, 1.2));
        }
        QuantumNetworkSim::new(hosts, SimConfig::default(), steps, 30.0)
    }

    fn assert_graphs_identical(a: &Graph, b: &Graph, ctx: &str) {
        assert_eq!(a.node_count(), b.node_count(), "{ctx}: node count");
        assert_eq!(a.edge_count(), b.edge_count(), "{ctx}: edge count");
        for u in 0..a.node_count() {
            assert_eq!(
                a.neighbors(u),
                b.neighbors(u),
                "{ctx}: adjacency of node {u}"
            );
        }
    }

    #[test]
    fn windows_are_a_superset_of_qualifying_links() {
        // Wherever the naive evaluator finds a ground-satellite link, the
        // window must be open — otherwise pruning would drop real links.
        let sim = sat_sim(6, 240);
        let windows = ContactWindows::for_sim(&sim);
        let hosts = sim.hosts();
        for step in (0..240).step_by(7) {
            for (low, g) in hosts.iter().enumerate().filter(|(_, h)| h.is_ground()) {
                for (sat_slot, s) in hosts.iter().filter(|h| h.is_satellite()).enumerate() {
                    if sim.evaluator().fso_eta(g, s, step).is_some() {
                        assert!(
                            windows.visible(sat_slot, step, low),
                            "step {step}: window closed over a live link"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn engine_graphs_match_naive_exactly() {
        for (name, sim) in [("sat", sat_sim(6, 120)), ("hybrid", hybrid_sim(120))] {
            let engine = SweepEngine::new(&sim);
            for step in (0..120).step_by(11) {
                assert_graphs_identical(
                    &engine.graph_at(step),
                    &sim.graph_at(step),
                    &format!("{name} full graph, step {step}"),
                );
                assert_graphs_identical(
                    &engine.active_graph_at(step),
                    &sim.active_graph_at(step),
                    &format!("{name} active graph, step {step}"),
                );
            }
        }
    }

    #[test]
    fn every_worker_count_is_bit_identical() {
        use crate::faults::FaultModel;
        let sim = sat_sim(6, 120);
        let faults = Arc::new(FaultModel::standard(5).with_intensity(2.0).compile(&sim));
        for mask in [None, Some(faults)] {
            let engine = match &mask {
                Some(f) => SweepEngine::new(&sim).with_faults(f.clone()),
                None => SweepEngine::new(&sim),
            };
            // The reference runs no executor: one scratch, steps in order.
            let mut scratch = SweepScratch::default();
            let flags: Vec<bool> = (0..sim.steps())
                .map(|step| {
                    engine.active_graph_into(step, &mut scratch);
                    sim.lans_interconnected(&scratch.active)
                })
                .collect();
            let coverage = CoverageAnalyzer::from_flags(flags.clone(), sim.step_s());
            for workers in [1, 2, 3, 8] {
                let engine = engine.clone().with_workers(workers);
                let ctx = format!("{workers} workers, faulted {}", mask.is_some());
                assert_eq!(engine.workers(), workers);
                assert_eq!(engine.connectivity_flags(), flags, "{ctx}");
                let engine_coverage = engine.coverage();
                assert_eq!(engine_coverage.connected, coverage.connected, "{ctx}");
                assert_eq!(engine_coverage.intervals, coverage.intervals, "{ctx}");
            }
        }
    }

    #[test]
    fn map_ranges_cuts_claims_and_joins_units_in_step_order() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let message = |payload: Box<dyn std::any::Any + Send>| match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload.downcast_ref::<&str>().map_or("", |s| s).to_string(),
        };
        let sim = sat_sim(1, 4);
        for workers in [1, 2, 3, 8] {
            let engine = SweepEngine::new(&sim).with_workers(workers);
            for len in [0usize, 1, 5, 31, 97] {
                let steps: Vec<usize> = (100..100 + len).collect();
                // Each step tagged with the first step of its range: the
                // ranges are the `len.div_ceil(4w)` cut, joined in step
                // order.
                let tagged = engine.map_ranges(&steps, |_, range| {
                    range.iter().map(|&step| (range[0], step)).collect()
                });
                let expected: Vec<(usize, usize)> = steps
                    .chunks(len.div_ceil(4 * workers).max(1))
                    .flat_map(|unit| unit.iter().map(move |&step| (unit[0], step)))
                    .collect();
                assert_eq!(tagged, expected, "{workers} workers, {len} steps");
            }
            let steps: Vec<usize> = (0..40).collect();
            let short = catch_unwind(AssertUnwindSafe(|| {
                engine.map_ranges(&steps, |_, range| range[1..].to_vec())
            }));
            let payload = message(short.expect_err("a short range must panic"));
            assert!(payload.contains("one result per step"), "{payload}");
            let boom = catch_unwind(AssertUnwindSafe(|| {
                engine.map_steps(&steps, |_, step| assert!(step != 37, "boom at {step}"))
            }));
            let payload = message(boom.expect_err("a panic in f must propagate"));
            assert!(
                payload.contains("boom at 37"),
                "{workers} workers: {payload}"
            );
        }
    }

    #[test]
    fn prefix_windows_match_fresh_windows() {
        // One 12-satellite precompute, reused for the 5-satellite prefix.
        let steps = 120;
        let sim12 = sat_sim(12, steps);
        let sim5 = sat_sim(5, steps);
        let shared = ContactWindows::for_sim(&sim12);
        let engine_shared = SweepEngine::with_windows(&sim5, shared.prefix(5));
        let engine_fresh = SweepEngine::new(&sim5);
        for step in (0..steps).step_by(19) {
            assert_graphs_identical(
                &engine_shared.active_graph_at(step),
                &engine_fresh.active_graph_at(step),
                &format!("prefix step {step}"),
            );
        }
    }

    #[test]
    fn coverage_matches_analyzer() {
        let sim = sat_sim(6, 240);
        let from_engine = SweepEngine::new(&sim).coverage();
        let naive: Vec<bool> = (0..sim.steps())
            .map(|t| sim.lans_interconnected(&sim.active_graph_at(t)))
            .collect();
        assert_eq!(from_engine.connected, naive);
    }

    #[test]
    #[should_panic(expected = "different constellation")]
    fn mismatched_windows_are_rejected() {
        let sim = sat_sim(6, 120);
        let other = sat_sim(5, 120);
        let windows = ContactWindows::for_sim(&other);
        let _ = SweepEngine::with_windows(&sim, windows);
    }

    #[test]
    fn try_with_windows_reports_the_mismatch_as_an_error() {
        let sim = sat_sim(6, 120);
        let other = sat_sim(5, 120);
        match SweepEngine::try_with_windows(&sim, ContactWindows::for_sim(&other)) {
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("different constellation") && msg.contains("expected 6, got 5"),
                    "unhelpful mismatch report: {msg}"
                );
            }
            Ok(_) => panic!("mismatched windows were accepted"),
        }
    }

    #[test]
    fn faulted_engine_graphs_match_naive_exactly() {
        use crate::faults::FaultModel;
        for (name, sim) in [("sat", sat_sim(6, 120)), ("hybrid", hybrid_sim(120))] {
            for intensity in [0.5, 2.0, FaultModel::INTENSITY_CAP] {
                let faults = Arc::new(
                    FaultModel::standard(314)
                        .with_intensity(intensity)
                        .compile(&sim),
                );
                let engine = SweepEngine::new(&sim).with_faults(faults.clone());
                for step in (0..120).step_by(11) {
                    assert_graphs_identical(
                        &engine.graph_at(step),
                        &sim.graph_at_with_faults(step, &faults),
                        &format!("{name} faulted full graph, i={intensity}, step {step}"),
                    );
                    assert_graphs_identical(
                        &engine.active_graph_at(step),
                        &sim.active_graph_at_with_faults(step, &faults),
                        &format!("{name} faulted active graph, i={intensity}, step {step}"),
                    );
                }
            }
        }
    }

    #[test]
    fn identity_faults_leave_the_engine_bit_identical() {
        use crate::faults::FaultModel;
        let sim = hybrid_sim(120);
        let clean = SweepEngine::new(&sim);
        let masked = SweepEngine::new(&sim).with_faults(Arc::new(FaultModel::none().compile(&sim)));
        assert!(masked.faults().unwrap().is_identity());
        for step in (0..120).step_by(13) {
            assert_graphs_identical(
                &clean.graph_at(step),
                &masked.graph_at(step),
                &format!("identity mask, step {step}"),
            );
        }
        assert_eq!(clean.connectivity_flags(), masked.connectivity_flags());
    }

    #[test]
    #[should_panic(expected = "different time span")]
    fn mismatched_faults_are_rejected() {
        use crate::faults::FaultModel;
        let sim = sat_sim(4, 120);
        let other = sat_sim(4, 60);
        let faults = Arc::new(FaultModel::standard(1).compile(&other));
        let _ = SweepEngine::new(&sim).with_faults(faults);
    }
    #[test]
    fn time_expanded_layer_zero_is_the_per_step_active_graph_bitwise() {
        let sim = hybrid_sim(40);
        let engine = SweepEngine::new(&sim);
        let factors = crate::pipeline::host_hold_factors(
            sim.hosts(),
            &qntn_quantum::memory::ClassMemory::standard(),
        );
        let mut per_step = SweepScratch::default();
        let mut held = SweepScratch::default();
        for step in [0usize, 7, 19, 39] {
            engine.active_graph_into(step, &mut per_step);
            engine.time_expanded_into(step, 0, &factors, &mut held);
            let texp = &held.texp;
            assert_eq!(texp.layers(), 1, "step {step}");
            assert_eq!(texp.base_step(), step);
            assert_eq!(texp.node_count(), sim.hosts().len());
            let expected: Vec<(usize, usize, u64)> = per_step
                .active
                .edges()
                .map(|(u, v, eta)| (u, v, eta.to_bits()))
                .collect();
            let got: Vec<(usize, usize, u64)> = texp
                .edges()
                .iter()
                .map(|e| {
                    assert!(!e.hold, "step {step}: horizon 0 has no hold edges");
                    (e.from, e.to, e.eta.to_bits())
                })
                .collect();
            assert_eq!(got, expected, "step {step}: edge sequence");
            // The builder's last-layer active graph is the per-step one.
            assert_graphs_identical(&held.active, &per_step.active, "builder scratch");
        }
    }

    #[test]
    fn time_expanded_horizon_clamps_and_counts_holds() {
        let sim = sat_sim(3, 20);
        let engine = SweepEngine::new(&sim);
        let memory = qntn_quantum::memory::ClassMemory::standard();
        let factors = crate::pipeline::host_hold_factors(sim.hosts(), &memory);
        let n_hosts = sim.hosts().len();
        let mut scratch = SweepScratch::default();
        // Horizon past the end of the day clamps to the last step.
        engine.time_expanded_into(15, 100, &factors, &mut scratch);
        assert_eq!(scratch.texp.layers(), 5, "steps 15..=19");
        assert_eq!(scratch.texp.node_count(), 5 * n_hosts);
        let holds = scratch.texp.edges().iter().filter(|e| e.hold).count();
        assert_eq!(holds, 4 * n_hosts, "one hold per host per layer gap");
        // Zero-memory factors emit no hold edges at all.
        let none = crate::pipeline::host_hold_factors(
            sim.hosts(),
            &qntn_quantum::memory::ClassMemory::none(),
        );
        engine.time_expanded_into(15, 100, &none, &mut scratch);
        assert!(scratch.texp.edges().iter().all(|e| !e.hold));
    }

    #[test]
    fn time_expanded_horizon_saturates_at_the_end_of_the_day() {
        let sim = sat_sim(3, 20);
        let engine = SweepEngine::new(&sim);
        let memory = qntn_quantum::memory::ClassMemory::standard();
        let factors = crate::pipeline::host_hold_factors(sim.hosts(), &memory);
        let mut huge = SweepScratch::default();
        let mut clamped = SweepScratch::default();
        engine.time_expanded_into(15, usize::MAX, &factors, &mut huge);
        engine.time_expanded_into(15, 4, &factors, &mut clamped);
        assert_eq!(huge.texp.layers(), 5, "steps 15..=19");
        assert_eq!(huge.texp.base_step(), 15);
        assert_eq!(huge.texp.edges(), clamped.texp.edges());
    }

    #[test]
    fn dense_group_schedule_builds_each_step_once_within_its_bound() {
        let n_steps = 60;
        let sim = sat_sim(3, n_steps);
        let engine = SweepEngine::new(&sim);
        let factors = crate::pipeline::host_hold_factors(
            sim.hosts(),
            &qntn_quantum::memory::ClassMemory::standard(),
        );
        let policy = crate::requests::RetryPolicy::standard();
        let horizon = 4;
        let bound = policy.deadline_steps + horizon + 1;
        let mut scratch = SweepScratch::default();
        let mut steps = std::collections::BTreeSet::new();
        for arrival in 0..40 {
            // Serving one group at a time: retire, then its attempts at
            // offsets 0, 2, 6 and 14, cut at the end of the day.
            scratch.layers.retire_below(arrival);
            for t in policy.attempt_steps(arrival, n_steps) {
                engine.time_expanded_into(t, horizon, &factors, &mut scratch);
                steps.extend(t..=(t + horizon).min(n_steps - 1));
                assert!(
                    scratch.layers.buffers() <= bound,
                    "arrival {arrival}, attempt {t}: {} layers held, bound {bound}",
                    scratch.layers.buffers()
                );
            }
        }
        assert_eq!(
            scratch.layers.built(),
            steps.len() as u64,
            "every distinct step built exactly once"
        );
    }

    #[test]
    fn hold_factors_follow_host_classes() {
        let sim = hybrid_sim(10);
        let memory = qntn_quantum::memory::ClassMemory {
            ground: qntn_quantum::memory::MemoryParams::with_t2_steps(40.0),
            satellite: qntn_quantum::memory::MemoryParams::none(),
            hap: qntn_quantum::memory::MemoryParams::ideal(),
        };
        let factors = crate::pipeline::host_hold_factors(sim.hosts(), &memory);
        assert_eq!(factors.len(), sim.hosts().len());
        for (host, &f) in sim.hosts().iter().zip(&factors) {
            if host.is_ground() {
                assert!((f - (-2.0f64 / 40.0).exp()).abs() < 1e-15);
            } else if host.is_satellite() {
                assert_eq!(f, 0.0);
            } else {
                assert_eq!(f, 1.0);
            }
        }
    }

    #[test]
    fn faulted_time_expanded_layer_zero_matches_faulted_per_step() {
        use crate::faults::FaultModel;
        let sim = sat_sim(4, 60);
        let faults = Arc::new(FaultModel::standard(11).with_intensity(2.0).compile(&sim));
        let engine = SweepEngine::new(&sim).with_faults(faults);
        let factors = crate::pipeline::host_hold_factors(
            sim.hosts(),
            &qntn_quantum::memory::ClassMemory::none(),
        );
        let mut per_step = SweepScratch::default();
        let mut held = SweepScratch::default();
        for step in [0usize, 13, 31, 59] {
            engine.active_graph_into(step, &mut per_step);
            engine.time_expanded_into(step, 0, &factors, &mut held);
            let expected: Vec<(usize, usize, u64)> = per_step
                .active
                .edges()
                .map(|(u, v, eta)| (u, v, eta.to_bits()))
                .collect();
            let got: Vec<(usize, usize, u64)> = held
                .texp
                .edges()
                .iter()
                .map(|e| (e.from, e.to, e.eta.to_bits()))
                .collect();
            assert_eq!(got, expected, "faulted step {step}");
        }
    }
}
