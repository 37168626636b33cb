//! Pre-refactor golden fingerprints for the topology pipeline.
//!
//! The FNV-1a fingerprints below were captured from the seed implementation
//! (the four hand-rolled `QuantumNetworkSim::graph_at*` bodies) *before*
//! graph construction was collapsed into the shared Scene → LinkMap →
//! Topology pipeline. They pin the exact adjacency order and η bit patterns
//! of the standard scenario, so any pipeline change that perturbs a single
//! bit of a single edge fails here.

//!
//! A second golden wall pins the mega-constellation path: active-graph
//! fingerprints of a ~1080-satellite Walker shell (the `bench --scale
//! 1080` constellation exactly), captured from the full-rescan
//! materializer, now exercised through the incremental cursor — plus
//! proptests driving a persistent cursor over arbitrary step walks against
//! full rebuilds, and a persistent time-expanded layer cache over
//! arbitrary windows against fresh builds.

use proptest::prelude::*;
use qntn::common::{HostId, StepId};
use qntn::core::architecture::{default_epoch, AirGround, SpaceGround};
use qntn::core::scenario::Qntn;
use qntn::net::faults::{CompiledFaults, FaultModel};
use qntn::net::{
    host_hold_factors, ContactWindows, LinkMap, QuantumNetworkSim, SweepEngine, SweepScratch,
};
use qntn::orbit::ephemeris::{PAPER_DURATION_S, PAPER_STEP_S};
use qntn::orbit::{scaled_shell, Ephemeris, PerturbationModel, Propagator};
use qntn::quantum::memory::ClassMemory;
use qntn::routing::{Graph, TimeExpandedGraph};
use std::sync::{Arc, OnceLock};

/// Proptest case count: 32 by default, `PROPTEST_CASES` to override (the
/// nightly workflow turns it up).
fn cases_or(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// FNV-1a over every directed adjacency entry in iteration order, η as raw
/// bits — collision-resistant enough to pin bit-identity across a refactor.
fn fingerprint(g: &Graph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    mix(g.node_count() as u64);
    for u in 0..g.node_count() {
        for e in g.neighbors(u) {
            mix(u as u64);
            mix(e.to as u64);
            mix(e.eta.to_bits());
        }
    }
    h
}

/// (case, FNV-1a fingerprint, edge count) captured from the pre-refactor
/// seed implementation. Steps 400/420 were chosen because the 6-satellite
/// constellation contributes FSO edges there and the standard intensity-2.0
/// fault mask actually removes some of them, so the fingerprints pin the
/// clean, thresholded, and faulted paths independently.
const GOLDENS: &[(&str, u64, usize)] = &[
    ("air_full_0", 0x8cf8b139f9d40ad9, 201),
    ("air_active_1440", 0x8cf8b139f9d40ad9, 201),
    ("space6_full_0", 0xc4006c6a95ce10fc, 170),
    ("space6_full_400", 0x700af4944a1d5ea0, 201),
    ("space6_active_420", 0xc4006c6a95ce10fc, 170),
    ("space6_faulted_full_400", 0x4ef5472e68435534, 190),
    ("space6_faulted_active_400", 0x5b5804be52727c5c, 160),
];

#[test]
fn wrappers_are_bit_identical_to_pre_refactor_goldens() {
    let q = Qntn::standard();
    let air = AirGround::standard(&q);
    let space = SpaceGround::new(
        &q,
        6,
        qntn::net::SimConfig::default(),
        PerturbationModel::TwoBody,
    );
    let faults = FaultModel::standard(42)
        .with_intensity(2.0)
        .compile(space.sim());
    let graphs = [
        ("air_full_0", air.sim().graph_at(0)),
        ("air_active_1440", air.sim().active_graph_at(1440)),
        ("space6_full_0", space.sim().graph_at(0)),
        ("space6_full_400", space.sim().graph_at(400)),
        ("space6_active_420", space.sim().active_graph_at(420)),
        (
            "space6_faulted_full_400",
            space.sim().graph_at_with_faults(400, &faults),
        ),
        (
            "space6_faulted_active_400",
            space.sim().active_graph_at_with_faults(400, &faults),
        ),
    ];
    for ((name, g), (gname, ghash, gedges)) in graphs.iter().zip(GOLDENS) {
        assert_eq!(name, gname);
        assert_eq!(
            (fingerprint(g), g.edge_count()),
            (*ghash, *gedges),
            "{name}: graph diverged from pre-refactor golden"
        );
    }
}

/// The pre-refactor naive `graph_at` body, reimplemented verbatim as an
/// oracle: evaluate every non-ground-ground pair at the actual step, no
/// scene, no windows, no static-pair caching.
fn pre_refactor_graph_at(sim: &QuantumNetworkSim, step: usize) -> Graph {
    let hosts = sim.hosts();
    let n = hosts.len();
    let mut g = Graph::with_nodes(n);
    for &(a, b, eta) in sim.fiber_edges() {
        g.set_edge(a, b, eta);
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if hosts[a].is_ground() && hosts[b].is_ground() {
                continue;
            }
            if let Some(eta) = sim.evaluator().fso_eta(&hosts[a], &hosts[b], step) {
                g.set_edge(a, b, eta);
            }
        }
    }
    g
}

/// The pre-refactor naive `graph_at_with_faults` body, as an oracle.
fn pre_refactor_graph_at_with_faults(
    sim: &QuantumNetworkSim,
    step: usize,
    faults: &CompiledFaults,
) -> Graph {
    let hosts = sim.hosts();
    let n = hosts.len();
    let w = faults.eta_factor(step);
    let mut g = Graph::with_nodes(n);
    for &(a, b, eta) in sim.fiber_edges() {
        if faults.edge_up(step, a, b) {
            g.set_edge(a, b, eta);
        }
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if hosts[a].is_ground() && hosts[b].is_ground() {
                continue;
            }
            if !faults.edge_up(step, a, b) {
                continue;
            }
            if let Some(eta) = sim.evaluator().fso_eta(&hosts[a], &hosts[b], step) {
                let crosses = hosts[a].is_ground() || hosts[b].is_ground();
                g.set_edge(a, b, if crosses { eta * w } else { eta });
            }
        }
    }
    g
}

fn assert_bit_identical(a: &Graph, b: &Graph, ctx: &str) {
    assert_eq!(a.node_count(), b.node_count(), "{ctx}: node count");
    assert_eq!(a.edge_count(), b.edge_count(), "{ctx}: edge count");
    for ((ua, va, ea), (ub, vb, eb)) in a.edges().zip(b.edges()) {
        assert_eq!((ua, va), (ub, vb), "{ctx}: edge order");
        assert_eq!(ea.to_bits(), eb.to_bits(), "{ctx}: eta bits at ({ua},{va})");
    }
}

/// The seed scenario the oracle proptests run against: the paper's ground
/// segment plus a 6-satellite prefix, built once (propagation is the
/// expensive part) and shared across cases.
fn seed_space() -> &'static SpaceGround {
    static SPACE: OnceLock<SpaceGround> = OnceLock::new();
    SPACE.get_or_init(|| {
        SpaceGround::new(
            &Qntn::standard(),
            6,
            qntn::net::SimConfig::default(),
            PerturbationModel::TwoBody,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases_or(32)))]

    /// The pipeline-backed `graph_at` wrappers are bit-identical to the
    /// pre-refactor naive loop at arbitrary steps of the seed scenario.
    #[test]
    fn graph_at_matches_the_pre_refactor_loop(step in 0usize..2880) {
        let sim = seed_space().sim();
        assert_bit_identical(
            &sim.graph_at(step),
            &pre_refactor_graph_at(sim, step),
            &format!("step {step}"),
        );
    }

    /// Same contract under a compiled fault mask, across intensities.
    #[test]
    fn faulted_graph_at_matches_the_pre_refactor_loop(
        step in 0usize..2880,
        seed in 0u64..1024,
        intensity in 0.0f64..8.0,
    ) {
        let sim = seed_space().sim();
        let faults = FaultModel::standard(seed).with_intensity(intensity).compile(sim);
        assert_bit_identical(
            &sim.graph_at_with_faults(step, &faults),
            &pre_refactor_graph_at_with_faults(sim, step, &faults),
            &format!("step {step}, seed {seed}, intensity {intensity}"),
        );
    }
}

#[test]
fn scene_positions_match_direct_ephemeris_lookup() {
    let space = seed_space();
    let sim = space.sim();
    let links = LinkMap::new(sim, sim.scene(), None);
    for (i, host) in sim.hosts().iter().enumerate() {
        for step in [0usize, 399, 1440, 2879] {
            let got = links.ecef_of(HostId::from(i), StepId::from(step));
            let want = host.ecef_at(step);
            assert_eq!(
                (got.x, got.y, got.z),
                (want.x, want.y, want.z),
                "host {i} ({}) step {step}",
                host.name
            );
        }
    }
    // For satellites, the position column must be the qntn-orbit movement
    // sheet itself, not a recomputation.
    for host in sim.hosts().iter().filter(|h| h.is_satellite()) {
        if let qntn::net::HostKind::Satellite { ephemeris } = &host.kind {
            for step in [0usize, 400, 2879] {
                let direct = ephemeris.at_step(step).ecef;
                let via_host = host.ecef_at(step);
                assert_eq!(
                    (direct.x, direct.y, direct.z),
                    (via_host.x, via_host.y, via_host.z)
                );
            }
        }
    }
}

#[test]
fn linkmap_eta_matches_direct_evaluator_calls() {
    let space = seed_space();
    let sim = space.sim();
    let links = LinkMap::new(sim, sim.scene(), None);
    for step in [0usize, 400, 420, 1440] {
        let mut n_links = 0;
        links.for_each_link(StepId::from(step), |a, b, eta| {
            n_links += 1;
            let (ha, hb) = (&sim.hosts()[a.index()], &sim.hosts()[b.index()]);
            if ha.is_ground() && hb.is_ground() {
                // Fiber: must be the precomputed mesh entry, bit for bit.
                let mesh = sim
                    .fiber_edges()
                    .iter()
                    .find(|&&(x, y, _)| (x, y) == (a.index(), b.index()))
                    .expect("fiber link not in the mesh");
                assert_eq!(eta.to_bits(), mesh.2.to_bits());
            } else {
                // FSO: must be exactly what the evaluator says right now.
                let direct = sim
                    .evaluator()
                    .fso_eta(ha, hb, step)
                    .expect("LinkMap emitted a link the evaluator rejects");
                assert_eq!(eta.to_bits(), direct.to_bits(), "({a}, {b}) at step {step}");
            }
        });
        assert!(n_links > 0, "step {step} emitted no links");
    }
}

/// The ~1080-satellite Walker shell of the mega-constellation goldens:
/// the `reproduce bench --scale 1080` constellation exactly (paper ground
/// segment, ISLs off), built once and shared — propagating 1080
/// ephemerides over the full day is the expensive part.
fn mega_shell() -> &'static SpaceGround {
    static SHELL: OnceLock<SpaceGround> = OnceLock::new();
    SHELL.get_or_init(|| {
        let epoch = default_epoch();
        let props: Vec<Propagator> = scaled_shell(1080)
            .elements()
            .into_iter()
            .map(|k| Propagator::new(k, epoch, PerturbationModel::TwoBody))
            .collect();
        let eph = Ephemeris::generate_many(&props, epoch, PAPER_STEP_S, PAPER_DURATION_S);
        let config = qntn::net::SimConfig {
            enable_isl: false,
            ..Default::default()
        };
        SpaceGround::from_ephemerides(&Qntn::standard(), eph, config)
    })
}

/// The shell's contact windows, computed once (the spatial-pruned pass)
/// and cloned into each engine — the masks are `Arc`-backed, so a clone
/// is cheap.
fn mega_windows() -> &'static ContactWindows {
    static WINDOWS: OnceLock<ContactWindows> = OnceLock::new();
    WINDOWS.get_or_init(|| ContactWindows::for_sim(mega_shell().sim()))
}

/// `(step, FNV-1a fingerprint, edge count)` of the thresholded active
/// graph at a sparse sample of steps across the day (the quick tier — the
/// consecutive-walk test and the proptests cover density). Captured from
/// the full-rescan materializer before the incremental cursor landed;
/// `active_graph_at` now reaches them through cursor seeding.
const MEGA_CLEAN_GOLDENS: &[(usize, u64, usize)] = &[
    (0, 0xce41a33b68cb57da, 356),
    (719, 0x39670b774299b4aa, 382),
    (1440, 0x2c1a7599c6e26ee6, 367),
    (2200, 0xb26afb2e0bddb17e, 352),
    (2879, 0x6a36ff800ce90b66, 376),
];

/// The active graph at step 1447 reached by *walking* the cursor from
/// 1440 — pins the delta-advancement path itself against a constant.
const MEGA_WALK_END_GOLDEN: (u64, usize) = (0xc9c459fcca7ed706, 365);

/// The faulted active graph at step 1440 under the standard seed-42
/// intensity-2.0 mask: pins gate filtering and weather weighting at scale.
const MEGA_FAULTED_GOLDEN: (u64, usize) = (0xba1aea9b1ebfcb3e, 366);

#[test]
fn mega_shell_actives_match_their_goldens() {
    let sim = mega_shell().sim();
    let engine = SweepEngine::with_windows(sim, mega_windows().clone());
    for &(step, hash, edges) in MEGA_CLEAN_GOLDENS {
        let g = engine.active_graph_at(step);
        assert_eq!(
            (fingerprint(&g), g.edge_count()),
            (hash, edges),
            "mega shell step {step}: active graph diverged from its golden"
        );
    }
}

#[test]
fn mega_shell_consecutive_walk_matches_seeded_rebuilds_and_its_golden() {
    let sim = mega_shell().sim();
    let engine = SweepEngine::with_windows(sim, mega_windows().clone());
    let mut walked = SweepScratch::default();
    for step in 1440..1448 {
        engine.active_graph_into(step, &mut walked);
        // A fresh scratch seeds its cursor from the windows at `step`;
        // the walked scratch got here by applying edge deltas. Both must
        // land on the same bits.
        let mut fresh = SweepScratch::default();
        engine.active_graph_into(step, &mut fresh);
        assert_bit_identical(
            &walked.active,
            &fresh.active,
            &format!("mega shell walked vs seeded at step {step}"),
        );
    }
    let g = &walked.active;
    assert_eq!(
        (fingerprint(g), g.edge_count()),
        MEGA_WALK_END_GOLDEN,
        "mega shell step 1447 after a consecutive walk from 1440"
    );
}

#[test]
fn mega_shell_faulted_active_matches_its_golden() {
    let sim = mega_shell().sim();
    let faults = FaultModel::standard(42).with_intensity(2.0).compile(sim);
    let engine =
        SweepEngine::with_windows(sim, mega_windows().clone()).with_faults(Arc::new(faults));
    let g = engine.active_graph_at(1440);
    assert_eq!(
        (fingerprint(&g), g.edge_count()),
        MEGA_FAULTED_GOLDEN,
        "mega shell faulted step 1440: active graph diverged from its golden"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases_or(32)))]

    /// Incremental-vs-rebuild differential: a persistent cursor driven
    /// over an arbitrary walk — backward and forward jumps, each expanded
    /// into a short consecutive run so the delta path (not just seeding)
    /// is exercised — produces graphs bit-identical to full per-step
    /// rebuilds through `build_topology_into`. Engines alternate between
    /// clean and faulted, so the same cursor also crosses Scene tokens
    /// and must be reseeded rather than trusted.
    #[test]
    fn cursor_walks_are_bit_identical_to_full_rebuilds(
        jumps in proptest::collection::vec(0usize..2877, 1..10),
        seed in 0u64..256,
        intensity in 0.0f64..4.0,
    ) {
        let sim = seed_space().sim();
        let faults = FaultModel::standard(seed).with_intensity(intensity).compile(sim);
        let clean = SweepEngine::new(sim);
        let faulted = SweepEngine::new(sim).with_faults(Arc::new(faults));
        let mut scratch = SweepScratch::default();
        let mut rebuilt = Graph::default();
        for (i, &start) in jumps.iter().enumerate() {
            let engine = if i % 2 == 0 { &clean } else { &faulted };
            for step in start..start + 3 {
                engine.active_graph_into(step, &mut scratch);
                engine.graph_into(step, &mut rebuilt);
                assert_bit_identical(
                    &scratch.full,
                    &rebuilt,
                    &format!("jump {i} step {step}, seed {seed}, intensity {intensity}"),
                );
            }
        }
    }

    /// Layer-cache-vs-fresh differential: one persistent scratch driven
    /// through arbitrary time-expanded builds — forward and backward jumps,
    /// each a short run of consecutive starts, at horizons 0–6, so windows
    /// mix reused and freshly built layers — produces windows bit-identical
    /// to builds into a fresh scratch. Each run picks one of three engines
    /// over the same sim: clean, faulted, or a clone of the clean engine
    /// with a freshly compiled mask of another seed. The clone shares the
    /// clean engine's Scene token, so a cache keyed on the Scene alone
    /// would serve it clean layers.
    #[test]
    fn layer_cache_walks_are_bit_identical_to_fresh_builds(
        first in 0usize..2880,
        walk in proptest::collection::vec((-12i64..=12, 0usize..=6, 1usize..=3, 0usize..3), 1..10),
        seed in 0u64..256,
        intensity in 0.0f64..4.0,
    ) {
        let sim = seed_space().sim();
        let last = sim.steps() - 1;
        let model = FaultModel::standard(seed).with_intensity(intensity);
        let clean = SweepEngine::new(sim);
        let faulted = SweepEngine::new(sim).with_faults(Arc::new(model.compile(sim)));
        let factors = host_hold_factors(sim.hosts(), &ClassMemory::standard());
        let mut scratch = SweepScratch::default();
        let mut start = first;
        for (i, &(jump, horizon, run, which)) in walk.iter().enumerate() {
            start = start.saturating_add_signed(jump as isize).min(last);
            let remasked;
            let engine = match which {
                0 => &clean,
                1 => &faulted,
                _ => {
                    let other = FaultModel::standard(seed + 1 + i as u64).with_intensity(intensity);
                    remasked = clean.clone().with_faults(Arc::new(other.compile(sim)));
                    &remasked
                }
            };
            for t in start..=(start + run - 1).min(last) {
                engine.time_expanded_into(t, horizon, &factors, &mut scratch);
                let mut fresh = SweepScratch::default();
                engine.time_expanded_into(t, horizon, &factors, &mut fresh);
                let ctx = format!("run {i} (engine {which}) at {t}, horizon {horizon}, seed {seed}");
                assert_eq!(scratch.texp.layers(), fresh.texp.layers(), "{ctx}: layers");
                assert_eq!(scratch.texp.base_step(), fresh.texp.base_step(), "{ctx}: base");
                assert_eq!(window_bits(&scratch.texp), window_bits(&fresh.texp), "{ctx}: edges");
            }
        }
    }
}

/// Every edge of a time-expanded window as `(from, to, η bits, hold)`.
fn window_bits(g: &TimeExpandedGraph) -> Vec<(usize, usize, u64, bool)> {
    g.edges()
        .iter()
        .map(|e| (e.from, e.to, e.eta.to_bits(), e.hold))
        .collect()
}

#[test]
fn faulted_linkmap_applies_gate_and_weather_exactly() {
    let space = seed_space();
    let sim = space.sim();
    let faults = FaultModel::standard(42).with_intensity(2.0).compile(sim);
    let links = LinkMap::new(sim, sim.scene(), Some(&faults));
    for step in [380usize, 400, 720] {
        let w = faults.eta_factor(step);
        links.for_each_link(StepId::from(step), |a, b, eta| {
            assert!(
                faults.edge_up(step, a.index(), b.index()),
                "downed/flapped edge ({a}, {b}) leaked through at step {step}"
            );
            let (ha, hb) = (&sim.hosts()[a.index()], &sim.hosts()[b.index()]);
            if !(ha.is_ground() && hb.is_ground()) {
                let direct = sim.evaluator().fso_eta(ha, hb, step).unwrap();
                let crosses = ha.is_ground() || hb.is_ground();
                let want = if crosses { direct * w } else { direct };
                assert_eq!(eta.to_bits(), want.to_bits(), "({a}, {b}) at step {step}");
            }
        });
    }
}
