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
//!
//! A third wall pins inter-satellite links: full (rescan) and active
//! (cursor walk) fingerprints of the paper's 108-satellite day (ISLs on) at
//! steps where ISLs pass the threshold, clean and faulted. The smaller
//! scenarios above never bring two satellites within ISL range, and no
//! served route of the serve workloads uses an ISL, so these goldens and
//! the ISL-bearing walk proptest are what check ISL edges.
//!
//! A fourth wall, the reach census, checks the engine's reach gate from
//! outside: every in-window ground–satellite pair and in-range ISL pair
//! past its diffraction-limited reach carries η below the threshold, and
//! the pinned counts of such pairs show the gate has work to skip.

use proptest::prelude::*;
use qntn::channel::params::ApertureSet;
use qntn::common::{HostId, StepId};
use qntn::core::architecture::{default_epoch, AirGround, SpaceGround};
use qntn::core::scenario::Qntn;
use qntn::net::faults::{CompiledFaults, FaultModel};
use qntn::net::{
    host_hold_factors, ContactWindows, Host, LinkMap, QuantumNetworkSim, SimConfig, SweepEngine,
    SweepScratch,
};
use qntn::orbit::ephemeris::{PAPER_DURATION_S, PAPER_STEP_S};
use qntn::orbit::{paper_constellation, scaled_shell, Ephemeris, PerturbationModel, Propagator};
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

/// The paper's headline space–ground day: Table II's 108 satellites with
/// ISLs on (the default config), built once and shared.
fn standard_space() -> &'static SpaceGround {
    static SPACE: OnceLock<SpaceGround> = OnceLock::new();
    SPACE.get_or_init(|| SpaceGround::standard(&Qntn::standard()))
}

/// `(step, full fingerprint, full edges, active fingerprint, active edges)`
/// of the 108-satellite day, in walk order: three consecutive steps, a jump
/// back, a jump forward. At each of these steps ISLs pass the threshold,
/// and the standard seed-42 intensity-2.0 mask withholds some of them.
/// Captured from the cursor path before ISL pairs were range-gated per
/// step.
const ISL_CLEAN_GOLDENS: &[(usize, u64, usize, u64, usize)] = &[
    (62, 0xa846d9e214139336, 487, 0xd5be6e66990d4872, 291),
    (63, 0x64f0e3f18579bab2, 487, 0x4dff7566f96ddb0a, 260),
    (64, 0xd12e144560ba30ee, 492, 0x128a026b3e7ab2f6, 260),
    (46, 0x50aa32bd512bb29a, 459, 0x467866158abf66ae, 206),
    (188, 0x8b36a0d345b2e91e, 492, 0x504eec70e1d4445e, 260),
];

/// [`ISL_CLEAN_GOLDENS`] under `FaultModel::standard(42)` at intensity 2.0.
const ISL_FAULTED_GOLDENS: &[(usize, u64, usize, u64, usize)] = &[
    (62, 0x1ebf0a1ac9acfa3e, 485, 0xdafa8ac76e524196, 289),
    (63, 0x4564005a60346562, 485, 0xc7786432f71244b2, 258),
    (64, 0x63420548cc8c5bde, 490, 0x12831f4f9c6a5296, 258),
    (46, 0x2b40d78e5d765fb2, 426, 0x9d2da93a5e671d12, 204),
    (188, 0x5f019ab827825dea, 449, 0x93339e5979eb8ca2, 254),
];

#[test]
fn standard_day_isl_walks_match_their_goldens() {
    let sim = standard_space().sim();
    let faults = FaultModel::standard(42).with_intensity(2.0).compile(sim);
    let clean = SweepEngine::new(sim);
    let faulted = SweepEngine::new(sim).with_faults(Arc::new(faults));
    let hosts = sim.hosts();
    for (engine, goldens, tag) in [
        (&clean, ISL_CLEAN_GOLDENS, "clean"),
        (&faulted, ISL_FAULTED_GOLDENS, "faulted"),
    ] {
        let mut scratch = SweepScratch::default();
        let mut full = Graph::default();
        for &(step, full_hash, full_edges, active_hash, active_edges) in goldens {
            engine.active_graph_into(step, &mut scratch);
            engine.graph_into(step, &mut full);
            let ctx = format!("{tag} step {step}");
            assert_eq!(
                (fingerprint(&full), full.edge_count()),
                (full_hash, full_edges),
                "{ctx}: full graph diverged from its golden"
            );
            assert_eq!(
                (fingerprint(&scratch.active), scratch.active.edge_count()),
                (active_hash, active_edges),
                "{ctx}: active graph diverged from its golden"
            );
            let isls = scratch
                .active
                .edges()
                .filter(|&(u, v, _)| hosts[u].is_satellite() && hosts[v].is_satellite())
                .count();
            assert!(
                isls > 0,
                "{ctx}: the active graph holds no ISL, so this golden pins none"
            );
        }
    }
}

/// How far under the threshold the engine's reach gate sets its floor.
const REACH_MARGIN: f64 = 1e-9;

/// What [`reach_census`] counted: in-window ground–satellite pairs and
/// in-range ISL pairs, and how many of each lie beyond their reach.
#[derive(Debug, PartialEq)]
struct Census {
    ground_sat: usize,
    ground_sat_beyond: usize,
    isl: usize,
    isl_beyond: usize,
}

/// Walk `steps` of `sim` the way the engine's reach gate sees them. Every
/// in-window ground–satellite pair and every ISL pair that passes
/// `fso_eta`'s range test is counted, and each one whose range exceeds
/// its reach (the larger of its two transmit orientations' at the gate's
/// floor, the range measured as the gate measures it) must carry a scalar
/// η below the threshold — times the step's weather factor under each
/// mask for the atmosphere-crossing ground links.
fn reach_census(
    sim: &QuantumNetworkSim,
    masks: &[&CompiledFaults],
    steps: impl Iterator<Item = usize>,
) -> Census {
    let windows = ContactWindows::for_sim(sim);
    let config = sim.evaluator().config();
    let floor = config.threshold - REACH_MARGIN;
    let hosts = sim.hosts();
    let reach = |a: &Host, b: &Host| {
        let (da, db) = (a.aperture_m, b.aperture_m);
        let fso = &config.fso;
        fso.reach_m(da, db, floor).max(fso.reach_m(db, da, floor))
    };
    let grounds: Vec<usize> = (0..hosts.len()).filter(|&i| hosts[i].is_ground()).collect();
    let sats: Vec<usize> = (0..hosts.len())
        .filter(|&i| hosts[i].is_satellite())
        .collect();
    let mut census = Census {
        ground_sat: 0,
        ground_sat_beyond: 0,
        isl: 0,
        isl_beyond: 0,
    };
    for step in steps {
        let weather: Vec<f64> = std::iter::once(1.0)
            .chain(masks.iter().map(|m| m.eta_factor(step)))
            .collect();
        for (low, &g) in grounds.iter().enumerate() {
            for (row, &s) in sats.iter().enumerate() {
                if !windows.visible(row, step, low) {
                    continue;
                }
                census.ground_sat += 1;
                let range = hosts[s].ecef_at(step).distance(hosts[g].ecef_at(step));
                if range <= reach(&hosts[g], &hosts[s]) {
                    continue;
                }
                census.ground_sat_beyond += 1;
                let (a, b) = (&hosts[g.min(s)], &hosts[g.max(s)]);
                if let Some(eta) = sim.evaluator().fso_eta(a, b, step) {
                    for w in &weather {
                        assert!(
                            eta * w < config.threshold,
                            "step {step}: ({g}, {s}) at {range} m is past its reach \
                             but carries η·w = {}",
                            eta * w
                        );
                    }
                }
            }
        }
        if !config.enable_isl {
            continue;
        }
        for (i, &a) in sats.iter().enumerate() {
            for &b in &sats[i + 1..] {
                let range = hosts[a].ecef_at(step).distance(hosts[b].ecef_at(step));
                if range > config.isl_max_range_m || range <= 0.0 {
                    continue;
                }
                census.isl += 1;
                if range <= reach(&hosts[a], &hosts[b]) {
                    continue;
                }
                census.isl_beyond += 1;
                let eta = sim.evaluator().fso_eta(&hosts[a], &hosts[b], step);
                assert!(
                    eta.is_some_and(|eta| eta < config.threshold),
                    "step {step}: ISL ({a}, {b}) at {range} m is past its reach but carries {eta:?}"
                );
            }
        }
    }
    census
}

/// The reach gate skips real work and never a live link: on the paper's
/// 108-satellite day (ISLs on), at every 7th step, most in-window
/// ground–satellite pairs and in-range ISL pairs lie beyond their reach,
/// and none of them reaches the threshold, clean or under the standard
/// seed-42 intensity-2.0 mask.
#[test]
fn beyond_reach_pairs_stay_below_the_threshold() {
    let sim = standard_space().sim();
    let faults = FaultModel::standard(42).with_intensity(2.0).compile(sim);
    let census = reach_census(sim, &[&faults], (0..sim.steps()).step_by(7));
    assert_eq!(
        census,
        Census {
            ground_sat: 70_261,
            ground_sat_beyond: 60_478,
            isl: 44_784,
            isl_beyond: 34_290,
        }
    );
}

/// [`beyond_reach_pairs_stay_below_the_threshold`] at every step of the
/// ~1080-satellite shell (ISLs off), clean and faulted.
#[test]
#[ignore = "a full day of the 1080-satellite shell; run by the nightly --ignored job"]
fn beyond_reach_pairs_stay_below_the_threshold_on_the_mega_shell() {
    let sim = mega_shell().sim();
    let faults = FaultModel::standard(42).with_intensity(2.0).compile(sim);
    let census = reach_census(sim, &[&faults], 0..sim.steps());
    assert_eq!(
        census,
        Census {
            ground_sat: 4_889_722,
            ground_sat_beyond: 4_195_388,
            isl: 0,
            isl_beyond: 0,
        }
    );
}

/// Steps of the ISL-bearing constellations the walk proptest draws.
const ISL_STEPS: usize = 320;

/// The paper's ground segment and Table II's first 36 satellites over the
/// first [`ISL_STEPS`] steps of the day: the inputs of the walk proptest's
/// constellations, propagated once.
fn isl_inputs() -> &'static (Vec<Host>, Vec<Ephemeris>) {
    static INPUTS: OnceLock<(Vec<Host>, Vec<Ephemeris>)> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let ground = seed_space()
            .sim()
            .hosts()
            .iter()
            .filter(|h| h.is_ground())
            .cloned()
            .collect();
        let epoch = default_epoch();
        let props: Vec<Propagator> = paper_constellation(36)
            .into_iter()
            .map(|k| Propagator::new(k, epoch, PerturbationModel::TwoBody))
            .collect();
        let duration_s = ISL_STEPS as f64 * PAPER_STEP_S;
        let sheets = Ephemeris::generate_many(&props, epoch, PAPER_STEP_S, duration_s);
        (ground, sheets)
    })
}

/// The paper's ground segment with the first `n_sats` satellites of
/// [`isl_inputs`], plus a coincident twin of satellite `twin` as the last
/// host when one is named.
fn isl_sim(n_sats: usize, twin: Option<usize>, isl_max_range_m: f64) -> QuantumNetworkSim {
    let (ground, sheets) = isl_inputs();
    let aperture_m = ApertureSet::paper().satellite_m;
    let mut hosts = ground.clone();
    for (i, sheet) in sheets[..n_sats].iter().enumerate() {
        hosts.push(Host::satellite(
            format!("SAT-{i:03}"),
            sheet.clone(),
            aperture_m,
        ));
    }
    if let Some(k) = twin {
        hosts.push(Host::satellite("SAT-TWIN", sheets[k].clone(), aperture_m));
    }
    let config = SimConfig {
        isl_max_range_m,
        ..Default::default()
    };
    QuantumNetworkSim::new(hosts, config, ISL_STEPS, PAPER_STEP_S)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases_or(32)))]

    /// Incremental ≡ rescan ≡ pre-refactor naive, over ISL-bearing
    /// constellations: a persistent cursor driven over an arbitrary walk —
    /// backward and forward jumps, each expanded into a short consecutive
    /// run so the delta path (not just seeding) is exercised — produces
    /// active graphs bit-identical to thresholded per-step rebuilds
    /// through `build_topology_into` and to the thresholded pre-refactor
    /// loop, whose full graphs the rebuilds match. Runs alternate between
    /// the clean and the faulted engine, so the same cursor also crosses
    /// Scene tokens and must be reseeded rather than trusted.
    ///
    /// The constellation is 24–36 of Table II's satellites (up to 16 never
    /// come within ISL range all day), and `isl_max_range_m` is drawn three
    /// ways: from a continuous range; as the exact distance of a drawn pair
    /// at a walked step, which puts that pair on the boundary, where it
    /// keeps its link; or from the continuous range with a coincident twin
    /// of a drawn satellite, which at range 0 never links to it.
    #[test]
    fn cursor_walks_are_bit_identical_to_full_rebuilds(
        jumps in proptest::collection::vec(0usize..ISL_STEPS - 3, 1..10),
        seed in 0u64..256,
        intensity in 0.0f64..4.0,
        n_sats in 24usize..=36,
        case in 0usize..3,
        range_m in 1.0e6f64..6.0e6,
        pick in (0usize..30, 0usize..36, 0usize..36),
    ) {
        let steps: Vec<usize> = jumps.iter().flat_map(|&start| start..start + 3).collect();
        let (at, i) = (steps[pick.0 % steps.len()], pick.1 % n_sats);
        let j = (i + 1 + pick.2 % (n_sats - 1)) % n_sats; // never `i`
        let n_ground = isl_inputs().0.len();
        let sheets = &isl_inputs().1;
        let (sim, boundary, twin) = match case {
            0 => (isl_sim(n_sats, None, range_m), None, None),
            1 => {
                let range = sheets[i].at_step(at).ecef.distance(sheets[j].at_step(at).ecef);
                let pair = (n_ground + i.min(j), n_ground + i.max(j));
                (isl_sim(n_sats, None, range), Some(pair), None)
            }
            _ => {
                let pair = (n_ground + i, n_ground + n_sats);
                (isl_sim(n_sats, Some(i), range_m), None, Some(pair))
            }
        };
        let faults = Arc::new(FaultModel::standard(seed).with_intensity(intensity).compile(&sim));
        let clean = SweepEngine::new(&sim);
        let faulted = SweepEngine::new(&sim).with_faults(faults.clone());
        let threshold = sim.evaluator().config().threshold;
        let mut scratch = SweepScratch::default();
        let mut rebuilt = Graph::default();
        for (k, &step) in steps.iter().enumerate() {
            let run = k / 3;
            let (engine, naive) = if run % 2 == 0 {
                (&clean, pre_refactor_graph_at(&sim, step))
            } else {
                (&faulted, pre_refactor_graph_at_with_faults(&sim, step, &faults))
            };
            engine.active_graph_into(step, &mut scratch);
            engine.graph_into(step, &mut rebuilt);
            let ctx = format!(
                "run {run} step {step}, {n_sats} sats, case {case}, seed {seed}, \
                 intensity {intensity}"
            );
            assert_bit_identical(
                &scratch.active,
                &rebuilt.thresholded(threshold),
                &format!("{ctx}: incremental vs rescan"),
            );
            assert_bit_identical(&rebuilt, &naive, &format!("{ctx}: rescan vs naive"));
            assert_bit_identical(
                &scratch.active,
                &naive.thresholded(threshold),
                &format!("{ctx}: active"),
            );
            if let Some((a, b)) = boundary {
                if step == at && (run % 2 == 0 || faults.edge_up(step, a, b)) {
                    assert!(rebuilt.has_edge(a, b), "{ctx}: the boundary pair ({a}, {b}) lost its link");
                }
            }
            if let Some((a, b)) = twin {
                assert!(!rebuilt.has_edge(a, b), "{ctx}: the coincident twins ({a}, {b}) linked");
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
