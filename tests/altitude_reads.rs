//! Satellite altitudes are resolved only where a link reads them.
//!
//! A movement sheet stores ECEF positions; a sample's geodetic altitude is
//! resolved on its first read and kept in the sample. The Scene compile
//! resolves every sample a ground link can see (a nonzero window mask),
//! and the step path reads no other: ground–satellite links are evaluated
//! only inside their windows, and inter-satellite links decide with a
//! geocentric bound. A read anywhere on the step path that fell back to
//! the WGS-84 inverse would raise the count this test pins.

use qntn::core::architecture::SpaceGround;
use qntn::core::scenario::Qntn;
use qntn::net::{HostKind, RetryPolicy, SweepEngine};
use qntn::orbit::Ephemeris;
use qntn::routing::RouteMetric;
use qntn::serve::{generate, ingest, serve_full_with_holds, HoldPolicy, WorkloadKind};

#[test]
fn the_step_path_reads_only_the_altitudes_the_scene_resolved() {
    // Table II's 108 satellites under the default config, ISLs on.
    let space = SpaceGround::standard(&Qntn::standard());
    let sim = space.sim();
    assert!(sim.evaluator().config().enable_isl);
    let sheets: Vec<&Ephemeris> = sim
        .hosts()
        .iter()
        .filter_map(|h| match &h.kind {
            HostKind::Satellite { ephemeris } => Some(ephemeris),
            _ => None,
        })
        .collect();
    let resolved = || sheets.iter().map(|s| s.resolved_altitudes()).sum::<usize>();

    let engine = SweepEngine::new(sim);
    let windows = engine.windows();
    let visible = |sat, step| (0..windows.lows()).any(|low| windows.visible(sat, step, low));
    // The simulator's assembly reads each satellite's step-0 altitude: its
    // Rytov table class and the Scene's ground–satellite classification.
    let expected: usize = (0..sheets.len())
        .map(|sat| {
            (0..sim.steps())
                .filter(|&step| step == 0 || visible(sat, step))
                .count()
        })
        .sum();
    assert!(expected < sheets.len() * sim.steps() / 10, "{expected}");
    assert_eq!(resolved(), expected, "after the Scene compile");

    let flags = engine.connectivity_flags();
    assert!(flags.iter().any(|&c| c));
    assert_eq!(resolved(), expected, "after a connectivity day");

    let stream = generate(sim, WorkloadKind::Uniform, 2_000, 2024);
    let (queue, rejected) = ingest(sim.hosts().len(), sim.steps(), &stream);
    assert!(rejected.is_empty());
    let outcomes = serve_full_with_holds(
        &engine,
        &queue,
        RetryPolicy::standard(),
        RouteMetric::PaperInverseEta,
        &HoldPolicy::with_horizon(4),
    );
    assert!(outcomes.iter().any(|o| o.distribution().is_some()));
    assert_eq!(resolved(), expected, "after a horizon-4 serve");
}
