//! Satellite-pass explorer: propagate one Walker-Delta satellite for a day,
//! predict its passes over the three QNTN cities, and show how little of
//! the day a single LEO satellite can serve — the geometry behind Fig. 6.
//!
//! ```text
//! cargo run --release --example satellite_passes
//! ```

use qntn::core::architecture::default_epoch;
use qntn::core::scenario::Qntn;
use qntn::geo::Geodetic;
use qntn::orbit::ephemeris::{PAPER_DURATION_S, PAPER_STEP_S};
use qntn::orbit::{
    paper_constellation, ContactPlan, Ephemeris, PassPredictor, PerturbationModel, Propagator,
};

fn main() {
    let scenario = Qntn::standard();
    let epoch = default_epoch();

    // Satellite #0 of the paper's Table II (RAAN 0°, anomaly 0°).
    let elements = paper_constellation(1)[0];
    println!(
        "satellite: a = {:.0} km, i = {:.0}°, RAAN = {:.0}°, period = {:.1} min",
        elements.semi_major_m / 1000.0,
        elements.inclination.to_degrees(),
        elements.raan.to_degrees(),
        elements.period_s() / 60.0
    );

    let prop = Propagator::new(elements, epoch, PerturbationModel::J2Secular);
    let eph = Ephemeris::generate(&prop, epoch, PAPER_STEP_S, PAPER_DURATION_S);
    println!(
        "movement sheet: {} samples at {} s cadence (STK-style)\n",
        eph.len(),
        eph.step_s()
    );

    // Passes over each city above the paper's pi/9 elevation mask.
    let mask = std::f64::consts::PI / 9.0;
    for (i, lan) in scenario.lans.iter().enumerate() {
        let site: Geodetic = scenario.lan_centroid(i).with_alt(300.0);
        let predictor = PassPredictor::new(site, mask);
        let passes = predictor.passes(&eph);
        let frac = predictor.visibility_fraction(&eph);
        println!(
            "{}: {} passes above {:.0}°, visible {:.2}% of the day",
            lan.name,
            passes.len(),
            mask.to_degrees(),
            frac * 100.0
        );
        for (k, p) in passes.iter().enumerate() {
            println!(
                "  pass {k}: t = {:>7.0}..{:>7.0} s  ({:.1} min)",
                p.start_s,
                p.end_s,
                p.duration_s() / 60.0
            );
        }
    }

    // Ground-track sample.
    println!("\nground track (every 2 h):");
    for (k, s) in eph.samples().iter().enumerate().step_by(240) {
        let g = s.geodetic();
        println!(
            "  t = {:>6.0} s: ({:>7.2}, {:>8.2}) alt {:>6.1} km",
            k as f64 * eph.step_s(),
            g.lat_deg(),
            g.lon_deg(),
            g.alt_m / 1000.0
        );
    }

    // The operations view: a contact plan for Cookeville over the first 24
    // satellites of Table II.
    println!("\ncontact plan, Cookeville, 24 satellites (first 10 contacts):");
    let props: Vec<Propagator> = paper_constellation(24)
        .into_iter()
        .map(|k| Propagator::new(k, epoch, PerturbationModel::TwoBody))
        .collect();
    let ephs = Ephemeris::generate_many(&props, epoch, PAPER_STEP_S, PAPER_DURATION_S);
    let site = scenario.lan_centroid(0).with_alt(300.0);
    let plan = ContactPlan::build(site, &ephs, mask);
    for c in plan.contacts.iter().take(10) {
        println!(
            "  SAT-{:03}  {:>7.0}..{:>7.0} s  ({:.1} min)",
            c.satellite,
            c.window.start_s,
            c.window.end_s,
            c.window.duration_s() / 60.0
        );
    }
    println!(
        "  {} contacts, any-satellite availability {:.1}%, longest outage {:.0} min,\n  mean contact {:.1} min",
        plan.contacts.len(),
        plan.availability_fraction() * 100.0,
        plan.max_gap_s() / 60.0,
        plan.mean_contact_s() / 60.0
    );

    println!(
        "\na single satellite sees each city for well under 1% of the day —\n\
         which is why the paper needs 108 of them for 55% coverage, while a\n\
         single stationary HAP covers 100%."
    );
}
