//! Bit-level goldens for the experiments that serve requests: the paper's
//! request sweep (Figs. 7–8, Table III, ablation A1 and the QKD
//! extension), the congestion extension (finite pair rates on the
//! air-ground star), the fault-degradation ladder and the store-and-forward
//! comparison. The congestion and fault values were recorded from the
//! experiments' earlier, dedicated serving loops, so these tests pin that
//! routing every request through the shared serving kernel changed no
//! output bit. The store-and-forward values were recorded while every
//! served pair was realized through the density-matrix pipeline. The
//! request-sweep values were recorded while the sweep routed each request
//! with its own Bellman–Ford over sampled-step contact windows.

use qntn_core::architecture::{AirGround, SpaceGround};
use qntn_core::experiments::congestion::CongestionSweep;
use qntn_core::experiments::faults::{FaultArchPoint, FaultExperiment};
use qntn_core::experiments::fidelity::{ArchReport, FidelityExperiment};
use qntn_core::experiments::qkd::{QkdExperiment, QkdReport};
use qntn_core::experiments::sweep::{ConstellationSweep, SweepSettings};
use qntn_core::experiments::timeexp::{TimeexpExperiment, TimeexpPoint};
use qntn_core::scenario::Qntn;
use qntn_net::SimConfig;
use qntn_orbit::PerturbationModel;
use qntn_routing::RouteMetric;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn quick_constellation_sweep_matches_its_golden_bits() {
    // `reproduce fig7 --quick`'s sweep.
    let settings = SweepSettings {
        sampled_steps: 20,
        requests_per_step: 25,
        ..SweepSettings::paper()
    };
    let sweep = ConstellationSweep::run(
        &Qntn::standard(),
        SimConfig::default(),
        &[6, 36, 108],
        settings,
        PerturbationModel::TwoBody,
    );
    let digest = fnv1a(sweep.points.iter().flat_map(|p| {
        let s = &p.stats;
        [
            p.satellites as u64,
            s.attempted as u64,
            s.served_percent().to_bits(),
            s.mean_fidelity.to_bits(),
            s.mean_link_fidelity.to_bits(),
            s.mean_eta.to_bits(),
            s.mean_hops.to_bits(),
        ]
    }));
    // Of 500 requests each, 6 satellites serve 5.0 %, 36 serve 21.8 % and
    // 108 serve 56.8 %.
    let served: Vec<f64> = sweep
        .points
        .iter()
        .map(|p| p.stats.served_percent())
        .collect();
    assert_eq!(served, [5.0, 21.8, 56.8], "{sweep:#?}");
    assert_eq!(digest, 0x25bd_3b40_237e_679a, "{sweep:#?}");
}

/// Every field of an architecture report but the raw statistics, floats
/// as bits.
fn report_bits(r: &ArchReport) -> [u64; 6] {
    [
        r.coverage_percent,
        r.served_percent,
        r.mean_fidelity,
        r.mean_link_fidelity,
        r.mean_eta,
        r.mean_hops,
    ]
    .map(f64::to_bits)
}

#[test]
fn quick_table3_reports_match_their_golden_bits() {
    // `reproduce table3 --quick`'s experiment on both architectures.
    let q = Qntn::standard();
    let config = SimConfig::default();
    let experiment = FidelityExperiment {
        sampled_steps: 20,
        requests_per_step: 25,
        ..FidelityExperiment::paper()
    };
    let space = SpaceGround::new(&q, 108, config, PerturbationModel::TwoBody);
    let reports = [
        experiment.run_space_ground(&space),
        experiment.run_air_ground(&AirGround::new(&q, config)),
    ];
    let digest = fnv1a(reports.iter().flat_map(report_bits));
    assert_eq!(digest, 0x5158_2a31_b200_549a, "{reports:#?}");
}

#[test]
fn routing_metric_ablation_matches_its_golden_bits() {
    // `reproduce ablations`' A1: 36 satellites, 12 steps x 40 requests.
    let q = Qntn::standard();
    let arch = SpaceGround::new(&q, 36, SimConfig::default(), PerturbationModel::TwoBody);
    let reports: Vec<ArchReport> = [
        RouteMetric::PaperInverseEta,
        RouteMetric::NegLogEta,
        RouteMetric::HopCount,
    ]
    .into_iter()
    .map(|metric| {
        FidelityExperiment {
            sampled_steps: 12,
            requests_per_step: 40,
            seed: 2024,
            metric,
        }
        .run_space_ground(&arch)
    })
    .collect();
    let digest = fnv1a(reports.iter().flat_map(report_bits));
    assert_eq!(digest, 0xd424_0826_f1ce_c8dd, "{reports:#?}");
}

#[test]
fn quick_qkd_reports_match_their_golden_bits() {
    // `reproduce extensions --quick`'s QKD section.
    let q = Qntn::standard();
    let experiment = QkdExperiment {
        sampled_steps: 5,
        requests_per_step: 20,
        ..QkdExperiment::standard()
    };
    let space = SpaceGround::new(&q, 24, SimConfig::default(), PerturbationModel::TwoBody);
    let reports: [QkdReport; 2] = [
        experiment.run_space_ground(&space),
        experiment.run_air_ground(&AirGround::new(&q, SimConfig::default())),
    ];
    let digest = fnv1a(reports.iter().flat_map(|r| {
        [
            r.attempted as u64,
            r.served as u64,
            r.key_capable as u64,
            r.mean_key_fraction.to_bits(),
        ]
    }));
    assert_eq!(digest, 0x5b90_6e58_0190_6622, "{reports:#?}");
}

#[test]
fn congestion_sweep_matches_its_golden_bits() {
    let sweep = CongestionSweep::run(&Qntn::standard(), &[0.05, 0.2, 1.0, 5.0, 20.0], 100, 2024);
    let got: Vec<[u64; 3]> = sweep
        .points
        .iter()
        .map(|p| [p.attempt_rate_hz, p.served_percent, p.congestion_percent].map(f64::to_bits))
        .collect();
    // (rate Hz, served %, congested %): (0.05, 12, 88), (0.2, 57, 43),
    // then 100 % served from 1 Hz up.
    assert_eq!(
        got,
        [
            [0x3fa999999999999a, 0x4028000000000000, 0x4056000000000000],
            [0x3fc999999999999a, 0x404c800000000000, 0x4045800000000000],
            [0x3ff0000000000000, 0x4059000000000000, 0],
            [0x4014000000000000, 0x4059000000000000, 0],
            [0x4034000000000000, 0x4059000000000000, 0],
        ]
    );
}

/// Every field of one architecture's point: floats as bits, counts as-is.
fn arch_bits(p: &FaultArchPoint) -> [u64; 17] {
    let s = &p.stats;
    [
        p.coverage_percent.to_bits(),
        p.served_percent.to_bits(),
        p.first_try_percent.to_bits(),
        p.rescued_percent.to_bits(),
        p.expired_percent.to_bits(),
        p.mean_fidelity.to_bits(),
        p.mean_link_fidelity.to_bits(),
        s.attempted as u64,
        s.served_first_try as u64,
        s.served_after_retry as u64,
        s.expired as u64,
        s.mean_fidelity.to_bits(),
        s.mean_link_fidelity.to_bits(),
        s.mean_eta.to_bits(),
        s.mean_hops.to_bits(),
        s.mean_attempts.to_bits(),
        s.mean_wait_steps.to_bits(),
    ]
}

#[test]
fn quick_fault_ladder_matches_its_golden_bits() {
    let sweep = FaultExperiment::quick().run(&Qntn::standard(), SimConfig::default());
    // FNV-1a over every rung's intensity and both architectures' fields.
    let digest = fnv1a(sweep.points.iter().flat_map(|p| {
        std::iter::once(p.intensity.to_bits())
            .chain(arch_bits(&p.space))
            .chain(arch_bits(&p.air))
    }));
    // Space-ground serves the same 15 of 120 requests on every rung (all
    // rescued by a retry); air-ground serves 120, 120 and 89.
    assert_eq!(sweep.satellites, 8);
    assert_eq!(digest, 0xf458_1070_aa59_e54d, "{sweep:#?}");
}

/// One store-and-forward row: horizon and waits as integers, every float
/// as bits.
type TimeexpRow = (Option<usize>, [u64; 6], [Option<u64>; 2]);

fn timeexp_row(p: &TimeexpPoint) -> TimeexpRow {
    let floats = [
        p.served_percent,
        p.first_try_percent,
        p.rescued_percent,
        p.expired_percent,
        p.mean_fidelity,
        p.mean_attempts,
    ];
    (
        p.horizon_steps,
        floats.map(f64::to_bits),
        [p.p50_wait_steps, p.p95_wait_steps],
    )
}

#[test]
fn timeexp_quick_matches_its_golden_bits() {
    let sweep = TimeexpExperiment::quick().run(&Qntn::standard(), SimConfig::default());
    let got: Vec<TimeexpRow> = std::iter::once(&sweep.baseline)
        .chain(&sweep.points)
        .map(timeexp_row)
        .collect();
    // (served %, first try %, rescued %, expired %, mean fidelity, mean
    // attempts): the baseline and horizon 0 serve 13.8 % at mean fidelity
    // 0.898700; horizons 2 and 6 serve 15.2 % and 18.85 % through held
    // memories, at 0.886748 and 0.859401 with the decay included.
    assert_eq!(sweep.satellites, 8);
    assert_eq!(
        got,
        [
            (
                None,
                [
                    0x402b_9999_9999_999a,
                    0x4015_0000_0000_0000,
                    0x4021_1999_9999_999a,
                    0x4055_8ccc_cccc_cccd,
                    0x3fec_c227_00f6_b85c,
                    0x400d_5e35_3f7c_ed91,
                ],
                [Some(6), Some(14)],
            ),
            (
                Some(0),
                [
                    0x402b_9999_9999_999a,
                    0x4015_0000_0000_0000,
                    0x4021_1999_9999_999a,
                    0x4055_8ccc_cccc_cccd,
                    0x3fec_c227_00f6_b85c,
                    0x400d_5e35_3f7c_ed91,
                ],
                [Some(6), Some(14)],
            ),
            (
                Some(2),
                [
                    0x402e_6666_6666_6666,
                    0x4015_0000_0000_0000,
                    0x4023_e666_6666_6666,
                    0x4055_3333_3333_3333,
                    0x3fec_603c_e592_4d98,
                    0x400d_147a_e147_ae14,
                ],
                [Some(6), Some(15)],
            ),
            (
                Some(6),
                [
                    0x4032_d999_9999_999a,
                    0x4015_0000_0000_0000,
                    0x402b_3333_3333_3333,
                    0x4054_4999_9999_999a,
                    0x3feb_8036_dc72_5a3a,
                    0x400c_79db_22d0_e560,
                ],
                [Some(8), Some(19)],
            ),
        ],
        "{sweep:#?}"
    );
}
