//! Deterministic fault injection for the sweep path.
//!
//! The paper assumes every platform is permanently healthy ("ideal
//! conditions"); production networks are not. [`FaultModel`] schedules four
//! failure classes from one `StdRng` seed — satellite outages,
//! ground-station downtime windows, per-link flaps, and region-wide
//! weather-front η-degradation episodes — and compiles them into a
//! [`CompiledFaults`] per-step mask that both the [`crate::SweepEngine`]
//! and the naive per-step evaluator
//! ([`crate::QuantumNetworkSim::graph_at_with_faults`]) consult, so PR 1's
//! bit-identical engine ≡ naive differential contract extends to faulty
//! runs.
//!
//! **Determinism contract.** A `(FaultModel, simulator shape)` pair fully
//! determines the compiled schedule: same seed, same rates, same host set,
//! same step count → the same mask, bit for bit, on any thread count.
//!
//! **Intensity nesting.** `intensity` scales all failure classes at once,
//! and does so *monotonically by construction*: the model first draws a
//! fixed candidate pool sized for [`FaultModel::INTENSITY_CAP`] (every
//! candidate's start, duration, severity and activation variate are drawn
//! regardless of the configured intensity), then activates exactly the
//! candidates whose activation variate falls below
//! `intensity / INTENSITY_CAP`. Schedules at a lower intensity are
//! therefore literal subsets of schedules at a higher intensity, which
//! makes the served-request count provably monotone non-increasing in
//! intensity (edge removal and η-multiplication by a factor ≤ 1 are both
//! monotone through the threshold gate). `intensity == 0` activates
//! nothing: the compiled mask is the identity and every consumer is
//! byte-identical to the fault-free path.

use crate::pipeline::next_token;
use crate::simulator::QuantumNetworkSim;
use qntn_channel::weather::episode_eta_factor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Wavelength the weather-front penalty is evaluated at (the network's
/// 810 nm single-photon band).
const WEATHER_WAVELENGTH_M: f64 = 810e-9;

/// Effective low-troposphere path a weather front adds extinction over.
/// Fronts are shallow layers; 1.5 km of excess path spans factors from
/// ≈0.9 (clear→20 km visibility) down to ≈0.1 (mist), which brackets the
/// regimes of interest around the 0.7 threshold.
const WEATHER_EFFECTIVE_PATH_M: f64 = 1_500.0;

/// Per-category stream salts (decorrelate the four schedules drawn from
/// one seed).
const SALT_SAT: u64 = 0x5a5a_0000_0000_0001;
const SALT_GROUND: u64 = 0x5a5a_0000_0000_0002;
const SALT_FLAP: u64 = 0x5a5a_0000_0000_0003;
const SALT_WEATHER: u64 = 0x5a5a_0000_0000_0004;

/// A seeded, rate-parameterized fault schedule generator. See the module
/// docs for the determinism and monotonicity contracts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Master seed; all four failure classes derive their streams from it.
    pub seed: u64,
    /// Global severity multiplier in `[0, INTENSITY_CAP]`. 0 = no faults
    /// (identity mask); 1 = the nominal per-day rates below.
    pub intensity: f64,
    /// Expected outage episodes per satellite per day (at intensity 1).
    pub sat_outages_per_day: f64,
    /// Mean satellite outage duration, steps.
    pub sat_outage_mean_steps: usize,
    /// Expected downtime windows per ground station per day.
    pub ground_outages_per_day: f64,
    /// Mean ground-station downtime duration, steps.
    pub ground_outage_mean_steps: usize,
    /// Expected flap episodes per (ground, airborne) pair per day.
    pub link_flaps_per_day: f64,
    /// Mean link-flap duration, steps.
    pub link_flap_mean_steps: usize,
    /// Expected region-wide weather fronts per day.
    pub weather_fronts_per_day: f64,
    /// Mean weather-front duration, steps.
    pub weather_front_mean_steps: usize,
}

impl FaultModel {
    /// Upper bound on [`FaultModel::intensity`]; the candidate pools are
    /// sized for this cap so that intensity scaling stays a subset
    /// relation (see module docs).
    pub const INTENSITY_CAP: f64 = 8.0;

    /// The identity model: zero intensity, nothing ever fails. Compiles to
    /// a mask under which every consumer is byte-identical to the
    /// fault-free path.
    pub fn none() -> FaultModel {
        FaultModel::standard(0).with_intensity(0.0)
    }

    /// Nominal rates: a satellite loses ~1 h every fourth day, a ground
    /// station ~30 min every week, a ground-air link flaps for ~2 min a
    /// few times a week, and 1–2 weather fronts of ~2 h cross the region
    /// per day.
    pub fn standard(seed: u64) -> FaultModel {
        FaultModel {
            seed,
            intensity: 1.0,
            sat_outages_per_day: 0.25,
            sat_outage_mean_steps: 120,
            ground_outages_per_day: 0.15,
            ground_outage_mean_steps: 60,
            link_flaps_per_day: 0.3,
            link_flap_mean_steps: 4,
            weather_fronts_per_day: 1.5,
            weather_front_mean_steps: 240,
        }
    }

    /// Set the global intensity (clamped to `[0, INTENSITY_CAP]`).
    pub fn with_intensity(mut self, intensity: f64) -> FaultModel {
        assert!(
            intensity.is_finite() && intensity >= 0.0,
            "intensity must be finite and non-negative"
        );
        self.intensity = intensity.min(Self::INTENSITY_CAP);
        self
    }

    /// Compile the schedule for one simulator into a per-step mask.
    ///
    /// The expensive part is proportional to candidate-pool size × episode
    /// length, independent of how the mask is later consumed; compile once
    /// and share (the mask is immutable).
    pub fn compile(&self, sim: &QuantumNetworkSim) -> CompiledFaults {
        let n_hosts = sim.hosts().len();
        let n_steps = sim.steps();
        let days = n_steps as f64 * sim.step_s() / 86_400.0;
        let p_active = (self.intensity / Self::INTENSITY_CAP).clamp(0.0, 1.0);
        let words = n_hosts.div_ceil(64);
        let mut down = vec![0u64; n_steps * words];
        let mut flaps: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_steps];
        let mut eta = vec![1.0f64; n_steps];

        let mut mark_down = |host: usize, start: usize, len: usize| {
            for step in start..(start + len).min(n_steps) {
                down[step * words + host / 64] |= 1u64 << (host % 64);
            }
        };

        // Platform outages: one candidate pool per host, all variates drawn
        // regardless of intensity (the nesting invariant).
        let mut sat_rng = StdRng::seed_from_u64(self.seed ^ SALT_SAT);
        let mut ground_rng = StdRng::seed_from_u64(self.seed ^ SALT_GROUND);
        for (i, host) in sim.hosts().iter().enumerate() {
            let (rng, rate, mean) = if host.is_ground() {
                (
                    &mut ground_rng,
                    self.ground_outages_per_day,
                    self.ground_outage_mean_steps,
                )
            } else {
                // Satellites and HAPs share the platform-outage class.
                (
                    &mut sat_rng,
                    self.sat_outages_per_day,
                    self.sat_outage_mean_steps,
                )
            };
            for (start, len) in episodes(rng, rate, days, mean, n_steps, p_active) {
                mark_down(i, start, len);
            }
        }

        // Link flaps: every (ground, airborne) pair, ascending (a, b) —
        // the churny FSO access links (ISLs are never near threshold).
        let mut flap_rng = StdRng::seed_from_u64(self.seed ^ SALT_FLAP);
        for a in 0..n_hosts {
            for b in (a + 1)..n_hosts {
                let (ha, hb) = (&sim.hosts()[a], &sim.hosts()[b]);
                if ha.is_ground() == hb.is_ground() {
                    continue;
                }
                for (start, len) in episodes(
                    &mut flap_rng,
                    self.link_flaps_per_day,
                    days,
                    self.link_flap_mean_steps,
                    n_steps,
                    p_active,
                ) {
                    let end = (start + len).min(n_steps);
                    for list in &mut flaps[start..end] {
                        list.push((a as u32, b as u32));
                    }
                }
            }
        }
        for list in &mut flaps {
            list.sort_unstable();
            list.dedup();
        }

        // Weather fronts: region-wide η multipliers on atmosphere-crossing
        // links. Severity (a visibility draw, log-uniform from mist to
        // clear) is drawn per candidate regardless of intensity.
        let mut weather_rng = StdRng::seed_from_u64(self.seed ^ SALT_WEATHER);
        let n_cand = candidate_count(self.weather_fronts_per_day, days);
        for _ in 0..n_cand {
            let u: f64 = weather_rng.random();
            let start = weather_rng.random_range(0..n_steps);
            let len = 1 + weather_rng.random_range(0..(2 * self.weather_front_mean_steps).max(1));
            let visibility_m = (weather_rng.random_range(2_000.0f64.ln()..20_000.0f64.ln())).exp();
            if u < p_active {
                let factor = episode_eta_factor(
                    visibility_m,
                    WEATHER_WAVELENGTH_M,
                    WEATHER_EFFECTIVE_PATH_M,
                );
                for step_eta in eta.iter_mut().take((start + len).min(n_steps)).skip(start) {
                    *step_eta *= factor;
                }
            }
        }

        let identity = down.iter().all(|&w| w == 0)
            && flaps.iter().all(Vec::is_empty)
            && eta.iter().all(|&f| f == 1.0);
        CompiledFaults {
            n_hosts,
            n_steps,
            words,
            down,
            flaps,
            eta,
            identity,
            token: next_token(),
        }
    }
}

/// Number of candidates pooled so that the full `INTENSITY_CAP` keeps the
/// configured per-day rate.
fn candidate_count(rate_per_day: f64, days: f64) -> usize {
    if rate_per_day <= 0.0 {
        return 0;
    }
    (rate_per_day * days * FaultModel::INTENSITY_CAP).ceil() as usize
}

/// Draw one category's candidate episodes for one subject. Every variate
/// is drawn for every candidate — activation must not change the stream,
/// or lower intensities would stop being subsets of higher ones.
fn episodes(
    rng: &mut StdRng,
    rate_per_day: f64,
    days: f64,
    mean_steps: usize,
    n_steps: usize,
    p_active: f64,
) -> Vec<(usize, usize)> {
    let n_cand = candidate_count(rate_per_day, days);
    let mut out = Vec::new();
    for _ in 0..n_cand {
        let u: f64 = rng.random();
        let start = rng.random_range(0..n_steps);
        let len = 1 + rng.random_range(0..(2 * mean_steps).max(1));
        if u < p_active {
            out.push((start, len));
        }
    }
    out
}

/// The compiled per-step fault mask: which hosts are down, which links are
/// flapped, and the weather η multiplier, at every step. Immutable after
/// compilation; cheap to query from any thread. Equality compares the
/// mask's contents, not its identity token.
#[derive(Debug, Clone)]
pub struct CompiledFaults {
    n_hosts: usize,
    n_steps: usize,
    words: usize,
    /// `words` bitset words per step; bit h set = host h down.
    down: Vec<u64>,
    /// Per-step sorted `(a, b)` pairs (a < b) whose link is flapped.
    flaps: Vec<Vec<(u32, u32)>>,
    /// Per-step multiplicative η factor on atmosphere-crossing FSO links.
    eta: Vec<f64>,
    identity: bool,
    /// This mask's process-unique identity, drawn at construction; the
    /// time-expanded layer cache keys on it (clones share it, and share
    /// the contents).
    token: u64,
}

impl PartialEq for CompiledFaults {
    fn eq(&self, other: &CompiledFaults) -> bool {
        let CompiledFaults {
            n_hosts,
            n_steps,
            words,
            down,
            flaps,
            eta,
            identity,
            token: _,
        } = self;
        (n_hosts, n_steps, words, down, flaps, eta, identity)
            == (
                &other.n_hosts,
                &other.n_steps,
                &other.words,
                &other.down,
                &other.flaps,
                &other.eta,
                &other.identity,
            )
    }
}

impl CompiledFaults {
    /// A mask under which nothing is ever faulted.
    pub fn identity(n_hosts: usize, n_steps: usize) -> CompiledFaults {
        let words = n_hosts.div_ceil(64);
        CompiledFaults {
            n_hosts,
            n_steps,
            words,
            down: vec![0u64; n_steps * words],
            flaps: vec![Vec::new(); n_steps],
            eta: vec![1.0; n_steps],
            identity: true,
            token: next_token(),
        }
    }

    /// Host count the mask was compiled for.
    #[inline]
    pub fn hosts(&self) -> usize {
        self.n_hosts
    }

    /// Step count the mask was compiled for.
    #[inline]
    pub fn steps(&self) -> usize {
        self.n_steps
    }

    /// Does this mask fault nothing at all? (Zero intensity, or a non-zero
    /// intensity that happened to activate no candidate.)
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Is host `h` up (not in an outage window) at `step`?
    #[inline]
    pub fn host_up(&self, step: usize, h: usize) -> bool {
        (self.down[step * self.words + h / 64] >> (h % 64)) & 1 == 0
    }

    /// Is the (a, b) link itself flapped at `step`? (Host outages are
    /// accounted separately; see [`CompiledFaults::edge_up`].)
    #[inline]
    pub fn link_flapped(&self, step: usize, a: usize, b: usize) -> bool {
        let key = if a <= b {
            (a as u32, b as u32)
        } else {
            (b as u32, a as u32)
        };
        self.flaps[step].binary_search(&key).is_ok()
    }

    /// Can the (a, b) edge exist at `step`? Both endpoints up and the link
    /// not flapped. A downed host loses *all* incident edges, fiber
    /// included.
    #[inline]
    pub fn edge_up(&self, step: usize, a: usize, b: usize) -> bool {
        self.host_up(step, a) && self.host_up(step, b) && !self.link_flapped(step, a, b)
    }

    /// The weather multiplier on atmosphere-crossing (ground-endpoint) FSO
    /// links at `step`; 1.0 when no front is active.
    #[inline]
    pub fn eta_factor(&self, step: usize) -> f64 {
        self.eta[step]
    }

    /// Hosts in an outage window at `step`.
    #[inline]
    pub fn hosts_down_at(&self, step: usize) -> usize {
        self.down[step * self.words..(step + 1) * self.words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The per-step health signal in `[0, 1]`: the up-host fraction scaled
    /// by the weather η factor (`1.0` = fully healthy). Because outage
    /// windows and weather fronts nest across intensities (see the module
    /// docs), health is monotone non-increasing in fault intensity at
    /// every step — the property the serve layer's degradation ladder
    /// leans on.
    pub fn step_health(&self, step: usize) -> f64 {
        let up = 1.0 - self.hosts_down_at(step) as f64 / self.n_hosts.max(1) as f64;
        up * self.eta[step]
    }

    /// Total (host, step) downtime cells — a load indicator for reports.
    pub fn host_down_steps(&self) -> usize {
        self.down.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Total (pair, step) flap cells.
    pub fn flap_entries(&self) -> usize {
        self.flaps.iter().map(Vec::len).sum()
    }

    /// The worst per-step weather factor over the window.
    pub fn min_eta_factor(&self) -> f64 {
        self.eta.iter().copied().fold(1.0, f64::min)
    }

    /// The process-unique identity of this mask's contents.
    #[inline]
    pub(crate) fn token(&self) -> u64 {
        self.token
    }

    /// Test support: force `host` down at `step` in a hand-crafted mask.
    /// The changed contents get a fresh token.
    #[cfg(test)]
    pub(crate) fn force_host_down(&mut self, step: usize, host: usize) {
        self.down[step * self.words + host / 64] |= 1u64 << (host % 64);
        self.identity = false;
        self.token = next_token();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;
    use crate::linkeval::SimConfig;
    use qntn_geo::{Epoch, Geodetic};
    use qntn_orbit::{paper_constellation, Ephemeris, PerturbationModel, Propagator};

    fn sim(n_sats: usize, steps: usize) -> QuantumNetworkSim {
        let props: Vec<Propagator> = paper_constellation(n_sats)
            .into_iter()
            .map(|k| Propagator::new(k, Epoch::J2000, PerturbationModel::TwoBody))
            .collect();
        let ephs = Ephemeris::generate_many(&props, Epoch::J2000, 30.0, steps as f64 * 30.0);
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
        for (i, eph) in ephs.into_iter().enumerate() {
            hosts.push(Host::satellite(format!("SAT-{i:03}"), eph, 1.2));
        }
        QuantumNetworkSim::new(hosts, SimConfig::default(), steps, 30.0)
    }

    #[test]
    fn compile_is_deterministic() {
        let s = sim(4, 200);
        let model = FaultModel::standard(42).with_intensity(2.0);
        assert_eq!(model.compile(&s), model.compile(&s));
        let other = FaultModel::standard(43).with_intensity(2.0);
        assert_ne!(model.compile(&s), other.compile(&s));
    }

    #[test]
    fn zero_intensity_compiles_to_identity() {
        let s = sim(3, 100);
        for seed in [0, 1, 987654321] {
            let f = FaultModel::standard(seed).with_intensity(0.0).compile(&s);
            assert!(f.is_identity());
            assert_eq!(f.host_down_steps(), 0);
            assert_eq!(f.flap_entries(), 0);
            assert_eq!(f.min_eta_factor(), 1.0);
            assert_eq!(f, CompiledFaults::identity(s.hosts().len(), s.steps()));
        }
        assert!(FaultModel::none().compile(&s).is_identity());
    }

    #[test]
    fn higher_intensity_schedules_contain_lower_ones() {
        // The monotonicity invariant: every fault active at intensity x is
        // active at intensity y >= x, and weather is pointwise harsher.
        let s = sim(5, 400);
        for seed in [7, 2024, 31337] {
            let lo = FaultModel::standard(seed).with_intensity(0.7).compile(&s);
            let hi = FaultModel::standard(seed).with_intensity(3.5).compile(&s);
            for step in 0..s.steps() {
                for h in 0..s.hosts().len() {
                    if !lo.host_up(step, h) {
                        assert!(
                            !hi.host_up(step, h),
                            "host {h} down set not nested at {step}"
                        );
                    }
                }
                for &(a, b) in &lo.flaps[step] {
                    assert!(
                        hi.link_flapped(step, a as usize, b as usize),
                        "flap set not nested at {step}"
                    );
                }
                assert!(
                    hi.eta_factor(step) <= lo.eta_factor(step) + 1e-15,
                    "weather not pointwise harsher at {step}"
                );
            }
        }
    }

    #[test]
    fn nominal_intensity_produces_faults() {
        let s = sim(6, 2880);
        let f = FaultModel::standard(11).compile(&s);
        assert!(!f.is_identity());
        assert!(f.host_down_steps() > 0, "expected some platform downtime");
        assert!(f.min_eta_factor() < 1.0, "expected at least one front");
        assert!(f.min_eta_factor() > 0.0);
    }

    #[test]
    fn edge_up_combines_hosts_and_flaps() {
        let s = sim(2, 50);
        let mut f = CompiledFaults::identity(s.hosts().len(), s.steps());
        // Hand-craft: host 0 down at step 3; link (1, 4) flapped at step 5.
        f.down[3 * f.words] |= 1;
        f.flaps[5].push((1, 4));
        f.identity = false;
        assert!(!f.host_up(3, 0));
        assert!(f.host_up(3, 1));
        assert!(!f.edge_up(3, 0, 1), "downed endpoint kills the edge");
        assert!(!f.edge_up(3, 1, 0), "order-insensitive");
        assert!(f.edge_up(4, 0, 1));
        assert!(!f.edge_up(5, 4, 1), "flap kills exactly that pair");
        assert!(f.edge_up(5, 1, 3));
    }

    #[test]
    fn intensity_is_clamped_to_cap() {
        let m = FaultModel::standard(1).with_intensity(1e6);
        assert_eq!(m.intensity, FaultModel::INTENSITY_CAP);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_intensity() {
        let _ = FaultModel::standard(1).with_intensity(-0.5);
    }

    #[test]
    fn weather_factors_are_physical() {
        let s = sim(3, 2880);
        let f = FaultModel::standard(5)
            .with_intensity(FaultModel::INTENSITY_CAP)
            .compile(&s);
        for step in 0..s.steps() {
            let w = f.eta_factor(step);
            assert!((0.0..=1.0).contains(&w), "step {step}: {w}");
        }
        // At the cap every candidate front is active; the worst step should
        // be well below clear-sky.
        assert!(f.min_eta_factor() < 0.9, "{}", f.min_eta_factor());
    }

    #[test]
    fn more_than_64_hosts_are_supported() {
        // The bitset is multi-word: 3 ground + 70 satellites = 73 hosts.
        let s = sim(70, 40);
        let f = FaultModel::standard(9)
            .with_intensity(FaultModel::INTENSITY_CAP)
            .compile(&s);
        assert_eq!(f.hosts(), 73);
        // Some host above bit 63 must go down at the cap with 70 sats.
        let high_host_down = (0..s.steps()).any(|t| (64..73).any(|h| !f.host_up(t, h)));
        assert!(high_host_down, "no outage landed in the second bitset word");
    }
}
