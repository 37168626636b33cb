//! Per-satellite LAN visibility — the shared substrate of the Fig. 6 sweep.
//!
//! For the coverage-vs-N figure the full simulator is overkill: what
//! decides connectivity is, per (satellite, time step, LAN), whether the
//! satellite has a link **above threshold** to at least one node of the
//! LAN. This module computes that boolean cube once for the full 108-
//! satellite constellation (rayon over satellites) and then answers
//! coverage queries for every prefix size N by union-find over the bipartite
//! LAN–satellite graph — which also captures multi-bounce paths
//! (LAN→sat→LAN→sat→LAN), exactly like component analysis on the full
//! simulator graph.
//!
//! The only paths this abstraction cannot see are inter-satellite links.
//! ISLs only reach the 0.7 threshold inside the vacuum diffraction budget
//! (~1150 km), which at the paper's spacing happens only briefly around
//! plane crossings between satellites whose ground footprints almost
//! completely overlap — so they add no LAN connectivity, and the fast path
//! agrees with the full simulator (both asserted by the workspace
//! integration tests).

use crate::scenario::Qntn;
use qntn_geo::Geodetic;
use qntn_net::{ContactWindows, Host, LinkEvaluator, SimConfig};
use qntn_orbit::Ephemeris;
use rayon::prelude::*;

/// The (satellite × step × LAN) qualification cube.
#[derive(Debug, Clone)]
pub struct LanVisibility {
    n_sats: usize,
    n_steps: usize,
    n_lans: usize,
    /// `qualifies[(sat * n_steps + step) * n_lans + lan]`.
    qualifies: Vec<bool>,
}

impl LanVisibility {
    /// Compute the cube for `ephemerides` against the scenario's LANs
    /// (parallel over satellites).
    pub fn compute(scenario: &Qntn, config: SimConfig, ephemerides: &[Ephemeris]) -> LanVisibility {
        let n_lans = scenario.lans.len();
        let n_sats = ephemerides.len();
        let n_steps = ephemerides.first().map_or(0, Ephemeris::len);
        let threshold = config.threshold;

        // Ground hosts per LAN (aperture 1.2 m, the paper's ground set).
        let ground: Vec<Vec<Host>> = scenario
            .lans
            .iter()
            .enumerate()
            .map(|(lan_id, lan)| {
                lan.nodes
                    .iter()
                    .map(|&pos| Host::ground("g", lan_id, pos, 1.2))
                    .collect()
            })
            .collect();

        // Contact windows over the flattened ground set: a satellite below a
        // site's horizon can never qualify, so the evaluator call is skipped
        // there (the windows' elevation ≥ 0 flags are a proven superset of
        // the evaluator's elevation > 0 requirement).
        let sites: Vec<Geodetic> = scenario
            .lans
            .iter()
            .flat_map(|lan| lan.nodes.iter().copied())
            .collect();
        let lan_base: Vec<usize> = scenario
            .lans
            .iter()
            .scan(0, |acc, lan| {
                let base = *acc;
                *acc += lan.nodes.len();
                Some(base)
            })
            .collect();
        let eph_refs: Vec<&Ephemeris> = ephemerides.iter().collect();
        let windows = ContactWindows::compute(&sites, &eph_refs, n_steps);

        // One evaluator derived from the same host set the full simulator
        // uses, so the Rytov altitude classes match `graph_at` exactly.
        let all_hosts: Vec<Host> = ground
            .iter()
            .flatten()
            .cloned()
            .chain(
                ephemerides
                    .iter()
                    .map(|e| Host::satellite("s", e.clone(), 1.2)),
            )
            .collect();
        let evaluator = LinkEvaluator::for_hosts(config, &all_hosts);

        let per_sat = |sat_idx: usize| {
            let sat = Host::satellite("s", ephemerides[sat_idx].clone(), 1.2);
            let mut flags = Vec::with_capacity(n_steps * n_lans);
            for step in 0..n_steps {
                for (lan, members) in ground.iter().enumerate() {
                    let base = lan_base[lan];
                    let hit = members.iter().enumerate().any(|(k, g)| {
                        windows.visible(sat_idx, step, base + k)
                            && evaluator
                                .fso_eta(g, &sat, step)
                                .is_some_and(|eta| eta >= threshold)
                    });
                    flags.push(hit);
                }
            }
            flags
        };
        let qualifies: Vec<bool> = (0..n_sats).into_par_iter().flat_map_iter(per_sat).collect();

        LanVisibility {
            n_sats,
            n_steps,
            n_lans,
            qualifies,
        }
    }

    /// Does satellite `sat` qualify to LAN `lan` at `step`?
    #[inline]
    pub fn qualifies(&self, sat: usize, step: usize, lan: usize) -> bool {
        self.qualifies[(sat * self.n_steps + step) * self.n_lans + lan]
    }

    /// Number of time steps in the cube.
    #[inline]
    pub fn steps(&self) -> usize {
        self.n_steps
    }

    /// Number of satellites in the cube.
    #[inline]
    pub fn satellites(&self) -> usize {
        self.n_sats
    }

    /// Per-step "all LANs interconnected" flags using only the first `n`
    /// satellites (the paper's incremental constellation prefix).
    pub fn coverage_flags(&self, n: usize) -> Vec<bool> {
        assert!(n <= self.n_sats, "prefix larger than cube");
        (0..self.n_steps)
            .map(|step| self.step_interconnected(step, n))
            .collect()
    }

    /// Union-find over {LANs} ∪ {first n satellites} with edges where a
    /// satellite qualifies to a LAN; connected ⇔ all LANs share a root.
    fn step_interconnected(&self, step: usize, n: usize) -> bool {
        let mut parent: Vec<usize> = (0..self.n_lans + n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for sat in 0..n {
            for lan in 0..self.n_lans {
                if self.qualifies(sat, step, lan) {
                    let a = find(&mut parent, lan);
                    let b = find(&mut parent, self.n_lans + sat);
                    parent[a] = b;
                }
            }
        }
        let root0 = find(&mut parent, 0);
        (1..self.n_lans).all(|lan| find(&mut parent, lan) == root0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::architecture::SpaceGround;
    use qntn_orbit::PerturbationModel;

    fn small_cube() -> (Qntn, LanVisibility) {
        let q = Qntn::standard();
        let eph = SpaceGround::ephemerides(12, PerturbationModel::TwoBody);
        let cube = LanVisibility::compute(&q, SimConfig::default(), &eph);
        (q, cube)
    }

    #[test]
    fn cube_dimensions() {
        let (_, cube) = small_cube();
        assert_eq!(cube.satellites(), 12);
        assert_eq!(cube.steps(), 2880);
    }

    #[test]
    fn coverage_flags_are_monotone_in_n() {
        // More satellites can only add connectivity.
        let (_, cube) = small_cube();
        let f6 = cube.coverage_flags(6);
        let f12 = cube.coverage_flags(12);
        for (step, (a, b)) in f6.iter().zip(&f12).enumerate() {
            assert!(
                !a || *b,
                "coverage lost when adding satellites at step {step}"
            );
        }
    }

    #[test]
    fn zero_satellites_means_no_coverage() {
        let (_, cube) = small_cube();
        assert!(cube.coverage_flags(0).iter().all(|&c| !c));
    }

    #[test]
    fn agrees_with_full_simulator() {
        // The fast path and the full graph componentry must agree wherever
        // ISL paths don't exist — which at the paper's spacing is everywhere
        // (see `isl_never_qualifies` in the integration tests).
        let (q, cube) = small_cube();
        let arch = SpaceGround::new(&q, 12, SimConfig::default(), PerturbationModel::TwoBody);
        let flags = cube.coverage_flags(12);
        for step in (0..2880).step_by(240) {
            let g = arch.sim().active_graph_at(step);
            let full = arch.sim().lans_interconnected(&g);
            assert_eq!(flags[step], full, "step {step}");
        }
    }

    #[test]
    fn union_find_handles_multi_bounce() {
        // Construct a synthetic cube: sat0 sees LANs {0,1}, sat1 sees {1,2}.
        // No satellite sees all three, but the LAN graph is connected via
        // LAN 1.
        // 2 sats × 1 step × 3 LANs.
        let mut qualifies = vec![false; 2 * 3];
        // sat0, step0: lans 0 and 1
        qualifies[0] = true;
        qualifies[1] = true;
        // sat1, step0: lans 1 and 2
        qualifies[3 + 1] = true;
        qualifies[3 + 2] = true;
        let cube = LanVisibility {
            n_sats: 2,
            n_steps: 1,
            n_lans: 3,
            qualifies,
        };
        assert!(
            cube.coverage_flags(2)[0],
            "multi-bounce connectivity must count"
        );
        assert!(
            !cube.coverage_flags(1)[0],
            "one satellite alone is not enough"
        );
    }
}
