//! Fig. 6 — coverage percentage of the space–ground network vs the number
//! of satellites (6, 12, …, 108 over one day).
//!
//! The constellation grows by prefix (Table II), so one sweep engine over
//! the largest shell serves every size. Each link of a step's thresholded
//! graph is a function of its two endpoints (the paper's shell is one Rytov
//! altitude class), so the graph of the first `n` satellites is the edges
//! whose satellite endpoints all sit in rows below `n`. Adding a step's
//! edges to a union-find in order of their highest satellite row finds the
//! fewest leading satellites that interconnect every LAN pair, by
//! [`QuantumNetworkSim::lans_interconnected`]'s rule; size `n` covers the
//! step when that count is at most `n`.

use crate::architecture::SpaceGround;
use crate::experiments::paper_constellation_sizes;
use crate::scenario::Qntn;
use qntn_net::{CoverageAnalyzer, CoverageReport, QuantumNetworkSim, SimConfig, SweepEngine};
use qntn_orbit::ephemeris::PAPER_STEP_S;
use qntn_orbit::PerturbationModel;
use qntn_routing::Graph;
use serde::{Deserialize, Serialize};

/// One row of the Fig. 6 series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoveragePoint {
    pub satellites: usize,
    pub coverage_percent: f64,
    pub coverage_minutes: f64,
    pub intervals: usize,
}

/// The whole sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoverageSweep {
    pub points: Vec<CoveragePoint>,
}

impl CoverageSweep {
    /// Run the paper's sweep (6..108 step 6, one day at 30 s cadence).
    pub fn paper(scenario: &Qntn, config: SimConfig) -> CoverageSweep {
        Self::run(
            scenario,
            config,
            &paper_constellation_sizes(),
            PerturbationModel::TwoBody,
        )
    }

    /// Run for arbitrary sizes / force model. One full-day engine over the
    /// largest shell serves every size (see the module docs).
    pub fn run(
        scenario: &Qntn,
        config: SimConfig,
        sizes: &[usize],
        model: PerturbationModel,
    ) -> CoverageSweep {
        let max_n = sizes.iter().copied().max().unwrap_or(0);
        let arch = SpaceGround::new(scenario, max_n, config, model);
        let needed = leading_satellites_needed(&SweepEngine::new(arch.sim()));
        let points = sizes
            .iter()
            .map(|&n| {
                let flags = needed.iter().map(|c| c.is_some_and(|c| c <= n)).collect();
                let report = CoverageAnalyzer::from_flags(flags, PAPER_STEP_S);
                CoveragePoint {
                    satellites: n,
                    coverage_percent: report.percent(),
                    coverage_minutes: report.coverage_minutes(),
                    intervals: report.interval_count(),
                }
            })
            .collect();
        CoverageSweep { points }
    }

    /// Coverage of the largest constellation in the sweep.
    pub fn final_point(&self) -> &CoveragePoint {
        self.points.last().expect("sweep is never empty")
    }

    /// The air-ground reference report: full coverage by construction
    /// (validated against the simulator in the comparison experiment).
    pub fn air_ground_reference(steps: usize) -> CoverageReport {
        CoverageAnalyzer::from_flags(vec![true; steps], PAPER_STEP_S)
    }
}

/// Per step of `engine`'s day, the fewest leading satellites (in host
/// order) whose links interconnect every LAN pair, or `None` when the
/// whole shell does not.
fn leading_satellites_needed(engine: &SweepEngine<'_>) -> Vec<Option<usize>> {
    let sim = engine.sim();
    let rows = satellite_rows(sim);
    let lans: Vec<&[usize]> = (0..sim.lan_count()).map(|l| sim.lan_members(l)).collect();
    let steps: Vec<usize> = (0..sim.steps()).collect();
    engine.map_steps(&steps, |scratch, step| {
        engine.active_graph_into(step, scratch);
        fewest_leading_rows(&scratch.active, &rows, &lans)
    })
}

/// Each host's satellite row: `k + 1` for the `k`-th satellite in host
/// order, 0 for every other host.
fn satellite_rows(sim: &QuantumNetworkSim) -> Vec<usize> {
    let mut satellites = 0;
    sim.hosts()
        .iter()
        .map(|h| {
            if h.is_satellite() {
                satellites += 1;
                satellites
            } else {
                0
            }
        })
        .collect()
}

/// The least `n` such that `graph`'s edges between hosts of row at most
/// `n` interconnect every pair of `lans` (some member of one shares a
/// component with some member of the other), or `None` when all of
/// `graph` does not.
fn fewest_leading_rows(graph: &Graph, rows: &[usize], lans: &[&[usize]]) -> Option<usize> {
    let mut edges: Vec<(usize, usize, usize)> = graph
        .edges()
        .map(|(u, v, _)| (rows[u].max(rows[v]), u, v))
        .collect();
    edges.sort_unstable();
    let mut sets = UnionFind::new(graph.node_count());
    if sets.interconnects(lans) {
        return Some(0);
    }
    for group in edges.chunk_by(|a, b| a.0 == b.0) {
        let mut merged = false;
        for &(_, u, v) in group {
            merged |= sets.union(u, v);
        }
        if merged && sets.interconnects(lans) {
            return Some(group[0].0);
        }
    }
    None
}

/// Disjoint sets over graph nodes, with path halving.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Join the sets of `a` and `b`; true when they were apart.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra] = rb;
        ra != rb
    }

    /// [`QuantumNetworkSim::lans_interconnected`]'s rule on these sets.
    fn interconnects(&mut self, lans: &[&[usize]]) -> bool {
        let roots: Vec<Vec<usize>> = lans
            .iter()
            .map(|members| members.iter().map(|&m| self.find(m)).collect())
            .collect();
        roots.iter().enumerate().all(|(i, a)| {
            roots[i + 1..]
                .iter()
                .all(|b| a.iter().any(|root| b.contains(root)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qntn_net::ContactWindows;

    /// A reduced sweep (shared by several assertions because the full
    /// 108-satellite day is the expensive part of the suite).
    fn small_sweep() -> CoverageSweep {
        CoverageSweep::run(
            &Qntn::standard(),
            SimConfig::default(),
            &[6, 18, 36],
            PerturbationModel::TwoBody,
        )
    }

    #[test]
    fn coverage_grows_with_constellation_size() {
        let s = small_sweep();
        assert_eq!(s.points.len(), 3);
        for w in s.points.windows(2) {
            assert!(
                w[1].coverage_percent >= w[0].coverage_percent,
                "{} sats: {}%, {} sats: {}%",
                w[0].satellites,
                w[0].coverage_percent,
                w[1].satellites,
                w[1].coverage_percent
            );
        }
        // Small constellations cover only a small slice of the day.
        assert!(
            s.points[0].coverage_percent < 30.0,
            "{}",
            s.points[0].coverage_percent
        );
    }

    #[test]
    fn minutes_and_percent_consistent() {
        for p in &small_sweep().points {
            assert!((p.coverage_minutes - p.coverage_percent / 100.0 * 1440.0).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_satellites_means_no_coverage() {
        let s = CoverageSweep::run(
            &Qntn::standard(),
            SimConfig::default(),
            &[0, 6],
            PerturbationModel::TwoBody,
        );
        assert_eq!(s.points[0].coverage_percent, 0.0);
        assert!(s.points[1].coverage_percent > 0.0, "{s:?}");
    }

    #[test]
    fn prefix_flags_match_each_sizes_own_engine() {
        let q = Qntn::standard();
        let config = SimConfig::default();
        let ephemerides = SpaceGround::ephemerides(18, PerturbationModel::TwoBody);
        let shell = SpaceGround::from_ephemerides(&q, ephemerides.clone(), config);
        let windows = ContactWindows::for_sim(shell.sim());
        let needed = leading_satellites_needed(&SweepEngine::new(shell.sim()));
        for n in [6, 12, 18] {
            let arch = SpaceGround::from_ephemerides(&q, ephemerides[..n].to_vec(), config);
            let own = SweepEngine::with_windows(arch.sim(), windows.prefix(n)).connectivity_flags();
            assert!(own.contains(&true), "{n} satellites cover no step");
            let prefix: Vec<bool> = needed.iter().map(|c| c.is_some_and(|c| c <= n)).collect();
            assert_eq!(prefix, own, "{n} satellites");
        }
    }

    /// One ground node per LAN in hosts `0..lans`, then one satellite per
    /// row: `(rows, lans)` for [`fewest_leading_rows`].
    fn one_node_lans(lans: usize, satellites: usize) -> (Vec<usize>, Vec<Vec<usize>>) {
        let rows = (0..lans).map(|_| 0).chain(1..=satellites).collect();
        (rows, (0..lans).map(|l| vec![l]).collect())
    }

    fn needed(graph: &Graph, rows: &[usize], lans: &[Vec<usize>]) -> Option<usize> {
        let lans: Vec<&[usize]> = lans.iter().map(Vec::as_slice).collect();
        fewest_leading_rows(graph, rows, &lans)
    }

    #[test]
    fn union_find_handles_multi_bounce() {
        // Satellite 0 (host 3) sees LANs {0, 1} and satellite 1 (host 4)
        // sees {1, 2}: no satellite sees all three, but LAN 1 bridges them.
        let (rows, lans) = one_node_lans(3, 2);
        let mut g = Graph::with_nodes(5);
        for (lan, sat) in [(0, 3), (1, 3), (1, 4), (2, 4)] {
            g.set_edge(lan, sat, 0.9);
        }
        assert_eq!(needed(&g, &rows, &lans), Some(2));
    }

    #[test]
    fn an_isl_counts_from_its_higher_row() {
        // Satellite 0 (host 3) sees LANs 0 and 1, satellite 1 (host 4)
        // sees LAN 2, and both reach satellite 2 (host 5) only by ISL: the
        // path exists from the three-satellite prefix on, not before.
        let (rows, lans) = one_node_lans(3, 3);
        let mut g = Graph::with_nodes(6);
        for (a, b) in [(0, 3), (1, 3), (2, 4), (3, 5), (4, 5)] {
            g.set_edge(a, b, 0.9);
        }
        assert_eq!(needed(&g, &rows, &lans), Some(3));
        g.remove_edge(4, 5);
        assert_eq!(needed(&g, &rows, &lans), None);
    }

    #[test]
    fn a_lan_split_by_missing_fiber_does_not_bridge() {
        // LAN 0 is hosts 0 and 1, LANs 1 and 2 are hosts 2 and 3, and
        // satellites 0 and 1 are hosts 4 and 5. Satellite 0 links host 0
        // with LAN 1 and satellite 1 links host 1 with LAN 2, so LAN 0
        // reaches both; LANs 1 and 2 meet only through LAN 0's fiber.
        let rows = [0, 0, 0, 0, 1, 2];
        let lans = [vec![0, 1], vec![2], vec![3]];
        let mut g = Graph::with_nodes(6);
        for (a, b) in [(0, 4), (2, 4), (1, 5), (3, 5)] {
            g.set_edge(a, b, 0.9);
        }
        assert_eq!(needed(&g, &rows, &lans), None);
        g.set_edge(0, 1, 0.99);
        assert_eq!(needed(&g, &rows, &lans), Some(2));
    }

    #[test]
    fn no_path_needs_more_than_the_shell() {
        // Only LANs 0 and 1 are reachable; LAN 2 never is.
        let (rows, lans) = one_node_lans(3, 2);
        let mut g = Graph::with_nodes(5);
        for (a, b) in [(0, 3), (1, 3), (1, 4)] {
            g.set_edge(a, b, 0.9);
        }
        assert_eq!(needed(&g, &rows, &lans), None);
        assert_eq!(needed(&Graph::with_nodes(5), &rows, &lans), None);
        // One LAN has no pair to connect.
        assert_eq!(needed(&Graph::with_nodes(5), &rows, &lans[..1]), Some(0));
    }

    #[test]
    fn air_ground_reference_is_full_day() {
        let r = CoverageSweep::air_ground_reference(2880);
        assert!((r.percent() - 100.0).abs() < 1e-12);
        assert!((r.coverage_minutes() - 1440.0).abs() < 1e-9);
    }
}
