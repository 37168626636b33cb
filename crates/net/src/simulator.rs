//! The time-stepped network simulator.
//!
//! Holds the host set, precomputes the static fiber mesh (ground nodes of
//! one LAN are pairwise fibered — at campus scales every fiber link is far
//! above threshold, so the LAN-internal topology choice is immaterial), and
//! materializes the transmissivity graph at any time step. Satellite links
//! connect and disconnect as the constellation moves, exactly as in the
//! paper's Section IV: "connections and disconnections of satellite links
//! are dynamically updated based on this transmissivity threshold".

use crate::faults::CompiledFaults;
use crate::host::{Host, HostKind, LanId};
use crate::linkeval::{LinkEvaluator, SimConfig};
use crate::pipeline::{build_topology, LinkMap, Scene};
use qntn_common::StepId;
use qntn_routing::Graph;

/// A complete simulation instance.
#[derive(Debug, Clone)]
pub struct QuantumNetworkSim {
    hosts: Vec<Host>,
    evaluator: LinkEvaluator,
    fiber_edges: Vec<(usize, usize, f64)>,
    lans: Vec<Vec<usize>>,
    steps: usize,
    step_s: f64,
    /// The unpruned (all-visible) scene the naive `graph_at*` family views
    /// the simulation through. Engines build their own window-pruned scene.
    scene: Scene,
}

impl QuantumNetworkSim {
    /// Assemble a simulator.
    ///
    /// `steps` × `step_s` is the simulated window (the paper: 2880 × 30 s).
    ///
    /// # Panics
    /// Panics when `config` fails [`SimConfig::validate`], or when a
    /// satellite's movement sheet is shorter than `steps` or uses a
    /// different cadence.
    pub fn new(hosts: Vec<Host>, config: SimConfig, steps: usize, step_s: f64) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid SimConfig: {e}");
        }
        assert!(steps > 0, "need at least one time step");
        for h in &hosts {
            if let HostKind::Satellite { ephemeris } = &h.kind {
                assert!(
                    ephemeris.len() >= steps,
                    "{}: movement sheet has {} samples, need {steps}",
                    h.name,
                    ephemeris.len()
                );
                assert!(
                    (ephemeris.step_s() - step_s).abs() < 1e-9,
                    "{}: movement sheet cadence {} != simulator cadence {step_s}",
                    h.name,
                    ephemeris.step_s()
                );
            }
        }
        let evaluator = LinkEvaluator::for_hosts(config, &hosts);

        // LAN membership map.
        let max_lan = hosts
            .iter()
            .filter_map(Host::lan)
            .max()
            .map_or(0, |m| m + 1);
        let mut lans: Vec<Vec<usize>> = vec![Vec::new(); max_lan];
        for (i, h) in hosts.iter().enumerate() {
            if let Some(lan) = h.lan() {
                lans[lan].push(i);
            }
        }

        // Static fiber mesh: all same-LAN ground pairs.
        let mut fiber_edges = Vec::new();
        for members in &lans {
            for (a_idx, &a) in members.iter().enumerate() {
                for &b in &members[a_idx + 1..] {
                    let eta = evaluator.fiber_eta(hosts[a].geodetic_at(0), hosts[b].geodetic_at(0));
                    fiber_edges.push((a, b, eta));
                }
            }
        }

        let scene = Scene::unpruned(&hosts, &evaluator, steps);

        QuantumNetworkSim {
            hosts,
            evaluator,
            fiber_edges,
            lans,
            steps,
            step_s,
            scene,
        }
    }

    /// All hosts (graph node id = index).
    #[inline]
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// Number of time steps.
    #[inline]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Step duration, seconds.
    #[inline]
    pub fn step_s(&self) -> f64 {
        self.step_s
    }

    /// Number of LANs.
    #[inline]
    pub fn lan_count(&self) -> usize {
        self.lans.len()
    }

    /// Node ids of one LAN's members.
    #[inline]
    pub fn lan_members(&self, lan: LanId) -> &[usize] {
        &self.lans[lan]
    }

    /// The link evaluator (for budget inspection).
    #[inline]
    pub fn evaluator(&self) -> &LinkEvaluator {
        &self.evaluator
    }

    /// The precomputed static fiber mesh as `(a, b, eta)` triples, in the
    /// insertion order [`QuantumNetworkSim::graph_at`] uses.
    #[inline]
    pub fn fiber_edges(&self) -> &[(usize, usize, f64)] {
        &self.fiber_edges
    }

    /// The unpruned [`Scene`] this simulator views itself through.
    #[inline]
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// The full transmissivity graph at a time step (no threshold applied).
    ///
    /// Thin wrapper over the shared Scene → LinkMap → Topology pipeline
    /// ([`crate::pipeline::build_topology_into`]).
    pub fn graph_at(&self, step: usize) -> Graph {
        build_topology(&LinkMap::new(self, &self.scene, None), StepId::from(step))
    }

    /// The threshold-gated graph at a time step — the network the paper's
    /// routing actually sees.
    pub fn active_graph_at(&self, step: usize) -> Graph {
        self.graph_at(step)
            .thresholded(self.evaluator.config().threshold)
    }

    /// [`QuantumNetworkSim::graph_at`] under a compiled fault mask: edges
    /// with a downed endpoint or a flapped link are withheld, and
    /// atmosphere-crossing FSO links (≥ 1 ground endpoint) are scaled by
    /// the step's weather η factor. Insertion order is identical to the
    /// clean path, and a weather factor of exactly 1.0 is a bitwise no-op
    /// (`x * 1.0 ≡ x` for finite floats), so an identity mask reproduces
    /// [`QuantumNetworkSim::graph_at`] bit for bit.
    ///
    /// This was the naive per-step reference the window-pruned
    /// [`crate::SweepEngine`] used to be differentially tested against;
    /// both now delegate to the same pipeline, so equality holds by
    /// construction (the old differential tests are kept as regression).
    ///
    /// # Panics
    /// Panics when `faults` was compiled for a different host count or
    /// time span.
    pub fn graph_at_with_faults(&self, step: usize, faults: &CompiledFaults) -> Graph {
        build_topology(
            &LinkMap::new(self, &self.scene, Some(faults)),
            StepId::from(step),
        )
    }

    /// [`QuantumNetworkSim::active_graph_at`] under a compiled fault mask.
    pub fn active_graph_at_with_faults(&self, step: usize, faults: &CompiledFaults) -> Graph {
        self.graph_at_with_faults(step, faults)
            .thresholded(self.evaluator.config().threshold)
    }

    /// True when every pair of LANs is connected in `graph` (via any path).
    pub fn lans_interconnected(&self, graph: &Graph) -> bool {
        let labels = graph.components();
        for i in 0..self.lans.len() {
            for j in (i + 1)..self.lans.len() {
                let pair_connected = self.lans[i]
                    .iter()
                    .any(|&a| self.lans[j].iter().any(|&b| labels[a] == labels[b]));
                if !pair_connected {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qntn_geo::{Epoch, Geodetic};
    use qntn_orbit::{paper_constellation, Ephemeris, PerturbationModel, Propagator};

    /// Two tiny LANs ~120 km apart plus a HAP between them.
    fn hap_sim() -> QuantumNetworkSim {
        let hosts = vec![
            Host::ground("A-0", 0, Geodetic::from_deg(36.1757, -85.5066, 300.0), 1.2),
            Host::ground("A-1", 0, Geodetic::from_deg(36.1751, -85.5067, 300.0), 1.2),
            Host::ground("B-0", 1, Geodetic::from_deg(35.91, -84.3, 250.0), 1.2),
            Host::ground("B-1", 1, Geodetic::from_deg(35.918, -84.304, 250.0), 1.2),
            Host::hap("HAP", Geodetic::from_deg(35.6692, -85.0662, 30_000.0), 0.3),
        ];
        QuantumNetworkSim::new(hosts, SimConfig::default(), 10, 30.0)
    }

    fn sat_sim(n_sats: usize, steps: usize) -> QuantumNetworkSim {
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
    fn fiber_mesh_is_intra_lan_only() {
        let sim = hap_sim();
        let g = sim.graph_at(0);
        assert!(g.has_edge(0, 1), "A-LAN internal fiber");
        assert!(g.has_edge(2, 3), "B-LAN internal fiber");
        assert!(
            !g.has_edge(0, 2),
            "no inter-LAN fiber, no ground-ground FSO"
        );
    }

    #[test]
    fn hap_links_all_ground_nodes() {
        let sim = hap_sim();
        let g = sim.active_graph_at(0);
        for node in 0..4 {
            assert!(g.has_edge(node, 4), "HAP -> node {node} above threshold");
        }
        assert!(sim.lans_interconnected(&g));
    }

    #[test]
    fn hap_connectivity_is_time_invariant() {
        let sim = hap_sim();
        let g0 = sim.active_graph_at(0);
        let g9 = sim.active_graph_at(9);
        assert_eq!(g0.edge_count(), g9.edge_count());
        for step in 0..10 {
            assert!(sim.lans_interconnected(&sim.active_graph_at(step)));
        }
    }

    #[test]
    fn lan_membership() {
        let sim = hap_sim();
        assert_eq!(sim.lan_count(), 2);
        assert_eq!(sim.lan_members(0), &[0, 1]);
        assert_eq!(sim.lan_members(1), &[2, 3]);
    }

    #[test]
    fn satellite_graph_changes_over_time() {
        let sim = sat_sim(12, 120);
        let counts: Vec<usize> = (0..120)
            .step_by(10)
            .map(|t| sim.active_graph_at(t).edge_count())
            .collect();
        // Link census must vary as satellites move (not constant).
        assert!(
            counts.windows(2).any(|w| w[0] != w[1]),
            "satellite links never changed: {counts:?}"
        );
    }

    #[test]
    fn without_satellites_lans_are_disconnected() {
        let sim = sat_sim(6, 2);
        assert_eq!(sim.lan_count(), 3);
        // Strip every edge touching a satellite from the simulator's actual
        // thresholded graph; the remaining terrestrial (fiber-only) network
        // must leave the three LANs mutually disconnected.
        let full = sim.active_graph_at(0);
        let mut terrestrial = Graph::with_nodes(sim.hosts().len());
        for (u, v, eta) in full.edges() {
            if sim.hosts()[u].is_ground() && sim.hosts()[v].is_ground() {
                terrestrial.set_edge(u, v, eta);
            }
        }
        assert!(
            !sim.lans_interconnected(&terrestrial),
            "LANs must not interconnect without the space segment"
        );
    }

    #[test]
    #[should_panic(expected = "invalid SimConfig")]
    fn rejects_invalid_config() {
        let hosts = vec![
            Host::ground("A", 0, Geodetic::from_deg(36.0, -85.0, 300.0), 1.2),
            Host::ground("B", 1, Geodetic::from_deg(35.9, -84.3, 250.0), 1.2),
        ];
        let config = SimConfig {
            threshold: f64::NAN,
            ..SimConfig::default()
        };
        QuantumNetworkSim::new(hosts, config, 10, 30.0);
    }

    #[test]
    #[should_panic(expected = "movement sheet has")]
    fn rejects_short_ephemeris() {
        let props: Vec<Propagator> = paper_constellation(1)
            .into_iter()
            .map(|k| Propagator::new(k, Epoch::J2000, PerturbationModel::TwoBody))
            .collect();
        let eph = Ephemeris::generate(&props[0], Epoch::J2000, 30.0, 300.0); // 10 steps
        let hosts = vec![
            Host::ground("G", 0, Geodetic::from_deg(36.0, -85.0, 300.0), 1.2),
            Host::satellite("S", eph, 1.2),
        ];
        QuantumNetworkSim::new(hosts, SimConfig::default(), 100, 30.0);
    }

    #[test]
    #[should_panic(expected = "step out of range")]
    fn rejects_out_of_range_step() {
        let sim = hap_sim();
        sim.graph_at(10);
    }

    #[test]
    fn identity_faults_reproduce_the_clean_graph_bitwise() {
        let sim = sat_sim(6, 30);
        let identity = CompiledFaults::identity(sim.hosts().len(), sim.steps());
        for step in [0, 7, 29] {
            let clean = sim.graph_at(step);
            let faulted = sim.graph_at_with_faults(step, &identity);
            assert_eq!(clean.edge_count(), faulted.edge_count());
            for ((ua, va, ea), (ub, vb, eb)) in clean.edges().zip(faulted.edges()) {
                assert_eq!((ua, va), (ub, vb));
                assert_eq!(ea.to_bits(), eb.to_bits(), "η differs at ({ua},{va})");
            }
            assert_eq!(
                sim.active_graph_at(step).edge_count(),
                sim.active_graph_at_with_faults(step, &identity)
                    .edge_count()
            );
        }
    }

    #[test]
    fn downed_host_loses_every_incident_edge() {
        let sim = hap_sim();
        let mut faults = CompiledFaults::identity(sim.hosts().len(), sim.steps());
        faults.force_host_down(0, 4); // the HAP
        let g = sim.graph_at_with_faults(0, &faults);
        for node in 0..4 {
            assert!(!g.has_edge(node, 4), "HAP edge to {node} must be gone");
        }
        assert!(g.has_edge(0, 1), "fiber between healthy hosts survives");
        assert!(!sim.lans_interconnected(&g.thresholded(0.7)));
        // The outage is step-local.
        assert!(sim.graph_at_with_faults(1, &faults).has_edge(0, 4));
    }

    #[test]
    #[should_panic(expected = "different host set")]
    fn rejects_mismatched_fault_mask() {
        let sim = hap_sim();
        let faults = CompiledFaults::identity(sim.hosts().len() + 1, sim.steps());
        sim.graph_at_with_faults(0, &faults);
    }
}
