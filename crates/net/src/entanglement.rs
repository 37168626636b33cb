//! End-to-end entanglement distribution.
//!
//! Given the thresholded graph at a time step, a request is served by:
//!
//! 1. routing with the paper's Bellman–Ford metric (`1/(η+ε)`);
//! 2. composing the per-link amplitude-damping channels — AD composes as
//!    `AD(η₁)∘AD(η₂) = AD(η₁·η₂)`, so the end-to-end channel is AD of the
//!    path's transmissivity product (proved in `qntn-quantum` tests);
//! 3. sending one half of `|Φ+⟩` through that channel and measuring the
//!    entanglement fidelity against the ideal Bell state. The fidelity comes
//!    from [`damped_bell_fidelities`], a fixed-order kernel pinned bit for
//!    bit to `qntn-quantum`'s density-matrix pipeline (Kraus channel on one
//!    qubit of `|Φ+⟩⟨Φ+|`, then the overlap with `|Φ+⟩`), so realizing a
//!    served pair allocates nothing beyond its path.
//!
//! [`distribute`] runs the classic edge-relaxation Bellman–Ford per
//! request (it is provably equivalent to the paper's distance-vector
//! Algorithm 1 — see `qntn-routing::table` — and much cheaper per (source,
//! destination) query); an integration test cross-checks the two on live
//! simulator graphs. It is the path of the naive per-request oracle,
//! `RequestWorkload::evaluate_with_retries`. `qntn-serve`'s serving walk
//! instead runs one shortest-path solve per distinct source per step and
//! realizes each route with [`realize_with_hold`], bit-identically.

use qntn_quantum::fidelity::damped_bell_fidelities;
use qntn_routing::{bellman_ford_into, Graph, NodeId, Route, RouteMetric, SsspTable};
use serde::{Deserialize, Serialize};

/// Outcome of one successful entanglement distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Distribution {
    /// The routed node path.
    pub path: Vec<NodeId>,
    /// End-to-end transmissivity (product over links).
    pub eta: f64,
    /// End-to-end square-root entanglement fidelity — one Bell half damped
    /// by AD(Πη) (see `qntn-quantum` crate docs for the convention).
    pub fidelity: f64,
    /// Jozsa-convention end-to-end fidelity (the square), for reference.
    pub fidelity_jozsa: f64,
    /// Mean **per-link** square-root fidelity along the path: average of
    /// F(η_link) over hops. This is the accounting under which the paper's
    /// joint numbers (55 % coverage *and* 0.96 space-ground fidelity) are
    /// reachable; the end-to-end product convention cannot produce both.
    /// Reported alongside the end-to-end value everywhere.
    pub mean_link_fidelity: f64,
}

/// Attempt to distribute a Bell pair from `src` to `dst` over `graph`
/// (already threshold-gated). Returns `None` when no route exists.
pub fn distribute(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    metric: RouteMetric,
) -> Option<Distribution> {
    let route = bellman_ford_into(graph, src, dst, metric, &mut SsspTable::default())?;
    // Every hop of a returned route is an edge of `graph` by construction;
    // propagate rather than panic if that ever stops holding.
    let mut link_etas = Vec::with_capacity(route.nodes.len().saturating_sub(1));
    for w in route.nodes.windows(2) {
        link_etas.push(graph.eta(w[0], w[1])?);
    }
    Some(realize(&route, &link_etas))
}

/// Degrade a Bell pair over an already-chosen route and measure fidelity.
/// `link_etas` are the per-hop transmissivities (their product must equal
/// the route's `eta_product`).
pub fn realize(route: &Route, link_etas: &[f64]) -> Distribution {
    realize_with_hold(route, link_etas, 1.0)
}

/// [`realize`] for store-and-forward routes: the route's `eta_product`
/// additionally carries `hold_eta`, the product of the memory-decay
/// factors paid while holding (`1.0` reduces bitwise to [`realize`] —
/// `η × 1.0` is a no-op for finite floats). The end-to-end state is one
/// Bell half through AD(`eta_product`) — memory decay is one more
/// amplitude-damping stage under the workspace's composition law — while
/// `mean_link_fidelity` keeps averaging over *physical* links only.
///
/// Both end-to-end fidelities come from [`damped_bell_fidelities`], which
/// performs the density-matrix pipeline's floating-point operations in its
/// order: the bits are the pipeline's, at no allocation.
///
/// # Panics
/// Panics if `route.eta_product` is outside `[0, 1]`.
pub fn realize_with_hold(route: &Route, link_etas: &[f64], hold_eta: f64) -> Distribution {
    debug_assert!(
        (link_etas.iter().product::<f64>() * hold_eta - route.eta_product).abs() < 1e-9,
        "link etas inconsistent with route product"
    );
    let (fidelity, fidelity_jozsa) = damped_bell_fidelities(route.eta_product);
    let mean_link_fidelity = if link_etas.is_empty() {
        1.0
    } else {
        link_etas
            .iter()
            .map(|&eta| qntn_quantum::fidelity::bell_ad_sqrt_fidelity(eta))
            .sum::<f64>()
            / link_etas.len() as f64
    };
    Distribution {
        path: route.nodes.clone(),
        eta: route.eta_product,
        fidelity,
        fidelity_jozsa,
        mean_link_fidelity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qntn_quantum::fidelity::{bell_ad_fidelity, bell_ad_sqrt_fidelity};

    fn chain(etas: &[f64]) -> Graph {
        let mut g = Graph::with_nodes(etas.len() + 1);
        for (i, &eta) in etas.iter().enumerate() {
            g.set_edge(i, i + 1, eta);
        }
        g
    }

    #[test]
    fn single_perfect_link() {
        let g = chain(&[1.0]);
        let d = distribute(&g, 0, 1, RouteMetric::PaperInverseEta).unwrap();
        assert!((d.fidelity - 1.0).abs() < 1e-12);
        assert_eq!(d.path, vec![0, 1]);
    }

    #[test]
    fn fidelity_matches_closed_form() {
        for etas in [vec![0.9], vec![0.9, 0.8], vec![0.95, 0.92, 0.88]] {
            let g = chain(&etas);
            let d = distribute(&g, 0, etas.len(), RouteMetric::PaperInverseEta).unwrap();
            let eta_path: f64 = etas.iter().product();
            assert!((d.eta - eta_path).abs() < 1e-12);
            assert!((d.fidelity - bell_ad_sqrt_fidelity(eta_path)).abs() < 1e-10);
            assert!((d.fidelity_jozsa - bell_ad_fidelity(eta_path)).abs() < 1e-10);
        }
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = chain(&[0.9]);
        g.add_node();
        assert!(distribute(&g, 0, 2, RouteMetric::PaperInverseEta).is_none());
    }

    #[test]
    fn threshold_eta_gives_paper_calibration_fidelity() {
        // A single link right at the 0.7 threshold: fidelity ≈ 0.918 > 0.9,
        // the paper's Fig. 5 justification for the threshold choice.
        let g = chain(&[0.7]);
        let d = distribute(&g, 0, 1, RouteMetric::PaperInverseEta).unwrap();
        assert!(d.fidelity > 0.9 && d.fidelity < 0.92, "{}", d.fidelity);
    }

    #[test]
    fn mean_link_fidelity_definition() {
        let g = chain(&[0.9, 0.7]);
        let d = distribute(&g, 0, 2, RouteMetric::PaperInverseEta).unwrap();
        let expect = (bell_ad_sqrt_fidelity(0.9) + bell_ad_sqrt_fidelity(0.7)) / 2.0;
        assert!((d.mean_link_fidelity - expect).abs() < 1e-12);
        // Per-link accounting never falls below the end-to-end value.
        assert!(d.mean_link_fidelity >= d.fidelity);
    }

    #[test]
    fn jozsa_is_square_of_sqrt_fidelity() {
        let g = chain(&[0.8, 0.85]);
        let d = distribute(&g, 0, 2, RouteMetric::PaperInverseEta).unwrap();
        assert!((d.fidelity * d.fidelity - d.fidelity_jozsa).abs() < 1e-10);
    }

    #[test]
    fn better_metric_never_hurts_fidelity() {
        // On any graph, NegLogEta's η product is >= the paper metric's.
        let mut g = Graph::with_nodes(4);
        g.set_edge(0, 1, 0.9);
        g.set_edge(1, 3, 0.9);
        g.set_edge(0, 2, 0.75);
        g.set_edge(2, 3, 0.99);
        g.set_edge(0, 3, 0.72);
        let paper = distribute(&g, 0, 3, RouteMetric::PaperInverseEta).unwrap();
        let optimal = distribute(&g, 0, 3, RouteMetric::NegLogEta).unwrap();
        assert!(optimal.eta >= paper.eta - 1e-12);
        assert!(optimal.fidelity >= paper.fidelity - 1e-12);
    }

    #[test]
    fn realize_with_unit_hold_is_bitwise_realize() {
        let route = Route {
            nodes: vec![0, 1, 2],
            cost: 2.3,
            eta_product: 0.9 * 0.8,
        };
        let link_etas = [0.9, 0.8];
        let plain = realize(&route, &link_etas);
        let held = realize_with_hold(&route, &link_etas, 1.0);
        assert_eq!(plain.eta.to_bits(), held.eta.to_bits());
        assert_eq!(plain.fidelity.to_bits(), held.fidelity.to_bits());
        assert_eq!(
            plain.mean_link_fidelity.to_bits(),
            held.mean_link_fidelity.to_bits()
        );
        assert_eq!(plain.path, held.path);
    }

    #[test]
    fn realize_with_hold_degrades_fidelity_but_not_link_accounting() {
        let hold = 0.9;
        let held_route = Route {
            nodes: vec![0, 1, 2],
            cost: 2.3,
            eta_product: 0.9 * 0.8 * hold,
        };
        let free_route = Route {
            nodes: vec![0, 1, 2],
            cost: 2.3,
            eta_product: 0.9 * 0.8,
        };
        let link_etas = [0.9, 0.8];
        let held = realize_with_hold(&held_route, &link_etas, hold);
        let free = realize(&free_route, &link_etas);
        assert!(held.fidelity < free.fidelity);
        assert!((held.eta - 0.9 * 0.8 * hold).abs() < 1e-12);
        // The decay lives in the end-to-end channel; per-link averages only
        // ever see physical links.
        assert_eq!(
            held.mean_link_fidelity.to_bits(),
            free.mean_link_fidelity.to_bits()
        );
    }
}
