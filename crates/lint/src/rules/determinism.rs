//! `determinism` — sweep/pipeline hot paths are bit-deterministic.
//!
//! The workspace's headline contract is that sweep results are
//! bit-identical across naive/engine, clean/identity-faulted,
//! sequential/parallel and interrupted/resumed executions
//! (`tests/pipeline_goldens.rs`, `tests/resilience.rs`). That only holds
//! while the hot paths stay free of three classic nondeterminism sources:
//!
//! - wall-clock reads (`Instant::now`, `SystemTime::now`) feeding results;
//! - `HashMap`/`HashSet`, whose iteration order is unspecified — folding
//!   one into a float accumulation reorders additions and changes bits;
//! - entropy-seeded RNGs (`thread_rng`, `from_entropy`) instead of the
//!   workspace's explicit-seed models.
//!
//! The rule scans the per-step pipeline, the sweep engine, the resilient
//! runtime, the fault compiler, the link evaluator, the serve path (its
//! kernel, routing, entanglement realization with the fidelity kernel, and
//! the naive request oracle) and the experiment drivers. Analysis-side
//! modules (event censuses, snapshots) may keep hash maps; wall-clock use
//! stays legal in `qntn_common::control` (deadlines are *about* wall time)
//! and in the bench harness (measuring wall time is its job) — none of
//! which are in scope.

use crate::diag::Diagnostic;
use crate::engine::FileCtx;

pub const ID: &str = "determinism";

const MESSAGE: &str = "sweep/pipeline hot paths must be bit-deterministic: \
     no wall-clock reads, no HashMap/HashSet (unspecified iteration order), \
     no entropy-seeded RNGs; use explicit seeds and ordered/indexed storage";

/// The files whose outputs the bit-identity contracts cover.
const HOT_PATHS: &[&str] = &[
    "crates/net/src/pipeline.rs",
    "crates/net/src/sweep_engine.rs",
    "crates/net/src/runtime.rs",
    "crates/net/src/faults.rs",
    "crates/net/src/linkeval.rs",
    "crates/orbit/src/spatial.rs",
    "crates/channel/src/fso.rs",
    "crates/serve/src/serve.rs",
    "crates/serve/src/kernel.rs",
    "crates/serve/src/request.rs",
    "crates/serve/src/hold.rs",
    "crates/serve/src/overload.rs",
    "crates/serve/src/workload.rs",
    "crates/routing/src/timexp.rs",
    "crates/routing/src/bellman_ford.rs",
    "crates/routing/src/extract.rs",
    "crates/quantum/src/memory.rs",
    "crates/quantum/src/fidelity.rs",
    "crates/net/src/entanglement.rs",
    "crates/net/src/requests.rs",
];

/// Hot-path scope shared with the `float-reduction` rule.
pub(crate) fn in_scope(rel: &str) -> bool {
    HOT_PATHS.contains(&rel) || rel.starts_with("crates/core/src/experiments/")
}

pub fn check(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if !in_scope(ctx.rel) || ctx.is_test_file() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for pattern in [
        &["Instant", ":", ":", "now"][..],
        &["SystemTime", ":", ":", "now"],
        &["HashMap"],
        &["HashSet"],
        &["thread_rng"],
        &["from_entropy"],
    ] {
        out.extend(ctx.hits(pattern, ID, MESSAGE));
    }
    out.retain(|d| !ctx.is_test_line(d.line));
    out
}

#[cfg(test)]
mod tests {
    use super::HOT_PATHS;
    use std::path::Path;

    /// The list is kept by hand, so a renamed or deleted file would drop
    /// out of scope without a word.
    #[test]
    fn every_hot_path_exists() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for rel in HOT_PATHS {
            assert!(
                root.join(rel).is_file(),
                "HOT_PATHS names a missing file: {rel}"
            );
        }
    }
}
