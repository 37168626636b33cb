//! The enforced invariants, one module per rule.
//!
//! Pattern rules (masked-token matching):
//!
//! | rule id | invariant |
//! |---|---|
//! | `single-materializer` | per-step topology graphs are built only by `qntn_net::pipeline::build_topology_into` |
//! | `atomic-writes-only` | artifact bytes reach disk only through `qntn_common::atomic_write` |
//! | `no-panic-bins` | workspace binaries are panic-free (`QntnError` + exit-code contract) |
//! | `determinism` | sweep/pipeline hot paths read no wall clock and iterate no unordered maps |
//! | `layering` | crate dependency edges respect common → geo/quantum → orbit → channel/routing → net → core → bench |
//! | `bad-pragma` | (meta) every `qntn-lint:` pragma parses, names a real rule, and carries a reason |
//!
//! Structural rule (brace tree):
//!
//! | rule id | invariant |
//! |---|---|
//! | `float-reduction` | hot paths never run order-sensitive f64 reductions on a parallel chain |
//!
//! Invariants the compiler can prove are not rules here:
//!
//! | retired rule id | now carried by |
//! |---|---|
//! | `unit-safety` | `qntn_channel::units::Db`, whose value leaves dB space only through `db_to_linear` or `.value()` |
//! | `typed-index` | the private field of `HostId`/`SatId`/`StepId`: only `.index()`/`From` yield a `usize` |
//! | `rayon-capture` | rayon's `Fn + Sync` closure bounds (E0596 for `&mut`, E0277 for `RefCell`/`Cell`) |
//! | `result-swallow` | the workspace `[lints]` table: `unused_must_use` and `clippy::let_underscore_must_use` at `deny` |
//!
//! A pragma naming a retired rule is a `bad-pragma`.
//!
//! Adding a rule: create a module with an `ID` and a `check(&FileCtx)`
//! (or a manifest pass), register it in [`RULES`] and the call in
//! [`check_source`], and add positive/negative fixtures under
//! `crates/lint/fixtures/` (see `tests/fixtures.rs`). DESIGN.md §11 and
//! §16 document the contract.

use crate::diag::Diagnostic;
use crate::engine::FileCtx;

pub mod atomic_writes;
pub mod determinism;
pub mod float_reduction;
pub mod layering;
pub mod no_panic_bins;
pub mod single_materializer;

/// Every rule with its one-line description, in display order
/// (pattern rules first, then the structural rule).
pub const RULES: &[(&str, &str)] = &[
    (
        single_materializer::ID,
        "per-step topology graphs are built only by qntn_net::pipeline::build_topology_into",
    ),
    (
        atomic_writes::ID,
        "artifact bytes reach disk only through qntn_common::atomic_write",
    ),
    (
        no_panic_bins::ID,
        "workspace binaries are panic-free (QntnError + exit-code contract)",
    ),
    (
        determinism::ID,
        "sweep/pipeline hot paths read no wall clock and iterate no unordered maps",
    ),
    (
        layering::ID,
        "crate dependency edges respect the common -> ... -> bench layering",
    ),
    (
        float_reduction::ID,
        "hot paths never run order-sensitive f64 reductions on a parallel chain",
    ),
];

/// Every rule id a pragma may name.
pub const RULE_IDS: &[&str] = &[
    single_materializer::ID,
    atomic_writes::ID,
    no_panic_bins::ID,
    determinism::ID,
    layering::ID,
    float_reduction::ID,
];

/// Run every source-level rule on one file.
pub fn check_source(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(single_materializer::check(ctx));
    out.extend(atomic_writes::check(ctx));
    out.extend(no_panic_bins::check(ctx));
    out.extend(determinism::check(ctx));
    out.extend(float_reduction::check(ctx));
    out
}
