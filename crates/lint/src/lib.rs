//! `qntn-lint` — the in-workspace architectural linter.
//!
//! PRs 3 and 4 established invariants this reproduction's correctness
//! rests on; this crate makes them *mechanical* instead of conventional.
//! `cargo lint` (alias for `cargo run -p qntn-lint`) scans the workspace
//! and fails the build when any of the enforced invariants regresses:
//!
//! - [`rules::single_materializer`] — only
//!   `qntn_net::pipeline::build_topology_into` materializes per-step
//!   topology;
//! - [`rules::atomic_writes`] — every artifact write goes through
//!   `qntn_common::atomic_write`;
//! - [`rules::no_panic_bins`] — workspace binaries are panic-free;
//! - [`rules::determinism`] — sweep/pipeline hot paths read no wall clock
//!   and iterate no unordered maps;
//! - [`rules::layering`] — crate dependency edges point strictly down the
//!   common → geo/quantum → orbit → channel/routing → net → core → bench
//!   stack;
//! - [`rules::float_reduction`] — no order-sensitive f64 reductions on
//!   parallel chains in the hot paths. It walks a brace tree ([`parse`])
//!   that recovers delimiter nesting from the masked token stream.
//!
//! Each rule encodes project policy the compiler cannot see. Invariants
//! the toolchain proves are left to it: the workspace `[lints]` table
//! denies discarded `Result`s (`unused_must_use`,
//! `clippy::let_underscore_must_use`), rayon's `Fn + Sync` bounds reject
//! shared mutable captures, and newtypes with private fields keep dB apart
//! from linear η (`qntn_channel::units::Db`) and each index family apart
//! from the others (`qntn_common::{HostId, SatId, StepId}`).
//!
//! Pattern rules never fire inside comments or string/char/raw-string
//! literals: [`lexer`] masks those before any matching happens, and the
//! property suite in `tests/` hammers exactly that boundary. Intentional
//! exceptions are annotated in-source with
//! `// qntn-lint: allow(<rule>) -- <reason>` ([`pragma`]); an unexplained
//! or misspelled pragma is itself a diagnostic.
//!
//! The crate has zero runtime dependencies on purpose: it must build in
//! the offline vendored workspace, and a CI gate should be trivially
//! auditable. See DESIGN.md §11 and §16 for the full rule contract and
//! how to add a rule.

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod parse;
pub mod pragma;
pub mod rules;

pub use diag::Diagnostic;
pub use engine::{lint_source, lint_workspace, lint_workspace_outcome, LintOutcome};
