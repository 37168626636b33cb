//! # qntn-bench — benchmark harness for the QNTN reproduction
//!
//! Hosts the `reproduce` binary, which regenerates every table, figure
//! and ablation as text/CSV and times the perf baselines, and the
//! `perf_gate` binary, which compares a fresh baseline against a
//! committed one. [`schema`] is the one definition of the baseline files
//! both binaries share. See EXPERIMENTS.md at the workspace root for the
//! paper-vs-measured record.

pub mod schema;
