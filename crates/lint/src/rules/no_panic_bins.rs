//! `no-panic-bins` — workspace binaries never panic.
//!
//! The `reproduce` binary promises a structured exit-code contract
//! (0/2/3/4/5/6, DESIGN.md §10): every failure path returns a `QntnError`
//! and maps to a code, so scripts and the nightly crash-resume smoke can
//! rely on what a nonzero status *means*. A stray `unwrap()` breaks that
//! promise with an uninformative abort, and so does a failed `assert!`,
//! `assert_eq!`, `assert_ne!` or `unreachable!`: a check a binary makes
//! at run time returns an error instead. This rule holds every file under
//! a `src/bin/` directory — current and future binaries alike — to the
//! bar the in-source `clippy::unwrap_used` attributes used to set for
//! `reproduce` alone.
//!
//! Deliberate panics (the crash-injection test knob) carry an allow
//! pragma naming their reason.

use crate::diag::Diagnostic;
use crate::engine::FileCtx;

pub const ID: &str = "no-panic-bins";

const MESSAGE: &str = "binaries are panic-free: return QntnError and let \
     main() map it onto the exit-code contract instead of panicking";

pub fn check(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if !ctx.rel.contains("/src/bin/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for pattern in [
        &[".", "unwrap", "(", ")"][..],
        &[".", "expect", "("],
        &["panic", "!"],
        &["todo", "!"],
        &["unimplemented", "!"],
        &["unreachable", "!"],
        &["assert", "!"],
        &["assert_eq", "!"],
        &["assert_ne", "!"],
    ] {
        out.extend(ctx.hits(pattern, ID, MESSAGE));
    }
    out.retain(|d| !ctx.is_test_line(d.line));
    out
}
