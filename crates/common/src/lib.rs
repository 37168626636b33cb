//! Typed indices and the workspace error type shared across QNTN crates.
//!
//! The simulator juggles three distinct index spaces — hosts (graph node
//! ids), satellites (contact-window rows) and time steps — all of which
//! used to be raw `usize`, so swapping two arguments compiled fine and
//! produced silently wrong topologies. [`HostId`], [`SatId`] and
//! [`StepId`] make those spaces distinct types. Each is a transparent
//! `usize` newtype: zero-cost, `serde`-compatible with the raw integer it
//! replaces, and convertible with `From`/[`index`](HostId::index) at API
//! boundaries that still speak `usize` (e.g. `qntn-routing`'s `NodeId`).
//! The integer is private, so those conversions are the only ways out: no
//! id indexes a slice, and every cast is a visible `.index()` (see
//! [`SatId`]).
//!
//! [`QntnError`] is the workspace's structured error enum, replacing the
//! ad-hoc `Result<_, String>` signatures that configuration validation
//! used to return.
//!
//! The resilience layer lives here too, because both `qntn-net` (the sweep
//! runtime) and `qntn-bench` (the `reproduce` binary) need it:
//!
//! - [`codec`] — a tiny self-describing binary codec ([`codec::FrameCodec`])
//!   for checkpoint payloads; the vendored `serde` stub is inert, so
//!   checkpoint frames encode through this instead.
//! - [`frame`] — CRC32-checksummed, versioned frame files plus the one
//!   atomic write-temp-fsync-rename helper every artifact write goes
//!   through.
//! - [`control`] — cooperative cancellation ([`control::CancelToken`]) and
//!   wall-clock deadlines ([`control::Deadline`]), bundled as a
//!   [`control::RunControl`] that long-running sweeps poll at chunk
//!   boundaries.

pub mod codec;
pub mod control;
pub mod frame;

pub use codec::{ByteReader, FrameCodec};
pub use control::{CancelToken, Deadline, RunControl, StopCause};
pub use frame::{atomic_write, fnv1a64, read_frame, write_frame_atomic};

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! typed_index {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(usize);

        impl $name {
            /// The raw index, for arrays and `usize`-speaking APIs.
            #[inline]
            pub fn index(self) -> usize {
                self.0
            }
        }

        impl From<usize> for $name {
            #[inline]
            fn from(i: usize) -> Self {
                $name(i)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(id: $name) -> usize {
                id.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

typed_index!(
    /// Index of a host in a simulation's host list. Doubles as the routing
    /// graph node id (`qntn-routing`'s `NodeId` is `usize`; convert with
    /// [`HostId::index`]).
    HostId
);
typed_index!(
    /// Row of a satellite in a contact-window table — the position of the
    /// satellite among a simulation's satellite hosts, *not* its host id.
    ///
    /// A satellite row cannot index a host-keyed slice by accident: the
    /// slice takes only a `usize`, and the id's integer is private, so the
    /// cast is always an explicit [`SatId::index`].
    ///
    /// ```
    /// use qntn_common::SatId;
    /// let hosts: &[f64] = &[0.9, 0.8, 0.7];
    /// let sat = SatId::from(2);
    /// let eta = hosts[sat.index()];
    /// ```
    ///
    /// ```compile_fail,E0277
    /// use qntn_common::SatId;
    /// let hosts: &[f64] = &[0.9, 0.8, 0.7];
    /// let sat = SatId::from(2);
    /// let eta = hosts[sat];
    /// ```
    ///
    /// ```compile_fail,E0616
    /// use qntn_common::SatId;
    /// let hosts: &[f64] = &[0.9, 0.8, 0.7];
    /// let sat = SatId::from(2);
    /// let eta = hosts[sat.0];
    /// ```
    SatId
);
typed_index!(
    /// A discrete simulation time step (the paper: 0..2880 at 30 s each).
    StepId
);

/// The workspace error type: every validation and setup failure across the
/// QNTN crates, as data rather than a formatted string.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QntnError {
    /// A configuration field failed validation. `constraint` describes what
    /// was required, `got` what was found.
    InvalidConfig {
        field: &'static str,
        constraint: &'static str,
        got: f64,
    },
    /// A precomputed artifact (fault mask, contact windows, ephemeris) does
    /// not match the shape of the simulation it was offered to.
    ShapeMismatch {
        what: &'static str,
        expected: usize,
        got: usize,
    },
    /// An I/O operation failed. `op` names the operation (`"write"`,
    /// `"rename"`, …), `path` the file involved; `message` is the rendered
    /// OS error (kept as a string so the variant stays `Clone + PartialEq`).
    Io {
        op: &'static str,
        path: String,
        message: String,
    },
    /// A checkpoint/artifact frame failed structural validation: bad magic,
    /// unsupported version, truncation, or a CRC32 mismatch. Never silently
    /// recovered from — a corrupt checkpoint must be deleted (or the run
    /// restarted fresh), not trusted.
    CorruptFrame { path: String, detail: String },
    /// A checkpoint frame is structurally valid but belongs to a different
    /// run (parameter fingerprint, step set, or length disagree).
    CheckpointMismatch {
        what: &'static str,
        expected: u64,
        got: u64,
    },
    /// A parallel sweep chunk panicked. The runtime quarantines the chunk
    /// (its steps carry no output) and either fails fast with this error or
    /// reports it alongside the healthy chunks' results, per policy.
    ChunkPanic {
        /// First and last simulation step of the poisoned range, inclusive.
        step_range: (usize, usize),
        /// The panic payload, rendered to a string.
        payload: String,
    },
    /// Anything that does not fit the structured variants.
    Other(String),
}

impl QntnError {
    /// Build an [`QntnError::Io`] from a `std::io::Error` with context.
    pub fn io(op: &'static str, path: &std::path::Path, err: &std::io::Error) -> QntnError {
        QntnError::Io {
            op,
            path: path.display().to_string(),
            message: err.to_string(),
        }
    }
}

impl fmt::Display for QntnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QntnError::InvalidConfig {
                field,
                constraint,
                got,
            } => write!(f, "{field} must be {constraint}, got {got}"),
            QntnError::ShapeMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: expected {expected}, got {got}"),
            QntnError::Io { op, path, message } => {
                write!(f, "{op} {path}: {message}")
            }
            QntnError::CorruptFrame { path, detail } => {
                write!(f, "corrupt frame {path}: {detail}")
            }
            QntnError::CheckpointMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "checkpoint is from a different run: {what} expected {expected}, got {got}"
            ),
            QntnError::ChunkPanic {
                step_range: (lo, hi),
                payload,
            } => write!(
                f,
                "sweep chunk covering steps {lo}..={hi} panicked: {payload}"
            ),
            QntnError::Other(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for QntnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_ids_round_trip_usize() {
        let h: HostId = 7usize.into();
        assert_eq!(h.index(), 7);
        assert_eq!(usize::from(h), 7);
        assert_eq!(h.to_string(), "7");
        assert_eq!(StepId(3), StepId::from(3));
        assert!(SatId(1) < SatId(2));
    }

    #[test]
    fn errors_render_like_the_old_strings() {
        let e = QntnError::InvalidConfig {
            field: "threshold",
            constraint: "in (0, 1]",
            got: 1.5,
        };
        assert_eq!(e.to_string(), "threshold must be in (0, 1], got 1.5");
        let e = QntnError::ShapeMismatch {
            what: "fault mask hosts",
            expected: 5,
            got: 6,
        };
        assert_eq!(e.to_string(), "fault mask hosts: expected 5, got 6");
        assert_eq!(QntnError::Other("boom".into()).to_string(), "boom");
    }
}
