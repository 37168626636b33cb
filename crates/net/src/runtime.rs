//! The resilient sweep runtime: checkpoint/resume, cooperative
//! cancellation, and panic isolation for long-running sweeps.
//!
//! The [`crate::SweepEngine`] makes a full-day sweep *fast*; this module
//! makes it *survivable*. A run executes its steps in order, in chunks,
//! and after each chunk boundary:
//!
//! - **checkpoints** — progress (the completed step prefix plus every
//!   per-step output, floats as raw bit patterns) is serialized through
//!   [`qntn_common::codec`] into a versioned, CRC32-checksummed frame
//!   written atomically ([`qntn_common::frame`]). A resumed run loads the
//!   frame, verifies its fingerprint binds it to the same run parameters,
//!   and replays only the remaining steps. Because every step's output is
//!   a pure function of `(engine, step)`, *interrupted-then-resumed ≡
//!   uninterrupted, bit-identical* — proptested by the crash-injection
//!   harness in `tests/resilience.rs`.
//! - **cancellation / deadlines** — a [`RunControl`] is polled at every
//!   chunk boundary; a tripped [`qntn_common::CancelToken`] or expired
//!   [`qntn_common::Deadline`] stops the run with a final checkpoint and a
//!   well-formed partial [`RunReport`] instead of tearing it down.
//! - **panic isolation** — each step evaluation runs under
//!   `catch_unwind`, so a panicking chunk poisons only itself. Under
//!   [`PanicPolicy::FailFast`] the run checkpoints its progress and
//!   returns the structured
//!   [`QntnError::ChunkPanic`]; under [`PanicPolicy::Quarantine`] the
//!   poisoned step range is recorded in the report, its outputs stay
//!   `None`, and every healthy chunk completes.
//!
//! The runtime is generic over the per-step output type `T:`
//! [`FrameCodec`], so the same machinery drives connectivity-flag sweeps
//! (`T = bool`), request sweeps (`T = Vec<RequestOutcome>`), and any
//! future long-running workload.

// The resilience layer must never itself be a panic source: unwrap/expect
// are denied outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::entanglement::Distribution;
use crate::requests::RequestOutcome;
use crate::sweep_engine::{SweepEngine, SweepScratch};
use qntn_common::codec::{ByteReader, DecodeError, FrameCodec};
use qntn_common::{frame, QntnError, RunControl, StopCause};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Schema version of checkpoint frames written by this module.
pub const CHECKPOINT_VERSION: u32 = 1;

/// What to do when a sweep chunk panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PanicPolicy {
    /// Checkpoint progress, then surface the first
    /// [`QntnError::ChunkPanic`] as an error. The default: a panic is a
    /// bug, and silent degradation would hide it.
    #[default]
    FailFast,
    /// Quarantine the poisoned step range (outputs stay `None`), keep a
    /// structured report of every panic, and complete the healthy chunks.
    /// The degrade-and-report mode for operational runs where partial
    /// results beat no results.
    Quarantine,
}

/// How a resilient run executes: chunking, checkpointing, cancellation and
/// panic policy.
#[derive(Debug, Clone)]
pub struct RunPolicy {
    /// Steps evaluated per chunk. Chunk boundaries are where the run
    /// checkpoints and polls its [`RunControl`]; `1` gives exact
    /// step-granularity stops at the cost of a checkpoint write per step.
    pub chunk_steps: usize,
    /// Checkpoint file. `None` disables checkpointing (the run still honours
    /// cancellation and panic policy).
    pub checkpoint: Option<PathBuf>,
    /// Write the checkpoint every this many completed chunks (the final
    /// state — completion or interruption — is always written).
    pub checkpoint_every_chunks: usize,
    /// Cancellation / deadline budget, polled at chunk boundaries.
    pub control: RunControl,
    /// What a panicking chunk does to the run.
    pub panic_policy: PanicPolicy,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            chunk_steps: 64,
            checkpoint: None,
            checkpoint_every_chunks: 1,
            control: RunControl::unlimited(),
            panic_policy: PanicPolicy::FailFast,
        }
    }
}

impl RunPolicy {
    /// Checkpoint to `path` (written atomically; validated on load).
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> RunPolicy {
        self.checkpoint = Some(path.into());
        self
    }

    /// Set the chunk size (clamped to at least 1).
    pub fn with_chunk_steps(mut self, steps: usize) -> RunPolicy {
        self.chunk_steps = steps.max(1);
        self
    }

    /// Set the cancellation/deadline budget.
    pub fn with_control(mut self, control: RunControl) -> RunPolicy {
        self.control = control;
        self
    }

    /// Set the panic policy.
    pub fn with_panic_policy(mut self, policy: PanicPolicy) -> RunPolicy {
        self.panic_policy = policy;
        self
    }

    /// Set the checkpoint cadence in chunks (clamped to at least 1).
    pub fn with_checkpoint_every(mut self, chunks: usize) -> RunPolicy {
        self.checkpoint_every_chunks = chunks.max(1);
        self
    }
}

/// One quarantined panic: the poisoned step range and the rendered payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkPanicReport {
    /// First and last panicked simulation step of the range, inclusive.
    pub step_range: (usize, usize),
    /// The panic payload rendered to a string (`&str`/`String` payloads
    /// verbatim, anything else a placeholder).
    pub payload: String,
}

impl ChunkPanicReport {
    /// The same information as a [`QntnError::ChunkPanic`].
    pub fn to_error(&self) -> QntnError {
        QntnError::ChunkPanic {
            step_range: self.step_range,
            payload: self.payload.clone(),
        }
    }
}

/// The outcome of a resilient run: per-step outputs aligned with the
/// `steps` slice, plus how far the run got and why it stopped (if it did).
#[derive(Debug, Clone)]
pub struct RunReport<T> {
    /// One slot per entry of `steps`. `Some` for evaluated steps, `None`
    /// for steps beyond [`completed`](RunReport::completed) and for steps
    /// quarantined by a panic.
    pub outputs: Vec<Option<T>>,
    /// Leading entries of `steps` processed so far (evaluated or
    /// quarantined). Resume picks up exactly here.
    pub completed: usize,
    /// Index this run started from: `0` for a fresh run, the loaded
    /// checkpoint's `completed` for a resumed one.
    pub resumed_from: usize,
    /// `Some` when the run stopped early (cancellation / deadline); the
    /// checkpoint, if configured, holds the progress.
    pub stopped: Option<StopCause>,
    /// Quarantined panics ([`PanicPolicy::Quarantine`] only).
    pub panics: Vec<ChunkPanicReport>,
}

impl<T> RunReport<T> {
    /// Did the run process every step (even if some were quarantined)?
    pub fn is_complete(&self) -> bool {
        self.stopped.is_none() && self.completed == self.outputs.len()
    }

    /// Did the run process every step and produce an output for each?
    pub fn is_clean(&self) -> bool {
        self.is_complete() && self.panics.is_empty()
    }

    /// The outputs, if the run is complete and panic-free.
    pub fn into_clean_outputs(self) -> Option<Vec<T>> {
        if !self.is_clean() {
            return None;
        }
        self.outputs.into_iter().collect()
    }
}

// ---- checkpoint frame payload ----

struct CheckpointState<T> {
    fingerprint: u64,
    total: usize,
    completed: usize,
    panics: Vec<ChunkPanicReport>,
    /// Outputs of the completed prefix only (length == completed).
    prefix: Vec<Option<T>>,
}

impl<T: FrameCodec> CheckpointState<T> {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.fingerprint.encode(&mut out);
        self.total.encode(&mut out);
        self.completed.encode(&mut out);
        let panics: Vec<(usize, usize, String)> = self
            .panics
            .iter()
            .map(|p| (p.step_range.0, p.step_range.1, p.payload.clone()))
            .collect();
        panics.encode(&mut out);
        debug_assert_eq!(self.prefix.len(), self.completed);
        for slot in &self.prefix {
            slot.encode(&mut out);
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<CheckpointState<T>, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let fingerprint = u64::decode(&mut r)?;
        let total = usize::decode(&mut r)?;
        let completed = usize::decode(&mut r)?;
        if completed > total {
            return Err(DecodeError(format!(
                "completed {completed} exceeds total {total}"
            )));
        }
        let raw_panics = Vec::<(usize, usize, String)>::decode(&mut r)?;
        let mut prefix = Vec::with_capacity(completed);
        for _ in 0..completed {
            prefix.push(Option::<T>::decode(&mut r)?);
        }
        r.finish()?;
        Ok(CheckpointState {
            fingerprint,
            total,
            completed,
            panics: raw_panics
                .into_iter()
                .map(|(lo, hi, payload)| ChunkPanicReport {
                    step_range: (lo, hi),
                    payload,
                })
                .collect(),
            prefix,
        })
    }
}

/// Combine a caller fingerprint with the step list, so a checkpoint also
/// refuses to resume onto a different step selection.
fn bind_fingerprint(caller: u64, steps: &[usize]) -> u64 {
    let mut words = Vec::with_capacity(steps.len() + 2);
    words.push(caller);
    words.push(steps.len() as u64);
    words.extend(steps.iter().map(|&s| s as u64));
    frame::fingerprint(&words)
}

fn write_checkpoint<T: FrameCodec + Clone>(
    path: &std::path::Path,
    fingerprint: u64,
    total: usize,
    completed: usize,
    outputs: &[Option<T>],
    panics: &[ChunkPanicReport],
) -> Result<(), QntnError> {
    let state = CheckpointState {
        fingerprint,
        total,
        completed,
        panics: panics.to_vec(),
        prefix: outputs[..completed].to_vec(),
    };
    frame::write_frame_atomic(path, CHECKPOINT_VERSION, &state.encode())
}

fn load_checkpoint<T: FrameCodec>(
    path: &std::path::Path,
    fingerprint: u64,
    total: usize,
) -> Result<Option<CheckpointState<T>>, QntnError> {
    if !path.exists() {
        return Ok(None);
    }
    let payload = frame::read_frame(path, CHECKPOINT_VERSION)?;
    let state = CheckpointState::<T>::decode(&payload).map_err(|e| QntnError::CorruptFrame {
        path: path.display().to_string(),
        detail: e.to_string(),
    })?;
    if state.fingerprint != fingerprint {
        return Err(QntnError::CheckpointMismatch {
            what: "run fingerprint",
            expected: fingerprint,
            got: state.fingerprint,
        });
    }
    if state.total != total {
        return Err(QntnError::CheckpointMismatch {
            what: "step count",
            expected: total as u64,
            got: state.total as u64,
        });
    }
    Ok(Some(state))
}

fn panic_payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Group a chunk's per-step panic payloads into contiguous
/// [`ChunkPanicReport`] ranges (one report per maximal run of consecutive
/// panicked steps, carrying the first payload of the run).
fn group_panics(chunk_steps: &[usize], failures: &[Option<String>]) -> Vec<ChunkPanicReport> {
    let mut reports: Vec<ChunkPanicReport> = Vec::new();
    let mut open: Option<(usize, usize, String)> = None;
    for (i, failure) in failures.iter().enumerate() {
        match failure {
            Some(payload) => match open.as_mut() {
                Some((_, hi, _)) if i > 0 && failures[i - 1].is_some() => *hi = chunk_steps[i],
                _ => {
                    if let Some((lo, hi, p)) = open.take() {
                        reports.push(ChunkPanicReport {
                            step_range: (lo, hi),
                            payload: p,
                        });
                    }
                    open = Some((chunk_steps[i], chunk_steps[i], payload.clone()));
                }
            },
            None => {
                if let Some((lo, hi, p)) = open.take() {
                    reports.push(ChunkPanicReport {
                        step_range: (lo, hi),
                        payload: p,
                    });
                }
            }
        }
    }
    if let Some((lo, hi, p)) = open.take() {
        reports.push(ChunkPanicReport {
            step_range: (lo, hi),
            payload: p,
        });
    }
    reports
}

/// Run `eval` over `steps` on `engine` resiliently. See the module docs
/// for the guarantees; `caller_fingerprint` must encode every parameter
/// the outputs depend on (constellation size, seeds, thresholds — use
/// [`qntn_common::frame::fingerprint`]), because it is what stops a stale
/// checkpoint from silently seeding a different run.
pub fn run_steps<T, F>(
    engine: &SweepEngine<'_>,
    steps: &[usize],
    caller_fingerprint: u64,
    policy: &RunPolicy,
    eval: F,
) -> Result<RunReport<T>, QntnError>
where
    T: FrameCodec + Clone + Send,
    F: Fn(&mut SweepScratch, usize) -> T + Sync,
{
    let fingerprint = bind_fingerprint(caller_fingerprint, steps);
    let total = steps.len();
    let mut outputs: Vec<Option<T>> = vec![None; total];
    let mut panics: Vec<ChunkPanicReport> = Vec::new();
    let mut completed = 0usize;

    if let Some(path) = &policy.checkpoint {
        if let Some(state) = load_checkpoint::<T>(path, fingerprint, total)? {
            completed = state.completed;
            panics = state.panics;
            for (slot, loaded) in outputs.iter_mut().zip(state.prefix) {
                *slot = loaded;
            }
        }
    }
    let resumed_from = completed;

    let chunk_steps = policy.chunk_steps.max(1);
    let cadence = policy.checkpoint_every_chunks.max(1);
    let mut chunks_since_checkpoint = 0usize;

    while completed < total {
        if let Some(cause) = policy.control.should_stop() {
            if let Some(path) = &policy.checkpoint {
                write_checkpoint(path, fingerprint, total, completed, &outputs, &panics)?;
            }
            return Ok(RunReport {
                outputs,
                completed,
                resumed_from,
                stopped: Some(cause),
                panics,
            });
        }

        let end = (completed + chunk_steps).min(total);
        let chunk = &steps[completed..end];
        // Per-step panic isolation: a panicking evaluation is caught in
        // the worker itself, so healthy steps of the same chunk still
        // produce outputs and the payload survives verbatim (a panic that
        // escaped to the thread scope would be reduced to "a scoped
        // thread panicked"). The scratch is safe to reuse afterwards:
        // every evaluation resets it before reading it.
        let results: Vec<Result<T, String>> = engine.map_steps(chunk, |scratch, step| {
            catch_unwind(AssertUnwindSafe(|| eval(scratch, step))).map_err(panic_payload_to_string)
        });

        let mut failures: Vec<Option<String>> = Vec::with_capacity(results.len());
        for (offset, result) in results.into_iter().enumerate() {
            match result {
                Ok(value) => {
                    outputs[completed + offset] = Some(value);
                    failures.push(None);
                }
                Err(payload) => failures.push(Some(payload)),
            }
        }
        let chunk_panics = group_panics(chunk, &failures);
        if !chunk_panics.is_empty() {
            match policy.panic_policy {
                PanicPolicy::FailFast => {
                    // Checkpoint the progress before this chunk so the
                    // (healthy) prefix survives, then surface the panic.
                    if let Some(path) = &policy.checkpoint {
                        write_checkpoint(path, fingerprint, total, completed, &outputs, &panics)?;
                    }
                    return Err(chunk_panics[0].to_error());
                }
                PanicPolicy::Quarantine => panics.extend(chunk_panics),
            }
        }
        completed = end;

        chunks_since_checkpoint += 1;
        if let Some(path) = &policy.checkpoint {
            if chunks_since_checkpoint >= cadence || completed == total {
                write_checkpoint(path, fingerprint, total, completed, &outputs, &panics)?;
                chunks_since_checkpoint = 0;
            }
        }
    }

    Ok(RunReport {
        outputs,
        completed,
        resumed_from,
        stopped: None,
        panics,
    })
}

// ---- FrameCodec impls for the sweep output types ----

impl FrameCodec for Distribution {
    fn encode(&self, out: &mut Vec<u8>) {
        self.path.encode(out);
        self.eta.encode(out);
        self.fidelity.encode(out);
        self.fidelity_jozsa.encode(out);
        self.mean_link_fidelity.encode(out);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Distribution {
            path: Vec::<usize>::decode(r)?,
            eta: f64::decode(r)?,
            fidelity: f64::decode(r)?,
            fidelity_jozsa: f64::decode(r)?,
            mean_link_fidelity: f64::decode(r)?,
        })
    }
}

impl FrameCodec for RequestOutcome {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RequestOutcome::Unserved => out.push(0),
            RequestOutcome::Served(d) => {
                out.push(1);
                d.encode(out);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(RequestOutcome::Unserved),
            1 => Ok(RequestOutcome::Served(Distribution::decode(r)?)),
            other => Err(DecodeError(format!("request outcome tag {other}"))),
        }
    }
}

/// Fingerprint words shared by the engine-level resilient entry points:
/// host count, step count, threshold bit pattern, and the fault mask
/// intensity signature (0 when no mask is attached).
fn engine_fingerprint_words(engine: &SweepEngine<'_>, tag: u64) -> Vec<u64> {
    let sim = engine.sim();
    vec![
        tag,
        sim.hosts().len() as u64,
        sim.steps() as u64,
        sim.evaluator().config().threshold.to_bits(),
        engine.faults().map_or(0, |f| {
            frame::fingerprint(&[f.hosts() as u64, f.steps() as u64])
        }),
    ]
}

impl<'a> SweepEngine<'a> {
    /// The full-day connectivity flags ([`SweepEngine::connectivity_flags`])
    /// as a resilient run: checkpointed, cancellable, panic-isolated.
    /// A clean complete report's outputs equal `connectivity_flags()`
    /// bit for bit.
    pub fn connectivity_flags_resilient(
        &self,
        policy: &RunPolicy,
    ) -> Result<RunReport<bool>, QntnError> {
        let steps: Vec<usize> = (0..self.sim().steps()).collect();
        let fingerprint = frame::fingerprint(&engine_fingerprint_words(self, 0x666c_6167)); // "flag"
        run_steps(self, &steps, fingerprint, policy, |scratch, step| {
            self.active_graph_into(step, scratch);
            self.sim().lans_interconnected(&scratch.active)
        })
    }

    /// The request sweep ([`SweepEngine::sweep`]) as a resilient run over
    /// per-step outcome vectors. Aggregate the clean outputs with
    /// [`crate::requests::aggregate_outcomes`] to recover the exact
    /// [`crate::requests::SweepStats`] of the uninterrupted sweep.
    pub fn sweep_resilient(
        &self,
        steps: &[usize],
        requests_per_step: usize,
        seed: u64,
        metric: qntn_routing::RouteMetric,
        policy: &RunPolicy,
    ) -> Result<RunReport<Vec<RequestOutcome>>, QntnError> {
        use crate::entanglement::distribute_with;
        use crate::requests::RequestWorkload;
        let mut words = engine_fingerprint_words(self, 0x7265_7173); // "reqs"
        words.push(requests_per_step as u64);
        words.push(seed);
        words.push(metric as u64);
        let fingerprint = frame::fingerprint(&words);
        run_steps(self, steps, fingerprint, policy, |scratch, step| {
            let workload = RequestWorkload::generate(
                self.sim(),
                requests_per_step,
                seed ^ (step as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            self.active_graph_into(step, scratch);
            let SweepScratch { active, sssp, .. } = scratch;
            workload
                .requests
                .iter()
                .map(
                    |r| match distribute_with(active, r.src, r.dst, metric, sssp) {
                        Some(d) => RequestOutcome::Served(d),
                        None => RequestOutcome::Unserved,
                    },
                )
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;
    use crate::linkeval::SimConfig;
    use crate::simulator::QuantumNetworkSim;
    use qntn_common::{codec, CancelToken};
    use qntn_geo::Geodetic;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

    fn temp_ckpt(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "qntn_runtime_test_{}_{}_{tag}.ckpt",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn hap_sim(steps: usize) -> QuantumNetworkSim {
        let hosts = vec![
            Host::ground("A-0", 0, Geodetic::from_deg(36.1757, -85.5066, 300.0), 1.2),
            Host::ground("B-0", 1, Geodetic::from_deg(35.91, -84.3, 250.0), 1.2),
            Host::ground("C-0", 2, Geodetic::from_deg(35.04159, -85.2799, 200.0), 1.2),
            Host::hap("HAP", Geodetic::from_deg(35.6692, -85.0662, 30_000.0), 0.3),
        ];
        QuantumNetworkSim::new(hosts, SimConfig::default(), steps, 30.0)
    }

    #[test]
    fn clean_resilient_flags_match_the_plain_sweep() {
        let sim = hap_sim(40);
        let engine = SweepEngine::new(&sim);
        let report = engine
            .connectivity_flags_resilient(&RunPolicy::default())
            .unwrap();
        assert!(report.is_clean());
        assert_eq!(report.resumed_from, 0);
        assert_eq!(
            report.into_clean_outputs().unwrap(),
            engine.connectivity_flags()
        );
    }

    #[test]
    fn cancelled_run_checkpoints_and_resume_is_bit_identical() {
        let sim = hap_sim(60);
        let engine = SweepEngine::new(&sim);
        let ckpt = temp_ckpt("resume");

        // Cancel after ~20 evaluations; the run stops at a chunk boundary
        // with a frame on disk.
        let evals = AtomicUsize::new(0);
        let token = CancelToken::new();
        let steps: Vec<usize> = (0..60).collect();
        let policy = RunPolicy::default()
            .with_chunk_steps(8)
            .with_checkpoint(&ckpt)
            .with_control(RunControl::unlimited().with_cancel(token.clone()));
        let partial: RunReport<bool> = run_steps(&engine, &steps, 7, &policy, |scratch, step| {
            if evals.fetch_add(1, Ordering::SeqCst) + 1 >= 20 {
                token.cancel();
            }
            engine.active_graph_into(step, scratch);
            engine.sim().lans_interconnected(&scratch.active)
        })
        .unwrap();
        assert_eq!(partial.stopped, Some(StopCause::Cancelled));
        assert!(partial.completed < 60 && partial.completed >= 20);
        assert!(ckpt.exists());

        // Resume with no cancellation: completes, and the combined outputs
        // equal an uninterrupted run's exactly.
        let resume_policy = RunPolicy::default()
            .with_chunk_steps(8)
            .with_checkpoint(&ckpt);
        let full: RunReport<bool> =
            run_steps(&engine, &steps, 7, &resume_policy, |scratch, step| {
                engine.active_graph_into(step, scratch);
                engine.sim().lans_interconnected(&scratch.active)
            })
            .unwrap();
        assert_eq!(full.resumed_from, partial.completed);
        assert!(full.is_clean());
        assert_eq!(
            full.into_clean_outputs().unwrap(),
            engine.connectivity_flags()
        );
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn checkpoint_refuses_a_different_run() {
        let sim = hap_sim(20);
        let engine = SweepEngine::new(&sim);
        let ckpt = temp_ckpt("mismatch");
        let steps: Vec<usize> = (0..20).collect();
        let policy = RunPolicy::default().with_checkpoint(&ckpt);
        let _report: RunReport<bool> = run_steps(&engine, &steps, 1, &policy, |_, _| true).unwrap();
        // Same file, different caller fingerprint: refused, not resumed.
        let err = run_steps::<bool, _>(&engine, &steps, 2, &policy, |_, _| true).unwrap_err();
        assert!(matches!(err, QntnError::CheckpointMismatch { .. }), "{err}");
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn quarantine_completes_around_a_panicking_chunk() {
        let sim = hap_sim(30);
        let engine = SweepEngine::new(&sim);
        let steps: Vec<usize> = (0..30).collect();
        let policy = RunPolicy::default()
            .with_chunk_steps(5)
            .with_panic_policy(PanicPolicy::Quarantine);
        let report: RunReport<bool> = run_steps(&engine, &steps, 3, &policy, |scratch, step| {
            assert!(step != 12, "injected panic at step 12");
            engine.active_graph_into(step, scratch);
            engine.sim().lans_interconnected(&scratch.active)
        })
        .unwrap();
        assert!(report.is_complete());
        assert!(!report.is_clean());
        assert_eq!(report.panics.len(), 1);
        assert_eq!(report.panics[0].step_range, (12, 12));
        assert!(report.panics[0].payload.contains("injected panic"));
        assert!(report.outputs[12].is_none());
        let healthy = report.outputs.iter().filter(|o| o.is_some()).count();
        assert_eq!(healthy, 29);
    }

    #[test]
    fn fail_fast_surfaces_a_structured_chunk_panic() {
        let sim = hap_sim(30);
        let engine = SweepEngine::new(&sim);
        let steps: Vec<usize> = (0..30).collect();
        let policy = RunPolicy::default().with_chunk_steps(10);
        let err = run_steps::<bool, _>(&engine, &steps, 3, &policy, |_, step| {
            assert!(step != 15, "boom at 15");
            true
        })
        .unwrap_err();
        match err {
            QntnError::ChunkPanic {
                step_range,
                payload,
            } => {
                assert_eq!(step_range, (15, 15));
                assert!(payload.contains("boom at 15"), "{payload}");
            }
            other => panic!("expected ChunkPanic, got {other:?}"),
        }
    }

    #[test]
    fn consecutive_panicked_steps_group_into_one_range() {
        let reports = group_panics(
            &[10, 11, 12, 13, 14],
            &[
                None,
                Some("a".into()),
                Some("b".into()),
                None,
                Some("c".into()),
            ],
        );
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].step_range, (11, 12));
        assert_eq!(reports[0].payload, "a");
        assert_eq!(reports[1].step_range, (14, 14));
    }

    #[test]
    fn request_outcomes_round_trip_bit_exactly() {
        let outcomes = vec![
            RequestOutcome::Unserved,
            RequestOutcome::Served(Distribution {
                path: vec![0, 3, 2],
                eta: 0.731,
                fidelity: 0.967,
                fidelity_jozsa: 0.935,
                mean_link_fidelity: 0.981,
            }),
        ];
        let bytes = codec::encode_to_vec(&outcomes);
        let back: Vec<RequestOutcome> = codec::decode_all(&bytes).unwrap();
        assert_eq!(back, outcomes);
        if let (RequestOutcome::Served(a), RequestOutcome::Served(b)) = (&outcomes[1], &back[1]) {
            assert_eq!(a.eta.to_bits(), b.eta.to_bits());
            assert_eq!(a.fidelity.to_bits(), b.fidelity.to_bits());
        }
    }

    #[test]
    fn resilient_request_sweep_recovers_the_plain_stats() {
        use crate::requests::aggregate_outcomes;
        use qntn_routing::RouteMetric;
        let sim = hap_sim(20);
        let engine = SweepEngine::new(&sim);
        let steps: Vec<usize> = (0..20).step_by(3).collect();
        let metric = RouteMetric::PaperInverseEta;
        let report = engine
            .sweep_resilient(&steps, 10, 2024, metric, &RunPolicy::default())
            .unwrap();
        let per_step = report.into_clean_outputs().unwrap();
        assert_eq!(
            aggregate_outcomes(&per_step),
            engine.sweep(&steps, 10, 2024, metric)
        );
    }

    #[test]
    fn completed_checkpoint_resumes_to_an_instant_noop() {
        let sim = hap_sim(15);
        let engine = SweepEngine::new(&sim);
        let ckpt = temp_ckpt("noop");
        let steps: Vec<usize> = (0..15).collect();
        let policy = RunPolicy::default().with_checkpoint(&ckpt);
        let evals = AtomicUsize::new(0);
        let first: RunReport<bool> = run_steps(&engine, &steps, 9, &policy, |_, _| {
            evals.fetch_add(1, Ordering::SeqCst);
            true
        })
        .unwrap();
        assert!(first.is_clean());
        assert_eq!(evals.load(Ordering::SeqCst), 15);
        let second: RunReport<bool> = run_steps(&engine, &steps, 9, &policy, |_, _| {
            evals.fetch_add(1, Ordering::SeqCst);
            true
        })
        .unwrap();
        assert!(second.is_clean());
        assert_eq!(second.resumed_from, 15);
        assert_eq!(evals.load(Ordering::SeqCst), 15, "no re-evaluation");
        std::fs::remove_file(&ckpt).ok();
    }
}
