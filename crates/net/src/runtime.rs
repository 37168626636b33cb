//! The resilient sweep runtime: checkpoint/resume, cooperative
//! cancellation, and panic isolation for long-running sweeps.
//!
//! The [`crate::SweepEngine`] makes a full-day sweep *fast*; this module
//! makes it *survivable*. A run cuts its steps into chunks of
//! [`RunPolicy::chunk_steps`] and evaluates them in one parallel stage:
//! every worker keeps one [`SweepScratch`] for the whole run and claims
//! contiguous work units in ascending step order from a shared cursor (a
//! unit is a chunk, or a piece of one when the run has too few chunks to
//! keep every worker busy). Results land in an ordered completion table,
//! and as the completed prefix crosses each chunk boundary, in chunk order:
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
//! - **panic isolation** — evaluations run under `catch_unwind`, so a
//!   panicking chunk poisons only itself. [`run_steps`] catches each
//!   step on its own, so a panic poisons one step; [`run_ranges`] hands
//!   its evaluator a whole work unit and catches the unit, so a panic
//!   poisons every step of that unit. Under
//!   [`PanicPolicy::FailFast`] the prefix stops before the lowest
//!   panicking chunk, whichever panic came first in time; the run
//!   checkpoints that prefix and returns the structured
//!   [`QntnError::ChunkPanic`]. Under [`PanicPolicy::Quarantine`] the
//!   poisoned step range is recorded in the report, its outputs stay
//!   `None`, and every healthy chunk completes.
//!
//! **Cancellation / deadlines**: a [`RunControl`] is polled before each
//! chunk is opened; a tripped [`qntn_common::CancelToken`] or expired
//! [`qntn_common::Deadline`] (or a fail-fast panic) stops the claiming of
//! new chunks. Chunks already opened finish, so the run ends on a chunk
//! boundary with a final checkpoint and a well-formed partial
//! [`RunReport`] instead of being torn down. Chunks therefore set the
//! granularity of checkpoints, stops and panic reports, not how the work
//! is spread over threads.
//!
//! The runtime is generic over the per-step output type `T:`
//! [`FrameCodec`], so the same machinery drives connectivity-flag sweeps
//! (`T = bool`), per-group serve aggregates, and any future long-running
//! workload.

// The resilience layer must never itself be a panic source: unwrap/expect
// are denied outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::sweep_engine::{SweepEngine, SweepScratch};
use qntn_common::codec::{ByteReader, DecodeError, FrameCodec};
use qntn_common::{frame, QntnError, RunControl, StopCause};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;

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
    /// Steps per chunk: the granularity of checkpoints, stops and panic
    /// reports. Chunk boundaries are where the run checkpoints and where a
    /// stop ends it; `1` gives step-granularity stops at the cost of a
    /// checkpoint write per step. Workers claim chunks from one parallel
    /// stage, so the size does not set how work is spread over threads.
    pub chunk_steps: usize,
    /// Checkpoint file. `None` disables checkpointing (the run still honours
    /// cancellation and panic policy).
    pub checkpoint: Option<PathBuf>,
    /// Write the checkpoint every this many completed chunks (the final
    /// state — completion or interruption — is always written).
    pub checkpoint_every_chunks: usize,
    /// Cancellation / deadline budget, polled before each chunk is opened.
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
    /// The payload of a frame holding `prefix`, the outputs of the first
    /// `prefix.len()` of `total` steps.
    fn encode(
        fingerprint: u64,
        total: usize,
        panics: &[ChunkPanicReport],
        prefix: &[Option<T>],
    ) -> Vec<u8> {
        let mut out = Vec::new();
        fingerprint.encode(&mut out);
        total.encode(&mut out);
        prefix.len().encode(&mut out);
        let panics: Vec<(usize, usize, String)> = panics
            .iter()
            .map(|p| (p.step_range.0, p.step_range.1, p.payload.clone()))
            .collect();
        panics.encode(&mut out);
        for slot in prefix {
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
        // Guard the allocation as `Vec::decode` does: every slot takes at
        // least its tag byte, so a count beyond the bytes left is corrupt.
        if completed > r.remaining() {
            return Err(DecodeError(format!(
                "completed {completed} exceeds the {} payload bytes left",
                r.remaining()
            )));
        }
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

/// Work units for positions `start..total`: the chunks of `chunk_steps`
/// positions from `start`, each cut into equal pieces when the run has
/// fewer chunks than `4 × workers`, so that every worker stays busy to the
/// end. Units ascend, and none straddles a chunk boundary.
/// [`SweepEngine::map_ranges`] runs on the units of one chunk spanning the
/// whole slice.
pub(crate) fn plan_units(
    start: usize,
    total: usize,
    chunk_steps: usize,
    workers: usize,
) -> Vec<Range<usize>> {
    let chunks = (total - start).div_ceil(chunk_steps).max(1);
    let pieces = workers.saturating_mul(4).div_ceil(chunks);
    (start..total)
        .step_by(chunk_steps)
        .flat_map(|lo| {
            let hi = lo.saturating_add(chunk_steps).min(total);
            let len = (hi - lo).div_ceil(pieces);
            (lo..hi).step_by(len).map(move |a| a..(a + len).min(hi))
        })
        .collect()
}

/// One run's shared state, behind one lock: the claim cursor over the work
/// units, the completion table and the folded prefix. A worker takes the
/// lock to hand a unit's results in and to claim its next unit; whoever
/// hands in the unit that extends the prefix folds it, chunk by chunk.
struct Stage<'r, T> {
    policy: &'r RunPolicy,
    steps: &'r [usize],
    fingerprint: u64,
    /// Where this run started: chunks run `chunk_steps` positions from here.
    start: usize,
    chunk_steps: usize,
    units: Vec<Range<usize>>,
    /// The next unit to claim.
    next: usize,
    /// Units handed in, by unit index.
    done: Vec<bool>,
    /// Units folded into the prefix.
    folded: usize,
    /// Set once no new chunk may be opened: by a stop, a fail-fast panic or
    /// a failed checkpoint write.
    halted: bool,
    /// Why the control stopped the run, if it did.
    stop: Option<StopCause>,
    /// The run's error; once set, the prefix advances no further.
    error: Option<QntnError>,
    outputs: Vec<Option<T>>,
    /// Panic payloads by position, until their chunk is folded.
    failures: Vec<Option<String>>,
    panics: Vec<ChunkPanicReport>,
    /// Positions folded: the leading chunks, evaluated or quarantined.
    completed: usize,
}

impl<T: FrameCodec> Stage<'_, T> {
    fn is_chunk_boundary(&self, pos: usize) -> bool {
        pos == self.steps.len() || (pos - self.start).is_multiple_of(self.chunk_steps)
    }

    /// The next unit and its positions. Opening a new chunk first polls the
    /// control; after a stop or a fail-fast panic only the rest of an open
    /// chunk is handed out, so every chunk that evaluated a step completes.
    fn claim(&mut self) -> Option<(usize, Range<usize>)> {
        let unit = self.units.get(self.next)?.clone();
        if self.is_chunk_boundary(unit.start) {
            if !self.halted {
                self.stop = self.policy.control.should_stop();
                self.halted = self.stop.is_some();
            }
            if self.halted {
                return None;
            }
        }
        self.next += 1;
        Some((self.next - 1, unit))
    }

    /// Record a unit's results, then fold every chunk the prefix now
    /// covers.
    fn hand_in(&mut self, unit: usize, results: Vec<Result<T, String>>) {
        for (pos, result) in self.units[unit].clone().zip(results) {
            match result {
                Ok(value) => self.outputs[pos] = Some(value),
                Err(payload) => {
                    self.failures[pos] = Some(payload);
                    self.halted |= self.policy.panic_policy == PanicPolicy::FailFast;
                }
            }
        }
        self.done[unit] = true;
        while self.error.is_none() && self.folded < self.units.len() && self.done[self.folded] {
            let end = self.units[self.folded].end;
            self.folded += 1;
            if self.is_chunk_boundary(end) {
                self.fold_chunk(end);
            }
        }
    }

    /// Extend the prefix over the chunk ending at `end`: record its
    /// quarantined panics or resolve fail-fast, then checkpoint at the
    /// policy's cadence.
    fn fold_chunk(&mut self, end: usize) {
        let lo = self.completed;
        let chunk_panics = group_panics(&self.steps[lo..end], &self.failures[lo..end]);
        if let Some(first) = chunk_panics.first() {
            match self.policy.panic_policy {
                PanicPolicy::FailFast => {
                    // The prefix ends before this chunk for good, the lowest
                    // that panicked: checkpoint the healthy prefix, then
                    // surface the panic.
                    let panic = first.to_error();
                    self.error = Some(self.checkpoint().err().unwrap_or(panic));
                    return;
                }
                PanicPolicy::Quarantine => self.panics.extend(chunk_panics),
            }
        }
        self.completed = end;
        let chunks = (end - self.start).div_ceil(self.chunk_steps);
        if chunks.is_multiple_of(self.policy.checkpoint_every_chunks.max(1))
            || end == self.steps.len()
        {
            if let Err(e) = self.checkpoint() {
                self.error = Some(e);
                self.halted = true;
            }
        }
    }

    /// Write the folded prefix to the policy's checkpoint file, if any.
    fn checkpoint(&self) -> Result<(), QntnError> {
        let Some(path) = &self.policy.checkpoint else {
            return Ok(());
        };
        let payload = CheckpointState::encode(
            self.fingerprint,
            self.steps.len(),
            &self.panics,
            &self.outputs[..self.completed],
        );
        frame::write_frame_atomic(path, CHECKPOINT_VERSION, &payload)
    }
}

/// Run `eval` over `steps` on `engine` resiliently. See the module docs
/// for the guarantees; `caller_fingerprint` must encode every parameter
/// the outputs depend on (constellation size, seeds, thresholds — use
/// [`qntn_common::frame::fingerprint`]), because it is what stops a stale
/// checkpoint from silently seeding a different run.
///
/// Each step evaluates under its own `catch_unwind`, so a panic poisons
/// only the step that raised it.
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
    run_stage(
        engine,
        steps,
        caller_fingerprint,
        policy,
        |scratch, unit| {
            unit.map(|pos| {
                catch_unwind(AssertUnwindSafe(|| eval(scratch, steps[pos])))
                    .map_err(panic_payload_to_string)
            })
            .collect()
        },
    )
}

/// [`run_steps`] for an evaluator that takes a whole work unit at once:
/// `eval` receives a contiguous range of `steps` — a chunk, or a piece of
/// one — and returns one output per step of it, in order. A caller that
/// shares work between the steps of a range (one routing round for every
/// group attempting at a step) gets that sharing without giving up
/// checkpoints, stops or panic isolation. Each output must still be a
/// function of its step alone, whatever range it arrives in: a resumed
/// run plans its units afresh from the completed prefix.
///
/// One `catch_unwind` covers the whole range, so a panic poisons every
/// step of its unit: one [`ChunkPanicReport`] spans the unit. An `eval`
/// that returns the wrong number of outputs is reported the same way, as
/// a panic of that range, and never shifts outputs onto other steps.
pub fn run_ranges<T, F>(
    engine: &SweepEngine<'_>,
    steps: &[usize],
    caller_fingerprint: u64,
    policy: &RunPolicy,
    eval: F,
) -> Result<RunReport<T>, QntnError>
where
    T: FrameCodec + Clone + Send,
    F: Fn(&mut SweepScratch, &[usize]) -> Vec<T> + Sync,
{
    run_stage(
        engine,
        steps,
        caller_fingerprint,
        policy,
        |scratch, unit| {
            let range = &steps[unit];
            let failure = match catch_unwind(AssertUnwindSafe(|| eval(scratch, range))) {
                Ok(outputs) if outputs.len() == range.len() => {
                    return outputs.into_iter().map(Ok).collect();
                }
                Ok(outputs) => format!(
                    "a range evaluation returned {} outputs for {} steps",
                    outputs.len(),
                    range.len()
                ),
                Err(payload) => panic_payload_to_string(payload),
            };
            vec![Err(failure); range.len()]
        },
    )
}

/// The stage both [`run_steps`] and [`run_ranges`] run: load the
/// checkpoint, plan the work units, let every worker claim units and
/// evaluate each through `unit`, which returns one result per position
/// of the unit (an `Err` carries a caught panic's payload), and fold the
/// prefix.
fn run_stage<T, U>(
    engine: &SweepEngine<'_>,
    steps: &[usize],
    caller_fingerprint: u64,
    policy: &RunPolicy,
    unit: U,
) -> Result<RunReport<T>, QntnError>
where
    T: FrameCodec + Clone + Send,
    U: Fn(&mut SweepScratch, Range<usize>) -> Vec<Result<T, String>> + Sync,
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
    let units = plan_units(completed, total, chunk_steps, engine.workers());
    let stage = Mutex::new(Stage {
        policy,
        steps,
        fingerprint,
        start: completed,
        chunk_steps,
        next: 0,
        done: vec![false; units.len()],
        units,
        folded: 0,
        halted: false,
        stop: None,
        error: None,
        outputs,
        failures: vec![None; total],
        panics,
        completed,
    });
    // Hand a unit's results in, if there are any, then claim the next
    // unit. The lock is poisoned only by a panic in the runtime's own code
    // (evaluations run outside it, under `catch_unwind`); the other workers
    // then stop, and the stage re-raises that panic once they have.
    let exchange = |handed: Option<(usize, Vec<Result<T, String>>)>| {
        let mut stage = stage.lock().ok()?;
        if let Some((unit, results)) = handed {
            stage.hand_in(unit, results);
        }
        stage.claim()
    };
    if completed < total {
        engine.run_workers(|scratch| {
            let mut claimed = exchange(None);
            while let Some((index, positions)) = claimed {
                // `unit` catches panics in the worker itself, so the
                // payload survives verbatim. The scratch is safe to reuse
                // afterwards: every evaluation resets what it reads, and
                // the layer cache fills a slot only once its build returns.
                let results = unit(scratch, positions);
                claimed = exchange(Some((index, results)));
            }
        });
    }

    let stage = stage
        .into_inner()
        .map_err(|_| QntnError::Other("a runtime worker panicked holding the stage lock".into()))?;
    if let Some(error) = stage.error {
        return Err(error);
    }
    // Every opened chunk finished; a run that still fell short was stopped.
    let stopped = if stage.completed < total {
        stage.checkpoint()?;
        stage.stop
    } else {
        None
    };
    Ok(RunReport {
        outputs: stage.outputs,
        completed: stage.completed,
        resumed_from,
        stopped,
        panics: stage.panics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;
    use crate::linkeval::SimConfig;
    use crate::simulator::QuantumNetworkSim;
    use qntn_common::CancelToken;
    use qntn_geo::Geodetic;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

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

    /// The connectivity flag of `step`.
    fn flag(engine: &SweepEngine<'_>, scratch: &mut SweepScratch, step: usize) -> bool {
        engine.active_graph_into(step, scratch);
        engine.sim().lans_interconnected(&scratch.active)
    }

    #[test]
    fn clean_resilient_flags_match_the_plain_sweep() {
        let sim = hap_sim(40);
        let engine = SweepEngine::new(&sim);
        let steps: Vec<usize> = (0..40).collect();
        let policy = RunPolicy::default();
        let report = run_steps(&engine, &steps, 0, &policy, |scratch, step| {
            flag(&engine, scratch, step)
        })
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
    fn a_frame_claiming_more_steps_than_it_holds_is_corrupt() {
        let sim = hap_sim(10);
        let engine = SweepEngine::new(&sim);
        let ckpt = temp_ckpt("oversized");
        // A CRC-valid frame whose header claims 2^40 completed steps (of
        // 2^40) and carries none: decoding must refuse it before sizing a
        // buffer by the claim, ahead of the fingerprint and total checks.
        let claimed = 1usize << 40;
        let mut payload = Vec::new();
        0u64.encode(&mut payload);
        claimed.encode(&mut payload);
        claimed.encode(&mut payload);
        Vec::<(usize, usize, String)>::new().encode(&mut payload);
        frame::write_frame_atomic(&ckpt, CHECKPOINT_VERSION, &payload).unwrap();
        let steps: Vec<usize> = (0..10).collect();
        let policy = RunPolicy::default().with_checkpoint(&ckpt);
        let err = run_steps(&engine, &steps, 0, &policy, |scratch, step| {
            flag(&engine, scratch, step)
        })
        .unwrap_err();
        std::fs::remove_file(&ckpt).ok();
        assert!(matches!(err, QntnError::CorruptFrame { .. }), "{err}");
        assert!(err.to_string().contains("payload bytes left"), "{err}");
    }

    #[test]
    fn fail_fast_reports_the_lowest_panicking_chunk_whichever_panicked_first() {
        let sim = hap_sim(96);
        let steps: Vec<usize> = (0..96).collect();
        for workers in [1, 2, 3] {
            let engine = SweepEngine::new(&sim).with_workers(workers);
            let several_workers = workers > 1;
            let ckpt = temp_ckpt("lowest");
            let policy = RunPolicy::default()
                .with_chunk_steps(8)
                .with_checkpoint(&ckpt);
            // With several workers, step 20 (chunk 2) waits until step 30
            // (chunk 3) has panicked, so the higher chunk panics first.
            let order = std::sync::Mutex::new(Vec::new());
            let high_panicked = AtomicBool::new(false);
            let err = run_steps::<bool, _>(&engine, &steps, 11, &policy, |_, step| {
                if step == 20 {
                    for _ in 0..10_000 {
                        if !several_workers || high_panicked.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    order.lock().unwrap().push(step);
                    panic!("low panic at {step}");
                }
                if step == 30 {
                    order.lock().unwrap().push(step);
                    high_panicked.store(true, Ordering::SeqCst);
                    panic!("high panic at {step}");
                }
                true
            })
            .unwrap_err();
            match err {
                QntnError::ChunkPanic {
                    step_range,
                    payload,
                } => {
                    assert_eq!(step_range, (20, 20), "{workers} workers");
                    assert!(payload.contains("low panic at 20"), "{payload}");
                }
                other => panic!("expected ChunkPanic, got {other:?}"),
            }
            let order = order.into_inner().unwrap();
            if several_workers {
                assert_eq!(order, vec![30, 20], "the higher chunk panicked first");
            } else {
                assert_eq!(order, vec![20], "one worker opens no chunk after a panic");
            }
            // The checkpoint holds the prefix before the lowest panicking
            // chunk, so the resume starts at that chunk's first step.
            let resumed = run_steps::<bool, _>(&engine, &steps, 11, &policy, |_, _| true).unwrap();
            std::fs::remove_file(&ckpt).ok();
            assert_eq!(resumed.resumed_from, 16, "{workers} workers");
            assert!(resumed.is_clean());
        }
    }

    #[test]
    fn a_fail_fast_panic_finishes_its_chunk_when_the_chunk_runs_in_pieces() {
        // One chunk over the whole run is cut into pieces. A panic in the
        // first piece opens no new chunk, but the rest of this one still
        // runs, so the prefix reaches it and the run fails fast.
        let sim = hap_sim(96);
        let steps: Vec<usize> = (0..96).collect();
        for workers in [1, 2, 3] {
            let engine = SweepEngine::new(&sim).with_workers(workers);
            let policy = RunPolicy::default().with_chunk_steps(96);
            let evals = AtomicUsize::new(0);
            let err = run_steps::<bool, _>(&engine, &steps, 17, &policy, |_, step| {
                evals.fetch_add(1, Ordering::SeqCst);
                assert!(step != 0, "boom at {step}");
                true
            })
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    QntnError::ChunkPanic {
                        step_range: (0, 0),
                        ..
                    }
                ),
                "{workers} workers: {err:?}"
            );
            assert_eq!(evals.load(Ordering::SeqCst), 96, "{workers} workers");
        }
    }

    #[test]
    fn a_stop_ends_on_the_chunk_boundary_past_every_evaluated_step() {
        let sim = hap_sim(96);
        let steps: Vec<usize> = (0..96).collect();
        let straight = SweepEngine::new(&sim).connectivity_flags();
        // Chunks of 13 and more leave fewer chunks than 4 x workers, so
        // they run as pieces.
        for chunk in [1, 3, 8, 13, 40, 96] {
            for kill_after in [1, 5, 17, 50] {
                for workers in [1, 2, 3] {
                    let engine = SweepEngine::new(&sim).with_workers(workers);
                    let ckpt = temp_ckpt("stop");
                    let token = CancelToken::new();
                    let evals = AtomicUsize::new(0);
                    let evaluated: Vec<AtomicBool> =
                        (0..96).map(|_| AtomicBool::new(false)).collect();
                    let policy = RunPolicy::default()
                        .with_chunk_steps(chunk)
                        .with_checkpoint(&ckpt)
                        .with_control(RunControl::unlimited().with_cancel(token.clone()));
                    let partial = run_steps(&engine, &steps, 13, &policy, |scratch, step| {
                        evaluated[step].store(true, Ordering::SeqCst);
                        if evals.fetch_add(1, Ordering::SeqCst) + 1 >= kill_after {
                            token.cancel();
                        }
                        flag(&engine, scratch, step)
                    })
                    .unwrap();
                    let ctx = format!("chunk {chunk}, kill after {kill_after}, {workers} workers");
                    let done = partial.completed;
                    assert!(done % chunk == 0 || done == 96, "{ctx}: completed {done}");
                    assert!(done >= kill_after, "{ctx}: completed {done}");
                    for (step, flag) in evaluated.iter().enumerate() {
                        if flag.load(Ordering::SeqCst) {
                            assert!(step < done, "{ctx}: step {step} evaluated past {done}");
                            assert_eq!(partial.outputs[step], Some(straight[step]), "{ctx}");
                        } else {
                            assert!(partial.outputs[step].is_none(), "{ctx}: step {step}");
                        }
                    }
                    assert_eq!(partial.stopped.is_some(), done < 96, "{ctx}");

                    let resume = RunPolicy::default()
                        .with_chunk_steps(chunk)
                        .with_checkpoint(&ckpt);
                    let full = run_steps(&engine, &steps, 13, &resume, |scratch, step| {
                        flag(&engine, scratch, step)
                    })
                    .unwrap();
                    std::fs::remove_file(&ckpt).ok();
                    assert_eq!(full.resumed_from, done, "{ctx}");
                    assert_eq!(full.into_clean_outputs().unwrap(), straight, "{ctx}");
                }
            }
        }
    }

    /// The connectivity flag of every step of `range`.
    fn flags(engine: &SweepEngine<'_>, scratch: &mut SweepScratch, range: &[usize]) -> Vec<bool> {
        range
            .iter()
            .map(|&step| flag(engine, scratch, step))
            .collect()
    }

    #[test]
    fn a_panicking_range_poisons_exactly_its_unit_under_quarantine() {
        let sim = hap_sim(96);
        let steps: Vec<usize> = (0..96).collect();
        let straight = SweepEngine::new(&sim).connectivity_flags();
        for workers in [1, 2, 3] {
            let engine = SweepEngine::new(&sim).with_workers(workers);
            let policy = RunPolicy::default()
                .with_chunk_steps(8)
                .with_panic_policy(PanicPolicy::Quarantine);
            let poisoned = Mutex::new(Vec::new());
            let report = run_ranges(&engine, &steps, 19, &policy, |scratch, range| {
                if range.contains(&42) {
                    *poisoned.lock().unwrap() = range.to_vec();
                    panic!("range boom at {}", range[0]);
                }
                flags(&engine, scratch, range)
            })
            .unwrap();
            let unit = poisoned.into_inner().unwrap();
            let ctx = format!("{workers} workers, unit {unit:?}");
            assert!(report.is_complete() && !report.is_clean(), "{ctx}");
            assert_eq!(report.panics.len(), 1, "{ctx}");
            assert_eq!(report.panics[0].step_range, (unit[0], unit[unit.len() - 1]));
            assert!(report.panics[0].payload.contains("range boom"), "{ctx}");
            for (step, output) in report.outputs.iter().enumerate() {
                if unit.contains(&step) {
                    assert!(output.is_none(), "{ctx}: step {step}");
                } else {
                    assert_eq!(*output, Some(straight[step]), "{ctx}: step {step}");
                }
            }
        }
    }

    #[test]
    fn a_fail_fast_range_panic_names_its_unit_and_resumes_at_its_chunk() {
        let sim = hap_sim(96);
        let steps: Vec<usize> = (0..96).collect();
        let straight = SweepEngine::new(&sim).connectivity_flags();
        for workers in [1, 2, 3] {
            let engine = SweepEngine::new(&sim).with_workers(workers);
            let ckpt = temp_ckpt("range_fail_fast");
            let policy = RunPolicy::default()
                .with_chunk_steps(8)
                .with_checkpoint(&ckpt);
            let first = AtomicUsize::new(usize::MAX);
            let err = run_ranges::<bool, _>(&engine, &steps, 23, &policy, |scratch, range| {
                if range.contains(&20) {
                    first.store(range[0], Ordering::SeqCst);
                    panic!("range boom");
                }
                flags(&engine, scratch, range)
            })
            .unwrap_err();
            match err {
                QntnError::ChunkPanic { step_range, .. } => {
                    assert_eq!(
                        step_range.0,
                        first.load(Ordering::SeqCst),
                        "{workers} workers"
                    );
                }
                other => panic!("expected ChunkPanic, got {other:?}"),
            }
            let resumed = run_ranges(&engine, &steps, 23, &policy, |scratch, range| {
                flags(&engine, scratch, range)
            })
            .unwrap();
            std::fs::remove_file(&ckpt).ok();
            assert_eq!(resumed.resumed_from, 16, "{workers} workers");
            assert_eq!(resumed.into_clean_outputs().unwrap(), straight);
        }
    }

    #[test]
    fn a_range_returning_the_wrong_count_is_a_panic_of_that_range() {
        let sim = hap_sim(96);
        let steps: Vec<usize> = (0..96).collect();
        let straight = SweepEngine::new(&sim).connectivity_flags();
        for workers in [1, 2, 3] {
            let engine = SweepEngine::new(&sim).with_workers(workers);
            let policy = RunPolicy::default()
                .with_chunk_steps(8)
                .with_panic_policy(PanicPolicy::Quarantine);
            let short = Mutex::new(Vec::new());
            let report = run_ranges(&engine, &steps, 29, &policy, |scratch, range| {
                let mut out = flags(&engine, scratch, range);
                if range.contains(&50) {
                    *short.lock().unwrap() = range.to_vec();
                    out.pop();
                }
                out
            })
            .unwrap();
            let unit = short.into_inner().unwrap();
            let ctx = format!("{workers} workers, unit {unit:?}");
            assert_eq!(report.panics.len(), 1, "{ctx}");
            assert_eq!(report.panics[0].step_range, (unit[0], unit[unit.len() - 1]));
            assert!(
                report.panics[0].payload.contains("returned"),
                "{ctx}: {}",
                report.panics[0].payload
            );
            for (step, output) in report.outputs.iter().enumerate() {
                if unit.contains(&step) {
                    assert!(output.is_none(), "{ctx}: step {step}");
                } else {
                    assert_eq!(*output, Some(straight[step]), "{ctx}: step {step}");
                }
            }
        }
    }

    #[test]
    fn a_cancel_inside_a_range_ends_on_a_chunk_boundary_and_resumes_exactly() {
        let sim = hap_sim(96);
        let steps: Vec<usize> = (0..96).collect();
        let straight = SweepEngine::new(&sim).connectivity_flags();
        for chunk in [1, 5, 8, 40] {
            for kill_after in [1, 3, 9] {
                for workers in [1, 2, 3] {
                    let engine = SweepEngine::new(&sim).with_workers(workers);
                    let ckpt = temp_ckpt("range_stop");
                    let token = CancelToken::new();
                    let ranges = AtomicUsize::new(0);
                    let policy = RunPolicy::default()
                        .with_chunk_steps(chunk)
                        .with_checkpoint(&ckpt)
                        .with_control(RunControl::unlimited().with_cancel(token.clone()));
                    let partial = run_ranges(&engine, &steps, 31, &policy, |scratch, range| {
                        let out = flags(&engine, scratch, range);
                        if ranges.fetch_add(1, Ordering::SeqCst) + 1 >= kill_after {
                            token.cancel();
                        }
                        out
                    })
                    .unwrap();
                    let ctx = format!("chunk {chunk}, kill after {kill_after}, {workers} workers");
                    let done = partial.completed;
                    assert!(done % chunk == 0 || done == 96, "{ctx}: completed {done}");
                    assert_eq!(partial.stopped.is_some(), done < 96, "{ctx}");
                    for (step, output) in partial.outputs.iter().enumerate() {
                        if step < done {
                            assert_eq!(*output, Some(straight[step]), "{ctx}: step {step}");
                        } else {
                            assert!(output.is_none(), "{ctx}: step {step}");
                        }
                    }

                    let resume = RunPolicy::default()
                        .with_chunk_steps(chunk)
                        .with_checkpoint(&ckpt);
                    let planned = Mutex::new(Vec::new());
                    let full = run_ranges(&engine, &steps, 31, &resume, |scratch, range| {
                        planned.lock().unwrap().push(range[0]);
                        flags(&engine, scratch, range)
                    })
                    .unwrap();
                    std::fs::remove_file(&ckpt).ok();
                    assert_eq!(full.resumed_from, done, "{ctx}");
                    if done < 96 {
                        let planned = planned.into_inner().unwrap();
                        assert_eq!(planned.iter().min(), Some(&done), "{ctx}");
                    }
                    assert_eq!(full.into_clean_outputs().unwrap(), straight, "{ctx}");
                }
            }
        }
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
