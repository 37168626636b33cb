//! A probe of the host's speed, sampled beside a timed run.
//!
//! On a shared host the CPU runs slower for spells of seconds to minutes,
//! and inside a spell every sample of a run is slow alike. On the 2-vCPU VM
//! the benchmark was tuned on, the 1M-request serve phase took from 1.7 to
//! 3.4 s over a quarter of an hour, its user CPU time moving in step with
//! its wall time and under 1% of the time stolen. More samples do not average such spells away,
//! so a timed run also measures how fast the host is while it runs.
//!
//! A probe thread wakes every [`PERIOD`], moves to the CPU the timed
//! iterations last ran on, and times a fixed kernel of its own. The
//! kernel's median time over a sample's interval, against its time on an
//! idle host ([`NOMINAL_S`]), is the host's slowdown over that interval; a
//! sample divided by it is the sample at nominal speed. Of the kernels tried
//! on that VM, eight independent integer chains tracked the workloads'
//! spells best: over windows as long as one run, the spread of the window
//! medians fell to about half (see `README.md`). Cache- and memory-bound
//! kernels tracked them worse.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between probes. A probe runs for about a hundredth of it.
const PERIOD: Duration = Duration::from_millis(10);

/// Rounds of one probe kernel.
const ROUNDS: u64 = 30_000;

/// The kernel's median time on the 2-vCPU VM the benchmark was tuned on,
/// with nothing else of the VM running. It only sets the scale of the
/// results.
const NOMINAL_S: f64 = 120e-6;

/// Shortest stretch of probes one sample's slowdown is taken from.
const MIN_WINDOW_S: f64 = 0.2;

/// A timed interval of the run.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub start: Instant,
    pub secs: f64,
}

impl Timed {
    /// From `start` to now.
    pub fn since(start: Instant) -> Timed {
        Timed {
            start,
            secs: start.elapsed().as_secs_f64(),
        }
    }
}

/// A running probe thread. Dropping it stops the thread and waits for it.
pub struct Probe {
    origin: Instant,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Vec<(f64, f64)>>>,
}

impl Probe {
    pub fn start() -> Probe {
        let origin = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut probes = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(PERIOD);
                if let Some(cpu) = main_thread_cpu() {
                    pin_to(cpu);
                }
                let clock = Instant::now();
                std::hint::black_box(kernel(std::hint::black_box(ROUNDS)));
                let secs = clock.elapsed().as_secs_f64();
                probes.push(((clock - origin).as_secs_f64(), secs));
            }
            probes
        });
        Probe {
            origin,
            stop,
            thread: Some(thread),
        }
    }

    /// Stop the probe thread and take its probes.
    pub fn finish(mut self) -> Result<Probes, String> {
        let probes = self.join()?;
        Ok(Probes {
            origin: self.origin,
            probes,
        })
    }

    fn join(&mut self) -> Result<Vec<(f64, f64)>, String> {
        self.stop.store(true, Ordering::Relaxed);
        match self.thread.take() {
            Some(thread) => thread
                .join()
                .map_err(|_| "the host probe thread panicked".to_string()),
            None => Ok(Vec::new()),
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        // Only reached on an error path, whose error is the one to report.
        let _ = self.join();
    }
}

/// The probes of one timed run: when each started and how long its kernel
/// took, s, the start relative to the probe's start.
pub struct Probes {
    origin: Instant,
    probes: Vec<(f64, f64)>,
}

impl Probes {
    /// The host's slowdown over `t`: the median kernel time of the probes
    /// that started in it, widened to [`MIN_WINDOW_S`] around its middle,
    /// over [`NOMINAL_S`].
    pub fn slowdown(&self, t: Timed) -> Result<f64, String> {
        let from = t.start.saturating_duration_since(self.origin).as_secs_f64();
        let pad = (MIN_WINDOW_S - t.secs).max(0.0) / 2.0;
        let (a, b) = (from - pad, from + t.secs + pad);
        let mut inside: Vec<f64> = self
            .probes
            .iter()
            .filter(|&&(start, _)| start >= a && start <= b)
            .map(|&(_, secs)| secs)
            .collect();
        if inside.is_empty() {
            return Err(format!("no host probe ran in a {:.3} s sample", t.secs));
        }
        Ok(median(&mut inside) / NOMINAL_S)
    }

    /// `t`'s seconds at the host's nominal speed.
    pub fn at_nominal(&self, t: Timed) -> Result<f64, String> {
        Ok(t.secs / self.slowdown(t)?)
    }
}

/// The median of `v`: the upper middle value of an even count.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The CPU the process's main thread, which runs the timed iterations, last
/// ran on: field 39 of its `/proc` stat line.
fn main_thread_cpu() -> Option<usize> {
    let path = format!("/proc/self/task/{}/stat", std::process::id());
    let stat = std::fs::read_to_string(path).ok()?;
    // Fields after the parenthesised command name start at field 3.
    let (_, rest) = stat.rsplit_once(')')?;
    rest.split_whitespace().nth(39 - 3)?.parse().ok()
}

extern "C" {
    /// glibc's `sched_setaffinity(2)` wrapper; `pid` 0 is the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Move the calling thread to `cpu`, where it shares the core with the
/// program's work. On an idle core the kernel reads slow while the core
/// wakes up, which is not the speed the program sees: with the probe left
/// free, the scaled throughput of the single-threaded `overload_flash_400k`
/// phase spread by 23.5% over ten runs, while six runs with probe and
/// program held on one CPU stayed within 7%. A failed call leaves the probe
/// where it was.
fn pin_to(cpu: usize) {
    let mut mask = [0u64; 16];
    if let Some(word) = mask.get_mut(cpu / 64) {
        *word = 1 << (cpu % 64);
        // SAFETY: `mask` is a 1024-bit CPU set, the size glibc's `cpu_set_t`
        // has, and the call only reads `cpusetsize` bytes of it.
        unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) };
    }
}

/// Eight independent xorshift chains: integer work with a lot of
/// instruction-level parallelism, which touches no memory.
fn kernel(rounds: u64) -> u64 {
    let mut x = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for _ in 0..rounds {
        for v in x.iter_mut() {
            *v ^= *v << 13;
            *v ^= *v >> 7;
            *v ^= *v << 17;
        }
    }
    x.iter().fold(0, |a, b| a ^ b)
}
