//! The traced run (`--trace 1`): one thread, so spans nest and self times
//! add up; a span around every call into a layer; then the per-layer
//! table, the trace file and the per-layer metrics.
//!
//! How each workload is traced:
//! - `sweep_1080` walks the day's steps through `active_graph_into` and
//!   `lans_interconnected`, the two calls `connectivity_flags` makes, so its
//!   flags must equal those of the real call.
//! - `serve_uniform_1m` and `hold_poisson_200k` reach their lower layers
//!   from inside `qntn-serve`, so the pass replays the group loop of
//!   `serve_group_into` / `serve_group_hold_into` through the public
//!   calls: per attempt round one topology build, one SSSP per distinct
//!   source, one extraction per eligible request and one `realize` per
//!   served request. It folds the outcomes with `GroupAgg::from_outcomes`
//!   and `report_from_aggs`, and the report must equal the real call's.
//!   The replay describes the serving algorithm as it stood when the
//!   benchmark was written: once `qntn-serve` composes the layers
//!   differently, `serve.call_s` and the replay's wall time drift apart,
//!   and spans inside the program have to take over.
//! - `overload_flash_400k` runs one coupled step loop, so its pass records
//!   only the outer spans and the outcome counters.
//!
//! Each run makes two traced passes and one untimed pass between them;
//! every counter must repeat exactly across the three, and the tracing
//! overhead is the last traced pass's wall time minus the untimed one's.

use crate::measure::{process_cpu_s, with_setup, THREADS};
use crate::trace::{Kind, Profile, Spans, Tracer, Untimed, NO_GROUP};
use crate::workload::{self, Output, Workload, METRIC};
use crate::{mib, Args, Metric, RunResult};
use qntn_core::scenario::Qntn;
use qntn_net::entanglement::realize;
use qntn_net::requests::{RetryOutcome, RetryPolicy};
use qntn_net::{host_hold_factors, realize_with_hold, Distribution, SweepEngine, SweepScratch};
use qntn_orbit::EphemerisSample;
use qntn_routing::{bellman_ford_all_into, extract_time_route, route_from_table, time_sssp_into};
use qntn_serve::{
    ingest, report_from_aggs, GroupAgg, HoldPolicy, RawRequest, RequestQueue, ServeReport,
};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// Directory of the trace files, under the working directory.
const TRACE_DIR: &str = ".bench_out";

/// Work counters of one pass; each one must repeat exactly across passes.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counters {
    samples: u64,
    window_masks: u64,
    scene_candidates: u64,
    accepted: u64,
    rejected: u64,
    topology_calls: u64,
    topology_edges: u64,
    texp_calls: u64,
    texp_edges: u64,
    sssp_runs: u64,
    extract_calls: u64,
    routes: u64,
    tsssp_runs: u64,
    textract_calls: u64,
    troutes: u64,
    realize_calls: u64,
    attempt_rounds: u64,
    attempts: u64,
    distinct_sources: u64,
    served: u64,
    shed: u64,
    congestion_deferrals: u64,
    budget_deferrals: u64,
    degraded_steps: u64,
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let (w, seed) = (args.workload, args.seed);
    let scenario = Qntn::standard();
    let stream = w.generate(w.assemble(&scenario, seed, &mut Untimed).sim(), seed);

    // The first pass also warms the process up; the table and the trace
    // file come from the last, and the overhead compares it with the
    // untimed pass between them.
    let (counters, _) = pass(w, &scenario, seed, &stream, &mut Spans::default())?;
    let clock = Instant::now();
    let (untimed, _) = pass(w, &scenario, seed, &stream, &mut Untimed)?;
    let untimed_s = clock.elapsed().as_secs_f64();
    let mut spans = Spans::default();
    let (repeated, traced) = pass(w, &scenario, seed, &stream, &mut spans)?;
    let profile = spans.profile();

    // The real call on one thread: `serve.call_s`, and the output the
    // passes must reproduce.
    let mut call = Spans::default();
    let real = with_setup(w, &scenario, seed, |engine| {
        workload::run_once(w, engine, &stream, seed, &mut call)
    })
    .1?;
    // The timed runs' thread count: the measured phase's CPU utilisation,
    // and an output that must not depend on the thread count.
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());
    let (cpu_util, timed) = with_setup(w, &scenario, seed, |engine| {
        let (cpu_s, clock) = (process_cpu_s()?, Instant::now());
        let out = workload::run_once(w, engine, &stream, seed, &mut Untimed)?;
        let wall_s = clock.elapsed().as_secs_f64();
        Ok::<_, String>(((process_cpu_s()? - cpu_s) / (THREADS as f64 * wall_s), out))
    })
    .1?;

    let mut problems = Vec::new();
    if repeated != counters || untimed != counters {
        problems.push("a counter differs between passes".to_string());
    }
    problems.extend(workload::check(w, seed, &real).err());
    if traced.rendering != real.rendering || traced.report != real.report {
        problems.push("the traced pass's output differs from the real call's".to_string());
    }
    if timed.rendering != real.rendering {
        problems.push(format!(
            "the output on {THREADS} threads differs from the one-thread output"
        ));
    }
    if let Some(report) = &real.report {
        problems.extend(identities(w, &counters, report));
    }

    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    let path = Path::new(TRACE_DIR).join(format!("trace_{}.json", w.name()));
    let title = format!("perfbench {} seed {seed}", w.name());
    qntn_common::atomic_write(&path, spans.chrome_json(&title).as_bytes())
        .map_err(|e| e.to_string())?;

    let overhead_s = profile.wall_s - untimed_s;
    println!("{} traced on one thread: {}", w.name(), real.headline);
    print!("{}", profile.table());
    println!(
        "tracing overhead: {:.4} s traced - {untimed_s:.4} s untimed = {overhead_s:.4} s",
        profile.wall_s
    );
    println!(
        "counters (equal over the three passes: {}): {counters:?}",
        repeated == counters && untimed == counters
    );
    println!("trace file: {}", path.display());
    for problem in &problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let correct = problems.is_empty();
    let call_s = call.profile().row(Kind::Call).busy_s();
    let stream_bytes = stream.len() * size_of::<RawRequest>();
    Ok(RunResult {
        correct,
        attempted: traced.attempted,
        failed: if correct {
            traced.failed
        } else {
            traced.attempted
        },
        metrics: layer_metrics(
            &profile,
            &counters,
            call_s,
            cpu_util,
            overhead_s,
            traced.queue_bytes,
            stream_bytes,
        ),
    })
}

/// One pass over `w`, setup included, with every layer call inside a span.
fn pass<T: Tracer>(
    w: Workload,
    scenario: &Qntn,
    seed: u64,
    stream: &[RawRequest],
    tr: &mut T,
) -> Result<(Counters, Output), String> {
    let mut c = Counters::default();
    let out = tr.span(Kind::Pass, NO_GROUP, |tr| {
        let arch = w.assemble(scenario, seed, tr);
        let engine = workload::engine(w, arch.sim(), tr);
        c.samples = workload::ephemeris_samples(arch.sim()) as u64;
        c.window_masks = (engine.windows().satellites() * engine.windows().steps()) as u64;
        c.scene_candidates = engine.scene().candidates().len() as u64;
        match w {
            Workload::Sweep1080 => Ok(sweep(&engine, tr, &mut c)),
            Workload::ServeUniform1m | Workload::HoldPoisson200k => {
                Ok(serve(w, &engine, stream, tr, &mut c))
            }
            Workload::OverloadFlash400k => workload::run_once(w, &engine, stream, seed, tr),
        }
    })?;
    if let Some(report) = &out.report {
        c.accepted = out.accepted;
        c.rejected = out.rejected;
        c.served = report.served();
        c.shed = report.shed;
        c.congestion_deferrals = out.congestion_deferrals;
        c.budget_deferrals = report.deferred_by_budget;
        c.degraded_steps = report.degrade_mode_steps[1..].iter().sum();
    }
    Ok((c, out))
}

/// The day's connectivity flags, step by step, through the two calls of
/// `connectivity_flags`.
fn sweep<T: Tracer>(engine: &SweepEngine<'_>, tr: &mut T, c: &mut Counters) -> Output {
    let sim = engine.sim();
    let mut scratch = SweepScratch::default();
    let flags: Vec<bool> = (0..sim.steps())
        .map(|step| {
            let g = step as u32;
            tr.span(Kind::Topology, g, |_| {
                engine.active_graph_into(step, &mut scratch)
            });
            c.topology_calls += 1;
            c.topology_edges += scratch.active.edge_count() as u64;
            tr.span(Kind::Lans, g, |_| sim.lans_interconnected(&scratch.active))
        })
        .collect();
    workload::sweep_output(sim.steps(), &flags)
}

/// `ingest`, then the replayed serve loop.
fn serve<T: Tracer>(
    w: Workload,
    engine: &SweepEngine<'_>,
    stream: &[RawRequest],
    tr: &mut T,
    c: &mut Counters,
) -> Output {
    let sim = engine.sim();
    let (queue, rejected) = tr.span(Kind::Ingest, NO_GROUP, |_| {
        ingest(sim.hosts().len(), sim.steps(), stream)
    });
    let rejected = rejected.len() as u64;
    let report = tr.span(Kind::Replay, NO_GROUP, |tr| {
        let holds = (w == Workload::HoldPoisson200k).then(|| {
            let policy = workload::hold_policy();
            Holds {
                factors: host_hold_factors(sim.hosts(), &policy.memory),
                eta_floor: policy.eta_floor(),
                policy,
            }
        });
        Replay {
            engine,
            queue: &queue,
            holds,
            scratch: SweepScratch::default(),
            seen: vec![false; sim.hosts().len()],
            c,
        }
        .run(tr, rejected)
    });
    workload::serve_output(stream.len(), &queue, rejected, 0, report, None)
}

/// The hold-aware workload's routing inputs.
struct Holds {
    policy: HoldPolicy,
    factors: Vec<f64>,
    eta_floor: f64,
}

/// The serve loop replayed through public calls; per-step routing, or
/// time-expanded routing with memory holds when `holds` is set.
struct Replay<'a, 'e> {
    engine: &'a SweepEngine<'e>,
    queue: &'a RequestQueue,
    holds: Option<Holds>,
    scratch: SweepScratch,
    /// Per-host marks for counting a round's distinct sources.
    seen: Vec<bool>,
    c: &'a mut Counters,
}

impl Replay<'_, '_> {
    /// Every arrival group in queue order, folded into the report.
    fn run<T: Tracer>(mut self, tr: &mut T, rejected: u64) -> ServeReport {
        let queue = self.queue;
        let mut aggs = Vec::with_capacity(queue.groups().len());
        for (gi, (arrival, range)) in queue.groups().iter().enumerate() {
            let g = gi as u32;
            aggs.push(tr.span(Kind::Group, g, |tr| {
                let outcomes = self.group(tr, g, *arrival, range.clone());
                let classes: Vec<usize> = range.clone().map(|qi| queue.class(qi)).collect();
                tr.span(Kind::Report, g, |_| {
                    GroupAgg::from_outcomes(&outcomes, &classes)
                })
            }));
        }
        tr.span(Kind::Report, NO_GROUP, |_| {
            report_from_aggs(&aggs, rejected)
        })
    }

    /// One arrival group, statement for statement the loop of
    /// `serve_group_into` (or its hold-aware mirror), with a span around
    /// every call into a lower layer.
    fn group<T: Tracer>(
        &mut self,
        tr: &mut T,
        g: u32,
        arrival: usize,
        group: Range<usize>,
    ) -> Vec<RetryOutcome> {
        let queue = self.queue;
        let schedule = RetryPolicy::standard().attempt_steps(arrival, self.engine.sim().steps());
        let len = group.len();
        let mut outcome: Vec<Option<RetryOutcome>> = vec![None; len];
        let mut eligible_attempts = vec![0usize; len];
        let mut pending = len;
        let mut by_src: Vec<(usize, usize)> = Vec::with_capacity(len);
        for (k, &t) in schedule.iter().enumerate() {
            if pending == 0 {
                break;
            }
            let offset = t - arrival;
            by_src.clear();
            for li in 0..len {
                if outcome[li].is_some() {
                    continue;
                }
                let qi = group.start + li;
                if k > 0 && offset > queue.deadline(qi) {
                    continue;
                }
                eligible_attempts[li] += 1;
                by_src.push((queue.src(qi), li));
            }
            if by_src.is_empty() {
                break;
            }
            self.c.attempt_rounds += 1;
            self.c.attempts += by_src.len() as u64;
            self.c.distinct_sources += self.distinct_sources(&by_src);
            self.build(tr, g, t);
            by_src.sort_by_key(|&(src, _)| src);
            let mut i = 0;
            while i < by_src.len() {
                let src = by_src[i].0;
                self.sssp(tr, g, src);
                while i < by_src.len() && by_src[i].0 == src {
                    let li = by_src[i].1;
                    i += 1;
                    let Some((d, layer)) = self.deliver(tr, g, src, queue.dst(group.start + li))
                    else {
                        continue;
                    };
                    // Per step the layer is 0, and `k == 0` means no wait.
                    let waited = offset + layer;
                    outcome[li] = Some(if k == 0 && waited == 0 {
                        RetryOutcome::ServedFirstTry(d)
                    } else {
                        RetryOutcome::ServedAfterRetry {
                            distribution: d,
                            attempts: k + 1,
                            waited_steps: waited,
                        }
                    });
                    pending -= 1;
                }
            }
        }
        outcome
            .into_iter()
            .zip(eligible_attempts)
            .map(|(o, attempts)| o.unwrap_or(RetryOutcome::Expired { attempts }))
            .collect()
    }

    /// The round's topology at step `t`: the active graph, or the
    /// time-expanded graph of the hold horizon.
    fn build<T: Tracer>(&mut self, tr: &mut T, g: u32, t: usize) {
        let (engine, s) = (self.engine, &mut self.scratch);
        match &self.holds {
            None => {
                tr.span(Kind::Topology, g, |_| engine.active_graph_into(t, s));
                self.c.topology_calls += 1;
                self.c.topology_edges += s.active.edge_count() as u64;
            }
            Some(h) => {
                tr.span(Kind::Texp, g, |_| {
                    engine.time_expanded_into(t, h.policy.horizon_steps, &h.factors, s)
                });
                self.c.texp_calls += 1;
                self.c.texp_edges += s.texp.edges().len() as u64;
            }
        }
    }

    /// One SSSP table from `src` over the round's topology.
    fn sssp<T: Tracer>(&mut self, tr: &mut T, g: u32, src: usize) {
        let s = &mut self.scratch;
        if self.holds.is_none() {
            tr.span(Kind::Sssp, g, |_| {
                bellman_ford_all_into(&s.active, src, METRIC, &mut s.sssp)
            });
            self.c.sssp_runs += 1;
        } else {
            tr.span(Kind::Tsssp, g, |_| {
                time_sssp_into(&s.texp, src, METRIC, &mut s.ttable)
            });
            self.c.tsssp_runs += 1;
        }
    }

    /// Extract `src → dst` from the round's table and realize it: the
    /// delivered pair and the layer (steps after the attempt) it lands on.
    fn deliver<T: Tracer>(
        &mut self,
        tr: &mut T,
        g: u32,
        src: usize,
        dst: usize,
    ) -> Option<(Distribution, usize)> {
        let s = &self.scratch;
        match &self.holds {
            None => {
                self.c.extract_calls += 1;
                let route = tr.span(Kind::Extract, g, |_| {
                    route_from_table(&s.active, &s.sssp, src, dst, METRIC)
                })?;
                self.c.routes += 1;
                // The serve loop's link-η collection: a lookup miss means a
                // corrupt table, treated as unroutable.
                let link_etas = route
                    .nodes
                    .windows(2)
                    .map(|hop| s.active.eta(hop[0], hop[1]))
                    .collect::<Option<Vec<f64>>>()?;
                self.c.realize_calls += 1;
                let d = tr.span(Kind::Realize, g, |_| realize(&route, &link_etas));
                Some((d, 0))
            }
            Some(h) => {
                self.c.textract_calls += 1;
                let route = tr.span(Kind::Textract, g, |_| {
                    extract_time_route(&s.texp, &s.ttable, src, dst, METRIC, h.eta_floor)
                })?;
                self.c.troutes += 1;
                self.c.realize_calls += 1;
                let d = tr.span(Kind::Realize, g, |_| {
                    realize_with_hold(&route.route, &route.link_etas, route.hold_eta)
                });
                Some((d, route.delivered_layer))
            }
        }
    }

    /// Distinct sources among a round's eligible requests, counted apart
    /// from the SSSP loop so that the SSSP run count has something to equal.
    fn distinct_sources(&mut self, by_src: &[(usize, usize)]) -> u64 {
        let mut n = 0;
        for &(src, _) in by_src {
            if !std::mem::replace(&mut self.seen[src], true) {
                n += 1;
            }
        }
        for &(src, _) in by_src {
            self.seen[src] = false;
        }
        n
    }
}

/// The counter identities of the serve replays, held against the real
/// call's report.
fn identities(w: Workload, c: &Counters, real: &ServeReport) -> Vec<String> {
    let (sssp, extract, topology) = match w {
        Workload::ServeUniform1m => (c.sssp_runs, c.extract_calls, c.topology_calls),
        Workload::HoldPoisson200k => (c.tsssp_runs, c.textract_calls, c.texp_calls),
        Workload::Sweep1080 | Workload::OverloadFlash400k => return Vec::new(),
    };
    let report_attempts = (real.mean_attempts * real.attempted as f64).round() as u64;
    [
        (
            "SSSP runs = distinct sources per round",
            sssp,
            c.distinct_sources,
        ),
        ("extractions = serve.attempts", extract, c.attempts),
        (
            "topology builds = serve.attempt_rounds",
            topology,
            c.attempt_rounds,
        ),
        (
            "net.entanglement_calls = served",
            c.realize_calls,
            real.served(),
        ),
        (
            "serve.attempts = the report's attempts",
            c.attempts,
            report_attempts,
        ),
    ]
    .into_iter()
    .filter(|(_, got, want)| got != want)
    .map(|(identity, got, want)| format!("{identity}: {got} != {want}"))
    .collect()
}

/// The per-layer metrics, every one on every workload (0 where a layer
/// does not run). `BENCHMARK.json` lists the same names.
fn layer_metrics(
    p: &Profile,
    c: &Counters,
    call_s: f64,
    cpu_util: f64,
    overhead_s: f64,
    queue_bytes: usize,
    stream_bytes: usize,
) -> Vec<Metric> {
    let s = |kind| p.row(kind).busy_s();
    let n = |v: u64| v as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (topology, texp, realize) = (
        p.row(Kind::Topology),
        p.row(Kind::Texp),
        p.row(Kind::Realize),
    );
    vec![
        Metric::new("orbit.ephemeris_s", s(Kind::Ephemeris), "s"),
        Metric::new("orbit.samples", n(c.samples), "count"),
        Metric::new(
            "orbit.ephemeris_mib",
            mib(c.samples as usize * size_of::<EphemerisSample>()),
            "MiB",
        ),
        Metric::new("core.assembly_s", s(Kind::Assembly), "s"),
        Metric::new("net.windows_s", s(Kind::Windows), "s"),
        Metric::new(
            "net.windows_mib",
            mib(c.window_masks as usize * size_of::<u64>()),
            "MiB",
        ),
        Metric::new("net.scene_s", s(Kind::Scene), "s"),
        Metric::new("net.scene_candidates", n(c.scene_candidates), "count"),
        Metric::new("net.faults_s", s(Kind::Faults), "s"),
        Metric::new("net.topology_s", s(Kind::Topology), "s"),
        Metric::new("net.topology_calls", n(c.topology_calls), "count"),
        Metric::new("net.topology_edges", n(c.topology_edges), "count"),
        Metric::new("net.topology_us_p50", topology.percentile_us(0.50), "us"),
        Metric::new("net.topology_us_p99", topology.percentile_us(0.99), "us"),
        Metric::new("net.lans_s", s(Kind::Lans), "s"),
        Metric::new("net.texp_s", s(Kind::Texp), "s"),
        Metric::new("net.texp_calls", n(c.texp_calls), "count"),
        Metric::new("net.texp_edges", n(c.texp_edges), "count"),
        Metric::new("net.texp_us_p50", texp.percentile_us(0.50), "us"),
        Metric::new("net.texp_us_p99", texp.percentile_us(0.99), "us"),
        Metric::new("routing.sssp_s", s(Kind::Sssp), "s"),
        Metric::new("routing.sssp_runs", n(c.sssp_runs), "count"),
        Metric::new("routing.extract_s", s(Kind::Extract), "s"),
        Metric::new("routing.extract_calls", n(c.extract_calls), "count"),
        Metric::new(
            "routing.route_yield",
            ratio(c.routes, c.extract_calls),
            "ratio",
        ),
        Metric::new("routing.tsssp_s", s(Kind::Tsssp), "s"),
        Metric::new("routing.tsssp_runs", n(c.tsssp_runs), "count"),
        Metric::new("routing.textract_s", s(Kind::Textract), "s"),
        Metric::new("routing.textract_calls", n(c.textract_calls), "count"),
        Metric::new(
            "routing.troute_yield",
            ratio(c.troutes, c.textract_calls),
            "ratio",
        ),
        Metric::new("net.entanglement_s", s(Kind::Realize), "s"),
        Metric::new("net.entanglement_calls", n(c.realize_calls), "count"),
        Metric::new("net.entanglement_us_p50", realize.percentile_us(0.50), "us"),
        Metric::new("serve.ingest_s", s(Kind::Ingest), "s"),
        Metric::new("serve.accepted", n(c.accepted), "count"),
        Metric::new("serve.rejected", n(c.rejected), "count"),
        Metric::new("serve.queue_mib", mib(queue_bytes), "MiB"),
        Metric::new("serve.stream_mib", mib(stream_bytes), "MiB"),
        Metric::new("serve.call_s", call_s, "s"),
        Metric::new(
            "serve.self_s",
            p.row(Kind::Replay).self_s() + p.row(Kind::Group).self_s(),
            "s",
        ),
        Metric::new("serve.report_s", s(Kind::Report), "s"),
        Metric::new("serve.attempt_rounds", n(c.attempt_rounds), "count"),
        Metric::new("serve.attempts", n(c.attempts), "count"),
        Metric::new("serve.served", n(c.served), "count"),
        Metric::new(
            "serve.requests_per_sssp",
            ratio(
                c.extract_calls + c.textract_calls,
                c.sssp_runs + c.tsssp_runs,
            ),
            "ratio",
        ),
        Metric::new(
            "serve.served_per_attempt",
            ratio(c.served, c.attempts),
            "ratio",
        ),
        Metric::new("serve.overload_s", s(Kind::Overload), "s"),
        Metric::new("serve.shed", n(c.shed), "count"),
        Metric::new(
            "serve.congestion_deferrals",
            n(c.congestion_deferrals),
            "count",
        ),
        Metric::new("serve.budget_deferrals", n(c.budget_deferrals), "count"),
        Metric::new("serve.degraded_steps", n(c.degraded_steps), "count"),
        Metric::new("net.runtime.cpu_util", cpu_util, "ratio"),
        Metric::new("trace.wall_s", p.wall_s, "s"),
        Metric::new("trace.unattributed_s", p.unattributed_s(), "s"),
        Metric::new("trace.overhead_s", overhead_s, "s"),
    ]
}
