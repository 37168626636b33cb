//! Spans around the calls into each layer, kept in memory and turned into
//! the per-layer table, the per-layer metrics and a Chrome trace-event file
//! (it opens offline in Perfetto or `chrome://tracing`).
//!
//! Every span is opened from the benchmark's own files, around one public
//! call of one crate; nothing inside the program is instrumented.

use std::time::Instant;

/// The calls a span can wrap, one per layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole traced pass: the root span.
    Pass,
    /// `Ephemeris::generate_many`.
    Ephemeris,
    /// `SpaceGround::from_ephemerides`.
    Assembly,
    /// `ContactWindows::for_sim`.
    Windows,
    /// `SweepEngine::with_windows`: the Scene compile.
    Scene,
    /// `FaultModel::compile`.
    Faults,
    /// `ingest`.
    Ingest,
    /// The replayed serve loop over every arrival group.
    Replay,
    /// One arrival group of the replay.
    Group,
    /// `SweepEngine::active_graph_into`.
    Topology,
    /// `QuantumNetworkSim::lans_interconnected`.
    Lans,
    /// `SweepEngine::time_expanded_into`.
    Texp,
    /// `bellman_ford_all_into`.
    Sssp,
    /// `route_from_table`.
    Extract,
    /// `time_sssp_into`.
    Tsssp,
    /// `extract_time_route`.
    Textract,
    /// `realize` and `realize_with_hold`.
    Realize,
    /// The report folds: `GroupAgg::from_outcomes`, `report_from_aggs`,
    /// `overload_report`.
    Report,
    /// The real serve call: `serve_resilient` + `report_from_run`, or
    /// `serve_report_with_holds`.
    Call,
    /// `serve_overload`.
    Overload,
}

impl Kind {
    /// Every kind, in declaration order.
    pub const ALL: [Kind; 20] = [
        Kind::Pass,
        Kind::Ephemeris,
        Kind::Assembly,
        Kind::Windows,
        Kind::Scene,
        Kind::Faults,
        Kind::Ingest,
        Kind::Replay,
        Kind::Group,
        Kind::Topology,
        Kind::Lans,
        Kind::Texp,
        Kind::Sssp,
        Kind::Extract,
        Kind::Tsssp,
        Kind::Textract,
        Kind::Realize,
        Kind::Report,
        Kind::Call,
        Kind::Overload,
    ];

    /// `<crate>.<call>`; the part before the dot is the span's category.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Pass => "bench.pass",
            Kind::Ephemeris => "orbit.ephemeris",
            Kind::Assembly => "core.assembly",
            Kind::Windows => "net.windows",
            Kind::Scene => "net.scene",
            Kind::Faults => "net.faults",
            Kind::Ingest => "serve.ingest",
            Kind::Replay => "serve.replay",
            Kind::Group => "serve.group",
            Kind::Topology => "net.topology",
            Kind::Lans => "net.lans",
            Kind::Texp => "net.texp",
            Kind::Sssp => "routing.sssp",
            Kind::Extract => "routing.extract",
            Kind::Tsssp => "routing.tsssp",
            Kind::Textract => "routing.textract",
            Kind::Realize => "net.entanglement",
            Kind::Report => "serve.report",
            Kind::Call => "serve.call",
            Kind::Overload => "serve.overload",
        }
    }

    /// Spans opened per source or per request within an attempt round. All
    /// of them count in the table; the trace file keeps those of the first
    /// [`FILE_GROUPS`] arrival groups.
    fn fine(self) -> bool {
        matches!(
            self,
            Kind::Sssp | Kind::Tsssp | Kind::Extract | Kind::Textract | Kind::Realize
        )
    }
}

/// Arrival-group id of a span outside any group.
pub const NO_GROUP: u32 = u32::MAX;
/// Arrival groups whose fine spans go into the trace file: all of a
/// million-request pass would make a file of hundreds of MB.
const FILE_GROUPS: u32 = 64;
const NO_PARENT: u32 = u32::MAX;

/// Opens spans around calls. [`Spans`] records them; [`Untimed`] runs the
/// same calls bare, for the timed runs and the tracing-overhead baseline.
pub trait Tracer: Sized {
    /// Run `f` inside a span of `kind` belonging to arrival group `group`.
    fn span<R>(&mut self, kind: Kind, group: u32, f: impl FnOnce(&mut Self) -> R) -> R;
}

/// Records nothing.
pub struct Untimed;

impl Tracer for Untimed {
    fn span<R>(&mut self, _: Kind, _: u32, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: Kind,
    group: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Every span of one pass, in opening order.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Tracer for Spans {
    fn span<R>(&mut self, kind: Kind, group: u32, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            kind,
            group,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }
}

/// Totals of one span kind over a pass.
#[derive(Debug, Default)]
pub struct Row {
    pub calls: usize,
    busy_ns: u64,
    self_ns: u64,
    /// Per-call durations, µs, ascending.
    durations_us: Vec<f64>,
}

impl Row {
    /// Time inside spans of this kind, children included.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    /// Busy time minus the part covered by child spans.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }

    /// Nearest-rank percentile of the per-call durations, µs; 0 without calls.
    pub fn percentile_us(&self, q: f64) -> f64 {
        let n = self.durations_us.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.durations_us[rank - 1]
    }
}

/// The per-layer view of one pass.
pub struct Profile {
    /// One row per [`Kind`], in [`Kind::ALL`] order.
    rows: Vec<Row>,
    /// Duration of the root spans: the traced wall time.
    pub wall_s: f64,
}

impl Profile {
    pub fn row(&self, kind: Kind) -> &Row {
        &self.rows[kind as usize]
    }

    /// The root span's self time: traced wall time no layer span covers.
    pub fn unattributed_s(&self) -> f64 {
        self.row(Kind::Pass).self_s()
    }

    /// The per-layer table: calls, busy and self time, the self time's
    /// share of the traced wall time, and per-call p50/p99 with the number
    /// of calls they rank.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<17} {:>9} {:>10} {:>10} {:>7} {:>12} {:>12}\n",
            "span", "calls", "busy_s", "self_s", "share", "p50_us", "p99_us"
        );
        let mut self_total = 0.0;
        for (kind, row) in Kind::ALL.iter().zip(&self.rows) {
            if row.calls == 0 {
                continue;
            }
            self_total += row.self_s();
            out.push_str(&format!(
                "{:<17} {:>9} {:>10.4} {:>10.4} {:>6.2}% {:>12.2} {:>12.2}  (n={})\n",
                kind.name(),
                row.calls,
                row.busy_s(),
                row.self_s(),
                100.0 * row.self_s() / self.wall_s.max(f64::MIN_POSITIVE),
                row.percentile_us(0.50),
                row.percentile_us(0.99),
                row.calls
            ));
        }
        out.push_str(&format!(
            "self times sum to {self_total:.4} s of {:.4} s traced wall; unattributed (bench.pass self time): {:.4} s\n",
            self.wall_s,
            self.unattributed_s()
        ));
        out
    }
}

impl Spans {
    /// Calls, busy and self time and per-call durations of every kind.
    pub fn profile(&self) -> Profile {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut rows: Vec<Row> = Kind::ALL.iter().map(|_| Row::default()).collect();
        let mut wall_ns = 0;
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let row = &mut rows[s.kind as usize];
            row.calls += 1;
            row.busy_ns += s.dur_ns();
            row.self_ns += s.dur_ns().saturating_sub(children);
            row.durations_us.push(s.dur_ns() as f64 * 1e-3);
            if s.parent == NO_PARENT {
                wall_ns += s.dur_ns();
            }
        }
        for row in &mut rows {
            row.durations_us.sort_by(f64::total_cmp);
        }
        Profile {
            rows,
            wall_s: wall_ns as f64 * 1e-9,
        }
    }

    /// The pass as Chrome trace-event JSON. Fine spans beyond the first
    /// [`FILE_GROUPS`] arrival groups stay out of the file (the table counts
    /// them all); `otherData` says how many were left out.
    pub fn chrome_json(&self, title: &str) -> String {
        let id_or_null = |v: u32| {
            if v == u32::MAX {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        let mut out = format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{title}\"}}}}"
        );
        let mut left_out = 0usize;
        for (id, s) in self.spans.iter().enumerate() {
            if s.kind.fine() && s.group >= FILE_GROUPS {
                left_out += 1;
                continue;
            }
            let name = s.kind.name();
            let cat = name.split('.').next().unwrap_or(name);
            out.push_str(&format!(
                ",\n{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{id},\"parent\":{},\"group\":{}}}}}",
                s.start_ns as f64 * 1e-3,
                s.dur_ns() as f64 * 1e-3,
                id_or_null(s.parent),
                id_or_null(s.group)
            ));
        }
        out.push_str(&format!(
            "\n],\"otherData\":{{\"spans\":{},\"fine_spans_left_out\":{left_out}}}}}\n",
            self.spans.len()
        ));
        out
    }
}
