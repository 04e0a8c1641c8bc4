//! In-memory span recorder for the `--trace` run.
//!
//! Spans are recorded by the benchmark's own files around each call into
//! a layer (the engine itself reads no clock). A span has a name, start,
//! end, parent (the span open when it began) and the id of the operation
//! it belongs to. A layer's **self time** is its span's duration minus
//! the durations of its child spans. Aggregates (count and self time per
//! name) are kept for every span; the span records themselves are kept
//! up to [`KEEP_SPANS`] and written to `trace.json` at exit.
//!
//! **Shadow spans.** Some stages cannot be bracketed from outside because
//! a layer runs them inside one public call (`DataflowNetwork::register`
//! plans, canonicalises and fingerprints internally; `recovery::plan`
//! decodes the snapshot). The twin runs such a stage once more, standalone,
//! under the clock, and attaches the measured duration to the enclosing
//! span as a child: the stage gets its own self time and the parent's
//! self time drops by the same amount, so the layer sum is unchanged.

use std::time::Instant;

/// Span records kept for `trace.json` (aggregates cover every span).
pub const KEEP_SPANS: usize = 200_000;

/// Span names: `<layer>.<call>`. The order is the column order of reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    Op,
    ParserParse,
    AlgebraCompile,
    AlgebraPlan,
    AlgebraCanon,
    AlgebraFingerprint,
    EvalUpdateRead,
    EvalQuery,
    GraphApply,
    IvmPropagate,
    IvmRegister,
    IvmDrop,
    IvmRead,
    IvmFootprint,
    IvmRestore,
    CoreFanout,
    DurEncode,
    DurAppend,
    DurSnapshotCapture,
    DurSnapshotEncode,
    DurSnapshotWrite,
    DurRecoveryPlan,
    DurSnapshotDecode,
    DurRestoreGraph,
}

pub const NAMES: usize = Name::DurRestoreGraph as usize + 1;

impl Name {
    pub const ALL: [Name; NAMES] = [
        Name::Op,
        Name::ParserParse,
        Name::AlgebraCompile,
        Name::AlgebraPlan,
        Name::AlgebraCanon,
        Name::AlgebraFingerprint,
        Name::EvalUpdateRead,
        Name::EvalQuery,
        Name::GraphApply,
        Name::IvmPropagate,
        Name::IvmRegister,
        Name::IvmDrop,
        Name::IvmRead,
        Name::IvmFootprint,
        Name::IvmRestore,
        Name::CoreFanout,
        Name::DurEncode,
        Name::DurAppend,
        Name::DurSnapshotCapture,
        Name::DurSnapshotEncode,
        Name::DurSnapshotWrite,
        Name::DurRecoveryPlan,
        Name::DurSnapshotDecode,
        Name::DurRestoreGraph,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Op => "twin.op",
            Name::ParserParse => "parser.parse",
            Name::AlgebraCompile => "algebra.compile",
            Name::AlgebraPlan => "algebra.plan",
            Name::AlgebraCanon => "algebra.canon",
            Name::AlgebraFingerprint => "algebra.fingerprint",
            Name::EvalUpdateRead => "eval.update_read",
            Name::EvalQuery => "eval.query",
            Name::GraphApply => "graph.apply",
            Name::IvmPropagate => "ivm.propagate",
            Name::IvmRegister => "ivm.register",
            Name::IvmDrop => "ivm.drop",
            Name::IvmRead => "ivm.read",
            Name::IvmFootprint => "ivm.footprint",
            Name::IvmRestore => "ivm.restore",
            Name::CoreFanout => "core.fanout",
            Name::DurEncode => "durability.encode",
            Name::DurAppend => "durability.append",
            Name::DurSnapshotCapture => "durability.snapshot_capture",
            Name::DurSnapshotEncode => "durability.snapshot_encode",
            Name::DurSnapshotWrite => "durability.snapshot_write",
            Name::DurRecoveryPlan => "durability.recovery_plan",
            Name::DurSnapshotDecode => "durability.snapshot_decode",
            Name::DurRestoreGraph => "durability.restore_graph",
        }
    }

    /// The layer (module) a span is charged to.
    pub fn layer(self) -> &'static str {
        let s = self.as_str();
        &s[..s.find('.').expect("names are <layer>.<call>")]
    }
}

/// One recorded span. `parent` indexes the record list (`NONE` = root).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub parent: u32,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A measured re-execution attached to its parent (see module docs).
    pub shadow: bool,
}

pub const NONE: u32 = u32::MAX;

/// Self time of each span: duration minus the durations of the spans
/// naming it as parent (saturating, should the clock ever disagree).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NONE {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub self_ns: u64,
}

struct Frame {
    name: Name,
    start_ns: u64,
    child_ns: u64,
    record: u32,
}

pub struct Tracer {
    epoch: Instant,
    stack: Vec<Frame>,
    pub spans: Vec<Span>,
    pub agg: [Agg; NAMES],
    /// Operation id stamped on new spans.
    pub op: u32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            spans: Vec::new(),
            agg: [Agg::default(); NAMES],
            op: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&mut self, name: Name, start_ns: u64, shadow: bool) -> u32 {
        if self.spans.len() >= KEEP_SPANS {
            return NONE;
        }
        let parent = self.stack.last().map_or(NONE, |f| f.record);
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start_ns,
            end_ns: start_ns,
            shadow,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn begin(&mut self, name: Name) {
        let start_ns = self.now();
        let record = self.record(name, start_ns, false);
        self.stack.push(Frame {
            name,
            start_ns,
            child_ns: 0,
            record,
        });
    }

    /// Close the innermost open span; returns its duration in ns.
    pub fn end(&mut self, name: Name) -> u64 {
        let end_ns = self.now();
        let f = self.stack.pop().expect("end without begin");
        assert!(f.name == name, "span {:?} closed as {:?}", f.name, name);
        let dur = end_ns - f.start_ns;
        if f.record != NONE {
            self.spans[f.record as usize].end_ns = end_ns;
        }
        self.close(name, dur, f.child_ns);
        dur
    }

    fn close(&mut self, name: Name, dur: u64, child_ns: u64) {
        let a = &mut self.agg[name as usize];
        a.count += 1;
        a.self_ns += dur.saturating_sub(child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Time `f` as a span.
    pub fn span<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end(name);
        r
    }

    /// Attach a measured re-execution of `dur_ns` to the open span.
    pub fn shadow(&mut self, name: Name, dur_ns: u64) {
        let at = self.now();
        let record = self.record(name, at, true);
        if record != NONE {
            self.spans[record as usize].end_ns = at + dur_ns;
        }
        self.close(name, dur_ns, 0);
    }

    /// Total self time charged to `name`, in ns.
    pub fn self_ns(&self, name: Name) -> u64 {
        self.agg[name as usize].self_ns
    }

    /// `trace.json`: per-name aggregates, then the kept span records.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 * self.spans.len() + 4096);
        out.push_str(&format!("{{\"workload\":\"{workload}\",\"aggregates\":["));
        for (i, n) in Name::ALL.iter().enumerate() {
            let a = self.agg[*n as usize];
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"count\":{},\"self_ns\":{}}}",
                n.as_str(),
                a.count,
                a.self_ns
            ));
        }
        out.push_str("],\"spans\":[");
        let own = self_times(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"shadow\":{}}}",
                s.name.as_str(),
                s.op,
                s.start_ns,
                s.end_ns,
                own[i],
                s.shadow
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: Name, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start_ns,
            end_ns,
            shadow: false,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // op[0..100] { apply[10..30], propagate[30..90] { fanout[50..60] } }
        let spans = [
            sp(Name::Op, NONE, 0, 100),
            sp(Name::GraphApply, 0, 10, 30),
            sp(Name::IvmPropagate, 0, 30, 90),
            sp(Name::CoreFanout, 2, 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn online_aggregates_match_recorded_spans() {
        let mut t = Tracer::default();
        for op in 0..50 {
            t.op = op;
            t.begin(Name::Op);
            t.span(Name::GraphApply, || {
                std::hint::black_box((0..200).sum::<u64>())
            });
            t.begin(Name::IvmRegister);
            t.shadow(Name::AlgebraPlan, 5);
            t.span(Name::CoreFanout, || ());
            t.end(Name::IvmRegister);
            t.end(Name::Op);
        }
        let own = self_times(&t.spans);
        for n in Name::ALL {
            let from_records: u64 = t
                .spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.name == n)
                .map(|(_, o)| *o)
                .sum();
            assert_eq!(from_records, t.self_ns(n), "{}", n.as_str());
        }
        assert_eq!(t.agg[Name::AlgebraPlan as usize].self_ns, 50 * 5);
        assert_eq!(t.agg[Name::Op as usize].count, 50);
        // Every self time sums to the roots' wall.
        let wall: u64 = t
            .spans
            .iter()
            .filter(|s| s.parent == NONE)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(own.iter().sum::<u64>(), wall);
        assert!(t.to_json("w").starts_with("{\"workload\":\"w\""));
    }

    #[test]
    fn names_carry_their_layer() {
        assert_eq!(Name::DurAppend.layer(), "durability");
        assert_eq!(Name::Op.layer(), "twin");
        assert_eq!(Name::ALL.len(), NAMES);
        for (i, n) in Name::ALL.iter().enumerate() {
            assert_eq!(*n as usize, i);
        }
    }
}
