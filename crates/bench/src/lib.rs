#![warn(missing_docs)]
//! Shared measurement harness for the experiment suite (E5–E10).
//!
//! Every experiment compares two maintenance strategies over the same
//! update stream:
//!
//! * **IVM** — a [`pgq_core::GraphEngine`] with registered views applies
//!   each transaction and lets the dataflow propagate deltas;
//! * **recompute** — the paper's implicit baseline: apply the
//!   transaction, then re-evaluate the query from scratch with
//!   [`pgq_eval`].
//!
//! The binary `report` prints the EXPERIMENTS.md tables; the Criterion
//! benches under `benches/` wrap the same routines for statistically
//! robust timings.

use std::time::{Duration, Instant};

use pgq_algebra::pipeline::{compile_query_with, CompileOptions};
use pgq_algebra::plan::WcojMode;
use pgq_algebra::CompiledQuery;
use pgq_core::GraphEngine;
use pgq_eval::evaluate_consolidated;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use pgq_ivm::RegisterOptions;
use pgq_parser::parse_query;

/// Compile a query with options (panicking on error — benchmark inputs
/// are fixed).
pub fn compile(query: &str, options: CompileOptions) -> CompiledQuery {
    compile_query_with(&parse_query(query).expect("parses"), options).expect("compiles")
}

/// Registration twin: the syntactic join order (planner off).
pub fn unplanned() -> RegisterOptions {
    RegisterOptions {
        plan: false,
        ..RegisterOptions::default()
    }
}

/// Registration twin: planned, but cyclic regions stay binary join trees.
pub fn binary_tree() -> RegisterOptions {
    RegisterOptions {
        wcoj: WcojMode::Disabled,
        ..RegisterOptions::default()
    }
}

/// Registration twin: every eligible cyclic region fused into ⨝ⁿ
/// whatever the cost gate says, on the sorted-run (`true`) or hash-trie
/// (`false`) backend.
pub fn forced_wcoj(sorted: bool) -> RegisterOptions {
    RegisterOptions {
        wcoj: WcojMode::Forced,
        wcoj_sorted: Some(sorted),
        ..RegisterOptions::default()
    }
}

/// Outcome of streaming updates through one strategy.
#[derive(Clone, Copy, Debug)]
pub struct StreamCost {
    /// Total wall time for the whole stream.
    pub total: Duration,
    /// Number of transactions.
    pub transactions: usize,
}

impl StreamCost {
    /// Mean latency per transaction in microseconds.
    pub fn us_per_tx(&self) -> f64 {
        self.total.as_micros() as f64 / self.transactions.max(1) as f64
    }
}

/// Register the first `n` of `queries` as views on one engine sharing a
/// single dataflow network — the "shared" side of the `many_views`
/// suites. The criterion bench and the BENCH.json certification both
/// use this setup, so they measure the identical configuration.
pub fn shared_engine(graph: &PropertyGraph, queries: &[String], n: usize) -> GraphEngine {
    let mut engine = GraphEngine::from_graph(graph.clone());
    for (i, q) in queries.iter().take(n).enumerate() {
        engine
            .register_view(&format!("v{i}"), q)
            .unwrap_or_else(|e| panic!("register v{i}: {e}"));
    }
    engine
}

/// Maintain the first `n` of `queries` as one private single-view
/// network each (the pre-sharing architecture) — the unshared baseline
/// of the `many_views` suites.
pub fn private_views(
    graph: &PropertyGraph,
    queries: &[String],
    n: usize,
) -> Vec<pgq_ivm::MaterializedView> {
    queries
        .iter()
        .take(n)
        .enumerate()
        .map(|(i, q)| {
            let compiled = compile(q, CompileOptions::default());
            pgq_ivm::MaterializedView::create(format!("p{i}"), &compiled, graph)
                .unwrap_or_else(|e| panic!("create view p{i}: {e}"))
        })
        .collect()
}

/// Apply `stream` to an engine with views registered for `queries`;
/// returns (initial build time, stream cost, final engine).
pub fn run_ivm(
    graph: &PropertyGraph,
    queries: &[(&str, &str)],
    options: CompileOptions,
    stream: &[Transaction],
) -> (Duration, StreamCost, GraphEngine) {
    let mut engine = GraphEngine::from_graph(graph.clone());
    let t0 = Instant::now();
    for (name, q) in queries {
        engine
            .register_view_with(name, q, options, RegisterOptions::default())
            .unwrap_or_else(|e| panic!("register {name}: {e}"));
    }
    let build = t0.elapsed();
    let t0 = Instant::now();
    for tx in stream {
        engine.apply(tx).expect("stream applies");
    }
    let total = t0.elapsed();
    (
        build,
        StreamCost {
            total,
            transactions: stream.len(),
        },
        engine,
    )
}

/// Apply `stream`, re-evaluating every query from scratch after each
/// transaction; returns (first evaluation time, stream cost).
pub fn run_recompute(
    graph: &PropertyGraph,
    compiled: &[CompiledQuery],
    stream: &[Transaction],
) -> (Duration, StreamCost) {
    let mut g = graph.clone();
    let t0 = Instant::now();
    for cq in compiled {
        let _ = evaluate_consolidated(&cq.fra, &g);
    }
    let first = t0.elapsed();
    let t0 = Instant::now();
    for tx in stream {
        g.apply(tx).expect("stream applies");
        for cq in compiled {
            let _ = evaluate_consolidated(&cq.fra, &g);
        }
    }
    let total = t0.elapsed();
    (
        first,
        StreamCost {
            total,
            transactions: stream.len(),
        },
    )
}

/// Assert the IVM result equals recompute at the end of a run (sanity
/// guard inside benchmarks — a fast benchmark on a wrong answer is
/// worthless).
pub fn check_agreement(engine: &GraphEngine, queries: &[(&str, &str)]) {
    for (name, _) in queries {
        let id = engine.view_by_name(name).expect("registered");
        let compiled = engine.view_compiled(id).expect("compiled");
        let want = evaluate_consolidated(&compiled.fra, engine.graph());
        assert_eq!(
            engine.view(id).expect("view").results(),
            want,
            "view {name} diverged from recompute"
        );
    }
}

/// The join-heavy standing views of the durability suites: the
/// friend-likes join plus the `many_views` overlap family, named
/// `likes`, `ov0`, `ov1`, ….
pub fn durable_social_views() -> Vec<(String, &'static str)> {
    use pgq_workloads::social::{queries, OVERLAPPING_QUERIES};
    std::iter::once(("likes".to_string(), queries::FRIEND_LIKES))
        .chain(
            OVERLAPPING_QUERIES
                .iter()
                .enumerate()
                .map(|(i, q)| (format!("ov{i}"), *q)),
        )
        .collect()
}

/// A durable image of the social graph at scale factor `sf` with
/// [`durable_social_views`] standing and the WAL tail empty, on an
/// in-memory disk (so host storage never enters a measurement). The
/// graph is bulk-loaded through one transaction.
pub fn durable_social_image(sf: f64) -> pgq_durability::MemDisk {
    use pgq_graph::tx::NodeRef;
    use pgq_workloads::social::{generate_social, SocialParams};
    let net = generate_social(SocialParams::scale(sf, 42));
    let disk = pgq_durability::MemDisk::new();
    let mut engine = GraphEngine::open_durable_with(std::sync::Arc::new(disk.vfs()))
        .expect("open empty durable engine");
    let mut tx = Transaction::new();
    let mut ids: Vec<_> = net.graph.vertex_ids().collect();
    ids.sort_unstable();
    let slot: std::collections::HashMap<_, _> =
        ids.iter().enumerate().map(|(i, id)| (*id, i)).collect();
    for id in &ids {
        let v = net.graph.vertex(*id).expect("listed");
        tx.create_vertex(v.labels.iter().copied(), v.props.clone());
    }
    let mut eids: Vec<_> = net.graph.edge_ids().collect();
    eids.sort_unstable();
    for id in eids {
        let e = net.graph.edge(id).expect("listed");
        tx.create_edge(
            NodeRef::New(slot[&e.src]),
            NodeRef::New(slot[&e.dst]),
            e.ty,
            e.props.clone(),
        );
    }
    engine.apply(&tx).expect("bulk load");
    for (name, q) in durable_social_views() {
        engine.register_view(&name, q).expect("registers");
    }
    engine.snapshot().expect("snapshot");
    disk
}

/// Robust summary of repeated measurement rounds (same statistics the
/// enriched criterion shim reports: median + MAD, not just a mean).
#[derive(Clone, Copy, Debug)]
pub struct RoundStats {
    /// Median of the samples.
    pub median: f64,
    /// Median absolute deviation around the median.
    pub mad: f64,
    /// Mean of the samples.
    pub mean: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Summarise a sample set (panics on an empty slice — benchmark rounds
/// are fixed counts).
pub fn round_stats(samples: &[f64]) -> RoundStats {
    assert!(!samples.is_empty(), "no samples");
    let mut xs = samples.to_vec();
    let median = median_of(&mut xs);
    let mut dev: Vec<f64> = samples.iter().map(|s| (s - median).abs()).collect();
    let mad = median_of(&mut dev);
    RoundStats {
        median,
        mad,
        mean: samples.iter().sum::<f64>() / samples.len() as f64,
        samples: samples.len(),
    }
}

fn median_of(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Accumulates per-suite statistics and renders the machine-readable
/// `BENCH.json` document (suite → unit, median, MAD, mean, samples,
/// op/s) used to record the perf trajectory across PRs.
#[derive(Debug, Default)]
pub struct BenchJson {
    mode: String,
    entries: Vec<(String, String, RoundStats, f64)>,
}

impl BenchJson {
    /// New document for the given run mode (`"quick"` / `"full"`).
    pub fn new(mode: impl Into<String>) -> BenchJson {
        BenchJson {
            mode: mode.into(),
            entries: Vec::new(),
        }
    }

    /// Record one suite. `ops_per_s` derives from the median and the
    /// unit's scale, so the caller supplies it.
    pub fn suite(&mut self, name: &str, unit: &str, stats: RoundStats, ops_per_s: f64) {
        self.entries
            .push((name.to_string(), unit.to_string(), stats, ops_per_s));
    }

    /// Render the JSON document.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"mode\": \"{}\",", self.mode);
        let _ = writeln!(out, "  \"suites\": {{");
        for (i, (name, unit, s, ops)) in self.entries.iter().enumerate() {
            let comma = if i + 1 == self.entries.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    \"{name}\": {{\"unit\": \"{unit}\", \"median\": {:.2}, \"mad\": {:.2}, \
                 \"mean\": {:.2}, \"samples\": {}, \"ops_per_s\": {:.2}}}{comma}",
                s.median, s.mad, s.mean, s.samples, ops
            );
        }
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }
}

/// Markdown table writer used by the `report` binary.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Render as GitHub markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:<w$} |"));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a duration as microseconds with sensible precision.
pub fn us(d: Duration) -> String {
    let v = d.as_micros() as f64;
    if v >= 1000.0 {
        format!("{:.1} ms", v / 1000.0)
    } else {
        format!("{v:.1} µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_workloads::railway::{generate_railway, queries, RailwayParams};

    #[test]
    fn harness_runs_and_agrees() {
        let mut rw = generate_railway(RailwayParams::size(2, 1));
        let stream = rw.fault_stream(20);
        let qs = [("PosLength", queries::POS_LENGTH)];
        let (_, ivm, engine) = run_ivm(&rw.graph, &qs, CompileOptions::default(), &stream);
        check_agreement(&engine, &qs);
        let compiled = [compile(queries::POS_LENGTH, CompileOptions::default())];
        let (_, rec) = run_recompute(&rw.graph, &compiled, &stream);
        assert!(ivm.total.as_nanos() > 0 && rec.total.as_nanos() > 0);
    }

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "22".into()]);
        let md = t.render();
        assert!(md.starts_with("| a"));
        assert!(md.contains("| 1"));
    }

    #[test]
    fn round_stats_median_and_mad() {
        let s = round_stats(&[1.0, 9.0, 5.0]);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.mad, 4.0);
        assert_eq!(s.samples, 3);
        let s = round_stats(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.median, 2.5);
    }

    #[test]
    fn bench_json_renders_valid_shape() {
        let mut doc = BenchJson::new("quick");
        doc.suite(
            "social_ivm",
            "us_per_tx",
            round_stats(&[10.0, 12.0, 11.0]),
            90_909.0,
        );
        doc.suite("transitive", "us_per_tx", round_stats(&[5.0]), 200_000.0);
        let json = doc.render();
        assert!(json.contains("\"mode\": \"quick\""));
        assert!(json.contains("\"social_ivm\""));
        assert!(json.contains("\"median\": 11.00"));
        assert!(json.contains("\"ops_per_s\": 200000.00"));
        // Exactly one trailing entry without a comma.
        assert!(json.trim_end().ends_with("}"));
    }
}
