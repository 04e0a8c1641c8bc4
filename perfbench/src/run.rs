//! One workload, one process: set up, measure for `--seconds`, pass the
//! correctness gate, report.

use std::time::{Duration, Instant};

use crate::calib::{Pacer, NOMINAL_NS};
use crate::facade::Facade;
use crate::gen::Class;
use crate::ops::{Effect, Op};
use crate::stats::{median_f64, percentile, supported_tail};
use crate::surface::{
    compile_query, evaluate_consolidated, parse_query, DataflowNetwork, FsyncMode, GraphEngine,
    PropertyGraph, StdVfs, Vfs,
};
use crate::trace::Name;
use crate::twin::Twin;
use crate::workloads::{self, Spec};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable facts for stderr: digest, sizes, sample counts.
    pub notes: Vec<String>,
}

struct Live {
    facade: Facade,
    twin: Option<Twin>,
    spec: Spec,
}

/// Generate, load, register, subscribe, warm up — everything a user waits
/// for before the first measured operation. Reference bursts run between
/// the stages.
fn set_up(args: &Args, pacer: &mut Pacer) -> Live {
    let mut spec = workloads::spec(&args.workload, args.seed, args.quick)
        .unwrap_or_else(|| panic!("unknown workload `{}`", args.workload));
    pacer.tick(Instant::now(), 0);
    let mut facade = Facade::open(spec.durable);
    facade.load(&spec.load);
    pacer.tick(Instant::now(), 0);
    for (name, cypher) in &spec.views {
        facade.register(name, cypher);
        pacer.tick(Instant::now(), 0);
    }
    let mut twin = args.trace.then(|| {
        let mut twin = Twin::open(spec.durable);
        twin.load(&spec.load);
        for (name, cypher) in &spec.views {
            twin.register(name, cypher);
        }
        twin
    });
    for i in 0..spec.warmup {
        let (op, _) = (spec.stream)(&mut spec.digest);
        let out = facade.run(&op);
        assert!(facade.accepts(&op, &out), "warm-up op {i} failed: {out:?}");
        if let Some(t) = twin.as_mut() {
            t.run(&op, 0);
        }
        pacer.tick(Instant::now(), 0);
    }
    Live { facade, twin, spec }
}

#[derive(Default)]
struct Samples {
    ns: Vec<u64>,
    class: Vec<Class>,
    failed: u64,
}

impl Samples {
    /// Latencies of one class, ascending.
    fn of(&self, class: Class) -> Vec<u64> {
        let mut ns: Vec<u64> = self
            .ns
            .iter()
            .zip(&self.class)
            .filter(|(_, c)| **c == class)
            .map(|(n, _)| *n)
            .collect();
        ns.sort_unstable();
        ns
    }

    /// Every latency on the calibrated clock (see `calib`).
    fn calibrated(mut self, scales: &[f64]) -> Samples {
        for (ns, scale) in self.ns.iter_mut().zip(scales) {
            *ns = (*ns as f64 * scale).round() as u64;
        }
        self
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub fn run(args: &Args) -> Report {
    let mut pacer = Pacer::new();
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        drop(live.take());
        let t = Instant::now();
        pacer.burst(0);
        live = Some(set_up(args, &mut pacer));
        pacer.burst(0);
        let wall = t.elapsed();
        let (bursts, host) = pacer.drain();
        setups.push((wall - bursts).as_secs_f64() * NOMINAL_NS / host);
    }
    let Live {
        mut facade,
        mut twin,
        mut spec,
    } = live.expect("at least one set-up");
    if let Some(t) = twin.as_mut() {
        t.reset_measurements();
    }
    let disk_before = facade
        .disk
        .as_ref()
        .map(|d| (d.bytes_attempted(), d.ops_attempted()));

    // ---- measured phase --------------------------------------------------
    let mut samples = Samples::default();
    let mut digest_at_first_chunk = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut commits = 0u64;
    pacer.burst(0);
    'measure: loop {
        let chunk: Vec<(Op, Class)> = (0..spec.chunk)
            .map(|_| (spec.stream)(&mut spec.digest))
            .collect();
        digest_at_first_chunk.get_or_insert(spec.digest);
        for (op, class) in &chunk {
            let t0 = Instant::now();
            let out = facade.run(op);
            let dt = t0.elapsed();
            if !facade.accepts(op, &out) {
                if samples.failed == 0 {
                    eprintln!("operation {} failed: {out:?}", samples.ns.len());
                }
                samples.failed += 1;
            }
            commits += match op {
                Op::Cypher {
                    effect: Effect::Read { .. },
                    ..
                } => 0,
                Op::Tx(_) | Op::Cypher { .. } => 1,
                Op::Batch(txs) => txs.len() as u64,
                _ => 0,
            };
            samples.ns.push(dt.as_nanos() as u64);
            samples.class.push(facade.observed_class(*class));
            if let Some(t) = twin.as_mut() {
                t.run(op, samples.ns.len() as u32);
            }
            let now = Instant::now();
            pacer.tick(now, samples.ns.len());
            if now >= deadline {
                break 'measure;
            }
        }
    }
    pacer.burst(samples.ns.len());
    let disk_after = facade
        .disk
        .as_ref()
        .map(|d| (d.bytes_attempted(), d.ops_attempted()));

    // ---- correctness gate --------------------------------------------------
    let mut notes = vec![
        format!(
            "input_digest {}",
            digest_at_first_chunk.expect("one chunk ran").hex()
        ),
        format!(
            "loaded {} vertices, {} standing views; final graph {} vertices, {} edges",
            spec.vertices,
            spec.views.len(),
            facade.engine.graph().vertex_count(),
            facade.engine.graph().edge_count()
        ),
    ];
    let mut problems = gate(&facade, twin.as_ref());
    let mut recover_s = 0.0;
    if spec.durable {
        let (s, p) = recover_and_compare(&mut facade);
        recover_s = s;
        problems.extend(p);
        if let Some(t) = twin.as_mut() {
            t.recover();
            problems.extend(twin_matches(&facade, t));
        }
    }
    for p in &problems {
        eprintln!("correctness gate: {p}");
    }
    let correct = problems.is_empty();
    let attempted = samples.ns.len() as u64;
    let failed = if correct { samples.failed } else { attempted };

    // ---- metrics -----------------------------------------------------------
    // The untraced run reports on the calibrated clock; the traced run
    // keeps the raw one, which its twin's spans are on too.
    let scales = pacer.scales(samples.ns.len());
    let (_, host_ns) = pacer.drain();
    notes.push(format!(
        "host speed: reference burst took {:.0} us (nominal {:.0} us)",
        host_ns / 1e3,
        NOMINAL_NS / 1e3
    ));
    let samples = if args.trace {
        samples
    } else {
        samples.calibrated(&scales)
    };
    let mut all = samples.ns.clone();
    all.sort_unstable();
    let mut heavy = samples.of(Class::Heavy);
    let mut light = samples.of(Class::Light);
    for (name, class) in [("heavy", &mut heavy), ("light", &mut light)] {
        if class.is_empty() {
            // Only a run too short to meet the class (`--quick`) gets here.
            notes.push(format!(
                "no {name} operation ran; {name}_p50_us reports all operations"
            ));
            *class = all.clone();
        }
    }
    let wall_ns: u64 = all.iter().sum();
    notes.push(format!(
        "{} operations ({} heavy, {} light) in {:.2} s of engine time, {} failed; highest tail this sample supports: p{}",
        all.len(),
        heavy.len(),
        light.len(),
        wall_ns as f64 / 1e9,
        samples.failed,
        supported_tail(all.len()) * 100.0
    ));
    let metrics = match twin.as_ref() {
        None => vec![
            metric("setup_s", median_f64(&mut setups), "s"),
            metric(
                "ops_per_s",
                all.len() as f64 / (wall_ns as f64 / 1e9),
                "1/s",
            ),
            metric("op_p50_us", us(percentile(&all, 0.5)), "us"),
            metric("op_p99_us", us(percentile(&all, 0.99)), "us"),
            metric("heavy_p50_us", us(percentile(&heavy, 0.5)), "us"),
            metric("light_p50_us", us(percentile(&light, 0.5)), "us"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
        Some(t) => {
            let disk = disk_before
                .zip(disk_after)
                .map(|(b, a)| (a.0 - b.0, a.1 - b.1));
            layer_metrics(t, &spec, &all, commits, disk, recover_s, host_ns)
        }
    };
    if let Some(t) = twin.as_ref() {
        match write_trace(t, &args.workload) {
            Ok(path) => notes.push(format!("trace written to {path}")),
            Err(e) => notes.push(format!("trace not written: {e}")),
        }
    }
    Report {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// The correctness gate: every standing view equals a `pgq_eval`
/// recompute on the final graph; every subscriber's fold of the deltas it
/// was handed equals its view; and the traced twin agrees with the façade.
fn gate(facade: &Facade, twin: Option<&Twin>) -> Vec<String> {
    let mut problems = Vec::new();
    let graph = facade.engine.graph();
    for v in &facade.views {
        let results = facade.engine.view(v.id).expect("standing view").results();
        let query = parse_query(&v.cypher).expect("parsed at registration");
        let compiled = compile_query(&query).expect("compiled at registration");
        if evaluate_consolidated(&compiled.fra, graph) != results {
            problems.push(format!(
                "view {} differs from recompute: {}",
                v.name, v.cypher
            ));
        }
        if !v.fold.lock().expect("fold mutex poisoned").equals(&results) {
            problems.push(format!(
                "view {}: folded deltas differ from the view",
                v.name
            ));
        }
    }
    if let Some(t) = twin {
        problems.extend(twin_matches(facade, t));
    }
    problems
}

fn twin_matches(facade: &Facade, twin: &Twin) -> Vec<String> {
    let mut problems = Vec::new();
    for (v, tv) in facade.views.iter().zip(&twin.views) {
        let results = facade.engine.view(v.id).expect("standing view").results();
        if twin.net.view(tv.sink).results() != results {
            problems.push(format!("twin view {} differs from the façade's", v.name));
        }
        if !tv
            .fold
            .lock()
            .expect("fold mutex poisoned")
            .equals(&results)
        {
            problems.push(format!("twin view {}: folded deltas differ", v.name));
        }
    }
    problems
}

/// Drop the durable engine, re-open it from the image it left, and check
/// every view reads back what the live engine held. Returns the re-open
/// time (until every view is readable).
fn recover_and_compare(facade: &mut Facade) -> (f64, Vec<String>) {
    let disk = facade.disk.clone().expect("durable façade");
    let before: Vec<_> = facade
        .views
        .iter()
        .map(|v| facade.engine.view(v.id).expect("standing view").results())
        .collect();
    facade.engine = GraphEngine::new();
    let t = Instant::now();
    let reopened = GraphEngine::open_durable_with(std::sync::Arc::new(disk.vfs()));
    let mut problems = Vec::new();
    let engine = match reopened {
        Ok(e) => e,
        Err(e) => {
            return (
                t.elapsed().as_secs_f64(),
                vec![format!("re-open failed: {e}")],
            )
        }
    };
    let mut after = Vec::new();
    for v in &facade.views {
        match engine.view_by_name(&v.name).map(|id| engine.view(id)) {
            Some(Ok(view)) => after.push(view.results()),
            _ => problems.push(format!("view {} is gone after re-open", v.name)),
        }
    }
    let recover_s = t.elapsed().as_secs_f64();
    for ((v, b), a) in facade.views.iter().zip(&before).zip(&after) {
        if a != b {
            problems.push(format!("view {} differs after re-open", v.name));
        }
    }
    if let Some(r) = engine.recovery_report() {
        if !r.is_pristine() {
            problems.push(format!("recovery had to repair the image: {r:?}"));
        }
    }
    for v in &mut facade.views {
        v.id = engine.view_by_name(&v.name).unwrap_or(v.id);
    }
    facade.engine = engine;
    (recover_s, problems)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nodes a network holding only `cypher` would need (registered over an
/// empty graph: structure only, no data).
fn private_nodes(cypher: &str) -> usize {
    let query = parse_query(cypher).expect("parsed at registration");
    let compiled = compile_query(&query).expect("compiled at registration");
    let mut net = DataflowNetwork::new();
    net.register("private", &compiled.fra, &PropertyGraph::new());
    net.node_count()
}

/// One real fsync through `StdVfs` in the build directory — the
/// sandbox's number, not a device's.
fn std_sync_probe_us() -> f64 {
    let dir = out_dir().join("fsync_probe");
    let Ok(vfs) = StdVfs::new(&dir, FsyncMode::Always) else {
        return 0.0;
    };
    let probe = || -> std::io::Result<f64> {
        vfs.append("probe", &[0u8; 4096])?;
        let t = Instant::now();
        vfs.sync("probe")?;
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        vfs.remove("probe")?;
        Ok(us)
    };
    let us = probe().unwrap_or(0.0);
    let _ = std::fs::remove_dir(&dir);
    us
}

fn out_dir() -> std::path::PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| ".bench_build".into(), std::path::PathBuf::from)
}

fn write_trace(twin: &Twin, workload: &str) -> std::io::Result<String> {
    let dir = out_dir().join("trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, twin.tracer.to_json(workload))?;
    Ok(path.display().to_string())
}

/// The engine's layers (span-name prefixes) and their `share.*` metrics.
const LAYERS: [(&str, &str); 7] = [
    ("parser", "share.parser"),
    ("algebra", "share.algebra"),
    ("eval", "share.eval"),
    ("graph", "share.graph"),
    ("ivm", "share.ivm"),
    ("durability", "share.durability"),
    ("core", "share.core"),
];

/// Per-layer metrics of the traced run.
fn layer_metrics(
    twin: &Twin,
    spec: &Spec,
    facade_ns: &[u64],
    commits: u64,
    disk: Option<(u64, u64)>,
    recover_s: f64,
    host_ns: f64,
) -> Vec<Metric> {
    let t = &twin.tracer;
    let c = &twin.counts;
    let ops = facade_ns.len() as f64;
    let mut facade_sorted = facade_ns.to_vec();
    facade_sorted.sort_unstable();
    let facade_ns: u64 = facade_sorted.iter().sum();
    // Mean self time per call of a span, in µs (0 when it never ran).
    // Recovery runs after the measured phase under a tracer of its own.
    let per_call = |n: Name| {
        let recovery_only = matches!(
            n,
            Name::DurRecoveryPlan
                | Name::DurSnapshotDecode
                | Name::DurRestoreGraph
                | Name::IvmRestore
        );
        let a = match (&twin.recovery, recovery_only) {
            (Some(r), true) => r.agg[n as usize],
            _ => t.agg[n as usize],
        };
        if a.count == 0 {
            0.0
        } else {
            a.self_ns as f64 / a.count as f64 / 1e3
        }
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let layer_ns = |layer: &str| -> u64 {
        Name::ALL
            .iter()
            .filter(|n| n.layer() == layer)
            .map(|n| t.self_ns(*n))
            .sum()
    };
    let layer_sum: u64 = LAYERS.iter().map(|(l, _)| layer_ns(l)).sum();
    let residual_ns = facade_ns as i64 - layer_sum as i64;
    let twin_wall_ns = layer_sum + t.self_ns(Name::Op) - c.shadow_exec_ns.min(t.self_ns(Name::Op));
    let share = |ns: f64| ns / facade_ns as f64;
    let nodes = twin.net.node_count();
    let state_tuples: usize = twin.net.node_summaries().iter().map(|n| n.own_tuples).sum();
    let private: usize = spec.views.iter().map(|(_, q)| private_nodes(q)).sum();
    let m = metric;
    let mut out = vec![
        m("parser.parse_us", per_call(Name::ParserParse), "us"),
        m("algebra.compile_us", per_call(Name::AlgebraCompile), "us"),
        m("algebra.plan_us", per_call(Name::AlgebraPlan), "us"),
        m("algebra.canon_us", per_call(Name::AlgebraCanon), "us"),
        m(
            "algebra.fingerprint_us",
            per_call(Name::AlgebraFingerprint),
            "us",
        ),
        m("eval.update_read_us", per_call(Name::EvalUpdateRead), "us"),
        m(
            "eval.rows_scanned_per_update",
            ratio(c.rows_scanned, c.updates),
            "count",
        ),
        m("eval.query_us", per_call(Name::EvalQuery), "us"),
        m("graph.apply_us", per_call(Name::GraphApply), "us"),
        m("graph.events_per_tx", ratio(c.events, c.txs), "count"),
        m("ivm.propagate_us", per_call(Name::IvmPropagate), "us"),
        m(
            "ivm.dirty_sinks_per_tx",
            ratio(c.dirty_sinks, c.txs),
            "count",
        ),
        m(
            "ivm.delta_tuples_per_tx",
            ratio(c.delta_tuples, c.txs),
            "count",
        ),
        m("ivm.register_us", per_call(Name::IvmRegister), "us"),
        m("ivm.drop_us", per_call(Name::IvmDrop), "us"),
        m("ivm.read_us", per_call(Name::IvmRead), "us"),
        m(
            "ivm.new_nodes_per_register",
            ratio(c.new_nodes, c.registers),
            "count",
        ),
        m(
            "ivm.share_ratio",
            1.0 - ratio(nodes as u64, private as u64),
            "ratio",
        ),
        m("ivm.footprint_us", per_call(Name::IvmFootprint), "us"),
        m("ivm.passes_per_batch", ratio(c.passes, c.batches), "count"),
        m("ivm.nodes", nodes as f64, "count"),
        m("ivm.state_tuples", state_tuples as f64, "count"),
        m("ivm.restore_us", per_call(Name::IvmRestore), "us"),
        m("core.fanout_us", per_call(Name::CoreFanout), "us"),
        m("core.callbacks_per_tx", ratio(c.callbacks, c.txs), "count"),
        m("durability.encode_us", per_call(Name::DurEncode), "us"),
        m("durability.append_us", per_call(Name::DurAppend), "us"),
        m(
            "durability.wal_bytes_per_tx",
            ratio(c.wal_bytes, c.txs),
            "bytes",
        ),
        m(
            "durability.vfs_ops",
            disk.map_or(0.0, |d| ratio(d.1, commits)),
            "count",
        ),
        m(
            "durability.disk_bytes_per_op",
            disk.map_or(0.0, |d| ratio(d.0, commits)),
            "bytes",
        ),
        m(
            "durability.snapshot_capture_us",
            per_call(Name::DurSnapshotCapture),
            "us",
        ),
        m(
            "durability.snapshot_encode_us",
            per_call(Name::DurSnapshotEncode),
            "us",
        ),
        m(
            "durability.snapshot_write_us",
            per_call(Name::DurSnapshotWrite),
            "us",
        ),
        m(
            "durability.snapshot_bytes",
            ratio(c.snapshot_bytes, c.snapshots),
            "bytes",
        ),
        m("durability.snapshots", c.snapshots as f64, "count"),
        m(
            "durability.recovery_plan_us",
            per_call(Name::DurRecoveryPlan),
            "us",
        ),
        m(
            "durability.snapshot_decode_us",
            per_call(Name::DurSnapshotDecode),
            "us",
        ),
        m(
            "durability.restore_graph_us",
            per_call(Name::DurRestoreGraph),
            "us",
        ),
        m("durability.replay_tx", c.replay_tx as f64, "count"),
        m("durability.recover_s", recover_s, "s"),
        m(
            "durability.std_sync_us",
            if spec.durable {
                std_sync_probe_us()
            } else {
                0.0
            },
            "us",
        ),
        m("core.facade_op_us", facade_ns as f64 / ops / 1e3, "us"),
        m("core.residual_us", residual_ns as f64 / ops / 1e3, "us"),
        m("core.residual_share", share(residual_ns as f64), "ratio"),
        m(
            "core.trace_overhead_ratio",
            twin_wall_ns as f64 / facade_ns as f64,
            "ratio",
        ),
        m(
            "core.op_p999_us",
            us(percentile(&facade_sorted, 0.999)),
            "us",
        ),
        m(
            "core.op_max_us",
            us(*facade_sorted.last().expect("samples")),
            "us",
        ),
        m("core.ref_burst_us", host_ns / 1e3, "us"),
    ];
    for (layer, name) in LAYERS {
        // The façade's own share is its fan-out plus what the twin cannot
        // reproduce.
        let extra = if layer == "core" {
            residual_ns as f64
        } else {
            0.0
        };
        out.push(m(name, share(layer_ns(layer) as f64 + extra), "ratio"));
    }
    out
}
