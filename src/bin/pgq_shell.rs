//! `pgq-shell` — a minimal interactive shell over the engine, in the
//! spirit of `cypher-shell`, with extra commands for the IVM machinery.
//!
//! ```text
//! $ cargo run --bin pgq_shell
//! pgq> CREATE (:Post {lang: 'en'})-[:REPLY]->(:Comm {lang: 'en'})
//! +1 nodes...
//! pgq> :view threads MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t
//! pgq> :watch threads
//! pgq> MATCH (c:Comm) CREATE (c)-[:REPLY]->(:Comm {lang: 'en'})
//! [threads] + ⟨v0, [0, 1, 2]⟩
//! ```
//!
//! Commands: `:view NAME QUERY`, `:views`, `:results NAME`, `:watch
//! NAME`, `:explain QUERY`, `:indexes`, `:shapes`, `:stats NAME`, `:save FILE`,
//! `:load FILE`, `:help`, `:quit`. `EXPLAIN <query>` renders the full pipeline
//! including the cost-based plan with per-operator cardinality
//! estimates. Anything else is executed as an openCypher statement.

use std::io::{self, BufRead, Write};
use std::sync::{Arc, Mutex};

use pgq::prelude::*;
use pgq_core::ViewDelta;

fn print_table(columns: &[String], rows: &[pgq_common::tuple::Tuple]) {
    if columns.is_empty() && rows.is_empty() {
        return;
    }
    let mut widths: Vec<usize> = columns.iter().map(String::len).collect();
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|t| t.values().iter().map(|v| v.to_string()).collect())
        .collect();
    for row in &rendered {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (c, w) in cells.iter().zip(&widths) {
            s.push_str(&format!(" {c:<w$} |"));
        }
        s
    };
    println!("{}", line(columns));
    println!(
        "|{}",
        widths
            .iter()
            .map(|w| format!("{}|", "-".repeat(w + 2)))
            .collect::<String>()
    );
    for row in rendered {
        println!("{}", line(&row));
    }
    println!(
        "({} row{})",
        rows.len(),
        if rows.len() == 1 { "" } else { "s" }
    );
}

fn help() {
    println!(
        "commands:\n  \
         :view NAME QUERY   register an incrementally maintained view\n  \
         :views             list registered views\n  \
         :results NAME      print a view's current rows\n  \
         :watch NAME        print the view's deltas after every update\n  \
         :explain QUERY     show the GRA/NRA/FRA pipeline and the one-shot plan\n  \
         :indexes           property indexes built by keyed statements\n  \
         :shapes            statement shapes kept: entries, hits, misses, re-plans\n  \
         :stats NAME        per-operator memory statistics\n  \
         :save FILE         dump the graph in text format\n  \
         :load FILE         load a graph dump into a new in-memory engine (views reset;\n  \
         \x20                  refused under PGQ_DATA_DIR: the engine keeps its graph)\n  \
         :health            durability status (generation, WAL size, degraded?)\n  \
         :heal              clear read-only degraded mode (re-snapshots)\n  \
         :help              this text\n  \
         :quit              exit\n\
         EXPLAIN QUERY      like :explain (pipeline + cost-based plan estimates)\n\
         anything else is executed as an openCypher statement"
    );
}

fn main() {
    // PGQ_DATA_DIR arms durability: WAL + snapshots in that directory,
    // standing views re-registered from the catalog on restart.
    let mut engine = match std::env::var_os("PGQ_DATA_DIR") {
        Some(dir) => match GraphEngine::open_durable(std::path::PathBuf::from(dir)) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("failed to open durable engine: {e}");
                std::process::exit(1);
            }
        },
        None => GraphEngine::new(),
    };
    let watch_log: Arc<Mutex<Vec<ViewDelta>>> = Arc::new(Mutex::new(Vec::new()));
    let stdin = io::stdin();
    let interactive = atty_stdin();
    if interactive {
        println!("pgq-shell — :help for commands");
    }
    loop {
        if interactive {
            print!("pgq> ");
            let _ = io::stdout().flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        if let Some(rest) = line.strip_prefix(':') {
            let mut parts = rest.splitn(2, ' ');
            let cmd = parts.next().unwrap_or("");
            let arg = parts.next().unwrap_or("").trim();
            match cmd {
                "quit" | "q" | "exit" => break,
                "help" => help(),
                "view" => {
                    let mut p = arg.splitn(2, ' ');
                    let name = p.next().unwrap_or("").to_string();
                    let query = p.next().unwrap_or("").trim();
                    if name.is_empty() || query.is_empty() {
                        println!("usage: :view NAME QUERY");
                        continue;
                    }
                    match engine.register_view(&name, query) {
                        Ok(id) => println!(
                            "view `{name}` registered; {} rows",
                            engine.view(id).map(|v| v.row_count()).unwrap_or(0)
                        ),
                        Err(e) => println!("error: {e}"),
                    }
                }
                "views" => {
                    for (_, v) in engine.views() {
                        println!(
                            "  {:<20} {:>6} rows  {:>9} memory tuples",
                            v.name(),
                            v.row_count(),
                            v.memory_tuples()
                        );
                    }
                }
                "results" => match engine.view_by_name(arg) {
                    Some(id) => {
                        let columns = engine
                            .view(id)
                            .map(|v| v.columns().to_vec())
                            .unwrap_or_default();
                        let rows = engine.view_results(id).unwrap_or_default();
                        print_table(&columns, &rows);
                    }
                    None => println!("unknown view `{arg}`"),
                },
                "watch" => match engine.view_by_name(arg) {
                    Some(id) => {
                        let sink = watch_log.clone();
                        let _ = engine.subscribe(id, move |d| {
                            sink.lock().unwrap().push(d.clone());
                        });
                        println!("watching `{arg}`");
                    }
                    None => println!("unknown view `{arg}`"),
                },
                "explain" => match engine.explain(arg) {
                    Ok(text) => println!("{text}"),
                    Err(e) => println!("error: {e}"),
                },
                "indexes" => {
                    let indexes = engine.property_indexes();
                    if indexes.is_empty() {
                        println!("no property indexes (built on the first `(:Label {{key: value}})` statement)");
                    }
                    for (label, key, entries) in indexes {
                        println!("{label}.{key}  {entries} entries");
                    }
                }
                "shapes" => {
                    let (entries, hits, misses, replans) = engine.statement_shapes();
                    println!(
                        "{entries} shapes kept  {hits} hits  {misses} misses  {replans} re-plans"
                    );
                }
                "stats" => match engine.view_by_name(arg) {
                    Some(id) => match engine.view_stats(id) {
                        Ok(s) => println!("{s}"),
                        Err(e) => println!("error: {e}"),
                    },
                    None => println!("unknown view `{arg}`"),
                },
                "save" => match pgq_graph::csv::to_text(engine.graph()) {
                    Ok(text) => match std::fs::write(arg, text) {
                        Ok(()) => println!("saved to {arg}"),
                        Err(e) => println!("write error: {e}"),
                    },
                    Err(e) => println!("error: {e}"),
                },
                // A loaded graph starts an in-memory engine: it has no log
                // to replay, so a durable engine keeps its graph.
                "load" if engine.durability_health().is_some() => println!(
                    "error: :load replaces the engine with an in-memory one; \
                     this engine is durable (PGQ_DATA_DIR), so it keeps its graph"
                ),
                "load" => match std::fs::read_to_string(arg) {
                    Ok(text) => match pgq_graph::csv::from_text(&text) {
                        Ok(g) => {
                            println!(
                                "loaded {} vertices, {} edges (views reset)",
                                g.vertex_count(),
                                g.edge_count()
                            );
                            engine = GraphEngine::from_graph(g);
                        }
                        Err(e) => println!("parse error: {e}"),
                    },
                    Err(e) => println!("read error: {e}"),
                },
                "health" => {
                    match engine.durability_health() {
                        Some(h) => {
                            println!(
                                "generation {} | {} WAL records ({} bytes) | flush window {}",
                                h.generation, h.wal_records, h.wal_len, h.flush_window,
                            );
                            println!(
                                "{} snapshots written (last {} bytes)",
                                h.snapshots_written, h.last_snapshot_bytes,
                            );
                            println!(
                                "recovery base generation {:?} | fold in flight: {} | {} failed folds",
                                h.base_generation, h.fold_in_flight, h.fold_failures,
                            );
                            match &h.degraded {
                            Some(e) => println!("DEGRADED (read-only) after: {e}\nrun :heal once the disk is fixed"),
                            None => println!("healthy ({} consecutive commit failures)", h.fail_streak),
                        }
                            if let Some(e) = &h.last_error {
                                println!("last durability error: {e}");
                            }
                            if let Some(r) = engine.recovery_report() {
                                if !r.is_pristine() {
                                    println!("recovery repaired this store at open: {r:?}");
                                }
                            }
                        }
                        None => println!("in-memory engine (set PGQ_DATA_DIR to arm durability)"),
                    }
                }
                "heal" => match engine.reset_durability() {
                    Ok(()) => println!("durability reset: fresh snapshot cut, writes re-enabled"),
                    Err(e) => println!("error: {e}"),
                },
                other => println!("unknown command :{other} (:help)"),
            }
            continue;
        }
        // `EXPLAIN <query>` — render the full pipeline including the
        // cost-based plan with estimated cardinalities (same output as
        // `:explain`).
        if line
            .get(..7)
            .is_some_and(|kw| kw.eq_ignore_ascii_case("EXPLAIN"))
            && line.as_bytes().get(7) == Some(&b' ')
        {
            match engine.explain(line[8..].trim()) {
                Ok(text) => println!("{text}"),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        // Plain statement(s) — `;`-separated scripts are fine. A single
        // statement goes through `execute`, which keeps its shape
        // (`:shapes`); a script runs the front end per statement.
        let results = if line.contains(';') {
            engine.execute_script(line)
        } else {
            engine.execute(line).map(|r| vec![r])
        };
        match results {
            Ok(results) => {
                for result in results {
                    if !result.rows.is_empty() || !result.columns.is_empty() {
                        print_table(&result.columns, &result.rows);
                    } else {
                        let st = result.stats;
                        let mut parts = Vec::new();
                        for (n, what) in [
                            (st.nodes_created, "nodes created"),
                            (st.relationships_created, "relationships created"),
                            (st.nodes_deleted, "nodes deleted"),
                            (st.relationships_deleted, "relationships deleted"),
                            (st.properties_set, "properties set"),
                            (st.labels_added, "labels added"),
                            (st.labels_removed, "labels removed"),
                        ] {
                            if n > 0 {
                                parts.push(format!("{n} {what}"));
                            }
                        }
                        if parts.is_empty() {
                            println!("ok");
                        } else {
                            println!("{}", parts.join(", "));
                        }
                    }
                }
            }
            Err(EngineError::Parse(p)) => println!("{}", p.render(line)),
            Err(e) => println!("error: {e}"),
        }
        // Flush watch notifications.
        for d in watch_log.lock().unwrap().drain(..) {
            for (t, m) in &d.inserted {
                println!(
                    "[{}] + {t}{}",
                    d.view,
                    if *m > 1 {
                        format!(" ×{m}")
                    } else {
                        String::new()
                    }
                );
            }
            for (t, m) in &d.removed {
                println!(
                    "[{}] - {t}{}",
                    d.view,
                    if *m > 1 {
                        format!(" ×{m}")
                    } else {
                        String::new()
                    }
                );
            }
        }
    }
}

/// Cheap interactivity test without extra dependencies: assume
/// interactive unless stdin is redirected (heuristic via env).
fn atty_stdin() -> bool {
    // Portable-enough heuristic without a dependency: treat explicit
    // PGQ_BATCH=1 as non-interactive, otherwise interactive.
    std::env::var_os("PGQ_BATCH").is_none()
}
