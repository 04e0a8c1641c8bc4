//! The repo's end-to-end benchmark. See README.md beside `Cargo.toml`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]     # all six
//! ```
//!
//! One workload runs per process (so `peak_rss_mb` is per workload);
//! without `--workload` the binary re-invokes itself once per workload
//! and prints one table. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod calib;
mod digest;
mod facade;
mod gen;
mod ops;
mod prng;
mod run;
mod stats;
mod surface;
mod trace;
mod twin;
mod workloads;

use std::process::{Command, ExitCode};

use run::{Args, Report};

const USAGE: &str =
    "usage: benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]
workloads: social_stream social_durable cypher_session view_churn motif_skew fanout_batch";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?.clone();
                if !workloads::NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                cli.workload = Some(w);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => cli.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn run_one(cli: &Cli, workload: &str) -> ExitCode {
    let args = Args {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.quick { 1.0 } else { 8.0 }),
        trace: cli.trace,
        quick: cli.quick,
    };
    let report = run::run(&args);
    eprintln!(
        "== {workload} (seed {}, {} s, trace {})",
        args.seed, args.seconds, args.trace
    );
    for note in &report.notes {
        eprintln!("   {note}");
    }
    for m in &report.metrics {
        eprintln!("   {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&report));
    if report.correct && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-invoke this binary once per workload, in turn, passing the child's
/// report (stderr) through and collecting each child's result line.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut lines = Vec::new();
    let mut ok = true;
    for w in workloads::NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &cli.seed.to_string()]);
        cmd.args(["--trace", if cli.trace { "1" } else { "0" }]);
        if let Some(s) = cli.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if cli.quick {
            cmd.arg("--quick");
        }
        let out = cmd.output().expect("child runs");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        ok &= out.status.success();
        let stdout = String::from_utf8_lossy(&out.stdout);
        lines.push(format!(
            "\"{w}\": {}",
            stdout.lines().last().unwrap_or("null")
        ));
    }
    println!("{{{}}}", lines.join(", "));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // The engine runs at its defaults (width 1, snapshot cadence 1024,
    // compaction on): no PGQ_* toggle reaches it. Single-threaded here.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PGQ_") {
            std::env::remove_var(key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(w) => run_one(&cli, w),
        None => run_all(&cli),
    }
}
