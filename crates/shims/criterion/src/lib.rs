//! Offline shim for `criterion`.
//!
//! crates.io is unreachable from the build environment, so this crate
//! implements the benchmark-harness subset the `many_views` bench uses:
//! `Criterion::benchmark_group`, `bench_function` / `bench_with_input`,
//! `Bencher::iter` / `iter_batched`, `BenchmarkId`, `BatchSize`, and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! Unlike the first cut (wall-clock means only), the shim now reports
//! robust statistics: per-sample timings are collected (with automatic
//! iteration batching for sub-microsecond routines, so one sample is
//! never smaller than the timer's useful resolution) and summarised as
//! **median**, **MAD** (median absolute deviation), mean and min.
//! `PGQ_BENCH_QUICK=1` is smoke mode: it overrides sample count and
//! measurement budget downwards so a bench finishes in seconds (used by
//! the CI `bench-smoke` job).
//!
//! Swap the path dependency for the real crate when a registry is
//! available.

use std::fmt::Display;
use std::hint;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box`, mirroring `criterion::black_box`.
pub fn black_box<T>(value: T) -> T {
    hint::black_box(value)
}

/// One sample must take at least this long, or iterations are batched
/// (timer granularity on Linux is tens of ns; 10 µs keeps quantisation
/// error under ~0.5%).
const MIN_SAMPLE_TIME: Duration = Duration::from_micros(10);

/// Is smoke mode (`PGQ_BENCH_QUICK=1`) active?
fn quick_mode() -> bool {
    std::env::var("PGQ_BENCH_QUICK").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// How much setup output to batch per measurement; accepted for API
/// compatibility (the shim always runs setup once per iteration).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BatchSize {
    /// Few iterations per batch — large inputs.
    #[default]
    LargeInput,
    /// Many iterations per batch — small inputs.
    SmallInput,
    /// One iteration per batch.
    PerIteration,
}

/// Identifier for a parameterised benchmark, mirroring `BenchmarkId`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// Builds an id rendered as `function_name/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            text: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Builds an id from a parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            text: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        Self { text: name.into() }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        Self { text: name }
    }
}

/// Robust summary of one benchmark's samples.
#[derive(Clone, Copy, Debug)]
pub struct SampleStats {
    /// Median time per iteration, nanoseconds.
    pub median_ns: f64,
    /// Median absolute deviation around the median, nanoseconds.
    pub mad_ns: f64,
    /// Mean time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Fastest sample, nanoseconds.
    pub min_ns: f64,
    /// Number of samples.
    pub samples: usize,
}

impl SampleStats {
    /// Summarise raw per-iteration samples (empty → all-zero stats).
    pub fn from_samples(mut samples: Vec<f64>) -> SampleStats {
        if samples.is_empty() {
            return SampleStats {
                median_ns: 0.0,
                mad_ns: 0.0,
                mean_ns: 0.0,
                min_ns: 0.0,
                samples: 0,
            };
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let median = median_of(&mut samples);
        let mut deviations: Vec<f64> = samples.iter().map(|s| (s - median).abs()).collect();
        let mad = median_of(&mut deviations);
        SampleStats {
            median_ns: median,
            mad_ns: mad,
            mean_ns: mean,
            min_ns: min,
            samples: n,
        }
    }

    /// Iterations per second at the median.
    pub fn ops_per_s(&self) -> f64 {
        if self.median_ns > 0.0 {
            1e9 / self.median_ns
        } else {
            0.0
        }
    }
}

/// Median of a mutable slice (sorted in place; even length averages the
/// two central elements).
fn median_of(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Top-level harness state, mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 20,
            warm_up_time: Duration::from_millis(150),
            measurement_time: Duration::from_millis(800),
        }
    }

    /// Runs a standalone benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group("");
        group.bench_function(id, |b| f(b));
        group.finish();
        self
    }
}

/// A named group of benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples to record per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the warm-up budget before sampling starts.
    pub fn warm_up_time(&mut self, t: Duration) -> &mut Self {
        self.warm_up_time = t;
        self
    }

    /// Sets the total measurement budget per benchmark.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Benchmarks `f` with no per-iteration input.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let label = if self.name.is_empty() {
            id.to_string()
        } else {
            format!("{}/{}", self.name, id)
        };
        // Smoke mode: clamp the budgets so a full sweep stays fast.
        let (sample_size, warm_up, measurement) = if quick_mode() {
            (
                self.sample_size.min(5),
                self.warm_up_time.min(Duration::from_millis(30)),
                self.measurement_time.min(Duration::from_millis(120)),
            )
        } else {
            (self.sample_size, self.warm_up_time, self.measurement_time)
        };
        let mut bencher = Bencher {
            warm_up_time: warm_up,
            measurement_time: measurement,
            sample_size,
            report: None,
        };
        f(&mut bencher);
        match bencher.report {
            Some(stats) => {
                println!(
                    "bench {label:<48} {:>12.1} ns/iter (median, MAD {:.1}, mean {:.1}, n={})",
                    stats.median_ns, stats.mad_ns, stats.mean_ns, stats.samples
                );
            }
            None => println!("bench {label:<48} (no measurement recorded)"),
        }
        self
    }

    /// Benchmarks `f` against a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group. (The shim reports eagerly, so this is a no-op.)
    pub fn finish(self) {}
}

/// Per-benchmark measurement driver handed to benchmark closures.
pub struct Bencher {
    warm_up_time: Duration,
    measurement_time: Duration,
    sample_size: usize,
    report: Option<SampleStats>,
}

impl Bencher {
    /// Times repeated calls of `routine`, batching iterations per sample
    /// when a single call is too fast to time accurately.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warm up and calibrate the batch size in one pass.
        let warm_up_end = Instant::now() + self.warm_up_time;
        let mut calls = 0u64;
        let warm_start = Instant::now();
        loop {
            black_box(routine());
            calls += 1;
            if Instant::now() >= warm_up_end {
                break;
            }
        }
        let per_call = warm_start
            .elapsed()
            .checked_div(calls as u32)
            .unwrap_or_default();
        let batch = if per_call >= MIN_SAMPLE_TIME {
            1
        } else {
            let per_call_ns = per_call.as_nanos().max(1);
            (MIN_SAMPLE_TIME.as_nanos() / per_call_ns).clamp(1, 1_000_000) as u32
        };
        self.sample(|| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            (start.elapsed(), batch as u64)
        });
    }

    /// Times `routine` over fresh inputs built by `setup`; setup time is
    /// excluded from the measurement, and — matching real criterion's
    /// `iter_batched` semantics — so is dropping the routine's output
    /// (benchmarks returning a whole engine would otherwise be charged
    /// its deallocation). (No batching: each sample is one routine
    /// invocation over a fresh input.)
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let warm_up_end = Instant::now() + self.warm_up_time;
        while Instant::now() < warm_up_end {
            let input = setup();
            black_box(routine(input));
        }
        self.sample(|| {
            let input = setup();
            let start = Instant::now();
            let output = routine(input);
            let elapsed = start.elapsed();
            drop(black_box(output));
            (elapsed, 1)
        });
    }

    /// Collect at least `sample_size` samples, then keep sampling until
    /// the measurement budget is spent — so slow routines still get their
    /// minimum samples and fast ones use the whole budget.
    fn sample<F: FnMut() -> (Duration, u64)>(&mut self, mut timed_once: F) {
        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size * 2);
        let deadline = Instant::now() + self.measurement_time;
        while samples.len() < self.sample_size || Instant::now() < deadline {
            let (elapsed, iters) = timed_once();
            samples.push(elapsed.as_nanos() as f64 / iters as f64);
        }
        self.report = Some(SampleStats::from_samples(samples));
    }
}

/// Declares a group function running each benchmark target in order.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    (name = $group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_median_mad_odd() {
        let s = SampleStats::from_samples(vec![1.0, 9.0, 5.0]);
        assert_eq!(s.median_ns, 5.0);
        assert_eq!(s.mad_ns, 4.0);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.samples, 3);
        assert!((s.mean_ns - 5.0).abs() < 1e-9);
    }

    #[test]
    fn stats_median_even_averages() {
        let s = SampleStats::from_samples(vec![1.0, 2.0, 3.0, 10.0]);
        assert_eq!(s.median_ns, 2.5);
        assert_eq!(s.samples, 4);
    }

    #[test]
    fn stats_median_robust_to_outlier() {
        // One 100× outlier should barely move the median while the mean
        // explodes — the reason the reporter quotes medians.
        let mut base = vec![10.0; 99];
        base.push(1000.0);
        let s = SampleStats::from_samples(base);
        assert_eq!(s.median_ns, 10.0);
        assert!(s.mean_ns > 19.0);
        assert_eq!(s.mad_ns, 0.0);
    }

    #[test]
    fn stats_empty_is_zero() {
        let s = SampleStats::from_samples(vec![]);
        assert_eq!(s.samples, 0);
        assert_eq!(s.ops_per_s(), 0.0);
    }
}
