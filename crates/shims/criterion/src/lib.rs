//! Minimal, offline stand-in for `criterion`.
//!
//! Provides the API surface this workspace's benches use — groups,
//! `bench_function`, `bench_with_input`, throughput annotation,
//! `BenchmarkId`, `black_box`, and the `criterion_group!`/
//! `criterion_main!` macros — with a simple wall-clock measurement loop:
//! warm up briefly, then run batches until ~`measure_ms` elapses, and
//! report the mean per-iteration time (and throughput when annotated) on
//! stdout. No statistics, plots, or baselines.

use std::fmt::Display;
use std::hint;
use std::time::{Duration, Instant};

/// Prevent the optimizer from deleting a computed value.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Throughput annotation for a benchmark.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// A benchmark identifier (name, or name + parameter).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Just the parameter (the group provides the function name).
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { label: s.into() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { label: s }
    }
}

/// Timing loop handed to benchmark closures.
pub struct Bencher {
    measure: Duration,
    /// Mean per-iteration time of the last `iter` call.
    last_mean: Option<Duration>,
}

impl Bencher {
    /// Measure `f` repeatedly and record the mean iteration time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // One untimed warm-up iteration.
        black_box(f());
        let start = Instant::now();
        let mut iters = 0u64;
        loop {
            black_box(f());
            iters += 1;
            if start.elapsed() >= self.measure {
                break;
            }
        }
        self.last_mean = Some(start.elapsed() / iters.max(1) as u32);
    }
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if nanos >= 1_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3} µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos} ns")
    }
}

fn report(label: &str, mean: Option<Duration>, throughput: Option<Throughput>) {
    let Some(mean) = mean else {
        println!("bench {label}: no measurement");
        return;
    };
    let mut line = format!("bench {label}: {} /iter", fmt_duration(mean));
    if let Some(tp) = throughput {
        let per_sec = |n: u64| n as f64 / mean.as_secs_f64().max(1e-12);
        match tp {
            Throughput::Bytes(n) => {
                line.push_str(&format!(" ({:.1} MiB/s)", per_sec(n) / (1024.0 * 1024.0)));
            }
            Throughput::Elements(n) => {
                let ns_per = mean.as_secs_f64() * 1e9 / n.max(1) as f64;
                line.push_str(&format!(" ({:.0} elem/s, {ns_per:.1} ns/elem)", per_sec(n)));
            }
        }
    }
    println!("{line}");
}

/// The benchmark driver.
pub struct Criterion {
    measure: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        // Keep runs quick: enough to see relative costs, not to publish.
        let ms = std::env::var("FTBB_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(50);
        Criterion {
            measure: Duration::from_millis(ms),
        }
    }
}

impl Criterion {
    /// Run one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            measure: self.measure,
            last_mean: None,
        };
        f(&mut b);
        report(name, b.last_mean, None);
        self
    }

    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }
}

/// A group of related benchmarks sharing a name prefix and throughput.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; this harness sizes by time, not
    /// sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.criterion.measure = d.min(Duration::from_millis(250));
        self
    }

    /// Annotate subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, tp: Throughput) -> &mut Self {
        self.throughput = Some(tp);
        self
    }

    /// Run one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut b = Bencher {
            measure: self.criterion.measure,
            last_mean: None,
        };
        f(&mut b);
        report(
            &format!("{}/{}", self.name, id.label),
            b.last_mean,
            self.throughput,
        );
        self
    }

    /// Run one benchmark with an explicit input.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut b = Bencher {
            measure: self.criterion.measure,
            last_mean: None,
        };
        f(&mut b, input);
        report(
            &format!("{}/{}", self.name, id.label),
            b.last_mean,
            self.throughput,
        );
        self
    }

    /// Finish the group (no-op; for API compatibility).
    pub fn finish(self) {}
}

/// Declare a group of benchmark functions.
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

/// Entry point running the declared groups.
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
    fn bench_function_reports_and_runs() {
        let mut c = Criterion {
            measure: Duration::from_millis(1),
        };
        let mut runs = 0u32;
        c.bench_function("smoke", |b| {
            b.iter(|| {
                runs += 1;
                black_box(runs)
            })
        });
        assert!(runs >= 2, "warm-up + at least one measured iteration");
    }

    #[test]
    fn group_api_chains() {
        let mut c = Criterion {
            measure: Duration::from_millis(1),
        };
        let mut group = c.benchmark_group("g");
        group.sample_size(10).throughput(Throughput::Elements(4));
        group.bench_function(BenchmarkId::from_parameter(32), |b| b.iter(|| black_box(1)));
        group.bench_with_input(BenchmarkId::new("x", 2), &2u32, |b, &n| {
            b.iter(|| black_box(n * 2))
        });
        group.finish();
    }
}
