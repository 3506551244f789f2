//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships a minimal, dependency-free benchmark harness covering the API
//! surface its benches use: [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`] / [`BenchmarkGroup::bench_with_input`],
//! [`Bencher::iter`], [`BenchmarkId`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! There is no warm-up, outlier rejection or statistical analysis: each
//! benchmark runs `sample_size` timed iterations and prints the mean in
//! nanoseconds per iteration, to 0.1 ns, so sub-microsecond kernels
//! still read as distinct numbers. That is enough to keep `cargo bench`
//! compiling and give rough numbers.

use std::fmt;
use std::time::{Duration, Instant};

/// Opaque identity function preventing the optimiser from deleting a value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level benchmark driver, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            _criterion: self,
            sample_size: 10,
        }
    }

    /// Runs a single benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl fmt::Display, f: F) {
        run_one(id, 10, f);
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed iterations each benchmark in the group runs.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl fmt::Display, f: F) {
        run_one(id, self.sample_size, f);
    }

    /// Runs one benchmark parameterised by `input`.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl fmt::Display,
        input: &I,
        mut f: F,
    ) {
        run_one(id, self.sample_size, |b| f(b, input));
    }

    /// Ends the group (a no-op in this shim, kept for API parity).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(id: impl fmt::Display, samples: usize, mut f: F) {
    let mut bencher = Bencher {
        elapsed: Duration::ZERO,
        iterations: 0,
    };
    for _ in 0..samples {
        f(&mut bencher);
    }
    println!(
        "  {id}: {:.1} ns/iter ({} iters)",
        ns_per_iter(bencher.elapsed, bencher.iterations),
        bencher.iterations
    );
}

/// Mean nanoseconds per iteration (0 when nothing ran), computed from
/// the whole-nanosecond total so no iteration count truncates it.
fn ns_per_iter(elapsed: Duration, iterations: u64) -> f64 {
    if iterations == 0 {
        0.0
    } else {
        elapsed.as_nanos() as f64 / iterations as f64
    }
}

/// Times closures passed to [`Bencher::iter`].
pub struct Bencher {
    elapsed: Duration,
    iterations: u64,
}

impl Bencher {
    /// Times one execution of `routine`, accumulating into the sample.
    pub fn iter<T, R: FnMut() -> T>(&mut self, mut routine: R) {
        let start = Instant::now();
        let out = routine();
        self.elapsed += start.elapsed();
        self.iterations += 1;
        drop(black_box(out));
    }
}

/// A benchmark name with a parameter attached, e.g. `resolution/8`.
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a parameter value.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{name}/{parameter}"),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// Declares a group of benchmark functions (mirrors `criterion::criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark entry point (mirrors `criterion::criterion_main!`).
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
    fn group_runs_and_times() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut runs = 0;
        group.bench_function("count", |b| b.iter(|| runs += 1));
        group.bench_with_input(BenchmarkId::new("with_input", 4), &4usize, |b, &n| {
            b.iter(|| n * 2)
        });
        group.finish();
        assert_eq!(runs, 3);
    }

    #[test]
    fn mean_resolves_sub_nanosecond_steps_at_any_iteration_count() {
        assert_eq!(ns_per_iter(Duration::ZERO, 0), 0.0);
        assert_eq!(ns_per_iter(Duration::from_nanos(7), 2), 3.5);
        // More iterations than a u32 holds: the divisor is not truncated.
        let iterations = 5_000_000_000_u64;
        assert_eq!(ns_per_iter(Duration::from_secs(10), iterations), 2.0);
    }
}
