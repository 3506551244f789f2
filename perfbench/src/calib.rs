//! Host-speed calibration. The benchmark runs on shared machines whose
//! speed for the same single-threaded work wanders by 1.5× and more over
//! minutes, and CPU time drifts with wall time, so neither tells a
//! slower program from a slower host. Each pass therefore also times a
//! small fixed kernel at points spread through it; the run's times are
//! scaled by [`REFERENCE_MS`] ÷ the kernel's median time over the run,
//! which reports them as they would read on a host where the kernel
//! takes [`REFERENCE_MS`].
//!
//! The kernel is the benchmark's own code and shares nothing with the
//! program, so a change to the program cannot move it. It does the kind
//! of work the simulator does — LU with partial pivoting, a triangular
//! solve, `exp`/`sqrt`.

use std::hint::black_box;
use std::time::Instant;

/// The kernel time the end-to-end times are scaled to: a round figure
/// near its time on the 2-vCPU Xeon the benchmark was built on.
pub const REFERENCE_MS: f64 = 0.5;

/// Matrix order: 96 × 96 doubles (72 KiB) outgrow the first-level
/// cache. A 24 × 24 kernel that fitted in it tracked the workloads'
/// slowdowns less closely.
const N: usize = 96;

/// Factorisations per kernel run, sizing one run at about half a
/// millisecond.
const REPS: usize = 2;

/// Times one run of the kernel, in milliseconds.
pub fn time_ms() -> f64 {
    let start = Instant::now();
    // The order goes through `black_box` so the loops run at a size
    // the compiler cannot specialise for, as the simulator's do.
    black_box(kernel(black_box(N), 0x9E37_79B9_7F4A_7C15));
    start.elapsed().as_secs_f64() * 1e3
}

/// Factors and solves `REPS` diagonally dominant `n × n` systems
/// generated from `seed` and folds the solutions into one number.
fn kernel(n: usize, seed: u64) -> f64 {
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut a = vec![0.0f64; n * n];
    let mut b = vec![0.0f64; n];
    let mut acc = 0.0;
    for rep in 0..REPS {
        for i in 0..n {
            for j in 0..n {
                a[i * n + j] = next() + if i == j { n as f64 } else { 0.0 };
            }
        }
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i as f64 * 0.37 + rep as f64).exp().ln_1p();
        }
        for k in 0..n {
            let mut pivot = k;
            for i in k + 1..n {
                if a[i * n + k].abs() > a[pivot * n + k].abs() {
                    pivot = i;
                }
            }
            if pivot != k {
                for j in 0..n {
                    a.swap(k * n + j, pivot * n + j);
                }
                b.swap(k, pivot);
            }
            for i in k + 1..n {
                let f = a[i * n + k] / a[k * n + k];
                for j in k..n {
                    a[i * n + j] -= f * a[k * n + j];
                }
                b[i] -= f * b[k];
            }
        }
        for i in (0..n).rev() {
            let mut s = b[i];
            for j in i + 1..n {
                s -= a[i * n + j] * b[j];
            }
            b[i] = s / a[i * n + i];
        }
        acc += b
            .iter()
            .map(|x| (x * 1e-3).exp() + (1.0 + x.abs()).sqrt())
            .sum::<f64>();
    }
    acc
}
