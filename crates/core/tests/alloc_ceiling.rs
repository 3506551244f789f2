//! The heap a streamed signature needs: a counting global allocator
//! measures the peak live bytes of a correlation-signature extraction.
//!
//! The transient is sampled as it marches, so the peak is set by the
//! samples and the solver's working set, not by the number of
//! timesteps: marching the same bench at a quarter of the step leaves
//! the peak where it was, where storing every row would need four times
//! the memory.
//!
//! The allocator is process-wide, so this binary holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};

use anasim::mna::MnaLayout;
use anasim::transient::TransientAnalysis;
use macrolib::process::ProcessParams;
use msbist::transtest::circuits::circuit1;
use msbist::transtest::TransientTestBench;

/// The system allocator, counting live and peak bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the peak live bytes it added.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - base)
}

/// Rows a full march of `bench`'s analysis visits.
fn rows(bench: &TransientTestBench, dt: f64) -> usize {
    let t_stop = bench.stimulus().total_duration() * bench.periods() as f64;
    let mut rows = 0;
    TransientAnalysis::new(t_stop, dt)
        .march(bench.netlist(), |_, _| {
            rows += 1;
            ControlFlow::Continue(())
        })
        .unwrap();
    rows
}

#[test]
fn circuit1_correlation_signature_peaks_at_samples_not_steps() {
    let c1 = circuit1(&ProcessParams::nominal());
    let coarse = &c1.bench;
    // The same bench marched at a quarter of circuit 1's 2 µs step.
    let fine = TransientTestBench::new(
        coarse.netlist().clone(),
        coarse.stimulus_source(),
        coarse.output(),
        coarse.stimulus().clone(),
        8,
        0.5e-6,
    );
    let samples = coarse.sample_count();
    assert_eq!(fine.sample_count(), samples);
    let unknowns = MnaLayout::new(coarse.netlist()).size();

    let (sig_coarse, peak_coarse) =
        peak_during(|| coarse.correlation_signature(coarse.netlist()).unwrap());
    let (sig_fine, peak_fine) = peak_during(|| fine.correlation_signature(fine.netlist()).unwrap());
    assert_eq!(sig_coarse.len(), 2 * samples - 1);
    assert_eq!(sig_fine.len(), sig_coarse.len());

    // What storing every row (solutions and times) would hold at the
    // end of each march.
    let (rows_coarse, rows_fine) = (rows(coarse, 2e-6), rows(&fine, 0.5e-6));
    assert!(rows_fine > 3 * rows_coarse, "{rows_fine} vs {rows_coarse} rows");
    let stored = |rows: usize| rows * (unknowns + 1) * std::mem::size_of::<f64>();
    // O(samples): the signature's own vectors, the samples and the
    // stimulus's correlation signal, plus the solver's working set,
    // which depends on the circuit but not on the step count. Storing
    // the coarse march's rows alone would overrun it.
    let ceiling = 32 * 1024 + 32 * samples * std::mem::size_of::<f64>();
    assert!(stored(rows_coarse) > 2 * ceiling);
    for (what, peak) in [("coarse", peak_coarse), ("fine", peak_fine)] {
        assert!(
            peak < ceiling,
            "{what} march peaked at {peak} B, ceiling {ceiling} B ({samples} samples)"
        );
    }
    // Four times the steps leave the peak where it was.
    assert!(
        peak_fine.abs_diff(peak_coarse) <= 4 * 1024,
        "peak {peak_coarse} B at 2 µs, {peak_fine} B at 0.5 µs"
    );
}
