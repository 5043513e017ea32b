//! Allocation accounting for the spectral pipeline.
//!
//! Pins the PR's zero-allocation guarantee with a counting global allocator:
//! once the planner, scratch and output buffers are warm, `periodogram_into`
//! and `welch_into` must not touch the heap at all.
//!
//! The counter is **per-thread**: libtest's harness threads (timeout
//! watchdog, capture machinery) allocate at unpredictable times, so a
//! process-global counter would flake. Counting only the measuring thread's
//! allocations makes the zero assertion exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sweetspot_dsp::fft::{FftPlanner, FftScratch};
use sweetspot_dsp::psd::{periodogram_into, welch_into, PsdConfig, PsdScratch, WelchConfig};
use sweetspot_dsp::window::Window;

std::thread_local! {
    // const-init + no Drop ⇒ accessing this inside the allocator hooks
    // never itself allocates or registers a TLS destructor.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a plain
// thread-local side effect (`try_with` so teardown-time allocations on
// foreign threads are simply not counted rather than panicking).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Number of allocations *this thread* performed while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            (0.002 * t).sin() + 0.5 * (0.04 * t).sin() + 0.1 * (0.3 * t).cos()
        })
        .collect()
}

#[test]
fn spectral_pipeline_steady_state_is_allocation_free() {
    let cfg = PsdConfig {
        window: Window::Hann,
        detrend: true,
    };
    let mut planner = FftPlanner::new();
    let mut scratch = PsdScratch::new();
    let mut power = Vec::new();

    // Periodogram: a power-of-two length, the 30 s and 60 s day-trace
    // lengths (packed real path over mixed-radix halves) and a length with a
    // prime half (Bluestein). First call warms plans and buffers; the second
    // must be allocation-free.
    for n in [4096usize, 2880, 1440, 2 * 1439] {
        let sig = signal(n);
        periodogram_into(&mut planner, &mut scratch, &sig, cfg, &mut power);
        let count = allocations_during(|| {
            periodogram_into(&mut planner, &mut scratch, &sig, cfg, &mut power);
        });
        assert_eq!(count, 0, "steady-state periodogram (n={n}) must not allocate");
    }

    // The packed inverse over a mixed-radix half, through caller-owned
    // scratch: the same warm-then-zero contract.
    let sig = signal(2880);
    let mut fft_scratch = FftScratch::new();
    let mut spectrum = Vec::new();
    let mut back = Vec::new();
    planner.fft_real_into_with(&sig, &mut spectrum, &mut fft_scratch);
    planner.ifft_real_into_with(&spectrum, sig.len(), &mut back, &mut fft_scratch);
    let count = allocations_during(|| {
        planner.ifft_real_into_with(&spectrum, sig.len(), &mut back, &mut fft_scratch);
    });
    assert_eq!(count, 0, "steady-state ifft_real_into_with (n=2880) must not allocate");

    // Welch: the per-segment inner loop must be allocation-free — not just
    // amortized. With everything warm, an entire multi-segment run touches
    // the heap zero times, so per-segment cost is exactly zero.
    let welch_cfg = WelchConfig {
        segment_len: 256,
        overlap: 0.5,
        window: Window::Hann,
        detrend: true,
    };
    let long = signal(8192); // 63 overlapped segments
    let mut acc = Vec::new();
    welch_into(&mut planner, &mut scratch, &long, welch_cfg, &mut acc);
    let count = allocations_during(|| {
        welch_into(&mut planner, &mut scratch, &long, welch_cfg, &mut acc);
    });
    assert_eq!(count, 0, "steady-state welch must not allocate in its segment loop");
}
