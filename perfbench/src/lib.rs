//! The sweetspot benchmark: three workloads driven only through the
//! library's public calls, with per-layer timing taken around those calls.
//!
//! * [`workloads`] — the configurations each workload runs, made from the
//!   benchmark seed.
//! * [`study`] and [`fleet`] — re-drives of the study pipeline and the
//!   fleet epoch loop with every layer boundary timed (see [`layers`]).
//!
//! `src/main.rs` is the command; `README.md` documents the workloads,
//! metrics and baseline numbers.

pub mod fleet;
pub mod layers;
pub mod study;
pub mod workloads;

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank `q` quantile of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
