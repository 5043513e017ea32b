//! Property-based tests for the time-series substrate.

use proptest::prelude::*;
use sweetspot_timeseries::clean::{
    clean, clean_into, drop_invalid, drop_outliers, regularize, CleanConfig, CleanError,
    CleanScratch,
};
use sweetspot_timeseries::ingest::{parse_csv, to_csv};
use sweetspot_timeseries::windowing::moving_windows;
use sweetspot_timeseries::{IrregularSeries, RegularSeries, Seconds};

/// Strategy: strictly increasing timestamps with jittered gaps, paired with
/// finite values.
fn irregular_strategy() -> impl Strategy<Value = IrregularSeries> {
    prop::collection::vec((0.1f64..100.0, -1e6f64..1e6), 2..80).prop_map(|gaps| {
        let mut t = 0.0;
        let mut pairs = Vec::with_capacity(gaps.len());
        for (gap, v) in gaps {
            t += gap;
            pairs.push((Seconds(t), v));
        }
        IrregularSeries::from_pairs(pairs)
    })
}

/// Strategy: a raw poller trace with every impairment cleaning must absorb —
/// jittered gaps with the odd outage, duplicate stamps, NaN/infinite losses
/// and order-of-magnitude corrupt spikes. A heavy-tailed minority of values
/// straddles the MAD bounds, and values are quantized so ties (and, around
/// zero, signed zeros) are common.
fn dirty_trace_strategy() -> impl Strategy<Value = IrregularSeries> {
    let sample = (0u32..100, -3.0f64..3.0, 0u32..100, -4.0f64..4.0);
    (prop::collection::vec(sample, 2..400), 0.0f64..20.0).prop_map(|(samples, level)| {
        // A quarter of the traces sit at zero without an offset, so the
        // quantizer's -0.0 survives into the values.
        let at_level = |x: f64| if level < 5.0 { x } else { level + x };
        let mut t = 1_000.0;
        let mut times = Vec::with_capacity(samples.len());
        let mut values = Vec::with_capacity(samples.len());
        for (gap_kind, jitter, value_kind, noise) in samples {
            t += match gap_kind {
                0..=7 => 0.0,               // duplicate stamp
                8..=10 => 300.0 + jitter,   // outage
                _ => 10.0 + jitter,
            };
            times.push(Seconds(t));
            values.push(match value_kind {
                0..=5 => f64::NAN,
                6 => f64::INFINITY,
                7..=9 => at_level(1e9 * noise),
                10..=24 => at_level((noise.powi(3) * 4.0).round() / 4.0),
                _ => at_level((noise * 4.0).round() / 4.0),
            });
        }
        IrregularSeries::new(times, values)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The allocation-free cleaner equals the composed reference pipeline
    /// (`drop_invalid` → `drop_outliers` → `regularize`) bit for bit, with
    /// the MAD rule on, on inferred and fixed grids.
    #[test]
    fn clean_into_matches_composed_reference_on_dirty_traces(
        series in dirty_trace_strategy(),
        mads in 1.0f64..10.0,
        fixed in 0u32..2,
    ) {
        let interval = (fixed == 1).then_some(Seconds(10.0));
        let cfg = CleanConfig { interval, outlier_mads: Some(mads) };
        let reference = drop_outliers(&drop_invalid(&series), mads);
        let expected = if reference.len() < 2 {
            Err(CleanError::TooSparse(reference.len()))
        } else {
            let interval = interval.unwrap_or_else(|| reference.median_interval().unwrap());
            regularize(&reference, interval)
        };
        let got = clean_into(&series, cfg, &mut CleanScratch::new());
        match (&got, &expected) {
            (Ok(g), Ok(e)) => {
                prop_assert_eq!(g.start(), e.start());
                prop_assert_eq!(g.interval(), e.interval());
                let bits = |s: &RegularSeries| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(g), bits(e));
            }
            _ => prop_assert_eq!(got, expected),
        }
    }

    #[test]
    fn from_pairs_always_sorted(pairs in prop::collection::vec((0f64..1e6, -1e3f64..1e3), 0..50)) {
        let series = IrregularSeries::from_pairs(
            pairs.into_iter().map(|(t, v)| (Seconds(t), v)).collect(),
        );
        for w in series.times().windows(2) {
            prop_assert!(w[0].value() < w[1].value());
        }
    }

    #[test]
    fn regularize_covers_span_with_input_values(series in irregular_strategy()) {
        let interval = Seconds(1.0);
        let regular = regularize(&series, interval).unwrap();
        // Grid starts at the first sample and covers the last.
        prop_assert_eq!(regular.start(), series.start().unwrap());
        let end = regular.time_of(regular.len() - 1);
        prop_assert!(end.value() >= series.end().unwrap().value() - interval.value());
        // Every value is one of the input values (nearest-neighbour).
        for v in regular.values() {
            prop_assert!(series.values().contains(v));
        }
    }

    #[test]
    fn regularize_identity_on_regular_input(
        n in 2usize..60,
        interval in 0.5f64..100.0,
        base in -100f64..100.0,
    ) {
        let values: Vec<f64> = (0..n).map(|i| base + i as f64).collect();
        let reg = RegularSeries::new(Seconds(5.0), Seconds(interval), values);
        let back = regularize(&reg.to_irregular(), Seconds(interval)).unwrap();
        prop_assert_eq!(back, reg);
    }

    #[test]
    fn clean_output_has_no_nans(series in irregular_strategy()) {
        if let Ok(out) = clean(&series, CleanConfig::default()) {
            prop_assert!(out.values().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn drop_invalid_is_idempotent(series in irregular_strategy()) {
        let once = drop_invalid(&series);
        let twice = drop_invalid(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn csv_roundtrip_preserves_series(series in irregular_strategy()) {
        let text = to_csv(&series);
        let back = parse_csv(&text).unwrap();
        prop_assert_eq!(back.len(), series.len());
        for ((t1, v1), (t2, v2)) in series.iter().zip(back.iter()) {
            prop_assert!((t1.value() - t2.value()).abs() < 1e-9);
            prop_assert!((v1 - v2).abs() < 1e-9 * v1.abs().max(1.0));
        }
    }

    #[test]
    fn windows_cover_only_valid_ranges(
        n in 10usize..200,
        win in 2usize..50,
        step in 1usize..20,
    ) {
        let series = RegularSeries::new(
            Seconds::ZERO,
            Seconds(1.0),
            (0..n).map(|i| i as f64).collect(),
        );
        for view in moving_windows(&series, Seconds(win as f64), Seconds(step as f64)) {
            prop_assert!(view.start_index + view.values.len() <= n);
            // Window content matches the underlying series.
            for (k, &v) in view.values.iter().enumerate() {
                prop_assert_eq!(v, (view.start_index + k) as f64);
            }
        }
    }

    #[test]
    fn nearest_value_returns_an_input_value(series in irregular_strategy(), t in 0f64..5000.0) {
        let v = series.nearest_value(Seconds(t));
        prop_assert!(series.values().contains(&v));
    }

    #[test]
    fn median_interval_within_gap_range(series in irregular_strategy()) {
        let m = series.median_interval().unwrap().value();
        let gaps: Vec<f64> = series
            .times()
            .windows(2)
            .map(|w| w[1].value() - w[0].value())
            .collect();
        let lo = gaps.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = gaps.iter().cloned().fold(0.0, f64::max);
        prop_assert!(m >= lo - 1e-12 && m <= hi + 1e-12);
    }
}
