//! The §3.2 study's per-pair pipeline, re-driven through public calls with
//! every layer boundary timed: synthesize → `production_trace_into` →
//! `clean_into` → `estimate_series` → `reduction_outcome`, exactly as
//! `FleetStudy::run_paper_scale` runs it on one worker (the fidelity tests
//! pin the two together).

use std::time::Instant;
use sweetspot_core::estimator::{NyquistConfig, NyquistEstimate, NyquistEstimator};
use sweetspot_core::reduction::{reduction_outcome, ReductionOutcome};
use sweetspot_dsp::fft::{FftCacheStats, FftHandleStats};
use sweetspot_telemetry::{DeviceTrace, MetricProfile, TraceSynth};
use sweetspot_timeseries::clean::{clean_into, CleanConfig, CleanScratch};
use sweetspot_timeseries::ingest::TraceMeta;
use sweetspot_timeseries::{IrregularSeries, Seconds};

use crate::layers::{timed, Layers};

/// One re-driven pair, with the fields `PairResult` carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    pub meta: TraceMeta,
    pub estimate: NyquistEstimate,
    pub outcome: ReductionOutcome,
    pub truly_undersampled: bool,
}

/// Everything a re-driven study produced.
pub struct Redrive {
    pub pairs: Vec<Pair>,
    pub fft: FftHandleStats,
    pub cache: FftCacheStats,
    pub table_bytes: usize,
    pub layers: Layers,
}

/// Re-drives the study over `work` with one worker's scratch, timing every
/// layer. `duration` is each pair's trace length (one day at paper scale).
pub fn redrive(
    work: &[(MetricProfile, usize)],
    seed: u64,
    duration: Seconds,
    cfg: NyquistConfig,
) -> Redrive {
    let t_total = Instant::now();
    let mut layers = Layers::default();
    let mut synth = TraceSynth::new();
    let mut times = Vec::new();
    let mut values = Vec::new();
    let mut clean = CleanScratch::new();
    let mut estimator = NyquistEstimator::new(cfg);
    let mut pairs = Vec::with_capacity(work.len());
    for &(profile, device) in work {
        let t_pair = Instant::now();
        let misses = estimator.planner().handle_stats().misses.get();
        let trace = timed(&mut layers.synthesize, || {
            DeviceTrace::synthesize(profile, device, seed)
        });
        let production_rate = trace.profile().production_rate();
        timed(&mut layers.trace, || {
            trace.production_trace_into(&mut synth, duration, &mut times, &mut values)
        });
        layers.trace_samples += values.len() as u64;
        let raw =
            IrregularSeries::from_recycled(std::mem::take(&mut times), std::mem::take(&mut values));
        let config = CleanConfig {
            interval: Some(production_rate.period()),
            outlier_mads: Some(8.0),
        };
        let cleaned = timed(&mut layers.clean, || clean_into(&raw, config, &mut clean));
        layers.clean_in += raw.len() as u64;
        let estimate = match cleaned {
            Ok(series) => {
                layers.clean_out += series.len() as u64;
                let estimate = if series.len() >= 4 {
                    timed(&mut layers.estimate, || estimator.estimate_series(&series))
                } else {
                    NyquistEstimate::Aliased
                };
                clean.reclaim(series);
                estimate
            }
            Err(_) => NyquistEstimate::Aliased,
        };
        (times, values) = raw.into_parts();
        pairs.push(Pair {
            meta: trace.meta().clone(),
            estimate,
            outcome: reduction_outcome(production_rate, estimate),
            truly_undersampled: trace.is_undersampled_at_production_rate(),
        });
        let took = t_pair.elapsed();
        layers.pair_s.push(took.as_secs_f64());
        layers.file_step(
            took,
            estimator.planner().handle_stats().misses.get() > misses,
        );
    }
    layers.total = t_total.elapsed();
    Redrive {
        pairs,
        fft: estimator.planner().handle_stats(),
        cache: estimator.planner().cache_stats(),
        table_bytes: estimator.planner().table_bytes(),
        layers,
    }
}
