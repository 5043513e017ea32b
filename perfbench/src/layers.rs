//! Per-layer accounting for the traced runs: busy time and work counts per
//! named layer, gathered by timing the public calls into each layer from
//! the benchmark's own code.

use std::time::{Duration, Instant};
use sweetspot_core::SignalSource;
use sweetspot_timeseries::{Hertz, RegularSeries, Seconds};

/// Busy time and work counts of every layer one traced pass touched.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `DeviceTrace::synthesize` (device model construction).
    pub synthesize: Duration,
    /// `DeviceTrace::production_trace_into` (ground truth + impairments).
    pub trace: Duration,
    /// Samples produced by `production_trace_into`.
    pub trace_samples: u64,
    /// `clean_into` (outlier drop + re-gridding).
    pub clean: Duration,
    /// Samples entering and leaving `clean_into`.
    pub clean_in: u64,
    pub clean_out: u64,
    /// `NyquistEstimator::estimate_series`.
    pub estimate: Duration,
    /// Wall time of each study pair, in fleet order.
    pub pair_s: Vec<f64>,
    /// Member construction: traces, devices and controllers.
    pub build: Duration,
    /// `SimDevice` polls made through the timing source, with their time
    /// and the samples they returned.
    pub poll: Duration,
    pub polls: u64,
    pub poll_samples: u64,
    /// `step_granted_scratch` (and its scenario variants), poll time
    /// included.
    pub step: Duration,
    /// Wall time of each stepped member-epoch.
    pub step_s: Vec<f64>,
    /// Steps (fleet) or pairs (study) whose FFT handle missed a plan, and
    /// the time they took; the rest are warm.
    pub cold: Duration,
    pub cold_steps: u64,
    pub warm: Duration,
    pub warm_steps: u64,
    /// `Scheduler::allocate`.
    pub allocate: Duration,
    /// `ScenarioEngine::deal` over every (epoch, device) pair.
    pub deal: Duration,
    /// Wall time of each epoch.
    pub epoch_s: Vec<f64>,
    /// Wall time of the whole re-driven run, set-up included.
    pub total: Duration,
}

impl Layers {
    /// Files one unit of work (a member-epoch or a study pair) as cold when
    /// its FFT handle missed a plan, warm otherwise.
    pub fn file_step(&mut self, took: Duration, missed: bool) {
        if missed {
            self.cold += took;
            self.cold_steps += 1;
        } else {
            self.warm += took;
            self.warm_steps += 1;
        }
    }
}

/// Times a closure, adding its wall time to `acc`.
#[inline]
pub fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

/// A [`SignalSource`] that forwards to `inner` and records the time and
/// samples of every poll — the monitor layer seen from outside.
pub struct TimedSource<'a, S> {
    pub inner: S,
    pub layers: &'a mut Layers,
}

impl<S: SignalSource> SignalSource for TimedSource<'_, S> {
    fn sample(&mut self, start: Seconds, rate: Hertz, duration: Seconds) -> RegularSeries {
        self.sample_recycled(start, rate, duration, Vec::new())
    }

    fn sample_recycled(
        &mut self,
        start: Seconds,
        rate: Hertz,
        duration: Seconds,
        recycled: Vec<f64>,
    ) -> RegularSeries {
        let t = Instant::now();
        let series = self.inner.sample_recycled(start, rate, duration, recycled);
        self.layers.poll += t.elapsed();
        self.layers.polls += 1;
        self.layers.poll_samples += series.len() as u64;
        series
    }
}
