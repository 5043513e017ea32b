//! The fleet epoch loop, re-driven through public calls with every layer
//! boundary timed.
//!
//! [`redrive`] follows `fleetsim::run_policy_recorded` at one worker thread
//! step for step — member construction, scenario dealing, scheduling, the
//! watchdog pass, member steps and the ledger — so its outputs match the
//! program's bit for bit (the fidelity tests pin this). Only the flight
//! recorder is left out: its emission has no public entry point inside the
//! loop, so the traced runs report its counters from the program instead.

use std::time::{Duration, Instant};
use sweetspot_analysis::fleetsim::metrics::{
    AppliedCounters, ControllerCounters, WatchdogCounters,
};
use sweetspot_analysis::fleetsim::quality::{self, DeviceQuality, FleetQuality};
use sweetspot_analysis::fleetsim::scenario::{DeviceEvent, ScenarioCounters, ScenarioEngine};
use sweetspot_analysis::fleetsim::scheduler::{SchedStats, SchedulerPolicy};
use sweetspot_analysis::fleetsim::{member_config, REPROBE_RETRY_CAP};
use sweetspot_analysis::{FleetSimConfig, PolicyOutcome};
use sweetspot_core::adaptive::{AdaptiveSampler, EpochAction, EpochReport, HealthState};
use sweetspot_core::aliasing::COMPANION_RATIO;
use sweetspot_dsp::fft::{FftCacheStats, FftHandleStats, FftPlanner};
use sweetspot_monitor::device::{ScratchSource, SimDevice};
use sweetspot_monitor::poller::EpochScratch;
use sweetspot_monitor::{EpochAccount, EpochLedger};
use sweetspot_telemetry::{paper_scale_work, scaled_work, DeviceTrace, MetricProfile, SignalModel};
use sweetspot_timeseries::{Hertz, Seconds};

use crate::layers::{timed, Layers, TimedSource};

/// One member: the device and its controller, held apart (rather than in a
/// `FleetMember`) so the controller can poll through a [`TimedSource`].
struct Member {
    device: SimDevice,
    sampler: AdaptiveSampler,
}

/// Everything a re-driven run produced.
pub struct Redrive {
    pub ledger: EpochLedger,
    pub device_quality: Vec<DeviceQuality>,
    pub quality: FleetQuality,
    pub controller: ControllerCounters,
    pub applied: AppliedCounters,
    pub dealt: ScenarioCounters,
    pub fft: FftHandleStats,
    pub cache: FftCacheStats,
    pub table_bytes: usize,
    pub sched: SchedStats,
    pub watchdog: Option<WatchdogCounters>,
    pub layers: Layers,
}

/// The fleet's work list, chosen exactly as `FleetSimConfig` chooses it.
pub fn work(cfg: &FleetSimConfig) -> Vec<(MetricProfile, usize)> {
    if cfg.paper_scale {
        paper_scale_work()
    } else if let Some(pairs) = cfg.devices {
        scaled_work(pairs)
    } else {
        cfg.fleet.work_list()
    }
}

/// Lockstep epochs in the configured horizon.
pub fn epochs(cfg: &FleetSimConfig) -> usize {
    ((cfg.days * 86_400.0) / cfg.window.value()).ceil().max(1.0) as usize
}

/// Outcome of one member-epoch, as the ledger and quality model consume it.
struct Step {
    coverage: f64,
    samples: usize,
    throttled: bool,
    counted: bool,
    action: Option<EpochAction>,
    verified: bool,
}

impl Step {
    fn idle() -> Step {
        Step {
            coverage: 0.0,
            samples: 0,
            throttled: false,
            counted: false,
            action: None,
            verified: false,
        }
    }

    fn from_report(r: &EpochReport, nyquist: f64, samples: usize) -> Step {
        Step {
            coverage: quality::coverage(r.primary_rate, Hertz(nyquist)),
            samples,
            throttled: r.throttled,
            counted: true,
            action: Some(r.action),
            verified: r.verified,
        }
    }
}

/// How one member-epoch is stepped.
#[derive(Clone, Copy)]
enum Drive {
    Granted,
    Delayed,
}

/// Steps one member through the timed polling source; returns the report
/// and files the step's wall time as cold or warm.
fn step_member(
    m: &mut Member,
    scratch: &mut EpochScratch,
    layers: &mut Layers,
    drive: Drive,
    start: Seconds,
    grant: Hertz,
    window: Seconds,
) -> EpochReport {
    let misses = m.sampler.fft_handle_stats().misses.get();
    let t = Instant::now();
    let mut source = TimedSource {
        inner: ScratchSource {
            device: &mut m.device,
            scratch: &mut scratch.poll,
        },
        layers: &mut *layers,
    };
    let report = match drive {
        Drive::Granted => {
            m.sampler
                .step_granted_scratch(&mut scratch.sampler, &mut source, start, grant, window)
        }
        Drive::Delayed => {
            m.sampler
                .step_delayed_scratch(&mut scratch.sampler, &mut source, start, grant, window)
        }
    };
    let took = t.elapsed();
    layers.step += took;
    layers.step_s.push(took.as_secs_f64());
    layers.file_step(took, m.sampler.fft_handle_stats().misses.get() > misses);
    report
}

/// Re-drives one policy run at one worker thread, timing every layer.
///
/// # Panics
/// Panics when `cfg.threads` is not 1: the re-drive models the single
/// worker the benchmark measures.
pub fn redrive(cfg: &FleetSimConfig, policy: SchedulerPolicy, budget_per_epoch: f64) -> Redrive {
    assert_eq!(cfg.threads, 1, "the re-drive models one worker thread");
    let t_total = Instant::now();
    let mut layers = Layers::default();
    let work = work(cfg);
    let n = work.len();
    let epochs = epochs(cfg);
    let seed = cfg.fleet.seed;
    let window = cfg.window;

    // Member construction, as `run_policy_recorded` builds a single shard.
    let t_build = Instant::now();
    let planner = FftPlanner::new();
    planner.set_table_budget(cfg.fft_table_budget);
    let mut members: Vec<Member> = work
        .iter()
        .map(|&(profile, device)| {
            let mut config = member_config(&profile, window);
            config.verify_every = cfg.verify_every.max(1);
            let trace = timed(&mut layers.synthesize, || {
                DeviceTrace::synthesize(profile, device, seed)
            });
            Member {
                device: SimDevice::new(trace),
                sampler: AdaptiveSampler::with_planner(config, planner.clone()),
            }
        })
        .collect();
    let mut scratch = EpochScratch::new();
    let mut nyquist: Vec<f64> = members
        .iter()
        .map(|m| {
            let trace = m.device.trace();
            if trace.is_quiet() {
                0.0
            } else {
                trace.true_nyquist_rate().value()
            }
        })
        .collect();
    let production: Vec<f64> = work
        .iter()
        .map(|(p, _)| p.production_rate().value())
        .collect();
    let weights: Vec<f64> = work
        .iter()
        .map(|(p, _)| cfg.metric_weights[p.kind.index()])
        .collect();

    let spec = cfg.scenario;
    let engine = spec.is_active().then(|| ScenarioEngine::new(spec, epochs));
    let incident = engine.as_ref().and_then(ScenarioEngine::incident);
    let mut alt_models: Vec<SignalModel> = Vec::new();
    let mut alt_nyquist: Vec<f64> = Vec::new();
    if incident.is_some() {
        alt_models = members
            .iter()
            .map(|m| m.device.trace().regime_model(spec.incident_factor))
            .collect();
        alt_nyquist = members
            .iter()
            .zip(&alt_models)
            .map(|(m, alt)| {
                if m.device.trace().is_quiet() {
                    0.0
                } else {
                    alt.nyquist_rate().value()
                }
            })
            .collect();
    }
    let cost_factors = engine.as_ref().and_then(|e| e.cost_factors(n));
    layers.build = t_build.elapsed();

    let unit_cost = cfg.cost.cost_per_sample();
    let epoch_unit = unit_cost * window.value() * (1.0 + 1.0 / COMPANION_RATIO);
    let capacity_rate = budget_per_epoch / epoch_unit;
    let mut sched = policy.scheduler(&weights, &production);
    let mut ledger = EpochLedger::with_capacity(epochs);
    let mut requests = vec![0.0f64; n];
    let mut grants: Vec<f64> = Vec::with_capacity(n);
    let mut coverage_sum = vec![0.0f64; n];
    let mut epoch_samples = vec![0usize; n];
    let mut epoch_throttled = vec![false; n];
    let mut controller = ControllerCounters::default();
    let mut applied = AppliedCounters::default();
    let mut dealt = ScenarioCounters::default();

    let scenario_len = if engine.is_some() { n } else { 0 };
    let mut active = vec![true; scenario_len];
    let mut active_epochs = vec![0usize; scenario_len];
    let mut events = vec![DeviceEvent::Healthy; scenario_len];
    let mut incident_prev = vec![false; if incident.is_some() { n } else { 0 }];

    let watchdog_on = cfg.recovery_budget_frac > 0.0;
    let wd_len = if watchdog_on { n } else { 0 };
    let mut reprobe_retries = vec![0u32; wd_len];
    let mut reprobe_due = vec![0usize; wd_len];
    let mut wd = WatchdogCounters::default();

    for epoch in 0..epochs {
        let t_epoch = Instant::now();
        if let Some(eng) = &engine {
            if incident.is_some() {
                for (i, (m, alt)) in members.iter_mut().zip(alt_models.iter_mut()).enumerate() {
                    let now = eng.incident_active(epoch, i);
                    if now != incident_prev[i] {
                        m.device.swap_model(alt);
                        std::mem::swap(&mut nyquist[i], &mut alt_nyquist[i]);
                        incident_prev[i] = now;
                    }
                }
            }
            let t_deal = Instant::now();
            for (i, m) in members.iter_mut().enumerate() {
                let ev = eng.deal(epoch, i, active[i]);
                match ev {
                    DeviceEvent::Absent => {
                        if active[i] {
                            dealt.leaves += 1;
                        }
                        active[i] = false;
                        dealt.absent_epochs += 1;
                    }
                    DeviceEvent::Reboot => {
                        if !active[i] {
                            dealt.joins += 1;
                        }
                        active[i] = true;
                        dealt.reboots += 1;
                        m.device.reboot();
                        m.sampler.reboot();
                    }
                    DeviceEvent::ReportDropped => dealt.dropped_reports += 1,
                    DeviceEvent::ReportDelayed => dealt.delayed_reports += 1,
                    DeviceEvent::ReportDuplicated => dealt.duplicated_reports += 1,
                    DeviceEvent::Dormant => dealt.dormant_epochs += 1,
                    DeviceEvent::Healthy => {}
                }
                events[i] = ev;
            }
            layers.deal += t_deal.elapsed();
            for (i, (r, m)) in requests.iter_mut().zip(&members).enumerate() {
                *r = if active[i] && events[i] != DeviceEvent::Dormant {
                    m.sampler.requested_rate().value()
                } else {
                    0.0
                };
            }
        } else {
            for (r, m) in requests.iter_mut().zip(&members) {
                *r = m.sampler.requested_rate().value();
            }
        }
        timed(&mut layers.allocate, || {
            sched.allocate(&requests, capacity_rate, &mut grants)
        });

        let mut recovery_rate = 0.0f64;
        if watchdog_on {
            let mut pool = cfg.recovery_budget_frac * capacity_rate;
            wd.healthy = 0;
            wd.recovering = 0;
            wd.suspect = 0;
            wd.dormant = 0;
            for (i, m) in members.iter_mut().enumerate() {
                if engine.is_some() && !active[i] {
                    continue;
                }
                let health = if engine.is_some() && events[i] == DeviceEvent::Dormant {
                    HealthState::Dormant
                } else {
                    m.sampler.health()
                };
                match health {
                    HealthState::Healthy => wd.healthy += 1,
                    HealthState::Recovering => wd.recovering += 1,
                    HealthState::SuspectDeadlocked => wd.suspect += 1,
                    HealthState::Dormant => wd.dormant += 1,
                }
                if health != HealthState::SuspectDeadlocked
                    || reprobe_retries[i] >= REPROBE_RETRY_CAP
                    || epoch < reprobe_due[i]
                {
                    continue;
                }
                let extra = (m.sampler.reprobe_rate().value() - grants[i]).max(0.0);
                if extra > pool {
                    wd.starved += 1;
                    continue;
                }
                pool -= extra;
                let target = m.sampler.begin_reprobe().value();
                grants[i] = grants[i].max(target);
                recovery_rate += extra;
                wd.reprobes += 1;
                wd.recovery_granted += extra * epoch_unit;
                reprobe_retries[i] += 1;
                reprobe_due[i] = epoch + (1usize << reprobe_retries[i].min(20));
            }
        }

        let start = Seconds(epoch as f64 * window.value());
        for (i, m) in members.iter_mut().enumerate() {
            let grant = Hertz(grants[i]);
            let step = if engine.is_some() {
                let ev = events[i];
                applied.record(ev);
                let step = match ev {
                    DeviceEvent::Absent => Step::idle(),
                    DeviceEvent::Dormant => {
                        m.sampler.note_dormant_epoch();
                        Step::idle()
                    }
                    DeviceEvent::ReportDropped => {
                        let r = m.sampler.note_missed_epoch(start, grant, window);
                        Step::from_report(&r, nyquist[i], 0)
                    }
                    DeviceEvent::ReportDelayed => {
                        let r = step_member(
                            m,
                            &mut scratch,
                            &mut layers,
                            Drive::Delayed,
                            start,
                            grant,
                            window,
                        );
                        Step::from_report(&r, nyquist[i], r.samples_taken)
                    }
                    DeviceEvent::ReportDuplicated => {
                        let r = step_member(
                            m,
                            &mut scratch,
                            &mut layers,
                            Drive::Granted,
                            start,
                            grant,
                            window,
                        );
                        Step::from_report(&r, nyquist[i], r.samples_taken * 2)
                    }
                    DeviceEvent::Healthy | DeviceEvent::Reboot => {
                        let r = step_member(
                            m,
                            &mut scratch,
                            &mut layers,
                            Drive::Granted,
                            start,
                            grant,
                            window,
                        );
                        Step::from_report(&r, nyquist[i], r.samples_taken)
                    }
                };
                active_epochs[i] += step.counted as usize;
                step
            } else {
                let r = step_member(
                    m,
                    &mut scratch,
                    &mut layers,
                    Drive::Granted,
                    start,
                    grant,
                    window,
                );
                Step::from_report(&r, nyquist[i], r.samples_taken)
            };
            if let Some(a) = step.action {
                controller.record(a, step.verified);
            }
            coverage_sum[i] += step.coverage;
            epoch_samples[i] = step.samples;
            epoch_throttled[i] = step.throttled;
        }

        let demanded: f64 = requests.iter().map(|r| r * epoch_unit).sum();
        let granted: f64 =
            grants.iter().map(|g| g * epoch_unit).sum::<f64>() - recovery_rate * epoch_unit;
        let samples: usize = epoch_samples.iter().sum();
        let throttled_devices = epoch_throttled.iter().filter(|&&t| t).count();
        let spent = match &cost_factors {
            Some(f) => epoch_samples
                .iter()
                .zip(f)
                .map(|(&s, &c)| s as f64 * unit_cost * c)
                .sum(),
            None => samples as f64 * unit_cost,
        };
        ledger.record(EpochAccount {
            epoch,
            budget: budget_per_epoch,
            demanded,
            granted,
            samples,
            spent,
            throttled_devices,
        });
        layers.epoch_s.push(t_epoch.elapsed().as_secs_f64());
    }

    let device_quality: Vec<DeviceQuality> = members
        .iter()
        .enumerate()
        .map(|(i, m)| DeviceQuality {
            index: i,
            kind: m.device.trace().profile().kind,
            mean_coverage: if engine.is_some() {
                coverage_sum[i] / active_epochs[i].max(1) as f64
            } else {
                coverage_sum[i] / epochs as f64
            },
            final_rate: m.sampler.requested_rate().value(),
            deferred_epochs: m.sampler.deferred_epochs(),
            missed_epochs: m.sampler.missed_epochs(),
        })
        .collect();
    let quality = FleetQuality::from_devices(&device_quality);
    let mut fft = FftHandleStats::default();
    for m in &members {
        fft.merge(&m.sampler.fft_handle_stats());
    }
    layers.total = t_total.elapsed();
    Redrive {
        ledger,
        device_quality,
        quality,
        controller,
        applied,
        dealt,
        fft,
        cache: planner.cache_stats(),
        table_bytes: planner.table_bytes(),
        sched: sched.stats(),
        watchdog: watchdog_on.then_some(wd),
        layers,
    }
}

/// Sum of the named layers' busy time the acceptance share is taken over:
/// polling, controller self time, scheduling and member construction.
pub fn named_time(layers: &Layers) -> Duration {
    layers.step + layers.allocate + layers.build
}

/// The outputs a fleet run is judged by — everything the fidelity and
/// identity checks compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    pub accounts: Vec<EpochAccount>,
    pub devices: Vec<DeviceQuality>,
    pub quality: FleetQuality,
    pub controller: ControllerCounters,
    pub applied: AppliedCounters,
    pub fft: FftHandleStats,
    pub sched: SchedStats,
    pub watchdog: Option<WatchdogCounters>,
    /// What the scenario dealt (all zero on healthy runs).
    pub dealt: ScenarioCounters,
}

impl Outputs {
    /// The program's outputs.
    pub fn of(o: &PolicyOutcome) -> Outputs {
        Outputs {
            accounts: o.ledger.accounts().to_vec(),
            devices: o.device_quality.clone(),
            quality: o.quality,
            controller: o.metrics.controller,
            applied: o.metrics.applied,
            fft: o.metrics.fft,
            sched: o.metrics.sched,
            watchdog: o.metrics.watchdog,
            dealt: o
                .scenario
                .as_ref()
                .map_or_else(ScenarioCounters::default, |s| s.counters),
        }
    }
}

impl Redrive {
    /// The re-drive's outputs, comparable with [`Outputs::of`].
    pub fn outputs(&self) -> Outputs {
        Outputs {
            accounts: self.ledger.accounts().to_vec(),
            devices: self.device_quality.clone(),
            quality: self.quality,
            controller: self.controller,
            applied: self.applied,
            fft: self.fft,
            sched: self.sched,
            watchdog: self.watchdog,
            dealt: self.dealt,
        }
    }
}
