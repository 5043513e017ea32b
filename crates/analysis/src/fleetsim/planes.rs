//! The optional planes of the fleet epoch loop: failure injection
//! ([`ScenarioPlane`], with its nested [`IncidentPlane`]) and watchdog
//! recovery ([`WatchdogPlane`]).
//!
//! Each plane is built only when its feature is on, and the epoch loop in
//! [`run_policy_recorded`](super::run_policy_recorded) holds it as an
//! `Option`, calling its hooks at fixed points of every epoch. An absent
//! plane is never called and owns no state, so `--scenario none` and
//! `--recovery-budget-frac 0` runs execute the healthy loop and nothing
//! else. Every hook runs serially in device order, so what a plane records
//! never depends on the worker split.

use sweetspot_core::adaptive::HealthState;
use sweetspot_monitor::poller::FleetMember;
use sweetspot_telemetry::SignalModel;
use sweetspot_timeseries::Hertz;

use super::metrics::{MetricsRecorder, WatchdogCounters};
use super::quality;
use super::scenario::{DeviceEvent, ScenarioCounters, ScenarioEngine, ScenarioSpec, ScenarioStats};
use super::{MemberStep, REPROBE_RETRY_CAP};

/// Failure injection: deals every device one [`DeviceEvent`] per epoch and
/// keeps the run's scenario bookkeeping. Per-device state is allocated
/// once at full fleet size, so churn never resizes the request/grant
/// geometry (absent devices keep their slot and request 0.0) and
/// steady-state epochs stay allocation-free while devices leave, rejoin
/// and reboot.
pub(super) struct ScenarioPlane {
    engine: ScenarioEngine,
    /// Per-device presence after the latest deal.
    active: Vec<bool>,
    counters: ScenarioCounters,
    /// Fleet mean coverage per epoch (absent devices count as 0): the
    /// recovery trajectory the incident analysis reads.
    epoch_means: Vec<f64>,
    /// Per-device cost factors, `None` for a uniform fleet.
    cost_factors: Option<Vec<f64>>,
    incident: Option<IncidentPlane>,
}

impl ScenarioPlane {
    /// The plane for `spec` over `n` devices, or `None` when the spec is
    /// inert.
    pub(super) fn new<'a>(
        spec: ScenarioSpec,
        epochs: usize,
        n: usize,
        members: impl Iterator<Item = &'a FleetMember>,
    ) -> Option<ScenarioPlane> {
        if !spec.is_active() {
            return None;
        }
        let engine = ScenarioEngine::new(spec, epochs);
        let incident = spec
            .has_incident()
            .then(|| IncidentPlane::new(members, spec.incident_factor));
        Some(ScenarioPlane {
            cost_factors: engine.cost_factors(n),
            engine,
            active: vec![true; n],
            counters: ScenarioCounters::default(),
            epoch_means: Vec::with_capacity(epochs),
            incident,
        })
    }

    /// What the scenario has dealt so far.
    pub(super) fn counters(&self) -> &ScenarioCounters {
        &self.counters
    }

    /// Opens `epoch`: switches members whose incident phase flips, then
    /// deals every device its event into `events`. Dealing is pure hashing,
    /// so the fault schedule is identical for every policy and thread
    /// count. Reboots apply here, so a rebooted member's request already
    /// reflects its re-ramp.
    pub(super) fn begin_epoch<'a>(
        &mut self,
        epoch: usize,
        members: impl Iterator<Item = &'a mut FleetMember>,
        nyquist: &mut [f64],
        events: &mut [DeviceEvent],
        mut recorder: Option<&mut MetricsRecorder>,
    ) {
        for (i, member) in members.enumerate() {
            if let Some(incident) = &mut self.incident {
                let now = self.engine.incident_active(epoch, i);
                incident.switch(i, now, epoch, member, &mut nyquist[i]);
            }
            let event = self.engine.deal(epoch, i, self.active[i]);
            let kind = self.apply(i, event, member);
            if let (Some(rec), Some(kind)) = (recorder.as_deref_mut(), kind) {
                rec.journal(epoch as u32, i as u32, kind, 0.0);
            }
            events[i] = event;
        }
    }

    /// Books one dealt event against device `i` and returns its journal
    /// kind. Continued absences and scheduled sleep are counted but not
    /// journaled: both are high-volume steady state (a duty cycle naps a
    /// fixed fraction of the fleet every epoch) and would drown the ring.
    fn apply(
        &mut self,
        i: usize,
        event: DeviceEvent,
        member: &mut FleetMember,
    ) -> Option<&'static str> {
        let c = &mut self.counters;
        match event {
            DeviceEvent::Absent => {
                let left = self.active[i];
                if left {
                    c.leaves += 1;
                }
                self.active[i] = false;
                c.absent_epochs += 1;
                left.then_some("leave")
            }
            DeviceEvent::Reboot => {
                let joined = !self.active[i];
                if joined {
                    c.joins += 1;
                }
                self.active[i] = true;
                c.reboots += 1;
                member.reboot();
                Some(if joined { "join" } else { "reboot" })
            }
            DeviceEvent::ReportDropped => {
                c.dropped_reports += 1;
                Some("report_drop")
            }
            DeviceEvent::ReportDelayed => {
                c.delayed_reports += 1;
                Some("report_delay")
            }
            DeviceEvent::ReportDuplicated => {
                c.duplicated_reports += 1;
                Some("report_dup")
            }
            DeviceEvent::Dormant => {
                c.dormant_epochs += 1;
                None
            }
            DeviceEvent::Healthy => None,
        }
    }

    /// The epoch's spend under per-device cost asymmetry, or `None` for a
    /// uniform fleet. Asymmetry bills through the ledger only: schedulers
    /// stay cost-naive, and what that naivety costs is the measurement.
    pub(super) fn skewed_spend(&self, steps: &[MemberStep], unit_cost: f64) -> Option<f64> {
        self.cost_factors.as_ref().map(|factors| {
            steps
                .iter()
                .zip(factors)
                .map(|(s, &c)| s.samples as f64 * unit_cost * c)
                .sum()
        })
    }

    /// Closes `epoch`: records the fleet mean coverage and advances every
    /// device's recovery clock.
    pub(super) fn end_epoch(&mut self, epoch: usize, events: &[DeviceEvent], steps: &[MemberStep]) {
        let total: f64 = steps.iter().map(|s| s.coverage).sum();
        self.epoch_means.push(total / steps.len().max(1) as f64);
        if let Some(incident) = &mut self.incident {
            incident.end_epoch(epoch, events, steps);
        }
    }

    /// What the scenario dealt and how the fleet weathered it.
    pub(super) fn finish<'a>(
        self,
        epochs: usize,
        members: impl Iterator<Item = &'a FleetMember>,
        nyquist: &[f64],
    ) -> ScenarioStats {
        let (baseline_coverage, time_to_recover) = self.engine.recovery(&self.epoch_means);
        let (ttr_p50, ttr_p95, recovered_devices, unrecovered_devices) = self
            .incident
            .as_ref()
            .map_or((None, None, 0, 0), |incident| incident.finish(epochs));
        // Aliasing-deadlock census: present devices that end the run both
        // *classified* suspect-deadlocked (settled below their remembered
        // max with no aliasing alarm — see [`HealthState`]) and *actually*
        // under-covering their ground-truth requirement. The intersection
        // excludes the two benign neighbours: a legitimately-calmed signal
        // below its old ceiling (suspect but covered), and a budget-starved
        // device whose detector still flaps (under-covered but alarming —
        // the scheduler's problem, not a deadlock).
        let deadlocked = members
            .enumerate()
            .filter(|&(i, m)| {
                self.active[i]
                    && nyquist[i] > 0.0
                    && m.sampler().health() == HealthState::SuspectDeadlocked
                    && quality::coverage(m.requested_rate(), Hertz(nyquist[i])) < 0.95
            })
            .count();
        let spec = self.engine.spec();
        ScenarioStats {
            label: spec.label(),
            seed: spec.seed,
            counters: self.counters,
            incident: self.engine.incident(),
            baseline_coverage,
            time_to_recover,
            ttr_p50,
            ttr_p95,
            recovered_devices,
            unrecovered_devices,
            deadlocked,
            epoch_mean_coverage: self.epoch_means,
        }
    }
}

/// Regime incidents: every member's incident-phase signal model and
/// requirement, pre-built so phase boundaries only `mem::swap` them (no
/// allocation, no re-synthesis), plus each device's [`RecoveryClock`].
/// Staggered and diurnal regimes switch members individually; the one-shot
/// incident flips the whole fleet at the same two epochs.
struct IncidentPlane {
    /// Each member's model for the phase it is *not* in.
    alt_models: Vec<SignalModel>,
    /// Each member's requirement for the phase it is not in.
    alt_nyquist: Vec<f64>,
    clocks: Vec<RecoveryClock>,
}

impl IncidentPlane {
    fn new<'a>(members: impl Iterator<Item = &'a FleetMember>, factor: f64) -> IncidentPlane {
        let (alt_models, alt_nyquist): (Vec<SignalModel>, Vec<f64>) = members
            .map(|m| {
                // Tone frequencies scale; identity and noise seed stay.
                let alt = m.device().trace().regime_model(factor);
                let requirement = if m.device().trace().is_quiet() {
                    0.0
                } else {
                    alt.nyquist_rate().value()
                };
                (alt, requirement)
            })
            .unzip();
        let clocks = vec![RecoveryClock::default(); alt_models.len()];
        IncidentPlane {
            alt_models,
            alt_nyquist,
            clocks,
        }
    }

    /// Puts member `i` into phase `now` for `epoch`: on a flip its model
    /// and ground-truth requirement swap with the other phase's.
    fn switch(
        &mut self,
        i: usize,
        now: bool,
        epoch: usize,
        member: &mut FleetMember,
        nyquist: &mut f64,
    ) {
        if self.clocks[i].set_phase(now, epoch) {
            member.swap_model(&mut self.alt_models[i]);
            std::mem::swap(nyquist, &mut self.alt_nyquist[i]);
        }
    }

    /// Feeds every present, awake device's epoch coverage to its clock.
    fn end_epoch(&mut self, epoch: usize, events: &[DeviceEvent], steps: &[MemberStep]) {
        for ((clock, event), step) in self.clocks.iter_mut().zip(events).zip(steps) {
            if !event.is_silent() {
                clock.observe(epoch, step.coverage);
            }
        }
    }

    /// Per-device recovery summary: `(p50, p95, recovered, unrecovered)`
    /// over devices that saw an incident, the quantiles from an obs
    /// log-bucket histogram fed in device order (the fleet-mean time to
    /// recover hides the slow tail the p95 exposes).
    fn finish(&self, epochs: usize) -> (Option<f64>, Option<f64>, usize, usize) {
        let mut hist = sweetspot_obs::Histogram::log_scale(1.0, (epochs as f64).max(2.0), 32);
        let (mut recovered, mut unrecovered) = (0usize, 0usize);
        for clock in self.clocks.iter().filter(|c| c.seen_onset) {
            match clock.ttr {
                Some(e) => {
                    recovered += 1;
                    hist.record(e as f64);
                }
                None => unrecovered += 1,
            }
        }
        if hist.count() == 0 {
            return (None, None, recovered, unrecovered);
        }
        (
            Some(hist.quantile(0.50)),
            Some(hist.quantile(0.95)),
            recovered,
            unrecovered,
        )
    }
}

/// One device's incident phase and time-to-recover (TTR) clock. The
/// baseline is its mean coverage over pre-onset epochs it was present and
/// awake for; after its incident exits, the first such epoch back at ≥95%
/// of that baseline stamps its time to recover. Re-entering the incident
/// restarts the clock from the next exit.
#[derive(Debug, Clone, Copy, Default)]
struct RecoveryClock {
    /// Whether the device runs in the incident regime.
    in_incident: bool,
    /// Whether the device has entered the incident at least once.
    seen_onset: bool,
    /// Coverage summed over pre-onset epochs.
    base_sum: f64,
    /// Pre-onset epochs summed into `base_sum`.
    base_epochs: usize,
    /// Epoch of the latest exit, while the device is out of the incident.
    exit: Option<usize>,
    /// Epochs from the latest exit to recovery, once stamped.
    ttr: Option<usize>,
}

impl RecoveryClock {
    /// Sets the phase at `epoch`; returns whether it flipped.
    fn set_phase(&mut self, now: bool, epoch: usize) -> bool {
        if now == self.in_incident {
            return false;
        }
        self.in_incident = now;
        if now {
            self.seen_onset = true;
            self.exit = None;
            self.ttr = None;
        } else {
            self.exit = Some(epoch);
        }
        true
    }

    /// Feeds one present, awake epoch's coverage.
    fn observe(&mut self, epoch: usize, coverage: f64) {
        if !self.seen_onset {
            self.base_sum += coverage;
            self.base_epochs += 1;
        } else if let (None, Some(exit)) = (self.ttr, self.exit) {
            if self.base_epochs > 0 && coverage >= 0.95 * self.base_sum / self.base_epochs as f64 {
                self.ttr = Some(epoch - exit);
            }
        }
    }
}

/// Watchdog recovery: each epoch, after the ordinary grants are placed,
/// forces suspect-deadlocked members into a re-probe above their
/// remembered max, spending at most `frac × capacity` of *extra* rate — a
/// bounded recovery slice on top of the budget that can never displace a
/// healthy device's grant. Each member backs off exponentially between
/// attempts (`epoch + 2^retries`) and gives up after
/// [`REPROBE_RETRY_CAP`]; sleeping and absent members are never probed.
pub(super) struct WatchdogPlane {
    /// Extra rate the recovery slice may grant per epoch.
    slice_rate: f64,
    /// Cost of one unit of rate for one epoch.
    epoch_unit: f64,
    /// Per-member re-probes made so far.
    retries: Vec<u32>,
    /// Per-member earliest epoch of the next re-probe.
    due: Vec<usize>,
    counters: WatchdogCounters,
}

impl WatchdogPlane {
    /// The plane for a recovery slice of `frac × capacity_rate` over `n`
    /// devices, or `None` at `frac == 0`.
    pub(super) fn new(
        frac: f64,
        capacity_rate: f64,
        epoch_unit: f64,
        n: usize,
    ) -> Option<WatchdogPlane> {
        (frac > 0.0).then(|| WatchdogPlane {
            slice_rate: frac * capacity_rate, // INF stays INF
            epoch_unit,
            retries: vec![0; n],
            due: vec![0; n],
            counters: WatchdogCounters::default(),
        })
    }

    /// The run's tallies so far.
    pub(super) fn counters(&self) -> WatchdogCounters {
        self.counters
    }

    /// The epoch's census and re-probe pass, serial in device order. Raises
    /// the grants of admitted members in place and returns the extra rate
    /// granted. Affordability is peeked before a controller is committed,
    /// so a dry pool perturbs nothing.
    pub(super) fn reprobe<'a>(
        &mut self,
        epoch: usize,
        members: impl Iterator<Item = &'a mut FleetMember>,
        events: &[DeviceEvent],
        grants: &mut [f64],
        mut recorder: Option<&mut MetricsRecorder>,
    ) -> f64 {
        let mut pool = self.slice_rate;
        let mut recovery_rate = 0.0f64;
        let c = &mut self.counters;
        (c.healthy, c.recovering, c.suspect, c.dormant) = (0, 0, 0, 0);
        for (i, member) in members.enumerate() {
            let health = match events[i] {
                // Offline: out of the census, never probed.
                DeviceEvent::Absent => continue,
                // The nap is dealt but not yet stepped; the controller's own
                // flag still reflects the previous epoch.
                DeviceEvent::Dormant => HealthState::Dormant,
                _ => member.sampler().health(),
            };
            let c = &mut self.counters;
            match health {
                HealthState::Healthy => c.healthy += 1,
                HealthState::Recovering => c.recovering += 1,
                HealthState::SuspectDeadlocked => c.suspect += 1,
                HealthState::Dormant => c.dormant += 1,
            }
            if health != HealthState::SuspectDeadlocked || !self.is_due(i, epoch) {
                continue;
            }
            let extra = (member.reprobe_rate().value() - grants[i]).max(0.0);
            if !self.admit(i, epoch, extra, &mut pool) {
                continue;
            }
            let target = member.begin_reprobe().value();
            grants[i] = grants[i].max(target);
            recovery_rate += extra;
            self.counters.reprobes += 1;
            self.counters.recovery_granted += extra * self.epoch_unit;
            if let Some(rec) = recorder.as_deref_mut() {
                rec.journal(epoch as u32, i as u32, "reprobe", target);
            }
        }
        recovery_rate
    }

    /// Whether member `i`'s backoff allows a re-probe at `epoch`.
    fn is_due(&self, i: usize, epoch: usize) -> bool {
        self.retries[i] < REPROBE_RETRY_CAP && epoch >= self.due[i]
    }

    /// Admits a due re-probe of member `i` costing `extra` rate when the
    /// pool covers it, and schedules the next one. A starved re-probe is
    /// counted but uses up no retry.
    fn admit(&mut self, i: usize, epoch: usize, extra: f64, pool: &mut f64) -> bool {
        if extra > *pool {
            self.counters.starved += 1;
            return false;
        }
        *pool -= extra;
        self.retries[i] += 1;
        self.due[i] = epoch + (1usize << self.retries[i].min(20));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_clock_stamps_first_epoch_back_at_baseline() {
        let mut clock = RecoveryClock::default();
        // Pre-onset: the baseline averages to 0.8, threshold 0.76.
        clock.observe(0, 0.9);
        clock.observe(1, 0.7);
        assert!(!clock.set_phase(false, 1), "no flip while already out");
        // Onset at 2, exit at 5; epochs inside never count.
        assert!(clock.set_phase(true, 2));
        clock.observe(3, 0.1);
        assert!(clock.set_phase(false, 5));
        assert_eq!((clock.base_sum, clock.base_epochs), (0.9 + 0.7, 2));
        clock.observe(5, 0.5);
        clock.observe(6, 0.75);
        assert_eq!(clock.ttr, None, "below 95% of baseline");
        clock.observe(7, 0.76);
        assert_eq!(clock.ttr, Some(2), "first epoch at the threshold stamps");
        clock.observe(8, 0.1);
        assert_eq!(clock.ttr, Some(2), "a later dip does not restamp");
        // Re-entry resets the clock until the next exit.
        assert!(clock.set_phase(true, 10));
        assert_eq!((clock.ttr, clock.exit), (None, None));
        clock.observe(11, 1.0);
        assert_eq!(clock.ttr, None, "no recovery inside the incident");
        assert!(clock.set_phase(false, 12));
        clock.observe(13, 0.9);
        assert_eq!(clock.ttr, Some(1));
        assert_eq!(clock.base_epochs, 2, "the baseline is pre-onset only");
    }

    #[test]
    fn watchdog_backs_off_exponentially_and_stops_at_the_cap() {
        let mut wd = WatchdogPlane::new(0.25, 4.0, 1.0, 1).expect("armed");
        let mut fired = Vec::new();
        for epoch in 0..100 {
            let mut pool = 1.0;
            if wd.is_due(0, epoch) && wd.admit(0, epoch, 1.0, &mut pool) {
                fired.push(epoch);
                assert_eq!(pool, 0.0, "the re-probe draws its extra from the pool");
            }
        }
        // Each attempt lands 2^retries epochs after the previous one.
        assert_eq!(fired, [0, 2, 6, 14, 30]);
        assert_eq!(fired.len(), REPROBE_RETRY_CAP as usize);
        assert_eq!(wd.counters().starved, 0);
    }

    #[test]
    fn starved_reprobe_uses_up_no_retry() {
        let mut wd = WatchdogPlane::new(0.25, 4.0, 1.0, 2).expect("armed");
        let mut dry = 0.5;
        assert!(wd.is_due(0, 3));
        assert!(!wd.admit(0, 3, 1.0, &mut dry));
        assert_eq!(dry, 0.5, "a starved re-probe draws nothing");
        assert_eq!((wd.retries[0], wd.counters().starved), (0, 1));
        // Still due next epoch, and admitted once the pool covers it.
        assert!(wd.is_due(0, 4));
        let mut pool = 1.0;
        assert!(wd.admit(0, 4, 1.0, &mut pool));
        assert_eq!((wd.retries[0], wd.due[0]), (1, 6));
        // Other members keep their own backoff.
        assert!(wd.is_due(1, 4));
    }

    #[test]
    fn frac_zero_builds_no_watchdog() {
        assert!(WatchdogPlane::new(0.0, 4.0, 1.0, 8).is_none());
    }
}
