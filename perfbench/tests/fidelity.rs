//! The traced re-drives must reproduce the program bit for bit: otherwise
//! the per-layer numbers would describe a different program.

use sweetspot_analysis::fleetsim::run_policy;
use sweetspot_analysis::fleetsim::scheduler::SchedulerPolicy;
use sweetspot_analysis::{FleetSimConfig, FleetStudy, StudyConfig};
use sweetspot_core::estimator::NyquistConfig;
use sweetspot_perfbench::{fleet, study, workloads};
use sweetspot_telemetry::FleetConfig;
use sweetspot_timeseries::Seconds;

fn assert_fleet_matches(cfg: &FleetSimConfig, policy: SchedulerPolicy, budget: f64) {
    let program = run_policy(cfg, policy, budget);
    let redrive = fleet::redrive(cfg, policy, budget);
    let (want, got) = (fleet::Outputs::of(&program), redrive.outputs());
    assert_eq!(want.accounts, got.accounts, "ledger totals");
    assert_eq!(
        want.devices, got.devices,
        "per-device final rates and quality"
    );
    assert_eq!(want, got);
    assert_eq!(redrive.layers.epoch_s.len(), program.epochs);
}

#[test]
fn study_redrive_matches_fleet_study() {
    let cfg = StudyConfig {
        fleet: FleetConfig {
            seed: 11,
            devices_per_metric: 3,
            trace_duration: Seconds::from_days(1.0),
        },
        estimator: NyquistConfig::default(),
        threads: 1,
    };
    let program = FleetStudy::run(cfg);
    let redrive = study::redrive(
        &cfg.fleet.work_list(),
        11,
        cfg.fleet.trace_duration,
        cfg.estimator,
    );
    assert_eq!(program.pairs.len(), redrive.pairs.len());
    for (p, r) in program.pairs.iter().zip(&redrive.pairs) {
        assert_eq!(p.meta, r.meta);
        assert_eq!(p.estimate, r.estimate);
        assert_eq!(p.outcome, r.outcome);
        assert_eq!(p.truly_undersampled, r.truly_undersampled);
    }
    assert_eq!(redrive.layers.pair_s.len(), program.pairs.len());
}

#[test]
fn healthy_fleet_redrive_matches_run_policy() {
    let cfg = workloads::uncapped(5, 56, 3.0);
    assert_fleet_matches(&cfg, SchedulerPolicy::Uncapped, f64::INFINITY);
}

#[test]
fn budgeted_fleet_redrive_matches_run_policy() {
    let cfg = workloads::uncapped(6, 56, 4.0);
    let redrive = fleet::redrive(&cfg, SchedulerPolicy::WaterFill, 150_000.0);
    assert!(
        redrive
            .ledger
            .accounts()
            .iter()
            .any(|a| a.throttled_devices > 0),
        "the budget binds"
    );
    assert_fleet_matches(&cfg, SchedulerPolicy::WaterFill, 150_000.0);
}

#[test]
fn chaos_fleet_redrive_matches_run_policy() {
    let cfg = workloads::chaos(7, 140, 10.0, 0.25);
    let redrive = fleet::redrive(&cfg, workloads::CHAOS_POLICY, 300_000.0);
    let wd = redrive.watchdog.expect("the watchdog is armed");
    assert!(
        wd.reprobes > 0,
        "the test fleet exercises the watchdog pass"
    );
    assert!(
        redrive
            .ledger
            .accounts()
            .iter()
            .any(|a| a.throttled_devices > 0),
        "the budget binds"
    );
    assert_fleet_matches(&cfg, workloads::CHAOS_POLICY, 300_000.0);
}

#[test]
fn lossy_fleet_redrive_matches_run_policy() {
    // Dropped, delayed and duplicated reports plus per-device cost skew:
    // every member-step kind and the skewed ledger.
    let mut cfg = workloads::chaos(8, 140, 10.0, 0.25);
    let mut scenario = sweetspot_analysis::fleetsim::scenario::ScenarioSpec::parse(
        "churn+lossy-reports+incident+cost-skew",
    )
    .expect("scenario parses");
    scenario.seed = 8;
    cfg.scenario = scenario;
    let redrive = fleet::redrive(&cfg, workloads::CHAOS_POLICY, 300_000.0);
    let a = redrive.applied;
    assert!(
        a.dropped_reports.get() > 0
            && a.delayed_reports.get() > 0
            && a.duplicated_reports.get() > 0
    );
    assert_fleet_matches(&cfg, workloads::CHAOS_POLICY, 300_000.0);
}
