//! What each workload runs, made from the benchmark seed alone.

use sweetspot_analysis::fleetsim::scenario::ScenarioSpec;
use sweetspot_analysis::fleetsim::scheduler::SchedulerPolicy;
use sweetspot_analysis::FleetSimConfig;

/// Devices, horizon and budget of `fleet_uncapped`.
pub const UNCAPPED_DEVICES: usize = 2000;
pub const UNCAPPED_DAYS: f64 = 3.0;

/// Devices, horizon, policy, budget, scenario and recovery slice of
/// `fleet_chaos`.
pub const CHAOS_DEVICES: usize = 20_000;
pub const CHAOS_DAYS: f64 = 10.0;
pub const CHAOS_POLICY: SchedulerPolicy = SchedulerPolicy::WaterFill;
pub const CHAOS_BUDGET: f64 = 2e6;
pub const CHAOS_SCENARIO: &str = "churn+incident+duty";
pub const CHAOS_RECOVERY_FRAC: f64 = 0.1;

/// A healthy fleet of `devices` pairs over `days`, seeded with `seed`, on
/// one worker thread.
pub fn uncapped(seed: u64, devices: usize, days: f64) -> FleetSimConfig {
    let mut cfg = FleetSimConfig {
        devices: Some(devices),
        days,
        threads: 1,
        ..FleetSimConfig::default()
    };
    cfg.fleet.seed = seed;
    cfg
}

/// [`uncapped`] under the churn + incident + duty-cycle scenario, its fault
/// schedule seeded with `seed` too, with a watchdog recovery slice of
/// `recovery_frac`.
pub fn chaos(seed: u64, devices: usize, days: f64, recovery_frac: f64) -> FleetSimConfig {
    let mut scenario =
        ScenarioSpec::parse(CHAOS_SCENARIO).expect("the chaos scenario string parses");
    scenario.seed = seed;
    FleetSimConfig {
        scenario,
        recovery_budget_frac: recovery_frac,
        ..uncapped(seed, devices, days)
    }
}
