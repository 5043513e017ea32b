//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds`, checks the program's outputs, and
//! prints as the last line of standard output one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, measured on the program's own entry
//! points; with `--trace 1` they are the per-layer ones, taken from a
//! re-drive of the same work through public calls with each layer timed.
//! See `README.md` next to this crate for the workloads and metrics.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sweetspot_analysis::fleetsim::metrics::MetricsRecorder;
use sweetspot_analysis::fleetsim::quality::{self, DeviceQuality, FleetQuality};
use sweetspot_analysis::fleetsim::run_policy_recorded;
use sweetspot_analysis::fleetsim::scheduler::SchedulerPolicy;
use sweetspot_analysis::report::peak_rss_kb;
use sweetspot_analysis::{FleetSimConfig, FleetStudy, PolicyOutcome};
use sweetspot_core::estimator::{NyquistConfig, NyquistEstimate};
use sweetspot_core::reduction::PairClass;
use sweetspot_monitor::CostModel;
use sweetspot_perfbench::layers::Layers;
use sweetspot_perfbench::{fleet, median, quantile, study, workloads};
use sweetspot_telemetry::{paper_scale_work, DeviceTrace, MetricProfile};
use sweetspot_timeseries::{Hertz, Seconds};

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pairs_per_s", "pairs/s"),
    ("device_epochs_per_s", "dev-epochs/s"),
    ("peak_rss_mb", "MB"),
    ("mean_coverage", "ratio"),
    ("p10_coverage", "ratio"),
    ("spent_per_epoch", "cost/epoch"),
    ("study_accuracy", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does not
/// reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("telemetry.synthesize_s", "s"),
    ("telemetry.trace_s", "s"),
    ("telemetry.samples", "count"),
    ("timeseries.clean_s", "s"),
    ("timeseries.samples_in", "count"),
    ("timeseries.samples_out", "count"),
    ("core.estimate_s", "s"),
    ("study.pair_s.p50", "s"),
    ("study.pair_s.p99", "s"),
    ("core.controller_self_s", "s"),
    ("core.step_s.p50", "s"),
    ("core.step_s.p99", "s"),
    ("core.verified_frac", "ratio"),
    ("core.actions.probe", "count"),
    ("core.actions.reramp", "count"),
    ("core.actions.settle", "count"),
    ("core.actions.raise", "count"),
    ("core.actions.cut", "count"),
    ("core.actions.hold", "count"),
    ("core.actions.defer", "count"),
    ("monitor.poll_clean_s", "s"),
    ("monitor.polls", "count"),
    ("monitor.samples", "count"),
    ("dsp.plan_lookups", "count"),
    ("dsp.plan_misses", "count"),
    ("dsp.plan_hit_ratio", "ratio"),
    ("dsp.plans_built", "count"),
    ("dsp.plan_built_mb", "MB"),
    ("dsp.table_mb", "MB"),
    ("dsp.cold_step_s", "s"),
    ("dsp.cold_steps", "count"),
    ("dsp.warm_step_s", "s"),
    ("dsp.warm_steps", "count"),
    ("fleetsim.build_s", "s"),
    ("fleetsim.scheduler.allocate_s", "s"),
    ("fleetsim.scheduler.incremental_repairs", "count"),
    ("fleetsim.scheduler.full_resorts", "count"),
    ("fleetsim.scheduler.changed_keys", "count"),
    ("fleetsim.phase.build_s", "s"),
    ("fleetsim.phase.step_s", "s"),
    ("fleetsim.phase.schedule_s", "s"),
    ("fleetsim.epoch_s.e0", "s"),
    ("fleetsim.epoch_s.e1", "s"),
    ("fleetsim.epoch_s.e2", "s"),
    ("fleetsim.epoch_s.e3", "s"),
    ("fleetsim.epoch_s.e4", "s"),
    ("fleetsim.epoch_s.e5", "s"),
    ("fleetsim.epoch_s.e6", "s"),
    ("fleetsim.epoch_s.e7", "s"),
    ("fleetsim.epoch_s.e8", "s"),
    ("fleetsim.epoch_s.e9", "s"),
    ("scenario.deal_s", "s"),
    ("scenario.dealt", "count"),
    ("watchdog.reprobes", "count"),
    ("watchdog.suspect", "count"),
    ("watchdog.starved", "count"),
    ("metrics.jsonl_bytes", "bytes"),
    ("metrics.journal_events", "count"),
    ("metrics.journal_dropped", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.named_share", "ratio"),
    ("metrics.overhead_frac", "ratio"),
    ("watchdog.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// Each run repeats its workload at least this often, however short
/// `--seconds` is, so every reported figure rests on several rounds.
const MIN_ROUNDS_UNTRACED: usize = 3;
const MIN_ROUNDS_TRACED: usize = 2;

const MB: f64 = 1024.0 * 1024.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    StudyPaper,
    FleetUncapped,
    FleetChaos,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "study_paper" => Some(Workload::StudyPaper),
            "fleet_uncapped" => Some(Workload::FleetUncapped),
            "fleet_chaos" => Some(Workload::FleetChaos),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.trim_start_matches("--").to_string(), value.clone());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let mut take = |name: &str| flags.remove(name).ok_or(format!("missing --{name}"));
    let workload = take("workload")?;
    let workload = Workload::parse(&workload).ok_or(format!(
        "unknown workload `{workload}` (study_paper, fleet_uncapped, fleet_chaos)"
    ))?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// Output checks: every check and every program call is one operation
/// attempted; a failed check or a panicking call is one failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Runs one program call, counting a panic as a failed operation.
    fn guard<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        let out = catch_unwind(AssertUnwindSafe(f)).ok();
        self.check(out.is_some(), what);
        out
    }
}

/// Metric values by name; [`Report::line`] prints them in the order of the
/// metric table, with 0 for any the workload did not set.
#[derive(Default)]
struct Report(BTreeMap<&'static str, f64>);

impl Report {
    fn put(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn line(&self, table: &[(&'static str, &str)], checks: &mut Checks) -> String {
        for name in self.0.keys() {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not in the table"
            );
        }
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let mut value = self.0.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                checks.check(false, &format!("metric {name} is not finite"));
                value = 0.0;
            }
            metrics.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            checks.failed == 0,
            checks.attempted.max(1),
            checks.failed,
            metrics.join(",")
        )
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The fastest of a run's timings. Other tenants of a shared host only
/// ever slow a round down, so the fastest round is the steadiest estimate
/// of the program's own speed: on a 2-vCPU VM its run-to-run spread was a
/// fifth to two fifths of the median's (see README.md).
fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median over passes of one per-pass value.
fn med<T>(passes: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Repeats `round` until `seconds` have passed and at least `min` rounds
/// ran; `round` gets the round number.
fn for_rounds(seconds: Duration, min: usize, mut round: impl FnMut(usize)) {
    let began = Instant::now();
    let mut i = 0;
    while i < min || began.elapsed() < seconds {
        round(i);
        i += 1;
    }
}

fn peak_rss_mb() -> f64 {
    peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

// ---------------------------------------------------------------- study --

/// The study's inputs: the paper-scale work list and the device traces it
/// covers (the ground truth the outputs are checked and scored against).
struct StudyInputs {
    work: Vec<(MetricProfile, usize)>,
    traces: Vec<DeviceTrace>,
}

fn study_inputs(seed: u64) -> StudyInputs {
    let work = paper_scale_work();
    let traces = work
        .iter()
        .map(|&(p, d)| DeviceTrace::synthesize(p, d, seed))
        .collect();
    StudyInputs { work, traces }
}

/// A study's pairs in the re-drive's comparable form.
fn study_pairs(s: &FleetStudy) -> Vec<study::Pair> {
    s.pairs
        .iter()
        .map(|p| study::Pair {
            meta: p.meta.clone(),
            estimate: p.estimate,
            outcome: p.outcome,
            truly_undersampled: p.truly_undersampled,
        })
        .collect()
}

fn check_study(checks: &mut Checks, s: &FleetStudy, inputs: &StudyInputs) {
    checks.check(
        s.pairs.len() == inputs.work.len(),
        "study yields one pair per work item",
    );
    checks.check(
        s.pairs.iter().all(|p| match p.estimate {
            NyquistEstimate::Rate(r) => r.value().is_finite() && r.value() >= 0.0,
            NyquistEstimate::Aliased => true,
        }),
        "study estimates are finite",
    );
    checks.check(
        s.pairs
            .iter()
            .zip(&inputs.traces)
            .all(|(p, t)| &p.meta == t.meta()),
        "study pairs follow the generated work list",
    );
}

/// Quality, cost and verdict accuracy of a study: each pair adopts its
/// estimated Nyquist rate (production rate when the estimate is aliased),
/// scored by the fleet coverage model against the true requirement and
/// priced per day by the default cost model.
fn study_scores(s: &FleetStudy, inputs: &StudyInputs) -> (FleetQuality, f64, f64) {
    let day = Seconds::from_days(1.0).value();
    let unit_cost = CostModel::default().cost_per_sample();
    let mut devices = Vec::with_capacity(s.pairs.len());
    let mut spent = 0.0;
    let mut right = 0usize;
    for (i, (p, t)) in s.pairs.iter().zip(&inputs.traces).enumerate() {
        let adopted = p.outcome.estimated_nyquist.unwrap_or(p.production_rate);
        let need = if t.is_quiet() {
            0.0
        } else {
            t.true_nyquist_rate().value()
        };
        devices.push(DeviceQuality {
            index: i,
            kind: p.kind,
            mean_coverage: quality::coverage(adopted, Hertz(need)),
            final_rate: adopted.value(),
            deferred_epochs: 0,
            missed_epochs: 0,
        });
        spent += adopted.value() * day * unit_cost;
        right += ((p.outcome.class == PairClass::Undersampled) == p.truly_undersampled) as usize;
    }
    let accuracy = right as f64 / s.pairs.len().max(1) as f64;
    (FleetQuality::from_devices(&devices), spent, accuracy)
}

fn run_study(args: &Args, checks: &mut Checks, report: &mut Report) {
    let seed = args.seed;
    let estimator = NyquistConfig::default();
    let run = |threads| FleetStudy::run_paper_scale(seed, estimator, threads);
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut last: Option<(FleetStudy, StudyInputs)> = None;
    let mut traced: Vec<study::Redrive> = Vec::new();
    let min = if args.trace {
        MIN_ROUNDS_TRACED
    } else {
        MIN_ROUNDS_UNTRACED
    };
    for_rounds(args.seconds, min, |_| {
        let t = Instant::now();
        let inputs = study_inputs(seed);
        setups.push(secs(t.elapsed()));
        let t = Instant::now();
        let Some(s) = checks.guard("study run", || run(1)) else {
            return;
        };
        walls.push(secs(t.elapsed()));
        check_study(checks, &s, &inputs);
        if let Some((prev, _)) = &last {
            checks.check(
                study_pairs(prev) == study_pairs(&s),
                "study repeats exactly",
            );
        }
        if args.trace {
            let day = Seconds::from_days(1.0);
            if let Some(r) = checks.guard("study re-drive", || {
                study::redrive(&inputs.work, seed, day, estimator)
            }) {
                checks.check(
                    r.pairs == study_pairs(&s),
                    "study re-drive matches the program",
                );
                traced.push(r);
            }
        }
        last = Some((s, inputs));
    });
    let rss = peak_rss_mb();
    let Some((s, inputs)) = last else { return };
    if let Some(s2) = checks.guard("study run at 2 threads", || run(2)) {
        checks.check(
            study_pairs(&s2) == study_pairs(&s),
            "study identical at 1 and 2 threads",
        );
    }
    if args.trace {
        let layers: Vec<&Layers> = traced.iter().map(|r| &r.layers).collect();
        let Some(last) = traced.last() else { return };
        put_dsp(report, &layers, last.fft, last.cache, last.table_bytes);
        report.put(
            "telemetry.synthesize_s",
            med(&layers, |l| secs(l.synthesize)),
        );
        report.put("telemetry.trace_s", med(&layers, |l| secs(l.trace)));
        report.put("telemetry.samples", last.layers.trace_samples as f64);
        report.put("timeseries.clean_s", med(&layers, |l| secs(l.clean)));
        report.put("timeseries.samples_in", last.layers.clean_in as f64);
        report.put("timeseries.samples_out", last.layers.clean_out as f64);
        report.put("core.estimate_s", med(&layers, |l| secs(l.estimate)));
        let pair_s: Vec<f64> = layers
            .iter()
            .flat_map(|l| l.pair_s.iter().copied())
            .collect();
        report.put("study.pair_s.p50", quantile(&pair_s, 0.50));
        report.put("study.pair_s.p99", quantile(&pair_s, 0.99));
        let named =
            |l: &&Layers| secs(l.synthesize + l.trace + l.clean + l.estimate) / secs(l.total);
        report.put("trace.named_share", med(&layers, named));
        report.put(
            "trace.overhead_frac",
            med(&layers, |l| secs(l.total)) / median(&walls) - 1.0,
        );
    } else {
        let (q, spent, accuracy) = study_scores(&s, &inputs);
        report.put("setup_s", fastest(&setups));
        let per_s = s.pairs.len() as f64 / fastest(&walls);
        // One study pair analyses one device-day of trace: one device-epoch.
        report.put("pairs_per_s", per_s);
        report.put("device_epochs_per_s", per_s);
        report.put("peak_rss_mb", rss);
        report.put("mean_coverage", q.mean_coverage);
        report.put("p10_coverage", q.p10_coverage);
        report.put("spent_per_epoch", spent);
        report.put("study_accuracy", accuracy);
    }
}

/// The FFT-layer metrics shared by every traced workload.
fn put_dsp(
    report: &mut Report,
    layers: &[&Layers],
    fft: sweetspot_dsp::fft::FftHandleStats,
    cache: sweetspot_dsp::fft::FftCacheStats,
    table_bytes: usize,
) {
    let lookups = fft.lookups.get() as f64;
    report.put("dsp.plan_lookups", lookups);
    report.put("dsp.plan_misses", fft.misses.get() as f64);
    report.put(
        "dsp.plan_hit_ratio",
        if lookups > 0.0 {
            fft.hits.get() as f64 / lookups
        } else {
            0.0
        },
    );
    report.put("dsp.plans_built", cache.builds as f64);
    report.put("dsp.plan_built_mb", cache.built_bytes as f64 / MB);
    report.put("dsp.table_mb", table_bytes as f64 / MB);
    report.put("dsp.cold_step_s", med(layers, |l| secs(l.cold)));
    report.put(
        "dsp.cold_steps",
        layers.last().map_or(0, |l| l.cold_steps) as f64,
    );
    report.put("dsp.warm_step_s", med(layers, |l| secs(l.warm)));
    report.put(
        "dsp.warm_steps",
        layers.last().map_or(0, |l| l.warm_steps) as f64,
    );
}

// ---------------------------------------------------------------- fleets --

/// One program pass over a fleet workload.
struct FleetPass {
    outcome: PolicyOutcome,
    times: PassTimes,
    jsonl: Option<String>,
    /// The recorder's journal events recorded and dropped.
    journal: (u64, u64),
}

/// The timings kept from each pass (outcomes are compared and dropped, so
/// the benchmark's own memory does not grow with the round count).
#[derive(Clone, Copy)]
struct PassTimes {
    /// Input generation (configuration and recorder) plus member
    /// construction.
    setup: f64,
    /// Wall time of the `run_policy_recorded` call, and that time after
    /// member construction: the epoch loop and the final aggregation.
    wall: f64,
    run: f64,
    /// The program's own phase split.
    build: f64,
    step: f64,
    schedule: f64,
}

/// A fleet workload: how its configuration is made, its policy and budget.
struct FleetWorkload {
    config: fn(seed: u64, recovery_frac: f64) -> FleetSimConfig,
    policy: SchedulerPolicy,
    budget: f64,
    recovery_frac: f64,
    recorded: bool,
}

impl FleetWorkload {
    fn of(w: Workload) -> FleetWorkload {
        match w {
            Workload::FleetUncapped => FleetWorkload {
                config: |seed, _| {
                    workloads::uncapped(seed, workloads::UNCAPPED_DEVICES, workloads::UNCAPPED_DAYS)
                },
                policy: SchedulerPolicy::Uncapped,
                budget: f64::INFINITY,
                recovery_frac: 0.0,
                recorded: false,
            },
            Workload::FleetChaos => FleetWorkload {
                config: |seed, frac| {
                    workloads::chaos(seed, workloads::CHAOS_DEVICES, workloads::CHAOS_DAYS, frac)
                },
                policy: workloads::CHAOS_POLICY,
                budget: workloads::CHAOS_BUDGET,
                recovery_frac: workloads::CHAOS_RECOVERY_FRAC,
                recorded: true,
            },
            Workload::StudyPaper => unreachable!("the study is not a fleet workload"),
        }
    }

    fn pass(&self, seed: u64, threads: usize, recorded: bool, recovery_frac: f64) -> FleetPass {
        let t = Instant::now();
        let cfg = FleetSimConfig {
            threads,
            ..(self.config)(seed, recovery_frac)
        };
        let mut recorder = recorded.then(MetricsRecorder::in_memory);
        let gen = t.elapsed();
        let t = Instant::now();
        let outcome = run_policy_recorded(&cfg, self.policy, self.budget, recorder.as_mut());
        let wall = t.elapsed();
        let timing = outcome.timing;
        let times = PassTimes {
            setup: secs(gen + timing.build),
            wall: secs(wall),
            run: secs(wall.saturating_sub(timing.build)),
            build: secs(timing.build),
            step: secs(timing.step),
            schedule: secs(timing.schedule),
        };
        let journal = recorder
            .as_ref()
            .map_or((0, 0), |r| (r.journal_events(), r.journal_dropped()));
        FleetPass {
            outcome,
            times,
            jsonl: recorder.map(|r| r.buffer().to_string()),
            journal,
        }
    }
}

fn check_fleet(checks: &mut Checks, o: &PolicyOutcome, cfg: &FleetSimConfig) {
    checks.check(
        o.devices == fleet::work(cfg).len(),
        "fleet simulates every device",
    );
    checks.check(
        o.ledger.accounts().len() == fleet::epochs(cfg),
        "fleet ledger has every epoch",
    );
    checks.check(
        o.ledger
            .accounts()
            .iter()
            .all(|a| a.granted <= a.budget * (1.0 + 1e-9)),
        "ledger never grants over budget",
    );
    let fft = o.metrics.fft;
    checks.check(
        fft.hits.get() + fft.misses.get() == fft.lookups.get(),
        "fft hits + misses == lookups",
    );
    let c = o.metrics.controller;
    checks.check(
        c.verified.get() + c.unverified.get() == c.stepped(),
        "verified + unverified == stepped",
    );
    let q = o.quality;
    checks.check(
        (0.0..=1.0).contains(&q.mean_coverage) && (0.0..=1.0).contains(&q.p10_coverage),
        "fleet coverage lies in [0, 1]",
    );
    if cfg.scenario.is_active() {
        let Some(s) = &o.scenario else {
            return checks.check(false, "scenario run reports scenario stats");
        };
        let (d, a) = (s.counters, o.metrics.applied);
        checks.check(
            d.absent_epochs as u64 == a.absent_epochs.get()
                && d.reboots as u64 == a.reboot_steps.get()
                && d.dropped_reports as u64 == a.dropped_reports.get()
                && d.delayed_reports as u64 == a.delayed_reports.get()
                && d.duplicated_reports as u64 == a.duplicated_reports.get()
                && d.dormant_epochs as u64 == a.dormant_epochs.get(),
            "scenario dealt == applied, kind for kind",
        );
    }
    checks.check(
        (cfg.recovery_budget_frac > 0.0) == o.metrics.watchdog.is_some(),
        "watchdog counters present exactly when armed",
    );
}

/// Share of devices whose final verdict — the controller asks for more than
/// the production rate — matches whether production truly under-samples
/// them.
fn fleet_accuracy(o: &PolicyOutcome, cfg: &FleetSimConfig) -> f64 {
    let work = fleet::work(cfg);
    let right = work
        .iter()
        .zip(&o.device_quality)
        .filter(|(&(p, d), dq)| {
            let truth =
                DeviceTrace::synthesize(p, d, cfg.fleet.seed).is_undersampled_at_production_rate();
            (dq.final_rate > p.production_rate().value()) == truth
        })
        .count();
    right as f64 / work.len().max(1) as f64
}

/// What one slot of a fleet round runs.
#[derive(Clone, Copy)]
enum Variant {
    /// The workload itself, through `run_policy_recorded`.
    Program,
    /// Its twin without the recorder (`fleet_chaos` traced runs).
    NoRecorder,
    /// Its twin with `recovery_budget_frac` 0 (`fleet_chaos` traced runs).
    NoWatchdog,
    /// The traced re-drive.
    Redrive,
}

fn run_fleet(args: &Args, checks: &mut Checks, report: &mut Report) {
    let w = FleetWorkload::of(args.workload);
    let seed = args.seed;
    let cfg = (w.config)(seed, w.recovery_frac);
    let device_epochs = (fleet::work(&cfg).len() * fleet::epochs(&cfg)) as f64;
    let chaos = args.workload == Workload::FleetChaos;

    let mut base: Vec<PassTimes> = Vec::new();
    let mut last: Option<FleetPass> = None;
    // Traced runs only: wall times of the recorder-free and watchdog-free
    // twins, and the re-drives' layers.
    let mut no_recorder: Vec<f64> = Vec::new();
    let mut no_watchdog: Vec<f64> = Vec::new();
    let mut traced: Vec<Layers> = Vec::new();
    let mut last_redrive: Option<fleet::Redrive> = None;
    let min = if args.trace {
        MIN_ROUNDS_TRACED
    } else {
        MIN_ROUNDS_UNTRACED
    };
    let same = |a: &PolicyOutcome, b: &Option<FleetPass>| {
        b.as_ref()
            .is_none_or(|b| fleet::Outputs::of(a) == fleet::Outputs::of(&b.outcome))
    };
    for_rounds(args.seconds, min, |round| {
        // Alternate the order of the variants so no variant always runs
        // right after another.
        let mut variants = if !args.trace {
            vec![Variant::Program]
        } else if chaos {
            vec![
                Variant::Program,
                Variant::NoRecorder,
                Variant::NoWatchdog,
                Variant::Redrive,
            ]
        } else {
            vec![Variant::Program, Variant::Redrive]
        };
        if round % 2 == 1 {
            variants.reverse();
        }
        for v in variants {
            match v {
                Variant::Program => {
                    let Some(p) =
                        checks.guard("fleet run", || w.pass(seed, 1, w.recorded, w.recovery_frac))
                    else {
                        continue;
                    };
                    check_fleet(checks, &p.outcome, &cfg);
                    let jsonl_same = last.as_ref().is_none_or(|l| l.jsonl == p.jsonl);
                    checks.check(
                        same(&p.outcome, &last) && jsonl_same,
                        "fleet run repeats exactly",
                    );
                    base.push(p.times);
                    last = Some(p);
                }
                Variant::NoRecorder => {
                    if let Some(p) = checks.guard("fleet run without recorder", || {
                        w.pass(seed, 1, false, w.recovery_frac)
                    }) {
                        checks.check(
                            same(&p.outcome, &last),
                            "fleet outputs identical with and without the recorder",
                        );
                        no_recorder.push(p.times.wall);
                    }
                }
                Variant::NoWatchdog => {
                    if let Some(p) = checks.guard("fleet run without watchdog", || {
                        w.pass(seed, 1, w.recorded, 0.0)
                    }) {
                        no_watchdog.push(p.times.wall);
                    }
                }
                Variant::Redrive => {
                    if let Some(mut r) = checks.guard("fleet re-drive", || {
                        fleet::redrive(&cfg, w.policy, w.budget)
                    }) {
                        let matches = last
                            .as_ref()
                            .is_none_or(|l| r.outputs() == fleet::Outputs::of(&l.outcome));
                        checks.check(matches, "fleet re-drive matches the program");
                        traced.push(std::mem::take(&mut r.layers));
                        last_redrive = Some(r);
                    }
                }
            }
        }
    });
    let rss = peak_rss_mb();
    let Some(last) = last else { return };
    if let Some(p2) = checks.guard("fleet run at 2 threads", || {
        w.pass(seed, 2, w.recorded, w.recovery_frac)
    }) {
        checks.check(
            fleet::Outputs::of(&p2.outcome) == fleet::Outputs::of(&last.outcome)
                && p2.outcome.scenario == last.outcome.scenario
                && p2.jsonl == last.jsonl,
            "fleet outputs identical at 1 and 2 threads",
        );
    }
    if !args.trace {
        let o = &last.outcome;
        report.put(
            "setup_s",
            fastest(&base.iter().map(|t| t.setup).collect::<Vec<_>>()),
        );
        let per_s = device_epochs / fastest(&base.iter().map(|t| t.run).collect::<Vec<_>>());
        report.put("device_epochs_per_s", per_s);
        // A pair is one device simulated over the whole horizon.
        report.put("pairs_per_s", per_s / fleet::epochs(&cfg) as f64);
        report.put("peak_rss_mb", rss);
        report.put("mean_coverage", o.quality.mean_coverage);
        report.put("p10_coverage", o.quality.p10_coverage);
        report.put("spent_per_epoch", o.ledger.mean_spent_per_epoch());
        report.put("study_accuracy", fleet_accuracy(o, &cfg));
        return;
    }

    // The program's own counters and phase split.
    let o = &last.outcome;
    let c = o.metrics.controller;
    report.put(
        "core.verified_frac",
        c.verified.get() as f64 / c.stepped().max(1) as f64,
    );
    for (name, n) in [
        ("core.actions.probe", c.probe),
        ("core.actions.reramp", c.reramp),
        ("core.actions.settle", c.settle),
        ("core.actions.raise", c.raise),
        ("core.actions.cut", c.cut),
        ("core.actions.hold", c.hold),
        ("core.actions.defer", c.defer),
    ] {
        report.put(name, n.get() as f64);
    }
    let s = o.metrics.sched;
    report.put(
        "fleetsim.scheduler.incremental_repairs",
        s.incremental_repairs as f64,
    );
    report.put("fleetsim.scheduler.full_resorts", s.full_resorts as f64);
    report.put("fleetsim.scheduler.changed_keys", s.changed_keys as f64);
    report.put("fleetsim.phase.build_s", med(&base, |t| t.build));
    report.put("fleetsim.phase.step_s", med(&base, |t| t.step));
    report.put("fleetsim.phase.schedule_s", med(&base, |t| t.schedule));
    if let Some(wd) = o.metrics.watchdog {
        report.put("watchdog.reprobes", wd.reprobes as f64);
        report.put("watchdog.suspect", wd.suspect as f64);
        report.put("watchdog.starved", wd.starved as f64);
    }
    if let Some(jsonl) = &last.jsonl {
        report.put("metrics.jsonl_bytes", jsonl.len() as f64);
    }
    report.put("metrics.journal_events", last.journal.0 as f64);
    report.put("metrics.journal_dropped", last.journal.1 as f64);
    if chaos {
        // Same-round ratios of the twins, medians over rounds.
        let twin = |other: &[f64]| {
            let ratios: Vec<f64> = base
                .iter()
                .zip(other)
                .map(|(a, b)| a.wall / b - 1.0)
                .collect();
            median(&ratios)
        };
        report.put("metrics.overhead_frac", twin(&no_recorder));
        report.put("watchdog.overhead_frac", twin(&no_watchdog));
    }

    // The re-drive: per-layer time and work.
    let (Some(r), Some(counts)) = (&last_redrive, traced.last()) else {
        return;
    };
    let untraced_wall = if chaos {
        median(&no_recorder)
    } else {
        med(&base, |t| t.wall)
    };
    let layers: Vec<&Layers> = traced.iter().collect();
    put_dsp(report, &layers, r.fft, r.cache, r.table_bytes);
    report.put(
        "telemetry.synthesize_s",
        med(&layers, |l| secs(l.synthesize)),
    );
    report.put("monitor.poll_clean_s", med(&layers, |l| secs(l.poll)));
    report.put("monitor.polls", counts.polls as f64);
    report.put("monitor.samples", counts.poll_samples as f64);
    report.put(
        "core.controller_self_s",
        med(&layers, |l| secs(l.step.saturating_sub(l.poll))),
    );
    let step_s: Vec<f64> = layers
        .iter()
        .flat_map(|l| l.step_s.iter().copied())
        .collect();
    report.put("core.step_s.p50", quantile(&step_s, 0.50));
    report.put("core.step_s.p99", quantile(&step_s, 0.99));
    report.put("fleetsim.build_s", med(&layers, |l| secs(l.build)));
    report.put(
        "fleetsim.scheduler.allocate_s",
        med(&layers, |l| secs(l.allocate)),
    );
    const EPOCH_NAMES: [&str; 10] = [
        "fleetsim.epoch_s.e0",
        "fleetsim.epoch_s.e1",
        "fleetsim.epoch_s.e2",
        "fleetsim.epoch_s.e3",
        "fleetsim.epoch_s.e4",
        "fleetsim.epoch_s.e5",
        "fleetsim.epoch_s.e6",
        "fleetsim.epoch_s.e7",
        "fleetsim.epoch_s.e8",
        "fleetsim.epoch_s.e9",
    ];
    for (e, name) in EPOCH_NAMES.iter().enumerate().take(counts.epoch_s.len()) {
        report.put(name, med(&layers, |l| l.epoch_s[e]));
    }
    report.put("scenario.deal_s", med(&layers, |l| secs(l.deal)));
    let d = r.dealt;
    let dealt = d.absent_epochs
        + d.reboots
        + d.dropped_reports
        + d.delayed_reports
        + d.duplicated_reports
        + d.dormant_epochs;
    report.put("scenario.dealt", dealt as f64);
    report.put(
        "trace.named_share",
        med(&layers, |l| secs(fleet::named_time(l)) / secs(l.total)),
    );
    report.put(
        "trace.overhead_frac",
        med(&layers, |l| secs(l.total)) / untraced_wall - 1.0,
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <study_paper|fleet_uncapped|fleet_chaos> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let mut report = Report::default();
    match args.workload {
        Workload::StudyPaper => run_study(&args, &mut checks, &mut report),
        Workload::FleetUncapped | Workload::FleetChaos => {
            run_fleet(&args, &mut checks, &mut report)
        }
    }
    if args.trace {
        report.put(
            "failed_frac",
            checks.failed as f64 / checks.attempted.max(1) as f64,
        );
        println!("{}", report.line(PER_LAYER, &mut checks));
    } else {
        println!("{}", report.line(END_TO_END, &mut checks));
    }
    ExitCode::SUCCESS
}
