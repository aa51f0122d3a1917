//! The three benchmark workloads: their fleet configurations, the generated
//! request trace of `trace-replay`, and one timed repetition (construction, then run)
//! through the public `FleetSimulator` API.

use cluster_sim::experiment::{ExperimentConfig, FleetConfig, RequestFabricConfig};
use cluster_sim::fleet::FleetSimulator;
use cluster_sim::metrics::FleetReport;
use cluster_sim::scenario::generator::{generate, GeneratorConfig, IntensityTier};
use cluster_sim::scenario::{Scenario, ScenarioEvent};
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::time::Instant;
use tapas::policy::Policy;
use workload::trace::{parse_csv, TraceRecord};

use crate::reference;

/// Fleet sites in every workload.
const SITES: usize = 3;
/// Simulated horizon of `control-week`, in days.
const CONTROL_DAYS: u64 = 3;
/// Simulated horizon of `fabric-chaos`, in hours (the ROADMAP chaos fleet's).
const FABRIC_HOURS: u64 = 3;
/// Simulated horizon of `trace-replay`, in hours.
const TRACE_HOURS: u64 = 6;
/// Mean request rate of the generated trace, fleet-wide, per simulated second.
const TRACE_MEAN_PER_S: f64 = 150.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ControlWeek,
    TraceReplay,
    FabricChaos,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "control-week" => Some(Self::ControlWeek),
            "trace-replay" => Some(Self::TraceReplay),
            "fabric-chaos" => Some(Self::FabricChaos),
            _ => None,
        }
    }

    pub fn has_fabric(self) -> bool {
        self != Self::ControlWeek
    }

    /// The fleet configuration of the workload for `seed`. The seed drives the
    /// generated adversarial scenario; the trace of `trace-replay` is generated
    /// separately by [`trace_csv`].
    pub fn fleet_config(self, seed: u64) -> FleetConfig {
        match self {
            Self::ControlWeek => {
                let base = ExperimentConfig::production_week(Policy::Tapas)
                    .with_duration(SimTime::from_days(CONTROL_DAYS));
                let scenario = adversarial(seed, &base);
                FleetConfig::evaluation(base.with_scenario(scenario), SITES)
            }
            Self::TraceReplay => {
                let base = ExperimentConfig::real_cluster_hour(Policy::Tapas)
                    .with_duration(SimTime::from_hours(TRACE_HOURS))
                    .with_step(SimDuration::from_minutes(5))
                    .with_request_fabric(RequestFabricConfig::default());
                FleetConfig::evaluation(base, SITES)
            }
            Self::FabricChaos => {
                let base = ExperimentConfig::real_cluster_hour(Policy::Tapas)
                    .with_duration(SimTime::from_hours(FABRIC_HOURS))
                    .with_step(SimDuration::from_minutes(5))
                    .with_request_fabric(RequestFabricConfig {
                        rate_scale: 2.0,
                        deadline_shedding: true,
                        ..RequestFabricConfig::default()
                    });
                let scenario = adversarial(seed, &base);
                FleetConfig::evaluation(base.with_scenario(scenario), SITES)
            }
        }
    }
}

/// Seed of the stress events every run shares (weather episodes, infrastructure
/// failures, replica kills, power caps, demand surges and endpoint ramps): the
/// ROADMAP chaos scenario's seed.
const STRESS_SEED: u64 = 4242;

/// A generated adversarial scenario: grid-price episodes come from `seed`; the stress
/// events come from [`STRESS_SEED`], with the replica kills moved in time by `seed`.
/// Request volume, heat, power and replica-loss stress, and with them the work, queue
/// backlog and report size of a run, stay alike across seeds, while when the replicas
/// die (and so which requests are preempted) differs. Seed 4242 gives the ROADMAP
/// chaos scenario.
fn adversarial(seed: u64, base: &ExperimentConfig) -> Scenario {
    let generator = GeneratorConfig {
        tier: IntensityTier::Adversarial,
        sites: SITES,
        duration: base.duration,
        endpoints: base.endpoint_count,
    };
    let is_stress = |event: &ScenarioEvent| !matches!(event, ScenarioEvent::GridPrice { .. });
    let mut scenario = generate(seed, &generator);
    scenario.events.retain(|event| !is_stress(event));
    let stress = generate(STRESS_SEED, &generator);
    scenario
        .events
        .extend(stress.events.into_iter().filter(is_stress));
    // The seed moves each replica kill by (seed - STRESS_SEED) x 37 minutes, wrapped
    // so that the window keeps its length inside the horizon.
    let horizon = base.duration.as_minutes();
    let shift = seed.wrapping_sub(STRESS_SEED).wrapping_mul(37);
    for event in &mut scenario.events {
        if let ScenarioEvent::ReplicaFailure { start, end, .. } = event {
            let length = end.as_minutes() - start.as_minutes();
            let moved = start.as_minutes().wrapping_add(shift) % (horizon - length + 1);
            *start = SimTime::from_minutes(moved);
            *end = SimTime::from_minutes(moved + length);
        }
    }
    scenario
}

/// Simulated site-minutes of a fleet run (every site steps the whole horizon).
fn site_minutes(config: &FleetConfig) -> f64 {
    (config.sites.len() as u64 * config.base.duration.as_minutes()) as f64
}

/// Generates the Azure-style CSV request trace of `trace-replay` from `seed`: bursty,
/// prefill-heavy (log-normal prompts around 1.5k tokens, outputs around 20 tokens),
/// sorted by millisecond timestamp, over the workload's endpoints. Only the text is
/// handed to the program.
pub fn trace_csv(seed: u64, endpoints: usize) -> String {
    let mut rng = SimRng::seed_from(seed).derive("perfbench.trace");
    let horizon_s = TRACE_HOURS * 3600;
    let mut csv = String::with_capacity((TRACE_MEAN_PER_S * horizon_s as f64 * 22.0) as usize);
    csv.push_str("timestamp_ms,endpoint,prompt_tokens,output_tokens\n");
    // Bursts: a handful of windows per hour at 2-4x the base rate.
    let mut burst_until = 0u64;
    let mut burst_scale = 1.0;
    for second in 0..horizon_s {
        if second >= burst_until && rng.chance(1.0 / 600.0) {
            burst_until = second + rng.uniform_usize(30, 180) as u64;
            burst_scale = rng.uniform(2.0, 4.0);
        }
        let scale = if second < burst_until {
            burst_scale
        } else {
            1.0
        };
        // A slow swell over the horizon so peak and trough rates differ.
        let phase = second as f64 / horizon_s as f64 * std::f64::consts::TAU;
        let rate = TRACE_MEAN_PER_S * (0.8 + 0.35 * phase.sin()) * scale;
        let count = rng.poisson(rate);
        let mut offsets: Vec<u64> = (0..count)
            .map(|_| rng.uniform_usize(0, 1000) as u64)
            .collect();
        offsets.sort_unstable();
        for offset in offsets {
            let endpoint = rng.uniform_usize(0, endpoints);
            let prompt = rng
                .log_normal(1500f64.ln(), 0.6)
                .round()
                .clamp(16.0, 7000.0) as u32;
            let output = rng.log_normal(18f64.ln(), 0.45).round().clamp(1.0, 256.0) as u32;
            let _ = writeln!(
                csv,
                "{},{endpoint},{prompt},{output}",
                second * 1000 + offset
            );
        }
    }
    csv
}

/// Input shape of a request stream: mean prompt and output tokens, and the busiest and
/// quietest simulated minute.
#[derive(Debug, Default)]
pub struct Shape {
    pub requests: u64,
    prompt_sum: u64,
    output_sum: u64,
    per_minute: Vec<u64>,
}

impl Shape {
    pub fn add(&mut self, time_ms: u64, prompt: u32, output: u32) {
        self.requests += 1;
        self.prompt_sum += u64::from(prompt);
        self.output_sum += u64::from(output);
        let minute = (time_ms / 60_000) as usize;
        if self.per_minute.len() <= minute {
            self.per_minute.resize(minute + 1, 0);
        }
        self.per_minute[minute] += 1;
    }

    pub fn of_records(records: &[TraceRecord]) -> Self {
        let mut shape = Self::default();
        for r in records {
            shape.add(r.timestamp_ms, r.prompt_tokens, r.output_tokens);
        }
        shape
    }

    pub fn json(&self) -> String {
        let n = self.requests.max(1) as f64;
        format!(
            "{{\"requests\": {}, \"mean_prompt_tokens\": {:.1}, \"mean_output_tokens\": {:.1}, \"peak_per_min\": {}, \"trough_per_min\": {}}}",
            self.requests,
            self.prompt_sum as f64 / n,
            self.output_sum as f64 / n,
            self.per_minute.iter().max().copied().unwrap_or(0),
            self.per_minute.iter().min().copied().unwrap_or(0),
        )
    }
}

/// FNV-1a over the serialized report.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// A built fleet plus what its construction measured.
struct Built {
    fleet: FleetSimulator,
    setup_s: f64,
    /// `parse_csv` time (`trace-replay` only).
    parse_s: f64,
    /// Parsed trace records (`trace-replay` only).
    records: u64,
    shape: Option<Shape>,
}

/// Builds the workload's fleet once, timing construction: `FleetSimulator::new`, or
/// `parse_csv` plus `with_request_trace` for `trace-replay`. Input generation is not
/// timed. Construction fills process-wide caches (the shared profile store), so only
/// the first construction in a process is what a user pays; one process builds once.
fn build(workload: Workload, seed: u64) -> Built {
    let config = workload.fleet_config(seed);
    if workload != Workload::TraceReplay {
        let start = Instant::now();
        let fleet = FleetSimulator::new(config);
        let setup_s = start.elapsed().as_secs_f64();
        return Built {
            fleet,
            setup_s,
            parse_s: 0.0,
            records: 0,
            shape: None,
        };
    }
    let csv = trace_csv(seed, config.base.endpoint_catalog().len());
    let start = Instant::now();
    let records = parse_csv(&csv).expect("the generated trace parses");
    let parse_s = start.elapsed().as_secs_f64();
    let fleet = FleetSimulator::with_request_trace(config, &records).expect("in-catalog endpoints");
    let setup_s = start.elapsed().as_secs_f64();
    Built {
        fleet,
        setup_s,
        parse_s,
        records: records.len() as u64,
        shape: Some(Shape::of_records(&records)),
    }
}

/// A construction-only repetition: one more `setup_s` sample, with the reference
/// kernel's time just before it.
pub fn setup_once(workload: Workload, seed: u64) -> String {
    let reference_s = reference::time_kernel();
    let setup_s = build(workload, seed).setup_s;
    format!("{{\"setup_s\": {setup_s}, \"reference_s\": [{reference_s}]}}")
}

/// Resets this process's peak resident memory (`VmHWM`) to its current resident
/// memory (Linux `clear_refs` 5; a no-op elsewhere).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process so far, in MiB (Linux `VmHWM`; 0 elsewhere).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one untraced repetition reports, as one JSON line. The reference kernel is
/// timed right before construction and right after the run (`reference_s` holds both
/// times). Peak RSS covers construction and run: it is reset after the first
/// kernel and read right after the run, before the report is serialized for its digest.
pub fn run_once(workload: Workload, seed: u64) -> String {
    let reference_before = reference::time_kernel();
    reset_peak_rss();
    let built = build(workload, seed);
    let config = built.fleet.config().clone();
    let start = Instant::now();
    let report = built.fleet.run();
    let run_s = start.elapsed().as_secs_f64();
    let rss_mb = peak_rss_mb();
    let reference_after = reference::time_kernel();
    let json = serde_json::to_string(&report).expect("serializable fleet report");
    let digest = fnv1a(json.as_bytes());
    let checks = check(workload, &report, built.records);
    let (requests, lifecycle) = match report.request_fabric() {
        Some(m) => (m.lifecycle.arrived, lifecycle_json(&m)),
        None => (report.total_requests_served(), "null".to_string()),
    };
    format!(
        "{{\"setup_s\": {}, \"run_s\": {run_s}, \"reference_s\": [{reference_before}, {reference_after}], \"parse_s\": {}, \"peak_rss_mb\": {rss_mb}, \"digest\": \"{digest:#018x}\", \"json_bytes\": {}, \"site_minutes\": {}, \"requests\": {requests}, \"records\": {}, \"failures\": {}, \"lifecycle\": {lifecycle}, \"shape\": {}}}",
        built.setup_s,
        built.parse_s,
        json.len(),
        site_minutes(&config),
        built.records,
        json_strings(&checks),
        built.shape.as_ref().map_or_else(|| "null".to_string(), Shape::json),
    )
}

fn lifecycle_json(m: &cluster_sim::metrics::RequestMetrics) -> String {
    let l = &m.lifecycle;
    format!(
        "{{\"arrived\": {}, \"completed\": {}, \"shed\": {}, \"timeouts\": {}, \"in_flight\": {}, \"preemptions\": {}, \"output_tokens\": {}, \"wasted_prefill_tokens\": {}, \"wasted_decode_tokens\": {}}}",
        l.arrived,
        m.completed,
        l.shed,
        l.timeouts,
        l.in_flight_at_horizon,
        l.preemptions,
        l.output_tokens,
        l.wasted_prefill_tokens,
        l.wasted_decode_tokens,
    )
}

fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

/// The per-run output checks that do not need a second repetition; returns every
/// violation found (empty when the run is correct).
fn check(workload: Workload, report: &FleetReport, records: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let summary = [
        ("peak_temperature_c", report.peak_temperature_c()),
        ("mean_quality", report.mean_quality()),
        ("slo_attainment", report.slo_attainment()),
        ("power_capped_minutes", report.power_capped_minutes()),
        (
            "thermal_throttled_minutes",
            report.thermal_throttled_minutes(),
        ),
    ];
    for (name, value) in summary {
        if !value.is_finite() {
            failures.push(format!("{name} is not finite"));
        }
    }
    for site in &report.sites {
        let series = [
            &site.max_gpu_temp,
            &site.peak_row_power,
            &site.datacenter_power,
        ];
        if series
            .iter()
            .any(|s| s.values().iter().any(|v| !v.is_finite()))
        {
            failures.push("a site time series holds a non-finite value".to_string());
        }
    }
    if !workload.has_fabric() {
        return failures;
    }
    let Some(metrics) = report.request_fabric() else {
        failures.push("the fabric did not run".to_string());
        return failures;
    };
    let l = &metrics.lifecycle;
    let accounted = metrics.completed + l.shed + l.timeouts + l.in_flight_at_horizon;
    if l.arrived != accounted {
        failures.push(format!(
            "conservation: arrived {} != completed + shed + timeouts + in_flight {accounted}",
            l.arrived
        ));
    }
    if !metrics.attainment_at(5.0).is_finite() {
        failures.push("fabric attainment is not finite".to_string());
    }
    if workload == Workload::TraceReplay && l.arrived != records {
        failures.push(format!("arrived {} != parsed records {records}", l.arrived));
    }
    failures
}
