//! The request fabric: a fleet-wide, event-timestamped inference-request stream.
//!
//! The simulator's legacy serving path is *quantum-based*: each step synthesizes a demand
//! rate per endpoint and routes aggregate quanta (see
//! [`crate::simulator::ClusterSimulator`]). That reproduces the paper's thermal/power
//! results, but it cannot answer per-request questions — time-to-first-token and
//! time-between-tokens distributions, SLO attainment *curves*, KV-cache pressure. The
//! fabric adds that missing request level as an opt-in overlay
//! ([`crate::experiment::ExperimentConfig::request_fabric`]):
//!
//! 1. **Generation** ([`FabricGenerator`]) — per endpoint, a Poisson request count per
//!    step (diurnal rate × scenario demand shaping × `rate_scale`), each request stamped
//!    with an integer-*millisecond* event time uniform within the step and a log-normal
//!    prompt/output shape (the [`workload`] request-shape calibration). Draws come from
//!    RNG streams derived under the `"request-fabric"` label, so enabling the fabric
//!    never perturbs the quantum path's per-step draws — fabric-off runs simulate
//!    exactly as without the fabric.
//! 2. **Ordering** ([`simkit::queue::EventQueue`]) — requests are delivered in
//!    `(time, push-order)` order: pushes append, and the first drain after an
//!    out-of-order push sorts once in place by `(time, sequence)`, a monotone sequence
//!    number breaking ties FIFO. The fleet sorts one step window per step; cell inboxes
//!    are fed in time order and never sort. Replay is deterministic for millions of
//!    events without any per-event allocation.
//! 3. **Serving** ([`RequestFabric`]) — per endpoint, an aggregate continuous-batching
//!    scheduler ([`llm_sim::batch::BatchScheduler`]) whose replica count tracks the
//!    endpoint's placed instances and whose admission is bounded by KV-cache occupancy
//!    (prompt pinned at admission, +1 token per sequence per decode iteration, eviction
//!    on completion). Completions feed [`crate::metrics::RequestMetrics`]: TTFT/TBT
//!    histograms and SLO-multiplier attainment curves against the endpoint's *unloaded*
//!    analytic latencies (the paper's SLO sits at the 5× point of that curve).
//!
//! A fleet routes the generated stream per-request across sites
//! ([`tapas::geo::GeoPlacement::choose_request`]) before cells step, then delivers into
//! per-cell inboxes — cells never generate their own fabric traffic, so serial and
//! `parallel` fleet execution see identical event sequences.

use crate::experiment::RequestFabricConfig;
use crate::metrics::RequestMetrics;
use crate::scenario::ResolvedTimeline;
use llm_sim::batch::{BatchCompletion, BatchScheduler, SchedulerFaults};
use llm_sim::hardware::GpuHardware;
use llm_sim::perf::PerfModel;
use llm_sim::request::RequestShape;
use simkit::queue::EventQueue;
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};
use workload::diurnal::DiurnalPattern;
use workload::endpoints::EndpointCatalog;
use workload::trace::{TraceError, TraceRecord};

/// Milliseconds per simulated minute (the fabric's event clock is integer ms; the
/// simulator's step clock is integer minutes).
pub const MS_PER_MINUTE: u64 = 60_000;

/// One inference request travelling through the fabric. The arrival timestamp lives in
/// the event queue's key, not here, so the payload stays a single machine word pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricRequest {
    /// Fleet-unique request id (generation order, or trace line for replays).
    pub id: u64,
    /// Target endpoint ordinal.
    pub endpoint: u32,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Output length in tokens.
    pub output_tokens: u32,
}

/// Per-endpoint generation state.
#[derive(Debug, Clone)]
struct GeneratorEndpoint {
    /// Peak aggregate request rate (requests/minute) at the top of the diurnal cycle.
    peak_requests_per_minute: f64,
    /// The endpoint's diurnal load pattern (identical construction to the simulator's,
    /// from an independent clone of the derived pattern stream).
    pattern: DiurnalPattern,
    /// Dedicated per-endpoint draw stream (child of the `"request-fabric"` stream).
    rng: SimRng,
}

/// Generates the fabric's event-timestamped request stream, one Poisson batch per
/// endpoint per step, each request offset uniformly within the step in milliseconds.
#[derive(Debug, Clone)]
pub struct FabricGenerator {
    config: RequestFabricConfig,
    shape: RequestShape,
    endpoints: Vec<GeneratorEndpoint>,
    next_id: u64,
}

impl FabricGenerator {
    /// Builds a generator for a catalog. All draws derive from `seed` under the
    /// `"request-fabric"` label (one child stream per endpoint), so the legacy
    /// simulation streams never observe the fabric's consumption.
    #[must_use]
    pub fn new(seed: u64, catalog: &EndpointCatalog, config: RequestFabricConfig) -> Self {
        // The diurnal patterns replicate the simulator's construction exactly (same
        // derivation label, same draw order) so the fabric's demand curve is in phase
        // with the quantum-based path driving the physics.
        let mut pattern_rng = SimRng::seed_from(seed).derive("endpoint-patterns");
        let fabric_root = SimRng::seed_from(seed).derive("request-fabric");
        let endpoints = catalog
            .endpoints()
            .iter()
            .map(|endpoint| GeneratorEndpoint {
                peak_requests_per_minute: endpoint.peak_requests_per_minute,
                pattern: DiurnalPattern::interactive(seed ^ endpoint.id.0)
                    .with_peak_hour(pattern_rng.uniform(10.0, 20.0)),
                rng: fabric_root.derive(&format!("endpoint-{}", endpoint.id.0)),
            })
            .collect();
        Self { config, shape: RequestShape::default(), endpoints, next_id: 0 }
    }

    /// Requests generated so far.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.next_id
    }

    /// Pushes the step's requests (arrivals in `[now, now + step)`, millisecond
    /// timestamps) into `queue`. The scenario timeline's demand shaping multiplies the
    /// diurnal rate exactly as it does on the legacy serving path.
    pub fn generate_step(
        &mut self,
        now: SimTime,
        step: SimDuration,
        timeline: &ResolvedTimeline,
        queue: &mut EventQueue<FabricRequest>,
    ) {
        let step_minutes = step.as_minutes();
        let step_ms = step_minutes * MS_PER_MINUTE;
        let start_ms = now.as_minutes() * MS_PER_MINUTE;
        for (ordinal, endpoint) in self.endpoints.iter_mut().enumerate() {
            let id = workload::endpoints::EndpointId(ordinal as u64);
            let rate_per_minute = endpoint.peak_requests_per_minute
                * endpoint.pattern.load_at(now)
                * timeline.demand_scale_at(now, id)
                * self.config.rate_scale;
            let mean = rate_per_minute * step_minutes as f64;
            if mean <= 0.0 {
                continue;
            }
            let count = endpoint.rng.poisson(mean);
            for _ in 0..count {
                let offset_ms = endpoint.rng.uniform_usize(0, step_ms as usize) as u64;
                let (prompt, output) = self.shape.sample(&mut endpoint.rng);
                queue.push(
                    start_ms + offset_ms,
                    FabricRequest {
                        id: self.next_id,
                        endpoint: ordinal as u32,
                        prompt_tokens: prompt as u32,
                        output_tokens: output as u32,
                    },
                );
                self.next_id += 1;
            }
        }
    }
}

/// Validates a parsed request trace against a catalog of `endpoints` endpoints, then
/// enqueues every record as a [`FabricRequest`] whose id is its line ordinal. Nothing is
/// enqueued if any record names an endpoint outside the catalog.
///
/// # Errors
/// Returns the first out-of-catalog endpoint as [`TraceError::UnknownEndpoint`].
pub(crate) fn enqueue_trace(
    queue: &mut EventQueue<FabricRequest>,
    endpoints: usize,
    records: &[TraceRecord],
) -> Result<(), TraceError> {
    if let Some(bad) = records.iter().find(|r| r.endpoint >= endpoints as u64) {
        return Err(TraceError::UnknownEndpoint { endpoint: bad.endpoint });
    }
    for (line, record) in records.iter().enumerate() {
        queue.push(
            record.timestamp_ms,
            FabricRequest {
                id: line as u64,
                endpoint: record.endpoint as u32,
                prompt_tokens: record.prompt_tokens,
                output_tokens: record.output_tokens,
            },
        );
    }
    Ok(())
}

/// One site's serving side of the request fabric: the inbox event queue, one batch
/// scheduler per endpoint, and the per-request metrics block.
#[derive(Debug, Clone)]
pub struct RequestFabric {
    /// Self-generating mode (single-datacenter runs). Fleet cells leave this `None` and
    /// receive their stream through [`RequestFabric::deliver`].
    generator: Option<FabricGenerator>,
    queue: EventQueue<FabricRequest>,
    schedulers: Vec<BatchScheduler>,
    /// Unloaded analytic `(TTFT, TBT)` targets in seconds per endpoint — the `1×` point
    /// of the SLO attainment curves.
    targets: Vec<(f64, f64)>,
    /// Last step's KV/backlog pressure per endpoint, blended into the endpoint pool's
    /// demand pressure by the simulator.
    pressures: Vec<f64>,
    metrics: RequestMetrics,
    slo_multiplier: f64,
    /// Scratch for completions drained per endpoint per step.
    completions: Vec<BatchCompletion>,
    /// Scratch: each scheduler's fault counters at the start of the current step, to
    /// convert lifetime counters into this-window deltas for the pressure signal.
    fault_marks: Vec<SchedulerFaults>,
}

impl RequestFabric {
    /// Builds the serving fabric for a site. `generate` wires in a local
    /// [`FabricGenerator`] (single-datacenter mode); fleet cells pass `false` and get
    /// their stream delivered by the fleet loop.
    #[must_use]
    pub fn new(
        seed: u64,
        catalog: &EndpointCatalog,
        config: RequestFabricConfig,
        generate: bool,
    ) -> Self {
        let gpu = GpuHardware::a100();
        let perf = PerfModel::new(gpu);
        let targets: Vec<(f64, f64)> = catalog
            .endpoints()
            .iter()
            .map(|endpoint| {
                (
                    perf.ttft_unloaded_s(&endpoint.default_config),
                    perf.tbt_unloaded_s(&endpoint.default_config),
                )
            })
            .collect();
        let schedulers: Vec<BatchScheduler> = catalog
            .endpoints()
            .iter()
            .zip(&targets)
            .map(|(endpoint, &(ttft_target_s, _))| {
                let mut scheduler = BatchScheduler::new(endpoint.default_config, &gpu, 1);
                // Deadline shedding is opt-in: the per-endpoint admission deadline is
                // the headline SLO on the unloaded TTFT — a request that cannot start
                // inside it has already blown its TTFT SLO, so serving it only burns
                // KV budget the on-time queue needs.
                let shed_deadline_ms = if config.deadline_shedding {
                    ((config.slo_multiplier * ttft_target_s * 1000.0).ceil() as u64).max(1)
                } else {
                    0
                };
                scheduler.set_fault_policy(
                    shed_deadline_ms,
                    config.max_retries,
                    config.backoff_base_ms,
                );
                scheduler
            })
            .collect();
        Self {
            generator: generate.then(|| FabricGenerator::new(seed, catalog, config)),
            queue: EventQueue::new(),
            pressures: vec![0.0; schedulers.len()],
            schedulers,
            targets,
            metrics: RequestMetrics::new(),
            slo_multiplier: config.slo_multiplier,
            completions: Vec::new(),
            fault_marks: Vec::new(),
        }
    }

    /// Preloads a parsed request trace as the fabric's stream (replay mode). Fails with
    /// [`TraceError::UnknownEndpoint`] if a record names an endpoint outside the
    /// catalog, before anything is enqueued.
    ///
    /// # Errors
    /// Returns the first out-of-catalog endpoint as a typed error.
    pub fn load_trace(&mut self, records: &[TraceRecord]) -> Result<(), TraceError> {
        enqueue_trace(&mut self.queue, self.schedulers.len(), records)
    }

    /// Delivers one fleet-routed request into the site's inbox.
    pub fn deliver(&mut self, time_ms: u64, request: FabricRequest) {
        self.queue.push(time_ms, request);
    }

    /// Generates the step's local stream (no-op for fleet cells, which have no
    /// generator — their stream arrives through [`RequestFabric::deliver`]).
    pub fn generate_step(
        &mut self,
        now: SimTime,
        step: SimDuration,
        timeline: &ResolvedTimeline,
    ) {
        if let Some(generator) = self.generator.as_mut() {
            generator.generate_step(now, step, timeline, &mut self.queue);
        }
    }

    /// Serves the step: drains arrivals due in `[now, now + step)` into the per-endpoint
    /// schedulers (in global timestamp order), advances every scheduler to the step end,
    /// records completions against the endpoint's unloaded targets, and refreshes the
    /// per-endpoint pressure signals. `replicas[e]` is endpoint `e`'s currently placed
    /// instance count (zero keeps the scheduler at one virtual replica so traffic to an
    /// unplaced endpoint queues instead of vanishing).
    pub fn serve_step(&mut self, now: SimTime, step: SimDuration, replicas: &[u32]) {
        let end_ms = (now.as_minutes() + step.as_minutes()) * MS_PER_MINUTE;
        self.fault_marks.clear();
        for (ordinal, scheduler) in self.schedulers.iter_mut().enumerate() {
            let count = replicas.get(ordinal).copied().unwrap_or(0);
            // Mark fault counters before the resize: a shrink below the KV commitment
            // or the surviving decode slots preempts immediately, and those preemptions
            // belong to this window's distress signal.
            self.fault_marks.push(scheduler.faults());
            scheduler.set_replicas(count.max(1) as usize);
        }
        let schedulers = &mut self.schedulers;
        let lifecycle = &mut self.metrics.lifecycle;
        self.queue.drain_until(end_ms - 1, |time_ms, request| {
            if let Some(scheduler) = schedulers.get_mut(request.endpoint as usize) {
                lifecycle.arrived += 1;
                scheduler.offer(
                    request.id,
                    request.prompt_tokens as usize,
                    request.output_tokens as usize,
                    time_ms,
                );
            }
        });
        let headline = self.slo_multiplier;
        for ordinal in 0..self.schedulers.len() {
            self.completions.clear();
            self.schedulers[ordinal].advance_to(end_ms, &mut self.completions);
            let (ttft_target_s, tbt_target_s) = self.targets[ordinal];
            for done in &self.completions {
                let ttft_ms = done.ttft_ms() as f64;
                let tbt_ms = done.mean_tbt_ms();
                self.metrics.record(ttft_ms, tbt_ms, ttft_target_s, tbt_target_s);
                let met_headline = ttft_ms <= headline * ttft_target_s * 1000.0
                    && (tbt_ms <= 0.0 || tbt_ms <= headline * tbt_target_s * 1000.0);
                self.metrics.record_tokens(done.output_tokens as u64, met_headline);
            }
            self.schedulers[ordinal].note_pressure_window();
            // KV/backlog pressure alone under-reports saturation once deadline shedding
            // is active: sheds keep the queue short, so occupancy looks healthy while
            // requests are being sacrificed. Fold this window's lifecycle distress
            // (sheds + preemptions, as a fraction of the window's outcomes) into the
            // signal so saturation stays visible — past 1.0, fleet request routing
            // diverts new arrivals away from the site. Failure-free windows have zero
            // distress, leaving the legacy signal untouched.
            let mark = self.fault_marks[ordinal];
            let faults = self.schedulers[ordinal].faults();
            let lost = (faults.shed - mark.shed) + (faults.preemptions - mark.preemptions);
            let mut pressure = self.schedulers[ordinal].pressure();
            if lost > 0 {
                let outcomes = lost + self.completions.len() as u64;
                let distress = lost as f64 / outcomes as f64;
                pressure = pressure.max(1.0 + distress.min(0.5));
            }
            self.pressures[ordinal] = pressure;
        }
    }

    /// Endpoint `e`'s KV/backlog pressure after the last served step (`0.0` for unknown
    /// ordinals).
    #[must_use]
    pub fn pressure(&self, endpoint: usize) -> f64 {
        self.pressures.get(endpoint).copied().unwrap_or(0.0)
    }

    /// The metrics recorded so far.
    #[must_use]
    pub fn metrics(&self) -> &RequestMetrics {
        &self.metrics
    }

    /// The headline SLO multiplier attainment is quoted at.
    #[must_use]
    pub fn slo_multiplier(&self) -> f64 {
        self.slo_multiplier
    }

    /// Takes the metrics block out of the fabric (end-of-run report assembly),
    /// folding every scheduler's fault counters into the lifecycle block first.
    /// Requests still queued or mid-decode at the horizon have no latency sample
    /// but are counted in `lifecycle.in_flight_at_horizon`, so the conservation
    /// identity `arrived == completed + timeouts + shed + in_flight_at_horizon`
    /// holds exactly.
    #[must_use]
    pub fn take_metrics(&mut self) -> RequestMetrics {
        for scheduler in &self.schedulers {
            let faults = scheduler.faults();
            let lifecycle = &mut self.metrics.lifecycle;
            lifecycle.preemptions += faults.preemptions;
            lifecycle.evicted_tokens += faults.evicted_tokens;
            lifecycle.wasted_prefill_tokens += faults.wasted_prefill_tokens;
            lifecycle.wasted_decode_tokens += faults.wasted_decode_tokens;
            lifecycle.retries += faults.retries;
            lifecycle.timeouts += faults.timeouts;
            lifecycle.shed += faults.shed;
            lifecycle.in_flight_at_horizon +=
                (scheduler.queue_len() + scheduler.running_len()) as u64;
        }
        std::mem::take(&mut self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;

    fn catalog() -> EndpointCatalog {
        ExperimentConfig::small_smoke_test().endpoint_catalog()
    }

    fn timeline() -> ResolvedTimeline {
        ExperimentConfig::small_smoke_test().resolved_timeline()
    }

    #[test]
    fn generator_is_deterministic_and_stays_inside_the_step_window() {
        let run = |rate_scale: f64| {
            let config = RequestFabricConfig {
                rate_scale,
                ..RequestFabricConfig::default()
            };
            let mut generator = FabricGenerator::new(42, &catalog(), config);
            let mut queue = EventQueue::new();
            let timeline = timeline();
            for minute in [0u64, 5, 10] {
                generator.generate_step(
                    SimTime::from_minutes(minute),
                    SimDuration::from_minutes(5),
                    &timeline,
                    &mut queue,
                );
            }
            let mut events = Vec::new();
            queue.drain_until(u64::MAX, |t, r| events.push((t, r)));
            events
        };
        let events = run(1.0);
        assert!(!events.is_empty(), "the smoke catalog generates traffic");
        assert!(events.windows(2).all(|p| p[0].0 <= p[1].0), "drained in time order");
        assert!(events.iter().all(|(t, _)| *t < 15 * MS_PER_MINUTE));
        assert!(events.iter().all(|(_, r)| {
            let total = r.prompt_tokens as usize + r.output_tokens as usize;
            r.prompt_tokens >= 1 && r.output_tokens >= 1 && total <= 8192
        }));
        // Ids are the queue's FIFO tie-break witness: same-run regeneration is identical.
        assert_eq!(events, run(1.0));
        // Ids are push order, so same-millisecond arrivals must drain with ascending ids.
        // A dense stream makes such ties common.
        let dense = run(100.0);
        let ties: Vec<_> = dense.windows(2).filter(|p| p[0].0 == p[1].0).collect();
        assert!(ties.len() > 100, "only {} tied pairs", ties.len());
        assert!(ties.iter().all(|p| p[0].1.id < p[1].1.id));
    }

    #[test]
    fn rate_scale_scales_the_generated_volume() {
        let volume = |scale: f64| {
            let mut generator = FabricGenerator::new(
                42,
                &catalog(),
                RequestFabricConfig { rate_scale: scale, ..RequestFabricConfig::default() },
            );
            let mut queue = EventQueue::new();
            let timeline = timeline();
            for minute in (0..120).step_by(5) {
                generator.generate_step(
                    SimTime::from_minutes(minute),
                    SimDuration::from_minutes(5),
                    &timeline,
                    &mut queue,
                );
            }
            generator.generated()
        };
        let base = volume(1.0);
        let scaled = volume(3.0);
        assert!(base > 0);
        assert!(
            scaled as f64 > base as f64 * 2.0,
            "3x rate scale must roughly triple volume: {base} -> {scaled}"
        );
    }

    #[test]
    fn fabric_serves_generated_traffic_and_records_metrics() {
        let catalog = catalog();
        let timeline = timeline();
        let mut fabric =
            RequestFabric::new(42, &catalog, RequestFabricConfig::default(), true);
        let replicas = vec![2u32; catalog.len()];
        for minute in (0..120).step_by(5) {
            let now = SimTime::from_minutes(minute);
            let step = SimDuration::from_minutes(5);
            fabric.generate_step(now, step, &timeline);
            fabric.serve_step(now, step, &replicas);
        }
        let metrics = fabric.metrics();
        assert!(metrics.completed > 0, "two hours of traffic must complete requests");
        assert!(metrics.ttft.total() == metrics.completed);
        assert!(metrics.attainment_at(5.0) > 0.0);
        assert!((0..catalog.len()).any(|e| fabric.pressure(e) > 0.0));
    }

    #[test]
    fn trace_replay_validates_endpoints_before_enqueueing() {
        let catalog = catalog();
        let mut fabric =
            RequestFabric::new(42, &catalog, RequestFabricConfig::default(), false);
        let bad = vec![TraceRecord {
            timestamp_ms: 0,
            endpoint: catalog.len() as u64 + 5,
            prompt_tokens: 128,
            output_tokens: 16,
        }];
        assert_eq!(
            fabric.load_trace(&bad),
            Err(TraceError::UnknownEndpoint { endpoint: catalog.len() as u64 + 5 })
        );
        let good = vec![
            TraceRecord { timestamp_ms: 0, endpoint: 0, prompt_tokens: 128, output_tokens: 16 },
            TraceRecord { timestamp_ms: 900, endpoint: 1, prompt_tokens: 64, output_tokens: 8 },
        ];
        fabric.load_trace(&good).expect("in-catalog endpoints load");
        fabric.serve_step(SimTime::ZERO, SimDuration::from_minutes(5), &[1, 1]);
        assert_eq!(fabric.metrics().completed, 2);
    }
}
