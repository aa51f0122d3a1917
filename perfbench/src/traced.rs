//! The traced run: the workload's real fleet is stepped through `FleetSimulator::step`
//! (one span per step), and between steps the benchmark drives a shadow of every layer
//! through that layer's public entry points, in the order `FleetSimulator::step` calls
//! them, timing each call site from here. Spans and counts live in memory and are
//! written out as one JSON line at the end.
//!
//! Cells are private to the fleet, so the shadow rebuilds each layer's inputs from
//! public APIs. Where the real input cannot be seen from outside, a stated substitute
//! is used:
//!
//! * routing signals are the real fleet's `signals()` before each step, with the
//!   step's grid price injected from the site timeline, exactly as the fleet does;
//! * per-endpoint replica counts (for `serve_step` and the failover capacity) are the
//!   site catalog's `vm_count` minus the timeline's failed replicas, not the placed
//!   count;
//! * the router and configurator see one fixed pool of `vm_count` instances per
//!   endpoint, on servers striding the layout, not the placed instances;
//! * physics runs every server at the site's last reported load (`dc_load`);
//! * the hierarchy call repeats the assessment physics already made, on its server
//!   powers, so it is a child span of physics, not extra fleet work;
//! * the batch layer is a second, direct drive of `BatchScheduler`s fed the same
//!   requests as the shadow `RequestFabric`, so `batch.*` and `metrics.record_ns` are
//!   child spans of `fabric.serve_step`.

use crate::workloads::{self, Shape, Workload};
use cluster_sim::experiment::{FleetConfig, RequestFabricConfig};
use cluster_sim::fabric::{FabricGenerator, FabricRequest, RequestFabric, MS_PER_MINUTE};
use cluster_sim::fleet::FleetSimulator;
use cluster_sim::metrics::RequestMetrics;
use cluster_sim::scenario::ResolvedTimeline;
use dc_sim::engine::{Datacenter, StepInput, StepWorkspace};
use dc_sim::ids::ServerId;
use dc_sim::power::hierarchy::{CapacityState, HierarchyScratch, PowerAssessment};
use dc_sim::weather::WeatherModel;
use llm_sim::batch::{BatchCompletion, BatchScheduler};
use llm_sim::config::InstanceConfig;
use llm_sim::hardware::GpuHardware;
use llm_sim::perf::PerfModel;
use llm_sim::request::{CustomerId, InferenceRequest, RequestId};
use simkit::queue::EventQueue;
use simkit::rng::SimRng;
use simkit::time::{SimClock, SimTime};
use simkit::units::{Celsius, CubicFeetPerMinute, Kilowatts, Watts};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tapas::configurator::{InstanceConfigurator, InstanceLimits};
use tapas::geo::{GeoPlacement, SiteSignals};
use tapas::placement::{PlacementPlanner, PlacementRequest, TapasPlacement};
use tapas::profiles::ProfileStore;
use tapas::routing::{
    CandidateView, PreparedRoutingContext, RecentWindow, RouterScratch, RoutingContext, TapasRouter,
};
use tapas::state::ClusterState;
use workload::endpoints::{EndpointCatalog, EndpointId};
use workload::iaas::IaasLoadModel;
use workload::vm::{Vm, VmId, VmKind};

/// Accumulated wall time of one span name and the operations it covered.
#[derive(Debug, Default, Clone, Copy)]
struct Span {
    total: Duration,
    ops: u64,
}

impl Span {
    fn add(&mut self, start: Instant, ops: u64) {
        self.total += start.elapsed();
        self.ops += ops;
    }

    fn secs(&self) -> f64 {
        self.total.as_secs_f64()
    }

    /// Mean nanoseconds per operation (0 when the span covered none).
    fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.total.as_nanos() as f64 / self.ops as f64
        }
    }
}

/// Every span and counter of the traced run.
#[derive(Debug, Default)]
struct Trace {
    step_ms: Vec<f64>,
    // Top-level spans, in `FleetSimulator::step` order.
    geo_vm: Span,
    generate: Span,
    fleet_drain: Span,
    geo_request: Span,
    deliver: Span,
    placement: Span,
    router: Span,
    serve_step: Span,
    configurator: Span,
    physics: Span,
    // Child spans (repeat work a top-level span already covers).
    hierarchy: Span,
    preload: Span,
    inbox_push: Span,
    inbox_drain: Span,
    offer: Span,
    advance: Span,
    record: Span,
    queue_peak_len: usize,
    placed: u64,
    rejected: u64,
    reconfigurations: u64,
    server_steps: u64,
    batch_samples: u64,
    running_sum: f64,
    kv_occupancy_sum: f64,
    kv_committed_sum: f64,
    queue_lens: Vec<u32>,
    completions: u64,
    decode_tokens: u64,
}

impl Trace {
    fn attributed(&self) -> Duration {
        [
            self.geo_vm,
            self.generate,
            self.fleet_drain,
            self.geo_request,
            self.deliver,
            self.placement,
            self.router,
            self.serve_step,
            self.configurator,
            self.physics,
        ]
        .iter()
        .map(|s| s.total)
        .sum()
    }
}

/// One endpoint's shadow instance pool, as struct-of-arrays router columns.
#[derive(Debug, Default)]
struct Pool {
    vm: Vec<VmId>,
    server: Vec<ServerId>,
    outstanding: Vec<u32>,
    utilization: Vec<f64>,
    in_transition: Vec<bool>,
    recent: Vec<RecentWindow>,
    config: Vec<InstanceConfig>,
    risky: Vec<bool>,
}

impl Pool {
    fn view(&self) -> CandidateView<'_> {
        CandidateView {
            vm: &self.vm,
            server: &self.server,
            outstanding: &self.outstanding,
            utilization: &self.utilization,
            in_transition: &self.in_transition,
            recent: &self.recent,
        }
    }
}

/// The direct drive of one site's batch schedulers, mirroring `RequestFabric`.
struct BatchDrive {
    inbox: EventQueue<FabricRequest>,
    schedulers: Vec<BatchScheduler>,
    targets: Vec<(f64, f64)>,
    metrics: RequestMetrics,
    completions: Vec<BatchCompletion>,
    due: Vec<(u64, FabricRequest)>,
    slo_multiplier: f64,
}

impl BatchDrive {
    fn new(catalog: &EndpointCatalog, config: RequestFabricConfig) -> Self {
        let gpu = GpuHardware::a100();
        let perf = PerfModel::new(gpu);
        let mut targets = Vec::new();
        let mut schedulers = Vec::new();
        for endpoint in catalog.endpoints() {
            let ttft = perf.ttft_unloaded_s(&endpoint.default_config);
            targets.push((ttft, perf.tbt_unloaded_s(&endpoint.default_config)));
            let mut scheduler = BatchScheduler::new(endpoint.default_config, &gpu, 1);
            let shed_deadline_ms = if config.deadline_shedding {
                ((config.slo_multiplier * ttft * 1000.0).ceil() as u64).max(1)
            } else {
                0
            };
            scheduler.set_fault_policy(
                shed_deadline_ms,
                config.max_retries,
                config.backoff_base_ms,
            );
            schedulers.push(scheduler);
        }
        Self {
            inbox: EventQueue::new(),
            schedulers,
            targets,
            metrics: RequestMetrics::new(),
            completions: Vec::new(),
            due: Vec::new(),
            slo_multiplier: config.slo_multiplier,
        }
    }

    /// The same step `RequestFabric::serve_step` makes, with each layer call timed.
    fn serve_step(&mut self, end_ms: u64, replicas: &[u32], trace: &mut Trace) {
        for (scheduler, &count) in self.schedulers.iter_mut().zip(replicas) {
            scheduler.set_replicas(count.max(1) as usize);
        }
        self.due.clear();
        let start = Instant::now();
        let due = &mut self.due;
        self.inbox
            .drain_until(end_ms - 1, |time, request| due.push((time, request)));
        trace.inbox_drain.add(start, self.due.len() as u64);
        let start = Instant::now();
        for &(time, request) in &self.due {
            if let Some(scheduler) = self.schedulers.get_mut(request.endpoint as usize) {
                scheduler.offer(
                    request.id,
                    request.prompt_tokens as usize,
                    request.output_tokens as usize,
                    time,
                );
            }
        }
        trace.offer.add(start, self.due.len() as u64);
        for (ordinal, scheduler) in self.schedulers.iter_mut().enumerate() {
            self.completions.clear();
            let start = Instant::now();
            scheduler.advance_to(end_ms, &mut self.completions);
            trace.advance.add(start, 1);
            let (ttft_target_s, tbt_target_s) = self.targets[ordinal];
            let headline = self.slo_multiplier;
            let start = Instant::now();
            for done in &self.completions {
                let ttft_ms = done.ttft_ms() as f64;
                let tbt_ms = done.mean_tbt_ms();
                self.metrics
                    .record(ttft_ms, tbt_ms, ttft_target_s, tbt_target_s);
                let met = ttft_ms <= headline * ttft_target_s * 1000.0
                    && (tbt_ms <= 0.0 || tbt_ms <= headline * tbt_target_s * 1000.0);
                self.metrics.record_tokens(done.output_tokens as u64, met);
            }
            trace.record.add(start, self.completions.len() as u64);
            scheduler.note_pressure_window();
            trace.completions += self.completions.len() as u64;
            trace.decode_tokens += self
                .completions
                .iter()
                .map(|c| c.output_tokens as u64)
                .sum::<u64>();
            let capacity = scheduler.kv_capacity().max(1) as f64;
            trace.batch_samples += 1;
            trace.running_sum += scheduler.running_len() as f64;
            trace.kv_occupancy_sum += scheduler.kv_in_use() as f64 / capacity;
            trace.kv_committed_sum += scheduler.kv_committed() as f64 / capacity;
            trace.queue_lens.push(scheduler.queue_len() as u32);
        }
    }
}

/// One site's shadow layers.
struct Site {
    timeline: ResolvedTimeline,
    catalog: EndpointCatalog,
    replicas: Vec<u32>,
    fabric: Option<RequestFabric>,
    batch: Option<BatchDrive>,
    dc: Datacenter,
    input: StepInput,
    workspace: StepWorkspace,
    weather: WeatherModel,
    capacity: CapacityState,
    assessment: PowerAssessment,
    hierarchy_scratch: HierarchyScratch,
    profiles: Arc<ProfileStore>,
    state: ClusterState,
    planner: PlacementPlanner,
    iaas: IaasLoadModel,
    pools: Vec<Pool>,
    instances_per_row: Vec<u32>,
    context: RoutingContext,
    prepared: PreparedRoutingContext,
    router_scratch: RouterScratch,
    rng: SimRng,
    arrivals: Vec<Vm>,
}

impl Site {
    fn new(config: &FleetConfig, site: usize) -> Self {
        let experiment = config.site_experiment(site);
        let catalog = experiment.endpoint_catalog();
        let dc = Datacenter::new(experiment.layout.build(), experiment.seed);
        let profiles = ProfileStore::offline_profiling_shared(&dc, &GpuHardware::a100());
        let state = ClusterState::with_layout(dc.layout());
        let planner = PlacementPlanner::new(
            &state,
            dc.layout(),
            &profiles,
            TapasPlacement::default().config.design,
        );
        let server_count = dc.layout().server_count();
        let mut pools = Vec::new();
        let mut instances_per_row = vec![0u32; dc.layout().rows().len()];
        let mut next = 0usize;
        for endpoint in catalog.endpoints() {
            let mut pool = Pool::default();
            for _ in 0..endpoint.vm_count {
                let server = ServerId::new((next * 7) % server_count);
                instances_per_row[profiles.server(server).row.index()] += 1;
                pool.vm.push(VmId(next as u64));
                pool.server.push(server);
                pool.outstanding.push(0);
                pool.utilization.push(0.0);
                pool.in_transition.push(false);
                pool.recent.push(RecentWindow::new());
                pool.config.push(endpoint.default_config);
                next += 1;
            }
            pools.push(pool);
        }
        let router = TapasRouter::default();
        let context = RoutingContext {
            outside_temp: Celsius::new(20.0),
            dc_load: 0.5,
            row_power: vec![Kilowatts::ZERO; dc.layout().rows().len()],
            aisle_airflow: vec![CubicFeetPerMinute::ZERO; dc.layout().aisles().len()],
        };
        let prepared = PreparedRoutingContext::new(&context, &router.config, &profiles);
        let fabric_config = experiment.request_fabric;
        Self {
            timeline: experiment.resolved_timeline(),
            replicas: vec![0; catalog.len()],
            fabric: fabric_config
                .map(|fc| RequestFabric::new(experiment.seed, &catalog, fc, false)),
            batch: fabric_config.map(|fc| BatchDrive::new(&catalog, fc)),
            input: StepInput::uniform_load(dc.layout(), Celsius::new(20.0), 0.5),
            workspace: StepWorkspace::for_topology(Arc::clone(dc.topology())),
            weather: WeatherModel::new(experiment.climate, experiment.seed),
            capacity: CapacityState::healthy(),
            assessment: PowerAssessment::empty(),
            hierarchy_scratch: HierarchyScratch::default(),
            iaas: IaasLoadModel::new(12, experiment.seed),
            rng: SimRng::seed_from(experiment.seed).derive("perfbench.router"),
            arrivals: Vec::new(),
            catalog,
            dc,
            profiles,
            state,
            planner,
            pools,
            instances_per_row,
            context,
            prepared,
            router_scratch: RouterScratch::default(),
        }
    }

    fn refresh_replicas(&mut self, now: SimTime) {
        for (ordinal, endpoint) in self.catalog.endpoints().iter().enumerate() {
            let failed = self
                .timeline
                .failed_replicas_at(now, EndpointId(ordinal as u64));
            self.replicas[ordinal] = (endpoint.vm_count as u32).saturating_sub(failed);
        }
    }

    /// Retires expired VMs and places this step's routed arrivals.
    fn place(&mut self, now: SimTime, trace: &mut Trace) {
        let placement = TapasPlacement::default();
        let start = Instant::now();
        for retired in self.state.retire_expired(now) {
            self.planner
                .on_remove(retired.server, retired.predicted_peak_load, &self.profiles);
        }
        let mut attempts = 0;
        for vm in self.arrivals.drain(..) {
            if vm.departure() <= now {
                continue;
            }
            attempts += 1;
            let (load, config) = match vm.kind {
                VmKind::Iaas { customer } => (self.iaas.predicted_peak(customer), None),
                VmKind::Saas { endpoint } => {
                    (0.9, self.catalog.get(endpoint).map(|e| e.default_config))
                }
            };
            let request = PlacementRequest {
                vm,
                predicted_peak_load: load,
            };
            let layout = self.dc.layout();
            match placement.place_with(
                &request,
                &self.state,
                layout,
                &self.profiles,
                &mut self.planner,
            ) {
                Some(server) => {
                    self.state
                        .place(vm, server, load, config)
                        .expect("chosen server is free");
                    self.planner.on_place(server, load, &self.profiles);
                    trace.placed += 1;
                }
                None => trace.rejected += 1,
            }
        }
        trace.placement.add(start, attempts);
    }

    /// Routes each endpoint's step load in quanta, as the cell's quantum router does.
    fn route(&mut self, outside: Celsius, dc_load: f64, trace: &mut Trace) {
        let router = TapasRouter::default();
        for pool in &mut self.pools {
            pool.utilization.fill(dc_load);
            pool.outstanding.fill(0);
        }
        let start = Instant::now();
        self.context.outside_temp = outside;
        self.context.dc_load = dc_load;
        self.prepared
            .refresh(&self.context, &router.config, &self.profiles);
        self.router_scratch.begin_step(self.profiles.server_count());
        let mut routes = 0u64;
        for pool in &mut self.pools {
            if pool.vm.is_empty() {
                continue;
            }
            let mut risky = std::mem::take(&mut pool.risky);
            router.fill_risk_flags(
                &pool.view(),
                &self.profiles,
                &self.prepared,
                &mut self.router_scratch,
                &mut risky,
            );
            pool.risky = risky;
            let quanta = (pool.vm.len() * 2).clamp(1, 64);
            for _ in 0..quanta {
                let customer = CustomerId(self.rng.next_u64() % 64);
                let request = InferenceRequest {
                    id: RequestId(routes),
                    customer,
                    arrival: SimTime::ZERO,
                    prompt_tokens: 512,
                    output_tokens: 200,
                };
                routes += 1;
                let Some(i) = router.route_prescored(&request, &pool.view(), &pool.risky) else {
                    continue;
                };
                pool.utilization[i] = (pool.utilization[i] + 0.25).min(1.5);
                pool.outstanding[i] += 1;
                pool.recent[i].push(customer);
                pool.risky[i] = router.candidate_risk(
                    pool.server[i],
                    pool.utilization[i],
                    &self.profiles,
                    &self.prepared,
                    &mut self.router_scratch,
                );
            }
        }
        trace.router.add(start, routes);
    }

    /// Selects a configuration for every shadow instance within its headroom.
    fn configure(&mut self, now: SimTime, outside: Celsius, dc_load: f64, trace: &mut Trace) {
        let configurator = InstanceConfigurator::new(0.9);
        let power_cap = self.timeline.power_cap_at(now);
        let start = Instant::now();
        let mut selects = 0u64;
        for pool in &mut self.pools {
            for i in 0..pool.vm.len() {
                let profile = self.profiles.server(pool.server[i]);
                let inlet = profile.predicted_inlet(outside, dc_load);
                let max_gpu_power =
                    profile.gpu_power_budget(inlet, self.profiles.thermal_headroom_target);
                let row = profile.row;
                let row_budget = self.profiles.row_budget(row) * power_cap;
                let row_now = self.context.row_power[row.index()];
                let headroom = row_budget * 0.97 - row_now;
                let utilization = pool.utilization[i];
                let current_power = profile.predicted_power(utilization);
                let max_server_power = if headroom.value() >= 0.0 {
                    let share = headroom / f64::from(self.instances_per_row[row.index()].max(1));
                    Kilowatts::new((current_power + share).value().max(0.3))
                } else {
                    let scale = (row_budget * 0.97).value() / row_now.value();
                    Kilowatts::new((current_power.value() * scale).max(0.3))
                };
                let goodput = self
                    .profiles
                    .profile_for(&pool.config[i])
                    .map_or(1000.0, |p| p.goodput_tokens_per_s);
                let limits = InstanceLimits {
                    max_gpu_power: Watts::new(max_gpu_power.value().max(1.0)),
                    max_server_power,
                    demand_tokens_per_s: utilization * goodput,
                };
                let decision = configurator.select(&pool.config[i], &limits, &self.profiles);
                selects += 1;
                if decision.config != pool.config[i] {
                    pool.config[i] = decision.config;
                    trace.reconfigurations += 1;
                }
            }
        }
        trace.configurator.add(start, selects);
    }

    /// One physics step at the site's reported load, plus the hierarchy child span.
    fn physics(&mut self, now: SimTime, outside: Celsius, dc_load: f64, trace: &mut Trace) {
        let servers = self.dc.layout().server_count();
        for server in 0..servers {
            self.input.activity.set_uniform(server, dc_load);
        }
        self.input.outside_temp = outside;
        self.timeline
            .failures()
            .state_into(now, &mut self.input.failures);
        self.input.power_cap = self.timeline.power_cap_at(now);
        let start = Instant::now();
        self.dc.evaluate_into(&self.input, &mut self.workspace);
        trace.physics.add(start, 1);
        trace.server_steps += servers as u64;

        let layout = self.dc.layout();
        self.input
            .failures
            .capacity_state_into(layout, &mut self.capacity);
        if self.input.power_cap < 1.0 {
            self.capacity.apply_power_cap(
                self.input.power_cap,
                layout.upses().len(),
                layout.rows().len(),
            );
        }
        let start = Instant::now();
        self.dc.hierarchy().assess_into(
            &self.workspace.outcome.server_power,
            &self.capacity,
            &mut self.assessment,
            &mut self.hierarchy_scratch,
        );
        trace.hierarchy.add(start, 1);

        let outcome = &self.workspace.outcome;
        for (carry, level) in self
            .context
            .row_power
            .iter_mut()
            .zip(outcome.power.rows.values())
        {
            *carry = level.draw;
        }
        for (carry, aisle) in self
            .context
            .aisle_airflow
            .iter_mut()
            .zip(outcome.aisle_airflow.values())
        {
            *carry = aisle.demand;
        }
    }
}

/// Runs the traced repetition and returns its JSON line: the per-layer metrics plus
/// the raw counts `run.py` needs for its checks.
pub fn trace_once(workload: Workload, seed: u64) -> String {
    let config = workload.fleet_config(seed);
    let mut trace = Trace::default();
    let mut fleet_queue: EventQueue<FabricRequest> = EventQueue::new();
    let mut shape = Shape::default();
    let (mut parse_s, mut records, mut csv_bytes) = (0.0, 0u64, 0usize);
    let mut fleet = if workload == Workload::TraceReplay {
        let csv = workloads::trace_csv(seed, config.base.endpoint_catalog().len());
        csv_bytes = csv.len();
        let start = Instant::now();
        let parsed = workload::trace::parse_csv(&csv).expect("the generated trace parses");
        parse_s = start.elapsed().as_secs_f64();
        drop(csv);
        records = parsed.len() as u64;
        // The fleet preloads the whole horizon into its queue; the shadow does the same.
        let start = Instant::now();
        for (line, r) in parsed.iter().enumerate() {
            fleet_queue.push(
                r.timestamp_ms,
                FabricRequest {
                    id: line as u64,
                    endpoint: r.endpoint as u32,
                    prompt_tokens: r.prompt_tokens,
                    output_tokens: r.output_tokens,
                },
            );
        }
        trace.preload.add(start, records);
        trace.queue_peak_len = fleet_queue.len();
        shape = Shape::of_records(&parsed);
        FleetSimulator::with_request_trace(config.clone(), &parsed).expect("in-catalog endpoints")
    } else {
        FleetSimulator::new(config.clone())
    };

    let catalog = config.base.endpoint_catalog();
    let mut stream: VecDeque<Vm> = config.base.vm_stream(&catalog, config.arrival_scale).into();
    let mut generator = match (workload, config.base.request_fabric) {
        (Workload::FabricChaos, Some(mut fabric_config)) => {
            fabric_config.rate_scale *= config.arrival_scale;
            Some(FabricGenerator::new(
                config.base.seed,
                &catalog,
                fabric_config,
            ))
        }
        _ => None,
    };
    let mut geo = GeoPlacement::default();
    geo.set_request_endpoints(catalog.len());
    let mut sites: Vec<Site> = (0..config.sites.len())
        .map(|s| Site::new(&config, s))
        .collect();
    let step = config.base.step;
    let mut routed: Vec<(u64, FabricRequest, usize)> = Vec::new();
    let mut signals: Vec<SiteSignals> = Vec::new();
    let base_timeline = config.base.resolved_timeline();

    let mut clock = SimClock::new(step, config.base.duration);
    loop {
        let now = clock.now();
        signals.clear();
        signals.extend_from_slice(fleet.signals());
        for (signal, site) in signals.iter_mut().zip(&sites) {
            signal.grid_price_per_mwh = site.timeline.grid_price_at(now);
        }

        // The real step, one span.
        let start = Instant::now();
        fleet.step(now);
        trace.step_ms.push(start.elapsed().as_secs_f64() * 1e3);

        // 1. Geo VM split.
        geo.begin_step(sites.len());
        let start = Instant::now();
        let mut vms = 0;
        while stream.front().is_some_and(|vm| vm.arrival <= now) {
            let vm = stream.pop_front().expect("front checked");
            let site = geo.choose(&signals);
            sites[site].arrivals.push(vm);
            vms += 1;
        }
        trace.geo_vm.add(start, vms);

        // 1b. Fabric generation, fleet-queue drain, request routing and delivery.
        if let Some(generator) = generator.as_mut() {
            let before = generator.generated();
            let start = Instant::now();
            generator.generate_step(now, step, &base_timeline, &mut fleet_queue);
            trace.generate.add(start, generator.generated() - before);
            trace.queue_peak_len = trace.queue_peak_len.max(fleet_queue.len());
        }
        for site in &mut sites {
            site.refresh_replicas(now);
        }
        if !fleet_queue.is_empty() {
            for (ordinal, site) in sites.iter().enumerate() {
                geo.set_request_capacity(ordinal, &site.replicas);
            }
            let end_ms = (now.as_minutes() + step.as_minutes()) * MS_PER_MINUTE;
            routed.clear();
            let start = Instant::now();
            fleet_queue.drain_until(end_ms - 1, |time, request| routed.push((time, request, 0)));
            trace.fleet_drain.add(start, routed.len() as u64);
            if generator.is_some() {
                for (time, request, _) in &routed {
                    shape.add(*time, request.prompt_tokens, request.output_tokens);
                }
            }
            let start = Instant::now();
            for entry in &mut routed {
                entry.2 = geo.choose_request(&signals, entry.1.endpoint as usize);
            }
            trace.geo_request.add(start, routed.len() as u64);
            let start = Instant::now();
            for &(time, request, site) in &routed {
                if let Some(fabric) = sites[site].fabric.as_mut() {
                    fabric.deliver(time, request);
                }
            }
            trace.deliver.add(start, routed.len() as u64);
            let start = Instant::now();
            for &(time, request, site) in &routed {
                if let Some(batch) = sites[site].batch.as_mut() {
                    batch.inbox.push(time, request);
                }
            }
            trace.inbox_push.add(start, routed.len() as u64);
            for site in &sites {
                if let Some(batch) = &site.batch {
                    trace.queue_peak_len = trace.queue_peak_len.max(batch.inbox.len());
                }
            }
        }

        // 2. Cells, in the order a cell steps its layers.
        for (ordinal, site) in sites.iter_mut().enumerate() {
            let outside = Celsius::new(
                site.weather.outside_temp(now).value() + site.timeline.temp_offset_at(now),
            );
            let dc_load = signals[ordinal].dc_load.clamp(0.05, 1.0);
            site.place(now, &mut trace);
            site.route(outside, dc_load, &mut trace);
            if let Some(fabric) = site.fabric.as_mut() {
                let start = Instant::now();
                fabric.serve_step(now, step, &site.replicas);
                trace.serve_step.add(start, 1);
            }
            if let Some(batch) = site.batch.as_mut() {
                let end_ms = (now.as_minutes() + step.as_minutes()) * MS_PER_MINUTE;
                batch.serve_step(end_ms, &site.replicas, &mut trace);
            }
            site.configure(now, outside, dc_load, &mut trace);
            site.physics(now, outside, dc_load, &mut trace);
        }
        if clock.tick().is_none() {
            break;
        }
    }
    report(
        workload,
        &trace,
        &sites,
        generator.as_ref(),
        parse_s,
        records,
        csv_bytes,
        &shape,
    )
}

/// The value at the highest percentile (at most the 99th) that still has at least ten
/// samples beyond it, with that percentile.
fn tail(sorted: &[f64]) -> (f64, f64) {
    if sorted.is_empty() {
        return (0.0, 0.0);
    }
    let n = sorted.len();
    let p99 = ((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1;
    let index = p99.min(n.saturating_sub(11));
    (sorted[index], 100.0 * (index + 1) as f64 / n as f64)
}

#[allow(clippy::too_many_arguments)]
fn report(
    workload: Workload,
    trace: &Trace,
    sites: &[Site],
    generator: Option<&FabricGenerator>,
    parse_s: f64,
    records: u64,
    csv_bytes: usize,
    shape: &Shape,
) -> String {
    let mut steps = trace.step_ms.clone();
    steps.sort_by(f64::total_cmp);
    let p50 = if steps.is_empty() {
        0.0
    } else {
        steps[(steps.len() - 1) / 2]
    };
    let (tail_ms, tail_pct) = tail(&steps);
    let step_s: f64 = trace.step_ms.iter().sum::<f64>() / 1e3;
    let mut queue_lens = trace.queue_lens.clone();
    queue_lens.sort_unstable();
    let queue_p99 = queue_lens
        .get(((queue_lens.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(0);
    let samples = trace.batch_samples.max(1) as f64;
    let site_steps = trace.physics.ops.max(1) as f64;
    let generated = generator.map_or(0, FabricGenerator::generated);
    let pushes = records + generated + trace.inbox_push.ops;
    let pops = trace.fleet_drain.ops + trace.inbox_drain.ops;
    let push_s = trace.preload.secs() + trace.inbox_push.secs();
    let push_ops = trace.preload.ops + trace.inbox_push.ops;
    let drain_s = trace.fleet_drain.secs() + trace.inbox_drain.secs();
    let per = |secs: f64, ops: u64| {
        if ops == 0 {
            0.0
        } else {
            secs * 1e9 / ops as f64
        }
    };
    let metrics: Vec<(&str, f64)> = vec![
        ("fleet.step_ms_p50", p50),
        ("fleet.step_ms_tail", tail_ms),
        ("fleet.step_tail_pct", tail_pct),
        ("fleet.steps", trace.step_ms.len() as f64),
        ("fleet.preload_s", trace.preload.secs()),
        ("trace.parse_s", parse_s),
        ("trace.records", records as f64),
        (
            "trace.parse_mb_per_s",
            if parse_s > 0.0 {
                csv_bytes as f64 / 1e6 / parse_s
            } else {
                0.0
            },
        ),
        ("fabric.generate_s", trace.generate.secs()),
        ("fabric.generated", generated as f64),
        ("fabric.generate_ns_per_req", trace.generate.ns_per_op()),
        ("queue.pushes", pushes as f64),
        ("queue.pops", pops as f64),
        ("queue.peak_len", trace.queue_peak_len as f64),
        ("queue.push_ns", per(push_s, push_ops)),
        ("queue.drain_ns_per_event", per(drain_s, pops)),
        ("geo.requests_routed", trace.geo_request.ops as f64),
        ("geo.choose_request_ns", trace.geo_request.ns_per_op()),
        ("geo.vms_routed", trace.geo_vm.ops as f64),
        ("geo.choose_vm_ns", trace.geo_vm.ns_per_op()),
        ("fabric.deliver_ns", trace.deliver.ns_per_op()),
        ("fabric.serve_step_ms", trace.serve_step.ns_per_op() / 1e6),
        ("metrics.record_ns", trace.record.ns_per_op()),
        ("batch.offers", trace.offer.ops as f64),
        ("batch.offer_ns", trace.offer.ns_per_op()),
        ("batch.advance_s", trace.advance.secs()),
        ("batch.running_mean", trace.running_sum / samples),
        ("batch.kv_occupancy", trace.kv_occupancy_sum / samples),
        ("batch.kv_committed_frac", trace.kv_committed_sum / samples),
        ("batch.queue_len_p99", f64::from(queue_p99)),
        (
            "batch.decode_tokens_per_req",
            if trace.completions == 0 {
                0.0
            } else {
                trace.decode_tokens as f64 / trace.completions as f64
            },
        ),
        ("physics.step_us", trace.physics.secs() * 1e6 / site_steps),
        (
            "physics.ns_per_server",
            per(trace.physics.secs(), trace.server_steps),
        ),
        (
            "hierarchy.assess_us",
            trace.hierarchy.secs() * 1e6 / site_steps,
        ),
        ("router.routes", trace.router.ops as f64),
        ("router.route_ns", trace.router.ns_per_op()),
        ("configurator.selects", trace.configurator.ops as f64),
        ("configurator.select_ns", trace.configurator.ns_per_op()),
        (
            "configurator.reconfigurations",
            trace.reconfigurations as f64,
        ),
        ("placement.placed", trace.placed as f64),
        ("placement.rejected", trace.rejected as f64),
        ("placement.place_ns", trace.placement.ns_per_op()),
        (
            "trace.unattributed_s",
            step_s - trace.attributed().as_secs_f64(),
        ),
        ("trace.step_s", step_s),
    ];
    let mut out = String::from("{\"metrics\": {");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {value}");
    }
    // The shadow fabric and the direct batch drive serve the same requests; their
    // completion counts agree unless the shadow has drifted from `serve_step`.
    let shadow_completed: u64 = sites
        .iter()
        .filter_map(|s| s.fabric.as_ref())
        .map(|f| f.metrics().completed)
        .sum();
    let drive_completed: u64 = sites
        .iter()
        .filter_map(|s| s.batch.as_ref())
        .map(|b| b.metrics.completed)
        .sum();
    let _ = write!(
        out,
        "}}, \"workload\": \"{workload:?}\", \"shadow_completed\": {shadow_completed}, \"drive_completed\": {drive_completed}, \"shape\": {}}}",
        if shape.requests > 0 { shape.json() } else { "null".to_string() },
    );
    out
}
