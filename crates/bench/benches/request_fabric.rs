//! Criterion benchmarks for the request fabric: steady-state fabric-enabled fleet steps
//! at one and sixteen sites (generation + per-request geo routing + KV-bounded batch
//! serving riding on the full simulation step), and the continuous-batching scheduler in
//! isolation (offer + drain of a fixed request batch — the per-request hot path), and
//! the fabric's `EventQueue` in its two shapes: one unordered step window per step (the
//! fleet queue) and a time-ordered whole-horizon preload (trace replay).

use cluster_sim::experiment::{ExperimentConfig, FleetConfig, RequestFabricConfig};
use cluster_sim::fabric::{FabricRequest, MS_PER_MINUTE};
use cluster_sim::fleet::FleetSimulator;
use criterion::{criterion_group, criterion_main, Criterion};
use llm_sim::batch::BatchScheduler;
use llm_sim::config::InstanceConfig;
use llm_sim::hardware::GpuHardware;
use simkit::queue::EventQueue;
use simkit::rng::SimRng;
use simkit::time::SimTime;
use std::hint::black_box;
use tapas::policy::Policy;

fn fabric_base(rate_scale: f64) -> ExperimentConfig {
    let mut base = ExperimentConfig::real_cluster_hour(Policy::Tapas);
    base.duration = SimTime::from_hours(12);
    base.with_request_fabric(RequestFabricConfig {
        rate_scale,
        slo_multiplier: 5.0,
        ..RequestFabricConfig::default()
    })
}

fn bench_request_fabric(c: &mut Criterion) {
    // One 80-server site with the fabric on, primed past the placement wave: the
    // measured step covers stream generation, admission into the per-endpoint batch
    // schedulers and the serving iterations, on top of the legacy step.
    let mut single = FleetSimulator::new(FleetConfig::single_site(fabric_base(0.05)));
    single.step(SimTime::ZERO);
    single.step(SimTime::from_minutes(1));
    let now = SimTime::from_minutes(2);
    c.bench_function("fabric_step_1_site", |b| {
        b.iter(|| single.step(black_box(now)))
    });

    // Sixteen sites: adds fleet-wide generation and per-request geo routing across the
    // signal set, with each site serving its routed share.
    let mut fleet = FleetSimulator::new(FleetConfig::evaluation(fabric_base(0.05), 16));
    fleet.step(SimTime::ZERO);
    fleet.step(SimTime::from_minutes(1));
    c.bench_function("fabric_step_16_sites", |b| {
        b.iter(|| fleet.step(black_box(now)))
    });

    // The scheduler alone: offer 512 requests and drain them to completion — the
    // KV-admission and batching hot path with no simulation step around it.
    let gpu = GpuHardware::a100();
    let config = InstanceConfig::default_70b();
    let mut completions = Vec::new();
    c.bench_function("batch_scheduler_512_requests", |b| {
        b.iter(|| {
            let mut scheduler = BatchScheduler::new(config, &gpu, 4);
            for i in 0..512u64 {
                scheduler.offer(i, 512, 128, i * 40);
            }
            completions.clear();
            scheduler.advance_to(u64::MAX / 2, &mut completions);
            black_box(completions.len())
        })
    });
}

fn request(id: u64) -> FabricRequest {
    FabricRequest {
        id,
        endpoint: (id % 8) as u32,
        prompt_tokens: 512,
        output_tokens: 128,
    }
}

fn bench_event_queue(c: &mut Criterion) {
    // One fleet step window: 150k arrivals at uniform millisecond offsets inside a
    // 5-minute step (the fabric-chaos step volume), pushed out of order, then drained.
    const WINDOW_MS: usize = 5 * MS_PER_MINUTE as usize;
    let mut rng = SimRng::seed_from(14);
    let offsets: Vec<u64> = (0..150_000)
        .map(|_| rng.uniform_usize(0, WINDOW_MS) as u64)
        .collect();
    let mut window = EventQueue::new();
    c.bench_function("event_queue_step_window", |b| {
        b.iter(|| {
            for (id, &offset) in offsets.iter().enumerate() {
                window.push(offset, request(id as u64));
            }
            let mut checksum = 0u64;
            window.drain_until(u64::MAX, |time, request| checksum ^= time + request.id);
            black_box(checksum)
        })
    });

    // A trace preload: 1M time-ordered arrivals over a 6-hour horizon, drained in its
    // 72 five-minute windows.
    const EVENTS: u64 = 1_000_000;
    const WINDOWS: u64 = 72;
    let horizon_ms = WINDOWS * WINDOW_MS as u64;
    c.bench_function("event_queue_sorted_preload", |b| {
        b.iter(|| {
            let mut preload = EventQueue::new();
            for id in 0..EVENTS {
                preload.push(id * horizon_ms / EVENTS, request(id));
            }
            let mut checksum = 0u64;
            for window in 1..=WINDOWS {
                preload.drain_until(window * WINDOW_MS as u64 - 1, |time, request| {
                    checksum ^= time + request.id;
                });
            }
            black_box(checksum)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_request_fabric, bench_event_queue
}
criterion_main!(benches);
