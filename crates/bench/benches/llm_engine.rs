//! Criterion micro-benchmarks for the LLM substrate's analytic latency queries.

use criterion::{criterion_group, criterion_main, Criterion};
use llm_sim::config::InstanceConfig;
use llm_sim::hardware::GpuHardware;
use llm_sim::perf::PerfModel;
use std::hint::black_box;

fn bench_perf_model(c: &mut Criterion) {
    let config = InstanceConfig::default_70b();
    let perf = PerfModel::new(GpuHardware::a100());

    c.bench_function("perf_goodput_eval", |b| {
        b.iter(|| perf.goodput_tokens_per_s(black_box(&config)))
    });
    c.bench_function("perf_decode_step_eval", |b| {
        b.iter(|| perf.decode_step_time_s(black_box(&config), 32, 900))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_perf_model
}
criterion_main!(benches);
