//! Criterion micro-benchmarks for the VM allocator: one placement decision on a partially
//! occupied 80-server cluster, Baseline vs TAPAS.

use criterion::{criterion_group, criterion_main, Criterion};
use dc_sim::engine::Datacenter;
use dc_sim::ids::ServerId;
use dc_sim::topology::LayoutConfig;
use llm_sim::hardware::GpuHardware;
use simkit::time::{SimDuration, SimTime};
use std::hint::black_box;
use tapas::placement::{PlacementPlanner, PlacementRequest, TapasPlacement};
use tapas::profiles::ProfileStore;
use tapas::state::ClusterState;
use workload::endpoints::EndpointId;
use workload::vm::{IaasCustomerId, Vm, VmId, VmKind};

fn vm(id: u64, saas: bool) -> Vm {
    Vm {
        id: VmId(id),
        kind: if saas {
            VmKind::Saas { endpoint: EndpointId(0) }
        } else {
            VmKind::Iaas { customer: IaasCustomerId(0) }
        },
        arrival: SimTime::ZERO,
        lifetime: SimDuration::from_days(14),
    }
}

fn bench_allocator(c: &mut Criterion) {
    let layout = LayoutConfig::real_cluster_two_rows().build();
    let dc = Datacenter::new(layout.clone(), 42);
    let profiles = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());
    let mut state = ClusterState::with_layout(&layout);
    for i in 0..50u64 {
        state.place(vm(i, i % 2 == 0), ServerId::new(i as usize), 0.8, None).unwrap();
    }
    let request = PlacementRequest { vm: vm(999, true), predicted_peak_load: 0.85 };

    c.bench_function("placement_baseline", |b| b.iter(|| black_box(&state).first_free()));
    // The state does not change between iterations, so one planner stays in sync, as the
    // simulator keeps it.
    let policy = TapasPlacement::default();
    let mut planner = PlacementPlanner::new(&state, &layout, &profiles, policy.config.design);
    c.bench_function("placement_tapas_80_servers", |b| {
        b.iter(|| policy.place_with(black_box(&request), &state, &layout, &profiles, &mut planner))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_allocator
}
criterion_main!(benches);
