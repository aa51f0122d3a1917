//! VM placement policies (§4.1, §4.5 "VM Allocator").
//!
//! The allocator is rule-based, in the spirit of Protean: a *validator* rule filters out
//! servers whose aisle or row would exceed its airflow or power provisioning if the new VM's
//! predicted peak load landed there (Eq. 3/4 with predicted values); a first *preference* rule
//! steers IaaS VMs toward cooler servers and SaaS VMs toward warmer servers (classified into
//! cold/medium/warm terciles of predicted peak GPU temperature); a second preference rule
//! keeps the IaaS/SaaS mix of each row balanced so the SaaS flexibility is spread across the
//! power/airflow domains. The Baseline allocator is thermal- and power-oblivious: it packs
//! VMs onto the lowest-numbered free server ([`ClusterState::first_free`]).

use crate::profiles::ProfileStore;
use crate::state::ClusterState;
use dc_sim::ids::ServerId;
use dc_sim::topology::Layout;
use serde::{Deserialize, Serialize};
use simkit::units::{Celsius, CubicFeetPerMinute, Kilowatts};
use std::collections::BTreeMap;
use workload::vm::{Vm, VmKind};

/// A placement request for one VM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementRequest {
    /// The VM to place.
    pub vm: Vm,
    /// Predicted peak mean-GPU load of the VM in `[0, 1]` (from the owning customer's or
    /// endpoint's history; 1.0 when no history exists, §4.1).
    pub predicted_peak_load: f64,
}

/// Design conditions the allocator plans for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignConditions {
    /// Outside temperature assumed when estimating peak GPU temperatures (a hot-day design
    /// point).
    pub design_outside_temp: Celsius,
    /// Datacenter load fraction assumed for inlet estimation.
    pub design_dc_load: f64,
}

impl Default for DesignConditions {
    fn default() -> Self {
        Self { design_outside_temp: Celsius::new(32.0), design_dc_load: 0.8 }
    }
}

/// Incrementally maintained placement aggregates plus reusable scratch buffers.
///
/// The TAPAS validator compares each candidate row's/aisle's *predicted peak* power and
/// airflow against its provisioning. Recomputing those aggregates scans every server per
/// placement decision; the planner instead carries them as dense vectors updated in O(1) on
/// every place/retire event the caller reports, and caches each server's predicted inlet at
/// the design conditions (a per-server constant).
#[derive(Debug, Clone)]
pub struct PlacementPlanner {
    design: DesignConditions,
    /// Predicted peak power per row (kW), counting idle power for empty servers.
    row_power_kw: Vec<f64>,
    /// Predicted peak airflow per aisle (CFM), counting idle airflow for empty servers.
    aisle_airflow_cfm: Vec<f64>,
    /// Predicted inlet temperature per server at the design conditions.
    design_inlet_c: Vec<f64>,
    /// Scratch: validated candidate servers.
    candidates: Vec<ServerId>,
    /// Scratch: `(server, predicted peak temperature)` pairs, sorted by temperature.
    temps: Vec<(ServerId, f64)>,
}

impl PlacementPlanner {
    /// Builds the planner from the current cluster state.
    #[must_use]
    pub fn new(
        state: &ClusterState,
        layout: &Layout,
        profiles: &ProfileStore,
        design: DesignConditions,
    ) -> Self {
        let mut row_power_kw = vec![0.0; layout.rows().len()];
        let mut aisle_airflow_cfm = vec![0.0; layout.aisles().len()];
        for server in layout.servers() {
            let profile = profiles.server(server.id);
            let (power, airflow) = match state.vm_on(server.id) {
                Some(placed) => (
                    profile.predicted_power(placed.predicted_peak_load).value(),
                    profile.predicted_airflow(placed.predicted_peak_load).value(),
                ),
                None => (
                    profile.spec.idle_power.value(),
                    profile.spec.idle_airflow.value(),
                ),
            };
            row_power_kw[server.row.index()] += power;
            aisle_airflow_cfm[server.aisle.index()] += airflow;
        }
        let design_inlet_c = layout
            .servers()
            .iter()
            .map(|server| {
                profiles
                    .server(server.id)
                    .predicted_inlet(design.design_outside_temp, design.design_dc_load)
                    .value()
            })
            .collect();
        Self {
            design,
            row_power_kw,
            aisle_airflow_cfm,
            design_inlet_c,
            candidates: Vec::new(),
            temps: Vec::new(),
        }
    }

    /// The design conditions the planner assumes.
    #[must_use]
    pub fn design(&self) -> DesignConditions {
        self.design
    }

    /// Records that a VM with `predicted_peak_load` was placed on `server`.
    pub fn on_place(&mut self, server: ServerId, predicted_peak_load: f64, profiles: &ProfileStore) {
        let profile = profiles.server(server);
        let load = predicted_peak_load.clamp(0.0, 1.0);
        self.row_power_kw[profile.row.index()] +=
            profile.predicted_power(load).value() - profile.spec.idle_power.value();
        self.aisle_airflow_cfm[profile.aisle.index()] +=
            profile.predicted_airflow(load).value() - profile.spec.idle_airflow.value();
    }

    /// Records that the VM previously placed on `server` (with the given predicted peak)
    /// retired.
    pub fn on_remove(
        &mut self,
        server: ServerId,
        predicted_peak_load: f64,
        profiles: &ProfileStore,
    ) {
        let profile = profiles.server(server);
        let load = predicted_peak_load.clamp(0.0, 1.0);
        self.row_power_kw[profile.row.index()] -=
            profile.predicted_power(load).value() - profile.spec.idle_power.value();
        self.aisle_airflow_cfm[profile.aisle.index()] -=
            profile.predicted_airflow(load).value() - profile.spec.idle_airflow.value();
    }

    /// Predicted peak power of a row (kW).
    #[must_use]
    pub fn row_power_kw(&self, row: dc_sim::ids::RowId) -> f64 {
        self.row_power_kw[row.index()]
    }
}

/// Tuning parameters of the TAPAS placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TapasPlacementConfig {
    /// Design conditions used for temperature estimation.
    pub design: DesignConditions,
    /// Fraction of the row power budget the validator allows predicted peaks to reach.
    pub power_safety_fraction: f64,
    /// Fraction of the aisle airflow provisioning the validator allows predicted peaks to
    /// reach.
    pub airflow_safety_fraction: f64,
    /// Weight of the thermal preference when scoring candidates.
    pub thermal_weight: f64,
    /// Weight of the IaaS/SaaS balance preference when scoring candidates.
    pub balance_weight: f64,
}

impl Default for TapasPlacementConfig {
    fn default() -> Self {
        Self {
            design: DesignConditions::default(),
            power_safety_fraction: 0.97,
            airflow_safety_fraction: 0.97,
            thermal_weight: 1.0,
            balance_weight: 0.5,
        }
    }
}

/// The TAPAS thermal- and power-aware placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[derive(Default)]
pub struct TapasPlacement {
    /// Tuning parameters.
    pub config: TapasPlacementConfig,
}


impl TapasPlacement {
    /// Current predicted peak power per row from already-placed VMs (idle power for empty
    /// servers).
    ///
    /// Reference implementation of the aggregate [`PlacementPlanner`] maintains
    /// incrementally; used by tests and audits.
    pub fn predicted_row_power(
        state: &ClusterState,
        layout: &Layout,
        profiles: &ProfileStore,
    ) -> BTreeMap<dc_sim::ids::RowId, Kilowatts> {
        layout
            .rows()
            .iter()
            .map(|row| {
                let total: Kilowatts = row
                    .servers
                    .iter()
                    .map(|&s| match state.vm_on(s) {
                        Some(placed) => {
                            profiles.server(s).predicted_power(placed.predicted_peak_load)
                        }
                        None => profiles.server(s).spec.idle_power,
                    })
                    .sum();
                (row.id, total)
            })
            .collect()
    }

    /// Current predicted peak airflow per aisle from already-placed VMs.
    ///
    /// Reference implementation of the aggregate [`PlacementPlanner`] maintains
    /// incrementally; used by tests and audits.
    pub fn predicted_aisle_airflow(
        state: &ClusterState,
        layout: &Layout,
        profiles: &ProfileStore,
    ) -> BTreeMap<dc_sim::ids::AisleId, CubicFeetPerMinute> {
        layout
            .aisles()
            .iter()
            .map(|aisle| {
                let total: CubicFeetPerMinute = aisle
                    .servers
                    .iter()
                    .map(|&s| match state.vm_on(s) {
                        Some(placed) => {
                            profiles.server(s).predicted_airflow(placed.predicted_peak_load)
                        }
                        None => profiles.server(s).spec.idle_airflow,
                    })
                    .sum();
                (aisle.id, total)
            })
            .collect()
    }

    /// Classifies every server's thermal tendency: the predicted worst-GPU temperature at the
    /// design conditions and the VM's predicted load. Returns the temperature per server.
    pub fn thermal_estimate(
        &self,
        profiles: &ProfileStore,
        server: ServerId,
        peak_load: f64,
    ) -> Celsius {
        let profile = profiles.server(server);
        let inlet = profile
            .predicted_inlet(self.config.design.design_outside_temp, self.config.design.design_dc_load);
        // Per-GPU power at the predicted load (static floor plus dynamic part), capped at the
        // GPU's TDP — the same shape the profiling observed.
        let gpu_max = profile.spec.gpu_max_power.to_watts().value();
        let gpu_share = (gpu_max * (0.15 + 0.85 * peak_load)).min(gpu_max);
        profile.predicted_worst_gpu_temp(inlet, simkit::units::Watts::new(gpu_share))
    }
}

impl TapasPlacement {
    /// Chooses a server for the VM, or `None` if no server is free.
    ///
    /// Reads the planner's incrementally maintained aggregates and reuses its scratch
    /// buffers, so a decision allocates nothing. The caller keeps the planner in sync with
    /// `state` through [`PlacementPlanner::on_place`] and [`PlacementPlanner::on_remove`].
    /// The row and aisle of each server come from `profiles`; `_layout` is not read.
    #[must_use]
    pub fn place_with(
        &self,
        request: &PlacementRequest,
        state: &ClusterState,
        _layout: &Layout,
        profiles: &ProfileStore,
        planner: &mut PlacementPlanner,
    ) -> Option<ServerId> {
        if state.free_count() == 0 {
            return None;
        }
        let peak_load = request.predicted_peak_load.clamp(0.0, 1.0);

        // Validator rule: filter servers whose row power or aisle airflow would exceed the
        // (safety-scaled) provisioning if the VM peaked there.
        let PlacementPlanner {
            row_power_kw,
            aisle_airflow_cfm,
            design_inlet_c,
            candidates,
            temps,
            ..
        } = planner;
        candidates.clear();
        for server_id in state.free_iter() {
            let profile = profiles.server(server_id);
            let row_budget = profiles.row_budget(profile.row).value()
                * self.config.power_safety_fraction;
            let aisle_budget = profiles.aisle_budget(profile.aisle).value()
                * self.config.airflow_safety_fraction;
            let new_row_power = row_power_kw[profile.row.index()]
                - profile.spec.idle_power.value()
                + profile.predicted_power(peak_load).value();
            let new_aisle_airflow = aisle_airflow_cfm[profile.aisle.index()]
                - profile.spec.idle_airflow.value()
                + profile.predicted_airflow(peak_load).value();
            if new_row_power <= row_budget && new_aisle_airflow <= aisle_budget {
                candidates.push(server_id);
            }
        }

        // Thermal terciles over the candidates (so the classification is stable): estimate
        // each candidate's peak temperature and rank. When the validator rejected everything,
        // fall back to every free server rather than rejecting outright.
        temps.clear();
        let estimate = |server: ServerId| -> f64 {
            let profile = profiles.server(server);
            let inlet = Celsius::new(design_inlet_c[server.index()]);
            let gpu_max = profile.spec.gpu_max_power.to_watts().value();
            let gpu_share = (gpu_max * (0.15 + 0.85 * peak_load)).min(gpu_max);
            profile
                .predicted_worst_gpu_temp(inlet, simkit::units::Watts::new(gpu_share))
                .value()
        };
        if candidates.is_empty() {
            temps.extend(state.free_iter().map(|s| (s, estimate(s))));
        } else {
            temps.extend(candidates.iter().map(|&s| (s, estimate(s))));
        }
        temps.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite temperatures"));
        let n = temps.len();
        let tercile_of = |rank: usize| -> usize {
            if n <= 1 {
                1
            } else if rank * 3 < n {
                0 // cold
            } else if rank * 3 < 2 * n {
                1 // medium
            } else {
                2 // warm
            }
        };
        let is_saas = matches!(request.vm.kind, VmKind::Saas { .. });
        let throttle_limit = profiles.thermal_headroom_target.value();

        let mut best: Option<(ServerId, f64)> = None;
        for (rank, &(server, temp)) in temps.iter().enumerate() {
            // SaaS VMs must never be placed somewhere that already predicts a violation.
            if is_saas && temp > throttle_limit {
                continue;
            }
            let tercile = tercile_of(rank);
            // Preference 1: IaaS prefers cold (tercile 0), SaaS prefers warm (tercile 2).
            let thermal_score = if is_saas {
                tercile as f64 / 2.0
            } else {
                1.0 - tercile as f64 / 2.0
            };
            // Preference 2: improve the IaaS/SaaS balance of the row.
            let row = profiles.server(server).row;
            let (iaas, saas) = state.row_mix(row);
            let balance_score = {
                let (new_iaas, new_saas) =
                    if is_saas { (iaas, saas + 1) } else { (iaas + 1, saas) };
                let total = (new_iaas + new_saas) as f64;
                1.0 - ((new_iaas as f64 - new_saas as f64).abs() / total)
            };
            let score = self.config.thermal_weight * thermal_score
                + self.config.balance_weight * balance_score;
            match best {
                Some((_, best_score)) if best_score >= score => {}
                _ => best = Some((server, score)),
            }
        }
        best.map(|(s, _)| s).or_else(|| {
            // Every candidate predicted a thermal violation for a SaaS VM: pick the coolest.
            temps.first().map(|&(s, _)| s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_sim::engine::Datacenter;
    use dc_sim::topology::LayoutConfig;
    use llm_sim::hardware::GpuHardware;
    use simkit::time::{SimDuration, SimTime};
    use workload::endpoints::EndpointId;
    use workload::vm::{IaasCustomerId, VmId};

    fn setup() -> (Layout, ProfileStore) {
        let layout = LayoutConfig::real_cluster_two_rows().build();
        let dc = Datacenter::new(layout.clone(), 42);
        let profiles = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());
        (layout, profiles)
    }

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

    fn request(id: u64, saas: bool, load: f64) -> PlacementRequest {
        PlacementRequest { vm: vm(id, saas), predicted_peak_load: load }
    }

    /// One decision with a planner built from the current state.
    fn place_fresh(
        policy: &TapasPlacement,
        request: &PlacementRequest,
        state: &ClusterState,
        layout: &Layout,
        profiles: &ProfileStore,
    ) -> Option<ServerId> {
        let mut planner = PlacementPlanner::new(state, layout, profiles, policy.config.design);
        policy.place_with(request, state, layout, profiles, &mut planner)
    }

    #[test]
    fn baseline_packs_lowest_free_server() {
        let (layout, _) = setup();
        let mut state = ClusterState::with_layout(&layout);
        let first = state.first_free().unwrap();
        assert_eq!(first, ServerId::new(0));
        state.place(vm(1, false), first, 1.0, None).unwrap();
        assert_eq!(state.first_free(), Some(ServerId::new(1)));
    }

    #[test]
    fn tapas_places_iaas_cooler_than_saas() {
        let (layout, profiles) = setup();
        let state = ClusterState::with_layout(&layout);
        let policy = TapasPlacement::default();
        let place = |req: PlacementRequest| {
            place_fresh(&policy, &req, &state, &layout, &profiles).unwrap()
        };
        let iaas_server = place(request(1, false, 0.9));
        let saas_server = place(request(2, true, 0.9));
        let temp_of = |s: ServerId| policy.thermal_estimate(&profiles, s, 0.9).value();
        assert!(
            temp_of(iaas_server) < temp_of(saas_server),
            "IaaS should land on a cooler server than SaaS ({} vs {})",
            temp_of(iaas_server),
            temp_of(saas_server)
        );
    }

    #[test]
    fn tapas_respects_row_power_validator() {
        let (layout, profiles) = setup();
        let mut state = ClusterState::with_layout(&layout);
        let policy = TapasPlacement::default();
        // Fill row 0 with peak-load VMs until its predicted power approaches the budget.
        let row0_servers = layout.rows()[0].servers.clone();
        for (i, &server) in row0_servers.iter().enumerate().take(30) {
            state.place(vm(100 + i as u64, false), server, 1.0, None).unwrap();
        }
        // The next peak-load VM must not land in row 0 (its predicted peak would exceed the
        // 85 %-provisioned budget), even though row 0 still has free servers.
        let chosen =
            place_fresh(&policy, &request(1, false, 1.0), &state, &layout, &profiles).unwrap();
        let chosen_row = layout.server(chosen).row;
        assert_eq!(chosen_row.index(), 1, "validator should steer the VM to the other row");
    }

    #[test]
    fn tapas_balances_iaas_and_saas_across_rows() {
        let (layout, profiles) = setup();
        let mut state = ClusterState::with_layout(&layout);
        let policy = TapasPlacement::default();
        let mut planner = PlacementPlanner::new(&state, &layout, &profiles, policy.config.design);
        // Place an alternating stream and check that neither row ends up one-sided.
        for i in 0..40u64 {
            let saas = i % 2 == 0;
            let req = request(i, saas, 0.7);
            let server = policy.place_with(&req, &state, &layout, &profiles, &mut planner).unwrap();
            state.place(vm(i, saas), server, 0.7, None).unwrap();
            planner.on_place(server, 0.7, &profiles);
        }
        for row in layout.rows() {
            let (iaas, saas) = state.row_mix(row.id);
            let total = iaas + saas;
            if total >= 8 {
                let imbalance = (iaas as f64 - saas as f64).abs() / total as f64;
                assert!(imbalance < 0.6, "row {} too one-sided: {iaas} IaaS vs {saas} SaaS", row.id);
            }
        }
    }

    #[test]
    fn full_cluster_returns_none_for_baseline_and_fallback_for_tapas() {
        let (layout, profiles) = setup();
        let mut state = ClusterState::with_layout(&layout);
        for i in 0..layout.server_count() {
            state
                .place(vm(i as u64, false), ServerId::new(i), 0.5, None)
                .unwrap();
        }
        assert!(state.first_free().is_none());
        let policy = TapasPlacement::default();
        assert!(place_fresh(&policy, &request(999, false, 0.5), &state, &layout, &profiles)
            .is_none());
    }

    #[test]
    fn predicted_peaks_never_exceed_budget_under_tapas_when_feasible() {
        let (layout, profiles) = setup();
        let mut state = ClusterState::with_layout(&layout);
        let policy = TapasPlacement::default();
        let mut planner = PlacementPlanner::new(&state, &layout, &profiles, policy.config.design);
        // Place a realistic mixed stream at moderate predicted load and verify the invariant.
        for i in 0..60u64 {
            let saas = i % 2 == 0;
            let req = request(i, saas, 0.8);
            if let Some(server) = policy.place_with(&req, &state, &layout, &profiles, &mut planner)
            {
                state.place(vm(i, saas), server, 0.8, None).unwrap();
                planner.on_place(server, 0.8, &profiles);
            }
        }
        let row_power = TapasPlacement::predicted_row_power(&state, &layout, &profiles);
        for row in layout.rows() {
            let budget = profiles.budgets.row_power[row.id];
            assert!(
                row_power[&row.id].value() <= budget.value() * 1.001,
                "row {} predicted peak {} exceeds budget {}",
                row.id,
                row_power[&row.id],
                budget
            );
            // The planner kept in sync through `on_place` agrees with the full recount.
            assert!((planner.row_power_kw(row.id) - row_power[&row.id].value()).abs() < 1e-6);
        }
    }
}
