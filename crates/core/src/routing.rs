//! LLM inference request routing (§4.2, §4.5 "Load Balancer").
//!
//! Each SaaS endpoint routes its requests across its VM instances. The baseline router is the
//! conventional latency-oriented policy: send the request to the instance with the fewest
//! outstanding requests. The TAPAS router first *filters out* instances with a high risk of
//! violating one of the three operational limits — aisle airflow, row power, or server GPU
//! temperature — using the profiled models and the current (cached, periodically refreshed)
//! infrastructure state, and then applies the state-of-the-art ordering: (1) KV-cache
//! affinity (prefer an instance that recently served the same customer), (2) energy
//! concentration (prefer busier instances below a utilization knee so idle instances can stay
//! quiet), (3) spread for performance.
//!
//! # Hot path
//!
//! The simulator routes millions of request quanta per experiment. The router works over a
//! [`CandidateView`] (a struct-of-arrays view of an endpoint's instances maintained
//! incrementally by the caller) with a [`PreparedRoutingContext`] that pre-computes
//! per-row/per-aisle headrooms and memoizes per-server inlet predictions in a
//! [`RouterScratch`], and returns a candidate *index* so the caller can update its registry in
//! O(1).

use crate::profiles::ProfileStore;
use dc_sim::ids::ServerId;
use llm_sim::request::{CustomerId, InferenceRequest};
use serde::{Deserialize, Serialize};
use simkit::units::{Celsius, CubicFeetPerMinute, Kilowatts};
use workload::vm::VmId;

/// Length of the per-instance recent-customer window used for KV-affinity scoring.
pub const RECENT_WINDOW: usize = 32;

/// A bounded ring of recently served customers.
///
/// Mirrors the instance runtime's bounded window: pushes evict the oldest entry once the
/// window is full, and affinity checks scan at most [`RECENT_WINDOW`] entries, so the scoring
/// cost cannot drift upward over long simulations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecentWindow {
    items: Vec<CustomerId>,
    head: usize,
    /// 128-bit Bloom filter over the window (split into two words so the offline serde
    /// facade can encode it); lets most negative affinity checks skip the scan.
    mask_lo: u64,
    mask_hi: u64,
}

impl Default for RecentWindow {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn customer_bit(customer: CustomerId) -> (u64, u64) {
    let hash = customer.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57;
    if hash < 64 {
        (1u64 << hash, 0)
    } else {
        (0, 1u64 << (hash - 64))
    }
}

impl RecentWindow {
    /// An empty window.
    #[must_use]
    pub fn new() -> Self {
        Self { items: Vec::with_capacity(RECENT_WINDOW), head: 0, mask_lo: 0, mask_hi: 0 }
    }

    /// Records a served customer, evicting the oldest entry when full.
    pub fn push(&mut self, customer: CustomerId) {
        if self.items.len() < RECENT_WINDOW {
            self.items.push(customer);
            let (lo, hi) = customer_bit(customer);
            self.mask_lo |= lo;
            self.mask_hi |= hi;
        } else {
            self.items[self.head] = customer;
            self.head = (self.head + 1) % RECENT_WINDOW;
            // An entry was evicted: rebuild the filter over the surviving window. This runs
            // once per routed quantum (for one window), not per affinity check.
            self.mask_lo = 0;
            self.mask_hi = 0;
            for &item in &self.items {
                let (lo, hi) = customer_bit(item);
                self.mask_lo |= lo;
                self.mask_hi |= hi;
            }
        }
    }

    /// Returns `true` if the customer is within the window.
    #[inline]
    #[must_use]
    pub fn contains(&self, customer: CustomerId) -> bool {
        let (lo, hi) = customer_bit(customer);
        if self.mask_lo & lo == 0 && self.mask_hi & hi == 0 {
            return false;
        }
        self.items.contains(&customer)
    }

    /// Number of recorded customers (at most [`RECENT_WINDOW`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if no customer was recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// The infrastructure state the router consults (recomputed every few minutes, §4.2).
///
/// Per-row power and per-aisle airflow are dense vectors indexed by `RowId::index` /
/// `AisleId::index`, matching the carry-over state the simulator maintains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingContext {
    /// Current outside temperature.
    pub outside_temp: Celsius,
    /// Current normalized datacenter load.
    pub dc_load: f64,
    /// Current power draw per row, indexed by `RowId::index`.
    pub row_power: Vec<Kilowatts>,
    /// Current airflow demand per aisle, indexed by `AisleId::index`.
    pub aisle_airflow: Vec<CubicFeetPerMinute>,
}

impl RoutingContext {
    /// A context with every row and aisle at the given fill fractions of their budgets.
    #[must_use]
    pub fn uniform(
        profiles: &ProfileStore,
        outside_temp: Celsius,
        dc_load: f64,
        row_fill: f64,
        aisle_fill: f64,
    ) -> Self {
        Self {
            outside_temp,
            dc_load,
            row_power: profiles
                .budgets
                .row_power
                .values()
                .map(|&b| b * row_fill)
                .collect(),
            aisle_airflow: profiles
                .budgets
                .aisle_airflow
                .values()
                .map(|&b| b * aisle_fill)
                .collect(),
        }
    }
}

/// A struct-of-arrays view over one endpoint's routable instances.
///
/// All slices have equal length; index `i` describes one instance. The caller (the cluster
/// simulator's instance registry) maintains these columns incrementally and updates them in
/// place as quanta are routed.
#[derive(Debug)]
pub struct CandidateView<'a> {
    /// VM ids.
    pub vm: &'a [VmId],
    /// Hosting servers.
    pub server: &'a [ServerId],
    /// Outstanding request counts.
    pub outstanding: &'a [u32],
    /// Current utilizations.
    pub utilization: &'a [f64],
    /// Transition (reload) flags.
    pub in_transition: &'a [bool],
    /// Recent-customer windows.
    pub recent: &'a [RecentWindow],
}

/// The conventional baseline: least outstanding requests, ignoring thermal/power state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BaselineRouter;

impl BaselineRouter {
    /// Picks the candidate with the smallest `(outstanding, vm)` among those not in
    /// transition, or among all candidates when every one is in transition.
    ///
    /// One pass tracking the minimum of a packed `(outstanding, vm)` key, with transitioning
    /// instances forced to the maximum key so they never win.
    #[must_use]
    pub fn route_view(&self, view: &CandidateView<'_>) -> Option<usize> {
        let n = view.vm.len();
        if n == 0 {
            return None;
        }
        let mut best_key = u128::MAX;
        let mut best = usize::MAX;
        for (i, ((&outstanding, &transitioning), &vm)) in view
            .outstanding
            .iter()
            .zip(view.in_transition)
            .zip(view.vm)
            .enumerate()
        {
            let key = ((u128::from(outstanding) << 64) | u128::from(vm.0))
                | (transitioning as u128).wrapping_neg();
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        if best == usize::MAX {
            // Every instance is in transition: the request still goes somewhere.
            return (0..n).min_by_key(|&i| (view.outstanding[i], view.vm[i].0));
        }
        Some(best)
    }
}

/// Tuning parameters of the TAPAS router.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TapasRouterConfig {
    /// Fraction of the row budget above which a row is considered at risk.
    pub row_power_risk_fraction: f64,
    /// Fraction of the aisle airflow provisioning above which an aisle is considered at risk.
    pub aisle_airflow_risk_fraction: f64,
    /// Safety margin (°C) below the throttle temperature at which a server is considered at
    /// risk.
    pub thermal_margin_c: f64,
    /// Utilization knee for the energy-concentration preference: instances below the knee are
    /// filled up before idle instances are woken.
    pub concentration_knee: f64,
    /// Additional utilization a routed request is assumed to add (used in risk estimates).
    pub marginal_utilization: f64,
}

impl Default for TapasRouterConfig {
    fn default() -> Self {
        Self {
            row_power_risk_fraction: 0.95,
            aisle_airflow_risk_fraction: 0.95,
            thermal_margin_c: 3.0,
            concentration_knee: 0.7,
            marginal_utilization: 0.05,
        }
    }
}

/// Per-step pre-computation for the TAPAS risk filter.
///
/// Row and aisle headrooms collapse the budget comparison to one subtraction per candidate,
/// and per-server inlet predictions are memoized in the [`RouterScratch`] so each server's
/// piecewise-polynomial inlet model is evaluated at most once per step regardless of how many
/// quanta route to instances on it.
#[derive(Debug)]
pub struct PreparedRoutingContext {
    outside_temp: Celsius,
    dc_load: f64,
    /// `budget × risk_fraction − current draw` per row (kW).
    row_headroom_kw: Vec<f64>,
    /// `provisioned × risk_fraction − current demand` per aisle (CFM).
    aisle_headroom_cfm: Vec<f64>,
}

impl PreparedRoutingContext {
    /// Builds the prepared context for one step.
    #[must_use]
    pub fn new(
        context: &RoutingContext,
        config: &TapasRouterConfig,
        profiles: &ProfileStore,
    ) -> Self {
        let mut prepared = Self {
            outside_temp: context.outside_temp,
            dc_load: context.dc_load,
            row_headroom_kw: Vec::new(),
            aisle_headroom_cfm: Vec::new(),
        };
        prepared.refresh(context, config, profiles);
        prepared
    }

    /// Recomputes the prepared state for a new step, reusing the headroom buffers.
    pub fn refresh(
        &mut self,
        context: &RoutingContext,
        config: &TapasRouterConfig,
        profiles: &ProfileStore,
    ) {
        self.outside_temp = context.outside_temp;
        self.dc_load = context.dc_load;
        // Iterate the profiled layout's rows/aisles, not the context vectors: a context
        // shorter than the layout (e.g. no telemetry yet) reads as zero draw, matching the
        // previous map-based `get().unwrap_or(ZERO)` tolerance.
        self.row_headroom_kw.clear();
        self.row_headroom_kw.extend((0..profiles.row_count()).map(|row| {
            let now = context.row_power.get(row).copied().unwrap_or(Kilowatts::ZERO);
            profiles.row_budget(dc_sim::ids::RowId::new(row)).value()
                * config.row_power_risk_fraction
                - now.value()
        }));
        self.aisle_headroom_cfm.clear();
        self.aisle_headroom_cfm.extend((0..profiles.aisle_count()).map(|aisle| {
            let now = context
                .aisle_airflow
                .get(aisle)
                .copied()
                .unwrap_or(CubicFeetPerMinute::ZERO);
            profiles.aisle_budget(dc_sim::ids::AisleId::new(aisle)).value()
                * config.aisle_airflow_risk_fraction
                - now.value()
        }));
    }
}

/// Reusable per-step buffers for the routing hot path.
#[derive(Debug, Default)]
pub struct RouterScratch {
    /// Memoized per-server predicted inlet (°C); `None` until computed this step.
    inlet_c: Vec<Option<f64>>,
}

impl RouterScratch {
    /// Resets the memo for a new step.
    pub fn begin_step(&mut self, server_count: usize) {
        self.inlet_c.clear();
        self.inlet_c.resize(server_count, None);
    }
}

/// The TAPAS thermal- and power-aware request router.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[derive(Default)]
pub struct TapasRouter {
    /// Tuning parameters.
    pub config: TapasRouterConfig,
}


impl TapasRouter {
    /// Returns `true` if routing another request to this instance risks violating one of the
    /// three operational limits. `inlet` is the server's predicted inlet temperature.
    fn is_risky_with_inlet(
        &self,
        server: ServerId,
        utilization: f64,
        inlet: Celsius,
        profiles: &ProfileStore,
        row_headroom_kw: f64,
        aisle_headroom_cfm: f64,
    ) -> bool {
        let profile = profiles.server(server);

        // Server-level thermal risk (Eq. 2 with the current inlet estimate).
        let next_util = (utilization + self.config.marginal_utilization).clamp(0.0, 1.0);
        let gpu_max = profile.spec.gpu_max_power.to_watts().value();
        let gpu_power = simkit::units::Watts::new(gpu_max * (0.15 + 0.85 * next_util));
        let predicted_temp = profile.predicted_worst_gpu_temp(inlet, gpu_power);
        let limit = profile.spec.gpu_throttle_temp_c - self.config.thermal_margin_c;
        if predicted_temp.value() > limit {
            return true;
        }

        // Row-level power risk (Eq. 4).
        let marginal_power = profile.predicted_power(next_util)
            - profile.predicted_power(utilization.clamp(0.0, 1.0));
        if marginal_power.value() > row_headroom_kw {
            return true;
        }

        // Aisle-level airflow risk (Eq. 3).
        let marginal_airflow = profile.predicted_airflow(next_util)
            - profile.predicted_airflow(utilization.clamp(0.0, 1.0));
        if marginal_airflow.value() > aisle_headroom_cfm {
            return true;
        }

        false
    }

    /// Scores an eligible candidate; higher is better. `affinity` is evaluated lazily so the
    /// recent-customer window is only scanned for instances below the concentration knee.
    fn score(
        &self,
        outstanding: usize,
        utilization: f64,
        affinity: impl FnOnce() -> bool,
    ) -> f64 {
        // (3) Spread: fewer outstanding requests is better. This is the only criterion that
        // applies to instances already past the utilization knee — sending them affinity or
        // concentration traffic would trade latency for locality/energy, which the paper's
        // ordering never does.
        let spread = 1.0 / (1.0 + outstanding as f64);
        if utilization > self.config.concentration_knee {
            return spread;
        }
        // (1) KV-cache affinity dominates among instances with headroom.
        let affinity = if affinity() { 1.0 } else { 0.0 };
        // (2) Energy concentration: prefer the most-utilized instance below the knee.
        let concentration = utilization / self.config.concentration_knee;
        100.0 * affinity + 2.0 * concentration + spread
    }

    /// Routes one request given pre-computed risk flags (`flags[i]` is `true` when candidate
    /// `i` is risky).
    ///
    /// The caller computes the flags once per endpoint per step with
    /// [`Self::fill_risk_flags`], then refreshes only the mutated candidate's flag (via
    /// [`Self::candidate_risk`]) after each routed quantum — so each decision costs one
    /// scoring pass and zero risk-model evaluations. The pass tracks the best candidate of
    /// each fallback tier (available+safe, available, safe, any). Ties break toward the
    /// smaller VM id, so the result is independent of candidate order.
    ///
    /// # Panics
    /// Panics if `flags` is shorter than the candidate list.
    #[must_use]
    pub fn route_prescored(
        &self,
        request: &InferenceRequest,
        candidates: &CandidateView<'_>,
        flags: &[bool],
    ) -> Option<usize> {
        assert!(flags.len() >= candidates.vm.len(), "risk flags must cover every candidate");
        #[derive(Clone, Copy)]
        struct Best {
            score: f64,
            vm: u64,
            index: usize,
        }
        #[inline]
        fn consider(best: &mut Option<Best>, score: f64, vm: u64, index: usize) {
            let replace = match best {
                Some(b) => score > b.score || (score == b.score && vm < b.vm),
                None => true,
            };
            if replace {
                *best = Some(Best { score, vm, index });
            }
        }

        let mut avail_safe: Option<Best> = None;
        let mut avail_any: Option<Best> = None;
        let mut all_safe: Option<Best> = None;
        let mut all_any: Option<Best> = None;

        for (i, &risky) in flags[..candidates.vm.len()].iter().enumerate() {
            let vm = candidates.vm[i].0;
            let score = self.score(
                candidates.outstanding[i] as usize,
                candidates.utilization[i],
                || candidates.recent[i].contains(request.customer),
            );
            let is_safe = !risky;
            consider(&mut all_any, score, vm, i);
            if is_safe {
                consider(&mut all_safe, score, vm, i);
            }
            if !candidates.in_transition[i] {
                consider(&mut avail_any, score, vm, i);
                if is_safe {
                    consider(&mut avail_safe, score, vm, i);
                }
            }
        }

        // If every instance is risky we must still serve the request: fall back to the full
        // pool (the instance configurator will shed the load instead). Instances in
        // transition are only used when nothing else is available.
        let chosen = if avail_any.is_some() {
            avail_safe.or(avail_any)
        } else {
            all_safe.or(all_any)
        };
        chosen.map(|b| b.index)
    }

    #[inline]
    fn risk_with_memo(
        &self,
        server: ServerId,
        utilization: f64,
        profiles: &ProfileStore,
        prepared: &PreparedRoutingContext,
        inlet_memo: &mut [Option<f64>],
    ) -> bool {
        let profile = profiles.server(server);
        let inlet = Celsius::new(*inlet_memo[server.index()].get_or_insert_with(|| {
            profile.predicted_inlet(prepared.outside_temp, prepared.dc_load).value()
        }));
        self.is_risky_with_inlet(
            server,
            utilization,
            inlet,
            profiles,
            prepared.row_headroom_kw[profile.row.index()],
            prepared.aisle_headroom_cfm[profile.aisle.index()],
        )
    }

    /// Evaluates the risk filter for one candidate (used to refresh a cached flag after the
    /// caller mutated that candidate's utilization).
    #[must_use]
    pub fn candidate_risk(
        &self,
        server: ServerId,
        utilization: f64,
        profiles: &ProfileStore,
        prepared: &PreparedRoutingContext,
        scratch: &mut RouterScratch,
    ) -> bool {
        self.risk_with_memo(server, utilization, profiles, prepared, &mut scratch.inlet_c)
    }

    /// Fills `flags[i] = risky(candidate i)` for every candidate, reusing the scratch memo.
    pub fn fill_risk_flags(
        &self,
        candidates: &CandidateView<'_>,
        profiles: &ProfileStore,
        prepared: &PreparedRoutingContext,
        scratch: &mut RouterScratch,
        flags: &mut Vec<bool>,
    ) {
        flags.clear();
        flags.extend(candidates.server.iter().zip(candidates.utilization).map(
            |(&server, &utilization)| {
                self.risk_with_memo(server, utilization, profiles, prepared, &mut scratch.inlet_c)
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_sim::engine::Datacenter;
    use dc_sim::ids::{AisleId, RowId};
    use dc_sim::topology::LayoutConfig;
    use llm_sim::hardware::GpuHardware;
    use llm_sim::request::RequestId;
    use simkit::rng::SimRng;
    use simkit::time::SimTime;

    fn profiles() -> ProfileStore {
        let dc = Datacenter::new(LayoutConfig::real_cluster_two_rows().build(), 42);
        ProfileStore::offline_profiling(&dc, &GpuHardware::a100())
    }

    fn request(customer: u64) -> InferenceRequest {
        InferenceRequest {
            id: RequestId(1),
            customer: CustomerId(customer),
            arrival: SimTime::ZERO,
            prompt_tokens: 512,
            output_tokens: 128,
        }
    }

    /// Owned columns behind a [`CandidateView`], as the simulator's instance registry keeps
    /// them.
    #[derive(Default)]
    struct Columns {
        vm: Vec<VmId>,
        server: Vec<ServerId>,
        outstanding: Vec<u32>,
        utilization: Vec<f64>,
        in_transition: Vec<bool>,
        recent: Vec<RecentWindow>,
    }

    impl Columns {
        /// One instance per `(vm, server, outstanding, utilization)` tuple.
        fn new(instances: &[(u64, usize, u32, f64)]) -> Self {
            let mut columns = Self::default();
            for &(vm, server, outstanding, utilization) in instances {
                columns.vm.push(VmId(vm));
                columns.server.push(ServerId::new(server));
                columns.outstanding.push(outstanding);
                columns.utilization.push(utilization);
                columns.in_transition.push(false);
                columns.recent.push(RecentWindow::new());
            }
            columns
        }

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

        /// The TAPAS hot path for one step: prepare the context, flag risky candidates,
        /// route.
        fn route_tapas(
            &self,
            router: &TapasRouter,
            customer: u64,
            profiles: &ProfileStore,
            ctx: &RoutingContext,
        ) -> Option<VmId> {
            let prepared = PreparedRoutingContext::new(ctx, &router.config, profiles);
            let mut scratch = RouterScratch::default();
            scratch.begin_step(profiles.server_count());
            let mut flags = Vec::new();
            router.fill_risk_flags(&self.view(), profiles, &prepared, &mut scratch, &mut flags);
            router.route_prescored(&request(customer), &self.view(), &flags).map(|i| self.vm[i])
        }

        fn route_baseline(&self) -> Option<VmId> {
            BaselineRouter.route_view(&self.view()).map(|i| self.vm[i])
        }
    }

    fn calm_context(profiles: &ProfileStore) -> RoutingContext {
        RoutingContext {
            outside_temp: Celsius::new(20.0),
            dc_load: 0.4,
            row_power: profiles
                .budgets
                .row_power
                .keys()
                .map(|_| Kilowatts::new(50.0))
                .collect(),
            aisle_airflow: profiles
                .budgets
                .aisle_airflow
                .keys()
                .map(|_| CubicFeetPerMinute::new(10_000.0))
                .collect(),
        }
    }

    #[test]
    fn baseline_picks_least_outstanding() {
        let columns = Columns::new(&[(1, 0, 10, 0.9), (2, 1, 2, 0.3), (3, 2, 5, 0.5)]);
        assert_eq!(columns.route_baseline(), Some(VmId(2)));
        assert!(Columns::new(&[]).route_baseline().is_none());
    }

    #[test]
    fn baseline_skips_instances_in_transition_when_possible() {
        let mut columns = Columns::new(&[(1, 0, 1, 0.2), (2, 1, 5, 0.5)]);
        columns.in_transition[0] = true;
        assert_eq!(columns.route_baseline(), Some(VmId(2)));
        // If every instance is in transition the request still goes somewhere.
        columns.in_transition[1] = true;
        assert_eq!(columns.route_baseline(), Some(VmId(1)));
    }

    #[test]
    fn baseline_route_view_matches_brute_force_reference() {
        let mut rng = SimRng::seed_from(17).derive("baseline-route-view");
        for case in 0..500 {
            let n = rng.uniform_usize(0, 12);
            let mut vm_ids: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
            rng.shuffle(&mut vm_ids);
            // A quarter of the cases put every instance in transition.
            let all_transitioning = case % 4 == 0;
            let mut columns = Columns::default();
            for &vm in &vm_ids {
                columns.vm.push(VmId(vm));
                columns.server.push(ServerId::new(rng.uniform_usize(0, 80)));
                // Few distinct loads, so `(outstanding, vm)` ties on outstanding often.
                columns.outstanding.push(rng.uniform_usize(0, 4) as u32);
                columns.utilization.push(rng.uniform(0.0, 1.0));
                columns.in_transition.push(all_transitioning || rng.chance(0.4));
                columns.recent.push(RecentWindow::new());
            }
            let key = |i: usize| (columns.outstanding[i], columns.vm[i].0);
            let available: Vec<usize> = (0..n).filter(|&i| !columns.in_transition[i]).collect();
            let pool: Vec<usize> = if available.is_empty() { (0..n).collect() } else { available };
            let expected = pool.into_iter().min_by_key(|&i| key(i));
            assert_eq!(BaselineRouter.route_view(&columns.view()), expected, "case {case}");
        }
    }

    #[test]
    fn tapas_avoids_rows_near_their_power_budget() {
        let profiles = profiles();
        let router = TapasRouter::default();
        let mut ctx = calm_context(&profiles);
        // Row 0 is right at its budget; row 1 is calm. Instance 1 sits in row 0 (server 0),
        // instance 2 in row 1 (server 40).
        let row0 = profiles.server(ServerId::new(0)).row;
        let budget = profiles.budgets.row_power[row0];
        ctx.row_power[row0.index()] = budget * 0.99;
        let columns = Columns::new(&[(1, 0, 1, 0.5), (2, 40, 5, 0.5)]);
        let choice = columns.route_tapas(&router, 0, &profiles, &ctx);
        assert_eq!(choice, Some(VmId(2)), "the request must avoid the at-risk row");
    }

    #[test]
    fn tapas_avoids_hot_servers() {
        let profiles = profiles();
        // A wide thermal margin makes the fully-loaded server risky and the lightly-loaded
        // one safe for any seed-dependent spatial offsets, so the test checks the filter
        // logic rather than one RNG draw.
        let mut router = TapasRouter::default();
        router.config.thermal_margin_c = 20.0;
        let mut ctx = calm_context(&profiles);
        // A very hot day with high utilization puts fully-loaded servers at thermal risk.
        ctx.outside_temp = Celsius::new(42.0);
        ctx.dc_load = 1.0;
        let hot_and_cool = Columns::new(&[(1, 0, 0, 0.98), (2, 40, 8, 0.2)]);
        assert_eq!(hot_and_cool.route_tapas(&router, 0, &profiles, &ctx), Some(VmId(2)));
        // If every instance is risky, the router still returns something.
        let hot = Columns::new(&[(1, 0, 0, 0.98)]);
        assert_eq!(hot.route_tapas(&router, 0, &profiles, &ctx), Some(VmId(1)));
    }

    #[test]
    fn tapas_prefers_kv_affinity() {
        let profiles = profiles();
        let router = TapasRouter::default();
        let ctx = calm_context(&profiles);
        let mut columns = Columns::new(&[(1, 0, 6, 0.5), (2, 1, 0, 0.1)]);
        columns.recent[0].push(CustomerId(7));
        let choice = columns.route_tapas(&router, 7, &profiles, &ctx);
        assert_eq!(choice, Some(VmId(1)), "KV affinity should dominate");
        // A different customer goes by concentration/spread instead.
        let other = columns.route_tapas(&router, 9, &profiles, &ctx);
        assert_eq!(other, Some(VmId(1)), "concentration prefers the busier-but-safe instance");
    }

    #[test]
    fn tapas_concentrates_below_knee_and_spreads_above() {
        let profiles = profiles();
        let router = TapasRouter::default();
        let ctx = calm_context(&profiles);
        // Both below the knee: prefer the busier one (concentration).
        let low_and_mid = Columns::new(&[(1, 0, 2, 0.2), (2, 1, 2, 0.6)]);
        assert_eq!(low_and_mid.route_tapas(&router, 0, &profiles, &ctx), Some(VmId(2)));
        // One far above the knee: prefer the one with headroom.
        let low_and_hot = Columns::new(&[(1, 0, 2, 0.2), (3, 2, 2, 0.95)]);
        assert_eq!(low_and_hot.route_tapas(&router, 0, &profiles, &ctx), Some(VmId(1)));
    }

    #[test]
    fn tapas_airflow_risk_filters_aisle() {
        let profiles = profiles();
        let router = TapasRouter::default();
        let mut ctx = calm_context(&profiles);
        let aisle = profiles.server(ServerId::new(0)).aisle;
        let provisioned = profiles.budgets.aisle_airflow[aisle];
        ctx.aisle_airflow[aisle.index()] = provisioned * 0.999;
        // Both instances are in the same (only) aisle, so the filter rejects both and the
        // fallback still routes the request.
        let columns = Columns::new(&[(1, 0, 3, 0.5), (2, 40, 1, 0.5)]);
        assert!(columns.route_tapas(&router, 0, &profiles, &ctx).is_some());
    }

    #[test]
    fn refreshed_flags_match_a_full_refill_after_every_quantum() {
        // The simulator fills the flags once per step and refreshes only the routed
        // candidate's flag; that must route exactly as refilling every flag would.
        let profiles = profiles();
        let router = TapasRouter::default();
        let mut ctx = calm_context(&profiles);
        ctx.row_power[0] = profiles.budgets.row_power[RowId::new(0)] * 0.93;
        let instances: Vec<(u64, usize, u32, f64)> =
            (0..20).map(|i| (i, (i as usize * 7) % 80, (i % 5) as u32, (i % 10) as f64 / 10.0)).collect();
        let mut columns = Columns::new(&instances);
        columns.in_transition[3] = true;
        let prepared = PreparedRoutingContext::new(&ctx, &router.config, &profiles);
        let mut scratch = RouterScratch::default();
        scratch.begin_step(profiles.server_count());
        let mut flags = Vec::new();
        router.fill_risk_flags(&columns.view(), &profiles, &prepared, &mut scratch, &mut flags);
        let mut refilled = Vec::new();
        for quantum in 0..60u64 {
            let request = request(quantum % 4);
            let i = router.route_prescored(&request, &columns.view(), &flags).expect("non-empty");
            router.fill_risk_flags(&columns.view(), &profiles, &prepared, &mut scratch, &mut refilled);
            assert_eq!(router.route_prescored(&request, &columns.view(), &refilled), Some(i));
            columns.utilization[i] = (columns.utilization[i] + 0.1).min(1.5);
            columns.outstanding[i] += 1;
            columns.recent[i].push(request.customer);
            flags[i] = router.candidate_risk(
                columns.server[i],
                columns.utilization[i],
                &profiles,
                &prepared,
                &mut scratch,
            );
        }
    }

    #[test]
    fn empty_context_reads_as_zero_draw() {
        // A context shorter than the layout (e.g. before the first physics step) must be
        // tolerated as zero draw, matching the old map-based lookup semantics.
        let profiles = profiles();
        let router = TapasRouter::default();
        let ctx = RoutingContext {
            outside_temp: Celsius::new(20.0),
            dc_load: 0.4,
            row_power: Vec::new(),
            aisle_airflow: Vec::new(),
        };
        let columns = Columns::new(&[(1, 0, 1, 0.5), (2, 40, 3, 0.4)]);
        assert!(columns.route_tapas(&router, 0, &profiles, &ctx).is_some());
    }

    #[test]
    fn recent_window_is_bounded_and_evicts_oldest() {
        let mut window = RecentWindow::new();
        assert!(window.is_empty());
        for i in 0..(RECENT_WINDOW as u64 + 5) {
            window.push(CustomerId(i));
        }
        assert_eq!(window.len(), RECENT_WINDOW);
        // The first five customers were evicted; the most recent ones remain.
        assert!(!window.contains(CustomerId(0)));
        assert!(!window.contains(CustomerId(4)));
        assert!(window.contains(CustomerId(5)));
        assert!(window.contains(CustomerId(RECENT_WINDOW as u64 + 4)));
    }

    #[test]
    fn uniform_context_fills_budget_fractions() {
        let profiles = profiles();
        let ctx = RoutingContext::uniform(&profiles, Celsius::new(25.0), 0.5, 0.8, 0.6);
        assert_eq!(ctx.row_power.len(), profiles.budgets.row_power.len());
        let row0 = RowId::new(0);
        assert!(
            (ctx.row_power[0].value() - profiles.budgets.row_power[row0].value() * 0.8).abs()
                < 1e-9
        );
        let aisle0 = AisleId::new(0);
        assert!(
            (ctx.aisle_airflow[0].value()
                - profiles.budgets.aisle_airflow[aisle0].value() * 0.6)
                .abs()
                < 1e-9
        );
    }
}
