//! The co-execution runner: one workload × one scheduling policy × one
//! device → per-kernel times, busy intervals and metrics.
//!
//! Policies are [`SchedulingPolicy`] objects (see `accelos::policy`); the
//! paper's four schemes come from
//! [`PolicySet::paper`](accelos::policy::PolicySet::paper):
//!
//! * `baseline` — standard OpenCL: every original work group is a hardware
//!   work group (serialisation emerges from the FIFO dispatcher);
//! * `ek` — the Elastic Kernels static-allocation baseline;
//! * `accelos-naive` / `accelos` — the paper's runtime, without and with
//!   §6.4 adaptive scheduling.
//!
//! Each `(workload, repetition)` measurement opens one [`RepContext`]
//! session holding everything that is *policy-independent*: the calibrated
//! per-work-group cost draw, the compiled resource demands, and lazily the
//! §3 share allocations. Every policy of the repetition plans against the
//! same session, so nothing is recomputed per policy (the ROADMAP's
//! "cost-draw sharing across schemes at the API level").
//!
//! Per-work-group resources come from *compiling* each kernel (registers,
//! local memory, §6.4 instruction counts); per-work-group costs come from
//! each kernel's calibrated cost profile, seeded per repetition so that the
//! paper's 20-repetition averaging has variance to average over.

use accelos::chunk::{chunk_for, Mode};
use accelos::episode::Episode;
use accelos::policy::{plan_with_arrivals_and_faults, FaultSchedule, PlanCtx, SchedulingPolicy};
use accelos::resource::{ResourceDemand, ShareAllocation};
use accelos::scheduler::{ExecRequest, LaunchDecision};
use gpu_sim::{
    Costs, DeviceConfig, FailureDomain, FaultPlan, KernelLaunch, SimReport, WorkGroupReq,
};
use parboil::{KernelDb, KernelSpec};
use sched_metrics::profile::ProfileStore;
use sched_metrics::IntervalSet;
use std::collections::HashMap;
use std::iter;
use std::sync::{Arc, Mutex, OnceLock};

/// Software cost added per virtual group by the persistent-worker runtime
/// (index arithmetic of the replaced work-item functions).
const PER_VG_OVERHEAD: u64 = 2;

/// Inner level of the isolated-time cache: `(kernel, seed)` → time.
type IsolatedTimes = HashMap<(&'static str, u64), u64>;

/// Result of one workload execution under one policy.
///
/// `PartialEq` is exact (bit-level): the policy path's numbers are pinned
/// by the golden snapshots in `tests/golden/` (which retired the seed's
/// enum-dispatch parity fixture), and the determinism tests assert
/// equality through this impl.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRun {
    /// Kernel names, in arrival order.
    pub names: Vec<&'static str>,
    /// Per-kernel turnaround times in the shared run.
    pub shared: Vec<u64>,
    /// Per-kernel isolated times under the same policy.
    pub alone: Vec<u64>,
    /// Per-kernel busy intervals in the shared run.
    pub busy: Vec<IntervalSet>,
    /// Time for the whole workload to finish.
    pub total_time: u64,
}

impl WorkloadRun {
    /// Individual slowdowns `IS_i` (paper §7.4).
    pub fn slowdowns(&self) -> Vec<f64> {
        self.shared
            .iter()
            .zip(&self.alone)
            .map(|(&s, &a)| sched_metrics::individual_slowdown(s, a))
            .collect()
    }

    /// System unfairness `U`.
    pub fn unfairness(&self) -> f64 {
        sched_metrics::unfairness(&self.slowdowns())
    }

    /// Kernel execution overlap `O`.
    pub fn overlap(&self) -> f64 {
        sched_metrics::execution_overlap(&self.busy)
    }

    /// `STP` over the workload.
    pub fn stp(&self) -> f64 {
        sched_metrics::stp(&self.shared, &self.alone)
    }

    /// `ANTT` over the workload.
    pub fn antt(&self) -> f64 {
        sched_metrics::antt(&self.shared, &self.alone)
    }

    /// Worst-case `NTT` over the workload.
    pub fn worst_antt(&self) -> f64 {
        sched_metrics::worst_antt(&self.shared, &self.alone)
    }
}

/// The policy-independent facts of one kernel inside a [`RepContext`].
#[derive(Debug)]
struct RepKernel {
    spec: &'static KernelSpec,
    req: WorkGroupReq,
    demand: ResourceDemand,
    insn_count: usize,
    costs: Costs,
}

/// One `(workload, repetition)` measurement session.
///
/// Owns everything every policy of the repetition shares: the calibrated
/// cost draw (one [`Costs`] table per kernel, deduplicated when a kernel
/// appears several times in the workload), the compiled resource demands,
/// and — lazily, filled by the first policy that needs them — the §3
/// equal-share and single-kernel allocations. Handing the same context to
/// each policy is what eliminates the redundant `compute_shares` re-plans
/// and cost re-draws the seed performed per scheme.
#[derive(Debug)]
pub struct RepContext<'r> {
    runner: &'r Runner,
    seed: u64,
    kernels: Vec<RepKernel>,
    equal_shares: OnceLock<(Vec<ResourceDemand>, ShareAllocation)>,
    solo_shares: Vec<OnceLock<(ResourceDemand, u32)>>,
}

impl<'r> RepContext<'r> {
    fn new(runner: &'r Runner, workload: &[&'static KernelSpec], seed: u64) -> Self {
        assert!(!workload.is_empty(), "workloads need at least one kernel");
        // The draw is a deterministic function of (kernel, n, seed), so a
        // kernel appearing twice in a workload shares one table.
        let mut draws: HashMap<&'static str, Costs> = HashMap::new();
        let kernels = workload
            .iter()
            .map(|spec| {
                let (_, profile) = runner.db.get(spec.name).expect("spec from the same table");
                let req = WorkGroupReq {
                    threads: spec.wg_size,
                    local_mem: profile.static_local_bytes as u32,
                    regs_per_thread: profile.regs_per_item.max(1) as u32,
                };
                let costs = draws
                    .entry(spec.name)
                    .or_insert_with(|| {
                        // Drawn straight into the shared table: one allocation.
                        let mut costs: Costs =
                            iter::repeat_n(0, spec.default_wgs as usize).collect();
                        let table = Arc::get_mut(&mut costs).expect("a fresh table is unshared");
                        spec.fill_vg_costs(seed, table);
                        costs
                    })
                    .clone();
                RepKernel {
                    spec,
                    req,
                    demand: ResourceDemand {
                        wg_threads: req.threads,
                        wg_local_mem: req.local_mem,
                        wg_regs: req.regs_total(),
                        original_wgs: spec.default_wgs,
                    },
                    insn_count: profile.insn_count,
                    costs,
                }
            })
            .collect::<Vec<_>>();
        let solo_shares = kernels.iter().map(|_| OnceLock::new()).collect();
        RepContext {
            runner,
            seed,
            kernels,
            equal_shares: OnceLock::new(),
            solo_shares,
        }
    }

    /// The session's repetition seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The workload, in arrival order.
    pub fn workload(&self) -> Vec<&'static KernelSpec> {
        self.kernels.iter().map(|k| k.spec).collect()
    }

    /// The calibrated cost draw of kernel `index`.
    pub fn costs(&self, index: usize) -> &Costs {
        &self.kernels[index].costs
    }

    /// The planning context policies receive: the device plus this
    /// session's share caches.
    pub fn plan_ctx(&self) -> PlanCtx<'_> {
        PlanCtx::with_caches(&self.runner.device, &self.equal_shares, &self.solo_shares)
    }

    /// A single-kernel session for kernel `index`, sharing this session's
    /// cost draw (an `Arc` clone, not a re-draw) — what isolated-time
    /// simulations plan against. Share caches start empty because a solo
    /// batch allocates differently from the full one.
    fn solo(&self, index: usize) -> RepContext<'r> {
        let k = &self.kernels[index];
        RepContext {
            runner: self.runner,
            seed: self.seed,
            kernels: vec![RepKernel {
                spec: k.spec,
                req: k.req,
                demand: k.demand,
                insn_count: k.insn_count,
                costs: k.costs.clone(),
            }],
            equal_shares: OnceLock::new(),
            solo_shares: vec![OnceLock::new()],
        }
    }

    /// The batch as [`ExecRequest`]s, with dequeue chunks compiled for
    /// `mode` (policies report their mode via
    /// [`SchedulingPolicy::chunk_mode`]).
    pub fn exec_requests(&self, mode: Mode) -> Vec<ExecRequest> {
        self.kernels
            .iter()
            .map(|k| ExecRequest {
                kernel: k.spec.name.into(),
                ndrange: k.spec.default_ndrange(),
                demand: k.demand,
                chunk: chunk_for(k.insn_count, mode),
            })
            .collect()
    }
}

/// Runs workloads on one device with cached kernel compilation and cached
/// isolated-execution times.
#[derive(Debug)]
pub struct Runner {
    device: DeviceConfig,
    db: KernelDb,
    /// Isolated times, keyed policy-name → `(kernel, seed)`. Two levels so
    /// the sweep's hot path (overwhelmingly cache hits) looks up with the
    /// borrowed `policy.name()` and never allocates a key string.
    isolated: Mutex<HashMap<String, IsolatedTimes>>,
    /// Optional calibration store ([`ProfileStore`]). When attached,
    /// preemptive planning reads isolated-time estimates from it (falling
    /// back to — and recording — the exact solo simulation for indices a
    /// policy declares via `SchedulingPolicy::estimate_indices`), and
    /// *every* request with a calibrated entry carries an estimate, so
    /// the arrival planner can prune drained victims. With no store the
    /// path is bit-identical to the pre-calibration runner.
    profile: Mutex<Option<ProfileStore>>,
}

impl Runner {
    /// Runner for `device`, compiling all 25 kernels once.
    ///
    /// # Panics
    ///
    /// Panics if the bundled kernels fail to compile (a bug caught by the
    /// parboil tests, not an input condition).
    pub fn new(device: DeviceConfig) -> Self {
        let db = KernelDb::load().expect("bundled Parboil kernels compile");
        Runner {
            device,
            db,
            isolated: Mutex::new(HashMap::new()),
            profile: Mutex::new(None),
        }
    }

    /// The device this runner simulates.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// Attach a calibration store for preemptive planning to read
    /// isolated-time estimates from (and record exact solo times into,
    /// for declared indices the store has not seen). Replaces any store
    /// already attached.
    pub fn set_profile_store(&self, store: ProfileStore) {
        *self.profile.lock().unwrap() = Some(store);
    }

    /// Detach and return the calibration store, e.g. to
    /// [`ProfileStore::save`] it at session end. Later runs plan without
    /// calibrated estimates again.
    pub fn take_profile_store(&self) -> Option<ProfileStore> {
        self.profile.lock().unwrap().take()
    }

    /// The compiled kernel database.
    pub fn db(&self) -> &KernelDb {
        &self.db
    }

    /// Open a `(workload, repetition)` session: draw the repetition's
    /// costs and compile the demands once, for every policy to share.
    ///
    /// # Panics
    ///
    /// Panics if `workload` is empty.
    pub fn rep_context<'r>(
        &'r self,
        workload: &[&'static KernelSpec],
        seed: u64,
    ) -> RepContext<'r> {
        RepContext::new(self, workload, seed)
    }

    /// Build the machine launches for the session's workload under
    /// `policy`, arriving at the given times (one per kernel). Exposed so
    /// the differential tests can simulate the raw launch vectors; most
    /// callers want [`Runner::run_in`].
    pub fn launches_in(
        &self,
        ctx: &RepContext<'_>,
        policy: &dyn SchedulingPolicy,
        arrivals: &[u64],
    ) -> Vec<KernelLaunch> {
        assert_eq!(ctx.kernels.len(), arrivals.len(), "one arrival per kernel");
        let requests = ctx.exec_requests(policy.chunk_mode());
        let plan_ctx = ctx.plan_ctx();
        let decisions = policy.plan(&plan_ctx, &requests);
        self.build_launches(ctx, policy, &plan_ctx, &requests, &decisions, arrivals)
    }

    /// Plan a **preemptive** episode of a staggered session, ready for
    /// [`Episode::run`]: machine launches plus timed reclaim and resume
    /// commands, planned cohort by cohort through the policy's arrival
    /// hooks ([`accelos::policy::plan_with_arrivals`]). The first cohort
    /// is planned against only itself (no clairvoyance about future
    /// arrivals); each later cohort goes through
    /// `SchedulingPolicy::on_arrival` and may shrink running launches at
    /// their next chunk boundary — down to a resumable full pause, whose
    /// paired resume fires when the pressuring tenant retires. With
    /// all-equal arrivals and no faults the launches are exactly
    /// [`Runner::launches_in`]'s, with no reclaims.
    ///
    /// `faults` is rehearsed into the plan with the `domains` partition
    /// attached ([`FaultSchedule::from_fault_plan_with_domains`]: the
    /// [`SchedulingPolicy::on_fault`] hook pre-shrinks survivors for
    /// permanent capacity losses, a lost domain as one event, and for
    /// kernel aborts; transients are the simulator's business) and
    /// injected into the machine. The episode retries nothing: an aborted
    /// kernel stays aborted.
    ///
    /// Indices a policy declares via [`SchedulingPolicy::estimate_indices`]
    /// (the deadline family's deadlined tenant) carry the session's cached
    /// isolated-time estimates, so the policy can reclaim just enough
    /// width for an arriving deadline to hold; other indices skip the
    /// solo simulations. With a calibration store attached
    /// ([`Runner::set_profile_store`]), calibrated entries replace the
    /// solo simulations (a declared index the store has not seen still
    /// pays one, which is then recorded), and every request with an entry
    /// carries an estimate so the arrival planner can prune victims that
    /// drained before an arrival. Store-less runs are bit-identical to
    /// the pre-calibration planner.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` does not match the session's workload length.
    pub fn preemptive_episode(
        &self,
        ctx: &RepContext<'_>,
        policy: &dyn SchedulingPolicy,
        arrivals: &[u64],
        faults: &FaultPlan,
        domains: &[FailureDomain],
    ) -> Episode {
        assert_eq!(ctx.kernels.len(), arrivals.len(), "one arrival per kernel");
        let requests = ctx.exec_requests(policy.chunk_mode());
        let indices = policy.estimate_indices(&requests);
        let mut profile = self.profile.lock().unwrap();
        let estimates: Vec<Option<u64>> = if indices.is_empty() && profile.is_none() {
            Vec::new()
        } else {
            (0..ctx.kernels.len())
                .map(|i| {
                    let name = ctx.kernels[i].spec.name;
                    let items = requests[i].ndrange.total_items();
                    let calibrated = profile.as_ref().and_then(|s| s.estimate(name, items));
                    if calibrated.is_none() && indices.contains(&i) {
                        // A declared index the store has not seen: pay
                        // the exact solo simulation (as the store-less
                        // path always does) and record it, so the next
                        // session reads the store instead.
                        let t = self.isolated_time_in(ctx, policy, i);
                        if let Some(store) = profile.as_mut() {
                            store.record(name, items, t);
                        }
                        Some(t)
                    } else {
                        calibrated
                    }
                })
                .collect()
        };
        drop(profile);
        let mut plan_ctx = ctx.plan_ctx();
        if !estimates.is_empty() {
            plan_ctx = plan_ctx.with_estimates(&estimates);
        }
        let projected = FaultSchedule::from_fault_plan_with_domains(faults, domains);
        let schedule =
            plan_with_arrivals_and_faults(policy, &plan_ctx, &requests, arrivals, &projected);
        let launches = self.build_launches(
            ctx,
            policy,
            &plan_ctx,
            &requests,
            &schedule.decisions,
            arrivals,
        );
        Episode {
            reclaims: schedule.reclaims,
            resumes: schedule.resumes,
            faults: faults.clone(),
            domains: domains.to_vec(),
            ..Episode::new(launches)
        }
    }

    /// One [`KernelLaunch`] per decision, sharing the session's cost draw.
    fn build_launches(
        &self,
        ctx: &RepContext<'_>,
        policy: &dyn SchedulingPolicy,
        plan_ctx: &PlanCtx<'_>,
        requests: &[ExecRequest],
        decisions: &[LaunchDecision],
        arrivals: &[u64],
    ) -> Vec<KernelLaunch> {
        decisions
            .iter()
            .enumerate()
            .map(|(i, decision)| {
                let k = &ctx.kernels[i];
                KernelLaunch {
                    name: k.spec.name.to_string(),
                    arrival: arrivals[i],
                    req: k.req,
                    mem_intensity: k.spec.mem_intensity,
                    plan: decision.to_sim_plan(k.costs.clone(), PER_VG_OVERHEAD),
                    // Adaptive policies may grow into capacity freed when
                    // other kernels retire (the adaptivity of iterative
                    // applications, see `KernelLaunch::max_workers`), up to
                    // the share a §3 single-kernel allocation would grant.
                    max_workers: policy.solo_workers(plan_ctx, i, &requests[i]),
                }
            })
            .collect()
    }

    /// Isolated execution time of one kernel under `policy` (cached by
    /// policy name — see [`SchedulingPolicy::name`] for why the name must
    /// identify the policy's behaviour).
    pub fn isolated_time(
        &self,
        policy: &dyn SchedulingPolicy,
        spec: &'static KernelSpec,
        seed: u64,
    ) -> u64 {
        // A hit skips the session's cost draw altogether.
        if let Some(t) = self.cached_isolated_time(policy, spec.name, seed) {
            return t;
        }
        let ctx = self.rep_context(&[spec], seed);
        self.isolated_time_in(&ctx, policy, 0)
    }

    /// The isolated-time cache entry of `(kernel, seed)` under `policy`.
    fn cached_isolated_time(
        &self,
        policy: &dyn SchedulingPolicy,
        kernel: &'static str,
        seed: u64,
    ) -> Option<u64> {
        self.isolated
            .lock()
            .unwrap()
            .get(policy.name())
            .and_then(|m| m.get(&(kernel, seed)))
            .copied()
    }

    /// Isolated time of the session's kernel `index` under `policy`,
    /// reusing the session's cost draw on cache misses instead of
    /// re-drawing it.
    fn isolated_time_in(
        &self,
        ctx: &RepContext<'_>,
        policy: &dyn SchedulingPolicy,
        index: usize,
    ) -> u64 {
        let spec = ctx.kernels[index].spec;
        if let Some(t) = self.cached_isolated_time(policy, spec.name, ctx.seed) {
            return t;
        }
        let solo = Episode::new(self.launches_in(&ctx.solo(index), policy, &[0]));
        let t = solo.run(&self.device).report.total_time().max(1);
        self.isolated
            .lock()
            .unwrap()
            .entry(policy.name().to_string())
            .or_default()
            .insert((spec.name, ctx.seed), t);
        t
    }

    /// Run one workload under one policy, all requests arriving at once.
    ///
    /// # Panics
    ///
    /// Panics if `workload` is empty.
    pub fn run_workload(
        &self,
        policy: &dyn SchedulingPolicy,
        workload: &[&'static KernelSpec],
        seed: u64,
    ) -> WorkloadRun {
        let ctx = self.rep_context(workload, seed);
        self.run_in(&ctx, policy, &vec![0; workload.len()])
    }

    /// Run one workload with *staggered* arrivals — tenants joining (and
    /// leaving, as they finish) a shared node dynamically, the scenario §9
    /// says static code-merging approaches cannot handle.
    ///
    /// Shares are planned against the whole tenancy (the steady state an
    /// iterative application converges to); the simulator's elastic growth
    /// covers the join/leave transients.
    ///
    /// # Panics
    ///
    /// Panics if `workload` is empty or the lengths differ.
    pub fn run_workload_with_arrivals(
        &self,
        policy: &dyn SchedulingPolicy,
        workload: &[&'static KernelSpec],
        arrivals: &[u64],
        seed: u64,
    ) -> WorkloadRun {
        let ctx = self.rep_context(workload, seed);
        self.run_in(&ctx, policy, arrivals)
    }

    /// Run one policy against an open [`RepContext`] session. The sweep
    /// calls this once per policy of a repetition, sharing the session's
    /// cost draw and share caches across all of them.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` does not match the session's workload length.
    pub fn run_in(
        &self,
        ctx: &RepContext<'_>,
        policy: &dyn SchedulingPolicy,
        arrivals: &[u64],
    ) -> WorkloadRun {
        let report = Episode::new(self.launches_in(ctx, policy, arrivals))
            .run(&self.device)
            .report;
        self.finish_run(ctx, policy, &report)
    }

    /// Raw simulator report of a **preemptive** (cohort-planned) run
    /// with no faults: [`Runner::preemptive_episode`] run as planned. Use
    /// this when the preemption bookkeeping matters
    /// (`KernelReport::preemptions` / `reclaimed_workers` /
    /// `groups_executed`); [`Runner::run_preemptive`] wraps it into the
    /// usual metrics.
    pub fn preemptive_report(
        &self,
        ctx: &RepContext<'_>,
        policy: &dyn SchedulingPolicy,
        arrivals: &[u64],
    ) -> SimReport {
        self.faulty_report_with_domains(ctx, policy, arrivals, &FaultPlan::default(), &[])
    }

    /// Raw simulator report of a **faulty** cohort-planned run on a
    /// device partitioned into `domains`: [`Runner::preemptive_episode`]
    /// run as planned. The [`FaultPlan`] is rehearsed into the plan
    /// (policy-visible capacity losses and aborts drive
    /// [`SchedulingPolicy::on_fault`]; a permanent domain loss arrives as
    /// one whole-domain capacity event) *and* injected into the machine
    /// simulation (where [`gpu_sim::FaultKind::DomainFailure`] events
    /// resolve to correlated member failures). With an empty plan this is
    /// bit-identical to [`Runner::preemptive_report`].
    pub fn faulty_report_with_domains(
        &self,
        ctx: &RepContext<'_>,
        policy: &dyn SchedulingPolicy,
        arrivals: &[u64],
        faults: &FaultPlan,
        domains: &[FailureDomain],
    ) -> SimReport {
        self.preemptive_episode(ctx, policy, arrivals, faults, domains)
            .run(&self.device)
            .report
    }

    /// Run one staggered workload through the policy's arrival hooks
    /// (cohort planning + mid-flight reclamation). With all-equal
    /// arrivals this is bit-identical to [`Runner::run_in`]; with
    /// staggered arrivals it is the *realistic* transient — unlike
    /// [`Runner::run_workload_with_arrivals`], the first cohort is planned
    /// without clairvoyance about who joins later, and preemptive
    /// policies take workers back when premium tenants arrive.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` does not match the session's workload length.
    pub fn run_preemptive(
        &self,
        ctx: &RepContext<'_>,
        policy: &dyn SchedulingPolicy,
        arrivals: &[u64],
    ) -> WorkloadRun {
        let report = self.preemptive_report(ctx, policy, arrivals);
        self.finish_run(ctx, policy, &report)
    }

    /// Convert a shared-run report into a [`WorkloadRun`] (isolated times
    /// from the per-policy cache).
    fn finish_run(
        &self,
        ctx: &RepContext<'_>,
        policy: &dyn SchedulingPolicy,
        report: &SimReport,
    ) -> WorkloadRun {
        let names: Vec<&'static str> = ctx.kernels.iter().map(|k| k.spec.name).collect();
        let shared: Vec<u64> = report
            .kernels
            .iter()
            .map(|k| k.turnaround().max(1))
            .collect();
        let alone: Vec<u64> = (0..ctx.kernels.len())
            .map(|i| self.isolated_time_in(ctx, policy, i))
            .collect();
        let busy: Vec<IntervalSet> = report
            .kernels
            .iter()
            .map(|k| IntervalSet::from_raw(k.busy_intervals.clone()))
            .collect();
        WorkloadRun {
            names,
            shared,
            alone,
            busy,
            total_time: report.total_time().max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelos::policy::{AccelOsPolicy, BaselinePolicy, PolicySet};
    use std::sync::Arc;

    fn k(name: &str) -> &'static KernelSpec {
        KernelSpec::by_name(name).expect("kernel exists")
    }

    #[test]
    fn baseline_pair_serialises_and_is_unfair() {
        // A long kernel first, a short one behind it: the short one's
        // slowdown is dominated by the wait (paper §2.3).
        let r = Runner::new(DeviceConfig::k20m());
        let run = r.run_workload(&BaselinePolicy, &[k("mri-q_ComputeQ"), k("histo_final")], 1);
        assert!(run.unfairness() > 1.5, "baseline U = {}", run.unfairness());
        assert!(run.overlap() < 0.3, "baseline overlap = {}", run.overlap());
    }

    #[test]
    fn accelos_pair_is_fair_and_overlaps() {
        let r = Runner::new(DeviceConfig::k20m());
        let run = r.run_workload(&AccelOsPolicy::optimized(), &[k("sgemm"), k("stencil")], 1);
        assert!(run.unfairness() < 2.0, "accelOS U = {}", run.unfairness());
        assert!(run.overlap() > 0.5, "accelOS overlap = {}", run.overlap());
    }

    #[test]
    fn accelos_is_fairer_than_baseline_on_mixed_pairs() {
        // Pairs whose first kernel is long, so baseline serialisation
        // punishes the second (the paper's motivating scenario).
        let r = Runner::new(DeviceConfig::k20m());
        for pair in [
            ["lbm", "histo_final"],
            ["tpacf", "spmv"],
            ["mri-q_ComputeQ", "bfs"],
        ] {
            let wl = [k(pair[0]), k(pair[1])];
            let base = r.run_workload(&BaselinePolicy, &wl, 3);
            let acc = r.run_workload(&AccelOsPolicy::optimized(), &wl, 3);
            assert!(
                acc.unfairness() < base.unfairness(),
                "{pair:?}: accelOS {} vs baseline {}",
                acc.unfairness(),
                base.unfairness()
            );
        }
    }

    #[test]
    fn isolated_times_are_cached_and_deterministic() {
        let r = Runner::new(DeviceConfig::k20m());
        let a = r.isolated_time(&BaselinePolicy, k("bfs"), 5);
        let b = r.isolated_time(&BaselinePolicy, k("bfs"), 5);
        assert_eq!(a, b);
        let c = r.isolated_time(&BaselinePolicy, k("bfs"), 6);
        assert_ne!(a, c, "different cost draws give different times");
    }

    #[test]
    fn metrics_are_computable_for_all_policies() {
        let r = Runner::new(DeviceConfig::k20m());
        let wl = [k("histo_final"), k("mri-q_ComputePhiMag")];
        for policy in PolicySet::paper().iter() {
            let run = r.run_workload(policy.as_ref(), &wl, 9);
            assert!(run.unfairness() >= 1.0);
            assert!((0.0..=1.0).contains(&run.overlap()));
            assert!(run.stp() > 0.0);
            assert!(run.antt() >= 1.0 - 1e9);
            assert!(run.worst_antt() >= run.antt() - 1e-9);
            assert_eq!(run.names.len(), 2);
        }
    }

    #[test]
    fn one_session_serves_every_policy_of_a_rep() {
        let r = Runner::new(DeviceConfig::k20m());
        let wl = [k("sgemm"), k("spmv")];
        let ctx = r.rep_context(&wl, 11);
        let arrivals = [0, 0];
        for policy in PolicySet::paper().iter() {
            let via_session = r.run_in(&ctx, policy.as_ref(), &arrivals);
            let via_fresh = r.run_workload(policy.as_ref(), &wl, 11);
            assert_eq!(via_session, via_fresh, "{}", policy.name());
        }
        // The shared caches were actually filled by the accelOS policies.
        assert!(ctx.equal_shares.get().is_some());
        assert!(ctx.solo_shares.iter().all(|s| s.get().is_some()));
    }

    #[test]
    fn preemptive_path_matches_plain_path_without_arrivals() {
        let r = Runner::new(DeviceConfig::k20m());
        let wl = [k("sgemm"), k("spmv"), k("stencil")];
        let mut set = PolicySet::paper();
        set.push(std::sync::Arc::new(
            accelos::policy::PriorityPolicy::default(),
        ))
        .unwrap();
        set.push(std::sync::Arc::new(
            accelos::policy::DeadlinePolicy::default(),
        ))
        .unwrap();
        set.push(std::sync::Arc::new(accelos::policy::SlaPolicy::new(&[
            4, 2, 0,
        ])))
        .unwrap();
        let arrivals = [0, 0, 0];
        for policy in set.iter() {
            let ctx = r.rep_context(&wl, 17);
            let preemptive = r.run_preemptive(&ctx, policy.as_ref(), &arrivals);
            let plain = r.run_in(&ctx, policy.as_ref(), &arrivals);
            assert_eq!(preemptive, plain, "{}", policy.name());
        }
    }

    #[test]
    fn priority_preemption_cuts_premium_turnaround() {
        use accelos::policy::{AccelOsPolicy, PriorityPolicy};
        let r = Runner::new(DeviceConfig::k20m());
        // Premium tenant first in the workload (accelos-priority treats
        // index 0 as premium), arriving a quarter into the batch tenants'
        // run.
        let wl = [k("sgemm"), k("lbm"), k("tpacf")];
        let accelos = AccelOsPolicy::optimized();
        let t_batch = r.isolated_time(&accelos, wl[1], 21);
        let arrivals = [t_batch / 4, 0, 0];
        let ctx = r.rep_context(&wl, 21);
        let queueing = r.preemptive_report(&ctx, &accelos, &arrivals);
        let episode = r.preemptive_episode(
            &ctx,
            &PriorityPolicy::default(),
            &arrivals,
            &FaultPlan::default(),
            &[],
        );
        let preempting = episode.run(r.device()).report;
        let t_queue = queueing.kernels[0].turnaround();
        let t_preempt = preempting.kernels[0].turnaround();
        assert!(
            (t_preempt as f64) * 1.5 <= t_queue as f64,
            "preemption should cut premium turnaround ≥1.5x: {t_preempt} vs {t_queue}"
        );
        // The batch tenants really were reclaimed, and no work was lost.
        assert!(preempting.kernels[1..]
            .iter()
            .all(|k| k.preemptions == 1 && k.reclaimed_workers > 0));
        assert_eq!(queueing.kernels[0].preemptions, 0);
        for (k, launch) in preempting.kernels.iter().zip(&episode.launches) {
            assert_eq!(k.groups_executed as u64, launch.plan.total_groups());
        }
    }

    #[test]
    fn repeated_kernels_share_one_draw() {
        let r = Runner::new(DeviceConfig::k20m());
        let wl = [k("bfs"), k("bfs")];
        let ctx = r.rep_context(&wl, 3);
        assert!(
            Arc::ptr_eq(ctx.costs(0), ctx.costs(1)),
            "same kernel in one session should share its cost table"
        );
    }
}
