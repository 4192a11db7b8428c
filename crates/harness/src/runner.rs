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
//! same session, so nothing is recomputed per policy.
//!
//! Per-work-group resources come from *compiling* each kernel (registers,
//! local memory, §6.4 instruction counts); per-work-group costs come from
//! each kernel's calibrated cost profile, seeded per repetition so that the
//! paper's 20-repetition averaging has variance to average over.

use accelos::chunk::{chunk_for, Mode};
use accelos::episode::Episode;
use accelos::policy::{plan_with_arrivals_and_faults, FaultSchedule, PlanCtx, SchedulingPolicy};
use accelos::resource::{ResourceDemand, ShareAllocation};
use accelos::scheduler::{DecisionKind, ExecRequest, LaunchDecision};
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

/// The policy-independent facts of one kernel: what a session and a solo
/// lookup both plan from.
#[derive(Debug, Clone, Copy)]
struct KernelFacts {
    spec: &'static KernelSpec,
    req: WorkGroupReq,
    demand: ResourceDemand,
    insn_count: usize,
}

impl KernelFacts {
    fn new(db: &KernelDb, spec: &'static KernelSpec) -> Self {
        let (_, profile) = db.get(spec.name).expect("spec from the same table");
        let req = WorkGroupReq {
            threads: spec.wg_size,
            local_mem: profile.static_local_bytes as u32,
            regs_per_thread: profile.regs_per_item.max(1) as u32,
        };
        KernelFacts {
            spec,
            req,
            demand: ResourceDemand {
                wg_threads: req.threads,
                wg_local_mem: req.local_mem,
                wg_regs: req.regs_total(),
                original_wgs: spec.default_wgs,
            },
            insn_count: profile.insn_count,
        }
    }

    /// The kernel's request, with its dequeue chunk compiled for `mode`.
    fn request(&self, mode: Mode) -> ExecRequest {
        ExecRequest {
            kernel: self.spec.name.into(),
            ndrange: self.spec.default_ndrange(),
            demand: self.demand,
            chunk: chunk_for(self.insn_count, mode),
        }
    }

    /// The machine launch of `decision` over the cost table `costs`.
    fn launch(
        &self,
        decision: &LaunchDecision,
        costs: Costs,
        arrival: u64,
        max_workers: Option<u32>,
    ) -> KernelLaunch {
        KernelLaunch {
            name: self.spec.name.to_string(),
            arrival,
            req: self.req,
            mem_intensity: self.spec.mem_intensity,
            plan: decision.to_sim_plan(costs, PER_VG_OVERHEAD),
            max_workers,
        }
    }
}

/// The calibrated cost draw of `spec` at `seed`, drawn straight into the
/// shared table (one allocation).
fn draw_costs(spec: &KernelSpec, seed: u64) -> Costs {
    let mut costs: Costs = iter::repeat_n(0, spec.default_wgs as usize).collect();
    let table = Arc::get_mut(&mut costs).expect("a fresh table is unshared");
    spec.fill_vg_costs(seed, table);
    costs
}

/// A kernel's solo launch up to its cost draw: the kernel, and the
/// policy's solo decision and growth ceiling. With the cost seed it
/// determines the launch, hence its isolated time on the runner's
/// (deterministic) device, so policies whose solo launches agree share
/// one cache entry, whatever their names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SoloLaunch {
    kernel: &'static str,
    kind: DecisionKind,
    workers: u32,
    chunk: u32,
    solo_workers: Option<u32>,
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
    kernels: Vec<KernelFacts>,
    costs: Vec<Costs>,
    equal_shares: OnceLock<(Vec<ResourceDemand>, ShareAllocation)>,
    solo_shares: Vec<OnceLock<(ResourceDemand, u32)>>,
}

impl<'r> RepContext<'r> {
    fn new(runner: &'r Runner, workload: &[&'static KernelSpec], seed: u64) -> Self {
        assert!(!workload.is_empty(), "workloads need at least one kernel");
        // The draw is a deterministic function of (kernel, n, seed), so a
        // kernel appearing twice in a workload shares one table.
        let mut draws: HashMap<&'static str, Costs> = HashMap::new();
        let costs = workload
            .iter()
            .map(|spec| {
                draws
                    .entry(spec.name)
                    .or_insert_with(|| draw_costs(spec, seed))
                    .clone()
            })
            .collect();
        RepContext {
            runner,
            seed,
            kernels: workload
                .iter()
                .map(|&spec| KernelFacts::new(&runner.db, spec))
                .collect(),
            costs,
            equal_shares: OnceLock::new(),
            solo_shares: workload.iter().map(|_| OnceLock::new()).collect(),
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
        &self.costs[index]
    }

    /// The planning context policies receive: the device plus this
    /// session's share caches.
    pub fn plan_ctx(&self) -> PlanCtx<'_> {
        PlanCtx::with_caches(&self.runner.device, &self.equal_shares, &self.solo_shares)
    }

    /// The batch as [`ExecRequest`]s, with dequeue chunks compiled for
    /// `mode` (policies report their mode via
    /// [`SchedulingPolicy::chunk_mode`]).
    pub fn exec_requests(&self, mode: Mode) -> Vec<ExecRequest> {
        self.kernels.iter().map(|k| k.request(mode)).collect()
    }
}

/// Runs workloads on one device with cached kernel compilation and cached
/// isolated-execution times.
#[derive(Debug)]
pub struct Runner {
    device: DeviceConfig,
    db: KernelDb,
    /// Isolated times, keyed by the solo launch they simulate and then by
    /// its cost seed. The few launches hold the many seeds, so an entry
    /// costs one `u64` pair. Runner-wide and never pruned: units of a
    /// sweep share cost draws and first kernels, so a narrower lifetime
    /// would re-simulate.
    isolated: Mutex<HashMap<SoloLaunch, HashMap<u64, u64>>>,
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
                // Adaptive policies may grow into capacity freed when other
                // kernels retire (the adaptivity of iterative applications,
                // see `KernelLaunch::max_workers`), up to the share a §3
                // single-kernel allocation would grant.
                let max_workers = policy.solo_workers(plan_ctx, i, &requests[i]);
                ctx.kernels[i].launch(decision, ctx.costs[i].clone(), arrivals[i], max_workers)
            })
            .collect()
    }

    /// Isolated execution time of one kernel under `policy`: its solo
    /// launch simulated alone on the device, cached by that launch.
    pub fn isolated_time(
        &self,
        policy: &dyn SchedulingPolicy,
        spec: &'static KernelSpec,
        seed: u64,
    ) -> u64 {
        let facts = KernelFacts::new(&self.db, spec);
        self.solo_time(policy, &facts, seed, || draw_costs(spec, seed))
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
        let costs = || ctx.costs[index].clone();
        self.solo_time(policy, &ctx.kernels[index], ctx.seed, costs)
    }

    /// The isolated-time cache's one lookup-or-simulate path. The solo
    /// launch is planned on a cache-free [`PlanCtx`] (planning reads no
    /// costs), so a hit never touches `costs`; a miss takes the table and
    /// simulates.
    fn solo_time(
        &self,
        policy: &dyn SchedulingPolicy,
        kernel: &KernelFacts,
        seed: u64,
        costs: impl FnOnce() -> Costs,
    ) -> u64 {
        let request = kernel.request(policy.chunk_mode());
        let plan_ctx = PlanCtx::new(&self.device);
        let decision = policy
            .plan(&plan_ctx, std::slice::from_ref(&request))
            .pop()
            .expect("one decision per request");
        let solo_workers = policy.solo_workers(&plan_ctx, 0, &request);
        let key = SoloLaunch {
            kernel: kernel.spec.name,
            kind: decision.kind,
            workers: decision.workers,
            chunk: decision.chunk,
            solo_workers,
        };
        let cached = self
            .isolated
            .lock()
            .expect("no thread panics holding the cache")
            .get(&key)
            .and_then(|m| m.get(&seed).copied());
        if let Some(t) = cached {
            return t;
        }
        let launch = kernel.launch(&decision, costs(), 0, solo_workers);
        let t = Episode::new(vec![launch])
            .run(&self.device)
            .report
            .total_time()
            .max(1);
        self.isolated
            .lock()
            .expect("no thread panics holding the cache")
            .entry(key)
            .or_default()
            .insert(seed, t);
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
    /// [`Runner::run_in`], which plans shares against the whole tenancy
    /// and leaves the join/leave transients to elastic growth, the first
    /// cohort is planned without clairvoyance about who joins later, and
    /// preemptive policies take workers back when premium tenants arrive.
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
    /// from the solo-launch cache).
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

    /// Another policy's behaviour under a chosen name.
    #[derive(Debug)]
    struct Renamed(&'static str, Arc<dyn SchedulingPolicy>);

    impl SchedulingPolicy for Renamed {
        fn name(&self) -> &str {
            self.0
        }

        fn chunk_mode(&self) -> Mode {
            self.1.chunk_mode()
        }

        fn plan(&self, ctx: &PlanCtx, requests: &[ExecRequest]) -> Vec<LaunchDecision> {
            self.1.plan(ctx, requests)
        }

        fn solo_workers(&self, ctx: &PlanCtx, index: usize, request: &ExecRequest) -> Option<u32> {
            self.1.solo_workers(ctx, index, request)
        }
    }

    #[test]
    fn same_named_policies_keep_their_own_isolated_times() {
        let r = Runner::new(DeviceConfig::k20m());
        let spec = k("bfs");
        let baseline = r.isolated_time(&BaselinePolicy, spec, 5);
        let accelos = r.isolated_time(&AccelOsPolicy::optimized(), spec, 5);
        assert_ne!(baseline, accelos, "the two solo plans must differ");
        let as_baseline = Renamed("twin", Arc::new(BaselinePolicy));
        let as_accelos = Renamed("twin", Arc::new(AccelOsPolicy::optimized()));
        assert_eq!(r.isolated_time(&as_baseline, spec, 5), baseline);
        assert_eq!(r.isolated_time(&as_accelos, spec, 5), accelos);
    }

    #[test]
    fn equal_solo_launches_share_one_cache_entry() {
        let r = Runner::new(DeviceConfig::k20m());
        let set = PolicySet::parse("accelos,accelos-priority,accelos-deadline,accelos-sla")
            .expect("registry names");
        let keys = [(k("sgemm"), 3), (k("sgemm"), 4), (k("spmv"), 3)];
        for (spec, seed) in keys {
            let times: Vec<u64> = set
                .iter()
                .map(|p| r.isolated_time(p.as_ref(), spec, seed))
                .collect();
            assert!(
                times.iter().all(|&t| t == times[0]),
                "{}: {times:?}",
                spec.name
            );
        }
        let isolated = r.isolated.lock().unwrap();
        assert_eq!(isolated.len(), 2, "one solo launch per kernel");
        assert_eq!(
            isolated.values().map(HashMap::len).sum::<usize>(),
            keys.len()
        );
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
            assert!(run.antt() >= 1.0 - 1e-9);
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
