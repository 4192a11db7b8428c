//! ProxyCL: the transparent application interface (paper §4 level 2, §5
//! "Application Monitor").
//!
//! Applications written against the `clrt` host API can run against
//! [`ProxyCl`] unchanged: buffers, programs, kernels and enqueues keep their
//! shapes. Underneath, the Application Monitor routes each request through
//! the paper's finite state machine (fig. 6):
//!
//! * **new program** → the JIT compiler transforms the kernels
//!   ([`crate::jit`]) and the original operation proceeds with the
//!   transformed code;
//! * **new kernel execution** → the Kernel Scheduler
//!   ([`crate::scheduler`]) alters the number of work groups and launches;
//! * **anything else** → passes through untouched.

use crate::chunk::Mode;
use crate::jit::{transform_module, TransformInfo};
use crate::policy::{
    plan_with_arrivals_and_faults, AccelOsPolicy, FaultSchedule, PlanCtx, SchedulingPolicy,
};
use crate::scheduler::{ExecRequest, LaunchDecision};
use crate::vrange::DESCRIPTOR_LEN;
use clrt::{Arg, Buffer, ClError, Context, Event, Kernel, Platform, Program};
use gpu_sim::{
    FaultEvent, FaultKind, FaultPlan, KernelLaunch, LaunchId, ReclaimCmd, ResumeCmd, SimReport,
    Simulator,
};
use kernel_ir::interp::{ArgValue, DynStats, Interpreter, NdRange};
use sched_metrics::profile::ProfileStore;
use std::sync::Arc;

/// The request classes the Application Monitor distinguishes (fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppRequest {
    /// `clCreateProgramWithSource`/`clBuildProgram`.
    NewProgram,
    /// `clEnqueueNDRangeKernel`.
    NewKernelExec,
    /// Any other OpenCL call.
    Other,
}

/// What the monitor does with a request (fig. 6's three arrows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorAction {
    /// Hand the kernel code to the JIT compiler.
    JitCompile,
    /// Hand the launch to the Kernel Scheduler.
    Schedule,
    /// accelOS does not intervene.
    PassThrough,
}

/// The Application Monitor's routing function.
///
/// # Examples
///
/// ```
/// use accelos::proxycl::{route, AppRequest, MonitorAction};
/// assert_eq!(route(AppRequest::NewProgram), MonitorAction::JitCompile);
/// assert_eq!(route(AppRequest::NewKernelExec), MonitorAction::Schedule);
/// assert_eq!(route(AppRequest::Other), MonitorAction::PassThrough);
/// ```
pub fn route(request: AppRequest) -> MonitorAction {
    match request {
        AppRequest::NewProgram => MonitorAction::JitCompile,
        AppRequest::NewKernelExec => MonitorAction::Schedule,
        AppRequest::Other => MonitorAction::PassThrough,
    }
}

/// A program built through accelOS: the transformed module plus metadata.
#[derive(Debug, Clone)]
pub struct ProxyProgram {
    program: Program,
    infos: Vec<TransformInfo>,
}

impl ProxyProgram {
    /// Instantiate a kernel by its **original** name (transparency: the JIT
    /// kept scheduling kernels under the application's names).
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidKernelName`] for unknown kernels.
    pub fn create_kernel(&self, name: &str) -> Result<Kernel, ClError> {
        self.program.create_kernel(name)
    }

    /// Transform metadata for one kernel.
    pub fn info(&self, name: &str) -> Option<&TransformInfo> {
        self.infos.iter().find(|i| i.kernel == name)
    }

    /// The transformed program.
    pub fn program(&self) -> &Program {
        &self.program
    }
}

/// Bounded retry with exponential backoff for kernel executions killed by
/// an injected [`gpu_sim::FaultKind::KernelAbort`] (paper §5: recovery is
/// the runtime's job, not the device's).
///
/// Backoff runs in *virtual* device time, so recovery latency is part of
/// the deterministic timeline: retry `n` of a request re-enters the
/// device [`RetryPolicy::backoff_delay`]`(n - 1)` cycles after the abort
/// it recovers from.
///
/// With `checkpoint` set (the default), a retry resumes from the abort's
/// completed-group count — the runtime re-enqueues only the unfinished
/// tail of the virtual NDRange ([`gpu_sim::LaunchPlan::tail`]) instead of
/// re-executing the full launch, so total executed groups across
/// incarnations equal the plan's `total_groups()` exactly. Clearing it
/// restores full re-execution (each incarnation replays from group 0),
/// which re-pays every group the aborted incarnations already finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed per request after its first abort. `0` fails fast:
    /// any abort surfaces as [`ClError::ExecutionFailure`].
    pub max_attempts: u32,
    /// Virtual-time delay before the first retry; doubles per attempt,
    /// saturating at `u64::MAX` (see [`RetryPolicy::backoff_delay`]).
    pub base_backoff: u64,
    /// Resume retries from the aborted incarnation's completed-group
    /// checkpoint instead of re-executing the full launch.
    pub checkpoint: bool,
}

impl RetryPolicy {
    /// Backoff delay inserted before the next retry when `prior` retries
    /// have already been spent: `base_backoff << prior`, saturating at
    /// `u64::MAX` instead of overflowing once the doubling escapes 64
    /// bits. A pathological budget (say `max_attempts` in the hundreds)
    /// must exhaust deterministically, not panic in debug builds or wrap
    /// to a *zero* delay in release builds.
    ///
    /// ```
    /// use accelos::proxycl::RetryPolicy;
    /// let retry = RetryPolicy { base_backoff: u64::MAX / 2, ..RetryPolicy::default() };
    /// assert_eq!(retry.backoff_delay(2), u64::MAX); // saturates, not 4x-wraps
    /// assert_eq!(retry.backoff_delay(200), u64::MAX); // shift >= 64 saturates too
    /// ```
    pub fn backoff_delay(&self, prior: u32) -> u64 {
        match 1u64.checked_shl(prior) {
            Some(factor) => self.base_backoff.saturating_mul(factor),
            None if self.base_backoff == 0 => 0,
            None => u64::MAX,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: 1_000,
            checkpoint: true,
        }
    }
}

/// One pending kernel execution request inside a batch.
#[derive(Debug, Clone)]
pub struct PendingExec {
    /// The kernel, with all application arguments bound.
    pub kernel: Kernel,
    /// Dequeue chunk from the transform metadata.
    pub chunk: u32,
    /// The original (application-visible) launch geometry.
    pub ndrange: NdRange,
}

/// The accelOS runtime seen by one application (or, via
/// [`ProxyCl::enqueue_concurrent`], a batch of concurrently arriving
/// requests from several applications).
///
/// # Examples
///
/// ```
/// use accelos::chunk::Mode;
/// use accelos::proxycl::ProxyCl;
/// use clrt::{Arg, Platform};
/// use kernel_ir::interp::NdRange;
///
/// # fn main() -> Result<(), clrt::ClError> {
/// let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized);
/// let program = os.build_program(
///     "kernel void sq(global float* b) {
///         size_t i = get_global_id(0);
///         b[i] = b[i] * b[i];
///     }",
/// )?;
/// let mut kernel = program.create_kernel("sq")?;
/// let buf = os.context_mut().create_buffer(8 * 4);
/// os.context_mut().write_f32(buf, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])?;
/// kernel.set_arg(0, Arg::Buffer(buf))?;
///
/// let event = os.enqueue(&program, &kernel, NdRange::new_1d(8, 4))?;
/// assert!(event.end > event.start);
/// assert_eq!(os.context_mut().read_f32(buf)?[2], 9.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProxyCl {
    ctx: Context,
    policy: Arc<dyn SchedulingPolicy>,
    cursor: u64,
    faults: FaultPlan,
    retry: RetryPolicy,
    profile: Option<ProfileStore>,
    last_report: Option<SimReport>,
    /// The Virtual NDRange descriptor buffer, allocated on the first launch
    /// and rewritten before every later one (device memory cannot be
    /// freed, so a buffer per launch would grow without bound).
    descriptor: Option<Buffer>,
}

impl ProxyCl {
    /// Attach the accelOS runtime to a platform, scheduling with the
    /// paper's equal-share policy in the given §6.4 chunking mode.
    pub fn new(platform: &Platform, mode: Mode) -> Self {
        let policy: Arc<dyn SchedulingPolicy> = match mode {
            Mode::Naive => Arc::new(AccelOsPolicy::naive()),
            Mode::Optimized => Arc::new(AccelOsPolicy::optimized()),
        };
        ProxyCl::with_policy(platform, policy)
    }

    /// Attach the runtime with an explicit [`SchedulingPolicy`] — the
    /// functional and timing planes both follow the policy's decisions, so
    /// any policy (weighted shares, guided dequeues, a custom object)
    /// drives transparent sharing end to end.
    pub fn with_policy(platform: &Platform, policy: Arc<dyn SchedulingPolicy>) -> Self {
        ProxyCl {
            ctx: Context::new(platform),
            policy,
            cursor: 0,
            faults: FaultPlan::default(),
            retry: RetryPolicy::default(),
            profile: None,
            last_report: None,
            descriptor: None,
        }
    }

    /// Attach a calibration store (the paper's missing piece in the
    /// transparent plane): every [`ProxyCl::enqueue_concurrent_at`] feeds
    /// the store's isolated-time estimates into the planning context —
    /// which is what lets `accelos-deadline` size a just-enough
    /// reclamation here, exactly as it does in the harness — and records
    /// a width-normalized observation
    /// ([`gpu_sim::KernelReport::isolated_observation`]) from every
    /// completed launch back into it. Load a warmed store with
    /// [`ProfileStore::load`], retrieve it for saving with
    /// [`ProxyCl::take_profile_store`]. Without a store (the default)
    /// planning is bit-identical to previous sessions: estimate-driven
    /// policies take their documented no-estimate fallback.
    pub fn with_profile_store(mut self, store: ProfileStore) -> Self {
        self.profile = Some(store);
        self
    }

    /// The attached calibration store, if any.
    pub fn profile_store(&self) -> Option<&ProfileStore> {
        self.profile.as_ref()
    }

    /// Detach and return the calibration store (e.g. to
    /// [`ProfileStore::save`] it at session end); later enqueues plan
    /// without estimates again.
    pub fn take_profile_store(&mut self) -> Option<ProfileStore> {
        self.profile.take()
    }

    /// The timing-plane report of the most recent enqueue (per-kernel
    /// busy intervals, reclaimed/resumed worker counts, makespan) —
    /// what the deadline examples assert minimal reclamation on.
    pub fn last_report(&self) -> Option<&SimReport> {
        self.last_report.as_ref()
    }

    /// Rehearse a [`FaultPlan`] on the timing plane: every subsequent
    /// enqueue injects the plan's device faults into its joint machine
    /// simulation and the policy pre-shrinks survivors through
    /// [`SchedulingPolicy::on_fault`]. A plan's
    /// [`gpu_sim::FaultKind::KernelAbort`] events index requests *within
    /// one batch* (abort of `LaunchId(i)` kills batch request `i`), and
    /// aborted requests are retried with backoff per the active
    /// [`RetryPolicy`]. Functional results are never affected — faults
    /// model device behaviour, not data corruption. The default (empty)
    /// plan leaves the timeline bit-identical to a fault-free runtime.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Replace the abort-recovery [`RetryPolicy`].
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The wrapped context (buffers and reads pass through untouched —
    /// fig. 6 case (c)).
    pub fn context_mut(&mut self) -> &mut Context {
        &mut self.ctx
    }

    /// Which accelOS variant is active (the active policy's chunking mode).
    pub fn mode(&self) -> Mode {
        self.policy.chunk_mode()
    }

    /// The scheduling policy deciding launches.
    pub fn policy(&self) -> &Arc<dyn SchedulingPolicy> {
        &self.policy
    }

    /// Intercepted program build (fig. 6 case (a)): compile, JIT-transform,
    /// and return a program whose kernels are scheduling kernels.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::BuildFailure`] on front-end or JIT errors.
    pub fn build_program(&mut self, source: &str) -> Result<ProxyProgram, ClError> {
        let module = minicl::compile(source).map_err(|e| ClError::BuildFailure(e.to_string()))?;
        let transformed = transform_module(&module, self.mode())
            .map_err(|e| ClError::BuildFailure(e.to_string()))?;
        let program = Program::from_module(transformed.module, source)?;
        Ok(ProxyProgram {
            program,
            infos: transformed.kernels,
        })
    }

    /// Intercepted single-kernel enqueue (fig. 6 case (b)).
    ///
    /// # Errors
    ///
    /// See [`ProxyCl::enqueue_concurrent`].
    pub fn enqueue(
        &mut self,
        program: &ProxyProgram,
        kernel: &Kernel,
        ndrange: NdRange,
    ) -> Result<Event, ClError> {
        let chunk = program
            .info(kernel.name())
            .ok_or_else(|| ClError::InvalidKernelName(kernel.name().to_string()))?
            .chunk;
        let pending = vec![PendingExec {
            kernel: kernel.clone(),
            chunk,
            ndrange,
        }];
        Ok(self.enqueue_concurrent(pending)?.remove(0))
    }

    /// Schedule a batch of concurrently arriving kernel execution requests:
    /// the Kernel Scheduler divides the accelerator among them (§3), every
    /// kernel runs functionally over the reduced range, and device times
    /// come from one joint machine simulation in which the persistent
    /// workers of all kernels co-execute.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidArgs`] for unbound arguments or an empty
    /// batch, and [`ClError::ExecutionFailure`] if any kernel faults.
    pub fn enqueue_concurrent(&mut self, batch: Vec<PendingExec>) -> Result<Vec<Event>, ClError> {
        let arrivals = vec![0; batch.len()];
        self.enqueue_concurrent_at(batch, &arrivals)
    }

    /// Schedule a **staggered** batch: request `i` joins the device
    /// timeline at offset `arrivals[i]` (cycles relative to the batch's
    /// start). Cohorts are planned through the policy's
    /// [`SchedulingPolicy::on_arrival`] hook, so a preemptive policy
    /// (e.g. `accelos-priority`) reclaims workers from running tenants at
    /// chunk boundaries ([`gpu_sim::ReclaimCmd`]) instead of queueing the
    /// arrival behind them — full pauses included, whose paired
    /// [`gpu_sim::ResumeCmd`]s wake the victims when the pressuring
    /// tenant retires. With all-zero arrivals this is exactly
    /// [`ProxyCl::enqueue_concurrent`].
    ///
    /// Isolated-time estimates come from the attached calibration store
    /// ([`ProxyCl::with_profile_store`]): each request resolves through
    /// the store's `(kernel, shape class)` entries and the estimates ride
    /// into the planning context, so estimate-driven policies
    /// (`accelos-deadline`) size just-enough reclamations here exactly as
    /// they do in the harness, and the cohort planner prunes
    /// already-drained tenants from its running set. Completed launches
    /// feed width-normalized observations back into the store, so a
    /// session calibrates itself as it runs. Without a store, planning is
    /// estimate-free and bit-identical to previous sessions:
    /// estimate-driven policies take their documented no-estimate
    /// fallback (all-or-floor, like `accelos-priority`) — deadlines still
    /// hold, more aggressively than necessary.
    ///
    /// # Errors
    ///
    /// As [`ProxyCl::enqueue_concurrent`], plus [`ClError::InvalidArgs`]
    /// when the arrival count does not match the batch.
    pub fn enqueue_concurrent_at(
        &mut self,
        batch: Vec<PendingExec>,
        arrivals: &[u64],
    ) -> Result<Vec<Event>, ClError> {
        if batch.is_empty() {
            return Err(ClError::InvalidArgs("empty execution batch".into()));
        }
        if batch.len() != arrivals.len() {
            return Err(ClError::InvalidArgs(
                "one arrival offset per batched request".into(),
            ));
        }

        // Kernel Scheduler: one policy plan across the whole batch (the
        // paper's default policy is equal §3 shares; see
        // [`ProxyCl::with_policy`] for running other policies). Staggered
        // batches plan cohort by cohort through the arrival hooks.
        let requests: Vec<ExecRequest> = batch
            .iter()
            .map(|p| {
                let req = clrt::launch_requirements(&p.kernel, p.ndrange);
                ExecRequest::new(
                    p.kernel.name(),
                    p.ndrange,
                    req.local_mem,
                    req.regs_per_thread,
                    p.chunk,
                )
            })
            .collect();

        // Split the fault plan: abort event `j` of request `i` applies to
        // its `j`-th incarnation (0 = the original launch), so each abort
        // consumes one retry life; device-level faults (CU failures,
        // stragglers) replay identically in every retry simulation.
        let mut abort_times: Vec<Vec<u64>> = vec![Vec::new(); batch.len()];
        let mut device_faults: Vec<FaultEvent> = Vec::new();
        for ev in &self.faults.events {
            match ev.kind {
                FaultKind::KernelAbort { launch } => {
                    let i = launch.0 as usize;
                    if i >= batch.len() {
                        return Err(ClError::InvalidArgs(format!(
                            "fault plan aborts request {i}, but the batch has {} requests",
                            batch.len()
                        )));
                    }
                    abort_times[i].push(ev.at);
                }
                _ => device_faults.push(*ev),
            }
        }

        // Calibration plane: resolve each request through the profile
        // store (estimates are free here — no solo simulation — so every
        // index gets one, not just the policy's declared indices; the
        // cohort planner's stale-victim pruning uses the extras). With no
        // store the context stays estimate-free, bit-identical to a
        // store-less session.
        let estimates: Vec<Option<u64>> = match &self.profile {
            Some(store) => batch
                .iter()
                .map(|p| store.estimate(p.kernel.name(), p.ndrange.total_items()))
                .collect(),
            None => Vec::new(),
        };
        let mut planning_ctx = PlanCtx::new(self.ctx.device());
        if estimates.iter().any(Option::is_some) {
            planning_ctx = planning_ctx.with_estimates(&estimates);
        }
        let schedule = plan_with_arrivals_and_faults(
            self.policy.as_ref(),
            &planning_ctx,
            &requests,
            arrivals,
            &FaultSchedule::from_fault_plan(&self.faults),
        );
        let decisions = schedule.decisions;

        // Functional plane: run each transformed kernel over its reduced
        // hardware range with the Virtual NDRange descriptor appended.
        let mut all_stats: Vec<DynStats> = Vec::with_capacity(batch.len());
        for (pending, decision) in batch.iter().zip(&decisions) {
            let stats = self.run_functional(pending, decision)?;
            all_stats.push(stats);
        }

        // Timing plane: all launches co-execute in one simulation. In a
        // staggered batch, tenants join and leave mid-run, so each launch
        // gets the policy's solo-share growth ceiling — without it a
        // reclaimed tenant could never regrow once the premium work
        // retires (the give-back half of the preemption cycle). The
        // all-simultaneous path keeps the historical static launches.
        let device = self.ctx.device().clone();
        let staggered = arrivals.iter().any(|&a| a != arrivals[0]);
        let plan_ctx = PlanCtx::new(self.ctx.device());
        let mut launches: Vec<KernelLaunch> = Vec::with_capacity(batch.len());
        for (i, ((pending, decision), stats)) in
            batch.iter().zip(&decisions).zip(&all_stats).enumerate()
        {
            let total_vgs = decision.descriptor[1] as u64;
            let per_vg = if total_vgs == 0 {
                1
            } else {
                (stats.total_insns / total_vgs.max(1)).max(1)
            };
            let vg_costs = vec![per_vg; total_vgs as usize];
            let mem_intensity = if stats.total_insns == 0 {
                0.0
            } else {
                (stats.mem_ops as f64 / stats.total_insns as f64).min(1.0)
            };
            let req = clrt::launch_requirements(&pending.kernel, pending.ndrange);
            launches.push(KernelLaunch {
                name: pending.kernel.name().to_string(),
                arrival: arrivals[i],
                req,
                mem_intensity,
                plan: decision.to_sim_plan(vg_costs, 1),
                max_workers: if staggered {
                    self.policy.solo_workers(&plan_ctx, i, &requests[i])
                } else {
                    None
                },
            });
        }

        // Recovery loop: simulate, and if a request's newest incarnation
        // was aborted, respawn a retry copy `backoff_delay(n)` cycles
        // after the abort and re-simulate the whole episode. Identical
        // launches replay identically, so each iteration extends the
        // previous timeline deterministically; an empty fault plan takes
        // exactly one iteration with the historical launch set. A retry
        // copy carries the abort's checkpoint — the cumulative group
        // count completed by every earlier incarnation — and (under
        // `RetryPolicy::checkpoint`) resumes from the plan's unfinished
        // tail rather than group 0.
        let retry = self.retry;
        let mut copies: Vec<Vec<(u64, u64)>> = vec![Vec::new(); batch.len()];
        let (report, lineage) = loop {
            let mut sim = Simulator::new(device.clone());
            let mut lineage: Vec<Vec<LaunchId>> = Vec::with_capacity(batch.len());
            for launch in &launches {
                lineage.push(vec![sim.add_launch(launch.clone())]);
            }
            for (i, arrs) in copies.iter().enumerate() {
                for &(arrival, resume_from) in arrs {
                    let mut copy = launches[i].clone();
                    copy.arrival = arrival;
                    if resume_from > 0 {
                        copy.plan = launches[i].plan.tail(resume_from);
                    }
                    let id = sim.add_launch(copy);
                    lineage[i].push(id);
                }
            }
            for r in &schedule.reclaims {
                sim.add_reclaim(ReclaimCmd {
                    at: r.at,
                    launch: lineage[r.index][0],
                    workers: r.workers,
                    pressure: r.pressure.map(|p| lineage[p][0]),
                    chunk: None,
                });
            }
            for r in &schedule.resumes {
                sim.add_resume(ResumeCmd {
                    after: lineage[r.after][0],
                    launch: lineage[r.index][0],
                    workers: r.workers,
                });
            }
            for ev in &device_faults {
                sim.add_fault(*ev);
            }
            for (i, times) in abort_times.iter().enumerate() {
                for (j, &at) in times.iter().enumerate() {
                    // Abort j targets incarnation j; later aborts wait for
                    // the retry copy they will kill to exist.
                    if let Some(&id) = lineage[i].get(j) {
                        sim.add_fault(FaultEvent {
                            at,
                            kind: FaultKind::KernelAbort { launch: id },
                        });
                    }
                }
            }
            let report = sim.run();

            let mut respawned = false;
            for (i, ids) in lineage.iter().enumerate() {
                let newest = report.kernel(*ids.last().expect("lineage is never empty"));
                if !newest.aborted {
                    continue;
                }
                let spent = copies[i].len() as u32;
                if spent >= retry.max_attempts {
                    return Err(ClError::ExecutionFailure(format!(
                        "kernel '{}' aborted {} time(s); retry budget ({}) exhausted",
                        batch[i].kernel.name(),
                        spent + 1,
                        retry.max_attempts,
                    )));
                }
                let checkpoint: u64 = if retry.checkpoint {
                    ids.iter()
                        .map(|&id| report.kernel(id).groups_executed as u64)
                        .sum()
                } else {
                    0
                };
                let arrival = newest.end.saturating_add(retry.backoff_delay(spent));
                copies[i].push((arrival, checkpoint));
                respawned = true;
            }
            if !respawned {
                break (report, lineage);
            }
        };

        // Calibration plane, write side: every completed launch feeds a
        // width-normalized isolated-time observation back into the store
        // (the retry loop only breaks once no newest incarnation is
        // aborted, so the last incarnation is always the completed one).
        // A checkpointed retry's last incarnation executed only the
        // unfinished tail, so its busy time describes a fraction of the
        // kernel — recording it would poison the estimate; skip those.
        if let Some(store) = self.profile.as_mut() {
            let plan_ctx = PlanCtx::new(self.ctx.device());
            for (i, (pending, ids)) in batch.iter().zip(&lineage).enumerate() {
                let newest = report.kernel(*ids.last().expect("lineage is never empty"));
                if newest.groups_executed as u64 != launches[i].plan.total_groups() {
                    continue;
                }
                let solo = plan_ctx.solo_share(i, &requests[i].demand);
                if let Some(obs) = newest.isolated_observation(decisions[i].workers, solo) {
                    store.record(pending.kernel.name(), pending.ndrange.total_items(), obs);
                }
            }
        }

        let queued = self.cursor;
        let mut events = Vec::with_capacity(batch.len());
        for (ids, stats) in lineage.into_iter().zip(all_stats) {
            let first_start = ids
                .iter()
                .filter_map(|&id| report.kernel(id).first_start)
                .min();
            let end = report
                .kernel(*ids.last().expect("lineage is never empty"))
                .end;
            events.push(Event {
                queued,
                start: queued + first_start.unwrap_or(0),
                end: queued + end,
                stats,
            });
        }
        self.cursor = queued + report.makespan;
        self.last_report = Some(report);
        Ok(events)
    }

    /// Run one decided launch on the functional plane.
    fn run_functional(
        &mut self,
        pending: &PendingExec,
        decision: &LaunchDecision,
    ) -> Result<DynStats, ClError> {
        // Copy the Virtual NDRange descriptor to accelerator memory.
        let rt_buf = *self
            .descriptor
            .get_or_insert_with(|| self.ctx.create_buffer(8 * DESCRIPTOR_LEN));
        self.ctx.write_i64(rt_buf, &decision.descriptor)?;

        let mut kernel = pending.kernel.clone();
        let rt_index = kernel.arity() - 1; // JIT appended `rt` last
        kernel.set_arg(rt_index, Arg::Buffer(rt_buf))?;
        let args: Vec<ArgValue> = kernel.resolved_args()?;

        // Execute on the bytecode tier (`ACCELOS_EXEC_TIER` selects the
        // tier; unsupported constructs fall back to the tree-walker),
        // sharding independent work groups across host threads; the
        // accelcheck race analysis forces launches it cannot prove
        // race-free onto the sequential path (bit-identical results
        // either way). The verdicts are served from the program's
        // build-time `ModuleFacts` cache.
        let mut interp = Interpreter::with_facts(kernel.module(), kernel.facts());
        interp.set_exec_tier(kernel_ir::ExecTier::from_env());
        interp
            .run_kernel_tiered(
                self.ctx.memory_mut(),
                kernel.name(),
                decision.hardware_range,
                &args,
            )
            .map_err(|e| ClError::ExecutionFailure(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "kernel void scale(global float* b, float s) {
        size_t i = get_global_id(0);
        b[i] = b[i] * s;
    }";

    #[test]
    fn fsm_routes_like_figure_6() {
        assert_eq!(route(AppRequest::NewProgram), MonitorAction::JitCompile);
        assert_eq!(route(AppRequest::NewKernelExec), MonitorAction::Schedule);
        assert_eq!(route(AppRequest::Other), MonitorAction::PassThrough);
    }

    #[test]
    fn transparent_build_and_run() {
        let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized);
        let program = os.build_program(SRC).unwrap();
        let mut kernel = program.create_kernel("scale").unwrap();
        // The application still sees its own arity (plus nothing): the rt
        // parameter exists but the app binds only its original args.
        let buf = os.context_mut().create_buffer(16 * 4);
        os.context_mut().write_f32(buf, &[1.0; 16]).unwrap();
        kernel.set_arg(0, Arg::Buffer(buf)).unwrap();
        kernel
            .set_arg(1, Arg::Scalar(kernel_ir::Value::F32(3.0)))
            .unwrap();
        let ev = os
            .enqueue(&program, &kernel, NdRange::new_1d(16, 4))
            .unwrap();
        assert_eq!(os.context_mut().read_f32(buf).unwrap(), vec![3.0; 16]);
        assert!(ev.duration() > 0);
        assert!(ev.stats.total_insns > 0);
    }

    #[test]
    fn concurrent_batch_overlaps_and_is_correct() {
        let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized);
        let program = os.build_program(SRC).unwrap();
        let chunk = program.info("scale").unwrap().chunk;

        let mut make = |val: f32| {
            let mut k = program.create_kernel("scale").unwrap();
            let buf = os.context_mut().create_buffer(64 * 4);
            os.context_mut().write_f32(buf, &[1.0; 64]).unwrap();
            k.set_arg(0, Arg::Buffer(buf)).unwrap();
            k.set_arg(1, Arg::Scalar(kernel_ir::Value::F32(val)))
                .unwrap();
            (k, buf)
        };
        let (k1, b1) = make(2.0);
        let (k2, b2) = make(5.0);
        let batch = vec![
            PendingExec {
                kernel: k1,
                chunk,
                ndrange: NdRange::new_1d(64, 8),
            },
            PendingExec {
                kernel: k2,
                chunk,
                ndrange: NdRange::new_1d(64, 8),
            },
        ];
        let events = os.enqueue_concurrent(batch).unwrap();
        assert_eq!(os.context_mut().read_f32(b1).unwrap(), vec![2.0; 64]);
        assert_eq!(os.context_mut().read_f32(b2).unwrap(), vec![5.0; 64]);
        // Space sharing: the two executions overlap in device time.
        let overlap = events[0]
            .end
            .min(events[1].end)
            .saturating_sub(events[0].start.max(events[1].start));
        assert!(overlap > 0, "batched kernels should co-execute: {events:?}");
    }

    #[test]
    fn unknown_kernel_is_reported() {
        let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized);
        let program = os.build_program(SRC).unwrap();
        assert!(program.create_kernel("nope").is_err());
        assert!(program.info("nope").is_none());
    }

    #[test]
    fn staggered_batch_runs_under_a_preemptive_policy() {
        use crate::policy::PriorityPolicy;
        use std::sync::Arc;
        let mut os =
            ProxyCl::with_policy(&Platform::test_tiny(), Arc::new(PriorityPolicy::default()));
        let program = os.build_program(SRC).unwrap();
        let chunk = program.info("scale").unwrap().chunk;
        let mut make = |val: f32| {
            let mut k = program.create_kernel("scale").unwrap();
            let buf = os.context_mut().create_buffer(64 * 4);
            os.context_mut().write_f32(buf, &[1.0; 64]).unwrap();
            k.set_arg(0, Arg::Buffer(buf)).unwrap();
            k.set_arg(1, Arg::Scalar(kernel_ir::Value::F32(val)))
                .unwrap();
            (k, buf)
        };
        let (k1, b1) = make(2.0);
        let (k2, b2) = make(5.0);
        let batch = vec![
            PendingExec {
                kernel: k1,
                chunk,
                ndrange: NdRange::new_1d(64, 8),
            },
            PendingExec {
                kernel: k2,
                chunk,
                ndrange: NdRange::new_1d(64, 8),
            },
        ];
        // The premium request (index 0) joins 30 cycles into the batch
        // tenant's run; functional results are untouched by preemption.
        let events = os.enqueue_concurrent_at(batch, &[30, 0]).unwrap();
        assert_eq!(os.context_mut().read_f32(b1).unwrap(), vec![2.0; 64]);
        assert_eq!(os.context_mut().read_f32(b2).unwrap(), vec![5.0; 64]);
        assert!(events[0].start >= events[0].queued + 30);
    }

    #[test]
    fn mismatched_arrivals_rejected() {
        let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized);
        let program = os.build_program(SRC).unwrap();
        let kernel = program.create_kernel("scale").unwrap();
        let pending = PendingExec {
            kernel,
            chunk: 1,
            ndrange: NdRange::new_1d(8, 4),
        };
        assert!(matches!(
            os.enqueue_concurrent_at(vec![pending], &[0, 0]),
            Err(ClError::InvalidArgs(_))
        ));
    }

    #[test]
    fn empty_batch_rejected() {
        let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized);
        assert!(matches!(
            os.enqueue_concurrent(vec![]),
            Err(ClError::InvalidArgs(_))
        ));
    }

    fn two_scaled(os: &mut ProxyCl) -> (Vec<PendingExec>, Buffer, Buffer) {
        let program = os.build_program(SRC).unwrap();
        let chunk = program.info("scale").unwrap().chunk;
        let mut make = |val: f32| {
            let mut k = program.create_kernel("scale").unwrap();
            let buf = os.context_mut().create_buffer(64 * 4);
            os.context_mut().write_f32(buf, &[1.0; 64]).unwrap();
            k.set_arg(0, Arg::Buffer(buf)).unwrap();
            k.set_arg(1, Arg::Scalar(kernel_ir::Value::F32(val)))
                .unwrap();
            (k, buf)
        };
        let (k1, b1) = make(2.0);
        let (k2, b2) = make(5.0);
        let batch = vec![
            PendingExec {
                kernel: k1,
                chunk,
                ndrange: NdRange::new_1d(64, 8),
            },
            PendingExec {
                kernel: k2,
                chunk,
                ndrange: NdRange::new_1d(64, 8),
            },
        ];
        (batch, b1, b2)
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let mut plain = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized);
        let (batch, _, _) = two_scaled(&mut plain);
        let baseline = plain.enqueue_concurrent(batch).unwrap();

        let mut faulty = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized)
            .with_faults(gpu_sim::FaultPlan::default());
        let (batch, _, _) = two_scaled(&mut faulty);
        let events = faulty.enqueue_concurrent(batch).unwrap();
        for (a, b) in baseline.iter().zip(&events) {
            assert_eq!((a.queued, a.start, a.end), (b.queued, b.start, b.end));
        }
    }

    #[test]
    fn aborted_kernel_retries_with_backoff_and_stays_correct() {
        let mut plain = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized);
        let (batch, _, _) = two_scaled(&mut plain);
        let clean_end = plain.enqueue_concurrent(batch).unwrap()[0].end;

        let plan = gpu_sim::FaultPlan::new(vec![FaultEvent {
            at: 10,
            kind: FaultKind::KernelAbort {
                launch: LaunchId(0),
            },
        }]);
        let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized)
            .with_faults(plan)
            .with_retry(RetryPolicy {
                max_attempts: 2,
                base_backoff: 500,
                ..RetryPolicy::default()
            });
        let (batch, b1, b2) = two_scaled(&mut os);
        let events = os.enqueue_concurrent(batch).unwrap();
        // Functional transparency survives the abort: the retry re-runs
        // on the timing plane only, results were never corrupted.
        assert_eq!(os.context_mut().read_f32(b1).unwrap(), vec![2.0; 64]);
        assert_eq!(os.context_mut().read_f32(b2).unwrap(), vec![5.0; 64]);
        // The retry re-enters after abort + backoff, so the aborted
        // request finishes later than a fault-free run.
        assert!(
            events[0].end > clean_end + 500,
            "retried end {} vs clean {clean_end}",
            events[0].end
        );
    }

    /// Like [`two_scaled`] but with enough work groups (512 items) that a
    /// mid-flight abort lands with whole retired chunks behind it — a
    /// non-trivial checkpoint — instead of rolling the only chunk back.
    fn two_scaled_wide(os: &mut ProxyCl) -> (Vec<PendingExec>, Buffer, Buffer) {
        let program = os.build_program(SRC).unwrap();
        let chunk = program.info("scale").unwrap().chunk;
        let mut make = |val: f32| {
            let mut k = program.create_kernel("scale").unwrap();
            let buf = os.context_mut().create_buffer(512 * 4);
            os.context_mut().write_f32(buf, &[1.0; 512]).unwrap();
            k.set_arg(0, Arg::Buffer(buf)).unwrap();
            k.set_arg(1, Arg::Scalar(kernel_ir::Value::F32(val)))
                .unwrap();
            (k, buf)
        };
        let (k1, b1) = make(2.0);
        let (k2, b2) = make(5.0);
        let batch = vec![
            PendingExec {
                kernel: k1,
                chunk,
                ndrange: NdRange::new_1d(512, 8),
            },
            PendingExec {
                kernel: k2,
                chunk,
                ndrange: NdRange::new_1d(512, 8),
            },
        ];
        (batch, b1, b2)
    }

    /// Run a two-kernel batch under one mid-flight abort of request 0 and
    /// return (groups executed by request 0 summed over all incarnations,
    /// total groups of a clean run of request 0).
    fn abort_groups(checkpoint: bool) -> (usize, usize) {
        let mut plain = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized);
        let (batch, _, _) = two_scaled_wide(&mut plain);
        plain.enqueue_concurrent(batch).unwrap();
        let clean = plain.last_report().unwrap();
        let total = clean.kernels[0].groups_executed;
        // Land the abort mid-launch: after the first chunk retires, well
        // before the clean end, so the checkpoint is non-trivial.
        let abort_at = clean.kernels[0].end / 2;
        assert!(abort_at > 0);

        let plan = gpu_sim::FaultPlan::new(vec![FaultEvent {
            at: abort_at,
            kind: FaultKind::KernelAbort {
                launch: LaunchId(0),
            },
        }]);
        let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized)
            .with_faults(plan)
            .with_retry(RetryPolicy {
                checkpoint,
                ..RetryPolicy::default()
            });
        let (batch, b1, _) = two_scaled_wide(&mut os);
        os.enqueue_concurrent(batch).unwrap();
        // Functional transparency holds under either recovery mode.
        assert_eq!(os.context_mut().read_f32(b1).unwrap(), vec![2.0; 512]);
        let report = os.last_report().unwrap();
        // Only request 0 aborts, so its incarnations are the original
        // LaunchId(0) plus every retry copy (ids past the batch).
        let executed = report
            .kernels
            .iter()
            .filter(|k| k.id != LaunchId(1))
            .map(|k| k.groups_executed)
            .sum();
        (executed, total)
    }

    #[test]
    fn checkpointed_retry_conserves_groups_across_incarnations() {
        // The witness: with checkpointing, every virtual group is executed
        // exactly once across incarnations — the retry re-enqueues only
        // the unfinished tail.
        let (executed, total) = abort_groups(true);
        assert_eq!(
            executed, total,
            "checkpointed incarnations must sum to the plan total"
        );
    }

    #[test]
    fn full_reexecution_retry_repays_completed_groups() {
        // Without checkpointing the retry replays from group 0, so the
        // groups the aborted incarnation already finished are paid twice —
        // strictly more work than the checkpointed path.
        let (executed_full, total) = abort_groups(false);
        let (executed_ckpt, _) = abort_groups(true);
        assert!(
            executed_full > total,
            "full re-execution must repay the aborted prefix: {executed_full} vs {total}"
        );
        assert!(
            executed_ckpt < executed_full,
            "checkpointing must re-execute strictly fewer groups: {executed_ckpt} vs {executed_full}"
        );
    }

    #[test]
    fn backoff_delay_saturates_at_the_64_bit_boundary() {
        let retry = RetryPolicy {
            base_backoff: 1_000,
            ..RetryPolicy::default()
        };
        assert_eq!(retry.backoff_delay(0), 1_000);
        assert_eq!(retry.backoff_delay(1), 2_000);
        assert_eq!(retry.backoff_delay(10), 1_024_000);
        // The doubling escapes 64 bits: saturate, never wrap. 2^55 * 1000
        // overflows; shifts >= 64 would panic in debug via `<<`.
        assert_eq!(retry.backoff_delay(54), 1_000u64 << 54);
        assert_eq!(retry.backoff_delay(55), u64::MAX);
        assert_eq!(retry.backoff_delay(63), u64::MAX);
        assert_eq!(retry.backoff_delay(64), u64::MAX);
        assert_eq!(retry.backoff_delay(u32::MAX), u64::MAX);
        // Zero base backs off by nothing no matter how many attempts.
        let eager = RetryPolicy {
            base_backoff: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(eager.backoff_delay(63), 0);
        assert_eq!(eager.backoff_delay(200), 0);
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_as_execution_failure() {
        // Two aborts of request 0, zero retries allowed: fail fast.
        let plan = gpu_sim::FaultPlan::new(vec![FaultEvent {
            at: 10,
            kind: FaultKind::KernelAbort {
                launch: LaunchId(0),
            },
        }]);
        let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized)
            .with_faults(plan)
            .with_retry(RetryPolicy {
                max_attempts: 0,
                base_backoff: 500,
                ..RetryPolicy::default()
            });
        let (batch, _, _) = two_scaled(&mut os);
        assert!(matches!(
            os.enqueue_concurrent(batch),
            Err(ClError::ExecutionFailure(_))
        ));
    }

    #[test]
    fn fault_plan_aborting_unknown_request_rejected() {
        let plan = gpu_sim::FaultPlan::new(vec![FaultEvent {
            at: 10,
            kind: FaultKind::KernelAbort {
                launch: LaunchId(9),
            },
        }]);
        let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized).with_faults(plan);
        let (batch, _, _) = two_scaled(&mut os);
        assert!(matches!(
            os.enqueue_concurrent(batch),
            Err(ClError::InvalidArgs(_))
        ));
    }

    #[test]
    fn cu_failure_delays_but_loses_nothing() {
        let mut plain = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized);
        let (batch, _, _) = two_scaled(&mut plain);
        let clean_end = plain.enqueue_concurrent(batch).unwrap()[1].end;

        let plan = gpu_sim::FaultPlan::new(vec![FaultEvent {
            at: 5,
            kind: FaultKind::CuFailure {
                cu: 0,
                repair_at: None,
            },
        }]);
        let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized).with_faults(plan);
        let (batch, b1, b2) = two_scaled(&mut os);
        let events = os.enqueue_concurrent(batch).unwrap();
        assert_eq!(os.context_mut().read_f32(b1).unwrap(), vec![2.0; 64]);
        assert_eq!(os.context_mut().read_f32(b2).unwrap(), vec![5.0; 64]);
        assert!(
            events[1].end >= clean_end,
            "losing a CU cannot speed the run up"
        );
    }

    #[test]
    fn repeated_enqueues_allocate_only_application_buffers() {
        let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized);
        let program = os.build_program(SRC).unwrap();
        let before = os.context_mut().allocated_bytes();
        let mut kernel = program.create_kernel("scale").unwrap();
        let buf = os.context_mut().create_buffer(64 * 4);
        os.context_mut().write_f32(buf, &[1.0; 64]).unwrap();
        kernel.set_arg(0, Arg::Buffer(buf)).unwrap();
        kernel
            .set_arg(1, Arg::Scalar(kernel_ir::Value::F32(2.0)))
            .unwrap();
        for _ in 0..50 {
            os.enqueue(&program, &kernel, NdRange::new_1d(64, 8))
                .unwrap();
        }
        assert_eq!(
            os.context_mut().read_f32(buf).unwrap(),
            vec![2f32.powi(50); 64]
        );
        // The application's buffer plus the runtime's one descriptor,
        // however many launches ran.
        assert_eq!(
            os.context_mut().allocated_bytes(),
            before + 64 * 4 + 8 * DESCRIPTOR_LEN
        );
    }

    /// A kernel storing `<open × depth> v <close × depth>` to `o[0]`.
    fn nested_kernel(depth: usize, open: &str, close: &str) -> String {
        format!(
            "kernel void k(global int* o) {{ int v = 3; o[0] = {}v{}; }}",
            open.repeat(depth),
            close.repeat(depth)
        )
    }

    #[test]
    fn deeply_nested_tenant_source_is_a_build_failure() {
        let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized);
        for src in [
            nested_kernel(10_000, "(", ")"),
            nested_kernel(10_000, "- ", ""),
            nested_kernel(10_000, "v + ", ""),
            format!(
                "kernel void k(global int* o) {{ {} o[0] = 1; }}",
                "if (o[0] == 0) ".repeat(10_000)
            ),
        ] {
            match os.build_program(&src) {
                Err(ClError::BuildFailure(msg)) => assert!(msg.contains("nesting"), "{msg}"),
                other => panic!("expected a build failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn nesting_depth_200_still_builds_and_runs() {
        for (src, want) in [
            (nested_kernel(200, "(", ")"), 3),
            (nested_kernel(200, "- ", ""), 3),
            (nested_kernel(200, "1 + ", ""), 203),
            (
                format!(
                    "kernel void k(global int* o) {{ {} o[0] = 7; }}",
                    "if (o[0] == 0) ".repeat(200)
                ),
                7,
            ),
        ] {
            let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized);
            let program = os.build_program(&src).unwrap();
            let mut kernel = program.create_kernel("k").unwrap();
            let buf = os.context_mut().create_buffer(4);
            kernel.set_arg(0, Arg::Buffer(buf)).unwrap();
            os.enqueue(&program, &kernel, NdRange::new_1d(1, 1))
                .unwrap();
            assert_eq!(os.context_mut().read_i32(buf).unwrap(), vec![want]);
        }
    }

    #[test]
    fn naive_mode_runs_too() {
        let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Naive);
        let program = os.build_program(SRC).unwrap();
        assert_eq!(program.info("scale").unwrap().chunk, 1);
        let mut kernel = program.create_kernel("scale").unwrap();
        let buf = os.context_mut().create_buffer(8 * 4);
        os.context_mut().write_f32(buf, &[2.0; 8]).unwrap();
        kernel.set_arg(0, Arg::Buffer(buf)).unwrap();
        kernel
            .set_arg(1, Arg::Scalar(kernel_ir::Value::F32(0.5)))
            .unwrap();
        os.enqueue(&program, &kernel, NdRange::new_1d(8, 4))
            .unwrap();
        assert_eq!(os.context_mut().read_f32(buf).unwrap(), vec![1.0; 8]);
    }
}
