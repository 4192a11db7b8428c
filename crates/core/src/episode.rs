//! The episode engine (paper §5: the Kernel Scheduler owns launching and
//! recovery). Every path from a plan to the machine simulation — the
//! harness runner, the transparent runtime ([`crate::proxycl`]), the
//! chaos soak and custom launches — runs an [`Episode`]: the schedule's
//! reclaims and resumes become simulator commands, the [`FaultPlan`] is
//! injected in plan order, and aborted launches are retried under the
//! [`RetryPolicy`], so recovery lives in one layer, not in each caller.

use crate::policy::{PlannedResume, TimedReclaim};
use gpu_sim::{
    DeviceConfig, FailureDomain, FaultEvent, FaultKind, FaultPlan, KernelLaunch, KernelReport,
    LaunchId, ReclaimCmd, ResumeCmd, SimReport, Simulator,
};

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
    /// any abort exhausts the request.
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
    /// use accelos::episode::RetryPolicy;
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

/// The inputs of one episode. Request `i` is `launches[i]`, simulated as
/// `LaunchId(i)`; reclaims, resumes and kernel aborts name requests by
/// that index.
#[derive(Debug, Clone)]
pub struct Episode {
    /// One launch per request, in batch order.
    pub launches: Vec<KernelLaunch>,
    /// Timed worker reclamations.
    pub reclaims: Vec<TimedReclaim>,
    /// Resumptions fired when their anchor request retires.
    pub resumes: Vec<PlannedResume>,
    /// Faults, injected in plan order. The `j`-th [`FaultKind::KernelAbort`]
    /// of request `i` targets its incarnation `j` (0 = the original launch)
    /// and is skipped until that incarnation exists.
    pub faults: FaultPlan,
    /// The failure-domain partition ([`Simulator::with_domains`]).
    pub domains: Vec<FailureDomain>,
    /// Abort recovery.
    pub retry: RetryPolicy,
    /// Collect the simulator's timeline ([`Simulator::with_trace`]).
    pub trace: bool,
}

/// What one [`Episode::run`] produced.
#[derive(Debug, Clone)]
pub struct EpisodeOutcome {
    /// The final simulation: every incarnation of every request.
    pub report: SimReport,
    /// Per request, its incarnations' launch ids, oldest first (the
    /// original launch, then each retry copy).
    pub lineage: Vec<Vec<LaunchId>>,
    /// The first request, in batch order, whose newest incarnation
    /// aborted with no retry left — the budget spent, or a retry whose
    /// timeline could not fit in `u64` cycles. `None` when no request's
    /// newest incarnation aborted.
    pub exhausted: Option<usize>,
}

impl EpisodeOutcome {
    /// The report of request `i`'s newest incarnation.
    pub fn newest(&self, i: usize) -> &KernelReport {
        self.report
            .kernel(*self.lineage[i].last().expect("lineage is never empty"))
    }
}

impl Episode {
    /// An episode of `launches` alone: no reclaims, resumes, faults or
    /// domains, and a fail-fast retry policy (`max_attempts: 0`), so it is
    /// exactly one simulation.
    pub fn new(launches: Vec<KernelLaunch>) -> Self {
        Episode {
            launches,
            reclaims: Vec::new(),
            resumes: Vec::new(),
            faults: FaultPlan::default(),
            domains: Vec::new(),
            retry: RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            trace: false,
        }
    }

    /// Run the episode on `device`: simulate, and while an aborted
    /// request has retries left, add its next incarnation and re-simulate
    /// the whole episode (see [`RetryPolicy`]). Identical launches replay
    /// identically, so each iteration extends the previous timeline
    /// deterministically; with no aborts, or `max_attempts: 0`, it is one
    /// simulation.
    ///
    /// # Panics
    ///
    /// Panics if a [`FaultKind::KernelAbort`] names a request past the
    /// end of `launches`, or if the simulator rejects a launch (see
    /// [`Simulator::add_launch`]).
    pub fn run(&self, device: &DeviceConfig) -> EpisodeOutcome {
        let n = self.launches.len();
        let mut copies: Vec<Vec<KernelLaunch>> = vec![Vec::new(); n];
        loop {
            let mut sim = Simulator::new(device.clone()).with_domains(self.domains.clone());
            if self.trace {
                sim = sim.with_trace();
            }
            let mut lineage: Vec<Vec<LaunchId>> = self
                .launches
                .iter()
                .map(|l| vec![sim.add_launch(l.clone())])
                .collect();
            for (ids, retries) in lineage.iter_mut().zip(&copies) {
                ids.extend(retries.iter().map(|c| sim.add_launch(c.clone())));
            }
            for r in &self.reclaims {
                sim.add_reclaim(ReclaimCmd {
                    at: r.at,
                    launch: LaunchId(r.index as u32),
                    workers: r.workers,
                    pressure: r.pressure.map(|p| LaunchId(p as u32)),
                    chunk: None,
                });
            }
            for r in &self.resumes {
                sim.add_resume(ResumeCmd {
                    after: LaunchId(r.after as u32),
                    launch: LaunchId(r.index as u32),
                    workers: r.workers,
                });
            }
            let mut aborts_seen = vec![0usize; n];
            for ev in &self.faults.events {
                let FaultKind::KernelAbort { launch } = ev.kind else {
                    sim.add_fault(*ev);
                    continue;
                };
                let i = launch.0 as usize;
                assert!(i < n, "fault plan aborts request {i} of {n}");
                if let Some(&id) = lineage[i].get(aborts_seen[i]) {
                    let kind = FaultKind::KernelAbort { launch: id };
                    sim.add_fault(FaultEvent { at: ev.at, kind });
                }
                aborts_seen[i] += 1;
            }
            let mut outcome = EpisodeOutcome {
                report: sim.run(),
                lineage,
                exhausted: None,
            };
            let mut respawned = false;
            for i in (0..n).filter(|&i| outcome.newest(i).aborted) {
                let Some(copy) = self.retry_copy(&outcome, i) else {
                    outcome.exhausted = Some(i);
                    return outcome;
                };
                copies[i].push(copy);
                respawned = true;
            }
            if !respawned {
                return outcome;
            }
        }
    }

    /// The next incarnation of request `i`, whose newest incarnation
    /// aborted in `outcome`, or `None` when it is out of retries. A retry
    /// is admitted only while its arrival, plus the episode's makespan so
    /// far, plus the request's total work fits in `u64` — a conservative
    /// bound on the timeline it adds, so a saturated backoff exhausts
    /// instead of overflowing the simulator's clock.
    fn retry_copy(&self, outcome: &EpisodeOutcome, i: usize) -> Option<KernelLaunch> {
        let ids = &outcome.lineage[i];
        let spent = ids.len() as u32 - 1;
        if spent >= self.retry.max_attempts {
            return None;
        }
        let original = &self.launches[i];
        let arrival = outcome
            .newest(i)
            .end
            .checked_add(self.retry.backoff_delay(spent))?;
        let makespan = outcome.report.makespan;
        (arrival.checked_add(makespan)?).checked_add(original.plan.total_work())?;
        let mut copy = original.clone();
        copy.arrival = arrival;
        let done: u64 = ids
            .iter()
            .map(|&id| outcome.report.kernel(id).groups_executed as u64)
            .sum();
        if self.retry.checkpoint && done > 0 {
            copy.plan = original.plan.tail(done);
        }
        Some(copy)
    }
}
