//! Pluggable scheduling policies: *who gets how much of the accelerator*
//! as first-class objects.
//!
//! The paper's central claim is that fair sharing can be a *policy*
//! layered transparently over an unmodified runtime. This module makes the
//! policy layer explicit: a [`SchedulingPolicy`] turns a batch of
//! concurrent [`ExecRequest`]s into [`LaunchDecision`]s, and a
//! [`PolicySet`] is an ordered, named collection of policies that the
//! evaluation harness sweeps. The four schemes of the paper's figures —
//! vendor baseline, Elastic Kernels, accelOS-naive, accelOS — are provided
//! as policy objects ([`PolicySet::paper`]), alongside a family of
//! extensions: guided dequeues ([`GuidedPolicy`]), weighted shares
//! ([`WeightedPolicy`]), preemptive priority ([`PriorityPolicy`]),
//! deadline-aware preemption ([`DeadlinePolicy`]) and SLA-tiered floors
//! ([`SlaPolicy`]).
//!
//! Policies also own the batch's *transients*: when requests join a
//! running batch mid-flight, [`SchedulingPolicy::on_arrival`] decides how
//! they are admitted, whether running launches give workers back
//! ([`WorkerReclaim`], executed by the simulator as
//! [`gpu_sim::ReclaimCmd`]s at chunk boundaries — down to a resumable
//! full pause at 0 workers), and when paused victims wake again
//! ([`WorkerResume`] → [`gpu_sim::ResumeCmd`], fired at the pressuring
//! tenant's retirement). [`plan_with_arrivals`] drives those hooks over a
//! staggered batch.
//!
//! Both execution planes consume the same decisions: the functional plane
//! ([`crate::proxycl`]) runs each transformed kernel over the decision's
//! reduced hardware range, and the timing plane converts each decision
//! into a [`gpu_sim::LaunchPlan`] via [`LaunchDecision::to_sim_plan`].
//!
//! # Write your own policy
//!
//! A policy only has to map requests to decisions. A "half for the first
//! tenant, the rest split evenly" policy:
//!
//! ```
//! use accelos::policy::{PlanCtx, PolicySet, SchedulingPolicy, WeightedPolicy};
//! use accelos::scheduler::ExecRequest;
//! use gpu_sim::DeviceConfig;
//! use kernel_ir::interp::NdRange;
//! use std::sync::Arc;
//!
//! // WeightedPolicy already covers ratio policies; custom logic would
//! // implement SchedulingPolicy directly (see its docs).
//! let premium = WeightedPolicy::new(&[3.0, 1.0]);
//! let dev = DeviceConfig::k20m();
//! let reqs = vec![
//!     ExecRequest::new("a", NdRange::new_1d(65536, 256), 0, 16, 1),
//!     ExecRequest::new("b", NdRange::new_1d(65536, 256), 0, 16, 1),
//! ];
//! let plans = premium.plan(&PlanCtx::new(&dev), &reqs);
//! assert!(plans[0].workers > 2 * plans[1].workers);
//!
//! // And it slots into the evaluation harness next to the paper's four:
//! let mut set = PolicySet::paper();
//! set.push(Arc::new(premium)).unwrap();
//! assert_eq!(set.len(), 5);
//! ```
//!
//! # Parse a set, plan a batch
//!
//! Every registry name (the strings `repro --policies` accepts) resolves
//! to a policy object, and any of them plans a request batch through the
//! same two calls:
//!
//! ```
//! use accelos::policy::{PlanCtx, PolicySet};
//! use accelos::scheduler::ExecRequest;
//! use gpu_sim::DeviceConfig;
//! use kernel_ir::interp::NdRange;
//!
//! let set = PolicySet::parse("baseline,ek,accelos,accelos-priority").unwrap();
//! let dev = DeviceConfig::k20m();
//! let reqs = vec![
//!     ExecRequest::new("premium", NdRange::new_1d(65536, 256), 0, 16, 1),
//!     ExecRequest::new("batch", NdRange::new_1d(131072, 128), 2048, 8, 1),
//! ];
//! for policy in set.iter() {
//!     let decisions = policy.plan(&PlanCtx::new(&dev), &reqs);
//!     assert_eq!(decisions.len(), reqs.len());
//!     assert!(decisions.iter().all(|d| d.workers >= 1));
//! }
//! // accelos-priority plans steady states exactly like accelos; it only
//! // differs in how mid-run arrivals are handled (see `on_arrival`).
//! let ctx = PlanCtx::new(&dev);
//! let accelos = set.by_name("accelos").unwrap().plan(&ctx, &reqs);
//! let priority = set.by_name("accelos-priority").unwrap().plan(&ctx, &reqs);
//! assert_eq!(accelos, priority);
//! ```

use crate::chunk::Mode;
use crate::resource::{compute_shares, compute_weighted_shares, ResourceDemand, ShareAllocation};
use crate::scheduler::{chunked_decision, DecisionKind, ExecRequest, LaunchDecision};
use crate::vrange::VirtualNdRange;
use gpu_sim::DeviceConfig;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Everything a policy may consult while planning one batch.
///
/// Created per planning call by the runtime ([`PlanCtx::new`]) or per
/// `(workload, repetition)` session by the harness, in which case it
/// carries the session's share caches so that policies running against the
/// same batch (accelOS-naive and accelOS of one repetition, say) compute
/// the §3 allocation once instead of once per policy.
#[derive(Debug)]
pub struct PlanCtx<'a> {
    device: &'a DeviceConfig,
    equal_shares: Option<&'a OnceLock<(Vec<ResourceDemand>, ShareAllocation)>>,
    solo_shares: Option<&'a [OnceLock<(ResourceDemand, u32)>]>,
    estimates: Option<&'a [Option<u64>]>,
}

impl<'a> PlanCtx<'a> {
    /// A cache-free context: every query recomputes (what the transparent
    /// runtime uses for one-shot batches).
    pub fn new(device: &'a DeviceConfig) -> Self {
        PlanCtx {
            device,
            equal_shares: None,
            solo_shares: None,
            estimates: None,
        }
    }

    /// A context backed by a session's share caches: `equal_shares` caches
    /// the batch-wide equal allocation, `solo_shares[i]` caches request
    /// `i`'s single-kernel allocation. The caches are only valid while the
    /// batch (device + demands) is fixed — exactly the lifetime of one
    /// `(workload, repetition)` session.
    pub fn with_caches(
        device: &'a DeviceConfig,
        equal_shares: &'a OnceLock<(Vec<ResourceDemand>, ShareAllocation)>,
        solo_shares: &'a [OnceLock<(ResourceDemand, u32)>],
    ) -> Self {
        PlanCtx {
            device,
            equal_shares: Some(equal_shares),
            solo_shares: Some(solo_shares),
            estimates: None,
        }
    }

    /// Attach per-request isolated-time estimates (`estimates[i]`, when
    /// present, is the device time request `i` would take running alone
    /// at its solo share, in cycles). The harness feeds its cached
    /// isolated times in here on the preemptive path — only for the
    /// indices the policy declared via
    /// [`SchedulingPolicy::estimate_indices`], since each one costs a
    /// solo simulation on a cache miss; deadline-aware policies
    /// ([`DeadlinePolicy`]) consult them to size reclamations, and every
    /// other policy ignores them — attaching estimates never changes a
    /// non-deadline plan.
    pub fn with_estimates(mut self, estimates: &'a [Option<u64>]) -> Self {
        self.estimates = Some(estimates);
        self
    }

    /// The isolated-time estimate of request `index`, when the caller
    /// supplied one ([`PlanCtx::with_estimates`]).
    pub fn estimate(&self, index: usize) -> Option<u64> {
        self.estimates.and_then(|e| e.get(index).copied().flatten())
    }

    /// The device being shared.
    pub fn device(&self) -> &DeviceConfig {
        self.device
    }

    /// The §3 equal-share allocation for `demands` (cached per session;
    /// a debug assertion catches a policy asking the same session about
    /// *different* demands, which the cache cannot serve).
    pub fn equal_shares(&self, demands: &[ResourceDemand]) -> ShareAllocation {
        match self.equal_shares {
            Some(cell) => {
                let (cached_for, alloc) =
                    cell.get_or_init(|| (demands.to_vec(), compute_shares(self.device, demands)));
                debug_assert_eq!(
                    cached_for, demands,
                    "session share cache queried with different demands"
                );
                alloc.clone()
            }
            None => compute_shares(self.device, demands),
        }
    }

    /// The share a *single-kernel* §3 allocation would grant request
    /// `index` — the ceiling an adaptive launch may grow to when other
    /// kernels retire (cached per session, with the same debug guard as
    /// [`PlanCtx::equal_shares`]).
    pub fn solo_share(&self, index: usize, demand: &ResourceDemand) -> u32 {
        let compute = || compute_shares(self.device, &[*demand]).wgs_per_kernel[0];
        match self.solo_shares.and_then(|cells| cells.get(index)) {
            Some(cell) => {
                let (cached_for, share) = cell.get_or_init(|| (*demand, compute()));
                debug_assert_eq!(
                    cached_for, demand,
                    "session solo-share cache queried with a different demand"
                );
                *share
            }
            None => compute(),
        }
    }
}

/// A directive to shrink one *running* launch at its next chunk boundary
/// (the timing plane executes it as a [`gpu_sim::ReclaimCmd`]).
///
/// Returned by [`SchedulingPolicy::on_arrival`] when a policy takes
/// workers back from a running tenant instead of letting a new arrival
/// queue behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerReclaim {
    /// Batch index (into the planning `requests`) of the launch to shrink.
    pub index: usize,
    /// Worker count the launch keeps. `0` is a resumable **full pause**
    /// (every worker retires, the victim's queue strands): a policy
    /// issuing one must pair it with a [`WorkerResume`] so the victim is
    /// guaranteed to wake when the pressuring tenant retires.
    pub workers: u32,
    /// Batch index of the tenant this reclamation makes room for, if any.
    /// The timing plane tags the resulting [`gpu_sim::ReclaimCmd`] with
    /// it, scoping the command to the pressuring tenant: should it land
    /// after that tenant retired (or aborted), the simulator voids it
    /// outright. Preemptive policies set it to their anchor tenant;
    /// fault-reaction reclaims (no single beneficiary) leave it `None`.
    pub pressure: Option<usize>,
}

/// A directive to **resume** a paused (or shrunk) launch when the
/// pressuring tenant retires (the timing plane executes it as a
/// [`gpu_sim::ResumeCmd`]).
///
/// This is the give-back half of a full pause: the planner cannot know
/// *when* the pressuring tenant will retire (planning is ahead-of-time),
/// so the resume is anchored on that tenant's identity and the simulator
/// fires it at the retirement instant — guaranteed wake-up, unlike
/// elastic regrowth, which needs an idle slot a saturated device may
/// never offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerResume {
    /// Batch index of the paused launch to wake.
    pub index: usize,
    /// Batch index of the pressuring tenant whose retirement triggers the
    /// resume.
    pub after: usize,
    /// Worker count to restore the launch to.
    pub workers: u32,
}

/// A policy's reaction to requests joining a running batch mid-flight.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalPlan {
    /// One launch decision per arriving request, in `arriving` order.
    pub decisions: Vec<LaunchDecision>,
    /// Running launches to shrink at their next chunk boundary.
    pub reclaims: Vec<WorkerReclaim>,
    /// Paused launches to wake when their pressuring tenant retires (one
    /// per full-pause reclaim; empty for floor ≥ 1 policies).
    pub resumes: Vec<WorkerResume>,
}

/// The default reaction to a mid-run arrival: re-plan the now-active
/// subset (cache-free — the session caches describe the *full* batch) and
/// admit the arrivals at their share of it, reclaiming nothing. Running
/// launches keep their width; arrivals queue behind resident workers
/// until retirements free capacity. (`?Sized` so the trait's default
/// method can pass `self` without an object-unsafe `Self: Sized` bound.)
fn admit_at_share<P: SchedulingPolicy + ?Sized>(
    policy: &P,
    ctx: &PlanCtx,
    requests: &[ExecRequest],
    arriving: &[usize],
    running: &[usize],
) -> ArrivalPlan {
    let mut active: Vec<usize> = running.iter().chain(arriving).copied().collect();
    active.sort_unstable();
    let subset: Vec<ExecRequest> = active.iter().map(|&i| requests[i].clone()).collect();
    let decisions = policy.plan(&PlanCtx::new(ctx.device()), &subset);
    let picked = arriving
        .iter()
        .map(|i| {
            let pos = active
                .iter()
                .position(|a| a == i)
                .expect("arriving requests are active");
            decisions[pos].clone()
        })
        .collect();
    ArrivalPlan {
        decisions: picked,
        reclaims: Vec::new(),
        resumes: Vec::new(),
    }
}

/// The shared premium-preemption reaction ([`PriorityPolicy`] and
/// [`SlaPolicy`]): premium tenants re-plan the machine among themselves;
/// every running batch tenant is shrunk to its
/// [`SchedulingPolicy::reclaim`] width. A floor of 0 is a full pause and
/// pairs the [`WorkerReclaim`] with a [`WorkerResume`] anchored on the
/// (first) arriving premium tenant, restoring the victim's pre-pause
/// width when that tenant retires.
fn premium_preempt<P: SchedulingPolicy + ?Sized>(
    policy: &P,
    ctx: &PlanCtx,
    requests: &[ExecRequest],
    arriving: &[usize],
    running: &[usize],
    running_widths: &[u32],
    is_premium: &dyn Fn(usize) -> bool,
) -> ArrivalPlan {
    let mut premium: Vec<usize> = running
        .iter()
        .chain(arriving)
        .copied()
        .filter(|&i| is_premium(i))
        .collect();
    premium.sort_unstable();
    let subset: Vec<ExecRequest> = premium.iter().map(|&i| requests[i].clone()).collect();
    let premium_plans = equal_plan(ctx.device(), &subset);
    let width_of = |i: usize| {
        let pos = premium
            .iter()
            .position(|&p| p == i)
            .expect("premium index is active");
        premium_plans[pos].clone()
    };
    // The pressuring tenant resumes anchor on: the first arriving premium
    // request (deterministic, and the one whose arrival forced the
    // pause).
    let anchor = arriving
        .iter()
        .copied()
        .filter(|&i| is_premium(i))
        .min()
        .expect("premium_preempt requires a premium arrival");
    let decisions = arriving
        .iter()
        .map(|&i| {
            if is_premium(i) {
                width_of(i)
            } else {
                // Batch work admitted under premium pressure starts at
                // the reclaim floor (at least one worker — a launch
                // cannot be *born* paused) and regrows elastically once
                // the premium tenants retire.
                chunked_decision(&requests[i], policy.reclaim(ctx, requests, i).max(1))
            }
        })
        .collect();
    let mut reclaims = Vec::with_capacity(running.len());
    let mut resumes = Vec::new();
    for (pos, &i) in running.iter().enumerate() {
        let workers = if is_premium(i) {
            // A running premium tenant shrinks to its new premium-subset
            // share (more premium tenants now share the machine).
            width_of(i).workers
        } else {
            let floor = policy.reclaim(ctx, requests, i);
            if floor == 0 {
                resumes.push(WorkerResume {
                    index: i,
                    after: anchor,
                    workers: running_widths[pos],
                });
            }
            floor
        };
        reclaims.push(WorkerReclaim {
            index: i,
            workers,
            pressure: Some(anchor),
        });
    }
    ArrivalPlan {
        decisions,
        reclaims,
        resumes,
    }
}

/// Equal §3 shares over `subset` (cache-free; used for premium-only
/// re-plans on arrival).
fn equal_plan(device: &DeviceConfig, subset: &[ExecRequest]) -> Vec<LaunchDecision> {
    let demands: Vec<ResourceDemand> = subset.iter().map(|r| r.demand).collect();
    let alloc = compute_shares(device, &demands);
    subset
        .iter()
        .zip(&alloc.wgs_per_kernel)
        .map(|(req, &workers)| chunked_decision(req, workers))
        .collect()
}

/// The accelOS steady state: equal §3 shares through the session's share
/// cache, chunked dequeues. One body shared by every policy of the
/// preemptive family ([`AccelOsPolicy`], [`PriorityPolicy`],
/// [`DeadlinePolicy`], [`SlaPolicy`]) — which is precisely what makes
/// their zero-arrival runs bit-identical to `accelos`: they differ only
/// in transients.
fn equal_share_plan(ctx: &PlanCtx, requests: &[ExecRequest]) -> Vec<LaunchDecision> {
    let demands: Vec<ResourceDemand> = requests.iter().map(|r| r.demand).collect();
    let alloc = ctx.equal_shares(&demands);
    requests
        .iter()
        .zip(&alloc.wgs_per_kernel)
        .map(|(req, &workers)| chunked_decision(req, workers))
        .collect()
}

/// How an injected fault looks from the policy plane. The timing-plane
/// detail (which CU, which repair time) stays below in
/// [`gpu_sim::FaultKind`]; a policy only cares about what changed for
/// *planning*: the device shrank, or a tenant died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyFaultKind {
    /// The device permanently lost `cus_lost` compute units (CU failures
    /// without a repair time). Survivor shares should be re-planned
    /// against the degraded capacity.
    CapacityLoss {
        /// Number of compute units gone for good.
        cus_lost: usize,
    },
    /// A whole failure domain (rack, power zone) permanently vanished
    /// **at once**, taking `cus_lost` compute units with it. Unlike the
    /// drip of independent [`PolicyFaultKind::CapacityLoss`] events (one
    /// unit each), a single correlated event can remove a large fleet
    /// fraction in one instant — policies that exempt premium tenants
    /// from capacity scaling consult [`PolicyFault::severe_loss`] to
    /// drop the exemption coherently when ≥25% of the fleet is gone.
    DomainLoss {
        /// Compute units lost with the domain (members not already dead).
        cus_lost: usize,
    },
    /// Request `index`'s launch was killed mid-flight. The dead tenant
    /// leaves the running set; survivors may spread into its share
    /// (elastic growth does this without any reclaim directives).
    Abort {
        /// Batch index of the killed request.
        index: usize,
    },
}

/// One policy-visible fault at a known device time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyFault {
    /// Device time the fault strikes.
    pub at: u64,
    /// What changed.
    pub kind: PolicyFaultKind,
}

impl PolicyFault {
    /// Whether this fault is a **severe correlated loss**: a single
    /// [`PolicyFaultKind::DomainLoss`] removing at least a quarter of the
    /// device's compute units at once. Premium-exempting policies
    /// (`accelos-priority`, `accelos-sla`) use this as the coherence
    /// threshold: below it, shielding premium tenants from capacity
    /// scaling is survivable; at or above it the surviving machine cannot
    /// host the exempted widths plus the batch floors, so *everyone*
    /// scales. Independent CU failures project as one-unit
    /// [`PolicyFaultKind::CapacityLoss`] events and never trip this.
    pub fn severe_loss(&self, ctx: &PlanCtx) -> bool {
        match self.kind {
            PolicyFaultKind::DomainLoss { cus_lost } => cus_lost * 4 >= ctx.device().num_cus.max(1),
            _ => false,
        }
    }
}

/// The faults a planning pass should rehearse, in any order (the planner
/// sorts by time). Built by hand in tests, or projected from a
/// [`gpu_sim::FaultPlan`] via [`FaultSchedule::from_fault_plan`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    /// The policy-visible faults.
    pub faults: Vec<PolicyFault>,
}

impl FaultSchedule {
    /// Whether the schedule carries no faults (the planner's fast path:
    /// an empty schedule leaves [`plan_with_arrivals_and_faults`]
    /// bit-identical to [`plan_with_arrivals`]).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Project a simulator fault plan onto the policy plane: permanent CU
    /// failures become [`PolicyFaultKind::CapacityLoss`] (one unit per
    /// distinct CU), kernel aborts become [`PolicyFaultKind::Abort`].
    /// Transients — stragglers and repairable failures — are dropped:
    /// planning reacts to lasting capacity changes, the simulator handles
    /// the wobble. Domain failures need the domain partition to be
    /// projected; without one (this constructor) they are dropped — use
    /// [`FaultSchedule::from_fault_plan_with_domains`] when the device is
    /// partitioned.
    pub fn from_fault_plan(plan: &gpu_sim::FaultPlan) -> Self {
        FaultSchedule::from_fault_plan_with_domains(plan, &[])
    }

    /// [`FaultSchedule::from_fault_plan`] with the device's
    /// [`gpu_sim::FailureDomain`] partition attached, so permanent
    /// [`gpu_sim::FaultKind::DomainFailure`] events project as one
    /// correlated [`PolicyFaultKind::DomainLoss`] carrying the *whole*
    /// member count — the domain-level capacity visibility that lets
    /// premium-exempting policies react to 25% of the fleet vanishing at
    /// once. CUs already dead (individually or through an earlier domain)
    /// are not double-counted, and a later individual failure of a CU
    /// inside a dead domain adds nothing.
    pub fn from_fault_plan_with_domains(
        plan: &gpu_sim::FaultPlan,
        domains: &[gpu_sim::FailureDomain],
    ) -> Self {
        let mut faults = Vec::new();
        let mut seen_cus = Vec::new();
        for e in &plan.events {
            match e.kind {
                gpu_sim::FaultKind::CuFailure {
                    cu,
                    repair_at: None,
                } if !seen_cus.contains(&cu) => {
                    seen_cus.push(cu);
                    faults.push(PolicyFault {
                        at: e.at,
                        kind: PolicyFaultKind::CapacityLoss { cus_lost: 1 },
                    });
                }
                gpu_sim::FaultKind::DomainFailure {
                    domain,
                    repair_at: None,
                } => {
                    let Some(members) = domains.get(domain).map(|d| &d.cus) else {
                        continue;
                    };
                    let fresh: Vec<usize> = members
                        .iter()
                        .copied()
                        .filter(|cu| !seen_cus.contains(cu))
                        .collect();
                    if fresh.is_empty() {
                        continue;
                    }
                    let cus_lost = fresh.len();
                    seen_cus.extend(fresh);
                    faults.push(PolicyFault {
                        at: e.at,
                        kind: PolicyFaultKind::DomainLoss { cus_lost },
                    });
                }
                gpu_sim::FaultKind::KernelAbort { launch } => {
                    faults.push(PolicyFault {
                        at: e.at,
                        kind: PolicyFaultKind::Abort {
                            index: launch.0 as usize,
                        },
                    });
                }
                _ => {}
            }
        }
        FaultSchedule { faults }
    }
}

/// The default fault reaction: scale every survivor's width by the
/// surviving capacity fraction, so each tenant keeps its *current*
/// share of a smaller machine — whatever allocation the policy granted
/// it (priority boosts included) shrinks proportionally rather than
/// being re-derived from scratch. Only *shrinks* are emitted — a
/// survivor whose share grew regrows elastically through `max_workers`,
/// no directive needed — so a fault that frees capacity (an abort)
/// reclaims nothing.
fn scale_survivors_to_capacity(
    ctx: &PlanCtx,
    survivors: &[usize],
    fault: &PolicyFault,
    survivor_widths: &[u32],
) -> Vec<WorkerReclaim> {
    let (PolicyFaultKind::CapacityLoss { cus_lost } | PolicyFaultKind::DomainLoss { cus_lost }) =
        fault.kind
    else {
        return Vec::new();
    };
    let total = ctx.device().num_cus.max(1);
    let surviving = total.saturating_sub(cus_lost).max(1);
    survivors
        .iter()
        .zip(survivor_widths)
        .filter_map(|(&i, &w)| {
            let scaled = ((w as u64 * surviving as u64 / total as u64) as u32).max(1);
            (scaled < w).then_some(WorkerReclaim {
                index: i,
                workers: scaled,
                pressure: None,
            })
        })
        .collect()
}

/// A scheduling policy: turns concurrent kernel execution requests into
/// resource-controlled launch decisions.
///
/// Implementations must be deterministic — the harness's parallel sweep
/// and the differential tests rely on identical inputs producing identical
/// decisions.
pub trait SchedulingPolicy: fmt::Debug + Send + Sync {
    /// Stable identifier used on the command line (`repro --policies`)
    /// and in reports (e.g. `"accelos-naive"`). A [`PolicySet`] rejects
    /// duplicate names, so configurable policies encode their
    /// configuration in it (as `accelos-weighted:3:1` and
    /// `accelos-guided:<n>` do) to sit side by side in one set.
    fn name(&self) -> &str;

    /// Display label used in rendered figure tables (e.g. `"accelOS"`).
    fn label(&self) -> &str {
        self.name()
    }

    /// Which §6.4 dequeue-chunking mode the JIT should compile requests
    /// with before they reach [`plan`](Self::plan). Policies that never
    /// dequeue (the baseline, static slicing) report [`Mode::Naive`].
    fn chunk_mode(&self) -> Mode {
        Mode::Naive
    }

    /// Decide launches for a batch of concurrent requests.
    ///
    /// # Panics
    ///
    /// May panic if `requests` is empty (the §3 algorithm requires at
    /// least one request).
    fn plan(&self, ctx: &PlanCtx, requests: &[ExecRequest]) -> Vec<LaunchDecision>;

    /// The worker-count ceiling request `index` may *grow* to when other
    /// kernels retire and free capacity (see
    /// [`gpu_sim::KernelLaunch::max_workers`]). `None` — the default —
    /// means the launch is static.
    fn solo_workers(&self, _ctx: &PlanCtx, _index: usize, _request: &ExecRequest) -> Option<u32> {
        None
    }

    /// React to requests joining the batch **mid-run**: `arriving`
    /// (indices into `requests`) are being launched now, at device time
    /// `now`; `running` are the requests admitted earlier and
    /// `running_widths[j]` is the worker width `running[j]` currently
    /// holds (its planned width minus any earlier reclamations). Returns
    /// one decision per arriving request plus any [`WorkerReclaim`]
    /// directives shrinking running launches at their next chunk
    /// boundary, and any [`WorkerResume`] directives waking full-paused
    /// victims when their pressuring tenant retires.
    ///
    /// Planning is ahead-of-time, so `running` is an *approximation* of
    /// the live set: completion times are only known to the simulator,
    /// and a launch that already drained is still listed. That errs
    /// conservative — a late arrival may be planned a smaller share than
    /// the live tenancy would justify (elastic growth makes up the
    /// difference), and a reclaim against a finished launch is inert in
    /// the simulator (no live workers to cap).
    ///
    /// The default re-plans the active subset cache-free and admits the
    /// arrivals at their share of it, reclaiming nothing — so late
    /// arrivals queue behind resident persistent workers until capacity
    /// frees up (plain accelOS transient behaviour). Preemptive policies
    /// ([`PriorityPolicy`]) override this to take workers back
    /// immediately.
    ///
    /// `ctx` is the *session* context of the whole batch: implementations
    /// must not query its share caches with subset demands — build a
    /// cache-free `PlanCtx::new(ctx.device())` for subset allocations, as
    /// the default does.
    fn on_arrival(
        &self,
        ctx: &PlanCtx,
        requests: &[ExecRequest],
        arriving: &[usize],
        running: &[usize],
        _now: u64,
        _running_widths: &[u32],
    ) -> ArrivalPlan {
        admit_at_share(self, ctx, requests, arriving, running)
    }

    /// The worker count running request `index` keeps when this policy
    /// reclaims its workers (consulted by preemptive
    /// [`SchedulingPolicy::on_arrival`] implementations). The default is
    /// one persistent worker, so a reclaimed tenant still drains its
    /// queue; override to keep a larger floor ([`SlaPolicy`]) — or return
    /// 0 for a resumable full pause, in which case the `on_arrival`
    /// implementation must pair the reclaim with a [`WorkerResume`]
    /// (as [`SlaPolicy`]'s floor-0 tier does) or the victim strands its
    /// work.
    fn reclaim(&self, _ctx: &PlanCtx, _requests: &[ExecRequest], _index: usize) -> u32 {
        1
    }

    /// React to an injected fault striking the running tenancy at plan
    /// time: `survivors` (indices into `requests`) are the launches still
    /// alive after the fault, holding `survivor_widths` workers each.
    /// Returns reclaim directives re-shaping the survivors — the
    /// fault-plane mirror of [`SchedulingPolicy::on_arrival`], driven by
    /// [`plan_with_arrivals_and_faults`].
    ///
    /// The default scales every survivor's current width by the
    /// surviving capacity fraction — the policy's own allocation shape
    /// (priority boosts, weights, floors) is preserved, just on a
    /// smaller machine — and emits only the shrinks; growth is left to
    /// elastic regrowth. Like `on_arrival`, implementations must not
    /// query the session caches with subset demands.
    fn on_fault(
        &self,
        ctx: &PlanCtx,
        _requests: &[ExecRequest],
        survivors: &[usize],
        fault: &PolicyFault,
        survivor_widths: &[u32],
    ) -> Vec<WorkerReclaim> {
        scale_survivors_to_capacity(ctx, survivors, fault, survivor_widths)
    }

    /// Which request indices this policy will query the planning
    /// context's isolated-time estimates for ([`PlanCtx::estimate`]).
    /// Each estimate costs one solo simulation on a cache miss, so the
    /// harness computes and attaches exactly these (empty — the default
    /// — skips the machinery entirely; [`DeadlinePolicy`] asks for its
    /// deadlined request only).
    fn estimate_indices(&self, _requests: &[ExecRequest]) -> Vec<usize> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// The paper's four schemes as policy objects
// ---------------------------------------------------------------------

/// Standard vendor OpenCL: every original work group is a hardware work
/// group; serialisation emerges from the FIFO dispatcher (§2.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselinePolicy;

impl SchedulingPolicy for BaselinePolicy {
    fn name(&self) -> &str {
        "baseline"
    }

    fn label(&self) -> &str {
        "OpenCL"
    }

    fn plan(&self, _ctx: &PlanCtx, requests: &[ExecRequest]) -> Vec<LaunchDecision> {
        assert!(!requests.is_empty(), "need at least one request");
        requests
            .iter()
            .map(|req| {
                let v = VirtualNdRange::new(req.ndrange);
                LaunchDecision {
                    kernel: req.kernel.clone(),
                    workers: v.total_groups() as u32,
                    hardware_range: req.ndrange,
                    descriptor: v.descriptor(),
                    chunk: 1,
                    kind: DecisionKind::Hardware,
                }
            })
            .collect()
    }
}

/// Elastic Kernels (Pai et al.): static occupancy-only sizing with fixed
/// block-cyclic work assignment (see the `elastic-kernels` crate for the
/// contrast discussion).
#[derive(Debug, Clone, Copy, Default)]
pub struct ElasticKernelsPolicy;

impl SchedulingPolicy for ElasticKernelsPolicy {
    fn name(&self) -> &str {
        "ek"
    }

    fn label(&self) -> &str {
        "EK"
    }

    fn plan(&self, ctx: &PlanCtx, requests: &[ExecRequest]) -> Vec<LaunchDecision> {
        assert!(!requests.is_empty(), "need at least one request");
        requests
            .iter()
            .map(|req| {
                let ek = elastic_kernels::EkKernel {
                    wg_threads: req.demand.wg_threads,
                    original_wgs: req.demand.original_wgs,
                };
                let workers = elastic_kernels::workers(ctx.device(), &ek);
                let v = VirtualNdRange::new(req.ndrange);
                LaunchDecision {
                    kernel: req.kernel.clone(),
                    workers,
                    hardware_range: v.hardware_range(workers),
                    descriptor: v.descriptor(),
                    chunk: 1,
                    kind: DecisionKind::StaticSlices,
                }
            })
            .collect()
    }
}

/// accelOS: the paper's runtime. Equal §3 shares, persistent workers with
/// atomic chunked dequeues; [`Mode::Naive`] disables the §6.4 chunk
/// adaptation (the "accelOS-naive" ablation of §8.5).
///
/// # Examples
///
/// ```
/// use accelos::policy::{AccelOsPolicy, PlanCtx, SchedulingPolicy};
/// use accelos::scheduler::ExecRequest;
/// use gpu_sim::DeviceConfig;
/// use kernel_ir::interp::NdRange;
///
/// let dev = DeviceConfig::k20m();
/// let reqs = vec![
///     ExecRequest::new("a", NdRange::new_1d(65536, 256), 0, 16, 1),
///     ExecRequest::new("b", NdRange::new_1d(65536, 256), 0, 16, 1),
/// ];
/// let plans = AccelOsPolicy::optimized().plan(&PlanCtx::new(&dev), &reqs);
/// // Both kernels fit simultaneously with equal shares.
/// assert_eq!(plans[0].workers, plans[1].workers);
/// let threads: u64 = plans.iter().map(|p| p.workers as u64 * 256).sum();
/// assert!(threads <= dev.total_threads());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AccelOsPolicy {
    mode: Mode,
}

impl AccelOsPolicy {
    /// The paper's default configuration (§6.4 adaptive chunking on).
    pub fn optimized() -> Self {
        AccelOsPolicy {
            mode: Mode::Optimized,
        }
    }

    /// The §8.5 "naive" ablation: every dequeue fetches one group.
    pub fn naive() -> Self {
        AccelOsPolicy { mode: Mode::Naive }
    }
}

impl SchedulingPolicy for AccelOsPolicy {
    fn name(&self) -> &str {
        match self.mode {
            Mode::Naive => "accelos-naive",
            Mode::Optimized => "accelos",
        }
    }

    fn label(&self) -> &str {
        match self.mode {
            Mode::Naive => "accelOS-naive",
            Mode::Optimized => "accelOS",
        }
    }

    fn chunk_mode(&self) -> Mode {
        self.mode
    }

    fn plan(&self, ctx: &PlanCtx, requests: &[ExecRequest]) -> Vec<LaunchDecision> {
        equal_share_plan(ctx, requests)
    }

    fn solo_workers(&self, ctx: &PlanCtx, index: usize, request: &ExecRequest) -> Option<u32> {
        Some(ctx.solo_share(index, &request.demand))
    }
}

// ---------------------------------------------------------------------
// Extensions: guided dequeues, weighted shares
// ---------------------------------------------------------------------

/// accelOS with a *guided* dequeue (the future-work schedule evaluated in
/// the §6.4 ablation): each atomic claim takes
/// `clamp(remaining / (2·workers), 1, max_chunk)` virtual groups, so
/// chunks amortise the atomic while the queue is long and taper to single
/// groups near the tail.
#[derive(Debug, Clone)]
pub struct GuidedPolicy {
    name: String,
    max_chunk: u32,
}

impl GuidedPolicy {
    /// Guided dequeues bounded at `max_chunk` groups per claim. The
    /// default bound keeps the registry name `accelos-guided`; other
    /// bounds get `accelos-guided:<max_chunk>` (see
    /// [`SchedulingPolicy::name`]).
    pub fn new(max_chunk: u32) -> Self {
        let max_chunk = max_chunk.max(1);
        GuidedPolicy {
            name: if max_chunk == 8 {
                "accelos-guided".to_string()
            } else {
                format!("accelos-guided:{max_chunk}")
            },
            max_chunk,
        }
    }
}

impl Default for GuidedPolicy {
    /// The §6.4 ablation's bound of 8 groups per claim.
    fn default() -> Self {
        GuidedPolicy::new(8)
    }
}

impl SchedulingPolicy for GuidedPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn label(&self) -> &str {
        if self.max_chunk == 8 {
            "accelOS-guided"
        } else {
            &self.name
        }
    }

    fn chunk_mode(&self) -> Mode {
        Mode::Optimized
    }

    fn plan(&self, ctx: &PlanCtx, requests: &[ExecRequest]) -> Vec<LaunchDecision> {
        let demands: Vec<ResourceDemand> = requests.iter().map(|r| r.demand).collect();
        let alloc = ctx.equal_shares(&demands);
        requests
            .iter()
            .zip(&alloc.wgs_per_kernel)
            .map(|(req, &workers)| {
                let v = VirtualNdRange::new(req.ndrange);
                LaunchDecision {
                    kernel: req.kernel.clone(),
                    workers,
                    hardware_range: v.hardware_range(workers),
                    descriptor: v.descriptor(),
                    chunk: self.max_chunk,
                    kind: DecisionKind::Guided,
                }
            })
            .collect()
    }

    fn solo_workers(&self, ctx: &PlanCtx, index: usize, request: &ExecRequest) -> Option<u32> {
        Some(ctx.solo_share(index, &request.demand))
    }
}

/// accelOS with a non-uniform sharing ratio (§2.2: "this can easily be
/// achieved by changing the sharing ratio"): request `i` targets a
/// `weights[i] / Σ weights` fraction of each resource. Requests beyond the
/// weight list repeat its final entry, so `[3.0, 1.0]` reads "first tenant
/// 3×, everyone else 1×".
#[derive(Debug, Clone)]
pub struct WeightedPolicy {
    name: String,
    weights: Vec<f64>,
}

impl WeightedPolicy {
    /// A weighted policy named after its weights
    /// (`accelos-weighted:w1:w2:...`; see [`SchedulingPolicy::name`]).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or contains a non-positive weight.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one weight");
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        let name = weights
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(":");
        WeightedPolicy {
            name: format!("accelos-weighted:{name}"),
            weights: weights.to_vec(),
        }
    }

    /// The weight of request `index`.
    pub fn weight(&self, index: usize) -> f64 {
        self.weights[index.min(self.weights.len() - 1)]
    }
}

impl SchedulingPolicy for WeightedPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn chunk_mode(&self) -> Mode {
        Mode::Optimized
    }

    fn plan(&self, ctx: &PlanCtx, requests: &[ExecRequest]) -> Vec<LaunchDecision> {
        let demands: Vec<ResourceDemand> = requests.iter().map(|r| r.demand).collect();
        let weights: Vec<f64> = (0..requests.len()).map(|i| self.weight(i)).collect();
        let alloc = compute_weighted_shares(ctx.device(), &demands, &weights);
        requests
            .iter()
            .zip(&alloc.wgs_per_kernel)
            .map(|(req, &workers)| chunked_decision(req, workers))
            .collect()
    }

    fn solo_workers(&self, ctx: &PlanCtx, index: usize, request: &ExecRequest) -> Option<u32> {
        Some(ctx.solo_share(index, &request.demand))
    }
}

/// Preemptive priority with mid-flight worker reclamation: the first
/// `premium` requests of a batch are high-priority tenants; everyone else
/// is batch work.
///
/// Steady states are planned exactly like [`AccelOsPolicy::optimized`]
/// (equal §3 shares) — with no premium arrival mid-run the two policies
/// are bit-identical, which `tests/preemption_invariants.rs` asserts. The
/// difference is the transient: when a premium request arrives while
/// batch tenants run, the policy does not let it queue behind their
/// resident persistent workers (which hold their CU slots until their
/// queues drain). Instead its [`SchedulingPolicy::on_arrival`]:
///
/// * plans the premium tenants' shares **among themselves**, as if the
///   batch tenants were absent (a lone premium arrival gets its solo
///   share — effectively the whole machine);
/// * shrinks every running batch tenant to its
///   [`SchedulingPolicy::reclaim`] width (default 1 worker, the
///   "pause-like" floor that keeps its queue draining) at the next chunk
///   boundary, via [`WorkerReclaim`] directives the simulator executes as
///   [`gpu_sim::ReclaimCmd`]s.
///
/// When the premium work retires, the simulator's elastic growth
/// ([`gpu_sim::KernelLaunch::max_workers`], fed by
/// [`SchedulingPolicy::solo_workers`]) restores the batch tenants — the
/// same take-back-then-give-back cycle THEMIS and Gavel assume their
/// runtimes can perform (PAPERS.md).
#[derive(Debug, Clone)]
pub struct PriorityPolicy {
    name: String,
    premium: usize,
}

impl PriorityPolicy {
    /// The first `premium` requests of a batch are high-priority. The
    /// default count of 1 keeps the registry name `accelos-priority`;
    /// other counts get `accelos-priority:<n>` (see
    /// [`SchedulingPolicy::name`]). `premium == 0` — nobody is premium —
    /// is allowed and behaves exactly like `accelos`.
    pub fn new(premium: usize) -> Self {
        PriorityPolicy {
            name: if premium == 1 {
                "accelos-priority".to_string()
            } else {
                format!("accelos-priority:{premium}")
            },
            premium,
        }
    }

    /// Whether batch position `index` is a premium tenant.
    pub fn is_premium(&self, index: usize) -> bool {
        index < self.premium
    }
}

impl Default for PriorityPolicy {
    /// One premium tenant: the batch's first request.
    fn default() -> Self {
        PriorityPolicy::new(1)
    }
}

impl SchedulingPolicy for PriorityPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn label(&self) -> &str {
        if self.premium == 1 {
            "accelOS-priority"
        } else {
            &self.name
        }
    }

    fn chunk_mode(&self) -> Mode {
        Mode::Optimized
    }

    fn plan(&self, ctx: &PlanCtx, requests: &[ExecRequest]) -> Vec<LaunchDecision> {
        // Steady state: exactly accelOS's equal shares. Priority only
        // changes how mid-run transients are handled (`on_arrival`).
        equal_share_plan(ctx, requests)
    }

    fn solo_workers(&self, ctx: &PlanCtx, index: usize, request: &ExecRequest) -> Option<u32> {
        Some(ctx.solo_share(index, &request.demand))
    }

    fn on_arrival(
        &self,
        ctx: &PlanCtx,
        requests: &[ExecRequest],
        arriving: &[usize],
        running: &[usize],
        _now: u64,
        running_widths: &[u32],
    ) -> ArrivalPlan {
        if !arriving.iter().any(|&i| self.is_premium(i)) {
            // Nothing high-priority is joining: behave exactly like
            // accelOS (admit at share, reclaim nothing).
            return admit_at_share(self, ctx, requests, arriving, running);
        }
        // Premium tenants split the machine among themselves, as if the
        // batch tenants were absent; every batch tenant shrinks to the
        // reclaim floor (1 worker — never a full pause for this policy).
        premium_preempt(
            self,
            ctx,
            requests,
            arriving,
            running,
            running_widths,
            &|i| self.is_premium(i),
        )
    }

    /// Capacity loss is absorbed by the batch tenants: premium survivors
    /// keep their width (the whole point of paying for priority), only
    /// batch survivors scale down with the shrunken machine — **unless**
    /// the loss is a severe correlated one ([`PolicyFault::severe_loss`]:
    /// a domain taking ≥25% of the fleet at once), in which case the
    /// surviving machine cannot host the exempted widths and every
    /// tenant scales, premium included.
    fn on_fault(
        &self,
        ctx: &PlanCtx,
        _requests: &[ExecRequest],
        survivors: &[usize],
        fault: &PolicyFault,
        survivor_widths: &[u32],
    ) -> Vec<WorkerReclaim> {
        let all = scale_survivors_to_capacity(ctx, survivors, fault, survivor_widths);
        if fault.severe_loss(ctx) {
            return all;
        }
        all.into_iter()
            .filter(|r| !self.is_premium(r.index))
            .collect()
    }
}

/// Deadline-aware preemption: reclaim **just enough** width from batch
/// tenants for an arriving deadlined tenant to finish on time, instead of
/// flooring every victim the way [`PriorityPolicy`] does.
///
/// The batch's first request is the deadlined tenant; its deadline is
/// `slack ×` its isolated-time estimate, measured from the **episode
/// start** (the tenant's SLA clock starts when the job was submitted to
/// the shared node, not when the device finally admits it — so the later
/// it arrives, the less time remains and the more width it needs). On its
/// arrival at device time `now`, the policy:
///
/// * reads the tenant's isolated-time estimate `T` from the planning
///   context ([`PlanCtx::estimate`] — the harness feeds its cached
///   isolated times in on the preemptive path) and its solo-share width
///   `W`;
/// * computes the width the deadline needs,
///   `need = ceil(W · T / (slack·T − now))` (isolated time scales
///   inversely with width at a fixed share shape), clamped to `[1, W]`;
/// * admits the tenant at `need` workers and shaves batch tenants —
///   in batch order, each down to its [`SchedulingPolicy::reclaim`]
///   floor at worst — only until the freed thread capacity covers
///   `need`. Victims that are not needed keep their full width, which is
///   what makes this policy reclaim strictly fewer workers than the
///   all-or-floor [`PriorityPolicy`] whenever the deadline has slack.
///
/// Without an estimate in the context the deadline is unknowable and the
/// policy degrades to [`PriorityPolicy`] behaviour (floor every victim):
/// aggressive, but never deadline-missing by under-reclaiming. Steady
/// states are planned exactly like [`AccelOsPolicy::optimized`], so
/// zero-arrival runs are bit-identical to `accelos`.
///
/// Related work frames exactly this object: THEMIS's finish-time fairness
/// and Gavel's heterogeneity-aware policies both assume the runtime can
/// take back *just enough* accelerator share for a deadline to hold
/// (PAPERS.md).
#[derive(Debug, Clone)]
pub struct DeadlinePolicy {
    name: String,
    slack: f64,
}

impl DeadlinePolicy {
    /// A deadline policy whose deadlined tenant must finish within
    /// `slack ×` its isolated-time estimate, measured from the episode
    /// start. The default slack of 2 keeps the registry name
    /// `accelos-deadline`; other slacks get `accelos-deadline:<slack>`
    /// (see [`SchedulingPolicy::name`]).
    ///
    /// # Panics
    ///
    /// Panics unless `slack > 1` (a slack of 1 means "isolated time with
    /// zero queueing", unreachable once anything shares the device).
    pub fn new(slack: f64) -> Self {
        assert!(slack > 1.0, "deadline slack must exceed 1 (got {slack})");
        DeadlinePolicy {
            name: if slack == 2.0 {
                "accelos-deadline".to_string()
            } else {
                format!("accelos-deadline:{slack}")
            },
            slack,
        }
    }

    /// Fraction of the remaining time the width computation budgets for
    /// pure execution; the rest absorbs reclaim latency (victims drain
    /// their in-flight chunk before a slot frees) and the contention the
    /// surviving co-residents add — costs the isolated estimate cannot
    /// see. The scenario tests pin that this margin suffices.
    pub const SAFETY: f64 = 0.9;

    /// The slack factor (deadline = slack × isolated estimate).
    pub fn slack(&self) -> f64 {
        self.slack
    }

    /// The absolute deadline of the deadlined tenant, given its isolated
    /// estimate.
    pub fn deadline(&self, estimate: u64) -> u64 {
        (self.slack * estimate as f64).round() as u64
    }

    /// The worker width the deadlined tenant needs at `now` for its
    /// deadline to hold: time-to-go is `deadline − now`, and isolated
    /// time scales inversely with width (`T` at `solo` workers →
    /// `T·solo/w` at `w`). The width is sized against
    /// [`DeadlinePolicy::SAFETY`] of the remaining time, because the
    /// inverse-width model is optimistic about what the estimate cannot
    /// see: reclaim latency (victims drain their in-flight chunk before a
    /// slot frees) and the contention the surviving co-residents add.
    /// `None` when no estimate is available.
    fn width_needed(
        &self,
        ctx: &PlanCtx,
        index: usize,
        req: &ExecRequest,
        now: u64,
    ) -> Option<u32> {
        let estimate = ctx.estimate(index)?;
        let solo = ctx.solo_share(index, &req.demand).max(1);
        let remaining = self.deadline(estimate).saturating_sub(now);
        let budget = remaining as f64 * DeadlinePolicy::SAFETY;
        if budget < 1.0 {
            // Already (effectively) past the deadline: the best the
            // policy can do is the full solo width.
            return Some(solo);
        }
        let need = (solo as f64 * estimate as f64 / budget).ceil() as u32;
        Some(need.clamp(1, solo))
    }
}

impl Default for DeadlinePolicy {
    /// Slack factor 2: the deadlined tenant may take twice its isolated
    /// time, end to end.
    fn default() -> Self {
        DeadlinePolicy::new(2.0)
    }
}

impl SchedulingPolicy for DeadlinePolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn estimate_indices(&self, _requests: &[ExecRequest]) -> Vec<usize> {
        vec![0]
    }

    fn label(&self) -> &str {
        if self.slack == 2.0 {
            "accelOS-deadline"
        } else {
            &self.name
        }
    }

    fn chunk_mode(&self) -> Mode {
        Mode::Optimized
    }

    fn plan(&self, ctx: &PlanCtx, requests: &[ExecRequest]) -> Vec<LaunchDecision> {
        // Deadlines only shape transients.
        equal_share_plan(ctx, requests)
    }

    fn solo_workers(&self, ctx: &PlanCtx, index: usize, request: &ExecRequest) -> Option<u32> {
        Some(ctx.solo_share(index, &request.demand))
    }

    fn on_arrival(
        &self,
        ctx: &PlanCtx,
        requests: &[ExecRequest],
        arriving: &[usize],
        running: &[usize],
        now: u64,
        running_widths: &[u32],
    ) -> ArrivalPlan {
        let deadlined = 0usize;
        if !arriving.contains(&deadlined) {
            // Only batch work is joining: behave exactly like accelOS.
            return admit_at_share(self, ctx, requests, arriving, running);
        }
        let Some(need) = self.width_needed(ctx, deadlined, &requests[deadlined], now) else {
            // No estimate to size the reclamation with: degrade to the
            // all-or-floor premium behaviour rather than risk the
            // deadline.
            return premium_preempt(
                self,
                ctx,
                requests,
                arriving,
                running,
                running_widths,
                &|i| i == deadlined,
            );
        };
        // Shave batch tenants, in batch order, until the freed thread
        // capacity covers the deadlined tenant's needed width. Thread
        // capacity is the §3 allocation's binding resource for every
        // workload in the suite; mixed-resource shaving would follow the
        // same greedy shape per resource.
        let mut needed = need as u64 * requests[deadlined].demand.wg_threads as u64;
        let mut reclaims = Vec::new();
        for (pos, &i) in running.iter().enumerate() {
            if i == deadlined || needed == 0 {
                continue;
            }
            let width = running_widths[pos];
            let floor = self.reclaim(ctx, requests, i);
            if width <= floor {
                continue;
            }
            let victim_threads = requests[i].demand.wg_threads.max(1) as u64;
            let spare = (width - floor) as u64;
            let take = spare.min(needed.div_ceil(victim_threads));
            needed = needed.saturating_sub(take * victim_threads);
            reclaims.push(WorkerReclaim {
                index: i,
                workers: width - take as u32,
                pressure: Some(deadlined),
            });
        }
        let decisions = arriving
            .iter()
            .map(|&i| {
                if i == deadlined {
                    chunked_decision(&requests[i], need)
                } else {
                    // Batch work arriving alongside the deadlined tenant
                    // starts at the floor and regrows elastically.
                    chunked_decision(&requests[i], self.reclaim(ctx, requests, i).max(1))
                }
            })
            .collect();
        ArrivalPlan {
            decisions,
            reclaims,
            resumes: Vec::new(),
        }
    }
}

/// SLA tiers: premium preemption with **per-tenant reclaim floors** — a
/// gold tenant keeps (say) 4 workers through any preemption storm, a
/// silver tenant 2, and a floor of **0** marks a best-effort tier that is
/// fully paused under pressure and resumed (via [`WorkerResume`] /
/// [`gpu_sim::ResumeCmd`]) when the pressuring premium tenant retires.
///
/// `floors[i]` is request `i`'s floor; requests beyond the list repeat
/// its final entry (like [`WeightedPolicy`] weights). The batch's first
/// request is the premium tenant; arrivals and steady states otherwise
/// behave exactly like [`PriorityPolicy`] — and with no premium arrival
/// mid-run the policy is bit-identical to `accelos`.
#[derive(Debug, Clone)]
pub struct SlaPolicy {
    name: String,
    floors: Vec<u32>,
}

impl SlaPolicy {
    /// An SLA policy named after its floors (`accelos-sla:f1:f2:...`; see
    /// [`SchedulingPolicy::name`]); the default single floor of 2 keeps
    /// the registry name `accelos-sla`.
    ///
    /// # Panics
    ///
    /// Panics if `floors` is empty.
    pub fn new(floors: &[u32]) -> Self {
        assert!(!floors.is_empty(), "need at least one SLA floor");
        SlaPolicy {
            name: if floors == [2] {
                "accelos-sla".to_string()
            } else {
                format!(
                    "accelos-sla:{}",
                    floors
                        .iter()
                        .map(u32::to_string)
                        .collect::<Vec<_>>()
                        .join(":")
                )
            },
            floors: floors.to_vec(),
        }
    }

    /// The reclaim floor of request `index` (tail entry repeats).
    pub fn floor(&self, index: usize) -> u32 {
        self.floors[index.min(self.floors.len() - 1)]
    }
}

impl SchedulingPolicy for SlaPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn label(&self) -> &str {
        if self.floors == [2] {
            "accelOS-sla"
        } else {
            &self.name
        }
    }

    fn chunk_mode(&self) -> Mode {
        Mode::Optimized
    }

    fn plan(&self, ctx: &PlanCtx, requests: &[ExecRequest]) -> Vec<LaunchDecision> {
        // SLA floors only bind during premium transients.
        equal_share_plan(ctx, requests)
    }

    fn solo_workers(&self, ctx: &PlanCtx, index: usize, request: &ExecRequest) -> Option<u32> {
        Some(ctx.solo_share(index, &request.demand))
    }

    fn reclaim(&self, _ctx: &PlanCtx, _requests: &[ExecRequest], index: usize) -> u32 {
        self.floor(index)
    }

    fn on_arrival(
        &self,
        ctx: &PlanCtx,
        requests: &[ExecRequest],
        arriving: &[usize],
        running: &[usize],
        _now: u64,
        running_widths: &[u32],
    ) -> ArrivalPlan {
        if !arriving.contains(&0) {
            return admit_at_share(self, ctx, requests, arriving, running);
        }
        premium_preempt(
            self,
            ctx,
            requests,
            arriving,
            running,
            running_widths,
            &|i| i == 0,
        )
    }

    /// Coherent with [`PriorityPolicy::on_fault`]: the SLA tenant
    /// (request 0) is exempt from capacity scaling while the loss is
    /// survivable, and batch survivors never scale below their SLA
    /// floors. A severe correlated loss ([`PolicyFault::severe_loss`])
    /// drops the premium exemption — floors still hold, because they are
    /// the contract this policy exists for.
    fn on_fault(
        &self,
        ctx: &PlanCtx,
        _requests: &[ExecRequest],
        survivors: &[usize],
        fault: &PolicyFault,
        survivor_widths: &[u32],
    ) -> Vec<WorkerReclaim> {
        let severe = fault.severe_loss(ctx);
        scale_survivors_to_capacity(ctx, survivors, fault, survivor_widths)
            .into_iter()
            .filter(|r| severe || r.index != 0)
            .filter_map(|mut r| {
                r.workers = r.workers.max(self.floor(r.index).max(1));
                let current = survivors
                    .iter()
                    .zip(survivor_widths)
                    .find(|(&i, _)| i == r.index)
                    .map(|(_, &w)| w)
                    .unwrap_or(u32::MAX);
                (r.workers < current).then_some(r)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Staggered batches: cohort planning through the arrival hooks
// ---------------------------------------------------------------------

/// One timed reclamation of an [`ArrivalSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedReclaim {
    /// Device time at which the shrink takes effect.
    pub at: u64,
    /// Batch index of the launch to shrink.
    pub index: usize,
    /// Worker count the launch keeps (0 = resumable full pause).
    pub workers: u32,
    /// Batch index of the pressuring tenant, carried through from
    /// [`WorkerReclaim::pressure`]: the timing plane tags the
    /// [`gpu_sim::ReclaimCmd`] with it so a command landing after its
    /// tenant retired is void.
    pub pressure: Option<usize>,
}

/// One planned resumption of an [`ArrivalSchedule`]: unlike a
/// [`TimedReclaim`] it carries no time — it fires when the anchor tenant
/// retires, which only the simulator knows (the timing plane executes it
/// as a [`gpu_sim::ResumeCmd`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedResume {
    /// Batch index of the pressuring tenant whose retirement triggers
    /// the resume.
    pub after: usize,
    /// Batch index of the paused launch to wake.
    pub index: usize,
    /// Worker count to restore the launch to.
    pub workers: u32,
}

/// A staggered batch fully planned: one decision per request, plus the
/// reclamation and resumption commands the policy issued along the way.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSchedule {
    /// One decision per request, in batch order.
    pub decisions: Vec<LaunchDecision>,
    /// Reclamations, in arrival-time order.
    pub reclaims: Vec<TimedReclaim>,
    /// Resumptions of full-paused victims, in arrival-time order of the
    /// pauses that created them.
    pub resumes: Vec<PlannedResume>,
}

/// Plan a staggered batch through a policy's arrival hooks.
///
/// Requests are grouped into *cohorts* by arrival time. The first cohort
/// is planned directly (it is the only tenancy the runtime can see at
/// that point — unlike the steady-state [`SchedulingPolicy::plan`] over
/// the whole batch, this is not clairvoyant about future arrivals); every
/// later cohort goes through [`SchedulingPolicy::on_arrival`] with every
/// earlier-admitted request as its `running` set, collecting reclamation
/// directives with the cohort's arrival time attached. Planning is
/// ahead-of-time: exact completion times are unknown here, so an
/// earlier-admitted launch is presumed still running (see
/// [`SchedulingPolicy::on_arrival`] for why that is safe, if
/// conservative) — **unless** the context carries an isolated estimate
/// ([`PlanCtx::with_estimates`]) that has fully elapsed by the arrival,
/// in which case the launch has likely drained and is pruned from the
/// cohort's tenancy: no reclaim targets it, and it stops diluting the
/// shares the cohort is admitted at. Estimate-free planning is
/// bit-identical to the unpruned planner.
///
/// With a single cohort (all requests simultaneous) this is **exactly**
/// `policy.plan(ctx, requests)` — same session caches, same decisions, no
/// reclaims — which is what makes preemptive runs bit-identical to plain
/// ones when nothing arrives mid-run.
///
/// # Panics
///
/// Panics if `requests` is empty, the lengths differ, or the policy
/// returns the wrong number of arrival decisions / reclaims targeting
/// non-running launches.
pub fn plan_with_arrivals(
    policy: &dyn SchedulingPolicy,
    ctx: &PlanCtx,
    requests: &[ExecRequest],
    arrivals: &[u64],
) -> ArrivalSchedule {
    plan_with_arrivals_and_faults(policy, ctx, requests, arrivals, &FaultSchedule::default())
}

/// Apply one policy-visible fault inside
/// [`plan_with_arrivals_and_faults`]: mark an aborted tenant dead, hand
/// the survivors to [`SchedulingPolicy::on_fault`], and collect its
/// reclaim directives with the fault time attached.
#[allow(clippy::too_many_arguments)]
fn apply_planned_fault(
    policy: &dyn SchedulingPolicy,
    ctx: &PlanCtx,
    requests: &[ExecRequest],
    fault: &PolicyFault,
    running: &[usize],
    widths: &mut [u32],
    dead: &mut [bool],
    reclaims: &mut Vec<TimedReclaim>,
) {
    if let PolicyFaultKind::Abort { index } = fault.kind {
        assert!(
            index < requests.len(),
            "fault aborts unknown request {index}"
        );
        dead[index] = true;
    }
    let survivors: Vec<usize> = running.iter().copied().filter(|&i| !dead[i]).collect();
    if survivors.is_empty() {
        return;
    }
    let survivor_widths: Vec<u32> = survivors.iter().map(|&i| widths[i]).collect();
    for r in policy.on_fault(ctx, requests, &survivors, fault, &survivor_widths) {
        assert!(
            survivors.contains(&r.index),
            "fault reclaim must target a surviving launch"
        );
        widths[r.index] = widths[r.index].min(r.workers);
        reclaims.push(TimedReclaim {
            at: fault.at,
            index: r.index,
            workers: r.workers,
            pressure: r.pressure,
        });
    }
}

/// [`plan_with_arrivals`] with a [`FaultSchedule`] rehearsed into the
/// plan: faults are interleaved with arrival cohorts in time order (a
/// fault tied with a cohort fires after it — the arrivals were already in
/// flight), each one driving [`SchedulingPolicy::on_fault`] over the
/// tenants admitted and still alive at that instant. An **empty**
/// schedule takes the exact arrival-only path, so fault-free plans are
/// bit-identical to [`plan_with_arrivals`].
///
/// # Panics
///
/// Panics as [`plan_with_arrivals`] does, or if a fault aborts an unknown
/// request / a policy's fault reclaims target non-surviving launches.
pub fn plan_with_arrivals_and_faults(
    policy: &dyn SchedulingPolicy,
    ctx: &PlanCtx,
    requests: &[ExecRequest],
    arrivals: &[u64],
    faults: &FaultSchedule,
) -> ArrivalSchedule {
    assert_eq!(requests.len(), arrivals.len(), "one arrival per request");
    assert!(!requests.is_empty(), "need at least one request");
    let mut times: Vec<u64> = arrivals.to_vec();
    times.sort_unstable();
    times.dedup();
    if times.len() == 1 && faults.is_empty() {
        return ArrivalSchedule {
            decisions: policy.plan(ctx, requests),
            reclaims: Vec::new(),
            resumes: Vec::new(),
        };
    }
    let mut fs: Vec<PolicyFault> = faults.faults.clone();
    fs.sort_by_key(|f| f.at);
    let mut fi = 0usize;
    let mut dead: Vec<bool> = vec![false; requests.len()];
    let mut decisions: Vec<Option<LaunchDecision>> = vec![None; requests.len()];
    // Current worker width per request: planned width minus any later
    // reclamations — what `on_arrival` receives as `running_widths` so a
    // policy can size partial reclamations (pending resumes are ignored:
    // the planner cannot know whether an anchor has retired yet, and
    // under-stating a victim's width only errs conservative).
    let mut widths: Vec<u32> = vec![0; requests.len()];
    let mut running: Vec<usize> = Vec::new();
    let mut reclaims = Vec::new();
    let mut resumes = Vec::new();
    for (cohort, &t) in times.iter().enumerate() {
        while fi < fs.len() && fs[fi].at < t {
            apply_planned_fault(
                policy,
                ctx,
                requests,
                &fs[fi],
                &running,
                &mut widths,
                &mut dead,
                &mut reclaims,
            );
            fi += 1;
        }
        let arriving: Vec<usize> = (0..requests.len()).filter(|&i| arrivals[i] == t).collect();
        if cohort == 0 {
            // A lone cohort is the whole batch: plan it with the session
            // context, exactly as the fault-free fast path does, so the
            // decisions match it bit for bit.
            let planned = if times.len() == 1 {
                policy.plan(ctx, requests)
            } else {
                let subset: Vec<ExecRequest> =
                    arriving.iter().map(|&i| requests[i].clone()).collect();
                policy.plan(&PlanCtx::new(ctx.device()), &subset)
            };
            for (&i, d) in arriving.iter().zip(planned) {
                widths[i] = d.workers;
                decisions[i] = Some(d);
            }
        } else {
            // Stale-victim pruning: when the context carries an isolated
            // estimate for an earlier-admitted launch and that estimate
            // has fully elapsed by this arrival, the launch has likely
            // drained — reclaiming from it would free nothing, and
            // keeping it in the tenancy dilutes the shares the policy
            // hands the cohort. Pruning errs toward *fewer* reclaims (a
            // mispredicted victim simply keeps its workers), and with no
            // estimates attached the live set is the full running set,
            // bit-identical to the unpruned planner.
            let live: Vec<usize> = running
                .iter()
                .copied()
                .filter(|&i| match ctx.estimate(i) {
                    Some(est) => arrivals[i].saturating_add(est) > t,
                    None => true,
                })
                .collect();
            let running_widths: Vec<u32> = live.iter().map(|&i| widths[i]).collect();
            let plan = policy.on_arrival(ctx, requests, &arriving, &live, t, &running_widths);
            assert_eq!(
                plan.decisions.len(),
                arriving.len(),
                "one decision per arriving request"
            );
            for (&i, d) in arriving.iter().zip(plan.decisions) {
                widths[i] = d.workers;
                decisions[i] = Some(d);
            }
            for r in plan.reclaims {
                assert!(
                    live.contains(&r.index),
                    "reclaim must target a running launch"
                );
                widths[r.index] = widths[r.index].min(r.workers);
                reclaims.push(TimedReclaim {
                    at: t,
                    index: r.index,
                    workers: r.workers,
                    pressure: r.pressure,
                });
            }
            for r in plan.resumes {
                assert!(
                    live.contains(&r.index),
                    "resume must target a running launch"
                );
                assert!(
                    arriving.contains(&r.after) || live.contains(&r.after),
                    "resume must anchor on an active request"
                );
                resumes.push(PlannedResume {
                    after: r.after,
                    index: r.index,
                    workers: r.workers,
                });
            }
        }
        running.extend(arriving);
    }
    // Faults striking after the last arrival.
    while fi < fs.len() {
        apply_planned_fault(
            policy,
            ctx,
            requests,
            &fs[fi],
            &running,
            &mut widths,
            &mut dead,
            &mut reclaims,
        );
        fi += 1;
    }
    ArrivalSchedule {
        decisions: decisions
            .into_iter()
            .map(|d| d.expect("every request planned"))
            .collect(),
        reclaims,
        resumes,
    }
}

// ---------------------------------------------------------------------
// PolicySet: the ordered, named registry the harness sweeps
// ---------------------------------------------------------------------

/// An ordered set of scheduling policies with unique names.
///
/// The evaluation harness runs every workload under every policy of a set
/// and reports metrics *in set order*; ratio metrics (fairness
/// improvement, throughput speedup) are relative to the set's **first**
/// policy, so put the reference scheme first.
#[derive(Debug, Clone)]
pub struct PolicySet {
    policies: Vec<Arc<dyn SchedulingPolicy>>,
}

impl PolicySet {
    /// A set from explicit policies.
    ///
    /// # Errors
    ///
    /// Rejects empty sets and duplicate policy names.
    pub fn new(policies: Vec<Arc<dyn SchedulingPolicy>>) -> Result<Self, String> {
        if policies.is_empty() {
            return Err("a policy set needs at least one policy".into());
        }
        for (i, p) in policies.iter().enumerate() {
            if policies[..i].iter().any(|q| q.name() == p.name()) {
                return Err(format!("duplicate policy name `{}`", p.name()));
            }
        }
        Ok(PolicySet { policies })
    }

    /// The paper's four schemes, in figure order: OpenCL baseline, Elastic
    /// Kernels, accelOS-naive, accelOS.
    pub fn paper() -> Self {
        PolicySet::new(vec![
            Arc::new(BaselinePolicy),
            Arc::new(ElasticKernelsPolicy),
            Arc::new(AccelOsPolicy::naive()),
            Arc::new(AccelOsPolicy::optimized()),
        ])
        .expect("paper names are unique")
    }

    /// Look up a built-in policy by name:
    ///
    /// * `baseline` — vendor OpenCL;
    /// * `ek` / `elastic-kernels` — Elastic Kernels;
    /// * `accelos-naive` — accelOS without §6.4 chunking;
    /// * `accelos` — the paper's default;
    /// * `accelos-guided` — guided dequeues (≤8 groups per claim);
    /// * `accelos-weighted` — 3× weight for the first tenant, or
    ///   `accelos-weighted:w1:w2:...` for explicit ratios (later tenants
    ///   repeat the final weight);
    /// * `accelos-priority` — preemptive priority for the first tenant, or
    ///   `accelos-priority:n` for the first `n` tenants (mid-run premium
    ///   arrivals reclaim workers from batch tenants at chunk boundaries);
    /// * `accelos-deadline` — deadline-aware preemption for the first
    ///   tenant (reclaim *just enough* width for `slack ×` its isolated
    ///   estimate to hold; default slack 2, or `accelos-deadline:slack`);
    /// * `accelos-sla` — premium preemption with per-tenant reclaim
    ///   floors (`accelos-sla:f1:f2:...`, tail repeats; floor 0 = full
    ///   pause resumed when the premium tenant retires; bare name =
    ///   floor 2 for everyone).
    pub fn builtin(name: &str) -> Result<Arc<dyn SchedulingPolicy>, String> {
        match name {
            "baseline" | "opencl" => Ok(Arc::new(BaselinePolicy)),
            "ek" | "elastic-kernels" => Ok(Arc::new(ElasticKernelsPolicy)),
            "accelos-naive" => Ok(Arc::new(AccelOsPolicy::naive())),
            "accelos" => Ok(Arc::new(AccelOsPolicy::optimized())),
            "accelos-guided" => Ok(Arc::new(GuidedPolicy::default())),
            "accelos-weighted" => Ok(Arc::new(WeightedPolicy::new(&[3.0, 1.0]))),
            "accelos-priority" => Ok(Arc::new(PriorityPolicy::default())),
            "accelos-deadline" => Ok(Arc::new(DeadlinePolicy::default())),
            "accelos-sla" => Ok(Arc::new(SlaPolicy::new(&[2]))),
            other => {
                if let Some(spec) = other.strip_prefix("accelos-weighted:") {
                    let weights: Result<Vec<f64>, _> =
                        spec.split(':').map(|w| w.trim().parse::<f64>()).collect();
                    let weights = weights.map_err(|e| format!("bad weight in `{other}`: {e}"))?;
                    if weights.is_empty() || weights.iter().any(|&w| w <= 0.0) {
                        return Err(format!("weights in `{other}` must be positive"));
                    }
                    Ok(Arc::new(WeightedPolicy::new(&weights)))
                } else if let Some(spec) = other.strip_prefix("accelos-priority:") {
                    let premium: usize = spec
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad premium count in `{other}`: {e}"))?;
                    Ok(Arc::new(PriorityPolicy::new(premium)))
                } else if let Some(spec) = other.strip_prefix("accelos-deadline:") {
                    let slack: f64 = spec
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad slack in `{other}`: {e}"))?;
                    if slack <= 1.0 {
                        return Err(format!("slack in `{other}` must exceed 1"));
                    }
                    Ok(Arc::new(DeadlinePolicy::new(slack)))
                } else if let Some(spec) = other.strip_prefix("accelos-sla:") {
                    let floors: Result<Vec<u32>, _> =
                        spec.split(':').map(|f| f.trim().parse::<u32>()).collect();
                    let floors = floors.map_err(|e| format!("bad floor in `{other}`: {e}"))?;
                    if floors.is_empty() {
                        return Err(format!("`{other}` needs at least one floor"));
                    }
                    Ok(Arc::new(SlaPolicy::new(&floors)))
                } else {
                    Err(format!(
                        "unknown policy `{other}` (try: baseline, ek, accelos-naive, accelos, \
                         accelos-guided, accelos-weighted[:w1:w2:...], accelos-priority[:n], \
                         accelos-deadline[:slack], accelos-sla[:f1:f2:...])"
                    ))
                }
            }
        }
    }

    /// Parse a comma-separated policy list (`repro --policies ...`).
    ///
    /// # Errors
    ///
    /// Propagates unknown names and duplicate-name errors.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let policies: Result<Vec<_>, _> = spec
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(Self::builtin)
            .collect();
        PolicySet::new(policies?)
    }

    /// Append a policy to the set.
    ///
    /// # Errors
    ///
    /// Rejects a name already present.
    pub fn push(&mut self, policy: Arc<dyn SchedulingPolicy>) -> Result<(), String> {
        if self.index_of(policy.name()).is_some() {
            return Err(format!("duplicate policy name `{}`", policy.name()));
        }
        self.policies.push(policy);
        Ok(())
    }

    /// Number of policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// Iterate the policies in order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn SchedulingPolicy>> {
        self.policies.iter()
    }

    /// The policy at `index`.
    pub fn get(&self, index: usize) -> &Arc<dyn SchedulingPolicy> {
        &self.policies[index]
    }

    /// Position of the policy named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.policies.iter().position(|p| p.name() == name)
    }

    /// Look up a policy by name.
    pub fn by_name(&self, name: &str) -> Option<&Arc<dyn SchedulingPolicy>> {
        self.index_of(name).map(|i| &self.policies[i])
    }

    /// All names, in order.
    pub fn names(&self) -> Vec<String> {
        self.policies.iter().map(|p| p.name().to_string()).collect()
    }

    /// All figure labels, in order.
    pub fn labels(&self) -> Vec<String> {
        self.policies
            .iter()
            .map(|p| p.label().to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_ir::interp::NdRange;

    fn reqs() -> Vec<ExecRequest> {
        vec![
            ExecRequest::new("a", NdRange::new_2d([1024, 512], [16, 16]), 0, 8, 2),
            ExecRequest::new("b", NdRange::new_1d(131072, 128), 2048, 8, 1),
        ]
    }

    #[test]
    fn baseline_policy_preserves_the_original_launch() {
        let dev = DeviceConfig::k20m();
        let reqs = reqs();
        let plans = BaselinePolicy.plan(&PlanCtx::new(&dev), &reqs);
        assert_eq!(plans[0].hardware_range, reqs[0].ndrange);
        assert_eq!(plans[0].workers as usize, reqs[0].ndrange.total_groups());
        assert_eq!(plans[0].kind, DecisionKind::Hardware);
        // The sim plan is a plain hardware launch with the raw costs.
        let n = reqs[1].ndrange.total_groups();
        match plans[1].to_sim_plan(vec![7; n], 2) {
            gpu_sim::LaunchPlan::Hardware { wg_costs } => {
                assert_eq!(wg_costs.as_ref(), vec![7u64; n].as_slice());
            }
            other => panic!("expected a hardware plan, got {other:?}"),
        }
    }

    #[test]
    fn ek_policy_matches_the_ek_crate() {
        let dev = DeviceConfig::k20m();
        let reqs = reqs();
        let plans = ElasticKernelsPolicy.plan(&PlanCtx::new(&dev), &reqs);
        let eks: Vec<elastic_kernels::EkKernel> = reqs
            .iter()
            .map(|r| elastic_kernels::EkKernel {
                wg_threads: r.demand.wg_threads,
                original_wgs: r.demand.original_wgs,
            })
            .collect();
        let reference = elastic_kernels::plan(&dev, &eks);
        for ((decision, ek), req) in plans.iter().zip(&reference).zip(&reqs) {
            assert_eq!(decision.workers, ek.workers);
            let n = req.ndrange.total_groups();
            let costs: Vec<u64> = (0..n as u64).collect();
            let ours = decision.to_sim_plan(costs.clone(), 2);
            let theirs = ek.to_sim_plan(&costs, 2);
            assert_eq!(ours, theirs, "block-cyclic slices must agree");
        }
    }

    #[test]
    fn guided_policy_emits_guided_plans_with_growth() {
        let dev = DeviceConfig::k20m();
        let reqs = reqs();
        let policy = GuidedPolicy::default();
        let ctx = PlanCtx::new(&dev);
        let plans = policy.plan(&ctx, &reqs);
        assert!(plans.iter().all(|p| p.kind == DecisionKind::Guided));
        assert_eq!(plans[0].chunk, 8);
        match plans[0].to_sim_plan(vec![3; plans[0].descriptor[1] as usize], 2) {
            gpu_sim::LaunchPlan::PersistentGuided { max_chunk, .. } => assert_eq!(max_chunk, 8),
            other => panic!("expected a guided plan, got {other:?}"),
        }
        // Guided launches may grow like accelOS launches.
        let solo = policy.solo_workers(&ctx, 0, &reqs[0]).unwrap();
        assert!(solo >= plans[0].workers);
    }

    #[test]
    fn weighted_policy_skews_and_pads_weights() {
        let dev = DeviceConfig::k20m();
        let req = ExecRequest::new("k", NdRange::new_1d(1 << 20, 256), 0, 16, 1);
        let reqs = vec![req.clone(), req.clone(), req];
        let policy = WeightedPolicy::new(&[3.0, 1.0]);
        assert_eq!(policy.name(), "accelos-weighted:3:1");
        assert_eq!(policy.weight(0), 3.0);
        assert_eq!(policy.weight(2), 1.0, "later tenants repeat the tail");
        let plans = policy.plan(&PlanCtx::new(&dev), &reqs);
        assert!(
            plans[0].workers > 2 * plans[1].workers,
            "3:1 weighting should skew workers: {:?}",
            plans.iter().map(|p| p.workers).collect::<Vec<_>>()
        );
        // Greedy saturation hands leftovers round-robin, so the two equal
        // tenants may differ by the final increment.
        assert!(plans[1].workers.abs_diff(plans[2].workers) <= 1);
    }

    #[test]
    fn plan_ctx_caches_equal_and_solo_shares() {
        let dev = DeviceConfig::k20m();
        let reqs = reqs();
        let demands: Vec<ResourceDemand> = reqs.iter().map(|r| r.demand).collect();
        let equal = OnceLock::new();
        let solo: Vec<OnceLock<(ResourceDemand, u32)>> =
            (0..reqs.len()).map(|_| OnceLock::new()).collect();
        let ctx = PlanCtx::with_caches(&dev, &equal, &solo);
        let a = ctx.equal_shares(&demands);
        let b = ctx.equal_shares(&demands);
        assert_eq!(a, b);
        assert!(equal.get().is_some(), "allocation should be cached");
        let s = ctx.solo_share(1, &reqs[1].demand);
        assert_eq!(solo[1].get().map(|(_, v)| *v), Some(s));
        // Cached and cache-free contexts agree.
        assert_eq!(PlanCtx::new(&dev).equal_shares(&demands), a);
        assert_eq!(PlanCtx::new(&dev).solo_share(1, &reqs[1].demand), s);
    }

    #[test]
    fn priority_policy_steady_state_matches_accelos() {
        let dev = DeviceConfig::k20m();
        let ctx = PlanCtx::new(&dev);
        let reqs = reqs();
        let accelos = AccelOsPolicy::optimized().plan(&ctx, &reqs);
        let priority = PriorityPolicy::default().plan(&ctx, &reqs);
        assert_eq!(accelos, priority, "plans differ only in transients");
        assert_eq!(
            PriorityPolicy::default().solo_workers(&ctx, 0, &reqs[0]),
            AccelOsPolicy::optimized().solo_workers(&ctx, 0, &reqs[0])
        );
        assert_eq!(PriorityPolicy::new(1).name(), "accelos-priority");
        assert_eq!(PriorityPolicy::new(2).name(), "accelos-priority:2");
        assert_eq!(PriorityPolicy::new(1).label(), "accelOS-priority");
    }

    #[test]
    fn priority_on_arrival_reclaims_batch_tenants() {
        let dev = DeviceConfig::k20m();
        let ctx = PlanCtx::new(&dev);
        let req = ExecRequest::new("k", NdRange::new_1d(1 << 20, 256), 0, 16, 1);
        let requests = vec![req.clone(), req.clone(), req.clone()];
        let policy = PriorityPolicy::default();
        // Batch tenants 1 and 2 run; premium tenant 0 arrives.
        let plan = policy.on_arrival(&ctx, &requests, &[0], &[1, 2], 5_000, &[8, 8]);
        assert_eq!(plan.decisions.len(), 1);
        // A lone premium arrival gets its solo share — far more than the
        // 1/3 equal share the steady-state plan would give it.
        let equal = policy.plan(&ctx, &requests);
        assert!(
            plan.decisions[0].workers > equal[0].workers,
            "premium {} vs equal {}",
            plan.decisions[0].workers,
            equal[0].workers
        );
        // Both batch tenants are shrunk to the reclaim floor.
        assert_eq!(
            plan.reclaims,
            vec![
                WorkerReclaim {
                    index: 1,
                    workers: 1,
                    pressure: Some(0)
                },
                WorkerReclaim {
                    index: 2,
                    workers: 1,
                    pressure: Some(0)
                },
            ]
        );
        // A batch arrival while nothing premium joins reclaims nothing.
        let calm = policy.on_arrival(&ctx, &requests, &[2], &[1], 5_000, &[8]);
        assert!(calm.reclaims.is_empty());
        assert!(calm.resumes.is_empty());
    }

    #[test]
    fn default_on_arrival_admits_at_share_without_reclaims() {
        let dev = DeviceConfig::k20m();
        let ctx = PlanCtx::new(&dev);
        let req = ExecRequest::new("k", NdRange::new_1d(1 << 20, 256), 0, 16, 1);
        let requests = vec![req.clone(), req.clone(), req];
        let policy = AccelOsPolicy::optimized();
        let plan = policy.on_arrival(&ctx, &requests, &[2], &[0, 1], 1_000, &[8, 8]);
        assert!(plan.reclaims.is_empty());
        assert!(plan.resumes.is_empty());
        // The arrival is admitted at its share of the 3-tenant active set.
        let steady = policy.plan(&ctx, &requests);
        assert_eq!(plan.decisions, vec![steady[2].clone()]);
    }

    #[test]
    fn plan_with_arrivals_cohorts_and_reclaims() {
        let dev = DeviceConfig::k20m();
        let ctx = PlanCtx::new(&dev);
        let req = ExecRequest::new("k", NdRange::new_1d(1 << 20, 256), 0, 16, 1);
        let requests = vec![req.clone(), req.clone(), req];
        let policy = PriorityPolicy::default();

        // Single cohort: exactly the steady-state plan, no reclaims.
        let same = plan_with_arrivals(&policy, &ctx, &requests, &[0, 0, 0]);
        assert_eq!(same.decisions, policy.plan(&ctx, &requests));
        assert!(same.reclaims.is_empty());

        // Premium (index 0) arrives at t=5000 into running batch tenants:
        // the batch cohort was planned as a pair (half the machine each),
        // and the arrival reclaims both down to the floor.
        let staggered = plan_with_arrivals(&policy, &ctx, &requests, &[5_000, 0, 0]);
        let pair = policy.plan(&PlanCtx::new(&dev), &requests[1..]);
        assert_eq!(staggered.decisions[1], pair[0]);
        assert_eq!(staggered.decisions[2], pair[1]);
        assert!(staggered.decisions[0].workers > pair[0].workers);
        assert_eq!(
            staggered.reclaims,
            vec![
                TimedReclaim {
                    at: 5_000,
                    index: 1,
                    workers: 1,
                    pressure: Some(0)
                },
                TimedReclaim {
                    at: 5_000,
                    index: 2,
                    workers: 1,
                    pressure: Some(0)
                },
            ]
        );

        // accelos over the same staggered batch: same cohorts, zero
        // reclaims (arrivals queue instead of preempting).
        let accelos = AccelOsPolicy::optimized();
        let calm = plan_with_arrivals(&accelos, &ctx, &requests, &[5_000, 0, 0]);
        assert!(calm.reclaims.is_empty());
        assert_eq!(calm.decisions[1], pair[0]);
    }

    #[test]
    fn policy_set_registry_and_parse() {
        let paper = PolicySet::paper();
        assert_eq!(
            paper.names(),
            vec!["baseline", "ek", "accelos-naive", "accelos"]
        );
        assert_eq!(
            paper.labels(),
            vec!["OpenCL", "EK", "accelOS-naive", "accelOS"]
        );
        assert_eq!(paper.index_of("accelos"), Some(3));

        let set = PolicySet::parse("accelos, accelos-guided, accelos-weighted:2:1").unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.get(1).name(), "accelos-guided");
        assert!(set.by_name("accelos-weighted:2:1").is_some());

        let pri = PolicySet::parse("accelos,accelos-priority,accelos-priority:2").unwrap();
        assert_eq!(pri.get(1).name(), "accelos-priority");
        assert_eq!(pri.get(1).label(), "accelOS-priority");
        assert_eq!(pri.get(2).name(), "accelos-priority:2");

        let dl =
            PolicySet::parse("accelos-deadline,accelos-deadline:1.5,accelos-sla:4:2:0").unwrap();
        assert_eq!(dl.get(0).name(), "accelos-deadline");
        assert_eq!(dl.get(0).label(), "accelOS-deadline");
        assert_eq!(dl.get(1).name(), "accelos-deadline:1.5");
        assert_eq!(dl.get(2).name(), "accelos-sla:4:2:0");
        assert_eq!(
            PolicySet::builtin("accelos-sla").unwrap().name(),
            "accelos-sla"
        );

        assert!(PolicySet::parse("nope").is_err());
        assert!(PolicySet::parse("accelos,accelos").is_err());
        assert!(PolicySet::parse("").is_err());
        assert!(PolicySet::builtin("accelos-weighted:0").is_err());
        assert!(PolicySet::builtin("accelos-priority:x").is_err());
        assert!(PolicySet::builtin("accelos-deadline:1").is_err());
        assert!(PolicySet::builtin("accelos-deadline:x").is_err());
        assert!(PolicySet::builtin("accelos-sla:").is_err());
        assert!(PolicySet::builtin("accelos-sla:-1").is_err());
    }

    #[test]
    fn deadline_and_sla_steady_states_match_accelos() {
        let dev = DeviceConfig::k20m();
        let ctx = PlanCtx::new(&dev);
        let reqs = reqs();
        let accelos = AccelOsPolicy::optimized().plan(&ctx, &reqs);
        assert_eq!(accelos, DeadlinePolicy::default().plan(&ctx, &reqs));
        assert_eq!(accelos, SlaPolicy::new(&[4, 2]).plan(&ctx, &reqs));
        for (i, req) in reqs.iter().enumerate() {
            assert_eq!(
                DeadlinePolicy::default().solo_workers(&ctx, i, req),
                AccelOsPolicy::optimized().solo_workers(&ctx, i, req)
            );
        }
    }

    #[test]
    fn deadline_policy_reclaims_just_enough() {
        let dev = DeviceConfig::k20m();
        let req = ExecRequest::new("k", NdRange::new_1d(1 << 20, 256), 0, 16, 1);
        let requests = vec![req.clone(), req.clone(), req.clone()];
        let policy = DeadlinePolicy::new(4.0);
        let solo = PlanCtx::new(&dev).solo_share(0, &requests[0].demand);

        // Generous slack, early arrival: the deadline needs only a
        // fraction of the solo width, so only *one* victim is shaved, and
        // not all the way to the floor.
        let estimates = [Some(1_000_000u64), Some(2_000_000), Some(2_000_000)];
        let ctx = PlanCtx::new(&dev).with_estimates(&estimates);
        let widths = [solo / 2, solo / 2];
        let gentle = policy.on_arrival(&ctx, &requests, &[0], &[1, 2], 100_000, &widths);
        let est = estimates[0].unwrap();
        let need = (solo as f64 * est as f64
            / ((policy.deadline(est) - 100_000) as f64 * DeadlinePolicy::SAFETY))
            .ceil() as u32;
        assert_eq!(gentle.decisions[0].workers, need);
        assert!(need < solo, "generous slack needs less than solo width");
        let reclaimed: u32 = gentle
            .reclaims
            .iter()
            .map(|r| {
                let pos = [1usize, 2].iter().position(|&i| i == r.index).unwrap();
                widths[pos] - r.workers
            })
            .sum();
        assert_eq!(
            reclaimed, need,
            "same-shape tenants free 1:1 thread capacity"
        );
        assert!(
            gentle.reclaims.len() < 2 || gentle.reclaims.iter().any(|r| r.workers > 1),
            "just-enough must not floor every victim: {:?}",
            gentle.reclaims
        );

        // Arriving at the deadline itself: everything is reclaimed (the
        // priority-style worst case).
        let late = policy.on_arrival(
            &ctx,
            &requests,
            &[0],
            &[1, 2],
            policy.deadline(est),
            &widths,
        );
        assert_eq!(late.decisions[0].workers, solo);

        // No estimates: degrade to the all-or-floor premium behaviour.
        let blind_ctx = PlanCtx::new(&dev);
        let blind = policy.on_arrival(&blind_ctx, &requests, &[0], &[1, 2], 100_000, &widths);
        assert_eq!(
            blind.reclaims,
            vec![
                WorkerReclaim {
                    index: 1,
                    workers: 1,
                    pressure: Some(0)
                },
                WorkerReclaim {
                    index: 2,
                    workers: 1,
                    pressure: Some(0)
                },
            ]
        );

        // A batch arrival reclaims nothing.
        let calm = policy.on_arrival(&ctx, &requests, &[2], &[1], 100_000, &[solo]);
        assert!(calm.reclaims.is_empty());
    }

    #[test]
    fn sla_policy_floors_and_pauses_with_resumes() {
        let dev = DeviceConfig::k20m();
        let ctx = PlanCtx::new(&dev);
        let req = ExecRequest::new("k", NdRange::new_1d(1 << 20, 256), 0, 16, 1);
        let requests = vec![req.clone(), req.clone(), req.clone()];
        // Tenant 1 holds an SLA floor of 4; tenant 2 is best-effort
        // (floor 0 → full pause + resume on the premium retirement).
        let policy = SlaPolicy::new(&[0, 4, 0]);
        assert_eq!(policy.floor(1), 4);
        assert_eq!(policy.floor(2), 0);
        assert_eq!(policy.floor(9), 0, "tail repeats");
        let plan = policy.on_arrival(&ctx, &requests, &[0], &[1, 2], 5_000, &[16, 16]);
        assert_eq!(
            plan.reclaims,
            vec![
                WorkerReclaim {
                    index: 1,
                    workers: 4,
                    pressure: Some(0)
                },
                WorkerReclaim {
                    index: 2,
                    workers: 0,
                    pressure: Some(0)
                },
            ]
        );
        assert_eq!(
            plan.resumes,
            vec![WorkerResume {
                index: 2,
                after: 0,
                workers: 16
            }],
            "the full pause is paired with a resume restoring the pre-pause width"
        );
    }

    #[test]
    fn plan_with_arrivals_collects_resumes_and_tracks_widths() {
        let dev = DeviceConfig::k20m();
        let ctx = PlanCtx::new(&dev);
        let req = ExecRequest::new("k", NdRange::new_1d(1 << 20, 256), 0, 16, 1);
        let requests = vec![req.clone(), req.clone(), req.clone()];
        let policy = SlaPolicy::new(&[0, 2, 0]);
        let schedule = plan_with_arrivals(&policy, &ctx, &requests, &[5_000, 0, 0]);
        let pair = policy.plan(&PlanCtx::new(&dev), &requests[1..]);
        assert_eq!(
            schedule.reclaims,
            vec![
                TimedReclaim {
                    at: 5_000,
                    index: 1,
                    workers: 2,
                    pressure: Some(0)
                },
                TimedReclaim {
                    at: 5_000,
                    index: 2,
                    workers: 0,
                    pressure: Some(0)
                },
            ]
        );
        // The resume restores the batch tenant's cohort-planned width and
        // anchors on the premium arrival.
        assert_eq!(
            schedule.resumes,
            vec![PlannedResume {
                after: 0,
                index: 2,
                workers: pair[1].workers
            }]
        );
    }

    #[test]
    fn default_on_fault_scales_survivors_to_capacity() {
        let dev = DeviceConfig::k20m();
        let ctx = PlanCtx::new(&dev);
        let req = ExecRequest::new("k", NdRange::new_1d(1 << 20, 256), 0, 16, 1);
        let requests = vec![req.clone(), req.clone(), req.clone()];
        let policy = AccelOsPolicy::optimized();
        let widths: Vec<u32> = policy
            .plan(&ctx, &requests)
            .iter()
            .map(|d| d.workers)
            .collect();

        // Half the CUs die: every survivor is shrunk proportionally to
        // the surviving capacity, untagged (no single tenant benefits).
        let loss = PolicyFault {
            at: 3_000,
            kind: PolicyFaultKind::CapacityLoss {
                cus_lost: dev.num_cus / 2,
            },
        };
        let reclaims = policy.on_fault(&ctx, &requests, &[0, 1, 2], &loss, &widths);
        assert_eq!(reclaims.len(), 3);
        for (r, &w) in reclaims.iter().zip(&widths) {
            assert!(r.workers < w, "degraded share {} < width {w}", r.workers);
            assert_eq!(r.pressure, None);
        }

        // An abort frees capacity: survivor shares only grow, so no
        // shrink directives are emitted (regrowth is elastic).
        let abort = PolicyFault {
            at: 3_000,
            kind: PolicyFaultKind::Abort { index: 2 },
        };
        let survivor_widths = [widths[0], widths[1]];
        assert!(policy
            .on_fault(&ctx, &requests, &[0, 1], &abort, &survivor_widths)
            .is_empty());
    }

    #[test]
    fn priority_on_fault_exempts_premium_tenants() {
        let dev = DeviceConfig::k20m();
        let ctx = PlanCtx::new(&dev);
        let req = ExecRequest::new("k", NdRange::new_1d(1 << 20, 256), 0, 16, 1);
        let requests = vec![req.clone(), req.clone(), req.clone()];
        let policy = PriorityPolicy::default();
        let loss = PolicyFault {
            at: 3_000,
            kind: PolicyFaultKind::CapacityLoss {
                cus_lost: dev.num_cus / 2,
            },
        };
        // Widths large enough that proportional scaling would shrink
        // every survivor under the default hook.
        let widths = [64, 64, 64];
        let reclaims = policy.on_fault(&ctx, &requests, &[0, 1, 2], &loss, &widths);
        // The premium tenant (index 0) keeps its width; only the batch
        // tenants absorb the capacity loss.
        assert_eq!(reclaims.len(), 2);
        for r in &reclaims {
            assert!(r.index == 1 || r.index == 2, "premium shrunk: {r:?}");
            assert!(r.workers < 64);
            assert_eq!(r.pressure, None);
        }
    }

    #[test]
    fn severe_domain_loss_drops_the_premium_exemption() {
        let dev = DeviceConfig::k20m();
        let ctx = PlanCtx::new(&dev);
        let req = ExecRequest::new("k", NdRange::new_1d(1 << 20, 256), 0, 16, 1);
        let requests = vec![req.clone(), req.clone(), req.clone()];
        let widths = [64, 64, 64];

        // A small correlated loss (under a quarter of the 13-CU fleet)
        // behaves like independent losses: premium stays exempt.
        let mild = PolicyFault {
            at: 3_000,
            kind: PolicyFaultKind::DomainLoss { cus_lost: 3 },
        };
        assert!(!mild.severe_loss(&ctx));
        let priority = PriorityPolicy::default();
        let reclaims = priority.on_fault(&ctx, &requests, &[0, 1, 2], &mild, &widths);
        assert!(reclaims.iter().all(|r| r.index != 0), "premium shrunk");

        // A domain taking >=25% of the fleet at once: everyone scales —
        // exempting premium on a machine this degraded is incoherent.
        let severe = PolicyFault {
            at: 3_000,
            kind: PolicyFaultKind::DomainLoss { cus_lost: 4 },
        };
        assert!(severe.severe_loss(&ctx));
        let reclaims = priority.on_fault(&ctx, &requests, &[0, 1, 2], &severe, &widths);
        assert_eq!(reclaims.len(), 3, "premium must scale too: {reclaims:?}");
        assert!(reclaims.iter().any(|r| r.index == 0));

        // accelos-sla applies the same coherence rule, and its floors
        // survive even the severe loss.
        let sla = SlaPolicy::new(&[8, 2]);
        let mild_sla = sla.on_fault(&ctx, &requests, &[0, 1, 2], &mild, &widths);
        assert!(mild_sla.iter().all(|r| r.index != 0), "SLA tenant shrunk");
        let severe_sla = sla.on_fault(&ctx, &requests, &[0, 1, 2], &severe, &widths);
        assert!(severe_sla.iter().any(|r| r.index == 0));
        for r in &severe_sla {
            assert!(
                r.workers >= sla.floor(r.index),
                "floor violated: {r:?} vs floor {}",
                sla.floor(r.index)
            );
        }
        // An accumulated independent loss of the same size keeps the
        // historical exemption: severity is about *correlated* events.
        let independent = PolicyFault {
            at: 3_000,
            kind: PolicyFaultKind::CapacityLoss { cus_lost: 4 },
        };
        assert!(!independent.severe_loss(&ctx));
    }

    #[test]
    fn domain_projection_counts_whole_domains_once() {
        use gpu_sim::{FailureDomain, FaultEvent, FaultKind, FaultPlan};
        let domains = FailureDomain::split_evenly(12, 3); // 4 CUs each
        let plan = FaultPlan::new(vec![
            // CU 1 (domain 0) dies alone first.
            FaultEvent {
                at: 50,
                kind: FaultKind::CuFailure {
                    cu: 1,
                    repair_at: None,
                },
            },
            // Domain 0 then fails: only its 3 still-alive members count.
            FaultEvent {
                at: 100,
                kind: FaultKind::DomainFailure {
                    domain: 0,
                    repair_at: None,
                },
            },
            // A repairable domain failure is a transient: dropped.
            FaultEvent {
                at: 150,
                kind: FaultKind::DomainFailure {
                    domain: 1,
                    repair_at: Some(900),
                },
            },
            // Re-failing the dead domain adds nothing.
            FaultEvent {
                at: 200,
                kind: FaultKind::DomainFailure {
                    domain: 0,
                    repair_at: None,
                },
            },
            // An individual failure inside the dead domain adds nothing.
            FaultEvent {
                at: 250,
                kind: FaultKind::CuFailure {
                    cu: 2,
                    repair_at: None,
                },
            },
        ]);
        let sched = FaultSchedule::from_fault_plan_with_domains(&plan, &domains);
        assert_eq!(
            sched.faults,
            vec![
                PolicyFault {
                    at: 50,
                    kind: PolicyFaultKind::CapacityLoss { cus_lost: 1 }
                },
                PolicyFault {
                    at: 100,
                    kind: PolicyFaultKind::DomainLoss { cus_lost: 3 }
                },
            ]
        );
        // Without the partition, domain events cannot be projected.
        assert_eq!(
            FaultSchedule::from_fault_plan(&plan).faults.len(),
            2 // the two individual CU failures only
        );
    }

    #[test]
    fn fault_schedule_projects_sim_plans() {
        use gpu_sim::{FaultEvent, FaultKind, FaultPlan};
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 100,
                kind: FaultKind::CuFailure {
                    cu: 3,
                    repair_at: None,
                },
            },
            // Duplicate failure of a dead CU: no further capacity change.
            FaultEvent {
                at: 200,
                kind: FaultKind::CuFailure {
                    cu: 3,
                    repair_at: None,
                },
            },
            // Transients are the simulator's business, not the planner's.
            FaultEvent {
                at: 300,
                kind: FaultKind::CuFailure {
                    cu: 1,
                    repair_at: Some(900),
                },
            },
            FaultEvent {
                at: 400,
                kind: FaultKind::Straggler {
                    cu: 0,
                    factor: 2.0,
                    until: 800,
                },
            },
            FaultEvent {
                at: 500,
                kind: FaultKind::KernelAbort {
                    launch: gpu_sim::LaunchId(1),
                },
            },
        ]);
        let sched = FaultSchedule::from_fault_plan(&plan);
        assert_eq!(
            sched.faults,
            vec![
                PolicyFault {
                    at: 100,
                    kind: PolicyFaultKind::CapacityLoss { cus_lost: 1 }
                },
                PolicyFault {
                    at: 500,
                    kind: PolicyFaultKind::Abort { index: 1 }
                },
            ]
        );
        assert!(FaultSchedule::from_fault_plan(&FaultPlan::default()).is_empty());
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical() {
        let dev = DeviceConfig::k20m();
        let ctx = PlanCtx::new(&dev);
        let req = ExecRequest::new("k", NdRange::new_1d(1 << 20, 256), 0, 16, 1);
        let requests = vec![req.clone(), req.clone(), req.clone()];
        let policy = PriorityPolicy::default();
        let arrivals = [5_000, 0, 0];
        let plain = plan_with_arrivals(&policy, &ctx, &requests, &arrivals);
        let faulty = plan_with_arrivals_and_faults(
            &policy,
            &ctx,
            &requests,
            &arrivals,
            &FaultSchedule::default(),
        );
        assert_eq!(plain, faulty);
        // The simultaneous batch takes the fast path in both planners.
        let both = plan_with_arrivals_and_faults(
            &policy,
            &ctx,
            &requests,
            &[0; 3],
            &FaultSchedule::default(),
        );
        assert_eq!(both, plan_with_arrivals(&policy, &ctx, &requests, &[0; 3]));
    }

    #[test]
    fn planned_faults_emit_timed_reclaims_for_survivors_only() {
        let dev = DeviceConfig::k20m();
        let ctx = PlanCtx::new(&dev);
        let req = ExecRequest::new("k", NdRange::new_1d(1 << 20, 256), 0, 16, 1);
        let requests = vec![req.clone(), req.clone(), req.clone()];
        let policy = AccelOsPolicy::optimized();
        let sched = FaultSchedule {
            faults: vec![
                PolicyFault {
                    at: 2_000,
                    kind: PolicyFaultKind::Abort { index: 1 },
                },
                PolicyFault {
                    at: 6_000,
                    kind: PolicyFaultKind::CapacityLoss {
                        cus_lost: dev.num_cus / 2,
                    },
                },
            ],
        };
        let plan = plan_with_arrivals_and_faults(&policy, &ctx, &requests, &[0; 3], &sched);
        // Decisions are still the fault-free batch plan: faults change
        // the running widths later, not the admission.
        assert_eq!(plan.decisions, policy.plan(&ctx, &requests));
        // The abort emits nothing (capacity frees up); the capacity loss
        // shrinks exactly the two survivors at the fault time, untagged.
        assert_eq!(plan.reclaims.len(), 2);
        for r in &plan.reclaims {
            assert_eq!(r.at, 6_000);
            assert!(
                r.index == 0 || r.index == 2,
                "dead tenant 1 must not be reclaimed: {r:?}"
            );
            assert_eq!(r.pressure, None);
        }
        assert!(plan.resumes.is_empty());
    }
}
