//! Chaos soak harness (ROADMAP "fault-plane follow-ons"): the
//! mixed-priority episode swept across **fault-intensity mixes** —
//! independent CU failures × correlated domain failures × kernel aborts,
//! all drawn from one seeded [`FaultSpec`] per cell — with the fault
//! plane's standing invariants *asserted at every cell*, not just
//! rendered:
//!
//! * **exactly-once retry** — every chunk a failure knocked out of a
//!   surviving kernel is retried exactly once
//!   (`chunks_lost == groups_retried` per kernel);
//! * **work conservation** — every surviving kernel executes its plan's
//!   total group count, no more, no less, no matter how many CUs or
//!   whole domains died under it;
//! * **no double-booking** — replaying the trace, no CU ever exceeds its
//!   thread or slot budget and nothing is double-freed;
//! * **every pause resumed** — a paused victim is always woken, even
//!   when the pressuring tenant aborts instead of retiring.
//!
//! The sweep renders degradation and recovery-latency curves per policy
//! (`repro chaos`); [`ChaosGrid::smoke`] is the CI-sized grid.

use crate::experiments::priority_workload;
use crate::runner::Runner;
use accelos::policy::PolicySet;
use gpu_sim::{
    DeviceConfig, FailureDomain, FaultPlan, FaultSpec, KernelLaunch, SimReport, TraceKind,
};

/// How many failure domains the chaos sweep partitions the device into.
/// Four domains on the 13-CU K20m preset makes the largest domain 4 CUs
/// — over a quarter of the fleet, which is exactly the correlated-loss
/// severity the policy plane's exemption coherence rule is about.
pub const CHAOS_DOMAINS: usize = 4;

/// The fault-intensity grid one chaos sweep covers: the cross product of
/// independent CU-failure counts, correlated domain-failure counts, and
/// kernel-abort counts.
#[derive(Debug, Clone)]
pub struct ChaosGrid {
    /// Independent (repairable) CU failure counts to draw.
    pub independent: Vec<usize>,
    /// Correlated (permanent) domain failure counts to draw.
    pub correlated: Vec<usize>,
    /// Kernel abort counts to draw.
    pub aborts: Vec<usize>,
}

impl ChaosGrid {
    /// The full sweep: 24 cells per policy.
    pub fn full() -> Self {
        ChaosGrid {
            independent: vec![0, 1, 2, 4],
            correlated: vec![0, 1, 2],
            aborts: vec![0, 1],
        }
    }

    /// The CI smoke grid: 8 cells per policy, still covering every axis
    /// (including the ≥25%-fleet correlated loss) and the zero-fault
    /// control cell.
    pub fn smoke() -> Self {
        ChaosGrid {
            independent: vec![0, 2],
            correlated: vec![0, 1],
            aborts: vec![0, 1],
        }
    }

    /// Cells in grid order (independent outermost, aborts innermost).
    pub fn cells(&self) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for &i in &self.independent {
            for &c in &self.correlated {
                for &a in &self.aborts {
                    out.push((i, c, a));
                }
            }
        }
        out
    }
}

/// One `(policy, fault mix)` cell of the chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Independent CU failures drawn.
    pub independent: usize,
    /// Correlated domain failures drawn.
    pub correlated: usize,
    /// Kernel aborts drawn.
    pub aborts: usize,
    /// Faults the simulator actually injected.
    pub faults_injected: usize,
    /// Episode makespan under this mix.
    pub makespan: u64,
    /// Makespan inflation over the fault-free episode
    /// ([`sched_metrics::fault_degradation`]).
    pub degradation: f64,
    /// First fault to end of episode
    /// ([`sched_metrics::recovery_latency`]; 0 in the control cell).
    pub recovery_latency: u64,
    /// In-flight chunks knocked out by failures, summed over kernels.
    pub chunks_lost: usize,
    /// Groups re-executed through retry queues, summed over kernels.
    pub groups_retried: usize,
    /// Tenants killed by aborts (their lost work is gone with them).
    pub aborted_tenants: usize,
}

/// One policy's row: a [`ChaosCell`] per grid cell, in grid order.
#[derive(Debug, Clone)]
pub struct ChaosPolicyRow {
    /// Policy display label.
    pub policy: String,
    /// One cell per entry of [`ChaosGrid::cells`], in order.
    pub cells: Vec<ChaosCell>,
}

/// The swept chaos scenario.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Fault-draw horizon (cycles) shared by every cell.
    pub horizon: u64,
    /// The failure-domain partition used ([`CHAOS_DOMAINS`] domains).
    pub domains: Vec<FailureDomain>,
    /// One row per policy of the swept set.
    pub rows: Vec<ChaosPolicyRow>,
}

/// Replay the traced report against the device budget: per-CU threads
/// and slots never exceed capacity and never go negative. Panics on the
/// first violation — this is the sweep's no-double-booking assertion.
fn assert_no_double_booking(
    cfg: &DeviceConfig,
    launches: &[KernelLaunch],
    report: &SimReport,
    cell: (usize, usize, usize),
) {
    let mut threads = vec![0i64; cfg.num_cus];
    let mut slots = vec![0i64; cfg.num_cus];
    for ev in &report.trace {
        let wg_threads = launches[ev.launch.0 as usize].req.threads as i64;
        match ev.kind {
            TraceKind::WgStart => {
                threads[ev.cu] += wg_threads;
                slots[ev.cu] += 1;
                assert!(
                    threads[ev.cu] <= cfg.threads_per_cu as i64
                        && slots[ev.cu] <= cfg.wg_slots_per_cu as i64,
                    "chaos cell {cell:?}: cu {} overbooked at t={}",
                    ev.cu,
                    ev.time
                );
            }
            TraceKind::WgEnd => {
                threads[ev.cu] -= wg_threads;
                slots[ev.cu] -= 1;
                assert!(
                    threads[ev.cu] >= 0 && slots[ev.cu] >= 0,
                    "chaos cell {cell:?}: cu {} double-freed at t={}",
                    ev.cu,
                    ev.time
                );
            }
            _ => {}
        }
    }
}

/// Run the chaos soak: every policy of `set` runs the mixed-priority
/// episode under every fault mix of `grid`, with the standing fault-plane
/// invariants asserted at each cell (see the module docs). The episode
/// shape, the domain partition and each cell's seeded [`FaultPlan`] are
/// independent of the swept set, so two `--policies` lists see the same
/// machine failing the same way at the same times.
///
/// # Panics
///
/// Panics if any cell violates an invariant — a chaos run that *returns*
/// has proven exactly-once recovery across the whole grid.
pub fn chaos_soak(runner: &Runner, set: &PolicySet, grid: &ChaosGrid, seed: u64) -> ChaosScenario {
    let workload = priority_workload();
    let accelos = accelos::policy::AccelOsPolicy::optimized();
    let t_batch = runner.isolated_time(&accelos, workload[1], seed);
    let arrivals: Vec<u64> = vec![t_batch / 4, 0, 0];
    let ctx = runner.rep_context(&workload, seed);
    let horizon = runner
        .preemptive_report(&ctx, &accelos, &arrivals)
        .total_time()
        .max(1);
    let num_cus = runner.device().num_cus;
    let domains = FailureDomain::split_evenly(num_cus, CHAOS_DOMAINS);

    // One seeded plan per cell, shared by every policy's row.
    let cells = grid.cells();
    let plans: Vec<FaultPlan> = cells
        .iter()
        .enumerate()
        .map(|(n, &(ind, cor, ab))| {
            let spec = FaultSpec {
                horizon,
                cu_failures: ind,
                // Independent failures are repairable transients...
                repair_delay: Some(horizon / 4),
                stragglers: ind / 2,
                slowdown: 3.0,
                straggler_window: horizon / 8,
                aborts: ab,
                // ...correlated domain losses are permanent: the policy
                // plane replans survivors around the missing capacity.
                domain_failures: cor,
                domain_repair_delay: None,
            };
            FaultPlan::from_spec_with_domains(
                &spec,
                num_cus,
                workload.len(),
                CHAOS_DOMAINS,
                seed.wrapping_add(n as u64),
            )
        })
        .collect();

    let rows = set
        .iter()
        .map(|policy| {
            let clean = runner
                .preemptive_report(&ctx, policy.as_ref(), &arrivals)
                .total_time()
                .max(1);
            let cells = cells
                .iter()
                .zip(&plans)
                .map(|(&(ind, cor, ab), plan)| {
                    let mut episode =
                        runner.preemptive_episode(&ctx, policy.as_ref(), &arrivals, plan, &domains);
                    episode.trace = true;
                    let report = episode.run(runner.device()).report;

                    let cell = (ind, cor, ab);
                    // The standing invariants, asserted per cell.
                    for (k, launch) in report.kernels.iter().zip(&episode.launches) {
                        if k.aborted {
                            continue;
                        }
                        assert_eq!(
                            k.groups_retried, k.chunks_lost,
                            "chaos cell {cell:?}: kernel {} broke exactly-once retry",
                            k.name
                        );
                        assert_eq!(
                            k.groups_executed as u64,
                            launch.plan.total_groups(),
                            "chaos cell {cell:?}: kernel {} lost or duplicated work",
                            k.name
                        );
                        assert!(
                            k.pauses == 0 || k.resumes > 0,
                            "chaos cell {cell:?}: kernel {} paused but never resumed",
                            k.name
                        );
                    }
                    assert_no_double_booking(runner.device(), &episode.launches, &report, cell);
                    if plan.events.is_empty() {
                        assert_eq!(
                            report.total_time(),
                            clean,
                            "chaos control cell must be bit-identical to the fault-free episode"
                        );
                    }

                    let first_fault = plan.events.first().map(|e| e.at);
                    let makespan = report.total_time();
                    ChaosCell {
                        independent: ind,
                        correlated: cor,
                        aborts: ab,
                        faults_injected: report.faults_injected,
                        makespan,
                        degradation: sched_metrics::fault_degradation(clean, makespan),
                        recovery_latency: first_fault
                            .map(|at| sched_metrics::recovery_latency(at, makespan))
                            .unwrap_or(0),
                        chunks_lost: report.kernels.iter().map(|k| k.chunks_lost).sum(),
                        groups_retried: report.kernels.iter().map(|k| k.groups_retried).sum(),
                        aborted_tenants: report.kernels.iter().filter(|k| k.aborted).count(),
                    }
                })
                .collect();
            ChaosPolicyRow {
                policy: policy.label().to_string(),
                cells,
            }
        })
        .collect();
    ChaosScenario {
        horizon,
        domains,
        rows,
    }
}

/// Render the chaos sweep: one line per `(policy, fault mix)` cell, with
/// the degradation and recovery-latency curves that summarise how each
/// policy rides out escalating chaos.
pub fn render_chaos(scenario: &ChaosScenario, device: &str) -> String {
    let mut s = format!(
        "Extension — chaos soak (independent × correlated × abort mixes over {} cycles, {} domains), {device}\n",
        scenario.horizon,
        scenario.domains.len()
    );
    s += &format!(
        "  {:<17} {:>3} {:>3} {:>3} {:>9} {:>10} {:>8} {:>6} {:>8} {:>7} {:>9}\n",
        "policy",
        "ind",
        "dom",
        "ab",
        "injected",
        "makespan",
        "degrad.",
        "lost",
        "retried",
        "aborted",
        "recovery"
    );
    for row in &scenario.rows {
        for c in &row.cells {
            s += &format!(
                "  {:<17} {:>3} {:>3} {:>3} {:>9} {:>10} {:>7.2}x {:>6} {:>8} {:>7} {:>9}\n",
                row.policy,
                c.independent,
                c.correlated,
                c.aborts,
                c.faults_injected,
                c.makespan,
                c.degradation,
                c.chunks_lost,
                c.groups_retried,
                c.aborted_tenants,
                if c.recovery_latency == 0 {
                    "-".to_string()
                } else {
                    c.recovery_latency.to_string()
                },
            );
        }
    }
    s += "  every cell passed exactly-once retry, work conservation, no-double-booking and pause-resume checks\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_covers_every_axis_and_the_control_cell() {
        let grid = ChaosGrid::smoke();
        let cells = grid.cells();
        assert!(cells.contains(&(0, 0, 0)), "control cell missing");
        assert!(cells.iter().any(|&(i, _, _)| i > 0));
        assert!(cells.iter().any(|&(_, c, _)| c > 0));
        assert!(cells.iter().any(|&(_, _, a)| a > 0));
        assert_eq!(cells.len(), 8);
        assert_eq!(ChaosGrid::full().cells().len(), 24);
    }

    #[test]
    fn chaos_soak_smoke_holds_every_invariant() {
        // The driver asserts the invariants itself — a normal return is
        // the proof. Sweep the premium-exempting policies so domain
        // losses exercise the coherence rule too.
        let runner = Runner::new(DeviceConfig::k20m());
        let set = PolicySet::parse("accelos,accelos-priority,accelos-sla").unwrap();
        let scenario = chaos_soak(&runner, &set, &ChaosGrid::smoke(), 2016);
        assert_eq!(scenario.rows.len(), 3);
        for row in &scenario.rows {
            assert_eq!(row.cells.len(), 8);
            let control = &row.cells[0];
            assert_eq!(control.degradation, 1.0);
            assert_eq!(control.recovery_latency, 0);
            // The ≥25%-fleet correlated cells actually lost capacity and
            // recovered with exactly-once retries.
            assert!(row
                .cells
                .iter()
                .filter(|c| c.correlated > 0)
                .any(|c| c.faults_injected > 0));
        }
        let rendered = render_chaos(&scenario, "k20m");
        assert!(rendered.contains("chaos soak"));
        assert!(rendered.contains("every cell passed"));
    }
}
