//! Fault injection and recovery: a CU dies mid-episode, nothing is lost.
//!
//! The same mixed-priority episode as `examples/priority_preemption.rs`
//! — two batch tenants (`lbm`, `tpacf`) at t=0, a premium tenant
//! (`sgemm`) arriving a quarter into their run under `accelos-priority`
//! — but this time one compute unit fails **permanently** right around
//! the premium arrival. The fault plane's contract, asserted below:
//!
//! * **zero lost work** — every in-flight virtual group the failure
//!   rolls back is requeued and re-executes exactly once
//!   (`groups_retried == chunks_lost`, and every launch still completes
//!   its full plan);
//! * **proportional degradation** — losing 1 of N CUs may slow the
//!   premium tenant down, but by *less* than the removed capacity
//!   fraction `1/(N-1)`: the scheduler re-places the displaced workers
//!   instead of serialising behind the hole.
//!
//! ```text
//! cargo run --release --example fault_recovery
//! ```

use accel_harness::experiments::priority_workload;
use accel_harness::runner::Runner;
use accelos::policy::PriorityPolicy;
use gpu_sim::{DeviceConfig, FaultEvent, FaultKind, FaultPlan};

/// Same episode (workload, arrival rule, seed) as `repro priority` and
/// the golden snapshot in `tests/preemption_invariants.rs`.
const SEED: u64 = 2016;

fn main() {
    let device = DeviceConfig::k20m();
    let num_cus = device.num_cus;
    let runner = Runner::new(device.clone());
    let policy = PriorityPolicy::default();
    let workload = priority_workload();
    let t_batch = runner.isolated_time(&policy, workload[1], SEED);
    let arrival = t_batch / 4;
    let arrivals = vec![arrival, 0, 0];
    let ctx = runner.rep_context(&workload, SEED);

    // The control: the clean episode.
    let clean = runner.preemptive_report(&ctx, &policy, &arrivals);

    // The experiment: one CU fails for good just after the premium
    // tenant arrives — the worst moment, the machine is fully committed.
    let fault_at = arrival + 500;
    let faults = FaultPlan::new(vec![FaultEvent {
        at: fault_at,
        kind: FaultKind::CuFailure {
            cu: 0,
            repair_at: None,
        },
    }]);
    let episode = runner.preemptive_episode(&ctx, &policy, &arrivals, &faults, &[]);
    let faulty = episode.run(runner.device()).report;

    println!(
        "episode on {} ({num_cus} CUs): batch tenants at t=0, premium at t={arrival}, \
         CU 0 fails permanently at t={fault_at}\n",
        device.name
    );
    println!(
        "  {:<8} {:>12} {:>12} {:>10} {:>8} {:>8}",
        "kernel", "clean end", "faulty end", "executed", "lost", "retried"
    );
    let mut lost = 0;
    let mut retried = 0;
    for ((ck, fk), launch) in clean
        .kernels
        .iter()
        .zip(&faulty.kernels)
        .zip(&episode.launches)
    {
        println!(
            "  {:<8} {:>12} {:>12} {:>10} {:>8} {:>8}",
            fk.name, ck.end, fk.end, fk.groups_executed, fk.chunks_lost, fk.groups_retried
        );
        // Zero lost work: the full plan still executes, faults or not.
        assert_eq!(
            fk.groups_executed as u64,
            launch.plan.total_groups(),
            "{}: a CU failure must not lose work",
            fk.name
        );
        assert!(!fk.aborted);
        lost += fk.chunks_lost;
        retried += fk.groups_retried;
    }
    assert_eq!(faulty.faults_injected, 1);
    assert!(
        lost > 0,
        "the failure must catch work in flight on a committed machine"
    );
    assert_eq!(
        retried, lost,
        "every lost in-flight group re-executes exactly once"
    );
    println!(
        "\n{lost} in-flight virtual groups were rolled back by the failure and all \
         {retried} re-executed exactly once — zero work-groups lost."
    );

    // Proportional degradation: the premium tenant pays less than the
    // removed capacity fraction, because survivors are re-planned at
    // their degraded share and displaced workers migrate instead of
    // queueing behind the dead CU.
    let clean_tt = clean.kernels[0].turnaround() as f64;
    let faulty_tt = faulty.kernels[0].turnaround() as f64;
    let slowdown = faulty_tt / clean_tt - 1.0;
    let capacity_removed = 1.0 / (num_cus as f64 - 1.0);
    println!(
        "\npremium turnaround: clean {} -> faulty {} (+{:.2}%), removed capacity {:.2}%",
        clean.kernels[0].turnaround(),
        faulty.kernels[0].turnaround(),
        slowdown * 100.0,
        capacity_removed * 100.0
    );
    assert!(
        slowdown < capacity_removed,
        "premium degradation {:.4} must stay below the removed capacity fraction {:.4}",
        slowdown,
        capacity_removed
    );
    println!(
        "the premium tenant degrades by less than the capacity the machine lost — \
         recovery is work-conserving, not serialising."
    );
}
