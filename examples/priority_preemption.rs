//! Preemptive priority with mid-flight worker reclamation.
//!
//! Two batch tenants (`lbm`, `tpacf`) plan the machine between themselves
//! at t=0; a premium tenant (`sgemm`) arrives a quarter into their run.
//! Under plain accelOS the premium request is admitted at its fair share
//! but its workers *queue* — the batch tenants' persistent workers hold
//! their CU slots until their queues drain. `accelos-priority` instead
//! reclaims those workers at their next chunk boundary (the paper's
//! elastic-kernel design is exactly what makes this possible without
//! hardware preemption): in-flight chunks finish, freed slots go to the
//! premium tenant, and the batch tenants continue at the reclaim floor
//! until the premium work retires and elastic growth restores them.
//!
//! ```text
//! cargo run --release --example priority_preemption
//! ```

use accel_harness::experiments::priority_workload;
use accel_harness::runner::Runner;
use accelos::policy::{AccelOsPolicy, PriorityPolicy, SchedulingPolicy};
use gpu_sim::{DeviceConfig, FaultPlan};

/// Same episode (workload, arrival rule, seed) as `repro priority` and the
/// golden snapshot in `tests/preemption_invariants.rs`, so numbers line up
/// across all three.
const SEED: u64 = 2016;

fn main() {
    let device = DeviceConfig::k20m();
    let runner = Runner::new(device.clone());
    let names = ["sgemm (premium)", "lbm (batch)", "tpacf (batch)"];
    let workload = priority_workload();

    let queueing = AccelOsPolicy::optimized();
    let preempting = PriorityPolicy::default(); // first request is premium

    // The premium tenant joins a quarter into lbm's isolated runtime.
    let t_arrive = runner.isolated_time(&queueing, workload[1], SEED) / 4;
    let arrivals = [t_arrive, 0, 0];
    println!(
        "mixed-priority episode on {}: batch tenants at t=0, premium at t={t_arrive}\n",
        device.name
    );

    // Same session (same calibrated cost draw) for both policies; the
    // cohort-planned preemptive path drives each policy's arrival hooks.
    let ctx = runner.rep_context(&workload, SEED);
    let queue_report = runner.preemptive_report(&ctx, &queueing, &arrivals);
    let preempting_episode =
        runner.preemptive_episode(&ctx, &preempting, &arrivals, &FaultPlan::default(), &[]);
    let preempt_report = preempting_episode.run(runner.device()).report;

    println!("turnaround (cycles):");
    println!(
        "  tenant           {:>12} {:>12}",
        queueing.label(),
        preempting.label()
    );
    for (i, name) in names.iter().enumerate() {
        println!(
            "  {:<16} {:>12} {:>12}",
            name,
            queue_report.kernels[i].turnaround(),
            preempt_report.kernels[i].turnaround()
        );
    }

    let reclaimed: usize = preempt_report
        .kernels
        .iter()
        .map(|k| k.reclaimed_workers)
        .sum();
    let preemptions: usize = preempt_report.kernels.iter().map(|k| k.preemptions).sum();
    println!(
        "\npreemption bookkeeping: {preemptions} reclaim commands, \
         {reclaimed} workers retired at chunk boundaries"
    );
    // Conservation: executed groups vs the launch plan's total.
    for (i, (k, launch)) in preempt_report
        .kernels
        .iter()
        .zip(&preempting_episode.launches)
        .enumerate()
    {
        assert_eq!(
            k.groups_executed as u64,
            launch.plan.total_groups(),
            "reclamation must never lose or duplicate work"
        );
        println!(
            "  {:<16} executed {}/{} groups at widths shrunk-then-regrown \
             ({} machine workers total)",
            names[i],
            k.groups_executed,
            launch.plan.total_groups(),
            k.machine_wgs
        );
    }

    let gain =
        queue_report.kernels[0].turnaround() as f64 / preempt_report.kernels[0].turnaround() as f64;
    println!(
        "\npremium tenant turnaround improvement from preemption: {gain:.2}x \
         (the batch tenants pay with a longer tail, the usual priority trade)"
    );
    assert!(
        gain >= 1.5,
        "preemption should cut the premium turnaround ≥1.5x (got {gain:.2}x)"
    );
    assert_eq!(
        queue_report
            .kernels
            .iter()
            .map(|k| k.preemptions)
            .sum::<usize>(),
        0,
        "plain accelOS never preempts"
    );
}
