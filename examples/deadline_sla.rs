//! Deadline- and SLA-aware preemption with resumable full pause.
//!
//! The same mixed-priority episode as `examples/priority_preemption.rs`
//! — two batch tenants (`lbm`, `tpacf`) at t=0, a premium tenant
//! (`sgemm`) arriving a quarter into their run — but scored against a
//! **deadline**: the premium tenant must finish within 2x its isolated
//! time, measured from the episode start. Three reactions compared:
//!
//! * plain `accelos` admits the arrival at its share and lets it queue —
//!   the deadline is missed;
//! * `accelos-priority` floors every batch tenant at 1 worker — the
//!   deadline holds, but the batch tenants give up almost everything;
//! * `accelos-deadline` uses the harness's cached isolated-time estimate
//!   to reclaim **just enough** width for the deadline to hold — it
//!   holds while reclaiming strictly fewer workers, so the batch tenants
//!   keep more of the machine.
//!
//! The SLA leg runs `accelos-sla:4:4:0` (floors are per-request; the
//! first entry covers the premium tenant itself and never binds): the
//! first batch tenant keeps a contractual floor of 4 workers while the
//! best-effort tenant is **fully paused** (0 workers) and resumed — via
//! `gpu_sim::ResumeCmd`, fired at the premium tenant's retirement —
//! with no virtual group lost.
//!
//! The transparent leg replays the just-enough story through `ProxyCl`,
//! where no harness cache exists: a [`ProfileStore`] is calibrated by
//! two solo launches, persisted, loaded into a fresh session, and the
//! deadlined tenant then holds its deadline while reclaiming strictly
//! fewer workers than the same episode runs uncalibrated (which
//! degrades to the all-or-floor fallback).
//!
//! ```text
//! cargo run --release --example deadline_sla
//! ```

use accel_harness::experiments::{deadline_scenario, priority_workload, DEADLINE_SLACK};
use accel_harness::runner::Runner;
use accelos::policy::{DeadlinePolicy, PolicySet, SchedulingPolicy, SlaPolicy};
use accelos::proxycl::{PendingExec, ProxyCl};
use clrt::{Arg, Platform};
use gpu_sim::{DeviceConfig, FaultPlan, SimReport};
use kernel_ir::interp::NdRange;
use sched_metrics::profile::ProfileStore;
use std::sync::Arc;

/// Same episode (workload, arrival rule, seed) as `repro deadline` and
/// the golden snapshot in `tests/preemption_invariants.rs`.
const SEED: u64 = 2016;

/// Transparent-plane scenario shapes, shared with
/// `tests/profile_plane.rs`: the deadlined tenant launches 32 groups of
/// 32 threads (wide enough that the thread-share model binds, not the
/// tiny device's wg-slot budget); the batch tenants 8 groups each.
const PREMIUM_ITEMS: usize = 1024;
const BATCH_ITEMS: usize = 256;
const WG: usize = 32;

const SRC: &str = "kernel void scale(global float* b, float s) {
    size_t i = get_global_id(0);
    b[i] = b[i] * s;
}";

/// One deadline episode on the transparent plane: two short batch
/// tenants at t=0, the deadlined tenant joining at t=60, planned by
/// `accelos-deadline` with (optionally) a calibration store attached.
fn transparent_episode(store: Option<ProfileStore>) -> SimReport {
    let mut os = ProxyCl::with_policy(&Platform::test_tiny(), Arc::new(DeadlinePolicy::default()));
    if let Some(s) = store {
        os = os.with_profile_store(s);
    }
    let program = os.build_program(SRC).unwrap();
    let chunk = program.info("scale").unwrap().chunk;
    let mut make = |val: f32, items: usize| {
        let mut k = program.create_kernel("scale").unwrap();
        let buf = os.context_mut().create_buffer(items * 4);
        os.context_mut().write_f32(buf, &vec![1.0; items]).unwrap();
        k.set_arg(0, Arg::Buffer(buf)).unwrap();
        k.set_arg(1, Arg::Scalar(kernel_ir::Value::F32(val)))
            .unwrap();
        (k, buf, items)
    };
    let kernels = [
        make(2.0, PREMIUM_ITEMS),
        make(5.0, BATCH_ITEMS),
        make(9.0, BATCH_ITEMS),
    ];
    let batch = kernels
        .iter()
        .map(|(k, _, items)| PendingExec {
            kernel: k.clone(),
            chunk,
            ndrange: NdRange::new_1d(*items, WG),
        })
        .collect();
    os.enqueue_concurrent_at(batch, &[60, 0, 0]).unwrap();
    for (i, (_, buf, items)) in kernels.iter().enumerate() {
        let expect = [2.0f32, 5.0, 9.0][i];
        assert_eq!(
            os.context_mut().read_f32(*buf).unwrap(),
            vec![expect; *items],
            "transparent episode computed the wrong result"
        );
    }
    os.last_report()
        .cloned()
        .expect("an enqueue just completed")
}

/// Calibrate a fresh store with one solo launch per scenario shape (a
/// solo run's observation is its exact busy time), then round-trip it
/// through the on-disk format — the `--profile-store` dataflow.
fn calibrated_store() -> ProfileStore {
    let mut os = ProxyCl::with_policy(&Platform::test_tiny(), Arc::new(DeadlinePolicy::default()))
        .with_profile_store(ProfileStore::new());
    let program = os.build_program(SRC).unwrap();
    for items in [PREMIUM_ITEMS, BATCH_ITEMS] {
        let mut k = program.create_kernel("scale").unwrap();
        let buf = os.context_mut().create_buffer(items * 4);
        os.context_mut().write_f32(buf, &vec![1.0; items]).unwrap();
        k.set_arg(0, Arg::Buffer(buf)).unwrap();
        k.set_arg(1, Arg::Scalar(kernel_ir::Value::F32(1.5)))
            .unwrap();
        os.enqueue(&program, &k, NdRange::new_1d(items, WG))
            .unwrap();
    }
    let store = os.take_profile_store().expect("store was attached");
    let dir = std::env::temp_dir().join(format!("accelos-deadline-sla-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.profile");
    store.save(&path).unwrap();
    let loaded = ProfileStore::load(&path).unwrap();
    assert_eq!(
        loaded.render(),
        store.render(),
        "profile-store round-trip must be byte-stable"
    );
    std::fs::remove_dir_all(&dir).ok();
    loaded
}

fn main() {
    let device = DeviceConfig::k20m();
    let runner = Runner::new(device.clone());
    let set = PolicySet::parse("accelos,accelos-priority,accelos-deadline").unwrap();
    let sc = deadline_scenario(&runner, &set, SEED);
    println!(
        "deadline episode on {}: batch tenants at t=0, premium at t={}, deadline {} \
         ({}x its isolated time)\n",
        device.name, sc.arrival, sc.deadline, DEADLINE_SLACK
    );
    println!(
        "  {:<18} {:>12} {:>9} {:>10}",
        "policy", "premium end", "deadline", "reclaimed"
    );
    for row in &sc.rows {
        println!(
            "  {:<18} {:>12} {:>9} {:>10}",
            row.policy,
            row.premium_end,
            if row.met { "met" } else { "MISSED" },
            row.reclaimed_workers
        );
    }

    // The acceptance bar: accelos-deadline meets a deadline that
    // queueing accelos misses, while reclaiming strictly fewer total
    // workers than the all-or-floor accelos-priority.
    let queueing = &sc.rows[0];
    let priority = &sc.rows[1];
    let deadline = &sc.rows[2];
    assert!(
        !queueing.met,
        "queueing accelOS should miss the deadline (end {} vs {})",
        queueing.premium_end, sc.deadline
    );
    assert!(
        priority.met && deadline.met,
        "both preemptive policies should hold the deadline"
    );
    assert!(
        deadline.reclaimed_workers < priority.reclaimed_workers,
        "just-enough reclamation should take strictly fewer workers: {} vs {}",
        deadline.reclaimed_workers,
        priority.reclaimed_workers
    );
    println!(
        "\naccelOS-deadline holds the deadline reclaiming {} workers where \
         accelOS-priority takes {} — the batch tenants keep the difference.",
        deadline.reclaimed_workers, priority.reclaimed_workers
    );

    // SLA leg: a contractual floor of 4 for the first batch tenant, full
    // pause + guaranteed resume for the best-effort one.
    let workload = priority_workload();
    let arrivals = vec![sc.arrival, 0, 0];
    let ctx = runner.rep_context(&workload, SEED);
    let sla = SlaPolicy::new(&[4, 4, 0]);
    let episode = runner.preemptive_episode(&ctx, &sla, &arrivals, &FaultPlan::default(), &[]);
    let report = episode.run(runner.device()).report;
    println!(
        "\nSLA tiers under {} (floors: lbm 4, tpacf 0 = best-effort full pause):",
        sla.name()
    );
    for (kr, launch) in report.kernels.iter().zip(&episode.launches) {
        println!(
            "  {:<8} end {:>7}  executed {}/{} groups, {} pauses, {} resumes \
             ({} workers respawned)",
            kr.name,
            kr.end,
            kr.groups_executed,
            launch.plan.total_groups(),
            kr.pauses,
            kr.resumes,
            kr.resumed_workers
        );
        assert_eq!(
            kr.groups_executed as u64,
            launch.plan.total_groups(),
            "a paused tenant must lose no work"
        );
    }
    let paused = &report.kernels[2];
    assert_eq!(paused.pauses, 1, "tpacf is fully paused");
    assert_eq!(
        paused.resumes, 1,
        "and resumed when the premium tenant retires"
    );
    assert!(paused.resumed_workers > 0);
    assert_eq!(
        episode.resumes.len(),
        1,
        "the planner paired the pause with a resume"
    );
    assert!(
        paused.end > report.kernels[0].end,
        "the paused tenant finishes after the premium tenant that paused it"
    );
    println!(
        "\nthe best-effort tenant was paused to 0 workers and resumed at the premium \
         retirement (t={}); every virtual group still executed exactly once.",
        report.kernels[0].end
    );

    // Transparent leg: the same just-enough story through ProxyCl, where
    // the only source of isolated-time estimates is the calibration
    // plane. Uncalibrated, the deadline policy cannot size the reclaim
    // and degrades to the all-or-floor fallback; a store calibrated by
    // two solo launches (and round-tripped through disk, exactly the
    // `repro --profile-store` dataflow) restores minimal reclamation.
    let store = calibrated_store();
    let estimate = store
        .estimate("scale", PREMIUM_ITEMS)
        .expect("solo launch calibrated the premium shape");
    let deadline = (DeadlinePolicy::default().slack() * estimate as f64) as u64;
    let rep_cold = transparent_episode(None);
    let rep_warm = transparent_episode(Some(store));
    let reclaimed =
        |r: &SimReport| -> usize { r.kernels.iter().map(|k| k.reclaimed_workers).sum() };
    let (cold, warm) = (reclaimed(&rep_cold), reclaimed(&rep_warm));
    println!(
        "\ntransparent plane (ProxyCl on the tiny device, deadline {deadline} = \
         {DEADLINE_SLACK}x the calibrated isolated time {estimate}):"
    );
    println!(
        "  uncalibrated  premium end {:>5}  reclaimed {:>2} workers (all-or-floor fallback)",
        rep_cold.kernels[0].end, cold
    );
    println!(
        "  calibrated    premium end {:>5}  reclaimed {:>2} workers (just enough)",
        rep_warm.kernels[0].end, warm
    );
    assert!(
        warm < cold,
        "the calibrated run must reclaim strictly fewer workers ({warm} vs {cold})"
    );
    assert!(
        rep_warm.kernels[0].end <= deadline,
        "calibrated transparent run missed its deadline: end {} > {deadline}",
        rep_warm.kernels[0].end
    );
    println!(
        "\nwith a persisted profile store the transparent runtime holds the same deadline \
         while the batch tenants keep {} more worker{}.",
        cold - warm,
        if cold - warm == 1 { "" } else { "s" }
    );
}
