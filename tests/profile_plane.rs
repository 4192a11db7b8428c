//! The calibration plane end to end: [`ProfileStore`] estimates flowing
//! through stale-victim pruning in `plan_with_arrivals` and through the
//! transparent runtime (`ProxyCl`).
//!
//! Pinned guarantees:
//!
//! * **pruning only shrinks** — attaching estimates never reclaims more
//!   workers than the estimate-free planner: the victim set is a subset,
//!   and in the deadline/priority scenario shape (batch at t=0, premium
//!   joining later) the reclaimed-worker total is ≤ the no-pruning
//!   baseline (proptest);
//! * **conservation survives pruning** — plans with random arrivals and
//!   random estimates still execute every virtual group exactly once
//!   when run on the simulator (proptest);
//! * **cold store = bit-identity** — a `ProxyCl` with an empty store
//!   plans and reports byte-identically to one with no store at all;
//! * **save → restart → load reproduces the plan** — two fresh sessions
//!   loading the same persisted store produce byte-identical reports,
//!   and a calibrated `accelos-deadline` run holds its deadline while
//!   reclaiming strictly fewer workers than the uncalibrated
//!   all-or-floor degradation.

use accelos::policy::{
    plan_with_arrivals, ArrivalSchedule, DeadlinePolicy, PlanCtx, PriorityPolicy,
};
use accelos::proxycl::{PendingExec, ProxyCl};
use accelos::scheduler::ExecRequest;
use clrt::{Arg, Platform};
use gpu_sim::{
    DeviceConfig, KernelLaunch, LaunchId, ReclaimCmd, ResumeCmd, SimReport, Simulator, WorkGroupReq,
};
use kernel_ir::interp::NdRange;
use proptest::prelude::*;
use sched_metrics::profile::ProfileStore;
use std::sync::Arc;

/// Total workers a schedule takes back: per launch, the planned width
/// minus the smallest width any reclaim leaves it with.
fn reclaimed_total(s: &ArrivalSchedule) -> u64 {
    s.decisions
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let floor = s
                .reclaims
                .iter()
                .filter(|r| r.index == i)
                .map(|r| r.workers)
                .fold(d.workers, u32::min);
            u64::from(d.workers - floor)
        })
        .sum()
}

/// Indices a schedule reclaims from.
fn victims(s: &ArrivalSchedule) -> Vec<usize> {
    let mut v: Vec<usize> = s.reclaims.iter().map(|r| r.index).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Strategy for an optional isolated-time estimate below `max` cycles.
fn opt_estimate(max: u64) -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None::<u64>), (1u64..max).prop_map(Some)]
}

/// Hand-built small requests: `shapes[i]` is `(groups, wg_threads)`.
fn requests_from(shapes: &[(usize, u32)]) -> Vec<ExecRequest> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(groups, wg))| {
            ExecRequest::new(
                format!("k{i}"),
                NdRange::new_1d(groups * wg as usize, wg as usize),
                0,
                1,
                1,
            )
        })
        .collect()
}

/// Execute a planned schedule on the timing plane with synthetic
/// per-group costs, applying its reclaim and resume commands.
fn simulate(requests: &[ExecRequest], s: &ArrivalSchedule, arrivals: &[u64]) -> SimReport {
    let mut sim = Simulator::new(DeviceConfig::test_tiny());
    for (i, d) in s.decisions.iter().enumerate() {
        let total = requests[i].ndrange.total_groups();
        let costs: Vec<u64> = (0..total).map(|g| 20 + ((i + g) as u64 * 7) % 40).collect();
        sim.add_launch(KernelLaunch {
            name: d.kernel.to_string(),
            arrival: arrivals[i],
            req: WorkGroupReq {
                threads: requests[i].demand.wg_threads,
                local_mem: requests[i].demand.wg_local_mem,
                regs_per_thread: 1,
            },
            mem_intensity: 0.0,
            plan: d.to_sim_plan(costs, 1),
            max_workers: None,
        });
    }
    for r in &s.reclaims {
        sim.add_reclaim(ReclaimCmd {
            at: r.at,
            launch: LaunchId(r.index as u32),
            workers: r.workers,
            pressure: r.pressure.map(|p| LaunchId(p as u32)),
            chunk: None,
        });
    }
    for r in &s.resumes {
        sim.add_resume(ResumeCmd {
            after: LaunchId(r.after as u32),
            launch: LaunchId(r.index as u32),
            workers: r.workers,
        });
    }
    sim.run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// S2, the scenario shape: the whole batch at t=0, the premium
    /// tenant joining later. The first cohort plans identically with or
    /// without estimates, so pruning can only *remove* victims — every
    /// pruned reclaim also exists in the baseline, and the
    /// reclaimed-worker total never exceeds it.
    #[test]
    fn pruning_never_reclaims_more_than_the_baseline(
        shapes in proptest::collection::vec((1usize..24, prop_oneof![Just(8u32), Just(16), Just(32)]), 2..6),
        t_premium in 1u64..20_000,
        estimates in proptest::collection::vec(opt_estimate(40_000), 6..6),
    ) {
        let device = DeviceConfig::test_tiny();
        let requests = requests_from(&shapes);
        let mut arrivals = vec![0u64; requests.len()];
        arrivals[0] = t_premium;
        // The premium tenant needs no estimate; everyone else may have
        // one (or not — `None` keeps the launch unprunable).
        let mut est: Vec<Option<u64>> = estimates[..requests.len()].to_vec();
        est[0] = None;

        let policy = PriorityPolicy::default();
        let baseline = plan_with_arrivals(&policy, &PlanCtx::new(&device), &requests, &arrivals);
        let ctx = PlanCtx::new(&device).with_estimates(&est);
        let pruned = plan_with_arrivals(&policy, &ctx, &requests, &arrivals);

        prop_assert_eq!(&pruned.decisions, &baseline.decisions);
        for r in &pruned.reclaims {
            prop_assert!(
                baseline.reclaims.contains(r),
                "pruned reclaim {r:?} absent from the baseline"
            );
        }
        // Exactly the launches whose estimate has elapsed are spared.
        let live: Vec<usize> = (1..requests.len())
            .filter(|&i| est[i].is_none_or(|e| arrivals[i] + e > t_premium))
            .collect();
        prop_assert_eq!(victims(&pruned), live);
        prop_assert!(
            reclaimed_total(&pruned) <= reclaimed_total(&baseline),
            "pruning increased the reclaimed-worker total: {} > {}",
            reclaimed_total(&pruned),
            reclaimed_total(&baseline)
        );
    }

    /// S2, conservation: random cohorts and random estimates still
    /// produce plans that execute every virtual group exactly once on
    /// the machine, and the pruned victim set stays a subset of the
    /// baseline's no matter how cohorts interleave.
    #[test]
    fn pruned_plans_conserve_work_on_the_machine(
        shapes in proptest::collection::vec((1usize..16, prop_oneof![Just(8u32), Just(16), Just(32)]), 1..6),
        raw_arrivals in proptest::collection::vec(0u64..8, 6..6),
        estimates in proptest::collection::vec(opt_estimate(12_000), 6..6),
    ) {
        let device = DeviceConfig::test_tiny();
        let requests = requests_from(&shapes);
        // Coarse arrival slots force cohort collisions.
        let arrivals: Vec<u64> = raw_arrivals[..requests.len()]
            .iter()
            .map(|&a| a * 1_000)
            .collect();
        let est = &estimates[..requests.len()];

        let policy = PriorityPolicy::default();
        let baseline = plan_with_arrivals(&policy, &PlanCtx::new(&device), &requests, &arrivals);
        let ctx = PlanCtx::new(&device).with_estimates(est);
        let pruned = plan_with_arrivals(&policy, &ctx, &requests, &arrivals);

        let vb = victims(&baseline);
        prop_assert!(victims(&pruned).iter().all(|v| vb.contains(v)));
        prop_assert!(pruned.reclaims.len() <= baseline.reclaims.len());
        for s in [&baseline, &pruned] {
            prop_assert!(s.decisions.iter().all(|d| d.workers >= 1));
            let report = simulate(&requests, s, &arrivals);
            for (i, k) in report.kernels.iter().enumerate() {
                prop_assert_eq!(
                    k.groups_executed,
                    requests[i].ndrange.total_groups(),
                    "kernel {} lost or duplicated work (reclaims: {:?})",
                    i,
                    &s.reclaims
                );
            }
        }
    }
}

/// Runner plumbing: an empty store attached to a fresh [`Runner`] leaves
/// the deadline scenario's plan bit-identical (the declared index still
/// pays its exact solo simulation, which the store then learns), and the
/// warmed store reproduces the same plan from its calibrated entry
/// instead of re-simulating.
#[test]
fn runner_store_learns_and_reproduces_the_deadline_plan() {
    use accel_harness::experiments::priority_workload;
    use accel_harness::runner::Runner;

    let workload = priority_workload();
    let arrivals = vec![3_000, 0, 0];
    let policy = DeadlinePolicy::default();

    let plain = Runner::new(DeviceConfig::k20m());
    let ctx = plain.rep_context(&workload, 2016);
    let reference = plain.preemptive_report(&ctx, &policy, &arrivals);

    let runner = Runner::new(DeviceConfig::k20m());
    runner.set_profile_store(ProfileStore::new());
    let ctx2 = runner.rep_context(&workload, 2016);
    let first = runner.preemptive_report(&ctx2, &policy, &arrivals);
    assert_eq!(
        format!("{first:#?}"),
        format!("{reference:#?}"),
        "an empty store must not perturb the plan"
    );
    let store = runner.take_profile_store().expect("store was attached");
    assert_eq!(store.len(), 1, "the deadlined index was recorded");
    runner.set_profile_store(store);
    let warmed = runner.preemptive_report(&ctx2, &policy, &arrivals);
    assert_eq!(
        format!("{warmed:#?}"),
        format!("{reference:#?}"),
        "the calibrated estimate must reproduce the exact plan"
    );
}

const SRC: &str = "kernel void scale(global float* b, float s) {
    size_t i = get_global_id(0);
    b[i] = b[i] * s;
}";

/// The deadlined tenant's launch shape (32 groups of 32 threads — wide
/// enough that the thread-share model, not the tiny device's wg-slot
/// budget, is what binds).
const PREMIUM_ITEMS: usize = 1024;
/// The batch tenants' launch shape (8 groups — short, so the device
/// frees up while the deadlined tenant runs).
const BATCH_ITEMS: usize = 256;
const WG: usize = 32;

/// A deadline-scenario episode on the transparent plane: two short batch
/// tenants at t=0, the deadlined tenant (index 0) joining at `arrival`.
/// Returns the per-buffer results and the timing report.
fn staggered_episode(
    store: Option<ProfileStore>,
    arrival: u64,
) -> (Vec<Vec<f32>>, SimReport, Option<ProfileStore>) {
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
    os.enqueue_concurrent_at(batch, &[arrival, 0, 0]).unwrap();
    let results = kernels
        .iter()
        .map(|(_, b, _)| os.context_mut().read_f32(*b).unwrap())
        .collect();
    let report = os
        .last_report()
        .cloned()
        .expect("an enqueue just completed");
    (results, report, os.take_profile_store())
}

/// Calibrate a store by running the scenario shapes solo (a solo run's
/// observation is its exact busy time).
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
    assert!(
        store.entry("scale", PREMIUM_ITEMS).is_some()
            && store.entry("scale", BATCH_ITEMS).is_some(),
        "solo runs must calibrate both shapes"
    );
    store
}

/// Cold store = bit-identity: attaching an *empty* store changes nothing
/// — every estimate resolves to `None`, so the plan (and the whole
/// timing report) is byte-identical to a store-less session.
#[test]
fn cold_store_is_bit_identical_through_proxycl() {
    let (res_none, rep_none, _) = staggered_episode(None, 60);
    let (res_cold, rep_cold, taken) = staggered_episode(Some(ProfileStore::new()), 60);
    assert_eq!(res_none, res_cold);
    assert_eq!(format!("{rep_none:#?}"), format!("{rep_cold:#?}"));
    // The cold session still *learned* from its own launches.
    assert!(!taken.expect("store was attached").is_empty());
}

/// The acceptance cycle: calibrate → save → restart → load → replan,
/// with the deadlined tenant arriving early, mid-run and late. At every
/// arrival both warmed sessions replan bit-identically, the deadline
/// holds, and the calibrated run reclaims no more workers than the
/// uncalibrated all-or-floor degradation — strictly fewer when the
/// tenant joins at t=60.
#[test]
fn saved_store_reproduces_the_plan_and_minimises_reclamation() {
    let store = calibrated_store();
    let dir = std::env::temp_dir().join(format!("accelos-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.profile");
    store.save(&path).unwrap();
    let loaded = ProfileStore::load(&path).unwrap();
    assert_eq!(loaded.render(), store.render(), "round-trip is byte-stable");
    std::fs::remove_dir_all(&dir).ok();

    // The deadline clock runs from episode start (the policy's
    // remaining-time computation is `slack × estimate − now`), so every
    // arrival shares one deadline.
    let estimate = store.estimate("scale", PREMIUM_ITEMS).unwrap();
    let deadline = (DeadlinePolicy::default().slack() * estimate as f64) as u64;
    for arrival in [30, 60, 300, 900, 1_800] {
        let (res_a, rep_a, _) = staggered_episode(Some(loaded.clone()), arrival);
        let (res_b, rep_b, _) = staggered_episode(Some(loaded.clone()), arrival);
        assert_eq!(res_a, res_b);
        assert_eq!(
            format!("{rep_a:#?}"),
            format!("{rep_b:#?}"),
            "save → restart → load must reproduce the plan bit-identically (t={arrival})"
        );
        assert_eq!(res_a[0], vec![2.0; PREMIUM_ITEMS]);
        assert_eq!(res_a[1], vec![5.0; BATCH_ITEMS]);
        assert_eq!(res_a[2], vec![9.0; BATCH_ITEMS]);

        // Minimal reclamation: the calibrated run never takes back more
        // workers than the estimate-free all-or-floor fallback...
        let (_, rep_cold, _) = staggered_episode(None, arrival);
        let warm: usize = rep_a.kernels.iter().map(|k| k.reclaimed_workers).sum();
        let cold: usize = rep_cold.kernels.iter().map(|k| k.reclaimed_workers).sum();
        assert!(
            warm <= cold,
            "calibrated deadline run reclaimed more workers at t={arrival} ({warm} vs {cold})"
        );
        if arrival == 60 {
            assert!(
                warm < cold,
                "calibrated deadline run must reclaim fewer workers ({warm} vs {cold})"
            );
        }
        // ...while the deadlined tenant still finishes inside slack × its
        // calibrated isolated time.
        assert!(
            rep_a.kernels[0].end <= deadline,
            "deadline missed at t={arrival}: end {} > {deadline}",
            rep_a.kernels[0].end
        );
    }
}
