//! Invariants of mid-flight worker reclamation and resumable full pause.
//!
//! Reclamation inverted the simulator's old grow-only elasticity; full
//! pause (reclaiming a victim to **0** workers, waking it with a
//! [`ResumeCmd`] when the pressuring tenant retires) strands work unless
//! the resume machinery is airtight. These tests pin what must survive:
//!
//! * **(a) conservation** — every virtual group executes exactly once, no
//!   matter when or how often a launch's worker allotment is revoked —
//!   including revocations to 0, provided each pause is paired with a
//!   resume (`KernelReport::groups_executed == plan.total_groups()`);
//! * **(b) no double-booking** — replaying the trace, no compute unit
//!   ever holds more resident threads/slots than it owns across the
//!   shrink/pause/resume transitions;
//! * **(c) every pause resumed** — a paused launch whose anchor tenant
//!   retires always wakes (`pauses > 0 ⇒ resumes > 0`), and a stale pause
//!   landing after the anchor retired is blocked by the resume floor;
//! * **(d) zero-arrival bit-identity** — with no premium arrival mid-run,
//!   `accelos-priority`, `accelos-deadline` and `accelos-sla` are all
//!   bit-identical to `accelos` through the whole preemptive pipeline
//!   (cohort planning, estimates plumbing included);
//! * golden snapshots of the mixed-priority and deadline scenarios'
//!   `SimReport`s, and the engine-identity golden: one digest line per
//!   seeded random episode on three devices (regenerate with
//!   `BLESS=1 cargo test --test preemption_invariants`).

use accel_harness::experiments::priority_workload;
use accel_harness::runner::Runner;
use accelos::policy::{AccelOsPolicy, DeadlinePolicy, PriorityPolicy, SchedulingPolicy, SlaPolicy};
use gpu_sim::{
    DeviceConfig, FailureDomain, FaultEvent, FaultKind, FaultPlan, FaultSpec, KernelLaunch,
    KernelReport, LaunchId, LaunchPlan, PlacementStats, ReclaimCmd, ResumeCmd, SimReport,
    Simulator, TraceKind, WorkGroupReq,
};
use parboil::KernelSpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random multi-tenant episode on the tiny device: persistent launches
/// with random shapes and arrivals, plus random reclaim commands — any
/// time, any target, any width, **including full pauses** (width 0).
/// Launch 0 is the episode's anchor: it is never paused (its reclaims are
/// floored at 1, so it always drains), and every pause of another launch
/// is paired with a [`ResumeCmd`] anchored on launch 0's retirement —
/// the pairing discipline the policy layer's `WorkerReclaim`/
/// `WorkerResume` contract prescribes. Conservation must then hold no
/// matter how pauses, resumes and the anchor's retirement interleave
/// (a pause landing *after* the anchor retired is blocked by the resume
/// floor rather than stranding work).
fn random_episode(seed: u64) -> (Vec<KernelLaunch>, Vec<ReclaimCmd>, Vec<ResumeCmd>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(1..5usize);
    let launches: Vec<KernelLaunch> = (0..n)
        .map(|i| {
            let workers = rng.random_range(1..6u32);
            let vgs = rng.random_range(10..150usize);
            let costs: Vec<u64> = (0..vgs).map(|_| rng.random_range(5..80u64)).collect();
            let guided = rng.random_range(0..3u32) == 0;
            let plan = if guided {
                LaunchPlan::PersistentGuided {
                    workers,
                    vg_costs: costs.into(),
                    max_chunk: rng.random_range(1..5u32),
                    per_vg_overhead: 1,
                }
            } else {
                LaunchPlan::PersistentDynamic {
                    workers,
                    vg_costs: costs.into(),
                    chunk: rng.random_range(1..5u32),
                    per_vg_overhead: 1,
                }
            };
            KernelLaunch {
                name: format!("k{i}"),
                arrival: rng.random_range(0..2_000u64),
                req: WorkGroupReq {
                    threads: [32, 64, 128][rng.random_range(0..3usize)],
                    local_mem: 0,
                    regs_per_thread: 1,
                },
                mem_intensity: 0.0,
                plan,
                max_workers: if rng.random_range(0..2u32) == 0 {
                    Some(rng.random_range(1..8u32))
                } else {
                    None
                },
            }
        })
        .collect();
    let mut reclaims = Vec::new();
    let mut resumes = Vec::new();
    for _ in 0..rng.random_range(0..5usize) {
        let target = rng.random_range(0..n);
        let workers = if target == 0 {
            // The anchor is never paused: floor its reclaims at 1.
            rng.random_range(1..8u32)
        } else {
            rng.random_range(0..8u32)
        };
        reclaims.push(ReclaimCmd {
            at: rng.random_range(0..15_000u64),
            launch: LaunchId(target as u32),
            workers,
            pressure: None,
            chunk: None,
        });
        if workers == 0 {
            resumes.push(ResumeCmd {
                after: LaunchId(0),
                launch: LaunchId(target as u32),
                workers: rng.random_range(1..6u32),
            });
        }
    }
    (launches, reclaims, resumes)
}

/// Random fault schedule for a device of `num_cus` compute units: CU
/// failures (repairable and permanent — never permanently killing the
/// last CU, matching the [`FaultPlan::from_spec`] guarantee), stragglers,
/// and — when `aborts` is allowed — kernel aborts. Seeded separately from
/// the episode so the two schedules decorrelate.
fn random_faults(seed: u64, num_cus: usize, n_launches: usize, aborts: bool) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfa17);
    let mut events = Vec::new();
    let mut dead: Vec<usize> = Vec::new();
    for _ in 0..rng.random_range(0..3usize) {
        let cu = rng.random_range(0..num_cus);
        let at = rng.random_range(0..15_000u64);
        let repairable = rng.random_range(0..2u32) == 0;
        if !repairable {
            if !dead.contains(&cu) && dead.len() + 1 >= num_cus {
                continue; // keep one CU alive
            }
            if !dead.contains(&cu) {
                dead.push(cu);
            }
        }
        events.push(FaultEvent {
            at,
            kind: FaultKind::CuFailure {
                cu,
                repair_at: repairable.then(|| at + rng.random_range(500..4_000u64)),
            },
        });
    }
    for _ in 0..rng.random_range(0..3usize) {
        let cu = rng.random_range(0..num_cus);
        let at = rng.random_range(0..15_000u64);
        events.push(FaultEvent {
            at,
            kind: FaultKind::Straggler {
                cu,
                factor: 1.0 + rng.random_range(1..6u32) as f64,
                until: at + rng.random_range(500..5_000u64),
            },
        });
    }
    if aborts {
        for _ in 0..rng.random_range(0..2usize) {
            events.push(FaultEvent {
                at: rng.random_range(0..15_000u64),
                kind: FaultKind::KernelAbort {
                    launch: LaunchId(rng.random_range(0..n_launches as u32)),
                },
            });
        }
    }
    FaultPlan::new(events)
}

/// Replay a traced report against the device budget: per-CU threads and
/// slots never exceed capacity and never go negative — shared by the
/// fault-free and faulty no-double-booking proptests.
fn replay_occupancy(cfg: &DeviceConfig, launches: &[KernelLaunch], report: &gpu_sim::SimReport) {
    let mut threads = vec![0i64; cfg.num_cus];
    let mut slots = vec![0i64; cfg.num_cus];
    for ev in &report.trace {
        let wg_threads = launches[ev.launch.0 as usize].req.threads as i64;
        match ev.kind {
            TraceKind::WgStart => {
                threads[ev.cu] += wg_threads;
                slots[ev.cu] += 1;
                assert!(
                    threads[ev.cu] <= cfg.threads_per_cu as i64,
                    "cu {} overbooked threads at t={}",
                    ev.cu,
                    ev.time
                );
                assert!(
                    slots[ev.cu] <= cfg.wg_slots_per_cu as i64,
                    "cu {} overbooked slots at t={}",
                    ev.cu,
                    ev.time
                );
            }
            TraceKind::WgEnd => {
                threads[ev.cu] -= wg_threads;
                slots[ev.cu] -= 1;
                assert!(
                    threads[ev.cu] >= 0 && slots[ev.cu] >= 0,
                    "cu {} double-freed at t={}",
                    ev.cu,
                    ev.time
                );
            }
            TraceKind::Dequeue | TraceKind::Reclaim | TraceKind::Resume | TraceKind::Fault => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) + (c): total executed work groups are conserved under random
    /// reclamations *and full pauses*: revoking workers — even all of
    /// them — never loses or duplicates a virtual group, every kernel
    /// still ends, and every applied pause is eventually resumed (its
    /// anchor always retires).
    #[test]
    fn work_groups_are_conserved_under_random_reclamation(seed in 0u64..10_000) {
        let (launches, reclaims, resumes) = random_episode(seed);
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        let ids: Vec<LaunchId> = launches.iter().cloned().map(|l| sim.add_launch(l)).collect();
        for r in &reclaims {
            sim.add_reclaim(*r);
        }
        for r in &resumes {
            sim.add_resume(*r);
        }
        let report = sim.run();
        for (id, launch) in ids.iter().zip(&launches) {
            let k = report.kernel(*id);
            prop_assert_eq!(
                k.groups_executed as u64,
                launch.plan.total_groups(),
                "kernel {} lost or duplicated work (reclaims: {:?}, resumes: {:?})",
                k.name,
                reclaims,
                resumes
            );
            prop_assert!(k.end >= launch.arrival, "kernel never ended");
            prop_assert!(
                k.pauses == 0 || k.resumes > 0,
                "kernel {} was paused {} times but never resumed",
                k.name,
                k.pauses
            );
            prop_assert!(
                k.pauses == 0 || id.0 != 0,
                "the anchor launch must never pause"
            );
        }
    }

    /// The ready-set index must place elastic growth on exactly the CU
    /// the historical linear scan would pick, no matter how random
    /// reclaims, pauses and resumes churn the CU queues and slots. The
    /// traced reports capture every work-group start's CU, so equality
    /// here pins every placement decision, not just the end state.
    #[test]
    fn indexed_placement_matches_linear_scan_under_preemption(seed in 0u64..10_000) {
        let (launches, reclaims, resumes) = random_episode(seed);
        let run = |linear: bool| {
            let mut sim = Simulator::new(DeviceConfig::test_tiny()).with_trace();
            if linear {
                sim = sim.with_linear_placement();
            }
            for l in launches.iter().cloned() {
                sim.add_launch(l);
            }
            for r in &reclaims {
                sim.add_reclaim(*r);
            }
            for r in &resumes {
                sim.add_resume(*r);
            }
            sim.run()
        };
        prop_assert_eq!(
            run(false),
            run(true),
            "ready-set index diverged from the linear scan (reclaims: {:?}, resumes: {:?})",
            reclaims,
            resumes
        );
    }

    /// (b) No CU slot or thread is double-booked across a reclamation or
    /// a pause/resume cycle: replaying the trace, per-CU occupancy stays
    /// within the device's budget and never goes negative (a freed slot
    /// is freed exactly once; a resumed worker is a fresh allocation).
    #[test]
    fn no_cu_is_double_booked_across_reclamations(seed in 0u64..10_000) {
        let (launches, reclaims, resumes) = random_episode(seed);
        let cfg = DeviceConfig::test_tiny();
        let mut sim = Simulator::new(cfg.clone()).with_trace();
        for l in launches.iter().cloned() {
            sim.add_launch(l);
        }
        for r in &reclaims {
            sim.add_reclaim(*r);
        }
        for r in &resumes {
            sim.add_resume(*r);
        }
        let report = sim.run();
        let mut threads = vec![0i64; cfg.num_cus];
        let mut slots = vec![0i64; cfg.num_cus];
        for ev in &report.trace {
            let wg_threads = launches[ev.launch.0 as usize].req.threads as i64;
            match ev.kind {
                TraceKind::WgStart => {
                    threads[ev.cu] += wg_threads;
                    slots[ev.cu] += 1;
                    prop_assert!(
                        threads[ev.cu] <= cfg.threads_per_cu as i64,
                        "cu {} overbooked threads at t={}",
                        ev.cu,
                        ev.time
                    );
                    prop_assert!(
                        slots[ev.cu] <= cfg.wg_slots_per_cu as i64,
                        "cu {} overbooked slots at t={}",
                        ev.cu,
                        ev.time
                    );
                }
                TraceKind::WgEnd => {
                    threads[ev.cu] -= wg_threads;
                    slots[ev.cu] -= 1;
                    prop_assert!(threads[ev.cu] >= 0 && slots[ev.cu] >= 0,
                        "cu {} double-freed at t={}", ev.cu, ev.time);
                }
                // A fault's involuntary release is booked by the WgEnd
                // the simulator emits at the same instant.
                TraceKind::Dequeue | TraceKind::Reclaim | TraceKind::Resume | TraceKind::Fault => {}
            }
        }
        // Every reclaim-retired and resume-spawned worker is visible in
        // the trace.
        let reclaim_events = report
            .trace
            .iter()
            .filter(|t| t.kind == TraceKind::Reclaim)
            .count();
        let reclaimed: usize = report.kernels.iter().map(|k| k.reclaimed_workers).sum();
        prop_assert_eq!(reclaim_events, reclaimed);
        let resume_events = report
            .trace
            .iter()
            .filter(|t| t.kind == TraceKind::Resume)
            .count();
        let resumed: usize = report.kernels.iter().map(|k| k.resumed_workers).sum();
        prop_assert_eq!(resume_events, resumed);
    }

    /// (a) under fire: work conservation and **exactly-once retry** when
    /// random CU failures and stragglers (no aborts — those legitimately
    /// end a kernel early) compose with random reclaim/pause/resume
    /// commands. Every chunk lost to a failing CU re-executes exactly
    /// once (`groups_retried == chunks_lost`), the Fault trace matches
    /// the loss counters, and every resident start still has an end.
    #[test]
    fn work_is_conserved_and_retried_exactly_once_under_faults(seed in 0u64..10_000) {
        let (launches, reclaims, resumes) = random_episode(seed);
        let faults = random_faults(seed, DeviceConfig::test_tiny().num_cus, launches.len(), false);
        let mut sim = Simulator::new(DeviceConfig::test_tiny()).with_trace();
        let ids: Vec<LaunchId> = launches.iter().cloned().map(|l| sim.add_launch(l)).collect();
        for r in &reclaims {
            sim.add_reclaim(*r);
        }
        for r in &resumes {
            sim.add_resume(*r);
        }
        let report = sim.with_faults(faults.clone()).run();
        for (id, launch) in ids.iter().zip(&launches) {
            let k = report.kernel(*id);
            prop_assert_eq!(
                k.groups_executed as u64,
                launch.plan.total_groups(),
                "kernel {} lost or duplicated work under faults {:?} (reclaims: {:?})",
                k.name,
                faults,
                reclaims
            );
            prop_assert_eq!(
                k.groups_retried,
                k.chunks_lost,
                "kernel {}: every lost chunk must re-execute exactly once",
                k.name
            );
        }
        let fault_events = report.trace.iter().filter(|t| t.kind == TraceKind::Fault).count();
        let lost: usize = report.kernels.iter().map(|k| k.chunks_lost).sum();
        prop_assert_eq!(fault_events, lost, "one Fault trace event per lost chunk");
        let starts = report.trace.iter().filter(|t| t.kind == TraceKind::WgStart).count();
        let ends = report.trace.iter().filter(|t| t.kind == TraceKind::WgEnd).count();
        prop_assert_eq!(starts, ends, "every resident start must be released");
    }

    /// (b) under fire: no CU is double-booked when the full fault
    /// repertoire — aborts included — composes with random
    /// reclaim/pause/resume commands, and the two placement engines
    /// still agree event for event.
    #[test]
    fn no_cu_is_double_booked_under_faults(seed in 0u64..10_000) {
        let (launches, reclaims, resumes) = random_episode(seed);
        let faults = random_faults(seed, DeviceConfig::test_tiny().num_cus, launches.len(), true);
        let cfg = DeviceConfig::test_tiny();
        let run = |linear: bool| {
            let mut sim = Simulator::new(cfg.clone()).with_trace();
            if linear {
                sim = sim.with_linear_placement();
            }
            for l in launches.iter().cloned() {
                sim.add_launch(l);
            }
            for r in &reclaims {
                sim.add_reclaim(*r);
            }
            for r in &resumes {
                sim.add_resume(*r);
            }
            sim.with_faults(faults.clone()).run()
        };
        let report = run(false);
        replay_occupancy(&cfg, &launches, &report);
        prop_assert_eq!(
            report.clone(),
            run(true),
            "ready-set index diverged from the linear scan under faults {:?}",
            faults
        );
        // Aborted kernels report at most their plan's total; survivors
        // conserve exactly.
        for (i, k) in report.kernels.iter().enumerate() {
            let total = launches[i].plan.total_groups();
            if k.aborted {
                prop_assert!(k.groups_executed as u64 <= total);
            } else {
                prop_assert_eq!(k.groups_executed as u64, total, "kernel {} not conserved", k.name);
            }
        }
    }

    /// Same seed, same fault schedule ⇒ **byte-identical** `SimReport`
    /// (the `Debug` rendering golden snapshots rely on, not just
    /// `PartialEq`).
    #[test]
    fn same_seed_fault_runs_are_byte_identical(seed in 0u64..2_500) {
        let run = || {
            let (launches, reclaims, resumes) = random_episode(seed);
            let faults = random_faults(seed, DeviceConfig::test_tiny().num_cus, launches.len(), true);
            let mut sim = Simulator::new(DeviceConfig::test_tiny()).with_trace();
            for l in launches {
                sim.add_launch(l);
            }
            for r in &reclaims {
                sim.add_reclaim(*r);
            }
            for r in &resumes {
                sim.add_resume(*r);
            }
            sim.with_faults(faults).run()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(format!("{a:#?}"), format!("{b:#?}"));
    }
}

fn k(name: &str) -> &'static KernelSpec {
    KernelSpec::by_name(name).expect("kernel exists")
}

/// The preemptive policy family that must be invisible without premium
/// arrivals: each is planned exactly like `accelos` in steady state.
fn preemptive_family() -> Vec<Box<dyn SchedulingPolicy>> {
    vec![
        Box::new(PriorityPolicy::default()),
        Box::new(DeadlinePolicy::default()),
        Box::new(SlaPolicy::new(&[4, 2, 0])),
    ]
}

/// (d) With zero premium arrivals, every policy of the preemptive family
/// (`accelos-priority`, `accelos-deadline`, `accelos-sla`) is
/// bit-identical to `accelos` — through single-cohort planning (everyone
/// at t=0) *and* through staggered cohorts whose arrivals contain no
/// premium tenant (the premium/deadlined request is index 0, admitted in
/// the first cohort).
#[test]
fn zero_premium_arrivals_are_bit_identical_to_accelos() {
    let runner = Runner::new(DeviceConfig::k20m());
    let accelos = AccelOsPolicy::optimized();
    let workloads = [
        vec![k("sgemm"), k("stencil")],
        vec![k("bfs"), k("cutcp"), k("lbm"), k("spmv")],
        vec![k("tpacf"), k("histo_final"), k("mri-q_ComputeQ")],
    ];
    for (wi, wl) in workloads.iter().enumerate() {
        for seed in [1u64, 2016, 0xdead_beef] {
            let ctx = runner.rep_context(wl, seed);
            let zeros = vec![0u64; wl.len()];
            let plain = runner.run_preemptive(&ctx, &accelos, &zeros);
            assert_eq!(
                plain,
                runner.run_in(&ctx, &accelos, &zeros),
                "preemptive path must equal the plain path with no arrivals"
            );
            // Staggered cohorts, but index 0 (the premium/deadlined
            // tenant) arrives first: the later cohorts are batch-only,
            // so the preemptive hooks must stay inert, reclaim commands
            // included (none).
            let arrivals: Vec<u64> = (0..wl.len() as u64).map(|i| i * 2_500).collect();
            let stag_ref = runner.preemptive_report(&ctx, &accelos, &arrivals);
            for policy in preemptive_family() {
                let one = runner.run_preemptive(&ctx, policy.as_ref(), &zeros);
                assert_eq!(one, plain, "workload {wi}, seed {seed}, {}", policy.name());
                let stag = runner.preemptive_report(&ctx, policy.as_ref(), &arrivals);
                assert_eq!(
                    stag,
                    stag_ref,
                    "workload {wi}, seed {seed}, {} (staggered)",
                    policy.name()
                );
                assert!(stag.kernels.iter().all(|k| k.preemptions == 0));
            }

            // And a premium-count of zero stays inert even when later
            // cohorts *would* contain index 0 under a different count.
            let nobody = PriorityPolicy::new(0);
            let a = runner.preemptive_report(&ctx, &nobody, &arrivals);
            assert_eq!(a, stag_ref, "workload {wi}, seed {seed} (premium count 0)");
        }
    }
}

/// Golden snapshot helper shared by the two scenario locks below
/// (regenerate deliberately with
/// `BLESS=1 cargo test --test preemption_invariants`).
fn assert_matches_golden(actual: &str, path: &str) {
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden file missing — run `BLESS=1 cargo test --test preemption_invariants` once");
    assert!(
        actual == expected,
        "SimReport drifted from the golden snapshot {path}; if the change is \
         intentional, regenerate with BLESS=1.\n--- actual ---\n{actual}"
    );
}

/// Golden snapshot of the mixed-priority scenario's `SimReport` under
/// `accelos-priority` (same episode as `repro priority` and
/// `examples/priority_preemption.rs`, seed 2016). Catches any silent
/// drift in the reclamation machinery.
#[test]
fn mixed_priority_scenario_matches_golden_report() {
    let runner = Runner::new(DeviceConfig::k20m());
    let workload = priority_workload();
    let accelos = AccelOsPolicy::optimized();
    let t_batch = runner.isolated_time(&accelos, workload[1], 2016);
    let arrivals = vec![t_batch / 4, 0, 0];
    let ctx = runner.rep_context(&workload, 2016);
    let report = runner.preemptive_report(&ctx, &PriorityPolicy::default(), &arrivals);
    assert_matches_golden(
        &format!("{report:#?}\n"),
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/priority_preemption_report.txt"
        ),
    );
}

/// Golden snapshot of the deadline scenario's `SimReport`s under
/// `accelos-deadline` (estimate-sized partial reclamation) and
/// `accelos-sla:4:0:0` (SLA floor + full pause + resume) — same episode
/// as `repro deadline` and `examples/deadline_sla.rs`, seed 2016.
/// Catches any silent drift in the estimate plumbing, the just-enough
/// width computation, and the pause/resume machinery.
#[test]
fn deadline_and_sla_scenarios_match_golden_report() {
    let runner = Runner::new(DeviceConfig::k20m());
    let workload = priority_workload();
    let accelos = AccelOsPolicy::optimized();
    let t_batch = runner.isolated_time(&accelos, workload[1], 2016);
    let arrivals = vec![t_batch / 4, 0, 0];
    let ctx = runner.rep_context(&workload, 2016);
    let deadline = runner.preemptive_report(&ctx, &DeadlinePolicy::default(), &arrivals);
    let sla = runner.preemptive_report(&ctx, &SlaPolicy::new(&[4, 0, 0]), &arrivals);
    assert_matches_golden(
        &format!("deadline:\n{deadline:#?}\nsla:\n{sla:#?}\n"),
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/deadline_sla_report.txt"
        ),
    );
}

/// Fault determinism through the whole harness stack: the same
/// [`FaultSpec`] and seed draw the same plan, and the same plan on the
/// same session is byte-identical run to run; a zero-fault plan is
/// bit-identical to the fault-free preemptive path (the golden snapshots
/// above therefore never notice the fault plane).
#[test]
fn faulty_harness_runs_are_deterministic_and_zero_fault_is_identity() {
    let runner = Runner::new(DeviceConfig::k20m());
    let workload = priority_workload();
    let arrivals = vec![3_000, 0, 0];
    let spec = FaultSpec {
        horizon: 60_000,
        cu_failures: 2,
        repair_delay: Some(10_000),
        stragglers: 2,
        slowdown: 3.0,
        straggler_window: 8_000,
        aborts: 1,
        domain_failures: 0,
        domain_repair_delay: None,
    };
    let plan = FaultPlan::from_spec(&spec, runner.device().num_cus, workload.len(), 7);
    assert_eq!(
        plan,
        FaultPlan::from_spec(&spec, runner.device().num_cus, workload.len(), 7),
        "same spec + seed must draw the same plan"
    );
    let ctx = runner.rep_context(&workload, 2016);
    let policy = PriorityPolicy::default();
    let a = runner.faulty_report_with_domains(&ctx, &policy, &arrivals, &plan, &[]);
    let b = runner.faulty_report_with_domains(&ctx, &policy, &arrivals, &plan, &[]);
    assert_eq!(
        format!("{a:#?}"),
        format!("{b:#?}"),
        "byte-identical per seed"
    );
    assert!(a.faults_injected > 0);

    let clean =
        runner.faulty_report_with_domains(&ctx, &policy, &arrivals, &FaultPlan::default(), &[]);
    let plain = runner.preemptive_report(&ctx, &policy, &arrivals);
    assert_eq!(clean, plain, "zero faults must not perturb the timeline");
    assert_eq!(clean.faults_injected, 0);
}

/// The devices of the engine-identity golden: the tiny test device, the
/// K20m preset, and a 130-CU K20m so CU sets span three 64-bit words.
fn golden_devices() -> Vec<DeviceConfig> {
    let mut wide = DeviceConfig::k20m();
    wide.name = "wide-130".into();
    wide.num_cus = 130;
    vec![DeviceConfig::test_tiny(), DeviceConfig::k20m(), wide]
}

/// One seeded episode of the engine-identity golden on `cfg`: the
/// [`random_episode`] launches, reclaims and resumes, plus a hardware
/// launch wide enough to reach every CU, a static launch, a pressured
/// reclaim with a chunk cap, [`random_faults`] over the whole device, and
/// repairable failures of evenly split domains.
fn golden_episode(cfg: &DeviceConfig, seed: u64, aborts: bool) -> Simulator {
    let (mut launches, mut reclaims, resumes) = random_episode(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x601d);
    let n = cfg.num_cus;
    let req = |rng: &mut StdRng| WorkGroupReq {
        threads: [64, 128][rng.random_range(0..2usize)],
        local_mem: 0,
        regs_per_thread: 1,
    };
    let hw_wgs = rng.random_range(1..(cfg.wg_slots_per_cu as usize + 1) * n);
    launches.push(KernelLaunch {
        name: "hw".into(),
        arrival: rng.random_range(0..3_000u64),
        req: req(&mut rng),
        mem_intensity: rng.random_range(0..11u32) as f64 / 10.0,
        plan: LaunchPlan::Hardware {
            wg_costs: (0..hw_wgs)
                .map(|_| rng.random_range(20..400u64))
                .collect::<Vec<_>>()
                .into(),
        },
        max_workers: None,
    });
    let static_workers = rng.random_range(1..n + 3);
    launches.push(KernelLaunch {
        name: "static".into(),
        arrival: rng.random_range(0..3_000u64),
        req: req(&mut rng),
        mem_intensity: rng.random_range(0..11u32) as f64 / 10.0,
        plan: LaunchPlan::PersistentStatic {
            assignments: (0..static_workers)
                .map(|_| {
                    (0..rng.random_range(0..6usize))
                        .map(|_| rng.random_range(10..200u64))
                        .collect()
                })
                .collect(),
            per_vg_overhead: 2,
        },
        max_workers: None,
    });
    if rng.random_range(0..2u32) == 0 {
        reclaims.push(ReclaimCmd {
            at: rng.random_range(0..6_000u64),
            launch: LaunchId(0),
            workers: rng.random_range(1..4u32),
            pressure: Some(LaunchId(launches.len() as u32 - 2)),
            chunk: Some(rng.random_range(1..3u32)),
        });
    }
    let domains = FailureDomain::split_evenly(n, rng.random_range(1..4usize).min(n));
    let mut plan = random_faults(seed, n, launches.len(), aborts);
    for _ in 0..rng.random_range(0..2usize) {
        let at = rng.random_range(0..10_000u64);
        plan.events.push(FaultEvent {
            at,
            kind: FaultKind::DomainFailure {
                domain: rng.random_range(0..domains.len()),
                repair_at: Some(at + rng.random_range(500..4_000u64)),
            },
        });
    }
    let mut sim = Simulator::new(cfg.clone())
        .with_trace()
        .with_domains(domains);
    for l in launches {
        sim.add_launch(l);
    }
    for r in reclaims {
        sim.add_reclaim(r);
    }
    for r in resumes {
        sim.add_resume(r);
    }
    sim.with_faults(plan)
}

/// FNV-1a: a digest that is stable across toolchains and platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One golden line's measurements of a finished run: the makespan, the
/// fault count, the placement counters, the trace length and an FNV-1a
/// digest of every [`KernelReport`] field (destructured exhaustively, so
/// a new field cannot escape the digest) and the full trace.
fn run_summary(report: &SimReport, stats: &PlacementStats) -> String {
    use std::fmt::Write as _;
    let mut canon = String::new();
    for k in &report.kernels {
        let KernelReport {
            id,
            name,
            arrival,
            first_start,
            end,
            busy_intervals,
            machine_wgs,
            groups_executed,
            preemptions,
            reclaimed_workers,
            pauses,
            resumes,
            resumed_workers,
            chunks_lost,
            groups_retried,
            aborted,
        } = k;
        writeln!(
            canon,
            "{id:?} {name} {arrival} {first_start:?} {end} {busy_intervals:?} \
             {machine_wgs} {groups_executed} {preemptions} {reclaimed_workers} \
             {pauses} {resumes} {resumed_workers} {chunks_lost} {groups_retried} \
             {aborted}"
        )
        .unwrap();
    }
    for e in &report.trace {
        writeln!(canon, "{} {} {} {:?}", e.time, e.launch.0, e.cu, e.kind).unwrap();
    }
    format!(
        "makespan={} faults={} attempts={} cu_visits={} trace={} digest={:016x}",
        report.makespan,
        report.faults_injected,
        stats.attempts,
        stats.cu_visits,
        report.trace.len(),
        fnv1a(canon.as_bytes())
    )
}

/// The engine-identity golden: about 200 seeded episodes (every plan
/// kind, reclaim/pause/resume, CU and domain failures with repair,
/// stragglers, with and without aborts) on three devices, one line each
/// with the makespan, the fault count, the placement counters and a
/// digest of every [`KernelReport`] field and the full trace. Any change
/// to event order, placement or contention arithmetic moves a line.
#[test]
fn engine_episodes_match_golden_digests() {
    use std::fmt::Write as _;
    let mut out = String::new();
    for cfg in golden_devices() {
        for seed in 0..66u64 {
            let aborts = seed % 2 == 1;
            let (report, stats) = golden_episode(&cfg, seed, aborts).run_with_stats();
            writeln!(
                out,
                "{} seed={seed} aborts={aborts} {}",
                cfg.name,
                run_summary(&report, &stats)
            )
            .unwrap();
        }
    }
    assert_matches_golden(
        &out,
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sim_episodes.txt"),
    );
}

/// A hardware launch of the targeted golden: `groups` work groups whose
/// costs vary with the group index and `salt`, so groups finish out of
/// order and the CU queue heads drain unevenly.
fn hw_launch(
    name: &str,
    arrival: u64,
    threads: u32,
    mem: f64,
    groups: usize,
    salt: u64,
) -> KernelLaunch {
    KernelLaunch {
        name: name.into(),
        arrival,
        req: WorkGroupReq {
            threads,
            local_mem: 0,
            regs_per_thread: 1,
        },
        mem_intensity: mem,
        plan: LaunchPlan::Hardware {
            wg_costs: (0..groups as u64)
                .map(|w| 40 + (w * 37 + salt * 101) % 211)
                .collect::<Vec<_>>()
                .into(),
        },
        max_workers: None,
    }
}

/// The hardware-queue edge cases of the targeted golden on `cfg`, each a
/// named simulator: co-arriving and staggered hardware launches whose
/// groups interleave on every CU queue; hardware arrivals while one CU,
/// all but one CU, and every CU is failed (on a busy and on an idle
/// device), followed by repairs that adopt the parked work; CU failures
/// that drain partly consumed queues (next to a dynamic launch's
/// workers); a domain failure; and aborts of launches with groups still
/// queued, one of them before it arrives. Every scenario ends with a
/// mid-run probe arrival and a late one, so any drift of the round-robin
/// cursor moves the probes' placement in the trace.
fn hw_queue_scenarios(cfg: &DeviceConfig) -> Vec<(&'static str, Simulator)> {
    let n = cfg.num_cus;
    let slots = n * cfg.wg_slots_per_cu as usize;
    let (big, mid, small) = (slots * 3 / 2 + 7, slots + 3, slots / 2 + 1);
    let fail = |at: u64, cu: usize, repair_at: Option<u64>| FaultEvent {
        at,
        kind: FaultKind::CuFailure { cu, repair_at },
    };
    let scenario = |launches: Vec<KernelLaunch>, probe_at: u64, faults: Vec<FaultEvent>| {
        let mut sim = Simulator::new(cfg.clone()).with_trace();
        for l in launches {
            sim.add_launch(l);
        }
        sim.add_launch(hw_launch("probe", probe_at, 64, 0.5, 2 * n + 3, 7));
        sim.add_launch(hw_launch("late", 50_000_000, 128, 0.2, n + 2, 8));
        for f in faults {
            sim.add_fault(f);
        }
        sim
    };
    let trio = |at: [u64; 3]| {
        vec![
            hw_launch("big", at[0], 64, 0.3, big, 1),
            hw_launch("mid", at[1], 128, 0.8, mid, 2),
            hw_launch("small", at[2], 64, 0.0, small, 3),
        ]
    };
    let every_cu = |except: Option<usize>, base: u64| -> Vec<FaultEvent> {
        (0..n)
            .filter(|&cu| Some(cu) != except)
            .map(|cu| fail(10, cu, Some(base + 97 * ((cu * 7) % n) as u64)))
            .collect()
    };
    let mut with_pre = trio([20, 20, 20]);
    with_pre.insert(0, hw_launch("pre", 0, 64, 0.4, n / 2 + 2, 4));
    let dyn_launch = |arrival: u64| KernelLaunch {
        name: "dyn".into(),
        arrival,
        req: WorkGroupReq {
            threads: 64,
            local_mem: 0,
            regs_per_thread: 1,
        },
        mem_intensity: 0.6,
        plan: LaunchPlan::PersistentDynamic {
            workers: n as u32 + 1,
            vg_costs: (0..4 * n as u64)
                .map(|v| 60 + v % 90)
                .collect::<Vec<_>>()
                .into(),
            chunk: 2,
            per_vg_overhead: 3,
        },
        max_workers: None,
    };
    let mut with_dyn = trio([0, 0, 0]);
    with_dyn.insert(1, dyn_launch(0));
    // An idle device fails whole, then a dynamic launch's workers and the
    // trio park on the nominal CU `x` (the cursor after `pre`). The CU
    // after `x` is repaired first, so it adopts `x`'s queue: which CU a
    // launch parked on shows in the order its work starts.
    let pre = n + n / 2 + 1;
    let x = pre % n;
    let mut idle_dead = trio([1_010, 1_010, 1_010]);
    idle_dead.insert(0, hw_launch("pre", 0, 64, 0.4, pre, 6));
    idle_dead.insert(1, dyn_launch(1_010));
    let idle_faults = (0..n)
        .map(|cu| {
            let order = (cu + n - (x + 1) % n) % n;
            fail(1_000, cu, Some(3_000 + 97 * order as u64))
        })
        .collect();
    let mut with_ghost = trio([0, 0, 0]);
    with_ghost.push(hw_launch("ghost", 800, 64, 0.1, mid, 5));
    let abort = |at: u64, l: u32| FaultEvent {
        at,
        kind: FaultKind::KernelAbort {
            launch: LaunchId(l),
        },
    };
    let mut domain = scenario(
        trio([0, 0, 0]),
        800,
        vec![FaultEvent {
            at: 600,
            kind: FaultKind::DomainFailure {
                domain: 0,
                repair_at: Some(2_600),
            },
        }],
    );
    domain = domain.with_domains(FailureDomain::split_evenly(n, 2));
    vec![
        ("co-arrive", scenario(trio([0, 0, 0]), 400, vec![])),
        ("staggered", scenario(trio([0, 37, 151]), 420, vec![])),
        (
            "one-dead",
            scenario(trio([20, 20, 20]), 600, vec![fail(10, n / 2, Some(2_500))]),
        ),
        (
            "all-but-one-dead",
            scenario(trio([20, 20, 20]), 1_000, every_cu(Some(n / 3), 2_000)),
        ),
        ("all-dead", scenario(with_pre, 1_000, every_cu(None, 3_000))),
        ("all-dead-idle", scenario(idle_dead, 1_500, idle_faults)),
        (
            "drain-partial",
            scenario(
                with_dyn,
                1_500,
                vec![fail(700, n - 1, Some(4_000)), fail(1_300, 0, None)],
            ),
        ),
        (
            "abort-queued",
            scenario(
                with_ghost,
                900,
                vec![abort(5, 2), abort(300, 3), abort(500, 0)],
            ),
        ),
        ("domain", domain),
    ]
}

/// The hardware-queue golden: the [`hw_queue_scenarios`] on the three
/// golden devices, one line each in the format of the engine-identity
/// golden. The random episodes seldom build these queues (interleaved
/// hardware launches on every CU, arrivals onto a partly or wholly
/// failed device, drained and aborted queued groups), so this pins the
/// round-robin hardware path on its own.
#[test]
fn hardware_queue_edge_cases_match_golden_digests() {
    use std::fmt::Write as _;
    let mut out = String::new();
    for cfg in golden_devices() {
        for (name, sim) in hw_queue_scenarios(&cfg) {
            let (report, stats) = sim.run_with_stats();
            writeln!(out, "{} {name} {}", cfg.name, run_summary(&report, &stats)).unwrap();
        }
    }
    assert_matches_golden(
        &out,
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/sim_hw_queues.txt"
        ),
    );
}
