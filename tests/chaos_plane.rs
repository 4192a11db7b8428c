//! Chaos-plane invariants: checkpointed abort recovery, correlated
//! failure-domain determinism, and zero-fault inertness of the
//! health-aware placement plane.
//!
//! PR 10's resilience tier layers three mechanisms over the fault plane —
//! checkpointed retry (`RetryPolicy::checkpoint`), correlated failure
//! domains (`FailureDomain` + `FaultKind::DomainFailure`), and CU-health
//! deprioritisation inside placement. Each is an opportunity to lose or
//! duplicate work, or to perturb the fault-free timing the golden
//! snapshots pin. These shrinking proptests hold the line:
//!
//! * **(a) checkpointed conservation** — for *any* abort time, summing
//!   `groups_executed` over every incarnation of the aborted request
//!   equals the clean run's total: the retry re-enqueues exactly the
//!   unfinished virtual-group tail, never a group more or less, and the
//!   functional results stay exact;
//! * **(b) domain determinism** — the same `FaultSpec` + seed draws the
//!   same domain-aware `FaultPlan` and replays to a **byte-identical**
//!   `SimReport` (the `Debug` rendering golden snapshots rely on), no
//!   matter how correlated failures, repairs and stragglers interleave;
//! * **(c) zero-fault inertness** — with no faults injected, configuring
//!   failure domains and enabling (or disabling) the CU-health memory
//!   leaves every traced report byte-identical to the plain simulator:
//!   the health plane must be invisible until a fault actually fires;
//! * **(d) health-aware recovery** — on a fixed correlated-loss episode
//!   the health-aware placement conserves work and recovers strictly
//!   faster than the blind engine (`with_blind_health`);
//! * **(e) engine ≡ bare simulator** — with a fail-fast retry policy the
//!   episode engine (`accelos::episode`) is exactly one simulation: its
//!   report equals a bare `Simulator` fed the same launches, commands and
//!   fault plan, trace included, even when a device fault and a kernel
//!   abort land on the same instant.

use accelos::chunk::Mode;
use accelos::episode::Episode;
use accelos::policy::{PlannedResume, TimedReclaim};
use accelos::proxycl::{PendingExec, ProxyCl, RetryPolicy};
use clrt::{Arg, Buffer, Platform};
use gpu_sim::{
    DeviceConfig, FailureDomain, FaultEvent, FaultKind, FaultPlan, FaultSpec, KernelLaunch,
    LaunchId, LaunchPlan, ReclaimCmd, ResumeCmd, SimReport, Simulator, WorkGroupReq,
};
use kernel_ir::interp::NdRange;
use kernel_ir::Value;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SRC: &str = "kernel void scale(global float* b, float s) {
    size_t i = get_global_id(0);
    b[i] = b[i] * s;
}";

/// Two scaling tenants with wide buffers (512 items, local size 8): many
/// virtual groups per launch, so an abort can land with whole retired
/// chunks behind it and the checkpoint is usually non-trivial.
fn scale_batch(os: &mut ProxyCl) -> (Vec<PendingExec>, Buffer, Buffer) {
    let program = os.build_program(SRC).unwrap();
    let chunk = program.info("scale").unwrap().chunk;
    let mut make = |val: f32| {
        let mut k = program.create_kernel("scale").unwrap();
        let buf = os.context_mut().create_buffer(512 * 4);
        os.context_mut().write_f32(buf, &[1.0; 512]).unwrap();
        k.set_arg(0, Arg::Buffer(buf)).unwrap();
        k.set_arg(1, Arg::Scalar(Value::F32(val))).unwrap();
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

/// Random persistent launches for `cfg`: random shapes, widths, costs and
/// arrivals — the episode generator shared (by construction, not by
/// import) with the preemption-invariants plane.
fn random_launches(seed: u64, cfg: &DeviceConfig) -> Vec<KernelLaunch> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(1..5usize);
    (0..n)
        .map(|i| {
            let workers = rng.random_range(1..6u32);
            let vgs = rng.random_range(10..150usize);
            let costs: Vec<u64> = (0..vgs).map(|_| rng.random_range(5..80u64)).collect();
            let plan = if rng.random_range(0..3u32) == 0 {
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
                    threads: [32, 64, 128][rng.random_range(0..3usize)].min(cfg.threads_per_cu),
                    local_mem: 0,
                    regs_per_thread: 1,
                },
                mem_intensity: 0.0,
                plan,
                max_workers: None,
            }
        })
        .collect()
}

/// Random reclaim/resume churn for the tiny device, launch 0 anchored
/// (never paused, every pause of another launch resumed on its
/// retirement) — the pairing discipline the policy layer prescribes.
fn random_churn(seed: u64, n: usize) -> (Vec<ReclaimCmd>, Vec<ResumeCmd>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4u64);
    let mut reclaims = Vec::new();
    let mut resumes = Vec::new();
    for _ in 0..rng.random_range(0..5usize) {
        let target = rng.random_range(0..n);
        let workers = if target == 0 {
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
    (reclaims, resumes)
}

/// Build, churn and run one traced simulator over the episode.
fn run_episode(
    mut sim: Simulator,
    launches: &[KernelLaunch],
    reclaims: &[ReclaimCmd],
    resumes: &[ResumeCmd],
) -> SimReport {
    for l in launches {
        sim.add_launch(l.clone());
    }
    for r in reclaims {
        sim.add_reclaim(*r);
    }
    for r in resumes {
        sim.add_resume(*r);
    }
    sim.run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) No matter *when* the abort lands — before launch, mid-chunk,
    /// between retired chunks, or after the victim already finished —
    /// the checkpointed retry conserves work exactly: the incarnations
    /// of the aborted request sum to the clean run's group total, and
    /// the functional results are untouched.
    #[test]
    fn checkpointed_retry_conserves_groups_for_any_abort_time(seed in 0u64..10_000) {
        let mut plain = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized);
        let (batch, _, _) = scale_batch(&mut plain);
        plain.enqueue_concurrent(batch).unwrap();
        let clean = plain.last_report().unwrap();
        let total = clean.kernels[0].groups_executed;
        let clean_end = clean.kernels[0].end;
        prop_assert!(clean_end > 0);
        let abort_at = 1 + seed % (clean_end + clean_end / 4);

        let plan = FaultPlan::new(vec![FaultEvent {
            at: abort_at,
            kind: FaultKind::KernelAbort {
                launch: LaunchId(0),
            },
        }]);
        let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized)
            .with_faults(plan)
            .with_retry(RetryPolicy::default());
        let (batch, b1, b2) = scale_batch(&mut os);
        os.enqueue_concurrent(batch).unwrap();
        prop_assert_eq!(os.context_mut().read_f32(b1).unwrap(), vec![2.0; 512]);
        prop_assert_eq!(os.context_mut().read_f32(b2).unwrap(), vec![5.0; 512]);
        let report = os.last_report().unwrap();
        // Only request 0 aborts, so its incarnations are the original
        // LaunchId(0) plus every retry copy (ids past the batch).
        let executed: usize = report
            .kernels
            .iter()
            .filter(|k| k.id != LaunchId(1))
            .map(|k| k.groups_executed)
            .sum();
        prop_assert_eq!(
            executed,
            total,
            "abort at t={} lost or duplicated work across incarnations",
            abort_at
        );
    }

    /// (b) Same `FaultSpec`, same seed ⇒ the domain-aware draw produces
    /// the same `FaultPlan` and the replay a **byte-identical**
    /// `SimReport`, correlated domain failures, repairs and health-aware
    /// placement included.
    #[test]
    fn domain_failure_runs_are_byte_identical(seed in 0u64..2_500) {
        let cfg = DeviceConfig::k20m();
        let spec = FaultSpec {
            horizon: 20_000,
            cu_failures: (seed % 3) as usize,
            repair_delay: (seed % 2 == 0).then_some(1_500),
            stragglers: (seed % 2) as usize,
            slowdown: 3.0,
            straggler_window: 2_000,
            aborts: 0,
            domain_failures: 1 + (seed % 2) as usize,
            domain_repair_delay: (seed % 3 == 0).then_some(2_500),
        };
        let run = || {
            let launches = random_launches(seed, &cfg);
            let domains = FailureDomain::split_evenly(cfg.num_cus, 4);
            let plan = FaultPlan::from_spec_with_domains(
                &spec,
                cfg.num_cus,
                launches.len(),
                domains.len(),
                seed,
            );
            let sim = Simulator::new(cfg.clone())
                .with_trace()
                .with_domains(domains)
                .with_faults(plan);
            run_episode(sim, &launches, &[], &[])
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(format!("{a:#?}"), format!("{b:#?}"));
        // Work is conserved for every non-aborted kernel even under
        // correlated loss (no aborts were drawn, so: every kernel).
        let launches = random_launches(seed, &cfg);
        for (k, launch) in a.kernels.iter().zip(&launches) {
            prop_assert_eq!(k.groups_executed as u64, launch.plan.total_groups());
            prop_assert_eq!(k.groups_retried, k.chunks_lost);
        }
    }

    /// (c) With zero faults the whole health plane is invisible:
    /// configuring failure domains, keeping the CU-health memory on, or
    /// switching it off (`with_blind_health`) all replay byte-identical
    /// to the plain simulator under arbitrary reclaim/pause/resume churn.
    #[test]
    fn zero_fault_health_plane_is_bit_identical(seed in 0u64..10_000) {
        let cfg = DeviceConfig::test_tiny();
        let launches = random_launches(seed, &cfg);
        let (reclaims, resumes) = random_churn(seed, launches.len());
        let base = run_episode(
            Simulator::new(cfg.clone()).with_trace(),
            &launches, &reclaims, &resumes,
        );
        let domains = run_episode(
            Simulator::new(cfg.clone())
                .with_trace()
                .with_domains(FailureDomain::split_evenly(cfg.num_cus, 2)),
            &launches, &reclaims, &resumes,
        );
        let blind = run_episode(
            Simulator::new(cfg.clone()).with_trace().with_blind_health(),
            &launches, &reclaims, &resumes,
        );
        prop_assert_eq!(
            format!("{base:#?}"),
            format!("{domains:#?}"),
            "configuring domains must be inert without domain faults"
        );
        prop_assert_eq!(
            format!("{base:#?}"),
            format!("{blind:#?}"),
            "health memory must be inert while no CU is ever suspect"
        );
    }

    /// (e) With `max_attempts: 0` the engine adds nothing to the
    /// simulator: same launches, churn and faults ⇒ the same report, trace
    /// included. A CU failure and a kernel abort share one instant, in
    /// either plan order, so the engine must inject faults in plan order.
    #[test]
    fn fail_fast_engine_matches_the_bare_simulator(seed in 0u64..10_000) {
        let cfg = DeviceConfig::test_tiny();
        let launches = random_launches(seed, &cfg);
        let (reclaims, resumes) = random_churn(seed, launches.len());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xe9);
        let at = rng.random_range(0..5_000u64);
        let mut events = vec![
            FaultEvent {
                at,
                kind: FaultKind::CuFailure {
                    cu: rng.random_range(0..cfg.num_cus),
                    repair_at: Some(at + rng.random_range(500..4_000u64)),
                },
            },
            FaultEvent {
                at,
                kind: FaultKind::KernelAbort {
                    launch: LaunchId(rng.random_range(0..launches.len() as u32)),
                },
            },
        ];
        if rng.random_range(0..2u32) == 0 {
            events.reverse();
        }
        let plan = FaultPlan::new(events);

        let episode = Episode {
            reclaims: reclaims
                .iter()
                .map(|r| TimedReclaim {
                    at: r.at,
                    index: r.launch.0 as usize,
                    workers: r.workers,
                    pressure: r.pressure.map(|p| p.0 as usize),
                })
                .collect(),
            resumes: resumes
                .iter()
                .map(|r| PlannedResume {
                    after: r.after.0 as usize,
                    index: r.launch.0 as usize,
                    workers: r.workers,
                })
                .collect(),
            faults: plan.clone(),
            trace: true,
            ..Episode::new(launches.clone())
        };
        let outcome = episode.run(&cfg);
        let bare = run_episode(
            Simulator::new(cfg.clone()).with_trace().with_faults(plan),
            &launches, &reclaims, &resumes,
        );
        prop_assert_eq!(&outcome.report, &bare);
        prop_assert_eq!(bare.faults_injected, 2);
        for (i, ids) in outcome.lineage.iter().enumerate() {
            prop_assert_eq!(ids, &vec![LaunchId(i as u32)]);
        }
        prop_assert_eq!(
            outcome.exhausted,
            bare.kernels.iter().position(|k| k.aborted)
        );
    }
}

/// (d) A four-CU K20m slice, one failure domain per CU. CU 0 fails at
/// 400 and is repaired at 800, then straggles ×8 until 3,000; domain 1
/// is lost for good at 1,000 — 25% of the fleet, the severity threshold
/// — while CU 0 is still degraded. The displaced workers must be
/// re-placed around a CU that looks healthy to the blind engine but is
/// not: both modes conserve work, and health-aware placement recovers
/// strictly faster.
#[test]
fn health_aware_placement_recovers_faster_than_blind() {
    let mut cfg = DeviceConfig::k20m();
    cfg.num_cus = 4;
    let launches: Vec<KernelLaunch> = (0..2u32)
        .map(|i| KernelLaunch {
            name: format!("tenant{i}"),
            arrival: u64::from(i) * 200,
            req: WorkGroupReq {
                threads: 64,
                local_mem: 0,
                regs_per_thread: 1,
            },
            mem_intensity: 0.0,
            plan: LaunchPlan::PersistentDynamic {
                workers: 4,
                vg_costs: vec![40u64; 160].into(),
                chunk: 4,
                per_vg_overhead: 1,
            },
            max_workers: None,
        })
        .collect();
    let plan = FaultPlan::new(vec![
        FaultEvent {
            at: 400,
            kind: FaultKind::CuFailure {
                cu: 0,
                repair_at: Some(800),
            },
        },
        FaultEvent {
            at: 800,
            kind: FaultKind::Straggler {
                cu: 0,
                factor: 8.0,
                until: 3_000,
            },
        },
        FaultEvent {
            at: 1_000,
            kind: FaultKind::DomainFailure {
                domain: 1,
                repair_at: None,
            },
        },
    ]);
    let recovery = |blind: bool| -> u64 {
        let mut sim = Simulator::new(cfg.clone())
            .with_domains(FailureDomain::split_evenly(cfg.num_cus, 4))
            .with_faults(plan.clone());
        if blind {
            sim = sim.with_blind_health();
        }
        let report = run_episode(sim, &launches, &[], &[]);
        let (mut lost, mut retried) = (0, 0);
        for (k, launch) in report.kernels.iter().zip(&launches) {
            assert!(!k.aborted, "{}: no aborts are scheduled", k.name);
            assert_eq!(
                k.groups_executed as u64,
                launch.plan.total_groups(),
                "{}: a faulty run must still complete its full plan",
                k.name
            );
            lost += k.chunks_lost;
            retried += k.groups_retried;
        }
        assert_eq!(retried, lost, "every lost group re-executes exactly once");
        sched_metrics::recovery_latency(plan.events[0].at, report.total_time())
    };
    let (aware, blind) = (recovery(false), recovery(true));
    assert!(
        aware < blind,
        "health-aware placement must recover strictly faster: {aware} vs {blind}"
    );
}
