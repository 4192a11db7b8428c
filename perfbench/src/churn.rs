//! `churn`: the timing plane under preemption and faults.
//!
//! Inputs: `device`, `domains` and one `episode <policy> <seed>
//! <join_permille> <kernels> <cu_failures> <repair_permille> <stragglers>
//! <aborts> <domain_failures> <fault_seed>` record per episode. Tenant 0
//! of `<kernels>` (comma-separated) joins `join_permille`/1000 of the way
//! through tenant 1's isolated time; the rest arrive at 0. Each episode
//! draws its `FaultPlan` over that isolated time from the record's
//! `FaultSpec` fields: CU failures repair after `repair_permille`/1000 of
//! it, domain losses are permanent.
//!
//! A pass runs every episode on a fresh `Runner` with a `ProfileStore`
//! attached. The op is `rep_context` plus `faulty_report_with_domains`;
//! arrivals and fault plans are derived untimed. Each report is checked
//! for work conservation, exactly-once retry and resumed pauses.
//!
//! The traced pass replays each episode through the public pieces of
//! `faulty_report_with_domains` (fault projection, profile estimates,
//! isolated times, cohort planning, launch building, `Simulator::run`)
//! and checks each report equals the entry point's.

use crate::trace::Tracer;
use crate::{field, Input, Measure, Traced};
use accel_harness::experiments::DEADLINE_SLACK;
use accel_harness::{RepContext, Runner, SchedulingPolicy};
use accelos::policy::{plan_with_arrivals_and_faults, AccelOsPolicy, FaultSchedule, PolicySet};
use gpu_sim::{
    DeviceConfig, FailureDomain, FaultPlan, FaultSpec, KernelLaunch, LaunchId, ReclaimCmd,
    ResumeCmd, SimReport, Simulator, WorkGroupReq,
};
use parboil::KernelSpec;
use sched_metrics::ProfileStore;
use std::sync::Arc;
use std::time::Instant;

/// Per-virtual-group runtime overhead the runner charges (`runner.rs`).
const PER_VG_OVERHEAD: u64 = 2;

struct Episode {
    policy: Arc<dyn SchedulingPolicy>,
    seed: u64,
    join_permille: u64,
    kernels: Vec<&'static KernelSpec>,
    cu_failures: usize,
    repair_permille: u64,
    stragglers: usize,
    aborts: usize,
    domain_failures: usize,
    fault_seed: u64,
}

struct Spec {
    device: DeviceConfig,
    domains: usize,
    episodes: Vec<Episode>,
}

fn parse(input: &Input) -> Result<Spec, String> {
    let episodes = input
        .all("episode")
        .into_iter()
        .map(|r| {
            let kernels = r
                .get(3)
                .ok_or("episode without kernels")?
                .split(',')
                .map(|k| KernelSpec::by_name(k).ok_or(format!("unknown kernel `{k}`")))
                .collect::<Result<Vec<_>, _>>()?;
            if kernels.len() < 2 {
                return Err(format!("episode {r:?} needs at least two kernels"));
            }
            Ok(Episode {
                policy: PolicySet::builtin(&r[0])?,
                seed: field(r, 1)?,
                join_permille: field(r, 2)?,
                kernels,
                cu_failures: field(r, 4)?,
                repair_permille: field(r, 5)?,
                stragglers: field(r, 6)?,
                aborts: field(r, 7)?,
                domain_failures: field(r, 8)?,
                fault_seed: field(r, 9)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Spec {
        device: crate::sweep::device(&input.one("device")?[0])?,
        domains: field(input.one("domains")?, 0)?,
        episodes,
    })
}

fn fresh_runner(device: &DeviceConfig) -> Runner {
    let runner = Runner::new(device.clone());
    runner.set_profile_store(ProfileStore::new());
    runner
}

/// Arrivals and fault plan of an episode (derived untimed, from tenant
/// 1's isolated time under `accelos`).
fn episode_inputs(runner: &Runner, e: &Episode, domains: usize) -> (Vec<u64>, FaultPlan) {
    let horizon = runner
        .isolated_time(&AccelOsPolicy::optimized(), e.kernels[1], e.seed)
        .max(1);
    let mut arrivals = vec![0; e.kernels.len()];
    arrivals[0] = horizon * e.join_permille / 1000;
    let spec = FaultSpec {
        horizon,
        cu_failures: e.cu_failures,
        repair_delay: Some((horizon * e.repair_permille / 1000).max(1)),
        stragglers: e.stragglers,
        slowdown: 3.0,
        straggler_window: (horizon / 8).max(1),
        aborts: e.aborts,
        domain_failures: e.domain_failures,
        domain_repair_delay: None,
    };
    let plan = FaultPlan::from_spec_with_domains(
        &spec,
        runner.device().num_cus,
        e.kernels.len(),
        domains,
        e.fault_seed,
    );
    (arrivals, plan)
}

/// The fault plane's standing invariants on one episode report.
fn check(ctx: &RepContext<'_>, report: &SimReport) -> Result<(), String> {
    for (i, k) in report.kernels.iter().enumerate() {
        if k.aborted {
            continue;
        }
        if k.groups_executed != ctx.costs(i).len() {
            return Err(format!("{} lost or duplicated work", k.name));
        }
        if k.groups_retried != k.chunks_lost {
            return Err(format!("{} broke exactly-once retry", k.name));
        }
        if k.pauses > 0 && k.resumes == 0 {
            return Err(format!("{} paused but never resumed", k.name));
        }
    }
    Ok(())
}

/// Whether tenant 0 finished by its deadline ([`DEADLINE_SLACK`] × its
/// isolated time under `accelos`, from the episode start); `None` when it
/// was aborted.
fn deadline_held(runner: &Runner, e: &Episode, report: &SimReport) -> Option<bool> {
    let k = &report.kernels[0];
    if k.aborted {
        return None;
    }
    let alone = runner.isolated_time(&AccelOsPolicy::optimized(), e.kernels[0], e.seed);
    Some(k.end <= (DEADLINE_SLACK * alone as f64).round() as u64)
}

/// `(antt, unfairness, stp)` over the tenants that were not aborted.
fn episode_sim(runner: &Runner, e: &Episode, report: &SimReport) -> Option<(f64, f64, f64)> {
    let (shared, alone): (Vec<u64>, Vec<u64>) = report
        .kernels
        .iter()
        .zip(&e.kernels)
        .filter(|(k, _)| !k.aborted)
        .map(|(k, &spec)| {
            let alone = runner.isolated_time(e.policy.as_ref(), spec, e.seed);
            (k.turnaround().max(1), alone)
        })
        .unzip();
    if shared.is_empty() {
        return None;
    }
    let slowdowns: Vec<f64> = shared
        .iter()
        .zip(&alone)
        .map(|(&s, &a)| sched_metrics::individual_slowdown(s, a))
        .collect();
    Some((
        sched_metrics::antt(&shared, &alone),
        sched_metrics::unfairness(&slowdowns),
        sched_metrics::stp(&shared, &alone),
    ))
}

fn hold_rate(held: &[bool]) -> f64 {
    held.iter().filter(|&&h| h).count() as f64 / held.len().max(1) as f64
}

pub fn measure(input: &Input, seconds: f64) -> Result<Measure, String> {
    let spec = parse(input)?;
    let domains = FailureDomain::split_evenly(spec.device.num_cus, spec.domains);
    let mut m = Measure::default();
    let mut sims: Vec<(f64, f64, f64)> = Vec::new();
    let mut held: Vec<bool> = Vec::new();
    m.passes(
        seconds,
        3,
        || fresh_runner(&spec.device),
        |m, runner, pass| {
            for (n, e) in spec.episodes.iter().enumerate() {
                let (arrivals, plan) = episode_inputs(runner, e, spec.domains);
                let ((ctx, report), ms) = m.timed(|| {
                    let ctx = runner.rep_context(&e.kernels, e.seed);
                    let report = runner.faulty_report_with_domains(
                        &ctx,
                        e.policy.as_ref(),
                        &arrivals,
                        &plan,
                        &domains,
                    );
                    (ctx, report)
                });
                m.op_ms.push(ms);
                m.ops += 1;
                if let Err(msg) = check(&ctx, &report) {
                    m.fail(1, format!("episode {n}: {msg}"));
                }
                if pass == 0 {
                    sims.extend(episode_sim(runner, e, &report));
                    held.extend(deadline_held(runner, e, &report));
                }
            }
        },
    );
    let n = sims.len().max(1) as f64;
    m.metric(
        "sim_antt",
        sims.iter().map(|s| s.0).sum::<f64>() / n,
        "ratio",
    );
    m.metric(
        "sim_unfairness",
        sims.iter().map(|s| s.1).sum::<f64>() / n,
        "ratio",
    );
    m.metric(
        "sim_stp",
        sims.iter().map(|s| s.2).sum::<f64>() / n,
        "ratio",
    );
    m.metric("deadline_hold_rate", hold_rate(&held), "ratio");
    m.info
        .insert("episodes".into(), spec.episodes.len().to_string());
    Ok(m)
}

/// `Runner::faulty_report_with_domains`, one layer at a time.
fn traced_episode(
    t: &mut Tracer,
    runner: &Runner,
    e: &Episode,
    arrivals: &[u64],
    faults: &FaultPlan,
    domains: &[FailureDomain],
) -> SimReport {
    let policy = e.policy.as_ref();
    let ctx = t.span("runner.rep_context", |_| {
        runner.rep_context(&e.kernels, e.seed)
    });
    let projected = t.span("policy.fault_schedule", |_| {
        FaultSchedule::from_fault_plan_with_domains(faults, domains)
    });
    let requests = t.span("runner.exec_requests", |_| {
        ctx.exec_requests(policy.chunk_mode())
    });
    let indices = policy.estimate_indices(&requests);
    let mut store = runner.take_profile_store();
    let estimates: Vec<Option<u64>> = if indices.is_empty() && store.is_none() {
        Vec::new()
    } else {
        (0..e.kernels.len())
            .map(|i| {
                let name = e.kernels[i].name;
                let items = requests[i].ndrange.total_items();
                let calibrated = store.as_ref().and_then(|s| {
                    t.add("profile.estimates", 1.0);
                    t.span("profile.estimate", |_| s.estimate(name, items))
                });
                t.add("profile.hits", f64::from(u8::from(calibrated.is_some())));
                if calibrated.is_none() && indices.contains(&i) {
                    t.add("runner.solo_lookups", 1.0);
                    let v = t.span("runner.isolated_time", |_| {
                        runner.isolated_time(policy, e.kernels[i], e.seed)
                    });
                    if let Some(s) = store.as_mut() {
                        t.span("profile.record", |_| s.record(name, items, v));
                        t.add("profile.records", 1.0);
                    }
                    Some(v)
                } else {
                    calibrated
                }
            })
            .collect()
    };
    if let Some(s) = store {
        runner.set_profile_store(s);
    }
    let mut plan_ctx = ctx.plan_ctx();
    if !estimates.is_empty() {
        plan_ctx = plan_ctx.with_estimates(&estimates);
    }
    let schedule = t.span("policy.plan_with_arrivals_and_faults", |_| {
        plan_with_arrivals_and_faults(policy, &plan_ctx, &requests, arrivals, &projected)
    });
    t.add("policy.plan_calls", 1.0);
    t.add("policy.reclaims", schedule.reclaims.len() as f64);
    t.add("policy.resumes", schedule.resumes.len() as f64);
    let launches: Vec<KernelLaunch> = t.span("runner.build_launches", |_| {
        schedule
            .decisions
            .iter()
            .enumerate()
            .map(|(i, decision)| {
                let spec = e.kernels[i];
                let (_, profile) = runner.db().get(spec.name).expect("bundled kernel");
                KernelLaunch {
                    name: spec.name.to_string(),
                    arrival: arrivals[i],
                    req: WorkGroupReq {
                        threads: spec.wg_size,
                        local_mem: profile.static_local_bytes as u32,
                        regs_per_thread: profile.regs_per_item.max(1) as u32,
                    },
                    mem_intensity: spec.mem_intensity,
                    plan: decision.to_sim_plan(ctx.costs(i).clone(), PER_VG_OVERHEAD),
                    max_workers: policy.solo_workers(&plan_ctx, i, &requests[i]),
                }
            })
            .collect()
    });
    let mut sim = Simulator::new(runner.device().clone());
    if !domains.is_empty() {
        sim = sim.with_domains(domains.to_vec());
    }
    for l in launches {
        sim.add_launch(l);
    }
    for r in &schedule.reclaims {
        sim.add_reclaim(ReclaimCmd {
            at: r.at,
            launch: LaunchId(r.index as u32),
            workers: r.workers,
            pressure: r.pressure.map(|p| LaunchId(p as u32)),
            chunk: None,
        });
    }
    for r in &schedule.resumes {
        sim.add_resume(ResumeCmd {
            after: LaunchId(r.after as u32),
            launch: LaunchId(r.index as u32),
            workers: r.workers,
        });
    }
    let report = t.span("gpu_sim.run", |_| sim.with_faults(faults.clone()).run());
    t.add("gpu_sim.co_runs", 1.0);
    crate::sweep::sim_counters(t, &report);
    report
}

pub fn trace(input: &Input) -> Result<Traced, String> {
    let spec = parse(input)?;
    let domains = FailureDomain::split_evenly(spec.device.num_cus, spec.domains);
    let mut t = Traced::new(Tracer::new());
    let reference = fresh_runner(&spec.device);
    let runner = fresh_runner(&spec.device);
    let mut held = Vec::new();
    for (n, e) in spec.episodes.iter().enumerate() {
        let (arrivals, plan) = episode_inputs(&reference, e, spec.domains);
        let w = Instant::now();
        let ctx = reference.rep_context(&e.kernels, e.seed);
        let expected = reference.faulty_report_with_domains(
            &ctx,
            e.policy.as_ref(),
            &arrivals,
            &plan,
            &domains,
        );
        t.untraced_ms += w.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = check(&ctx, &expected) {
            t.mismatch(format!("episode {n}: {e}"));
        }
        held.extend(deadline_held(&reference, e, &expected));

        // The traced runner derives its own arrivals so both runners'
        // caches see the same lookups.
        let (arrivals, plan) = episode_inputs(&runner, e, spec.domains);
        let w = Instant::now();
        let got = t.tracer.op(n as u64, "op.episode", |t| {
            traced_episode(t, &runner, e, &arrivals, &plan, &domains)
        });
        t.traced_ms += w.elapsed().as_secs_f64() * 1e3;
        t.check(got == expected, || {
            format!("episode {n}: traced report differs from faulty_report_with_domains")
        });
    }
    t.ops = spec.episodes.len() as u64;
    t.metric("deadline_hold_rate", hold_rate(&held), "ratio");
    let (_, sim_ns) = t.tracer.total("gpu_sim.run");
    t.metric("gpu_sim.co_busy_ms", sim_ns as f64 / 1e6, "ms");
    let groups = t.tracer.counter("gpu_sim.groups");
    t.metric(
        "gpu_sim.groups_per_s",
        groups / (sim_ns as f64 / 1e9).max(1e-9),
        "1/s",
    );
    let (_, rep_ns) = t.tracer.total("runner.rep_context");
    t.metric("runner.rep_context_ms", rep_ns as f64 / 1e6, "ms");
    let (plans, plan_ns) = t.tracer.total("policy.plan_with_arrivals_and_faults");
    t.metric(
        "policy.plan_us",
        plan_ns as f64 / 1e3 / plans.max(1) as f64,
        "us",
    );
    for c in [
        "gpu_sim.co_runs",
        "gpu_sim.groups",
        "gpu_sim.faults_injected",
        "gpu_sim.groups_retried",
        "runner.solo_lookups",
        "policy.plan_calls",
        "policy.reclaims",
        "policy.resumes",
        "profile.estimates",
        "profile.hits",
        "profile.records",
    ] {
        t.count(c);
    }
    Ok(t)
}
