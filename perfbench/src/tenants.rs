//! `tenants`: the transparent runtime as a closed loop with one client.
//!
//! Inputs: `platform`, `policy`, `dataset_seed` and one `batch <abort>
//! <kernel>@<arrival> ...` record per batch, where `<abort>` is `-` or
//! `<request>:<cycle>` (a kernel abort injected into that batch). A pass
//! runs every batch in order on a fresh `ProxyCl` with a `ProfileStore`
//! attached: each application first builds its Parboil program (a
//! `build` op), its dataset is prepared untimed, then the batch goes
//! through `enqueue_concurrent_at` (an op). Output buffers are checked
//! against an untransformed `clrt` run of the same dataset, computed
//! once per kernel before timing starts, together with the kernel's
//! isolated time under the same policy (the `alone` time of the sim
//! metrics).
//!
//! The traced pass rebuilds each program through `minicl::compile`,
//! `transform_module` and `Program::from_module`, and runs each batch
//! through the public pieces `enqueue_concurrent_at` is made of (profile
//! estimates, cohort planning, the tiered interpreter, the retry loop
//! around `Simulator::run`, profile records), checking programs, events,
//! simulator reports and output buffers against the entry points.

use crate::trace::Tracer;
use crate::{field, Input, Measure, Traced};
use accelos::policy::{plan_with_arrivals_and_faults, FaultSchedule, PlanCtx, SchedulingPolicy};
use accelos::proxycl::{PendingExec, ProxyCl, ProxyProgram, RetryPolicy};
use accelos::{transform_module, ExecRequest, Mode, PolicySet, TransformInfo};
use clrt::{Arg, Buffer, CommandQueue, Context, Event, Platform, Program};
use gpu_sim::{
    FaultEvent, FaultKind, FaultPlan, KernelLaunch, LaunchId, ReclaimCmd, ResumeCmd, SimReport,
    Simulator,
};
use kernel_ir::interp::{default_interp_threads, DynStats, Interpreter};
use kernel_ir::ExecTier;
use parboil::datasets::prepare_launch;
use parboil::KernelSpec;
use sched_metrics::ProfileStore;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Kernels whose outputs depend on work-group execution order (atomic
/// slot allocation): their output words are compared as multisets.
const ORDER_DEPENDENT: [&str; 2] = ["bfs", "mri-gridding_reorder"];

struct Batch {
    apps: Vec<(&'static KernelSpec, u64)>,
    abort: Option<(usize, u64)>,
}

struct Spec {
    platform: Platform,
    policy: Arc<dyn SchedulingPolicy>,
    dataset_seed: u64,
    batches: Vec<Batch>,
}

fn parse(input: &Input) -> Result<Spec, String> {
    let platform = match input.one("platform")?[0].as_str() {
        "nvidia" => Platform::nvidia(),
        other => return Err(format!("unknown platform `{other}`")),
    };
    let batches = input
        .all("batch")
        .into_iter()
        .map(|rec| {
            let abort = match rec.first().map(String::as_str) {
                Some("-") => None,
                Some(a) => {
                    let (i, at) = a.split_once(':').ok_or(format!("bad abort `{a}`"))?;
                    Some((
                        i.parse().map_err(|_| format!("bad abort `{a}`"))?,
                        at.parse().map_err(|_| format!("bad abort `{a}`"))?,
                    ))
                }
                None => return Err("empty batch record".to_string()),
            };
            let apps = rec[1..]
                .iter()
                .map(|app| {
                    let (name, at) = app.split_once('@').ok_or(format!("bad app `{app}`"))?;
                    let spec =
                        KernelSpec::by_name(name).ok_or(format!("unknown kernel `{name}`"))?;
                    Ok((
                        spec,
                        at.parse().map_err(|_| format!("bad arrival in `{app}`"))?,
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            if apps.is_empty() || abort.is_some_and(|(i, _)| i >= apps.len()) {
                return Err(format!("bad batch record {rec:?}"));
            }
            Ok(Batch { apps, abort })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Spec {
        platform,
        policy: PolicySet::builtin(&input.one("policy")?[0])?,
        dataset_seed: field(input.one("dataset_seed")?, 0)?,
        batches,
    })
}

fn faults(batch: &Batch) -> FaultPlan {
    match batch.abort {
        Some((i, at)) => FaultPlan::new(vec![FaultEvent {
            at,
            kind: FaultKind::KernelAbort {
                launch: LaunchId(i as u32),
            },
        }]),
        None => FaultPlan::default(),
    }
}

fn read_outputs(ctx: &Context, bufs: &[Buffer]) -> Result<Vec<Vec<u8>>, String> {
    bufs.iter()
        .map(|&b| {
            ctx.read_i32(b)
                .map(|v| v.iter().flat_map(|w| w.to_le_bytes()).collect())
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Outputs as compared: multisets of words for order-dependent kernels.
fn canonical(name: &str, mut outs: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    if ORDER_DEPENDENT.contains(&name) {
        for o in &mut outs {
            let mut words: Vec<[u8; 4]> = o
                .chunks_exact(4)
                .map(|c| [c[0], c[1], c[2], c[3]])
                .collect();
            words.sort_unstable();
            *o = words.concat();
        }
    }
    outs
}

/// Per kernel: outputs of an untransformed `clrt` run, and the isolated
/// time of the application alone under the runtime's policy.
struct Oracle {
    outputs: HashMap<&'static str, Vec<Vec<u8>>>,
    alone: HashMap<&'static str, u64>,
}

fn oracle(spec: &Spec) -> Result<Oracle, String> {
    let mut o = Oracle {
        outputs: HashMap::new(),
        alone: HashMap::new(),
    };
    for b in &spec.batches {
        for &(k, _) in &b.apps {
            if o.outputs.contains_key(k.name) {
                continue;
            }
            let mut ctx = Context::new(&spec.platform);
            let program = Program::build(k.source).map_err(|e| e.to_string())?;
            let p = prepare_launch(k, &mut ctx, &program, 1, spec.dataset_seed)
                .map_err(|e| e.to_string())?;
            CommandQueue::new()
                .enqueue_nd_range(&mut ctx, &p.kernel, p.ndrange)
                .map_err(|e| format!("{}: {e}", k.name))?;
            o.outputs
                .insert(k.name, canonical(k.name, read_outputs(&ctx, &p.outputs)?));

            let mut os = ProxyCl::with_policy(&spec.platform, spec.policy.clone());
            let prog = os.build_program(k.source).map_err(|e| e.to_string())?;
            let (pending, _) = prepare(k, &mut os, &prog, spec.dataset_seed)?;
            let ev = os
                .enqueue_concurrent_at(vec![pending], &[0])
                .map_err(|e| format!("{}: {e}", k.name))?;
            o.alone.insert(k.name, (ev[0].end - ev[0].queued).max(1));
        }
    }
    Ok(o)
}

/// Bind a dataset to a freshly built program (untimed).
fn prepare(
    k: &KernelSpec,
    os: &mut ProxyCl,
    prog: &ProxyProgram,
    seed: u64,
) -> Result<(PendingExec, Vec<Buffer>), String> {
    let chunk = prog
        .info(k.entry)
        .ok_or(format!("no transform info for {}", k.entry))?
        .chunk;
    let p =
        prepare_launch(k, os.context_mut(), prog.program(), 1, seed).map_err(|e| e.to_string())?;
    Ok((
        PendingExec {
            kernel: p.kernel,
            chunk,
            ndrange: p.ndrange,
        },
        p.outputs,
    ))
}

fn set_faults(os: &mut ProxyCl, plan: FaultPlan) {
    let taken = std::mem::replace(os, ProxyCl::new(&Platform::test_tiny(), Mode::Optimized));
    *os = taken.with_faults(plan);
}

/// Slowdown-based sim metrics of one batch: `(antt, unfairness, stp)`.
fn batch_sim(batch: &Batch, events: &[Event], oracle: &Oracle) -> (f64, f64, f64) {
    let shared: Vec<u64> = events
        .iter()
        .zip(&batch.apps)
        .map(|(ev, &(_, at))| (ev.end - ev.queued).saturating_sub(at).max(1))
        .collect();
    let alone: Vec<u64> = batch
        .apps
        .iter()
        .map(|(k, _)| oracle.alone[k.name])
        .collect();
    let slowdowns: Vec<f64> = shared
        .iter()
        .zip(&alone)
        .map(|(&s, &a)| sched_metrics::individual_slowdown(s, a))
        .collect();
    (
        sched_metrics::antt(&shared, &alone),
        sched_metrics::unfairness(&slowdowns),
        sched_metrics::stp(&shared, &alone),
    )
}

/// Check a batch's outputs against the oracle; `Err` names the first
/// mismatching application.
fn check_outputs(
    ctx: &Context,
    batch: &Batch,
    outputs: &[Vec<Buffer>],
    oracle: &Oracle,
) -> Result<(), String> {
    for (&(k, _), bufs) in batch.apps.iter().zip(outputs) {
        if canonical(k.name, read_outputs(ctx, bufs)?) != oracle.outputs[k.name] {
            return Err(format!(
                "{} output differs from the untransformed run",
                k.name
            ));
        }
    }
    Ok(())
}

pub fn measure(input: &Input, seconds: f64) -> Result<Measure, String> {
    let spec = parse(input)?;
    let oracle = oracle(&spec)?;
    let mut m = Measure::default();
    let mut sims: Vec<(f64, f64, f64)> = Vec::new();
    // Attaching the runtime takes about a microsecond: each set-up
    // sample is the mean of many.
    m.passes(
        seconds,
        1000,
        || {
            ProxyCl::with_policy(&spec.platform, spec.policy.clone())
                .with_profile_store(ProfileStore::new())
        },
        |m, os, pass| {
            for (n, batch) in spec.batches.iter().enumerate() {
                let mut pending = Vec::new();
                let mut outputs = Vec::new();
                for &(k, _) in &batch.apps {
                    let (prog, ms) = m.timed(|| os.build_program(k.source));
                    m.build_ms.push(ms);
                    m.ops += 1;
                    let prepared = prog
                        .map_err(|e| e.to_string())
                        .and_then(|prog| prepare(k, os, &prog, spec.dataset_seed));
                    match prepared {
                        Ok((p, bufs)) => {
                            pending.push(p);
                            outputs.push(bufs);
                        }
                        Err(e) => m.fail(1, format!("batch {n}: build of {}: {e}", k.name)),
                    }
                }
                if pending.len() != batch.apps.len() {
                    m.ops += 1;
                    m.fail(
                        1,
                        format!("batch {n}: skipped, an application did not build"),
                    );
                    continue;
                }
                set_faults(os, faults(batch));
                let arrivals: Vec<u64> = batch.apps.iter().map(|&(_, at)| at).collect();
                let (res, ms) = m.timed(|| os.enqueue_concurrent_at(pending, &arrivals));
                m.op_ms.push(ms);
                m.ops += 1;
                let checked = res.map_err(|e| e.to_string()).and_then(|events| {
                    check_outputs(os.context_mut(), batch, &outputs, &oracle)?;
                    Ok(events)
                });
                match checked {
                    Ok(events) if pass == 0 => sims.push(batch_sim(batch, &events, &oracle)),
                    Ok(_) => {}
                    Err(e) => m.fail(1, format!("batch {n}: {e}")),
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
    m.info
        .insert("batches".into(), spec.batches.len().to_string());
    m.info
        .insert("kernels".into(), oracle.outputs.len().to_string());
    Ok(m)
}

/// `ProxyCl::build_program`, one layer at a time.
fn traced_build(
    t: &mut Tracer,
    source: &str,
    mode: Mode,
) -> Result<(Program, Vec<TransformInfo>), String> {
    let module = t
        .span("minicl.compile", |_| minicl::compile(source))
        .map_err(|e| e.to_string())?;
    let transformed = t
        .span("jit.transform_module", |_| transform_module(&module, mode))
        .map_err(|e| e.to_string())?;
    let program = t
        .span("accelcheck.from_module", |_| {
            Program::from_module(transformed.module, source)
        })
        .map_err(|e| e.to_string())?;
    Ok((program, transformed.kernels))
}

/// The state `ProxyCl` keeps between enqueues, held by the traced pass.
struct Runtime<'a> {
    ctx: Context,
    policy: &'a dyn SchedulingPolicy,
    store: ProfileStore,
    cursor: u64,
}

/// `ProxyCl::enqueue_concurrent_at`, one layer at a time.
fn traced_enqueue(
    t: &mut Tracer,
    rt: &mut Runtime<'_>,
    faults: &FaultPlan,
    batch: &[PendingExec],
    arrivals: &[u64],
) -> Result<(Vec<Event>, SimReport), String> {
    let requests: Vec<ExecRequest> = batch
        .iter()
        .map(|p| {
            let req = clrt::launch_requirements(&p.kernel, p.ndrange);
            ExecRequest::new(
                p.kernel.name(),
                p.ndrange,
                req.local_mem,
                req.regs_per_thread,
                p.chunk,
            )
        })
        .collect();
    let mut abort_times: Vec<Vec<u64>> = vec![Vec::new(); batch.len()];
    let mut device_faults: Vec<FaultEvent> = Vec::new();
    for ev in &faults.events {
        match ev.kind {
            FaultKind::KernelAbort { launch } => abort_times[launch.0 as usize].push(ev.at),
            _ => device_faults.push(*ev),
        }
    }

    let estimates: Vec<Option<u64>> = t.span("profile.estimate", |_| {
        batch
            .iter()
            .map(|p| rt.store.estimate(p.kernel.name(), p.ndrange.total_items()))
            .collect()
    });
    t.add("profile.estimates", estimates.len() as f64);
    t.add(
        "profile.hits",
        estimates.iter().filter(|e| e.is_some()).count() as f64,
    );
    let device = rt.ctx.device().clone();
    let mut planning_ctx = PlanCtx::new(&device);
    if estimates.iter().any(Option::is_some) {
        planning_ctx = planning_ctx.with_estimates(&estimates);
    }
    let schedule = t.span("policy.plan_with_arrivals_and_faults", |_| {
        plan_with_arrivals_and_faults(
            rt.policy,
            &planning_ctx,
            &requests,
            arrivals,
            &FaultSchedule::from_fault_plan(faults),
        )
    });
    t.add("policy.plan_calls", 1.0);
    t.add("policy.reclaims", schedule.reclaims.len() as f64);
    t.add("policy.resumes", schedule.resumes.len() as f64);
    let decisions = &schedule.decisions;

    // Functional plane.
    let threads = default_interp_threads();
    let mut all_stats: Vec<DynStats> = Vec::with_capacity(batch.len());
    for (pending, decision) in batch.iter().zip(decisions) {
        let rt_buf = rt.ctx.create_buffer(8 * decision.descriptor.len());
        rt.ctx
            .write_i64(rt_buf, &decision.descriptor)
            .map_err(|e| e.to_string())?;
        let mut kernel = pending.kernel.clone();
        let rt_index = kernel.arity() - 1;
        kernel
            .set_arg(rt_index, Arg::Buffer(rt_buf))
            .map_err(|e| e.to_string())?;
        let args = kernel.resolved_args().map_err(|e| e.to_string())?;
        let mut interp = Interpreter::with_facts(kernel.module(), kernel.facts());
        interp.set_exec_tier(ExecTier::from_env());
        let range = decision.hardware_range;
        let (fallback, parallel) = t.span("bench.interp_probe", |_| {
            let mem = rt.ctx.memory_mut();
            (
                interp.exec_tier() == ExecTier::TreeWalk
                    || !interp.bytecode_supported(mem, kernel.name(), range, &args),
                threads.min(range.total_groups()) > 1
                    && interp.parallel_eligible(kernel.name(), range, &args),
            )
        });
        let stats = t
            .span("interp.run_kernel_tiered", |_| {
                interp.run_kernel_tiered(rt.ctx.memory_mut(), kernel.name(), range, &args)
            })
            .map_err(|e| e.to_string())?;
        t.add("interp.launches", 1.0);
        t.add("interp.insns", stats.total_insns as f64);
        t.add("interp.tree_fallbacks", f64::from(u8::from(fallback)));
        t.add("interp.parallel_launches", f64::from(u8::from(parallel)));
        all_stats.push(stats);
    }

    // Timing plane.
    let staggered = arrivals.iter().any(|&a| a != arrivals[0]);
    let plan_ctx = PlanCtx::new(&device);
    let launches: Vec<KernelLaunch> = batch
        .iter()
        .zip(decisions)
        .zip(&all_stats)
        .enumerate()
        .map(|(i, ((pending, decision), stats))| {
            let total_vgs = decision.descriptor[1] as u64;
            let per_vg = if total_vgs == 0 {
                1
            } else {
                (stats.total_insns / total_vgs.max(1)).max(1)
            };
            let mem_intensity = if stats.total_insns == 0 {
                0.0
            } else {
                (stats.mem_ops as f64 / stats.total_insns as f64).min(1.0)
            };
            KernelLaunch {
                name: pending.kernel.name().to_string(),
                arrival: arrivals[i],
                req: clrt::launch_requirements(&pending.kernel, pending.ndrange),
                mem_intensity,
                plan: decision.to_sim_plan(vec![per_vg; total_vgs as usize], 1),
                max_workers: if staggered {
                    rt.policy.solo_workers(&plan_ctx, i, &requests[i])
                } else {
                    None
                },
            }
        })
        .collect();

    // Recovery loop, under the retry policy the measured runtime uses.
    let retry = RetryPolicy::default();
    let mut copies: Vec<Vec<(u64, u64)>> = vec![Vec::new(); batch.len()];
    let (report, lineage) = loop {
        let mut sim = Simulator::new(device.clone());
        let mut lineage: Vec<Vec<LaunchId>> = Vec::with_capacity(batch.len());
        for launch in &launches {
            lineage.push(vec![sim.add_launch(launch.clone())]);
        }
        for (i, arrs) in copies.iter().enumerate() {
            for &(arrival, resume_from) in arrs {
                let mut copy = launches[i].clone();
                copy.arrival = arrival;
                if resume_from > 0 {
                    copy.plan = launches[i].plan.tail(resume_from);
                }
                lineage[i].push(sim.add_launch(copy));
            }
        }
        for r in &schedule.reclaims {
            sim.add_reclaim(ReclaimCmd {
                at: r.at,
                launch: lineage[r.index][0],
                workers: r.workers,
                pressure: r.pressure.map(|p| lineage[p][0]),
                chunk: None,
            });
        }
        for r in &schedule.resumes {
            sim.add_resume(ResumeCmd {
                after: lineage[r.after][0],
                launch: lineage[r.index][0],
                workers: r.workers,
            });
        }
        for ev in &device_faults {
            sim.add_fault(*ev);
        }
        for (i, times) in abort_times.iter().enumerate() {
            for (j, &at) in times.iter().enumerate() {
                if let Some(&id) = lineage[i].get(j) {
                    sim.add_fault(FaultEvent {
                        at,
                        kind: FaultKind::KernelAbort { launch: id },
                    });
                }
            }
        }
        let report = t.span("gpu_sim.run", |_| sim.run());
        t.add("gpu_sim.co_runs", 1.0);
        crate::sweep::sim_counters(t, &report);

        let mut respawned = false;
        for (i, ids) in lineage.iter().enumerate() {
            let newest = report.kernel(*ids.last().expect("lineage is never empty"));
            if !newest.aborted {
                continue;
            }
            let spent = copies[i].len() as u32;
            if spent >= retry.max_attempts {
                return Err(format!(
                    "{} exhausted its retry budget",
                    batch[i].kernel.name()
                ));
            }
            let checkpoint: u64 = if retry.checkpoint {
                ids.iter()
                    .map(|&id| report.kernel(id).groups_executed as u64)
                    .sum()
            } else {
                0
            };
            copies[i].push((
                newest.end.saturating_add(retry.backoff_delay(spent)),
                checkpoint,
            ));
            respawned = true;
        }
        if !respawned {
            break (report, lineage);
        }
    };
    t.add(
        "proxycl.incarnations",
        lineage.iter().map(Vec::len).sum::<usize>() as f64,
    );

    t.span("profile.record", |t| {
        for (i, (pending, ids)) in batch.iter().zip(&lineage).enumerate() {
            let newest = report.kernel(*ids.last().expect("lineage is never empty"));
            if newest.groups_executed as u64 != launches[i].plan.total_groups() {
                continue;
            }
            let solo = plan_ctx.solo_share(i, &requests[i].demand);
            if let Some(obs) = newest.isolated_observation(decisions[i].workers, solo) {
                rt.store
                    .record(pending.kernel.name(), pending.ndrange.total_items(), obs);
                t.add("profile.records", 1.0);
            }
        }
    });

    let queued = rt.cursor;
    let events = lineage
        .into_iter()
        .zip(all_stats)
        .map(|(ids, stats)| {
            let first_start = ids
                .iter()
                .filter_map(|&id| report.kernel(id).first_start)
                .min();
            let end = report
                .kernel(*ids.last().expect("lineage is never empty"))
                .end;
            Event {
                queued,
                start: queued + first_start.unwrap_or(0),
                end: queued + end,
                stats,
            }
        })
        .collect();
    rt.cursor = queued + report.makespan;
    Ok((events, report))
}

pub fn trace(input: &Input) -> Result<Traced, String> {
    let spec = parse(input)?;
    let oracle = oracle(&spec)?;
    let mut t = Traced::new(Tracer::new());
    let mut os = ProxyCl::with_policy(&spec.platform, spec.policy.clone())
        .with_profile_store(ProfileStore::new());
    let mut rt = Runtime {
        ctx: Context::new(&spec.platform),
        policy: spec.policy.as_ref(),
        store: ProfileStore::new(),
        cursor: 0,
    };
    let mode = spec.policy.chunk_mode();
    let mut build_ms = Vec::new();
    let mut op = 0;
    for (n, batch) in spec.batches.iter().enumerate() {
        // Reference: the entry points.
        let mut pending = Vec::new();
        let mut outputs = Vec::new();
        let mut programs = Vec::new();
        for &(k, _) in &batch.apps {
            let w = Instant::now();
            let prog = os.build_program(k.source).map_err(|e| e.to_string())?;
            let ms = w.elapsed().as_secs_f64() * 1e3;
            t.untraced_ms += ms;
            build_ms.push(ms);
            let (p, bufs) = prepare(k, &mut os, &prog, spec.dataset_seed)?;
            pending.push(p);
            outputs.push(bufs);
            programs.push(prog);
        }
        set_faults(&mut os, faults(batch));
        let arrivals: Vec<u64> = batch.apps.iter().map(|&(_, at)| at).collect();
        let w = Instant::now();
        let events = os
            .enqueue_concurrent_at(pending, &arrivals)
            .map_err(|e| format!("batch {n}: {e}"))?;
        t.untraced_ms += w.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = check_outputs(os.context_mut(), batch, &outputs, &oracle) {
            t.mismatch(format!("batch {n}: {e}"));
        }

        // Traced: the same layers through their public functions.
        let mut pending = Vec::new();
        let mut outputs = Vec::new();
        for (&(k, _), reference) in batch.apps.iter().zip(&programs) {
            let w = Instant::now();
            let (program, infos) = t
                .tracer
                .op(op, "op.build", |t| traced_build(t, k.source, mode))?;
            t.traced_ms += w.elapsed().as_secs_f64() * 1e3;
            op += 1;
            t.check(
                program.module() == reference.program().module()
                    && infos.iter().all(|i| reference.info(&i.kernel) == Some(i)),
                || {
                    format!(
                        "batch {n}: traced build of {} differs from build_program",
                        k.name
                    )
                },
            );
            let chunk = infos
                .iter()
                .find(|i| i.kernel == k.entry)
                .ok_or(format!("no transform info for {}", k.entry))?
                .chunk;
            let p = prepare_launch(k, &mut rt.ctx, &program, 1, spec.dataset_seed)
                .map_err(|e| e.to_string())?;
            pending.push(PendingExec {
                kernel: p.kernel,
                chunk,
                ndrange: p.ndrange,
            });
            outputs.push(p.outputs);
        }
        let w = Instant::now();
        let (traced_events, report) = t.tracer.op(op, "op.batch", |t| {
            t.span("proxycl.enqueue_concurrent_at", |t| {
                traced_enqueue(t, &mut rt, &faults(batch), &pending, &arrivals)
            })
        })?;
        t.traced_ms += w.elapsed().as_secs_f64() * 1e3;
        op += 1;
        t.check(
            traced_events == events && os.last_report() == Some(&report),
            || format!("batch {n}: traced enqueue differs from enqueue_concurrent_at"),
        );
        if let Err(e) = check_outputs(&rt.ctx, batch, &outputs, &oracle) {
            t.mismatch(format!("batch {n} (traced): {e}"));
        }
    }
    t.ops = op;

    let (builds, _) = t.tracer.total("op.build");
    let per_build =
        |name: &str, t: &Traced| t.tracer.total(name).1 as f64 / 1e3 / builds.max(1) as f64;
    let compile = per_build("minicl.compile", &t);
    let transform = per_build("jit.transform_module", &t);
    let facts = per_build("accelcheck.from_module", &t);
    t.metric("minicl.compile_us", compile, "us");
    t.metric("jit.transform_us", transform, "us");
    t.metric("accelcheck.facts_us", facts, "us");
    t.metric("build_p50_ms", crate::quantile(&build_ms, 0.5), "ms");
    t.metric("build_p90_ms", crate::quantile(&build_ms, 0.9), "ms");
    let (_, interp_ns) = t.tracer.total("interp.run_kernel_tiered");
    let insns = t.tracer.counter("interp.insns");
    t.metric("interp.busy_ms", interp_ns as f64 / 1e6, "ms");
    t.metric(
        "interp.ns_per_insn",
        interp_ns as f64 / insns.max(1.0),
        "ns",
    );
    let (_, sim_ns) = t.tracer.total("gpu_sim.run");
    t.metric("gpu_sim.co_busy_ms", sim_ns as f64 / 1e6, "ms");
    let groups = t.tracer.counter("gpu_sim.groups");
    t.metric(
        "gpu_sim.groups_per_s",
        groups / (sim_ns as f64 / 1e9).max(1e-9),
        "1/s",
    );
    let (plans, plan_ns) = t.tracer.total("policy.plan_with_arrivals_and_faults");
    t.metric(
        "policy.plan_us",
        plan_ns as f64 / 1e3 / plans.max(1) as f64,
        "us",
    );
    for c in [
        "interp.launches",
        "interp.insns",
        "interp.tree_fallbacks",
        "interp.parallel_launches",
        "gpu_sim.co_runs",
        "gpu_sim.groups",
        "gpu_sim.faults_injected",
        "gpu_sim.groups_retried",
        "policy.plan_calls",
        "policy.reclaims",
        "policy.resumes",
        "proxycl.incarnations",
        "profile.estimates",
        "profile.hits",
        "profile.records",
    ] {
        t.count(c);
    }
    Ok(t)
}
