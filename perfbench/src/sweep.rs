//! `sweep`: the `repro` evaluation grid through `experiments::sweep`.
//!
//! Inputs: `device`, `policies` and `call <size> <workloads> <reps>
//! <seed>` records. Each call is one `experiments::sweep` over a slice of
//! the grid: the first `<workloads>` pairs for size 2, that many seeded
//! random mixes for 4 and 8. A pass makes every call on a fresh `Runner`
//! (cold isolated-time cache, as for a `repro` user); an op is one
//! `(workload, rep)` unit, and the latency samples are whole calls. Every
//! pass's `Sweep`s must equal the first pass's; the driver compares one
//! digest per request size with recorded values.
//!
//! The traced pass re-runs the grid unit by unit through `rep_context`,
//! `launches_in`, `Simulator::run` and the metric functions, with the
//! isolated-time cache mirrored here (the runner keeps its own private),
//! folds in repetition order, and checks the result equals
//! `experiments::sweep_with_stats` bit for bit.

use crate::trace::Tracer;
use crate::{field, Digest, Input, Measure, Traced};
use accel_harness::experiments::{self, Sweep, WorkloadMetrics};
use accel_harness::{PolicySet, Runner, SchedulingPolicy, SweepConfig, WorkloadRun};
use gpu_sim::{DeviceConfig, FaultPlan, KernelLaunch, LaunchPlan, SimReport, Simulator};
use parboil::KernelSpec;
use rayon::prelude::*;
use sched_metrics::IntervalSet;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::time::Instant;

struct Spec {
    device: DeviceConfig,
    set: PolicySet,
    /// `(request size, grid slice)` of every call, in call order.
    calls: Vec<(usize, SweepConfig)>,
}

pub fn device(name: &str) -> Result<DeviceConfig, String> {
    match name {
        "k20m" => Ok(DeviceConfig::k20m()),
        other => Err(format!("unknown device `{other}`")),
    }
}

fn parse(input: &Input) -> Result<Spec, String> {
    let calls = input
        .all("call")
        .into_iter()
        .map(|c| {
            let (k, n): (usize, usize) = (field(c, 0)?, field(c, 1)?);
            let mut cfg = SweepConfig {
                pairs: 0,
                n4: 0,
                n8: 0,
                reps: field(c, 2)?,
                seed: field(c, 3)?,
            };
            match k {
                2 => cfg.pairs = n,
                4 => cfg.n4 = n,
                8 => cfg.n8 = n,
                _ => return Err(format!("request sizes are 2, 4 or 8, not {k}")),
            }
            Ok((k, cfg))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if calls.is_empty() {
        return Err("no `call` records".into());
    }
    Ok(Spec {
        device: device(&input.one("device")?[0])?,
        set: PolicySet::parse(&input.one("policies")?[0])?,
        calls,
    })
}

/// Digest of every number of a sweep (`f64::to_bits`), plus policy names.
fn digest(s: &Sweep) -> Digest {
    let mut d = Digest::default();
    for n in &s.policy_names {
        d.bytes(n.as_bytes());
    }
    for w in &s.workloads {
        for v in [
            &w.unfairness,
            &w.overlap,
            &w.total_time,
            &w.stp,
            &w.antt,
            &w.worst_antt,
        ] {
            for x in v {
                d.word(x.to_bits());
            }
        }
    }
    d
}

/// `(workload, rep)` units of one request size.
fn units(cfg: &SweepConfig, k: usize) -> u64 {
    cfg.workloads(k).len() as u64 * u64::from(cfg.reps.max(1))
}

pub fn measure(input: &Input, seconds: f64) -> Result<Measure, String> {
    let spec = parse(input)?;
    let accelos = spec
        .set
        .index_of("accelos")
        .ok_or("the sweep's sim metrics are taken under `accelos`; add it to the policies")?;
    let units: Vec<u64> = spec.calls.iter().map(|(k, cfg)| units(cfg, *k)).collect();
    let mut m = Measure::default();
    let mut first: Vec<Sweep> = Vec::new();
    m.passes(
        seconds,
        3,
        || Runner::new(spec.device.clone()),
        |m, runner, pass| {
            for (i, (k, cfg)) in spec.calls.iter().enumerate() {
                let (sweep, ms) = m.timed(|| experiments::sweep(runner, &spec.set, cfg, *k));
                m.op_ms.push(ms);
                m.ops += units[i];
                if pass == 0 {
                    first.push(sweep);
                } else if sweep != first[i] {
                    m.fail(
                        units[i],
                        format!("call {i} ({k} requests) of pass {pass} differs from pass 0"),
                    );
                }
            }
        },
    );
    // Mean over the calls of each request size, then over the sizes.
    let sizes: Vec<usize> = [2, 4, 8]
        .into_iter()
        .filter(|k| spec.calls.iter().any(|c| c.0 == *k))
        .collect();
    let mean = |f: &dyn Fn(&Sweep) -> f64| {
        let per_size = |k: usize| {
            let v: Vec<f64> = first
                .iter()
                .filter(|s| s.request_size == k)
                .map(f)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        sizes.iter().map(|&k| per_size(k)).sum::<f64>() / sizes.len() as f64
    };
    m.metric("sim_antt", mean(&|s| s.avg_stp_antt(accelos).1), "ratio");
    m.metric(
        "sim_unfairness",
        mean(&|s| s.avg_unfairness()[accelos]),
        "ratio",
    );
    m.metric("sim_stp", mean(&|s| s.avg_stp_antt(accelos).0), "ratio");
    // One digest per request size, over its calls in call order.
    for k in sizes {
        let (mut d, mut n) = (Digest::default(), 0);
        for (((size, _), s), u) in spec.calls.iter().zip(&first).zip(&units) {
            if *size == k {
                d.word(digest(s).value());
                n += u;
            }
        }
        m.info.insert(format!("digest.{k}"), d.hex());
        m.info.insert(format!("units.{k}"), n.to_string());
    }
    Ok(m)
}

/// The six metrics of one `(workload, policy, rep)` run.
struct Run {
    unfairness: f64,
    overlap: f64,
    total_time: f64,
    stp: f64,
    antt: f64,
    worst_antt: f64,
}

/// Seed of repetition `rep` of a workload with base seed `seed` (the
/// derivation `experiments::sweep` uses).
fn rep_seed(seed: u64, rep: u32) -> u64 {
    seed.wrapping_add(rep as u64).wrapping_mul(0x9e37_79b9)
}

/// (policy index in the set, kernel, seed).
type SoloKey = (usize, &'static str, u64);

/// The isolated-time cache of the traced pass, keyed like the runner's
/// (policy, kernel, seed) → (time, ns its solo simulation took), plus the
/// digests of every solo launch vector simulated.
#[derive(Default)]
struct SoloCache {
    times: Mutex<HashMap<SoloKey, (u64, u64)>>,
    launches: Mutex<HashSet<u64>>,
}

fn launch_digest(launches: &[KernelLaunch]) -> u64 {
    let mut d = Digest::default();
    for l in launches {
        d.bytes(l.name.as_bytes());
        for w in [
            l.arrival,
            u64::from(l.req.threads),
            u64::from(l.req.local_mem),
            u64::from(l.req.regs_per_thread),
            l.mem_intensity.to_bits(),
            l.max_workers.map_or(u64::MAX, u64::from),
        ] {
            d.word(w);
        }
        match &l.plan {
            LaunchPlan::Hardware { wg_costs } => {
                d.word(0);
                wg_costs.iter().for_each(|&c| d.word(c));
            }
            LaunchPlan::PersistentDynamic {
                workers,
                vg_costs,
                chunk,
                per_vg_overhead,
            } => {
                d.word(1);
                for w in [u64::from(*workers), u64::from(*chunk), *per_vg_overhead] {
                    d.word(w);
                }
                vg_costs.iter().for_each(|&c| d.word(c));
            }
            LaunchPlan::PersistentGuided {
                workers,
                vg_costs,
                max_chunk,
                per_vg_overhead,
            } => {
                d.word(2);
                for w in [u64::from(*workers), u64::from(*max_chunk), *per_vg_overhead] {
                    d.word(w);
                }
                vg_costs.iter().for_each(|&c| d.word(c));
            }
            LaunchPlan::PersistentStatic {
                assignments,
                per_vg_overhead,
            } => {
                d.word(3);
                d.word(*per_vg_overhead);
                for a in assignments {
                    d.word(a.len() as u64);
                    a.iter().for_each(|&c| d.word(c));
                }
            }
        }
    }
    d.value()
}

/// What `Runner::run_in` simulates: the launches alone, no faults.
fn simulate(device: &DeviceConfig, launches: Vec<KernelLaunch>) -> SimReport {
    let mut sim = Simulator::new(device.clone());
    for l in launches {
        sim.add_launch(l);
    }
    sim.with_faults(FaultPlan::default()).run()
}

/// Work, fault and retry counters of one simulation.
pub fn sim_counters(t: &mut Tracer, report: &SimReport) {
    let groups: usize = report.kernels.iter().map(|k| k.groups_executed).sum();
    let retried: usize = report.kernels.iter().map(|k| k.groups_retried).sum();
    t.add("gpu_sim.groups", groups as f64);
    t.add("gpu_sim.groups_retried", retried as f64);
    t.add("gpu_sim.faults_injected", report.faults_injected as f64);
}

/// `Runner::isolated_time_in`, one layer at a time.
#[allow(clippy::too_many_arguments)]
fn isolated(
    t: &mut Tracer,
    runner: &Runner,
    cache: &SoloCache,
    p: usize,
    policy: &dyn SchedulingPolicy,
    spec: &'static KernelSpec,
    seed: u64,
) -> u64 {
    t.span("runner.isolated_time", |t| {
        t.add("runner.solo_lookups", 1.0);
        let key = (p, spec.name, seed);
        if let Some(&(v, _)) = cache.times.lock().expect("cache lock").get(&key) {
            return v;
        }
        // The runner re-uses the session's cost draw; drawing it again
        // here is the benchmark's cost, not the runner's.
        let ctx = t.span("bench.solo_context", |_| runner.rep_context(&[spec], seed));
        let launches = t.span("policy.launches_in", |_| {
            runner.launches_in(&ctx, policy, &[0])
        });
        t.add("policy.plan_calls", 1.0);
        let d = t.span("bench.launch_digest", |_| launch_digest(&launches));
        cache.launches.lock().expect("cache lock").insert(d);
        let report = t.span("gpu_sim.solo_run", |_| simulate(runner.device(), launches));
        let ns = t.last_ns("gpu_sim.solo_run");
        t.add("gpu_sim.solo_runs", 1.0);
        sim_counters(t, &report);
        let v = report.total_time().max(1);
        cache.times.lock().expect("cache lock").insert(key, (v, ns));
        v
    })
}

/// One call, unit by unit, under spans.
fn traced_sweep(
    runner: &Runner,
    spec: &Spec,
    (k, cfg): (usize, &SweepConfig),
    cache: &SoloCache,
    tracer: &mut Tracer,
    op_base: u64,
) -> Sweep {
    let workloads = cfg.workloads(k);
    let reps = cfg.reps.max(1);
    let units: Vec<(usize, u32)> = (0..workloads.len())
        .flat_map(|i| (0..reps).map(move |r| (i, r)))
        .collect();
    let outs: Vec<(Vec<Run>, Tracer)> = units
        .par_iter()
        .enumerate()
        .map(|(n, &(i, rep))| {
            let mut t = Tracer::new();
            let wl = &workloads[i];
            let seed = rep_seed(cfg.seed.wrapping_add(i as u64), rep);
            let runs = t.op(op_base + n as u64, "op.sweep_unit", |t| {
                let ctx = t.span("runner.rep_context", |_| runner.rep_context(wl, seed));
                let arrivals = vec![0; wl.len()];
                spec.set
                    .iter()
                    .enumerate()
                    .map(|(p, policy)| {
                        let launches = t.span("policy.launches_in", |_| {
                            runner.launches_in(&ctx, policy.as_ref(), &arrivals)
                        });
                        t.add("policy.plan_calls", 1.0);
                        let report =
                            t.span("gpu_sim.co_run", |_| simulate(runner.device(), launches));
                        t.add("gpu_sim.co_runs", 1.0);
                        sim_counters(t, &report);
                        let alone: Vec<u64> = wl
                            .iter()
                            .map(|&s| isolated(t, runner, cache, p, policy.as_ref(), s, seed))
                            .collect();
                        let run = t.span("runner.finish_run", |_| WorkloadRun {
                            names: wl.iter().map(|s| s.name).collect(),
                            shared: report
                                .kernels
                                .iter()
                                .map(|k| k.turnaround().max(1))
                                .collect(),
                            alone,
                            busy: report
                                .kernels
                                .iter()
                                .map(|k| IntervalSet::from_raw(k.busy_intervals.clone()))
                                .collect(),
                            total_time: report.total_time().max(1),
                        });
                        t.span("sched_metrics.run_metrics", |_| Run {
                            unfairness: run.unfairness(),
                            overlap: run.overlap(),
                            total_time: run.total_time as f64,
                            stp: run.stp(),
                            antt: run.antt(),
                            worst_antt: run.worst_antt(),
                        })
                    })
                    .collect::<Vec<_>>()
            });
            (runs, t)
        })
        .collect();
    let mut per_unit = Vec::with_capacity(outs.len());
    for (runs, t) in outs {
        tracer.absorb(t);
        per_unit.push(runs);
    }
    // Fold in repetition order (units are ordered by workload, then rep),
    // then average: the float-addition order of the streaming fold.
    let n_pol = spec.set.len();
    let metrics = tracer.span("fold.fold_units", |_| {
        let mut acc: Vec<WorkloadMetrics> = (0..workloads.len())
            .map(|_| WorkloadMetrics {
                unfairness: vec![0.0; n_pol],
                overlap: vec![0.0; n_pol],
                total_time: vec![0.0; n_pol],
                stp: vec![0.0; n_pol],
                antt: vec![0.0; n_pol],
                worst_antt: vec![0.0; n_pol],
            })
            .collect();
        for (&(i, _), runs) in units.iter().zip(&per_unit) {
            let a = &mut acc[i];
            for (p, r) in runs.iter().enumerate() {
                a.unfairness[p] += r.unfairness;
                a.overlap[p] += r.overlap;
                a.total_time[p] += r.total_time;
                a.stp[p] += r.stp;
                a.antt[p] += r.antt;
                a.worst_antt[p] += r.worst_antt;
            }
        }
        let n = f64::from(reps);
        for a in &mut acc {
            for p in 0..n_pol {
                a.unfairness[p] /= n;
                a.overlap[p] /= n;
                a.total_time[p] /= n;
                a.stp[p] /= n;
                a.antt[p] /= n;
                a.worst_antt[p] /= n;
            }
        }
        acc
    });
    Sweep {
        request_size: k,
        device: runner.device().name.clone(),
        policy_names: spec.set.names(),
        policy_labels: spec.set.labels(),
        workloads: metrics,
    }
}

pub fn trace(input: &Input) -> Result<Traced, String> {
    let spec = parse(input)?;
    let mut t = Traced::new(Tracer::new());

    // Untraced reference through the entry point, on its own runner.
    let reference_runner = Runner::new(spec.device.clone());
    let w = Instant::now();
    let reference: Vec<_> = spec
        .calls
        .iter()
        .map(|(k, cfg)| experiments::sweep_with_stats(&reference_runner, &spec.set, cfg, *k))
        .collect();
    t.untraced_ms = w.elapsed().as_secs_f64() * 1e3;

    // Traced pass on a fresh runner, so its cache starts cold too.
    let runner = Runner::new(spec.device.clone());
    let cache = SoloCache::default();
    let w = Instant::now();
    let mut op_base = 0;
    for (i, ((k, cfg), (expected, _))) in spec.calls.iter().zip(&reference).enumerate() {
        let got = traced_sweep(&runner, &spec, (*k, cfg), &cache, &mut t.tracer, op_base);
        t.check(&got == expected, || {
            format!("traced call {i} ({k} requests) differs from experiments::sweep_with_stats")
        });
        op_base += units(cfg, *k);
    }
    t.traced_ms = w.elapsed().as_secs_f64() * 1e3;
    t.ops = op_base;

    // Probe the reference runner's private cache from outside: a cached
    // key returns in a small fraction of the time its solo simulation
    // took; a missing one re-simulates. The probe also cross-checks the
    // mirrored isolated times.
    let times = std::mem::take(&mut *cache.times.lock().expect("cache lock"));
    let mut entries = 0;
    for (&(p, name, seed), &(v, solo_ns)) in &times {
        let kspec = KernelSpec::by_name(name).expect("kernel from the grid");
        let policy = spec.set.get(p);
        let w = Instant::now();
        let got = reference_runner.isolated_time(policy.as_ref(), kspec, seed);
        let ns = w.elapsed().as_nanos() as u64;
        t.check(got == v, || {
            format!("isolated time of {name} (seed {seed}) differs from the runner's")
        });
        if ns * 4 < solo_ns {
            entries += 1;
        }
    }

    let co = t.tracer.total("gpu_sim.co_run");
    let solo = t.tracer.total("gpu_sim.solo_run");
    let busy_s = (co.1 + solo.1) as f64 / 1e9;
    let groups = t.tracer.counter("gpu_sim.groups");
    t.metric("gpu_sim.co_busy_ms", co.1 as f64 / 1e6, "ms");
    t.metric("gpu_sim.solo_busy_ms", solo.1 as f64 / 1e6, "ms");
    t.metric("gpu_sim.groups_per_s", groups / busy_s.max(1e-9), "1/s");
    let rep = t.tracer.total("runner.rep_context");
    t.metric("runner.rep_context_ms", rep.1 as f64 / 1e6, "ms");
    t.metric("runner.solo_sims", times.len() as f64, "count");
    let distinct = cache.launches.lock().expect("cache lock").len();
    t.metric("runner.solo_launches_distinct", distinct as f64, "count");
    t.metric("runner.cache_entries", entries as f64, "count");
    let plans = t.tracer.total("policy.launches_in");
    t.metric(
        "policy.plan_us",
        plans.1 as f64 / 1e3 / plans.0.max(1) as f64,
        "us",
    );
    let units: usize = reference.iter().map(|(_, s)| s.units).sum();
    let peak = reference.iter().map(|(_, s)| s.peak_buffered).max();
    t.metric("fold.units", units as f64, "count");
    t.metric("fold.peak_buffered", peak.unwrap_or(0) as f64, "count");
    let runs = t.tracer.total("sched_metrics.run_metrics");
    t.metric(
        "sched_metrics.us_per_run",
        runs.1 as f64 / 1e3 / runs.0.max(1) as f64,
        "us",
    );
    for c in [
        "gpu_sim.co_runs",
        "gpu_sim.solo_runs",
        "gpu_sim.groups",
        "gpu_sim.faults_injected",
        "gpu_sim.groups_retried",
        "runner.solo_lookups",
        "policy.plan_calls",
    ] {
        t.count(c);
    }
    Ok(t)
}
