//! `repro` — regenerate any table or figure of the accelOS evaluation.
//!
//! ```text
//! repro <experiment>... [--device k20m|r9|both] [--full]
//!       [--policies name,name,...] [--reference name]
//!       [--pairs N] [--n4 N] [--n8 N] [--reps N] [--seed N]
//!       [--jobs N] [--sequential] [--profile-store FILE]
//!       [--shard i/n [--out FILE]]
//! repro merge --inputs FILE,FILE,... [<sweep figures>...] [--reference name]
//! repro lint [--deny-warnings]
//! repro disasm <kernel>
//!
//! experiments: fig2 fig9 fig10 fig11 fig12 fig13 fig14 table1 table2
//!              fig15 small ablation dynamic priority deadline faults
//!              chaos all
//!
//! `chaos` runs the chaos soak sweep (independent × correlated × abort
//! fault mixes with the fault-plane invariants asserted at every cell);
//! `--smoke` sweeps the CI-sized grid instead of the full one.
//! ```
//!
//! `lint` runs the accelcheck static analyses (race verdicts, barrier
//! divergence, structural lints) over the bundled Parboil kernels and
//! prints the report; `--deny-warnings` exits nonzero on any warning or
//! error, which is how CI gates the kernel set.
//!
//! `disasm` lowers one bundled Parboil kernel to the bytecode tier at its
//! bundled launch shape (scale 1, seed 7) and prints both the raw
//! lowering and the launch-optimized program — the form that
//! `tests/golden/bytecode_spmv.txt` pins for spmv.
//!
//! Defaults use [`SweepConfig::default_scale`]; `--full` switches to the
//! paper-sized sweep (625 pairs, 16384 4-kernel and 32768 8-kernel
//! workloads, 20 repetitions — hours of CPU time, so consider `--jobs`).
//!
//! `--policies` sweeps any comma-separated [`PolicySet`] (built-ins:
//! `baseline`, `ek`, `accelos-naive`, `accelos`, `accelos-guided`,
//! `accelos-weighted[:w1:w2:...]`, `accelos-priority[:n]`) through the
//! sweep figures and the dynamic-tenancy / priority experiments. Ratio
//! figures (fig10/fig13/fig14, dynamic, priority) divide by the *first*
//! listed policy unless `--reference <name>` names another member of the
//! set; the reference row/column always renders explicitly (marked `*`).
//! Defaults to the paper's four schemes.
//!
//! `priority` replays the mixed-priority arrival scenario (two batch
//! tenants at t=0, a premium tenant joining mid-run) through the
//! cohort-planned preemptive path; without `--policies` it compares
//! `accelos` (the premium request queues) against `accelos-priority`
//! (batch workers are reclaimed at chunk boundaries).
//!
//! `deadline` scores the same episode against a deadline of 2x the
//! premium tenant's isolated time and reports each policy's hold rate
//! over several cost-draw seeds; without `--policies` it compares
//! `accelos` (misses), `accelos-priority` (holds by flooring every
//! victim) and `accelos-deadline` (holds while reclaiming just enough).
//!
//! `faults` re-runs the same episode under increasingly faulty machines
//! (seeded, repairable CU failures plus straggler windows, identical
//! across policies) and reports each policy's throughput-degradation
//! curve, recovery latency and the exactly-once retry witness — every
//! in-flight group a failure rolls back must re-execute exactly once.
//!
//! Sweeps shard their `(workload × repetition)` grid across a thread pool
//! sized to the host (override with `--jobs N`; `--sequential` is
//! shorthand for `--jobs 1`). Thread count never changes the numbers:
//! per-repetition seeds derive from `(workload, rep)`, not from iteration
//! order, and results stream into per-workload accumulators in
//! deterministic repetition order.
//!
//! `--profile-store FILE` persists the calibration plane across runs:
//! the file (missing = fresh store, malformed = hard error) seeds the
//! runner's [`ProfileStore`] before any experiment, and everything
//! learned — each declared estimate index's isolated time, keyed by
//! `(kernel, shape-class)` — is saved back afterwards. A warmed store
//! lets estimate-driven policies (`accelos-deadline`) read calibrated
//! isolated times instead of re-simulating solo runs, and lets the
//! arrival planner prune drained victims. With `--device both` each
//! device reads and writes its own `FILE.<device>` file, because
//! isolated times are device-specific.
//!
//! For paper-scale runs, `--shard i/n` partitions the workload grids
//! across **independent processes**: each shard computes every `n`th
//! workload and writes its metrics (bit-exact float encoding) to a shard
//! file; `repro merge --inputs f0,f1,…` reassembles them and renders the
//! sweep figures byte-identically to an unsharded run with the same
//! flags. See `accel_harness::shard` for the dataflow.

use accel_harness::chaos::{chaos_soak, render_chaos, ChaosGrid};
use accel_harness::experiments::{
    chunk_ablation, deadline_hold_rates, deadline_scenario, device_sweeps, dynamic_tenancy,
    fault_scenario, fig11, fig15, fig2, priority_preemption, render_ablation, render_deadline,
    render_dynamic_tenancy, render_fault_scenario, render_fig11, render_fig15,
    render_priority_preemption, render_small_kernels, small_kernels, DeviceSweeps,
};
use accel_harness::runner::Runner;
use accel_harness::shard::{self, ShardSpec};
use accel_harness::workloads::SweepConfig;
use accelos::policy::PolicySet;
use gpu_sim::DeviceConfig;
use sched_metrics::profile::ProfileStore;

struct Options {
    experiments: Vec<String>,
    devices: Vec<DeviceConfig>,
    policies: PolicySet,
    policies_given: bool,
    /// Name of the ratio-figure reference policy, if given. Resolved
    /// against the set each experiment actually sweeps (`priority`
    /// defaults to `accelos,accelos-priority` when `--policies` is
    /// absent, so a global index would validate against the wrong set).
    reference: Option<String>,
    cfg: SweepConfig,
    /// `--shard i/n`: compute only this stripe of the sweep grids and
    /// write it to `out` instead of rendering figures.
    shard: Option<ShardSpec>,
    /// `--out <path>` for the shard file (defaults to
    /// `shard-<i>-of-<n>.accelshard`).
    out: Option<String>,
    /// `merge --inputs a,b,...`: shard files to reassemble.
    inputs: Vec<String>,
    /// `lint --deny-warnings`: exit nonzero on any warning or error.
    deny_warnings: bool,
    /// `chaos --smoke`: sweep the CI-sized fault grid instead of the
    /// full one.
    smoke: bool,
    /// `--profile-store <path>`: calibration-plane persistence. The file
    /// is loaded (if present) into the device's [`Runner`] before any
    /// experiment runs and saved back — with everything learned this
    /// session — afterwards. With `--device both`, each device gets its
    /// own file (`<path>.<device>`), since isolated times are
    /// device-specific.
    profile_store: Option<String>,
}

/// Position of `--reference` in the set `experiment` sweeps (0 when the
/// flag was not given); exits with a usage error for names outside it.
fn reference_index(set: &PolicySet, reference: Option<&str>) -> usize {
    match reference {
        None => 0,
        Some(name) => set.index_of(name).unwrap_or_else(|| {
            eprintln!(
                "repro: --reference `{name}` is not in the swept set ({})",
                set.names().join(",")
            );
            std::process::exit(2);
        }),
    }
}

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiments = Vec::new();
    let mut device = "k20m".to_string();
    let mut policies = PolicySet::paper();
    let mut policies_given = false;
    let mut reference: Option<String> = None;
    let mut cfg = SweepConfig::default_scale();
    let mut shard: Option<ShardSpec> = None;
    let mut out: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut deny_warnings = false;
    let mut smoke = false;
    let mut profile_store: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<usize, String> {
            *i += 1;
            args.get(*i)
                .ok_or_else(|| format!("missing value after {}", args[*i - 1]))?
                .parse::<usize>()
                .map_err(|e| format!("bad number after {}: {e}", args[*i - 1]))
        };
        match args[i].as_str() {
            "--device" => {
                i += 1;
                device = args.get(i).ok_or("missing value after --device")?.clone();
            }
            "--policies" => {
                i += 1;
                let spec = args.get(i).ok_or("missing value after --policies")?;
                policies = PolicySet::parse(spec)?;
                policies_given = true;
            }
            "--reference" => {
                i += 1;
                reference = Some(
                    args.get(i)
                        .ok_or("missing value after --reference")?
                        .clone(),
                );
            }
            "--shard" => {
                i += 1;
                let spec = args.get(i).ok_or("missing value after --shard")?;
                shard = Some(ShardSpec::parse(spec)?);
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).ok_or("missing value after --out")?.clone());
            }
            "--inputs" => {
                i += 1;
                let list = args.get(i).ok_or("missing value after --inputs")?;
                inputs.extend(list.split(',').map(str::to_string));
            }
            "--deny-warnings" => deny_warnings = true,
            "--smoke" => smoke = true,
            "--profile-store" => {
                i += 1;
                profile_store = Some(
                    args.get(i)
                        .ok_or("missing value after --profile-store")?
                        .clone(),
                );
            }
            "--full" => cfg = SweepConfig::full(),
            "--pairs" => cfg.pairs = take(&mut i)?,
            "--n4" => cfg.n4 = take(&mut i)?,
            "--n8" => cfg.n8 = take(&mut i)?,
            "--reps" => cfg.reps = take(&mut i)? as u32,
            "--seed" => cfg.seed = take(&mut i)? as u64,
            "--jobs" => {
                let n = take(&mut i)?.max(1);
                std::env::set_var("RAYON_NUM_THREADS", n.to_string());
            }
            "--sequential" => std::env::set_var("RAYON_NUM_THREADS", "1"),
            exp if !exp.starts_with('-') => experiments.push(exp.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    let devices = match device.as_str() {
        "k20m" | "nvidia" => vec![DeviceConfig::k20m()],
        "r9" | "amd" => vec![DeviceConfig::r9_295x2()],
        "both" => vec![DeviceConfig::k20m(), DeviceConfig::r9_295x2()],
        other => return Err(format!("unknown device `{other}` (k20m | r9 | both)")),
    };
    if shard.is_some() && experiments.iter().any(|e| e == "merge") {
        return Err("--shard and merge are different phases; run them separately".into());
    }
    if out.is_some() && shard.is_none() {
        return Err("--out names the shard file and needs --shard i/n".into());
    }
    Ok(Options {
        experiments,
        devices,
        policies,
        policies_given,
        reference,
        cfg,
        shard,
        out,
        inputs,
        deny_warnings,
        smoke,
        profile_store,
    })
}

fn wants(experiments: &[String], name: &str) -> bool {
    experiments.iter().any(|e| e == name || e == "all")
}

fn entries_noun(n: usize) -> &'static str {
    if n == 1 {
        "entry"
    } else {
        "entries"
    }
}

/// The set the `priority` experiment sweeps: `--policies` when given,
/// otherwise the natural queueing-vs-preemption comparison.
fn priority_set(opts: &Options) -> PolicySet {
    if opts.policies_given {
        opts.policies.clone()
    } else {
        PolicySet::parse("accelos,accelos-priority").expect("builtin names")
    }
}

/// The set the `deadline` experiment sweeps: `--policies` when given,
/// otherwise queueing vs all-or-floor preemption vs just-enough
/// reclamation.
fn deadline_set(opts: &Options) -> PolicySet {
    if opts.policies_given {
        opts.policies.clone()
    } else {
        PolicySet::parse("accelos,accelos-priority,accelos-deadline").expect("builtin names")
    }
}

/// The set the `faults` experiment sweeps: `--policies` when given,
/// otherwise the queueing-vs-preemption comparison (the interesting
/// question is whether preemptive replanning survives capacity loss).
fn faults_set(opts: &Options) -> PolicySet {
    if opts.policies_given {
        opts.policies.clone()
    } else {
        PolicySet::parse("accelos,accelos-priority").expect("builtin names")
    }
}

/// The set the `chaos` experiment sweeps: `--policies` when given,
/// otherwise equal shares plus both premium-exempting policies, so the
/// correlated-loss coherence rule (premium scales too once ≥25% of the
/// fleet vanishes at once) is exercised by default.
fn chaos_set(opts: &Options) -> PolicySet {
    if opts.policies_given {
        opts.policies.clone()
    } else {
        PolicySet::parse("accelos,accelos-priority,accelos-sla").expect("builtin names")
    }
}

/// Fail fast on a bad `--reference` before any sweeping starts: validate
/// the name against the set of **every** requested ratio experiment, so a
/// later experiment cannot abort the run after minutes of compute.
fn validate_reference(opts: &Options) {
    let Some(name) = opts.reference.as_deref() else {
        return;
    };
    let exps = &opts.experiments;
    if needs_sweep(exps) || wants(exps, "dynamic") {
        reference_index(&opts.policies, Some(name));
    }
    if wants(exps, "priority") {
        reference_index(&priority_set(opts), Some(name));
    }
}

/// The sweep-projection experiment names. One shared list — the
/// unsharded path, `--shard` and `merge` all derive from it, so the
/// byte-identity contract between `merge` and an unsharded run cannot
/// be broken by updating one copy and not another.
const SWEEP_FIGS: [&str; 7] = [
    "fig9", "fig10", "fig12", "fig13", "fig14", "table1", "table2",
];

fn needs_sweep(experiments: &[String]) -> bool {
    SWEEP_FIGS.iter().any(|e| wants(experiments, e))
}

/// Render the requested sweep views of one device — the single code
/// path behind both the unsharded figures and `merge`'s reassembled
/// ones (CI diffs the two stdouts byte-for-byte).
fn render_sweep_views(ds: &DeviceSweeps, exps: &[String]) {
    if wants(exps, "fig9") {
        println!("{}", ds.fig9());
    }
    if wants(exps, "fig10") {
        println!("{}", ds.fig10());
    }
    if wants(exps, "fig12") {
        println!("{}", ds.fig12());
    }
    if wants(exps, "fig13") {
        println!("{}", ds.fig13());
    }
    if wants(exps, "fig14") {
        println!("{}", ds.fig14());
    }
    if wants(exps, "table1") || wants(exps, "table2") {
        println!("{}", ds.table_stp_antt());
    }
}

/// Position of `--reference` among the policy `names` recorded in shard
/// files (merge has no [`PolicySet`] to resolve against).
fn reference_index_names(names: &[String], reference: Option<&str>) -> usize {
    match reference {
        None => 0,
        Some(name) => names.iter().position(|n| n == name).unwrap_or_else(|| {
            eprintln!(
                "repro: --reference `{name}` is not in the sharded set ({})",
                names.join(",")
            );
            std::process::exit(2);
        }),
    }
}

/// `--shard i/n`: compute this process's stripe of the three sweep grids
/// for every requested device and write the shard file. No figures are
/// rendered — reassembling and rendering is `merge`'s job, so stdout
/// stays empty and the run composes with shell parallelism.
fn run_shard(opts: &Options, spec: ShardSpec) {
    // A shard always computes the three sweep grids and nothing else;
    // say so when the command line names experiments the shard file
    // cannot carry, instead of silently dropping them.
    let ignored: Vec<&str> = opts
        .experiments
        .iter()
        .map(String::as_str)
        .filter(|e| *e != "all" && !SWEEP_FIGS.contains(e))
        .collect();
    if !ignored.is_empty() {
        eprintln!(
            "repro: note: --shard computes only the sweep grids; ignoring {}",
            ignored.join(", ")
        );
    }
    let devices: Vec<shard::DeviceShard> = opts
        .devices
        .iter()
        .map(|device| {
            let runner = Runner::new(device.clone());
            eprintln!(
                "[shard {}/{}: sweeping every {}th workload of {} pairs, {} x4, {} x8, \
                 {} reps, policies {} on {}…]",
                spec.index,
                spec.count,
                spec.count,
                opts.cfg.pairs,
                opts.cfg.n4,
                opts.cfg.n8,
                opts.cfg.reps,
                opts.policies.names().join(","),
                device.name
            );
            shard::compute_shard(&runner, &opts.policies, &opts.cfg, spec)
        })
        .collect();
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("shard-{}-of-{}.accelshard", spec.index, spec.count));
    let text = shard::render_shard_file(spec, &opts.cfg, &devices);
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("repro: cannot write shard file `{path}`: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "[shard {}/{} written to {path}; reassemble with `repro merge --inputs …`]",
        spec.index, spec.count
    );
}

/// `merge --inputs f0,f1,…`: reassemble shard files into full sweeps and
/// render the requested sweep figures byte-identically to an unsharded
/// run with the same flags.
fn run_merge(opts: &Options) {
    if opts.inputs.is_empty() {
        eprintln!("repro: merge needs `--inputs shard0,shard1,…`");
        std::process::exit(2);
    }
    let files: Vec<shard::ShardFile> = opts
        .inputs
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("repro: cannot read shard file `{path}`: {e}");
                std::process::exit(1);
            });
            shard::parse_shard_file(&text).unwrap_or_else(|e| {
                eprintln!("repro: `{path}` is not a valid shard file: {e}");
                std::process::exit(1);
            })
        })
        .collect();
    let merged = shard::merge_shards(&files).unwrap_or_else(|e| {
        eprintln!("repro: cannot merge shards: {e}");
        std::process::exit(1);
    });
    // Figure selection: the requested experiments, or every sweep view
    // when the command line is a plain `repro merge --inputs …`. A list
    // that names only non-sweep experiments stays as given — it renders
    // nothing beyond the device headers (with a note), never the full
    // figure dump the caller did not ask for.
    let only_merge = opts.experiments.iter().all(|e| e == "merge");
    let exps: Vec<String> = if only_merge {
        vec!["all".to_string()]
    } else {
        opts.experiments.clone()
    };
    let ignored: Vec<&str> = opts
        .experiments
        .iter()
        .map(String::as_str)
        .filter(|e| *e != "merge" && *e != "all" && !SWEEP_FIGS.contains(e))
        .collect();
    if !ignored.is_empty() {
        eprintln!(
            "repro: note: merge renders only the sweep views; ignoring {}",
            ignored.join(", ")
        );
    }
    // Fail a bad --reference before any stdout, like the unsharded
    // path's up-front validate_reference.
    for (_, sizes) in &merged {
        let _ = reference_index_names(&sizes[0].policy_names, opts.reference.as_deref());
    }
    for (device, sizes) in merged {
        println!("=== {device} ===\n");
        let reference = reference_index_names(&sizes[0].policy_names, opts.reference.as_deref());
        let ds = DeviceSweeps { sizes, reference };
        render_sweep_views(&ds, &exps);
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("repro: {e}");
            eprintln!(
                "usage: repro <fig2|fig9|fig10|fig11|fig12|fig13|fig14|table1|table2|fig15|small|ablation|dynamic|priority|deadline|faults|chaos|all>... \
                 [--device k20m|r9|both] [--policies name,name,...] [--reference name] [--full] \
                 [--pairs N] [--n4 N] [--n8 N] [--reps N] [--seed N] \
                 [--jobs N] [--sequential] [--profile-store FILE] \
                 [--shard i/n [--out FILE]]\n\
                 usage: repro merge --inputs FILE,FILE,... [<sweep figures>...] [--reference name]\n\
                 usage: repro lint [--deny-warnings]\n\
                 usage: repro disasm <kernel>"
            );
            eprintln!(
                "  --reference <name>  divide ratio figures (fig10/fig13/fig14, dynamic, priority) \
                 by this policy of the set instead of the first; the reference row renders \
                 explicitly, marked `*`"
            );
            eprintln!(
                "  --shard i/n         compute only every nth workload of the sweep grids and \
                 write a shard file (--out, default shard-i-of-n.accelshard) instead of figures; \
                 `merge` reassembles shard files bit-identically to an unsharded run"
            );
            eprintln!(
                "  --profile-store FILE  load (if present) and save back the calibration-plane \
                 profile store; estimate-driven policies read isolated times from it instead of \
                 re-simulating solo runs (with --device both: one FILE.<device> per device)"
            );
            std::process::exit(2);
        }
    };
    if let Some(pos) = opts.experiments.iter().position(|e| e == "disasm") {
        // `disasm` is its own phase: the word after it names the kernel.
        let Some(kernel) = opts.experiments.get(pos + 1) else {
            eprintln!(
                "repro disasm: name a bundled kernel (e.g. `repro disasm spmv`); \
                 see `repro lint` for the kernel list"
            );
            std::process::exit(2);
        };
        match accel_harness::disasm::disassemble_parboil(kernel) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("repro disasm: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if opts.experiments.iter().any(|e| e == "lint") {
        // `lint` is its own phase, like `merge`: sweep the bundled Parboil
        // kernels through accelcheck and print the report. With
        // `--deny-warnings`, any warning or error fails the run (the CI
        // gate).
        let summary = accel_harness::lintreport::lint_parboil();
        print!("{}", summary.report);
        if opts.deny_warnings && summary.deny_warnings_fails() {
            eprintln!(
                "repro lint: {} error(s) and {} warning(s) with --deny-warnings",
                summary.errors, summary.warnings
            );
            std::process::exit(1);
        }
        return;
    }
    if opts.experiments.iter().any(|e| e == "merge") {
        run_merge(&opts);
        return;
    }
    if let Some(spec) = opts.shard {
        run_shard(&opts, spec);
        return;
    }
    let exps = &opts.experiments;
    validate_reference(&opts);

    // The sweep figures and `dynamic` honour --policies; the remaining
    // experiments reproduce fixed paper comparisons. Say so rather than
    // silently rendering baseline/EK/accelOS columns under a custom set.
    if opts.policies_given {
        let fixed: Vec<&str> = ["fig2", "fig11", "fig15", "small", "ablation"]
            .into_iter()
            .filter(|e| wants(exps, e))
            .collect();
        if !fixed.is_empty() {
            eprintln!(
                "repro: note: {} use the paper's fixed policies and ignore --policies \
                 (it applies to fig9/fig10/fig12/fig13/fig14/table1/table2/dynamic)",
                fixed.join(", ")
            );
        }
    }

    for device in &opts.devices {
        let runner = Runner::new(device.clone());
        let store_path = opts.profile_store.as_ref().map(|path| {
            // Isolated times are device-specific, so a multi-device run
            // keeps one file per device rather than mixing calibrations.
            if opts.devices.len() == 1 {
                path.clone()
            } else {
                format!("{path}.{}", device.name)
            }
        });
        if let Some(path) = &store_path {
            // A missing file is a fresh store (first session); a present
            // but malformed one is a hard error — silently discarding a
            // corrupt calibration would change plans without a trace.
            match ProfileStore::load(path) {
                Ok(store) => {
                    eprintln!(
                        "[profile store: {} {} from {path}]",
                        store.len(),
                        entries_noun(store.len())
                    );
                    runner.set_profile_store(store);
                }
                Err(_) if !std::path::Path::new(path).exists() => {
                    eprintln!("[profile store: {path} not found, starting fresh]");
                    runner.set_profile_store(ProfileStore::new());
                }
                Err(e) => {
                    eprintln!("repro: {e}");
                    std::process::exit(1);
                }
            }
        }
        println!("=== {} ===\n", device.name);

        if wants(exps, "fig2") {
            println!("{}", fig2(&runner, opts.cfg.seed));
        }

        let sweeps: Option<DeviceSweeps> = if needs_sweep(exps) {
            eprintln!(
                "[sweeping {} pairs, {} x4, {} x8, {} reps, policies {}…]",
                opts.cfg.pairs,
                opts.cfg.n4,
                opts.cfg.n8,
                opts.cfg.reps,
                opts.policies.names().join(",")
            );
            Some(device_sweeps(
                &runner,
                &opts.policies,
                &opts.cfg,
                reference_index(&opts.policies, opts.reference.as_deref()),
            ))
        } else {
            None
        };
        if let Some(ds) = &sweeps {
            render_sweep_views(ds, exps);
        }

        if wants(exps, "fig11") {
            println!(
                "{}",
                render_fig11(&fig11(&runner, opts.cfg.seed), &device.name)
            );
        }
        if wants(exps, "fig15") {
            println!(
                "{}",
                render_fig15(&fig15(&runner, opts.cfg.seed), &device.name)
            );
        }
        if wants(exps, "small") {
            println!(
                "{}",
                render_small_kernels(&small_kernels(device, opts.cfg.seed), &device.name)
            );
        }
        if wants(exps, "ablation") {
            println!(
                "{}",
                render_ablation(&chunk_ablation(device, opts.cfg.seed), &device.name)
            );
        }
        if wants(exps, "dynamic") {
            println!(
                "{}",
                render_dynamic_tenancy(
                    &dynamic_tenancy(&runner, &opts.policies, opts.cfg.seed),
                    reference_index(&opts.policies, opts.reference.as_deref()),
                    &device.name
                )
            );
        }
        if wants(exps, "deadline") {
            let set = deadline_set(&opts);
            // Hold rates over 8 cost-draw seeds starting at the
            // configured one; the rendered episode doubles as the first
            // sample so the base seed is simulated only once.
            let scenario = deadline_scenario(&runner, &set, opts.cfg.seed);
            let extra: Vec<u64> = (1..8).map(|i| opts.cfg.seed.wrapping_add(i)).collect();
            let rates: Vec<(String, f64)> = deadline_hold_rates(&runner, &set, &extra)
                .into_iter()
                .zip(&scenario.rows)
                .map(|((label, rate), row)| {
                    let held = rate * extra.len() as f64 + if row.met { 1.0 } else { 0.0 };
                    (label, held / (extra.len() + 1) as f64)
                })
                .collect();
            println!("{}", render_deadline(&scenario, &rates, &device.name));
        }
        if wants(exps, "faults") {
            let set = faults_set(&opts);
            println!(
                "{}",
                render_fault_scenario(&fault_scenario(&runner, &set, opts.cfg.seed), &device.name)
            );
        }
        if wants(exps, "chaos") {
            let set = chaos_set(&opts);
            let grid = if opts.smoke {
                ChaosGrid::smoke()
            } else {
                ChaosGrid::full()
            };
            println!(
                "{}",
                render_chaos(
                    &chaos_soak(&runner, &set, &grid, opts.cfg.seed),
                    &device.name
                )
            );
        }
        if wants(exps, "priority") {
            // Without --policies, the natural comparison is queueing
            // accelOS against the preemptive policy (the paper set has no
            // preemption to show). --reference resolves against whichever
            // set the experiment actually sweeps.
            let set = priority_set(&opts);
            println!(
                "{}",
                render_priority_preemption(
                    &priority_preemption(&runner, &set, opts.cfg.seed),
                    reference_index(&set, opts.reference.as_deref()),
                    &device.name
                )
            );
        }
        if let Some(path) = &store_path {
            let store = runner
                .take_profile_store()
                .expect("store attached above and nothing detaches it");
            if let Err(e) = store.save(path) {
                eprintln!("repro: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "[profile store: {} {} saved to {path}]",
                store.len(),
                entries_noun(store.len())
            );
        }
    }
}
