//! Per-experiment drivers: one function per table/figure of the paper's
//! evaluation (§8), each returning a renderable result.
//!
//! The heavy lifting is one [`sweep`] per (device, request-size): every
//! workload runs under every policy of a [`PolicySet`] and its metrics are
//! recorded; the figures are different projections of the same sweep,
//! exactly as in the paper. The paper's figures use
//! [`PolicySet::paper`]; any other set (weighted shares, guided dequeues,
//! custom policies) sweeps through the same code — `repro --policies`
//! exposes that from the command line.
//!
//! Ratio metrics (fairness improvement, throughput speedup) are relative
//! to a **reference** policy — by default the first of the set
//! (`repro --reference <name>` picks another; the reference row renders
//! explicitly as 1.00x so mixed sweeps stay readable).

use crate::runner::{Runner, WorkloadRun};
use crate::workloads::{alphabetic_pairs, SweepConfig, Workload};
use accelos::episode::Episode;
use accelos::policy::PolicySet;
use gpu_sim::{DeviceConfig, FaultPlan, FaultSpec, KernelLaunch, LaunchPlan};
use parboil::KernelSpec;
use rayon::prelude::*;
use std::fmt;

/// Geometric mean of a non-empty slice.
fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Metrics of one workload under every policy of the swept set (averaged
/// over repetitions). Each vector is indexed by the policy's position in
/// the [`PolicySet`].
///
/// `PartialEq` is exact (bit-level) — the parallel sweep is required to
/// reproduce the sequential sweep's numbers identically, and the
/// determinism tests assert it through this impl.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMetrics {
    /// Unfairness per policy, in set order.
    pub unfairness: Vec<f64>,
    /// Execution overlap per policy.
    pub overlap: Vec<f64>,
    /// Total workload time per policy.
    pub total_time: Vec<f64>,
    /// STP per policy.
    pub stp: Vec<f64>,
    /// ANTT per policy.
    pub antt: Vec<f64>,
    /// Worst-case ANTT per policy.
    pub worst_antt: Vec<f64>,
}

impl WorkloadMetrics {
    /// Fairness improvement of policy `index` over the set's default
    /// reference (index 0).
    pub fn fairness_improvement(&self, index: usize) -> f64 {
        self.fairness_improvement_over(0, index)
    }

    /// Fairness improvement of policy `index` over policy `reference`.
    pub fn fairness_improvement_over(&self, reference: usize, index: usize) -> f64 {
        sched_metrics::fairness_improvement(self.unfairness[reference], self.unfairness[index])
    }

    /// Throughput speedup of policy `index` over the set's default
    /// reference (index 0).
    pub fn throughput_speedup(&self, index: usize) -> f64 {
        self.throughput_speedup_over(0, index)
    }

    /// Throughput speedup of policy `index` over policy `reference`.
    pub fn throughput_speedup_over(&self, reference: usize, index: usize) -> f64 {
        self.total_time[reference] / self.total_time[index]
    }
}

/// One full sweep: per-workload metrics for one device, request size and
/// policy set.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Request size (2, 4 or 8).
    pub request_size: usize,
    /// Device name.
    pub device: String,
    /// Names of the swept policies, in set order.
    pub policy_names: Vec<String>,
    /// Figure labels of the swept policies, in set order.
    pub policy_labels: Vec<String>,
    /// Per-workload metrics.
    pub workloads: Vec<WorkloadMetrics>,
}

impl Sweep {
    /// Number of swept policies.
    pub fn policy_count(&self) -> usize {
        self.policy_names.len()
    }

    /// Position of the policy named `name` in this sweep.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.policy_names.iter().position(|n| n == name)
    }

    /// Mean of `f` across all workloads (the scalar behind every `avg_*`
    /// view).
    pub fn avg_of(&self, f: impl Fn(&WorkloadMetrics) -> f64) -> f64 {
        assert!(!self.workloads.is_empty());
        self.workloads.iter().map(f).sum::<f64>() / self.workloads.len() as f64
    }

    /// Average unfairness per policy, in set order.
    pub fn avg_unfairness(&self) -> Vec<f64> {
        (0..self.policy_count())
            .map(|i| self.avg_of(|w| w.unfairness[i]))
            .collect()
    }

    /// Average overlap per policy, in set order.
    pub fn avg_overlap(&self) -> Vec<f64> {
        (0..self.policy_count())
            .map(|i| self.avg_of(|w| w.overlap[i]))
            .collect()
    }

    /// Average fairness improvement of policy `index` over the default
    /// reference (index 0).
    pub fn avg_fairness_improvement(&self, index: usize) -> f64 {
        self.avg_fairness_improvement_over(0, index)
    }

    /// Average fairness improvement of policy `index` over `reference`.
    pub fn avg_fairness_improvement_over(&self, reference: usize, index: usize) -> f64 {
        self.avg_of(|w| w.fairness_improvement_over(reference, index))
    }

    /// Average throughput speedup of policy `index` over the default
    /// reference (index 0).
    pub fn avg_throughput_speedup(&self, index: usize) -> f64 {
        self.avg_throughput_speedup_over(0, index)
    }

    /// Average throughput speedup of policy `index` over `reference`.
    pub fn avg_throughput_speedup_over(&self, reference: usize, index: usize) -> f64 {
        self.avg_of(|w| w.throughput_speedup_over(reference, index))
    }

    /// Average STP / ANTT / worst-ANTT of policy `index`.
    pub fn avg_stp_antt(&self, index: usize) -> (f64, f64, f64) {
        (
            self.avg_of(|w| w.stp[index]),
            self.avg_of(|w| w.antt[index]),
            self.avg_of(|w| w.worst_antt[index]),
        )
    }

    /// Distribution of per-workload values of `f`: (min, max, fraction
    /// below 1.0).
    pub fn distribution(&self, f: impl Fn(&WorkloadMetrics) -> f64) -> (f64, f64, f64) {
        let vals: Vec<f64> = self.workloads.iter().map(f).collect();
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let below = vals.iter().filter(|&&v| v < 1.0).count() as f64 / vals.len() as f64;
        (min, max, below)
    }
}

/// The six metrics of one `(workload, policy, repetition)` run — the unit
/// of work the parallel sweep distributes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PolicyRun {
    unfairness: f64,
    overlap: f64,
    total_time: f64,
    stp: f64,
    antt: f64,
    worst_antt: f64,
}

/// Seed of repetition `rep` for a workload whose base seed is `seed`.
///
/// Derived from `(seed, rep)` alone — never from iteration order — which is
/// what lets the sweep shard `(workload × rep × policy)` cells across
/// threads and still reproduce the sequential numbers bit-for-bit.
fn rep_seed(seed: u64, rep: u32) -> u64 {
    seed.wrapping_add(rep as u64).wrapping_mul(0x9e37_79b9)
}

/// Run one repetition of one workload under every policy of the set,
/// through one shared [`crate::runner::RepContext`] session (one cost
/// draw, one share cache, N policies).
fn measure_rep(
    runner: &Runner,
    set: &PolicySet,
    workload: &Workload,
    seed: u64,
    rep: u32,
) -> Vec<PolicyRun> {
    let ctx = runner.rep_context(workload, rep_seed(seed, rep));
    let arrivals = vec![0; workload.len()];
    set.iter()
        .map(|policy| {
            let run: WorkloadRun = runner.run_in(&ctx, policy.as_ref(), &arrivals);
            PolicyRun {
                unfairness: run.unfairness(),
                overlap: run.overlap(),
                total_time: run.total_time as f64,
                stp: run.stp(),
                antt: run.antt(),
                worst_antt: run.worst_antt(),
            }
        })
        .collect()
}

/// All-zero sums over `n_policies` policies (the fold's initial state).
fn zero_metrics(n_policies: usize) -> WorkloadMetrics {
    WorkloadMetrics {
        unfairness: vec![0.0; n_policies],
        overlap: vec![0.0; n_policies],
        total_time: vec![0.0; n_policies],
        stp: vec![0.0; n_policies],
        antt: vec![0.0; n_policies],
        worst_antt: vec![0.0; n_policies],
    }
}

/// Fold one repetition's policy runs into the running sums. Repetitions
/// must be folded in repetition order — float addition is the one
/// non-commutative step of the pipeline, and this order is what keeps the
/// streaming fold bit-identical to the historical buffered loop.
fn fold_rep(acc: &mut WorkloadMetrics, rep: &[PolicyRun]) {
    for (i, run) in rep.iter().enumerate() {
        acc.unfairness[i] += run.unfairness;
        acc.overlap[i] += run.overlap;
        acc.total_time[i] += run.total_time;
        acc.stp[i] += run.stp;
        acc.antt[i] += run.antt;
        acc.worst_antt[i] += run.worst_antt;
    }
}

/// Divide the folded sums by the repetition count (the terminal step of
/// the average, shared by the streaming and buffered folds).
fn finish_average(acc: &mut WorkloadMetrics, reps: usize) {
    let n = reps as f64;
    for i in 0..acc.unfairness.len() {
        acc.unfairness[i] /= n;
        acc.overlap[i] /= n;
        acc.total_time[i] /= n;
        acc.stp[i] /= n;
        acc.antt[i] /= n;
        acc.worst_antt[i] /= n;
    }
}

/// Average per-rep policy runs, accumulating in repetition order (the same
/// float-addition order as the historical sequential loop).
fn average_reps(per_rep: &[Vec<PolicyRun>]) -> WorkloadMetrics {
    let n_policies = per_rep.first().map_or(0, Vec::len);
    let mut acc = zero_metrics(n_policies);
    for rep in per_rep {
        fold_rep(&mut acc, rep);
    }
    finish_average(&mut acc, per_rep.len());
    acc
}

/// Run one workload under every policy of the set, `reps` times, and
/// average.
///
/// `reps` is clamped to at least 1 (matching [`sweep`] / [`sweep_seq`], so
/// `reps == 0` configurations cannot make the two sweep paths diverge or
/// produce NaN averages).
pub fn measure_workload(
    runner: &Runner,
    set: &PolicySet,
    workload: &Workload,
    reps: u32,
    seed: u64,
) -> WorkloadMetrics {
    let per_rep: Vec<Vec<PolicyRun>> = (0..reps.max(1))
        .map(|rep| measure_rep(runner, set, workload, seed, rep))
        .collect();
    average_reps(&per_rep)
}

/// Counters of one streaming sweep fold (see [`sweep_with_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldStats {
    /// `(workload × rep)` units processed.
    pub units: usize,
    /// High-water mark of units parked in reorder windows. The historical
    /// buffered fold held every one of `units` results at once before
    /// folding — a buffer that grows with the full combination space at
    /// `--full` scale — while the streaming fold parks at most the
    /// scheduling skew between threads (0 on one thread).
    pub peak_buffered: usize,
}

/// Per-workload state of the streaming fold: running rep-order sums plus
/// a reorder window for repetitions that finished out of order.
struct FoldSlot {
    /// Next repetition to fold (reps fold strictly in order).
    next_rep: u32,
    /// Finished repetitions waiting for an earlier one.
    pending: std::collections::BTreeMap<u32, Vec<PolicyRun>>,
    /// Rep-order partial sums (same float-addition order as
    /// [`average_reps`]).
    sums: WorkloadMetrics,
}

/// The streaming fold behind [`sweep`] and the sharded sweeps: fan the
/// `(workload × rep)` grid across the rayon pool and merge each finished
/// unit into its workload's running accumulator in repetition order
/// (buffering only units that arrive before an earlier rep of the same
/// workload). Per-repetition seeds derive from the **global** workload
/// index in `cfg`'s grid, so a shard computes exactly the numbers the
/// unsharded sweep computes for the same workloads.
fn sweep_stream(
    runner: &Runner,
    set: &PolicySet,
    cfg: &SweepConfig,
    workloads: &[Workload],
    global_indices: &[usize],
) -> (Vec<WorkloadMetrics>, FoldStats) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    assert_eq!(workloads.len(), global_indices.len());
    let reps = cfg.reps.max(1);
    let units: Vec<(usize, u32)> = (0..workloads.len())
        .flat_map(|i| (0..reps).map(move |r| (i, r)))
        .collect();
    let slots: Vec<Mutex<FoldSlot>> = (0..workloads.len())
        .map(|_| {
            Mutex::new(FoldSlot {
                next_rep: 0,
                pending: std::collections::BTreeMap::new(),
                sums: zero_metrics(set.len()),
            })
        })
        .collect();
    let buffered = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    units.par_iter().for_each(|&(i, rep)| {
        let runs = measure_rep(
            runner,
            set,
            &workloads[i],
            cfg.seed.wrapping_add(global_indices[i] as u64),
            rep,
        );
        let mut slot = slots[i].lock().unwrap();
        let slot = &mut *slot;
        if rep == slot.next_rep {
            fold_rep(&mut slot.sums, &runs);
            slot.next_rep += 1;
            while let Some(next) = slot.pending.remove(&slot.next_rep) {
                fold_rep(&mut slot.sums, &next);
                slot.next_rep += 1;
                buffered.fetch_sub(1, Ordering::Relaxed);
            }
        } else {
            slot.pending.insert(rep, runs);
            let now = buffered.fetch_add(1, Ordering::Relaxed) + 1;
            peak.fetch_max(now, Ordering::Relaxed);
        }
    });
    let metrics = slots
        .into_iter()
        .map(|slot| {
            let mut slot = slot.into_inner().unwrap();
            debug_assert_eq!(slot.next_rep, reps, "every repetition folded");
            debug_assert!(slot.pending.is_empty());
            finish_average(&mut slot.sums, reps as usize);
            slot.sums
        })
        .collect();
    let stats = FoldStats {
        units: units.len(),
        peak_buffered: peak.load(Ordering::Relaxed),
    };
    (metrics, stats)
}

/// Sweep one request size on one device, fanning the `(workload × rep)`
/// grid out across the rayon pool (each unit runs every policy inline
/// against one shared session). Units **stream** into per-workload
/// accumulators in deterministic repetition order — nothing buffers the
/// whole grid — so the output is bit-identical to [`sweep_seq`]
/// regardless of thread count while peak memory stays flat as the
/// combination space grows.
pub fn sweep(runner: &Runner, set: &PolicySet, cfg: &SweepConfig, request_size: usize) -> Sweep {
    sweep_with_stats(runner, set, cfg, request_size).0
}

/// [`sweep`] plus the streaming fold's buffering counters (perfbench
/// reports them as a peak-memory proxy).
pub fn sweep_with_stats(
    runner: &Runner,
    set: &PolicySet,
    cfg: &SweepConfig,
    request_size: usize,
) -> (Sweep, FoldStats) {
    let workloads = cfg.workloads(request_size);
    let indices: Vec<usize> = (0..workloads.len()).collect();
    let (metrics, stats) = sweep_stream(runner, set, cfg, &workloads, &indices);
    (
        Sweep {
            request_size,
            device: runner.device().name.clone(),
            policy_names: set.names(),
            policy_labels: set.labels(),
            workloads: metrics,
        },
        stats,
    )
}

/// The shard worker's sweep: metrics for just the workloads at
/// `indices` of the request size's grid, tagged with their global
/// indices. Because per-repetition seeds derive from `(global index,
/// rep)` alone, each returned cell is bit-identical to the corresponding
/// cell of the unsharded [`sweep`] — which is what lets `repro --shard
/// i/n` partition the grid across independent processes and `repro
/// merge` reassemble the exact unsharded output.
///
/// # Panics
///
/// Panics if any index is out of range for the request size's grid.
pub fn sweep_indexed(
    runner: &Runner,
    set: &PolicySet,
    cfg: &SweepConfig,
    request_size: usize,
    indices: &[usize],
) -> Vec<(usize, WorkloadMetrics)> {
    let grid = cfg.workloads(request_size);
    let selected: Vec<Workload> = indices.iter().map(|&i| grid[i].clone()).collect();
    let (metrics, _) = sweep_stream(runner, set, cfg, &selected, indices);
    indices.iter().copied().zip(metrics).collect()
}

/// The historical single-threaded sweep. Kept as the reference the
/// parallel [`sweep`] is differentially tested against (and for hosts
/// where spawning threads is undesirable).
pub fn sweep_seq(
    runner: &Runner,
    set: &PolicySet,
    cfg: &SweepConfig,
    request_size: usize,
) -> Sweep {
    let workloads = cfg.workloads(request_size);
    let metrics = workloads
        .iter()
        .enumerate()
        .map(|(i, w)| measure_workload(runner, set, w, cfg.reps, cfg.seed.wrapping_add(i as u64)))
        .collect();
    Sweep {
        request_size,
        device: runner.device().name.clone(),
        policy_names: set.names(),
        policy_labels: set.labels(),
        workloads: metrics,
    }
}

// ---------------------------------------------------------------------
// Figure 2 — motivation: bfs + cutcp + stencil + tpacf on NVIDIA
// ---------------------------------------------------------------------

/// Result of the fig. 2 motivation experiment.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Kernel names.
    pub names: Vec<&'static str>,
    /// Per-kernel slowdowns under the baseline.
    pub baseline_slowdowns: Vec<f64>,
    /// Per-kernel slowdowns under accelOS.
    pub accelos_slowdowns: Vec<f64>,
    /// Unfairness: (baseline, EK, accelOS).
    pub unfairness: (f64, f64, f64),
    /// Throughput speedup over baseline: (EK, accelOS).
    pub speedup: (f64, f64),
}

/// Reproduce fig. 2: parallel execution of bfs, cutcp, stencil and tpacf.
pub fn fig2(runner: &Runner, seed: u64) -> Fig2 {
    let names = ["bfs", "cutcp", "stencil", "tpacf"];
    let wl: Workload = names
        .iter()
        .map(|n| KernelSpec::by_name(n).expect("kernel exists"))
        .collect();
    let ctx = runner.rep_context(&wl, seed);
    let arrivals = vec![0; wl.len()];
    let baseline = PolicySet::builtin("baseline").expect("builtin");
    let ek = PolicySet::builtin("ek").expect("builtin");
    let accelos = PolicySet::builtin("accelos").expect("builtin");
    let base = runner.run_in(&ctx, baseline.as_ref(), &arrivals);
    let ek = runner.run_in(&ctx, ek.as_ref(), &arrivals);
    let acc = runner.run_in(&ctx, accelos.as_ref(), &arrivals);
    Fig2 {
        names: names.to_vec(),
        baseline_slowdowns: base.slowdowns(),
        accelos_slowdowns: acc.slowdowns(),
        unfairness: (base.unfairness(), ek.unfairness(), acc.unfairness()),
        speedup: (
            base.total_time as f64 / ek.total_time as f64,
            base.total_time as f64 / acc.total_time as f64,
        ),
    }
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 2 — parallel execution of bfs, cutcp, stencil, tpacf"
        )?;
        writeln!(f, "(a) individual slowdowns:")?;
        writeln!(f, "  {:<10} {:>10} {:>10}", "kernel", "OpenCL", "accelOS")?;
        for (i, n) in self.names.iter().enumerate() {
            writeln!(
                f,
                "  {:<10} {:>10.2} {:>10.2}",
                n, self.baseline_slowdowns[i], self.accelos_slowdowns[i]
            )?;
        }
        writeln!(
            f,
            "(b) unfairness: OpenCL {:.2}  EK {:.2}  accelOS {:.2}  (accelOS {:.2}x fairer)",
            self.unfairness.0,
            self.unfairness.1,
            self.unfairness.2,
            self.unfairness.0 / self.unfairness.2
        )?;
        writeln!(
            f,
            "(c) throughput speedup: EK {:.2}x  accelOS {:.2}x",
            self.speedup.0, self.speedup.1
        )
    }
}

// ---------------------------------------------------------------------
// Figures 9/10/12/13/14 + tables 1/2 — sweep projections
// ---------------------------------------------------------------------

/// The three request sizes with their sweeps on one device.
#[derive(Debug, Clone)]
pub struct DeviceSweeps {
    /// 2-, 4- and 8-request sweeps.
    pub sizes: Vec<Sweep>,
    /// Position (in set order) of the reference policy ratio figures
    /// divide by. Defaults to 0; `repro --reference <name>` picks another
    /// without reordering the set.
    pub reference: usize,
}

/// Run the paper's three sweeps (2, 4, 8 requests) on one device with one
/// policy set. Ratio figures divide by the policy at `reference` (pass 0
/// for the historical first-of-set behaviour).
///
/// # Panics
///
/// Panics if `reference` is out of range for the set.
pub fn device_sweeps(
    runner: &Runner,
    set: &PolicySet,
    cfg: &SweepConfig,
    reference: usize,
) -> DeviceSweeps {
    assert!(reference < set.len(), "reference index within the set");
    DeviceSweeps {
        sizes: [2, 4, 8]
            .iter()
            .map(|&k| sweep(runner, set, cfg, k))
            .collect(),
        reference,
    }
}

impl DeviceSweeps {
    fn labels(&self) -> &[String] {
        &self.sizes[0].policy_labels
    }

    /// The reference policy's figure label.
    fn reference_label(&self) -> &str {
        &self.labels()[self.reference]
    }

    /// Render the fig. 9 view: average unfairness per policy.
    pub fn fig9(&self) -> String {
        let mut s = format!(
            "Figure 9 — average system unfairness (lower is better), {}\n",
            self.sizes[0].device
        );
        s += &format!("  {:<10}", "requests");
        for label in self.labels() {
            s += &format!(" {label:>14}");
        }
        s += "\n";
        for sw in &self.sizes {
            let u = sw.avg_unfairness();
            s += &format!("  {:<10}", sw.request_size);
            for v in &u {
                s += &format!(" {v:>14.2}");
            }
            s += "\n";
        }
        s
    }

    /// Render the fig. 10 view: fairness-improvement distributions over
    /// the reference policy. The reference row renders explicitly (marked
    /// `*`, 1.00x by definition) so mixed sweeps stay readable.
    pub fn fig10(&self) -> String {
        let reference = self.reference_label().to_string();
        let mut s = format!(
            "Figure 10 — fairness improvement over {reference} (higher is better), {}\n",
            self.sizes[0].device
        );
        s += &format!(
            "  {:<10} {:<17} {:>7} {:>16} {:>5}\n",
            "requests", "policy", "avg", "[min..max]", "%<1"
        );
        for sw in &self.sizes {
            for i in 0..sw.policy_count() {
                let avg = sw.avg_fairness_improvement_over(self.reference, i);
                let (min, max, bad) =
                    sw.distribution(|w| w.fairness_improvement_over(self.reference, i));
                let marker = if i == self.reference { "*" } else { "" };
                s += &format!(
                    "  {:<10} {:<17} {:>6.2}x [{:>5.2}..{:>6.2}] {:>4.0}%\n",
                    sw.request_size,
                    format!("{}{marker}", sw.policy_labels[i]),
                    avg,
                    min,
                    max,
                    bad * 100.0
                );
            }
        }
        s += "  (* reference)\n";
        s
    }

    /// Render the fig. 12 view: average kernel execution overlap.
    pub fn fig12(&self) -> String {
        let mut s = format!(
            "Figure 12 — average kernel execution overlap (higher is better), {}\n",
            self.sizes[0].device
        );
        s += &format!("  {:<10}", "requests");
        for label in self.labels() {
            s += &format!(" {label:>14}");
        }
        s += "\n";
        for sw in &self.sizes {
            let o = sw.avg_overlap();
            s += &format!("  {:<10}", sw.request_size);
            for v in &o {
                s += &format!(" {:>13.0}%", v * 100.0);
            }
            s += "\n";
        }
        s
    }

    /// Render the fig. 13 view: average throughput speedups over the
    /// reference policy (rendered explicitly as a `*`-marked 1.00x
    /// column).
    pub fn fig13(&self) -> String {
        let reference = self.reference_label().to_string();
        let mut s = format!(
            "Figure 13 — average system throughput speedup over {reference}, {}\n",
            self.sizes[0].device
        );
        s += &format!("  {:<10}", "requests");
        for (i, label) in self.labels().iter().enumerate() {
            let marker = if i == self.reference { "*" } else { "" };
            s += &format!(" {:>14}", format!("{label}{marker}"));
        }
        s += "\n";
        for sw in &self.sizes {
            s += &format!("  {:<10}", sw.request_size);
            for i in 0..sw.policy_count() {
                s += &format!(
                    " {:>13.2}x",
                    sw.avg_throughput_speedup_over(self.reference, i)
                );
            }
            s += "\n";
        }
        s += "  (* reference)\n";
        s
    }

    /// Render the fig. 14 view: throughput-speedup distributions over the
    /// reference policy (reference row rendered explicitly, marked `*`).
    pub fn fig14(&self) -> String {
        let reference = self.reference_label().to_string();
        let mut s = format!(
            "Figure 14 — throughput speedup distribution over {reference}, {}\n",
            self.sizes[0].device
        );
        s += &format!(
            "  {:<10} {:<17} {:>16} {:>6}\n",
            "requests", "policy", "[min..max]", "%slow"
        );
        for sw in &self.sizes {
            for i in 0..sw.policy_count() {
                let (min, max, bad) =
                    sw.distribution(|w| w.throughput_speedup_over(self.reference, i));
                let marker = if i == self.reference { "*" } else { "" };
                s += &format!(
                    "  {:<10} {:<17} [{:>5.2}..{:>6.2}] {:>5.0}%\n",
                    sw.request_size,
                    format!("{}{marker}", sw.policy_labels[i]),
                    min,
                    max,
                    bad * 100.0
                );
            }
        }
        s += "  (* reference)\n";
        s
    }

    /// Render the table 1/2 view: STP, ANTT and worst-case ANTT per
    /// policy.
    pub fn table_stp_antt(&self) -> String {
        let mut s = format!(
            "Tables 1/2 — STP (higher better), ANTT / W.ANTT (lower better), {}\n",
            self.sizes[0].device
        );
        s += &format!(
            "  {:<6} {:<16} {:>8} {:>8} {:>8}\n",
            "RQSTs", "policy", "STP", "ANTT", "W.ANTT"
        );
        for sw in &self.sizes {
            for i in 0..sw.policy_count() {
                let (stp, antt, wa) = sw.avg_stp_antt(i);
                s += &format!(
                    "  {:<6} {:<16} {:>8.2} {:>8.2} {:>8.2}\n",
                    sw.request_size, sw.policy_labels[i], stp, antt, wa
                );
            }
        }
        s
    }
}

// ---------------------------------------------------------------------
// Figure 11 — alphabetic pairwise unfairness
// ---------------------------------------------------------------------

/// One row of fig. 11.
#[derive(Debug, Clone)]
pub struct PairRow {
    /// The two kernel names.
    pub pair: (String, String),
    /// Unfairness: (baseline, EK, accelOS).
    pub unfairness: (f64, f64, f64),
}

/// Reproduce fig. 11: unfairness for the alphabetic-neighbour pairs
/// (pairs are independent, so they fan out across the rayon pool).
pub fn fig11(runner: &Runner, seed: u64) -> Vec<PairRow> {
    let baseline = PolicySet::builtin("baseline").expect("builtin");
    let ek = PolicySet::builtin("ek").expect("builtin");
    let accelos = PolicySet::builtin("accelos").expect("builtin");
    alphabetic_pairs()
        .par_iter()
        .map(|wl| {
            let ctx = runner.rep_context(wl, seed);
            let arrivals = vec![0; wl.len()];
            let base = runner.run_in(&ctx, baseline.as_ref(), &arrivals);
            let ek = runner.run_in(&ctx, ek.as_ref(), &arrivals);
            let acc = runner.run_in(&ctx, accelos.as_ref(), &arrivals);
            PairRow {
                pair: (wl[0].name.to_string(), wl[1].name.to_string()),
                unfairness: (base.unfairness(), ek.unfairness(), acc.unfairness()),
            }
        })
        .collect()
}

/// Render fig. 11 rows.
pub fn render_fig11(rows: &[PairRow], device: &str) -> String {
    let mut s = format!("Figure 11 — unfairness for alphabetic 2-kernel workloads, {device}\n");
    s += &format!(
        "  {:<50} {:>8} {:>8} {:>8}\n",
        "pair", "OpenCL", "EK", "accelOS"
    );
    for r in rows {
        s += &format!(
            "  {:<50} {:>8.2} {:>8.2} {:>8.2}\n",
            format!("{} + {}", r.pair.0, r.pair.1),
            r.unfairness.0,
            r.unfairness.1,
            r.unfairness.2
        );
    }
    s
}

// ---------------------------------------------------------------------
// Figure 15 — single-kernel performance impact (naive vs optimized)
// ---------------------------------------------------------------------

/// One kernel's isolated speedups.
#[derive(Debug, Clone)]
pub struct SingleKernelRow {
    /// Kernel name.
    pub name: &'static str,
    /// accelOS-naive speedup over baseline (isolated).
    pub naive: f64,
    /// accelOS-optimized speedup over baseline (isolated).
    pub optimized: f64,
}

/// Reproduce fig. 15: per-kernel isolated accelOS speedups (kernels are
/// independent, so they fan out across the rayon pool).
pub fn fig15(runner: &Runner, seed: u64) -> Vec<SingleKernelRow> {
    let baseline = PolicySet::builtin("baseline").expect("builtin");
    let naive = PolicySet::builtin("accelos-naive").expect("builtin");
    let optimized = PolicySet::builtin("accelos").expect("builtin");
    KernelSpec::all()
        .par_iter()
        .map(|spec| {
            let base = runner.isolated_time(baseline.as_ref(), spec, seed) as f64;
            let n = runner.isolated_time(naive.as_ref(), spec, seed) as f64;
            let opt = runner.isolated_time(optimized.as_ref(), spec, seed) as f64;
            SingleKernelRow {
                name: spec.name,
                naive: base / n,
                optimized: base / opt,
            }
        })
        .collect()
}

/// Render fig. 15 rows plus geometric means.
pub fn render_fig15(rows: &[SingleKernelRow], device: &str) -> String {
    let mut s = format!("Figure 15 — accelOS single-kernel performance impact, {device}\n");
    s += &format!("  {:<30} {:>8} {:>10}\n", "kernel", "naive", "optimized");
    for r in rows {
        s += &format!("  {:<30} {:>7.2}x {:>9.2}x\n", r.name, r.naive, r.optimized);
    }
    let g_naive = geomean(&rows.iter().map(|r| r.naive).collect::<Vec<_>>());
    let g_opt = geomean(&rows.iter().map(|r| r.optimized).collect::<Vec<_>>());
    s += &format!(
        "  {:<30} {:>7.2}x {:>9.2}x  (geometric mean)\n",
        "geomean", g_naive, g_opt
    );
    s
}

// ---------------------------------------------------------------------
// §8.5 small kernels + §6.4 chunking ablation
// ---------------------------------------------------------------------

/// Isolated time of `spec` restricted to `wgs` work groups, as a custom
/// launch (used by the §8.5 small-kernel study and the chunk ablation).
pub fn isolated_custom(
    device: &DeviceConfig,
    spec: &KernelSpec,
    wgs: u64,
    plan_of: impl FnOnce(Vec<u64>) -> LaunchPlan,
    seed: u64,
) -> u64 {
    let costs = spec.vg_costs(wgs as usize, seed);
    let launch = KernelLaunch {
        name: spec.name.to_string(),
        arrival: 0,
        req: gpu_sim::WorkGroupReq {
            threads: spec.wg_size,
            local_mem: 0,
            regs_per_thread: 1,
        },
        mem_intensity: spec.mem_intensity,
        plan: plan_of(costs),
        max_workers: None,
    };
    let report = Episode::new(vec![launch]).run(device).report;
    report.total_time().max(1)
}

/// One row of the §8.5 small-kernel study.
#[derive(Debug, Clone)]
pub struct SmallKernelRow {
    /// Kernel name.
    pub name: &'static str,
    /// Work groups launched.
    pub wgs: u64,
    /// Relative difference accelOS vs baseline (positive = slower).
    pub rel_diff: f64,
}

/// Reproduce the §8.5 small-kernel experiment: bfs/spmv/tpacf with 2, 4
/// and 8 work groups differ from standard OpenCL by only a few percent.
pub fn small_kernels(device: &DeviceConfig, seed: u64) -> Vec<SmallKernelRow> {
    let mut rows = Vec::new();
    for name in ["bfs", "spmv", "tpacf"] {
        let spec = KernelSpec::by_name(name).expect("kernel exists");
        for wgs in [2u64, 4, 8] {
            let base = isolated_custom(
                device,
                spec,
                wgs,
                |c| LaunchPlan::Hardware { wg_costs: c.into() },
                seed,
            ) as f64;
            let acc = isolated_custom(
                device,
                spec,
                wgs,
                |c| LaunchPlan::PersistentDynamic {
                    workers: wgs as u32,
                    vg_costs: c.into(),
                    chunk: 1,
                    per_vg_overhead: 2,
                },
                seed,
            ) as f64;
            rows.push(SmallKernelRow {
                name: spec.name,
                wgs,
                rel_diff: acc / base - 1.0,
            });
        }
    }
    rows
}

/// Render the small-kernel rows.
pub fn render_small_kernels(rows: &[SmallKernelRow], device: &str) -> String {
    let mut s = format!("§8.5 — small-kernel executions, accelOS vs OpenCL, {device}\n");
    s += &format!("  {:<10} {:>6} {:>12}\n", "kernel", "WGs", "difference");
    for r in rows {
        s += &format!(
            "  {:<10} {:>6} {:>11.1}%\n",
            r.name,
            r.wgs,
            r.rel_diff * 100.0
        );
    }
    s
}

/// One row of the §6.4 chunking ablation.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Kernel name.
    pub name: &'static str,
    /// Which cost regime: `true` for the artificially shortened variant
    /// (per-group cost divided by 8, the paper's "small kernel" regime).
    pub short_variant: bool,
    /// Chunk size forced for this run (0 = the guided-schedule extension).
    pub chunk: u32,
    /// Isolated speedup over the chunk=1 configuration.
    pub speedup_vs_chunk1: f64,
}

/// Ablation of §6.4: force every chunk size on representative kernels, in
/// both the normal regime and an artificially shortened one (per-group
/// costs ÷ 8, like the paper's §8.5 small datasets). Chunking pays in the
/// short regime (the atomic dequeue chain binds) and can cost in the
/// normal regime (coarser chunks hurt balance) — which is exactly why the
/// policy adapts on instruction count.
pub fn chunk_ablation(device: &DeviceConfig, seed: u64) -> Vec<AblationRow> {
    let kernels = [
        "mri-gridding_uniformAdd",
        "mri-q_ComputePhiMag",
        "histo_final",
        "sgemm",
    ];
    let mut rows = Vec::new();
    for name in kernels {
        let spec = KernelSpec::by_name(name).expect("kernel exists");
        let workers = (device.total_threads() / spec.wg_size as u64).min(spec.default_wgs) as u32;
        for short in [false, true] {
            let div = if short { 8 } else { 1 };
            let time_for = |chunk: u32| {
                isolated_custom(
                    device,
                    spec,
                    spec.default_wgs,
                    |c| LaunchPlan::PersistentDynamic {
                        workers,
                        vg_costs: c.iter().map(|&x| (x / div).max(1)).collect(),
                        chunk,
                        per_vg_overhead: 2,
                    },
                    seed,
                ) as f64
            };
            let t1 = time_for(1);
            for chunk in [1u32, 2, 4, 6, 8] {
                rows.push(AblationRow {
                    name: spec.name,
                    short_variant: short,
                    chunk,
                    speedup_vs_chunk1: t1 / time_for(chunk),
                });
            }
            // Extension: the guided (tapering) schedule, rendered as
            // chunk = 0 rows.
            let guided = isolated_custom(
                device,
                spec,
                spec.default_wgs,
                |c| LaunchPlan::PersistentGuided {
                    workers,
                    vg_costs: c.iter().map(|&x| (x / div).max(1)).collect(),
                    max_chunk: 8,
                    per_vg_overhead: 2,
                },
                seed,
            ) as f64;
            rows.push(AblationRow {
                name: spec.name,
                short_variant: short,
                chunk: 0,
                speedup_vs_chunk1: t1 / guided,
            });
        }
    }
    rows
}

/// Render the ablation rows.
pub fn render_ablation(rows: &[AblationRow], device: &str) -> String {
    let mut s = format!("§6.4 ablation — dequeue chunk size vs isolated time, {device}\n");
    s += &format!(
        "  {:<30} {:>8} {:>6} {:>14}\n",
        "kernel", "regime", "chunk", "vs chunk=1"
    );
    for r in rows {
        s += &format!(
            "  {:<30} {:>8} {:>6} {:>13.2}x\n",
            r.name,
            if r.short_variant { "short" } else { "normal" },
            if r.chunk == 0 {
                "guided".to_string()
            } else {
                r.chunk.to_string()
            },
            r.speedup_vs_chunk1
        );
    }
    s
}

// ---------------------------------------------------------------------
// Extension — dynamic tenancy (§9: "different number and types of
// applications may join or leave a system dynamically")
// ---------------------------------------------------------------------

/// One policy's outcome under dynamic tenancy.
#[derive(Debug, Clone)]
pub struct DynamicTenancyRow {
    /// Policy label.
    pub policy: String,
    /// Unfairness across the tenants.
    pub unfairness: f64,
    /// Time for the whole episode.
    pub total_time: u64,
}

/// Extension experiment: six tenants join a node at staggered times (two
/// immediately, then one every ~quarter of the first kernel's isolated
/// runtime) and leave as they finish. accelOS plans fair shares and grows
/// into freed capacity; the baseline serialises arrivals; EK's static
/// sizing never adapts. Runs every policy of `set` (render treats the
/// first as the reference).
pub fn dynamic_tenancy(runner: &Runner, set: &PolicySet, seed: u64) -> Vec<DynamicTenancyRow> {
    let names = ["tpacf", "lbm", "histo_main", "spmv", "sgemm", "stencil"];
    let workload: Workload = names
        .iter()
        .map(|n| KernelSpec::by_name(n).expect("kernel exists"))
        .collect();
    // Stagger joins relative to the first tenant's isolated runtime under
    // the reference policy.
    let t0 = runner.isolated_time(set.get(0).as_ref(), workload[0], seed);
    let arrivals: Vec<u64> = (0..workload.len() as u64)
        .map(|i| i.saturating_sub(1) * t0 / 4)
        .collect();
    let ctx = runner.rep_context(&workload, seed);
    set.iter()
        .map(|policy| {
            let run = runner.run_in(&ctx, policy.as_ref(), &arrivals);
            DynamicTenancyRow {
                policy: policy.label().to_string(),
                unfairness: run.unfairness(),
                total_time: run.total_time,
            }
        })
        .collect()
}

/// Render the dynamic-tenancy rows (times relative to row `reference`).
pub fn render_dynamic_tenancy(
    rows: &[DynamicTenancyRow],
    reference: usize,
    device: &str,
) -> String {
    let base_time = rows[reference].total_time as f64;
    let reference = &rows[reference].policy;
    let mut s = format!("Extension — dynamic tenancy (staggered joins/leaves), {device}\n");
    s += &format!(
        "  {:<16} {:>12} {:>16}\n",
        "policy",
        "unfairness",
        format!("vs {reference} time")
    );
    for r in rows {
        s += &format!(
            "  {:<16} {:>12.2} {:>15.2}x\n",
            r.policy,
            r.unfairness,
            base_time / r.total_time as f64
        );
    }
    s
}

// ---------------------------------------------------------------------
// Extension — preemptive priority (mid-flight worker reclamation)
// ---------------------------------------------------------------------

/// One policy's outcome in the mixed-priority arrival scenario.
#[derive(Debug, Clone)]
pub struct PreemptionRow {
    /// Policy label.
    pub policy: String,
    /// Turnaround of the premium tenant (arrival → completion).
    pub premium_turnaround: u64,
    /// Mean turnaround of the batch tenants.
    pub batch_mean_turnaround: f64,
    /// Time for the whole episode.
    pub total_time: u64,
    /// Reclaim commands applied across all launches.
    pub preemptions: usize,
    /// Workers retired early at chunk boundaries.
    pub reclaimed_workers: usize,
}

/// The kernels of the mixed-priority scenario: the premium tenant first
/// (so `accelos-priority`'s default premium count covers it), then the
/// two long-running batch tenants.
pub fn priority_workload() -> Workload {
    ["sgemm", "lbm", "tpacf"]
        .iter()
        .map(|n| KernelSpec::by_name(n).expect("kernel exists"))
        .collect()
}

/// Extension experiment (ROADMAP "priority/preemption"): two batch
/// tenants plan the machine between themselves at t=0; a premium tenant
/// arrives a quarter into their run. Every policy of `set` runs the same
/// staggered episode through the cohort-planned preemptive path
/// ([`Runner::run_preemptive`]): non-preemptive policies admit the
/// premium request at its share but leave it queueing behind the batch
/// tenants' resident persistent workers, while `accelos-priority`
/// reclaims those workers at chunk boundaries, so the premium tenant
/// starts within one chunk of arriving. Render treats the first row as
/// the reference.
pub fn priority_preemption(runner: &Runner, set: &PolicySet, seed: u64) -> Vec<PreemptionRow> {
    let workload = priority_workload();
    // The premium request joins a quarter into the first batch tenant's
    // isolated runtime under the reference policy.
    let t_batch = runner.isolated_time(set.get(0).as_ref(), workload[1], seed);
    let arrivals: Vec<u64> = vec![t_batch / 4, 0, 0];
    let ctx = runner.rep_context(&workload, seed);
    set.iter()
        .map(|policy| {
            let report = runner.preemptive_report(&ctx, policy.as_ref(), &arrivals);
            let batch: Vec<u64> = report.kernels[1..].iter().map(|k| k.turnaround()).collect();
            PreemptionRow {
                policy: policy.label().to_string(),
                premium_turnaround: report.kernels[0].turnaround(),
                batch_mean_turnaround: batch.iter().sum::<u64>() as f64 / batch.len() as f64,
                total_time: report.total_time(),
                preemptions: report.kernels.iter().map(|k| k.preemptions).sum(),
                reclaimed_workers: report.kernels.iter().map(|k| k.reclaimed_workers).sum(),
            }
        })
        .collect()
}

/// Render the preemption rows (premium speedup relative to row
/// `reference`).
pub fn render_priority_preemption(
    rows: &[PreemptionRow],
    reference: usize,
    device: &str,
) -> String {
    let base = rows[reference].premium_turnaround as f64;
    let ref_label = &rows[reference].policy;
    let mut s =
        format!("Extension — preemptive priority (premium tenant arrives mid-run), {device}\n");
    s += &format!(
        "  {:<17} {:>14} {:>9} {:>14} {:>9} {:>10}\n",
        "policy", "premium TT", "speedup", "batch mean TT", "preempt.", "reclaimed"
    );
    for (i, r) in rows.iter().enumerate() {
        let marker = if i == reference { "*" } else { "" };
        s += &format!(
            "  {:<17} {:>14} {:>8.2}x {:>14.0} {:>9} {:>10}\n",
            format!("{}{marker}", r.policy),
            r.premium_turnaround,
            base / r.premium_turnaround as f64,
            r.batch_mean_turnaround,
            r.preemptions,
            r.reclaimed_workers
        );
    }
    s += &format!("  (* reference: {ref_label}; TT = turnaround, cycles)\n");
    s
}

// ---------------------------------------------------------------------
// Extension — deadline- and SLA-aware preemption
// ---------------------------------------------------------------------

/// The slack factor the deadline scenario grants its premium tenant:
/// the deadline is `slack ×` the tenant's isolated time, measured from
/// the episode start. Matches the default `accelos-deadline` policy
/// (`DeadlinePolicy::default()`), so the policy plans against exactly the
/// deadline the scenario scores.
pub const DEADLINE_SLACK: f64 = 2.0;

/// One policy's outcome in the deadline arrival scenario.
#[derive(Debug, Clone)]
pub struct DeadlineRow {
    /// Policy label.
    pub policy: String,
    /// Completion time of the deadlined tenant (absolute, episode
    /// cycles — compared against the deadline).
    pub premium_end: u64,
    /// Turnaround of the deadlined tenant (arrival → completion).
    pub premium_turnaround: u64,
    /// Whether the tenant finished by the deadline.
    pub met: bool,
    /// Reclaim commands applied across all launches.
    pub preemptions: usize,
    /// Workers retired early at chunk boundaries.
    pub reclaimed_workers: usize,
    /// Full pauses (0-worker reclaims) across all launches.
    pub pauses: usize,
    /// Resume commands fired across all launches.
    pub resumes: usize,
}

/// One full deadline episode: the deadline, the tenant's arrival time,
/// and one row per swept policy.
#[derive(Debug, Clone)]
pub struct DeadlineScenario {
    /// Absolute deadline of the premium tenant (episode cycles).
    pub deadline: u64,
    /// Device time the premium tenant arrived.
    pub arrival: u64,
    /// Per-policy outcomes, in set order.
    pub rows: Vec<DeadlineRow>,
}

/// Extension experiment (ROADMAP "deadline-aware shares"): the same
/// mixed-priority episode as [`priority_preemption`] — two batch tenants
/// at t=0, the premium tenant joining a quarter into the first batch
/// tenant's run — but scored against a **deadline** of
/// [`DEADLINE_SLACK`] `×` the premium tenant's isolated time (measured
/// from the episode start, the tenant's submission instant). Queueing
/// `accelos` misses it; `accelos-priority` meets it by flooring every
/// victim; `accelos-deadline` meets it too while reclaiming strictly
/// fewer workers, because the deadline needs only part of the machine.
pub fn deadline_scenario(runner: &Runner, set: &PolicySet, seed: u64) -> DeadlineScenario {
    let workload = priority_workload();
    // The episode (arrival time, deadline) is fixed by accelOS isolated
    // times — independent of the swept set, and numerically identical to
    // the estimate `accelos-deadline` plans against (single-kernel plans
    // are the same equal-share allocation), so the scored deadline and
    // the planned deadline never diverge under a custom `--policies`
    // list.
    let accelos = accelos::policy::AccelOsPolicy::optimized();
    let t_batch = runner.isolated_time(&accelos, workload[1], seed);
    let t_premium = runner.isolated_time(&accelos, workload[0], seed);
    let deadline = (DEADLINE_SLACK * t_premium as f64).round() as u64;
    let arrival = t_batch / 4;
    let arrivals: Vec<u64> = vec![arrival, 0, 0];
    let ctx = runner.rep_context(&workload, seed);
    let rows = set
        .iter()
        .map(|policy| {
            let report = runner.preemptive_report(&ctx, policy.as_ref(), &arrivals);
            DeadlineRow {
                policy: policy.label().to_string(),
                premium_end: report.kernels[0].end,
                premium_turnaround: report.kernels[0].turnaround(),
                met: report.kernels[0].end <= deadline,
                preemptions: report.kernels.iter().map(|k| k.preemptions).sum(),
                reclaimed_workers: report.kernels.iter().map(|k| k.reclaimed_workers).sum(),
                pauses: report.kernels.iter().map(|k| k.pauses).sum(),
                resumes: report.kernels.iter().map(|k| k.resumes).sum(),
            }
        })
        .collect();
    DeadlineScenario {
        deadline,
        arrival,
        rows,
    }
}

/// The **hold rate** of each policy: the fraction of `seeds` (different
/// calibrated cost draws of the same episode) whose deadline held. The
/// per-seed scenario is [`deadline_scenario`]; episodes fan out across
/// the rayon pool.
pub fn deadline_hold_rates(runner: &Runner, set: &PolicySet, seeds: &[u64]) -> Vec<(String, f64)> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let met: Vec<Vec<bool>> = seeds
        .par_iter()
        .map(|&s| {
            deadline_scenario(runner, set, s)
                .rows
                .iter()
                .map(|r| r.met)
                .collect()
        })
        .collect();
    set.labels()
        .into_iter()
        .enumerate()
        .map(|(i, label)| {
            let held = met.iter().filter(|m| m[i]).count();
            (label, held as f64 / seeds.len() as f64)
        })
        .collect()
}

/// Render a deadline scenario plus hold rates (from
/// [`deadline_hold_rates`], typically over more seeds than the rendered
/// episode).
pub fn render_deadline(
    scenario: &DeadlineScenario,
    hold_rates: &[(String, f64)],
    device: &str,
) -> String {
    let mut s = format!(
        "Extension — deadline-aware preemption (premium arrives at t={}, deadline {}), {device}\n",
        scenario.arrival, scenario.deadline
    );
    s += &format!(
        "  {:<17} {:>12} {:>9} {:>9} {:>10} {:>7} {:>8} {:>9}\n",
        "policy",
        "premium end",
        "deadline",
        "preempt.",
        "reclaimed",
        "pauses",
        "resumes",
        "hold rate"
    );
    for (row, (label, rate)) in scenario.rows.iter().zip(hold_rates) {
        debug_assert_eq!(&row.policy, label);
        s += &format!(
            "  {:<17} {:>12} {:>9} {:>9} {:>10} {:>7} {:>8} {:>8.0}%\n",
            row.policy,
            row.premium_end,
            if row.met { "met" } else { "MISSED" },
            row.preemptions,
            row.reclaimed_workers,
            row.pauses,
            row.resumes,
            rate * 100.0
        );
    }
    s += "  (deadline = 2x the premium tenant's isolated time, from episode start;\n   hold rate = fraction of cost-draw seeds whose deadline held)\n";
    s
}

// ---------------------------------------------------------------------
// Extension — fault injection and recovery
// ---------------------------------------------------------------------

/// CU-failure counts swept by the `faults` scenario. Each count draws
/// that many repairable CU failures (plus half as many straggler
/// windows) over the clean episode's horizon; 0 is the control cell that
/// must reproduce the fault-free episode bit-for-bit.
pub const FAULT_COUNTS: [usize; 4] = [0, 1, 2, 4];

/// One `(policy, fault count)` cell of the fault sweep.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// CU failures requested from the draw.
    pub cu_failures: usize,
    /// Faults the simulator actually injected (failures + stragglers).
    pub faults_injected: usize,
    /// Episode makespan under the plan.
    pub makespan: u64,
    /// `makespan / clean makespan` for the same policy
    /// ([`sched_metrics::fault_degradation`]).
    pub degradation: f64,
    /// Turnaround of the premium tenant under the plan.
    pub premium_turnaround: u64,
    /// In-flight virtual groups lost across all launches.
    pub chunks_lost: usize,
    /// Virtual groups re-executed after a fault lost their first run.
    pub groups_retried: usize,
    /// First fault → episode completion
    /// ([`sched_metrics::recovery_latency`]; 0 in the control cell).
    pub recovery_latency: u64,
    /// The exactly-once retry witness: every lost group re-executed
    /// (`groups_retried == chunks_lost`) and no launch aborted.
    pub conserved: bool,
}

/// One policy's degradation curve across the swept fault counts.
#[derive(Debug, Clone)]
pub struct FaultPolicyRow {
    /// Policy label.
    pub policy: String,
    /// One cell per entry of [`FAULT_COUNTS`], in order.
    pub cells: Vec<FaultCell>,
}

/// One full fault sweep: the horizon faults were drawn over, and one
/// curve per swept policy.
#[derive(Debug, Clone)]
pub struct FaultScenario {
    /// Fault times were drawn uniformly from `[0, horizon)` — the
    /// reference policy's clean episode length.
    pub horizon: u64,
    /// Per-policy curves, in set order.
    pub rows: Vec<FaultPolicyRow>,
}

/// Extension experiment (ROADMAP "fault-injection plane"): the
/// mixed-priority episode of [`priority_preemption`] re-run under
/// increasingly faulty machines. For each count of [`FAULT_COUNTS`] a
/// [`FaultPlan`] is drawn once — repairable CU failures plus straggler
/// windows, seeded, identical for every policy — then every policy of
/// `set` replans around the rehearsed capacity losses
/// ([`accelos::policy::SchedulingPolicy::on_fault`]) and runs the episode with the
/// faults injected. Work is conserved by construction (no aborts are
/// drawn): every cell's `conserved` witness checks that each lost
/// in-flight group re-executed exactly once, and the zero-fault control
/// cell is bit-identical to the fault-free episode.
pub fn fault_scenario(runner: &Runner, set: &PolicySet, seed: u64) -> FaultScenario {
    let workload = priority_workload();
    // Episode shape (arrival, horizon) is fixed by the accelOS reference,
    // like the deadline scenario: independent of the swept set, so two
    // `--policies` lists see the same machine failing at the same times.
    let accelos = accelos::policy::AccelOsPolicy::optimized();
    let t_batch = runner.isolated_time(&accelos, workload[1], seed);
    let arrivals: Vec<u64> = vec![t_batch / 4, 0, 0];
    let ctx = runner.rep_context(&workload, seed);
    let horizon = runner
        .preemptive_report(&ctx, &accelos, &arrivals)
        .total_time()
        .max(1);
    let num_cus = runner.device().num_cus;
    let plans: Vec<FaultPlan> = FAULT_COUNTS
        .iter()
        .map(|&n| {
            let spec = FaultSpec {
                horizon,
                cu_failures: n,
                // Repairable at a quarter-episode: capacity degrades, the
                // machine never shrinks permanently.
                repair_delay: Some(horizon / 4),
                stragglers: n / 2,
                slowdown: 3.0,
                straggler_window: horizon / 8,
                aborts: 0,
                domain_failures: 0,
                domain_repair_delay: None,
            };
            FaultPlan::from_spec(&spec, num_cus, workload.len(), seed.wrapping_add(n as u64))
        })
        .collect();
    let rows = set
        .iter()
        .map(|policy| {
            let policy = policy.as_ref();
            let clean = runner
                .preemptive_report(&ctx, policy, &arrivals)
                .total_time()
                .max(1);
            let cells = FAULT_COUNTS
                .iter()
                .zip(&plans)
                .map(|(&n, plan)| {
                    let report =
                        runner.faulty_report_with_domains(&ctx, policy, &arrivals, plan, &[]);
                    let makespan = report.total_time();
                    let first_fault = plan.events.first().map(|e| e.at);
                    let lost: usize = report.kernels.iter().map(|k| k.chunks_lost).sum();
                    let retried: usize = report.kernels.iter().map(|k| k.groups_retried).sum();
                    FaultCell {
                        cu_failures: n,
                        faults_injected: report.faults_injected,
                        makespan,
                        degradation: sched_metrics::fault_degradation(clean, makespan),
                        premium_turnaround: report.kernels[0].turnaround(),
                        chunks_lost: lost,
                        groups_retried: retried,
                        recovery_latency: first_fault
                            .map(|at| sched_metrics::recovery_latency(at, makespan))
                            .unwrap_or(0),
                        conserved: retried == lost && report.kernels.iter().all(|k| !k.aborted),
                    }
                })
                .collect();
            FaultPolicyRow {
                policy: policy.label().to_string(),
                cells,
            }
        })
        .collect();
    FaultScenario { horizon, rows }
}

/// Render the fault sweep: one line per `(policy, fault count)` cell.
pub fn render_fault_scenario(scenario: &FaultScenario, device: &str) -> String {
    let mut s = format!(
        "Extension — fault injection and recovery (repairable CU failures + stragglers drawn over {} cycles), {device}\n",
        scenario.horizon
    );
    s += &format!(
        "  {:<17} {:>6} {:>9} {:>10} {:>8} {:>12} {:>6} {:>8} {:>9} {:>10}\n",
        "policy",
        "drawn",
        "injected",
        "makespan",
        "degrad.",
        "premium TT",
        "lost",
        "retried",
        "recovery",
        "conserved"
    );
    for row in &scenario.rows {
        for c in &row.cells {
            s += &format!(
                "  {:<17} {:>6} {:>9} {:>10} {:>7.2}x {:>12} {:>6} {:>8} {:>9} {:>10}\n",
                row.policy,
                c.cu_failures,
                c.faults_injected,
                c.makespan,
                c.degradation,
                c.premium_turnaround,
                c.chunks_lost,
                c.groups_retried,
                if c.recovery_latency == 0 {
                    "-".to_string()
                } else {
                    c.recovery_latency.to_string()
                },
                if c.conserved { "yes" } else { "NO" }
            );
        }
    }
    s += "  (drawn = requested CU failures; lost/retried = in-flight groups rolled back\n   and re-executed; conserved = every lost group re-ran exactly once)\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SweepConfig;

    #[test]
    fn fig2_shapes_match_the_paper() {
        let runner = Runner::new(DeviceConfig::k20m());
        let f = fig2(&runner, 1);
        // Baseline slows later arrivals more (fig. 2a): tpacf (last) worse
        // than bfs (first).
        assert!(
            f.baseline_slowdowns[3] > f.baseline_slowdowns[0],
            "baseline: {:?}",
            f.baseline_slowdowns
        );
        // accelOS is substantially fairer (paper: 5.79x).
        assert!(
            f.unfairness.0 / f.unfairness.2 > 2.0,
            "unfairness {:?}",
            f.unfairness
        );
        // accelOS improves throughput (paper: 1.31x).
        assert!(f.speedup.1 > 1.0, "accelOS speedup {:.2}", f.speedup.1);
        let _rendered = f.to_string();
    }

    #[test]
    fn tiny_sweep_reproduces_orderings() {
        let runner = Runner::new(DeviceConfig::k20m());
        let cfg = SweepConfig::test_scale();
        let set = PolicySet::paper();
        let sw = sweep(&runner, &set, &cfg, 4);
        let baseline = sw.index_of("baseline").expect("paper set has baseline");
        let accelos = sw.index_of("accelos").expect("paper set has accelos");
        let u = sw.avg_unfairness();
        // accelOS is fairer than baseline on average.
        assert!(u[accelos] < u[baseline], "unfairness {u:?}");
        // accelOS overlaps more than baseline.
        let o = sw.avg_overlap();
        assert!(o[accelos] > o[baseline]);
        // Renderers do not panic.
        let ds = DeviceSweeps {
            sizes: vec![sw],
            reference: 0,
        };
        let _ = ds.fig9();
        let _ = ds.fig10();
        let _ = ds.fig12();
        let _ = ds.fig13();
        let _ = ds.fig14();
        let _ = ds.table_stp_antt();
    }

    #[test]
    fn extended_policy_set_sweeps_through_the_same_api() {
        // The acceptance scenario: a sweep over a set with *no* paper
        // scheme but the two extensions, entirely through the trait API.
        let runner = Runner::new(DeviceConfig::k20m());
        let cfg = SweepConfig {
            pairs: 6,
            n4: 3,
            n8: 2,
            reps: 1,
            seed: 2016,
        };
        let set = PolicySet::parse("accelos,accelos-guided,accelos-weighted:3:1").unwrap();
        let sw = sweep(&runner, &set, &cfg, 2);
        assert_eq!(sw.policy_count(), 3);
        assert_eq!(sw.workloads.len(), 6);
        // Ratios are relative to the first policy of the set (accelos).
        for w in &sw.workloads {
            assert!((w.fairness_improvement(0) - 1.0).abs() < 1e-12);
            assert!((w.throughput_speedup(0) - 1.0).abs() < 1e-12);
        }
        let ds = DeviceSweeps {
            sizes: vec![sw.clone(), sw.clone(), sw.clone()],
            reference: 0,
        };
        let rendered = ds.fig9() + &ds.fig10() + &ds.fig13() + &ds.table_stp_antt();
        assert!(rendered.contains("accelOS-guided"));
        assert!(rendered.contains("accelos-weighted:3:1"));
        // The reference row renders explicitly, marked and at 1.00x.
        assert!(rendered.contains("accelOS*"));
        assert!(ds.fig13().contains("1.00x"));
        // --reference switches the denominator without reordering the set.
        let re = DeviceSweeps {
            sizes: vec![sw],
            reference: 1,
        };
        let r10 = re.fig10();
        assert!(r10.contains("over accelOS-guided"));
        assert!(r10.contains("accelOS-guided*"));
        let w = &re.sizes[0].workloads[0];
        assert!((w.fairness_improvement_over(1, 1) - 1.0).abs() < 1e-12);
        assert!((w.throughput_speedup_over(1, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig11_pairs_render() {
        let runner = Runner::new(DeviceConfig::k20m());
        let rows = fig11(&runner, 3);
        assert_eq!(rows.len(), 13);
        let rendered = render_fig11(&rows, "K20m");
        assert!(rendered.contains("bfs + cutcp"));
    }

    #[test]
    fn fig15_geomean_shows_optimized_gain() {
        let runner = Runner::new(DeviceConfig::k20m());
        let rows = fig15(&runner, 5);
        assert_eq!(rows.len(), 25);
        let g_opt = geomean(&rows.iter().map(|r| r.optimized).collect::<Vec<_>>());
        let g_naive = geomean(&rows.iter().map(|r| r.naive).collect::<Vec<_>>());
        assert!(
            g_opt > g_naive,
            "optimized {g_opt:.3} vs naive {g_naive:.3}"
        );
        assert!(g_opt > 1.0, "optimized should be a net win: {g_opt:.3}");
        assert!(
            g_naive > 0.85,
            "naive should be a small loss at worst: {g_naive:.3}"
        );
        let _ = render_fig15(&rows, "K20m");
    }

    #[test]
    fn small_kernels_stay_close_to_baseline() {
        let rows = small_kernels(&DeviceConfig::k20m(), 7);
        assert_eq!(rows.len(), 9);
        for r in &rows {
            assert!(
                r.rel_diff.abs() < 0.15,
                "{} with {} WGs diverged {:.1}%",
                r.name,
                r.wgs,
                r.rel_diff * 100.0
            );
        }
        let _ = render_small_kernels(&rows, "K20m");
    }

    #[test]
    fn dynamic_tenancy_favors_accelos() {
        let runner = Runner::new(DeviceConfig::k20m());
        let rows = dynamic_tenancy(&runner, &PolicySet::paper(), 5);
        assert_eq!(rows.len(), 4);
        let by = |label: &str| rows.iter().find(|r| r.policy == label).expect("row");
        let base = by("OpenCL");
        let acc = by("accelOS");
        assert!(
            acc.unfairness < base.unfairness,
            "accelOS {:.2} vs baseline {:.2}",
            acc.unfairness,
            base.unfairness
        );
        assert!(
            acc.total_time < base.total_time,
            "accelOS should also finish the episode sooner"
        );
        let _ = render_dynamic_tenancy(&rows, 0, "K20m");
    }

    #[test]
    fn priority_preemption_scenario_rewards_the_premium_tenant() {
        let runner = Runner::new(DeviceConfig::k20m());
        let set = PolicySet::parse("accelos,accelos-priority").unwrap();
        let rows = priority_preemption(&runner, &set, 2016);
        assert_eq!(rows.len(), 2);
        let queueing = &rows[0];
        let preempting = &rows[1];
        // The acceptance bar: ≥1.5x premium turnaround improvement over
        // no-preemption accelOS on the same staggered episode.
        let gain = queueing.premium_turnaround as f64 / preempting.premium_turnaround as f64;
        assert!(gain >= 1.5, "premium gain {gain:.2}x");
        // Preemption really happened — and only under the priority policy.
        assert_eq!(queueing.preemptions, 0);
        assert_eq!(preempting.preemptions, 2, "one reclaim per batch tenant");
        assert!(preempting.reclaimed_workers > 0);
        let rendered = render_priority_preemption(&rows, 0, "K20m");
        assert!(rendered.contains("accelOS-priority"));
        assert!(rendered.contains("accelOS*"));
    }

    #[test]
    fn deadline_scenario_rewards_partial_reclamation() {
        let runner = Runner::new(DeviceConfig::k20m());
        let set = PolicySet::parse("accelos,accelos-priority,accelos-deadline").unwrap();
        let sc = deadline_scenario(&runner, &set, 2016);
        let queueing = &sc.rows[0];
        let priority = &sc.rows[1];
        let deadline = &sc.rows[2];
        assert!(!queueing.met, "queueing accelOS must miss the deadline");
        assert!(priority.met && deadline.met, "both preemptors must hold it");
        assert!(
            deadline.reclaimed_workers < priority.reclaimed_workers,
            "just-enough reclamation must take strictly fewer workers: {} vs {}",
            deadline.reclaimed_workers,
            priority.reclaimed_workers
        );
        let rates = deadline_hold_rates(&runner, &set, &[2016, 7, 99]);
        assert_eq!(rates.len(), 3);
        assert!(rates.iter().all(|(_, r)| (0.0..=1.0).contains(r)));
        let rendered = render_deadline(&sc, &rates, "K20m");
        assert!(rendered.contains("MISSED"));
        assert!(rendered.contains("accelOS-deadline"));
    }

    #[test]
    fn sla_pause_resumes_in_the_deadline_scenario() {
        let runner = Runner::new(DeviceConfig::k20m());
        // Floor 0 for the batch tenants: both are fully paused on the
        // premium arrival and resumed at its retirement.
        let set = PolicySet::parse("accelos,accelos-sla:4:0:0").unwrap();
        let sc = deadline_scenario(&runner, &set, 2016);
        let sla = &sc.rows[1];
        assert_eq!(sla.pauses, 2, "both batch tenants fully pause");
        assert_eq!(sla.resumes, 2, "and both resume on the premium retirement");
        assert!(sla.reclaimed_workers > 0);
    }

    #[test]
    fn chunking_helps_short_kernels_and_not_long_ones() {
        let rows = chunk_ablation(&DeviceConfig::k20m(), 9);
        // Short-regime uniformAdd with chunk 8 must clearly beat chunk 1
        // (the atomic dequeue chain binds otherwise).
        let ua8 = rows
            .iter()
            .find(|r| r.name == "mri-gridding_uniformAdd" && r.chunk == 8 && r.short_variant)
            .expect("row exists");
        assert!(
            ua8.speedup_vs_chunk1 > 1.2,
            "chunking gain {:.2}",
            ua8.speedup_vs_chunk1
        );
        // Normal-regime sgemm must NOT benefit from coarse chunking — this
        // asymmetry is why §6.4 adapts on instruction count.
        let sg8 = rows
            .iter()
            .find(|r| r.name == "sgemm" && r.chunk == 8 && !r.short_variant)
            .expect("row exists");
        assert!(
            sg8.speedup_vs_chunk1 < 1.05,
            "sgemm chunking {:.2}",
            sg8.speedup_vs_chunk1
        );
        // The guided extension must recover most of the fixed-chunk win in
        // the short regime without the fixed policy's normal-regime loss.
        let ua_guided = rows
            .iter()
            .find(|r| r.name == "mri-gridding_uniformAdd" && r.chunk == 0 && r.short_variant)
            .expect("row exists");
        assert!(
            ua_guided.speedup_vs_chunk1 > 1.5,
            "guided gain {:.2}",
            ua_guided.speedup_vs_chunk1
        );
        let sg_guided = rows
            .iter()
            .find(|r| r.name == "sgemm" && r.chunk == 0 && !r.short_variant)
            .expect("row exists");
        assert!(
            sg_guided.speedup_vs_chunk1 > 0.9,
            "guided avoids the coarse-chunk loss: {:.2}",
            sg_guided.speedup_vs_chunk1
        );
        let _ = render_ablation(&rows, "K20m");
    }

    #[test]
    fn fault_scenario_conserves_work_across_policies() {
        let runner = Runner::new(DeviceConfig::k20m());
        let set = PolicySet::parse("accelos,accelos-priority").unwrap();
        let sc = fault_scenario(&runner, &set, 2016);
        assert_eq!(sc.rows.len(), 2);
        for row in &sc.rows {
            assert_eq!(row.cells.len(), FAULT_COUNTS.len());
            let control = &row.cells[0];
            // The zero-fault control cell reproduces the clean episode.
            assert_eq!(control.faults_injected, 0, "{}", row.policy);
            assert!((control.degradation - 1.0).abs() < 1e-12, "{}", row.policy);
            assert_eq!(control.chunks_lost, 0);
            assert_eq!(control.recovery_latency, 0);
            for c in &row.cells {
                // The acceptance bar: every policy survives every drawn
                // CU failure with zero lost work-groups.
                assert!(
                    c.conserved,
                    "{} with {} failures: lost {} vs retried {}",
                    row.policy, c.cu_failures, c.chunks_lost, c.groups_retried
                );
            }
            // The heaviest cell really degrades something observable.
            let worst = row.cells.last().unwrap();
            assert!(worst.faults_injected > 0, "{}", row.policy);
        }
        // Determinism: the sweep is a pure function of (set, seed).
        let again = fault_scenario(&runner, &set, 2016);
        for (a, b) in sc.rows.iter().zip(&again.rows) {
            for (ca, cb) in a.cells.iter().zip(&b.cells) {
                assert_eq!(ca.makespan, cb.makespan);
                assert_eq!(ca.groups_retried, cb.groups_retried);
            }
        }
        let rendered = render_fault_scenario(&sc, "K20m");
        assert!(rendered.contains("conserved"));
        assert!(rendered.contains("accelOS-priority"));
    }
}
