//! # elastic-kernels — the Elastic Kernels comparison baseline
//!
//! A reimplementation of the *Elastic Kernels* approach (Pai et al.,
//! ASPLOS 2013) that the accelOS paper compares against (§7.3 notes the
//! authors likewise re-implemented it for OpenCL). Its defining properties,
//! and deliberate contrasts with accelOS, are:
//!
//! * **static, launch-time-only decisions** — the elastic grid size is
//!   chosen by a fixed occupancy heuristic that does not know how many
//!   other kernels are sharing the device and never adapts afterwards;
//! * **static work assignment** — each elastic work group receives a fixed
//!   block-cyclic slice of the original work groups; there is no dequeue,
//!   no atomics, and no rebalancing when slices turn out imbalanced;
//! * **no fairness objective** — the heuristic aims at utilisation
//!   (kernels are shrunk so *some* concurrency is possible), not at equal
//!   resource shares.
//!
//! The paper's observations fall out of this structure: EK helps modestly
//! for 2-kernel workloads (its half-device heuristic happens to split a
//! pair evenly) but degrades for 4 and 8 requests, where static
//! oversubscription queues work groups and static slices inflate the
//! critical path.

#![warn(missing_docs)]

use gpu_sim::{DeviceConfig, LaunchPlan};

/// Per-kernel facts the EK planner needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EkKernel {
    /// Work items per work group.
    pub wg_threads: u32,
    /// Number of work groups in the original NDRange.
    pub original_wgs: u64,
}

/// The EK decision for one kernel: elastic work groups and their slices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EkDecision {
    /// Elastic (machine) work groups launched.
    pub workers: u32,
    /// `assignments[w]` lists the original work-group indices worker `w`
    /// executes (block-cyclic).
    pub assignments: Vec<Vec<u64>>,
}

impl EkDecision {
    /// Convert to a machine plan given per-virtual-group costs.
    ///
    /// # Panics
    ///
    /// Panics if `vg_costs` does not cover the original group count.
    pub fn to_sim_plan(&self, vg_costs: &[u64], per_vg_overhead: u64) -> LaunchPlan {
        let assignments = self
            .assignments
            .iter()
            .map(|idxs| idxs.iter().map(|&i| vg_costs[i as usize]).collect())
            .collect();
        LaunchPlan::PersistentStatic {
            assignments,
            per_vg_overhead,
        }
    }
}

/// The static occupancy heuristic: resize each kernel's elastic grid to
/// exactly fill the device's resident threads, independent of how many
/// kernels are actually sharing (Pai et al. size for *occupancy*, not for
/// fairness).
///
/// This is the crux of the baseline: every kernel claims a whole device's
/// worth of threads, so K concurrent kernels oversubscribe the hardware
/// K-fold and the dispatcher queues the excess — EK co-execution happens
/// only in the windows where a kernel's statically-sliced workers retire
/// unevenly. Nothing adapts when the tenancy changes, exactly the failure
/// mode the paper reports for 4 and 8 requests.
///
/// # Examples
///
/// ```
/// use elastic_kernels::{plan, EkKernel};
/// use gpu_sim::DeviceConfig;
///
/// let dev = DeviceConfig::k20m();
/// let k = EkKernel { wg_threads: 256, original_wgs: 1000 };
/// let d = plan(&dev, &[k, k, k, k]);
/// // Every kernel gets the same static full-device allocation,
/// // regardless of the request count.
/// assert!(d.iter().all(|x| x.workers == d[0].workers));
/// assert_eq!(d[0].workers as u64 * 256, dev.total_threads());
/// ```
pub fn plan(device: &DeviceConfig, kernels: &[EkKernel]) -> Vec<EkDecision> {
    kernels
        .iter()
        .map(|k| {
            let workers = workers(device, k);
            let assignments = (0..workers as u64)
                .map(|w| (w..k.original_wgs).step_by(workers as usize).collect())
                .collect();
            EkDecision {
                workers,
                assignments,
            }
        })
        .collect()
}

/// The elastic grid size [`plan`] gives `kernel`: a whole device's worth
/// of resident threads, capped at the original group count. Callers that
/// need only the width (not the slices) skip building the assignments.
pub fn workers(device: &DeviceConfig, kernel: &EkKernel) -> u32 {
    (device.total_threads() / kernel.wg_threads.max(1) as u64)
        .max(1)
        .min(kernel.original_wgs.max(1)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_cover_every_group_exactly_once() {
        let dev = DeviceConfig::test_tiny();
        let d = &plan(
            &dev,
            &[EkKernel {
                wg_threads: 64,
                original_wgs: 37,
            }],
        )[0];
        let mut seen: Vec<u64> = d.assignments.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn allocation_ignores_request_count() {
        let dev = DeviceConfig::k20m();
        let k = EkKernel {
            wg_threads: 128,
            original_wgs: 100_000,
        };
        let two = plan(&dev, &[k, k]);
        let eight = plan(&dev, &[k; 8]);
        assert_eq!(two[0].workers, eight[0].workers, "EK is static in K");
    }

    #[test]
    fn workers_capped_by_original_groups() {
        let dev = DeviceConfig::k20m();
        let d = &plan(
            &dev,
            &[EkKernel {
                wg_threads: 64,
                original_wgs: 3,
            }],
        )[0];
        assert_eq!(d.workers, 3);
    }

    #[test]
    fn sim_plan_uses_assigned_costs() {
        let dev = DeviceConfig::test_tiny();
        let d = &plan(
            &dev,
            &[EkKernel {
                wg_threads: 128,
                original_wgs: 4,
            }],
        )[0];
        // tiny device: 256 threads => 2 workers of 128 threads.
        assert_eq!(d.workers, 2);
        let plan = d.to_sim_plan(&[5, 6, 7, 8], 1);
        match plan {
            LaunchPlan::PersistentStatic {
                assignments,
                per_vg_overhead,
            } => {
                assert_eq!(assignments, vec![vec![5, 7], vec![6, 8]]);
                assert_eq!(per_vg_overhead, 1);
            }
            other => panic!("expected static plan, got {other:?}"),
        }
    }

    #[test]
    fn each_kernel_claims_the_whole_device() {
        let dev = DeviceConfig::k20m();
        let k = EkKernel {
            wg_threads: 256,
            original_wgs: 10_000,
        };
        let d = plan(&dev, &[k, k]);
        for x in &d {
            assert_eq!(x.workers as u64 * 256, dev.total_threads());
        }
    }
}
