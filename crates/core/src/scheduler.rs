//! The Kernel Scheduler (paper §5): the requests and launch decisions
//! that turn concurrent kernel executions into resource-controlled
//! launches. A [`crate::policy::SchedulingPolicy`] plans each batch; the
//! paper's, [`crate::policy::AccelOsPolicy`], for every batch of
//! concurrent requests:
//!
//! 1. runs the §3 resource-sharing algorithm to pick the number of
//!    persistent work groups per kernel;
//! 2. constructs each kernel's Virtual NDRange descriptor (to be copied to
//!    accelerator memory);
//! 3. alters the hardware global size to match the reduced work-group
//!    count, leaving work-group size and dimensionality untouched.
//!
//! The decisions feed both execution planes: the functional plane appends
//! the descriptor buffer and runs the transformed kernel over the reduced
//! range; the timing plane converts each decision into a
//! [`gpu_sim::LaunchPlan::PersistentDynamic`].

use crate::resource::ResourceDemand;
use crate::vrange::{VirtualNdRange, DESCRIPTOR_LEN};
use gpu_sim::{Costs, LaunchPlan};
use kernel_ir::interp::NdRange;
use std::sync::Arc;

/// One kernel execution request as the scheduler sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecRequest {
    /// Kernel name (post-JIT scheduling kernel — same as the original).
    /// Shared (`Arc<str>`) so per-batch planning never copies name bytes.
    pub kernel: Arc<str>,
    /// The original launch geometry.
    pub ndrange: NdRange,
    /// Per-work-group resource demand.
    pub demand: ResourceDemand,
    /// Virtual groups per dequeue, from the kernel's
    /// [`crate::jit::TransformInfo`].
    pub chunk: u32,
}

impl ExecRequest {
    /// Build a request, deriving `original_wgs` from the geometry.
    pub fn new(
        kernel: impl Into<Arc<str>>,
        ndrange: NdRange,
        wg_local_mem: u32,
        regs_per_thread: u32,
        chunk: u32,
    ) -> Self {
        let threads = ndrange.wg_size() as u32;
        ExecRequest {
            kernel: kernel.into(),
            ndrange,
            demand: ResourceDemand {
                wg_threads: threads,
                wg_local_mem,
                wg_regs: threads * regs_per_thread,
                original_wgs: ndrange.total_groups() as u64,
            },
            chunk,
        }
    }
}

/// How a decision's machine work groups consume the virtual NDRange —
/// the part of a [`LaunchDecision`] that differs between scheduling
/// policies (see [`crate::policy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DecisionKind {
    /// Every virtual group is a hardware work group (the vendor baseline):
    /// no persistent workers, no dequeue.
    Hardware,
    /// Persistent workers each execute a fixed block-cyclic slice of the
    /// virtual groups (Elastic Kernels): no atomics, no rebalancing.
    StaticSlices,
    /// Persistent workers atomically dequeue `chunk` virtual groups at a
    /// time until the queue drains (accelOS, §2.4/§6.4).
    #[default]
    Chunked,
    /// Persistent workers claim `clamp(remaining / (2·workers), 1, chunk)`
    /// groups per dequeue — coarse while the queue is long, tapering to
    /// single groups near the tail (the guided-schedule extension).
    Guided,
}

/// The scheduler's decision for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchDecision {
    /// Kernel name (shared with the originating [`ExecRequest`]).
    pub kernel: Arc<str>,
    /// Persistent work groups to launch.
    pub workers: u32,
    /// The altered hardware NDRange (reduced global size, same work-group
    /// size and dimensions).
    pub hardware_range: NdRange,
    /// Virtual NDRange descriptor words to copy to accelerator memory.
    pub descriptor: [i64; DESCRIPTOR_LEN],
    /// Virtual groups per dequeue (for [`DecisionKind::Guided`], the upper
    /// bound on groups per claim; 1 for the non-dequeuing kinds).
    pub chunk: u32,
    /// How the workers consume the virtual NDRange.
    pub kind: DecisionKind,
}

impl LaunchDecision {
    /// Convert to a machine-level plan for the timing plane.
    ///
    /// `vg_costs` gives each virtual group's execution cost. It is a shared
    /// [`Costs`] table, so callers holding one cost draw for several plans
    /// (the harness runs every policy against the same draw) hand out
    /// `Arc` clones instead of copying the array. `per_vg_overhead` is the
    /// software runtime's per-group cost (ignored by
    /// [`DecisionKind::Hardware`], which has no software scheduler).
    ///
    /// # Panics
    ///
    /// Panics if `vg_costs` does not cover the original group count.
    pub fn to_sim_plan(&self, vg_costs: impl Into<Costs>, per_vg_overhead: u64) -> LaunchPlan {
        let vg_costs = vg_costs.into();
        assert_eq!(
            vg_costs.len() as i64,
            self.descriptor[1],
            "one cost per virtual group"
        );
        match self.kind {
            DecisionKind::Hardware => LaunchPlan::Hardware { wg_costs: vg_costs },
            DecisionKind::StaticSlices => {
                // Workers beyond the virtual-group count would own empty
                // slices; clamp so a custom policy over-allocating workers
                // degrades gracefully instead of slicing out of bounds.
                let workers = (self.workers.max(1) as usize).min(vg_costs.len().max(1));
                let assignments = (0..workers)
                    .map(|w| {
                        vg_costs[w..]
                            .iter()
                            .step_by(workers)
                            .copied()
                            .collect::<Vec<u64>>()
                    })
                    .collect();
                LaunchPlan::PersistentStatic {
                    assignments,
                    per_vg_overhead,
                }
            }
            DecisionKind::Chunked => LaunchPlan::PersistentDynamic {
                workers: self.workers,
                vg_costs,
                chunk: self.chunk,
                per_vg_overhead,
            },
            DecisionKind::Guided => LaunchPlan::PersistentGuided {
                workers: self.workers,
                vg_costs,
                max_chunk: self.chunk,
                per_vg_overhead,
            },
        }
    }
}

/// Build one [`DecisionKind::Chunked`] decision from an allocated worker
/// count, applying the §6.4 queue-length chunk cap (shared by the policy
/// objects in [`crate::policy`]).
pub(crate) fn chunked_decision(req: &ExecRequest, workers: u32) -> LaunchDecision {
    let v = VirtualNdRange::new(req.ndrange);
    // Chunked dequeues trade scheduling overhead for balance; when
    // the queue is short relative to the worker count, large
    // chunks would idle workers, so the chunk is capped to keep at
    // least two dequeue rounds per worker.
    let per_worker = (v.total_groups() as u32 / workers.max(1)).max(1);
    let chunk = req.chunk.min((per_worker / 2).max(1));
    LaunchDecision {
        kernel: req.kernel.clone(),
        workers,
        hardware_range: v.hardware_range(workers),
        descriptor: v.descriptor(),
        chunk,
        kind: DecisionKind::Chunked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AccelOsPolicy, PlanCtx, SchedulingPolicy};
    use gpu_sim::DeviceConfig;

    /// The paper's default plan: equal §3 shares, adaptive chunks.
    fn accelos_plan(device: &DeviceConfig, requests: &[ExecRequest]) -> Vec<LaunchDecision> {
        AccelOsPolicy::optimized().plan(&PlanCtx::new(device), requests)
    }

    #[test]
    fn reduces_range_but_keeps_wg_shape() {
        let dev = DeviceConfig::k20m();
        let reqs = vec![
            ExecRequest::new("a", NdRange::new_2d([1024, 512], [16, 16]), 0, 8, 2),
            ExecRequest::new("b", NdRange::new_1d(131072, 128), 2048, 8, 1),
        ];
        let plans = accelos_plan(&dev, &reqs);
        assert_eq!(plans[0].hardware_range.local, [16, 16, 1]);
        assert_eq!(plans[0].hardware_range.work_dim, 2);
        assert!(plans[0].hardware_range.total_groups() < reqs[0].ndrange.total_groups());
        assert_eq!(plans[0].descriptor[1], (1024 / 16 * 512 / 16) as i64);
        assert_eq!(plans[1].chunk, 1);
    }

    #[test]
    fn four_equal_kernels_quarter_the_machine() {
        let dev = DeviceConfig::k20m();
        let req = ExecRequest::new("k", NdRange::new_1d(1 << 20, 256), 0, 16, 1);
        let plans = accelos_plan(&dev, &[req.clone(), req.clone(), req.clone(), req]);
        let w: Vec<u32> = plans.iter().map(|p| p.workers).collect();
        let total: u64 = w.iter().map(|&x| x as u64 * 256).sum();
        assert!(w.iter().max().unwrap() - w.iter().min().unwrap() <= 1);
        assert!(total <= dev.total_threads());
        assert!(total >= dev.total_threads() * 9 / 10);
    }

    #[test]
    fn sim_plan_roundtrip() {
        let dev = DeviceConfig::test_tiny();
        // A queue far longer than the worker count keeps the requested
        // chunk; see `chunk_capped_by_queue_length` for the other case.
        let reqs = vec![ExecRequest::new("k", NdRange::new_1d(8192, 8), 0, 1, 4)];
        let plan = &accelos_plan(&dev, &reqs)[0];
        let sim = plan.to_sim_plan(vec![10; 1024], 2);
        match sim {
            LaunchPlan::PersistentDynamic {
                workers,
                vg_costs,
                chunk,
                per_vg_overhead,
            } => {
                assert_eq!(workers, plan.workers);
                assert_eq!(vg_costs.len(), 1024);
                assert_eq!(chunk, 4);
                assert_eq!(per_vg_overhead, 2);
            }
            other => panic!("expected a dynamic plan, got {other:?}"),
        }
    }

    #[test]
    fn chunk_capped_by_queue_length() {
        // 8 virtual groups over 8 workers: one dequeue each; chunking would
        // idle seven workers, so the cap forces chunk 1.
        let dev = DeviceConfig::test_tiny();
        let reqs = vec![ExecRequest::new("k", NdRange::new_1d(64, 8), 0, 1, 4)];
        let plan = &accelos_plan(&dev, &reqs)[0];
        assert_eq!(plan.chunk, 1);
    }

    #[test]
    #[should_panic(expected = "one cost per virtual group")]
    fn sim_plan_cost_count_checked() {
        let dev = DeviceConfig::test_tiny();
        let reqs = vec![ExecRequest::new("k", NdRange::new_1d(64, 8), 0, 1, 4)];
        let _ = accelos_plan(&dev, &reqs)[0].to_sim_plan(vec![10; 3], 2);
    }

    #[test]
    fn decisions_are_deterministic() {
        let dev = DeviceConfig::k20m();
        let reqs = vec![
            ExecRequest::new("a", NdRange::new_1d(65536, 256), 1024, 12, 2),
            ExecRequest::new("b", NdRange::new_1d(32768, 128), 0, 20, 1),
        ];
        assert_eq!(accelos_plan(&dev, &reqs), accelos_plan(&dev, &reqs));
    }
}
