//! In-order command queues with profiling events.
//!
//! Execution takes place on two planes (`docs/ARCHITECTURE.md`, "The two
//! execution planes"):
//!
//! * **functional** — the kernel really runs, via the `kernel-ir`
//!   interpreter, against the context's device memory;
//! * **timing** — the launch's device time is obtained by running the
//!   `gpu-sim` machine model with per-work-group costs taken from the
//!   interpreter's dynamic statistics.
//!
//! Events therefore report both correct buffer contents and device-model
//! times, like `CL_QUEUE_PROFILING_ENABLE`.

use crate::context::Context;
use crate::error::ClError;
use crate::program::Kernel;
use gpu_sim::{KernelLaunch, LaunchPlan, Simulator, WorkGroupReq};
use kernel_ir::interp::{DynStats, Interpreter, NdRange};

/// A profiling event (`cl_event` with `CL_PROFILING_COMMAND_*`).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Queue time of the command.
    pub queued: u64,
    /// Time the first work group became resident.
    pub start: u64,
    /// Completion time.
    pub end: u64,
    /// Dynamic statistics of the functional execution.
    pub stats: DynStats,
}

impl Event {
    /// Device-model duration (`end - start`).
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// An in-order command queue on one context.
///
/// # Examples
///
/// ```
/// use clrt::{Arg, CommandQueue, Context, Platform, Program};
/// use kernel_ir::interp::NdRange;
///
/// # fn main() -> Result<(), clrt::ClError> {
/// let mut ctx = Context::new(&Platform::test_tiny());
/// let program = Program::build(
///     "kernel void twice(global float* b) {
///         size_t i = get_global_id(0);
///         b[i] = b[i] * 2.0f;
///     }",
/// )?;
/// let mut k = program.create_kernel("twice")?;
/// let buf = ctx.create_buffer(4 * 4);
/// ctx.write_f32(buf, &[1.0, 2.0, 3.0, 4.0])?;
/// k.set_arg(0, Arg::Buffer(buf))?;
///
/// let mut q = CommandQueue::new();
/// let ev = q.enqueue_nd_range(&mut ctx, &k, NdRange::new_1d(4, 2))?;
/// assert!(ev.end > ev.start);
/// assert_eq!(ctx.read_f32(buf)?, vec![2.0, 4.0, 6.0, 8.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct CommandQueue {
    cursor: u64,
}

impl CommandQueue {
    /// An empty queue starting at time zero.
    pub fn new() -> Self {
        CommandQueue::default()
    }

    /// Device time at which all enqueued commands have completed
    /// (`clFinish`).
    pub fn finish(&self) -> u64 {
        self.cursor
    }

    /// Launch `kernel` over `ndrange` (`clEnqueueNDRangeKernel`).
    ///
    /// Runs the kernel functionally, then models its device time; in-order
    /// semantics mean the launch starts when the previous command ended.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidArgs`] for unbound arguments,
    /// [`ClError::InvalidWorkGroupSize`] for a malformed `ndrange` (see
    /// [`NdRange::check`]), [`ClError::InvalidWorkGroupSize`] /
    /// [`ClError::OutOfResources`] for geometry the device cannot host, and [`ClError::ExecutionFailure`]
    /// if the kernel faults.
    pub fn enqueue_nd_range(
        &mut self,
        ctx: &mut Context,
        kernel: &Kernel,
        ndrange: NdRange,
    ) -> Result<Event, ClError> {
        ndrange.check().map_err(ClError::InvalidWorkGroupSize)?;
        let args = kernel.resolved_args()?;
        let req = launch_requirements(kernel, ndrange);
        let dev = ctx.device().clone();
        if req.threads > dev.threads_per_cu {
            return Err(ClError::InvalidWorkGroupSize(format!(
                "work group of {} threads exceeds the device limit {}",
                req.threads, dev.threads_per_cu
            )));
        }
        if req.local_mem > dev.local_mem_per_cu || req.regs_total() > dev.regs_per_cu {
            return Err(ClError::OutOfResources(format!(
                "work group needs {}B local / {} regs; device offers {}B / {}",
                req.local_mem,
                req.regs_total(),
                dev.local_mem_per_cu,
                dev.regs_per_cu
            )));
        }

        // Functional plane: kernels execute on the bytecode VM (or the
        // sequential tree-walker under `ACCELOS_EXEC_TIER=tree`), sharding
        // work groups across host threads when the accelcheck race
        // analysis proves the launch free of cross-group races — with
        // bit-identical memory contents and statistics on every path.
        // Verdicts come from the program's `ModuleFacts`, computed on the
        // kernel's first launch and kept with the program.
        let mut interp = Interpreter::with_facts(kernel.module(), kernel.facts());
        interp.set_exec_tier(kernel_ir::ExecTier::from_env());
        let stats = interp
            .run_kernel_tiered(ctx.memory_mut(), kernel.name(), ndrange, &args)
            .map_err(|e| ClError::ExecutionFailure(e.to_string()))?;

        // Timing plane: one-launch machine simulation with per-WG costs from
        // the dynamic instruction counts.
        let mem_intensity = if stats.total_insns == 0 {
            0.0
        } else {
            (stats.mem_ops as f64 / stats.total_insns as f64).min(1.0)
        };
        let wg_costs: gpu_sim::Costs = stats.insns_per_wg.iter().map(|&c| c.max(1)).collect();
        let mut sim = Simulator::new(dev);
        let id = sim.add_launch(KernelLaunch {
            name: kernel.name().to_string(),
            arrival: 0,
            req,
            mem_intensity,
            plan: LaunchPlan::Hardware { wg_costs },
            max_workers: None,
        });
        let report = sim.run();
        let k = report.kernel(id);

        let queued = self.cursor;
        let start = queued + k.first_start.unwrap_or(0);
        let end = queued + k.end;
        self.cursor = end;
        Ok(Event {
            queued,
            start,
            end,
            stats,
        })
    }
}

/// Per-work-group device resources a launch of `kernel` over `ndrange`
/// occupies: threads from the geometry, local memory from static
/// declarations plus dynamic `local` arguments, registers from the profile.
pub fn launch_requirements(kernel: &Kernel, ndrange: NdRange) -> WorkGroupReq {
    let profile = kernel.profile();
    WorkGroupReq {
        threads: ndrange.wg_size() as u32,
        // Saturate: a request past `u32::MAX` bytes must still exceed the
        // device's local memory, not wrap below it.
        local_mem: u32::try_from(profile.static_local_bytes + kernel.dynamic_local_bytes())
            .unwrap_or(u32::MAX),
        regs_per_thread: profile.regs_per_item.max(1) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use crate::program::{Arg, Program};

    fn setup() -> (Context, Kernel, crate::context::Buffer) {
        let mut ctx = Context::new(&Platform::test_tiny());
        let p = Program::build(
            "kernel void inc(global int* b) {
                size_t i = get_global_id(0);
                b[i] = b[i] + 1;
            }",
        )
        .unwrap();
        let mut k = p.create_kernel("inc").unwrap();
        let buf = ctx.create_buffer(16 * 4);
        ctx.write_i32(buf, &[0; 16]).unwrap();
        k.set_arg(0, Arg::Buffer(buf)).unwrap();
        (ctx, k, buf)
    }

    #[test]
    fn in_order_queue_serialises_commands() {
        let (mut ctx, k, buf) = setup();
        let mut q = CommandQueue::new();
        let e1 = q
            .enqueue_nd_range(&mut ctx, &k, NdRange::new_1d(16, 4))
            .unwrap();
        let e2 = q
            .enqueue_nd_range(&mut ctx, &k, NdRange::new_1d(16, 4))
            .unwrap();
        assert!(e2.queued >= e1.end);
        assert_eq!(q.finish(), e2.end);
        assert_eq!(ctx.read_i32(buf).unwrap(), vec![2; 16]);
    }

    #[test]
    fn event_times_are_consistent() {
        let (mut ctx, k, _) = setup();
        let mut q = CommandQueue::new();
        let e = q
            .enqueue_nd_range(&mut ctx, &k, NdRange::new_1d(16, 4))
            .unwrap();
        assert!(e.queued <= e.start);
        assert!(e.start < e.end);
        assert!(e.stats.total_insns > 0);
    }

    #[test]
    fn oversized_work_group_rejected() {
        let (mut ctx, k, _) = setup();
        let mut q = CommandQueue::new();
        // test_tiny allows 128 threads per CU.
        let err = q.enqueue_nd_range(&mut ctx, &k, NdRange::new_1d(512, 256));
        assert!(matches!(err, Err(ClError::InvalidWorkGroupSize(_))));
    }

    #[test]
    fn malformed_ndrange_literals_are_rejected() {
        // Struct literals skip the constructors' validation: a zero local
        // size, a local size that does not divide the global size, a zero
        // work_dim, an item count overflowing `usize` and 2^40 one-item
        // groups (past `MAX_GROUPS`: sizing per-group tables for them
        // aborts the process) must each be an error, not a panic, an
        // abort or a launch.
        let (mut ctx, k, buf) = setup();
        let mut q = CommandQueue::new();
        for (work_dim, global, local) in [
            (1, [8, 1, 1], [0, 1, 1]),
            (1, [10, 1, 1], [4, 1, 1]),
            (0, [8, 1, 1], [4, 1, 1]),
            (3, [1 << 32, 1 << 32, 4], [1, 1, 1]),
            (1, [1 << 40, 1, 1], [1, 1, 1]),
        ] {
            let nd = NdRange {
                work_dim,
                global,
                local,
            };
            let err = q.enqueue_nd_range(&mut ctx, &k, nd);
            assert!(
                matches!(err, Err(ClError::InvalidWorkGroupSize(_))),
                "{nd:?}: {err:?}"
            );
        }
        assert_eq!(ctx.read_i32(buf).unwrap(), vec![0; 16], "nothing ran");
    }

    #[test]
    fn oversized_dynamic_local_memory_is_out_of_resources() {
        // 2^30 floats are 4 GiB, past `u32::MAX` bytes: the request must
        // saturate and fail the device check, not wrap to 0 bytes.
        let mut ctx = Context::new(&Platform::test_tiny());
        let p = Program::build(
            "kernel void k(global float* o, local float* tile) {
                tile[get_local_id(0)] = 1.0f;
                o[get_global_id(0)] = tile[get_local_id(0)];
            }",
        )
        .unwrap();
        let mut k = p.create_kernel("k").unwrap();
        let buf = ctx.create_buffer(4 * 4);
        k.set_arg(0, Arg::Buffer(buf)).unwrap();
        k.set_arg(1, Arg::Local { elems: 1 << 30 }).unwrap();
        assert_eq!(
            launch_requirements(&k, NdRange::new_1d(4, 4)).local_mem,
            u32::MAX
        );
        match CommandQueue::new().enqueue_nd_range(&mut ctx, &k, NdRange::new_1d(4, 4)) {
            Err(ClError::OutOfResources(msg)) => {
                assert!(msg.starts_with("work group needs 4294967295B local / "));
                assert!(msg.ends_with(" regs; device offers 1024B / 4096"), "{msg}");
            }
            other => panic!("expected OutOfResources, got {other:?}"),
        }
    }

    #[test]
    fn execution_failures_are_surfaced() {
        let mut ctx = Context::new(&Platform::test_tiny());
        let p = Program::build("kernel void oob(global int* b) { b[1000000] = 1; }").unwrap();
        let mut k = p.create_kernel("oob").unwrap();
        let buf = ctx.create_buffer(4);
        k.set_arg(0, Arg::Buffer(buf)).unwrap();
        let mut q = CommandQueue::new();
        let err = q.enqueue_nd_range(&mut ctx, &k, NdRange::new_1d(1, 1));
        assert!(matches!(err, Err(ClError::ExecutionFailure(_))));
    }
}
