//! # accelos — portable, transparent software managed scheduling on accelerators
//!
//! The primary contribution of the reproduced paper (Margiolas & O'Boyle,
//! *Portable and Transparent Software Managed Scheduling on Accelerators for
//! Fair Resource Sharing*, CGO 2016): a host runtime and JIT compiler that
//! let multiple kernel execution requests share an accelerator fairly,
//! without modifying applications, drivers or hardware.
//!
//! | paper section | module |
//! |---------------|--------|
//! | §3 resource-sharing algorithm (`x=T/Kw`, `y=L/Km`, `z=R/Kr`, greedy saturation) | [`resource`] |
//! | §5 host runtime: Application Monitor FSM, Kernel Scheduler | [`proxycl`], [`scheduler`] |
//! | §5 launching and recovery: one timing-plane episode, retries included | [`episode`] |
//! | §5 memory management, a standalone model the runtime does not call | [`memory`] |
//! | §6.2 six-step JIT kernel transformation | [`jit`] |
//! | §6.4 adaptive scheduling (chunked dequeues) | [`chunk`] |
//! | §2.4 Virtual NDRanges | [`vrange`] |
//! | sharing *policies* as first-class objects (baseline / EK / accelOS / extensions) | [`policy`] |
//!
//! # Examples
//!
//! Transparent fair sharing of one simulated device by two applications:
//!
//! ```
//! use accelos::chunk::Mode;
//! use accelos::proxycl::{PendingExec, ProxyCl};
//! use clrt::{Arg, Platform};
//! use kernel_ir::interp::NdRange;
//!
//! # fn main() -> Result<(), clrt::ClError> {
//! let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized);
//! let program = os.build_program(
//!     "kernel void inc(global int* b) {
//!         size_t i = get_global_id(0);
//!         b[i] = b[i] + 1;
//!     }",
//! )?;
//! let chunk = program.info("inc").unwrap().chunk;
//!
//! // Two "applications" arrive concurrently.
//! let mut execs = Vec::new();
//! let mut bufs = Vec::new();
//! for _ in 0..2 {
//!     let mut k = program.create_kernel("inc")?;
//!     let b = os.context_mut().create_buffer(32 * 4);
//!     os.context_mut().write_i32(b, &[0; 32])?;
//!     k.set_arg(0, Arg::Buffer(b))?;
//!     bufs.push(b);
//!     execs.push(PendingExec { kernel: k, chunk, ndrange: NdRange::new_1d(32, 8) });
//! }
//! let events = os.enqueue_concurrent(execs)?;
//! assert_eq!(events.len(), 2);
//! for b in bufs {
//!     assert_eq!(os.context_mut().read_i32(b)?, vec![1; 32]);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod chunk;
pub mod episode;
pub mod jit;
pub mod memory;
pub mod policy;
pub mod proxycl;
pub mod resource;
pub mod scheduler;
pub mod vrange;

pub use chunk::{chunk_for, Mode};
pub use episode::{Episode, EpisodeOutcome, RetryPolicy};
pub use jit::{transform_module, TransformInfo, TransformedProgram};
pub use policy::{
    plan_with_arrivals, plan_with_arrivals_and_faults, AccelOsPolicy, ArrivalPlan, ArrivalSchedule,
    BaselinePolicy, ElasticKernelsPolicy, FaultSchedule, GuidedPolicy, PlanCtx, PolicyFault,
    PolicyFaultKind, PolicySet, PriorityPolicy, SchedulingPolicy, TimedReclaim, WeightedPolicy,
    WorkerReclaim,
};
pub use proxycl::{PendingExec, ProxyCl, ProxyProgram};
pub use resource::{compute_shares, compute_weighted_shares, ResourceDemand, ShareAllocation};
pub use scheduler::{DecisionKind, ExecRequest, LaunchDecision};
pub use vrange::VirtualNdRange;
