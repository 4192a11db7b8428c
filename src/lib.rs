//! # accelos-repro — umbrella crate for the accelOS (CGO 2016) reproduction
//!
//! Re-exports every workspace crate so integration tests and examples can
//! use a single dependency:
//!
//! * [`accelos`] — the paper's contribution (JIT, scheduler, runtime, and
//!   the pluggable [`accelos::policy`] scheduling-policy API);
//! * [`clrt`] — the OpenCL-style host API applications write against;
//! * [`minicl`] / [`kernel_ir`] — the compiler stack;
//! * [`gpu_sim`] — the discrete-event accelerator;
//! * [`parboil`] — the 25 benchmark kernels;
//! * [`elastic_kernels`] — the comparison baseline;
//! * [`sched_metrics`] — the §7.4 metrics;
//! * [`harness`] — workloads and experiment drivers.
//!
//! See `docs/ARCHITECTURE.md` for the crate-by-crate walkthrough and the
//! two execution planes that stand in for the paper's GPUs.

#![warn(missing_docs)]

pub use accel_harness as harness;
pub use accelos;
pub use clrt;
pub use elastic_kernels;
pub use gpu_sim;
pub use kernel_ir;
pub use minicl;
pub use parboil;
pub use sched_metrics;
