//! # kernel-ir — a typed IR for accelerator kernels
//!
//! The compiler substrate of the accelOS (CGO 2016) reproduction. OpenCL-like
//! kernels are lowered (by the `minicl` front end) into this IR, analysed,
//! transformed by the accelOS JIT, and executed by the bundled NDRange
//! [`interp`]reter.
//!
//! The crate provides:
//!
//! * [`ir`] — modules, functions, basic blocks, instructions;
//! * [`builder`] — ergonomic function construction;
//! * [`verify`] — structural/type/dominance verification;
//! * [`analysis`] — liveness, register pressure, local-memory usage,
//!   instruction counts, call graphs (the inputs to the paper's §3
//!   resource-sharing equations);
//! * [`link`] — module linking (for the GPU scheduling runtime library);
//! * [`inline`] — function inlining (vendor compilers inline by default,
//!   which §6.5 of the paper relies on);
//! * [`interp`] — a work-group-accurate interpreter with barriers, local
//!   memory and atomics;
//! * [`bytecode`] — a compiled execution tier: dense register bytecode with
//!   a launch-specialising optimizer, bit-identical to the interpreter;
//! * [`testgen`] — the shared random-kernel generator behind the
//!   differential-fuzz test planes;
//! * [`races`] — the `accelcheck` static race & barrier-divergence analyzer
//!   gating cross-group parallel interpretation;
//! * [`lint`] — structural lints over the IR with a pluggable registry;
//! * [`profile`] — per-kernel resource summaries.
//!
//! # Example
//!
//! ```
//! use kernel_ir::builder::FunctionBuilder;
//! use kernel_ir::interp::{ArgValue, DeviceMemory, Interpreter, NdRange};
//! use kernel_ir::ir::{BinOp, FunctionKind, Module, WiBuiltin};
//! use kernel_ir::types::{AddressSpace, Type};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // kernel void axpy(global f32* x, global f32* y, f32 a) { y[i] += a*x[i]; }
//! let mut b = FunctionBuilder::new("axpy", FunctionKind::Kernel, Type::Void);
//! let x = b.add_param("x", Type::ptr(AddressSpace::Global, Type::F32));
//! let y = b.add_param("y", Type::ptr(AddressSpace::Global, Type::F32));
//! let a = b.add_param("a", Type::F32);
//! let gid = b.work_item(WiBuiltin::GlobalId, 0);
//! let px = b.gep(x, gid);
//! let py = b.gep(y, gid);
//! let vx = b.load(px);
//! let vy = b.load(py);
//! let ax = b.bin(BinOp::Mul, a, vx);
//! let sum = b.bin(BinOp::Add, vy, ax);
//! b.store(py, sum);
//! b.ret(None);
//!
//! let mut m = Module::new();
//! m.insert_function(b.finish());
//! kernel_ir::verify::verify_module(&m)?;
//!
//! let mut mem = DeviceMemory::new();
//! let xb = mem.alloc(4 * 4);
//! let yb = mem.alloc(4 * 4);
//! mem.write_f32(xb, &[1.0, 2.0, 3.0, 4.0]);
//! mem.write_f32(yb, &[10.0, 10.0, 10.0, 10.0]);
//! Interpreter::new(&m).run_kernel(
//!     &mut mem,
//!     "axpy",
//!     NdRange::new_1d(4, 2),
//!     &[
//!         ArgValue::Buffer(xb),
//!         ArgValue::Buffer(yb),
//!         ArgValue::Scalar(kernel_ir::interp::Value::F32(2.0)),
//!     ],
//! )?;
//! assert_eq!(mem.read_f32(yb), vec![12.0, 14.0, 16.0, 18.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod bytecode;
pub mod display;
pub mod error;
pub mod inline;
pub mod interp;
pub mod ir;
pub mod link;
pub mod lint;
pub mod profile;
pub mod races;
pub mod testgen;
pub mod types;
pub mod verify;

pub use analysis::ModuleFacts;
pub use builder::FunctionBuilder;
pub use bytecode::ExecTier;
pub use error::{InterpError, IrError};
pub use interp::{ArgValue, BufferId, DeviceMemory, Interpreter, NdRange, OracleReport, Value};
pub use ir::{Function, FunctionKind, Module};
pub use lint::{Diagnostic, Severity};
pub use profile::KernelProfile;
pub use races::{KernelRaceReport, LaunchEnv, ParallelSafety};
pub use types::{AddressSpace, Type};
