//! # gpu-sim — a discrete-event accelerator simulator
//!
//! The hardware substrate of the accelOS (CGO 2016) reproduction. No GPU is
//! available in this environment, so the paper's NVIDIA K20m and AMD
//! R9 295X2 are replaced by a deterministic discrete-event model of an
//! occupancy-limited many-core accelerator (see `docs/ARCHITECTURE.md`,
//! "The timing plane: `gpu-sim`", for why the substitution preserves the
//! paper's mechanisms).
//!
//! The simulator knows nothing about scheduling *policy*: callers describe
//! launches as hardware work groups (standard OpenCL), persistent dynamic
//! workers (accelOS) or persistent static workers (Elastic Kernels), and the
//! machine executes them under resource constraints. Baseline unfairness,
//! accelOS overlap and throughput gains are all emergent.
//!
//! # Examples
//!
//! ```
//! use gpu_sim::{DeviceConfig, KernelLaunch, LaunchPlan, Simulator, WorkGroupReq};
//!
//! // Two kernels that each flood the device serialise (paper fig. 1a)...
//! let req = WorkGroupReq { threads: 64, local_mem: 0, regs_per_thread: 1 };
//! let mut sim = Simulator::new(DeviceConfig::test_tiny());
//! let a = sim.add_launch(KernelLaunch {
//!     name: "a".into(), arrival: 0, req, mem_intensity: 0.0,
//!     plan: LaunchPlan::Hardware { wg_costs: vec![500; 32].into() },
//!     max_workers: None,
//! });
//! let b = sim.add_launch(KernelLaunch {
//!     name: "b".into(), arrival: 0, req, mem_intensity: 0.0,
//!     plan: LaunchPlan::Hardware { wg_costs: vec![500; 32].into() },
//!     max_workers: None,
//! });
//! let report = sim.run();
//! let a_end = report.kernel(a).end;
//! let b_start = report.kernel(b).first_start.unwrap();
//! assert!(b_start as f64 > a_end as f64 * 0.7, "b waited for most of a");
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod fault;
pub mod gantt;
pub mod launch;
pub mod report;
pub mod sim;

pub use config::{DeviceConfig, WorkGroupReq};
pub use fault::{FailureDomain, FaultEvent, FaultKind, FaultPlan, FaultSpec};
pub use launch::{Costs, KernelLaunch, LaunchId, LaunchPlan, ReclaimCmd, ResumeCmd};
pub use report::{KernelReport, SimReport, TraceEvent, TraceKind};
pub use sim::{PlacementStats, Simulator};
