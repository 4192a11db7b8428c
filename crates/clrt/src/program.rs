//! Programs and kernels.
//!
//! [`Program::build`] is the `clBuildProgram` analogue: it compiles MiniCL
//! source through the `minicl` front end into a `kernel-ir` module. This is
//! the exact call the accelOS JIT intercepts (paper §6.1, fig. 7): the
//! accelOS runtime builds a *transformed* module and hands it to the same
//! [`Kernel`] machinery.

use crate::context::Buffer;
use crate::error::ClError;
use kernel_ir::interp::ArgValue;
use kernel_ir::ir::Module;
use kernel_ir::{KernelProfile, ModuleFacts, Value};
use std::sync::Arc;

/// A built program: an IR module plus per-kernel resource profiles.
///
/// # Examples
///
/// ```
/// let program = clrt::Program::build(
///     "kernel void k(global float* o) { o[get_global_id(0)] = 1.0f; }",
/// ).unwrap();
/// assert_eq!(program.kernel_names(), vec!["k".to_string()]);
/// ```
#[derive(Debug, Clone)]
pub struct Program {
    module: Arc<Module>,
    facts: Arc<ModuleFacts>,
    profiles: Vec<KernelProfile>,
    source: Arc<str>,
}

impl Program {
    /// Compile MiniCL source (`clBuildProgram`). Each build is fresh,
    /// with its own [`ModuleFacts`]; the accelOS runtime's
    /// `ProxyCl::build_program` is the one that shares repeated builds.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::BuildFailure`] with the front end's diagnostic on
    /// any compile error, a source longer than
    /// [`minicl::MAX_SOURCE_BYTES`] included.
    pub fn build(source: &str) -> Result<Program, ClError> {
        let module = minicl::compile(source).map_err(|e| ClError::BuildFailure(e.to_string()))?;
        Self::from_module(module, source)
    }

    /// Wrap an already-lowered module (used by the accelOS JIT, which
    /// rewrites modules between interception and execution). The program
    /// gets its own [`ModuleFacts`].
    ///
    /// # Errors
    ///
    /// Returns [`ClError::BuildFailure`] if the module fails verification or
    /// profiling.
    pub fn from_module(module: Module, source: &str) -> Result<Program, ClError> {
        kernel_ir::verify::verify_module(&module)
            .map_err(|e| ClError::BuildFailure(e.to_string()))?;
        let profiles =
            KernelProfile::all(&module).map_err(|e| ClError::BuildFailure(e.to_string()))?;
        Ok(Program {
            facts: Arc::new(ModuleFacts::new(&module)),
            module: Arc::new(module),
            profiles,
            source: source.into(),
        })
    }

    /// Names of kernels in the program.
    pub fn kernel_names(&self) -> Vec<String> {
        self.module
            .kernel_names()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    /// The compiled module.
    pub fn module(&self) -> &Arc<Module> {
        &self.module
    }

    /// The accelcheck cache of the module: each kernel's race verdict and
    /// within-group proof, computed on first query and shared by every
    /// clone of this program and every kernel created from it.
    pub fn facts(&self) -> &Arc<ModuleFacts> {
        &self.facts
    }

    /// Original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Resource profile of one kernel.
    pub fn profile(&self, name: &str) -> Option<&KernelProfile> {
        self.profiles.iter().find(|p| p.name == name)
    }

    /// Instantiate a kernel object (`clCreateKernel`).
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidKernelName`] if the program has no kernel
    /// of that name.
    pub fn create_kernel(&self, name: &str) -> Result<Kernel, ClError> {
        let profile = self
            .profile(name)
            .cloned()
            .ok_or_else(|| ClError::InvalidKernelName(name.to_string()))?;
        let arity = self
            .module
            .function(name)
            .expect("profiled kernels exist in the module")
            .params
            .len();
        Ok(Kernel {
            module: Arc::clone(&self.module),
            facts: Arc::clone(&self.facts),
            name: name.to_string(),
            profile,
            args: vec![None; arity],
        })
    }
}

/// A kernel argument (`clSetKernelArg`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg {
    /// A device buffer for a `global`/`constant` pointer parameter.
    Buffer(Buffer),
    /// A scalar value.
    Scalar(Value),
    /// Dynamically sized `local` memory: element count (the element type
    /// comes from the kernel signature), mirroring
    /// `clSetKernelArg(k, i, n * sizeof(T), NULL)`.
    Local {
        /// Number of elements.
        elems: u32,
    },
}

/// A kernel with bound arguments.
///
/// # Examples
///
/// ```
/// use clrt::{Arg, Context, Platform, Program};
/// # fn main() -> Result<(), clrt::ClError> {
/// let mut ctx = Context::new(&Platform::test_tiny());
/// let program = Program::build(
///     "kernel void fill(global int* o, int v) { o[get_global_id(0)] = v; }",
/// )?;
/// let mut k = program.create_kernel("fill")?;
/// let buf = ctx.create_buffer(4 * 4);
/// k.set_arg(0, Arg::Buffer(buf))?;
/// k.set_arg(1, Arg::Scalar(kernel_ir::Value::I32(9)))?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Kernel {
    module: Arc<Module>,
    facts: Arc<ModuleFacts>,
    name: String,
    profile: KernelProfile,
    args: Vec<Option<Arg>>,
}

impl Kernel {
    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The module the kernel lives in.
    pub fn module(&self) -> &Arc<Module> {
        &self.module
    }

    /// Cached accelcheck analysis results for the module, shared with the
    /// [`Program`] the kernel was created from and its clones.
    pub fn facts(&self) -> &Arc<ModuleFacts> {
        &self.facts
    }

    /// The kernel's static resource profile.
    pub fn profile(&self) -> &KernelProfile {
        &self.profile
    }

    /// Number of declared parameters.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Bind argument `index` (`clSetKernelArg`).
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidArgs`] if `index` is out of range.
    pub fn set_arg(&mut self, index: usize, arg: Arg) -> Result<(), ClError> {
        let arity = self.args.len();
        let slot = self.args.get_mut(index).ok_or_else(|| {
            ClError::InvalidArgs(format!(
                "argument index {index} out of range: kernel takes {arity} arguments"
            ))
        })?;
        *slot = Some(arg);
        Ok(())
    }

    /// All bound arguments as interpreter values.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidArgs`] if any argument is unbound.
    pub fn resolved_args(&self) -> Result<Vec<ArgValue>, ClError> {
        self.args
            .iter()
            .enumerate()
            .map(|(i, a)| match a {
                Some(Arg::Buffer(b)) => Ok(ArgValue::Buffer(b.id)),
                Some(Arg::Scalar(v)) => Ok(ArgValue::Scalar(*v)),
                Some(Arg::Local { elems }) => Ok(ArgValue::Local { elems: *elems }),
                None => Err(ClError::InvalidArgs(format!("argument {i} is not set"))),
            })
            .collect()
    }

    /// Bytes of dynamically sized local memory requested via
    /// [`Arg::Local`] arguments, given the kernel signature.
    pub fn dynamic_local_bytes(&self) -> usize {
        let func = self.module.function(&self.name).expect("kernel exists");
        self.args
            .iter()
            .zip(&func.params)
            .map(|(a, p)| match (a, p.ty.pointee()) {
                (Some(Arg::Local { elems }), Some(elem)) => *elems as usize * elem.byte_size(),
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::platform::Platform;

    const SRC: &str = "kernel void k(global float* o, local float* tile, float s) {
        tile[get_local_id(0)] = s;
        barrier(0);
        o[get_global_id(0)] = tile[get_local_id(0)];
    }";

    #[test]
    fn build_and_create_kernel() {
        let p = Program::build(SRC).unwrap();
        assert_eq!(p.kernel_names(), vec!["k"]);
        let k = p.create_kernel("k").unwrap();
        assert_eq!(k.arity(), 3);
        assert!(k.profile().uses_barrier);
    }

    #[test]
    fn unknown_kernel_rejected() {
        let p = Program::build(SRC).unwrap();
        assert!(matches!(
            p.create_kernel("zzz"),
            Err(ClError::InvalidKernelName(_))
        ));
    }

    #[test]
    fn bad_source_reports_build_failure() {
        assert!(matches!(
            Program::build("kernel void ("),
            Err(ClError::BuildFailure(_))
        ));
    }

    #[test]
    fn unbound_args_rejected() {
        let p = Program::build(SRC).unwrap();
        let k = p.create_kernel("k").unwrap();
        assert!(matches!(k.resolved_args(), Err(ClError::InvalidArgs(_))));
    }

    #[test]
    fn dynamic_local_bytes_counts_local_args() {
        let mut ctx = Context::new(&Platform::test_tiny());
        let p = Program::build(SRC).unwrap();
        let mut k = p.create_kernel("k").unwrap();
        let b = ctx.create_buffer(64);
        k.set_arg(0, Arg::Buffer(b)).unwrap();
        k.set_arg(1, Arg::Local { elems: 16 }).unwrap();
        k.set_arg(2, Arg::Scalar(Value::F32(1.0))).unwrap();
        assert_eq!(k.dynamic_local_bytes(), 16 * 4);
        assert_eq!(k.resolved_args().unwrap().len(), 3);
    }

    #[test]
    fn out_of_range_arg_rejected() {
        let p = Program::build(SRC).unwrap();
        let mut k = p.create_kernel("k").unwrap();
        match k.set_arg(5, Arg::Local { elems: 1 }) {
            Err(ClError::InvalidArgs(msg)) => {
                assert_eq!(
                    msg,
                    "argument index 5 out of range: kernel takes 3 arguments"
                );
            }
            other => panic!("expected InvalidArgs, got {other:?}"),
        }
    }
}
