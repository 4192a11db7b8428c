//! Disassembly of bundled Parboil kernels through the bytecode tier.
//!
//! Lowers a kernel at its bundled launch shape (datasets at scale 1,
//! seed 7 — the same preparation the differential suites use), runs the
//! once-per-launch optimization pipeline, and renders both programs. The
//! same renderer backs the `repro disasm <kernel>` subcommand and the
//! golden-snapshot test (`tests/golden/bytecode_spmv.txt`), so the
//! lowered and optimized forms are pinned byte-for-byte.

use clrt::{Context, Platform, Program};
use kernel_ir::interp::Interpreter;
use parboil::datasets::prepare_launch;
use parboil::KernelSpec;

/// Lower and optimize the named bundled kernel and render both forms
/// (`== lowered ==` / `== optimized ==`, one instruction per line).
///
/// # Errors
///
/// Returns a human-readable message when `name` is not a bundled kernel,
/// its dataset cannot be prepared, or the launch does not plan.
pub fn disassemble_parboil(name: &str) -> Result<String, String> {
    let spec = KernelSpec::by_name(name).ok_or_else(|| {
        format!(
            "unknown kernel `{name}` (bundled: {})",
            KernelSpec::all()
                .iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    let mut ctx = Context::new(&Platform::nvidia());
    let program =
        Program::build(spec.source).map_err(|e| format!("`{name}` failed to build: {e}"))?;
    let prepared = prepare_launch(spec, &mut ctx, &program, 1, 7)
        .map_err(|e| format!("`{name}` dataset preparation failed: {e}"))?;
    let kernel = prepared.kernel;
    let args = kernel
        .resolved_args()
        .map_err(|e| format!("`{name}` arguments did not resolve: {e}"))?;
    let interp = Interpreter::with_facts(kernel.module(), kernel.facts());
    let body = interp
        .disassemble_kernel(ctx.memory_mut(), kernel.name(), prepared.ndrange, &args)
        .map_err(|e| format!("`{name}` launch does not plan: {e}"))?;
    Ok(format!(
        "bytecode for `{name}` (launch {:?})\n{body}",
        prepared.ndrange
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bundled_kernel_disassembles() {
        for spec in KernelSpec::all() {
            let text =
                disassemble_parboil(spec.name).unwrap_or_else(|e| panic!("`{}`: {e}", spec.name));
            assert!(text.contains("== lowered =="), "`{}`", spec.name);
            assert!(text.contains("== optimized =="), "`{}`", spec.name);
        }
    }

    #[test]
    fn unknown_kernels_are_reported() {
        let err = disassemble_parboil("nope").unwrap_err();
        assert!(err.contains("unknown kernel `nope`"));
    }
}
