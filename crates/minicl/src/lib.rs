//! # minicl — a mini OpenCL C front end
//!
//! The front-end substrate of the accelOS (CGO 2016) reproduction. It
//! compiles a practical subset of OpenCL C ("MiniCL") into the [`kernel_ir`]
//! intermediate representation that the accelOS JIT transforms and the
//! bundled interpreter executes.
//!
//! Pipeline: [`token::lex`] → [`parser::parse`] → [`lower::lower`] →
//! `kernel_ir::verify`.
//!
//! The dialect covers what accelerator kernels actually use: scalar types
//! (`int`, `uint`, `long`, `size_t`, `float`, `double`, `bool`), pointers
//! qualified by `global`/`local`/`constant`/`private`, arrays in private or
//! local memory, `if`/`while`/`do`/`for`/`break`/`continue`/`return`,
//! work-item builtins (`get_global_id`, …), math builtins (`sqrt`, `exp`,
//! `min`/`max`, …), atomics (`atomic_add`, …) and `barrier()`. See
//! [`lower`] for the documented semantic simplifications.
//!
//! # Examples
//!
//! ```
//! use kernel_ir::interp::{ArgValue, DeviceMemory, Interpreter, NdRange};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = minicl::compile(
//!     "kernel void scale(global float* buf, float s) {
//!         size_t i = get_global_id(0);
//!         buf[i] = buf[i] * s;
//!     }",
//! )?;
//!
//! let mut mem = DeviceMemory::new();
//! let buf = mem.alloc(4 * 4);
//! mem.write_f32(buf, &[1.0, 2.0, 3.0, 4.0]);
//! Interpreter::new(&module).run_kernel(
//!     &mut mem,
//!     "scale",
//!     NdRange::new_1d(4, 2),
//!     &[ArgValue::Buffer(buf), ArgValue::Scalar(kernel_ir::Value::F32(10.0))],
//! )?;
//! assert_eq!(mem.read_f32(buf), vec![10.0, 20.0, 30.0, 40.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lower;
pub mod parser;
pub mod token;

pub use error::CompileError;

use kernel_ir::ir::Module;

/// Compile MiniCL source into a verified IR [`Module`].
///
/// # Errors
///
/// Returns a [`CompileError`] on a source longer than
/// [`MAX_SOURCE_BYTES`], on lexical, syntactic or type errors, on
/// nesting deeper than [`parser::MAX_NESTING`] levels, and an internal
/// error if the produced IR fails verification (which would be a bug in
/// the front end, not in the input).
pub fn compile(src: &str) -> Result<Module, CompileError> {
    if src.len() > MAX_SOURCE_BYTES {
        let before = &src.as_bytes()[..MAX_SOURCE_BYTES];
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let pos = token::Pos {
            line: 1 + before.iter().filter(|&&b| b == b'\n').count() as u32,
            col: 1 + (MAX_SOURCE_BYTES - line_start) as u32,
        };
        return Err(CompileError::at(
            pos,
            format!("source longer than {MAX_SOURCE_BYTES} bytes"),
        ));
    }
    match parser::parse_within(src, INLINE_NESTING)? {
        Ok(prog) => lower_and_verify(&prog),
        // Parsing and lowering recurse once per level: a deeper source is
        // compiled on a thread whose stack holds `MAX_NESTING` levels in
        // any build, whatever the stack of the calling thread.
        Err(_) => std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("minicl".into())
                .stack_size(DEEP_STACK)
                .spawn_scoped(scope, || lower_and_verify(&parser::parse(src)?))
                .map_err(|e| CompileError::new(format!("cannot start the compiler thread: {e}")))?
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }),
    }
}

/// Longest source the front end accepts, in bytes. A tenant's source is
/// compiled, and kept by the runtime's build cache, in full; beyond this
/// length it is rejected at the first byte past the cap. The 25 bundled
/// Parboil sources together are about 17 KB.
pub const MAX_SOURCE_BYTES: usize = 1 << 20;

/// Nesting compiled on the calling thread: deeper than any bundled
/// kernel, shallow enough for a small thread stack.
const INLINE_NESTING: u32 = 64;

/// Stack of the thread that compiles deeper sources (reserved, touched
/// only as deep as the source nests).
const DEEP_STACK: usize = 32 << 20;

fn lower_and_verify(prog: &ast::Program) -> Result<Module, CompileError> {
    let module = lower::lower(prog)?;
    kernel_ir::verify::verify_module(&module)
        .map_err(|e| CompileError::new(format!("internal: lowered IR failed verification: {e}")))?;
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_smoke() {
        let m = compile("kernel void k(global int* o) { o[get_global_id(0)] = 1; }").unwrap();
        assert_eq!(m.kernel_names(), vec!["k"]);
    }

    #[test]
    fn compile_reports_parse_errors() {
        assert!(compile("kernel void k( {").is_err());
    }

    #[test]
    fn compile_reports_type_errors() {
        assert!(compile("kernel void k(global int* o) { o[0] = nope(); }").is_err());
    }

    /// `void f(int x) { x = <expr>; }` with `depth` copies of `open` before and `close` after `x`.
    fn nested_src(depth: usize, open: &str, close: &str) -> String {
        format!(
            "void f(int x) {{ x = {}x{}; }}",
            open.repeat(depth),
            close.repeat(depth)
        )
    }

    #[test]
    fn nesting_limit_rejects_deep_source_with_a_position() {
        let too_deep = [
            nested_src(10_000, "(", ")"),
            nested_src(10_000, "- ", ""),
            nested_src(10_000, "!", ""),
            nested_src(10_000, "(int)", ""),
            nested_src(10_000, "x ? x : ", ""),
            nested_src(10_000, "x ? (", ") : x"),
            nested_src(10_000, "x + ", ""),
            nested_src(10_000, "", " * x"),
            format!(
                "void f(global int* a) {{ a[0] = a{}; }}",
                "[0]".repeat(10_000)
            ),
            nested_src(100, "(x + x + x + ", ")"),
            format!(
                "void f(int x) {{ {} x = 1; }}",
                "if (x) while (x) for (;;) ".repeat(4_000)
            ),
        ];
        for src in &too_deep {
            let err = compile(src).unwrap_err();
            assert!(err.message.contains("nesting deeper than"), "{err}");
            assert_eq!(err.pos.line, 1, "{err}");
            assert!(err.pos.col > 1, "{err}");
        }
    }

    #[test]
    fn source_length_cap_reports_the_first_byte_past_it() {
        let kernel = "kernel void k(global int* o) {\n o[0] = 1; }\n";
        let at_cap = format!("{kernel}{}", " ".repeat(MAX_SOURCE_BYTES - kernel.len()));
        assert!(compile(&at_cap).is_ok());
        let err = compile(&format!("{at_cap} ")).unwrap_err();
        let col = (MAX_SOURCE_BYTES - kernel.len() + 1) as u32;
        assert_eq!(err.pos, token::Pos { line: 3, col });
        assert!(err.message.contains("source longer than"), "{err}");
    }

    #[test]
    fn nesting_within_the_limit_parses() {
        for src in [
            nested_src(200, "(", ")"),
            nested_src(200, "- ", ""),
            nested_src(200, "x ? x : ", ""),
            nested_src(200, "x + ", ""),
            nested_src(60, "(x + x + ", ")"),
            format!("void f(int x) {{ {} x = 1; }}", "if (x) ".repeat(200)),
        ] {
            compile(&src).unwrap();
        }
    }
}
