//! A look inside the accelOS JIT (paper §6): print a kernel's IR before and
//! after the six-step transformation, then prove semantic equivalence by
//! running both on the same buffers.
//!
//! ```text
//! cargo run --release --example transparent_jit
//! ```

use accelos::chunk::Mode;
use accelos::jit::transform_module;
use accelos::vrange::VirtualNdRange;
use kernel_ir::interp::{ArgValue, DeviceMemory, Interpreter, NdRange};

const SRC: &str = "kernel void blur(global const float* in, global float* out) {
    local float tile[16];
    size_t lid = get_local_id(0);
    size_t gid = get_global_id(0);
    size_t n = get_global_size(0);
    tile[lid] = in[gid];
    barrier(0);
    float left = tile[lid];
    if (lid > 0) { left = tile[lid - 1]; }
    float right = tile[lid];
    if (lid < get_local_size(0) - 1) { right = tile[lid + 1]; }
    out[gid] = (left + tile[lid] + right) / 3.0f;
    if (gid == n - 1) { out[gid] = tile[lid]; }
}";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let original = minicl::compile(SRC)?;
    println!(
        "=== original kernel ===\n{}",
        kernel_ir::display::print_module(&original)
    );

    let transformed = transform_module(&original, Mode::Optimized)?;
    let info = transformed.info("blur").expect("kernel exists");
    println!("=== after the accelOS JIT ===");
    println!(
        "scheduling kernel `{}` + computation fn `{}`; chunk {}, {} local declaration(s) hoisted\n",
        info.kernel, info.compute_fn, info.chunk, info.hoisted_locals
    );
    println!("{}", kernel_ir::display::print_module(&transformed.module));

    // Differential run: original over the full NDRange vs the transformed
    // scheduling kernel over 3 persistent work groups.
    let nd = NdRange::new_1d(128, 16);
    let input: Vec<f32> = (0..128).map(|i| (i as f32).sin()).collect();

    let run = |module: &kernel_ir::Module, virtualised: bool| -> Vec<f32> {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(128 * 4);
        let b = mem.alloc(128 * 4);
        mem.write_f32(a, &input);
        let mut args = vec![ArgValue::Buffer(a), ArgValue::Buffer(b)];
        let launch_nd = if virtualised {
            let v = VirtualNdRange::new(nd);
            let rt = mem.alloc(8 * v.descriptor().len());
            mem.write_i64(rt, &v.descriptor());
            args.push(ArgValue::Buffer(rt));
            v.hardware_range(3)
        } else {
            nd
        };
        Interpreter::new(module)
            .run_kernel_tiered(&mut mem, "blur", launch_nd, &args)
            .expect("kernel runs");
        mem.read_f32(b)
    };

    let base = run(&original, false);
    let xformed = run(&transformed.module, true);
    assert_eq!(base, xformed, "the JIT must preserve semantics");
    println!(
        "differential check: 8 work groups executed by 3 persistent workers — \
         outputs identical ({} elements).",
        base.len()
    );
    Ok(())
}
