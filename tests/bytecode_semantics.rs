//! Differential semantics of the bytecode execution tier.
//!
//! The contract under test (see `kernel_ir::bytecode`): for every kernel,
//! launch geometry, scalar argument and buffer state,
//!
//! ```text
//! tree-walker  ≡  optimized bytecode
//! ```
//!
//! bit-for-bit in memory contents AND in every `DynStats` counter, across
//! the sequential and the parallel schedule. Two proptest
//! planes (the shared `testgen` corpus — including the atomics-bearing
//! kernels accelcheck admits into the parallel path — and minicl-compiled
//! kernels with loops, barriers, local memory, helpers and every kind of
//! promoted private variable) plus directed endpoints: which compiled
//! variables are promoted to registers; trap parity (each construct the
//! verifier rejects lowers to a trap that fails only when reached, with
//! the tree-walker's error); and an overflowing gep, an error on both
//! tiers and through `ProxyCl`.

use kernel_ir::bytecode::ExecTier;
use kernel_ir::interp::{ArgValue, DeviceMemory, Interpreter, NdRange, Value};
use kernel_ir::testgen::{build_kernel, PATTERNS};
use kernel_ir::InterpError;
use proptest::prelude::*;

/// Run `module`'s kernel `k` on the bytecode tier, sequentially and on
/// `threads` threads, and insist on bit-identity with the sequential
/// tree-walker (memory and stats).
fn assert_tiers_agree(
    module: &kernel_ir::ir::Module,
    mem: &DeviceMemory,
    nd: NdRange,
    args: &[ArgValue],
    threads: usize,
    what: &str,
) {
    let interp = Interpreter::new(module);
    let mut seq_mem = mem.clone();
    let seq_stats = interp
        .run_kernel(&mut seq_mem, "k", nd, args)
        .unwrap_or_else(|e| panic!("{what}: tree-walk run failed: {e}"));

    let mut bc = Interpreter::new(module);
    bc.set_exec_tier(ExecTier::BytecodeOpt);
    for bc_threads in [1, threads] {
        let mut bc_mem = mem.clone();
        let bc_stats = bc
            .run_kernel_bytecode(&mut bc_mem, "k", nd, args, bc_threads)
            .unwrap_or_else(|e| panic!("{what}: bytecode run failed: {e}"));
        assert_eq!(
            seq_mem, bc_mem,
            "{what}: memory diverged on bytecode x{bc_threads}"
        );
        assert_eq!(
            seq_stats, bc_stats,
            "{what}: DynStats diverged on bytecode x{bc_threads}"
        );
    }
}

// ---------------------------------------------------------------------------
// Plane 1: the shared testgen corpus under random launches and buffer state
// ---------------------------------------------------------------------------

fn check_generated(
    pat_idx: usize,
    c: i64,
    local: usize,
    groups: usize,
    threads: usize,
    n: i32,
    seed: &[i32],
) {
    let pattern = PATTERNS[pat_idx];
    let module = build_kernel(pattern, c);
    let items = local * groups;
    let elems = 4 * items + 16;

    let mut mem = DeviceMemory::new();
    let a = mem.alloc(4 * elems);
    let bbuf = mem.alloc(4 * elems);
    let fill_a: Vec<i32> = (0..elems)
        .map(|i| seed[i % seed.len()].wrapping_mul(2 * i as i32 + 1))
        .collect();
    // `b` doubles as an index source (`Indirect` does `a[b[gid]]`), so its
    // contents stay in bounds; the values are still launch-random.
    let fill_b: Vec<i32> = (0..elems)
        .map(|i| seed[(i + 3) % seed.len()].rem_euclid(elems as i32))
        .collect();
    mem.write_i32(a, &fill_a);
    mem.write_i32(bbuf, &fill_b);
    let args = [
        ArgValue::Buffer(a),
        ArgValue::Buffer(bbuf),
        ArgValue::Scalar(Value::I32(n)),
    ];
    let nd = NdRange::new_1d(items, local);

    // The whole corpus runs on the VM.
    assert!(
        Interpreter::new(&module).bytecode_supported(&mem, "k", nd, &args),
        "{pattern:?} c={c} unexpectedly off the bytecode tier"
    );
    let what = format!("{pattern:?} c={c} local={local} groups={groups} n={n}");
    assert_tiers_agree(&module, &mem, nd, &args, threads, &what);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Optimized bytecode ≡ interpreter over the shared
    /// kernel corpus with random geometry, scalar args and buffer fills.
    /// `AtomicUnused`/`AtomicUsed` keep the atomics paths honest, and the
    /// parallel legs exercise the accelcheck gate on both sides.
    #[test]
    fn generated_corpus_agrees_across_tiers(
        pat_idx in 0usize..PATTERNS.len(),
        c in 0i64..4,
        local in 1usize..5,
        groups in 1usize..9,
        threads in 2usize..5,
        n in 0i32..64,
        seed in proptest::collection::vec(-100_000i32..100_000, 4..9),
    ) {
        check_generated(pat_idx, c, local, groups, threads, n, &seed);
    }
}

// ---------------------------------------------------------------------------
// Plane 2: compiled kernels — loops, barriers, local memory, helpers
// ---------------------------------------------------------------------------

/// Kernels covering what `testgen` does not: control flow the optimizer
/// must not fold away, barriers, local tiles and helper calls.
const CL_KERNELS: &[(&str, &str)] = &[
    (
        "loop",
        "kernel void k(global int* a, global int* b, int n) {
            size_t i = get_global_id(0);
            int s = 0;
            for (int j = 0; j < n; ++j) { s = s + b[j]; }
            a[i] = s + (int)i;
        }",
    ),
    (
        "tile",
        "kernel void k(global int* a, global int* b, int n) {
            local int tile[64];
            size_t lid = get_local_id(0);
            size_t ls = get_local_size(0);
            tile[lid] = b[get_global_id(0)];
            barrier(0);
            a[get_global_id(0)] = tile[ls - 1 - lid] + n;
        }",
    ),
    (
        "helper",
        "int scale(int x, int m) { return x * m + 1; }
        kernel void k(global int* a, global int* b, int n) {
            size_t i = get_global_id(0);
            a[i] = scale(b[i], n);
        }",
    ),
    (
        "hist",
        "kernel void k(global int* a, global int* b, int n) {
            size_t i = get_global_id(0);
            int bin = b[i] & 7;
            atomic_add(a + bin, 1);
        }",
    ),
    // A promoted variable declared in a loop body starts at zero on every
    // iteration, even when it is read before it is written.
    (
        "fresh_slot",
        "kernel void k(global int* a, global int* b, int n) {
            size_t i = get_global_id(0);
            int s = 0;
            for (int j = 0; j < n; ++j) { int x; s = s * 3 + x; x = b[j]; s = s + x; }
            a[i] = s;
        }",
    ),
    (
        "pointer_slot",
        "kernel void k(global int* a, global int* b, int n) {
            size_t i = get_global_id(0);
            global int* p = a;
            if (n > 3) { p = b; }
            p[i] = p[i] + n;
            p = a;
            a[i] = p[i] * 2;
        }",
    ),
    // Pointer arithmetic on a private array keeps every variable of the
    // program in memory.
    (
        "private_array",
        "kernel void k(global int* a, global int* b, int n) {
            size_t i = get_global_id(0);
            int t[4];
            for (int j = 0; j < 4; ++j) { t[j] = b[i] + j; }
            int x = t[n & 3];
            a[i] = x + t[(n + 1) & 3];
        }",
    ),
    (
        "typed_slots",
        "kernel void k(global int* a, global int* b, int n) {
            size_t i = get_global_id(0);
            float f = (float)b[i] * 0.5f;
            long l = (long)b[i] * (long)3;
            bool c = f < (float)n;
            double d = (double)f + 0.25;
            if (c) { l = l + (long)n; }
            a[i] = (int)l + (c ? 1 : 0) + (int)d;
        }",
    ),
    // Items wait at barriers inside a helper, so their callee frames
    // must survive while the other items of the group run.
    (
        "helper_barrier",
        "int exchange(local int* tile, int v, size_t lid, size_t ls) {
            tile[lid] = v;
            barrier(0);
            int w = tile[ls - 1 - lid];
            barrier(0);
            return w;
        }
        kernel void k(global int* a, global int* b, int n) {
            local int tile[64];
            size_t lid = get_local_id(0);
            size_t ls = get_local_size(0);
            int s = b[get_global_id(0)];
            for (int j = 0; j < 2; ++j) { s = exchange(tile, s + n, lid, ls) + j; }
            a[get_global_id(0)] = s;
        }",
    ),
    (
        "helper_locals",
        "int acc(int x, int m) { int t = x * m; int u = t + 1; return u - m; }
        kernel void k(global int* a, global int* b, int n) {
            size_t i = get_global_id(0);
            int s = b[i];
            for (int j = 0; j < n; ++j) { s = acc(s, j) & 65535; }
            a[i] = s;
        }",
    ),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Same identity over minicl-compiled kernels whose loops and
    /// barriers stress the frame/branch machinery rather than the indexing.
    #[test]
    fn compiled_kernels_agree_across_tiers(
        kernel_idx in 0..CL_KERNELS.len(),
        groups in 1usize..8,
        wg_pow in 0u32..5, // 1..16 work items per group
        threads in 2usize..5,
        n_raw in 0usize..64,
        seed in proptest::collection::vec(-100_000i32..100_000, 4..9),
    ) {
        let (name, src) = CL_KERNELS[kernel_idx];
        let wg = 1usize << wg_pow;
        let items = groups * wg;
        let elems = items + 8;
        let n = (n_raw % (items + 1)) as i32; // `loop` reads b[0..n]

        let module = minicl::compile(src).expect("compile");
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(4 * elems);
        let bbuf = mem.alloc(4 * elems);
        let fill: Vec<i32> = (0..elems)
            .map(|i| seed[i % seed.len()].wrapping_add(i as i32))
            .collect();
        mem.write_i32(a, &fill);
        mem.write_i32(bbuf, &fill);
        let args = [
            ArgValue::Buffer(a),
            ArgValue::Buffer(bbuf),
            ArgValue::Scalar(Value::I32(n)),
        ];
        let nd = NdRange::new_1d(items, wg);
        let what = format!("{name} nd={nd:?} n={n}");
        assert_tiers_agree(&module, &mem, nd, &args, threads, &what);
    }
}

#[test]
fn compiled_variables_are_promoted_unless_private_pointers_move() {
    // Every variable of the kernels above lives in a register after
    // optimization, except in the program that indexes a private array.
    for (name, src) in CL_KERNELS {
        let module = minicl::compile(src).expect("compile");
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(4 * 16);
        let b = mem.alloc(4 * 16);
        let args = [
            ArgValue::Buffer(a),
            ArgValue::Buffer(b),
            ArgValue::Scalar(Value::I32(5)),
        ];
        let text = Interpreter::new(&module)
            .disassemble_kernel(&mem, "k", NdRange::new_1d(16, 4), &args)
            .expect("disassembles");
        let optimized = &text[text.find("== optimized ==").unwrap()..];
        let (slots, cells) = (
            optimized.matches("alloca.slot").count(),
            optimized.matches("alloca.priv").count(),
        );
        if *name == "private_array" {
            assert_eq!(slots, 0, "{name}:\n{optimized}");
        } else {
            assert!(slots > 0 && cells == 0, "{name}:\n{optimized}");
        }
    }
}

// ---------------------------------------------------------------------------
// Directed endpoints: trap parity
// ---------------------------------------------------------------------------

/// The six constructs the verifier rejects and the lowering turns into
/// traps.
#[derive(Debug, Clone, Copy)]
enum Unverified {
    UnknownCallee,
    GlobalAlloca,
    HelperLocalAlloca,
    LoadWithoutResult,
    UnterminatedBlock,
    GepThroughNonPointer,
}

const UNVERIFIED: [Unverified; 6] = [
    Unverified::UnknownCallee,
    Unverified::GlobalAlloca,
    Unverified::HelperLocalAlloca,
    Unverified::LoadWithoutResult,
    Unverified::UnterminatedBlock,
    Unverified::GepThroughNonPointer,
];

/// `kernel void k(global int* out)` storing each item's id to `out[gid]`,
/// with `construct` in a side block that an always-true branch enters
/// when `reached` and skips otherwise. The kernel's first instruction is a
/// local alloca at the coordinates of the helper's, so a helper that
/// borrowed the kernel's slot would run instead of trapping.
fn unverified_kernel(construct: Unverified, reached: bool) -> kernel_ir::ir::Module {
    use kernel_ir::builder::FunctionBuilder;
    use kernel_ir::ir::{CmpOp, FunctionKind, Module, WiBuiltin};
    use kernel_ir::types::{AddressSpace, Type};

    let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
    let out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::I32));
    let _tile = b.alloca(Type::I32, 4, AddressSpace::Local);
    let gid = b.work_item(WiBuiltin::GlobalId, 0);
    let gid32 = b.cast(Type::I32, gid);
    let always = b.cmp(CmpOp::Eq, gid, gid);
    let side = b.new_block();
    let live = b.new_block();
    if reached {
        b.cond_br(always, side, live);
    } else {
        b.cond_br(always, live, side);
    }
    b.switch_to(side);
    match construct {
        Unverified::UnknownCallee => {
            b.call("missing", vec![], Type::I32);
        }
        Unverified::GlobalAlloca => {
            b.alloca(Type::I32, 1, AddressSpace::Global);
        }
        Unverified::HelperLocalAlloca => {
            b.call("h", vec![], Type::Void);
        }
        Unverified::LoadWithoutResult => {
            let p = b.gep(out, gid);
            b.load(p);
        }
        Unverified::UnterminatedBlock => {}
        Unverified::GepThroughNonPointer => {
            b.gep(gid, gid);
        }
    }
    b.br(live);
    b.switch_to(live);
    let p = b.gep(out, gid);
    b.store(p, gid32);
    b.ret(None);
    let mut kernel = b.finish();
    let side = &mut kernel.blocks[side.index()];
    match construct {
        Unverified::LoadWithoutResult => side.insts.last_mut().unwrap().result = None,
        Unverified::UnterminatedBlock => side.term = None,
        _ => {}
    }
    let mut module = Module::new();
    module.insert_function(kernel);
    if let Unverified::HelperLocalAlloca = construct {
        let mut h = FunctionBuilder::new("h", FunctionKind::Helper, Type::Void);
        let _slot = h.alloca(Type::I32, 4, AddressSpace::Local);
        h.ret(None);
        module.insert_function(h.finish());
    }
    assert!(
        kernel_ir::verify::verify_module(&module).is_err(),
        "{construct:?} must be rejected by the verifier"
    );
    module
}

fn unverified_launch() -> (DeviceMemory, NdRange, [ArgValue; 1]) {
    let mut mem = DeviceMemory::new();
    let buf = mem.alloc(4 * 8);
    (mem, NdRange::new_1d(8, 4), [ArgValue::Buffer(buf)])
}

#[test]
fn unreached_traps_leave_the_tiers_identical() {
    // A construct the verifier rejects fails only where a work item
    // reaches it; skipped, it changes nothing on either tier.
    for construct in UNVERIFIED {
        let module = unverified_kernel(construct, false);
        let (mem, nd, args) = unverified_launch();
        assert!(
            Interpreter::new(&module).bytecode_supported(&mem, "k", nd, &args),
            "{construct:?}: every launch that plans lowers"
        );
        assert_tiers_agree(&module, &mem, nd, &args, 3, &format!("{construct:?}"));
    }
}

#[test]
fn reached_traps_raise_the_tree_walkers_error() {
    // Where the tree-walker has an error for the construct, the VM's trap
    // raises the same one, sequentially and sharded.
    for construct in [
        Unverified::UnknownCallee,
        Unverified::GlobalAlloca,
        Unverified::HelperLocalAlloca,
        Unverified::LoadWithoutResult,
        Unverified::UnterminatedBlock,
    ] {
        let module = unverified_kernel(construct, true);
        let (mem, nd, args) = unverified_launch();
        let tree_err = Interpreter::new(&module)
            .run_kernel(&mut mem.clone(), "k", nd, &args)
            .expect_err("tree-walker must fail")
            .to_string();
        let mut bc = Interpreter::new(&module);
        bc.set_exec_tier(ExecTier::BytecodeOpt);
        for threads in [1, 3] {
            let bc_err = bc
                .run_kernel_bytecode(&mut mem.clone(), "k", nd, &args, threads)
                .expect_err("bytecode tier must fail")
                .to_string();
            assert_eq!(tree_err, bc_err, "{construct:?} x{threads}");
        }
    }
}

#[test]
fn reached_traps_return_invalid_instead_of_panicking() {
    // The tree-walker fails a gep through a non-pointer with a
    // value-dependent text; the VM returns `InterpError::Invalid` too.
    for construct in [Unverified::GepThroughNonPointer] {
        let module = unverified_kernel(construct, true);
        let (mem, nd, args) = unverified_launch();
        let mut bc = Interpreter::new(&module);
        bc.set_exec_tier(ExecTier::BytecodeOpt);
        for threads in [1, 3] {
            let err = bc.run_kernel_bytecode(&mut mem.clone(), "k", nd, &args, threads);
            assert!(
                matches!(err, Err(InterpError::Invalid(_))),
                "{construct:?} x{threads}: {err:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Golden disassembly snapshot
// ---------------------------------------------------------------------------

#[test]
fn spmv_disassembly_matches_golden_snapshot() {
    // Pins the lowered AND launch-optimized bytecode of spmv byte-for-byte
    // — the same text `repro disasm spmv` prints. Any change to the
    // lowering, the optimizer or the disassembler shows up as a reviewable
    // diff; regenerate deliberately with
    // `BLESS=1 cargo test --test bytecode_semantics`.
    let actual = accel_harness::disasm::disassemble_parboil("spmv").expect("spmv lowers");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/bytecode_spmv.txt"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden file missing — run `BLESS=1 cargo test --test bytecode_semantics` once");
    if actual != expected {
        for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
            assert_eq!(
                a,
                e,
                "spmv disassembly drifted from the golden snapshot at line {} — if the \
                 change is intentional, regenerate with BLESS=1 and review the diff",
                i + 1
            );
        }
        panic!(
            "spmv disassembly changed length: {} vs {} lines",
            actual.lines().count(),
            expected.lines().count()
        );
    }
}

#[test]
fn traps_are_identical_across_tiers() {
    // `a[c]` with c far past the buffer: every tier must fault, with the
    // same error text (the optimizer folds the address into the preamble
    // but must not change the runtime bounds check).
    let module = build_kernel(kernel_ir::testgen::Pattern::Const, 1 << 20);
    let mut mem = DeviceMemory::new();
    let a = mem.alloc(64);
    let bbuf = mem.alloc(64);
    let args = [
        ArgValue::Buffer(a),
        ArgValue::Buffer(bbuf),
        ArgValue::Scalar(Value::I32(0)),
    ];
    let nd = NdRange::new_1d(4, 4);

    let interp = Interpreter::new(&module);
    let tree_err = interp
        .run_kernel(&mut mem.clone(), "k", nd, &args)
        .expect_err("tree-walker must trap")
        .to_string();
    let mut bc = Interpreter::new(&module);
    bc.set_exec_tier(ExecTier::BytecodeOpt);
    let bc_err = bc
        .run_kernel_bytecode(&mut mem.clone(), "k", nd, &args, 1)
        .expect_err("bytecode tier must trap")
        .to_string();
    assert_eq!(tree_err, bc_err, "trap text diverged on the bytecode tier");
}

#[test]
fn overflowing_gep_is_an_error_on_every_tier() {
    // `a[i + n]` with `n = 2^62`: `(i + n) * 4` overflows `i64`. Both tiers
    // raise the same error (never an overflow panic, never a wrapped
    // address that lands back in the buffer), sequentially and sharded,
    // and a tenant's enqueue through ProxyCl fails instead of aborting.
    use accelos::chunk::Mode;
    use accelos::proxycl::ProxyCl;
    use clrt::{Arg, ClError, Platform};

    let src = "kernel void k(global int* a, long n) {
        size_t i = get_global_id(0);
        a[i + n] = 1;
    }";
    let n = 1i64 << 62;
    let module = minicl::compile(src).expect("compile");
    let mut mem = DeviceMemory::new();
    let a = mem.alloc(4 * 64);
    let args = [ArgValue::Buffer(a), ArgValue::Scalar(Value::I64(n))];
    let nd = NdRange::new_1d(64, 16);
    let tree = Interpreter::new(&module).run_kernel(&mut mem.clone(), "k", nd, &args);
    assert!(
        matches!(&tree, Err(InterpError::Invalid(m)) if m.contains("overflow")),
        "{tree:?}"
    );
    let mut bc = Interpreter::new(&module);
    bc.set_exec_tier(ExecTier::BytecodeOpt);
    for threads in [1, 3] {
        let mut bc_mem = mem.clone();
        let vm = bc.run_kernel_bytecode(&mut bc_mem, "k", nd, &args, threads);
        assert_eq!(tree, vm, "x{threads}");
        assert_eq!(bc_mem, mem, "x{threads}: nothing may be written");
    }

    let mut os = ProxyCl::new(&Platform::nvidia(), Mode::Optimized);
    let program = os.build_program(src).expect("build");
    let buf = os.context_mut().create_buffer(4 * 64);
    let mut kernel = program.create_kernel("k").unwrap();
    kernel.set_arg(0, Arg::Buffer(buf)).unwrap();
    kernel.set_arg(1, Arg::Scalar(Value::I64(n))).unwrap();
    let err = os.enqueue(&program, &kernel, nd);
    assert!(
        matches!(&err, Err(ClError::ExecutionFailure(m)) if m.contains("overflow")),
        "{err:?}"
    );
    assert_eq!(os.context_mut().read_i32(buf).unwrap(), vec![0; 64]);
}
