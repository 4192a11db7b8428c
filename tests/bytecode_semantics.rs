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
//! the tree-walker's error); an overflowing gep, an error on both
//! tiers and through `ProxyCl`; lockstep groups running with every
//! item active (a failing division at a middle item, the step limit in
//! straight-line code, a full group again after a split reconverges);
//! private memory as automatic storage (one slot per alloca site in
//! its function's frame, frames released on return, a fresh zero on
//! every execution) with the call-depth cap; and slot forwarding (values,
//! steps and `mem_ops` kept) and the one storage lookup of a full group's
//! access through a uniform base (only its last item out of bounds).

use kernel_ir::interp::{ArgValue, DeviceMemory, DynStats, Interpreter, NdRange, Value};
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

    let bc = Interpreter::new(module);
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
    // Lockstep refusals: kernels whose items depend on one another within
    // a barrier interval (see `LOCKSTEP_VERDICTS`).
    (
        "neighbour_local",
        "kernel void k(global int* a, global int* b, int n) {
            local int t[64];
            size_t lid = get_local_id(0);
            t[lid] = b[get_global_id(0)];
            int x = t[(lid + 1) % get_local_size(0)];
            a[get_global_id(0)] = x + n;
        }",
    ),
    (
        "cross_item_global",
        "kernel void k(global int* a, global int* b, int n) {
            size_t i = get_global_id(0);
            a[i] = b[i] + n;
            b[i + 1] = a[i] * 3;
        }",
    ),
    // minicl accepts only integer atomics, so the order-dependent local
    // atomic stands in for a float one: an exchange, whose final value is
    // the last item's.
    (
        "xchg_local",
        "kernel void k(global int* a, global int* b, int n) {
            local int cell[1];
            size_t lid = get_local_id(0);
            if (lid == 0) { cell[0] = n; }
            barrier(0);
            atomic_xchg(cell, b[get_global_id(0)]);
            barrier(0);
            a[get_global_id(0)] = cell[0];
        }",
    ),
    // Every item takes the branch, but its condition reads the local id.
    (
        "divergent_barrier",
        "kernel void k(global int* a, global int* b, int n) {
            local int t[64];
            size_t lid = get_local_id(0);
            t[lid] = b[get_global_id(0)] + n;
            if (lid < get_local_size(0)) { barrier(0); }
            a[get_global_id(0)] = t[get_local_size(0) - 1 - lid];
        }",
    ),
    // Lockstep with real divergence: the items split and reconverge.
    (
        "row_lengths",
        "kernel void k(global int* a, global int* b, int n) {
            size_t i = get_global_id(0);
            int len = b[i] & 7;
            int s = n;
            for (int j = 0; j < len; ++j) { s = s * 3 + b[i + (size_t)j]; }
            a[i] = s;
        }",
    ),
    (
        "early_break",
        "kernel void k(global int* a, global int* b, int n) {
            size_t i = get_global_id(0);
            int s = 0;
            for (int j = 0; j < 8; ++j) {
                int v = b[i + (size_t)j];
                if ((v & 3) == (n & 3)) { break; }
                s = s + v;
            }
            a[i] = s;
        }",
    ),
    (
        "nested_ifs",
        "kernel void k(global int* a, global int* b, int n) {
            local int t[64];
            size_t lid = get_local_id(0);
            size_t ls = get_local_size(0);
            int x = b[get_global_id(0)];
            int r = 0;
            if (x > n) {
                if ((x & 1) == 1) { r = x * 2; } else { r = x - 3; }
            } else {
                if ((x & 3) == 2) { r = 7; }
            }
            t[lid] = r;
            barrier(0);
            a[get_global_id(0)] = t[ls - 1 - lid] + r;
        }",
    ),
    // Barrier loops over uniform counters, settled by the launch-time
    // evaluation of every interval instance: histo_prescan's tree
    // reduction and splitSort's bitonic steps (with the data-dependent
    // swap), then a variant of each where two items meet.
    (
        "tree_reduce_local",
        "kernel void k(global int* a, global int* b, int n) {
            local int lo[64];
            size_t lid = get_local_id(0);
            lo[lid] = b[get_global_id(0)];
            barrier(0);
            int stride = (int)get_local_size(0) / 2;
            while (stride > 0) {
                if ((int)lid < stride) { lo[lid] = min(lo[lid], lo[lid + stride]) + n; }
                barrier(0);
                stride = stride / 2;
            }
            a[get_global_id(0)] = lo[0] + lo[lid];
        }",
    ),
    (
        "bitonic_local",
        "kernel void k(global int* a, global int* b, int n) {
            local int tile[64];
            size_t lid = get_local_id(0);
            size_t ls = get_local_size(0);
            tile[lid] = b[get_global_id(0)] + n;
            barrier(0);
            int k = 2;
            while (k <= (int)ls) {
                int j = k / 2;
                while (j > 0) {
                    int ixj = (int)lid ^ j;
                    if (ixj > (int)lid) {
                        int x = tile[lid];
                        int y = tile[ixj];
                        bool up = ((int)lid & k) == 0;
                        if (up && x > y) { tile[lid] = y; tile[ixj] = x; }
                        if (!up && x < y) { tile[lid] = y; tile[ixj] = x; }
                    }
                    barrier(0);
                    j = j / 2;
                }
                k = k * 2;
            }
            a[get_global_id(0)] = tile[lid];
        }",
    ),
    (
        "tree_reduce_overlap",
        "kernel void k(global int* a, global int* b, int n) {
            local int lo[64];
            size_t lid = get_local_id(0);
            lo[lid] = b[get_global_id(0)];
            barrier(0);
            int stride = (int)get_local_size(0) / 2;
            while (stride > 0) {
                if ((int)lid <= stride) { lo[lid] = min(lo[lid], lo[lid + stride]) + n; }
                barrier(0);
                stride = stride / 2;
            }
            a[get_global_id(0)] = lo[0] + lo[lid];
        }",
    ),
    (
        "bitonic_unguarded",
        "kernel void k(global int* a, global int* b, int n) {
            local int tile[64];
            size_t lid = get_local_id(0);
            size_t ls = get_local_size(0);
            tile[lid] = b[get_global_id(0)] + n;
            barrier(0);
            int k = 2;
            while (k <= (int)ls) {
                int j = k / 2;
                while (j > 0) {
                    int ixj = (int)lid ^ j;
                    int x = tile[lid];
                    int y = tile[ixj];
                    bool up = ((int)lid & k) == 0;
                    if (up && x > y) { tile[lid] = y; tile[ixj] = x; }
                    if (!up && x < y) { tile[lid] = y; tile[ixj] = x; }
                    barrier(0);
                    j = j / 2;
                }
                k = k * 2;
            }
            a[get_global_id(0)] = tile[lid];
        }",
    ),
    // At groups of eight, items 0 and 2 store to `t[0]` at the first
    // stride and at no other.
    (
        "first_stride_overlap",
        "kernel void k(global int* a, global int* b, int n) {
            local int t[64];
            size_t lid = get_local_id(0);
            t[lid] = b[get_global_id(0)];
            barrier(0);
            int s = (int)get_local_size(0) / 2;
            while (s > 0) {
                if ((int)lid < s) { t[((int)lid * s) % 8] = t[lid] + n; }
                barrier(0);
                s = s / 2;
            }
            a[get_global_id(0)] = t[lid];
        }",
    ),
    // `p` points at either buffer as the data say: an untraceable store.
    (
        "pointer_by_data",
        "kernel void k(global int* a, global int* b, int n) {
            size_t i = get_global_id(0);
            global int* p = a;
            if (b[i] > n) { p = b; }
            p[i] = p[i] + n;
        }",
    ),
];

/// Whether the within-group proof admits each kernel of [`CL_KERNELS`] at
/// groups of several items.
const LOCKSTEP_VERDICTS: &[(&str, bool)] = &[
    ("loop", true),
    ("tile", true),
    ("helper", true),
    ("hist", true),
    ("fresh_slot", true),
    // `p` points at `b` when `n > 3`, which the launch fixes.
    ("pointer_slot", true),
    ("private_array", true),
    ("typed_slots", true),
    ("helper_barrier", true),
    ("helper_locals", true),
    ("neighbour_local", false),
    ("cross_item_global", false),
    ("xchg_local", false),
    ("divergent_barrier", false),
    ("row_lengths", true),
    ("early_break", true),
    ("nested_ifs", true),
    ("tree_reduce_local", true),
    ("bitonic_local", true),
    ("tree_reduce_overlap", false),
    ("bitonic_unguarded", false),
    ("first_stride_overlap", false),
    ("pointer_by_data", false),
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
fn lockstep_verdicts_are_pinned_and_both_paths_agree() {
    assert_eq!(LOCKSTEP_VERDICTS.len(), CL_KERNELS.len());
    for ((name, src), (vname, lockstep)) in CL_KERNELS.iter().zip(LOCKSTEP_VERDICTS) {
        assert_eq!(name, vname);
        let module = minicl::compile(src).expect("compile");
        let (items, wg) = (32, 8);
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(4 * (items + 8));
        let b = mem.alloc(4 * (items + 8));
        let fill: Vec<i32> = (0..items as i32 + 8)
            .map(|i| (i * 7919) % 113 - 40)
            .collect();
        mem.write_i32(a, &fill);
        mem.write_i32(b, &fill);
        let args = [
            ArgValue::Buffer(a),
            ArgValue::Buffer(b),
            ArgValue::Scalar(Value::I32(5)),
        ];
        let nd = NdRange::new_1d(items, wg);
        assert_eq!(
            Interpreter::new(&module).lockstep_eligible_in(&mem, "k", nd, &args),
            *lockstep,
            "`{name}`: lockstep verdict"
        );
        // A one-item group has nobody to race with.
        let single = NdRange::new_1d(items, 1);
        assert!(Interpreter::new(&module).lockstep_eligible_in(&mem, "k", single, &args));
        assert_tiers_agree(&module, &mem, nd, &args, 3, name);
    }
}

#[test]
fn lockstep_reports_the_lowest_items_first_error() {
    // Item `bad` divides by zero within a few steps; every other item
    // loops until the step limit. Item order reports the lowest item's
    // first error: item 0's step limit when `bad` > 0, the division when
    // `bad` is 0. Lockstep meets the division first either way.
    let src = "kernel void k(global int* a, global int* b, int n) {
        size_t i = get_global_id(0);
        if ((int)i == b[0]) { a[i] = b[i] / n; }
        int s = 0;
        for (int j = 0; j < 100000; ++j) { s = s + j; }
        a[i] = s;
    }";
    let module = minicl::compile(src).expect("compile");
    let config = kernel_ir::interp::InterpConfig {
        step_limit: 500,
        ..Default::default()
    };
    for bad in [0, 5, 13] {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(4 * 16);
        let b = mem.alloc(4 * 16);
        mem.write_i32(b, &[bad; 16]);
        let args = [
            ArgValue::Buffer(a),
            ArgValue::Buffer(b),
            ArgValue::Scalar(Value::I32(0)),
        ];
        let nd = NdRange::new_1d(16, 8);
        let tree =
            Interpreter::with_config(&module, config).run_kernel(&mut mem.clone(), "k", nd, &args);
        let vm = Interpreter::with_config(&module, config);
        assert!(vm.lockstep_eligible_in(&mem, "k", nd, &args));
        for threads in [1, 3] {
            let got = vm.run_kernel_bytecode(&mut mem.clone(), "k", nd, &args, threads);
            assert_eq!(got, tree, "bad item {bad}, {threads} threads");
        }
        let want_limit = bad != 0;
        assert_eq!(
            matches!(tree, Err(InterpError::StepLimitExceeded(500))),
            want_limit,
            "{tree:?}"
        );
    }
}

/// One sequential run: its result and the memory it left.
type Run = (Result<DynStats, InterpError>, DeviceMemory);

/// Run `src`'s kernel `k` sequentially on both tiers under `config`,
/// after checking that the VM runs the launch in lockstep: the
/// tree-walker's run, then the VM's.
fn run_lockstep_and_tree(
    src: &str,
    mem: &DeviceMemory,
    nd: NdRange,
    args: &[ArgValue],
    config: kernel_ir::interp::InterpConfig,
) -> (Run, Run) {
    let module = minicl::compile(src).expect("compile");
    let interp = Interpreter::with_config(&module, config);
    assert!(interp.lockstep_eligible_in(mem, "k", nd, args));
    let (mut tree_mem, mut vm_mem) = (mem.clone(), mem.clone());
    let tree = interp.run_kernel(&mut tree_mem, "k", nd, args);
    let vm = interp.run_kernel_bytecode(&mut vm_mem, "k", nd, args, 1);
    ((tree, tree_mem), (vm, vm_mem))
}

#[test]
fn full_mask_division_by_zero_fails_the_middle_item() {
    // No branch precedes the division, so the whole group is active when
    // it runs. The item holding the zero fails; lower items store, higher
    // ones never reach the store, in lockstep as in item order.
    let src = "kernel void k(global int* a, global int* b, int n) {
        size_t i = get_global_id(0);
        int x = b[i];
        int q = n / x;
        int r = n % (x + 1);
        a[i] = q * 10 + r;
    }";
    let nd = NdRange::new_1d(16, 8);
    // (item, value): a zero divisor, then a zero `x + 1` for the remainder.
    for bad in [None, Some((3, 0)), Some((11, 0)), Some((12, -1))] {
        let mut fill: Vec<i32> = (0..16).map(|i| i * 3 + 2).collect();
        if let Some((i, v)) = bad {
            fill[i] = v;
        }
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(4 * 16);
        let b = mem.alloc(4 * 16);
        mem.write_i32(b, &fill);
        let args = [
            ArgValue::Buffer(a),
            ArgValue::Buffer(b),
            ArgValue::Scalar(Value::I32(1000)),
        ];
        let config = Default::default();
        let ((tree, tree_mem), (vm, vm_mem)) = run_lockstep_and_tree(src, &mem, nd, &args, config);
        assert_eq!(vm, tree, "{bad:?}");
        assert_eq!(vm_mem, tree_mem, "{bad:?}");
        match bad {
            None => assert!(tree.is_ok(), "{tree:?}"),
            Some((i, _)) => {
                assert_eq!(tree, Err(InterpError::DivideByZero));
                let out = tree_mem.read_i32(a);
                // Items of the failing group below the zero stored.
                let first = i / 8 * 8;
                assert!(out[first..i].iter().all(|&v| v != 0), "{out:?}");
                assert!(out[i..].iter().all(|&v| v == 0), "{out:?}");
            }
        }
    }
}

#[test]
fn full_mask_step_limit_fires_inside_straight_line_code() {
    // Straight-line code: every item of the group runs each instruction
    // at the same step, so the limit fires for item 0 at the instruction
    // where it does in item order, whatever that instruction is.
    let src = "kernel void k(global int* a, global int* b, int n) {
        size_t i = get_global_id(0);
        int x = b[i];
        float f = (float)x;
        x = x * 3 + n;
        f = f * 0.5f + (float)x;
        x = x ^ (x >> 2);
        f = f - (float)n;
        x = x * 7 - 1;
        f = f * f;
        x = x + (int)f;
        a[i] = x;
    }";
    let nd = NdRange::new_1d(16, 8);
    let mut mem = DeviceMemory::new();
    let a = mem.alloc(4 * 16);
    let b = mem.alloc(4 * 16);
    mem.write_i32(b, &(0..16).map(|i| i * 5 - 7).collect::<Vec<_>>());
    let args = [
        ArgValue::Buffer(a),
        ArgValue::Buffer(b),
        ArgValue::Scalar(Value::I32(3)),
    ];
    // Every item runs the same instructions (one more step each for the
    // terminators); sweep the limit across all of them.
    let (_, (run, _)) = run_lockstep_and_tree(src, &mem, nd, &args, Default::default());
    let per_item = run.expect("unlimited run").total_insns / 16;
    let (mut limited, mut finished, mut compared) = (0, 0, 0);
    for step_limit in 1..per_item + 4 {
        let config = kernel_ir::interp::InterpConfig {
            step_limit,
            ..Default::default()
        };
        let ((tree, tree_mem), (vm, vm_mem)) = run_lockstep_and_tree(src, &mem, nd, &args, config);
        assert_eq!(vm, tree, "step limit {step_limit}");
        match tree {
            Ok(_) => finished += 1,
            Err(InterpError::StepLimitExceeded(l)) => {
                assert_eq!(l, step_limit);
                limited += 1;
            }
            Err(e) => panic!("step limit {step_limit}: {e}"),
        }
        // Once item 0 has stored, the items after it may have run part of
        // the interval in lockstep; before that nothing is written.
        if tree.is_ok() || tree_mem == mem {
            assert_eq!(vm_mem, tree_mem, "step limit {step_limit}");
            compared += 1;
        }
    }
    // Only the limit that fires on the return, after the store, skips the
    // memory comparison.
    assert!(
        limited as u64 >= per_item && finished > 0 && compared + 1 >= limited + finished,
        "{limited} limited, {finished} finished, {compared} compared"
    );
}

#[test]
fn full_mask_resumes_after_a_split_reconverges() {
    // The group starts full, splits on varying branches (one of them
    // inside a uniform loop) and is full again after each reconvergence
    // point; operands mix uniform (`u`, `n`, `j`) and varying (`x`, `y`)
    // registers, with integer, float, cast and fallible operations.
    let src = "kernel void k(global int* a, global int* b, int n) {
        size_t i = get_global_id(0);
        int x = b[i];
        int u = n * 3 + 1;
        float f = (float)x * 0.25f + (float)u;
        int y = x * u + n;
        if (x > n) {
            y = y - x * 2;
            f = f * 2.0f;
        } else {
            y = y + u;
        }
        int z = y * u - x + (int)f;
        if (n > 4) { z = z + u; }
        int w = z / (u + 1) + z % 7;
        for (int j = 0; j < 3; ++j) {
            if ((x & 1) == j) { w = w + j; }
            w = w * 3 - u;
        }
        a[i] = w;
    }";
    let module = minicl::compile(src).expect("compile");
    let nd = NdRange::new_1d(32, 8);
    for (n, fill) in [
        (
            5,
            (0..40).map(|i| (i * 7919) % 23 - 6).collect::<Vec<i32>>(),
        ),
        (2, (0..40).map(|i| i % 3).collect()),
        (9, vec![-4; 40]),
        (0, (0..40).map(|i| i * 2 - 40).collect()),
    ] {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(4 * 40);
        let b = mem.alloc(4 * 40);
        mem.write_i32(b, &fill);
        let args = [
            ArgValue::Buffer(a),
            ArgValue::Buffer(b),
            ArgValue::Scalar(Value::I32(n)),
        ];
        assert!(Interpreter::new(&module).lockstep_eligible_in(&mem, "k", nd, &args));
        assert_tiers_agree(&module, &mem, nd, &args, 3, &format!("n={n}"));
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
        let bc = Interpreter::new(&module);
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
        let bc = Interpreter::new(&module);
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
    let bc = Interpreter::new(&module);
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
    let bc = Interpreter::new(&module);
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

// ---------------------------------------------------------------------------
// Private memory as automatic storage, and the call-depth cap
// ---------------------------------------------------------------------------

/// Run `module`'s kernel `k` on the tree-walker and on the VM at 1 and 3
/// threads, after checking whether the VM runs the launch in lockstep
/// (`lockstep`); the results must agree, and the memory too when the
/// launch succeeds. The tree-walker's result and memory.
fn agreed_run(
    module: &kernel_ir::ir::Module,
    mem: &DeviceMemory,
    nd: NdRange,
    args: &[ArgValue],
    lockstep: bool,
) -> Run {
    agreed_run_with(module, mem, nd, args, lockstep, Default::default())
}

/// [`agreed_run`] under `config`.
fn agreed_run_with(
    module: &kernel_ir::ir::Module,
    mem: &DeviceMemory,
    nd: NdRange,
    args: &[ArgValue],
    lockstep: bool,
    config: kernel_ir::interp::InterpConfig,
) -> Run {
    let interp = Interpreter::with_config(module, config);
    assert_eq!(interp.lockstep_eligible_in(mem, "k", nd, args), lockstep);
    let mut tree_mem = mem.clone();
    let tree = interp.run_kernel(&mut tree_mem, "k", nd, args);
    for threads in [1, 3] {
        let mut vm_mem = mem.clone();
        let vm = interp.run_kernel_bytecode(&mut vm_mem, "k", nd, args, threads);
        assert_eq!(vm, tree, "x{threads}");
        if tree.is_ok() {
            assert_eq!(vm_mem, tree_mem, "x{threads}");
        }
    }
    (tree, tree_mem)
}

/// The private arena's size in an out-of-bounds error.
fn private_arena_size(result: &Result<DynStats, InterpError>) -> usize {
    match result {
        Err(InterpError::OutOfBounds { what, size, .. }) if what == "private memory" => *size,
        other => panic!("expected a private out-of-bounds access, got {other:?}"),
    }
}

#[test]
fn loop_body_variables_keep_one_slot_per_site() {
    // `x` is allocated on every iteration, but it has one slot in the
    // kernel's frame: `t[n]` reports the frame (`a` 16 bytes, then `n`,
    // `j`, `x` and `t` 4 each) as the arena at every trip count. The
    // first kernel runs one item; the second, indexed by item (`i` adds
    // 8 bytes), four in one lockstep group.
    let one = "kernel void k(global int* a, int n) {
        for (int j = 0; j < n; ++j) { int x = j; a[0] = x; }
        int t[1];
        a[1] = t[n];
    }";
    let four = "kernel void k(global int* a, int n) {
        size_t i = get_global_id(0);
        for (int j = 0; j < n; ++j) { int x = j; a[i] = x; }
        int t[1];
        a[i] = t[n];
    }";
    for (src, items, frame) in [(one, 1, 32), (four, 4, 40)] {
        let module = minicl::compile(src).expect("compile");
        for n in [10, 1_000, 100_000] {
            let mut mem = DeviceMemory::new();
            let a = mem.alloc(4 * 4);
            let args = [ArgValue::Buffer(a), ArgValue::Scalar(Value::I32(n))];
            let nd = NdRange::new_1d(items, items);
            let (got, _) = agreed_run(&module, &mem, nd, &args, true);
            assert_eq!(private_arena_size(&got), frame, "{items} items, n = {n}");
        }
    }
}

#[test]
fn helper_frames_are_released_on_return() {
    // Each call of `h` pushes its frame (`v`, then `t[8]`) and its return
    // releases it, so after 1 or 1,000 calls the kernel's out-of-bounds
    // probe sees only the kernel's frame (`a` 16 bytes, `i` 8, and `n`,
    // `s`, `j`, `p` 4 each) and fails the same way. Every item storing
    // its own id to `a[0]` keeps the launch out of lockstep, so the VM
    // runs it in item order.
    for (race, lockstep) in [("", true), ("a[0] = (int)i;", false)] {
        let src = format!(
            "int h(int v) {{
                int t[8];
                t[v & 7] = v;
                return t[(v + 1) & 7] + t[v & 7];
            }}
            kernel void k(global int* a, int n) {{
                size_t i = get_global_id(0);
                int s = 0;
                for (int j = 0; j < n; ++j) {{ s = s + h(j + (int)i); }}
                {race}
                int p[1];
                a[i] = s + p[64];
            }}"
        );
        let module = minicl::compile(&src).expect("compile");
        let [once, often] = [1, 1_000].map(|n| {
            let mut mem = DeviceMemory::new();
            let a = mem.alloc(4 * 8);
            let args = [ArgValue::Buffer(a), ArgValue::Scalar(Value::I32(n))];
            let nd = NdRange::new_1d(8, 4);
            let (got, _) = agreed_run(&module, &mem, nd, &args, lockstep);
            assert_eq!(private_arena_size(&got), 40, "n = {n}");
            got
        });
        assert_eq!(once, often);
    }
}

#[test]
fn address_taken_loop_variable_is_fresh_each_iteration() {
    // `x` is allocated in the loop body and its address goes to `bump`,
    // so it stays in private memory (`alloca.priv`) while `s` and `j` are
    // promoted to registers. Each iteration reads it as zero before the
    // call, and `bump` makes it `j + 1`: `s = s · 10 + stale + x`. Run in
    // lockstep, and in item order once every item also stores to `out[0]`.
    for race in [false, true] {
        let module = address_taken_kernel(race);
        let mut mem = DeviceMemory::new();
        let out_buf = mem.alloc(4 * 8);
        let args = [ArgValue::Buffer(out_buf), ArgValue::Scalar(Value::I32(4))];
        let nd = NdRange::new_1d(8, 4);
        let text = Interpreter::new(&module)
            .disassemble_kernel(&mem, "k", nd, &args)
            .expect("lowers");
        let optimized = &text[text.find("== optimized ==").expect("optimized section")..];
        assert_eq!(optimized.matches("alloca.priv").count(), 1, "{optimized}");
        assert_eq!(optimized.matches("alloca.slot").count(), 2, "{optimized}");
        let (got, out) = agreed_run(&module, &mem, nd, &args, !race);
        got.expect("runs");
        assert_eq!(out.read_i32(out_buf), vec![1234; 8]);
    }
}

/// The kernel of `address_taken_loop_variable_is_fresh_each_iteration`;
/// with `race`, every item also stores its total to `out[0]` first.
fn address_taken_kernel(race: bool) -> kernel_ir::ir::Module {
    use kernel_ir::builder::FunctionBuilder;
    use kernel_ir::ir::{BinOp, CmpOp, FunctionKind, Module, WiBuiltin};
    use kernel_ir::types::{AddressSpace, Type};

    let pi32 = Type::ptr(AddressSpace::Private, Type::I32);
    let mut h = FunctionBuilder::new("bump", FunctionKind::Helper, Type::Void);
    let p = h.add_param("p", pi32);
    let v = h.add_param("v", Type::I32);
    let old = h.load(p);
    let new = h.bin(BinOp::Add, old, v);
    h.store(p, new);
    h.ret(None);

    let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
    let out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::I32));
    let n = b.add_param("n", Type::I32);
    let s = b.alloca(Type::I32, 1, AddressSpace::Private);
    let j = b.alloca(Type::I32, 1, AddressSpace::Private);
    let zero = b.const_i32(0);
    b.store(s, zero);
    b.store(j, zero);
    let (header, body, exit) = (b.new_block(), b.new_block(), b.new_block());
    b.br(header);
    b.switch_to(header);
    let jv = b.load(j);
    let more = b.cmp(CmpOp::Lt, jv, n);
    b.cond_br(more, body, exit);
    b.switch_to(body);
    let x = b.alloca(Type::I32, 1, AddressSpace::Private);
    let stale = b.load(x);
    let one = b.const_i32(1);
    let j1 = b.bin(BinOp::Add, jv, one);
    b.call("bump", vec![x, j1], Type::Void);
    let xv = b.load(x);
    let sv = b.load(s);
    let ten = b.const_i32(10);
    let s10 = b.bin(BinOp::Mul, sv, ten);
    let s1 = b.bin(BinOp::Add, s10, stale);
    let s2 = b.bin(BinOp::Add, s1, xv);
    b.store(s, s2);
    b.store(j, j1);
    b.br(header);
    b.switch_to(exit);
    let gid = b.work_item(WiBuiltin::GlobalId, 0);
    let total = b.load(s);
    if race {
        b.store(out, total);
    }
    let at = b.gep(out, gid);
    b.store(at, total);
    b.ret(None);
    let mut module = Module::new();
    module.insert_function(b.finish());
    module.insert_function(h.finish());
    kernel_ir::verify::verify_module(&module).expect("verifies");
    module
}

#[test]
fn calls_nest_at_most_max_call_depth_deep() {
    // OpenCL C forbids recursion. A recursive kernel runs until its calls
    // nest `MAX_CALL_DEPTH` deep; the next call fails with the same error
    // on both tiers. The within-group proof refuses recursion, so the
    // lockstep side of the cap is a unit test in `kernel_ir::bytecode`.
    use kernel_ir::interp::MAX_CALL_DEPTH;
    let src = "int f(int d) { int x = d; if (d <= 0) { return 0; } return f(d - 1) + x; }
    kernel void k(global int* a, int d) { a[get_global_id(0)] = f(d); }";
    let module = minicl::compile(src).expect("compile");
    let deepest = MAX_CALL_DEPTH as i32 - 1;
    for d in [10, deepest, deepest + 1, 100_000] {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(4 * 4);
        let args = [ArgValue::Buffer(a), ArgValue::Scalar(Value::I32(d))];
        let (got, out) = agreed_run(&module, &mem, NdRange::new_1d(4, 2), &args, false);
        if d <= deepest {
            assert!(got.is_ok(), "d = {d}: {got:?}");
            assert_eq!(out.read_i32(a), vec![d * (d + 1) / 2; 4], "d = {d}");
        } else {
            assert_eq!(got, Err(InterpError::CallDepthExceeded(MAX_CALL_DEPTH)));
        }
    }
}

#[test]
fn helper_chain_builds_and_launches_on_both_tiers() {
    // A chain of 257 helpers, each adding its index to its argument and
    // calling the next. The runtime builds it (its within-group proof
    // inlines the whole chain, at a cost quadratic in its length) and
    // runs it in lockstep; the calls nest one level past
    // `MAX_CALL_DEPTH`, and both tiers fail alike, directly and through
    // ProxyCl.
    use accelos::chunk::Mode;
    use accelos::proxycl::ProxyCl;
    use accelos::vrange::VirtualNdRange;
    use clrt::{Arg, ClError, Platform};
    use kernel_ir::interp::MAX_CALL_DEPTH;
    let mut src = String::from("int f0(int d) { return d; }\n");
    for k in 1..257 {
        src += &format!(
            "int f{k}(int d) {{ int x = d + {k}; return f{}(x); }}\n",
            k - 1
        );
    }
    src += "kernel void k(global int* out) { size_t i = get_global_id(0); out[i] = f256((int)i); }";
    let mut os = ProxyCl::new(&Platform::nvidia(), Mode::Optimized);
    let program = os.build_program(&src).expect("build");
    let nd = NdRange::new_1d(16, 8);
    let out = os.context_mut().create_buffer(4 * 16);
    let mut kernel = program.create_kernel("k").unwrap();
    kernel.set_arg(0, Arg::Buffer(out)).unwrap();

    // The scheduling kernel, dequeuing the virtual range over two workers.
    let v = VirtualNdRange::new(nd);
    let rt = os.context_mut().create_buffer(8 * v.descriptor().len());
    os.context_mut().write_i64(rt, &v.descriptor()).unwrap();
    let mut launch = kernel.clone();
    let rt_index = launch.arity() - 1;
    launch.set_arg(rt_index, Arg::Buffer(rt)).unwrap();
    let args = launch.resolved_args().unwrap();
    let mem = os.context_mut().memory_mut().clone();
    let interp = Interpreter::with_facts(launch.module(), launch.facts());
    let hw = v.hardware_range(2);
    assert!(interp.lockstep_eligible_in(&mem, launch.name(), hw, &args));
    let tree = interp.run_kernel(&mut mem.clone(), launch.name(), hw, &args);
    assert_eq!(tree, Err(InterpError::CallDepthExceeded(MAX_CALL_DEPTH)));
    for threads in [1, 3] {
        let vm = interp.run_kernel_bytecode(&mut mem.clone(), launch.name(), hw, &args, threads);
        assert_eq!(vm, tree, "x{threads}");
    }

    let err = os.enqueue(&program, &kernel, nd);
    let depth = InterpError::CallDepthExceeded(MAX_CALL_DEPTH).to_string();
    assert!(
        matches!(&err, Err(ClError::ExecutionFailure(m)) if *m == depth),
        "{err:?}"
    );
    assert_eq!(os.context_mut().read_i32(out).unwrap(), vec![0; 16]);
}

// ---------------------------------------------------------------------------
// Compiled launch shapes: memoised, bound per launch, frames seeded from
// their preamble, groups sharded over parked helpers
// ---------------------------------------------------------------------------

/// The listing of a launch's programs without its first line (whether
/// they came from the memo), and that line's answer.
fn listing(
    interp: &Interpreter,
    mem: &DeviceMemory,
    kernel: &str,
    nd: NdRange,
    args: &[ArgValue],
) -> (bool, String) {
    let text = interp
        .compiled_listing(mem, kernel, nd, args)
        .unwrap_or_else(|e| panic!("`{kernel}` does not plan: {e}"));
    let (first, body) = text.split_once('\n').expect("a first line");
    (first == "memoised: true", body.to_string())
}

#[test]
fn memoised_programs_equal_fresh_compiles_on_parboil() {
    // Every Parboil kernel, untransformed and JIT-transformed (the
    // scheduling kernel, over two workers), at two launch shapes: each
    // shape's programs, memoised and bound to a second launch's new
    // buffers, equal a fresh compile of that launch, templates and code.
    use accelos::chunk::Mode;
    use accelos::jit::transform_module;
    use accelos::vrange::VirtualNdRange;
    use clrt::{Arg, Context, Platform, Program};
    use parboil::datasets::prepare_launch;
    use parboil::KernelSpec;
    for spec in KernelSpec::all() {
        let module = minicl::compile(spec.source).expect("compile");
        let transformed = transform_module(&module, Mode::Optimized).expect("transform");
        for jit in [false, true] {
            let m = if jit { &transformed.module } else { &module };
            let program = Program::from_module(m.clone(), spec.source).expect("wrap");
            let mut ctx = Context::new(&Platform::nvidia());
            let mut launch = |scale: usize| {
                let p = prepare_launch(spec, &mut ctx, &program, scale, 7).expect("prepare");
                let mut kernel = p.kernel;
                let mut nd = p.ndrange;
                if jit {
                    let v = VirtualNdRange::new(nd);
                    let rt = ctx.create_buffer(8 * v.descriptor().len());
                    ctx.write_i64(rt, &v.descriptor()).expect("descriptor");
                    let rt_index = kernel.arity() - 1;
                    kernel.set_arg(rt_index, Arg::Buffer(rt)).expect("bind rt");
                    nd = v.hardware_range(2);
                }
                (nd, kernel.resolved_args().expect("args"))
            };
            let launches: Vec<_> = [1, 2, 1, 2].into_iter().map(&mut launch).collect();
            let mem = ctx.memory_mut().clone();
            let shared = Interpreter::with_facts(program.module(), program.facts());
            let what = format!("`{}` (JIT: {jit})", spec.name);
            let firsts: Vec<_> = launches[..2]
                .iter()
                .map(|(nd, args)| listing(&shared, &mem, spec.entry, *nd, args).1)
                .collect();
            for (i, (nd, args)) in launches[2..].iter().enumerate() {
                let (memoised, bound) = listing(&shared, &mem, spec.entry, *nd, args);
                assert!(memoised, "{what}, shape {i}: not memoised");
                let fresh = Interpreter::new(program.module());
                let (again, compiled) = listing(&fresh, &mem, spec.entry, *nd, args);
                assert!(!again, "{what}: a fresh interpreter has no memo");
                assert_eq!(bound, compiled, "{what}, shape {i}: bound ≠ fresh");
                assert_ne!(bound, firsts[i], "{what}, shape {i}: new buffers not bound");
            }
        }
    }
}

#[test]
fn relaunches_rebind_new_zero_and_aliased_buffers() {
    // Constant-index accesses fold `b + 0`, `b + 1` and `a + 3` into the
    // preamble, so each relaunch must point them at its own buffers:
    // new ones, buffer 0 (whose arena word is 0, like an integer's) and
    // one buffer passed twice. The first kernel runs its items in order
    // (items 0 and 3 both write `a[3]`); the second runs in lockstep
    // whenever its buffers are distinct, so its lockstep layout's copy of
    // the preamble must be bound too.
    let sources = [
        (
            "kernel void k(global int* a, global int* b, int n) {
                size_t i = get_global_id(0);
                int head = b[0] + b[1];
                a[i] = b[i] * n + head;
                if (i == 0) { a[3] = head - n; }
            }",
            false,
        ),
        (
            "kernel void k(global int* a, global int* b, int n) {
                size_t i = get_global_id(0);
                a[i] = b[i] * n + b[0] - b[1];
            }",
            true,
        ),
    ];
    for (src, lockstep) in sources {
        let module = minicl::compile(src).expect("compile");
        let mut mem = DeviceMemory::new();
        let bufs: Vec<_> = (0..5).map(|_| mem.alloc(4 * 32)).collect();
        for (k, &b) in bufs.iter().enumerate() {
            let fill: Vec<i32> = (0..32)
                .map(|i| (i * 37 + 11 * k as i32) % 101 - 50)
                .collect();
            mem.write_i32(b, &fill);
        }
        assert_eq!(bufs[0], kernel_ir::BufferId(0));
        let nd = NdRange::new_1d(32, 8);
        let shared = Interpreter::new(&module);
        // (a, b, whether the launch's shape was compiled before): each
        // shape is first compiled with buffer 0 bound, then rebound away
        // from it.
        let launches = [
            (0, 3, false),
            (1, 2, true),
            (3, 0, true),
            (0, 0, false),
            (2, 2, true),
            (4, 4, true),
            (1, 4, true),
        ];
        for (a, b, seen) in launches {
            let what = format!("lockstep kernel: {lockstep}, a = buffer {a}, b = buffer {b}");
            let args = [
                ArgValue::Buffer(bufs[a]),
                ArgValue::Buffer(bufs[b]),
                ArgValue::Scalar(Value::I32(3)),
            ];
            assert_eq!(listing(&shared, &mem, "k", nd, &args).0, seen, "{what}");
            assert_eq!(
                shared.lockstep_eligible_in(&mem, "k", nd, &args),
                lockstep && a != b,
                "{what}"
            );
            let mut tree_mem = mem.clone();
            let tree = shared.run_kernel(&mut tree_mem, "k", nd, &args);
            for threads in [1, 3] {
                for interp in [&shared, &Interpreter::new(&module)] {
                    let mut vm_mem = mem.clone();
                    let vm = interp.run_kernel_bytecode(&mut vm_mem, "k", nd, &args, threads);
                    assert_eq!(vm, tree, "{what}, x{threads}");
                    assert_eq!(vm_mem, tree_mem, "{what}, x{threads}");
                }
            }
            mem = tree_mem;
        }
    }
}

#[test]
fn lockstep_frames_hold_no_stale_varying_slots() {
    // Frames copy only their preamble prefix: the varying slots past it
    // keep what the previous group, or a callee of another function laid
    // out at the same base, left there. Items diverge into helpers of
    // different frame sizes and call one helper again at the same base;
    // across 64 groups every item must see only its own writes.
    let src = "int wide(int x, int y) {
            int p = x * 3;
            int q = y ^ p;
            int r = q + (x & 7);
            return r * r - p;
        }
        int narrow(int x) { return x + 1; }
        kernel void k(global int* a, global int* b, int n) {
            size_t i = get_global_id(0);
            int x = b[i];
            int r = 0;
            if ((x & 1) == 0) { r = wide(x, n); } else { r = narrow(x) * 2; }
            int t = narrow(r);
            int u = 0;
            if (x > n) { u = wide(t, x); }
            a[i] = t + u;
        }";
    let module = minicl::compile(src).expect("compile");
    let (items, wg) = (512, 8);
    for round in 0..3 {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(4 * items);
        let b = mem.alloc(4 * items);
        let fill: Vec<i32> = (0..items as i32)
            .map(|i| (i * 7919 + round * 31) % 97 - 30)
            .collect();
        mem.write_i32(b, &fill);
        let args = [
            ArgValue::Buffer(a),
            ArgValue::Buffer(b),
            ArgValue::Scalar(Value::I32(round)),
        ];
        let (got, _) = agreed_run(&module, &mem, NdRange::new_1d(items, wg), &args, true);
        assert!(got.is_ok(), "round {round}: {got:?}");
    }
}

#[test]
fn concurrent_submitters_share_one_program() {
    // Four threads launch one program through shared facts, each with
    // its own memory, at two shapes and on three workers (the submitting
    // thread and two of its parked helpers): every launch equals the
    // tree-walker's.
    let (_, src) = CL_KERNELS
        .iter()
        .find(|(name, _)| *name == "helper_barrier")
        .expect("kernel");
    let module = minicl::compile(src).expect("compile");
    let facts = kernel_ir::ModuleFacts::new(&module);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (module, facts) = (&module, &facts);
            scope.spawn(move || {
                let interp = Interpreter::with_facts(module, facts);
                for round in 0..12 {
                    let wg = if round % 2 == 0 { 8 } else { 16 };
                    let items = 64;
                    let mut mem = DeviceMemory::new();
                    let a = mem.alloc(4 * items);
                    let b = mem.alloc(4 * items);
                    let fill: Vec<i32> = (0..items as i32).map(|i| i * (t + 1) - round).collect();
                    mem.write_i32(b, &fill);
                    let args = [
                        ArgValue::Buffer(a),
                        ArgValue::Buffer(b),
                        ArgValue::Scalar(Value::I32(t)),
                    ];
                    let nd = NdRange::new_1d(items, wg);
                    let mut tree_mem = mem.clone();
                    let tree = interp.run_kernel(&mut tree_mem, "k", nd, &args);
                    let vm = interp.run_kernel_bytecode(&mut mem, "k", nd, &args, 3);
                    assert_eq!(vm, tree, "thread {t}, round {round}");
                    assert_eq!(mem, tree_mem, "thread {t}, round {round}");
                }
            });
        }
    });
}

#[test]
fn launch_records_key_the_virtual_range() {
    // One JIT-transformed kernel, launched with one hardware range, one
    // set of arguments and one alias pattern; only its descriptor
    // changes, naming one virtual group and then four. Every group writes
    // the same bytes, so only the first may shard. Each descriptor gets
    // a record of its own (its first launch compiles, and relaunching
    // either hits), and each record's answers equal fresh analyses on its
    // `LaunchEnv`.
    use accelos::chunk::Mode;
    use accelos::jit::transform_module;
    use accelos::vrange::VirtualNdRange;
    let src = "kernel void k(global int* a, int n) { a[get_local_id(0)] = n; }";
    let module = minicl::compile(src).expect("compile");
    let jit = transform_module(&module, Mode::Optimized)
        .expect("transform")
        .module;
    let (report, contract) = kernel_ir::races::gate_report(&jit, "k").expect("report");
    assert!(contract.is_some(), "the dequeue contract holds");
    let proof = kernel_ir::races::lockstep_report(&jit, "k").expect("proof");
    let interp = Interpreter::new(&jit);
    let mut mem = DeviceMemory::new();
    let a = mem.alloc(4 * 8);
    let rt = mem.alloc(8 * 5);
    let args = [
        ArgValue::Buffer(a),
        ArgValue::Scalar(Value::I32(7)),
        ArgValue::Buffer(rt),
    ];
    let virtual_range = |groups: usize| VirtualNdRange::new(NdRange::new_1d(8 * groups, 8));
    let hw = virtual_range(1).hardware_range(2);
    let mut sharded = Vec::new();
    for groups in [1, 4] {
        let v = virtual_range(groups);
        assert_eq!(v.hardware_range(2), hw);
        mem.write_i64(rt, &v.descriptor());
        assert!(
            !listing(&interp, &mem, "k", hw, &args).0,
            "{groups} virtual groups: a new record"
        );
        let env = kernel_ir::LaunchEnv {
            local: hw.local,
            groups: [groups, 1, 1],
            work_dim: 1,
            args: &[None, Some(7)],
            distinct_buffers: true,
        };
        let answers = [
            interp.parallel_eligible_in(&mem, "k", hw, &args),
            interp.lockstep_eligible_in(&mem, "k", hw, &args),
        ];
        let fresh = [
            report.eligible_for_launch(&env),
            proof.eligible_for_launch(&env),
        ];
        assert_eq!(answers, fresh, "{groups} virtual groups");
        sharded.push(answers[0]);
        let mut tree_mem = mem.clone();
        let tree = interp.run_kernel(&mut tree_mem, "k", hw, &args);
        let vm = interp.run_kernel_bytecode(&mut mem, "k", hw, &args, 2);
        assert_eq!(vm, tree, "{groups} virtual groups");
        assert_eq!(mem, tree_mem, "{groups} virtual groups");
    }
    assert_eq!(sharded, [true, false], "the virtual range decides sharding");
    for groups in [1, 4] {
        mem.write_i64(rt, &virtual_range(groups).descriptor());
        assert!(
            listing(&interp, &mem, "k", hw, &args).0,
            "{groups} virtual groups: the record is kept"
        );
    }
}

#[test]
fn private_frames_past_the_cap_fail_at_launch() {
    // `int big[1 << 24]` asks 64 MiB of private memory per item. The launch
    // fails before any of it is allocated, with the same error on both
    // tiers. A frame of exactly `MAX_PRIVATE_FRAME_BYTES` still runs: the
    // array plus the 16-byte cell minicl gives the pointer parameter.
    use kernel_ir::interp::MAX_PRIVATE_FRAME_BYTES;
    let kernel = |ints: usize| {
        minicl::compile(&format!(
            "kernel void k(global int* a) {{
                int big[{ints}];
                big[get_global_id(0)] = (int)get_global_id(0);
                a[get_global_id(0)] = big[get_global_id(0)];
            }}"
        ))
        .expect("compile")
    };
    let cap = (MAX_PRIVATE_FRAME_BYTES - 16) / 4;
    for (ints, fits) in [(1 << 24, false), (cap + 1, false), (cap, true)] {
        let module = kernel(ints);
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(4 * 4);
        let args = [ArgValue::Buffer(a)];
        let (got, out) = agreed_run(&module, &mem, NdRange::new_1d(4, 2), &args, true);
        if fits {
            assert!(got.is_ok(), "{got:?}");
            assert_eq!(out.read_i32(a), vec![0, 1, 2, 3]);
        } else {
            assert!(
                matches!(&got, Err(InterpError::Invalid(m))
                    if m.contains(&format!("more than {MAX_PRIVATE_FRAME_BYTES} bytes"))),
                "{ints} ints: {got:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Slot forwarding and group-uniform storage
// ---------------------------------------------------------------------------

/// `kernel k(global int* in, global int* out)` built as IR, with one
/// promoted variable `x`. Per item `i`, with `v = in[i]`: `t = x` is read
/// after `x = 5`; `w = v + i` is stored to `x` after a read of `x`
/// (`old`); and `y = v + 1000` is stored to `x` and read again. So
/// `out[2i] = t·1000 + old = 1000·i + 5` and
/// `out[2i+1] = w·10000 + y + x = 10000·w + 2y`. With `race`, every item
/// also stores its id to `out[0]`, which keeps the launch out of lockstep.
fn forwarding_kernel(race: bool) -> kernel_ir::ir::Module {
    use kernel_ir::builder::FunctionBuilder;
    use kernel_ir::ir::{BinOp, FunctionKind, WiBuiltin};
    use kernel_ir::types::{AddressSpace, Type};
    let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
    let input = b.add_param("in", Type::ptr(AddressSpace::Global, Type::I32));
    let out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::I32));
    let x = b.alloca(Type::I32, 1, AddressSpace::Private);
    let gid = b.work_item(WiBuiltin::GlobalId, 0);
    let id = b.cast(Type::I32, gid);
    b.store(x, id);
    // `t` is read after `x` is written: its load stays.
    let t = b.load(x);
    let five = b.const_i32(5);
    b.store(x, five);
    let at_in = b.gep(input, gid);
    let v = b.load(at_in);
    // `x` is read between `w`'s definition and its store: the store stays.
    let w = b.bin(BinOp::Add, v, id);
    let old = b.load(x);
    b.store(x, w);
    let xw = b.load(x);
    // `y` is read by its store to `x` and once more: the store stays.
    let thousand = b.const_i32(1000);
    let y = b.bin(BinOp::Add, v, thousand);
    b.store(x, y);
    let xy = b.load(x);
    let t1000 = b.bin(BinOp::Mul, t, thousand);
    let first = b.bin(BinOp::Add, t1000, old);
    let two = b.const_i64(2);
    let at = b.bin(BinOp::Mul, gid, two);
    let at_first = b.gep(out, at);
    b.store(at_first, first);
    let ten_thousand = b.const_i32(10_000);
    let w_part = b.bin(BinOp::Mul, xw, ten_thousand);
    let y_part = b.bin(BinOp::Add, y, xy);
    let second = b.bin(BinOp::Add, w_part, y_part);
    let one = b.const_i64(1);
    let next = b.bin(BinOp::Add, at, one);
    let at_second = b.gep(out, next);
    b.store(at_second, second);
    if race {
        let zero = b.const_i64(0);
        let at_zero = b.gep(out, zero);
        b.store(at_zero, id);
    }
    b.ret(None);
    let mut m = kernel_ir::ir::Module::new();
    m.insert_function(b.finish());
    m
}

#[test]
fn slot_forwarding_keeps_values_steps_and_mem_ops() {
    // Slot forwarding removes most `load.slot`/`store.slot` copies (see
    // `kernel_ir::bytecode`). The IR kernel reads `t` after `x` is written
    // and `y` twice; the minicl kernel forwards a float slot `g`, which
    // the arithmetic must read as `f32`, and a loop's counter and sum.
    // Tree-walker and VM agree on the result, on every counter
    // (`mem_ops` included) and on memory, in lockstep and in item order,
    // and under every step limit up to one past the run: each forwarded
    // copy, and the instruction after it, has the limit fire on it.
    let cl = |race: &str| {
        minicl::compile(&format!(
            "kernel void k(global int* in, global int* out, global float* f, int n) {{
                size_t i = get_global_id(0);
                int x = in[i];
                int t = x;
                x = 5;
                float g = f[i];
                g = g * 0.5f + 0.25f;
                int s = 0;
                for (int j = 0; j < n; ++j) {{ s = s + j * x; x = x + t; }}
                out[2 * i] = t * 1000 + x;
                out[2 * i + 1] = s;
                f[i] = g;
                {race}
            }}"
        ))
        .expect("compile")
    };
    let nd = NdRange::new_1d(8, 4);
    for lockstep in [true, false] {
        let race = if lockstep { "" } else { "out[0] = (int)i;" };
        for (name, module) in [("ir", forwarding_kernel(!lockstep)), ("cl", cl(race))] {
            let mut mem = DeviceMemory::new();
            let input = mem.alloc(4 * 8);
            let out = mem.alloc(4 * 16);
            let f = mem.alloc(4 * 8);
            mem.write_i32(input, &(0..8).map(|i| 3 * i + 1).collect::<Vec<_>>());
            mem.write_f32(f, &(0..8).map(|i| i as f32 * 1.5 - 2.0).collect::<Vec<_>>());
            let mut args = vec![ArgValue::Buffer(input), ArgValue::Buffer(out)];
            if name == "cl" {
                args.extend([ArgValue::Buffer(f), ArgValue::Scalar(Value::I32(3))]);
            }
            let what = format!("{name}, lockstep {lockstep}");
            let text = Interpreter::new(&module)
                .disassemble_kernel(&mem, "k", nd, &args)
                .expect("disassembles");
            let optimized = &text[text.find("== optimized ==").unwrap()..];
            assert!(
                optimized.contains("(mem "),
                "{what}: nothing forwarded\n{optimized}"
            );
            let (run, after) = agreed_run(&module, &mem, nd, &args, lockstep);
            let stats = run.unwrap_or_else(|e| panic!("{what}: {e}"));
            let words = after.read_i32(out);
            if name == "ir" {
                for i in 0..8 {
                    let (v, first) = (3 * i + 1, i * 1000 + 5);
                    let second = (v + i) * 10_000 + 2 * (v + 1000);
                    // Item 0's first word is the race's in item order.
                    if lockstep || i > 0 {
                        assert_eq!(words[2 * i as usize], first, "{what}");
                    }
                    assert_eq!(words[2 * i as usize + 1], second, "{what}");
                }
            } else {
                let g: Vec<f32> = (0..8)
                    .map(|i| (i as f32 * 1.5 - 2.0) * 0.5 + 0.25)
                    .collect();
                assert_eq!(after.read_f32(f), g, "{what}");
            }
            // Every step limit from the first instruction to one past the
            // last item's run.
            let per_item = stats.total_insns / 8;
            for step_limit in 1..per_item + 2 {
                let config = kernel_ir::interp::InterpConfig {
                    step_limit,
                    ..Default::default()
                };
                let (got, _) = agreed_run_with(&module, &mem, nd, &args, lockstep, config);
                assert!(
                    matches!(got, Err(InterpError::StepLimitExceeded(l)) if l == step_limit)
                        || (got.is_ok() && step_limit >= per_item),
                    "{what}, step limit {step_limit}: {got:?}"
                );
            }
        }
    }
}

#[test]
fn out_of_bounds_on_the_last_item_of_a_full_group() {
    // A full group reaches one load or store through a group-uniform base
    // (a buffer argument, or a local array), and only the last item of
    // the last group strays past the end. Lockstep looks the storage up
    // once for the group; the last item still fails with the per-item
    // error, the items before it load or store, and the group before it
    // completes, as in item order, at 1 and 3 threads.
    // (what, kernel body, `out[i]` after the launch with `n` = 1)
    type Case = (&'static str, &'static str, fn(i32) -> i32);
    let cases: [Case; 4] = [
        ("global load", "out[i] = a[i + n];", |i| {
            if i < 15 {
                (i + 1) * 7 + 1
            } else {
                0
            }
        }),
        ("global store", "out[i + n] = a[i];", |i| {
            if i > 0 {
                (i - 1) * 7 + 1
            } else {
                0
            }
        }),
        (
            "local load",
            "tile[lid] = a[i]; barrier(0); out[i] = tile[lid + n * get_group_id(0)];",
            |i| match i {
                0..=7 => i * 7 + 1,
                8..=14 => (i + 1) * 7 + 1,
                _ => 0,
            },
        ),
        (
            "local store",
            "tile[lid + n * get_group_id(0)] = a[i]; barrier(0); out[i] = tile[lid];",
            |i| if i < 8 { i * 7 + 1 } else { 0 },
        ),
    ];
    let nd = NdRange::new_1d(16, 8);
    for (what, body, want) in cases {
        let module = minicl::compile(&format!(
            "kernel void k(global int* a, global int* out, int n) {{
                local int tile[8];
                size_t i = get_global_id(0);
                size_t lid = get_local_id(0);
                {body}
            }}"
        ))
        .expect("compile");
        for n in [0, 1] {
            let mut mem = DeviceMemory::new();
            let a = mem.alloc(4 * 16);
            let out = mem.alloc(4 * 16);
            mem.write_i32(a, &(0..16).map(|i| i * 7 + 1).collect::<Vec<_>>());
            let args = [
                ArgValue::Buffer(a),
                ArgValue::Buffer(out),
                ArgValue::Scalar(Value::I32(n)),
            ];
            let interp = Interpreter::new(&module);
            assert!(interp.lockstep_eligible_in(&mem, "k", nd, &args), "{what}");
            let mut tree_mem = mem.clone();
            let tree = interp.run_kernel(&mut tree_mem, "k", nd, &args);
            for threads in [1, 3] {
                let mut vm_mem = mem.clone();
                let vm = interp.run_kernel_bytecode(&mut vm_mem, "k", nd, &args, threads);
                assert_eq!(vm, tree, "{what}, n = {n}, x{threads}");
                assert_eq!(vm_mem, tree_mem, "{what}, n = {n}, x{threads}");
            }
            if n == 0 {
                assert!(tree.is_ok(), "{what}: {tree:?}");
                continue;
            }
            let (arena, size) = if what.starts_with("global") {
                ("global buffer", 64)
            } else {
                ("local memory", 32)
            };
            assert!(
                matches!(&tree, Err(InterpError::OutOfBounds { what: w, size: s, .. })
                    if w == arena && *s == size),
                "{what}: {tree:?}"
            );
            let words: Vec<i32> = (0..16).map(want).collect();
            assert_eq!(tree_mem.read_i32(out), words, "{what}");
        }
    }
}
