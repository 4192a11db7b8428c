//! Differential validation of the accelcheck static race analyzer.
//!
//! Planes of evidence, strongest first:
//!
//! 1. **Property-based differential testing** — hundreds of randomly
//!    generated kernels (index patterns spanning safe, launch-dependent and
//!    racy shapes, optional buffer aliasing, random launch geometry) are
//!    run through the shadow-mode dynamic race oracle. The static gate must
//!    be *sound*: whenever `parallel_eligible` admits a launch, the oracle
//!    must observe zero cross-group conflicts AND the bytecode VM's sharded
//!    path must be bit-identical to the sequential tree-walker.
//! 2. **Parboil sweep** — every bundled benchmark kernel at its real launch
//!    shape: an admitted launch is never oracle-racy, and the kernels the
//!    analyzer newly widened past the old `uses_global_atomics` gate
//!    (histograms, tpacf's bin updates) run parallel bit-identically.
//! 3. **Golden lint report** — the `repro lint` report over the Parboil set
//!    is pinned byte-for-byte (regenerate deliberately with
//!    `BLESS=1 cargo test --test accelcheck`).
//! 4. **The facts and the build cache** — `ModuleFacts` answers equal
//!    fresh analyses on every Parboil module, untransformed and
//!    JIT-transformed. `ProxyCl::build_program`'s cache, keyed by source
//!    text and JIT mode, gives equal builds one module and one set of
//!    facts; changed or re-laid-out sources and the other mode get entries
//!    of their own, and an evicted build recomputes the same verdicts.
//! 5. **Golden gate answers** — every verdict and per-launch answer the
//!    runtime reads (sharding and lockstep) over the Parboil kernels,
//!    untransformed and under JIT tenant launches, and over the generated
//!    patterns, pinned in `tests/golden/accelcheck_gates.txt`.

use accelos::chunk::{chunk_for, Mode};
use accelos::proxycl::{ProxyCl, ProxyProgram};
use clrt::{Context, Platform, Program};
use kernel_ir::interp::{ArgValue, DeviceMemory, Interpreter, NdRange, Value};
use kernel_ir::ir::{BlockId, CmpOp, WiBuiltin};
use kernel_ir::races::{analyze_kernel, KernelRaceReport, LockstepReport};
use kernel_ir::testgen::{build_kernel, Pattern, PATTERNS};
use kernel_ir::{AddressSpace, FunctionBuilder, FunctionKind, ParallelSafety, Type};
use parboil::datasets::prepare_launch;
use parboil::KernelSpec;
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard};

/// One differential run: static verdict + launch gate vs the dynamic
/// oracle vs bit-level comparison of the bytecode tier, sequential and
/// sharded, against the sequential tree-walker.
fn check_case(pattern: Pattern, c: i64, local: usize, groups: usize, alias: bool, threads: usize) {
    let module = build_kernel(pattern, c);
    let interp = Interpreter::new(&module);
    let items = local * groups;

    // Buffers sized past every reachable index: max is c*max_gid + c + 1
    // with c <= 4 and items <= 32.
    let elems = 4 * items + 16;
    let mut mem = DeviceMemory::new();
    let a = mem.alloc(4 * elems);
    let bbuf = if alias { a } else { mem.alloc(4 * elems) };
    let args = [
        ArgValue::Buffer(a),
        ArgValue::Buffer(bbuf),
        ArgValue::Scalar(Value::I32((items / 2) as i32)),
    ];
    let nd = NdRange::new_1d(items, local);

    let eligible = interp.parallel_eligible("k", nd, &args);

    // Shadow oracle over the sequential schedule.
    let mut oracle_mem = mem.clone();
    let (_stats, oracle) = interp
        .run_kernel_oracle(&mut oracle_mem, "k", nd, &args)
        .expect("oracle run succeeds");

    // SOUNDNESS: an admitted launch is never oracle-racy.
    assert!(
        !eligible || oracle.is_clean(),
        "UNSOUND: {pattern:?} c={c} local={local} groups={groups} alias={alias} admitted \
         by the static gate but the oracle saw {} conflicting byte(s): {:?}",
        oracle.total,
        oracle.conflicts.first(),
    );

    let mut seq_mem = mem.clone();
    let seq_stats = interp
        .run_kernel(&mut seq_mem, "k", nd, &args)
        .expect("sequential run succeeds");

    // Bytecode tier, sequential and sharded (which itself consults the
    // gate and runs in flat order when ineligible), must be bit-identical
    // to the tree-walker — memory bytes AND every DynStats counter (the
    // weight-preservation contract).
    let bc = Interpreter::new(&module);
    for bc_threads in [1, threads] {
        let mut bc_mem = mem.clone();
        let bc_stats = bc
            .run_kernel_bytecode(&mut bc_mem, "k", nd, &args, bc_threads)
            .expect("bytecode run succeeds");
        assert_eq!(
            seq_mem, bc_mem,
            "{pattern:?} c={c} local={local} groups={groups} alias={alias} memory \
             diverged on bytecode x{bc_threads} (eligible={eligible})"
        );
        assert_eq!(
            seq_stats, bc_stats,
            "{pattern:?} c={c} local={local} groups={groups} alias={alias} DynStats \
             diverged on bytecode x{bc_threads} (eligible={eligible})"
        );
    }

    // The static verdict must agree with the gate's widening direction:
    // a Safe verdict with distinct buffers is always admitted.
    if !alias {
        let report = analyze_kernel(&module, "k").expect("kernel analyzed");
        if report.verdict == ParallelSafety::Safe {
            assert!(
                eligible,
                "{pattern:?} c={c}: Safe verdict but launch rejected"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// >= 500 random (pattern, constant, launch, aliasing) combinations:
    /// the static gate never admits a launch the dynamic oracle flags, and
    /// parallel execution stays bit-identical to sequential throughout.
    #[test]
    fn static_gate_is_sound_against_dynamic_oracle(
        pat_idx in 0usize..PATTERNS.len(),
        c in 0i64..4,
        local in 1usize..5,
        groups in 1usize..9,
        alias in proptest::bool::ANY,
        threads in 2usize..5,
    ) {
        check_case(PATTERNS[pat_idx], c, local, groups, alias, threads);
    }
}

// ---------------------------------------------------------------------------
// Directed endpoints of the lattice
// ---------------------------------------------------------------------------

#[test]
fn racy_patterns_are_caught_by_both_planes() {
    // Multi-group `a[lid]` and `a[c]` kernels must be rejected statically
    // AND flagged dynamically — the two planes agree on the racy end too.
    for pattern in [Pattern::Lid, Pattern::Const, Pattern::Indirect] {
        let module = build_kernel(pattern, 0);
        let interp = Interpreter::new(&module);
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(4 * 64);
        let b = mem.alloc(4 * 64);
        let args = [
            ArgValue::Buffer(a),
            ArgValue::Buffer(b),
            ArgValue::Scalar(Value::I32(4)),
        ];
        let nd = NdRange::new_1d(16, 4);
        assert!(
            !interp.parallel_eligible("k", nd, &args),
            "{pattern:?} must be rejected for a 4-group launch"
        );
        let (_s, oracle) = interp
            .run_kernel_oracle(&mut mem, "k", nd, &args)
            .expect("runs");
        assert!(
            !oracle.is_clean(),
            "{pattern:?} must be flagged by the oracle"
        );
    }
}

// ---------------------------------------------------------------------------
// Parboil: admitted launches are oracle-clean; widened kernels go parallel
// ---------------------------------------------------------------------------

fn prepare(spec: &KernelSpec) -> (Context, kernel_ir::interp::NdRange, clrt::Kernel) {
    let mut ctx = Context::new(&Platform::nvidia());
    let program = Program::build(spec.source).expect("bundled kernels compile");
    let prepared = prepare_launch(spec, &mut ctx, &program, 1, 7).expect("prepare");
    (ctx, prepared.ndrange, prepared.kernel)
}

#[test]
fn no_admitted_parboil_launch_is_oracle_racy() {
    for spec in KernelSpec::all() {
        let (mut ctx, nd, kernel) = prepare(spec);
        let args = kernel.resolved_args().expect("args resolved");
        let interp = Interpreter::with_facts(kernel.module(), kernel.facts());
        if !interp.parallel_eligible(kernel.name(), nd, &args) {
            continue;
        }
        let (_stats, oracle) = interp
            .run_kernel_oracle(ctx.memory_mut(), kernel.name(), nd, &args)
            .unwrap_or_else(|e| panic!("`{}` failed: {e}", spec.name));
        assert!(
            oracle.is_clean(),
            "UNSOUND: `{}` admitted by the static gate but the oracle saw {} \
             conflicting byte(s): {:?}",
            spec.name,
            oracle.total,
            oracle.conflicts.first(),
        );
    }
}

#[test]
fn widened_atomic_kernels_run_parallel_bit_identically() {
    // These kernels use global atomics, so the old `uses_global_atomics`
    // gate forced them sequential. accelcheck proves their contended
    // accesses deterministic (commutative atomics, results discarded) and
    // widens them into the parallel path; the results must stay
    // bit-identical.
    let mut widened = 0usize;
    for name in ["histo_main", "histo_prescan", "tpacf"] {
        let spec = KernelSpec::by_name(name).expect("kernel exists");
        let module = spec.compile().expect("compiles");
        let entry = module.function(spec.entry).expect("entry kernel");
        assert!(
            kernel_ir::analysis::uses_global_atomics(entry, &module),
            "`{name}` must use global atomics for this test to mean anything"
        );
        assert!(
            Interpreter::new(&module).can_parallelize(spec.entry),
            "`{name}` must be statically parallel-eligible"
        );

        let (mut ctx, nd, kernel) = prepare(spec);
        let args = kernel.resolved_args().expect("args resolved");
        let interp = Interpreter::with_facts(kernel.module(), kernel.facts());
        assert!(
            interp.parallel_eligible_in(ctx.memory_mut(), kernel.name(), nd, &args),
            "`{name}` must be admitted at its launch shape"
        );
        let mut seq_mem = ctx.memory_mut().clone();
        let seq_stats = interp
            .run_kernel(&mut seq_mem, kernel.name(), nd, &args)
            .expect("sequential run");
        let mut par_mem = ctx.memory_mut().clone();
        let par_stats = interp
            .run_kernel_bytecode(&mut par_mem, kernel.name(), nd, &args, 4)
            .expect("parallel run");
        assert_eq!(
            (seq_mem, seq_stats),
            (par_mem, par_stats),
            "`{name}` diverged under parallel execution"
        );
        widened += 1;
    }
    assert_eq!(widened, 3);
}

// ---------------------------------------------------------------------------
// Golden lint report
// ---------------------------------------------------------------------------

#[test]
fn lint_report_matches_golden_snapshot() {
    let actual = accel_harness::lintreport::lint_parboil().report;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lint_report.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden file missing — run `BLESS=1 cargo test --test accelcheck` once");
    if actual != expected {
        for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
            assert_eq!(
                a,
                e,
                "lint report drifted from the golden snapshot at line {} — if the \
                 change is intentional, regenerate with BLESS=1 and review the diff",
                i + 1
            );
        }
        panic!(
            "lint report changed length: {} vs {} lines",
            actual.lines().count(),
            expected.lines().count()
        );
    }
}

// ---------------------------------------------------------------------------
// Barrier divergence: every block a varying branch reaches before its
// immediate postdominator, at any function size
// ---------------------------------------------------------------------------

#[test]
fn evaluated_chain_admits_launches_past_the_enumeration_limit() {
    // The stride `s` is a launch argument, so the static proof leaves the
    // store to the launch gate. Launch-scope enumeration stops at 65,536
    // work items; past that only the evaluated chain (the scalar stride
    // against the 4-byte span of one item's store) can admit the launch.
    let src = "kernel void k(global int* a, int s) {
        size_t i = get_global_id(0);
        a[i * (size_t)s] = 1;
    }";
    let module = minicl::compile(src).expect("compile");
    let interp = Interpreter::new(&module);
    assert!(
        !interp.can_parallelize("k"),
        "a scalar stride is settled per launch"
    );
    for (items, stride, admitted) in [
        (1 << 12, 1, true),
        (1 << 17, 1, true),
        (1 << 17, 3, true),
        (1 << 17, 0, false),
    ] {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(4 * items * stride.max(1));
        let args = [
            ArgValue::Buffer(a),
            ArgValue::Scalar(Value::I32(stride as i32)),
        ];
        let nd = NdRange::new_1d(items, 64);
        assert_eq!(
            interp.parallel_eligible_in(&mem, "k", nd, &args),
            admitted,
            "{items} items, stride {stride}"
        );
    }
}

#[test]
fn barrier_under_uniform_branch_inside_divergent_one_is_divergent() {
    // if (lid < 4) { if (n > 0) { barrier(); } } -- the barrier is
    // directly control-dependent only on the uniform inner branch, but
    // only the items with lid < 4 reach it.
    let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
    let _out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::F32));
    let n = b.add_param("n", Type::I64);
    let outer_bb = b.new_block();
    let inner_bb = b.new_block();
    let exit_bb = b.new_block();
    let lid = b.work_item(WiBuiltin::LocalId, 0);
    let four = b.const_i64(4);
    let c = b.cmp(CmpOp::Lt, lid, four);
    b.cond_br(c, outer_bb, exit_bb);
    b.switch_to(outer_bb);
    let zero = b.const_i64(0);
    let c = b.cmp(CmpOp::Gt, n, zero);
    b.cond_br(c, inner_bb, exit_bb);
    b.switch_to(inner_bb);
    b.barrier();
    b.br(exit_bb);
    b.switch_to(exit_bb);
    b.ret(None);
    let mut m = kernel_ir::Module::new();
    m.insert_function(b.finish());
    let r = analyze_kernel(&m, "k").expect("kernel analyzed");
    assert_eq!(r.divergent_barriers.len(), 1, "{:?}", r.divergent_barriers);
    assert_eq!(r.divergent_barriers[0].block, BlockId(2));
    assert!(r.divergent_barriers[0].cause.contains("branch at bb0"));
}

#[test]
fn divergent_barrier_is_found_past_128_blocks() {
    // 130 straight-line blocks, then if (gid < n) { barrier(); }.
    let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
    let _out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::F32));
    let n = b.add_param("n", Type::I64);
    for _ in 0..130 {
        let next = b.new_block();
        b.br(next);
        b.switch_to(next);
    }
    let then_bb = b.new_block();
    let exit_bb = b.new_block();
    let gid = b.work_item(WiBuiltin::GlobalId, 0);
    let c = b.cmp(CmpOp::Lt, gid, n);
    b.cond_br(c, then_bb, exit_bb);
    b.switch_to(then_bb);
    b.barrier();
    b.br(exit_bb);
    b.switch_to(exit_bb);
    b.ret(None);
    let f = b.finish();
    assert!(f.blocks.len() >= 128, "{} blocks", f.blocks.len());
    let mut m = kernel_ir::Module::new();
    m.insert_function(f);
    let r = analyze_kernel(&m, "k").expect("kernel analyzed");
    assert_eq!(r.divergent_barriers.len(), 1, "{:?}", r.divergent_barriers);
    assert_eq!(r.divergent_barriers[0].block, then_bb);
}

#[test]
fn unknown_callee_under_divergent_branch_is_a_divergent_barrier() {
    // if (lid < 4) { mystery(); } -- the module does not define `mystery`,
    // so it may hold a barrier, which only some items of the group reach.
    let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
    let _out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::F32));
    let then_bb = b.new_block();
    let exit_bb = b.new_block();
    let lid = b.work_item(WiBuiltin::LocalId, 0);
    let four = b.const_i64(4);
    let c = b.cmp(CmpOp::Lt, lid, four);
    b.cond_br(c, then_bb, exit_bb);
    b.switch_to(then_bb);
    b.call("mystery", vec![], Type::Void);
    b.br(exit_bb);
    b.switch_to(exit_bb);
    b.ret(None);
    let mut m = kernel_ir::Module::new();
    m.insert_function(b.finish());
    let r = analyze_kernel(&m, "k").expect("kernel analyzed");
    assert_eq!(r.divergent_barriers.len(), 1, "{:?}", r.divergent_barriers);
    assert_eq!(r.divergent_barriers[0].block, then_bb);
    let lint: Vec<_> = kernel_ir::lint::lint_module(&m)
        .into_iter()
        .filter(|d| d.lint == "barrier-divergence")
        .collect();
    assert_eq!(lint.len(), 1, "{lint:?}");
    assert_eq!(lint[0].severity, kernel_ir::Severity::Error);
    let proof = kernel_ir::races::lockstep_report(&m, "k").expect("kernel");
    assert!(proof.refusal().is_some());
    let mut mem = DeviceMemory::new();
    let out = mem.alloc(4 * 16);
    assert!(!Interpreter::new(&m).lockstep_eligible_in(
        &mem,
        "k",
        NdRange::new_1d(16, 8),
        &[ArgValue::Buffer(out)],
    ));
}

// ---------------------------------------------------------------------------
// Lockstep: the within-group proof under the JIT's tenant launch shape
// ---------------------------------------------------------------------------

/// Whether `spec`'s JIT-transformed scheduling kernel runs in lockstep at
/// its scale-1 dataset, dequeuing the virtual range over four workers as a
/// `tenants` launch does; the within-group proof's launch-independent
/// refusal; and its refusal of the original kernel under the virtual
/// range (the launch the gate checks).
fn jit_lockstep_verdict(spec: &KernelSpec) -> (bool, Option<String>, Option<String>) {
    let module = minicl::compile(spec.source).expect("compile");
    let transformed = accelos::jit::transform_module(&module, accelos::chunk::Mode::Optimized)
        .expect("transform");
    let program = Program::from_module(transformed.module, spec.source).expect("wrap");
    let mut ctx = Context::new(&Platform::nvidia());
    let p = prepare_launch(spec, &mut ctx, &program, 1, 7).expect("prepare");
    let v = accelos::vrange::VirtualNdRange::new(p.ndrange);
    let rt = ctx.create_buffer(8 * v.descriptor().len());
    ctx.write_i64(rt, &v.descriptor()).expect("descriptor");
    let mut kernel = p.kernel;
    let rt_index = kernel.arity() - 1;
    kernel
        .set_arg(rt_index, clrt::Arg::Buffer(rt))
        .expect("bind rt");
    let args = kernel.resolved_args().expect("args");
    let interp = Interpreter::with_facts(kernel.module(), kernel.facts());
    let proof = kernel
        .facts()
        .lockstep_report(kernel.module(), kernel.name())
        .expect("proof");
    let scalars: Vec<Option<i64>> = args[..rt_index]
        .iter()
        .map(|a| match a {
            ArgValue::Scalar(Value::I32(x)) => Some(i64::from(*x)),
            ArgValue::Scalar(Value::I64(x)) => Some(*x),
            _ => None,
        })
        .collect();
    let env = kernel_ir::LaunchEnv {
        local: p.ndrange.local,
        groups: p.ndrange.num_groups(),
        work_dim: p.ndrange.work_dim as u32,
        args: &scalars,
        distinct_buffers: true,
    };
    let hw = v.hardware_range(4);
    (
        interp.lockstep_eligible_in(ctx.memory_mut(), kernel.name(), hw, &args),
        proof.refusal().map(str::to_string),
        proof.launch_refusal(&env),
    )
}

/// Every Parboil kernel's lockstep verdict under its JIT-transformed
/// tenant launch. The refusals (reasons in [`LOCKSTEP_REFUSALS`]): bfs
/// and mri-gridding_reorder use the results of contended atomics, and
/// splitRearrange scatters through an index read from memory.
/// histo_prescan, scan_inter1 and splitSort are admitted by the
/// launch-time evaluation of their barrier intervals.
const LOCKSTEP: [(&str, bool); 25] = [
    ("bfs", false),
    ("cutcp", true),
    ("histo_final", true),
    ("histo_intermediates", true),
    ("histo_main", true),
    ("histo_prescan", true),
    ("lbm", true),
    ("mri-gridding_GPU", true),
    ("mri-gridding_binning", true),
    ("mri-gridding_reorder", false),
    ("mri-gridding_scan_L1", true),
    ("mri-gridding_scan_inter1", true),
    ("mri-gridding_scan_inter2", true),
    ("mri-gridding_splitRearrange", false),
    ("mri-gridding_splitSort", true),
    ("mri-gridding_uniformAdd", true),
    ("mri-q_ComputePhiMag", true),
    ("mri-q_ComputeQ", true),
    ("sad_calc", true),
    ("sad_calc_16", true),
    ("sad_calc_8", true),
    ("sgemm", true),
    ("spmv", true),
    ("stencil", true),
    ("tpacf", true),
];

#[test]
fn parboil_lockstep_verdicts_are_pinned() {
    let specs = KernelSpec::all();
    assert_eq!(specs.len(), LOCKSTEP.len());
    for (spec, (name, lockstep)) in specs.iter().zip(LOCKSTEP) {
        assert_eq!(spec.name, name);
        let (verdict, refusal, launch) = jit_lockstep_verdict(spec);
        assert_eq!(verdict, lockstep, "`{name}`: {launch:?}");
        assert_eq!(launch.is_none(), lockstep, "`{name}`: {launch:?}");
        // The scheduling body itself (master-only dequeue, broadcast
        // barrier, loop over the claimed groups) always passes.
        assert_eq!(refusal, None, "`{name}`");
    }
}

/// Why the within-group proof refuses each kernel [`LOCKSTEP`] pins as
/// refused, under its JIT tenant launch: the barrier interval and the two
/// sites whose accesses may meet.
const LOCKSTEP_REFUSALS: [(&str, &str); 3] = [
    (
        "bfs",
        "barrier interval 0: read of `dist` at 13:22 (unknown index) and write of `dist` at \
         14:27 (unknown index) may touch the same bytes from two items of a group, and the \
         launch-time evaluation gives up: the address of read of `dist` at 13:22 (unknown \
         index) does not evaluate",
    ),
    (
        "mri-gridding_reorder",
        "barrier interval 0: atomic_add (result used) of `cursor` at 8:56 (unknown index) and \
         atomic_add (result used) of `cursor` at 8:56 (unknown index) may touch the same bytes \
         from two items of a group, and the launch-time evaluation gives up: the address of \
         atomic_add (result used) of `cursor` at 8:56 (unknown index) does not evaluate",
    ),
    (
        "mri-gridding_splitRearrange",
        "barrier interval 0: write of `out` at 6:28 (unknown index) and write of `out` at 6:28 \
         (unknown index) may touch the same bytes from two items of a group, and the \
         launch-time evaluation gives up: the address of write of `out` at 6:28 (unknown \
         index) does not evaluate",
    ),
];

#[test]
fn parboil_lockstep_refusals_are_pinned() {
    let refused: Vec<&str> = LOCKSTEP
        .iter()
        .filter(|(_, lockstep)| !lockstep)
        .map(|(name, _)| *name)
        .collect();
    assert_eq!(
        refused,
        LOCKSTEP_REFUSALS.map(|(name, _)| name),
        "every refusal is pinned"
    );
    for (name, reason) in LOCKSTEP_REFUSALS {
        let spec = KernelSpec::by_name(name).expect("kernel");
        let (_, _, launch) = jit_lockstep_verdict(spec);
        assert_eq!(launch.as_deref(), Some(reason), "`{name}`");
    }
}

// ---------------------------------------------------------------------------
// The facts cache
// ---------------------------------------------------------------------------

/// The scalar arguments as the gates read them: the `i32` and `i64`
/// scalars as `i64`.
fn gate_scalars(args: &[ArgValue]) -> Vec<Option<i64>> {
    args.iter()
        .map(|a| match a {
            ArgValue::Scalar(Value::I32(x)) => Some(i64::from(*x)),
            ArgValue::Scalar(Value::I64(x)) => Some(*x),
            _ => None,
        })
        .collect()
}

/// Whether no two arguments pass one buffer.
fn distinct_buffers(args: &[ArgValue]) -> bool {
    let buffers: Vec<_> = args
        .iter()
        .filter_map(|a| match a {
            ArgValue::Buffer(b) => Some(*b),
            _ => None,
        })
        .collect();
    buffers
        .iter()
        .enumerate()
        .all(|(i, b)| !buffers[..i].contains(b))
}

/// Every kernel of `module`: the cached gate report keeps the fresh
/// report's verdict and the sites of the parameters it re-checks per
/// launch, and gives the same eligibility answers over a forced 2-D grid
/// of group shapes, group counts and scalars; the cached report and
/// within-group proof equal fresh ones and give the same answers over a
/// grid of launch environments (around the canonical launch `canon`). Then `launches` of kernel `launched` over
/// `mem` (each with the group counts the gates check it against: the
/// virtual counts its descriptor names, or its own) through an
/// interpreter on cold facts: each launch's answers, asked cold and then
/// memoised, in two passes, equal the fresh analyses' answers on its
/// environment.
fn assert_facts_match_fresh(
    what: &str,
    module: &kernel_ir::Module,
    canon: NdRange,
    launched: &str,
    mem: &DeviceMemory,
    launches: &[(NdRange, Vec<ArgValue>, [usize; 3])],
) {
    let facts = kernel_ir::ModuleFacts::new(module);
    for name in module.kernel_names() {
        let ctx = format!("`{what}`: `{name}`");
        let (cached, contract) = facts.gate_report(module, name).expect("gate report");
        let (fresh, fresh_contract) = kernel_ir::races::gate_report(module, name).expect("report");
        assert_eq!(contract.is_some(), fresh_contract.is_some(), "{ctx}");
        assert_eq!(cached.verdict, fresh.verdict, "{ctx}");
        let debug = |sites: &mut dyn Iterator<Item = &kernel_ir::races::Site>| -> Vec<String> {
            sites.map(|s| format!("{s:?}")).collect()
        };
        let kept = debug(
            &mut fresh
                .sites
                .iter()
                .filter(|s| cached.sites.iter().any(|c| c.param() == s.param())),
        );
        assert_eq!(debug(&mut cached.sites.iter()), kept, "{ctx}");
        assert_eq!(cached.eligible_static(), fresh.eligible_static(), "{ctx}");
        for work_dim in 1..=3 {
            for distinct in [true, false] {
                assert_eq!(
                    cached.eligible_for_any_groups(work_dim, distinct),
                    fresh.eligible_for_any_groups(work_dim, distinct),
                    "{ctx}"
                );
            }
        }
        for local in [1, 4, 16] {
            for groups in [[1, 1, 1], [3, 1, 1], [8, 2, 1]] {
                for arg in [None, Some(1), Some(64)] {
                    let args = vec![arg; 32];
                    let env = kernel_ir::LaunchEnv {
                        local: [local, 1, 1],
                        groups,
                        work_dim: 2,
                        args: &args,
                        distinct_buffers: true,
                    };
                    assert_eq!(
                        cached.eligible_for_launch(&env),
                        fresh.eligible_for_launch(&env),
                        "{ctx}: {env:?}"
                    );
                }
            }
        }
        let cached_proof = facts.lockstep_report(module, name).expect("proof");
        let fresh_proof = kernel_ir::races::lockstep_report(module, name).expect("proof");
        assert_eq!(
            format!("{cached_proof:?}"),
            format!("{fresh_proof:?}"),
            "{ctx}: within-group proof"
        );
        let wd = canon.work_dim;
        let locals = shapes(&[[1, 1, 1], [4, 1, 1], [4, 4, 1], canon.local], wd);
        let groups = shapes(&[[1, 1, 1], [3, 1, 1], [8, 2, 1], canon.num_groups()], wd);
        for local in &locals {
            for grp in &groups {
                for (arg, distinct) in [(None, true), (Some(64), true), (Some(64), false)] {
                    let args = vec![arg; 32];
                    let env = kernel_ir::LaunchEnv {
                        local: *local,
                        groups: *grp,
                        work_dim: wd as u32,
                        args: &args,
                        distinct_buffers: distinct,
                    };
                    assert_eq!(
                        [
                            cached.eligible_for_launch(&env),
                            cached_proof.eligible_for_launch(&env)
                        ],
                        [
                            fresh.eligible_for_launch(&env),
                            fresh_proof.eligible_for_launch(&env)
                        ],
                        "{ctx}: {env:?}"
                    );
                }
            }
        }
    }
    let ctx = format!("`{what}`: `{launched}`");
    let (_, contract) = facts.gate_report(module, launched).expect("gate report");
    let (fresh, _) = kernel_ir::races::gate_report(module, launched).expect("report");
    let fresh_proof = kernel_ir::races::lockstep_report(module, launched).expect("proof");
    let interp = Interpreter::with_facts(module, &facts);
    for pass in 0..2 {
        for (nd, args, groups) in launches {
            // Under a holding contract the gates check the original
            // kernel: its virtual groups and its own scalar arguments.
            let (groups, own) = match contract {
                Some(c) => (*groups, &args[..c.descriptor]),
                None => (nd.num_groups(), &args[..]),
            };
            let scalars = gate_scalars(own);
            let env = kernel_ir::LaunchEnv {
                local: nd.local,
                groups,
                work_dim: nd.work_dim as u32,
                args: &scalars,
                distinct_buffers: distinct_buffers(args),
            };
            let answers = [
                fresh.eligible_for_launch(&env),
                fresh_proof.eligible_for_launch(&env),
            ];
            for _ in 0..2 {
                let memo = [
                    interp.parallel_eligible_in(mem, launched, *nd, args),
                    interp.lockstep_eligible_in(mem, launched, *nd, args),
                ];
                assert_eq!(memo, answers, "{ctx}: pass {pass}: {env:?}");
            }
        }
    }
}

#[test]
fn module_facts_match_uncached_analyses() {
    assert_eq!(KernelSpec::all().len(), 25);
    for spec in KernelSpec::all() {
        // Untransformed, over the gate golden's grid of group shapes,
        // group counts and buffer aliasing.
        let (mut ctx, canon, kernel) = prepare(spec);
        let args = kernel.resolved_args().expect("args resolved");
        let wd = canon.work_dim;
        let mut launches = Vec::new();
        for local in shapes(&[[1, 1, 1], [4, 1, 1], [4, 4, 1], canon.local], wd) {
            for grp in shapes(&[[1, 1, 1], [3, 1, 1], [8, 2, 1], canon.num_groups()], wd) {
                let nd = NdRange {
                    work_dim: wd,
                    global: std::array::from_fn(|d| local[d] * grp[d]),
                    local,
                };
                for a in [args.clone(), aliased(&args, None)] {
                    launches.push((nd, a, grp));
                }
            }
        }
        let (module, name) = (kernel.module(), kernel.name());
        assert_facts_match_fresh(spec.name, module, canon, name, ctx.memory_mut(), &launches);

        // JIT-transformed tenant launches, each virtual range in its own
        // descriptor, over one and four workers.
        let transformed =
            accelos::jit::transform_module(module, Mode::Optimized).expect("transform");
        assert!(
            !transformed.module.dequeue.is_empty(),
            "`{}` has a dequeue contract",
            spec.name
        );
        let program = Program::from_module(transformed.module, spec.source).expect("wrap");
        let mut ctx = Context::new(&Platform::nvidia());
        let p = prepare_launch(spec, &mut ctx, &program, 1, 7).expect("prepare");
        let mut kernel = p.kernel;
        let rt_index = kernel.arity() - 1;
        let wd = p.ndrange.work_dim;
        let mut launches = Vec::new();
        for grp in shapes(&[[1, 1, 1], [5, 2, 1], p.ndrange.num_groups()], wd) {
            let v = accelos::vrange::VirtualNdRange::new(NdRange {
                work_dim: wd,
                global: std::array::from_fn(|d| p.ndrange.local[d] * grp[d]),
                local: p.ndrange.local,
            });
            let rt = ctx.create_buffer(8 * v.descriptor().len());
            ctx.write_i64(rt, &v.descriptor()).expect("descriptor");
            kernel
                .set_arg(rt_index, clrt::Arg::Buffer(rt))
                .expect("bind rt");
            let args = kernel.resolved_args().expect("args");
            for workers in [1, 4] {
                for a in [args.clone(), aliased(&args, Some(rt_index))] {
                    launches.push((v.hardware_range(workers), a, grp));
                }
            }
        }
        let (module, name) = (kernel.module(), kernel.name());
        assert_facts_match_fresh(spec.name, module, canon, name, ctx.memory_mut(), &launches);
    }
}

/// Held by the tests that fill the build cache or need an entry to
/// survive.
static BUILD_CACHE_TESTS: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    BUILD_CACHE_TESTS.lock().unwrap_or_else(|e| e.into_inner())
}

fn proxy_build(mode: Mode, source: &str) -> ProxyProgram {
    ProxyCl::new(&Platform::test_tiny(), mode)
        .build_program(source)
        .expect("builds")
}

/// The cached gate report of `kernel` and its within-group proof.
fn answers(program: &Program, kernel: &str) -> (*const KernelRaceReport, *const LockstepReport) {
    let (module, facts) = (program.module(), program.facts());
    (
        facts.gate_report(module, kernel).expect("report").0,
        facts.lockstep_report(module, kernel).expect("proof"),
    )
}

#[test]
fn identical_builds_share_one_facts_entry() {
    let _serial = serial();
    const SRC: &str = "kernel void facts_share(global float* o) { o[get_global_id(0)] = 1.0f; }";
    // Two runtimes, one build: the second shares the first's module and
    // facts, whose answers are the ones already computed.
    let first = proxy_build(Mode::Optimized, SRC);
    let computed = answers(first.program(), "facts_share");
    let second = proxy_build(Mode::Optimized, SRC);
    assert!(Arc::ptr_eq(
        first.program().module(),
        second.program().module()
    ));
    assert!(Arc::ptr_eq(
        first.program().facts(),
        second.program().facts()
    ));
    assert_eq!(answers(second.program(), "facts_share"), computed);
    // A changed source is a build of its own.
    let changed = proxy_build(Mode::Optimized, &SRC.replace("1.0f", "2.0f"));
    assert!(!Arc::ptr_eq(
        first.program().facts(),
        changed.program().facts()
    ));
    // `clrt` builds are fresh, each with its own facts.
    let a = Program::build(SRC).expect("builds");
    let b = Program::build(SRC).expect("builds");
    assert!(!Arc::ptr_eq(a.facts(), b.facts()));
}

#[test]
fn naive_and_optimized_builds_get_separate_entries() {
    let _serial = serial();
    const SRC: &str = "kernel void cache_modes(global float* o) { o[get_global_id(0)] = 1.0f; }";
    let naive = proxy_build(Mode::Naive, SRC);
    let optimized = proxy_build(Mode::Optimized, SRC);
    assert!(!Arc::ptr_eq(
        naive.program().facts(),
        optimized.program().facts()
    ));
    let chunk = |p: &ProxyProgram| p.info("cache_modes").expect("info").chunk;
    let insns = optimized.info("cache_modes").expect("info").original_insns;
    assert_eq!(chunk(&naive), 1);
    assert_eq!(chunk(&optimized), chunk_for(insns, Mode::Optimized));
    assert!(chunk(&optimized) > 1);
    // Each mode hits its own entry.
    for (mode, built) in [(Mode::Naive, &naive), (Mode::Optimized, &optimized)] {
        let again = proxy_build(mode, SRC);
        assert!(Arc::ptr_eq(
            built.program().module(),
            again.program().module()
        ));
        assert_eq!(chunk(&again), chunk(built));
    }
}

#[test]
fn whitespace_changes_keep_their_own_spans() {
    let _serial = serial();
    // A scalar stride: the store is re-checked per launch, so the cached
    // report keeps its site.
    let one_line =
        "kernel void facts_spans(global float* o, int s) { o[get_global_id(0) * s] = 1.0f; }";
    let spread =
        "kernel void facts_spans(global float* o, int s) {\n\n    o[get_global_id(0) * s] = 1.0f;\n}";
    let a = proxy_build(Mode::Optimized, one_line);
    let b = proxy_build(Mode::Optimized, spread);
    // Equal as modules (`Inst` equality ignores spans) ...
    assert_eq!(**a.program().module(), **b.program().module());
    // ... but each keeps the spans of its own source.
    assert!(!Arc::ptr_eq(a.program().facts(), b.program().facts()));
    let spans = |p: &ProxyProgram| -> Vec<Option<(u32, u32)>> {
        let (module, facts) = (p.program().module(), p.program().facts());
        let (report, contract) = facts.gate_report(module, "facts_spans").expect("report");
        assert!(contract.is_some(), "the report is the original kernel's");
        let (fresh, _) = kernel_ir::races::gate_report(module, "facts_spans").expect("report");
        let spans: Vec<_> = report.sites.iter().map(|s| s.span).collect();
        assert_eq!(
            spans,
            fresh.sites.iter().map(|s| s.span).collect::<Vec<_>>()
        );
        spans
    };
    let (sa, sb) = (spans(&a), spans(&b));
    assert!(!sa.is_empty() && sa.iter().all(Option::is_some), "{sa:?}");
    assert_ne!(sa, sb);
}

#[test]
fn evicted_facts_recompute_the_same_verdicts() {
    let _serial = serial();
    const SRC: &str = "kernel void facts_evicted(global float* o) { o[get_global_id(0)] = 1.0f; }";
    let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized);
    let first = os.build_program(SRC).expect("builds");
    let verdict = |p: &ProxyProgram| {
        let (module, facts) = (p.program().module(), p.program().facts());
        let (report, _) = facts.gate_report(module, "facts_evicted").expect("report");
        let proof = facts
            .lockstep_report(module, "facts_evicted")
            .expect("proof");
        (report.verdict.clone(), proof.refusal().map(str::to_string))
    };
    let before = verdict(&first);
    for i in 0..64 {
        os.build_program(&format!(
            "kernel void facts_filler_{i}(global float* o) {{ o[get_global_id(0)] = {i}.0f; }}"
        ))
        .expect("builds");
    }
    let second = os.build_program(SRC).expect("builds");
    assert!(
        !Arc::ptr_eq(first.program().facts(), second.program().facts()),
        "the first build was evicted"
    );
    assert_eq!(verdict(&second), before);
}

// ---------------------------------------------------------------------------
// Golden gate answers
// ---------------------------------------------------------------------------

/// `args` with every buffer but the one at `keep` replaced by the first
/// such buffer, so any two buffer parameters alias.
fn aliased(args: &[ArgValue], keep: Option<usize>) -> Vec<ArgValue> {
    let first = args.iter().enumerate().find_map(|(i, a)| match a {
        ArgValue::Buffer(b) if Some(i) != keep => Some(*b),
        _ => None,
    });
    args.iter()
        .enumerate()
        .map(|(i, a)| match (a, first) {
            (ArgValue::Buffer(_), Some(b)) if Some(i) != keep => ArgValue::Buffer(b),
            _ => *a,
        })
        .collect()
}

/// The launch-independent answers for `name`: the gate verdict (and
/// whether a dequeue contract splits it), `can_parallelize` and the
/// within-group proof's refusal.
fn kernel_answers(
    module: &kernel_ir::Module,
    facts: &kernel_ir::ModuleFacts,
    name: &str,
) -> String {
    let interp = Interpreter::with_facts(module, facts);
    let (report, contract) = facts.gate_report(module, name).expect("gate report");
    let refusal = facts
        .lockstep_report(module, name)
        .expect("proof")
        .refusal()
        .unwrap_or("-")
        .to_string();
    format!(
        "verdict={} contract={} static={} refusal={refusal}",
        report.verdict,
        u8::from(contract.is_some()),
        u8::from(interp.can_parallelize(name)),
    )
}

/// The per-launch answers: `parallel_eligible`, `parallel_eligible_in`
/// and `lockstep_eligible_in`.
fn launch_answers(
    interp: &Interpreter<'_>,
    mem: &DeviceMemory,
    name: &str,
    nd: NdRange,
    args: &[ArgValue],
) -> String {
    format!(
        "pe={} in={} ls={}",
        u8::from(interp.parallel_eligible(name, nd, args)),
        u8::from(interp.parallel_eligible_in(mem, name, nd, args)),
        u8::from(interp.lockstep_eligible_in(mem, name, nd, args)),
    )
}

/// The distinct shapes of `dims` with the dimensions from `work_dim` up
/// forced to one, in first-seen order.
fn shapes(dims: &[[usize; 3]], work_dim: u8) -> Vec<[usize; 3]> {
    let mut out: Vec<[usize; 3]> = Vec::new();
    for s in dims {
        let s = std::array::from_fn(|d| if d < work_dim as usize { s[d] } else { 1 });
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

/// Every gate answer the runtime reads, pinned: the 25 Parboil kernels
/// untransformed over a grid of group shapes, group counts and buffer
/// aliasing; the same kernels JIT-transformed under a tenant launch whose
/// virtual range is read from the descriptor; and the generated `Pattern`
/// kernels over the differential suite's parameters (guarded rounded-up
/// launches that only enumeration admits among them).
#[test]
fn gate_answers_match_golden() {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "# parboil, untransformed").unwrap();
    for spec in KernelSpec::all() {
        let (mut ctx, canon, kernel) = prepare(spec);
        let (module, facts, name) = (kernel.module(), kernel.facts(), kernel.name());
        let interp = Interpreter::with_facts(module, facts);
        let args = kernel.resolved_args().expect("args resolved");
        writeln!(out, "{} {}", spec.name, kernel_answers(module, facts, name)).unwrap();
        let wd = canon.work_dim;
        let locals = shapes(&[[1, 1, 1], [4, 1, 1], [4, 4, 1], canon.local], wd);
        let groups = shapes(&[[1, 1, 1], [3, 1, 1], [8, 2, 1], canon.num_groups()], wd);
        for local in &locals {
            for grp in &groups {
                let nd = NdRange {
                    work_dim: wd,
                    global: std::array::from_fn(|d| local[d] * grp[d]),
                    local: *local,
                };
                for (tag, a) in [
                    ("distinct", args.clone()),
                    ("aliased", aliased(&args, None)),
                ] {
                    let answers = launch_answers(&interp, ctx.memory_mut(), name, nd, &a);
                    writeln!(out, "  local={local:?} groups={grp:?} {tag} {answers}").unwrap();
                }
            }
        }
    }
    writeln!(out, "# parboil, JIT-transformed tenant launches").unwrap();
    for spec in KernelSpec::all() {
        let module = minicl::compile(spec.source).expect("compile");
        let transformed = accelos::jit::transform_module(&module, accelos::chunk::Mode::Optimized)
            .expect("transform");
        let program = Program::from_module(transformed.module, spec.source).expect("wrap");
        let mut ctx = Context::new(&Platform::nvidia());
        let p = prepare_launch(spec, &mut ctx, &program, 1, 7).expect("prepare");
        let mut kernel = p.kernel;
        let rt_index = kernel.arity() - 1;
        let rt = ctx.create_buffer(8 * 5);
        kernel
            .set_arg(rt_index, clrt::Arg::Buffer(rt))
            .expect("bind rt");
        let args = kernel.resolved_args().expect("args");
        let (module, facts, name) = (kernel.module(), kernel.facts(), kernel.name());
        let interp = Interpreter::with_facts(module, facts);
        writeln!(out, "{} {}", spec.name, kernel_answers(module, facts, name)).unwrap();
        let wd = p.ndrange.work_dim;
        for grp in shapes(&[[1, 1, 1], [5, 2, 1], p.ndrange.num_groups()], wd) {
            let original = NdRange {
                work_dim: wd,
                global: std::array::from_fn(|d| p.ndrange.local[d] * grp[d]),
                local: p.ndrange.local,
            };
            let v = accelos::vrange::VirtualNdRange::new(original);
            ctx.write_i64(rt, &v.descriptor()).expect("descriptor");
            for workers in [1, 4] {
                let hw = v.hardware_range(workers);
                for (tag, a) in [
                    ("distinct", args.clone()),
                    ("aliased", aliased(&args, Some(rt_index))),
                ] {
                    let answers = launch_answers(&interp, ctx.memory_mut(), name, hw, &a);
                    writeln!(out, "  virtual={grp:?} workers={workers} {tag} {answers}").unwrap();
                }
            }
        }
    }
    writeln!(out, "# generated patterns").unwrap();
    for pattern in PATTERNS {
        for c in [0, 1, 3] {
            let module = build_kernel(pattern, c);
            let facts = kernel_ir::ModuleFacts::new(&module);
            let interp = Interpreter::with_facts(&module, &facts);
            let answers = kernel_answers(&module, &facts, "k");
            writeln!(out, "{pattern:?} c={c} {answers}").unwrap();
            let mut mem = DeviceMemory::new();
            let a = mem.alloc(4 * 64);
            let b = mem.alloc(4 * 64);
            for local in [1, 2, 4] {
                for groups in [1, 3, 8] {
                    let items = local * groups;
                    let nd = NdRange::new_1d(items, local);
                    for (tag, second) in [("distinct", b), ("aliased", a)] {
                        let args = [
                            ArgValue::Buffer(a),
                            ArgValue::Buffer(second),
                            ArgValue::Scalar(Value::I32((items / 2) as i32)),
                        ];
                        let answers = launch_answers(&interp, &mem, "k", nd, &args);
                        writeln!(out, "  local={local} groups={groups} {tag} {answers}").unwrap();
                    }
                }
            }
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/accelcheck_gates.txt"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &out).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden file missing — run `BLESS=1 cargo test --test accelcheck` once");
    for (i, (a, e)) in out.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            a,
            e,
            "gate answers drifted from the golden at line {}",
            i + 1
        );
    }
    assert_eq!(
        out.lines().count(),
        expected.lines().count(),
        "golden length"
    );
}
