//! Differential tests for the PR-1 parallel pipeline.
//!
//! Two independent guarantees are asserted:
//!
//! 1. **Interpreter** — the bytecode VM's sharded path
//!    (`run_kernel_bytecode`) produces byte-identical `DeviceMemory` and
//!    identical `DynStats` to the sequential tree-walker across the
//!    bundled Parboil kernel set, running groups in flat order for
//!    launches the race analysis cannot prove race-free.
//! 2. **Sweep** — the rayon-parallel sweep reproduces the sequential
//!    sweep's metric tables exactly (bit-identical floats), because
//!    per-repetition seeds derive from `(workload, rep)` rather than
//!    iteration order and results merge deterministically.

use accel_harness::experiments::{measure_workload, sweep, sweep_seq};
use accel_harness::runner::Runner;
use accel_harness::workloads::SweepConfig;
use accelos::policy::PolicySet;
use gpu_sim::DeviceConfig;
use kernel_ir::interp::{ArgValue, DeviceMemory, DynStats, Interpreter, NdRange};
use kernel_ir::Module;
use parboil::datasets::prepare_launch;
use parboil::KernelSpec;

/// Run `kernel` on `threads` threads: `None` runs the sequential
/// tree-walker, `Some(threads)` the bytecode VM's sharded path.
fn run_on(
    module: &Module,
    mem: &mut DeviceMemory,
    kernel: &str,
    nd: NdRange,
    args: &[ArgValue],
    threads: Option<usize>,
) -> Result<DynStats, kernel_ir::InterpError> {
    let interp = Interpreter::new(module);
    match threads {
        None => interp.run_kernel(mem, kernel, nd, args),
        Some(t) => interp.run_kernel_bytecode(mem, kernel, nd, args, t),
    }
}

/// Run one Parboil kernel functionally on a fresh context; returns the
/// final device memory and the dynamic statistics (see [`run_on`] for
/// `threads`).
fn run_functional(spec: &KernelSpec, threads: Option<usize>) -> (DeviceMemory, DynStats) {
    use clrt::{Context, Platform, Program};
    let mut ctx = Context::new(&Platform::nvidia());
    let program = Program::build(spec.source).expect("bundled kernels compile");
    let prepared = prepare_launch(spec, &mut ctx, &program, 1, 7).expect("prepare");
    let kernel = prepared.kernel;
    let args = kernel.resolved_args().expect("args resolved");
    let nd: NdRange = prepared.ndrange;
    let stats = run_on(
        kernel.module(),
        ctx.memory_mut(),
        kernel.name(),
        nd,
        &args,
        threads,
    )
    .unwrap_or_else(|e| panic!("`{}` failed: {e}", spec.name));
    (ctx.memory_mut().clone(), stats)
}

#[test]
fn parallel_interpreter_matches_sequential_across_parboil() {
    let mut parallelizable = 0usize;
    let mut fallback = 0usize;
    for spec in KernelSpec::all() {
        let module = spec.compile().expect("compiles");
        let eligible = Interpreter::new(&module).can_parallelize(spec.entry);
        if eligible {
            parallelizable += 1;
        } else {
            fallback += 1;
        }
        let (mem_seq, stats_seq) = run_functional(spec, None);
        let (mem_par, stats_par) = run_functional(spec, Some(4));
        assert_eq!(
            mem_seq, mem_par,
            "`{}` device memory diverged between sequential and parallel",
            spec.name
        );
        assert_eq!(
            stats_seq.total_insns, stats_par.total_insns,
            "`{}` total_insns diverged in parallel",
            spec.name
        );
        assert_eq!(
            stats_seq, stats_par,
            "`{}` DynStats diverged in parallel",
            spec.name
        );
    }
    // The kernel set must exercise both paths for this test to mean
    // anything: regular kernels parallelize, atomic-using kernels (bfs's
    // frontier queue, histograms) must fall back.
    assert!(
        parallelizable >= 5,
        "only {parallelizable} kernels parallelizable"
    );
    assert!(
        fallback >= 5,
        "only {fallback} kernels exercised the fallback"
    );
}

#[test]
fn stealing_matches_sequential_across_thread_counts() {
    // The kernels whose imbalance motivates the stealing schedule (bfs —
    // which falls back to sequential execution for its global atomics,
    // exercising the guard at every thread count — and spmv's skewed
    // rows) plus a regular dense kernel. 1–8 threads cover the
    // degenerate single-thread short-circuit, odd partitions and
    // oversubscription; stealing must stay bit-identical to the
    // sequential interpreter throughout. (A frontier-shaped kernel whose
    // per-group cost grows with the group id is kernel-ir's
    // `stealing_matches_sequential` unit test.)
    for name in ["bfs", "spmv", "sgemm"] {
        let spec = KernelSpec::by_name(name).expect("kernel exists");
        let (mem_seq, stats_seq) = run_functional(spec, None);
        for threads in [1usize, 2, 3, 5, 8] {
            let (mem, stats) = run_functional(spec, Some(threads));
            assert_eq!(
                mem_seq, mem,
                "`{name}` memory diverged at {threads} threads"
            );
            assert_eq!(
                stats_seq, stats,
                "`{name}` stats diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn tapered_stealing_covers_tiny_launches() {
    // A fixed STEAL_RANGE=8 claim degenerates on small launches (one
    // thread swallows a 1–9-group launch whole); the tapered claim
    // (`steal_claim`) hands out single-group bites instead. Bit-identity
    // with the sequential interpreter is structural either way — this
    // pins it across every 1–9-group shape at 1–8 threads.
    use clrt::{Arg, Context, Platform, Program};
    const SRC: &str = "kernel void fill(global float* b) {
        size_t i = get_global_id(0);
        b[i] = b[i] * 3.0f + 1.0f;
    }";
    for groups in 1usize..=9 {
        let wg = 4usize;
        let items = groups * wg;
        let nd = NdRange::new_1d(items, wg);
        let run = |threads: Option<usize>| -> (Vec<f32>, DynStats) {
            let mut ctx = Context::new(&Platform::nvidia());
            let program = Program::build(SRC).expect("compiles");
            let mut kernel = program.create_kernel("fill").expect("kernel exists");
            let buf = ctx.create_buffer(items * 4);
            ctx.write_f32(buf, &vec![2.0; items]).expect("write");
            kernel.set_arg(0, Arg::Buffer(buf)).expect("bind");
            let args: Vec<ArgValue> = kernel.resolved_args().expect("args resolved");
            let stats = run_on(
                kernel.module(),
                ctx.memory_mut(),
                "fill",
                nd,
                &args,
                threads,
            )
            .unwrap_or_else(|e| panic!("{groups}-group launch failed: {e}"));
            (ctx.read_f32(buf).expect("read"), stats)
        };
        let seq = run(None);
        assert_eq!(seq.0, vec![7.0f32; items]);
        for threads in [1usize, 2, 3, 4, 8] {
            let par = run(Some(threads));
            assert_eq!(
                seq, par,
                "{groups}-group launch diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn atomic_kernels_are_detected_as_fallback() {
    // `can_parallelize` is the launch-independent accelcheck verdict.
    // stencil/lbm index by global id (Safe); histo_main's histogram
    // updates are discarded-result atomic adds (SafeViaAtomics,
    // deterministic); sgemm's disjointness depends on the launch shape
    // so it is not *statically* eligible; bfs pushes through an
    // unanalyzable frontier index and stays racy outright.
    for (name, expect_parallel) in [
        ("sgemm", false),
        ("stencil", true),
        ("lbm", true),
        ("bfs", false),
        ("histo_main", true),
    ] {
        let spec = KernelSpec::by_name(name).expect("kernel exists");
        let module = spec.compile().expect("compiles");
        assert_eq!(
            Interpreter::new(&module).can_parallelize(spec.entry),
            expect_parallel,
            "`{name}` parallel-eligibility mismatch"
        );
    }

    // sgemm is rescued at launch time: with a concrete NDRange and
    // resolved scalar arguments the per-item stores are provably
    // disjoint, so the launch-aware gate widens beyond the static
    // verdict.
    use clrt::{Context, Platform, Program};
    let spec = KernelSpec::by_name("sgemm").expect("kernel exists");
    let mut ctx = Context::new(&Platform::nvidia());
    let program = Program::build(spec.source).expect("bundled kernels compile");
    let prepared = prepare_launch(spec, &mut ctx, &program, 1, 7).expect("prepare");
    let kernel = prepared.kernel;
    let args = kernel.resolved_args().expect("args resolved");
    let interp = Interpreter::new(kernel.module());
    assert!(
        interp.parallel_eligible(kernel.name(), prepared.ndrange, &args),
        "sgemm's concrete launch must be rescued by the launch-aware gate"
    );
}

#[test]
fn parallel_sweep_reproduces_sequential_exactly() {
    // Force a real thread pool even on single-core CI hosts so the
    // parallel code path is exercised rather than short-circuited.
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let runner = Runner::new(DeviceConfig::k20m());
    let cfg = SweepConfig {
        pairs: 8,
        n4: 5,
        n8: 3,
        reps: 2,
        seed: 2016,
    };
    let set = PolicySet::paper();
    for rq in [2usize, 4, 8] {
        let par = sweep(&runner, &set, &cfg, rq);
        let seq = sweep_seq(&runner, &set, &cfg, rq);
        assert_eq!(
            par, seq,
            "sweep of {rq} requests diverged under parallelism"
        );
    }
}

#[test]
fn measure_workload_is_seed_deterministic() {
    let runner = Runner::new(DeviceConfig::k20m());
    let wl = vec![
        KernelSpec::by_name("sgemm").unwrap(),
        KernelSpec::by_name("spmv").unwrap(),
    ];
    let set = PolicySet::paper();
    let a = measure_workload(&runner, &set, &wl, 2, 99);
    let b = measure_workload(&runner, &set, &wl, 2, 99);
    assert_eq!(a, b);
    let c = measure_workload(&runner, &set, &wl, 2, 100);
    assert_ne!(a, c, "different seeds must draw different costs");
}
