//! End-to-end integration: applications running against the transparent
//! ProxyCL interface get correct results *and* fair device sharing, across
//! the whole stack (front end → JIT → scheduler → interpreter → machine
//! model).

use accelos::chunk::Mode;
use accelos::proxycl::{PendingExec, ProxyCl};
use clrt::{Arg, ClError, Platform, Program};
use kernel_ir::interp::NdRange;
use kernel_ir::Value;

/// Two tenants with different kernels, batched concurrently: both outputs
/// must be exact and their executions must overlap in device time.
#[test]
fn concurrent_tenants_get_correct_results_and_overlap() {
    let mut os = ProxyCl::new(&Platform::nvidia(), Mode::Optimized);
    let program_a = os
        .build_program(
            "kernel void mul(global float* b, float s) {
                size_t i = get_global_id(0);
                b[i] = b[i] * s;
            }",
        )
        .expect("build a");
    let program_b = os
        .build_program(
            "kernel void rotate(global const int* in, global int* out, int n) {
                size_t i = get_global_id(0);
                out[(i + 1) % (size_t)n] = in[i];
            }",
        )
        .expect("build b");

    let n = 512;
    let buf_a = os.context_mut().create_buffer(n * 4);
    os.context_mut().write_f32(buf_a, &vec![3.0; n]).unwrap();
    let mut k_a = program_a.create_kernel("mul").unwrap();
    k_a.set_arg(0, Arg::Buffer(buf_a)).unwrap();
    k_a.set_arg(1, Arg::Scalar(Value::F32(7.0))).unwrap();

    let in_b = os.context_mut().create_buffer(n * 4);
    let out_b = os.context_mut().create_buffer(n * 4);
    os.context_mut()
        .write_i32(in_b, &(0..n as i32).collect::<Vec<_>>())
        .unwrap();
    let mut k_b = program_b.create_kernel("rotate").unwrap();
    k_b.set_arg(0, Arg::Buffer(in_b)).unwrap();
    k_b.set_arg(1, Arg::Buffer(out_b)).unwrap();
    k_b.set_arg(2, Arg::Scalar(Value::I32(n as i32))).unwrap();

    let events = os
        .enqueue_concurrent(vec![
            PendingExec {
                kernel: k_a,
                chunk: program_a.info("mul").unwrap().chunk,
                ndrange: NdRange::new_1d(n, 64),
            },
            PendingExec {
                kernel: k_b,
                chunk: program_b.info("rotate").unwrap().chunk,
                ndrange: NdRange::new_1d(n, 64),
            },
        ])
        .expect("batch runs");

    // Functional correctness through the whole transformed stack.
    assert_eq!(os.context_mut().read_f32(buf_a).unwrap(), vec![21.0; n]);
    let rotated = os.context_mut().read_i32(out_b).unwrap();
    assert_eq!(rotated[0], n as i32 - 1);
    assert_eq!(rotated[1], 0);
    assert_eq!(rotated[n - 1], n as i32 - 2);

    // Timing: the two kernels co-execute (space sharing).
    let overlap = events[0]
        .end
        .min(events[1].end)
        .saturating_sub(events[0].start.max(events[1].start));
    assert!(overlap > 0, "batched kernels must overlap: {events:?}");
}

/// The same program built repeatedly stays transparent: kernel names,
/// arities and results are stable across naive and optimized modes.
#[test]
fn modes_agree_functionally() {
    for mode in [Mode::Naive, Mode::Optimized] {
        let mut os = ProxyCl::new(&Platform::amd(), mode);
        let program = os
            .build_program(
                "kernel void fib_step(global long* cells, int n) {
                    size_t i = get_global_id(0);
                    if ((int)i < n - 2) {
                        cells[i + 2] = cells[i] + cells[i + 1];
                    }
                }",
            )
            .unwrap();
        let cells = os.context_mut().create_buffer(16 * 8);
        os.context_mut()
            .write_i64(cells, &[1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
            .unwrap();
        let mut k = program.create_kernel("fib_step").unwrap();
        k.set_arg(0, Arg::Buffer(cells)).unwrap();
        k.set_arg(1, Arg::Scalar(Value::I32(4))).unwrap();
        os.enqueue(&program, &k, NdRange::new_1d(16, 4)).unwrap();
        let out = os.context_mut().read_i64(cells).unwrap();
        assert_eq!(&out[..4], &[1, 1, 2, 3], "mode {mode:?}");
    }
}

/// Memory manager integration: admissions and pauses follow the device's
/// global memory capacity.
#[test]
fn memory_manager_paces_applications() {
    use accelos::memory::{Admission, AppId, MemoryManager};
    use gpu_sim::DeviceConfig;

    let dev = DeviceConfig::test_tiny(); // 1 MiB of global memory
    let mut mm = MemoryManager::new(dev.global_mem_bytes);
    assert_eq!(mm.request(AppId(1), 700 * 1024), Admission::Admitted);
    assert_eq!(mm.request(AppId(2), 700 * 1024), Admission::Paused);
    let resumed = mm.release(AppId(1), 700 * 1024);
    assert_eq!(resumed, vec![AppId(2)]);
}

/// Workload determinism across the whole harness: identical seeds produce
/// identical metrics (the property every sweep figure relies on).
#[test]
fn harness_runs_are_reproducible() {
    use accel_harness::runner::Runner;
    use accelos::policy::PolicySet;
    use gpu_sim::DeviceConfig;
    use parboil::KernelSpec;

    let wl = [
        KernelSpec::by_name("spmv").unwrap(),
        KernelSpec::by_name("sgemm").unwrap(),
        KernelSpec::by_name("histo_main").unwrap(),
    ];
    let r1 = Runner::new(DeviceConfig::r9_295x2());
    let r2 = Runner::new(DeviceConfig::r9_295x2());
    for policy in PolicySet::paper().iter() {
        let a = r1.run_workload(policy.as_ref(), &wl, 99);
        let b = r2.run_workload(policy.as_ref(), &wl, 99);
        assert_eq!(a.shared, b.shared, "{}", policy.name());
        assert_eq!(a.total_time, b.total_time, "{}", policy.name());
    }
}

/// The front end's source-length cap holds on both build paths: a source
/// of exactly `minicl::MAX_SOURCE_BYTES` builds, one byte more is a build
/// failure.
#[test]
fn sources_past_the_length_cap_fail_to_build() {
    let kernel = "kernel void capped(global int* o) { o[get_global_id(0)] = 1; }\n";
    let at_cap = format!(
        "{kernel}{}",
        " ".repeat(minicl::MAX_SOURCE_BYTES - kernel.len())
    );
    let over = format!("{at_cap} ");
    let mut os = ProxyCl::new(&Platform::test_tiny(), Mode::Optimized);
    assert!(Program::build(&at_cap).is_ok());
    assert!(os.build_program(&at_cap).is_ok());
    assert!(matches!(
        Program::build(&over),
        Err(ClError::BuildFailure(_))
    ));
    assert!(matches!(
        os.build_program(&over),
        Err(ClError::BuildFailure(_))
    ));
}
