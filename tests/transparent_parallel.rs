//! The transparent runtime's persistent workers on host threads.
//!
//! A JIT scheduling kernel's workers dequeue virtual groups from one
//! atomic counter, which the race analysis can only call racy. Under the
//! module's `DequeueContract` the interpreter instead checks the
//! *original* kernel against the virtual range and, when that admits the
//! launch, hands worker `w`'s `j`-th dequeue the ticket
//! `base + (j·W + w)·chunk`, so workers run independently across threads.
//! These tests pin that path:
//!
//! * every Parboil kernel through `ProxyCl` gives identical events (with
//!   `DynStats`) and buffers at 1, 2 and 4 interpreter threads and on the
//!   tree-walker, equal to an untransformed run, with the same four
//!   totals as the old sequential loop;
//! * over the generated accelcheck corpus, every launch the gate admits
//!   runs byte-identically to the sequential loop at 2 and 4 threads;
//! * the round-robin order hands out exactly the tickets a real schedule
//!   does (a shrinking proptest).

use accelos::chunk::Mode;
use accelos::jit::transform_module;
use accelos::proxycl::{PendingExec, ProxyCl};
use accelos::vrange::VirtualNdRange;
use clrt::{Arg, CommandQueue, Context, Event, Platform, Program};
use kernel_ir::builder::FunctionBuilder;
use kernel_ir::interp::{ArgValue, DeviceMemory, DynStats, Interpreter, NdRange, ParSchedule};
use kernel_ir::ir::{AtomicOp, BinOp, CmpOp, DequeueContract, FunctionKind, Module, Op, WiBuiltin};
use kernel_ir::testgen::{build_kernel, PATTERNS};
use kernel_ir::types::{AddressSpace, Type};
use kernel_ir::{ExecTier, Value};
use parboil::datasets::prepare_launch;
use parboil::KernelSpec;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serialises the tests of this file: the Parboil test sets the
/// interpreter's thread and tier environment variables.
static ENV: Mutex<()> = Mutex::new(());

/// Kernels whose outputs depend on the order of their atomic slot
/// allocation: compared with the untransformed run as word multisets.
const ORDER_DEPENDENT: [&str; 2] = ["bfs", "mri-gridding_reorder"];

/// Launches the original kernel's gate rejects at scale 1.
const REJECTED: [&str; 2] = ["mri-gridding_reorder", "mri-gridding_splitRearrange"];

const SEED: u64 = 11;

fn read_words(ctx: &Context, bufs: &[clrt::Buffer]) -> Vec<Vec<u8>> {
    bufs.iter()
        .map(|&b| {
            ctx.read_i32(b)
                .expect("read output")
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect()
        })
        .collect()
}

fn canonical(name: &str, mut outs: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    if ORDER_DEPENDENT.contains(&name) {
        for o in &mut outs {
            let mut words: Vec<&[u8]> = o.chunks_exact(4).collect();
            words.sort_unstable();
            *o = words.concat();
        }
    }
    outs
}

fn totals(s: &DynStats) -> [u64; 4] {
    [s.total_insns, s.mem_ops, s.atomic_ops, s.barriers]
}

/// One application alone through `ProxyCl` under the current environment.
fn run_transparent(spec: &KernelSpec) -> (Vec<Event>, Vec<Vec<u8>>) {
    let mut os = ProxyCl::new(&Platform::nvidia(), Mode::Optimized);
    let program = os.build_program(spec.source).expect("build");
    let chunk = program.info(spec.entry).expect("transform info").chunk;
    let p = prepare_launch(spec, os.context_mut(), program.program(), 1, SEED).expect("prepare");
    let pending = PendingExec {
        kernel: p.kernel,
        chunk,
        ndrange: p.ndrange,
    };
    let events = os
        .enqueue_concurrent_at(vec![pending], &[0])
        .unwrap_or_else(|e| panic!("`{}`: {e}", spec.name));
    (events, read_words(os.context_mut(), &p.outputs))
}

/// The untransformed kernel through `clrt`.
fn run_untransformed(spec: &KernelSpec) -> Vec<Vec<u8>> {
    let mut ctx = Context::new(&Platform::nvidia());
    let program = Program::build(spec.source).expect("build");
    let p = prepare_launch(spec, &mut ctx, &program, 1, SEED).expect("prepare");
    CommandQueue::new()
        .enqueue_nd_range(&mut ctx, &p.kernel, p.ndrange)
        .expect("untransformed run");
    read_words(&ctx, &p.outputs)
}

/// The same transformed module over `workers` workers, once with its
/// dequeue contract and once without (today's sequential loop): whether
/// the gate admits the launch, and the contract-free run's statistics.
fn run_contract_free(spec: &KernelSpec, workers: usize) -> (bool, DynStats) {
    let module = minicl::compile(spec.source).expect("compile");
    let transformed = transform_module(&module, Mode::Optimized).expect("transform");
    let with_contract = Program::from_module(transformed.module.clone(), spec.source).unwrap();
    let mut plain = transformed.module;
    assert!(plain.dequeue.remove(spec.entry).is_some());
    let plain = Program::from_module(plain, spec.source).expect("wrap");

    let mut ctx = Context::new(&Platform::nvidia());
    let p = prepare_launch(spec, &mut ctx, &plain, 1, SEED).expect("prepare");
    let v = VirtualNdRange::new(p.ndrange);
    let rt = ctx.create_buffer(8 * v.descriptor().len());
    ctx.write_i64(rt, &v.descriptor()).expect("descriptor");
    let mut kernel = p.kernel;
    let rt_index = kernel.arity() - 1;
    kernel.set_arg(rt_index, Arg::Buffer(rt)).expect("bind rt");
    let args = kernel.resolved_args().expect("args");
    let hw = v.hardware_range(workers as u32);

    let gate = Interpreter::with_facts(with_contract.module(), with_contract.facts());
    let admitted = gate.parallel_eligible_in(ctx.memory_mut(), kernel.name(), hw, &args);
    let mut interp = Interpreter::with_facts(kernel.module(), kernel.facts());
    interp.set_exec_tier(ExecTier::from_env());
    let stats = interp
        .run_kernel_tiered(ctx.memory_mut(), kernel.name(), hw, &args)
        .expect("contract-free run");
    (admitted, stats)
}

#[test]
fn parboil_kernels_are_deterministic_across_threads_and_tiers() {
    let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
    let configs = [
        ("1", "bytecode-opt"),
        ("2", "bytecode-opt"),
        ("4", "bytecode-opt"),
        ("4", "tree"),
    ];
    let mut admitted_kernels = Vec::new();
    for spec in KernelSpec::all() {
        let runs: Vec<(Vec<Event>, Vec<Vec<u8>>)> = configs
            .iter()
            .map(|(threads, tier)| {
                std::env::set_var("ACCELOS_INTERP_THREADS", threads);
                std::env::set_var("ACCELOS_EXEC_TIER", tier);
                run_transparent(spec)
            })
            .collect();
        for (run, config) in runs.iter().zip(&configs).skip(1) {
            assert!(
                run == &runs[0],
                "`{}` differs at {config:?} from {:?}",
                spec.name,
                configs[0]
            );
        }
        let (events, outputs) = &runs[0];
        assert_eq!(
            canonical(spec.name, outputs.clone()),
            canonical(spec.name, run_untransformed(spec)),
            "`{}` differs from the untransformed run",
            spec.name
        );

        let workers = events[0].stats.insns_per_wg.len();
        let (admitted, plain) = run_contract_free(spec, workers);
        assert_eq!(
            totals(&events[0].stats),
            totals(&plain),
            "`{}`: the round-robin order changed the totals",
            spec.name
        );
        if admitted {
            admitted_kernels.push(spec.name);
        }
    }
    std::env::remove_var("ACCELOS_INTERP_THREADS");
    std::env::remove_var("ACCELOS_EXEC_TIER");
    let expected: Vec<&str> = KernelSpec::all()
        .iter()
        .map(|s| s.name)
        .filter(|n| !REJECTED.contains(n))
        .collect();
    assert_eq!(admitted_kernels, expected);
}

#[test]
fn admitted_corpus_launches_match_the_sequential_loop() {
    let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
    let (mut admitted, mut rejected) = (0, 0);
    for pattern in PATTERNS {
        for c in [0, 1, 3] {
            let original = build_kernel(pattern, c);
            for mode in [Mode::Optimized, Mode::Naive] {
                let module = transform_module(&original, mode).expect("transform").module;
                let interp = Interpreter::new(&module);
                for (local, groups, workers, alias) in launches() {
                    let items = local * groups;
                    let elems = 4 * items + 16;
                    let mut mem = DeviceMemory::new();
                    let a = mem.alloc(4 * elems);
                    let b = if alias { a } else { mem.alloc(4 * elems) };
                    let v = VirtualNdRange::new(NdRange::new_1d(items, local));
                    let rt = mem.alloc(8 * v.descriptor().len());
                    mem.write_i64(rt, &v.descriptor());
                    let args = [
                        ArgValue::Buffer(a),
                        ArgValue::Buffer(b),
                        ArgValue::Scalar(Value::I32((items / 2) as i32)),
                        ArgValue::Buffer(rt),
                    ];
                    let hw = v.hardware_range(workers);
                    let case = format!(
                        "{pattern:?} c={c} {mode:?} local={local} groups={groups} \
                         workers={workers} alias={alias}"
                    );
                    if !interp.parallel_eligible_in(&mem, "k", hw, &args) {
                        rejected += 1;
                        continue;
                    }
                    admitted += 1;
                    let mut seq_mem = mem.clone();
                    let seq = interp
                        .run_kernel(&mut seq_mem, "k", hw, &args)
                        .expect("sequential loop");
                    for tier in [ExecTier::TreeWalk, ExecTier::BytecodeOpt] {
                        let mut par = Interpreter::new(&module);
                        par.set_exec_tier(tier);
                        for threads in [2, 4] {
                            let mut par_mem = mem.clone();
                            let stats = par
                                .run_kernel_bytecode(
                                    &mut par_mem,
                                    "k",
                                    hw,
                                    &args,
                                    threads,
                                    ParSchedule::Stealing,
                                )
                                .expect("round-robin run");
                            assert!(
                                seq_mem == par_mem,
                                "{case}: memory differs on {tier:?} x{threads}"
                            );
                            assert_eq!(totals(&seq), totals(&stats), "{case}: {tier:?} x{threads}");
                        }
                    }
                }
            }
        }
    }
    // Both sides of the gate are exercised.
    assert!(
        admitted > 500 && rejected > 100,
        "{admitted} admitted, {rejected} rejected"
    );
}

/// `(local, groups, workers, alias)` shapes of the corpus launches.
fn launches() -> impl Iterator<Item = (usize, usize, u32, bool)> {
    [1, 3].into_iter().flat_map(|local| {
        [1, 2, 5, 8].into_iter().flat_map(move |groups| {
            [1, 2, 3, 7].into_iter().flat_map(move |workers| {
                [false, true]
                    .into_iter()
                    .map(move |alias| (local, groups, workers, alias))
            })
        })
    })
}

/// `kernel void sched(global int* log, global long* rt)`, one item per
/// worker: loop { t = atomic_add(&rt[0], chunk); log[t / chunk] =
/// group + 1; if (t >= rt[1]) return; } — under a contract whose original
/// kernel writes nothing, so every virtual range is admitted and the log
/// records which worker took which ticket.
fn ticket_logger(chunk: u32) -> Module {
    let global = |t| Type::ptr(AddressSpace::Global, t);
    let mut b = FunctionBuilder::new("sched", FunctionKind::Kernel, Type::Void);
    let log = b.add_param("log", global(Type::I32));
    let rt = b.add_param("rt", global(Type::I64));
    let head = b.new_block();
    let exit = b.new_block();
    b.br(head);
    b.switch_to(head);
    let next = b.const_i64(0);
    let pnext = b.gep(rt, next);
    let step = b.const_i64(i64::from(chunk));
    let ticket = b.atomic_rmw(AtomicOp::Add, pnext, step);
    let slot = b.bin(BinOp::Div, ticket, step);
    let group = b.work_item(WiBuiltin::GroupId, 0);
    let group32 = b.cast(Type::I32, group);
    let one = b.const_i32(1);
    let mark = b.bin(BinOp::Add, group32, one);
    let plog = b.gep(log, slot);
    b.store(plog, mark);
    let total_slot = b.const_i64(1);
    let ptotal = b.gep(rt, total_slot);
    let total = b.load(ptotal);
    let done = b.cmp(CmpOp::Ge, ticket, total);
    b.cond_br(done, exit, head);
    b.switch_to(exit);
    b.ret(None);
    let sched = b.finish();

    let mut o = FunctionBuilder::new("sched", FunctionKind::Kernel, Type::Void);
    o.add_param("log", global(Type::I32));
    o.ret(None);
    let mut original = Module::new();
    original.insert_function(o.finish());

    let (block, inst) = sched
        .iter_blocks()
        .find_map(|(id, block)| {
            let i = block
                .insts
                .iter()
                .position(|i| matches!(i.op, Op::AtomicRmw { .. }))?;
            Some((id, i))
        })
        .expect("the logger dequeues");
    let mut module = Module::new();
    module.insert_function(sched);
    module.dequeue.insert(
        "sched".into(),
        DequeueContract {
            block,
            inst,
            descriptor: 1,
            next_slot: 0,
            total_slot: 1,
            dims_slot: 2,
            chunk,
            original,
        },
    );
    kernel_ir::verify::verify_module(&module).expect("logger verifies");
    module
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With `n` successful tickets and `W` workers the round-robin order
    /// hands out exactly the tickets `0 … n+W−1`, ticket `k` to worker
    /// `k mod W` (so one failing ticket per worker), leaves the counter at
    /// `(n+W)·chunk`, and does so identically on every tier and thread
    /// count.
    #[test]
    fn round_robin_hands_out_every_ticket_once(
        dims in proptest::collection::vec(1usize..5, 3..4),
        total_frac in 0usize..5,
        chunk in 1u32..5,
        workers in 1usize..9,
    ) {
        let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
        let groups = dims[0] * dims[1] * dims[2];
        let total = groups * total_frac.min(4) / 4;
        let n = total.div_ceil(chunk as usize);
        let module = ticket_logger(chunk);
        let mut mem = DeviceMemory::new();
        let log = mem.alloc(4 * (n + workers + 1));
        let rt = mem.alloc(8 * 5);
        mem.write_i64(rt, &[0, total as i64, dims[0] as i64, dims[1] as i64, dims[2] as i64]);
        let args = [ArgValue::Buffer(log), ArgValue::Buffer(rt)];
        let hw = NdRange::new_1d(workers, 1);
        prop_assert!(Interpreter::new(&module).parallel_eligible_in(&mem, "sched", hw, &args));

        let mut first: Option<DeviceMemory> = None;
        for tier in [ExecTier::TreeWalk, ExecTier::Bytecode, ExecTier::BytecodeOpt] {
            for threads in [1, 2, 4] {
                let mut interp = Interpreter::new(&module);
                interp.set_exec_tier(tier);
                let mut run = mem.clone();
                interp
                    .run_kernel_bytecode(&mut run, "sched", hw, &args, threads, ParSchedule::Stealing)
                    .expect("logger runs");
                match &first {
                    None => first = Some(run),
                    Some(f) => prop_assert!(f == &run, "{:?} x{} differs", tier, threads),
                }
            }
        }
        let run = first.expect("ran");
        let owners = run.read_i32(log);
        for (k, &owner) in owners.iter().enumerate() {
            if k < n + workers {
                prop_assert_eq!(owner as usize, k % workers + 1, "ticket {}", k);
            } else {
                prop_assert_eq!(owner, 0, "ticket {} handed out", k);
            }
        }
        prop_assert_eq!(run.read_i64(rt)[0], ((n + workers) * chunk as usize) as i64);
    }
}
