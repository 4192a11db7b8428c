//! Static analyses used by the accelOS resource-sharing algorithm (paper §3)
//! and adaptive scheduling (paper §6.4).
//!
//! * [`register_pressure`] — per-work-item register demand, estimated as the
//!   maximum number of simultaneously live virtual registers (backward
//!   liveness dataflow), plus the function parameters. This is the `r_i` in
//!   the paper's `Σ z_i·r_i ≤ R` constraint.
//! * [`local_mem_usage`] — bytes of `local` memory allocated statically by a
//!   kernel; the `m_i` in `Σ y_i·m_i ≤ L`.
//! * [`static_insn_count`] — the "kernel instructions in LLVM IR" measure
//!   driving adaptive chunk selection.
//! * [`callgraph`] / [`reachable_helpers`] — call-graph utilities used by the
//!   JIT when cloning kernels and their callees; [`reaches`] — whether a
//!   function or anything it calls has an instruction of some kind.

use crate::bytecode::{CompiledLaunch, ShapeKey};
use crate::error::InterpError;
use crate::interp::PrivateFrames;
use crate::ir::{Function, Inst, Module, Op, Terminator, ValueId};
use crate::types::AddressSpace;
use crate::verify::{operands, successors};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Per-block liveness sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Liveness {
    /// Values live at entry of each block.
    pub live_in: Vec<BTreeSet<ValueId>>,
    /// Values live at exit of each block.
    pub live_out: Vec<BTreeSet<ValueId>>,
}

/// Compute classic backward liveness over the CFG.
///
/// Parameters are treated like any other value: live from entry to their last
/// use.
pub fn liveness(func: &Function) -> Liveness {
    let n = func.blocks.len();
    let succs = successors(func);

    // use/def per block
    let mut use_set = vec![BTreeSet::new(); n];
    let mut def_set = vec![BTreeSet::new(); n];
    for (b, block) in func.blocks.iter().enumerate() {
        for inst in &block.insts {
            for v in operands(&inst.op) {
                if !def_set[b].contains(&v) {
                    use_set[b].insert(v);
                }
            }
            if let Some(r) = inst.result {
                def_set[b].insert(r);
            }
        }
        if let Some(t) = &block.term {
            let uses: Vec<ValueId> = match t {
                Terminator::CondBr { cond, .. } => vec![*cond],
                Terminator::Ret(Some(v)) => vec![*v],
                _ => vec![],
            };
            for v in uses {
                if !def_set[b].contains(&v) {
                    use_set[b].insert(v);
                }
            }
        }
    }

    let mut live_in = vec![BTreeSet::new(); n];
    let mut live_out = vec![BTreeSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            let mut out = BTreeSet::new();
            for s in &succs[b] {
                out.extend(live_in[s.index()].iter().copied());
            }
            let mut inn: BTreeSet<ValueId> = use_set[b].clone();
            inn.extend(out.difference(&def_set[b]).copied());
            if inn != live_in[b] || out != live_out[b] {
                live_in[b] = inn;
                live_out[b] = out;
                changed = true;
            }
        }
    }
    Liveness { live_in, live_out }
}

/// Maximum number of simultaneously live values anywhere in the function.
///
/// This approximates the per-work-item register demand the way a vendor
/// compiler's linear-scan allocator would see it (before spilling). The
/// result is at least 1 for any non-empty function.
pub fn register_pressure(func: &Function) -> usize {
    let lv = liveness(func);
    let mut max = 0usize;
    for (b, block) in func.blocks.iter().enumerate() {
        // Walk backward through the block maintaining the live set.
        let mut live = lv.live_out[b].clone();
        max = max.max(live.len());
        if let Some(t) = &block.term {
            let uses: Vec<ValueId> = match t {
                Terminator::CondBr { cond, .. } => vec![*cond],
                Terminator::Ret(Some(v)) => vec![*v],
                _ => vec![],
            };
            for v in uses {
                live.insert(v);
            }
            max = max.max(live.len());
        }
        for inst in block.insts.iter().rev() {
            if let Some(r) = inst.result {
                live.remove(&r);
            }
            for v in operands(&inst.op) {
                live.insert(v);
            }
            max = max.max(live.len());
        }
    }
    max.max(1)
}

/// Bytes of statically declared `local` memory (local allocas).
///
/// Dynamic local memory passed as kernel arguments is accounted separately by
/// the launch layer, mirroring how OpenCL splits static vs `clSetKernelArg`
/// local allocations.
pub fn local_mem_usage(func: &Function) -> usize {
    let mut bytes = 0usize;
    for block in &func.blocks {
        for inst in &block.insts {
            if let Op::Alloca {
                elem,
                count,
                space: AddressSpace::Local,
            } = &inst.op
            {
                bytes += elem.byte_size() * (*count as usize);
            }
        }
    }
    bytes
}

/// Static (non-terminator) instruction count — the §6.4 adaptive-scheduling
/// input. Includes instructions of helper functions reachable from `func`
/// through calls, matching the paper's post-inlining view of kernel size.
pub fn static_insn_count(func: &Function, module: &Module) -> usize {
    let mut total = func.insn_count();
    for callee in reachable_helpers(func, module) {
        if let Some(f) = module.function(&callee) {
            total += f.insn_count();
        }
    }
    total
}

/// Direct callees of a function, in first-use order without duplicates.
pub fn callees(func: &Function) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for block in &func.blocks {
        for inst in &block.insts {
            if let Op::Call { callee, .. } = &inst.op {
                if seen.insert(callee.clone()) {
                    out.push(callee.clone());
                }
            }
        }
    }
    out
}

/// The call graph of a module: function name → direct callees.
pub fn callgraph(module: &Module) -> BTreeMap<String, Vec<String>> {
    module
        .functions
        .iter()
        .map(|f| (f.name.clone(), callees(f)))
        .collect()
}

/// All helper functions transitively reachable from `func` via calls,
/// in BFS order (excluding `func` itself).
pub fn reachable_helpers(func: &Function, module: &Module) -> Vec<String> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut order = Vec::new();
    let mut queue: Vec<String> = callees(func);
    while let Some(name) = queue.pop() {
        if !seen.insert(name.clone()) {
            continue;
        }
        order.push(name.clone());
        if let Some(f) = module.function(&name) {
            queue.extend(callees(f));
        }
    }
    order
}

/// Whether `func`, or a function it calls (transitively), has an
/// instruction `pred` holds for. Calls of functions the module does not
/// define are not followed.
pub fn reaches(func: &Function, module: &Module, pred: impl Fn(&Function, &Inst) -> bool) -> bool {
    let has = |f: &Function| f.blocks.iter().flat_map(|b| &b.insts).any(|i| pred(f, i));
    has(func)
        || reachable_helpers(func, module)
            .iter()
            .filter_map(|n| module.function(n))
            .any(has)
}

/// Whether the function (or any reachable callee) contains a barrier.
pub fn uses_barrier(func: &Function, module: &Module) -> bool {
    reaches(func, module, |_, i| matches!(i.op, Op::Barrier))
}

/// Whether the function (or any reachable callee) performs atomics on
/// *global* (or constant) memory.
///
/// Work groups never share `local` or `private` arenas, so local-space
/// atomics are safe under group-level parallelism, while global-memory
/// atomics introduce cross-group ordering the sequential interpreter
/// resolves by running groups in flat order. The sharding gate of
/// [`crate::interp::Interpreter::run_kernel_bytecode`] is the finer race
/// analysis ([`crate::races`]), which admits global atomics whose
/// contention is deterministic.
pub fn uses_global_atomics(func: &Function, module: &Module) -> bool {
    reaches(func, module, |f, i| match &i.op {
        Op::AtomicRmw { ptr, .. } | Op::AtomicCmpXchg { ptr, .. } => matches!(
            f.value_type(*ptr).space(),
            Some(AddressSpace::Global | AddressSpace::Constant)
        ),
        _ => false,
    })
}

/// Whether the function (or any reachable callee) performs atomics.
pub fn uses_atomics(func: &Function, module: &Module) -> bool {
    reaches(func, module, |_, i| {
        matches!(i.op, Op::AtomicRmw { .. } | Op::AtomicCmpXchg { .. })
    })
}

/// The accelcheck cache: each kernel's gate report
/// ([`crate::races::gate_report`]) and within-group proof
/// ([`crate::races::lockstep_report`]), computed on the kernel's first
/// query and kept for the life of the facts, and one record per launch
/// shape for the last [`LAUNCH_MEMO`] shapes: the two per-launch answers
/// those give and the shape's compiled programs (see the
/// [bytecode module docs](crate::bytecode)). Beside them, the module's
/// private frame layout.
///
/// The interpreter gate, the `clrt` queue and `ProxyCl` all read the
/// facts a program carries. [`ModuleFacts::new`] runs no analysis. A
/// runtime that rebuilds the same program per tenant analyses each kernel
/// once because it shares the built program: `ProxyCl::build_program`
/// keeps the last 64 programs it built, keyed by source text and JIT mode.
/// The facts hold no copy of the module; each query passes it in. They are
/// `Send + Sync`: a sharded launch's workers (the submitting thread and
/// its parked `interp::pool` helpers) and the launches of several
/// submitting threads share them.
#[derive(Debug)]
pub struct ModuleFacts {
    /// Per kernel of the module, by name (most modules have one).
    kernels: Box<[(String, KernelFacts)]>,
    /// The private frame layout of the module's functions, made on the
    /// first launch.
    private: OnceLock<Result<PrivateFrames, InterpError>>,
}

/// Launch shapes whose records each kernel's facts keep; the least
/// recently launched is evicted first.
pub const LAUNCH_MEMO: usize = 8;

/// One kernel's answers, each computed on its first query.
#[derive(Debug, Default)]
struct KernelFacts {
    /// The gate report, cut to what the eligibility checks read, and
    /// whether the kernel's dequeue contract holds.
    gate: OnceLock<Option<(crate::races::KernelRaceReport, bool)>>,
    lockstep: OnceLock<Option<crate::races::LockstepReport>>,
    /// The records of the last launch shapes, least recently launched
    /// first.
    launches: Mutex<VecDeque<Arc<LaunchRecord>>>,
}

/// One launch shape of a kernel and what is decided for it, each on the
/// first launch that needs it and then shared, read-only, by every launch
/// of the shape: whether its groups may shard, whether they run in
/// lockstep, and its compiled programs. A launch takes the memo's lock
/// only to find or insert its record; the answers and the compile run
/// outside it, once per record.
#[derive(Debug)]
pub(crate) struct LaunchRecord {
    key: ShapeKey,
    pub(crate) sharding: OnceLock<bool>,
    pub(crate) lockstep: OnceLock<bool>,
    pub(crate) compiled: OnceLock<Arc<CompiledLaunch>>,
}

impl ModuleFacts {
    /// Empty facts for the kernels of `module`: each answer is computed
    /// on its first query.
    pub fn new(module: &Module) -> ModuleFacts {
        ModuleFacts {
            kernels: module
                .kernel_names()
                .into_iter()
                .map(|name| (name.to_string(), KernelFacts::default()))
                .collect(),
            private: OnceLock::new(),
        }
    }

    /// The private frame layout of `module` (the module these facts were
    /// computed from), made on first use; an error when a frame exceeds
    /// [`crate::interp::MAX_PRIVATE_FRAME_BYTES`].
    pub(crate) fn private_frames(&self, module: &Module) -> Result<&PrivateFrames, InterpError> {
        self.private
            .get_or_init(|| PrivateFrames::new(module))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The record of kernel `name`'s launch shape `key`, made the most
    /// recently launched of the kernel's [`LAUNCH_MEMO`]: the kept one, or
    /// a new empty one (kept nowhere for a kernel these facts do not
    /// know).
    pub(crate) fn launch_record(&self, name: &str, key: ShapeKey) -> Arc<LaunchRecord> {
        let mut memo = self.kernel(name).map(|k| lock(&k.launches));
        if let Some(memo) = &mut memo {
            if let Some(i) = memo.iter().position(|r| r.key == key) {
                let record = memo.remove(i).expect("found");
                memo.push_back(Arc::clone(&record));
                return record;
            }
        }
        let record = Arc::new(LaunchRecord {
            key,
            sharding: OnceLock::new(),
            lockstep: OnceLock::new(),
            compiled: OnceLock::new(),
        });
        if let Some(memo) = &mut memo {
            if memo.len() == LAUNCH_MEMO {
                memo.pop_front();
            }
            memo.push_back(Arc::clone(&record));
        }
        record
    }

    /// The report gating cross-group parallel execution of kernel `name`
    /// and its dequeue contract when one holds (see
    /// [`crate::races::gate_report`]), computed from `module` (the module
    /// these facts were computed from) on first use. The report keeps only
    /// what the eligibility checks read: the verdict, and the sites of
    /// the parameters re-checked per launch.
    pub fn gate_report<'m>(
        &self,
        module: &'m Module,
        name: &str,
    ) -> Option<(
        &crate::races::KernelRaceReport,
        Option<&'m crate::ir::DequeueContract>,
    )> {
        let (report, contract) = self
            .kernel(name)?
            .gate
            .get_or_init(|| {
                crate::races::gate_report(module, name).map(|(r, c)| (r.into_gate(), c.is_some()))
            })
            .as_ref()?;
        Some((report, module.dequeue.get(name).filter(|_| *contract)))
    }

    /// Cached within-group proof for kernel `name`
    /// ([`crate::races::lockstep_report`]), computed from `module` (the
    /// module these facts were computed from) on first use.
    pub fn lockstep_report(
        &self,
        module: &Module,
        name: &str,
    ) -> Option<&crate::races::LockstepReport> {
        self.kernel(name)?
            .lockstep
            .get_or_init(|| crate::races::lockstep_report(module, name))
            .as_ref()
    }

    fn kernel(&self, name: &str) -> Option<&KernelFacts> {
        self.kernels.iter().find(|(k, _)| k == name).map(|(_, f)| f)
    }
}

/// A memo's lock; a panic elsewhere leaves its entries whole.
fn lock<T>(memo: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    memo.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ir::{BinOp, FunctionKind, WiBuiltin};
    use crate::types::{AddressSpace, Type};

    fn simple_kernel() -> (Function, Module) {
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::F32));
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let p = b.gep(out, gid);
        let v = b.load(p);
        let s = b.bin(BinOp::Add, v, v);
        b.store(p, s);
        b.ret(None);
        let f = b.finish();
        let mut m = Module::new();
        m.insert_function(f.clone());
        (f, m)
    }

    #[test]
    fn liveness_straightline() {
        let (f, _) = simple_kernel();
        let lv = liveness(&f);
        // Single block: nothing live in (param is used, hence live-in).
        assert!(lv.live_in[0].contains(&ValueId(0)));
        assert!(lv.live_out[0].is_empty());
    }

    #[test]
    fn pressure_is_reasonable() {
        let (f, _) = simple_kernel();
        let p = register_pressure(&f);
        assert!((2..=6).contains(&p), "pressure {p}");
    }

    #[test]
    fn pressure_grows_with_live_values() {
        // Chain of adds where every intermediate is kept alive until the end.
        let mut b = FunctionBuilder::new("f", FunctionKind::Helper, Type::I32);
        let x = b.add_param("x", Type::I32);
        let vals: Vec<_> = (0..8)
            .map(|i| {
                let c = b.const_i32(i);
                b.bin(BinOp::Mul, x, c)
            })
            .collect();
        let mut acc = vals[0];
        for v in &vals[1..] {
            acc = b.bin(BinOp::Add, acc, *v);
        }
        b.ret(Some(acc));
        let f = b.finish();
        assert!(register_pressure(&f) >= 8, "got {}", register_pressure(&f));
    }

    #[test]
    fn local_mem_counts_only_local() {
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let _l = b.alloca(Type::F32, 64, AddressSpace::Local); // 256 bytes
        let _p = b.alloca(Type::I64, 4, AddressSpace::Private); // not counted
        let _l2 = b.alloca(Type::I32, 16, AddressSpace::Local); // 64 bytes
        b.ret(None);
        assert_eq!(local_mem_usage(&b.finish()), 256 + 64);
    }

    #[test]
    fn insn_count_includes_callees() {
        let mut h = FunctionBuilder::new("h", FunctionKind::Helper, Type::I32);
        let x = h.add_param("x", Type::I32);
        let y = h.bin(BinOp::Add, x, x);
        h.ret(Some(y));
        let h = h.finish(); // 1 inst

        let mut k = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let c = k.const_i32(1);
        let _ = k.call("h", vec![c], Type::I32);
        k.ret(None);
        let k = k.finish(); // 2 insts

        let mut m = Module::new();
        m.insert_function(h);
        m.insert_function(k.clone());
        assert_eq!(static_insn_count(&k, &m), 3);
    }

    #[test]
    fn callgraph_and_reachability() {
        let mut a = FunctionBuilder::new("a", FunctionKind::Helper, Type::Void);
        a.call("b", vec![], Type::Void);
        a.ret(None);
        let mut b = FunctionBuilder::new("b", FunctionKind::Helper, Type::Void);
        b.call("c", vec![], Type::Void);
        b.ret(None);
        let mut c = FunctionBuilder::new("c", FunctionKind::Helper, Type::Void);
        c.ret(None);
        let mut k = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        k.call("a", vec![], Type::Void);
        k.ret(None);
        let mut m = Module::new();
        for f in [a.finish(), b.finish(), c.finish(), k.finish()] {
            m.insert_function(f);
        }
        let cg = callgraph(&m);
        assert_eq!(cg["k"], vec!["a"]);
        let reach = reachable_helpers(m.function("k").unwrap(), &m);
        assert_eq!(reach.len(), 3);
        assert!(reach.contains(&"c".to_string()));
    }

    #[test]
    fn barrier_and_atomic_detection() {
        let mut h = FunctionBuilder::new("h", FunctionKind::Helper, Type::Void);
        h.barrier();
        h.ret(None);
        let mut k = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        k.call("h", vec![], Type::Void);
        k.ret(None);
        let mut m = Module::new();
        m.insert_function(h.finish());
        m.insert_function(k.finish());
        let kf = m.function("k").unwrap();
        assert!(uses_barrier(kf, &m));
        assert!(!uses_atomics(kf, &m));
    }

    #[test]
    fn module_facts_match_uncached_analyses() {
        let (_, m) = simple_kernel();
        let facts = ModuleFacts::new(&m);
        for name in m.kernel_names() {
            let (cached, contract) = facts.gate_report(&m, name).expect("report");
            let (fresh, _) = crate::races::gate_report(&m, name).unwrap();
            assert_eq!(cached.verdict, fresh.verdict);
            assert_eq!(cached.eligible_static(), fresh.eligible_static());
            assert_eq!(
                cached.eligible_for_any_groups(1, true),
                fresh.eligible_for_any_groups(1, true)
            );
            assert!(contract.is_none());
            let proof = facts.lockstep_report(&m, name).expect("proof");
            let fresh = crate::races::lockstep_report(&m, name).unwrap();
            assert_eq!(proof.refusal(), fresh.refusal());
        }
        assert!(facts.gate_report(&m, "missing").is_none());
        assert!(facts.lockstep_report(&m, "missing").is_none());
        // The cache must be shareable across a launch's workers and
        // across submitting threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModuleFacts>();
    }

    #[test]
    fn launch_memo_keeps_its_bound_per_kernel() {
        // Shapes churn past the memo's bound, twice: every launch's answers
        // equal fresh analyses, the memo never holds more than its bound,
        // and each kept record holds both answers and its programs.
        use crate::interp::{ArgValue, DeviceMemory, Interpreter, NdRange};
        let (_, m) = simple_kernel();
        let facts = ModuleFacts::new(&m);
        let kept = || lock(&facts.kernel("k").unwrap().launches).len();
        let interp = Interpreter::with_facts(&m, &facts);
        let (report, _) = crate::races::gate_report(&m, "k").unwrap();
        let proof = crate::races::lockstep_report(&m, "k").unwrap();
        let mut mem = DeviceMemory::new();
        let out = mem.alloc(4 * 4 * 3 * LAUNCH_MEMO);
        let args = [ArgValue::Buffer(out)];
        for round in 0..2 {
            for groups in 1..=3 * LAUNCH_MEMO {
                let nd = NdRange::new_1d(4 * groups, 4);
                let env = crate::races::LaunchEnv {
                    local: [4, 1, 1],
                    groups: [groups, 1, 1],
                    work_dim: 1,
                    args: &[None],
                    distinct_buffers: true,
                };
                let what = format!("round {round}: {env:?}");
                assert_eq!(
                    interp.parallel_eligible_in(&mem, "k", nd, &args),
                    report.eligible_for_launch(&env),
                    "{what}"
                );
                assert_eq!(
                    interp.lockstep_eligible_in(&mem, "k", nd, &args),
                    proof.eligible_for_launch(&env),
                    "{what}"
                );
                interp
                    .run_kernel_bytecode(&mut mem, "k", nd, &args, 1)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert!(kept() <= LAUNCH_MEMO);
            }
        }
        assert_eq!(kept(), LAUNCH_MEMO);
        let answered = |r: &Arc<LaunchRecord>| {
            r.sharding.get().is_some() && r.lockstep.get().is_some() && r.compiled.get().is_some()
        };
        assert!(lock(&facts.kernel("k").unwrap().launches)
            .iter()
            .all(answered));
        // An unknown kernel keeps no record and has no answers.
        let nd = NdRange::new_1d(4, 4);
        assert!(!interp.parallel_eligible_in(&mem, "missing", nd, &args));
        assert!(!interp.lockstep_eligible_in(&mem, "missing", nd, &args));
    }

    #[test]
    fn program_memo_keeps_its_bound_per_kernel() {
        // Launch sizes churn past the memo's bound, twice: the kernel never
        // keeps more than its bound of compiled programs, a kept shape's
        // relaunch reuses its program, and the private layout is made once.
        use crate::interp::{ArgValue, DeviceMemory, Interpreter, NdRange};
        let (_, m) = simple_kernel();
        let facts = ModuleFacts::new(&m);
        let programs = || {
            lock(&facts.kernel("k").unwrap().launches)
                .iter()
                .filter_map(|r| r.compiled.get().cloned())
                .collect::<Vec<_>>()
        };
        let interp = Interpreter::with_facts(&m, &facts);
        let mut mem = DeviceMemory::new();
        let out = mem.alloc(4 * 3 * LAUNCH_MEMO);
        let args = [ArgValue::Buffer(out)];
        for round in 0..2 {
            for items in 1..=3 * LAUNCH_MEMO {
                let nd = NdRange::new_1d(items, 1);
                interp
                    .run_kernel_bytecode(&mut mem, "k", nd, &args, 1)
                    .unwrap_or_else(|e| panic!("round {round}, {items} items: {e}"));
                assert!(programs().len() <= LAUNCH_MEMO);
            }
        }
        let kept = programs();
        assert_eq!(kept.len(), LAUNCH_MEMO);
        // The newest shape is kept: its relaunch binds the kept program.
        let relaunch = |items: usize| {
            let nd = NdRange::new_1d(items, 1);
            let mut setup = interp.plan(&mem, "k", &args).unwrap();
            let gate = interp.gate(Some(&mem), "k", nd, &args);
            interp.bind_launch(&gate, &mut setup, nd, &args)
        };
        let (launch, memoised) = relaunch(3 * LAUNCH_MEMO);
        assert!(memoised);
        assert!(kept.iter().any(|p| Arc::ptr_eq(p, &launch.compiled)));
        assert_eq!(programs().len(), LAUNCH_MEMO);
        // The least recently launched shape is evicted first: the oldest
        // kept shape, relaunched, outlives the next one past a new shape.
        let (oldest, memoised) = relaunch(2 * LAUNCH_MEMO + 1);
        assert!(memoised);
        interp
            .run_kernel_bytecode(&mut mem.clone(), "k", NdRange::new_1d(1, 1), &args, 1)
            .unwrap();
        assert!(programs().iter().any(|p| Arc::ptr_eq(p, &oldest.compiled)));
        assert!(!relaunch(2 * LAUNCH_MEMO + 2).1);
        // The private layout is made once, on the first launch.
        let layout: *const _ = facts.private_frames(&m).unwrap();
        assert!(std::ptr::eq(facts.private_frames(&m).unwrap(), layout));
    }

    #[test]
    fn two_threads_launching_one_shape_compile_it_once() {
        // Two threads, released together, launch one shape through shared
        // facts, each on its own memory: the shape is compiled once, both
        // launches run the same program, and the kernel's memo holds one
        // record.
        use crate::interp::{ArgValue, DeviceMemory, Interpreter, NdRange};
        let (_, m) = simple_kernel();
        let facts = ModuleFacts::new(&m);
        let start = std::sync::Barrier::new(2);
        let nd = NdRange::new_1d(16, 4);
        let runs: Vec<(Arc<CompiledLaunch>, bool)> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..2)
                .map(|t| {
                    let (m, facts, start) = (&m, &facts, &start);
                    scope.spawn(move || {
                        let interp = Interpreter::with_facts(m, facts);
                        let mut mem = DeviceMemory::new();
                        let out = mem.alloc(4 * 16);
                        let x = t as f32 + 1.0;
                        mem.write_f32(out, &[x; 16]);
                        let args = [ArgValue::Buffer(out)];
                        start.wait();
                        let mut setup = interp.plan(&mem, "k", &args).unwrap();
                        let gate = interp.gate(Some(&mem), "k", nd, &args);
                        let (launch, memoised) = interp.bind_launch(&gate, &mut setup, nd, &args);
                        interp
                            .run_kernel_bytecode(&mut mem, "k", nd, &args, 2)
                            .unwrap();
                        assert_eq!(mem.read_f32(out), [2.0 * x; 16], "thread {t}");
                        (launch.compiled, memoised)
                    })
                })
                .collect();
            threads.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(Arc::ptr_eq(&runs[0].0, &runs[1].0), "one shared program");
        assert_eq!(runs.iter().filter(|(_, memoised)| !memoised).count(), 1);
        let memo = lock(&facts.kernel("k").unwrap().launches);
        assert_eq!(memo.len(), 1);
        assert!(Arc::ptr_eq(memo[0].compiled.get().unwrap(), &runs[0].0));
    }

    #[test]
    fn facts_analyse_each_kernel_once_on_first_query() {
        let (_, m) = simple_kernel();
        let facts = ModuleFacts::new(&m);
        let analysed = |f: &ModuleFacts| {
            f.kernels
                .iter()
                .any(|(_, k)| k.gate.get().is_some() || k.lockstep.get().is_some())
        };
        assert!(!analysed(&facts), "construction must run no race analysis");
        let report: *const _ = facts.gate_report(&m, "k").unwrap().0;
        let proof: *const _ = facts.lockstep_report(&m, "k").unwrap();
        assert!(analysed(&facts));
        // Later queries return the answers already computed.
        assert!(std::ptr::eq(facts.gate_report(&m, "k").unwrap().0, report));
        assert!(std::ptr::eq(facts.lockstep_report(&m, "k").unwrap(), proof));
    }
}
