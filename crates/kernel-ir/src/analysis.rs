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
use crate::races::LaunchEnv;
use crate::types::AddressSpace;
use crate::verify::{operands, successors};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::sync::{Mutex, OnceLock, PoisonError};

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
/// query and kept for the life of the facts, and the two per-launch
/// answers they give for the last [`LAUNCH_MEMO`] launch shapes. Beside
/// them, the compiled form of a program: the module's private frame
/// layout, and each kernel's bytecode for its last [`LAUNCH_MEMO`]
/// compiled launch shapes (see the [bytecode module docs](crate::bytecode)).
///
/// The interpreter gate, the `clrt` queue and `ProxyCl` all read the
/// facts a program carries. [`ModuleFacts::new`] runs no analysis. A
/// runtime that rebuilds the same program per tenant analyses each kernel
/// once because it shares the built program: `ProxyCl::build_program`
/// keeps the last 64 programs it built, keyed by source text and JIT mode.
/// The facts hold no copy of the module; each query passes it in. They are
/// `Send + Sync`, so the scoped worker threads of the parallel interpreter
/// share them.
#[derive(Debug)]
pub struct ModuleFacts {
    /// Per kernel of the module, by name (most modules have one).
    kernels: Box<[(String, KernelFacts)]>,
    /// The private frame layout of the module's functions, made on the
    /// first launch.
    private: OnceLock<Result<PrivateFrames, InterpError>>,
}

/// Launch shapes whose answers, and whose compiled programs, each
/// kernel's facts keep; the oldest is evicted first.
pub const LAUNCH_MEMO: usize = 8;

/// One kernel's answers, each computed on its first query.
#[derive(Debug, Default)]
struct KernelFacts {
    /// The gate report, cut to what the eligibility checks read, and
    /// whether the kernel's dequeue contract holds.
    gate: OnceLock<Option<(crate::races::KernelRaceReport, bool)>>,
    lockstep: OnceLock<Option<crate::races::LockstepReport>>,
    /// The per-launch answers of the last launch shapes, oldest first.
    launches: Mutex<VecDeque<LaunchAnswers>>,
    /// The programs compiled for the last launch shapes, oldest first.
    /// A launch takes its program out while it runs.
    programs: Mutex<VecDeque<(ShapeKey, CompiledLaunch)>>,
}

/// The sharding and lockstep answers for one launch, keyed by everything
/// both `eligible_for_launch`s read: the complete [`LaunchEnv`].
#[derive(Debug)]
struct LaunchAnswers {
    local: [usize; 3],
    groups: [usize; 3],
    work_dim: u32,
    args: Box<[Option<i64>]>,
    distinct_buffers: bool,
    sharding: Option<bool>,
    lockstep: Option<bool>,
}

impl LaunchAnswers {
    fn is_for(&self, env: &LaunchEnv<'_>) -> bool {
        self.local == env.local
            && self.groups == env.groups
            && self.work_dim == env.work_dim
            && *self.args == *env.args
            && self.distinct_buffers == env.distinct_buffers
    }
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

    /// The program compiled for kernel `name` at launch shape `key`, taken
    /// out of the memo: the launch binds and runs it, then hands it back
    /// with [`keep_program`](Self::keep_program). Two launches of one
    /// shape at once compile it twice.
    pub(crate) fn take_program(&self, name: &str, key: &ShapeKey) -> Option<CompiledLaunch> {
        let mut memo = lock(&self.kernel(name)?.programs);
        let i = memo.iter().position(|(k, _)| k == key)?;
        memo.remove(i).map(|(_, program)| program)
    }

    /// Keep `program`, compiled for kernel `name` at launch shape `key`,
    /// as the newest of the kernel's [`LAUNCH_MEMO`] programs.
    pub(crate) fn keep_program(&self, name: &str, key: ShapeKey, program: CompiledLaunch) {
        let Some(kernel) = self.kernel(name) else {
            return;
        };
        let mut memo = lock(&kernel.programs);
        memo.retain(|(k, _)| *k != key);
        if memo.len() == LAUNCH_MEMO {
            memo.pop_front();
        }
        memo.push_back((key, program));
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

    /// Whether the launch `env` of kernel `name` may shard its groups
    /// across threads: the gate report's
    /// [`eligible_for_launch`](crate::races::KernelRaceReport::eligible_for_launch),
    /// decided once per launch shape ([`LAUNCH_MEMO`]). False for an
    /// unknown kernel.
    pub fn sharding_for_launch(&self, module: &Module, name: &str, env: &LaunchEnv<'_>) -> bool {
        self.launch_answer(
            name,
            env,
            |a| &mut a.sharding,
            || {
                self.gate_report(module, name)
                    .is_some_and(|(r, _)| r.eligible_for_launch(env))
            },
        )
    }

    /// Whether the launch `env` of kernel `name` may run each group's
    /// items in lockstep: the within-group proof's
    /// [`eligible_for_launch`](crate::races::LockstepReport::eligible_for_launch),
    /// decided once per launch shape ([`LAUNCH_MEMO`]). False for an
    /// unknown kernel.
    pub fn lockstep_for_launch(&self, module: &Module, name: &str, env: &LaunchEnv<'_>) -> bool {
        self.launch_answer(
            name,
            env,
            |a| &mut a.lockstep,
            || {
                self.lockstep_report(module, name)
                    .is_some_and(|r| r.eligible_for_launch(env))
            },
        )
    }

    /// The answer `slot` picks for `env`, from the memo or else computed
    /// (outside the lock) and kept.
    fn launch_answer(
        &self,
        name: &str,
        env: &LaunchEnv<'_>,
        slot: fn(&mut LaunchAnswers) -> &mut Option<bool>,
        compute: impl FnOnce() -> bool,
    ) -> bool {
        let Some(kernel) = self.kernel(name) else {
            return false;
        };
        if let Some(answer) = lock(&kernel.launches)
            .iter_mut()
            .find(|a| a.is_for(env))
            .and_then(|a| *slot(a))
        {
            return answer;
        }
        let answer = compute();
        let mut memo = lock(&kernel.launches);
        let entry = match memo.iter().position(|a| a.is_for(env)) {
            Some(i) => &mut memo[i],
            None => {
                if memo.len() == LAUNCH_MEMO {
                    memo.pop_front();
                }
                memo.push_back(LaunchAnswers {
                    local: env.local,
                    groups: env.groups,
                    work_dim: env.work_dim,
                    args: env.args.into(),
                    distinct_buffers: env.distinct_buffers,
                    sharding: None,
                    lockstep: None,
                });
                memo.back_mut().expect("just pushed")
            }
        };
        *slot(entry) = Some(answer);
        answer
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
        // The cache must be shareable across scoped worker threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModuleFacts>();
    }

    #[test]
    fn launch_memo_keeps_its_bound_per_kernel() {
        let (_, m) = simple_kernel();
        let facts = ModuleFacts::new(&m);
        let kept = |f: &ModuleFacts| f.kernel("k").unwrap().launches.lock().unwrap().len();
        let (report, _) = facts.gate_report(&m, "k").unwrap();
        let proof = facts.lockstep_report(&m, "k").unwrap();
        for round in 0..2 {
            for groups in 1..=3 * LAUNCH_MEMO {
                let env = LaunchEnv {
                    local: [4, 1, 1],
                    groups: [groups, 1, 1],
                    work_dim: 1,
                    args: &[None],
                    distinct_buffers: groups % 2 == 0,
                };
                assert_eq!(
                    facts.sharding_for_launch(&m, "k", &env),
                    report.eligible_for_launch(&env),
                    "round {round}: {env:?}"
                );
                assert_eq!(
                    facts.lockstep_for_launch(&m, "k", &env),
                    proof.eligible_for_launch(&env),
                    "round {round}: {env:?}"
                );
                assert!(kept(&facts) <= LAUNCH_MEMO);
            }
        }
        assert_eq!(kept(&facts), LAUNCH_MEMO);
        // Both answers of one launch share its entry.
        let memo = facts.kernel("k").unwrap().launches.lock().unwrap();
        assert!(memo
            .iter()
            .all(|a| a.sharding.is_some() && a.lockstep.is_some()));
        drop(memo);
        let unknown = LaunchEnv {
            local: [4, 1, 1],
            groups: [1, 1, 1],
            work_dim: 1,
            args: &[],
            distinct_buffers: true,
        };
        assert!(!facts.sharding_for_launch(&m, "missing", &unknown));
        assert!(!facts.lockstep_for_launch(&m, "missing", &unknown));
    }

    #[test]
    fn program_memo_keeps_its_bound_per_kernel() {
        use crate::interp::{ArgValue, DeviceMemory, Interpreter, NdRange};
        let (_, m) = simple_kernel();
        let facts = ModuleFacts::new(&m);
        let kept = || facts.kernel("k").unwrap().programs.lock().unwrap().len();
        let interp = Interpreter::with_facts(&m, &facts);
        let mut mem = DeviceMemory::new();
        let out = mem.alloc(4 * 4 * LAUNCH_MEMO);
        for round in 0..2 {
            for items in 1..=3 * LAUNCH_MEMO {
                let nd = NdRange::new_1d(items, 1);
                let args = [ArgValue::Buffer(out)];
                interp
                    .run_kernel_bytecode(&mut mem, "k", nd, &args, 1)
                    .unwrap_or_else(|e| panic!("round {round}, {items} items: {e}"));
                assert!(kept() <= LAUNCH_MEMO);
            }
        }
        assert_eq!(kept(), LAUNCH_MEMO);
        // The private layout is made once, on the first launch.
        let layout: *const _ = facts.private_frames(&m).unwrap();
        assert!(std::ptr::eq(facts.private_frames(&m).unwrap(), layout));
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
