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
//!   JIT when cloning kernels and their callees.

use crate::ir::{Function, Module, Op, Terminator, ValueId};
use crate::types::AddressSpace;
use crate::verify::{operands, successors};
use std::collections::{BTreeMap, BTreeSet, HashSet};

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

/// Whether the function (or any reachable callee) contains a barrier.
pub fn uses_barrier(func: &Function, module: &Module) -> bool {
    let has = |f: &Function| {
        f.blocks
            .iter()
            .any(|b| b.insts.iter().any(|i| matches!(i.op, Op::Barrier)))
    };
    if has(func) {
        return true;
    }
    reachable_helpers(func, module)
        .iter()
        .filter_map(|n| module.function(n))
        .any(has)
}

/// Whether the function (or any reachable callee) performs atomics on
/// *global* (or constant) memory.
///
/// This is the gate for cross-work-group parallel interpretation
/// ([`crate::interp::Interpreter::run_kernel_parallel`]): work groups never
/// share `local` or `private` arenas, so local-space atomics are safe under
/// group-level parallelism, while global-memory atomics introduce
/// cross-group ordering the sequential interpreter resolves by running
/// groups in flat order.
pub fn uses_global_atomics(func: &Function, module: &Module) -> bool {
    let has = |f: &Function| {
        f.blocks.iter().any(|b| {
            b.insts.iter().any(|i| {
                let ptr = match &i.op {
                    Op::AtomicRmw { ptr, .. } | Op::AtomicCmpXchg { ptr, .. } => *ptr,
                    _ => return false,
                };
                matches!(
                    f.value_type(ptr),
                    crate::types::Type::Ptr {
                        space: AddressSpace::Global | AddressSpace::Constant,
                        ..
                    }
                )
            })
        })
    };
    if has(func) {
        return true;
    }
    reachable_helpers(func, module)
        .iter()
        .filter_map(|n| module.function(n))
        .any(has)
}

/// Whether the function (or any reachable callee) performs atomics.
pub fn uses_atomics(func: &Function, module: &Module) -> bool {
    let has = |f: &Function| {
        f.blocks.iter().any(|b| {
            b.insts
                .iter()
                .any(|i| matches!(i.op, Op::AtomicRmw { .. } | Op::AtomicCmpXchg { .. }))
        })
    };
    if has(func) {
        return true;
    }
    reachable_helpers(func, module)
        .iter()
        .filter_map(|n| module.function(n))
        .any(has)
}

/// Cached per-function structural facts (see [`ModuleFacts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionFacts {
    /// [`uses_barrier`] for this function.
    pub uses_barrier: bool,
    /// [`uses_global_atomics`] for this function.
    pub uses_global_atomics: bool,
    /// [`uses_atomics`] for this function.
    pub uses_atomics: bool,
}

/// One-shot analysis cache for a whole module.
///
/// The interpreter gate, the `clrt` queue, `ProxyCl`, and the `accelcheck`
/// lint driver all consult the same facts; computing them once per compiled
/// module (instead of per launch) keeps repeated launches off the analysis
/// hot path. The cache is immutable and `Send + Sync`, so it can be shared
/// across the scoped worker threads of the parallel interpreter.
#[derive(Debug, Clone, Default)]
pub struct ModuleFacts {
    functions: BTreeMap<String, FunctionFacts>,
    races: BTreeMap<String, crate::races::KernelRaceReport>,
    dequeue: BTreeSet<String>,
}

impl ModuleFacts {
    /// Analyze every function (structural facts) and every kernel (race &
    /// divergence report) of `module`. A kernel whose dequeue contract
    /// holds is reported through its original kernel (see
    /// [`crate::races::gate_report`]).
    pub fn compute(module: &Module) -> Self {
        let mut functions = BTreeMap::new();
        for func in &module.functions {
            functions.insert(
                func.name.clone(),
                FunctionFacts {
                    uses_barrier: uses_barrier(func, module),
                    uses_global_atomics: uses_global_atomics(func, module),
                    uses_atomics: uses_atomics(func, module),
                },
            );
        }
        let mut races = BTreeMap::new();
        let mut dequeue = BTreeSet::new();
        for name in module.kernel_names() {
            if let Some((report, contract)) = crate::races::gate_report(module, name) {
                if contract.is_some() {
                    dequeue.insert(name.to_string());
                }
                races.insert(name.to_string(), report);
            }
        }
        ModuleFacts {
            functions,
            races,
            dequeue,
        }
    }

    /// Structural facts for `name`, if the function exists.
    pub fn function(&self, name: &str) -> Option<&FunctionFacts> {
        self.functions.get(name)
    }

    /// Cached [`uses_barrier`]; `false` for unknown functions.
    pub fn uses_barrier(&self, name: &str) -> bool {
        self.functions.get(name).is_some_and(|f| f.uses_barrier)
    }

    /// Cached [`uses_global_atomics`]; `false` for unknown functions.
    pub fn uses_global_atomics(&self, name: &str) -> bool {
        self.functions
            .get(name)
            .is_some_and(|f| f.uses_global_atomics)
    }

    /// Cached [`uses_atomics`]; `false` for unknown functions.
    pub fn uses_atomics(&self, name: &str) -> bool {
        self.functions.get(name).is_some_and(|f| f.uses_atomics)
    }

    /// Cached race report for kernel `name`.
    pub fn race_report(&self, name: &str) -> Option<&crate::races::KernelRaceReport> {
        self.races.get(name)
    }

    /// Whether kernel `name` has a dequeue contract that holds, so its
    /// cached race report is the original kernel's.
    pub fn has_dequeue_contract(&self, name: &str) -> bool {
        self.dequeue.contains(name)
    }

    /// All cached race reports, keyed by kernel name.
    pub fn race_reports(&self) -> &BTreeMap<String, crate::races::KernelRaceReport> {
        &self.races
    }
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
        let facts = ModuleFacts::compute(&m);
        for func in &m.functions {
            let ff = facts.function(&func.name).expect("facts for every fn");
            assert_eq!(ff.uses_barrier, uses_barrier(func, &m));
            assert_eq!(ff.uses_global_atomics, uses_global_atomics(func, &m));
            assert_eq!(ff.uses_atomics, uses_atomics(func, &m));
            assert_eq!(facts.uses_barrier(&func.name), ff.uses_barrier);
        }
        for name in m.kernel_names() {
            let cached = facts.race_report(name).expect("report for every kernel");
            let fresh = crate::races::analyze_kernel(&m, name).unwrap();
            assert_eq!(cached.verdict, fresh.verdict);
            assert_eq!(cached.sites.len(), fresh.sites.len());
        }
        assert!(facts.function("missing").is_none());
        assert!(!facts.uses_global_atomics("missing"));
        // The cache must be shareable across scoped worker threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModuleFacts>();
    }
}
