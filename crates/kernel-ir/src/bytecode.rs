//! # Bytecode execution tier
//!
//! A compile-and-execute tier for the functional plane: kernel functions are
//! lowered once per launch into a dense register bytecode (flat instruction
//! array, resolved branch targets, pre-computed frame sizes), run through a
//! launch-specialising optimizer, and executed by a flat-dispatch VM. The VM
//! shares the sequential group loop — and therefore the flat group order —
//! with the tree-walking interpreter, and is the only executor that shards
//! work groups across threads.
//!
//! ## Pipeline
//!
//! 1. **Lowering** (`lower`) — each reachable function becomes a list of
//!    `BcInsn` blocks. Every non-terminator IR instruction lowers to
//!    exactly one bytecode instruction of *weight* 1; terminators lower to
//!    explicit `Jump`/`Branch`/`Ret` instructions of weight 0. Loads carry
//!    their pre-resolved result type and size, geps their pointee stride,
//!    calls their resolved callee index, and static local allocas their
//!    pre-planned arena offset — the per-dispatch lookups the tree-walker
//!    pays on every execution.
//! 2. **Optimization** (`optimize`) — a
//!    once-per-launch pipeline of constant folding over the concrete launch
//!    (scalar *and* pointer arguments are known values at launch time,
//!    launch-uniform work-item builtins are constants of the NDRange),
//!    dead-code elimination, and no-op coalescing. Folded and dead
//!    instructions are not deleted: they become weight-carrying
//!    `BcInsn::Nop`s, kept in place and merged only within their block, so
//!    the executed-instruction accounting (`DynStats::insns_per_wg`, the
//!    input to the paper's §3 fair-sharing equations and the timing
//!    simulator) stays **bit-identical** to the tree-walker. Folded results
//!    are hoisted into a per-launch *preamble*: a template register file the
//!    VM seeds each frame from with one copy.
//! 3. **Layout** (`layout`) — blocks are flattened into one program-wide
//!    instruction array with branch targets resolved to absolute pcs and
//!    per-function entry pcs and frame sizes recorded.
//!
//! ## Trap rules
//!
//! Lowering is total. Six constructs have no ordinary instruction, and
//! the verifier rejects all of them: a call of an unknown function, an
//! alloca in `global` or `constant` space, a `local` alloca outside the
//! kernel entry function, a load without a result, a block without a
//! terminator, and a gep through a non-pointer. Each lowers to a
//! `BcInsn::Trap` at the point where it occurs, so an unverified module
//! fails only if (and when) a work item reaches it:
//!
//! - an unknown callee raises [`InterpError::UnknownFunction`], and the two
//!   alloca cases raise the tree-walker's [`InterpError::Invalid`] text;
//! - the other three raise [`InterpError::Invalid`]. The tree-walker, which
//!   the runtime only gives verified modules, panics on the first two and
//!   fails the gep with a value-dependent `Invalid` text.
//!
//! A trap has weight 1 and is never folded or eliminated.
//!
//! ## Identity contract
//!
//! For every verified module and launch, both tiers produce the same
//! `DeviceMemory` bytes, the same `DynStats` (every counter, including the
//! per-group instruction histogram) and the same `Result`. The bytecode
//! tier assumes the module is *well-typed* (verifier-clean):
//! dead code it eliminates can no longer raise type-confusion
//! `InterpError::Invalid` errors that the tree-walker would only hit when
//! actually executing the dead instructions. Divide-by-zero and other
//! value-dependent traps are never folded or eliminated.

use crate::error::InterpError;
use crate::interp::{
    apply_atomic, bounds, decode_value, default_interp_threads, encode_value, eval_bin, eval_cast,
    eval_cmp, eval_un, flat_index, interp_size, run_groups_seq_sched, run_groups_stealing_sched,
    Arena, ArgValue, DeviceMemory, DynStats, GlobalMem, Interpreter, LaunchSetup, NdRange, PtrVal,
    RegsPool, TicketCursor, Tickets, Value, WiCtx, WiStatus,
};
use crate::ir::{AtomicOp, BinOp, CmpOp, ConstVal, Module, Op, Terminator, UnOp, WiBuiltin};
use crate::types::{AddressSpace, Type};

/// Which execution tier the functional plane runs kernels on.
///
/// The default for freshly constructed [`Interpreter`]s is
/// [`ExecTier::TreeWalk`] (the historical behaviour); the runtime entry
/// points (`clrt::queue`, `ProxyCl::run_functional`) select
/// [`ExecTier::from_env`], which defaults to the optimized bytecode tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTier {
    /// The original tree-walking interpreter.
    TreeWalk,
    /// Dense register bytecode, lowered per launch and run through the
    /// launch-specialising optimization pipeline (constant folding,
    /// invariant hoisting into the per-launch preamble, dead-code
    /// elimination).
    BytecodeOpt,
}

impl ExecTier {
    /// Tier selected by the `ACCELOS_EXEC_TIER` environment variable:
    /// `tree` or `bytecode-opt`. Unset (and unrecognised) values select
    /// [`ExecTier::BytecodeOpt`].
    pub fn from_env() -> Self {
        match std::env::var("ACCELOS_EXEC_TIER").ok().as_deref() {
            Some("tree") => ExecTier::TreeWalk,
            _ => ExecTier::BytecodeOpt,
        }
    }
}

/// Register sentinel for "no destination" / "no value".
const NO_REG: u32 = u32::MAX;

/// One dense bytecode instruction. Registers are `u32` indices into the
/// frame's register file ([`NO_REG`] = none); branch targets are block
/// indices until [`layout`] resolves them to absolute pcs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BcInsn {
    /// Placeholder for `weight` folded/eliminated source instructions;
    /// keeps `DynStats` accounting and the step limit bit-identical.
    Nop {
        /// How many source instructions this stands for.
        weight: u64,
    },
    /// `dst = val`.
    Const { dst: u32, val: Value },
    /// `dst = a <op> b`.
    Bin { op: BinOp, dst: u32, a: u32, b: u32 },
    /// `dst = <op> a`.
    Un { op: UnOp, dst: u32, a: u32 },
    /// `dst = a <cmp> b`.
    Cmp { op: CmpOp, dst: u32, a: u32, b: u32 },
    /// `dst = cond ? a : b` (only the chosen side is read).
    Select { dst: u32, cond: u32, a: u32, b: u32 },
    /// `dst = cast<ty>(a)`.
    Cast { dst: u32, ty: Box<Type>, a: u32 },
    /// Grow the work item's private arena by `bytes`; `dst` = old top.
    AllocaPriv { dst: u32, bytes: usize },
    /// Pre-planned static local-memory slot at `off`.
    AllocaLocal { dst: u32, off: usize },
    /// `dst = *(ty*)ptr` — result type and size resolved at lowering.
    Load {
        dst: u32,
        ptr: u32,
        ty: Box<Type>,
        size: usize,
    },
    /// `*ptr = value` (size from the runtime value, like the tree-walker).
    Store { ptr: u32, value: u32 },
    /// `dst = ptr + index * stride` — stride resolved at lowering.
    Gep {
        dst: u32,
        ptr: u32,
        index: u32,
        stride: usize,
    },
    /// Call of the function at index `func`, callee resolved at lowering.
    Call {
        dst: u32,
        func: u32,
        args: Box<[u32]>,
    },
    /// Work-item builtin (the launch-varying ones; launch-uniform builtins
    /// fold in the optimized tier).
    WorkItem {
        dst: u32,
        builtin: WiBuiltin,
        dim: u8,
    },
    /// Atomic read-modify-write; `dst` = previous value, or with `ticket`
    /// (the dequeue site of an admitted scheduling-kernel launch) the
    /// worker's next round-robin ticket.
    AtomicRmw {
        op: AtomicOp,
        dst: u32,
        ptr: u32,
        value: u32,
        ticket: bool,
    },
    /// Atomic compare-and-swap; `dst` = previous value.
    AtomicCmpXchg {
        dst: u32,
        ptr: u32,
        expected: u32,
        desired: u32,
    },
    /// Work-group barrier.
    Barrier,
    /// Unconditional branch (weight 0; counts one step like an IR
    /// terminator).
    Jump { target: u32 },
    /// Conditional branch on a `bool` register.
    Branch { cond: u32, then_t: u32, else_t: u32 },
    /// Function return ([`NO_REG`] = void).
    Ret { val: u32 },
    /// A construct with no ordinary lowering (see the module's trap
    /// rules): raises its error when reached. Weight 1; boxed so the
    /// instruction stays as small as the other variants.
    Trap(Box<InterpError>),
}

/// A trap raising `err` when reached.
fn trap(err: InterpError) -> BcInsn {
    BcInsn::Trap(Box::new(err))
}

/// A lowered function in block-structured form (pre-[`layout`]).
#[derive(Debug, Clone)]
pub(crate) struct BcFuncBody {
    name: String,
    frame_regs: usize,
    /// Blocks of instructions; `Jump`/`Branch` targets are block indices.
    blocks: Vec<Vec<BcInsn>>,
    /// Per-launch preamble: initial register file every frame of this
    /// function is seeded from. For the entry function it carries the
    /// launch arguments; [`optimize`] adds folded kernel invariants.
    template: Vec<Option<Value>>,
}

/// A lowered module in block-structured form. Function 0 is the kernel
/// entry.
#[derive(Debug, Clone)]
pub(crate) struct BcModule {
    funcs: Vec<BcFuncBody>,
}

/// Flat, pc-resolved metadata for one function.
#[derive(Debug)]
struct BcFunc {
    name: String,
    entry_pc: u32,
    frame_regs: usize,
    template: Box<[Option<Value>]>,
}

/// A laid-out bytecode program: one flat instruction array for all
/// functions, branch targets resolved to absolute pcs.
#[derive(Debug)]
pub(crate) struct BcProgram {
    insns: Vec<BcInsn>,
    funcs: Vec<BcFunc>,
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Lower the entry kernel (and every function reachable from it) to
/// block-structured bytecode, resolving loads' types/sizes, geps' strides,
/// callee indices and static local-memory offsets. Total: constructs with
/// no ordinary lowering become traps (see the module's trap rules).
pub(crate) fn lower(module: &Module, setup: &LaunchSetup<'_>) -> BcModule {
    let find = |name: &str| module.functions.iter().position(|f| f.name == name);
    // Worklist discovery: entry first (function index 0), resolved callees
    // in first-call order.
    let mut order: Vec<usize> = vec![setup.func_idx];
    let mut bc_index_of = vec![u32::MAX; module.functions.len()];
    bc_index_of[setup.func_idx] = 0;
    let mut cursor = 0;
    while cursor < order.len() {
        let func = &module.functions[order[cursor]];
        cursor += 1;
        for block in &func.blocks {
            for inst in &block.insts {
                let Op::Call { callee, .. } = &inst.op else {
                    continue;
                };
                if let Some(idx) = find(callee).filter(|&i| bc_index_of[i] == u32::MAX) {
                    bc_index_of[idx] = order.len() as u32;
                    order.push(idx);
                }
            }
        }
    }

    let mut funcs = Vec::with_capacity(order.len());
    for (bc_idx, &func_idx) in order.iter().enumerate() {
        let func = &module.functions[func_idx];
        let is_entry = bc_idx == 0;
        let mut blocks = Vec::with_capacity(func.blocks.len());
        for (bid, block) in func.blocks.iter().enumerate() {
            let mut insns = Vec::with_capacity(block.insts.len() + 1);
            for (ip, inst) in block.insts.iter().enumerate() {
                let dst = inst.result.map(|r| r.0).unwrap_or(NO_REG);
                let insn = match &inst.op {
                    Op::Const(c) => BcInsn::Const {
                        dst,
                        val: const_value(c),
                    },
                    Op::Bin(op, a, b) => BcInsn::Bin {
                        op: *op,
                        dst,
                        a: a.0,
                        b: b.0,
                    },
                    Op::Un(op, a) => BcInsn::Un {
                        op: *op,
                        dst,
                        a: a.0,
                    },
                    Op::Cmp(op, a, b) => BcInsn::Cmp {
                        op: *op,
                        dst,
                        a: a.0,
                        b: b.0,
                    },
                    Op::Select(c, a, b) => BcInsn::Select {
                        dst,
                        cond: c.0,
                        a: a.0,
                        b: b.0,
                    },
                    Op::Cast(ty, a) => BcInsn::Cast {
                        dst,
                        ty: Box::new(ty.clone()),
                        a: a.0,
                    },
                    Op::Alloca { elem, count, space } => match space {
                        AddressSpace::Private => BcInsn::AllocaPriv {
                            dst,
                            bytes: interp_size(elem) * (*count as usize),
                        },
                        // Only the entry function has planned slots.
                        AddressSpace::Local => match setup
                            .static_local
                            .iter()
                            .find(|(b, i, _)| is_entry && b.index() == bid && *i == ip)
                        {
                            Some(&(_, _, off)) => BcInsn::AllocaLocal { dst, off },
                            None => trap(InterpError::Invalid(
                                "local alloca outside the kernel entry function".into(),
                            )),
                        },
                        other => trap(InterpError::Invalid(format!("alloca in {other}"))),
                    },
                    Op::Load(p) => match inst.result {
                        Some(result) => {
                            let ty = func.value_type(result).clone();
                            let size = interp_size(&ty);
                            BcInsn::Load {
                                dst,
                                ptr: p.0,
                                ty: Box::new(ty),
                                size,
                            }
                        }
                        None => trap(InterpError::Invalid("load without a result".into())),
                    },
                    Op::Store { ptr, value } => BcInsn::Store {
                        ptr: ptr.0,
                        value: value.0,
                    },
                    Op::Gep { ptr, index } => match func.value_type(*ptr).pointee() {
                        Some(elem) => BcInsn::Gep {
                            dst,
                            ptr: ptr.0,
                            index: index.0,
                            stride: interp_size(elem),
                        },
                        None => trap(InterpError::Invalid("gep on non-pointer".into())),
                    },
                    Op::Call { callee, args } => match find(callee) {
                        Some(idx) => BcInsn::Call {
                            dst,
                            func: bc_index_of[idx],
                            args: args.iter().map(|a| a.0).collect(),
                        },
                        None => trap(InterpError::UnknownFunction(callee.clone())),
                    },
                    Op::WorkItem { builtin, dim } => BcInsn::WorkItem {
                        dst,
                        builtin: *builtin,
                        dim: *dim,
                    },
                    Op::AtomicRmw { op, ptr, value } => BcInsn::AtomicRmw {
                        op: *op,
                        dst,
                        ptr: ptr.0,
                        value: value.0,
                        ticket: is_entry
                            && setup
                                .tickets
                                .is_some_and(|t| (t.block.index(), t.inst) == (bid, ip)),
                    },
                    Op::AtomicCmpXchg {
                        ptr,
                        expected,
                        desired,
                    } => BcInsn::AtomicCmpXchg {
                        dst,
                        ptr: ptr.0,
                        expected: expected.0,
                        desired: desired.0,
                    },
                    Op::Barrier => BcInsn::Barrier,
                };
                insns.push(insn);
            }
            insns.push(match &block.term {
                Some(Terminator::Br(b)) => BcInsn::Jump { target: b.0 },
                Some(Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                }) => BcInsn::Branch {
                    cond: cond.0,
                    then_t: then_bb.0,
                    else_t: else_bb.0,
                },
                Some(Terminator::Ret(v)) => BcInsn::Ret {
                    val: v.map(|v| v.0).unwrap_or(NO_REG),
                },
                None => trap(InterpError::Invalid("unterminated block".into())),
            });
            blocks.push(insns);
        }
        let mut template = vec![None; func.value_types.len()];
        if is_entry {
            for (i, plan) in setup.arg_plan.iter().enumerate() {
                let crate::interp::ArgPlan::Value(v) = plan;
                template[i] = Some(*v);
            }
        }
        funcs.push(BcFuncBody {
            name: func.name.clone(),
            frame_regs: func.value_types.len(),
            blocks,
            template,
        });
    }
    BcModule { funcs }
}

fn const_value(c: &ConstVal) -> Value {
    match c {
        ConstVal::Bool(b) => Value::Bool(*b),
        ConstVal::I32(x) => Value::I32(*x),
        ConstVal::I64(x) => Value::I64(*x),
        ConstVal::F32(x) => Value::F32(*x),
        ConstVal::F64(x) => Value::F64(*x),
    }
}

// ---------------------------------------------------------------------------
// Optimization
// ---------------------------------------------------------------------------

/// The once-per-launch optimization pipeline: constant folding against the
/// concrete launch (arguments, NDRange-uniform builtins, static local
/// offsets), dead-code elimination, and no-op coalescing. All of it is
/// weight-preserving: per-block instruction-weight totals — and therefore
/// `DynStats::insns_per_wg`, the step limit and the timing simulator's
/// inputs — are unchanged.
pub(crate) fn optimize(bc: &mut BcModule, ndrange: NdRange) {
    for func in &mut bc.funcs {
        fold_function(func, ndrange);
        dce_function(func);
        coalesce_nops(func);
    }
}

/// Fold instructions whose operands are launch-time constants. Folding
/// only fires when the interpreter's own evaluation succeeds — an
/// instruction that would trap (divide by zero, type confusion) stays in
/// place so the trap still happens if (and only if) the instruction is
/// actually executed.
fn fold_function(func: &mut BcFuncBody, ndrange: NdRange) {
    // Single-assignment registers: one defining instruction per register,
    // so a simple fixpoint over `known` values converges regardless of
    // block order.
    let mut known: Vec<Option<Value>> = func.template.clone();
    loop {
        let mut changed = false;
        for block in &mut func.blocks {
            for insn in block.iter_mut() {
                let get = |r: u32| known.get(r as usize).copied().flatten();
                let folded: Option<(u32, Value)> = match insn {
                    BcInsn::Const { dst, val } => Some((*dst, *val)),
                    BcInsn::Bin { op, dst, a, b } => match (get(*a), get(*b)) {
                        (Some(va), Some(vb)) => eval_bin(*op, va, vb).ok().map(|v| (*dst, v)),
                        _ => None,
                    },
                    BcInsn::Un { op, dst, a } => {
                        get(*a).and_then(|va| eval_un(*op, va).ok().map(|v| (*dst, v)))
                    }
                    BcInsn::Cmp { op, dst, a, b } => match (get(*a), get(*b)) {
                        (Some(va), Some(vb)) => {
                            eval_cmp(*op, va, vb).ok().map(|v| (*dst, Value::Bool(v)))
                        }
                        _ => None,
                    },
                    BcInsn::Select { dst, cond, a, b } => match get(*cond) {
                        Some(Value::Bool(c)) => get(if c { *a } else { *b }).map(|v| (*dst, v)),
                        _ => None,
                    },
                    BcInsn::Cast { dst, ty, a } => {
                        get(*a).and_then(|va| eval_cast(ty, va).ok().map(|v| (*dst, v)))
                    }
                    BcInsn::Gep {
                        dst,
                        ptr,
                        index,
                        stride,
                    } => match (get(*ptr), get(*index)) {
                        (Some(Value::Ptr(p)), Some(idx)) => idx.as_i64().ok().map(|i| {
                            (
                                *dst,
                                Value::Ptr(PtrVal {
                                    arena: p.arena,
                                    byte_off: p.byte_off + i * *stride as i64,
                                }),
                            )
                        }),
                        _ => None,
                    },
                    BcInsn::WorkItem { dst, builtin, dim } => {
                        // Launch-uniform builtins only; per-item builtins
                        // (global/local/group id) vary within the launch.
                        // `dim > 2` panics in both tiers when executed, so
                        // it must stay in place.
                        let d = *dim as usize;
                        let v = match builtin {
                            WiBuiltin::GlobalSize if d <= 2 => Some(ndrange.global[d]),
                            WiBuiltin::LocalSize if d <= 2 => Some(ndrange.local[d]),
                            WiBuiltin::NumGroups if d <= 2 => Some(ndrange.num_groups()[d]),
                            WiBuiltin::WorkDim => Some(ndrange.work_dim as usize),
                            _ => None,
                        };
                        v.map(|v| (*dst, Value::I64(v as i64)))
                    }
                    // Static local slots have launch-time offsets and no
                    // side effect (the arena is pre-sized from the plan).
                    BcInsn::AllocaLocal { dst, off } => Some((
                        *dst,
                        Value::Ptr(PtrVal {
                            arena: Arena::Local,
                            byte_off: *off as i64,
                        }),
                    )),
                    // AllocaPriv grows the private arena (a side effect);
                    // loads, stores, calls, atomics and barriers are never
                    // folded.
                    _ => None,
                };
                if let Some((dst, val)) = folded {
                    if dst != NO_REG {
                        known[dst as usize] = Some(val);
                        func.template[dst as usize] = Some(val);
                    }
                    *insn = BcInsn::Nop { weight: 1 };
                    changed = true;
                }
            }
        }
        if !changed {
            return;
        }
    }
}

/// Replace pure, trap-free instructions whose result is never read with
/// weight-1 no-ops, iterating to fixpoint so chains of dead instructions
/// dissolve. Assumes a verifier-clean (well-typed) module: a type-confused
/// instruction in dead code would trap in the tree-walker but no longer
/// executes here.
fn dce_function(func: &mut BcFuncBody) {
    loop {
        let mut used = vec![false; func.frame_regs];
        let mut mark = |r: u32| {
            if r != NO_REG {
                used[r as usize] = true;
            }
        };
        for block in &func.blocks {
            for insn in block {
                match insn {
                    BcInsn::Nop { .. }
                    | BcInsn::Const { .. }
                    | BcInsn::AllocaPriv { .. }
                    | BcInsn::AllocaLocal { .. }
                    | BcInsn::WorkItem { .. }
                    | BcInsn::Barrier
                    | BcInsn::Jump { .. }
                    | BcInsn::Trap(_) => {}
                    BcInsn::Bin { a, b, .. } | BcInsn::Cmp { a, b, .. } => {
                        mark(*a);
                        mark(*b);
                    }
                    BcInsn::Un { a, .. } | BcInsn::Cast { a, .. } => mark(*a),
                    BcInsn::Select { cond, a, b, .. } => {
                        mark(*cond);
                        mark(*a);
                        mark(*b);
                    }
                    BcInsn::Load { ptr, .. } => mark(*ptr),
                    BcInsn::Store { ptr, value } => {
                        mark(*ptr);
                        mark(*value);
                    }
                    BcInsn::Gep { ptr, index, .. } => {
                        mark(*ptr);
                        mark(*index);
                    }
                    BcInsn::Call { args, .. } => {
                        for a in args.iter() {
                            mark(*a);
                        }
                    }
                    BcInsn::AtomicRmw { ptr, value, .. } => {
                        mark(*ptr);
                        mark(*value);
                    }
                    BcInsn::AtomicCmpXchg {
                        ptr,
                        expected,
                        desired,
                        ..
                    } => {
                        mark(*ptr);
                        mark(*expected);
                        mark(*desired);
                    }
                    BcInsn::Branch { cond, .. } => mark(*cond),
                    BcInsn::Ret { val } => mark(*val),
                }
            }
        }
        let mut changed = false;
        for block in &mut func.blocks {
            for insn in block.iter_mut() {
                let dead_dst = match insn {
                    // Pure and trap-free on well-typed IR. Div/Rem (divide
                    // by zero), AllocaPriv (arena growth), memory ops,
                    // calls, atomics and barriers are excluded; WorkItem
                    // with dim > 2 panics when executed, so it stays.
                    BcInsn::Const { dst, .. }
                    | BcInsn::Select { dst, .. }
                    | BcInsn::Un { dst, .. }
                    | BcInsn::Cmp { dst, .. }
                    | BcInsn::Gep { dst, .. }
                    | BcInsn::AllocaLocal { dst, .. } => Some(*dst),
                    BcInsn::Bin { op, dst, .. } if !matches!(op, BinOp::Div | BinOp::Rem) => {
                        Some(*dst)
                    }
                    BcInsn::WorkItem { dst, builtin, dim } => {
                        let uniform = matches!(builtin, WiBuiltin::WorkDim) || *dim <= 2;
                        uniform.then_some(*dst)
                    }
                    _ => None,
                };
                match dead_dst {
                    Some(dst) if dst == NO_REG || !used[dst as usize] => {
                        *insn = BcInsn::Nop { weight: 1 };
                        changed = true;
                    }
                    _ => {}
                }
            }
        }
        if !changed {
            return;
        }
    }
}

/// Merge adjacent no-ops within each block into one weight-summed no-op.
/// Never merges across a non-nop instruction (barriers pause mid-block)
/// or across block boundaries (targets must stay addressable).
fn coalesce_nops(func: &mut BcFuncBody) {
    for block in &mut func.blocks {
        let mut out: Vec<BcInsn> = Vec::with_capacity(block.len());
        for insn in block.drain(..) {
            if let (BcInsn::Nop { weight }, Some(BcInsn::Nop { weight: prev })) =
                (&insn, out.last_mut())
            {
                *prev += weight;
                continue;
            }
            out.push(insn);
        }
        *block = out;
    }
}

// ---------------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------------

/// Flatten a block-structured module into one instruction array, resolving
/// `Jump`/`Branch` block indices to absolute pcs.
pub(crate) fn layout(bc: &BcModule) -> BcProgram {
    // First pass: block start pcs.
    let mut func_entry = Vec::with_capacity(bc.funcs.len());
    let mut block_pc: Vec<Vec<u32>> = Vec::with_capacity(bc.funcs.len());
    let mut pc = 0u32;
    for func in &bc.funcs {
        func_entry.push(pc);
        let starts = func
            .blocks
            .iter()
            .map(|b| {
                let start = pc;
                pc += b.len() as u32;
                start
            })
            .collect();
        block_pc.push(starts);
    }
    // Second pass: emit with resolved targets.
    let mut insns = Vec::with_capacity(pc as usize);
    for (fi, func) in bc.funcs.iter().enumerate() {
        for block in &func.blocks {
            for insn in block {
                insns.push(match insn {
                    BcInsn::Jump { target } => BcInsn::Jump {
                        target: block_pc[fi][*target as usize],
                    },
                    BcInsn::Branch {
                        cond,
                        then_t,
                        else_t,
                    } => BcInsn::Branch {
                        cond: *cond,
                        then_t: block_pc[fi][*then_t as usize],
                        else_t: block_pc[fi][*else_t as usize],
                    },
                    other => other.clone(),
                });
            }
        }
    }
    BcProgram {
        insns,
        funcs: bc
            .funcs
            .iter()
            .zip(func_entry)
            .map(|(f, entry_pc)| BcFunc {
                name: f.name.clone(),
                entry_pc,
                frame_regs: f.frame_regs,
                template: f.template.clone().into_boxed_slice(),
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// VM
// ---------------------------------------------------------------------------

/// One call frame: flat program counter plus a register file seeded from
/// the function's per-launch template.
struct BcFrame {
    pc: u32,
    regs: Vec<Option<Value>>,
    /// Register in the *caller* frame to receive our return value
    /// ([`NO_REG`] = discarded).
    ret_dst: u32,
}

/// A work item's execution state (mirrors the tree-walker's `WorkItem`).
struct BcItem {
    ctx: WiCtx,
    frames: Vec<BcFrame>,
    private: Vec<u8>,
    status: WiStatus,
    steps: u64,
}

/// Reusable per-work-group VM state: the shared local arena, the work
/// items, and the register-file pool (same recycling discipline as the
/// tree-walker's `WgScratch`).
#[derive(Default)]
pub(crate) struct BcScratch {
    local: Vec<u8>,
    items: Vec<BcItem>,
    pool: RegsPool,
}

fn bc_get(frame: &BcFrame, r: u32) -> Result<Value, InterpError> {
    frame.regs[r as usize]
        .ok_or_else(|| InterpError::Invalid(format!("read of undefined value %{r}")))
}

fn bc_set(item: &mut BcItem, dst: u32, v: Value) {
    if dst != NO_REG {
        let frame = item.frames.last_mut().unwrap();
        frame.regs[dst as usize] = Some(v);
    }
}

fn bc_bytes<'a>(
    gmem: &'a GlobalMem<'_>,
    local: &'a [u8],
    private: &'a [u8],
    p: PtrVal,
    size: usize,
) -> Result<&'a [u8], InterpError> {
    let (storage, what): (&[u8], &str) = match p.arena {
        Arena::Global(b) => return gmem.bytes(b, p.byte_off, size),
        Arena::Local => (local, "local memory"),
        Arena::Private => (private, "private memory"),
    };
    bounds(storage.len(), p.byte_off, size, what)?;
    let off = p.byte_off as usize;
    Ok(&storage[off..off + size])
}

fn bc_bytes_mut<'a>(
    gmem: &'a GlobalMem<'_>,
    local: &'a mut [u8],
    private: &'a mut [u8],
    p: PtrVal,
    size: usize,
) -> Result<&'a mut [u8], InterpError> {
    let (storage, what): (&mut [u8], &str) = match p.arena {
        Arena::Global(b) => return gmem.bytes_mut(b, p.byte_off, size),
        Arena::Local => (local, "local memory"),
        Arena::Private => (private, "private memory"),
    };
    bounds(storage.len(), p.byte_off, size, what)?;
    let off = p.byte_off as usize;
    Ok(&mut storage[off..off + size])
}

/// Run one work group of the program (mirrors the tree-walker's
/// `run_work_group`: same item order, same barrier round-robin, same
/// divergence error).
#[allow(clippy::too_many_arguments)]
fn run_bc_group(
    prog: &BcProgram,
    gmem: &GlobalMem<'_>,
    step_limit: u64,
    ndrange: NdRange,
    local_bytes: usize,
    tickets: Option<&Tickets>,
    group_id: [usize; 3],
    scratch: &mut BcScratch,
    stats: &mut DynStats,
) -> Result<u64, InterpError> {
    let BcScratch { local, items, pool } = scratch;
    let mut cursor = tickets.map(|t| t.worker(flat_index(ndrange.num_groups(), group_id)));
    local.clear();
    local.resize(local_bytes, 0);
    let wg_size = ndrange.wg_size();
    items.truncate(wg_size);

    let entry = &prog.funcs[0];
    let mut idx = 0;
    for lz in 0..ndrange.local[2] {
        for ly in 0..ndrange.local[1] {
            for lx in 0..ndrange.local[0] {
                let ctx = WiCtx {
                    local_id: [lx, ly, lz],
                    group_id,
                    global_id: [
                        group_id[0] * ndrange.local[0] + lx,
                        group_id[1] * ndrange.local[1] + ly,
                        group_id[2] * ndrange.local[2] + lz,
                    ],
                };
                let mut regs = pool.take(entry.frame_regs);
                regs.copy_from_slice(&entry.template);
                let root = BcFrame {
                    pc: entry.entry_pc,
                    regs,
                    ret_dst: NO_REG,
                };
                match items.get_mut(idx) {
                    Some(item) => {
                        item.ctx = ctx;
                        item.status = WiStatus::Running;
                        item.steps = 0;
                        item.private.clear();
                        while let Some(f) = item.frames.pop() {
                            pool.put(f.regs);
                        }
                        item.frames.push(root);
                    }
                    None => items.push(BcItem {
                        ctx,
                        frames: vec![root],
                        private: Vec::new(),
                        status: WiStatus::Running,
                        steps: 0,
                    }),
                }
                idx += 1;
            }
        }
    }

    let mut wg_insns: u64 = 0;
    loop {
        for item in items.iter_mut() {
            if item.status == WiStatus::Done {
                continue;
            }
            item.status = WiStatus::Running;
            run_bc_item(
                prog,
                gmem,
                local,
                pool,
                step_limit,
                ndrange,
                item,
                stats,
                &mut wg_insns,
                cursor.as_mut(),
            )?;
        }
        let done = items.iter().filter(|i| i.status == WiStatus::Done).count();
        if done == items.len() {
            break;
        }
        if done > 0 {
            let at_barrier = items.len() - done;
            return Err(InterpError::BarrierDivergence(format!(
                "{done} work items finished while {at_barrier} wait at a barrier"
            )));
        }
    }
    Ok(wg_insns)
}

/// Run one work item until it finishes or reaches a barrier (mirrors the
/// tree-walker's `run_until_pause` step accounting exactly: one step per
/// dispatched instruction, control flow included; no-ops count their
/// weight).
#[allow(clippy::too_many_arguments)]
fn run_bc_item(
    prog: &BcProgram,
    gmem: &GlobalMem<'_>,
    local: &mut [u8],
    pool: &mut RegsPool,
    step_limit: u64,
    ndrange: NdRange,
    item: &mut BcItem,
    stats: &mut DynStats,
    wg_insns: &mut u64,
    mut tickets: Option<&mut TicketCursor>,
) -> Result<(), InterpError> {
    loop {
        let pc = match item.frames.last_mut() {
            None => {
                item.status = WiStatus::Done;
                return Ok(());
            }
            Some(frame) => {
                let pc = frame.pc;
                frame.pc += 1;
                pc
            }
        };
        item.steps += 1;
        if item.steps > step_limit {
            return Err(InterpError::StepLimitExceeded(step_limit));
        }
        match &prog.insns[pc as usize] {
            BcInsn::Nop { weight } => {
                // Stands for `weight` source instructions: the dispatch
                // above already counted one step.
                item.steps += weight - 1;
                if item.steps > step_limit {
                    return Err(InterpError::StepLimitExceeded(step_limit));
                }
                *wg_insns += weight;
            }
            BcInsn::Jump { target } => {
                item.frames.last_mut().unwrap().pc = *target;
            }
            BcInsn::Branch {
                cond,
                then_t,
                else_t,
            } => {
                let frame = item.frames.last_mut().unwrap();
                let c = bc_get(frame, *cond)?.as_bool()?;
                frame.pc = if c { *then_t } else { *else_t };
            }
            BcInsn::Ret { val } => {
                let frame = item.frames.last().unwrap();
                let rv = if *val != NO_REG {
                    Some(bc_get(frame, *val)?)
                } else {
                    None
                };
                let ret_dst = frame.ret_dst;
                if let Some(f) = item.frames.pop() {
                    pool.put(f.regs);
                }
                if let (true, Some(v)) = (ret_dst != NO_REG, rv) {
                    if let Some(caller) = item.frames.last_mut() {
                        caller.regs[ret_dst as usize] = Some(v);
                    }
                }
            }
            BcInsn::Const { dst, val } => {
                *wg_insns += 1;
                bc_set(item, *dst, *val);
            }
            BcInsn::Bin { op, dst, a, b } => {
                *wg_insns += 1;
                let frame = item.frames.last().unwrap();
                let va = bc_get(frame, *a)?;
                let vb = bc_get(frame, *b)?;
                let v = eval_bin(*op, va, vb)?;
                bc_set(item, *dst, v);
            }
            BcInsn::Un { op, dst, a } => {
                *wg_insns += 1;
                let frame = item.frames.last().unwrap();
                let v = eval_un(*op, bc_get(frame, *a)?)?;
                bc_set(item, *dst, v);
            }
            BcInsn::Cmp { op, dst, a, b } => {
                *wg_insns += 1;
                let frame = item.frames.last().unwrap();
                let va = bc_get(frame, *a)?;
                let vb = bc_get(frame, *b)?;
                let v = Value::Bool(eval_cmp(*op, va, vb)?);
                bc_set(item, *dst, v);
            }
            BcInsn::Select { dst, cond, a, b } => {
                *wg_insns += 1;
                let frame = item.frames.last().unwrap();
                let c = bc_get(frame, *cond)?.as_bool()?;
                let v = bc_get(frame, if c { *a } else { *b })?;
                bc_set(item, *dst, v);
            }
            BcInsn::Cast { dst, ty, a } => {
                *wg_insns += 1;
                let frame = item.frames.last().unwrap();
                let v = eval_cast(ty, bc_get(frame, *a)?)?;
                bc_set(item, *dst, v);
            }
            BcInsn::AllocaPriv { dst, bytes } => {
                *wg_insns += 1;
                let off = item.private.len();
                item.private.resize(off + bytes, 0);
                bc_set(
                    item,
                    *dst,
                    Value::Ptr(PtrVal {
                        arena: Arena::Private,
                        byte_off: off as i64,
                    }),
                );
            }
            BcInsn::AllocaLocal { dst, off } => {
                *wg_insns += 1;
                bc_set(
                    item,
                    *dst,
                    Value::Ptr(PtrVal {
                        arena: Arena::Local,
                        byte_off: *off as i64,
                    }),
                );
            }
            BcInsn::Load { dst, ptr, ty, size } => {
                *wg_insns += 1;
                stats.mem_ops += 1;
                let frame = item.frames.last().unwrap();
                let p = bc_get(frame, *ptr)?.as_ptr()?;
                let v = {
                    let bytes = bc_bytes(gmem, local, &item.private, p, *size)?;
                    decode_value(ty, bytes)
                };
                bc_set(item, *dst, v);
            }
            BcInsn::Store { ptr, value } => {
                *wg_insns += 1;
                stats.mem_ops += 1;
                let frame = item.frames.last().unwrap();
                let p = bc_get(frame, *ptr)?.as_ptr()?;
                let v = bc_get(frame, *value)?;
                let size = match v {
                    Value::Bool(_) => 1,
                    Value::I32(_) | Value::F32(_) => 4,
                    Value::I64(_) | Value::F64(_) => 8,
                    Value::Ptr(_) => 16,
                };
                let bytes = bc_bytes_mut(gmem, local, &mut item.private, p, size)?;
                encode_value(v, bytes);
            }
            BcInsn::Gep {
                dst,
                ptr,
                index,
                stride,
            } => {
                *wg_insns += 1;
                let frame = item.frames.last().unwrap();
                let p = bc_get(frame, *ptr)?.as_ptr()?;
                let idx = bc_get(frame, *index)?.as_i64()?;
                bc_set(
                    item,
                    *dst,
                    Value::Ptr(PtrVal {
                        arena: p.arena,
                        byte_off: p.byte_off + idx * *stride as i64,
                    }),
                );
            }
            BcInsn::Call { dst, func, args } => {
                *wg_insns += 1;
                let callee = &prog.funcs[*func as usize];
                let frame = item.frames.last().unwrap();
                let mut regs = pool.take(callee.frame_regs);
                regs.copy_from_slice(&callee.template);
                for (i, a) in args.iter().enumerate() {
                    regs[i] = Some(bc_get(frame, *a)?);
                }
                item.frames.push(BcFrame {
                    pc: callee.entry_pc,
                    regs,
                    ret_dst: *dst,
                });
            }
            BcInsn::WorkItem { dst, builtin, dim } => {
                *wg_insns += 1;
                let d = *dim as usize;
                let c = &item.ctx;
                let v = match builtin {
                    WiBuiltin::GlobalId => c.global_id[d],
                    WiBuiltin::LocalId => c.local_id[d],
                    WiBuiltin::GroupId => c.group_id[d],
                    WiBuiltin::GlobalSize => ndrange.global[d],
                    WiBuiltin::LocalSize => ndrange.local[d],
                    WiBuiltin::NumGroups => ndrange.num_groups()[d],
                    WiBuiltin::WorkDim => ndrange.work_dim as usize,
                };
                bc_set(item, *dst, Value::I64(v as i64));
            }
            BcInsn::AtomicRmw {
                op,
                dst,
                ptr,
                value,
                ticket,
            } => {
                *wg_insns += 1;
                stats.atomic_ops += 1;
                let frame = item.frames.last().unwrap();
                let p = bc_get(frame, *ptr)?.as_ptr()?;
                let v = bc_get(frame, *value)?;
                let is64 = matches!(v, Value::I64(_));
                let old = if let Arena::Global(b) = p.arena {
                    use std::sync::atomic::Ordering::SeqCst;
                    if is64 {
                        let operand = v.as_i64()?;
                        let cell = gmem.atomic_u64(b, p.byte_off)?;
                        let prev = cell
                            .fetch_update(SeqCst, SeqCst, |cur| {
                                Some(apply_atomic(*op, cur as i64, operand) as u64)
                            })
                            .unwrap_or_else(|e| e);
                        Value::I64(prev as i64)
                    } else {
                        let operand = match v {
                            Value::I32(x) => x,
                            _ => return Err(InterpError::Invalid("atomic operand type".into())),
                        };
                        let cell = gmem.atomic_u32(b, p.byte_off)?;
                        let prev = cell
                            .fetch_update(SeqCst, SeqCst, |cur| {
                                Some(apply_atomic(*op, cur as i32 as i64, operand as i64) as i32
                                    as u32)
                            })
                            .unwrap_or_else(|e| e);
                        Value::I32(prev as i32)
                    }
                } else {
                    let size = if is64 { 8 } else { 4 };
                    let bytes = bc_bytes_mut(gmem, local, &mut item.private, p, size)?;
                    if is64 {
                        let old = i64::from_le_bytes(bytes[..8].try_into().unwrap());
                        let operand = v.as_i64()?;
                        let new = apply_atomic(*op, old, operand);
                        bytes[..8].copy_from_slice(&new.to_le_bytes());
                        Value::I64(old)
                    } else {
                        let old = i32::from_le_bytes(bytes[..4].try_into().unwrap());
                        let operand = match v {
                            Value::I32(x) => x,
                            _ => return Err(InterpError::Invalid("atomic operand type".into())),
                        };
                        let new = apply_atomic(*op, old as i64, operand as i64) as i32;
                        bytes[..4].copy_from_slice(&new.to_le_bytes());
                        Value::I32(old)
                    }
                };
                let old = match tickets.as_deref_mut() {
                    Some(cursor) if *ticket => cursor.take(),
                    _ => old,
                };
                bc_set(item, *dst, old);
            }
            BcInsn::AtomicCmpXchg {
                dst,
                ptr,
                expected,
                desired,
            } => {
                *wg_insns += 1;
                stats.atomic_ops += 1;
                let frame = item.frames.last().unwrap();
                let p = bc_get(frame, *ptr)?.as_ptr()?;
                let exp = bc_get(frame, *expected)?;
                let des = bc_get(frame, *desired)?;
                let is64 = matches!(des, Value::I64(_));
                let old = if let Arena::Global(b) = p.arena {
                    use std::sync::atomic::Ordering::SeqCst;
                    if is64 {
                        let cell = gmem.atomic_u64(b, p.byte_off)?;
                        let exp = exp.as_i64()? as u64;
                        let des = des.as_i64()? as u64;
                        let prev = match cell.compare_exchange(exp, des, SeqCst, SeqCst) {
                            Ok(prev) | Err(prev) => prev,
                        };
                        Value::I64(prev as i64)
                    } else {
                        let cell = gmem.atomic_u32(b, p.byte_off)?;
                        let exp = exp.as_i64()? as i32 as u32;
                        let des = des.as_i64()? as i32 as u32;
                        let prev = match cell.compare_exchange(exp, des, SeqCst, SeqCst) {
                            Ok(prev) | Err(prev) => prev,
                        };
                        Value::I32(prev as i32)
                    }
                } else {
                    let size = if is64 { 8 } else { 4 };
                    let bytes = bc_bytes_mut(gmem, local, &mut item.private, p, size)?;
                    if is64 {
                        let old = i64::from_le_bytes(bytes[..8].try_into().unwrap());
                        if old == exp.as_i64()? {
                            bytes[..8].copy_from_slice(&des.as_i64()?.to_le_bytes());
                        }
                        Value::I64(old)
                    } else {
                        let old = i32::from_le_bytes(bytes[..4].try_into().unwrap());
                        if old as i64 == exp.as_i64()? {
                            bytes[..4].copy_from_slice(&(des.as_i64()? as i32).to_le_bytes());
                        }
                        Value::I32(old)
                    }
                };
                bc_set(item, *dst, old);
            }
            BcInsn::Barrier => {
                *wg_insns += 1;
                stats.barriers += 1;
                item.status = WiStatus::AtBarrier;
                return Ok(());
            }
            // The error ends the launch, so the trap's weight never
            // reaches `DynStats`; the dispatch above counted its step.
            BcInsn::Trap(err) => return Err((**err).clone()),
        }
    }
}

// ---------------------------------------------------------------------------
// Disassembler
// ---------------------------------------------------------------------------

fn fmt_value(v: Value) -> String {
    match v {
        Value::Bool(b) => format!("bool {b}"),
        Value::I32(x) => format!("i32 {x}"),
        Value::I64(x) => format!("i64 {x}"),
        Value::F32(x) => format!("f32 {x:?}"),
        Value::F64(x) => format!("f64 {x:?}"),
        Value::Ptr(p) => match p.arena {
            Arena::Global(b) => format!("ptr g{}+{}", b.0, p.byte_off),
            Arena::Local => format!("ptr l+{}", p.byte_off),
            Arena::Private => format!("ptr p+{}", p.byte_off),
        },
    }
}

fn fmt_reg(r: u32) -> String {
    if r == NO_REG {
        "_".to_string()
    } else {
        format!("r{r}")
    }
}

/// Render a laid-out program as stable, diffable text (the golden-snapshot
/// and `repro disasm` format).
pub(crate) fn disassemble(prog: &BcProgram) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (fi, func) in prog.funcs.iter().enumerate() {
        let end = prog
            .funcs
            .get(fi + 1)
            .map(|f| f.entry_pc as usize)
            .unwrap_or(prog.insns.len());
        let _ = writeln!(out, "fn @{fi} {} (regs {}):", func.name, func.frame_regs);
        let preamble: Vec<String> = func
            .template
            .iter()
            .enumerate()
            .filter_map(|(r, v)| v.map(|v| format!("r{r} = {}", fmt_value(v))))
            .collect();
        if !preamble.is_empty() {
            let _ = writeln!(out, "  preamble: {}", preamble.join(", "));
        }
        for pc in func.entry_pc as usize..end {
            let text = match &prog.insns[pc] {
                BcInsn::Nop { weight } => format!("nop x{weight}"),
                BcInsn::Const { dst, val } => {
                    format!("{} = const {}", fmt_reg(*dst), fmt_value(*val))
                }
                BcInsn::Bin { op, dst, a, b } => format!(
                    "{} = {} {}, {}",
                    fmt_reg(*dst),
                    op.mnemonic(),
                    fmt_reg(*a),
                    fmt_reg(*b)
                ),
                BcInsn::Un { op, dst, a } => {
                    format!("{} = {} {}", fmt_reg(*dst), op.mnemonic(), fmt_reg(*a))
                }
                BcInsn::Cmp { op, dst, a, b } => format!(
                    "{} = cmp.{} {}, {}",
                    fmt_reg(*dst),
                    op.mnemonic(),
                    fmt_reg(*a),
                    fmt_reg(*b)
                ),
                BcInsn::Select { dst, cond, a, b } => format!(
                    "{} = select {}, {}, {}",
                    fmt_reg(*dst),
                    fmt_reg(*cond),
                    fmt_reg(*a),
                    fmt_reg(*b)
                ),
                BcInsn::Cast { dst, ty, a } => {
                    format!("{} = cast {ty}, {}", fmt_reg(*dst), fmt_reg(*a))
                }
                BcInsn::AllocaPriv { dst, bytes } => {
                    format!("{} = alloca.priv {bytes}", fmt_reg(*dst))
                }
                BcInsn::AllocaLocal { dst, off } => {
                    format!("{} = alloca.local @{off}", fmt_reg(*dst))
                }
                BcInsn::Load { dst, ptr, ty, .. } => {
                    format!("{} = load {ty}, {}", fmt_reg(*dst), fmt_reg(*ptr))
                }
                BcInsn::Store { ptr, value } => {
                    format!("store {}, {}", fmt_reg(*ptr), fmt_reg(*value))
                }
                BcInsn::Gep {
                    dst,
                    ptr,
                    index,
                    stride,
                } => format!(
                    "{} = gep {}, {} x{stride}",
                    fmt_reg(*dst),
                    fmt_reg(*ptr),
                    fmt_reg(*index)
                ),
                BcInsn::Call { dst, func, args } => {
                    let args: Vec<String> = args.iter().map(|a| fmt_reg(*a)).collect();
                    format!("{} = call @{func}({})", fmt_reg(*dst), args.join(", "))
                }
                BcInsn::WorkItem { dst, builtin, dim } => {
                    format!("{} = {} {dim}", fmt_reg(*dst), builtin.name())
                }
                BcInsn::AtomicRmw {
                    op,
                    dst,
                    ptr,
                    value,
                    ticket,
                } => format!(
                    "{} = {}{} {}, {}",
                    fmt_reg(*dst),
                    op.mnemonic(),
                    if *ticket { ".ticket" } else { "" },
                    fmt_reg(*ptr),
                    fmt_reg(*value)
                ),
                BcInsn::AtomicCmpXchg {
                    dst,
                    ptr,
                    expected,
                    desired,
                } => format!(
                    "{} = atomic_cmpxchg {}, {}, {}",
                    fmt_reg(*dst),
                    fmt_reg(*ptr),
                    fmt_reg(*expected),
                    fmt_reg(*desired)
                ),
                BcInsn::Barrier => "barrier".to_string(),
                BcInsn::Jump { target } => format!("jump @{target}"),
                BcInsn::Branch {
                    cond,
                    then_t,
                    else_t,
                } => format!("br {}, @{then_t}, @{else_t}", fmt_reg(*cond)),
                BcInsn::Ret { val } => {
                    if *val == NO_REG {
                        "ret".to_string()
                    } else {
                        format!("ret {}", fmt_reg(*val))
                    }
                }
                BcInsn::Trap(err) => format!("trap {err}"),
            };
            let _ = writeln!(out, "  {pc:>4}: {text}");
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Interpreter entry points
// ---------------------------------------------------------------------------

impl<'m> Interpreter<'m> {
    /// Select which execution tier
    /// [`run_kernel_bytecode`](Self::run_kernel_bytecode) uses. Freshly
    /// constructed interpreters default to [`ExecTier::TreeWalk`].
    pub fn set_exec_tier(&mut self, tier: ExecTier) {
        self.tier = tier;
    }

    /// The currently selected execution tier.
    pub fn exec_tier(&self) -> ExecTier {
        self.tier
    }

    /// Whether [`run_kernel_bytecode`](Self::run_kernel_bytecode) would
    /// execute this launch on the bytecode tier. Lowering is total (see the
    /// [module docs](crate::bytecode) for the trap rules), so this is
    /// whether the launch plans: a known kernel, matching arguments and
    /// local memory within capacity.
    pub fn bytecode_supported(
        &self,
        mem: &DeviceMemory,
        kernel: &str,
        ndrange: NdRange,
        args: &[ArgValue],
    ) -> bool {
        self.plan(mem, kernel, ndrange, args).is_ok()
    }

    /// Render the lowered and optimized bytecode of `kernel` for this
    /// launch as stable text (the `repro disasm` / golden-snapshot
    /// format).
    ///
    /// # Errors
    ///
    /// Returns [`InterpError`] when the launch does not plan (bad
    /// arguments, unknown kernel).
    pub fn disassemble_kernel(
        &self,
        mem: &DeviceMemory,
        kernel: &str,
        ndrange: NdRange,
        args: &[ArgValue],
    ) -> Result<String, InterpError> {
        let setup = self.plan(mem, kernel, ndrange, args)?;
        let raw = lower(self.module, &setup);
        let mut opt = raw.clone();
        optimize(&mut opt, ndrange);
        Ok(format!(
            "== lowered ==\n{}\n== optimized ==\n{}",
            disassemble(&layout(&raw)),
            disassemble(&layout(&opt))
        ))
    }

    /// Execute `kernel` like [`run_kernel`](Self::run_kernel) on the
    /// selected [`ExecTier`].
    ///
    /// The bytecode tier shards independent work groups across up to
    /// `threads` OS threads when the `accelcheck` race analysis proves the
    /// launch free of cross-group races — provably disjoint global writes,
    /// deterministic atomic contention, or a disjointness proof
    /// re-validated against the concrete launch parameters (see
    /// [`parallel_eligible_in`](Self::parallel_eligible_in)) — and runs the
    /// groups in flat order otherwise (and for single-group or
    /// single-thread runs). Contended global atomics execute as true host
    /// atomics. Threads repeatedly claim the next
    /// [`steal_claim`](crate::interp::steal_claim)-sized run of flat work
    /// groups from an atomic cursor, so a thread stuck on an expensive
    /// group (bfs's frontier, spmv's long rows) does not strand the rest.
    /// [`ExecTier::TreeWalk`] runs the reference tree-walker, always
    /// sequentially.
    ///
    /// Successful runs are bit-identical to `run_kernel`: memory bytes and
    /// every `DynStats` counter (work groups of a race-free kernel touch
    /// disjoint global bytes, and per-group statistics are merged in flat
    /// group order). On error, the lowest-numbered failing group's error is
    /// returned, but — unlike the sequential path, which stops at the first
    /// failing group — groups after the failing one may already have
    /// executed.
    ///
    /// A persistent-worker scheduling kernel whose
    /// [`crate::ir::DequeueContract`] admits the launch takes its dequeue
    /// tickets in the fixed round-robin order on both tiers and at every
    /// thread count, one thread included: memory and the four `DynStats`
    /// totals match `run_kernel`'s dequeue loop, while `insns_per_wg`
    /// splits the work among workers by that order instead of the atomic
    /// counter's.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_kernel`](Self::run_kernel).
    pub fn run_kernel_bytecode(
        &self,
        mem: &mut DeviceMemory,
        kernel: &str,
        ndrange: NdRange,
        args: &[ArgValue],
        threads: usize,
    ) -> Result<DynStats, InterpError> {
        let mut setup = self.plan(mem, kernel, ndrange, args)?;
        let total = ndrange.total_groups();
        let threads = threads.min(total).max(1);
        let (eligible, tickets) = self.admit(mem, kernel, ndrange, args, threads);
        setup.tickets = tickets;
        if self.tier == ExecTier::TreeWalk {
            return self.run_groups_seq(mem, &setup, ndrange, None);
        }
        let mut bc = lower(self.module, &setup);
        optimize(&mut bc, ndrange);
        let prog = layout(&bc);
        let step_limit = self.config.step_limit;
        let local_bytes = setup.local_bytes;
        let gmem = GlobalMem::new(mem);
        let run = |gid: [usize; 3], scratch: &mut BcScratch, stats: &mut DynStats| {
            run_bc_group(
                &prog,
                &gmem,
                step_limit,
                ndrange,
                local_bytes,
                setup.tickets.as_ref(),
                gid,
                scratch,
                stats,
            )
        };
        if threads <= 1 || !eligible {
            run_groups_seq_sched(ndrange, run)
        } else {
            run_groups_stealing_sched(ndrange, threads, run)
        }
    }

    /// [`run_kernel_bytecode`](Self::run_kernel_bytecode) with the host's
    /// available parallelism — the entry point
    /// the OpenCL runtime layers (`clrt::queue`, `ProxyCl`) call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_kernel`](Self::run_kernel).
    pub fn run_kernel_tiered(
        &self,
        mem: &mut DeviceMemory,
        kernel: &str,
        ndrange: NdRange,
        args: &[ArgValue],
    ) -> Result<DynStats, InterpError> {
        self.run_kernel_bytecode(mem, kernel, ndrange, args, default_interp_threads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::interp::InterpConfig;
    use crate::ir::{BinOp, CmpOp, FunctionKind, Module, WiBuiltin};
    use crate::verify::assert_verifies;

    fn module_of(funcs: Vec<crate::ir::Function>) -> Module {
        let mut m = Module::new();
        for f in funcs {
            m.insert_function(f);
        }
        assert_verifies(&m);
        m
    }

    /// kernel void saxpy_n(global f32* x, global f32* y, f32 a, int n):
    /// loop over gid stride gsize — exercises a loop, folds `a`, the
    /// bound compare against the scalar `n`, and gsize.
    fn loop_kernel() -> Module {
        let mut b = FunctionBuilder::new("saxpy_n", FunctionKind::Kernel, Type::Void);
        let x = b.add_param("x", Type::ptr(AddressSpace::Global, Type::F32));
        let y = b.add_param("y", Type::ptr(AddressSpace::Global, Type::F32));
        let a = b.add_param("a", Type::F32);
        let n = b.add_param("n", Type::I32);
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let n64 = b.cast(Type::I64, n);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        // i lives in private memory (no phis in this IR).
        let slot = b.alloca(Type::I64, 1, AddressSpace::Private);
        b.store(slot, gid);
        b.br(header);
        b.switch_to(header);
        let i = b.load(slot);
        let in_range = b.cmp(CmpOp::Lt, i, n64);
        b.cond_br(in_range, body, exit);
        b.switch_to(body);
        let px = b.gep(x, i);
        let py = b.gep(y, i);
        let vx = b.load(px);
        let vy = b.load(py);
        let ax = b.bin(BinOp::Mul, a, vx);
        let sum = b.bin(BinOp::Add, vy, ax);
        b.store(py, sum);
        let gsize = b.work_item(WiBuiltin::GlobalSize, 0);
        let next = b.bin(BinOp::Add, i, gsize);
        b.store(slot, next);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        module_of(vec![b.finish()])
    }

    fn run_tier(
        m: &Module,
        tier: ExecTier,
        nd: NdRange,
        args: &[ArgValue],
        data: &[f32],
    ) -> (Vec<u8>, DynStats) {
        let mut mem = DeviceMemory::new();
        let x = mem.alloc(data.len() * 4);
        let y = mem.alloc(data.len() * 4);
        mem.write_f32(x, data);
        let mut interp = Interpreter::new(m);
        interp.set_exec_tier(tier);
        let mut full_args = vec![ArgValue::Buffer(x), ArgValue::Buffer(y)];
        full_args.extend_from_slice(args);
        let name = m.functions[0].name.clone();
        let stats = interp
            .run_kernel_bytecode(&mut mem, &name, nd, &full_args, 1)
            .expect("runs");
        let mut bytes = mem.bytes(x).to_vec();
        bytes.extend_from_slice(mem.bytes(y));
        (bytes, stats)
    }

    #[test]
    fn tiers_agree_on_loop_kernel_including_stats() {
        let m = loop_kernel();
        let nd = NdRange::new_1d(8, 4);
        let args = [
            ArgValue::Scalar(Value::F32(2.5)),
            ArgValue::Scalar(Value::I32(23)),
        ];
        let data: Vec<f32> = (0..23).map(|i| i as f32 * 0.5).collect();
        let (tree_mem, tree_stats) = run_tier(&m, ExecTier::TreeWalk, nd, &args, &data);
        let (opt_mem, opt_stats) = run_tier(&m, ExecTier::BytecodeOpt, nd, &args, &data);
        assert_eq!(tree_mem, opt_mem);
        assert_eq!(tree_stats, opt_stats, "weight preservation broke DynStats");
    }

    #[test]
    fn optimizer_folds_invariants_into_preamble() {
        let m = loop_kernel();
        let mut mem = DeviceMemory::new();
        let x = mem.alloc(4);
        let y = mem.alloc(4);
        let nd = NdRange::new_1d(8, 4);
        let args = [
            ArgValue::Buffer(x),
            ArgValue::Buffer(y),
            ArgValue::Scalar(Value::F32(2.5)),
            ArgValue::Scalar(Value::I32(1)),
        ];
        let interp = Interpreter::new(&m);
        let setup = interp.plan(&mem, "saxpy_n", nd, &args).unwrap();
        let mut bc = lower(&m, &setup);
        let before: usize = bc.funcs[0]
            .blocks
            .iter()
            .flatten()
            .filter(|i| !matches!(i, BcInsn::Nop { .. }))
            .count();
        optimize(&mut bc, nd);
        let after: usize = bc.funcs[0]
            .blocks
            .iter()
            .flatten()
            .filter(|i| !matches!(i, BcInsn::Nop { .. }))
            .count();
        assert!(after < before, "folding eliminated no dispatches");
        // The cast of the scalar bound must have landed in the preamble.
        assert!(
            bc.funcs[0].template.iter().flatten().count() > 4,
            "no invariants hoisted beyond the arguments"
        );
        // Weight totals per block are preserved.
        let weights: u64 = bc.funcs[0]
            .blocks
            .iter()
            .flatten()
            .map(|i| match i {
                BcInsn::Nop { weight } => *weight,
                BcInsn::Jump { .. } | BcInsn::Branch { .. } | BcInsn::Ret { .. } => 0,
                _ => 1,
            })
            .sum();
        assert_eq!(weights as usize, m.functions[0].insn_count());
    }

    #[test]
    fn unknown_callee_traps_only_when_reached() {
        // A call to a function that does not exist lowers to a trap that
        // survives optimization and raises the tree-walker's error only
        // if a work item reaches it.
        let run = |reached: bool| {
            let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
            let out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::I32));
            let gid = b.work_item(WiBuiltin::GlobalId, 0);
            let seven = b.const_i32(7);
            let always = b.cmp(CmpOp::Eq, gid, gid);
            let call_b = b.new_block();
            let exit = b.new_block();
            let (then_b, else_b) = if reached {
                (call_b, exit)
            } else {
                (exit, call_b)
            };
            b.cond_br(always, then_b, else_b);
            b.switch_to(call_b);
            b.call("missing", vec![], Type::I32);
            b.br(exit);
            b.switch_to(exit);
            let p = b.gep(out, gid);
            b.store(p, seven);
            b.ret(None);
            let mut m = Module::new();
            m.insert_function(b.finish());

            let mut mem = DeviceMemory::new();
            let buf = mem.alloc(16);
            let args = [ArgValue::Buffer(buf)];
            let nd = NdRange::new_1d(4, 4);
            let mut interp = Interpreter::new(&m);
            interp.set_exec_tier(ExecTier::BytecodeOpt);
            assert!(interp.bytecode_supported(&mem, "k", nd, &args));
            let text = interp.disassemble_kernel(&mem, "k", nd, &args).unwrap();
            let optimized = &text[text.find("== optimized ==").unwrap()..];
            assert!(optimized.contains("trap unknown function `missing`"));
            let tree = Interpreter::new(&m).run_kernel(&mut mem.clone(), "k", nd, &args);
            let vm = interp.run_kernel_bytecode(&mut mem, "k", nd, &args, 1);
            assert_eq!(tree, vm);
            vm.map(|_| mem.read_i32(buf))
        };
        assert_eq!(run(false), Ok(vec![7; 4]));
        assert_eq!(
            run(true),
            Err(InterpError::UnknownFunction("missing".into()))
        );
    }

    #[test]
    fn trap_payload_is_boxed() {
        // 32 bytes, as before the trap existed: an unboxed `InterpError`
        // would widen every instruction of every program.
        assert_eq!(std::mem::size_of::<BcInsn>(), 32);
    }

    #[test]
    fn step_limit_parity_across_tiers() {
        let m = loop_kernel();
        let nd = NdRange::new_1d(4, 4);
        for tier in [ExecTier::TreeWalk, ExecTier::BytecodeOpt] {
            let mut mem = DeviceMemory::new();
            let x = mem.alloc(64 * 4);
            let y = mem.alloc(64 * 4);
            let mut interp = Interpreter::with_config(
                &m,
                InterpConfig {
                    step_limit: 50,
                    ..InterpConfig::default()
                },
            );
            interp.set_exec_tier(tier);
            let err = interp
                .run_kernel_bytecode(
                    &mut mem,
                    "saxpy_n",
                    nd,
                    &[
                        ArgValue::Buffer(x),
                        ArgValue::Buffer(y),
                        ArgValue::Scalar(Value::F32(1.0)),
                        ArgValue::Scalar(Value::I32(64)),
                    ],
                    1,
                )
                .unwrap_err();
            assert!(
                matches!(err, InterpError::StepLimitExceeded(50)),
                "{tier:?}: {err:?}"
            );
        }
    }

    #[test]
    fn disassembly_has_preamble_and_sections() {
        let m = loop_kernel();
        let mut mem = DeviceMemory::new();
        let x = mem.alloc(4);
        let y = mem.alloc(4);
        let interp = Interpreter::new(&m);
        let text = interp
            .disassemble_kernel(
                &mem,
                "saxpy_n",
                NdRange::new_1d(8, 4),
                &[
                    ArgValue::Buffer(x),
                    ArgValue::Buffer(y),
                    ArgValue::Scalar(Value::F32(2.5)),
                    ArgValue::Scalar(Value::I32(23)),
                ],
            )
            .expect("disassembles");
        assert!(text.contains("== lowered =="));
        assert!(text.contains("== optimized =="));
        assert!(text.contains("preamble:"));
        assert!(text.contains("nop x"));
    }

    #[test]
    fn exec_tier_from_env_parses_all_values() {
        // Not set in the test environment by default.
        assert_eq!(ExecTier::from_env(), ExecTier::BytecodeOpt);
    }
}
