//! The accelOS Just-In-Time kernel transformation (paper §6).
//!
//! For every kernel in a module the pass performs the paper's six steps
//! (§6.2):
//!
//! 1. convert the kernel function into a regular computation function
//!    (`<name>__vg`, [`FunctionKind::Helper`]);
//! 2. extend its interface with runtime pointers: `rt` (the Virtual NDRange
//!    descriptor in global memory, see [`crate::vrange`]) and `hdlr` (the
//!    flat virtual-group index being executed);
//! 3. replace group-dependent work-item builtins (`get_global_id`,
//!    `get_group_id`, `get_global_size`, `get_num_groups`) with arithmetic
//!    over `rt` and `hdlr`; `get_local_id`/`get_local_size`/`get_work_dim`
//!    keep their hardware meaning (helpers that need the runtime are
//!    extended and their call sites rewritten, paper's "Function Calls"
//!    paragraph);
//! 4. create a scheduling kernel under the **original name** (transparency:
//!    the application's `clCreateKernel` string still works) whose interface
//!    is the original arguments plus the `rt` pointer;
//! 5. generate the scheduling body: a loop in which the work-group master
//!    atomically dequeues a chunk of virtual groups, a barrier publishes the
//!    chunk, and every work item calls the computation function for each
//!    virtual group;
//! 6. hoist `local` data declarations out of the computation function into
//!    the scheduling kernel (OpenCL only permits local declarations at
//!    kernel scope), passing pointers down.
//!
//! Each scheduling kernel's [`DequeueContract`] — the dequeue site, the
//! descriptor parameter and its slots, and the original kernel — is
//! recorded on the output module, which is what lets the interpreter run
//! the persistent workers of a launch the original kernel admits in a
//! fixed round-robin ticket order across host threads.
//!
//! The pass is validated by differential interpretation: original and
//! transformed modules must produce byte-identical buffers (see the tests
//! here and the property tests in `tests/`).

use crate::chunk::{chunk_for, Mode};
use crate::vrange::{SLOT_DIMS, SLOT_NEXT, SLOT_TOTAL};
use kernel_ir::analysis::{reachable_helpers, static_insn_count};
use kernel_ir::builder::FunctionBuilder;
use kernel_ir::error::IrError;
use kernel_ir::ir::{
    AtomicOp, BinOp, CmpOp, ConstVal, DequeueContract, Function, FunctionKind, Inst, Module, Op,
    Param, Terminator, ValueId, WiBuiltin,
};
use kernel_ir::types::{AddressSpace, Type};
use std::collections::{BTreeMap, BTreeSet};

/// Suffix appended to the converted computation function's name.
pub const COMPUTE_SUFFIX: &str = "__vg";

/// Per-kernel facts the host runtime needs after transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformInfo {
    /// Scheduling-kernel name (equal to the original kernel name).
    pub kernel: String,
    /// Name of the computation function the scheduling kernel calls.
    pub compute_fn: String,
    /// Virtual groups fetched per atomic dequeue (§6.4).
    pub chunk: u32,
    /// Number of `local` declarations hoisted out of the kernel body.
    pub hoisted_locals: usize,
    /// Static instruction count of the *original* kernel (chunk input).
    pub original_insns: usize,
}

/// A transformed module plus per-kernel metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformedProgram {
    /// The rewritten module (scheduling kernels + computation helpers).
    pub module: Module,
    /// One entry per original kernel, in definition order.
    pub kernels: Vec<TransformInfo>,
}

impl TransformedProgram {
    /// Metadata for one kernel by (original) name.
    pub fn info(&self, kernel: &str) -> Option<&TransformInfo> {
        self.kernels.iter().find(|k| k.kernel == kernel)
    }
}

/// Apply the accelOS transformation and then inline the computation
/// functions back into their scheduling kernels, as the vendor compiler
/// would by default (paper §6.5 measures register usage *after* this
/// step).
///
/// # Errors
///
/// As [`transform_module`], plus inliner failures (recursion — impossible
/// for JIT output — or internal errors).
pub fn transform_and_inline(module: &Module, mode: Mode) -> Result<TransformedProgram, IrError> {
    let mut out = transform_module(module, mode)?;
    kernel_ir::inline::inline_module(&mut out.module)?;
    kernel_ir::verify::verify_module(&out.module)
        .map_err(|e| IrError::new(format!("internal: inlined module invalid: {e}")))?;
    Ok(out)
}

/// Apply the accelOS transformation to every kernel of `module`.
///
/// # Errors
///
/// Returns [`IrError`] if the input module is malformed or the produced
/// module fails verification (an internal bug, never a property of valid
/// input).
pub fn transform_module(module: &Module, mode: Mode) -> Result<TransformedProgram, IrError> {
    kernel_ir::verify::verify_module(module)?;

    // Which helpers transitively need the runtime (use group-dependent
    // builtins, or call someone who does)?
    let extended = helpers_needing_runtime(module);

    let mut out = Module::new();
    let mut infos = Vec::new();

    for func in &module.functions {
        match func.kind {
            FunctionKind::Helper => {
                let mut f = func.clone();
                if extended.contains(&f.name) {
                    extend_with_runtime(&mut f, &extended);
                }
                out.insert_function(f);
            }
            FunctionKind::Kernel => {
                let original_insns = static_insn_count(func, module);
                let chunk = chunk_for(original_insns, mode);

                // Steps 1-3 + 6a: computation function.
                let mut compute = func.clone();
                compute.name = format!("{}{COMPUTE_SUFFIX}", func.name);
                compute.kind = FunctionKind::Helper;
                extend_with_runtime(&mut compute, &extended);
                let hoisted = hoist_local_allocas(&mut compute);

                // Steps 4-5 + 6b: scheduling kernel.
                let sched = build_scheduling_kernel(func, &compute.name, &hoisted, chunk);
                out.dequeue.insert(
                    func.name.clone(),
                    dequeue_contract(module, func, &sched, chunk),
                );

                infos.push(TransformInfo {
                    kernel: func.name.clone(),
                    compute_fn: compute.name.clone(),
                    chunk,
                    hoisted_locals: hoisted.len(),
                    original_insns,
                });
                out.insert_function(compute);
                out.insert_function(sched);
            }
        }
    }

    kernel_ir::verify::verify_module(&out)
        .map_err(|e| IrError::new(format!("internal: transformed module invalid: {e}")))?;
    Ok(TransformedProgram {
        module: out,
        kernels: infos,
    })
}

/// Helpers that must receive `rt`/`hdlr` parameters: those that use a
/// group-dependent builtin, or (transitively) call one that does.
fn helpers_needing_runtime(module: &Module) -> BTreeSet<String> {
    let uses_direct = |f: &Function| -> bool {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(&i.op, Op::WorkItem { builtin, .. } if builtin.group_dependent()))
    };
    let mut need: BTreeSet<String> = module
        .functions
        .iter()
        .filter(|f| f.kind == FunctionKind::Helper && uses_direct(f))
        .map(|f| f.name.clone())
        .collect();
    // Propagate through the call graph to a fixed point.
    loop {
        let mut grew = false;
        for f in &module.functions {
            if f.kind != FunctionKind::Helper || need.contains(&f.name) {
                continue;
            }
            let calls_needy = f
                .blocks
                .iter()
                .flat_map(|b| &b.insts)
                .any(|i| matches!(&i.op, Op::Call { callee, .. } if need.contains(callee)));
            if calls_needy {
                need.insert(f.name.clone());
                grew = true;
            }
        }
        if !grew {
            return need;
        }
    }
}

/// Apply `f` to every value operand of `op` (mutably).
fn for_each_operand_mut(op: &mut Op, f: &mut impl FnMut(&mut ValueId)) {
    match op {
        Op::Const(_) | Op::Alloca { .. } | Op::WorkItem { .. } | Op::Barrier => {}
        Op::Bin(_, a, b) | Op::Cmp(_, a, b) => {
            f(a);
            f(b);
        }
        Op::Un(_, a) | Op::Load(a) | Op::Cast(_, a) => f(a),
        Op::Select(c, a, b) => {
            f(c);
            f(a);
            f(b);
        }
        Op::Store { ptr, value } => {
            f(ptr);
            f(value);
        }
        Op::Gep { ptr, index } => {
            f(ptr);
            f(index);
        }
        Op::Call { args, .. } => {
            for a in args {
                f(a);
            }
        }
        Op::AtomicRmw { ptr, value, .. } => {
            f(ptr);
            f(value);
        }
        Op::AtomicCmpXchg {
            ptr,
            expected,
            desired,
        } => {
            f(ptr);
            f(expected);
            f(desired);
        }
    }
}

/// Rewrite every value reference in `func` through `map`.
fn remap_values(func: &mut Function, map: &impl Fn(ValueId) -> ValueId) {
    for block in &mut func.blocks {
        for inst in &mut block.insts {
            if let Some(r) = &mut inst.result {
                *r = map(*r);
            }
            for_each_operand_mut(&mut inst.op, &mut |v| *v = map(*v));
        }
        match &mut block.term {
            Some(Terminator::CondBr { cond, .. }) => *cond = map(*cond),
            Some(Terminator::Ret(Some(v))) => *v = map(*v),
            _ => {}
        }
    }
}

/// The IR type of the `rt` descriptor pointer.
fn rt_type() -> Type {
    Type::ptr(AddressSpace::Global, Type::I64)
}

/// Step 2 + 3: append `rt` and `hdlr` parameters to `func`, rewrite
/// group-dependent builtins in terms of them, and pass them through to
/// extended callees.
///
/// Because parameters must occupy the first value ids, every existing
/// non-parameter value id is shifted up by two.
fn extend_with_runtime(func: &mut Function, extended: &BTreeSet<String>) {
    let old_params = func.params.len();
    let shift = 2u32;
    remap_values(func, &|v: ValueId| {
        if (v.index()) < old_params {
            v
        } else {
            ValueId(v.0 + shift)
        }
    });
    func.params.push(Param {
        name: "rt".into(),
        ty: rt_type(),
    });
    func.params.push(Param {
        name: "hdlr".into(),
        ty: Type::I64,
    });
    func.value_types.insert(old_params, rt_type());
    func.value_types.insert(old_params + 1, Type::I64);
    let rt = ValueId(old_params as u32);
    let hdlr = ValueId(old_params as u32 + 1);

    replace_group_builtins(func, rt, hdlr);

    // Pass the runtime through to extended callees.
    for block in &mut func.blocks {
        for inst in &mut block.insts {
            if let Op::Call { callee, args } = &mut inst.op {
                if extended.contains(callee) {
                    args.push(rt);
                    args.push(hdlr);
                }
            }
        }
    }
}

/// Small helper for splicing replacement instruction sequences into blocks.
struct Splicer<'f> {
    func: &'f mut Function,
    out: Vec<Inst>,
}

impl<'f> Splicer<'f> {
    fn fresh(&mut self, ty: Type) -> ValueId {
        let id = ValueId(self.func.value_types.len() as u32);
        self.func.value_types.push(ty);
        id
    }

    fn emit(&mut self, ty: Type, op: Op) -> ValueId {
        let id = self.fresh(ty);
        self.out.push(Inst::new(Some(id), op));
        id
    }

    fn emit_into(&mut self, result: Option<ValueId>, op: Op) {
        self.out.push(Inst::new(result, op));
    }

    fn const_i64(&mut self, v: i64) -> ValueId {
        self.emit(Type::I64, Op::Const(ConstVal::I64(v)))
    }

    /// `load rt[slot]`.
    fn load_rt(&mut self, rt: ValueId, slot: usize) -> ValueId {
        let idx = self.const_i64(slot as i64);
        let p = self.emit(
            rt_type(),
            Op::Gep {
                ptr: rt,
                index: idx,
            },
        );
        self.emit(Type::I64, Op::Load(p))
    }

    /// Virtual `get_group_id(dim)` from the flat `hdlr` index:
    /// `g0 = h % n0`, `g1 = (h / n0) % n1`, `g2 = h / (n0 * n1)`.
    fn virtual_group_id(&mut self, rt: ValueId, hdlr: ValueId, dim: u8) -> (Option<ValueId>, Op) {
        match dim {
            0 => {
                let n0 = self.load_rt(rt, SLOT_DIMS);
                (None, Op::Bin(BinOp::Rem, hdlr, n0))
            }
            1 => {
                let n0 = self.load_rt(rt, SLOT_DIMS);
                let n1 = self.load_rt(rt, SLOT_DIMS + 1);
                let q = self.emit(Type::I64, Op::Bin(BinOp::Div, hdlr, n0));
                (None, Op::Bin(BinOp::Rem, q, n1))
            }
            _ => {
                let n0 = self.load_rt(rt, SLOT_DIMS);
                let n1 = self.load_rt(rt, SLOT_DIMS + 1);
                let n01 = self.emit(Type::I64, Op::Bin(BinOp::Mul, n0, n1));
                (None, Op::Bin(BinOp::Div, hdlr, n01))
            }
        }
    }
}

/// Step 3: rewrite group-dependent builtins in terms of `rt` and `hdlr`.
fn replace_group_builtins(func: &mut Function, rt: ValueId, hdlr: ValueId) {
    for b in 0..func.blocks.len() {
        let insts = std::mem::take(&mut func.blocks[b].insts);
        let mut sp = Splicer {
            func,
            out: Vec::with_capacity(insts.len()),
        };
        for inst in insts {
            match &inst.op {
                Op::WorkItem { builtin, dim } if builtin.group_dependent() => {
                    let dim = *dim;
                    match builtin {
                        WiBuiltin::GroupId => {
                            let (_, op) = sp.virtual_group_id(rt, hdlr, dim);
                            sp.emit_into(inst.result, op);
                        }
                        WiBuiltin::NumGroups => {
                            let idx = sp.const_i64((SLOT_DIMS + dim as usize) as i64);
                            let p = sp.emit(
                                rt_type(),
                                Op::Gep {
                                    ptr: rt,
                                    index: idx,
                                },
                            );
                            sp.emit_into(inst.result, Op::Load(p));
                        }
                        WiBuiltin::GlobalSize => {
                            // n_d * get_local_size(d)
                            let n = sp.load_rt(rt, SLOT_DIMS + dim as usize);
                            let ls = sp.emit(
                                Type::I64,
                                Op::WorkItem {
                                    builtin: WiBuiltin::LocalSize,
                                    dim,
                                },
                            );
                            sp.emit_into(inst.result, Op::Bin(BinOp::Mul, n, ls));
                        }
                        WiBuiltin::GlobalId => {
                            // virtual_group_id(d) * ls_d + lid_d
                            let (_, gop) = sp.virtual_group_id(rt, hdlr, dim);
                            let g = sp.fresh(Type::I64);
                            sp.emit_into(Some(g), gop);
                            let ls = sp.emit(
                                Type::I64,
                                Op::WorkItem {
                                    builtin: WiBuiltin::LocalSize,
                                    dim,
                                },
                            );
                            let base = sp.emit(Type::I64, Op::Bin(BinOp::Mul, g, ls));
                            let lid = sp.emit(
                                Type::I64,
                                Op::WorkItem {
                                    builtin: WiBuiltin::LocalId,
                                    dim,
                                },
                            );
                            sp.emit_into(inst.result, Op::Bin(BinOp::Add, base, lid));
                        }
                        _ => unreachable!("only group-dependent builtins reach here"),
                    }
                }
                _ => sp.out.push(inst),
            }
        }
        let out = std::mem::take(&mut sp.out);
        func.blocks[b].insts = out;
    }
}

/// A hoisted `local` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoistedLocal {
    /// Element type of the declaration.
    pub elem: Type,
    /// Element count.
    pub count: u32,
}

/// Step 6: remove `local` allocas from the computation function, turning
/// each into a `local T*` parameter (inserted before `rt`/`hdlr`, which
/// must already be present). Returns the hoisted declarations in order.
fn hoist_local_allocas(func: &mut Function) -> Vec<HoistedLocal> {
    // Collect (block, ip, result id, decl) of local allocas.
    let mut found: Vec<(usize, usize, ValueId, HoistedLocal)> = Vec::new();
    for (b, block) in func.blocks.iter().enumerate() {
        for (ip, inst) in block.insts.iter().enumerate() {
            if let Op::Alloca {
                elem,
                count,
                space: AddressSpace::Local,
            } = &inst.op
            {
                found.push((
                    b,
                    ip,
                    inst.result.expect("alloca always has a result"),
                    HoistedLocal {
                        elem: elem.clone(),
                        count: *count,
                    },
                ));
            }
        }
    }
    if found.is_empty() {
        return Vec::new();
    }

    // Insert parameters before the final two (rt, hdlr).
    let k = found.len() as u32;
    let insert_at = func.params.len() - 2;
    remap_values(func, &|v: ValueId| {
        if v.index() < insert_at {
            v
        } else {
            ValueId(v.0 + k)
        }
    });
    for (j, (_, _, _, h)) in found.iter().enumerate() {
        let ty = Type::ptr(AddressSpace::Local, h.elem.clone());
        func.params.insert(
            insert_at + j,
            Param {
                name: format!("lheap{j}"),
                ty: ty.clone(),
            },
        );
        func.value_types.insert(insert_at + j, ty);
    }

    // Replace uses of each (shifted) alloca result with its parameter and
    // delete the alloca instructions.
    let subst: BTreeMap<ValueId, ValueId> = found
        .iter()
        .enumerate()
        .map(|(j, (_, _, old, _))| (ValueId(old.0 + k), ValueId((insert_at + j) as u32)))
        .collect();
    remap_values(func, &|v: ValueId| subst.get(&v).copied().unwrap_or(v));
    for block in &mut func.blocks {
        block.insts.retain(|inst| {
            !matches!(
                inst.op,
                Op::Alloca {
                    space: AddressSpace::Local,
                    ..
                }
            )
        });
    }
    found.into_iter().map(|(_, _, _, h)| h).collect()
}

/// The contract of `sched`, the scheduling kernel built for `original`:
/// its one atomic is the dequeue, `rt` is its last parameter.
fn dequeue_contract(
    module: &Module,
    original: &Function,
    sched: &Function,
    chunk: u32,
) -> DequeueContract {
    let (block, inst) = sched
        .iter_blocks()
        .find_map(|(b, block)| {
            block
                .insts
                .iter()
                .position(|i| matches!(i.op, Op::AtomicRmw { .. }))
                .map(|i| (b, i))
        })
        .expect("the scheduling kernel dequeues");
    let mut kept = Module::new();
    kept.insert_function(original.clone());
    for name in reachable_helpers(original, module) {
        if let Some(helper) = module.function(&name) {
            kept.insert_function(helper.clone());
        }
    }
    DequeueContract {
        block,
        inst,
        descriptor: sched.params.len() - 1,
        next_slot: SLOT_NEXT,
        total_slot: SLOT_TOTAL,
        dims_slot: SLOT_DIMS,
        chunk,
        original: kept,
    }
}

/// Steps 4 + 5: build the scheduling kernel (paper fig. 8b's `dyn_sched`).
fn build_scheduling_kernel(
    original: &Function,
    compute_name: &str,
    hoisted: &[HoistedLocal],
    chunk: u32,
) -> Function {
    let mut b = FunctionBuilder::new(&original.name, FunctionKind::Kernel, Type::Void);
    let args: Vec<ValueId> = original
        .params
        .iter()
        .map(|p| b.add_param(&p.name, p.ty.clone()))
        .collect();
    let rt = b.add_param("rt", rt_type());

    // Entry: local declarations hoisted from the kernel body (step 6), the
    // scheduling descriptor `sd`, and the private loop cell.
    let hoisted_ptrs: Vec<ValueId> = hoisted
        .iter()
        .map(|h| b.alloca(h.elem.clone(), h.count, AddressSpace::Local))
        .collect();
    let sd = b.alloca(Type::I64, 1, AddressSpace::Local);
    let iv = b.alloca(Type::I64, 1, AddressSpace::Private);

    let head = b.new_block();
    let master_bb = b.new_block();
    let join_bb = b.new_block();
    let run_bb = b.new_block();
    let loop_head = b.new_block();
    let loop_body = b.new_block();
    let exit_bb = b.new_block();
    b.br(head);

    // head: is this work item the work-group master? The leading barrier
    // keeps the master from overwriting `sd` while slower work items are
    // still consuming the previous chunk (the second fence of the classic
    // persistent-kernel double-barrier protocol).
    b.switch_to(head);
    b.barrier();
    let lid0 = b.work_item(WiBuiltin::LocalId, 0);
    let lid1 = b.work_item(WiBuiltin::LocalId, 1);
    let lid2 = b.work_item(WiBuiltin::LocalId, 2);
    let ls0 = b.work_item(WiBuiltin::LocalSize, 0);
    let ls1 = b.work_item(WiBuiltin::LocalSize, 1);
    let t1 = b.bin(BinOp::Mul, lid2, ls1);
    let t2 = b.bin(BinOp::Add, lid1, t1);
    let t3 = b.bin(BinOp::Mul, t2, ls0);
    let lin = b.bin(BinOp::Add, lid0, t3);
    let zero = b.const_i64(0);
    let is_master = b.cmp(CmpOp::Eq, lin, zero);
    b.cond_br(is_master, master_bb, join_bb);

    // master: rt_sched_wgroup — atomically claim the next chunk.
    b.switch_to(master_bb);
    let zero_idx = b.const_i64(SLOT_NEXT as i64);
    let pnext = b.gep(rt, zero_idx);
    let chunk_c = b.const_i64(chunk as i64);
    let old = b.atomic_rmw(AtomicOp::Add, pnext, chunk_c);
    b.store(sd, old);
    b.br(join_bb);

    // join: publish the claim to the whole work group.
    b.switch_to(join_bb);
    b.barrier();
    let base = b.load(sd);
    let tot_idx = b.const_i64(SLOT_TOTAL as i64);
    let ptotal = b.gep(rt, tot_idx);
    let total = b.load(ptotal);
    let done = b.cmp(CmpOp::Ge, base, total);
    b.cond_br(done, exit_bb, run_bb);

    // run: iterate the claimed chunk.
    b.switch_to(run_bb);
    b.store(iv, base);
    let chunk_c2 = b.const_i64(chunk as i64);
    let bc = b.bin(BinOp::Add, base, chunk_c2);
    let endv = b.bin(BinOp::Min, bc, total);
    b.br(loop_head);

    b.switch_to(loop_head);
    let i = b.load(iv);
    let more = b.cmp(CmpOp::Lt, i, endv);
    b.cond_br(more, loop_body, head);

    b.switch_to(loop_body);
    let mut call_args = args;
    call_args.extend_from_slice(&hoisted_ptrs);
    call_args.push(rt);
    call_args.push(i);
    b.call(compute_name, call_args, Type::Void);
    // Separate consecutive virtual groups: without this fence a fast work
    // item could enter group `i+1` and overwrite hoisted local memory that
    // slower items are still reading for group `i`.
    b.barrier();
    let one = b.const_i64(1);
    let i1 = b.bin(BinOp::Add, i, one);
    b.store(iv, i1);
    b.br(loop_head);

    b.switch_to(exit_bb);
    b.ret(None);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vrange::VirtualNdRange;
    use kernel_ir::interp::{ArgValue, DeviceMemory, Interpreter, NdRange, Value};

    /// Run original and transformed kernels on identical inputs and compare
    /// every buffer byte-for-byte.
    fn differential(
        src: &str,
        kernel: &str,
        nd: NdRange,
        workers: u32,
        buffers: &[Vec<u8>],
        scalars: &[Value],
    ) {
        let original = minicl::compile(src).expect("compile");
        let tp = transform_module(&original, Mode::Optimized).expect("transform");

        let run = |module: &Module, transformed: bool| -> Vec<Vec<u8>> {
            let mut mem = DeviceMemory::new();
            let mut args: Vec<ArgValue> = Vec::new();
            let ids: Vec<_> = buffers
                .iter()
                .map(|init| {
                    let id = mem.alloc(init.len());
                    mem.bytes_mut(id).copy_from_slice(init);
                    id
                })
                .collect();
            args.extend(ids.iter().map(|&id| ArgValue::Buffer(id)));
            args.extend(scalars.iter().map(|&s| ArgValue::Scalar(s)));
            let launch_nd = if transformed {
                let v = VirtualNdRange::new(nd);
                let rt = mem.alloc(8 * v.descriptor().len());
                mem.write_i64(rt, &v.descriptor());
                args.push(ArgValue::Buffer(rt));
                v.hardware_range(workers)
            } else {
                nd
            };
            Interpreter::new(module)
                .run_kernel(&mut mem, kernel, launch_nd, &args)
                .expect("run");
            ids.iter().map(|&id| mem.bytes(id).to_vec()).collect()
        };

        let base = run(&original, false);
        let xformed = run(&tp.module, true);
        assert_eq!(base, xformed, "transformed kernel diverged for `{kernel}`");
    }

    #[test]
    fn global_id_kernel_is_equivalent() {
        differential(
            "kernel void iota(global long* o) { o[get_global_id(0)] = get_global_id(0); }",
            "iota",
            NdRange::new_1d(64, 8),
            3,
            &[vec![0u8; 64 * 8]],
            &[],
        );
    }

    #[test]
    fn group_id_and_num_groups_are_virtualised() {
        differential(
            "kernel void k(global long* o) {
                size_t g = get_group_id(0);
                size_t n = get_num_groups(0);
                size_t i = get_global_id(0);
                o[i] = g * 1000 + n;
            }",
            "k",
            NdRange::new_1d(32, 4),
            2,
            &[vec![0u8; 32 * 8]],
            &[],
        );
    }

    #[test]
    fn global_size_is_virtualised() {
        differential(
            "kernel void k(global long* o) {
                o[get_global_id(0)] = get_global_size(0);
            }",
            "k",
            NdRange::new_1d(32, 8),
            2,
            &[vec![0u8; 32 * 8]],
            &[],
        );
    }

    #[test]
    fn two_dimensional_ranges_decompose() {
        differential(
            "kernel void k(global long* o) {
                size_t x = get_global_id(0);
                size_t y = get_global_id(1);
                size_t w = get_global_size(0);
                o[y * w + x] = get_group_id(0) * 100 + get_group_id(1);
            }",
            "k",
            NdRange::new_2d([16, 8], [4, 4]),
            3,
            &[vec![0u8; 16 * 8 * 8]],
            &[],
        );
    }

    #[test]
    fn local_memory_and_barrier_kernel_is_equivalent() {
        // Reversal within each work group exercises hoisted local arrays,
        // barriers inside the computation function, and local ids.
        let src = "kernel void rev(global const float* in, global float* out) {
            local float tile[8];
            size_t lid = get_local_id(0);
            size_t ls = get_local_size(0);
            size_t base = get_group_id(0) * ls;
            tile[lid] = in[base + lid];
            barrier(0);
            out[base + lid] = tile[ls - 1 - lid];
        }";
        let input: Vec<u8> = (0..64u32).flat_map(|i| (i as f32).to_le_bytes()).collect();
        differential(
            src,
            "rev",
            NdRange::new_1d(64, 8),
            2,
            &[input, vec![0u8; 64 * 4]],
            &[],
        );
    }

    #[test]
    fn helper_functions_are_extended() {
        differential(
            "long my_gid() { return get_global_id(0); }
            long twice_gid() { return my_gid() * 2; }
            kernel void k(global long* o) { o[my_gid()] = twice_gid(); }",
            "k",
            NdRange::new_1d(32, 4),
            2,
            &[vec![0u8; 32 * 8]],
            &[],
        );
    }

    #[test]
    fn scalars_and_control_flow_survive() {
        differential(
            "kernel void clampscale(global float* b, float s, int n) {
                size_t i = get_global_id(0);
                if ((int)i < n) {
                    b[i] = b[i] * s;
                } else {
                    b[i] = 0.0f;
                }
            }",
            "clampscale",
            NdRange::new_1d(32, 8),
            2,
            &[(0..32u32).flat_map(|i| (i as f32).to_le_bytes()).collect()],
            &[Value::F32(1.5), Value::I32(20)],
        );
    }

    #[test]
    fn atomics_in_user_code_are_preserved() {
        differential(
            "kernel void count(global int* c) {
                atomic_add(c, 1);
            }",
            "count",
            NdRange::new_1d(64, 8),
            3,
            &[vec![0u8; 4]],
            &[],
        );
    }

    #[test]
    fn single_worker_covers_everything() {
        differential(
            "kernel void iota(global long* o) { o[get_global_id(0)] = get_global_id(0); }",
            "iota",
            NdRange::new_1d(64, 8),
            1,
            &[vec![0u8; 64 * 8]],
            &[],
        );
    }

    #[test]
    fn more_workers_than_groups_is_safe() {
        differential(
            "kernel void iota(global long* o) { o[get_global_id(0)] = get_global_id(0); }",
            "iota",
            NdRange::new_1d(16, 8),
            7,
            &[vec![0u8; 16 * 8]],
            &[],
        );
    }

    #[test]
    fn transform_metadata_is_reported() {
        let m = minicl::compile("kernel void small(global int* o) { o[get_global_id(0)] = 1; }")
            .unwrap();
        let tp = transform_module(&m, Mode::Optimized).unwrap();
        let info = tp.info("small").unwrap();
        assert_eq!(info.kernel, "small");
        assert_eq!(info.compute_fn, "small__vg");
        assert!(info.chunk >= 1, "tiny kernels get large chunks");
        assert_eq!(tp.info("nope"), None);
        // Scheduling kernel keeps the original name; compute fn is a helper.
        assert_eq!(tp.module.kernel_names(), vec!["small"]);
        assert!(tp.module.function("small__vg").is_some());
    }

    #[test]
    fn naive_mode_forces_chunk_one() {
        let m = minicl::compile("kernel void small(global int* o) { o[get_global_id(0)] = 1; }")
            .unwrap();
        let tp = transform_module(&m, Mode::Naive).unwrap();
        assert_eq!(tp.info("small").unwrap().chunk, 1);
    }

    #[test]
    fn inlined_transform_is_equivalent_and_flat() {
        // §6.5: after vendor inlining the scheduling kernel and the
        // computation function collapse into one flat kernel with
        // near-original register pressure.
        let src = "kernel void k(global long* o) {
            size_t i = get_global_id(0);
            o[i] = get_group_id(0) * 100 + get_local_id(0);
        }";
        let original = minicl::compile(src).unwrap();
        let inlined = transform_and_inline(&original, Mode::Optimized).unwrap();
        let k = inlined.module.function("k").unwrap();
        assert!(
            !k.blocks
                .iter()
                .flat_map(|b| &b.insts)
                .any(|i| matches!(i.op, kernel_ir::ir::Op::Call { .. })),
            "no calls remain after inlining"
        );
        assert!(
            inlined.module.function("k__vg").is_none(),
            "compute fn dropped"
        );

        // Differential check against the uninlined transformed module.
        let nd = NdRange::new_1d(32, 8);
        let run = |module: &Module| -> Vec<u8> {
            let mut mem = DeviceMemory::new();
            let buf = mem.alloc(32 * 8);
            let v = VirtualNdRange::new(nd);
            let rt = mem.alloc(8 * v.descriptor().len());
            mem.write_i64(rt, &v.descriptor());
            Interpreter::new(module)
                .run_kernel(
                    &mut mem,
                    "k",
                    v.hardware_range(2),
                    &[ArgValue::Buffer(buf), ArgValue::Buffer(rt)],
                )
                .expect("runs");
            mem.bytes(buf).to_vec()
        };
        let plain = transform_module(&original, Mode::Optimized).unwrap();
        assert_eq!(run(&plain.module), run(&inlined.module));
    }

    #[test]
    fn register_overhead_is_bounded() {
        // Paper §6.5: the transformation adds ~3 registers per work item
        // before inlining. Check the compute function's pressure grows only
        // modestly.
        let src = "kernel void k(global float* a, global float* b) {
            size_t i = get_global_id(0);
            float x = a[i];
            float y = b[i];
            a[i] = x * y + x - y;
        }";
        let m = minicl::compile(src).unwrap();
        let before = kernel_ir::analysis::register_pressure(m.function("k").unwrap());
        let tp = transform_module(&m, Mode::Optimized).unwrap();
        let after = kernel_ir::analysis::register_pressure(tp.module.function("k__vg").unwrap());
        assert!(
            after <= before + 6,
            "register pressure grew too much: {before} -> {after}"
        );
    }
}
