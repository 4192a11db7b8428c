//! IR verifier: structural, type and dominance checks.
//!
//! The verifier is the contract between the front end ([`minicl`]), the
//! accelOS JIT transformation, and the interpreter: every module that flows
//! between those stages must verify. Checks performed:
//!
//! * every block is terminated and branch targets exist;
//! * every value use is dominated by its definition (classic iterative
//!   dominator analysis over the CFG);
//! * operand and result types match each operation's typing rule;
//! * calls resolve, argument/return types line up, kernels are not callees;
//! * kernels return `void`; `local` allocas appear only in kernels (the
//!   OpenCL rule that the accelOS local-data-hoisting step relies on);
//! * atomics operate on integer pointees in `global`/`local` space.
//!
//! [`minicl`]: https://docs.rs/minicl

use crate::error::IrError;
use crate::ir::{
    BinOp, BlockId, Function, FunctionKind, Inst, Module, Op, Terminator, UnOp, ValueId,
};
use crate::types::{AddressSpace, Type};
use std::collections::HashMap;

/// Verify a whole module.
///
/// # Errors
///
/// Returns the first [`IrError`] found; the module is unusable until fixed.
///
/// # Examples
///
/// ```
/// use kernel_ir::builder::FunctionBuilder;
/// use kernel_ir::ir::{FunctionKind, Module};
/// use kernel_ir::types::Type;
/// use kernel_ir::verify::verify_module;
///
/// let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
/// b.ret(None);
/// let mut m = Module::new();
/// m.insert_function(b.finish());
/// assert!(verify_module(&m).is_ok());
/// ```
pub fn verify_module(module: &Module) -> Result<(), IrError> {
    let mut names = HashMap::new();
    for f in &module.functions {
        if names.insert(f.name.as_str(), ()).is_some() {
            return Err(IrError::new(format!(
                "duplicate function name `{}`",
                f.name
            )));
        }
    }
    for f in &module.functions {
        verify_function(f, module)?;
    }
    Ok(())
}

/// Verify one function against its containing module.
///
/// # Errors
///
/// Returns the first [`IrError`] found.
pub fn verify_function(func: &Function, module: &Module) -> Result<(), IrError> {
    let err = |msg: String| IrError::in_function(&func.name, msg);

    if func.blocks.is_empty() {
        return Err(err("function has no blocks".into()));
    }
    if func.kind == FunctionKind::Kernel && func.ret != Type::Void {
        return Err(err("kernel must return void".into()));
    }
    for (i, p) in func.params.iter().enumerate() {
        if func.value_types.get(i) != Some(&p.ty) {
            return Err(err(format!(
                "parameter {i} (`{}`) type table mismatch",
                p.name
            )));
        }
    }

    // Structure: terminators present, targets in range.
    for (bid, block) in func.iter_blocks() {
        let term = block
            .term
            .as_ref()
            .ok_or_else(|| err(format!("block {bid} lacks a terminator")))?;
        for s in term.successors() {
            if s.index() >= func.blocks.len() {
                return Err(err(format!("block {bid} branches to unknown block {s}")));
            }
        }
        if let Terminator::Ret(v) = term {
            match (v, &func.ret) {
                (None, Type::Void) => {}
                (None, other) => {
                    return Err(err(format!(
                        "return without value in function returning {other}"
                    )))
                }
                (Some(_), Type::Void) => {
                    return Err(err("return with value in void function".into()))
                }
                (Some(v), want) => {
                    check_value(func, *v)?;
                    let got = func.value_type(*v);
                    if got != want {
                        return Err(err(format!("return type mismatch: got {got}, want {want}")));
                    }
                }
            }
        }
        if let Terminator::CondBr { cond, .. } = term {
            check_value(func, *cond)?;
            if func.value_type(*cond) != &Type::Bool {
                return Err(err(format!("condbr condition {cond} is not bool")));
            }
        }
    }

    // Definitions: each value defined at most once; results in range.
    let mut def_site: Vec<Option<(BlockId, usize)>> = vec![None; func.value_types.len()];
    for (bid, block) in func.iter_blocks() {
        for (pos, inst) in block.insts.iter().enumerate() {
            if let Some(r) = inst.result {
                if r.index() >= func.value_types.len() {
                    return Err(err(format!("result {r} out of range")));
                }
                if r.index() < func.params.len() {
                    return Err(err(format!("instruction redefines parameter {r}")));
                }
                if def_site[r.index()].replace((bid, pos)).is_some() {
                    return Err(err(format!("value {r} defined more than once")));
                }
            }
        }
    }

    let dom = dominators(func);

    // Per-instruction checks: types + dominance of operands.
    for (bid, block) in func.iter_blocks() {
        for (pos, inst) in block.insts.iter().enumerate() {
            check_inst(func, module, inst, bid).map_err(|m| err(format!("{bid}[{pos}]: {m}")))?;
            for v in operands(&inst.op) {
                check_dominates(func, &dom, &def_site, v, bid, pos)
                    .map_err(|m| err(format!("{bid}[{pos}]: {m}")))?;
            }
        }
        if let Some(term) = &block.term {
            let uses: Vec<ValueId> = match term {
                Terminator::CondBr { cond, .. } => vec![*cond],
                Terminator::Ret(Some(v)) => vec![*v],
                _ => vec![],
            };
            let end = block.insts.len();
            for v in uses {
                check_dominates(func, &dom, &def_site, v, bid, end)
                    .map_err(|m| err(format!("{bid}[term]: {m}")))?;
            }
        }
    }
    Ok(())
}

fn check_value(func: &Function, v: ValueId) -> Result<(), IrError> {
    if v.index() >= func.value_types.len() {
        return Err(IrError::in_function(
            &func.name,
            format!("value {v} out of range"),
        ));
    }
    Ok(())
}

/// All value operands of an op.
pub(crate) fn operands(op: &Op) -> Vec<ValueId> {
    match op {
        Op::Const(_) | Op::Alloca { .. } | Op::WorkItem { .. } | Op::Barrier => vec![],
        Op::Bin(_, a, b) | Op::Cmp(_, a, b) => vec![*a, *b],
        Op::Un(_, a) | Op::Load(a) | Op::Cast(_, a) => vec![*a],
        Op::Select(c, a, b) => vec![*c, *a, *b],
        Op::Store { ptr, value } => vec![*ptr, *value],
        Op::Gep { ptr, index } => vec![*ptr, *index],
        Op::Call { args, .. } => args.clone(),
        Op::AtomicRmw { ptr, value, .. } => vec![*ptr, *value],
        Op::AtomicCmpXchg {
            ptr,
            expected,
            desired,
        } => vec![*ptr, *expected, *desired],
    }
}

fn check_inst(func: &Function, module: &Module, inst: &Inst, _bid: BlockId) -> Result<(), String> {
    for v in operands(&inst.op) {
        if v.index() >= func.value_types.len() {
            return Err(format!("operand {v} out of range"));
        }
    }
    let rty = |r: Option<ValueId>| r.map(|v| func.value_type(v).clone());
    match &inst.op {
        Op::Const(c) => {
            if rty(inst.result) != Some(c.ty()) {
                return Err(format!("const result type mismatch for {c}"));
            }
        }
        Op::Bin(op, a, b) => {
            let ta = func.value_type(*a);
            let tb = func.value_type(*b);
            if ta != tb {
                return Err(format!(
                    "binop `{}` operand types differ: {ta} vs {tb}",
                    op.mnemonic()
                ));
            }
            if !ta.is_numeric() {
                return Err(format!(
                    "binop `{}` on non-numeric type {ta}",
                    op.mnemonic()
                ));
            }
            if op.int_only() && !ta.is_int() {
                return Err(format!("integer-only op `{}` on {ta}", op.mnemonic()));
            }
            if matches!(op, BinOp::Rem) && ta.is_float() {
                return Err("rem on float operands".into());
            }
            if rty(inst.result).as_ref() != Some(ta) {
                return Err("binop result type mismatch".into());
            }
        }
        Op::Un(op, a) => {
            let ta = func.value_type(*a);
            match op {
                UnOp::Not => {
                    if ta != &Type::Bool {
                        return Err("not on non-bool".into());
                    }
                }
                UnOp::Neg | UnOp::Abs => {
                    if !ta.is_numeric() {
                        return Err(format!("{} on non-numeric {ta}", op.mnemonic()));
                    }
                }
                _ => {
                    if !ta.is_float() {
                        return Err(format!("float-only op `{}` on {ta}", op.mnemonic()));
                    }
                }
            }
            if rty(inst.result).as_ref() != Some(ta) {
                return Err("unop result type mismatch".into());
            }
        }
        Op::Cmp(_, a, b) => {
            let ta = func.value_type(*a);
            let tb = func.value_type(*b);
            if ta != tb {
                return Err(format!("cmp operand types differ: {ta} vs {tb}"));
            }
            if !(ta.is_numeric() || ta.is_ptr() || ta == &Type::Bool) {
                return Err(format!("cmp on {ta}"));
            }
            if rty(inst.result) != Some(Type::Bool) {
                return Err("cmp result must be bool".into());
            }
        }
        Op::Select(c, a, b) => {
            if func.value_type(*c) != &Type::Bool {
                return Err("select condition must be bool".into());
            }
            let ta = func.value_type(*a);
            if ta != func.value_type(*b) {
                return Err("select arm types differ".into());
            }
            if rty(inst.result).as_ref() != Some(ta) {
                return Err("select result type mismatch".into());
            }
        }
        Op::Cast(ty, v) => {
            let tv = func.value_type(*v);
            let ok = (tv.is_numeric() || tv == &Type::Bool) && (ty.is_numeric())
                || (tv.is_ptr() && ty.is_ptr());
            if !ok {
                return Err(format!("invalid cast {tv} -> {ty}"));
            }
            if rty(inst.result).as_ref() != Some(ty) {
                return Err("cast result type mismatch".into());
            }
        }
        Op::Alloca { elem, count, space } => {
            if *count == 0 {
                return Err("alloca of zero elements".into());
            }
            match space {
                AddressSpace::Private => {}
                AddressSpace::Local => {
                    if func.kind != FunctionKind::Kernel {
                        return Err(
                            "local alloca outside a kernel (OpenCL: local data must be declared \
                             in kernel scope)"
                                .into(),
                        );
                    }
                }
                other => return Err(format!("alloca in address space {other}")),
            }
            if rty(inst.result) != Some(Type::ptr(*space, elem.clone())) {
                return Err("alloca result type mismatch".into());
            }
        }
        Op::Load(p) => {
            let tp = func.value_type(*p);
            let elem = tp
                .pointee()
                .ok_or_else(|| format!("load through non-pointer {tp}"))?;
            if rty(inst.result).as_ref() != Some(elem) {
                return Err("load result type mismatch".into());
            }
        }
        Op::Store { ptr, value } => {
            let tp = func.value_type(*ptr);
            let elem = tp
                .pointee()
                .ok_or_else(|| format!("store through non-pointer {tp}"))?;
            if tp.space() == Some(AddressSpace::Constant) {
                return Err("store to constant memory".into());
            }
            if func.value_type(*value) != elem {
                return Err(format!(
                    "store type mismatch: {} into {tp}",
                    func.value_type(*value)
                ));
            }
        }
        Op::Gep { ptr, index } => {
            let tp = func.value_type(*ptr);
            if !tp.is_ptr() {
                return Err(format!("gep base is not a pointer: {tp}"));
            }
            if !func.value_type(*index).is_int() {
                return Err("gep index must be an integer".into());
            }
            if rty(inst.result).as_ref() != Some(tp) {
                return Err("gep result type mismatch".into());
            }
        }
        Op::Call { callee, args } => {
            let target = module
                .function(callee)
                .ok_or_else(|| format!("call of unknown function `{callee}`"))?;
            if target.kind == FunctionKind::Kernel {
                return Err(format!(
                    "call of kernel `{callee}` (kernels are entry points)"
                ));
            }
            if target.params.len() != args.len() {
                return Err(format!(
                    "call of `{callee}` with {} args, expected {}",
                    args.len(),
                    target.params.len()
                ));
            }
            for (i, (a, p)) in args.iter().zip(&target.params).enumerate() {
                if func.value_type(*a) != &p.ty {
                    return Err(format!(
                        "call of `{callee}`: argument {i} is {}, expected {}",
                        func.value_type(*a),
                        p.ty
                    ));
                }
            }
            match (&target.ret, inst.result) {
                (Type::Void, None) => {}
                (Type::Void, Some(_)) => return Err(format!("void call of `{callee}` has result")),
                (t, Some(r)) => {
                    if func.value_type(r) != t {
                        return Err(format!("call result type mismatch for `{callee}`"));
                    }
                }
                (_, None) => {} // discarding a result is allowed
            }
        }
        Op::WorkItem { dim, .. } => {
            if *dim > 2 {
                return Err(format!("work-item builtin dimension {dim} out of range"));
            }
            if rty(inst.result) != Some(Type::I64) {
                return Err("work-item builtin must produce i64".into());
            }
        }
        Op::AtomicRmw { ptr, value, .. }
        | Op::AtomicCmpXchg {
            ptr,
            desired: value,
            ..
        } => {
            let tp = func.value_type(*ptr);
            let elem = tp
                .pointee()
                .ok_or_else(|| format!("atomic through non-pointer {tp}"))?;
            if !elem.is_int() {
                return Err(format!("atomic on non-integer pointee {elem}"));
            }
            match tp.space() {
                Some(AddressSpace::Global) | Some(AddressSpace::Local) => {}
                other => return Err(format!("atomic in address space {other:?}")),
            }
            if func.value_type(*value) != elem {
                return Err("atomic operand type mismatch".into());
            }
            if rty(inst.result).as_ref() != Some(elem) {
                return Err("atomic result type mismatch".into());
            }
        }
        Op::Barrier => {
            if inst.result.is_some() {
                return Err("barrier produces no value".into());
            }
        }
    }
    Ok(())
}

/// Compute the dominator sets of each block (iterative bitset algorithm).
///
/// Returned as, for each block, the sorted list of blocks that dominate it
/// (always including itself). Unreachable blocks are dominated by everything
/// (the conventional initialisation), which keeps uses in dead code legal.
pub fn dominators(func: &Function) -> Vec<Vec<BlockId>> {
    let n = func.blocks.len();
    if n == 0 {
        return Vec::new();
    }
    let words = n.div_ceil(64);
    let bit = |i: usize| (i / 64, 1u64 << (i % 64));
    let mut full = vec![u64::MAX; words];
    if !n.is_multiple_of(64) {
        full[words - 1] = (1u64 << (n % 64)) - 1;
    }
    let mut dom = vec![full.clone(); n];
    dom[0] = vec![0; words];
    dom[0][0] = 1; // entry dominated only by itself
    let preds = predecessors(func);
    let mut new = vec![0u64; words];
    let mut changed = true;
    while changed {
        changed = false;
        for b in 1..n {
            new.copy_from_slice(&full);
            for p in &preds[b] {
                for (x, y) in new.iter_mut().zip(&dom[p.index()]) {
                    *x &= y;
                }
            }
            let (w, m) = bit(b);
            new[w] |= m;
            if new != dom[b] {
                dom[b].copy_from_slice(&new);
                changed = true;
            }
        }
    }
    dom.iter()
        .map(|bits| {
            (0..n)
                .filter(|&i| {
                    let (w, m) = bit(i);
                    bits[w] & m != 0
                })
                .map(|i| BlockId(i as u32))
                .collect()
        })
        .collect()
}

/// Predecessor lists of every block.
pub fn predecessors(func: &Function) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); func.blocks.len()];
    for (bid, block) in func.iter_blocks() {
        if let Some(t) = &block.term {
            for s in t.successors() {
                preds[s.index()].push(bid);
            }
        }
    }
    preds
}

fn check_dominates(
    func: &Function,
    dom: &[Vec<BlockId>],
    def_site: &[Option<(BlockId, usize)>],
    v: ValueId,
    use_bb: BlockId,
    use_pos: usize,
) -> Result<(), String> {
    if v.index() >= func.value_types.len() {
        return Err(format!("operand {v} out of range"));
    }
    if v.index() < func.params.len() {
        return Ok(()); // parameters dominate everything
    }
    let (def_bb, def_pos) =
        def_site[v.index()].ok_or_else(|| format!("use of never-defined value {v}"))?;
    if def_bb == use_bb {
        if def_pos >= use_pos {
            return Err(format!("use of {v} before its definition in {use_bb}"));
        }
        return Ok(());
    }
    if dom[use_bb.index()].contains(&def_bb) {
        Ok(())
    } else {
        Err(format!(
            "definition of {v} in {def_bb} does not dominate use in {use_bb}"
        ))
    }
}

/// Successor lists of every block (dual of [`predecessors`]).
pub fn successors(func: &Function) -> Vec<Vec<BlockId>> {
    func.blocks
        .iter()
        .map(|b| b.term.as_ref().map(|t| t.successors()).unwrap_or_default())
        .collect()
}

#[allow(unused_imports)]
pub(crate) use self::operands as op_operands;

/// Convenience: verify then pretty-print an error on failure (test helper).
#[doc(hidden)]
pub fn assert_verifies(module: &Module) {
    if let Err(e) = verify_module(module) {
        panic!(
            "module failed verification: {e}\n{}",
            crate::display::print_module(module)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ir::{BinOp, CmpOp, ConstVal, FunctionKind, WiBuiltin};
    use crate::types::{AddressSpace, Type};

    fn module_of(funcs: Vec<Function>) -> Module {
        let mut m = Module::new();
        for f in funcs {
            m.insert_function(f);
        }
        m
    }

    #[test]
    fn accepts_wellformed_kernel() {
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::I32));
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let gid32 = b.cast(Type::I32, gid);
        let p = b.gep(out, gid);
        b.store(p, gid32);
        b.ret(None);
        assert_verifies(&module_of(vec![b.finish()]));
    }

    #[test]
    fn rejects_kernel_returning_value() {
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::I32);
        let c = b.const_i32(0);
        b.ret(Some(c));
        let m = module_of(vec![b.finish()]);
        let e = verify_module(&m).unwrap_err();
        assert!(e.to_string().contains("kernel must return void"), "{e}");
    }

    #[test]
    fn rejects_type_mismatch_in_binop() {
        let mut b = FunctionBuilder::new("f", FunctionKind::Helper, Type::Void);
        let a = b.const_i32(1);
        let c = b.const_f32(1.0);
        // builder trusts us; verifier must catch it
        let _ = b.bin(BinOp::Add, a, c);
        b.ret(None);
        let m = module_of(vec![b.finish()]);
        let e = verify_module(&m).unwrap_err();
        assert!(e.to_string().contains("operand types differ"), "{e}");
    }

    #[test]
    fn rejects_local_alloca_in_helper() {
        let mut b = FunctionBuilder::new("f", FunctionKind::Helper, Type::Void);
        let _ = b.alloca(Type::F32, 8, AddressSpace::Local);
        b.ret(None);
        let m = module_of(vec![b.finish()]);
        let e = verify_module(&m).unwrap_err();
        assert!(
            e.to_string().contains("local alloca outside a kernel"),
            "{e}"
        );
    }

    #[test]
    fn accepts_local_alloca_in_kernel() {
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let _ = b.alloca(Type::F32, 8, AddressSpace::Local);
        b.ret(None);
        assert_verifies(&module_of(vec![b.finish()]));
    }

    #[test]
    fn rejects_call_of_kernel() {
        let mut callee = FunctionBuilder::new("k2", FunctionKind::Kernel, Type::Void);
        callee.ret(None);
        let mut b = FunctionBuilder::new("k1", FunctionKind::Kernel, Type::Void);
        b.call("k2", vec![], Type::Void);
        b.ret(None);
        let m = module_of(vec![callee.finish(), b.finish()]);
        let e = verify_module(&m).unwrap_err();
        assert!(e.to_string().contains("call of kernel"), "{e}");
    }

    #[test]
    fn rejects_unknown_callee_and_bad_arity() {
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        b.call("nope", vec![], Type::Void);
        b.ret(None);
        let m = module_of(vec![b.finish()]);
        assert!(verify_module(&m)
            .unwrap_err()
            .to_string()
            .contains("unknown function"));

        let mut h = FunctionBuilder::new("h", FunctionKind::Helper, Type::Void);
        let _ = h.add_param("x", Type::I32);
        h.ret(None);
        let mut b2 = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        b2.call("h", vec![], Type::Void);
        b2.ret(None);
        let m2 = module_of(vec![h.finish(), b2.finish()]);
        assert!(verify_module(&m2)
            .unwrap_err()
            .to_string()
            .contains("0 args, expected 1"));
    }

    #[test]
    fn rejects_use_not_dominating() {
        // bb0: condbr -> bb1 / bb2 ; value defined in bb1, used in bb2.
        let mut b = FunctionBuilder::new("f", FunctionKind::Helper, Type::Void);
        let c = b.const_bool(true);
        let bb1 = b.new_block();
        let bb2 = b.new_block();
        b.cond_br(c, bb1, bb2);
        b.switch_to(bb1);
        let v = b.const_i32(7);
        b.ret(None);
        b.switch_to(bb2);
        let w = b.bin(BinOp::Add, v, v); // illegal use
        let _ = w;
        b.ret(None);
        let m = module_of(vec![b.finish()]);
        let e = verify_module(&m).unwrap_err();
        assert!(e.to_string().contains("does not dominate"), "{e}");
    }

    #[test]
    fn rejects_duplicate_function_names() {
        let mut a = FunctionBuilder::new("f", FunctionKind::Helper, Type::Void);
        a.ret(None);
        let mut b = FunctionBuilder::new("f", FunctionKind::Helper, Type::Void);
        b.ret(None);
        let m = Module {
            functions: vec![a.finish(), b.finish()],
            ..Module::default()
        };
        assert!(verify_module(&m)
            .unwrap_err()
            .to_string()
            .contains("duplicate"));
    }

    #[test]
    fn rejects_atomic_on_float() {
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let p = b.add_param("p", Type::ptr(AddressSpace::Global, Type::F32));
        let c = b.const_f32(1.0);
        // hand-roll the bad atomic: builder would compute the f32 result type
        let _ = b.atomic_rmw(crate::ir::AtomicOp::Add, p, c);
        b.ret(None);
        let m = module_of(vec![b.finish()]);
        let e = verify_module(&m).unwrap_err();
        assert!(e.to_string().contains("non-integer pointee"), "{e}");
    }

    #[test]
    fn rejects_condbr_on_non_bool() {
        let mut b = FunctionBuilder::new("f", FunctionKind::Helper, Type::Void);
        let c = b.const_i32(1);
        let t = b.new_block();
        let e = b.new_block();
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        let m = module_of(vec![b.finish()]);
        assert!(verify_module(&m)
            .unwrap_err()
            .to_string()
            .contains("not bool"));
    }

    #[test]
    fn dominators_of_diamond() {
        let mut b = FunctionBuilder::new("f", FunctionKind::Helper, Type::Void);
        let c = b.const_bool(true);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        let f = b.finish();
        let dom = dominators(&f);
        assert_eq!(dom[0], vec![BlockId(0)]);
        assert!(dom[3].contains(&BlockId(0)));
        assert!(!dom[3].contains(&BlockId(1)));
        assert!(!dom[3].contains(&BlockId(2)));
        let preds = predecessors(&f);
        assert_eq!(preds[3].len(), 2);
        let succs = successors(&f);
        assert_eq!(succs[0].len(), 2);
        assert!(succs[3].is_empty());
    }

    #[test]
    fn rejects_cmp_result_non_bool() {
        // Build manually to bypass builder typing.
        let mut b = FunctionBuilder::new("f", FunctionKind::Helper, Type::Void);
        let x = b.const_i32(1);
        let y = b.const_i32(2);
        let _good = b.cmp(CmpOp::Lt, x, y);
        b.ret(None);
        let mut f = b.finish();
        // Corrupt: flip the result type of the cmp.
        let cmp_result = f.blocks[0].insts[2].result.unwrap();
        f.value_types[cmp_result.index()] = Type::I32;
        let m = module_of(vec![f]);
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_store_to_constant_space() {
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let p = b.add_param("p", Type::ptr(AddressSpace::Constant, Type::I32));
        let v = b.const_i32(1);
        b.store(p, v);
        b.ret(None);
        let m = module_of(vec![b.finish()]);
        assert!(verify_module(&m)
            .unwrap_err()
            .to_string()
            .contains("constant"));
    }

    #[test]
    fn const_val_check() {
        let mut b = FunctionBuilder::new("f", FunctionKind::Helper, Type::Void);
        let _ = b.constant(ConstVal::I64(1));
        b.ret(None);
        assert_verifies(&module_of(vec![b.finish()]));
    }
}
