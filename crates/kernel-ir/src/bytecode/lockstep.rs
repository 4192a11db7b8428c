//! Lockstep execution of one work group: each instruction is dispatched
//! once per group and applied over the active items (see "Lockstep
//! execution" in the [parent module's docs](super)).

use super::{
    bc_bytes, bc_bytes_mut, cmp_float, cmp_int, def_of, gep, BcFuncBody, BcInsn, BcModule,
    CallSite, Conv, Kind, Slot, VmInsn, VmProgram, ARENA_LOCAL, ARENA_PRIVATE, NO_REG,
};
use crate::error::InterpError;
use crate::interp::{
    apply_atomic, bin_f32, bin_f64, bin_i32, bin_i64, bounds, eval_un, DynStats, GlobalMem,
    NdRange, TicketCursor, MAX_CALL_DEPTH,
};
use crate::ir::{BinOp, UnOp, WiBuiltin};
use crate::races::{divergent_regions, immediate_postdominators};

/// The pc of a function's virtual exit, where `ret` sends its items.
const EXIT: u32 = u32::MAX;
/// Frame-offset flag of a group-uniform register, held once per frame.
const UNIFORM: u32 = 1 << 31;

/// A quickened program laid out for one group shape.
#[derive(Debug)]
pub(super) struct LsProgram {
    /// Items per group.
    n: usize,
    funcs: Vec<LsFunc>,
    /// The pc where the two sides of the branch at each pc reconverge: the
    /// first pc of its immediate postdominator, or [`EXIT`].
    rpc: Vec<u32>,
}

/// One function's register layout: uniform registers first, one slot
/// each, then every varying register's `n` item slots, those with a
/// preamble value first.
#[derive(Debug)]
struct LsFunc {
    /// Per register: its frame offset, `| UNIFORM` when held once.
    regs: Box<[u32]>,
    /// The frame's size in slots.
    slots: usize,
    /// The frame's preamble: each register's preamble value in all its
    /// slots, up to the last register that has one. A fresh frame copies
    /// only this prefix. The slots past it belong to varying registers
    /// without a preamble value, which an item writes before it reads
    /// them (the verifier's dominance rule), so they may keep whatever an
    /// earlier frame or group left there.
    template: Box<[Slot]>,
}

/// Successor blocks and immediate postdominators of one lowered function.
fn cfg(func: &BcFuncBody) -> (Vec<Vec<usize>>, Vec<usize>) {
    let succs: Vec<Vec<usize>> = func
        .blocks
        .iter()
        .map(|b| match b.last() {
            Some(BcInsn::Jump { target }) => vec![*target as usize],
            Some(BcInsn::Branch { then_t, else_t, .. }) => {
                vec![*then_t as usize, *else_t as usize]
            }
            _ => Vec::new(),
        })
        .collect();
    let exits: Vec<bool> = succs.iter().map(Vec::is_empty).collect();
    let ipdom = immediate_postdominators(&succs, &exits);
    (succs, ipdom)
}

/// Which registers of each function are group-uniform: written only
/// outside divergent regions, by instructions whose result is the same for
/// every item given uniform operands. A load qualifies only through a
/// pointer into shared memory: all active items read it at one instant,
/// and the within-group proof guarantees no item writes those bytes in the
/// same barrier interval. Optimistic fixpoint (loop counters stay
/// uniform); a helper's parameter is uniform when every call passes a
/// uniform value.
fn uniform_registers(bc: &BcModule, cfgs: &[(Vec<Vec<usize>>, Vec<usize>)]) -> Vec<Vec<bool>> {
    let mut uni: Vec<Vec<bool>> = bc.funcs.iter().map(|f| vec![true; f.frame_regs]).collect();
    loop {
        let mut demote: Vec<(usize, u32)> = Vec::new();
        for (fi, func) in bc.funcs.iter().enumerate() {
            let u = |r: u32| uni[fi].get(r as usize).copied().unwrap_or(false);
            // Blocks run under a split active set.
            let div =
                divergent_regions(&cfgs[fi].0, &cfgs[fi].1, |d| match func.blocks[d].last() {
                    Some(BcInsn::Branch {
                        cond,
                        then_t,
                        else_t,
                    }) => then_t != else_t && !u(*cond),
                    _ => false,
                });
            for (b, block) in func.blocks.iter().enumerate() {
                for insn in block {
                    let varying = match insn {
                        BcInsn::Bin { a, b, .. } | BcInsn::Cmp { a, b, .. } => !u(*a) || !u(*b),
                        BcInsn::Un { a, .. } | BcInsn::Cast { a, .. } => !u(*a),
                        BcInsn::Select { cond, a, b, .. } => !u(*cond) || !u(*a) || !u(*b),
                        BcInsn::Gep { ptr, index, .. } => !u(*ptr) || !u(*index),
                        BcInsn::Load { ptr, .. } => {
                            !u(*ptr) || !func.shared.get(*ptr as usize).copied().unwrap_or(false)
                        }
                        BcInsn::LoadSlot { slot, .. } => !u(*slot),
                        BcInsn::StoreSlot { value, .. } => !u(*value),
                        BcInsn::WorkItem { builtin, .. } => {
                            matches!(builtin, WiBuiltin::LocalId | WiBuiltin::GlobalId)
                        }
                        BcInsn::AllocaPriv { .. }
                        | BcInsn::Call { .. }
                        | BcInsn::AtomicRmw { .. }
                        | BcInsn::AtomicCmpXchg { .. } => true,
                        _ => false,
                    };
                    let dst = match insn {
                        BcInsn::StoreSlot { slot, .. } => *slot,
                        other => def_of(other),
                    };
                    if dst != NO_REG && (varying || div[b].is_some()) && u(dst) {
                        demote.push((fi, dst));
                    }
                    if let BcInsn::Call { func, args, .. } = insn {
                        for (k, a) in args.iter().enumerate() {
                            if !u(*a) {
                                demote.push((*func as usize, k as u32));
                            }
                        }
                    }
                }
            }
        }
        let mut changed = false;
        for (fi, r) in demote {
            if let Some(x) = uni.get_mut(fi).and_then(|f| f.get_mut(r as usize)) {
                changed |= std::mem::replace(x, false);
            }
        }
        if !changed {
            return uni;
        }
    }
}

/// Lay `prog` out for groups of `n` items: uniform registers, frame
/// templates and every branch's reconvergence pc. `None` when a frame
/// would not fit the offset width.
pub(super) fn compile(bc: &BcModule, prog: &VmProgram, n: usize) -> Option<LsProgram> {
    let cfgs: Vec<_> = bc.funcs.iter().map(cfg).collect();
    let uni = uniform_registers(bc, &cfgs);
    let mut rpc = vec![EXIT; prog.insns.len()];
    let mut funcs = Vec::with_capacity(bc.funcs.len());
    for (fi, (func, vf)) in bc.funcs.iter().zip(&prog.funcs).enumerate() {
        let end = prog
            .funcs
            .get(fi + 1)
            .map_or(prog.insns.len() as u32, |f| f.entry_pc);
        let (_, ipdom) = &cfgs[fi];
        for (b, block) in func.blocks.iter().enumerate() {
            if let Some(BcInsn::Branch { .. }) = block.last() {
                let block_end = vf.block_pc.get(b + 1).copied().unwrap_or(end);
                rpc[block_end as usize - 1] = vf.block_pc.get(ipdom[b]).copied().unwrap_or(EXIT);
            }
        }
        // Uniform registers, then varying ones with a preamble value,
        // then the rest.
        let class = |r: usize| match uni[fi].get(r) {
            Some(true) => 0,
            _ if func.template.get(r).is_some_and(Option::is_some) => 1,
            _ => 2,
        };
        let mut regs = vec![0u32; vf.template.len()];
        let mut next = 0usize;
        let mut prefix = 0usize;
        for c in 0..3 {
            for (r, slot) in regs.iter_mut().enumerate() {
                if class(r) == c {
                    *slot = next as u32 | if c == 0 { UNIFORM } else { 0 };
                    next = next.checked_add(if c == 0 { 1 } else { n })?;
                }
            }
            if c == 1 {
                prefix = next;
            }
        }
        if next >= UNIFORM as usize {
            return None;
        }
        let mut template = vec![Slot::default(); prefix];
        for (r, &p) in regs.iter().enumerate() {
            let width = if p & UNIFORM != 0 { 1 } else { n };
            let at = (p & !UNIFORM) as usize;
            if at < prefix {
                template[at..at + width].fill(vf.template[r]);
            }
        }
        funcs.push(LsFunc {
            regs: regs.into_boxed_slice(),
            slots: next,
            template: template.into_boxed_slice(),
        });
    }
    Some(LsProgram { n, funcs, rpc })
}

impl LsProgram {
    /// A copy of the kernel frame's preamble with each `(register, arena
    /// word)` pair's word in every slot of its register (a launch's
    /// binding of its buffer arguments).
    pub(super) fn kernel_template(&self, arenas: &[(u32, u64)]) -> Box<[Slot]> {
        let kernel = &self.funcs[0];
        let mut template = kernel.template.clone();
        for &(reg, arena) in arenas {
            let p = kernel.regs[reg as usize];
            let width = if p & UNIFORM != 0 { 1 } else { self.n };
            let at = (p & !UNIFORM) as usize;
            for slot in &mut template[at..at + width] {
                slot.arena = arena;
            }
        }
        template
    }
}

/// Lay a fresh frame of `func` out at `base` of `regs`: grow `regs` to
/// hold it and copy the preamble prefix `template` (the function's own,
/// or for the kernel frame the launch's bound copy).
fn seed_frame(regs: &mut Vec<Slot>, func: &LsFunc, template: &[Slot], base: usize) {
    let end = base + func.slots;
    if regs.len() < end {
        regs.resize(end, Slot::default());
    }
    regs[base..base + template.len()].copy_from_slice(template);
}

/// A suspended set of items: resumes at `pc`, reconverges at `rpc`; its
/// items are `parked[start..start + len]`.
#[derive(Clone, Copy)]
struct Entry {
    pc: u32,
    rpc: u32,
    start: u32,
    len: u32,
}

/// A call frame: its function, first register, the mask-stack height
/// below its own entries, the caller register the call result goes to,
/// and where its private frame starts in each of its items' arenas (the
/// same for all of them: they made the same calls).
#[derive(Clone, Copy)]
struct Frame {
    func: u32,
    base: u32,
    depth: u32,
    ret_dst: u32,
    private_base: usize,
}

/// Reusable lockstep state of one work group.
#[derive(Default)]
pub(super) struct LsScratch {
    /// Every frame's registers, the kernel's first.
    regs: Vec<Slot>,
    frames: Vec<Frame>,
    /// Suspended entries: reconvergence points, branch sides not yet
    /// run, and callers waiting for their callee.
    stack: Vec<Entry>,
    parked: Vec<u32>,
    /// The running items, in item order.
    active: Vec<u32>,
    taken: Vec<u32>,
    split: Vec<u32>,
    /// Per item: its step count is `clock - off` while it runs, and
    /// `steps` while it is suspended.
    off: Vec<u64>,
    steps: Vec<u64>,
    private: Vec<Vec<u8>>,
    finished: Vec<bool>,
}

/// Run one work group in lockstep (the counterpart of `run_bc_group`'s
/// item loop; same steps, statistics, memory and errors for a launch the
/// within-group proof admits), seeding the kernel frame from
/// `kernel_template`, the launch's bound copy of its preamble.
#[allow(clippy::too_many_arguments)]
pub(super) fn run_group(
    ls: &LsProgram,
    prog: &VmProgram,
    kernel_template: &[Slot],
    gmem: &GlobalMem<'_>,
    step_limit: u64,
    ndrange: NdRange,
    local: &mut [u8],
    mut tickets: Option<&mut TicketCursor>,
    group_id: [usize; 3],
    scratch: &mut LsScratch,
    stats: &mut DynStats,
) -> Result<u64, InterpError> {
    let n = ls.n;
    let LsScratch {
        regs,
        frames,
        stack,
        parked,
        active,
        taken,
        split,
        off,
        steps,
        private,
        finished,
    } = scratch;
    seed_frame(regs, &ls.funcs[0], kernel_template, 0);
    frames.clear();
    frames.push(Frame {
        func: 0,
        base: 0,
        depth: 0,
        ret_dst: NO_REG,
        private_base: 0,
    });
    stack.clear();
    parked.clear();
    active.clear();
    active.extend(0..n as u32);
    off.clear();
    off.resize(n, 0);
    steps.clear();
    steps.resize(n, 0);
    private.resize_with(n.max(private.len()), Vec::new);
    for p in &mut private[..n] {
        p.clear();
        p.resize(prog.funcs[0].private_bytes, 0);
    }
    finished.clear();
    finished.resize(n, false);

    let [ls0, ls1, _] = ndrange.local;
    let code = &prog.insns[..];
    let mut pc = prog.funcs[0].entry_pc as usize;
    let mut rpc = EXIT;
    let mut table: &[u32] = &ls.funcs[0].regs;
    let mut fp = regs.as_mut_ptr();
    // Every running item's step count is `clock - off[item]`; the step
    // limit fires once `clock` passes `deadline` (a lower bound of the
    // first running item's limit).
    let mut clock: u64 = 0;
    let mut deadline = step_limit;
    let mut wg_insns: u64 = 0;
    // Items from `cut` on are dropped: an item below it already failed
    // with `err`, and in item order the lowest failing item's first error
    // is the launch's.
    let mut cut = n as u32;
    let mut err: Option<InterpError> = None;

    // A register's frame offset and item mask (0 for a uniform register).
    macro_rules! loc {
        ($r:expr) => {{
            let p = table[$r as usize];
            if p & UNIFORM != 0 {
                ((p & !UNIFORM) as usize, 0usize)
            } else {
                (p as usize, usize::MAX)
            }
        }};
    }
    // SAFETY (every `reg!`): `fp` points at the running frame, laid out by
    // `compile` with every register's slots (`n` for a varying register,
    // and items are below `n`).
    macro_rules! reg {
        ($loc:expr, $l:expr) => {
            *unsafe { &mut *fp.add($loc.0 + ($l & $loc.1)) }
        };
    }
    macro_rules! fail {
        ($i:expr, $e:expr) => {{
            let i = $i;
            cut = active[i];
            err = Some($e);
            active.truncate(i);
        }};
    }
    // Expand `$body` once per value of `$x` (every variant listed), with
    // `$x` rebound to that constant, so that a loop inside resolves `$x`
    // before it starts.
    macro_rules! hoist {
        ($body:block) => {
            $body
        };
        ($x:ident in $($v:path)|+, $body:block) => {
            match $x {
                $($v => {
                    let $x = $v;
                    $body
                })+
            }
        };
    }
    // Apply `$body` (a `Result`) for every running item, or once for the
    // first when the result is uniform; an error fails its item. Under a
    // full mask (`active` is `0..n`, so item `l` sits at index `l`) this
    // is a plain loop over the items, resolving `$x`, when given, once
    // before it.
    macro_rules! each {
        ($once:expr, $l:ident => $body:expr $(; $x:ident in $($v:path)|+)?) => {{
            if !$once && active.len() == n {
                hoist!($($x in $($v)|+,)? {
                    for $l in 0..n {
                        let r: Result<(), InterpError> = $body;
                        if let Err(e) = r {
                            fail!($l, e);
                            break;
                        }
                    }
                })
            } else {
                let count = if $once { 1 } else { active.len() };
                for i in 0..count {
                    let $l = active[i] as usize;
                    let r: Result<(), InterpError> = $body;
                    if let Err(e) = r {
                        fail!(i, e);
                        break;
                    }
                }
            }
        }};
    }
    macro_rules! each_ok {
        ($once:expr, $l:ident => $body:expr $(; $x:ident in $($v:path)|+)?) => {{
            if !$once && active.len() == n {
                hoist!($($x in $($v)|+,)? {
                    for $l in 0..n {
                        $body;
                    }
                })
            } else {
                let count = if $once { 1 } else { active.len() };
                for i in 0..count {
                    let $l = active[i] as usize;
                    $body;
                }
            }
        }};
    }
    // How many running items `$test` holds for (a plain loop under a full
    // mask).
    macro_rules! count {
        ($l:ident => $test:expr) => {{
            let mut t = 0usize;
            if active.len() == n {
                for $l in 0..n {
                    t += usize::from($test);
                }
            } else {
                for &l in active.iter() {
                    let $l = l as usize;
                    t += usize::from($test);
                }
            }
            t
        }};
    }
    // `$d = a <op> b` through `$eval`, one `each!` per operator.
    macro_rules! bin {
        ($eval:ident, $op:expr, $d:expr, $a:expr, $b:expr) => {{
            let (op, d, a, b) = ($op, $d, $a, $b);
            each!(d.1 == 0, l => $eval(op, Operand::read(reg!(a, l)), Operand::read(reg!(b, l)))
                .map(|v| reg!(d, l) = v.slot());
                op in BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
                    | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
                    | BinOp::Min | BinOp::Max);
        }};
    }
    // Load `$kind` through pointer `$p` into `$d`, or store `$v` through
    // `$p`, for every running item, one `each!` per kind.
    macro_rules! load {
        ($once:expr, $kind:expr, $d:expr, $p:expr) => {{
            let (kind, d, p) = ($kind, $d, $p);
            each!($once, l => bc_bytes(gmem, local, &private[l], reg!(p, l), kind.size())
                .map(|bytes| reg!(d, l) = Slot::decode(kind, bytes));
                kind in Kind::Bool | Kind::I32 | Kind::I64 | Kind::F32 | Kind::F64 | Kind::Ptr);
        }};
    }
    macro_rules! store {
        ($kind:expr, $p:expr, $v:expr) => {{
            let (kind, p, v) = ($kind, $p, $v);
            each!(false, l => bc_bytes_mut(gmem, local, &mut private[l], reg!(p, l), kind.size())
                .map(|bytes| reg!(v, l).encode(kind, bytes));
                kind in Kind::Bool | Kind::I32 | Kind::I64 | Kind::F32 | Kind::F64 | Kind::Ptr);
        }};
    }
    // Under a full mask, with the base `$p` group-uniform, every item's
    // address `$g` lies in the base's storage (a gep keeps its arena):
    // look a global buffer or the local arena up once, then run `$body`
    // per item on its `$bytes` with only the bounds check, which
    // `interp::bounds` makes as the per-item path does. Falls through to
    // that path for the private arena (one per item) and a dangling
    // buffer.
    macro_rules! span_each {
        ($p:expr, $g:expr, $kind:ident, $l:ident, $bytes:ident => $body:expr) => {
            if $p.1 == 0 && active.len() == n {
                let p = reg!($p, 0);
                let storage = match (p.buffer(), p.arena) {
                    (Some(b), _) => gmem.span(b).ok().map(|(at, len)| (at, len, "global buffer")),
                    (None, ARENA_LOCAL) => Some((local.as_mut_ptr(), local.len(), "local memory")),
                    _ => None,
                };
                if let Some((at, len, what)) = storage {
                    hoist!($kind in Kind::Bool | Kind::I32 | Kind::I64 | Kind::F32 | Kind::F64
                        | Kind::Ptr, {
                        let size = $kind.size();
                        for $l in 0..n {
                            let off = reg!($g, $l).bits as i64;
                            if let Err(e) = bounds(len, off, size, what) {
                                fail!($l, e);
                                break;
                            }
                            // SAFETY: in bounds (checked above); concurrent
                            // groups touch disjoint bytes (`GlobalMem`).
                            let $bytes =
                                unsafe { std::slice::from_raw_parts_mut(at.add(off as usize), size) };
                            $body;
                        }
                    });
                    continue;
                }
            }
        };
    }
    macro_rules! park {
        ($lanes:expr) => {
            for &l in $lanes.iter() {
                steps[l as usize] = clock - off[l as usize];
            }
        };
    }
    macro_rules! push {
        ($pc:expr, $rpc:expr, $lanes:expr) => {
            if $pc != $rpc {
                stack.push(Entry {
                    pc: $pc,
                    rpc: $rpc,
                    start: parked.len() as u32,
                    len: $lanes.len() as u32,
                });
                parked.extend_from_slice(&$lanes);
            }
        };
    }
    'run: loop {
        // Defined inside the loop so that they can leave or restart it.
        macro_rules! tick {
            ($k:expr) => {
                clock += $k;
                if clock > deadline {
                    let over = clock - step_limit;
                    if let Some(i) = active.iter().position(|&l| off[l as usize] < over) {
                        fail!(i, InterpError::StepLimitExceeded(step_limit));
                    }
                    let min = active.iter().map(|&l| off[l as usize]).min();
                    deadline = min.map_or(u64::MAX, |m| step_limit.saturating_add(m));
                    if active.is_empty() {
                        continue 'run;
                    }
                }
            };
        }
        // The running entry is done: continue with the next suspended one,
        // returning from finished calls; leaves the loop when none is left.
        macro_rules! resume {
            () => {
                loop {
                    let frame = *frames.last().expect("the kernel frame");
                    if stack.len() as u32 == frame.depth {
                        if frames.len() == 1 {
                            break 'run;
                        }
                        frames.pop();
                        // Release the callee's private frame (a no-op for
                        // items that did not make the call).
                        for p in &mut private[..n] {
                            p.truncate(frame.private_base);
                        }
                        let caller = frames.last().expect("a caller frame");
                        table = &ls.funcs[caller.func as usize].regs;
                        // SAFETY: the caller's frame lies inside `regs`.
                        fp = unsafe { regs.as_mut_ptr().add(caller.base as usize) };
                    }
                    let e = stack.pop().expect("an entry above the frame");
                    let lanes = &parked[e.start as usize..(e.start + e.len) as usize];
                    active.clear();
                    active.extend(lanes.iter().copied().filter(|&l| l < cut));
                    parked.truncate(e.start as usize);
                    pc = e.pc as usize;
                    rpc = e.rpc;
                    if active.is_empty() || e.pc == e.rpc {
                        continue;
                    }
                    let mut min = u64::MAX;
                    for &l in active.iter() {
                        let o = clock - steps[l as usize];
                        off[l as usize] = o;
                        min = min.min(o);
                    }
                    deadline = step_limit.saturating_add(min);
                    break;
                }
            };
        }
        macro_rules! goto {
            ($t:expr) => {{
                let t: u32 = $t;
                pc = t as usize;
                if t == rpc || t == EXIT {
                    park!(active);
                    active.clear();
                    resume!();
                }
            }};
        }
        // Branch on the varying register `$c`, which holds for `$t` of the
        // running items: all agree, or the items split and the two sides
        // reconverge at the branch's postdominator.
        macro_rules! branch {
            ($then:expr, $else:expr, $c:expr, $t:expr) => {{
                let (c, t) = ($c, $t);
                if t == active.len() {
                    goto!($then)
                } else if t == 0 {
                    goto!($else)
                } else {
                    taken.clear();
                    split.clear();
                    for &l in active.iter() {
                        if reg!(c, l as usize).bits != 0 {
                            taken.push(l)
                        } else {
                            split.push(l)
                        }
                    }
                    let r = ls.rpc[pc - 1];
                    park!(split);
                    if rpc != r {
                        push!(r, rpc, active);
                    }
                    push!($else, r, split);
                    std::mem::swap(active, taken);
                    rpc = r;
                    goto!($then)
                }
            }};
        }

        if active.is_empty() {
            resume!();
            continue;
        }
        let lanes = active.len() as u64;
        let insn = &code[pc];
        pc += 1;
        match insn {
            VmInsn::Nop { weight, mem } => {
                tick!(*weight);
                wg_insns += weight * lanes;
                stats.mem_ops += mem * lanes;
            }
            VmInsn::Jump { target } => {
                tick!(1);
                goto!(*target);
            }
            VmInsn::Branch {
                cond,
                then_t,
                else_t,
            } => {
                tick!(1);
                let c = loc!(*cond);
                if c.1 == 0 {
                    goto!(if reg!(c, 0).bits != 0 {
                        *then_t
                    } else {
                        *else_t
                    });
                } else {
                    let t = count!(l => reg!(c, l).bits != 0);
                    branch!(*then_t, *else_t, c, t);
                }
            }
            VmInsn::CmpBrInt {
                mask,
                dst,
                a,
                b,
                then_t,
                else_t,
            } => {
                tick!(1);
                tick!(1);
                wg_insns += lanes;
                let (d, a, b) = (loc!(*dst), loc!(*a), loc!(*b));
                if d.1 == 0 {
                    let c = cmp_int(*mask, reg!(a, 0), reg!(b, 0));
                    reg!(d, 0) = Slot::int(c as i64);
                    goto!(if c { *then_t } else { *else_t });
                } else {
                    let t = count!(l => {
                        let c = cmp_int(*mask, reg!(a, l), reg!(b, l));
                        reg!(d, l) = Slot::int(c as i64);
                        c
                    });
                    branch!(*then_t, *else_t, d, t);
                }
            }
            VmInsn::CmpBrFloat {
                wide,
                mask,
                dst,
                a,
                b,
                then_t,
                else_t,
            } => {
                tick!(1);
                tick!(1);
                wg_insns += lanes;
                let (d, a, b) = (loc!(*dst), loc!(*a), loc!(*b));
                if d.1 == 0 {
                    let c = cmp_float(*wide, *mask, reg!(a, 0), reg!(b, 0));
                    reg!(d, 0) = Slot::int(c as i64);
                    goto!(if c { *then_t } else { *else_t });
                } else {
                    let t = count!(l => {
                        let c = cmp_float(*wide, *mask, reg!(a, l), reg!(b, l));
                        reg!(d, l) = Slot::int(c as i64);
                        c
                    });
                    branch!(*then_t, *else_t, d, t);
                }
            }
            VmInsn::Ret { val } => {
                tick!(1);
                if frames.len() == 1 {
                    for &l in active.iter() {
                        finished[l as usize] = true;
                    }
                } else if *val != NO_REG {
                    let frame = frames[frames.len() - 1];
                    let caller = frames[frames.len() - 2];
                    let src = loc!(*val);
                    let p = ls.funcs[caller.func as usize].regs[frame.ret_dst as usize];
                    let (at, mask) = if p & UNIFORM != 0 {
                        ((p & !UNIFORM) as usize, 0)
                    } else {
                        (p as usize, usize::MAX)
                    };
                    // SAFETY: the caller's frame lies inside `regs`, laid
                    // out with the call's result register.
                    let caller_fp = unsafe { regs.as_mut_ptr().add(caller.base as usize) };
                    for &l in active.iter() {
                        let l = l as usize;
                        let v = reg!(src, l);
                        unsafe { *caller_fp.add(at + (l & mask)) = v };
                    }
                }
                debug_assert_eq!(rpc, EXIT, "a return inside an unreconverged branch");
                goto!(EXIT);
            }
            VmInsn::Const { dst, val } => {
                tick!(1);
                wg_insns += lanes;
                let d = loc!(*dst);
                each_ok!(d.1 == 0, l => reg!(d, l) = *val);
            }
            VmInsn::BinI32 { op, dst, a, b } => {
                tick!(1);
                wg_insns += lanes;
                bin!(bin_i32, *op, loc!(*dst), loc!(*a), loc!(*b));
            }
            VmInsn::BinI64 { op, dst, a, b } => {
                tick!(1);
                wg_insns += lanes;
                bin!(bin_i64, *op, loc!(*dst), loc!(*a), loc!(*b));
            }
            VmInsn::BinF32 { op, dst, a, b } => {
                tick!(1);
                wg_insns += lanes;
                bin!(bin_f32, *op, loc!(*dst), loc!(*a), loc!(*b));
            }
            VmInsn::BinF64 { op, dst, a, b } => {
                tick!(1);
                wg_insns += lanes;
                bin!(bin_f64, *op, loc!(*dst), loc!(*a), loc!(*b));
            }
            VmInsn::Un { op, kind, dst, a } => {
                tick!(1);
                wg_insns += lanes;
                let (op, kind, d, a) = (*op, *kind, loc!(*dst), loc!(*a));
                // The operand's width resolves here, and under a full mask
                // the operator too; `eval_un` keeps the pairs it fails (and
                // a bool's `not`).
                macro_rules! un {
                    ($t:ty) => {
                        each_ok!(d.1 == 0, l => reg!(d, l) =
                            <$t>::un(op, <$t>::read(reg!(a, l))).slot();
                            op in UnOp::Neg | UnOp::Not | UnOp::Sqrt | UnOp::Abs | UnOp::Exp
                                | UnOp::Log | UnOp::Sin | UnOp::Cos | UnOp::Floor | UnOp::Ceil)
                    };
                }
                match kind {
                    _ if !unary_resolves(op, kind) => {
                        each!(d.1 == 0, l => eval_un(op, reg!(a, l).value(kind))
                            .map(|v| reg!(d, l) = Slot::of(v)));
                    }
                    Kind::F32 => un!(f32),
                    Kind::F64 => un!(f64),
                    Kind::I32 => un!(i32),
                    _ => un!(i64),
                }
            }
            VmInsn::CmpInt { mask, dst, a, b } => {
                tick!(1);
                wg_insns += lanes;
                let (d, a, b) = (loc!(*dst), loc!(*a), loc!(*b));
                each_ok!(d.1 == 0, l => reg!(d, l) =
                    Slot::int(cmp_int(*mask, reg!(a, l), reg!(b, l)) as i64));
            }
            VmInsn::CmpFloat {
                wide,
                mask,
                dst,
                a,
                b,
            } => {
                tick!(1);
                wg_insns += lanes;
                let (d, a, b) = (loc!(*dst), loc!(*a), loc!(*b));
                each_ok!(d.1 == 0, l => reg!(d, l) =
                    Slot::int(cmp_float(*wide, *mask, reg!(a, l), reg!(b, l)) as i64));
            }
            VmInsn::Select { dst, cond, a, b } => {
                tick!(1);
                wg_insns += lanes;
                let (d, c, a, b) = (loc!(*dst), loc!(*cond), loc!(*a), loc!(*b));
                each_ok!(d.1 == 0, l => reg!(d, l) =
                    if reg!(c, l).bits != 0 { reg!(a, l) } else { reg!(b, l) });
            }
            VmInsn::Cast { conv, dst, a } => {
                tick!(1);
                wg_insns += lanes;
                let (conv, d, a) = (*conv, loc!(*dst), loc!(*a));
                each_ok!(d.1 == 0, l => reg!(d, l) = conv.apply(reg!(a, l));
                    conv in Conv::Copy | Conv::IntToI32 | Conv::IntToF32 | Conv::IntToF64
                        | Conv::F32ToI32 | Conv::F32ToI64 | Conv::F32ToF64 | Conv::F64ToI32
                        | Conv::F64ToI64 | Conv::F64ToF32);
            }
            VmInsn::AllocaPriv { dst, off, bytes } => {
                tick!(1);
                wg_insns += lanes;
                let d = loc!(*dst);
                let at = frames.last().expect("a frame").private_base + *off as usize;
                let end = at + *bytes as usize;
                let ptr = Slot {
                    bits: at as u64,
                    arena: ARENA_PRIVATE,
                };
                each_ok!(false, l => {
                    private[l][at..end].fill(0);
                    reg!(d, l) = ptr;
                });
            }
            VmInsn::AllocaSlot { dst } => {
                tick!(1);
                wg_insns += lanes;
                let d = loc!(*dst);
                each_ok!(d.1 == 0, l => reg!(d, l) = Slot::default());
            }
            VmInsn::Load { kind, dst, ptr } => {
                tick!(1);
                wg_insns += lanes;
                stats.mem_ops += lanes;
                let d = loc!(*dst);
                load!(d.1 == 0, *kind, d, loc!(*ptr));
            }
            VmInsn::Store { kind, ptr, value } => {
                tick!(1);
                wg_insns += lanes;
                stats.mem_ops += lanes;
                store!(*kind, loc!(*ptr), loc!(*value));
            }
            VmInsn::LoadSlot { dst, slot } => {
                tick!(1);
                wg_insns += lanes;
                stats.mem_ops += lanes;
                let (d, s) = (loc!(*dst), loc!(*slot));
                each_ok!(d.1 == 0, l => reg!(d, l) = reg!(s, l));
            }
            VmInsn::StoreSlot { slot, value } => {
                tick!(1);
                wg_insns += lanes;
                stats.mem_ops += lanes;
                let (s, v) = (loc!(*slot), loc!(*value));
                each_ok!(s.1 == 0, l => reg!(s, l) = reg!(v, l));
            }
            VmInsn::Gep {
                dst,
                ptr,
                index,
                stride,
            } => {
                tick!(1);
                wg_insns += lanes;
                let (d, p, x) = (loc!(*dst), loc!(*ptr), loc!(*index));
                each!(d.1 == 0, l => gep(reg!(p, l), reg!(x, l), *stride).map(|g| reg!(d, l) = g));
            }
            VmInsn::GepLoad {
                kind,
                gep: gep_dst,
                ptr,
                index,
                stride,
                dst,
            } => {
                // As in item order: every item's gep (which can fail), then
                // the load's step, then the loads.
                tick!(1);
                let (g, p, x, d) = (loc!(*gep_dst), loc!(*ptr), loc!(*index), loc!(*dst));
                let once = d.1 == 0;
                each!(once, l => gep(reg!(p, l), reg!(x, l), *stride).map(|a| reg!(g, l) = a));
                if active.is_empty() {
                    continue;
                }
                tick!(1);
                wg_insns += 2 * lanes;
                stats.mem_ops += lanes;
                let kind = *kind;
                if !once {
                    span_each!(p, g, kind, l, bytes => reg!(d, l) = Slot::decode(kind, bytes));
                }
                load!(once, kind, d, g);
            }
            VmInsn::GepStore {
                kind,
                gep: gep_dst,
                ptr,
                index,
                stride,
                value,
            } => {
                tick!(1);
                let (g, p, x, v) = (loc!(*gep_dst), loc!(*ptr), loc!(*index), loc!(*value));
                each!(false, l => gep(reg!(p, l), reg!(x, l), *stride).map(|a| reg!(g, l) = a));
                if active.is_empty() {
                    continue;
                }
                tick!(1);
                wg_insns += 2 * lanes;
                stats.mem_ops += lanes;
                let kind = *kind;
                span_each!(p, g, kind, l, bytes => reg!(v, l).encode(kind, bytes));
                store!(kind, g, v);
            }
            VmInsn::Call { dst, site } => {
                tick!(1);
                wg_insns += lanes;
                // The kernel's frame is not a call.
                if frames.len() > MAX_CALL_DEPTH {
                    fail!(0, InterpError::CallDepthExceeded(MAX_CALL_DEPTH));
                    continue;
                }
                let CallSite { func, args } = &prog.calls[*site as usize];
                let callee = &ls.funcs[*func as usize];
                // The callers resume after the call once the callee's last
                // items return.
                push!(pc as u32, rpc, active);
                let caller = frames.last().expect("a frame");
                let base = caller.base as usize + ls.funcs[caller.func as usize].slots;
                seed_frame(regs, callee, &callee.template, base);
                // SAFETY: both frames lie inside `regs` (re-derived after
                // seeding may have grown it).
                fp = unsafe { regs.as_mut_ptr().add(caller.base as usize) };
                let callee_fp = unsafe { regs.as_mut_ptr().add(base) };
                for (k, a) in args.iter().enumerate() {
                    let src = loc!(*a);
                    let p = callee.regs[k];
                    if p & UNIFORM != 0 {
                        let v = reg!(src, active[0] as usize);
                        unsafe { *callee_fp.add((p & !UNIFORM) as usize) = v };
                    } else {
                        for &l in active.iter() {
                            let l = l as usize;
                            let v = reg!(src, l);
                            unsafe { *callee_fp.add(p as usize + l) = v };
                        }
                    }
                }
                let private_base =
                    caller.private_base + prog.funcs[caller.func as usize].private_bytes;
                let private_end = private_base + prog.funcs[*func as usize].private_bytes;
                each_ok!(false, l => private[l].resize(private_end, 0));
                frames.push(Frame {
                    func: *func,
                    base: base as u32,
                    depth: stack.len() as u32,
                    ret_dst: *dst,
                    private_base,
                });
                table = &callee.regs;
                fp = callee_fp;
                pc = prog.funcs[*func as usize].entry_pc as usize;
                rpc = EXIT;
            }
            VmInsn::WorkItem { dst, builtin, dim } => {
                tick!(1);
                wg_insns += lanes;
                let d = loc!(*dst);
                let k = *dim as usize;
                match builtin {
                    WiBuiltin::GlobalId | WiBuiltin::LocalId => {
                        // Past dimension 2 this panics, as in item order.
                        let size = ndrange.local[k];
                        let base = match builtin {
                            WiBuiltin::GlobalId => group_id[k] * size,
                            _ => 0,
                        };
                        if d.1 != 0 && active.len() == n {
                            // Items run in local-id order, x fastest: each
                            // id of dimension `k` repeats for `run` items.
                            let run: usize = ndrange.local[..k].iter().product();
                            let (mut id, mut left) = (0, run);
                            for l in 0..n {
                                reg!(d, l) = Slot::int((base + id) as i64);
                                left -= 1;
                                if left == 0 {
                                    left = run;
                                    id = if id + 1 == size { 0 } else { id + 1 };
                                }
                            }
                            continue;
                        }
                        // Dimension `k` of the item's local id only.
                        each_ok!(d.1 == 0, l => {
                            let lid = match k {
                                0 => l % ls0,
                                1 => (l / ls0) % ls1,
                                _ => l / (ls0 * ls1),
                            };
                            reg!(d, l) = Slot::int((base + lid) as i64);
                        });
                    }
                    _ => {
                        // The same for every item: read once.
                        let v = Slot::int(match builtin {
                            WiBuiltin::GroupId => group_id[k],
                            WiBuiltin::GlobalSize => ndrange.global[k],
                            WiBuiltin::LocalSize => ndrange.local[k],
                            WiBuiltin::NumGroups => ndrange.num_groups()[k],
                            _ => ndrange.work_dim as usize,
                        } as i64);
                        each_ok!(d.1 == 0, l => reg!(d, l) = v);
                    }
                }
            }
            VmInsn::AtomicRmw {
                op,
                wide,
                ticket,
                dst,
                ptr,
                value,
            } => {
                tick!(1);
                wg_insns += lanes;
                stats.atomic_ops += lanes;
                let (d, p, v) = (loc!(*dst), loc!(*ptr), loc!(*value));
                each!(false, l => {
                    let (ptr, operand) = (reg!(p, l), reg!(v, l).bits as i64);
                    atomic_rmw(gmem, local, &mut private[l], *op, *wide, ptr, operand).map(|old| {
                        reg!(d, l) = match tickets.as_deref_mut() {
                            Some(cursor) if *ticket => Slot::of(cursor.take()),
                            _ => Slot::int(old),
                        }
                    })
                });
            }
            VmInsn::AtomicCmpXchg {
                wide,
                dst,
                ptr,
                expected,
                desired,
            } => {
                tick!(1);
                wg_insns += lanes;
                stats.atomic_ops += lanes;
                let (d, p, e, w) = (loc!(*dst), loc!(*ptr), loc!(*expected), loc!(*desired));
                each!(false, l => {
                    let (exp, des) = (reg!(e, l).bits as i64, reg!(w, l).bits as i64);
                    atomic_cmpxchg(gmem, local, &mut private[l], *wide, reg!(p, l), exp, des)
                        .map(|old| reg!(d, l) = Slot::int(old))
                });
            }
            VmInsn::Barrier => {
                tick!(1);
                wg_insns += lanes;
                stats.barriers += lanes;
                if let Some(e) = err.take() {
                    return Err(e);
                }
                // The within-group proof puts every barrier outside all
                // divergent regions: each live item waits here.
                let done = finished.iter().filter(|&&f| f).count();
                if done + active.len() != n {
                    debug_assert!(false, "a barrier reached by part of the group");
                    return Err(InterpError::BarrierDivergence(format!(
                        "{done} work items finished while {} wait at a barrier",
                        active.len()
                    )));
                }
            }
            VmInsn::Trap(e) => {
                tick!(1);
                fail!(0, (**e).clone());
            }
        }
    }
    match err {
        Some(e) => Err(e),
        None => Ok(wg_insns),
    }
}

/// A register's value as an arithmetic operand of one width.
trait Operand {
    fn read(s: Slot) -> Self;
    fn slot(self) -> Slot;
}

macro_rules! operand {
    ($t:ty: $s:ident => $read:expr, $v:ident => $slot:expr) => {
        impl Operand for $t {
            #[inline(always)]
            fn read($s: Slot) -> $t {
                $read
            }
            #[inline(always)]
            fn slot(self) -> Slot {
                let $v = self;
                $slot
            }
        }
    };
}

operand!(i32: s => s.bits as i32, v => Slot::int(v as i64));
operand!(i64: s => s.bits as i64, v => Slot::int(v));
operand!(f32: s => f32::from_bits(s.bits as u32), v => Slot::int(v.to_bits() as i64));
operand!(f64: s => f64::from_bits(s.bits), v => Slot::int(v.to_bits() as i64));

/// A unary operation on one operand width, with `eval_un`'s semantics
/// for the pairs [`unary_resolves`] admits.
trait Unary: Operand {
    fn un(op: UnOp, x: Self) -> Self;
}

macro_rules! unary {
    (float $t:ty) => {
        impl Unary for $t {
            #[inline(always)]
            fn un(op: UnOp, x: $t) -> $t {
                match op {
                    UnOp::Neg => -x,
                    UnOp::Sqrt => x.sqrt(),
                    UnOp::Abs => x.abs(),
                    UnOp::Exp => x.exp(),
                    UnOp::Log => x.ln(),
                    UnOp::Sin => x.sin(),
                    UnOp::Cos => x.cos(),
                    UnOp::Floor => x.floor(),
                    UnOp::Ceil => x.ceil(),
                    UnOp::Not => x,
                }
            }
        }
    };
    (int $t:ty) => {
        impl Unary for $t {
            #[inline(always)]
            fn un(op: UnOp, x: $t) -> $t {
                match op {
                    UnOp::Neg => x.wrapping_neg(),
                    UnOp::Abs => x.wrapping_abs(),
                    _ => x,
                }
            }
        }
    };
}

unary!(float f32);
unary!(float f64);
unary!(int i32);
unary!(int i64);

/// Whether `eval_un` succeeds on `op` over `kind` with a result of the
/// same kind, which [`Unary::un`] computes.
fn unary_resolves(op: UnOp, kind: Kind) -> bool {
    match kind {
        Kind::F32 | Kind::F64 => op != UnOp::Not,
        Kind::I32 | Kind::I64 => matches!(op, UnOp::Neg | UnOp::Abs),
        Kind::Bool | Kind::Ptr => false,
    }
}

/// One item's atomic read-modify-write (the item VM's semantics); the old
/// value.
fn atomic_rmw(
    gmem: &GlobalMem<'_>,
    local: &mut [u8],
    private: &mut [u8],
    op: crate::ir::AtomicOp,
    wide: bool,
    p: Slot,
    operand: i64,
) -> Result<i64, InterpError> {
    use std::sync::atomic::Ordering::SeqCst;
    let off = p.bits as i64;
    if let Some(b) = p.buffer() {
        return Ok(if wide {
            let cell = gmem.atomic_u64(b, off)?;
            let prev = cell
                .fetch_update(SeqCst, SeqCst, |cur| {
                    Some(apply_atomic(op, cur as i64, operand) as u64)
                })
                .unwrap_or_else(|e| e);
            prev as i64
        } else {
            let operand = operand as i32 as i64;
            let cell = gmem.atomic_u32(b, off)?;
            let prev = cell
                .fetch_update(SeqCst, SeqCst, |cur| {
                    Some(apply_atomic(op, cur as i32 as i64, operand) as i32 as u32)
                })
                .unwrap_or_else(|e| e);
            prev as i32 as i64
        });
    }
    let bytes = bc_bytes_mut(gmem, local, private, p, if wide { 8 } else { 4 })?;
    Ok(if wide {
        let old = i64::from_le_bytes(bytes[..8].try_into().unwrap());
        bytes[..8].copy_from_slice(&apply_atomic(op, old, operand).to_le_bytes());
        old
    } else {
        let old = i32::from_le_bytes(bytes[..4].try_into().unwrap());
        let new = apply_atomic(op, old as i64, operand as i32 as i64) as i32;
        bytes[..4].copy_from_slice(&new.to_le_bytes());
        old as i64
    })
}

/// One item's atomic compare-and-swap; the old value.
fn atomic_cmpxchg(
    gmem: &GlobalMem<'_>,
    local: &mut [u8],
    private: &mut [u8],
    wide: bool,
    p: Slot,
    exp: i64,
    des: i64,
) -> Result<i64, InterpError> {
    use std::sync::atomic::Ordering::SeqCst;
    let off = p.bits as i64;
    if let Some(b) = p.buffer() {
        return Ok(if wide {
            let cell = gmem.atomic_u64(b, off)?;
            match cell.compare_exchange(exp as u64, des as u64, SeqCst, SeqCst) {
                Ok(prev) | Err(prev) => prev as i64,
            }
        } else {
            let cell = gmem.atomic_u32(b, off)?;
            let (exp, des) = (exp as i32 as u32, des as i32 as u32);
            match cell.compare_exchange(exp, des, SeqCst, SeqCst) {
                Ok(prev) | Err(prev) => prev as i32 as i64,
            }
        });
    }
    let bytes = bc_bytes_mut(gmem, local, private, p, if wide { 8 } else { 4 })?;
    Ok(if wide {
        let old = i64::from_le_bytes(bytes[..8].try_into().unwrap());
        if old == exp {
            bytes[..8].copy_from_slice(&des.to_le_bytes());
        }
        old
    } else {
        let old = i32::from_le_bytes(bytes[..4].try_into().unwrap());
        if old as i64 == exp {
            bytes[..4].copy_from_slice(&(des as i32).to_le_bytes());
        }
        old as i64
    })
}
