//! # Bytecode execution tier
//!
//! A compile-and-execute tier for the functional plane: kernel functions are
//! lowered once per launch shape, and bound per launch, into a dense
//! register bytecode (flat instruction
//! array, resolved branch targets, pre-computed frame sizes), run through a
//! launch-specialising optimizer, quickened into type-resolved
//! instructions, and executed by a flat-dispatch VM. The VM shares the
//! sequential group loop — and therefore the flat group order — with the
//! tree-walking interpreter, and is the only executor that shards work
//! groups across threads.
//!
//! ## Pipeline
//!
//! 1. **Lowering** (`lower`) — each reachable function becomes a list of
//!    `BcInsn` blocks. Every non-terminator IR instruction lowers to
//!    exactly one bytecode instruction of *weight* 1; terminators lower to
//!    explicit `Jump`/`Branch`/`Ret` instructions of weight 0. Loads carry
//!    their pre-resolved result type and size, geps their pointee stride,
//!    calls their resolved callee index, static local allocas their
//!    pre-planned arena offset and private allocas their offset in the
//!    function's private frame — the per-dispatch lookups the tree-walker
//!    pays on every execution. Every register's scalar kind is resolved
//!    from the function's value types.
//! 2. **Optimization** (`optimize`) — a
//!    once-per-shape pipeline of constant folding over the concrete launch
//!    (scalar *and* pointer arguments are known values at launch time,
//!    launch-uniform work-item builtins are constants of the NDRange),
//!    dead-code elimination, slot promotion, slot forwarding and no-op
//!    coalescing. Folded, dead and forwarded instructions are not deleted:
//!    they become weight-carrying `BcInsn::Nop`s, kept in place and merged
//!    only within their block and never across another instruction, so
//!    the executed-instruction accounting (`DynStats::insns_per_wg`, the
//!    input to the paper's §3 fair-sharing equations and the timing
//!    simulator) stays **bit-identical** to the tree-walker, and the step
//!    limit fires at the same instruction. A no-op also carries how many
//!    of its instructions were memory operations (forwarded slot copies,
//!    `nop x3 (mem 2)` in the disassembly), which the VM adds to
//!    `DynStats::mem_ops` (once per active item in lockstep): the timing
//!    plane's memory intensity reads that counter. Folded results are
//!    hoisted into a per-launch *preamble*: a template register file the
//!    VM seeds each frame from with one copy.
//! 3. **Slot promotion** (`promote_slots`) —
//!    minicl gives every source variable a private `alloca` cell reached
//!    by `load`/`store`. A one-element cell whose pointer is only ever the
//!    address of loads and stores of one kind and of the cell's exact size
//!    becomes `alloca.slot`: its value lives in the alloca's own register,
//!    `load.slot`/`store.slot` copy it, and each execution of the alloca
//!    re-zeroes it (fresh zeroed memory on every execution, loops
//!    included). The register takes the value's kind, and for a pointer
//!    variable the shared flag of the pointers it holds, so an instruction
//!    reading it directly quickens and stays group-uniform as it did
//!    through a copy. The cell keeps its offset in the frame layout, so
//!    every other allocation's offset and every `OutOfBounds` size is
//!    unchanged, and slot accesses still count `mem_ops` and weight 1. A
//!    program that does pointer arithmetic on (or casts) a private
//!    pointer anywhere promotes nothing: such a pointer could stray into
//!    a cell's bytes.
//! 4. **Slot forwarding** (`forward_slots`) — since minicl reads every
//!    variable through its own `load`, most slot accesses are copies.
//!    Within one block, a `load.slot d, s` whose `d` is read only later
//!    in the block, before any write of `s`, goes: its readers read `s`.
//!    A `store.slot s, v` whose `v` is read only by it goes when `v`'s
//!    definition is earlier in the block, writes nothing else, and no
//!    instruction in between reads or writes `s`: the definition writes
//!    `s`. Each removed copy becomes a weight-1 no-op carrying one memory
//!    operation. spmv's inner loop keeps 10 of its 22 weighted
//!    instructions, plus its 3 branches and jumps and 7 no-ops.
//! 5. **Quickening** (`quicken`) — the optimized blocks become one
//!    program-wide array of `VmInsn`s (24 bytes each): arithmetic,
//!    comparisons and casts are specialised by operand kind, loads and
//!    stores carry a scalar kind instead of a type, and two pairs whose
//!    first half is pure are fused — a compare followed by the branch on
//!    its result, and a gep followed by the load or store through it. A
//!    fused instruction counts both halves' steps and weights, so the step
//!    limit fires where it did before. Branch targets resolve to absolute
//!    pcs.
//!
//! Registers are untagged 16-byte `Slot`s: a value's bits plus, for a
//! pointer, its arena word. An `i32` is kept sign-extended, so integer
//! comparisons and gep indices read any integer kind as `i64`; a pointer
//! keeps its full-range `i64` byte offset (out-of-range offsets reach the
//! `OutOfBounds` error intact), compares by offset only, and stores as
//! the tree-walker's 16-byte encoding; float bits are kept unchanged.
//! Each work item owns its kernel frame's registers; callee frames live
//! on one call stack per group, which only the running item uses (an
//! item that waits at a barrier inside a call takes its callee frames
//! with it). Quickening sizes every frame one past every register its
//! instructions name, so the VM reads registers through a frame pointer
//! without bounds checks.
//!
//! Private memory is automatic storage, laid out once per module
//! (`interp::PrivateFrames`, kept in the program's [`crate::ModuleFacts`]
//! and shared with the tree-walker): every private
//! alloca site has a fixed offset in its function's frame. An item's
//! arena starts as the kernel's zeroed frame; a call appends the callee's
//! zeroed frame and its return truncates the arena back. `alloca.priv`
//! re-zeroes its site's bytes and yields frame base + offset;
//! `alloca.slot` only zeroes its register. So an item's private memory is
//! the sum of the frames on its call stack, however often a loop
//! allocates, and a call nested deeper than
//! [`crate::interp::MAX_CALL_DEPTH`] fails on every tier. A frame larger
//! than [`crate::interp::MAX_PRIVATE_FRAME_BYTES`] fails every launch of
//! its module on every tier, before anything is allocated for it.
//!
//! Measured on `perfbench` `tenants` (seed 1, three alternated traced
//! passes per side, release build, 2-vCPU x86 host): the interpreter's cost per executed
//! instruction (`interp.ns_per_insn`) fell from 12.0–12.7 ns (tagged
//! `Option<Value>` registers, every variable in private memory) to
//! 3.6–3.9 ns.
//!
//! ## Launch shapes, binding and the helper pool
//!
//! As in the paper's transparent runtime (§6.2), where a kernel is
//! transformed once and each enqueue only binds arguments and starts the
//! workers, a launch pays for compiling only the first time its *shape*
//! runs. The shape (`ShapeKey`) is the NDRange, per argument a scalar's
//! kind and bits (floats included, since folding reads them), a `local`
//! argument's element count or the first argument passing the same
//! buffer, and for a scheduling kernel under a holding dequeue contract
//! the virtual group counts its descriptor names. Each kernel's
//! [`crate::ModuleFacts`] keeps one record per shape for its last
//! [`LAUNCH_MEMO`](crate::analysis::LAUNCH_MEMO) shapes, under one lock:
//! the shape's two gate answers (whether its groups shard, whether they
//! run in lockstep) and its compiled programs (`CompiledLaunch`), each
//! decided by the first launch that needs it, outside the lock, and
//! never changed after. The shape determines everything those read, so
//! launches of one shape share the record, at the same time too, and one
//! of them compiles it.
//!
//! Buffer ids reach a compiled program only as the arena word of the
//! kernel frame's preamble registers: folding keeps a pointer's arena,
//! pointers compare by offset, and no instruction holds a global pointer.
//! Compiling records which preamble register points into which
//! argument's buffer, read from the preamble's typed values (buffer 0's
//! arena word is 0, as an integer's is), and leaves those registers
//! unbound (buffer 0), so the program depends on its shape alone. A
//! launch copies the kernel frame's preamble, in the quickened program
//! and in its lockstep layout, and points those registers of the copies
//! into its own buffers (`BoundLaunch`); a call of the launched kernel
//! traps on both tiers (see "Trap rules"), so only a group start seeds a
//! frame from the copies. A memoised program
//! bound to a launch equals a fresh compile of it, code and preamble.
//!
//! A sharded launch runs its groups on the submitting thread and on that
//! thread's parked helpers (`interp::pool`), spawned the first time a
//! launch needs them and kept until the thread exits, so a launch wakes
//! its helpers instead of spawning threads. A helper's panic resumes on
//! the submitter once every worker has stopped, and the helpers stay
//! parked for the next launch.
//!
//! ## Lockstep execution
//!
//! A launch the within-group proof admits
//! ([`Interpreter::lockstep_eligible_in`], proof in
//! [`crate::races::lockstep_report`]) runs each work group's items in
//! lockstep: between barriers every quickened instruction is dispatched
//! once per group and applied to all active items (Karrenberg and Hack's
//! whole-function vectorisation; pocl's work-group loops). The proof asks
//! that within every barrier interval no item writes bytes another item of
//! the group reads or writes (atomics of one commuting kind with discarded
//! results, and plain stores of one value by items that agree on what it
//! depends on, excepted), and that every barrier sits outside all
//! divergent branches. Then the items' interleaving within an interval
//! cannot change memory, and lockstep is one more legal order. A used
//! atomic result passes only where one item touches the bytes, as the
//! JIT's master-only dequeue does; bfs and mri-gridding_reorder keep item
//! order. Barrier loops over uniform counters (histo_prescan's halving
//! stride, splitSort's `k` and `j` with its `lid ^ j` partner) pass by
//! the launch-time evaluation, which runs every interval instance at the
//! launch's concrete shape (see the `races` module docs).
//!
//! - **Registers** are struct-of-arrays: a varying register holds one slot
//!   per item, a group-uniform one a single slot (`lockstep::compile`).
//!   A frame lays out the uniform registers first, then the varying ones
//!   with a preamble value, then the rest, so a group start and a call
//!   seed a fresh frame by copying only its preamble prefix: every other
//!   varying register is written by each item before the item reads it
//!   (the verifier's dominance rule), so its slots may keep what an
//!   earlier group or frame left there.
//!   A register is uniform when every write of it runs outside divergent
//!   regions from uniform operands; a load through a uniform pointer into
//!   shared memory qualifies, since all items read it at one instant and
//!   the proof rules out a write by another item in between. Loop counters
//!   and addresses such as sgemm's `tile[k]` and ComputeQ's `kx[k]` are
//!   computed once per group.
//! - **Masks and reconvergence.** A branch on a varying register checks
//!   whether the active items agree. When they do not, they split: the
//!   taken side runs, then the other, and they merge again at the branch's
//!   immediate postdominator, computed once per launch (a mask stack with
//!   postdominator reconvergence). A call takes its active items into the
//!   callee together; they come back once the last of them returns.
//! - **Full mask.** While no branch has split the group, every item is
//!   active, so the running items are `0..n` in order. Each instruction
//!   then runs as one plain loop over the items, with its operation
//!   resolved once before the loop: the binary operator, the load or store
//!   kind, the cast and the unary operator and operand kind each select
//!   one monomorphic loop (the `hoist!` macro in `lockstep.rs`), and
//!   `get_local_id`/`get_global_id` count the ids up instead of dividing.
//!   A fused gep and load or store through a group-uniform base finds
//!   its storage once per group: every item's address keeps the base's
//!   arena, so a global buffer's span or the local arena is looked up
//!   once and each item pays only its bounds check (the private arena,
//!   one per item, and a dangling buffer take the per-item path).
//!   Operations that can fail (integer division and remainder, an
//!   overflowing gep, every bounds check) keep their per-item check in
//!   item order, with the per-item path's error, so the lowest failing
//!   item still stops the higher ones. A branch on a varying register
//!   first counts the items that take it, and lists the two sides only
//!   when the group splits. A split group runs the same instructions over
//!   its active list.
//! - **Steps and statistics** stay per item: a group clock minus a per-item
//!   offset is each item's step count, so the step limit fires for the
//!   item and at the instruction where it would in item order, and every
//!   `DynStats` counter adds one per active item.
//! - **Errors.** The result is the lowest-numbered item's first error in
//!   the earliest failing barrier interval, as in item order: an item that
//!   fails drops every higher item, lower items run on to the barrier (or
//!   to their own error), and the group then stops. Memory after an error
//!   follows the sharded path's rule, within a group too: items after the
//!   failing one may have run part of the interval.
//!
//! The proof costs a few analysis passes, so each kernel's proof is kept
//! in its program's accelcheck cache ([`crate::ModuleFacts`]), which
//! `ProxyCl::build_program` shares among every build of the same source,
//! and its answer is kept in the record of each of the last few launch
//! shapes ([`crate::analysis::LAUNCH_MEMO`]): the per-launch check, the
//! evaluation included, runs once per shape. Measured on `perfbench` `tenants`
//! (seed 1, three alternated traced passes per side, release build, 2-vCPU
//! x86 host): `interp.ns_per_insn` fell from 2.0–2.3 ns (items one at a
//! time) to 1.10–1.18 ns, over the same 104,957,853 instructions. Over one
//! scale-1 launch of each of the 25 JIT-transformed Parboil kernels, 22
//! kernels and 98.85% of the executed instructions run in lockstep (19
//! kernels and 92.5% before the launch-time evaluation).
//! Measured the same way (six alternated pairs of traced passes), the
//! full-mask loops took `interp.ns_per_insn` from 1.23–2.08 ns (median
//! 1.82) to 0.93–1.63 ns (median 1.35), lower in every pair, over the
//! same instructions. Slot forwarding, the one storage lookup per
//! group-uniform access and the smaller full-mask changes took it from
//! 1.20–1.68 ns (median 1.31) to 1.11–1.27 ns (median 1.17) over the same
//! 104,957,853 instructions (three alternated traced passes per side,
//! whose launches also compile), and the untraced `tenants` `ops_per_s`
//! from a median of 2,733 to 3,543 (ten alternated 35 s pairs, higher in
//! every pair).
//!
//! ## Trap rules
//!
//! Lowering is total. Seven constructs have no ordinary instruction, and
//! the verifier rejects all of them: a call of an unknown function, a
//! call of the launched kernel, an alloca in `global` or `constant`
//! space, a `local` alloca outside the kernel entry function, a load
//! without a result, a block without a terminator, and a gep through a
//! non-pointer. Each lowers to a `BcInsn::Trap` at the point where it
//! occurs, so an unverified module fails only if (and when) a work item
//! reaches it:
//!
//! - an unknown callee raises [`InterpError::UnknownFunction`], and the
//!   launched-kernel call, alloca, load and terminator cases raise the
//!   tree-walker's [`InterpError::Invalid`] text (the tree-walker fails
//!   a call of the launched kernel too, since only function 0's preamble
//!   holds the launch's arguments);
//! - the gep raises [`InterpError::Invalid`]; the tree-walker fails it
//!   with a value-dependent `Invalid` text.
//!
//! A trap has weight 1 and is never folded or eliminated. A gep whose
//! offset overflows `i64` raises the same `Invalid` error on both tiers
//! and is never folded.
//!
//! ## Identity contract
//!
//! For every verified module and launch, both tiers produce the same
//! `DeviceMemory` bytes, the same `DynStats` (every counter, including the
//! per-group instruction histogram) and the same `Result`. The bytecode
//! tier assumes the module is *well-typed* (verifier-clean): dead code it
//! eliminates can no longer raise type-confusion `InterpError::Invalid`
//! errors that the tree-walker would only hit when actually executing the
//! dead instructions, and quickened instructions read registers by their
//! declared kind. Divide-by-zero and other value-dependent traps are never
//! folded or eliminated. Out of the contract are private pointers that
//! leave their work item through memory (dereferenced by another item, or
//! reloaded through a pointer of another type) or outlive their call
//! frame (a helper's variable whose address is used after the helper
//! returns, where another frame's promoted cell may now sit), which is
//! undefined in OpenCL C.

use crate::error::InterpError;
use crate::interp::{
    apply_atomic, bin_f32, bin_f64, bin_i32, bin_i64, bounds, default_interp_threads, eval_bin,
    eval_cast, eval_cmp, eval_un, flat_index, gep_offset, interp_size, launched_kernel_call,
    run_groups_seq_sched, run_groups_stealing_sched, Arena, ArgValue, BufferId, DeviceMemory,
    DynStats, GlobalMem, Interpreter, LaunchGate, LaunchSetup, NdRange, PtrVal, TicketCursor,
    Tickets, Value, WiCtx, WiStatus, MAX_CALL_DEPTH,
};
use crate::ir::{
    AtomicOp, BinOp, BlockId, CmpOp, ConstVal, Module, Op, Terminator, UnOp, WiBuiltin,
};
use crate::types::{AddressSpace, Type};
use std::sync::Arc;

mod lockstep;

/// Which execution tier the functional plane runs kernels on.
///
/// Freshly constructed [`Interpreter`]s run [`ExecTier::BytecodeOpt`];
/// the runtime entry points (`clrt::queue`, `ProxyCl::run_functional`)
/// select [`ExecTier::from_env`], which defaults to it as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTier {
    /// The original tree-walking interpreter.
    TreeWalk,
    /// Dense register bytecode, lowered per launch and run through the
    /// launch-specialising optimization pipeline (constant folding,
    /// invariant hoisting into the per-launch preamble, dead-code
    /// elimination, slot promotion) and quickened into type-resolved
    /// instructions.
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

/// The scalar kind of a register, resolved from its IR type at lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Bool,
    I32,
    I64,
    F32,
    F64,
    Ptr,
}

impl Kind {
    fn of(ty: &Type) -> Kind {
        match ty {
            Type::Bool => Kind::Bool,
            Type::I32 => Kind::I32,
            Type::F32 => Kind::F32,
            Type::F64 => Kind::F64,
            Type::Ptr { .. } => Kind::Ptr,
            // `void` is never a register's type in a verified module.
            Type::I64 | Type::Void => Kind::I64,
        }
    }

    /// Bytes in memory (the tree-walker's `interp_size`).
    fn size(self) -> usize {
        match self {
            Kind::Bool => 1,
            Kind::I32 | Kind::F32 => 4,
            Kind::I64 | Kind::F64 => 8,
            Kind::Ptr => 16,
        }
    }

    /// Kinds compared as `i64` bits (a pointer by its byte offset).
    fn is_int_like(self) -> bool {
        !matches!(self, Kind::F32 | Kind::F64)
    }
}

/// One dense bytecode instruction of the analysable (pre-[`quicken`])
/// form. Registers are `u32` indices into the frame's register file
/// ([`NO_REG`] = none); branch targets are block indices.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BcInsn {
    /// Placeholder for `weight` folded/eliminated source instructions;
    /// keeps `DynStats` accounting and the step limit bit-identical.
    Nop {
        /// How many source instructions this stands for.
        weight: u64,
        /// How many of them were memory operations (forwarded slot
        /// copies), still counted in `DynStats::mem_ops`.
        mem: u64,
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
    /// The site's `bytes` at offset `off` of the function's private
    /// frame: re-zero them; `dst` = frame base + `off`.
    AllocaPriv { dst: u32, off: usize, bytes: usize },
    /// A promoted private variable: zero its register `dst`. The site
    /// keeps its `bytes` in the frame layout, unused.
    AllocaSlot { dst: u32, bytes: usize },
    /// Pre-planned static local-memory slot at `off`.
    AllocaLocal { dst: u32, off: usize },
    /// `dst = *(ty*)ptr` — result type and size resolved at lowering.
    Load {
        dst: u32,
        ptr: u32,
        ty: Box<Type>,
        size: usize,
    },
    /// `dst = slot` for a promoted variable (a load; counts a memory op).
    LoadSlot { dst: u32, slot: u32, ty: Box<Type> },
    /// `*ptr = value`.
    Store { ptr: u32, value: u32 },
    /// `slot = value` for a promoted variable (a store; counts a memory
    /// op).
    StoreSlot { slot: u32, value: u32 },
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

/// Call `$f` on every register `$insn` reads ([`NO_REG`] included), by
/// shared or mutable reference as `$insn` is.
macro_rules! visit_uses {
    ($insn:expr, $f:expr) => {{
        #[allow(unused_mut)]
        let mut f = $f;
        match $insn {
            BcInsn::Nop { .. }
            | BcInsn::Const { .. }
            | BcInsn::AllocaPriv { .. }
            | BcInsn::AllocaSlot { .. }
            | BcInsn::AllocaLocal { .. }
            | BcInsn::WorkItem { .. }
            | BcInsn::Barrier
            | BcInsn::Jump { .. }
            | BcInsn::Trap(_) => {}
            BcInsn::Bin { a, b, .. } | BcInsn::Cmp { a, b, .. } => {
                f(a);
                f(b);
            }
            BcInsn::Un { a, .. } | BcInsn::Cast { a, .. } => f(a),
            BcInsn::Select { cond, a, b, .. } => {
                f(cond);
                f(a);
                f(b);
            }
            BcInsn::Load { ptr, .. } | BcInsn::LoadSlot { slot: ptr, .. } => f(ptr),
            BcInsn::Store { ptr, value }
            | BcInsn::StoreSlot { slot: ptr, value }
            | BcInsn::AtomicRmw { ptr, value, .. } => {
                f(ptr);
                f(value);
            }
            BcInsn::Gep { ptr, index, .. } => {
                f(ptr);
                f(index);
            }
            BcInsn::Call { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            BcInsn::AtomicCmpXchg {
                ptr,
                expected,
                desired,
                ..
            } => {
                f(ptr);
                f(expected);
                f(desired);
            }
            BcInsn::Branch { cond, .. } => f(cond),
            BcInsn::Ret { val } => f(val),
        }
    }};
}

/// Call `f` on every register `insn` reads ([`NO_REG`] included).
fn for_each_use(insn: &BcInsn, mut f: impl FnMut(u32)) {
    visit_uses!(insn, |r: &u32| f(*r))
}

/// The register `insn` writes ([`NO_REG`] = none).
fn def_of(insn: &BcInsn) -> u32 {
    match insn {
        BcInsn::Const { dst, .. }
        | BcInsn::Bin { dst, .. }
        | BcInsn::Un { dst, .. }
        | BcInsn::Cmp { dst, .. }
        | BcInsn::Select { dst, .. }
        | BcInsn::Cast { dst, .. }
        | BcInsn::AllocaPriv { dst, .. }
        | BcInsn::AllocaSlot { dst, .. }
        | BcInsn::AllocaLocal { dst, .. }
        | BcInsn::Load { dst, .. }
        | BcInsn::LoadSlot { dst, .. }
        | BcInsn::Gep { dst, .. }
        | BcInsn::Call { dst, .. }
        | BcInsn::WorkItem { dst, .. }
        | BcInsn::AtomicRmw { dst, .. }
        | BcInsn::AtomicCmpXchg { dst, .. } => *dst,
        BcInsn::Nop { .. }
        | BcInsn::Store { .. }
        | BcInsn::StoreSlot { .. }
        | BcInsn::Barrier
        | BcInsn::Jump { .. }
        | BcInsn::Branch { .. }
        | BcInsn::Ret { .. }
        | BcInsn::Trap(_) => NO_REG,
    }
}

/// A lowered function in block-structured form.
#[derive(Debug, Clone)]
pub(crate) struct BcFuncBody {
    name: String,
    frame_regs: usize,
    /// Scalar kind of every register, from the function's value types.
    kinds: Vec<Kind>,
    /// Registers holding a pointer into memory the work items of a group
    /// share (global, constant or local).
    shared: Vec<bool>,
    /// Size of the function's private frame in bytes.
    private_bytes: usize,
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
    /// Some reachable function does pointer arithmetic on, or casts, a
    /// private pointer — which could reach any private byte, so no
    /// variable is promoted to a register.
    private_ptr_arith: bool,
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Lower the entry kernel (and every function reachable from it) to
/// block-structured bytecode, resolving loads' types/sizes, geps' strides,
/// callee indices, static local-memory offsets and register kinds. Total:
/// constructs with no ordinary lowering become traps (see the module's
/// trap rules).
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

    let mut private_ptr_arith = false;
    let mut funcs = Vec::with_capacity(order.len());
    for (bc_idx, &func_idx) in order.iter().enumerate() {
        let func = &module.functions[func_idx];
        let is_entry = bc_idx == 0;
        let is_private = |v: &crate::ir::ValueId| {
            func.value_types.get(v.index()).and_then(Type::space) == Some(AddressSpace::Private)
        };
        let mut blocks = Vec::with_capacity(func.blocks.len());
        for (bid, block) in func.blocks.iter().enumerate() {
            let mut insns = Vec::with_capacity(block.insts.len() + 1);
            for (ip, inst) in block.insts.iter().enumerate() {
                let dst = inst.result.map(|r| r.0).unwrap_or(NO_REG);
                private_ptr_arith |= match &inst.op {
                    Op::Gep { ptr, .. } => is_private(ptr),
                    Op::Cast(ty, a) => is_private(a) || ty.space() == Some(AddressSpace::Private),
                    _ => false,
                };
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
                            off: setup.private.offset(func_idx, BlockId(bid as u32), ip),
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
                        Some(idx) if idx == setup.func_idx => trap(launched_kernel_call(callee)),
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
            kinds: func.value_types.iter().map(Kind::of).collect(),
            shared: func
                .value_types
                .iter()
                .map(|t| t.space().is_some_and(|s| s != AddressSpace::Private))
                .collect(),
            private_bytes: setup.private.frame_bytes(func_idx),
            blocks,
            template,
        });
    }
    BcModule {
        funcs,
        private_ptr_arith,
    }
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
/// offsets), dead-code elimination, slot promotion, slot forwarding and
/// no-op coalescing. All of it is weight-preserving: per-block
/// instruction-weight and memory-operation totals — and therefore
/// `DynStats`, the step limit and the timing simulator's inputs — are
/// unchanged.
pub(crate) fn optimize(bc: &mut BcModule, ndrange: NdRange) {
    for func in &mut bc.funcs {
        fold_function(func, ndrange);
        dce_function(func);
        if !bc.private_ptr_arith {
            promote_slots(func);
            forward_slots(func);
        }
        coalesce_nops(func);
    }
}

/// Fold instructions whose operands are launch-time constants. Folding
/// only fires when the interpreter's own evaluation succeeds — an
/// instruction that would trap (divide by zero, type confusion, an
/// overflowing gep) stays in place so the trap still happens if (and only
/// if) the instruction is actually executed.
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
                        (Some(Value::Ptr(p)), Some(idx)) => idx
                            .as_i64()
                            .ok()
                            .and_then(|i| gep_offset(p.byte_off, i, *stride).ok())
                            .map(|byte_off| {
                                (
                                    *dst,
                                    Value::Ptr(PtrVal {
                                        arena: p.arena,
                                        byte_off,
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
                    // AllocaPriv re-zeroes its bytes (a side effect);
                    // loads, stores, calls, atomics and barriers are never
                    // folded.
                    _ => None,
                };
                if let Some((dst, val)) = folded {
                    if dst != NO_REG {
                        known[dst as usize] = Some(val);
                        func.template[dst as usize] = Some(val);
                    }
                    *insn = BcInsn::Nop { weight: 1, mem: 0 };
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
        for insn in func.blocks.iter().flatten() {
            for_each_use(insn, |r| {
                if r != NO_REG {
                    used[r as usize] = true;
                }
            });
        }
        let mut changed = false;
        for block in &mut func.blocks {
            for insn in block.iter_mut() {
                let dead_dst = match insn {
                    // Pure and trap-free on well-typed IR. Div/Rem (divide
                    // by zero), geps (offset overflow), AllocaPriv (it
                    // zeroes its bytes), memory ops, calls, atomics and
                    // barriers are excluded; WorkItem with dim > 2 panics
                    // when executed, so it stays.
                    BcInsn::Const { dst, .. }
                    | BcInsn::Select { dst, .. }
                    | BcInsn::Un { dst, .. }
                    | BcInsn::Cmp { dst, .. }
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
                        *insn = BcInsn::Nop { weight: 1, mem: 0 };
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

/// Merge adjacent no-ops within each block into one no-op summing their
/// weights and memory operations.
/// Never merges across a non-nop instruction (barriers pause mid-block)
/// or across block boundaries (targets must stay addressable).
fn coalesce_nops(func: &mut BcFuncBody) {
    for block in &mut func.blocks {
        let mut out: Vec<BcInsn> = Vec::with_capacity(block.len());
        for insn in block.drain(..) {
            if let (
                BcInsn::Nop { weight, mem },
                Some(BcInsn::Nop {
                    weight: prev,
                    mem: prev_mem,
                }),
            ) = (&insn, out.last_mut())
            {
                *prev += weight;
                *prev_mem += mem;
                continue;
            }
            out.push(insn);
        }
        *block = out;
    }
}

/// Promote private variables to registers (see the module docs). A
/// private alloca qualifies when its pointer register is read only as the
/// address of loads and stores that all move one kind of the alloca's
/// exact byte size: never stored as a value, offset by a gep, passed to a
/// call, compared, selected, cast, returned or used atomically.
fn promote_slots(func: &mut BcFuncBody) {
    /// How a register is read.
    #[derive(Clone, Copy, PartialEq)]
    enum Access {
        Unread,
        /// Only as the address of loads/stores of this kind.
        Addr(Kind),
        Escaped,
    }
    let mut access = vec![Access::Unread; func.frame_regs];
    let kinds = &func.kinds;
    let mut note = |r: u32, how: Access| {
        if let Some(a) = access.get_mut(r as usize) {
            *a = match (*a, how) {
                (Access::Unread, how) => how,
                (Access::Addr(k), Access::Addr(k2)) if k == k2 => how,
                _ => Access::Escaped,
            };
        }
    };
    for insn in func.blocks.iter().flatten() {
        match insn {
            BcInsn::Load { ptr, ty, .. } => note(*ptr, Access::Addr(Kind::of(ty))),
            BcInsn::Store { ptr, value } => {
                let kind = kinds.get(*value as usize).copied().unwrap_or(Kind::I64);
                note(*ptr, Access::Addr(kind));
                note(*value, Access::Escaped);
            }
            other => for_each_use(other, |r| note(r, Access::Escaped)),
        }
    }
    // A promoted register holds its variable's value: it takes the value's
    // kind, and is shared when every value it holds points into shared
    // memory (so readers that slot forwarding points at it keep their
    // kinds and their uniformity).
    let BcFuncBody {
        blocks,
        kinds,
        shared,
        ..
    } = func;
    let mut promoted = vec![false; kinds.len()];
    for insn in blocks.iter_mut().flatten() {
        if let BcInsn::AllocaPriv { dst, bytes, .. } = *insn {
            let r = dst as usize;
            if let Some(&Access::Addr(k)) = access.get(r) {
                if k.size() == bytes {
                    promoted[r] = true;
                    kinds[r] = k;
                    shared[r] = k == Kind::Ptr;
                    *insn = BcInsn::AllocaSlot { dst, bytes };
                }
            }
        }
    }
    let is_slot = |r: u32| promoted.get(r as usize).copied().unwrap_or(false);
    for insn in blocks.iter_mut().flatten() {
        match insn {
            BcInsn::Load { dst, ptr, ty, .. } if is_slot(*ptr) => {
                shared[*ptr as usize] &= ty.space().is_some_and(|s| s != AddressSpace::Private);
                *insn = BcInsn::LoadSlot {
                    dst: *dst,
                    slot: *ptr,
                    ty: ty.clone(),
                };
            }
            BcInsn::Store { ptr, value } if is_slot(*ptr) => {
                let value_shared = shared.get(*value as usize).copied().unwrap_or(false);
                shared[*ptr as usize] &= value_shared;
                *insn = BcInsn::StoreSlot {
                    slot: *ptr,
                    value: *value,
                };
            }
            _ => {}
        }
    }
}

/// Forward promoted slots within each block, so that most slot copies no
/// longer run (see the module docs):
///
/// - a `load.slot d, s` goes when `d` is read only later in its block and
///   `s` is not written before `d`'s last read: the readers read `s`;
/// - a `store.slot s, v` goes when `v` is read only by it and defined
///   earlier in its block by an instruction that writes nothing but `v`,
///   with no read or write of `s` in between: that instruction writes `s`.
///
/// An instruction reads its operands before it writes, so the last reader
/// may write `s` itself. Each removed copy becomes a weight-1 no-op that
/// still counts its memory operation.
fn forward_slots(func: &mut BcFuncBody) {
    let regs = func.kinds.len();
    let (mut is_slot, mut reads, mut defs) =
        (vec![false; regs], vec![0u32; regs], vec![0u32; regs]);
    for insn in func.blocks.iter().flatten() {
        if let BcInsn::AllocaSlot { dst, .. } = insn {
            is_slot[*dst as usize] = true;
        }
        for_each_use(insn, |r| {
            if let Some(n) = reads.get_mut(r as usize) {
                *n += 1;
            }
        });
        if let Some(n) = defs.get_mut(def_of(insn) as usize) {
            *n += 1;
        }
    }
    // A register written once, by an instruction (not a slot).
    let single = |r: u32| (r as usize) < regs && !is_slot[r as usize] && defs[r as usize] == 1;
    let writes = |insn: &BcInsn, s: u32| {
        def_of(insn) == s || matches!(insn, BcInsn::StoreSlot { slot, .. } if *slot == s)
    };
    let copy = || BcInsn::Nop { weight: 1, mem: 1 };
    for block in &mut func.blocks {
        for i in 0..block.len() {
            let BcInsn::LoadSlot {
                dst: d, slot: s, ..
            } = block[i]
            else {
                continue;
            };
            if !single(d) {
                continue;
            }
            // Find `d`'s reads after the load, until a write of `s`.
            let mut left = reads[d as usize];
            let mut end = i + 1;
            while left > 0 && end < block.len() {
                let insn = &block[end];
                for_each_use(insn, |r| left -= u32::from(r == d));
                end += 1;
                if left > 0 && writes(insn, s) {
                    break;
                }
            }
            if left > 0 {
                continue;
            }
            for insn in &mut block[i + 1..end] {
                visit_uses!(insn, |r: &mut u32| {
                    if *r == d {
                        *r = s;
                    }
                });
            }
            block[i] = copy();
        }
        for k in 0..block.len() {
            let BcInsn::StoreSlot { slot: s, value: v } = block[k] else {
                continue;
            };
            if !single(v) || reads[v as usize] != 1 {
                continue;
            }
            // The last instruction before the store that defines `v` or
            // touches `s` must be `v`'s definition (which may read `s`).
            let touches = |insn: &BcInsn| {
                let mut read = false;
                for_each_use(insn, |r| read |= r == s);
                read || writes(insn, s)
            };
            let Some(j) = (0..k)
                .rev()
                .find(|&j| def_of(&block[j]) == v || touches(&block[j]))
            else {
                continue;
            };
            if let Some(dst) = pure_dst(&mut block[j]).filter(|dst| **dst == v) {
                *dst = s;
                block[k] = copy();
            }
        }
    }
}

/// The destination of an instruction that writes nothing but it.
fn pure_dst(insn: &mut BcInsn) -> Option<&mut u32> {
    match insn {
        BcInsn::Const { dst, .. }
        | BcInsn::Bin { dst, .. }
        | BcInsn::Un { dst, .. }
        | BcInsn::Cmp { dst, .. }
        | BcInsn::Select { dst, .. }
        | BcInsn::Cast { dst, .. }
        | BcInsn::Load { dst, .. }
        | BcInsn::LoadSlot { dst, .. }
        | BcInsn::Gep { dst, .. }
        | BcInsn::WorkItem { dst, .. } => Some(dst),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Quickening
// ---------------------------------------------------------------------------

/// An untagged register: a value's bits, plus a pointer's arena word (the
/// first 8 bytes of its 16-byte memory encoding: tag byte, then buffer id
/// in the high half). `bits` holds a bool as 0/1, an `i32` sign-extended,
/// a float's IEEE bits and a pointer's full-range byte offset.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Slot {
    bits: u64,
    arena: u64,
}

/// Arena words of the local and private arenas (a global buffer's word
/// is its id shifted into the high half, tag 0).
const ARENA_LOCAL: u64 = 1;
const ARENA_PRIVATE: u64 = 2;

impl Slot {
    fn int(x: i64) -> Slot {
        Slot {
            bits: x as u64,
            arena: 0,
        }
    }

    #[inline]
    fn of(v: Value) -> Slot {
        match v {
            Value::Bool(b) => Slot::int(b as i64),
            Value::I32(x) => Slot::int(x as i64),
            Value::I64(x) => Slot::int(x),
            Value::F32(x) => Slot::int(x.to_bits() as i64),
            Value::F64(x) => Slot::int(x.to_bits() as i64),
            Value::Ptr(p) => Slot {
                bits: p.byte_off as u64,
                arena: match p.arena {
                    Arena::Global(b) => (b.0 as u64) << 32,
                    Arena::Local => ARENA_LOCAL,
                    Arena::Private => ARENA_PRIVATE,
                },
            },
        }
    }

    #[inline]
    fn value(self, kind: Kind) -> Value {
        match kind {
            Kind::Bool => Value::Bool(self.bits != 0),
            Kind::I32 => Value::I32(self.bits as i32),
            Kind::I64 => Value::I64(self.bits as i64),
            Kind::F32 => Value::F32(f32::from_bits(self.bits as u32)),
            Kind::F64 => Value::F64(f64::from_bits(self.bits)),
            Kind::Ptr => Value::Ptr(PtrVal {
                arena: match (self.buffer(), self.arena) {
                    (Some(b), _) => Arena::Global(b),
                    (None, ARENA_LOCAL) => Arena::Local,
                    (None, _) => Arena::Private,
                },
                byte_off: self.bits as i64,
            }),
        }
    }

    /// The global buffer a pointer points into (`None` for the local and
    /// private arenas).
    #[inline(always)]
    fn buffer(self) -> Option<BufferId> {
        (self.arena & 0xff == 0).then_some(BufferId((self.arena >> 32) as u32))
    }

    /// Decode `kind` from its memory bytes (the tree-walker's
    /// `decode_value`, normalising a pointer's arena word the same way).
    #[inline(always)]
    fn decode(kind: Kind, bytes: &[u8]) -> Slot {
        let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        let half = || u32::from_le_bytes(bytes[..4].try_into().unwrap());
        match kind {
            Kind::Bool => Slot::int((bytes[0] != 0) as i64),
            Kind::I32 => Slot::int(half() as i32 as i64),
            Kind::F32 => Slot::int(half() as i64),
            Kind::I64 | Kind::F64 => Slot::int(word(0) as i64),
            Kind::Ptr => {
                let w = word(0);
                Slot {
                    bits: word(8),
                    arena: match w & 0xff {
                        0 => w & !0xffff_ffff,
                        1 => ARENA_LOCAL,
                        _ => ARENA_PRIVATE,
                    },
                }
            }
        }
    }

    /// Encode as `kind` into its memory bytes (the tree-walker's
    /// `encode_value`).
    #[inline(always)]
    fn encode(self, kind: Kind, out: &mut [u8]) {
        match kind {
            Kind::Bool => out[0] = self.bits as u8,
            Kind::I32 | Kind::F32 => out[..4].copy_from_slice(&(self.bits as u32).to_le_bytes()),
            Kind::I64 | Kind::F64 => out[..8].copy_from_slice(&self.bits.to_le_bytes()),
            Kind::Ptr => {
                out[..8].copy_from_slice(&self.arena.to_le_bytes());
                out[8..16].copy_from_slice(&self.bits.to_le_bytes());
            }
        }
    }
}

/// A comparison as a mask over the outcome index `2·(a > b) + (a == b)`,
/// plus 3 when a float operand is NaN (only `ne` holds then).
fn cmp_mask(op: CmpOp) -> u8 {
    match op {
        CmpOp::Lt => 0b0001,
        CmpOp::Eq => 0b0010,
        CmpOp::Le => 0b0011,
        CmpOp::Gt => 0b0100,
        CmpOp::Ne => 0b1101,
        CmpOp::Ge => 0b0110,
    }
}

#[inline(always)]
fn cmp_int(mask: u8, a: Slot, b: Slot) -> bool {
    let (x, y) = (a.bits as i64, b.bits as i64);
    mask >> (2 * (x > y) as u8 + (x == y) as u8) & 1 != 0
}

/// Compare two `f64` (`wide`) or `f32` registers.
#[inline(always)]
fn cmp_float(wide: bool, mask: u8, a: Slot, b: Slot) -> bool {
    fn cmp<F: PartialOrd>(mask: u8, x: F, y: F) -> bool {
        let nan = x.partial_cmp(&y).is_none();
        mask >> (2 * (x > y) as u8 + (x == y) as u8 + 3 * nan as u8) & 1 != 0
    }
    if wide {
        cmp(mask, f64::from_bits(a.bits), f64::from_bits(b.bits))
    } else {
        cmp(
            mask,
            f32::from_bits(a.bits as u32),
            f32::from_bits(b.bits as u32),
        )
    }
}

/// A cast between two kinds, resolved at quickening. Integer sources
/// (bool, `i32`, `i64`) all read as sign-extended `i64`.
#[derive(Debug, Clone, Copy)]
enum Conv {
    /// Same bits: `i64` from any integer, a float to itself, a pointer
    /// to a pointer.
    Copy,
    IntToI32,
    IntToF32,
    IntToF64,
    F32ToI32,
    F32ToI64,
    F32ToF64,
    F64ToI32,
    F64ToI64,
    F64ToF32,
}

impl Conv {
    fn resolve(from: Kind, to: Kind) -> Option<Conv> {
        use Kind::*;
        Some(match (from, to) {
            (Bool | I32 | I64, I64) | (F32, F32) | (F64, F64) | (Ptr, Ptr) => Conv::Copy,
            (Bool | I32 | I64, I32) => Conv::IntToI32,
            (Bool | I32 | I64, F32) => Conv::IntToF32,
            (Bool | I32 | I64, F64) => Conv::IntToF64,
            (F32, I32) => Conv::F32ToI32,
            (F32, I64) => Conv::F32ToI64,
            (F32, F64) => Conv::F32ToF64,
            (F64, I32) => Conv::F64ToI32,
            (F64, I64) => Conv::F64ToI64,
            (F64, F32) => Conv::F64ToF32,
            _ => return None,
        })
    }

    #[inline(always)]
    fn apply(self, s: Slot) -> Slot {
        let int = s.bits as i64;
        let f32_ = || f32::from_bits(s.bits as u32);
        let f64_ = || f64::from_bits(s.bits);
        let f32_bits = |x: f32| Slot::int(x.to_bits() as i64);
        let f64_bits = |x: f64| Slot::int(x.to_bits() as i64);
        match self {
            Conv::Copy => s,
            Conv::IntToI32 => Slot::int(int as i32 as i64),
            Conv::IntToF32 => f32_bits(int as f32),
            Conv::IntToF64 => f64_bits(int as f64),
            Conv::F32ToI32 => Slot::int(f32_() as i32 as i64),
            Conv::F32ToI64 => Slot::int(f32_() as i64),
            Conv::F32ToF64 => f64_bits(f32_() as f64),
            Conv::F64ToI32 => Slot::int(f64_() as i32 as i64),
            Conv::F64ToI64 => Slot::int(f64_() as i64),
            Conv::F64ToF32 => f32_bits(f64_() as f32),
        }
    }
}

/// One quickened instruction: operand kinds resolved, hot pairs fused,
/// branch targets absolute pcs. Every register field is a real register
/// (a missing destination writes the frame's sink register).
#[derive(Debug)]
enum VmInsn {
    /// `weight` folded/eliminated source instructions, `mem` of them
    /// memory operations.
    Nop {
        weight: u64,
        mem: u64,
    },
    Const {
        dst: u32,
        val: Slot,
    },
    BinI32 {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    BinI64 {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    BinF32 {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    BinF64 {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    Un {
        op: UnOp,
        kind: Kind,
        dst: u32,
        a: u32,
    },
    /// Compare two integer-like registers (see [`cmp_mask`]).
    CmpInt {
        mask: u8,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Compare two `f64` (`wide`) or `f32` registers.
    CmpFloat {
        wide: bool,
        mask: u8,
        dst: u32,
        a: u32,
        b: u32,
    },
    Select {
        dst: u32,
        cond: u32,
        a: u32,
        b: u32,
    },
    Cast {
        conv: Conv,
        dst: u32,
        a: u32,
    },
    AllocaPriv {
        dst: u32,
        off: u32,
        bytes: u32,
    },
    AllocaSlot {
        dst: u32,
    },
    Load {
        kind: Kind,
        dst: u32,
        ptr: u32,
    },
    Store {
        kind: Kind,
        ptr: u32,
        value: u32,
    },
    LoadSlot {
        dst: u32,
        slot: u32,
    },
    StoreSlot {
        slot: u32,
        value: u32,
    },
    Gep {
        dst: u32,
        ptr: u32,
        index: u32,
        stride: u32,
    },
    /// `gep = ptr + index * stride; dst = *gep` (weight 2).
    GepLoad {
        kind: Kind,
        gep: u32,
        ptr: u32,
        index: u32,
        stride: u32,
        dst: u32,
    },
    /// `gep = ptr + index * stride; *gep = value` (weight 2).
    GepStore {
        kind: Kind,
        gep: u32,
        ptr: u32,
        index: u32,
        stride: u32,
        value: u32,
    },
    /// Call through `VmProgram::calls[site]`.
    Call {
        dst: u32,
        site: u32,
    },
    WorkItem {
        dst: u32,
        builtin: WiBuiltin,
        dim: u8,
    },
    /// `wide`: 64-bit operand (else 32-bit).
    AtomicRmw {
        op: AtomicOp,
        wide: bool,
        ticket: bool,
        dst: u32,
        ptr: u32,
        value: u32,
    },
    AtomicCmpXchg {
        wide: bool,
        dst: u32,
        ptr: u32,
        expected: u32,
        desired: u32,
    },
    Barrier,
    Jump {
        target: u32,
    },
    Branch {
        cond: u32,
        then_t: u32,
        else_t: u32,
    },
    /// `dst = a <cmp> b; br dst` on integer-like operands (weight 1, two
    /// steps).
    CmpBrInt {
        mask: u8,
        dst: u32,
        a: u32,
        b: u32,
        then_t: u32,
        else_t: u32,
    },
    /// The same on float operands.
    CmpBrFloat {
        wide: bool,
        mask: u8,
        dst: u32,
        a: u32,
        b: u32,
        then_t: u32,
        else_t: u32,
    },
    /// Return `val` ([`NO_REG`] = void).
    Ret {
        val: u32,
    },
    Trap(Box<InterpError>),
}

/// Flat, pc-resolved metadata for one quickened function.
#[derive(Debug)]
struct VmFunc {
    entry_pc: u32,
    /// Size of the function's private frame in bytes.
    private_bytes: usize,
    /// The function's registers plus its sink register.
    template: Box<[Slot]>,
    /// First pc of each block.
    block_pc: Box<[u32]>,
}

/// A resolved call: callee index and argument registers (kept out of
/// line so the call instruction stays as small as the others).
#[derive(Debug)]
struct CallSite {
    func: u32,
    args: Box<[u32]>,
}

/// A quickened program: one flat instruction array for all functions.
#[derive(Debug)]
pub(crate) struct VmProgram {
    insns: Vec<VmInsn>,
    funcs: Vec<VmFunc>,
    calls: Vec<CallSite>,
}

/// A launch shape: everything of a launch that its gate answers and its
/// compiled programs depend on, so that one
/// [`LaunchRecord`](crate::analysis::LaunchRecord) serves every launch of
/// it. Buffer ids are not part of it (see [`CompiledLaunch`]).
///
/// It determines the gates' [`LaunchEnv`](crate::races::LaunchEnv):
/// `local` and `work_dim` are the NDRange's, and `groups` its group
/// counts or, under a holding dequeue contract, the virtual counts;
/// `args` holds the `i32` and `i64` scalars as `i64`, which each
/// scalar's kind and bits give; and `distinct_buffers` holds when every
/// buffer argument is the first to pass its buffer.
///
/// It also determines everything lowering, optimisation, quickening and
/// the lockstep layout read: the NDRange, the bits of every scalar
/// (floats included, since folding reads them), the element count of
/// every `local` argument, the alias pattern, and two of the record's
/// answers: whether the dequeue site takes tickets (sharding admitted
/// under a holding contract) and whether the groups run in lockstep.
#[derive(Debug, PartialEq)]
pub(crate) struct ShapeKey {
    ndrange: NdRange,
    /// Per argument: a scalar's kind and bits, a local argument's element
    /// count, or for a buffer the first argument that passes the same
    /// buffer (the launch's alias pattern).
    args: Box<[ArgKey]>,
    /// For a kernel under a holding dequeue contract, the virtual group
    /// counts read from its descriptor; `None` for other kernels, and
    /// when the descriptor does not read.
    virtual_groups: Option<[usize; 3]>,
}

#[derive(Debug, PartialEq)]
enum ArgKey {
    Scalar(std::mem::Discriminant<Value>, u64),
    Local(u32),
    Buffer(u32),
}

impl ShapeKey {
    pub(crate) fn new(
        ndrange: NdRange,
        args: &[ArgValue],
        virtual_groups: Option<[usize; 3]>,
    ) -> Self {
        let keys = args
            .iter()
            .map(|a| match a {
                ArgValue::Scalar(v) => ArgKey::Scalar(std::mem::discriminant(v), Slot::of(*v).bits),
                ArgValue::Local { elems } => ArgKey::Local(*elems),
                ArgValue::Buffer(b) => ArgKey::Buffer(
                    args.iter()
                        .position(|x| matches!(x, ArgValue::Buffer(y) if y == b))
                        .unwrap_or_default() as u32,
                ),
            })
            .collect();
        ShapeKey {
            ndrange,
            args: keys,
            virtual_groups,
        }
    }
}

/// The programs one launch shape runs: the quickened program, its lockstep
/// layout when the groups run in lockstep, and which registers of the
/// kernel frame's preamble point into which buffer argument. Compiled once
/// into its shape's record and never changed after, it serves every launch
/// of the shape, at the same time too.
///
/// Buffer ids reach a compiled program only through those registers:
/// folding keeps a pointer's arena, pointers compare by offset, and no
/// instruction holds a global pointer. The program keeps them unbound
/// (buffer 0's arena word, 0), so it depends on its shape alone; each
/// launch binds a copy of the kernel frame's preamble ([`BoundLaunch`]).
#[derive(Debug)]
pub(crate) struct CompiledLaunch {
    prog: VmProgram,
    ls: Option<lockstep::LsProgram>,
    /// `(register, argument)` pairs, recorded from the preamble's values
    /// at compile time (buffer 0's arena word is 0, an integer's too).
    buffers: Box<[(u32, u32)]>,
}

impl CompiledLaunch {
    /// Lower, optimise and quicken the launch `setup` plans, and lay it out
    /// for lockstep when `lockstep` holds.
    pub(crate) fn compile(
        module: &Module,
        setup: &LaunchSetup<'_>,
        ndrange: NdRange,
        args: &[ArgValue],
        lockstep: bool,
    ) -> Self {
        let mut bc = lower(module, setup);
        optimize(&mut bc, ndrange);
        // Only the kernel's buffer arguments point into global memory, and
        // folding keeps a pointer's arena, so every global pointer of the
        // preamble comes from the first argument passing its buffer (under
        // one alias pattern, any argument passing it binds the same).
        let mut buffers = Vec::new();
        for (r, v) in bc.funcs[0].template.iter_mut().enumerate() {
            let Some(Value::Ptr(PtrVal {
                arena: Arena::Global(b),
                ..
            })) = v
            else {
                continue;
            };
            if let Some(a) = args
                .iter()
                .position(|a| matches!(a, ArgValue::Buffer(x) if *x == *b))
            {
                buffers.push((r as u32, a as u32));
                *b = BufferId(0);
            }
        }
        let prog = quicken(&bc);
        let ls = lockstep
            .then(|| lockstep::compile(&bc, &prog, ndrange.wg_size()))
            .flatten();
        CompiledLaunch {
            prog,
            ls,
            buffers: buffers.into_boxed_slice(),
        }
    }
}

/// A launch shape's programs bound to one launch: the shared programs,
/// and this launch's copies of the kernel frame's preamble in the
/// item-by-item and the lockstep layout, their buffer registers pointing
/// into the launch's buffers. A call of the launched kernel traps, so only
/// a group start seeds a frame from these copies.
#[derive(Debug)]
pub(crate) struct BoundLaunch {
    pub(crate) compiled: Arc<CompiledLaunch>,
    /// The kernel's `VmFunc::template`, bound.
    template: Box<[Slot]>,
    /// The kernel's lockstep `LsFunc::template`, bound (empty without
    /// lockstep).
    ls_template: Box<[Slot]>,
}

impl BoundLaunch {
    /// Bind `compiled` to `args`: copy the kernel frame's preamble and
    /// point its buffer registers into `args`' buffers.
    pub(crate) fn new(compiled: Arc<CompiledLaunch>, args: &[ArgValue]) -> Self {
        let arenas: Vec<(u32, u64)> = compiled
            .buffers
            .iter()
            .map(|&(r, a)| {
                let ArgValue::Buffer(b) = args[a as usize] else {
                    unreachable!("argument {a} of this shape is a buffer");
                };
                let ptr = PtrVal {
                    arena: Arena::Global(b),
                    byte_off: 0,
                };
                (r, Slot::of(Value::Ptr(ptr)).arena)
            })
            .collect();
        let mut template = compiled.prog.funcs[0].template.clone();
        for &(r, arena) in &arenas {
            template[r as usize].arena = arena;
        }
        let ls_template = compiled
            .ls
            .as_ref()
            .map_or_else(Box::default, |ls| ls.kernel_template(&arenas));
        BoundLaunch {
            compiled,
            template,
            ls_template,
        }
    }
}

/// Quicken an optimized module: resolve every operand kind, fuse
/// compare+branch and gep+load/store pairs within a block, and lay the
/// functions out in one array with absolute branch targets.
///
/// Every frame gets one register past the highest it names (its sink,
/// written by instructions without a destination), so every register
/// field of a function's instructions, and every argument a call copies
/// into it, indexes inside its frame — the bound the VM relies on.
pub(crate) fn quicken(bc: &BcModule) -> VmProgram {
    // The sink of each function: its first register past every register
    // its instructions name and every argument index a caller fills (only
    // an unverified module names a register past its value types).
    let mut sinks: Vec<u32> = bc.funcs.iter().map(|f| f.frame_regs as u32).collect();
    for (fi, func) in bc.funcs.iter().enumerate() {
        for insn in func.blocks.iter().flatten() {
            let mut need = |r: u32| {
                if r != NO_REG {
                    sinks[fi] = sinks[fi].max(r + 1);
                }
            };
            for_each_use(insn, &mut need);
            need(def_of(insn));
            if let BcInsn::Call {
                func: callee, args, ..
            } = insn
            {
                let callee = *callee as usize;
                sinks[callee] = sinks[callee].max(args.len() as u32);
            }
        }
    }
    let mut insns: Vec<VmInsn> = Vec::new();
    let mut calls = Vec::new();
    let mut funcs = Vec::with_capacity(bc.funcs.len());
    for (func, &sink) in bc.funcs.iter().zip(&sinks) {
        let entry_pc = insns.len() as u32;
        let kind = |r: u32| func.kinds.get(r as usize).copied().unwrap_or(Kind::I64);
        let reg = |r: u32| if r == NO_REG { sink } else { r };
        let mut block_pc = Vec::with_capacity(func.blocks.len());
        for block in &func.blocks {
            block_pc.push(insns.len() as u32);
            let mut i = 0;
            while i < block.len() {
                let fused = block
                    .get(i + 1)
                    .and_then(|next| fuse(&block[i], next, kind, reg));
                match fused {
                    Some(insn) => {
                        insns.push(insn);
                        i += 2;
                    }
                    None => {
                        insns.push(quicken_one(&block[i], kind, reg, &mut calls));
                        i += 1;
                    }
                }
            }
        }
        // Resolve this function's block targets to absolute pcs.
        for insn in &mut insns[entry_pc as usize..] {
            match insn {
                VmInsn::Jump { target } => *target = block_pc[*target as usize],
                VmInsn::Branch { then_t, else_t, .. }
                | VmInsn::CmpBrInt { then_t, else_t, .. }
                | VmInsn::CmpBrFloat { then_t, else_t, .. } => {
                    *then_t = block_pc[*then_t as usize];
                    *else_t = block_pc[*else_t as usize];
                }
                _ => {}
            }
        }
        let mut template: Vec<Slot> = func
            .template
            .iter()
            .map(|v| v.map(Slot::of).unwrap_or_default())
            .collect();
        template.resize(sink as usize + 1, Slot::default());
        funcs.push(VmFunc {
            entry_pc,
            private_bytes: func.private_bytes,
            template: template.into_boxed_slice(),
            block_pc: block_pc.into_boxed_slice(),
        });
    }
    // Kept for the life of the program's facts (`CompiledLaunch`).
    insns.shrink_to_fit();
    calls.shrink_to_fit();
    VmProgram {
        insns,
        funcs,
        calls,
    }
}

/// The fused form of two adjacent instructions of one block, if they make
/// one of the fused pairs: a compare and the branch on its result, or a
/// gep and the load or store through it. The first half of each writes
/// only a register, so counting both halves' steps before the second
/// half runs leaves the step limit firing where it did (a gep, which can
/// fail, has its own step checked first).
fn fuse(
    first: &BcInsn,
    second: &BcInsn,
    kind: impl Fn(u32) -> Kind,
    reg: impl Fn(u32) -> u32,
) -> Option<VmInsn> {
    match (first, second) {
        (
            BcInsn::Cmp { op, dst, a, b },
            BcInsn::Branch {
                cond,
                then_t,
                else_t,
            },
        ) if cond == dst => {
            let (mask, dst, a, b) = (cmp_mask(*op), reg(*dst), *a, *b);
            let (then_t, else_t) = (*then_t, *else_t);
            Some(match kind(a) {
                k if k.is_int_like() => VmInsn::CmpBrInt {
                    mask,
                    dst,
                    a,
                    b,
                    then_t,
                    else_t,
                },
                k => VmInsn::CmpBrFloat {
                    wide: k == Kind::F64,
                    mask,
                    dst,
                    a,
                    b,
                    then_t,
                    else_t,
                },
            })
        }
        (
            BcInsn::Gep {
                dst,
                ptr,
                index,
                stride,
            },
            next,
        ) => {
            let (gep, ptr, index, stride) = (reg(*dst), *ptr, *index, *stride as u32);
            match next {
                BcInsn::Load {
                    dst: load_dst,
                    ptr: addr,
                    ty,
                    ..
                } if addr == dst => Some(VmInsn::GepLoad {
                    kind: Kind::of(ty),
                    gep,
                    ptr,
                    index,
                    stride,
                    dst: reg(*load_dst),
                }),
                BcInsn::Store { ptr: addr, value } if addr == dst => Some(VmInsn::GepStore {
                    kind: kind(*value),
                    gep,
                    ptr,
                    index,
                    stride,
                    value: *value,
                }),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Quicken one unfused instruction. Operand kinds a verified module
/// cannot have (arithmetic on a bool or pointer, a cast to a bool) become
/// traps.
fn quicken_one(
    insn: &BcInsn,
    kind: impl Fn(u32) -> Kind,
    reg: impl Fn(u32) -> u32,
    calls: &mut Vec<CallSite>,
) -> VmInsn {
    let ill_typed = |what: &str| VmInsn::Trap(Box::new(InterpError::Invalid(what.into())));
    match insn {
        BcInsn::Nop { weight, mem } => VmInsn::Nop {
            weight: *weight,
            mem: *mem,
        },
        BcInsn::Const { dst, val } => VmInsn::Const {
            dst: reg(*dst),
            val: Slot::of(*val),
        },
        BcInsn::Bin { op, dst, a, b } => {
            let (op, dst, a, b) = (*op, reg(*dst), *a, *b);
            match kind(a) {
                Kind::I32 => VmInsn::BinI32 { op, dst, a, b },
                Kind::I64 => VmInsn::BinI64 { op, dst, a, b },
                Kind::F32 => VmInsn::BinF32 { op, dst, a, b },
                Kind::F64 => VmInsn::BinF64 { op, dst, a, b },
                Kind::Bool | Kind::Ptr => ill_typed("binop on a non-numeric register"),
            }
        }
        BcInsn::Un { op, dst, a } => VmInsn::Un {
            op: *op,
            kind: kind(*a),
            dst: reg(*dst),
            a: *a,
        },
        BcInsn::Cmp { op, dst, a, b } => {
            let (mask, dst, a, b) = (cmp_mask(*op), reg(*dst), *a, *b);
            match kind(a) {
                k if k.is_int_like() => VmInsn::CmpInt { mask, dst, a, b },
                k => VmInsn::CmpFloat {
                    wide: k == Kind::F64,
                    mask,
                    dst,
                    a,
                    b,
                },
            }
        }
        BcInsn::Select { dst, cond, a, b } => VmInsn::Select {
            dst: reg(*dst),
            cond: *cond,
            a: *a,
            b: *b,
        },
        BcInsn::Cast { dst, ty, a } => match Conv::resolve(kind(*a), Kind::of(ty)) {
            Some(conv) => VmInsn::Cast {
                conv,
                dst: reg(*dst),
                a: *a,
            },
            None => ill_typed("cast between incompatible kinds"),
        },
        // `PrivateFrames` keeps every frame within 32-bit offsets.
        BcInsn::AllocaPriv { dst, off, bytes } => VmInsn::AllocaPriv {
            dst: reg(*dst),
            off: *off as u32,
            bytes: *bytes as u32,
        },
        BcInsn::AllocaSlot { dst, .. } => VmInsn::AllocaSlot { dst: *dst },
        BcInsn::AllocaLocal { dst, off } => VmInsn::Const {
            dst: reg(*dst),
            val: Slot::of(Value::Ptr(PtrVal {
                arena: Arena::Local,
                byte_off: *off as i64,
            })),
        },
        BcInsn::Load { dst, ptr, ty, .. } => VmInsn::Load {
            kind: Kind::of(ty),
            dst: reg(*dst),
            ptr: *ptr,
        },
        BcInsn::LoadSlot { dst, slot, .. } => VmInsn::LoadSlot {
            dst: reg(*dst),
            slot: *slot,
        },
        BcInsn::Store { ptr, value } => VmInsn::Store {
            kind: kind(*value),
            ptr: *ptr,
            value: *value,
        },
        BcInsn::StoreSlot { slot, value } => VmInsn::StoreSlot {
            slot: *slot,
            value: *value,
        },
        BcInsn::Gep {
            dst,
            ptr,
            index,
            stride,
        } => VmInsn::Gep {
            dst: reg(*dst),
            ptr: *ptr,
            index: *index,
            stride: *stride as u32,
        },
        BcInsn::Call { dst, func, args } => {
            calls.push(CallSite {
                func: *func,
                args: args.clone(),
            });
            VmInsn::Call {
                dst: reg(*dst),
                site: calls.len() as u32 - 1,
            }
        }
        BcInsn::WorkItem { dst, builtin, dim } => VmInsn::WorkItem {
            dst: reg(*dst),
            builtin: *builtin,
            dim: *dim,
        },
        BcInsn::AtomicRmw {
            op,
            dst,
            ptr,
            value,
            ticket,
        } => VmInsn::AtomicRmw {
            op: *op,
            wide: kind(*value) == Kind::I64,
            ticket: *ticket,
            dst: reg(*dst),
            ptr: *ptr,
            value: *value,
        },
        BcInsn::AtomicCmpXchg {
            dst,
            ptr,
            expected,
            desired,
        } => VmInsn::AtomicCmpXchg {
            wide: kind(*desired) == Kind::I64,
            dst: reg(*dst),
            ptr: *ptr,
            expected: *expected,
            desired: *desired,
        },
        BcInsn::Barrier => VmInsn::Barrier,
        BcInsn::Jump { target } => VmInsn::Jump { target: *target },
        BcInsn::Branch {
            cond,
            then_t,
            else_t,
        } => VmInsn::Branch {
            cond: *cond,
            then_t: *then_t,
            else_t: *else_t,
        },
        BcInsn::Ret { val } => VmInsn::Ret { val: *val },
        BcInsn::Trap(err) => VmInsn::Trap(err.clone()),
    }
}

// ---------------------------------------------------------------------------
// VM
// ---------------------------------------------------------------------------

/// A suspended caller frame.
struct VmFrame {
    /// Where the caller resumes.
    ret_pc: u32,
    /// The caller's first register on the call stack (unused for the
    /// kernel's frame).
    base: u32,
    /// Caller register receiving the return value.
    ret_dst: u32,
    /// Where the caller's private frame starts in the item's arena.
    private_base: usize,
}

/// A work item's execution state (mirrors the tree-walker's `WorkItem`).
struct BcItem {
    ctx: WiCtx,
    /// The kernel frame's registers.
    root: Vec<Slot>,
    /// The item's callee frames while it waits at a barrier inside a call
    /// (empty otherwise; a running item's callee frames are on the
    /// group's call stack).
    saved: Vec<Slot>,
    /// Suspended callers, innermost last (empty in the kernel's frame).
    frames: Vec<VmFrame>,
    /// The private frames of the kernel and of every active call (see
    /// the tree-walker's `WorkItem`).
    private: Vec<u8>,
    status: WiStatus,
    steps: u64,
    /// Where the item resumes after a barrier, its frame's base and its
    /// private frame's base.
    pc: u32,
    base: u32,
    private_base: usize,
}

/// Reusable per-work-group VM state: the shared local arena, the work
/// items, and the call stack the running item's callee frames live on
/// (items run one at a time, so only the running item has callee frames
/// there).
#[derive(Default)]
pub(crate) struct BcScratch {
    local: Vec<u8>,
    items: Vec<BcItem>,
    call_stack: Vec<Slot>,
    lockstep: lockstep::LsScratch,
}

#[inline(always)]
fn bc_bytes<'a>(
    gmem: &'a GlobalMem<'_>,
    local: &'a [u8],
    private: &'a [u8],
    p: Slot,
    size: usize,
) -> Result<&'a [u8], InterpError> {
    let off = p.bits as i64;
    let (storage, what): (&[u8], &str) = match (p.buffer(), p.arena) {
        (Some(b), _) => return gmem.bytes(b, off, size),
        (None, ARENA_LOCAL) => (local, "local memory"),
        (None, _) => (private, "private memory"),
    };
    bounds(storage.len(), off, size, what)?;
    let off = off as usize;
    Ok(&storage[off..off + size])
}

#[inline(always)]
fn bc_bytes_mut<'a>(
    gmem: &'a GlobalMem<'_>,
    local: &'a mut [u8],
    private: &'a mut [u8],
    p: Slot,
    size: usize,
) -> Result<&'a mut [u8], InterpError> {
    let off = p.bits as i64;
    let (storage, what): (&mut [u8], &str) = match (p.buffer(), p.arena) {
        (Some(b), _) => return gmem.bytes_mut(b, off, size),
        (None, ARENA_LOCAL) => (local, "local memory"),
        (None, _) => (private, "private memory"),
    };
    bounds(storage.len(), off, size, what)?;
    let off = off as usize;
    Ok(&mut storage[off..off + size])
}

/// `p + index * stride` (a gep), an error if the offset overflows `i64`.
#[inline(always)]
fn gep(p: Slot, index: Slot, stride: u32) -> Result<Slot, InterpError> {
    Ok(Slot {
        bits: gep_offset(p.bits as i64, index.bits as i64, stride as usize)? as u64,
        arena: p.arena,
    })
}

/// Run one work group of the launch: in lockstep when its programs have
/// a lockstep layout, otherwise item by item (mirroring the tree-walker's
/// `run_work_group`: same item order, same barrier round-robin, same
/// divergence error).
#[allow(clippy::too_many_arguments)]
fn run_bc_group(
    launch: &BoundLaunch,
    gmem: &GlobalMem<'_>,
    step_limit: u64,
    ndrange: NdRange,
    local_bytes: usize,
    tickets: Option<&Tickets>,
    group_id: [usize; 3],
    scratch: &mut BcScratch,
    stats: &mut DynStats,
) -> Result<u64, InterpError> {
    let BcScratch {
        local,
        items,
        call_stack,
        lockstep: ls_scratch,
    } = scratch;
    let mut cursor = tickets.map(|t| t.worker(flat_index(ndrange.num_groups(), group_id)));
    local.clear();
    local.resize(local_bytes, 0);
    let prog = &launch.compiled.prog;
    if let Some(ls) = &launch.compiled.ls {
        return lockstep::run_group(
            ls,
            prog,
            &launch.ls_template,
            gmem,
            step_limit,
            ndrange,
            local,
            cursor.as_mut(),
            group_id,
            ls_scratch,
            stats,
        );
    }
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
                if idx == items.len() {
                    items.push(BcItem {
                        ctx,
                        root: Vec::new(),
                        saved: Vec::new(),
                        frames: Vec::new(),
                        private: Vec::new(),
                        status: WiStatus::Running,
                        steps: 0,
                        pc: 0,
                        base: 0,
                        private_base: 0,
                    });
                }
                let item = &mut items[idx];
                item.ctx = ctx;
                item.status = WiStatus::Running;
                item.steps = 0;
                item.private.clear();
                item.private.resize(entry.private_bytes, 0);
                item.frames.clear();
                item.root.clear();
                item.root.extend_from_slice(&launch.template);
                item.pc = entry.entry_pc;
                item.base = 0;
                item.private_base = 0;
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
            // Resume inside a call: bring the callee frames back onto the
            // (empty) call stack, at the bases its frames recorded.
            debug_assert!(call_stack.is_empty());
            if !item.saved.is_empty() {
                call_stack.append(&mut item.saved);
            }
            run_bc_item(
                prog,
                gmem,
                local,
                call_stack,
                step_limit,
                ndrange,
                item,
                stats,
                &mut wg_insns,
                cursor.as_mut(),
            )?;
            // Paused inside a call: keep the callee frames with the item.
            if !call_stack.is_empty() {
                item.saved.append(call_stack);
            }
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
/// source instruction, control flow included, counted before it runs;
/// no-ops count their weight, fused pairs both halves).
#[allow(clippy::too_many_arguments)]
fn run_bc_item(
    prog: &VmProgram,
    gmem: &GlobalMem<'_>,
    local: &mut [u8],
    call_stack: &mut Vec<Slot>,
    step_limit: u64,
    ndrange: NdRange,
    item: &mut BcItem,
    stats: &mut DynStats,
    wg_insns: &mut u64,
    mut tickets: Option<&mut TicketCursor>,
) -> Result<(), InterpError> {
    let BcItem {
        ctx,
        root,
        frames,
        private,
        status,
        steps: saved_steps,
        pc: saved_pc,
        base: saved_base,
        private_base: saved_private_base,
        ..
    } = item;
    let code = &prog.insns[..];
    let mut pc = *saved_pc as usize;
    let mut base = *saved_base as usize;
    let mut private_base = *saved_private_base;
    let mut steps = *saved_steps;
    // Counters kept in registers and published when the item pauses or
    // finishes (an error discards the launch's statistics).
    let mut insns: u64 = 0;
    let mut mem_ops: u64 = 0;
    let mut atomic_ops: u64 = 0;
    // The current frame's first register: the kernel frame's `root`, or
    // `call_stack[base..]` inside a call. Re-derived after every call and
    // return, the only places `root` or `call_stack` change while the item
    // runs.
    macro_rules! frame_ptr {
        () => {
            if frames.is_empty() {
                root.as_mut_ptr()
            } else {
                // SAFETY: a callee frame starts inside `call_stack`.
                unsafe { call_stack.as_mut_ptr().add(base) }
            }
        };
    }
    let mut fp = frame_ptr!();
    // SAFETY (every `r!`): `fp` points at the current frame's registers,
    // as many as its function's template, which `quicken` sized one past
    // every register the function's instructions name.
    macro_rules! r {
        ($reg:expr) => {
            *unsafe { &mut *fp.add($reg as usize) }
        };
    }
    macro_rules! check_steps {
        () => {
            if steps > step_limit {
                return Err(InterpError::StepLimitExceeded(step_limit));
            }
        };
    }
    macro_rules! publish {
        () => {
            *saved_pc = pc as u32;
            *saved_base = base as u32;
            *saved_private_base = private_base;
            *saved_steps = steps;
            *wg_insns += insns;
            stats.mem_ops += mem_ops;
            stats.atomic_ops += atomic_ops;
        };
    }
    loop {
        steps += 1;
        check_steps!();
        let insn = &code[pc];
        pc += 1;
        match insn {
            VmInsn::Nop { weight, mem } => {
                // Stands for `weight` source instructions: the dispatch
                // above already counted one step.
                steps += weight - 1;
                check_steps!();
                insns += weight;
                mem_ops += mem;
            }
            VmInsn::Jump { target } => pc = *target as usize,
            VmInsn::Branch {
                cond,
                then_t,
                else_t,
            } => {
                pc = if r!(*cond).bits != 0 {
                    *then_t
                } else {
                    *else_t
                } as usize;
            }
            VmInsn::CmpBrInt {
                mask,
                dst,
                a,
                b,
                then_t,
                else_t,
            } => {
                // The compare is pure and cannot fail: count the branch's
                // step before either half runs.
                steps += 1;
                check_steps!();
                insns += 1;
                let c = cmp_int(*mask, r!(*a), r!(*b));
                r!(*dst) = Slot::int(c as i64);
                pc = if c { *then_t } else { *else_t } as usize;
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
                steps += 1;
                check_steps!();
                insns += 1;
                let c = cmp_float(*wide, *mask, r!(*a), r!(*b));
                r!(*dst) = Slot::int(c as i64);
                pc = if c { *then_t } else { *else_t } as usize;
            }
            VmInsn::Ret { val } => {
                let rv = (*val != NO_REG).then(|| r!(*val));
                let Some(caller) = frames.pop() else {
                    *status = WiStatus::Done;
                    publish!();
                    return Ok(());
                };
                call_stack.truncate(base);
                private.truncate(private_base);
                pc = caller.ret_pc as usize;
                base = caller.base as usize;
                private_base = caller.private_base;
                fp = frame_ptr!();
                if let Some(v) = rv {
                    r!(caller.ret_dst) = v;
                }
            }
            VmInsn::Const { dst, val } => {
                insns += 1;
                r!(*dst) = *val;
            }
            VmInsn::BinI32 { op, dst, a, b } => {
                insns += 1;
                let v = bin_i32(*op, r!(*a).bits as i32, r!(*b).bits as i32)?;
                r!(*dst) = Slot::int(v as i64);
            }
            VmInsn::BinI64 { op, dst, a, b } => {
                insns += 1;
                let v = bin_i64(*op, r!(*a).bits as i64, r!(*b).bits as i64)?;
                r!(*dst) = Slot::int(v);
            }
            VmInsn::BinF32 { op, dst, a, b } => {
                insns += 1;
                let (x, y) = (r!(*a).bits as u32, r!(*b).bits as u32);
                let v = bin_f32(*op, f32::from_bits(x), f32::from_bits(y))?;
                r!(*dst) = Slot::int(v.to_bits() as i64);
            }
            VmInsn::BinF64 { op, dst, a, b } => {
                insns += 1;
                let (x, y) = (r!(*a).bits, r!(*b).bits);
                let v = bin_f64(*op, f64::from_bits(x), f64::from_bits(y))?;
                r!(*dst) = Slot::int(v.to_bits() as i64);
            }
            VmInsn::Un { op, kind, dst, a } => {
                insns += 1;
                r!(*dst) = Slot::of(eval_un(*op, r!(*a).value(*kind))?);
            }
            VmInsn::CmpInt { mask, dst, a, b } => {
                insns += 1;
                r!(*dst) = Slot::int(cmp_int(*mask, r!(*a), r!(*b)) as i64);
            }
            VmInsn::CmpFloat {
                wide,
                mask,
                dst,
                a,
                b,
            } => {
                insns += 1;
                r!(*dst) = Slot::int(cmp_float(*wide, *mask, r!(*a), r!(*b)) as i64);
            }
            VmInsn::Select { dst, cond, a, b } => {
                insns += 1;
                r!(*dst) = if r!(*cond).bits != 0 { r!(*a) } else { r!(*b) };
            }
            VmInsn::Cast { conv, dst, a } => {
                insns += 1;
                r!(*dst) = conv.apply(r!(*a));
            }
            VmInsn::AllocaPriv { dst, off, bytes } => {
                insns += 1;
                let at = private_base + *off as usize;
                private[at..at + *bytes as usize].fill(0);
                r!(*dst) = Slot {
                    bits: at as u64,
                    arena: ARENA_PRIVATE,
                };
            }
            VmInsn::AllocaSlot { dst } => {
                insns += 1;
                r!(*dst) = Slot::default();
            }
            VmInsn::Load { kind, dst, ptr } => {
                insns += 1;
                mem_ops += 1;
                let bytes = bc_bytes(gmem, local, private, r!(*ptr), kind.size())?;
                r!(*dst) = Slot::decode(*kind, bytes);
            }
            VmInsn::Store { kind, ptr, value } => {
                insns += 1;
                mem_ops += 1;
                let bytes = bc_bytes_mut(gmem, local, private, r!(*ptr), kind.size())?;
                r!(*value).encode(*kind, bytes);
            }
            VmInsn::LoadSlot { dst, slot } => {
                insns += 1;
                mem_ops += 1;
                r!(*dst) = r!(*slot);
            }
            VmInsn::StoreSlot { slot, value } => {
                insns += 1;
                mem_ops += 1;
                r!(*slot) = r!(*value);
            }
            VmInsn::Gep {
                dst,
                ptr,
                index,
                stride,
            } => {
                insns += 1;
                r!(*dst) = gep(r!(*ptr), r!(*index), *stride)?;
            }
            VmInsn::GepLoad {
                kind,
                gep: gep_dst,
                ptr,
                index,
                stride,
                dst,
            } => {
                // The gep can fail (offset overflow), so the load's step
                // is counted only once it has succeeded.
                let addr = gep(r!(*ptr), r!(*index), *stride)?;
                r!(*gep_dst) = addr;
                steps += 1;
                check_steps!();
                insns += 2;
                mem_ops += 1;
                let bytes = bc_bytes(gmem, local, private, addr, kind.size())?;
                r!(*dst) = Slot::decode(*kind, bytes);
            }
            VmInsn::GepStore {
                kind,
                gep: gep_dst,
                ptr,
                index,
                stride,
                value,
            } => {
                let addr = gep(r!(*ptr), r!(*index), *stride)?;
                r!(*gep_dst) = addr;
                steps += 1;
                check_steps!();
                insns += 2;
                mem_ops += 1;
                let bytes = bc_bytes_mut(gmem, local, private, addr, kind.size())?;
                r!(*value).encode(*kind, bytes);
            }
            VmInsn::Call { dst, site } => {
                insns += 1;
                if frames.len() == MAX_CALL_DEPTH {
                    return Err(InterpError::CallDepthExceeded(MAX_CALL_DEPTH));
                }
                let CallSite { func, args } = &prog.calls[*site as usize];
                let callee = &prog.funcs[*func as usize];
                let callee_base = call_stack.len();
                call_stack.extend_from_slice(&callee.template);
                // The extension may have moved the caller's frame.
                fp = frame_ptr!();
                let callee_regs = call_stack.as_mut_ptr();
                for (i, a) in args.iter().enumerate() {
                    let v = r!(*a);
                    // SAFETY: `quicken` sizes a callee's frame past every
                    // argument a call copies into it.
                    unsafe { *callee_regs.add(callee_base + i) = v };
                }
                frames.push(VmFrame {
                    ret_pc: pc as u32,
                    base: base as u32,
                    ret_dst: *dst,
                    private_base,
                });
                private_base = private.len();
                private.resize(private_base + callee.private_bytes, 0);
                pc = callee.entry_pc as usize;
                base = callee_base;
                fp = frame_ptr!();
            }
            VmInsn::WorkItem { dst, builtin, dim } => {
                insns += 1;
                let d = *dim as usize;
                let v = match builtin {
                    WiBuiltin::GlobalId => ctx.global_id[d],
                    WiBuiltin::LocalId => ctx.local_id[d],
                    WiBuiltin::GroupId => ctx.group_id[d],
                    WiBuiltin::GlobalSize => ndrange.global[d],
                    WiBuiltin::LocalSize => ndrange.local[d],
                    WiBuiltin::NumGroups => ndrange.num_groups()[d],
                    WiBuiltin::WorkDim => ndrange.work_dim as usize,
                };
                r!(*dst) = Slot::int(v as i64);
            }
            VmInsn::AtomicRmw {
                op,
                wide,
                ticket,
                dst,
                ptr,
                value,
            } => {
                insns += 1;
                atomic_ops += 1;
                let p = r!(*ptr);
                let operand = r!(*value).bits as i64;
                let off = p.bits as i64;
                let old = if let Some(b) = p.buffer() {
                    use std::sync::atomic::Ordering::SeqCst;
                    if *wide {
                        let cell = gmem.atomic_u64(b, off)?;
                        let prev = cell
                            .fetch_update(SeqCst, SeqCst, |cur| {
                                Some(apply_atomic(*op, cur as i64, operand) as u64)
                            })
                            .unwrap_or_else(|e| e);
                        prev as i64
                    } else {
                        let operand = operand as i32 as i64;
                        let cell = gmem.atomic_u32(b, off)?;
                        let prev = cell
                            .fetch_update(SeqCst, SeqCst, |cur| {
                                Some(apply_atomic(*op, cur as i32 as i64, operand) as i32 as u32)
                            })
                            .unwrap_or_else(|e| e);
                        prev as i32 as i64
                    }
                } else {
                    let size = if *wide { 8 } else { 4 };
                    let bytes = bc_bytes_mut(gmem, local, private, p, size)?;
                    if *wide {
                        let old = i64::from_le_bytes(bytes[..8].try_into().unwrap());
                        let new = apply_atomic(*op, old, operand);
                        bytes[..8].copy_from_slice(&new.to_le_bytes());
                        old
                    } else {
                        let old = i32::from_le_bytes(bytes[..4].try_into().unwrap());
                        let new = apply_atomic(*op, old as i64, operand as i32 as i64) as i32;
                        bytes[..4].copy_from_slice(&new.to_le_bytes());
                        old as i64
                    }
                };
                r!(*dst) = match tickets.as_deref_mut() {
                    Some(cursor) if *ticket => Slot::of(cursor.take()),
                    _ => Slot::int(old),
                };
            }
            VmInsn::AtomicCmpXchg {
                wide,
                dst,
                ptr,
                expected,
                desired,
            } => {
                insns += 1;
                atomic_ops += 1;
                let p = r!(*ptr);
                let exp = r!(*expected).bits as i64;
                let des = r!(*desired).bits as i64;
                let off = p.bits as i64;
                let old = if let Some(b) = p.buffer() {
                    use std::sync::atomic::Ordering::SeqCst;
                    if *wide {
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
                    }
                } else {
                    let size = if *wide { 8 } else { 4 };
                    let bytes = bc_bytes_mut(gmem, local, private, p, size)?;
                    if *wide {
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
                    }
                };
                r!(*dst) = Slot::int(old);
            }
            VmInsn::Barrier => {
                insns += 1;
                stats.barriers += 1;
                *status = WiStatus::AtBarrier;
                publish!();
                return Ok(());
            }
            // The error ends the launch, so the trap's weight never
            // reaches `DynStats`; the dispatch above counted its step.
            VmInsn::Trap(err) => return Err((**err).clone()),
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

/// Render a block-structured module as stable, diffable text (the
/// golden-snapshot and `repro disasm` format): one program-wide pc per
/// instruction, branch targets as the pcs of their blocks.
pub(crate) fn disassemble(bc: &BcModule) -> String {
    use std::fmt::Write as _;
    let mut pc = 0u32;
    let block_pc: Vec<Vec<u32>> = bc
        .funcs
        .iter()
        .map(|f| {
            f.blocks
                .iter()
                .map(|b| {
                    let start = pc;
                    pc += b.len() as u32;
                    start
                })
                .collect()
        })
        .collect();
    let mut out = String::new();
    for (fi, func) in bc.funcs.iter().enumerate() {
        let at = |block: u32| block_pc[fi][block as usize];
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
        for (block, &start) in func.blocks.iter().zip(&block_pc[fi]) {
            for (i, insn) in block.iter().enumerate() {
                let text = match insn {
                    BcInsn::Nop { weight, mem: 0 } => format!("nop x{weight}"),
                    BcInsn::Nop { weight, mem } => format!("nop x{weight} (mem {mem})"),
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
                    BcInsn::AllocaPriv { dst, bytes, .. } => {
                        format!("{} = alloca.priv {bytes}", fmt_reg(*dst))
                    }
                    BcInsn::AllocaSlot { dst, bytes } => {
                        format!("{} = alloca.slot {bytes}", fmt_reg(*dst))
                    }
                    BcInsn::AllocaLocal { dst, off } => {
                        format!("{} = alloca.local @{off}", fmt_reg(*dst))
                    }
                    BcInsn::Load { dst, ptr, ty, .. } => {
                        format!("{} = load {ty}, {}", fmt_reg(*dst), fmt_reg(*ptr))
                    }
                    BcInsn::LoadSlot { dst, slot, ty } => {
                        format!("{} = load.slot {ty}, {}", fmt_reg(*dst), fmt_reg(*slot))
                    }
                    BcInsn::Store { ptr, value } => {
                        format!("store {}, {}", fmt_reg(*ptr), fmt_reg(*value))
                    }
                    BcInsn::StoreSlot { slot, value } => {
                        format!("store.slot {}, {}", fmt_reg(*slot), fmt_reg(*value))
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
                    BcInsn::Jump { target } => format!("jump @{}", at(*target)),
                    BcInsn::Branch {
                        cond,
                        then_t,
                        else_t,
                    } => format!("br {}, @{}, @{}", fmt_reg(*cond), at(*then_t), at(*else_t)),
                    BcInsn::Ret { val } => {
                        if *val == NO_REG {
                            "ret".to_string()
                        } else {
                            format!("ret {}", fmt_reg(*val))
                        }
                    }
                    BcInsn::Trap(err) => format!("trap {err}"),
                };
                let _ = writeln!(out, "  {:>4}: {text}", start as usize + i);
            }
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
    /// constructed interpreters default to [`ExecTier::BytecodeOpt`].
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
    /// local memory within capacity, at any range.
    pub fn bytecode_supported(
        &self,
        mem: &DeviceMemory,
        kernel: &str,
        _ndrange: NdRange,
        args: &[ArgValue],
    ) -> bool {
        self.plan(mem, kernel, args).is_ok()
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
        let setup = self.plan(mem, kernel, args)?;
        let raw = lower(self.module, &setup);
        let mut opt = raw.clone();
        optimize(&mut opt, ndrange);
        Ok(format!(
            "== lowered ==\n{}\n== optimized ==\n{}",
            disassemble(&raw),
            disassemble(&opt)
        ))
    }

    /// Render the programs this launch runs on the bytecode tier (the
    /// quickened program with its preamble, the lockstep layout when the
    /// groups run in lockstep, the preamble's buffer registers, and the
    /// launch's bound copies of the kernel frame's preamble) as `Debug`
    /// text, after a first line that says whether they came from the
    /// facts' record of this launch shape or were compiled afresh (into
    /// it).
    ///
    /// # Errors
    ///
    /// Returns [`InterpError`] when the launch does not plan.
    pub fn compiled_listing(
        &self,
        mem: &DeviceMemory,
        kernel: &str,
        ndrange: NdRange,
        args: &[ArgValue],
    ) -> Result<String, InterpError> {
        let mut setup = self.plan(mem, kernel, args)?;
        let gate = self.gate(Some(mem), kernel, ndrange, args);
        let (launch, memoised) = self.bind_launch(&gate, &mut setup, ndrange, args);
        Ok(format!("memoised: {memoised}\n{launch:#?}"))
    }

    /// This launch's shape's programs, from its record (and `true`) or
    /// compiled into it, bound to `args`. Launches of one shape at once
    /// compile it once: the others wait for it. `setup` takes the gate's
    /// dequeue tickets first, so a stored program depends on its record
    /// alone.
    pub(crate) fn bind_launch(
        &self,
        gate: &LaunchGate<'_>,
        setup: &mut LaunchSetup<'_>,
        ndrange: NdRange,
        args: &[ArgValue],
    ) -> (BoundLaunch, bool) {
        setup.tickets = gate.sharding().1;
        let mut memoised = true;
        let compiled = gate.record.compiled.get_or_init(|| {
            memoised = false;
            let compiled =
                CompiledLaunch::compile(self.module, setup, ndrange, args, gate.lockstep());
            Arc::new(compiled)
        });
        (BoundLaunch::new(Arc::clone(compiled), args), memoised)
    }

    /// Execute `kernel` like [`run_kernel`](Self::run_kernel) on the
    /// selected [`ExecTier`].
    ///
    /// The bytecode tier shards independent work groups across up to
    /// `threads` OS threads (the calling thread and `threads - 1` helpers
    /// it keeps parked between launches) when the `accelcheck` race
    /// analysis proves the launch free of cross-group races — provably
    /// disjoint global writes,
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
    /// A launch [`lockstep_eligible_in`](Self::lockstep_eligible_in)
    /// admits runs each group's items in lockstep (see the
    /// [module docs](crate::bytecode)), sharded or not.
    ///
    /// Successful runs are bit-identical to `run_kernel`: memory bytes and
    /// every `DynStats` counter (work groups of a race-free kernel touch
    /// disjoint global bytes, and per-group statistics are merged in flat
    /// group order). On error, the lowest-numbered failing group's error is
    /// returned (within it, the lowest-numbered item's), but — unlike the
    /// sequential path, which stops at the first failing group — groups
    /// after the failing one, and in lockstep items after the failing one,
    /// may already have executed.
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
        let mut setup = self.plan(mem, kernel, args)?;
        let total = ndrange.total_groups();
        let threads = threads.min(total).max(1);
        let gate = self.gate(Some(mem), kernel, ndrange, args);
        let (eligible, tickets) = gate.sharding();
        setup.tickets = tickets;
        if self.tier == ExecTier::TreeWalk {
            return self.run_groups_seq(mem, &setup, ndrange, None);
        }
        let (launch, _) = self.bind_launch(&gate, &mut setup, ndrange, args);
        let step_limit = self.config.step_limit;
        let local_bytes = setup.local_bytes;
        let gmem = GlobalMem::new(mem);
        let run = |gid: [usize; 3], scratch: &mut BcScratch, stats: &mut DynStats| {
            run_bc_group(
                &launch,
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
    use crate::ir::{BinOp, CmpOp, FunctionKind, Module, ValueId, WiBuiltin};
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
        let setup = interp.plan(&mem, "saxpy_n", &args).unwrap();
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
                BcInsn::Nop { weight, .. } => *weight,
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
            let interp = Interpreter::new(&m);
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
        // The executed instruction is 24 bytes (and must stay within 32):
        // an unboxed `InterpError`, or a quickened or fused form carrying
        // more operands, would widen every instruction of every program.
        assert_eq!(std::mem::size_of::<VmInsn>(), 24);
    }

    /// One extra use of the probed variable's pointer, or a malformed
    /// access to it.
    #[derive(Debug, Clone, Copy)]
    enum Probe {
        Plain,
        Gep,
        CallArg,
        StoredAsValue,
        Cmp,
        Select,
        Cast,
        KindMismatch,
        SizeMismatch,
        Array,
    }

    /// `kernel k(global i32* out)` with a control variable `c` and the
    /// probed variable `x` (both private, stored and loaded), `probe`
    /// applied to `x`, and `out[gid]` depending on every load. Returns
    /// whether `x` and `c` are promoted in the optimized disassembly.
    fn promotion_probe(probe: Probe) -> (bool, bool) {
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::I32));
        let c = b.alloca(Type::I32, 1, AddressSpace::Private);
        let (elem, count) = match probe {
            Probe::SizeMismatch => (Type::I64, 1),
            Probe::Array => (Type::I32, 2),
            _ => (Type::I32, 1),
        };
        let x = b.alloca(elem, count, AddressSpace::Private);
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let v = b.cast(Type::I32, gid);
        b.store(c, v);
        b.store(x, v);
        let lc = b.load(c);
        let lx = b.load(x);
        let mut sum = b.bin(BinOp::Add, lc, lx);
        let pi32 = Type::ptr(AddressSpace::Private, Type::I32);
        let extra = match probe {
            Probe::Gep => {
                let zero = b.const_i64(0);
                let q = b.gep(x, zero);
                Some(b.load(q))
            }
            Probe::CallArg => {
                b.call("h", vec![x], Type::Void);
                None
            }
            Probe::StoredAsValue => {
                let pp = b.alloca(pi32.clone(), 1, AddressSpace::Private);
                b.store(pp, x);
                None
            }
            Probe::Cmp => {
                let same = b.cmp(CmpOp::Eq, x, x);
                Some(b.cast(Type::I32, same))
            }
            Probe::Select => {
                let odd = b.cmp(CmpOp::Gt, gid, gid);
                let q = b.select(odd, x, x);
                Some(b.load(q))
            }
            Probe::Cast => {
                let q = b.cast(pi32.clone(), x);
                Some(b.load(q))
            }
            _ => None,
        };
        if let Some(e) = extra {
            sum = b.bin(BinOp::Add, sum, e);
        }
        let p = b.gep(out, gid);
        b.store(p, sum);
        b.ret(None);
        let mut kernel = b.finish();
        // The malformed accesses: the load of `x` moves a kind (or a size)
        // other than the store's.
        match probe {
            Probe::KindMismatch => kernel.value_types[lx.index()] = Type::F32,
            Probe::SizeMismatch => kernel.value_types[lx.index()] = Type::I32,
            _ => {}
        }
        let mut m = Module::new();
        m.insert_function(kernel);
        let mut h = FunctionBuilder::new("h", FunctionKind::Helper, Type::Void);
        h.add_param("p", pi32);
        h.ret(None);
        m.insert_function(h.finish());

        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(16);
        let text = Interpreter::new(&m)
            .disassemble_kernel(&mem, "k", NdRange::new_1d(4, 4), &[ArgValue::Buffer(buf)])
            .unwrap();
        let optimized = &text[text.find("== optimized ==").unwrap()..];
        let slot = |r: ValueId| optimized.contains(&format!("r{} = alloca.slot", r.0));
        let cell = |r: ValueId| optimized.contains(&format!("r{} = alloca.priv", r.0));
        assert!(slot(x) != cell(x) && slot(c) != cell(c), "{optimized}");
        (slot(x), slot(c))
    }

    #[test]
    fn only_address_only_scalar_cells_are_promoted() {
        assert_eq!(promotion_probe(Probe::Plain), (true, true));
        for probe in [
            Probe::CallArg,
            Probe::StoredAsValue,
            Probe::Cmp,
            Probe::Select,
            Probe::KindMismatch,
            Probe::SizeMismatch,
            Probe::Array,
        ] {
            assert_eq!(promotion_probe(probe), (false, true), "{probe:?}");
        }
        // Pointer arithmetic on (or a cast of) any private pointer could
        // reach every variable's bytes: nothing is promoted.
        for probe in [Probe::Gep, Probe::Cast] {
            assert_eq!(promotion_probe(probe), (false, false), "{probe:?}");
        }
    }

    #[test]
    fn promoted_cells_are_fresh_per_execution_and_keep_the_arena_layout() {
        // `x` is declared in a loop body and read before it is written:
        // every iteration reads zero, as in the tree-walker. A variable
        // allocated after the loop stays in memory (its pointer is stored
        // to `cells`), and that stored pointer shows it at the same arena
        // offset as in the tree-walker: its site's slot after the three
        // promoted cells' slots, however often the loop ran.
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::I32));
        let pi32 = Type::ptr(AddressSpace::Private, Type::I32);
        let cells = b.add_param("cells", Type::ptr(AddressSpace::Global, pi32));
        let acc = b.alloca(Type::I32, 1, AddressSpace::Private);
        let j = b.alloca(Type::I32, 1, AddressSpace::Private);
        let zero = b.const_i32(0);
        b.store(acc, zero);
        b.store(j, zero);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let jv = b.load(j);
        let three = b.const_i32(3);
        let more = b.cmp(CmpOp::Lt, jv, three);
        b.cond_br(more, body, exit);
        b.switch_to(body);
        let x = b.alloca(Type::I32, 1, AddressSpace::Private);
        let stale = b.load(x);
        let a = b.load(acc);
        let a2 = b.bin(BinOp::Add, a, stale);
        let seven = b.const_i32(7);
        let a3 = b.bin(BinOp::Add, a2, seven);
        b.store(acc, a3);
        b.store(x, seven);
        let one = b.const_i32(1);
        let j2 = b.bin(BinOp::Add, jv, one);
        b.store(j, j2);
        b.br(header);
        b.switch_to(exit);
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let total = b.load(acc);
        let p = b.gep(out, gid);
        b.store(p, total);
        let y = b.alloca(Type::I32, 1, AddressSpace::Private);
        let q = b.gep(cells, gid);
        b.store(q, y);
        b.ret(None);
        let m = module_of(vec![b.finish()]);

        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(16);
        let cell_buf = mem.alloc(4 * 16);
        let args = [ArgValue::Buffer(buf), ArgValue::Buffer(cell_buf)];
        let nd = NdRange::new_1d(4, 2);
        let text = Interpreter::new(&m)
            .disassemble_kernel(&mem, "k", nd, &args)
            .unwrap();
        let optimized = &text[text.find("== optimized ==").unwrap()..];
        assert_eq!(optimized.matches("alloca.slot").count(), 3, "{optimized}");
        let mut tree_mem = mem.clone();
        let tree = Interpreter::new(&m).run_kernel(&mut tree_mem, "k", nd, &args);
        let vm = Interpreter::new(&m);
        let mut vm_mem = mem.clone();
        let stats = vm.run_kernel_bytecode(&mut vm_mem, "k", nd, &args, 1);
        assert_eq!(tree, stats);
        assert_eq!(tree_mem, vm_mem);
        assert_eq!(vm_mem.read_i32(buf), vec![21; 4]);
        let cell = &vm_mem.bytes(cell_buf)[..16];
        assert_eq!(cell[0], 2, "a private pointer");
        assert_eq!(i64::from_le_bytes(cell[8..].try_into().unwrap()), 12);
    }

    #[test]
    fn lockstep_caps_the_call_depth_like_item_order() {
        // `f(d) = d <= 0 ? 0 : f(d - 1) + d`, recursive, run in lockstep
        // although the within-group proof refuses recursion: `d` is the
        // same for every item, so the group never splits. The deepest
        // legal nesting succeeds, one more call fails as in item order.
        let mut f = FunctionBuilder::new("f", FunctionKind::Helper, Type::I32);
        let d = f.add_param("d", Type::I32);
        let zero = f.const_i32(0);
        let done = f.cmp(CmpOp::Le, d, zero);
        let (base, step) = (f.new_block(), f.new_block());
        f.cond_br(done, base, step);
        f.switch_to(base);
        f.ret(Some(zero));
        f.switch_to(step);
        let one = f.const_i32(1);
        let d1 = f.bin(BinOp::Sub, d, one);
        let inner = f.call("f", vec![d1], Type::I32).unwrap();
        let sum = f.bin(BinOp::Add, inner, d);
        f.ret(Some(sum));
        let mut k = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let out = k.add_param("out", Type::ptr(AddressSpace::Global, Type::I32));
        let d = k.add_param("d", Type::I32);
        let v = k.call("f", vec![d], Type::I32).unwrap();
        let gid = k.work_item(WiBuiltin::GlobalId, 0);
        let at = k.gep(out, gid);
        k.store(at, v);
        k.ret(None);
        let m = module_of(vec![k.finish(), f.finish()]);

        let nd = NdRange::new_1d(4, 2);
        let deepest = MAX_CALL_DEPTH as i32 - 1;
        for d in [deepest, deepest + 1] {
            let mut mem = DeviceMemory::new();
            let buf = mem.alloc(16);
            let args = [ArgValue::Buffer(buf), ArgValue::Scalar(Value::I32(d))];
            let interp = Interpreter::new(&m);
            let mut tree_mem = mem.clone();
            let tree = interp.run_kernel(&mut tree_mem, "k", nd, &args);
            let setup = interp.plan(&mem, "k", &args).unwrap();
            let compiled = CompiledLaunch::compile(&m, &setup, nd, &args, true);
            assert!(compiled.ls.is_some(), "laid out for lockstep");
            let launch = BoundLaunch::new(Arc::new(compiled), &args);
            let mut ls_mem = mem.clone();
            let gmem = GlobalMem::new(&mut ls_mem);
            let (limit, local) = (interp.config.step_limit, setup.local_bytes);
            let got = run_groups_seq_sched(nd, |gid, scratch: &mut BcScratch, stats| {
                run_bc_group(&launch, &gmem, limit, nd, local, None, gid, scratch, stats)
            });
            assert_eq!(got, tree, "d = {d}");
            if d == deepest {
                assert_eq!(ls_mem, tree_mem);
                assert_eq!(tree_mem.read_i32(buf), vec![deepest * (deepest + 1) / 2; 4]);
            } else {
                assert_eq!(tree, Err(InterpError::CallDepthExceeded(MAX_CALL_DEPTH)));
            }
        }
    }

    #[test]
    fn a_call_of_the_launched_kernel_traps_on_both_tiers() {
        // `k(a, flag) { p = a + 1; if (*flag == 0) { *flag = 1; k(p, flag); }
        // else { *p = 7; } }`, unverified. Its preamble folds `a + 1` and
        // a launch binds only the kernel frame's copy, so a second frame
        // of `k` would write through the program's unbound buffer 0. The
        // call fails at once on both tiers, item by item and in
        // lockstep, after the flag is set and before `*p` is written, for
        // launches on buffer 0 and on other buffers.
        let mut k = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let ty = Type::ptr(AddressSpace::Global, Type::I32);
        let a = k.add_param("a", ty.clone());
        let flag = k.add_param("flag", ty);
        let one = k.const_i64(1);
        let p = k.gep(a, one);
        let f = k.load(flag);
        let zero = k.const_i32(0);
        let first = k.cmp(CmpOp::Eq, f, zero);
        let (recurse, write) = (k.new_block(), k.new_block());
        k.cond_br(first, recurse, write);
        k.switch_to(recurse);
        let set = k.const_i32(1);
        k.store(flag, set);
        k.call("k", vec![p, flag], Type::Void);
        k.ret(None);
        k.switch_to(write);
        let seven = k.const_i32(7);
        k.store(p, seven);
        k.ret(None);
        let mut m = Module::new();
        m.insert_function(k.finish());
        assert!(crate::verify::verify_module(&m).is_err());

        let nd = NdRange::new_1d(1, 1);
        let mut mem = DeviceMemory::new();
        let bufs: Vec<_> = (0..3).map(|_| mem.alloc(16)).collect();
        let shared = Interpreter::new(&m);
        for (a, flag) in [(0, 1), (1, 2), (2, 0)] {
            let args = [ArgValue::Buffer(bufs[a]), ArgValue::Buffer(bufs[flag])];
            let mut tree_mem = mem.clone();
            let tree = shared.run_kernel(&mut tree_mem, "k", nd, &args);
            assert_eq!(tree, Err(launched_kernel_call("k")), "a = buffer {a}");
            let mut want = mem.clone();
            want.write_i32(bufs[flag], &[1, 0, 0, 0]);
            assert_eq!(tree_mem, want, "a = buffer {a}");
            for interp in [&shared, &Interpreter::new(&m)] {
                let mut vm_mem = mem.clone();
                let vm = interp.run_kernel_bytecode(&mut vm_mem, "k", nd, &args, 1);
                assert_eq!(vm, tree, "a = buffer {a}");
                assert_eq!(vm_mem, tree_mem, "a = buffer {a}");
            }
            let setup = shared.plan(&mem, "k", &args).unwrap();
            let compiled = CompiledLaunch::compile(&m, &setup, nd, &args, true);
            assert!(compiled.ls.is_some(), "laid out for lockstep");
            let launch = BoundLaunch::new(Arc::new(compiled), &args);
            let mut ls_mem = mem.clone();
            let gmem = GlobalMem::new(&mut ls_mem);
            let (limit, local) = (shared.config.step_limit, setup.local_bytes);
            let got = run_groups_seq_sched(nd, |gid, scratch: &mut BcScratch, stats| {
                run_bc_group(&launch, &gmem, limit, nd, local, None, gid, scratch, stats)
            });
            assert_eq!(got, tree, "lockstep, a = buffer {a}");
            assert_eq!(ls_mem, tree_mem, "lockstep, a = buffer {a}");
        }
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
