//! Core IR data structures: modules, functions, blocks, instructions.
//!
//! The IR is a conventional three-address, basic-block form (not SSA: virtual
//! registers are single-assignment by construction of the builder, but there
//! are no phi nodes — loops communicate through `alloca`/`load`/`store`,
//! which is also how clang emits OpenCL C at `-O0` and what the accelOS JIT
//! pass in the paper operates on before vendor optimization).

use crate::types::{AddressSpace, Type};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a virtual register within one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl ValueId {
    /// Index into the function's value table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Identifier of a basic block within one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index into the function's block table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Integer/float binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (trapping on integer division by zero at interpretation time).
    Div,
    /// Remainder.
    Rem,
    /// Bitwise and (integers only).
    And,
    /// Bitwise or (integers only).
    Or,
    /// Bitwise xor (integers only).
    Xor,
    /// Shift left (integers only).
    Shl,
    /// Arithmetic shift right (integers only).
    Shr,
    /// Two-operand minimum.
    Min,
    /// Two-operand maximum.
    Max,
}

impl BinOp {
    /// Whether the operation is defined only on integer operands.
    pub fn int_only(self) -> bool {
        matches!(
            self,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
        )
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }
}

/// Unary operations, including the transcendental math builtins of OpenCL C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (bool only).
    Not,
    /// Square root (floats).
    Sqrt,
    /// Absolute value.
    Abs,
    /// Natural exponential (floats).
    Exp,
    /// Natural logarithm (floats).
    Log,
    /// Sine (floats).
    Sin,
    /// Cosine (floats).
    Cos,
    /// Round towards negative infinity (floats).
    Floor,
    /// Round towards positive infinity (floats).
    Ceil,
}

impl UnOp {
    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::Sqrt => "sqrt",
            UnOp::Abs => "abs",
            UnOp::Exp => "exp",
            UnOp::Log => "log",
            UnOp::Sin => "sin",
            UnOp::Cos => "cos",
            UnOp::Floor => "floor",
            UnOp::Ceil => "ceil",
        }
    }
}

/// Comparison predicates. Result type is always [`Type::Bool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
}

impl CmpOp {
    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }
}

/// OpenCL work-item builtin functions (`get_global_id` and friends).
///
/// These are the functions the accelOS JIT replaces with runtime-library
/// equivalents (paper §6.2 step 3); keeping them as first-class ops makes the
/// replacement pass a simple instruction rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WiBuiltin {
    /// `get_global_id(dim)`.
    GlobalId,
    /// `get_local_id(dim)`.
    LocalId,
    /// `get_group_id(dim)`.
    GroupId,
    /// `get_global_size(dim)`.
    GlobalSize,
    /// `get_local_size(dim)`.
    LocalSize,
    /// `get_num_groups(dim)`.
    NumGroups,
    /// `get_work_dim()` (ignores its `dim` operand).
    WorkDim,
}

impl WiBuiltin {
    /// OpenCL C spelling, used by the printer and the front end.
    pub fn name(self) -> &'static str {
        match self {
            WiBuiltin::GlobalId => "get_global_id",
            WiBuiltin::LocalId => "get_local_id",
            WiBuiltin::GroupId => "get_group_id",
            WiBuiltin::GlobalSize => "get_global_size",
            WiBuiltin::LocalSize => "get_local_size",
            WiBuiltin::NumGroups => "get_num_groups",
            WiBuiltin::WorkDim => "get_work_dim",
        }
    }

    /// Whether the builtin's value depends on the work group the item runs
    /// in. Group-dependent builtins must be virtualised by the accelOS JIT;
    /// group-invariant ones (`get_local_id`, `get_local_size`, `get_work_dim`)
    /// keep their hardware meaning after the transformation.
    pub fn group_dependent(self) -> bool {
        matches!(
            self,
            WiBuiltin::GlobalId | WiBuiltin::GroupId | WiBuiltin::GlobalSize | WiBuiltin::NumGroups
        )
    }
}

/// Atomic read-modify-write operations on global or local memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicOp {
    /// Fetch-and-add, returns the old value.
    Add,
    /// Fetch-and-sub, returns the old value.
    Sub,
    /// Fetch-and-min, returns the old value.
    Min,
    /// Fetch-and-max, returns the old value.
    Max,
    /// Exchange, returns the old value.
    Xchg,
}

impl AtomicOp {
    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AtomicOp::Add => "atomic_add",
            AtomicOp::Sub => "atomic_sub",
            AtomicOp::Min => "atomic_min",
            AtomicOp::Max => "atomic_max",
            AtomicOp::Xchg => "atomic_xchg",
        }
    }
}

/// Constant literal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstVal {
    /// `bool` literal.
    Bool(bool),
    /// `i32` literal.
    I32(i32),
    /// `i64` literal.
    I64(i64),
    /// `f32` literal.
    F32(f32),
    /// `f64` literal.
    F64(f64),
}

impl ConstVal {
    /// The IR type of the literal.
    pub fn ty(&self) -> Type {
        match self {
            ConstVal::Bool(_) => Type::Bool,
            ConstVal::I32(_) => Type::I32,
            ConstVal::I64(_) => Type::I64,
            ConstVal::F32(_) => Type::F32,
            ConstVal::F64(_) => Type::F64,
        }
    }
}

impl fmt::Display for ConstVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstVal::Bool(b) => write!(f, "{b}"),
            ConstVal::I32(v) => write!(f, "{v}i32"),
            ConstVal::I64(v) => write!(f, "{v}i64"),
            ConstVal::F32(v) => write!(f, "{v}f32"),
            ConstVal::F64(v) => write!(f, "{v}f64"),
        }
    }
}

/// A non-terminator instruction operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Materialise a constant.
    Const(ConstVal),
    /// Binary arithmetic/logic.
    Bin(BinOp, ValueId, ValueId),
    /// Unary arithmetic/math.
    Un(UnOp, ValueId),
    /// Comparison producing a `bool`.
    Cmp(CmpOp, ValueId, ValueId),
    /// `select(cond, if_true, if_false)`.
    Select(ValueId, ValueId, ValueId),
    /// Numeric conversion to the given type.
    Cast(Type, ValueId),
    /// Stack/local-memory allocation of `count` elements of `elem`.
    ///
    /// `space` must be [`AddressSpace::Private`] (per work item) or
    /// [`AddressSpace::Local`] (per work group; kernels only until the JIT
    /// hoists them).
    Alloca {
        /// Element type.
        elem: Type,
        /// Number of elements.
        count: u32,
        /// `Private` or `Local`.
        space: AddressSpace,
    },
    /// Load through a pointer.
    Load(ValueId),
    /// Store `value` through `ptr`.
    Store {
        /// Destination pointer.
        ptr: ValueId,
        /// Value stored.
        value: ValueId,
    },
    /// Pointer element arithmetic: `ptr + index` in units of the pointee.
    Gep {
        /// Base pointer.
        ptr: ValueId,
        /// Element index (any integer type).
        index: ValueId,
    },
    /// Direct call of another function in the module, by name.
    Call {
        /// Callee name.
        callee: String,
        /// Argument registers.
        args: Vec<ValueId>,
    },
    /// Work-item builtin with a compile-time dimension index.
    WorkItem {
        /// Which builtin.
        builtin: WiBuiltin,
        /// Dimension (0..=2); ignored by `WorkDim`.
        dim: u8,
    },
    /// Atomic read-modify-write; returns the previous value.
    AtomicRmw {
        /// Which read-modify-write operation.
        op: AtomicOp,
        /// Pointer to a `global`/`local` integer.
        ptr: ValueId,
        /// Operand value.
        value: ValueId,
    },
    /// Atomic compare-and-swap; returns the previous value.
    AtomicCmpXchg {
        /// Pointer to a `global`/`local` integer.
        ptr: ValueId,
        /// Expected value.
        expected: ValueId,
        /// Replacement value.
        desired: ValueId,
    },
    /// Work-group barrier (`barrier(CLK_*_MEM_FENCE)`).
    Barrier,
}

/// A single instruction: an operation plus its (optional) result register.
#[derive(Debug, Clone)]
pub struct Inst {
    /// Destination register, if the op produces a value.
    pub result: Option<ValueId>,
    /// The operation.
    pub op: Op,
    /// Optional source location (`(line, col)`, 1-based) carried from the
    /// front end for diagnostics. `None` for builder- or JIT-created
    /// instructions, which report IR locations instead.
    pub span: Option<(u32, u32)>,
}

impl Inst {
    /// An instruction without a source span.
    pub fn new(result: Option<ValueId>, op: Op) -> Self {
        Inst {
            result,
            op,
            span: None,
        }
    }
}

/// Equality ignores the diagnostic span: two instructions that compute the
/// same thing are equal regardless of where their source text sat. This keeps
/// module-level comparisons (differential tests, JIT round-trips) stable
/// across front ends.
impl PartialEq for Inst {
    fn eq(&self, other: &Self) -> bool {
        self.result == other.result && self.op == other.op
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional branch.
    Br(BlockId),
    /// Two-way conditional branch on a `bool` register.
    CondBr {
        /// Condition register (`bool`).
        cond: ValueId,
        /// Target when true.
        then_bb: BlockId,
        /// Target when false.
        else_bb: BlockId,
    },
    /// Function return with optional value.
    Ret(Option<ValueId>),
}

impl Terminator {
    /// Successor block ids.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Br(b) => vec![*b],
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Ret(_) => vec![],
        }
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Instructions in execution order.
    pub insts: Vec<Inst>,
    /// The terminator. `None` only transiently while building.
    pub term: Option<Terminator>,
}

impl Block {
    /// An empty, unterminated block.
    pub fn new() -> Self {
        Block {
            insts: Vec::new(),
            term: None,
        }
    }
}

impl Default for Block {
    fn default() -> Self {
        Block::new()
    }
}

/// Whether a function is an entry-point kernel or a helper device function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionKind {
    /// `kernel void` entry point launched over an NDRange.
    Kernel,
    /// Regular device function callable from kernels.
    Helper,
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Source-level name (for diagnostics and printing).
    pub name: String,
    /// Parameter type.
    pub ty: Type,
}

/// A function: parameters, typed value table, and a CFG of basic blocks.
///
/// Block 0 is the entry block. Parameters occupy value ids `0..params.len()`.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Unique name within the module.
    pub name: String,
    /// Kernel or helper.
    pub kind: FunctionKind,
    /// Formal parameters (also the first value ids).
    pub params: Vec<Param>,
    /// Return type.
    pub ret: Type,
    /// Types of every value id (parameters first).
    pub value_types: Vec<Type>,
    /// Basic blocks; index = `BlockId`.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Type of a value id.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this function.
    pub fn value_type(&self, v: ValueId) -> &Type {
        &self.value_types[v.index()]
    }

    /// The entry block id (always `bb0`).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Iterate over `(BlockId, &Block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Total number of non-terminator instructions, the "kernel instructions
    /// in LLVM IR" measure used by the paper's adaptive scheduling (§6.4).
    pub fn insn_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// The dequeue contract of a persistent-worker scheduling kernel: a JIT
/// that rewrote an original kernel into a loop in which each work group
/// (a *worker*) repeatedly claims the next `chunk` virtual groups with
/// `atomic_add(rt[next_slot], chunk)` and exits once its claim reaches
/// `rt[total_slot]` records where that dequeue is and what it rewrote.
///
/// The contract licenses the interpreter to hand worker `w`'s `j`-th
/// dequeue the ticket `base + (j·W + w)·chunk` (`W` workers, `base` the
/// counter's value at launch): a legal round-robin schedule that hands
/// out the same tickets and leaves the same final counter as any real
/// one, and makes workers independent whenever the *original* kernel's
/// virtual groups are. Only a contract that [`DequeueContract::holds_in`]
/// the scheduling kernel counts; anything else runs the loop as written.
#[derive(Debug, Clone, PartialEq)]
pub struct DequeueContract {
    /// Block of the dequeue `atomic_add` in the scheduling kernel.
    pub block: BlockId,
    /// Index of the dequeue within `block`.
    pub inst: usize,
    /// Parameter index of the descriptor `rt` (a global `i64` array); the
    /// original kernel's parameters are the ones before it.
    pub descriptor: usize,
    /// Descriptor slot of the dequeue counter.
    pub next_slot: usize,
    /// Descriptor slot of the total virtual-group count.
    pub total_slot: usize,
    /// First of three descriptor slots holding the virtual group counts
    /// per dimension.
    pub dims_slot: usize,
    /// Virtual groups claimed per dequeue (the `atomic_add` operand).
    pub chunk: u32,
    /// The original kernel, under the scheduling kernel's name, with every
    /// helper it calls, untransformed: the code whose race report decides
    /// whether the workers may run in parallel.
    pub original: Module,
}

impl DequeueContract {
    /// Whether the contract describes `kernel`: the descriptor is the last
    /// parameter and a global `i64` pointer, the parameters before it are
    /// the original kernel's, and the recorded site is
    /// `atomic_add(gep(rt, next_slot), chunk)` with both operands
    /// constants of this contract.
    pub fn holds_in(&self, kernel: &Function) -> bool {
        let Some(original) = self.original.function(&kernel.name) else {
            return false;
        };
        let rt_ty = Type::ptr(AddressSpace::Global, Type::I64);
        if kernel.kind != FunctionKind::Kernel
            || original.kind != FunctionKind::Kernel
            || self.chunk == 0
            || self.descriptor + 1 != kernel.params.len()
            || kernel.params[self.descriptor].ty != rt_ty
            || original.params.len() != self.descriptor
            || original
                .params
                .iter()
                .zip(&kernel.params)
                .any(|(a, b)| a.ty != b.ty)
        {
            return false;
        }
        let def = |v: ValueId| -> Option<&Op> {
            kernel
                .blocks
                .iter()
                .flat_map(|b| &b.insts)
                .find(|i| i.result == Some(v))
                .map(|i| &i.op)
        };
        let is_const = |v: ValueId, want: i64| matches!(def(v), Some(Op::Const(ConstVal::I64(x))) if *x == want);
        let site = kernel
            .blocks
            .get(self.block.index())
            .and_then(|b| b.insts.get(self.inst));
        let Some(Inst {
            op:
                Op::AtomicRmw {
                    op: AtomicOp::Add,
                    ptr,
                    value,
                },
            ..
        }) = site
        else {
            return false;
        };
        let slot_of_rt = matches!(
            def(*ptr),
            Some(Op::Gep { ptr: base, index })
                if base.index() == self.descriptor && is_const(*index, self.next_slot as i64)
        );
        slot_of_rt && is_const(*value, i64::from(self.chunk))
    }
}

/// A module: an ordered set of uniquely named functions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// Functions in definition order.
    pub functions: Vec<Function>,
    /// Dequeue contracts of persistent-worker scheduling kernels, by
    /// kernel name (empty unless a JIT produced the module).
    pub dequeue: BTreeMap<String, DequeueContract>,
}

impl Module {
    /// An empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Find a function by name, mutably.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    /// Names of all kernel entry points, in definition order.
    pub fn kernel_names(&self) -> Vec<&str> {
        self.functions
            .iter()
            .filter(|f| f.kind == FunctionKind::Kernel)
            .map(|f| f.name.as_str())
            .collect()
    }

    /// Add a function, replacing any existing function of the same name.
    pub fn insert_function(&mut self, func: Function) {
        if let Some(existing) = self.functions.iter_mut().find(|f| f.name == func.name) {
            *existing = func;
        } else {
            self.functions.push(func);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Br(BlockId(3)).successors(), vec![BlockId(3)]);
        let cb = Terminator::CondBr {
            cond: ValueId(0),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(cb.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(Terminator::Ret(None).successors().is_empty());
    }

    #[test]
    fn const_types() {
        assert_eq!(ConstVal::Bool(true).ty(), Type::Bool);
        assert_eq!(ConstVal::I32(1).ty(), Type::I32);
        assert_eq!(ConstVal::I64(1).ty(), Type::I64);
        assert_eq!(ConstVal::F32(1.0).ty(), Type::F32);
        assert_eq!(ConstVal::F64(1.0).ty(), Type::F64);
    }

    #[test]
    fn builtin_group_dependence() {
        assert!(WiBuiltin::GlobalId.group_dependent());
        assert!(WiBuiltin::GroupId.group_dependent());
        assert!(WiBuiltin::GlobalSize.group_dependent());
        assert!(WiBuiltin::NumGroups.group_dependent());
        assert!(!WiBuiltin::LocalId.group_dependent());
        assert!(!WiBuiltin::LocalSize.group_dependent());
        assert!(!WiBuiltin::WorkDim.group_dependent());
    }

    #[test]
    fn module_function_lookup() {
        let mut m = Module::new();
        m.insert_function(Function {
            name: "a".into(),
            kind: FunctionKind::Kernel,
            params: vec![],
            ret: Type::Void,
            value_types: vec![],
            blocks: vec![],
        });
        assert!(m.function("a").is_some());
        assert!(m.function("b").is_none());
        assert_eq!(m.kernel_names(), vec!["a"]);
        // Replacement keeps a single entry.
        m.insert_function(Function {
            name: "a".into(),
            kind: FunctionKind::Helper,
            params: vec![],
            ret: Type::Void,
            value_types: vec![],
            blocks: vec![],
        });
        assert_eq!(m.functions.len(), 1);
        assert!(m.kernel_names().is_empty());
    }

    #[test]
    fn int_only_ops() {
        assert!(BinOp::And.int_only());
        assert!(BinOp::Shl.int_only());
        assert!(!BinOp::Add.int_only());
        assert!(!BinOp::Min.int_only());
    }
}
