//! `accelcheck` — static race & divergence analysis over kernel IR.
//!
//! The transparent plane must decide, per kernel, whether cross-work-group
//! parallel interpretation is safe *without seeing the source*. The historical
//! gate was the single coarse [`crate::analysis::uses_global_atomics`] bit:
//! atomics ⇒ sequential, no atomics ⇒ parallel on trust. This module replaces
//! it with a real analysis:
//!
//! * **Global write-set race analysis** — a forward symbolic dataflow
//!   classifies the byte offset of every `global`-space access as an *affine*
//!   function of the work-item coordinates (`a·lid_d + b·grp_d + base`, with
//!   an optional loop-widened stride set), then proves cross-group
//!   disjointness of each written buffer either symbolically (tight-packing
//!   chain over the launch axes) or concretely at launch time (evaluated
//!   chain, or bounded enumeration for guarded/rounded-up launches).
//! * **Per-kernel verdict** — [`ParallelSafety`]: `Safe` (disjoint writes),
//!   `SafeViaAtomics` (all contended accesses are atomic; `deterministic`
//!   when they are commutative with unused results, so parallel execution is
//!   bit-identical to sequential), or `Racy { site }` naming the offending
//!   access.
//! * **Barrier-divergence check** — a barrier control-dependent on a
//!   condition that varies across the work items of one group is undefined
//!   behaviour; detected via postdominators + the uniformity lattice of the
//!   same dataflow.
//!
//! The dynamic ground truth for all of this is the shadow-mode race oracle in
//! [`crate::interp`] (`run_kernel_oracle`): proptests assert the static
//! verdict is never `Safe`/`SafeViaAtomics` when the oracle observes a
//! cross-group conflict.
//!
//! The IR is not SSA-with-phis: loop-carried state lives in private scalar
//! `alloca` cells. The dataflow therefore tracks those cells flow-sensitively
//! (strong updates on store, joins at loop heads) and widens loop increments
//! into the affine *step set* rather than losing them.

use crate::analysis::reachable_helpers;
use crate::interp::interp_size;
use crate::ir::{
    AtomicOp, BinOp, BlockId, CmpOp, ConstVal, DequeueContract, Function, FunctionKind, Module, Op,
    Terminator, UnOp, ValueId, WiBuiltin,
};
use crate::types::{AddressSpace, Type};
use crate::verify::{operands, successors};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Marker used as the parameter index of accesses whose base pointer could
/// not be traced back to a kernel parameter.
pub const UNKNOWN_PARAM: usize = usize::MAX;

// ---------------------------------------------------------------------------
// Symbolic polynomial domain
// ---------------------------------------------------------------------------

/// An atomic symbolic quantity: launch-time constants the analysis keeps
/// opaque but can compare structurally and evaluate once a launch is known.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Atom {
    /// Kernel argument (scalar) by parameter index.
    Arg(usize),
    /// `get_local_size(d)`.
    LocalSize(u8),
    /// `get_num_groups(d)`.
    NumGroups(u8),
    /// `get_work_dim()`.
    WorkDim,
    /// A non-polynomial combination of uniform quantities (division, bit ops,
    /// …) kept as an opaque tree so equal computations still compare equal.
    Opaque(Box<Opq>),
}

/// Opaque uniform computation node (see [`Atom::Opaque`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Opq {
    Bin(BinOp, Poly, Poly),
    Un(UnOp, Poly),
}

/// A multivariate polynomial over [`Atom`]s with `i64` coefficients.
/// The key is a *sorted* multiset of atoms (`[]` = the constant term).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
struct Poly {
    terms: BTreeMap<Vec<Atom>, i64>,
}

impl Poly {
    fn zero() -> Self {
        Poly::default()
    }

    fn constant(c: i64) -> Self {
        let mut terms = BTreeMap::new();
        if c != 0 {
            terms.insert(Vec::new(), c);
        }
        Poly { terms }
    }

    fn atom(a: Atom) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(vec![a], 1);
        Poly { terms }
    }

    fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    fn as_const(&self) -> Option<i64> {
        if self.terms.is_empty() {
            return Some(0);
        }
        if self.terms.len() == 1 {
            if let Some(c) = self.terms.get(&Vec::new()) {
                return Some(*c);
            }
        }
        None
    }

    fn add(&self, o: &Poly) -> Poly {
        let mut terms = self.terms.clone();
        for (k, v) in &o.terms {
            let e = terms.entry(k.clone()).or_insert(0);
            *e = e.wrapping_add(*v);
            if *e == 0 {
                terms.remove(k);
            }
        }
        Poly { terms }
    }

    fn neg(&self) -> Poly {
        Poly {
            terms: self
                .terms
                .iter()
                .map(|(k, v)| (k.clone(), v.wrapping_neg()))
                .collect(),
        }
    }

    fn sub(&self, o: &Poly) -> Poly {
        self.add(&o.neg())
    }

    fn scale(&self, k: i64) -> Poly {
        if k == 0 {
            return Poly::zero();
        }
        Poly {
            terms: self
                .terms
                .iter()
                .map(|(t, v)| (t.clone(), v.wrapping_mul(k)))
                .collect(),
        }
    }

    fn mul(&self, o: &Poly) -> Poly {
        let mut out = Poly::zero();
        for (ka, va) in &self.terms {
            for (kb, vb) in &o.terms {
                let mut key: Vec<Atom> = ka.iter().chain(kb.iter()).cloned().collect();
                key.sort();
                let e = out.terms.entry(key).or_insert(0);
                *e = e.wrapping_add(va.wrapping_mul(*vb));
            }
        }
        out.terms.retain(|_, v| *v != 0);
        out
    }

    /// If `self == k · o` for an integer `k`, return `k`.
    fn const_ratio(&self, o: &Poly) -> Option<i64> {
        if o.terms.is_empty() {
            return None;
        }
        if self.terms.len() != o.terms.len() {
            return None;
        }
        let mut ratio: Option<i64> = None;
        for ((ka, va), (kb, vb)) in self.terms.iter().zip(o.terms.iter()) {
            if ka != kb || *vb == 0 || va % vb != 0 {
                return None;
            }
            let r = va / vb;
            match ratio {
                None => ratio = Some(r),
                Some(prev) if prev != r => return None,
                _ => {}
            }
        }
        ratio
    }

    fn eval(&self, env: &LaunchEnv<'_>) -> Option<i64> {
        let mut total: i64 = 0;
        for (atoms, coeff) in &self.terms {
            let mut term = *coeff;
            for a in atoms {
                term = term.checked_mul(eval_atom(a, env)?)?;
            }
            total = total.checked_add(term)?;
        }
        Some(total)
    }
}

fn eval_atom(a: &Atom, env: &LaunchEnv<'_>) -> Option<i64> {
    match a {
        Atom::Arg(i) => *env.args.get(*i)?,
        Atom::LocalSize(d) => Some(env.local[*d as usize] as i64),
        Atom::NumGroups(d) => Some(env.groups[*d as usize] as i64),
        Atom::WorkDim => Some(env.work_dim as i64),
        Atom::Opaque(o) => match &**o {
            Opq::Bin(op, a, b) => fold_bin(*op, a.eval(env)?, b.eval(env)?),
            Opq::Un(op, a) => fold_un(*op, a.eval(env)?),
        },
    }
}

fn fold_bin(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            if !(0..64).contains(&b) {
                return None;
            }
            a.wrapping_shl(b as u32)
        }
        BinOp::Shr => {
            if !(0..64).contains(&b) {
                return None;
            }
            a.wrapping_shr(b as u32)
        }
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
    })
}

fn fold_un(op: UnOp, a: i64) -> Option<i64> {
    Some(match op {
        UnOp::Neg => a.wrapping_neg(),
        UnOp::Not => (a == 0) as i64,
        UnOp::Abs => a.wrapping_abs(),
        _ => return None,
    })
}

/// Make an opaque (or folded) uniform poly for a binary op.
fn opaque_bin(op: BinOp, a: &Poly, b: &Poly) -> Poly {
    if let (Some(ca), Some(cb)) = (a.as_const(), b.as_const()) {
        if let Some(f) = fold_bin(op, ca, cb) {
            return Poly::constant(f);
        }
    }
    Poly::atom(Atom::Opaque(Box::new(Opq::Bin(op, a.clone(), b.clone()))))
}

fn opaque_un(op: UnOp, a: &Poly) -> Poly {
    if let Some(ca) = a.as_const() {
        if let Some(f) = fold_un(op, ca) {
            return Poly::constant(f);
        }
    }
    Poly::atom(Atom::Opaque(Box::new(Opq::Un(op, a.clone()))))
}

// ---------------------------------------------------------------------------
// Affine values over work-item coordinates
// ---------------------------------------------------------------------------

/// A varying launch axis: local id or group id in one dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Axis {
    Lid(u8),
    Grp(u8),
}

/// Maximum number of distinct loop strides tracked before widening degrades
/// the value to an unknown (geometric loops like `k *= 2` hit this cap).
const MAX_STEPS: usize = 3;

/// `base + Σ coeff_axis · axis`, smeared by any integer combination of the
/// polynomials in `steps` (loop-carried increments, sign-insensitive).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Affine {
    base: Poly,
    coeffs: BTreeMap<Axis, Poly>,
    steps: BTreeSet<Poly>,
}

impl Affine {
    fn uniform(p: Poly) -> Self {
        Affine {
            base: p,
            coeffs: BTreeMap::new(),
            steps: BTreeSet::new(),
        }
    }

    fn normalized(mut self) -> Self {
        self.coeffs.retain(|_, p| !p.is_zero());
        self.steps.retain(|p| !p.is_zero());
        self
    }

    /// Pure uniform: same value for every work item, no loop smear.
    fn as_pure_uniform(&self) -> Option<&Poly> {
        if self.coeffs.is_empty() && self.steps.is_empty() {
            Some(&self.base)
        } else {
            None
        }
    }

    /// No intra-group variation (no `Lid` coefficients); loop smear allowed
    /// because every item of the group replays the same sequence.
    fn group_uniform(&self) -> bool {
        !self.coeffs.keys().any(|a| matches!(a, Axis::Lid(_)))
    }

    fn step_free(&self) -> bool {
        self.steps.is_empty()
    }

    fn add(&self, o: &Affine) -> Affine {
        let mut coeffs = self.coeffs.clone();
        for (a, p) in &o.coeffs {
            let e = coeffs.entry(*a).or_insert_with(Poly::zero);
            *e = e.add(p);
        }
        Affine {
            base: self.base.add(&o.base),
            coeffs,
            steps: self.steps.union(&o.steps).cloned().collect(),
        }
        .normalized()
    }

    fn neg(&self) -> Affine {
        Affine {
            base: self.base.neg(),
            coeffs: self.coeffs.iter().map(|(a, p)| (*a, p.neg())).collect(),
            // Steps are sign-insensitive (smear in both directions).
            steps: self.steps.clone(),
        }
    }

    fn sub(&self, o: &Affine) -> Affine {
        self.add(&o.neg())
    }

    /// Multiply everything by a pure-uniform polynomial.
    fn scale_poly(&self, u: &Poly) -> Affine {
        Affine {
            base: self.base.mul(u),
            coeffs: self.coeffs.iter().map(|(a, p)| (*a, p.mul(u))).collect(),
            steps: self.steps.iter().map(|p| p.mul(u)).collect(),
        }
        .normalized()
    }

    /// Evaluate for a concrete work item. Ignores `steps` (callers handle the
    /// smear separately via the gcd of the evaluated steps).
    fn eval_at(&self, env: &LaunchEnv<'_>, lid: [usize; 3], grp: [usize; 3]) -> Option<i64> {
        let mut v = self.base.eval(env)?;
        for (a, p) in &self.coeffs {
            let axis = match a {
                Axis::Lid(d) => lid[*d as usize] as i64,
                Axis::Grp(d) => grp[*d as usize] as i64,
            };
            v = v.checked_add(p.eval(env)?.checked_mul(axis)?)?;
        }
        Some(v)
    }
}

/// The affine form of `get_global_id(d)`: `LS_d · grp_d + lid_d`.
fn gid_affine(d: u8) -> Affine {
    let mut coeffs = BTreeMap::new();
    coeffs.insert(Axis::Lid(d), Poly::constant(1));
    coeffs.insert(Axis::Grp(d), Poly::atom(Atom::LocalSize(d)));
    Affine {
        base: Poly::zero(),
        coeffs,
        steps: BTreeSet::new(),
    }
}

// ---------------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------------

/// A symbolic comparison between two step-free-or-not affine values; used
/// both as the abstract value of `Cmp` results and as a path guard.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct CondVal {
    op: CmpOp,
    lhs: Affine,
    rhs: Affine,
}

impl CondVal {
    fn negate(&self) -> CondVal {
        let op = match self.op {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
        };
        CondVal {
            op,
            lhs: self.lhs.clone(),
            rhs: self.rhs.clone(),
        }
    }

    fn group_uniform(&self) -> bool {
        self.lhs.group_uniform() && self.rhs.group_uniform()
    }

    /// Item-fixed: a pure function of the item coordinates and launch
    /// constants, so it evaluates identically every time the item reaches it.
    fn item_fixed(&self) -> bool {
        self.lhs.step_free() && self.rhs.step_free()
    }

    fn eval_at(&self, env: &LaunchEnv<'_>, lid: [usize; 3], grp: [usize; 3]) -> Option<bool> {
        let l = self.lhs.eval_at(env, lid, grp)?;
        let r = self.rhs.eval_at(env, lid, grp)?;
        Some(match self.op {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        })
    }
}

/// Where a pointer points.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum PtrBase {
    /// Kernel parameter (buffer) by index.
    Param(usize),
    /// An `alloca` in this function, identified by `(block, inst)`.
    Cell {
        block: u32,
        inst: u32,
        space: AddressSpace,
        /// Private scalar cell tracked flow-sensitively by the dataflow.
        tracked: bool,
    },
}

/// Abstract pointer: base plus byte offset (None = unknown offset).
#[derive(Debug, Clone, PartialEq, Eq)]
struct PtrVal {
    base: PtrBase,
    off: Option<Affine>,
}

/// The abstract-value lattice.
///
/// `UnknownUniform` is the load-bearing middle tier: the value itself is
/// unknown, but it provably does not vary across the work items of a group
/// (all items replay the same computation on group-uniform inputs). It keeps
/// uniform loop conditions like `stride = stride / 2` from poisoning the
/// barrier-divergence check.
#[derive(Debug, Clone, PartialEq, Eq)]
enum AbsVal {
    Aff(Affine),
    UnknownUniform,
    Ptr(PtrVal),
    Cond(CondVal),
    Unknown,
}

impl AbsVal {
    fn group_uniform(&self) -> bool {
        match self {
            AbsVal::Aff(a) => a.group_uniform(),
            AbsVal::UnknownUniform => true,
            AbsVal::Cond(c) => c.group_uniform(),
            AbsVal::Ptr(p) => p.off.as_ref().is_some_and(|o| o.group_uniform()),
            AbsVal::Unknown => false,
        }
    }

    /// Degrade a non-representable value along the uniformity axis.
    fn degrade(&self) -> AbsVal {
        if self.group_uniform() {
            AbsVal::UnknownUniform
        } else {
            AbsVal::Unknown
        }
    }

    fn as_affine(&self) -> Option<&Affine> {
        match self {
            AbsVal::Aff(a) => Some(a),
            _ => None,
        }
    }
}

fn degrade_pair(a: &AbsVal, b: &AbsVal) -> AbsVal {
    if a.group_uniform() && b.group_uniform() {
        AbsVal::UnknownUniform
    } else {
        AbsVal::Unknown
    }
}

/// Join two abstract values. Equal values are kept; affine values with equal
/// coefficient maps widen their base difference into the step set (loop
/// increments); everything else degrades along the uniformity axis. In
/// `aggressive` mode (fixpoint safety valve) any inequality degrades.
fn join(a: &AbsVal, b: &AbsVal, aggressive: bool) -> AbsVal {
    if a == b {
        return a.clone();
    }
    if aggressive {
        return degrade_pair(a, b);
    }
    match (a, b) {
        (AbsVal::Aff(x), AbsVal::Aff(y)) => join_affine(x, y)
            .map(AbsVal::Aff)
            .unwrap_or_else(|| degrade_pair(a, b)),
        (AbsVal::Ptr(x), AbsVal::Ptr(y)) if x.base == y.base => {
            let off = match (&x.off, &y.off) {
                (Some(ox), Some(oy)) => join_affine(ox, oy),
                _ => None,
            };
            AbsVal::Ptr(PtrVal {
                base: x.base.clone(),
                off,
            })
        }
        (AbsVal::UnknownUniform, o) | (o, AbsVal::UnknownUniform) if o.group_uniform() => {
            AbsVal::UnknownUniform
        }
        _ => degrade_pair(a, b),
    }
}

/// Join affine values with identical coefficients by widening the base
/// difference into the step set; `None` when the join is not representable.
fn join_affine(x: &Affine, y: &Affine) -> Option<Affine> {
    if x.coeffs != y.coeffs {
        return None;
    }
    let (lo, hi) = if x.base <= y.base { (x, y) } else { (y, x) };
    let mut steps: BTreeSet<Poly> = x.steps.union(&y.steps).cloned().collect();
    let diff = hi.base.sub(&lo.base);
    if !diff.is_zero() {
        steps.insert(diff);
    }
    if steps.len() > MAX_STEPS {
        return None;
    }
    Some(Affine {
        base: lo.base.clone(),
        coeffs: lo.coeffs.clone(),
        steps,
    })
}

// ---------------------------------------------------------------------------
// Public report types
// ---------------------------------------------------------------------------

/// Per-kernel parallel-safety verdict — the replacement for the old
/// `uses_global_atomics` gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParallelSafety {
    /// All global writes are provably disjoint across work groups: parallel
    /// group execution is race-free and bit-identical to sequential.
    Safe,
    /// Every contended global access is atomic. `deterministic` is true when
    /// all contended atomics are commutative (add/sub/min/max) with unused
    /// results, so the final memory image is order-independent.
    SafeViaAtomics {
        /// Whether parallel execution is bit-identical to sequential.
        deterministic: bool,
    },
    /// A potential cross-group data race; `site` describes the offending
    /// access.
    Racy {
        /// Human-readable description of the first offending access.
        site: String,
    },
}

impl fmt::Display for ParallelSafety {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParallelSafety::Safe => write!(f, "safe"),
            ParallelSafety::SafeViaAtomics { deterministic } => {
                write!(
                    f,
                    "safe-via-atomics ({})",
                    if *deterministic {
                        "deterministic"
                    } else {
                        "order-dependent"
                    }
                )
            }
            ParallelSafety::Racy { site } => write!(f, "racy: {site}"),
        }
    }
}

/// How a site touches memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Plain load.
    Read,
    /// Plain store.
    Write,
    /// Atomic read-modify-write.
    Atomic {
        /// Which RMW operation.
        op: AtomicOp,
        /// Whether the returned old value is consumed anywhere.
        result_used: bool,
    },
    /// Atomic compare-and-swap.
    Cas {
        /// Whether the returned old value is consumed anywhere.
        result_used: bool,
    },
}

impl AccessKind {
    /// Whether the access mutates memory.
    pub fn is_write(&self) -> bool {
        !matches!(self, AccessKind::Read)
    }

    fn is_atomic(&self) -> bool {
        matches!(self, AccessKind::Atomic { .. } | AccessKind::Cas { .. })
    }

    /// Commutative atomic whose result is discarded: order-independent.
    fn order_independent(&self) -> bool {
        match self {
            AccessKind::Atomic { op, result_used } => {
                !result_used
                    && matches!(
                        op,
                        AtomicOp::Add | AtomicOp::Sub | AtomicOp::Min | AtomicOp::Max
                    )
            }
            _ => false,
        }
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
            AccessKind::Atomic { op, result_used } => {
                write!(
                    f,
                    "{}{}",
                    op.mnemonic(),
                    if *result_used { " (result used)" } else { "" }
                )
            }
            AccessKind::Cas { result_used } => write!(
                f,
                "atomic_cmpxchg{}",
                if *result_used { " (result used)" } else { "" }
            ),
        }
    }
}

/// One global-memory access discovered by the analysis.
#[derive(Debug, Clone)]
pub struct Site {
    /// Index of the kernel parameter the pointer traces back to, or
    /// [`UNKNOWN_PARAM`].
    pub param: usize,
    /// Source-level name of that parameter (`"<unknown>"` for untraceable
    /// pointers).
    pub param_name: String,
    /// How the site accesses memory.
    pub kind: AccessKind,
    /// Block containing the access.
    pub block: BlockId,
    /// Instruction index within the block.
    pub inst: usize,
    /// Source span `(line, col)` if the front end recorded one.
    pub span: Option<(u32, u32)>,
    /// Access width in bytes.
    pub bytes: usize,
    offset: Option<Affine>,
    guards: BTreeSet<CondVal>,
}

impl Site {
    /// Coarse classification of the byte-offset expression: `"item-affine"`
    /// (varies with the local id), `"group-affine"` (varies only with the
    /// group id), `"uniform"` (same for all items) or `"unknown"`.
    pub fn index_class(&self) -> &'static str {
        match &self.offset {
            None => "unknown",
            Some(a) => {
                if !a.group_uniform() {
                    "item-affine"
                } else if !a.coeffs.is_empty() {
                    "group-affine"
                } else {
                    "uniform"
                }
            }
        }
    }

    /// Human-readable location: source span when available, IR location
    /// otherwise.
    pub fn location(&self) -> String {
        match self.span {
            Some((line, col)) => format!("{line}:{col}"),
            None => format!("bb{}/{}", self.block.0, self.inst),
        }
    }

    fn describe(&self) -> String {
        format!(
            "{} of `{}` at {} ({} index)",
            self.kind,
            self.param_name,
            self.location(),
            self.index_class()
        )
    }
}

/// A barrier executed under control flow that may diverge within a group.
#[derive(Debug, Clone)]
pub struct BarrierSite {
    /// Block containing the barrier (or the call to a barrier-using helper).
    pub block: BlockId,
    /// Instruction index within the block.
    pub inst: usize,
    /// Source span if recorded.
    pub span: Option<(u32, u32)>,
    /// Why the controlling condition is considered divergent.
    pub cause: String,
}

/// Concrete launch parameters for the launch-time eligibility check.
#[derive(Debug, Clone, Copy)]
pub struct LaunchEnv<'a> {
    /// Work-group size per dimension.
    pub local: [usize; 3],
    /// Number of groups per dimension.
    pub groups: [usize; 3],
    /// Number of launch dimensions.
    pub work_dim: u32,
    /// Scalar argument values by parameter index (`None` for buffers and
    /// non-integer scalars).
    pub args: &'a [Option<i64>],
    /// Whether all buffer arguments are pairwise distinct (no aliasing
    /// between parameters).
    pub distinct_buffers: bool,
}

/// Per-written-parameter safety route (how the parameter was proven safe).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Route {
    /// All sites proven cross-group disjoint symbolically. `unit_groups`
    /// lists dimensions that must have exactly one group for the proof to
    /// hold (zero group coefficient on that axis).
    Disjoint { unit_groups: BTreeSet<u8> },
    /// All sites are atomic; contention is synchronized.
    Contended { deterministic: bool },
    /// Well-formed affine sites whose disjointness could not be proven
    /// symbolically; re-checked per launch with concrete sizes.
    NeedsLaunch,
    /// A potential data race.
    Racy { why: String },
}

/// The full analysis result for one kernel.
#[derive(Debug, Clone)]
pub struct KernelRaceReport {
    /// Kernel name.
    pub kernel: String,
    /// The parallel-safety verdict.
    pub verdict: ParallelSafety,
    /// Every global-memory access discovered (reads included).
    pub sites: Vec<Site>,
    /// Barriers under potentially divergent control flow (undefined
    /// behaviour per the OpenCL execution model).
    pub divergent_barriers: Vec<BarrierSite>,
    routes: BTreeMap<usize, Route>,
}

// ---------------------------------------------------------------------------
// The dataflow analyzer
// ---------------------------------------------------------------------------

type CellId = (u32, u32);
type CellMap = BTreeMap<CellId, AbsVal>;

struct Analyzer<'a> {
    func: &'a Function,
    module: &'a Module,
    regs: Vec<Option<AbsVal>>,
    used: Vec<bool>,
    aggressive: bool,
    changed: bool,
}

impl<'a> Analyzer<'a> {
    fn new(func: &'a Function, module: &'a Module) -> Self {
        let mut used = vec![false; func.value_types.len()];
        for block in &func.blocks {
            for inst in &block.insts {
                for v in operands(&inst.op) {
                    used[v.index()] = true;
                }
            }
            match &block.term {
                Some(Terminator::CondBr { cond, .. }) => used[cond.index()] = true,
                Some(Terminator::Ret(Some(v))) => used[v.index()] = true,
                _ => {}
            }
        }
        let mut regs: Vec<Option<AbsVal>> = vec![None; func.value_types.len()];
        for (i, p) in func.params.iter().enumerate() {
            regs[i] = Some(if p.ty.is_ptr() {
                AbsVal::Ptr(PtrVal {
                    base: PtrBase::Param(i),
                    off: Some(Affine::uniform(Poly::zero())),
                })
            } else if p.ty.is_int() {
                AbsVal::Aff(Affine::uniform(Poly::atom(Atom::Arg(i))))
            } else {
                // Float/bool scalars: uniform but not usable in offsets.
                AbsVal::UnknownUniform
            });
        }
        Analyzer {
            func,
            module,
            regs,
            used,
            aggressive: false,
            changed: false,
        }
    }

    fn reg(&self, v: ValueId) -> AbsVal {
        self.regs[v.index()].clone().unwrap_or(AbsVal::Unknown)
    }

    fn set_reg(&mut self, v: ValueId, val: AbsVal) {
        let slot = &mut self.regs[v.index()];
        let next = match slot.take() {
            None => {
                self.changed = true;
                val
            }
            Some(old) => {
                let j = join(&old, &val, self.aggressive);
                if j != old {
                    self.changed = true;
                }
                j
            }
        };
        *slot = Some(next);
    }

    /// Whether a callee (transitively) touches global memory.
    fn callee_touches_global(&self, callee: &str) -> bool {
        let touches = |f: &Function| {
            f.blocks.iter().any(|b| {
                b.insts.iter().any(|i| {
                    let ptr = match &i.op {
                        Op::Load(p) => *p,
                        Op::Store { ptr, .. } => *ptr,
                        Op::AtomicRmw { ptr, .. } => *ptr,
                        Op::AtomicCmpXchg { ptr, .. } => *ptr,
                        _ => return false,
                    };
                    matches!(
                        f.value_type(ptr).space(),
                        Some(AddressSpace::Global | AddressSpace::Constant)
                    )
                })
            })
        };
        let Some(f) = self.module.function(callee) else {
            return true; // unknown callee: be conservative
        };
        if touches(f) {
            return true;
        }
        reachable_helpers(f, self.module)
            .iter()
            .filter_map(|n| self.module.function(n))
            .any(touches)
    }

    /// Transfer one block: update cells/regs; when `sites` is given, record
    /// global-memory accesses.
    fn transfer(&mut self, bid: usize, cells: &mut CellMap, mut sites: Option<&mut Vec<Site>>) {
        let block = &self.func.blocks[bid];
        for (iid, inst) in block.insts.iter().enumerate() {
            let val = match &inst.op {
                Op::Const(c) => match c {
                    ConstVal::Bool(_) | ConstVal::F32(_) | ConstVal::F64(_) => {
                        AbsVal::UnknownUniform
                    }
                    ConstVal::I32(v) => AbsVal::Aff(Affine::uniform(Poly::constant(*v as i64))),
                    ConstVal::I64(v) => AbsVal::Aff(Affine::uniform(Poly::constant(*v))),
                },
                Op::Bin(op, a, b) => self.transfer_bin(*op, &self.reg(*a), &self.reg(*b)),
                Op::Un(op, a) => {
                    let av = self.reg(*a);
                    match (&av, op) {
                        (AbsVal::Aff(x), UnOp::Neg) => AbsVal::Aff(x.neg()),
                        (AbsVal::Aff(x), _) => match x.as_pure_uniform() {
                            Some(p) => AbsVal::Aff(Affine::uniform(opaque_un(*op, p))),
                            None => av.degrade(),
                        },
                        _ => av.degrade(),
                    }
                }
                Op::Cmp(op, a, b) => {
                    let (av, bv) = (self.reg(*a), self.reg(*b));
                    match (av.as_affine(), bv.as_affine()) {
                        (Some(x), Some(y)) => AbsVal::Cond(CondVal {
                            op: *op,
                            lhs: x.clone(),
                            rhs: y.clone(),
                        }),
                        _ => degrade_pair(&av, &bv),
                    }
                }
                Op::Select(c, a, b) => {
                    let (cv, av, bv) = (self.reg(*c), self.reg(*a), self.reg(*b));
                    if av == bv {
                        av
                    } else if cv.group_uniform() {
                        join(&av, &bv, false)
                    } else {
                        degrade_pair(&av, &bv)
                    }
                }
                Op::Cast(ty, v) => {
                    let av = self.reg(*v);
                    if ty.is_int() && self.func.value_type(*v).is_int() {
                        match av {
                            AbsVal::Cond(_) => av.degrade(),
                            other => other,
                        }
                    } else {
                        av.degrade()
                    }
                }
                Op::Alloca { elem, count, space } => {
                    let tracked = *space == AddressSpace::Private
                        && *count == 1
                        && (elem.is_int()
                            || elem.is_float()
                            || *elem == Type::Bool
                            || elem.is_ptr());
                    let cell = (bid as u32, iid as u32);
                    if tracked {
                        cells.entry(cell).or_insert(AbsVal::Unknown);
                    }
                    AbsVal::Ptr(PtrVal {
                        base: PtrBase::Cell {
                            block: cell.0,
                            inst: cell.1,
                            space: *space,
                            tracked,
                        },
                        off: Some(Affine::uniform(Poly::zero())),
                    })
                }
                Op::Load(p) => {
                    self.record_access(
                        *p,
                        AccessKind::Read,
                        bid,
                        iid,
                        inst.span,
                        sites.as_deref_mut(),
                    );
                    match self.reg(*p) {
                        AbsVal::Ptr(PtrVal {
                            base: PtrBase::Cell { tracked: true, .. },
                            off: Some(o),
                        }) if o.as_pure_uniform().map(Poly::is_zero) == Some(true) => {
                            let cell = match self.reg(*p) {
                                AbsVal::Ptr(PtrVal {
                                    base: PtrBase::Cell { block, inst, .. },
                                    ..
                                }) => (block, inst),
                                _ => unreachable!(),
                            };
                            cells.get(&cell).cloned().unwrap_or(AbsVal::Unknown)
                        }
                        _ => AbsVal::Unknown,
                    }
                }
                Op::Store { ptr, value } => {
                    let vv = self.reg(*value);
                    self.record_access(
                        *ptr,
                        AccessKind::Write,
                        bid,
                        iid,
                        inst.span,
                        sites.as_deref_mut(),
                    );
                    match self.reg(*ptr) {
                        AbsVal::Ptr(PtrVal {
                            base:
                                PtrBase::Cell {
                                    block,
                                    inst: cinst,
                                    tracked: true,
                                    ..
                                },
                            off,
                        }) => {
                            let zero_off = off
                                .as_ref()
                                .and_then(|o| o.as_pure_uniform())
                                .map(Poly::is_zero)
                                == Some(true);
                            cells.insert(
                                (block, cinst),
                                if zero_off { vv } else { AbsVal::Unknown },
                            );
                        }
                        AbsVal::Unknown => {
                            // A store through an untraceable pointer could hit
                            // anything, including tracked cells.
                            for v in cells.values_mut() {
                                *v = AbsVal::Unknown;
                            }
                        }
                        _ => {}
                    }
                    AbsVal::Unknown
                }
                Op::Gep { ptr, index } => match self.reg(*ptr) {
                    AbsVal::Ptr(PtrVal { base, off }) => {
                        let stride = self
                            .func
                            .value_type(*ptr)
                            .pointee()
                            .map(interp_size)
                            .unwrap_or(1) as i64;
                        let idx = self.reg(*index);
                        let off = match (off, idx.as_affine()) {
                            (Some(o), Some(i)) => {
                                Some(o.add(&i.scale_poly(&Poly::constant(stride))))
                            }
                            _ => None,
                        };
                        AbsVal::Ptr(PtrVal { base, off })
                    }
                    _ => AbsVal::Unknown,
                },
                Op::Call { callee, args } => {
                    let touches_global = self.callee_touches_global(callee);
                    let mut all_uniform = true;
                    for a in args {
                        let av = self.reg(*a);
                        all_uniform &= av.group_uniform();
                        if let AbsVal::Ptr(PtrVal { base, .. }) = &av {
                            match base {
                                PtrBase::Param(p) if touches_global => {
                                    // The callee may read or write anywhere in
                                    // this buffer.
                                    if let Some(s) = sites.as_deref_mut() {
                                        s.push(self.make_site(
                                            *p,
                                            AccessKind::Write,
                                            bid,
                                            iid,
                                            inst.span,
                                            1,
                                            None,
                                        ));
                                    }
                                }
                                PtrBase::Cell {
                                    block,
                                    inst: cinst,
                                    tracked: true,
                                    ..
                                } => {
                                    // The callee may store through the cell.
                                    cells.insert((*block, *cinst), AbsVal::Unknown);
                                }
                                _ => {}
                            }
                        }
                    }
                    if all_uniform {
                        AbsVal::UnknownUniform
                    } else {
                        AbsVal::Unknown
                    }
                }
                Op::WorkItem { builtin, dim } => {
                    let d = *dim;
                    match builtin {
                        WiBuiltin::GlobalId => AbsVal::Aff(gid_affine(d)),
                        WiBuiltin::LocalId => {
                            let mut coeffs = BTreeMap::new();
                            coeffs.insert(Axis::Lid(d), Poly::constant(1));
                            AbsVal::Aff(Affine {
                                base: Poly::zero(),
                                coeffs,
                                steps: BTreeSet::new(),
                            })
                        }
                        WiBuiltin::GroupId => {
                            let mut coeffs = BTreeMap::new();
                            coeffs.insert(Axis::Grp(d), Poly::constant(1));
                            AbsVal::Aff(Affine {
                                base: Poly::zero(),
                                coeffs,
                                steps: BTreeSet::new(),
                            })
                        }
                        WiBuiltin::GlobalSize => AbsVal::Aff(Affine::uniform(
                            Poly::atom(Atom::LocalSize(d)).mul(&Poly::atom(Atom::NumGroups(d))),
                        )),
                        WiBuiltin::LocalSize => {
                            AbsVal::Aff(Affine::uniform(Poly::atom(Atom::LocalSize(d))))
                        }
                        WiBuiltin::NumGroups => {
                            AbsVal::Aff(Affine::uniform(Poly::atom(Atom::NumGroups(d))))
                        }
                        WiBuiltin::WorkDim => {
                            AbsVal::Aff(Affine::uniform(Poly::atom(Atom::WorkDim)))
                        }
                    }
                }
                Op::AtomicRmw { op, ptr, .. } => {
                    let result_used = inst.result.map(|r| self.used[r.index()]).unwrap_or(false);
                    self.record_access(
                        *ptr,
                        AccessKind::Atomic {
                            op: *op,
                            result_used,
                        },
                        bid,
                        iid,
                        inst.span,
                        sites.as_deref_mut(),
                    );
                    AbsVal::Unknown
                }
                Op::AtomicCmpXchg { ptr, .. } => {
                    let result_used = inst.result.map(|r| self.used[r.index()]).unwrap_or(false);
                    self.record_access(
                        *ptr,
                        AccessKind::Cas { result_used },
                        bid,
                        iid,
                        inst.span,
                        sites.as_deref_mut(),
                    );
                    AbsVal::Unknown
                }
                Op::Barrier => AbsVal::Unknown,
            };
            if let Some(r) = inst.result {
                self.set_reg(r, val);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn make_site(
        &self,
        param: usize,
        kind: AccessKind,
        bid: usize,
        iid: usize,
        span: Option<(u32, u32)>,
        bytes: usize,
        offset: Option<Affine>,
    ) -> Site {
        let param_name = if param == UNKNOWN_PARAM {
            "<unknown>".to_string()
        } else {
            self.func.params[param].name.clone()
        };
        Site {
            param,
            param_name,
            kind,
            block: BlockId(bid as u32),
            inst: iid,
            span,
            bytes,
            offset,
            guards: BTreeSet::new(),
        }
    }

    /// Record a global-memory access site if `ptr` reaches global memory.
    fn record_access(
        &self,
        ptr: ValueId,
        kind: AccessKind,
        bid: usize,
        iid: usize,
        span: Option<(u32, u32)>,
        sites: Option<&mut Vec<Site>>,
    ) {
        let Some(sites) = sites else { return };
        let ty = self.func.value_type(ptr);
        let space = ty.space();
        let bytes = ty.pointee().map(interp_size).unwrap_or(1);
        match self.reg(ptr) {
            AbsVal::Ptr(PtrVal { base, off }) => match base {
                PtrBase::Param(p) => {
                    // Constant space is read-only; only global can race.
                    if space == Some(AddressSpace::Global)
                        || (space == Some(AddressSpace::Constant) && kind.is_write())
                    {
                        sites.push(self.make_site(p, kind, bid, iid, span, bytes, off));
                    }
                }
                PtrBase::Cell { .. } => {} // local/private: never cross-group
            },
            _ => {
                // Untraceable pointer: it may point at global memory.
                sites.push(self.make_site(UNKNOWN_PARAM, kind, bid, iid, span, bytes, None));
            }
        }
    }

    fn transfer_bin(&self, op: BinOp, a: &AbsVal, b: &AbsVal) -> AbsVal {
        let (x, y) = match (a.as_affine(), b.as_affine()) {
            (Some(x), Some(y)) => (x, y),
            _ => return degrade_pair(a, b),
        };
        match op {
            BinOp::Add => AbsVal::Aff(x.add(y)),
            BinOp::Sub => AbsVal::Aff(x.sub(y)),
            BinOp::Mul => {
                if let Some(u) = x.as_pure_uniform() {
                    AbsVal::Aff(y.scale_poly(u))
                } else if let Some(u) = y.as_pure_uniform() {
                    AbsVal::Aff(x.scale_poly(u))
                } else {
                    degrade_pair(a, b)
                }
            }
            BinOp::Shl => {
                if let Some(c) = y.as_pure_uniform().and_then(Poly::as_const) {
                    if (0..32).contains(&c) {
                        return AbsVal::Aff(x.scale_poly(&Poly::constant(1i64 << c)));
                    }
                }
                self.opaque_uniform(op, a, b, x, y)
            }
            _ => self.opaque_uniform(op, a, b, x, y),
        }
    }

    fn opaque_uniform(&self, op: BinOp, a: &AbsVal, b: &AbsVal, x: &Affine, y: &Affine) -> AbsVal {
        match (x.as_pure_uniform(), y.as_pure_uniform()) {
            (Some(px), Some(py)) => AbsVal::Aff(Affine::uniform(opaque_bin(op, px, py))),
            _ => degrade_pair(a, b),
        }
    }
}

// ---------------------------------------------------------------------------
// Fixpoint driver, guards, divergence
// ---------------------------------------------------------------------------

/// Join `from` into `into`; true if `into` changed.
fn join_cells(into: &mut Option<CellMap>, from: &CellMap, aggressive: bool) -> bool {
    match into {
        None => {
            *into = Some(from.clone());
            true
        }
        Some(cur) => {
            let mut changed = false;
            for (k, v) in from {
                match cur.get(k) {
                    None => {
                        cur.insert(*k, v.clone());
                        changed = true;
                    }
                    Some(old) => {
                        let j = join(old, v, aggressive);
                        if &j != old {
                            cur.insert(*k, j);
                            changed = true;
                        }
                    }
                }
            }
            changed
        }
    }
}

/// Blocks reachable from entry when the `cut` edge is removed. Used for path
/// guards: under a fixed (item-invariant) branch outcome the cut edge is
/// never taken, so unreachable blocks imply the opposite outcome.
fn reachable_without_edge(func: &Function, cut: (usize, usize)) -> Vec<bool> {
    let succs = successors(func);
    let n = func.blocks.len();
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(b) = stack.pop() {
        for s in &succs[b] {
            let si = s.index();
            if (b, si) == cut || seen[si] {
                continue;
            }
            seen[si] = true;
            stack.push(si);
        }
    }
    seen
}

/// Postdominator sets over the CFG augmented with a virtual exit node
/// (index `n`); same u128-bitset iteration as `verify::dominators`.
fn postdominators(func: &Function) -> Vec<u128> {
    let n = func.blocks.len();
    assert!(n < 128, "function has too many blocks for postdominators");
    let exit = n;
    let succs = successors(func);
    let all: u128 = if n + 1 == 128 {
        u128::MAX
    } else {
        (1u128 << (n + 1)) - 1
    };
    let mut pdom = vec![all; n + 1];
    pdom[exit] = 1u128 << exit;
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            let mut meet = all;
            let is_exit_pred = matches!(func.blocks[b].term, Some(Terminator::Ret(_)));
            if is_exit_pred {
                meet &= pdom[exit];
            } else {
                let mut any = false;
                for s in &succs[b] {
                    meet &= pdom[s.index()];
                    any = true;
                }
                if !any {
                    meet = pdom[exit]; // malformed/unterminated: treat as exiting
                }
            }
            let next = meet | (1u128 << b);
            if next != pdom[b] {
                pdom[b] = next;
                changed = true;
            }
        }
    }
    pdom
}

/// Blocks `B` control-dependent on branch block `D` (Ferrante et al.):
/// `B` postdominates a successor of `D` but does not strictly postdominate
/// `D` itself.
fn control_dependent_on(func: &Function, pdom: &[u128], d: usize) -> u128 {
    let mut deps = 0u128;
    let succs: Vec<usize> = match &func.blocks[d].term {
        Some(t) => t.successors().iter().map(|b| b.index()).collect(),
        None => vec![],
    };
    for b in 0..func.blocks.len() {
        let strictly_pdoms_d = b != d && pdom[d] & (1u128 << b) != 0;
        if strictly_pdoms_d {
            continue;
        }
        if succs.iter().any(|&s| pdom[s] & (1u128 << b) != 0) {
            deps |= 1u128 << b;
        }
    }
    deps
}

// ---------------------------------------------------------------------------
// Disjointness proofs
// ---------------------------------------------------------------------------

/// Launch-time enumeration is attempted only below this many work items.
const ENUM_LIMIT: usize = 65_536;

/// Symbolic tight-packing proof that all sites of one parameter are
/// cross-group disjoint. Returns the set of dimensions that must have a
/// single group (axes with no group coefficient).
fn symbolic_disjoint(sites: &[&Site]) -> Option<BTreeSet<u8>> {
    let offs: Vec<&Affine> = sites
        .iter()
        .map(|s| s.offset.as_ref())
        .collect::<Option<Vec<_>>>()?;
    let coeffs = &offs[0].coeffs;
    if offs.iter().any(|o| &o.coeffs != coeffs) {
        return None;
    }
    // Bases may differ by constants only; the spread joins the access width
    // in the innermost packed span.
    let base0 = &offs[0].base;
    let mut lo: i64 = 0;
    let mut hi: i64 = sites[0].bytes as i64;
    for (o, s) in offs.iter().zip(sites.iter()).skip(1) {
        let d = o.base.sub(base0).as_const()?;
        lo = lo.min(d);
        hi = hi.max(d + s.bytes as i64);
    }
    let span0 = hi - lo;
    let mut covered = Poly::constant(span0);
    let mut unit_groups = BTreeSet::new();
    for d in 0..3u8 {
        for axis in [Axis::Lid(d), Axis::Grp(d)] {
            match coeffs.get(&axis) {
                None => {
                    // Zero local coefficient: same-group duplication is fine
                    // (groups run sequentially). Zero group coefficient: all
                    // groups hit the same bytes — require a unit dimension.
                    if matches!(axis, Axis::Grp(_)) {
                        unit_groups.insert(d);
                    }
                }
                Some(c) => {
                    let r = c.const_ratio(&covered)?;
                    if r == 0 {
                        return None;
                    }
                    let range = match axis {
                        Axis::Lid(d) => Poly::atom(Atom::LocalSize(d)),
                        Axis::Grp(d) => Poly::atom(Atom::NumGroups(d)),
                    };
                    covered = covered.scale(r.abs()).mul(&range);
                }
            }
        }
    }
    // Loop strides must jump in whole multiples of the packed span.
    for o in &offs {
        for step in &o.steps {
            let k = step.const_ratio(&covered)?;
            if k == 0 {
                return None;
            }
        }
    }
    Some(unit_groups)
}

/// Single-writer proof: every site carries an equality guard pinning
/// `get_global_id(d)` to one uniform value, so at most one work item (per
/// unit combination of the other dimensions) executes any of them.
fn single_writer_dim(sites: &[&Site]) -> Option<u8> {
    let first = &sites.first()?.guards;
    for g in first {
        if g.op != CmpOp::Eq || !g.item_fixed() {
            continue;
        }
        // One side must be the gid decomposition of a single dimension
        // (injective: `gid_d == c` pins both `grp_d` and `lid_d`), the other
        // pure uniform.
        for (lhs, rhs) in [(&g.lhs, &g.rhs), (&g.rhs, &g.lhs)] {
            if rhs.as_pure_uniform().is_none() {
                continue;
            }
            for d in 0..3u8 {
                if lhs.coeffs == gid_affine(d).coeffs && sites.iter().all(|s| s.guards.contains(g))
                {
                    return Some(d);
                }
            }
        }
    }
    None
}

/// Concrete per-launch disjointness: evaluate the shared coefficients and
/// chain the axes in ascending magnitude; every axis stride must clear the
/// span accumulated so far.
fn concrete_disjoint(sites: &[&Site], env: &LaunchEnv<'_>) -> bool {
    let Some(offs) = sites
        .iter()
        .map(|s| s.offset.as_ref())
        .collect::<Option<Vec<_>>>()
    else {
        return false;
    };
    // Per-axis coefficient, identical across sites.
    let mut coeff: BTreeMap<Axis, i64> = BTreeMap::new();
    for o in &offs {
        for (a, p) in &o.coeffs {
            let Some(v) = p.eval(env) else { return false };
            match coeff.get(a) {
                None => {
                    coeff.insert(*a, v);
                }
                Some(prev) if *prev != v => return false,
                _ => {}
            }
        }
        // An axis missing from one site but present in another is a zero
        // coefficient mismatch.
    }
    for o in &offs {
        for a in coeff.keys() {
            if !o.coeffs.contains_key(a) && coeff[a] != 0 {
                return false;
            }
        }
    }
    // Base spread.
    let Some(b0) = offs[0].base.eval(env) else {
        return false;
    };
    let mut lo = 0i64;
    let mut hi = sites[0].bytes as i64;
    for (o, s) in offs.iter().zip(sites.iter()).skip(1) {
        let Some(b) = o.base.eval(env) else {
            return false;
        };
        let d = b - b0;
        lo = lo.min(d);
        hi = hi.max(d + s.bytes as i64);
    }
    let mut span = hi - lo;
    // Axes sorted by ascending |coefficient|; zero-coefficient group axes
    // require a unit dimension, zero-coefficient local axes are harmless.
    let mut axes: Vec<(Axis, i64, i64)> = Vec::new();
    for d in 0..3u8 {
        let (ls, ng) = (env.local[d as usize] as i64, env.groups[d as usize] as i64);
        for (axis, n) in [(Axis::Lid(d), ls), (Axis::Grp(d), ng)] {
            let c = coeff.get(&axis).copied().unwrap_or(0);
            if n <= 1 {
                continue; // single point on this axis: no spread
            }
            if c == 0 {
                match axis {
                    Axis::Grp(_) => return false, // all groups collide
                    Axis::Lid(_) => continue,     // same-group duplication
                }
            }
            axes.push((axis, c.abs(), n));
        }
    }
    axes.sort_by_key(|(_, c, _)| *c);
    for (_, c, n) in axes {
        if c < span {
            return false;
        }
        span = c
            .checked_mul(n - 1)
            .and_then(|x| x.checked_add(span))
            .unwrap_or(i64::MAX);
    }
    // Loop strides: the whole chained footprint must fit inside one stride
    // period (every stride is then a multiple of the gcd ≥ span).
    let mut gcd: Option<i64> = None;
    for o in &offs {
        for step in &o.steps {
            let Some(v) = step.eval(env) else {
                return false;
            };
            let v = v.abs();
            if v == 0 {
                return false;
            }
            gcd = Some(match gcd {
                None => v,
                Some(g) => gcd_i64(g, v),
            });
        }
    }
    if let Some(g) = gcd {
        if span > g {
            return false;
        }
    }
    true
}

fn gcd_i64(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Bounded whole-launch enumeration: evaluate every site's guards and offset
/// for every work item and sweep the resulting byte intervals for
/// cross-group overlaps involving a write. Rescues guarded rounded-up
/// launches (`if (gid < n)`) the chain proof cannot handle.
fn enumerate_disjoint(sites: &[&Site], env: &LaunchEnv<'_>) -> bool {
    let items: usize = env.local.iter().product::<usize>() * env.groups.iter().product::<usize>();
    if items == 0 || items > ENUM_LIMIT {
        return false;
    }
    // If any site is loop-stepped, fold all intervals into residue space
    // modulo the shared stride gcd; each footprint must fit one period.
    let mut stride: Option<i64> = None;
    for s in sites {
        let Some(o) = &s.offset else { return false };
        for step in &o.steps {
            let Some(v) = step.eval(env) else {
                return false;
            };
            if v == 0 {
                return false;
            }
            stride = Some(match stride {
                None => v.abs(),
                Some(g) => gcd_i64(g, v.abs()),
            });
        }
    }
    let mut intervals: Vec<(i64, i64, u32, bool)> = Vec::new();
    for g2 in 0..env.groups[2] {
        for g1 in 0..env.groups[1] {
            for g0 in 0..env.groups[0] {
                let grp = [g0, g1, g2];
                let grp_lin = (g2 * env.groups[1] * env.groups[0] + g1 * env.groups[0] + g0) as u32;
                for l2 in 0..env.local[2] {
                    for l1 in 0..env.local[1] {
                        for l0 in 0..env.local[0] {
                            let lid = [l0, l1, l2];
                            for s in sites {
                                let active = s
                                    .guards
                                    .iter()
                                    .all(|g| g.eval_at(env, lid, grp).unwrap_or(true));
                                if !active {
                                    continue;
                                }
                                let o = s.offset.as_ref().unwrap();
                                let Some(v) = o.eval_at(env, lid, grp) else {
                                    return false;
                                };
                                let w = s.bytes as i64;
                                let v = match stride {
                                    None => v,
                                    Some(st) => {
                                        let r = v.rem_euclid(st);
                                        if r + w > st {
                                            return false;
                                        }
                                        r
                                    }
                                };
                                intervals.push((v, v + w, grp_lin, s.kind.is_write()));
                            }
                        }
                    }
                }
            }
        }
    }
    intervals.sort_unstable();
    // Sweep: among intervals overlapping at any byte, a pair from different
    // groups where at least one writes is a race.
    let mut open: Vec<(i64, u32, bool)> = Vec::new(); // (end, group, write)
    for (start, end, grp, write) in intervals {
        open.retain(|(e, _, _)| *e > start);
        for (_, og, ow) in &open {
            if *og != grp && (*ow || write) {
                return false;
            }
        }
        open.push((end, grp, write));
    }
    true
}

// ---------------------------------------------------------------------------
// Report assembly
// ---------------------------------------------------------------------------

/// Path guards per block: conditions that provably hold whenever the block
/// executes, derived from item-fixed branches via edge-cut reachability.
fn compute_guards(func: &Function, an: &Analyzer<'_>) -> Vec<BTreeSet<CondVal>> {
    let n = func.blocks.len();
    let mut guards: Vec<BTreeSet<CondVal>> = vec![BTreeSet::new(); n];
    for d in 0..n {
        let Some(Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        }) = &func.blocks[d].term
        else {
            continue;
        };
        if then_bb == else_bb {
            continue;
        }
        let AbsVal::Cond(c) = an.reg(*cond) else {
            continue;
        };
        if !c.item_fixed() {
            continue;
        }
        // If the branch outcome were false, the edge d→then would never be
        // taken; blocks unreachable without it therefore imply the condition.
        let no_then = reachable_without_edge(func, (d, then_bb.index()));
        let no_else = reachable_without_edge(func, (d, else_bb.index()));
        for b in 0..n {
            if !no_then[b] {
                guards[b].insert(c.clone());
            }
            if !no_else[b] {
                guards[b].insert(c.negate());
            }
        }
    }
    guards
}

/// Collect barriers (including calls into barrier-using helpers) that are
/// control-dependent on a non-uniform condition.
fn divergent_barriers(func: &Function, module: &Module, an: &Analyzer<'_>) -> Vec<BarrierSite> {
    let n = func.blocks.len();
    if n + 1 > 128 {
        return Vec::new(); // beyond the bitset width; skip the check
    }
    let pdom = postdominators(func);
    // Cache control-dependence sets per branch block.
    let mut cd: Vec<Option<u128>> = vec![None; n];
    let mut out = Vec::new();
    for (b, block) in func.blocks.iter().enumerate() {
        for (iid, inst) in block.insts.iter().enumerate() {
            let is_barrier = match &inst.op {
                Op::Barrier => true,
                Op::Call { callee, .. } => module
                    .function(callee)
                    .map(|f| crate::analysis::uses_barrier(f, module))
                    .unwrap_or(false),
                _ => false,
            };
            if !is_barrier {
                continue;
            }
            for (d, slot) in cd.iter_mut().enumerate() {
                let Some(Terminator::CondBr { cond, .. }) = &func.blocks[d].term else {
                    continue;
                };
                let deps = *slot.get_or_insert_with(|| control_dependent_on(func, &pdom, d));
                if deps & (1u128 << b) == 0 {
                    continue;
                }
                let cause = match an.reg(*cond) {
                    AbsVal::Cond(c) if c.group_uniform() => continue,
                    AbsVal::Aff(a) if a.group_uniform() => continue,
                    AbsVal::UnknownUniform => continue,
                    AbsVal::Cond(_) | AbsVal::Aff(_) => format!(
                        "barrier depends on branch at bb{d} whose condition varies across the work items of a group"
                    ),
                    _ => format!(
                        "barrier depends on branch at bb{d} whose condition could not be proven group-uniform"
                    ),
                };
                out.push(BarrierSite {
                    block: BlockId(b as u32),
                    inst: iid,
                    span: inst.span,
                    cause,
                });
                break; // one diagnosis per barrier is enough
            }
        }
    }
    out
}

fn group_sites(sites: &[Site]) -> BTreeMap<usize, Vec<&Site>> {
    let mut by_param: BTreeMap<usize, Vec<&Site>> = BTreeMap::new();
    for s in sites {
        by_param.entry(s.param).or_default().push(s);
    }
    by_param
}

fn compute_routes(sites: &[Site]) -> BTreeMap<usize, Route> {
    let mut routes = BTreeMap::new();
    for (p, ss) in group_sites(sites) {
        if !ss.iter().any(|s| s.kind.is_write()) {
            continue; // read-only parameter: cannot race on its own
        }
        if p == UNKNOWN_PARAM {
            let why = ss
                .iter()
                .find(|s| s.kind.is_write())
                .map(|s| s.describe())
                .unwrap_or_else(|| "access through untraceable pointer".into());
            routes.insert(p, Route::Racy { why });
            continue;
        }
        if let Some(d) = single_writer_dim(&ss) {
            let unit_groups: BTreeSet<u8> = (0..3u8).filter(|x| *x != d).collect();
            routes.insert(p, Route::Disjoint { unit_groups });
            continue;
        }
        let offsets_known = ss.iter().all(|s| s.offset.is_some());
        let symbolic = if offsets_known {
            symbolic_disjoint(&ss)
        } else {
            None
        };
        // An unrestricted disjointness proof beats everything (disjoint
        // atomics are deterministic even when their results are used).
        if let Some(unit_groups) = &symbolic {
            if !unit_groups.contains(&0) {
                routes.insert(
                    p,
                    Route::Disjoint {
                        unit_groups: unit_groups.clone(),
                    },
                );
                continue;
            }
        }
        if ss.iter().all(|s| s.kind.is_atomic()) {
            let deterministic = ss.iter().all(|s| s.kind.order_independent());
            routes.insert(p, Route::Contended { deterministic });
            continue;
        }
        // Disjoint only under a unit dimension 0: keep the route (the
        // launch-time check can still validate it) but the verdict demotes.
        if let Some(unit_groups) = symbolic {
            routes.insert(p, Route::Disjoint { unit_groups });
            continue;
        }
        if offsets_known {
            routes.insert(p, Route::NeedsLaunch);
        } else {
            let why = ss
                .iter()
                .find(|s| s.kind.is_write() && s.offset.is_none())
                .map(|s| s.describe())
                .unwrap_or_else(|| ss[0].describe());
            routes.insert(p, Route::Racy { why });
        }
    }
    routes
}

fn compute_verdict(routes: &BTreeMap<usize, Route>, sites: &[Site]) -> ParallelSafety {
    let by_param = group_sites(sites);
    let mut contended: Option<bool> = None;
    for (p, route) in routes {
        match route {
            Route::Racy { why } => {
                return ParallelSafety::Racy { site: why.clone() };
            }
            Route::NeedsLaunch => {
                let site = by_param
                    .get(p)
                    .and_then(|ss| ss.iter().find(|s| s.kind.is_write()))
                    .map(|s| s.describe())
                    .unwrap_or_else(|| format!("writes to parameter {p}"));
                return ParallelSafety::Racy {
                    site: format!("{site}; disjointness depends on launch parameters"),
                };
            }
            Route::Contended { deterministic } => {
                contended = Some(contended.unwrap_or(true) && *deterministic);
            }
            Route::Disjoint { unit_groups } => {
                // Disjointness that requires a single work group in
                // dimension 0 is a genuine launch restriction (dimension 0
                // always has groups); higher dimensions are unit in ordinary
                // lower-rank launches, so only dimension 0 demotes the
                // verdict.
                if unit_groups.contains(&0) {
                    let site = by_param
                        .get(p)
                        .and_then(|ss| ss.iter().find(|s| s.kind.is_write()))
                        .map(|s| s.describe())
                        .unwrap_or_else(|| format!("writes to parameter {p}"));
                    return ParallelSafety::Racy {
                        site: format!(
                            "{site}; disjoint only with a single work group in dimension 0"
                        ),
                    };
                }
            }
        }
    }
    match contended {
        Some(deterministic) => ParallelSafety::SafeViaAtomics { deterministic },
        None => ParallelSafety::Safe,
    }
}

/// Run the full race & divergence analysis on one kernel. Returns `None` if
/// `name` is not a kernel of `module`.
pub fn analyze_kernel(module: &Module, name: &str) -> Option<KernelRaceReport> {
    let func = module.function(name)?;
    if func.kind != FunctionKind::Kernel {
        return None;
    }
    if func.blocks.is_empty() {
        return Some(KernelRaceReport {
            kernel: name.to_string(),
            verdict: ParallelSafety::Safe,
            sites: Vec::new(),
            divergent_barriers: Vec::new(),
            routes: BTreeMap::new(),
        });
    }
    let n = func.blocks.len();
    let succs = successors(func);
    let mut an = Analyzer::new(func, module);
    let mut block_in: Vec<Option<CellMap>> = vec![None; n];
    block_in[0] = Some(CellMap::new());
    let soft_cap = 4 * n + 16;
    let hard_cap = 4 * soft_cap;
    let mut round = 0usize;
    loop {
        an.changed = false;
        let mut cells_changed = false;
        for b in 0..n {
            let Some(cin) = block_in[b].clone() else {
                continue;
            };
            let mut cells = cin;
            an.transfer(b, &mut cells, None);
            for s in &succs[b] {
                cells_changed |= join_cells(&mut block_in[s.index()], &cells, an.aggressive);
            }
        }
        round += 1;
        if !(cells_changed || an.changed) || round >= hard_cap {
            break;
        }
        if round >= soft_cap {
            an.aggressive = true;
        }
    }
    // Collection pass over the converged state.
    let mut sites: Vec<Site> = Vec::new();
    for (b, bin) in block_in.iter().enumerate().take(n) {
        let Some(cin) = bin.clone() else {
            continue;
        };
        let mut cells = cin;
        an.transfer(b, &mut cells, Some(&mut sites));
    }
    let guards = compute_guards(func, &an);
    for site in &mut sites {
        site.guards = guards[site.block.index()].clone();
    }
    let routes = compute_routes(&sites);
    let verdict = compute_verdict(&routes, &sites);
    let divergent = divergent_barriers(func, module, &an);
    Some(KernelRaceReport {
        kernel: name.to_string(),
        verdict,
        sites,
        divergent_barriers: divergent,
        routes,
    })
}

/// Analyze every kernel of a module, in definition order.
pub fn analyze_module(module: &Module) -> Vec<KernelRaceReport> {
    module
        .kernel_names()
        .iter()
        .filter_map(|n| analyze_kernel(module, n))
        .collect()
}

/// The report that gates cross-group parallel execution of kernel `name`,
/// with the kernel's dequeue contract when one
/// [holds](DequeueContract::holds_in). A persistent-worker scheduling
/// kernel's own report is always racy (every worker contends on the
/// dequeue counter), so under a holding contract the report is the
/// *original* kernel's, to be checked against the virtual range the
/// workers dequeue from. Returns `None` if `name` is not a kernel.
pub fn gate_report<'m>(
    module: &'m Module,
    name: &str,
) -> Option<(KernelRaceReport, Option<&'m DequeueContract>)> {
    let kernel = module.function(name)?;
    match module.dequeue.get(name) {
        Some(c) if c.holds_in(kernel) => Some((analyze_kernel(&c.original, name)?, Some(c))),
        _ => Some((analyze_kernel(module, name)?, None)),
    }
}

impl KernelRaceReport {
    /// Launch-independent eligibility for cross-group parallel execution:
    /// the verdict guarantees race freedom *and* bit-identical results.
    /// Disjointness proofs conditioned on unit dimensions or concrete launch
    /// parameters are re-validated by [`Self::eligible_for_launch`].
    pub fn eligible_static(&self) -> bool {
        matches!(
            self.verdict,
            ParallelSafety::Safe
                | ParallelSafety::SafeViaAtomics {
                    deterministic: true
                }
        )
    }

    /// Launch-aware eligibility: validates unit-dimension assumptions of the
    /// symbolic proofs and re-runs the disjointness decision with concrete
    /// sizes (evaluated chain, then bounded enumeration) for parameters the
    /// static proof could not settle.
    pub fn eligible_for_launch(&self, env: &LaunchEnv<'_>) -> bool {
        if self.routes.is_empty() {
            return true; // nothing written: reads cannot race
        }
        if env.groups.iter().product::<usize>() <= 1 {
            return true; // a single work group cannot race across groups
        }
        if !env.distinct_buffers {
            // Aliased buffer arguments would invalidate the per-parameter
            // reasoning below.
            return false;
        }
        let by_param = group_sites(&self.sites);
        for (p, route) in &self.routes {
            let ss = by_param.get(p).map(Vec::as_slice).unwrap_or(&[]);
            let ok = match route {
                Route::Disjoint { unit_groups } => {
                    unit_groups.iter().all(|d| env.groups[*d as usize] <= 1)
                        || concrete_disjoint(ss, env)
                        || enumerate_disjoint(ss, env)
                }
                Route::Contended { deterministic } => *deterministic,
                Route::NeedsLaunch => concrete_disjoint(ss, env) || enumerate_disjoint(ss, env),
                Route::Racy { .. } => false,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Eligibility that holds whatever the group counts of a `work_dim`
    /// launch (one group in every dimension from `work_dim` up): every
    /// written parameter is disjoint with at most those dimensions
    /// required unit, or deterministically contended, and buffers do not
    /// alias. Answers launches whose group counts are not known up front
    /// (a JIT scheduling kernel's virtual range lives in device memory);
    /// it implies [`Self::eligible_for_launch`] for every such launch.
    pub fn eligible_for_any_groups(&self, work_dim: u32, distinct_buffers: bool) -> bool {
        self.routes.is_empty()
            || (distinct_buffers
                && self.routes.values().all(|r| match r {
                    Route::Disjoint { unit_groups } => {
                        unit_groups.iter().all(|&d| u32::from(d) >= work_dim)
                    }
                    Route::Contended { deterministic } => *deterministic,
                    Route::NeedsLaunch | Route::Racy { .. } => false,
                }))
    }

    /// Whether any parameter is written at all (reads alone cannot race).
    pub fn has_writes(&self) -> bool {
        !self.routes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ir::{BinOp, CmpOp, FunctionKind};
    use crate::types::{AddressSpace, Type};

    fn module_with(f: Function) -> Module {
        let mut m = Module::new();
        m.insert_function(f);
        m
    }

    fn global_f32_ptr() -> Type {
        Type::ptr(AddressSpace::Global, Type::F32)
    }

    fn report(m: &Module) -> KernelRaceReport {
        analyze_kernel(m, "k").expect("kernel analyzed")
    }

    fn env<'a>(
        local: [usize; 3],
        groups: [usize; 3],
        work_dim: u32,
        args: &'a [Option<i64>],
    ) -> LaunchEnv<'a> {
        LaunchEnv {
            local,
            groups,
            work_dim,
            args,
            distinct_buffers: true,
        }
    }

    #[test]
    fn gid_indexed_store_is_safe() {
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let out = b.add_param("out", global_f32_ptr());
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let p = b.gep(out, gid);
        let x = b.const_f32(1.0);
        b.store(p, x);
        b.ret(None);
        let m = module_with(b.finish());
        let r = report(&m);
        assert_eq!(r.verdict, ParallelSafety::Safe, "{}", r.verdict);
        assert!(r.eligible_static());
        assert!(r.has_writes());
        let w = r.sites.iter().find(|s| s.kind.is_write()).unwrap();
        assert_eq!(w.index_class(), "item-affine");
        assert_eq!(w.param, 0);
        assert_eq!(w.param_name, "out");
        // A 1-D launch satisfies the implicit unit higher dimensions.
        assert!(r.eligible_for_launch(&env([8, 1, 1], [4, 1, 1], 1, &[None])));
    }

    #[test]
    fn constant_index_store_is_launch_restricted() {
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let out = b.add_param("out", global_f32_ptr());
        let zero = b.const_i64(0);
        let p = b.gep(out, zero);
        let x = b.const_f32(1.0);
        b.store(p, x);
        b.ret(None);
        let m = module_with(b.finish());
        let r = report(&m);
        // Every item of every group writes out[0]: racy for any multi-group
        // launch, so the static verdict must not be `Safe`.
        assert!(
            matches!(r.verdict, ParallelSafety::Racy { .. }),
            "{}",
            r.verdict
        );
        assert!(!r.eligible_static());
        // ... but a single-group launch cannot race across groups.
        assert!(r.eligible_for_launch(&env([8, 1, 1], [1, 1, 1], 1, &[None])));
        assert!(!r.eligible_for_launch(&env([8, 1, 1], [2, 1, 1], 1, &[None])));
    }

    #[test]
    fn aliased_buffers_block_launch_eligibility() {
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let out = b.add_param("out", global_f32_ptr());
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let p = b.gep(out, gid);
        let x = b.const_f32(1.0);
        b.store(p, x);
        b.ret(None);
        let m = module_with(b.finish());
        let r = report(&m);
        let mut e = env([8, 1, 1], [4, 1, 1], 1, &[None]);
        e.distinct_buffers = false;
        assert!(!r.eligible_for_launch(&e));
    }

    #[test]
    fn unused_atomic_add_is_deterministic_contention() {
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let hist = b.add_param("hist", Type::ptr(AddressSpace::Global, Type::I32));
        let idx = b.add_param("idx", Type::I64);
        let p = b.gep(hist, idx);
        let one = b.const_i32(1);
        let _old = b.atomic_rmw(AtomicOp::Add, p, one);
        b.ret(None);
        let m = module_with(b.finish());
        let r = report(&m);
        assert_eq!(
            r.verdict,
            ParallelSafety::SafeViaAtomics {
                deterministic: true
            },
            "{}",
            r.verdict
        );
        assert!(r.eligible_static());
        assert!(r.eligible_for_launch(&env([8, 1, 1], [4, 1, 1], 1, &[None, Some(3)])));
    }

    #[test]
    fn used_atomic_result_is_order_dependent() {
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let ctr = b.add_param("ctr", Type::ptr(AddressSpace::Global, Type::I32));
        let out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::I32));
        let zero = b.const_i64(0);
        let pc = b.gep(ctr, zero);
        let one = b.const_i32(1);
        let old = b.atomic_rmw(AtomicOp::Add, pc, one);
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let po = b.gep(out, gid);
        b.store(po, old);
        b.ret(None);
        let m = module_with(b.finish());
        let r = report(&m);
        assert_eq!(
            r.verdict,
            ParallelSafety::SafeViaAtomics {
                deterministic: false
            },
            "{}",
            r.verdict
        );
        assert!(!r.eligible_static());
        assert!(!r.eligible_for_launch(&env([8, 1, 1], [4, 1, 1], 1, &[None, None])));
    }

    #[test]
    fn guarded_single_writer_is_safe() {
        // if (get_global_id(0) == 0) out[0] = 1.0;
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let out = b.add_param("out", global_f32_ptr());
        let then_bb = b.new_block();
        let exit_bb = b.new_block();
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let zero = b.const_i64(0);
        let c = b.cmp(CmpOp::Eq, gid, zero);
        b.cond_br(c, then_bb, exit_bb);
        b.switch_to(then_bb);
        let p = b.gep(out, zero);
        let x = b.const_f32(1.0);
        b.store(p, x);
        b.br(exit_bb);
        b.switch_to(exit_bb);
        b.ret(None);
        let m = module_with(b.finish());
        let r = report(&m);
        assert_eq!(r.verdict, ParallelSafety::Safe, "{}", r.verdict);
        assert!(r.eligible_for_launch(&env([8, 1, 1], [4, 1, 1], 1, &[None])));
    }

    #[test]
    fn grid_strided_loop_is_safe() {
        // for (i = gid; i < n; i += get_global_size(0)) out[i] = 1.0;
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let out = b.add_param("out", global_f32_ptr());
        let n = b.add_param("n", Type::I64);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let cell = b.alloca(Type::I64, 1, AddressSpace::Private);
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        b.store(cell, gid);
        b.br(head);
        b.switch_to(head);
        let i = b.load(cell);
        let c = b.cmp(CmpOp::Lt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let p = b.gep(out, i);
        let x = b.const_f32(1.0);
        b.store(p, x);
        let gs = b.work_item(WiBuiltin::GlobalSize, 0);
        let i2 = b.bin(BinOp::Add, i, gs);
        b.store(cell, i2);
        b.br(head);
        b.switch_to(exit);
        b.ret(None);
        let m = module_with(b.finish());
        let r = report(&m);
        assert_eq!(r.verdict, ParallelSafety::Safe, "{}", r.verdict);
        assert!(r.eligible_for_launch(&env([8, 1, 1], [4, 1, 1], 1, &[None, Some(1000)])));
    }

    #[test]
    fn scaled_group_index_needs_launch_and_is_rescued() {
        // out[gid0 + n * grp1]: disjoint only when n >= global_size(0).
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let out = b.add_param("out", global_f32_ptr());
        let n = b.add_param("n", Type::I64);
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let grp1 = b.work_item(WiBuiltin::GroupId, 1);
        let t = b.bin(BinOp::Mul, n, grp1);
        let idx = b.bin(BinOp::Add, gid, t);
        let p = b.gep(out, idx);
        let x = b.const_f32(1.0);
        b.store(p, x);
        b.ret(None);
        let m = module_with(b.finish());
        let r = report(&m);
        assert!(
            matches!(r.verdict, ParallelSafety::Racy { .. }),
            "{}",
            r.verdict
        );
        assert!(!r.eligible_static());
        // global_size(0) = 4 * 2 = 8: n == 8 tiles exactly, n == 4 overlaps.
        assert!(r.eligible_for_launch(&env([4, 1, 1], [2, 3, 1], 2, &[None, Some(8)])));
        assert!(!r.eligible_for_launch(&env([4, 1, 1], [2, 3, 1], 2, &[None, Some(4)])));
    }

    #[test]
    fn unknown_pointer_store_is_racy() {
        // Store through a pointer selected by a data-dependent condition
        // between two elements cannot be traced to a single offset shape
        // that both arms share when the bases differ.
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let a = b.add_param("a", global_f32_ptr());
        let c = b.add_param("c", Type::ptr(AddressSpace::Global, Type::I32));
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let pc = b.gep(c, gid);
        let cv = b.load(pc);
        let pa = b.gep(a, cv);
        // Index depends on loaded data: offset is unknown.
        let x = b.const_f32(1.0);
        b.store(pa, x);
        b.ret(None);
        let m = module_with(b.finish());
        let r = report(&m);
        assert!(
            matches!(r.verdict, ParallelSafety::Racy { .. }),
            "{}",
            r.verdict
        );
        assert!(!r.eligible_for_launch(&env([8, 1, 1], [4, 1, 1], 1, &[None, None])));
        // Unit-group launches are still fine: groups run sequentially inside.
        assert!(r.eligible_for_launch(&env([8, 1, 1], [1, 1, 1], 1, &[None, None])));
    }

    #[test]
    fn barrier_under_item_varying_branch_is_divergent() {
        // if (get_local_id(0) == 0) { barrier(); }
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let _out = b.add_param("out", global_f32_ptr());
        let then_bb = b.new_block();
        let exit_bb = b.new_block();
        let lid = b.work_item(WiBuiltin::LocalId, 0);
        let zero = b.const_i64(0);
        let c = b.cmp(CmpOp::Eq, lid, zero);
        b.cond_br(c, then_bb, exit_bb);
        b.switch_to(then_bb);
        b.barrier();
        b.br(exit_bb);
        b.switch_to(exit_bb);
        b.ret(None);
        let m = module_with(b.finish());
        let r = report(&m);
        assert_eq!(r.divergent_barriers.len(), 1, "{:?}", r.divergent_barriers);
        assert_eq!(r.divergent_barriers[0].block, BlockId(1));
    }

    #[test]
    fn barrier_under_uniform_branch_is_not_divergent() {
        // if (n > 0) { barrier(); } -- same decision for every item.
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let _out = b.add_param("out", global_f32_ptr());
        let n = b.add_param("n", Type::I64);
        let then_bb = b.new_block();
        let exit_bb = b.new_block();
        let zero = b.const_i64(0);
        let c = b.cmp(CmpOp::Gt, n, zero);
        b.cond_br(c, then_bb, exit_bb);
        b.switch_to(then_bb);
        b.barrier();
        b.br(exit_bb);
        b.switch_to(exit_bb);
        b.ret(None);
        let m = module_with(b.finish());
        let r = report(&m);
        assert!(
            r.divergent_barriers.is_empty(),
            "{:?}",
            r.divergent_barriers
        );
    }

    #[test]
    fn read_only_kernel_has_no_routes() {
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let input = b.add_param("input", global_f32_ptr());
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let p = b.gep(input, gid);
        let _v = b.load(p);
        b.ret(None);
        let m = module_with(b.finish());
        let r = report(&m);
        assert_eq!(r.verdict, ParallelSafety::Safe);
        assert!(!r.has_writes());
        assert!(r.sites.iter().any(|s| !s.kind.is_write()));
        // Even aliased buffers cannot race when nothing is written.
        let mut e = env([8, 1, 1], [4, 1, 1], 1, &[None]);
        e.distinct_buffers = false;
        assert!(r.eligible_for_launch(&e));
    }

    #[test]
    fn group_and_uniform_index_classes() {
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let a = b.add_param("a", global_f32_ptr());
        let bb = b.add_param("b", global_f32_ptr());
        let n = b.add_param("n", Type::I64);
        let grp = b.work_item(WiBuiltin::GroupId, 0);
        let pa = b.gep(a, grp);
        let x = b.const_f32(1.0);
        b.store(pa, x);
        let pb = b.gep(bb, n);
        b.store(pb, x);
        b.ret(None);
        let m = module_with(b.finish());
        let r = report(&m);
        let site_a = r.sites.iter().find(|s| s.param == 0).unwrap();
        let site_b = r.sites.iter().find(|s| s.param == 1).unwrap();
        assert_eq!(site_a.index_class(), "group-affine");
        assert_eq!(site_b.index_class(), "uniform");
    }

    #[test]
    fn two_dim_tiled_store_is_safe() {
        // out[gid1 * global_size(0) + gid0]: the canonical 2-D row-major
        // write, disjoint for every launch shape.
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let out = b.add_param("out", global_f32_ptr());
        let gid0 = b.work_item(WiBuiltin::GlobalId, 0);
        let gid1 = b.work_item(WiBuiltin::GlobalId, 1);
        let gs0 = b.work_item(WiBuiltin::GlobalSize, 0);
        let row = b.bin(BinOp::Mul, gid1, gs0);
        let idx = b.bin(BinOp::Add, row, gid0);
        let p = b.gep(out, idx);
        let x = b.const_f32(2.0);
        b.store(p, x);
        b.ret(None);
        let m = module_with(b.finish());
        let r = report(&m);
        assert_eq!(r.verdict, ParallelSafety::Safe, "{}", r.verdict);
        assert!(r.eligible_for_launch(&env([4, 2, 1], [3, 5, 1], 2, &[None])));
    }

    #[test]
    fn analyze_module_covers_all_kernels() {
        let mut m = Module::new();
        for name in ["k", "k2"] {
            let mut b = FunctionBuilder::new(name, FunctionKind::Kernel, Type::Void);
            let out = b.add_param("out", global_f32_ptr());
            let gid = b.work_item(WiBuiltin::GlobalId, 0);
            let p = b.gep(out, gid);
            let x = b.const_f32(1.0);
            b.store(p, x);
            b.ret(None);
            m.insert_function(b.finish());
        }
        let reports = analyze_module(&m);
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.verdict == ParallelSafety::Safe));
        assert!(analyze_kernel(&m, "missing").is_none());
    }
}
