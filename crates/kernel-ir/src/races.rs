//! `accelcheck` — static race & divergence analysis over kernel IR.
//!
//! The transparent plane must decide, per kernel, whether cross-work-group
//! parallel interpretation is safe *without seeing the source*. The historical
//! gate was the single coarse [`crate::analysis::uses_global_atomics`] bit:
//! atomics ⇒ sequential, no atomics ⇒ parallel on trust. This module replaces
//! it with a real analysis.
//!
//! **One access model, two scopes.** Both proofs ask one question: can two
//! work items of a launch touch the same bytes while one of them writes?
//! A forward symbolic dataflow records one [`Site`] per access to memory
//! items may share (private memory excluded), tagged with the memory it
//! reaches (a parameter's buffer, a `local` alloca, or an untraceable
//! pointer), with its byte offset as an *affine* function of the
//! work-item coordinates (`a·lid_d + b·grp_d + base`, with an optional
//! loop-widened stride set) and the path guards it runs under. A call's
//! pointer arguments stand for the callee's accesses through them. The
//! cross-group gate reads the sites that may reach global memory, the
//! within-group proof all of them; when their symbolic arguments do not
//! settle a launch, both fall back to one bounded enumerator over
//! (item, site) byte spans, in *launch* scope (every item of every group,
//! spans of different groups compared) or *group* scope (the items of one
//! group, spans of different items compared), with loop strides folded
//! into one residue period and guards such as `gid < n` honoured.
//!
//! * **Cross-group race analysis** — per written buffer, disjointness
//!   across groups is proven symbolically (tight-packing chain over the
//!   launch axes) or concretely at launch time (evaluated chain, or
//!   launch-scope enumeration for guarded/rounded-up launches).
//! * **Per-kernel verdict** — [`ParallelSafety`]: `Safe` (disjoint writes),
//!   `SafeViaAtomics` (all contended accesses are atomic; `deterministic`
//!   when they are commutative with unused results, so parallel execution is
//!   bit-identical to sequential), or `Racy { site }` naming the offending
//!   access.
//! * **Barrier-divergence check** — a barrier reached under a condition
//!   that varies across the work items of one group is undefined
//!   behaviour; detected as a barrier in a divergent region (the blocks a
//!   branch on a varying condition reaches before its immediate
//!   postdominator, the same regions the within-group proof uses) under
//!   the uniformity lattice of the same dataflow. A call of a function
//!   that has a barrier, or that the module does not define, counts as
//!   one, here and in the within-group proof.
//! * **Within-group proof** — [`lockstep_report`] licenses lockstep
//!   execution of a work group's items. Within every *barrier interval*
//!   (the code items run between two barriers, found by a dataflow over
//!   barrier positions), no item may write bytes another item of the same
//!   group reads or writes, checked by group-scope enumeration for the
//!   concrete group shape. Atomics of one commuting kind with discarded
//!   results may share bytes; so may plain stores of one value (its
//!   local-id axes, tracked per SSA value, agree for the two items).
//!   Every barrier must lie outside all divergent regions.
//!   Group-uniformity for that check is a small fixpoint: a load is
//!   uniform when its address is and no item writes its bytes within its
//!   intervals (the JIT's broadcast of the master's dequeue), and a
//!   private variable stored under a divergent branch is not.
//! * **Launch-time evaluation** — a pair of sites the symbolic check
//!   cannot settle for a launch (an offset over a uniform loop counter
//!   the dataflow only knows as uniform, such as `lo[lid + stride]` with
//!   a halving `stride`, or one that is not affine, such as `tile[lid ^
//!   j]`) is decided by running every item of a group through the
//!   function for that launch: the group shape, the group counts, the
//!   integer scalars and the work-item ids are known, so is every private
//!   scalar the item computes from them (loop counters included, so each
//!   counter value is enumerated); a value read from shared memory is
//!   unknown. A branch on an unknown value (splitSort's `up && a > b`)
//!   may go either way: both sides run from the same state to the
//!   branch's immediate postdominator, where their values join, so a
//!   guard that does not evaluate counts as may-execute; a barrier
//!   between, or a loop whose exit is unknown, refuses. Each item's byte
//!   span through the pair's sites is recorded per *interval instance*
//!   (the barriers it has passed), and a site whose address does not
//!   evaluate, or that reaches past its `local` array, refuses. Two items
//!   whose spans meet in one instance, one writing, refuse, unless both
//!   store one value (a known integer, or by the value-axes rule above).
//!   Group ids of dimensions with several groups start unknown, which
//!   covers every group at once; if that fails after reading one, each
//!   group is evaluated in turn. The work (instructions stepped, spans
//!   compared) is bounded by `GROUP_EVAL_LIMIT` per launch, past which
//!   the launch is refused. The evaluation only ever admits a launch the
//!   symbolic check refused; `ModuleFacts` keeps its answer per launch
//!   shape.
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

use crate::analysis::{reaches, uses_barrier};
use crate::interp::{
    eval_bin, eval_cast, eval_cmp, eval_un, flat_gid, gep_offset, interp_size, Value,
};
use crate::ir::{
    AtomicOp, BinOp, BlockId, CmpOp, ConstVal, DequeueContract, Function, FunctionKind, Inst,
    Module, Op, Terminator, UnOp, ValueId, WiBuiltin,
};
use crate::types::{AddressSpace, Type};
use crate::verify::{operands, successors};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

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

    /// Whether the condition reads a group id.
    fn depends_on_group(&self) -> bool {
        [&self.lhs, &self.rhs]
            .iter()
            .any(|a| a.coeffs.keys().any(|ax| matches!(ax, Axis::Grp(_))))
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

/// The memory a site reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Base {
    /// A kernel parameter's buffer (global, constant) or region (local).
    Param(usize),
    /// A `local` alloca of the analysed function.
    Cell(CellId),
    /// An untraceable pointer: any memory.
    Unknown,
}

/// One access to memory that work items may share, recorded once for
/// both proofs: the sharding gate reads the sites that may reach global
/// memory ([`KernelRaceReport::sites`]), the within-group proof every
/// site.
#[derive(Debug, Clone)]
pub struct Site {
    /// Source-level name of the parameter the pointer traces back to
    /// (`"<unknown>"` for untraceable pointers, `"<local>"` for local
    /// allocas).
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
    base: Base,
    /// Address space of the accessing pointer.
    space: Option<AddressSpace>,
    offset: Option<Affine>,
    /// Conditions that hold whenever the access runs, in set order. A
    /// slice rather than a set: `ModuleFacts` keeps reports for the life
    /// of the program, and a set node has room for eleven.
    guards: Box<[CondVal]>,
    /// For a call's pointer argument, which stands for the callee's
    /// accesses through it at an unknown offset: whether the callee
    /// touches global memory at all. The within-group proof judges such
    /// a callee on the dequeue contract's original kernel.
    call: Option<bool>,
    /// Barrier intervals the access may run in: bit 0 is the one that
    /// starts at function entry, bit `k` the one after the `k`-th barrier.
    intervals: u64,
    /// For a plain store run at most once per item and interval: the local
    /// id axes (bits 0–2) its stored value may depend on. Two items whose
    /// stores land on the same bytes and agree on these axes store the same
    /// value, in either order.
    value_axes: Option<u8>,
}

impl Site {
    /// Index of the kernel parameter the pointer traces back to, or
    /// [`UNKNOWN_PARAM`].
    pub fn param(&self) -> usize {
        match self.base {
            Base::Param(p) => p,
            Base::Cell(_) | Base::Unknown => UNKNOWN_PARAM,
        }
    }

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

    /// The site as the sharding gate counts it, if it may reach global
    /// memory: an access through a global pointer, a write through a
    /// constant one, an untraceable access, or a call passing a
    /// parameter's buffer to a callee that touches global memory (a write
    /// anywhere in the buffer).
    fn global(mut self) -> Option<Site> {
        let keep = match (self.base, self.call) {
            (Base::Param(_), Some(touches)) => touches,
            (Base::Param(_), None) => {
                self.space == Some(AddressSpace::Global)
                    || (self.space == Some(AddressSpace::Constant) && self.kind.is_write())
            }
            (Base::Unknown, call) => call.is_none(),
            (Base::Cell(_), _) => false,
        };
        if self.call.is_some() {
            self.kind = AccessKind::Write;
        }
        keep.then_some(self)
    }

    /// Whether the site may reach memory the items of a group share.
    fn shared(&self) -> bool {
        (self.base == Base::Unknown && self.call.is_none())
            || self.space.is_some_and(|s| s != AddressSpace::Private)
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
/// Tracked cells' values, shared between the block states they flow
/// through: a block's state is cloned per transfer, and a long inlined
/// call chain keeps hundreds of cells live.
type CellMap = BTreeMap<CellId, Rc<AbsVal>>;

struct Analyzer<'a> {
    func: &'a Function,
    module: &'a Module,
    regs: Vec<Option<AbsVal>>,
    used: Vec<bool>,
    aggressive: bool,
    changed: bool,
    /// Transfers run so far, and per register the transfer that last
    /// changed it: [`converge`] skips a block none of whose inputs moved.
    clock: u64,
    stamps: Vec<u64>,
    /// Loads the within-group proof showed group-uniform: a group-uniform
    /// address that no work item writes within the load's barrier
    /// intervals.
    stable_loads: BTreeSet<(usize, usize)>,
    /// Private cells stored under a divergent branch: their loads vary
    /// across the group whatever the stored values.
    demoted: BTreeSet<CellId>,
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
            clock: 0,
            stamps: vec![0; func.value_types.len()],
            stable_loads: BTreeSet::new(),
            demoted: BTreeSet::new(),
        }
    }

    fn reg(&self, v: ValueId) -> AbsVal {
        self.regs[v.index()].clone().unwrap_or(AbsVal::Unknown)
    }

    fn set_reg(&mut self, v: ValueId, val: AbsVal) {
        let slot = &mut self.regs[v.index()];
        let next = match slot {
            None => val,
            Some(old) => {
                let j = join(old, &val, self.aggressive);
                if j == *old {
                    return;
                }
                j
            }
        };
        *slot = Some(next);
        self.changed = true;
        self.stamps[v.index()] = self.clock;
    }

    /// Transfer one block: update cells/regs; when `sites` is given, record
    /// every access to memory work items may share.
    fn transfer(&mut self, bid: usize, cells: &mut CellMap, mut sites: Option<&mut Vec<Site>>) {
        let block = &self.func.blocks[bid];
        for (iid, inst) in block.insts.iter().enumerate() {
            let at = (bid, iid, inst.span);
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
                        cells
                            .entry(cell)
                            .or_insert_with(|| Rc::new(AbsVal::Unknown));
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
                    self.record(sites.as_deref_mut(), *p, AccessKind::Read, at, None);
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
                            if self.demoted.contains(&cell) {
                                AbsVal::Unknown
                            } else {
                                cells.get(&cell).map_or(AbsVal::Unknown, |v| (**v).clone())
                            }
                        }
                        _ if self.stable_loads.contains(&(bid, iid)) => AbsVal::UnknownUniform,
                        _ => AbsVal::Unknown,
                    }
                }
                Op::Store { ptr, value } => {
                    let vv = self.reg(*value);
                    self.record(sites.as_deref_mut(), *ptr, AccessKind::Write, at, None);
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
                                Rc::new(if zero_off { vv } else { AbsVal::Unknown }),
                            );
                        }
                        AbsVal::Unknown => {
                            // A store through an untraceable pointer could hit
                            // anything, including tracked cells.
                            let unknown = Rc::new(AbsVal::Unknown);
                            for v in cells.values_mut() {
                                *v = unknown.clone();
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
                    self.record_call(sites.as_deref_mut(), callee, args, at);
                    let mut all_uniform = true;
                    for a in args {
                        let av = self.reg(*a);
                        all_uniform &= av.group_uniform();
                        if let AbsVal::Ptr(PtrVal {
                            base:
                                PtrBase::Cell {
                                    block,
                                    inst: cinst,
                                    tracked: true,
                                    ..
                                },
                            ..
                        }) = &av
                        {
                            // The callee may store through the cell.
                            cells.insert((*block, *cinst), Rc::new(AbsVal::Unknown));
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
                    self.record(
                        sites.as_deref_mut(),
                        *ptr,
                        AccessKind::Atomic {
                            op: *op,
                            result_used,
                        },
                        at,
                        None,
                    );
                    AbsVal::Unknown
                }
                Op::AtomicCmpXchg { ptr, .. } => {
                    let result_used = inst.result.map(|r| self.used[r.index()]).unwrap_or(false);
                    self.record(
                        sites.as_deref_mut(),
                        *ptr,
                        AccessKind::Cas { result_used },
                        at,
                        None,
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

    /// Record the access through `ptr` at `(block, inst, span)` into
    /// `sites`, if given, unless it reaches private memory. A call's
    /// pointer argument (`call` holds whether the callee touches global
    /// memory) stands for the callee's accesses through it, one byte at an
    /// unknown offset.
    fn record(
        &self,
        sites: Option<&mut Vec<Site>>,
        ptr: ValueId,
        kind: AccessKind,
        (bid, iid, span): (usize, usize, Option<(u32, u32)>),
        call: Option<bool>,
    ) {
        let Some(sites) = sites else { return };
        let (base, offset) = match self.reg(ptr) {
            AbsVal::Ptr(PtrVal {
                base: PtrBase::Param(p),
                off,
            }) => (Base::Param(p), off),
            AbsVal::Ptr(PtrVal {
                base: PtrBase::Cell {
                    block, inst, space, ..
                },
                off,
            }) if space != AddressSpace::Private => (Base::Cell((block, inst)), off),
            AbsVal::Ptr(_) => return,
            _ => (Base::Unknown, None),
        };
        let param_name = match base {
            Base::Param(p) => self.func.params[p].name.clone(),
            Base::Cell(_) => "<local>".to_string(),
            Base::Unknown => "<unknown>".to_string(),
        };
        let ty = self.func.value_type(ptr);
        sites.push(Site {
            param_name,
            kind,
            block: BlockId(bid as u32),
            inst: iid,
            span,
            bytes: match call {
                Some(_) => 1,
                None => ty.pointee().map(interp_size).unwrap_or(1),
            },
            base,
            space: ty.space(),
            offset: offset.filter(|_| call.is_none()),
            guards: Box::default(),
            call,
            intervals: 0,
            value_axes: None,
        });
    }

    /// Record a call's pointer arguments (see [`Self::record`]), each a
    /// write when the callee may write through it.
    fn record_call(
        &self,
        mut sites: Option<&mut Vec<Site>>,
        callee: &str,
        args: &[ValueId],
        at: (usize, usize, Option<(u32, u32)>),
    ) {
        if sites.is_none() {
            return;
        }
        let touches = self
            .module
            .function(callee)
            .is_none_or(|f| reaches(f, self.module, touches_global));
        for (j, &a) in args.iter().enumerate() {
            if !self.func.value_type(a).is_ptr() {
                continue;
            }
            let kind = if callee_writes_param(self.module, callee, j, &mut BTreeSet::new()) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            self.record(sites.as_deref_mut(), a, kind, at, Some(touches));
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
                    Some(old) if Rc::ptr_eq(old, v) || old == v => {}
                    Some(old) => {
                        let j = join(old, v, aggressive);
                        if j != **old {
                            cur.insert(*k, Rc::new(j));
                            changed = true;
                        }
                    }
                }
            }
            changed
        }
    }
}

/// Whether `inst` accesses global or constant memory.
fn touches_global(func: &Function, inst: &Inst) -> bool {
    let ptr = match &inst.op {
        Op::Load(p) => *p,
        Op::Store { ptr, .. } | Op::AtomicRmw { ptr, .. } | Op::AtomicCmpXchg { ptr, .. } => *ptr,
        _ => return false,
    };
    matches!(
        func.value_type(ptr).space(),
        Some(AddressSpace::Global | AddressSpace::Constant)
    )
}

/// Whether `inst` may execute a barrier: a barrier, or a call of a
/// function that has one or that the module does not define.
fn barrier_point(module: &Module, inst: &Inst) -> bool {
    match &inst.op {
        Op::Barrier => true,
        Op::Call { callee, .. } => module
            .function(callee)
            .is_none_or(|f| uses_barrier(f, module)),
        _ => false,
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

/// Which work items an enumeration walks, and whose spans it compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// Every item of the launch; spans of different groups are compared.
    Launch,
    /// The items of one group; spans of different items are compared.
    Group,
}

/// One work item's byte span through one site of an enumeration.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: i64,
    end: i64,
    /// The group ([`Scope::Launch`]) or item ([`Scope::Group`]) it
    /// belongs to.
    owner: u32,
    /// Index of its site in the enumerated list.
    site: u32,
    write: bool,
    /// The item's local ids on the site's value axes, flattened.
    key: u32,
}

/// A site's byte offset evaluated for one launch: `base + Σ coeff · axis`
/// over the listed axes, or `None` when it does not evaluate.
type Linear = Option<(i64, Vec<(Axis, i64)>)>;

/// `o`'s coefficients on the axes `keep` selects, evaluated for `env`.
fn coefficients(
    o: &Affine,
    env: &LaunchEnv<'_>,
    keep: fn(&Axis) -> bool,
) -> Option<Vec<(Axis, i64)>> {
    o.coeffs
        .iter()
        .filter(|(a, _)| keep(a))
        .map(|(a, p)| Some((*a, p.eval(env)?)))
        .collect()
}

/// Bounded enumeration: every work item of the scope, through every site
/// whose guards hold for it (a guard that does not evaluate counts as
/// holding), as a byte span at the site's [`Linear`] offset. When any
/// site is loop-stepped, spans are folded into residue space modulo the
/// gcd of all steps, and each must fit one period. Fails past the
/// scope's item limit, or when an active site's offset does not
/// evaluate; otherwise whether no two overlapping spans of different
/// owners `conflict`.
fn spans_disjoint(
    sites: &[(&Site, Linear)],
    env: &LaunchEnv<'_>,
    scope: Scope,
    conflict: impl Fn(&Span, &Span) -> bool,
) -> bool {
    let (groups, limit) = match scope {
        Scope::Launch => (env.groups, ENUM_LIMIT),
        Scope::Group => ([1; 3], GROUP_ENUM_LIMIT),
    };
    let items: usize = env.local.iter().product::<usize>() * groups.iter().product::<usize>();
    if items == 0 || items > limit {
        return false;
    }
    let mut stride: Option<i64> = None;
    for (s, _) in sites {
        let Some(o) = &s.offset else { return false };
        for step in &o.steps {
            match step.eval(env) {
                Some(v) if v != 0 => stride = Some(stride.map_or(v.abs(), |g| gcd_i64(g, v.abs()))),
                _ => return false,
            }
        }
    }
    let [l0, l1, _] = env.local;
    let mut spans: Vec<Span> = Vec::new();
    for g in 0..groups.iter().product() {
        let grp = flat_gid(groups, g);
        for i in 0..env.local.iter().product() {
            let lid = flat_gid(env.local, i);
            for (k, (site, linear)) in sites.iter().enumerate() {
                let active = site
                    .guards
                    .iter()
                    .all(|c| c.eval_at(env, lid, grp).unwrap_or(true));
                if !active {
                    continue;
                }
                let Some((base, coeffs)) = linear else {
                    return false;
                };
                let off = coeffs.iter().try_fold(*base, |v, (a, c)| {
                    let at = match a {
                        Axis::Lid(d) => lid[*d as usize],
                        Axis::Grp(d) => grp[*d as usize],
                    };
                    v.checked_add(c.checked_mul(at as i64)?)
                });
                let Some(mut off) = off else { return false };
                let w = site.bytes as i64;
                if let Some(st) = stride {
                    off = off.rem_euclid(st);
                    if off + w > st {
                        return false;
                    }
                }
                let axes = site.value_axes.unwrap_or(0);
                let on = |d: usize| if axes >> d & 1 != 0 { lid[d] } else { 0 };
                spans.push(Span {
                    start: off,
                    end: off + w,
                    owner: match scope {
                        Scope::Launch => g,
                        Scope::Group => i,
                    } as u32,
                    site: k as u32,
                    write: site.kind.is_write(),
                    key: (on(0) + l0 * (on(1) + l1 * on(2))) as u32,
                });
            }
        }
    }
    // Sweep: every pair of overlapping spans meets once, when the later
    // one opens.
    spans.sort_unstable_by_key(|s| s.start);
    let mut open: Vec<Span> = Vec::new();
    for span in spans {
        open.retain(|o| o.end > span.start);
        if open
            .iter()
            .any(|o| o.owner != span.owner && conflict(o, &span))
        {
            return false;
        }
        open.push(span);
    }
    true
}

/// Launch-time enumeration of one parameter's sites: a cross-group
/// overlap involving a write is a race. Rescues guarded rounded-up
/// launches (`if (gid < n)`) the chain proof cannot handle.
fn enumerate_disjoint(sites: &[&Site], env: &LaunchEnv<'_>) -> bool {
    let sites: Vec<(&Site, Linear)> = sites
        .iter()
        .map(|s| {
            let linear = s
                .offset
                .as_ref()
                .and_then(|o| Some((o.base.eval(env)?, coefficients(o, env, |_| true)?)));
            (*s, linear)
        })
        .collect();
    spans_disjoint(&sites, env, Scope::Launch, |a, b| a.write || b.write)
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

/// Collect barriers (every [`barrier_point`]) in the divergent region of
/// a branch whose condition `an` cannot prove group-uniform (see
/// [`divergent_blocks`]).
fn divergent_barriers(func: &Function, module: &Module, an: &Analyzer<'_>) -> Vec<BarrierSite> {
    let regions = divergent_blocks(func, an);
    let mut out = Vec::new();
    for (b, block) in func.blocks.iter().enumerate() {
        let Some(d) = regions[b] else {
            continue;
        };
        for (iid, inst) in block.insts.iter().enumerate() {
            if !barrier_point(module, inst) {
                continue;
            }
            let varies = match &func.blocks[d].term {
                Some(Terminator::CondBr { cond, .. }) => {
                    matches!(an.reg(*cond), AbsVal::Cond(_) | AbsVal::Aff(_))
                }
                _ => false,
            };
            let cause = if varies {
                format!(
                    "barrier depends on branch at bb{d} whose condition varies across the work items of a group"
                )
            } else {
                format!(
                    "barrier depends on branch at bb{d} whose condition could not be proven group-uniform"
                )
            };
            out.push(BarrierSite {
                block: BlockId(b as u32),
                inst: iid,
                span: inst.span,
                cause,
            });
        }
    }
    out
}

fn group_sites(sites: &[Site]) -> BTreeMap<usize, Vec<&Site>> {
    let mut by_param: BTreeMap<usize, Vec<&Site>> = BTreeMap::new();
    for s in sites {
        by_param.entry(s.param()).or_default().push(s);
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

/// Run the dataflow to its fixpoint, then one collection pass over the
/// converged state that records the function's access sites.
fn converge(an: &mut Analyzer<'_>) -> Vec<Site> {
    let func = an.func;
    let n = func.blocks.len();
    let succs = successors(func);
    let reads: Vec<Vec<usize>> = func
        .blocks
        .iter()
        .map(|b| {
            b.insts
                .iter()
                .flat_map(|i| operands(&i.op))
                .map(|v| v.index())
                .collect()
        })
        .collect();
    let mut block_in: Vec<Option<CellMap>> = vec![None; n];
    block_in[0] = Some(CellMap::new());
    // Per block, the transfer that last ran it and the one that last
    // changed its input cells. A block whose input cells and operand
    // registers did not move since it last ran would repeat that transfer
    // exactly, so it is skipped: the fixpoint and the number of rounds
    // stay the same, but a round costs only the blocks that changed.
    let mut ran: Vec<Option<u64>> = vec![None; n];
    let mut fed = vec![0u64; n];
    let soft_cap = 4 * n + 16;
    let hard_cap = 4 * soft_cap;
    let mut round = 0usize;
    loop {
        an.changed = false;
        let mut cells_changed = false;
        for b in 0..n {
            let Some(cin) = &block_in[b] else {
                continue;
            };
            if ran[b].is_some_and(|t| fed[b] < t && reads[b].iter().all(|&v| an.stamps[v] < t)) {
                continue;
            }
            an.clock += 1;
            ran[b] = Some(an.clock);
            let mut cells = cin.clone();
            an.transfer(b, &mut cells, None);
            for s in &succs[b] {
                if join_cells(&mut block_in[s.index()], &cells, an.aggressive) {
                    cells_changed = true;
                    fed[s.index()] = an.clock;
                }
            }
        }
        round += 1;
        if !(cells_changed || an.changed) || round >= hard_cap {
            break;
        }
        if round >= soft_cap && !an.aggressive {
            an.aggressive = true;
            ran.fill(None);
        }
    }
    let mut sites: Vec<Site> = Vec::new();
    for (b, bin) in block_in.iter().enumerate().take(n) {
        let Some(cin) = bin.clone() else {
            continue;
        };
        let mut cells = cin;
        an.transfer(b, &mut cells, Some(&mut sites));
    }
    sites
}

/// The sites [`converge`] records that `keep` keeps, each with its path
/// guards.
fn guarded_sites(an: &mut Analyzer<'_>, keep: impl FnMut(Site) -> Option<Site>) -> Vec<Site> {
    let mut sites: Vec<Site> = converge(an).into_iter().filter_map(keep).collect();
    let guards = compute_guards(an.func, an);
    for site in &mut sites {
        site.guards = guards[site.block.index()].iter().cloned().collect();
    }
    sites
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
    let mut an = Analyzer::new(func, module);
    let sites = guarded_sites(&mut an, Site::global);
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

// ---------------------------------------------------------------------------
// Within-group proof: lockstep eligibility
// ---------------------------------------------------------------------------

/// Atomics whose effects commute with each other when their results are
/// discarded: the final bytes do not depend on the items' order.
fn commute(a: AccessKind, b: AccessKind) -> bool {
    let class = |k: AccessKind| match k {
        AccessKind::Atomic {
            op,
            result_used: false,
        } => match op {
            AtomicOp::Add | AtomicOp::Sub => Some(0),
            AtomicOp::Min => Some(1),
            AtomicOp::Max => Some(2),
            AtomicOp::Xchg => None,
        },
        _ => None,
    };
    class(a).is_some() && class(a) == class(b)
}

/// Whether `callee` (or anything it calls) may write through its `j`-th
/// parameter: a store or atomic through a pointer derived from it, the
/// pointer stored to memory, or passed on to a callee that may.
fn callee_writes_param(
    module: &Module,
    callee: &str,
    j: usize,
    visiting: &mut BTreeSet<(String, usize)>,
) -> bool {
    let Some(f) = module.function(callee) else {
        return true;
    };
    if !visiting.insert((callee.to_string(), j)) {
        return false;
    }
    if j >= f.params.len() {
        return true;
    }
    let mut derived = vec![false; f.value_types.len()];
    derived[j] = true;
    loop {
        let mut changed = false;
        for inst in f.blocks.iter().flat_map(|b| &b.insts) {
            let from = match &inst.op {
                Op::Gep { ptr, .. } => derived[ptr.index()],
                Op::Cast(_, a) => derived[a.index()],
                Op::Select(_, a, b) => derived[a.index()] || derived[b.index()],
                _ => false,
            };
            if let Some(r) = inst.result.filter(|r| from && !derived[r.index()]) {
                derived[r.index()] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    f.blocks
        .iter()
        .flat_map(|b| &b.insts)
        .any(|inst| match &inst.op {
            Op::Store { ptr, value } => derived[ptr.index()] || derived[value.index()],
            Op::AtomicRmw { ptr, .. } | Op::AtomicCmpXchg { ptr, .. } => derived[ptr.index()],
            Op::Call { callee, args } => args.iter().enumerate().any(|(k, a)| {
                derived[a.index()] && callee_writes_param(module, callee, k, visiting)
            }),
            _ => false,
        })
}

/// Immediate postdominators over a CFG given by successor lists; index
/// `succs.len()` is the virtual exit every `exits` block (and every block
/// that cannot reach an exit) falls to. Cooper, Harvey and Kennedy's
/// iteration on the reverse graph.
pub(crate) fn immediate_postdominators(succs: &[Vec<usize>], exits: &[bool]) -> Vec<usize> {
    let n = succs.len();
    let exit = n;
    let mut preds = vec![Vec::new(); n + 1];
    for (b, ss) in succs.iter().enumerate() {
        for &s in ss {
            preds[s].push(b);
        }
        if exits[b] {
            preds[exit].push(b);
        }
    }
    // Postorder of the reverse graph from the exit.
    let mut po = vec![usize::MAX; n + 1];
    let mut order = Vec::with_capacity(n + 1);
    let mut seen = vec![false; n + 1];
    let mut stack = vec![(exit, 0usize)];
    seen[exit] = true;
    while let Some((b, i)) = stack.pop() {
        if let Some(&p) = preds[b].get(i) {
            stack.push((b, i + 1));
            if !seen[p] {
                seen[p] = true;
                stack.push((p, 0));
            }
        } else {
            po[b] = order.len();
            order.push(b);
        }
    }
    let mut idom = vec![usize::MAX; n + 1];
    idom[exit] = exit;
    let intersect = |idom: &[usize], mut a: usize, mut b: usize| {
        while a != b {
            while po[a] < po[b] {
                a = idom[a];
            }
            while po[b] < po[a] {
                b = idom[b];
            }
        }
        a
    };
    loop {
        let mut changed = false;
        for &b in order.iter().rev().filter(|&&b| b != exit) {
            let mut new = None;
            for s in succs[b].iter().copied().chain(exits[b].then_some(exit)) {
                if idom[s] == usize::MAX {
                    continue;
                }
                new = Some(match new {
                    None => s,
                    Some(x) => intersect(&idom, x, s),
                });
            }
            if let Some(d) = new.filter(|&d| d != idom[b]) {
                idom[b] = d;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    idom.truncate(n);
    for d in &mut idom {
        if *d == usize::MAX {
            *d = exit;
        }
    }
    idom
}

/// For each block, the first branch block `d` (in block order) with
/// `varying(d)` whose divergent region holds it: the blocks reachable from
/// `d` without passing its immediate postdominator, where the two sides
/// reconverge and which no item enters on a split active set.
pub(crate) fn divergent_regions(
    succs: &[Vec<usize>],
    ipdom: &[usize],
    varying: impl Fn(usize) -> bool,
) -> Vec<Option<usize>> {
    let n = succs.len();
    let mut regions = vec![None; n];
    for d in (0..n).filter(|&d| varying(d)) {
        let mut stack = succs[d].clone();
        let mut seen = vec![false; n];
        while let Some(b) = stack.pop() {
            if b == ipdom[d] || seen[b] {
                continue;
            }
            seen[b] = true;
            regions[b].get_or_insert(d);
            stack.extend(&succs[b]);
        }
    }
    regions
}

/// `func`'s successor lists and [`immediate_postdominators`].
fn postdominators(func: &Function) -> (Vec<Vec<usize>>, Vec<usize>) {
    let succs: Vec<Vec<usize>> = successors(func)
        .iter()
        .map(|ss| ss.iter().map(|s| s.index()).collect())
        .collect();
    let exits: Vec<bool> = func
        .blocks
        .iter()
        .map(|b| !matches!(b.term, Some(Terminator::Br(_) | Terminator::CondBr { .. })))
        .collect();
    let ipdom = immediate_postdominators(&succs, &exits);
    (succs, ipdom)
}

/// [`divergent_regions`] of `func`, for the branches whose condition `an`
/// cannot prove group-uniform.
fn divergent_blocks(func: &Function, an: &Analyzer<'_>) -> Vec<Option<usize>> {
    let (succs, ipdom) = postdominators(func);
    divergent_regions(&succs, &ipdom, |d| match &func.blocks[d].term {
        Some(Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        }) => then_bb != else_bb && !an.reg(*cond).group_uniform(),
        _ => false,
    })
}

/// Barrier intervals reaching every instruction (see
/// [`Site::intervals`]); calls are not boundaries, so an interval
/// running into a callee with barriers also covers the code after the
/// call. Fails past 63 barriers.
fn interval_bits(func: &Function) -> Result<Vec<Vec<u64>>, String> {
    let mut ids: BTreeMap<(usize, usize), u32> = BTreeMap::new();
    for (b, block) in func.blocks.iter().enumerate() {
        for (i, inst) in block.insts.iter().enumerate() {
            if matches!(inst.op, Op::Barrier) {
                let id = ids.len() as u32 + 1;
                if id > 63 {
                    return Err("more than 63 barriers".into());
                }
                ids.insert((b, i), id);
            }
        }
    }
    let succs = successors(func);
    let n = func.blocks.len();
    let mut block_in = vec![0u64; n];
    block_in[0] = 1;
    let walk = |b: usize, cur: &mut u64, mut at: Option<&mut Vec<u64>>| {
        for i in 0..func.blocks[b].insts.len() {
            if let Some(at) = at.as_deref_mut() {
                at.push(*cur);
            }
            if let Some(id) = ids.get(&(b, i)) {
                *cur = 1 << id;
            }
        }
    };
    loop {
        let mut changed = false;
        for b in 0..n {
            let mut cur = block_in[b];
            walk(b, &mut cur, None);
            for s in &succs[b] {
                let next = block_in[s.index()] | cur;
                changed |= next != block_in[s.index()];
                block_in[s.index()] = next;
            }
        }
        if !changed {
            break;
        }
    }
    Ok((0..n)
        .map(|b| {
            let mut at = Vec::new();
            walk(b, &mut block_in[b].clone(), Some(&mut at));
            at
        })
        .collect())
}

/// Whether two sites' byte ranges are a constant, non-overlapping
/// distance apart for every item.
fn const_apart(a: &Site, b: &Site) -> bool {
    let (Some(oa), Some(ob)) = (&a.offset, &b.offset) else {
        return false;
    };
    if oa.coeffs != ob.coeffs || !oa.step_free() || !ob.step_free() {
        return false;
    }
    match ob.base.sub(&oa.base).as_const() {
        Some(d) => d >= a.bytes as i64 || d + b.bytes as i64 <= 0,
        None => false,
    }
}

/// Sites whose base may overlap.
fn may_alias(a: &Site, b: &Site) -> bool {
    a.base == b.base || a.base == Base::Unknown || b.base == Base::Unknown
}

/// The within-group proof of one function: its shared-memory sites with
/// their barrier intervals, once every barrier (and every call to a
/// function with barriers) is shown to sit outside all divergent
/// regions. Group-uniformity is settled by a small fixpoint: a load is
/// uniform when its address is and no item writes its bytes within its
/// intervals, and a private variable stored under a divergent branch is
/// not.
fn group_part(module: &Module, func: &Function) -> Result<Vec<Site>, String> {
    if func.blocks.is_empty() {
        return Ok(Vec::new());
    }
    let bits = interval_bits(func)?;
    let mut plain = Analyzer::new(func, module);
    let mut sites = guarded_sites(&mut plain, |s| s.shared().then_some(s));
    for site in &mut sites {
        site.intervals = bits[site.block.index()][site.inst];
    }
    // Loads no item's write can reach within their intervals; the
    // fixpoint starts optimistic (every such load uniform, no private
    // variable demoted) and stops at a self-consistent answer.
    let unwritten: Vec<&Site> = sites
        .iter()
        .filter(|l| {
            matches!(func.blocks[l.block.index()].insts[l.inst].op, Op::Load(_))
                && l.base != Base::Unknown
                && !sites.iter().any(|w| {
                    w.kind.is_write()
                        && w.intervals & l.intervals != 0
                        && may_alias(w, l)
                        && !const_apart(w, l)
                })
        })
        .collect();
    let mut stable: BTreeSet<(usize, usize)> = unwritten
        .iter()
        .map(|l| (l.block.index(), l.inst))
        .collect();
    let mut demoted: BTreeSet<CellId> = BTreeSet::new();
    for _ in 0..8 {
        let mut an = Analyzer::new(func, module);
        an.stable_loads = stable.clone();
        an.demoted = demoted.clone();
        converge(&mut an);
        let next_stable: BTreeSet<(usize, usize)> = unwritten
            .iter()
            .filter(|l| match &func.blocks[l.block.index()].insts[l.inst].op {
                Op::Load(p) => an.reg(*p).group_uniform(),
                _ => false,
            })
            .map(|l| (l.block.index(), l.inst))
            .collect();
        let divergent = divergent_blocks(func, &an);
        let mut next_demoted = BTreeSet::new();
        for (_, block) in func
            .blocks
            .iter()
            .enumerate()
            .filter(|(b, _)| divergent[*b].is_some())
        {
            for inst in &block.insts {
                if let Op::Store { ptr, .. } = &inst.op {
                    if let AbsVal::Ptr(PtrVal {
                        base:
                            PtrBase::Cell {
                                block,
                                inst,
                                tracked: true,
                                ..
                            },
                        ..
                    }) = an.reg(*ptr)
                    {
                        next_demoted.insert((block, inst));
                    }
                }
            }
        }
        if next_stable == stable && next_demoted == demoted {
            let axes = value_axes(func, &an, &unwritten);
            let looping = barrier_free_cycles(func, module);
            for site in &mut sites {
                let b = site.block.index();
                if let Op::Store { value, .. } = &func.blocks[b].insts[site.inst].op {
                    let a = axes[value.index()];
                    if a & ANY_AXIS == 0 && !looping[b] {
                        site.value_axes = Some(a);
                    }
                }
            }
            for (b, block) in func
                .blocks
                .iter()
                .enumerate()
                .filter(|(b, _)| divergent[*b].is_some())
            {
                if block.insts.iter().any(|inst| barrier_point(module, inst)) {
                    return Err(format!(
                        "`{}`: a barrier in bb{b} is reached under a divergent branch",
                        func.name
                    ));
                }
            }
            // Keep what the launch check can use: sites some write may
            // reach, and guards that tell the items of one group apart.
            let kept: Vec<Site> = sites
                .iter()
                .filter(|s| sites.iter().any(|w| w.kind.is_write() && may_alias(w, s)))
                .cloned()
                .map(|mut s| {
                    s.guards = s
                        .guards
                        .iter()
                        .filter(|g| {
                            !g.depends_on_group()
                                && [&g.lhs, &g.rhs].iter().any(|a| !a.group_uniform())
                        })
                        .cloned()
                        .collect();
                    s
                })
                .collect();
            return Ok(kept);
        }
        stable = next_stable;
        demoted = next_demoted;
    }
    Err(format!("`{}`: group-uniformity did not settle", func.name))
}

/// A value that may depend on anything, not just the local id axes.
const ANY_AXIS: u8 = 1 << 3;

/// Per SSA value, the local id axes it may depend on (bit `d` for axis
/// `d`, [`ANY_AXIS`] for anything else): builtins and arithmetic by their
/// operands, a load of shared memory no item writes within its intervals
/// by its address, a private variable by everything stored to it (and by
/// anything when it is stored under a divergent branch).
fn value_axes(func: &Function, an: &Analyzer<'_>, unwritten: &[&Site]) -> Vec<u8> {
    let mut axes = vec![0u8; func.value_types.len()];
    let mut cells: BTreeMap<CellId, u8> = BTreeMap::new();
    let cell_of = |p: ValueId| match an.reg(p) {
        AbsVal::Ptr(PtrVal {
            base:
                PtrBase::Cell {
                    block,
                    inst,
                    tracked: true,
                    ..
                },
            ..
        }) => Some((block, inst)),
        _ => None,
    };
    loop {
        let mut changed = false;
        for (b, block) in func.blocks.iter().enumerate() {
            for (i, inst) in block.insts.iter().enumerate() {
                let of = |vs: &[ValueId]| vs.iter().fold(0u8, |acc, v| acc | axes[v.index()]);
                let a = match &inst.op {
                    Op::Const(_) => 0,
                    Op::Bin(_, x, y) | Op::Cmp(_, x, y) => of(&[*x, *y]),
                    Op::Un(_, x) | Op::Cast(_, x) => of(&[*x]),
                    Op::Select(c, x, y) => of(&[*c, *x, *y]),
                    Op::Gep { ptr, index } => of(&[*ptr, *index]),
                    Op::WorkItem { builtin, dim } => match builtin {
                        WiBuiltin::LocalId | WiBuiltin::GlobalId => 1 << dim.min(&2),
                        _ => 0,
                    },
                    Op::Load(p) => match cell_of(*p) {
                        Some(c) if an.demoted.contains(&c) => ANY_AXIS,
                        Some(c) => cells.get(&c).copied().unwrap_or(0),
                        None if unwritten
                            .iter()
                            .any(|l| (l.block.index(), l.inst) == (b, i)) =>
                        {
                            of(&[*p])
                        }
                        None => ANY_AXIS,
                    },
                    Op::Store { ptr, value } => {
                        if let Some(c) = cell_of(*ptr) {
                            let e = cells.entry(c).or_insert(0);
                            let next = *e | axes[value.index()];
                            changed |= next != *e;
                            *e = next;
                        }
                        0
                    }
                    Op::Alloca { .. } => 0,
                    _ => ANY_AXIS,
                };
                if let Some(r) = inst.result {
                    let next = axes[r.index()] | a;
                    changed |= next != axes[r.index()];
                    axes[r.index()] = next;
                }
            }
        }
        if !changed {
            return axes;
        }
    }
}

/// Blocks on a control-flow cycle that passes no barrier (a block holding
/// a [`barrier_point`] breaks every cycle through it).
fn barrier_free_cycles(func: &Function, module: &Module) -> Vec<bool> {
    let n = func.blocks.len();
    let stops: Vec<bool> = func
        .blocks
        .iter()
        .map(|b| b.insts.iter().any(|i| barrier_point(module, i)))
        .collect();
    let succs = successors(func);
    (0..n)
        .map(|b| {
            if stops[b] {
                return false;
            }
            let mut seen = vec![false; n];
            let mut stack: Vec<usize> = succs[b].iter().map(|s| s.index()).collect();
            while let Some(x) = stack.pop() {
                if x == b {
                    return true;
                }
                if stops[x] || seen[x] {
                    continue;
                }
                seen[x] = true;
                stack.extend(succs[x].iter().map(|s| s.index()));
            }
            false
        })
        .collect()
}

/// Items of one group the within-group check enumerates at most.
const GROUP_ENUM_LIMIT: usize = 4096;

/// Whether no item of a group touches bytes that another item of the same
/// group writes through `a` or `b` (the same site included), in any
/// order: [`spans_disjoint`] over the items of one group, with offsets
/// taken relative to `a`'s base. Group-axis terms must agree (they shift
/// both sites alike within one group); a guard that depends on the group
/// counts as holding.
fn group_pair_disjoint(a: &Site, b: &Site, env: &LaunchEnv<'_>) -> bool {
    let (Some(oa), Some(ob)) = (&a.offset, &b.offset) else {
        return false;
    };
    let grp = |o: &Affine| -> Vec<(Axis, Poly)> {
        o.coeffs
            .iter()
            .filter(|(ax, _)| matches!(ax, Axis::Grp(_)))
            .map(|(ax, p)| (*ax, p.clone()))
            .collect()
    };
    if grp(oa) != grp(ob) {
        return false;
    }
    let lid = |o| coefficients(o, env, |a| matches!(a, Axis::Lid(_)));
    let (Some(ca), Some(cb), Some(rel)) = (lid(oa), lid(ob), ob.base.sub(&oa.base).eval(env))
    else {
        return false;
    };
    let same = std::ptr::eq(a, b);
    // Same-value stores: a step-free store site whose value depends only
    // on axes the two items agree on.
    let same_value =
        same && a.value_axes.is_some() && a.kind == AccessKind::Write && oa.step_free();
    let mut sites = vec![(a, Some((0, ca)))];
    if !same {
        sites.push((b, Some((rel, cb))));
    }
    spans_disjoint(&sites, env, Scope::Group, |x, y| {
        (same || x.site != y.site) && !(same_value && x.start == y.start && x.key == y.key)
    })
}

/// Pairs of sites, by index with the lower first (a site paired with
/// itself included), whose accesses may meet for some launch: they share
/// a barrier interval, one of them writes, their memory may alias, and
/// they are not both call arguments or commuting atomics.
fn contending(sites: &[Site]) -> impl Iterator<Item = (usize, usize)> + '_ {
    (0..sites.len())
        .flat_map(move |x| (x..sites.len()).map(move |y| (x, y)))
        .filter(move |&(x, y)| {
            let (a, b) = (&sites[x], &sites[y]);
            a.intervals & b.intervals != 0
                && (a.kind.is_write() || b.kind.is_write())
                && !(a.call.is_some() && b.call.is_some())
                && may_alias(a, b)
                && !commute(a.kind, b.kind)
        })
}

/// One analysed function of a [`LockstepReport`].
#[derive(Debug, Clone)]
struct Part {
    sites: Vec<Site>,
    /// The function, kept for the launch-time evaluation when some pair
    /// of its sites contends; `None` for a scheduling kernel's own code,
    /// which only the symbolic check judges.
    func: Option<Box<Function>>,
}

impl Part {
    fn new(sites: Vec<Site>, func: Option<&Function>) -> Part {
        let func = func
            .filter(|_| contending(&sites).next().is_some())
            .map(|f| Box::new(f.clone()));
        Part { sites, func }
    }

    /// Why the part's items may not run in lockstep at `env`: the first
    /// contending pair of sites that [`group_pair_disjoint`] cannot
    /// settle and the launch-time evaluation ([`evaluate`]) does not
    /// clear.
    fn launch_refusal(&self, env: &LaunchEnv<'_>) -> Option<String> {
        let sites = &self.sites;
        let pairs: Vec<(usize, usize)> = contending(sites)
            .filter(|&(x, y)| !group_pair_disjoint(&sites[x], &sites[y], env))
            .collect();
        let &first = pairs.first()?;
        let outcome = match &self.func {
            Some(func) => evaluate(func, sites, &pairs, env),
            None => Err(Unsettled::GivesUp(
                "it is a scheduling kernel's own code".into(),
            )),
        };
        let Err(unsettled) = outcome else {
            return None;
        };
        let ((x, y), why) = match unsettled {
            Unsettled::Meet {
                pair,
                items: (i, j),
                barriers,
            } => (
                pair,
                format!("touch the same bytes from items {i} and {j} of a group after {barriers} barriers"),
            ),
            Unsettled::GivesUp(why) => (
                first,
                format!("may touch the same bytes from two items of a group, and the launch-time evaluation gives up: {why}"),
            ),
        };
        let (a, b) = (&sites[x], &sites[y]);
        Some(format!(
            "barrier interval {}: {} and {} {why}",
            (a.intervals & b.intervals).trailing_zeros(),
            a.describe(),
            b.describe()
        ))
    }
}

/// The within-group proof for one kernel: whether its work items may run
/// in lockstep, dispatching each instruction once per group between
/// barriers, with results identical to running them one after another.
#[derive(Debug, Clone)]
pub struct LockstepReport {
    /// Kernel name.
    pub kernel: String,
    /// The sites of every analysed part, or why the kernel never runs in
    /// lockstep.
    parts: Result<Vec<Part>, String>,
}

impl LockstepReport {
    /// Why no launch of the kernel may run in lockstep, if that is so
    /// whatever the launch.
    pub fn refusal(&self) -> Option<&str> {
        self.parts.as_ref().err().map(String::as_str)
    }

    /// Why the launch `env` may not run in lockstep, or `None` when it
    /// may: within every barrier interval, no item of a group writes
    /// bytes another item of the same group reads or writes (commuting
    /// atomics with discarded results, and stores of one value, excepted).
    /// Each contending pair of sites is settled symbolically for the
    /// concrete group shape and scalar arguments, or else by the
    /// launch-time evaluation of every interval instance (see the module
    /// docs). A refusal names the barrier interval and the two sites.
    pub fn launch_refusal(&self, env: &LaunchEnv<'_>) -> Option<String> {
        let items: usize = env.local.iter().product();
        if items <= 1 {
            return None; // one item has nobody to race with
        }
        let parts = match &self.parts {
            Ok(parts) => parts,
            Err(why) => return Some(why.clone()),
        };
        if items > GROUP_ENUM_LIMIT {
            return Some(format!(
                "a group of {items} items is past the {GROUP_ENUM_LIMIT}-item limit"
            ));
        }
        if !env.distinct_buffers {
            return Some("two buffer arguments alias".into());
        }
        parts.iter().find_map(|p| p.launch_refusal(env))
    }

    /// Whether the launch `env` may run in lockstep:
    /// [`Self::launch_refusal`] finds no reason against it.
    pub fn eligible_for_launch(&self, env: &LaunchEnv<'_>) -> bool {
        self.launch_refusal(env).is_none()
    }
}

// ---------------------------------------------------------------------------
// Launch-time evaluation
// ---------------------------------------------------------------------------

/// Work the launch-time evaluation may do for one launch, in units: one
/// per instruction an item steps through (each access it records among
/// them), the item's register count per fork, and one per pair of byte
/// spans compared. It bounds items × interval instances × sites; past it
/// the launch is refused.
const GROUP_EVAL_LIMIT: usize = 1 << 20;

/// The memory an evaluated pointer reaches: a parameter's buffer (or
/// local region), or an alloca by its result's value index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Mem {
    Param(usize),
    Local(usize),
    Private(usize),
}

/// One work item's value of a register or private scalar at launch.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Read from shared memory, or otherwise not fixed by the launch.
    Unknown,
    Val(Value),
    /// A pointer, with its byte offset into the memory when known.
    Ptr(Mem, Option<i64>),
}

impl Ev {
    /// The value on either of two paths.
    fn join(self, o: Ev) -> Ev {
        match (self, o) {
            (Ev::Val(a), Ev::Val(b)) if same_bits(a, b) => self,
            (Ev::Ptr(m, a), Ev::Ptr(n, b)) if m == n => Ev::Ptr(m, a.filter(|_| a == b)),
            _ => Ev::Unknown,
        }
    }
}

fn same_bits(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::F32(x), Value::F32(y)) => x.to_bits() == y.to_bits(),
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// An integer or boolean value's bits.
fn int_bits(v: Ev) -> Option<i64> {
    match v {
        Ev::Val(Value::Bool(b)) => Some(b as i64),
        Ev::Val(Value::I32(x)) => Some(x as i64),
        Ev::Val(Value::I64(x)) => Some(x),
        _ => None,
    }
}

/// The work item an evaluation runs: its index in the group, its local
/// ids and its group ids (`None` for one left unknown).
#[derive(Clone, Copy)]
struct Item {
    index: u32,
    lid: [usize; 3],
    grp: [Option<usize>; 3],
}

/// One work item's slots: its registers by value index, then its private
/// scalars by their alloca's value index, offset by the value count.
struct ItemState {
    vals: Vec<Ev>,
    /// The barriers the item has passed.
    barriers: u32,
    /// While a branch the evaluation cannot decide is open, each slot
    /// written since the innermost one opened, with its old value.
    log: Vec<(usize, Ev)>,
}

impl ItemState {
    fn set(&mut self, slot: usize, v: Ev, forked: bool) {
        if forked {
            self.log.push((slot, self.vals[slot]));
        }
        self.vals[slot] = v;
    }
}

/// A branch whose condition the evaluation cannot decide: both sides run
/// from `at` to `join`, its immediate postdominator, one after the other
/// from the same state, and the slots either side wrote join there.
struct Fork {
    at: usize,
    join: usize,
    /// Where the side still to run starts.
    other: Option<usize>,
    /// The log of the enclosing fork, resumed at the join.
    outer: Vec<(usize, Ev)>,
    /// The slots the first side wrote: the value it left and the one
    /// before the fork.
    first: Vec<(usize, Ev, Ev)>,
}

/// One item's access through a recorded site in one interval instance.
/// The evaluation keeps one per access of every item of a group, so the
/// fields are packed into 40 bytes.
#[derive(Debug, Clone, Copy)]
struct Touch {
    start: i64,
    /// A plain store's value, when it is a known integer (`stored_known`).
    stored: i64,
    /// Barriers the item passed before it: the interval instance.
    barriers: u32,
    /// The memory, ordered as [`Mem`] is ([`mem_key`]).
    mem: u32,
    item: u32,
    site: u32,
    /// The item's local ids on the site's value axes, flattened.
    key: u32,
    /// Bytes accessed from `start` on.
    width: u8,
    stored_known: bool,
}

const _: () = assert!(std::mem::size_of::<Touch>() <= 40);

impl Touch {
    fn end(&self) -> i64 {
        self.start.saturating_add(i64::from(self.width))
    }
}

/// `mem` as one word that sorts as it does: the variant in the top two
/// bits, its index below (`None` past 2^30 indices).
fn mem_key(mem: Mem) -> Option<u32> {
    let (tag, index) = match mem {
        Mem::Param(i) => (0, i),
        Mem::Local(i) => (1, i),
        Mem::Private(i) => (2, i),
    };
    u32::try_from(index)
        .ok()
        .filter(|&i| i < 1 << 30)
        .map(|i| tag << 30 | i)
}

/// Why a contending pair is not cleared.
enum Unsettled {
    /// Items `items` of a group touch the same bytes through `pair` after
    /// `barriers` barriers, one of them writing.
    Meet {
        pair: (usize, usize),
        items: (u32, u32),
        barriers: u32,
    },
    /// The evaluation cannot tell.
    GivesUp(String),
}

/// The launch-time evaluation of one function for one launch: runs every
/// item of a group through the function, with the launch's group shape,
/// group counts and integer scalars known, everything read from shared
/// memory unknown, private scalars tracked, and both sides of a branch it
/// cannot decide taken up to their reconvergence. It records each item's
/// byte span through the sites of the contending `pairs` per interval
/// instance (the barriers the item has passed), and fails when two items
/// meet through such a pair in one instance. Group ids of dimensions with
/// several groups are first left unknown, which covers every group at
/// once; when that fails on something read from them, each group is
/// evaluated in turn.
fn evaluate(
    func: &Function,
    sites: &[Site],
    pairs: &[(usize, usize)],
    env: &LaunchEnv<'_>,
) -> Result<(), Unsettled> {
    let mut ev = Eval::new(func, sites, pairs, env);
    match ev.group(std::array::from_fn(|d| (env.groups[d] <= 1).then_some(0))) {
        Err(_) if ev.group_read => {}
        outcome => return outcome,
    }
    for g in 0..env.groups.iter().product() {
        ev.group(flat_gid(env.groups, g).map(Some))?;
    }
    Ok(())
}

struct Eval<'a> {
    func: &'a Function,
    env: &'a LaunchEnv<'a>,
    sites: &'a [Site],
    pairs: &'a [(usize, usize)],
    /// The site an access records as, by `(block, inst)`: the sites of
    /// `pairs`.
    record: BTreeMap<(usize, usize), usize>,
    ipdom: Vec<usize>,
    /// Per value index of an alloca: its size in bytes, and whether it is
    /// a private scalar the evaluation tracks.
    allocas: Vec<Option<(i64, bool)>>,
    /// The private scalars' value indices.
    scalars: Vec<usize>,
    budget: usize,
    /// Whether a group id the evaluation did not know was read.
    group_read: bool,
    touches: Vec<Touch>,
}

impl<'a> Eval<'a> {
    fn new(
        func: &'a Function,
        sites: &'a [Site],
        pairs: &'a [(usize, usize)],
        env: &'a LaunchEnv<'a>,
    ) -> Self {
        let record = pairs
            .iter()
            .flat_map(|&(x, y)| [x, y])
            .map(|k| ((sites[k].block.index(), sites[k].inst), k))
            .collect();
        let mut allocas = vec![None; func.value_types.len()];
        for inst in func.blocks.iter().flat_map(|b| &b.insts) {
            if let (Op::Alloca { elem, count, space }, Some(r)) = (&inst.op, inst.result) {
                let scalar = *space == AddressSpace::Private && *count == 1;
                allocas[r.index()] = Some((interp_size(elem) as i64 * i64::from(*count), scalar));
            }
        }
        let scalars = (0..allocas.len())
            .filter(|&v| allocas[v].is_some_and(|(_, scalar)| scalar))
            .collect();
        Eval {
            func,
            env,
            sites,
            pairs,
            record,
            ipdom: postdominators(func).1,
            allocas,
            scalars,
            budget: GROUP_EVAL_LIMIT,
            group_read: false,
            touches: Vec::new(),
        }
    }

    fn charge(&mut self, units: usize) -> Result<(), String> {
        self.budget = self.budget.checked_sub(units).ok_or_else(|| {
            format!("the launch takes more than {GROUP_EVAL_LIMIT} steps to evaluate")
        })?;
        Ok(())
    }

    /// Evaluate every item of the group `grp` (`None` for an unknown id)
    /// and compare their spans.
    fn group(&mut self, grp: [Option<usize>; 3]) -> Result<(), Unsettled> {
        self.touches.clear();
        let mut barriers = None;
        for i in 0..self.env.local.iter().product::<usize>() {
            let it = Item {
                index: i as u32,
                lid: flat_gid(self.env.local, i),
                grp,
            };
            let passed = self.item(it).map_err(Unsettled::GivesUp)?;
            if *barriers.get_or_insert(passed) != passed {
                let why = "the items of a group pass different numbers of barriers";
                return Err(Unsettled::GivesUp(why.into()));
            }
        }
        self.sweep()
    }

    /// Run one item from entry to return; the number of barriers it
    /// passes.
    fn item(&mut self, it: Item) -> Result<u32, String> {
        let func = self.func;
        let n = func.blocks.len();
        let mut st = ItemState {
            vals: vec![Ev::Unknown; 2 * func.value_types.len()],
            barriers: 0,
            log: Vec::new(),
        };
        for (i, p) in func.params.iter().enumerate() {
            st.vals[i] = match (&p.ty, self.env.args.get(i).copied().flatten()) {
                (ty, _) if ty.is_ptr() => Ev::Ptr(Mem::Param(i), Some(0)),
                (Type::I32, Some(v)) => Ev::Val(Value::I32(v as i32)),
                (Type::I64, Some(v)) => Ev::Val(Value::I64(v)),
                _ => Ev::Unknown,
            };
        }
        let mut forks: Vec<Fork> = Vec::new();
        let mut b = 0usize;
        loop {
            while let Some(f) = forks.last_mut() {
                if f.join != b {
                    break;
                }
                if let Some(start) = f.other.take() {
                    // Keep what the first side left, rewind to the fork.
                    let log = std::mem::take(&mut st.log);
                    let left: Vec<(usize, Ev)> =
                        log.iter().map(|&(k, _)| (k, st.vals[k])).collect();
                    for &(k, old) in log.iter().rev() {
                        st.vals[k] = old;
                    }
                    f.first = left.into_iter().map(|(k, v)| (k, v, st.vals[k])).collect();
                    b = start;
                    continue;
                }
                let f = forks.pop().expect("an open fork");
                let mut written: BTreeMap<usize, (Ev, Ev)> =
                    f.first.iter().map(|&(k, v, old)| (k, (v, old))).collect();
                for &(k, old) in &st.log {
                    written.entry(k).or_insert((old, old));
                }
                st.log = f.outer;
                for (k, (v, old)) in written {
                    st.set(k, v.join(st.vals[k]), false);
                    if !forks.is_empty() {
                        st.log.push((k, old));
                    }
                }
            }
            if b == n {
                if !forks.is_empty() {
                    return Err("a path returns inside a branch it cannot decide".into());
                }
                return Ok(st.barriers);
            }
            if forks.iter().any(|f| f.at == b) {
                return Err(format!(
                    "the loop at bb{b} exits on a value read from memory"
                ));
            }
            self.block(b, &mut st, it, !forks.is_empty())?;
            b = match &func.blocks[b].term {
                Some(Terminator::Br(t)) => t.index(),
                Some(Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                }) => match st.vals[cond.index()] {
                    Ev::Val(Value::Bool(c)) => if c { then_bb } else { else_bb }.index(),
                    _ => {
                        forks.push(Fork {
                            at: b,
                            join: self.ipdom[b],
                            other: Some(else_bb.index()),
                            outer: std::mem::take(&mut st.log),
                            first: Vec::new(),
                        });
                        then_bb.index()
                    }
                },
                _ => n,
            };
        }
    }

    /// Run block `b`'s instructions for one item; `forked` when a branch
    /// it could not decide is open.
    fn block(
        &mut self,
        b: usize,
        st: &mut ItemState,
        it: Item,
        forked: bool,
    ) -> Result<(), String> {
        let func = self.func;
        let cell = |c: usize| func.value_types.len() + c;
        let width = |p: &ValueId| func.value_type(*p).pointee().map_or(1, interp_size);
        for (i, inst) in func.blocks[b].insts.iter().enumerate() {
            self.charge(1)?;
            let reg = |v: &ValueId| st.vals[v.index()];
            let val = match &inst.op {
                Op::Const(c) => Ev::Val(match *c {
                    ConstVal::Bool(x) => Value::Bool(x),
                    ConstVal::I32(x) => Value::I32(x),
                    ConstVal::I64(x) => Value::I64(x),
                    ConstVal::F32(x) => Value::F32(x),
                    ConstVal::F64(x) => Value::F64(x),
                }),
                Op::Bin(op, x, y) => match (reg(x), reg(y)) {
                    (Ev::Val(x), Ev::Val(y)) => eval_bin(*op, x, y).map_or(Ev::Unknown, Ev::Val),
                    _ => Ev::Unknown,
                },
                Op::Un(op, x) => match reg(x) {
                    Ev::Val(x) => eval_un(*op, x).map_or(Ev::Unknown, Ev::Val),
                    _ => Ev::Unknown,
                },
                Op::Cmp(op, x, y) => {
                    let cmp = match (reg(x), reg(y)) {
                        (Ev::Val(x), Ev::Val(y)) => eval_cmp(*op, x, y).ok(),
                        (Ev::Ptr(m, Some(x)), Ev::Ptr(n, Some(y))) if m == n => {
                            eval_cmp(*op, Value::I64(x), Value::I64(y)).ok()
                        }
                        _ => None,
                    };
                    cmp.map_or(Ev::Unknown, |c| Ev::Val(Value::Bool(c)))
                }
                Op::Select(c, x, y) => match reg(c) {
                    Ev::Val(Value::Bool(true)) => reg(x),
                    Ev::Val(Value::Bool(false)) => reg(y),
                    _ => reg(x).join(reg(y)),
                },
                Op::Cast(ty, x) => match reg(x) {
                    Ev::Val(v) => eval_cast(ty, v).map_or(Ev::Unknown, Ev::Val),
                    p @ Ev::Ptr(..) if ty.is_ptr() => p,
                    _ => Ev::Unknown,
                },
                Op::Alloca { space, .. } => match (space, inst.result) {
                    (AddressSpace::Local, Some(r)) => Ev::Ptr(Mem::Local(r.index()), Some(0)),
                    (AddressSpace::Private, Some(r)) => {
                        st.set(cell(r.index()), Ev::Unknown, forked);
                        Ev::Ptr(Mem::Private(r.index()), Some(0))
                    }
                    _ => Ev::Unknown,
                },
                Op::Load(p) => {
                    self.touch((b, i), reg(p), width(p), None, it, st.barriers)?;
                    match (reg(p), inst.result) {
                        (Ev::Ptr(Mem::Private(c), Some(0)), Some(r))
                            if self.allocas[c].is_some_and(|(_, scalar)| scalar) =>
                        {
                            let v = st.vals[cell(c)];
                            let ty = func.value_type(r);
                            match v {
                                Ev::Val(x) if eval_cast(ty, x).is_ok_and(|y| same_bits(x, y)) => v,
                                Ev::Ptr(..) if ty.is_ptr() => v,
                                _ => Ev::Unknown,
                            }
                        }
                        _ => Ev::Unknown,
                    }
                }
                Op::Store { ptr, value } => {
                    let (p, v, w) = (reg(ptr), reg(value), width(ptr));
                    self.touch((b, i), p, w, Some(v), it, st.barriers)?;
                    let clobbered = match p {
                        Ev::Ptr(Mem::Param(_) | Mem::Local(_), _) => false,
                        Ev::Ptr(Mem::Private(c), Some(o)) => match self.allocas[c] {
                            Some((size, true)) if o == 0 && w as i64 == size => {
                                st.set(cell(c), v, forked);
                                false
                            }
                            Some((size, false)) => o < 0 || o + w as i64 > size,
                            _ => true,
                        },
                        _ => true,
                    };
                    if clobbered {
                        // Any private scalar may have changed.
                        for &c in &self.scalars {
                            st.set(cell(c), Ev::Unknown, forked);
                        }
                    }
                    Ev::Unknown
                }
                Op::Gep { ptr, index } => match (reg(ptr), reg(index)) {
                    (Ev::Ptr(m, Some(o)), Ev::Val(x)) => Ev::Ptr(
                        m,
                        x.as_i64()
                            .ok()
                            .and_then(|x| gep_offset(o, x, width(ptr)).ok()),
                    ),
                    (Ev::Ptr(m, _), _) => Ev::Ptr(m, None),
                    _ => Ev::Unknown,
                },
                Op::Call { callee, .. } => return Err(format!("it calls `{callee}`")),
                Op::WorkItem { builtin, dim } => self.builtin(*builtin, *dim, it),
                Op::AtomicRmw { ptr, .. } | Op::AtomicCmpXchg { ptr, .. } => {
                    self.touch((b, i), reg(ptr), width(ptr), None, it, st.barriers)?;
                    Ev::Unknown
                }
                Op::Barrier => {
                    if forked {
                        return Err("a barrier is under a branch it cannot decide".into());
                    }
                    st.barriers += 1;
                    Ev::Unknown
                }
            };
            if let Some(r) = inst.result {
                st.set(r.index(), val, forked);
            }
        }
        Ok(())
    }

    fn builtin(&mut self, builtin: WiBuiltin, dim: u8, it: Item) -> Ev {
        let Item { lid, grp, .. } = it;
        let d = dim as usize;
        let v = match builtin {
            WiBuiltin::WorkDim => Some(self.env.work_dim as usize),
            _ if d >= 3 => return Ev::Unknown,
            WiBuiltin::LocalId => Some(lid[d]),
            WiBuiltin::GroupId => grp[d],
            WiBuiltin::GlobalId => grp[d].map(|g| g * self.env.local[d] + lid[d]),
            WiBuiltin::LocalSize => Some(self.env.local[d]),
            WiBuiltin::NumGroups => Some(self.env.groups[d]),
            WiBuiltin::GlobalSize => Some(self.env.local[d] * self.env.groups[d]),
        };
        self.group_read |= v.is_none();
        v.map_or(Ev::Unknown, |v| Ev::Val(Value::I64(v as i64)))
    }

    /// Record an access at `at` through `ptr` if it is a recorded site.
    /// Private memory is not shared; an address that does not evaluate
    /// fails, and so does a span outside its `local` array.
    fn touch(
        &mut self,
        at: (usize, usize),
        ptr: Ev,
        width: usize,
        stored: Option<Ev>,
        it: Item,
        barriers: u32,
    ) -> Result<(), String> {
        let Some(&site) = self.record.get(&at) else {
            return Ok(());
        };
        let s = &self.sites[site];
        let (mem, start) = match ptr {
            Ev::Ptr(Mem::Private(_), _) => return Ok(()),
            Ev::Ptr(mem, Some(start)) => (mem, start),
            _ => return Err(format!("the address of {} does not evaluate", s.describe())),
        };
        let end = start.saturating_add(width as i64);
        let (Some(mem_word), Ok(width)) = (mem_key(mem), u8::try_from(width)) else {
            return Err(format!("{} is too large to evaluate", s.describe()));
        };
        if let Mem::Local(c) = mem {
            if start < 0 || self.allocas[c].is_none_or(|(size, _)| end > size) {
                return Err(format!("{} reaches past its local array", s.describe()));
            }
        }
        let axes = s.value_axes.unwrap_or(0);
        let on = |d: usize| if axes >> d & 1 != 0 { it.lid[d] } else { 0 };
        let [l0, l1, _] = self.env.local;
        let stored = stored.and_then(int_bits);
        self.touches.push(Touch {
            start,
            stored: stored.unwrap_or(0),
            barriers,
            mem: mem_word,
            item: it.index,
            site: site as u32,
            key: (on(0) + l0 * (on(1) + l1 * on(2))) as u32,
            width,
            stored_known: stored.is_some(),
        });
        Ok(())
    }

    /// Whether two items' overlapping spans conflict: their sites are a
    /// contending pair, and they are not two stores of one value to the
    /// same bytes (a known integer, or a value the site's value axes fix).
    fn conflict(&self, x: &Touch, y: &Touch) -> bool {
        let pair = (x.site.min(y.site) as usize, x.site.max(y.site) as usize);
        if self.pairs.binary_search(&pair).is_err() {
            return false;
        }
        let site = &self.sites[x.site as usize];
        let same_value = (x.start, x.end()) == (y.start, y.end())
            && ((x.stored_known && y.stored_known && x.stored == y.stored)
                || (x.site == y.site
                    && site.kind == AccessKind::Write
                    && site.value_axes.is_some()
                    && x.key == y.key));
        !same_value
    }

    /// Compare the recorded spans within each interval instance and
    /// memory: every overlapping pair from two items meets once, when the
    /// later one opens.
    fn sweep(&mut self) -> Result<(), Unsettled> {
        let mut touches = std::mem::take(&mut self.touches);
        touches.sort_unstable_by_key(|t| (t.barriers, t.mem, t.start));
        let mut open: Vec<Touch> = Vec::new();
        for t in &touches {
            open.retain(|o| (o.barriers, o.mem) == (t.barriers, t.mem) && o.end() > t.start);
            self.charge(open.len()).map_err(Unsettled::GivesUp)?;
            if let Some(o) = open
                .iter()
                .find(|o| o.item != t.item && self.conflict(o, t))
            {
                return Err(Unsettled::Meet {
                    pair: (o.site.min(t.site) as usize, o.site.max(t.site) as usize),
                    items: (o.item.min(t.item), o.item.max(t.item)),
                    barriers: t.barriers,
                });
            }
            open.push(*t);
        }
        self.touches = touches;
        Ok(())
    }
}

/// `module` with every call of kernel `name` inlined (borrowed as is when
/// the kernel calls nothing).
fn inlined<'m>(module: &'m Module, name: &str) -> Result<std::borrow::Cow<'m, Module>, String> {
    let calls = module.function(name).is_some_and(|f| {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i.op, Op::Call { .. }))
    });
    if !calls {
        return Ok(std::borrow::Cow::Borrowed(module));
    }
    let mut out = module.clone();
    crate::inline::inline_module(&mut out).map_err(|e| format!("cannot inline: {e}"))?;
    Ok(std::borrow::Cow::Owned(out))
}

/// Run the within-group proof on kernel `name`; `None` if it is not a
/// kernel. Calls are inlined first, so barriers and accesses in helpers
/// are judged in their callers' control flow.
///
/// A scheduling kernel whose dequeue contract
/// [holds](DequeueContract::holds_in) is proven in two parts. Its own code
/// (the master-only dequeue, the barrier that broadcasts the claim, the
/// loop over the claimed groups) is analysed as it stands, its calls
/// standing for accesses through their pointer arguments. The compute
/// function those calls run is proven on the contract's original kernel,
/// the code the sharding gate already judges it by.
///
/// The proof costs a few analysis passes, more than one launch of a small
/// kernel saves by it; [`crate::ModuleFacts`] keeps each kernel's proof
/// for the life of the program.
pub fn lockstep_report(module: &Module, name: &str) -> Option<LockstepReport> {
    let kernel = module.function(name)?;
    if kernel.kind != FunctionKind::Kernel {
        return None;
    }
    let original_part = |m: &Module| -> Result<Part, String> {
        let m = inlined(m, name)?;
        let f = m.function(name).ok_or("kernel lost in inlining")?;
        Ok(Part::new(group_part(&m, f)?, Some(f)))
    };
    let contract = module.dequeue.get(name).filter(|c| c.holds_in(kernel));
    let parts = match contract {
        Some(c) => group_part(module, kernel)
            .and_then(|own| Ok(vec![Part::new(own, None), original_part(&c.original)?])),
        None => original_part(module).map(|p| vec![p]),
    };
    Some(LockstepReport {
        kernel: name.to_string(),
        parts,
    })
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

    /// The report cut to what the eligibility checks read, for a cache
    /// that keeps it for the life of the process: the verdict, the routes
    /// and the sites of parameters re-checked per launch. Every other
    /// site, and the divergent barriers, are dropped; every eligibility
    /// answer stays the same.
    pub(crate) fn into_gate(mut self) -> Self {
        let routes = &self.routes;
        self.sites.retain(|s| match routes.get(&s.param()) {
            Some(Route::Disjoint { unit_groups }) => !unit_groups.is_empty(),
            Some(Route::NeedsLaunch) => true,
            _ => false,
        });
        self.sites.shrink_to_fit();
        self.divergent_barriers = Vec::new();
        self
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
        assert_eq!(w.param(), 0);
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
        let site_a = r.sites.iter().find(|s| s.param() == 0).unwrap();
        let site_b = r.sites.iter().find(|s| s.param() == 1).unwrap();
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
