//! Functional interpreter for kernels over an NDRange.
//!
//! This is the reproduction's stand-in for actually running kernels on a GPU:
//! it executes IR work-item by work-item with correct work-group semantics —
//! shared `local` memory, barrier synchronisation (round-robin execution of
//! work items between barriers), and sequentially-consistent atomics. It is
//! used to check that the accelOS JIT transformation preserves kernel
//! semantics (differential testing of original vs transformed modules) and to
//! collect dynamic instruction counts that calibrate the timing simulator.
//!
//! Work groups execute one after another; work items of a group are
//! interleaved only at barriers. That is a legal OpenCL schedule, so any
//! kernel that is correct under OpenCL's execution model produces its
//! intended result here (and kernels relying on cross-group scheduling order
//! are detectably wrong).
//!
//! This tree-walker is the sequential reference: [`Interpreter::run_kernel`],
//! the race oracle [`Interpreter::run_kernel_oracle`] and the
//! [`crate::bytecode::ExecTier::TreeWalk`] tier run on it. Runtime launches
//! run on the bytecode VM ([`crate::bytecode`]), the only executor that
//! shards work groups across threads.

use crate::analysis::{LaunchRecord, ModuleFacts};
use crate::bytecode::ShapeKey;
use crate::error::InterpError;
use crate::ir::{
    AtomicOp, BinOp, BlockId, CmpOp, ConstVal, DequeueContract, Function, FunctionKind, Module, Op,
    Terminator, UnOp, ValueId, WiBuiltin,
};
use crate::races::{KernelRaceReport, LaunchEnv};
use crate::types::{AddressSpace, Type};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

mod pool;

/// Identifier of a device global-memory buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub u32);

/// One simulated device buffer, backed by `u64` words so that any naturally
/// aligned 4- or 8-byte element can be accessed through `AtomicU32` /
/// `AtomicU64` views during parallel execution (the base address of a
/// `Vec<u64>` is 8-aligned). The logical length is in bytes; the word
/// backing is an implementation detail invisible through [`Self::bytes`].
#[derive(Debug, Clone, Default)]
struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    fn zeroed(len: usize) -> Self {
        AlignedBuf {
            words: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: `words` owns at least `len` initialised bytes.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: `words` owns at least `len` initialised bytes; `&mut self`
        // guarantees exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr() as *mut u8, self.len) }
    }
}

impl PartialEq for AlignedBuf {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for AlignedBuf {}

/// Simulated device global memory: a set of byte buffers.
///
/// `PartialEq` compares full buffer contents — what the differential tests
/// between the sequential and parallel interpreters assert on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceMemory {
    buffers: Vec<AlignedBuf>,
}

impl DeviceMemory {
    /// Empty memory.
    pub fn new() -> Self {
        DeviceMemory::default()
    }

    /// Allocate a zero-initialised buffer of `bytes` bytes.
    pub fn alloc(&mut self, bytes: usize) -> BufferId {
        self.buffers.push(AlignedBuf::zeroed(bytes));
        BufferId(self.buffers.len() as u32 - 1)
    }

    /// Total bytes currently allocated.
    pub fn total_bytes(&self) -> usize {
        self.buffers.iter().map(AlignedBuf::len).sum()
    }

    /// Raw bytes of a buffer.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this memory's [`alloc`](Self::alloc).
    pub fn bytes(&self, id: BufferId) -> &[u8] {
        self.buffers[id.0 as usize].bytes()
    }

    /// Mutable raw bytes of a buffer.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this memory's [`alloc`](Self::alloc).
    pub fn bytes_mut(&mut self, id: BufferId) -> &mut [u8] {
        self.buffers[id.0 as usize].bytes_mut()
    }

    /// Write a slice of `f32` starting at element 0 (host → device copy).
    pub fn write_f32(&mut self, id: BufferId, data: &[f32]) {
        let dst = self.bytes_mut(id);
        for (i, v) in data.iter().enumerate() {
            dst[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Read the buffer as `f32` elements (device → host copy).
    pub fn read_f32(&self, id: BufferId) -> Vec<f32> {
        self.bytes(id)
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Write a slice of `i32` starting at element 0.
    pub fn write_i32(&mut self, id: BufferId, data: &[i32]) {
        let dst = self.bytes_mut(id);
        for (i, v) in data.iter().enumerate() {
            dst[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Read the buffer as `i32` elements.
    pub fn read_i32(&self, id: BufferId) -> Vec<i32> {
        self.bytes(id)
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Write a slice of `i64` starting at element 0.
    pub fn write_i64(&mut self, id: BufferId, data: &[i64]) {
        let dst = self.bytes_mut(id);
        for (i, v) in data.iter().enumerate() {
            dst[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Read the buffer as `i64` elements.
    pub fn read_i64(&self, id: BufferId) -> Vec<i64> {
        self.bytes(id)
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }
}

/// Which arena a pointer refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arena {
    /// A global-memory buffer.
    Global(BufferId),
    /// The current work group's local memory.
    Local,
    /// The current work item's private memory.
    Private,
}

/// A runtime pointer value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtrVal {
    /// Target arena.
    pub arena: Arena,
    /// Byte offset within the arena (may go negative mid-arithmetic; bounds
    /// are enforced at access time).
    pub byte_off: i64,
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// 32-bit float.
    F32(f32),
    /// 64-bit float.
    F64(f64),
    /// Pointer.
    Ptr(PtrVal),
}

impl Value {
    pub(crate) fn as_bool(self) -> Result<bool, InterpError> {
        match self {
            Value::Bool(b) => Ok(b),
            other => Err(InterpError::Invalid(format!(
                "expected bool, got {other:?}"
            ))),
        }
    }

    pub(crate) fn as_i64(self) -> Result<i64, InterpError> {
        match self {
            Value::I32(v) => Ok(v as i64),
            Value::I64(v) => Ok(v),
            other => Err(InterpError::Invalid(format!(
                "expected integer, got {other:?}"
            ))),
        }
    }

    pub(crate) fn as_ptr(self) -> Result<PtrVal, InterpError> {
        match self {
            Value::Ptr(p) => Ok(p),
            other => Err(InterpError::Invalid(format!(
                "expected pointer, got {other:?}"
            ))),
        }
    }
}

/// Most work groups one launch may have ([`NdRange::check`]). The
/// runtime sizes per-group tables by a launch's group count (the VM's
/// per-group instruction counts, the timing plane's per-group costs), so
/// a tenant's launch shape alone must not exhaust host memory. Parboil's
/// largest canonical launch has 6,144 groups.
pub const MAX_GROUPS: usize = 1 << 20;

/// Most calls one work item may have active at once. OpenCL C forbids
/// recursion, and no Parboil kernel nests deeper than the JIT's one call
/// of the original body; a deeper call fails with
/// [`InterpError::CallDepthExceeded`] on every tier, so that a recursive
/// kernel cannot stack frames until the step limit.
pub const MAX_CALL_DEPTH: usize = 256;

/// The error of a call of the launched kernel, which the verifier rejects.
/// Both tiers raise it at the call: the bytecode tier folds the kernel's
/// arguments into its frame's preamble, so a second frame of the kernel
/// would see the launch's arguments instead of the call's.
pub(crate) fn launched_kernel_call(callee: &str) -> InterpError {
    InterpError::Invalid(format!("call of the launched kernel `{callee}`"))
}

/// Kernel launch geometry (OpenCL NDRange).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdRange {
    /// Number of dimensions in use (1..=3).
    pub work_dim: u8,
    /// Global size per dimension (unused dims = 1).
    pub global: [usize; 3],
    /// Work-group size per dimension (unused dims = 1).
    pub local: [usize; 3],
}

impl NdRange {
    /// One-dimensional range.
    ///
    /// # Panics
    ///
    /// Panics if `local` is zero or does not divide `global`.
    pub fn new_1d(global: usize, local: usize) -> Self {
        let r = NdRange {
            work_dim: 1,
            global: [global, 1, 1],
            local: [local, 1, 1],
        };
        r.validate();
        r
    }

    /// Two-dimensional range.
    ///
    /// # Panics
    ///
    /// Panics if any local size is zero or does not divide its global size.
    pub fn new_2d(global: [usize; 2], local: [usize; 2]) -> Self {
        let r = NdRange {
            work_dim: 2,
            global: [global[0], global[1], 1],
            local: [local[0], local[1], 1],
        };
        r.validate();
        r
    }

    /// Three-dimensional range.
    ///
    /// # Panics
    ///
    /// Panics if any local size is zero or does not divide its global size.
    pub fn new_3d(global: [usize; 3], local: [usize; 3]) -> Self {
        let r = NdRange {
            work_dim: 3,
            global,
            local,
        };
        r.validate();
        r
    }

    fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
    }

    /// Check a range built as a struct literal (the fields are public, so
    /// the constructors' validation can be skipped): `work_dim` must be
    /// 1..=3, every local size positive and a divisor of its global
    /// size, the item counts ([`NdRange::total_items`],
    /// [`NdRange::wg_size`]) must fit in `usize`, and the group count may
    /// not exceed [`MAX_GROUPS`]. The runtime entry points call this
    /// before a launch, so a malformed range is an error rather than a
    /// divide-by-zero, an overflowing count, silently unprocessed work
    /// items or an allocation that aborts the process.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated rule.
    pub fn check(&self) -> Result<(), String> {
        if !(1..=3).contains(&self.work_dim) {
            return Err(format!("work_dim {} is not 1, 2 or 3", self.work_dim));
        }
        for d in 0..3 {
            if self.local[d] == 0 {
                return Err("local size must be positive".into());
            }
            if !self.global[d].is_multiple_of(self.local[d]) {
                return Err(format!(
                    "global size {} not divisible by local size {} in dim {d}",
                    self.global[d], self.local[d]
                ));
            }
        }
        // Group counts divide item counts, so they fit once those do.
        let product = |dims: [usize; 3]| dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        if product(self.global).is_none() || product(self.local).is_none() {
            return Err(format!(
                "item count of global {:?} / local {:?} overflows usize",
                self.global, self.local
            ));
        }
        let groups = self.total_groups();
        if groups > MAX_GROUPS {
            return Err(format!(
                "{groups} work groups exceed the limit of {MAX_GROUPS} per launch"
            ));
        }
        Ok(())
    }

    /// Number of work groups per dimension.
    pub fn num_groups(&self) -> [usize; 3] {
        [
            self.global[0] / self.local[0],
            self.global[1] / self.local[1],
            self.global[2] / self.local[2],
        ]
    }

    /// Total number of work groups.
    pub fn total_groups(&self) -> usize {
        let g = self.num_groups();
        g[0] * g[1] * g[2]
    }

    /// Work items per group.
    pub fn wg_size(&self) -> usize {
        self.local[0] * self.local[1] * self.local[2]
    }

    /// Total number of work items.
    pub fn total_items(&self) -> usize {
        self.global[0] * self.global[1] * self.global[2]
    }
}

/// A kernel argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// Global/constant buffer argument.
    Buffer(BufferId),
    /// Scalar argument.
    Scalar(Value),
    /// Dynamically sized `local` pointer argument: number of *elements*
    /// (element type comes from the kernel signature), mirroring
    /// `clSetKernelArg(k, i, n * sizeof(T), NULL)`.
    Local {
        /// Element count.
        elems: u32,
    },
}

/// Dynamic execution statistics of one kernel launch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DynStats {
    /// Executed (non-terminator) instructions per work group, indexed by flat
    /// group id.
    ///
    /// For a persistent-worker scheduling kernel a work group is a
    /// *worker*, and its count covers every virtual group it dequeued, so
    /// the split depends on which worker took which ticket. Launches the
    /// gate admits under a [`crate::ir::DequeueContract`] take tickets in
    /// the fixed round-robin order, so the split is the same at every
    /// thread count; elsewhere it follows the order the atomic dequeues
    /// happened in (sequentially: worker 0 takes every virtual group).
    /// The four totals below do not depend on the order.
    pub insns_per_wg: Vec<u64>,
    /// Total executed instructions.
    pub total_insns: u64,
    /// Executed loads + stores.
    pub mem_ops: u64,
    /// Executed atomic operations.
    pub atomic_ops: u64,
    /// Executed barriers (per work item).
    pub barriers: u64,
}

impl DynStats {
    /// Coefficient of variation of per-work-group instruction counts — the
    /// "work-group imbalance" that makes dynamic scheduling win (paper §8.5).
    pub fn wg_imbalance(&self) -> f64 {
        let n = self.insns_per_wg.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.insns_per_wg.iter().sum::<u64>() as f64 / n as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .insns_per_wg
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }
}

/// Kind of cross-group conflict observed by the dynamic race oracle
/// ([`Interpreter::run_kernel_oracle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleConflictKind {
    /// Two different work groups plainly wrote the same byte.
    WriteWrite,
    /// A byte was written both atomically and non-atomically by different
    /// work groups.
    MixedAtomicity,
    /// A work group read a byte another group had written.
    ReadAfterForeignWrite,
    /// A work group wrote a byte another group had read.
    WriteAfterForeignRead,
}

impl std::fmt::Display for OracleConflictKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OracleConflictKind::WriteWrite => "write-write",
            OracleConflictKind::MixedAtomicity => "mixed-atomicity",
            OracleConflictKind::ReadAfterForeignWrite => "read-after-foreign-write",
            OracleConflictKind::WriteAfterForeignRead => "write-after-foreign-read",
        };
        f.write_str(s)
    }
}

/// One observed cross-group conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleConflict {
    /// Buffer the conflicting byte lives in.
    pub buffer: BufferId,
    /// Byte offset within the buffer.
    pub byte: usize,
    /// What kind of conflict.
    pub kind: OracleConflictKind,
    /// Flat id of the group that touched the byte earlier.
    pub first_group: usize,
    /// Flat id of the group that conflicted with it.
    pub second_group: usize,
}

/// Result of a shadow-mode oracle run: the dynamic ground truth the static
/// race analysis is validated against. `conflicts` holds the first few
/// distinct conflicting bytes; `total` counts every conflicting byte.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// First distinct conflicting bytes (capped; see `total`).
    pub conflicts: Vec<OracleConflict>,
    /// Total number of distinct conflicting bytes observed.
    pub total: usize,
}

impl OracleReport {
    /// Whether the launch executed without any cross-group conflict.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }
}

/// Sentinel: no group has touched the byte yet.
const ORACLE_NONE: u32 = u32::MAX;
/// Sentinel: more than one group touched the byte.
const ORACLE_MULTI: u32 = u32::MAX - 1;
/// How many distinct conflicting bytes an [`OracleReport`] retains.
const ORACLE_CONFLICT_CAP: usize = 16;

/// Per-byte shadow cell of the dynamic race oracle.
#[derive(Clone, Copy)]
struct OracleCell {
    writer: u32,
    reader: u32,
    atomic_only: bool,
    flagged: bool,
}

impl OracleCell {
    const FRESH: OracleCell = OracleCell {
        writer: ORACLE_NONE,
        reader: ORACLE_NONE,
        atomic_only: true,
        flagged: false,
    };
}

/// Shadow state of one oracle run: a last-writer/last-reader cell per byte
/// of global memory, populated while the launch executes sequentially.
pub(crate) struct OracleState {
    cells: Vec<Vec<OracleCell>>,
    report: OracleReport,
}

impl OracleState {
    fn new(mem: &DeviceMemory) -> Self {
        OracleState {
            cells: mem
                .buffers
                .iter()
                .map(|b| vec![OracleCell::FRESH; b.len()])
                .collect(),
            report: OracleReport::default(),
        }
    }

    fn conflict(
        report: &mut OracleReport,
        cell: &mut OracleCell,
        buffer: BufferId,
        byte: usize,
        kind: OracleConflictKind,
        first_group: u32,
        second_group: u32,
    ) {
        if cell.flagged {
            return; // one report per byte
        }
        cell.flagged = true;
        report.total += 1;
        if report.conflicts.len() < ORACLE_CONFLICT_CAP {
            report.conflicts.push(OracleConflict {
                buffer,
                byte,
                kind,
                first_group: if first_group == ORACLE_MULTI {
                    usize::MAX
                } else {
                    first_group as usize
                },
                second_group: second_group as usize,
            });
        }
    }

    /// Record a `size`-byte access by flat group `group`.
    fn record(
        &mut self,
        buffer: BufferId,
        off: i64,
        size: usize,
        group: u32,
        is_write: bool,
        is_atomic: bool,
    ) {
        let Some(cells) = self.cells.get_mut(buffer.0 as usize) else {
            return;
        };
        let start = off.max(0) as usize;
        for byte in start..(start + size).min(cells.len()) {
            let cell = &mut cells[byte];
            if is_write {
                if cell.reader != ORACLE_NONE && cell.reader != group {
                    Self::conflict(
                        &mut self.report,
                        cell,
                        buffer,
                        byte,
                        OracleConflictKind::WriteAfterForeignRead,
                        cell.reader,
                        group,
                    );
                }
                if cell.writer != ORACLE_NONE && cell.writer != group {
                    let kind = if is_atomic && cell.atomic_only {
                        None // contended atomics are synchronized, not racy
                    } else if is_atomic != cell.atomic_only {
                        Some(OracleConflictKind::MixedAtomicity)
                    } else {
                        Some(OracleConflictKind::WriteWrite)
                    };
                    if let Some(kind) = kind {
                        Self::conflict(
                            &mut self.report,
                            cell,
                            buffer,
                            byte,
                            kind,
                            cell.writer,
                            group,
                        );
                    }
                }
                if cell.writer == ORACLE_NONE {
                    cell.writer = group;
                    cell.atomic_only = is_atomic;
                } else {
                    if cell.writer != group {
                        cell.writer = ORACLE_MULTI;
                    }
                    cell.atomic_only &= is_atomic;
                }
            } else {
                if cell.writer != ORACLE_NONE && cell.writer != group {
                    Self::conflict(
                        &mut self.report,
                        cell,
                        buffer,
                        byte,
                        OracleConflictKind::ReadAfterForeignWrite,
                        cell.writer,
                        group,
                    );
                }
                if cell.reader == ORACLE_NONE {
                    cell.reader = group;
                } else if cell.reader != group {
                    cell.reader = ORACLE_MULTI;
                }
            }
        }
    }
}

/// Ceiling on the flat work groups claimed per atomic-cursor fetch by the
/// parallel interpreter's stealing schedule: small enough that one
/// expensive range cannot strand a thread for long, large enough that the
/// cursor is not contended on every group. Actual claims taper below this near the end
/// of the range space — see [`steal_claim`].
pub const STEAL_RANGE: usize = 8;

/// Flat work groups one stealing thread claims when its cursor fetch
/// lands at `lo` of `total` groups, shared by `threads` workers: half the
/// remaining groups divided evenly (guided self-scheduling, §6.4-style),
/// capped at [`STEAL_RANGE`] and floored at one group.
///
/// A fixed claim of [`STEAL_RANGE`] degenerates on small launches — an
/// 8-group claim hands a 9-group launch almost entirely to one thread —
/// and strands up to `STEAL_RANGE − 1` groups' worth of imbalance on the
/// final claim of any launch. The taper keeps deep range spaces on
/// full-size claims (the cursor stays uncontended) while the tail shrinks
/// toward single-group claims every idle thread can grab.
///
/// # Examples
///
/// ```
/// use kernel_ir::interp::{steal_claim, STEAL_RANGE};
/// // Deep range space: full-size claims, exactly the fixed behaviour.
/// assert_eq!(steal_claim(10_000, 4, 0), STEAL_RANGE);
/// // A 9-group launch on 4 threads: single-group claims, all threads fed.
/// assert_eq!(steal_claim(9, 4, 0), 1);
/// // The tail tapers: the last stretch is claimed one group at a time.
/// assert_eq!(steal_claim(10_000, 4, 9_996), 1);
/// ```
pub fn steal_claim(total: usize, threads: usize, lo: usize) -> usize {
    let remaining = total.saturating_sub(lo);
    (remaining / (2 * threads.max(1))).clamp(1, STEAL_RANGE)
}

/// Interpreter tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterpConfig {
    /// Maximum instructions one work item may execute (runaway-loop guard).
    pub step_limit: u64,
    /// Local memory capacity in bytes per work group (checked at launch).
    pub local_mem_capacity: usize,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            step_limit: 50_000_000,
            local_mem_capacity: 1 << 20,
        }
    }
}

/// Interpreter size of one element (pointers are serialised as 16 bytes:
/// tag + buffer id + offset; scalar types use their natural size).
pub(crate) fn interp_size(ty: &Type) -> usize {
    match ty {
        Type::Ptr { .. } => 16,
        other => other.byte_size(),
    }
}

fn encode_value(v: Value, out: &mut [u8]) {
    match v {
        Value::Bool(b) => out[0] = b as u8,
        Value::I32(x) => out[..4].copy_from_slice(&x.to_le_bytes()),
        Value::F32(x) => out[..4].copy_from_slice(&x.to_le_bytes()),
        Value::I64(x) => out[..8].copy_from_slice(&x.to_le_bytes()),
        Value::F64(x) => out[..8].copy_from_slice(&x.to_le_bytes()),
        Value::Ptr(p) => {
            let (tag, id): (u8, u32) = match p.arena {
                Arena::Global(b) => (0, b.0),
                Arena::Local => (1, 0),
                Arena::Private => (2, 0),
            };
            out[0] = tag;
            out[1..4].fill(0);
            out[4..8].copy_from_slice(&id.to_le_bytes());
            out[8..16].copy_from_slice(&p.byte_off.to_le_bytes());
        }
    }
}

fn decode_value(ty: &Type, bytes: &[u8]) -> Value {
    match ty {
        Type::Bool => Value::Bool(bytes[0] != 0),
        Type::I32 => Value::I32(i32::from_le_bytes(bytes[..4].try_into().unwrap())),
        Type::F32 => Value::F32(f32::from_le_bytes(bytes[..4].try_into().unwrap())),
        Type::I64 => Value::I64(i64::from_le_bytes(bytes[..8].try_into().unwrap())),
        Type::F64 => Value::F64(f64::from_le_bytes(bytes[..8].try_into().unwrap())),
        Type::Ptr { .. } => {
            let tag = bytes[0];
            let id = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            let off = i64::from_le_bytes(bytes[8..16].try_into().unwrap());
            let arena = match tag {
                0 => Arena::Global(BufferId(id)),
                1 => Arena::Local,
                _ => Arena::Private,
            };
            Value::Ptr(PtrVal {
                arena,
                byte_off: off,
            })
        }
        Type::Void => unreachable!("void cannot be decoded"),
    }
}

/// Per-work-item coordinates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WiCtx {
    pub(crate) global_id: [usize; 3],
    pub(crate) local_id: [usize; 3],
    pub(crate) group_id: [usize; 3],
}

#[derive(Debug)]
struct Frame {
    func_idx: usize,
    block: BlockId,
    ip: usize,
    regs: Vec<Option<Value>>,
    /// Register in the *caller* frame to receive our return value.
    ret_dst: Option<ValueId>,
    /// Where this frame's private memory starts in the item's arena.
    private_base: usize,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub(crate) enum WiStatus {
    Running,
    AtBarrier,
    Done,
}

/// One work item's state: its call frames and its private arena. The
/// arena holds the private frame of every function on the call stack,
/// the kernel's first: a call appends the callee's zeroed frame and its
/// return truncates the arena back ([`PrivateFrames`]), so the arena's
/// size depends only on the call stack, never on how often an alloca ran.
struct WorkItem {
    ctx: WiCtx,
    frames: Vec<Frame>,
    private: Vec<u8>,
    status: WiStatus,
    steps: u64,
}

/// Free list of register files, recycled across frames and work groups so
/// the hot loop stops allocating one `Vec<Option<Value>>` per call frame.
#[derive(Debug, Default)]
struct RegsPool(Vec<Vec<Option<Value>>>);

impl RegsPool {
    fn take(&mut self, len: usize) -> Vec<Option<Value>> {
        let mut regs = self.0.pop().unwrap_or_default();
        regs.clear();
        regs.resize(len, None);
        regs
    }

    fn put(&mut self, regs: Vec<Option<Value>>) {
        self.0.push(regs);
    }
}

/// Reusable per-work-group execution state: the `local` arena, the work
/// items (with their frame stacks and private arenas) and the register-file
/// pool. One `WgScratch` serves every group of a launch in turn — after the
/// first group the `gz/gy/gx` loop performs no heap allocation beyond
/// whatever the kernel's own call depth demands once.
#[derive(Default)]
struct WgScratch {
    local: Vec<u8>,
    items: Vec<WorkItem>,
    pool: RegsPool,
}

/// Everything `run_kernel` resolves before the group loop: entry function,
/// argument plan, static local-memory layout, and the dequeue order of an
/// admitted scheduling-kernel launch.
pub(crate) struct LaunchSetup<'m> {
    pub(crate) func_idx: usize,
    pub(crate) func: &'m Function,
    pub(crate) arg_plan: Vec<ArgPlan>,
    pub(crate) static_local: Vec<(BlockId, usize, usize)>,
    pub(crate) local_bytes: usize,
    pub(crate) private: &'m PrivateFrames,
    pub(crate) tickets: Option<Tickets>,
}

/// Most bytes one function's private frame may hold: the sum of its
/// private `alloca` sites, each of which a call zeroes for every work
/// item, whether or not the alloca runs. A module with a larger frame
/// fails every launch with [`InterpError::Invalid`] on every tier,
/// before any memory is allocated for it. The largest frame of the 25
/// Parboil kernels, untransformed or JIT-transformed, holds 136 bytes
/// (bfs's kernel).
pub const MAX_PRIVATE_FRAME_BYTES: usize = 1 << 16;

/// Private memory as automatic storage: every private `alloca` site of
/// the module has a fixed byte offset in its function's private frame
/// (sizes from `interp_size`). A call pushes the callee's zeroed frame
/// onto the work item's private arena and its return truncates the arena
/// back; an alloca re-zeroes its own bytes and points at them. One layout
/// per module, kept in its [`ModuleFacts`] and read by the tree-walker and
/// by the bytecode lowering.
#[derive(Debug)]
pub(crate) struct PrivateFrames {
    /// Per function: `(block, ip, offset)` of each private alloca, in
    /// instruction order.
    sites: Vec<Vec<(BlockId, usize, u32)>>,
    /// Per function: its frame's size in bytes.
    bytes: Vec<u32>,
}

impl PrivateFrames {
    /// Lay out every function of `module`; an error when a frame would
    /// hold more than [`MAX_PRIVATE_FRAME_BYTES`].
    pub(crate) fn new(module: &Module) -> Result<PrivateFrames, InterpError> {
        let mut sites = Vec::with_capacity(module.functions.len());
        let mut bytes = Vec::with_capacity(module.functions.len());
        for func in &module.functions {
            let mut own = Vec::new();
            let mut top = 0u32;
            for (bid, block) in func.iter_blocks() {
                for (ip, inst) in block.insts.iter().enumerate() {
                    if let Op::Alloca {
                        elem,
                        count,
                        space: AddressSpace::Private,
                    } = &inst.op
                    {
                        own.push((bid, ip, top));
                        let size = interp_size(elem) as u64 * *count as u64;
                        top = u32::try_from(top as u64 + size)
                            .ok()
                            .filter(|&t| t as usize <= MAX_PRIVATE_FRAME_BYTES)
                            .ok_or_else(|| {
                                InterpError::Invalid(format!(
                                    "function `{}` needs more than {MAX_PRIVATE_FRAME_BYTES} \
                                     bytes of private memory per call",
                                    func.name
                                ))
                            })?;
                    }
                }
            }
            sites.push(own);
            bytes.push(top);
        }
        Ok(PrivateFrames { sites, bytes })
    }

    /// Offset of the private alloca at `(block, ip)` in function `func`'s
    /// frame.
    pub(crate) fn offset(&self, func: usize, block: BlockId, ip: usize) -> usize {
        let sites = &self.sites[func];
        let k = sites.partition_point(|&(b, i, _)| (b, i) < (block, ip));
        debug_assert_eq!(
            (sites[k].0, sites[k].1),
            (block, ip),
            "not a private alloca"
        );
        sites[k].2 as usize
    }

    /// Size in bytes of function `func`'s private frame.
    pub(crate) fn frame_bytes(&self, func: usize) -> usize {
        self.bytes[func] as usize
    }
}

/// The round-robin dequeue order of a launch admitted under a
/// [`crate::ir::DequeueContract`]: worker `w`'s `j`-th execution of the
/// dequeue site returns `base + (j·workers + w)·chunk` instead of the
/// counter's old value. The `atomic_add` itself still executes, so the
/// counter ends where any schedule leaves it.
///
/// Why this is a legal schedule: a worker exits at its first ticket
/// `≥ total`, so with `n` successful tickets the order hands out exactly
/// `0 … n+W−1` (in `chunk` units past `base`), one failing ticket per
/// worker, as real dequeues do; it is the schedule in which all workers'
/// `j`-th dequeues land before any `j+1`-th.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tickets {
    pub(crate) block: BlockId,
    pub(crate) inst: usize,
    base: i64,
    chunk: i64,
    workers: i64,
}

impl Tickets {
    /// Worker `flat`'s cursor into the order.
    pub(crate) fn worker(&self, flat: usize) -> TicketCursor {
        TicketCursor {
            next: self
                .base
                .wrapping_add((flat as i64).wrapping_mul(self.chunk)),
            stride: self.workers.wrapping_mul(self.chunk),
        }
    }
}

/// One worker's next ticket in the round-robin order.
pub(crate) struct TicketCursor {
    next: i64,
    stride: i64,
}

impl TicketCursor {
    pub(crate) fn take(&mut self) -> Value {
        let t = self.next;
        self.next = self.next.wrapping_add(self.stride);
        Value::I64(t)
    }
}

/// Scalar arguments by parameter index, as the race analysis reads them.
fn launch_scalars(args: &[ArgValue]) -> Vec<Option<i64>> {
    args.iter()
        .map(|a| match a {
            ArgValue::Scalar(Value::I32(x)) => Some(*x as i64),
            ArgValue::Scalar(Value::I64(x)) => Some(*x),
            _ => None,
        })
        .collect()
}

/// The virtual range a scheduling kernel's workers dequeue from, read from
/// its descriptor in `mem`: the dequeue counter's start, the virtual group
/// counts, and the original kernel's scalar arguments. `None` when the
/// descriptor is missing or inconsistent.
fn virtual_range(
    mem: &DeviceMemory,
    c: &DequeueContract,
    ndrange: NdRange,
    args: &[ArgValue],
) -> Option<(i64, [usize; 3], Vec<Option<i64>>)> {
    let word = |slot: usize| -> Option<i64> {
        let ArgValue::Buffer(rt) = args.get(c.descriptor)? else {
            return None;
        };
        let bytes = mem.buffers.get(rt.0 as usize)?.bytes();
        let w = bytes.get(8 * slot..8 * slot + 8)?;
        Some(i64::from_le_bytes(w.try_into().ok()?))
    };
    let base = word(c.next_slot)?;
    let total = word(c.total_slot)?;
    let mut groups = [0usize; 3];
    let mut product: i64 = 1;
    for (d, g) in groups.iter_mut().enumerate() {
        let n = word(c.dims_slot + d)?;
        product = product.checked_mul(n).filter(|_| n >= 1)?;
        *g = n as usize;
    }
    // The analysis enumerates up to every virtual work item.
    (product as usize).checked_mul(ndrange.wg_size())?;
    let scalars = launch_scalars(args.get(..c.descriptor)?);
    (base >= 0 && (0..=product).contains(&total)).then_some((base, groups, scalars))
}

/// One launch as the accelcheck gates see it, read once: the kernel's
/// gate report and holding dequeue contract, the group counts and scalar
/// arguments both proofs are checked against — the launch's own, or for a
/// scheduling kernel under a contract the virtual range its workers
/// dequeue from, read from the descriptor — and the record of the
/// launch's shape, which keeps the answers. Sharding, the dequeue tickets,
/// lockstep and the compiled programs all answer from it.
pub(crate) struct LaunchGate<'a> {
    facts: &'a ModuleFacts,
    module: &'a Module,
    kernel: &'a str,
    /// `None` for an unknown kernel.
    report: Option<(&'a KernelRaceReport, Option<&'a DequeueContract>)>,
    /// The dequeue counter's start, the group counts and the scalar
    /// arguments; `None` when a scheduling kernel's descriptor is missing,
    /// inconsistent or not given.
    range: Option<(i64, [usize; 3], Vec<Option<i64>>)>,
    ndrange: NdRange,
    distinct_buffers: bool,
    /// The record of the launch's shape.
    pub(crate) record: Arc<LaunchRecord>,
}

impl LaunchGate<'_> {
    fn env(&self) -> Option<LaunchEnv<'_>> {
        let (_, groups, scalars) = self.range.as_ref()?;
        Some(LaunchEnv {
            local: self.ndrange.local,
            groups: *groups,
            work_dim: self.ndrange.work_dim as u32,
            args: scalars,
            distinct_buffers: self.distinct_buffers,
        })
    }

    /// Whether the launch's work groups may run on several threads, and
    /// for a scheduling kernel the round-robin dequeue order its workers
    /// follow at every thread count, one included. Launches the gate
    /// rejects take neither.
    pub(crate) fn sharding(&self) -> (bool, Option<Tickets>) {
        let (Some((report, contract)), Some(env), Some((base, ..))) =
            (self.report, self.env(), &self.range)
        else {
            return (false, None);
        };
        if !*self
            .record
            .sharding
            .get_or_init(|| report.eligible_for_launch(&env))
        {
            return (false, None);
        }
        let tickets = contract.map(|c| Tickets {
            block: c.block,
            inst: c.inst,
            base: *base,
            chunk: i64::from(c.chunk),
            workers: self.ndrange.total_groups() as i64,
        });
        (true, tickets)
    }

    /// Whether the within-group proof lets each group's items run in
    /// lockstep.
    pub(crate) fn lockstep(&self) -> bool {
        *self.record.lockstep.get_or_init(|| {
            self.env().is_some_and(|env| {
                self.facts
                    .lockstep_report(self.module, self.kernel)
                    .is_some_and(|proof| proof.eligible_for_launch(&env))
            })
        })
    }
}

/// Whether the launch's buffer arguments are pairwise distinct.
fn distinct_buffers(args: &[ArgValue]) -> bool {
    let mut buffers: Vec<BufferId> = args
        .iter()
        .filter_map(|a| match a {
            ArgValue::Buffer(b) => Some(*b),
            _ => None,
        })
        .collect();
    buffers.sort_unstable();
    buffers.windows(2).all(|w| w[0] != w[1])
}

/// The kernel interpreter.
///
/// # Examples
///
/// ```
/// use kernel_ir::builder::FunctionBuilder;
/// use kernel_ir::interp::{ArgValue, DeviceMemory, Interpreter, NdRange};
/// use kernel_ir::ir::{FunctionKind, Module, WiBuiltin};
/// use kernel_ir::types::{AddressSpace, Type};
///
/// # fn main() -> Result<(), kernel_ir::error::InterpError> {
/// // kernel void iota(global i64* out) { out[gid] = gid; }
/// let mut b = FunctionBuilder::new("iota", FunctionKind::Kernel, Type::Void);
/// let out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::I64));
/// let gid = b.work_item(WiBuiltin::GlobalId, 0);
/// let p = b.gep(out, gid);
/// b.store(p, gid);
/// b.ret(None);
/// let mut m = Module::new();
/// m.insert_function(b.finish());
///
/// let mut mem = DeviceMemory::new();
/// let buf = mem.alloc(8 * 8);
/// Interpreter::new(&m).run_kernel(
///     &mut mem, "iota", NdRange::new_1d(8, 4), &[ArgValue::Buffer(buf)],
/// )?;
/// assert_eq!(mem.read_i64(buf), vec![0, 1, 2, 3, 4, 5, 6, 7]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Interpreter<'m> {
    pub(crate) module: &'m Module,
    pub(crate) config: InterpConfig,
    /// Facts passed in by [`with_facts`](Self::with_facts).
    given_facts: Option<&'m ModuleFacts>,
    /// Otherwise this interpreter's own facts for `module`, made on the
    /// first gate query.
    own_facts: OnceLock<ModuleFacts>,
    pub(crate) tier: crate::bytecode::ExecTier,
}

impl<'m> Interpreter<'m> {
    /// Interpreter over `module` with default configuration.
    pub fn new(module: &'m Module) -> Self {
        Self::with_config(module, InterpConfig::default())
    }

    /// Interpreter with an explicit configuration. Its gates read facts
    /// of `module` ([`ModuleFacts`]) that this interpreter makes on the
    /// first query and keeps: each kernel is analysed once per
    /// interpreter. [`with_facts`](Self::with_facts) shares a program's.
    pub fn with_config(module: &'m Module, config: InterpConfig) -> Self {
        Interpreter {
            module,
            config,
            given_facts: None,
            own_facts: OnceLock::new(),
            tier: crate::bytecode::ExecTier::BytecodeOpt,
        }
    }

    /// Interpreter whose gates read `facts`, which must have been computed
    /// from `module` (a stale cache would gate launches on the wrong
    /// verdicts).
    pub fn with_facts(module: &'m Module, facts: &'m ModuleFacts) -> Self {
        Interpreter {
            given_facts: Some(facts),
            ..Self::new(module)
        }
    }

    /// The analysis cache the gates read.
    pub(crate) fn facts(&self) -> &ModuleFacts {
        match self.given_facts {
            Some(facts) => facts,
            None => self.own_facts.get_or_init(|| ModuleFacts::new(self.module)),
        }
    }

    /// Replace the interpreter's configuration, keeping any analysis cache.
    pub fn set_config(&mut self, config: InterpConfig) {
        self.config = config;
    }

    /// Execute `kernel` over `ndrange` with `args`, mutating `mem`.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError`] on argument mismatches, out-of-bounds
    /// accesses, division by zero, barrier divergence, or exceeding the step
    /// limit.
    pub fn run_kernel(
        &self,
        mem: &mut DeviceMemory,
        kernel: &str,
        ndrange: NdRange,
        args: &[ArgValue],
    ) -> Result<DynStats, InterpError> {
        let setup = self.plan(mem, kernel, args)?;
        self.run_groups_seq(mem, &setup, ndrange, None)
    }

    /// Execute `kernel` sequentially while logging every global-memory
    /// access into a per-byte shadow map, and report all cross-group
    /// conflicts observed: plain write-write, mixed atomic/non-atomic
    /// writes, and reads of (or writes to) bytes another group touched.
    /// Contended all-atomic bytes are synchronized, not conflicting.
    ///
    /// This is the dynamic ground truth the static race analysis is
    /// differentially tested against: a launch the analysis admits for
    /// parallel execution must produce a clean oracle report.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_kernel`](Self::run_kernel).
    pub fn run_kernel_oracle(
        &self,
        mem: &mut DeviceMemory,
        kernel: &str,
        ndrange: NdRange,
        args: &[ArgValue],
    ) -> Result<(DynStats, OracleReport), InterpError> {
        let setup = self.plan(mem, kernel, args)?;
        let mut oracle = OracleState::new(mem);
        let stats = self.run_groups_seq(mem, &setup, ndrange, Some(&mut oracle))?;
        Ok((stats, oracle.report))
    }

    /// Whether `kernel` is statically eligible for cross-group parallel
    /// execution, independent of launch parameters: the race analysis
    /// proved every global write disjoint across work groups (`Safe`) or
    /// every contended access order-independently atomic
    /// (`SafeViaAtomics { deterministic: true }`). Kernels that fail this
    /// may still run in parallel for specific launches — see
    /// [`parallel_eligible`](Self::parallel_eligible).
    pub fn can_parallelize(&self, kernel: &str) -> bool {
        self.facts()
            .gate_report(self.module, kernel)
            .is_some_and(|(report, _)| report.eligible_static())
    }

    /// Launch-aware parallel-eligibility. Validates the static verdict's
    /// residual assumptions (unit dimensions, scalar-dependent strides,
    /// buffer distinctness) against the concrete `ndrange` and `args`,
    /// rescuing kernels whose disjointness could only be decided per
    /// launch: the gate
    /// [`run_kernel_bytecode`](Self::run_kernel_bytecode) shards by.
    ///
    /// For a scheduling kernel under a [`crate::ir::DequeueContract`] the
    /// gate checks the original kernel against the *virtual* range, whose
    /// group counts live in the descriptor buffer; without device memory
    /// this answers whether the launch is admitted for every virtual range
    /// of the hardware range's dimensionality (see
    /// [`crate::races::KernelRaceReport::eligible_for_any_groups`]), so it
    /// may say no to a launch the entry points admit;
    /// [`parallel_eligible_in`](Self::parallel_eligible_in) gives their
    /// exact answer.
    pub fn parallel_eligible(&self, kernel: &str, ndrange: NdRange, args: &[ArgValue]) -> bool {
        match self.facts().gate_report(self.module, kernel) {
            Some((report, Some(_))) => {
                report.eligible_for_any_groups(ndrange.work_dim as u32, distinct_buffers(args))
            }
            _ => self.gate(None, kernel, ndrange, args).sharding().0,
        }
    }

    /// The gate exactly as the sharding entry points apply it, reading a
    /// scheduling kernel's virtual range from its descriptor in `mem`:
    /// whether the launch's work groups may run on several threads (the
    /// round-robin dequeue order comes with it). Equal to
    /// [`parallel_eligible`](Self::parallel_eligible) for kernels without a
    /// [`crate::ir::DequeueContract`].
    pub fn parallel_eligible_in(
        &self,
        mem: &DeviceMemory,
        kernel: &str,
        ndrange: NdRange,
        args: &[ArgValue],
    ) -> bool {
        self.gate(Some(mem), kernel, ndrange, args).sharding().0
    }

    /// Whether [`run_kernel_bytecode`](Self::run_kernel_bytecode) runs the
    /// launch's work items in lockstep: each instruction dispatched once
    /// per group between barriers (see the
    /// [bytecode module docs](crate::bytecode)). The within-group proof
    /// ([`crate::races::lockstep_report`]) must hold for the launch's group
    /// shape and scalar arguments; a scheduling kernel's original kernel is
    /// checked against the virtual range read from its descriptor in
    /// `mem`. Independent of the thread count and of the cross-group gate.
    pub fn lockstep_eligible_in(
        &self,
        mem: &DeviceMemory,
        kernel: &str,
        ndrange: NdRange,
        args: &[ArgValue],
    ) -> bool {
        self.gate(Some(mem), kernel, ndrange, args).lockstep()
    }

    /// The per-launch gate: the kernel's analyses, for a scheduling
    /// kernel whose dequeue contract holds the virtual range read once
    /// from its descriptor in `mem` (none without memory), and the record
    /// of the launch's shape, found or made in one memo lookup.
    pub(crate) fn gate<'a>(
        &'a self,
        mem: Option<&DeviceMemory>,
        kernel: &'a str,
        ndrange: NdRange,
        args: &[ArgValue],
    ) -> LaunchGate<'a> {
        let facts = self.facts();
        let report = facts.gate_report(self.module, kernel);
        let contract = report.and_then(|(_, c)| c);
        let range = match contract {
            Some(c) => mem.and_then(|mem| virtual_range(mem, c, ndrange, args)),
            None => Some((0, ndrange.num_groups(), launch_scalars(args))),
        };
        let virtual_groups = contract.and(range.as_ref()).map(|(_, groups, _)| *groups);
        let key = ShapeKey::new(ndrange, args, virtual_groups);
        LaunchGate {
            facts,
            module: self.module,
            kernel,
            report,
            range,
            ndrange,
            distinct_buffers: distinct_buffers(args),
            record: facts.launch_record(kernel, key),
        }
    }

    /// Resolve the entry point, argument plan and local-memory layout.
    pub(crate) fn plan(
        &self,
        mem: &DeviceMemory,
        kernel: &str,
        args: &[ArgValue],
    ) -> Result<LaunchSetup<'_>, InterpError> {
        let (func_idx, func) = self
            .module
            .functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == kernel)
            .ok_or_else(|| InterpError::UnknownFunction(kernel.into()))?;
        if func.kind != FunctionKind::Kernel {
            return Err(InterpError::Invalid(format!("`{kernel}` is not a kernel")));
        }
        if func.params.len() != args.len() {
            return Err(InterpError::ArgMismatch(format!(
                "kernel `{kernel}` takes {} args, got {}",
                func.params.len(),
                args.len()
            )));
        }

        // Resolve arguments to runtime values; local args get arena offsets
        // assigned per work group (same layout every group).
        let mut arg_plan: Vec<ArgPlan> = Vec::with_capacity(args.len());
        let mut local_bytes = 0usize;
        for (i, (arg, param)) in args.iter().zip(&func.params).enumerate() {
            match (arg, &param.ty) {
                (
                    ArgValue::Buffer(b),
                    Type::Ptr {
                        space: AddressSpace::Global | AddressSpace::Constant,
                        ..
                    },
                ) => {
                    if b.0 as usize >= mem.buffers.len() {
                        return Err(InterpError::ArgMismatch(format!(
                            "argument {i}: unknown buffer {b:?}"
                        )));
                    }
                    arg_plan.push(ArgPlan::Value(Value::Ptr(PtrVal {
                        arena: Arena::Global(*b),
                        byte_off: 0,
                    })));
                }
                (
                    ArgValue::Local { elems },
                    Type::Ptr {
                        space: AddressSpace::Local,
                        elem,
                    },
                ) => {
                    let off = local_bytes;
                    local_bytes += interp_size(elem) * (*elems as usize);
                    arg_plan.push(ArgPlan::Value(Value::Ptr(PtrVal {
                        arena: Arena::Local,
                        byte_off: off as i64,
                    })));
                }
                (ArgValue::Scalar(v), ty) => {
                    let ok = matches!(
                        (v, ty),
                        (Value::Bool(_), Type::Bool)
                            | (Value::I32(_), Type::I32)
                            | (Value::I64(_), Type::I64)
                            | (Value::F32(_), Type::F32)
                            | (Value::F64(_), Type::F64)
                    );
                    if !ok {
                        return Err(InterpError::ArgMismatch(format!(
                            "argument {i} (`{}`): scalar {v:?} does not match {ty}",
                            param.name
                        )));
                    }
                    arg_plan.push(ArgPlan::Value(*v));
                }
                (a, ty) => {
                    return Err(InterpError::ArgMismatch(format!(
                        "argument {i} (`{}`): {a:?} does not match {ty}",
                        param.name
                    )));
                }
            }
        }

        // Pre-plan static local allocas of the kernel: one slot per alloca
        // instruction, shared by all work items of a group.
        let mut static_local: Vec<(BlockId, usize, usize)> = Vec::new(); // (block, ip, offset)
        for (bid, block) in func.iter_blocks() {
            for (ip, inst) in block.insts.iter().enumerate() {
                if let Op::Alloca {
                    elem,
                    count,
                    space: AddressSpace::Local,
                } = &inst.op
                {
                    static_local.push((bid, ip, local_bytes));
                    local_bytes += interp_size(elem) * (*count as usize);
                }
            }
        }
        if local_bytes > self.config.local_mem_capacity {
            return Err(InterpError::Invalid(format!(
                "work group needs {local_bytes} bytes of local memory, capacity is {}",
                self.config.local_mem_capacity
            )));
        }

        Ok(LaunchSetup {
            func_idx,
            func,
            arg_plan,
            static_local,
            local_bytes,
            private: self.facts().private_frames(self.module)?,
            tickets: None,
        })
    }

    /// Run every work group in flat order on the calling thread.
    pub(crate) fn run_groups_seq(
        &self,
        mem: &mut DeviceMemory,
        setup: &LaunchSetup<'_>,
        ndrange: NdRange,
        mut oracle: Option<&mut OracleState>,
    ) -> Result<DynStats, InterpError> {
        let gmem = GlobalMem::new(mem);
        run_groups_seq_sched(ndrange, |gid, scratch: &mut WgScratch, stats| {
            self.run_work_group(
                &gmem,
                setup,
                ndrange,
                gid,
                scratch,
                stats,
                oracle.as_deref_mut(),
            )
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn run_work_group(
        &self,
        gmem: &GlobalMem<'_>,
        setup: &LaunchSetup<'_>,
        ndrange: NdRange,
        group_id: [usize; 3],
        scratch: &mut WgScratch,
        stats: &mut DynStats,
        mut oracle: Option<&mut OracleState>,
    ) -> Result<u64, InterpError> {
        let LaunchSetup {
            func_idx,
            func,
            arg_plan,
            local_bytes,
            private,
            tickets,
            ..
        } = setup;
        let entry_frame = private.frame_bytes(*func_idx);
        let mut cursor = tickets.map(|t| t.worker(flat_index(ndrange.num_groups(), group_id)));
        let WgScratch { local, items, pool } = scratch;
        // Zero the shared arena (resize-from-empty reuses the allocation).
        local.clear();
        local.resize(*local_bytes, 0);
        let wg_size = ndrange.wg_size();
        items.truncate(wg_size);

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
                    let mut regs = pool.take(func.value_types.len());
                    for (i, plan) in arg_plan.iter().enumerate() {
                        let ArgPlan::Value(v) = plan;
                        regs[i] = Some(*v);
                    }
                    let root = Frame {
                        func_idx: *func_idx,
                        block: BlockId(0),
                        ip: 0,
                        regs,
                        ret_dst: None,
                        private_base: 0,
                    };
                    match items.get_mut(idx) {
                        Some(item) => {
                            // Recycle the previous group's state in place.
                            item.ctx = ctx;
                            item.status = WiStatus::Running;
                            item.steps = 0;
                            item.private.clear();
                            item.private.resize(entry_frame, 0);
                            while let Some(f) = item.frames.pop() {
                                pool.put(f.regs);
                            }
                            item.frames.push(root);
                        }
                        None => items.push(WorkItem {
                            ctx,
                            frames: vec![root],
                            private: vec![0; entry_frame],
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
                self.run_until_pause(
                    gmem,
                    local,
                    pool,
                    setup,
                    ndrange,
                    item,
                    stats,
                    &mut wg_insns,
                    oracle.as_deref_mut(),
                    cursor.as_mut(),
                )?;
            }
            // After run_until_pause every item is Done or AtBarrier.
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
            // All at barrier: release and continue.
        }
        Ok(wg_insns)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_until_pause(
        &self,
        gmem: &GlobalMem<'_>,
        local: &mut [u8],
        pool: &mut RegsPool,
        setup: &LaunchSetup<'_>,
        ndrange: NdRange,
        item: &mut WorkItem,
        stats: &mut DynStats,
        wg_insns: &mut u64,
        mut oracle: Option<&mut OracleState>,
        mut cursor: Option<&mut TicketCursor>,
    ) -> Result<(), InterpError> {
        // Flat group id for oracle attribution (same flat order as the
        // sequential group loop).
        let flat_group = flat_index(ndrange.num_groups(), item.ctx.group_id) as u32;
        loop {
            if item.frames.is_empty() {
                item.status = WiStatus::Done;
                return Ok(());
            }
            item.steps += 1;
            if item.steps > self.config.step_limit {
                return Err(InterpError::StepLimitExceeded(self.config.step_limit));
            }
            let frame = item.frames.last_mut().unwrap();
            let func = &self.module.functions[frame.func_idx];
            let block = &func.blocks[frame.block.index()];

            if frame.ip >= block.insts.len() {
                // Terminator.
                let Some(term) = block.term.as_ref() else {
                    return Err(InterpError::Invalid("unterminated block".into()));
                };
                match term {
                    Terminator::Br(b) => {
                        frame.block = *b;
                        frame.ip = 0;
                    }
                    Terminator::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        let c = get_reg(frame, *cond)?.as_bool()?;
                        frame.block = if c { *then_bb } else { *else_bb };
                        frame.ip = 0;
                    }
                    Terminator::Ret(v) => {
                        let rv = match v {
                            Some(v) => Some(get_reg(frame, *v)?),
                            None => None,
                        };
                        let ret_dst = frame.ret_dst;
                        if let Some(f) = item.frames.pop() {
                            item.private.truncate(f.private_base);
                            pool.put(f.regs);
                        }
                        if let (Some(dst), Some(val)) = (ret_dst, rv) {
                            if let Some(caller) = item.frames.last_mut() {
                                caller.regs[dst.index()] = Some(val);
                            }
                        }
                    }
                }
                continue;
            }

            let inst = &block.insts[frame.ip];
            *wg_insns += 1;
            // Static local slots and the dequeue site are coordinates in
            // the kernel entry function; a helper's match none of them.
            let here = (frame.func_idx, frame.block, frame.ip);
            frame.ip += 1;

            match &inst.op {
                Op::Const(c) => {
                    let v = match c {
                        ConstVal::Bool(b) => Value::Bool(*b),
                        ConstVal::I32(x) => Value::I32(*x),
                        ConstVal::I64(x) => Value::I64(*x),
                        ConstVal::F32(x) => Value::F32(*x),
                        ConstVal::F64(x) => Value::F64(*x),
                    };
                    set_result(item, inst.result, v);
                }
                Op::Bin(op, a, b) => {
                    let frame = item.frames.last().unwrap();
                    let va = get_reg(frame, *a)?;
                    let vb = get_reg(frame, *b)?;
                    let v = eval_bin(*op, va, vb)?;
                    set_result(item, inst.result, v);
                }
                Op::Un(op, a) => {
                    let frame = item.frames.last().unwrap();
                    let va = get_reg(frame, *a)?;
                    let v = eval_un(*op, va)?;
                    set_result(item, inst.result, v);
                }
                Op::Cmp(op, a, b) => {
                    let frame = item.frames.last().unwrap();
                    let va = get_reg(frame, *a)?;
                    let vb = get_reg(frame, *b)?;
                    let v = Value::Bool(eval_cmp(*op, va, vb)?);
                    set_result(item, inst.result, v);
                }
                Op::Select(c, a, b) => {
                    let frame = item.frames.last().unwrap();
                    let cond = get_reg(frame, *c)?.as_bool()?;
                    let v = if cond {
                        get_reg(frame, *a)?
                    } else {
                        get_reg(frame, *b)?
                    };
                    set_result(item, inst.result, v);
                }
                Op::Cast(ty, a) => {
                    let frame = item.frames.last().unwrap();
                    let va = get_reg(frame, *a)?;
                    let v = eval_cast(ty, va)?;
                    set_result(item, inst.result, v);
                }
                Op::Alloca { elem, count, space } => {
                    let bytes = interp_size(elem) * (*count as usize);
                    let ptr = match space {
                        AddressSpace::Private => {
                            // The site's fixed slot in this frame, zeroed
                            // afresh on every execution.
                            let frame = item.frames.last().unwrap();
                            let off =
                                frame.private_base + setup.private.offset(here.0, here.1, here.2);
                            item.private[off..off + bytes].fill(0);
                            PtrVal {
                                arena: Arena::Private,
                                byte_off: off as i64,
                            }
                        }
                        AddressSpace::Local => {
                            // Pre-planned shared slot.
                            let off = setup
                                .static_local
                                .iter()
                                .find(|&&(b, ip, _)| (setup.func_idx, b, ip) == here)
                                .map(|(_, _, off)| *off)
                                .ok_or_else(|| {
                                    InterpError::Invalid(
                                        "local alloca outside the kernel entry function".into(),
                                    )
                                })?;
                            PtrVal {
                                arena: Arena::Local,
                                byte_off: off as i64,
                            }
                        }
                        other => {
                            return Err(InterpError::Invalid(format!("alloca in {other}")));
                        }
                    };
                    set_result(item, inst.result, Value::Ptr(ptr));
                }
                Op::Load(p) => {
                    stats.mem_ops += 1;
                    let Some(result) = inst.result else {
                        return Err(InterpError::Invalid("load without a result".into()));
                    };
                    let frame = item.frames.last().unwrap();
                    let ptr = get_reg(frame, *p)?.as_ptr()?;
                    let ty = func.value_type(result).clone();
                    let size = interp_size(&ty);
                    let v = {
                        let bytes = self.arena_bytes(gmem, local, item, ptr, size)?;
                        decode_value(&ty, bytes)
                    };
                    if let (Some(o), Arena::Global(b)) = (oracle.as_deref_mut(), ptr.arena) {
                        o.record(b, ptr.byte_off, size, flat_group, false, false);
                    }
                    set_result(item, inst.result, v);
                }
                Op::Store { ptr, value } => {
                    stats.mem_ops += 1;
                    let frame = item.frames.last().unwrap();
                    let p = get_reg(frame, *ptr)?.as_ptr()?;
                    let v = get_reg(frame, *value)?;
                    let size = match v {
                        Value::Bool(_) => 1,
                        Value::I32(_) | Value::F32(_) => 4,
                        Value::I64(_) | Value::F64(_) => 8,
                        Value::Ptr(_) => 16,
                    };
                    let bytes = self.arena_bytes_mut(gmem, local, item, p, size)?;
                    encode_value(v, bytes);
                    if let (Some(o), Arena::Global(b)) = (oracle.as_deref_mut(), p.arena) {
                        o.record(b, p.byte_off, size, flat_group, true, false);
                    }
                }
                Op::Gep { ptr, index } => {
                    let frame = item.frames.last().unwrap();
                    let p = get_reg(frame, *ptr)?.as_ptr()?;
                    let idx = get_reg(frame, *index)?.as_i64()?;
                    let stride = interp_size(
                        func.value_type(*ptr)
                            .pointee()
                            .ok_or_else(|| InterpError::Invalid("gep on non-pointer".into()))?,
                    );
                    let v = Value::Ptr(PtrVal {
                        arena: p.arena,
                        byte_off: gep_offset(p.byte_off, idx, stride)?,
                    });
                    set_result(item, inst.result, v);
                }
                Op::Call { callee, args } => {
                    let (callee_idx, callee_fn) = self
                        .module
                        .functions
                        .iter()
                        .enumerate()
                        .find(|(_, f)| f.name == *callee)
                        .ok_or_else(|| InterpError::UnknownFunction(callee.clone()))?;
                    if callee_idx == setup.func_idx {
                        return Err(launched_kernel_call(callee));
                    }
                    // The kernel's frame is not a call.
                    if item.frames.len() > MAX_CALL_DEPTH {
                        return Err(InterpError::CallDepthExceeded(MAX_CALL_DEPTH));
                    }
                    let frame = item.frames.last().unwrap();
                    let mut regs = pool.take(callee_fn.value_types.len());
                    for (i, a) in args.iter().enumerate() {
                        regs[i] = Some(get_reg(frame, *a)?);
                    }
                    let private_base = item.private.len();
                    item.private
                        .resize(private_base + setup.private.frame_bytes(callee_idx), 0);
                    item.frames.push(Frame {
                        func_idx: callee_idx,
                        block: BlockId(0),
                        ip: 0,
                        regs,
                        ret_dst: inst.result,
                        private_base,
                    });
                }
                Op::WorkItem { builtin, dim } => {
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
                    set_result(item, inst.result, Value::I64(v as i64));
                }
                Op::AtomicRmw { op, ptr, value } => {
                    stats.atomic_ops += 1;
                    let frame = item.frames.last().unwrap();
                    let p = get_reg(frame, *ptr)?.as_ptr()?;
                    let v = get_reg(frame, *value)?;
                    let is64 = matches!(v, Value::I64(_));
                    let old = if let Arena::Global(b) = p.arena {
                        // Global memory may be contended by other work
                        // groups on other threads: use a true host atomic.
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
                                _ => {
                                    return Err(InterpError::Invalid("atomic operand type".into()))
                                }
                            };
                            let cell = gmem.atomic_u32(b, p.byte_off)?;
                            let prev = cell
                                .fetch_update(SeqCst, SeqCst, |cur| {
                                    Some(
                                        apply_atomic(*op, cur as i32 as i64, operand as i64) as i32
                                            as u32,
                                    )
                                })
                                .unwrap_or_else(|e| e);
                            Value::I32(prev as i32)
                        }
                    } else {
                        // Local/private arenas are group- or item-exclusive:
                        // a plain read-modify-write is already atomic.
                        let size = if is64 { 8 } else { 4 };
                        let bytes = self.arena_bytes_mut(gmem, local, item, p, size)?;
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
                                _ => {
                                    return Err(InterpError::Invalid("atomic operand type".into()))
                                }
                            };
                            let new = apply_atomic(*op, old as i64, operand as i64) as i32;
                            bytes[..4].copy_from_slice(&new.to_le_bytes());
                            Value::I32(old)
                        }
                    };
                    if let (Some(o), Arena::Global(b)) = (oracle.as_deref_mut(), p.arena) {
                        o.record(
                            b,
                            p.byte_off,
                            if is64 { 8 } else { 4 },
                            flat_group,
                            true,
                            true,
                        );
                    }
                    let old = match (setup.tickets, cursor.as_deref_mut()) {
                        (Some(t), Some(cursor)) if (setup.func_idx, t.block, t.inst) == here => {
                            cursor.take()
                        }
                        _ => old,
                    };
                    set_result(item, inst.result, old);
                }
                Op::AtomicCmpXchg {
                    ptr,
                    expected,
                    desired,
                } => {
                    stats.atomic_ops += 1;
                    let frame = item.frames.last().unwrap();
                    let p = get_reg(frame, *ptr)?.as_ptr()?;
                    let exp = get_reg(frame, *expected)?;
                    let des = get_reg(frame, *desired)?;
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
                        let bytes = self.arena_bytes_mut(gmem, local, item, p, size)?;
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
                    if let (Some(o), Arena::Global(b)) = (oracle.as_deref_mut(), p.arena) {
                        o.record(
                            b,
                            p.byte_off,
                            if is64 { 8 } else { 4 },
                            flat_group,
                            true,
                            true,
                        );
                    }
                    set_result(item, inst.result, old);
                }
                Op::Barrier => {
                    stats.barriers += 1;
                    item.status = WiStatus::AtBarrier;
                    return Ok(());
                }
            }
        }
    }

    fn arena_bytes<'a>(
        &self,
        gmem: &'a GlobalMem<'_>,
        local: &'a [u8],
        item: &'a WorkItem,
        p: PtrVal,
        size: usize,
    ) -> Result<&'a [u8], InterpError> {
        let (storage, what): (&[u8], &str) = match p.arena {
            Arena::Global(b) => return gmem.bytes(b, p.byte_off, size),
            Arena::Local => (local, "local memory"),
            Arena::Private => (&item.private, "private memory"),
        };
        bounds(storage.len(), p.byte_off, size, what)?;
        let off = p.byte_off as usize;
        Ok(&storage[off..off + size])
    }

    fn arena_bytes_mut<'a>(
        &self,
        gmem: &'a GlobalMem<'_>,
        local: &'a mut [u8],
        item: &'a mut WorkItem,
        p: PtrVal,
        size: usize,
    ) -> Result<&'a mut [u8], InterpError> {
        let (storage, what): (&mut [u8], &str) = match p.arena {
            Arena::Global(b) => return gmem.bytes_mut(b, p.byte_off, size),
            Arena::Local => (local, "local memory"),
            Arena::Private => (&mut item.private, "private memory"),
        };
        bounds(storage.len(), p.byte_off, size, what)?;
        let off = p.byte_off as usize;
        Ok(&mut storage[off..off + size])
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum ArgPlan {
    Value(Value),
}

/// Raw view of the device's global buffers used while a launch executes.
///
/// Built from one `&mut DeviceMemory` (so the view is exclusive for its
/// lifetime), it hands out byte ranges as raw-pointer slices instead of
/// reborrowing the `DeviceMemory` — which is what lets work-group shards
/// on different threads access *disjoint* ranges of the same buffer
/// without ever materializing aliased `&mut DeviceMemory`. Remaining
/// unsoundness is confined to kernels that actually race: concurrent
/// overlapping accesses are undefined behaviour under OpenCL's execution
/// model *and* here (the sequential interpreter remains the arbiter for
/// such kernels; the parallel entry point is gated on the global-atomics
/// analysis and documented accordingly).
pub(crate) struct GlobalMem<'a> {
    spans: Vec<(*mut u8, usize)>,
    _mem: std::marker::PhantomData<&'a mut DeviceMemory>,
}

unsafe impl Sync for GlobalMem<'_> {}

impl<'a> GlobalMem<'a> {
    pub(crate) fn new(mem: &'a mut DeviceMemory) -> Self {
        let spans = mem
            .buffers
            .iter_mut()
            .map(|b| {
                let len = b.len();
                (b.bytes_mut().as_mut_ptr(), len)
            })
            .collect();
        GlobalMem {
            spans,
            _mem: std::marker::PhantomData,
        }
    }

    /// Buffer `b`'s base pointer and length, for a caller that checks
    /// many offsets against one buffer with [`bounds`] (lockstep's
    /// group-uniform accesses) and keeps to this type's contract.
    #[inline]
    pub(crate) fn span(&self, b: BufferId) -> Result<(*mut u8, usize), InterpError> {
        self.spans
            .get(b.0 as usize)
            .copied()
            .ok_or_else(|| InterpError::Invalid(format!("dangling buffer {b:?}")))
    }

    #[inline]
    pub(crate) fn bytes(&self, b: BufferId, off: i64, size: usize) -> Result<&[u8], InterpError> {
        let (ptr, len) = self.span(b)?;
        bounds(len, off, size, "global buffer")?;
        // SAFETY: in bounds (checked above); the only concurrent writers
        // are other work groups of a race-free kernel, which touch
        // disjoint bytes (see the type-level comment).
        Ok(unsafe { std::slice::from_raw_parts(ptr.add(off as usize), size) })
    }

    #[allow(clippy::mut_from_ref)] // interior-mutability view; see type docs
    #[inline]
    pub(crate) fn bytes_mut(
        &self,
        b: BufferId,
        off: i64,
        size: usize,
    ) -> Result<&mut [u8], InterpError> {
        let (ptr, len) = self.span(b)?;
        bounds(len, off, size, "global buffer")?;
        // SAFETY: in bounds (checked above); the returned slice is used
        // transiently for one encode/read-modify-write, and disjointness
        // across threads is the race-free-kernel contract.
        Ok(unsafe { std::slice::from_raw_parts_mut(ptr.add(off as usize), size) })
    }

    /// Atomic view of a naturally aligned 4-byte word. Misaligned offsets
    /// are a deterministic error (raised identically by the sequential and
    /// parallel paths).
    pub(crate) fn atomic_u32(
        &self,
        b: BufferId,
        off: i64,
    ) -> Result<&std::sync::atomic::AtomicU32, InterpError> {
        let (ptr, len) = self.span(b)?;
        bounds(len, off, 4, "global buffer")?;
        if off % 4 != 0 {
            return Err(InterpError::Invalid(format!(
                "misaligned 4-byte atomic at global offset {off}"
            )));
        }
        // SAFETY: in bounds and 4-aligned (buffer bases are 8-aligned, see
        // `AlignedBuf`); all concurrent access to contended words goes
        // through these atomic views.
        Ok(unsafe { &*(ptr.add(off as usize) as *const std::sync::atomic::AtomicU32) })
    }

    /// Atomic view of a naturally aligned 8-byte word; see
    /// [`Self::atomic_u32`].
    pub(crate) fn atomic_u64(
        &self,
        b: BufferId,
        off: i64,
    ) -> Result<&std::sync::atomic::AtomicU64, InterpError> {
        let (ptr, len) = self.span(b)?;
        bounds(len, off, 8, "global buffer")?;
        if off % 8 != 0 {
            return Err(InterpError::Invalid(format!(
                "misaligned 8-byte atomic at global offset {off}"
            )));
        }
        // SAFETY: in bounds and 8-aligned; see `atomic_u32`.
        Ok(unsafe { &*(ptr.add(off as usize) as *const std::sync::atomic::AtomicU64) })
    }
}

/// Shared mutable base pointer of the stealing schedule's pre-sized
/// per-group stats buffer. Writes are disjoint by construction (each flat
/// index belongs to exactly one claimed range), which is what makes the
/// `Sync` claim sound.
struct SyncPtr<T>(*mut T);
unsafe impl<T: Send> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// Accessor, so closures capture the `Sync` wrapper rather than its
    /// raw pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Encode 3-D group coordinates as the flat group id [`flat_gid`] decodes.
pub(crate) fn flat_index(groups: [usize; 3], gid: [usize; 3]) -> usize {
    gid[0] + groups[0] * (gid[1] + groups[1] * gid[2])
}

/// Decode a flat group id into 3-D group coordinates: the stealing
/// schedule's inverse of [`flat_index`], so the flat ordering cannot drift
/// from the sequential `gz/gy/gx` loop that bit-identity rests on.
pub(crate) fn flat_gid(groups: [usize; 3], flat: usize) -> [usize; 3] {
    [
        flat % groups[0],
        (flat / groups[0]) % groups[1],
        flat / (groups[0] * groups[1]),
    ]
}

/// Run every work group in flat order on the calling thread, reusing one
/// scratch `S`. Generic over the per-group executor so the tree-walking
/// interpreter and the bytecode VM share one group loop (and therefore one
/// flat order and one stats-merge discipline).
pub(crate) fn run_groups_seq_sched<S, F>(
    ndrange: NdRange,
    mut run: F,
) -> Result<DynStats, InterpError>
where
    S: Default,
    F: FnMut([usize; 3], &mut S, &mut DynStats) -> Result<u64, InterpError>,
{
    let groups = ndrange.num_groups();
    let mut stats = DynStats {
        insns_per_wg: Vec::with_capacity(ndrange.total_groups()),
        ..DynStats::default()
    };
    let mut scratch = S::default();
    for gz in 0..groups[2] {
        for gy in 0..groups[1] {
            for gx in 0..groups[0] {
                let wg_insns = run([gx, gy, gz], &mut scratch, &mut stats)?;
                stats.insns_per_wg.push(wg_insns);
            }
        }
    }
    stats.total_insns = stats.insns_per_wg.iter().sum();
    Ok(stats)
}

/// The stealing work distribution, generic over the per-group
/// executor: each thread repeatedly claims the next [`steal_claim`]-sized
/// run of flat groups from an atomic cursor (tapering from
/// [`STEAL_RANGE`] toward single groups as the range space drains), so a
/// thread that drew cheap groups keeps working while another grinds
/// through expensive ones. Only called once the analysis has admitted the
/// launch for cross-group parallelism. The calling thread is one of the
/// `threads` workers and its parked helpers ([`pool`]) are the others.
///
/// Bit-identity with [`run_groups_seq_sched`]: every claimed range
/// `[lo, hi)` is owned by exactly one thread, which writes
/// `insns_per_wg[lo..hi]` directly into the pre-sized flat buffer (the
/// merge is the identity), and the scalar counters are order-independent
/// integer sums. `total_insns` is recomputed from the flat buffer exactly
/// like the sequential loop does.
pub(crate) fn run_groups_stealing_sched<S, F>(
    ndrange: NdRange,
    threads: usize,
    run: F,
) -> Result<DynStats, InterpError>
where
    S: Default,
    F: Fn([usize; 3], &mut S, &mut DynStats) -> Result<u64, InterpError> + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    let groups = ndrange.num_groups();
    let total = ndrange.total_groups();
    let mut insns_per_wg = vec![0u64; total];
    // One writer per flat index (ranges are claimed exactly once), so
    // disjoint raw-pointer writes into the pre-sized buffer are safe.
    let insns = SyncPtr(insns_per_wg.as_mut_ptr());
    let cursor = AtomicUsize::new(0);
    let parts = Mutex::new(Vec::with_capacity(threads));
    let worker = || {
        let mut scratch = S::default();
        let mut part = DynStats::default();
        loop {
            // Tapered claims need the size to depend on where the cursor
            // stands, so the claim is a CAS update rather than a
            // fixed-stride fetch_add; the size is a pure function of `lo`,
            // so recomputing it after the update returns yields the same
            // claim.
            let claimed = cursor.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |lo| {
                (lo < total).then(|| lo + steal_claim(total, threads, lo))
            });
            let Ok(lo) = claimed else {
                return Ok(part);
            };
            for flat in lo..(lo + steal_claim(total, threads, lo)).min(total) {
                let gid = flat_gid(groups, flat);
                match run(gid, &mut scratch, &mut part) {
                    // SAFETY: `flat` lies in a range this thread claimed
                    // exclusively; the buffer outlives the scope.
                    Ok(n) => unsafe { *insns.get().add(flat) = n },
                    Err(e) => return Err((flat, e)),
                }
            }
        }
    };
    pool::run(threads - 1, &|| {
        let part = worker();
        parts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(part);
    });
    let mut merged = DynStats::default();
    let mut first_err: Option<(usize, InterpError)> = None;
    for part in parts.into_inner().unwrap_or_else(PoisonError::into_inner) {
        match part {
            Ok(part) => {
                merged.mem_ops += part.mem_ops;
                merged.atomic_ops += part.atomic_ops;
                merged.barriers += part.barriers;
            }
            // Keep the error of the lowest-numbered failing group — the
            // one the sequential interpreter would have stopped at.
            Err((flat, e)) => {
                if first_err.as_ref().is_none_or(|(f, _)| flat < *f) {
                    first_err = Some((flat, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    merged.total_insns = insns_per_wg.iter().sum();
    merged.insns_per_wg = insns_per_wg;
    Ok(merged)
}

/// Worker threads for [`Interpreter::run_kernel_tiered`]:
/// `ACCELOS_INTERP_THREADS` if set, else the host-wide `ACCELOS_THREADS`
/// override (shared with the harness's sweep pool), else the host's
/// available parallelism.
pub fn default_interp_threads() -> usize {
    ["ACCELOS_INTERP_THREADS", "ACCELOS_THREADS"]
        .iter()
        .find_map(|var| {
            std::env::var(var)
                .ok()
                .map(|v| v.parse::<usize>().ok().filter(|&n| n > 0).unwrap_or(1))
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

#[inline]
pub(crate) fn bounds(
    storage_len: usize,
    off: i64,
    size: usize,
    what: &str,
) -> Result<(), InterpError> {
    if off < 0 || (off as usize) + size > storage_len {
        return Err(InterpError::OutOfBounds {
            what: what.into(),
            offset: off.max(0) as usize,
            size: storage_len,
        });
    }
    Ok(())
}

/// `byte_off + idx * stride`, the address a gep computes. An offset that
/// overflows `i64` is an error on both tiers (never a wrapped address).
#[inline]
pub(crate) fn gep_offset(byte_off: i64, idx: i64, stride: usize) -> Result<i64, InterpError> {
    idx.checked_mul(stride as i64)
        .and_then(|d| byte_off.checked_add(d))
        .ok_or_else(|| InterpError::Invalid("gep offset overflows i64".into()))
}

fn get_reg(frame: &Frame, v: ValueId) -> Result<Value, InterpError> {
    frame.regs[v.index()]
        .ok_or_else(|| InterpError::Invalid(format!("read of undefined value {v}")))
}

fn set_result(item: &mut WorkItem, result: Option<ValueId>, v: Value) {
    if let Some(r) = result {
        let frame = item.frames.last_mut().unwrap();
        frame.regs[r.index()] = Some(v);
    }
}

macro_rules! int_bin {
    ($name:ident, $t:ty) => {
        /// `x <op> y` on one integer width: wrapping arithmetic, an error
        /// only for a zero divisor.
        #[inline]
        pub(crate) fn $name(op: BinOp, x: $t, y: $t) -> Result<$t, InterpError> {
            use BinOp::*;
            Ok(match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div | Rem if y == 0 => return Err(InterpError::DivideByZero),
                Div => x.wrapping_div(y),
                Rem => x.wrapping_rem(y),
                And => x & y,
                Or => x | y,
                Xor => x ^ y,
                Shl => x.wrapping_shl(y as u32),
                Shr => x.wrapping_shr(y as u32),
                Min => x.min(y),
                Max => x.max(y),
            })
        }
    };
}

macro_rules! float_bin {
    ($name:ident, $t:ty) => {
        /// `x <op> y` on one float width; integer-only ops are an error.
        #[inline]
        pub(crate) fn $name(op: BinOp, x: $t, y: $t) -> Result<$t, InterpError> {
            use BinOp::*;
            Ok(match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
                Min => x.min(y),
                Max => x.max(y),
                other => {
                    return Err(InterpError::Invalid(format!(
                        "float op `{}` unsupported",
                        other.mnemonic()
                    )))
                }
            })
        }
    };
}

int_bin!(bin_i32, i32);
int_bin!(bin_i64, i64);
float_bin!(bin_f32, f32);
float_bin!(bin_f64, f64);

pub(crate) fn eval_bin(op: BinOp, a: Value, b: Value) -> Result<Value, InterpError> {
    Ok(match (a, b) {
        (Value::I32(x), Value::I32(y)) => Value::I32(bin_i32(op, x, y)?),
        (Value::I64(x), Value::I64(y)) => Value::I64(bin_i64(op, x, y)?),
        (Value::F32(x), Value::F32(y)) => Value::F32(bin_f32(op, x, y)?),
        (Value::F64(x), Value::F64(y)) => Value::F64(bin_f64(op, x, y)?),
        (a, b) => {
            return Err(InterpError::Invalid(format!(
                "binop on mismatched values {a:?} and {b:?}"
            )))
        }
    })
}

#[inline]
pub(crate) fn eval_un(op: UnOp, a: Value) -> Result<Value, InterpError> {
    Ok(match (op, a) {
        (UnOp::Neg, Value::I32(x)) => Value::I32(x.wrapping_neg()),
        (UnOp::Neg, Value::I64(x)) => Value::I64(x.wrapping_neg()),
        (UnOp::Neg, Value::F32(x)) => Value::F32(-x),
        (UnOp::Neg, Value::F64(x)) => Value::F64(-x),
        (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
        (UnOp::Abs, Value::I32(x)) => Value::I32(x.wrapping_abs()),
        (UnOp::Abs, Value::I64(x)) => Value::I64(x.wrapping_abs()),
        (UnOp::Abs, Value::F32(x)) => Value::F32(x.abs()),
        (UnOp::Abs, Value::F64(x)) => Value::F64(x.abs()),
        (UnOp::Sqrt, Value::F32(x)) => Value::F32(x.sqrt()),
        (UnOp::Sqrt, Value::F64(x)) => Value::F64(x.sqrt()),
        (UnOp::Exp, Value::F32(x)) => Value::F32(x.exp()),
        (UnOp::Exp, Value::F64(x)) => Value::F64(x.exp()),
        (UnOp::Log, Value::F32(x)) => Value::F32(x.ln()),
        (UnOp::Log, Value::F64(x)) => Value::F64(x.ln()),
        (UnOp::Sin, Value::F32(x)) => Value::F32(x.sin()),
        (UnOp::Sin, Value::F64(x)) => Value::F64(x.sin()),
        (UnOp::Cos, Value::F32(x)) => Value::F32(x.cos()),
        (UnOp::Cos, Value::F64(x)) => Value::F64(x.cos()),
        (UnOp::Floor, Value::F32(x)) => Value::F32(x.floor()),
        (UnOp::Floor, Value::F64(x)) => Value::F64(x.floor()),
        (UnOp::Ceil, Value::F32(x)) => Value::F32(x.ceil()),
        (UnOp::Ceil, Value::F64(x)) => Value::F64(x.ceil()),
        (op, a) => {
            return Err(InterpError::Invalid(format!(
                "unop {} on {a:?}",
                op.mnemonic()
            )))
        }
    })
}

pub(crate) fn eval_cmp(op: CmpOp, a: Value, b: Value) -> Result<bool, InterpError> {
    use std::cmp::Ordering;
    let ord = match (a, b) {
        (Value::I32(x), Value::I32(y)) => x.cmp(&y),
        (Value::I64(x), Value::I64(y)) => x.cmp(&y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(&y),
        (Value::F32(x), Value::F32(y)) => {
            return Ok(float_cmp(op, x.partial_cmp(&y)));
        }
        (Value::F64(x), Value::F64(y)) => {
            return Ok(float_cmp(op, x.partial_cmp(&y)));
        }
        (Value::Ptr(x), Value::Ptr(y)) => x.byte_off.cmp(&y.byte_off),
        (a, b) => {
            return Err(InterpError::Invalid(format!("cmp on {a:?} and {b:?}")));
        }
    };
    Ok(match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    })
}

fn float_cmp(op: CmpOp, ord: Option<std::cmp::Ordering>) -> bool {
    use std::cmp::Ordering;
    match (op, ord) {
        (_, None) => matches!(op, CmpOp::Ne), // NaN: only != is true
        (CmpOp::Eq, Some(o)) => o == Ordering::Equal,
        (CmpOp::Ne, Some(o)) => o != Ordering::Equal,
        (CmpOp::Lt, Some(o)) => o == Ordering::Less,
        (CmpOp::Le, Some(o)) => o != Ordering::Greater,
        (CmpOp::Gt, Some(o)) => o == Ordering::Greater,
        (CmpOp::Ge, Some(o)) => o != Ordering::Less,
    }
}

pub(crate) fn eval_cast(ty: &Type, v: Value) -> Result<Value, InterpError> {
    Ok(match (ty, v) {
        (Type::I32, Value::I32(x)) => Value::I32(x),
        (Type::I32, Value::I64(x)) => Value::I32(x as i32),
        (Type::I32, Value::F32(x)) => Value::I32(x as i32),
        (Type::I32, Value::F64(x)) => Value::I32(x as i32),
        (Type::I32, Value::Bool(b)) => Value::I32(b as i32),
        (Type::I64, Value::I32(x)) => Value::I64(x as i64),
        (Type::I64, Value::I64(x)) => Value::I64(x),
        (Type::I64, Value::F32(x)) => Value::I64(x as i64),
        (Type::I64, Value::F64(x)) => Value::I64(x as i64),
        (Type::I64, Value::Bool(b)) => Value::I64(b as i64),
        (Type::F32, Value::I32(x)) => Value::F32(x as f32),
        (Type::F32, Value::I64(x)) => Value::F32(x as f32),
        (Type::F32, Value::F32(x)) => Value::F32(x),
        (Type::F32, Value::F64(x)) => Value::F32(x as f32),
        (Type::F32, Value::Bool(b)) => Value::F32(b as i32 as f32),
        (Type::F64, Value::I32(x)) => Value::F64(x as f64),
        (Type::F64, Value::I64(x)) => Value::F64(x as f64),
        (Type::F64, Value::F32(x)) => Value::F64(x as f64),
        (Type::F64, Value::F64(x)) => Value::F64(x),
        (Type::F64, Value::Bool(b)) => Value::F64(b as i32 as f64),
        (Type::Ptr { .. }, Value::Ptr(p)) => Value::Ptr(p),
        (ty, v) => return Err(InterpError::Invalid(format!("cast {v:?} -> {ty}"))),
    })
}

pub(crate) fn apply_atomic(op: AtomicOp, old: i64, operand: i64) -> i64 {
    match op {
        AtomicOp::Add => old.wrapping_add(operand),
        AtomicOp::Sub => old.wrapping_sub(operand),
        AtomicOp::Min => old.min(operand),
        AtomicOp::Max => old.max(operand),
        AtomicOp::Xchg => operand,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ir::{AtomicOp, BinOp, CmpOp, FunctionKind, Module, WiBuiltin};
    use crate::types::{AddressSpace, Type};
    use crate::verify::assert_verifies;

    fn module_of(funcs: Vec<Function>) -> Module {
        let mut m = Module::new();
        for f in funcs {
            m.insert_function(f);
        }
        assert_verifies(&m);
        m
    }

    /// Run `kernel` on the bytecode VM's sharded path with `threads`
    /// threads (the gate decides whether it actually shards).
    fn run_sharded(
        m: &Module,
        mem: &mut DeviceMemory,
        kernel: &str,
        nd: NdRange,
        args: &[ArgValue],
        threads: usize,
    ) -> Result<DynStats, InterpError> {
        let interp = Interpreter::new(m);
        interp.run_kernel_bytecode(mem, kernel, nd, args, threads)
    }

    /// kernel void scale(global f32* buf, f32 k) { buf[gid] *= k; }
    fn scale_kernel() -> Module {
        let mut b = FunctionBuilder::new("scale", FunctionKind::Kernel, Type::Void);
        let buf = b.add_param("buf", Type::ptr(AddressSpace::Global, Type::F32));
        let k = b.add_param("k", Type::F32);
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let p = b.gep(buf, gid);
        let v = b.load(p);
        let d = b.bin(BinOp::Mul, v, k);
        b.store(p, d);
        b.ret(None);
        module_of(vec![b.finish()])
    }

    #[test]
    fn scales_a_buffer() {
        let m = scale_kernel();
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(4 * 8);
        mem.write_f32(buf, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let stats = Interpreter::new(&m)
            .run_kernel(
                &mut mem,
                "scale",
                NdRange::new_1d(8, 4),
                &[ArgValue::Buffer(buf), ArgValue::Scalar(Value::F32(3.0))],
            )
            .unwrap();
        assert_eq!(
            mem.read_f32(buf),
            vec![3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0, 24.0]
        );
        assert_eq!(stats.insns_per_wg.len(), 2);
        assert!(stats.total_insns > 0);
        assert_eq!(stats.mem_ops, 16); // 8 loads + 8 stores
    }

    /// Reduction with local memory + barriers:
    /// kernel void reduce(global i32* in, global i32* out, local i32* tmp)
    /// Each group sums its local slice tree-style and atomically adds to out[0].
    fn reduce_kernel() -> Module {
        let mut b = FunctionBuilder::new("reduce", FunctionKind::Kernel, Type::Void);
        let input = b.add_param("in", Type::ptr(AddressSpace::Global, Type::I32));
        let out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::I32));
        let tmp = b.add_param("tmp", Type::ptr(AddressSpace::Local, Type::I32));
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let lid = b.work_item(WiBuiltin::LocalId, 0);
        // tmp[lid] = in[gid]
        let pin = b.gep(input, gid);
        let v = b.load(pin);
        let pt = b.gep(tmp, lid);
        b.store(pt, v);
        b.barrier();
        // for (s = lsize/2; s > 0; s >>= 1) { if (lid < s) tmp[lid]+=tmp[lid+s]; barrier; }
        let lsize = b.work_item(WiBuiltin::LocalSize, 0);
        let two = b.const_i64(2);
        let s0 = b.bin(BinOp::Div, lsize, two);
        let scell = b.alloca(Type::I64, 1, AddressSpace::Private);
        b.store(scell, s0);
        let header = b.new_block();
        let body = b.new_block();
        let merge = b.new_block();
        let cont = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let s = b.load(scell);
        let zero = b.const_i64(0);
        let c = b.cmp(CmpOp::Gt, s, zero);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let is_low = b.cmp(CmpOp::Lt, lid, s);
        let addbb = b.new_block();
        b.cond_br(is_low, addbb, merge);
        b.switch_to(addbb);
        let pa = b.gep(tmp, lid);
        let hi = b.bin(BinOp::Add, lid, s);
        let pb = b.gep(tmp, hi);
        let va = b.load(pa);
        let vb = b.load(pb);
        let sum = b.bin(BinOp::Add, va, vb);
        b.store(pa, sum);
        b.br(merge);
        b.switch_to(merge);
        b.barrier();
        b.br(cont);
        b.switch_to(cont);
        let s2 = b.load(scell);
        let one = b.const_i64(1);
        let shifted = b.bin(BinOp::Shr, s2, one);
        b.store(scell, shifted);
        b.br(header);
        b.switch_to(exit);
        // if (lid == 0) atomic_add(out, tmp[0])
        let z = b.const_i64(0);
        let is_master = b.cmp(CmpOp::Eq, lid, z);
        let do_add = b.new_block();
        let done = b.new_block();
        b.cond_br(is_master, do_add, done);
        b.switch_to(do_add);
        let p0 = b.gep(tmp, z);
        let total = b.load(p0);
        let _ = b.atomic_rmw(AtomicOp::Add, out, total);
        b.br(done);
        b.switch_to(done);
        b.ret(None);
        module_of(vec![b.finish()])
    }

    #[test]
    fn reduction_with_barriers_and_atomics() {
        let m = reduce_kernel();
        let mut mem = DeviceMemory::new();
        let input = mem.alloc(4 * 64);
        let out = mem.alloc(4);
        let data: Vec<i32> = (1..=64).collect();
        mem.write_i32(input, &data);
        let stats = Interpreter::new(&m)
            .run_kernel(
                &mut mem,
                "reduce",
                NdRange::new_1d(64, 16),
                &[
                    ArgValue::Buffer(input),
                    ArgValue::Buffer(out),
                    ArgValue::Local { elems: 16 },
                ],
            )
            .unwrap();
        assert_eq!(mem.read_i32(out)[0], (1..=64).sum::<i32>());
        assert_eq!(stats.atomic_ops, 4); // one per group
        assert!(stats.barriers > 0);
    }

    #[test]
    fn static_local_alloca_is_shared() {
        // kernel: local i32 cell[1]; if (lid==0) cell[0]=42; barrier; out[gid]=cell[0];
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::I32));
        let cell = b.alloca(Type::I32, 1, AddressSpace::Local);
        let lid = b.work_item(WiBuiltin::LocalId, 0);
        let zero = b.const_i64(0);
        let is0 = b.cmp(CmpOp::Eq, lid, zero);
        let wr = b.new_block();
        let join = b.new_block();
        b.cond_br(is0, wr, join);
        b.switch_to(wr);
        let c42 = b.const_i32(42);
        b.store(cell, c42);
        b.br(join);
        b.switch_to(join);
        b.barrier();
        let v = b.load(cell);
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let p = b.gep(out, gid);
        b.store(p, v);
        b.ret(None);
        let m = module_of(vec![b.finish()]);
        let mut mem = DeviceMemory::new();
        let out_buf = mem.alloc(4 * 8);
        Interpreter::new(&m)
            .run_kernel(
                &mut mem,
                "k",
                NdRange::new_1d(8, 8),
                &[ArgValue::Buffer(out_buf)],
            )
            .unwrap();
        assert_eq!(mem.read_i32(out_buf), vec![42; 8]);
    }

    #[test]
    fn barrier_divergence_detected() {
        // if (lid == 0) barrier();   — divergent
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let lid = b.work_item(WiBuiltin::LocalId, 0);
        let zero = b.const_i64(0);
        let is0 = b.cmp(CmpOp::Eq, lid, zero);
        let t = b.new_block();
        let j = b.new_block();
        b.cond_br(is0, t, j);
        b.switch_to(t);
        b.barrier();
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        let m = module_of(vec![b.finish()]);
        let mut mem = DeviceMemory::new();
        let err = Interpreter::new(&m)
            .run_kernel(&mut mem, "k", NdRange::new_1d(4, 4), &[])
            .unwrap_err();
        assert!(matches!(err, InterpError::BarrierDivergence(_)), "{err}");
    }

    #[test]
    fn out_of_bounds_detected() {
        let m = scale_kernel();
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(4 * 4); // too small for 8 items
        let err = Interpreter::new(&m)
            .run_kernel(
                &mut mem,
                "scale",
                NdRange::new_1d(8, 4),
                &[ArgValue::Buffer(buf), ArgValue::Scalar(Value::F32(1.0))],
            )
            .unwrap_err();
        assert!(matches!(err, InterpError::OutOfBounds { .. }), "{err}");
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let mut b = FunctionBuilder::new("spin", FunctionKind::Kernel, Type::Void);
        let l = b.new_block();
        b.br(l);
        b.switch_to(l);
        let _ = b.const_i32(0);
        b.br(l);
        let m = module_of(vec![b.finish()]);
        let mut mem = DeviceMemory::new();
        let interp = Interpreter::with_config(
            &m,
            InterpConfig {
                step_limit: 1000,
                ..InterpConfig::default()
            },
        );
        let err = interp
            .run_kernel(&mut mem, "spin", NdRange::new_1d(1, 1), &[])
            .unwrap_err();
        assert!(matches!(err, InterpError::StepLimitExceeded(1000)));
    }

    #[test]
    fn helper_calls_work() {
        // helper f32 square(f32 x) { return x*x; }  kernel uses it.
        let mut h = FunctionBuilder::new("square", FunctionKind::Helper, Type::F32);
        let x = h.add_param("x", Type::F32);
        let xx = h.bin(BinOp::Mul, x, x);
        h.ret(Some(xx));

        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let buf = b.add_param("buf", Type::ptr(AddressSpace::Global, Type::F32));
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let p = b.gep(buf, gid);
        let v = b.load(p);
        let sq = b.call("square", vec![v], Type::F32).unwrap();
        b.store(p, sq);
        b.ret(None);
        let m = module_of(vec![h.finish(), b.finish()]);
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(4 * 4);
        mem.write_f32(buf, &[1.0, 2.0, 3.0, 4.0]);
        Interpreter::new(&m)
            .run_kernel(
                &mut mem,
                "k",
                NdRange::new_1d(4, 2),
                &[ArgValue::Buffer(buf)],
            )
            .unwrap();
        assert_eq!(mem.read_f32(buf), vec![1.0, 4.0, 9.0, 16.0]);
    }

    #[test]
    fn wrong_arg_kind_rejected() {
        let m = scale_kernel();
        let mut mem = DeviceMemory::new();
        let err = Interpreter::new(&m)
            .run_kernel(
                &mut mem,
                "scale",
                NdRange::new_1d(4, 4),
                &[
                    ArgValue::Scalar(Value::I32(0)),
                    ArgValue::Scalar(Value::F32(1.0)),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, InterpError::ArgMismatch(_)));
    }

    #[test]
    fn dyn_stats_imbalance() {
        let s = DynStats {
            insns_per_wg: vec![100, 100, 100, 100],
            ..DynStats::default()
        };
        assert!(s.wg_imbalance() < 1e-9);
        let s2 = DynStats {
            insns_per_wg: vec![10, 1000],
            ..DynStats::default()
        };
        assert!(s2.wg_imbalance() > 0.5);
        let s3 = DynStats::default();
        assert_eq!(s3.wg_imbalance(), 0.0);
    }

    #[test]
    fn ndrange_geometry() {
        let r = NdRange::new_2d([8, 4], [4, 2]);
        assert_eq!(r.num_groups(), [2, 2, 1]);
        assert_eq!(r.total_groups(), 4);
        assert_eq!(r.wg_size(), 8);
        assert_eq!(r.total_items(), 32);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn ndrange_rejects_indivisible() {
        let _ = NdRange::new_1d(10, 4);
    }

    #[test]
    fn parallel_matches_sequential_without_atomics() {
        let m = scale_kernel();
        let run = |parallel: bool| {
            let mut mem = DeviceMemory::new();
            let buf = mem.alloc(4 * 64);
            mem.write_f32(buf, &(0..64).map(|i| i as f32).collect::<Vec<_>>());
            let interp = Interpreter::new(&m);
            let args = [ArgValue::Buffer(buf), ArgValue::Scalar(Value::F32(2.5))];
            let nd = NdRange::new_1d(64, 4);
            let stats = if parallel {
                run_sharded(&m, &mut mem, "scale", nd, &args, 4).unwrap()
            } else {
                interp.run_kernel(&mut mem, "scale", nd, &args).unwrap()
            };
            (mem, stats)
        };
        let (mem_seq, stats_seq) = run(false);
        let (mem_par, stats_par) = run(true);
        assert_eq!(mem_seq, mem_par, "device memory must be byte-identical");
        assert_eq!(stats_seq, stats_par, "all DynStats counters must match");
        assert!(Interpreter::new(&m).can_parallelize("scale"));
    }

    #[test]
    fn stealing_matches_sequential() {
        // 64 groups whose cost grows with the group id (gid-dependent loop
        // trip counts, the shape of bfs's frontier) so stealing really
        // redistributes ranges — outputs must still be bit-identical.
        let mut b = FunctionBuilder::new("tri", FunctionKind::Kernel, Type::Void);
        let out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::I64));
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let cell = b.alloca(Type::I64, 1, AddressSpace::Private);
        let zero = b.const_i64(0);
        b.store(cell, zero);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let i = b.load(cell);
        let c = b.cmp(CmpOp::Lt, i, gid);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let one = b.const_i64(1);
        let next = b.bin(BinOp::Add, i, one);
        b.store(cell, next);
        b.br(header);
        b.switch_to(exit);
        let total = b.load(cell);
        let p = b.gep(out, gid);
        b.store(p, total);
        b.ret(None);
        let m = module_of(vec![b.finish()]);
        let run = |threads: Option<usize>| {
            let mut mem = DeviceMemory::new();
            let buf = mem.alloc(8 * 64);
            let interp = Interpreter::new(&m);
            let nd = NdRange::new_1d(64, 1);
            let args = [ArgValue::Buffer(buf)];
            let stats = match threads {
                None => interp.run_kernel(&mut mem, "tri", nd, &args).unwrap(),
                Some(t) => run_sharded(&m, &mut mem, "tri", nd, &args, t).unwrap(),
            };
            (mem, stats)
        };
        let seq = run(None);
        for threads in [2, 3, 4, 8] {
            let steal = run(Some(threads));
            assert_eq!(seq, steal, "stealing diverged at {threads} threads");
        }
        // The workload really is imbalanced (what stealing exists for).
        assert!(seq.1.wg_imbalance() > 0.5, "{}", seq.1.wg_imbalance());
    }

    #[test]
    fn steal_claims_taper_and_cover() {
        // Deep range spaces claim at the cap (the pre-taper behaviour);
        // tails and tiny launches taper toward single-group claims; and
        // for any (total, threads) the sequential claim walk covers
        // [0, total) exactly, never stalling and never growing as the
        // cursor advances.
        assert_eq!(steal_claim(10_000, 4, 0), STEAL_RANGE);
        assert_eq!(steal_claim(64, 1, 0), STEAL_RANGE);
        assert_eq!(steal_claim(9, 4, 0), 1);
        assert_eq!(steal_claim(0, 4, 0), 1);
        for total in 0..=128usize {
            for threads in 1..=9usize {
                let mut lo = 0usize;
                let mut prev = usize::MAX;
                while lo < total {
                    let c = steal_claim(total, threads, lo);
                    assert!((1..=STEAL_RANGE).contains(&c), "claim {c} at {lo}");
                    assert!(c <= prev, "claim grew from {prev} to {c} at {lo}");
                    prev = c;
                    lo += c;
                }
            }
        }
        // A 1–9-group launch on several threads never hands one thread
        // more than a taper-sized bite, so every thread can participate.
        for total in 1..=9usize {
            for threads in 2..=8usize {
                assert!(
                    steal_claim(total, threads, 0) <= 1.max(total / 2),
                    "{total} groups on {threads} threads monopolised"
                );
            }
        }
    }

    #[test]
    fn stealing_reports_the_lowest_failing_group() {
        // Group `gid` indexes out of bounds once gid >= 24: the stealing
        // schedule must report the same error the sequential interpreter
        // stops at (flat group 24, offset 96), not whichever thread
        // failed first — a later group's out-of-bounds carries a larger
        // offset, so rendered-message equality pins the selection.
        let m = scale_kernel();
        let run = |parallel: bool| -> InterpError {
            let mut mem = DeviceMemory::new();
            let buf = mem.alloc(4 * 24);
            let interp = Interpreter::new(&m);
            let nd = NdRange::new_1d(64, 1);
            let args = [ArgValue::Buffer(buf), ArgValue::Scalar(Value::F32(1.0))];
            if parallel {
                run_sharded(&m, &mut mem, "scale", nd, &args, 4)
            } else {
                interp.run_kernel(&mut mem, "scale", nd, &args)
            }
            .unwrap_err()
        };
        let seq = run(false);
        assert!(matches!(seq, InterpError::OutOfBounds { .. }), "{seq}");
        assert_eq!(
            format!("{}", run(true)),
            format!("{seq}"),
            "stealing must report the sequential interpreter's error"
        );
    }

    #[test]
    fn discarded_global_atomics_parallelize_deterministically() {
        // The reduce kernel's only contended access is an atomic_add whose
        // result is discarded — order-independent, so the race analysis
        // admits it for cross-group parallelism (the old global-atomics
        // gate forced it sequential).
        let m = reduce_kernel();
        assert!(
            Interpreter::new(&m).can_parallelize("reduce"),
            "order-independent global atomic_add must parallelize"
        );
        // `None` runs the sequential tree-walker.
        let run = |threads: Option<usize>| {
            let mut mem = DeviceMemory::new();
            let input = mem.alloc(4 * 64);
            let out = mem.alloc(4);
            mem.write_i32(input, &(1..=64).collect::<Vec<_>>());
            let nd = NdRange::new_1d(64, 16);
            let args = [
                ArgValue::Buffer(input),
                ArgValue::Buffer(out),
                ArgValue::Local { elems: 16 },
            ];
            let stats = match threads {
                None => Interpreter::new(&m).run_kernel(&mut mem, "reduce", nd, &args),
                Some(t) => run_sharded(&m, &mut mem, "reduce", nd, &args, t),
            }
            .unwrap();
            (mem.read_i32(out)[0], stats)
        };
        let (seq_sum, seq_stats) = run(None);
        assert_eq!(seq_sum, (1..=64).sum::<i32>());
        for threads in [1, 4] {
            let (par_sum, par_stats) = run(Some(threads));
            assert_eq!(par_sum, seq_sum);
            assert_eq!(
                seq_stats, par_stats,
                "deterministic contention must keep stats bit-identical"
            );
        }
    }

    #[test]
    fn used_atomic_results_fall_back_to_sequential() {
        // atomic_add whose old value lands in the output: order-dependent,
        // so the gate must refuse parallel execution — while the fallback
        // still runs the kernel correctly.
        let mut b = FunctionBuilder::new("rank", FunctionKind::Kernel, Type::Void);
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
        let m = module_of(vec![b.finish()]);
        let interp = Interpreter::new(&m);
        assert!(!interp.can_parallelize("rank"));
        let nd = NdRange::new_1d(16, 4);
        let mut mem = DeviceMemory::new();
        let ctr = mem.alloc(4);
        let out = mem.alloc(4 * 16);
        let args = [ArgValue::Buffer(ctr), ArgValue::Buffer(out)];
        assert!(!interp.parallel_eligible("rank", nd, &args));
        let mut seq_mem = mem.clone();
        let seq_stats = interp.run_kernel(&mut seq_mem, "rank", nd, &args).unwrap();
        let stats = run_sharded(&m, &mut mem, "rank", nd, &args, 4).unwrap();
        // Sequential fallback assigns ranks in flat group order.
        assert_eq!(mem.read_i32(out), (0..16).collect::<Vec<_>>());
        assert_eq!(mem.read_i32(ctr), vec![16]);
        assert_eq!((mem, stats), (seq_mem, seq_stats));
    }

    #[test]
    fn oracle_flags_racy_and_clears_safe_kernels() {
        // scale: every item touches its own element — clean oracle.
        let m = scale_kernel();
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(4 * 8);
        mem.write_f32(buf, &[1.0; 8]);
        let (stats, report) = Interpreter::new(&m)
            .run_kernel_oracle(
                &mut mem,
                "scale",
                NdRange::new_1d(8, 2),
                &[ArgValue::Buffer(buf), ArgValue::Scalar(Value::F32(2.0))],
            )
            .unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(stats.insns_per_wg.len(), 4);
        assert_eq!(mem.read_f32(buf), vec![2.0; 8]);

        // Every item plainly stores to element 0 — cross-group write-write.
        let mut b = FunctionBuilder::new("clobber", FunctionKind::Kernel, Type::Void);
        let out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::I32));
        let zero = b.const_i64(0);
        let p = b.gep(out, zero);
        let seven = b.const_i32(7);
        b.store(p, seven);
        b.ret(None);
        let m = module_of(vec![b.finish()]);
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(4);
        let (_, report) = Interpreter::new(&m)
            .run_kernel_oracle(
                &mut mem,
                "clobber",
                NdRange::new_1d(8, 2),
                &[ArgValue::Buffer(buf)],
            )
            .unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.conflicts[0].kind, OracleConflictKind::WriteWrite);
        assert_eq!(report.total, 4, "all four bytes of the cell conflict");

        // Contended atomic adds: synchronized, not a race.
        let mut b = FunctionBuilder::new("count", FunctionKind::Kernel, Type::Void);
        let out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::I32));
        let zero = b.const_i64(0);
        let p = b.gep(out, zero);
        let one = b.const_i32(1);
        let _ = b.atomic_rmw(AtomicOp::Add, p, one);
        b.ret(None);
        let m = module_of(vec![b.finish()]);
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(4);
        let (_, report) = Interpreter::new(&m)
            .run_kernel_oracle(
                &mut mem,
                "count",
                NdRange::new_1d(8, 2),
                &[ArgValue::Buffer(buf)],
            )
            .unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(mem.read_i32(buf), vec![8]);
    }

    #[test]
    fn oracle_flags_cross_group_read_after_write() {
        // Item gid reads element gid and writes element gid+1: group 0
        // writes element 4, which group 1 then reads.
        let mut b = FunctionBuilder::new("chain", FunctionKind::Kernel, Type::Void);
        let buf = b.add_param("buf", Type::ptr(AddressSpace::Global, Type::I32));
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let pr = b.gep(buf, gid);
        let v = b.load(pr);
        let one = b.const_i64(1);
        let next = b.bin(BinOp::Add, gid, one);
        let pw = b.gep(buf, next);
        let v32 = v; // already i32
        b.store(pw, v32);
        b.ret(None);
        let m = module_of(vec![b.finish()]);
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(4 * 9);
        let (_, report) = Interpreter::new(&m)
            .run_kernel_oracle(
                &mut mem,
                "chain",
                NdRange::new_1d(8, 4),
                &[ArgValue::Buffer(buf)],
            )
            .unwrap();
        assert!(!report.is_clean());
        assert!(report
            .conflicts
            .iter()
            .any(|c| c.kind == OracleConflictKind::ReadAfterForeignWrite));
    }

    #[test]
    fn misaligned_global_atomic_is_a_deterministic_error() {
        // Verified IR cannot produce a misaligned atomic (gep strides are
        // pointee sizes and atomics require integer pointees), so this
        // exercises the interpreter's defense-in-depth guard with a
        // deliberately unverified module: an atomic_add through a bool*
        // gep'd to byte offset 2.
        let mut b = FunctionBuilder::new("mis", FunctionKind::Kernel, Type::Void);
        let raw = b.add_param("raw", Type::ptr(AddressSpace::Global, Type::Bool));
        let two = b.const_i64(2);
        let p = b.gep(raw, two); // byte offset 2
        let one = b.const_i32(1);
        let _ = b.atomic_rmw(AtomicOp::Add, p, one);
        b.ret(None);
        let mut m = Module::new();
        m.insert_function(b.finish());
        let run = |threads: usize| {
            let mut mem = DeviceMemory::new();
            let buf = mem.alloc(8);
            let interp = Interpreter::new(&m);
            let nd = NdRange::new_1d(4, 2);
            let args = [ArgValue::Buffer(buf)];
            if threads == 0 {
                interp.run_kernel(&mut mem, "mis", nd, &args)
            } else {
                run_sharded(&m, &mut mem, "mis", nd, &args, threads)
            }
            .unwrap_err()
        };
        let seq = run(0);
        assert!(format!("{seq}").contains("misaligned"), "{seq}");
        assert_eq!(format!("{}", run(1)), format!("{seq}"));
        assert_eq!(format!("{}", run(4)), format!("{seq}"));
    }

    #[test]
    fn local_atomics_do_not_disqualify_parallelism() {
        // Atomic on a *local* pointer: safe under group-level parallelism.
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::I32));
        let cell = b.alloca(Type::I32, 1, AddressSpace::Local);
        let one = b.const_i32(1);
        let _ = b.atomic_rmw(AtomicOp::Add, cell, one);
        b.barrier();
        let v = b.load(cell);
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let p = b.gep(out, gid);
        b.store(p, v);
        b.ret(None);
        let m = module_of(vec![b.finish()]);
        assert!(Interpreter::new(&m).can_parallelize("k"));
        // `None` runs the sequential tree-walker.
        let run = |threads: Option<usize>| {
            let mut mem = DeviceMemory::new();
            let buf = mem.alloc(4 * 16);
            let nd = NdRange::new_1d(16, 4);
            let args = [ArgValue::Buffer(buf)];
            let stats = match threads {
                None => Interpreter::new(&m).run_kernel(&mut mem, "k", nd, &args),
                Some(t) => run_sharded(&m, &mut mem, "k", nd, &args, t),
            }
            .unwrap();
            (mem.read_i32(buf), stats)
        };
        let seq = run(None);
        assert_eq!(seq.0, vec![4; 16]);
        assert_eq!(run(Some(1)), seq);
        assert_eq!(run(Some(4)), seq);
    }

    #[test]
    fn scratch_reuse_is_invisible_across_groups() {
        // Local memory + private allocas + helper calls across many groups:
        // the recycled scratch must behave exactly like fresh state (zeroed
        // local arena, empty private arena, argument registers reset).
        let mut h = FunctionBuilder::new("twice", FunctionKind::Helper, Type::I32);
        let x = h.add_param("x", Type::I32);
        let two = h.const_i32(2);
        let xx = h.bin(BinOp::Mul, x, two);
        h.ret(Some(xx));

        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let out = b.add_param("out", Type::ptr(AddressSpace::Global, Type::I32));
        let lcell = b.alloca(Type::I32, 1, AddressSpace::Local);
        let pcell = b.alloca(Type::I32, 1, AddressSpace::Private);
        // Fresh local and private cells must read as zero in every group.
        let l0 = b.load(lcell);
        let p0 = b.load(pcell);
        let lid = b.work_item(WiBuiltin::LocalId, 0);
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let gid32 = b.cast(Type::I32, gid);
        let doubled = b.call("twice", vec![gid32], Type::I32).unwrap();
        let zero_sum = b.bin(BinOp::Add, l0, p0);
        let v = b.bin(BinOp::Add, doubled, zero_sum);
        let p = b.gep(out, gid);
        b.store(p, v);
        // Dirty the cells so reuse would be visible without re-zeroing.
        let seven = b.const_i32(7);
        b.store(lcell, seven);
        b.store(pcell, seven);
        let _ = b.cmp(CmpOp::Eq, lid, gid);
        b.ret(None);
        let m = module_of(vec![h.finish(), b.finish()]);
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(4 * 32);
        // One work item per group so the local cell is group-fresh by
        // construction — what is being exercised is scratch reuse *across*
        // the 32 groups.
        let stats = Interpreter::new(&m)
            .run_kernel(
                &mut mem,
                "k",
                NdRange::new_1d(32, 1),
                &[ArgValue::Buffer(buf)],
            )
            .unwrap();
        assert_eq!(
            mem.read_i32(buf),
            (0..32).map(|i| i * 2).collect::<Vec<_>>()
        );
        assert_eq!(stats.insns_per_wg.len(), 32);
        // Every group executes the same instruction count here.
        assert!(stats.insns_per_wg.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn pointer_roundtrip_through_memory() {
        // Store a pointer into a private cell and load it back.
        let mut b = FunctionBuilder::new("k", FunctionKind::Kernel, Type::Void);
        let buf = b.add_param("buf", Type::ptr(AddressSpace::Global, Type::I32));
        let pp = b.alloca(
            Type::ptr(AddressSpace::Global, Type::I32),
            1,
            AddressSpace::Private,
        );
        let gid = b.work_item(WiBuiltin::GlobalId, 0);
        let elt = b.gep(buf, gid);
        b.store(pp, elt);
        let elt2 = b.load(pp);
        let seven = b.const_i32(7);
        b.store(elt2, seven);
        b.ret(None);
        let m = module_of(vec![b.finish()]);
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(4 * 4);
        Interpreter::new(&m)
            .run_kernel(
                &mut mem,
                "k",
                NdRange::new_1d(4, 4),
                &[ArgValue::Buffer(buf)],
            )
            .unwrap();
        assert_eq!(mem.read_i32(buf), vec![7; 4]);
    }
}
