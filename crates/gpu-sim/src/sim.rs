//! The discrete-event accelerator simulator.
//!
//! # Model
//!
//! * Each compute unit (CU) owns a FIFO queue of machine work groups and a
//!   pool of resources (threads, local memory, registers, WG slots). Work
//!   groups are assigned to CU queues round-robin — the "hardwired
//!   heuristic" of the paper's §2.3 — and become resident when they reach
//!   the queue head and their resources fit. The assignment is decided at
//!   arrival, but a hardware launch's groups are materialised only as
//!   they start: each CU queue holds one *run* per launch (every
//!   `live`-th group from an offset), so arrival costs O(CUs) and the task
//!   table holds the resident and fault-migrated groups, not the launch.
//! * Resident work groups execute in parallel; a segment's duration is
//!   fixed when the segment starts, scaled by a two-resource contention
//!   snapshot. Each resident work group contributes `threads *
//!   mem_intensity` of memory demand and `threads * (1 - mem_intensity)`
//!   of compute demand; when aggregate demand exceeds the device's issue
//!   or bandwidth capacity ([`DeviceConfig::issue_capacity_frac`] /
//!   [`DeviceConfig::mem_capacity_frac`]), segments of the kernels bound
//!   on the oversubscribed resource stretch proportionally. This is what
//!   makes co-scheduling a compute-bound kernel with a memory-bound one
//!   profitable (the paper's throughput gains) while fixed-speed models
//!   would show none.
//! * Baseline serialization is **emergent**: a kernel with more work groups
//!   than the device has slots fills every CU queue ahead of later arrivals,
//!   so later kernels wait — nothing in this file special-cases kernel
//!   order.
//! * Persistent workers ([`LaunchPlan::PersistentDynamic`]) repeatedly
//!   dequeue chunks of virtual groups from their kernel's shared software
//!   queue. Dequeues have atomic semantics: the queue is a serial resource
//!   (`queue_free_at`), so short kernels with chunk size 1 feel the
//!   contention the paper's §6.4 adaptive scheduling exists to avoid.
//! * Elastic tenancy is symmetric: launches with
//!   [`KernelLaunch::max_workers`] **grow** into capacity freed by
//!   retirements, and scheduled [`ReclaimCmd`]s **shrink** a running
//!   launch's worker allotment mid-flight. Shrinking needs no hardware
//!   preemption because persistent workers only pick up work at chunk
//!   boundaries: capped workers drain their in-flight chunk, retire, and
//!   their freed slots go to whatever waits at the CU queue heads (a
//!   premium tenant's workers, say). The launch's remaining virtual groups
//!   continue at the reduced width, so no work is ever lost.
//! * A cap of **0** is a resumable full pause: every worker retires, the
//!   launch parks with its remaining virtual groups stranded, and a
//!   [`ResumeCmd`] anchored on another launch's retirement respawns
//!   workers for it (a resume event) — guaranteed wake-up where
//!   `rebalance`-driven regrowth needs a free slot on a CU with an empty
//!   queue, which a saturated device may never offer.
//! * Injected faults ([`crate::FaultPlan`]) reuse the same machinery: a
//!   failed CU's resident chunks roll back into a per-launch retry queue
//!   consumed ahead of fresh claims (every lost chunk re-executes exactly
//!   once), its workers migrate to surviving queue heads, and an aborted
//!   kernel tears down through the ordinary completion path so anchored
//!   resumes still fire. With no faults configured every one of these
//!   paths is dormant and runs are bit-identical to the pre-fault engine.

use crate::config::{DeviceConfig, WorkGroupReq};
use crate::fault::{FailureDomain, FaultEvent, FaultKind, FaultPlan};
use crate::launch::{KernelLaunch, LaunchId, LaunchPlan, ReclaimCmd, ResumeCmd};
use crate::report::{KernelReport, SimReport, TraceEvent, TraceKind};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Discrete-event simulator for one device executing a set of kernel
/// launches.
///
/// # Examples
///
/// ```
/// use gpu_sim::{DeviceConfig, KernelLaunch, LaunchPlan, Simulator, WorkGroupReq};
///
/// let mut sim = Simulator::new(DeviceConfig::test_tiny());
/// sim.add_launch(KernelLaunch {
///     name: "a".into(),
///     arrival: 0,
///     req: WorkGroupReq { threads: 64, local_mem: 0, regs_per_thread: 1 },
///     mem_intensity: 0.0,
///     plan: LaunchPlan::Hardware { wg_costs: vec![100; 8].into() },
///     max_workers: None,
/// });
/// let report = sim.run();
/// assert_eq!(report.kernels.len(), 1);
/// assert!(report.makespan > 0);
/// ```
#[derive(Debug)]
pub struct Simulator {
    config: DeviceConfig,
    launches: Vec<KernelLaunch>,
    reclaims: Vec<ReclaimCmd>,
    resumes: Vec<ResumeCmd>,
    faults: Vec<FaultEvent>,
    domains: Vec<FailureDomain>,
    collect_trace: bool,
    linear_placement: bool,
    health_blind: bool,
}

/// Counters of elastic-growth placement probes (see
/// [`Simulator::run_with_stats`]).
///
/// `rebalance` historically scanned every CU per growable launch per
/// retirement; the incremental ready-set index visits only CUs that
/// currently have a free work-group slot and an empty queue. These
/// counters make the difference observable: `cu_visits / attempts` is the
/// average number of CUs examined per placement attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementStats {
    /// Placement attempts: growable launches visited by `rebalance` with
    /// capacity left to grow into.
    pub attempts: u64,
    /// Candidate CUs examined across all attempts.
    pub cu_visits: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskKind {
    /// One hardware work group with a fixed cost.
    HardwareWg { cost: u64 },
    /// A persistent worker executing its statically assigned virtual
    /// groups one segment at a time (`next` indexes into the plan's
    /// assignment list).
    StaticWorker { next: usize },
    /// A persistent worker that dequeues dynamically.
    DynWorker,
}

/// One entry of a CU queue.
#[derive(Debug, Clone, Copy)]
enum Queued {
    /// A materialised task: a persistent worker, or a hardware work group
    /// displaced by a fault.
    Task(usize),
    /// Hardware work groups of one launch dealt to this CU at arrival and
    /// not yet started.
    Run(HwRun),
}

impl Queued {
    /// The launch whose work this entry holds.
    fn launch(self, tasks: &[Task]) -> usize {
        match self {
            Queued::Task(tid) => tasks[tid].launch,
            Queued::Run(run) => run.launch,
        }
    }
}

/// The hardware work groups `next, next + stride, ...` (`left` of them,
/// never 0) of `launch`, in the order they start on their CU.
#[derive(Debug, Clone, Copy)]
struct HwRun {
    launch: usize,
    next: usize,
    stride: usize,
    left: usize,
}

#[derive(Debug)]
struct Task {
    launch: usize,
    kind: TaskKind,
    cu: usize,
    /// Index of this task in `cus[cu].resident` while it is resident, so
    /// a completion or abort unlinks it without scanning the list. `u32`
    /// fits in the padding after `lost`, keeping `Task` at 80 bytes.
    rslot: u32,
    /// Index of this task among its launch's machine work groups, fixed at
    /// creation: the flat group id of a hardware work group (materialised
    /// from its run when it starts), the worker index of a persistent
    /// worker (avoids the O(tasks) rescans a positional lookup would need
    /// on every static-worker segment).
    wi: usize,
    /// Heap sequence number of this task's pending [`Event::PhaseDone`]
    /// (0 = none pending). A fault that tears the task down mid-segment
    /// resets it, voiding the stale event when it pops — the fault-plane
    /// equivalent of removing the event from the heap.
    phase_seq: u64,
    /// The virtual-group range the task is currently executing (one
    /// dequeued chunk, one static segment, or the hardware WG itself),
    /// cleared when the segment completes. This is what a fault rolls
    /// back and requeues.
    in_flight: Option<(usize, usize)>,
    /// A fault rolled back this task's in-flight segment; the next
    /// (re-)execution of that segment books it as retried work.
    lost: bool,
}

#[derive(Debug)]
struct Cu {
    free_threads: i64,
    free_local: i64,
    free_regs: i64,
    free_slots: i64,
    /// Waiting work in FIFO order: tasks, and hardware runs whose groups
    /// become tasks one at a time as they reach the head and fit.
    queue: VecDeque<Queued>,
    /// Tasks currently resident here (what a CU failure tears down).
    resident: Vec<usize>,
    /// Failed CUs reject placement and enqueues until repaired.
    failed: bool,
    /// Straggler window: segments starting before the deadline are
    /// stretched by the factor.
    slow: Option<(f64, u64)>,
}

#[derive(Debug)]
struct KernelRt {
    resident: u32,
    open_since: Option<u64>,
    busy_intervals: Vec<(u64, u64)>,
    first_start: Option<u64>,
    end: u64,
    tasks_left: usize,
    machine_wgs: usize,
    /// Dynamic queue state (PersistentDynamic only).
    next_vg: usize,
    queue_free_at: u64,
    /// Machine work groups created so far (initial + elastic growth).
    spawned: usize,
    /// Reclamation cap on live workers: a worker observing
    /// `tasks_left > worker_cap` at a chunk boundary retires early.
    /// `usize::MAX` until a [`ReclaimCmd`] applies (0 = full pause);
    /// elastic growth into genuinely free capacity lifts it back (see
    /// `rebalance`), as does a [`ResumeCmd`] firing.
    worker_cap: usize,
    /// Floor installed under `worker_cap` by fired [`ResumeCmd`]s: once
    /// the pressuring tenant has retired, a stale reclaim can no longer
    /// cap (or pause) this launch below its resumed width.
    resume_floor: usize,
    /// Preemption-latency chunk cap installed by a [`ReclaimCmd`] with
    /// [`ReclaimCmd::chunk`] set: dequeue chunks shrink to at most this
    /// many virtual groups so workers hit their (cap-enforcing) chunk
    /// boundaries sooner. `None` (the default) leaves the plan's chunk
    /// arithmetic untouched; a fired [`ResumeCmd`] clears it.
    chunk_cap: Option<usize>,
    /// Reclaim commands applied to this launch.
    preemptions: usize,
    /// Workers retired early by reclamation.
    reclaimed: usize,
    /// Reclaim commands that capped the launch at 0 (full pauses).
    pauses: usize,
    /// Resume commands fired for this launch.
    resumes: usize,
    /// Workers respawned by fired resume commands.
    resumed: usize,
    /// Work groups executed (hardware WGs or claimed virtual groups).
    executed: usize,
    /// In-flight virtual groups (or hardware work groups) lost to
    /// injected faults.
    chunks_lost: usize,
    /// Virtual groups re-executed after a fault lost their first run.
    retried: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival(usize),
    PhaseDone(usize),
    /// Apply the reclaim command at this index (workers drain lazily at
    /// their next chunk boundary; the event only moves the cap).
    Reclaim(usize),
    /// Apply the resume command at this index (scheduled when its anchor
    /// launch retires): lift the target's cap, install the resume floor,
    /// and respawn workers up to the resumed width.
    Resume(usize),
    /// Inject the fault at this index of the fault plan.
    Fault(usize),
    /// A failed CU comes back (scheduled by a
    /// [`crate::FaultKind::CuFailure`] with a repair time).
    Repair(usize),
}

/// One pending event, ordered by its packed `(time, seq)` key alone and
/// reversed so `BinaryHeap` (a max-heap) yields the earliest key first.
/// Sequence numbers are unique, so no two entries compare equal.
#[derive(Debug)]
struct QueueEntry {
    key: u128,
    ev: Event,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// The pending-event queue: a binary min-heap on `(time, seq)` with a
/// replace-top fast path. The run loop [`peek`](Self::peek)s the earliest
/// event and handles it while it is still the root; the first event the
/// handler [`push`](Self::push)es overwrites the root (one sift-down
/// instead of a pop plus a push), and [`finish`](Self::finish) pops the
/// root only if the handler pushed nothing. The pop order is the one a
/// pop-then-push queue gives because every key pushed while the root is
/// being handled is larger than the root's (`time >= now`, and `seq`
/// only grows) and no handler reads the queue.
#[derive(Debug, Default)]
struct EventQueue {
    heap: BinaryHeap<QueueEntry>,
    /// The root was handed out by `peek` and is not yet replaced or
    /// popped.
    spent: bool,
}

impl EventQueue {
    fn push(&mut self, time: u64, seq: u64, ev: Event) {
        let entry = QueueEntry {
            key: (time as u128) << 64 | seq as u128,
            ev,
        };
        if self.spent {
            self.spent = false;
            let mut root = self.heap.peek_mut().expect("a spent root exists");
            debug_assert!(entry.key > root.key, "event keys must grow");
            *root = entry;
        } else {
            self.heap.push(entry);
        }
    }

    /// The earliest pending event as `(time, seq, event)`; it stays in
    /// the queue until the next `push` replaces it or `finish` pops it.
    fn peek(&mut self) -> Option<(u64, u64, Event)> {
        debug_assert!(!self.spent, "finish the previous event first");
        let root = self.heap.peek()?;
        self.spent = true;
        Some(((root.key >> 64) as u64, root.key as u64, root.ev))
    }

    /// Retire the peeked event if no `push` replaced it.
    fn finish(&mut self) {
        if std::mem::take(&mut self.spent) {
            self.heap.pop();
        }
    }
}

/// A set of CU indices as a bitset: O(1) insert and remove, iteration in
/// ascending index order.
#[derive(Debug)]
struct CuSet {
    words: Vec<u64>,
}

impl CuSet {
    fn new(num_cus: usize) -> Self {
        CuSet {
            words: vec![0; num_cus.div_ceil(64)],
        }
    }

    fn insert(&mut self, cu: usize) {
        self.words[cu / 64] |= 1 << (cu % 64);
    }

    fn remove(&mut self, cu: usize) {
        self.words[cu / 64] &= !(1 << (cu % 64));
    }

    fn iter(&self) -> CuSetIter<'_> {
        CuSetIter {
            words: &self.words,
            base: 0,
            word: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Ascending iterator over a [`CuSet`].
#[derive(Debug, Clone)]
struct CuSetIter<'a> {
    words: &'a [u64],
    /// CU index of bit 0 of `word`.
    base: usize,
    /// Bits of the current word not yet yielded.
    word: u64,
}

impl Iterator for CuSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.base += 64;
            self.word = *self.words.get(self.base / 64)?;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

impl Simulator {
    /// Simulator for `config` with no launches yet.
    pub fn new(config: DeviceConfig) -> Self {
        Simulator {
            config,
            launches: Vec::new(),
            reclaims: Vec::new(),
            resumes: Vec::new(),
            faults: Vec::new(),
            domains: Vec::new(),
            collect_trace: false,
            linear_placement: false,
            health_blind: false,
        }
    }

    /// Enable timeline collection (off by default; traces can be large).
    pub fn with_trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }

    /// Configure the device's correlated-failure topology: the domain
    /// list a [`crate::FaultKind::DomainFailure`] indexes into. With no
    /// domain faults scheduled the configuration is inert — runs stay
    /// bit-identical to a domain-free simulator.
    pub fn with_domains(mut self, domains: Vec<FailureDomain>) -> Self {
        self.domains = domains;
        self
    }

    /// Disable fault-aware placement: retried chunks, migrated workers
    /// and resumed workers are placed round-robin/lowest-index with no
    /// regard for CU health history, exactly as the pre-health engine
    /// did. Zero-fault runs are identical either way (no CU ever turns
    /// suspect); this is a test oracle, so tests can check what health
    /// awareness buys under faults.
    pub fn with_blind_health(mut self) -> Self {
        self.health_blind = true;
        self
    }

    /// Force the historical linear CU scan for elastic-growth placement
    /// instead of the incremental ready-set index. Results are identical
    /// (debug builds assert it on every placement); this is a test
    /// oracle, so differential tests can compare the two.
    pub fn with_linear_placement(mut self) -> Self {
        self.linear_placement = true;
        self
    }

    /// Add a kernel launch; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a single work group of the launch can never fit on a
    /// compute unit of this device (it would deadlock the queue).
    pub fn add_launch(&mut self, launch: KernelLaunch) -> LaunchId {
        let c = &self.config;
        assert!(
            launch.req.threads <= c.threads_per_cu
                && launch.req.local_mem <= c.local_mem_per_cu
                && launch.req.regs_total() <= c.regs_per_cu,
            "work group of `{}` cannot fit on `{}`",
            launch.name,
            c.name
        );
        let id = LaunchId(self.launches.len() as u32);
        self.launches.push(launch);
        id
    }

    /// Schedule a mid-flight worker reclamation (see [`ReclaimCmd`]): at
    /// `cmd.at` the launch's live workers are capped at `cmd.workers`.
    /// Workers above the cap retire at their next chunk boundary; their
    /// in-flight chunks complete first, so reclamation never aborts work.
    /// A cap of 0 is a resumable **full pause**: every worker retires and
    /// the launch parks un-finished until a [`ResumeCmd`] (or elastic
    /// regrowth via [`KernelLaunch::max_workers`]) wakes it. Commands
    /// against launches without chunk boundaries
    /// ([`LaunchPlan::Hardware`] / [`LaunchPlan::PersistentStatic`]) are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if `cmd.launch` was not returned by
    /// [`Simulator::add_launch`] on this simulator.
    pub fn add_reclaim(&mut self, cmd: ReclaimCmd) {
        assert!(
            (cmd.launch.0 as usize) < self.launches.len(),
            "reclaim targets unknown launch {:?}",
            cmd.launch
        );
        self.reclaims.push(cmd);
    }

    /// Schedule a resumption (see [`ResumeCmd`]): when `cmd.after`
    /// retires, `cmd.launch` is restored to at least `cmd.workers` live
    /// workers — respawning workers if it was paused or shrunk below that
    /// width — and no later reclaim may cap it below `cmd.workers` again.
    /// Resumes against drained or non-dequeue launches are inert.
    ///
    /// # Panics
    ///
    /// Panics if either launch id was not returned by
    /// [`Simulator::add_launch`] on this simulator.
    pub fn add_resume(&mut self, cmd: ResumeCmd) {
        assert!(
            (cmd.launch.0 as usize) < self.launches.len(),
            "resume targets unknown launch {:?}",
            cmd.launch
        );
        assert!(
            (cmd.after.0 as usize) < self.launches.len(),
            "resume anchored on unknown launch {:?}",
            cmd.after
        );
        self.resumes.push(cmd);
    }

    /// Schedule one fault injection (see [`crate::FaultKind`] for the
    /// semantics of each kind). Fault targets are validated when the
    /// simulation starts, so faults may be added before their target
    /// launches.
    pub fn add_fault(&mut self, fault: FaultEvent) {
        self.faults.push(fault);
    }

    /// Schedule every injection of `plan`. An empty plan leaves the run
    /// bit-identical to a simulator that never heard of faults.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults.extend(plan.events);
        self
    }

    /// Run the simulation to completion.
    pub fn run(self) -> SimReport {
        self.run_with_stats().0
    }

    /// Run the simulation and also return the elastic-growth placement
    /// counters (see [`PlacementStats`]); [`Simulator::run`] discards
    /// them. The report is identical either way.
    pub fn run_with_stats(self) -> (SimReport, PlacementStats) {
        let mut engine = self.into_engine();
        engine.run_events();
        engine.into_report()
    }

    fn into_engine(self) -> Engine {
        Engine::new(
            self.config,
            self.launches,
            self.reclaims,
            self.resumes,
            self.faults,
            self.domains,
            self.collect_trace,
            self.linear_placement,
            self.health_blind,
        )
    }
}

struct Engine {
    config: DeviceConfig,
    launches: Vec<KernelLaunch>,
    reclaims: Vec<ReclaimCmd>,
    resumes: Vec<ResumeCmd>,
    faults: Vec<FaultEvent>,
    /// Resume-command indices keyed by anchor launch, so a retirement
    /// fires its resumes without scanning the whole command list.
    resumes_by_anchor: Vec<Vec<usize>>,
    /// Per-launch queue of virtual-group ranges lost to CU failures,
    /// consumed ahead of fresh claims by `schedule_dequeue` so every lost
    /// chunk re-executes exactly once.
    retry: Vec<VecDeque<(usize, usize)>>,
    /// Launches that have retired (reports `end` final). Drives the
    /// per-tenant scoping of [`ReclaimCmd::pressure`] and makes aborts of
    /// finished launches no-ops.
    retired: Vec<bool>,
    /// Launches killed by an injected [`FaultKind::KernelAbort`].
    aborted: Vec<bool>,
    /// Correlated-failure topology ([`Simulator::with_domains`]); a
    /// [`FaultKind::DomainFailure`] fails every member CU together.
    domains: Vec<FailureDomain>,
    /// Per-CU health memory: the CU is *suspect* (deprioritized by
    /// fault-aware placement) until this instant. Written only by
    /// repairable failures, so with no faults it stays all-zero and
    /// every placement decision is bit-identical to the health-blind
    /// engine.
    suspect_until: Vec<u64>,
    /// Ignore CU health in placement ([`Simulator::with_blind_health`]).
    health_blind: bool,
    /// Fault injections that fired.
    faults_injected: usize,
    collect_trace: bool,
    now: u64,
    seq: u64,
    /// Pending events keyed by (time, insertion sequence), with the
    /// replace-top fast path of [`EventQueue`]. Events are small `Copy`
    /// payloads stored inline — no side table to grow unboundedly or to
    /// indirect through on every pop.
    queue: EventQueue,
    cus: Vec<Cu>,
    /// Task slots, indexed by task id. A task's slot returns to
    /// `free_tasks` when it completes or is aborted, and the next task
    /// reuses it, so the table holds the resident and queued tasks, not
    /// every group a launch ever ran. A reused slot cannot match a stale
    /// [`Event::PhaseDone`]: sequence numbers are unique and never 0.
    tasks: Vec<Task>,
    free_tasks: Vec<usize>,
    kernels: Vec<KernelRt>,
    /// Launches eligible for elastic growth (precomputed so `rebalance`
    /// does not rescan every launch on every kernel retirement).
    growable: Vec<usize>,
    /// Incremental ready-set index: the CUs with at least one free
    /// work-group slot *and* an empty queue — the only CUs elastic-growth
    /// placement can use. Maintained by `refresh_ready` at every
    /// start/finish/arrival/resume transition, so `rebalance` visits
    /// candidates instead of scanning every CU per growable launch.
    /// [`CuSet`] iteration is ascending, which keeps the placement order
    /// identical to the historical linear scan.
    ready: CuSet,
    /// Elastic-growth placement probe counters (reported by
    /// [`Simulator::run_with_stats`]).
    placement: PlacementStats,
    /// Use the historical linear scan instead of the ready-set index.
    linear_placement: bool,
    rr_cursor: usize,
    /// Sum over resident work groups of `threads * mem_intensity`.
    resident_mem_load: f64,
    /// Sum over resident work groups of `threads * (1 - mem_intensity)`.
    resident_compute_load: f64,
    /// The device pressures `(rho_m, rho_c)` derived from the two loads
    /// above, computed on first use and cleared whenever a load changes.
    rho: Option<(f64, f64)>,
    trace: Vec<TraceEvent>,
}

impl Engine {
    #[allow(clippy::too_many_arguments)]
    fn new(
        config: DeviceConfig,
        launches: Vec<KernelLaunch>,
        reclaims: Vec<ReclaimCmd>,
        resumes: Vec<ResumeCmd>,
        faults: Vec<FaultEvent>,
        domains: Vec<FailureDomain>,
        collect_trace: bool,
        linear_placement: bool,
        health_blind: bool,
    ) -> Self {
        for d in &domains {
            for &cu in &d.cus {
                assert!(
                    cu < config.num_cus,
                    "failure domain `{}` names unknown CU {cu}",
                    d.name
                );
            }
        }
        for f in &faults {
            match f.kind {
                FaultKind::CuFailure { cu, .. } | FaultKind::Straggler { cu, .. } => {
                    assert!(cu < config.num_cus, "fault targets unknown CU {cu}");
                }
                FaultKind::DomainFailure { domain, .. } => assert!(
                    domain < domains.len(),
                    "fault targets unknown failure domain {domain}"
                ),
                FaultKind::KernelAbort { launch } => assert!(
                    (launch.0 as usize) < launches.len(),
                    "fault targets unknown launch {launch:?}"
                ),
            }
        }
        for r in &reclaims {
            if let Some(p) = r.pressure {
                assert!(
                    (p.0 as usize) < launches.len(),
                    "reclaim pressured by unknown launch {p:?}"
                );
            }
        }
        let cus: Vec<Cu> = (0..config.num_cus)
            .map(|_| Cu {
                free_threads: config.threads_per_cu as i64,
                free_local: config.local_mem_per_cu as i64,
                free_regs: config.regs_per_cu as i64,
                free_slots: config.wg_slots_per_cu as i64,
                queue: VecDeque::new(),
                resident: Vec::new(),
                failed: false,
                slow: None,
            })
            .collect();
        let kernels = launches
            .iter()
            .map(|l| KernelRt {
                resident: 0,
                open_since: None,
                busy_intervals: Vec::new(),
                first_start: None,
                end: l.arrival,
                tasks_left: l.plan.machine_wgs(),
                machine_wgs: l.plan.machine_wgs(),
                next_vg: 0,
                queue_free_at: 0,
                spawned: l.plan.machine_wgs(),
                worker_cap: usize::MAX,
                resume_floor: 0,
                chunk_cap: None,
                preemptions: 0,
                reclaimed: 0,
                pauses: 0,
                resumes: 0,
                resumed: 0,
                executed: 0,
                chunks_lost: 0,
                retried: 0,
            })
            .collect();
        let growable = launches
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                l.max_workers.is_some()
                    && matches!(
                        l.plan,
                        LaunchPlan::PersistentDynamic { .. } | LaunchPlan::PersistentGuided { .. }
                    )
            })
            .map(|(i, _)| i)
            .collect();
        let mut resumes_by_anchor = vec![Vec::new(); launches.len()];
        for (i, r) in resumes.iter().enumerate() {
            resumes_by_anchor[r.after.0 as usize].push(i);
        }
        // Every CU starts empty with all its slots free (unless the device
        // has none), so the ready set starts full.
        let mut ready = CuSet::new(config.num_cus);
        for c in (0..config.num_cus).filter(|&c| cus[c].free_slots >= 1) {
            ready.insert(c);
        }
        let num_launches = launches.len();
        let num_cus = config.num_cus;
        Engine {
            config,
            launches,
            reclaims,
            resumes,
            faults,
            resumes_by_anchor,
            retry: vec![VecDeque::new(); num_launches],
            retired: vec![false; num_launches],
            aborted: vec![false; num_launches],
            suspect_until: vec![0; num_cus],
            domains,
            health_blind,
            faults_injected: 0,
            collect_trace,
            now: 0,
            seq: 0,
            queue: EventQueue::default(),
            cus,
            tasks: Vec::new(),
            free_tasks: Vec::new(),
            kernels,
            growable,
            ready,
            placement: PlacementStats::default(),
            linear_placement,
            rr_cursor: 0,
            resident_mem_load: 0.0,
            resident_compute_load: 0.0,
            rho: None,
            trace: Vec::new(),
        }
    }

    fn schedule(&mut self, time: u64, ev: Event) {
        debug_assert!(time >= self.now, "event scheduled in the past");
        self.seq += 1;
        self.queue.push(time, self.seq, ev);
    }

    /// Schedule task `tid`'s next [`Event::PhaseDone`] and remember its
    /// sequence number, so a fault tearing the task down can void the
    /// event (the run loop drops a `PhaseDone` whose sequence no longer
    /// matches the task's).
    fn schedule_phase(&mut self, time: u64, tid: usize) {
        self.schedule(time, Event::PhaseDone(tid));
        self.tasks[tid].phase_seq = self.seq;
    }

    /// Put a task in a free slot and return its id.
    fn alloc_task(&mut self, task: Task) -> usize {
        match self.free_tasks.pop() {
            Some(tid) => {
                self.tasks[tid] = task;
                tid
            }
            None => {
                self.tasks.push(task);
                self.tasks.len() - 1
            }
        }
    }

    /// Append `entry` to CU `cu`'s queue.
    fn enqueue(&mut self, cu: usize, entry: Queued, touched: &mut CuSet) {
        self.cus[cu].queue.push_back(entry);
        self.refresh_ready(cu);
        touched.insert(cu);
    }

    fn run_events(&mut self) {
        for i in 0..self.launches.len() {
            self.schedule(self.launches[i].arrival, Event::Arrival(i));
        }
        for i in 0..self.reclaims.len() {
            self.schedule(self.reclaims[i].at, Event::Reclaim(i));
        }
        for i in 0..self.faults.len() {
            self.schedule(self.faults[i].at, Event::Fault(i));
        }
        while let Some((time, seq, ev)) = self.queue.peek() {
            self.now = time;
            match ev {
                Event::Arrival(l) => self.on_arrival(l),
                // A stale sequence number means a fault already tore the
                // task down (and rolled its in-flight work back): the
                // completion never happened.
                Event::PhaseDone(t) if self.tasks[t].phase_seq == seq => self.on_phase_done(t),
                Event::PhaseDone(_) => {}
                Event::Reclaim(i) => self.on_reclaim(i),
                Event::Resume(i) => self.on_resume(i),
                Event::Fault(i) => self.on_fault(i),
                Event::Repair(cu) => self.on_repair(cu),
            }
            self.queue.finish();
        }
    }

    fn into_report(self) -> (SimReport, PlacementStats) {
        let makespan = self.kernels.iter().map(|k| k.end).max().unwrap_or(0);
        let kernels = self
            .kernels
            .into_iter()
            .enumerate()
            .map(|(i, k)| KernelReport {
                id: LaunchId(i as u32),
                name: self.launches[i].name.clone(),
                arrival: self.launches[i].arrival,
                first_start: k.first_start,
                end: k.end,
                busy_intervals: k.busy_intervals,
                machine_wgs: k.machine_wgs,
                groups_executed: k.executed,
                preemptions: k.preemptions,
                reclaimed_workers: k.reclaimed,
                pauses: k.pauses,
                resumes: k.resumes,
                resumed_workers: k.resumed,
                chunks_lost: k.chunks_lost,
                groups_retried: k.retried,
                aborted: self.aborted[i],
            })
            .collect();
        (
            SimReport {
                kernels,
                makespan,
                trace: self.trace,
                faults_injected: self.faults_injected,
            },
            self.placement,
        )
    }

    /// Re-derive CU `cu`'s membership in the ready-set index after any
    /// transition that touched its queue or slots (task start/finish,
    /// arrival/resume enqueue). O(1), called O(1) times per transition —
    /// this is what keeps `rebalance` from rescanning the whole device.
    fn refresh_ready(&mut self, cu: usize) {
        let c = &self.cus[cu];
        if !c.failed && c.free_slots >= 1 && c.queue.is_empty() {
            self.ready.insert(cu);
        } else {
            self.ready.remove(cu);
        }
    }

    /// Whether `cu` can host one more worker of `req` right now — the
    /// historical linear-scan placement predicate, shared by both
    /// placement paths so they cannot drift apart. A failed CU never has
    /// room.
    fn cu_has_room(cu: &Cu, req: WorkGroupReq) -> bool {
        !cu.failed
            && cu.queue.is_empty()
            && (req.threads as i64) <= cu.free_threads
            && (req.local_mem as i64) <= cu.free_local
            && (req.regs_total() as i64) <= cu.free_regs
            && cu.free_slots >= 1
    }

    /// Whether CU `cu` is *suspect* right now: recently failed (its own
    /// failure or its domain's — it carries a health memory of one
    /// repair-duration past the repair), or inside an open straggler
    /// window. Suspect CUs still work; fault-aware placement just
    /// prefers CUs with no failure history when both have room. With no
    /// faults injected nothing is ever suspect, so every zero-fault
    /// decision is bit-identical to the health-blind engine.
    fn cu_suspect(&self, cu: usize) -> bool {
        if self.health_blind {
            return false;
        }
        self.now < self.suspect_until[cu]
            || matches!(self.cus[cu].slow, Some((_, until)) if self.now < until)
    }

    /// First CU of `order` with room for one more worker of `req`,
    /// preferring healthy CUs: suspect CUs are considered only when no
    /// healthy CU in the order has room. The second pass only runs when
    /// the first actually saw a suspect CU, so fault-free probe counts
    /// (and [`PlacementStats`]) are untouched.
    fn place_scan<I>(&self, mut order: I, req: WorkGroupReq, visits: &mut u64) -> Option<usize>
    where
        I: Iterator<Item = usize> + Clone,
    {
        let mut saw_suspect = false;
        let healthy = order.clone().find(|&c| {
            *visits += 1;
            if self.cu_suspect(c) {
                saw_suspect = true;
                return false;
            }
            Self::cu_has_room(&self.cus[c], req)
        });
        if healthy.is_some() || !saw_suspect {
            return healthy;
        }
        order.find(|&c| {
            *visits += 1;
            self.cu_suspect(c) && Self::cu_has_room(&self.cus[c], req)
        })
    }

    /// Lowest-indexed healthy CU with room for one more worker of `req`
    /// (suspect CUs only as a last resort — see `place_scan`): the
    /// ready-set index visits only CUs with a free slot and an empty
    /// queue (ascending, so the choice is identical to the linear scan —
    /// debug builds assert it), while `linear_placement` forces the
    /// historical full scan for benchmarks.
    fn find_placement(&mut self, req: WorkGroupReq) -> Option<usize> {
        let mut visits = 0u64;
        let found = if self.linear_placement {
            self.place_scan(0..self.cus.len(), req, &mut visits)
        } else {
            self.place_scan(self.ready.iter(), req, &mut visits)
        };
        self.placement.attempts += 1;
        self.placement.cu_visits += visits;
        #[cfg(debug_assertions)]
        if !self.linear_placement {
            let mut shadow = 0u64;
            let linear = self.place_scan(0..self.cus.len(), req, &mut shadow);
            debug_assert_eq!(
                found, linear,
                "ready-set placement diverged from the linear scan"
            );
        }
        found
    }

    fn on_arrival(&mut self, l: usize) {
        // A launch aborted before it ever arrived never materialises; it
        // still anchors resumes, like any other retirement.
        if self.aborted[l] {
            self.kernels[l].end = self.now;
            self.retired[l] = true;
            self.fire_resumes(l);
            return;
        }
        let n = self.launches[l].plan.machine_wgs();
        let mut touched = CuSet::new(self.config.num_cus);
        let kind = match &self.launches[l].plan {
            LaunchPlan::Hardware { .. } => None,
            LaunchPlan::PersistentDynamic { .. } | LaunchPlan::PersistentGuided { .. } => {
                Some(TaskKind::DynWorker)
            }
            LaunchPlan::PersistentStatic { .. } => Some(TaskKind::StaticWorker { next: 0 }),
        };
        match kind {
            None => self.deal_hardware_runs(l, n, &mut touched),
            Some(kind) => {
                for w in 0..n {
                    let cu = self.next_rr_cu();
                    let tid = self.alloc_task(Task {
                        launch: l,
                        kind,
                        cu,
                        rslot: 0,
                        wi: w,
                        phase_seq: 0,
                        in_flight: None,
                        lost: false,
                    });
                    self.enqueue(cu, Queued::Task(tid), &mut touched);
                }
            }
        }
        // A launch with zero machine work groups completes immediately
        // (and still anchors any resumes waiting on its retirement).
        if n == 0 {
            self.kernels[l].end = self.now;
            self.retired[l] = true;
            self.fire_resumes(l);
        }
        self.try_start_each(&touched);
    }

    /// Deal hardware launch `l`'s `n` work groups onto the CU queues
    /// as one run per live CU, in O(CUs): group `w` lands where the `w`-th
    /// of `n` calls of [`Engine::next_rr_cu`] would send it, and the cursor
    /// ends where those calls would leave it. The first `live` calls name
    /// the runs' CUs in ring order; after them the cursor sits just past a
    /// live CU, so every further `live` calls advance it by one whole
    /// ring, and the remainder is walked call by call. With every CU
    /// failed each call returns the nominal CU after a whole ring, so the
    /// launch parks there as one run.
    fn deal_hardware_runs(&mut self, l: usize, n: usize, touched: &mut CuSet) {
        if n == 0 {
            return;
        }
        let num_cus = self.config.num_cus;
        let live = self.cus.iter().filter(|c| !c.failed).count();
        if live == 0 {
            let cu = self.rr_cursor % num_cus;
            self.rr_cursor += n * num_cus;
            let run = HwRun {
                launch: l,
                next: 0,
                stride: 1,
                left: n,
            };
            self.enqueue(cu, Queued::Run(run), touched);
            return;
        }
        for next in 0..n.min(live) {
            let cu = self.next_rr_cu();
            let run = HwRun {
                launch: l,
                next,
                stride: live,
                left: (n - next).div_ceil(live),
            };
            self.enqueue(cu, Queued::Run(run), touched);
        }
        let rest = n.saturating_sub(live);
        self.rr_cursor += rest / live * num_cus;
        for _ in 0..rest % live {
            self.next_rr_cu();
        }
    }

    /// Next CU of the round-robin enqueue ring, skipping failed CUs (a
    /// failure just shrinks the ring). If every CU is failed the nominal
    /// next CU is returned anyway: work parks on a dead queue until the
    /// first repair adopts it (`on_repair`), or strands forever if no
    /// repair ever comes — exactly like an unresumed pause — rather than
    /// crashing.
    fn next_rr_cu(&mut self) -> usize {
        for _ in 0..self.config.num_cus {
            let cu = self.rr_cursor % self.config.num_cus;
            self.rr_cursor += 1;
            if !self.cus[cu].failed {
                return cu;
            }
        }
        self.rr_cursor % self.config.num_cus
    }

    /// [`Engine::next_rr_cu`] with fault-aware health: one pass of the
    /// ring skipping failed *and* suspect CUs; if no healthy CU exists
    /// the cursor rewinds and the plain failed-skipping ring decides
    /// (work must land somewhere). With no suspect CUs the pass accepts
    /// exactly the CUs `next_rr_cu` would, with identical cursor
    /// movement, so fault-free runs cannot tell the difference. Used
    /// where displaced work is re-placed: fault migrations and resumed
    /// workers.
    fn next_rr_cu_healthy(&mut self) -> usize {
        let start = self.rr_cursor;
        for _ in 0..self.config.num_cus {
            let cu = self.rr_cursor % self.config.num_cus;
            self.rr_cursor += 1;
            if !self.cus[cu].failed && !self.cu_suspect(cu) {
                return cu;
            }
        }
        self.rr_cursor = start;
        self.next_rr_cu()
    }

    /// `try_start` each touched CU in ascending index order. The
    /// ascending order is observable and determinism-critical: each
    /// started task snapshots the contention loads of its predecessors.
    /// Shared by arrivals, resumes, fault migrations and aborts.
    fn try_start_each(&mut self, touched: &CuSet) {
        for cu in touched.iter() {
            self.try_start(cu);
        }
    }

    /// Apply reclaim command `i`: move the launch's worker cap. Workers
    /// drain lazily — each one re-checks the cap at its next chunk
    /// boundary (`on_phase_done` / `schedule_dequeue`), so in-flight
    /// chunks always complete. A cap of 0 is a full pause (every worker
    /// retires; the launch parks until resumed), except that a fired
    /// [`ResumeCmd`] floors later caps at the resumed width — once the
    /// pressuring tenant is gone, a stale command cannot re-pause its
    /// victim. Launches without chunk boundaries ignore the command.
    fn on_reclaim(&mut self, i: usize) {
        let cmd = self.reclaims[i];
        let l = cmd.launch.0 as usize;
        if !matches!(
            self.launches[l].plan,
            LaunchPlan::PersistentDynamic { .. } | LaunchPlan::PersistentGuided { .. }
        ) {
            return;
        }
        // Per-tenant scoping: a command tagged with the tenant it makes
        // room for is void once that tenant has retired (or aborted) —
        // late delivery can't re-pause a victim for a ghost.
        if let Some(p) = cmd.pressure {
            if self.retired[p.0 as usize] {
                return;
            }
        }
        let k = &mut self.kernels[l];
        k.worker_cap = (cmd.workers as usize).max(k.resume_floor);
        k.preemptions += 1;
        // Preemption-latency knob: shrink the victim's dequeue chunks so
        // surviving workers reach the cap-enforcing boundary sooner.
        // Commands without the knob leave any installed cap in place.
        if let Some(c) = cmd.chunk {
            k.chunk_cap = Some((c as usize).max(1));
        }
        if k.worker_cap == 0 {
            k.pauses += 1;
        }
    }

    /// Schedule every resume anchored on launch `l`, which just retired.
    /// Resumes go through the event heap (at the retirement instant) so
    /// their ordering against simultaneous events is the deterministic
    /// insertion order, like every other state change.
    fn fire_resumes(&mut self, l: usize) {
        for j in 0..self.resumes_by_anchor[l].len() {
            let i = self.resumes_by_anchor[l][j];
            self.schedule(self.now, Event::Resume(i));
        }
    }

    /// Apply resume command `i` (its anchor tenant has retired): install
    /// the resume floor, lift the cap to at least the resumed width, and
    /// respawn workers — round-robin across CU queues, exactly like an
    /// arrival — until the launch has that many live again. Inert for
    /// drained launches and plans without chunk boundaries.
    fn on_resume(&mut self, i: usize) {
        let cmd = self.resumes[i];
        let l = cmd.launch.0 as usize;
        if !matches!(
            self.launches[l].plan,
            LaunchPlan::PersistentDynamic { .. } | LaunchPlan::PersistentGuided { .. }
        ) {
            return;
        }
        // An aborted launch is dead; the resume fires but respawns
        // nothing (mirrors the drained case).
        if self.aborted[l] {
            self.kernels[l].resumes += 1;
            return;
        }
        let drained = self.dyn_drained(l);
        let target = cmd.workers.max(1) as usize;
        {
            let k = &mut self.kernels[l];
            k.resumes += 1;
            k.resume_floor = k.resume_floor.max(target);
            if k.worker_cap < target {
                k.worker_cap = target;
            }
            // The pressure that wanted low reclaim latency has retired;
            // restore the plan's full chunk arithmetic.
            k.chunk_cap = None;
        }
        if drained {
            return;
        }
        let missing = target.saturating_sub(self.kernels[l].tasks_left);
        if missing == 0 {
            return;
        }
        let mut touched = CuSet::new(self.config.num_cus);
        for _ in 0..missing {
            let cu = self.next_rr_cu_healthy();
            let wi = self.kernels[l].spawned;
            let tid = self.alloc_task(Task {
                launch: l,
                kind: TaskKind::DynWorker,
                cu,
                rslot: 0,
                wi,
                phase_seq: 0,
                in_flight: None,
                lost: false,
            });
            let k = &mut self.kernels[l];
            k.spawned += 1;
            k.tasks_left += 1;
            k.machine_wgs += 1;
            k.resumed += 1;
            self.enqueue(cu, Queued::Task(tid), &mut touched);
            if self.collect_trace {
                self.trace.push(TraceEvent {
                    time: self.now,
                    launch: LaunchId(l as u32),
                    cu,
                    kind: TraceKind::Resume,
                });
            }
        }
        self.try_start_each(&touched);
    }

    /// Inject fault `i` of the plan.
    fn on_fault(&mut self, i: usize) {
        self.faults_injected += 1;
        match self.faults[i].kind {
            FaultKind::CuFailure { cu, repair_at } => self.fail_cu(cu, repair_at),
            FaultKind::Straggler { cu, factor, until } => {
                // The newest window wins; expiry is checked lazily at
                // segment start, so it needs no event of its own.
                self.cus[cu].slow = Some((factor, until));
            }
            FaultKind::DomainFailure { domain, repair_at } => self.fail_domain(domain, repair_at),
            FaultKind::KernelAbort { launch } => self.abort_launch(launch.0 as usize),
        }
    }

    /// A whole failure domain goes down (rack power loss): every member
    /// CU takes the exact CU-failure path at this instant, in ascending
    /// CU order (idempotent for already-failed members), all sharing one
    /// repair time. A *permanent* domain failure skips the member whose
    /// death would leave zero live CUs — capacity degrades, it never
    /// zeroes (the engine-level mirror of the
    /// [`FaultPlan::from_spec`] last-survivor guarantee).
    fn fail_domain(&mut self, domain: usize, repair_at: Option<u64>) {
        let mut members = self.domains[domain].cus.clone();
        members.sort_unstable();
        members.dedup();
        for cu in members {
            if repair_at.is_none()
                && !self.cus[cu].failed
                && self.cus.iter().filter(|c| !c.failed).count() <= 1
            {
                continue;
            }
            self.fail_cu(cu, repair_at);
        }
    }

    /// A failed CU comes back empty-handed: it re-enters placement, and
    /// elastic launches may grow into it immediately. It also adopts any
    /// work stranded on still-failed queues — a task or hardware run
    /// enqueued while every CU was dead parked on a nominal (dead) queue,
    /// and the first repair is its earliest legal start. Runs move whole.
    fn on_repair(&mut self, cu: usize) {
        self.cus[cu].failed = false;
        for other in 0..self.config.num_cus {
            if other == cu || !self.cus[other].failed {
                continue;
            }
            while let Some(entry) = self.cus[other].queue.pop_front() {
                if let Queued::Task(tid) = entry {
                    self.tasks[tid].cu = cu;
                }
                self.cus[cu].queue.push_back(entry);
            }
        }
        self.refresh_ready(cu);
        self.try_start(cu);
        self.rebalance();
    }

    /// A CU failed: drop it from placement, tear down its residents
    /// (their in-flight chunks roll back into the launch retry queues),
    /// and migrate the displaced tasks to surviving CUs — former
    /// residents at the queue *heads* (they were already running; they
    /// and their requeued chunks go first), queued tasks behind them,
    /// both round-robin across the survivors. Queued hardware runs are
    /// expanded into tasks first, in queue order, since their groups
    /// migrate one by one.
    fn fail_cu(&mut self, cu: usize, repair_at: Option<u64>) {
        if self.cus[cu].failed {
            return; // already dead; the injection found nothing to break
        }
        self.cus[cu].failed = true;
        self.ready.remove(cu);
        if let Some(t) = repair_at {
            let back = t.max(self.now);
            self.schedule(back, Event::Repair(cu));
            // Health memory: the CU stays *suspect* for one repair-
            // duration past its repair — fault-aware placement prefers
            // CUs with no recent failure history when both have room.
            self.suspect_until[cu] = back + (back - self.now);
        }
        let residents = std::mem::take(&mut self.cus[cu].resident);
        let mut queued = Vec::new();
        while !self.cus[cu].queue.is_empty() {
            queued.push(self.pop_group(cu));
        }
        for &tid in &residents {
            self.kill_resident(tid, cu, true);
        }
        let mut touched = CuSet::new(self.config.num_cus);
        for &tid in residents.iter().rev() {
            let dest = self.next_rr_cu_healthy();
            self.tasks[tid].cu = dest;
            self.cus[dest].queue.push_front(Queued::Task(tid));
            self.refresh_ready(dest);
            touched.insert(dest);
        }
        for tid in queued {
            let dest = self.next_rr_cu_healthy();
            self.tasks[tid].cu = dest;
            self.enqueue(dest, Queued::Task(tid), &mut touched);
        }
        self.try_start_each(&touched);
    }

    /// An injected abort kills launch `l` mid-flight: in-flight work
    /// rolls back (the report keeps the completed-group count), queued
    /// and resident workers are torn down, freed resources go to the CU
    /// queue heads, and resumes anchored on the launch still fire — an
    /// abort is a retirement, just not a voluntary one. Recovery (retry
    /// with backoff) belongs to the runtime above the simulator.
    fn abort_launch(&mut self, l: usize) {
        if self.aborted[l] || self.retired[l] {
            return;
        }
        self.aborted[l] = true;
        let mut touched = CuSet::new(self.config.num_cus);
        for cu in 0..self.config.num_cus {
            let before = self.cus[cu].queue.len();
            let (tasks, free) = (&self.tasks, &mut self.free_tasks);
            self.cus[cu].queue.retain(|&entry| {
                let keep = entry.launch(tasks) != l;
                if let (false, Queued::Task(tid)) = (keep, entry) {
                    free.push(tid);
                }
                keep
            });
            if self.cus[cu].queue.len() != before {
                self.refresh_ready(cu);
                touched.insert(cu);
            }
            let mine: Vec<usize> = self.cus[cu]
                .resident
                .iter()
                .copied()
                .filter(|&t| self.tasks[t].launch == l)
                .collect();
            for tid in mine {
                self.unlink_resident(cu, tid);
                self.kill_resident(tid, cu, false);
                self.free_tasks.push(tid);
                touched.insert(cu);
            }
        }
        self.retry[l].clear();
        let k = &mut self.kernels[l];
        k.tasks_left = 0;
        k.end = self.now;
        self.retired[l] = true;
        self.try_start_each(&touched);
        self.fire_resumes(l);
        self.rebalance();
    }

    /// Tear resident task `tid` down on CU `cu` at a fault instant:
    /// cancel its pending completion event, release its resources, and
    /// roll back whatever it had in flight. With `requeue` the lost
    /// range joins the launch's retry queue (CU failure — the work
    /// re-executes exactly once); without, the loss is final (abort).
    fn kill_resident(&mut self, tid: usize, cu: usize, requeue: bool) {
        let l = self.tasks[tid].launch;
        self.tasks[tid].phase_seq = 0; // void the pending PhaseDone
        let req = self.launches[l].req;
        {
            let c = &mut self.cus[cu];
            c.free_threads += req.threads as i64;
            c.free_local += req.local_mem as i64;
            c.free_regs += req.regs_total() as i64;
            c.free_slots += 1;
        }
        let mi = self.launches[l].mem_intensity;
        self.resident_mem_load -= req.threads as f64 * mi;
        self.resident_compute_load -= req.threads as f64 * (1.0 - mi);
        self.rho = None;
        // Number of virtual groups (or hardware work groups) rolled back,
        // so the loss counter stays in the same unit the retry path books.
        let lost = match self.tasks[tid].kind {
            // A hardware WG *is* its in-flight work.
            TaskKind::HardwareWg { .. } => {
                self.kernels[l].executed -= 1;
                self.tasks[tid].lost = requeue;
                1
            }
            TaskKind::StaticWorker { next } => match self.tasks[tid].in_flight.take() {
                Some(_) => {
                    // Mid-segment: step the cursor back so the migrated
                    // worker re-executes the lost segment.
                    self.kernels[l].executed -= 1;
                    self.tasks[tid].kind = TaskKind::StaticWorker { next: next - 1 };
                    self.tasks[tid].lost = requeue;
                    1
                }
                None => 0, // caught awaiting its retire check
            },
            TaskKind::DynWorker => match self.tasks[tid].in_flight.take() {
                Some((s, e)) => {
                    self.kernels[l].executed -= e - s;
                    if requeue {
                        self.retry[l].push_back((s, e));
                    }
                    e - s
                }
                None => 0,
            },
        };
        if lost > 0 {
            self.kernels[l].chunks_lost += lost;
            if self.collect_trace {
                // One event per lost virtual group: the trace carries the
                // same unit as `chunks_lost` and `groups_retried`.
                for _ in 0..lost {
                    self.trace.push(TraceEvent {
                        time: self.now,
                        launch: LaunchId(l as u32),
                        cu,
                        kind: TraceKind::Fault,
                    });
                }
            }
        }
        let k = &mut self.kernels[l];
        k.resident -= 1;
        if k.resident == 0 {
            let open = k.open_since.take().expect("interval was open");
            k.busy_intervals.push((open, self.now));
        }
        if self.collect_trace {
            self.trace.push(TraceEvent {
                time: self.now,
                launch: LaunchId(l as u32),
                cu,
                kind: TraceKind::WgEnd,
            });
        }
    }

    /// Remove resident task `tid` from CU `cu`'s resident list in O(1):
    /// `swap_remove` at its slot, then re-point the task moved into it.
    fn unlink_resident(&mut self, cu: usize, tid: usize) {
        let slot = self.tasks[tid].rslot as usize;
        let resident = &mut self.cus[cu].resident;
        debug_assert_eq!(resident[slot], tid, "resident slot out of date");
        resident.swap_remove(slot);
        if let Some(&moved) = resident.get(slot) {
            self.tasks[moved].rslot = slot as u32;
        }
    }

    /// Whether a work group of launch `l` fits on CU `cu` right now.
    fn fits(&self, cu: usize, l: usize) -> bool {
        let req = self.launches[l].req;
        let c = &self.cus[cu];
        !c.failed
            && (req.threads as i64) <= c.free_threads
            && (req.local_mem as i64) <= c.free_local
            && (req.regs_total() as i64) <= c.free_regs
            && c.free_slots >= 1
    }

    /// Whether dynamic launch `l`'s work is fully claimed: the fresh
    /// queue is exhausted *and* no fault-lost ranges await re-execution.
    /// True (vacuously) for plans without a dynamic queue.
    fn dyn_drained(&self, l: usize) -> bool {
        match &self.launches[l].plan {
            LaunchPlan::PersistentDynamic { vg_costs, .. }
            | LaunchPlan::PersistentGuided { vg_costs, .. } => {
                self.kernels[l].next_vg >= vg_costs.len() && self.retry[l].is_empty()
            }
            _ => true,
        }
    }

    /// Contention factor for a kernel with memory share `m`: the weighted
    /// pressure of the two device resources, never below 1 (nominal
    /// speed). A snapshot taken at segment start.
    fn contention_factor(&mut self, mem_intensity: f64) -> f64 {
        let (rho_m, rho_c) = match self.rho {
            Some(rho) => rho,
            None => {
                let t = self.config.total_threads() as f64;
                let rho_m = self.resident_mem_load / (self.config.mem_capacity_frac * t);
                let rho_c = self.resident_compute_load / (self.config.issue_capacity_frac * t);
                *self.rho.insert((rho_m, rho_c))
            }
        };
        (mem_intensity * rho_m + (1.0 - mem_intensity) * rho_c).max(1.0)
    }

    fn scaled(&mut self, cost: u64, launch: usize) -> u64 {
        let m = self.launches[launch].mem_intensity;
        (cost as f64 * self.contention_factor(m)).round() as u64
    }

    /// Stretch `cost` by CU `cu`'s straggler factor if a slowdown window
    /// is open at segment start. The no-window path performs no float
    /// arithmetic at all, keeping fault-free runs bit-identical.
    fn straggled(&self, cost: u64, cu: usize) -> u64 {
        match self.cus[cu].slow {
            Some((factor, until)) if self.now < until => (cost as f64 * factor).round() as u64,
            _ => cost,
        }
    }

    fn try_start(&mut self, cu: usize) {
        while let Some(&entry) = self.cus[cu].queue.front() {
            if !self.fits(cu, entry.launch(&self.tasks)) {
                break;
            }
            let tid = self.pop_group(cu);
            self.start_task(cu, tid);
        }
        self.refresh_ready(cu);
    }

    /// Pop the work group at the head of CU `cu`'s (non-empty) queue as a
    /// task: a queued task as it is, or a hardware run's next group,
    /// materialised into a free task slot.
    fn pop_group(&mut self, cu: usize) -> usize {
        let queue = &mut self.cus[cu].queue;
        let run = match queue.front_mut().expect("queue is not empty") {
            Queued::Task(tid) => {
                let tid = *tid;
                queue.pop_front();
                return tid;
            }
            Queued::Run(run) => {
                let taken = *run;
                run.next += run.stride;
                run.left -= 1;
                if run.left == 0 {
                    queue.pop_front();
                }
                taken
            }
        };
        let LaunchPlan::Hardware { wg_costs } = &self.launches[run.launch].plan else {
            unreachable!("runs only hold hardware work groups");
        };
        let cost = wg_costs[run.next];
        self.alloc_task(Task {
            launch: run.launch,
            kind: TaskKind::HardwareWg { cost },
            cu,
            rslot: 0,
            wi: run.next,
            phase_seq: 0,
            in_flight: None,
            lost: false,
        })
    }

    fn start_task(&mut self, cu: usize, tid: usize) {
        let l = self.tasks[tid].launch;
        let req = self.launches[l].req;
        {
            let c = &mut self.cus[cu];
            c.free_threads -= req.threads as i64;
            c.free_local -= req.local_mem as i64;
            c.free_regs -= req.regs_total() as i64;
            c.free_slots -= 1;
        }
        let mi = self.launches[l].mem_intensity;
        self.resident_mem_load += req.threads as f64 * mi;
        self.resident_compute_load += req.threads as f64 * (1.0 - mi);
        self.rho = None;
        let k = &mut self.kernels[l];
        k.first_start.get_or_insert(self.now);
        if k.resident == 0 {
            k.open_since = Some(self.now);
        }
        k.resident += 1;
        self.tasks[tid].rslot = self.cus[cu].resident.len() as u32;
        self.cus[cu].resident.push(tid);
        if self.collect_trace {
            self.trace.push(TraceEvent {
                time: self.now,
                launch: LaunchId(l as u32),
                cu,
                kind: TraceKind::WgStart,
            });
        }

        self.refresh_ready(cu);
        let dispatch = self.config.wg_dispatch_overhead;
        match self.tasks[tid].kind {
            TaskKind::HardwareWg { cost } => {
                self.kernels[l].executed += 1;
                // A hardware WG restarting after a fault rolled it back is
                // the retry of its own lost work.
                if self.tasks[tid].lost {
                    self.tasks[tid].lost = false;
                    self.kernels[l].retried += 1;
                }
                let scaled = self.scaled(cost, l);
                let d = dispatch + self.straggled(scaled, cu);
                self.schedule_phase(self.now + d, tid);
            }
            TaskKind::StaticWorker { .. } => {
                self.schedule_static_segment(tid, self.now + dispatch);
            }
            TaskKind::DynWorker => {
                let ready_at = self.now + dispatch;
                self.schedule_dequeue(tid, ready_at);
            }
        }
    }

    /// Static worker `tid` starts its next assigned virtual group at
    /// `ready_at` (or retires if its slice is exhausted).
    fn schedule_static_segment(&mut self, tid: usize, ready_at: u64) {
        let l = self.tasks[tid].launch;
        let w = self.tasks[tid].wi;
        let TaskKind::StaticWorker { next } = self.tasks[tid].kind else {
            unreachable!("static segments only for static workers");
        };
        let LaunchPlan::PersistentStatic {
            assignments,
            per_vg_overhead,
        } = &self.launches[l].plan
        else {
            unreachable!("StaticWorker only exists for PersistentStatic plans");
        };
        match assignments[w].get(next) {
            None => self.schedule_phase(ready_at, tid),
            Some(&cost) => {
                let work = cost + *per_vg_overhead;
                self.kernels[l].executed += 1;
                if self.tasks[tid].lost {
                    self.tasks[tid].lost = false;
                    self.kernels[l].retried += 1;
                }
                let cu = self.tasks[tid].cu;
                let scaled = self.scaled(work, l);
                let d = self.straggled(scaled, cu);
                self.tasks[tid].kind = TaskKind::StaticWorker { next: next + 1 };
                self.tasks[tid].in_flight = Some((next, next + 1));
                self.schedule_phase(ready_at + d, tid);
            }
        }
    }

    /// Persistent worker `tid` is ready to fetch its next chunk at
    /// `ready_at`; either schedules the chunk's completion or, if the queue
    /// is empty, the worker's retirement. Fault-lost ranges are claimed
    /// ahead of fresh work, so every lost chunk re-executes exactly once
    /// before the launch can drain.
    fn schedule_dequeue(&mut self, tid: usize, ready_at: u64) {
        let l = self.tasks[tid].launch;
        let (vg_costs, chunk, per_vg) = match &self.launches[l].plan {
            LaunchPlan::PersistentDynamic {
                vg_costs,
                chunk,
                per_vg_overhead,
                ..
            } => (vg_costs, *chunk as usize, *per_vg_overhead),
            LaunchPlan::PersistentGuided {
                vg_costs,
                max_chunk,
                per_vg_overhead,
                workers,
            } => {
                // Guided schedule: claim a 1/(2*workers) share of what is
                // left, tapering to single groups at the tail.
                let remaining = vg_costs.len().saturating_sub(self.kernels[l].next_vg);
                let guided = (remaining / (2 * (*workers).max(1) as usize)).max(1);
                (vg_costs, guided.min(*max_chunk as usize), *per_vg_overhead)
            }
            _ => unreachable!("DynWorker only exists for dynamic plans"),
        };
        // Preemption-latency knob: an installed chunk cap shrinks every
        // claim so the cap-enforcing boundary comes sooner.
        let chunk = match self.kernels[l].chunk_cap {
            Some(cap) => chunk.min(cap),
            None => chunk,
        };
        let retry_empty = self.retry[l].is_empty();
        let fresh_left = self.kernels[l].next_vg < vg_costs.len();
        // Fault-aware placement of retried chunks: a worker on a suspect
        // CU (recently failed, recently-failed domain, open straggler
        // window) leaves the retry queue for healthier workers and takes
        // fresh work instead — unless retries are all that remains, in
        // which case anyone may claim them (no work is ever stranded).
        // With no faults nothing is suspect and this is exactly the
        // historical retry-first claim.
        let defer_retry = fresh_left && self.cu_suspect(self.tasks[tid].cu);
        let k = &mut self.kernels[l];
        if (k.next_vg >= vg_costs.len() && retry_empty) || k.tasks_left > k.worker_cap {
            // Queue drained, or the launch's allotment was reclaimed below
            // its live worker count: one final (free) check, worker
            // retires now without claiming (`on_phase_done` distinguishes
            // the two and books the reclaim).
            self.schedule_phase(ready_at, tid);
            return;
        }
        let (start, end) = if retry_empty || (defer_retry && fresh_left) {
            let start = k.next_vg;
            let end = (start + chunk.max(1)).min(vg_costs.len());
            k.next_vg = end;
            (start, end)
        } else {
            // Requeued lost chunk: re-claim it verbatim, at the head of
            // the queue, and book the re-execution.
            let range = self.retry[l].pop_front().expect("checked non-empty");
            let k = &mut self.kernels[l];
            k.retried += range.1 - range.0;
            range
        };
        let k = &mut self.kernels[l];
        k.executed += end - start;
        // Atomic dequeue: the queue is a serial resource.
        let deq_start = ready_at.max(k.queue_free_at);
        let deq_end = deq_start + self.config.atomic_op_cost;
        k.queue_free_at = deq_end;
        let work: u64 = vg_costs[start..end].iter().sum::<u64>() + per_vg * (end - start) as u64;
        let cu = self.tasks[tid].cu;
        let scaled = self.scaled(work, l);
        let exec = self.straggled(scaled, cu);
        self.tasks[tid].in_flight = Some((start, end));
        if self.collect_trace {
            self.trace.push(TraceEvent {
                time: deq_start,
                launch: LaunchId(l as u32),
                cu,
                kind: TraceKind::Dequeue,
            });
        }
        self.schedule_phase(deq_end + exec, tid);
    }

    fn on_phase_done(&mut self, tid: usize) {
        let l = self.tasks[tid].launch;
        // Whatever was in flight completed (stale events never get here).
        self.tasks[tid].phase_seq = 0;
        self.tasks[tid].in_flight = None;
        match self.tasks[tid].kind {
            TaskKind::DynWorker => {
                let drained = self.dyn_drained(l);
                if !drained {
                    // Chunk boundary: a worker above the reclaimed cap
                    // retires here instead of dequeuing again — its slot
                    // goes to the CU queue heads via `complete_task`, the
                    // launch's remaining groups continue at the reduced
                    // width. With a cap of 0 (full pause) every worker
                    // takes this exit and the launch parks until a
                    // `ResumeCmd` respawns workers for it.
                    if self.kernels[l].tasks_left <= self.kernels[l].worker_cap {
                        self.schedule_dequeue(tid, self.now);
                        return;
                    }
                    self.kernels[l].reclaimed += 1;
                    if self.collect_trace {
                        self.trace.push(TraceEvent {
                            time: self.now,
                            launch: LaunchId(l as u32),
                            cu: self.tasks[tid].cu,
                            kind: TraceKind::Reclaim,
                        });
                    }
                }
            }
            TaskKind::StaticWorker { next } => {
                let w = self.tasks[tid].wi;
                let remaining = match &self.launches[l].plan {
                    LaunchPlan::PersistentStatic { assignments, .. } => next < assignments[w].len(),
                    _ => unreachable!(),
                };
                if remaining {
                    self.schedule_static_segment(tid, self.now);
                    return;
                }
            }
            TaskKind::HardwareWg { .. } => {}
        }
        self.complete_task(tid);
    }

    fn complete_task(&mut self, tid: usize) {
        let l = self.tasks[tid].launch;
        let cu = self.tasks[tid].cu;
        let req = self.launches[l].req;
        {
            let c = &mut self.cus[cu];
            c.free_threads += req.threads as i64;
            c.free_local += req.local_mem as i64;
            c.free_regs += req.regs_total() as i64;
            c.free_slots += 1;
        }
        self.unlink_resident(cu, tid);
        self.free_tasks.push(tid);
        let mi = self.launches[l].mem_intensity;
        self.resident_mem_load -= req.threads as f64 * mi;
        self.resident_compute_load -= req.threads as f64 * (1.0 - mi);
        self.rho = None;
        // A dynamic launch whose last worker retires with virtual groups
        // still queued (or fault-lost ranges still unclaimed) is *paused*,
        // not finished: `end` stays put and the launch waits for a resume
        // (or elastic regrowth) to drain it.
        let stranded = !self.dyn_drained(l);
        let k = &mut self.kernels[l];
        k.resident -= 1;
        if k.resident == 0 {
            let open = k.open_since.take().expect("interval was open");
            k.busy_intervals.push((open, self.now));
        }
        k.tasks_left -= 1;
        let retired = k.tasks_left == 0 && !stranded;
        if retired {
            k.end = self.now;
            self.retired[l] = true;
        }
        if self.collect_trace {
            self.trace.push(TraceEvent {
                time: self.now,
                launch: LaunchId(l as u32),
                cu,
                kind: TraceKind::WgEnd,
            });
        }
        self.try_start(cu);
        if retired {
            self.fire_resumes(l);
            self.rebalance();
        }
    }

    /// A kernel retired: let elastic dynamic launches grow into the freed
    /// capacity (round-robin across launches so nobody monopolises it).
    /// Only the precomputed `growable` launches are visited, and each
    /// placement attempt probes only the ready-set index (CUs with a free
    /// slot and an empty queue) rather than walking every CU.
    fn rebalance(&mut self) {
        loop {
            let mut grew = false;
            for gi in 0..self.growable.len() {
                let l = self.growable[gi];
                let max = self.launches[l]
                    .max_workers
                    .expect("growable implies max_workers");
                // Growth is bounded by *live* workers, not cumulative
                // spawns: a launch shrunk by reclamation may regrow once
                // the pressure eases (identical to the old `spawned`
                // bound when nothing is ever reclaimed, because workers
                // only retire once the queue is drained). Aborted
                // launches are dead and drained ones have nothing left —
                // but fault-lost ranges awaiting retry do count as work,
                // so a launch can grow back just to re-execute them.
                if self.kernels[l].tasks_left >= max as usize
                    || self.aborted[l]
                    || self.dyn_drained(l)
                {
                    continue;
                }
                // Find a CU with room for one more worker right now —
                // through the incremental ready-set index, not a scan of
                // every CU.
                let req = self.launches[l].req;
                let Some(cu) = self.find_placement(req) else {
                    continue;
                };
                let wi = self.kernels[l].spawned;
                let tid = self.alloc_task(Task {
                    launch: l,
                    kind: TaskKind::DynWorker,
                    cu,
                    rslot: 0,
                    wi,
                    phase_seq: 0,
                    in_flight: None,
                    lost: false,
                });
                self.kernels[l].spawned += 1;
                self.kernels[l].tasks_left += 1;
                self.kernels[l].machine_wgs += 1;
                // Growing into genuinely free capacity lifts a reclamation
                // cap: the retirement that freed this room ended the
                // pressure that forced the shrink (otherwise the new
                // worker would re-retire at its first chunk boundary).
                let live = self.kernels[l].tasks_left;
                if self.kernels[l].worker_cap < live {
                    self.kernels[l].worker_cap = live;
                }
                self.start_task(cu, tid);
                grew = true;
            }
            if !grew {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkGroupReq;

    fn req64() -> WorkGroupReq {
        WorkGroupReq {
            threads: 64,
            local_mem: 0,
            regs_per_thread: 1,
        }
    }

    fn hw_launch(name: &str, wgs: usize, cost: u64) -> KernelLaunch {
        KernelLaunch {
            name: name.into(),
            arrival: 0,
            req: req64(),
            mem_intensity: 0.0,
            plan: LaunchPlan::Hardware {
                wg_costs: vec![cost; wgs].into(),
            },
            max_workers: None,
        }
    }

    #[test]
    fn single_wg_duration_is_dispatch_plus_cost() {
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        sim.add_launch(hw_launch("a", 1, 100));
        let r = sim.run();
        assert_eq!(r.makespan, 10 + 100);
    }

    #[test]
    fn parallelism_within_occupancy() {
        // test_tiny: 2 CUs x 128 threads => 4 WGs of 64 threads resident.
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        sim.add_launch(hw_launch("a", 4, 100));
        let r = sim.run();
        assert_eq!(r.makespan, 110, "all four groups run concurrently");
    }

    #[test]
    fn occupancy_limit_serialises_excess() {
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        sim.add_launch(hw_launch("a", 8, 100));
        let r = sim.run();
        // Two waves of 4.
        assert_eq!(r.makespan, 220);
    }

    #[test]
    fn baseline_serialisation_is_emergent() {
        // Kernel A floods the device; B arrives at the same instant but
        // later in FIFO order. B must wait for nearly all of A.
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        let a = sim.add_launch(hw_launch("a", 64, 1_000));
        let b = sim.add_launch(hw_launch("b", 64, 1_000));
        let r = sim.run();
        let a_end = r.kernel(a).end;
        let b_start = r.kernel(b).first_start.unwrap();
        // B starts only in A's last wave.
        assert!(b_start > a_end * 3 / 4, "b_start={b_start} a_end={a_end}");
    }

    #[test]
    fn persistent_dynamic_completes_all_work() {
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        let id = sim.add_launch(KernelLaunch {
            name: "dyn".into(),
            arrival: 0,
            req: req64(),
            mem_intensity: 0.0,
            plan: LaunchPlan::PersistentDynamic {
                workers: 4,
                vg_costs: vec![50; 40].into(),
                chunk: 1,
                per_vg_overhead: 2,
            },
            max_workers: None,
        });
        let r = sim.run();
        // 40 VGs of 50+2 cycles over 4 workers ≈ 520 + dispatch + atomics.
        let k = r.kernel(id);
        assert!(k.end > 520);
        assert!(k.end < 1_000, "end={}", k.end);
        assert_eq!(k.machine_wgs, 4);
    }

    #[test]
    fn space_sharing_runs_kernels_concurrently() {
        // Two persistent launches of 2 workers each fit side by side on the
        // tiny device; their busy intervals must overlap substantially.
        let mk = |name: &str| KernelLaunch {
            name: name.into(),
            arrival: 0,
            req: req64(),
            mem_intensity: 0.0,
            plan: LaunchPlan::PersistentDynamic {
                workers: 2,
                vg_costs: vec![100; 20].into(),
                chunk: 2,
                per_vg_overhead: 1,
            },
            max_workers: None,
        };
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        let a = sim.add_launch(mk("a"));
        let b = sim.add_launch(mk("b"));
        let r = sim.run();
        let (a0, a1) = (r.kernel(a).first_start.unwrap(), r.kernel(a).end);
        let (b0, b1) = (r.kernel(b).first_start.unwrap(), r.kernel(b).end);
        let overlap = a1.min(b1).saturating_sub(a0.max(b0));
        let span = a1.max(b1) - a0.min(b0);
        assert!(
            overlap as f64 / span as f64 > 0.8,
            "expected heavy overlap, got {overlap}/{span}"
        );
    }

    #[test]
    fn dynamic_beats_static_under_imbalance() {
        // 16 VGs, one of which is 10x the others. Static assignment puts a
        // fixed 4 VGs on each of 4 workers; dynamic rebalances.
        let mut costs = vec![100u64; 16];
        costs[0] = 1_000;
        let static_plan = LaunchPlan::PersistentStatic {
            assignments: (0..4).map(|w| costs[w * 4..(w + 1) * 4].to_vec()).collect(),
            per_vg_overhead: 1,
        };
        let dynamic_plan = LaunchPlan::PersistentDynamic {
            workers: 4,
            vg_costs: costs.clone().into(),
            chunk: 1,
            per_vg_overhead: 1,
        };
        let run = |plan: LaunchPlan| {
            let mut sim = Simulator::new(DeviceConfig::test_tiny());
            sim.add_launch(KernelLaunch {
                name: "k".into(),
                arrival: 0,
                req: req64(),
                mem_intensity: 0.0,
                plan,
                max_workers: None,
            });
            sim.run().makespan
        };
        let t_static = run(static_plan);
        let t_dynamic = run(dynamic_plan);
        assert!(
            t_dynamic < t_static,
            "dynamic={t_dynamic} should beat static={t_static}"
        );
    }

    #[test]
    fn chunking_reduces_atomic_overhead_for_short_kernels() {
        let mk = |chunk| LaunchPlan::PersistentDynamic {
            workers: 2,
            vg_costs: vec![5; 200].into(),
            chunk,
            per_vg_overhead: 1,
        };
        let run = |plan: LaunchPlan| {
            let mut sim = Simulator::new(DeviceConfig::test_tiny());
            sim.add_launch(KernelLaunch {
                name: "k".into(),
                arrival: 0,
                req: req64(),
                mem_intensity: 0.0,
                plan,
                max_workers: None,
            });
            sim.run().makespan
        };
        let t1 = run(mk(1));
        let t8 = run(mk(8));
        assert!(t8 < t1, "chunked={t8} should beat unchunked={t1}");
    }

    #[test]
    fn guided_plan_completes_all_work() {
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        let id = sim.add_launch(KernelLaunch {
            name: "guided".into(),
            arrival: 0,
            req: req64(),
            mem_intensity: 0.0,
            plan: LaunchPlan::PersistentGuided {
                workers: 4,
                vg_costs: vec![50; 40].into(),
                max_chunk: 8,
                per_vg_overhead: 2,
            },
            max_workers: None,
        });
        let r = sim.run();
        let k = r.kernel(id);
        assert!(k.end > 40 * 52 / 4, "all work executed");
        assert_eq!(k.machine_wgs, 4);
    }

    #[test]
    fn guided_beats_fixed_coarse_chunks_on_imbalanced_tails() {
        // One very expensive virtual group near the end of the queue: a
        // fixed chunk of 8 lumps it with 7 others on one worker; guided
        // tapers to single claims at the tail.
        let mut costs = vec![20u64; 160];
        costs[150] = 2_000;
        let run = |plan: LaunchPlan| {
            let mut sim = Simulator::new(DeviceConfig::test_tiny());
            sim.add_launch(KernelLaunch {
                name: "k".into(),
                arrival: 0,
                req: req64(),
                mem_intensity: 0.0,
                plan,
                max_workers: None,
            });
            sim.run().makespan
        };
        let fixed = run(LaunchPlan::PersistentDynamic {
            workers: 4,
            vg_costs: costs.clone().into(),
            chunk: 8,
            per_vg_overhead: 1,
        });
        let guided = run(LaunchPlan::PersistentGuided {
            workers: 4,
            vg_costs: costs.into(),
            max_chunk: 8,
            per_vg_overhead: 1,
        });
        assert!(
            guided <= fixed,
            "guided {guided} should not lose to fixed {fixed}"
        );
    }

    #[test]
    fn arrival_times_are_respected() {
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        let mut late = hw_launch("late", 1, 100);
        late.arrival = 5_000;
        let a = sim.add_launch(hw_launch("a", 1, 100));
        let b = sim.add_launch(late);
        let r = sim.run();
        assert_eq!(r.kernel(a).end, 110);
        assert_eq!(r.kernel(b).first_start, Some(5_000));
        assert_eq!(r.kernel(b).end, 5_110);
    }

    #[test]
    fn determinism() {
        let build = || {
            let mut sim = Simulator::new(DeviceConfig::k20m());
            for i in 0..6 {
                sim.add_launch(KernelLaunch {
                    name: format!("k{i}"),
                    arrival: 0,
                    req: WorkGroupReq {
                        threads: 256,
                        local_mem: 1024,
                        regs_per_thread: 16,
                    },
                    mem_intensity: 0.5,
                    plan: LaunchPlan::PersistentDynamic {
                        workers: 8,
                        vg_costs: (0..200).map(|v| 50 + (v % 7) * 13).collect(),
                        chunk: 2,
                        per_vg_overhead: 2,
                    },
                    max_workers: None,
                });
            }
            sim.run()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn memory_contention_slows_execution() {
        // With bandwidth for only half the resident threads, a fully
        // memory-bound kernel runs at half speed; a compute-bound one is
        // untouched.
        let mk = |mem: f64| {
            let mut cfg = DeviceConfig::test_tiny();
            cfg.mem_capacity_frac = 0.5;
            let mut sim = Simulator::new(cfg);
            sim.add_launch(KernelLaunch {
                name: "k".into(),
                arrival: 0,
                req: WorkGroupReq {
                    threads: 128,
                    local_mem: 0,
                    regs_per_thread: 1,
                },
                mem_intensity: mem,
                plan: LaunchPlan::Hardware {
                    wg_costs: vec![1_000; 2].into(),
                },
                max_workers: None,
            });
            sim.run().makespan
        };
        let bound = mk(1.0);
        let free = mk(0.0);
        assert!(
            bound >= free * 3 / 2,
            "memory-bound {bound} vs compute-bound {free}"
        );
    }

    #[test]
    fn symbiosis_speeds_up_mixed_residency() {
        // A memory-bound kernel co-resident with a compute-bound one sees
        // less bandwidth pressure than co-resident with another
        // memory-bound kernel.
        let mut cfg = DeviceConfig::test_tiny();
        cfg.mem_capacity_frac = 0.5;
        cfg.issue_capacity_frac = 0.5;
        // The partner is a long-lived persistent worker per CU so the
        // later-arriving victim truly co-resides with it (two plain
        // hardware launches would just serialise), and the victim's many
        // short work groups snapshot the steady-state mix.
        let mk = |partner_mem: f64| {
            let mut sim = Simulator::new(cfg.clone());
            sim.add_launch(KernelLaunch {
                name: "partner".into(),
                arrival: 0,
                req: WorkGroupReq {
                    threads: 64,
                    local_mem: 0,
                    regs_per_thread: 1,
                },
                mem_intensity: partner_mem,
                plan: LaunchPlan::PersistentDynamic {
                    workers: 2,
                    vg_costs: vec![50; 400].into(),
                    chunk: 1,
                    per_vg_overhead: 0,
                },
                max_workers: None,
            });
            let victim = sim.add_launch(KernelLaunch {
                name: "victim".into(),
                arrival: 50,
                req: WorkGroupReq {
                    threads: 64,
                    local_mem: 0,
                    regs_per_thread: 1,
                },
                mem_intensity: 1.0,
                plan: LaunchPlan::Hardware {
                    wg_costs: vec![100; 40].into(),
                },
                max_workers: None,
            });
            let r = sim.run();
            r.kernel(victim).end
        };
        assert!(
            mk(0.0) < mk(1.0),
            "compute partner should relieve bandwidth"
        );
    }

    #[test]
    fn trace_collection() {
        let mut sim = Simulator::new(DeviceConfig::test_tiny()).with_trace();
        sim.add_launch(hw_launch("a", 2, 10));
        let r = sim.run();
        let starts = r
            .trace
            .iter()
            .filter(|t| t.kind == TraceKind::WgStart)
            .count();
        let ends = r
            .trace
            .iter()
            .filter(|t| t.kind == TraceKind::WgEnd)
            .count();
        assert_eq!(starts, 2);
        assert_eq!(ends, 2);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn oversized_wg_rejected() {
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        sim.add_launch(KernelLaunch {
            name: "huge".into(),
            arrival: 0,
            req: WorkGroupReq {
                threads: 4096,
                local_mem: 0,
                regs_per_thread: 1,
            },
            mem_intensity: 0.0,
            plan: LaunchPlan::Hardware {
                wg_costs: vec![1].into(),
            },
            max_workers: None,
        });
    }

    fn dyn_launch(name: &str, workers: u32, vgs: usize, cost: u64) -> KernelLaunch {
        KernelLaunch {
            name: name.into(),
            arrival: 0,
            req: req64(),
            mem_intensity: 0.0,
            plan: LaunchPlan::PersistentDynamic {
                workers,
                vg_costs: vec![cost; vgs].into(),
                chunk: 1,
                per_vg_overhead: 1,
            },
            max_workers: None,
        }
    }

    #[test]
    fn reclamation_drains_workers_at_chunk_boundaries() {
        // 4 workers fill the tiny device; at t=1000 the launch is capped
        // at 1. Three workers retire at their next chunk boundary, the
        // queue still drains completely at the reduced width.
        let run = |reclaim: bool| {
            let mut sim = Simulator::new(DeviceConfig::test_tiny());
            let id = sim.add_launch(dyn_launch("batch", 4, 200, 100));
            if reclaim {
                sim.add_reclaim(ReclaimCmd {
                    at: 1_000,
                    launch: id,
                    workers: 1,
                    pressure: None,
                    chunk: None,
                });
            }
            (sim.run(), id)
        };
        let (free, id) = run(false);
        let (shrunk, _) = run(true);
        let k = shrunk.kernel(id);
        assert_eq!(k.preemptions, 1);
        assert_eq!(k.reclaimed_workers, 3);
        assert_eq!(k.groups_executed, 200, "no virtual group is ever lost");
        assert_eq!(free.kernel(id).reclaimed_workers, 0);
        assert!(
            shrunk.makespan > free.makespan * 2,
            "width 1 should be far slower: {} vs {}",
            shrunk.makespan,
            free.makespan
        );
    }

    #[test]
    fn reclaimed_slots_go_to_queued_arrivals() {
        // A persistent batch launch owns every slot; a later arrival
        // queues behind it. Without reclamation it waits for the batch to
        // drain; with it, the freed slots start it within a few chunks.
        let run = |reclaim: bool| {
            let mut sim = Simulator::new(DeviceConfig::test_tiny());
            let batch = sim.add_launch(dyn_launch("batch", 4, 400, 100));
            let mut premium = hw_launch("premium", 4, 100);
            premium.arrival = 1_000;
            let premium = sim.add_launch(premium);
            if reclaim {
                sim.add_reclaim(ReclaimCmd {
                    at: 1_000,
                    launch: batch,
                    workers: 1,
                    pressure: None,
                    chunk: None,
                });
            }
            let r = sim.run();
            (
                r.kernel(premium).first_start.unwrap(),
                r.kernel(premium).end,
                r.kernel(batch).groups_executed,
            )
        };
        let (wait_start, wait_end, _) = run(false);
        let (fast_start, fast_end, executed) = run(true);
        assert_eq!(executed, 400, "reclaimed batch still finishes its work");
        assert!(
            fast_start < wait_start / 2,
            "reclamation should start the arrival early: {fast_start} vs {wait_start}"
        );
        assert!(fast_end < wait_end / 2, "{fast_end} vs {wait_end}");
    }

    #[test]
    fn reclaim_is_ignored_without_chunk_boundaries() {
        // Hardware work groups cannot be revoked (no safe boundary): the
        // command is a no-op and the run is unchanged.
        let run = |reclaim: bool| {
            let mut sim = Simulator::new(DeviceConfig::test_tiny());
            let id = sim.add_launch(hw_launch("hw", 8, 100));
            if reclaim {
                sim.add_reclaim(ReclaimCmd {
                    at: 50,
                    launch: id,
                    workers: 1,
                    pressure: None,
                    chunk: None,
                });
            }
            sim.run()
        };
        let plain = run(false);
        let capped = run(true);
        assert_eq!(plain, capped);
        assert_eq!(capped.kernels[0].preemptions, 0);
    }

    #[test]
    #[should_panic(expected = "unknown launch")]
    fn reclaim_of_unknown_launch_rejected() {
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        sim.add_reclaim(ReclaimCmd {
            at: 0,
            launch: LaunchId(3),
            workers: 1,
            pressure: None,
            chunk: None,
        });
    }

    #[test]
    fn reclaimed_launch_regrows_after_the_pressure_retires() {
        // Batch shrinks to width 1 for a short premium launch, then the
        // premium's retirement triggers elastic regrowth (max_workers).
        let mut batch = dyn_launch("batch", 4, 400, 100);
        batch.max_workers = Some(4);
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        let batch = sim.add_launch(batch);
        let mut premium = hw_launch("premium", 4, 200);
        premium.arrival = 1_000;
        sim.add_launch(premium);
        sim.add_reclaim(ReclaimCmd {
            at: 1_000,
            launch: batch,
            workers: 1,
            pressure: None,
            chunk: None,
        });
        let r = sim.run();
        let k = r.kernel(batch);
        assert_eq!(k.reclaimed_workers, 3);
        assert!(
            k.machine_wgs > 4,
            "regrowth should spawn fresh workers: {}",
            k.machine_wgs
        );
        assert_eq!(k.groups_executed, 400);
    }

    #[test]
    fn reclamation_is_deterministic_and_traced() {
        let build = || {
            let mut sim = Simulator::new(DeviceConfig::test_tiny()).with_trace();
            let a = sim.add_launch(dyn_launch("a", 2, 120, 60));
            let b = sim.add_launch(dyn_launch("b", 2, 120, 60));
            sim.add_reclaim(ReclaimCmd {
                at: 700,
                launch: a,
                workers: 1,
                pressure: None,
                chunk: None,
            });
            sim.add_reclaim(ReclaimCmd {
                at: 900,
                launch: b,
                workers: 1,
                pressure: None,
                chunk: None,
            });
            sim.run()
        };
        let r = build();
        assert_eq!(r, build());
        let reclaim_events = r
            .trace
            .iter()
            .filter(|t| t.kind == TraceKind::Reclaim)
            .count();
        assert_eq!(
            reclaim_events,
            r.kernels.iter().map(|k| k.reclaimed_workers).sum::<usize>()
        );
    }

    #[test]
    fn groups_executed_counts_every_plan_kind() {
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        let hw = sim.add_launch(hw_launch("hw", 6, 50));
        let dy = sim.add_launch(dyn_launch("dyn", 2, 30, 20));
        let st = sim.add_launch(KernelLaunch {
            name: "static".into(),
            arrival: 0,
            req: req64(),
            mem_intensity: 0.0,
            plan: LaunchPlan::PersistentStatic {
                assignments: vec![vec![10, 10, 10], vec![10, 10]],
                per_vg_overhead: 1,
            },
            max_workers: None,
        });
        let r = sim.run();
        assert_eq!(r.kernel(hw).groups_executed, 6);
        assert_eq!(r.kernel(dy).groups_executed, 30);
        assert_eq!(r.kernel(st).groups_executed, 5);
    }

    #[test]
    fn full_pause_strands_work_until_resumed() {
        // The batch launch is paused (cap 0) while a premium launch runs;
        // a resume anchored on the premium retirement re-enqueues its
        // workers and the queue still drains completely.
        let run = |resume: bool| {
            let mut sim = Simulator::new(DeviceConfig::test_tiny());
            let batch = sim.add_launch(dyn_launch("batch", 4, 200, 100));
            let mut premium = hw_launch("premium", 8, 300);
            premium.arrival = 1_000;
            let premium = sim.add_launch(premium);
            sim.add_reclaim(ReclaimCmd {
                at: 1_000,
                launch: batch,
                workers: 0,
                pressure: None,
                chunk: None,
            });
            if resume {
                sim.add_resume(ResumeCmd {
                    after: premium,
                    launch: batch,
                    workers: 4,
                });
            }
            (sim.run(), batch, premium)
        };
        let (resumed, batch, premium) = run(true);
        let k = resumed.kernel(batch);
        assert_eq!(k.pauses, 1);
        assert_eq!(k.preemptions, 1);
        assert_eq!(k.reclaimed_workers, 4, "every worker retired at the pause");
        assert_eq!(k.resumes, 1);
        assert_eq!(k.resumed_workers, 4);
        assert_eq!(k.groups_executed, 200, "resume drains the stranded queue");
        assert!(
            k.end > resumed.kernel(premium).end,
            "batch finishes only after the premium tenant retires"
        );
        // Without the resume the launch parks forever: work is stranded
        // (the report shows the deficit) and nothing crashes.
        let (parked, batch, _) = run(false);
        let k = parked.kernel(batch);
        assert_eq!(k.pauses, 1);
        assert_eq!(k.resumes, 0);
        assert!(
            k.groups_executed < 200,
            "a never-resumed pause strands work: {}",
            k.groups_executed
        );
    }

    #[test]
    fn resume_floor_blocks_stale_pauses() {
        // The premium tenant retires *before* a stale second pause lands:
        // the fired resume floors later caps, so the victim keeps running.
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        let batch = sim.add_launch(dyn_launch("batch", 4, 300, 100));
        let mut premium = hw_launch("premium", 4, 100);
        premium.arrival = 1_000;
        let premium = sim.add_launch(premium);
        sim.add_reclaim(ReclaimCmd {
            at: 1_000,
            launch: batch,
            workers: 0,
            pressure: None,
            chunk: None,
        });
        sim.add_resume(ResumeCmd {
            after: premium,
            launch: batch,
            workers: 4,
        });
        // Stale: fires long after the premium tenant is gone.
        sim.add_reclaim(ReclaimCmd {
            at: 8_000,
            launch: batch,
            workers: 0,
            pressure: None,
            chunk: None,
        });
        let r = sim.run();
        let k = r.kernel(batch);
        assert_eq!(k.preemptions, 2);
        assert_eq!(k.pauses, 1, "the stale command must not pause again");
        assert_eq!(k.groups_executed, 300);
    }

    #[test]
    fn resume_is_inert_for_drained_and_static_launches() {
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        let quick = sim.add_launch(dyn_launch("quick", 2, 8, 10));
        let mut anchor = hw_launch("anchor", 1, 50_000);
        anchor.arrival = 0;
        let anchor = sim.add_launch(anchor);
        let hw = sim.add_launch(hw_launch("hw", 2, 60_000));
        // `quick` drains long before the anchor retires; `hw` has no chunk
        // boundaries. Both resumes are no-ops.
        sim.add_resume(ResumeCmd {
            after: anchor,
            launch: quick,
            workers: 4,
        });
        sim.add_resume(ResumeCmd {
            after: anchor,
            launch: hw,
            workers: 4,
        });
        let r = sim.run();
        assert_eq!(r.kernel(quick).resumed_workers, 0);
        assert_eq!(r.kernel(quick).resumes, 1, "fired, nothing to respawn");
        assert_eq!(r.kernel(hw).resumes, 0, "no chunk boundaries, ignored");
        assert_eq!(r.kernel(quick).groups_executed, 8);
    }

    #[test]
    #[should_panic(expected = "unknown launch")]
    fn resume_of_unknown_launch_rejected() {
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        let id = sim.add_launch(dyn_launch("a", 1, 4, 10));
        sim.add_resume(ResumeCmd {
            after: id,
            launch: LaunchId(7),
            workers: 1,
        });
    }

    #[test]
    fn pause_resume_is_deterministic_and_traced() {
        let build = || {
            let mut sim = Simulator::new(DeviceConfig::test_tiny()).with_trace();
            let a = sim.add_launch(dyn_launch("a", 3, 150, 60));
            let mut b = hw_launch("b", 6, 400);
            b.arrival = 500;
            let b = sim.add_launch(b);
            sim.add_reclaim(ReclaimCmd {
                at: 500,
                launch: a,
                workers: 0,
                pressure: None,
                chunk: None,
            });
            sim.add_resume(ResumeCmd {
                after: b,
                launch: a,
                workers: 3,
            });
            sim.run()
        };
        let r = build();
        assert_eq!(r, build());
        let resume_events = r
            .trace
            .iter()
            .filter(|t| t.kind == TraceKind::Resume)
            .count();
        assert_eq!(
            resume_events,
            r.kernels.iter().map(|k| k.resumed_workers).sum::<usize>()
        );
        assert_eq!(r.kernels[0].groups_executed, 150);
    }

    /// A retirement-heavy elastic episode on a wide device: many short
    /// hardware launches retiring one after another, with growable
    /// persistent launches ready to soak up the freed capacity — the
    /// scenario whose `rebalance` cost the ready-set index exists to
    /// bound.
    fn retirement_heavy(num_cus: usize, linear: bool) -> Simulator {
        let mut cfg = DeviceConfig::test_tiny();
        cfg.num_cus = num_cus;
        let mut sim = Simulator::new(cfg);
        if linear {
            sim = sim.with_linear_placement();
        }
        for i in 0..3 {
            let mut l = dyn_launch(&format!("elastic{i}"), 2, 600, 40);
            l.max_workers = Some(8);
            sim.add_launch(l);
        }
        // 40 kernels' worth of work groups stuffed into every CU queue:
        // each retirement triggers a rebalance pass while the device is
        // still saturated, which is where the linear scan pays CU-count
        // visits to find nothing.
        for i in 0..40 {
            sim.add_launch(hw_launch(&format!("hw{i}"), 48, 100));
        }
        sim
    }

    #[test]
    fn indexed_placement_matches_linear_scan() {
        // Same retirement-heavy episode through both placement paths:
        // reports (including growth decisions) must be identical, while
        // the index examines far fewer CUs. On a saturated device the
        // ready set is mostly empty, so indexed placement probes ~0
        // candidates where the linear scan walks all CUs every time.
        let (indexed, with_index) = retirement_heavy(32, false).run_with_stats();
        let (linear, with_scan) = retirement_heavy(32, true).run_with_stats();
        assert_eq!(indexed, linear, "placement path must not change results");
        assert_eq!(
            with_index.attempts, with_scan.attempts,
            "both paths attempt the same placements"
        );
        assert!(with_scan.attempts > 0, "episode must exercise rebalance");
        assert!(
            with_index.cu_visits * 4 < with_scan.cu_visits,
            "index must probe far fewer CUs: {} vs {} over {} attempts",
            with_index.cu_visits,
            with_scan.cu_visits,
            with_scan.attempts
        );
    }

    #[test]
    fn placement_no_longer_scans_every_cu() {
        // The acceptance bound: visits per attempt must be well below the
        // CU count (the linear scan's per-attempt cost) — on this mostly
        // saturated 32-CU device, the ready set averages under 4 entries.
        let (_, stats) = retirement_heavy(32, false).run_with_stats();
        assert!(stats.attempts > 0);
        assert!(
            stats.cu_visits < stats.attempts * 4,
            "{} visits over {} attempts should average < 4 per attempt",
            stats.cu_visits,
            stats.attempts
        );
    }

    #[test]
    fn busy_intervals_are_well_formed() {
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        let a = sim.add_launch(hw_launch("a", 16, 100));
        let r = sim.run();
        let iv = &r.kernel(a).busy_intervals;
        assert!(!iv.is_empty());
        for w in iv.windows(2) {
            assert!(w[0].1 <= w[1].0, "intervals must be ordered and disjoint");
        }
        assert!(iv.iter().all(|(s, e)| s < e));
    }

    #[test]
    fn zero_fault_runs_are_bit_identical() {
        // The whole fault plane must be dormant when nothing is injected:
        // a simulator fed an empty plan produces the exact same report
        // (trace included) as one that never heard of faults.
        let run = |with_plan: bool| {
            let mut sim = Simulator::new(DeviceConfig::test_tiny()).with_trace();
            sim.add_launch(dyn_launch("a", 2, 60, 40));
            sim.add_launch(hw_launch("b", 4, 120));
            if with_plan {
                sim = sim.with_faults(FaultPlan::default());
            }
            sim.run()
        };
        let plain = run(false);
        assert_eq!(plain, run(true));
        assert_eq!(plain.faults_injected, 0);
    }

    #[test]
    fn cu_failure_loses_no_work() {
        // A CU dies mid-flight under a dynamic launch: the in-flight
        // chunks of its residents are requeued and every virtual group
        // still executes, with the lost ones booked as retried.
        let mut sim = Simulator::new(DeviceConfig::test_tiny()).with_trace();
        let id = sim.add_launch(dyn_launch("batch", 4, 200, 100));
        sim.add_fault(FaultEvent {
            at: 2_000,
            kind: FaultKind::CuFailure {
                cu: 0,
                repair_at: None,
            },
        });
        let r = sim.run();
        let k = r.kernel(id);
        assert_eq!(k.groups_executed, 200, "conservation survives the failure");
        assert!(k.chunks_lost > 0, "the fault must catch work in flight");
        assert_eq!(
            k.groups_retried, k.chunks_lost,
            "chunk size 1: each lost chunk is one retried group"
        );
        let fault_events = r
            .trace
            .iter()
            .filter(|t| t.kind == TraceKind::Fault)
            .count();
        assert_eq!(fault_events, k.chunks_lost);
        assert_eq!(r.faults_injected, 1);
    }

    #[test]
    fn hw_groups_lost_to_cu_failure_rerun() {
        // test_tiny holds 2 work groups per CU: the failure kills CU 0's
        // two residents, which migrate to CU 1 and re-execute after its
        // own residents finish.
        let mut sim = Simulator::new(DeviceConfig::test_tiny()).with_trace();
        let id = sim.add_launch(hw_launch("hw", 4, 1_000));
        sim.add_fault(FaultEvent {
            at: 500,
            kind: FaultKind::CuFailure {
                cu: 0,
                repair_at: None,
            },
        });
        let r = sim.run();
        let k = r.kernel(id);
        assert_eq!(k.chunks_lost, 2);
        assert_eq!(k.groups_retried, 2);
        assert_eq!(k.groups_executed, 4, "lost hardware groups re-execute");
        assert!(
            r.makespan > 2 * 1_000,
            "the rerun serialises behind the survivors: {}",
            r.makespan
        );
    }

    #[test]
    fn repair_restores_capacity_for_elastic_launches() {
        let run = |repair_at: Option<u64>| {
            let mut sim = Simulator::new(DeviceConfig::test_tiny());
            let mut batch = dyn_launch("batch", 4, 200, 100);
            batch.max_workers = Some(6);
            let id = sim.add_launch(batch);
            sim.add_fault(FaultEvent {
                at: 1_000,
                kind: FaultKind::CuFailure { cu: 0, repair_at },
            });
            let r = sim.run();
            (r.makespan, r.kernel(id).groups_executed)
        };
        let (permanent, done_p) = run(None);
        let (repaired, done_r) = run(Some(2_000));
        assert_eq!(done_p, 200, "even a permanent failure loses no work");
        assert_eq!(done_r, 200);
        assert!(
            repaired < permanent,
            "growing back into the repaired CU must help: {repaired} vs {permanent}"
        );
    }

    #[test]
    fn domain_failure_equals_member_cu_failures() {
        // A domain failure is definitionally its members failing together:
        // the same episode under one DomainFailure and under one CuFailure
        // per member (same instant, ascending order, same repair) yields
        // identical kernel reports — only the injection count differs.
        use crate::fault::FailureDomain;
        let domains = FailureDomain::split_evenly(13, 4);
        let members = domains[0].cus.clone();
        let run = |correlated: bool| {
            let mut sim = Simulator::new(DeviceConfig::k20m())
                .with_trace()
                .with_domains(FailureDomain::split_evenly(13, 4));
            let id = sim.add_launch(dyn_launch("batch", 13, 400, 200));
            if correlated {
                sim.add_fault(FaultEvent {
                    at: 2_000,
                    kind: FaultKind::DomainFailure {
                        domain: 0,
                        repair_at: Some(6_000),
                    },
                });
            } else {
                for &cu in &members {
                    sim.add_fault(FaultEvent {
                        at: 2_000,
                        kind: FaultKind::CuFailure {
                            cu,
                            repair_at: Some(6_000),
                        },
                    });
                }
            }
            (sim.run(), id)
        };
        let (domain, id) = run(true);
        let (per_cu, _) = run(false);
        assert_eq!(domain.kernels, per_cu.kernels);
        assert_eq!(domain.trace, per_cu.trace);
        assert_eq!(domain.faults_injected, 1);
        assert_eq!(per_cu.faults_injected, members.len());
        let k = domain.kernel(id);
        assert_eq!(
            k.groups_executed, 400,
            "conservation survives the rack loss"
        );
        assert!(k.chunks_lost > 0, "a quarter of the fleet held work");
        assert_eq!(k.groups_retried, k.chunks_lost, "exactly-once retry");
    }

    #[test]
    fn permanent_domain_failure_spares_the_last_survivor() {
        // One domain covering the whole device, failed permanently: the
        // engine must leave one CU alive (capacity degrades, never
        // zeroes), so the launch still completes.
        use crate::fault::FailureDomain;
        let mut sim = Simulator::new(DeviceConfig::test_tiny()).with_domains(vec![FailureDomain {
            name: "all".into(),
            cus: vec![0, 1],
        }]);
        let id = sim.add_launch(dyn_launch("batch", 4, 100, 50));
        sim.add_fault(FaultEvent {
            at: 500,
            kind: FaultKind::DomainFailure {
                domain: 0,
                repair_at: None,
            },
        });
        let r = sim.run();
        let k = r.kernel(id);
        assert_eq!(k.groups_executed, 100, "the survivor drains the queue");
        assert_eq!(k.groups_retried, k.chunks_lost);
    }

    #[test]
    fn domain_config_is_inert_without_domain_faults() {
        // Configuring a failure topology must not perturb a single byte
        // unless a DomainFailure actually fires — the same dormancy
        // contract the fault plane itself honours.
        use crate::fault::FailureDomain;
        let run = |with_domains: bool| {
            let mut sim = Simulator::new(DeviceConfig::test_tiny()).with_trace();
            if with_domains {
                sim = sim.with_domains(FailureDomain::split_evenly(2, 2));
            }
            sim.add_launch(dyn_launch("a", 2, 60, 40));
            sim.add_launch(hw_launch("b", 4, 120));
            sim.add_fault(FaultEvent {
                at: 900,
                kind: FaultKind::CuFailure {
                    cu: 0,
                    repair_at: Some(2_500),
                },
            });
            sim.run()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn suspect_cu_shunned_until_health_memory_expires() {
        // Three CUs. CU 0 fails at t=100 and is repaired at t=200, so it
        // stays *suspect* until t=300 (one repair-duration of memory).
        // When CU 1 dies at t=250 its displaced workers must all land on
        // the healthy CU 2 — the blind engine round-robins them across
        // CU 0 and CU 2.
        let mut cfg = DeviceConfig::test_tiny();
        cfg.num_cus = 3;
        let run = |blind: bool| {
            let mut sim = Simulator::new(cfg.clone()).with_trace();
            if blind {
                sim = sim.with_blind_health();
            }
            let id = sim.add_launch(dyn_launch("batch", 6, 300, 100));
            sim.add_fault(FaultEvent {
                at: 100,
                kind: FaultKind::CuFailure {
                    cu: 0,
                    repair_at: Some(200),
                },
            });
            sim.add_fault(FaultEvent {
                at: 250,
                kind: FaultKind::CuFailure {
                    cu: 1,
                    repair_at: None,
                },
            });
            let r = sim.run();
            let k = r.kernel(id);
            assert_eq!(k.groups_executed, 300, "conservation either way");
            assert_eq!(k.groups_retried, k.chunks_lost);
            let on_suspect = r
                .trace
                .iter()
                .filter(|t| {
                    t.cu == 0 && t.time >= 250 && t.time < 300 && t.kind == TraceKind::WgStart
                })
                .count();
            on_suspect
        };
        assert_eq!(
            run(false),
            0,
            "health-aware placement avoids the freshly repaired CU"
        );
        assert!(
            run(true) > 0,
            "the blind engine places displaced work on the suspect CU"
        );
    }

    #[test]
    fn reclaim_chunk_knob_cuts_preemption_latency() {
        // Chunk 25 means a worker surfaces at a cap-enforcing boundary
        // only every ~2500 cycles, and an in-flight chunk is never
        // preemptible — so the knob pays off for commands landing *after*
        // the cap is installed. A first shrink carries the knob; the full
        // pause at t=6000 then lands within one small chunk instead of
        // one large one, at the price of more atomic dequeues.
        let run = |chunk: Option<u32>| {
            let mut sim = Simulator::new(DeviceConfig::test_tiny()).with_trace();
            let id = sim.add_launch(KernelLaunch {
                name: "batch".into(),
                arrival: 0,
                req: req64(),
                mem_intensity: 0.0,
                plan: LaunchPlan::PersistentDynamic {
                    workers: 4,
                    vg_costs: vec![100; 400].into(),
                    chunk: 25,
                    per_vg_overhead: 1,
                },
                max_workers: None,
            });
            sim.add_reclaim(ReclaimCmd {
                at: 1_000,
                launch: id,
                workers: 3,
                pressure: None,
                chunk,
            });
            sim.add_reclaim(ReclaimCmd {
                at: 6_000,
                launch: id,
                workers: 1,
                pressure: None,
                chunk,
            });
            let r = sim.run();
            assert_eq!(r.kernel(id).reclaimed_workers, 3);
            let last_retire = r
                .trace
                .iter()
                .filter(|t| t.kind == TraceKind::Reclaim)
                .map(|t| t.time)
                .max()
                .expect("three workers retired");
            let dequeues = r
                .trace
                .iter()
                .filter(|t| t.kind == TraceKind::Dequeue)
                .count();
            (last_retire, dequeues)
        };
        let (latency_default, deq_default) = run(None);
        let (latency_shrunk, deq_shrunk) = run(Some(1));
        assert!(
            latency_shrunk < latency_default,
            "shrunken chunks must reach the cap sooner: {latency_shrunk} vs {latency_default}"
        );
        assert!(
            deq_shrunk > deq_default,
            "the price is more atomic dequeues: {deq_shrunk} vs {deq_default}"
        );
    }

    #[test]
    fn straggler_slows_without_losing_work() {
        let run = |slow: bool| {
            let mut sim = Simulator::new(DeviceConfig::test_tiny());
            let id = sim.add_launch(dyn_launch("k", 4, 100, 50));
            if slow {
                sim.add_fault(FaultEvent {
                    at: 0,
                    kind: FaultKind::Straggler {
                        cu: 0,
                        factor: 4.0,
                        until: u64::MAX,
                    },
                });
            }
            let r = sim.run();
            (
                r.makespan,
                r.kernel(id).groups_executed,
                r.kernel(id).chunks_lost,
            )
        };
        let (nominal, done, _) = run(false);
        let (slowed, done_s, lost) = run(true);
        assert_eq!(done, 100);
        assert_eq!(done_s, 100, "a straggler only stretches, never drops");
        assert_eq!(lost, 0);
        assert!(slowed > nominal, "{slowed} vs {nominal}");
        assert!(
            slowed < nominal * 4,
            "dynamic dequeue shifts work off the slow CU: {slowed} vs 4x{nominal}"
        );
    }

    #[test]
    fn kernel_abort_reports_partial_work_and_frees_the_device() {
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        let batch = sim.add_launch(dyn_launch("batch", 4, 400, 100));
        let mut late = hw_launch("late", 4, 100);
        late.arrival = 3_000;
        let late = sim.add_launch(late);
        sim.add_fault(FaultEvent {
            at: 2_000,
            kind: FaultKind::KernelAbort { launch: batch },
        });
        let r = sim.run();
        let k = r.kernel(batch);
        assert!(k.aborted);
        assert_eq!(k.end, 2_000, "the abort instant is the launch's end");
        assert!(
            k.groups_executed > 0 && k.groups_executed < 400,
            "the completed count survives the abort: {}",
            k.groups_executed
        );
        // The torn-down launch released every slot: the late arrival runs
        // at full width, exactly as on an idle device.
        assert_eq!(r.kernel(late).first_start, Some(3_000));
        assert_eq!(r.kernel(late).end, 3_110);
    }

    #[test]
    fn abort_still_fires_anchored_resumes() {
        // A victim paused for a batch tenant must wake up even when that
        // tenant aborts instead of retiring cleanly.
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        let victim = sim.add_launch(dyn_launch("victim", 2, 100, 50));
        let batch = sim.add_launch(dyn_launch("batch", 2, 400, 100));
        sim.add_reclaim(ReclaimCmd {
            at: 500,
            launch: victim,
            workers: 0,
            pressure: Some(batch),
            chunk: None,
        });
        sim.add_resume(ResumeCmd {
            after: batch,
            launch: victim,
            workers: 2,
        });
        sim.add_fault(FaultEvent {
            at: 2_000,
            kind: FaultKind::KernelAbort { launch: batch },
        });
        let r = sim.run();
        let k = r.kernel(victim);
        assert_eq!(k.pauses, 1);
        assert_eq!(k.resumes, 1, "the abort anchors the resume");
        assert_eq!(k.groups_executed, 100, "the resumed victim drains fully");
        assert!(r.kernel(batch).aborted);
    }

    #[test]
    fn stale_pressured_reclaim_is_void() {
        // Per-tenant scoping (no resume floor involved): a command tagged
        // with a pressuring tenant that has already retired is dropped
        // outright — it books no preemption and pauses nothing.
        let mut sim = Simulator::new(DeviceConfig::test_tiny());
        let batch = sim.add_launch(dyn_launch("batch", 4, 300, 100));
        let mut premium = hw_launch("premium", 4, 100);
        premium.arrival = 1_000;
        let premium = sim.add_launch(premium);
        sim.add_reclaim(ReclaimCmd {
            at: 1_000,
            launch: batch,
            workers: 1,
            pressure: Some(premium),
            chunk: None,
        });
        // Stale: tagged with the premium tenant, landing long after it
        // retired.
        sim.add_reclaim(ReclaimCmd {
            at: 8_000,
            launch: batch,
            workers: 0,
            pressure: Some(premium),
            chunk: None,
        });
        let r = sim.run();
        let k = r.kernel(batch);
        assert_eq!(k.preemptions, 1, "the stale tagged command is void");
        assert_eq!(k.pauses, 0);
        assert_eq!(k.groups_executed, 300);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let build = || {
            let mut sim = Simulator::new(DeviceConfig::test_tiny()).with_trace();
            sim.add_launch(dyn_launch("a", 4, 200, 60));
            let b = sim.add_launch(hw_launch("b", 8, 150));
            sim.add_fault(FaultEvent {
                at: 500,
                kind: FaultKind::Straggler {
                    cu: 1,
                    factor: 2.5,
                    until: 2_500,
                },
            });
            sim.add_fault(FaultEvent {
                at: 1_000,
                kind: FaultKind::CuFailure {
                    cu: 0,
                    repair_at: Some(3_000),
                },
            });
            sim.add_fault(FaultEvent {
                at: 1_200,
                kind: FaultKind::KernelAbort { launch: b },
            });
            sim.run()
        };
        let r = build();
        assert_eq!(r, build());
        assert_eq!(r.faults_injected, 3);
        let fault_events = r
            .trace
            .iter()
            .filter(|t| t.kind == TraceKind::Fault)
            .count();
        assert_eq!(
            fault_events,
            r.kernels.iter().map(|k| k.chunks_lost).sum::<usize>()
        );
        let starts = r
            .trace
            .iter()
            .filter(|t| t.kind == TraceKind::WgStart)
            .count();
        let ends = r
            .trace
            .iter()
            .filter(|t| t.kind == TraceKind::WgEnd)
            .count();
        assert_eq!(starts, ends, "fault teardowns book their WgEnd");
    }

    #[test]
    fn cu_set_matches_a_membership_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for num_cus in [13usize, 44, 64, 65, 130] {
            let mut rng = StdRng::seed_from_u64(num_cus as u64);
            let mut set = CuSet::new(num_cus);
            let mut model = vec![false; num_cus];
            for _ in 0..2_000 {
                let cu = rng.random_range(0..num_cus);
                let insert = rng.random_range(0..2u32) == 0;
                if insert {
                    set.insert(cu);
                } else {
                    set.remove(cu);
                }
                model[cu] = insert;
                let expected: Vec<usize> = (0..num_cus).filter(|&c| model[c]).collect();
                assert_eq!(set.iter().collect::<Vec<_>>(), expected, "{num_cus} CUs");
            }
            // The extremes: every CU present, then none.
            for cu in 0..num_cus {
                set.insert(cu);
            }
            assert!(set.iter().eq(0..num_cus));
            for cu in 0..num_cus {
                set.remove(cu);
            }
            assert_eq!(set.iter().next(), None);
        }
    }

    #[test]
    fn event_queue_pops_in_key_order_with_replace_top() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut queue = EventQueue::default();
            let mut model: Vec<(u64, u64)> = Vec::new();
            let mut seq = 0u64;
            for _ in 0..rng.random_range(1..40usize) {
                seq += 1;
                let time = rng.random_range(0..50u64);
                queue.push(time, seq, Event::Arrival(seq as usize));
                model.push((time, seq));
            }
            let mut popped = 0;
            while let Some((time, s, ev)) = queue.peek() {
                model.sort_unstable_by(|a, b| b.cmp(a));
                assert_eq!(Some((time, s)), model.pop(), "seed {seed}");
                assert_eq!(ev, Event::Arrival(s as usize));
                popped += 1;
                // A handler schedules 0, 1 or 3 events, some at the
                // current time, until the run has handled enough.
                let n = if seq < 600 {
                    [0, 1, 3][rng.random_range(0..3usize)]
                } else {
                    0
                };
                for _ in 0..n {
                    seq += 1;
                    let at = time + rng.random_range(0..3u64);
                    queue.push(at, seq, Event::Arrival(seq as usize));
                    model.push((at, seq));
                }
                queue.finish();
            }
            assert!(model.is_empty());
            assert_eq!(popped, seq, "every event handled once");
        }
    }

    /// Hardware groups become tasks only when they start, and a finished
    /// task's slot is reused, so the task table is bounded by residency
    /// (at most every slot of every CU), not by launch size.
    #[test]
    fn task_table_follows_residency_not_launch_size() {
        let cfg = DeviceConfig::test_tiny();
        let bound = cfg.num_cus * cfg.wg_slots_per_cu as usize;
        let mut sim = Simulator::new(cfg);
        let big = sim.add_launch(hw_launch("big", 200_000, 100));
        sim.add_launch(hw_launch("b", 1_000, 70));
        sim.add_launch(hw_launch("c", 777, 130));
        let mut engine = sim.into_engine();
        engine.run_events();
        assert!(
            engine.tasks.len() <= bound,
            "task table grew to {} entries (bound {bound})",
            engine.tasks.len()
        );
        let (report, _) = engine.into_report();
        assert_eq!(report.kernel(big).groups_executed, 200_000);
        assert!(report
            .kernels
            .iter()
            .all(|k| k.groups_executed == k.machine_wgs));
    }

    /// `rslot` rides in the padding after `lost`: the work-group record
    /// stays at 80 bytes (a `usize` slot would make it 88).
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn task_stays_80_bytes() {
        assert_eq!(std::mem::size_of::<Task>(), 80);
    }
}
