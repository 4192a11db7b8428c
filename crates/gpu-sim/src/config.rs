//! Device configuration: compute-unit resources and cost-model constants.

/// Static description of a simulated accelerator.
///
/// The resource model follows the paper's §3: a device has `num_cus` compute
/// units, each hosting multiple resident work groups at a time as long as
/// their combined thread count, local-memory usage and register usage fit.
///
/// Cost-model constants are in abstract "cycles". Absolute values are not
/// meaningful — only the *shape* of results (who wins, crossovers) is.
///
/// # Examples
///
/// ```
/// use gpu_sim::DeviceConfig;
/// let dev = DeviceConfig::k20m();
/// assert_eq!(dev.num_cus, 13);
/// assert_eq!(dev.total_threads(), 13 * 2048);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Human-readable device name.
    pub name: String,
    /// Number of compute units (SMX / CU).
    pub num_cus: usize,
    /// Maximum resident threads per compute unit.
    pub threads_per_cu: u32,
    /// Local memory (shared memory / LDS) per compute unit, in bytes.
    pub local_mem_per_cu: u32,
    /// Register file entries per compute unit.
    pub regs_per_cu: u32,
    /// Maximum concurrently resident work groups per compute unit.
    pub wg_slots_per_cu: u32,
    /// Fixed hardware cost of dispatching one work group to a compute unit
    /// (pipeline setup, descriptor fetch). Persistent accelOS workers pay it
    /// once per worker instead of once per original work group — one of the
    /// two sources of the paper's single-kernel speedup (§8.5).
    pub wg_dispatch_overhead: u64,
    /// Cost of one atomic dequeue operation on the software virtual-group
    /// queue (accelOS's scheduling operation, §6.4).
    pub atomic_op_cost: u64,
    /// Instruction-issue capacity as a fraction of total resident threads:
    /// the device can make progress on at most `issue_capacity_frac *
    /// total_threads()` compute-bound thread-cycles per cycle. Resident
    /// work whose compute demand exceeds this is slowed proportionally
    /// (snapshot at segment start; see `Simulator`). Values below 1 mean
    /// full occupancy exists to *hide latency*, not to multiply
    /// throughput — the mechanism behind co-scheduling symbiosis.
    pub issue_capacity_frac: f64,
    /// Memory-bandwidth capacity as a fraction of total resident threads,
    /// analogous to [`DeviceConfig::issue_capacity_frac`] for the
    /// memory-bound share of each kernel.
    pub mem_capacity_frac: f64,
    /// Global device memory in bytes (the accelOS memory manager pauses
    /// applications when concurrent allocations exceed it, paper §5).
    pub global_mem_bytes: u64,
}

impl DeviceConfig {
    /// Preset mirroring the NVIDIA Tesla K20m used in the paper (13 SMX,
    /// 2048 resident threads and 48 KiB shared memory per SMX).
    pub fn k20m() -> Self {
        DeviceConfig {
            name: "NVIDIA Tesla K20m (simulated)".into(),
            num_cus: 13,
            threads_per_cu: 2048,
            local_mem_per_cu: 48 * 1024,
            regs_per_cu: 65_536,
            wg_slots_per_cu: 16,
            wg_dispatch_overhead: 90,
            atomic_op_cost: 4,
            issue_capacity_frac: 0.65,
            mem_capacity_frac: 0.35,
            global_mem_bytes: 5 * 1024 * 1024 * 1024,
        }
    }

    /// Preset mirroring one GPU of the AMD R9 295X2 used in the paper
    /// (44 CUs, 2560 resident threads and 32 KiB usable LDS per CU).
    pub fn r9_295x2() -> Self {
        DeviceConfig {
            name: "AMD R9 295X2 (simulated)".into(),
            num_cus: 44,
            threads_per_cu: 2560,
            local_mem_per_cu: 32 * 1024,
            regs_per_cu: 65_536,
            wg_slots_per_cu: 16,
            wg_dispatch_overhead: 100,
            // The R9 has ~4x the K20m's parallel width and its L2 atomic
            // throughput scales with the wider memory system, so the
            // serial dequeue window is proportionally smaller.
            atomic_op_cost: 1,
            issue_capacity_frac: 0.70,
            mem_capacity_frac: 0.40,
            global_mem_bytes: 4 * 1024 * 1024 * 1024,
        }
    }

    /// A tiny device useful in unit tests (2 CUs, 128 threads each).
    pub fn test_tiny() -> Self {
        DeviceConfig {
            name: "test-tiny".into(),
            num_cus: 2,
            threads_per_cu: 128,
            local_mem_per_cu: 1024,
            regs_per_cu: 4096,
            wg_slots_per_cu: 4,
            wg_dispatch_overhead: 10,
            atomic_op_cost: 5,
            issue_capacity_frac: 1.0,
            mem_capacity_frac: 1.0,
            global_mem_bytes: 1024 * 1024,
        }
    }

    /// Total resident threads across the device (the `T` of §3).
    pub fn total_threads(&self) -> u64 {
        self.num_cus as u64 * self.threads_per_cu as u64
    }

    /// Total local memory across the device (the `L` of §3).
    pub fn total_local_mem(&self) -> u64 {
        self.num_cus as u64 * self.local_mem_per_cu as u64
    }

    /// Total registers across the device (the `R` of §3).
    pub fn total_regs(&self) -> u64 {
        self.num_cus as u64 * self.regs_per_cu as u64
    }
}

/// Resources one work group occupies while resident on a compute unit.
///
/// # Examples
///
/// ```
/// use gpu_sim::WorkGroupReq;
/// let req = WorkGroupReq { threads: 256, local_mem: 4096, regs_per_thread: 20 };
/// assert_eq!(req.regs_total(), 256 * 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkGroupReq {
    /// Work items per work group.
    pub threads: u32,
    /// Local memory bytes per work group.
    pub local_mem: u32,
    /// Registers per work item.
    pub regs_per_thread: u32,
}

impl WorkGroupReq {
    /// Registers the whole work group occupies.
    pub fn regs_total(&self) -> u32 {
        self.threads * self.regs_per_thread
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_distinct() {
        let k = DeviceConfig::k20m();
        let r = DeviceConfig::r9_295x2();
        assert_ne!(k, r);
        assert!(r.num_cus > k.num_cus);
    }

    #[test]
    fn totals() {
        let d = DeviceConfig::test_tiny();
        assert_eq!(d.total_threads(), 256);
        assert_eq!(d.total_local_mem(), 2048);
        assert_eq!(d.total_regs(), 8192);
    }

    #[test]
    fn wg_req_regs() {
        let req = WorkGroupReq {
            threads: 64,
            local_mem: 0,
            regs_per_thread: 10,
        };
        assert_eq!(req.regs_total(), 640);
    }
}
