//! # parboil — the Parboil benchmark kernels in MiniCL
//!
//! The workload substrate of the accelOS (CGO 2016) reproduction: the 25
//! OpenCL kernels of the Parboil suite (Stratton et al.), re-implemented in
//! the MiniCL dialect with dataset generators and launch/cost profiles.
//!
//! Each [`KernelSpec`] carries two kinds of facts:
//!
//! * **compiled facts** — registers, local memory, instruction counts —
//!   obtained by actually compiling the bundled source through `minicl`
//!   (see [`KernelSpec::profile`] / [`KernelDb`]);
//! * **calibrated launch facts** — default work-group counts, per-group
//!   cost and imbalance, memory intensity — set per kernel to mirror the
//!   qualitative behaviour reported for Parboil in the literature
//!   (irregular kernels like `bfs`/`spmv`/`gridding_GPU` are imbalanced,
//!   `lbm`/`stencil` are regular and memory-bound, `sgemm`/`ComputeQ` are
//!   compute-bound, `uniformAdd`/`ComputePhiMag` are the paper's "small
//!   kernels").
//!
//! # Examples
//!
//! ```
//! let specs = parboil::KernelSpec::all();
//! assert_eq!(specs.len(), 25);
//! let bfs = parboil::KernelSpec::by_name("bfs").unwrap();
//! let module = bfs.compile().unwrap();
//! assert_eq!(module.kernel_names(), vec!["bfs_kernel"]);
//! ```

#![warn(missing_docs)]

pub mod datasets;
mod draw;
pub mod sources;

use kernel_ir::ir::Module;
use kernel_ir::KernelProfile;
use minicl::CompileError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One Parboil kernel: source, entry point, and launch/cost profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelSpec {
    /// Benchmark the kernel belongs to (`"mri-gridding"`, `"sad"`, …).
    pub benchmark: &'static str,
    /// Unique kernel name used throughout the harness (`"bfs"`,
    /// `"histo_main"`, `"mri-q_ComputeQ"`, …), alphabetically orderable the
    /// way the paper's fig. 11 pairs kernels.
    pub name: &'static str,
    /// Entry-point function inside [`KernelSpec::source`].
    pub entry: &'static str,
    /// MiniCL source text.
    pub source: &'static str,
    /// Work-group size (threads) of the canonical launch.
    pub wg_size: u32,
    /// Local shape of the canonical launch (product equals `wg_size`).
    pub local_shape: [usize; 3],
    /// Work groups of the canonical (sweep-scale) NDRange.
    pub default_wgs: u64,
    /// Mean execution cost of one work group, in model cycles.
    pub base_cost: u64,
    /// Coefficient of variation of per-work-group cost (the imbalance that
    /// dynamic scheduling exploits).
    pub imbalance: f64,
    /// Fraction of execution bound on memory bandwidth (0..=1).
    pub mem_intensity: f64,
}

/// The canonical sweep-scale table: all 25 Parboil kernels.
const SPECS: &[KernelSpec] = &[
    KernelSpec {
        benchmark: "bfs",
        name: "bfs",
        entry: "bfs_kernel",
        source: sources::BFS,
        wg_size: 512,
        local_shape: [512, 1, 1],
        default_wgs: 1536,
        base_cost: 900,
        imbalance: 0.80,
        mem_intensity: 0.70,
    },
    KernelSpec {
        benchmark: "cutcp",
        name: "cutcp",
        entry: "cutcp",
        source: sources::CUTCP,
        wg_size: 128,
        local_shape: [16, 8, 1],
        default_wgs: 2048,
        base_cost: 1600,
        imbalance: 0.15,
        mem_intensity: 0.20,
    },
    KernelSpec {
        benchmark: "histo",
        name: "histo_final",
        entry: "histo_final",
        source: sources::HISTO_FINAL,
        wg_size: 256,
        local_shape: [256, 1, 1],
        default_wgs: 6144,
        base_cost: 250,
        imbalance: 0.02,
        mem_intensity: 0.90,
    },
    KernelSpec {
        benchmark: "histo",
        name: "histo_intermediates",
        entry: "histo_intermediates",
        source: sources::HISTO_INTERMEDIATES,
        wg_size: 256,
        local_shape: [256, 1, 1],
        default_wgs: 6144,
        base_cost: 275,
        imbalance: 0.05,
        mem_intensity: 0.90,
    },
    KernelSpec {
        benchmark: "histo",
        name: "histo_main",
        entry: "histo_main",
        source: sources::HISTO_MAIN,
        wg_size: 256,
        local_shape: [256, 1, 1],
        default_wgs: 1536,
        base_cost: 1400,
        imbalance: 0.35,
        mem_intensity: 0.60,
    },
    KernelSpec {
        benchmark: "histo",
        name: "histo_prescan",
        entry: "histo_prescan",
        source: sources::HISTO_PRESCAN,
        wg_size: 128,
        local_shape: [128, 1, 1],
        default_wgs: 3072,
        base_cost: 500,
        imbalance: 0.05,
        mem_intensity: 0.80,
    },
    KernelSpec {
        benchmark: "lbm",
        name: "lbm",
        entry: "lbm",
        source: sources::LBM,
        wg_size: 128,
        local_shape: [128, 1, 1],
        default_wgs: 2048,
        base_cost: 1600,
        imbalance: 0.05,
        mem_intensity: 0.95,
    },
    KernelSpec {
        benchmark: "mri-gridding",
        name: "mri-gridding_GPU",
        entry: "gridding_GPU",
        source: sources::MRIG_GRIDDING,
        wg_size: 256,
        local_shape: [256, 1, 1],
        default_wgs: 2048,
        base_cost: 1600,
        imbalance: 0.70,
        mem_intensity: 0.50,
    },
    KernelSpec {
        benchmark: "mri-gridding",
        name: "mri-gridding_binning",
        entry: "binning_kernel",
        source: sources::MRIG_BINNING,
        wg_size: 256,
        local_shape: [256, 1, 1],
        default_wgs: 2048,
        base_cost: 600,
        imbalance: 0.10,
        mem_intensity: 0.80,
    },
    KernelSpec {
        benchmark: "mri-gridding",
        name: "mri-gridding_reorder",
        entry: "reorder_kernel",
        source: sources::MRIG_REORDER,
        wg_size: 256,
        local_shape: [256, 1, 1],
        default_wgs: 2048,
        base_cost: 650,
        imbalance: 0.30,
        mem_intensity: 0.90,
    },
    KernelSpec {
        benchmark: "mri-gridding",
        name: "mri-gridding_scan_L1",
        entry: "scan_L1_kernel",
        source: sources::MRIG_SCAN_L1,
        wg_size: 256,
        local_shape: [256, 1, 1],
        default_wgs: 2048,
        base_cost: 700,
        imbalance: 0.05,
        mem_intensity: 0.70,
    },
    KernelSpec {
        benchmark: "mri-gridding",
        name: "mri-gridding_scan_inter1",
        entry: "scan_inter1_kernel",
        source: sources::MRIG_SCAN_INTER1,
        wg_size: 64,
        local_shape: [64, 1, 1],
        default_wgs: 1024,
        base_cost: 1500,
        imbalance: 0.90,
        mem_intensity: 0.60,
    },
    KernelSpec {
        benchmark: "mri-gridding",
        name: "mri-gridding_scan_inter2",
        entry: "scan_inter2_kernel",
        source: sources::MRIG_SCAN_INTER2,
        wg_size: 256,
        local_shape: [256, 1, 1],
        default_wgs: 6144,
        base_cost: 250,
        imbalance: 0.05,
        mem_intensity: 0.90,
    },
    KernelSpec {
        benchmark: "mri-gridding",
        name: "mri-gridding_splitRearrange",
        entry: "splitRearrange",
        source: sources::MRIG_SPLIT_REARRANGE,
        wg_size: 256,
        local_shape: [256, 1, 1],
        default_wgs: 6144,
        base_cost: 260,
        imbalance: 0.15,
        mem_intensity: 0.95,
    },
    KernelSpec {
        benchmark: "mri-gridding",
        name: "mri-gridding_splitSort",
        entry: "splitSort",
        source: sources::MRIG_SPLIT_SORT,
        wg_size: 128,
        local_shape: [128, 1, 1],
        default_wgs: 1536,
        base_cost: 1700,
        imbalance: 0.10,
        mem_intensity: 0.50,
    },
    KernelSpec {
        benchmark: "mri-gridding",
        name: "mri-gridding_uniformAdd",
        entry: "uniformAdd",
        source: sources::MRIG_UNIFORM_ADD,
        wg_size: 256,
        local_shape: [256, 1, 1],
        default_wgs: 6144,
        base_cost: 225,
        imbalance: 0.02,
        mem_intensity: 0.95,
    },
    KernelSpec {
        benchmark: "mri-q",
        name: "mri-q_ComputePhiMag",
        entry: "ComputePhiMag",
        source: sources::MRIQ_PHIMAG,
        wg_size: 256,
        local_shape: [256, 1, 1],
        default_wgs: 6144,
        base_cost: 250,
        imbalance: 0.02,
        mem_intensity: 0.90,
    },
    KernelSpec {
        benchmark: "mri-q",
        name: "mri-q_ComputeQ",
        entry: "ComputeQ",
        source: sources::MRIQ_COMPUTEQ,
        wg_size: 256,
        local_shape: [256, 1, 1],
        default_wgs: 2048,
        base_cost: 1600,
        imbalance: 0.05,
        mem_intensity: 0.10,
    },
    KernelSpec {
        benchmark: "sad",
        name: "sad_calc",
        entry: "mb_sad_calc",
        source: sources::SAD_CALC,
        wg_size: 128,
        local_shape: [32, 4, 1],
        default_wgs: 2048,
        base_cost: 1100,
        imbalance: 0.10,
        mem_intensity: 0.60,
    },
    KernelSpec {
        benchmark: "sad",
        name: "sad_calc_16",
        entry: "larger_sad_calc_16",
        source: sources::SAD_CALC_16,
        wg_size: 128,
        local_shape: [16, 8, 1],
        default_wgs: 3072,
        base_cost: 450,
        imbalance: 0.05,
        mem_intensity: 0.85,
    },
    KernelSpec {
        benchmark: "sad",
        name: "sad_calc_8",
        entry: "larger_sad_calc_8",
        source: sources::SAD_CALC_8,
        wg_size: 128,
        local_shape: [32, 4, 1],
        default_wgs: 3072,
        base_cost: 470,
        imbalance: 0.05,
        mem_intensity: 0.85,
    },
    KernelSpec {
        benchmark: "sgemm",
        name: "sgemm",
        entry: "sgemm",
        source: sources::SGEMM,
        wg_size: 128,
        local_shape: [64, 2, 1],
        default_wgs: 2048,
        base_cost: 1600,
        imbalance: 0.08,
        mem_intensity: 0.35,
    },
    KernelSpec {
        benchmark: "spmv",
        name: "spmv",
        entry: "spmv",
        source: sources::SPMV,
        wg_size: 128,
        local_shape: [128, 1, 1],
        default_wgs: 2048,
        base_cost: 800,
        imbalance: 0.90,
        mem_intensity: 0.85,
    },
    KernelSpec {
        benchmark: "stencil",
        name: "stencil",
        entry: "stencil",
        source: sources::STENCIL,
        wg_size: 256,
        local_shape: [256, 1, 1],
        default_wgs: 3072,
        base_cost: 600,
        imbalance: 0.03,
        mem_intensity: 0.90,
    },
    KernelSpec {
        benchmark: "tpacf",
        name: "tpacf",
        entry: "tpacf",
        source: sources::TPACF,
        wg_size: 128,
        local_shape: [128, 1, 1],
        default_wgs: 2048,
        base_cost: 1600,
        imbalance: 0.20,
        mem_intensity: 0.30,
    },
];

impl KernelSpec {
    /// All 25 kernels, sorted by [`KernelSpec::name`] (the alphabetical
    /// order the paper's fig. 11 pairs by).
    pub fn all() -> &'static [KernelSpec] {
        SPECS
    }

    /// Look a kernel up by its unique name.
    pub fn by_name(name: &str) -> Option<&'static KernelSpec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// Compile the bundled source to a verified IR module.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] (which would indicate a bug in the
    /// bundled sources — the test suite compiles all 25).
    pub fn compile(&self) -> Result<Module, CompileError> {
        minicl::compile(self.source)
    }

    /// Compile and profile the kernel (registers, local memory, instruction
    /// count). Use [`KernelDb`] to amortise compilation across many calls.
    ///
    /// # Errors
    ///
    /// Propagates compile errors as in [`KernelSpec::compile`].
    pub fn profile(&self) -> Result<KernelProfile, CompileError> {
        let module = self.compile()?;
        KernelProfile::of(&module, self.entry)
            .map_err(|e| CompileError::new(format!("profiling `{}`: {e}", self.name)))
    }

    /// Deterministic per-work-group cost samples: mean [`Self::base_cost`],
    /// coefficient of variation [`Self::imbalance`], reproducible for a
    /// given `(kernel, n, seed)`.
    ///
    /// Draw `i` takes the next two uniforms `a`, `b` in `[0, 1)` from a
    /// [`StdRng`] seeded with `seed` XOR the FNV-1a hash of [`Self::name`],
    /// sets `u1 = max(a, 1e-12)` and `u2 = b`, forms the Box–Muller normal
    /// `z = sqrt(−2 ln u1) · cos(2π u2)`, and returns
    /// `max(1, round(base_cost · max(0.05, 1 + imbalance · z)))`: the factor
    /// is floored at 0.05, `round` rounds half away from zero, and no cost
    /// is below 1. Every value is exactly what that formula gives in `f64`
    /// with libm's `ln` and `cos`, on every CPU.
    pub fn vg_costs(&self, n: usize, seed: u64) -> Vec<u64> {
        let mut out = vec![0; n];
        self.fill_vg_costs(seed, &mut out);
        out
    }

    /// [`Self::vg_costs`] for `n = out.len()`, written into `out`.
    pub fn fill_vg_costs(&self, seed: u64, out: &mut [u64]) {
        draw::fill(
            self.base_cost,
            self.imbalance,
            &mut self.cost_rng(seed),
            out,
        );
    }

    /// The uniform stream of [`Self::vg_costs`].
    fn cost_rng(&self, seed: u64) -> StdRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        StdRng::seed_from_u64(seed ^ h)
    }

    /// The canonical sweep-scale NDRange (all `default_wgs` groups laid out
    /// along dimension 0 of the local shape).
    pub fn default_ndrange(&self) -> kernel_ir::interp::NdRange {
        let l = self.local_shape;
        kernel_ir::interp::NdRange {
            work_dim: if l[1] > 1 || l[2] > 1 { 2 } else { 1 },
            global: [l[0] * self.default_wgs as usize, l[1], l[2]],
            local: l,
        }
    }
}

/// All 25 kernels compiled once, with cached profiles — what sweeps use.
///
/// # Examples
///
/// ```
/// let db = parboil::KernelDb::load().unwrap();
/// let (spec, profile) = db.get("sgemm").unwrap();
/// assert_eq!(spec.name, "sgemm");
/// assert!(profile.static_local_bytes > 0, "sgemm tiles B in local memory");
/// ```
#[derive(Debug, Clone)]
pub struct KernelDb {
    entries: Vec<(&'static KernelSpec, KernelProfile)>,
}

impl KernelDb {
    /// Compile and profile every kernel.
    ///
    /// # Errors
    ///
    /// Propagates the first compile error (none for the bundled sources).
    pub fn load() -> Result<KernelDb, CompileError> {
        let entries = SPECS
            .iter()
            .map(|s| Ok((s, s.profile()?)))
            .collect::<Result<Vec<_>, CompileError>>()?;
        Ok(KernelDb { entries })
    }

    /// Spec and profile by kernel name.
    pub fn get(&self, name: &str) -> Option<(&'static KernelSpec, &KernelProfile)> {
        self.entries
            .iter()
            .find(|(s, _)| s.name == name)
            .map(|(s, p)| (*s, p))
    }

    /// All entries in table (alphabetical) order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static KernelSpec, &KernelProfile)> {
        self.entries.iter().map(|(s, p)| (*s, p))
    }

    /// Number of kernels (25).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty (never, for the bundled table).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_five_kernels_with_unique_names() {
        assert_eq!(KernelSpec::all().len(), 25);
        let mut names: Vec<&str> = KernelSpec::all().iter().map(|s| s.name).collect();
        let sorted = {
            let mut s = names.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(names, sorted, "table must be in alphabetical order");
        names.dedup();
        assert_eq!(names.len(), 25, "names must be unique");
    }

    #[test]
    fn every_kernel_compiles_and_profiles() {
        for spec in KernelSpec::all() {
            let module = spec.compile().unwrap_or_else(|e| {
                panic!("`{}` failed to compile: {e}", spec.name);
            });
            assert_eq!(
                module.kernel_names(),
                vec![spec.entry],
                "`{}` entry point mismatch",
                spec.name
            );
            let profile = spec.profile().unwrap();
            assert!(profile.insn_count > 0);
        }
    }

    #[test]
    fn local_shapes_match_wg_sizes() {
        for spec in KernelSpec::all() {
            let p: usize = spec.local_shape.iter().product();
            assert_eq!(p, spec.wg_size as usize, "`{}` local shape", spec.name);
            assert_eq!(
                spec.default_ndrange().total_groups() as u64,
                spec.default_wgs
            );
        }
    }

    #[test]
    fn vg_costs_are_deterministic_and_shaped() {
        let bfs = KernelSpec::by_name("bfs").unwrap();
        let a = bfs.vg_costs(1000, 42);
        let b = bfs.vg_costs(1000, 42);
        assert_eq!(a, b);
        let c = bfs.vg_costs(1000, 43);
        assert_ne!(a, c, "different seeds give different draws");

        let mean = a.iter().sum::<u64>() as f64 / a.len() as f64;
        assert!((mean - bfs.base_cost as f64).abs() < bfs.base_cost as f64 * 0.15);

        // Regular kernels have much tighter distributions.
        let stencil = KernelSpec::by_name("stencil").unwrap();
        let s = stencil.vg_costs(1000, 42);
        let cv = |xs: &[u64]| {
            let m = xs.iter().sum::<u64>() as f64 / xs.len() as f64;
            let v = xs.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / xs.len() as f64;
            v.sqrt() / m
        };
        assert!(
            cv(&a) > 4.0 * cv(&s),
            "bfs must be far more imbalanced than stencil"
        );
    }

    #[test]
    fn db_loads_all() {
        let db = KernelDb::load().unwrap();
        assert_eq!(db.len(), 25);
        assert!(!db.is_empty());
        assert!(db.get("tpacf").is_some());
        assert!(db.get("nope").is_none());
        // Kernels using local tiles report local memory.
        let (_, histo_main) = db.get("histo_main").unwrap();
        assert!(histo_main.static_local_bytes >= 256 * 4);
        let (_, sgemm) = db.get("sgemm").unwrap();
        assert!(sgemm.uses_barrier);
    }

    #[test]
    fn small_kernels_have_small_insn_counts() {
        // The paper's §6.4 adaptive scheduling needs the tiny kernels to
        // actually look tiny to the chunk heuristic.
        let db = KernelDb::load().unwrap();
        let (_, ua) = db.get("mri-gridding_uniformAdd").unwrap();
        let (_, pm) = db.get("mri-q_ComputePhiMag").unwrap();
        let (_, gq) = db.get("mri-q_ComputeQ").unwrap();
        assert!(
            ua.insn_count < 40,
            "uniformAdd is a small kernel: {}",
            ua.insn_count
        );
        assert!(
            pm.insn_count < 40,
            "ComputePhiMag is a small kernel: {}",
            pm.insn_count
        );
        assert!(
            gq.insn_count > 40,
            "ComputeQ is not small: {}",
            gq.insn_count
        );
    }
}
