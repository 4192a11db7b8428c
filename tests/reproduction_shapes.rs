//! The paper's headline claims, asserted at test scale on both device
//! presets. These are the result *shapes* the reproduction commits to:
//! who wins, in which direction, with sensible magnitudes — not the
//! absolute numbers of the authors' testbed.

use accel_harness::experiments::{device_sweeps, fig15, fig2, small_kernels};
use accel_harness::runner::Runner;
use accel_harness::workloads::SweepConfig;
use accelos::policy::PolicySet;
use gpu_sim::DeviceConfig;

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn devices() -> [DeviceConfig; 2] {
    [DeviceConfig::k20m(), DeviceConfig::r9_295x2()]
}

/// §1: "We dramatically improve fairness … [with] the added bonus of
/// improving system throughput", on every request size, on both platforms.
#[test]
fn headline_fairness_and_throughput() {
    let cfg = SweepConfig {
        pairs: 40,
        n4: 12,
        n8: 8,
        reps: 1,
        seed: 2016,
    };
    let set = PolicySet::paper();
    for device in devices() {
        let runner = Runner::new(device.clone());
        let sweeps = device_sweeps(&runner, &set, &cfg, 0);
        let accelos = sweeps.sizes[0].index_of("accelos").expect("in paper set");
        let ek = sweeps.sizes[0].index_of("ek").expect("in paper set");
        for sw in &sweeps.sizes {
            let fi = sw.avg_fairness_improvement(accelos);
            assert!(
                fi > 1.5,
                "{}, {} requests: accelOS fairness improvement {fi:.2}",
                device.name,
                sw.request_size
            );
            let ts = sw.avg_throughput_speedup(accelos);
            assert!(
                ts > 1.05,
                "{}, {} requests: accelOS throughput {ts:.2}",
                device.name,
                sw.request_size
            );
            // accelOS beats Elastic Kernels on both axes (fig. 9/13).
            let fi_ek = sw.avg_fairness_improvement(ek);
            let ts_ek = sw.avg_throughput_speedup(ek);
            assert!(fi > fi_ek, "accelOS {fi:.2} vs EK {fi_ek:.2} fairness");
            assert!(ts > ts_ek, "accelOS {ts:.2} vs EK {ts_ek:.2} throughput");
        }
        // Fairness improvements grow with the request count (fig. 10).
        let fis: Vec<f64> = sweeps
            .sizes
            .iter()
            .map(|s| s.avg_fairness_improvement(accelos))
            .collect();
        assert!(
            fis[0] < fis[2],
            "improvement should grow with tenancy: {fis:?}"
        );
    }
}

/// Fig. 12: overlap ordering — accelOS ≫ EK ≥ baseline, and baseline
/// overlap collapses as requests grow.
#[test]
fn overlap_ordering() {
    let cfg = SweepConfig {
        pairs: 40,
        n4: 12,
        n8: 8,
        reps: 1,
        seed: 2016,
    };
    let runner = Runner::new(DeviceConfig::k20m());
    let sweeps = device_sweeps(&runner, &PolicySet::paper(), &cfg, 0);
    for sw in &sweeps.sizes {
        let o = sw.avg_overlap();
        let (base, ek, acc) = (o[0], o[1], o[3]);
        assert!(
            acc > ek && acc > base,
            "{} rq: overlap {o:?}",
            sw.request_size
        );
        assert!(
            acc > 0.3,
            "{} rq: accelOS overlap {acc:.2}",
            sw.request_size
        );
    }
    let baseline_8rq = sweeps.sizes[2].avg_overlap()[0];
    assert!(
        baseline_8rq < 0.02,
        "8 requests serialise almost fully: {baseline_8rq:.3}"
    );
}

/// Fig. 2: the motivation workload — later arrivals are punished by the
/// baseline, accelOS evens the slowdowns and speeds the batch up.
#[test]
fn motivation_workload() {
    for device in devices() {
        let runner = Runner::new(device.clone());
        let f = fig2(&runner, 2016);
        assert!(
            f.baseline_slowdowns[3] > 2.0 * f.baseline_slowdowns[0],
            "{}: baseline slowdowns {:?}",
            device.name,
            f.baseline_slowdowns
        );
        let spread = |xs: &[f64]| {
            xs.iter().cloned().fold(f64::MIN, f64::max)
                / xs.iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(
            spread(&f.accelos_slowdowns) < spread(&f.baseline_slowdowns),
            "accelOS evens slowdowns"
        );
        assert!(f.unfairness.2 < f.unfairness.1, "accelOS fairer than EK");
        assert!(f.speedup.1 > 1.1, "accelOS speedup {:.2}", f.speedup.1);
    }
}

/// Fig. 15: single-kernel impact — optimized accelOS is a net win, naive
/// at worst a small loss, on both platforms (paper: 0.98x naive geomean,
/// 1.07x/1.10x optimized).
#[test]
fn single_kernel_impact() {
    for device in devices() {
        let runner = Runner::new(device.clone());
        let rows = fig15(&runner, 2016);
        assert_eq!(rows.len(), 25);
        let g_naive = geomean(&rows.iter().map(|r| r.naive).collect::<Vec<_>>());
        let g_opt = geomean(&rows.iter().map(|r| r.optimized).collect::<Vec<_>>());
        assert!(
            g_opt >= g_naive,
            "{}: opt {g_opt:.3} vs naive {g_naive:.3}",
            device.name
        );
        assert!(g_opt > 1.0, "{}: optimized geomean {g_opt:.3}", device.name);
        assert!(g_naive > 0.9, "{}: naive geomean {g_naive:.3}", device.name);
        // Per-kernel range stays within the paper's envelope (~0.9..1.2).
        for r in &rows {
            assert!(
                (0.85..=1.25).contains(&r.optimized),
                "{}: `{}` optimized {:.2}",
                device.name,
                r.name,
                r.optimized
            );
        }
    }
}

/// §8.5: tiny launches (2/4/8 work groups) stay within a few percent of
/// standard OpenCL.
#[test]
fn small_launches_stay_close() {
    for device in devices() {
        for row in small_kernels(&device, 2016) {
            assert!(
                row.rel_diff.abs() < 0.05,
                "{}: `{}` with {} WGs diverged {:.1}%",
                device.name,
                row.name,
                row.wgs,
                row.rel_diff * 100.0
            );
        }
    }
}
