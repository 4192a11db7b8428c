//! `perfbench` — the measuring half of the benchmark (`run.py` is the
//! driver that generates inputs, builds this binary and checks results).
//!
//! Usage: `perfbench --workload <sweep|tenants|churn> --seconds <s>
//! --trace <0|1> [--trace-out <file>] < inputs`
//!
//! The inputs on stdin are generated by the driver (one record per line,
//! whitespace-separated); the workload seed never reaches this program.
//! With `--trace 0` the run repeats the workload's passes until `--seconds`
//! of op time has been measured and reports the end-to-end metrics. With
//! `--trace 1` it runs one pass through the public entry points (untimed
//! reference) and one pass that drives the same layers one public call at
//! a time under spans, checks that both give identical results, and
//! reports per-layer metrics.
//!
//! Output: one JSON object on the last line of stdout with the op counts,
//! the failed checks, every metric as `[value, unit]`, and run facts.

mod churn;
mod sweep;
mod tenants;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

/// Set-up samples every run takes, at least (their median is `setup_s`).
const MIN_SETUPS: usize = 5;

/// Whitespace-tokenised input records, in input order.
pub struct Input {
    records: Vec<Vec<String>>,
}

impl Input {
    fn parse(text: &str) -> Self {
        Input {
            records: text
                .lines()
                .map(|l| l.split_whitespace().map(str::to_string).collect::<Vec<_>>())
                .filter(|r| !r.is_empty())
                .collect(),
        }
    }

    /// Every record whose first token is `key`, without the key.
    pub fn all(&self, key: &str) -> Vec<&[String]> {
        self.records
            .iter()
            .filter(|r| r[0] == key)
            .map(|r| &r[1..])
            .collect()
    }

    /// The one record keyed `key`.
    pub fn one(&self, key: &str) -> Result<&[String], String> {
        match self.all(key).as_slice() {
            [r] => Ok(r),
            other => Err(format!("expected one `{key}` record, got {}", other.len())),
        }
    }
}

/// Parse token `i` of a record.
pub fn field<T: std::str::FromStr>(rec: &[String], i: usize) -> Result<T, String> {
    rec.get(i)
        .ok_or_else(|| format!("record {rec:?} has no field {i}"))?
        .parse()
        .map_err(|_| format!("bad field {i} in record {rec:?}"))
}

/// Process CPU time (user + system, every thread) in seconds.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linear-interpolated quantile `q` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// 64-bit FNV-1a over words: the digest of bit-exact outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        self.word(bs.len() as u64);
        for &b in bs {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// What one pass measured: its ops and op time, and the index ranges of
/// its samples in [`Measure::op_ms`], `build_ms`, `wall_ms` and `cpu_ms`.
pub struct Pass {
    ops: u64,
    busy_s: f64,
    op_ms: Range<usize>,
    build_ms: Range<usize>,
    timed: Range<usize>,
}

/// What one run measured.
#[derive(Default)]
pub struct Measure {
    /// Ops attempted and ops whose output check failed.
    pub ops: u64,
    pub failed: u64,
    /// First few check failures, for the log.
    pub failures: Vec<String>,
    /// Latency samples of the workload's op (ms).
    pub op_ms: Vec<f64>,
    /// Latency samples of program builds (`tenants` only, ms).
    pub build_ms: Vec<f64>,
    /// Wall and process CPU time of every timed call, in call order (ms).
    pub wall_ms: Vec<f64>,
    pub cpu_ms: Vec<f64>,
    /// Op time spent inside timed calls (s).
    pub busy_s: f64,
    /// Set-up samples (s).
    pub setup_s: Vec<f64>,
    /// What each pass measured.
    pub passes: Vec<Pass>,
    /// Workload-specific metrics: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Facts to record with the result (digests, sizes).
    pub info: BTreeMap<String, String>,
}

impl Measure {
    /// Time one op: its wall and CPU time count toward the run.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let (w, c) = (Instant::now(), cpu_seconds());
        let out = f();
        let secs = w.elapsed().as_secs_f64();
        self.busy_s += secs;
        self.wall_ms.push(secs * 1e3);
        self.cpu_ms.push((cpu_seconds() - c) * 1e3);
        (out, secs * 1e3)
    }

    /// Record a failed output check covering `ops` ops.
    pub fn fail(&mut self, ops: u64, msg: String) {
        self.failed += ops;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Run `setup` `reps` times as one set-up sample (the mean time per
    /// set-up) and return what the last one built.
    pub fn setup<S>(&mut self, reps: u32, mut setup: impl FnMut() -> S) -> S {
        let t = Instant::now();
        let mut s = setup();
        for _ in 1..reps {
            s = setup();
        }
        self.setup_s
            .push(t.elapsed().as_secs_f64() / f64::from(reps));
        s
    }

    /// Run passes (each after a fresh timed set-up of `setup_reps`
    /// repetitions) until `seconds` of op time are measured, then top the
    /// set-up samples up to [`MIN_SETUPS`].
    pub fn passes<S>(
        &mut self,
        seconds: f64,
        setup_reps: u32,
        mut setup: impl FnMut() -> S,
        mut pass: impl FnMut(&mut Measure, &mut S, u64),
    ) {
        loop {
            let mut state = self.setup(setup_reps, &mut setup);
            let (ops, busy) = (self.ops, self.busy_s);
            let (op_ms, build_ms) = (self.op_ms.len(), self.build_ms.len());
            let timed = self.wall_ms.len();
            pass(self, &mut state, self.passes.len() as u64);
            self.passes.push(Pass {
                ops: self.ops - ops,
                busy_s: self.busy_s - busy,
                op_ms: op_ms..self.op_ms.len(),
                build_ms: build_ms..self.build_ms.len(),
                timed: timed..self.wall_ms.len(),
            });
            if self.busy_s >= seconds {
                break;
            }
        }
        while self.setup_s.len() < MIN_SETUPS {
            drop(self.setup(setup_reps, &mut setup));
        }
    }
}

/// The per-layer side of a traced run.
pub struct Traced {
    pub tracer: trace::Tracer,
    /// Wall time of the untraced reference pass and of the traced pass (ms).
    pub untraced_ms: f64,
    pub traced_ms: f64,
    /// Ops the traced pass ran (`op` spans).
    pub ops: u64,
    /// Mismatches between the traced pass and the entry points.
    pub mismatches: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Traced {
    pub fn new(tracer: trace::Tracer) -> Self {
        Traced {
            tracer,
            untraced_ms: 0.0,
            traced_ms: 0.0,
            ops: 0,
            mismatches: Vec::new(),
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record a mismatch when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatch(what());
        }
    }

    /// Record a mismatch (the first few are kept for the log).
    pub fn mismatch(&mut self, msg: String) {
        if self.mismatches.len() < 8 {
            self.mismatches.push(msg);
        }
    }

    /// Counter `name` as a metric of unit `count`.
    pub fn count(&mut self, name: &'static str) {
        let v = self.tracer.counter(name);
        self.metric(name, v, "count");
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn emit(
    workload: &str,
    ops: u64,
    failed: u64,
    failures: &[String],
    metrics: &[(String, f64, &'static str)],
    info: &BTreeMap<String, String>,
) {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\":{},\"ops\":{ops},\"failed\":{failed},\"failures\":[{}],\"metrics\":{{",
        json_str(workload),
        failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(",")
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}:[{},{}]",
            if i == 0 { "" } else { "," },
            json_str(name),
            json_num(*v),
            json_str(unit)
        );
    }
    s.push_str("},\"info\":{");
    for (i, (k, v)) in info.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}:{}",
            if i == 0 { "" } else { "," },
            json_str(k),
            json_str(v)
        );
    }
    s.push_str("}}");
    println!("{s}");
}

/// Each op's best sample: slot `i` is the minimum of sample `i` of every
/// pass (every pass runs the same ops in the same order).
fn best_of(xs: &[f64], passes: &[Pass], range: impl Fn(&Pass) -> Range<usize>) -> Vec<f64> {
    let slots = passes.iter().map(|p| range(p).len()).min().unwrap_or(0);
    (0..slots)
        .map(|i| {
            passes
                .iter()
                .map(|p| xs[range(p).start + i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// End-to-end metrics of an untraced run. Host-time metrics take each
/// op's best time over the passes (each pass runs the same ops): the
/// shared host's speed drifts by tens of percent over seconds, and a
/// best-of-n time moves far less with it than a run-long total does.
fn finish_measure(workload: &str, mut m: Measure) {
    let best = |xs: &[f64], range: &dyn Fn(&Pass) -> Range<usize>| best_of(xs, &m.passes, range);
    let op_ms = best(&m.op_ms, &|p| p.op_ms.clone());
    let build_ms = best(&m.build_ms, &|p| p.build_ms.clone());
    let wall_ms: f64 = best(&m.wall_ms, &|p| p.timed.clone()).iter().sum();
    let cpu_ms: f64 = best(&m.cpu_ms, &|p| p.timed.clone()).iter().sum();
    let ops = m.passes[0].ops.max(1) as f64;
    let mut metrics = vec![
        ("ops_per_s".to_string(), ops * 1e3 / wall_ms, "1/s"),
        ("op_p50_ms".to_string(), quantile(&op_ms, 0.5), "ms"),
        ("op_p90_ms".to_string(), quantile(&op_ms, 0.9), "ms"),
        ("cpu_ms_per_op".to_string(), cpu_ms / ops, "ms"),
        ("peak_rss_mb".to_string(), peak_rss_mb(), "MiB"),
        ("setup_s".to_string(), quantile(&m.setup_s, 0.5), "s"),
        (
            "error_rate".to_string(),
            m.failed as f64 / m.ops.max(1) as f64,
            "ratio",
        ),
    ];
    if !build_ms.is_empty() {
        metrics.push(("build_p50_ms".into(), quantile(&build_ms, 0.5), "ms"));
        metrics.push(("build_p90_ms".into(), quantile(&build_ms, 0.9), "ms"));
    }
    metrics.append(&mut m.metrics);
    let pass_s: Vec<String> = m
        .passes
        .iter()
        .map(|p| format!("{:.4}", p.busy_s))
        .collect();
    m.info.insert("passes".into(), m.passes.len().to_string());
    m.info.insert("pass_s".into(), pass_s.join(","));
    m.info
        .insert("op_samples".into(), m.op_ms.len().to_string());
    m.info
        .insert("build_samples".into(), m.build_ms.len().to_string());
    m.info.insert("measured_s".into(), format!("{}", m.busy_s));
    emit(workload, m.ops, m.failed, &m.failures, &metrics, &m.info);
}

/// Every per-layer metric a traced run reports besides self times; a
/// workload that never enters a layer reports its metrics as 0.
const LAYER_METRICS: [(&str, &str); 37] = [
    ("gpu_sim.co_runs", "count"),
    ("gpu_sim.solo_runs", "count"),
    ("gpu_sim.co_busy_ms", "ms"),
    ("gpu_sim.solo_busy_ms", "ms"),
    ("gpu_sim.groups", "count"),
    ("gpu_sim.groups_per_s", "1/s"),
    ("gpu_sim.faults_injected", "count"),
    ("gpu_sim.groups_retried", "count"),
    ("runner.rep_context_ms", "ms"),
    ("runner.solo_lookups", "count"),
    ("runner.solo_sims", "count"),
    ("runner.solo_launches_distinct", "count"),
    ("runner.cache_entries", "count"),
    ("policy.plan_calls", "count"),
    ("policy.plan_us", "us"),
    ("policy.reclaims", "count"),
    ("policy.resumes", "count"),
    ("fold.units", "count"),
    ("fold.peak_buffered", "count"),
    ("minicl.compile_us", "us"),
    ("jit.transform_us", "us"),
    ("accelcheck.facts_us", "us"),
    ("interp.launches", "count"),
    ("interp.insns", "count"),
    ("interp.busy_ms", "ms"),
    ("interp.ns_per_insn", "ns"),
    ("interp.tree_fallbacks", "count"),
    ("interp.parallel_launches", "count"),
    ("proxycl.incarnations", "count"),
    ("profile.estimates", "count"),
    ("profile.hits", "count"),
    ("profile.records", "count"),
    ("sched_metrics.us_per_run", "us"),
    ("build_p50_ms", "ms"),
    ("build_p90_ms", "ms"),
    ("deadline_hold_rate", "ratio"),
    ("error_rate", "ratio"),
];

/// Per-layer metrics of a traced run: the workload's own counters plus
/// self time per layer, the ops' unattributed time and the overhead.
fn finish_traced(workload: &str, mut t: Traced, trace_out: Option<&str>) {
    let mut info = BTreeMap::new();
    if let Some(path) = trace_out {
        match t.tracer.write_chrome(std::path::Path::new(path)) {
            Ok(()) => {
                info.insert("trace_file".to_string(), path.to_string());
            }
            Err(e) => t.mismatches.push(format!("writing {path}: {e}")),
        }
    }
    // A mismatch means the per-layer numbers may not describe the
    // entry points' work: the whole traced run counts as failed.
    let failed = if t.mismatches.is_empty() {
        0
    } else {
        t.ops.max(1)
    };
    t.metric("error_rate", failed as f64 / t.ops.max(1) as f64, "ratio");
    for (name, unit) in LAYER_METRICS {
        if !t.metrics.iter().any(|(n, _, _)| n == name) {
            t.metric(name, 0.0, unit);
        }
    }
    let self_ns = t.tracer.self_ns_by_layer();
    let ms = |layer: &str| self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6;
    for layer in [
        "gpu_sim",
        "runner",
        "policy",
        "fold",
        "minicl",
        "jit",
        "accelcheck",
        "interp",
        "proxycl",
        "profile",
        "sched_metrics",
        "op",
    ] {
        t.metric(&format!("{layer}.self_ms"), ms(layer), "ms");
    }
    t.metric("trace.bench_ms", ms("bench"), "ms");
    t.metric("trace.untraced_ms", t.untraced_ms, "ms");
    t.metric("trace.traced_ms", t.traced_ms, "ms");
    t.metric("trace.overhead_ms", t.traced_ms - t.untraced_ms, "ms");
    emit(workload, t.ops, failed, &t.mismatches, &t.metrics, &info);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let usage = "usage: perfbench --workload <sweep|tenants|churn> --seconds <s> --trace <0|1> [--trace-out <file>] < inputs";
    let (Some(workload), Some(seconds), Some(traced)) =
        (arg("--workload"), arg("--seconds"), arg("--trace"))
    else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let seconds: f64 = seconds.parse().unwrap_or_else(|_| {
        eprintln!("{usage}");
        std::process::exit(2)
    });
    let traced = traced == "1";
    let mut text = String::new();
    if let Err(e) = std::io::Read::read_to_string(&mut std::io::stdin(), &mut text) {
        eprintln!("reading inputs: {e}");
        std::process::exit(2);
    }
    let input = Input::parse(&text);
    let result =
        match (workload.as_str(), traced) {
            ("sweep", false) => sweep::measure(&input, seconds).map(|m| finish_measure("sweep", m)),
            ("sweep", true) => sweep::trace(&input)
                .map(|t| finish_traced("sweep", t, arg("--trace-out").as_deref())),
            ("tenants", false) => {
                tenants::measure(&input, seconds).map(|m| finish_measure("tenants", m))
            }
            ("tenants", true) => tenants::trace(&input)
                .map(|t| finish_traced("tenants", t, arg("--trace-out").as_deref())),
            ("churn", false) => churn::measure(&input, seconds).map(|m| finish_measure("churn", m)),
            ("churn", true) => churn::trace(&input)
                .map(|t| finish_traced("churn", t, arg("--trace-out").as_deref())),
            (other, _) => Err(format!("unknown workload `{other}`\n{usage}")),
        };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
