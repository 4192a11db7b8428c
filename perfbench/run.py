#!/usr/bin/env python3
"""Benchmark driver for the accelOS reproduction.

Run one workload:

    python3 perfbench/run.py --workload <sweep|tenants|churn> --seed N \
        --seconds S --trace <0|1>

Builds `perfbench` (a Cargo package of its own) into `$CARGO_TARGET_DIR`
(default `.bench_build`), generates the workload's inputs from the seed,
runs the binary with them on stdin, checks its outputs and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are BENCHMARK.json's `end_to_end` ones, with
`--trace 1` its `per_layer` ones. The line before it is the full record
(every metric, host threads, pool size, source revision, seed, op count),
which is also appended to `<target>/perfbench/results.jsonl`.

Compare two result sets (JSONL files of such records):

    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

prints, for each (workload, end-to-end metric), both medians and quartiles
and a verdict (better, worse, unchanged or unresolved) using only the
bounds in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

KERNELS = [
    "bfs", "cutcp", "histo_final", "histo_intermediates", "histo_main",
    "histo_prescan", "lbm", "mri-gridding_GPU", "mri-gridding_binning",
    "mri-gridding_reorder", "mri-gridding_scan_L1", "mri-gridding_scan_inter1",
    "mri-gridding_scan_inter2", "mri-gridding_splitRearrange",
    "mri-gridding_splitSort", "mri-gridding_uniformAdd", "mri-q_ComputePhiMag",
    "mri-q_ComputeQ", "sad_calc", "sad_calc_16", "sad_calc_8", "sgemm", "spmv",
    "stencil", "tpacf",
]

# Inputs of one pass. Each pass draws every kernel the same number of
# times, so the work per pass hardly depends on the seed; the seed decides
# order, grouping, arrivals, faults and datasets.
TENANT_COPIES = 4        # copies of each kernel per tenants pass
# The seven kernels whose scale-1 enqueue costs most host time (14-150 ms
# each on a 2-thread x86 host; the other eighteen take 0.2-10 ms). Seven
# groups of four batches put the median batch inside the tpacf group and
# the 90th percentile inside the sgemm group, away from group boundaries.
HEAVY_TENANTS = {"sgemm", "cutcp", "mri-q_ComputeQ", "tpacf", "sad_calc",
                 "mri-gridding_splitSort", "mri-gridding_scan_L1"}
# A cut of `repro`'s default-scale grid (625 pairs, 256 4- and 8-kernel
# mixes, 3 reps) that a run repeats about ten times, as 130 `sweep` calls
# of one rep each: `(request size, workloads)`. Pairs are the first row of
# the square (bfs beside every kernel) under two cost seeds; every mix is
# its own call with its own seed. Short calls let each call's best time
# over the passes dodge the host's slow stretches, and 96 8-kernel mixes
# make peak memory, set by the costliest mix, hardly depend on the seed.
SWEEP_CALLS = [(2, 25)] * 2 + [(4, 1)] * 32 + [(8, 1)] * 96
CHURN_EPISODES = 600     # episodes per churn pass, 100 of each size 3..8
CHURN_COPIES = 132       # kernel slots per kernel per churn pass (600 x 5.5 / 25)
CHURN_POLICIES = ["accelos-priority", "accelos-deadline", "accelos-sla", "accelos-sla:2:0"]

# Worker threads per workload (default: every CPU the process may use).
# `sweep` runs on one: on a host whose CPUs are shared with other
# machines, a two-thread call waits for the slower CPU, so its time
# tracks the neighbours more than the code.
POOL = {"sweep": 1}

RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def state_dir():
    path = os.path.join(target_dir(), "perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def build():
    """Build the benchmark binary; return its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log("build failed")
        return None
    return os.path.join(target_dir(), "release", "perfbench")


# ---------------------------------------------------------------------
# Inputs (the program sees these, never the seed)
# ---------------------------------------------------------------------

def sweep_inputs(rng):
    calls = [f"call {k} {n} 1 {rng.randrange(1 << 32)}" for k, n in SWEEP_CALLS]
    rng.shuffle(calls)
    return ["device k20m", "policies baseline,ek,accelos-naive,accelos"] + calls


def cut(items, sizes):
    """Cut `items` into consecutive groups of the given sizes."""
    assert sum(sizes) == len(items)
    out, i = [], 0
    for n in sizes:
        out.append(items[i:i + n])
        i += n
    return out


def tenants_inputs(rng):
    # Every batch holds exactly one heavy application, so the batch
    # latency distribution (and its median) hardly depends on the seed.
    heavy = [k for k in KERNELS if k in HEAVY_TENANTS] * TENANT_COPIES
    light = [k for k in KERNELS if k not in HEAVY_TENANTS] * TENANT_COPIES
    rng.shuffle(heavy)
    rng.shuffle(light)
    # Light applications per batch: a fixed multiset of 1..3 (batch sizes
    # 2..4) that uses every light application once.
    n, extra = len(heavy), len(light) - 2 * len(heavy)
    ones = (n - extra) // 6
    fill = [1] * ones + [3] * (ones + extra) + [2] * (n - 2 * ones - extra)
    assert sum(fill) == len(light) and len(fill) == n and set(fill) <= {1, 2, 3}, fill
    rng.shuffle(fill)
    batches = [[h] + rest for h, rest in zip(heavy, cut(light, fill))]
    for batch in batches:
        rng.shuffle(batch)
    lines = ["platform nvidia", "policy accelos-deadline",
             f"dataset_seed {rng.randrange(1 << 32)}"]
    for batch in batches:
        # Tenant 0 (the deadlined one) joins mid-run; the rest start at 0.
        arrivals = [rng.randint(1_000, 40_000)] + [0] * (len(batch) - 1)
        abort = "-"
        if rng.random() < 0.25:
            abort = f"{rng.randrange(1, len(batch))}:{rng.randint(200, 3_000)}"
        apps_s = " ".join(f"{k}@{a}" for k, a in zip(batch, arrivals))
        lines.append(f"batch {abort} {apps_s}")
    return lines


def churn_inputs(rng):
    slots = KERNELS * CHURN_COPIES
    rng.shuffle(slots)
    sizes = [3 + i % 6 for i in range(CHURN_EPISODES)]
    rng.shuffle(sizes)
    episodes = cut(slots, sizes)
    policies = [CHURN_POLICIES[i % len(CHURN_POLICIES)] for i in range(len(episodes))]
    rng.shuffle(policies)
    lines = ["device k20m", "domains 4"]
    for kernels, policy in zip(episodes, policies):
        lines.append(" ".join(str(x) for x in [
            "episode", policy, rng.randrange(1 << 32),
            rng.randint(100, 600),                    # join point, permille
            ",".join(kernels),
            rng.randint(0, 2),                        # repairable CU failures
            rng.randint(100, 500),                    # repair delay, permille
            rng.randint(0, 1),                        # stragglers
            int(rng.random() < 0.2),                  # kernel aborts
            int(rng.random() < 0.3),                  # permanent domain losses
            rng.randrange(1 << 32),                   # fault draw seed
        ]))
    return lines


INPUTS = {"sweep": sweep_inputs, "tenants": tenants_inputs, "churn": churn_inputs}


# ---------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------

def check_sweep_digests(inputs, result):
    """Compare each request size's digest with the recorded value for
    these inputs: the committed goldens, else the first run in this
    checkout (recorded here). Returns the sizes that differ."""
    key = hashlib.sha256("\n".join(inputs).encode()).hexdigest()[:16]
    digests = {k.split(".", 1)[1]: v for k, v in result["info"].items()
               if k.startswith("digest.")}
    with open(os.path.join(HERE, "golden", "sweep_digests.json")) as f:
        golden = json.load(f)
    local_path = os.path.join(state_dir(), "sweep_digests.json")
    local = {}
    if os.path.exists(local_path):
        with open(local_path) as f:
            local = json.load(f)
    expected = golden.get(key) or local.get(key)
    if expected is None:
        local[key] = digests
        with open(local_path + ".tmp", "w") as f:
            json.dump(local, f, indent=1, sort_keys=True)
        os.replace(local_path + ".tmp", local_path)
        return []
    return [k for k, v in digests.items() if expected.get(k) != v]


def source_revision():
    """The git revision if the root is a git checkout, and a digest of the
    sources (checkouts without git history still get a comparable id)."""
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            if "/target/" in p or p.endswith((".pyc", ".jsonl")):
                continue
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return rev, h.hexdigest()[:16]


def run_workload(args, bench):
    binary = build()
    if binary is None:
        return 1
    rng = random.Random(f"{args.workload}:{args.seed}")
    inputs = INPUTS[args.workload](rng)
    pool = POOL.get(args.workload) or len(os.sched_getaffinity(0))
    env = dict(os.environ, ACCELOS_THREADS=str(pool), RAYON_NUM_THREADS=str(pool),
               ACCELOS_INTERP_THREADS=str(pool))
    env.pop("ACCELOS_EXEC_TIER", None)
    cmd = [binary, "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            state_dir(), f"trace-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, input="\n".join(inputs) + "\n", env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload}: no result within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"{args.workload}: benchmark exited with {done.returncode}")
        return 1
    result = json.loads(lines[-1])

    failures = list(result["failures"])
    failed = result["failed"]
    if args.workload == "sweep" and not args.trace:
        bad = check_sweep_digests(inputs, result)
        for k in bad:
            failures.append(f"{k}-request sweep digest differs from the recorded value")
            failed += int(result["info"][f"units.{k}"])
    attempted = max(result["ops"], 1)
    failed = min(failed, attempted)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            log(f"{args.workload}: metric {m['name']} missing")
            return 1
        value, unit = result["metrics"][m["name"]]
        if unit != m["unit"] or value is None:
            log(f"{args.workload}: metric {m['name']} = {value} {unit}, expected unit {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": value, "unit": unit}

    rev, src = source_revision()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host_threads": os.cpu_count(), "pool": pool,
        "rev": rev, "source_digest": src, "ops": result["ops"],
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failures": failures, "info": result["info"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    with open(os.path.join(state_dir(), "results.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    for msg in failures:
        log(f"{args.workload}: check failed: {msg}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------
# Compare mode
# ---------------------------------------------------------------------

def load_records(path):
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            if r.get("trace"):
                continue
            for name, m in r["metrics"].items():
                out.setdefault((r["workload"], name), []).append(m["value"])
    return out


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(metric, old, new):
    """better / worse / unchanged / unresolved for one metric, by the rule
    of the benchmark: a spread wider than the bound leaves the comparison
    unresolved unless every run of one side beats every run of the other;
    a median worse by more than the bound is worse; a median better by
    more than the old runs' spread, with nine tenths of the new runs
    beating the old median, is better."""
    sign = 1 if metric["better"] == "lower" else -1
    bound = metric["bound"]
    oq1, omed, oq3 = summary(old)
    nq1, nmed, nq3 = summary(new)
    spread = max((oq3 - oq1) / abs(omed) if omed else 0, (nq3 - nq1) / abs(nmed) if nmed else 0)
    new_better = all(sign * n < sign * o for n in new for o in old)
    new_worse = all(sign * n > sign * o for n in new for o in old)
    worse_by = sign * (nmed - omed) / abs(omed) if omed else 0
    if spread > bound and not (new_better or new_worse):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(1 for n in new if sign * n < sign * omed) / len(new)
    if sign * (omed - nmed) > (oq3 - oq1) and wins >= 0.9 and worse_by < 0:
        return "better"
    return "unchanged"


def compare(bench, old_path, new_path):
    old, new = load_records(old_path), load_records(new_path)
    print(f"{'workload':<8} {'metric':<15} {'old q1/med/q3':>32} {'new q1/med/q3':>32}  verdict")
    worst = 0
    for w in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            o, n = old.get((w, m["name"])), new.get((w, m["name"]))
            if not o or not n:
                print(f"{w:<8} {m['name']:<15} {'(no runs)':>32} {'':>32}  unresolved")
                continue
            v = verdict(m, o, n)
            fmt = lambda s: "/".join(f"{x:.4g}" for x in s)
            print(f"{w:<8} {m['name']:<15} {fmt(summary(o)):>32} {fmt(summary(n)):>32}  {v}"
                  f"  (n={len(o)}/{len(n)})")
            worst = max(worst, v == "worse")
    return worst


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            log("usage: run.py compare OLD.jsonl NEW.jsonl")
            return 2
        return compare(bench, sys.argv[2], sys.argv[3])
    p = argparse.ArgumentParser(description="accelOS reproduction benchmark")
    p.add_argument("--workload", required=True, choices=sorted(INPUTS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    return run_workload(p.parse_args(), bench)


if __name__ == "__main__":
    sys.exit(main())
