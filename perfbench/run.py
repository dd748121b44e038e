#!/usr/bin/env python3
"""Host benchmark of the o2k simulator (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload nbody-p64 [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/ (and the o2k libraries it links) into .bench_build on first
use, runs the o2kbench driver, checks every simulated result bit-exactly and
prints a provenance header, a metric table and, as the last line of stdout,
one JSON object {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
ones.  Exits non-zero when any model run threw or mismatched the oracle.

    python3 perfbench/run.py --workload NAME --bless

re-records the workload's reference values in perfbench/oracle.json from a
run at the default seed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import time

DEFAULT_SEED = 20000101
MIN_PROCESSES = 4    # fresh o2kbench processes per end-to-end run, at least
TIME_LIMIT_S = 175   # every run ends before this, build excluded
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE = os.path.join(HERE, "oracle.json")

# Checks that must agree exactly across the three models, per application;
# the others (energies, positions, volumes) depend on each model's
# summation order and are pinned by the oracle at the default seed only.
CROSS_MODEL = {
    "nbody": ["n"],
    "mesh": ["tets"],
    "dht": ["served", "hops", "hot_hits", "alive", "churn_events"],
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no o2k sources (src/CMakeLists.txt) under " + root)
    bdir = os.path.join(root, BUILD_DIR)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", bdir, "--target", "o2kbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "o2kbench")


def provenance(root, child):
    """Which host, configuration and code produced the numbers."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        commit = "none"
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(root, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    prov = dict(child["provenance"])
    prov["git_commit"] = commit
    prov["src_sha256"] = digest.hexdigest()[:16]
    return prov


def run_child(binary, args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("time limit reached before " + " ".join(args))
    env = {k: v for k, v in os.environ.items() if not k.startswith("O2K_")}
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.terminate()  # o2kbench reports the stage it was in, then exits
        try:
            out, err = proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        sys.stderr.write(err)
        fail("o2kbench timed out: " + " ".join(args))
    sys.stderr.write(err)
    if proc.returncode == 3:
        fail("this host has too few cores for the pinned workers (see above)")
    if proc.returncode != 0:
        fail("o2kbench exited %d: %s" % (proc.returncode, " ".join(args)))
    return json.loads(out.strip().splitlines()[-1])


# ---- correctness --------------------------------------------------------------

def fingerprint(run):
    return (run["makespan_ns"], tuple(sorted(run["checks"].items())))


def decode(bits):
    """A double from the "0x..." bit pattern o2kbench prints."""
    return struct.unpack("<d", int(bits, 16).to_bytes(8, "little"))[0]


def check_values(run):
    return {k: decode(v) for k, v in run["checks"].items()}


def invariant_errors(app, inputs, vals):
    """Model-independent properties every correct run has, at any seed."""
    errs = []
    if app == "nbody":
        if vals.get("n") != inputs["n"]:
            errs.append("n")
        if abs(vals.get("mass", 0.0) - 1.0) > 1e-9:
            errs.append("mass")
    elif app == "mesh":
        vol = float(inputs["box"]) ** 3
        if abs(vals.get("volume", 0.0) - vol) > 1e-6 * vol:
            errs.append("volume")
    elif app == "dht":
        if vals.get("served") != inputs["requests"]:
            errs.append("served")
        for k in ("store_ok", "replicas_ok"):
            if vals.get(k) != 1.0:
                errs.append(k)
    return errs


def verify(workload, seed, prov, runs, oracle):
    """Return (attempted, failures): one entry per failed model run."""
    app = prov["inputs"]["app"]
    ref = {}
    if seed == DEFAULT_SEED:
        entry = oracle.get(workload)
        if entry is None:
            fail("no oracle entry for %s (record one with --bless)" % workload)
        ref = {m: (e["makespan_ns"], tuple(sorted(e["checks"].items())))
               for m, e in entry.items()}
    else:
        for r in runs:  # other seeds: every pass must repeat the first
            if r["ok"] and r["model"] not in ref:
                ref[r["model"]] = fingerprint(r)

    # Cross-model agreement, on each model's first good run: a model whose
    # value differs from the majority's fails.
    firsts = {}
    for r in runs:
        if r["ok"] and r["model"] not in firsts:
            firsts[r["model"]] = check_values(r)
    bad_models = set()
    for key in CROSS_MODEL[app]:
        values = [v.get(key) for v in firsts.values()]
        for m, v in firsts.items():
            if values.count(v.get(key)) * 2 <= len(values):
                bad_models.add(m)

    failures = []
    for r in runs:
        why = None
        if not r["ok"]:
            why = "threw: " + r["error"]
        elif fingerprint(r) != ref.get(r["model"]):
            why = "differs from the reference values"
        elif invariant_errors(app, prov["inputs"], check_values(r)):
            why = "breaks " + ",".join(invariant_errors(app, prov["inputs"], check_values(r)))
        elif r["model"] in bad_models:
            why = "disagrees with the other models"
        if why:
            failures.append("pass %d %s: %s" % (r["pass"], r["model"], why))
    return len(runs), failures


# ---- reporting ---------------------------------------------------------------

def spec():
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def end_to_end(children):
    passes = [p for c in children for p in c["passes"]]
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "wall_s.mp": [p["mp"] for p in passes],
        "wall_s.shmem": [p["shmem"] for p in passes],
        "wall_s.sas": [p["sas"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "setup_s": [c["setup_s"] for c in children],
        # The mark after set-up; see README.md on why not later.
        "peak_rss_mb": [c["setup_hwm_kb"] / 1024.0 for c in children],
    }
    return {k: (statistics.median(v), v) for k, v in samples.items()}


def print_table(values):
    print("%-34s %16s %-6s %5s %12s %12s" % ("metric", "median", "unit", "n", "min", "max"))
    for name, unit, (med, samples) in values:
        lo, hi = (min(samples), max(samples)) if samples else (med, med)
        print("%-34s %16.6g %-6s %5d %12.6g %12.6g" % (name, med, unit, len(samples), lo, hi))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bless", action="store_true",
                    help="record the workload's reference values at the default seed")
    args = ap.parse_args()

    root = os.getcwd()
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail("unknown workload %s (one of %s)" % (args.workload, ", ".join(names)))
    binary = build(root)
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    if args.bless:
        if args.seed != DEFAULT_SEED:
            fail("--bless records the default seed only")
        child = run_child(binary, base + ["--mode", "run"], deadline)
        with open(ORACLE) as fh:
            oracle = json.load(fh)
        oracle[args.workload] = {
            r["model"]: {"makespan_ns": r["makespan_ns"], "makespan": decode(r["makespan_ns"]),
                         "checks": r["checks"], "check_values": check_values(r)}
            for r in child["runs"] if r["pass"] == 0 and r["ok"]}
        with open(ORACLE, "w") as fh:
            json.dump(oracle, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("perfbench: recorded %s in %s" % (args.workload, ORACLE))
        return 0

    extra = {}
    if args.trace == 0:
        # Fresh processes, each with its own set-up and the same fixed
        # schedule, one after another: another one starts while that brings
        # the end of the run closer to --seconds, or while there are fewer
        # than MIN_PROCESSES set-up samples.
        children = []
        while (len(children) < MIN_PROCESSES or
               time.monotonic() - start + (time.monotonic() - start) / len(children) / 2
               <= args.seconds):
            children.append(run_child(binary, base + ["--mode", "run"], deadline))
        wanted = bench["end_to_end"]
        measured = end_to_end(children)
    else:
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        spans = os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (args.workload, args.seed))
        children = [run_child(binary, base + ["--mode", "trace", "--spans", spans], deadline)]
        wanted = bench["per_layer"]
        got = children[0]["metrics"]
        measured = {}
        for m in wanted:
            if m["name"] not in got:
                fail("the traced run did not measure " + m["name"])
            measured[m["name"]] = (got[m["name"]], [got[m["name"]]])
        # Phase spans and application counters exist only on their own
        # application's workload, so BENCHMARK.json cannot list them.
        extra = {k: (v, [v]) for k, v in got.items() if k not in measured}

    with open(ORACLE) as fh:
        oracle = json.load(fh)
    runs = [r for c in children for r in c["runs"]]
    attempted, failures = verify(args.workload, args.seed, children[0]["provenance"], runs,
                                 oracle)

    prov = provenance(root, children[0])
    print("# o2k host benchmark  workload=%s  trace=%d" % (args.workload, args.trace))
    for k in ("host_cores", "workers", "P", "seed", "inputs", "compiler", "build_type",
              "git_commit", "src_sha256"):
        print("# %-11s %s" % (k, json.dumps(prov[k]) if k == "inputs" else prov[k]))
    if args.trace == 1:
        print("# spans       %s" % spans)
    print_table([(m["name"], m["unit"], measured[m["name"]]) for m in wanted])
    if extra:
        print("# this workload only (not in BENCHMARK.json):")
        print_table([(k, "s" if k.endswith("_s") else "B" if "bytes" in k else "count", v)
                     for k, v in sorted(extra.items())])
    if args.trace == 0:
        # The allocator keeps freed memory, so the mark grows pass by pass;
        # peak_rss_mb does not include that growth (README.md).
        depth = len(children[0]["passes"])
        print("rss high-water after set-up and timed pass 1..%d (MB, per process): %s" % (
            depth, "  ".join(" ".join("%.0f" % (kb / 1024.0) for kb in
                                      [c["setup_hwm_kb"]] + [p["hwm_kb"] for p in c["passes"]])
                             for c in children)))
    print("fail_share %.6g  (%d failed / %d model runs attempted)"
          % (len(failures) / attempted, len(failures), attempted))
    for f in failures:
        print("FAILED " + f)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
