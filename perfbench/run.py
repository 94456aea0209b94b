#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary from source, runs one
workload, checks its answers and prints the metrics.

Run from the repository root:

    python3 perfbench/run.py --workload cc_uniform --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Everything the benchmark builds or writes goes under `.bench_build/`.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_TYPE = "RelWithDebInfo"
BUILD_ROOT = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    return p.parse_args()


def source_hash(root):
    """Hash of the library and benchmark sources: runs of identical code
    share it, so their modeled-clock fingerprints must agree."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def build(root):
    """Configure (once) and build perfbench; returns (binary, cache vars)."""
    bdir = os.path.join(root, BUILD_ROOT, "perfbench-" + BUILD_TYPE)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", bdir,
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as fh:
        for line in fh:
            key, sep, val = line.strip().partition("=")
            if sep and not key.startswith(("#", "//")):
                cache[key.split(":")[0]] = val
    return os.path.join(bdir, "perfbench"), cache


def check_build(cache):
    """Refuse timings from a Debug, sanitizer or access-checker build."""
    btype = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(cache.get(k, "") for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_" + btype.upper()))
    print("build: type=%s flags=%r" % (btype, flags.strip()))
    if btype not in ("Release", "RelWithDebInfo"):
        fail("refusing to report timings from a %r build" % btype, 3)
    for bad in ("-fsanitize", "PGRAPH_CHECK_ACCESS", "-O0"):
        if bad in flags:
            fail("refusing to report timings from a build with " + bad, 3)


def check_metrics(result, spec, trace):
    """The metric set must be exactly BENCHMARK.json's, units included.
    With tracing, per-layer metrics a workload does not exercise are
    reported as 0 and named."""
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    extra = sorted(set(got) - {m["name"] for m in want})
    if extra:
        fail("metrics missing from BENCHMARK.json: %s" % extra)
    absent = []
    for m in want:
        if m["name"] not in got:
            if not trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            got[m["name"]] = {"value": 0, "unit": m["unit"]}
            absent.append(m["name"])
        elif got[m["name"]]["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" % (
                m["name"], got[m["name"]]["unit"], m["unit"]))
    if absent:
        print("not exercised on this workload (reported as 0): "
              + " ".join(absent))
    result["metrics"] = {m["name"]: got[m["name"]] for m in want}


def check_fingerprints(root, key, args, lines, result):
    """Modeled-clock fingerprints and state digests must repeat exactly
    across runs of the same sources, workload and seed.  Each line is
    "<name>: <value>"; a run that reaches fewer graphs has fewer names."""
    path = os.path.join(root, BUILD_ROOT, "fingerprints", "%s-%s-%d.json" % (
        key, args.workload, args.seed))
    now = dict(l.split(": ", 1) for l in lines
               if l.startswith(("fingerprint", "digest")))
    before = {}
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
    for name in sorted(set(now) & set(before)):
        if now[name] != before[name]:
            print("perfbench: %s MISMATCH across runs:\n  before: %s\n"
                  "  now:    %s" % (name, before[name], now[name]),
                  file=sys.stderr)
            result["correct"] = False
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(dict(before, **now), fh, indent=1)


def main():
    args = parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pgas", "runtime.hpp")):
        fail("library sources (src/) not found; run from the repository "
             "root", 2)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload, 2)

    binary, cache = build(root)
    check_build(cache)
    load_before = os.getloadavg()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(
            root, BUILD_ROOT, "spans-%s.csv" % args.workload)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    load_after = os.getloadavg()
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("perfbench exited with code %d" % r.returncode)
    result = json.loads(lines[-1])

    check_metrics(result, spec, args.trace == "1")
    key = source_hash(root)
    check_fingerprints(root, key, args, lines[:-1], result)
    print("host: nproc=%d load_before=%.2f/%.2f/%.2f "
          "load_after=%.2f/%.2f/%.2f sources=%s" % (
              (os.cpu_count() or 0,) + load_before + load_after + (key,)))
    for line in lines[:-1]:
        print(line)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
