#!/usr/bin/env python3
"""Builds and runs the convoy benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload archive_fleet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first form builds convoy_lib and the benchmark binary in Release mode
under .bench_build/ (or $CARGO_TARGET_DIR), runs one workload and forwards
the binary's report; its last line is the JSON result. It exits non-zero
when the build fails or the correctness gate trips. The second form runs
every workload at a tiny size, checks that every metric of BENCHMARK.json is
printed with its unit, and checks that the gate trips on a corrupted result
and on a failed query.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("archive_fleet", "dense_herd", "live_fleet")
RUN_TIMEOUT_S = 175


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds convoy_perfbench; returns the binary path."""
    cmake_dir = os.path.join(build_dir(), "cmake")
    configure = ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", cmake_dir, "--target", "convoy_perfbench",
                "-j", str(os.cpu_count() or 1)]
    for cmd in (configure, compile_):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed:", " ".join(cmd))
            return None
    return os.path.join(cmake_dir, "convoy_perfbench")


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def run_workload(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout)."""
    work_dir = os.path.join(build_dir(), "runs",
                            f"{workload}-seed{seed}-trace{trace}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir, "--commit", source_id(), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = 124, ""
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
    # Keep the span dump of a traced run; everything else goes.
    spans = os.path.join(work_dir, "spans.jsonl")
    if os.path.exists(spans):
        shutil.move(spans, os.path.join(
            build_dir(), "runs", f"spans-{workload}-seed{seed}.jsonl"))
    shutil.rmtree(work_dir, ignore_errors=True)
    return code, out


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        log(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_workload(binary, workload, 7, 1, trace, ["--tiny"])
            result = last_json(out)
            check(code == 0 and result is not None and result["correct"],
                  f"{workload} trace={trace}: tiny run passes its gate")
            metrics = (result or {}).get("metrics", {})
            for m in spec[kind]:
                got = metrics.get(m["name"])
                check(got is not None and got["unit"] == m["unit"]
                      and isinstance(got["value"], (int, float)),
                      f"{workload} trace={trace}: {m['name']} [{m['unit']}]")
            check(set(metrics) == {m["name"] for m in spec[kind]},
                  f"{workload} trace={trace}: no metric outside BENCHMARK.json")
            if trace == 0:
                for m in spec[kind]:
                    check(f"# end_to_end {m['name']} = " in out,
                          f"{workload}: report line for {m['name']}")
    for workload, corrupt in (("archive_fleet", "drop_convoy"),
                              ("dense_herd", "drop_convoy"),
                              ("live_fleet", "live_event"),
                              ("archive_fleet", "fail_query"),
                              ("dense_herd", "fail_query"),
                              ("live_fleet", "fail_query")):
        code, out = run_workload(binary, workload, 7, 1, 0,
                                 ["--tiny", "--corrupt", corrupt])
        result = last_json(out)
        check(code != 0 and result is not None and not result["correct"]
              and (corrupt != "fail_query" or result["failed"] >= 1),
              f"{workload}: gate trips on --corrupt {corrupt}")
    log("self-test:", "PASS" if not failures else f"{len(failures)} FAILED")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)
    code, out = run_workload(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code == 0 and last_json(out) is None:
        log("perfbench: no JSON result line")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
