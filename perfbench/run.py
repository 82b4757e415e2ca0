#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fabric-seq --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

A run builds bin/wdmnet.exe and perfbench/wdmbench.exe from source into
.bench_build/, then hands over to wdmbench, whose last stdout line is the
result JSON.  The self-test runs every workload at a tiny size in both
modes, checks that the digest gate fires on a twin missing one op, and
runs the older bench/main.exe --quick / --validate path in a scratch
directory.  Everything the benchmark writes stays under the checkout.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
WORKLOADS = ["fabric-seq", "fabric-batch", "mesh-batch"]
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(targets):
    for needed in ("dune-project", os.path.join("bin", "wdmnet.ml"), "lib"):
        if not os.path.exists(needed):
            die("not a checkout of the repository: %s is missing" % needed)
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD,
           "--profile", "release"] + ["./" + t for t in targets]
    res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                         timeout=850)
    if res.returncode != 0:
        die("build failed")


def exe(target):
    return os.path.join(BUILD, "default", target)


def pin_one_cpu():
    """Client and servers take turns in a closed loop, so one CPU loses no
    parallelism, and it stops cross-CPU wake-up placement from swinging
    the round trip between runs.  Children inherit the mask."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_group(cmd, timeout, cwd=None):
    """Runs cmd in its own process group; on timeout the whole group
    (the benchmark and every server it spawned) is killed."""
    proc = subprocess.Popen(cmd, cwd=cwd, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("timed out after %d s" % timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    wdmnet, bench = "bin/wdmnet.exe", "perfbench/wdmbench.exe"
    if args.selftest:
        build([wdmnet, bench, "bench/main.exe"])
        pin_one_cpu()
        rc = run_group([exe(bench), "selftest", "--wdmnet", exe(wdmnet),
                        "--spec", "BENCHMARK.json", "--fingerprints",
                        "perfbench/fingerprints.json"], timeout=1800)
        scratch = os.path.join(".perfbench", "selftest-bench")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        main_exe = os.path.join(ROOT, exe("bench/main.exe"))
        for step in (["--quick"], ["--validate", "BENCH_results.json"]):
            ok = run_group([main_exe] + step, timeout=1800, cwd=scratch) == 0
            print("selftest: %-60s %s" % ("bench/main.exe " + " ".join(step),
                                          "ok" if ok else "FAILED"))
            rc = rc or (0 if ok else 1)
        sys.exit(rc)
    if args.workload is None:
        die("--workload is required")
    build([wdmnet, bench])
    pin_one_cpu()
    sys.exit(run_group([exe(bench), "run", "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--wdmnet", exe(wdmnet)],
                       timeout=RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
