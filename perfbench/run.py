#!/usr/bin/env python3
"""Launcher for the fresh-shot end-to-end benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload flagged-30 --seed 1 --seconds 10 --trace 0

It builds the Go benchmark in perfbench/ (a module of its own that
imports the repository through a replace directive) into .bench_build/,
with every Go cache and temp directory inside .bench_build/, then runs
the workload in a fresh process and passes its output through. The last
line of standard output is the result object. Without the repository
next to it the build fails and the launcher exits non-zero.

--workload all runs the four workloads one after another, each in its
own process, and prints their result lines; its own last line sums them.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["flagged-30", "planar-d7", "hgp-bposd", "fabric-1"]


def go_env():
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")]:
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off",
               GOENV="off", GOTELEMETRY="off", CGO_ENABLED="0")
    env["PERFBENCH_COMMIT"] = git_commit()
    return env


def git_commit():
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=20, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, timeout=20, check=True).stdout.strip()
        return sha + ("+dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(env):
    r = subprocess.run(["go", "build", "-buildvcs=false", "-o", BINARY, "."], cwd=BENCH, env=env)
    return r.returncode == 0


def run_one(env, workload, args):
    cmd = [BINARY, "-workload", workload, "-seed", str(args.seed), "-seconds", str(args.seconds),
           "-trace", str(args.trace), "-out", BUILD]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode, r.stdout


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        print("perfbench: no repository next to perfbench/ (go.mod missing); nothing to measure", file=sys.stderr)
        return 2
    env = go_env()
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.workload != "all":
        code, _ = run_one(env, args.workload, args)
        return code
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, out = run_one(env, w, args)
        worst = worst or code
        if code != 0:
            total["correct"] = False
            continue
        res = json.loads(out.strip().splitlines()[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][w + "." + name] = m
    print(json.dumps(total))
    return worst


if __name__ == "__main__":
    sys.exit(main())
