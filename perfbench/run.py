#!/usr/bin/env python3
"""The repository's benchmark: one workload of traffic against `dspec serve`.

    python3 perfbench/run.py --workload drag|explore|studio --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run builds `dspec` and the
perfbench client from source into .bench_build/ (or $CARGO_TARGET_DIR).

--trace 0 runs the timed, untraced end-to-end window and prints the
end-to-end metrics. --trace 1 runs the same window once more for the
statistics the per-layer metrics read (/statsz, reply service times), then
replays the workload's request stream in process with a span around every
call into a module and prints the per-layer metrics. The spans are written
to .bench_build/traces/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Lines before it record provenance.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# Whole-run budget for one end-to-end or replay process, in seconds.
STEP_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures once, then builds incrementally; returns the binary paths."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    # Compilers' temporary files stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(build_dir(), "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", out]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log,
                               env=env) != 0:
                shutil.rmtree(out, ignore_errors=True)
                return None
        jobs = str(os.cpu_count() or 1)
        command = ["cmake", "--build", out, "--target", "perfbench", "dspec",
                   "-j", jobs]
        if subprocess.call(command, stdout=log, stderr=log, env=env) != 0:
            return None
    return (os.path.join(out, "perfbench"),
            os.path.join(out, "dspec", "tools", "dspec"))


def source_digest():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return "git:" + head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sha256:" + digest.hexdigest()


def run_step(command, out_path):
    """Runs one perfbench step; returns its result JSON or exits."""
    try:
        done = subprocess.run(command, timeout=STEP_TIMEOUT_S,
                              stdout=sys.stderr, stderr=sys.stderr)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % command[1])
    if done.returncode != 0 or not os.path.exists(out_path):
        fail("%s failed (exit %d)" % (command[1], done.returncode))
    with open(out_path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    if not (os.path.isfile("CMakeLists.txt") and
            os.path.isfile(os.path.join("src", "CMakeLists.txt"))):
        fail("no dataspec sources next to perfbench/; run from a checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    # studio is not in BENCHMARK.json (see README.md) but still runs.
    if args.workload not in ("drag", "explore", "studio"):
        fail("unknown workload %r" % args.workload, 1)

    binaries = build()
    if binaries is None:
        fail("build failed; see %s/perfbench/build.log" % build_dir())
    perfbench, dspec = binaries

    # Relative, so the unix socket path stays short.
    run_dir = os.path.join(build_dir(), "runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--run-dir", run_dir]

    e2e_out = os.path.join(run_dir, "e2e.json")
    e2e = run_step([perfbench, "e2e"] + common +
                   ["--out", e2e_out, "--dspec", dspec,
                    "--setups", "1" if args.trace else "3"], e2e_out)
    results = [e2e]
    if args.trace:
        replay_out = os.path.join(run_dir, "replay.json")
        p50 = e2e["metrics"]["latency_ms_p50"]
        results.append(run_step([perfbench, "replay"] + common +
                                ["--out", replay_out,
                                 "--latency-p50-ms", repr(p50)], replay_out))
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        for name in os.listdir(run_dir):
            if name.startswith("trace-"):
                shutil.move(os.path.join(run_dir, name),
                            os.path.join(traces, name))

    measured = {}
    for result in results:
        measured.update(result["metrics"])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        if metric["name"] not in measured:
            fail("metric %s was not measured" % metric["name"])
        metrics[metric["name"]] = {"value": measured[metric["name"]],
                                   "unit": metric["unit"]}

    problems = [p for r in results for p in r["problems"]]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": source_digest(), "provenance": e2e["provenance"],
        "counts": e2e["counts"], "setup_runs_s": e2e["setup_runs_s"],
        "statsz": e2e["statsz"], "problems": problems,
    }
    results_dir = os.path.join(build_dir(), "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(dict(record, metrics=metrics), f, indent=1)
    shutil.rmtree(run_dir, ignore_errors=True)

    print("perfbench: " + json.dumps({k: record[k] for k in (
        "workload", "seed", "seconds", "trace", "commit", "provenance")}))
    for problem in problems:
        print("perfbench: problem: " + problem)
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": int(e2e["attempted"]),
        "failed": int(sum(r["failed"] for r in results)),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
