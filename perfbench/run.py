#!/usr/bin/env python3
"""perfbench: the benchmark of the defended request.

Run from the root of the repository:

    python3 perfbench/run.py --workload defend_sesr --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one summary
    python3 perfbench/run.py --selftest              # the benchmark's own tests

Each run first builds perfbench/ (the repository's library, the sesr_shard
worker, sesr_tracecat and the benchmark binary) into $CARGO_TARGET_DIR, or
.bench_build, then runs one workload. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}, holding the end-to-end
metrics of BENCHMARK.json with --trace 0 and the per-layer ones with --trace 1.
Exit status: 0 when every output check passed, 1 otherwise (or when the build
or the run fails, in which case no result is printed).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["defend_sesr", "defend_fsrcnn", "serve_mixed", "dist_hotkey"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.relpath(os.path.join(os.getcwd(), path))


def build(out):
    """Configure and bring every benchmark target up to date (both are quick
    no-ops once built)."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", "4", "--target", "sesr_perfbench",
              "perfbench_selftest"]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail("build failed: " + " ".join(step))


def source_digest():
    """Content hash of the sources the binary is built from (the run
    directory is not a git checkout, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "cmake", "src", "tools", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def run_workload(out, workload, seed, seconds, trace, digest):
    """One run of the benchmark binary; returns its parsed last line."""
    run_dir = os.path.join(out, "run")
    trace_dir = os.path.join(out, "traces")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, f"{workload}_{seed}.json")
    command = [
        os.path.join(out, "sesr_perfbench"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0", "--trace-out", trace_path,
        "--run-dir", run_dir, "--shard-bin", os.path.join(out, "sesr", "tools", "sesr_shard"),
        "--source-digest", digest,
    ]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        fail(f"{workload} exited with status {done.returncode}")
    result = json.loads(lines[-1])
    result["workload"] = workload
    for line in lines:
        if line.startswith("paper: ethos_u55_fps"):
            result["ethos_u55_fps"] = float(line.split("=")[1].split()[0])
    if trace:
        check = subprocess.run(
            [os.path.join(out, "sesr", "tools", "sesr_tracecat"), "--check", trace_path],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if check.returncode != 0:
            result["correct"] = False
            print("problem: sesr_tracecat --check rejects the trace: " +
                  check.stderr.strip().split("\n")[-1])
        else:
            print(f"trace: {trace_path} (sesr_tracecat --check ok)")
    return result


def select_metrics(result, trace, strict=True):
    """The metrics BENCHMARK.json lists for this mode, value and unit only.
    A per-layer metric of a layer the workload does not run reads 0. An
    end-to-end metric the run could not measure (a percentile of too few
    samples) is an error, or is left out when `strict` is false."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None and trace:
            got = result["metrics"][entry["name"]] = {"value": 0, "unit": entry["unit"],
                                                      "samples": 0}
        if (got is None or got["value"] is None) and not strict:
            print(f"{result['workload']}: {entry['name']} not measured (too few samples)")
            continue
        if got is None or got["value"] is None:
            fail(f"metric {entry['name']} was not measured")
        if got["unit"] != entry["unit"]:
            fail(f"metric {entry['name']} is in {got['unit']}, BENCHMARK.json says {entry['unit']}")
        out[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def selftest(out):
    status = subprocess.run([os.path.join(out, "perfbench_selftest"),
                             os.path.join(out, "selftest_trace.json")]).returncode
    digest = source_digest()
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(out, workload, 1, 1.0, trace, digest)
            ok = result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            print(f"selftest: {workload} trace={int(trace)} one-second run "
                  f"{'passes' if ok else 'FAILS'} its output check")
            status = status or (0 if ok else 1)
    print(f"selftest: {'ok' if status == 0 else 'FAILED'}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    build(out)
    if args.selftest:
        return selftest(out)
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            seconds = json.load(handle)["run_seconds"]

    digest = source_digest()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        print(f"== {workload} seed={args.seed} seconds={seconds} trace={args.trace}")
        results[workload] = run_workload(out, workload, args.seed, seconds, args.trace, digest)

    if args.workload != "all":
        result = results[args.workload]
        final = {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                 "failed": int(result["failed"]), "metrics": select_metrics(result, args.trace)}
    else:
        print("== summary")
        metrics = {}
        for workload, result in results.items():
            for name, got in select_metrics(result, args.trace, strict=False).items():
                metrics[f"{workload}.{name}"] = got
                samples = result["metrics"][name]["samples"]
                print(f"{workload:14s} {name:28s} {got['value']:14.6f} {got['unit']:7s} "
                      f"n={samples}")
        if not args.trace:
            host = (results["defend_sesr"]["metrics"]["throughput_rps"]["value"] /
                    results["defend_fsrcnn"]["metrics"]["throughput_rps"]["value"])
            npu = (results["defend_sesr"]["ethos_u55_fps"] /
                   results["defend_fsrcnn"]["ethos_u55_fps"])
            print(f"paper: defended FPS ratio SESR-M5 / FSRCNN: host {host:.3f} "
                  f"(throughput_rps), Ethos-U55 analytic {npu:.3f} (informational)")
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(int(r["attempted"]) for r in results.values()),
                 "failed": sum(int(r["failed"]) for r in results.values()),
                 "metrics": metrics}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
