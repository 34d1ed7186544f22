#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--serve-rates LO,HI] [--routed-rates LO,HI]
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which pulls in the repo's libraries) under
$CARGO_TARGET_DIR or .bench_build/; later runs reuse that build. Inputs
come only from --seed. The measuring binary prints its own summary; this
script adds the host fingerprint, writes the full record to
.bench_out/result-<workload>-<seed>-trace<t>.json and prints, as its last
line, the result object: correct, attempted, failed and every metric that
BENCHMARK.json lists for the mode (end_to_end untraced, per_layer traced).

serve_rw needs --serve-rates and routed --routed-rates: BENCHMARK.json's
command carries both, and --selftest takes them from there.

Exit status: 0 when every answer was correct, 1 otherwise (or when the
build or the run failed, in which case no result line is printed).
"""
import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

WORKLOADS = ("pr_incore", "pr_stream", "serve_rw", "routed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def root_dir():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(root, base)
    return os.path.join(base, "perfbench")


def build(root):
    """Configure once, then build the perfbench target; returns its path."""
    bdir = build_dir(root)
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j",
                  str(min(4, os.cpu_count() or 1))])
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                with open(log) as f:
                    tail = f.read()[-3000:]
                fail(f"build failed (see {log}):\n{tail}")
    return os.path.join(bdir, "perfbench")


def fingerprint(root, exe):
    """Host and build identity recorded with every result."""
    fp = {"nproc": len(os.sched_getaffinity(0)),
          "kernel": platform.release(), "machine": platform.machine()}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    fp["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            def rd(name, idx=idx):
                with open(os.path.join(base, idx, name)) as f:
                    return f.read().strip()
            if rd("type") in ("Unified", "Data"):
                caches[f"L{rd('level')}"] = rd("size")
        except OSError:
            continue
    fp["caches_cpu0"] = caches
    cache = os.path.join(os.path.dirname(exe), "CMakeCache.txt")
    wanted = ("CMAKE_BUILD_TYPE", "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE",
              "CMAKE_CXX_COMPILER")
    try:
        with open(cache) as f:
            for line in f:
                key = line.split(":", 1)[0]
                if key in wanted:
                    fp[key] = line.split("=", 1)[1].strip()
    except OSError:
        pass
    try:
        fp["git_commit"] = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        fp["git_commit"] = "unknown"
    return fp


def run_binary(exe, args):
    """Run the measuring binary in its own process group; returns
    (returncode, stdout lines). The group is killed on timeout."""
    proc = subprocess.Popen([exe] + args, stdout=subprocess.PIPE, text=True,
                            preexec_fn=os.setpgrp)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 124, []
    return proc.returncode, out.splitlines()


def declared(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def measure(root, exe, workload, seed, seconds, trace, extra):
    """One run; returns (exit code, result object or None)."""
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--out-dir", out_dir] + extra
    rc, lines = run_binary(exe, args)
    record = None
    if lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = None
    for line in lines[:-1] if record else lines:
        print(line)
    if record is None:
        print(f"perfbench: {workload} produced no result (exit {rc})",
              file=sys.stderr)
        return (rc or 1), None

    e2e, layers = declared(root)
    wanted = layers if trace else e2e
    metrics, problems = {}, []
    for m in wanted:
        # The binary reports a layer its workload never touches as 0,
        # so a missing metric is a defect in either mode.
        got = record["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{m['name']} not measured")
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{m['name']} unit {got['unit']} != {m['unit']}")
        if not trace and not got["value"] > 0:
            problems.append(f"{m['name']} = {got['value']} is not positive")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    correct = rc == 0 and record["failed"] == 0 and not problems
    result = {"correct": correct, "attempted": max(1, record["attempted"]),
              "failed": record["failed"],
              "metrics": metrics}
    full = dict(record)
    full["fingerprint"] = fingerprint(root, exe)
    full["exit_code"] = rc
    full["result"] = result
    full["unix_time"] = time.time()
    name = f"result-{workload}-{seed}-trace{trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)
    print(f"{'metric':<36} {'value':>16} unit")
    for k, v in metrics.items():
        print(f"{k:<36} {v['value']:>16.6g} {v['unit']}")
    return (0 if correct else 1), result


def with_command_rates(root, extra):
    """`extra` plus each of --serve-rates and --routed-rates it lacks,
    taken from BENCHMARK.json's command, the one place the fixed offered
    rates are written."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        cmd = json.load(f)["command"]
    extra = list(extra)
    for flag in ("--serve-rates", "--routed-rates"):
        if flag not in extra and flag in cmd[:-1]:
            extra += [flag, cmd[cmd.index(flag) + 1]]
    return extra


def selftest(root, exe, extra):
    """Tiny scale: every workload prints every declared metric with its
    unit, and both planted defects make the run exit nonzero."""
    e2e, layers = declared(root)
    extra = with_command_rates(root, extra)
    ok = True
    for w in WORKLOADS:
        for trace, wanted in ((0, e2e), (1, layers)):
            rc, res = measure(root, exe, w, 7, 1, trace, extra + ["--tiny"])
            names = set(res["metrics"]) if res else set()
            missing = [m["name"] for m in wanted if m["name"] not in names]
            good = rc == 0 and not missing
            ok &= good
            print(f"SELFTEST {w} trace={trace}: "
                  f"{'ok' if good else f'FAIL rc={rc} missing={missing}'}")
        for fault in ("ref-bit", "answer"):
            rc, res = measure(root, exe, w, 7, 1, 0,
                              extra + ["--tiny", "--fault", fault])
            # It must fail by counting a wrong answer, not by crashing.
            good = rc != 0 and res is not None and res["failed"] > 0
            ok &= good
            print(f"SELFTEST {w} fault={fault}: "
                  f"{'wrong answer caught, ok' if good else f'FAIL rc={rc}'}")
    print("SELFTEST", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--serve-rates")
    ap.add_argument("--routed-rates")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    root = root_dir()
    if not os.path.exists(os.path.join(root, "BENCHMARK.json")):
        fail(f"no BENCHMARK.json in {root}")
    extra = []
    for flag, val in (("--serve-rates", a.serve_rates),
                      ("--routed-rates", a.routed_rates)):
        if val:
            extra += [flag, val]
    exe = build(root)
    if a.selftest:
        return selftest(root, exe, extra)
    if a.workload is None:
        fail("--workload is required")
    rc, result = measure(root, exe, a.workload, a.seed, a.seconds, a.trace,
                         extra)
    if result is None:
        return rc
    print(json.dumps(result, separators=(",", ":")))
    return rc


if __name__ == "__main__":
    sys.exit(main())
