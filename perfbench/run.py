#!/usr/bin/env python3
"""Build and run vixnoc's benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest   # tiny run of every workload + injected fault
    python3 perfbench/run.py --pin        # re-pin every point's result digest

The simulator is built from src/ together with the benchmark program into
.bench_build/perfbench (CMake, Release). The last line of stdout is the result
record: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = Path(".bench_build") / "perfbench-out"  # relative: socket paths stay short
PINS = BENCH_DIR / "pinned_digests.txt"
WORKLOADS = ("sweep_lowload", "sweep_saturated", "service_mixed")
DEFAULT_SEED = 1


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no vixnoc sources at {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "vixnoc_perfbench",
         "vixnoc_sweep_worker", "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def source_version():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def run_bench(workload, seed, seconds, trace, extra=(), echo=True):
    """Runs one workload; returns the parsed result record."""
    cmd = [str(BUILD_DIR / "vixnoc_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--worker", str(BUILD_DIR / "vixnoc" / "app" / "vixnoc_sweep_worker"),
           "--out-dir", str(OUT_DIR), "--digests", str(PINS),
           "--commit", source_version(), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"{workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result")
    return json.loads(lines[-1])


def spec_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def selftest():
    """Tiny run of every workload, traced and untraced, must emit every metric
    BENCHMARK.json names with its unit and pass the gate; an injected digest
    mismatch must be reported as a failed operation."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            rec = run_bench(workload, 7, 2, trace, ["--tiny"], echo=False)
            want = spec_metrics(trace)
            got = {k: v.get("unit") for k, v in rec["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics differ: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            bad = [k for k, v in rec["metrics"].items()
                   if not isinstance(v.get("value"), (int, float))
                   or not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{workload} trace={trace}: non-numeric {bad}")
            if not rec["correct"] or rec["failed"] != 0 or rec["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: gate failed: {rec}")
            print(f"selftest: {workload} trace={trace}: {len(got)} metrics, "
                  f"{rec['attempted']} operations", file=sys.stderr)
    rec = run_bench("sweep_lowload", 7, 2, 0, ["--tiny", "--inject-fault"], echo=False)
    if rec["correct"] or rec["failed"] < 1:
        problems.append(f"injected digest mismatch went unreported: {rec}")
    for p in problems:
        print(f"selftest: FAIL {p}", file=sys.stderr)
    print(json.dumps({"selftest": "fail" if problems else "pass",
                      "problems": len(problems)}))
    return 1 if problems else 0


def pin():
    """Records the digests of every point a workload can simulate (batch,
    set-up points, the whole miss pool), then checks that a fresh run of
    each workload passes against them."""
    tmp = OUT_DIR / "pins.txt"
    tmp.parent.mkdir(parents=True, exist_ok=True)
    tmp.unlink(missing_ok=True)
    PINS.write_text("")
    for workload in WORKLOADS:
        run_bench(workload, DEFAULT_SEED, 8, 0, ["--pin-out", str(tmp)], echo=False)
    PINS.write_text("".join(sorted(set(tmp.read_text().splitlines(True)))))
    tmp.unlink()
    for workload in WORKLOADS:
        rec = run_bench(workload, DEFAULT_SEED, 8, 0, echo=False)
        if not rec["correct"]:
            fail(f"{workload} fails against the new pins: {rec}")
    print(f"pinned {len(PINS.read_text().splitlines())} digests", file=sys.stderr)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    if not (args.selftest or args.pin or args.workload):
        ap.error("--workload is required")
    build()
    if args.selftest:
        return selftest()
    if args.pin:
        return pin()
    run_bench(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
