"""The duotoc benchmark: end-to-end metrics per workload, per-layer on request.

    python3 bench/run.py --workload finite_scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

Run from the repository root.  Each measured pass is a fresh child process
(``bench/child.py``), one at a time.  A run starts full passes until
``--seconds`` times the workload's MEASURE_WEIGHT have elapsed (at least one
pass), with SETUP_GROUP set-up-only children before the first pass and after
each pass, so that set-up is sampled across the whole run.  It reports the
median set-up time over every child, the median solve and CPU time over the
passes, and the highest peak memory of any pass.  With ``--trace 1`` it makes
one untraced and one traced pass instead and reports the per-layer metrics
from the traced one, ``process.*`` from the untraced one, and the difference
of their solve times as ``trace.overhead_s``.

Human-readable lines go first; the last line of standard output is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.  A full record
(environment, every pass, every metric) is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402

SETUP_GROUP = 4
RUN_LIMIT_S = 170.0  # a whole run, set-up children included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# end-to-end metrics as (name, unit); the first four are in BENCHMARK.json,
# the last two are printed and recorded (failed cells also count in the
# "failed" field of the result).
END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("max_abs_delta", "1"), ("failed_frac", "1"))


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env(workload):
    nproc = os.cpu_count() or 1
    blas = 1 if wl.USES_CLI_POOL[workload] else nproc
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({k: str(blas) for k in THREAD_VARS})
    return env


def run_child(workload, seed, size, tag, deadline, trace=False, setup_only=False):
    """One fresh child; returns its result dict, or None if it failed."""
    out = OUT_DIR / f"{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--out", str(out)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(workload),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() kills the child and waits for it
        print(f"{tag}: child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.is_file():
        print(f"{tag}: child exited with {proc.returncode}\n{proc.stderr[-4000:]}",
              file=sys.stderr)
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    return json.loads(out.read_text())


def run_workload(workload, seed, seconds, trace, size="full",
                 setup_group=SETUP_GROUP):
    """Measure one workload; returns the full record (see module docstring)."""
    OUT_DIR.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    base = f"{workload}-{size}-seed{seed}"
    problems = []
    setups = []

    def setup_group_children():
        for _ in range(setup_group):
            setups.append(run_child(workload, seed, size, f"{base}-setup{len(setups)}",
                                    deadline, setup_only=True))

    setup_group_children()
    passes, measuring = [], time.monotonic()
    window = seconds * wl.MEASURE_WEIGHT[workload]
    while not passes or (not trace and time.monotonic() - measuring < window):
        passes.append(run_child(workload, seed, size, f"{base}-pass{len(passes)}",
                                deadline))
        setup_group_children()
        if passes[-1] is None:
            break
    traced = (run_child(workload, seed, size, f"{base}-traced", deadline, trace=True)
              if trace and passes[-1] is not None else None)

    solves = passes + ([traced] if trace and passes[-1] is not None else [])
    children = setups + solves
    ok = [c for c in children if c is not None]
    done = [p for p in solves if p is not None]
    lost = (len(solves) - len(done)) * wl.cell_count(workload, size)
    attempted = sum(p["attempted"] for p in done) + lost
    failed = sum(p["failed"] for p in done) + lost
    if len(ok) < len(children):
        problems.append(f"{len(children) - len(ok)} child process(es) failed")
    for p in done:
        problems += p["problems"]

    clean = [p for p in passes if p is not None]
    e2e = {}
    if clean:
        e2e = {
            "setup_s": statistics.median(c["setup_s"] for c in ok),
            "solve_s": statistics.median(p["solve_s"] for p in clean),
            "cpu_s": statistics.median(p["cpu_s"] for p in clean),
            # the two pool threads' n = 5 arrays overlap by chance, so a
            # single pass lands on one of a few levels; report the highest
            "peak_rss_mb": max(p["peak_rss_mb"] for p in clean),
            "max_abs_delta": max(p["max_abs_delta"] for p in done),
            "failed_frac": failed / attempted if attempted else 1.0,
        }
    layers = {}
    if trace and traced is not None and clean:
        layers = dict(traced["layers"])
        layers["process.sys_s"] = clean[0]["sys_s"]
        layers["process.minor_faults"] = clean[0]["minor_faults"]
        layers["trace.overhead_s"] = traced["solve_s"] - clean[0]["solve_s"]
        if workload == "longtime_sweep":
            column = traced["iterations"]
            spans = layers["transfer.otoc_longtime.iterations"]
            if spans != column:
                problems.append(f"traced iterations {spans} != CLI column {column}")

    versions = ok[0]["versions"] if ok else {}
    env = {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), **versions,
        "thread_env_child": {k: child_env(workload)[k] for k in THREAD_VARS},
        "thread_env_parent": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(), "seed": seed, "platform": platform.platform(),
    }
    return {
        "workload": workload, "seed": seed, "size": size, "seconds": seconds,
        "trace": trace, "env": env, "passes": len(clean),
        "setup_children": len(setups), "wall_s": time.monotonic() - start,
        "correct": bool(e2e) and failed == 0 and not problems,
        "attempted": attempted, "failed": failed, "problems": problems[:50],
        "end_to_end": e2e, "layers": layers,
        "children": children,
    }


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(rec):
    """Human-readable lines for one workload record."""
    units = dict(END_TO_END)
    units.update({m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]})
    print(f"== {rec['workload']}  seed={rec['seed']}  passes={rec['passes']}  "
          f"trace={int(rec['trace'])}  correct={rec['correct']}  "
          f"cells={rec['attempted']}  failed={rec['failed']}")
    print("env " + json.dumps(rec["env"], sort_keys=True))
    for name, value in list(rec["end_to_end"].items()) + list(rec["layers"].items()):
        print(f"  {name:44s} {value:.6g} {units.get(name, '')}")
    for problem in rec["problems"]:
        print(f"  problem: {problem}")


def result_line(rec):
    declared = _benchmark_spec()["per_layer" if rec["trace"] else "end_to_end"]
    source = rec["layers"] if rec["trace"] else rec["end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in source}
    correct = rec["correct"] and len(metrics) == len(declared)
    return {"correct": correct, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "duotoc" / "__init__.py").is_file():
        print(f"bench: no duotoc sources under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        record_path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record_path.write_text(json.dumps(rec, indent=1, sort_keys=True))
        report(rec)
        records.append(rec)
    if len(records) == 1:
        print(json.dumps(result_line(records[0])))
    else:
        print(json.dumps({r["workload"]: result_line(r) for r in records}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
