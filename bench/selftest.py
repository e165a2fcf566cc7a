"""Quick self-test of the benchmark (tiny sizes, a few seconds).

    python3 bench/selftest.py

Checks that a traced run of every workload emits every metric named in
``BENCHMARK.json`` plus the printed-only end-to-end metrics, that the
traced iteration count matches the CLI column, and that the correctness
checks fire on corrupted rows: a cross-method delta above tolerance, a blank
cell within budget, an unconverged long-time row, a raised error, a missing
row.  Exits nonzero on the first failure.
"""

from __future__ import annotations

import copy
import json
import sys

import run
import workloads as wl


def _expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def _rows_of(rec):
    """The CLI rows the record's first pass wrote."""
    tag = f"{rec['workload']}-tiny-seed{rec['seed']}-pass0"
    return json.loads((run.OUT_DIR / f"{tag}.rows.json").read_text())["rows"]


def check_metrics_emitted(records):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = [name for name, _ in run.END_TO_END]
    for rec in records:
        w = rec["workload"]
        _expect(rec["correct"], f"{w}: tiny run not correct: {rec['problems']}")
        missing = [n for n in e2e if n not in rec["end_to_end"]]
        missing += [m["name"] for m in spec["per_layer"] if m["name"] not in rec["layers"]]
        _expect(not missing, f"{w}: metrics not emitted: {missing}")
        for trace in (False, True):
            line = run.result_line(dict(rec, trace=trace))
            key = "per_layer" if trace else "end_to_end"
            _expect(set(line["metrics"]) == {m["name"] for m in spec[key]},
                    f"{w}: result line for trace={int(trace)} lacks metrics")
            _expect(line["correct"] and line["attempted"] >= 1 and line["failed"] == 0,
                    f"{w}: result line counts wrong: {line}")
    longtime = next(r for r in records if r["workload"] == "longtime_sweep")
    column = sum(r["iterations"] for r in _rows_of(longtime))
    _expect(longtime["layers"]["transfer.otoc_longtime.iterations"] == column,
            "traced iterations differ from the CLI iterations column")


def check_corruption(records):
    from duotoc import ChainSpec, build_kim
    from duotoc.cli import LONGTIME_STRICT_TOL, STRICT_TOL
    from duotoc.transfer import N_MAX_APPLY

    p = wl.SIZES["tiny"]
    scan = _rows_of(next(r for r in records if r["workload"] == "finite_scan"))
    tmax = p["finite_scan"]["tmax"]
    chain_l = ChainSpec(gate=build_kim(h1=0.4, h2=0.6)).L

    def scan_failed(rows):
        return wl.check_otoc_rows(rows, tmax, N_MAX_APPLY, chain_l, STRICT_TOL)[1]

    _expect(scan_failed(scan) == 0, "clean finite_scan rows fail the check")
    bad = copy.deepcopy(scan)
    bad[4]["oracle"] += 1e-6
    _expect(scan_failed(bad) == 1, "a delta above STRICT_TOL went unnoticed")
    bad = copy.deepcopy(scan)
    bad[2]["transfer"] = None
    _expect(scan_failed(bad) == 1, "a blank cell within budget went unnoticed")
    _expect(scan_failed(scan[:-1]) == 1, "a missing row went unnoticed")

    long_rows = _rows_of(next(r for r in records if r["workload"] == "longtime_sweep"))
    nmax = p["longtime_sweep"]["nmax"]

    def long_failed(rows):
        return wl.check_longtime_rows(rows, nmax, N_MAX_APPLY, LONGTIME_STRICT_TOL)[1]

    _expect(long_failed(long_rows) == 0, "clean longtime rows fail the check")
    bad = copy.deepcopy(long_rows)
    bad[1]["converged"] = False
    _expect(long_failed(bad) == 1, "an unconverged row went unnoticed")
    bad = copy.deepcopy(long_rows)
    bad[0]["transfer"] += 1e-7
    _expect(long_failed(bad) == 1, "a delta above LONGTIME_STRICT_TOL went unnoticed")

    cells = [{"kind": "otoc", "x": 0, "t": 0, "oracle": 0.5, "transfer": 0.5},
             {"kind": "otoc", "x": 0, "t": 1, "error": "ValueError: boom"},
             {"kind": "corr", "x": 1, "t": 1, "oracle": 0.1, "transfer": 0.1 + 1e-9}]
    _expect(wl.check_pair_rows(cells, 3, STRICT_TOL)[1] == 2,
            "oracle_sweep check missed a raised error or a delta")


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    records = [run.run_workload(w, seed=1, seconds=0, trace=True, size="tiny",
                                setup_group=1) for w in wl.WORKLOADS]
    check_metrics_emitted(records)
    check_corruption(records)
    print(f"selftest ok: {len(wl.WORKLOADS)} workloads, "
          f"{sum(len(r['layers']) + len(r['end_to_end']) for r in records)} metrics")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
