"""One fresh process of one workload: set up, solve, check, report.

    python3 bench/child.py --workload finite_scan --seed 1 --out result.json
        [--trace] [--setup-only] [--size full|tiny]

``run.py`` starts this with ``src`` on ``PYTHONPATH`` and the BLAS thread
variables set.  Set-up is timed from before ``import duotoc`` until the
configuration is resolved and the gate and operators are built; the solve is
timed from there until every row is produced and checked.  With ``--trace``
the library is wrapped by ``tracing.install`` before the solve, the spans are
written next to the result, and the per-layer metrics are computed from them.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback
from pathlib import Path

import tracing
import workloads as wl

OUT_DIR = Path(__file__).resolve().parent / "out"


def operator_directions(seed):
    """Pauli coefficient vectors (ax, ay, az) of sigma_alpha and sigma_beta."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal(3)), tuple(rng.standard_normal(3))


def _versions():
    import numpy as np

    blas = {}
    try:
        blas = dict(np.__config__.CONFIG["Build Dependencies"]["blas"])
    except (AttributeError, KeyError, TypeError):
        pass
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "openblas_config": blas.get("openblas configuration")}


class CliWorkload:
    """finite_scan / longtime_sweep: the ``duotoc`` command line, in-process."""

    def __init__(self, name, seed, size, tag):
        from duotoc import cli

        self.name, self.size = name, size
        self.cli = cli
        alpha, beta = operator_directions(seed)
        self.out_path = OUT_DIR / f"{tag}.rows.json"
        self.argv = wl.cli_argv(name, size, alpha, beta, self.out_path)
        flags = dict(preset=wl.PRESET[name], method="all", alpha=list(alpha),
                     beta=list(beta), format="json", out=str(self.out_path))
        flags.update(wl.SIZES[size][name] if size != "full" else {})
        self.cfg = cli.resolve_config(argparse.Namespace(**flags))
        self.gate = cli.build_gate(self.cfg)
        self.ops = (cli.operator_from_coeffs(self.cfg.alpha),
                    cli.operator_from_coeffs(self.cfg.beta))

    def solve(self):
        from duotoc.cli import LONGTIME_STRICT_TOL, STRICT_TOL
        from duotoc.oracle import ChainSpec
        from duotoc.transfer import N_MAX_APPLY

        cells = wl.cell_count(self.name, self.size)
        try:
            code = self.cli.main(self.argv)
        except Exception:  # a crash fails every cell, with its traceback kept
            traceback.print_exc()
            return cells, cells, 0.0, ["duotoc raised; see stderr"], {}
        if code != 0:
            return cells, cells, 0.0, [f"duotoc exited with {code}"], {}
        rows = json.loads(self.out_path.read_text())["rows"]
        if self.name == "finite_scan":
            chain_l = ChainSpec(gate=self.gate).L
            result = wl.check_otoc_rows(rows, self.cfg.tmax, N_MAX_APPLY,
                                        chain_l, STRICT_TOL)
            return result + ({},)
        result = wl.check_longtime_rows(rows, self.cfg.nmax, N_MAX_APPLY,
                                        LONGTIME_STRICT_TOL)
        iterations = sum(r.get("iterations") or 0 for r in rows)
        return result + ({"iterations": iterations},)


def _number(value):
    """A real result as a float; a complex one is reported as an error."""
    if isinstance(value, complex) or getattr(value, "imag", 0) != 0:
        raise ValueError(f"complex value {value!r}")
    return float(value)


class OracleWorkload:
    """oracle_sweep: brute force on an L-site chain against the transfer side."""

    def __init__(self, name, seed, size, tag):
        from duotoc import ChainSpec, random_kak
        from duotoc.cli import operator_from_coeffs

        p = wl.SIZES[size][name]
        self.name, self.size, self.tmax = name, size, p["tmax"]
        self.gate = random_kak(seed)
        self.spec = ChainSpec(gate=self.gate, L=p["L"])
        alpha, beta = operator_directions(seed)
        self.ops = operator_from_coeffs(alpha), operator_from_coeffs(beta)

    def solve(self):
        import duotoc
        from duotoc.cli import STRICT_TOL

        a, b = self.ops
        jobs = [("otoc", x, t,
                 lambda x=x, t=t: duotoc.oracle_otoc(self.spec, a, b, x, t),
                 lambda x=x, t=t: duotoc.otoc_finite(self.gate, a, b, x, t).value)
                for x, t in wl.otoc_grid(self.tmax)]
        jobs += [("corr", t, t,
                  lambda t=t: duotoc.oracle_correlator(self.spec, a, t, b, t),
                  lambda t=t: duotoc.lightcone_correlator(self.gate, a, b, t))
                 for t in range(self.tmax + 1)]
        rows = []
        for kind, x, t, oracle, transfer in jobs:
            row = {"kind": kind, "x": x, "t": t}
            try:
                row["oracle"] = _number(oracle())
                row["transfer"] = _number(transfer())
            except Exception as exc:  # the cell fails; the sweep goes on
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
        expected = wl.cell_count(self.name, self.size)
        return wl.check_pair_rows(rows, expected, STRICT_TOL) + ({},)


def main(argv=None):
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(wl.SIZES), default="full")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    tag = Path(args.out).name.removesuffix(".json")

    kind = OracleWorkload if args.workload == "oracle_sweep" else CliWorkload
    work = kind(args.workload, args.seed, args.size, tag)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "versions": _versions()}
    if not args.setup_only:
        tracer = None
        t1 = time.perf_counter()
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        attempted, failed, worst, problems, extra = work.solve()
        solve_s = time.perf_counter() - t1
        result.update(solve_s=solve_s, attempted=attempted, failed=failed,
                      max_abs_delta=worst, problems=problems[:20], **extra)
        if tracer is not None:
            spans_path = OUT_DIR / f"{tag}.spans.json"
            spans_path.write_text(json.dumps(tracer.spans))
            result["layers"] = tracing.layer_metrics(tracer.spans, solve_s)
            result["spans_file"] = spans_path.name
    ru = resource.getrusage(resource.RUSAGE_SELF)
    result.update(cpu_s=ru.ru_utime + ru.ru_stime, sys_s=ru.ru_stime,
                  minor_faults=ru.ru_minflt, peak_rss_mb=ru.ru_maxrss / 1024.0)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
