"""Workload definitions and the correctness checks applied to their output.

Three workloads, each stressing a different layer of ``duotoc``:

* ``finite_scan``: ``duotoc otoc --preset fig5 --method all``, kicked Ising
  at (h1, h2) = (0.4, 0.6), 66 cells over 0 <= x <= t <= 10; the oracle
  serves t <= 3 on its default L = 8 chain.  Many short ``otoc_finite``
  contractions, each rebuilding its boundaries.
* ``longtime_sweep``: ``duotoc longtime --preset fig4 --method all``, the same
  gate at n = 1..5 and both parities, 10 rows of long fixed-depth iteration
  checked against the kicked-Ising closed form.
* ``oracle_sweep``: library calls on a periodic L = 10 chain with the gate
  ``random_kak(seed)``: ``oracle_otoc`` for 0 <= x <= t <= 4 against
  ``otoc_finite`` and ``oracle_correlator`` for t <= 4 against
  ``lightcone_correlator``.  Dense 2^10 evolution dominates.

The seed picks the operator directions sigma_alpha and sigma_beta (and the
oracle_sweep gate); the kicked Ising parameters stay fixed so that the amount
of transfer work stays comparable between seeds.  The ``tiny`` size exists
for the benchmark's self-test only.

This module imports nothing from ``duotoc`` or numpy: the parent process uses
it without importing the program, and the child passes in the program's own
tolerances and budgets.
"""

from __future__ import annotations

import math

WORKLOADS = ("finite_scan", "longtime_sweep", "oracle_sweep")

# CLI workloads already run rows on a thread pool with one worker per core,
# so BLAS gets one thread per worker; oracle_sweep is a serial loop whose
# only parallelism is BLAS, so it gets every core.
USES_CLI_POOL = {"finite_scan": True, "longtime_sweep": True,
                 "oracle_sweep": False}

# Share of --seconds each workload spends on measured passes.  Whole passes
# vary by up to a fifth with the load on a shared two-core machine, most of
# all longtime_sweep, whose two n = 5 rows run side by side; it gets the
# longest window, which holds three passes unless the machine is slow.
MEASURE_WEIGHT = {"finite_scan": 1.0, "longtime_sweep": 1.5, "oracle_sweep": 1.0}

SIZES = {
    "full": {"finite_scan": {"tmax": 10}, "longtime_sweep": {"nmax": 5},
             "oracle_sweep": {"L": 10, "tmax": 4}},
    "tiny": {"finite_scan": {"tmax": 3}, "longtime_sweep": {"nmax": 2},
             "oracle_sweep": {"L": 6, "tmax": 2}},
}
PRESET = {"finite_scan": "fig5", "longtime_sweep": "fig4"}
SUBCOMMAND = {"finite_scan": "otoc", "longtime_sweep": "longtime"}


def otoc_grid(tmax):
    return [(x, t) for t in range(tmax + 1) for x in range(t + 1)]


def longtime_grid(nmax):
    return [(n, parity) for n in range(1, nmax + 1) for parity in ("even", "odd")]


def cell_count(workload, size="full"):
    p = SIZES[size][workload]
    if workload == "finite_scan":
        return len(otoc_grid(p["tmax"]))
    if workload == "longtime_sweep":
        return len(longtime_grid(p["nmax"]))
    return len(otoc_grid(p["tmax"])) + p["tmax"] + 1


def cli_argv(workload, size, alpha, beta, out_path):
    """The ``duotoc`` command line a CLI workload runs."""
    argv = [SUBCOMMAND[workload], "--preset", PRESET[workload], "--method", "all",
            # "=" keeps a leading minus sign from reading as a flag
            "--alpha=" + ",".join(repr(float(a)) for a in alpha),
            "--beta=" + ",".join(repr(float(b)) for b in beta),
            "--format", "json", "--out", str(out_path)]
    if size != "full":
        for key, value in SIZES[size][workload].items():
            argv += [f"--{key}", str(value)]
    return argv


def transfer_depth(x, t):
    """Column depth n of the transfer route at (x, t), 0 <= x <= t."""
    return (t - x + 2) // 2 if (t - x) % 2 == 0 else (t - x + 1) // 2


# ------------------------------------------------------------------ checks
#
# Each check returns (attempted, failed, max_abs_delta, problems): one cell
# per expected row, a cell failing on a missing or non-finite value that is
# within its method's budget, or on a cross-method delta above tolerance.

def _finite(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _spread(values):
    return max(abs(a - b) for a in values for b in values)


def _check_cell(row, key, required, methods, tol, problems, extra_ok=True):
    ok = extra_ok
    for m in methods:
        if required.get(m) and not _finite(row.get(m)):
            problems.append(f"{key}: {m} missing or not finite: {row.get(m)!r}")
            ok = False
    values = [row[m] for m in methods if _finite(row.get(m))]
    delta = _spread(values) if len(values) >= 2 else None
    if delta is not None and not delta <= tol:
        problems.append(f"{key}: cross-method delta {delta:.3e} exceeds {tol:.0e}")
        ok = False
    return ok, delta


def _rows_by_key(rows, keys):
    out = {}
    for row in rows:
        out[tuple(row.get(k) for k in keys)] = row
    return out


def check_otoc_rows(rows, tmax, n_max_apply, chain_l, tol):
    """``duotoc otoc --method all`` rows: transfer is required where the depth
    is within N_MAX_APPLY, the oracle where 2t < L."""
    by_key = _rows_by_key(rows, ("x", "t"))
    grid = otoc_grid(tmax)
    failed, worst, problems = 0, 0.0, []
    if len(rows) != len(grid):
        problems.append(f"expected {len(grid)} rows, got {len(rows)}")
    for x, t in grid:
        row = by_key.get((x, t))
        if row is None:
            problems.append(f"(x={x}, t={t}): row missing")
            failed += 1
            continue
        required = {"transfer": transfer_depth(x, t) <= n_max_apply,
                    "oracle": 2 * t < chain_l}
        ok, delta = _check_cell(row, f"(x={x}, t={t})", required,
                                ("transfer", "oracle", "closed_form"), tol, problems)
        worst = max(worst, delta or 0.0)
        failed += not ok
    return len(grid), failed, worst, problems


def check_longtime_rows(rows, nmax, n_max_apply, tol):
    """``duotoc longtime --method all`` rows for a gate with a closed form:
    transfer and closed form are required, the iteration must converge."""
    by_key = _rows_by_key(rows, ("n", "parity"))
    grid = longtime_grid(nmax)
    failed, worst, problems = 0, 0.0, []
    if len(rows) != len(grid):
        problems.append(f"expected {len(grid)} rows, got {len(rows)}")
    for n, parity in grid:
        key = f"(n={n}, {parity})"
        row = by_key.get((n, parity))
        if row is None:
            problems.append(f"{key}: row missing")
            failed += 1
            continue
        converged = row.get("converged") is True
        iterations = row.get("iterations")
        counted = isinstance(iterations, int) and iterations >= 1
        if not converged:
            problems.append(f"{key}: converged={row.get('converged')!r}")
        if not counted:
            problems.append(f"{key}: iterations={iterations!r}")
        required = {"transfer": n <= n_max_apply, "closed_form": True}
        ok, delta = _check_cell(row, key, required, ("transfer", "closed_form"),
                                tol, problems, extra_ok=converged and counted)
        worst = max(worst, delta or 0.0)
        failed += not ok
    return len(grid), failed, worst, problems


def check_pair_rows(rows, expected, tol):
    """oracle_sweep cells: each holds an ``oracle`` and a ``transfer`` value,
    or an ``error`` raised while computing them."""
    failed, worst, problems = 0, 0.0, []
    if len(rows) != expected:
        problems.append(f"expected {expected} cells, got {len(rows)}")
        failed += max(0, expected - len(rows))
    for row in rows:
        key = f"{row.get('kind')}(x={row.get('x')}, t={row.get('t')})"
        if row.get("error"):
            problems.append(f"{key}: {row['error']}")
            failed += 1
            continue
        ok, delta = _check_cell(row, key, {"oracle": True, "transfer": True},
                                ("oracle", "transfer"), tol, problems)
        worst = max(worst, delta or 0.0)
        failed += not ok
    return max(expected, len(rows)), failed, worst, problems
