"""Command-line front end.

Subcommands
-----------
classify      dual-unitarity verdict, channel spectra, ergodicity class,
              and the count of unit-eigenvalue T_1 eigenvectors
corr          light-cone correlator <sigma_alpha(t,t) sigma_beta(0,0)> vs t
otoc          OTOC C(x, t) over the triangular grid 0 <= x <= t <= tmax
longtime      lim_{t->inf} C(t-k, t) vs depth n for both parities
spectrum      channel eigenvalues as data rows
oracle-check  transfer matrix vs brute-force simulator on a small chain

A run is configured by (in increasing precedence) built-in defaults, a named
``--preset``, a ``--config`` file (JSON or ``key=value`` lines), and explicit
flags.  Each subcommand takes only the flags of the settings it reads, and an
explicit flag the run would ignore (``--seed`` or ``--params``, whichever the
gate family does not use) is a usage error.  Scans write CSV with a header
line (floats at 17 significant digits) plus a ``<out>.json`` sidecar
recording the settings the run read, resolved; ``--format json`` bundles rows
and those settings into a single JSON document.  A preset or config-file
value the run does not read is left out of both.
Identical configuration and seed give byte-identical output at a fixed BLAS
thread count: with another count (``OPENBLAS_NUM_THREADS``, say), transfer
values at depth n >= 4 can move by an ulp, up to 1.1e-16 in the figure
presets.  Rows a method cannot serve within its budget are left blank, never
extrapolated.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .channels import channel_minus, channel_plus, channel_spectrum, lightcone_correlator
from .closed_forms import (
    kim_correlator,
    kim_integrable_otoc_symmetrized,
    kim_longtime,
    mc_longtime,
    xy_correlator,
    xy_longtime,
)
from .gates import build_kim, build_xy, is_dual_unitary, random_dual_unitary, random_kak
from .opalg import TOL_EIG, normalize_coeffs, vec_to_op
from .oracle import ChainSpec, oracle_correlator, oracle_otoc
from .transfer import (
    N_MAX_APPLY,
    PARITIES,
    _depths,
    _separation,
    build_transfer,
    otoc_finite,
    otoc_longtime,
)

STRICT_TOL = 1e-10
# The long-time iteration stops once a window of 7 Aitken extrapolates (else
# of 7 overlaps) spans less than 1e-10.  That spread estimates the error but
# does not bound it, and the remaining error can be many times larger where
# the decay is slow; cross-method deltas on long-time rows are therefore
# judged at the looser scale.
LONGTIME_STRICT_TOL = 1e-8
_METHODS = ("transfer", "oracle", "closed_form")
_TRANSFER, _ORACLE, _CLOSED_FORM = _METHODS
_ALL = "all"  # every method, and the delta column
_FORMATS = ("csv", "json")
_CSV, _JSON = _FORMATS

_S6, _S2, _S3 = 1 / np.sqrt(6.0), 1 / np.sqrt(2.0), 1 / np.sqrt(3.0)

# Named configurations for the data behind each figure.  fig2/fig3 use a
# random dual-unitary circuit (seeded), fig4/fig5 the kicked Ising gate at
# (h1, h2) = (0.4, 0.6) with sigma_alpha = (sigma_x + sigma_z)/sqrt(2) and
# sigma_beta = sigma_y, fig6 the integrable kicked Ising point h1 = h2 = 0,
# and fig7/fig8 the kicked XY gate at J = pi/10, the last three sharing
# sigma_alpha = sigma_x/sqrt(6) + sigma_y/sqrt(2) + sigma_z/sqrt(3) and
# sigma_beta with the sign of the sigma_y component flipped.
PRESETS = {
    "fig2": dict(gate="du", seed=1, alpha=(1, 0, 0), beta=(1, 0, 0), tmax=10),
    "fig3": dict(gate="du", seed=1, alpha=(1, 0, 0), beta=(1, 0, 0), tmax=8, nmax=5),
    "fig4": dict(gate="kim", params=(0.4, 0.6), alpha=(1, 0, 1), beta=(0, 1, 0),
                 tmax=8, nmax=5),
    "fig5": dict(gate="kim", params=(0.4, 0.6), alpha=(1, 0, 1), beta=(0, 1, 0),
                 tmax=10),
    "fig6": dict(gate="kim", params=(0.0, 0.0), alpha=(_S6, _S2, _S3),
                 beta=(_S6, -_S2, _S3), tmax=8, nmax=5),
    "fig7": dict(gate="xy", params=(np.pi / 10,), alpha=(_S6, _S2, _S3),
                 beta=(_S6, -_S2, _S3), tmax=8, nmax=5),
    "fig8": dict(gate="xy", params=(np.pi / 10,), alpha=(_S6, _S2, _S3),
                 beta=(_S6, -_S2, _S3), tmax=10),
    "trivial": dict(gate="du", seed=1, alpha=(1, 0, 0, 0), beta=(0, 1, 0, 0),
                    tmax=6),
}


@dataclass
class RunConfig:
    """A fully resolved run; the field defaults are the built-in defaults."""

    gate: str | None = None
    params: tuple = ()
    alpha: tuple = (1, 0, 0)
    beta: tuple = (1, 0, 0)
    tmax: int = 8
    nmax: int = 5
    method: str = _TRANSFER
    seed: int | None = None
    out: str | None = None
    format: str = _CSV
    strict: bool = False
    preset: str | None = None


class ConfigError(ValueError):
    pass


def _floats(text) -> tuple:
    if isinstance(text, (tuple, list)):
        return tuple(float(v) for v in text)
    parts = [p for p in str(text).replace(";", ",").split(",") if p.strip()]
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list from {text!r}") from exc


def _int(name: str, value) -> int:
    """An integer setting: an int, or the decimal digits of one (a float,
    3.7 or 3.0, is refused rather than truncated)."""
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{name} needs an integer, not {value!r}")


def _bool(value) -> bool:
    if isinstance(value, bool):
        return value
    spelling = str(value).strip().lower()
    if spelling in ("1", "true", "yes", "on"):
        return True
    if spelling in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"strict needs true or false, not {value!r}")


def load_config_file(path: str) -> dict:
    """JSON (dict at top level) or plain ``key=value`` lines, ``#`` comments.

    Every key must name a run setting; ``preset`` is not one, since a preset
    comes only through ``--preset``.  A file that cannot be read, or that
    starts like JSON and does not parse, is a ConfigError too.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror or exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be an object")
    else:
        data = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"config line {raw!r} is not key=value")
            data[key.strip()] = value.strip()
    settings = {f.name for f in fields(RunConfig)}
    for key in data:
        if key == "preset":
            raise ConfigError(f"config file {path}: key 'preset' is not allowed; "
                              "a preset comes only through --preset")
        if key not in settings:
            raise ConfigError(f"config file {path}: unknown key {key!r}")
    return data


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults < preset < config file < explicit flags."""
    merged = asdict(RunConfig())
    preset = getattr(args, "preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
        merged.update(PRESETS[preset])
        merged["preset"] = preset
    config_path = getattr(args, "config", None)
    if config_path:
        merged.update(load_config_file(config_path))
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None and key not in ("preset", "strict"):
            merged[key] = flag
    # --strict can only switch strict mode on; it is False when not given
    if getattr(args, "strict", False):
        merged["strict"] = True

    merged["params"] = _floats(merged["params"]) if merged["params"] else ()
    merged["alpha"] = _floats(merged["alpha"])
    merged["beta"] = _floats(merged["beta"])
    merged["tmax"] = _int("tmax", merged["tmax"])
    merged["nmax"] = _int("nmax", merged["nmax"])
    merged["strict"] = _bool(merged["strict"])
    if merged["seed"] is not None:
        merged["seed"] = _int("seed", merged["seed"])
    cfg = RunConfig(**merged)
    _validate(cfg, args)
    return cfg


def _validate(cfg: RunConfig, args: argparse.Namespace):
    if cfg.gate not in _GATES:
        raise ConfigError(f"gate must be one of {', '.join(_GATES)}; "
                          "set --gate or --preset")
    params = _GATES[cfg.gate].params
    for flag in {"params", "seed"} - _record(cfg, args).keys():
        if getattr(args, flag, None) is not None:
            raise ConfigError(f"gate family {cfg.gate!r} takes no --{flag}")
    if params is None and cfg.seed is None:
        raise ConfigError(f"gate family {cfg.gate!r} is random; --seed is required")
    if cfg.seed is not None and cfg.seed < 0:
        raise ConfigError(f"seed needs a non-negative integer, not {cfg.seed}")
    if params is not None and len(cfg.params) != len(params.split(",")):
        raise ConfigError(f"{cfg.gate} needs --params {params}")
    if not np.all(np.isfinite(cfg.params)):
        raise ConfigError("params needs finite values")
    if cfg.method not in (*_METHODS, _ALL):
        raise ConfigError(f"method must be {', '.join(_METHODS)}, or {_ALL}")
    if cfg.format not in _FORMATS:
        raise ConfigError(f"format must be {' or '.join(_FORMATS)}")
    for name in ("alpha", "beta"):
        coeffs = getattr(cfg, name)
        if len(coeffs) not in (3, 4):
            raise ConfigError(f"{name} needs 3 (traceless) or 4 (with identity) "
                              "Pauli coefficients")
        if not any(coeffs) or not np.all(np.isfinite(coeffs)):
            raise ConfigError(f"{name} needs finite Pauli coefficients, not all "
                              "zero, to normalize")
    if cfg.tmax < 0 or cfg.nmax < 1:
        raise ConfigError("need tmax >= 0 and nmax >= 1")


def _no_closed_form(*args):
    return None


class _Family(NamedTuple):
    """A gate family: its builder, the ``--params`` it takes (None for a
    seeded random family), and its closed forms, each returning None where
    the family has none: corr(cfg, sigma_alpha, sigma_beta, t),
    otoc(cfg, sigma_alpha, sigma_beta, x, t) and
    longtime(cfg, gate, sigma_alpha, sigma_beta, t_minus_x)."""

    build: Callable
    params: str | None = None
    corr: Callable = _no_closed_form
    otoc: Callable = _no_closed_form
    longtime: Callable = _no_closed_form


def _kim_otoc(cfg, a_op, b_op, x, t):
    """The kicked Ising OTOC in closed form, known at h1 = h2 = 0 only."""
    if cfg.params == (0.0, 0.0):
        return kim_integrable_otoc_symmetrized(a_op, b_op, x, t)
    return None


def _kim_longtime(cfg, gate, a_op, b_op, t_minus_x):
    # any (x, t) >= 1 inside the cone with this separation
    value = _kim_otoc(cfg, a_op, b_op, 2, 2 + t_minus_x)
    if value is None:
        value = kim_longtime(*cfg.params, a_op, b_op, t_minus_x)
    return float(value)


# the gate families, in the order --gate lists them; the closed forms look
# their functions up when called, so a replaced module attribute takes effect
_GATES = {
    "du": _Family(lambda cfg: random_dual_unitary(cfg.seed),
                  longtime=lambda cfg, gate, a_op, b_op, t_minus_x: float(
                      mc_longtime(a_op, b_op, t_minus_x, gate=gate))),
    "kim": _Family(lambda cfg: build_kim(*cfg.params), "h1,h2",
                   corr=lambda cfg, a_op, b_op, t: float(
                       kim_correlator(*cfg.params, a_op, b_op, t)),
                   otoc=_kim_otoc, longtime=_kim_longtime),
    "xy": _Family(lambda cfg: build_xy(*cfg.params), "j",
                  corr=lambda cfg, a_op, b_op, t: float(
                      xy_correlator(*cfg.params, a_op, b_op, t)),
                  longtime=lambda cfg, gate, a_op, b_op, t_minus_x: float(
                      xy_longtime(a_op, b_op, t_minus_x))),
    "kak": _Family(lambda cfg: random_kak(cfg.seed)),
}


def build_gate(cfg: RunConfig):
    return _GATES[cfg.gate].build(cfg)


def operator_from_coeffs(coeffs) -> np.ndarray:
    """Unit-normalized operator from (ax, ay, az) or (a0, ax, ay, az)."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape == (3,):
        c = np.concatenate(([0.0], normalize_coeffs(c)))
    else:
        c = c / np.linalg.norm(c)
    return vec_to_op(c)


def _selected(cfg: RunConfig) -> tuple:
    return _METHODS if cfg.method == _ALL else (cfg.method,)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


def _delta(row: dict, methods: tuple):
    vals = [row[m] for m in methods if row.get(m) is not None]
    if len(vals) < 2:
        return None
    return max(abs(a - b) for a in vals for b in vals)


def _row(row: dict, methods: tuple, routes: dict) -> dict:
    """``row`` with the value of each of ``methods`` from its route, a
    callable of the row that returns None where the route's budget excludes
    the cell, then with the methods' delta."""
    for method in methods:
        row[method] = routes[method](row)
    row["delta"] = _delta(row, methods)
    return row


def _cell(xt) -> dict:
    """The labels that start the row of the cell (x, t)."""
    x, t = xt
    return {"x": x, "t": t, "parity": _depths(x, t)[2]}


_CELL_FIELDS = ["x", "t", "parity"]


def _map_rows(fn, items):
    """fn over the grid rows ``items``, one after another, in that order."""
    return [fn(it) for it in items]


def _scan_rows(fn, tmax: int) -> list:
    """fn over the grid 0 <= x <= t <= tmax, rows in grid order (t-major).

    Two passes.  The first evaluates the row t = tmax from x = tmax down to
    0.  It holds the cell (tmax - k, tmax) of every diagonal t - x = k, the
    one with the most applications, and x falling takes the depths in
    increasing order with each depth's even cell, the one with the larger m,
    first; so each depth's trajectory is extended once (see otoc_finite).
    The second evaluates the rows t < tmax in grid order, whose transfer
    values the remembered trajectories then serve.
    """
    far = [(x, tmax) for x in range(tmax, -1, -1)]
    near = [(x, t) for t in range(tmax) for x in range(t + 1)]
    far_rows = _map_rows(fn, far)
    return _map_rows(fn, near) + far_rows[::-1]


def _json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write(cfg: RunConfig, payload: str):
    """Write ``payload`` to --out, or to stdout without it."""
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _unread(cfg: RunConfig) -> str:
    """The gate setting the run's family skips: seed for kim/xy, params for du/kak."""
    return "seed" if _GATES[cfg.gate].params else "params"


def _record(cfg: RunConfig, args: argparse.Namespace) -> dict:
    """The settings the run read: its subcommand's, less the seed or params its gate skips."""
    return {k: v for k, v in asdict(cfg).items() if hasattr(args, k) and k != _unread(cfg)}


def _emit(cfg: RunConfig, args: argparse.Namespace, fieldnames: list, rows: list,
          strict_tol: float = STRICT_TOL) -> int:
    """Write CSV (+ record sidecar) or a single JSON document; then apply
    --strict to the delta column and to the long-time rows' convergence."""
    if cfg.format == _JSON:
        _write(cfg, _json({"config": _record(cfg, args), "rows": rows}))
    else:
        lines = [",".join(fieldnames)]
        for row in rows:
            lines.append(",".join(_fmt(row.get(name)) for name in fieldnames))
        _write(cfg, "\n".join(lines) + "\n")
        if cfg.out:
            with open(cfg.out + ".json", "w") as fh:
                fh.write(_json(_record(cfg, args)))
    if not cfg.strict:
        return 0
    failures = [f"long-time row n={row['n']} {row['parity']} did not converge "
                f"in {row['iterations']} iterations"
                for row in rows if row.get("converged") is False]
    worst = max((row["delta"] for row in rows
                 if row.get("delta") is not None), default=0.0)
    if worst > strict_tol:
        failures.append(f"cross-method delta {worst:.3e} exceeds {strict_tol:.0e}")
    for failure in failures:
        print(f"strict: {failure}", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------- subcommands

def _spectra(args):
    """The config, the gate and the spectra of its channels M+ and M-."""
    cfg = resolve_config(args)
    gate = build_gate(cfg)
    return (cfg, gate, channel_spectrum(channel_plus(gate)),
            channel_spectrum(channel_minus(gate)))


def _setup(args):
    """The config, the gate, sigma_alpha, sigma_beta and the oracle's chain."""
    cfg = resolve_config(args)
    gate = build_gate(cfg)
    return (cfg, gate, operator_from_coeffs(cfg.alpha),
            operator_from_coeffs(cfg.beta), ChainSpec(gate=gate))


def cmd_classify(args) -> int:
    cfg, gate, plus, minus = _spectra(args)
    eigs = np.linalg.eigvals(build_transfer(gate, 1))
    n_unit = int(np.sum(np.abs(eigs - 1.0) < TOL_EIG))
    report = {
        "gate": cfg.gate,
        "params": list(cfg.params),
        "seed": cfg.seed,
        "dual_unitary": bool(is_dual_unitary(gate)),
        "ergodicity_class": plus.ergodicity_class,
        "decay_rate": plus.decay_rate,
        "channel_plus": plus.to_json_dict(),
        "channel_minus": minus.to_json_dict(),
        "unit_eigenvalue_count_T1": n_unit,
        "maximal_velocity": n_unit > 1,
    }
    if cfg.format == _JSON:
        del report[_unread(cfg)]
        _write(cfg, _json(report))
        return 0
    def _eig_line(rep):
        return ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in rep.eigenvalues)
    lines = [f"gate family:        {cfg.gate}  params={list(cfg.params)}"
             + (f"  seed={cfg.seed}" if cfg.seed is not None else ""),
             f"dual-unitary:       {'yes' if report['dual_unitary'] else 'no'}",
             f"channel M+ eigs:    {_eig_line(plus)}",
             f"channel M- eigs:    {_eig_line(minus)}",
             f"ergodicity class:   {plus.ergodicity_class}",
             f"slowest decay rate: {plus.decay_rate:.12g}",
             f"unit-eigenvalue T_1 eigenvectors: {n_unit}",
             f"maximal velocity (v_B = 1):       {'yes' if n_unit > 1 else 'no'}"]
    _write(cfg, "\n".join(lines) + "\n")
    return 0


def cmd_corr(args) -> int:
    cfg, gate, a_op, b_op, spec = _setup(args)
    closed = _GATES[cfg.gate].corr
    routes = {
        _TRANSFER: lambda row: float(lightcone_correlator(gate, a_op, b_op, row["t"])),
        _ORACLE: lambda row: (float(oracle_correlator(spec, a_op, row["t"], b_op, row["t"]))
                              if 2 * row["t"] < spec.L else None),
        _CLOSED_FORM: lambda row: closed(cfg, a_op, b_op, row["t"]),
    }
    methods = _selected(cfg)
    rows = _map_rows(lambda xt: _row(_cell(xt), methods, routes),
                     [(t, t) for t in range(cfg.tmax + 1)])
    return _emit(cfg, args, [*_CELL_FIELDS, *methods, "delta"], rows)


def _otoc_routes(cfg, gate, a_op, b_op, spec) -> dict:
    """The route of each method to an OTOC cell's value."""
    closed = _GATES[cfg.gate].otoc
    return {
        _TRANSFER: lambda row: (otoc_finite(gate, a_op, b_op, row["x"], row["t"]).value
                                if _depths(row["x"], row["t"])[0] <= N_MAX_APPLY else None),
        _ORACLE: lambda row: (float(oracle_otoc(spec, a_op, b_op, row["x"], row["t"]))
                              if 2 * row["t"] < spec.L else None),
        _CLOSED_FORM: lambda row: closed(cfg, a_op, b_op, row["x"], row["t"]),
    }


def cmd_otoc(args) -> int:
    cfg, gate, a_op, b_op, spec = _setup(args)
    methods, routes = _selected(cfg), _otoc_routes(cfg, gate, a_op, b_op, spec)
    rows = _scan_rows(lambda xt: _row(_cell(xt), methods, routes), cfg.tmax)
    return _emit(cfg, args, [*_CELL_FIELDS, *methods, "delta"], rows)


def cmd_longtime(args) -> int:
    """Long-time rows (n, parity) for n = 1..nmax, evaluated in grid order.

    The even call of a depth extends the depth's trajectory until even
    parity stops; the odd call then reads its result from the remembered
    overlaps if it stopped on the way, or extends the trajectory further
    (see otoc_longtime).
    """
    cfg, gate, a_op, b_op, _ = _setup(args)
    if cfg.nmax > N_MAX_APPLY:
        raise ConfigError(f"longtime depth is capped at nmax <= {N_MAX_APPLY}")
    closed = _GATES[cfg.gate].longtime
    meta = ["iterations", "converged", "amplitude"]

    def transfer(row):
        res = otoc_longtime(gate, a_op, b_op, row["n"], row["parity"])
        row.update((key, res.meta.get(key)) for key in meta)
        return res.value

    routes = {
        _TRANSFER: transfer,
        _ORACLE: lambda row: None,  # infinite time is out of any finite-chain budget
        _CLOSED_FORM: lambda row: closed(cfg, gate, a_op, b_op, row["t_minus_x"]),
    }
    methods = _selected(cfg)
    items = [(n, parity) for n in range(1, cfg.nmax + 1) for parity in PARITIES]
    rows = _map_rows(lambda np_: _row({"n": np_[0], "parity": np_[1],
                                       "t_minus_x": _separation(*np_)}, methods, routes),
                     items)
    names = ["n", "parity", "t_minus_x", *methods,
             *(meta if _TRANSFER in methods else []), "delta"]
    return _emit(cfg, args, names, rows, strict_tol=LONGTIME_STRICT_TOL)


def cmd_spectrum(args) -> int:
    cfg, _, plus, minus = _spectra(args)
    if cfg.format == _JSON:
        _write(cfg, _json({"config": _record(cfg, args),
                           "channel_plus": plus.to_json_dict(),
                           "channel_minus": minus.to_json_dict()}))
        return 0
    rows = []
    for name, rep in (("plus", plus), ("minus", minus)):
        for k, z in enumerate(rep.eigenvalues):
            rows.append({"channel": name, "index": k, "re": float(z.real),
                         "im": float(z.imag), "modulus": float(abs(z))})
    return _emit(cfg, args, ["channel", "index", "re", "im", "modulus"], rows)


def cmd_oracle_check(args) -> int:
    cfg, gate, a_op, b_op, spec = _setup(args)
    tmax = min(cfg.tmax, (spec.L - 1) // 2)
    if tmax < cfg.tmax:
        print(f"oracle-check: clamping tmax to {tmax} (chain budget 2t < L = {spec.L})",
              file=sys.stderr)

    methods, routes = (_TRANSFER, _ORACLE), _otoc_routes(cfg, gate, a_op, b_op, spec)
    rows = _scan_rows(lambda xt: _row(_cell(xt), methods, routes), tmax)
    code = _emit(cfg, args, [*_CELL_FIELDS, *methods, "delta"], rows)
    print(f"oracle-check: max |transfer - oracle| = {max(row['delta'] for row in rows):.3e} "
          f"over {len(rows)} points", file=sys.stderr)
    return code


# --------------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    # every flag, defined once; a subcommand takes those it reads, and records them
    flags = {
        "gate": dict(choices=tuple(_GATES), help="gate family (du/kak are seeded random)"),
        "params": dict(help="family parameters, e.g. 0.4,0.6 (kim) or 0.314 (xy)"),
        "alpha": dict(help="sigma_alpha Pauli coefficients ax,ay,az "
                           "(or a0,ax,ay,az); normalized before use"),
        "beta": dict(help="sigma_beta Pauli coefficients"),
        "tmax": dict(type=int, help="largest time in the scan"),
        "nmax": dict(type=int, help="largest transfer depth"),
        "method": dict(choices=(*_METHODS, _ALL), help="route(s); all adds a delta column"),
        "seed": dict(type=int, help="seed for random gate families"),
        "preset": dict(choices=sorted(PRESETS), help="named figure configuration"),
        "config": dict(help="JSON or key=value config file (flags override it)"),
        "out": dict(help="output path (default: stdout)"),
        "format": dict(choices=_FORMATS, help="output format (default csv)"),
        "strict": dict(action="store_true", help="exit 1 if a cross-method delta "
                       f"exceeds {STRICT_TOL:.0e} ({LONGTIME_STRICT_TOL:.0e} for "
                       "longtime) or a long-time row did not converge"),
    }
    gate = {"gate", "params", "seed", "preset", "config", "out", "format"}
    scan = gate | {"alpha", "beta", "tmax", "method", "strict"}
    parser = argparse.ArgumentParser(
        prog="duotoc",
        description="Exact correlators and OTOCs for brickwork circuits.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, func, takes, help_ in (
            ("classify", cmd_classify, gate, "gate diagnostics and ergodicity class"),
            ("corr", cmd_corr, scan, "light-cone correlator scan"),
            ("otoc", cmd_otoc, scan, "OTOC scan over 0 <= x <= t <= tmax"),
            ("longtime", cmd_longtime, scan - {"tmax"} | {"nmax"},
             "long-time OTOC limits vs depth"),
            ("spectrum", cmd_spectrum, gate, "channel eigenvalue table"),
            ("oracle-check", cmd_oracle_check, scan - {"method"},
             "transfer vs brute-force cross-check")):
        command = sub.add_parser(name, help=help_)
        command.set_defaults(func=func)
        for flag in sorted(takes):
            command.add_argument(f"--{flag}", **flags[flag])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
