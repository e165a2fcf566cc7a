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
flags.  Scans write CSV with a header line (floats at 17 significant digits)
plus a ``<out>.json`` sidecar recording the fully resolved configuration;
``--format json`` bundles rows and configuration into a single JSON document.
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
from .opalg import normalize_coeffs, vec_to_op
from .oracle import ChainSpec, oracle_correlator, oracle_otoc
from .transfer import (
    N_MAX_APPLY,
    _depths,
    _separation,
    build_transfer,
    otoc_finite,
    otoc_longtime,
    parity_tag,
)

STRICT_TOL = 1e-10
# The long-time iteration stops once a window of 7 Aitken extrapolates (else
# of 7 overlaps) spans less than 1e-10.  That spread estimates the error but
# does not bound it, and the remaining error can be many times larger where
# the decay is slow; cross-method deltas on long-time rows are therefore
# judged at the looser scale.
LONGTIME_STRICT_TOL = 1e-8
UNIT_EIG_TOL = 1e-8
_METHODS = ("transfer", "oracle", "closed_form")

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

_DEFAULTS = dict(gate=None, params=(), alpha=(1, 0, 0), beta=(1, 0, 0),
                 tmax=8, nmax=5, method="transfer", seed=None,
                 out=None, format="csv", strict=False, preset=None)


@dataclass
class RunConfig:
    gate: str
    params: tuple
    alpha: tuple
    beta: tuple
    tmax: int
    nmax: int
    method: str
    seed: object
    out: object
    format: str
    strict: bool
    preset: object

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["params"] = [float(p) for p in self.params]
        d["alpha"] = [float(a) for a in self.alpha]
        d["beta"] = [float(b) for b in self.beta]
        return d


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
    for key in data:
        if key == "preset":
            raise ConfigError(f"config file {path}: key 'preset' is not allowed; "
                              "a preset comes only through --preset")
        if key not in _DEFAULTS:
            raise ConfigError(f"config file {path}: unknown key {key!r}")
    return data


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults < preset < config file < explicit flags."""
    merged = dict(_DEFAULTS)
    preset = getattr(args, "preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
        merged.update(PRESETS[preset])
        merged["preset"] = preset
    config_path = getattr(args, "config", None)
    if config_path:
        merged.update(load_config_file(config_path))
    for key in _DEFAULTS:
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
    cfg = RunConfig(**{f.name: merged[f.name] for f in fields(RunConfig)})
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.gate not in ("du", "kim", "xy", "kak"):
        raise ConfigError("gate must be one of du, kim, xy, kak; "
                          "set --gate or --preset")
    if cfg.gate in ("du", "kak") and cfg.seed is None:
        raise ConfigError(f"gate family {cfg.gate!r} is random; --seed is required")
    if cfg.gate == "kim" and len(cfg.params) != 2:
        raise ConfigError("kim needs --params h1,h2")
    if cfg.gate == "xy" and len(cfg.params) != 1:
        raise ConfigError("xy needs --params j")
    if not np.all(np.isfinite(cfg.params)):
        raise ConfigError("params needs finite values")
    if cfg.method not in _METHODS + ("all",):
        raise ConfigError("method must be transfer, oracle, closed_form, or all")
    if cfg.format not in ("csv", "json"):
        raise ConfigError("format must be csv or json")
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


def build_gate(cfg: RunConfig):
    if cfg.gate == "du":
        return random_dual_unitary(cfg.seed)
    if cfg.gate == "kak":
        return random_kak(cfg.seed)
    if cfg.gate == "kim":
        return build_kim(h1=cfg.params[0], h2=cfg.params[1])
    return build_xy(j=cfg.params[0])


def operator_from_coeffs(coeffs) -> np.ndarray:
    """Unit-normalized operator from (ax, ay, az) or (a0, ax, ay, az)."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape == (3,):
        c = np.concatenate(([0.0], normalize_coeffs(c)))
    else:
        c = c / np.linalg.norm(c)
    return vec_to_op(c)


def _is_integrable_kim(cfg: RunConfig) -> bool:
    return cfg.gate == "kim" and cfg.params[0] == 0.0 and cfg.params[1] == 0.0


def _selected(cfg: RunConfig) -> tuple:
    return _METHODS if cfg.method == "all" else (cfg.method,)


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


def _emit(cfg: RunConfig, fieldnames: list, rows: list,
          strict_tol: float = STRICT_TOL) -> int:
    """Write CSV (+ config sidecar) or a single JSON document; then apply
    --strict to the delta column."""
    if cfg.format == "json":
        _write(cfg, _json({"config": cfg.to_json_dict(), "rows": rows}))
    else:
        lines = [",".join(fieldnames)]
        for row in rows:
            lines.append(",".join(_fmt(row.get(name)) for name in fieldnames))
        _write(cfg, "\n".join(lines) + "\n")
        if cfg.out:
            with open(cfg.out + ".json", "w") as fh:
                fh.write(_json(cfg.to_json_dict()))
    if cfg.strict:
        worst = max((row["delta"] for row in rows
                     if row.get("delta") is not None), default=0.0)
        if worst > strict_tol:
            print(f"strict: cross-method delta {worst:.3e} exceeds {strict_tol:.0e}",
                  file=sys.stderr)
            return 1
    return 0


# ---------------------------------------------------------------- subcommands

def cmd_classify(args) -> int:
    cfg = resolve_config(args)
    gate = build_gate(cfg)
    plus = channel_spectrum(channel_plus(gate))
    minus = channel_spectrum(channel_minus(gate))
    eigs = np.linalg.eigvals(build_transfer(gate, 1))
    n_unit = int(np.sum(np.abs(eigs - 1.0) < UNIT_EIG_TOL))
    report = {
        "gate": cfg.gate,
        "params": [float(p) for p in cfg.params],
        "seed": cfg.seed,
        "dual_unitary": bool(is_dual_unitary(gate)),
        "ergodicity_class": plus.ergodicity_class,
        "decay_rate": plus.decay_rate,
        "channel_plus": plus.to_json_dict(),
        "channel_minus": minus.to_json_dict(),
        "unit_eigenvalue_count_T1": n_unit,
        "maximal_velocity": n_unit > 1,
    }
    if cfg.format == "json":
        _write(cfg, _json(report))
        return 0
    def _eig_line(rep):
        return ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in rep.eigenvalues)
    print(f"gate family:        {cfg.gate}  params={list(cfg.params)}"
          + (f"  seed={cfg.seed}" if cfg.seed is not None else ""))
    print(f"dual-unitary:       {'yes' if report['dual_unitary'] else 'no'}")
    print(f"channel M+ eigs:    {_eig_line(plus)}")
    print(f"channel M- eigs:    {_eig_line(minus)}")
    print(f"ergodicity class:   {plus.ergodicity_class}")
    print(f"slowest decay rate: {plus.decay_rate:.12g}")
    print(f"unit-eigenvalue T_1 eigenvectors: {n_unit}")
    print(f"maximal velocity (v_B = 1):       {'yes' if n_unit > 1 else 'no'}")
    return 0


def _corr_row(cfg, gate, spec, a_op, b_op, t):
    row = {"x": t, "t": t, "parity": parity_tag(t, t)}
    methods = _selected(cfg)
    if "transfer" in methods:
        row["transfer"] = float(lightcone_correlator(gate, a_op, b_op, t))
    if "oracle" in methods:
        row["oracle"] = (float(oracle_correlator(spec, a_op, t, b_op, t))
                         if 2 * t < spec.L else None)
    if "closed_form" in methods:
        if cfg.gate == "kim":
            row["closed_form"] = float(
                kim_correlator(cfg.params[0], cfg.params[1], a_op, b_op, t))
        elif cfg.gate == "xy":
            row["closed_form"] = float(xy_correlator(cfg.params[0], a_op, b_op, t))
        else:
            row["closed_form"] = None
    row["delta"] = _delta(row, methods)
    return row


def cmd_corr(args) -> int:
    cfg = resolve_config(args)
    gate = build_gate(cfg)
    a_op = operator_from_coeffs(cfg.alpha)
    b_op = operator_from_coeffs(cfg.beta)
    spec = ChainSpec(gate=gate)
    rows = _map_rows(lambda t: _corr_row(cfg, gate, spec, a_op, b_op, t),
                     list(range(cfg.tmax + 1)))
    names = ["x", "t", "parity"] + list(_selected(cfg)) + ["delta"]
    return _emit(cfg, names, rows)


def _otoc_row(cfg, methods, gate, spec, a_op, b_op, xt):
    """One OTOC cell (x, t) by each of ``methods``, with their delta."""
    x, t = xt
    n_depth, _, parity = _depths(x, t)
    row = {"x": x, "t": t, "parity": parity}
    if "transfer" in methods:
        row["transfer"] = (otoc_finite(gate, a_op, b_op, x, t).value
                           if n_depth <= N_MAX_APPLY else None)
    if "oracle" in methods:
        row["oracle"] = (float(oracle_otoc(spec, a_op, b_op, x, t))
                         if 2 * t < spec.L else None)
    if "closed_form" in methods:
        row["closed_form"] = (kim_integrable_otoc_symmetrized(a_op, b_op, x, t)
                              if _is_integrable_kim(cfg) else None)
    row["delta"] = _delta(row, methods)
    return row


def cmd_otoc(args) -> int:
    cfg = resolve_config(args)
    gate = build_gate(cfg)
    a_op = operator_from_coeffs(cfg.alpha)
    b_op = operator_from_coeffs(cfg.beta)
    spec = ChainSpec(gate=gate)
    methods = _selected(cfg)
    rows = _scan_rows(lambda xt: _otoc_row(cfg, methods, gate, spec, a_op, b_op, xt),
                      cfg.tmax)
    return _emit(cfg, ["x", "t", "parity", *methods, "delta"], rows)


def _longtime_closed(cfg, gate, a_op, b_op, n, parity):
    t_minus_x = _separation(n, parity)
    if cfg.gate == "du":
        return float(mc_longtime(a_op, b_op, -t_minus_x, gate=gate))
    if _is_integrable_kim(cfg):
        # any (x, t) >= 1 inside the cone with this separation
        return float(kim_integrable_otoc_symmetrized(a_op, b_op, 2, 2 + t_minus_x))
    if cfg.gate == "kim":
        return float(kim_longtime(cfg.params[0], cfg.params[1], a_op, b_op,
                                  2, 2 + t_minus_x))
    if cfg.gate == "xy":
        return float(xy_longtime(a_op, b_op, t_minus_x))
    return None


def _longtime_row(cfg, gate, a_op, b_op, np_):
    n, parity = np_
    row = {"n": n, "parity": parity, "t_minus_x": _separation(n, parity)}
    methods = _selected(cfg)
    if "transfer" in methods:
        res = otoc_longtime(gate, a_op, b_op, n, parity)
        row["transfer"] = res.value
        row["iterations"] = res.meta.get("iterations")
        row["converged"] = res.meta.get("converged")
        row["amplitude"] = res.meta.get("amplitude")
    if "oracle" in methods:
        row["oracle"] = None  # infinite time is out of any finite-chain budget
    if "closed_form" in methods:
        row["closed_form"] = _longtime_closed(cfg, gate, a_op, b_op, n, parity)
    row["delta"] = _delta(row, methods)
    return row


def cmd_longtime(args) -> int:
    """Long-time rows (n, parity) for n = 1..nmax, evaluated in grid order.

    The even call of a depth extends the depth's trajectory until even
    parity stops; the odd call then reads its result from the remembered
    overlaps if it stopped on the way, or extends the trajectory further
    (see otoc_longtime).
    """
    cfg = resolve_config(args)
    gate = build_gate(cfg)
    a_op = operator_from_coeffs(cfg.alpha)
    b_op = operator_from_coeffs(cfg.beta)
    if cfg.nmax > N_MAX_APPLY:
        raise ConfigError(f"longtime depth is capped at nmax <= {N_MAX_APPLY}")
    items = [(n, parity) for n in range(1, cfg.nmax + 1) for parity in ("even", "odd")]
    rows = _map_rows(lambda np_: _longtime_row(cfg, gate, a_op, b_op, np_), items)
    names = ["n", "parity", "t_minus_x"] + list(_selected(cfg))
    if "transfer" in _selected(cfg):
        names += ["iterations", "converged", "amplitude"]
    names += ["delta"]
    return _emit(cfg, names, rows, strict_tol=LONGTIME_STRICT_TOL)


def cmd_spectrum(args) -> int:
    cfg = resolve_config(args)
    gate = build_gate(cfg)
    plus = channel_spectrum(channel_plus(gate))
    minus = channel_spectrum(channel_minus(gate))
    if cfg.format == "json":
        _write(cfg, _json({"config": cfg.to_json_dict(),
                           "channel_plus": plus.to_json_dict(),
                           "channel_minus": minus.to_json_dict()}))
        return 0
    rows = []
    for name, rep in (("plus", plus), ("minus", minus)):
        for k, z in enumerate(rep.eigenvalues):
            rows.append({"channel": name, "index": k, "re": float(z.real),
                         "im": float(z.imag), "modulus": float(abs(z))})
    return _emit(cfg, ["channel", "index", "re", "im", "modulus"], rows)


def cmd_oracle_check(args) -> int:
    cfg = resolve_config(args)
    gate = build_gate(cfg)
    a_op = operator_from_coeffs(cfg.alpha)
    b_op = operator_from_coeffs(cfg.beta)
    spec = ChainSpec(gate=gate)
    tmax = min(cfg.tmax, (spec.L - 1) // 2)
    if tmax < cfg.tmax:
        print(f"oracle-check: clamping tmax to {tmax} (chain budget 2t < L = {spec.L})",
              file=sys.stderr)

    methods = ("transfer", "oracle")
    rows = _scan_rows(lambda xt: _otoc_row(cfg, methods, gate, spec, a_op, b_op, xt), tmax)
    worst = max(row["delta"] for row in rows)
    code = _emit(cfg, ["x", "t", "parity", *methods, "delta"], rows)
    print(f"oracle-check: max |transfer - oracle| = {worst:.3e} "
          f"over {len(rows)} points", file=sys.stderr)
    if cfg.strict and worst > STRICT_TOL:
        return 1
    return code


# --------------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--gate", choices=("du", "kim", "xy", "kak"),
                        help="gate family (du/kak are seeded random)")
    common.add_argument("--params", help="family parameters, e.g. 0.4,0.6 (kim) "
                                         "or 0.314 (xy)")
    common.add_argument("--alpha", help="sigma_alpha Pauli coefficients ax,ay,az "
                                        "(or a0,ax,ay,az); normalized before use")
    common.add_argument("--beta", help="sigma_beta Pauli coefficients")
    common.add_argument("--tmax", type=int, help="largest time in the scan")
    common.add_argument("--nmax", type=int, help="largest transfer depth")
    common.add_argument("--method", choices=("transfer", "oracle",
                                             "closed_form", "all"),
                        help="computation route(s); 'all' adds a delta column")
    common.add_argument("--seed", type=int, help="seed for random gate families")
    common.add_argument("--preset", choices=sorted(PRESETS),
                        help="named figure configuration")
    common.add_argument("--config", help="JSON or key=value config file "
                                         "(flags override it)")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"),
                        help="output format (default csv)")
    common.add_argument("--strict", action="store_true",
                        help="exit nonzero if any cross-method delta "
                             f"exceeds {STRICT_TOL:.0e}")

    parser = argparse.ArgumentParser(
        prog="duotoc",
        description="Exact correlators and OTOCs for brickwork circuits.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("classify", parents=[common],
                   help="gate diagnostics and ergodicity class").set_defaults(
        func=cmd_classify)
    sub.add_parser("corr", parents=[common],
                   help="light-cone correlator scan").set_defaults(func=cmd_corr)
    sub.add_parser("otoc", parents=[common],
                   help="OTOC scan over 0 <= x <= t <= tmax").set_defaults(
        func=cmd_otoc)
    sub.add_parser("longtime", parents=[common],
                   help="long-time OTOC limits vs depth").set_defaults(
        func=cmd_longtime)
    sub.add_parser("spectrum", parents=[common],
                   help="channel eigenvalue table").set_defaults(func=cmd_spectrum)
    sub.add_parser("oracle-check", parents=[common],
                   help="transfer vs brute-force cross-check").set_defaults(
        func=cmd_oracle_check)
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
