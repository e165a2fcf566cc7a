"""Command-line interface: presets, config resolution, output contracts."""

import argparse
import csv
import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from duotoc import cli
from duotoc.cli import ConfigError, build_gate, main, operator_from_coeffs, resolve_config
from duotoc.transfer import _TRAJECTORY_MEMO, otoc_finite

TOL = 1e-10


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_classify_kim_json(capsys):
    code = main(["classify", "--gate", "kim", "--params", "0.4,0.6",
                 "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["dual_unitary"] is True
    assert report["ergodicity_class"] == "ergodic_mixing"
    assert report["unit_eigenvalue_count_T1"] == 3
    assert report["maximal_velocity"] is True
    assert report["decay_rate"] == pytest.approx(np.cos(1.0), abs=TOL)
    # the gate setting the family reads, and not the one it skips
    assert report["params"] == [0.4, 0.6] and "seed" not in report


def test_classify_generic_gate_not_maximal(capsys):
    code = main(["classify", "--gate", "kak", "--seed", "5", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["dual_unitary"] is False
    assert report["unit_eigenvalue_count_T1"] == 1
    assert report["maximal_velocity"] is False
    assert report["seed"] == 5 and "params" not in report


def test_classify_xy_has_extra_unit_eigenvectors(capsys):
    code = main(["classify", "--gate", "xy", "--params", str(np.pi / 10),
                 "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["dual_unitary"] is False
    assert report["maximal_velocity"] is True


def test_classify_text_report_goes_to_out(tmp_path, capsys):
    """classify in its text format writes the report to --out, like every
    other subcommand, and the same report to stdout without it; it writes
    no record beside the report."""
    flags = ["classify", "--gate", "kim", "--params", "0.4,0.6"]
    assert main(flags) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("gate family:") and printed.endswith("\n")
    out = tmp_path / "classify.txt"
    assert main([*flags, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed
    assert os.listdir(tmp_path) == ["classify.txt"]


def test_corr_all_methods_strict(tmp_path):
    out = tmp_path / "corr.csv"
    code = main(["corr", "--preset", "fig5", "--method", "all",
                 "--tmax", "4", "--strict", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 5
    assert set(rows[0]) == {"x", "t", "parity", "transfer", "oracle",
                           "closed_form", "delta"}
    for row in rows:
        assert float(row["delta"]) < TOL
    # sidecar records the resolved configuration
    sidecar = json.loads((tmp_path / "corr.csv.json").read_text())
    assert sidecar["gate"] == "kim"
    assert sidecar["params"] == [0.4, 0.6]
    assert sidecar["preset"] == "fig5"


def test_otoc_integrable_all_methods_strict(tmp_path):
    out = tmp_path / "otoc.csv"
    code = main(["otoc", "--gate", "kim", "--params", "0,0",
                 "--alpha", "1,2,1", "--beta", "1,-2,1", "--method", "all",
                 "--tmax", "3", "--strict", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 10
    for row in rows:
        assert float(row["delta"]) < TOL


def test_otoc_oracle_budget_rows_blank(tmp_path):
    out = tmp_path / "otoc.csv"
    code = main(["otoc", "--gate", "du", "--seed", "1", "--method", "oracle",
                 "--tmax", "4", "--out", str(out)])
    assert code == 0
    for row in _read_csv(out):
        if int(row["t"]) <= 3:
            assert row["oracle"] != ""
        else:
            assert row["oracle"] == ""  # out of chain budget, left blank


def test_trivial_preset_is_identically_one(tmp_path):
    out = tmp_path / "trivial.csv"
    assert main(["otoc", "--preset", "trivial", "--tmax", "4",
                 "--out", str(out)]) == 0
    for row in _read_csv(out):
        assert float(row["transfer"]) == pytest.approx(1.0, abs=1e-12)


def test_longtime_metadata_and_strict(tmp_path):
    out = tmp_path / "lt.csv"
    code = main(["longtime", "--gate", "kim", "--params", "0.4,0.6",
                 "--alpha", "1,0,1", "--beta", "0,1,0", "--method", "all",
                 "--nmax", "1", "--strict", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert [r["parity"] for r in rows] == ["even", "odd"]
    assert float(rows[0]["transfer"]) == pytest.approx(-0.5, abs=1e-8)
    for row in rows:
        assert int(row["iterations"]) >= 1
        assert row["converged"] == "true"
        assert row["oracle"] == ""


def test_otoc_scan_runs_each_diagonal_once_from_its_far_cell(tmp_path, applies,
                                                            monkeypatch):
    """fig5: the t = tmax row, x falling, extends each depth's trajectory
    once, at its even cell (40 column applications: 10/9/8/7/6 at n = 1..5,
    where one trajectory per diagonal took 80 and every cell on its own 340
    and 26 at n = 5); the
    other cells are served from memory, each bit for bit the value of a
    call on an empty memory.  The calls' ``meta["applications"]`` add up to
    the applications made."""
    results = []

    def recorded(*args):
        results.append(otoc_finite(*args))
        return results[-1]

    monkeypatch.setattr("duotoc.cli.otoc_finite", recorded)
    out = tmp_path / "fig5.csv"
    assert main(["otoc", "--preset", "fig5", "--method", "all", "--out", str(out)]) == 0
    assert len(applies) == 40
    assert [applies.count(n) for n in range(1, 6)] == [10, 9, 8, 7, 6]
    assert sum(res.meta["applications"] for res in results) == 40
    assert sum(res.meta["applications"] > 0 for res in results) == 5
    assert_matches_golden(out, "otoc", "fig5")
    cfg = resolve_config(argparse.Namespace(preset="fig5"))
    gate = build_gate(cfg)
    a_op, b_op = operator_from_coeffs(cfg.alpha), operator_from_coeffs(cfg.beta)
    rows = _read_csv(out)
    grid = [(x, t) for t in range(cfg.tmax + 1) for x in range(t + 1)]
    assert [(int(row["x"]), int(row["t"])) for row in rows] == grid
    for row, (x, t) in zip(rows, grid):
        if (x, t) == (0, 10):  # depth 6, beyond N_MAX_APPLY
            assert row["transfer"] == ""
            continue
        _TRAJECTORY_MEMO.clear()
        assert float(row["transfer"]) == otoc_finite(gate, a_op, b_op, x, t).value, (x, t)


def test_longtime_fig4_runs_each_depth_once(tmp_path, applies):
    """fig4: each depth's even row extends the depth's trajectory until even
    parity stops, and its odd row reads the odd overlaps on the way or
    extends the trajectory further, so a depth costs max(iterations)
    applications: 9, 40, 73, 64 and 56 at n = 1..5, 242 in all.  At n = 4
    and 5 the sketched fit stops both parities at once."""
    out = tmp_path / "fig4.csv"
    assert main(["longtime", "--preset", "fig4", "--method", "all", "--out", str(out)]) == 0
    assert_matches_golden(out, "longtime", "fig4")
    rows = _read_csv(out)
    grid = [(n, parity) for n in range(1, 6) for parity in ("even", "odd")]
    assert [(int(row["n"]), row["parity"]) for row in rows] == grid
    assert all(row["converged"] == "true" for row in rows)
    its = {(int(row["n"]), row["parity"]): int(row["iterations"]) for row in rows}
    for n in range(1, 6):
        even, odd = its[n, "even"], its[n, "odd"]
        assert applies.count(n) == max(even, odd), n
    assert [applies.count(n) for n in range(1, 6)] == [9, 40, 73, 64, 56]
    assert its[4, "even"] == its[4, "odd"] == 64
    assert its[5, "even"] == its[5, "odd"] == 56
    assert len(applies) == 242


def test_byte_identical_reruns(tmp_path):
    args = ["corr", "--gate", "xy", "--params", str(np.pi / 10),
            "--alpha", "1,1,1", "--beta", "1,-1,1", "--tmax", "6"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
# the gate flags behind each tests/golden/classify_<name>.json
CLASSIFY_GOLDEN = {
    "kim_0.4_0.6": ["--gate", "kim", "--params", "0.4,0.6"],
    "kim_0_0": ["--gate", "kim", "--params", "0,0"],
    "xy_pi_10": ["--gate", "xy", "--params", str(np.pi / 10)],
    "du_seed3": ["--gate", "du", "--seed", "3"],
    "kak_seed5": ["--gate", "kak", "--seed", "5"],
}


# tests/golden/<subcommand>_<preset>.csv holds the --method all CSV of each
# figure preset; the fig5 otoc and fig4 longtime files are checked by the
# scan-count tests above, which already produce them
FIGURE_GOLDEN = [("corr", "fig2"), ("corr", "fig5"), ("corr", "fig8"),
                 ("otoc", "fig2"), ("otoc", "fig8"),
                 ("longtime", "fig3"), ("longtime", "fig6"), ("longtime", "fig7")]
# value columns compared to a tolerance, per subcommand; every other column
# (the closed forms among them) byte for byte, except long-time iterations
GOLDEN_TOL = {"corr": {"transfer": 1e-13, "oracle": 1e-13, "delta": 1e-13},
              "otoc": {"transfer": 1e-13, "oracle": 1e-13, "delta": 1e-13},
              "longtime": {"transfer": 1e-9, "delta": 1e-9}}
GOLDEN_FREE = {"longtime": {"iterations"}}


def assert_matches_golden(path, subcommand, preset):
    """The CSV at ``path`` against tests/golden/<subcommand>_<preset>.csv:
    the same header and rows, each column compared as GOLDEN_TOL and
    GOLDEN_FREE say, a blank cell only where the golden one is blank."""
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    with open(os.path.join(GOLDEN, f"{subcommand}_{preset}.csv"), newline="") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0]
    assert len(got) == len(want)
    tol, free = GOLDEN_TOL[subcommand], GOLDEN_FREE.get(subcommand, set())
    for line, (row, gold) in enumerate(zip(got[1:], want[1:]), start=2):
        for name, cell, golden in zip(want[0], row, gold):
            where = (preset, line, name)
            if name in free:
                assert (cell == "") == (golden == ""), where
            elif name in tol and golden != "":
                assert cell != "", where
                assert abs(float(cell) - float(golden)) <= tol[name], where
            else:
                assert cell == golden, where


@pytest.mark.parametrize("subcommand,preset", FIGURE_GOLDEN)
def test_figure_data_matches_golden(tmp_path, subcommand, preset):
    out = tmp_path / f"{subcommand}_{preset}.csv"
    assert main([subcommand, "--preset", preset, "--method", "all", "--out", str(out)]) == 0
    assert_matches_golden(out, subcommand, preset)


@pytest.mark.parametrize("name", CLASSIFY_GOLDEN)
def test_classify_matches_golden(tmp_path, name):
    """classify --format json, the CLI's path through build_transfer, byte
    for byte against its committed output."""
    out = tmp_path / "classify.json"
    flags = CLASSIFY_GOLDEN[name]
    assert main(["classify", *flags, "--format", "json", "--out", str(out)]) == 0
    with open(os.path.join(GOLDEN, f"classify_{name}.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_json_format_bundles_config(capsys):
    code = main(["corr", "--gate", "kim", "--params", "0.4,0.6",
                 "--tmax", "2", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["config"]["tmax"] == 2
    assert len(doc["rows"]) == 3


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gate=kim\nparams=0.4,0.6\ntmax=5\nalpha=1,0,1\nbeta=0,1,0\n")
    code = main(["corr", "--config", str(cfg), "--tmax", "2",
                 "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["config"]["gate"] == "kim"
    assert doc["config"]["tmax"] == 2  # explicit flag wins over the file


def test_json_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gate": "xy", "params": [0.31415926535897931],
                               "tmax": 3}))
    code = main(["corr", "--config", str(cfg), "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["config"]["gate"] == "xy"
    assert len(doc["rows"]) == 4


@pytest.mark.parametrize("fmt", ["keyvalue", "json"])
@pytest.mark.parametrize("key,message", [("tmx", "unknown key 'tmx'"),
                                         ("preset", "key 'preset' is not allowed")])
def test_config_file_rejects_keys_it_cannot_apply(tmp_path, fmt, key, message):
    """A key that is no run setting, and a preset (which comes only through
    --preset), stop the run with a message naming the key, rather than being
    dropped or recorded without effect."""
    settings = {"gate": "kim", "params": "0.4,0.6", key: "fig5" if key == "preset" else "3"}
    cfg = tmp_path / "run.cfg"
    if fmt == "json":
        cfg.write_text(json.dumps(settings))
    else:
        cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
    ns = argparse.Namespace(config=str(cfg), strict=False)
    with pytest.raises(ConfigError, match=message):
        resolve_config(ns)
    with pytest.raises(SystemExit) as err:
        main(["corr", "--config", str(cfg)])
    assert err.value.code == 2


@pytest.mark.parametrize("text,message", [('{"gate": "kim",', "is not valid JSON"),
                                          (None, "No such file")],
                         ids=["broken-json", "missing-file"])
def test_config_file_that_cannot_be_read_exits_2(tmp_path, text, message):
    """A config file that is not valid JSON, or does not exist, stops the run
    with a usage error and exit 2, not a traceback."""
    cfg = tmp_path / ("broken.json" if text is not None else "nope.cfg")
    if text is not None:
        cfg.write_text(text)
    ns = argparse.Namespace(config=str(cfg), strict=False)
    with pytest.raises(ConfigError, match=message):
        resolve_config(ns)
    with pytest.raises(SystemExit) as err:
        main(["corr", "--config", str(cfg)])
    assert err.value.code == 2


@pytest.mark.parametrize("fmt", ["keyvalue", "json"])
@pytest.mark.parametrize("key,value", [("tmax", "abc"), ("tmax", 3.7), ("nmax", ""),
                                       ("seed", 1.5), ("strict", "ture"),
                                       ("params", "nan,0")])
def test_config_file_rejects_values_it_cannot_apply(tmp_path, fmt, key, value):
    """A value that does not parse as its setting stops the run with a
    message naming the setting, rather than a traceback, a truncation or a
    silent default."""
    settings = {"gate": "kim", "params": "0.4,0.6", key: value}
    cfg = tmp_path / "run.cfg"
    if fmt == "json":
        cfg.write_text(json.dumps(settings))
    else:
        cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
    ns = argparse.Namespace(config=str(cfg), strict=False)
    with pytest.raises(ConfigError, match=f"{key} needs"):
        resolve_config(ns)
    with pytest.raises(SystemExit) as err:
        main(["corr", "--config", str(cfg)])
    assert err.value.code == 2


def test_config_file_can_turn_strict_on(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gate=kim\nparams=0.4,0.6\nstrict=true\n")
    assert resolve_config(argparse.Namespace(config=str(cfg), strict=False)).strict


def test_preset_values_overridable(capsys):
    code = main(["otoc", "--preset", "fig4", "--tmax", "2", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["config"]["gate"] == "kim"
    assert doc["config"]["tmax"] == 2


def test_oracle_check_passes_strict(tmp_path):
    out = tmp_path / "oc.csv"
    code = main(["oracle-check", "--gate", "du", "--seed", "2",
                 "--alpha", "1,1,0", "--beta", "0,1,1", "--tmax", "3",
                 "--strict", "--out", str(out)])
    assert code == 0
    for row in _read_csv(out):
        assert float(row["delta"]) < TOL


def _strict_lines(err: str) -> list:
    return [line for line in err.splitlines() if line.startswith("strict:")]


@pytest.mark.parametrize("argv,route", [
    (["corr", "--preset", "fig5", "--method", "all", "--tmax", "3"], "oracle_correlator"),
    (["otoc", "--preset", "fig5", "--method", "all", "--tmax", "3"], "oracle_otoc"),
    (["longtime", "--preset", "fig7", "--method", "all", "--nmax", "2"], "xy_longtime"),
    (["oracle-check", "--preset", "fig5", "--tmax", "3"], "oracle_otoc"),
], ids=["corr", "otoc", "longtime", "oracle-check"])
def test_strict_run_with_a_disagreement_exits_1(monkeypatch, capsys, argv, route):
    """--strict turns a cross-method delta above the tolerance into exit
    status 1 with one ``strict:`` line on stderr; the same run without
    --strict exits 0.  The disagreement comes from the oracle or closed form
    that the command line calls, shifted by 1e-6."""
    exact = getattr(cli, route)
    monkeypatch.setattr(cli, route, lambda *args, **kwargs: exact(*args, **kwargs) + 1e-6)
    assert main([*argv, "--format", "json"]) == 0
    assert _strict_lines(capsys.readouterr().err) == []
    assert main([*argv, "--format", "json", "--strict"]) == 1
    assert len(_strict_lines(capsys.readouterr().err)) == 1


@pytest.mark.parametrize("shift,code", [(1e-9, 0), (1e-7, 1)])
def test_longtime_strict_uses_its_looser_tolerance(monkeypatch, capsys, shift, code):
    """Long-time rows are judged at LONGTIME_STRICT_TOL = 1e-8, not
    STRICT_TOL: a closed form shifted by 1e-9 still passes --strict, one
    shifted by 1e-7 does not."""
    exact = cli.xy_longtime
    monkeypatch.setattr(cli, "xy_longtime", lambda *args: exact(*args) + shift)
    assert main(["longtime", "--preset", "fig7", "--method", "all", "--nmax", "2",
                 "--format", "json", "--strict"]) == code
    assert len(_strict_lines(capsys.readouterr().err)) == code


def test_oracle_check_rows_are_the_otoc_scan_rows(capsys):
    """oracle-check and otoc --method all share the cell routes: at t <= 3,
    the oracle-check rows of fig5 are the otoc rows, float for float, in
    x, t, parity, transfer, oracle and delta (fig5 has no closed form)."""
    assert main(["otoc", "--preset", "fig5", "--method", "all", "--format", "json"]) == 0
    scan = json.loads(capsys.readouterr().out)["rows"]
    assert main(["oracle-check", "--preset", "fig5", "--format", "json"]) == 0
    checked = json.loads(capsys.readouterr().out)["rows"]
    fields = ("x", "t", "parity", "transfer", "oracle", "delta")
    want = [{k: row[k] for k in fields} for row in scan if row["t"] <= 3]
    assert [{k: row[k] for k in fields} for row in checked] == want
    assert len(want) == 10 and all(row["closed_form"] is None for row in scan)


def test_json_config_block_is_the_sidecar(tmp_path, capsys):
    """The config block of a --format json document and the sidecar of the
    CSV run with the same flags record the same resolved configuration, but
    for the format and the output path."""
    flags = ["corr", "--preset", "fig8", "--tmax", "2", "--params", "0.3",
             "--alpha", "1,2,2", "--strict"]
    assert main([*flags, "--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    out = tmp_path / "corr.csv"
    assert main([*flags, "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "corr.csv.json").read_text())
    assert config == {**sidecar, "format": "json", "out": None}
    assert sidecar["format"] == "csv" and sidecar["out"] == str(out)
    assert sidecar["params"] == [0.3] and sidecar["alpha"] == [1.0, 2.0, 2.0]


def test_spectrum_rows(capsys):
    code = main(["spectrum", "--gate", "xy", "--params", str(np.pi / 10)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines[0] == "channel,index,re,im,modulus"
    assert len(lines) == 9  # header + 4 eigenvalues per channel
    moduli = sorted(float(l.split(",")[4]) for l in lines[1:5])
    assert moduli[3] == pytest.approx(1.0, abs=TOL)
    assert moduli[2] == pytest.approx(np.sin(np.pi / 5), abs=TOL)


@pytest.mark.parametrize("argv", [
    ["corr", "--gate", "du"],                      # random family needs a seed
    ["corr", "--gate", "kim", "--params", "0.4"],  # kim needs two parameters
    ["corr", "--gate", "nope"],                    # unknown family
    ["longtime", "--preset", "fig4", "--nmax", "9"],
    ["corr", "--preset", "fig5", "--alpha", "0,0,0"],  # zero operators
    ["otoc", "--gate", "kim", "--params", "0.4,0.6", "--beta", "0,0,0,0",
     "--method", "all", "--strict", "--tmax", "1"],
    ["corr", "--preset", "fig5", "--alpha", "nan,0,1"],  # non-finite
    ["classify", "--gate", "du", "--seed=-1"],  # numpy takes no negative seed
])
def test_usage_errors_exit_two(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


# the flags each subcommand takes: exactly the settings it reads
GATE_FLAGS = {"gate", "params", "seed", "preset", "config", "out", "format"}
SCAN_FLAGS = GATE_FLAGS | {"alpha", "beta", "tmax", "method", "strict"}
SUBCOMMAND_FLAGS = {"classify": GATE_FLAGS, "spectrum": GATE_FLAGS,
                    "corr": SCAN_FLAGS, "otoc": SCAN_FLAGS,
                    "longtime": SCAN_FLAGS - {"tmax"} | {"nmax"},
                    "oracle-check": SCAN_FLAGS - {"method"}}


def test_each_subcommand_takes_the_flags_of_the_settings_it_reads():
    """61 subcommand-flag pairs in all, where one shared set of 13 flags
    made 78."""
    parser = cli._build_parser()
    for name, flags in SUBCOMMAND_FLAGS.items():
        args, _ = parser.parse_known_args([name])
        assert set(vars(args)) - {"cmd", "func"} == flags, name
    assert sum(map(len, SUBCOMMAND_FLAGS.values())) == 61


@pytest.mark.parametrize("argv,message", [
    (["oracle-check", "--preset", "fig5", "--method", "closed_form", "--tmax", "2"],
     "unrecognized arguments: --method closed_form"),
    (["spectrum", "--preset", "fig7", "--strict"], "unrecognized arguments: --strict"),
    (["classify", "--alpha", "1,0,0", "--tmax", "3", "--gate", "kim", "--params", "0.4,0.6"],
     "unrecognized arguments: --alpha 1,0,0 --tmax 3"),
    (["otoc", "--preset", "fig5", "--nmax", "1"], "unrecognized arguments: --nmax 1"),
    (["longtime", "--preset", "fig4", "--tmax", "0"], "unrecognized arguments: --tmax 0"),
    (["corr", "--gate", "du", "--seed", "1", "--params", "0.3"],
     "gate family 'du' takes no --params"),
    (["corr", "--gate", "kim", "--params", "0.4,0.6", "--seed", "9"],
     "gate family 'kim' takes no --seed"),
], ids=["oracle-check-method", "spectrum-strict", "classify-scan-flags", "otoc-nmax",
        "longtime-tmax", "du-params", "kim-seed"])
def test_a_flag_the_run_does_not_read_exits_two(capsys, argv, message):
    """A flag the subcommand, or the gate family, would ignore stops the run
    with a usage message rather than being accepted and recorded."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err


_READ_BY_GATE = {"du": {"gate", "seed"}, "kak": {"gate", "seed"},
                 "kim": {"gate", "params"}, "xy": {"gate", "params"}}


@pytest.mark.parametrize("argv,gate", [
    (["corr", "--gate", "kim", "--params", "0.4,0.6", "--tmax", "2"], "kim"),
    (["otoc", "--preset", "fig4", "--tmax", "2"], "kim"),
    (["longtime", "--preset", "fig3", "--nmax", "1"], "du"),
    (["spectrum", "--preset", "fig7"], "xy"),
    (["oracle-check", "--gate", "kak", "--seed", "3", "--tmax", "2"], "kak"),
], ids=["corr", "otoc", "longtime", "spectrum", "oracle-check"])
def test_record_holds_exactly_the_settings_the_run_read(tmp_path, capsys, argv, gate):
    """The sidecar and the --format json config block hold the settings the
    subcommand reads, less --seed or --params, whichever the gate family
    ignores: otoc records no nmax although fig4 sets one, a kim run no seed,
    a du run no params.  Each value is the resolved one."""
    name = argv[0]
    want = (SUBCOMMAND_FLAGS[name] - {"config", "gate", "params", "seed"}
            | _READ_BY_GATE[gate])
    assert main([*argv, "--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    out = tmp_path / "run.csv"
    assert main([*argv, "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "run.csv.json").read_text())
    assert set(config) == set(sidecar) == want
    args = cli._build_parser().parse_args([*argv, "--out", str(out)])
    resolved = json.loads(json.dumps(asdict(resolve_config(args))))
    assert sidecar == {key: resolved[key] for key in want}


def test_preset_and_config_values_the_run_does_not_read_are_left_out(tmp_path, capsys):
    """A config file's seed and nmax, and fig2's seed under --gate kim, are
    no usage error (only an explicit flag is); the record leaves them out."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gate=kim\nparams=0.4,0.6\nseed=4\nnmax=3\ntmax=2\n")
    assert main(["corr", "--config", str(cfg), "--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert "seed" not in config and "nmax" not in config and config["tmax"] == 2
    assert main(["corr", "--preset", "fig2", "--gate", "kim", "--params", "0.4,0.6",
                 "--tmax", "1", "--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert "seed" not in config and config["preset"] == "fig2"


@pytest.mark.parametrize("cap,unconverged", [(30, [(n, p) for n in (1, 2, 3)
                                                   for p in ("even", "odd")]),
                                             (230, [(3, "even")])])
def test_strict_fails_an_unconverged_longtime_row(monkeypatch, capsys, applies, cap,
                                                  unconverged):
    """A long-time row stopped at ITERATION_CAP (route cesaro, converged
    false) has no delta to judge, yet --strict exits 1 on it and names it on
    stderr; without --strict the run exits 0.  fig3 stops at 47, 54, 118,
    125, 259 and 205 applications at n = 1..3, so a cap of 230 leaves only
    the n = 3 even row open."""
    monkeypatch.setattr("duotoc.transfer.ITERATION_CAP", cap)
    argv = ["longtime", "--preset", "fig3", "--nmax", "3", "--method", "transfer",
            "--format", "json"]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["n"], r["parity"]) for r in rows if not r["converged"]] == unconverged
    assert main([*argv, "--strict"]) == 1
    assert _strict_lines(capsys.readouterr().err) == [
        f"strict: long-time row n={n} {p} did not converge in {cap} iterations"
        for n, p in unconverged]


def test_operator_from_coeffs_normalization():
    op = operator_from_coeffs((3, 0, 4))
    assert np.trace(op @ op).real / 2 == pytest.approx(1.0, abs=1e-12)
    ident = operator_from_coeffs((1, 0, 0, 0))
    assert np.abs(ident - np.eye(2)).max() < 1e-12


def test_resolve_config_unknown_preset():
    ns = argparse.Namespace(preset="fig99", config=None, strict=False)
    with pytest.raises(ValueError):
        resolve_config(ns)
