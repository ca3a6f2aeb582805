import copy
import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest

from selfsim import automaton, cli, neighbors, oracle, spectrum
from selfsim.config import (BUDGETS, ConfigError, IfsConfig, bundled_names, load_bundled)
from selfsim.pipeline import Pipeline

ALL = ["cantor-1-3", "commensurable-osc", "complex-pisot-demo",
       "golden-bernoulli", "golden-gasket-conjugated", "lebesgue-1-2"]


def test_bundled_inventory():
    assert bundled_names() == ALL


def test_roundtrip_bit_exact():
    for name in ALL:
        ref = resources.files("selfsim.configs").joinpath(f"{name}.json")
        raw = ref.read_text()
        cfg = IfsConfig.from_dict(json.loads(raw))
        assert cfg.canonical_json() == raw
        # a second load of the serialized form is identical again
        assert IfsConfig.from_dict(json.loads(cfg.canonical_json())).canonical_json() == raw


def test_config_hash_stable_and_distinct():
    hashes = {load_bundled(n).config_hash() for n in ALL}
    assert len(hashes) == len(ALL)
    assert load_bundled(ALL[0]).config_hash() == load_bundled(ALL[0]).config_hash()


def _golden_dict():
    ref = resources.files("selfsim.configs").joinpath("golden-bernoulli.json")
    return json.loads(ref.read_text())


def test_validation_messages():
    base = _golden_dict()

    bad = copy.deepcopy(base)
    bad["probabilities"] = ["1/2", "1/3"]
    with pytest.raises(ConfigError, match="sum"):
        IfsConfig.from_dict(bad).build_ifs()

    bad = copy.deepcopy(base)
    bad["field"]["minimal_polynomial"] = ["-1/2", "-1/2", "1/1"]  # reducible
    with pytest.raises(ConfigError, match="reducible"):
        IfsConfig.from_dict(bad).build_field()

    bad = copy.deepcopy(base)
    bad["maps"][0]["linear"] = [[["1/1", "0/1"]]]  # |linear| != rho
    with pytest.raises(ConfigError, match="orthogonal|modulus"):
        IfsConfig.from_dict(bad).build_ifs()

    bad = copy.deepcopy(base)
    bad["maps"][0]["scale_exponent"] = 0
    with pytest.raises(ConfigError, match="positive integer"):
        IfsConfig.from_dict(bad)

    bad = copy.deepcopy(base)
    del bad["mode"]
    with pytest.raises(ConfigError, match="mode"):
        IfsConfig.from_dict(bad)

    bad = copy.deepcopy(base)
    bad["probabilities"] = ["1/2", "x"]
    with pytest.raises(ConfigError, match="bad rational"):
        IfsConfig.from_dict(bad)


@pytest.mark.parametrize("key,value", [
    ("max_states", "abc"), ("max_states", -1), ("max_states", 0), ("pressure_n", 1.5),
    ("pressure_n", 1), ("kron_dim_budget", "x"), ("tuple_budget", 0),
    ("max_neighbor_nodes", True),
])
def test_budget_values_are_validated(key, value):
    bad = _golden_dict()
    bad["budgets"][key] = value
    with pytest.raises(ConfigError, match=f"budget '{key}'"):
        IfsConfig.from_dict(bad)


@pytest.mark.parametrize("func, param, key", [
    (neighbors.candidate_closure, "max_nodes", "max_neighbor_nodes"),
    (neighbors.NeighborDecider, "max_nodes", "max_neighbor_nodes"),
    (neighbors.NeighborDecider, "tuple_budget", "tuple_budget"),
    (automaton.build, "max_states", "max_states"),
    (spectrum.PressureEngine, "kron_dim_budget", "kron_dim_budget"),
    (spectrum.PressureEngine, "default_n", "pressure_n"),
])
def test_library_budget_defaults_are_the_table_defaults(func, param, key):
    assert inspect.signature(func).parameters[param].default == BUDGETS[key].default


def test_config_budgets_default_to_the_table():
    cfg = _golden_dict()
    del cfg["budgets"]
    assert IfsConfig.from_dict(cfg).budgets == {k: b.default for k, b in BUDGETS.items()}


@pytest.mark.parametrize("argv", [[], ["--max-states", "0"], ["--pressure-n", "1"]])
def test_cli_bad_budget_is_a_config_error(tmp_path, capsys, argv):
    cfg = _golden_dict()
    if not argv:
        cfg["budgets"]["max_states"] = "abc"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    command = "spectrum" if "--pressure-n" in argv else "build"  # the commands that read them
    rc = cli.main([command, "--config", str(path), "--out", str(tmp_path)] + argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error: budget ") and err.count("\n") == 1


def test_cli_check_ftc(tmp_path, capsys):
    rc = cli.main(["check-ftc", "--config", "bundled:golden-bernoulli",
                   "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pisot" in out and "|Gamma| = 7" in out
    assert (tmp_path / "golden-bernoulli-neighbors.dot").exists()


def _inconclusive_counts(out):
    line, = (ln for ln in out.splitlines() if ln.startswith("INCONCLUSIVE: "))
    counts = dict(part.split("=") for part in line[line.rindex("(") + 1:-1].split(", "))
    return int(counts["nodes"]), int(counts["frontier"])


def test_cli_check_ftc_inconclusive(tmp_path, capsys):
    # ratio 2/3 with overlap: no finite type within a small budget
    cfg = _golden_dict()
    cfg["name"] = "overlap-2-3"
    cfg["field"]["minimal_polynomial"] = ["-2/3", "1/1"]
    third = ["1/3"]
    cfg["base_ratio"] = ["2/3"]
    cfg["maps"] = [
        {"linear": [[["2/3"]]], "translation": [["0/1"]], "scale_exponent": 1},
        {"linear": [[["2/3"]]], "translation": [third], "scale_exponent": 1},
    ]
    cfg["budgets"] = {"max_neighbor_nodes": 200}
    path = tmp_path / "overlap.json"
    path.write_text(IfsConfig.from_dict(cfg).canonical_json())
    rc = cli.main(["check-ftc", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    # the frontier is the discovered nodes not yet taken up for expansion
    nodes, frontier = _inconclusive_counts(capsys.readouterr().out)
    assert nodes == 200 and 0 < frontier < nodes


def test_cli_check_ftc_budget_below_the_seed_pairs(tmp_path, capsys):
    # golden-bernoulli has 2 x 2 seed pairs; the budget runs out while seeding
    cfg = _golden_dict()
    cfg["budgets"]["max_neighbor_nodes"] = 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["check-ftc", "--config", str(path), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.err == ""
    assert _inconclusive_counts(captured.out) == (2, 2)


# x^3 + x^2 - 1 with its root near -0.877 + 0.745i, and z -> z/2, z/2 + 1
_COMPLEX_CUBIC = {
    "name": "complex-cubic", "backend": "complex", "dimension": 1, "mode": "equicontractive",
    "field": {"minimal_polynomial": ["-1", "0", "1", "1"],
              "root_box": {"real": ["-1", "-3/4"], "imag": ["1/2", "1"]}},
    "base_ratio": ["1/4", "0", "0"],
    "maps": [{"linear": ["1/2", "0", "0"], "translation": [t, "0", "0"], "scale_exponent": 1}
             for t in ("0", "1")],
    "probabilities": ["1/2", "1/2"],
}

# z -> (zeta_8 / 2) z + t over Q(zeta_8), written in the real form with
# d = 2 over Q(sqrt 2): (sqrt 2 / 4) [[1, -1], [1, 1]], t in {(0, 0), (1, 0)}
_ROTATION = [[["0", "1/4"], ["0", "-1/4"]], [["0", "1/4"], ["0", "1/4"]]]
_SQRT2_ROTATION = {
    "name": "sqrt2-rotation", "backend": "real", "dimension": 2, "mode": "equicontractive",
    "field": {"minimal_polynomial": ["-2", "0", "1"], "root_box": {"real": ["1", "2"]}},
    "base_ratio": ["1/2", "0"],
    "maps": [{"linear": _ROTATION, "translation": [[t, "0"], ["0", "0"]], "scale_exponent": 1}
             for t in ("0", "1")],
    "probabilities": ["1/2", "1/2"],
}


@pytest.mark.parametrize("command", ["check-ftc", "build", "spectrum"])
def test_cli_complex_field_of_degree_3_is_one_config_error_line(tmp_path, capsys, command):
    # |c|^2 is no element of a complex cubic field: no exact modulus check
    path = tmp_path / "in" / "cfg.json"
    path.parent.mkdir()
    path.write_text(json.dumps(_COMPLEX_CUBIC))
    rc = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("config error: maps: a complex field must be quadratic")
    assert '"dimension": 2' in captured.err and captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]  # nothing written


def test_cli_planar_rotation_in_the_real_form_builds(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_SQRT2_ROTATION))
    assert cli.main(["check-ftc", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "|Gamma| = 1 maps" in capsys.readouterr().out
    assert cli.main(["build", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("automaton: 3 states")
    point, lo, hi, _est = Pipeline(IfsConfig.load(path)).engine.tau(2.0)
    assert abs(point - 1) < 1e-12 and lo <= 1 <= hi


def _cli_env(**extra):
    # the environment of a `selfsim` run in a fresh interpreter, on this checkout
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


# Runs in a fresh interpreter: prints, as JSON, which of sympy and scipy are
# loaded after each step of the start-up, build and spectrum path, after a
# degree-3 field and its Pisot check, then after the check-ftc report.
_IMPORT_PROBE = """
import contextlib, io, json, sys
import selfsim, selfsim.cli
from selfsim import NumberField, RatInterval, RootBox, check_pisot
names, out = sys.argv[1].split(","), sys.argv[2]
def loaded():
    return [m for m in ("sympy", "scipy") if m in sys.modules]
steps = {"import": loaded()}
with contextlib.redirect_stdout(io.StringIO()):
    for name in names:
        assert selfsim.cli.main(["build", "--config", "bundled:" + name, "--out", out]) == 0
        steps["build " + name] = loaded()
    assert selfsim.cli.main(["spectrum", "--config", "bundled:golden-bernoulli",
                             "--integer-q-exact", "--out", out]) == 0
    steps["spectrum golden-bernoulli"] = loaded()
# the tribonacci field: rho^3 + rho^2 + rho = 1
tribonacci = ([-1, 1, 1, 1], RootBox(RatInterval(0, 1)))
NumberField(*tribonacci)
steps["tribonacci " + check_pisot(*tribonacci).kind] = loaded()
report = io.StringIO()
with contextlib.redirect_stdout(report):
    rc = selfsim.cli.main(["check-ftc", "--config", "bundled:complex-pisot-demo",
                           "--out", out])
print(json.dumps({"steps": steps, "ftc_rc": rc, "ftc": report.getvalue(),
                  "ftc_loaded": loaded()}))
"""


def test_pipeline_path_loads_no_sympy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, ",".join(ALL), str(tmp_path)],
                          env=_cli_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert len(result["steps"]) == len(ALL) + 3 and "tribonacci pisot" in result["steps"]
    assert not any(result["steps"].values()), result["steps"]
    # check_pisot certifies its roots by interval Newton: no sympy, no scipy
    assert result["ftc_rc"] == 0 and result["ftc_loaded"] == []
    assert result["ftc"] == (
        "pisot advisory: 1/rho is complex-pisot (|1/rho| = 1.414214, algebraic integer: True)\n"
        "finite type verified: |Gamma| = 7 maps (7 tagged nodes alive of 21 candidates)\n"
        "  z->(1)*z+(-2)\n"
        "  z->(1)*z+(-2+2*r)\n"
        "  z->(1)*z+(-2*r)\n"
        "  z->(1)*z+(0)\n"
        "  z->(1)*z+(2*r)\n"
        "  z->(1)*z+(2-2*r)\n"
        "  z->(1)*z+(2)\n")


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("name", ["golden-gasket-conjugated", "complex-pisot-demo"])
def test_cli_stdout_closed_early_exits_quietly(tmp_path, name, unbuffered):
    # the reader closes the pipe before the first line: the write fails inside
    # a print (unbuffered) or in main's last flush (block-buffered)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "selfsim.cli", "check-ftc", "--config", f"bundled:{name}",
             "--out", str(tmp_path)],
            stdout=write, stderr=subprocess.PIPE, env=_cli_env(PYTHONUNBUFFERED=unbuffered),
            timeout=300)
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141


def test_cli_stdout_read_one_line(tmp_path):
    # `selfsim check-ftc ... | head -1`: whether the rest of the report was
    # written before the pipe closed is a race, but stderr stays empty either way
    proc = subprocess.Popen(
        [sys.executable, "-m", "selfsim.cli", "check-ftc", "--config",
         "bundled:golden-gasket-conjugated", "--out", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(PYTHONUNBUFFERED="1"))
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) in (cli.EXIT_OK, cli.EXIT_BROKEN_PIPE)
    assert first.startswith(b"pisot advisory: 1/rho is pisot") and err == b""


def test_cli_invalid_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    rc = cli.main(["build", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1


def test_cli_mass(tmp_path, capsys):
    rc = cli.main(["mass", "--config", "bundled:cantor-1-3", "--address", "0,1,1,2"])
    out = capsys.readouterr().out
    assert rc == 0 and "1/8" in out
    # an address that walks no edge is an input error: one config error line, exit 1
    rc = cli.main(["mass", "--config", "bundled:cantor-1-3", "--address", "0,0"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "config error: address not admissible: no mass-positive edge 0 -> 0\n"


@pytest.mark.parametrize("argv", [
    ["mass", "--address", "0,a"],
    ["spectrum", "--q-grid", "0:1/0:1"],
    ["spectrum", "--q-grid=-1:0:0.5"],
    ["oracle", "estimate-mass", "--lo", "x"],
    ["oracle", "dyadic", "--q", "0"],
    ["oracle", "tau", "--q", "-1"],
    ["oracle", "tau", "--n-min", "5", "--n-max", "3"],
    ["oracle", "estimate-mass", "--samples", "0"],
    ["oracle", "estimate-mass", "--lo", "1", "--hi", "0"],  # an empty region
])
def test_cli_malformed_input_is_a_config_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # where spectrum and oracle dyadic write by default
    rc = cli.main(argv + ["--config", "bundled:cantor-1-3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())  # nothing written


@pytest.mark.parametrize("command", ["build", "check-ftc"])
@pytest.mark.parametrize("keys, value", [
    pytest.param(("field", "root_box", "real"), ["0/1"], id="real-box-one-end"),
    pytest.param(("field", "root_box", "real"), ["1", "0"], id="real-box-reversed"),
    pytest.param(("field", "root_box", "imag"), ["0/1", "1/1", "2/1"], id="imag-box-three-ends"),
    pytest.param(("budgets",), [1], id="budgets-list"),
    pytest.param(("dimension",), True, id="dimension-bool"),
    pytest.param(("maps", 0, "scale_exponent"), True, id="scale-exponent-bool"),
    pytest.param(("field", "root_box", "real"), ["5", "6"], id="box-without-root"),
    pytest.param(("maps",), [], id="maps-empty"),
    pytest.param(("maps",), 5, id="maps-not-a-list"),
    pytest.param(("maps",), [5, 6], id="maps-not-objects"),
    pytest.param(("probabilities",), 5, id="probabilities-not-a-list"),
    pytest.param(("maps", 0, "linear"), [5], id="linear-row-not-a-list"),
    pytest.param(("field",), 5, id="field-not-an-object"),
    pytest.param(("field", "minimal_polynomial"), 5, id="minimal-polynomial-not-a-list"),
    pytest.param(("field", "root_box"), 5, id="root-box-not-an-object"),
    pytest.param(("maps", 0, "translation"), 5, id="translation-not-a-list"),
    pytest.param(("name",), "a/b", id="name-with-a-directory"),
    pytest.param(("name",), "../escaped", id="name-outside-out"),
    pytest.param(("name",), "..", id="name-parent"),
    pytest.param(("name",), "", id="name-empty"),
    pytest.param(("name",), 5, id="name-not-a-string"),
    pytest.param(("name",), "a\0b", id="name-with-a-nul"),
    pytest.param(("field", "minimal_polynomial"), [], id="minimal-polynomial-empty"),
    pytest.param(("field", "minimal_polynomial"), ["1/1", "0/1"],
                 id="minimal-polynomial-leading-zero"),
])
def test_cli_malformed_config_is_one_config_error_line(tmp_path, capsys, command, keys, value):
    cfg = json.loads(resources.files("selfsim.configs").joinpath("cantor-1-3.json").read_text())
    *parents, last = keys
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = value
    path = tmp_path / "in" / "cfg.json"
    path.parent.mkdir()
    path.write_text(json.dumps(cfg))
    rc = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]  # nothing written


@pytest.mark.parametrize("argv", [
    pytest.param(["build", "--config", "bundled:cantor-1-3", "--bogus"], id="unknown-flag"),
    pytest.param(["build"], id="no-config"),
    pytest.param(["build", "--config", "bundled:cantor-1-3", "--max-states", "abc"],
                 id="max-states-not-an-int"),
    pytest.param([], id="no-command"),
    pytest.param(["no-such-command"], id="unknown-command"),
])
def test_cli_usage_error_is_one_config_error_line(capsys, argv):
    # parsing fails before any file is read or written
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error: ") and err.count("\n") == 1


# the flags each command reads: 28 (command, flag) pairs; oracle only
# chooses one of its three commands
KEPT_FLAGS = {
    "check-ftc": {"--config", "--out"},
    "build": {"--config", "--out", "--max-states"},
    "mass": {"--config", "--max-states", "--address"},
    "spectrum": {"--config", "--out", "--max-states", "--pressure-n", "--q-grid",
                 "--integer-q-exact"},
    "oracle": set(),
    "oracle dyadic": {"--config", "--out", "--q", "--n-min", "--n-max"},
    "oracle tau": {"--config", "--q", "--n-min", "--n-max"},
    "oracle estimate-mass": {"--config", "--lo", "--hi", "--samples", "--rng-seed"},
}


@pytest.mark.parametrize("command", sorted(KEPT_FLAGS))
def test_cli_subcommand_accepts_the_flags_it_reads(capsys, command):
    with pytest.raises(SystemExit):
        cli.main(command.split() + ["--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert set(re.findall(r"--[a-z-]+", usage)) == KEPT_FLAGS[command]
    assert sum(map(len, KEPT_FLAGS.values())) == 28


@pytest.mark.parametrize("command, flag", [
    ("check-ftc", "--max-states"), ("check-ftc", "--pressure-n"), ("check-ftc", "--rng-seed"),
    ("build", "--pressure-n"), ("build", "--rng-seed"),
    ("mass", "--out"), ("mass", "--pressure-n"), ("mass", "--rng-seed"),
    ("spectrum", "--rng-seed"),
    ("oracle tau", "--max-states"), ("oracle tau", "--pressure-n"),
    ("oracle dyadic", "--rng-seed"), ("oracle dyadic", "--lo"), ("oracle dyadic", "--hi"),
    ("oracle dyadic", "--samples"),
    ("oracle tau", "--out"), ("oracle tau", "--rng-seed"), ("oracle tau", "--lo"),
    ("oracle tau", "--hi"), ("oracle tau", "--samples"),
    ("oracle estimate-mass", "--out"), ("oracle estimate-mass", "--q"),
    ("oracle estimate-mass", "--n-min"), ("oracle estimate-mass", "--n-max"),
])
def test_cli_flag_without_a_reader_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                    command, flag):
    monkeypatch.chdir(tmp_path)
    argv = ["mass", "--address", "0"] if command == "mass" else command.split()
    rc = cli.main(argv + ["--config", "bundled:cantor-1-3", flag, "5"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"config error: unrecognized arguments: {flag} 5\n"
    assert not any(tmp_path.iterdir())  # nothing written


@pytest.mark.parametrize("argv, budgets", [
    pytest.param(["build", "--max-states", "10", "--out", "out"], {}, id="build-max-states"),
    pytest.param(["mass", "--max-states", "10", "--address", "0"], {}, id="mass-max-states"),
    pytest.param(["spectrum", "--max-states", "10", "--out", "out"], {},
                 id="spectrum-max-states"),
    pytest.param(["build", "--out", "out"], {"tuple_budget": 1}, id="build-tuple-budget"),
])
def test_cli_budget_run_out_is_inconclusive(tmp_path, capsys, monkeypatch, argv, budgets):
    # every budget that runs out takes one path: an inconclusive line and exit 2
    cfg = json.loads(resources.files("selfsim.configs")
                     .joinpath("golden-gasket-conjugated.json").read_text())
    cfg["budgets"].update(budgets)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    rc = cli.main(argv + ["--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("inconclusive: ") and captured.err.count("\n") == 1
    assert not any(run.iterdir())  # nothing written


@pytest.mark.parametrize("name", ["golden-gasket-conjugated", "complex-pisot-demo"])
def test_cli_estimate_mass_refuses_a_system_off_the_real_line(tmp_path, capsys, monkeypatch,
                                                              name):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["oracle", "estimate-mass", "--config", f"bundled:{name}", "--samples", "100"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error: estimate-mass ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())  # nothing written


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_cli_build_and_spectrum_deterministic(tmp_path, capsys):
    outs = []
    for run in ("a", "b"):
        d = tmp_path / run
        rc = cli.main(["build", "--config", "bundled:commensurable-osc", "--out", str(d)])
        assert rc == 0
        rc = cli.main(["spectrum", "--config", "bundled:commensurable-osc",
                       "--q-grid", "0.5:3.0:0.25", "--out", str(d)])
        assert rc == 0
        blobs = b""
        for f in sorted(d.iterdir()):
            blobs += f.name.encode() + f.read_bytes()
        outs.append(blobs)
    assert outs[0] == outs[1]
    csv_text = (tmp_path / "a" / "commensurable-osc-spectrum.csv").read_text()
    assert csv_text.splitlines()[0] == "q,tau,tau_lower,tau_upper,method,n,config_hash"


def test_cli_spectrum_reports_dp_coarsening(tmp_path, capsys, monkeypatch):
    args = ["spectrum", "--config", "bundled:golden-bernoulli",
            "--q-grid", "1.5:2.5:0.5", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    assert "continued in floats" not in capsys.readouterr().out
    monkeypatch.setattr(spectrum, "_DP_MAX_EXACT_ENTRIES", 50)
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert out.count("continued in floats") == 1 and "n = 16" in out


def test_cli_spectrum_checks_irreducibility_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = spectrum.irreducibility_check

    def counted(ess):
        calls.append(ess)
        return original(ess)

    monkeypatch.setattr(spectrum, "irreducibility_check", counted)
    if hasattr(cli, "irreducibility_check"):
        monkeypatch.setattr(cli, "irreducibility_check", counted)
    assert cli.main(["spectrum", "--config", "bundled:golden-bernoulli",
                     "--q-grid", "1.5:2.5:0.5", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    path = tmp_path / "golden-bernoulli-spectrum.csv"
    assert capsys.readouterr().out == (
        "essential class: 5 states, L = 9, irreducibility exponent r = 4\n"
        "tau(1) = -0.000e+00 via eigenvector-exact\n"
        f"curve written to {path} (max bound width 1.11, concavity defect 0; "
        "smoothness diagnostic is non-rigorous)\n"
        "note: the tau column follows the subadditive estimate (exactly concave); "
        "tau_lower/tau_upper give the rigorous range, and --integer-q-exact "
        "appends certified values at integer q\n")


def test_cli_spectrum_reports_integer_q_fallback(tmp_path, capsys):
    args = ["spectrum", "--config", "bundled:golden-bernoulli", "--q-grid", "6:6:1"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert "fell back" not in capsys.readouterr().out
    assert cli.main(args + ["--out", str(tmp_path / "b"), "--integer-q-exact"]) == 0
    out = capsys.readouterr().out
    assert out.count("note: --integer-q-exact fell back to finite-n at q = 6 ") == 1
    rows = (tmp_path / "b" / "golden-bernoulli-spectrum.csv").read_text().splitlines()
    assert len(rows) == 3 and rows[2].split(",")[4] == "finite-n"


def test_cli_spectrum_integer_q_exact_skips_q_zero(tmp_path, capsys):
    # tau(0) is a curve row; the certified integer rows are for q > 0 only
    assert cli.main(["spectrum", "--config", "bundled:cantor-1-3", "--q-grid", "0:2:1/2",
                     "--integer-q-exact", "--out", str(tmp_path)]) == 0
    rows = [r.split(",") for r in
            (tmp_path / "cantor-1-3-spectrum.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ["0.0", "0.5", "1.0", "1.5", "2.0", "1.0", "2.0"]
    assert all(r[4] != "finite-n" for r in rows[5:])


def test_cli_spectrum_reports_extra_terminal_components(tmp_path, capsys, monkeypatch):
    args = ["spectrum", "--config", "bundled:commensurable-osc", "--q-grid", "1.5:2.5:0.5"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert "terminal components" not in capsys.readouterr().out
    original = spectrum.essential_class

    def two_components(model):
        ess = original(model)
        ess.diagnostics["terminal_components"] = 2
        return ess

    monkeypatch.setattr(spectrum, "essential_class", two_components)
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert out.count("note: the pruned automaton has 2 terminal components") == 1
    name = "commensurable-osc-spectrum.csv"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_oracle(tmp_path, capsys):
    rc = cli.main(["oracle", "tau", "--config", "bundled:lebesgue-1-2",
                   "--q", "2.0", "--n-min", "6", "--n-max", "12"])
    out = capsys.readouterr().out
    assert rc == 0 and "tau_dyadic(2.0) = 1.000000" in out
    rc = cli.main(["oracle", "dyadic", "--config", "bundled:cantor-1-3",
                   "--q", "2.0", "--n-min", "4", "--n-max", "8",
                   "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "cantor-1-3-dyadic.csv").read_text().splitlines()
    assert lines[0] == "q,n,lq_sum,config_hash"
    assert len(lines) == 6
    rc = cli.main(["oracle", "estimate-mass", "--config", "bundled:cantor-1-3",
                   "--lo", "0", "--hi", "1/2", "--samples", "20000",
                   "--rng-seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0 and "monte-carlo" in out


@pytest.mark.parametrize("name", ["cantor-1-3", "golden-bernoulli"])
def test_cli_dyadic_writes_the_sums_tau_fits(tmp_path, capsys, name):
    # one definition of the dyadic sums: the CSV holds exactly the sums whose logs tau fits
    rc = cli.main(["oracle", "dyadic", "--config", f"bundled:{name}", "--q", "2",
                   "--n-min", "6", "--n-max", "12", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / f"{name}-dyadic.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    td = oracle.tau_dyadic(load_bundled(name).build_ifs(), 2.0, range(6, 13))
    assert [int(r["n"]) for r in rows] == list(range(6, 13))
    assert [math.log(float(r["lq_sum"])) for r in rows] == td.log_sums


def test_cli_automaton_artifacts(tmp_path):
    rc = cli.main(["build", "--config", "bundled:lebesgue-1-2", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "lebesgue-1-2-automaton.json").read_text())
    assert data["config_hash"] == load_bundled("lebesgue-1-2").config_hash()
    assert len(data["states"]) == 7
    assert set(data["mass_positive_states"]) == {0, 2, 3, 5, 6}
    dot = (tmp_path / "lebesgue-1-2-automaton.dot").read_text()
    assert "digraph" in dot
