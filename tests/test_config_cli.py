import copy
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest

from selfsim import cli, spectrum
from selfsim.config import (ConfigError, IfsConfig, bundled_names, load_bundled)

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


def test_cli_check_ftc(tmp_path, capsys):
    rc = cli.main(["check-ftc", "--config", "bundled:golden-bernoulli",
                   "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pisot" in out and "|Gamma| = 7" in out
    assert (tmp_path / "golden-bernoulli-neighbors.dot").exists()


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


# Runs in a fresh interpreter: prints, as JSON, whether sympy is loaded after
# each step of the start-up, build and spectrum path, then the check-ftc
# report (which is the one command that needs sympy).
_SYMPY_PROBE = """
import contextlib, io, json, sys
import selfsim, selfsim.cli
names, out = sys.argv[1].split(","), sys.argv[2]
loaded = {"import": "sympy" in sys.modules}
with contextlib.redirect_stdout(io.StringIO()):
    for name in names:
        assert selfsim.cli.main(["build", "--config", "bundled:" + name, "--out", out]) == 0
        loaded["build " + name] = "sympy" in sys.modules
    assert selfsim.cli.main(["spectrum", "--config", "bundled:golden-bernoulli",
                             "--out", out]) == 0
    loaded["spectrum golden-bernoulli"] = "sympy" in sys.modules
report = io.StringIO()
with contextlib.redirect_stdout(report):
    rc = selfsim.cli.main(["check-ftc", "--config", "bundled:complex-pisot-demo",
                           "--out", out])
print(json.dumps({"loaded": loaded, "ftc_rc": rc, "ftc": report.getvalue(),
                  "ftc_loaded": "sympy" in sys.modules}))
"""


def test_pipeline_path_loads_no_sympy(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SYMPY_PROBE, ",".join(ALL), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert len(result["loaded"]) == len(ALL) + 2
    assert not any(result["loaded"].values()), result["loaded"]
    # check_pisot isolates roots with sympy: the probe does see the import
    assert result["ftc_rc"] == 0 and result["ftc_loaded"]
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


def test_cli_invalid_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    rc = cli.main(["build", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1


def test_cli_mass(tmp_path, capsys):
    rc = cli.main(["mass", "--config", "bundled:cantor-1-3",
                   "--address", "0,1,1,2", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0 and "1/8" in out
    rc = cli.main(["mass", "--config", "bundled:cantor-1-3",
                   "--address", "0,0", "--out", str(tmp_path)])
    assert rc == 3


def test_cli_build_and_spectrum_deterministic(tmp_path, capsys):
    outs = []
    for run in ("a", "b"):
        d = tmp_path / run
        rc = cli.main(["build", "--config", "bundled:commensurable-osc",
                       "--out", str(d), "--rng-seed", "11"])
        assert rc == 0
        rc = cli.main(["spectrum", "--config", "bundled:commensurable-osc",
                       "--q-grid", "0.5:3.0:0.25", "--out", str(d),
                       "--rng-seed", "11"])
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
                   "--q", "2.0", "--n-min", "6", "--n-max", "12",
                   "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0 and "tau_dyadic(2.0) = 1.000000" in out
    rc = cli.main(["oracle", "dyadic", "--config", "bundled:cantor-1-3",
                   "--q", "2.0", "--n-min", "4", "--n-max", "8",
                   "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "cantor-1-3-dyadic.csv").read_text().splitlines()
    assert lines[0] == "q,n,lq_sum,config_hash,rng_seed"
    assert len(lines) == 6
    rc = cli.main(["oracle", "estimate-mass", "--config", "bundled:cantor-1-3",
                   "--lo", "0", "--hi", "1/2", "--samples", "20000",
                   "--rng-seed", "3", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0 and "monte-carlo" in out


def test_cli_automaton_artifacts(tmp_path):
    rc = cli.main(["build", "--config", "bundled:lebesgue-1-2", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "lebesgue-1-2-automaton.json").read_text())
    assert data["config_hash"] == load_bundled("lebesgue-1-2").config_hash()
    assert len(data["states"]) == 7
    assert set(data["mass_positive_states"]) == {0, 2, 3, 5, 6}
    dot = (tmp_path / "lebesgue-1-2-automaton.dot").read_text()
    assert "digraph" in dot
