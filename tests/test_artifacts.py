"""`selfsim build` and `selfsim spectrum` outputs are byte-identical to goldens.

Each simplification or speed-up of the pipeline must leave these files
unchanged, on all six bundled configs.  The build goldens are the sha256
values recorded in `perfbench/references.json`.  The spectrum goldens are
the sha256 values of `selfsim spectrum --integer-q-exact` CSVs at the
default q grid; they pin the tau values and bounds, and the delta that
enters the finite-n lower bounds, to the last bit.  Those are float
results, so the spectrum goldens assume the same numpy and BLAS rounding.
"""

import csv
import hashlib
from pathlib import Path

import pytest

from conftest import assert_same_bracket, pressure_bracket
from selfsim import cli

GOLDEN = {
    "cantor-1-3": {
        "automaton.dot": "936d300efd7b7aa0d9320bed7a9d9ad93ae59e42dcc4b7b80205810fa999ed0f",
        "automaton.json": "4a94c3190d50e53840e160919ea93fb680cb7b7e5a117ce2d9aa40cba879dbd1",
        "measure.json": "4df5999b26553287f5f4efa6d5ff3b4345f1b6f88c86227788a189706886071c",
        "neighbors.dot": "fa1d7ee9f3cd44a380b7b1a2190ec5e159e0babece05ba842945b610fefcaa6d",
    },
    "lebesgue-1-2": {
        "automaton.dot": "4a7aedfa04dd5b6c5e2b77379d3b1436a09af830cabbcaacd9bcbf00efa387b1",
        "automaton.json": "f3e2ff501aff5cc5d1c4c6947b182bc39248412603b3d24db816d9bf84e5d5ba",
        "measure.json": "cc5ca29558fd1cf280f14fd1a9b0014e0c9d18333ac7251caf12244cff429bdf",
        "neighbors.dot": "abaea3bccc9c55e3704c6fe5917b7e413a00dc435b78adff99e14c1a9e85184e",
    },
    "golden-bernoulli": {
        "automaton.dot": "0bfeda48c98969250389638c73d5fa00b47ee862825fa5e10a8eb7a2cdb5b265",
        "automaton.json": "d6c25d3fe6b64608abaee04b1ffe8182f3527000cbfe7270eb4cb9101fb82a9a",
        "measure.json": "24a2ab7efa79a180776dc67ed63d362f2d944f9dc3ac84970f4e96acf365bf4b",
        "neighbors.dot": "d784b4bb7ede4258997ef0ecf99f1d7b3c1dd8962d858acc05cc3b8e6078625c",
    },
    "complex-pisot-demo": {
        "automaton.dot": "877c305aa3288e57302a356120c2aa4bf37c29399d47e5a740be4bfb509308a9",
        "automaton.json": "a82e0ad9a2bc6b60b12d80cb0838ca8c668b390805571f432b379ea2a2cdf10e",
        "measure.json": "f6851f8c061aec619a6c0e4eaae6262d1510e97c994acd5c9c884c80a87befa6",
        "neighbors.dot": "231c08eb19a4fd6b0560022c09aeebad71a5fdb93fc4e0d33a71af3b531ef47c",
    },
    "golden-gasket-conjugated": {
        "automaton.dot": "612074e71ec20eaab6b231e1a375cb4ba87ba5768902d92ce77f7f247ffd082d",
        "automaton.json": "a7fa9d05e987a01413fa47ebadecd20bfb00a13c03ddbd399222d841c3d9be88",
        "measure.json": "21b1b5d6588841e5c06742885e9b6af709b8927019fc5514b054458514269b62",
        "neighbors.dot": "5d07cb06f12025f435605d6cd06a74f147ac7631d09cdaefdf67ab816d8dd8bf",
    },
    "commensurable-osc": {
        "automaton.dot": "b819ca5b379150821f7e3a2f0295a583e6735856f02f5c073c83bde5af25118f",
        "automaton.json": "1925c9a8c89187a7cb64539ad55358f30c19ca73b952228cd10a3acc38f3bcbd",
        "measure.json": "2f3484bb130b0e62ffab7acea2772ada806e307c68ac85dbab8a4cae537da051",
        "neighbors.dot": "113e61ddc7132da8b186b17be0ae0479b6d6ca242ffee5e2cbe3af2d60121c1d",
    },
}

SPECTRUM_GOLDEN = {
    "cantor-1-3": "3882710a128b6eae19302adf9f2ed7e151f149e4dbe87795a79cfc69fac34ab5",
    "lebesgue-1-2": "96755daad8d7b38185c7a33a950ac21d89a2c4f67a990b42b7c022c5239f2fd9",
    "golden-bernoulli": "cf8f1efc428471a14d7c4abd58219519a3dea18bb3f7d9dafe457257f1bb262f",
    "complex-pisot-demo": "9dac2501fdf38081c60296658530a6a5e2898800500742913efc6314e4f87b78",
    "golden-gasket-conjugated": "8e294c81dde2ab3df9813984303ae070b92f0e3d203d5fef4e428eba34c00583",
    "commensurable-osc": "3c4dfed18798d5def621cc57de9b1980b24dcdd393d05ac7a2dab1927220febc",
}

# `selfsim spectrum --integer-q-exact` on tests/data/golden-gasket-3d.json:
# the d = 3 essential class has L = 2043, so every q > 1 takes finite-n
SPECTRUM_GOLDEN_3D = "11bb7a161493a276b9b4fddbe95c7dfba1b4bbaa8cf83c6d7324370bde2563ff"

# `selfsim spectrum --config bundled:golden-bernoulli --pressure-n 22
# --integer-q-exact`: n = 22 is the word length of the benchmark's
# spectrum-small workload
SPECTRUM_GOLDEN_N22 = "862b5623dd148588c80f9d1174a319ff4d1e62b322c47f7665ebd8f8f92ad037"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_build_artifacts_match_golden(name, tmp_path, capsys):
    assert cli.main(["build", "--config", f"bundled:{name}", "--out", str(tmp_path)]) == 0
    got = {p.name[len(name) + 1:]: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.glob(f"{name}-*")}
    assert got == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SPECTRUM_GOLDEN))
def test_spectrum_csv_matches_golden(name, tmp_path, capsys):
    assert cli.main(["spectrum", "--config", f"bundled:{name}", "--out", str(tmp_path),
                     "--integer-q-exact"]) == 0
    got = hashlib.sha256((tmp_path / f"{name}-spectrum.csv").read_bytes()).hexdigest()
    assert got == SPECTRUM_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SPECTRUM_GOLDEN))
def test_certified_csv_rows_match_full_class(name, pipelines, tmp_path, capsys):
    # the scalar and Kronecker rows are certified on the lumped class; an
    # independent reference recomputes each on the full essential class
    assert cli.main(["spectrum", "--config", f"bundled:{name}", "--out", str(tmp_path),
                     "--integer-q-exact"]) == 0
    with open(tmp_path / f"{name}-spectrum.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["method"] in ("scalar", "kronecker")]
    assert rows
    eng = pipelines(name).engine
    for row in rows:
        lo, hi = pressure_bracket(eng.ess.system, float(row["q"]))
        want = sorted((lo / eng.log_rho, hi / eng.log_rho))
        assert_same_bracket((float(row["tau_lower"]), float(row["tau_upper"])), want, 1e-11)


def test_spectrum_csv_matches_golden_in_3d(tmp_path, capsys):
    config = Path(__file__).parent / "data" / "golden-gasket-3d.json"
    assert cli.main(["spectrum", "--config", str(config), "--out", str(tmp_path),
                     "--integer-q-exact"]) == 0
    got = hashlib.sha256((tmp_path / "golden-gasket-3d-spectrum.csv").read_bytes()).hexdigest()
    assert got == SPECTRUM_GOLDEN_3D


def test_spectrum_csv_matches_golden_at_benchmark_length(tmp_path, capsys):
    assert cli.main(["spectrum", "--config", "bundled:golden-bernoulli", "--out", str(tmp_path),
                     "--pressure-n", "22", "--integer-q-exact"]) == 0
    got = hashlib.sha256((tmp_path / "golden-bernoulli-spectrum.csv").read_bytes()).hexdigest()
    assert got == SPECTRUM_GOLDEN_N22
