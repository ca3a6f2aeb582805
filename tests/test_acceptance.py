"""Acceptance suite: one test per shipped guarantee, with pass lines.

Run with -s to see the per-criterion summary.  Tolerances are fixed
here, not configurable.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.optimize import brentq

from selfsim import cli, oracle as orc
from selfsim.neighbors import candidate_closure, prune
from selfsim.oracle import NetCensus
from selfsim.spectrum import irreducibility_check

from conftest import BUNDLED, get_pipeline

GRID = [round(0.3 + 0.1 * i, 1) for i in range(37)]  # 0.3 .. 3.9 inside (0.2, 4)


@pytest.fixture(scope="module", autouse=True)
def prebuilt():
    # pipelines are shared across the suite; criterion timings cover the
    # criterion's own computation on top of the built pipeline
    for name in BUNDLED:
        p = get_pipeline(name)
        p.measure
    yield


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_cantor_closed_form():
    t0 = time.time()
    eng = get_pipeline("cantor-1-3").engine
    closed = lambda q: (q - 1) * math.log(2) / math.log(3)
    for q in (0.5, 1.0, 2.0, 3.0):
        tau, lo, hi, est = eng.tau(q)
        assert abs(tau - closed(q)) < 1e-9, (q, tau, closed(q))
        assert lo - 1e-12 <= closed(q) <= hi + 1e-12, (q, lo, hi)
    dt = time.time() - t0
    assert dt < 5.0
    _report(1, f"cantor tau matches (q-1)log2/log3 at q in {{0.5,1,2,3}} "
               f"within 1e-9, bounds contain the closed form ({dt:.2f}s)")


def test_criterion_2_lebesgue_identity():
    t0 = time.time()
    pipe = get_pipeline("lebesgue-1-2")
    model = pipe.measure
    for d in range(1, 7):
        for addr in model.addresses(d):
            assert model.mass(addr) == F(1, 2 ** d)
    eng = pipe.engine
    for q in (0.5, 1.0, 2.0, 3.0):
        tau, *_ = eng.tau(q)
        assert abs(tau - (q - 1)) < 1e-6, (q, tau)
    dt = time.time() - t0
    assert dt < 10.0
    _report(2, f"lebesgue atom masses equal interval lengths (depth <= 6, exact) "
               f"and tau(q) = q-1 within 1e-6 ({dt:.2f}s)")


def test_criterion_3_partition_of_unity():
    t0 = time.time()
    for name in BUNDLED:
        model = get_pipeline(name).measure
        for d in range(0, 9):
            assert model.total_mass(d) == 1, (name, d)
        # spot check by explicit enumeration at small depth
        assert sum(model.mass(a) for a in model.addresses(4)) == 1
    dt = time.time() - t0
    assert dt < 30.0
    _report(3, f"sum of depth-n atom masses is exactly 1 for n <= 8 "
               f"on all {len(BUNDLED)} bundled configs ({dt:.2f}s)")


def test_criterion_4_block_matrix_equivalence():
    t0 = time.time()
    checked = 0
    for name in BUNDLED:
        pipe = get_pipeline(name)
        model = pipe.measure
        gs = pipe.global_system
        for d in range(0, 7):
            for addr in model.addresses(d):
                assert gs.mass_global(addr) == model.mass(addr), (name, addr)
                checked += 1
    dt = time.time() - t0
    _report(4, f"block-matrix product mass equals the direct product mass "
               f"exactly on {checked} addresses of depth <= 6 ({dt:.2f}s)")


def test_criterion_5_entry_expression_oracle():
    t0 = time.time()
    checked = 0
    for name in ("cantor-1-3", "golden-bernoulli"):
        pipe = get_pipeline(name)
        model = pipe.measure
        ifs = pipe.ifs
        for depth in range(1, 6):
            for addr in model.addresses(depth):
                mat = model.product_matrix(addr)
                start = model.star_maps_absolute([0])
                end = model.star_maps_absolute(addr)
                for i, hi in enumerate(start):
                    for j, hj in enumerate(end):
                        target = hi.inverse().compose(hj)
                        assert mat[i][j] == orc.word_sum_entry(ifs, target, depth)
                        checked += 1
    dt = time.time() - t0
    _report(5, f"matrix-product entries equal word-sum enumeration exactly "
               f"({checked} entries, depths <= 5, cantor+golden, {dt:.2f}s)")


def test_criterion_6_golden_bernoulli():
    t0 = time.time()
    pipe = get_pipeline("golden-bernoulli")
    ifs = pipe.ifs

    graph = prune(candidate_closure(ifs))
    gamma = graph.gamma_maps()
    assert 0 < len(gamma) < 20

    r = irreducibility_check(pipe.engine.ess)
    assert 1 <= r <= pipe.engine.ess.size

    tau2, *_ = pipe.engine.tau(2.0)
    dy = orc.tau_dyadic(ifs, 2.0, range(12, 19))
    assert abs(tau2 - dy.estimate) < 0.02, (tau2, dy.estimate)

    # atom masses at depths <= 6 against a 10^7-sample cloud, classified
    # through the exact net-piece geometry
    n_samples = 10 ** 7
    samples = orc.sample_points(ifs, n_samples, seed=2024, word_len=48)
    model = pipe.measure
    auto = pipe.automaton
    worst = 0.0
    atoms_checked = 0
    for depth in range(1, 7):
        census = NetCensus(ifs, depth)
        brk = census.breakpoint_floats()
        piece_idx = np.searchsorted(brk, samples) - 1
        counts = np.bincount(np.clip(piece_idx, 0, len(brk) - 2),
                             minlength=len(brk) - 1)
        atom_pieces = census.atoms()
        seen = set()
        for addr in model.addresses(depth):
            frame = None
            for sid in addr[1:]:
                rmap = auto.states[sid].rmap
                frame = rmap if frame is None else frame.compose(rmap)
            st = auto.states[addr[-1]]
            vs = frozenset((frame.compose(m) if frame else m).key()
                           for m in st.vmaps)
            assert vs in atom_pieces, "pruned atom missing from the census"
            assert vs not in seen
            seen.add(vs)
            exact = float(model.mass(addr))
            est = sum(counts[i] for i in atom_pieces[vs]) / n_samples
            stderr = math.sqrt(max(est * (1 - est), 1 / n_samples) / n_samples)
            assert abs(exact - est) <= 4 * stderr + 1e-6, (addr, exact, est)
            worst = max(worst, abs(exact - est) / stderr if stderr else 0.0)
            atoms_checked += 1
        assert len(seen) == len(atom_pieces), "census found an unlisted atom"
    dt = time.time() - t0
    assert dt < 120.0
    _report(6, f"golden: |Gamma| = {len(gamma)}, irreducibility r = {r}, "
               f"tau(2) = {tau2:.4f} vs dyadic {dy.estimate:.4f}, "
               f"{atoms_checked} atom masses within 4 sigma of 1e7-sample "
               f"estimates (worst {worst:.2f} sigma) ({dt:.1f}s)")


def test_criterion_7_intersection_oracle_agreement():
    t0 = time.time()
    total = 0
    for name in BUNDLED:
        pipe = get_pipeline(name)
        ifs = pipe.ifs
        decider = pipe.decider
        # enough same-level pairs per config, deterministic order
        level = 3 if ifs.m == 2 else 2
        words = [w.letters for w in ifs.stopping_words(level * ifs.k_max)]
        maps = {}
        for w in words:
            smap = ifs.map_of_word(w)
            maps.setdefault(smap.key(), smap)
        maps = list(maps.values())
        pairs = [(f, g) for i, f in enumerate(maps) for g in maps[i:]]
        if len(pairs) < 100:
            words = [w.letters for w in ifs.stopping_words((level + 1) * ifs.k_max)]
            for w in words:
                smap = ifs.map_of_word(w)
                maps.append(smap)
            pairs = [(f, g) for i, f in enumerate(maps[:40]) for g in maps[:40][i:]]
        pairs = pairs[:400]
        assert len(pairs) >= 100, name
        decisive = 0
        for f, g in pairs:
            if f.exponent != g.exponent:
                continue
            verdict = orc.subdivision_intersects(ifs, f, g, depth=10)
            total += 1
            if verdict == "unknown":
                continue
            decisive += 1
            assert (verdict == "yes") == decider.intersects(f, g), (name, str(f), str(g))
        assert decisive > 0, name
    dt = time.time() - t0
    _report(7, f"subdivision oracle and neighbor-graph intersections agree with "
               f"zero contradictions on {total} same-level pairs ({dt:.1f}s)")


def test_criterion_8_spectrum_sanity():
    t0 = time.time()
    for name in BUNDLED:
        eng = get_pipeline(name).engine
        tau1, lo1, hi1, est = eng.tau(1.0)
        assert abs(tau1) < 1e-9, (name, tau1)
        curve = eng.lq_curve(GRID, n=10)
        defect = curve.diagnostics["smoothness_max_jump"]
        assert defect <= 1e-8, (name, defect)
    dt = time.time() - t0
    _report(8, f"tau(1) = 0 within 1e-9 and tau concave (second differences "
               f"<= 1e-8) on a 0.1 grid for all configs ({dt:.1f}s)")


def test_criterion_9_commensurable_closed_form():
    t0 = time.time()
    eng = get_pipeline("commensurable-osc").engine
    p1, p2 = F(2, 3), F(1, 3)

    def closed_tau(q):
        f = lambda t: float(p1) ** q * 2.0 ** t + float(p2) ** q * 4.0 ** t - 1.0
        return brentq(f, -40, 40, xtol=1e-14)

    for q in (0.5, 2.0, 3.0):
        tau, *_ = eng.tau(q)
        want = closed_tau(q)
        assert abs(tau - want) < 1e-6, (q, tau, want)
    dt = time.time() - t0
    assert dt < 10.0
    _report(9, f"commensurable tau matches the root of sum p_i^q r_i^-tau = 1 "
               f"within 1e-6 at q in {{0.5,2,3}} ({dt:.2f}s)")


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    blobs = []
    for run in ("a", "b"):
        d = tmp_path / run
        assert cli.main(["build", "--config", "bundled:golden-bernoulli",
                         "--out", str(d)]) == 0
        assert cli.main(["spectrum", "--config", "bundled:golden-bernoulli",
                         "--q-grid", "0.3:3.9:0.1", "--out", str(d)]) == 0
        blob = b""
        for f in sorted(d.iterdir()):
            blob += f.name.encode() + b"\0" + f.read_bytes() + b"\0"
        blobs.append(blob)
    assert blobs[0] == blobs[1]
    dt = time.time() - t0
    _report(10, f"two build+spectrum runs produce byte-identical JSON/DOT/CSV "
                f"({dt:.1f}s)")
