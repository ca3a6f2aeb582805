import math
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from selfsim.config import IfsConfig, load_bundled
from selfsim.pipeline import Pipeline
from selfsim.spectrum import essential_class, lifted_operator, spectral_radius_bounds

BUNDLED = ["cantor-1-3", "lebesgue-1-2", "golden-bernoulli",
           "golden-gasket-conjugated", "complex-pisot-demo", "commensurable-osc"]

_pipelines: dict = {}


def get_pipeline(name: str) -> Pipeline:
    """Session-shared pipelines; the gasket build is expensive."""
    if name not in _pipelines:
        _pipelines[name] = Pipeline(load_bundled(name))
    return _pipelines[name]


def pressure_bracket(system, q):
    """[log lo, log hi] for the Collatz-Wielandt bounds [lo, hi] on rho of
    the lifted operator of `system` at q, formed as the engine forms its
    scalar and Kronecker certificates."""
    dim, rows, cols, vals = lifted_operator(system, q)
    lo, hi = spectral_radius_bounds(
        lambda x: np.bincount(cols, vals * x[rows], minlength=dim), dim)
    return math.log(lo), math.log(hi)


def assert_same_bracket(a, b, rel):
    """Two [lo, hi] brackets overlap and agree within rel of their size, or
    of 1 near 0, as `spectral_radius_bounds` stops within tol of max(1, hi).

    The overlap is up to 8 ulps of that scale: the bounds are float ratios
    and logs, so two brackets that have closed to a point (a 1x1 class)
    can miss each other by the last bit."""
    scale = max(1.0, *(abs(x) for x in (*a, *b)))
    assert max(a[0], b[0]) <= min(a[1], b[1]) + 8 * math.ulp(scale)
    assert abs(a[0] - b[0]) <= rel * scale and abs(a[1] - b[1]) <= rel * scale


def assert_one_terminal_component(model):
    """What `essential_class` rests on: every kept state has a kept
    successor, and the pruned automaton has one terminal strongly connected
    component, counted here by scipy, which is the essential class."""
    ids = list(model.kept)
    pos = {sid: k for k, sid in enumerate(ids)}
    edges = [(pos[sid], pos[e.child]) for sid in ids for e in model.successors(sid)]
    assert {a for a, _b in edges} == set(range(len(ids)))
    rows, cols = zip(*edges)
    graph = sparse.coo_matrix((np.ones(len(edges)), (rows, cols)), shape=(len(ids),) * 2)
    ncomp, comp = csgraph.connected_components(graph, connection="strong")
    left = {comp[a] for a, b in edges if comp[a] != comp[b]}
    assert ncomp - len(left) == 1
    ess = essential_class(model)
    assert ess.diagnostics["terminal_components"] == 1
    assert ess.ids == [sid for sid, c in zip(ids, comp) if c not in left]


@pytest.fixture
def pipelines():
    return get_pipeline


@pytest.fixture
def cantor():
    return get_pipeline("cantor-1-3")


@pytest.fixture
def lebesgue():
    return get_pipeline("lebesgue-1-2")


@pytest.fixture
def golden():
    return get_pipeline("golden-bernoulli")


@pytest.fixture
def gasket():
    return get_pipeline("golden-gasket-conjugated")


@pytest.fixture
def dragon():
    return get_pipeline("complex-pisot-demo")


@pytest.fixture
def commensurable():
    return get_pipeline("commensurable-osc")


@pytest.fixture(scope="session")
def gasket_3d():
    # x -> lambda x + v with v in {0, e1, e2, e3}, lambda = (sqrt 5 - 1)/2:
    # the paper's R^d setting, one pipeline for its automaton, its measure
    # and its spectrum
    return Pipeline(IfsConfig.load(Path(__file__).parent / "data" / "golden-gasket-3d.json"))
