from pathlib import Path

import pytest

from selfsim.config import IfsConfig, load_bundled
from selfsim.pipeline import Pipeline

BUNDLED = ["cantor-1-3", "lebesgue-1-2", "golden-bernoulli",
           "golden-gasket-conjugated", "complex-pisot-demo", "commensurable-osc"]

_pipelines: dict = {}


def get_pipeline(name: str) -> Pipeline:
    """Session-shared pipelines; the gasket build is expensive."""
    if name not in _pipelines:
        _pipelines[name] = Pipeline(load_bundled(name))
    return _pipelines[name]


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
