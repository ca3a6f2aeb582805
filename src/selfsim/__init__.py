"""Exact transfer-matrix machinery for finite-type self-similar measures.

Pipeline: an IFS of similitudes with algebraic data -> certified
neighbor-map graph (finite type verification) -> atom automaton ->
exact rational atom masses -> pressure and the L^q spectrum tau(q).
"""

from .config import IfsConfig, load_bundled, bundled_names, ConfigError
from .field import NumberField, RootBox, FieldElement, check_pisot
from .intervals import RatInterval, RectInterval
from .maps import IFS, BoundingBall, ScaleBase, Similitude, Word
from .neighbors import BudgetExceeded, NeighborDecider, candidate_closure, prune
from .automaton import AtomState, Automaton, NotAdmissible, build, children, witness
from .measure import GlobalSystem, MeasureError, MeasureModel, compute_mass_vectors
from .pipeline import Pipeline
from .spectrum import (EssentialClass, PressureEngine, PressureEstimate,
                       SpectrumCurve, SpectrumError, essential_class,
                       irreducibility_check)

__version__ = "0.1.0"

__all__ = [
    "IfsConfig", "load_bundled", "bundled_names", "ConfigError",
    "NumberField", "RootBox", "FieldElement", "check_pisot",
    "RatInterval", "RectInterval",
    "IFS", "BoundingBall", "ScaleBase", "Similitude", "Word",
    "BudgetExceeded", "NeighborDecider", "candidate_closure", "prune",
    "AtomState", "Automaton", "NotAdmissible", "build", "children", "witness",
    "GlobalSystem", "MeasureError", "MeasureModel", "compute_mass_vectors",
    "Pipeline",
    "EssentialClass", "PressureEngine", "PressureEstimate", "SpectrumCurve",
    "SpectrumError", "essential_class", "irreducibility_check",
    "__version__",
]
