"""One object wiring a config through the whole computation, lazily."""

from __future__ import annotations

from functools import cached_property

from .automaton import Automaton, build
from .config import IfsConfig
from .measure import MeasureModel, GlobalSystem, compute_mass_vectors
from .neighbors import NeighborDecider
from .spectrum import PressureEngine


class Pipeline:
    """Field -> IFS -> neighbor decider -> automaton -> masses -> pressure."""

    def __init__(self, config: IfsConfig):
        self.config = config

    @cached_property
    def field(self):
        return self.config.build_field()

    @cached_property
    def ifs(self):
        return self.config.build_ifs(self.field)

    @cached_property
    def decider(self) -> NeighborDecider:
        b = self.config.budgets
        return NeighborDecider(self.ifs, max_nodes=b["max_neighbor_nodes"],
                               tuple_budget=b["tuple_budget"])

    @cached_property
    def automaton(self) -> Automaton:
        return build(self.ifs, self.decider,
                     max_states=self.config.budgets["max_states"])

    @cached_property
    def measure(self) -> MeasureModel:
        return compute_mass_vectors(self.automaton)

    @cached_property
    def global_system(self) -> GlobalSystem:
        return GlobalSystem(self.measure)

    @cached_property
    def engine(self) -> PressureEngine:
        b = self.config.budgets
        return PressureEngine(self.measure, kron_dim_budget=b["kron_dim_budget"],
                              default_n=b["pressure_n"])
