"""One-stop construction of the full object stack.

Everything downstream of the gamma blocks is deterministic, so a single
build serves any number of queries; the CLI builds one per process and the
test suite shares one per session.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import AdjointRep, CartanSet, StructureTensor, find_cartan
from .chart import ChartEngine, TorusRegion
from .clifford import GammaSystem, SpinorGenerators, build_gamma_system, spinor_generators
from .roots import RootSystem, build_root_system


@dataclass
class Pipeline:
    gammas: GammaSystem
    spinors: SpinorGenerators
    tensor: StructureTensor
    rep: AdjointRep
    cartan: CartanSet
    root_system: RootSystem

    @cached_property
    def region(self) -> TorusRegion:
        return TorusRegion.from_root_system(self.root_system)

    @cached_property
    def engine(self) -> ChartEngine:
        return ChartEngine(self.rep, self.root_system)


def build_pipeline() -> Pipeline:
    gammas = build_gamma_system()
    spinors = spinor_generators(gammas)
    tensor = StructureTensor.build(spinors)
    rep = AdjointRep.build(tensor)
    cartan = find_cartan(rep, tensor)
    root_system = build_root_system(rep, cartan)
    return Pipeline(
        gammas=gammas,
        spinors=spinors,
        tensor=tensor,
        rep=rep,
        cartan=cartan,
        root_system=root_system,
    )
