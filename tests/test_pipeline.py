"""The staged build through the public stage functions, as the benchmark
harness (perfbench/child.py, staged_build and layer_probes) performs it, so
that a renamed function, parameter or attribute fails here first."""

import numpy as np

from e8lie import algebra, clifford, halfint, roots
from e8lie.pipeline import Pipeline


def test_staged_build_interface(pipe):
    gammas = clifford.build_gamma_system(self_check=True)
    spinors = clifford.spinor_generators(gammas)
    tensor = algebra.StructureTensor.build(spinors)
    rep = algebra.AdjointRep.build(tensor)
    cartan = algebra.find_cartan(rep, tensor)
    root_system = roots.build_root_system(rep, cartan)
    staged = Pipeline(gammas, spinors, tensor, rep, cartan, root_system)

    a, b = staged.gammas.sigma[0], staged.gammas.sigma[1].T
    assert halfint.mat_mul(a, b) == halfint.mat_mul(pipe.gammas.sigma[0], pipe.gammas.sigma[1].T)
    assert sum(np.count_nonzero(s.doubled) for s in staged.gammas.sigma) == 16 * 128
    assert sum(m.nnz for m in staged.rep.mats) == sum(m.nnz for m in pipe.rep.mats)
    assert staged.cartan == pipe.cartan
    assert staged.engine is not None
