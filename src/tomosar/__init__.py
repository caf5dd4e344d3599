"""Array tomography laboratory.

Simulates urban-style scenes observed by a cross-track element array,
reconstructs sparse 3D scene tensors from the noisy echoes with a family
of l1 / total-variation solvers, and scores the results with a
point-cloud metric suite.  Everything is deterministic from a seed.

The submodules are the library API; ``import tomosar`` loads them all and
re-exports nothing.
"""

from . import bench, errors, fileio, metrics, sensing, simulate, solvers, tensor
