"""The linear systems and solver configurations the workloads run.

Every program runs on the fused backend (the production path); the sim
backend appears only as the cg-stream correctness reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.sparse import poisson3d
from repro.sparse.suitesparse import g3_circuit_like

#: CG at the tolerance of the paper's Poisson experiments.
CG = {"solver": "cg", "tol": 1e-6, "max_iterations": 2000}

#: The paper's Fig. 8 / Table IV solver: MPIR with double-word residuals
#: and updates around an ILU(0)-preconditioned BiCGStab inner solve.  The
#: inner solve stops at a loose tolerance instead of a fixed count, so the
#: refinement converges to ``tol`` in a handful of outer steps.
MPIR_DW = {
    "solver": "mpir",
    "precision": "dw",
    "tol": 1e-9,
    "max_outer": 20,
    "inner": {
        "solver": "bicgstab",
        "tol": 1e-3,
        "max_iterations": 300,
        "record_history": False,
        "preconditioner": {"solver": "ilu0"},
    },
}


@dataclass
class System:
    """A matrix, a solver config and the device shape it is solved on."""

    name: str
    crs: object
    config: dict
    num_ipus: int
    tiles_per_ipu: int
    grid_dims: tuple | None = None

    @property
    def tol(self) -> float:
        return float(self.config["tol"])

    @property
    def n(self) -> int:
        return self.crs.n

    @property
    def parts(self) -> int:
        return min(self.num_ipus * self.tiles_per_ipu, self.crs.n)

    def kwargs(self, backend: str = "fused") -> dict:
        """Keyword arguments of ``solve``/``SolverSession`` for this system."""
        kw = {"num_ipus": self.num_ipus, "tiles_per_ipu": self.tiles_per_ipu,
              "backend": backend}
        if self.grid_dims is not None:
            kw["grid_dims"] = self.grid_dims
        return kw

    def compile_kwargs(self) -> dict:
        kw = self.kwargs()
        del kw["backend"]
        return kw

    @cached_property
    def csr(self):
        """scipy f64 copy of the matrix for host-side residual checks."""
        return self.crs.to_scipy().tocsr()


def poisson_system(name: str, nx: int, num_ipus: int, tiles_per_ipu: int = 16,
                   ny: int | None = None, nz: int | None = None) -> System:
    crs, dims = poisson3d(nx, ny, nz)
    return System(name, crs, CG, num_ipus, tiles_per_ipu, grid_dims=dims)


def circuit_system() -> System:
    """``g3_circuit_like`` at 1,024 rows on one IPU of 4 tiles."""
    return System("circuit", g3_circuit_like(grid=32), MPIR_DW, 1, 4)
