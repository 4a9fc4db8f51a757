"""Pluggable runtime backends executing compiled programs.

- :mod:`repro.graph.runtime.base` — the :class:`Backend` protocol, the
  backend registry, and :func:`resolve_backend`,
- :mod:`repro.graph.runtime.sim` — cycle-accurate, bit-identical
  simulation (the default),
- :mod:`repro.graph.runtime.fast` — numerics-only execution for
  large-matrix runs where cycle counts are not needed,
- :mod:`repro.graph.runtime.fused` — numerics-only execution through
  fused whole-device kernels (the fastest host path).

Backends hold no run statistics: the :class:`~repro.graph.Engine` driving
one counts supersteps, exchanges and, on kernel backends, kernel launches
and dispatches (``Engine.kernel_counters``), so every run owns its tallies.

See ``docs/runtime.md`` for the protocol, determinism guarantees, and
guidance on choosing a backend.
"""

from repro.graph.runtime.base import (
    BACKENDS,
    Backend,
    CONTROL_CYCLES,
    register_backend,
    resolve_backend,
)
from repro.graph.runtime.fast import FastBackend
from repro.graph.runtime.fused import FusedBackend
from repro.graph.runtime.sim import SimBackend

__all__ = [
    "Backend",
    "BACKENDS",
    "register_backend",
    "resolve_backend",
    "CONTROL_CYCLES",
    "SimBackend",
    "FastBackend",
    "FusedBackend",
]
