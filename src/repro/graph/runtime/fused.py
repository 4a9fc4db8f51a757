"""``FusedBackend``: whole-device kernel execution over flat arrays.

Executes the :class:`~repro.graph.passes.kernels.KernelSchedule` built at
compile time: each :class:`~repro.graph.passes.kernels.FusedKernel` is one
host-side dispatch that runs a whole run of compute/exchange steps as
vectorized numpy over the flat per-device buffers — the dozens of per-step
dispatches the ``fast`` backend makes per solver iteration collapse into a
handful of kernel launches, which is where the host wall-clock goes.

Results are bit-identical to ``sim`` and ``fast``: the vectorized paths
replay the exact same floating-point operations (see
:mod:`repro.graph.passes.kernels`), and any codelet the lowerer could not
vectorize runs unchanged inside the kernel.  Steps outside any kernel
(uncovered blocks) fall back to the inherited ``fast`` per-step dispatch.

Like ``fast``, the backend is untimed: cycle tracers and fault injectors
are rejected with :class:`~repro.errors.BackendCapabilityError` (the guard
is inherited from :class:`~repro.graph.runtime.fast.FastBackend`), but a
:class:`~repro.telemetry.WallTracer` is accepted — each launch then gets a
measured ``perf_counter_ns`` span tagged with the kernel's fused step
counts and byte/FLOP estimates.  The backend keeps no tallies of its own:
the :class:`~repro.graph.Engine` counts every launch and dispatch per run
(``Engine.kernel_counters``), so telemetry and tests can prove fusion
happened without any process-wide state.
"""

from __future__ import annotations

from repro.graph.runtime.base import register_backend
from repro.graph.runtime.fast import FastBackend

__all__ = ["FusedBackend"]


@register_backend
class FusedBackend(FastBackend):
    """Kernel-dispatch backend: bit-identical results, fused execution."""

    name = "fused"

    #: Tells the engine to dispatch blocks through the kernel schedule.
    uses_kernels = True

    def run_kernel(self, kernel) -> None:
        """Launch one fused kernel (one host dispatch)."""
        wt = self.wall_tracer
        if wt is None:
            kernel.run()
            return
        start = wt.now()
        kernel.run()
        wt.kernel(kernel, start)
