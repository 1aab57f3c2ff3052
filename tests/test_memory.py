"""What a continuation sweep keeps alive, per unknown of its last mesh.

The peak-refined mesh grows like lam**0.75, so the last shift sets a
sweep's memory.  tracemalloc counts numpy's array buffers, and the
counts are deterministic, so the bounds below are exact measurements
with a margin, not timings.
"""

import tracemalloc

from graphnls import (
    SolveConfig,
    continuation_sweep,
    peak_template,
    reference_graph,
)

# measured on this sweep: a peak of 283 bytes per dof, reached while the
# Jacobian is factored from a copy of its bands, and 64 bytes per dof
# held by the results.  Holding per-element index arrays in every
# mesh's layout, a second off-diagonal in the shifted form and all
# kernel-mode products at once measured 357 and 125.
PEAK_BYTES_PER_DOF = 300
HELD_BYTES_PER_DOF = 80


def test_sweep_peak_and_held_memory_per_dof():
    template = peak_template(reference_graph("star5"), ("c",))
    cfg = SolveConfig(lambdas=(25.0, 50.0, 100.0))
    continuation_sweep(template, cfg)  # first-call caches stay out of it
    tracemalloc.start()
    try:
        results = continuation_sweep(template, cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(res.converged for res in results)
    ndof = results[-1].u.mesh.ndof
    assert peak / ndof < PEAK_BYTES_PER_DOF
    assert held / ndof < HELD_BYTES_PER_DOF
