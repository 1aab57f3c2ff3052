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

# measured on this sweep: a peak of 291.3 bytes per dof, reached while
# the Jacobian is factored from a copy of its bands, and 63.7 bytes per
# dof held by the results.  Holding per-element index arrays in every
# mesh's layout, a second off-diagonal in the shifted form and all
# kernel-mode products at once measured 357 and 125; the int64 pivots
# of numpy's ILP64 OpenBLAS, in place of scipy's int32 ones, add 8 to
# the peak, 4 for each of the two factors alive.
PEAK_BYTES_PER_DOF = 300
HELD_BYTES_PER_DOF = 80

# measured on the same sweep drawn one shift at a time, keeping only the
# last result: a peak of 273.8 bytes per dof (265 with int32 pivots),
# 1.2 under the bound, and 25.5 held, the last state and its mesh.
# Each earlier shift's state, mesh and operator kept alive to the end,
# as a list of the results holds them, measured 291 and 64.
STREAMED_PEAK_BYTES_PER_DOF = 275
STREAMED_HELD_BYTES_PER_DOF = 35


def _traced_sweep(keep_all: bool):
    """The star5 sweep's last result, with the peak and held traced bytes
    per unknown of its mesh; keep_all holds every result to the end."""
    template = peak_template(reference_graph("star5"), ("c",))
    cfg = SolveConfig(lambdas=(25.0, 50.0, 100.0))
    list(continuation_sweep(template, cfg))  # first-call caches stay out of it
    tracemalloc.start()
    try:
        if keep_all:
            results = list(continuation_sweep(template, cfg))
            assert all(res.converged for res in results)
            last = results[-1]
        else:
            for last in continuation_sweep(template, cfg):
                assert last.converged
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ndof = last.u.mesh.ndof
    return last, peak / ndof, held / ndof


def test_sweep_peak_and_held_memory_per_dof():
    _, peak, held = _traced_sweep(keep_all=True)
    assert peak < PEAK_BYTES_PER_DOF
    assert held < HELD_BYTES_PER_DOF


def test_streamed_sweep_holds_one_shift_at_a_time():
    last, peak, held = _traced_sweep(keep_all=False)
    assert last.lam == 100.0
    assert peak < STREAMED_PEAK_BYTES_PER_DOF
    assert held < STREAMED_HELD_BYTES_PER_DOF
