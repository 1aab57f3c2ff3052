"""Property: any mix of valid and invalid solve flags ends in a clean exit.

main returns 0, 1 or 2, or argparse raises SystemExit(2) for a flag it
cannot parse; nothing else escapes.  Whenever main returns 1 or 2 an
error.json record exists.  A --nodes-per-width of 1e12 asks for a mesh
far above the sweep's ndof ceiling, which must be refused before any
mesh is built.  An unknown --seed is refused by the config, with exit 1,
not by the parser.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from graphnls.cli import main

# each flag draws from a small fixed set of good and bad values; the
# shift list is always given, since the default schedule is the slow one,
# and is valid about half the time, so that runs also reach the solver
SHIFTS = st.one_of(
    st.sampled_from(("25", "50", "25,50")),
    st.lists(
        st.sampled_from(("25", "50", "x", "-25", "inf", "nan", "")),
        min_size=1,
        max_size=2,
    ).map(",".join),
)
NODES_PER_WIDTH = ("5", "15", "0", "1e-9", "-1", "nan", "inf", "1e12")
MAX_ITERS = ("0", "3", "-1")
SEEDS = ("previous", "ansatz", "bogus")


def _optional(flag, values):
    """No flag at all, or the flag with one of values."""
    return st.one_of(st.just(()), st.sampled_from(values).map(lambda v: (flag, v)))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    shifts=SHIFTS,
    nodes_per_width=_optional("--nodes-per-width", NODES_PER_WIDTH),
    max_iters=_optional("--max-iters", MAX_ITERS),
    seed=_optional("--seed", SEEDS),
)
def test_solve_flags_always_exit_cleanly(shifts, nodes_per_width, max_iters, seed):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        argv = ["solve", "--graph", "tripod", "--peak", "c", f"--lambdas={shifts}"]
        argv += [*nodes_per_width, *max_iters, *seed]
        argv += ["--outdir", str(out)]
        try:
            rc = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
        assert rc in (0, 1, 2), argv
        if "bogus" in seed:
            assert rc == 1, argv
        assert (out / "error.json").exists() == (rc != 0), argv
