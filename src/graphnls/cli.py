"""Command line interface: peak sweeps, reduced-energy reports, verification.

Subcommands:

    graphnls solve          run a continuation sweep and emit artifacts
    graphnls reduced-energy print the critical-point structure for one N
    graphnls verify         run the acceptance checks

Artifacts are plain CSV and two-column text files so they can be
plotted or diffed without extra tooling.  A run is deterministic at a
fixed BLAS thread count: identical configuration and identical
OMP_NUM_THREADS/OPENBLAS_NUM_THREADS produce bit-identical tables.  A
different thread count reorders the BLAS reductions, so the functionals
and norms in diagnostics.csv may differ in their last digits; the
benchmark pins 1 thread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .acceptance import BUILTIN_GRAPHS, reference_graph, run_all
from .discrete import DiscreteField
from .discrete import assemble  # unused; bench/tracer.py wraps it by this name
from .errors import GraphNLSError

# evaluate_functionals is unused here; bench/tracer.py wraps it by this name
from .functionals import evaluate_functionals, normalized_ratios, soliton_reference
from .graphs import admissible_peak_degree, load_graph
from .reduced import MAX_N, enumerate_critical_points, even_case_lines
from .solve import SolveConfig, continuation_sweep, peak_template

# the ExperimentConfig fields whose solve flags are written by hand: they
# parse a list, or carry help text
_HAND_WRITTEN_FLAGS = ("graph", "peaks", "coeffs", "lambdas", "outdir")


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(SolveConfig):
    """Fully resolved description of one solve run.

    The solver knobs, their defaults and their checks are SolveConfig's;
    this adds what the seed state and the artifacts need.  The fields
    stay flat because the config hash and manifest are made of them.
    """

    graph: str
    peaks: tuple[str, ...]
    coeffs: tuple[tuple[float, ...], ...] | None = None
    outdir: str = "graphnls-out"

    def __post_init__(self):
        super().__post_init__()  # rejects out-of-range solver knobs
        # the action ratio column divides by lam**(1/mu + 1/2), of the powers
        # of lam a run takes the first to leave float range (below lam = 1)
        for lam in self.lambdas:
            if lam < 1.0 and lam ** (1.0 / self.mu + 0.5) < sys.float_info.min:
                raise ValueError(
                    f"shift {lam:g} is too small for mu={self.mu:g}: "
                    "lam**(1/mu + 1/2) underflows"
                )
        # each shift writes its states to a directory named by its shift
        names = [_state_dir_name(lam) for lam in self.lambdas]
        clashes = sorted({n for n in names if names.count(n) > 1})
        if clashes:
            raise ValueError(
                f"shifts {list(self.lambdas)} equal to 6 significant digits "
                f"would share a state directory: {', '.join(clashes)}"
            )

    def resolved(self) -> dict:
        """Every knob with its in-effect value (no hidden defaults)."""
        return asdict(self)

    def config_hash(self) -> str:
        payload = self.resolved()
        payload.pop("outdir")  # output location does not affect content
        text = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _state_dir_name(lam: float) -> str:
    return f"state_lam{lam:g}"


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return f"{float(x):.17g}"


def _state_text(nodes: np.ndarray, values: np.ndarray) -> str:
    """One "node value" line per node, each number as _fmt writes it.

    A single %-format over the interleaved pairs; "%.17g" and the
    format spec ".17g" render a float identically.
    """
    pairs = np.column_stack((nodes, values)).ravel().tolist()
    return ("%.17g %.17g\n" * len(nodes)) % tuple(pairs)


def _write_state_files(state_dir: Path, u: DiscreteField) -> None:
    """Write one "<edge>.txt" per edge of u's mesh, as _state_text formats it.

    A symmetric state repeats bit for bit on its edges, so each distinct
    edge is formatted once.  The key is the raw bytes, not the values:
    0.0 and -0.0 compare equal but print differently.
    """
    texts = {}
    mesh = u.mesh
    for eid in sorted(mesh.edge_nodes):
        nodes = mesh.edge_nodes[eid]
        vals = u.values[mesh.edge_dofs[eid]]
        key = (nodes.tobytes(), vals.tobytes())
        if key not in texts:
            texts[key] = _state_text(nodes, vals)
        (state_dir / f"{eid}.txt").write_text(texts[key], encoding="utf-8")


def _clear_outdir(outdir: Path) -> None:
    """Remove what an earlier solve run may have left in outdir: its CSV,
    manifest, error record and state_lam*/*.txt files.  A state directory
    goes once it is empty; no other file is touched."""
    for name in ("diagnostics.csv", "manifest.json", "error.json"):
        (outdir / name).unlink(missing_ok=True)
    for state_dir in outdir.glob("state_lam*"):
        if state_dir.is_dir():
            for path in state_dir.glob("*.txt"):
                path.unlink()
            if not any(state_dir.iterdir()):
                state_dir.rmdir()


def cmd_solve(cfg: ExperimentConfig) -> int:
    """Run the sweep described by cfg and write its artifacts."""
    outdir = Path(cfg.outdir)
    _clear_outdir(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    name = cfg.graph
    g = reference_graph(name) if name in BUILTIN_GRAPHS else load_graph(name)
    template = peak_template(g, cfg.peaks, coeffs=cfg.coeffs)
    stars = template.stars
    # the ratio columns need the reference constants, which exist only
    # for mu >= 0.5: fail before the sweep rather than after it
    soliton_reference(cfg.mu)
    results = continuation_sweep(template, cfg)

    # one pass per shift: its CSV row (column name -> value; the header
    # is the keys), its manifest entry, its state files and its line
    rows, entries = [], []
    for res in results:
        rep = res.functionals
        mass_ratio, action_ratio, rate = normalized_ratios(res, template.weight)
        rows.append({
            "lam": _fmt(res.lam),
            "converged": "1" if res.converged else "0",
            "iterations": str(res.iterations),
            "residual": _fmt(res.residual_norm),
            "mass": _fmt(rep.mass),
            "action": _fmt(rep.action),
            "energy": _fmt(rep.energy),
            "correction_norm": _fmt(res.correction_norm),
            "kernel_component_norm": _fmt(res.kernel_component_norm),
            "mass_ratio": _fmt(mass_ratio),
            "action_ratio": _fmt(action_ratio),
            "correction_rate": _fmt(rate),
            **{f"peak_offset_{p}": _fmt(off) for p, off in res.peak_locations},
        })
        entries.append({
            "lam": res.lam,
            "converged": res.converged,
            "termination": res.termination,
            "iterations": res.iterations,
            "backtracks": res.backtracks,
        })
        state_dir = outdir / _state_dir_name(res.lam)
        state_dir.mkdir(exist_ok=True)
        _write_state_files(state_dir, res.u)
        print(
            f"lam={res.lam:g} converged={res.converged} "
            f"iterations={res.iterations} residual={res.residual_norm:.3g}"
        )

    csv_lines = [f"# config {cfg.config_hash()}", ",".join(rows[0])]
    csv_lines += [",".join(row.values()) for row in rows]
    (outdir / "diagnostics.csv").write_text(
        "\n".join(csv_lines) + "\n", encoding="utf-8"
    )

    manifest = {
        "command": "solve",
        "config": cfg.resolved(),
        "config_hash": cfg.config_hash(),
        "graph_summary": {
            "vertices": len(template.graph.vertices),
            "edges": len(template.graph.edges),
            "compact": template.graph.is_compact,
            "peak_degrees": [s.degree for s in stars],
            "within_hypotheses": all(admissible_peak_degree(s.degree) for s in stars),
        },
        "results": entries,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )

    failed = [f"{e['lam']:g}" for e in entries if not e["converged"]]
    if failed:
        _write_error_record(
            outdir, "NotConverged", "some shifts did not converge: " + ", ".join(failed)
        )
        return 2
    return 0


def cmd_reduced_energy(N: int, **knobs) -> int:
    """Print the critical-point structure; knobs go to enumerate_critical_points."""
    if N % 2 == 1:
        rep = enumerate_critical_points(N, **knobs)
        print(f"reduced energy: N={N}, eps={rep.eps:g}")
        print("critical points (hessian determinant sign):")
        for point, sign in zip(rep.critical_points, rep.hessian_signs):
            coords = ", ".join(f"{c:+.6g}" for c in point)
            print(f"  ({coords})  {sign:+d}")
        print(f"local degree: {rep.local_degree:+d}")
    else:
        if knobs:  # eps perturbs the odd case only
            raise ValueError(f"eps applies only to odd N, got N={N}")
        lines = even_case_lines(N)
        print(f"reduced energy: N={N} (even)")
        print("critical directions (each spans a line t*sigma):")
        for sigma in lines:
            print("  (" + ", ".join(f"{s:+d}" for s in sigma) + ")")
        print(f"{len(lines)} directions; degree undefined (degenerate lines)")
    return 0


def cmd_verify(**knobs) -> int:
    """Run acceptance criteria (knobs go to run_all) and report pass/fail lines."""
    results = run_all(**knobs)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


def _write_error_record(outdir: Path, kind: str, message: str) -> None:
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "error.json").write_text(
            json.dumps({"error": kind, "message": message}, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
    except OSError:
        pass


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphnls",
        description="peaked bound states of the NLS equation on metric graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # no option carries a default: an absent flag leaves ExperimentConfig's,
    # enumerate_critical_points' or run_all's in effect
    quiet = {"argument_default": argparse.SUPPRESS}

    ps = sub.add_parser("solve", help="run a continuation sweep", **quiet)
    ps.add_argument(
        "--graph",
        required=True,
        help=f"graph file, or one of: {', '.join(BUILTIN_GRAPHS)}",
    )
    ps.add_argument(
        "--peak",
        action="append",
        required=True,
        dest="peaks",
        metavar="VERTEX",
        help="peak vertex id (repeat for multiple peaks)",
    )
    ps.add_argument(
        "--coeffs",
        action="append",
        type=_parse_floats,
        metavar="C1,C2,...",
        help="kernel coefficients for one peak (repeat per peak)",
    )
    ps.add_argument(
        "--lambdas",
        type=_parse_floats,
        help="comma-separated increasing frequency shifts",
    )
    ps.add_argument("--outdir", help="output directory")
    # every other field is a scalar knob: its flag is --<field-name>,
    # parsed as the type of its default
    for f in fields(ExperimentConfig):
        if f.name not in _HAND_WRITTEN_FLAGS:
            ps.add_argument("--" + f.name.replace("_", "-"), type=type(f.default))

    pr = sub.add_parser("reduced-energy", help="critical-point structure", **quiet)
    pr.add_argument("N", type=int, help=f"number of star edges (2 to {MAX_N})")
    pr.add_argument("--eps", type=float)

    pv = sub.add_parser("verify", help="run acceptance criteria", **quiet)
    pv.add_argument(
        "--criteria",
        type=_parse_ints,
        help="comma-separated criterion numbers (default: all)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # each subparser's dests are the given flags only, named as its
    # command's parameters
    knobs = {k: v for k, v in vars(args).items() if k != "command"}
    if args.command == "solve":
        knobs["peaks"] = tuple(knobs["peaks"])
        if "coeffs" in knobs:
            knobs["coeffs"] = tuple(knobs["coeffs"])
        try:
            return cmd_solve(ExperimentConfig(**knobs))
        except (GraphNLSError, ValueError, OSError) as exc:
            # a run refused on input leaves no earlier run's artifacts either
            outdir = Path(knobs.get("outdir", ExperimentConfig.outdir))
            with contextlib.suppress(OSError):
                _clear_outdir(outdir)
            _write_error_record(outdir, type(exc).__name__, str(exc))
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    try:
        if args.command == "reduced-energy":
            return cmd_reduced_energy(**knobs)
        if args.command == "verify":
            return cmd_verify(**knobs)
    except ValueError as exc:
        # a bad N, eps or criterion list
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
