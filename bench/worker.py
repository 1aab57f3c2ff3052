"""One benchmark child process: set up graphnls, run one pass, check it.

    python3 bench/worker.py '<request json>'

bench/run.py starts one worker per pass, so every pass runs in a fresh
interpreter (acceptance caches its sweeps per process) and the peak RSS
read here belongs to that pass alone.  The request names the workload's
graph and graphnls arguments, the mode ("setup" stops after set-up),
whether to trace, and the lam schedule of a sweep.  The worker prints
one JSON record as the last line of its standard output.
"""

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def check_verify(stdout: str, rc: int) -> dict:
    """verify must print nine criterion lines, all PASS, and exit 0."""
    lines = [ln for ln in stdout.splitlines() if ln.startswith("criterion ")]
    passed = sum(": PASS - " in ln for ln in lines)
    problems = [ln for ln in lines if ": PASS - " not in ln]
    if len(lines) != 9:
        problems.append(f"{len(lines)} criterion lines, expected 9")
    if rc != 0:
        problems.append(f"exit code {rc}")
    return {"attempted": 9, "succeeded": passed, "problems": problems}


def tripod_mass_ratio_err(graphnls) -> float:
    """|mass ratio - 1| of verify's tripod state at its last shift.

    Criterion 5 bands this ratio; it is recomputed here from the sweep
    the pass just cached, with criterion 5's normalization.
    """
    from graphnls.acceptance import _tripod_sweep

    last = _tripod_sweep()[1][-1]
    mesh = last.u.mesh
    op = graphnls.assemble(mesh.graph, mesh, last.lam)
    mass = graphnls.evaluate_functionals(op, 1.0, last.u).mass
    ref = graphnls.soliton_reference(1.0).mass
    return abs(mass / (math.sqrt(last.lam) * 1.5 * ref) - 1.0)


def check_sweep(outdir: Path, lambdas: list, rc: int) -> dict:
    """Check a solve pass's artifacts against what the run asked for.

    Exit code 2 (some shift did not converge) is expected behaviour and
    counted; it must agree with the table.  Every converged shift must
    meet the Newton tolerance and have a nonnegative state.  The state is
    determined only to the Newton tolerance, so nonnegative means no value
    below -newton_tol times the state's peak: far out on an edge the tail
    is exponentially small (about 1e-200 at lam=1700) and rounding gives
    it either sign.
    """
    import numpy as np

    problems = []
    if rc not in (0, 2):
        problems.append(f"exit code {rc}")
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    tol = manifest["config"]["newton_tol"]
    csv_bytes = (outdir / "diagnostics.csv").read_bytes()
    lines = csv_bytes.decode("utf-8").splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
    if [float(r["lam"]) for r in rows] != lambdas:
        problems.append("diagnostics.csv shifts differ from the schedule")
    converged = [r for r in rows if r["converged"] == "1"]
    if (rc == 2) != (len(converged) < len(rows)):
        problems.append(f"exit code {rc} with {len(converged)}/{len(rows)} converged")
    for r in converged:
        if not float(r["residual"]) <= tol:
            problems.append(f"lam={r['lam']}: residual {r['residual']} > {tol}")
        state_dir = outdir / f"state_lam{float(r['lam']):g}"
        files = sorted(state_dir.glob("*.txt"))
        if not files:
            problems.append(f"lam={r['lam']}: no state files")
        values = {
            f.name: np.fromstring(f.read_text(encoding="utf-8"), sep=" ")[1::2]
            for f in files
        }
        peak = max((np.max(v, initial=0.0) for v in values.values()), default=0.0)
        for fname, v in values.items():
            if not (np.all(np.isfinite(v)) and np.all(v >= -tol * peak)):
                problems.append(f"{state_dir.name}/{fname}: negative or not finite")
    artifacts = [p for p in outdir.rglob("*") if p.is_file()]
    return {
        "attempted": len(rows),
        "succeeded": len(converged),
        "problems": problems,
        "newton_iters": sum(int(r["iterations"]) for r in rows),
        "mass_ratio_err": abs(float(rows[-1]["mass_ratio"]) - 1.0),
        "diagnostics_sha256": hashlib.sha256(csv_bytes).hexdigest(),
        "artifact_bytes": sum(p.stat().st_size for p in artifacts),
        "artifact_files": len(artifacts),
    }


def main(request: dict) -> dict:
    src = Path(request["root"]) / "src"
    import graphnls
    import graphnls.cli

    if Path(graphnls.__file__).resolve().parent.parent != src.resolve():
        raise RuntimeError(f"imported graphnls from {graphnls.__file__}, not {src}")
    imported = time.perf_counter()
    graphnls.reference_graph(request["graph"])
    built = time.perf_counter()
    record = {
        "setup_s": built - _START,
        "import_s": imported - _START,
    }
    if request["mode"] == "setup":
        import numpy
        import scipy

        record["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
        return record

    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        rc = graphnls.cli.main(request["argv"])
    run_s = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux; read before the checks allocate
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["run_s"] = run_s
    record["exit_code"] = rc
    if tracer is not None:
        record["layers"] = tracer.summary(run_s)
    if request["outdir"] is None:
        record.update(check_verify(stdout.getvalue(), rc))
        record["mass_ratio_err"] = tripod_mass_ratio_err(graphnls)
        record["artifact_bytes"] = record["artifact_files"] = 0
    else:
        record.update(check_sweep(Path(request["outdir"]), request["lambdas"], rc))
    return record


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
