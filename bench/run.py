"""The graphnls benchmark: timed workload passes, output checks, layer split.

    python3 bench/run.py --workload star5_1600 --seed 3 --seconds 25 --trace 0

Run from the root of a source tree (it imports graphnls from ./src).
Load is closed-loop: this process starts one worker (bench/worker.py) at
a time, each a fresh interpreter that sets up graphnls and runs one pass
of the workload, with BLAS/OpenMP threads pinned to 1.  Passes repeat
until --seconds have gone by; every pass's outputs are checked.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced and traced passes and reports the per-layer split of the traced
ones (see bench/tracer.py) and the tracing overhead.  The last line of
standard output is one JSON object; a record with the environment,
schedule and every pass goes to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYER_UNITS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
MIN_SETUPS = 5  # set-up samples per run, topped up by set-up-only workers
RUN_LIMIT_S = 170.0  # a run, with its last pass, ends within this


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]  # graphnls arguments, without --lambdas/--outdir
    graph: str  # built-in graph built during set-up
    schedule: tuple[float, ...] = ()  # lam schedule of a sweep
    seeded: bool = False  # whether a nonzero seed rescales the schedule


WORKLOADS = {
    "verify": Workload(("verify",), "tripod"),
    "star5_1600": Workload(
        ("solve", "--graph", "star5", "--peak", "c"),
        "star5",
        (25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0),
        seeded=True,
    ),
    # Newton on figure1 v1 depends chaotically on the shifts: scaling the
    # schedule by factors in [1, 1.1) gives anywhere from 1 to 6 failing
    # shifts out of 6 and run times from 4 s to 10 s, so the schedule is
    # pinned and the benchmark measures the code, not that scatter.
    "figure1_v1": Workload(
        ("solve", "--graph", "figure1", "--peak", "v1"),
        "figure1",
        (25.0, 50.0, 100.0, 200.0, 400.0, 800.0),
    ),
}

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "mass_ratio_err": "ratio",
}
PER_LAYER_UNITS = dict(
    LAYER_UNITS,
    **{
        "cli.artifact_bytes": "bytes",
        "cli.artifact_files": "count",
        "setup.import_s": "s",
        "trace.run_s": "s",
        "trace.overhead_s": "s",
    },
)


def schedule(workload: Workload, seed: int) -> tuple[float, ...]:
    """Seed 0 is the nominal schedule; any other seed scales all of it
    by one factor drawn from [1, 1.1)."""
    if not workload.seeded or seed == 0:
        return workload.schedule
    factor = 1.0 + 0.1 * random.Random(seed).random()
    return tuple(lam * factor for lam in workload.schedule)


def _environment() -> dict:
    env = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "threads": PINNED_THREADS,
        "load": "closed loop: one worker process, one pass at a time",
        "git_commit": None,
    }
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        env["git_commit"] = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "graphnls").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    env["source_sha256"] = digest.hexdigest()
    return env


def _run_worker(request: dict, work: Path, deadline: float) -> dict:
    """Run one worker to completion; a crash or timeout is a failed pass."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    if request["outdir"] is not None:
        env["GRAPHNLS_OUTDIR"] = request["outdir"]
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(request)]
    try:
        proc = subprocess.run(
            cmd,
            cwd=work,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"failed": "timeout"}
    if proc.returncode != 0:
        return {"failed": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(proc.stdout.splitlines()[-1])


def _run_pass(workload: Workload, lambdas, trace: bool, work: Path, deadline) -> dict:
    request = {
        "root": str(ROOT),
        "graph": workload.graph,
        "mode": "pass",
        "trace": trace,
        "argv": list(workload.argv),
        "lambdas": list(lambdas),
        "outdir": None,
    }
    outdir = None
    if lambdas:
        outdir = Path(tempfile.mkdtemp(prefix="pass-", dir=work))
        request["outdir"] = outdir.name
        request["argv"] += ["--lambdas", ",".join(map(repr, lambdas))]
        request["argv"] += ["--outdir", outdir.name]
    try:
        record = _run_worker(request, work, deadline)
    finally:
        if outdir is not None:
            shutil.rmtree(outdir, ignore_errors=True)
    record["traced"] = trace
    return record


def _setup_request(workload: Workload) -> dict:
    return {"root": str(ROOT), "graph": workload.graph, "mode": "setup", "outdir": None}


def measure(
    name: str, lambdas, seconds: float, trace: bool, min_setups: int = MIN_SETUPS
) -> dict:
    """Run passes of one workload for `seconds` and aggregate them."""
    workload = WORKLOADS[name]
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        # the first import in a fresh tree compiles bytecode; not timed
        warmup = _run_worker(_setup_request(workload), work, deadline)
        passes = []
        while (
            not passes
            or time.monotonic() - started < seconds
            or (trace and len({p["traced"] for p in passes}) < 2)
        ):
            traced = trace and len(passes) % 2 == 1
            passes.append(_run_pass(workload, lambdas, traced, work, deadline))
        setups = [p for p in passes if "setup_s" in p]
        while len(setups) < min_setups:
            setups.append(_run_worker(_setup_request(workload), work, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run's directory is still there
            pass
    return _aggregate(name, lambdas, trace, warmup, passes, setups)


def _aggregate(name, lambdas, trace, warmup, passes, setups) -> dict:
    """Collect the checks and reduce the passes to the reported metrics."""
    ok = [p for p in passes if "failed" not in p]
    problems = [p["failed"] for p in passes if "failed" in p]
    problems += [f"setup: {s['failed']}" for s in setups if "failed" in s]
    for p in ok:
        problems += p["problems"]
    hashes = {p["diagnostics_sha256"] for p in ok if "diagnostics_sha256" in p}
    if len(hashes) > 1:
        problems.append("diagnostics.csv differs between passes of one run")
    if not ok:
        raise RuntimeError("every pass failed: " + "; ".join(problems))
    untraced = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]

    def median(key, records):
        return statistics.median(r[key] for r in records)

    def mean(key, records):
        return statistics.fmean(r[key] for r in records)

    end_to_end = {
        "run_s": median("run_s", untraced),
        "setup_s": median("setup_s", [s for s in setups if "failed" not in s]),
        "peak_rss_mb": median("peak_rss_mb", untraced),
        "success_ratio": statistics.median(
            p["succeeded"] / p["attempted"] for p in untraced
        ),
        "mass_ratio_err": median("mass_ratio_err", untraced),
    }
    per_layer = {}
    if traced:
        # means, so that the layer times and other_s add up to trace.run_s
        layers = [p["layers"] for p in traced]
        per_layer = {key: mean(key, layers) for key in layers[0]}
        per_layer["cli.artifact_bytes"] = mean("artifact_bytes", traced)
        per_layer["cli.artifact_files"] = mean("artifact_files", traced)
        per_layer["setup.import_s"] = median("import_s", ok)
        per_layer["trace.run_s"] = mean("run_s", traced)
        per_layer["trace.overhead_s"] = (
            per_layer["trace.run_s"] - mean("run_s", untraced)
        )
    return {
        "workload": name,
        "lambdas": list(lambdas),
        "trace": trace,
        "versions": warmup.get("versions"),
        "correct": not problems,
        "problems": problems,
        "attempted": len(passes),
        "failed": len(passes) - len(ok),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "passes": passes,
        "setups": setups,
    }


def metrics(result: dict, trace: bool) -> dict:
    """The metrics a run reports, each as {"value", "unit"}."""
    if trace:
        units, values = PER_LAYER_UNITS, result["per_layer"]
    else:
        units, values = END_TO_END_UNITS, result["end_to_end"]
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "graphnls" / "__init__.py").is_file():
        print(f"error: no graphnls sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    lambdas = schedule(WORKLOADS[args.workload], args.seed)
    result = measure(args.workload, lambdas, args.seconds, bool(args.trace))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result.update(
        seed=args.seed,
        seconds=args.seconds,
        why={w["name"]: w["why"] for w in spec["workloads"]}[args.workload],
        environment=_environment(),
    )
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    record = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    reported = metrics(result, bool(args.trace))
    for problem in result["problems"]:
        print(f"problem: {problem}")
    for key, metric in reported.items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": reported,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
