"""Command line entry points, artifacts, determinism, and error records."""

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import graphnls.acceptance
import graphnls.errors
import graphnls.profiles
import graphnls.solve
from graphnls import cli, load_graph, reference_graph
from graphnls.cli import ExperimentConfig, _state_text, _write_state_files, main
from graphnls.reduced import enumerate_critical_points
from graphnls.solve import continuation_sweep

FAST_SOLVE = [
    "solve",
    "--graph",
    "tripod",
    "--peak",
    "c",
    "--lambdas",
    "25,50",
    "--nodes-per-width",
    "15",
]


def test_solve_writes_the_expected_artifacts(tmp_path):
    out = tmp_path / "run"
    rc = main(FAST_SOLVE + ["--outdir", str(out)])
    assert rc == 0
    csv = (out / "diagnostics.csv").read_text().splitlines()
    assert csv[0].startswith("# config ")
    assert len(csv[0].split()[-1]) == 16
    header = csv[1].split(",")
    assert header[:4] == ["lam", "converged", "iterations", "residual"]
    assert "mass_ratio" in header and "peak_offset_c" in header
    assert len(csv) == 4
    for lam in ("25", "50"):
        state = out / f"state_lam{lam}"
        files = sorted(p.name for p in state.iterdir())
        assert files == ["e1.txt", "e2.txt", "e3.txt"]
        first = (state / "e1.txt").read_text().splitlines()[0].split()
        assert len(first) == 2 and float(first[0]) == 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["config_hash"] == csv[0].split()[-1]
    assert manifest["graph_summary"]["within_hypotheses"] is True
    assert [r["lam"] for r in manifest["results"]] == [25.0, 50.0]
    assert all(r["converged"] for r in manifest["results"])
    assert all(r["backtracks"] >= 0 for r in manifest["results"])
    assert all(r["termination"] == "converged" for r in manifest["results"])
    # every knob is echoed with its resolved value
    cfg = manifest["config"]
    for key in (
        "graph",
        "peaks",
        "mu",
        "coeffs",
        "lambdas",
        "nodes_per_width",
        "newton_tol",
        "max_iters",
        "seed",
        "outdir",
    ):
        assert key in cfg
    assert cfg["mu"] == 1.0 and cfg["seed"] == "previous"
    assert not (out / "error.json").exists()


# SHA-256 of FAST_SOLVE's outputs.  The state file hash dates from the
# per-value writer; the diagnostics hash was re-taken when the soliton
# constants became closed forms, which moved mass_ratio and action_ratio
# in their last one or two digits, and when alpha, damping,
# refinement_growth and cutoff left the config, which changed only its
# "# config" line
GOLDEN_SHA256 = {
    "diagnostics.csv": "ea6a7da92b5f0b77d27ea463ee7f5d32ffb6e9bde184afecf208dc3e51459734",
    "state_lam50/e1.txt": "7bbdb74547ce444a27b8a0a6bc974a439b200816f134bd497802903c1c3fe110",
}


def test_solve_output_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(FAST_SOLVE + ["--outdir", str(out1)]) == 0
    assert main(FAST_SOLVE + ["--outdir", str(out2)]) == 0
    assert (out1 / "diagnostics.csv").read_bytes() == (
        out2 / "diagnostics.csv"
    ).read_bytes()
    state = "state_lam50/e1.txt"
    assert (out1 / state).read_bytes() == (out2 / state).read_bytes()
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((out1 / name).read_bytes()).hexdigest() == digest, name


# SHA-256 of `solve --graph figure1 --peak v1 --lambdas 25,50,100` with
# BLAS threads pinned to 1.  lam=25 and 50 stall in the line search and
# lam=100 converges after 51 backtracks, so these pin the Newton
# kernels bit for bit: a 1e-15 change in a step alters the history.
# They were re-taken when the peak edges' meshes became graded,
# when every edge end near a peak did, and when the fine spacing
# was cut from 30 peak widths to 15.  The diagnostics hash alone was
# re-taken when four knobs left the config and its "# config" line.
# The bits also depend on the host: numpy's AVX-512 pow differs from
# glibc's in the last bit, so a host without AVX-512 or another numpy
# build may need these two hashes re-taken at an unchanged commit.
FIGURE1_GOLDEN_SHA256 = {
    "diagnostics.csv": "5b7e92bbeb716261593d1377ab1e00354d019bbd96e1cda9c14a05c6854a17f3",
    "state_lam100/h1.txt": "abc16dd6f858cae6c185c5564b1f5af7dd54a8e640c37b36de3d07005f4150cf",
}


@pytest.fixture(scope="module")
def figure1_run(tmp_path_factory):
    """Output directory of the pinned figure1 v1 run, made once."""
    src = str(Path(cli.__file__).resolve().parents[1])
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {**os.environ, "PYTHONPATH": src, **dict.fromkeys(threads, "1")}
    out = tmp_path_factory.mktemp("figure1")
    argv = ["solve", "--graph", "figure1", "--peak", "v1", "--lambdas", "25,50,100"]
    proc = subprocess.run(
        [sys.executable, "-m", "graphnls.cli", *argv, "--outdir", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    return out


def test_figure1_stalls_twice_then_converges_after_backtracks(figure1_run):
    manifest = json.loads((figure1_run / "manifest.json").read_text())
    assert [r["termination"] for r in manifest["results"]] == [
        "line_search_stall",
        "line_search_stall",
        "converged",
    ]
    # plain halving from 1/2 took 84, 61 and 144; the resumed halving
    # skips only trials that halving rejects, so the states are the same
    assert [r["backtracks"] for r in manifest["results"]] == [48, 42, 51]
    # a stall's last iteration accepted no step
    assert [len(r["step_lengths"]) for r in manifest["results"]] == [11, 11, 18]


def test_figure1_stall_and_backtracks_are_bit_for_bit(figure1_run):
    for name, digest in FIGURE1_GOLDEN_SHA256.items():
        data = (figure1_run / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


@pytest.mark.parametrize("failure", ["raise", "nan_step"])
def test_a_singular_shift_is_recorded_and_the_sweep_goes_on(
    tmp_path, monkeypatch, failure
):
    # every Jacobian at lam=100 fails to factor, or solves to a NaN step
    shifts = []
    real_newton = graphnls.solve.newton_solve
    real_factor = graphnls.solve.CondensedFactor

    def newton(op, u0, cfg):
        shifts.append(op.lam)
        return real_newton(op, u0, cfg)

    def factor(bands):
        out = real_factor(bands)
        if shifts[-1] == 100.0:
            if failure == "raise":
                raise graphnls.errors.SolveFailure("planted zero pivot")
            out.solve = lambda b: np.full_like(b, np.nan)
        return out

    monkeypatch.setattr(graphnls.solve, "newton_solve", newton)
    monkeypatch.setattr(graphnls.solve, "CondensedFactor", factor)
    out = tmp_path / "out"
    argv = ["solve", "--graph", "tripod", "--peak", "c", "--lambdas", "25,50,100,200"]
    assert main([*argv, "--outdir", str(out)]) == 2
    for lam in ("25", "50", "100", "200"):
        assert sorted(p.name for p in (out / f"state_lam{lam}").iterdir()) == [
            "e1.txt",
            "e2.txt",
            "e3.txt",
        ]
    results = json.loads((out / "manifest.json").read_text())["results"]
    assert [r["termination"] for r in results[:3]] == [
        "converged",
        "converged",
        "singular",
    ]
    assert results[2]["iterations"] == 0 and results[2]["backtracks"] == 0
    assert all(r["backtracks"] >= 0 for r in results)
    failed = [f"{r['lam']:g}" for r in results if not r["converged"]]
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "NotConverged"
    assert "100" in failed
    assert error["message"] == "some shifts did not converge: " + ", ".join(failed)


def test_solve_rejects_shifts_sharing_a_state_directory(tmp_path, capsys):
    # %g keeps 6 significant digits: both shifts would write state_lam100
    out = tmp_path / "clash"
    argv = ["solve", "--graph", "tripod", "--peak", "c"]
    rc = main(argv + ["--lambdas", "100,100.0000001", "--outdir", str(out)])
    assert rc == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert "[100.0, 100.0000001]" in record["message"]
    assert record["message"].endswith("share a state directory: state_lam100")
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    assert capsys.readouterr().out == ""


def test_state_text_matches_per_value_formatting():
    values = [0.0, -0.0, 5e-324, 1e-200, -1e-200, 1e300, 0.1, 1.0 / 3.0, 2.0**53 + 1]
    nodes = np.array(values)
    vals = np.array(values[::-1])
    old = "".join(f"{float(x):.17g} {float(v):.17g}\n" for x, v in zip(nodes, vals))
    assert _state_text(nodes, vals) == old
    assert _state_text(np.array([0.5, 1.0]), np.array([-0.0, 0.1])) == (
        "0.5 -0\n1 0.10000000000000001\n"
    )


def test_symmetric_state_is_formatted_once_per_shift(tmp_path, monkeypatch):
    # the zero-coefficient star5 state is bitwise equal on its five edges,
    # so each shift formats one text and writes it five times
    calls, sweeps = [], []

    def state_text_spy(nodes, values):
        calls.append(len(nodes))
        return _state_text(nodes, values)

    def sweep_spy(*args):
        sweeps.append(list(continuation_sweep(*args)))
        return sweeps[-1]

    monkeypatch.setattr(cli, "_state_text", state_text_spy)
    monkeypatch.setattr(cli, "continuation_sweep", sweep_spy)
    out = tmp_path / "star5"
    argv = ["solve", "--graph", "star5", "--peak", "c", "--lambdas", "25,50"]
    assert main(argv + ["--nodes-per-width", "15", "--outdir", str(out)]) == 0
    assert len(calls) == 2
    for res in sweeps[0]:
        mesh = res.u.mesh
        assert len(mesh.edge_nodes) == 5
        for eid, nodes in mesh.edge_nodes.items():
            text = (out / f"state_lam{res.lam:g}" / f"{eid}.txt").read_text()
            assert text == _state_text(nodes, res.u.values[mesh.edge_dofs[eid]])


def test_state_files_share_text_only_between_bitwise_equal_edges(tmp_path):
    # b differs from a only by the sign of a zero, d only by its nodes
    nodes = np.array([0.0, 0.5, 1.0])
    mesh = SimpleNamespace(
        edge_nodes={"a": nodes, "b": nodes, "c": nodes, "d": 2.0 * nodes},
        edge_dofs={"a": [0, 1, 2], "b": [3, 4, 5], "c": [6, 7, 8], "d": [0, 1, 2]},
    )
    values = np.array([1.0, 0.5, 0.0, 1.0, 0.5, -0.0, 1.0, 0.5, 0.0])
    _write_state_files(tmp_path, SimpleNamespace(mesh=mesh, values=values))
    text = {e: (tmp_path / f"{e}.txt").read_text() for e in "abcd"}
    assert text["a"] == text["c"] == "0 1\n0.5 0.5\n1 0\n"
    assert text["b"] == "0 1\n0.5 0.5\n1 -0\n"
    assert text["d"] == "0 1\n1 0.5\n2 0\n"


def test_solve_writes_to_its_outdir_whatever_the_environment(tmp_path, monkeypatch):
    # bench/run.py sets GRAPHNLS_OUTDIR beside --outdir; only the flag counts
    out = tmp_path / "flag"
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("GRAPHNLS_OUTDIR", str(env_dir))
    assert main(FAST_SOLVE + ["--outdir", str(out)]) == 0
    assert (out / "diagnostics.csv").exists()
    # a refused run writes its error record there too
    assert main(FAST_SOLVE + ["--outdir", str(out), "--mu", "0"]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    assert not env_dir.exists()


def test_solve_with_unknown_peak_writes_error_record(tmp_path, capsys):
    out = tmp_path / "bad"
    rc = main(
        ["solve", "--graph", "tripod", "--peak", "nope", "--outdir", str(out)]
    )
    assert rc == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert "nope" in record["message"]
    assert "error:" in capsys.readouterr().err


def _record_meshes(monkeypatch):
    """Calls the sweep makes to build a mesh; none means no work was done."""
    meshes = []
    monkeypatch.setattr(
        graphnls.solve, "refined_mesh", lambda *a, **k: meshes.append(a)
    )
    return meshes


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--mu", "0", "mu must be positive"),
        ("--nodes-per-width", "0", "nodes_per_width must be positive"),
        ("--lambdas", ",", "lambda schedule is empty"),
        ("--lambdas", "inf", "lambda shifts must be positive and finite"),
        ("--max-iters", "-1", "max_iters must be >= 0"),
        ("--newton-tol", "inf", "newton_tol must be in (0, 1)"),
        ("--newton-tol", "1", "newton_tol must be in (0, 1)"),
        ("--coeffs", "nan,0", "peak 'c': kernel coefficients must be finite"),
        ("--coeffs", "0", "expected 2 coefficients, got 1"),
        ("--seed", "bogus", "unknown seed strategy"),
        # lam**(1/mu + 1/2), the action ratio's divisor, underflows: each
        # once ended in a ZeroDivisionError traceback after the sweep
        ("--lambdas", "1e-300", "shift 1e-300 is too small for mu=1"),
        ("--lambdas", "1e-290", "shift 1e-290 is too small for mu=1"),
        ("--lambdas", "1e-310", "shift 1e-310 is too small for mu=1"),
        ("--lambdas=1e-250", "--mu=0.5", "shift 1e-250 is too small for mu=0.5"),
    ],
)
def test_solve_rejects_invalid_knobs_before_any_work(
    tmp_path, capsys, monkeypatch, flag, value, message
):
    meshes = _record_meshes(monkeypatch)
    out = tmp_path / "bad"
    argv = ["solve", "--graph", "tripod", "--peak", "c", flag, value]
    rc = main(argv + ["--outdir", str(out)])
    assert rc == 1
    assert meshes == []
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert message in record["message"]
    # validation comes first: nothing but the error record is written
    assert [p.name for p in out.iterdir()] == ["error.json"]
    assert "error: ValueError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("vertices: [a\nedges: {\n", "not valid YAML"),
        (
            "vertices: [a]\nedges:\n  - {id: e, from: a, to: ghost, length: 1.0}",
            "edge 'e' references undeclared vertex 'ghost'",
        ),
        (
            "vertices: [a, b]\nedges:\n  - {id: e, from: a, to: b, length: 0.0}",
            "edge 'e' has length 0.0",
        ),
        (
            "vertices: [a, b, c, d]\nedges:\n"
            "  - {id: e1, from: a, to: b, length: 1.0}\n"
            "  - {id: e2, from: c, to: d, length: 1.0}",
            "unreachable vertices: ['c', 'd']",
        ),
    ],
    ids=["not-yaml", "dangling-endpoint", "zero-length", "disconnected"],
)
def test_malformed_graph_file_writes_error_record(tmp_path, capsys, text, message):
    # every refused graph file is a ValueError, however it is broken
    graph_file = tmp_path / "broken.yaml"
    graph_file.write_text(text)
    out = tmp_path / "bad"
    argv = ["solve", "--graph", str(graph_file), "--peak", "a"]
    assert main(argv + ["--outdir", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert message in record["message"]
    assert "error: ValueError" in capsys.readouterr().err


def test_malformed_json_graph_file_writes_error_record(tmp_path, capsys):
    # a .json file is parsed as JSON, not as YAML
    graph_file = tmp_path / "broken.json"
    graph_file.write_text('{"vertices": ["a"], "edges": [}')
    out = tmp_path / "bad"
    argv = ["solve", "--graph", str(graph_file), "--peak", "a"]
    assert main(argv + ["--outdir", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert "not valid JSON" in record["message"]
    assert "error: ValueError" in capsys.readouterr().err


@pytest.mark.parametrize("suffix", [".yaml", ".json"])
@pytest.mark.parametrize(
    "graph, message",
    [
        (
            {
                "vertices": ["v", "w"],
                "edges": [{"id": "e", "from": "v", "to": "w", "length": 10**400}],
            },
            "edge 'e': length is too large for a float",
        ),
        (
            {
                "vertices": ["v", "w"],
                "edges": [{"id": "h", "from": "v", "to": "w", "length": "inf"}],
                "truncation": 10**400,
            },
            "'truncation' is too large for a float",
        ),
    ],
    ids=["length", "truncation"],
)
def test_graph_number_beyond_float_range_writes_error_record(
    tmp_path, capsys, graph, message, suffix
):
    # 1 followed by 400 zeros parses as an int that no float holds
    graph_file = tmp_path / f"huge{suffix}"
    graph_file.write_text(json.dumps(graph))
    out = tmp_path / "bad"
    argv = ["solve", "--graph", str(graph_file), "--peak", "v"]
    assert main(argv + ["--outdir", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert record["message"] == message
    assert "error: ValueError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suffix, text",
    [
        (
            ".json",
            '{"vertices": ["c", "a1", "a2", "a3"], "edges": ['
            '{"id": "e1", "from": "c", "to": "a1", "length": 1.0, "length": 3.0}, '
            '{"id": "e2", "from": "c", "to": "a2", "length": 1.0}, '
            '{"id": "e3", "from": "c", "to": "a3", "length": 1.0}]}',
        ),
        (
            ".yaml",
            "vertices: [c, a1, a2, a3]\nedges:\n"
            "  - {id: e1, from: c, to: a1, length: 1.0, length: 3.0}\n"
            "  - {id: e2, from: c, to: a2, length: 1.0}\n"
            "  - {id: e3, from: c, to: a3, length: 1.0}\n",
        ),
    ],
    ids=["json", "yaml"],
)
def test_a_graph_file_that_repeats_a_key_writes_error_record(
    tmp_path, capsys, suffix, text
):
    # kept the last length, this tripod would solve
    graph_file = tmp_path / f"repeats{suffix}"
    graph_file.write_text(text)
    out = tmp_path / "bad"
    argv = ["solve", "--graph", str(graph_file), "--peak", "c", "--lambdas", "25"]
    assert main(argv + ["--outdir", str(out)]) == 1
    assert [p.name for p in out.iterdir()] == ["error.json"]
    record = json.loads((out / "error.json").read_text())
    assert record == {
        "error": "ValueError",
        "message": "graph description repeats the key 'length'",
    }
    assert "error: ValueError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "peak, edge, hostile",
    [
        # as a state file name this edge id is out/escaped.txt
        ("c", "../../escaped", "../../escaped"),
        # as a column name this peak id splits the diagnostics.csv header
        ("c,x", "e1", "c,x"),
    ],
)
def test_graph_ids_cannot_escape_the_outdir_or_split_a_csv_field(
    tmp_path, capsys, peak, edge, hostile
):
    graph_file = tmp_path / "hostile.json"
    graph_file.write_text(
        json.dumps(
            {
                "vertices": [peak, "a1", "a2", "a3"],
                "edges": [
                    {"id": edge, "from": peak, "to": "a1", "length": 1.0},
                    {"id": "e2", "from": peak, "to": "a2", "length": 1.0},
                    {"id": "e3", "from": peak, "to": "a3", "length": 1.0},
                ],
            }
        )
    )
    out = tmp_path / "out" / "run"
    argv = ["solve", "--graph", str(graph_file), "--peak", peak, "--lambdas", "25"]
    assert main(argv + ["--outdir", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert repr(hostile) in record["message"]
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
    assert written == ["hostile.json", "out", "out/run", "out/run/error.json"]
    assert "error: ValueError" in capsys.readouterr().err


def test_a_successful_rerun_removes_the_stale_error_record(tmp_path):
    out = tmp_path / "run"
    argv = ["solve", "--graph", "tripod", "--peak", "c", "--lambdas", "25"]
    argv += ["--outdir", str(out)]
    assert main(argv + ["--max-iters", "0"]) == 2
    assert json.loads((out / "error.json").read_text())["error"] == "NotConverged"
    assert main(argv) == 0
    assert not (out / "error.json").exists()


def _tree(out):
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*"))


def test_a_shorter_rerun_leaves_no_stale_shift(tmp_path):
    out = tmp_path / "run"
    assert main(FAST_SOLVE + ["--outdir", str(out)]) == 0
    assert (out / "state_lam50").is_dir()
    assert main(FAST_SOLVE + ["--lambdas", "25", "--outdir", str(out)]) == 0
    states = ["state_lam25"] + [f"state_lam25/e{i}.txt" for i in (1, 2, 3)]
    assert _tree(out) == ["diagnostics.csv", "manifest.json"] + states


@pytest.mark.parametrize(
    "argv",
    [
        # refused in cmd_solve, by peak_template
        ["solve", "--graph", "tripod", "--peak", "nope"],
        # refused in main, by ExperimentConfig, before cmd_solve runs
        FAST_SOLVE + ["--max-iters", "-1"],
        # refused by continuation_sweep, at the call, before any shift
        FAST_SOLVE + ["--nodes-per-width", "1e12"],
    ],
)
def test_a_rerun_refused_on_input_leaves_only_its_error_record(tmp_path, argv):
    out = tmp_path / "run"
    assert main(FAST_SOLVE + ["--outdir", str(out)]) == 0
    assert main(argv + ["--outdir", str(out)]) == 1
    assert _tree(out) == ["error.json"]


def test_a_run_stopped_mid_sweep_keeps_every_completed_shift(tmp_path, monkeypatch):
    # each shift's files are written as it completes: an error main does
    # not catch, at the third shift, stands in for a kill
    argv = ["solve", "--graph", "star5", "--peak", "c", "--lambdas", "25,50,100"]
    full = tmp_path / "full"
    assert main(argv + ["--outdir", str(full)]) == 0
    real_newton = graphnls.solve.newton_solve
    solves = []

    def newton(*args):
        solves.append(args)
        if len(solves) == 3:
            raise RuntimeError("stopped")
        return real_newton(*args)

    monkeypatch.setattr(graphnls.solve, "newton_solve", newton)
    out = tmp_path / "stopped"
    with pytest.raises(RuntimeError, match="stopped"):
        main(argv + ["--outdir", str(out)])
    states = [f"state_lam{lam}/e{i}.txt" for lam in (25, 50) for i in range(1, 6)]
    assert _tree(out) == sorted(
        ["diagnostics.csv", "manifest.json", "state_lam25", "state_lam50"] + states
    )
    csv = (out / "diagnostics.csv").read_text().splitlines()
    assert csv == (full / "diagnostics.csv").read_text().splitlines()[:4]
    manifest = json.loads((out / "manifest.json").read_text())
    full_manifest = json.loads((full / "manifest.json").read_text())
    assert manifest["results"] == full_manifest["results"][:2]
    for path in states:
        assert (out / path).read_bytes() == (full / path).read_bytes()


def test_a_coeffs_run_samples_each_shifts_kernel_modes_once(tmp_path, monkeypatch):
    # the seed and the kernel split of a converged shift share one
    # sampling of its tapered kernel modes
    sampled = []
    real = graphnls.profiles.sample_kernel_modes

    def counted(mesh, star, lam, mu, tapered=False):
        sampled.append(lam)
        return real(mesh, star, lam, mu, tapered)

    for module in (graphnls.profiles, graphnls.solve):
        monkeypatch.setattr(module, "sample_kernel_modes", counted)
    out = tmp_path / "run"
    argv = FAST_SOLVE + ["--coeffs", "0.3,-0.2", "--outdir", str(out)]
    assert main(argv) == 0
    assert sampled == [25.0, 50.0]


def test_a_rerun_keeps_the_files_it_did_not_write(tmp_path):
    out = tmp_path / "run"
    assert main(FAST_SOLVE + ["--outdir", str(out)]) == 0
    (out / "notes.md").write_text("mine")
    (out / "state_lam50" / "plot.png").write_bytes(b"png")
    (out / "state_lam50.txt").write_text("not a state directory")
    assert main(FAST_SOLVE + ["--lambdas", "25", "--outdir", str(out)]) == 0
    refused = ["solve", "--graph", "tripod", "--peak", "nope", "--outdir", str(out)]
    assert main(refused) == 1
    assert (out / "notes.md").read_text() == "mine"
    assert (out / "state_lam50.txt").read_text() == "not a state directory"
    assert _tree(out) == [
        "error.json",
        "notes.md",
        "state_lam50",
        "state_lam50.txt",
        "state_lam50/plot.png",
    ]


@pytest.mark.parametrize("graph, peak", [("tripod", "a1"), ("double_tripod", "s1")])
def test_solve_refuses_a_degree_one_peak_before_any_work(
    tmp_path, capsys, monkeypatch, graph, peak
):
    # a degree-1 vertex has no kernel modes, so its seed state cannot be
    # built; the run once failed only after meshing
    sweeps = []
    monkeypatch.setattr(cli, "continuation_sweep", lambda *a: sweeps.append(a))
    out = tmp_path / "bad"
    assert main(["solve", "--graph", graph, "--peak", peak, "--outdir", str(out)]) == 1
    assert sweeps == []
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert f"peak {peak!r} has degree 1" in record["message"]
    assert [p.name for p in out.iterdir()] == ["error.json"]
    assert "error: ValueError" in capsys.readouterr().err


def test_infinite_truncation_writes_error_record(tmp_path, capsys):
    # it would give the unbounded edge infinitely many nodes: refused on
    # reading, before any mesh is sized
    graph_file = tmp_path / "inf_truncation.yaml"
    graph_file.write_text(
        "vertices: [c, t]\nedges:\n  - {id: h, from: c, to: t, length: inf}\n"
        "truncation: .inf\n"
    )
    out = tmp_path / "bad"
    argv = ["solve", "--graph", str(graph_file), "--peak", "c"]
    assert main(argv + ["--outdir", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert "'truncation' must be finite" in record["message"]
    assert [p.name for p in out.iterdir()] == ["error.json"]
    assert "error: ValueError" in capsys.readouterr().err


def test_unparsable_coeffs_are_a_usage_error(tmp_path):
    out = tmp_path / "bad"
    argv = ["solve", "--graph", "tripod", "--peak", "c", "--coeffs", "a,b"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--outdir", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_solve_fails_before_the_sweep_below_the_reference_range(
    tmp_path, monkeypatch
):
    # the soliton reference constants behind the ratio columns exist only
    # for mu >= 0.5, so such a run must fail without sweeping at all
    sweeps = []
    monkeypatch.setattr(cli, "continuation_sweep", lambda *a: sweeps.append(a))
    out = tmp_path / "lowmu"
    argv = ["solve", "--graph", "tripod", "--peak", "c", "--mu", "0.3"]
    rc = main(argv + ["--outdir", str(out)])
    assert rc == 1
    assert sweeps == []
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert "mu >= 0.5" in record["message"]
    assert not list(out.glob("state_lam*"))


def test_solve_accepts_graph_files_and_custom_coeffs(tmp_path):
    graph_file = tmp_path / "wide_tripod.yaml"
    graph_file.write_text(
        """
vertices: [c, a1, a2, a3]
edges:
  - {id: e1, from: c, to: a1, length: 2.0}
  - {id: e2, from: c, to: a2, length: 2.0}
  - {id: e3, from: c, to: a3, length: 2.0}
"""
    )
    out = tmp_path / "run"
    rc = main(
        [
            "solve",
            "--graph",
            str(graph_file),
            "--peak",
            "c",
            "--coeffs",
            "0.05,-0.05",
            "--lambdas",
            "25",
            "--nodes-per-width",
            "15",
            "--outdir",
            str(out),
        ]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["coeffs"] == [[0.05, -0.05]]


def test_solve_two_adjacent_peaks_inserts_midpoint(tmp_path):
    out = tmp_path / "two"
    rc = main(
        [
            "solve",
            "--graph",
            "double_tripod",
            "--peak",
            "c1",
            "--peak",
            "c2",
            "--lambdas",
            "50",
            "--nodes-per-width",
            "25",
            "--outdir",
            str(out),
        ]
    )
    assert rc == 0
    state = out / "state_lam50"
    names = {p.name for p in state.iterdir()}
    # the bridging edge was split at a fresh midpoint vertex
    assert {"bridge__a.txt", "bridge__b.txt"} <= names
    assert "bridge.txt" not in names
    csv = (out / "diagnostics.csv").read_text().splitlines()
    header = csv[1].split(",")
    assert "peak_offset_c1" in header and "peak_offset_c2" in header


def test_reduced_energy_odd_output(capsys):
    assert main(["reduced-energy", "3", "--eps", "0.5"]) == 0
    text = capsys.readouterr().out
    assert "(+0.5, -0.5)  -1" in text
    assert "(-0.5, +0.5)  -1" in text
    assert "local degree: -2" in text


def test_reduced_energy_even_output(capsys):
    assert main(["reduced-energy", "4"]) == 0
    text = capsys.readouterr().out
    assert "degree undefined (degenerate lines)" in text
    assert text.count("(") >= 6


def test_reduced_energy_even_output_is_pinned(capsys):
    # the 20 sign patterns in {-1, 1}^5 with two or three minus entries,
    # in product order, led by +1
    patterns = [p for p in itertools.product((1, -1), repeat=5) if p.count(-1) in (2, 3)]
    expect = [
        "reduced energy: N=6 (even)",
        "critical directions (each spans a line t*sigma):",
        *("  (" + ", ".join(f"{s:+d}" for s in p) + ")" for p in patterns),
        "20 directions; degree undefined (degenerate lines)",
    ]
    assert main(["reduced-energy", "6"]) == 0
    assert capsys.readouterr().out == "\n".join(expect) + "\n"


def test_reduced_energy_odd_output_is_pinned(capsys):
    # the 6 sign patterns in {-1, 1}^4 with two minus entries, scaled by
    # eps = 0.35, in product order, led by +1; each Hessian sign is +1
    patterns = [p for p in itertools.product((1, -1), repeat=4) if p.count(-1) == 2]
    expect = [
        "reduced energy: N=5, eps=0.35",
        "critical points (hessian determinant sign):",
        *("  (" + ", ".join(f"{0.35 * s:+.6g}" for s in p) + ")  +1" for p in patterns),
        "local degree: +6",
    ]
    assert len(patterns) == 6
    assert main(["reduced-energy", "5"]) == 0
    assert capsys.readouterr().out == "\n".join(expect) + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--criteria", "0"], "no criterion 0"),
        # eps perturbs only the odd case, so an even N refuses it
        (["reduced-energy", "6", "--eps", "-1"], "eps applies only to odd N, got N=6"),
        (["reduced-energy", "6", "--eps", "0.35"], "eps applies only to odd N, got N=6"),
    ],
)
def test_verify_and_reduced_energy_refuse_input_alike(capsys, argv, message):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: ValueError: {message}\n"


def test_reduced_energy_input_validation(capsys):
    assert main(["reduced-energy", "1"]) == 1
    assert main(["reduced-energy", "3", "--eps", "-0.1"]) == 1
    err = capsys.readouterr().err
    assert "N must be >= 2" in err
    assert "eps must be positive" in err
    # nan once passed an `eps <= 0` check and ended in a traceback, and
    # inf printed (+inf, -inf) points with exit 0
    for eps in ("nan", "inf", "-1"):
        assert main(["reduced-energy", "3", "--eps", eps]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: ValueError: eps must be positive and finite, got {float(eps)}\n"
        )


@pytest.mark.parametrize("eps", [1e-9, 1e-6, 0.35, 1e150])
def test_reduced_energy_scales_with_eps(capsys, eps):
    # the perturbed cubic is homogeneous, so its critical points at eps
    # are eps times those at 1, with the same determinant signs
    rep = enumerate_critical_points(5, eps)
    unit = enumerate_critical_points(5, 1.0)
    assert rep.hessian_signs == unit.hessian_signs
    assert rep.local_degree == 6
    for point, one in zip(rep.critical_points, unit.critical_points):
        assert point == tuple(eps * c for c in one)
    assert main(["reduced-energy", "5", "--eps", repr(eps)]) == 0
    out = capsys.readouterr().out
    assert out.count(f"{eps:+.6g}") == 12 and out.count(f"{-eps:+.6g}") == 12
    assert out.endswith("local degree: +6\n")


@pytest.mark.parametrize("N", [41, 14])
def test_reduced_energy_refuses_n_above_the_ceiling(capsys, N):
    # 41 takes the odd path and 14 the even one; both refuse before any
    # sign pattern is built
    assert main(["reduced-energy", str(N)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: ValueError: N must be <= 13, got {N}: the report would list "
        "thousands of critical points or directions\n"
    )


# what `graphnls verify` printed before criterion 1 moved from SuperLU
# to the edge-condensed factor; any change to these numbers is a change
# to the results.  Criterion 9's adjointness was 1.8e-15 while it paired
# through CSR matrices; the band products sum in another order.  On its
# Weyl-sequence test vectors both sides of the adjointness round to the
# same double, hence 0
GOLDEN_VERIFY = [
    "criterion 1 (kernel dimension): PASS - N=2: 1 small, 0 in gap, 1 below -1e-3, corr 1.00000; N=3: 2 small, 0 in gap, 1 below -1e-3, corr 1.00000; N=4: 3 small, 0 in gap, 1 below -1e-3, corr 1.00000; N=5: 4 small, 0 in gap, 1 below -1e-3, corr 1.00000",
    "criterion 2 (reduced-energy degree): PASS - N=3: degree -2 (want -2), 2 points (want 2); N=5: degree 6 (want 6), 6 points (want 6); N=7: degree -20 (want -20), 20 points (want 20); N=9: degree 70 (want 70), 70 points (want 70)",
    "criterion 3 (even-N structure): PASS - N=4: 6 directions (want 6), max |grad| 0; N=6: 20 directions (want 20), max |grad| 3.6e-15",
    "criterion 4 (peaked solution existence): PASS - lam=25: conv=True its=3 min=0.19 offset=0 (cell 0.005); lam=50: conv=True its=2 min=0.034 offset=0 (cell 0.003); lam=100: conv=True its=2 min=0.0026 offset=0 (cell 0.0018); lam=200: conv=True its=2 min=5.8e-05 offset=0 (cell 0.0011); lam=400: conv=True its=2 min=2.3e-07 offset=0 (cell 0.00063)",
    "criterion 5 (mass asymptotics): PASS - ratios 1.0013, 1.0001, 1.0000, 1.0000, 1.0000; final in band=True, monotone=True",
    "criterion 6 (correction rate): PASS - rates 0.1092, 0.02186, 0.002779, 0.0002081, 6.388e-05",
    "criterion 7 (multi-peak): PASS - converged=True, mass ratio 1.0000 (band 7%), offsets c1:0, c2:0",
    "criterion 8 (not a ground state): PASS - action ratio 1.5000 (band [1.35, 1.65]); mu=2 mass 4.0814 vs 2.7207",
    "criterion 9 (numerical hygiene): PASS - factors 4.00, 4.00; adjointness 0; jacobian fd 1.9e-11",
]


def test_verify_prints_the_golden_lines(capsys):
    assert main(["verify"]) == 0
    assert capsys.readouterr().out.splitlines() == GOLDEN_VERIFY


def test_verify_prints_the_golden_lines_of_the_criteria_requested(capsys):
    # the criteria that do not rest on the odd-degree peak hypotheses
    assert main(["verify", "--criteria", "1,2,3,9"]) == 0
    wanted = [GOLDEN_VERIFY[cid - 1] for cid in (1, 2, 3, 9)]
    assert capsys.readouterr().out.splitlines() == wanted


def test_verify_prints_the_golden_lines_with_threaded_blas(tmp_path):
    # with the BLAS thread pools at their default sizes, as a user's
    # shell leaves them, verify must still print the golden lines
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
    }
    env["PYTHONPATH"] = src
    run = subprocess.run(
        [sys.executable, "-m", "graphnls.cli", "verify"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == GOLDEN_VERIFY


def _modules_loaded_by(code):
    """The modules a fresh interpreter holds after running code."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(*sys.modules, file=sys.stderr)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return run.stderr.split()


def _skip_unless_lapack_loads_directly():
    from graphnls import discrete

    lapack = discrete.lapack
    if not isinstance(lapack, discrete._NumpyLapack) and (
        lapack.__name__ == "scipy.linalg.lapack"
    ):
        pytest.skip(
            "numpy carries no ILP64 OpenBLAS and scipy's _flapack extension "
            "does not load by file path here, so graphnls imports scipy.linalg "
            "for LAPACK"
        )


def _scipy_modules(modules):
    return [m for m in modules if m.startswith("scipy")]


def _yaml_modules(modules):
    return [m for m in modules if m.split(".")[0] in ("yaml", "_yaml")]


def test_cli_import_leaves_out_scipy():
    # importing scipy's Python package costs about a third of a second of
    # every process start; graphnls loads only its compiled LAPACK
    # extension, and the soliton constants have closed forms.  PyYAML
    # (15-40 ms) is imported only to read a graph file
    modules = _modules_loaded_by("import graphnls.cli")
    assert _yaml_modules(modules) == []
    _skip_unless_lapack_loads_directly()
    assert _scipy_modules(modules) == []


def test_verify_and_solve_run_without_scipy_or_numpy_ma(tmp_path):
    verify = _modules_loaded_by("from graphnls.cli import main; assert main(['verify']) == 0")
    # criteria 1 and 9 build their stars as mappings
    assert _yaml_modules(verify) == []
    argv = ["solve", "--graph", "star5", "--peak", "c", "--lambdas", "25,50"]
    argv += ["--outdir", str(tmp_path / "run")]
    solve = _modules_loaded_by(f"from graphnls.cli import main; assert main({argv!r}) == 0")
    assert "graphnls.solve" in solve
    # the built-in graphs are JSON
    assert _yaml_modules(solve) == []

    # a graph file is YAML, parsed by the PyYAML that build_graph imports
    graph_file = tmp_path / "tripod.yaml"
    graph_file.write_text(
        "vertices: [c, a1, a2, a3]\nedges:\n"
        + "".join(f"  - {{id: e{i}, from: c, to: a{i}, length: 1.0}}\n" for i in (1, 2, 3))
    )
    argv = ["solve", "--graph", str(graph_file), "--peak", "c", "--lambdas", "25"]
    argv += ["--outdir", str(tmp_path / "file")]
    from_file = _modules_loaded_by(f"from graphnls.cli import main; assert main({argv!r}) == 0")
    assert "yaml" in from_file
    # a .json graph file is read by json, so exponent lengths are numbers
    # (under YAML 1.1, 1e0 is a string) and PyYAML stays unloaded
    json_file = tmp_path / "tripod.json"
    json_file.write_text(
        '{"vertices": ["c", "a1", "a2", "a3"], "edges": ['
        '{"id": "e1", "from": "c", "to": "a1", "length": 1e0}, '
        '{"id": "e2", "from": "c", "to": "a2", "length": 10E-1}, '
        '{"id": "e3", "from": "c", "to": "a3", "length": 1.0e+0}]}'
    )
    assert load_graph(json_file) == reference_graph("tripod")
    argv = ["solve", "--graph", str(json_file), "--peak", "c", "--lambdas", "25"]
    argv += ["--outdir", str(tmp_path / "json")]
    from_json = _modules_loaded_by(f"from graphnls.cli import main; assert main({argv!r}) == 0")
    assert _yaml_modules(from_json) == []
    broken = tmp_path / "broken.yaml"
    broken.write_text("vertices: [a\nedges: {\n")
    argv = ["solve", "--graph", str(broken), "--peak", "a", "--outdir", str(tmp_path / "bad")]
    _modules_loaded_by(f"from graphnls.cli import main; assert main({argv!r}) == 1")
    record = json.loads((tmp_path / "bad" / "error.json").read_text())
    assert "not valid YAML" in record["message"]

    # verify runs every criterion in its own process; either package
    # would cost about 18 ms of import
    assert "multiprocessing" not in verify
    assert "concurrent.futures" not in verify

    _skip_unless_lapack_loads_directly()
    assert _scipy_modules(verify) == []
    # its test vectors are Weyl sequences; importing numpy.random costs
    # about 20 ms of the run
    assert "numpy.random" not in verify
    assert _scipy_modules(solve) == []
    # np.unique, and the set routines built on it, import numpy.ma
    assert "numpy.ma" not in solve


def test_solve_and_verify_map_one_openblas(tmp_path):
    # numpy maps its own OpenBLAS at import, and graphnls calls LAPACK
    # there: scipy's second OpenBLAS (scipy.libs, about 2.5 MB of peak
    # RSS) and its _flapack extension are never mapped
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/maps")
    from graphnls import discrete

    if discrete._numpy_lapack() is None:
        pytest.skip("numpy carries no ILP64 OpenBLAS here; LAPACK comes from scipy")
    argv = ["solve", "--graph", "star5", "--peak", "c", "--lambdas", "25,50"]
    argv += ["--outdir", str(tmp_path / "run")]
    code = (
        "from graphnls.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "assert main(['verify', '--criteria', '1,9']) == 0\n"
        "import sys\n"
        "print(open('/proc/self/maps').read(), file=sys.stderr)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    # the sixth field of a mapping is its file, if it has one
    mappings = (line.split(maxsplit=5) for line in run.stderr.splitlines())
    files = {Path(m[5]) for m in mappings if len(m) == 6}
    assert any("openblas" in f.name for f in files)
    assert [f for f in files if "scipy.libs" in f.parts] == []
    assert [f for f in files if f.name.startswith("_flapack")] == []


def test_verify_subset_passes(capsys):
    rc = main(["verify", "--criteria", "2,3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "criterion 2" in out and "PASS" in out
    assert "criterion 3" in out
    assert "FAIL" not in out


def test_verify_coarse_mesh_fails_by_design(capsys, monkeypatch):
    # spacings far above the peak width must break the convergence factors
    monkeypatch.setattr(graphnls.acceptance, "_HYGIENE_SPACINGS", (2.0, 1.0, 0.5))
    rc = main(["verify", "--criteria", "9"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "criterion 9" in out and "FAIL" in out


@pytest.mark.parametrize("criteria", ["12", "0,2"])
def test_verify_rejects_unknown_criteria_before_running_any(capsys, criteria):
    rc = main(["verify", "--criteria", criteria])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "no criterion" in captured.err


def test_verify_rejects_an_empty_criteria_list(capsys):
    # "," parses to no criteria at all, which is not "all nine"
    rc = main(["verify", "--criteria", ","])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: ValueError: no criteria requested\n"


# ExperimentConfig(graph="tripod", peaks=("c",)).config_hash() as the
# defaults stood when each was written out in three places, re-taken
# when alpha, damping, refinement_growth and cutoff became constants; it
# changes if any default value or field does
GOLDEN_DEFAULT_CONFIG_HASH = "06e57a11a60e8628"


def test_default_config_hash_is_pinned():
    cfg = ExperimentConfig(graph="tripod", peaks=("c",))
    assert cfg.config_hash() == GOLDEN_DEFAULT_CONFIG_HASH


def test_experiment_config_hash_ignores_outdir():
    a = ExperimentConfig(graph="tripod", peaks=("c",), outdir="x")
    b = ExperimentConfig(graph="tripod", peaks=("c",), outdir="y")
    c = ExperimentConfig(graph="tripod", peaks=("c",), mu=2.0)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    with pytest.raises(ValueError):
        ExperimentConfig(graph="tripod", peaks=("c",), lambdas=(50.0, 25.0))


def test_a_config_without_peaks_is_refused_before_any_mesh(tmp_path, monkeypatch):
    # the seed template refuses it, the one place the refusal is written
    meshes = _record_meshes(monkeypatch)
    cfg = ExperimentConfig(graph="tripod", peaks=(), outdir=str(tmp_path))
    with pytest.raises(ValueError, match="at least one peak vertex is required"):
        cli.cmd_solve(cfg)
    assert meshes == []


def test_no_command_line_option_carries_a_default_of_its_own():
    # an absent flag leaves the default of the library function or config
    # the command hands its flags to
    actions = cli._build_parser()._actions
    sub = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == ["reduced-energy", "solve", "verify"]
    for name, parser in sub.choices.items():
        for action in parser._actions:
            assert action.default is argparse.SUPPRESS, (name, action.dest)


def test_verify_takes_only_criteria(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0].split()
    assert [w for w in usage if w.startswith("[-")] == ["[-h]", "[--criteria"]
    for flag in (["--coarse"], ["--peak-degree", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_solve_takes_only_its_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0].split()
    assert [w.strip("[]") for w in usage if w.lstrip("[").startswith("-")] == [
        "-h",
        "--graph",
        "--peak",
        "--coeffs",
        "--lambdas",
        "--outdir",
        "--mu",
        "--newton-tol",
        "--max-iters",
        "--nodes-per-width",
        "--seed",
    ]
    # the seed's kernel damping exponent, the line-search factor, the
    # mesh growth law and the taper are constants, not knobs
    for flag in (
        ["--alpha", "1"],
        ["--damping", "0.5"],
        ["--refinement-growth", "0"],
        ["--cutoff", "cos2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--graph", "tripod", "--peak", "c", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_verify_and_reduced_energy_hand_on_only_the_flags_given(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "run_all", lambda **knobs: calls.append(knobs) or [])
    assert main(["verify"]) == 0
    assert main(["verify", "--criteria", "2,3"]) == 0
    assert calls == [{}, {"criteria": (2, 3)}]
    # the library's eps is the one printed
    assert main(["reduced-energy", "3"]) == 0
    assert "N=3, eps=0.35\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "given, parsed",
    [
        ({"mu": 2}, {"mu": 2.0}),
        ({"nodes_per_width": 40}, {"nodes_per_width": 40.0}),
        ({"max_iters": 50.0}, {"max_iters": 50}),
    ],
)
def test_config_hash_does_not_depend_on_a_knob_python_type(given, parsed):
    # a library caller's value and the same value as its flag parses it
    a = ExperimentConfig(graph="tripod", peaks=("c",), **given)
    b = ExperimentConfig(graph="tripod", peaks=("c",), **parsed)
    assert a.config_hash() == b.config_hash()
    [(name, value)] = parsed.items()
    assert type(getattr(a, name)) is type(value)


def test_every_scalar_config_field_reaches_the_config_through_its_flag(
    tmp_path, monkeypatch
):
    # the scalar flags are generated from the config's fields, so a knob
    # added to SolveConfig gets its flag without anyone writing one
    monkeypatch.chdir(tmp_path)
    handed = []
    monkeypatch.setattr(cli, "cmd_solve", lambda cfg: handed.append(cfg) or 0)
    checked = []
    for f in fields(ExperimentConfig):
        if f.type not in ("float", "int", "str"):
            continue
        # a valid value other than the default, where there is one
        if f.type == "float":
            value = f.default / 2.0
        elif f.type == "int":
            value = f.default + 1
        else:
            value = {"seed": "ansatz"}.get(f.name, "other")
        assert value != f.default, f.name
        flag = "--" + f.name.replace("_", "-")
        argv = ["solve", "--graph", "tripod", "--peak", "c", flag, str(value)]
        try:
            rc = main(argv)
        except SystemExit:
            pytest.fail(f"solve has no flag {flag} for the field {f.name}")
        checked.append(f.name)
        assert rc == 0, f.name
        assert getattr(handed[-1], f.name) == value, f.name
    assert len(handed) == len(checked)
    assert {"mu", "max_iters", "seed", "outdir"} <= set(checked)
