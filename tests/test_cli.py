"""Command line entry points, artifacts, determinism, and error records."""

import json

import pytest

from graphnls.cli import ExperimentConfig, main

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


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("GRAPHNLS_OUTDIR", raising=False)


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
    # every knob is echoed with its resolved value
    cfg = manifest["config"]
    for key in (
        "graph",
        "peaks",
        "mu",
        "alpha",
        "coeffs",
        "lambdas",
        "nodes_per_width",
        "newton_tol",
        "max_iters",
        "damping",
        "refinement_growth",
        "seed",
        "cutoff",
        "outdir",
    ):
        assert key in cfg
    assert cfg["mu"] == 1.0 and cfg["seed"] == "previous"
    assert not (out / "error.json").exists()


def test_solve_output_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(FAST_SOLVE + ["--outdir", str(out1)]) == 0
    assert main(FAST_SOLVE + ["--outdir", str(out2)]) == 0
    assert (out1 / "diagnostics.csv").read_bytes() == (
        out2 / "diagnostics.csv"
    ).read_bytes()
    state = "state_lam50/e1.txt"
    assert (out1 / state).read_bytes() == (out2 / state).read_bytes()


def test_environment_variable_overrides_outdir(tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    ignored = tmp_path / "ignored"
    monkeypatch.setenv("GRAPHNLS_OUTDIR", str(env_dir))
    rc = main(FAST_SOLVE + ["--outdir", str(ignored)])
    assert rc == 0
    assert (env_dir / "diagnostics.csv").exists()
    assert not ignored.exists()


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


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--mu", "0", "mu must be positive"),
        ("--nodes-per-width", "0", "nodes_per_width must be positive"),
        ("--lambdas", ",", "lambda schedule is empty"),
        ("--lambdas", "inf", "lambda shifts must be positive and finite"),
        ("--max-iters", "-1", "max_iters must be >= 0"),
    ],
)
def test_solve_rejects_invalid_knobs_before_any_work(
    tmp_path, capsys, flag, value, message
):
    out = tmp_path / "bad"
    argv = ["solve", "--graph", "tripod", "--peak", "c", flag, value]
    rc = main(argv + ["--outdir", str(out)])
    assert rc == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert message in record["message"]
    # validation comes first: nothing but the error record is written
    assert [p.name for p in out.iterdir()] == ["error.json"]
    assert "error: ValueError" in capsys.readouterr().err


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


def test_reduced_energy_input_validation(capsys):
    assert main(["reduced-energy", "1"]) == 1
    assert main(["reduced-energy", "3", "--eps", "-0.1"]) == 1
    err = capsys.readouterr().err
    assert "N must be >= 2" in err
    assert "eps must be positive" in err


def test_verify_subset_passes(capsys):
    rc = main(["verify", "--criteria", "2,3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "criterion 2" in out and "PASS" in out
    assert "criterion 3" in out
    assert "FAIL" not in out


def test_verify_coarse_mesh_fails_by_design(capsys):
    # spacings far above the peak width must break the convergence factors
    rc = main(["verify", "--criteria", "9", "--coarse"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "criterion 9" in out and "FAIL" in out


def test_verify_skips_outside_hypotheses(capsys):
    rc = main(["verify", "--criteria", "2,4", "--peak-degree", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "SKIP" in out
    assert "outside the odd-degree hypotheses" in out


def test_experiment_config_hash_ignores_outdir():
    a = ExperimentConfig(graph="tripod", peaks=("c",), outdir="x")
    b = ExperimentConfig(graph="tripod", peaks=("c",), outdir="y")
    c = ExperimentConfig(graph="tripod", peaks=("c",), mu=2.0)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    with pytest.raises(ValueError):
        ExperimentConfig(graph="tripod", peaks=())
    with pytest.raises(ValueError):
        ExperimentConfig(graph="tripod", peaks=("c",), lambdas=(50.0, 25.0))
