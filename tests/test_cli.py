"""Command-line surface: dispatch, exit codes, report determinism."""

import errno
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parhodge
from parhodge import cli, modelmetric
from parhodge.cartan import build_root_datum, in_A_prime
from parhodge.cli import _render, _write_file, cli_dispatch, main
from parhodge.nahodge import hitchin_section, monodromy_factors
from parhodge.parhiggs import ParabolicHiggsData, Puncture, to_json

WALL_DATA = to_json(hitchin_section("SL2R", 0, 3))


def canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def run_cli(tmp_path, command, payload=None, extra=(), raw=None):
    """Dispatch one command with the payload written to a temp input file."""
    source = tmp_path / "input.json"
    source.write_text(raw if raw is not None else json.dumps(payload))
    out = tmp_path / "report.json"
    code, report = cli_dispatch(
        [command, "--input", str(source), "--output", str(out), *extra]
    )
    assert json.loads(out.read_text()) == report
    return code, report


def split_bundle(degrees, genus=1, weights=((0, 0),)) -> dict:
    punctures = [
        Puncture(weight=tuple(Fraction(w) for w in ws), laurent=(), flag=None)
        for ws in weights
    ]
    data = ParabolicHiggsData(
        genus=genus,
        realization="SU(1,1)",
        punctures=tuple(punctures),
        summand_degrees=tuple(Fraction(d) for d in degrees),
        summand_ranks=(1, 1),
        c=(Fraction(0), Fraction(0)),
    )
    return to_json(data)


def test_rootsys_exact_tables(tmp_path):
    code, report = run_cli(tmp_path, "rootsys", {"cartan_type": "A", "rank": 2})
    assert code == 0
    assert report["exit_code"] == 0
    assert report["outputs"]["simple_roots"]["value"] == [[2, -1], [-1, 2]]
    assert report["outputs"]["simple_roots"]["method"] == "exact root-system arithmetic"
    assert report["input_digest"].startswith("sha256:")


def test_report_header_lists_convention_defaults(tmp_path):
    _, report = run_cli(tmp_path, "rootsys", {"cartan_type": "A", "rank": 1})
    conventions = report["conventions"]
    assert set(conventions) == {"alcove", "monodromy_scale", "toledo_normalization"}
    assert conventions["monodromy_scale"] == "2pi_i"
    assert "alcove" in conventions["alcove"] or "affine-Weyl" in conventions["alcove"]


def test_alcove_normalize_membership(tmp_path):
    code, report = run_cli(
        tmp_path,
        "alcove-normalize",
        {"cartan_type": "C", "rank": 2, "point": ["7/3", "5/2"]},
    )
    assert code == 0
    outputs = report["outputs"]
    assert outputs["normalized"]["value"] == ["1/3", "1/2"]
    assert outputs["membership"] == "interior"


@pytest.mark.parametrize(
    "cartan_type, point",
    [
        ("A", ["400001/2"]),  # used to exit 1 after 5 s of affine reflections
        ("B", [f"{10**6 + 37 * i}/{3 + i % 5}" for i in range(12)]),
    ],
)
def test_alcove_normalize_far_point_is_fast(tmp_path, cartan_type, point):
    rd = build_root_datum(cartan_type, len(point))  # built outside the timed call
    start = time.perf_counter()
    code, report = run_cli(
        tmp_path, "alcove-normalize", {"cartan_type": cartan_type, "rank": len(point), "point": point}
    )
    assert time.perf_counter() - start < 1
    assert code == 0
    outputs = report["outputs"]
    k = outputs["k"]["value"]
    lam, normalized = (
        [Fraction(x) for x in outputs[key]["value"]] for key in ("lattice_vector", "normalized")
    )
    assert normalized == [k * Fraction(x) + l for x, l in zip(point, lam)]
    assert in_A_prime(rd, normalized)
    assert all(l.denominator == 1 for l in lam)  # the coroot lattice, in simple-coroot coordinates


def test_parabolic_dimensions(tmp_path):
    code, report = run_cli(
        tmp_path,
        "parabolic",
        {"realization": "GL(3,C)", "s": [[1, 0, 0], [0, 0, 0], [0, 0, -1]]},
    )
    assert code == 0
    outputs = report["outputs"]
    assert outputs["dim_p"]["value"] == 6
    assert outputs["dim_l"]["value"] == 3
    assert outputs["dim_n"]["value"] == 3


def test_degree_relative_commuting_pair_exact(tmp_path):
    code, report = run_cli(
        tmp_path,
        "degree-relative",
        {"s": [[0.5, 0], [0, -0.5]], "sigma": [[0.5, 0], [0, -0.5]]},
    )
    assert code == 0
    assert report["outputs"]["value"]["value"] == pytest.approx(0.5, abs=1e-12)
    assert report["outputs"]["value"]["method"] == "commuting"
    assert report["outputs"]["converged"] is True


def test_degree_relative_sample_reciprocity(tmp_path):
    code, report = run_cli(
        tmp_path,
        "degree-relative",
        {"sample": {"model": "SU(1,1)", "count": 10}},
        extra=["--seed", "11"],
    )
    assert code == 0
    assert report["outputs"]["max_reciprocity_gap"]["value"] < 1e-6
    assert report["seed"] == 11


def test_degree_parabolic_wall_line(tmp_path):
    code, report = run_cli(
        tmp_path,
        "degree-parabolic",
        {"data": WALL_DATA, "chi": [1, 0], "label": "line"},
    )
    assert code == 0
    assert report["outputs"]["pardeg"]["value"] == "1/2"
    assert report["outputs"]["pardeg"]["method"] == "exact double-filtration pairing"


def test_stability_wall_instance_stable(tmp_path):
    code, report = run_cli(
        tmp_path,
        "stability",
        {
            "data": WALL_DATA,
            "reductions": [
                {"label": "split", "chi": [1, -1]},
                {"label": "center", "chi": [1, 1]},
            ],
        },
    )
    assert code == 0
    assert report["outputs"]["verdict"] == "stable"
    rows = {row["label"]: row["slope"]["value"] for row in report["outputs"]["slope_table"]}
    assert rows == {"split": 1, "center": 0}


def test_stability_unstable_exits_2(tmp_path):
    code, report = run_cli(
        tmp_path,
        "stability",
        {
            "data": split_bundle((2, -2)),
            "reductions": [{"label": "neg-line", "chi": [0, 1]}],
        },
    )
    assert code == 2
    assert report["outputs"]["verdict"] == "unstable"
    assert report["outputs"]["witness"] == "neg-line"


def test_genericity_exit_codes(tmp_path):
    code, report = run_cli(
        tmp_path, "genericity", {"weights": [[0, "1/2"], ["1/4", "3/4"]]}
    )
    assert code == 2
    assert report["outputs"]["generic"] is False
    code, report = run_cli(
        tmp_path, "genericity", {"weights": [["1/7", "2/7"], ["1/5", "3/5"]]}
    )
    assert code == 0
    assert report["outputs"]["generic"] is True


def test_hecke_inverse_restores_document_bytes(tmp_path):
    code, forward = run_cli(
        tmp_path, "hecke", {"data": WALL_DATA, "lambdas": [[1, -2], [0, 3], [2, 2]]}
    )
    assert code == 0
    assert forward["outputs"]["data"] != WALL_DATA
    code, back = run_cli(
        tmp_path,
        "hecke",
        {"data": forward["outputs"]["data"], "lambdas": [[-1, 2], [0, -3], [-2, -2]]},
    )
    assert code == 0
    assert canon(back["outputs"]["data"]) == canon(WALL_DATA)


def test_gr_res_reads_wall_residue(tmp_path):
    code, report = run_cli(tmp_path, "gr-res", {"data": WALL_DATA, "puncture": 0})
    assert code == 0
    assert report["outputs"]["nilpotent"]["value"] == [
        [[0.0, 0.0], [0.0, 0.0]],
        [[1.0, 0.0], [0.0, 0.0]],
    ]


def test_ks_orbit_signs(tmp_path):
    code, plus = run_cli(
        tmp_path, "ks-orbit", {"realization": "SL(2,R)", "e": [[0, 1], [0, 0]]}
    )
    _, minus = run_cli(
        tmp_path, "ks-orbit", {"realization": "SL(2,R)", "e": [[0, -1], [0, 0]]}
    )
    assert code == 0
    assert plus["outputs"]["rank_sequence"]["value"] == [1, 0]
    assert plus["outputs"]["component_signs"]["value"] != minus["outputs"]["component_signs"]["value"]


def test_translate_round_trip_preserves_certificate(tmp_path):
    code, forward = run_cli(
        tmp_path,
        "translate-h2l",
        {
            "realization": "SU(1,1)",
            "alpha": [0, 0],
            "s": [[0, 0], [0, 0]],
            "y": [[0, 0], [1, 0]],
        },
    )
    assert code == 0
    entry = forward["outputs"]["entry"]
    assert entry["schema"] == "dictionary-v1"
    code, back = run_cli(
        tmp_path,
        "translate-l2h",
        {
            "realization": "SU(1,1)",
            "monodromy": entry["local"]["monodromy"],
            "beta": entry["local"]["beta"],
        },
    )
    assert code == 0
    assert back["outputs"]["entry"]["certificate"] == entry["certificate"]
    assert back["outputs"]["entry"]["higgs"]["alpha"] == [0.0, 0.0]


def test_hitchin_section_then_stability_pipeline(tmp_path):
    code, report = run_cli(
        tmp_path, "hitchin-section", {"mode": "SL2R", "genus": 0, "n_punctures": 3}
    )
    assert code == 0
    assert report["outputs"]["degrees"]["value"] == [-1, 1]
    code, verdict = run_cli(
        tmp_path,
        "stability",
        {
            "data": report["outputs"]["data"],
            "reductions": [{"label": "split", "chi": [1, -1]}],
        },
    )
    assert code == 0
    assert verdict["outputs"]["verdict"] == "stable"


def test_toledo_value(tmp_path):
    code, report = run_cli(tmp_path, "toledo", {"data": WALL_DATA})
    assert code == 0
    assert report["outputs"]["tau"]["value"] == 1


def test_mw_check_violation_exits_2(tmp_path):
    code, report = run_cli(tmp_path, "mw-check", {"data": split_bundle((3, -3))})
    assert code == 2
    assert report["outputs"]["ok"] is False
    assert report["outputs"]["tau"]["value"] == 6
    assert report["outputs"]["side"] == "upper"
    code, report = run_cli(tmp_path, "mw-check", {"data": WALL_DATA})
    assert code == 0
    assert report["outputs"]["ok"] is True


def test_verify_model_table_and_csv(tmp_path):
    csv_path = tmp_path / "table.csv"
    code, report = run_cli(
        tmp_path,
        "verify-model",
        {
            "realization": "SU(1,1)",
            "alpha": [0, 0],
            "y": [[0, 0], [1, 0]],
            "grid": {"r_max": 1e-2, "r_min": 1e-4, "count": 3},
        },
        extra=["--csv", str(csv_path)],
    )
    assert code == 0
    table = report["outputs"]["table"]
    assert len(table) == 3
    devs = [row["holonomy_deviation"] for row in table]
    assert devs == sorted(devs, reverse=True)
    assert all(row["rho"] < 1e-12 for row in table)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "r,rho,holonomy_deviation"
    for line, row in zip(lines[1:], table):
        r_text, rho_text, dev_text = line.split(",")
        assert float(r_text) == row["r"]
        assert float(rho_text) == row["rho"]
        assert float(dev_text) == row["holonomy_deviation"]


def test_verify_model_coarse_fd_exits_4(tmp_path):
    code, report = run_cli(
        tmp_path,
        "verify-model",
        {
            "realization": "SU(1,1)",
            "alpha": [0, 0],
            "y": [[0, 0], [1, 0]],
            "fd_step": 0.5,
            "grid": {"r_max": 1e-2, "r_min": 1e-4, "count": 2},
        },
    )
    assert code == 4
    assert report["error"]["type"] == "GridTooCoarse"


def test_malformed_json_exits_3_with_location(tmp_path):
    code, report = run_cli(tmp_path, "stability", raw="{not json")
    assert code == 3
    assert report["error"]["type"] == "SchemaError"
    assert "line 1" in report["error"]["location"]


def test_missing_field_reports_location(tmp_path):
    code, report = run_cli(
        tmp_path,
        "translate-h2l",
        {"realization": "SU(1,1)", "alpha": [0, 0], "s": [[0, 0], [0, 0]]},
    )
    assert code == 3
    assert report["error"]["location"] == "$.y"


def test_bad_convention_reports_location(tmp_path):
    code, report = run_cli(
        tmp_path,
        "translate-l2h",
        {"realization": "SU(1,1)", "monodromy": [[1, 0], [0, 1]], "convention": "tau"},
    )
    assert code == 3
    assert report["error"]["location"] == "$.convention"


def test_missing_input_exits_3():
    code, report = cli_dispatch(["rootsys"])
    assert code == 3
    assert "requires --input" in report["error"]["message"]


def test_unknown_command_exits_3():
    code, report = cli_dispatch(["no-such-command"])
    assert code == 3
    assert report["error"]["type"] == "UsageError"


def test_unreadable_input_exits_3(tmp_path):
    code, report = cli_dispatch(
        ["rootsys", "--input", str(tmp_path / "missing.json")]
    )
    assert code == 3
    assert report["error"]["type"] == "FileNotFoundError"


def test_reports_are_byte_deterministic(tmp_path):
    source = tmp_path / "input.json"
    source.write_text(
        json.dumps({"data": WALL_DATA, "reductions": [{"label": "split", "chi": [1, -1]}]})
    )
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        code, _ = cli_dispatch(
            ["stability", "--input", str(source), "--output", str(out), "--seed", "3"]
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_verify_model_reports_are_byte_deterministic(tmp_path):
    payload = {
        "realization": "SU(1,1)",
        "alpha": ["1/2", "-1/2"],
        "y": [[0, 0], [1, 0]],
        "grid": {"r_max": 1e-2, "r_min": 1e-6, "count": 5},
        "extra_terms": [[1, [[0, 0.5], [0, 0]]], [2, [[0.1, 0], [0, -0.1]]]],
    }
    source = tmp_path / "input.json"
    source.write_text(json.dumps(payload))
    renders = []
    for out in ("a.json", "b.json"):
        path = tmp_path / out
        code, _ = cli_dispatch(["verify-model", "--input", str(source), "--output", str(path)])
        assert code == 0
        renders.append(path.read_bytes())
    assert renders[0] == renders[1]


def test_sampled_reports_are_seed_deterministic(tmp_path):
    source = tmp_path / "input.json"
    source.write_text(json.dumps({"sample": {"model": "GL(2,C)", "count": 6}}))
    renders = []
    for out in ("a.json", "b.json"):
        path = tmp_path / out
        code, _ = cli_dispatch(
            ["degree-relative", "--input", str(source), "--output", str(path), "--seed", "5"]
        )
        assert code == 0
        renders.append(path.read_bytes())
    assert renders[0] == renders[1]


def test_main_returns_exit_code(tmp_path, capsys):
    source = tmp_path / "input.json"
    source.write_text(json.dumps({"cartan_type": "A", "rank": 1}))
    assert main(["rootsys", "--input", str(source)]) == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["command"] == "rootsys"


def child_env() -> dict:
    """Environment in which a child process imports the same parhodge package as
    these tests, installed or not."""
    src = str(Path(parhodge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_entry_point_subprocess(tmp_path):
    source = tmp_path / "input.json"
    source.write_text(json.dumps({"cartan_type": "A", "rank": 2}))
    proc = subprocess.run(
        [sys.executable, "-m", "parhodge.cli", "rootsys", "--input", str(source)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["outputs"]["rank"] == 2


GRID = {"r_max": 1e-2, "r_min": 1e-4, "count": 2}
VERIFY_MODEL = {"realization": "SU(1,1)", "alpha": [0, 0], "y": [[0, 0], [1, 0]], "grid": GRID}
DIAG = [[1, 0], [0, -1]]
H2L = {"realization": "SU(1,1)", "alpha": [0, 0], "s": [[0, 0], [0, 0]], "y": [[0, 0], [1, 0]]}


@pytest.mark.parametrize(
    "command, payload, location",
    [
        ("gr-res", {"data": WALL_DATA, "puncture": 7}, "$.puncture"),
        ("gr-res", {"data": WALL_DATA, "puncture": -1}, "$.puncture"),
        ("mw-check", {"data": WALL_DATA, "rank_plus": "x"}, "$.rank_plus"),
        ("verify-model", {**VERIFY_MODEL, "grid": {**GRID, "r_max": None}}, "$.grid.r_max"),
        ("verify-model", {**VERIFY_MODEL, "grid": {**GRID, "r_max": [1]}}, "$.grid.r_max"),
        ("verify-model", {**VERIFY_MODEL, "fd_step": [1]}, "$.fd_step"),
        ("verify-model", {**VERIFY_MODEL, "alpha": ["1/0", 0]}, "$.alpha[0]"),
        ("verify-model", {**VERIFY_MODEL, "alpha": [0, "abc"]}, "$.alpha[1]"),
        ("parabolic", {"realization": "GL(2,C)", "s": DIAG, "space": [1]}, "$.space"),
        ("degree-relative", {"sample": {"model": "SU(1,1)", "count": -5}}, "$.sample.count"),
        (
            "alcove-normalize",
            {"cartan_type": "A", "rank": 2, "point": [0, 0], "search_bound": -3},
            "$.search_bound",
        ),
        ("degree-relative", {"s": [[[True, 0], 0], [0, 0]], "sigma": DIAG}, "$.s[0][0]"),
        ("degree-relative", {"s": [[float("nan"), 0], [0, 0]], "sigma": DIAG}, "$.s[0][0]"),
        ("degree-relative", {"s": DIAG, "sigma": [[1, 0], [0, [0, "x"]]]}, "$.sigma[1][1]"),
        ("degree-relative", {"s": [[1, 0], 3], "sigma": DIAG}, "$.s[1]"),
        (
            "translate-l2h",
            {"realization": "SU(1,1)", "monodromy": [[1, [0, float("inf")]], [0, 1]]},
            "$.monodromy[0][1][1]",
        ),
        ("translate-l2h", {"realization": "x", "monodromy": DIAG}, "$.realization"),
        ("degree-relative", {"sample": {"model": "x", "count": 1}}, "$.sample.model"),
        ("rootsys", {"cartan_type": "x", "rank": 2}, "$.cartan_type"),
        ("rootsys", {"cartan_type": "A", "rank": 2, "lattice": "x"}, "$.lattice"),
        ("rootsys", {"cartan_type": "D", "rank": 2}, "$.rank"),
        ("rootsys", {"cartan_type": "A", "rank": 65}, "$.rank"),
        ("hecke", {"data": WALL_DATA, "lambdas": [[0, 0]] * 3, "lattice": "x"}, "$.lattice"),
        ("verify-model", {**VERIFY_MODEL, "grid": {**GRID, "r_min": 0.5}}, "$.grid"),
        ("verify-model", {**VERIFY_MODEL, "grid": {**GRID, "count": 1}}, "$.grid"),
        ("stability", {"data": WALL_DATA, "mode": "x"}, "$.mode"),
        ("hitchin-section", {"mode": "x", "genus": 0, "n_punctures": 3}, "$.mode"),
        # every matrix and weight is checked against the realization's rank before any work
        ("translate-h2l", {**H2L, "realization": "SU(2,1)"}, "$.alpha"),
        ("translate-h2l", {**H2L, "realization": "SU(2,1)", "alpha": [0, 0, 0]}, "$.s"),
        ("translate-h2l", {**H2L, "y": [[0, 0, 0], [1, 0, 0], [0, 0, 0]]}, "$.y"),
        ("translate-l2h", {"realization": "SU(2,1)", "monodromy": DIAG}, "$.monodromy"),
        ("translate-l2h", {"realization": "SU(1,1)", "monodromy": DIAG, "beta": [[0]]}, "$.beta"),
        ("verify-model", {**VERIFY_MODEL, "alpha": [0, 0, 0]}, "$.alpha"),
        ("verify-model", {**VERIFY_MODEL, "s": [[0]]}, "$.s"),
        ("verify-model", {**VERIFY_MODEL, "y": [[0, 0, 0]] * 3}, "$.y"),
        ("verify-model", {**VERIFY_MODEL, "extra_terms": [[1, DIAG], [1, [[0]]]]}, "$.extra_terms[1][1]"),
        ("verify-model", {**VERIFY_MODEL, "extra_terms": [[1, DIAG], [0, DIAG]]}, "$.extra_terms[1][0]"),
        ("verify-model", {**VERIFY_MODEL, "fd_step": 5.0}, "$.fd_step"),
        ("verify-model", {**VERIFY_MODEL, "fd_step": 1}, "$.fd_step"),
        ("verify-model", {**VERIFY_MODEL, "realization": "GL(0,C)", "alpha": []}, "$.realization"),
        ("parabolic", {"realization": "GL(0,C)", "s": DIAG}, "$.realization"),
        ("parabolic", {"realization": "GL(20,C)", "s": DIAG}, "$.s"),
        ("parabolic", {"realization": "GL(2,C)", "s": DIAG, "space": "x"}, "$.space"),
        ("ks-orbit", {"realization": "SL(3,R)", "e": [[0, 1], [0, 0]]}, "$.e"),
        ("degree-relative", {"s": [[0, 1]], "sigma": DIAG}, "$.s"),
        ("degree-relative", {"s": DIAG, "sigma": [[1, 0, 0]] * 3}, "$.sigma"),
        ("degree-relative", {"sample": {"model": "GL(0,C)", "count": 1}}, "$.sample.model"),
        # without a signature the Toledo pairing reads the data's own label
        ("toledo", {"data": {**WALL_DATA, "realization": "x"}}, "$.data.realization"),
        ("mw-check", {"data": {**WALL_DATA, "realization": "x"}}, "$.data.realization"),
        ("genericity", {"weights": [["1/3"]], "max_combinations": 0}, "$.max_combinations"),
        ("genericity", {"weights": [["1/3"]], "max_combinations": -5}, "$.max_combinations"),
    ],
)
def test_hostile_field_exits_3_with_location(tmp_path, command, payload, location):
    code, report = run_cli(tmp_path, command, payload)
    assert code == 3
    assert report["error"]["type"] == "SchemaError"
    assert report["error"]["location"] == location


@pytest.mark.parametrize(
    "s, location",
    [
        # Im s00 = 100: the hyperbolic factor exp(2 pi i (s^H - s)) overflows
        ([[[0, 100], 0], [0, 0]], "$.outputs.table[0].holonomy_deviation"),
        ([[1e300, 0], [0, 0]], "$.outputs.table[0].rho"),  # the residual overflows
    ],
)
def test_non_finite_output_exits_4(tmp_path, s, location):
    payload = {"realization": "GL(2,C)", "alpha": [0, 0], "s": s, "grid": GRID}
    csv_path = tmp_path / "table.csv"
    with np.errstate(all="ignore"):
        code, report = run_cli(tmp_path, "verify-model", payload, extra=["--csv", str(csv_path)])
    assert code == 4
    assert not csv_path.exists()  # no table of NaN rows beside a failed report
    assert report["error"] == {
        "type": "NumericallyDefective",
        "message": f"non-finite number at {location}",
    }
    json.dumps(report, allow_nan=False)  # the report is JSON


@pytest.mark.parametrize(
    "weights, location",
    [
        ([["1/3", "1/5", "1/7"], ["1/11"]], "$.weights[1]"),  # used to escape as an IndexError
        ([["1/3", "1/5"], ["1/7", "1/11", "1/13"]], "$.weights[1]"),  # used to be cut to n = 2
        ([[]], "$.weights[0]"),  # used to report a det wall
        ([[f"1/{q}" for q in range(2, 152)]], "$.weights"),  # C(150,3) is over the budget
    ],
)
def test_hostile_weight_rows_exit_3_with_the_same_bytes(tmp_path, weights, location):
    reports = []
    for _ in range(2):
        start = time.perf_counter()
        code, report = run_cli(tmp_path, "genericity", {"weights": weights})
        assert time.perf_counter() - start < 0.1
        assert code == 3
        assert report["error"]["type"] == "SchemaError"
        assert report["error"]["location"] == location
        reports.append((tmp_path / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_hecke_at_rank_41_builds_no_root_datum(tmp_path):
    from parhodge import cartan

    n = 41
    data = ParabolicHiggsData(
        genus=0,
        realization=f"GL({n},C)",
        punctures=(Puncture(weight=(Fraction(0),) * n),),
        summand_degrees=(Fraction(0),) * n,
        summand_ranks=(1,) * n,
        c=(Fraction(0),) * n,
    )
    # entries all 1/41 mod 1 and sum 2: in the adjoint lattice, not in the simply-connected one
    shift = [str(Fraction(1, n) + (k == 0)) for k in range(n)]
    before = dict(cartan._ROOT_DATA)
    for lattice, expect in (("adjoint", 0), ("simply_connected", 3)):
        payload = {"data": to_json(data), "lambdas": [shift], "lattice": lattice}
        start = time.perf_counter()
        code, report = run_cli(tmp_path, "hecke", payload)
        assert time.perf_counter() - start < 0.1
        assert code == expect, report.get("error")
    assert report["error"]["type"] == "NotInLattice"
    assert cartan._ROOT_DATA == before


@pytest.mark.parametrize(
    "options",
    [["--out", "report.json"], ["--in", "input.json"], ["--tol", "1e-3"]],
)
def test_abbreviated_option_exits_3(tmp_path, options):
    # "--out" would otherwise be taken for --output and echoed into the report
    source = tmp_path / "input.json"
    source.write_text(json.dumps({"cartan_type": "A", "rank": 2}))
    options = [str(tmp_path / value) if value.endswith(".json") else value for value in options]
    code, report = cli_dispatch(["rootsys", "--input", str(source), *options])
    assert code == 3
    assert report["error"]["type"] == "UsageError"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
@pytest.mark.parametrize(
    "command, payload",
    [
        ("parabolic", {"realization": "GL(2,C)", "s": [[1, 0], [0, -1]]}),
        ("degree-relative", {"s": [[1, 0], [0, -1]], "sigma": [[0, 1], [1, 0]]}),
    ],
)
def test_non_finite_or_non_positive_tolerance_exits_3(tmp_path, command, payload, value):
    source = tmp_path / "input.json"
    source.write_text(json.dumps(payload))
    out = tmp_path / "report.json"
    argv = [command, "--input", str(source), "--output", str(out)]
    code, report = cli_dispatch([*argv, f"--tolerance={value}"])
    assert code == 3
    assert report["error"]["type"] == "UsageError"
    assert "finite number > 0" in report["error"]["message"]
    assert not out.exists()
    assert cli_dispatch([*argv, "--tolerance=1e-9"])[0] == 0


def test_parser_reuse_keeps_no_option_from_an_earlier_call(tmp_path):
    def dispatch(command, payload, *options):
        source = tmp_path / f"{command}.json"
        source.write_text(json.dumps(payload))
        out = str(tmp_path / "out.json")
        return cli_dispatch([command, "--input", str(source), "--output", out, *options])

    rootsys = {"cartan_type": "A", "rank": 2}
    assert dispatch("rootsys", rootsys, "--seed", "5")[1]["seed"] == 5
    assert dispatch("rootsys", rootsys)[1]["seed"] is None

    table = tmp_path / "table.csv"
    dispatch("verify-model", VERIFY_MODEL, "--csv", str(table))
    assert table.exists()
    table.unlink()
    dispatch("verify-model", VERIFY_MODEL)
    assert not table.exists()


def test_usage_error_between_calls_leaves_reports_unchanged(tmp_path):
    source = tmp_path / "input.json"
    source.write_text(
        json.dumps({"data": WALL_DATA, "reductions": [{"label": "split", "chi": [1, -1]}]})
    )
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_dispatch(["stability", "--input", str(source), "--output", str(out_a)])[0] == 0
    assert cli_dispatch(["stability", "--input", str(source), "--no-such-option"])[0] == 3
    assert cli_dispatch(["stability", "--input", str(source), "--output", str(out_b)])[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()


J3 = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
GL3_NILPOTENT = {"realization": "GL(3,C)", "alpha": [0, 0, 0], "s": [[0] * 3] * 3}


def certificate_of(report: dict):
    """(rank_sequence, component_signs) as ks-orbit or translate-h2l report them."""
    outputs = report["outputs"]
    if report["command"] == "ks-orbit":
        return outputs["rank_sequence"]["value"], outputs["component_signs"]["value"]
    if report["command"] == "translate-h2l":
        cert = outputs["entry"]["certificate"]
        return cert["rank_sequence"], cert["component_signs"]
    return None


@pytest.mark.parametrize("scale", [1e-15, 1e-12, 1e-8, 1, 1e8])
@pytest.mark.parametrize(
    "command, payload, key, nilpotent, certificate",
    [
        ("ks-orbit", {"realization": "SL(3,R)"}, "e", J3, ([2, 1, 0], None)),
        ("ks-orbit", {"realization": "SL(2,R)"}, "e", [[0, 1], [0, 0]], ([1, 0], [1])),
        ("translate-h2l", GL3_NILPOTENT, "y", J3, ([2, 1, 0], None)),
        ("verify-model", {**GL3_NILPOTENT, "grid": GRID}, "y", J3, None),
    ],
)
def test_nilpotent_scale_does_not_change_the_outcome(
    tmp_path, scale, command, payload, key, nilpotent, certificate
):
    scaled = [[scale * x for x in row] for row in nilpotent]
    code, report = run_cli(tmp_path, command, {**payload, key: scaled})
    assert code == 0, report.get("error")
    assert certificate_of(report) == certificate
    if command == "verify-model":
        unit = run_cli(tmp_path, command, {**payload, key: nilpotent})[1]["outputs"]["table"]
        table = report["outputs"]["table"]
        assert len(table) == len(unit)
        for row, unit_row in zip(table, unit):
            assert row == pytest.approx(unit_row, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n", [16, 20])
def test_long_jordan_block_outcome_does_not_depend_on_scale(tmp_path, n):
    def outcome(command, payload, key, scale):
        block = [[scale if j == i + 1 else 0 for j in range(n)] for i in range(n)]
        code, report = run_cli(tmp_path, command, {**payload, key: block})
        if code:
            return code, report["error"]["type"], None
        return code, None, certificate_of(report)

    scales = (1e-8, 1, 1e8)
    ks = [outcome("ks-orbit", {"realization": f"SL({n},R)"}, "e", c) for c in scales]
    assert ks == [(0, None, (list(range(n - 1, -1, -1)), None))] * 3
    payload = {"realization": f"GL({n},C)", "alpha": [0] * n, "s": [[0] * n] * n}
    h2l = [outcome("translate-h2l", payload, "y", c) for c in scales]
    assert h2l == [h2l[1]] * 3


def test_ks_orbit_reads_a_tiny_nilpotent_as_nonzero(tmp_path):
    tiny = [[1e-15 * x for x in row] for row in J3]
    code, report = run_cli(tmp_path, "ks-orbit", {"realization": "SL(3,R)", "e": tiny})
    assert code == 0
    assert certificate_of(report) == ([2, 1, 0], None)


CYCLE16 = [[1 if j == (i + 1) % 16 else 0 for j in range(16)] for i in range(16)]


@pytest.mark.parametrize(
    "label, e",
    [
        # (e / ||e||)^2 = 5e-9 * I passes the power test of nilpotency, but
        # its ranks (2, 2) belong to no nilpotent orbit
        ("SL(2,R)", [[0, 1], [5e-9, 0]]),
        # a 16-cycle permutation: (e / ||e||_F)^16 = 4^-16 * I
        ("SL(16,R)", CYCLE16),
    ],
)
def test_ks_orbit_refuses_a_near_nilpotent_with_no_orbit(tmp_path, label, e):
    code, report = run_cli(tmp_path, "ks-orbit", {"realization": label, "e": e})
    assert code == 3
    assert report["error"]["type"] == "NotNilpotent"


def test_ks_orbit_builds_no_triple(tmp_path, monkeypatch):
    from parhodge import liealg

    calls = []
    for name in ("_exp_hermitian", "_exp_nilpotent", "jacobson_morozov"):
        monkeypatch.setattr(liealg, name, lambda *args, _name=name, **kwargs: calls.append(_name))
    principal = [[1 if j == i + 1 else 0 for j in range(4)] for i in range(4)]
    code, report = run_cli(tmp_path, "ks-orbit", {"realization": "SL(4,R)", "e": principal})
    assert code == 0
    assert certificate_of(report) == ([3, 2, 1, 0], None)
    assert calls == []


# one valid input per command, optional fields included so that they get mutated too
VALID_INPUTS = {
    "rootsys": {"cartan_type": "A", "rank": 2, "lattice": "adjoint"},
    "alcove-normalize": {"cartan_type": "C", "rank": 2, "point": ["7/3", "5/2"], "search_bound": 8},
    "parabolic": {
        "realization": "GL(3,C)",
        "s": [[1, 0, 0], [0, 0, 0], [0, 0, -1]],
        "space": "g^C",
    },
    "degree-relative": {"s": [[0.5, 0], [0, -0.5]], "sigma": [[0.5, 0], [0, -0.5]]},
    "degree-parabolic": {"data": WALL_DATA, "chi": [1, 0], "label": "line", "degree": 0},
    "stability": {
        "data": WALL_DATA,
        "mode": "certificate",
        "reductions": [
            {"label": "split", "chi": [1, -1], "phi_compatible": True, "levi_reduction": False}
        ],
        "degree_bound": 3,
    },
    "genericity": {"weights": [[0, "1/2"], ["1/4", "3/4"]], "max_combinations": 100},
    "hecke": {"data": WALL_DATA, "lambdas": [[1, -2], [0, 3], [2, 2]], "lattice": "GL"},
    "gr-res": {"data": WALL_DATA, "puncture": 0},
    "ks-orbit": {"realization": "SL(2,R)", "e": [[0, 1], [0, 0]]},
    "translate-h2l": {
        "realization": "SU(1,1)",
        "alpha": [0, 0],
        "s": [[0, 0], [0, 0]],
        "y": [[0, 0], [1, 0]],
        "convention": "2pi_i",
    },
    "translate-l2h": {
        "realization": "SU(1,1)",
        "monodromy": [[1, 0], [0, 1]],
        "beta": [[0, 0], [0, 0]],
    },
    "hitchin-section": {
        "mode": "SL2R",
        "genus": 0,
        "n_punctures": 3,
        "q_terms": [[[2, 0, 1]], [], []],
    },
    "toledo": {"data": WALL_DATA, "signature": [1, 1]},
    "mw-check": {"data": WALL_DATA, "signature": [1, 1], "rank_plus": 1, "rank_minus": 1},
    "verify-model": {**VERIFY_MODEL, "fd_step": 1e-3, "extra_terms": []},
}


def field_paths(obj, path=()):
    """Every (path to a dict entry) inside a JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield path + (key,)
            yield from field_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from field_paths(value, path + (i,))


def replaced(obj, path, value):
    if not path:
        return value
    copy = list(obj) if isinstance(obj, list) else dict(obj)
    copy[path[0]] = replaced(obj[path[0]], path[1:], value)
    return copy


HOSTILE_VALUES = [None, "x", [], {}, True, -1, 0, 1.5]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_inputs_keep_the_exit_contract(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(VALID_INPUTS)))
    payload = VALID_INPUTS[command]
    path = data.draw(st.sampled_from(list(field_paths(payload))))
    mutated = replaced(payload, path, data.draw(st.sampled_from(HOSTILE_VALUES)))
    work = tmp_path_factory.mktemp("mutated")
    source = work / "input.json"
    source.write_text(json.dumps(mutated))
    code, report = cli_dispatch(
        [command, "--input", str(source), "--output", str(work / "out.json")]
    )
    assert code in (0, 2, 3, 4)
    # exit 2 is a computed negative verdict: its report carries outputs, not an error
    if code in (3, 4):
        assert report["error"]["type"]
        if report["error"]["type"] == "SchemaError":
            assert report["error"]["location"].startswith("$")


def test_valid_inputs_cover_every_command(tmp_path):
    from parhodge.cli import _COMMANDS

    assert set(VALID_INPUTS) == set(_COMMANDS)
    for command, payload in VALID_INPUTS.items():
        code, report = run_cli(tmp_path, command, payload)
        assert code in (0, 2), (command, report.get("error"))


SCIPY_PROBE = """
import json, sys
from parhodge.cli import cli_dispatch
loaded = ["scipy.linalg" in sys.modules]
for command, source in json.loads(sys.argv[1]):
    code, _ = cli_dispatch([command, "--input", source, "--output", source + ".report"])
    loaded.append((command, code, "scipy.linalg" in sys.modules))
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy(tmp_path):
    commands = list(VALID_INPUTS)
    runs = []
    for command in commands:
        source = tmp_path / f"{command}.json"
        source.write_text(json.dumps(VALID_INPUTS[command]))
        runs.append([command, str(source)])
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(runs)],
        capture_output=True,
        text=True,
        env=child_env(),
        check=True,
    )
    loaded = json.loads(proc.stdout)
    assert loaded[0] is False  # importing the CLI
    assert [command for command, _, _ in loaded[1:]] == commands
    assert all(code in (0, 2) for _, code, _ in loaded[1:])
    assert [scipy for _, _, scipy in loaded[1:]] == [False] * len(commands)


# ---------------------------------------------------------------------------
# the report writer: --output and --csv are written over their old bytes
# ---------------------------------------------------------------------------


def rootsys_to(tmp_path, out, rank):
    source = tmp_path / f"rootsys{rank}.json"
    source.write_text(json.dumps({"cartan_type": "A", "rank": rank}))
    return cli_dispatch(["rootsys", "--input", str(source), "--output", str(out)])


def test_short_report_over_a_long_one_leaves_no_stale_tail(tmp_path):
    out = tmp_path / "report.json"
    _, long_report = rootsys_to(tmp_path, out, 4)
    inode = out.stat().st_ino
    code, short_report = rootsys_to(tmp_path, out, 1)
    assert code == 0
    assert len(_render(short_report)) < len(_render(long_report))
    assert out.read_bytes() == _render(short_report).encode("utf-8")
    assert out.stat().st_ino == inode  # written in place, not replaced


def test_write_file_replaces_the_contents(tmp_path):
    path = tmp_path / "f.txt"
    for text in ("x" * 5000, "short\n", "", "é and ∞\n"):
        _write_file(str(path), text)
        assert path.read_bytes() == text.encode("utf-8")


def test_a_failed_write_leaves_no_old_byte_after_the_new_ones(tmp_path, monkeypatch):
    path = tmp_path / "f.txt"
    path.write_text("o" * 100)
    write = os.write

    def short_writes_then_full(fd, data):  # 10 bytes a call, then a full disk
        if len(data) > 10:
            return write(fd, data[:10])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "write", short_writes_then_full)
    with pytest.raises(OSError):
        _write_file(str(path), "n" * 50)
    monkeypatch.undo()
    assert path.read_bytes() == b"n" * 40


def test_absent_output_is_created_with_the_mode_of_open(tmp_path):
    out = tmp_path / "new.json"
    code, report = rootsys_to(tmp_path, out, 2)
    assert code == 0
    assert out.read_bytes() == _render(report).encode("utf-8")
    with open(tmp_path / "reference", "w"):
        pass
    assert out.stat().st_mode == (tmp_path / "reference").stat().st_mode


def test_output_through_a_symlink_writes_its_target(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("x" * 5000)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, report = rootsys_to(tmp_path, link, 1)
    assert code == 0
    assert link.is_symlink()
    assert target.read_bytes() == _render(report).encode("utf-8")


def test_output_to_dev_null_exits_0(tmp_path):
    code, report = rootsys_to(tmp_path, "/dev/null", 2)
    assert code == 0
    assert "error" not in report


UNWRITABLE_OUTPUTS = [
    pytest.param(lambda tmp: tmp / "missing" / "dir" / "x.json", "FileNotFoundError", id="missing-dir"),
    pytest.param(lambda tmp: tmp, "IsADirectoryError", id="directory"),
    pytest.param(
        lambda tmp: tmp / "readonly.json",
        "PermissionError",
        id="read-only-file",
        marks=pytest.mark.skipif(
            hasattr(os, "geteuid") and os.geteuid() == 0, reason="root writes through file modes"
        ),
    ),
    pytest.param(
        lambda tmp: "/dev/full",  # opens, then every write fails with ENOSPC
        "OSError",
        id="device-full",
        marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
    ),
]


@pytest.mark.parametrize("make_path, error_type", UNWRITABLE_OUTPUTS)
def test_unwritable_output_exits_3_with_the_report_on_stderr(tmp_path, capsys, make_path, error_type):
    readonly = tmp_path / "readonly.json"
    readonly.write_text("old report\n")
    readonly.chmod(0o444)
    code, report = rootsys_to(tmp_path, make_path(tmp_path), 1)
    assert code == 3
    assert report["exit_code"] == 3
    assert report["error"]["type"] == error_type
    assert report["error"]["message"].startswith("cannot write the report: ")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == report
    assert readonly.read_text() == "old report\n"


@pytest.mark.parametrize("make_path, error_type", UNWRITABLE_OUTPUTS)
def test_unwritable_output_leaves_no_csv(tmp_path, capsys, make_path, error_type):
    readonly = tmp_path / "readonly.json"
    readonly.write_text("old report\n")
    readonly.chmod(0o444)
    source = tmp_path / "model.json"
    source.write_text(json.dumps(VERIFY_MODEL))
    csv_path = tmp_path / "table.csv"
    code, report = cli_dispatch(
        ["verify-model", "--input", str(source), "--output", str(make_path(tmp_path)), "--csv", str(csv_path)]
    )
    assert code == 3
    assert report["error"]["type"] == error_type
    assert json.loads(capsys.readouterr().err) == report
    assert not csv_path.exists()


def test_a_failed_csv_write_leaves_no_csv(tmp_path, monkeypatch):
    write = os.write
    csv_fds = set()

    def full_disk_inside_the_csv(fd, data):  # 10 bytes of the table, then ENOSPC
        if bytes(data[:6]) == b"r,rho,":
            csv_fds.add(fd)
            return write(fd, data[:10])
        if fd in csv_fds:
            csv_fds.discard(fd)  # the report may get the same descriptor number
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write(fd, data)

    monkeypatch.setattr(os, "write", full_disk_inside_the_csv)
    csv_path = tmp_path / "table.csv"
    code, report = run_cli(tmp_path, "verify-model", VERIFY_MODEL, extra=["--csv", str(csv_path)])
    assert code == 3
    assert report["error"]["type"] == "OSError"
    assert not csv_path.exists()


def test_csv_goes_through_the_report_writer(tmp_path, monkeypatch):
    written = []

    def recording(path, text):
        written.append(path)
        return _write_file(path, text)

    monkeypatch.setattr(cli, "_write_file", recording)
    csv_path = tmp_path / "table.csv"
    for count in (5, 2):  # a short table over a long one
        code, report = run_cli(
            tmp_path,
            "verify-model",
            {**VERIFY_MODEL, "grid": {**GRID, "count": count}},
            extra=["--csv", str(csv_path)],
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1 + count
        assert [float(line.split(",")[0]) for line in lines[1:]] == [
            row["r"] for row in report["outputs"]["table"]
        ]
    assert written == [str(csv_path), str(tmp_path / "report.json")] * 2


def test_verify_model_builds_the_monodromy_factors_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return monodromy_factors(*args, **kwargs)

    monkeypatch.setattr(modelmetric, "monodromy_factors", counting)
    code, report = run_cli(
        tmp_path, "verify-model", {**VERIFY_MODEL, "grid": {**GRID, "count": 5}}
    )
    assert code == 0
    assert len(report["outputs"]["table"]) == 5
    assert len(calls) == 1


def test_bench_decks_through_one_reused_output_give_the_rendered_bytes(tmp_path):
    # every report lands on one path, as in the benchmark loop, so each one is
    # written over the bytes of the one before
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    out = tmp_path / "report.json"
    source = tmp_path / "input.json"
    ops = [
        op
        for seed in range(3)
        for workload in workloads.WORKLOADS.values()
        for op in workloads.generate(workload, seed, copies=1)
    ]
    assert len(ops) == 321
    for op in ops:
        source.write_text(json.dumps(op.payload))
        code, report = cli_dispatch(
            [op.command, "--input", str(source), "--output", str(out), *op.extra]
        )
        assert code == op.expect_code, (op.slot, report.get("error"))
        assert out.read_bytes() == _render(report).encode("utf-8"), op.slot
        assert _render(report) == _json_dumps(report), op.slot


def _json_dumps(value) -> str:
    """The report format: _render must give these bytes."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.lists(st.integers() | st.floats()),  # the number-list path of the renderer
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_render_spells_what_json_dumps_spells(value):
    assert _render({"outputs": value}) == _json_dumps({"outputs": value})
    assert _render(value) == _json_dumps(value)


@pytest.mark.parametrize(
    "value",
    [
        [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 1e-5],
        [1.0, float("nan")],
        [10**30, -(10**30), 0, 2.5],
        [True, 1, 1.0, False, None],
        (1.5,),
        ((), [], {}, "", (0,)),
        {"tab\t \"quote\" back\\slash \u00e9 \U0001f600 \x00 \u2028": ["\ud800", "é"]},
        [np.float64(0.1), 2.5, np.float64("nan")],
        {"z": (1, 2), "a": {"b": None, "a": [None, True, "x"]}},
    ],
)
def test_render_spells_hostile_values_as_json_dumps_does(value):
    assert _render(value) == _json_dumps(value)


@pytest.mark.parametrize("value", [{"a": object()}, [1, {1j}], {1: 0, "a": 1}, {(1,): 0}])
def test_render_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        _json_dumps(value)
    with pytest.raises(TypeError):
        _render(value)


def test_render_takes_only_string_keys():
    # every report key is a string (_plain turns keys into strings)
    with pytest.raises(TypeError):
        _render({1: "a"})


def _first_non_finite_walk(value):
    """The scan cli._first_non_finite must agree with, one element at a time."""
    if isinstance(value, float):
        return None if math.isfinite(value) else ""
    if isinstance(value, dict):
        items, step = sorted(value.items()), ".{}"
    elif isinstance(value, (list, tuple)):
        items, step = enumerate(value), "[{}]"
    else:
        return None
    for key, item in items:
        rest = _first_non_finite_walk(item)
        if rest is not None:
            return step.format(key) + rest
    return None


_NON_FINITE = (float("nan"), float("inf"), -float("inf"))
_finite_numbers = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
_finite_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=2) | _finite_numbers | st.lists(_finite_numbers),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=2), inner, max_size=5),
    max_leaves=40,
)


def _plant(value, rnd, p):
    """A copy of value with NaN or an infinity put in place of some leaves and
    into some lists, each with probability p."""
    if isinstance(value, dict):
        return {key: _plant(item, rnd, p) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        items = [_plant(item, rnd, p) for item in value]
        if rnd.random() < p:
            items.insert(rnd.randint(0, len(items)), rnd.choice(_NON_FINITE))
        return type(value)(items)
    return rnd.choice(_NON_FINITE) if rnd.random() < p else value


@settings(max_examples=300, deadline=None)
@given(_finite_values, st.randoms(use_true_random=False), st.sampled_from([0.0, 0.05, 0.3]))
def test_first_non_finite_names_the_path_the_walk_names(value, rnd, p):
    planted = _plant({"outputs": value}, rnd, p)
    assert cli._first_non_finite(planted) == _first_non_finite_walk(planted)


@pytest.mark.parametrize(
    "value, path",
    [
        ([10**400, 1.5, float("nan")], "[2]"),  # math.isfinite(10**400) would overflow
        ([10**400, 2], None),
        ((0.5, -float("inf")), "[1]"),
        ({"b": [float("inf")], "a": [1.0, float("nan")]}, ".a[1]"),
        ([True, float("nan")], "[1]"),
    ],
)
def test_first_non_finite_reads_number_lists_in_order(value, path):
    assert cli._first_non_finite(value) == _first_non_finite_walk(value) == path
