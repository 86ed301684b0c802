"""Command-line surface: dispatch, exit codes, report determinism."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parhodge.cli import cli_dispatch, main
from parhodge.nahodge import hitchin_section
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


def test_console_entry_point_subprocess(tmp_path):
    source = tmp_path / "input.json"
    source.write_text(json.dumps({"cartan_type": "A", "rank": 2}))
    proc = subprocess.run(
        [sys.executable, "-m", "parhodge.cli", "rootsys", "--input", str(source)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["outputs"]["rank"] == 2


GRID = {"r_max": 1e-2, "r_min": 1e-4, "count": 2}
VERIFY_MODEL = {"realization": "SU(1,1)", "alpha": [0, 0], "y": [[0, 0], [1, 0]], "grid": GRID}
DIAG = [[1, 0], [0, -1]]


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
    ],
)
def test_hostile_field_exits_3_with_location(tmp_path, command, payload, location):
    code, report = run_cli(tmp_path, command, payload)
    assert code == 3
    assert report["error"]["type"] == "SchemaError"
    assert report["error"]["location"] == location


def test_convergence_failure_exits_4(tmp_path, monkeypatch):
    from parhodge import cli
    from parhodge.liealg import ConvergenceFailure

    def stalled(*args, **kwargs):
        raise ConvergenceFailure("Kostant-Sekiguchi descent stalled")

    monkeypatch.setattr(cli, "kostant_sekiguchi_orbit_map", stalled)
    code, report = run_cli(
        tmp_path, "ks-orbit", {"realization": "SL(2,R)", "e": [[0, 1], [0, 0]]}
    )
    assert code == 4
    assert report["error"]["type"] == "ConvergenceFailure"


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
