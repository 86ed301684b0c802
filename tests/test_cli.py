"""Command-line surface: dispatch, exit codes, report determinism."""

import ast
import contextlib
import errno
import importlib
import io
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import parhodge
import plain_oracle
import rootsys_oracle
from parhodge import cli, modelmetric
from parhodge.cartan import build_root_datum, in_A_prime
from parhodge.cli import _render, _write_file, cli_dispatch, main
from parhodge.jsonio import frac_to_json, matrix_to_json
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


@pytest.mark.parametrize("lattice", ["simply_connected", "adjoint"])
@pytest.mark.parametrize("cartan_type", ["A", "B", "C", "D"])
def test_rootsys_prints_the_fraction_tables(tmp_path, cartan_type, lattice):
    # the integer tables print as the Fraction ones did, at every rank the CLI admits
    for rank in range(1, 13):
        code, report = run_cli(tmp_path, "rootsys", {"cartan_type": cartan_type, "rank": rank, "lattice": lattice})
        try:
            tables = rootsys_oracle.fraction_tables(cartan_type, rank, lattice)
        except ValueError:
            assert (code, report["error"]["location"]) == (3, "$.rank")
            continue
        assert code == 0
        method = "exact root-system arithmetic"
        want = {"cartan_type": cartan_type, "rank": rank, "lattice": lattice}
        want.update(
            (name, {"value": [[frac_to_json(x) for x in row] for row in table], "method": method})
            for name, table in tables.items()
        )
        assert json.dumps(report["outputs"]) == json.dumps(want)


def _counting(monkeypatch, modules, name):
    """Calls of ``name`` through any of ``modules``, each recorded by its arguments."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("cartan_type", ["A", "B", "C", "D"])
@pytest.mark.parametrize("point", [[f"{10**6 + 37 * i}/{3 + i % 5}" for i in range(7)], ["1/2"] + ["0"] * 6])
def test_alcove_normalize_reads_root_values_as_integers(tmp_path, monkeypatch, cartan_type, point):
    from parhodge import cartan

    build_root_datum(cartan_type, len(point))  # the datum build sums Fraction products
    dots = _counting(monkeypatch, [cartan], "_dot")
    code, _ = run_cli(tmp_path, "alcove-normalize", {"cartan_type": cartan_type, "rank": len(point), "point": point})
    assert code == 0
    assert dots == []


@pytest.mark.parametrize(
    "payload",
    [
        {"mode": "SL2R", "genus": 0, "n_punctures": 3, "q_terms": [[[2, 0, 1.5]], [], [[2, 2, 0.5]]]},
        {"mode": "SLnR_principal", "genus": 2, "n_punctures": 2, "rank": 4},
    ],
)
def test_hitchin_section_checks_no_pole_order_and_solves_no_eigenproblem(tmp_path, monkeypatch, payload):
    # the construction puts every coefficient at an admissible order; nothing re-checks it
    from parhodge import nahodge, parhiggs

    checks = _counting(monkeypatch, [parhiggs, nahodge], "check_pole_orders")
    eigensolves = _counting(monkeypatch, [np.linalg], "eigvals")
    code, _ = run_cli(tmp_path, "hitchin-section", payload)
    assert code == 0
    assert checks == []
    assert eigensolves == []


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


def test_stability_ignores_a_degree_bound_field(tmp_path):
    # the search reads no degree bound: an input that carries one is read as any
    # other field stability does not know, and ignored
    data = {"data": WALL_DATA, "mode": "exhaustive_small"}
    _, plain = run_cli(tmp_path, "stability", data)
    for bound in (0, 3, 1000):
        _, report = run_cli(tmp_path, "stability", {**data, "degree_bound": bound})
        assert report["outputs"] == plain["outputs"]
    assert "bound" not in plain["outputs"]["note"]


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


def test_input_path_with_a_trailing_slash_reads_the_file(tmp_path):
    # --input names a path as pathlib reads it, which drops a trailing "/"
    source = tmp_path / "input.json"
    source.write_text(json.dumps({"cartan_type": "A", "rank": 2}))
    plain, slashed = tmp_path / "plain.json", tmp_path / "slashed.json"
    code, report = cli_dispatch(["rootsys", "--input", f"{source}/", "--output", str(slashed)])
    assert code == 0, report.get("error")
    assert slashed.read_text() == _json_dumps(report)
    assert cli_dispatch(["rootsys", "--input", str(source), "--output", str(plain)])[0] == 0
    assert slashed.read_text() == plain.read_text().replace(f'"{source}"', f'"{source}/"')


def test_empty_input_path_is_refused_as_a_directory():
    # pathlib reads "" as ".", the working directory
    code, report = cli_dispatch(["rootsys", "--input", ""])
    assert code == 3
    assert report["error"] == {
        "type": "IsADirectoryError",
        "message": f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '.'",
    }


@pytest.mark.parametrize(
    "path, read",
    [("", "."), ("/", "/"), ("//a", "//a"), ("///a//b/", "/a/b"), ("a/./b/.", "a/b"), ("./a/../b", "a/../b")],
)
def test_the_input_path_is_read_as_pathlib_reads_it(path, read):
    assert cli._as_pathlib_reads(path) == read == str(Path(path))


def test_repeated_commands_keep_no_memory(tmp_path):
    # pathlib interns every part of the path it reads, and the table of
    # interned strings grows (a block of about 1-2 MB) as the parts come and
    # go; 250 parts a command, which no live Path holds, fill its free slots
    # within the loop
    deep = os.path.join(str(tmp_path), *(f"part{i}" for i in range(250)))
    os.makedirs(deep)
    source = os.path.join(deep, "input.json")
    with open(source, "w") as f:
        f.write(json.dumps({"cartan_type": "x", "rank": 2}))
    argv = ["rootsys", "--input", source, "--output", str(tmp_path / "report.json")]
    for _ in range(20):
        assert cli_dispatch(argv)[0] == 3
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(400):
            cli_dispatch(argv)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


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


# run one command the way ``python -m parhodge.cli`` (argv[1] "module") or the
# console entry (argv[1] "entry") does, then print the BLAS variables it left
BLAS_PROBE = """
import json, os, runpy, sys
import parhodge
assert "numpy" not in sys.modules, "importing the package loaded numpy"
how, argv = sys.argv[1], json.loads(sys.argv[2])
sys.argv = ["parhodge", *argv]
try:
    if how == "module":
        runpy.run_module("parhodge.cli", run_name="__main__", alter_sys=True)
    else:
        sys.exit(parhodge.main())
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, {var: os.environ.get(var) for var in parhodge.BLAS_THREAD_VARS}]))
"""


def _blas_probe(tmp_path, how, preset):
    source = tmp_path / "input.json"
    source.write_text(json.dumps({"sample": {"model": "GL(3,C)", "count": 3}}))
    target = tmp_path / f"report-{how}-{len(preset)}.json"
    env = {var: value for var, value in child_env().items() if var not in parhodge.BLAS_THREAD_VARS}
    argv = ["degree-relative", "--input", str(source), "--output", str(target)]
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_PROBE, how, json.dumps(argv)],
        capture_output=True,
        text=True,
        env={**env, **preset},
        check=True,
    )
    code, seen = json.loads(proc.stdout)
    assert code == 0
    return seen, target.read_bytes()


@pytest.mark.parametrize("how", ["module", "entry"])
def test_one_shot_runs_default_to_one_blas_thread(tmp_path, how):
    seen, report = _blas_probe(tmp_path, how, {})
    assert seen == {var: "1" for var in parhodge.BLAS_THREAD_VARS}
    # a count the caller set is kept, and the report does not depend on it
    seen, preset_report = _blas_probe(tmp_path, how, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"})
    assert seen == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1"}
    assert preset_report == report


def test_importing_the_cli_leaves_the_blas_variables_alone():
    probe = "import json, os, parhodge.cli; print(json.dumps([os.environ.get(v) for v in parhodge.BLAS_THREAD_VARS]))"
    env = {var: value for var, value in child_env().items() if var not in parhodge.BLAS_THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert json.loads(proc.stdout) == [None] * len(parhodge.BLAS_THREAD_VARS)


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
        ("degree-relative", {"sample": {"model": "SU(1,1)", "count": 10_001}}, "$.sample.count"),
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
        # the size knobs past their bounds
        ("hitchin-section", {"mode": "SLnR_principal", "genus": 2, "n_punctures": 2, "rank": 17}, "$.rank"),
        ("hitchin-section", {"mode": "SLnR_principal", "genus": 2, "n_punctures": 2, "rank": 1}, "$.rank"),
        ("hitchin-section", {"mode": "SL2R", "genus": 0, "n_punctures": 65}, "$.n_punctures"),
        (
            "hitchin-section",
            {"mode": "SL2R", "genus": 0, "n_punctures": 3, "q_terms": [[], [[2, 0, 1]] * 17, []]},
            "$.q_terms[1]",
        ),
        ("degree-relative", {"sample": {"model": "GL(17,C)", "count": 1}}, "$.sample.model"),
        ("degree-relative", {"sample": {"model": "SU(9,8)", "count": 1}}, "$.sample.model"),
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
        # a vector whose length the data or the root datum fixes is checked where it is read
        ("alcove-normalize", {"cartan_type": "A", "rank": 2, "point": [0]}, "$.point"),
        ("degree-parabolic", {"data": WALL_DATA, "chi": [1, 0, -1]}, "$.chi"),
        ("degree-parabolic", {"data": WALL_DATA, "chi": []}, "$.chi"),
        ("stability", {"data": WALL_DATA, "reductions": [{"chi": [1, -1]}, {"chi": [1, 0, -1]}]}, "$.reductions[1].chi"),
        ("hecke", {"data": WALL_DATA, "lambdas": [[0, 0, 0], [0, 0], [0, 0]]}, "$.lambdas[0]"),
        ("hecke", {"data": WALL_DATA, "lambdas": [[0, 0], [0, 0]]}, "$.lambdas"),
        # a shift takes one entry per summand, a weight one per coordinate: a
        # summand of rank 2 would cut the weight short
        (
            "hecke",
            {
                "data": {
                    "schema": "parhiggs-v1",
                    "genus": 0,
                    "punctures": [{"weight": ["1/3", "1/2"]}],
                    "bundle": {"summands": [{"degree": 0, "rank": 2}]},
                },
                "lambdas": [[1]],
            },
            "$.data.bundle.summands[0].rank",
        ),
        # a flag step spans as many coordinates as the weight has entries up
        # to its value: a line for the weight (0, 0, 1/2) would misweight it
        (
            "degree-parabolic",
            {
                "data": {
                    "schema": "parhiggs-v1",
                    "genus": 0,
                    "punctures": [{"weight": [0, 0, "1/2"], "flag": [[[1], [0], [0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}],
                    "bundle": {"summands": [{"degree": 0}] * 3},
                },
                "chi": [1, 1, 0],
            },
            "$.data.punctures[0].flag[0]",
        ),
        ("toledo", {"data": WALL_DATA, "signature": [1, 2]}, "$.signature"),
        ("mw-check", {"data": WALL_DATA, "signature": [2, 1]}, "$.signature"),
        # a field inside the Higgs data is located under $.data, where the input holds it
        ("degree-parabolic", {"data": {**WALL_DATA, "schema": "x"}, "chi": [1, 0]}, "$.data.schema"),
        ("stability", {"data": {**WALL_DATA, "bundle": []}}, "$.data.bundle"),
        ("hecke", {"data": {**WALL_DATA, "punctures": {}}, "lambdas": []}, "$.data.punctures"),
        ("gr-res", {"data": {**WALL_DATA, "genus": "x"}}, "$.data.genus"),
        ("toledo", {"data": {**WALL_DATA, "realization": 3}}, "$.data.realization"),
        (
            "mw-check",
            {"data": {**WALL_DATA, "bundle": {"summands": [{"degree": "x"}]}}},
            "$.data.bundle.summands[0].degree",
        ),
    ],
)
def test_hostile_field_exits_3_with_location(tmp_path, command, payload, location):
    code, report = run_cli(tmp_path, command, payload)
    assert code == 3
    assert report["error"]["type"] == "SchemaError"
    assert report["error"]["location"] == location


@pytest.mark.parametrize(
    "command, payload",
    [
        ("hitchin-section", {"mode": "SLnR_principal", "genus": 2, "n_punctures": 64, "rank": 16}),
        ("hitchin-section", {"mode": "SL2R", "genus": 0, "n_punctures": 64}),
        # every differential at every puncture, plus one more term: the largest report, about 28 MB
        (
            "hitchin-section",
            {
                "mode": "SLnR_principal",
                "genus": 2,
                "n_punctures": 64,
                "rank": 16,
                "q_terms": [[[j, 1, 1.5] for j in range(2, 17)] + [[2, 2, 0.5]]] * 64,
            },
        ),
        ("degree-relative", {"sample": {"model": "GL(16,C)", "count": 10}}),
        ("degree-relative", {"sample": {"model": "SU(8,8)", "count": 10}}),
        # both sample bounds at once: the largest model at the largest count
        ("degree-relative", {"sample": {"model": "GL(16,C)", "count": 10_000}}),
    ],
)
def test_a_size_knob_at_its_bound_runs(tmp_path, command, payload):
    # one past each bound is refused in test_hostile_field_exits_3_with_location
    start = time.perf_counter()
    code, report = run_cli(tmp_path, command, payload)
    assert time.perf_counter() - start < 10
    assert code == 0, report.get("error")


@pytest.mark.parametrize(
    "s, message",
    [
        # Im s00 = 100: the hyperbolic factor exp(2 pi i (s^H - s)) would
        # overflow, and its exponential refuses before it is taken
        ([[[0, 100], 0], [0, 0]], "exp(c h) leaves the float range: Re(c lambda) passes ln(max float)"),
        ([[1e300, 0], [0, 0]], "non-finite number at $.outputs.table[0].rho"),  # the residual overflows
    ],
)
def test_non_finite_output_exits_4(tmp_path, s, message):
    payload = {"realization": "GL(2,C)", "alpha": [0, 0], "s": s, "grid": GRID}
    csv_path = tmp_path / "table.csv"
    with np.errstate(all="ignore"):
        code, report = run_cli(tmp_path, "verify-model", payload, extra=["--csv", str(csv_path)])
    assert code == 4
    assert not csv_path.exists()  # no table of NaN rows beside a failed report
    assert report["error"] == {"type": "NumericallyDefective", "message": message}
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


def test_no_command_runs_the_flow(tmp_path, monkeypatch):
    from parhodge import degree

    def refuse(*args, **kwargs):
        raise AssertionError("the QR flow ran")

    monkeypatch.setattr(degree, "relative_degree", refuse)
    for command, payload in VALID_INPUTS.items():
        code, report = run_cli(tmp_path, command, payload)
        assert code in (0, 2), (command, report.get("error"))
    code, report = run_cli(tmp_path, "degree-relative", {"sample": {"model": "SU(2,1)", "count": 20}})
    assert code == 0, report.get("error")


# the Higgs data is rank 2: each size below is refused where the input holds it,
# before any command computes with it
HIGGS_SIZE_MISMATCHES = [
    (("punctures", 1, "weight"), ["1/2"], "$.data.punctures[1].weight"),
    (("punctures", 1, "weight"), ["-1/2", "0", "1/2"], "$.data.punctures[1].weight"),
    (("punctures", 2, "laurent", "terms", 0, "matrix"), [[1]], "$.data.punctures[2].laurent.terms[0].matrix"),
    (
        ("punctures", 2, "laurent", "terms", 0, "matrix"),
        [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
        "$.data.punctures[2].laurent.terms[0].matrix",
    ),
    (("punctures", 2, "laurent", "terms", 0, "matrix"), [[]], "$.data.punctures[2].laurent.terms[0].matrix"),
    (("c",), [0, 0, 0], "$.data.c"),
    # an explicit flag: one step per distinct weight value (-1/2 and 1/2),
    # each of 2 rows and of a column per weight entry up to its value
    (("punctures", 0, "flag"), [[[1]]], "$.data.punctures[0].flag"),
    (("punctures", 0, "flag"), [[[1], [0]]], "$.data.punctures[0].flag"),
    (("punctures", 0, "flag"), [[[1], [0]], [[1, 0], [0, 1]], [[1, 0], [0, 1]]], "$.data.punctures[0].flag"),
    (("punctures", 0, "flag"), [[[1]], [[1, 0], [0, 1]]], "$.data.punctures[0].flag[0]"),
    (("punctures", 0, "flag"), [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], "$.data.punctures[0].flag[0]"),
    (("punctures", 0, "flag"), [[[1], [0]], [[1], [1]]], "$.data.punctures[0].flag[1]"),
    (("punctures", 0, "flag"), [[[1], [0]], [[1, 0, 0], [0, 1, 0]]], "$.data.punctures[0].flag[1]"),
]


@pytest.mark.parametrize("path, value, location", HIGGS_SIZE_MISMATCHES)
@pytest.mark.parametrize("command", ["degree-parabolic", "stability", "hecke", "gr-res", "toledo", "mw-check"])
def test_higgs_data_sizes_are_checked_against_the_rank(tmp_path, command, path, value, location):
    code, report = run_cli(tmp_path, command, replaced(VALID_INPUTS[command], ("data", *path), value))
    assert code == 3
    assert report["error"]["type"] == "SchemaError"
    assert report["error"]["location"] == location


# the commands that compute with integers and Fractions only, and need no numpy
EXACT_COMMANDS = ("rootsys", "alcove-normalize")
NUMERIC_MODULES = ("degree", "liealg", "modelmetric", "nahodge", "parabolic", "parhiggs")
WATCHED_MODULES = ["numpy", "scipy.linalg", *(f"parhodge.{name}" for name in NUMERIC_MODULES)]

# runs command lines one after another in one fresh process: through
# cli_dispatch (argv[1] "dispatch", after importing parhodge.cli) or as
# ``python -m parhodge.cli`` runs one (argv[1] "module"), and prints which of the
# watched modules are loaded before the first and after each command
MODULE_PROBE = """
import json, runpy, sys
how, watched, runs = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
if how == "dispatch":
    from parhodge.cli import cli_dispatch
seen = [[name for name in watched if name in sys.modules]]
for argv in runs:
    if how == "module":
        sys.argv = ["parhodge", *argv]
        try:
            runpy.run_module("parhodge.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    else:
        code, _ = cli_dispatch(argv)
    seen.append([code, [name for name in watched if name in sys.modules]])
print(json.dumps(seen))
"""


def _fresh_process(tmp_path, how: str, commands: list[str]) -> tuple[list, list[Path], list]:
    """Run the VALID_INPUTS of ``commands`` in order in one fresh process:
    (the watched modules loaded before the first, the report path of each
    run, its (exit code, watched modules loaded after it))."""
    runs, reports = [], []
    for k, command in enumerate(commands):
        source = tmp_path / f"{command}.json"
        source.write_text(json.dumps(VALID_INPUTS[command]))
        reports.append(tmp_path / f"{k}-{command}.report")
        runs.append([command, "--input", str(source), "--output", str(reports[-1])])
    proc = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, how, json.dumps(WATCHED_MODULES), json.dumps(runs)],
        capture_output=True,
        text=True,
        env=child_env(),
        check=True,
    )
    first, *after = json.loads(proc.stdout)
    return first, reports, after


def test_exact_commands_run_as_a_module_without_numpy(tmp_path):
    loaded, _, after = _fresh_process(tmp_path, "module", list(EXACT_COMMANDS))
    assert [loaded, *after] == [[], *[[0, []]] * len(EXACT_COMMANDS)]


@pytest.fixture(scope="module")
def first_and_last(tmp_path_factory) -> dict:
    """command -> ((exit code, report bytes, watched modules loaded after it)
    of its run as the first command of a fresh process, the same of its run
    there after every other command)."""
    outcomes = {}
    for command in VALID_INPUTS:
        others = [c for c in VALID_INPUTS if c != command]
        imported, reports, after = _fresh_process(
            tmp_path_factory.mktemp("fresh"), "dispatch", [command, *others, command]
        )
        assert imported == []  # importing the CLI loads neither numpy nor a numeric module
        outcomes[command] = tuple((after[k][0], reports[k].read_bytes(), after[k][1]) for k in (0, -1))
    return outcomes


def test_each_command_keeps_its_exit_code_first_in_a_fresh_process(first_and_last):
    codes = {command: (first[0], last[0]) for command, (first, last) in first_and_last.items()}
    assert all(first == last and first in (0, 2) for first, last in codes.values()), codes


def test_each_report_is_the_same_first_in_a_fresh_process_and_after_every_other(first_and_last):
    for command, (first, last) in first_and_last.items():
        assert first[1] == last[1], command


def test_no_command_loads_scipy(first_and_last):
    for command, (first, last) in first_and_last.items():
        assert "scipy.linalg" not in last[2], command  # in one process, after every command
        # a numeric command imports numpy where it computes; an exact one imports nothing watched
        if command in EXACT_COMMANDS:
            assert first[2] == [], command
        else:
            assert "numpy" in first[2], command


# patches degree.relative_position with a counting wrapper before the first
# numeric command of a fresh process, runs argv[1] with the wrapper and again
# without it, and prints (exit code, wrapper calls so far) after each run
STALE_PROBE = """
import json, sys
from parhodge import degree
from parhodge.cli import cli_dispatch
original, calls = degree.relative_position, []
def counted(*args, **kwargs):
    calls.append(1)
    return original(*args, **kwargs)
seen = []
for kernel in (counted, original):
    degree.relative_position = kernel
    code, _ = cli_dispatch(json.loads(sys.argv[1]))
    seen.append([code, len(calls)])
print(json.dumps(seen))
"""


def test_a_command_reads_the_kernel_bound_when_it_runs(tmp_path):
    source = tmp_path / "pair.json"
    source.write_text(json.dumps(VALID_INPUTS["degree-relative"]))
    argv = ["degree-relative", "--input", str(source), "--output", str(tmp_path / "out.json")]
    proc = subprocess.run(
        [sys.executable, "-c", STALE_PROBE, json.dumps(argv)],
        capture_output=True,
        text=True,
        env=child_env(),
        check=True,
    )
    # the second run, after the original is restored, does not go through the wrapper
    assert json.loads(proc.stdout) == [[0, 1], [0, 1]]


def _import_time_imports(text: str) -> set[str]:
    """The modules a source imports when it is imported, outside its function
    bodies: "numpy" for ``import numpy as np``, ".liealg" for ``from .liealg
    import x`` or ``from . import liealg``."""
    found = set()
    stack = list(ast.parse(text).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            found.update([base] if node.module else [base + alias.name for alias in node.names])
        stack.extend(ast.iter_child_nodes(node))
    return found


def _numeric(module: str) -> bool:
    """numpy, scipy or a numeric parhodge module, named absolutely or relatively."""
    name = module.lstrip(".") if module.startswith(".") else module.removeprefix("parhodge.")
    return name.split(".")[0] in ("numpy", "scipy", *NUMERIC_MODULES)


def test_the_cli_imports_no_numeric_module_when_it_is_imported():
    src = Path(parhodge.__file__).parent
    for name in ("cli", "errors", "jsonio", "cartan"):
        imported = _import_time_imports((src / f"{name}.py").read_text(encoding="utf-8"))
        assert sorted(filter(_numeric, imported)) == [], name


def test_the_import_ratchet_sees_every_import_that_runs_at_import():
    text = (
        "import numpy as np\n"
        "if True:\n"
        "    from .liealg import hs_norm\n"
        "try:\n"
        "    from . import degree, jsonio\n"
        "except ImportError:\n"
        "    import parhodge.nahodge\n"
        "class Model:\n"
        "    import scipy.linalg\n"
        "def later():\n"
        "    import parhodge.parhiggs\n"
        "    from .modelmetric import radial_grid\n"
        "from .cartan import build_root_datum\n"
        "import json\n"
    )
    imported = _import_time_imports(text)
    assert imported == {"numpy", ".liealg", ".degree", ".jsonio", "parhodge.nahodge", "scipy.linalg", ".cartan", "json"}
    assert sorted(filter(_numeric, imported)) == [".degree", ".liealg", "numpy", "parhodge.nahodge", "scipy.linalg"]


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


@pytest.mark.parametrize("c", [1.0, 1e150, 1e160, 1e200, 1e308, 1.7e308])
def test_verify_model_refuses_a_non_commuting_s_at_every_scale(tmp_path, c):
    # past c ~ 1e154 the sum of squares overflows, and at 1.7e308 the norm of
    # s itself exceeds the float range; the checks read s over the power of two
    # at its largest entry, so none of them sees that scale
    payload = {"realization": "GL(2,C)", "alpha": ["1/4", "-1/4"], "s": [[c, c], [0, 0]], "y": [[0, 0], [0, 0]], "grid": GRID}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report = run_cli(tmp_path, "verify-model", payload)
    assert code == 3
    assert report["error"]["type"] == "CommutationFailure"
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("c", [1.0, 1e150, 1e160, 1e200, 1e308, 1.7e308])
def test_translate_h2l_refuses_a_non_commuting_s_at_every_scale(tmp_path, c):
    # the residue check of the dictionary is the one verify-model runs: it
    # reads s over the power of two at its largest entry, so it refuses
    # before any norm, product or exponential of s sees the scale
    payload = {"realization": "GL(2,C)", "alpha": ["1/4", "-1/4"], "s": [[c, c], [0, 0]], "y": [[0, 0], [0, 0]]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report = run_cli(tmp_path, "translate-h2l", payload)
    assert code == 3
    assert report["error"]["type"] == "CommutationFailure"
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("c", [100, 1e3, 1e300])
def test_translate_h2l_refuses_an_overflowing_hyperbolic_factor(tmp_path, capsys, c):
    # exp(2 pi i (s^H - s)) has the eigenvalue exp(4 pi c), past the float
    # range from c = 57; the exponential refuses before it is taken
    payload = {"realization": "GL(2,C)", "alpha": [0, 0], "s": [[[0, c], 0], [0, 0]], "y": [[0, 0], [0, 0]]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report = run_cli(tmp_path, "translate-h2l", payload)
    assert code == 4
    assert report["error"]["type"] == "NumericallyDefective"
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


def _near_nilpotent_inputs() -> list[tuple[str, dict]]:
    """translate-h2l on GL(3,C) with alpha = 0, s = 0 and y = E31 + 1e-9 R for
    100 complex R (seed 1), and ks-orbit on SL(3,R) and SL(4,R) with
    e = J + 10^-k R for the regular block J, a real R and k = 6 .. 12."""
    rng = np.random.default_rng(1)
    out = []
    for _ in range(100):
        y = 1e-9 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        y[2, 0] += 1
        y_json = [[[z.real, z.imag] for z in row] for row in y]
        out.append(("translate-h2l", {"realization": "GL(3,C)", "alpha": [0, 0, 0], "s": [[0] * 3] * 3, "y": y_json}))
    for n in (3, 4):
        for k in range(6, 13):
            r = rng.standard_normal((n, n))
            e = np.diag(np.ones(n - 1), 1) + 10.0**-k * (r - np.trace(r) / n * np.eye(n))
            out.append(("ks-orbit", {"realization": f"SL({n},R)", "e": e.tolist()}))
    return out


def test_near_nilpotent_inputs_exit_0_or_3_and_never_crash(tmp_path, capsys):
    codes = Counter()
    for command, payload in _near_nilpotent_inputs():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, report = run_cli(tmp_path, command, payload)
        assert code in (0, 3), report.get("error")
        assert "IndexError" not in json.dumps(report)
        assert [str(w.message) for w in caught] == []
        codes[command, code] += 1
    assert capsys.readouterr().err == ""
    # 27 of the y read as the regular orbit, whose triple is then refused by
    # the torus normalization, and 73 as no nilpotent; e is refused for
    # k = 6 .. 8 and read as J3 or J4 from k = 9
    assert codes == {("translate-h2l", 3): 100, ("ks-orbit", 0): 7, ("ks-orbit", 3): 7}


@pytest.mark.parametrize("r_min", [1e-150, 1e-160, 1e-300])
def test_verify_model_decides_a_cusp_at_a_tiny_r_min(tmp_path, r_min):
    # (r ln r^2)^2 underflows near r = 1e-160; the r^2 weight of the residual
    # is folded in before any division by it
    payload = {**VERIFY_MODEL, "grid": {"r_max": 1e-2, "r_min": r_min, "count": 3}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report = run_cli(tmp_path, "verify-model", payload)
    assert code == 0, report.get("error")
    assert [str(w.message) for w in caught] == []
    assert [row["r"] for row in report["outputs"]["table"][::2]] == [1e-2, r_min]
    assert all(row["rho"] < 1e-12 for row in report["outputs"]["table"])



MONOTONE = "residual rho(r) is not monotone over the sampled radii"


def test_verify_model_keeps_the_monotone_warning_for_a_real_rise(tmp_path):
    # with an order-1 correction psi z dz/z, rho really rises over these
    # radii: from 1.31 at r = 0.5 to 6.60 at r = 0.15
    payload = {
        **VERIFY_MODEL,
        "extra_terms": [[1, [[0, 1], [0, 0]]]],
        "grid": {"r_max": 0.5, "r_min": 0.1, "count": 5},
    }
    code, report = run_cli(tmp_path, "verify-model", payload)
    assert code == 0, report.get("error")
    rho = [row["rho"] for row in report["outputs"]["table"]]
    assert rho[0] == pytest.approx(1.31, abs=5e-3) and rho[3] == pytest.approx(6.60, abs=5e-3)
    assert report["warnings"] == [MONOTONE]


README = Path(__file__).resolve().parents[1] / "README.md"


def _run_readme_block(block: str) -> dict:
    """Run one ``sh`` block of the README in the current directory: a heredoc
    writes its file or runs its Python, and a ``parhodge`` line goes through
    ``cli_dispatch``.  Returns command -> (exit code, report)."""
    lines = iter(block.splitlines())
    runs = {}
    for line in lines:
        words = shlex.split(line, comments=True)
        if "<<'EOF'" in line:
            body = "\n".join(iter(lines.__next__, "EOF")) + "\n"
            if words[:2] == ["python3", "-"]:
                exec(body, {})
            else:  # cat > FILE <<'EOF'
                Path(words[2]).write_text(body)
        elif words and words[0] == "parhodge":
            runs[words[1]] = cli_dispatch(words[1:])
    return runs


def test_readme_examples_do_what_their_comments_claim(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    examples = text[text.index("### Examples"):text.index("## Conventions")]
    # the Hecke example elides its parhiggs-v1 document; the other three are complete
    blocks = [b for b in re.findall(r"```sh\n(.*?)```", examples, re.S) if "..." not in b]
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)
    runs = {}
    for block in blocks:
        runs.update(_run_readme_block(block))
    assert sorted(runs) == ["degree-relative", "hitchin-section", "stability", "verify-model"]
    assert runs["hitchin-section"][0] == 0
    code, report = runs["stability"]
    assert (code, report["outputs"]["verdict"]) == (0, "stable")
    code, report = runs["degree-relative"]
    assert (code, report["outputs"]["value"]) == (0, {"method": "commuting", "value": 0.5})
    code, report = runs["verify-model"]
    assert code == 0
    assert (tmp_path / "residuals.csv").read_text().splitlines()[0] == "r,rho,holonomy_deviation"
    assert report["warnings"] == []


def _subclasses(cls: type) -> set[type]:
    return set(cls.__subclasses__()).union(*map(_subclasses, cls.__subclasses__()))


def test_readme_error_table_gives_every_error_class_its_exit_code():
    from parhodge.errors import ParhodgeError

    for module in pkgutil.iter_modules(parhodge.__path__):
        importlib.import_module(f"parhodge.{module.name}")
    table = dict(re.findall(r"^\| `(\w+)` \| (\d) \|", README.read_text(encoding="utf-8"), re.M))
    ours = {cls.__name__: cls.exit_code for cls in _subclasses(ParhodgeError) if cls.__module__.startswith("parhodge.")}
    assert len(ours) == 25
    assert {name: int(table.get(name, 0)) for name in ours} == ours
    # the other rows: the command line, and the kinds of ValueError and OSError, numpy's LinAlgError among them
    kinds = {cls.__name__ for cls in _subclasses(ValueError) | _subclasses(OSError) | {ValueError, OSError}}
    assert set(table) - set(ours) <= {"UsageError", *kinds}
    assert {table[name] for name in set(table) - set(ours)} == {"3"}


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


_pair_parts = st.floats() | st.integers() | st.sampled_from([-0.0, True, False])
# rows of [re, im] pairs, as matrix_to_json writes them, which the renderer
# spells from one repr, and near misses: nan or inf parts, bools, empty or
# ragged rows, pairs of another length
_matrix_like = st.lists(
    st.lists(st.lists(_pair_parts, min_size=2, max_size=2) | st.lists(_pair_parts, max_size=3), max_size=3),
    min_size=1,
    max_size=3,
)
_matrices = st.lists(
    st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers()).map(list), min_size=1, max_size=3),
    min_size=1,
    max_size=3,
)

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.lists(st.integers() | st.floats())  # the number-list path of the renderer
    | _matrix_like
    | _matrices,
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
        [[[1.0, -0.0]]],
        [[[0, -0.0], [1e300, -5e-324]], [[2, 3.5], [-1, 10**20]]],
        [[[float("nan"), 0.0]]],
        [[[0.0, -float("inf")], [1.0, 2.0]]],
        [[[True, 1.0]]],
        [[[1.0, 2.0]], []],
        [[[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]]],
        [[[1.0]]],
        [[[1.0, 2.0, 3.0]]],
        [[(1.0, 2.0)]],
        ([[1.0, 2.0]],),
        [[[np.float64(1.0), 2.0]]],
    ],
)
def test_render_spells_hostile_values_as_json_dumps_does(value):
    assert _render(value) == _json_dumps(value)
    assert _render({"m": value}) == _json_dumps({"m": value})


def test_render_spells_matrices_from_one_repr():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 6):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m[0, 0] = complex(-0.0, 0.0)
        rows = matrix_to_json(m)
        assert cli._pairs_text(rows, "\n  ") is not None
        assert _render({"value": rows}) == _json_dumps({"value": rows})


_numpy_scalars = (
    st.booleans().map(np.bool_)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.floats().map(np.float64)
    | st.complex_numbers().map(np.complex128)
)
_arrays = hnp.arrays(
    st.sampled_from([np.float64, np.complex128, np.int64, np.bool_]),
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3),
) | hnp.arrays(  # signed zeros, which the matrix codec must keep
    np.complex128,
    hnp.array_shapes(min_dims=1, max_dims=2, max_side=3),
    elements=st.sampled_from([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1.5 - 2j]),
) | hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3), elements=st.sampled_from([-0.0, 0.0, 2.5]))
_report_values = st.recursive(
    st.none()
    | st.text(max_size=3)
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.complex_numbers()
    | st.fractions()
    | st.integers().map(Fraction)  # denominator 1
    | _numpy_scalars
    | _arrays
    | st.lists(st.fractions(), max_size=4)
    | st.lists(st.integers() | st.floats() | st.none() | st.text(max_size=2), max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.integers(-3, 3) | st.text(max_size=2), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(_report_values)
def test_plain_converts_as_the_isinstance_ladder_converts(value):
    # repr tells -0.0 from 0.0, 1 from 1.0 and True, and a numpy scalar from a Python one
    assert repr(cli._plain(value)) == repr(plain_oracle.plain(value))


@pytest.mark.parametrize("value", [object(), {1j}, np.array(1.0), [1, object()]])
def test_plain_refuses_what_the_ladder_refuses(value):
    with pytest.raises(TypeError):
        plain_oracle.plain(value)
    with pytest.raises(TypeError):
        cli._plain(value)


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


# ---------------------------------------------------------------------------
# the shell around every command: argv, input and report, each against the
# path it replaced
# ---------------------------------------------------------------------------


def test_a_literal_under_an_overwritten_duplicate_key_exits_3_at_the_key(tmp_path):
    # the reader used to look for the literal in the parsed document, where the
    # second "cartan_type" had replaced it, and crashed with StopIteration
    raw = '{"cartan_type": NaN, "cartan_type": "A", "rank": 2}'
    code, report = run_cli(tmp_path, "rootsys", raw=raw)
    assert code == 3
    assert report["error"] == {
        "type": "SchemaError",
        "location": "$.cartan_type",
        "message": "$.cartan_type: NaN is not a finite number",
    }


DEEP_ERROR = {"type": "SchemaError", "location": "$", "message": "$: input is nested too deeply to read"}


def test_input_nested_past_the_recursion_limit_exits_3(tmp_path):
    raw = '{"cartan_type": "A", "rank": 2, "unread": ' + "[" * 100_000
    code, report = run_cli(tmp_path, "rootsys", raw=raw)
    assert code == 3
    assert report["error"] == DEEP_ERROR


def test_one_shot_run_on_deep_input_exits_3_without_a_traceback(tmp_path):
    source = tmp_path / "input.json"
    depth = sys.getrecursionlimit() + 10
    source.write_text('{"cartan_type": "A", "rank": 2, "unread": ' + "[" * depth + "]" * depth + "}")
    proc = subprocess.run(
        [sys.executable, "-m", "parhodge.cli", "rootsys", "--input", str(source)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert (proc.returncode, proc.stderr) == (3, "")
    assert json.loads(proc.stdout)["error"] == DEEP_ERROR


def _argv_outcome(parse, argv):
    """What parsing argv gives: a namespace, a usage error, or an exit with help."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            return "namespace", vars(parse(list(argv)))
    except cli._UsageError as exc:
        return "usage", str(exc), printed.getvalue()
    except SystemExit as exc:
        return "exit", exc.code, printed.getvalue()


def _every_option(command):
    options = [["--input", "in.json"], ["--output", "out.json"], ["--seed", "7"], ["--tolerance", "1e-9"]]
    return options + [["--csv", "t.csv"]] if command == "verify-model" else options


ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["no-such-command"],
    ["--input", "in.json", "rootsys"],
    ["-x"],
    *([command, *option] for command in cli._COMMANDS for option in _every_option(command)),
    *([command, *sum(_every_option(command), [])] for command in cli._COMMANDS),
    *([command, "-h"] for command in cli._COMMANDS),
    ["rootsys", "--seed", "x"],
    ["rootsys", "--tolerance", "nan"],
    ["rootsys", "--tolerance", "0"],
    ["rootsys", "--tolerance=-1"],
    ["stability", "--csv", "t.csv"],
    ["rootsys", "--out", "x"],
    ["verify-model", "--cs", "x"],
    ["rootsys", "stray"],
    ["rootsys", "rootsys"],
    ["rootsys", "--input"],
    ["rootsys", "--seed"],
    ["rootsys", "--", "x"],
    ["rootsys", "--input", "a", "--input", "b"],
    ["verify-model", "--csv", "a.csv", "--csv", "b.csv"],
    ["rootsys", "--seed", "1", "--input", "a", "--seed", "2"],
    ["rootsys", "--input", ""],
    ["rootsys", "--input", "-"],
    ["rootsys", "--output", "-out.json"],
    ["rootsys", "--seed", "-2"],
    ["rootsys", "--seed", " 7 "],
    ["rootsys", "--seed", "1_000"],
    ["rootsys", "--seed", "1.5"],
    ["rootsys", "--seed="],
    ["rootsys", "--tolerance="],
    ["rootsys", "--tolerance", "-1e-3"],
    ["rootsys", "--tolerance", "inf"],
    ["rootsys", "--input", "rootsys"],
    ["rootsys", "--input", "a b", "--output", "c=d"],
]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_parse_args_gives_what_the_top_level_parser_gives(argv):
    assert _argv_outcome(cli._parse_args, argv) == _argv_outcome(cli._build_parser().parse_args, argv)


_argv_heads = st.sampled_from([[command] for command in cli._COMMANDS] + [[], ["nope"], ["-h"], ["--seed", "1"]])
_argv_tails = st.lists(
    st.sampled_from(
        [
            ["--input", "in.json"],
            ["--input=in.json"],
            ["--output", "out.json"],
            ["--seed", "3"],
            ["--seed", "x"],
            ["--seed=-2"],
            ["--tolerance", "nan"],
            ["--tolerance", "0"],
            ["--tolerance", "-1"],
            ["--tolerance=1e-3"],
            ["--csv", "t.csv"],
            ["--out", "x"],
            ["--in", "x"],
            ["--input"],
            ["--seed"],
            ["stray"],
            ["rootsys"],
            ["-h"],
            ["--"],
            ["-x"],
            ["--input", "-in.json"],
            ["--output", "-"],
            ["--input", ""],
            ["--seed", "-2"],
            ["--seed", ""],
            ["--seed="],
            ["--tolerance", "-1e-3"],
            ["--tolerance", "1e-3"],
            ["--tolerance="],
            ["--tolerance=-1"],
            ["--csv=t.csv"],
            ["--output", "rootsys"],
        ]
    ),
    max_size=5,
)


@settings(max_examples=500, deadline=None)
@given(_argv_heads, _argv_tails)
def test_random_argv_parses_as_the_top_level_parser_parses_it(head, tail):
    argv = head + [token for option in tail for token in option]
    assert _argv_outcome(cli._parse_args, argv) == _argv_outcome(cli._build_parser().parse_args, argv)


def test_a_plain_command_line_builds_no_parser(tmp_path):
    source = tmp_path / "input.json"
    source.write_text(json.dumps({"cartan_type": "A", "rank": 2}))
    out = tmp_path / "report.json"
    cli._build_parser.cache_clear()
    try:
        argv = ["rootsys", "--input", str(source), "--output", str(out), "--seed", "3", "--tolerance", "1e-6"]
        assert cli_dispatch(argv)[0] == 0
        assert cli._build_parser.cache_info().currsize == 0
        # a form the direct read leaves to argparse builds it, once
        assert cli_dispatch(["rootsys", f"--input={source}", "--output", str(out)])[0] == 0
        assert cli._build_parser.cache_info().currsize == 1
    finally:
        cli._build_parser.cache_clear()


def _counting_walk(monkeypatch):
    calls = []

    def walk(value):
        calls.append(value)
        return walk.original(value)

    walk.original = cli._first_non_finite
    monkeypatch.setattr(cli, "_first_non_finite", walk)
    return calls


@pytest.mark.parametrize("label", ["NaN", "Infinity", "-Infinity"])
def test_a_string_that_spells_a_literal_passes_the_output_check(tmp_path, monkeypatch, label):
    calls = _counting_walk(monkeypatch)
    payload = {"data": WALL_DATA, "reductions": [{"label": label, "chi": [1, -1]}]}
    code, report = run_cli(tmp_path, "stability", payload)
    assert code == 0, report.get("error")
    assert report["outputs"]["slope_table"][0]["label"] == label
    assert (tmp_path / "report.json").read_text() == _json_dumps(report)
    # the text spells the label, so the walk runs, and finds no number
    assert calls and calls[0] is report["outputs"]


def test_an_input_path_that_spells_a_literal_passes_the_output_check(tmp_path, monkeypatch):
    calls = _counting_walk(monkeypatch)
    source = tmp_path / "NaN-Infinity.json"
    source.write_text(json.dumps({"cartan_type": "A", "rank": 2}))
    out = tmp_path / "report.json"
    code, report = cli_dispatch(["rootsys", "--input", str(source), "--output", str(out)])
    assert code == 0, report.get("error")
    assert out.read_text() == _json_dumps(report)
    assert calls and calls[0] is report["outputs"]
    # a report whose text spells no literal holds no non-finite number: no walk
    calls.clear()
    plain = source.rename(tmp_path / "plain.json")
    assert cli_dispatch(["rootsys", "--input", str(plain), "--output", str(out)])[0] == 0
    assert calls == []


@settings(max_examples=200, deadline=None)
@given(_finite_values, st.randoms(use_true_random=False), st.sampled_from([0.0, 0.05, 0.3]))
def test_planted_non_finite_outputs_exit_4_at_the_path_the_walk_names(tmp_path_factory, value, rnd, p):
    planted = _plant(value, rnd, p)

    def handler(payload, args, report):
        report["outputs"] = planted
        return 0

    work = tmp_path_factory.mktemp("planted")
    source, out = work / "input.json", work / "report.json"
    source.write_text(json.dumps({"cartan_type": "A", "rank": 2}))
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(cli._COMMANDS, "rootsys", (handler, "planted outputs"))
        code, report = cli_dispatch(["rootsys", "--input", str(source), "--output", str(out)])
    path = _first_non_finite_walk(planted)
    if path is None:
        assert code == 0
        assert report["outputs"] is planted
    else:
        assert code == 4
        assert report["outputs"] == {}
        assert report["error"] == {"type": "NumericallyDefective", "message": f"non-finite number at $.outputs{path}"}
    assert out.read_text() == _json_dumps(report)


IMPORT_PROBE = """
import argparse, gc
from parhodge import cli
parsers = [o for o in gc.get_objects() if isinstance(o, argparse.ArgumentParser)]
print(cli._build_parser.cache_info().currsize, len(parsers))
"""


def test_a_translation_past_the_square_root_of_the_float_range_prints_nothing(tmp_path):
    # the Frobenius norms of s overflow in their sum of squares; numpy's norm
    # printed "RuntimeWarning: overflow encountered in dot" on stderr
    source = tmp_path / "input.json"
    s = [[[1e160, 0], [0, 0]], [[0, 0], [-1e160, 0]]]
    zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    source.write_text(json.dumps({"realization": "GL(2,C)", "alpha": [0, 0], "s": s, "y": zero}))
    proc = subprocess.run(
        [sys.executable, "-m", "parhodge.cli", "translate-h2l", "--input", str(source)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["exit_code"] == 0


def _huge_entry_section(term: int, row: int, col: int) -> dict:
    """The SL2R section with a quadratic differential at the first puncture,
    one entry of its order-``term`` Laurent matrix set to 1e300."""
    data = to_json(hitchin_section("SL2R", 0, 3, q_terms=[[(2, 0, 1.0)], [], []]))
    data["punctures"][0]["laurent"]["terms"][term]["matrix"][row][col] = [1e300, 0.0]
    return data


@pytest.mark.parametrize("term, row, col", [(0, 1, 0), (1, 0, 1)])  # the residue, the differential
@pytest.mark.parametrize(
    "command, extra", [("gr-res", {"puncture": 0}), ("stability", {"mode": "exhaustive_small"}), ("stability", {})]
)
def test_a_huge_puncture_entry_prints_nothing(tmp_path, command, extra, term, row, col):
    # the Frobenius norms of the Laurent matrices overflow in their sum of
    # squares; numpy's norm printed "RuntimeWarning: overflow encountered in dot"
    source = tmp_path / "input.json"
    source.write_text(json.dumps({"data": _huge_entry_section(term, row, col), **extra}))
    proc = subprocess.run(
        [sys.executable, "-m", "parhodge.cli", command, "--input", str(source)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["exit_code"] == 0


def test_importing_the_cli_builds_no_parser():
    # the top-level parser and the subparsers it holds are built by the first
    # dispatch that needs them: built at import, they would cost every
    # importer, and the benchmark's setup_s, which times a bare import
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, env=child_env(), check=True
    )
    assert proc.stdout.split() == ["0", "0"]


def _jordan_block_residue(b: float) -> dict:
    """GL(3,C) data on one puncture of weight 0 whose order-0 residue is
    [[b, b, 0], [0, b, 0], [0, 0, -b]]: a Jordan block beside an eigenvalue."""
    m = [[[b, 0], [b, 0], [0, 0]], [[0, 0], [b, 0], [0, 0]], [[0, 0], [0, 0], [-b, 0]]]
    term = {"order": 0, "eigenvalue": 0, "matrix": m}
    puncture = {"weight": [0, 0, 0], "flag": None, "laurent": {"terms": [term]}}
    return {
        "schema": "parhiggs-v1",
        "genus": 0,
        "realization": "GL(3,C)",
        "punctures": [puncture],
        "bundle": {"summands": [{"degree": 0, "rank": 3}]},
        "c": [0, 0, 0],
    }


@pytest.mark.parametrize("b", [1e154, 1e160, 1e300, 1e308, 1.7e308])
def test_gr_res_splits_a_jordan_block_past_the_square_root_of_the_float_range(tmp_path, b):
    # the Newton iteration's stopping bound 1e-13 * scale^2 overflowed: a
    # traceback with an OverflowError and overflow warnings from q(s); past
    # 1e308 the Hilbert-Schmidt norm itself is inf, and the split came out as
    # s = m, n = 0
    source = tmp_path / "input.json"
    source.write_text(json.dumps({"data": _jordan_block_residue(b), "puncture": 0}))
    proc = subprocess.run(
        [sys.executable, "-m", "parhodge.cli", "gr-res", "--input", str(source)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    outputs = json.loads(proc.stdout)["outputs"]
    s, n = (
        np.array(outputs[key]["value"], dtype=float).view(complex)[..., 0] / b
        for key in ("semisimple", "nilpotent")
    )
    m = np.array([[1, 1, 0], [0, 1, 0], [0, 0, -1]], dtype=complex)
    eps = np.finfo(float).eps
    assert np.abs(s + n - m).max() <= 4 * eps
    assert np.abs(s - np.diag([1, 1, -1])).max() <= 4 * eps
    assert np.abs(n @ n).max() <= 4 * eps
    assert np.abs(s @ n - n @ s).max() <= 4 * eps


# ---------------------------------------------------------------------------
# integers past Python's 4300-digit limit on int-to-str conversion
# ---------------------------------------------------------------------------


def _long_int(digits: str) -> int:
    """int(digits) read 1000 digits at a time, under the conversion limit."""
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _long_fraction(value: int | str) -> Fraction:
    if isinstance(value, int):
        return Fraction(value)
    numerator, _, denominator = value.partition("/")
    sign = -1 if numerator.startswith("-") else 1
    return Fraction(sign * _long_int(numerator.lstrip("-")), _long_int(denominator or "1"))


def _dispatch_long(tmp_path, command, payload):
    source, out = tmp_path / "input.json", tmp_path / "report.json"
    source.write_text(json.dumps(payload))
    code, report = cli_dispatch([command, "--input", str(source), "--output", str(out)])
    text = out.read_text()
    # the report reads back whole once each integer literal is read in chunks
    assert json.loads(text, parse_int=lambda s: -_long_int(s[1:]) if s[0] == "-" else _long_int(s)) == report
    return code, report, text


def test_an_alcove_point_with_a_long_integer_answer_renders_exactly(tmp_path):
    code, report, text = _dispatch_long(
        tmp_path, "alcove-normalize", {"cartan_type": "A", "rank": 1, "point": ["1e4300"]}
    )
    assert code == 0
    (shift,) = report["outputs"]["lattice_vector"]["value"]
    assert abs(shift) >= 10**4300  # 4301 digits: past what int.__repr__ spells


def test_an_alcove_point_past_the_exponent_bound_is_refused_at_its_field(tmp_path):
    code, report, _ = _dispatch_long(
        tmp_path, "alcove-normalize", {"cartan_type": "A", "rank": 1, "point": ["1e5000"]}
    )
    assert code == 3
    assert report["error"]["location"] == "$.point[0]"
    assert "outputs" in report and report["outputs"] == {}


def test_a_parabolic_degree_with_long_denominators_renders_exactly(tmp_path):
    q1, q2 = 3 * 7**3500, 11**2800  # about 2900 digits each; the pairing's denominator holds both
    data = split_bundle((1, -1), weights=((Fraction(1, q1), Fraction(-1, q1)),))
    chi = [f"1/{q2}", f"-1/{q2}"]
    code, report, _ = _dispatch_long(tmp_path, "degree-parabolic", {"data": data, "chi": chi})
    assert code == 0, report.get("error")
    outputs = report["outputs"]
    pardeg, central, slope = (_long_fraction(outputs[key]["value"]) for key in ("pardeg", "central_pairing", "slope"))
    assert pardeg - central == slope
    assert pardeg.denominator % q2 == 0 and pardeg.denominator % 7**3500 == 0
    assert len(outputs["pardeg"]["value"]) > 4300
