"""Tiny-deck self-test of the benchmark harness, so it cannot rot unnoticed."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _loop(tmp_path, ops, tracer=None):
    from parhodge import cli

    paths = []
    for i, op in enumerate(ops):
        path = tmp_path / f"op{i}.json"
        path.write_text(json.dumps(op.payload))
        paths.append(str(path))
    return run.Loop(cli, ops, paths, str(tmp_path / "report.json"), tracer)


def _cheapest(name: str, count: int):
    # two decks, so every slot's generator runs; keep the first ``count`` ops
    # of cheap slots
    ops = workloads.generate(workloads.WORKLOADS[name], seed=3, copies=2)
    expensive = ("alcove-normalize", "genericity", "rootsys", "ks-orbit", "translate-l2h")
    cheap = [op for op in ops if op.command not in expensive and "alpha=half" not in op.slot]
    return cheap[:count]


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_generation_is_seed_deterministic():
    for workload in workloads.WORKLOADS.values():
        first = [(op.command, op.payload) for op in workloads.generate(workload, 7, copies=1)]
        again = [(op.command, op.payload) for op in workloads.generate(workload, 7, copies=1)]
        assert first == again
        defects = [op.payload for op in workloads.generate_known_defects(workload, 7)]
        assert defects == [op.payload for op in workloads.generate_known_defects(workload, 7)]


@pytest.mark.parametrize("name,count", [("exact-mix", 12), ("dictionary-mix", 12), ("model-cusp", 1)])
def test_cheap_ops_pass_their_oracles(tmp_path, name, count):
    loop = _loop(tmp_path, _cheapest(name, count))
    for i in range(count):
        loop.run_one(i)
    assert loop.failed == 0, loop.failures
    values, tail = run.end_to_end(loop, setup_s=0.5)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(values)
    assert tail["samples"] == count


def test_oracle_catches_a_wrong_report(tmp_path):
    op = _cheapest("exact-mix", 1)[0]
    loop = _loop(tmp_path, [op])
    op.expect_code = 4
    loop.closed_loop(seconds=0.0)  # runs one operation
    assert loop.failed == 1


def test_tracer_resolves_every_per_layer_metric_and_restores(tmp_path):
    from parhodge import cli, liealg

    original = cli.cli_dispatch
    tracer = tracing.Tracer()
    loop = _loop(tmp_path, _cheapest("dictionary-mix", 6), tracer)
    for first in (0, 3):  # installing again reuses the same wrappers
        tracer.install()
        try:
            assert cli.cli_dispatch is not original
            for i in range(first, first + 3):
                loop.run_one(i)
        finally:
            tracer.uninstall()
        assert cli.cli_dispatch is original
    assert not hasattr(liealg.hs_norm, "__wrapped__")
    assert tracer.stats["cli.cli_dispatch"].calls == 6
    assert tracer.stats["cli.cli_dispatch"].self_s <= tracer.stats["cli.cli_dispatch"].busy_s
    extras = {
        "tracing.overhead_pct": (0.0, "%"),
        "import.scipy_linalg_s": (0.0, "s"),
        "jsonio.decode.self_s": (0.0, "s"),
    }
    value = run.per_layer(tracer, extras)
    for metric in SPEC["per_layer"]:
        assert value(metric["name"])[1] == metric["unit"], metric["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-mix", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
