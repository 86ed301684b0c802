"""parhodge benchmark: one client sends CLI commands in a closed loop.

    python3 bench/run.py --workload exact-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The lines before it print every metric by name with its unit, the traffic
properties of the run, the environment stamp and the outcome of the
workload's known-defect inputs, which run after timing and are not counted in
the result line.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPS = 7
# latency_tail_ms is read at the highest step of this ladder that leaves at
# least TAIL_BEYOND per-operation samples above it.  The step follows from the
# length of the operation list, which is fixed per workload, so it does not
# move when the program gets faster or slower.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.9)
TAIL_BEYOND = 10
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# Host speed.  Other tenants of a shared host can slow a core by up to 2x, in
# bursts of seconds and in phases of minutes, and process CPU time slows with
# it.  A fixed probe of work like the program's (exact rationals, small dense
# algebra, argparse, JSON, sha256) is timed before the loop and every
# PROBE_EVERY_S of operation time; each execution is scaled by
# REFERENCE_PROBE_S over the mean of the probes around it, which reads it at
# the speed of an idle core.
# REFERENCE_PROBE_S is the probe's fastest time on an idle vCPU of a 2-vCPU
# Intel Xeon virtual machine.
REFERENCE_PROBE_S = 0.0035
PROBE_EVERY_S = 0.25


PROBE_DOC = json.dumps({"rows": [[{"re": i / 2, "im": -i, "w": f"{i}/7"} for i in range(12)] for _ in range(8)]})


def host_probe() -> float:
    """Median of three timings of the fixed probe work, in seconds."""
    import numpy as np

    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(i, i + 7)
        a = np.full((3, 3), 0.1)
        for _ in range(300):
            a = a @ a * 0.5 + 0.01
        json.dumps({"a": a.tolist(), "acc": str(acc)})
        # the fixed cost of a small command: build a parser, parse, load and
        # hash a JSON document, render a report
        parser = argparse.ArgumentParser(prog="probe")
        commands = parser.add_subparsers(dest="command")
        for c in range(8):
            sub = commands.add_parser(f"c{c}", help=f"command {c}")
            for o in range(5):
                sub.add_argument(f"--opt{o}", default=None, help=f"option {o} of command {c}")
        parser.parse_args(["c3", "--opt1", "x"])
        text = json.dumps(json.loads(PROBE_DOC), indent=2, sort_keys=True)
        hashlib.sha256(text.encode()).hexdigest()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    pos = pct / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest TAIL_LADDER step with TAIL_BEYOND of ``n`` sorted samples
    above the point ``percentile`` reads; the lowest step when none has."""
    steps = [p for p in TAIL_LADDER if n - 1 - math.floor(p / 100 * (n - 1)) >= TAIL_BEYOND]
    return max(steps, default=TAIL_LADDER[0])


def _import_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(reps: int) -> float:
    """Median time, at the reference host speed, of a fresh interpreter importing parhodge.cli."""
    cmd = [sys.executable, "-c", "import parhodge.cli"]
    times = []
    for i in range(reps + 1):
        before = host_probe()
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=_import_env(), check=True)
        elapsed = time.perf_counter() - start
        if i:  # the first run may compile bytecode
            times.append(elapsed * REFERENCE_PROBE_S / statistics.fmean([before, host_probe()]))
    return statistics.median(times)


def measure_scipy_import(reps: int) -> float:
    """Median cumulative import time of scipy.linalg, from ``-X importtime``."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import parhodge.cli"]
    values = []
    for _ in range(reps):
        proc = subprocess.run(cmd, cwd=ROOT, env=_import_env(), check=True, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "scipy.linalg":
                values.append(int(fields[1]) / 1e6)
    return statistics.median(values) if values else 0.0


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Loop:
    """Runs operations one at a time, checks each report against its oracle,
    and times the host probe every ``PROBE_EVERY_S`` of operation time."""

    def __init__(self, cli, ops, paths, out_path, tracer=None):
        self.cli, self.ops, self.paths, self.out_path = cli, ops, paths, out_path
        self.tracer = tracer
        self.samples: list[tuple[int, float, int]] = []  # (op index, seconds, probe before it)
        self.probes = [host_probe()]
        self.bad_ops: set[int] = set()
        self.failures: list[str] = []
        self.failed = 0
        self.busy_s = 0.0
        self._since_probe = 0.0

    @property
    def executed(self) -> list[int]:
        return [i for i, _, _ in self.samples]

    def run_one(self, i: int) -> None:
        op = self.ops[i]
        argv = [op.command, "--input", self.paths[i], "--output", self.out_path, *op.extra]
        start = time.perf_counter()
        try:
            code, report = self.cli.cli_dispatch(argv)
            crash = None
        except Exception as exc:  # a crash fails the operation, never the run
            code, report, crash = None, None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.samples.append((i, elapsed, len(self.probes) - 1))
        self.busy_s += elapsed
        self._since_probe += elapsed
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            reason = crash or self._verify(op, code, report)
        finally:
            if self.tracer is not None:
                self.tracer.paused = False
        if reason:
            self.failed += 1
            self.bad_ops.add(i)
            if len(self.failures) < 10:
                self.failures.append(f"{op.slot} ({Path(self.paths[i]).name}): {reason}")
        if self._since_probe >= PROBE_EVERY_S:
            self.probes.append(host_probe())
            self._since_probe = 0.0

    @staticmethod
    def _verify(op, code, report) -> str | None:
        if code != op.expect_code:
            return f"exit {code}, expected {op.expect_code}: {report.get('error')}"
        try:
            return op.check(report)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"malformed report: {type(exc).__name__}: {exc}"

    def closed_loop(self, seconds: float) -> None:
        """Cycle through the operations, in passes, until ``seconds`` of them have run."""
        i = 0
        while self.busy_s < seconds or not self.samples:
            self.run_one(i % len(self.ops))
            i += 1
        self.probes.append(host_probe())

    def per_op(self, scaled: bool) -> dict[int, float]:
        """Per operation, the median over its executions of its latency in
        seconds; ``scaled`` reads each execution at the reference host speed."""
        runs: dict[int, list[float]] = {}
        for i, seconds, before in self.samples:
            factor = REFERENCE_PROBE_S / statistics.fmean(self.probes[before : before + 2]) if scaled else 1.0
            runs.setdefault(i, []).append(seconds * factor)
        return {i: statistics.median(v) for i, v in runs.items()}


def traffic(ops, executed: list[int]) -> dict:
    """Properties of the stream actually sent, for claims that depend on them."""
    seen = set()
    reused = 0
    for i in executed:
        key = ops[i].root_datum
        if key is not None:
            reused += key in seen
            seen.add(key)
    models = [ops[i].alpha_nonzero for i in executed if ops[i].alpha_nonzero is not None]
    return {
        "command_mix": dict(sorted(Counter(ops[i].command for i in executed).items())),
        "size_histogram": dict(sorted(Counter(ops[i].size or "-" for i in executed).items())),
        "root_datum_reuse_share": reused / len(executed),
        "verify_model_nonzero_alpha_share": sum(models) / len(models) if models else 0.0,
    }


def end_to_end(loop: Loop, setup_s: float) -> tuple[dict, dict]:
    """Metrics over operations, each read at its median scaled latency."""
    ms = sorted(x * 1e3 for x in loop.per_op(scaled=True).values())
    tail_pct = tail_percentile(len(loop.ops))
    tail = percentile(ms, tail_pct)
    completed = len(ms) - len(loop.bad_ops)
    values = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (completed / (sum(ms) / 1e3), "ops/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_ratio": (loop.failed / len(loop.samples), "1"),
    }
    unscaled = sorted(x * 1e3 for x in loop.per_op(scaled=False).values())
    info = {
        "percentile": tail_pct,
        "samples": len(ms),
        "beyond": sum(x > tail for x in ms),
        "passes": len(loop.samples) / len(loop.ops),
        "reference_probe_ms": REFERENCE_PROBE_S * 1e3,
        "probe_ms": {"min": min(loop.probes) * 1e3, "median": statistics.median(loop.probes) * 1e3, "max": max(loop.probes) * 1e3},
        "unscaled": {
            "throughput_ops_s": (len(loop.samples) - loop.failed) / loop.busy_s,
            "latency_p50_ms": statistics.median(unscaled),
            "latency_tail_ms": percentile(unscaled, tail_pct),
        },
    }
    return values, info


def per_layer(tracer, extras: dict):
    import tracing

    def value(name: str):
        if name in extras:
            return extras[name]
        parts = name.split(".")
        if len(parts) == 2:  # "<layer>.busy_s"
            return tracer.layer_busy.get(parts[0], 0.0), "s"
        fn, quantity = ".".join(parts[:2]), parts[-1]
        if fn not in tracer.stats:
            raise KeyError(f"{fn} is not a traced function")
        if quantity == "p50_ms":
            return tracer.p50_ms(fn, parts[2]), "ms"
        stat = tracer.stats[fn]
        if quantity in ("self_s", "busy_s"):
            return getattr(stat, quantity), "s"
        if quantity == "calls":
            return stat.calls, "count"
        if quantity == tracing.COUNTS.get(fn, ("",))[0]:
            return stat.count, "count"
        raise KeyError(f"{name}: unknown quantity {quantity!r}")

    return value


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_table(title: str, rows: dict) -> None:
    print(title)
    for name, (val, unit) in rows.items():
        print(f"  {name:<52} {val:>16.6g} {unit}")


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints the report lines and returns the result object."""
    # one core for the loop, the probes and the setup subprocesses, so the
    # probes see the load the operations see
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy
    import scipy

    from parhodge import cli
    import tracing
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"parhodge was imported from {cli.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[workload_name]
    spec = load_spec()
    setup_s = measure_setup(SETUP_REPS)
    ops = workloads.generate(workload, seed)
    defects = workloads.generate_known_defects(workload, seed)

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as work:
            def write_inputs(prefix: str, batch) -> list[str]:
                paths = []
                for i, op in enumerate(batch):
                    path = Path(work) / f"{prefix}{i:05d}.json"
                    path.write_text(json.dumps(op.payload))
                    paths.append(str(path))
                return paths

            paths = write_inputs("op", ops)
            defect_paths = write_inputs("defect", defects)
            out_path = str(Path(work) / "report.json")

            warm = Loop(cli, ops, paths, out_path)
            for i in sorted({op.slot: i for i, op in reversed(list(enumerate(ops)))}.values()):
                warm.run_one(i)

            plain = Loop(cli, ops, paths, out_path)
            if not trace:
                plain.closed_loop(seconds)
                loops = [plain]
            else:
                # each operation runs untraced, then traced, back to back: both
                # see the same host load, so their ratio is the tracing overhead
                tracer = tracing.Tracer()
                traced = Loop(cli, ops, paths, out_path, tracer)
                for i in range(len(ops)):
                    plain.run_one(i)
                    tracer.install()
                    try:
                        traced.run_one(i)
                    finally:
                        tracer.uninstall()
                loops = [plain, traced]

            # after timing, untraced and not counted in the result line
            known = Loop(cli, defects, defect_paths, out_path)
            for i in range(len(defects)):
                known.run_one(i)
    finally:
        if not any(work_root.iterdir()):
            work_root.rmdir()

    attempted = sum(len(loop.samples) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    details = {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "environment": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "git_rev": git_rev(),
            "nproc": os.cpu_count(),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
            "cpu_affinity": cpu,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "attempted": {workload.name: attempted},
        },
        "traffic": traffic(ops, loops[-1].executed),
        "failures": [f for loop in loops for f in loop.failures][:10],
        "known_defects": {"attempted": len(known.samples), "failed": known.failed, "failures": known.failures[:3]},
    }
    if not trace:
        values, details["latency"] = end_to_end(plain, setup_s)
        print_table(f"end-to-end metrics ({workload.name}, seed {seed})", values)
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        overhead = (traced.busy_s / plain.busy_s - 1) * 100
        decode = sum(s.self_s for name, s in tracer.stats.items() if name.startswith("jsonio.") and name.endswith("_from_json"))
        extras = {
            "tracing.overhead_pct": (overhead, "%"),
            "import.scipy_linalg_s": (measure_scipy_import(3), "s"),
            "jsonio.decode.self_s": (decode, "s"),
        }
        value = per_layer(tracer, extras)
        names = [m["name"] for m in spec["per_layer"]]
        values = {name: value(name) for name in names}
        print_table(f"per-layer metrics ({workload.name}, seed {seed}, one traced pass of {len(ops)} ops)", values)
        details["functions"] = {
            name: {"calls": s.calls, "busy_s": s.busy_s, "self_s": s.self_s}
            for name, s in sorted(tracer.stats.items())
            if s.calls
        }
        details["layers_busy_s"] = dict(sorted(tracer.layer_busy.items()))
    print(f"attempted {attempted}, failed {failed}")
    if defects:
        print(f"known defects, outside the timed stream: {known.failed} of {len(known.samples)} failed")
        for failure in known.failures[:3]:
            print(f"  {failure}")
    print("details: " + json.dumps(details, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]} for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # pin BLAS to one thread before numpy loads, here and in the setup
    # subprocesses: the numbers should measure the program, not the scheduler
    os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})
    if not (SRC / "parhodge" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no parhodge source tree at {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
