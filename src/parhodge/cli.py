"""JSON-driven command line over the library: one subcommand per operation.

Every run reads one JSON input document, computes, and emits a single report
document: command echo, input digest, the convention header, outputs with the
method that produced each numeric value, and warnings.  Reports are
byte-deterministic for identical inputs and seeds.

Exit codes: 0 success; 2 negative verdict (the computation succeeded but the
answer is "no": unstable, non-generic, Milnor-Wood violated); 3 precondition
or malformed-input error (the report carries a location for schema errors);
4 convergence or search-bound failure.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import stat
import sys
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .cartan import (
    CARTAN_TYPES,
    LATTICES,
    SearchExhausted,
    UnsupportedType,
    alcove_membership,
    alcove_normalize,
    build_root_datum,
)
from .degree import NonConvergence, relative_degree, relative_position
from .jsonio import (
    SchemaError,
    bool_from_json,
    complex_from_json,
    field_from_json as _field,
    frac_from_json,
    frac_to_json,
    fracvec_from_json,
    int_from_json,
    list_from_json,
    matrix_from_json,
    matrix_to_json,
    object_from_json,
    parse_document,
    real_from_json,
    str_from_json,
)
from .liealg import (
    SPACES,
    NumericallyDefective,
    TripleCompletionFailure,
    UnsupportedGroup,
    build_realization,
    kostant_sekiguchi_orbit_map,
)
from .modelmetric import (
    GridTooCoarse,
    circle_transport,
    hitchin_residual,
    holonomy_check,
    radial_grid,
)
from .nahodge import (
    CONVENTIONS,
    SECTION_MODES,
    complete_ks_triple,
    entry_to_json,
    higgs_to_localsystem,
    hitchin_section,
    localsystem_to_higgs,
    milnor_wood_check,
    toledo_invariant,
)
from .parabolic import parabolic_from
from .parhiggs import (
    STABILITY_MODES,
    ReductionCertificate,
    coordinate_pairing,
    from_json as higgs_from_json,
    genericity_check,
    gr_res,
    hecke_apply,
    pardeg_reduction,
    stability_check,
    to_json as higgs_to_json,
)

REPORT_SCHEMA = "parhodge-report-v1"

_ALCOVE_CONVENTION = (
    "weights live in the closed fundamental alcove (simple roots >= 0, highest"
    " root <= 1); normalization returns the canonical affine-Weyl representative"
)
_TOLEDO_CONVENTION = (
    "block character (2q/(p+q), -2p/(p+q)) on a signature-(p,q) realization,"
    " paired against parabolic degrees"
)

EXIT_OK = 0
EXIT_NEGATIVE_VERDICT = 2
EXIT_PRECONDITION = 3
EXIT_NO_CONVERGENCE = 4

# exact root data grow fast with the rank: B12 takes about 0.13 s to build, B16
# about 0.4 s, and every datum built stays in memory for the process
_MAX_RANK = 12


class _UsageError(Exception):
    """Command line itself is malformed (unknown command, bad option)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep exit code 2 reserved for verdicts
        raise _UsageError(message)


def _tolerance(text: str) -> float:
    """--tolerance: a finite number > 0, so no NaN reaches a kernel or a report."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


@functools.cache  # built by the first cli_dispatch and shared by the later ones
def _build_parser() -> _Parser:
    # no abbreviated options: an unechoed sink spelled "--out" would enter the
    # report's argv and change its bytes
    parser = _Parser(prog="parhodge", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--input", metavar="FILE", help="JSON input document")
        p.add_argument("--output", metavar="FILE", help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, default=None, help="RNG seed for sampled instances")
        p.add_argument(
            "--tolerance", type=_tolerance, default=None, help="override the default numeric tolerance"
        )
        if name == "verify-model":
            p.add_argument("--csv", metavar="FILE", help="also write the residual table as CSV")
    return parser


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------


def _load_input(args) -> tuple[bytes, Any]:
    if args.input is None:
        raise SchemaError("$", "this command requires --input FILE")
    raw = Path(args.input).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError("$ (byte stream)", "input is not valid JSON") from exc
    return raw, parse_document(text)


def _tol(args) -> dict:
    """Keyword arguments that pass a --tolerance override on to a kernel."""
    return {} if args.tolerance is None else {"tol": args.tolerance}


@contextmanager
def _label_at(location: str):
    """An unrecognized group label is the input's fault, at location."""
    try:
        yield
    except UnsupportedGroup as exc:
        raise SchemaError(location, str(exc)) from exc


def _build_realization(label: str, location: str):
    with _label_at(location):
        return build_realization(label)


def _realization(payload: dict):
    return _build_realization(_field(payload, "realization", str_from_json), "$.realization")


def _root_datum(payload: dict):
    cartan_type = _field(payload, "cartan_type", str_from_json, choices=CARTAN_TYPES)
    rank = _field(payload, "rank", int_from_json, lo=1, hi=_MAX_RANK)
    lattice = _field(
        payload, "lattice", str_from_json, default="simply_connected", choices=LATTICES
    )
    try:
        return build_root_datum(cartan_type, rank, lattice=lattice)
    except UnsupportedType as exc:  # below the type's least rank (B2, C2, D3)
        raise SchemaError("$.rank", str(exc)) from exc


def _matrix(obj: Any, location: str, n: int | None = None) -> np.ndarray:
    """A matrix that must be n x n, or square when n is None."""
    m = matrix_from_json(obj, location)
    n = m.shape[0] if n is None else n
    if m.shape != (n, n):
        raise SchemaError(location, f"expected a {n}x{n} matrix, got {m.shape[0]}x{m.shape[1]}")
    return m


def _signature(payload: dict) -> tuple[int, int] | None:
    raw = _field(payload, "signature", list_from_json, default=None, length=2)
    if raw is None:
        return None
    return tuple(int_from_json(x, f"$.signature[{i}]", lo=0) for i, x in enumerate(raw))


def _convention(payload: dict, report: dict) -> str:
    """The monodromy scale convention of the input, echoed in the report header."""
    convention = _field(payload, "convention", str_from_json, default="2pi_i", choices=CONVENTIONS)
    report["conventions"]["monodromy_scale"] = convention
    return convention


def _higgs_data(payload: dict):
    return higgs_from_json(_field(payload, "data", object_from_json))


def _reduction_from_json(obj: Any, location: str) -> ReductionCertificate:
    obj = object_from_json(obj, location)
    return ReductionCertificate(
        label=_field(obj, "label", str_from_json, location, default="reduction"),
        chi=_field(obj, "chi", fracvec_from_json, location),
        phi_compatible=_field(obj, "phi_compatible", bool_from_json, location, default=True),
        degree=_field(obj, "degree", frac_from_json, location, default=None),
        levi_reduction=_field(obj, "levi_reduction", bool_from_json, location, default=None),
    )


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _plain(obj: Any) -> Any:
    """Recursively convert results to deterministic JSON-serializable values."""
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, Fraction):
        return frac_to_json(obj)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2:
            return matrix_to_json(obj)
        return [_plain(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _tagged(value: Any, method: str) -> dict:
    return {"value": _plain(value), "method": method}


def _echo_argv(argv: Sequence[str]) -> list[str]:
    # output sinks are not inputs: drop them so identical computations render
    # identical report bytes no matter where the report lands
    echoed, skip = [], False
    for token in argv:
        if skip:
            skip = False
            continue
        if token in ("--output", "--csv"):
            skip = True
            continue
        if token.startswith("--output=") or token.startswith("--csv="):
            continue
        echoed.append(token)
    return echoed


def _new_report(command: str, argv: Sequence[str], args) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "command": command,
        "argv": _echo_argv(argv),
        "seed": args.seed,
        "tolerance": args.tolerance,
        "input_digest": None,
        "conventions": {
            "alcove": _ALCOVE_CONVENTION,
            "monodromy_scale": "2pi_i",
            "toledo_normalization": _TOLEDO_CONVENTION,
        },
        "outputs": {},
        "warnings": [],
    }


_INT, _FLOAT, _NUMBER = {int}, {float}, {int, float}


def _first_non_finite(value: Any) -> str | None:
    """Path below ``value`` to its first NaN or infinite number, in rendered
    (sorted-key) order, as ".key[i]..."; None when every number is finite."""
    if isinstance(value, float):
        return None if math.isfinite(value) else ""
    if isinstance(value, dict):
        items, step = sorted(value.items()), ".{}"
    elif isinstance(value, (list, tuple)):
        # a list of ints, or of floats, is cleared in one C pass; ints skip
        # math.isfinite, which overflows on a huge one, and are finite anyway
        kinds = set(map(type, value))
        if kinds <= _INT or kinds == _FLOAT and all(map(math.isfinite, value)):
            return None
        items, step = enumerate(value), "[{}]"
    else:
        return None
    for key, item in items:
        rest = _first_non_finite(item)
        if rest is not None:
            return step.format(key) + rest
    return None


def _render(report: dict) -> str:
    """The bytes of ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``
    (the oracle of tests/test_cli.py) for a report whose keys are strings."""
    return _json_text(report, "\n") + "\n"


def _json_float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


_JSON_SCALAR = {
    str: _json_string,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(value: Any, newline: str) -> str:
    """``value`` as json.dumps(indent=2, sort_keys=True) spells it; ``newline``
    is the line break plus the indentation of the line ``value`` starts on."""
    scalar = _JSON_SCALAR.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds <= _NUMBER:  # exact types: a bool or a subclass has its own spelling
            text = repr(list(value))  # a 1-tuple's repr would be "(x,)"
            if "n" not in text:  # else a nan or inf, which JSON spells NaN or Infinity
                return "[" + inner + text[1:-1].replace(", ", "," + inner) + newline + "]"
        if kinds <= _JSON_SCALAR.keys():
            items = [_JSON_SCALAR[type(item)](item) for item in value]
        else:
            items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_json_string(key) + ": " + _json_text(item, inner) for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    for kind, scalar in _JSON_SCALAR.items():  # a subclass, such as numpy's float64
        if isinstance(value, kind):
            return scalar(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_file(path: str, text: str) -> None:
    """Write text to path over its old bytes, then cut the old tail off.

    Opening with O_TRUNC would empty a non-empty file first, and on ext4 the
    close() after such a truncation starts a writeback of the file, which cost
    more than the rest of a small command.  Like open(path, "w"), this follows
    symlinks, keeps the inode and applies the umask.  Only a regular file is
    cut: ftruncate fails on /dev/null, /dev/stdout or a FIFO.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        try:  # after a failed write too: no old byte may follow the new ones
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def _emit(report: dict, args) -> None:
    text = _render(report)
    if args.output:
        _write_file(args.output, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_rootsys(payload: dict, args, report: dict) -> int:
    rd = _root_datum(payload)
    method = "exact root-system arithmetic"
    report["outputs"] = {
        "cartan_type": rd.cartan_type,
        "rank": rd.rank,
        "lattice": rd.lattice,
        "simple_roots": _tagged(rd.simple_roots, method),
        "positive_roots": _tagged(rd.positive_roots, method),
        "coroots": _tagged(rd.coroots, method),
        "cochar_lattice_basis": _tagged(rd.cochar_lattice_basis, method),
        "inner_product": _tagged(rd.inner_product, method),
    }
    return EXIT_OK


def _cmd_alcove_normalize(payload: dict, args, report: dict) -> int:
    rd = _root_datum(payload)
    point = _field(payload, "point", fracvec_from_json)
    bound = _field(payload, "search_bound", int_from_json, default=64, lo=1)
    result = alcove_normalize(rd, point, search_bound=bound)
    method = "exact affine-Weyl reduction"
    membership = alcove_membership(rd, result.normalized)
    report["outputs"] = {
        "k": _tagged(result.k, method),
        "lattice_vector": _tagged(result.lattice_vector, method),
        "normalized": _tagged(result.normalized, method),
        "dominant": _tagged(result.dominant, method),
        "membership": membership.kind,
        "walls": _plain(membership.walls),
    }
    return EXIT_OK


def _cmd_parabolic(payload: dict, args, report: dict) -> int:
    real = _realization(payload)
    s = _field(payload, "s", _matrix, n=real.n)
    space = _field(payload, "space", str_from_json, default="g^C", choices=SPACES)
    datum = parabolic_from(real, s, space=space, **_tol(args))
    method = "ad-eigenvalue grading"
    report["outputs"] = {
        "space": datum.space,
        "eigenvalues": _tagged(datum.eigenvalues, method),
        "dim_p": _tagged(len(datum.p_basis), method),
        "dim_l": _tagged(len(datum.l_basis), method),
        "dim_n": _tagged(len(datum.n_basis), method),
    }
    return EXIT_OK


def _sample_hermitian_pair(real, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    out = []
    for _ in range(2):
        a = rng.standard_normal((real.n, real.n)) + 1j * rng.standard_normal((real.n, real.n))
        m = (a + a.conj().T) / 2.0
        norm = np.linalg.norm(m)
        if norm < 1e-8:
            return _sample_hermitian_pair(real, rng)
        out.append(m / norm)
    return out[0], out[1]


def _cmd_degree_relative(payload: dict, args, report: dict) -> int:
    if "sample" in payload:
        spec = object_from_json(payload["sample"], "$.sample")
        model = _field(spec, "model", str_from_json, "$.sample")
        real = _build_realization(model, "$.sample.model")
        count = _field(spec, "count", int_from_json, "$.sample", default=100, lo=1)
        rng = np.random.default_rng(0 if args.seed is None else args.seed)
        worst = 0.0
        for _ in range(count):
            s, sigma = _sample_hermitian_pair(real, rng)
            forward = relative_degree(s, sigma, **_tol(args))
            backward = relative_degree(sigma, s, **_tol(args))
            worst = max(worst, abs(forward.value - backward.value))
        report["outputs"] = {
            "model": model,
            "count": count,
            "max_reciprocity_gap": _tagged(worst, "qr_flow, both orders"),
        }
        return EXIT_OK
    s = _field(payload, "s", _matrix)
    sigma = _field(payload, "sigma", _matrix, n=len(s))
    result = relative_position(s, sigma, **_tol(args))
    report["outputs"] = {
        "value": _tagged(result.value, result.method),
        "converged": True,  # the position is decided in finitely many steps
        "permutation": _plain(result.permutation),
        "min_pivot_ratio": _tagged(result.min_pivot_ratio, result.method),
    }
    return EXIT_OK


def _cmd_degree_parabolic(payload: dict, args, report: dict) -> int:
    data = _higgs_data(payload)
    red = _reduction_from_json(payload, "$")
    pardeg = pardeg_reduction(data, red)
    central = coordinate_pairing(data.c, red.chi)
    method = "exact double-filtration pairing"
    report["outputs"] = {
        "label": red.label,
        "pardeg": _tagged(pardeg, method),
        "central_pairing": _tagged(central, method),
        "slope": _tagged(pardeg - central, method),
    }
    return EXIT_OK


def _cmd_stability(payload: dict, args, report: dict) -> int:
    data = _higgs_data(payload)
    verdict = stability_check(
        data,
        mode=_field(payload, "mode", str_from_json, default="certificate", choices=STABILITY_MODES),
        reductions=_field(
            payload, "reductions", list_from_json, default=[], items=_reduction_from_json
        ),
        degree_bound=_field(payload, "degree_bound", int_from_json, default=3),
        **_tol(args),
    )
    method = "exact double-filtration pairing"
    report["outputs"] = {
        "verdict": verdict.verdict,
        "witness": verdict.witness,
        "note": verdict.note,
        "slope_table": [
            {"label": label, "pairing": kind, "slope": _tagged(value, method)}
            for label, kind, value in verdict.slope_table
        ],
    }
    return EXIT_OK if verdict.verdict != "unstable" else EXIT_NEGATIVE_VERDICT


def _weight_rows(obj: Any, location: str) -> list[tuple[Fraction, ...]]:
    """One weight row per puncture, all non-empty and of one length n."""
    rows = list_from_json(obj, location, items=fracvec_from_json)
    for i, row in enumerate(rows):
        if not row or len(row) != len(rows[0]):
            raise SchemaError(
                f"{location}[{i}]", f"every weight row needs the same n >= 1 entries, got {len(row)}"
            )
    return rows


def _cmd_genericity(payload: dict, args, report: dict) -> int:
    weights = _field(payload, "weights", _weight_rows)
    budget = _field(payload, "max_combinations", int_from_json, default=200000, lo=1)
    try:
        result = genericity_check(weights, max_combinations=budget)
    except ValueError as exc:  # the sweep outgrew the budget
        raise SchemaError("$.weights", str(exc)) from exc
    method = "integer residue-set sweep"
    report["outputs"] = {
        "generic": result.generic,
        "character": _plain(result.character),
        "value": None if result.value is None else _tagged(result.value, method),
    }
    return EXIT_OK if result.generic else EXIT_NEGATIVE_VERDICT


def _cmd_hecke(payload: dict, args, report: dict) -> int:
    data = _higgs_data(payload)
    lambdas = _field(payload, "lambdas", list_from_json, items=fracvec_from_json)
    lattice = _field(payload, "lattice", str_from_json, default="GL", choices=("GL", *LATTICES))
    result = hecke_apply(data, lambdas, lattice=lattice)
    method = "exact cocharacter shift"
    report["outputs"] = {
        "data": higgs_to_json(result),
        "weights": _tagged([p.weight for p in result.punctures], method),
        "degrees": _tagged(result.summand_degrees, method),
    }
    return EXIT_OK


def _cmd_gr_res(payload: dict, args, report: dict) -> int:
    data = _higgs_data(payload)
    i = _field(payload, "puncture", int_from_json, default=0, lo=0, hi=len(data.punctures) - 1)
    graded = gr_res(data, i, **_tol(args))
    method = "residue projection onto ker(Ad(exp 2 pi i alpha) - 1)"
    report["outputs"] = {
        "puncture": i,
        "value": _tagged(graded.value, method),
        "semisimple": _tagged(graded.semisimple, method),
        "nilpotent": _tagged(graded.nilpotent, method),
        "torus_generator": _tagged(graded.torus_generator, method),
    }
    return EXIT_OK


def _cmd_translate_h2l(payload: dict, args, report: dict) -> int:
    real = _realization(payload)
    alpha = _field(payload, "alpha", list_from_json, items=real_from_json, length=real.n)
    s = _field(payload, "s", _matrix, n=real.n)
    y = _field(payload, "y", _matrix, n=real.n)
    convention = _convention(payload, report)
    entry = higgs_to_localsystem(alpha, s, y, real, convention=convention, **_tol(args))
    report["outputs"] = {"entry": entry_to_json(entry)}
    report["warnings"].extend(entry.branch_warnings)
    return EXIT_OK


def _cmd_translate_l2h(payload: dict, args, report: dict) -> int:
    real = _realization(payload)
    monodromy = _field(payload, "monodromy", _matrix, n=real.n)
    beta = _field(payload, "beta", _matrix, default=None, n=real.n)
    convention = _convention(payload, report)
    entry = localsystem_to_higgs(monodromy, real, beta=beta, convention=convention, **_tol(args))
    report["outputs"] = {"entry": entry_to_json(entry)}
    report["warnings"].extend(entry.branch_warnings)
    return EXIT_OK


def _q_term(term: Any, location: str) -> tuple[int, int, complex]:
    j, k, a = list_from_json(term, location, length=3)
    return (
        int_from_json(j, location + "[0]"),
        int_from_json(k, location + "[1]"),
        complex_from_json(a, location + "[2]"),
    )


def _cmd_hitchin_section(payload: dict, args, report: dict) -> int:
    data = hitchin_section(
        _field(payload, "mode", str_from_json, choices=SECTION_MODES),
        _field(payload, "genus", int_from_json, lo=0),
        _field(payload, "n_punctures", int_from_json, lo=0),
        q_terms=_field(
            payload,
            "q_terms",
            list_from_json,
            default=None,
            items=lambda terms, loc: list_from_json(terms, loc, _q_term),
        ),
        rank=_field(payload, "rank", int_from_json, default=2),
    )
    method = "section construction from differentials"
    report["outputs"] = {
        "data": higgs_to_json(data),
        "weights": _tagged([p.weight for p in data.punctures], method),
        "degrees": _tagged(data.summand_degrees, method),
    }
    return EXIT_OK


def _cmd_toledo(payload: dict, args, report: dict) -> int:
    data = _higgs_data(payload)
    with _label_at("$.data.realization"):
        tau = toledo_invariant(data, signature=_signature(payload))
    report["outputs"] = {
        "tau": _tagged(tau, "exact character pairing"),
        "realization": data.realization,
    }
    return EXIT_OK


def _cmd_mw_check(payload: dict, args, report: dict) -> int:
    data = _higgs_data(payload)
    with _label_at("$.data.realization"):
        result = milnor_wood_check(
            data,
            signature=_signature(payload),
            rank_plus=_field(payload, "rank_plus", int_from_json, default=None, lo=0),
            rank_minus=_field(payload, "rank_minus", int_from_json, default=None, lo=0),
        )
    method = "exact character pairing"
    report["outputs"] = {
        "ok": result.ok,
        "tau": _tagged(result.tau, method),
        "rank_plus": result.rank_plus,
        "rank_minus": result.rank_minus,
        "margins": _tagged(result.margins, method),
        "side": result.side,
    }
    return EXIT_OK if result.ok else EXIT_NEGATIVE_VERDICT


def _cmd_ks_orbit(payload: dict, args, report: dict) -> int:
    real = _realization(payload)
    e = _field(payload, "e", _matrix, n=real.n)
    cert = kostant_sekiguchi_orbit_map(real, e)
    method = "complex-orbit invariants of e (Kostant-Sekiguchi keeps the G^C-orbit)"
    report["outputs"] = {
        "rank_sequence": _tagged(cert.rank_sequence, method),
        "component_signs": _tagged(cert.component_signs, method),
    }
    return EXIT_OK


def _extra_term(pair: Any, location: str, n: int) -> tuple[int, np.ndarray]:
    k, m = list_from_json(pair, location, length=2)
    return int_from_json(k, location + "[0]", lo=1), _matrix(m, location + "[1]", n)


def _cmd_verify_model(payload: dict, args, report: dict) -> int:
    real = _realization(payload)
    n = real.n
    alpha = _field(payload, "alpha", list_from_json, items=real_from_json, length=n)
    s = _field(payload, "s", _matrix, default=np.zeros((n, n), dtype=complex), n=n)
    y = _field(payload, "y", _matrix, default=None, n=n)
    extra = _field(
        payload, "extra_terms", list_from_json, default=[], items=functools.partial(_extra_term, n=n)
    )
    grid_spec = _field(payload, "grid", object_from_json)
    r_max = _field(grid_spec, "r_max", real_from_json, "$.grid")
    r_min = _field(grid_spec, "r_min", real_from_json, "$.grid")
    count = _field(grid_spec, "count", int_from_json, "$.grid")
    n_theta = _field(grid_spec, "n_theta", int_from_json, "$.grid", default=64)
    try:
        grid = radial_grid(r_max, r_min, count, n_theta=n_theta)
    except ValueError as exc:
        raise SchemaError("$.grid", str(exc)) from exc
    convention = _convention(payload, report)

    # the finite difference reads the connection at r (1 - fd_step) > 0
    fd_step = _field(payload, "fd_step", real_from_json, default=None, above=0, below=1)
    residual_kwargs = {} if fd_step is None else {"fd_step": fd_step}
    triple = None if y is None else complete_ks_triple(real, y)
    # the checks of the model data and the factors that do not depend on r,
    # once for the command
    transport = circle_transport(alpha, s, triple, real, convention=convention, **_tol(args))
    profile = hitchin_residual(
        alpha, s, triple, grid, real, extra_terms=tuple(extra), transport=transport, **residual_kwargs
    )
    rows = []
    for r, rho in zip(profile.radii, profile.rho):
        holonomy = holonomy_check(alpha, s, triple, r, real, transport=transport)
        rows.append(
            {
                "r": r,
                "rho": rho,
                "holonomy_deviation": holonomy.deviation_levi,
                "holonomy_deviation_full": holonomy.deviation_full,
                "ode_steps": holonomy.steps,
            }
        )
    if any(rows[i]["rho"] < rows[i + 1]["rho"] for i in range(len(rows) - 1)):
        report["warnings"].append("residual rho(r) is not monotone over the sampled radii")
    report["outputs"] = {
        "table": _plain(rows),
        "table_methods": {
            "rho": "sup over the theta grid of the weighted curvature residual",
            "holonomy_deviation": "closed-form circle holonomy vs elliptic*hyperbolic prediction",
            "holonomy_deviation_full": (
                "closed-form circle holonomy vs full three-factor prediction"
            ),
            "ode_steps": "always 0: the circle holonomy is computed in closed form",
        },
        "fd_mismatch": _tagged(
            profile.fd_mismatch, "central finite difference of the connection in r"
        ),
        "fd_step": _plain(profile.fd_step),
    }
    return EXIT_OK


def _discard(path: str) -> None:
    """Remove a regular file this run wrote; a device or FIFO is left alone."""
    try:
        if stat.S_ISREG(os.stat(path).st_mode):
            os.unlink(path)
    except OSError:
        pass  # nothing is left to remove, or it cannot be: the exit code already says so


def _write_residual_csv(path: str, table: list[dict]) -> None:
    lines = ["r,rho,holonomy_deviation"]
    for row in table:
        lines.append(f"{row['r']!r},{row['rho']!r},{row['holonomy_deviation']!r}")
    _write_file(path, "\n".join(lines) + "\n")


# name -> (handler, help line); the parser lists the commands in this order
_COMMANDS: dict[str, tuple[Callable[[dict, Any, dict], int], str]] = {
    "rootsys": (_cmd_rootsys, "print the exact root datum of a Cartan type"),
    "alcove-normalize": (
        _cmd_alcove_normalize,
        "canonical affine-Weyl representative of a rational weight",
    ),
    "parabolic": (_cmd_parabolic, "parabolic subalgebra attached to a boundary element"),
    "degree-relative": (
        _cmd_degree_relative,
        "relative degree of a pair, or a sampled reciprocity sweep",
    ),
    "degree-parabolic": (_cmd_degree_parabolic, "parabolic degree of one reduction certificate"),
    "stability": (_cmd_stability, "slope trichotomy over certificates or a bounded search"),
    "genericity": (_cmd_genericity, "no integer character vanishes on the weight tuple"),
    "hecke": (_cmd_hecke, "shift parabolic weights by cocharacter lattice vectors"),
    "gr-res": (_cmd_gr_res, "graded residue of the Higgs field at one puncture"),
    "ks-orbit": (_cmd_ks_orbit, "Kostant-Sekiguchi orbit certificate of a real nilpotent"),
    "translate-h2l": (_cmd_translate_h2l, "Higgs puncture data to local-system monodromy entry"),
    "translate-l2h": (_cmd_translate_l2h, "local-system monodromy to Higgs puncture entry"),
    "hitchin-section": (_cmd_hitchin_section, "Higgs data of a section defined by differentials"),
    "toledo": (_cmd_toledo, "Toledo invariant of Hermitian-type Higgs data"),
    "mw-check": (_cmd_mw_check, "Milnor-Wood window check for the Toledo invariant"),
    "verify-model": (_cmd_verify_model, "residual and holonomy table for the model metric"),
}


def cli_dispatch(argv: Sequence[str] | None = None) -> tuple[int, dict]:
    """Run one subcommand; return (exit code, report). Also emits the report."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        report = {
            "schema": REPORT_SCHEMA,
            "command": None,
            "argv": argv,
            "error": {"type": "UsageError", "message": str(exc)},
            "exit_code": EXIT_PRECONDITION,
        }
        sys.stderr.write(_render(report))
        return EXIT_PRECONDITION, report
    if args.command is None:
        parser.print_help()
        return EXIT_OK, {}

    report = _new_report(args.command, argv, args)
    csv_path = None
    try:
        raw, payload = _load_input(args)
        report["input_digest"] = "sha256:" + hashlib.sha256(raw).hexdigest()
        handler, _ = _COMMANDS[args.command]
        code = handler(object_from_json(payload), args, report)
        # a report is JSON, which has no NaN or Infinity: an overflow is a failure
        path = _first_non_finite(report["outputs"])
        if path is not None:
            report["outputs"] = {}
            raise NumericallyDefective(f"non-finite number at $.outputs{path}")
        if getattr(args, "csv", None):  # only a report that passed the check gets a CSV
            csv_path = args.csv
            _write_residual_csv(csv_path, report["outputs"]["table"])
    except (GridTooCoarse, SearchExhausted, NonConvergence, NumericallyDefective) as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = EXIT_NO_CONVERGENCE
    except SchemaError as exc:
        report["error"] = {
            "type": "SchemaError",
            "location": exc.location,
            "message": str(exc),
        }
        code = EXIT_PRECONDITION
    except (ValueError, TripleCompletionFailure, OSError) as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = EXIT_PRECONDITION
    report["exit_code"] = code
    try:
        _emit(report, args)
    except OSError as exc:  # the report has nowhere to go: send it where usage errors go
        report["error"] = {"type": type(exc).__name__, "message": f"cannot write the report: {exc}"}
        report["exit_code"] = code = EXIT_PRECONDITION
        sys.stderr.write(_render(report))
    if csv_path and code != EXIT_OK:  # a table must not outlive the run that failed
        _discard(csv_path)
    return code, report


def main(argv: Sequence[str] | None = None) -> int:
    code, _ = cli_dispatch(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
