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

if __name__ == "__main__":  # python -m parhodge.cli: before numpy is imported
    from . import one_blas_thread

    one_blas_thread()

import argparse
import functools
import hashlib
import math
import os
import stat
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_string
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
from .degree import relative_position, relative_positions
from .jsonio import (
    SchemaError,
    bool_from_json,
    complex_from_json,
    field_from_json as _field,
    frac_from_json,
    frac_to_json,
    fracvec_from_json,
    int_from_json,
    int_text,
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
    NotThetaFixed,
    NumericallyDefective,
    TripleCompletionFailure,
    UnsupportedGroup,
    build_realization,
    hs_norm,
    hs_norms,
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
from .parabolic import parabolic_grading
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

# a section writes an n x n matrix per puncture and per differential term
_MAX_SECTION_RANK = 16
_MAX_PUNCTURES = 64
_MAX_Q_TERMS = 16  # per puncture

# a sampled pair costs two n x n relative positions, about 0.25 ms at n = 16 in
# the stacked sweep (10000 pairs of GL(16,C) in about 2.5 s)
_MAX_SAMPLE_N = 16
# pairs in one stacked pass of the sample sweep, so its memory does not grow with the count
_PASS_PAIRS = 64


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


# field -> (the type its value is read by, metavar, help line) of every
# command's options, spelled "--" + field; the parser and _direct_args read it
_OPTIONS = {
    "input": (str, "FILE", "JSON input document"),
    "output": (str, "FILE", "write the report here instead of stdout"),
    "seed": (int, None, "RNG seed for sampled instances"),
    "tolerance": (_tolerance, None, "override the default numeric tolerance"),
}
_VERIFY_MODEL_OPTIONS = {**_OPTIONS, "csv": (str, "FILE", "also write the residual table as CSV")}


def _options(command: str) -> dict:
    return _VERIFY_MODEL_OPTIONS if command == "verify-model" else _OPTIONS


@functools.cache  # built by the first argv that _direct_args leaves to it, then shared
def _build_parser() -> _Parser:
    # no abbreviated options: an unechoed sink spelled "--out" would enter the
    # report's argv and change its bytes
    parser = _Parser(prog="parhodge", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for field, (read, metavar, option_help) in _options(name).items():
            p.add_argument("--" + field, type=read, metavar=metavar, help=option_help)
    return parser


def _direct_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of ``COMMAND --opt VALUE ...`` without argparse: each
    option one of the command's own, given once, each value non-empty and not
    starting with "-".  None for any other argv, and for a value its type
    refuses; the parser then reads it, and gives every help and usage text."""
    if len(argv) % 2 == 0 or argv[0] not in _COMMANDS:
        return None
    options = _options(argv[0])
    fields = dict.fromkeys(options)
    for option, value in zip(argv[1::2], argv[2::2]):
        field = option[2:]
        if option[:2] != "--" or field not in options or fields[field] is not None:
            return None  # not an option of the command, or given twice
        if not value or value[0] == "-":
            return None
        try:
            fields[field] = options[field][0](value)
        except (ValueError, argparse.ArgumentTypeError):
            return None
    return argparse.Namespace(command=argv[0], **fields)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, read directly when it can be."""
    args = _direct_args(argv)
    return args if args is not None else _build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------


def _as_pathlib_reads(path: str) -> str:
    """``path`` as pathlib reads it on POSIX, without pathlib, which interns
    every part and so grows the peak memory over many commands."""
    lead = len(path) - len(path.lstrip("/"))
    root = "//" if lead == 2 else "/" if lead else ""
    return root + "/".join(part for part in path.split("/") if part not in ("", ".")) or "."


def _load_input(args) -> tuple[bytes, Any]:
    if args.input is None:
        raise SchemaError("$", "this command requires --input FILE")
    with open(_as_pathlib_reads(args.input), "rb") as f:
        raw = f.read()
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


def _signature(payload: dict, n: int) -> tuple[int, int] | None:
    """The signature (p, q) of a rank-n Hermitian form, if the input gives one."""
    raw = _field(payload, "signature", list_from_json, default=None, length=2)
    if raw is None:
        return None
    p, q = (int_from_json(x, f"$.signature[{i}]", lo=0) for i, x in enumerate(raw))
    if p + q != n:
        raise SchemaError("$.signature", f"expected p + q = {n}, the rank of the data, got {p} + {q}")
    return p, q


def _convention(payload: dict, report: dict) -> str:
    """The monodromy scale convention of the input, echoed in the report header."""
    convention = _field(payload, "convention", str_from_json, default="2pi_i", choices=CONVENTIONS)
    report["conventions"]["monodromy_scale"] = convention
    return convention


def _higgs_data(payload: dict):
    return higgs_from_json(_field(payload, "data", object_from_json))


def _reduction_from_json(obj: Any, location: str, n: int) -> ReductionCertificate:
    """A reduction of rank-n data: chi gives one value per coordinate."""
    obj = object_from_json(obj, location)
    return ReductionCertificate(
        label=_field(obj, "label", str_from_json, location, default="reduction"),
        chi=_field(obj, "chi", fracvec_from_json, location, length=n),
        phi_compatible=_field(obj, "phi_compatible", bool_from_json, location, default=True),
        degree=_field(obj, "degree", frac_from_json, location, default=None),
        levi_reduction=_field(obj, "levi_reduction", bool_from_json, location, default=None),
    )


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _plain(obj: Any) -> Any:
    """Recursively convert results to deterministic JSON-serializable values."""
    convert = _PLAIN.get(type(obj))
    if convert is not None:
        return convert(obj)
    # a subclass or a numpy scalar: np.float64 is a float, np.bool_ is no bool
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


def _same(obj: Any) -> Any:
    return obj


_COPIED = {str, type(None), bool, int, float}


def _plain_sequence(seq: list | tuple) -> list:
    kinds = set(map(type, seq))
    if kinds <= _COPIED:
        return list(seq)
    if kinds == {Fraction}:
        return list(map(frac_to_json, seq))
    return [_plain(x) for x in seq]


def _plain_array(a: np.ndarray) -> list:
    if a.ndim == 2:
        return matrix_to_json(a)
    # tolist gives the Python scalars _plain would make of numpy's
    return [_plain(x) for x in (a.tolist() if a.ndim == 1 else a)]


# _plain by exact type
_PLAIN: dict[type, Callable[[Any], Any]] = {
    **dict.fromkeys(_COPIED, _same),
    Fraction: frac_to_json,
    complex: lambda z: [z.real, z.imag],
    np.ndarray: _plain_array,
    dict: lambda d: {str(k): _plain(v) for k, v in d.items()},
    list: _plain_sequence,
    tuple: _plain_sequence,
}


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


_NUMBER = {int, float}


def _first_non_finite(value: Any) -> str | None:
    """Path below ``value`` to its first NaN or infinite number, in rendered
    (sorted-key) order, as ".key[i]..."; None when every number is finite."""
    if isinstance(value, float):
        return None if math.isfinite(value) else ""
    if isinstance(value, dict):
        items, step = sorted(value.items()), ".{}"
    elif isinstance(value, (list, tuple)):
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
    (the oracle of tests/test_cli.py) for a report whose keys are strings.

    An integer past Python's limit on the digits of an int-to-str conversion
    is spelled out exactly all the same: int.__repr__ refuses it with a
    ValueError, and the report is rendered again with its digits."""
    try:
        return _json_text(report, "\n") + "\n"
    except ValueError:
        return _json_text(_with_digits(report), "\n") + "\n"


class _Digits(str):
    """The decimal digits of an int, rendered bare, as JSON spells the int."""


def _with_digits(value: Any) -> Any:
    """value with each int that int.__repr__ refuses replaced by its _Digits."""
    if type(value) is int:
        try:
            int.__repr__(value)
        except ValueError:
            return _Digits(int_text(value))
        return value
    if isinstance(value, dict):
        return {key: _with_digits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_with_digits(item) for item in value]
    return value


def _json_float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


_JSON_SCALAR = {
    str: _json_string,
    _Digits: str.__str__,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


_LIST, _PAIR = {list}, {2}


def _pairs_text(rows: list | tuple, newline: str) -> str | None:
    """_json_text of non-empty rows of finite numbers, or of [re, im] pairs of
    them as matrix_to_json writes a matrix, from one repr; None for any other
    lists."""
    items = list(chain.from_iterable(rows))
    depth = 3 if set(map(type, items)) == _LIST and set(map(len, items)) == _PAIR else 2
    if depth == 3:
        items = list(chain.from_iterable(items))
    if not all(rows) or not set(map(type, items)) <= _NUMBER:
        return None
    text = repr(list(rows))
    if "n" in text:  # a nan or inf
        return None
    ind = [newline + "  " * k for k in range(depth + 1)]  # the line break at each depth
    text = text[depth:-depth]
    for k in range(depth - 1, 0, -1):  # "]], [[" before the "], [" inside it
        close = "".join(i + "]" for i in reversed(ind[depth - k : depth]))
        text = text.replace("]" * k + ", " + "[" * k, close + "," + "[".join(ind[depth - k :]))
    return "[" + "[".join(ind[1:]) + text.replace(", ", "," + ind[depth]) + "".join(i + "]" for i in reversed(ind[:-1]))


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
        elif kinds == _LIST:
            text = _pairs_text(value, newline)
            if text is not None:
                return text
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


def _failed(report: dict, code: int, **error) -> str:
    """Record the error and exit code in report; its rendered text."""
    report["error"] = error
    report["exit_code"] = code
    return _render(report)


def _emit(text: str, args) -> None:
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
    point = _field(payload, "point", fracvec_from_json, length=rd.rank)
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
    try:
        grading = parabolic_grading(real, s, space, **_tol(args))
    except NotThetaFixed:
        raise SchemaError("$.s", f"ad(s) preserves {space} only when theta(s) = s; this s has a part in m^C") from None
    method = "ad-eigenvalue grading"
    report["outputs"] = {
        "space": space,
        "eigenvalues": _tagged(grading.eigenvalues, method),
        "dim_p": _tagged(grading.dim_p, method),
        "dim_l": _tagged(grading.dim_l, method),
        "dim_n": _tagged(grading.dim_n, method),
    }
    return EXIT_OK


def _sampled_pairs(n: int, rng: np.random.Generator, count: int):
    """The sweep's ``count`` pairs of unit-norm Hermitian n x n matrices, as
    (s, sigma) stacks of at most _PASS_PAIRS pairs.  The stream is read as
    drawing one pair at a time reads it: a matrix takes 2 n^2 normals (real
    part, then imaginary part), a pair two matrices in turn, and a matrix of
    norm < 1e-8 starts its pair over."""
    first = None  # the drawn first matrix of a pair
    while count:
        want = min(count, _PASS_PAIRS)
        count -= want
        pairs: list[tuple[np.ndarray, np.ndarray]] = []
        while len(pairs) < want:
            a = rng.standard_normal((2 * (want - len(pairs)) - (first is not None), 2, n, n))
            m = a[:, 0] + 1j * a[:, 1]
            m = (m + m.conj().swapaxes(1, 2)) / 2.0
            for x, norm in zip(m, hs_norms(m).tolist()):
                if norm < 1e-8:
                    first = None
                elif first is None:
                    first = x / norm
                else:
                    pairs.append((first, x / norm))
                    first = None
        yield np.array([p for p, _ in pairs]), np.array([q for _, q in pairs])


def _cmd_degree_relative(payload: dict, args, report: dict) -> int:
    if "sample" in payload:
        spec = object_from_json(payload["sample"], "$.sample")
        model = _field(spec, "model", str_from_json, "$.sample")
        real = _build_realization(model, "$.sample.model")
        if real.n > _MAX_SAMPLE_N:
            raise SchemaError("$.sample.model", f"expected a model of size n <= {_MAX_SAMPLE_N}, got {model}")
        count = _field(spec, "count", int_from_json, "$.sample", default=100, lo=1, hi=10_000)
        rng = np.random.default_rng(0 if args.seed is None else args.seed)
        worst = 0.0
        for s, sigma in _sampled_pairs(real.n, rng, count):
            for forward, backward in zip(*relative_positions(s, sigma, **_tol(args))):
                worst = max(worst, abs(forward.value - backward.value))
        report["outputs"] = {
            "model": model,
            "count": count,
            "max_reciprocity_gap": _tagged(worst, "bruhat relative position, both orders"),
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
    red = _reduction_from_json(payload, "$", data.n)
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
            payload,
            "reductions",
            list_from_json,
            default=[],
            items=functools.partial(_reduction_from_json, n=data.n),
        ),
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
    lambdas = _field(
        payload,
        "lambdas",
        list_from_json,
        length=len(data.punctures),
        items=functools.partial(fracvec_from_json, length=len(data.summand_degrees)),
    )
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


def _q_terms(terms: Any, location: str) -> list[tuple[int, int, complex]]:
    if isinstance(terms, list) and len(terms) > _MAX_Q_TERMS:
        raise SchemaError(location, f"expected at most {_MAX_Q_TERMS} terms at a puncture")
    return list_from_json(terms, location, _q_term)


def _cmd_hitchin_section(payload: dict, args, report: dict) -> int:
    data = hitchin_section(
        _field(payload, "mode", str_from_json, choices=SECTION_MODES),
        _field(payload, "genus", int_from_json, lo=0),
        _field(payload, "n_punctures", int_from_json, lo=0, hi=_MAX_PUNCTURES),
        q_terms=_field(payload, "q_terms", list_from_json, default=None, items=_q_terms),
        rank=_field(payload, "rank", int_from_json, default=2, lo=2, hi=_MAX_SECTION_RANK),
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
        tau = toledo_invariant(data, signature=_signature(payload, data.n))
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
            signature=_signature(payload, data.n),
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
    holonomy = holonomy_check(alpha, s, triple, profile.radii, real, transport=transport)
    rows = [
        {"r": r, "rho": rho, "holonomy_deviation": levi, "holonomy_deviation_full": full}
        for r, rho, levi, full in zip(
            profile.radii, profile.rho, holonomy.deviation_levi, holonomy.deviation_full
        )
    ]
    # the residual of the pure model is rounding noise of size eps * ||H||,
    # so a rise counts only beyond that level
    noise = 16 * sys.float_info.epsilon * (1 + (0.0 if triple is None else hs_norm(triple.x)))
    if any(b - a > noise for a, b in zip(profile.rho, profile.rho[1:])):
        report["warnings"].append("residual rho(r) is not monotone over the sampled radii")
    report["outputs"] = {
        "table": _plain(rows),
        "table_methods": {
            "rho": "sup over the theta grid of the weighted curvature residual",
            "holonomy_deviation": "closed-form circle holonomy vs elliptic*hyperbolic prediction",
            "holonomy_deviation_full": (
                "closed-form circle holonomy vs full three-factor prediction"
            ),
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
    try:
        args = _parse_args(argv)
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
        _build_parser().print_help()
        return EXIT_OK, {}

    report = _new_report(args.command, argv, args)
    csv_path = None
    try:
        raw, payload = _load_input(args)
        report["input_digest"] = "sha256:" + hashlib.sha256(raw).hexdigest()
        handler, _ = _COMMANDS[args.command]
        report["exit_code"] = handler(object_from_json(payload), args, report)
        text = _render(report)
        # a report is JSON, which has no NaN or Infinity: an overflow is a
        # failure.  Only a text that spells one can hold one; a string may
        # spell one too, and then the walk finds no number
        if "NaN" in text or "Infinity" in text:
            path = _first_non_finite(report["outputs"])
            if path is not None:
                report["outputs"] = {}
                raise NumericallyDefective(f"non-finite number at $.outputs{path}")
        if getattr(args, "csv", None):  # only a report that passed the check gets a CSV
            csv_path = args.csv
            _write_residual_csv(csv_path, report["outputs"]["table"])
    except (GridTooCoarse, SearchExhausted, NumericallyDefective) as exc:
        text = _failed(report, EXIT_NO_CONVERGENCE, type=type(exc).__name__, message=str(exc))
    except SchemaError as exc:
        text = _failed(
            report, EXIT_PRECONDITION, type="SchemaError", location=exc.location, message=str(exc)
        )
    except (ValueError, TripleCompletionFailure, OSError) as exc:
        text = _failed(report, EXIT_PRECONDITION, type=type(exc).__name__, message=str(exc))
    code = report["exit_code"]
    try:
        _emit(text, args)
    except OSError as exc:  # the report has nowhere to go: send it where usage errors go
        code = EXIT_PRECONDITION
        message = f"cannot write the report: {exc}"
        sys.stderr.write(_failed(report, code, type=type(exc).__name__, message=message))
    if csv_path and code != EXIT_OK:  # a table must not outlive the run that failed
        _discard(csv_path)
    return code, report


def main(argv: Sequence[str] | None = None) -> int:
    code, _ = cli_dispatch(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
