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
import hashlib
import json
import sys
from fractions import Fraction
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
from .degree import NonConvergence, relative_degree
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
    realvec_from_json,
    str_from_json,
)
from .liealg import (
    ConvergenceFailure,
    NumericallyDefective,
    TripleCompletionFailure,
    UnsupportedGroup,
    build_realization,
    kostant_sekiguchi_orbit_map,
)
from .modelmetric import (
    GridTooCoarse,
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

# exact root data grow fast with the rank: B12 takes about 1.6 s, B16 about 7 s
_MAX_RANK = 12


class _UsageError(Exception):
    """Command line itself is malformed (unknown command, bad option)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep exit code 2 reserved for verdicts
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="parhodge", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", metavar="FILE", help="JSON input document")
        p.add_argument("--output", metavar="FILE", help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, default=None, help="RNG seed for sampled instances")
        p.add_argument(
            "--tolerance", type=float, default=None, help="override the default numeric tolerance"
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


def _build_realization(label: str, location: str):
    try:
        return build_realization(label)
    except UnsupportedGroup as exc:
        raise SchemaError(location, str(exc)) from exc


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


def _render(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _emit(report: dict, args) -> None:
    text = _render(report)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
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
    s = _field(payload, "s", matrix_from_json)
    space = _field(payload, "space", str_from_json, default="g^C")
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
    s = _field(payload, "s", matrix_from_json)
    sigma = _field(payload, "sigma", matrix_from_json)
    result = relative_degree(s, sigma, **_tol(args))
    report["outputs"] = {
        "value": _tagged(result.value, result.method),
        "converged": result.converged,
        "t_final": _tagged(result.t_trace[-1][0], result.method),
        "trace_length": len(result.t_trace),
    }
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _cmd_degree_parabolic(payload: dict, args, report: dict) -> int:
    data = _higgs_data(payload)
    red = _reduction_from_json(payload, "$")
    pardeg = pardeg_reduction(data, red)
    central = sum((Fraction(a) * Fraction(b) for a, b in zip(data.c, red.chi)), Fraction(0))
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


def _cmd_genericity(payload: dict, args, report: dict) -> int:
    result = genericity_check(
        _field(payload, "weights", list_from_json, items=fracvec_from_json),
        max_combinations=_field(payload, "max_combinations", int_from_json, default=200000),
    )
    method = "exhaustive integer-character enumeration"
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
    alpha = _field(payload, "alpha", realvec_from_json)
    s = _field(payload, "s", matrix_from_json)
    y = _field(payload, "y", matrix_from_json)
    convention = _convention(payload, report)
    entry = higgs_to_localsystem(alpha, s, y, real, convention=convention, **_tol(args))
    report["outputs"] = {"entry": entry_to_json(entry)}
    report["warnings"].extend(entry.branch_warnings)
    return EXIT_OK


def _cmd_translate_l2h(payload: dict, args, report: dict) -> int:
    real = _realization(payload)
    monodromy = _field(payload, "monodromy", matrix_from_json)
    beta = _field(payload, "beta", matrix_from_json, default=None)
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
    tau = toledo_invariant(data, signature=_signature(payload))
    report["outputs"] = {
        "tau": _tagged(tau, "exact character pairing"),
        "realization": data.realization,
    }
    return EXIT_OK


def _cmd_mw_check(payload: dict, args, report: dict) -> int:
    data = _higgs_data(payload)
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
    e = _field(payload, "e", matrix_from_json)
    cert = kostant_sekiguchi_orbit_map(real, e, **_tol(args))
    method = "Jacobson-Morozov plus Cayley transform"
    report["outputs"] = {
        "rank_sequence": _tagged(cert.rank_sequence, method),
        "component_signs": _tagged(cert.component_signs, method),
    }
    return EXIT_OK


def _extra_term(pair: Any, location: str) -> tuple[int, np.ndarray]:
    k, m = list_from_json(pair, location, length=2)
    return int_from_json(k, location + "[0]"), matrix_from_json(m, location + "[1]")


def _cmd_verify_model(payload: dict, args, report: dict) -> int:
    real = _realization(payload)
    alpha = _field(payload, "alpha", realvec_from_json)
    n = len(alpha)
    s = _field(payload, "s", matrix_from_json, default=np.zeros((n, n), dtype=complex))
    y = _field(payload, "y", matrix_from_json, default=None)
    triple = None if y is None else complete_ks_triple(real, y)
    grid_spec = _field(payload, "grid", object_from_json)
    r_max = _field(grid_spec, "r_max", real_from_json, "$.grid")
    r_min = _field(grid_spec, "r_min", real_from_json, "$.grid")
    count = _field(grid_spec, "count", int_from_json, "$.grid")
    n_theta = _field(grid_spec, "n_theta", int_from_json, "$.grid", default=64)
    try:
        grid = radial_grid(r_max, r_min, count, n_theta=n_theta)
    except ValueError as exc:
        raise SchemaError("$.grid", str(exc)) from exc
    extra_terms = _field(payload, "extra_terms", list_from_json, default=[], items=_extra_term)
    convention = _convention(payload, report)

    residual_kwargs = _tol(args)
    fd_step = _field(payload, "fd_step", real_from_json, default=None, above=0)
    if fd_step is not None:
        residual_kwargs["fd_step"] = fd_step
    profile = hitchin_residual(
        alpha, s, triple, grid, real, extra_terms=tuple(extra_terms), **residual_kwargs
    )
    rows = []
    for r, rho in zip(profile.radii, profile.rho):
        holonomy = holonomy_check(
            alpha, s, triple, r, real, convention=convention, **_tol(args)
        )
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
    if args.csv:
        lines = ["r,rho,holonomy_deviation"]
        for row in rows:
            lines.append(f"{row['r']!r},{row['rho']!r},{row['holonomy_deviation']!r}")
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


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
    try:
        raw, payload = _load_input(args)
        report["input_digest"] = "sha256:" + hashlib.sha256(raw).hexdigest()
        handler, _ = _COMMANDS[args.command]
        code = handler(object_from_json(payload), args, report)
    except (
        ConvergenceFailure,
        GridTooCoarse,
        SearchExhausted,
        NonConvergence,
        NumericallyDefective,
    ) as exc:
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
    _emit(report, args)
    return code, report


def main(argv: Sequence[str] | None = None) -> int:
    code, _ = cli_dispatch(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
