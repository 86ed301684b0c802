"""Ratchets on test-only code and never-set options in ``src/``.

A top-level definition in ``src/parhodge`` counts as referenced only when
another part of ``src/`` names it in code: an ``ast.Name`` outside the
definition's own body, or an alias in a relative ``from .x import``.
Docstrings, comments, strings and attributes (``json.dumps`` names no
``dumps``) do not count.  A definition that nothing in ``src/`` names is
reached only from tests, ``bench/`` or library users.  Each one is either a
paper statement kept on purpose, listed below with its reason, or an oracle
that belongs under ``tests/``.  A new one fails here until it is moved into
``tests/``, deleted, or added to the list with a reason.

A defaulted parameter of a function or method in ``src/`` counts as set
when some call in ``src/`` sets it: by position, by keyword, or through
``*``/``**``.  A function passed as a value (an ``ast.Name`` read other than
as the callee of a call, as the ``jsonio`` readers are) may be called with
anything, so all its parameters count as set.  Every other defaulted
parameter is an option no caller of the program uses: it becomes the
constant it always is, or it is listed below with its reason.

A member of a class in ``src/`` (a field, method or property) counts as
referenced when some code in ``src/`` names it: as an attribute
(``x.member``) or as a keyword (``Class(member=...)``).  Dunder methods,
which Python calls itself, are left out.  Every other member is deleted or
listed below with its reason.
"""

import ast
from pathlib import Path

import parhodge

SRC = Path(parhodge.__file__).parent

KNOWN_UNREFERENCED = {
    # the cocharacter-lattice test of lambda that the alcove acceptance gate and the benchmark oracle read
    "cartan.cochar_contains",
    # the open-star test: alcove_normalize lands in the open star by construction, and the alcove
    # acceptance gate and the benchmark oracle check its result with this
    "cartan.in_A_prime",
    # the local-system side of the degree equality
    "degree.local_system_degree",
    # the nilpotency test, the Jacobson-Morozov completion and the m^C orbit certificate of one
    # element: complete_ks_triple reads the test and the certificate off one kernel flag it has
    # already taken and its triple in closed form, and the acceptance gates (the KS orbit map, the
    # SL2R section's residues) read all three on their own
    "liealg.is_nilpotent",
    "liealg.jacobson_morozov",
    "nahodge.y_orbit_certificate",
    # the torus rescaling of a normal triple: complete_ks_triple reads its triple in closed form at the
    # zero of the moment map instead; BENCHMARK.json names the per-layer metrics of this function, which
    # bench/test_bench_smoke.py resolves, and the Jacobson-Morozov oracle of the closed form calls it
    "liealg.normalize_kostant_sekiguchi",
    # the QR flow: no CLI path runs it; the three relative-degree acceptance gates test it, and
    # bench/tracing.py reads its t_trace
    "degree.relative_degree",
    # analytic and finite-difference curvature of the model connection, read by the residual acceptance gate
    "modelmetric.curvature_pair",
    # the adapted metric h0 of the local model
    "modelmetric.model_metric_eval",
    # the weight as the inverse translation reports it, read by the round-trip gate and bench/workloads.py
    "nahodge.canonical_alpha",
    # the reader of the record entry_to_json writes
    "nahodge.entry_from_json",
    # the residue space and stabilizer, which grow when alpha lies on an alcove wall
    "parabolic.levi_centralizer_tilde",
    # the gauge directions n/z, nonzero exactly when alpha lies on an alcove wall
    "parabolic.p1_subalgebra",
    # the bases of p_s, l_s and n_s; the CLI reads their dimensions from parabolic_grading
    "parabolic.parabolic_from",
    # these three state one thing: at a wall weight the bounded pole gauge exp(n/z) moves GrRes by Ad(e^n)
    "parhiggs.conjugate_laurent",
    "parhiggs.exp_pole_gauge",
    "parhiggs.is_parabolic_gauge",
}

# module.Class.member -> why a class member that no src/ code names is kept
KNOWN_UNNAMED_MEMBERS = {
    "cli._Parser.error": "the argparse override that keeps exit code 2 for verdicts; argparse calls it",
}

# module.function:parameter -> why an option that only tests set is kept
KNOWN_UNSET = {
    "cartan.in_A_prime:scope": "the open star on g, which adds the m-weights of the real form to the roots",
    "cartan.in_A_prime:m_weights": "the m-weights that the open star on g reads",
    "cli.main:argv": "the console entry point reads sys.argv; a list runs one command in process",
    "degree.local_system_degree:zeta": "the central twist <zeta, s> of the local-system slope, as c is "
    "on the Higgs side",
    "liealg.jordan_additive:tol": "the eigenvalue merge radius jordan_multiplicative also takes, set to 1e-6 "
    "by the dictionary; the near-defective test reads the additive split at that radius",
    "modelmetric.curvature_pair:fd_step": "the residual acceptance gate halves the step to read the "
    "second-order convergence of the finite difference",
    "modelmetric.holonomy_check:convention": "the scale 2*pi*i or 2*pi of the noncompact exponent; the CLI "
    "hands it over inside the circle transport",
    "parabolic.parabolic_from:space": "the model subspace of the grading, as the CLI passes it to "
    "parabolic_grading",
    "parabolic.parabolic_from:tol": "the eigenvalue cluster radius, as the CLI passes it to parabolic_grading",
    "parhiggs.make_data:flags": "an explicit flag at a puncture, the parabolic structure off the coordinate "
    "frame of the weight; from_json builds it directly",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unreferenced_defs(sources: dict[str, str]) -> set[str]:
    """``module.name`` of every top-level definition in ``sources`` (module
    name -> source text) that no code outside its own body names."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    named = set()  # (name, (module, the top-level definition it sits in))
    for module, tree in trees.items():
        for top in tree.body:
            owner = (module, top.name if isinstance(top, _DEFS) else None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    named.add((node.id, owner))
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    named.update((alias.name, owner) for alias in node.names)
    return {
        f"{module}.{top.name}"
        for module, tree in trees.items()
        for top in tree.body
        if isinstance(top, _DEFS)
        and not any(name == top.name and owner != (module, top.name) for name, owner in named)
    }


def test_no_new_test_only_definitions_in_src():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert _unreferenced_defs(sources) == KNOWN_UNREFERENCED


def test_the_ratchet_reads_code_not_words():
    sources = {
        "a": (
            "import json\n"
            "\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)  # named only in its own body\n"
            "\n"
            "def dumps(x):\n"
            "    return x\n"
            "\n"
            "def caller(x):\n"
            '    """dumps, in a docstring."""\n'
            "    # dumps, in a comment\n"
            "    return json.dumps(x, default='dumps')\n"
            "\n"
            "def helper():\n"
            "    return 1\n"
            "\n"
            "VALUE = helper()\n"
        ),
        "b": "from .a import caller\n\n\ndef entry(x):\n    return caller(x)\n",
    }
    assert _unreferenced_defs(sources) == {"a.recursive", "a.dumps", "b.entry"}


def _unnamed_members(sources: dict[str, str]) -> set[str]:
    """``module.Class.member`` of every field, method or property of a class in
    ``sources`` (module name -> source text) that no code there names as an
    attribute or a keyword; dunder methods are left out."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                named.add(node.arg)
    unnamed = set()
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, _FUNCTIONS):
                    names = [node.name]
                elif isinstance(node, ast.AnnAssign):
                    names = [node.target.id] if isinstance(node.target, ast.Name) else []
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                else:
                    continue
                unnamed.update(
                    f"{module}.{cls.name}.{name}"
                    for name in names
                    if name not in named and not (name.startswith("__") and name.endswith("__"))
                )
    return unnamed


def test_no_new_unnamed_class_members_in_src():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert _unnamed_members(sources) == set(KNOWN_UNNAMED_MEMBERS)
    assert all(reason.strip() for reason in KNOWN_UNNAMED_MEMBERS.values())


def test_the_member_ratchet_reads_attributes_and_keywords():
    sources = {
        "a": (
            "from dataclasses import dataclass\n"
            "\n"
            "@dataclass(frozen=True)\n"
            "class Point:\n"
            "    x: int\n"
            "    y: int  # set by keyword only\n"
            "    z: int = 0\n"
            "    LIMIT = 3\n"
            "\n"
            "    def __post_init__(self):\n"
            "        pass\n"
            "\n"
            "    @property\n"
            "    def norm(self):\n"
            '        """x, y, z and norm, in a docstring."""\n'
            "        return self.x\n"
            "\n"
            "    def scaled(self, c):\n"
            "        return Point(self.x * c, y=0)\n"
            "\n"
            "def caller(p):\n"
            "    return p.scaled(2), 'z'\n"
        ),
    }
    assert _unnamed_members(sources) == {"a.Point.z", "a.Point.LIMIT", "a.Point.norm"}


def _functions(body, prefix: str = "", in_class: bool = False):
    """(qualified name, node, is a method) of every function under ``body``,
    nested ones included; a static method takes no instance."""
    for node in body:
        if isinstance(node, _FUNCTIONS):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            yield prefix + node.name, node, in_class and not static
            yield from _functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.", in_class=True)


def _sets(call: ast.Call, positional: list[str], name: str) -> bool:
    if any(k.arg in (None, name) for k in call.keywords):  # name=... or **kwargs
        return True
    if name not in positional:
        return False
    return positional.index(name) < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args)


def _unset_parameters(sources: dict[str, str]) -> set[str]:
    """``module.function:parameter`` of every defaulted parameter in
    ``sources`` (module name -> source text) that no call there sets.  Calls
    match a function by name; a method called as ``obj.method(...)`` gets
    ``obj`` as its first parameter, so the arguments start at the second."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls: dict[str, list[tuple[ast.Call, bool]]] = {}  # callee name -> (call, through an attribute)
    values = set()  # names read other than as the callee of a call
    for tree in trees.values():
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callees.add(node.func)
                if isinstance(node.func, ast.Name):
                    calls.setdefault(node.func.id, []).append((node, False))
                elif isinstance(node.func, ast.Attribute):
                    calls.setdefault(node.func.attr, []).append((node, True))
        values |= {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node not in callees
        }
    unset = set()
    for module, tree in trees.items():
        for qualname, fn, method in _functions(tree.body):
            if fn.name in values:
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args]
            defaulted = params[len(params) - len(args.defaults):] + [
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            for name in defaulted:
                if not any(
                    _sets(call, params[1:] if method and attribute else params, name)
                    for call, attribute in calls.get(fn.name, ())
                ):
                    unset.add(f"{module}.{qualname}:{name}")
    return unset


def test_no_new_never_set_options_in_src():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert _unset_parameters(sources) == set(KNOWN_UNSET)
    assert all(reason.strip() for reason in KNOWN_UNSET.values())


def test_the_parameter_ratchet_sees_every_way_to_set_an_option():
    sources = {
        "a": (
            "def knobs(x, by_position=1, by_keyword=2, *, never=3, only_keyword=4):\n"
            "    return x\n"
            "\n"
            "def spread(x, by_spread=5):\n"
            "    return x\n"
            "\n"
            "def reader(x, lo=0):\n"
            "    return x\n"
            "\n"
            "def starred(x, tail=0):\n"
            "    return x\n"
            "\n"
            "class Model:\n"
            "    def check(self, x, tol=1e-9):\n"
            "        return x\n"
            "\n"
            "    def unused(self, x, tol=1e-9):\n"
            "        return x\n"
        ),
        "b": (
            "from .a import knobs, spread, reader, starred, Model\n"
            "\n"
            "def caller(parse, options, rest):\n"
            "    knobs(0, 1, by_keyword=2, only_keyword=4)\n"
            "    spread(0, **options)\n"
            "    starred(*rest)\n"
            "    Model().check(0, 1e-6)\n"
            "    Model().unused(0)  # the instance is not the first argument\n"
            "    return parse(reader)\n"
        ),
    }
    assert _unset_parameters(sources) == {"a.knobs:never", "a.Model.unused:tol"}


def test_the_parameter_ratchet_fails_on_a_planted_knob():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    sources["liealg"] += "\n\ndef planted(x, knob=1.0):\n    return x * knob\n\n\nPLANTED = planted(2.0)\n"
    assert _unset_parameters(sources) == set(KNOWN_UNSET) | {"liealg.planted:knob"}


def _dotted(node) -> str:
    """``np.linalg.norm`` for the attribute chain that spells it, else ""."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


# module.function -> why a plain Frobenius np.linalg.norm call there stays
KNOWN_PLAIN_NORMS = {
    "degree.relative_position": "the norm of one column of magnitudes, all at most 1, in the pivot "
    "search; the pair mode of degree-relative calls it n times per position",
}


def _generic_small_matrix_calls(sources: dict[str, str], plain_ok) -> set[str]:
    """``module:line`` of every call in ``sources`` that liealg has a helper
    for: np.linalg.norm(a) with neither ord nor axis (hs_norm, which warns of
    no overflow and stays finite past it), np.linalg.norm(a, 2)
    (spectral_norm), np.linalg.matrix_rank (numerical_rank) and
    np.stack((a.real, a.imag), ...) (the float view matrix_to_json takes).
    A plain norm inside a ``module.function`` of ``plain_ok`` is left out."""
    found = set()
    for module, text in sources.items():
        tree = ast.parse(text)
        kept = {
            id(node)
            for name, fn, _ in _functions(tree.body)
            if f"{module}.{name}" in plain_ok
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            ords = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
            spectral = name == "np.linalg.norm" and any(
                isinstance(o, ast.Constant) and o.value == 2 for o in ords
            )
            plain = (
                name == "np.linalg.norm"
                and not ords
                and not any(k.arg == "axis" for k in node.keywords)
                and id(node) not in kept
            )
            parts = node.args[0] if name == "np.stack" and node.args else None
            stacked = isinstance(parts, (ast.Tuple, ast.List)) and [
                getattr(e, "attr", None) for e in parts.elts
            ] == ["real", "imag"]
            if spectral or plain or stacked or name == "np.linalg.matrix_rank":
                found.add(f"{module}:{node.lineno}")
    return found


def test_small_matrix_norms_and_ranks_go_through_the_liealg_helpers():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert _generic_small_matrix_calls(sources, KNOWN_PLAIN_NORMS) == set()
    assert all(reason.strip() for reason in KNOWN_PLAIN_NORMS.values())


def test_the_small_matrix_ratchet_sees_each_spelling():
    sources = {
        "a": (
            "import numpy as np\n"
            "\n"
            "def f(a):\n"
            "    x = np.linalg.norm(a, 2)\n"
            "    y = np.linalg.norm(a, ord=2)\n"
            "    r = np.linalg.matrix_rank(a, tol=1e-9)\n"
            "    p = np.stack((a.real, a.imag), -1)\n"
            "    q = np.stack([a.real, a.imag], axis=-1)\n"
            "    return np.linalg.norm(a), np.linalg.norm(a, 1), np.stack((a, a)), x, y, r, p, q\n"
            "\n"
            "def g(a):\n"
            "    n = np.linalg.norm(a)\n"
            "    return n, np.linalg.norm(a, 2), np.linalg.norm(a, axis=(-2, -1))\n"
        ),
    }
    spelled = {"a:4", "a:5", "a:6", "a:7", "a:8", "a:9", "a:13"}
    assert _generic_small_matrix_calls(sources, {"a.g"}) == spelled
    assert _generic_small_matrix_calls(sources, set()) == spelled | {"a:12"}
