"""Ratchet on test-only code in ``src/``.

A top-level definition in ``src/parhodge`` counts as referenced only when
another part of ``src/`` names it in code: an ``ast.Name`` outside the
definition's own body, or an alias in a relative ``from .x import``.
Docstrings, comments, strings and attributes (``json.dumps`` names no
``dumps``) do not count.  A definition that nothing in ``src/`` names is
reached only from tests, ``bench/`` or library users.  Each one is either a
paper statement kept on purpose, listed below with its reason, or an oracle
that belongs under ``tests/``.  A new one fails here until it is moved into
``tests/``, deleted, or added to the list with a reason.
"""

import ast
from pathlib import Path

import parhodge

SRC = Path(parhodge.__file__).parent

KNOWN_UNREFERENCED = {
    # the cocharacter-lattice test of lambda that the alcove acceptance gate and the benchmark oracle read
    "cartan.cochar_contains",
    # the local-system side of the degree equality
    "degree.local_system_degree",
    # the flow the three relative-degree acceptance gates test; bench/tracing.py reads its t_trace
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
    # these three state one thing: at a wall weight the bounded pole gauge exp(n/z) moves GrRes by Ad(e^n)
    "parhiggs.conjugate_laurent",
    "parhiggs.exp_pole_gauge",
    "parhiggs.is_parabolic_gauge",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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
