"""Ratchet on test-only code in ``src/``.

A top-level definition in ``src/parhodge`` that no other line of ``src/``
names is reached only from tests, ``bench/`` or library users.  Each one is
either a paper statement kept on purpose or an oracle that belongs under
``tests/``; the list below names the ones known today.  A new one fails here
until it is moved into ``tests/`` or added to the list with a reason.
"""

import ast
import re
from pathlib import Path

import parhodge

SRC = Path(parhodge.__file__).parent

KNOWN_UNREFERENCED = {
    "cartan.cochar_contains",  # the cocharacter-lattice test of lambda that the acceptance gate and the benchmark oracle read
    "degree.local_system_degree",
    "modelmetric.model_metric_eval",  # the adapted metric h0 of the local model, a paper statement
    "nahodge.canonical_alpha",
    "nahodge.entry_from_json",  # the reader of the record entry_to_json writes
    "nahodge.puncture_entry",
    "parabolic.chi_vanishing_defect",
    "parabolic.levi_centralizer_tilde",
    "parabolic.p1_subalgebra",
    "parhiggs.conjugate_laurent",
    "parhiggs.is_parabolic_gauge",
    "parhiggs.validate",
}


def _unreferenced_defs() -> set[str]:
    texts = {path: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    lines = [(path, number, line) for path, text in texts.items() for number, line in enumerate(text.splitlines(), 1)]
    found = set()
    for path, text in texts.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(line) and (p, n) != (path, node.lineno) for p, n, line in lines):
                found.add(f"{path.stem}.{node.name}")
    return found


def test_no_new_test_only_definitions_in_src():
    assert _unreferenced_defs() == KNOWN_UNREFERENCED
