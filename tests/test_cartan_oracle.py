"""Frozen oracle for ``cartan.alcove_normalize``.

``data/alcove_oracle.json`` holds 506 rational points, 22 for each of A2-A7,
B2-B7, C2-C7 and D3-D7 (simply connected), drawn by ``_sample_points()``
below with ``random.Random(ORACLE_SEED)``.  For each type and rank the draws
alternate between a point of the cube [-1, 1]^rank with a common denominator
of 1 to 8, and a point of the closed fundamental alcove, sum of c_i/den times
the fundamental coweights with the highest root at most 1, most of which lie
on walls and so need k > 1.

The stored k, lattice_vector, normalized and dominant (as 'p/q' strings) were
computed by ``alcove_normalize`` as of commit 99b97de, which carried the dense
reflection matrices w and w^-1 through the reduction and read the lattice
vector off w^-1.  The entries were written one per line with ``json.dumps``.
"""
import json
import random
from fractions import Fraction as Q
from pathlib import Path

from parhodge.cartan import alcove_normalize, build_root_datum

ORACLE_SEED = 20151104
ORACLE = json.loads((Path(__file__).parent / "data" / "alcove_oracle.json").read_text())


def _sample_points(seed=ORACLE_SEED, per_type=22):
    rng = random.Random(seed)
    cases = []
    for t in "ABCD":
        for rank in range(3 if t == "D" else 2, 8):
            coweights = build_root_datum(t, rank, "adjoint").cochar_lattice_basis
            highest = build_root_datum(t, rank).positive_roots[-1]
            marks = [sum(h * x for h, x in zip(highest, w)) for w in coweights]
            for i in range(per_type):
                den = rng.randint(1, 8)
                if i % 2 == 0:
                    point = [Q(rng.randint(-den, den), den) for _ in range(rank)]
                else:
                    point = _closed_alcove_point(rng, coweights, marks, den)
                cases.append((t, rank, point))
    return cases


def _closed_alcove_point(rng, coweights, marks, den):
    # spend a budget of at most den units of the highest root on coweights
    c = [0] * len(coweights)
    budget = rng.randint(1, den)
    while True:
        fits = [i for i, m in enumerate(marks) if m <= budget]
        if not fits:
            break
        i = rng.choice(fits)
        c[i] += 1
        budget -= marks[i]
    return [sum(Q(ci, den) * w[j] for ci, w in zip(c, coweights)) for j in range(len(coweights))]


def _strings(vec):
    return [f"{x.numerator}/{x.denominator}" for x in vec]


def test_fixture_points_are_the_documented_sample():
    assert [(c["type"], c["rank"], c["point"]) for c in ORACLE] == [
        (t, rank, _strings(point)) for t, rank, point in _sample_points()
    ]


def test_alcove_normalize_matches_frozen_oracle():
    root_data = {}
    mismatches = []
    for case in ORACLE:
        key = (case["type"], case["rank"])
        rd = root_data.get(key) or root_data.setdefault(key, build_root_datum(*key))
        res = alcove_normalize(rd, [Q(x) for x in case["point"]])
        got = {
            "k": res.k,
            "lattice_vector": _strings(res.lattice_vector),
            "normalized": _strings(res.normalized),
            "dominant": _strings(res.dominant),
        }
        if any(got[name] != case[name] for name in got):
            mismatches.append((case, got))
    assert len(ORACLE) >= 500
    assert not mismatches, mismatches[:3]
