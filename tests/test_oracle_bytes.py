"""The grid oracle's values, pinned to the last bit.

``naive_grid_oracle`` scans every point with the full ratio, but on 4 leaves
the vector kind's naive scan takes seconds, so ``test_normest.py`` compares
only a few 4-leaf operators with it.  This file compares instead with the
``float.hex`` of ``grid_oracle_norm`` recorded once in
``tests/data/oracle_bytes.json``.

The cases are the 24 operators of the acceptance battery (``_tiny_operators``)
and seeded random operators on 2, 3 and 4 leaves (arity 2-4, depth 1-2, one
variant with a massless mu leaf): every kind at exponents whose power after
the square is 1 (p = 2, shifted r = 2, vector q = 2 with p = 2 or 4), 2
(p = 4, shifted r = 4, vector q = 4) or neither (p = 3, shifted r = 1.5,
vector (3, 1.5), (6, 4) and (3, 0.5)).  To record the values again, which
only a deliberate change of the numbers may do, run

    PYTHONPATH=src:tests python tests/test_oracle_bytes.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from martpara import Measure, OperatorHandle, grid_oracle_norm
from martpara.suite import _tiny_operators

from helpers import random_setup

DATA = Path(__file__).parent / "data" / "oracle_bytes.json"
SHAPES = [(2, 1), (3, 1), (2, 2), (4, 1)]
#: exponents whose power after the square is 1 or 2, on every shape
SQUARED = {
    "vector_paraproduct": [(4.0, 2.0), (2.0, 2.0), (4.0, 4.0)],
    "shifted": [(4.0, 2.0), (8.0, 2.0)],
    "positive": [(2.0, 2.0), (4.0, 2.0)],
    "paraproduct": [(2.0, 2.0), (4.0, 2.0)],
}
#: exponents with a power of neither 1 nor 2 after the square, on 2 and 3
#: leaves (the 4-leaf scans of these take about 1-2 s each, so three only)
NUMERIC = {
    "vector_paraproduct": [(6.0, 4.0), (3.0, 1.5), (3.0, 0.5)],
    "shifted": [(3.0, 2.0)],
    "positive": [(3.0, 2.0)],
    "paraproduct": [(3.0, 2.0)],
}
NUMERIC_4_LEAVES = [((2, 2), "vector_paraproduct", 6.0, 4.0), ((4, 1), "shifted", 3.0, 2.0),
                    ((2, 2), "positive", 3.0, 2.0)]
#: (kind, p, q) also run on binary depth 2 with the mass of leaf 1 of mu zeroed
DEAD_LEAF = [("vector_paraproduct", 4.0, 2.0), ("vector_paraproduct", 4.0, 4.0),
             ("shifted", 8.0, 2.0), ("paraproduct", 4.0, 2.0)]


def _exponents(arity, depth):
    for kind, pairs in SQUARED.items():
        yield from ((kind, p, q) for p, q in pairs)
    if arity ** depth < 4:
        for kind, pairs in NUMERIC.items():
            yield from ((kind, p, q) for p, q in pairs)
    yield from ((kind, p, q) for shape, kind, p, q in NUMERIC_4_LEAVES if shape == (arity, depth))


def _random_cases():
    for arity, depth in SHAPES:
        seed = 700 + 10 * arity + depth
        _, mu, nu, beta, _ = random_setup(arity, depth, seed, sparsity=0.0)
        for kind, p, q in _exponents(arity, depth):
            op = OperatorHandle.from_beta(kind, beta, p, q, mu, nu)
            yield f"{arity}x{depth} {kind} p={p} q={q}", op
    lat, mu, nu, beta, _ = random_setup(2, 2, 799, sparsity=0.0)
    mu = Measure(lat, np.where(np.arange(lat.n_leaves) == 1, 0.0, mu.leaf_mass))
    for kind, p, q in DEAD_LEAF:
        yield f"2x2 dead-leaf {kind} p={p} q={q}", OperatorHandle.from_beta(kind, beta, p, q, mu, nu)


def _cases():
    yield from ((f"battery {label}", op) for label, op in _tiny_operators())
    yield from _random_cases()


RECORDED = json.loads(DATA.read_text()) if DATA.exists() else {}
GROUPS = ["battery"] + [f"{a}x{d}" for a, d in SHAPES] + ["2x2 dead-leaf"]


def test_every_case_is_recorded():
    assert sorted(name for name, _ in _cases()) == sorted(RECORDED)


@pytest.mark.parametrize("group", GROUPS)
def test_oracle_bytes_match_recorded(group):
    cases = [(name, op) for name, op in _cases()
             if name.startswith(group + " ") and not (group == "2x2" and "dead-leaf" in name)]
    assert cases
    for name, op in cases:
        assert grid_oracle_norm(op).hex() == RECORDED[name], name


if __name__ == "__main__":
    DATA.write_text(json.dumps(
        {name: grid_oracle_norm(op).hex() for name, op in _cases()}, indent=1, sort_keys=True
    ) + "\n")
