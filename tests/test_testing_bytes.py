"""The testing constants' and stopping helpers' bytes, pinned once.

The CLI goldens pin ``direct_testing`` and ``adjoint_testing`` on a few
instances only; every other check of these numbers is approximate.  This
file compares instead with values recorded once in
``tests/data/testing_bytes.json``: per case, the five testing constants,
``adjoint_witness_data``'s value, witness atoms and profile bytes,
``carleson_constant`` on random weights and the sorted
``split_collections`` sets.

The cases are trees of arity 2-3 and depth 1-4 plus binary depth 8, each
with a plain instance, a zero-mass mu, a zero-mass nu (the ``inf`` cases)
and zeroed coefficients, at exponents with p <= q and with p > q.  To record
the values again, which only a deliberate change of the numbers may do, run

    PYTHONPATH=src:tests python tests/test_testing_bytes.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from martpara import (
    adjoint_testing,
    carleson_constant,
    direct_testing,
    direct_testing_symbol,
    positive_from_symbol,
    positive_operator_testing,
    project_mean_zero,
    split_collections,
)
from martpara.testing import adjoint_witness_data

from helpers import random_setup

DATA = Path(__file__).parent / "data" / "testing_bytes.json"
SHAPES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4), (2, 8)]
VARIANTS = ("plain", "zero-mass mu", "zero-mass nu", "zero coefficients")
EXPONENTS = [(2.0, 3.0), (2.0, 2.0), (4.0, 2.0), (3.0, 1.5)]


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _instance(arity, depth, v):
    seed = 1000 * arity + 10 * depth + v
    lat, mu, nu, beta, _ = random_setup(
        arity, depth, seed, sparsity=0.2,
        mu_sparsity=0.4 if v == 1 else 0.0, nu_sparsity=0.4 if v == 2 else 0.0,
    )
    if v == 3:
        rng = np.random.default_rng(seed)
        beta = type(beta)(lat, [
            np.where(rng.random(lvl.shape) < 0.5, 0.0, lvl)
            for lvl in (beta.level(d) for d in range(depth))
        ])
    return lat, mu, nu, beta, seed


def _cases():
    for arity, depth in SHAPES:
        for v, variant in enumerate(VARIANTS):
            yield f"{arity}x{depth} {variant}", (arity, depth, v)


def fingerprint(arity, depth, v) -> dict:
    lat, mu, nu, beta, seed = _instance(arity, depth, v)
    rng = np.random.default_rng(seed + 1)
    symbol = project_mean_zero(beta, nu)
    out = {}
    for p, q in EXPONENTS:
        key = f"p={p} q={q}"
        out[f"direct {key}"] = repr(direct_testing(beta, p, q, mu, nu))
        out[f"direct_symbol {key}"] = repr(direct_testing_symbol(symbol, p, mu))
        for name, alpha in (("absolute", beta.absolute()),
                            ("from_symbol", positive_from_symbol(beta, q, mu))):
            out[f"positive {name} {key}"] = repr(positive_operator_testing(alpha, p, mu, nu))
        if p > q:
            out[f"adjoint {key}"] = repr(adjoint_testing(beta, p, q, mu, nu))
            value, witnesses = adjoint_witness_data(beta, p, q, mu, nu)
            out[f"witness {key}"] = [
                repr(value),
                [list(atom) for atom, _ in witnesses],
                _sha(*(profile for _, profile in witnesses)),
            ]
        f = np.abs(rng.standard_normal(lat.n_leaves))
        g = np.abs(rng.standard_normal(lat.n_leaves))
        f[rng.random(lat.n_leaves) < 0.3] = 0.0
        first, second = split_collections(f, g, p, mu, nu)
        out[f"split {key}"] = _sha(np.array(sorted(first), dtype=np.int64),
                                   np.array(sorted(second), dtype=np.int64))
    atoms = list(lat.atoms())
    chosen = rng.permutation(len(atoms))[:max(1, len(atoms) // 3)]
    weights = {atoms[k]: float(w) for k, w in zip(chosen, rng.random(chosen.size) * 2.0)}
    out["carleson"] = repr(carleson_constant(weights, mu))
    out["carleson nu"] = repr(carleson_constant(weights, nu))
    return out


RECORDED = json.loads(DATA.read_text()) if DATA.exists() else {}


@pytest.mark.parametrize("arity,depth", SHAPES)
def test_testing_bytes_match_recorded(arity, depth):
    cases = [(name, args) for name, args in _cases() if args[:2] == (arity, depth)]
    assert cases
    for name, args in cases:
        assert fingerprint(*args) == RECORDED[name], name


if __name__ == "__main__":
    DATA.write_text(json.dumps(
        {name: fingerprint(*args) for name, args in _cases()}, indent=1, sort_keys=True
    ) + "\n")
