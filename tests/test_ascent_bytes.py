"""The ascent's bytes, pinned independently of the kernels it runs on.

``naive_norm_lower_bound`` and ``naive_value_and_grad`` call the public
kernels, so a kernel that changed its last bits would move them together
with the estimator.  This file compares instead with SHA-256 hashes recorded
once in ``tests/data/ascent_bytes.json``: per case, every ``NormEstimate``
field and the bytes of ``_Rows.value_and_grad``'s (ratio, grad, has_grad)
on a batch of rows with zeros and signed zeros.

The cases are the four kinds on trees of arity 2-3 and depth 1-4, each with
a plain instance, a zero-mass mu and zeroed coefficients, at a few (p, q),
q < 1 included for the vector kind.  To record the hashes again, which only
a deliberate change of the numbers may do, run

    PYTHONPATH=src:tests python tests/test_ascent_bytes.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from martpara import AscentConfig, OperatorHandle, norm_lower_bound
from martpara.normest import KINDS, _Rows

from helpers import random_setup

DATA = Path(__file__).parent / "data" / "ascent_bytes.json"
SHAPES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4)]
VARIANTS = ("plain", "zero-mass mu", "zero coefficients")
EXPONENTS = {
    "vector_paraproduct": [(2.0, 2.0), (4.0, 2.0), (1.5, 3.0), (3.0, 0.5)],
    "shifted": [(4.0, 2.0), (3.0, 1.5)],
    "positive": [(2.0, 2.0), (3.0, 3.0)],
    "paraproduct": [(2.0, 2.0), (1.5, 1.5)],
}
#: every start ascends, so trees of up to 27 leaves fan out and larger ones do not
CFG = AscentConfig(starts=6, max_iter=25, seed=3)


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _cases():
    for arity, depth in SHAPES:
        for v, variant in enumerate(VARIANTS):
            seed = 100 * arity + 10 * depth + v
            lat, mu, nu, beta, _ = random_setup(
                arity, depth, seed, sparsity=0.2, mu_sparsity=0.4 if v == 1 else 0.0
            )
            if v == 2:
                flat = np.concatenate([beta.level(d).reshape(-1) for d in range(depth)])
                flat[np.random.default_rng(seed).random(flat.size) < 0.5] = 0.0
                flat[:arity] = 0.0  # the root's coefficients
                sizes = np.cumsum([lat.level_size(d) * arity for d in range(depth)])[:-1]
                beta = type(beta)(lat, [
                    c.reshape(-1, arity) for c in np.split(flat, sizes)
                ])
            for kind in KINDS:
                for p, q in EXPONENTS[kind]:
                    op = OperatorHandle.from_beta(kind, beta, p, q, mu, nu)
                    yield f"{kind} {arity}x{depth} {variant} p={p} q={q}", op, seed


def _rows(op, seed) -> np.ndarray:
    """Random rows, one with signed zeros, one that vanishes and one that
    lives on zero-mass leaves only."""
    n = op.lattice.n_leaves
    x = np.random.default_rng(seed).standard_normal((6, n))
    x[1, ::2] = -0.0
    x[2] = 0.0
    x[3] = np.where(op.mu.leaf_mass > 0.0, 0.0, x[3])
    return np.abs(x) if op.positive_only else x


def fingerprint(op, seed) -> dict:
    est = norm_lower_bound(op, CFG)
    r, grad, has_grad = _Rows(op).value_and_grad(_rows(op, seed))
    return {
        "value": _sha(np.float64(est.value)),
        "argmax": _sha(est.argmax),
        "iterations": est.iterations,
        "converged": est.converged,
        "start_kind": est.start_kind,
        "value_and_grad": _sha(r, grad, has_grad),
    }


RECORDED = json.loads(DATA.read_text()) if DATA.exists() else {}


@pytest.mark.parametrize("arity,depth", SHAPES)
def test_ascent_bytes_match_recorded(arity, depth):
    cases = [(name, op, seed) for name, op, seed in _cases() if f" {arity}x{depth} " in name]
    assert cases
    for name, op, seed in cases:
        assert fingerprint(op, seed) == RECORDED[name], name


if __name__ == "__main__":
    DATA.write_text(json.dumps(
        {name: fingerprint(op, seed) for name, op, seed in _cases()}, indent=1, sort_keys=True
    ) + "\n")
