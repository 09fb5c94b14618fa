"""Middle-thirds construction separating the direct testing condition from
boundedness for integrability exponents above 2.

The instance lives on a ternary tree of depth N: the base measure is uniform
(Lebesgue on [0,1) restricted to triadic intervals), the target measure gives
mass 2^(-n) to every surviving depth-n component (the middle thirds carry
none), and the symbol oscillates between the outer thirds of each surviving
component with amplitude (2/3)^(n/p).  The probe function is supported on the
removed middle thirds with slowly decaying weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, build_lattice
from .measure import Measure, _check_exponents
from .paraproduct import EdgeCoefficients, Symbol, power_apply
from .testing import PowerOverflowError, adjoint_testing, direct_testing


def _first_middle_digit(n_leaves: int, depth: int) -> np.ndarray:
    """For each of the ``n_leaves`` atoms of generation ``depth``, the
    1-based position of the first of its ``depth`` ternary digits equal to 1
    (0 when every digit avoids 1, i.e. the atom survives)."""
    idx = np.arange(n_leaves)
    out = np.zeros(n_leaves, dtype=int)
    for pos in range(1, depth + 1):
        digit = (idx // 3 ** (depth - pos)) % 3
        hit = (digit == 1) & (out == 0)
        out[hit] = pos
    return out


@dataclass
class CantorInstance:
    lattice: Lattice
    mu: Measure
    nu: Measure
    symbol: Symbol
    f: np.ndarray
    p: float
    r: float

    @property
    def depth(self) -> int:
        return self.lattice.depth


def build_cantor_instance(depth: int, p: float, r: float) -> CantorInstance:
    """Build the counterexample instance truncated at ``depth`` generations.

    The probe uses the removed middle thirds of generations 1..depth; the
    symbol oscillates on surviving components of generations 0..depth-1.
    Requires p > 2 and 1/p < r < 1/2 (so the probe norm converges while the
    chain sums diverge).
    """
    if depth < 2:
        raise ValueError(f"depth must be >= 2, got {depth}")
    _check_exponents(p, low=2.0)
    if not (1.0 / p < r < 0.5):
        raise ValueError(f"r must satisfy 1/p < r < 1/2, got r={r}, p={p}")
    lat = build_lattice(3, depth)
    n = lat.n_leaves

    mu = Measure(lat, np.full(n, 3.0 ** (-depth)))
    nu_leaf = np.where(_first_middle_digit(n, depth) == 0, 2.0 ** (-depth), 0.0)
    nu = Measure(lat, nu_leaf)

    levels = []
    for d in range(depth):
        lvl = np.zeros((lat.level_size(d), 3))
        amp = math.exp((d / p) * math.log(2.0 / 3.0))
        rows = _first_middle_digit(lat.level_size(d), d) == 0
        lvl[rows, 0] = -amp
        lvl[rows, 2] = amp
        levels.append(lvl)
    beta = EdgeCoefficients(lat, levels)
    symbol = Symbol(beta, nu)

    first_mid = _first_middle_digit(n, depth)
    f = np.zeros(n)
    for gen in range(1, depth + 1):
        weight = math.exp((gen / p) * math.log(1.5)) * gen ** (-r)
        f[first_mid == gen] = weight

    return CantorInstance(lattice=lat, mu=mu, nu=nu, symbol=symbol, f=f, p=p, r=r)


@dataclass
class DivergenceRow:
    n: int
    b_direct: float
    b_adjoint: float
    q_value: float
    lower_bound: float
    direct_cap: float


def direct_testing_cap(p: float) -> float:
    """Closed-form uniform cap on the direct testing constant."""
    _check_exponents(p, low=2.0)
    gap = 1.0 - (2.0 / 3.0) ** (2.0 / p)
    if gap == 0.0:
        raise ValueError(f"p={p} is too large: the cap's 1 - (2/3)^(2/p) rounds to 0")
    return gap ** -0.5


def chain_energy(instance: CantorInstance, region_depth: int) -> float:
    """Integral over the surviving depth-``region_depth`` set of the
    (p/2)-power of the quadratic chain sum of the instance."""
    lat = instance.lattice
    h = power_apply(instance.symbol.beta, instance.f, 2.0, instance.mu)
    region = instance.lattice.spread(
        (_first_middle_digit(lat.level_size(region_depth), region_depth) == 0).astype(float),
        region_depth,
    )
    return float(np.sum(h ** (instance.p / 2.0) * region * instance.nu.leaf_mass))


def divergence_report(n_max: int, p: float, r: float) -> list[DivergenceRow]:
    """Rows n = 2..n_max of the separation experiment.

    For each n the instance truncated at depth n yields the direct constant
    B(n) (uniformly capped by the closed form), the adjoint constant B*(n)
    (which grows without bound), the exact chain energy Q(n) over the
    surviving set, and its explicit lower bound L(n).

    Asserts the three facts the experiment demonstrates: B(n) stays below the
    cap, Q(n) dominates L(n), and Q(n) is strictly increasing.  A p so large
    that a row's values overflow raises ValueError instead.
    """
    if n_max > 12:
        raise ValueError(f"n_max capped at 12 (3^12 leaves), got {n_max}")
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    cap = direct_testing_cap(p)
    rows: list[DivergenceRow] = []
    prev_q = -math.inf
    for n in range(2, n_max + 1):
        inst = build_cantor_instance(n, p, r)
        try:
            with np.errstate(over="raise", invalid="raise"):
                b = direct_testing(inst.symbol.beta, p, 2.0, inst.mu, inst.nu)
                b_star = adjoint_testing(inst.symbol.beta, p, 2.0, inst.mu, inst.nu)
                q_val = chain_energy(inst, n)
            partial = sum(k ** (-2.0 * r) for k in range(1, n + 1))
            lower = 3.0 ** (-p) * 1.5 * partial ** (p / 2.0)
        # the instance is built from p and r, so p is what is too large
        except (FloatingPointError, OverflowError, PowerOverflowError):
            raise ValueError(f"p={p} is too large: the values of row n={n} overflow") from None
        if b > cap * (1.0 + 1e-9):
            raise RuntimeError(f"direct constant {b} exceeds the cap {cap} at n={n}")
        if q_val < lower * (1.0 - 1e-9):
            raise RuntimeError(f"chain energy {q_val} below its bound {lower} at n={n}")
        if not q_val > prev_q:
            raise RuntimeError(f"chain energy is not strictly increasing at n={n}")
        prev_q = q_val
        rows.append(
            DivergenceRow(
                n=n,
                b_direct=b,
                b_adjoint=b_star,
                q_value=q_val,
                lower_bound=lower,
                direct_cap=cap,
            )
        )
    return rows
