"""Sawyer-type testing constants, direct and adjoint.

Every constant is a supremum over all atoms J of a ratio

    ( integral over J of (chain sum restricted to J)^power  ) / mass(J).

One kernel, ``_cut_ratios``, serves every constant.  Each constant hands it
one flat term array with a row per internal atom (``Lattice.offsets``): a
value per child for the direct constants, one value for the adjoint ones.
It walks the cut depths from the deepest up with one leaf-length chain, to
which each depth adds its spread terms, so the chain sums of all J come in
O(atoms * depth) with no per-J rescan; ``_sup`` turns the ratios into the
constant.  The edge-chain kernel of :mod:`martpara.paraproduct` plays the
same part for the operators; its transpose, ``_edge_terms_adjoint``,
integrates the coefficients against nu for the adjoint terms.

Exponents must be finite and above 1, and the adjoint constant of the vector
paraproduct also needs r = p/q > 1; ``measure._check_exponents`` rejects
anything else.
Degenerate two-weight pairs are legitimate inputs: a zero-mass J whose
numerator is positive makes the constant +inf (``math.inf``), which compares
larger than every finite float downstream.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional

import numpy as np

from .lattice import Atom, Lattice
from .measure import Measure, _check_exponents, _per_mass, conjugate, safe_divide
from .paraproduct import (
    EdgeCoefficients, NonnegativeCoefficients, Symbol, _check_lattices, _edge_terms_adjoint,
)

#: one cut depth d: (d, the chain of depth d, the ratios of the depth-d atoms)
Cut = tuple[int, Optional[np.ndarray], Optional[np.ndarray]]


def _cut_ratios(
    lat: Lattice, terms: np.ndarray, power: float, weight: np.ndarray, mass: np.ndarray
) -> Iterator[Cut]:
    """Cut chains and ratios of the internal atoms J, one depth at a time
    from the deepest up.

    ``terms`` holds one row per internal atom: a value per child atom or
    one value, each spread to the leaves below it.  At depth d the chain
    sums, from 0.0 and deepest term first, the spread terms of all internal
    depths e >= d; the ratio of a depth-d J is the integral over J of
    |chain|^power * weight (summed only up to generation d) divided by its
    flat ``mass``.  Leaves are skipped: their ratio is 0.  A massless J with
    a positive numerator ends the walk with ratios None: the constant is +inf.
    """
    off = lat.offsets
    chain = np.zeros(lat.n_leaves)
    integrand = np.empty(lat.n_leaves)
    sums = np.empty(lat.n_internal)
    for d in range(lat.depth - 1, -1, -1):
        row = terms[off[d]:off[d + 1]].reshape(-1)
        spread = chain.reshape(row.size, -1)
        spread += row[:, None]
        np.abs(chain, out=integrand)
        with np.errstate(over="raise"):
            integrand **= power
        integrand *= weight
        lat.sum_up(sums, integrand, stop=d)
        num, den = sums[off[d]:off[d + 1]], mass[off[d]:off[d + 1]]
        if np.any((den == 0.0) & (num > 0.0)):
            yield d, chain, None
            return
        yield d, chain, safe_divide(num, den)


class PowerOverflowError(ValueError):
    """A testing constant's power step overflowed."""


@contextmanager
def _powers_of(p: float) -> Iterator[None]:
    """Reports an overflowing power step of a testing constant, raised under
    ``np.errstate(over="raise")``, as a PowerOverflowError naming its two
    causes."""
    try:
        yield
    except FloatingPointError:
        cause = f"p={p} or the instance's values are too large"
        raise PowerOverflowError(f"{cause}: the testing powers overflow") from None


def _sup(cuts: Iterable[Cut], p: float) -> float:
    """(sup over atoms of the ratios)^(1/p); +inf at a cut with ratios None."""
    best = 0.0
    for _, _, ratios in cuts:
        if ratios is None:
            return math.inf
        best = max(best, float(ratios.max()))
    return best ** (1.0 / p)


def direct_testing_symbol(symbol: Symbol, p: float, mu: Measure) -> float:
    """Direct testing constant of the paraproduct itself: for each J,
    integrate |sum over internal I inside J of b_I|^p against the symbol's
    reference measure and compare with mu(J)."""
    _check_exponents(p)
    _check_lattices(symbol=symbol, mu=mu)
    # signed chain: accumulate the raw values, take |.|^p afterwards
    cuts = _cut_ratios(symbol.lattice, symbol.beta._flat, p, symbol.nu.leaf_mass, mu.flat_mass)
    with _powers_of(p):
        return _sup(cuts, p)


def direct_testing(
    beta: EdgeCoefficients, p: float, q: float, mu: Measure, nu: Measure
) -> float:
    """Direct testing constant of the vector paraproduct:

        B = sup_J [ int_J (sum_{I in J, internal} |b_I|^q)^(p/q) d nu / mu(J) ]^(1/p).
    """
    _check_exponents(p, q)
    _check_lattices(beta=beta, mu=mu, nu=nu)
    terms = np.abs(beta._flat)
    with _powers_of(p):
        with np.errstate(over="raise"):
            terms **= q
        return _sup(_cut_ratios(beta.lattice, terms, p / q, nu.leaf_mass, mu.flat_mass), p)


def _adjoint_cuts(
    beta: EdgeCoefficients, p: float, q: float, mu: Measure, nu: Measure
) -> tuple[Iterable[Cut], float]:
    """Checks p and q, then returns the cuts of the adjoint constant and its
    exponent r'.  The term of internal atom I is mass(I)^(-1) * int_I |b_I|^q
    d nu; a massless I whose component still carries nu-mass has no finite
    term, and the one cut has ratios None."""
    _check_exponents(p, q, r=True)
    _check_lattices(beta=beta, mu=mu, nu=nu)
    r_prime = conjugate(p / q)
    coeffs = np.abs(beta._flat)
    coeffs **= q
    integ = _edge_terms_adjoint(coeffs, nu.flat_mass[1:])
    if np.any((mu.flat_mass[:integ.size] == 0.0) & (integ > 0.0)):
        return [(0, None, None)], r_prime
    terms = _per_mass(integ, mu)
    return _cut_ratios(beta.lattice, terms, r_prime, mu.leaf_mass, nu.flat_mass), r_prime


def adjoint_testing(
    beta: EdgeCoefficients, p: float, q: float, mu: Measure, nu: Measure
) -> float:
    """Adjoint testing constant, at exponents with r = p/q > 1 (r' exists):

        B* = sup_J [ int_J (sum_{I in J, internal} t_I 1_I)^(r') d mu / nu(J) ]^(1/r'),

    with t_I = (nu(I)/mu(I)) * nu-average over I of |b_I|^q, i.e.
    mass_mu(I)^(-1) int_I |b_I|^q d nu.
    """
    with _powers_of(p):
        return _sup(*_adjoint_cuts(beta, p, q, mu, nu))


def adjoint_witness_data(
    beta: EdgeCoefficients, p: float, q: float, mu: Measure, nu: Measure
) -> tuple[float, list[tuple[Atom, np.ndarray]]]:
    """Adjoint constant together with the three atoms attaining the largest
    ratios and their restricted chain-sum leaf profiles (used as certificate
    inputs by the norm estimator).  Takes the same inputs as :func:`adjoint_testing`
    and rejects the same ones."""
    top = 3  # witnesses returned
    cuts, r_prime = _adjoint_cuts(beta, p, q, mu, nu)
    lat = beta.lattice
    best = 0.0
    # (ratio, atom, the chain on the atom's leaves), shallower depths first
    scored: list[tuple[float, Atom, np.ndarray]] = []
    with _powers_of(p):
        for d, chain, ratios in cuts:
            if ratios is None:
                return math.inf, []
            best = max(best, float(ratios.max()))
            atoms = [Atom(d, i) for i in np.argsort(ratios)[::-1][:top].tolist() if ratios[i] > 0.0]
            scored[:0] = [(float(ratios[a.index]), a, chain[lat.leaf_slice(a)].copy())
                          for a in atoms]
    scored.sort(key=lambda t: -t[0])
    witnesses = []
    for _, atom, values in scored[:top]:
        profile = np.zeros(lat.n_leaves)
        profile[lat.leaf_slice(atom)] = values
        witnesses.append((atom, profile))
    return best ** (1.0 / r_prime), witnesses


def positive_operator_testing(
    alpha: NonnegativeCoefficients, p: float, mu: Measure, nu: Measure
) -> tuple[float, float]:
    """Both testing constants of the shifted positive operator.

    Direct:  B^p  = sup_J int_J (sum_{I in J} mu(I) a_I)^p d nu / mu(J).
    Adjoint: B*^(p') = sup_J int_J (sum_{I in J} (int_I a_I d nu) 1_I)^(p') d mu / nu(J).

    The adjoint sum integrates each coefficient step function against nu; that
    is the quantity produced by applying the formal adjoint to an indicator,
    and the one the decomposition proof consumes.
    """
    p_prime = conjugate(p)  # checks p
    _check_lattices(alpha=alpha, mu=mu, nu=nu)
    lat = alpha.lattice
    child_terms = alpha._flat * mu.flat_mass[:lat.n_internal, None]
    with _powers_of(p):
        b = _sup(_cut_ratios(lat, child_terms, p, nu.leaf_mass, mu.flat_mass), p)
        del child_terms  # freed before the adjoint walk
        parent_terms = _edge_terms_adjoint(alpha._flat, nu.flat_mass[1:])
        b_star = _sup(_cut_ratios(lat, parent_terms, p_prime, mu.leaf_mass, nu.flat_mass), p_prime)
    return b, b_star
