"""Sawyer-type testing constants, direct and adjoint.

Every constant is a supremum over all atoms J of a ratio

    ( integral over J of (chain sum restricted to J)^power  ) / mass(J).

One kernel, ``_cut_ratios``, serves every constant: it accumulates the
per-depth terms into suffix sums along leaf ancestor chains (the chain of
each cut depth), so the chain sums for all J come in O(atoms * depth) with no
per-J rescan, and it returns each J's ratio; ``_sup`` turns the ratios into
the constant.  The edge-chain kernel of :mod:`martpara.paraproduct` plays
the same part for the operators; its transpose, ``_edge_terms_adjoint``,
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

import numpy as np

from .lattice import Atom, Lattice
from .measure import Measure, _check_exponents, _per_mass, conjugate, safe_divide
from .paraproduct import EdgeCoefficients, NonnegativeCoefficients, Symbol, _edge_terms_adjoint


def _cut_ratios(
    lat: Lattice,
    terms: list[np.ndarray],
    power: float,
    weight: np.ndarray,
    denom: list[np.ndarray],
) -> tuple[list[np.ndarray], list[np.ndarray]] | None:
    """Cut chains and ratios of every atom J, per depth.

    ``terms[e]`` holds the terms of the internal atoms at depth e: one value
    per child atom (child-attached) or one per atom (parent-attached); each
    is spread to the leaves by its length.  ``chain[d]`` sums the spread
    terms of all internal depths e >= d, and the ratio of J at depth d is
    the integral over J of |chain[d]|^power * weight divided by denom[d][J].
    Returns ``None`` when a massless J carries a positive numerator.
    """
    chain = [None] * lat.depth + [np.zeros(lat.n_leaves)]
    for d in range(lat.depth - 1, -1, -1):
        chain[d] = chain[d + 1] + np.repeat(terms[d], lat.n_leaves // terms[d].size)
    ratios = []
    for d in range(lat.depth + 1):
        # in place: two fewer leaf-sized temporaries per depth
        integrand = np.abs(chain[d])
        integrand **= power
        integrand *= weight
        num, den = lat.block_sums(integrand)[d], denom[d]
        if np.any((den == 0.0) & (num > 0.0)):
            return None
        ratios.append(safe_divide(num, den))
    return chain, ratios


def _sup(cuts: tuple[list[np.ndarray], list[np.ndarray]] | None, p: float) -> float:
    """(sup over atoms of the ratios)^(1/p); +inf where :func:`_cut_ratios`
    found a massless J with a positive numerator."""
    if cuts is None:
        return math.inf
    return max([0.0] + [float(ratios.max()) for ratios in cuts[1]]) ** (1.0 / p)


def direct_testing_symbol(symbol: Symbol, p: float, mu: Measure) -> float:
    """Direct testing constant of the paraproduct itself: for each J,
    integrate |sum over internal I inside J of b_I|^p against the symbol's
    reference measure and compare with mu(J)."""
    _check_exponents(p)
    lat = symbol.lattice
    # signed chain: accumulate the raw values, take |.|^p afterwards
    terms = [symbol.beta.child_values(e) for e in range(1, lat.depth + 1)]
    return _sup(_cut_ratios(lat, terms, p, symbol.nu.leaf_mass, mu.level_mass), p)


def direct_testing(
    beta: EdgeCoefficients, p: float, q: float, mu: Measure, nu: Measure
) -> float:
    """Direct testing constant of the vector paraproduct:

        B = sup_J [ int_J (sum_{I in J, internal} |b_I|^q)^(p/q) d nu / mu(J) ]^(1/p).
    """
    _check_exponents(p, q)
    lat = beta.lattice
    terms = [np.abs(beta.child_values(e)) ** q for e in range(1, lat.depth + 1)]
    return _sup(_cut_ratios(lat, terms, p / q, nu.leaf_mass, mu.level_mass), p)


def _adjoint_parent_terms(
    beta: EdgeCoefficients, q: float, mu: Measure, nu: Measure
) -> list[np.ndarray] | None:
    """Per internal atom, the constant mass(I)^(-1) * int_I |b_I|^q d nu.

    A massless atom whose component still carries nu-mass has no finite
    term; the caller turns that into +inf.
    """
    integ = _edge_terms_adjoint(np.abs(beta._flat) ** q, nu.flat_mass[1:])
    if np.any((mu.flat_mass[:integ.size] == 0.0) & (integ > 0.0)):
        return None
    return beta.lattice.split(_per_mass(integ, mu))


def _adjoint_cuts(
    beta: EdgeCoefficients, p: float, q: float, mu: Measure, nu: Measure
) -> tuple[tuple[list[np.ndarray], list[np.ndarray]] | None, float]:
    """Checks p and q, then returns the cut chains and ratios of the adjoint
    constant (``None`` when it is +inf) and its exponent r'."""
    _check_exponents(p, q, r=True)
    r_prime = conjugate(p / q)
    terms = _adjoint_parent_terms(beta, q, mu, nu)
    if terms is None:
        return None, r_prime
    return _cut_ratios(beta.lattice, terms, r_prime, mu.leaf_mass, nu.level_mass), r_prime


def adjoint_testing(
    beta: EdgeCoefficients, p: float, q: float, mu: Measure, nu: Measure
) -> float:
    """Adjoint testing constant, at exponents with r = p/q > 1 (r' exists):

        B* = sup_J [ int_J (sum_{I in J, internal} t_I 1_I)^(r') d mu / nu(J) ]^(1/r'),

    with t_I = (nu(I)/mu(I)) * nu-average over I of |b_I|^q, i.e.
    mass_mu(I)^(-1) int_I |b_I|^q d nu.
    """
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
    if cuts is None:
        return math.inf, []
    lat = beta.lattice
    scored: list[tuple[float, Atom, np.ndarray]] = []
    for d, (chain, ratios) in enumerate(zip(*cuts)):
        order = np.argsort(ratios)[::-1][:top]
        for i in order:
            if ratios[i] <= 0.0:
                continue
            atom = Atom(d, int(i))
            profile = np.zeros(lat.n_leaves)
            sl = lat.leaf_slice(atom)
            profile[sl] = chain[sl]
            scored.append((float(ratios[i]), atom, profile))
    scored.sort(key=lambda t: -t[0])
    witnesses = [(atom, profile) for _, atom, profile in scored[:top]]
    return _sup(cuts, r_prime), witnesses


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
    lat = alpha.lattice

    child_terms = [
        alpha.child_values(e) * np.repeat(mu.level_mass[e - 1], lat.arity)
        for e in range(1, lat.depth + 1)
    ]
    parent_terms = lat.split(_edge_terms_adjoint(alpha._flat, nu.flat_mass[1:]))
    b = _sup(_cut_ratios(lat, child_terms, p, nu.leaf_mass, mu.level_mass), p)
    b_star = _sup(_cut_ratios(lat, parent_terms, p_prime, mu.leaf_mass, nu.level_mass), p_prime)
    return b, b_star
