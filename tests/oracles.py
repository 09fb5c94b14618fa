"""Naive reference implementations, straight from the definitions.

Everything here is plain Python loops over subtree leaves and atoms; the
few pieces shared with the production code (the grid oracle's operator
matrix, the stopping oracles' averages) say so where they are used.  These
are the independent oracles the vectorized implementations are checked
against.
"""

from __future__ import annotations

import math

import numpy as np

from martpara import normest
from martpara.lattice import Atom, Lattice
from martpara.measure import (
    Measure,
    atom_averages,
    atom_integrals,
    conjugate,
    lp_norm,
    safe_divide,
)
from martpara.normest import (
    AscentConfig,
    NormEstimate,
    _operator_matrix,
    _project,
)
from martpara.paraproduct import (
    _MEAN_ZERO_RTOL,
    NonnegativeCoefficients,
    pairing,
    positive_apply,
)
from martpara.stopping import (
    DecompositionReport,
    HalfReport,
    InequalityCheck,
    StoppingForest,
    _check_nonnegative,
    carleson_constant,
    split_collections,
)
from martpara.testing import positive_operator_testing


def _avg(avgs: list[np.ndarray], atom: Atom) -> float:
    """One atom's entry of per-generation averages (``atom_averages``)."""
    return float(avgs[atom.depth][atom.index])


# ---------------------------------------------------------------------------
# the lattice and edge-chain kernels, one generation at a time
# ---------------------------------------------------------------------------
#
# The per-generation kernels the flat ones replaced: every generation is its
# own array, and each step is one numpy call per generation.  Leading axes
# are a batch, as in the flat kernels, which must give these bytes.


def naive_block_sums(lat: Lattice, leaf_values) -> list[np.ndarray]:
    cur = np.asarray(leaf_values, dtype=float)
    lead = cur.shape[:-1]
    out = [None] * (lat.depth + 1)
    out[lat.depth] = cur
    for d in range(lat.depth - 1, -1, -1):
        cur = cur.reshape(*lead, lat.level_size(d), lat.arity).sum(axis=-1)
        out[d] = cur
    return out


def naive_chain_sum(lat: Lattice, per_depth) -> np.ndarray:
    run = np.zeros(1)
    for d in range(lat.depth + 1):
        if d > 0:
            run = np.repeat(run, lat.arity, axis=-1)
        vals = per_depth[d] if d < len(per_depth) else None
        if vals is not None:
            run = run + vals
    return run


def naive_atom_integrals(f, m: Measure) -> list[np.ndarray]:
    return naive_block_sums(m.lattice, np.asarray(f, dtype=float) * m.leaf_mass)


def naive_atom_averages(f, m: Measure) -> list[np.ndarray]:
    ints = naive_atom_integrals(f, m)
    masses = naive_block_sums(m.lattice, m.leaf_mass)
    return [safe_divide(v, w) for v, w in zip(ints, masses)]


def naive_edge_terms(levels, parent_vals) -> list:
    """Per generation (None at the root), each child atom's edge coefficient
    times the value attached to its parent."""
    return [None] + [
        (c * v[..., None]).reshape(*v.shape[:-1], c.size) for c, v in zip(levels, parent_vals)
    ]


def naive_edge_terms_adjoint(levels, child_vals) -> list[np.ndarray]:
    """Per internal generation, each atom's edge coefficients times the
    values attached to its children (``child_vals[d]`` at generation d + 1),
    summed over the children."""
    return [
        (c * w.reshape(*w.shape[:-1], *c.shape)).sum(axis=-1) for c, w in zip(levels, child_vals)
    ]


def naive_mean_zero_excess(lvl, child_mass):
    """Per-atom integral of a component level (n, arity) against the child
    masses (n, arity), its tolerance, and where the integral exceeds it."""
    sums = (lvl * child_mass).sum(axis=1)
    caps = _MEAN_ZERO_RTOL * (np.abs(lvl) * child_mass).sum(axis=1)
    return sums, caps, np.abs(sums) > caps


def naive_symbol_error(lat: Lattice, levels, nu: Measure):
    """The message of the first atom whose component is not nu-mean-zero,
    or None: the check ``Symbol`` applies, one generation at a time."""
    for d, lvl in enumerate(levels):
        sums, caps, bad = naive_mean_zero_excess(lvl, nu.level_mass[d + 1].reshape(-1, lat.arity))
        if np.any(bad):
            i = int(np.nonzero(bad)[0][0])
            return (f"symbol is not mean-zero at atom ({d}, {i}): "
                    f"integral {sums[i]:.3e} exceeds tolerance {caps[i]:.3e}")
    return None


def naive_project_mean_zero(lat: Lattice, levels, nu: Measure) -> list[np.ndarray]:
    """The corrected levels of ``project_mean_zero``, one generation at a
    time, every per-atom sum one ``.sum(axis=1)``."""
    out_levels = []
    for d, lvl in enumerate(levels):
        child_mass = nu.level_mass[d + 1].reshape(-1, lat.arity)
        active = child_mass > 0
        n_active = active.sum(axis=1, keepdims=True)
        totals = child_mass.sum(axis=1)
        means = safe_divide((lvl * child_mass).sum(axis=1), totals)
        out = np.where(active & (n_active > 1), lvl - means[:, None], lvl)
        out[active & (n_active == 1)] = 0.0
        bad = naive_mean_zero_excess(out, child_mass)[2]
        if np.any(bad):
            rows = np.nonzero(bad)[0]
            c, m, act = lvl[rows], child_mass[rows], active[rows]
            ref = c[np.arange(len(rows)), m.argmax(axis=1)]
            dev = np.where(act, c - ref[:, None], 0.0)
            dbar = (dev * m).sum(axis=1) / totals[rows]
            out[rows] = np.where(act, dev - dbar[:, None], c)
        out_levels.append(out)
    return out_levels


def naive_carleson_sup(lat: Lattice, weights: np.ndarray, mu: Measure) -> float:
    """``_carleson_sup``: every atom's total is its own weight plus the sum
    of its children's totals, one generation at a time."""
    flat = np.zeros(lat.n_atoms)
    flat[:weights.size] = weights
    totals = lat.split(flat)
    for d in range(lat.depth - 1, -1, -1):
        totals[d] += totals[d + 1].reshape(-1, lat.arity).sum(axis=1)
    if np.any((mu.flat_mass == 0.0) & (flat > 0.0)):
        return math.inf
    return float(safe_divide(flat, mu.flat_mass).max())


def naive_maximal_levels(lat: Lattice, f, m: Measure) -> np.ndarray:
    """``maximal_function``: the running max of |average| spread down one
    generation at a time."""
    avgs = naive_atom_averages(f, m)
    cur = np.abs(avgs[0])
    for d in range(1, lat.depth + 1):
        cur = np.maximum(np.repeat(cur, lat.arity), np.abs(avgs[d]))
    return cur


def naive_rubio_de_francia(lat: Lattice, f, m: Measure, p: float, tol: float) -> np.ndarray:
    """``rubio_de_francia``: the series sum of (2p')^(-n) M^n |f| with
    ``naive_maximal_levels`` as M, one fresh array per term, stopped at the
    first term whose max is below ``tol``."""
    factor = 1.0 / (2.0 * conjugate(p))
    cur = np.abs(np.asarray(f, dtype=float))
    total = cur.copy()
    scale = 1.0
    while True:
        cur = naive_maximal_levels(lat, cur, m)
        scale *= factor
        term = scale * cur
        if float(term.max()) < tol:
            return total
        total += term


def naive_edge_levels(op) -> list[np.ndarray]:
    """Per-generation edge coefficients of the operator's edge chain: the
    flat C of a linear handle, beta for the vector shape."""
    flat = op.coeffs if op.linear else op.beta._flat
    off = op.lattice.offsets
    return [flat[off[d]:off[d + 1]] for d in range(op.lattice.depth)]


def leaves_of(lat: Lattice, atom: Atom) -> range:
    width = lat.arity ** (lat.depth - atom.depth)
    return range(atom.index * width, (atom.index + 1) * width)


def naive_mass(lat: Lattice, mass: np.ndarray, atom: Atom) -> float:
    return sum(mass[j] for j in leaves_of(lat, atom))


def naive_integral(lat: Lattice, f, mass, atom: Atom) -> float:
    return sum(f[j] * mass[j] for j in leaves_of(lat, atom))


def naive_average(lat: Lattice, f, mass, atom: Atom) -> float:
    m = naive_mass(lat, mass, atom)
    if m == 0.0:
        return 0.0
    return naive_integral(lat, f, mass, atom) / m


def internal_atoms(lat: Lattice):
    for d in range(lat.depth):
        for i in range(lat.arity ** d):
            yield Atom(d, i)


def beta_value(beta, atom: Atom, slot: int) -> float:
    return float(beta.level(atom.depth)[atom.index, slot])


def component_leaves(lat: Lattice, beta, atom: Atom) -> np.ndarray:
    out = np.zeros(lat.n_leaves)
    for k in range(lat.arity):
        child = Atom(atom.depth + 1, atom.index * lat.arity + k)
        for j in leaves_of(lat, child):
            out[j] = beta_value(beta, atom, k)
    return out


def naive_paraproduct(lat: Lattice, beta, f, mu_mass) -> np.ndarray:
    out = np.zeros(lat.n_leaves)
    for atom in internal_atoms(lat):
        avg = naive_average(lat, f, mu_mass, atom)
        out += avg * component_leaves(lat, beta, atom)
    return out


def naive_vector_paraproduct(lat: Lattice, beta, f, mu_mass) -> dict[Atom, float]:
    out = {}
    for atom in internal_atoms(lat):
        avg = naive_average(lat, f, mu_mass, atom)
        for k in range(lat.arity):
            child = Atom(atom.depth + 1, atom.index * lat.arity + k)
            out[child] = avg * beta_value(beta, atom, k)
    return out


def naive_sequence_norm(lat: Lattice, field: dict[Atom, float], p, q, nu_mass) -> float:
    total = 0.0
    for j in range(lat.n_leaves):
        chain = 0.0
        for d in range(1, lat.depth + 1):
            atom = Atom(d, j // lat.arity ** (lat.depth - d))
            chain += abs(field.get(atom, 0.0)) ** q
        total += chain ** (p / q) * nu_mass[j]
    return total ** (1.0 / p)


def naive_power(lat: Lattice, beta, f, q, mu_mass) -> np.ndarray:
    out = np.zeros(lat.n_leaves)
    for atom in internal_atoms(lat):
        avg = naive_average(lat, f, mu_mass, atom)
        out += abs(avg) ** q * np.abs(component_leaves(lat, beta, atom)) ** q
    return out


def naive_shifted(lat: Lattice, beta, g, q, mu_mass) -> np.ndarray:
    out = np.zeros(lat.n_leaves)
    for atom in internal_atoms(lat):
        avg = naive_average(lat, g, mu_mass, atom)
        out += avg * np.abs(component_leaves(lat, beta, atom)) ** q
    return out


def naive_positive(lat: Lattice, alpha, f, mu_mass) -> np.ndarray:
    out = np.zeros(lat.n_leaves)
    for atom in internal_atoms(lat):
        integ = naive_integral(lat, f, mu_mass, atom)
        out += integ * component_leaves(lat, alpha, atom)
    return out


def naive_square_function(lat: Lattice, f, mass) -> np.ndarray:
    acc = np.zeros(lat.n_leaves)
    for atom in internal_atoms(lat):
        base = naive_average(lat, f, mass, atom)
        for k in range(lat.arity):
            child = Atom(atom.depth + 1, atom.index * lat.arity + k)
            jump = naive_average(lat, f, mass, child) - base
            for j in leaves_of(lat, child):
                acc[j] += jump ** 2
    return np.sqrt(acc)


def naive_maximal(lat: Lattice, f, mass) -> np.ndarray:
    out = np.zeros(lat.n_leaves)
    for j in range(lat.n_leaves):
        best = 0.0
        for d in range(lat.depth + 1):
            atom = Atom(d, j // lat.arity ** (lat.depth - d))
            best = max(best, abs(naive_average(lat, f, mass, atom)))
        out[j] = best
    return out


def _atoms_inside(lat: Lattice, top: Atom):
    for d in range(top.depth, lat.depth + 1):
        lo = top.index * lat.arity ** (d - top.depth)
        for i in range(lo, lo + lat.arity ** (d - top.depth)):
            yield Atom(d, i)


def naive_direct_testing(lat: Lattice, beta, p, q, mu_mass, nu_mass, tops=None) -> float:
    """Restricting ``tops`` to a subset of atoms gives the restricted sup."""
    best = 0.0
    tops = list(tops) if tops is not None else [
        Atom(d, i) for d in range(lat.depth + 1) for i in range(lat.arity ** d)
    ]
    for top in tops:
        num = 0.0
        for j in leaves_of(lat, top):
            chain = 0.0
            for atom in _atoms_inside(lat, top):
                if atom.depth == lat.depth:
                    continue
                if j in leaves_of(lat, atom):
                    slot = (j // lat.arity ** (lat.depth - atom.depth - 1)) % lat.arity
                    chain += abs(beta_value(beta, atom, slot)) ** q
            num += chain ** (p / q) * nu_mass[j]
        den = naive_mass(lat, mu_mass, top)
        if den == 0.0:
            if num > 0.0:
                return math.inf
            continue
        best = max(best, num / den)
    return best ** (1.0 / p)


def naive_adjoint_testing(lat: Lattice, beta, p, q, mu_mass, nu_mass) -> float:
    r = p / q
    rp = r / (r - 1.0)
    terms = {}
    for atom in internal_atoms(lat):
        integ = 0.0
        for k in range(lat.arity):
            child = Atom(atom.depth + 1, atom.index * lat.arity + k)
            integ += abs(beta_value(beta, atom, k)) ** q * naive_mass(lat, nu_mass, child)
        m = naive_mass(lat, mu_mass, atom)
        if m == 0.0:
            if integ > 0.0:
                return math.inf
            terms[atom] = 0.0
        else:
            terms[atom] = integ / m
    best = 0.0
    for d in range(lat.depth + 1):
        for i in range(lat.arity ** d):
            top = Atom(d, i)
            num = 0.0
            for j in leaves_of(lat, top):
                chain = 0.0
                for atom in _atoms_inside(lat, top):
                    if atom.depth == lat.depth:
                        continue
                    if j in leaves_of(lat, atom):
                        chain += terms[atom]
                num += chain ** rp * mu_mass[j]
            den = naive_mass(lat, nu_mass, top)
            if den == 0.0:
                if num > 0.0:
                    return math.inf
                continue
            best = max(best, num / den)
    return best ** (1.0 / rp)


def naive_positive_testing(lat: Lattice, alpha, p, mu_mass, nu_mass) -> tuple[float, float]:
    pp = p / (p - 1.0)
    best_direct = 0.0
    best_adjoint = 0.0
    for d in range(lat.depth + 1):
        for i in range(lat.arity ** d):
            top = Atom(d, i)
            num_d = 0.0
            num_a = 0.0
            for j in leaves_of(lat, top):
                chain_d = 0.0
                chain_a = 0.0
                for atom in _atoms_inside(lat, top):
                    if atom.depth == lat.depth or j not in leaves_of(lat, atom):
                        continue
                    slot = (j // lat.arity ** (lat.depth - atom.depth - 1)) % lat.arity
                    chain_d += naive_mass(lat, mu_mass, atom) * beta_value(alpha, atom, slot)
                    integ = 0.0
                    for k in range(lat.arity):
                        child = Atom(atom.depth + 1, atom.index * lat.arity + k)
                        integ += beta_value(alpha, atom, k) * naive_mass(lat, nu_mass, child)
                    chain_a += integ
                num_d += chain_d ** p * nu_mass[j]
                num_a += chain_a ** pp * mu_mass[j]
            den_d = naive_mass(lat, mu_mass, top)
            den_a = naive_mass(lat, nu_mass, top)
            if den_d > 0.0:
                best_direct = max(best_direct, num_d / den_d)
            if den_a > 0.0:
                best_adjoint = max(best_adjoint, num_a / den_a)
    return best_direct ** (1.0 / p), best_adjoint ** (1.0 / pp)


def naive_carleson_constant(lat: Lattice, weights, mu_mass) -> float:
    best = 0.0
    for d in range(lat.depth + 1):
        for i in range(lat.arity ** d):
            top = Atom(d, i)
            total = sum(
                w for atom, w in weights.items()
                if atom.depth >= top.depth
                and atom.index // lat.arity ** (atom.depth - top.depth) == top.index
            )
            den = naive_mass(lat, mu_mass, top)
            if den == 0.0:
                if total > 0.0:
                    return math.inf
                continue
            best = max(best, total / den)
    return best


def naive_grid_oracle(op, resolution: float = 1e-2) -> float:
    """Max Rayleigh ratio over a dense angular grid of directions, the
    reference for ``grid_oracle_norm``: the same grid, scanned in chunks of
    200k directions with the full ratio evaluated at every point.  The
    operator matrix comes from the production ``_operator_matrix``, so this
    checks the scan, not the applies.

    Directions are hyperspherical angles with step ``resolution`` on the
    nonnegative orthant, combined with all sign patterns (first coordinate
    fixed positive; antipodal points give the same ratio).  Restricted to at
    most 4 leaves because the grid is exhaustive.
    """
    lat = op.lattice
    if lat.n_leaves > 4:
        raise ValueError(f"oracle supports at most 4 leaves, got {lat.n_leaves}")
    if resolution > 1e-2:
        raise ValueError(f"resolution must be <= 1e-2, got {resolution}")
    alive_idx = np.nonzero(op.mu.leaf_mass > 0.0)[0]
    k = len(alive_idx)
    if k == 0:
        raise ValueError("the input measure is identically zero")
    mat, membership = _operator_matrix(op, alive_idx)
    w = op.mu.leaf_mass[alive_idx]
    v = op.nu.leaf_mass

    def ratios(X: np.ndarray) -> np.ndarray:
        den = (w[:, None] * np.abs(X) ** op.p).sum(axis=0) ** (1.0 / op.p)
        out = mat @ X
        if op.linear:
            num = (v[:, None] * np.abs(out) ** op.p).sum(axis=0) ** (1.0 / op.p)
        else:
            chain = membership @ np.abs(out) ** op.q
            num = (v[:, None] * chain ** (op.p / op.q)).sum(axis=0) ** (1.0 / op.p)
        res = np.zeros_like(num)
        np.divide(num, den, out=res, where=den > 0)
        return res

    if k == 1:
        X = np.ones((1, 1))
        return float(ratios(X).max())

    npts = int(np.ceil((np.pi / 2.0) / resolution)) + 1
    theta = np.linspace(0.0, np.pi / 2.0, npts)
    if op.positive_only:
        signs = np.ones((k, 1))
    else:
        patterns = []
        for bits in range(2 ** (k - 1)):
            s = [1.0] + [1.0 if (bits >> b) & 1 == 0 else -1.0 for b in range(k - 1)]
            patterns.append(s)
        signs = np.array(patterns).T  # (k, n_pat)

    best = 0.0
    chunk = 200_000
    total = npts ** (k - 1)
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        idx = np.unravel_index(np.arange(lo, hi), (npts,) * (k - 1))
        mags = np.ones((k, hi - lo))
        sin_prod = np.ones(hi - lo)
        for a in range(k - 1):
            ang = theta[idx[a]]
            mags[a] = sin_prod * np.cos(ang)
            sin_prod = sin_prod * np.sin(ang)
        mags[k - 1] = sin_prod
        for pat in range(signs.shape[1]):
            X = mags * signs[:, pat][:, None]
            best = max(best, float(ratios(X).max()))
    return best


def naive_block_scan(op, block_scores: list | None = None) -> float:
    """The grid oracle as it stood before it skipped blocks: every block of
    ``normest._Grid`` scanned in order, its best point re-scored by
    ``ratios``, the largest ratio returned.  ``grid_oracle_norm`` must give
    these bytes.  Each block's best score is appended to ``block_scores``
    when it is given."""
    g = normest._Grid(op)
    if g.k == 1:
        return float(g.ratios(np.ones((1, 1))).max())
    k, p, npts, n_pre, per_block = g.k, op.p, g.npts, g.n_pre, g.per_block
    cos_t, sin_t, signs, n_pat, w = g.cos_t, g.sin_t, g.signs, g.n_pat, g.w
    forms, after, basis, den_tail = g.forms, g.after, g.basis, g.den_tail
    n_rows, n_terms, pairs, ratios = g.n_rows, g.n_terms, [g.prefix_pairs], g.ratios
    buf = np.empty(per_block * n_rows * npts)

    best = 0.0
    for lo in range(0, n_pre, per_block):
        pre = np.arange(lo, min(lo + per_block, n_pre))
        u = np.empty((k - 1, len(pre)))  # the prefix coordinates, then sigma
        sin_prod = np.ones(len(pre))
        for a in range(k - 2):
            i_a = pre // npts ** (k - 3 - a) % npts
            u[a] = sin_prod * cos_t[i_a]
            sin_prod = sin_prod * sin_t[i_a]
        u[k - 2] = sin_prod
        mono = u
        for left, right in pairs[0]:
            mono = mono[left] * mono[right]
        vals = buf[:len(pre) * n_rows * npts].reshape(-1, npts)
        np.matmul((mono.T @ forms).reshape(-1, n_terms), basis, out=vals)
        vals = vals.reshape(len(forms), -1)
        for power, lin in after:
            if power == 2.0:  # np.square: about 3x faster than np.power(., 2.0)
                np.square(vals, out=vals)
            else:  # rounding may leave a square below 0: clamp before the power
                np.power(np.maximum(vals, 0.0, out=vals), power, out=vals)
            vals = lin @ vals
        den_p = np.multiply.outer(sin_prod ** p, den_tail)
        den_p += (w[:k - 2] @ u[:k - 2] ** p)[:, None]
        score = vals.reshape(len(pre), n_pat, npts)
        score *= np.divide(1.0, den_p, out=den_p, where=den_p > 0.0)[:, None, :]  # 0 where den = 0
        j, pat, i = np.unravel_index(score.argmax(), score.shape)
        if block_scores is not None:
            block_scores.append(float(score[j, pat, i]))
        x = np.concatenate([u[:k - 2, j], [sin_prod[j] * cos_t[i], sin_prod[j] * sin_t[i]]])
        best = max(best, float(ratios((x * signs[:, pat])[:, None])[0]))
    return best


# ---------------------------------------------------------------------------
# norm estimator: one start at a time
# ---------------------------------------------------------------------------
#
# The per-start ascent that ``norm_lower_bound`` ran before it climbed all
# starts in lock step: every start is ranked by its own ``OperatorHandle.ratio``
# call and ascended alone, one ``naive_value_and_grad`` call per line-search
# candidate.  The public applies and norms are shared with the production
# code on purpose: the comparison is of the batching, not of the kernels.
# The gradient's pull-back runs on the per-generation kernels above.


def naive_value_and_grad(op, x: np.ndarray):
    """Rayleigh ratio at the leaf function x and the gradient of its log
    (``None`` where the ratio vanishes)."""
    den = op.input_norm(x)
    if den == 0.0:
        return 0.0, None
    out = op.apply(x)
    val = op.output_norm(out)
    if val == 0.0:
        return 0.0, None
    lat, p, mu = op.lattice, op.p, op.mu
    if not op.linear:
        q = op.q
        chain_q = out.q_power_chain(q)
        with np.errstate(divide="ignore", invalid="ignore"):
            gpq = np.where(chain_q > 0.0, chain_q ** ((p - q) / q), 0.0)
        t_sums = naive_block_sums(lat, op.nu.leaf_mass * gpq)
        psi = [
            np.abs(out.level(d)) ** (q - 1.0) * np.sign(out.level(d)) * t_sums[d]
            for d in range(1, lat.depth + 1)
        ]
        inner = naive_edge_terms_adjoint(naive_edge_levels(op), psi)
        per_depth = [safe_divide(v, m) for v, m in zip(inner, mu.level_mass)]
        g_out = mu.leaf_mass * naive_chain_sum(lat, per_depth) / val ** p
    else:
        u = op.nu.leaf_mass * np.abs(out) ** (p - 1.0) * np.sign(out) / val ** p
        per_depth = naive_edge_terms_adjoint(naive_edge_levels(op), naive_block_sums(lat, u)[1:])
        if not op.reads_integrals:
            per_depth = [
                v * safe_divide(np.ones_like(m), m) for v, m in zip(per_depth, mu.level_mass)
            ]
        g_out = mu.leaf_mass * naive_chain_sum(lat, per_depth)
    g_in = mu.leaf_mass * np.abs(x) ** (p - 1.0) * np.sign(x) / den ** p
    return val / den, g_out - g_in


def _indicator_starts(lat: Lattice) -> list[tuple[str, np.ndarray]]:
    out = []
    for d in range(lat.depth + 1):
        for i in range(lat.level_size(d)):
            x = np.zeros(lat.n_leaves)
            x[lat.leaf_slice(Atom(d, i))] = 1.0
            out.append((f"indicator({d},{i})", x))
    return out


def _naive_ascend(op, x0, alive, max_iter: int, step_tol: float):
    x = _project(op, x0.astype(float), alive)
    den = op.input_norm(x)
    if den == 0.0:
        return 0.0, x, 0, True
    x = x / den
    r, grad = naive_value_and_grad(op, x)
    if grad is None:
        return r, x, 0, True
    eta = 0.5
    iters = 0
    converged = False
    for _ in range(max_iter):
        iters += 1
        gn = float(np.max(np.abs(grad)))
        if gn < 1e-14:
            converged = True
            break
        improved = False
        while eta > 1e-13:
            cand = _project(op, x + eta * grad / gn, alive)
            den = op.input_norm(cand)
            if den > 0.0:
                cand = cand / den
                rc, gc = naive_value_and_grad(op, cand)
                if rc > r:
                    gain = rc - r
                    x, r, grad = cand, rc, gc
                    improved = True
                    eta = min(eta * 2.0, 1e3)
                    if gc is None or gain <= step_tol * max(r, 1.0):
                        converged = True
                    break
            eta *= 0.5
        if not improved or converged or grad is None:
            converged = True
            break
    return r, x, iters, converged


def naive_norm_lower_bound(op, cfg=None) -> NormEstimate:
    """``norm_lower_bound`` with every start ranked and ascended on its own,
    at the stopping gain ``normest._STEP_TOL`` holds when it is called."""
    cfg = cfg or AscentConfig()
    lat = op.lattice
    alive = op.mu.leaf_mass > 0.0
    if not np.any(alive):
        raise ValueError("the input measure is identically zero; no admissible start")

    rng = np.random.default_rng(cfg.seed)
    starts = _indicator_starts(lat)
    for k in range(cfg.starts):
        vec = rng.standard_normal(lat.n_leaves)
        if op.positive_only:
            vec = np.abs(vec)
        starts.append((f"random[{k}]", vec))
    for k, vec in enumerate(cfg.extra_starts):
        starts.append((f"certificate[{k}]", np.asarray(vec, dtype=float)))

    evaluated = []
    for name, vec in starts:
        vec = _project(op, vec, alive)
        evaluated.append((op.ratio(vec), name, vec))
    evaluated.sort(key=lambda t: -t[0])

    n_ascend = len(evaluated) if cfg.ascend_top is None else min(cfg.ascend_top, len(evaluated))
    best_val, best_name, best_x = evaluated[0]
    total_iters = 0
    all_converged = True
    if cfg.max_iter > 0:
        for rank in range(n_ascend):
            _, name, vec = evaluated[rank]
            val, x, iters, conv = _naive_ascend(op, vec, alive, cfg.max_iter, normest._STEP_TOL)
            total_iters += iters
            all_converged = all_converged and conv
            if val > best_val:
                best_val, best_name, best_x = val, name, x
    return NormEstimate(
        value=op.ratio(best_x),
        argmax=best_x,
        starts_used=len(starts),
        iterations=total_iters,
        converged=all_converged,
        start_kind=best_name,
    )


# ---------------------------------------------------------------------------
# stopping constructions: the set-based originals, one generation per scan
# ---------------------------------------------------------------------------
#
# These rescan the whole collection for every generation.  They share
# ``atom_averages`` with the production code on purpose: the comparison is of
# the constructions (and of the order in which they insert atoms into sets,
# which the ledger sums of ``proof_mirror`` follow), not of the averages.


def naive_stopping_generation(collection, f, mu: Measure, top: Atom):
    """Maximal members inside ``top`` whose average strictly exceeds twice
    top's average, found by a depth-first scan; returns (selected, exhausted)."""
    lat = mu.lattice
    f = _check_nonnegative(lat, f)
    top = lat.check_atom(top)
    members = {lat.check_atom(a) for a in collection}
    avgs = atom_averages(f, mu)
    threshold = 2.0 * _avg(avgs, top)

    selected: set[Atom] = set()
    stack = [top]
    while stack:
        atom = stack.pop()
        if atom in members and _avg(avgs, atom) > threshold:
            selected.add(atom)
            continue  # maximal: do not descend
        stack.extend(reversed(lat.children(atom)))

    exhausted = naive_exhausted_members(lat, members, selected, top)
    for a in exhausted:
        if _avg(avgs, a) > threshold * (1.0 + 1e-12):
            raise RuntimeError(f"exhausted atom {a!r} exceeds the stopping threshold")
    mass_top = mu.mass(top)
    if mass_top > 0.0:
        covered = sum(mu.mass(s) for s in selected)
        if covered > 0.5 * mass_top * (1.0 + 1e-12):
            raise RuntimeError("selected atoms cover at least half of the top atom")
    return selected, exhausted


def naive_modified_stopping_generation(members, f, mu: Measure, top: Atom) -> set:
    """Member children of maximal internal atoms whose average weakly exceeds
    twice top's average; the other children are scanned further."""
    lat = mu.lattice
    f = _check_nonnegative(lat, f)
    top = lat.check_atom(top)
    members = {lat.check_atom(a) for a in members}
    avgs = atom_averages(f, mu)
    top_avg = _avg(avgs, top)
    if top_avg == 0.0:
        return set()
    threshold = 2.0 * top_avg

    selected: set[Atom] = set()
    stack = [top]
    while stack:
        atom = stack.pop()
        if lat.is_leaf(atom):
            continue
        kids = lat.children(atom)
        if any(k in members for k in kids) and _avg(avgs, atom) >= threshold:
            for k in kids:
                if k in members:
                    selected.add(k)
                else:
                    stack.append(k)
        else:
            stack.extend(reversed(kids))

    mass_top = mu.mass(top)
    if mass_top > 0.0:
        covered = sum(mu.mass(s) for s in selected)
        if covered > 0.5 * mass_top * (1.0 + 1e-12):
            raise RuntimeError("stopping atoms cover more than half of the top atom")
    for a in naive_exhausted_members(lat, members, selected, top):
        if a == top or a.depth == 0:
            continue
        parent = lat.parent(a)
        if _avg(avgs, parent) > threshold * (1.0 + 1e-12):
            raise RuntimeError(f"parent of exhausted atom {a!r} exceeds the threshold")
    return selected


def naive_exhausted_members(lat: Lattice, members, selected, top: Atom) -> set:
    """Members inside ``top`` not contained in any selected atom (pairwise scan)."""
    inside = {a for a in members if lat.contains(top, a)}
    return {a for a in inside if not any(lat.contains(s, a) for s in selected)}


def _naive_check_disjoint_roots(lat: Lattice, roots) -> None:
    ordered = sorted(roots)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if lat.contains(a, b) or lat.contains(b, a):
                raise ValueError(f"roots {a!r} and {b!r} overlap")


def naive_grow_forest(step, lat: Lattice, roots) -> StoppingForest:
    """Run ``step(top) -> selected`` generation by generation, tops in
    sorted order, from a disjoint root collection."""
    roots = {lat.check_atom(r) for r in roots}
    _naive_check_disjoint_roots(lat, roots)
    forest = StoppingForest(lattice=lat, roots=roots)
    queue = sorted(roots)
    while queue:
        next_gen: list[Atom] = []
        for top in queue:
            selected = step(top)
            forest.selected[top] = selected
            next_gen.extend(selected)
        if next_gen:
            forest.generations.append(set(next_gen))
        queue = sorted(set(next_gen))
    return forest


def naive_stopping_forest(collection, f, mu: Measure, roots) -> StoppingForest:
    members = set(collection)
    return naive_grow_forest(
        lambda top: naive_stopping_generation(members, f, mu, top)[0], mu.lattice, roots
    )


def naive_modified_stopping_forest(members, f, mu: Measure, roots) -> StoppingForest:
    members = set(members)
    return naive_grow_forest(
        lambda top: naive_modified_stopping_generation(members, f, mu, top), mu.lattice, roots
    )


# ---------------------------------------------------------------------------
# the decomposition replay: the per-atom ledger on the set-based forests
# ---------------------------------------------------------------------------
#
# Each half is written out on its own and every per-atom quantity is read
# atom by atom through ``Lattice.parent``.  It shares the report classes,
# ``split_collections`` and ``carleson_constant`` with the production code,
# and takes the lemma weights from ``naive_edge_terms_adjoint`` (numpy powers,
# which a loop would not reproduce): the comparison is of the ledger sums and
# their order.


def _naive_edge_coefficient(lat: Lattice, alpha, atom: Atom) -> float:
    parent = lat.parent(atom)
    return float(alpha.level(parent.depth)[parent.index, atom.index % lat.arity])


def _naive_assign_to_forest(lat: Lattice, forest: StoppingForest, atoms) -> dict:
    """Group atoms by the smallest processed forest atom containing each,
    found by walking up from the atom."""
    processed = forest.processed
    groups: dict[Atom, set[Atom]] = {top: set() for top in sorted(processed)}
    for a in atoms:
        cur = a
        while cur not in processed and cur.depth > 0:
            cur = lat.parent(cur)
        if cur in processed:  # outside every root otherwise; contributes nothing
            groups[cur].add(a)
    return groups


def _naive_mirror_half(lat, alpha, members, forest, *, ints_f, ints_g, avg_ref, ref_measure,
                       ref_exp, pair_fn, pair_measure, local_on_child, label, checks):
    stopping = forest.stopping_atoms
    nonroot = {a for a in members if a.depth > 0}
    groups = _naive_assign_to_forest(lat, forest, nonroot - stopping)

    per_plain: dict[Atom, float] = {}
    per_stopped: dict[Atom, float] = {}
    local_sum = 0.0
    for top in sorted(forest.processed):
        local = np.zeros(lat.n_leaves)
        for a in sorted(groups[top]):
            parent = lat.parent(a)
            coef = _naive_edge_coefficient(lat, alpha, a)
            if local_on_child:
                local[lat.leaf_slice(a)] += coef * float(ints_f[parent.depth][parent.index])
            else:
                local[lat.leaf_slice(parent)] += coef * float(ints_g[a.depth][a.index])
        norm_val = lp_norm(local, ref_exp, pair_measure)
        bound = 2.0 * _avg(avg_ref, top) * ref_measure.mass(top) ** (1.0 / ref_exp)
        checks.append(
            InequalityCheck(f"{label}-local-norm({top.depth},{top.index})", norm_val, bound)
        )
        contrib = float(np.sum(local * pair_fn * pair_measure.leaf_mass))
        local_sum += contrib
        union = np.zeros(lat.n_leaves)
        for s in forest.selected[top]:
            union[lat.leaf_slice(s)] = 1.0
        inner = float(np.sum(local * pair_fn * pair_measure.leaf_mass * union))
        per_plain[top] = contrib - inner
        per_stopped[top] = inner

    stopping_sum = 0.0
    for atom in sorted(stopping):
        parent = lat.parent(atom)
        stopping_sum += (
            _naive_edge_coefficient(lat, alpha, atom)
            * float(ints_f[parent.depth][parent.index])
            * float(ints_g[atom.depth][atom.index])
        )
    return HalfReport(forest, local_sum, stopping_sum, per_plain, per_stopped)


def naive_proof_mirror(alpha: NonnegativeCoefficients, f, g, p: float, mu: Measure,
                       nu: Measure) -> DecompositionReport:
    """The decomposition replay with each half written out, atom by atom, on
    ``naive_modified_stopping_forest`` and ``naive_stopping_forest``."""
    lat = mu.lattice
    f = _check_nonnegative(lat, f)
    g = _check_nonnegative(lat, g)
    if p <= 1:
        raise ValueError(f"p must be > 1, got {p}")
    p_prime = conjugate(p)
    tol = 1e-9
    if abs(lp_norm(f, p, mu) - 1.0) > tol or abs(lp_norm(g, p_prime, nu) - 1.0) > tol:
        raise ValueError("f and g must have unit norms; normalize first")
    b, b_star = positive_operator_testing(alpha, p, mu, nu)
    if max(b, b_star) > 1.0 + tol:
        raise ValueError("testing constants exceed 1; rescale the coefficients first")

    first, second = split_collections(f, g, p, mu, nu)
    pairing_value = pairing(positive_apply(alpha, f, mu), g, nu)
    ints_f = atom_integrals(f, mu)
    ints_g = atom_integrals(g, nu)
    avg_f = atom_averages(f, mu)
    avg_g = atom_averages(g, nu)
    root = lat.root

    def half_total(atoms) -> float:
        return sum(
            _naive_edge_coefficient(lat, alpha, a)
            * float(ints_f[a.depth - 1][a.index // lat.arity])
            * float(ints_g[a.depth][a.index])
            for a in sorted(atoms)
            if a.depth > 0
        )

    t1 = half_total(first)
    t2 = half_total(second)
    checks = [InequalityCheck("pairing-identity", abs(t1 + t2 - pairing_value),
                              1e-10 * max(abs(pairing_value), 1.0))]

    # first half: modified construction w.r.t. (mu, f)
    forest1 = naive_modified_stopping_forest(first, f, mu, [root])
    half1 = _naive_mirror_half(
        lat, alpha, first, forest1, ints_f=ints_f, ints_g=ints_g, avg_ref=avg_f,
        ref_measure=mu, ref_exp=p, pair_fn=g, pair_measure=nu, local_on_child=True,
        label="t1", checks=checks,
    )
    checks.append(InequalityCheck("t1-splitting-identity", abs(t1 - half1.total),
                                  1e-10 * max(abs(t1), 1.0)))
    checks.append(InequalityCheck("t1-plain-sum", sum(half1.per_atom_plain.values()),
                                  2.0 ** (1.0 + 1.0 / p) * p_prime))
    checks.append(InequalityCheck("t1-stopped-sum", sum(half1.per_atom_stopped.values()),
                                  4.0 * p_prime ** p))
    embed1 = sum(_avg(avg_f, J) ** p * mu.mass(J) for J in forest1.processed)
    checks.append(InequalityCheck("t1-embedding", embed1, 2.0 * p_prime ** p))

    lemma_weights: dict[Atom, float] = {}
    integs = naive_edge_terms_adjoint(
        [alpha.level(d) ** p for d in range(lat.depth)], nu.level_mass[1:]
    )
    for d, integ in enumerate(integs):
        w = integ * mu.level_mass[d] ** p
        for i in np.nonzero(w)[0]:
            lemma_weights[Atom(d, int(i))] = float(w[i])
    checks.append(InequalityCheck("carleson-sequence", carleson_constant(lemma_weights, mu),
                                  1.0 + 1e-12))
    lemma_embed = sum(w * abs(_avg(avg_f, a)) ** p for a, w in lemma_weights.items())
    checks.append(InequalityCheck("lemma-embedding-bound", lemma_embed, p_prime ** p))

    def direct_chain(forest, avg_other, other_exp, other_measure, label):
        s2 = 0.0
        x_term = 0.0
        y_term = 0.0
        for atom in forest.stopping_atoms:
            parent = lat.parent(atom)
            a = _naive_edge_coefficient(lat, alpha, atom)
            s2 += (a * float(ints_f[parent.depth][parent.index])
                   * float(ints_g[atom.depth][atom.index]))
            x_term += _avg(avg_f, parent) ** p * a ** p * mu.mass(parent) ** p * nu.mass(atom)
            y_term += _avg(avg_other, atom) ** other_exp * other_measure.mass(atom)
        checks.append(InequalityCheck(f"{label}-direct-hoelder", s2,
                                      x_term ** (1.0 / p) * y_term ** (1.0 / p_prime)))
        checks.append(InequalityCheck(f"{label}-direct-lemma", x_term, lemma_embed + 1e-12))
        return s2

    s2_first = direct_chain(forest1, avg_f, p, mu, "t1")
    checks.append(InequalityCheck("t1-direct-bound", s2_first,
                                  2.0 ** (1.0 / p_prime) * p_prime ** p))

    # second half: plain construction w.r.t. (nu, g)
    forest2 = naive_stopping_forest(second, g, nu, [root])
    half2 = _naive_mirror_half(
        lat, alpha, second, forest2, ints_f=ints_f, ints_g=ints_g, avg_ref=avg_g,
        ref_measure=nu, ref_exp=p_prime, pair_fn=f, pair_measure=mu, local_on_child=False,
        label="t2", checks=checks,
    )
    checks.append(InequalityCheck("t2-splitting-identity", abs(t2 - half2.total),
                                  1e-10 * max(abs(t2), 1.0)))
    checks.append(InequalityCheck("t2-plain-sum", sum(half2.per_atom_plain.values()),
                                  2.0 ** (1.0 + 1.0 / p_prime) * p))
    checks.append(InequalityCheck("t2-stopped-sum", sum(half2.per_atom_stopped.values()),
                                  4.0 * p ** p_prime))
    embed2 = sum(_avg(avg_g, J) ** p_prime * nu.mass(J) for J in forest2.processed)
    checks.append(InequalityCheck("t2-embedding", embed2, 2.0 * p ** p_prime))

    s2_second = direct_chain(forest2, avg_g, p_prime, nu, "t2")
    checks.append(InequalityCheck("t2-direct-bound", s2_second,
                                  2.0 ** (1.0 / p_prime) * p_prime * p))
    return DecompositionReport(first, second, pairing_value, t1, t2, half1, half2, checks)
