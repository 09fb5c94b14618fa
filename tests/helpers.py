import numpy as np

from martpara import EdgeCoefficients, Measure, OperatorHandle, build_lattice


def random_setup(arity, depth, seed, sparsity=0.2, mu_sparsity=None, nu_sparsity=None):
    """Seeded (lattice, mu, nu, beta, f) tuple used across module tests."""
    lat = build_lattice(arity, depth)
    rng = np.random.default_rng(seed)
    n = lat.n_leaves
    mu_sparsity = sparsity if mu_sparsity is None else mu_sparsity
    nu_sparsity = sparsity if nu_sparsity is None else nu_sparsity

    def masses(s):
        vals = 1.0 - rng.random(n)
        vals[rng.random(n) < s] = 0.0
        return vals

    mu = Measure(lat, masses(mu_sparsity))
    nu = Measure(lat, masses(nu_sparsity))
    beta = EdgeCoefficients(
        lat, [rng.standard_normal((lat.level_size(d), arity)) for d in range(depth)]
    )
    f = rng.standard_normal(n)
    return lat, mu, nu, beta, f


def handle_at(kind, p, q, mu, nu, beta):
    """``OperatorHandle.from_beta``'s handle of ``kind`` running at p: the
    shifted kind, which runs at r = p/q, is asked for p * q, and gives p back
    exactly where p * q is exact (every (p, q) the tests use)."""
    return OperatorHandle.from_beta(kind, beta, p * q if kind == "shifted" else p, q, mu, nu)


def same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def check_additivity(measure, rel=1e-12):
    """mass(I) = sum of child masses for every internal atom, to ``rel``."""
    lat = measure.lattice
    for d in range(lat.depth):
        parents = measure.level_mass[d]
        kids = measure.level_mass[d + 1].reshape(-1, lat.arity).sum(axis=1)
        if not np.allclose(parents, kids, rtol=rel, atol=0.0):
            return False
    return True
