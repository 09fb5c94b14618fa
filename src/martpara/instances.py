"""Instance persistence: a single JSON format for lattice, weights and data.

Schema::

    {
      "arity": m, "depth": N,
      "mu":   [leaf masses],
      "nu":   [leaf masses],
      "beta": {"d,i,k": value, ...},   # internal atom (d, i), child slot k
      "f":    [leaf values]            # optional
    }

Floats are serialized with ``repr`` so a save/load round trip is bit exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import Lattice, build_lattice
from .measure import Measure
from .paraproduct import EdgeCoefficients


class InstanceFormatError(ValueError):
    """Malformed instance file; the message names the offending field."""


@dataclass
class Instance:
    lattice: Lattice
    mu: Measure
    nu: Measure
    beta: EdgeCoefficients
    f: Optional[np.ndarray] = None


def instance_to_json(inst: Instance) -> str:
    payload = {
        "arity": inst.lattice.arity,
        "depth": inst.lattice.depth,
        "mu": list(map(float, inst.mu.leaf_mass)),
        "nu": list(map(float, inst.nu.leaf_mass)),
        "beta": {
            f"{d},{i},{k}": v for (d, i, k), v in sorted(inst.beta.to_dict().items())
        },
    }
    if inst.f is not None:
        payload["f"] = list(map(float, inst.f))
    return json.dumps(payload, indent=1)


def save_instance(path, inst: Instance) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(inst))
        fh.write("\n")


def instance_from_json(text: str) -> Instance:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InstanceFormatError("expected a JSON object at the top level")
    for key in ("arity", "depth", "mu", "nu", "beta"):
        if key not in payload:
            raise InstanceFormatError(f"missing field {key!r}")
    for key in ("arity", "depth"):
        if type(payload[key]) is not int:  # a JSON integer; bool is an int subclass
            raise InstanceFormatError(f"bad field {key!r}: {payload[key]!r} is not an integer")
    try:
        lattice = build_lattice(payload["arity"], payload["depth"])
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"bad field 'arity'/'depth': {exc}") from exc

    def load_measure(key: str) -> Measure:
        try:
            return Measure(lattice, payload[key])
        except (TypeError, ValueError) as exc:
            raise InstanceFormatError(f"bad field {key!r}: {exc}") from exc

    mu = load_measure("mu")
    nu = load_measure("nu")
    entries = {}
    if not isinstance(payload["beta"], dict):
        raise InstanceFormatError("bad field 'beta': expected an object")
    for key, value in payload["beta"].items():
        try:
            d, i, k = (int(part) for part in key.split(","))
            entries[(d, i, k)] = float(value)
        except (TypeError, ValueError) as exc:
            raise InstanceFormatError(f"bad field 'beta[{key}]': {exc}") from exc
    try:
        beta = EdgeCoefficients.from_dict(lattice, entries)
    except ValueError as exc:
        raise InstanceFormatError(f"bad field 'beta': {exc}") from exc
    f = None
    if "f" in payload:
        try:
            arr = np.asarray(payload["f"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InstanceFormatError(f"bad field 'f': {exc}") from exc
        if arr.shape != (lattice.n_leaves,) or not np.all(np.isfinite(arr)):
            raise InstanceFormatError("bad field 'f': wrong length or non-finite entries")
        f = arr
    return Instance(lattice=lattice, mu=mu, nu=nu, beta=beta, f=f)


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())


def generate_random_instance(
    arity: int,
    depth: int,
    seed: int,
    sparsity: float = 0.2,
    mu_sparsity: Optional[float] = None,
) -> Instance:
    """Seeded random instance: masses are uniform on (0, 1] and then zeroed
    independently with probability ``sparsity`` (exercising the degenerate
    conventions); coefficients are standard normal; ``f`` is uniform on (0, 1].
    Identical seeds give bit-identical instances.  ``mu_sparsity`` overrides
    the shared sparsity for mu (batteries needing finite constants keep mu
    dense).
    """
    mu_sparsity = sparsity if mu_sparsity is None else mu_sparsity
    for s in (mu_sparsity, sparsity):
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"sparsity must be in [0, 1], got {s}")
    lattice = build_lattice(arity, depth)
    rng = np.random.default_rng(seed)
    n = lattice.n_leaves

    def masses(s: float) -> np.ndarray:
        vals = 1.0 - rng.random(n)  # uniform on (0, 1]
        dead = rng.random(n) < s
        vals[dead] = 0.0
        return vals

    mu = Measure(lattice, masses(mu_sparsity))
    nu = Measure(lattice, masses(sparsity))
    levels = [
        rng.standard_normal((lattice.level_size(d), arity)) for d in range(depth)
    ]
    beta = EdgeCoefficients(lattice, levels)
    f = 1.0 - rng.random(n)
    return Instance(lattice=lattice, mu=mu, nu=nu, beta=beta, f=f)
