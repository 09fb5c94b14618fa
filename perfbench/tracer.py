"""Spans around martpara's public functions, for the traced benchmark run.

``Tracer.install`` replaces each listed function by a wrapper in every
martpara module that holds it (``from .x import f`` copies the name, so the
defining module alone is not enough), and each listed method on its class.
While ``enabled`` is set, a wrapper records a span: name, start, end and the
span that was open when it started.  Per name it keeps the call count, the
inclusive time and the self time (duration minus the time covered by its
child spans); a few names also feed counters read off their arguments and
results.  The first ``SPAN_CAP`` spans are kept in memory and written out by
``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

from martpara.normest import AscentConfig

SPAN_CAP = 200_000

APPLIES = (
    "paraproduct_apply", "vector_paraproduct", "power_apply", "shifted_apply",
    "positive_apply", "bilinear_form",
)
TESTING = (
    "direct_testing", "direct_testing_symbol", "adjoint_testing",
    "adjoint_witness_data", "positive_operator_testing",
)
#: (layer, module, public functions and Class.method names wrapped there)
TARGETS = (
    ("lattice", "martpara.lattice", ("Lattice.block_sums", "Lattice.spread", "Lattice.chain_sum")),
    ("lattice", "martpara.measure", ("atom_integrals", "atom_averages", "safe_divide", "lp_norm")),
    ("paraproduct", "martpara.paraproduct", APPLIES + (
        "project_mean_zero", "sequence_norm", "pairing", "positive_from_symbol",
        "SequenceField.q_power_chain",
    )),
    ("testing", "martpara.testing", TESTING),
    ("martingale", "martpara.martingale", (
        "expectation", "martingale_difference", "square_function", "reconstruct",
        "maximal_function", "rubio_de_francia",
    )),
    ("normest", "martpara.normest", (
        "norm_lower_bound", "grid_oracle_norm", "necessity_report", "equivalence_report",
        "OperatorHandle.ratio",
    )),
    ("stopping", "martpara.stopping", (
        "stopping_generation", "modified_stopping_generation", "exhausted_members",
        "stopping_forest", "modified_stopping_forest", "split_collections",
        "carleson_constant", "carleson_embedding_check", "normalize_for_mirror", "proof_mirror",
    )),
    ("suite", "martpara.suite", ("run_all",)),
    ("instances", "martpara.instances", ("generate_random_instance",)),
)
FORESTS = ("stopping_forest", "modified_stopping_forest")
GENERATIONS = ("stopping_generation", "modified_stopping_generation")
N_CRITERIA = 11


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def rebind(attr: str, original, replacement) -> None:
    """Replace ``original`` by ``replacement`` in every loaded martpara module
    that holds it under the name ``attr``."""
    for key, module in list(sys.modules.items()):
        if (key == "martpara" or key.startswith("martpara.")) and getattr(module, attr, None) is original:
            setattr(module, attr, replacement)


def _leaves(name: str, args, kwargs) -> int:
    """Length of the array a lattice kernel works on."""
    if name.startswith("lattice.Lattice."):
        return args[0].n_leaves
    if name == "lattice.safe_divide":
        return int(np.size(args[0] if args else kwargs["num"]))
    m = kwargs["m"] if "m" in kwargs else args[-1]
    return m.lattice.n_leaves


def _grid_points(op, resolution: float = 1e-2) -> int:
    """Directions times sign patterns searched by ``grid_oracle_norm``."""
    k = int((op.mu.leaf_mass > 0.0).sum())
    if k <= 1:
        return 1
    npts = int(math.ceil((math.pi / 2.0) / resolution)) + 1
    patterns = 1 if op.positive_only else 2 ** (k - 1)
    return npts ** (k - 1) * patterns


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.criteria: dict[int, float] = {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self._stack: list[list] = []  # [span index or -1, child time]
        self._next_id = 0

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for layer, module_name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            for attr in attrs:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self._wrap(getattr(cls, meth), name))
                    continue
                original = getattr(module, attr)
                rebind(attr, original, self._wrap(original, name))

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs)

        return traced

    # -- recording -----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        slot = self._next_id if self._next_id < SPAN_CAP else -1
        self._next_id += 1
        if slot >= 0:
            self.spans.append((self._name_id(name), 0.0, 0.0, parent))
        frame = [slot, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            self.calls[name] += 1
            self.inclusive[name] += dur
            self.self_time[name] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur
            if slot >= 0:
                self.spans[slot] = (self.spans[slot][0], start, end, parent)
        self._probe(name, args, kwargs, result)
        return result

    def span(self, name: str, fn, *args, **kwargs):
        """Record one span around a call made by the benchmark itself."""
        was = self.enabled
        self.enabled = True
        try:
            return self.call(name, fn, args, kwargs)
        finally:
            self.enabled = was

    def _probe(self, name: str, args, kwargs, result) -> None:
        c = self.counters
        layer = layer_of(name)
        if layer == "lattice":
            c["lattice.elements"] += _leaves(name, args, kwargs)
        elif name == "normest.norm_lower_bound":
            cfg = (args[1] if len(args) > 1 else kwargs.get("cfg")) or AscentConfig()
            used = result.starts_used
            ascended = used if cfg.ascend_top is None else min(cfg.ascend_top, used)
            c["normest.starts_ascended"] += ascended if cfg.max_iter > 0 else 0
            c["normest.iterations"] += result.iterations
        elif name == "normest.grid_oracle_norm":
            op = args[0] if args else kwargs["op"]
            c["normest.grid_points"] += _grid_points(op, args[1] if len(args) > 1 else kwargs.get("resolution", 1e-2))
        elif name in ("stopping.stopping_forest", "stopping.modified_stopping_forest"):
            c["stopping.stopping_atoms"] += len(result.stopping_atoms)
        elif name == "suite.run_all":
            for res in result:
                self.criteria[res.number] = self.criteria.get(res.number, 0.0) + res.seconds

    # -- reporting -----------------------------------------------------------
    def _sum(self, table, names) -> float:
        return float(sum(table.get(n, 0) for n in names))

    def _layer_sum(self, table, layer: str) -> float:
        return float(sum(v for n, v in table.items() if layer_of(n) == layer))

    def metrics(self, rounds: int, generate_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per timed round."""
        r = max(rounds, 1)
        calls, incl, selft, c = self.calls, self.inclusive, self.self_time, self.counters
        lattice_calls = self._layer_sum(calls, "lattice")
        out = {
            "lattice.calls": (lattice_calls / r, "count"),
            "lattice.leaves_per_call": (c["lattice.elements"] / lattice_calls if lattice_calls else 0.0, "count"),
            "lattice.self_s": (self._layer_sum(selft, "lattice") / r, "s"),
            "paraproduct.applies": (self._sum(calls, [f"paraproduct.{n}" for n in APPLIES]) / r, "count"),
            "paraproduct.self_s": (self._layer_sum(selft, "paraproduct") / r, "s"),
            "paraproduct.project_mean_zero_s": (incl.get("paraproduct.project_mean_zero", 0.0) / r, "s"),
            "testing.calls": (self._sum(calls, [f"testing.{n}" for n in TESTING]) / r, "count"),
            "testing.self_s": (self._layer_sum(selft, "testing") / r, "s"),
            "martingale.maximal_calls": (calls.get("martingale.maximal_function", 0) / r, "count"),
            "martingale.self_s": (self._layer_sum(selft, "martingale") / r, "s"),
            "normest.starts_ascended": (c["normest.starts_ascended"] / r, "count"),
            "normest.ratio_evals": (calls.get("normest.OperatorHandle.ratio", 0) / r, "count"),
            "normest.ascent_s": (incl.get("normest.norm_lower_bound", 0.0) / r, "s"),
            "normest.iterations": (c["normest.iterations"] / r, "count"),
            "normest.grid_calls": (calls.get("normest.grid_oracle_norm", 0) / r, "count"),
            "normest.grid_s": (incl.get("normest.grid_oracle_norm", 0.0) / r, "s"),
            "normest.grid_points": (c["normest.grid_points"] / r, "count"),
            "stopping.generation_calls": (self._sum(calls, [f"stopping.{n}" for n in GENERATIONS]) / r, "count"),
            "stopping.forest_s": (self._sum(incl, [f"stopping.{n}" for n in FORESTS]) / r, "s"),
            "stopping.mirror_self_s": (selft.get("stopping.proof_mirror", 0.0) / r, "s"),
            "stopping.stopping_atoms": (c["stopping.stopping_atoms"] / r, "count"),
        }
        for k in range(1, N_CRITERIA + 1):
            out[f"suite.criterion_{k:02d}_s"] = (self.criteria.get(k, 0.0) / r, "s")
        out["instances.generate_s"] = (generate_s, "s")
        return out

    def dump(self, path) -> None:
        """Write the kept spans as {"names": [...], "spans": [[name, start, end, parent], ...]};
        ``parent`` indexes ``spans`` and is -1 for a top-level span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "recorded": self._next_id}, fh)
