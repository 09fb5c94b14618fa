"""The benchmark's four workloads.

Each workload makes its inputs from the benchmark seed (``generate``), warms
up, computes its expected values once from ``reference`` (never from the
program), and then runs identical rounds (``run_round``).  A round is a fixed
list of operations, the same for every seed, so that every run attempts whole
rounds and the share of failed operations does not depend on the seed or on
the run length.  ``check`` compares one round's outputs with the expectations
and returns the number of failed operations and the list of wrong results.

The program is driven only through its public functions and ``cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time

import numpy as np

import martpara as mp
from martpara import cli

import reference as R
from tracer import rebind


class Failure:
    """Stands in for the result of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Failure({self.message})"


def sub_seed(seed: int, *key: int) -> int:
    """Independent integer seed for one input, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``martpara <argv>`` in this process; returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_value(text: str):
    """The "value" field of `martpara norm` JSON output, or None."""
    try:
        return float(json.loads(text)["value"])
    except (ValueError, KeyError, TypeError):
        return None


def leaf_levels(coeffs) -> list[np.ndarray]:
    return [np.array(coeffs.level(d)) for d in range(coeffs.lattice.depth)]


class Checks:
    """Collects the description of every wrong result."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def fail(self, label: str, detail: str) -> None:
        self.errors.append(f"{label}: {detail}")

    def true(self, label: str, cond: bool, detail: str = "") -> None:
        if not cond:
            self.fail(label, detail or "condition is false")

    def close(self, label: str, got, want, rtol: float = 1e-9) -> None:
        """|got - want| <= rtol * max|want| elementwise, infinities equal."""
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.fail(label, f"shape {got.shape} != {want.shape}")
            return
        inf_w, inf_g = np.isinf(want), np.isinf(got)
        if np.any(np.isnan(got)) or np.any(inf_w != inf_g) or np.any(got[inf_w] != want[inf_w]):
            self.fail(label, f"non-finite mismatch: got {got.ravel()[:4]}, want {want.ravel()[:4]}")
            return
        if not np.any(~inf_w):
            return
        scale = float(np.max(np.abs(want[~inf_w]), initial=0.0))
        err = float(np.max(np.abs(got[~inf_w] - want[~inf_w]), initial=0.0))
        if err > rtol * scale or (scale == 0.0 and err > 0.0):
            self.fail(label, f"max error {err:.3e} > {rtol:.0e} * {scale:.3e}")

    def at_most(self, label: str, lhs: float, rhs: float, rel: float) -> None:
        """lhs <= rhs up to a relative slack."""
        if not (math.isfinite(lhs) and lhs <= rhs + rel * abs(rhs)):
            self.fail(label, f"{lhs!r} > {rhs!r}")


class Workload:
    name = ""
    attempted_per_round = 0

    def __init__(self, seed: int):
        self.seed = seed
        #: label -> (wall s, CPU s) of each operation since the last reset
        self.op_times: dict[str, tuple[float, float]] = {}

    def attempt(self, out: dict, label: str, fn, *args):
        """Run one operation and time it; an exception is recorded as a
        failed operation.

        Catching every ``Exception`` is deliberate: a run must finish and
        report the failure instead of losing every other measurement."""
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out[label] = fn(*args)
        except Exception as exc:  # noqa: BLE001
            out[label] = Failure(exc)
        self.op_times[label] = (time.perf_counter() - w0, time.process_time() - c0)
        return out[label]

    def generate(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def reference(self) -> dict:
        raise NotImplementedError

    def run_round(self) -> dict:
        raise NotImplementedError

    def check(self, out: dict, ref: dict) -> tuple[int, list[str]]:
        raise NotImplementedError

    def lower_bounds(self, out: dict) -> float:
        """Sum of the certified norm lower bounds the round produced."""
        raise NotImplementedError

    @staticmethod
    def failures(out: dict) -> int:
        return sum(isinstance(v, Failure) for v in out.values())


def bounded_instance(rng: np.random.Generator, arity: int, depth: int):
    """Instance with masses in [0.5, 1.5) (a fifth of the nu leaves massless)
    and coefficients of random sign and size in [0.5, 1.5).  Bounded sizes
    keep the operators' norms, which the coefficients near the root dominate,
    from swinging between seeds."""
    lat = mp.build_lattice(arity, depth)
    n = lat.n_leaves
    mu = 0.5 + rng.random(n)
    nu = 0.5 + rng.random(n)
    nu[rng.random(n) < 0.2] = 0.0
    levels = [
        rng.choice((-1.0, 1.0), size=(arity ** d, arity)) * (0.5 + rng.random((arity ** d, arity)))
        for d in range(depth)
    ]
    return mp.Instance(lattice=lat, mu=mp.Measure(lat, mu), nu=mp.Measure(lat, nu),
                       beta=mp.EdgeCoefficients(lat, levels))


# ---------------------------------------------------------------------------
# ascent-small: the estimator layer on tiny trees
# ---------------------------------------------------------------------------

ASCENT_SHAPES = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4))
P_LE_Q = ((1.5, 2.0), (2.0, 2.0), (2.0, 3.0))
P_GT_Q = ((4.0, 2.0), (3.0, 2.0), (4.0, 3.0))
#: (kind, --p, --q) of the `martpara norm` calls; every one is a weighted
#: matrix 2-norm: p = q = 2, and `shifted` runs at p/q = 2
CLI_NORMS = (
    ("vector_paraproduct", 2.0, 2.0),
    ("shifted", 4.0, 2.0),
    ("positive", 2.0, 2.0),
    ("paraproduct", 2.0, 2.0),
)
#: the CLI calls use default ascent (every start, up to 500 iterations), whose
#: cost varies threefold between instances; a fixed instance seed keeps the
#: round's cost independent of the benchmark seed
CLI_SEED = 0


class AscentSmall(Workload):
    name = "ascent-small"
    n_bounded, n_necessity, n_equivalence = 36, 12, 6
    cli_depth = 3
    attempted_per_round = n_bounded + n_necessity + n_equivalence + len(CLI_NORMS)

    def _instance(self, k: int):
        arity, depth = ASCENT_SHAPES[k % len(ASCENT_SHAPES)]
        return bounded_instance(np.random.default_rng(sub_seed(self.seed, 0, k)), arity, depth)

    def generate(self) -> None:
        self.bounded = []
        for k in range(self.n_bounded):
            inst = self._instance(k)
            p, q = P_LE_Q[k % len(P_LE_Q)]
            op = mp.OperatorHandle(kind="vector_paraproduct", p=p, q=q, mu=inst.mu, nu=inst.nu, beta=inst.beta)
            cfg = mp.AscentConfig(starts=6, max_iter=25, ascend_top=4, seed=k)
            self.bounded.append((inst, p, q, op, cfg))
        self.reports = []
        for k in range(self.n_necessity + self.n_equivalence):
            inst = self._instance(1000 + k)
            p, q = P_GT_Q[k % len(P_GT_Q)]
            cfg = mp.AscentConfig(starts=6, max_iter=15, ascend_top=3, seed=k)
            self.reports.append((inst, p, q, cfg))
        self.cli_argv = [
            ["norm", "--arity", "2", "--depth", str(self.cli_depth), "--seed", str(CLI_SEED),
             "--kind", kind, "--p", repr(p), "--q", repr(q)]
            for kind, p, q in CLI_NORMS
        ]
        self.cli_instance = mp.generate_random_instance(2, self.cli_depth, seed=CLI_SEED)

    def warm_up(self) -> None:
        inst, p, q, op, cfg = self.bounded[0]
        mp.norm_lower_bound(op, cfg)
        run_cli(["norm", "--arity", "2", "--depth", "1", "--seed", "1"])

    def reference(self) -> dict:
        ref: dict = {"bounded": [], "reports": [], "cli": []}
        for inst, p, q, op, cfg in self.bounded:
            t = R.Tree(inst.lattice.arity, inst.lattice.depth)
            ref["bounded"].append(
                R.direct_testing(t, leaf_levels(inst.beta), p, q, inst.mu.leaf_mass, inst.nu.leaf_mass)
            )
        for inst, p, q, cfg in self.reports:
            t = R.Tree(inst.lattice.arity, inst.lattice.depth)
            args = (t, leaf_levels(inst.beta), p, q, inst.mu.leaf_mass, inst.nu.leaf_mass)
            ref["reports"].append((R.direct_testing(*args), R.adjoint_testing(*args)))
        ref["cli"] = [self._two_norm(kind) for kind, _, _ in CLI_NORMS]
        return ref

    def _two_norm(self, kind: str) -> float:
        """Norm of the CLI's operator at exponent 2, from its matrix."""
        inst = self.cli_instance
        t = R.Tree(inst.lattice.arity, inst.lattice.depth)
        mu, nu = inst.mu.leaf_mass, inst.nu.leaf_mass
        levels = leaf_levels(inst.beta)
        alive = np.nonzero(mu > 0.0)[0]
        out_weight = nu
        if kind == "vector_paraproduct":
            out_weight = np.concatenate([t.block(nu, e) for e in range(1, t.n + 1)])
            apply = lambda x: np.concatenate(R.vector_paraproduct(t, levels, x, mu))  # noqa: E731
        elif kind == "shifted":
            apply = lambda x: R.shifted(t, levels, x, 2.0, mu)  # noqa: E731
        elif kind == "positive":
            apply = lambda x: R.positive(t, [np.abs(lvl) for lvl in levels], x, mu)  # noqa: E731
        else:
            sym = R.project_mean_zero(t, levels, nu)
            apply = lambda x: R.paraproduct(t, sym, x, mu)  # noqa: E731
        return R.weighted_two_norm([apply(np.eye(t.leaves)[j]) for j in alive], out_weight, mu[alive])

    def run_round(self) -> dict:
        out: dict = {}
        for k, (inst, p, q, op, cfg) in enumerate(self.bounded):
            self.attempt(out, f"bounded[{k}]", mp.norm_lower_bound, op, cfg)
        for k, (inst, p, q, cfg) in enumerate(self.reports):
            if k < self.n_necessity:
                self.attempt(out, f"necessity[{k}]", mp.necessity_report, inst.beta, p, q, inst.mu, inst.nu, cfg)
            else:
                self.attempt(out, f"equivalence[{k}]", mp.equivalence_report, inst.beta, p, q, inst.mu, inst.nu, cfg)
        for k, argv in enumerate(self.cli_argv):
            self.attempt(out, f"cli[{k}]", run_cli, argv)
        return out

    @staticmethod
    def _reference_ratio(inst, p: float, q: float, x: np.ndarray) -> float:
        t = R.Tree(inst.lattice.arity, inst.lattice.depth)
        mu, nu = inst.mu.leaf_mass, inst.nu.leaf_mass
        den = R.lp_norm(x, p, mu)
        seq = R.vector_paraproduct(t, leaf_levels(inst.beta), x, mu)
        return R.sequence_norm(t, seq, p, q, nu) / den if den > 0 else 0.0

    def _check_estimate(self, c: Checks, label: str, inst, p, q, est) -> None:
        op = mp.OperatorHandle(kind="vector_paraproduct", p=p, q=q, mu=inst.mu, nu=inst.nu, beta=inst.beta)
        c.close(f"{label} value = OperatorHandle.ratio(argmax)", est.value, op.ratio(est.argmax), 1e-12)
        c.close(f"{label} value = ratio from the definitions", est.value,
                self._reference_ratio(inst, p, q, est.argmax))

    def check(self, out: dict, ref: dict) -> tuple[int, list[str]]:
        failed = self.failures(out)
        c = Checks()
        for k, (inst, p, q, op, cfg) in enumerate(self.bounded):
            est = out[f"bounded[{k}]"]
            if isinstance(est, Failure):
                continue
            label = f"bounded[{k}] p={p} q={q}"
            b = ref["bounded"][k]
            self._check_estimate(c, label, inst, p, q, est)
            c.at_most(f"{label} B <= estimate", b, est.value, 1e-9)
            cap = 2.0 ** ((p + 1.0) / p) * mp.conjugate(p) * b
            c.at_most(f"{label} estimate <= 2^((p+1)/p) p' B", est.value, cap, 1e-9)
        for k, (inst, p, q, cfg) in enumerate(self.reports):
            b, b_star = ref["reports"][k]
            factor = 4.0 * p / (p - q)
            if k < self.n_necessity:
                label = f"necessity[{k}] p={p} q={q}"
                rep = out[f"necessity[{k}]"]
                if isinstance(rep, Failure):
                    continue
                value = rep.norm_estimate.value
                self._check_estimate(c, label, inst, p, q, rep.norm_estimate)
            else:
                label = f"equivalence[{k}] p={p} q={q}"
                rep = out[f"equivalence[{k}]"]
                if isinstance(rep, Failure):
                    continue
                value = rep.a_vector
                c.true(f"{label} report.passed", rep.passed, str(rep.checks))
            c.close(f"{label} B", rep.b_direct, b)
            c.close(f"{label} B*", rep.b_adjoint, b_star)
            c.at_most(f"{label} B <= estimate", b, value, 1e-6)
            c.at_most(f"{label} B* <= 4p/(p-q) estimate^q", b_star, factor * value ** q, 1e-6)
        for k, (kind, p, q) in enumerate(CLI_NORMS):
            res = out[f"cli[{k}]"]
            if isinstance(res, Failure):
                continue
            label = f"cli[{k}] norm --kind {kind} --p {p} --q {q}"
            code, text = res
            c.true(f"{label} exit code", code == 0, f"exit code {code}")
            value = cli_value(text)
            if value is None:
                c.fail(label, f"unreadable output {text!r}")
                continue
            c.true(f"{label} positive", value > 0.0, f"value {value!r}")
            c.at_most(f"{label} estimate <= 2-norm", value, ref["cli"][k], 1e-9)
        return failed, c.errors

    def lower_bounds(self, out: dict) -> float:
        total = 0.0
        for label, res in out.items():
            if isinstance(res, Failure):
                continue
            if label.startswith("bounded"):
                total += res.value
            elif label.startswith("necessity"):
                total += res.norm_estimate.value
            elif label.startswith("equivalence"):
                total += res.a_vector + res.a_shifted
            elif label.startswith("cli"):
                total += cli_value(res[1]) or 0.0
        return total


# ---------------------------------------------------------------------------
# suite-quick: `martpara suite --quick`
# ---------------------------------------------------------------------------

N_CRITERIA = 11


def log_estimates(log: list) -> None:
    """Append ``NormEstimate.value`` of every ``norm_lower_bound`` call to
    ``log``; the wrapper records a float and adds nothing else to the call."""
    original = mp.normest.norm_lower_bound

    def logged(*args, **kwargs):
        est = original(*args, **kwargs)
        log.append(est.value)
        return est

    rebind("norm_lower_bound", original, logged)


class SuiteQuick(Workload):
    """The acceptance battery's quick pass.  Its inputs are fixed in
    ``suite.py``, so the seed does not vary them; ``suite._oracle_cache`` is
    module state, so run.py starts a fresh interpreter for every pass."""

    name = "suite-quick"
    attempted_per_round = N_CRITERIA

    def generate(self) -> None:
        self.estimates: list[float] = []
        log_estimates(self.estimates)

    def warm_up(self) -> None:
        run_cli(["testing", "--arity", "2", "--depth", "3", "--trials", "2", "--p", "4", "--q", "2"])

    def reference(self) -> dict:
        return {"criteria": list(range(1, N_CRITERIA + 1))}

    def run_round(self) -> dict:
        self.estimates.clear()
        out: dict = {}
        self.attempt(out, "suite", run_cli, ["suite", "--quick"])
        out["estimates"] = list(self.estimates)
        return out

    def check(self, out: dict, ref: dict) -> tuple[int, list[str]]:
        res = out["suite"]
        if isinstance(res, Failure):
            return N_CRITERIA, [f"suite: {res.message}"]
        c = Checks()
        code, text = res
        c.true("suite exit code", code == 0, f"exit code {code}")
        lines = text.strip().splitlines()
        c.true("suite header", bool(lines) and lines[0] == "criterion,name,pass,detail", repr(lines[:1]))
        rows = [line.split(",") for line in lines[1:]]
        numbers = [int(row[0]) if row[0].isdigit() else -1 for row in rows]
        c.true("suite criteria", numbers == ref["criteria"], f"criteria {numbers}")
        for row in rows:
            c.true(f"suite criterion {row[0]} PASS", len(row) > 2 and row[2] == "True", ",".join(row))
        return 0, c.errors

    def lower_bounds(self, out: dict) -> float:
        return float(sum(out["estimates"]))


# ---------------------------------------------------------------------------
# mirror-heavy: stopping constructions under heavy-tailed functions
# ---------------------------------------------------------------------------

#: (arity, depth, p, also build both forests over all atoms)
MIRROR_CASES = ((2, 10, 1.5, True), (3, 7, 3.0, False), (2, 11, 2.0, False))
PARETO_INDEX = 1.5


def pareto(rng: np.random.Generator, n: int) -> np.ndarray:
    """The ``n`` quantiles ((i + 1/2)/n) of the Pareto law on [1, inf) with
    tail index ``PARETO_INDEX``, in a random order.  Every seed gets the same
    values, heavy tail included, so the seed moves only where they sit."""
    u = (np.arange(n) + 0.5) / n
    return rng.permutation((1.0 - u) ** (-1.0 / PARETO_INDEX))


def atom_mass(leaf_mass: np.ndarray, arity: int, depth: int, atom) -> float:
    width = arity ** (depth - atom.depth)
    return float(leaf_mass[atom.index * width:(atom.index + 1) * width].sum())


def carleson_from_leaves(atoms, leaf_mass: np.ndarray, arity: int, depth: int) -> float:
    """sup over atoms J of (sum of the masses of the given atoms inside J) / mass(J)."""
    t = R.Tree(arity, depth)
    weights = [np.zeros(arity ** d) for d in range(depth + 1)]
    for a in atoms:
        weights[a.depth][a.index] += atom_mass(leaf_mass, arity, depth, a)
    best = 0.0
    for d in range(depth + 1):
        inside = sum(weights[e].reshape(arity ** d, -1).sum(axis=1) for e in range(d, depth + 1))
        mass = t.block(leaf_mass, d)
        if np.any((mass == 0.0) & (inside > 0.0)):
            return math.inf
        best = max(best, float(R.safe_ratio(inside, mass).max()))
    return best


def mirror(alpha, f, g, p, mu, nu):
    """Normalize, then replay the decomposition; returns both results."""
    alpha_n, f_n, g_n = mp.normalize_for_mirror(alpha, f, g, p, mu, nu)
    return (alpha_n, f_n), mp.proof_mirror(alpha_n, f_n, g_n, p, mu, nu)


class MirrorHeavy(Workload):
    name = "mirror-heavy"
    cases = MIRROR_CASES
    attempted_per_round = sum(3 if forests else 1 for *_, forests in MIRROR_CASES)

    def _make(self, k: int, arity: int, depth: int):
        rng = np.random.default_rng(sub_seed(self.seed, 2, k))
        inst = bounded_instance(rng, arity, depth)
        n = inst.lattice.n_leaves
        alpha = mp.NonnegativeCoefficients(inst.lattice, [np.abs(lvl) for lvl in leaf_levels(inst.beta)])
        return inst, alpha, pareto(rng, n), pareto(rng, n)

    def generate(self) -> None:
        self.inputs = []
        for k, (arity, depth, p, forests) in enumerate(self.cases):
            inst, alpha, f, g = self._make(k, arity, depth)
            self.inputs.append((inst, alpha, f, g, set(inst.lattice.atoms())))

    def warm_up(self) -> None:
        inst, alpha, f, g = self._make(100, 2, 6)
        mirror(alpha, f, g, 2.0, inst.mu, inst.nu)
        atoms = set(inst.lattice.atoms())
        mp.stopping_forest(atoms, f, inst.mu, [inst.lattice.root])
        mp.modified_stopping_forest(atoms, f, inst.mu, [inst.lattice.root])

    def reference(self) -> dict:
        pairings = []
        for (arity, depth, p, _), (inst, alpha, f, g, _) in zip(self.cases, self.inputs):
            t = R.Tree(arity, depth)
            mu, nu = inst.mu.leaf_mass, inst.nu.leaf_mass
            levels = leaf_levels(alpha)
            b, b_star = R.positive_testing(t, levels, p, mu, nu)
            scale = R.lp_norm(f, p, mu) * R.lp_norm(g, p / (p - 1.0), nu) * max(b, b_star)
            pairings.append(R.pairing_sum(t, levels, f, g, mu, nu) / scale)
        return {"pairing": pairings}

    def run_round(self) -> dict:
        out: dict = {}
        for k, ((arity, depth, p, forests), (inst, alpha, f, g, atoms)) in enumerate(zip(self.cases, self.inputs)):
            self.attempt(out, f"mirror[{k}]", mirror, alpha, f, g, p, inst.mu, inst.nu)
            if forests:
                root = [inst.lattice.root]
                self.attempt(out, f"plain[{k}]", mp.stopping_forest, atoms, f, inst.mu, root)
                self.attempt(out, f"modified[{k}]", mp.modified_stopping_forest, atoms, f, inst.mu, root)
        return out

    @staticmethod
    def _coverage(c: Checks, label: str, forest, leaf_mass, arity: int, depth: int) -> None:
        for top, selected in forest.selected.items():
            covered = sum(atom_mass(leaf_mass, arity, depth, s) for s in selected)
            half = 0.5 * atom_mass(leaf_mass, arity, depth, top)
            c.at_most(f"{label} atoms selected under {tuple(top)} cover at most half", covered, half, 1e-12)

    @staticmethod
    def _carleson(c: Checks, label: str, forest, leaf_mass, arity: int, depth: int) -> None:
        const = carleson_from_leaves(forest.stopping_atoms, leaf_mass, arity, depth)
        c.true(f"{label} Carleson constant < 2", const < 2.0, f"constant {const!r}")

    def check(self, out: dict, ref: dict) -> tuple[int, list[str]]:
        failed = self.failures(out)
        c = Checks()
        for k, ((arity, depth, p, forests), (inst, *_)) in enumerate(zip(self.cases, self.inputs)):
            mu, nu = inst.mu.leaf_mass, inst.nu.leaf_mass
            res = out[f"mirror[{k}]"]
            if not isinstance(res, Failure):
                rep = res[1]
                label = f"mirror[{k}] {arity}^{depth} p={p}"
                c.true(f"{label} report.passed", rep.passed,
                       "; ".join(ch.name for ch in rep.checks if not ch.ok) or "identity")
                c.close(f"{label} pairing", rep.pairing_value, ref["pairing"][k])
                self._coverage(c, f"{label} modified half", rep.half1.forest, mu, arity, depth)
                self._coverage(c, f"{label} plain half", rep.half2.forest, nu, arity, depth)
                self._carleson(c, f"{label} plain half", rep.half2.forest, nu, arity, depth)
            if not forests:
                continue
            for kind in ("plain", "modified"):
                forest = out[f"{kind}[{k}]"]
                if isinstance(forest, Failure):
                    continue
                label = f"{kind}[{k}] {arity}^{depth}"
                self._coverage(c, label, forest, mu, arity, depth)
                if kind == "plain":
                    self._carleson(c, label, forest, mu, arity, depth)
        return failed, c.errors

    def lower_bounds(self, out: dict) -> float:
        """||T f|| / ||f|| for each normalized operator T and function f that
        normalize_for_mirror returned.  The pairing checks already fix these
        values; they are here because every workload reports norm_lb_sum, and
        the sum of the pairings, also a lower bound, swings too much between
        seeds (quartile spread 0.18 over ten seeds)."""
        total = 0.0
        for k, ((arity, depth, p, _), (inst, *_)) in enumerate(zip(self.cases, self.inputs)):
            res = out[f"mirror[{k}]"]
            if not isinstance(res, Failure):
                (alpha_n, f_n), _ = res
                mu, nu = inst.mu.leaf_mass, inst.nu.leaf_mass
                image = R.positive(R.Tree(arity, depth), leaf_levels(alpha_n), f_n, mu)
                total += R.lp_norm(image, p, nu) / R.lp_norm(f_n, p, mu)
        return total


# ---------------------------------------------------------------------------
# kernels-large: the lattice, operator, testing and martingale layers
# ---------------------------------------------------------------------------

#: (arity, depth, p, q)
KERNEL_CASES = ((2, 16, 4.0, 2.0), (3, 10, 3.0, 2.0))
KERNEL_OPS = (
    "atom_averages", "project_mean_zero", "paraproduct_apply", "vector_paraproduct",
    "sequence_norm", "shifted_apply", "positive_apply", "direct_testing",
    "adjoint_testing", "positive_operator_testing", "rubio_de_francia",
)
#: homogeneity probes on a fixed dense 2^10 instance: direct_testing(t beta) = t B
#: and adjoint_testing(t beta) = t^q B*.  They fail today (0 or inf instead of
#: the scaled constant) because testing.py raises chain sums to a power before
#: factoring out the scale; they are counted as failed operations.
PROBE_INSTANCE = (2, 10, 3)
#: the cases' coefficients and measures are the same for every seed; only f
#: and g vary.  project_mean_zero rejects its own output on about one random
#: instance in thirty (its cancellation error exceeds the mean-zero check's
#: tolerance, which is relative to the corrected coefficients), and every
#: operation of a round must fail on every seed or on none.
KERNEL_INSTANCE_SEED = 0
PROBE_P, PROBE_Q = 4.0, 2.0
PROBE_SCALES = (1e-90, 1e90)


class KernelsLarge(Workload):
    name = "kernels-large"
    cases = KERNEL_CASES
    attempted_per_round = len(KERNEL_CASES) * len(KERNEL_OPS) + 2 * len(PROBE_SCALES)

    def generate(self) -> None:
        self.inputs = []
        for k, (arity, depth, p, q) in enumerate(self.cases):
            inst = bounded_instance(np.random.default_rng(sub_seed(KERNEL_INSTANCE_SEED, 4, k)), arity, depth)
            n = inst.lattice.n_leaves
            alpha = mp.NonnegativeCoefficients(inst.lattice, [np.abs(lvl) for lvl in leaf_levels(inst.beta)])
            rng = np.random.default_rng(sub_seed(self.seed, 5, k))
            self.inputs.append((inst, alpha, rng.standard_normal(n), 1.0 - rng.random(n)))
        arity, depth, seed = PROBE_INSTANCE
        self.probe = mp.generate_random_instance(arity, depth, seed=seed, sparsity=0.0)
        self.probe_beta = {s: self.probe.beta.scaled(s) for s in PROBE_SCALES}

    def _ops(self, out: dict, k: int, inst, alpha, f, g, p: float, q: float) -> None:
        mu, nu, beta = inst.mu, inst.nu, inst.beta
        self.attempt(out, f"atom_averages[{k}]", mp.atom_averages, f, mu)
        sym = self.attempt(out, f"project_mean_zero[{k}]", mp.project_mean_zero, beta, nu)
        self.attempt(out, f"paraproduct_apply[{k}]", mp.paraproduct_apply, sym, f, mu)
        seq = self.attempt(out, f"vector_paraproduct[{k}]", mp.vector_paraproduct, beta, f, mu)
        self.attempt(out, f"sequence_norm[{k}]", mp.sequence_norm, seq, p, q, nu)
        self.attempt(out, f"shifted_apply[{k}]", mp.shifted_apply, beta, g, q, mu)
        self.attempt(out, f"positive_apply[{k}]", mp.positive_apply, alpha, g, mu)
        self.attempt(out, f"direct_testing[{k}]", mp.direct_testing, beta, p, q, mu, nu)
        self.attempt(out, f"adjoint_testing[{k}]", mp.adjoint_testing, beta, p, q, mu, nu)
        self.attempt(out, f"positive_operator_testing[{k}]", mp.positive_operator_testing, alpha, p, mu, nu)
        self.attempt(out, f"rubio_de_francia[{k}]", mp.rubio_de_francia, f, mu, p)

    def _probes(self, out: dict) -> None:
        mu, nu = self.probe.mu, self.probe.nu
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for s in PROBE_SCALES:
                beta = self.probe_beta[s]
                self.attempt(out, f"direct_probe[{s:g}]", mp.direct_testing, beta, PROBE_P, PROBE_Q, mu, nu)
                self.attempt(out, f"adjoint_probe[{s:g}]", mp.adjoint_testing, beta, PROBE_P, PROBE_Q, mu, nu)

    def warm_up(self) -> None:
        inst = self.probe
        alpha = mp.NonnegativeCoefficients(inst.lattice, [np.abs(lvl) for lvl in leaf_levels(inst.beta)])
        f = np.linspace(-1.0, 1.0, inst.lattice.n_leaves)
        self._ops({}, 0, inst, alpha, f, np.abs(f), PROBE_P, PROBE_Q)
        self._probes({})

    def reference(self) -> dict:
        ref: dict = {"cases": []}
        for (arity, depth, p, q), (inst, alpha, f, g) in zip(self.cases, self.inputs):
            t = R.Tree(arity, depth)
            mu, nu = inst.mu.leaf_mass, inst.nu.leaf_mass
            levels = leaf_levels(inst.beta)
            a_levels = leaf_levels(alpha)
            sym = R.project_mean_zero(t, levels, nu)
            seq = R.vector_paraproduct(t, levels, f, mu)
            ref["cases"].append({
                "atom_averages": R.averages(t, f, mu),
                "project_mean_zero": sym,
                "paraproduct_apply": R.paraproduct(t, sym, f, mu),
                "quadratic": R.paraproduct_square_sum(t, sym, f, mu, nu),
                "vector_paraproduct": seq,
                "sequence_norm": R.sequence_norm(t, seq, p, q, nu),
                "shifted_apply": R.shifted(t, levels, g, q, mu),
                "positive_apply": R.positive(t, a_levels, g, mu),
                "direct_testing": R.direct_testing(t, levels, p, q, mu, nu),
                "adjoint_testing": R.adjoint_testing(t, levels, p, q, mu, nu),
                "positive_operator_testing": R.positive_testing(t, a_levels, p, mu, nu),
                "rubio_de_francia": R.rubio_de_francia(t, f, mu, p),
            })
        arity, depth, _ = PROBE_INSTANCE
        t = R.Tree(arity, depth)
        args = (t, leaf_levels(self.probe.beta), PROBE_P, PROBE_Q, self.probe.mu.leaf_mass, self.probe.nu.leaf_mass)
        ref["probe"] = (R.direct_testing(*args), R.adjoint_testing(*args))
        return ref

    def run_round(self) -> dict:
        out: dict = {}
        for k, ((arity, depth, p, q), (inst, alpha, f, g)) in enumerate(zip(self.cases, self.inputs)):
            self._ops(out, k, inst, alpha, f, g, p, q)
        self._probes(out)
        return out

    def check(self, out: dict, ref: dict) -> tuple[int, list[str]]:
        failed = self.failures(out)
        c = Checks()
        for k, ((arity, depth, p, q), (inst, *_)) in enumerate(zip(self.cases, self.inputs)):
            want = ref["cases"][k]
            got = {op: out[f"{op}[{k}]"] for op in KERNEL_OPS}
            label = f"{arity}^{depth}"
            for op in ("paraproduct_apply", "sequence_norm", "shifted_apply", "positive_apply",
                       "direct_testing", "adjoint_testing", "positive_operator_testing",
                       "rubio_de_francia"):
                if not isinstance(got[op], Failure):
                    c.close(f"{op} {label}", got[op], want[op])
            if not isinstance(got["atom_averages"], Failure):
                for d, (a, b) in enumerate(zip(got["atom_averages"], want["atom_averages"])):
                    c.close(f"atom_averages {label} depth {d}", a, b)
            if not isinstance(got["project_mean_zero"], Failure):
                for d, b in enumerate(want["project_mean_zero"]):
                    c.close(f"project_mean_zero {label} depth {d}", got["project_mean_zero"].beta.level(d), b)
            if not isinstance(got["vector_paraproduct"], Failure):
                for e, b in enumerate(want["vector_paraproduct"], start=1):
                    c.close(f"vector_paraproduct {label} depth {e}", got["vector_paraproduct"].level(e), b)
            if not isinstance(got["paraproduct_apply"], Failure):
                square = float(np.sum(got["paraproduct_apply"] ** 2 * inst.nu.leaf_mass))
                c.close(f"quadratic identity {label}", square, want["quadratic"])
        b, b_star = ref["probe"]
        for s in PROBE_SCALES:
            for name, expect in ((f"direct_probe[{s:g}]", s * b), (f"adjoint_probe[{s:g}]", s ** PROBE_Q * b_star)):
                got = out[name]
                if isinstance(got, Failure):
                    continue
                probe = Checks()
                probe.close(name, got, expect)
                failed += bool(probe.errors)
        return failed, c.errors

    def lower_bounds(self, out: dict) -> float:
        """Sum of the direct testing constants: each B is at most the norm of
        its vector paraproduct.  The checks already fix these values; they
        are here because every workload reports norm_lb_sum."""
        values = [out[f"direct_testing[{k}]"] for k in range(len(self.cases))]
        return sum(v for v in values if not isinstance(v, Failure))


WORKLOADS = {w.name: w for w in (AscentSmall, SuiteQuick, MirrorHeavy, KernelsLarge)}
