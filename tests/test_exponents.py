"""The one exponent check: every public function that takes p or q rejects
nan, +-inf and the lower bound of its range with a ValueError naming the
exponent, and no other range check on p or q exists in the package."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from martpara import (
    OperatorHandle,
    adjoint_testing,
    build_cantor_instance,
    carleson_embedding_check,
    conjugate,
    direct_testing,
    direct_testing_cap,
    direct_testing_symbol,
    divergence_report,
    equivalence_report,
    lp_norm,
    necessity_report,
    norm_lower_bound,
    normalize_for_mirror,
    positive_from_symbol,
    positive_operator_testing,
    power_apply,
    project_mean_zero,
    proof_mirror,
    rubio_de_francia,
    sequence_norm,
    shifted_apply,
    split_collections,
    vector_paraproduct,
)
from martpara.instances import generate_random_instance
from martpara.testing import adjoint_witness_data

SRC = Path(__file__).resolve().parent.parent / "src" / "martpara"

INST = generate_random_instance(2, 3, seed=1, sparsity=0.0)
BETA, MU, NU = INST.beta, INST.mu, INST.nu
F = np.linspace(0.5, 2.0, INST.lattice.n_leaves)
G = F[::-1].copy()


def _entries():
    """(label, exponent, lower bound, call taking that exponent); the other
    exponent, where there is one, is valid."""
    alpha = BETA.absolute()
    field = vector_paraproduct(BETA, F, MU)
    weights = {atom: 1.0 for atom in INST.lattice.atoms()}
    both = [
        ("direct_testing", lambda p, q: direct_testing(BETA, p, q, MU, NU)),
        ("adjoint_testing", lambda p, q: adjoint_testing(BETA, p, q, MU, NU)),
        ("adjoint_witness_data", lambda p, q: adjoint_witness_data(BETA, p, q, MU, NU)),
        ("necessity_report", lambda p, q: necessity_report(BETA, p, q, MU, NU)),
        ("equivalence_report", lambda p, q: equivalence_report(BETA, p, q, MU, NU)),
        ("from_beta/shifted", lambda p, q: OperatorHandle.from_beta("shifted", BETA, p, q, MU, NU)),
    ]
    out = []
    for label, call in both:
        out.append((label, "p", 1.0, lambda x, call=call: call(x, 2.0)))
        out.append((label, "q", 1.0, lambda x, call=call: call(8.0, x)))
    out += [
        ("from_beta/vector_paraproduct", "p", 1.0,
         lambda x: OperatorHandle.from_beta("vector_paraproduct", BETA, x, 2.0, MU, NU)),
        ("from_beta/vector_paraproduct", "q", 0.0,
         lambda x: OperatorHandle.from_beta("vector_paraproduct", BETA, 4.0, x, MU, NU)),
        ("from_beta/positive", "p", 1.0,
         lambda x: OperatorHandle.from_beta("positive", BETA, x, 2.0, MU, NU)),
        ("from_beta/paraproduct", "p", 1.0,
         lambda x: OperatorHandle.from_beta("paraproduct", BETA, x, 2.0, MU, NU)),
        ("norm_lower_bound", "p", 1.0,
         lambda x: norm_lower_bound(OperatorHandle.from_beta("positive", BETA, x, 2.0, MU, NU))),
        ("lp_norm", "p", 0.0, lambda x: lp_norm(F, x, MU)),
        ("sequence_norm", "p", 0.0, lambda x: sequence_norm(field, x, 2.0, NU)),
        ("sequence_norm", "q", 0.0, lambda x: sequence_norm(field, 2.0, x, NU)),
        ("conjugate", "p", 1.0, conjugate),
        ("rubio_de_francia", "p", 1.0, lambda x: rubio_de_francia(F, MU, x)),
        ("direct_testing_symbol", "p", 1.0,
         lambda x: direct_testing_symbol(project_mean_zero(BETA, NU), x, MU)),
        ("positive_operator_testing", "p", 1.0, lambda x: positive_operator_testing(alpha, x, MU, NU)),
        ("shifted_apply", "q", 1.0, lambda x: shifted_apply(BETA, F, x, MU)),
        ("power_apply", "q", 1.0, lambda x: power_apply(BETA, F, x, MU)),
        ("positive_from_symbol", "q", 1.0, lambda x: positive_from_symbol(BETA, x, MU)),
        ("carleson_embedding_check", "p", 1.0,
         lambda x: carleson_embedding_check(weights, F, x, MU)),
        ("split_collections", "p", 1.0, lambda x: split_collections(F, G, x, MU, NU)),
        ("normalize_for_mirror", "p", 1.0, lambda x: normalize_for_mirror(alpha, F, G, x, MU, NU)),
        ("proof_mirror", "p", 1.0, lambda x: proof_mirror(alpha, F, G, x, MU, NU)),
        ("build_cantor_instance", "p", 2.0, lambda x: build_cantor_instance(3, x, 0.3)),
        ("direct_testing_cap", "p", 2.0, direct_testing_cap),
        ("divergence_report", "p", 2.0, lambda x: divergence_report(3, x, 0.3)),
    ]
    return out


ENTRIES = _entries()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "low"])
@pytest.mark.parametrize("label,name,low,call", ENTRIES, ids=[f"{e[0]}-{e[1]}" for e in ENTRIES])
def test_every_exponent_entry_rejects_bad_values(label, name, low, call, value):
    """nan and +-inf used to give nan (or a wrong finite number) from most of
    these; the lower bound itself is outside every range."""
    value = low if value == "low" else value
    with pytest.raises(ValueError) as exc:
        call(value)
    message = str(exc.value)
    assert message.startswith(f"{name} must be a finite number > {low:g}, got ")
    assert f"{name}={value}" in message


@pytest.mark.parametrize("p,q", [(2.0, 2.0), (1.5, 2.0), (4.0, 8.0)])
def test_r_side_names_p_and_q(p, q):
    """Where r = p/q must exceed 1, the message names both exponents."""
    for label, call in [
        ("adjoint_testing", lambda: adjoint_testing(BETA, p, q, MU, NU)),
        ("adjoint_witness_data", lambda: adjoint_witness_data(BETA, p, q, MU, NU)),
        ("necessity_report", lambda: necessity_report(BETA, p, q, MU, NU)),
        ("equivalence_report", lambda: equivalence_report(BETA, p, q, MU, NU)),
        ("from_beta/shifted", lambda: OperatorHandle.from_beta("shifted", BETA, p, q, MU, NU)),
    ]:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"r = p/q must be a finite number > 1, got p={p}, q={q}", label


def test_quasi_norms_stay_accepted():
    field = vector_paraproduct(BETA, F, MU)
    assert lp_norm(F, 0.5, MU) > 0.0
    assert sequence_norm(field, 0.5, 0.5, NU) > 0.0
    op = OperatorHandle.from_beta("vector_paraproduct", BETA, 4.0, 0.5, MU, NU)
    assert op.q == 0.5


# -- no range check on p or q outside the validator ----------------------------

VALIDATOR = ("measure.py", "_check_exponents")


def _is_exponent(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("p", "q")
    return (isinstance(node, ast.Attribute) and node.attr in ("p", "q")
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _is_number(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Attribute) and node.attr == "inf":
        return True  # math.inf, np.inf
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def exponent_range_checks(path: Path) -> list[str]:
    """Every comparison of p, q, self.p or self.q against a numeric literal
    in ``path``, outside the validator, as "file:line"."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (path.name, node.name) == VALIDATOR:
            exempt.update(id(n) for n in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and id(node) not in exempt:
            operands = [node.left, *node.comparators]
            if any(map(_is_exponent, operands)) and any(map(_is_number, operands)):
                found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_no_exponent_check_outside_the_validator():
    """A ``p <= 1`` written anywhere but ``measure._check_exponents`` would let
    nan through again, as every such check did."""
    paths = sorted(SRC.glob("*.py"))
    assert (SRC / VALIDATOR[0]) in paths
    assert VALIDATOR[1] in (SRC / VALIDATOR[0]).read_text(encoding="utf-8")
    found = [hit for path in paths for hit in exponent_range_checks(path)]
    assert not found, found


def test_the_guard_sees_a_readded_check(tmp_path):
    bad = tmp_path / "testing.py"
    bad.write_text("def f(p, q):\n    if p <= 1 or self.q > 1.0:\n        raise ValueError\n"
                   "    return 1.0 < q < math.inf\n")
    assert exponent_range_checks(bad) == ["testing.py:2", "testing.py:2", "testing.py:4"]
