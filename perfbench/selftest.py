#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

For every workload, on the benchmark's own inputs (seed 7), one round must
pass its checks; then each check is shown a deliberately perturbed copy of the
round's outputs and must report it.  ``suite-quick`` is checked on made-up CSV
output instead of a 30-s pass of the suite.  Exit status 0 iff every check
behaves.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import martpara as mp  # noqa: E402
import workloads as W  # noqa: E402

FAILURES: list[str] = []


def run(workload_cls, seed: int = 7):
    wl = workload_cls(seed)
    wl.generate()
    ref = wl.reference()
    out = wl.run_round()
    return wl, ref, out


def expect_clean(wl, ref, out, failed_ops: int = 0) -> None:
    failed, errors = wl.check(out, ref)
    if failed != failed_ops or errors:
        FAILURES.append(f"{wl.name}: unperturbed round: failed={failed}, errors={errors[:3]}")


def expect_caught(wl, ref, out, needle: str, perturb) -> None:
    bad = copy.deepcopy(out)
    perturb(bad)
    _, errors = wl.check(bad, ref)
    if not any(needle in e for e in errors):
        FAILURES.append(f"{wl.name}: check {needle!r} missed the perturbation; errors={errors[:3]}")


def scale(obj, attr: str, factor: float) -> None:
    setattr(obj, attr, getattr(obj, attr) * factor)


def test_ascent_small() -> None:
    wl, ref, out = run(W.AscentSmall)
    expect_clean(wl, ref, out)
    b0 = ref["bounded"][0]
    p, q = wl.bounded[0][1], wl.bounded[0][2]
    cap = 2.0 ** ((p + 1.0) / p) * mp.conjugate(p) * b0
    for needle in ("value = OperatorHandle.ratio(argmax)", "value = ratio from the definitions"):
        expect_caught(wl, ref, out, needle, lambda o: scale(o["bounded[0]"], "value", 1.0 + 1e-6))
    expect_caught(wl, ref, out, "B <= estimate", lambda o: setattr(o["bounded[0]"], "value", 0.5 * b0))
    expect_caught(wl, ref, out, "estimate <= 2^((p+1)/p) p' B",
                  lambda o: setattr(o["bounded[0]"], "value", 2.0 * cap))
    expect_caught(wl, ref, out, "necessity[0] p=4.0 q=2.0 B:",
                  lambda o: scale(o["necessity[0]"], "b_direct", 1.0 + 1e-6))
    expect_caught(wl, ref, out, "necessity[0] p=4.0 q=2.0 B*:",
                  lambda o: scale(o["necessity[0]"], "b_adjoint", 1.0 + 1e-6))
    expect_caught(wl, ref, out, "B* <= 4p/(p-q) estimate^q",
                  lambda o: scale(o["necessity[0]"].norm_estimate, "value", 1e-3))
    last = f"equivalence[{wl.n_necessity + wl.n_equivalence - 1}]"
    expect_caught(wl, ref, out, "report.passed",
                  lambda o: o[last].checks.append(("planted", 2.0, 1.0)))

    expect_caught(wl, ref, out, "unreadable output", lambda o: o.__setitem__("cli[0]", (0, "{}")))
    expect_caught(wl, ref, out, "estimate <= 2-norm",
                  lambda o: o.__setitem__("cli[1]", (0, f'{{"value": {2.0 * ref["cli"][1]!r}}}')))
    expect_caught(wl, ref, out, "exit code", lambda o: o.__setitem__("cli[2]", (1, o["cli[2]"][1])))


def suite_output(rows: list[tuple[int, str]]) -> str:
    lines = ["criterion,name,pass,detail"]
    lines += [f"{k},criterion {k},{status},detail" for k, status in rows]
    return "\n".join(lines) + "\n"


def test_suite_quick() -> None:
    wl = W.SuiteQuick(0)
    ref = wl.reference()
    good = [(k, "True") for k in range(1, W.N_CRITERIA + 1)]
    out = {"suite": (0, suite_output(good)), "estimates": [1.0]}
    expect_clean(wl, ref, out)
    failing = [(k, "False" if k == 5 else s) for k, s in good]
    expect_caught(wl, ref, out, "suite criterion 5 PASS",
                  lambda o: o.__setitem__("suite", (0, suite_output(failing))))
    expect_caught(wl, ref, out, "suite criteria",
                  lambda o: o.__setitem__("suite", (0, suite_output(good[:-1]))))
    expect_caught(wl, ref, out, "suite exit code", lambda o: o.__setitem__("suite", (1, o["suite"][1])))


def test_mirror_heavy() -> None:
    wl, ref, out = run(W.MirrorHeavy)
    expect_clean(wl, ref, out)
    expect_caught(wl, ref, out, "pairing", lambda o: scale(o["mirror[0]"][1], "pairing_value", 1.0 + 1e-6))
    planted = mp.stopping.InequalityCheck("planted", 2.0, 1.0)
    expect_caught(wl, ref, out, "report.passed", lambda o: o["mirror[1]"][1].checks.append(planted))

    def cover_root(o):
        forest = o["plain[0]"]
        lat = forest.lattice
        forest.selected[lat.root] = set(lat.children(lat.root))

    expect_caught(wl, ref, out, "cover at most half", cover_root)

    def pile_up(o):
        forest = o["plain[0]"]
        forest.generations.append(set(forest.lattice.atoms()))

    expect_caught(wl, ref, out, "Carleson constant < 2", pile_up)


def test_kernels_large() -> None:
    wl, ref, out = run(W.KernelsLarge)
    expect_clean(wl, ref, out, failed_ops=2 * len(W.PROBE_SCALES))

    def bump(key: str):
        def perturb(o):
            arr = o[key]
            if isinstance(arr, tuple):
                o[key] = (arr[0] * (1.0 + 1e-6), arr[1])
            elif isinstance(arr, float):
                o[key] = arr * (1.0 + 1e-6)
            else:
                arr[1] *= 1.0 + 1e-6
        return perturb

    for op in ("paraproduct_apply", "shifted_apply", "positive_apply", "rubio_de_francia",
               "sequence_norm", "direct_testing", "adjoint_testing", "positive_operator_testing"):
        expect_caught(wl, ref, out, f"{op} ", bump(f"{op}[0]"))
    expect_caught(wl, ref, out, "atom_averages", lambda o: o["atom_averages[1]"][2].__setitem__(0, 1e3))
    expect_caught(wl, ref, out, "project_mean_zero",
                  lambda o: o["project_mean_zero[0]"].beta.level(1).__setitem__((0, 0), 1e3))
    expect_caught(wl, ref, out, "vector_paraproduct",
                  lambda o: o["vector_paraproduct[1]"].level(2).__setitem__(0, 1e3))
    expect_caught(wl, ref, out, "quadratic identity",
                  lambda o: o.__setitem__("paraproduct_apply[0]", o["paraproduct_apply[0]"] * 1.01))

    # a correct probe result is not counted as failed
    b, _ = ref["probe"]
    fixed = copy.deepcopy(out)
    fixed[f"direct_probe[{W.PROBE_SCALES[0]:g}]"] = W.PROBE_SCALES[0] * b
    failed, _ = wl.check(fixed, ref)
    if failed != 2 * len(W.PROBE_SCALES) - 1:
        FAILURES.append(f"kernels-large: a correct probe result still counts as failed ({failed})")


def main() -> int:
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for test in (test_ascent_small, test_suite_quick, test_mirror_heavy, test_kernels_large):
            test()
            print(f"{test.__name__}: {'ok' if not FAILURES else 'FAILED'}")
            if FAILURES:
                break
    for line in FAILURES:
        print(line, file=sys.stderr)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
