import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from martpara.cli import _COMMANDS, main
from martpara.instances import generate_random_instance, load_instance, save_instance


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


#: Each file under tests/data/cli holds a line ``exit <code>`` followed by
#: the exact stdout of one invocation: identical flags must give identical bytes.
GOLDEN_DIR = Path(__file__).parent / "data" / "cli"
GOLDEN = {
    "testing_2x3_p4_q2": ["testing", "--arity", "2", "--depth", "3", "--seed", "1",
                          "--trials", "3", "--p", "4", "--q", "2"],
    "testing_3x2_p3_q1.5": ["testing", "--arity", "3", "--depth", "2", "--seed", "5",
                            "--trials", "2", "--p", "3", "--q", "1.5", "--sparsity", "0.3"],
    "testing_2x4_p2_q2": ["testing", "--arity", "2", "--depth", "4", "--seed", "9",
                          "--trials", "2", "--p", "2", "--q", "2"],
    "mirror_p2": ["mirror", "--arity", "2", "--depth", "3", "--seed", "4", "--p", "2"],
    "mirror_p3": ["mirror", "--arity", "3", "--depth", "2", "--seed", "7", "--p", "3"],
    # 2^8 leaves; f is a random multiplicative cascade and nu is tilted by
    # g^-1.5 (g is drawn by `mirror` from --seed), so the modified half has 9
    # stopping atoms in 3 generations and the plain half 105 in 4: adding the
    # ledger's sums in another order changes its last bits
    "mirror_2x8_p3": ["mirror", "--instance", str(GOLDEN_DIR / "mirror_2x8_p3.json"),
                      "--seed", "27", "--p", "3"],
    "embedding": ["embedding", "--arity", "2", "--depth", "3", "--seed", "6",
                  "--trials", "5", "--p", "2"],
    "counterexample_nmax8": ["counterexample", "--nmax", "8"],
    # default ascent on 16 leaves: 33,349 iterations, ends unconverged
    "norm_depth4_p4_q2": ["norm", "--depth", "4", "--p", "4", "--q", "2"],
    **{
        f"norm_{kind}": ["norm", "--depth", "2", "--p", "4", "--q", "2", "--kind", kind]
        for kind in ("vector_paraproduct", "shifted", "positive", "paraproduct")
    },
    "necessity_trials3": ["necessity", "--trials", "3"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_is_byte_identical(name, capsys):
    code = main(GOLDEN[name])
    got = f"exit {code}\n".encode() + capsys.readouterr().out.encode()
    assert got == (GOLDEN_DIR / f"{name}.txt").read_bytes()


def test_every_subcommand_has_a_golden():
    """Byte identity covers every subcommand: ``suite`` is pinned by its
    SHA-256 and ``generate`` by its round trip."""
    assert {argv[0] for argv in GOLDEN.values()} == set(_COMMANDS) - {"suite", "generate"}


def test_suite_quick_stdout_is_pinned(capsys):
    """The battery's CSV, byte for byte.  Its oracle cache only skips
    recomputation, so running after the acceptance tests gives the same bytes."""
    main(["suite", "--quick"])
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == "051802d2e44c30ec470ae0bc6efd16ea55b7018c7eb26aa4e7ec4b8165ada1cb"


def test_generate_and_round_trip(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _ = run_cli(
        ["generate", "--arity", "3", "--depth", "2", "--seed", "5", "--out", str(path)],
        capsys,
    )
    assert code == 0
    inst = load_instance(path)
    ref = generate_random_instance(3, 2, seed=5)
    assert np.array_equal(inst.mu.leaf_mass, ref.mu.leaf_mass)
    # saving again is byte-identical
    twin = tmp_path / "twin.json"
    save_instance(twin, inst)
    assert twin.read_text() == path.read_text()
    # and so is a reload, -0.0 coefficients included
    inst.beta.level(1)[2, 0] = -0.0
    save_instance(twin, inst)
    again = load_instance(twin)
    assert np.signbit(again.beta.level(1)[2, 0])
    assert again.beta._flat.tobytes() == inst.beta._flat.tobytes()


def test_testing_subcommand_csv(tmp_path, capsys):
    code, out = run_cli(
        ["testing", "--arity", "2", "--depth", "3", "--seed", "1", "--trials", "3",
         "--p", "4", "--q", "2"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance,p,q,B,Bstar"
    assert len(lines) == 4
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 5
        float(parts[3])
        float(parts[4])


def test_testing_csv_recomputable_from_instance(tmp_path, capsys):
    """Every emitted value must match the corresponding library call on the
    saved instance file."""
    from martpara import adjoint_testing, direct_testing

    path = tmp_path / "inst.json"
    assert main(["generate", "--arity", "2", "--depth", "3", "--seed", "8",
                 "--out", str(path)]) == 0
    code, out = run_cli(
        ["testing", "--instance", str(path), "--p", "4", "--q", "2"], capsys
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    inst = load_instance(path)
    assert float(row[3]) == direct_testing(inst.beta, 4.0, 2.0, inst.mu, inst.nu)
    assert float(row[4]) == adjoint_testing(inst.beta, 4.0, 2.0, inst.mu, inst.nu)


def test_necessity_csv_recomputable_from_instances(capsys):
    """Every emitted value must match ``necessity_report`` on the same seeded
    instances and ascent settings; the ratios are B/A and B*/(4p/(p-q) A^q)."""
    from martpara import AscentConfig, necessity_report

    code, out = run_cli(["necessity", "--arity", "3", "--depth", "2", "--seed", "5",
                         "--trials", "2", "--p", "3", "--q", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance,p,q,B,Bstar,A,B/A,Bstar/(cA^q)"
    assert len(lines) == 3
    cfg = AscentConfig(starts=8, max_iter=40, ascend_top=4, seed=5)
    for t, line in enumerate(lines[1:]):
        label, *values = line.split(",")
        inst = generate_random_instance(3, 2, seed=5 + t, mu_sparsity=0.0)
        rep = necessity_report(inst.beta, 3.0, 2.0, inst.mu, inst.nu, cfg)
        a = rep.norm_estimate.value
        assert a > 0
        want = [3.0, 2.0, rep.b_direct, rep.b_adjoint, a,
                rep.b_direct / a, rep.b_adjoint / (rep.factor * a ** 2.0)]
        assert label == f"seed{5 + t}"
        assert [float(v) for v in values] == want


def test_necessity_ratios_are_zero_where_the_estimate_is(monkeypatch, capsys):
    from martpara import cli

    real = cli.necessity_report

    def zero_estimate(*args):
        rep = real(*args)
        rep.norm_estimate.value = 0.0
        return rep

    monkeypatch.setattr(cli, "necessity_report", zero_estimate)
    code, out = run_cli(["necessity", "--depth", "2", "--trials", "1"], capsys)
    assert code == 0
    assert out.splitlines()[1].endswith(",0.0,0.0,0.0")


@pytest.mark.parametrize("flags,message", [
    (["--p", "1.5", "--q", "2"], "r = p/q must be a finite number > 1, got p=1.5, q=2.0"),
    (["--p", "4", "--q", "4"], "r = p/q must be a finite number > 1, got p=4.0, q=4.0"),
    (["--depth", "0"], "depth must be in [1, 16], got 0"),
    (["--arity", "1"], "arity must be >= 2, got 1"),
], ids=["p1.5-q2", "p4-q4", "depth0", "arity1"])
def test_necessity_rejects_flags_it_cannot_run(flags, message, capsys):
    """One error line naming the flag, exit 2, and nothing on stdout: no
    header first, no traceback."""
    assert main(["necessity", "--trials", "2", *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_necessity_exits_2_on_bad_flags():
    """The process itself, not just ``main``, exits 2 on flags it cannot run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "martpara.cli", "necessity", "--p", "4", "--q", "4"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: r = p/q must be a finite number > 1, got p=4.0, q=4.0\n"


def test_testing_determinism(capsys):
    args = ["testing", "--seed", "3", "--trials", "2", "--p", "3", "--q", "2"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second


def test_norm_subcommand_json(capsys):
    code, out = run_cli(
        ["norm", "--arity", "2", "--depth", "2", "--seed", "2", "--p", "4", "--q", "2",
         "--kind", "vector_paraproduct"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"value", "start_kind", "iterations", "converged"}
    assert payload["value"] >= 0.0
    # the shifted kind runs at r = p/q: the error names the p and q given
    for p, q in (("2", "2"), ("2", "0")):
        assert main(["norm", "--kind", "shifted", "--p", p, "--q", q]) == 2
        assert f"must be a finite number > 1, got p={float(p)}, q={float(q)}" in capsys.readouterr().err


def test_mirror_subcommand(capsys):
    code, out = run_cli(
        ["mirror", "--arity", "2", "--depth", "3", "--seed", "4", "--p", "2"],
        capsys,
    )
    assert code == 0
    checks = json.loads(out)
    assert all(set(c) == {"name", "lhs", "rhs", "slack", "pass"} for c in checks)
    assert all(c["pass"] for c in checks)


def test_counterexample_subcommand(capsys):
    code, out = run_cli(
        ["counterexample", "--p", "4", "--r", "0.3", "--nmax", "6"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,B,Bstar,Q,L,bound"
    assert len(lines) == 6  # n = 2..6


def test_counterexample_default_p(capsys):
    code, out = run_cli(["counterexample", "--nmax", "4"], capsys)
    assert code == 0
    _, flagged = run_cli(["counterexample", "--p", "4", "--nmax", "4"], capsys)
    assert out == flagged


def test_embedding_subcommand(capsys):
    code, out = run_cli(
        ["embedding", "--arity", "2", "--depth", "3", "--seed", "6", "--trials", "5",
         "--p", "2"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance,p,carleson,lhs,bound,pass"
    assert len(lines) == 6
    assert all(line.endswith("True") for line in lines[1:])


def test_suite_subcommand_plumbing(tmp_path, capsys, monkeypatch):
    """CSV shape and exit codes, with the battery stubbed (the real battery
    runs in test_acceptance)."""
    from martpara import cli
    from martpara.suite import CriterionResult

    fake = [
        CriterionResult(1, "alpha", True, "ok, fine", 0.1),
        CriterionResult(2, "beta", True, "ok", 0.2),
    ]
    monkeypatch.setattr(cli, "run_all", lambda heavy: fake)
    path = tmp_path / "suite.csv"
    assert main(["suite", "--out", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "criterion,name,pass,detail"
    assert lines[1] == "1,alpha,True,ok; fine"
    fake[0] = CriterionResult(1, "alpha", False, "boom", 0.1)
    assert main(["suite", "--out", str(path)]) == 1


def test_malformed_instance_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"arity": 2, "depth": 1, "mu": [1, -1], "nu": [1, 1], "beta": {}}')
    code = main(["testing", "--instance", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "mu" in err
    # exit 1 is kept for property violations: none of these may reach it
    for text, hint in (("5", "top level"), ("null", "top level"),
                       ('{"arity": 2, "depth": 1, "mu": [1, 1], "nu": [1, 1], "beta": {},'
                        ' "f": {"a": 1}}', "'f'")):
        bad.write_text(text)
        assert main(["testing", "--instance", str(bad)]) == 2
        assert hint in capsys.readouterr().err
    assert main(["testing", "--instance", str(tmp_path)]) == 2  # a directory
    assert "directory" in capsys.readouterr().err.lower()


def test_oversized_input_exits_2(tmp_path, capsys):
    assert main(["testing", "--arity", "1000", "--depth", "6"]) == 2
    assert "leaves" in capsys.readouterr().err
    # 2^14 leaves fit, but the ascent's batch of starts would not
    assert main(["norm", "--depth", "14"]) == 2
    assert "batch limit" in capsys.readouterr().err
    huge = tmp_path / "huge.json"
    huge.write_text('{"arity": 2, "depth": 1, "mu": [1e308, 1e308], "nu": [1, 1], "beta": {}}')
    assert main(["testing", "--instance", str(huge)]) == 2
    assert "mu" in capsys.readouterr().err
    # past some p the separation experiment's values, and the embedding's
    # and the testing constants' powers, overflow: the error names p.  The
    # testing constants' powers overflow on huge coefficients too, so their
    # error names both causes, p with its value and the instance's values;
    # the separation experiment builds its instance from p, so its error
    # names p alone
    both = "p={} or the instance's values are too large"
    for p in ("2000", "1e16", "1e308"):
        assert main(["counterexample", "--p", p, "--nmax", "3"]) == 2
        err = capsys.readouterr().err
        assert f"p={float(p)} is too large" in err and "instance" not in err, err
    for argv in (["embedding", "--p", "1e308"], ["testing", "--p", "1e308", "--q", "2"]):
        assert main(argv) == 2
        p = float(argv[2])
        err = capsys.readouterr().err
        assert f"p={p} is too large" in err or both.format(p) in err, err
    huge_beta = tmp_path / "huge_beta.json"
    huge_beta.write_text('{"arity": 2, "depth": 1, "mu": [1, 1], "nu": [1, 1],'
                         ' "beta": {"0,0,0": 1e200, "0,0,1": -1e200}}')
    assert main(["testing", "--instance", str(huge_beta), "--p", "2", "--q", "2"]) == 2
    assert both.format(2.0) in capsys.readouterr().err


def test_unknown_flag_exits_2():
    # --kind is a flag of norm only: other subcommands reject it
    for argv in (["testing", "--bogus"], ["counterexample", "--kind", "positive"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


_EXPECTED = {"--tol": "a finite number >= 0", "--trials": "an integer >= 1"}


@pytest.mark.parametrize("command,flag,value", [
    (command, flag, value)
    for command, flag in [
        ("testing", "--p"), ("testing", "--q"), ("norm", "--p"), ("norm", "--q"),
        ("mirror", "--p"), ("counterexample", "--p"), ("embedding", "--p"),
        ("embedding", "--tol"), ("testing", "--trials"), ("embedding", "--trials"),
        ("necessity", "--p"), ("necessity", "--q"), ("necessity", "--trials"),
    ]
    for value in ["nan", "inf", "-inf", "1e400", "two"]
    + {"--tol": ["-1"], "--trials": ["-1", "0", "1.5"]}.get(flag, [])
])
def test_non_finite_exponent_exits_2(command, flag, value, capsys):
    """Every exponent flag takes finite floats only, ``--tol`` finite floats
    >= 0 and ``--trials`` integers >= 1: argparse exits 2 before the
    subcommand runs (nan used to print a bare NaN and exit 0, ``--tol nan``
    to report a property violation, ``--trials -1`` an empty table)."""
    with pytest.raises(SystemExit) as exc:
        main([command, f"{flag}={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = _EXPECTED.get(flag, "a finite number")
    assert f"argument {flag}: expected {expected}, got {value!r}" in captured.err
