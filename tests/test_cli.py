"""Front-end contract: schemas, exit codes, determinism."""

import io
import json
import sys
from pathlib import Path

import pytest

from schurkit.cli import main

P4 = {
    "z1": [1, 0],
    "k": 1,
    "tau0": [1, 0],
    "tau": [[1, 0]],
    "z0": [-1, 0],
    "parameter": {"num": [[-1, 0]], "den": [[1, 0]]},
}
P5 = {
    "z1": [1, 0],
    "k": 1,
    "tau0": [1, 0],
    "tau": [[-1, 0]],
    "parameter": {"num": [[-1, 0]], "den": [[1, 0]]},
}
RECIP = {"num": [[1, 0]], "den": [[0, 0], [1, 0]]}
# The README's example problem.
README_PROBLEM = dict(P5, z0=[-1, 0])
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run_cli(argv, capsys)
    return code, json.loads(out)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestSolve:
    def test_burns_krantz_problem(self, tmp_path, capsys):
        code, rep = run_json(["solve", write(tmp_path, "p.json", P4)], capsys)
        assert code == 0
        assert rep["status"] == "pass"
        assert rep["solution"]["num"] == [[-0.0, 0.0], [1.0, -0.0]] or rep["solution"][
            "num"
        ] == [[0.0, 0.0], [1.0, 0.0]]
        assert rep["solution"]["den"] == [[1.0, 0.0]]
        assert rep["negative_squares"] == {"predicted": 0, "observed": 0}

    def test_indefinite_problem(self, tmp_path, capsys):
        code, rep = run_json(["solve", write(tmp_path, "p.json", P5)], capsys)
        assert code == 0
        assert rep["negative_squares"] == {"predicted": 1, "observed": 1}
        assert rep["P"] == [[[-1.0, 0.0]]]
        assert rep["solution"]["den"] == [[0.0, 0.0], [1.0, 0.0]]

    def test_non_unimodular_z1_exits_2(self, tmp_path, capsys):
        bad = dict(P4, z1=[0.9, 0])
        code, rep = run_json(["solve", write(tmp_path, "p.json", bad)], capsys)
        assert code == 2
        assert rep["status"] == "error"
        assert "z1 not unimodular" in rep["error"]

    def test_missing_parameter_exits_2(self, tmp_path, capsys):
        bad = {k: v for k, v in P4.items() if k != "parameter"}
        code, rep = run_json(["solve", write(tmp_path, "p.json", bad)], capsys)
        assert code == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, rep = run_json(["solve", str(path)], capsys)
        assert code == 2 and rep["status"] == "error"

    def test_inadmissible_parameter_exits_2(self, tmp_path, capsys):
        bad = dict(P4, parameter={"num": [[0, 0], [1, 0]], "den": [[1, 0]]})
        code, rep = run_json(["solve", write(tmp_path, "p.json", bad)], capsys)
        assert code == 2


class TestNegsq:
    def test_reciprocal(self, tmp_path, capsys):
        code, rep = run_json(["negsq", write(tmp_path, "f.json", RECIP)], capsys)
        assert code == 0
        assert rep["estimated_negative_squares"] == 1
        assert rep["krein_langer"]["blaschke_order"] == 1

    def test_overflowing_samples_exit_2(self, tmp_path, capsys):
        f = {"num": [[1e200, 0], [1e200, 0]], "den": [[1, 0]]}
        code, rep = run_json(["negsq", write(tmp_path, "f.json", f)], capsys)
        assert code == 2 and rep["status"] == "error"
        assert rep["type"] == "NotHermitian" and "overflow" in rep["error"]

    def test_identity(self, tmp_path, capsys):
        f = {"num": [[0, 0], [1, 0]], "den": [[1, 0]]}
        code, rep = run_json(["negsq", write(tmp_path, "f.json", f)], capsys)
        assert code == 0 and rep["estimated_negative_squares"] == 0

    def test_double_pole(self, tmp_path, capsys):
        f = {"num": [[1, 0]], "den": [[0, 0], [0, 0], [1, 0]]}
        code, rep = run_json(["negsq", write(tmp_path, "f.json", f)], capsys)
        assert code == 0 and rep["estimated_negative_squares"] == 2

    def test_too_few_samples_exits_2(self, tmp_path, capsys):
        code, rep = run_json(["--samples", "4", "negsq", write(tmp_path, "f.json", RECIP)], capsys)
        assert code == 2 and rep["type"] == "ValueError"
        assert rep["error"] == "max_points 4 is below initial_points 8"


class TestRigidity:
    def test_forced_candidate(self, tmp_path, capsys):
        prob = write(tmp_path, "p.json", P4)
        cand = write(tmp_path, "c.json", {"num": [[0, 0], [1, 0]], "den": [[1, 0]]})
        code, rep = run_json(
            ["rigidity", prob, "--contact", "-1", "0", "--candidate", cand], capsys
        )
        assert code == 0
        assert rep["forced_identity"] is True
        assert rep["observed_order"] == "inf"

    def test_order_three_candidate(self, tmp_path, capsys):
        # solution for parameter -z: (3z^2+1)/(z^2+3)
        prob = write(tmp_path, "p.json", P4)
        cand = write(
            tmp_path,
            "c.json",
            {"num": [[1, 0], [0, 0], [3, 0]], "den": [[3, 0], [0, 0], [1, 0]]},
        )
        code, rep = run_json(
            ["rigidity", prob, "--contact", "-1", "0", "--candidate", cand], capsys
        )
        assert code == 0
        assert rep["forced_identity"] is False
        assert rep["observed_order"] == 3

    def test_contact_at_tau0_exits_2(self, tmp_path, capsys):
        prob = write(tmp_path, "p.json", P4)
        cand = write(tmp_path, "c.json", {"num": [[0, 0], [1, 0]], "den": [[1, 0]]})
        code, rep = run_json(
            ["rigidity", prob, "--contact", "1", "0", "--candidate", cand], capsys
        )
        assert code == 2

    def test_quartic_equivalence_block(self, tmp_path, capsys):
        prob = write(
            tmp_path, "p.json", {"z1": [1, 0], "k": 1, "tau0": [1, 0], "tau": [[0.5, 0]]}
        )
        # (1+z)/2 + (z-1)^4/20 has coefficients [0.55, 0.3, 0.3, -0.2, 0.05]
        cand = write(
            tmp_path,
            "c.json",
            {
                "num": [[0.55, 0], [0.3, 0], [0.3, 0], [-0.2, 0], [0.05, 0]],
                "den": [[1, 0]],
            },
        )
        code, rep = run_json(
            ["rigidity", prob, "--contact", "-1", "0", "--candidate", cand], capsys
        )
        assert code == 0
        eq = rep["equivalences"]
        assert eq is not None and eq["consistent"] is True
        assert eq["identity"] is False and eq["horocycle"] is False
        assert eq["witness"] is not None

    def test_non_schur_candidate_has_no_equivalence_block(self, tmp_path, capsys):
        prob = write(
            tmp_path, "p.json", {"z1": [1, 0], "k": 1, "tau0": [1, 0], "tau": [[0.5, 0]]}
        )
        # (1+z)/2 + 10 (z-1)^4 matches to fourth order but reaches modulus 161
        cand = write(
            tmp_path,
            "c.json",
            {
                "num": [[10.5, 0], [-39.5, 0], [60, 0], [-40, 0], [10, 0]],
                "den": [[1, 0]],
            },
        )
        code, rep = run_json(
            ["rigidity", prob, "--contact", "-1", "0", "--candidate", cand], capsys
        )
        assert code == 0
        assert rep["equivalences"] is None


class TestFactor:
    def test_reciprocal(self, tmp_path, capsys):
        code, rep = run_json(["factor", write(tmp_path, "f.json", RECIP)], capsys)
        assert code == 0
        assert rep["blaschke"]["order"] == 1
        assert rep["blaschke"]["zeros"] == [[-0.0, 0.0]] or rep["blaschke"]["zeros"] == [
            [0.0, 0.0]
        ]

    def test_schur_function_trivial_factor(self, tmp_path, capsys):
        f = {"num": [[0, 0], [0.5, 0]], "den": [[1, 0]]}
        code, rep = run_json(["factor", write(tmp_path, "f.json", f)], capsys)
        assert code == 0 and rep["blaschke"]["order"] == 0

    def test_too_large_exits_1(self, tmp_path, capsys):
        f = {"num": [[2, 0]], "den": [[0, 0], [1, 0]]}
        code, rep = run_json(["factor", write(tmp_path, "f.json", f)], capsys)
        assert code == 1 and rep["status"] == "fail"


class TestDemos:
    @pytest.mark.parametrize("name", ["burns-krantz", "inverse", "alpha"])
    def test_demo_passes(self, name, capsys):
        code, rep = run_json(["demo", name], capsys)
        assert code == 0
        assert rep["status"] == "pass"
        assert all(row["passed"] for row in rep["checks"])

    def test_alpha_values(self, capsys):
        for alpha in (0.25, 0.75, 0.9876, 0.99, 0.999):
            code, rep = run_json(["demo", "alpha", "--alpha", str(alpha)], capsys)
            assert code == 0 and rep["status"] == "pass"

    def test_text_output(self, capsys):
        code, out = run_cli(["--output", "text", "demo", "inverse"], capsys)
        assert code == 0
        assert "PASS" in out and "demo inverse: pass" in out


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        prob = write(tmp_path, "p.json", P5)
        _, first = run_cli(["--seed", "99", "solve", prob], capsys)
        _, second = run_cli(["--seed", "99", "solve", prob], capsys)
        assert first == second

    def test_report_round_trips(self, tmp_path, capsys):
        prob = write(tmp_path, "p.json", P4)
        _, out = run_cli(["solve", prob], capsys)
        rep = json.loads(out)
        assert json.loads(json.dumps(rep, sort_keys=True)) == rep
        assert rep["seed"] == 74010
        assert rep["tolerances"]["tol_root"] == 1e-8


class TestInputTypes:
    def test_boolean_k_exits_2(self, tmp_path, capsys):
        bad = dict(P4, k=True)
        code, rep = run_json(["solve", write(tmp_path, "p.json", bad)], capsys)
        assert code == 2 and rep["status"] == "error"

    def test_boolean_pair_exits_2(self, tmp_path, capsys):
        bad = dict(P4, z1=[True, False])
        code, rep = run_json(["solve", write(tmp_path, "p.json", bad)], capsys)
        assert code == 2 and rep["status"] == "error"
        assert "z1 must be a [re, im] pair" in rep["error"]

    def test_huge_integer_exits_2(self, tmp_path, capsys):
        bad = dict(P4, parameter={"num": [[10**320, 0]], "den": [[1, 0]]})
        code, rep = run_json(["solve", write(tmp_path, "p.json", bad)], capsys)
        assert code == 2 and rep["status"] == "error"
        assert "parameter.num must be a [re, im] pair" in rep["error"]


class TestToleranceFlags:
    def test_tol_order_sets_expansion_tolerance(self, tmp_path, capsys):
        prob = write(tmp_path, "p.json", README_PROBLEM)
        code, rep = run_json(["--tol-order", "1e-3", "solve", prob], capsys)
        assert code == 0
        assert rep["expansion"]["tolerance"] == 1e-3
        assert rep["tolerances"]["tol_order"] == 1e-3

    def test_tol_circle_admits_near_unimodular_constant(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", {"num": [[1.000001, 0]], "den": [[1, 0]]})
        code, rep = run_json(["factor", f], capsys)
        assert code == 1 and rep["status"] == "fail"
        code, rep = run_json(["--tol-circle", "1e-5", "factor", f], capsys)
        assert code == 0 and rep["status"] == "pass"

    def test_tol_circle_is_used_as_given(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", {"num": [[1.0000000005, 0]], "den": [[1, 0]]})
        code, rep = run_json(["factor", f], capsys)
        assert code == 0 and rep["status"] == "pass"
        code, rep = run_json(["--tol-circle", "1e-12", "factor", f], capsys)
        assert code == 1 and rep["status"] == "fail"

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_invalid_tol_circle_exits_2(self, value, tmp_path, capsys):
        f = write(tmp_path, "f.json", {"num": [[2, 0]], "den": [[0, 0], [1, 0]]})
        code, rep = run_json([f"--tol-circle={value}", "factor", f], capsys)
        assert code == 2 and rep["status"] == "error"
        assert "--tol-circle" in rep["error"]

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_invalid_tol_order_exits_2(self, value, tmp_path, capsys):
        prob = write(tmp_path, "p.json", README_PROBLEM)
        code, rep = run_json([f"--tol-order={value}", "solve", prob], capsys)
        assert code == 2 and rep["status"] == "error"
        assert "--tol-order" in rep["error"]

    def test_tol_root_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--tol-root", "0.5", "demo", "inverse"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestDemoReference:
    @pytest.mark.parametrize(
        "argv,reference",
        [
            (["demo", "burns-krantz"], "demo-burns-krantz.json"),
            (["demo", "inverse"], "demo-inverse.json"),
            (["demo", "alpha", "--alpha", "0.5"], "demo-alpha-0.5.json"),
        ],
    )
    def test_demo_bytes_match_reference(self, argv, reference, capsys):
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert out.encode() == (REFERENCE / reference).read_bytes()
