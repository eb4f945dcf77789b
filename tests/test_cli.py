import json
import time

import numpy as np
import pytest

from slantmodel import cli
from slantmodel.cli import main


def sym(coeffs):
    return json.dumps({"coeffs": [{"n": n, "re": c.real, "im": c.imag} for n, c in coeffs.items()]})


SYM_WORKED = sym({-1: 2, 0: 3, 2: 1})
COMMON = ["--k", "2", "--alpha", "z^4", "--beta", "z^3"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_worked_matrix(self, capsys):
        code, out, _ = run(capsys, ["build", *COMMON, "--symbol", SYM_WORKED])
        assert code == 0
        obj = json.loads(out)
        assert obj["rows"] == 3 and obj["cols"] == 4
        got = np.array([complex(re, im) for re, im in obj["data"]]).reshape(3, 4)
        expected = np.array([[3, 2, 0, 0], [1, 0, 3, 2], [0, 0, 1, 0]], dtype=complex)
        assert np.array_equal(got, expected)

    def test_annihilated_symbol_still_succeeds(self, capsys):
        code, out, _ = run(capsys, ["build", *COMMON, "--symbol", sym({7: 1})])
        assert code == 0
        assert all(re == 0 and im == 0 for re, im in json.loads(out)["data"])

    def test_symbol_from_file(self, capsys, tmp_path):
        path = tmp_path / "symbol.json"
        path.write_text(SYM_WORKED)
        code, out, _ = run(capsys, ["build", *COMMON, "--symbol", str(path)])
        assert code == 0 and json.loads(out)["rows"] == 3

    def test_far_frequency_symbol(self, capsys):
        # z^(10^18) reaches no kept coefficient, so this is the matrix of 1.
        code, out, _ = run(capsys, ["build", *COMMON, "--symbol", sym({0: 1, 10**18: 1})])
        assert code == 0
        obj = json.loads(out)
        got = np.array([complex(re, im) for re, im in obj["data"]]).reshape(3, 4)
        expected = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]], dtype=complex)
        assert np.array_equal(got, expected)

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, ["build", *COMMON, "--symbol", SYM_WORKED, "--format", "text"])
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_ttoeplitz(self, capsys):
        code, out, _ = run(
            capsys,
            ["ttoeplitz", "--alpha", "z^2", "--beta", "z^2", "--symbol", sym({1: 1})],
        )
        assert code == 0
        obj = json.loads(out)
        got = np.array([complex(re, im) for re, im in obj["data"]]).reshape(2, 2)
        assert np.array_equal(got, np.array([[0, 0], [1, 0]], dtype=complex))


class TestMembershipRecover:
    def build_matrix_json(self, capsys, symbol):
        code, out, _ = run(capsys, ["build", *COMMON, "--symbol", symbol])
        assert code == 0
        return out

    def test_member_exit_zero(self, capsys):
        matrix = self.build_matrix_json(capsys, SYM_WORKED)
        code, out, _ = run(capsys, ["membership", *COMMON, "--matrix", matrix])
        assert code == 0
        assert json.loads(out)["member"] is True

    def test_nonmember_exit_one(self, capsys):
        bad = json.dumps({"rows": 3, "cols": 4, "data": [[1.0, 0.0]] + [[0.0, 0.0]] * 11})
        code, out, _ = run(capsys, ["membership", *COMMON, "--matrix", bad])
        assert code == 1
        assert json.loads(out)["member"] is False

    def test_membership_json_keys(self, capsys):
        matrix = self.build_matrix_json(capsys, SYM_WORKED)
        code, out, _ = run(capsys, ["membership", *COMMON, "--matrix", matrix])
        assert code == 0
        assert set(json.loads(out)) == {
            "member", "residual", "variant", "chi", "psis", "tolerance", "effective_tolerance"
        }

    def test_effective_tolerance_applied(self, capsys):
        # Both defects have ||D||_F > 1, so the threshold exceeds the knob.
        member = self.build_matrix_json(capsys, SYM_WORKED)
        bad = json.dumps({"rows": 3, "cols": 4, "data": [[5.0, 0.0]] + [[0.0, 0.0]] * 11})
        for matrix, expected in ((member, True), (bad, False)):
            code, out, _ = run(capsys, ["membership", *COMMON, "--matrix", matrix])
            obj = json.loads(out)
            assert obj["effective_tolerance"] > obj["tolerance"]
            assert obj["member"] is expected and code == (0 if expected else 1)
            assert obj["member"] == (obj["residual"] <= obj["effective_tolerance"])
        code, _, err = run(capsys, ["recover", *COMMON, "--matrix", bad])
        assert code == 1 and f"{obj['effective_tolerance']:.3e}" in err

    def test_universal_order_always_member(self, capsys):
        rng = np.random.default_rng(3)
        data = [[float(x), float(y)] for x, y in rng.standard_normal((12, 2))]
        matrix = json.dumps({"rows": 3, "cols": 4, "data": data})
        code, out, _ = run(
            capsys, ["membership", "--k", "5", "--alpha", "z^4", "--beta", "z^3", "--matrix", matrix]
        )
        assert code == 0

    def test_recover_roundtrip_via_files(self, capsys, tmp_path):
        matrix_text = self.build_matrix_json(capsys, SYM_WORKED)
        mpath = tmp_path / "matrix.json"
        mpath.write_text(matrix_text)
        code, out, _ = run(capsys, ["recover", *COMMON, "--matrix", str(mpath)])
        assert code == 0
        spath = tmp_path / "recovered.json"
        spath.write_text(out)
        code, out2, _ = run(capsys, ["build", *COMMON, "--symbol", str(spath)])
        assert code == 0
        a = json.loads(matrix_text)["data"]
        b = json.loads(out2)["data"]
        assert np.abs(np.array(a) - np.array(b)).max() < 1e-8

    def test_recover_nonmember_exit_one(self, capsys):
        bad = json.dumps({"rows": 3, "cols": 4, "data": [[1.0, 0.0]] + [[0.0, 0.0]] * 11})
        code, _, err = run(capsys, ["recover", *COMMON, "--matrix", bad])
        assert code == 1
        assert "not a member" in err

    @pytest.mark.parametrize("variant", ["t35", "c38", "c310a", "c310b"])
    def test_variants_accepted(self, capsys, variant):
        matrix = self.build_matrix_json(capsys, SYM_WORKED)
        code, _, _ = run(capsys, ["membership", *COMMON, "--matrix", matrix, "--variant", variant])
        assert code == 0


class TestSymbolCommands:
    def test_canonical_passthrough(self, capsys):
        code, out, _ = run(capsys, ["canonical", *COMMON, "--symbol", sym({-5: 1, 1: 1})])
        assert code == 0
        coeffs = json.loads(out)["coeffs"]
        assert [(c["n"], c["re"]) for c in coeffs] == [(1, 1.0)]

    def test_iszero_true(self, capsys):
        code, out, _ = run(capsys, ["iszero", *COMMON, "--symbol", sym({6: 1})])
        assert code == 0
        assert json.loads(out)["sufficient"] is True

    def test_iszero_false(self, capsys):
        code, out, _ = run(capsys, ["iszero", *COMMON, "--symbol", sym({1: 1})])
        assert code == 1
        assert json.loads(out)["sufficient"] is False

    def test_iszero_shifted_window(self, capsys):
        base = ["--k", "5", "--alpha", "z^4", "--beta", "z^3", "--symbol", sym({11: 1})]
        code, _, _ = run(capsys, ["iszero", *base, "--which", "p27"])
        assert code == 0
        code, _, _ = run(capsys, ["iszero", *base, "--which", "p22"])
        assert code == 1

    def test_conjugate_symbol(self, capsys):
        code, out, _ = run(capsys, ["conjugate", *COMMON, "--symbol", sym({4: 1})])
        assert code == 0
        obj = json.loads(out)
        assert obj["symbol"]["coeffs"] == [{"n": -3, "re": 1.0, "im": 0.0}]
        data = np.array(obj["matrix"]["data"])
        assert data[3].tolist() == [1.0, 0.0]  # row-major slot (0, 3)

    def test_rankone(self, capsys):
        code, out, _ = run(capsys, ["rankone", *COMMON, "--l", "0", "--kind", "tilde_k"])
        assert code == 0
        obj = json.loads(out)
        assert obj["symbol"]["coeffs"] == [{"n": 4, "re": 1.0, "im": 0.0}]

    def test_rankone_bad_index(self, capsys):
        code, _, err = run(capsys, ["rankone", *COMMON, "--l", "7"])
        assert code == 2 and "error" in err


class TestRepeatedZeros:
    # beta = B[0, 0.5] has beta(0) = 0, so beta(z^2) has a double zero at the origin.
    BETA0 = json.dumps({"type": "blaschke", "zeros": [{"re": 0}, {"re": 0.5}]})
    SETTING = ["--k", "2", "--alpha", "z^3", "--beta", BETA0]

    def test_canonical(self, capsys):
        code, out, _ = run(capsys, ["canonical", *self.SETTING, "--symbol", SYM_WORKED])
        assert code == 0 and json.loads(out)["coeffs"]

    def test_iszero(self, capsys):
        code, out, _ = run(capsys, ["iszero", *self.SETTING, "--symbol", sym({-3: 1})])
        assert code == 0 and json.loads(out)["sufficient"] is True
        code, _, _ = run(capsys, ["iszero", *self.SETTING, "--symbol", sym({1: 1})])
        assert code == 1

    def test_info_double_zero(self, capsys):
        code, out, _ = run(capsys, ["info", "--alpha", '{"zeros":[0.5,0.5]}'])
        assert code == 0
        obj = json.loads(out)
        assert obj["dim"] == 2 and obj["gram_error"] <= 1e-12 and obj["tail_bound"] <= 1e-12


class TestVerifyInfo:
    def test_verify_deterministic(self, capsys):
        code, out1, _ = run(capsys, ["verify", "--seed", "4", "--trials", "2"])
        assert code == 0
        code, out2, _ = run(capsys, ["verify", "--seed", "4", "--trials", "2"])
        assert code == 0
        assert out1 == out2
        assert json.loads(out1)["all_passed"] is True

    def test_verify_text(self, capsys):
        code, out, _ = run(capsys, ["verify", "--seed", "4", "--trials", "1", "--format", "text"])
        assert code == 0
        assert out.splitlines()[0].endswith("status=PASS")

    def test_info_monomial(self, capsys):
        code, out, _ = run(capsys, ["info", "--alpha", "z^4"])
        assert code == 0
        obj = json.loads(out)
        assert obj["dim"] == 4 and obj["backend"] == "monomial"
        assert obj["gram_error"] == 0.0

    def test_info_blaschke(self, capsys):
        inner = json.dumps({"type": "blaschke", "zeros": [{"re": 0.5, "im": 0.0}, {"re": -0.3, "im": 0.0}]})
        code, out, _ = run(capsys, ["info", "--alpha", inner])
        assert code == 0
        obj = json.loads(out)
        assert obj["dim"] == 2 and obj["tail_bound"] < 1e-12
        assert obj["gram_error"] < 1e-10
        code, out, _ = run(capsys, ["info", "--alpha", inner, "--format", "text"])
        assert code == 0 and f"gram_error={obj['gram_error']:.3e}" in out


class TestErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 2

    def test_missing_required(self, capsys):
        assert run(capsys, ["build", "--k", "2"])[0] == 2

    def test_bad_symbol_json(self, capsys):
        code, _, err = run(capsys, ["build", *COMMON, "--symbol", "{not json"])
        assert code == 2 and "error" in err

    def test_bad_inner(self, capsys):
        code, _, _ = run(capsys, ["build", "--k", "2", "--alpha", "z^0", "--beta", "z^3", "--symbol", SYM_WORKED])
        assert code == 2

    def test_bad_tolerance(self, capsys):
        matrix = json.dumps({"rows": 3, "cols": 4, "data": [[0.0, 0.0]] * 12})
        code, _, _ = run(capsys, ["membership", *COMMON, "--matrix", matrix, "--tol", "-1"])
        assert code == 2

    def test_truncation_too_small_is_numeric_error(self, capsys):
        inner = json.dumps({"type": "blaschke", "zeros": [{"re": 0.5, "im": 0.0}]})
        code, _, err = run(
            capsys,
            ["build", "--k", "2", "--alpha", inner, "--beta", "z^3", "--symbol", SYM_WORKED, "--truncation", "5"],
        )
        assert code == 3 and "numeric" in err

    def test_order_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["build", "--k", "0", "--alpha", "z^4", "--beta", "z^3", "--symbol", SYM_WORKED])
        assert code == 2 and "order" in err

    @pytest.mark.parametrize("degree", ["2.5", "true"])
    def test_non_integer_degree_is_usage_error(self, capsys, degree):
        code, _, err = run(capsys, ["info", "--alpha", f'{{"type": "monomial", "degree": {degree}}}'])
        assert code == 2 and "integer" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "--alpha", '{"type": "blaschke", "zeros": [{"re": 0.999999999}]}'],
            ["info", "--alpha", '{"type": "blaschke", "zeros": [{"re": 0.5}]}', "--truncation", str(10**15)],
            ["info", "--alpha", "z^1000000000000"],
        ],
        ids=["near-circle-zero", "explicit", "monomial-degree"],
    )
    def test_truncation_above_cap_is_numeric_error(self, capsys, argv):
        start = time.perf_counter()
        code, _, err = run(capsys, argv)
        assert code == 3 and "outside" in err
        assert time.perf_counter() - start < 0.5

    def test_help_exits_zero(self, capsys):
        assert run(capsys, ["--help"])[0] == 0

    NAN_SYMBOL = '{"coeffs": [{"n": 0, "re": NaN, "im": 0}, {"n": 1, "re": 1, "im": 0}]}'
    NAN_ZERO = '{"type": "blaschke", "zeros": [{"re": NaN, "im": 0}]}'
    NAN_MATRIX = json.dumps({"rows": 3, "cols": 4, "data": [[float("nan"), 0.0]] + [[0.0, 0.0]] * 11})
    MEMBER = json.dumps({"rows": 3, "cols": 4, "data": [[0.0, 0.0]] * 12})

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", *COMMON, "--symbol", NAN_SYMBOL],
            ["build", "--k", "2", "--alpha", NAN_ZERO, "--beta", "z^3", "--symbol", SYM_WORKED],
            ["membership", *COMMON, "--matrix", NAN_MATRIX],
            ["membership", *COMMON, "--matrix", MEMBER, "--tol", "nan"],
            ["recover", *COMMON, "--matrix", MEMBER, "--tol", "nan"],
        ],
        ids=["nan-symbol", "nan-zero", "nan-matrix", "nan-tol", "nan-tol-recover"],
    )
    def test_nonfinite_input_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("exc", [RuntimeError("backend accuracy"), np.linalg.LinAlgError("SVD did not converge")])
    def test_numeric_failures_exit_three(self, capsys, monkeypatch, exc):
        def boom(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "zero_test_sufficient", boom)
        code, _, err = run(capsys, ["iszero", *COMMON, "--symbol", SYM_WORKED])
        assert code == 3 and "numeric" in err
