import json
import time

import numpy as np
import pytest

from slantmodel import CompressionSetting, InnerFunction, LaurentPoly, ModelSpaceBasis, build_compression, cli
from slantmodel.cli import main


def sym(coeffs):
    return json.dumps({"coeffs": [{"n": n, "re": c.real, "im": c.imag} for n, c in coeffs.items()]})


def same_windows(coeffs, k, order):
    """The terms of frequency k n - r, 0 <= r < order, moved to order n - r:
    the symbol at that order with the same windowed terms."""
    return {order * -(-f // k) - (-f % k): c for f, c in coeffs.items() if -f % k < order}


def matrix_of(out):
    """The matrix printed by build, or by conjugate beside its symbol."""
    obj = json.loads(out)
    return obj.get("matrix", obj)


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

    def test_near_circle_order_1e5(self, capsys):
        # Zeros at 0.999 (T = 27617): the 4-term symbol is read where its
        # windows reach it, not over k T_beta = 2.8e9 frequencies.
        alpha, beta = '{"zeros":[0.999,-0.3,{"re":0,"im":0.2}]}', '{"zeros":[{"re":0,"im":0.999},{"re":0,"im":-0.5}]}'
        argv = ["build", "--k", "100000", "--alpha", alpha, "--beta", beta, "--symbol", sym({-3: 1, 0: 0.5, 2: 1j, 7: 2})]
        start = time.perf_counter()
        code, out, _ = run(capsys, argv)
        assert code == 0 and time.perf_counter() - start < 2.0
        # Past T_alpha only window 0 reads a term: those of frequency -3 and 0.
        ra = ModelSpaceBasis.build(InnerFunction.blaschke([0.999, -0.3, 0.2j])).rows
        rb = ModelSpaceBasis.build(InnerFunction.blaschke([0.999j, -0.5j])).rows
        got = np.array([complex(re, im) for re, im in json.loads(out)["data"]]).reshape(2, 3)
        assert np.abs(got - np.outer(rb[:, 0].conj(), ra[:, 3] + 0.5 * ra[:, 0])).max() <= 1e-15

    def test_order_near_int64_keeps_only_frequency_zero(self, capsys):
        # 4 k passes 2^63; in int64 it wrapped around to 4 and put z^4 in row 4.
        argv = ["build", "--k", "4611686018427387905", "--alpha", "z^1", "--beta", "z^5", "--symbol", sym({4: 1, 1: 1})]
        code, out, _ = run(capsys, argv)
        assert code == 0
        obj = json.loads(out)
        assert (obj["rows"], obj["cols"]) == (5, 1)
        assert all(re == 0 and im == 0 for re, im in obj["data"])

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, ["build", *COMMON, "--symbol", SYM_WORKED, "--format", "text"])
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_ttoeplitz(self, capsys):
        # The truncated Toeplitz matrix is the order-1 compression.
        code, out, _ = run(
            capsys,
            ["build", "--k", "1", "--alpha", "z^2", "--beta", "z^2", "--symbol", sym({1: 1})],
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
            "member", "residual", "variant", "chi", "psis", "tolerance", "effective_tolerance", "defect_norm"
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

    def test_recover_near_circle_order_1e5(self, capsys):
        # Zeros at 0.999 (T = 27617): the printed symbol has at most
        # n + (m - 1) min(k, n) = 3 + 3 terms, on the frequencies k i - j.
        alpha, beta = '{"zeros":[0.999,-0.3,{"re":0,"im":0.2}]}', '{"zeros":[{"re":0,"im":0.999},{"re":0,"im":-0.5}]}'
        common = ["--k", "100000", "--alpha", alpha, "--beta", beta]
        phi = sym({-3: 1, 0: 0.5, 2: 1j, 7: 2, 100000: 0.3, 200001: -1})
        code, matrix, _ = run(capsys, ["build", *common, "--symbol", phi])
        assert code == 0
        start = time.perf_counter()
        code, out, _ = run(capsys, ["recover", *common, "--matrix", matrix])
        assert code == 0 and time.perf_counter() - start < 2.0
        coeffs = json.loads(out)["coeffs"]
        assert len(coeffs) <= 6
        assert {c["n"] for c in coeffs} <= {100000 * i - j for i in range(2) for j in range(3)}
        code, rebuilt, _ = run(capsys, ["build", *common, "--symbol", out])
        a, b = np.array(json.loads(matrix)["data"]), np.array(json.loads(rebuilt)["data"])
        assert code == 0 and np.abs(a - b).max() <= 1e-12 * np.linalg.norm(a)

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

    def test_rankone_past_truncation(self, capsys):
        # B[0.5] has T = 39: the matrix of order 45 comes from the
        # realization, its symbol would compress through the rows to 0.
        code, _, err = run(capsys, ["rankone", "--k", "50", "--l", "45", "--alpha", '{"zeros": [0.5]}', "--beta", "z^2"])
        assert code == 3 and "truncation order 39" in err


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

    def test_verify_inject_failure(self, capsys):
        code, out, _ = run(capsys, ["verify", "--seed", "4", "--trials", "1", "--inject-failure"])
        assert code == 1
        rows = json.loads(out)["results"]
        assert any(r["name"] == "injected_broken_property" and r["fails"] for r in rows)
        assert all(r["fails"] == 0 for r in rows if r["name"] != "injected_broken_property")

    def test_verify_negative_seed_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["verify", "--seed", "-1", "--trials", "1"])
        assert code == 2 and "seed" in err and not out

    def test_info_monomial(self, capsys):
        code, out, _ = run(capsys, ["info", "--alpha", "z^4"])
        assert code == 0
        obj = json.loads(out)
        assert obj["dim"] == 4 and obj["backend"] == "monomial"
        assert obj["gram_error"] == 0.0

    def test_info_backend_from_basis(self, capsys):
        # c z^3 runs on the exact path, as z^3 does: the backend is read from
        # the basis, not from how the input was spelled.
        code, out, _ = run(capsys, ["info", "--alpha", '{"zeros":[0,0,0],"constant":{"re":0,"im":1}}'])
        obj = json.loads(out)
        assert code == 0 and obj["backend"] == "monomial"
        assert obj["tail_bound"] == 0.0 and obj["truncation_order"] == 2

    @pytest.mark.parametrize("name", ["alpha.json", "zeros.json"])
    def test_info_from_file(self, capsys, tmp_path, monkeypatch, name):
        # Only "z" and "z^N" are the monomial shorthand; "zeros.json" is a file.
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text('{"zeros": [0.5, -0.3]}')
        code, out, _ = run(capsys, ["info", "--alpha", name])
        assert code == 0 and json.loads(out)["dim"] == 2

    def test_info_blaschke(self, capsys):
        inner = json.dumps({"type": "blaschke", "zeros": [{"re": 0.5, "im": 0.0}, {"re": -0.3, "im": 0.0}]})
        code, out, _ = run(capsys, ["info", "--alpha", inner])
        assert code == 0
        obj = json.loads(out)
        assert obj["dim"] == 2 and obj["tail_bound"] < 1e-12
        assert obj["gram_error"] < 1e-10
        code, out, _ = run(capsys, ["info", "--alpha", inner, "--format", "text"])
        assert code == 0 and f"gram_error={obj['gram_error']:.3e}" in out


class TestParserReuse:
    def test_consecutive_calls_share_no_state(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        code, out, _ = run(capsys, ["conjugate", *COMMON, "--symbol", sym({4: 1})])
        assert code == 0 and json.loads(out)["symbol"]["coeffs"] == [{"n": -3, "re": 1.0, "im": 0.0}]
        matrix = json.dumps({"rows": 3, "cols": 4, "data": [[1.0, 0.0]] + [[0.0, 0.0]] * 11})
        code, out, _ = run(capsys, ["conjugate", *COMMON, "--matrix", matrix])
        obj = json.loads(out)
        assert code == 0 and obj["symbol"] is None and obj["matrix"]["data"][11] == [1.0, 0.0]
        code, _, err = run(capsys, ["conjugate", *COMMON, "--symbol", sym({4: 1}), "--matrix", matrix])
        assert code == 2 and "not allowed" in err
        code, out, _ = run(capsys, ["info", "--alpha", "z^2"])
        assert code == 0 and json.loads(out)["dim"] == 2


class TestOneShotSetting:
    def test_commands_form_no_operator(self, capsys, monkeypatch):
        # Each command builds its setting and reads it once, so it takes the
        # direct routes and forms no fit operator, sandwich operator,
        # monomial table or zero-test operator: each is formed on a
        # setting's second use.  On B3 -> B at k = 2 every one is within its
        # cut.  z^100 lies past the zero tests' window, which ends at
        # k (T_beta + 1) - 1 = 81: both accept it and build its matrix.
        alpha = InnerFunction.blaschke([0.5, -0.3, 0.2j])
        beta = InnerFunction.blaschke([0.4, -0.5j])
        spaces = ["--k", "2", "--alpha", json.dumps(alpha.to_json()), "--beta", json.dumps(beta.to_json())]
        U = build_compression(LaurentPoly({1: 1, -2: 3j}), CompressionSetting(alpha, beta, 2))
        matrix = json.dumps(U.to_json())
        settings = []
        init = CompressionSetting.__init__
        monkeypatch.setattr(CompressionSetting, "__init__", lambda self, *args: settings.append(self) or init(self, *args))
        for argv in (["membership", "--matrix", matrix], ["recover", "--matrix", matrix],
                     ["recover", "--variant", "c38", "--matrix", matrix], ["conjugate", "--matrix", matrix],
                     ["build", "--symbol", sym({1: 1, -2: 3j})], ["canonical", "--symbol", sym({1: 1, -2: 3j})],
                     ["iszero", "--which", "p22", "--symbol", sym({100: 1})],
                     ["iszero", "--which", "p27", "--symbol", sym({100: 1})]):
            code, _, _ = run(capsys, [argv[0], *spaces, *argv[1:]])
            assert code == 0
        assert len(settings) == 8
        for setting in settings:
            assert setting._fit_operators == {} and setting._zero_tests == {}
            assert not {"sandwich_operator", "monomials"} & set(vars(setting))


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "--alpha", '{"zeros": [0.5]}', "--truncation", "64"],
            ["build", *COMMON, "--symbol", SYM_WORKED, "--truncation", "5"],
        ],
        ids=["info", "build"],
    )
    def test_truncation_is_not_an_option(self, capsys, argv):
        # The measured tail picks every truncation order.
        code, out, err = run(capsys, argv)
        assert code == 2 and "unrecognized arguments: --truncation" in err and not out

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
            ["info", "--alpha", "z^1000000000000"],
        ],
        ids=["near-circle-zero", "monomial-degree"],
    )
    def test_truncation_above_cap_is_numeric_error(self, capsys, argv):
        start = time.perf_counter()
        code, _, err = run(capsys, argv)
        assert code == 3 and "outside" in err
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("command", ["membership", "recover"])
    def test_overflowing_norm_is_numeric_error(self, capsys, command):
        # ||D||_F overflows: no verdict against an infinite threshold.
        data = [[1e160, 0]] + [[0, 0]] * 10 + [[3e159, 0]]
        matrix = json.dumps({"rows": 3, "cols": 4, "data": data})
        code, out, err = run(capsys, [command, *COMMON, "--matrix", matrix])
        assert code == 3 and "not finite" in err and not out

    def test_rows_refused_only_where_read(self, capsys):
        # A double zero at 0.99997 needs T = 1059425 > 2^20, which only the
        # measured tail shows: info reads the rows and refuses them, while
        # t35 membership and recovery at k = 2 read two columns and answer.
        # Every variant recovers through that t35 fit, so each answers too.
        alpha = '{"zeros": [0.99997, 0.99997]}'
        code, _, err = run(capsys, ["info", "--alpha", alpha])
        assert code == 3 and "outside" in err
        common = ["--k", "2", "--alpha", alpha, "--beta", "z^2", "--matrix", json.dumps({"rows": 2, "cols": 2, "data": [[0, 0]] * 4})]
        code, out, _ = run(capsys, ["membership", *common])
        assert code == 0 and json.loads(out)["member"] is True
        for variant in ("t35", "c38", "c310a", "c310b"):
            code, out, _ = run(capsys, ["recover", *common, "--variant", variant])
            assert code == 0 and json.loads(out) == {"coeffs": []}

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", *COMMON, "--symbol", '{"coeffs": [{"n": 1e400, "re": 1}]}'],
            ["build", *COMMON, "--symbol", '{"coeffs": [{"n": 1.5, "re": 1}]}'],
            ["build", *COMMON, "--symbol", '{"coeffs": [{"n": true, "re": 1}]}'],
            ["build", *COMMON, "--symbol", '{"coeffs": [{"n": "1", "re": 1}]}'],
            ["membership", *COMMON, "--matrix", '{"rows": 1e400, "cols": 4, "data": []}'],
            ["membership", *COMMON, "--matrix", '{"rows": 3, "cols": 4.0, "data": []}'],
            ["membership", *COMMON, "--matrix", '{"rows": true, "cols": 4, "data": []}'],
        ],
        ids=["n-overflow", "n-float", "n-bool", "n-string", "rows-overflow", "cols-float", "rows-bool"],
    )
    def test_non_integer_json_field_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == 2 and "integer" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", *COMMON, "--symbol", '{"coeffs": [{"n": 1, "re": "1.5"}]}'],
            ["build", *COMMON, "--symbol", '{"coeffs": [{"n": 1, "re": true}]}'],
            ["build", *COMMON, "--symbol", '{"coeffs": [{"n": 1, "re": 1, "im": "0"}]}'],
            ["info", "--alpha", '{"zeros": [false, 0.5]}'],
            ["info", "--alpha", '{"zeros": "0.5"}'],
            ["info", "--alpha", '{"zeros": [{"re": "0.5"}]}'],
            ["info", "--alpha", '{"zeros": [0.5], "constant": "1"}'],
            ["membership", *COMMON, "--matrix", json.dumps({"rows": 3, "cols": 4, "data": [["1", "0"]] + [[0, 0]] * 11})],
        ],
        ids=["re-string", "re-bool", "im-string", "zero-bool", "zeros-string", "zero-re-string", "constant-string", "data-string"],
    )
    def test_non_real_json_number_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2 and "real number" in err and not out

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "--alpha", "z^3_0"],
            ["info", "--alpha", "z^\u0663"],
            ["build", "--k", "1_0", "--alpha", "z^4", "--beta", "z^3", "--symbol", SYM_WORKED],
            ["build", "--k", "\u0662", "--alpha", "z^4", "--beta", "z^3", "--symbol", SYM_WORKED],
            ["build", "--k", "+2", "--alpha", "z^4", "--beta", "z^3", "--symbol", SYM_WORKED],
            ["rankone", *COMMON, "--l", "0_1"],
            ["verify", "--trials", "1_0"],
            ["verify", "--seed", "\u0663", "--trials", "1"],
        ],
        ids=["degree-underscore", "degree-arabic-indic", "k-underscore", "k-arabic-indic", "k-plus", "l", "trials", "seed"],
    )
    def test_integer_text_needs_ascii_digits(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2 and "ascii" in err.lower() and not out

    @pytest.mark.parametrize("tol", ["1_0e-9", "\u0661e-9"], ids=["underscore", "arabic-indic"])
    @pytest.mark.parametrize("command", ["membership", "recover"])
    def test_tolerance_text_needs_ascii_digits(self, capsys, command, tol):
        # float() read these as 1e-8 and 1e-9; nan and inf still reach the range check.
        code, out, err = run(capsys, [command, *COMMON, "--matrix", self.MEMBER, "--tol", tol])
        assert code == 2 and "ascii" in err.lower() and not out

    @pytest.mark.parametrize("tol", ["1e-9", ".5E-8", "2."])
    def test_tolerance_in_ascii_is_read(self, capsys, tol):
        code, out, _ = run(capsys, ["membership", *COMMON, "--matrix", self.MEMBER, "--tol", tol])
        assert code == 0 and json.loads(out)["tolerance"] == float(tol)

    @pytest.mark.parametrize("k", ["500", "2000"])
    @pytest.mark.parametrize("command", ["canonical", "iszero"])
    def test_stretched_beta_above_cap_is_numeric_error(self, capsys, command, k):
        # A stored basis of beta(z^k) was above the array cap (exit 3) at
        # these orders; beta's own rows answer promptly.  z is no zero
        # symbol (iszero exits 1), conj(z^3) = z^-3 is one (exit 0).
        beta = '{"zeros": [0.4, {"re": 0, "im": -0.5}]}'
        common = ["--k", k, "--alpha", "z^3", "--beta", beta]
        start = time.perf_counter()
        code, out, _ = run(capsys, [command, *common, "--symbol", sym({1: 1})])
        if command == "canonical":
            assert code == 0
            setting = CompressionSetting(InnerFunction.monomial(3), InnerFunction.blaschke([0.4, -0.5j]), int(k))
            got = build_compression(LaurentPoly.from_json(json.loads(out)), setting).entries
            assert np.abs(got - build_compression(LaurentPoly({1: 1}), setting).entries).max() <= 1e-12
        else:
            assert code == 1 and json.loads(out)["sufficient"] is False
            assert run(capsys, [command, *common, "--symbol", sym({-3: 1})])[0] == 0
        assert time.perf_counter() - start < 0.5

    NEAR = '{"zeros": [0.95, -0.3]}'
    MATRIX_3X2 = json.dumps({"rows": 3, "cols": 2, "data": [[1, 0], [0, 1], [2, -1], [0.5, 0.25], [-1, 0], [0, -3]]})

    @pytest.mark.parametrize(
        "argv",
        [
            ["rankone", "--k", "200", "--l", "180", "--alpha", NEAR, "--beta", "z^3"],
            ["rankone", "--k", "200", "--l", "180", "--alpha", "z^3", "--beta", "z^3"],
        ],
        ids=["rankone", "rankone-monomial"],
    )
    def test_derivative_order_above_170_is_numeric_error(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == 3 and "derivative order" in err

    @pytest.mark.parametrize("k", ["200", "100000000", "99999999999999999999"])
    @pytest.mark.parametrize("command", ["membership", "recover"])
    def test_large_order_membership_is_prompt(self, capsys, command, k):
        # k >= dim K_alpha: every matrix is a member, and the fit keeps only
        # the T_alpha + 1 parts whose frame vectors are nonzero.
        start = time.perf_counter()
        code, out, _ = run(capsys, [command, "--k", k, "--alpha", self.NEAR, "--beta", "z^3", "--matrix", self.MATRIX_3X2])
        assert code == 0
        assert time.perf_counter() - start < 1.0
        obj = json.loads(out)
        if command == "membership":
            parts = ModelSpaceBasis.build(InnerFunction.parse(self.NEAR)).truncation_order + 1
            assert obj["member"] and len(obj["psis"]) == min(int(k), parts)
        else:
            assert obj["coeffs"]

    @pytest.mark.parametrize("command", ["build", "conjugate"])
    def test_order_past_int64_is_numeric_error(self, capsys, command):
        # These once exited 3.  The compression reads the symbol only in the
        # windows k n - 3..k n, which it folds onto stride 4 whatever k is, so
        # the matrix is that of the same windowed terms at k = 100.
        k = 99999999999999999999
        coeffs = {-1: 2, 0: 3, 2: 1}
        start = time.perf_counter()
        code, out, _ = run(capsys, [command, "--k", str(k), "--alpha", "z^4", "--beta", "z^3", "--symbol", sym(coeffs)])
        assert code == 0 and time.perf_counter() - start < 1.0
        argv = [command, "--k", "100", "--alpha", "z^4", "--beta", "z^3", "--symbol", sym(same_windows(coeffs, k, 100))]
        assert matrix_of(out) == matrix_of(run(capsys, argv)[1])

    @pytest.mark.parametrize(
        "k,argv",
        [
            pytest.param(k, [command, *flags, symbol], id=name + suffix)
            for k, far, suffix in ((10**12, 10**15, ""), (10**16, 10**18, "-k1e16"), (10**20, 10**18, "-k1e20"))
            for name, command, flags, symbol in (
                ("canonical", "canonical", [], {-3: 1}),
                ("iszero-p22", "iszero", ["--which", "p22"], {-3: 1}),
                ("iszero-p27", "iszero", ["--which", "p27"], {-3: 1}),
                ("build", "build", [], {-2: 0.5, 1: 1, 3 * k: 1, 5 * k - 2: 2, far: 1}),
                ("conjugate", "conjugate", [], {-2: 0.5, 1: 1, 3 * k: 1, 5 * k - 2: 2, far: 1}),
            )
        ],
    )
    def test_allocation_failure_is_numeric_error(self, capsys, k, argv):
        # At k = 10^12 canonical and iszero densify about 6.5e13 coefficients
        # (946 TiB), past any 64-bit user address space, so the allocation
        # fails at once.  At k = 10^16 the window passes numpy's byte limit,
        # and at k = 10^20 its largest dimension; both are refused before
        # numpy sees them.  Exit 1 would read as a negative verdict.  build
        # and conjugate once failed so too; they read the symbol only in the
        # windows k n - 2..k n, folded onto a stride of at most 6, and answer
        # as at k = 100.
        beta = '{"zeros": [0.4, {"re": 0, "im": -0.5}]}'
        command, flags, coeffs = argv[0], argv[1:-1], argv[-1]
        common = ["--alpha", "z^3", "--beta", beta, *flags]
        start = time.perf_counter()
        code, out, err = run(capsys, [command, "--k", str(k), *common, "--symbol", sym(coeffs)])
        assert time.perf_counter() - start < 1.0
        if command in ("canonical", "iszero"):
            assert code == 3 and "numeric error" in err and not out
        else:
            assert code == 0
            argv = [command, "--k", "100", *common, "--symbol", sym(same_windows(coeffs, k, 100))]
            assert matrix_of(out) == matrix_of(run(capsys, argv)[1])

    @pytest.mark.parametrize(
        "argv",
        [
            ["rankone", "--l", "0", "--kind", "tilde_k"],
            ["conjugate", "--symbol", sym({1: 1, -2: 0.5})],
        ],
        ids=["rankone", "conjugate"],
    )
    def test_large_order_stretched_beta_is_prompt(self, capsys, argv):
        # beta(z^k) as a dense array would hold about 1.2e8 coefficients here.
        start = time.perf_counter()
        code, out, _ = run(capsys, [argv[0], "--k", "100000", "--alpha", "z^3", "--beta", self.NEAR, *argv[1:]])
        assert code == 0
        assert time.perf_counter() - start < 1.5
        coeffs = json.loads(out)["symbol"]["coeffs"]
        assert 0 < len(coeffs) < 10**5
        assert max(abs(c["n"]) for c in coeffs) > 10**7

    def test_help_exits_zero(self, capsys):
        assert run(capsys, ["--help"])[0] == 0

    NAN_SYMBOL = '{"coeffs": [{"n": 0, "re": NaN, "im": 0}, {"n": 1, "re": 1, "im": 0}]}'
    NAN_ZERO = '{"type": "blaschke", "zeros": [{"re": NaN, "im": 0}]}'
    NAN_MATRIX = json.dumps({"rows": 3, "cols": 4, "data": [[float("nan"), 0.0]] + [[0.0, 0.0]] * 11})
    MEMBER = json.dumps({"rows": 3, "cols": 4, "data": [[0.0, 0.0]] * 12})
    # With tol = inf, recover printed a symbol whose compression is another matrix.
    NON_MEMBER = json.dumps({"rows": 3, "cols": 4, "data": [[1.0, 0.0]] + [[0.0, 0.0]] * 10 + [[0.0, 3.0]]})

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", *COMMON, "--symbol", NAN_SYMBOL],
            ["build", "--k", "2", "--alpha", NAN_ZERO, "--beta", "z^3", "--symbol", SYM_WORKED],
            ["membership", *COMMON, "--matrix", NAN_MATRIX],
            ["membership", *COMMON, "--matrix", MEMBER, "--tol", "nan"],
            ["recover", *COMMON, "--matrix", MEMBER, "--tol", "nan"],
            ["membership", *COMMON, "--matrix", NON_MEMBER, "--tol", "inf"],
            ["recover", *COMMON, "--matrix", NON_MEMBER, "--tol", "inf"],
            ["build", *COMMON, "--symbol", '{"coeffs": [{"n": 1, "re": 1%s}]}' % ("0" * 400)],
            ["build", "--k", "2", "--alpha", '{"zeros": [1%s]}' % ("0" * 400), "--beta", "z^3", "--symbol", SYM_WORKED],
            ["membership", *COMMON, "--matrix", MEMBER.replace("0.0", "1" + "0" * 400, 1)],
        ],
        ids=[
            "nan-symbol",
            "nan-zero",
            "nan-matrix",
            "nan-tol",
            "nan-tol-recover",
            "inf-tol",
            "inf-tol-recover",
            "huge-symbol",
            "huge-zero",
            "huge-matrix",
        ],
    )
    def test_nonfinite_input_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2 and "error" in err and not out

    @pytest.mark.parametrize("exc", [RuntimeError("backend accuracy"), np.linalg.LinAlgError("SVD did not converge")])
    def test_numeric_failures_exit_three(self, capsys, monkeypatch, exc):
        def boom(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "zero_test_sufficient", boom)
        code, _, err = run(capsys, ["iszero", *COMMON, "--symbol", SYM_WORKED])
        assert code == 3 and "numeric" in err
