import cmath
import json

import numpy as np
import pytest

from slantmodel import verify
from slantmodel.cli import main
from slantmodel.laurent import LaurentPoly
from slantmodel.model_space import InnerFunction
from slantmodel.verify import (
    DEFAULT_MENU,
    REQUIRED_ANCHORS,
    MenuContext,
    PropertySpec,
    SuiteConfig,
    audit_registry,
    random_laurent,
    registered_properties,
    run_suite,
)

FAST = SuiteConfig(seed=11, trials=3)

# Spaces the default menu leaves out: a complex conjugation C with c != 1 on
# both sides at k = 3, an exact alpha with c != 1, and a zero at 0.95 with a
# repeated zero in beta.
WIDE = (
    (
        InnerFunction.blaschke([0.5, 0.3j], cmath.exp(-0.4j)),
        InnerFunction.blaschke([-0.5j, 0.4], cmath.exp(0.2j)),
        3,
    ),
    (InnerFunction.blaschke([0] * 4, cmath.exp(0.7j)), InnerFunction.monomial(3), 2),
    (InnerFunction.blaschke([0.95, -0.3, 0.2j]), InnerFunction.blaschke([0.4j, 0.4j]), 2),
)


@pytest.fixture(scope="module")
def fast_report():
    return run_suite(FAST)


class TestRegistry:
    def test_every_required_anchor_is_covered(self):
        anchors = {p.anchor for p in registered_properties()}
        assert REQUIRED_ANCHORS <= anchors

    def test_audit_detects_missing_anchor(self):
        # An empty registry misses every anchor; it is not the global one.
        for registry in ([p for p in registered_properties() if p.anchor != "universality"], []):
            with pytest.raises(RuntimeError, match="universality"):
                audit_registry(registry)

    def test_names_unique(self):
        names = [p.name for p in registered_properties()]
        assert len(names) == len(set(names))


class TestRandomLaurent:
    @pytest.mark.parametrize("lo,hi,terms", [(-8, 8, 8), (0, 4, 4), (-6, 40, 8), (3, 3, 1), (-2, 1, 9)])
    def test_draws_as_one_scalar_per_part(self, lo, hi, terms):
        # One array of draws is the stream of a choice over the range, then a
        # real and an imaginary scalar draw per frequency, so every seeded
        # input of the suite stays as it was.
        for seed in range(20):
            ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            freqs = ref.choice(range(lo, hi + 1), size=min(terms, hi - lo + 1), replace=False)
            want = LaurentPoly({int(n): complex(ref.standard_normal(), ref.standard_normal()) for n in freqs})
            got = random_laurent(rng, lo, hi, terms)
            assert list(got.items()) == list(want.items())
            assert rng.standard_normal() == ref.standard_normal()


class TestSuite:
    def test_all_pass_on_default_menu(self, fast_report):
        failed = [r for r in fast_report.results if r.fails]
        assert fast_report.all_passed, [(r.name, r.space) for r in failed]
        assert fast_report.worst_residual < 1e-7

    def test_deterministic_reports(self, fast_report):
        again = run_suite(SuiteConfig(seed=11, trials=3))
        assert again.to_json_text() == fast_report.to_json_text()

    def test_seed_changes_trials(self, fast_report):
        other = run_suite(SuiteConfig(seed=12, trials=3))
        assert other.to_json_text() != fast_report.to_json_text()
        assert other.all_passed

    def test_json_text_parses(self, fast_report):
        obj = json.loads(fast_report.to_json_text())
        assert obj["all_passed"] is True
        assert obj["seed"] == 11
        assert len(obj["results"]) == len(registered_properties()) * len(DEFAULT_MENU)

    def test_text_report_has_status_line(self, fast_report):
        text = fast_report.to_text()
        assert text.splitlines()[0].endswith("status=PASS")
        assert len(text.splitlines()) == 2 + len(fast_report.results)

    def test_row_time_is_text_only(self, fast_report):
        # Each row's wall time is a column of the text report, never a JSON
        # field, so the JSON of a seed stays byte-identical across runs.
        header, first = fast_report.to_text().splitlines()[1:3]
        assert header.split()[-2:] == ["ms", "worst"]
        assert float(first.split()[-2]) == pytest.approx(1e3 * fast_report.results[0].seconds, abs=0.01)
        assert all(r.seconds > 0 for r in fast_report.results)
        assert "seconds" not in fast_report.to_json_text()

    def test_injected_failure_detected(self):
        report = run_suite(SuiteConfig(seed=11, trials=3, inject_failure=True))
        assert not report.all_passed
        broken = [r for r in report.results if r.name == "injected_broken_property"]
        assert broken and any(r.fails > 0 for r in broken)
        cx = next(r.first_counterexample for r in broken if r.fails > 0)
        assert cx is not None and "inputs" in cx and cx["residual"] > 0

    def test_raising_property_is_a_failing_row(self, monkeypatch, capsys):
        def raising(rng, ctx):
            raise RuntimeError("backend accuracy problem")

        spec = PropertySpec("raising_property", "negative-control", raising)
        monkeypatch.setattr(verify, "_REGISTRY", [*verify._REGISTRY, spec])
        menu = ((InnerFunction.monomial(3), InnerFunction.monomial(2), 2),)
        report = run_suite(SuiteConfig(seed=5, trials=2, menu=menu))
        rows = {r.name: r for r in report.results}
        assert not report.all_passed and len(rows) == len(verify._REGISTRY)
        row = rows.pop("raising_property")
        assert (row.passes, row.fails, row.worst_residual) == (0, 2, float("inf"))
        assert row.first_counterexample["trial"] == 0
        assert "RuntimeError" in row.first_counterexample["inputs"]["error"]
        assert all(r.fails == 0 for r in rows.values())
        # The CLI reports the row and exits 1, the suite's negative verdict.
        assert main(["verify", "--trials", "1", "--format", "text"]) == 1
        assert any(line.startswith("raising_property") and line.endswith("inf") for line in capsys.readouterr().out.splitlines())

    def test_custom_menu(self):
        menu = ((InnerFunction.monomial(3), InnerFunction.monomial(2), 2),)
        report = run_suite(SuiteConfig(seed=5, trials=2, menu=menu))
        assert report.all_passed
        assert {r.space for r in report.results} == {"(z^3, z^2, k=2)"}

    @pytest.mark.parametrize(
        "alpha,beta,label",
        [
            (InnerFunction.monomial(3), InnerFunction.blaschke([0.4, -0.5j]), "(z^3, B[0.4+0j,-0-0.5j], k=2)"),
            (
                InnerFunction.blaschke([0.5, -0.3, 0.2j]),
                InnerFunction.blaschke([0.4, -0.5j]),
                "(B[0.5+0j,-0.3+0j,0+0.2j], B[0.4+0j,-0-0.5j], k=2)",
            ),
        ],
        ids=["z3-blaschke", "blaschke-blaschke"],
    )
    def test_custom_menu_blaschke_beta(self, alpha, beta, label):
        # Blaschke beta: its stretched basis and beta-side conjugation.
        report = run_suite(SuiteConfig(seed=5, trials=2, menu=((alpha, beta, 2),)))
        assert report.all_passed, [(r.name, r.worst_residual) for r in report.results if r.fails]
        assert {r.space for r in report.results} == {label}

    @pytest.mark.parametrize("seed", [0, 1])
    def test_wide_menu(self, seed):
        # The reference kernels, the stretched inner function and the
        # conjugation against complex and non-unit constants, a repeated
        # zero and a zero near the circle, on top of the default menu.
        report = run_suite(SuiteConfig(seed, 5, menu=DEFAULT_MENU + WIDE))
        assert len(report.results) == 245 == len(registered_properties()) * 7
        assert report.all_passed, [(r.name, r.space, r.worst_residual) for r in report.results if r.fails]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(trials=0)
        with pytest.raises(ValueError):
            SuiteConfig(menu=())


class Unserialisable:
    """An input whose JSON form must never be asked for."""

    def to_json(self):
        raise AssertionError("a passing trial serialised its inputs")


def spies(monkeypatch, **bodies):
    """Registers each body as a property that counts its runs; the counts."""
    runs = dict.fromkeys(bodies, 0)

    def spy(name, body):
        def run(rng, ctx):
            runs[name] += 1
            return body(rng, ctx)

        return PropertySpec(name, "negative-control", run)

    monkeypatch.setattr(verify, "_REGISTRY", [*verify._REGISTRY, *(spy(n, b) for n, b in bodies.items())])
    return runs


class TestTrialReuse:
    MENU = (
        (InnerFunction.monomial(3), InnerFunction.monomial(2), 2),
        (InnerFunction.blaschke([0.5]), InnerFunction.monomial(2), 3),
    )

    def test_draw_free_property_runs_once_per_space(self, monkeypatch):
        runs = spies(
            monkeypatch,
            drawing=lambda rng, ctx: (0.0, {"x": rng.standard_normal(), "never": Unserialisable()}),
            draw_free=lambda rng, ctx: (0.0, {"k": ctx.k, "never": Unserialisable()}),
        )
        report = run_suite(SuiteConfig(seed=3, trials=4, menu=self.MENU))
        assert runs == {"drawing": 4 * 2, "draw_free": 2}
        rows = [r for r in report.results if r.name in runs]
        assert len(rows) == 4 and report.all_passed
        assert all((r.passes, r.fails, r.first_counterexample) == (4, 0, None) for r in rows)

    def test_failing_draw_free_property_fails_every_trial(self, monkeypatch):
        def failing(rng, ctx):
            n, m = ctx.setting.basis_beta.dim, ctx.setting.basis_alpha.dim
            return 0.5, {"matrix": ctx.setting.matrix(np.ones((n, m))), "coords": np.array([1j, 2.0])}

        runs = spies(monkeypatch, failing=failing)
        report = run_suite(SuiteConfig(seed=3, trials=4, menu=self.MENU))
        assert runs == {"failing": 2} and not report.all_passed
        rows = [r for r in report.results if r.name == "failing"]
        for row, (alpha, beta, _) in zip(rows, self.MENU, strict=True):
            assert (row.passes, row.fails, row.worst_residual) == (0, 4, 0.5)
            cx = row.first_counterexample
            assert (cx["trial"], cx["residual"]) == (0, 0.5)
            # The failing trial's inputs are serialised by their own to_json.
            n, m = beta.degree, alpha.degree
            assert cx["inputs"] == {"matrix": {"rows": n, "cols": m, "data": [[1.0, 0.0]] * (n * m)}, "coords": [[0.0, 1.0], [2.0, 0.0]]}
        json.loads(report.to_json_text())


class TestRowStream:
    """Each (property, space) row draws its trials in turn from one generator."""

    MENU = TestTrialReuse.MENU

    def test_trials_draw_in_turn(self, monkeypatch):
        pidx = len(verify._REGISTRY)
        draws = {}

        def recording(rng, ctx):
            row = draws.setdefault(ctx.label(), [])
            if ctx.setting.exact:
                row.append(rng.standard_normal(len(row) + 1))  # trial t draws t + 1 values
            else:
                row.append(None)  # the Blaschke entry's row draws nothing
            return 0.0, None

        runs = spies(monkeypatch, recording=recording)
        exact, blaschke = (MenuContext(*entry).label() for entry in self.MENU)
        seen = {}
        for trials in (2, 3):
            draws.clear()
            report = run_suite(SuiteConfig(seed=7, trials=trials, menu=self.MENU))
            rows = [r for r in report.results if r.name == "recording"]
            assert report.all_passed and [(r.passes, r.fails) for r in rows] == [(trials, 0)] * 2
            # Trial t draws what the row's generator gives after trials 0..t-1.
            stream = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(pidx, 0)))
            assert len(draws[exact]) == trials
            for t, values in enumerate(draws[exact]):
                assert np.array_equal(values, stream.standard_normal(t + 1))
            # The draw-free row ran once and counts for every trial.
            assert draws[blaschke] == [None]
            seen[trials] = list(draws[exact])
        assert runs == {"recording": 2 + 1 + 3 + 1}
        # A row's first trials do not depend on how many follow.
        assert all(np.array_equal(a, b) for a, b in zip(seen[2], seen[3][:2], strict=True))
