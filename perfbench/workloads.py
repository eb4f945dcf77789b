"""Workloads, seeded inputs and the five checked operations of the benchmark.

Each workload fixes the compression settings and one cycle of operations.
Every cycle runs each operation kind once, so every end-to-end metric has
samples on every workload; the workloads differ in the settings, which
decide which layer does the work:

* ``mono-roundtrip``: alpha = z^64, beta = z^48, k = 3.  The dense lstsq
  membership fit (a 3072 x 208 design matrix) does about half the work;
  the rest is tens of thousands of tiny Laurent products and pairings.
* ``blaschke-nearcircle``: alpha = B[0.95, -0.3, 0.2i] (truncation 597),
  beta = B[0.4, -0.5i], k = 2.  Long Laurent convolutions and kernel
  derivatives dominate; lstsq is negligible.
* ``verify-suite``: the seeded property suite (5 trials) plus the other
  operations on the suite's smallest setting z^4 -> z^3, k = 2.  Many
  object-creation-bound calls on inputs of length <= 64.

All inputs come from the workload seed; the library only receives them.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from slantmodel import cli, operators, verify
from slantmodel.laurent import LaurentPoly
from slantmodel.model_space import InnerFunction

KINDS = ("roundtrip", "classify", "conjugate", "cli", "suite")

# Rebuild tolerance relative to ||U||, per backend; the mixed case takes the
# looser one.  Owned by the benchmark so a library change cannot relax it.
BACKEND_TOL = {"monomial": 1e-12, "blaschke": 1e-8}

# Size of the deliberate corruption the negative control applies.
SABOTAGE = 1e-3

# -- machine-speed reference -----------------------------------------------------
# On a shared 2-vCPU Xeon virtual machine the CPU speed drifts by up to 2x
# over seconds to minutes, and CPU time drifts with wall time, so raw timings
# of separate runs are not comparable.  After every cycle the benchmark times
# a fixed reference that does not touch slantmodel: a dict convolution of
# complex numbers (the interpreter work of LaurentPoly) and a complex lstsq
# (the BLAS work of membership).  Each part is divided by its uncontended time
# on that machine (CPython 3.11, OpenBLAS 0.3.31 on one thread); the mean of
# the two ratios is one slowdown sample.
SETUP_SLOWDOWN_SAMPLES = 5
REF_PY_MS = 2.0
REF_BLAS_MS = 2.8
_REF_A = {n: complex(1.0 + n, 0.5 - n) for n in range(48)}
_REF_B = {n: complex(0.25 * n, 1.0) for n in range(-24, 24)}
_REF_RNG = np.random.default_rng(12345)
_REF_M = _REF_RNG.standard_normal((360, 80)) + 1j * _REF_RNG.standard_normal((360, 80))
_REF_V = _REF_M[:, 0].copy()


def slowdown() -> float:
    """Current machine slowdown against the uncontended reference speed."""
    t0 = perf_counter()
    for _ in range(8):
        out = {}
        for n, a in _REF_A.items():
            for m, b in _REF_B.items():
                out[n + m] = out.get(n + m, 0j) + a * b
    t1 = perf_counter()
    np.linalg.lstsq(_REF_M, _REF_V, rcond=None)
    t2 = perf_counter()
    return 0.5 * ((t1 - t0) * 1e3 / REF_PY_MS + (t2 - t1) * 1e3 / REF_BLAS_MS)


@dataclass(frozen=True)
class Workload:
    name: str
    alpha: tuple  # ("monomial", degree) or ("blaschke", zeros)
    beta: tuple
    k: int
    suite_trials: int
    cycles_per_pass: int  # cycles in each pass of the traced run
    symbol_terms: int = 8
    symbol_range: tuple = (-6, 6)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mono-roundtrip", ("monomial", 64), ("monomial", 48), 3, suite_trials=1, cycles_per_pass=3),
        Workload(
            "blaschke-nearcircle",
            ("blaschke", (0.95, -0.3, 0.2j)),
            ("blaschke", (0.4, -0.5j)),
            2,
            suite_trials=1,
            cycles_per_pass=2,
        ),
        Workload("verify-suite", ("monomial", 4), ("monomial", 3), 2, suite_trials=5, cycles_per_pass=2),
    )
}


def _inner(spec) -> InnerFunction:
    kind, arg = spec
    return InnerFunction.monomial(arg) if kind == "monomial" else InnerFunction.blaschke(arg)


def _inner_arg(inner: InnerFunction) -> str:
    """The CLI spelling of an inner function."""
    if inner.kind == "monomial":
        return f"z^{inner.degree}"
    return json.dumps(inner.to_json())


@dataclass
class Inputs:
    phi: LaurentPoly
    gaussian: np.ndarray
    suite_seed: int


@dataclass
class Tally:
    """Timed samples and verdicts of the measured operations."""

    samples: dict = field(default_factory=lambda: {k: [] for k in KINDS})  # (cycle, seconds)
    verified: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    err_max: float = 0.0
    slowdowns: list = field(default_factory=list)
    reference_s: float = 0.0  # wall time spent timing the reference

    def busy_s(self) -> float:
        return sum(sec for v in self.samples.values() for _, sec in v)

    def scaled(self) -> dict:
        """Samples in seconds at the reference speed.

        Each sample is divided by the median slowdown of the references taken
        after its own cycle and its two neighbours, which follows drift within
        a run without letting one noisy reading distort a sample.
        """
        sl = self.slowdowns
        smooth = [statistics.median(sl[max(0, c - 1) : c + 2]) for c in range(len(sl))]
        return {k: [sec / smooth[c] for c, sec in v] for k, v in self.samples.items()}


class Bench:
    """One workload's settings and operations, with an optional tracer."""

    def __init__(self, workload: str, seed: int, tracer=None, negative_control: bool = False):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.tracer = tracer
        self.setting = None
        self.tol = 0.0
        self.alpha_arg = self.beta_arg = None  # CLI spellings of the inner functions
        self.last_member = None
        self.next_op = 0
        # The negative control corrupts the first output of every kind.
        self.sabotage = set(KINDS) if negative_control else set()

    # -- inputs ----------------------------------------------------------------

    def inputs(self, cycle: int) -> Inputs:
        """Seeded inputs of one cycle; cycle -1 is the set-up warm-up."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(cycle + 1,)))
        lo, hi = self.spec.symbol_range
        freqs = rng.choice(np.arange(lo, hi + 1), size=self.spec.symbol_terms, replace=False)
        phi = LaurentPoly({int(n): complex(rng.standard_normal(), rng.standard_normal()) for n in freqs})
        shape = (self.setting.basis_beta.dim, self.setting.basis_alpha.dim)
        gaussian = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return Inputs(phi, gaussian, int(rng.integers(2**31)))

    # -- set-up ----------------------------------------------------------------

    def setup(self, tally: Tally) -> None:
        """Build every setting and run one warm-up operation of each kind.

        The warm-up fills lazy caches (alpha_expansion and the like) and starts
        BLAS, so work moved into set-up shows in setup_s rather than vanishing.
        """
        if self.tracer is not None:
            self.tracer.op = -1
        s = self.spec
        alpha, beta = _inner(s.alpha), _inner(s.beta)
        self.setting = operators.CompressionSetting(alpha, beta, s.k)
        self.tol = max(BACKEND_TOL[alpha.kind], BACKEND_TOL[beta.kind])
        self.alpha_arg, self.beta_arg = _inner_arg(alpha), _inner_arg(beta)
        self.run_cycle(-1, tally)
        t0 = perf_counter()
        tally.slowdowns += [slowdown() for _ in range(SETUP_SLOWDOWN_SAMPLES - 1)]
        tally.reference_s += perf_counter() - t0

    # -- operations --------------------------------------------------------------

    def run_cycle(self, cycle: int, tally: Tally) -> None:
        inp = self.inputs(cycle)
        for kind in KINDS:
            self._run_op(kind, inp, tally)
        # Once per cycle, after the suite, so that no small operation finds
        # its caches flushed by the reference.
        t0 = perf_counter()
        tally.slowdowns.append(slowdown())
        tally.reference_s += perf_counter() - t0

    def _run_op(self, kind, inp, tally):
        if self.tracer is not None:
            self.tracer.op = self.next_op
        self.next_op += 1
        sabotage = kind in self.sabotage
        self.sabotage.discard(kind)
        tally.attempted += 1
        try:
            seconds, ok, detail = getattr(self, "_" + kind)(inp, sabotage)
        except Exception:  # an operation that raises is a failed operation
            seconds, ok, detail = None, False, traceback.format_exc(limit=4)
        if ok:
            tally.verified += 1
        else:
            tally.failed += 1
            tally.errors.append(f"{kind}: {detail}")
        if seconds is not None:
            tally.samples[kind].append((len(tally.slowdowns), seconds))
        if kind == "roundtrip" and ok:
            tally.err_max = max(tally.err_max, detail)

    @contextlib.contextmanager
    def _untraced(self):
        """Correctness checks run outside the trace."""
        tr = self.tracer
        was = tr.active if tr is not None else False
        if tr is not None:
            tr.active = False
        try:
            yield
        finally:
            if tr is not None:
                tr.active = was

    def _bump(self, M: np.ndarray) -> np.ndarray:
        out = M.copy()
        out[0, 0] += SABOTAGE * max(1.0, float(np.linalg.norm(M)))
        return out

    def _rel_err(self, A: np.ndarray, B: np.ndarray) -> float:
        return float(np.linalg.norm(A - B)) / max(float(np.linalg.norm(B)), 1e-300)

    def _roundtrip(self, inp: Inputs, sabotage: bool):
        s = self.setting
        t0 = perf_counter()
        U = operators.build_compression(inp.phi, s)
        report = operators.membership(U, s)
        psi = operators.recover_symbol(report, s)
        U2 = operators.build_compression(psi, s)
        seconds = perf_counter() - t0
        self.last_member = U
        rebuilt = self._bump(U2.entries) if sabotage else U2.entries
        err = self._rel_err(rebuilt, U.entries)
        if err > self.tol:
            return seconds, False, f"rebuilt matrix off by {err:.3e} relative (tol {self.tol:.0e})"
        return seconds, True, err

    def _classify(self, inp: Inputs, sabotage: bool):
        s = self.setting
        M = s.matrix(inp.gaussian)
        if sabotage:
            M = operators.build_compression(inp.phi, s)
        t0 = perf_counter()
        report = operators.membership(M, s)
        seconds = perf_counter() - t0
        if report.member:
            return seconds, False, f"random matrix accepted as a member (residual {report.residual:.3e})"
        return seconds, True, None

    def _conjugate(self, inp: Inputs, sabotage: bool):
        s, U = self.setting, self.last_member
        t0 = perf_counter()
        V, _ = operators.conjugate_operator(s, U=U)
        seconds = perf_counter() - t0
        with self._untraced():
            W = self._bump(V.entries) if sabotage else V.entries
            drift = abs(float(np.linalg.norm(W)) - U.norm()) / U.norm()
            member = operators.membership(s.matrix(W), s).member
        # The conjugations are antiunitary, and the sandwich of a member is a
        # member, so the result must keep the norm and stay a member.
        if drift > self.tol or not member:
            return seconds, False, f"sandwich norm drift {drift:.3e}, member={member}"
        return seconds, True, None

    def _cli(self, inp: Inputs, sabotage: bool):
        s, U = self.setting, self.last_member
        argv = ["recover", "--k", str(s.k), "--alpha", self.alpha_arg, "--beta", self.beta_arg,
                "--matrix", json.dumps(U.to_json())]
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        seconds = perf_counter() - t0
        if code != 0:
            return seconds, False, f"exit code {code}: {err.getvalue().strip()[:200]}"
        with self._untraced():
            psi = LaurentPoly.from_json(json.loads(out.getvalue()))
            if sabotage:
                psi = psi + LaurentPoly.constant(SABOTAGE * max(1.0, U.norm()))
            rel = self._rel_err(operators.build_compression(psi, s).entries, U.entries)
        if rel > self.tol:
            return seconds, False, f"CLI symbol rebuilds the matrix off by {rel:.3e} relative"
        return seconds, True, None

    def _suite(self, inp: Inputs, sabotage: bool):
        config = verify.SuiteConfig(seed=inp.suite_seed, trials=self.spec.suite_trials, inject_failure=sabotage)
        t0 = perf_counter()
        report = verify.run_suite(config)
        seconds = perf_counter() - t0
        if not report.all_passed:
            bad = [r.name for r in report.results if r.fails]
            return seconds, False, f"suite seed {inp.suite_seed} failed: {sorted(set(bad))[:5]}"
        return seconds, True, None
