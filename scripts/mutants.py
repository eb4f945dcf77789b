#!/usr/bin/env python3
"""One-line mutants of the library, and the checks that must kill them.

Each entry names a file under src/slantmodel, a text that occurs in it
exactly once, its replacement and the reason it matters.  The script copies
src/ and tests/ to a temporary directory and applies each entry there in
turn, never to the working tree.  A mutant is killed when

    slantmodel verify --seed 0 --trials 5

exits nonzero, or, for an entry that names one, when its tier-1 test fails.
An entry marked equivalent changes no result (only the cost, say); it is
run and reported but may survive.

    python scripts/mutants.py

runs every entry.  Exit 0 when every must-kill entry is killed; 1 when one
survives; 2 when an entry's text does not occur exactly once, or the
unmutated copy fails the checks themselves.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
SLICES = "tests/test_operators.py::TestSlices::test_fit_matches_dense"
TABLE = "tests/test_operators.py::TestMonomialTable::test_matches_compress"
ZERO_TEST = "tests/test_operators.py::TestZeroTestReference"
ZERO_OPERATOR = "tests/test_operators.py::TestZeroTestOperator"
FIT_OPERATOR = "tests/test_operators.py::TestFitOperator"


class Mutant(NamedTuple):
    file: str  # under src/slantmodel
    old: str  # occurs exactly once in the file
    new: str
    reason: str
    test: str | None = None  # the tier-1 test that must kill it where verify does not
    equivalent: bool = False


MUTANTS = [
    # The one table of the variants' shift choices (`_SHIFTS`) and its readers.
    Mutant("operators.py", '"c310a": (False, True)', '"c310a": (True, True)',
           "c310a's beta side taken as S_beta"),
    Mutant("operators.py", '"c38": (False, False)', '"c38": (False, True)',
           "c38's alpha side taken as S_alpha^{*k}, which makes it c310a"),
    Mutant("operators.py", "            if not down:\n", "            if down:\n",
           "F conjugated against S_beta, not S_beta^*"),
    Mutant("operators.py", "ba.frame_operands(_used(self), not right)", "ba.frame_operands(_used(self), right)",
           "G conjugated against S_alpha^{*k}, not S_alpha^k"),
    Mutant("operators.py", "if down != right:\n        return beta @ M - M @ alpha",
           "if down == right:\n        return beta @ M - M @ alpha",
           "the dense defect's one-sided and two-sided forms swapped"),
    Mutant("operators.py", "cross = down != right", "cross = down == right",
           "the sliced defect's one-sided and two-sided forms swapped"),
    # The one recovery route: a report of any variant but t35 refits t35.
    Mutant("operators.py", 'if report.variant != "t35":', 'if report.variant in ("c310a", "c310b"):',
           "a c38 report's own parts sent down the t35 route (verify's adjoint_form_roundtrip)",
           "tests/test_operators.py::TestSymbolArrayOracle::test_recover"),
    # The sliced defect, fit and sandwich of an exact setting (`_Slices`).
    Mutant("operators.py", "s = min(setting.k, n)", "s = min(setting.k - 1, n)",
           "the shift offset k -> k - 1 of the sliced defect", SLICES),
    Mutant("operators.py", "(0 if cross else n if down else -n)", "(0 if cross else n - 1 if down else -n)",
           "the beta shift's step N -> N - 1 in C order", SLICES),
    Mutant("operators.py", "flat[..., step:] -= entries[..., :-step]", "flat[..., step:] += entries[..., :-step]",
           "the sliced defect adds the shifted U", SLICES),
    Mutant("operators.py", "D[..., self.columns] = kept", "D[..., self.columns] = D[..., self.columns]",
           "the frame columns, where the difference wraps, not put back", SLICES),
    Mutant("operators.py", "D[..., self.rows[0], :] = M[..., self.rows[1], :]",
           "D[..., self.rows[0], :] = M[..., self.rows[0], :]",
           "the c310 defect's beta shift reads the rows it writes", SLICES),
    Mutant("operators.py", "chi_conj = frames.F_conj[row] * D[..., row, :] / frames.norm2",
           "chi_conj = frames.F_conj[row] * D[..., row - 1, :] / frames.norm2",
           "chi read from the row next to F's", SLICES),
    Mutant("operators.py", "columns = frame = slice(0, s)", "columns, frame = slice(0, s), slice(0, s - 1)",
           "used -> used - 1: one psi_j short", SLICES),
    Mutant("operators.py", "return cls((rows[0], slice(s, None)", "return cls((rows[1], slice(s, None)",
           "the residual over F's row, not the block the frames leave out", SLICES),
    Mutant("operators.py", "scale = None if right or setting.alpha.constant == 1 else setting.alpha.constant",
           "scale = None", "the conjugated frame's c_alpha dropped from the psi_j", SLICES),
    Mutant("operators.py", "V = M.conj()[::-1]", "V = M[::-1]", "the sandwich without the conjugate", SLICES),
    Mutant("operators.py", "        V = cb * V", "        V = V", "the sandwich's scale c_beta dropped", SLICES),
    Mutant("operators.py", "V = ca.conjugate() * V", "V = ca * V", "the sandwich's conj(c_alpha) taken as c_alpha",
           SLICES),
    # The per-setting operators of a small setting (`CompressionSetting.operator`,
    # 'fit' and 'sandwich'), formed by the products on the stack of unit
    # matrices where the setting is not all-exact.  verify's one such entry,
    # B[-0.3i,0.5] -> z^3, has ||F|| = 1, which hides a second division by it.
    Mutant("operators.py", "return M - beta @ M @ alpha", "return M + beta @ M @ alpha",
           "the sign of the shifted term of the defect, on U and on the unit matrices (verify's variant_defects)"),
    Mutant("operators.py", "chi_conj = F_conj @ D / norm2", "chi_conj = F_conj @ D / norm2 / norm2",
           "chi divided by ||F||^2 twice", FIT_OPERATOR),
    Mutant("operators.py", "@ setting.basis_alpha.conjugation_operand.conj()",
           "@ setting.basis_alpha.conjugation_operand",
           "the sandwich's conj(C_alpha) taken as C_alpha, in the operator and the products "
           "(verify's conjugation_symbol_transform)"),
    Mutant("operators.py", "K @ M.conj().ravel()", "K @ M.ravel()",
           "the product with the sandwich's operator without conj(U) (verify's conjugation_symbol_transform)"),
    Mutant("operators.py", "if mn * (mn + n + m * used + e) > OPERATOR_ENTRIES:",
           "if mn * (mn + n + m * used + e) <= OPERATOR_ENTRIES:",
           "the cut inverted: the slices or the products on a small setting, an operator on a large one",
           FIT_OPERATOR),
    Mutant("operators.py", "e = (m - 1) * (n - used) if self.exact else mn", "e = mn",
           "an exact L's E counted as all mn entries of R - Z G^H: z^9 -> z^9 at k = 4 fits by the slices",
           FIT_OPERATOR),
    Mutant("operators.py", "if mn * mn > OPERATOR_ENTRIES:", "if mn * mn <= OPERATOR_ENTRIES:",
           "K's cut inverted: the products on a small setting, K formed on a large one", FIT_OPERATOR),
    # Each operator is read through one store and formed on the second call
    # that reads its key (`CompressionSetting.operator`).
    Mutant("operators.py", "        if key not in self._read_once:\n", "        if False:\n",
           "every operator formed on its first read, by a one-shot call too", FIT_OPERATOR),
    Mutant("operators.py", "key = (kind, arg)", "key = (kind, None)",
           "a key without its argument: each variant reads the L of the first variant formed, and p27 the Z "
           "of p22 (verify's variant and zero rows)"),
    # The fit and sandwich operators are the routes run on the stack of unit
    # matrices along the leading axis: the slices on an exact setting, the
    # products, through the index maps of an exact side, on a mixed one.
    # verify's exact entries and its B[-0.3i,0.5] -> z^3 form them.
    Mutant("operators.py", "D.reshape(*M.shape[:-2], -1), M.reshape(*M.shape[:-2], -1)",
           "D.reshape(-1), M.reshape(-1)",
           "the sliced defect's step taken across the stack axis too, which shifts the unit matrices into "
           "each other (verify's exact entries)"),
    # The zero test's closed-form projector, from the Gram matrix c I + gamma G^H G
    # of its block X.  verify's menu has beta = z^3 alone, where kappa = 1: c = 1
    # and kappa_0 - 1 = 0 hide these.
    Mutant("operators.py", "x = (y - gamma * (W @", "x = (y + gamma * (W @",
           "the zero test's Gram matrix c I - gamma G^H G: gamma's sign flipped", ZERO_TEST),
    Mutant("operators.py", "/ diag[:, None]))) / c", "/ diag[:, None]))) / math.sqrt(c)",
           "the zero test's weight 1 / c on the complement of G's row space taken as 1 / ||kappa||", ZERO_TEST),
    Mutant("operators.py", "- G.conj().T @ (rows @ window)", "- G.T @ (rows @ window)",
           "X^H b with G^T for G^H", ZERO_TEST),
    Mutant("operators.py", "y = k0.conjugate() * window", "y = k0 * window",
           "X^H b without conj(kappa_0), which is 1 - |beta(0)|^2, real", ZERO_TEST, equivalent=True),
    # The zero test as one product with Z (`CompressionSetting.operator`, 'zero'),
    # `_residue` run once on the identity: formed on a setting's second test
    # of a shift, within the cut.  Every verify setting is within it, and a
    # row tests each shift ten times, so Z serves all but the first.
    Mutant("operators.py", "Z @ w", "Z @ np.roll(w, 1)",
           "the product with Z reads phi's window one frequency off (verify's zero_sufficient rows)"),
    Mutant("operators.py", "[::-1].conj(), -basis.truncation_order", "[::-1], -basis.truncation_order",
           "the conjugate dropped from the head of `_reduced`, in the route and in Z (verify's canonical and "
           "zero rows)"),
    Mutant("operators.py", "if rows * width > OPERATOR_ENTRIES:", "if rows * width <= OPERATOR_ENTRIES:",
           "Z's cut inverted: the route on a small setting, Z formed on a large one (it changes no verdict)",
           ZERO_OPERATOR),
    # The decomposition that membership reports, assembled back to the
    # defect (verify's decomposition_assembles).
    Mutant("operators.py", "np.outer(frames.F, dec.chi.conjugate())", "np.outer(frames.F, dec.chi)",
           "assemble_defect's F chi^H term without the conjugate (verify's decomposition_assembles)"),
    # The Baseline probe's entries whose text still occurs.
    Mutant("operators.py", "F = bb.first_columns(1)[:, 0].conj()", "F = bb.first_columns(1)[:, 0]",
           "the frame vector F without its conjugate",
           "tests/test_verify.py::TestSuite::test_wide_menu"),
    Mutant("model_space.py", "return _IndexMap(self.shape, self.rows, self.cols, self.scale.conjugate())",
           "return self", "an index map's conjugate keeps c (the Baseline's `_Flip.conjugate`)",
           "tests/test_operators.py::TestIndexMaps::test_sandwich_and_frames_match_dense"),
    Mutant("model_space.py", "(rows.T @ (rows.conj() @ coeffs", "(rows.T @ (rows @ coeffs",
           "stretched_projection without the rows' conjugate",
           "tests/test_model_space.py::TestStretchedBasis"),
    Mutant("operators.py", "kappa = bb.first_columns(1)[:, 0].conj() @ bb.rows_operand",
           "kappa = bb.first_columns(1)[:, 0] @ bb.rows_operand",
           "kappa = P_beta 1 without its conjugate", "tests/test_operators.py::TestZeroTest::test_complex_kappa"),
    Mutant("model_space.py", "c * system[-1, 1:-1]\n", "c * system[-1, 1:-1].conj()\n",
           "inner_expansion from conj(C)", "tests/test_model_space.py"),
    # The monomial table of a B -> B setting (`CompressionSetting.operator`, 'table').
    # verify cannot reach it: DEFAULT_MENU has no entry with both bases Blaschke.
    Mutant("operators.py", "at = start + src.shape[1] - 1", "at = start + src.shape[1]",
           "the table read one row past z^start (verify's menu has no B -> B entry to reach it)", TABLE),
    Mutant("operators.py", "columns.transpose(2, 1, 0).reshape(F, -1)", "columns.reshape(F, -1)",
           "the table reshaped without its transpose (verify's menu has no B -> B entry to reach it)", TABLE),
    Mutant("operators.py", "s = min(k, src.shape[1])", "s = k",
           "build_compression at the stride k: the same entries from `_compress` at a higher cost, but a B -> B "
           "table, laid out at the folded stride, read at the wrong rows past k = T_alpha + 1", TABLE),
    # An index map multiplies a leading stack of matrices on its right along
    # their rows, as the products on the unit matrices read it.
    Mutant("model_space.py", "x[(..., self.cols, *tail)], (..., self.rows, *tail), self.shape[0], -1 - len(tail))",
           "x[self.cols], self.rows, self.shape[0], 0)",
           "an index map reads a stack on its right along axis 0, the stack's, not -2, the matrices' rows "
           "(verify's B[-0.3i,0.5] -> z^3, whose L and K multiply the unit matrices by z^3's maps)"),
]


def run(argv: list, cwd: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    try:
        return subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return -1


def verify(cwd: Path) -> int:
    return run([sys.executable, "-m", "slantmodel.cli", "verify", "--seed", "0", "--trials", "5"], cwd)


def pytest(tests: list, cwd: Path) -> int:
    return run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests], cwd)


def main() -> int:
    for m in MUTANTS:
        count = (ROOT / "src" / "slantmodel" / m.file).read_text().count(m.old)
        if count != 1:
            print(f"error: {m.file}: {m.old!r} occurs {count} times, not once")
            return 2
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        tests = sorted({m.test for m in MUTANTS if m.test})
        if verify(copy) or (tests and pytest(tests, copy)):
            print("error: the unmutated copy fails verify or a named test")
            return 2
        for m in MUTANTS:
            path = copy / "src" / "slantmodel" / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            try:
                if verify(copy):
                    verdict = "killed by verify"
                elif m.test and pytest([m.test], copy):
                    verdict = f"killed by {m.test}"
                else:
                    verdict = "survived"
            finally:
                path.write_text(original)
            if verdict == "survived" and not m.equivalent:
                survivors += 1
                verdict = "SURVIVED"
            print(f"{'equivalent' if m.equivalent else 'must-kill'}: {m.file}: {m.reason}: {verdict}", flush=True)
    print(f"{len(MUTANTS)} mutants, {survivors} must-kill survivors")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
