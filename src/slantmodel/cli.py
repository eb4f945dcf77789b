"""Command-line front end over JSON files and stdout.

Exit codes: 0 success (including member/zero-true verdicts), 1 computed
negative (non-member, not provably zero), 2 usage or input error, 3 numeric,
truncation or allocation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .laurent import LaurentPoly, ascii_int, ascii_real
from .model_space import InnerFunction, ModelSpaceBasis, TruncationError
from .operators import (
    DEFAULT_MEMBERSHIP_TOL,
    VARIANTS,
    CompressionSetting,
    NonMemberError,
    OperatorMatrix,
    build_compression,
    canonical_symbol,
    conjugate_operator,
    membership,
    rank_one,
    recover_symbol,
    zero_test_sufficient,
)
from .verify import SuiteConfig, run_suite

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


def _load_json_arg(text: str):
    """Accept inline JSON (starts with '{') or a path to a JSON file."""
    text = text.strip()
    try:
        if text.startswith("{"):
            return json.loads(text)
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON input {text[:60]!r}: {exc}") from exc


def _parse_inner(text: str) -> InnerFunction:
    try:
        if text.strip().startswith(("{", "z^")) or text.strip() == "z":
            return InnerFunction.parse(text)
        return InnerFunction.from_json(_load_json_arg(text))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f"invalid inner function {text!r}: {exc}") from exc


def _parse_symbol(text: str) -> LaurentPoly:
    try:
        return LaurentPoly.from_json(_load_json_arg(text))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f"invalid symbol: {exc}") from exc


def _parse_matrix(text: str, setting: CompressionSetting) -> OperatorMatrix:
    try:
        entries = OperatorMatrix.entries_from_json(_load_json_arg(text))
        return setting.matrix(entries)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f"invalid matrix: {exc}") from exc


def _membership(args, setting: CompressionSetting):
    U = _parse_matrix(args.matrix, setting)
    try:
        return membership(U, setting, args.variant, args.tol)
    except ValueError as exc:  # only the tolerance is left: argparse checked the variant
        raise UsageError(str(exc)) from exc


def _setting(args) -> CompressionSetting:
    alpha = _parse_inner(args.alpha)
    beta = _parse_inner(args.beta)
    try:
        return CompressionSetting(alpha, beta, args.k)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit(payload: dict, fmt: str, text_fn) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text_fn(payload))


def _matrix_text(obj: dict) -> str:
    rows, cols = obj["rows"], obj["cols"]
    data = obj["data"]
    lines = []
    for i in range(rows):
        cells = []
        for j in range(cols):
            re, im = data[i * cols + j]
            cells.append(f"{complex(re, im):.6g}")
        lines.append("  ".join(cells))
    return "\n".join(lines)


def _symbol_text(obj: dict) -> str:
    if not obj["coeffs"]:
        return "0"
    return "  ".join(f"z^{e['n']}: {complex(e['re'], e['im']):.6g}" for e in obj["coeffs"])


def _add_common(p):
    p.add_argument("--k", type=ascii_int, required=True, help="decimation order")
    p.add_argument("--alpha", required=True, help="inner function: 'z^N' or JSON (inline/file)")
    p.add_argument("--beta", required=True, help="inner function: 'z^N' or JSON (inline/file)")
    p.add_argument("--format", choices=("json", "text"), default="json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged,
    so every call of `main` shares it.  Callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="slantmodel",
        description="Finite-matrix compressions of slant Toeplitz operators to model spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="compression matrix of a symbol")
    _add_common(p)
    p.add_argument("--symbol", required=True, help="Laurent coefficients, JSON inline or file")

    p = sub.add_parser("membership", help="test a matrix for compression structure")
    _add_common(p)
    p.add_argument("--matrix", required=True, help="matrix JSON, inline or file")
    p.add_argument("--variant", choices=VARIANTS, default="t35")
    p.add_argument("--tol", type=ascii_real, default=DEFAULT_MEMBERSHIP_TOL)

    p = sub.add_parser("recover", help="recover a symbol from a member matrix")
    _add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--variant", choices=VARIANTS, default="t35")
    p.add_argument("--tol", type=ascii_real, default=DEFAULT_MEMBERSHIP_TOL)

    p = sub.add_parser("canonical", help="equivalent symbol from the canonical subspace")
    _add_common(p)
    p.add_argument("--symbol", required=True)
    p.add_argument("--which", choices=("first", "second"), default="first")

    p = sub.add_parser("iszero", help="sufficient symbol-space test for the zero operator")
    _add_common(p)
    p.add_argument("--symbol", required=True)
    p.add_argument("--which", choices=("p22", "p27"), default="p22")

    p = sub.add_parser("conjugate", help="conjugation sandwich of a symbol or matrix")
    _add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--symbol")
    group.add_argument("--matrix")

    p = sub.add_parser("rankone", help="rank-one member and its symbol")
    _add_common(p)
    p.add_argument("--l", type=ascii_int, required=True, help="derivative index, 0 <= l < k")
    p.add_argument("--kind", choices=("tilde_k", "k_tilde"), default="tilde_k")

    p = sub.add_parser("verify", help="run the seeded property suite")
    p.add_argument("--seed", type=ascii_int, default=0)
    p.add_argument("--trials", type=ascii_int, default=50)
    p.add_argument("--inject-failure", action="store_true", help="add a broken property; the suite must fail")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("info", help="describe a model space")
    p.add_argument("--alpha", required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _run(args) -> int:
    cmd = args.command

    if cmd == "verify":
        if args.trials < 1:
            raise UsageError("trials must be >= 1")
        if args.seed < 0:
            raise UsageError("seed must be >= 0")
        report = run_suite(SuiteConfig(args.seed, args.trials, inject_failure=args.inject_failure))
        print(report.to_json_text() if args.format == "json" else report.to_text())
        return EXIT_OK if report.all_passed else EXIT_NEGATIVE

    if cmd == "info":
        inner = _parse_inner(args.alpha)
        basis = ModelSpaceBasis.build(inner)
        payload = {
            "inner": inner.to_json(),
            "dim": basis.dim,
            "backend": "monomial" if basis.exact else "blaschke",
            "truncation_order": basis.truncation_order,
            "tail_bound": basis.tail_bound,
            "gram_error": basis.gram_error,
        }
        _emit(
            payload,
            args.format,
            lambda o: f"dim={o['dim']} backend={o['backend']} "
            f"truncation_order={o['truncation_order']} tail_bound={o['tail_bound']:.3e} "
            f"gram_error={o['gram_error']:.3e}",
        )
        return EXIT_OK

    setting = _setting(args)

    if cmd == "build":
        U = build_compression(_parse_symbol(args.symbol), setting)
        _emit(U.to_json(), args.format, _matrix_text)
        return EXIT_OK

    if cmd == "membership":
        report = _membership(args, setting)
        _emit(
            report.to_json(),
            args.format,
            lambda o: f"member={o['member']} residual={o['residual']:.3e}",
        )
        return EXIT_OK if report.member else EXIT_NEGATIVE

    if cmd == "recover":
        report = _membership(args, setting)
        if not report.member:
            print(
                f"not a member: residual {report.residual:.3e} exceeds tolerance "
                f"{report.effective_tolerance:.3e}",
                file=sys.stderr,
            )
            return EXIT_NEGATIVE
        symbol = recover_symbol(report, setting)
        _emit(symbol.to_json(), args.format, _symbol_text)
        return EXIT_OK

    if cmd == "canonical":
        out = canonical_symbol(_parse_symbol(args.symbol), setting, args.which)
        _emit(out.to_json(), args.format, _symbol_text)
        return EXIT_OK

    if cmd == "iszero":
        verdict = zero_test_sufficient(_parse_symbol(args.symbol), setting, args.which)
        _emit(
            {"sufficient": verdict, "which": args.which},
            args.format,
            lambda o: f"sufficient={o['sufficient']}",
        )
        return EXIT_OK if verdict else EXIT_NEGATIVE

    if cmd == "conjugate":
        if args.symbol is not None:
            mat, psi = conjugate_operator(setting, phi=_parse_symbol(args.symbol))
        else:
            mat, psi = conjugate_operator(setting, U=_parse_matrix(args.matrix, setting))
        payload = {"matrix": mat.to_json(), "symbol": psi.to_json() if psi else None}
        _emit(
            payload,
            args.format,
            lambda o: _matrix_text(o["matrix"])
            + ("\nsymbol: " + _symbol_text(o["symbol"]) if o["symbol"] else ""),
        )
        return EXIT_OK

    if cmd == "rankone":
        try:
            mat, symbol = rank_one(setting, args.l, args.kind)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        payload = {"matrix": mat.to_json(), "symbol": symbol.to_json()}
        _emit(
            payload,
            args.format,
            lambda o: _matrix_text(o["matrix"]) + "\nsymbol: " + _symbol_text(o["symbol"]),
        )
        return EXIT_OK

    raise UsageError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, 0 on --help.
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        TruncationError,
        NonMemberError,
        ZeroDivisionError,
        FloatingPointError,
        OverflowError,
        MemoryError,
        RuntimeError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
