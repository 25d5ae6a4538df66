"""Command line interface.

Three subcommands: ``bch`` prints a truncated Campbell-Hausdorff series,
``solve-kv`` constructs rational solution pairs (optionally a gauge family),
and ``verify`` runs the identity suites degree by degree.  A request whose
series, counted as Campbell-Hausdorff series of their arity and order, would
pass ``BCH_WORD_CEILING`` words is refused up front.  Exit codes: 0 when
everything passes, 1 when a check fails, 2 on usage errors.

The verify pipeline always certifies the equation residual first; when that
fails, the hypothesis-gated suites are skipped and the run exits 1 with the
residual witness.  A solution can be loaded from a JSON file (``--solution``)
to audit stored or externally produced pairs.

Output has one writer, ``_indented_json``: the text of ``json.dumps(payload,
indent=2)``, in which every series leaf (``bch``'s series, a solution's A and
B) writes its own text from its integer pair, so no per-term dict is built.
"""

import argparse
import functools
import json
import random
import sys
from json.encoder import encode_basestring_ascii

from .sampling import random_gauge_pairs
from .solver import KVSolution, canonical_solution, gauge_family, standard_gauge_pairs
from .tangential import TangentialDerivation
from .lie import bch_multi
from .verify import (
    VerificationReport,
    check_full_trace_equation,
    homo_kernel,
    simplicial_combination,
    verify_cocycle_equation,
    verify_kv1,
    verify_prop_U,
    verify_prop_last,
    verify_series_identities,
    verify_theorem,
)
from .words import _SparseSeries

SUITES = ("theorem", "propU", "propLast", "cocycle", "homo", "series", "all")
DEFAULT_TWO_LETTER_ORDER = 8
DEFAULT_THREE_LETTER_ORDER = 6
# a CH series has up to sum_{k <= order} arity^k words; order 14 in two letters
# (32767 words) peaks near 80 MB, and memory grows faster than the count
BCH_WORD_CEILING = 100_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvquad",
        description="Rational Kashiwara-Vergne solutions and exact identity verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bch = sub.add_parser("bch", help="truncated Campbell-Hausdorff series")
    p_bch.add_argument("--arity", type=int, default=2)
    p_bch.add_argument("--order", type=int, required=True)
    p_bch.add_argument("--out", help="write JSON here instead of stdout")

    p_solve = sub.add_parser("solve-kv", help="construct a rational solution pair")
    p_solve.add_argument("--order", type=int, required=True)
    p_solve.add_argument("--gauge", type=int, default=0, metavar="K",
                         help="also emit K gauge-shifted solutions from the built-in catalog")
    p_solve.add_argument("--out", help="write JSON here instead of stdout")

    p_verify = sub.add_parser("verify", help="run identity suites")
    p_verify.add_argument("--order", type=int, default=None,
                          help="truncation order for every suite "
                               f"(default {DEFAULT_TWO_LETTER_ORDER} for two-letter, "
                               f"{DEFAULT_THREE_LETTER_ORDER} for three-letter checks)")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--json", action="store_true", dest="json_lines",
                          help="emit one JSON line per check and degree")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for the randomized gauge shifts in the theorem suite")
    p_verify.add_argument("--solution", help="verify a stored solution JSON instead "
                                             "of the canonical one")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process; ``parse_args`` reads it and never
    mutates it, so threads may share it."""
    return build_parser()


def _append_json(value, pad: str, pieces: list):
    """Append the text of ``json.dumps(value, indent=2)`` at indent ``pad`` to ``pieces``.

    With an indent, ``json.dumps`` runs its pure-Python generator encoder.  This
    writer gives the same text: strings, keys among them, go through the C escaper
    that encoder calls, and the caller joins the pieces once.  A series leaf stands
    for its ``to_json_dict()`` and writes its own text from its integer pair.
    """
    if isinstance(value, _SparseSeries):
        pieces.append(value._json_text(pad))
    elif isinstance(value, str):
        pieces.append(encode_basestring_ascii(value))
    elif isinstance(value, dict) and value:
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            pieces += (sep, encode_basestring_ascii(key), ": ")
            _append_json(item, inner, pieces)
            sep = ",\n" + inner
        pieces.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            pieces.append(sep)
            _append_json(item, inner, pieces)
            sep = ",\n" + inner
        pieces.append("\n" + pad + "]")
    else:  # numbers, bools, None and empty containers
        pieces.append(json.dumps(value))


def _indented_json(payload) -> str:
    """``json.dumps(payload, indent=2)`` for payloads with string keys, joined once; a series
    leaf is written as its ``to_json_dict()``."""
    pieces: list[str] = []
    _append_json(payload, "", pieces)
    return "".join(pieces)


def _emit(payload, out: str | None):
    text = _indented_json(payload)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _check_word_count(command: str, arity: int, order: int):
    """Refuse, before anything is built, a request for series over ``arity`` letters through
    ``order`` that may have more than ``BCH_WORD_CEILING`` words, as a CH series may;
    one letter counts as two, since its build's integers grow like (order!)^order."""
    words = 0
    for k in range(order + 1):  # stops at the ceiling, however large the order
        words += max(arity, 2) ** k
        if words > BCH_WORD_CEILING:
            raise ValueError(
                f"{command} needs series over {arity} letters through order {order}, "
                f"more than the ceiling of {BCH_WORD_CEILING} words "
                f"(the sum of max(arity, 2)^k for k <= order)")


def _cmd_bch(args) -> int:
    if args.arity < 1 or args.arity > 26:
        raise ValueError("arity must be between 1 and 26")
    if args.order < 1:
        raise ValueError("order must be >= 1")
    _check_word_count("bch", args.arity, args.order)
    _emit(bch_multi(args.arity, args.order), args.out)
    return 0


def _cmd_solve(args) -> int:
    if args.order < 1:
        raise ValueError("order must be >= 1")
    if args.gauge < 0:
        raise ValueError("gauge count must be >= 0")
    _check_word_count("solve-kv", 2, args.order + 1)
    solution = canonical_solution(args.order)
    if args.gauge:
        pairs = standard_gauge_pairs(args.gauge, args.order)
        family = gauge_family(solution, pairs)
        _emit({"family": [member._json_form() for member in family]}, args.out)
    else:
        _emit(solution._json_form(), args.out)
    return 0


def _report_lines(report: VerificationReport, json_lines: bool) -> list[str]:
    if json_lines:
        return [json.dumps(line) for line in report.to_json_lines()]
    return [report.summary()]


def _cmd_verify(args) -> int:
    if args.order is not None and args.order < 1:
        raise ValueError("order must be >= 1")
    suites = SUITES[:-1] if args.suite == "all" else (args.suite,)
    order2 = args.order if args.order is not None else DEFAULT_TWO_LETTER_ORDER
    order3 = args.order if args.order is not None else DEFAULT_THREE_LETTER_ORDER

    loaded = None
    if args.solution:
        with open(args.solution, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError(f"{args.solution}: JSON nested too deeply") from None
        loaded = KVSolution.from_json_dict(data)
        if loaded.order < 1:
            raise ValueError(f"{args.solution}: solution order {loaded.order} is below 1")
        order2 = min(order2, loaded.order)
        order3 = min(order3, loaded.order)

    _check_word_count("verify", 2, max(order2, order3) + 1)  # also bounds homo's classes
    if any(s in ("propU", "propLast", "cocycle") for s in suites):
        _check_word_count("verify", 3, order3)
    reports: list[VerificationReport] = []
    solution2 = solution3 = None
    residual_ok = True
    if any(s != "homo" for s in suites):
        base = loaded if loaded is not None else canonical_solution(max(order2, order3))
        truncations = {order: base if order == base.order else
                       KVSolution(base.A.truncated(order), base.B.truncated(order), base.method)
                       for order in {order2, order3}}
        solution2, solution3 = truncations[order2], truncations[order3]
        residual_report = verify_kv1(solution2 if order2 >= order3 else solution3)
        reports.append(residual_report)
        residual_ok = residual_report.passed
    # propLast reads the full-order U; built first, it is the one propU reads from the memo
    U = simplicial_combination(solution3) if residual_ok and "propLast" in suites else None

    for suite in suites:
        if suite == "homo":
            for degree in range(2, order2 + 1):
                _, report = homo_kernel(degree)
                reports.append(report)
            continue
        if not residual_ok:
            continue  # hypothesis-gated suites cannot run; the kv1 report gates the exit code
        if suite == "theorem":
            reports.append(verify_theorem(solution2))
            if loaded is None:
                pairs = random_gauge_pairs(random.Random(args.seed), order2, 2)
                for member in gauge_family(solution2, pairs)[1:]:
                    reports.append(verify_theorem(member))
            reports.append(check_full_trace_equation(solution2))
        elif suite == "series":
            reports.append(verify_series_identities(solution2))
        elif suite == "propU":
            reports.append(verify_prop_U(solution3))
        elif suite == "propLast":
            instances = [U, TangentialDerivation.zero(3, order3)]
            reports.append(verify_prop_last(instances))
        elif suite == "cocycle":
            reports.append(verify_cocycle_equation(solution3))

    if not reports:
        raise ValueError(f"suite {args.suite!r} has no check at order {order2}")
    for report in reports:
        for line in _report_lines(report, args.json_lines):
            print(line)
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "bch":
            return _cmd_bch(args)
        if args.command == "solve-kv":
            return _cmd_solve(args)
        return _cmd_verify(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
