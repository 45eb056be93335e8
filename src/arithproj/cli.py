"""Command line interface.

Subcommands:

* construct   build a digit-pattern instance and write it as JSON
* verify      check the projection inequality chains on an instance file
* lemma       count chains and compare against the lower bound
* search      look for extremal digit patterns
* dimensions  tabulate dimension lower bounds

Exit codes: 0 success, 1 failed check or unexpected error, 2 malformed
input, 3 hypothesis violation, 4 enumeration cap hit or search not
exhaustive.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from fractions import Fraction

from .chains import (
    ChainProblem,
    Labeling,
    chain_count_dp,
    chain_count_naive,
    chain_lower_bound,
)
from .errors import (
    ArithprojError,
    EnumerationCapExceeded,
    HypothesisViolated,
    InstanceTooLarge,
    InvalidBase,
    InvalidDimension,
    MalformedInstance,
    OutOfRange,
)
from .instances import check_hypotheses, load_instance, save_instance
from .kakeya import dimension_report
from .patterns import EXAMPLE_ONE_PATTERN, EXAMPLE_TWO_PATTERN, DigitPattern, tensor_pattern
from .proofs import DEFAULT_WEDGE_CAP, verify_four_slice_chain, verify_three_slice_chain
from .sampling import random_chain_problem
from .search import SearchSpec, certify, search

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_MALFORMED = 2
EXIT_HYPOTHESIS = 3
EXIT_CAPPED = 4

# (--chain value, payload key, ladder)
_LADDERS = (
    ("6", "chain-6", verify_three_slice_chain),
    ("4", "chain-4", verify_four_slice_chain),
)


def _fraction_text(encoded: dict) -> str:
    return f"{encoded['num']}/{encoded['den']}"


def _emit(fmt: str, payload: dict, rows: list[dict] | None = None) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    if fmt == "csv":
        data = rows
        if data is None:
            data = [
                {"key": key, "value": json.dumps(value, sort_keys=True)}
                for key, value in sorted(payload.items())
            ]
        writer = csv.writer(sys.stdout)
        if data:
            writer.writerow(list(data[0].keys()))
            for row in data:
                writer.writerow([row[k] for k in data[0].keys()])
        return
    _emit_text(payload)


def _emit_text(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 1)
        elif isinstance(value, list):
            print(f"{pad}{key}: {json.dumps(value, sort_keys=True)}")
        else:
            print(f"{pad}{key}: {value}")


def _int_option(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedInstance(f"{name} must be an integer, got {text!r}") from None


def _cap(text: str) -> int:
    """argparse type of both --cap options: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise MalformedInstance(f"--n must be >= 1, got {args.n}")
    if args.base == "auto":
        base = None
    else:
        base = _int_option("--base", args.base)
    pattern_pairs = None
    if args.which == "example1":
        pattern = EXAMPLE_ONE_PATTERN
    elif args.which == "example2":
        pattern = EXAMPLE_TWO_PATTERN
    else:
        if args.pattern_file is None:
            raise MalformedInstance("pattern-file construction needs --pattern-file")
        with open(args.pattern_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            pattern = DigitPattern.from_json_dict(doc)
        except (TypeError, ValueError) as exc:
            raise MalformedInstance(f"bad pattern file: {exc}") from exc
        pattern_pairs = len(pattern.pairs)
    inst = tensor_pattern(pattern, args.n, base=base)
    if args.out is None:
        print(json.dumps(inst.to_json_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    save_instance(inst, args.out)
    sizes = check_hypotheses(inst, 1, with_d=True).sizes
    summary = {"out": args.out, "G": len(inst.pairs), **sizes}
    if pattern_pairs is not None:
        summary["pattern_pairs"] = pattern_pairs
    _emit(args.output, summary)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    ladders = [ladder for ladder in _LADDERS if args.chain in (ladder[0], "both")]
    if args.N == "auto":
        with_d = args.chain in ("4", "both")
        budget = max(check_hypotheses(inst, 1, with_d=with_d).sizes.values())
    else:
        budget = _int_option("--N", args.N)
        if budget < 1:
            raise MalformedInstance(f"budget must be >= 1, got {budget}")
    payload: dict = {"budget": budget}
    rows: list[dict] = []
    all_hold = True
    for _, key, verify in ladders:
        report = verify(inst, budget, cap=args.cap)
        payload[key] = report.to_json_dict()
        all_hold = all_hold and report.all_hold
        for ineq in report.inequalities:
            enc = ineq.to_json_dict()
            rows.append(
                {
                    "chain": key,
                    "inequality": ineq.name,
                    "lhs": _fraction_text(enc["lhs"]),
                    "rhs": _fraction_text(enc["rhs"]),
                    "holds": ineq.holds,
                }
            )
    payload["all_hold"] = all_hold
    _emit(args.output, payload, rows)
    return EXIT_OK if all_hold else EXIT_FAILURE


def _lemma_counts(problem: ChainProblem, cap: int) -> tuple[int, Fraction, int | str]:
    """DP chain count, its lower bound, and the naive recount or "skipped".

    The naive recount runs only when #items**(steps+1) tuples fit in cap.
    """
    count = chain_count_dp(problem)
    bound = chain_lower_bound(problem)
    tuples = len(problem.items) ** (problem.steps + 1)
    naive = chain_count_naive(problem, cap=cap) if tuples <= cap else "skipped"
    return count, bound, naive


def _lemma_case(seed: int, cap: int, index: int) -> dict:
    rng = random.Random(seed * 1_000_003 + index)
    problem = random_chain_problem(rng)
    count, bound, naive = _lemma_counts(problem, cap)
    return {
        "index": index,
        "items": len(problem.items),
        "steps": problem.steps,
        "count": count,
        "bound_num": bound.numerator,
        "bound_den": bound.denominator,
        "naive": naive,
        "ok": count >= bound and naive in ("skipped", count),
    }


def _load_chain_problem(path: str) -> ChainProblem:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        items = [tuple(x) if isinstance(x, list) else x for x in doc["items"]]
        labelings = []
        for entry in doc["labelings"]:
            labels = entry["labels"]
            if len(labels) != len(items):
                raise MalformedInstance(
                    "each labeling needs exactly one label per item"
                )
            assignment = {
                item: tuple(lab) if isinstance(lab, list) else lab
                for item, lab in zip(items, labels)
            }
            count = entry.get("label_count", len(set(assignment.values())))
            labelings.append(Labeling(assignment=assignment, label_count=count))
        return ChainProblem(items=tuple(items), labelings=tuple(labelings))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInstance(f"bad chain problem file: {exc}") from exc


def _cmd_lemma(args: argparse.Namespace) -> int:
    if (args.problem_file is None) == (args.random is None):
        raise MalformedInstance("pass exactly one of FILE or --random COUNT")
    if args.random is not None and args.random < 1:
        raise MalformedInstance(f"--random must be >= 1, got {args.random}")
    if args.problem_file is not None:
        problem = _load_chain_problem(args.problem_file)
        count, bound, naive = _lemma_counts(problem, args.cap)
        payload = {
            "items": len(problem.items),
            "steps": problem.steps,
            "count": count,
            "bound": {"num": bound.numerator, "den": bound.denominator},
            "naive": naive,
            "bound_holds": count >= bound,
        }
        _emit(args.output, payload)
        return EXIT_OK if payload["bound_holds"] else EXIT_FAILURE
    cases = [_lemma_case(args.seed, args.cap, i) for i in range(args.random)]
    all_ok = all(case["ok"] for case in cases)
    payload = {"count": len(cases), "all_ok": all_ok, "cases": cases}
    _emit(args.output, payload, cases)
    return EXIT_OK if all_ok else EXIT_FAILURE


def _cmd_search(args: argparse.Namespace) -> int:
    try:
        spec = SearchSpec(
            alphabet_max=args.K,
            constrain_d=args.constrain_d,
            mode=args.mode,
            node_budget=args.budget,
        )
    except ValueError as exc:
        raise MalformedInstance(str(exc)) from exc
    result = search(spec)
    report = certify(result, spec)
    payload = result.to_json_dict()
    payload["certified"] = report.ok
    payload["diagnostics"] = list(report.diagnostics)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _emit(args.output, payload)
    if not result.exhaustive:
        return EXIT_CAPPED
    return EXIT_OK if report.ok else EXIT_FAILURE


def _cmd_dimensions(args: argparse.Namespace) -> int:
    if args.n_max < args.n_min:
        raise MalformedInstance("--n-max must be >= --n-min")
    rows = []
    reports = []
    for n in range(args.n_min, args.n_max + 1):
        doc = dimension_report(n).to_json_dict()
        reports.append(doc)
        rows.append(
            {
                "dimension": doc["dimension"],
                "minkowski": _fraction_text(doc["minkowski"]),
                "hausdorff": _fraction_text(doc["hausdorff"]),
                "wolff": _fraction_text(doc["wolff"]),
                "best_minkowski": doc["best_minkowski"],
                "best_hausdorff": doc["best_hausdorff"],
            }
        )
    _emit(args.output, {"reports": reports}, rows)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", choices=("json", "csv", "text"), default="json",
        help="stdout format (default json)",
    )

    parser = argparse.ArgumentParser(
        prog="arithproj",
        description="Slice-bounded relation tools: constructions, chain "
        "counting, projection inequalities, pattern search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common], help="build an instance")
    p.add_argument("which", choices=("example1", "example2", "pattern-file"))
    p.add_argument("--n", type=int, required=True, help="digits per element")
    p.add_argument("--base", default="auto", help="radix, or 'auto'")
    p.add_argument("--pattern-file", default=None, help="pattern JSON path")
    p.add_argument("--out", default=None, help="instance JSON destination")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", parents=[common], help="check inequality chains")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument(
        "--N", default="auto", help="shared budget, or 'auto' for max slice size"
    )
    p.add_argument("--chain", choices=("6", "4", "both"), default="both")
    p.add_argument(
        "--cap", type=_cap, default=DEFAULT_WEDGE_CAP,
        help="largest wedge count to count through (default 10**6)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lemma", parents=[common], help="chain counts vs lower bound")
    p.add_argument("problem_file", nargs="?", default=None, help="problem JSON path")
    p.add_argument("--random", type=int, default=None, help="random batch size, >= 1")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--cap", type=_cap, default=10**6,
        help="largest tuple count for the naive recount (default 10**6)",
    )
    p.set_defaults(func=_cmd_lemma)

    p = sub.add_parser("search", parents=[common], help="extremal pattern search")
    p.add_argument("--K", type=int, required=True, help="largest digit allowed")
    p.add_argument("--constrain-d", action="store_true", help="bound the skew slice too")
    p.add_argument("--mode", choices=("exhaustive", "branch-bound"), default="exhaustive")
    p.add_argument("--budget", type=int, default=None, help="node budget, >= 1")
    p.add_argument("--out", default=None, help="result JSON destination")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("dimensions", parents=[common], help="dimension bound table")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=12)
    p.set_defaults(func=_cmd_dimensions)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MalformedInstance, InvalidBase, InvalidDimension, OutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except HypothesisViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (EnumerationCapExceeded, InstanceTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    except ArithprojError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
