"""The benchmark's workloads: inputs, timed jobs, verdict oracles, CLI parity.

Each workload has a fixed job list made in ``setup`` from the seed.  ``run``
is one timed job and calls the same public functions as the matching CLI
subcommand, always through the module attribute, so a tracer that replaces
the attribute sees the call.  ``check`` is the oracle: it runs outside the
timed region and shares no code with the timed path.  ``parity`` runs the
equivalent ``arithproj.cli.main`` command once and compares its verdict with
the library job's.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
from fractions import Fraction

patterns = importlib.import_module("arithproj.patterns")
instances = importlib.import_module("arithproj.instances")
proofs = importlib.import_module("arithproj.proofs")
chains = importlib.import_module("arithproj.chains")
search = importlib.import_module("arithproj.search")
sampling = importlib.import_module("arithproj.sampling")
cli = importlib.import_module("arithproj.cli")

NAIVE_CAP = 10**6  # the CLI's default lemma cap

# The two classical one-digit patterns, written out here rather than taken
# from arithproj.patterns so the oracle does not trust the code it checks.
EXAMPLE_ONE_PAIRS = tuple((x, y) for x in (0, 1, 3) for y in (0, 1, 3) if x != y)
EXAMPLE_TWO_PAIRS = ((0, 2), (0, 3), (2, 1), (2, 2), (2, 3), (3, 1), (4, 0), (4, 1))

# One-digit counts.  Carry-free tensors are multiplicative, so the n-digit
# instance must have each count raised to the n-th power.
DIGIT_COUNTS = {
    "example-one": {"relation": 6, "wedges": 12, "quads": 36},
    "example-two": {"relation": 8, "wedges": 18, "quads": 97, "collisions": 30},
}

K3_WITNESS = ((0, 1), (0, 3), (1, 0), (1, 3), (3, 0), (3, 1))
K4_CONSTRAINED_WITNESSES = (
    ((0, 1), (0, 2), (0, 3), (2, 0), (2, 1), (2, 2), (3, 0), (4, 0)),
    ((0, 2), (0, 3), (1, 2), (2, 0), (2, 1), (2, 2), (4, 0), (4, 1)),
    ((0, 2), (0, 3), (2, 0), (2, 1), (2, 2), (2, 3), (4, 0), (4, 1)),
)
K5_WITNESSES = (
    ((0, 1), (0, 2), (0, 5), (1, 0), (1, 1), (1, 5), (4, 1), (4, 2), (5, 0), (5, 1)),
    ((0, 1), (0, 4), (0, 5), (1, 0), (1, 4), (3, 1), (3, 5), (4, 0), (4, 1), (4, 4)),
    ((0, 1), (0, 4), (1, 0), (1, 3), (1, 4), (4, 0), (4, 1), (4, 4), (5, 0), (5, 3)),
    ((0, 1), (0, 5), (1, 0), (1, 1), (1, 4), (1, 5), (2, 0), (2, 4), (5, 0), (5, 1)),
    ((0, 2), (0, 4), (0, 5), (2, 0), (2, 2), (2, 5), (3, 2), (3, 4), (5, 0), (5, 2)),
    ((0, 2), (0, 5), (2, 0), (2, 2), (2, 3), (2, 5), (4, 0), (4, 3), (5, 0), (5, 2)),
    ((0, 3), (0, 4), (2, 1), (2, 3), (2, 4), (3, 0), (3, 1), (3, 3), (5, 0), (5, 1)),
    ((0, 3), (0, 5), (1, 2), (1, 3), (1, 5), (3, 0), (3, 2), (3, 3), (4, 0), (4, 2)),
)

# Search jobs with their expected outcomes.  K=3 and K=4 values are the
# frozen fixtures of tests/frozen.py; the K=5 and non-injective K=3 values
# were recorded from the library's own complete runs.  ``score`` is the
# exact (count, max slice) pair behind the exponent ln(count)/ln(slice).
SEARCH_JOBS = (
    {
        "name": "K3-injective-exhaustive",
        "spec": {"alphabet_max": 3, "mode": "exhaustive"},
        "nodes": 4953,
        "score": (6, 3),
        "witnesses": (K3_WITNESS,),
    },
    {
        "name": "K4-constrained-exhaustive",
        "spec": {"alphabet_max": 4, "constrain_d": True, "mode": "exhaustive"},
        "nodes": 148473,
        "score": (8, 4),
        "witnesses": K4_CONSTRAINED_WITNESSES,
    },
    {
        "name": "K4-constrained-branch-bound",
        "spec": {"alphabet_max": 4, "constrain_d": True, "mode": "branch-bound"},
        "nodes": 14667,
        "score": (8, 4),
        "witnesses": K4_CONSTRAINED_WITNESSES,
    },
    {
        "name": "K5-injective-branch-bound",
        "spec": {"alphabet_max": 5, "mode": "branch-bound"},
        "nodes": 99770,
        "score": (10, 4),
        "witnesses": K5_WITNESSES,
    },
    {
        "name": "K3-noninjective-branch-bound",
        "spec": {
            "alphabet_max": 3,
            "mode": "branch-bound",
            "require_difference_injective": False,
        },
        "nodes": 23901,
        "score": (6, 3),
        "witnesses": (K3_WITNESS,),
    },
)
TINY_SEARCH_JOBS = ("K3-injective-exhaustive", "K4-constrained-branch-bound")


def run_cli(argv: list[str]) -> tuple[int, dict | None]:
    """Run ``arithproj.cli.main`` in this process; return its exit code and JSON."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    text = captured.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def _mismatch(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


def _chain_verdicts(reports: dict) -> dict:
    return {key: (r.all_hold, dict(r.cardinalities)) for key, r in reports.items()}


def _cli_verdicts(payload: dict, keys) -> dict:
    return {
        key: (payload[key]["all_hold"], payload[key]["cardinalities"]) for key in keys
    }


def _digit_brute_force(pairs) -> dict:
    """Relation, wedge, linked-quad and skew-collision counts of one digit.

    Walks wedge tuples directly and tests each label equality, the way the
    definitions read; nothing here aggregates fibers.
    """
    wedges = [(a, b, b2) for a, b in pairs for a2, b2 in pairs if a2 == a]
    quads = 0
    for a0, b0, c0 in wedges:
        for a1, b1, c1 in wedges:
            if (a0 + b0, a0 + c0) != (a1 + b1, a1 + c1):
                continue
            for a2, b2, c2 in wedges:
                if (b1, c1) != (b2, c2):
                    continue
                for a3, b3, c3 in wedges:
                    if (a2 + b2, c2) == (a3 + b3, c3):
                        quads += 1
    collisions = sum(
        1
        for a0, b0, c0 in wedges
        for a1, b1, c1 in wedges
        if (a0 + 2 * b0, c0) == (a1 + 2 * b1, c1)
    )
    return {
        "relation": len({a - b for a, b in pairs}),
        "wedges": len(wedges),
        "quads": quads,
        "collisions": collisions,
    }


class LadderTensor:
    """Both classical constructions at the largest size the wedge cap allows."""

    name = "ladder-tensor"

    def __init__(self) -> None:
        self._digit_problems: list[str] | None = None

    def setup(self, seed: int, tiny: bool) -> list:
        return [("example-one", 2 if tiny else 5), ("example-two", 2 if tiny else 4)]

    def run(self, job):
        kind, n = job
        if kind == "example-one":
            inst = patterns.build_example_one(n)
            return _chain_verdicts({"chain-6": proofs.verify_three_slice_chain(inst, 3**n)})
        inst = patterns.build_example_two(n)
        budget = 4**n
        return _chain_verdicts(
            {
                "chain-6": proofs.verify_three_slice_chain(inst, budget),
                "chain-4": proofs.verify_four_slice_chain(inst, budget),
            }
        )

    def _check_digit_counts(self) -> list[str]:
        if self._digit_problems is None:
            self._digit_problems = []
            for kind, pairs in (
                ("example-one", EXAMPLE_ONE_PAIRS),
                ("example-two", EXAMPLE_TWO_PAIRS),
            ):
                counts = _digit_brute_force(pairs)
                for key, want in DIGIT_COUNTS[kind].items():
                    self._digit_problems += _mismatch(
                        f"{kind} one-digit {key}", counts[key], want
                    )
        return self._digit_problems

    def expected(self, job) -> dict:
        kind, n = job
        digit = {key: value**n for key, value in DIGIT_COUNTS[kind].items()}
        six = (True, {k: digit[k] for k in ("relation", "wedges", "quads")})
        if kind == "example-one":
            return {"chain-6": six}
        four = (True, {k: digit[k] for k in ("relation", "wedges", "collisions")})
        return {"chain-6": six, "chain-4": four}

    def check(self, job, result) -> list[str]:
        return self._check_digit_counts() + _mismatch(
            f"{job[0]} n={job[1]}", result, self.expected(job)
        )

    def parity(self, jobs, results, workdir: str) -> list[str]:
        index = 1  # example two: both ladders through the CLI
        kind, n = jobs[index]
        path = os.path.join(workdir, "example-two.json")
        code, _ = run_cli(["construct", "example2", "--n", str(n), "--out", path])
        problems = _mismatch("cli construct exit code", code, 0)
        code, payload = run_cli(["verify", path, "--N", str(4**n), "--chain", "both"])
        problems += _mismatch("cli verify exit code", code, 0)
        if payload is not None:
            problems += _mismatch(
                "cli verify verdict",
                _cli_verdicts(payload, ("chain-6", "chain-4")),
                results[index],
            )
        return problems

    def alloc_probe(self, jobs, results):
        kind, n = jobs[0]
        inst = patterns.build_example_one(n)
        return lambda: proofs.verify_three_slice_chain(inst, 3**n)


class LadderRandom:
    """Small seeded random instances through both ladders at automatic budgets."""

    name = "ladder-random"

    def setup(self, seed: int, tiny: bool) -> list:
        rng = random.Random(seed)
        return [sampling.random_instance(rng, max_side=12) for _ in range(50 if tiny else 2000)]

    def run(self, inst):
        budget6 = max(
            len(inst.a_set),
            len(inst.b_set),
            len(instances.project(inst, instances.SUM)),
        )
        budget4 = max(budget6, len(instances.project(inst, instances.SKEW_SUM)))
        return {
            "budgets": (budget6, budget4),
            **_chain_verdicts(
                {
                    "chain-6": proofs.verify_three_slice_chain(inst, budget6),
                    "chain-4": proofs.verify_four_slice_chain(inst, budget4),
                }
            ),
        }

    def check(self, inst, result) -> list[str]:
        m = inst.group.modulus
        differences = len({(a - b) % m if m else a - b for a, b in inst.pairs})
        problems = []
        for key in ("chain-6", "chain-4"):
            all_hold, cards = result[key]
            problems += _mismatch(f"{key} all_hold", all_hold, True)
            problems += _mismatch(f"{key} relation", cards["relation"], differences)
        return problems

    def _largest(self, results) -> int:
        return max(
            range(len(results)),
            key=lambda i: (results[i]["chain-6"][1]["wedges"], -i),
        )

    def parity(self, jobs, results, workdir: str) -> list[str]:
        index = self._largest(results)
        inst, result = jobs[index], results[index]
        path = os.path.join(workdir, "instance.json")
        instances.save_instance(inst, path)
        problems = []
        for key, chain, budget in (
            ("chain-6", "6", result["budgets"][0]),
            ("chain-4", "4", result["budgets"][1]),
        ):
            code, payload = run_cli(["verify", path, "--N", str(budget), "--chain", chain])
            problems += _mismatch(f"cli verify --chain {chain} exit code", code, 0)
            if payload is not None:
                problems += _mismatch(
                    f"cli verify --chain {chain} verdict",
                    _cli_verdicts(payload, (key,))[key],
                    result[key],
                )
        return problems

    def alloc_probe(self, jobs, results):
        index = self._largest(results)
        inst, budget = jobs[index], results[index]["budgets"][0]
        return lambda: proofs.verify_three_slice_chain(inst, budget)


def _score(pairs, constrain_d: bool, by_differences: bool) -> tuple[int, int]:
    slices = [{x for x, _ in pairs}, {y for _, y in pairs}, {x + y for x, y in pairs}]
    if constrain_d:
        slices.append({x + 2 * y for x, y in pairs})
    count = len({x - y for x, y in pairs}) if by_differences else len(set(pairs))
    return count, max(len(s) for s in slices)


class Search:
    """Fixed extremal-pattern searches, each followed by certify."""

    name = "search"

    def setup(self, seed: int, tiny: bool) -> list:
        return [job for job in SEARCH_JOBS if not tiny or job["name"] in TINY_SEARCH_JOBS]

    def run(self, job):
        spec = search.SearchSpec(**job["spec"])
        result = search.search(spec)
        report = search.certify(result, spec)
        return {
            "best_exponent": result.best_exponent,
            "witnesses": tuple(w.pairs for w in result.witnesses),
            "exhaustive": result.exhaustive,
            "nodes": result.nodes_explored,
            "certified": report.ok,
        }

    def check(self, job, result) -> list[str]:
        spec = job["spec"]
        count, slice_size = job["score"]
        exponent = math.log(count) / math.log(slice_size)
        problems = _mismatch(f"{job['name']} nodes", result["nodes"], job["nodes"])
        problems += _mismatch(f"{job['name']} exhaustive", result["exhaustive"], True)
        problems += _mismatch(f"{job['name']} certified", result["certified"], True)
        problems += _mismatch(
            f"{job['name']} witnesses", set(result["witnesses"]), set(job["witnesses"])
        )
        for pairs in job["witnesses"]:
            problems += _mismatch(
                f"{job['name']} witness score",
                _score(
                    pairs,
                    spec.get("constrain_d", False),
                    not spec.get("require_difference_injective", True),
                ),
                job["score"],
            )
        if not math.isclose(result["best_exponent"], exponent, rel_tol=1e-12):
            problems.append(
                f"{job['name']} exponent: got {result['best_exponent']!r}, "
                f"expected ln {count} / ln {slice_size} = {exponent!r}"
            )
        return problems

    def parity(self, jobs, results, workdir: str) -> list[str]:
        job, result = jobs[0], results[0]
        argv = ["search", "--K", str(job["spec"]["alphabet_max"]), "--mode", job["spec"]["mode"]]
        code, payload = run_cli(argv)
        problems = _mismatch("cli search exit code", code, 0)
        if payload is not None:
            got = {
                "best_exponent": payload["best_exponent"],
                "witnesses": tuple(
                    tuple(tuple(p) for p in w["pairs"]) for w in payload["witnesses"]
                ),
                "exhaustive": payload["exhaustive"],
                "nodes": payload["nodes"],
                "certified": payload["certified"],
            }
            problems += _mismatch("cli search verdict", got, result)
        return problems

    def alloc_probe(self, jobs, results):
        return None


class Lemma:
    """One seeded random chain problem for every shape the generator makes."""

    name = "lemma"

    def setup(self, seed: int, tiny: bool) -> list:
        """Draw problems until each wanted (item count, step count) has appeared.

        ``random_chain_problem`` picks 1..50 items and 1..4 steps uniformly.
        Keeping the first draw of every shape with an odd item count makes
        the naive work of a cycle the same for every seed while the labels
        stay seeded, and keeps a cycle short enough to repeat within a run.
        """
        max_items = 7 if tiny else 49
        wanted = {(n, k) for n in range(1, max_items + 1, 2) for k in range(1, 5)}
        rng = random.Random(seed)
        found = {}
        while len(found) < len(wanted):
            problem = sampling.random_chain_problem(rng)
            shape = (len(problem.items), problem.steps)
            if shape in wanted:
                found.setdefault(shape, problem)
        return [found[shape] for shape in sorted(found)]

    def run(self, problem):
        count = chains.chain_count_dp(problem)
        bound = chains.chain_lower_bound(problem)
        tuples = len(problem.items) ** (problem.steps + 1)
        naive = chains.chain_count_naive(problem, cap=NAIVE_CAP) if tuples <= NAIVE_CAP else None
        return {"count": count, "bound": bound, "naive": naive}

    def check(self, problem, result) -> list[str]:
        tuples = len(problem.items) ** (problem.steps + 1)
        labels = math.prod(lab.label_count for lab in problem.labelings)
        shape = f"{len(problem.items)} items, {problem.steps} steps"
        problems = _mismatch(f"{shape}: bound", result["bound"], Fraction(tuples, labels))
        if result["count"] * labels < tuples:
            problems.append(f"{shape}: count {result['count']} below (#X)^(k+1)/prod #A_i")
        if tuples <= NAIVE_CAP:
            problems += _mismatch(f"{shape}: DP vs naive", result["count"], result["naive"])
        return problems

    def _parity_index(self, jobs) -> int:
        """The checked problem with the most tuples up to 2e5, so the CLI run is short."""
        sizes = [len(p.items) ** (p.steps + 1) for p in jobs]
        return max(
            (i for i, t in enumerate(sizes) if t <= 2 * 10**5), key=lambda i: sizes[i]
        )

    def parity(self, jobs, results, workdir: str) -> list[str]:
        index = self._parity_index(jobs)
        problem, result = jobs[index], results[index]
        path = os.path.join(workdir, "problem.json")
        doc = {
            "items": list(problem.items),
            "labelings": [
                {
                    "labels": [lab.assignment[x] for x in problem.items],
                    "label_count": lab.label_count,
                }
                for lab in problem.labelings
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, payload = run_cli(["lemma", path])
        problems = _mismatch("cli lemma exit code", code, 0)
        if payload is not None:
            bound = result["bound"]
            problems += _mismatch(
                "cli lemma verdict",
                (payload["count"], payload["naive"], payload["bound"], payload["bound_holds"]),
                (
                    result["count"],
                    result["naive"],
                    {"num": bound.numerator, "den": bound.denominator},
                    True,
                ),
            )
        return problems

    def alloc_probe(self, jobs, results):
        return None


WORKLOADS = {w.name: w for w in (LadderTensor, LadderRandom, Search, Lemma)}


def register_sites(tracer) -> None:
    """Span every layer boundary the per-layer metrics name."""
    seen: set = set()

    def add(key):
        def count(tr, result, args, _key=key):
            tr.counters[_key] += len(result)

        return count

    def distinct(tr, result, args):
        key = (tr.job, result.pairs)
        if key not in seen:
            seen.add(key)
            tr.counters["search.canonicalize.distinct"] += 1

    def ladder(tr, result, args):
        for key in ("quads", "collisions"):
            tr.counters[f"proofs.{key}"] += result.cardinalities.get(key, 0)

    def items(tr, result, args):
        tr.counters["chains.chain_count_dp.items"] += len(args[0].items)

    def tuples(tr, result, args):
        problem = args[0]
        tr.counters["chains.chain_count_naive.tuples"] += len(problem.items) ** (problem.steps + 1)

    def nodes(tr, result, args):
        tr.counters["search.nodes"] += result.nodes_explored

    def witnesses(tr, result, args):
        tr.counters["search.witnesses"] += len(args[0].witnesses)

    def pairs(tr, result, args):
        tr.counters["patterns.tensor_pattern.pairs"] += len(result.pairs)

    sites = (
        (patterns, "build_example_one", "patterns.build_example_one", None),
        (patterns, "build_example_two", "patterns.build_example_two", None),
        (patterns, "tensor_pattern", "patterns.tensor_pattern", pairs),
        (search, "tensor_pattern", "patterns.tensor_pattern", pairs),
        (instances, "project", "instances.project", None),
        (proofs, "project", "instances.project", None),
        (proofs, "reduce_to_difference_injective", "instances.reduce_to_difference_injective", None),
        (proofs, "require_hypotheses", "instances.require_hypotheses", None),
        (proofs, "verify_three_slice_chain", "proofs.verify_three_slice_chain", ladder),
        (proofs, "verify_four_slice_chain", "proofs.verify_four_slice_chain", ladder),
        (proofs, "linked_quad_problem", "proofs.linked_quad_problem", None),
        (proofs, "skew_collision_problem", "proofs.skew_collision_problem", None),
        (proofs, "enumerate_wedges", "proofs.enumerate_wedges", add("proofs.wedges")),
        (proofs, "chain_count_dp", "chains.chain_count_dp", items),
        (chains, "chain_count_dp", "chains.chain_count_dp", items),
        (chains, "chain_count_naive", "chains.chain_count_naive", tuples),
        (chains, "chain_lower_bound", "chains.chain_lower_bound", None),
        (search, "search", "search.search", nodes),
        (search, "canonicalize", "search.canonicalize", distinct),
        (search, "compare_scores", "search.compare_scores", None),
        (search, "certify", "search.certify", witnesses),
        (sampling, "random_instance", "sampling.random_instance", None),
        (sampling, "random_chain_problem", "sampling.random_chain_problem", None),
    )
    for module, attr, name, count in sites:
        tracer.site(module, attr, name, count)
