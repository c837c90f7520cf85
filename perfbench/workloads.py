"""The three workloads: their rounds of ops, output oracles and trace checks.

Every workload is a closed loop with one client: an op is one in-process
call to ``monores.cli.main`` and starts after the previous one returns.  A
round is a fixed list of size-targeted slots (see ``corpus``); the inputs of
a round are written out before its first op is timed, and no op repeats
within a process.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from monores.cli import FuzzRecord, derive_trial_seed, replay_fuzz_record
from monores.errors import GenerationError
from monores.monomials import IdealRandomSpec, MonomialIdeal, random_ideal
from monores.resolution import buchberger_minimality

from corpus import chain_size, clique_size, fill_slots, ideal_text, round_rng

EXIT_OK = 0
EXIT_NOT_MINIMAL = 4


@dataclass
class Op:
    round: int
    slot: str
    argv: list
    size: int
    nvars: int = 0
    gens: tuple = ()
    group: int = -1
    log_path: str | None = None
    cliques: int = 0
    index: int = -1


@dataclass
class OpResult:
    latency: float
    exit_code: int | None
    stdout: str
    error: str | None = None
    scale: float = 1.0
    ok: bool = False
    reason: str = ""
    digest: str = ""
    extra: dict = field(default_factory=dict)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _draw_ideal(nvars, ngens, maxdeg, mode, min_gens=1, max_gens=None):
    def draw(rng):
        spec = IdealRandomSpec(nvars, ngens, maxdeg, mode, rng.getrandbits(63))
        try:
            gens = random_ideal(spec).generators
        except GenerationError:
            return None
        if not min_gens <= len(gens) <= (max_gens or len(gens)):
            return None
        return gens
    return draw


def _fill_family(rng, family, targets):
    nvars, ngens, maxdeg, mode, min_gens, max_gens = family
    draw = _draw_ideal(nvars, ngens, maxdeg, mode, min_gens, max_gens)
    return fill_slots(targets, draw, chain_size, rng)


def count_check(expected, observed) -> dict:
    return {"expected": expected, "observed": observed, "holds": expected == observed}


def _per_op_check(expected, observed) -> dict:
    differing = sum(e != o for e, o in zip(expected, observed))
    return {"expected": sum(expected), "observed": sum(observed),
            "ops_differing": differing, "holds": differing == 0}


class Workload:
    name = ""
    # the traced run covers this many rounds, a fixed set of ops per seed
    TRACE_ROUNDS = 1
    CONJECTURE_TRIALS_PER_OP = 0

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir
        self._groups = 0

    def _write_ideal(self, op_name: str, nvars: int, gens) -> str:
        path = os.path.join(self.tmpdir, op_name + ".ideal")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(ideal_text(nvars, gens))
        return path

    def make_round(self, k: int) -> list[Op]:
        raise NotImplementedError

    def check(self, ops, results) -> None:
        """Set ok, reason and digest on every result."""
        raise NotImplementedError

    def trace_sanity(self, ops, results, layer: dict, per_op) -> dict:
        """Counts the tracer should see at this commit.  They are reported,
        not enforced, since later changes to the program are meant to move
        some of them; ``per_op(name, key)`` sums a span count per op."""
        return {}


def _parse_json(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


class VerifyBattery(Workload):
    """``verify --fields 0,2``: every layer runs, posets and collapse dominate.

    Each op builds the Buchberger complex 5 times and the lcm-lattice 4-5
    times, so sharing artifacts and the crosscut route both show here.
    Half the slots are strongly generic ideals in 4 variables with 5-7
    generators (maxdeg r+4), half come from ``random --vars 4 --gens 12
    --maxdeg 6`` and keep 3-8 generators; sizes are in chains.
    """

    name = "verify-battery"
    TRACE_ROUNDS = 7
    FAMILIES = {
        "sg5": ((4, 5, 9, "strongly-generic", 5, 5), (450, 650)),
        "sg6": ((4, 6, 10, "strongly-generic", 6, 6), (3000, 3000)),
        "sg7": ((4, 7, 11, "strongly-generic", 7, 7), (13000, 13000)),
        "arb": ((4, 12, 6, "arbitrary", 3, 8), (15, 90, 400, 3000, 3000, 13000, 13000)),
    }
    # Sizes come in tiers of equal targets (5 light, 4 middle, 4 heavy), so
    # the median and the tail land inside a tier whatever the op count; heavy
    # and light slots alternate.
    ORDER = (("sg7", 0), ("sg5", 0), ("arb", 3), ("arb", 5), ("arb", 0), ("sg6", 0),
             ("sg7", 1), ("sg5", 1), ("arb", 4), ("arb", 6), ("arb", 1), ("sg6", 1),
             ("arb", 2))

    def make_round(self, k):
        rng = round_rng(self.name, self.seed, k)
        filled = {
            fam: _fill_family(rng, spec, targets)
            for fam, (spec, targets) in self.FAMILIES.items()
        }
        ops = []
        for fam, i in self.ORDER:
            gens, size = filled[fam][i]
            target = self.FAMILIES[fam][1][i]
            op_name = f"r{k}-{fam}-{i}"
            path = self._write_ideal(op_name, 4, gens)
            ops.append(Op(k, f"{fam}@{target}", ["verify", path, "--fields", "0,2",
                                                  "--format", "json"], size, 4, gens))
        return ops

    def check(self, ops, results):
        for op, res in zip(ops, results):
            res.digest = _digest(res.stdout)
            if res.error or res.exit_code != EXIT_OK:
                res.reason = res.error or f"exit {res.exit_code}"
                continue
            out = _parse_json(res.stdout)
            try:
                if out["ideal"]["generators"] != [list(g) for g in op.gens]:
                    res.reason = "output names another ideal"
                elif out["report"]["all_passed"] is not True:
                    res.reason = "a check failed"
                else:
                    res.ok = True
            except (KeyError, TypeError):
                res.reason = "output lacks the ideal or the report"

    def trace_sanity(self, ops, results, layer, per_op):
        return {
            "buchberger_complex_calls_per_verify_op": count_check(
                5 * len(ops), layer["complexes.buchberger_complex.calls"]),
        }


# The three 13-14-generator ideals from the roadmap.  Their interval method
# and verify hit the chain cap after a minute or more, so they run only
# under agreement and faces, once per run, in round 0.
ROADMAP_SPECS = (
    IdealRandomSpec(4, 60, 10, "arbitrary", 1),
    IdealRandomSpec(5, 40, 6, "arbitrary", 5),
    IdealRandomSpec(6, 40, 5, "arbitrary", 2),
)


class BettiMethods(Workload):
    """``betti --method interval|agreement|faces`` in sequence per ideal.

    Each call builds one lattice, so artifact sharing is bypassed; interval
    ops are nearly all order-complex work, and ``faces`` uses complexes
    without posets.  Strongly generic ideals in 4 variables with 8
    generators (maxdeg 12) are mixed three to one with ``random --vars 5
    --gens 14 --maxdeg 5`` ideals, whose non-acyclic cores reach the rank
    code.
    """

    name = "betti-methods"
    TRACE_ROUNDS = 3
    METHODS = ("interval", "agreement", "faces")
    FAMILIES = {
        "sg8": ((4, 8, 12, "strongly-generic", 8, 8), (45000,) * 6),
        "arb": ((5, 14, 5, "arbitrary", 3, 11), (6000, 25000)),
    }
    # Three quarters strongly generic: the median op is then an agreement op
    # on one of them, in the middle of a dense cluster rather than at its
    # edge or in a gap between two families.
    ORDER = (("sg8", 0), ("arb", 1), ("sg8", 1), ("sg8", 2), ("sg8", 3), ("arb", 0),
             ("sg8", 4), ("sg8", 5))

    def _group(self, k, slot, nvars, gens, size, methods):
        group = self._groups
        self._groups += 1
        path = self._write_ideal(f"r{k}-g{group}", nvars, gens)
        return [
            Op(k, slot, ["betti", path, "--method", m, "--format", "json"], size,
               nvars, gens, group)
            for m in methods
        ]

    def make_round(self, k):
        rng = round_rng(self.name, self.seed, k)
        filled = {
            fam: _fill_family(rng, spec, targets)
            for fam, (spec, targets) in self.FAMILIES.items()
        }
        ops = []
        for fam, i in self.ORDER:
            gens, size = filled[fam][i]
            target = self.FAMILIES[fam][1][i]
            ops += self._group(k, f"{fam}@{target}", len(gens[0]), gens, size, self.METHODS)
        if k == 0:
            for n, spec in enumerate(ROADMAP_SPECS):
                gens = random_ideal(spec).generators
                ops += self._group(k, f"roadmap{n}", spec.nvars, gens, 0,
                                   ("agreement", "faces"))
        return ops

    @staticmethod
    def _table_reason(table, op):
        totals = table.get("totals") if isinstance(table, dict) else None
        if not totals or totals[0] != len(op.gens):
            return "beta_0 differs from the generator count"
        if sum((-1) ** i * t for i, t in enumerate(totals)) != 1:
            return "alternating sum of Betti numbers is not 1"
        return ""

    def check(self, ops, results):
        groups: dict[int, list] = {}
        for op, res in zip(ops, results):
            res.digest = _digest(res.stdout)
            groups.setdefault(op.group, []).append((op, res))
        for members in groups.values():
            first = members[0][0]
            minimal = buchberger_minimality(MonomialIdeal(first.nvars, first.gens))
            tables = {}
            for op, res in members:
                method = op.argv[3]
                if res.error:
                    res.reason = res.error
                    continue
                if method == "faces" and not minimal:
                    res.ok = res.exit_code == EXIT_NOT_MINIMAL
                    res.reason = "" if res.ok else f"exit {res.exit_code}, expected 4"
                    continue
                if res.exit_code != EXIT_OK:
                    res.reason = f"exit {res.exit_code}"
                    continue
                table = _parse_json(res.stdout)
                if table is None:
                    res.reason = "output is not JSON"
                    continue
                res.reason = self._table_reason(table, op)
                res.ok = not res.reason
                tables[method] = (table, res)
            # the last group of a run may stop before all its methods ran
            reference_method = next(iter(tables), None)
            for method, (table, res) in tables.items():
                if res.ok and table != tables[reference_method][0]:
                    res.ok = False
                    res.reason = f"{method} table differs from {reference_method}"

    def trace_sanity(self, ops, results, layer, per_op):
        # an interval op builds the order complex of every (1, m), so its
        # chains are the op's size as the benchmark counts it
        chains = per_op("posets.order_complex", "chains_out")
        interval = [op for op in ops if op.argv[3] == "interval"]
        return {
            "interval_op_chains_equal_benchmark_size": _per_op_check(
                [op.size for op in interval], [chains.get(op.index, 0) for op in interval]),
        }


CONJECTURE_TRIALS = 2
CONJECTURE_SPEC = (5, 30, 6)


class ConjectureFuzz(Workload):
    """``conjecture --vars 5 --gens 30 --maxdeg 6 --trials 2`` campaigns.

    No posets code runs, so this bypasses the crosscut route.  Collapse of
    the clique complex (five calls per trial, one per field and one for Z)
    dominates, so collapse-once and a worker pool over trials show here.
    An op's size is the sum over its trials of faces^1.25, as collapse cost
    grows a little faster than the face count.  The targets sit at the 10th,
    20th and 30th, the 50th and the 90th percentile of the sizes that
    random two-trial campaigns have; the top tenth (up to tens of seconds
    for one op) is left out, since a single such op outweighs a whole run.
    """

    name = "conjecture-fuzz"
    TRACE_ROUNDS = 6
    CONJECTURE_TRIALS_PER_OP = CONJECTURE_TRIALS
    TARGETS = (1800, 3800, 5400, 10700, 10700, 10700, 10700, 75000, 75000, 75000)
    ORDER = (7, 0, 3, 8, 1, 4, 9, 2, 5, 6)

    @staticmethod
    def _draw(rng):
        master = rng.getrandbits(63)
        cliques = []
        for i in range(CONJECTURE_TRIALS):
            spec = IdealRandomSpec(*CONJECTURE_SPEC, "arbitrary", derive_trial_seed(master, i))
            cliques.append(clique_size(random_ideal(spec).generators))
        return master, cliques

    @staticmethod
    def _size(cand):
        return round(sum(c ** 1.25 for c in cand[1]))

    def make_round(self, k):
        rng = round_rng(self.name, self.seed, k)
        # a draw costs two ideals and two clique counts, so the window is wider
        filled = fill_slots(self.TARGETS, self._draw, self._size, rng, 0.10)
        ops = []
        for i in self.ORDER:
            (master, cliques), size = filled[i]
            log_path = os.path.join(self.tmpdir, f"r{k}-{i}.jsonl")
            argv = ["conjecture", "--vars", str(CONJECTURE_SPEC[0]),
                    "--gens", str(CONJECTURE_SPEC[1]), "--maxdeg", str(CONJECTURE_SPEC[2]),
                    "--trials", str(CONJECTURE_TRIALS), "--seed", str(master),
                    "--log", log_path, "--format", "json"]
            ops.append(Op(k, f"size@{self.TARGETS[i]}", argv, size, log_path=log_path,
                          cliques=sum(cliques)))
        return ops

    def check(self, ops, results):
        for op, res in zip(ops, results):
            lines = []
            if os.path.exists(op.log_path):
                with open(op.log_path, encoding="utf-8") as handle:
                    lines = handle.read().splitlines()
            records = [_parse_json(line) for line in lines]
            canonical = [
                json.dumps({k: v for k, v in r.items() if k != "timestamp"}, sort_keys=True)
                for r in records if isinstance(r, dict)
            ]
            res.digest = _digest(res.stdout + "\n".join(canonical))
            if res.error or res.exit_code != EXIT_OK:
                res.reason = res.error or f"exit {res.exit_code}"
                continue
            summary = _parse_json(res.stdout)
            if summary is None:
                res.reason = "output is not JSON"
                continue
            if len(canonical) != len(lines):
                res.reason = "a log record is not a JSON object"
                continue
            res.extra = {"consistent": summary.get("consistent", 0),
                         "skipped": summary.get("skipped", 0)}
            if summary.get("candidates") != 0:
                res.reason = "candidate counterexample reported"
            elif summary.get("trials") != CONJECTURE_TRIALS or (
                res.extra["consistent"] + res.extra["skipped"] != CONJECTURE_TRIALS
            ):
                res.reason = "trial counts do not add up"
            elif len(lines) != CONJECTURE_TRIALS:
                res.reason = f"{len(lines)} log records for {CONJECTURE_TRIALS} trials"
            elif not all(replay_fuzz_record(FuzzRecord.from_json_line(l)) for l in lines):
                res.reason = "a logged record does not replay"
            else:
                res.ok = True

    def trace_sanity(self, ops, results, layer, per_op):
        consistent = sum(r.extra.get("consistent", 0) for r in results)
        faces = per_op("complexes.clique_complex", "faces_out")
        return {
            "collapsed_core_calls_per_consistent_trial": count_check(
                5 * consistent, layer["homology.collapsed_core.calls"]),
            "clique_faces_equal_benchmark_count": _per_op_check(
                [op.cliques for op in ops], [faces.get(op.index, 0) for op in ops]),
        }


WORKLOADS = {w.name: w for w in (VerifyBattery, BettiMethods, ConjectureFuzz)}
