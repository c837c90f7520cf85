"""Command-line front end: ideal I/O, complex construction, verification
batteries, Betti tables, and seeded conjecture fuzzing with a JSONL log.

Every command is a deterministic function of its flags and seed; JSON output
is byte-identical across runs.  Exit codes: 0 all pass/skip, 1 check failure,
2 parse error, 3 cap exceeded, 4 minimality precondition, 5 genericity
precondition.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import warnings
from dataclasses import dataclass, field, replace

from . import __version__
from .complexes import (
    CLIQUE_CAP,
    FACE_CAP,
    _scarf_faces,
    buchberger_complex,
    buchberger_graph,
    clique_complex,
    complex_to_json_dict,
    f_vector,
    graph_to_dot,
    is_connected,
    is_planar,
    scarf_complex,
    taylor_complex,
)
from .errors import (
    CapExceededError,
    GenerationError,
    MonoresError,
    NotGenericError,
    NotMinimalError,
    ParseError,
)
from .homology import FieldSpec, INTEGRAL_CELL_CAP
from .monomials import (
    DroppedGeneratorsWarning,
    IdealRandomSpec,
    MonomialIdeal,
    format_ideal,
    ideal_to_json_dict,
    is_generic,
    monomial_to_text,
    parse_ideal,
    random_ideal,
)
from .posets import LATTICE_CAP, lcm_lattice
from .resolution import (
    CheckResult,
    VerificationReport,
    betti_from_agreement,
    betti_from_complex,
    betti_from_intervals,
    conjecture_evidence,
    conjecture_verdict,
    is_minimal_complex,
    lemma_battery,
    supports_resolution,
    verify_ibar,
    verify_scarf_equivalence,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_NOT_MINIMAL = 4
EXIT_NOT_GENERIC = 5

_MASK64 = (1 << 64) - 1


def derive_trial_seed(master: int, index: int) -> int:
    """splitmix64-style mixing so trial seeds decorrelate from the master."""
    z = (master + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class FuzzRecord:
    """One replayable conjecture trial; (seed, spec) regenerate the instance."""

    seed: int
    nvars: int
    ngens: int
    max_degree: int
    mode: str
    characteristics: tuple[int, ...]
    verdict: str
    checks: dict = field(default_factory=dict)
    reverified: bool = False
    timestamp: str = ""
    tool_version: str = __version__
    max_cliques: int = CLIQUE_CAP

    def spec(self) -> IdealRandomSpec:
        return IdealRandomSpec(self.nvars, self.ngens, self.max_degree, self.mode, self.seed)

    def to_json_line(self) -> str:
        data = {
            "seed": self.seed,
            "nvars": self.nvars,
            "ngens": self.ngens,
            "max_degree": self.max_degree,
            "mode": self.mode,
            "characteristics": list(self.characteristics),
            "verdict": self.verdict,
            "checks": self.checks,
            "reverified": self.reverified,
            "timestamp": self.timestamp,
            "tool_version": self.tool_version,
        }
        # only a non-default cap is written, so default logs keep their bytes
        if self.max_cliques != CLIQUE_CAP:
            data["max_cliques"] = self.max_cliques
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "FuzzRecord":
        data = json.loads(line)
        return cls(
            seed=data["seed"],
            nvars=data["nvars"],
            ngens=data["ngens"],
            max_degree=data["max_degree"],
            mode=data["mode"],
            characteristics=tuple(data["characteristics"]),
            verdict=data["verdict"],
            checks=data["checks"],
            reverified=data.get("reverified", False),
            timestamp=data.get("timestamp", ""),
            tool_version=data.get("tool_version", ""),
            max_cliques=data.get("max_cliques", CLIQUE_CAP),
        )


def run_conjecture_trial(spec: IdealRandomSpec, fields, *, max_cliques: int = CLIQUE_CAP) -> FuzzRecord:
    """Generate, check, and (for candidates) re-check one instance.

    Candidates are re-verified once with a raised integral-homology cap so a
    torsion check always accompanies a logged counterexample claim.
    """
    ideal = random_ideal(spec)
    report = conjecture_evidence(ideal, fields, max_faces=max_cliques)
    verdict = conjecture_verdict(report)
    reverified = False
    if verdict == "CANDIDATE COUNTEREXAMPLE":
        report = conjecture_evidence(
            ideal, fields, max_faces=max_cliques, integral_cells=4 * INTEGRAL_CELL_CAP
        )
        verdict = conjecture_verdict(report)
        reverified = True
    return FuzzRecord(
        seed=spec.seed,
        nvars=spec.nvars,
        ngens=spec.ngens,
        max_degree=spec.max_degree,
        mode=spec.mode,
        characteristics=tuple(f.characteristic for f in fields),
        verdict=verdict,
        checks=report.statuses(),
        reverified=reverified,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        max_cliques=max_cliques,
    )


def replay_fuzz_record(record: FuzzRecord) -> bool:
    """Regenerate the instance and confirm the stored verdict and statuses.

    The trial reruns under the record's clique cap, so a trial skipped at a
    lowered cap replays as skipped.
    """
    fields = tuple(FieldSpec(c) for c in record.characteristics)
    fresh = run_conjecture_trial(record.spec(), fields, max_cliques=record.max_cliques)
    return fresh.verdict == record.verdict and fresh.checks == record.checks


# ---------------------------------------------------------------------------
# command helpers

def _emit(text: str) -> None:
    sys.stdout.write(text)


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_ideal(args) -> MonomialIdeal:
    if getattr(args, "inline", None) is not None:
        text = args.inline
    elif args.input is None or args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, encoding="utf-8") as handle:
            text = handle.read()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DroppedGeneratorsWarning)
        ideal = parse_ideal(text)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return ideal


def _parse_fields(text: str) -> tuple[FieldSpec, ...]:
    try:
        chars = [int(part) for part in text.split(",") if part.strip() != ""]
        fields = tuple(FieldSpec(c) for c in chars)
    except ValueError as exc:
        raise ParseError(f"bad field list {text!r}: {exc}") from exc
    if not fields:
        raise ParseError("field list must not be empty")
    return fields


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad exponent vector {text!r}") from exc


def _report_lines(report: VerificationReport) -> str:
    lines = []
    for c in report.checks:
        line = f"{c.status.upper():7s} {c.name}"
        if c.reason:
            line += f"  ({c.reason})"
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands

def cmd_mingens(args) -> int:
    ideal = _load_ideal(args)
    _emit(format_ideal(ideal, args.format))
    return EXIT_OK


def cmd_random(args) -> int:
    spec = IdealRandomSpec(args.vars, args.gens, args.maxdeg, args.mode, args.seed)
    _emit(format_ideal(random_ideal(spec), args.format))
    return EXIT_OK


def cmd_complex(args) -> int:
    ideal = _load_ideal(args)
    if args.kind == "graph":
        graph = buchberger_graph(ideal)
        if args.format == "dot":
            _emit(graph_to_dot(graph, [monomial_to_text(g) for g in ideal.generators]))
        elif args.format == "json":
            _emit_json(
                {
                    "vertices": [monomial_to_text(g) for g in ideal.generators],
                    "edges": sorted([list(e) for e in graph.edges]),
                    "planar": is_planar(graph),
                    "connected": is_connected(graph),
                }
            )
        else:
            _emit(
                f"vertices: {graph.vertex_count}\nedges: "
                + " ".join(f"{i}-{j}" for i, j in sorted(graph.edges))
                + f"\nplanar: {is_planar(graph)}\nconnected: {is_connected(graph)}\n"
            )
        return EXIT_OK
    if args.format == "dot":
        raise ParseError("dot output is only available for --kind graph")
    builders = {
        "bu": lambda: buchberger_complex(ideal, max_faces=args.cap_faces),
        "scarf": lambda: scarf_complex(ideal, max_faces=args.cap_faces),
        "taylor": lambda: taylor_complex(ideal, max_faces=args.cap_faces),
        "clique": lambda: clique_complex(
            buchberger_graph(ideal), ideal, max_faces=args.cap_cliques
        ),
    }
    complex_ = builders[args.kind]()
    if args.format == "json":
        _emit_json(complex_to_json_dict(complex_))
    else:
        lines = [f"f-vector: {list(f_vector(complex_))}"]
        for k in range(0, complex_.dim + 1):
            for face in complex_.faces(k):
                lines.append(
                    f"{k}: {{{','.join(map(str, face))}}} "
                    f"label {monomial_to_text(complex_.label(face))}"
                )
        _emit("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_betti(args) -> int:
    ideal = _load_ideal(args)
    f = FieldSpec(args.field)
    if args.method == "faces":
        table = betti_from_complex(buchberger_complex(ideal, max_faces=args.cap_faces))
    elif args.method == "interval":
        table = betti_from_intervals(ideal, f, max_lattice=args.cap_lattice)
    else:
        table = betti_from_agreement(ideal, f, max_lattice=args.cap_lattice)
    if args.format == "json":
        _emit_json(table.to_json_dict())
    else:
        lines = [f"totals: {list(table.totals())}"]
        lines.extend(
            f"beta[{i}, {monomial_to_text(m)}] = {r}" for (i, m), r in table.entries()
        )
        _emit("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    ideal = _load_ideal(args)
    fields = _parse_fields(args.fields)
    bu = buchberger_complex(ideal, max_faces=args.cap_faces)
    scarf = frozenset(_scarf_faces(bu))
    minimal = scarf == bu.face_set()
    lattice = lcm_lattice(ideal, max_elements=args.cap_lattice)
    checks = [
        CheckResult(
            "minimality-cross-check",
            "pass" if is_minimal_complex(bu) == minimal else "fail",
        )
    ]
    supports = supports_resolution(bu, ideal, fields, lattice=lattice)
    batteries = lemma_battery(
        ideal, fields, complex_=bu, lattice=lattice, max_faces=args.cap_faces
    )
    for f, support, battery in zip(fields, supports, batteries):
        prefix = f"char{f.characteristic}"
        checks.extend(
            CheckResult(f"{prefix}:{c.name}", c.status, c.witness, c.reason)
            for c in support.checks + battery.checks
        )
    equivalence = verify_scarf_equivalence(
        ideal, fields[0], complex_=bu, scarf_faces=scarf, support=supports[0]
    )
    checks.extend(equivalence.checks)
    report = VerificationReport(tuple(checks))
    if args.format == "json":
        _emit_json(
            {
                "ideal": ideal_to_json_dict(ideal),
                "minimal": minimal,
                "report": report.to_json_dict(),
            }
        )
    else:
        _emit(f"minimal: {minimal}\n" + _report_lines(report))
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_ibar(args) -> int:
    ideal = _load_ideal(args)
    if not is_generic(ideal):
        print("input ideal is not generic", file=sys.stderr)
        return EXIT_NOT_GENERIC
    bound = _parse_vector(args.u) if args.u else ideal.top_multidegree()
    cofactor = _parse_vector(args.M)
    report = verify_ibar(
        ideal, bound, cofactor, FieldSpec(args.field),
        max_faces=args.cap_faces, max_lattice=args.cap_lattice,
    )
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        _emit(_report_lines(report))
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_conjecture(args) -> int:
    fields = _parse_fields(args.fields)
    if args.trials < 0:
        raise ParseError("the trial count must not be negative")
    # checked here, so that an invalid spec is an error even for zero trials
    spec = IdealRandomSpec(args.vars, args.gens, args.maxdeg, args.mode)
    records = [
        run_conjecture_trial(
            replace(spec, seed=derive_trial_seed(args.seed, i)), fields,
            max_cliques=args.cap_cliques,
        )
        for i in range(args.trials)
    ]
    if args.log:
        with open(args.log, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(record.to_json_line() + "\n")
    counts = {"consistent": 0, "CANDIDATE COUNTEREXAMPLE": 0, "skipped": 0}
    for record in records:
        counts[record.verdict] += 1
    summary = {
        "trials": args.trials,
        "consistent": counts["consistent"],
        "candidates": counts["CANDIDATE COUNTEREXAMPLE"],
        "skipped": counts["skipped"],
    }
    if args.format == "json":
        _emit_json(summary)
    else:
        _emit(
            f"trials: {summary['trials']}  consistent: {summary['consistent']}  "
            f"candidates: {summary['candidates']}  skipped: {summary['skipped']}\n"
        )
    return EXIT_OK if counts["CANDIDATE COUNTEREXAMPLE"] == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing

def _add_input(parser):
    parser.add_argument("input", nargs="?", help="ideal file path, or - for stdin")
    parser.add_argument("--inline", help="inline ideal text instead of a file")


_CAP_DEFAULTS = {"faces": FACE_CAP, "lattice": LATTICE_CAP, "cliques": CLIQUE_CAP}


def _add_caps(parser, *kinds):
    """One ``--cap-<kind>`` flag per cap the command reads, and no others."""
    for kind in kinds:
        parser.add_argument(f"--cap-{kind}", type=int, default=_CAP_DEFAULTS[kind])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monores",
        description="Buchberger/Scarf complex toolkit for monomial ideals",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mingens", help="minimalize and reprint an ideal")
    _add_input(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_mingens)

    p = sub.add_parser("complex", help="build a complex or the Buchberger graph")
    _add_input(p)
    p.add_argument("--kind", choices=["graph", "bu", "scarf", "taylor", "clique"], required=True)
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    _add_caps(p, "faces", "cliques")
    p.set_defaults(fn=cmd_complex)

    p = sub.add_parser("betti", help="multigraded Betti numbers")
    _add_input(p)
    p.add_argument("--method", choices=["faces", "interval", "agreement"], required=True)
    p.add_argument("--field", type=int, default=0, help="characteristic (0 or prime)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_caps(p, "faces", "lattice")
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("verify", help="run the full verification battery")
    _add_input(p)
    p.add_argument("--fields", default="0", help="comma-separated characteristics")
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_caps(p, "faces", "lattice")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("conjecture", help="fuzz the clique-complex conjecture")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--gens", type=int, required=True)
    p.add_argument("--maxdeg", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["arbitrary", "strongly-generic"], default="arbitrary")
    p.add_argument("--fields", default="0,2,3,32003")
    p.add_argument("--log", help="JSONL path for appended fuzz records")
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_caps(p, "cliques")
    p.set_defaults(fn=cmd_conjecture)

    p = sub.add_parser("ibar", help="verify the extension of a generic ideal")
    _add_input(p)
    p.add_argument("--u", help="bounding degree, comma-separated (default: lcm of generators)")
    p.add_argument("--M", default="1", help="cofactor exponents on the new variables")
    p.add_argument("--field", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_caps(p, "faces", "lattice")
    p.set_defaults(fn=cmd_ibar)

    p = sub.add_parser("random", help="emit a deterministic random ideal")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--gens", type=int, required=True)
    p.add_argument("--maxdeg", type=int, required=True)
    p.add_argument("--mode", choices=["arbitrary", "strongly-generic"], default="arbitrary")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_random)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if any(getattr(args, f"cap_{kind}", 1) <= 0 for kind in _CAP_DEFAULTS):
            raise ParseError("caps must be positive")
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NotMinimalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_MINIMAL
    except NotGenericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_GENERIC
    except (GenerationError, MonoresError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
