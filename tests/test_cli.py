import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from monores.cli import (
    FuzzRecord,
    derive_trial_seed,
    main,
    replay_fuzz_record,
    run_conjecture_trial,
)
from monores.monomials import IdealRandomSpec
from monores.homology import FieldSpec

EXAMPLE_TEXT = "vars: 4\nx1^2\nx2^2\nx3^2\nx1*x3\nx2*x4\n"
SQUAREFREE_TEXT = "vars: 6\nx1*x4\nx2*x5\nx3*x6\nx1*x2*x3\n"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.ideal"
    path.write_text(EXAMPLE_TEXT)
    return str(path)


@pytest.fixture
def squarefree_file(tmp_path):
    path = tmp_path / "squarefree.ideal"
    path.write_text(SQUAREFREE_TEXT)
    return str(path)


class TestMingens:
    def test_drops_and_round_trips(self, capsys, tmp_path):
        path = tmp_path / "raw.ideal"
        path.write_text("vars: 1\nx1\nx1^2\n")
        code, out, err = run(capsys, ["mingens", str(path)])
        assert code == 0
        assert out == "vars: 1\nx1\n"
        assert "dropped 1" in err

    def test_json_round_trip(self, capsys, example_file):
        code, out, _ = run(capsys, ["mingens", example_file, "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["variables"] == 4
        assert len(data["generators"]) == 5

    def test_inline(self, capsys):
        code, out, _ = run(capsys, ["mingens", "--inline", "vars: 2\nx1*x2\n"])
        assert code == 0
        assert "x1*x2" in out

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.ideal"
        path.write_text("vars: 2\nnonsense\n")
        code, _, err = run(capsys, ["mingens", str(path)])
        assert code == 2
        assert "error" in err


class TestComplexCommand:
    def test_bu_text(self, capsys, example_file):
        code, out, _ = run(capsys, ["complex", example_file, "--kind", "bu"])
        assert code == 0
        assert "f-vector: [5, 9, 7, 2]" in out

    def test_graph_dot(self, capsys, example_file):
        code, out, _ = run(capsys, ["complex", example_file, "--kind", "graph", "--format", "dot"])
        assert code == 0
        assert out.startswith("graph ")
        assert out.count("--") == 9
        assert out.count("{") == out.count("}") == 1

    def test_scarf_json(self, capsys, squarefree_file):
        code, out, _ = run(capsys, ["complex", squarefree_file, "--kind", "scarf", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert len(data["faces"]["2"]) == 3

    def test_clique_kind(self, capsys, example_file):
        code, out, _ = run(capsys, ["complex", example_file, "--kind", "clique", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 5

    def test_cap_exit_code(self, capsys, squarefree_file):
        code, _, err = run(
            capsys,
            ["complex", squarefree_file, "--kind", "taylor", "--cap-faces", "4"],
        )
        assert code == 3
        assert "cap" in err.lower()

    def test_byte_identical_json(self, capsys, example_file):
        _, first, _ = run(capsys, ["complex", example_file, "--kind", "bu", "--format", "json"])
        _, second, _ = run(capsys, ["complex", example_file, "--kind", "bu", "--format", "json"])
        assert first == second


class TestBettiCommand:
    @pytest.mark.parametrize("method", ["faces", "interval", "agreement"])
    def test_example_totals(self, capsys, example_file, method):
        code, out, _ = run(
            capsys, ["betti", example_file, "--method", method, "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["totals"] == [5, 9, 7, 2]

    def test_non_minimal_faces_method(self, capsys, squarefree_file):
        code, _, err = run(capsys, ["betti", squarefree_file, "--method", "faces"])
        assert code == 4
        assert "label" in err

    def test_single_generator(self, capsys):
        code, out, _ = run(
            capsys,
            ["betti", "--inline", "vars: 2\nx1^2*x2\n", "--method", "interval", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["totals"] == [1]

    def test_prime_field_flag(self, capsys, example_file):
        code, out, _ = run(
            capsys,
            ["betti", example_file, "--method", "interval", "--field", "2", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["totals"] == [5, 9, 7, 2]

    def test_methods_agree_on_random_seeds(self, capsys):
        for seed in (1, 2, 3):
            argv = ["random", "--vars", "3", "--gens", "4", "--maxdeg", "4", "--seed", str(seed)]
            code, ideal_text, _ = run(capsys, argv)
            assert code == 0
            tables = []
            for method in ("interval", "agreement"):
                code, out, _ = run(
                    capsys,
                    ["betti", "--inline", ideal_text, "--method", method, "--format", "json"],
                )
                assert code == 0
                tables.append(out)
            assert tables[0] == tables[1]


class TestVerifyCommand:
    def test_example_passes(self, capsys, example_file):
        code, out, _ = run(capsys, ["verify", example_file, "--fields", "0,2", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["minimal"] is True
        assert data["report"]["all_passed"] is True

    def test_squarefree_not_minimal_but_passes(self, capsys, squarefree_file):
        code, out, _ = run(capsys, ["verify", squarefree_file, "--format", "json"])
        assert code == 0
        assert json.loads(out)["minimal"] is False

    def test_text_mode(self, capsys, example_file):
        code, out, _ = run(capsys, ["verify", example_file])
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize(
        "spec, ngens",
        [(("4", "60", "10", "1"), 13), (("5", "40", "6", "5"), 14), (("6", "40", "5", "2"), 13)],
        ids=["vars4", "vars5", "vars6"],
    )
    def test_thirteen_and_fourteen_generators_pass(self, capsys, spec, ngens):
        # the chains of these ideals' covered lattice intervals exceed the
        # chain cap, and their degree posets have 91 to 265 elements
        nvars, gens, maxdeg, seed = spec
        _, ideal_text, _ = run(
            capsys,
            ["random", "--vars", nvars, "--gens", gens, "--maxdeg", maxdeg, "--seed", seed],
        )
        code, out, _ = run(
            capsys, ["verify", "--inline", ideal_text, "--fields", "0,2", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["ideal"]["generators"]) == ngens
        assert data["report"]["all_passed"] is True
        # the label checks scan every generator subset, up to 12 generators
        skipped = {
            c["name"]: c["reason"] for c in data["report"]["checks"] if c["status"] == "skipped"
        }
        reason = f"{ngens} generators exceed the exhaustive subset limit 12"
        assert skipped == {
            "minimality-biconditional": reason,
            "scarf-membership-lemma": reason,
        }


class TestRandomCommand:
    def test_deterministic(self, capsys):
        argv = ["random", "--vars", "4", "--gens", "6", "--maxdeg", "5", "--seed", "9"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_strongly_generic_mode(self, capsys):
        code, out, _ = run(
            capsys,
            ["random", "--vars", "3", "--gens", "5", "--maxdeg", "9",
             "--mode", "strongly-generic", "--seed", "4"],
        )
        assert code == 0
        import helpers
        from monores import parse_ideal

        assert helpers.is_strongly_generic(parse_ideal(out))

    def test_feeds_verify(self, capsys):
        _, ideal_text, _ = run(
            capsys, ["random", "--vars", "3", "--gens", "4", "--maxdeg", "4", "--seed", "2"]
        )
        code, _, _ = run(capsys, ["verify", "--inline", ideal_text])
        assert code == 0


class TestIbarCommand:
    def test_generic_input_passes(self, capsys):
        code, out, _ = run(
            capsys,
            ["ibar", "--inline", "vars: 2\nx1^2*x2\nx1*x2^2\n", "--M", "1", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    def test_non_generic_exit_code(self, capsys):
        code, _, err = run(
            capsys, ["ibar", "--inline", "vars: 3\nx1*x2\nx2*x3\n", "--M", "1"]
        )
        assert code == 5
        assert "generic" in err

    @pytest.mark.parametrize("cap", ["--cap-faces", "--cap-lattice"])
    def test_caps_bound_the_extension(self, capsys, cap):
        code, _, err = run(
            capsys,
            ["ibar", "--inline", "vars: 2\nx1^2*x2\nx1*x2^2\n", "--M", "1", cap, "2"],
        )
        assert code == 3
        assert "cap 2" in err

    def test_bad_bound_is_input_error(self, capsys):
        code, _, _ = run(
            capsys,
            ["ibar", "--inline", "vars: 2\nx1^2*x2\nx1*x2^2\n", "--u", "1,1", "--M", "1"],
        )
        assert code == 2


CONJECTURE_ARGV = ["conjecture", "--vars", "3", "--gens", "5", "--maxdeg", "4", "--trials", "1"]


class TestCapFlags:
    """Each command takes the cap flags it reads, and no others."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["complex", "--inline", EXAMPLE_TEXT, "--kind", "bu"], "--cap-lattice"),
            (["betti", "--inline", EXAMPLE_TEXT, "--method", "interval"], "--cap-cliques"),
            (["verify", "--inline", EXAMPLE_TEXT], "--cap-cliques"),
            (CONJECTURE_ARGV, "--cap-faces"),
            (CONJECTURE_ARGV, "--cap-lattice"),
            (["ibar", "--inline", "vars: 2\nx1^2*x2\nx1*x2^2\n"], "--cap-cliques"),
        ],
    )
    def test_unread_cap_is_a_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"{flag}=2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}=2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["complex", "--inline", EXAMPLE_TEXT, "--kind", "clique"], "--cap-cliques"),
            (["betti", "--inline", EXAMPLE_TEXT, "--method", "faces"], "--cap-faces"),
            (["betti", "--inline", EXAMPLE_TEXT, "--method", "interval"], "--cap-lattice"),
            (["betti", "--inline", EXAMPLE_TEXT, "--method", "agreement"], "--cap-lattice"),
            (["verify", "--inline", EXAMPLE_TEXT], "--cap-faces"),
            (["verify", "--inline", EXAMPLE_TEXT], "--cap-lattice"),
        ],
    )
    def test_read_cap_exits_3(self, capsys, argv, flag):
        code, _, err = run(capsys, [*argv, flag, "2"])
        assert code == 3
        assert "cap 2" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["complex", "--inline", EXAMPLE_TEXT, "--kind", "bu"], "--cap-faces"),
            (["betti", "--inline", EXAMPLE_TEXT, "--method", "agreement"], "--cap-lattice"),
            (["verify", "--inline", EXAMPLE_TEXT], "--cap-faces"),
            (CONJECTURE_ARGV, "--cap-cliques"),
            (["ibar", "--inline", "vars: 2\nx1^2\nx2^2\n"], "--cap-lattice"),
        ],
    )
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_cap_exits_2(self, capsys, argv, flag, value):
        code, out, err = run(capsys, [*argv, f"{flag}={value}"])
        assert code == 2
        assert out == ""
        assert "caps must be positive" in err

    def test_clique_cap_skips_the_conjecture_trial(self, capsys):
        code, out, _ = run(capsys, [*CONJECTURE_ARGV, "--cap-cliques", "2", "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"trials": 1, "consistent": 0, "candidates": 0, "skipped": 1}


class TestConjectureCommand:
    def test_deterministic_run_with_log(self, capsys, tmp_path):
        log = tmp_path / "fuzz.jsonl"
        argv = [
            "conjecture", "--vars", "4", "--gens", "6", "--maxdeg", "5",
            "--trials", "6", "--seed", "1", "--log", str(log), "--format", "json",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        summary = json.loads(out)
        assert summary["trials"] == 6
        assert summary["consistent"] == 6
        lines = log.read_text().splitlines()
        assert len(lines) == 6

        # appending a second identical run doubles the log with equal verdicts
        code, out2, _ = run(capsys, argv)
        assert out == out2
        lines = log.read_text().splitlines()
        assert len(lines) == 12
        first, second = lines[:6], lines[6:]
        for a, b in zip(first, second):
            ra, rb = FuzzRecord.from_json_line(a), FuzzRecord.from_json_line(b)
            assert ra.verdict == rb.verdict
            assert ra.checks == rb.checks
            assert ra.seed == rb.seed

    def test_replay_records(self, tmp_path, capsys):
        log = tmp_path / "fuzz.jsonl"
        code, _, _ = run(
            capsys,
            ["conjecture", "--vars", "3", "--gens", "5", "--maxdeg", "4",
             "--trials", "4", "--seed", "7", "--log", str(log)],
        )
        assert code == 0
        for line in log.read_text().splitlines():
            assert replay_fuzz_record(FuzzRecord.from_json_line(line))

    def test_capped_records_replay(self, tmp_path, capsys):
        # a trial skipped at the cap must be replayed at that cap, not at
        # the default one under which it runs to a verdict
        log = tmp_path / "capped.jsonl"
        code, _, _ = run(
            capsys,
            ["conjecture", "--vars", "4", "--gens", "7", "--maxdeg", "4",
             "--trials", "3", "--seed", "5", "--cap-cliques", "3", "--log", str(log)],
        )
        assert code == 0
        records = [FuzzRecord.from_json_line(line) for line in log.read_text().splitlines()]
        assert [r.verdict for r in records] == ["skipped"] * 3
        assert all(replay_fuzz_record(r) for r in records)

    def test_strongly_generic_stream(self, tmp_path, capsys):
        from monores import (
            buchberger_graph,
            is_connected,
            is_planar,
            random_ideal,
        )

        log = tmp_path / "sg.jsonl"
        code, _, _ = run(
            capsys,
            ["conjecture", "--vars", "3", "--gens", "4", "--maxdeg", "7",
             "--mode", "strongly-generic", "--trials", "5", "--seed", "2",
             "--log", str(log)],
        )
        assert code == 0
        for line in log.read_text().splitlines():
            record = FuzzRecord.from_json_line(line)
            assert record.verdict == "consistent"
            assert replay_fuzz_record(record)
            # the regenerated instances satisfy the planar three-variable picture
            graph = buchberger_graph(random_ideal(record.spec()))
            assert is_planar(graph) and is_connected(graph)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--vars", "3", "--trials", "-3"],
            ["--vars", "0", "--trials", "0"],
            ["--vars", "0", "--trials", "1"],
        ],
        ids=["trials-3", "vars0-trials0", "vars0-trials1"],
    )
    def test_invalid_run_exits_2_before_any_trial(self, capsys, tmp_path, argv):
        log = tmp_path / "fuzz.jsonl"
        code, out, err = run(
            capsys,
            ["conjecture", *argv, "--gens", "5", "--maxdeg", "4", "--log", str(log)],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert not log.exists()

    def test_zero_trials_is_an_empty_run(self, capsys):
        code, out, _ = run(
            capsys,
            ["conjecture", "--vars", "3", "--gens", "5", "--maxdeg", "4", "--trials", "0"],
        )
        assert code == 0
        assert out == "trials: 0  consistent: 0  candidates: 0  skipped: 0\n"


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` in every monores namespace that binds it.

    ``cli`` and ``resolution`` import the builders by name, so patching only
    the defining module would miss their calls.  Each call is recorded as
    its positional arguments and its result.
    """
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "monores" and mod.__dict__.get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def count_method_calls(monkeypatch, cls, name):
    """Wrap the method ``cls.name``; each call records the type of its instance."""
    original = getattr(cls, name)
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(type(self))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


class TestBuildCounts:
    @pytest.mark.parametrize("text", [EXAMPLE_TEXT, SQUAREFREE_TEXT], ids=["example", "squarefree"])
    def test_verify_builds_complex_and_lattice_once(self, capsys, monkeypatch, text):
        from monores import complexes, posets

        complexes_built = count_calls(monkeypatch, complexes, "buchberger_complex")
        lattices_built = count_calls(monkeypatch, posets, "lcm_lattice")
        code, _, _ = run(capsys, ["verify", "--inline", text, "--fields", "0,2"])
        assert code == 0
        assert len(complexes_built) == 1
        assert len(lattices_built) == 1

    def test_verify_builds_one_simplicial_complex(self, capsys, monkeypatch):
        # the Buchberger complex is built from its face masks and the support
        # criterion reads induced subcomplexes off them, so no complex runs
        # the tuple constructor
        from monores.complexes import SimplicialComplex

        built = count_method_calls(monkeypatch, SimplicialComplex, "__init__")
        code, _, _ = run(capsys, ["verify", "--inline", EXAMPLE_TEXT, "--fields", "0,2"])
        assert code == 0
        assert built == []

    def test_conjecture_trial_builds_no_tuples_and_no_labels(self, monkeypatch):
        # the clique complex is built from its masks, and the conjecture
        # checks read no label, so the lcm pass never runs
        from monores import homology
        from monores.complexes import LabeledComplex, SimplicialComplex

        built = count_method_calls(monkeypatch, SimplicialComplex, "__init__")
        labelled = count_method_calls(monkeypatch, LabeledComplex, "labels")
        record = run_conjecture_trial(
            IdealRandomSpec(4, 7, 4, "arbitrary", 3), homology.DEFAULT_FIELDS
        )
        assert record.verdict == "consistent"
        assert built == []
        assert labelled == []

    def test_only_complexes_without_coface_masks_derive_them(self, capsys, monkeypatch):
        # the clique listing hands its coface masks to the collapse, so a
        # conjecture trial derives none; verify's complexes pass none
        from monores import homology

        derived = count_calls(monkeypatch, homology, "_coface_masks")
        record = run_conjecture_trial(
            IdealRandomSpec(4, 7, 4, "arbitrary", 3), homology.DEFAULT_FIELDS
        )
        assert record.verdict == "consistent"
        assert derived == []
        code, _, _ = run(capsys, ["verify", "--inline", EXAMPLE_TEXT, "--fields", "0,2"])
        assert code == 0
        assert derived

    def test_verify_lists_chains_of_the_degree_poset_only(self, capsys, monkeypatch):
        from monores import posets

        intervals = count_calls(monkeypatch, posets, "open_interval")
        order_complexes = count_calls(monkeypatch, posets, "order_complex")
        code, _, _ = run(capsys, ["verify", "--inline", EXAMPLE_TEXT, "--fields", "0,2"])
        assert code == 0
        assert len(intervals) == 0
        assert len(order_complexes) == 1

    def test_interval_method_lists_every_chain_and_collapses_the_core(
        self, capsys, monkeypatch
    ):
        # every chain of (1, m) is listed, so the chain cap and the chain
        # count stay as they were; the collapse sees the chains inside the
        # interval's strong core only, and none when that core is one vertex
        import helpers
        from monores import dismantle, homology, lcm_lattice, parse_ideal, posets

        lattice = lcm_lattice(parse_ideal(SQUAREFREE_TEXT))
        intervals = [posets.open_interval(lattice, m) for m in lattice.elements if any(m)]
        chain_counts, inside = [], []
        for interval in intervals:
            kept = set(homology.mask_face(dismantle(interval.comparability_masks())))
            chains = helpers.chains_oracle(interval) - {()}
            chain_counts.append(len(chains))
            if len(kept) != 1:
                inside.append(frozenset(homology.face_mask(c) for c in chains if set(c) <= kept))
        listed = count_calls(monkeypatch, posets, "order_complex")
        collapsed = count_calls(monkeypatch, homology, "collapsed_core")
        code, _, _ = run(capsys, ["betti", "--inline", SQUAREFREE_TEXT, "--method", "interval"])
        assert code == 0
        assert [len(oc) - 1 for _, oc in listed] == chain_counts
        assert [faces for (faces,), _ in collapsed] == inside
        assert len(inside) < len(intervals)
        assert sum(map(len, inside)) < sum(chain_counts)

    def test_agreement_method_reads_each_family_once_per_call(self, capsys, monkeypatch):
        # a degree's agreement poset depends only on its family of agreement
        # sets; each family is built and read once, and no call reuses the
        # families of an earlier one
        from monores import format_ideal, homology, lcm_lattice, posets, random_ideal

        ideal = random_ideal(IdealRandomSpec(4, 8, 12, "strongly-generic", 3))
        lattice = lcm_lattice(ideal)
        strictly_dividing = ideal.divisibility.strictly_dividing
        families = [
            posets.agreement_sets(ideal, m, lattice=lattice)
            for m in lattice.elements
            if any(m) and not strictly_dividing(m)
        ]
        first_seen = list(dict.fromkeys(families))
        assert len(first_seen) < len(families)
        built = count_calls(monkeypatch, posets, "agreement_poset")
        read = count_calls(monkeypatch, homology, "reduced_homology")
        argv = ["betti", "--inline", format_ideal(ideal), "--method", "agreement"]
        for _ in range(2):
            code, _, _ = run(capsys, argv)
            assert code == 0
        assert [sets for (_, sets), _ in built] == first_seen * 2
        assert len(read) == 2 * len(first_seen)

    def test_two_calls_build_the_parser_once(self, capsys, monkeypatch):
        from monores import cli

        cli._parser.cache_clear()
        parsers_built = count_calls(monkeypatch, cli, "build_parser")
        for _ in range(2):
            code, _, _ = run(capsys, ["mingens", "--inline", EXAMPLE_TEXT])
            assert code == 0
        assert len(parsers_built) == 1

    def test_conjecture_trial_collapses_once(self, monkeypatch):
        from monores import homology

        collapses = count_calls(monkeypatch, homology, "collapsed_core")
        record = run_conjecture_trial(
            IdealRandomSpec(4, 7, 4, "arbitrary", 3), homology.DEFAULT_FIELDS
        )
        assert record.verdict == "consistent"
        assert len(collapses) == 1

    def test_collapse_takes_nonempty_masks_and_returns_tuples(self, monkeypatch, capsys):
        # the benchmark's tracer hashes the first argument as a frozenset and
        # counts cells as len(faces) - (() in faces) and len(core) - 1
        from monores import homology

        seen = count_calls(monkeypatch, homology, "collapsed_core")
        for argv in (["betti", "--inline", EXAMPLE_TEXT, "--method", "interval"],
                     ["verify", "--inline", EXAMPLE_TEXT]):
            code, _, _ = run(capsys, argv)
            assert code == 0
        run_conjecture_trial(IdealRandomSpec(4, 7, 4, "arbitrary", 3), homology.DEFAULT_FIELDS)
        assert seen
        for (faces,), core in seen:
            assert type(faces) is frozenset
            assert all(type(f) is int and f > 0 for f in faces)
            assert () in core
            assert all(type(f) is tuple for f in core)
            assert len(core) - 1 <= len(faces)


class TestSeedDerivation:
    def test_stable_values(self):
        assert derive_trial_seed(0, 0) != derive_trial_seed(0, 1)
        assert derive_trial_seed(1, 0) == derive_trial_seed(1, 0)
        assert 0 <= derive_trial_seed(2**63, 12345) < 2**64

    def test_trial_is_replayable_directly(self):
        spec = IdealRandomSpec(3, 4, 4, "arbitrary", 99)
        fields = (FieldSpec(0), FieldSpec(2))
        a = run_conjecture_trial(spec, fields)
        b = run_conjecture_trial(spec, fields)
        assert a.verdict == b.verdict
        assert a.checks == b.checks


class TestOneProcess:
    def test_import_leaves_networkx_unloaded_until_planarity_needs_it(self):
        # K5 and K4 are decided by the early exits of is_planar; K3,3 passes
        # the edge bound and needs the real planarity test
        probe = """
import sys
import monores, monores.cli
assert "networkx" not in sys.modules
from monores import SimpleGraph, is_planar
full = lambda n: frozenset((i, j) for i in range(n) for j in range(i + 1, n))
assert not is_planar(SimpleGraph(5, full(5)))
assert is_planar(SimpleGraph(4, full(4)))
assert "networkx" not in sys.modules
assert not is_planar(SimpleGraph(6, frozenset((i, j) for i in range(3) for j in range(3, 6))))
assert "networkx" in sys.modules
"""
        import monores

        src = str(Path(monores.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr

    def test_calls_in_sequence_do_not_interfere(self, capsys, example_file, squarefree_file):
        verify = ["verify", example_file, "--fields", "0,2", "--format", "json"]
        code, first, _ = run(capsys, verify)
        assert code == 0
        code, _, _ = run(capsys, ["betti", squarefree_file, "--method", "agreement"])
        assert code == 0
        try:
            code = main(["verify", example_file, "--no-such-flag"])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        capsys.readouterr()
        code, _, _ = run(capsys, [
            "conjecture", "--vars", "3", "--gens", "4", "--maxdeg", "3",
            "--trials", "2", "--format", "json",
        ])
        assert code == 0
        code, again, _ = run(capsys, verify)
        assert code == 0
        assert again == first
