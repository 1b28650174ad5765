import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from quandles import alexander_quandle, build, dihedral, parse_ideal, symmetric_group
from quandles import cli, group
from quandles.cli import main
from quandles.decomposition import maximal_decomposition
from quandles.group import FiniteGroup, conj_quandle, cyclic_group
from quandles.mcq import MCQ, associated_mcq
from quandles.quandle import FiniteQuandle, type_of
from quandles.verify import (CHECK_GROUPS, NON_ASSOCIATIVE_LOOP, _product_table, relabelled,
                             relabelled_table)


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsingCommands:
    def test_build_six_cubic(self, capsys):
        code, out, _ = run(capsys, "build", "6; t^2+t+1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 36
        assert data["invariant_factors"] == [6, 6]
        assert data["component_count"] == 3
        assert len(data["labels"]) == 36
        # the descriptor parses back to the same module
        code2, out2, _ = run(capsys, "build", data["descriptor"], "--format", "json")
        assert json.loads(out2) == data

    def test_build_dihedral_presentation(self, capsys):
        code, out, _ = run(capsys, "build", "12; t+1", "--format", "json")
        assert code == 0
        assert json.loads(out)["order"] == 12

    def test_text_build_lists_no_labels_beyond_order_64(self, capsys):
        big = "99999999999999999999999"
        assert run(capsys, "build", f"{big}; t+1") == (0, (
            f"quotient by ({big}; 1+t)\norder: {big}\n"
            f"invariant factors: [{big}]\ncomponents: 1\n"), "")

    def test_build_reduces_a_huge_exponent_by_its_bits(self, capsys):
        # t = -1 mod 5, so t^(10^18) + 2 = 3 is a unit and the quotient is trivial
        code, out, _ = run(capsys, "build", "5; t+1; t^1000000000000000000+2")
        assert code == 0 and "\norder: 1\n" in out

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "build", "6; t^^2")
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("ideal,err", [
        ("\u00b2; t+1", "parse error: expected an integer modulus (position 0)\n"),
        ("5; t^\u00b2+1", "parse error: expected an integer exponent (position 5)\n"),
    ], ids=["modulus", "exponent"])
    def test_superscript_digit_is_a_parse_error(self, capsys, ideal, err):
        # str.isdigit accepts a superscript two, which int() refuses
        assert run(capsys, "build", ideal) == (2, "", err)

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no integer string conversion limit")
    @pytest.mark.parametrize("verb,text,position", [
        ("build", "5; {}t+1", 3), ("build", "5; t^{}+1", 5), ("build", "{}; t+1", 0),
        ("theory", "{}t+1", 0),
    ], ids=["coefficient", "exponent", "modulus", "theory"])
    def test_integer_past_the_digit_limit_is_a_parse_error(self, capsys, verb, text, position):
        # int() refuses more digits than the limit; the start of the digits is named
        ones = "1" * (DIGIT_LIMIT + 1)
        assert run(capsys, verb, text.format(ones)) == (
            2, "", f"parse error: integer too long (position {position})\n")

    def test_bad_modulus_exit_code(self, capsys):
        assert run(capsys, "build", "0; t+1")[0] == 2

    def test_saturation_runs_until_the_kernel_chain_stabilises(self, capsys):
        # t = -2 is nilpotent mod 2^70: the kernels of t^k grow for 70 rounds
        code, out, err = run(capsys, "build", f"{2 ** 70}; t+2", "--format", "json")
        assert code == 0 and err == ""
        assert json.loads(out)["order"] == 1

    def test_unsupported_presentation_exit_code(self, capsys):
        code, _, err = run(capsys, "build", "4; 2t+2")
        assert code == 4
        assert "unsupported" in err


class TestComputeCommands:
    def test_maxdecomp_six_cubic(self, capsys):
        code, out, _ = run(capsys, "maxdecomp", "--alexander", "6; t^2+t+1",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["depth"] == 2
        final = data["levels"][-1]
        assert len(final) == 9
        assert all(len(b) == 4 for b in final)

    def test_components_conj_s3(self, capsys):
        code, out, _ = run(capsys, "components", "--conj", "--symmetric", "3",
                           "--format", "json")
        assert code == 0
        blocks = json.loads(out)["blocks"]
        assert sorted(len(b) for b in blocks) == [1, 2, 3]

    def test_components_text_uses_labels(self, capsys):
        code, out, _ = run(capsys, "components", "--conj", "--symmetric", "3")
        assert code == 0
        assert "(1 2 3)" in out

    def test_group_source_requires_conj(self, capsys):
        code, _, err = run(capsys, "components", "--symmetric", "3")
        assert code == 2
        assert "--conj" in err

    def test_iso_found(self, capsys):
        code, out, _ = run(capsys, "iso", "--alexander", "3; t+1",
                           "--dihedral", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["isomorphic"] is True
        assert sorted(data["map"]) == [0, 1, 2]

    def test_iso_not_found(self, capsys):
        code, out, _ = run(capsys, "iso", "--dihedral", "3",
                           "--alexander", "5; t+1", "--format", "json")
        assert code == 0
        assert json.loads(out)["isomorphic"] is False

    def test_prop56(self, capsys):
        code, out, _ = run(capsys, "prop56", "12", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {"chain": [12, 6, 3], "depth": 2,
                        "block_count": 4, "block_modulus": 3}

    def test_theory(self, capsys):
        code, out, _ = run(capsys, "theory", "6; t^2+t+1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["orbit_count"] == 3
        assert "4+2t" in data["component_ideal"]

    def test_theory_notes_an_ideal_with_fewer_generators(self, capsys):
        assert run(capsys, "theory", "12; t+5") == (0, (
            "generators: 12; 5+t\n"
            "component count: 6\n"
            "component ideal: (12; 5+t; 2)\n"
            "note: ideal equals (2; 5+t)\n"), "")
        assert run(capsys, "theory", "12; t+5", "--format", "json") == (0, (
            '{"component_ideal": ["12", "5+t", "2"], "generators": ["12", "5+t"], '
            '"note": "ideal equals (2; 5+t)", "orbit_count": 6}\n'), "")

    @pytest.mark.parametrize("argv", [
        ["--alexander", "100000; t+1", "--dihedral", "3"],
        ["--symmetric", "3", "--conj", "--dihedral", "7"],
        ["--dihedral", "5", "--alexander", "6; t^2+t+1"]])
    def test_iso_of_unequal_orders_builds_no_table(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "alexander_quandle", _refuse_work)
        monkeypatch.setattr(cli, "conj_quandle", _refuse_work)
        assert run(capsys, "iso", *argv) == (0, "no isomorphism\n", "")
        assert run(capsys, "iso", *argv, "--format", "json") == (0, '{"isomorphic": false}\n', "")

    @pytest.mark.parametrize("gens,position", [("t+1; t+x", 7), ("t+1;;t", 4), ("t+1;", 4),
                                               ("t^", 2), ("", 0)])
    def test_theory_parse_error_counts_from_the_argument(self, capsys, gens, position):
        code, out, err = run(capsys, "theory", gens)
        assert (code, out) == (2, "") and err.endswith(f"(position {position})\n")

    def test_axioms_ok(self, capsys):
        code, out, _ = run(capsys, "axioms", "--dihedral", "7")
        assert code == 0
        assert out.strip() == "ok"

    def test_assoc_and_mcq_verbs(self, capsys, tmp_path):
        code, out, _ = run(capsys, "assoc", "--dihedral", "6", "--format", "json")
        assert code == 0
        data = json.loads(out)
        path = tmp_path / "mcq.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "axioms", "--mcq", str(path))
        assert code == 0
        code, out, _ = run(capsys, "maxdecomp", "--mcq", str(path), "--format", "json")
        assert code == 0
        tree = json.loads(out)
        assert tree["depth"] == 1
        assert sorted(len(b) for b in tree["carrier_blocks"]) == [6, 6]
        code, out, _ = run(capsys, "maxdecomp", "--assoc", "--dihedral", "6",
                           "--format", "json")
        assert json.loads(out) == tree


def _mcq_with_a_wrong_conjugation():
    """The associated structure of R3 with the product of (0, 0) and the
    identity of its group changed."""
    x = associated_mcq(dihedral(3).quandle)
    data = x.to_json()
    e = x.identity_of(0)
    data["op"][0][e] = 1 if data["op"][0][e] != 1 else 2
    return data


class TestTableLoading:
    def test_table_round_trip(self, capsys, tmp_path):
        q = conj_quandle(symmetric_group(3))
        path = tmp_path / "q.json"
        path.write_text(json.dumps(q.to_json()))
        code, out, _ = run(capsys, "components", "--table", str(path),
                           "--format", "json")
        assert code == 0
        assert sorted(len(b) for b in json.loads(out)["blocks"]) == [1, 2, 3]

    def test_invalid_table_refused_with_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"size": 2, "table": [[1, 0], [1, 1]]}))
        code, _, err = run(capsys, "axioms", "--table", str(path))
        assert code == 3 and err.startswith("invalid table: ")
        code, out, _ = run(capsys, "axioms", "--table", str(path), "--unchecked")
        assert code == 3  # axioms verb still reports the violation
        assert "idempotency" in out

    @pytest.mark.parametrize("argv,data,err", [
        (["axioms", "--table"], lambda: {"size": 2, "table": [[1, 0], [1, 1]]},
         "invalid table: idempotency fails at (0,)\n"),
        (["components", "--conj", "--group"], lambda: {"mult": NON_ASSOCIATIVE_LOOP},
         "invalid table: associativity fails at (1, 1, 1)\n"),
        (["axioms", "--mcq"], _mcq_with_a_wrong_conjugation,
         "invalid table: conjugation fails at (0, 0)\n"),
    ], ids=["table", "group", "mcq"])
    def test_each_loader_refuses_a_failing_file_with_its_witness(self, capsys, tmp_path,
                                                                 argv, data, err):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data()))
        assert run(capsys, *argv, str(path)) == (3, "", err)

    @pytest.mark.parametrize("source,flags", [
        ("table", []), ("table", ["--assoc"]), ("table", ["--format", "json"]),
        ("mcq", []), ("mcq", ["--format", "json"])])
    def test_a_checked_file_is_checked_once(self, capsys, monkeypatch, tmp_path, source, flags):
        import quandles.mcq as mcq
        import quandles.quandle as quandle

        q = dihedral(6).quandle
        path = tmp_path / "src.json"
        path.write_text(json.dumps((associated_mcq(q) if source == "mcq" else q).to_json()))
        calls = []
        for module, name in [(quandle, "check_axioms"), (mcq, "check_axioms"),
                             (cli, "check_axioms"), (mcq, "check_mcq_axioms"),
                             (cli, "check_mcq_axioms")]:
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda x, real=real: calls.append(x) or real(x))
        expected = '{"ok": true}\n' if "json" in flags else "ok\n"
        assert run(capsys, "axioms", f"--{source}", str(path), *flags) == (0, expected, "")
        assert len(calls) == 1

    @pytest.mark.parametrize("flags", [[], ["--assoc"], ["--format", "json"]])
    def test_a_group_source_needs_no_axiom_check(self, capsys, monkeypatch, tmp_path, flags):
        import quandles.mcq as mcq
        import quandles.quandle as quandle

        path = tmp_path / "conj-s4.json"
        path.write_text(json.dumps(conj_quandle(symmetric_group(4)).to_json()))
        expected = run(capsys, "axioms", "--table", str(path), *flags)
        calls = []
        for module, name in [(quandle, "check_axioms"), (mcq, "check_axioms"),
                             (cli, "check_axioms"), (cli, "check_associated_axioms"),
                             (cli, "conj_quandle")]:
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda x, real=real: calls.append(x) or real(x))
        assert run(capsys, "axioms", "--symmetric", "6", "--conj", *flags) == expected
        assert run(capsys, "axioms", "--symmetric", "4", "--conj", *flags) == expected
        assert calls == []

    def test_unchecked_lets_components_run(self, capsys, tmp_path):
        q = dihedral(5).quandle
        path = tmp_path / "q.json"
        path.write_text(json.dumps(q.to_json()))
        code, _, _ = run(capsys, "components", "--table", str(path), "--unchecked")
        assert code == 0

    def test_unchecked_components_refuse_non_bijective_columns(self, capsys, tmp_path):
        # 0 * 0 == 1 * 0: the column of 0 is no bijection, so the --unchecked
        # column check of the loaded table refuses it before orbits runs
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"size": 2, "table": [[0, 0], [0, 1]]}))
        assert run(capsys, "components", "--table", str(path), "--unchecked") == (
            3, "", "invalid table: right translations are not bijections "
                   "(right-invertibility fails at (0, 1, 0))\n")

    # every op column is a bijection, so the column check passes; but the
    # translation by 2 moves the identities of groups 0 and 2 both into
    # group 1, so the forward orbits of the group indices overlap
    OVERLAPPING_MCQ = {"groups": [{"mult": [[0]], "identity": 0},
                                  {"mult": [[0, 1], [1, 0]], "identity": 0},
                                  {"mult": [[0]], "identity": 0}],
                       "op": [[0, 0, 1, 0], [1, 1, 0, 1], [2, 2, 3, 2], [3, 3, 2, 3]]}

    @pytest.mark.parametrize("verb", ["components", "maxdecomp"])
    def test_unchecked_mcq_whose_index_orbits_overlap_is_refused(self, capsys, tmp_path, verb):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(self.OVERLAPPING_MCQ))
        assert run(capsys, verb, "--mcq", str(path), "--unchecked") == (
            3, "", "invalid table: right translations are not bijections\n")

    def test_unchecked_assoc_axioms_read_the_type_of_a_walk_with_a_tail(self, capsys, tmp_path):
        # column 0 walks 0 -> 1, where 1 is fixed, so the type is 2
        path = tmp_path / "tail.json"
        path.write_text(json.dumps({"size": 3, "table": [[1, 0, 0], [1, 1, 1], [2, 2, 2]]}))
        assert run(capsys, "axioms", "--table", str(path), "--assoc", "--unchecked",
                   "--format", "json") == (
            3, '{"axiom": "conjugation", "ok": false, "witness": [0, 1]}\n', "")

    @pytest.mark.parametrize("verb", ["components", "maxdecomp", "iso", "assoc"])
    def test_unchecked_refuses_non_bijective_columns_for_every_verb_but_axioms(
            self, capsys, tmp_path, verb):
        # 0 * 0 == 1 * 0 == 1, and the forward orbits do not overlap
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"size": 2, "table": [[1, 0], [1, 1]]}))
        argv = [verb, "--table", str(path), "--unchecked"]
        if verb == "iso":
            argv += ["--dihedral", "2"]
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == ("invalid table: right translations are not bijections "
                       "(right-invertibility fails at (0, 1, 0))\n")
        # not a group: its conjugation table has 1 * 1 == 2 * 1
        group = tmp_path / "g.json"
        group.write_text(json.dumps({"mult": [[0, 1, 2], [1, 0, 0], [2, 0, 0]], "identity": 0}))
        argv[1:3] = ["--group", str(group), "--conj"]
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == ("invalid table: right translations are not bijections "
                       "(right-invertibility fails at (1, 2, 1))\n")
        # two trivial groups under the same op
        trivial = {"mult": [[0]], "identity": 0}
        mcq = tmp_path / "m.json"
        mcq.write_text(json.dumps({"groups": [trivial, trivial], "op": [[1, 0], [1, 1]]}))
        argv[1:4] = ["--mcq", str(mcq)]
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == ("invalid table: right translations are not bijections "
                       "(right-invertibility fails at (0, 1, 0))\n")

    GROUP = {"mult": [[0, 1], [1, 0]], "identity": 0}

    @pytest.mark.parametrize("flag,data,message", [
        pytest.param(flag, data, message, id=name) for name, flag, data, message in [
            # each file has one fault, refused as before the one table reader
            ("table-text", "--table", {"table": [["a"]]}, "'table' entries must be integers"),
            ("table-bool", "--table", {"table": [[True]]}, "'table' entries must be integers"),
            ("table-float", "--table", {"table": [[0.0]]}, "'table' entries must be integers"),
            ("table-row-int", "--table", {"table": [5]}, "'table' must be a list of lists"),
            ("table-int", "--table", {"table": 5}, "'table' must be a list of lists"),
            ("table-str", "--table", {"table": "x"}, "'table' must be a list of lists"),
            ("table-labels", "--table", {"table": [[0]], "labels": 5}, "'labels' must be a list"),
            ("table-top-list", "--table", [[0]], "expected an object with a 'table' field"),
            ("table-missing", "--table", {}, "missing 'table'"),
            ("table-ragged", "--table", {"table": [[0, 1], [1]]}, "table must be square"),
            ("table-negative", "--table", {"table": [[-1]]}, "table entries must index elements"),
            ("table-range", "--table", {"table": [[3]]}, "table entries must index elements"),
            ("table-empty", "--table", {"table": []}, "a quandle is non-empty"),
            ("table-label-count", "--table", {"table": [[0]], "labels": ["a", "b"]},
             "labels must match the table size"),
            ("table-size", "--table", {"table": [[0]], "size": 2},
             "'size' disagrees with the table"),
            ("group-text", "--group", {"mult": [["a"]]}, "'mult' entries must be integers"),
            ("group-bool", "--group", {"mult": [[True]]}, "'mult' entries must be integers"),
            ("group-float", "--group", {"mult": [[0.0]]}, "'mult' entries must be integers"),
            ("group-row-int", "--group", {"mult": [0]}, "'mult' must be a list of lists"),
            ("group-int", "--group", {"mult": 0}, "'mult' must be a list of lists"),
            ("group-labels", "--group", {"mult": [[0, 1], [1, 0]], "labels": {"a": 1}},
             "'labels' must be a list"),
            ("group-top-list", "--group", [[0]], "expected an object with a 'mult' field"),
            ("group-missing", "--group", {"identity": 0}, "expected an object with a 'mult' field"),
            ("group-ragged", "--group", {"mult": [[0, 1], [1]], "identity": 0},
             "multiplication table must be square"),
            ("group-negative", "--group", {"mult": [[0, 1], [1, -1]], "identity": 0},
             "table entries must index elements"),
            ("group-range", "--group", {"mult": [[0, 1], [1, 2]], "identity": 0},
             "table entries must index elements"),
            ("group-empty", "--group", {"mult": []}, "a group is non-empty"),
            ("group-label-count", "--group", {"mult": [[0]], "labels": ["a", "b"]},
             "labels must match the table size"),
            ("group-size", "--group", {"mult": [[0]], "size": 2},
             "'size' disagrees with the table"),
            ("group-identity-text", "--group", {"mult": [[0, 1], [1, 0]], "identity": "x"},
             "'identity' must be an integer"),
            ("group-identity-bool", "--group", {"mult": [[0, 1], [1, 0]], "identity": True},
             "'identity' must be an integer"),
            ("group-identity-negative", "--group", {"mult": [[0, 1], [1, 0]], "identity": -1},
             "declared identity is not an identity"),
            ("group-identity-range", "--group", {"mult": [[0, 1], [1, 0]], "identity": 5},
             "declared identity is not an identity"),
            ("mcq-group-text", "--mcq", {"groups": [{"mult": [["a"]]}], "op": [[0]]},
             "'mult' entries must be integers"),
            ("mcq-group-missing", "--mcq", {"groups": [{"identity": 0}], "op": [[0]]},
             "expected an object with a 'mult' field"),
            ("mcq-op-text", "--mcq", {"groups": [GROUP], "op": [[0, "1"], [1, 0]]},
             "'op' entries must be integers"),
            ("mcq-op-bool", "--mcq", {"groups": [GROUP], "op": [[0, False], [1, 0]]},
             "'op' entries must be integers"),
            ("mcq-op-float", "--mcq", {"groups": [GROUP], "op": [[0, 1.0], [1, 0]]},
             "'op' entries must be integers"),
            ("mcq-op-row-int", "--mcq", {"groups": [GROUP], "op": [0, 1]},
             "'op' must be a list of lists"),
            ("mcq-op-int", "--mcq", {"groups": [GROUP], "op": 0}, "'op' must be a list of lists"),
            ("mcq-groups-int", "--mcq", {"groups": 5, "op": [[0]]}, "'groups' must be a list"),
            ("mcq-groups-empty", "--mcq", {"groups": [], "op": []}, "need at least one group"),
            ("mcq-labels", "--mcq", {"groups": [GROUP], "op": [[0, 0], [1, 1]], "labels": 5},
             "'labels' must be a list"),
            ("mcq-top-list", "--mcq", [GROUP], "expected an object with 'groups' and 'op' fields"),
            ("mcq-missing-op", "--mcq", {"groups": [GROUP]},
             "expected an object with 'groups' and 'op' fields"),
            ("mcq-missing-groups", "--mcq", {"op": [[0]]},
             "expected an object with 'groups' and 'op' fields"),
            ("mcq-ragged", "--mcq", {"groups": [GROUP], "op": [[0, 1], [1]]},
             "operation table must be carrier x carrier"),
            ("mcq-rows", "--mcq", {"groups": [GROUP], "op": [[0, 1]]},
             "operation table must be carrier x carrier"),
            ("mcq-empty", "--mcq", {"groups": [GROUP], "op": []},
             "operation table must be carrier x carrier"),
            ("mcq-negative", "--mcq", {"groups": [GROUP], "op": [[0, 1], [1, -1]]},
             "operation entries must index the carrier"),
            ("mcq-range", "--mcq", {"groups": [GROUP], "op": [[0, 1], [1, 2]]},
             "operation entries must index the carrier"),
            ("mcq-label-count", "--mcq", {"groups": [GROUP], "op": [[0, 0], [1, 1]],
                                         "labels": ["a"]},
             "labels must match the carrier size"),
            # these loaded before the one table reader: a size that is not an
            # int, and labels that are neither strings nor ints
            ("table-size-bool", "--table", {"table": [[0]], "size": True},
             "'size' must be an integer"),
            ("table-size-float", "--table", {"table": [[0, 0], [1, 1]], "size": 2.0},
             "'size' must be an integer"),
            ("group-size-bool", "--group", {"mult": [[0]], "size": True},
             "'size' must be an integer"),
            ("group-size-float", "--group", {"mult": [[0]], "size": 1.0},
             "'size' must be an integer"),
            ("table-label-null", "--table", {"table": [[0, 0], [1, 1]], "labels": [None, [1]]},
             "'labels' entries must be strings or integers"),
            ("table-label-bool", "--table", {"table": [[0]], "labels": [True]},
             "'labels' entries must be strings or integers"),
            ("group-label-null", "--group", {"mult": [[0]], "labels": [None]},
             "'labels' entries must be strings or integers"),
            ("mcq-label-null", "--mcq", {"groups": [GROUP], "op": [[0, 0], [1, 1]],
                                        "labels": [None, "b"]},
             "'labels' entries must be strings or integers"),
            # two faults: the first in the one order is named
            ("two-group-text-and-identity", "--group", {"mult": [["a"]], "identity": "x"},
             "'mult' entries must be integers"),
            ("two-group-empty-and-size", "--group", {"mult": [], "size": 1},
             "a group is non-empty"),
            # and these named the other fault before: the size came before
            # emptiness for a quandle and last for a group, an MCQ's op
            # entries before its groups and its row lengths before any range,
            # and label entries went unchecked
            ("two-table-ragged-and-labels", "--table", {"table": [[0, 1], [1]], "labels": [None]},
             "'labels' entries must be strings or integers"),
            ("two-table-empty-and-size", "--table", {"table": [], "size": 1},
             "a quandle is non-empty"),
            ("two-group-size-and-inverse", "--group", {"mult": [[0, 1], [1, 1]], "size": 3},
             "'size' disagrees with the table"),
            ("two-mcq-group-and-op", "--mcq", {"groups": [{"mult": [["a"]]}], "op": [[0, "x"]]},
             "'mult' entries must be integers"),
            ("two-mcq-range-before-ragged", "--mcq", {"groups": [GROUP], "op": [[0, 5], [1]]},
             "operation entries must index the carrier"),
            # shape and range are checked on all rows at once; the first
            # fault in row order is still the one named
            ("two-table-ragged-before-range", "--table", {"table": [[0], [5, 0]]},
             "table must be square"),
            ("two-table-range-before-ragged", "--table", {"table": [[0, 5], [0]]},
             "table entries must index elements"),
            ("two-table-negative-before-ragged", "--table", {"table": [[-1, 0], [0]]},
             "table entries must index elements"),
            ("two-group-ragged-before-range", "--group", {"mult": [[0], [5, 0]]},
             "multiplication table must be square"),
            ("two-group-range-before-ragged", "--group", {"mult": [[0, 5], [0]]},
             "table entries must index elements"),
            ("two-group-negative-before-ragged", "--group", {"mult": [[-1, 0], [0]]},
             "table entries must index elements"),
            ("two-mcq-ragged-before-range", "--mcq", {"groups": [GROUP], "op": [[0], [5, 0]]},
             "operation table must be carrier x carrier"),
            ("two-mcq-negative-before-ragged", "--mcq", {"groups": [GROUP], "op": [[-1, 0], [0]]},
             "operation entries must index the carrier"),
        ]])
    @pytest.mark.parametrize("unchecked", [False, True], ids=["checked", "unchecked"])
    def test_malformed_files_are_input_errors(self, capsys, tmp_path, flag, data, message,
                                              unchecked):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        argv = ["components", flag, str(path)] + ["--conj"] * (flag == "--group")
        code, out, err = run(capsys, *argv, *["--unchecked"] * unchecked)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    # raw file text: json.dumps cannot spell these entries
    @pytest.mark.parametrize("entry,expected", [
        ("1e0", (2, "", "error: 'table' entries must be integers\n")),
        ("1.0", (2, "", "error: 'table' entries must be integers\n")),
        ("-0", (0, "1 connected component(s), sizes [1]:\n  {0}\n", "")),
    ], ids=["exponent", "fraction", "minus-zero"])
    def test_number_spellings_keep_their_refusals(self, capsys, tmp_path, entry, expected):
        path = tmp_path / "n.json"
        path.write_text('{"table": [[%s]]}' % entry)
        assert run(capsys, "components", "--table", str(path)) == expected

    def test_entry_past_the_digit_limit_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "n.json"
        path.write_text('{"table": [[%s]]}' % ("7" * 5000))
        code, out, err = run(capsys, "components", "--table", str(path))
        # the rest of the message is Python's own wording of its limit
        assert (code, out) == (2, "") and err.startswith("error: ") and "4300" in err

    def test_loaded_table_holds_one_int_per_value(self, tmp_path):
        path = tmp_path / "cs6.json"
        path.write_text(json.dumps(conj_quandle(symmetric_group(6)).to_json()))
        data = cli._load_json(path)
        assert len({id(x) for row in data["table"] for x in row}) == 720
        q = FiniteQuandle.from_json(data)
        assert len({id(x) for row in q.table for x in row}) == 720

    def test_constructors_read_tuples_and_refuse_bools(self):
        # the constructors share the files' reader: tuple rows and labels pass
        q = FiniteQuandle(((0, 0), (1, 1)), ("a", 1))
        assert (q.table, q.labels) == (((0, 0), (1, 1)), ("a", "1"))
        g = FiniteGroup(((0, 1), (1, 0)), labels=("e", "s"))
        assert (g.mult, g.identity, g.labels) == (((0, 1), (1, 0)), 0, ("e", "s"))
        x = MCQ((g,), ((0, 0), (1, 1)), ("e", "s"))
        assert (x.op, x.labels) == (((0, 0), (1, 1)), ("e", "s"))
        for make in (FiniteQuandle, FiniteGroup, lambda t: MCQ((cyclic_group(1),), t)):
            with pytest.raises(ValueError, match="entries must be integers"):
                make([[True]])

    def test_checked_group_file_of_order_720(self, capsys, tmp_path):
        # S6 relabelled by a seeded shuffle; the loader checks associativity
        g = symmetric_group(6).to_json()
        sigma = random.Random(6).sample(range(720), 720)
        mult = [[0] * 720 for _ in range(720)]
        for x, row in enumerate(g["mult"]):
            for y, xy in enumerate(row):
                mult[sigma[x]][sigma[y]] = sigma[xy]
        labels = [None] * 720
        for x, label in enumerate(g["labels"]):
            labels[sigma[x]] = label
        path = tmp_path / "s6.json"
        path.write_text(json.dumps({"size": 720, "mult": mult, "identity": sigma[0],
                                    "labels": labels}))
        code, out, _ = run(capsys, "components", "--group", str(path), "--conj", "--format", "json")
        assert code == 0
        # the classes in the original indices
        blocks = sorted(sorted(sigma.index(x) for x in block)
                        for block in json.loads(out)["blocks"])
        code, out, _ = run(capsys, "components", "--symmetric", "6", "--conj", "--format", "json")
        assert code == 0 and blocks == json.loads(out)["blocks"]
        assert len(blocks) == 11


def _refuse_type_of(*args, **kwargs):
    raise AssertionError("the type was worked out from the table")


class TestAlexanderSources:
    """components/maxdecomp on a lone Alexander source skip the table; the
    output must match the table path byte for byte."""

    SOURCES = [("--alexander", text) for text in
               ("1; t+1", "6; t^2+t+1", "12; t+5", "6; 2t+4; t^2+t+1", "8; t^2+1; 2t+2")]
    SOURCES += [("--dihedral", str(m)) for m in (1, 6, 9, 16)]

    @pytest.mark.parametrize("verb", ["components", "maxdecomp", "assoc"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("flag,value", SOURCES)
    def test_matches_table_path(self, capsys, tmp_path, verb, fmt, flag, value):
        if flag == "--alexander":
            q = alexander_quandle(build(parse_ideal(value))).quandle
        else:
            q = dihedral(int(value)).quandle
        path = tmp_path / "q.json"
        path.write_text(json.dumps(q.to_json()))
        direct = run(capsys, verb, flag, value, "--format", fmt)
        tabled = run(capsys, verb, "--table", str(path), "--format", fmt)
        assert direct == tabled
        assert direct[0] == 0 and direct[1]

    @pytest.mark.parametrize("argv", [["--alexander", "75; t + 43"], ["--dihedral", "12"]],
                             ids=["linear", "dihedral"])
    def test_assoc_takes_the_type_from_t(self, capsys, tmp_path, monkeypatch, argv):
        q = alexander_quandle(build(parse_ideal("75; t + 43" if argv[0] == "--alexander"
                                                else "12; t+1"))).quandle
        path = tmp_path / "q.json"
        path.write_text(json.dumps(q.to_json()))
        tabled = run(capsys, "assoc", "--table", str(path), "--assoc", "--format", "json")
        assert json.loads(tabled[1]) == associated_mcq(q).to_json()
        monkeypatch.setattr("quandles.mcq.type_of", _refuse_type_of)
        assert run(capsys, "assoc", *argv, "--assoc", "--format", "json") == tabled

    AXIOM_FLAGS = [[], ["--assoc"], ["--unchecked"], ["--assoc", "--unchecked"]]

    @pytest.mark.parametrize("argv", [["--alexander", "6; t^2+t+1"], ["--dihedral", "7"],
                                      ["--alexander", "100000; t+1"]],
                             ids=["rank-2", "dihedral", "order-1e5"])
    def test_axioms_answer_without_a_table(self, capsys, tmp_path, monkeypatch, argv):
        # build made t invertible, so the quandle and its associated MCQ hold
        import quandles.mcq as mcq
        import quandles.quandle as quandle

        ok = (0, "ok\n", "")
        if argv[1] != "100000; t+1":  # the bytes of the table path
            ideal = argv[1] if argv[0] == "--alexander" else f"{argv[1]}; t+1"
            q = alexander_quandle(build(parse_ideal(ideal))).quandle
            path = tmp_path / "q.json"
            path.write_text(json.dumps(q.to_json()))
            for flags in self.AXIOM_FLAGS:
                assert run(capsys, "axioms", "--table", str(path), *flags) == ok
        for module in (cli, quandle, mcq):
            for name in ("alexander_quandle", "check_axioms", "check_associated_axioms"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, _refuse_work)
        for flags in self.AXIOM_FLAGS:
            assert run(capsys, "axioms", *argv, *flags) == ok

    @pytest.mark.parametrize("verb", ["components", "maxdecomp", "assoc"])
    @pytest.mark.parametrize("argv,code,err", [
        (["--dihedral", "0"], 2, "error: order must be positive\n"),
        (["--dihedral", "x"], 2, "error: invalid literal for int() with base 10: 'x'\n"),
        (["--alexander", "0; t+1"], 2, "parse error: modulus must be positive (position 0)\n"),
        (["--alexander", "4; 2t+2"], 4, "unsupported presentation: no generator of (4; 2+2t) "
                                         "has a unit leading or trailing coefficient mod 4\n"),
        (["--alexander", "6; t+1", "--dihedral", "3"], 2,
         "error: this command needs exactly one source flag\n"),
    ], ids=["dihedral-zero", "dihedral-text", "modulus-zero", "unsupported", "two-sources"])
    def test_error_paths(self, capsys, verb, argv, code, err):
        assert run(capsys, verb, *argv) == (code, "", err)
        # the table path of another verb reports the same
        if len(argv) == 2:
            assert run(capsys, "axioms", *argv) == (code, "", err)


def _refuse_table(*args, **kwargs):
    raise AssertionError("a conjugation table was built")


def _refuse_work(*args, **kwargs):
    raise AssertionError("a table was built or checked for an answer known without it")


class TestConjGroupSources:
    """components/maxdecomp on a lone group source with --conj decompose
    from the multiplication rows; the output must match the table path
    byte for byte."""

    # a loop whose inverses are two-sided, and S3 with the product (1, 2)
    # changed: neither is associative; the loop's conjugation columns are
    # bijections, S3's collide
    LOOP = NON_ASSOCIATIVE_LOOP
    NEAR_S3 = [[0, 1, 2, 3, 4, 5], [1, 0, 4, 2, 5, 4], [2, 4, 0, 5, 1, 3],
               [3, 5, 1, 4, 0, 2], [4, 2, 5, 0, 3, 1], [5, 3, 4, 1, 2, 0]]
    COLLISION = ("invalid table: right translations are not bijections "
                 "(right-invertibility fails at (3, 4, 1))\n")

    SOURCES = [("--symmetric", "5"), ("--cyclic", "12"), ("--group", "s4.json")]

    @pytest.mark.parametrize("verb", ["components", "maxdecomp"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("flag,value", SOURCES)
    def test_matches_table_path(self, capsys, tmp_path, verb, fmt, flag, value, assoc=()):
        g = symmetric_group(5 if flag == "--symmetric" else 4)
        if flag == "--cyclic":
            g = cyclic_group(12)
        if flag == "--group":
            value = str(tmp_path / value)
            Path(value).write_text(json.dumps(g.to_json()))
        path = tmp_path / "q.json"
        path.write_text(json.dumps(conj_quandle(g).to_json()))
        direct = run(capsys, verb, flag, value, "--conj", *assoc, "--format", fmt)
        tabled = run(capsys, verb, "--table", str(path), *assoc, "--format", fmt)
        assert direct == tabled
        assert direct[0] == 0 and direct[1]

    @pytest.mark.parametrize("verb", ["components", "maxdecomp"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("flag,value", SOURCES)
    def test_assoc_matches_table_path(self, capsys, tmp_path, verb, fmt, flag, value):
        self.test_matches_table_path(capsys, tmp_path, verb, fmt, flag, value, ("--assoc",))

    @pytest.mark.parametrize("verb", ["components", "maxdecomp"])
    def test_builds_no_conjugation_table(self, capsys, tmp_path, monkeypatch, verb):
        dec = maximal_decomposition(conj_quandle(symmetric_group(6)))
        path = tmp_path / "s4.json"
        path.write_text(json.dumps(symmetric_group(4).to_json()))
        monkeypatch.setattr("quandles.cli.conj_quandle", _refuse_table)
        code, out, err = run(capsys, verb, "--conj", "--symmetric", "6", "--format", "json")
        assert (code, err) == (0, "")
        if verb == "components":
            assert json.loads(out) == {"blocks": dec.levels[1].to_json()}
        else:
            assert json.loads(out) == dec.to_json()
        for argv in (["--cyclic", "9"], ["--group", str(path)], ["--group", str(path),
                                                                 "--unchecked"]):
            code, out, err = run(capsys, verb, "--conj", *argv)
            assert code == 0 and out and err == ""
        if verb == "components":  # with --assoc, the index orbits are the components
            code, out, err = run(capsys, verb, "--conj", "--assoc", "--symmetric", "6",
                                 "--format", "json")
            assert (code, json.loads(out), err) == (0, {"blocks": dec.levels[1].to_json()}, "")

    @pytest.mark.parametrize("verb,mult,expected", [
        ("components", LOOP, (0, "2 connected component(s), sizes [1, 5]:\n"
                                 "  {0}\n  {1, 2, 3, 4, 5}\n", "")),
        ("maxdecomp", LOOP, (0, "depth: 1\nlevel 0: 1 block(s), sizes [6]\n"
                                "level 1: 2 block(s), sizes [1, 5]\n"
                                "level 2: 2 block(s), sizes [1, 5]\n"
                                "final blocks:\n  {0}\n  {1, 2, 3, 4, 5}\n", "")),
        ("components", NEAR_S3, (3, "", COLLISION)),
        ("maxdecomp", NEAR_S3, (3, "", COLLISION)),
    ], ids=["loop-components", "loop-maxdecomp", "near-s3-components", "near-s3-maxdecomp"])
    def test_unchecked_non_associative_file_keeps_the_table_path(self, capsys, tmp_path,
                                                                 monkeypatch, verb, mult,
                                                                 expected):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"mult": mult}))
        reads, scans = [], []
        load_json = cli._load_json
        monkeypatch.setattr(cli, "_load_json", lambda p: reads.append(p) or load_json(p))
        first_nonassociative = group._first_nonassociative
        monkeypatch.setattr(group, "_first_nonassociative",
                            lambda g: scans.append(g) or first_nonassociative(g))
        assert run(capsys, verb, "--group", str(path), "--conj", "--unchecked") == expected
        assert reads == [str(path)]  # the table path takes the loaded group
        assert scans == []  # the eligibility test needs no witness
        # checked, the loader refuses it
        code, out, err = run(capsys, verb, "--group", str(path), "--conj")
        assert (code, out) == (3, "") and err.startswith("invalid table: associativity fails")


def _refuse_carrier(*args, **kwargs):
    raise AssertionError("a carrier table was built")


class TestAssociatedSources:
    """components, maxdecomp and axioms with --assoc answer from the base
    quandle; the output must match the built structure loaded with --mcq,
    byte for byte."""

    SOURCES = ["dihedral", "rank-1", "rank-2", "trivial-ring", "conj", "table", "group"]

    @staticmethod
    def source(tmp_path, name):
        """(argv, base quandle) for one source kind."""
        if name == "table":
            q = alexander_quandle(build(parse_ideal("9; t+2"))).quandle
            path = tmp_path / "q.json"
            path.write_text(json.dumps(q.to_json()))
            return ["--table", str(path)], q
        if name == "group":
            path = tmp_path / "g.json"
            path.write_text(json.dumps(symmetric_group(3).to_json()))
            return ["--group", str(path), "--conj"], conj_quandle(symmetric_group(3))
        if name == "conj":
            return ["--symmetric", "4", "--conj"], conj_quandle(symmetric_group(4))
        if name == "dihedral":
            return ["--dihedral", "6"], dihedral(6).quandle
        ideal = {"rank-1": "7; t+4", "rank-2": "6; t^2+t+1", "trivial-ring": "1; t+1"}[name]
        return ["--alexander", ideal], alexander_quandle(build(parse_ideal(ideal))).quandle

    @pytest.mark.parametrize("verb", ["components", "maxdecomp", "axioms"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name", SOURCES)
    def test_matches_the_built_structure(self, capsys, tmp_path, verb, fmt, name):
        argv, q = self.source(tmp_path, name)
        path = tmp_path / "mcq.json"
        path.write_text(json.dumps(associated_mcq(q).to_json()))
        direct = run(capsys, verb, *argv, "--assoc", "--format", fmt)
        built = run(capsys, verb, "--mcq", str(path), "--format", fmt,
                    *["--unchecked"] * (verb == "axioms"))
        assert direct == built
        assert direct[0] == 0 and direct[1] and direct[2] == ""

    def test_text_of_the_dihedral_quandle_of_order_four(self, capsys):
        # type 2: the pair (x, g) is carrier index 2x + g, labeled (x;g)
        assert run(capsys, "components", "--dihedral", "4", "--assoc") == (0, (
            "2 index orbit(s):\n"
            "  {0, 2}\n"
            "  {1, 3}\n"), "")
        assert run(capsys, "maxdecomp", "--dihedral", "4", "--assoc") == (0, (
            "depth: 2\n"
            "level 0: 1 index block(s), sizes [4]\n"
            "level 1: 2 index block(s), sizes [2, 2]\n"
            "level 2: 4 index block(s), sizes [1, 1, 1, 1]\n"
            "level 3: 4 index block(s), sizes [1, 1, 1, 1]\n"
            "carrier blocks:\n"
            "  {(0;0), (0;1)}\n"
            "  {(1;0), (1;1)}\n"
            "  {(2;0), (2;1)}\n"
            "  {(3;0), (3;1)}\n"), "")

    @pytest.mark.parametrize("verb", ["components", "maxdecomp", "axioms", "assoc"])
    @pytest.mark.parametrize("name", SOURCES)
    def test_checked_sources_build_no_carrier(self, capsys, tmp_path, monkeypatch, verb, name):
        argv, _ = self.source(tmp_path, name)
        monkeypatch.setattr("quandles.cli.associated_mcq", _refuse_carrier)
        monkeypatch.setattr(MCQ, "__init__", _refuse_carrier)
        monkeypatch.setattr(MCQ, "_built", _refuse_carrier)
        # assoc prints the structure itself: its JSON is written from the base rows
        for fmt in ("json", "text") if verb == "assoc" else ("json",):
            code, out, err = run(capsys, verb, *argv, "--assoc", "--format", fmt)
            assert code == 0 and out and err == ""

    def test_text_assoc_of_a_module_builds_no_table(self, capsys, monkeypatch):
        expected = run(capsys, "assoc", "--alexander", "7; t+4")
        monkeypatch.setattr("quandles.cli.alexander_quandle", _refuse_carrier)
        assert run(capsys, "assoc", "--alexander", "7; t+4") == expected
        assert expected[1].startswith("7 group(s) of order 6, carrier size 42\ncarrier: (0;0), ")

    def test_a_failing_unchecked_table_still_reports_the_built_witness(self, capsys, tmp_path):
        # bijective columns, not idempotent: the witness is the structure's own
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"size": 2, "table": [[1, 0], [0, 1]]}))
        code, out, err = run(capsys, "axioms", "--table", str(path), "--unchecked", "--assoc")
        assert (code, err) == (3, "")
        q = FiniteQuandle([[1, 0], [0, 1]])
        mcq = tmp_path / "m.json"
        mcq.write_text(json.dumps(associated_mcq(q).to_json()))
        assert run(capsys, "axioms", "--mcq", str(mcq), "--unchecked") == (code, out, err)
        assert out.startswith("violation: conjugation")

    def test_maxdecomp_of_a_carrier_too_large_to_tabulate(self, capsys):
        # Conj(S6) has type 60, so its carrier is 43,200 and its table 1.9e9 cells
        q = conj_quandle(symmetric_group(6))
        assert type_of(q) == 60
        dec = maximal_decomposition(q)
        code, out, err = run(capsys, "maxdecomp", "--symmetric", "6", "--conj", "--assoc",
                             "--format", "json")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["depth"] == dec.depth
        assert data["levels"] == [level.to_json() for level in dec.levels]
        expected = sorted(sorted(x * 60 + g for x in block for g in range(60))
                          for block in dec.final)
        assert data["carrier_blocks"] == expected
        assert sum(map(len, expected)) == 43200

    def test_iso_refuses_before_converting(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("quandles.cli.associated_mcq", _refuse_carrier)
        monkeypatch.setattr(MCQ, "__init__", _refuse_carrier)
        refusal = (2, "", "error: iso compares quandles, not MCQs\n")
        assert run(capsys, "iso", "--symmetric", "5", "--conj", "--dihedral", "3",
                   "--assoc") == refusal
        assert run(capsys, "iso", "--dihedral", "3", "--dihedral", "3", "--assoc") == refusal
        # errors in either source come first
        assert run(capsys, "iso", "--dihedral", "3", "--dihedral", "0", "--assoc") == (
            2, "", "error: order must be positive\n")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"size": 2, "table": [[1, 0], [1, 1]]}))
        assert run(capsys, "iso", "--dihedral", "2", "--table", str(path), "--unchecked",
                   "--assoc") == (3, "", "invalid table: right translations are not bijections "
                                         "(right-invertibility fails at (0, 1, 0))\n")


def _mixed_order_mcq():
    """Z_3 and Z_2 acting trivially on each other: x * a == x throughout."""
    return {"groups": [cyclic_group(3).to_json(), cyclic_group(2).to_json()],
            "op": [[x] * 5 for x in range(5)]}


def _unlabelled(data):
    return {k: v for k, v in data.items() if k != "labels"}


class TestAssocOutput:
    FILES = {
        "table": lambda: ("--table", conj_quandle(symmetric_group(3)).to_json()),
        "mcq": lambda: ("--mcq", associated_mcq(dihedral(5).quandle).to_json()),
        "mcq-unlabelled": lambda: ("--mcq", _unlabelled(associated_mcq(dihedral(5).quandle)
                                                        .to_json())),
        "mcq-mixed-orders": lambda: ("--mcq", _mixed_order_mcq()),
    }

    @pytest.mark.parametrize("argv", [
        ["--dihedral", "6"], ["--alexander", "5; t^2+2"],
        ["--alexander", "6; t^2+t+1; t^2+t+3"], ["--symmetric", "3", "--conj"],
        ["--symmetric", "4", "--conj"], ["--cyclic", "1", "--conj"],
        ["table"], ["mcq"], ["mcq-unlabelled"], ["mcq-mixed-orders"]])
    def test_json_is_json_dumps_of_to_json(self, capsys, tmp_path, monkeypatch, argv):
        if argv[0] in self.FILES:
            flag, data = self.FILES[argv[0]]()
            path = tmp_path / "src.json"
            path.write_text(json.dumps(data))
            argv = [flag, str(path)]
        written = run(capsys, "assoc", *argv, "--format", "json")
        # a quandle source's writer; an --mcq file's is json.dumps of to_json itself
        monkeypatch.setattr("quandles.cli.associated_json_text", lambda q, m=None: json.dumps(
            associated_mcq(q, m).to_json(), sort_keys=True))
        dumped = run(capsys, "assoc", *argv, "--format", "json")
        assert written == dumped and dumped[0] == 0 and dumped[2] == ""
        data = json.loads(written[1])
        assert MCQ.from_json(data).to_json() == data

    def test_text_names_every_group_order(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(_mixed_order_mcq()))
        assert run(capsys, "assoc", "--mcq", str(path)) == (0, (
            "2 group(s) of orders [2, 3], carrier size 5\ncarrier: 0, 1, 2, 3, 4\n"), "")
        # groups of one order keep the one-order header
        assert run(capsys, "assoc", "--dihedral", "3")[1].startswith(
            "3 group(s) of order 2, carrier size 6\n")


def _level_one_sources(tmp_path):
    """One argument list per source kind: a module, a dihedral quandle, S4,
    a relabelled S3 x C4 group file checked and unchecked, a relabelled
    Alexander table file, an MCQ file, and --assoc on a module and a table."""
    rng = random.Random(39)
    files = {
        "group": {"mult": relabelled_table(rng, _product_table(symmetric_group(3).mult,
                                                                 cyclic_group(4).mult))},
        "table": relabelled(rng, alexander_quandle(build(parse_ideal("24; t+5"))).quandle
                            ).to_json(),
        "mcq": associated_mcq(dihedral(12).quandle).to_json(),
    }
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    return [["--alexander", "8; t^3+3t^2+5t+5"], ["--dihedral", "24"], ["--symmetric", "4", "--conj"],
            ["--group", str(tmp_path / "group.json"), "--conj"],
            ["--group", str(tmp_path / "group.json"), "--conj", "--unchecked"],
            ["--table", str(tmp_path / "table.json")], ["--mcq", str(tmp_path / "mcq.json")],
            ["--alexander", "6; t^2+t+1", "--assoc"], ["--table", str(tmp_path / "table.json"), "--assoc"]]


class TestComponentsAreLevelOne:
    def test_components_are_level_one_of_maxdecomp_for_every_source_kind(self, capsys, tmp_path):
        for source in _level_one_sources(tmp_path):
            code, out, _ = run(capsys, "components", *source, "--format", "json")
            assert code == 0, source
            blocks = json.loads(out)["blocks"]
            code, out, _ = run(capsys, "maxdecomp", *source, "--format", "json")
            assert code == 0, source
            levels = json.loads(out)["levels"]
            assert blocks == levels[1] and len(levels) > 2, source


class TestDeterminism:
    def test_identical_invocations_identical_output(self, capsys):
        _, out1, _ = run(capsys, "maxdecomp", "--alexander", "6; t^2+t+1")
        _, out2, _ = run(capsys, "maxdecomp", "--alexander", "6; t^2+t+1")
        assert out1 == out2

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json"}))
        code, out, _ = run(capsys, "--config", str(cfg), "prop56", "12", "1")
        assert code == 0
        assert json.loads(out)["block_count"] == 4


class TestConfig:
    @pytest.mark.parametrize("content,message", [
        (b'{"format": "xml", "bogus": 1}', "invalid value 'xml' for 'format'"),
        (b'{"bogus": 1}', "unknown key 'bogus'"),
        (b'{"ideal": "6; t+1"}', "unknown key 'ideal'"),
        (b'{"seed": "7"}', "invalid value '7' for 'seed'"),
        (b'{"unchecked": 1}', "invalid value 1 for 'unchecked'"),
        (b'["format", "json"]', "must hold a JSON object"),
        (b'{"format": ', "cannot read config file"),
        (b'\xff\xfe', "cannot read config file"),
    ])
    def test_bad_config_is_a_parse_error(self, capsys, tmp_path, content, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        code, out, err = run(capsys, "--config", str(cfg), "prop56", "12", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_unreadable_config_is_a_parse_error(self, capsys, tmp_path, name):
        code, out, err = run(capsys, "--config", str(tmp_path / name), "prop56", "12", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read config file")

    def test_keys_of_other_verbs_are_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json", "seed": 3, "unchecked": True}))
        code, out, _ = run(capsys, "--config", str(cfg), "prop56", "12", "1")
        assert code == 0
        assert json.loads(out)["depth"] == 2


def _parser_grid():
    """Seeded argvs: each verb with -h, with unrecognized arguments, with bad
    flag values and with random tokens; a missing verb, an unknown verb and
    --config before the verb.  The config file is never read here."""
    rng = random.Random(11)
    tokens = ["-h", "--bogus", "--format", "xml", "json", "--seed", "q", "7", "--only",
              "--dihedral", "6", "--dihedral=5", "--alexander", "6; t^2+t+1", "--conj",
              "--symmetric", "3", "--assoc", "--unchecked", "--form", "12", "1", "x", "--", "-",
              "--config", "cfg.json", "components"]
    grid = [[], ["-h"], ["--help"], ["bogus"], ["Components"], ["bogus", "-h"], ["--bogus"],
            ["--config"], ["--config", "cfg.json"], ["--config", "cfg.json", "-h"],
            ["--config", "cfg.json", "bogus"], ["--config=cfg.json", "prop56", "12", "1"]]
    for verb in cli._VERBS:
        grid += [[verb, "-h"], [verb, "--bogus"], [verb, "x", "y", "z"], [verb, "--format", "xml"],
                 [verb, "--seed", "q"], ["--config", "cfg.json", verb, "--bogus"]]
        grid += [[verb, *rng.choices(tokens, k=rng.randint(0, 5))] for _ in range(8)]
    # appended after the seeded draws, which keep their seeds: abbreviations, --config
    # after the verb, a negative number, "--", and the tokens that the full tree itself
    # reads before the subparser: an ambiguous "--=" and an explicit argument to --help
    grid += [["components", "--dihedral", "6", "--form", "json"], ["components", "--al", "5; t+2"],
             ["components", "--dihedral", "6", "--config", "cfg.json"],
             ["components", "--dihedral", "6", "--config=cfg.json"],
             ["prop56", "12", "-5"], ["prop56", "--", "12", "1"]]
    grid += [[verb, token] for token in ("--=x", "--help=x") for verb in cli._VERBS]
    return grid


def _counting_builds(monkeypatch):
    """A list that grows by one each time the full tree is built."""
    builds = []
    real = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or real())
    return builds


def _call(capsys, call):
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _parse(capsys, parse):
    namespace = []
    code, out, err = _call(capsys, lambda: namespace.append(vars(parse())))
    return code, out, err, namespace


class TestParserRoute:
    """main parses a leading verb's arguments with that verb's parser alone,
    and builds the full tree only for an argv without a leading verb or to
    word a top-level error; either way, every argv gets the full tree's
    answer, usage and error bytes too."""

    @pytest.mark.parametrize("argv", _parser_grid(), ids=" ".join)
    def test_the_verb_parser_parses_as_the_full_parser(self, capsys, monkeypatch, argv):
        full = _parse(capsys, lambda: cli._build_parser()[0].parse_args(argv))
        builds = _counting_builds(monkeypatch)
        assert _parse(capsys, lambda: cli._parse_args(argv)[0]) == full
        top_level_error = full[2].startswith("usage: quandles [-h]")
        assert len(builds) == (not (argv and argv[0] in cli._VERBS) or top_level_error)

    def test_an_unknown_verb_is_named_by_argparse_s_own_metavar(self, capsys):
        with pytest.raises(SystemExit):
            main(["bogus"])
        assert "error: argument verb: invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["components", "--dihedral", "6"],
                                      ["--config", "cfg.json", "prop56", "12", "1"], []])
    def test_main_without_argv_reads_sys_argv(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"format": "json"}))
        monkeypatch.setattr(sys, "argv", ["quandles", *argv])
        builds = _counting_builds(monkeypatch)
        outcomes = []
        for call in (main, lambda: main(argv)):
            builds.clear()
            outcomes.append((_call(capsys, call), len(builds)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == (argv[:1] != ["components"])

    def test_a_process_prints_the_in_process_usage_error(self, capsys, monkeypatch):
        argv = ["components", "--dihedral", "6", "--bogus"]
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
        with pytest.raises(SystemExit) as info:
            main(argv)
        err = capsys.readouterr().err
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, COLUMNS="80",
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-m", "quandles.cli", *argv],
                              capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (info.value.code, b"", err)
        assert info.value.code == 2 and "prop56,verify}" in err


class TestVerify:
    def test_subset_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "six-cubic")
        assert code == 0
        assert "0 failure(s)" in out

    def test_tampered_expectation_fails_once(self, capsys, monkeypatch):
        import quandles.verify as V

        monkeypatch.setitem(V.EXPECTED, "conj-s4-final-sizes", (1, 1, 1, 1, 4, 4, 6, 7))
        code, out, _ = run(capsys, "verify", "--only", "conj-symmetric")
        assert code == 1
        lines = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(lines) == 1
        assert "maximal block sizes" in lines[0]

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "component-ideal",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["failures"] == 0
        assert all(row["ok"] for row in data["checks"])

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_an_only_that_matches_no_group_is_refused(self, capsys, tmp_path, how):
        # an empty run would pass: a typo in a CI step or a config file must not
        if how == "flag":
            argv = ["verify", "--only", "no-such-group"]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"only": "no-such-group"}))
            argv = ["--config", str(path), "verify"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: --only 'no-such-group' matches no check group; ")
        assert all(name in err for name, _ in CHECK_GROUPS)


def test_a_reader_closing_stdout_ends_the_call_quietly_with_141():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    # the JSON of this carrier-300 structure is far larger than a pipe buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "quandles.cli", "assoc", "--dihedral", "150", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(10) == b'{"groups":'
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


class TestResourceLimit:
    """MemoryError, RecursionError and OverflowError end a call with one line
    on stderr and exit 5, never a traceback; the first two are raised by
    patched callees, since the test must not exhaust anything."""

    @staticmethod
    def _raise(exc):
        def callee(*args, **kwargs):
            raise exc
        return callee

    def test_recursion_in_the_isomorphism_search(self, capsys, monkeypatch):
        import quandles.cli as cli

        monkeypatch.setattr(cli, "find_isomorphism",
                            self._raise(RecursionError("maximum recursion depth exceeded")))
        assert run(capsys, "iso", "--dihedral", "3", "--dihedral", "3") == (
            5, "", "error: resource limit: RecursionError: maximum recursion depth exceeded\n")

    @pytest.mark.parametrize("argv", [["build", "6; t^2+t+1"],
                                      ["components", "--alexander", "6; t^2+t+1"],
                                      ["axioms", "--alexander", "6; t^2+t+1", "--format", "json"]])
    def test_memory_in_the_module_build(self, capsys, monkeypatch, argv):
        import quandles.cli as cli

        monkeypatch.setattr(cli, "build", self._raise(MemoryError()))
        assert run(capsys, *argv) == (5, "", "error: resource limit: MemoryError\n")

    @pytest.mark.parametrize("argv", [["components", "--dihedral", "99999999999999999999"],
                                      ["build", "99999999999999999999999; t+1",
                                       "--format", "json"],
                                      ["assoc", "--alexander", "1180591620717411303424; t+3"]])
    def test_overflow_of_a_machine_size_integer(self, capsys, monkeypatch, argv):
        # each call raises on its first range of the order, before allocating;
        # text assoc lists the labels before it works out the order of t, a
        # walk of about 2^68 steps here, so that walk is refused
        from quandles.tmodule import FiniteTModule

        monkeypatch.setattr(FiniteTModule, "t_order",
                            property(self._raise(AssertionError("t_order was walked"))))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (5, "")
        assert err.startswith("error: resource limit: OverflowError") and err.count("\n") == 1
