import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest

from wreathfock import (catalog, classfun, cli, fock, groups, pullback,
                        ratlinalg, wreath)
from wreathfock.catalog import catalog_group
from wreathfock.cli import _write_json, main
from wreathfock.fock import change_of_basis
from wreathfock.groups import max_order_cap
from wreathfock.wreath import WreathGroup

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "demos" / "scenarios"


def run_cli(*args, env=None):
    """Run the CLI in a fresh interpreter; returns (exit code, stdout, stderr)."""
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run([sys.executable, "-m", "wreathfock", *args],
                          capture_output=True, text=True, env=full_env,
                          cwd=ROOT, stdin=subprocess.DEVNULL)
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# in-process command behaviour


def test_group_info_table(capsys):
    assert main(["group", "info", "S3"]) == 0
    out = capsys.readouterr().out
    assert "order 6" in out and "3 conjugacy classes" in out


def test_group_classes_json(capsys):
    assert main(["group", "classes", "S3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["size"] for c in doc["classes"]] == [1, 3, 2]
    assert doc["order"] == 6


def test_wreath_classes_json(capsys):
    assert main(["wreath", "classes", "C2", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 48 and doc["num_classes"] == 10
    assert sum(c["size"] for c in doc["classes"]) == 48


def test_wreath_classes_table_matches_json(capsys):
    assert main(["wreath", "classes", "S3", "3"]) == 0
    table = capsys.readouterr().out.splitlines()
    assert main(["wreath", "classes", "S3", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert table[0] == f"S3 wr S3: order {doc['order']}, {doc['num_classes']} classes"
    assert table[1:] == [f"  class {r['index']}: entries {r['type']['entries']}, "
                         f"size {r['size']}, centralizer {r['centralizer_order']}"
                         for r in doc["classes"]]


@pytest.mark.parametrize("doc", [
    {"b": [{"y": 1, "x": [1, 2]}, "s"], "a": None, "c": {"z": "\u00e9", "a": []}},
    [{"name": "n", "passed": True, "detail": "a\nb"}, {}],
    {"a": {2: "int keys", 1: None}, "e": 0.5},
    {},
    [],
    "text",
])
def test_streamed_json_matches_dumps(doc):
    out = io.StringIO()
    _write_json(out, doc)
    assert out.getvalue() == json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_streamed_json_writes_an_iterator_as_a_list():
    out = io.StringIO()
    _write_json(out, {"rows": (r for r in [{"k": 1}, {"k": 2}])})
    assert out.getvalue() == '{"rows":[{"k":1},{"k":2}]}'


def test_wreath_centralizer(capsys):
    assert main(["wreath", "centralizer", "C4", "5",
                 "--type", "[[2,2,1],[3,3,1]]", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["centralizer_order"] == 96


def test_wreath_centralizer_rejects_wrong_level(capsys):
    assert main(["wreath", "centralizer", "C4", "4",
                 "--type", "[[2,2,1],[3,3,1]]"]) == 2


def test_pullback_build_defaults_to_trivial_k(capsys):
    assert main(["pullback", "build", "--K", "trivial",
                 "--G", "C2", "--H", "C3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 6 and doc["num_classes"] == 6


def test_pullback_requires_groups(capsys):
    assert main(["pullback", "build", "--G", "C2"]) == 2


def test_pullback_check_closed_scenario(capsys):
    assert main(["pullback", "check-closed",
                 "--scenario", str(SCENARIOS / "s3xs3.json"),
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["conj_closed"] is False
    assert doc["witness"] is not None
    assert doc["fusion_pattern"]["splitting"] == 1


def test_pullback_verify_iso_scenario(capsys):
    assert main(["pullback", "verify-iso",
                 "--scenario", str(SCENARIOS / "d12_dic3.json"),
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 24 and doc["is_isomorphism"] is True


@pytest.mark.parametrize("source", [
    ["--scenario", str(SCENARIOS / "d12_dic3.json")],
    ["--scenario", str(SCENARIOS / "c2xc3_trivial.json")],
    ["--G", "S6", "--H", "S6", "--K", "trivial"],
], ids=["d12-dic3", "c2xc3-trivial", "S6-S6-trivial"])
def test_closed_pullback_commands_build_no_carrier(monkeypatch, capsys,
                                                   source):
    """The verdicts of a closed pullback are class data of G, H and K: with
    the carrier and every direct product refused, all three commands still
    answer, also where |G x H| = 518 400 is above the element cap."""
    def refuse(*args, **kwargs):
        raise AssertionError("a class-level verdict built a carrier")

    monkeypatch.setattr(cli, "build_pullback", refuse)
    monkeypatch.setattr(groups, "direct_product", refuse)
    monkeypatch.setattr(pullback, "direct_product", refuse)
    docs = {}
    for command in ("build", "check-closed", "verify-iso"):
        assert main(["pullback", command, *source, "--format", "json"]) == 0
        docs[command] = json.loads(capsys.readouterr().out)
    assert docs["check-closed"]["conj_closed"] is True
    assert docs["verify-iso"]["is_isomorphism"] is True
    assert docs["build"]["num_classes"] == \
        docs["verify-iso"]["carrier_classes"]
    if source[0] == "--G":
        assert docs["build"]["order"] == docs["verify-iso"]["order"] == 518400
        assert docs["build"]["num_classes"] == 121


# the commands of the README's "Command line" section, with its group file
README_COMMANDS = [
    ["group", "info", "S3"],
    ["group", "classes", "--file", "mygroup.json"],
    ["wreath", "classes", "C2", "3"],
    ["wreath", "centralizer", "C4", "5", "--type", "[[2,2,1],[3,3,1]]"],
    ["pullback", "build", "--K", "trivial", "--G", "C2", "--H", "C3"],
    ["pullback", "check-closed", "--scenario", str(SCENARIOS / "s3xs3.json")],
    ["pullback", "verify-iso", "--scenario",
     str(SCENARIOS / "d12_dic3.json")],
    ["fock", "basis", "S3", "--level", "3"],
    ["fock", "product", "C2", "--monomial", "[[1,0,1],[1,1,1]]"],
    ["fock", "kunneth", "C2", "C3", "--max-level", "3"],
    ["fock", "series", "C2", "--max", "5"],
    ["golden"],
]


def test_no_library_route_builds_a_cayley_table(monkeypatch, capsys,
                                                 tmp_path):
    """The Cayley table is an output for tests and the benchmark's tracer:
    with it refused, the README commands and every element route answer,
    the element routes on fresh groups, whose inclusions keep no counts."""
    def refuse(group):
        raise AssertionError(f"built the Cayley table of {group.label}")

    monkeypatch.setattr(groups.FiniteGroup, "cayley_table", refuse)
    (tmp_path / "mygroup.json").write_text(json.dumps(
        {"name": "D12", "degree": 6,
         "generators": [[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]]}))
    monkeypatch.chdir(tmp_path)
    for argv in README_COMMANDS:
        assert main(argv) == 0, argv
    capsys.readouterr()
    C2, C3, S3 = map(catalog_group.__wrapped__, ("C2", "C3", "S3"))
    H, incl = groups.subgroup(S3, [0, 1])
    f = classfun.indicator(H, 1)
    assert classfun.induce(f, incl, strategy="elements") == \
        classfun.induce(f, incl, strategy="fusion")
    g, h = fock.delta(C2, 1, 1), fock.delta(C2, 2, 0)
    assert fock.fock_product(g, h, strategy="elements") == \
        fock.fock_product(g, h, strategy="fusion")
    assert change_of_basis(C3, 2, strategy="elements") == \
        change_of_basis(C3, 2, strategy="fusion")
    pullback.semidirect_product_iso(C2, C3, 2)
    assert pullback.n_cycle_closed_brute(C2, C3, 2) == \
        pullback.n_cycle_classes_closed(C2, C3, 2)


def test_pullback_that_is_not_closed_builds_the_carrier_for_its_witness(
        capsys):
    assert main(["pullback", "check-closed", "--scenario",
                 str(SCENARIOS / "s3xs3.json"), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["witness"] == \
        ["(2, 2)", "(2, 5)"]


@pytest.mark.parametrize("content,shown", [
    ("[1, 2]", "expected a JSON object with keys G, H and K, got [1, 2]"),
    ('{"G": "S3", "H": "S3", "K": "C2", "alpha": [1]}',
     "key 'alpha': a homomorphism is a JSON object with generator_images, "
     "got [1]"),
    ('{"G": "S3", "H": "S3", "K": "C2", "beta": {"images": [1]},'
     ' "alpha": {"generator_images": [[1, 0], [0, 1]]}}',
     "key 'beta': generator_images must be a list of images, got null"),
    ('{"G": "S3", "K": "C2"}', "missing key 'H'"),
    ('{"G": "nosuch", "H": "S3", "K": "C2"}',
     "key 'G': unknown catalog group: nosuch"),
    ('{"G": "S3", "H": ', "not valid JSON"),
    ('{"G": "S3", "H": "S3", "K": "C2",'
     ' "alpha": {"generator_images": [[0, "a"], 0]}}',
     "key 'alpha': bad generator image: [0, 'a']"),
    ('{"G": "C3\\n", "H": "S3", "K": "C2"}',
     "key 'G': unknown catalog group: C3\\n"),
], ids=["top-level-list", "alpha-not-an-object", "no-generator-images",
        "missing-key", "unknown-group", "not-json", "image-not-integers",
        "name-with-a-newline"])
def test_malformed_scenario_is_an_input_error(tmp_path, capsys, content,
                                              shown):
    path = tmp_path / "scenario.json"
    path.write_text(content)
    assert main(["pullback", "check-closed", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: scenario {path}: {shown}")
    assert captured.err.count("\n") == 1


def test_key_error_message_is_printed_without_quotes(capsys):
    assert main(["pullback", "check-closed", "--G", "nosuch", "--H", "S3",
                 "--K", "C2"]) == 2
    assert capsys.readouterr().err == \
        "error: unknown group 'nosuch' (not a catalog name or a file)\n"


def test_fock_basis(capsys):
    assert main(["fock", "basis", "C2", "--level", "3",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 10 and doc["invertible"] is True
    assert doc["determinant"] == "144/1"


def factorial_weights(k: int, n: int) -> list[int]:
    """prod m! over the entries of every k-colored partition of n, by a
    recursion over the (r, c) pairs independent of the library's."""
    pairs = [(r, c) for r in range(1, n + 1) for c in range(k)]

    def go(i, left):
        if left == 0:
            yield 1
        elif i < len(pairs):
            r = pairs[i][0]
            for m in range(left // r + 1):
                for w in go(i + 1, left - r * m):
                    yield w * math.factorial(m)

    return list(go(0, n))


def test_fock_basis_determinant_past_the_int_string_limit(capsys):
    # the determinant has more digits than Python converts int <-> str
    weights = factorial_weights(2, 16)
    want = Decimal(math.prod(weights))
    assert want.adjusted() + 1 > sys.get_int_max_str_digits()
    limit = sys.get_int_max_str_digits()
    argv = ["fock", "basis", "C2", "--level", "16", "--max-level", "16"]
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == len(weights)
    digits, one = doc["determinant"].split("/")
    assert Decimal(digits) == want and one == "1"
    assert main(argv) == 0
    table = re.fullmatch(r"level 16 over C2: (\d+) generator monomials, "
                         r"determinant (\d+), invertible: True\n",
                         capsys.readouterr().out)
    assert int(table[1]) == len(weights) and Decimal(table[2]) == want
    assert sys.get_int_max_str_digits() == limit


def assert_basis_is_the_product(doc: dict, weights: list[int]) -> None:
    """A `fock basis` document against the weights of its level: as many
    monomials, and the product of the weights (taken one power per
    distinct value) as the determinant."""
    digits, one = doc["determinant"].split("/")
    want = math.prod(w ** e for w, e in Counter(weights).items())
    assert doc["dimension"] == len(weights)
    assert Decimal(digits) == Decimal(want) and one == "1"


# a catalog base with each number of classes from 1 to 6
BASES_BY_CLASSES = {1: "trivial", 2: "C2", 3: "C3", 4: "C4", 5: "D8",
                    6: "Dic3"}


@pytest.mark.parametrize("k,group", sorted(BASES_BY_CLASSES.items()))
def test_fock_basis_class_count_route_is_the_product_over_types(capsys, k,
                                                                group):
    assert catalog_group(group).classes.num_classes == k
    for n in range(9):
        assert main(["fock", "basis", group, "--level", str(n),
                     "--max-level", str(n), "--format", "json"]) == 0
        assert_basis_is_the_product(json.loads(capsys.readouterr().out),
                                    factorial_weights(k, n))


def test_fock_kunneth_and_basis_list_no_type(capsys, monkeypatch):
    # both commands read class counts, so the walk over a level's types,
    # which every listing of them goes through, never runs
    def refuse(*args):
        raise AssertionError("the types of a level were listed")

    monkeypatch.setattr(wreath, "_type_walk", refuse)
    assert main(["fock", "kunneth", "D8", "Dic3", "--max-level", "6",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "G": "D8", "H": "Dic3", "max_level": 6, "checks": 180,
        "all_equal": True}
    assert main(["fock", "basis", "Dic3", "--level", "10", "--max-level", "10",
                 "--format", "json"]) == 0
    assert_basis_is_the_product(json.loads(capsys.readouterr().out),
                                factorial_weights(6, 10))
    # the two class-count routes of `fock series` list no type either
    dic3 = [1, 6, 27, 98, 315, 918, 2492, 6372, 15525, 36280, 81816, 178794,
            380051, 788004, 1597725]
    assert main(["fock", "series", "Dic3", "--max", "14",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "group": "Dic3", "max": 14, "counts": dic3, "series": dic3,
        "agree": True}
    assert main(["fock", "series", "Dic3", "--max", "14"]) == 0
    assert capsys.readouterr().out == (
        f"class counts of Dic3 wr S_n, n <= 14: {','.join(map(str, dic3))} "
        f"(series: {','.join(map(str, dic3))}; agree: True)\n")


def test_fock_basis_digits_are_the_integer_product(capsys):
    # Dic3 level 8 has a determinant of 9 541 digits, more than the
    # interpreter converts from an int by default
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = str(math.prod(factorial_weights(6, 8)))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) == 9541 > limit
    argv = ["fock", "basis", "Dic3", "--level", "8", "--max-level", "8"]
    assert main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["determinant"] == want + "/1"
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        f"level 8 over Dic3: 15525 generator monomials, determinant {want}, "
        f"invertible: True\n")


def test_fock_basis_respects_level_cap(capsys):
    assert main(["fock", "basis", "C2", "--level", "9"]) == 2


def test_fock_product(capsys):
    assert main(["fock", "product", "C2",
                 "--monomial", "[[1,0,1],[1,1,1]]", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"] == ["1/1", "0/1", "0/1", "0/1", "0/1"]


def test_fock_kunneth(capsys):
    assert main(["fock", "kunneth", "C2", "C3", "--max-level", "2",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_equal"] is True and doc["checks"] == 12


def test_fock_series(capsys):
    assert main(["fock", "series", "S3", "--max", "6",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"] == doc["series"] == [1, 3, 9, 22, 51, 108, 221]
    assert doc["agree"] is True


def test_fock_series_counts_above_the_element_cap(capsys):
    # C2 wr S9 is above the element cap; counting types never builds it
    assert main(["fock", "series", "C2", "--max", "9",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"] == doc["series"] == [1, 2, 5, 10, 20, 36, 65, 110,
                                              185, 300]


def test_class_level_fock_commands_run_above_the_element_cap(monkeypatch,
                                                             capsys):
    # every level below is above the default element cap; none of these
    # commands needs an element, so only --max-level bounds them
    monkeypatch.delenv("WREATHFOCK_MAX_ORDER", raising=False)
    assert main(["fock", "basis", "C2", "--level", "12", "--max-level", "12",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 1165 and doc["invertible"] is True
    assert main(["fock", "product", "S3", "--monomial",
                 "[[1,0,2],[2,1,1],[1,2,2],[2,0,1]]", "--max-level", "8",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["level"] == 8
    assert sorted(set(doc["values"])) == ["0/1", "4/1"]
    assert doc["values"].count("4/1") == 1
    for argv, checks in ((["C2", "C3", "--max-level", "6"], 36),
                         (["S3", "C2", "--max-level", "4"], 24)):
        assert main(["fock", "kunneth", *argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_equal"] is True and doc["checks"] == checks


@pytest.mark.parametrize("argv", [
    ["wreath", "classes", "C2", "6"],
    ["fock", "basis", "C2", "--level", "6", "--max-level", "6"],
    ["fock", "product", "S3", "--monomial", "[[1,0,2],[2,1,1]]"],
    ["fock", "kunneth", "C2", "C3", "--max-level", "3"],
])
def test_class_level_commands_lay_out_no_wreath_element(monkeypatch, capsys,
                                                         argv):
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def refuse(self):
        raise AssertionError(f"{self.label} laid out its elements")

    # every element-level array of a level starts at _slot_perms
    monkeypatch.setattr(WreathGroup, "_enumerate", refuse)
    monkeypatch.setattr(WreathGroup, "_slot_perms", property(refuse))
    # fresh groups, so no level was laid out before the patch
    monkeypatch.setattr(catalog, "_build_catalog_group",
                        catalog._build_catalog_group.__wrapped__)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv,flag,repeated,merged", [
    (["wreath", "centralizer", "C2", "2"], "--type",
     "[[1,0,1],[1,0,1]]", "[[1,0,2]]"),
    (["fock", "product", "C2"], "--monomial",
     "[[1,1,1],[2,0,1],[1,1,1]]", "[[1,1,2],[2,0,1]]"),
])
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_repeated_type_entries_are_summed(capsys, argv, flag, repeated,
                                          merged, fmt):
    outputs = []
    for value in (repeated, merged):
        assert main(argv + [flag, value, "--format", fmt]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == ""
    # an entry is checked before it is summed with its repeats
    assert main(argv + [flag, merged[:-1] + ",[1,0,-1]]"]) == 2
    assert "bad type entry (1, 0, -1)" in capsys.readouterr().err


@pytest.mark.parametrize("group,level", [("trivial", 4), ("C2", 4),
                                         ("S3", 3), ("Dic3", 2), ("C3", 3),
                                         ("D8", 2)])
def test_fock_basis_determinant_matches_the_det_oracle(capsys, group, level):
    assert main(["fock", "basis", group, "--level", str(level),
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows, types = change_of_basis(catalog_group(group), level)
    d = ratlinalg.det(rows)
    assert doc["determinant"] == f"{d.numerator}/{d.denominator}"
    assert doc["dimension"] == len(types)


@pytest.mark.parametrize("argv,entry", [
    (["wreath", "centralizer", "C2", "2", "--type", "[[1,5,2]]"], "[1, 5, 2]"),
    (["fock", "product", "C2", "--monomial", "[[1,0,1],[1,5,1]]"], "[1, 5, 1]"),
])
def test_out_of_range_base_class_is_an_input_error(capsys, argv, entry):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"entry {entry} names base class 5, but C2 has 2 classes" \
        in captured.err


COMMANDS_WITH_A_TYPE = [(["wreath", "centralizer", "C2", "2"], "--type"),
                        (["fock", "product", "C2"], "--monomial")]


@pytest.mark.parametrize("argv,flag", COMMANDS_WITH_A_TYPE)
@pytest.mark.parametrize("value,shown", [
    ("5", "got '5'"),
    ('{"a":1}', """got '{"a":1}'"""),
    ("[[1,0", "got '[[1,0'"),
    ("[5]", "entry 5 is not an [r, c, m] triple of integers"),
    ("[[1,0]]", "entry [1, 0] is not an [r, c, m] triple of integers"),
    ("[[1,0,1,1]]", "entry [1, 0, 1, 1] is not an [r, c, m] triple"),
    ('[[1,0,"1"]]', 'entry [1, 0, "1"] is not an [r, c, m] triple'),
    ("[[1.0,0,2]]", "entry [1.0, 0, 2] is not an [r, c, m] triple"),
    ("[[true,0,2]]", "entry [true, 0, 2] is not an [r, c, m] triple"),
    ("[[0,0,2]]", "bad type entry (0, 0, 2)"),
    ("[[2,-1,1]]", "bad type entry (2, -1, 1)"),
])
def test_malformed_type_is_an_input_error(capsys, argv, flag, value, shown):
    assert main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}")
    assert shown in captured.err


@pytest.mark.parametrize("argv,flag", COMMANDS_WITH_A_TYPE)
def test_well_formed_type_is_accepted(capsys, argv, flag):
    assert main(argv + [flag, "[[1,0,1],[1,1,1]]"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv,flag,bad,entry", [
    (["wreath", "centralizer", "C2", "1"], "--type", [-3, 0, 0], "(-3, 0, 0)"),
    (["fock", "product", "C2"], "--monomial", [0, -4, 0], "(0, -4, 0)"),
])
def test_every_type_entry_is_checked_before_zeros_are_dropped(
        capsys, argv, flag, bad, entry):
    # a zero multiplicity on a valid (r, c) is still dropped, so the type
    # prints as [[1, 0, 1]]
    assert main(argv + [flag, "[[1,0,1]]"]) == 0
    plain = capsys.readouterr().out
    assert main(argv + [flag, "[[1,0,1],[2,1,0]]"]) == 0
    assert capsys.readouterr().out == plain
    assert main(argv + [flag, json.dumps([[1, 0, 1], bad])]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {flag}: bad type entry {entry}\n"


@pytest.mark.parametrize("argv,name", [
    (["wreath", "classes", "C2", "-1"], "n"),
    (["wreath", "centralizer", "C2", "-2", "--type", "[]"], "n"),
    (["fock", "basis", "C2", "--level", "-1"], "--level"),
    (["fock", "series", "C2", "--max", "-2"], "--max"),
    (["fock", "kunneth", "C2", "C3", "--max-level", "-1"], "--max-level"),
])
def test_negative_sizes_are_input_errors(capsys, argv, name):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {name} must be a non-negative integer, got -" \
        in captured.err


@pytest.mark.parametrize("argv", [
    ["wreath", "classes", "C2", "0"],
    ["fock", "basis", "C2", "--level", "0"],
    ["fock", "series", "C2", "--max", "0"],
    ["fock", "kunneth", "C2", "C3", "--max-level", "0"],
])
def test_level_zero_stays_valid(capsys, argv):
    assert main(argv) == 0


@pytest.mark.parametrize("argv,code,shown", [
    (["fock", "basis", "C2", "--level", "2"], 2, "above --max-level 1"),
    (["fock", "product", "C2", "--monomial", "[[1,0,2]]"], 2,
     "above --max-level 1"),
    (["fock", "kunneth", "C2", "C3"], 0, "up to level 1:"),
])
def test_max_level_is_read_by_the_level_commands(capsys, argv, code, shown):
    assert main(argv + ["--max-level", "2"]) == 0
    capsys.readouterr()
    assert main(argv + ["--max-level", "1"]) == code
    assert shown in "".join(capsys.readouterr())


@pytest.mark.parametrize("argv", [
    ["group", "info", "S3"],
    ["group", "classes", "S3"],
    ["wreath", "classes", "C2", "2"],
    ["wreath", "centralizer", "C2", "2", "--type", "[[1,0,2]]"],
    ["pullback", "build", "--G", "C2", "--H", "C3"],
    ["pullback", "check-closed", "--scenario", str(SCENARIOS / "s3xs3.json")],
    ["pullback", "verify-iso", "--scenario", str(SCENARIOS / "s3xs3.json")],
    ["fock", "series", "C2"],
    ["golden"],
])
@pytest.mark.parametrize("value", ["2", "-1"])
def test_max_level_is_refused_where_nothing_reads_it(capsys, argv, value):
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--max-level", value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --max-level" in err


def test_golden_all_pass(capsys):
    assert main(["golden"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 8


def test_golden_json(capsys):
    assert main(["golden", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(entry["passed"] for entry in doc)


def test_unknown_group_is_a_usage_error(capsys):
    assert main(["group", "info", "NoSuchGroup"]) == 2


def test_group_file_ingestion(tmp_path, capsys):
    p = tmp_path / "k4.json"
    p.write_text(json.dumps({"name": "K4", "degree": 4,
                             "generators": [[1, 0, 3, 2], [2, 3, 0, 1]]}))
    assert main(["group", "info", str(p), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 4 and doc["num_classes"] == 4


def test_group_classes_from_file_flag(tmp_path, capsys):
    p = tmp_path / "d12.json"
    p.write_text(json.dumps({"name": "D12", "degree": 6,
                             "generators": [[1, 2, 3, 4, 5, 0],
                                            [0, 5, 4, 3, 2, 1]]}))
    assert main(["group", "classes", "--file", str(p),
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["classes"]) == 6


def test_group_needs_exactly_one_source(capsys, tmp_path):
    assert main(["group", "info"]) == 2
    p = tmp_path / "d12.json"
    p.write_text(json.dumps({"name": "D12", "degree": 6,
                             "generators": [[1, 2, 3, 4, 5, 0],
                                            [0, 5, 4, 3, 2, 1]]}))
    assert main(["group", "info", "S3", "--file", str(p)]) == 2


@pytest.mark.parametrize("key,value", [
    ("degree", -3), ("degree", 0), ("degree", True), ("degree", 2.7),
    ("degree", "2"), ("name", 5), ("generators", [[True, False]]),
])
def test_malformed_group_file_is_refused_by_key(tmp_path, capsys, key, value):
    doc = {"name": "C2", "degree": 2, "generators": [[1, 0]]}
    doc[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["group", "info", "--file", str(p), "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"bad group definition: {key} must be" in err
    assert "Traceback" not in err


def test_group_file_degree_is_bounded_by_the_element_cap(tmp_path, capsys):
    p = tmp_path / "big.json"
    p.write_text('{"name":"big","degree":1000000,"generators":[]}')
    assert main(["group", "info", str(p), "--max-order", "50"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: degree 1000000 exceeds the element cap 50\n"


def test_file_reference_leaves_a_descriptor_of_the_caller_open(tmp_path,
                                                               capsys):
    r, w = os.pipe()
    try:
        os.write(w, b'{"name": "C2", "degree": 2, "generators": [[1, 0]]}')
        os.close(w)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"G": {"file": r}, "H": "C2", "K": "C2"}))
        assert main(["pullback", "build", "--scenario", str(path)]) == 2
        assert f"{{'file': {r}}}" in capsys.readouterr().err
        assert os.read(r, 8) == b'{"name":'  # open, and nothing read
    finally:
        os.close(r)


# 200 000 opening brackets: deeper than the JSON decoder can follow
DEEP = "[" * 200_000


@pytest.mark.parametrize("argv,shown", [
    (["group", "info", "{file}"], "{file}"),
    (["pullback", "build", "--scenario", "{file}"], "{file}"),
    (["pullback", "build", "--G", "S3", "--H", "S3", "--K", "C2",
      "--alpha", "{file}"], "{file}"),
    (["wreath", "centralizer", "C2", "2", "--type", DEEP], "--type"),
    (["fock", "product", "C2", "--monomial", DEEP], "--monomial"),
], ids=["group-file", "scenario-file", "hom-file", "type", "monomial"])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, argv, shown):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    argv = [str(path) if a == "{file}" else a for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {shown.replace('{file}', str(path))}: "
                   "JSON nested too deeply to read\n")


@pytest.mark.parametrize("argv", [
    ["group", "info", "{file}"],
    ["group", "classes", "--file", "{file}"],
    ["pullback", "build", "--G", "S3", "--H", "S3", "--K", "trivial",
     "--alpha", "{file}"],
    ["pullback", "build", "--G", "S3", "--H", "S3", "--K", "trivial",
     "--beta", "{file}"],
], ids=["group-file", "file-flag", "alpha", "beta"])
@pytest.mark.parametrize("content,shown", [
    (b'{"name": "C2", "degree" 2}',
     "Expecting ':' delimiter: line 1 column 25 (char 24)"),
    (b'{"name": "C\xff2"}',
     "'utf-8' codec can't decode byte 0xff in position 11: "
     "invalid start byte"),
], ids=["malformed", "not-utf-8"])
def test_a_file_that_is_not_json_is_named(tmp_path, capsys, argv, content,
                                          shown):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    argv = [str(path) if a == "{file}" else a for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: not valid JSON: {shown}\n"


@pytest.mark.parametrize("key", ["alpha", "beta"])
@pytest.mark.parametrize("value", [0, []], ids=["zero", "empty-list"])
def test_a_falsy_scenario_map_is_not_an_implied_map(tmp_path, capsys, key,
                                                    value):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"G": "S3", "H": "S3", "K": "trivial",
                                key: value}))
    assert main(["pullback", "build", "--scenario", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: scenario {path}: key {key!r}: a homomorphism is "
                   f"a JSON object with generator_images, got "
                   f"{json.dumps(value)}\n")


@pytest.mark.parametrize("key", ["alpha", "beta"])
def test_a_null_scenario_map_is_implied(tmp_path, capsys, key):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"G": "S3", "H": "C2", "K": "trivial",
                                key: None}))
    assert main(["pullback", "build", "--scenario", str(path),
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 12


@pytest.mark.parametrize("name", ["a\nb", "a\tb", "\x1b[31mred", "a\u2028b"])
def test_group_name_must_be_printable(tmp_path, capsys, name):
    p = tmp_path / "named.json"
    p.write_text(json.dumps({"name": name, "degree": 2,
                             "generators": [[1, 0]]}))
    assert main(["group", "info", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: bad group definition: name must be a "
                          "printable string, got ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# whole-process behaviour: exit codes, determinism, env vars


@pytest.mark.parametrize("ref,shown", [("0", "0"), ("1", "1"),
                                       ("true", "True")])
def test_file_reference_must_be_a_path_string(tmp_path, ref, shown):
    # as a file descriptor, 0 would read the group from stdin
    path = tmp_path / "scenario.json"
    path.write_text(f'{{"G": {{"file": {ref}}}, "H": "C2", "K": "C2"}}')
    code, out, err = run_cli("pullback", "build", "--scenario", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: scenario {path}: key 'G': cannot interpret "
                   f"group reference: {{'file': {shown}}}\n")


def test_usage_error_exit_code():
    code, _, err = run_cli("bogus-command")
    assert code == 2
    code, _, _ = run_cli()
    assert code == 2


@pytest.fixture
def s5_file(tmp_path):
    """S5 as a group file: built afresh by every command, never cached."""
    p = tmp_path / "s5.json"
    p.write_text(json.dumps({"name": "S5", "degree": 5,
                             "generators": [[1, 0, 2, 3, 4],
                                            [1, 2, 3, 4, 0]]}))
    return p


def test_resource_cap_exit_code(s5_file):
    code, _, err = run_cli("group", "info", str(s5_file), "--max-order", "50")
    assert code == 3 and "cap" in err


def test_env_var_caps_construction(s5_file):
    code, _, _ = run_cli("group", "info", str(s5_file),
                         env={"WREATHFOCK_MAX_ORDER": "50"})
    assert code == 3
    code, _, _ = run_cli("group", "info", str(s5_file),
                         env={"WREATHFOCK_MAX_ORDER": "500"})
    assert code == 0


def test_json_output_is_byte_identical():
    runs = [run_cli("wreath", "classes", "S3", "3", "--format", "json")
            for _ in range(2)]
    assert runs[0][0] == runs[1][0] == 0
    assert runs[0][1] == runs[1][1]


def test_series_success_path():
    code, out, _ = run_cli("fock", "series", "C2", "--max", "4",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["counts"] == [1, 2, 5, 10, 20]


def test_max_order_flag_does_not_leak_into_the_process(monkeypatch, capsys):
    monkeypatch.delenv("WREATHFOCK_MAX_ORDER", raising=False)
    assert main(["group", "info", "S4", "--max-order", "50"]) == 0
    assert "WREATHFOCK_MAX_ORDER" not in os.environ
    # the catalog build itself, past the lru_cache: S5 is above the old cap
    assert catalog_group.__wrapped__("S5").order == 120
    monkeypatch.setenv("WREATHFOCK_MAX_ORDER", "7000")
    assert main(["group", "info", "S4", "--max-order", "50"]) == 0
    assert os.environ["WREATHFOCK_MAX_ORDER"] == "7000"


@pytest.mark.parametrize("env", [None, "7000"])
def test_max_order_flag_is_scoped_to_the_command(monkeypatch, capsys, env):
    """The flag caps the running command without writing the environment."""
    if env is None:
        monkeypatch.delenv("WREATHFOCK_MAX_ORDER", raising=False)
    else:
        monkeypatch.setenv("WREATHFOCK_MAX_ORDER", env)
    seen = []

    def handler(args):
        seen.append((os.environ.get("WREATHFOCK_MAX_ORDER"), max_order_cap()))
        return 0

    monkeypatch.setattr(cli, "cmd_group_info", handler)
    assert main(["group", "info", "S4", "--max-order", "50"]) == 0
    assert seen == [(env, 50)]
    assert max_order_cap() == (200_000 if env is None else 7000)


@pytest.mark.parametrize("cap", ["200000", "200001"])
def test_max_order_flag_wins_over_the_env_var(monkeypatch, s5_file, cap):
    # the flag's default value too: a given flag always wins
    monkeypatch.setenv("WREATHFOCK_MAX_ORDER", "50")
    assert main(["group", "info", str(s5_file)]) == 3
    assert main(["group", "info", str(s5_file), "--max-order", cap]) == 0
    assert os.environ["WREATHFOCK_MAX_ORDER"] == "50"


def test_bad_env_cap_is_a_usage_error():
    code, out, err = run_cli("group", "info", "S3",
                             env={"WREATHFOCK_MAX_ORDER": "abc"})
    assert code == 2 and out == ""
    assert "WREATHFOCK_MAX_ORDER must be a positive integer" in err
    code, _, err = run_cli("group", "info", "S3",
                           env={"WREATHFOCK_MAX_ORDER": "0"})
    assert code == 2 and "WREATHFOCK_MAX_ORDER" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_nonpositive_max_order_is_a_usage_error(cap):
    code, out, err = run_cli("group", "info", "S3", f"--max-order={cap}")
    assert code == 2 and out == ""
    assert "--max-order must be a positive integer" in err
