"""Malformed input at the CLI boundary: scenario, group and homomorphism
files whose values are arbitrary JSON, and --type/--monomial strings.

Every document drawn here is malformed in at least one place, so each
command must exit 2 with one `error:` line on stderr, nothing on stdout and
no traceback.  Relative file names resolve in an empty directory.
"""

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wreathfock.cli import main

# the fixtures are shared by every example: each reads capsys out and
# rewrites its files
fuzz_settings = settings(max_examples=100, deadline=None, derandomize=True,
                         suppress_health_check=[
                             HealthCheck.function_scoped_fixture])

SMALL = ["trivial", "C2", "C3", "S3", "D8", "Dic3"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=4)),
    max_leaves=12)


def _is_json_list(text: str) -> bool:
    try:
        return isinstance(json.loads(text), list)
    except ValueError:
        return False


# not a catalog name: a catalog-shaped name could be above the element cap
junk_names = st.text(max_size=8).filter(
    lambda s: not re.fullmatch(r"trivial|Dic3|[CSD][0-9]+", s))

# a group definition with one malformed key, or not an object at all
_bad_group_values = {
    "name": json_values.filter(lambda v: not isinstance(v, str)),
    "degree": json_values.filter(lambda v: not (type(v) is int and v >= 1)),
    "generators": (json_values.filter(lambda v: not isinstance(v, list))
                   | st.lists(json_values, max_size=3).map(
                       lambda gens: gens + [None])),
}
bad_group_docs = st.one_of(
    json_values.filter(lambda v: not isinstance(v, dict)),
    st.tuples(st.fixed_dictionaries(
                  {key: json_values for key in _bad_group_values}),
              st.sampled_from(sorted(_bad_group_values))).flatmap(
        lambda t: _bad_group_values[t[1]].map(lambda v: {**t[0], t[1]: v})))

bad_group_refs = st.one_of(
    junk_names, bad_group_docs,
    st.builds(lambda path: {"file": path}, st.text(max_size=12)))

# an image no small catalog group has: not an index or an image array, an
# index out of range, or an array holding a non-integer
bad_images = st.one_of(
    json_values.filter(lambda v: not isinstance(v, (int, list))),
    st.integers(max_value=-1), st.integers(min_value=12),
    st.lists(json_values, max_size=3).map(lambda img: img + [0.5]))
bad_hom_docs = st.one_of(
    json_values.filter(lambda v: v and not isinstance(v, dict)),
    st.builds(lambda v: {"generator_images": v},
              json_values.filter(lambda v: not isinstance(v, list))),
    st.builds(lambda images, bad: {"generator_images": images + [bad]},
              st.lists(json_values, max_size=3), bad_images))


@st.composite
def scenarios(draw):
    doc = {key: draw(st.sampled_from(SMALL)) for key in "GHK"}
    for key in ("alpha", "beta"):
        if draw(st.booleans()):
            doc[key] = draw(bad_hom_docs)
    broken = draw(st.sampled_from(["G", "H", "K", "alpha", "beta", "missing",
                                   "top"]))
    if broken in ("G", "H", "K"):
        doc[broken] = draw(bad_group_refs)
    elif broken in ("alpha", "beta"):
        doc[broken] = draw(bad_hom_docs)
    elif broken == "missing":
        del doc[draw(st.sampled_from("GHK"))]
    else:
        return draw(json_values.filter(lambda v: not isinstance(v, dict)))
    return doc


bad_type_entries = st.one_of(
    json_values.filter(lambda v: not (isinstance(v, list) and len(v) == 3
                                      and all(type(x) is int for x in v))),
    st.tuples(st.integers(max_value=0), st.integers(min_value=0),
              st.integers(min_value=1)),
    st.tuples(st.integers(), st.integers(max_value=-1),
              st.integers().filter(bool)),
    st.tuples(st.integers(), st.integers(), st.integers(max_value=-1)),
    st.tuples(st.integers(min_value=1), st.integers(min_value=12),
              st.integers(min_value=1)),
).map(lambda e: list(e) if isinstance(e, tuple) else e)
bad_types = st.one_of(
    st.text(max_size=12).filter(lambda t: not _is_json_list(t)),
    st.builds(lambda entries, bad: json.dumps(entries + [bad]),
              st.lists(json_values, max_size=3), bad_type_entries))


@pytest.fixture
def in_empty_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _assert_input_error(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, ""), (argv, err)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@fuzz_settings
@given(doc=scenarios())
def test_malformed_scenario_exits_2(in_empty_dir, capsys, doc):
    path = in_empty_dir / "scenario.json"
    path.write_text(json.dumps(doc))
    _assert_input_error(capsys, ["pullback", "check-closed",
                                 "--scenario", str(path)])


@fuzz_settings
@given(doc=bad_group_docs, flag=st.booleans())
def test_malformed_group_file_exits_2(in_empty_dir, capsys, doc, flag):
    path = in_empty_dir / "group.json"
    path.write_text(json.dumps(doc))
    _assert_input_error(capsys, ["group", "info"]
                        + (["--file", str(path)] if flag else [str(path)]))


@fuzz_settings
@given(doc=bad_hom_docs | json_values.filter(lambda v: not v),
       which=st.sampled_from(["--alpha", "--beta"]))
def test_malformed_hom_file_exits_2(in_empty_dir, capsys, doc, which):
    bad, sign = in_empty_dir / "bad.json", in_empty_dir / "sign.json"
    bad.write_text(json.dumps(doc))
    sign.write_text(json.dumps({"generator_images": [1, 0]}))
    other = "--beta" if which == "--alpha" else "--alpha"
    _assert_input_error(capsys, ["pullback", "build", "--G", "S3", "--H", "S3",
                                 "--K", "C2", which, str(bad),
                                 other, str(sign)])


@fuzz_settings
@given(group=st.sampled_from(SMALL), text=bad_types,
       command=st.sampled_from(["wreath", "fock"]))
def test_malformed_type_exits_2(capsys, group, text, command):
    argv = (["wreath", "centralizer", group, "2", f"--type={text}"]
            if command == "wreath"
            else ["fock", "product", group, f"--monomial={text}"])
    _assert_input_error(capsys, argv)
