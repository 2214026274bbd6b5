import json

import pytest

from wreathfock.catalog import (catalog_group, group_from_json, group_to_json,
                                hom_from_json, is_catalog_name,
                                load_group_file, resolve_group)
from wreathfock.groups import ResourceLimitError


def test_catalog_is_cached():
    assert catalog_group("S4") is catalog_group("S4")


def test_cap_is_checked_on_cache_hits(monkeypatch):
    monkeypatch.delenv("WREATHFOCK_MAX_ORDER", raising=False)
    S5 = catalog_group("S5")
    hits = catalog_group.cache_info().hits
    monkeypatch.setenv("WREATHFOCK_MAX_ORDER", "50")
    with pytest.raises(ResourceLimitError, match="S5"):
        catalog_group("S5")
    assert catalog_group.cache_info().hits == hits + 1  # refused on a hit
    assert catalog_group("S4").order == 24
    monkeypatch.setenv("WREATHFOCK_MAX_ORDER", "120")
    assert catalog_group("S5") is S5


def test_unknown_names():
    for bad in ("Q8", "D7", "C0", "S0", "", "S03", "C007", "D08"):
        assert not is_catalog_name(bad)
    assert is_catalog_name("D10")
    assert is_catalog_name("trivial")


def test_bad_cap_setting_is_not_an_unknown_name(monkeypatch):
    monkeypatch.setenv("WREATHFOCK_MAX_ORDER", "abc")
    with pytest.raises(ValueError, match="WREATHFOCK_MAX_ORDER"):
        is_catalog_name("S3")


def test_group_json_round_trip(S3):
    doc = group_to_json(S3)
    assert doc == {"name": "S3", "degree": 3,
                   "generators": [[1, 0, 2], [1, 2, 0]]}
    again = group_from_json(doc)
    assert again.elements == S3.elements


def test_group_to_json_needs_permutations(Dic3):
    with pytest.raises(ValueError):
        group_to_json(Dic3)


def test_group_from_json_error_message():
    with pytest.raises(ValueError, match="bad group definition"):
        group_from_json({"degree": 3})


def test_load_group_file(tmp_path, S3):
    p = tmp_path / "g.json"
    p.write_text(json.dumps(group_to_json(S3)))
    G = load_group_file(p)
    assert G.order == 6 and G.label == "S3"


@pytest.mark.parametrize("name", ["C3\n", "S3 ", "C\u0663", "D\uff18"])
def test_catalog_names_are_matched_whole_in_ascii_digits(name):
    assert not is_catalog_name(name)


def test_resolve_group_forms(tmp_path, S3):
    assert resolve_group(S3) is S3
    assert resolve_group("S3") is S3
    inline = resolve_group(group_to_json(S3))
    assert inline.order == 6
    p = tmp_path / "g.json"
    p.write_text(json.dumps(group_to_json(S3)))
    assert resolve_group({"file": str(p)}).order == 6
    with pytest.raises(ValueError):
        resolve_group(42)


def test_hom_from_json_perm_images(S3, C2):
    f = hom_from_json({"from": "S3", "to": "C2",
                       "generator_images": [[1, 0], [0, 1]]})
    assert f.dom is S3 and f.cod is C2
    assert f.is_surjective()


def test_hom_from_json_index_images(S3, C2):
    f = hom_from_json({"generator_images": [1, 0]}, dom=S3, cod=C2)
    assert [f(i) for i in range(6)] == \
        [0 if S3.elements[i].sign() == 1 else 1 for i in range(6)]


def test_hom_from_json_count_mismatch(S3, C2):
    with pytest.raises(ValueError, match="stored generators"):
        hom_from_json({"generator_images": [1]}, dom=S3, cod=C2)


@pytest.mark.parametrize("named, shown", [
    ({"from": "S4", "to": "C2"}, "'from' names S4, but the map is applied to S3"),
    ({"from": "S3", "to": "C3"}, "'to' names C3, but the map is applied to C2"),
], ids=["from", "to"])
def test_hom_from_json_refuses_a_named_group_it_is_not_applied_to(
        S3, C2, named, shown):
    with pytest.raises(ValueError, match=f"^{shown}$"):
        hom_from_json({**named, "generator_images": [1, 0]}, dom=S3, cod=C2)


def test_hom_from_json_loads_the_groups_it_names_when_applied_to_them(S3, C2):
    # the README example
    f = hom_from_json({"from": "S3", "to": "C2",
                       "generator_images": [[1, 0], [0, 1]]}, dom=S3, cod=C2)
    assert f.dom is S3 and f.cod is C2
    assert f.is_surjective()
