"""Built-in group catalog and JSON (de)serialization of groups and maps.

Catalog identifiers: ``trivial``, ``C<n>`` (cyclic), ``S<n>`` (symmetric),
``D<2n>`` (dihedral of order 2n, n >= 3), and ``Dic3`` (the order-12 group
with presentation a^6 = 1, b^2 = a^3, b a b^-1 = a^-1, generated by three
elements of orders 4, 2, 3).

Group files are JSON ``{"name", "degree", "generators": [[int, ...], ...]}``
with 0-based permutation image arrays; homomorphism files are
``{"from", "to", "generator_images"}`` where each image is either a
permutation image array (permutation codomains) or an element index.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache

from .groups import (FiniteGroup, Homomorphism, Permutation, check_order_cap,
                     group_from_permutation_generators,
                     hom_from_generator_images, max_order_cap)

# matched whole: "C3\n" or "C\u0663" is not a catalog name, and neither is
# "C03" or "C0", so each group has one name and one cached instance
_CYCLIC = re.compile(r"C([1-9][0-9]*)")
_SYMMETRIC = re.compile(r"S([1-9][0-9]*)")
_DIHEDRAL = re.compile(r"D([1-9][0-9]*)")


def catalog_group(name: str) -> FiniteGroup:
    """The built-in group with the given identifier (cached, so repeated
    lookups share one instance).

    The element cap is enforced on cache hits too, so a group built under a
    higher cap is refused under a lower one, as `wreath_group` does.
    """
    G = _build_catalog_group(name)
    check_order_cap(name, G.order)
    return G


@lru_cache(maxsize=None)
def _build_catalog_group(name: str) -> FiniteGroup:
    if name == "trivial":
        return group_from_permutation_generators(1, [], label="trivial")
    if name == "Dic3":
        return _dic3()
    m = _CYCLIC.fullmatch(name)
    if m:
        n = int(m.group(1))
        gens = [] if n == 1 else [Permutation.from_cycles(n, [tuple(range(n))])]
        return group_from_permutation_generators(n, gens, label=name)
    m = _SYMMETRIC.fullmatch(name)
    if m:
        n = int(m.group(1))
        if n == 1:
            gens = []
        elif n == 2:
            gens = [Permutation.from_cycles(2, [(0, 1)])]
        else:
            gens = [Permutation.from_cycles(n, [(0, 1)]),
                    Permutation.from_cycles(n, [tuple(range(n))])]
        return group_from_permutation_generators(n, gens, label=name)
    m = _DIHEDRAL.fullmatch(name)
    if m:
        order = int(m.group(1))
        if order % 2 or order < 6:
            raise ValueError(f"dihedral names are D<2n> with n >= 3: {name}")
        n = order // 2
        rot = Permutation.from_cycles(n, [tuple(range(n))])
        refl = Permutation((n - i) % n for i in range(n))
        return group_from_permutation_generators(n, [rot, refl], label=name)
    raise KeyError(f"unknown catalog group: {name}")


# the lru_cache interface: clear or inspect the cache, or build uncached
catalog_group.cache_clear = _build_catalog_group.cache_clear
catalog_group.cache_info = _build_catalog_group.cache_info
catalog_group.__wrapped__ = _build_catalog_group.__wrapped__


def _dic3() -> FiniteGroup:
    # descriptors (i, j) = a^i b^j with i mod 6, j mod 2
    def mul(x, y):
        (i1, j1), (i2, j2) = x, y
        i = i1 + (-i2 if j1 else i2) + (3 if j1 and j2 else 0)
        return (i % 6, j1 ^ j2)

    elements = [(i, j) for j in (0, 1) for i in range(6)]
    # b, a^3, a^2: orders 4, 2, 3
    return FiniteGroup("Dic3", elements, mul,
                       generators=[(0, 1), (3, 0), (2, 0)])


def is_catalog_name(name: str) -> bool:
    max_order_cap()  # a bad cap setting raises here, not as an unknown name
    try:
        catalog_group(name)
        return True
    except (KeyError, ValueError):
        return False


# ---------------------------------------------------------------------------
# group files


def group_to_json(G: FiniteGroup) -> dict:
    gens = [G.elements[i] for i in G.generator_indices]
    if not all(isinstance(g, Permutation) for g in gens):
        raise ValueError("only permutation groups serialize to group files")
    degree = gens[0].degree if gens else 1
    return {"name": G.label, "degree": degree,
            "generators": [list(g.images) for g in gens]}


def group_from_json(doc: dict) -> FiniteGroup:
    """The group of a group file.  Raises ValueError naming the key at
    fault: `name` must be a printable string (it is printed as a label in
    table output), `degree` an integer >= 1 and `generators` a list of
    image arrays of permutations of `degree` points."""
    if not isinstance(doc, dict):
        raise ValueError(f"bad group definition: not a JSON object: {doc!r}")
    name, degree, images = map(doc.get, ("name", "degree", "generators"))
    for key, ok, want in (
            ("name", isinstance(name, str) and name.isprintable(),
             "a printable string"),
            ("degree", type(degree) is int and degree >= 1, "an integer >= 1"),
            ("generators", isinstance(images, list) and all(
                isinstance(img, list) and len(img) == degree
                and all(type(v) is int for v in img)
                and sorted(img) == list(range(degree)) for img in images),
             f"a list of image arrays of permutations of {degree} points")):
        if not ok:
            got = json.dumps(doc.get(key), default=repr)[:60]
            raise ValueError(f"bad group definition: {key} must be {want}, "
                             f"got {got}")
    return group_from_permutation_generators(degree, images, label=name)


class NotJSONError(ValueError):
    """A file that holds no JSON document: malformed JSON, or bytes that
    are not UTF-8 text."""


def load_json(path):
    """The JSON document in the file at `path`.  Every way the file can
    fail to decode is a ValueError naming the file: a NotJSONError for
    malformed JSON or bytes that are not UTF-8 text, and a plain
    ValueError, not the decoder's RecursionError, for a document nested
    too deeply."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.loads(fh.read())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise NotJSONError(f"{path}: not valid JSON: {e}") from None


def load_group_file(path) -> FiniteGroup:
    return group_from_json(load_json(path))


def resolve_group(spec) -> FiniteGroup:
    """Group from a catalog name, an inline definition dict, or a
    {"file": path} reference.  The path must be a string: open() would take
    an int or a bool as a file descriptor of the running process."""
    if isinstance(spec, FiniteGroup):
        return spec
    if isinstance(spec, str):
        return catalog_group(spec)
    if isinstance(spec, dict) and "file" not in spec:
        return group_from_json(spec)
    if isinstance(spec, dict) and isinstance(spec["file"], str):
        return load_group_file(spec["file"])
    raise ValueError(f"cannot interpret group reference: {spec!r}")


# ---------------------------------------------------------------------------
# homomorphism files


def _image_index(cod: FiniteGroup, entry) -> int:
    if isinstance(entry, list) and all(type(v) is int for v in entry):
        return cod.index_of(Permutation(entry))
    if isinstance(entry, int):
        return entry
    raise ValueError(f"bad generator image: {entry!r}")


def hom_from_json(doc: dict, dom: FiniteGroup | None = None,
                  cod: FiniteGroup | None = None) -> Homomorphism:
    """Homomorphism from generator images on the domain's stored generators.

    `dom` and `cod`, when given, are the groups the map is applied to, and
    the document's `from` and `to`, when present, must name groups of the
    same labels: a mismatch raises ValueError naming the key.  Without
    `dom` or `cod` the document's key is the group.

    Built by `hom_from_generator_images`: images are assigned along the
    spanning tree of those generators, each generator is checked to map to
    its given image, and `Homomorphism.verify` proves the map on every edge.
    """
    if not isinstance(doc, dict):
        raise ValueError("a homomorphism is a JSON object with "
                         f"generator_images, got {json.dumps(doc)[:60]}")
    for key, group in (("from", dom), ("to", cod)):
        if group is not None and key in doc:
            named = resolve_group(doc[key]).label
            if named != group.label:
                raise ValueError(f"{key!r} names {named}, but the map is "
                                 f"applied to {group.label}")
    dom = dom if dom is not None else resolve_group(doc["from"])
    cod = cod if cod is not None else resolve_group(doc["to"])
    entries = doc.get("generator_images")
    if not isinstance(entries, list):
        raise ValueError("generator_images must be a list of images, "
                         f"got {json.dumps(entries)[:60]}")
    gens = dom.generator_indices
    if len(entries) != len(gens):
        raise ValueError(
            f"{dom.label} has {len(gens)} stored generators, "
            f"got {len(entries)} images")
    images = [_image_index(cod, e) for e in entries]
    return hom_from_generator_images(dom, gens, cod, images,
                                     label=doc.get("label", ""))


def load_hom_file(path, dom=None, cod=None) -> Homomorphism:
    return hom_from_json(load_json(path), dom, cod)
