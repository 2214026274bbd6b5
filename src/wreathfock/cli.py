"""Command-line interface.

Exit codes: 0 success (all checks pass), 1 a verified property failed,
2 usage or input error, 3 resource cap exceeded.  All output is
deterministic: identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Iterator

from .catalog import (NotJSONError, catalog_group, is_catalog_name,
                      load_group_file, load_hom_file, load_json,
                      hom_from_json, resolve_group)
from .fock import DEFAULT_MAX_LEVEL, graded_dimension_series, monomial_value
from .golden import run_all
from .groups import (DEFAULT_MAX_ORDER, ENV_MAX_ORDER, MAX_ORDER, FiniteGroup,
                     Homomorphism, ResourceLimitError, max_order_cap)
from .pullback import (build_pullback, class_pair_splitting,
                       decomposition_report, is_conjugacy_closed,
                       n_cycle_classes_closed, splitting_pattern)
from .wreath import TypeMatrix, _level, centralizer_order, class_count_series


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _write_json(out, obj) -> None:
    """Write json.dumps(obj, sort_keys=True, separators=(",", ":")) to `out`
    one dict entry or list item at a time, so a long class list is never
    held as a single string.  An iterator is written as a list."""
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        out.write("{")
        for i, key in enumerate(sorted(obj)):
            out.write(("," if i else "") + _encode(key) + ":")
            _write_json(out, obj[key])
        out.write("}")
    elif isinstance(obj, (list, Iterator)):
        out.write("[")
        for i, item in enumerate(obj):
            out.write(("," if i else "") + _encode(item))
        out.write("]")
    else:
        out.write(_encode(obj))


def _emit(args, obj, table) -> None:
    """Write `obj` as one JSON line under --format json, else `table`: a
    string, or an iterable of lines that is read only here, so a long
    table streams line by line."""
    if args.format == "json":
        _write_json(sys.stdout, obj)
        sys.stdout.write("\n")
    else:
        for line in [table] if isinstance(table, str) else table:
            sys.stdout.write(line + "\n")


def _load_base(name: str) -> FiniteGroup:
    if is_catalog_name(name):
        return catalog_group(name)
    if os.path.exists(name):
        return load_group_file(name)
    raise KeyError(f"unknown group {name!r} (not a catalog name or a file)")


def _type_arg(G: FiniteGroup, flag: str, text: str) -> TypeMatrix:
    """The type given to `flag` (--type, --monomial): a JSON list of
    [r, c, m] integer triples, each naming a class c of the base group G.

    Any other value raises ValueError naming the flag and the bad entry.
    """
    try:
        entries = json.loads(text)
    except RecursionError:
        raise ValueError(f"{flag}: JSON nested too deeply to read") from None
    except ValueError:
        entries = None
    if not isinstance(entries, list):
        raise ValueError(f"{flag} must be a JSON list of [r, c, m] integer "
                         f"triples, got {text!r}")
    k = G.classes.num_classes
    for e in entries:
        if not (isinstance(e, list) and len(e) == 3
                and all(type(v) is int for v in e)):
            raise ValueError(f"{flag}: entry {json.dumps(e)} is not an "
                             "[r, c, m] triple of integers")
        if e[1] >= k:
            raise ValueError(f"{flag}: entry {e} names base class {e[1]}, "
                             f"but {G.label} has {k} classes")
    try:
        return TypeMatrix(entries)
    except ValueError as e:
        raise ValueError(f"{flag}: {e}") from None


# ---------------------------------------------------------------------------
# group


def _group_arg(args) -> FiniteGroup:
    if args.file and args.group:
        raise ValueError("give a group name or --file, not both")
    if args.file:
        return load_group_file(args.file)
    if not args.group:
        raise ValueError("a group name or --file is required")
    return _load_base(args.group)


def cmd_group_info(args) -> int:
    G = _group_arg(args)
    doc = {"name": G.label, "order": G.order,
           "num_classes": G.classes.num_classes,
           "generator_orders": [G.element_order(i)
                                for i in G.generator_indices]}
    _emit(args, doc,
          f"group {G.label}: order {G.order}, "
          f"{G.classes.num_classes} conjugacy classes, "
          f"generator orders {doc['generator_orders']}")
    return 0


def cmd_group_classes(args) -> int:
    G = _group_arg(args)
    cls = G.classes
    rows = [{"index": k, "size": cls.sizes[k],
             "centralizer_order": cls.centralizer_order(k),
             "rep": repr(G.elements[cls.reps[k]])}
            for k in range(cls.num_classes)]
    doc = {"name": G.label, "order": G.order, "classes": rows}
    lines = [f"group {G.label}: {cls.num_classes} classes"]
    for r in rows:
        lines.append(f"  class {r['index']}: size {r['size']}, "
                     f"centralizer {r['centralizer_order']}, rep {r['rep']}")
    _emit(args, doc, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# wreath


def cmd_wreath_classes(args) -> int:
    W = _level(_load_base(args.base), args.n)
    G, types, order = W.base, W.types, W.order

    def rows():
        for k, (t, size) in enumerate(zip(types, W.classes.sizes)):
            yield {"index": k, "type": t.to_json(),
                   "size": size, "centralizer_order": order // size}

    def lines():
        yield f"{G.label} wr S{args.n}: order {order}, {len(types)} classes"
        for r in rows():
            yield (f"  class {r['index']}: entries {r['type']['entries']}, "
                   f"size {r['size']}, centralizer {r['centralizer_order']}")

    # each row is written as it is made; a level can have thousands
    _emit(args, {"base": G.label, "n": args.n, "order": order,
                 "num_classes": len(types), "classes": rows()}, lines())
    return 0


def cmd_wreath_centralizer(args) -> int:
    G = _load_base(args.base)
    t = _type_arg(G, "--type", args.type)
    if t.n != args.n:
        raise ValueError(f"--type entries sum to level {t.n}, not n = {args.n}")
    cent = centralizer_order(G, t)
    doc = {"base": G.label, "n": args.n, "type": t.to_json(),
           "centralizer_order": cent}
    _emit(args, doc,
          f"centralizer order of type {list(map(list, t.entries))} "
          f"in {G.label} wr S{args.n}: {cent}")
    return 0


# ---------------------------------------------------------------------------
# pullback


def _trivial_hom(G: FiniteGroup, K: FiniteGroup) -> Homomorphism:
    if K.order != 1:
        raise ValueError("only maps to the trivial group can be implied; "
                         "give --alpha/--beta or a scenario file")
    return Homomorphism(G, K, [0] * G.order, label="collapse")


def _message(e: Exception) -> str:
    """An exception's message on one line: a KeyError's without the quotes
    that str() puts around it, and each unprintable character (a newline in
    an echoed name) escaped."""
    text = str(e.args[0]) if isinstance(e, KeyError) and e.args else str(e)
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def _load_scenario_file(path):
    """(alpha, beta) from a scenario file.  A malformed file is a
    ValueError naming the file and, where one is at fault, the key."""
    try:
        doc = load_json(path)
    except NotJSONError as e:
        raise ValueError(f"scenario {e}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"scenario {path}: expected a JSON object with "
                         f"keys G, H and K, got {json.dumps(doc)[:60]}")
    for key in ("G", "H", "K"):
        if key not in doc:
            raise ValueError(f"scenario {path}: missing key {key!r}")

    def part(key, make):
        try:
            return make(doc[key])
        except (KeyError, ValueError) as e:
            raise ValueError(f"scenario {path}: key {key!r}: "
                             f"{_message(e)}") from None

    G, H, K = (part(key, resolve_group) for key in ("G", "H", "K"))
    # only an absent key or null leaves a map implied
    alpha = (part("alpha", lambda doc: hom_from_json(doc, dom=G, cod=K))
             if doc.get("alpha") is not None else _trivial_hom(G, K))
    beta = (part("beta", lambda doc: hom_from_json(doc, dom=H, cod=K))
            if doc.get("beta") is not None else _trivial_hom(H, K))
    return alpha, beta


def _load_scenario(args):
    """The structure maps named by --scenario, or by --G/--H/--K with the
    maps --alpha/--beta (each implied when K is trivial), and the number of
    pullback classes over each class pair (`class_pair_splitting`)."""
    if args.scenario:
        alpha, beta = _load_scenario_file(args.scenario)
    elif not (args.G and args.H and args.K):
        raise ValueError("need --scenario or all of --G/--H/--K")
    else:
        G, H, K = _load_base(args.G), _load_base(args.H), _load_base(args.K)
        alpha = (load_hom_file(args.alpha, dom=G, cod=K)
                 if args.alpha else _trivial_hom(G, K))
        beta = (load_hom_file(args.beta, dom=H, cod=K)
                if args.beta else _trivial_hom(H, K))
    return alpha, beta, class_pair_splitting(alpha, beta)


def _witness(alpha, beta, hits):
    """None for a conjugacy-closed pullback, else the witness pair of
    `is_conjugacy_closed`, the one output that depends on the carrier's
    element order: only then is the carrier built."""
    return (is_conjugacy_closed(build_pullback(alpha, beta).incl)[1]
            if max(hits) > 1 else None)


def _header(alpha, beta):
    """The labels of G, H and K, and the pullback order |G| |H| / |K|."""
    G, H, K = alpha.dom, beta.dom, alpha.cod
    return G.label, H.label, K.label, G.order * H.order // K.order


def cmd_pullback_build(args) -> int:
    alpha, beta, hits = _load_scenario(args)
    G, H, K, order = _header(alpha, beta)
    doc = {"G": G, "H": H, "K": K, "order": order, "num_classes": sum(hits)}
    _emit(args, doc,
          f"pullback {G} x_{K} {H}: order {order}, "
          f"{doc['num_classes']} classes")
    return 0


def cmd_pullback_check_closed(args) -> int:
    alpha, beta, hits = _load_scenario(args)
    witness = _witness(alpha, beta, hits)
    closed = witness is None
    doc = {"conj_closed": closed,
           "witness": [repr(w) for w in witness] if witness else None,
           "fusion_pattern": splitting_pattern(hits)}
    text = f"conjugacy-closed: {closed}"
    if witness:
        text += f"\nwitness (ambient-conjugate, not sub-conjugate): {witness}"
    _emit(args, doc, text)
    return 0


def cmd_pullback_verify_iso(args) -> int:
    alpha, beta, hits = _load_scenario(args)
    rep = decomposition_report(alpha, beta, hits, _witness(alpha, beta, hits))
    G, H, K, order = _header(alpha, beta)
    doc = {"G": G, "H": H, "K": K, "order": order, **rep.to_json()}
    lines = [f"pullback {G} x_{K} {H}: order {order}",
             f"conjugacy-closed: {rep.conj_closed}",
             f"tensor quotient dim: {rep.quotient_dim}",
             f"restriction map rank: {rep.map_rank} "
             f"(carrier has {rep.carrier_classes} classes)",
             f"class ring is the tensor product: {rep.is_isomorphism}"]
    _emit(args, doc, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# fock


def cmd_fock_basis(args) -> int:
    G = _load_base(args.group)
    if args.level > args.max_level:
        raise ValueError(f"level {args.level} above --max-level {args.max_level}")
    # The change-of-basis matrix is diagonal with entry prod m! over the
    # entries (r, c, m) of each type (see fock.py), so its determinant is
    # the product of the entries and never vanishes.  It is read off the
    # class counts P(i) of the k-colored partitions of i, zero for i < 0,
    # with no type listed: the types holding entry (r, c, m) are, with it
    # taken out, the colored partitions of n - r m with no part (r, c),
    # counted by (1 - q^r) prod_s (1 - q^s)^-k at q^(n - r m), which is
    # P(n - r m) - P(n - r m - r) for each of the k colors c.  It is
    # multiplied out in Decimal, whose digits are not bound by the
    # interpreter's int-to-string limit and print in linear time, under a
    # context that traps any rounding, so a digit is exact or never printed.
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])
    k, n = G.classes.num_classes, args.level
    P = dict(enumerate(class_count_series(k, n)))
    d = str(functools.reduce(exact.multiply, (exact.power(
        Decimal(math.factorial(m)),
        k * (P[n - r * m] - P.get(n - r * m - r, 0)))
        for r in range(1, n + 1) for m in range(2, n // r + 1)), Decimal(1)))
    doc = {"group": G.label, "level": n, "dimension": P[n],
           "determinant": f"{d}/1", "invertible": True}
    _emit(args, doc,
          f"level {n} over {G.label}: {P[n]} generator "
          f"monomials, determinant {d}, invertible: True")
    return 0


def cmd_fock_product(args) -> int:
    G = _load_base(args.group)
    mu = _type_arg(G, "--monomial", args.monomial)
    if mu.n > args.max_level:
        raise ValueError(f"monomial level {mu.n} above --max-level "
                         f"{args.max_level}")
    f = monomial_value(G, mu)
    doc = {"group": G.label, "monomial": mu.to_json(), "level": mu.n,
           "values": f.to_json()["values"]}
    _emit(args, doc,
          f"monomial {list(map(list, mu.entries))} at level {mu.n} "
          f"over {G.label}:\n  " + " ".join(doc["values"]))
    return 0


def cmd_fock_kunneth(args) -> int:
    G, H = _load_base(args.G), _load_base(args.H)
    checks, failures = 0, 0
    for n in range(1, args.max_level + 1):
        verdicts = [holds for _, _, holds in n_cycle_classes_closed(G, H, n)]
        checks += len(verdicts)
        failures += verdicts.count(False)
    doc = {"G": G.label, "H": H.label, "max_level": args.max_level,
           "checks": checks, "all_equal": failures == 0}
    _emit(args, doc,
          f"generator identity over {G.label} x {H.label} up to level "
          f"{args.max_level}: {checks - failures}/{checks} agree")
    return 0 if failures == 0 else 1


def cmd_fock_series(args) -> int:
    G = _load_base(args.group)
    counts, series = graded_dimension_series(G, args.max)
    doc = {"group": G.label, "max": args.max, "counts": counts,
           "series": series, "agree": counts == series}
    _emit(args, doc,
          f"class counts of {G.label} wr S_n, n <= {args.max}: "
          f"{','.join(map(str, counts))} "
          f"(series: {','.join(map(str, series))}; agree: {counts == series})")
    return 0 if counts == series else 1


# ---------------------------------------------------------------------------
# golden


def cmd_golden(args) -> int:
    results = run_all()
    doc = [{"name": name, "passed": ok, "detail": detail}
           for name, ok, detail in results]

    def lines():
        for name, ok, detail in results:
            yield f"{'PASS' if ok else 'FAIL'} {name}"
            yield from ("     " + ln for ln in detail.splitlines())

    _emit(args, doc, lines())
    return 0 if all(ok for _, ok, _ in results) else 1


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"),
                        default="table")
    common.add_argument("--max-order", type=int,
                        help="element cap for group constructions "
                             f"(default {DEFAULT_MAX_ORDER}, or "
                             f"{ENV_MAX_ORDER} if set)")

    p = argparse.ArgumentParser(
        prog="wreathfock",
        description="Exact class-function algebra on finite groups, wreath "
                    "products, pullbacks, and the graded Fock algebra.")
    sub = p.add_subparsers(dest="command", required=True)

    pg = sub.add_parser("group", help="inspect a single group")
    gsub = pg.add_subparsers(dest="subcommand", required=True)
    gi = gsub.add_parser("info", parents=[common])
    gi.add_argument("group", nargs="?",
                    help="catalog name or group JSON file")
    gi.add_argument("--file", help="group JSON file")
    gi.set_defaults(fn=cmd_group_info)
    gc = gsub.add_parser("classes", parents=[common])
    gc.add_argument("group", nargs="?")
    gc.add_argument("--file", help="group JSON file")
    gc.set_defaults(fn=cmd_group_classes)

    pw = sub.add_parser("wreath", help="wreath-product conjugacy data")
    wsub = pw.add_subparsers(dest="subcommand", required=True)
    wc = wsub.add_parser("classes", parents=[common])
    wc.add_argument("base")
    wc.add_argument("n", type=int)
    wc.set_defaults(fn=cmd_wreath_classes)
    wz = wsub.add_parser("centralizer", parents=[common])
    wz.add_argument("base")
    wz.add_argument("n", type=int)
    wz.add_argument("--type", required=True,
                    help='type entries as JSON, e.g. "[[2,2,1],[3,3,1]]"')
    wz.set_defaults(fn=cmd_wreath_centralizer)

    pp = sub.add_parser("pullback", help="fibered products and class rings")
    psub = pp.add_subparsers(dest="subcommand", required=True)
    for name, fn in (("build", cmd_pullback_build),
                     ("check-closed", cmd_pullback_check_closed),
                     ("verify-iso", cmd_pullback_verify_iso)):
        sp = psub.add_parser(name, parents=[common])
        sp.add_argument("--scenario", help="scenario JSON file")
        sp.add_argument("--G")
        sp.add_argument("--H")
        sp.add_argument("--K")
        sp.add_argument("--alpha", help="homomorphism JSON file G -> K")
        sp.add_argument("--beta", help="homomorphism JSON file H -> K")
        sp.set_defaults(fn=fn)

    pf = sub.add_parser("fock", help="the graded algebra of wreath levels")
    fsub = pf.add_subparsers(dest="subcommand", required=True)
    fb = fsub.add_parser("basis", parents=[common])
    fb.add_argument("group")
    fb.add_argument("--level", type=int, required=True)
    fb.set_defaults(fn=cmd_fock_basis)
    fp = fsub.add_parser("product", parents=[common])
    fp.add_argument("group")
    fp.add_argument("--monomial", required=True,
                    help='generator exponents as JSON triples [[r,c,m],...]')
    fp.set_defaults(fn=cmd_fock_product)
    fk = fsub.add_parser("kunneth", parents=[common])
    fk.add_argument("G")
    fk.add_argument("H")
    fk.set_defaults(fn=cmd_fock_kunneth)
    for sp in (fb, fp, fk):
        sp.add_argument("--max-level", type=int, default=DEFAULT_MAX_LEVEL,
                        help="highest graded level the command may touch")
    fs = fsub.add_parser("series", parents=[common])
    fs.add_argument("group")
    fs.add_argument("--max", type=int, default=6)
    fs.set_defaults(fn=cmd_fock_series)

    pgold = sub.add_parser("golden", parents=[common],
                           help="recompute all worked examples and report "
                                "pass/fail")
    pgold.set_defaults(fn=cmd_golden)

    return p


# sizes that count levels or letters: 0 is valid, a negative one is not
_SIZE_ARGS = {"n": "n", "level": "--level", "max": "--max",
             "max_level": "--max-level"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.max_order is not None and args.max_order < 1:
            raise ValueError("--max-order must be a positive integer, "
                             f"got {args.max_order}")
        for dest, name in _SIZE_ARGS.items():
            if getattr(args, dest, 0) < 0:
                raise ValueError(f"{name} must be a non-negative integer, "
                                 f"got {getattr(args, dest)}")
        # a given flag wins over the environment, for this command only; a
        # bad WREATHFOCK_MAX_ORDER fails here, by name
        token = MAX_ORDER.set(args.max_order if args.max_order is not None
                              else max_order_cap())
        try:
            return args.fn(args)
        finally:
            MAX_ORDER.reset(token)
    except ResourceLimitError as e:
        print(f"error: {_message(e)}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {_message(e)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
