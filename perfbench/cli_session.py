"""The cli-session workload: one subprocess per query, run one at a time
from the root of the checkout.  Each runs the CLI as `python -m wreathfock
... --format json` would, through cli_child.py, which also reports the
process's own peak memory.

Every pass runs the README's fixed commands, whose stdout must match the
digests in cli_digests.json byte for byte, and seeded variants of each
command whose JSON is checked against closed forms.  It is the only
workload that pays for the import, argument parsing, catalog construction
and JSON output on every query.

    python3 perfbench/cli_session.py --write-digests

prints the digests of the fixed commands at the current commit.
"""

from __future__ import annotations

import compileall
import hashlib
import json
import math
import random
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import wreathfock as wf
from cli_child import MARKER
from workloads import (KNOWN, Query, Workload, base_cents, cent_order,
                       colored_partitions, expect, factorial_weight,
                       random_colored_partition)

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "cli_digests.json"
GOLDEN_REPEATS = 3

# The README's commands; its `--file mygroup.json` is the group file kept
# next to this module.
README_COMMANDS = [
    "group info S3",
    "group classes --file perfbench/mygroup.json",
    "wreath classes C2 3",
    "wreath centralizer C4 5 --type [[2,2,1],[3,3,1]]",
    "pullback build --K trivial --G C2 --H C3",
    "pullback check-closed --scenario demos/scenarios/s3xs3.json",
    "pullback verify-iso --scenario demos/scenarios/d12_dic3.json",
    "fock basis S3 --level 3",
    "fock product C2 --monomial [[1,0,1],[1,1,1]]",
    "fock kunneth C2 C3 --max-level 3",
    "fock series C2 --max 5",
    "golden",
]
# scenario file -> (carrier order, conjugacy-closed)
SCENARIOS = {"demos/scenarios/s3xs3.json": (18, False),
             "demos/scenarios/d12_dic3.json": (24, True),
             "demos/scenarios/c2xc3_trivial.json": (6, True)}
WREATH_BASES = ["trivial", "C2", "C3", "C4", "S3", "D8", "Dic3"]
# `fock basis` at the top default level (4); Dic3 wr S4 is above the cap
BASIS_AT_TOP = ["D8", "C4", "S3"]
TOP_LEVEL = 4


def family(argv: list[str]) -> str:
    return "startup" if argv[0] == "--help" else argv[0]


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


class CliSession(Workload):
    name = "cli-session"
    groups = list(KNOWN)
    in_process = False
    pools = {"fixed": "the README commands, digest-checked",
             "seeded": "--help; group info/classes on " + " ".join(KNOWN)
                       + "; wreath classes/centralizer on " + " ".join(WREATH_BASES)
                       + " at levels 1..5 (classes) and 1..6 (centralizer); pullback build over trivial K with "
                       "|G||H| <= 72; check-closed and verify-iso on the bundled "
                       "scenarios; fock basis --level 4 on " + " ".join(BASIS_AT_TOP)
                       + "; fock product (level <= 4), series (max 4..6) and kunneth "
                       "(C2/C3, level 2).  Seeded sizes stay below the fixed commands' "
                       "peak memory (fock basis D8 --level 4)"}

    def __init__(self, root: Path):
        self.root = root
        self.trace = False
        self.digests = json.loads(DIGESTS.read_text())
        self.child_layers: dict = defaultdict(float)
        self.peak_rss_mb = 0.0      # the largest command's own peak

    def prepare(self, trace: bool = False) -> None:
        """With `trace`, every command runs with the library traced and its
        layer metrics add up in `child_layers`."""
        self.trace = trace
        # no child compiles the package: compiling raises a child's memory
        # peak, on the first run in a fresh checkout
        compileall.compile_dir(self.root / "src" / "wreathfock", quiet=1)
        super().prepare()

    def queries(self, rng: random.Random) -> list[Query]:
        qs = [Query(family(c.split()), {"argv": c.split(), "fixed": True})
              for c in README_COMMANDS]

        def seeded(*argv):
            argv = [str(a) for a in argv]
            qs.append(Query(family(argv), {"argv": argv, "fixed": False}))

        seeded("--help")
        seeded("group", "info", rng.choice(list(KNOWN)))
        seeded("group", "classes", rng.choice(list(KNOWN)))
        seeded("wreath", "classes", rng.choice(WREATH_BASES), rng.randint(1, 5))
        base, n = rng.choice(WREATH_BASES), rng.randint(1, 6)
        k = KNOWN[base][1]
        seeded("wreath", "centralizer", base, n, "--type",
               json.dumps([list(e) for e in random_colored_partition(rng, k, n)]))
        small = [g for g in KNOWN if KNOWN[g][0] <= 12]
        while True:
            G, H = rng.choice(small), rng.choice(small)
            if KNOWN[G][0] * KNOWN[H][0] <= 72:
                break
        seeded("pullback", "build", "--K", "trivial", "--G", G, "--H", H)
        seeded("pullback", "check-closed", "--scenario", rng.choice(sorted(SCENARIOS)))
        seeded("pullback", "verify-iso", "--scenario", rng.choice(sorted(SCENARIOS)))
        for base in BASIS_AT_TOP:
            seeded("fock", "basis", base, "--level", TOP_LEVEL)
        base, n = rng.choice(WREATH_BASES[:-1]), rng.randint(1, TOP_LEVEL)
        seeded("fock", "product", base, "--monomial",
               json.dumps([list(e) for e in random_colored_partition(rng, KNOWN[base][1], n)]))
        seeded("fock", "series", rng.choice(WREATH_BASES), "--max", rng.randint(4, 6))
        seeded("fock", "kunneth", rng.choice(["C2", "C3"]), rng.choice(["C2", "C3"]),
               "--max-level", 2)
        for q in qs:
            if q.params["argv"][0] != "--help":
                q.params["argv"] += ["--format", "json"]
        rng.shuffle(qs)
        return qs

    def execute(self, q: Query):
        trace = ["--trace"] if self.trace else []
        cmd = [sys.executable, str(HERE / "cli_child.py"), *trace, *q.params["argv"]]
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, timeout=120)
        lines = proc.stderr.decode().splitlines()
        if lines and lines[-1].startswith(MARKER):
            report = json.loads(lines[-1][len(MARKER):])
            self.peak_rss_mb = max(self.peak_rss_mb, report["peak_rss_mb"])
            for name, v in report.get("layers", {}).items():
                self.child_layers[name] += v
        return proc.returncode, proc.stdout

    def check(self, q: Query, result) -> None:
        code, stdout = result
        argv = q.params["argv"]
        expect(code == 0, f"exit code {code}")
        if argv[0] == "--help":
            expect(stdout.startswith(b"usage:"), "help text")
            return
        if q.params["fixed"]:
            key = " ".join(argv)
            expect(self.digests.get(key) == digest(stdout), "stdout digest")
            return
        doc = json.loads(stdout)
        check_json(argv, doc)

    def layer_totals(self) -> dict:
        """The children's layer metrics since `child_layers` was last
        cleared, plus, when tracing, the in-process golden timings."""
        out = dict(self.child_layers)
        if self.trace:
            out.update(golden_seconds())
        return out


def check_json(argv: list[str], doc) -> None:
    """Closed-form checks of one seeded command's JSON output."""
    cmd = argv[:2]
    if cmd[0] == "group":
        order, k = KNOWN[argv[2]]
        expect(doc["order"] == order, "group order")
        if cmd[1] == "info":
            expect(doc["num_classes"] == k, "class count")
        else:
            rows = doc["classes"]
            expect(len(rows) == k, "class count")
            expect(sum(r["size"] for r in rows) == order, "class equation")
            expect(all(r["size"] * r["centralizer_order"] == order for r in rows),
                   "orbit-stabilizer")
    elif cmd == ["wreath", "classes"]:
        G = wf.catalog_group(argv[2])
        n = int(argv[3])
        order = G.order ** n * math.factorial(n)
        types = colored_partitions(KNOWN[argv[2]][1], n)
        rows = doc["classes"]
        expect(doc["order"] == order and doc["num_classes"] == len(types), "class count")
        expect([tuple(map(tuple, r["type"]["entries"])) for r in rows] == types, "types")
        cents = base_cents(G)
        expect(all(r["centralizer_order"] == cent_order(cents, t)
                   and r["size"] * r["centralizer_order"] == order
                   for r, t in zip(rows, types)), "centralizer formula")
    elif cmd == ["wreath", "centralizer"]:
        G = wf.catalog_group(argv[2])
        entries = [tuple(e) for e in json.loads(argv[5])]
        expect(doc["centralizer_order"] == cent_order(base_cents(G), entries),
               "centralizer formula")
    elif cmd == ["pullback", "build"]:
        G, H = argv[5], argv[7]
        expect(doc["order"] == KNOWN[G][0] * KNOWN[H][0], "product order")
        expect(doc["num_classes"] == KNOWN[G][1] * KNOWN[H][1], "product classes")
    elif cmd == ["pullback", "check-closed"]:
        _, closed = SCENARIOS[argv[3]]
        pat = doc["fusion_pattern"]
        expect(doc["conj_closed"] == closed, "closedness")
        expect((doc["witness"] is None) == closed, "witness iff not closed")
        expect(pat["image_rank"] == pat["ambient_classes"] - pat["empty"], "image rank")
    elif cmd == ["pullback", "verify-iso"]:
        order, closed = SCENARIOS[argv[3]]
        expect(doc["order"] == order, "carrier order")
        expect(doc["conj_closed"] == doc["is_isomorphism"] == closed, "iso iff closed")
    elif cmd == ["fock", "basis"]:
        types = colored_partitions(KNOWN[argv[2]][1], int(argv[4]))
        det = math.prod(factorial_weight(t) for t in types)
        expect(doc["invertible"] and doc["dimension"] == len(types), "basis size")
        expect(Fraction(doc["determinant"]) == det, "determinant is prod of prod m!")
    elif cmd == ["fock", "product"]:
        mu = tuple(sorted(tuple(e) for e in json.loads(argv[4])))
        n = sum(r * m for r, _, m in mu)
        types = colored_partitions(KNOWN[argv[2]][1], n)
        want = [factorial_weight(mu) if t == mu else 0 for t in types]
        expect([Fraction(v) for v in doc["values"]] == want, "monomial closed form")
    elif cmd == ["fock", "series"]:
        k, top = KNOWN[argv[2]][1], int(argv[4])
        want = [len(colored_partitions(k, n)) for n in range(top + 1)]
        expect(doc["agree"] and doc["counts"] == doc["series"] == want, "class counts")
    elif cmd == ["fock", "kunneth"]:
        k = KNOWN[argv[2]][1] * KNOWN[argv[3]][1]
        expect(doc["all_equal"] and doc["checks"] == 2 * k, "generator identity")
    else:
        raise AssertionError(f"no check for {argv}")


def golden_seconds() -> dict:
    """Median in-process time of each golden check."""
    from wreathfock import golden
    out = {}
    for fn in golden.ALL_CHECKS:
        times = []
        for _ in range(GOLDEN_REPEATS):
            t0 = time.perf_counter()
            _, ok, _ = fn()
            times.append(time.perf_counter() - t0)
            expect(ok, f"golden {fn.__name__}")
        out[f"golden.{fn.__name__.removeprefix('check_')}_s"] = sorted(times)[1]
    return out


def write_digests(root: Path) -> None:
    out = {}
    for c in README_COMMANDS:
        argv = c.split() + ["--format", "json"]
        proc = subprocess.run([sys.executable, "-m", "wreathfock", *argv],
                              cwd=root, capture_output=True, timeout=120, check=True)
        out[" ".join(argv)] = digest(proc.stdout)
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-digests"]:
        sys.exit(__doc__)
    write_digests(HERE.parent)
