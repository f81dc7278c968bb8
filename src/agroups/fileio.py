"""Group file formats and report serialization.

Three input formats:

* ``cayley`` -- first line the order n, then n lines of n whitespace
  separated 0-based element indices.  The identity is normalized to index 0
  on load, relabelling if needed.
* ``perm`` -- first line ``degree d``, each following line one generator as
  an image list; the loader enumerates the generated permutation group up
  to the desk-scale cap.
* ``recipe`` -- a one-line construction expression such as ``dihedral(7)``,
  ``frobenius(7,3)``, ``dp(sym(3),cyclic(2))``, ``sd(cyclic(5),cyclic(4),1)``
  or ``nsd(FILE,1,2)`` (coset-action product over the subgroup generated by
  the listed elements).

Saving always writes cayley, which round-trips bit for bit.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .core import (
    GroupTable,
    InputError,
    find_identity,
    max_order_cap,
    subgroup_closure,
)
from . import constructions as cons
from .verifier import VerificationReport


def save_cayley(G: GroupTable, path) -> None:
    lines = [str(G.n)]
    lines.extend(" ".join(str(int(v)) for v in row) for row in G.table)
    Path(path).write_text("\n".join(lines) + "\n")


def load_cayley(text: str, label: str = "") -> GroupTable:
    # the declared order meets the cap before the n^2 entries are read
    declared = re.match(r"\s*(\d+)(?!\S)", text)
    if declared and int(declared.group(1)) > max_order_cap():
        raise InputError(f"group order {int(declared.group(1))} exceeds "
                         f"the desk-scale cap {max_order_cap()}")
    tokens = text.split()
    if not tokens:
        raise InputError("empty cayley file")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise InputError(f"cayley file has a non-integer token: {exc}") from None
    n = values[0]
    if n < 1 or len(values) != 1 + n * n:
        raise InputError(f"cayley file declares n={n} but carries {len(values) - 1} entries")
    # range-checked as Python ints, so an entry past int64 is an input error too
    bad = next((i for i, v in enumerate(values[1:]) if not 0 <= v < n), None)
    if bad is not None:
        a, b = divmod(bad, n)
        raise InputError(
            f"closure violated at ({a},{b}): entry {values[1 + bad]} not in [0,{n})")
    table = np.array(values[1:], dtype=np.int64).reshape(n, n)
    e = find_identity(table)
    if e is None:
        raise InputError("identity violated: no two-sided identity element")
    if e != 0:
        swap = np.arange(n)
        swap[0], swap[e] = e, 0
        table = swap[table[np.ix_(swap, swap)]]
    return GroupTable(table, label=label)


def load_perm(text: str, label: str = "") -> GroupTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError(f"perm file {label or '(unnamed)'} is empty")
    m = re.fullmatch(r"degree\s+(\d+)", lines[0].strip())
    if not m:
        raise InputError("perm file must start with 'degree d'")
    d = int(m.group(1))
    if d < 1:
        raise InputError("perm file degree must be positive")
    gens: list[tuple[int, ...]] = []
    for ln in lines[1:]:
        try:
            images = tuple(int(t) for t in ln.split())
        except ValueError:
            raise InputError(f"generator line {ln!r} has a non-integer token") from None
        if sorted(images) != list(range(d)):
            raise InputError(f"generator line {ln!r} is not a permutation of 0..{d - 1}")
        gens.append(images)
    identity = tuple(range(d))
    elements = {identity}
    frontier = [identity]
    cap = max_order_cap()
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(q[p[i]] for i in range(d))
                if r not in elements:
                    elements.add(r)
                    nxt.append(r)
                    if len(elements) > cap:
                        raise InputError(
                            f"permutation group exceeds the desk-scale cap {cap}")
        frontier = nxt
    return cons.perm_table(sorted(elements), label)


# -- recipes -------------------------------------------------------------------


_NAME_RE = re.compile(r"^([a-z][a-z0-9_]*)\((.*)\)$", re.DOTALL)


def _split_args(body: str) -> list[str]:
    args, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InputError("unbalanced parentheses in recipe")
        if ch == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    last = "".join(cur).strip()
    if last or args:
        args.append(last)
    if depth != 0:
        raise InputError("unbalanced parentheses in recipe")
    return [a for a in args if a != ""]


def build_recipe(expr: str) -> GroupTable:
    """Evaluate one construction expression to a group table."""
    expr = expr.strip()
    m = _NAME_RE.fullmatch(expr)
    if not m:
        raise InputError(f"cannot parse recipe {expr!r}")
    name, body = m.group(1), m.group(2)
    args = _split_args(body)

    def as_int(a: str) -> int:
        try:
            return int(a)
        except ValueError:
            raise InputError(f"recipe {name!r} expects integers, got {a!r}") from None

    if name == "cyclic":
        return cons.cyclic(as_int(_one(args, name)))
    if name == "abelian":
        return cons.abelian_group([as_int(a) for a in args])
    if name == "dihedral":
        return cons.dihedral(as_int(_one(args, name)))
    if name == "sym":
        return cons.symmetric(as_int(_one(args, name)))
    if name == "alt":
        return cons.alternating(as_int(_one(args, name)))
    if name == "quaternion8":
        if args:
            raise InputError("quaternion8 takes no arguments")
        return cons.quaternion8()
    if name == "frobenius":
        if len(args) != 2:
            raise InputError("frobenius expects (p, q)")
        return cons.frobenius(as_int(args[0]), as_int(args[1]))
    if name == "dp":
        if len(args) != 2:
            raise InputError("dp expects two group expressions")
        return cons.direct_product(_subexpr(args[0]), _subexpr(args[1]))
    if name == "sd":
        if len(args) != 3:
            raise InputError("sd expects (acted, acting, action-index)")
        return cons.semidirect_from_selector(
            _subexpr(args[0]), _subexpr(args[1]), as_int(args[2]))
    if name == "nsd":
        if len(args) < 2:
            raise InputError("nsd expects (group, generator indices...)")
        G = _subexpr(args[0])
        gens = [as_int(a) for a in args[1:]]
        H = subgroup_closure(G, gens)
        ns = cons.natural_semidirect(G, H)
        return ns.group
    raise InputError(f"unknown recipe constructor {name!r}")


def _one(args: list[str], name: str) -> str:
    if len(args) != 1:
        raise InputError(f"{name} expects one argument")
    return args[0]


def _subexpr(arg: str) -> GroupTable:
    if _NAME_RE.fullmatch(arg):
        return build_recipe(arg)
    return load_group(arg)


def sniff_format(text: str) -> str:
    head = text.lstrip().split("\n", 1)[0].strip()
    if re.fullmatch(r"\d+", head):
        return "cayley"
    if head.startswith("degree"):
        return "perm"
    return "recipe"


def load_group(source: str, fmt: str | None = None) -> GroupTable:
    """Load from a path (cayley/perm/recipe file) or treat the string as a recipe."""
    path = Path(source)
    if path.exists() and path.is_file():
        text = path.read_text()
        if not text.strip():
            raise InputError(f"group file {source} is empty")
        fmt = fmt or sniff_format(text)
        if fmt == "cayley":
            return load_cayley(text, label=path.name)
        if fmt == "perm":
            return load_perm(text, label=path.name)
        if fmt == "recipe":
            return build_recipe(text.strip())
        raise InputError(f"unknown format {fmt!r}")
    if fmt not in (None, "recipe"):
        raise InputError(f"no such file: {source}")
    if not _NAME_RE.fullmatch(source.strip()):
        raise InputError(f"no such file, and not a recipe either: {source!r}")
    return build_recipe(source)


# -- reports -------------------------------------------------------------------


def write_report_file(reports: list[VerificationReport], path) -> None:
    """One canonical JSON object per line; byte-stable across runs."""
    lines = [json.dumps(r.record(), sort_keys=True, separators=(",", ":"))
             for r in reports]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def summary_table(reports: list[VerificationReport]) -> str:
    """Fixed-width per-check totals."""
    lemmas: dict[str, dict[str, int]] = {}
    for r in reports:
        row = lemmas.setdefault(r.lemma_id, {"PASS": 0, "FAIL": 0, "SKIP": 0,
                                             "checked": 0, "skipped": 0})
        row[r.status] += 1
        row["checked"] += r.checked
        row["skipped"] += r.skipped
    out = [f"{'check':<10} {'PASS':>6} {'FAIL':>6} {'SKIP':>6} {'tuples':>9} {'skipped':>9}"]
    for lemma in sorted(lemmas):
        row = lemmas[lemma]
        out.append(f"{lemma:<10} {row['PASS']:>6} {row['FAIL']:>6} {row['SKIP']:>6} "
                   f"{row['checked']:>9} {row['skipped']:>9}")
    return "\n".join(out)
