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
    """The order, then one line per row, each entry gathered from one table
    of the element indices as decimal strings."""
    names = np.arange(G.n).astype(str)
    rows = "\n".join(map(" ".join, names[G.table].tolist()))
    Path(path).write_text(f"{G.n}\n{rows}\n")


_OTHER, _SEPARATOR, _DIGIT, _SIGN = range(4)
_BYTE_KIND = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_KIND[list(b" \t\n\r\v\f")] = _SEPARATOR
_BYTE_KIND[list(b"0123456789")] = _DIGIT
_BYTE_KIND[list(b"+-")] = _SIGN


def _cayley_values(text: str) -> np.ndarray:
    """The tokens of a cayley file as one int64 array, read by numpy.

    Tokens are separated by ASCII whitespace, and each is an optional sign
    followed by decimal digits; InputError names the first token that is
    not.  The read saturates a value past int64, so an error message takes
    the exact value from the token (``_token``).
    """
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    kind = np.pad(_BYTE_KIND[raw], 1, constant_values=_SEPARATOR)
    signs = np.flatnonzero(kind == _SIGN)
    misplaced = signs[(kind[signs - 1] != _SEPARATOR) | (kind[signs + 1] != _DIGIT)]
    bad = np.concatenate([np.flatnonzero(kind == _OTHER)[:1], misplaced[:1]])
    if bad.size:
        at = int(bad.min())                       # kind[i] is raw[i - 1]
        start = int(np.flatnonzero(kind[:at] == _SEPARATOR)[-1])
        end = at + int(np.argmax(kind[at:] == _SEPARATOR))
        token = raw[start:end - 1].tobytes().decode()
        raise InputError("cayley file has a non-integer token: "
                         f"invalid literal for int() with base 10: {token!r}")
    if (kind == _SEPARATOR).all():                # no token; numpy would read a 0
        return np.empty(0, dtype=np.int64)
    return np.fromstring(text, dtype=np.int64, sep=" ")


def _token(text: str, i: int) -> int:
    """Token i of a cayley file, as an exact Python int."""
    return int(text.split(maxsplit=i + 1)[i])


def load_cayley(text: str, label: str = "") -> GroupTable:
    # the declared order meets the cap before the n^2 entries are read
    declared = re.match(r"\s*(\d+)(?!\S)", text)
    if declared and int(declared.group(1)) > max_order_cap():
        raise InputError(f"group order {int(declared.group(1))} exceeds "
                         f"the desk-scale cap {max_order_cap()}")
    values = _cayley_values(text)
    if not values.size:
        raise InputError("empty cayley file")
    n = int(values[0])
    if n < 1 or values.size != 1 + n * n:
        raise InputError(f"cayley file declares n={_token(text, 0)} "
                         f"but carries {values.size - 1} entries")
    table = values[1:].reshape(n, n)
    outside = (table < 0) | (table >= n)
    if outside.any():
        a, b = map(int, np.argwhere(outside)[0])
        raise InputError(f"closure violated at ({a},{b}): "
                         f"entry {_token(text, 1 + a * n + b)} not in [0,{n})")
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
        # a product byte-identical to G is G itself; the recipe keeps its label
        product = cons.natural_semidirect(G, H).group
        return GroupTable(product.table, cons.product_label(G, H.order), trusted=True)
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


def load_group(source: str) -> GroupTable:
    """Load from a path, in the format ``sniff_format`` reads from the file's
    first line (cayley, perm or a one-line recipe), or else treat the string
    as a recipe."""
    path = Path(source)
    if path.exists() and path.is_file():
        text = path.read_text()
        if not text.strip():
            raise InputError(f"group file {source} is empty")
        fmt = sniff_format(text)
        if fmt == "cayley":
            return load_cayley(text, label=path.name)
        if fmt == "perm":
            return load_perm(text, label=path.name)
        return build_recipe(text.strip())
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
