"""Outside-in tracer: spans around the public functions of the agroups layers.

The tracer rebinds each wrapped function in every agroups module that holds
it (the defining module, every ``from .x import y`` copy, and module-level
dispatch dicts such as ``verifier._CHECKS``), records one span per call and
restores every original binding when it is closed.  Nothing in the program
itself changes; spans live in memory and are reduced to per-layer metrics at
the end of the traced phase.

A span carries a name, a start, an end and the index of its parent span.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import time

AGROUPS_MODULES = ("agroups", "agroups.core", "agroups.structure",
                   "agroups.constructions", "agroups.indices",
                   "agroups.verifier", "agroups.fileio", "agroups.cli")

LEMMA_CHECKS = {
    "basic": "check_basic", "cl2": "check_cl2", "go": "check_go",
    "centre": "check_centre", "size": "check_size", "l4": "check_l4",
    "bingo": "check_bingo", "key": "check_key", "ca": "check_ca",
    "cc": "check_cc", "theorem": "check_theorem",
}

# (module, function) pairs the traced run wraps.  Every name here must record
# at least one call on the self-test input (see rep.self_test).
WRAPPED = (
    ("core", "subgroups_of"),
    ("core", "normal_subgroups"),
    ("core", "quotient_group"),
    ("core", "subgroup_closure"),
    ("core", "derived_series"),
    ("core", "verify_group_axioms"),
    ("constructions", "corpus"),
    ("constructions", "natural_semidirect"),
    ("constructions", "two_step_collapse_witness"),
    ("structure", "sylow_subgroup"),
    ("structure", "p_core"),
    ("structure", "fitting_data"),
    ("structure", "complement_search"),
    ("structure", "l4_decompose"),
    ("structure", "ca_decompose"),
    ("indices", "index_set"),
    ("indices", "hypothesis_check"),
    *(("verifier", fn) for fn in LEMMA_CHECKS.values()),
    ("verifier", "check_bingo_pair"),
    ("fileio", "write_report_file"),
)


def _public_items(mod) -> list[tuple[str, object]]:
    return [(k, v) for k, v in vars(mod).items() if not k.startswith("__")]


def snapshot() -> dict[tuple, object]:
    """Every agroups module attribute and module-level dict entry, so that a
    caller can check by identity that a traced run left no wrapper behind."""
    out: dict[tuple, object] = {}
    for name in AGROUPS_MODULES:
        for attr, value in _public_items(importlib.import_module(name)):
            out[(name, attr)] = value
            if isinstance(value, dict):
                for key, item in value.items():
                    out[(name, attr, key)] = item
    return out


def changed_bindings(before: dict[tuple, object]) -> list[str]:
    after = snapshot()
    keys = set(before) | set(after)
    return sorted(".".join(map(str, k)) for k in keys
                  if k not in before or k not in after or after[k] is not before[k])


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None


class Tracer:
    """Install with ``with Tracer() as tr:``; originals are restored on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []   # (module, attr, original)
        self._dict_rebound: list[tuple[dict, str, object]] = []
        self._seen_subs: dict[tuple[int, bytes], str] = {}
        self._seen_quot: set[tuple[int, bytes]] = set()
        self._alive: list[object] = []   # tables keyed by id() stay alive while tracing

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(m) for m in AGROUPS_MODULES]
        try:
            for short, fn_name in WRAPPED:
                owner = importlib.import_module(f"agroups.{short}")
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for mod in modules:
                    for attr, value in _public_items(mod):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, original))
                        elif isinstance(value, dict):
                            for key, item in list(value.items()):
                                if item is original:
                                    value[key] = wrapper
                                    self._dict_rebound.append((value, key, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        for table, key, original in reversed(self._dict_rebound):
            table[key] = original
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._dict_rebound.clear()
        self._rebound.clear()
        self._alive.clear()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(),
                               self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> Span:
        self._stack.pop()
        span = self.spans[idx]
        span.end = time.perf_counter()
        return span

    def _wrap(self, name: str, fn):
        if name == "constructions.corpus":
            return self._wrap_generator(name, fn)
        before = {"core.subgroups_of": self._classify_subgroups,
                  "core.quotient_group": self._note_quotient}.get(name)
        after = _AFTER.get(name)
        if name.startswith("verifier.check_"):
            after = _after_check

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = before(*args, **kwargs) if before is not None else None
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(idx)
                span.info = info
            if after is not None:
                span.info = {**(info or {}), **after(args, kwargs, result, self.spans, idx)}
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """One span per item produced, so time spent consuming it is not counted."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._iterate(name, fn(*args, **kwargs))

        return wrapper

    def _iterate(self, name: str, gen):
        while True:
            idx = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                self._close(idx).info = {"items": 0}
                return
            except BaseException:
                self._close(idx)
                raise
            self._close(idx).info = {"items": 1}
            yield item

    def _classify_subgroups(self, G, limit=None):
        """Generic, abelian or elementary path, from the scope's public properties."""
        key = (id(G), b"\x01" * G.n if limit is None else limit.key())
        path = self._seen_subs.get(key)
        if path is not None:
            return {"path": path, "first": False}
        from agroups.core import prime_factors

        if limit is None:
            abelian, members = G.is_abelian(), None
        else:
            abelian, members = limit.is_abelian, limit.members
        if not abelian:
            path = "generic"
        else:
            orders = G.element_orders if members is None else G.element_orders[members]
            primes = prime_factors(G.n if members is None else len(members))
            elementary = len(primes) == 1 and bool((orders[orders > 1] == primes[0]).all())
            path = "elementary" if elementary else "abelian"
        self._seen_subs[key] = path
        self._alive.append(G)
        return {"path": path, "first": True}

    def _note_quotient(self, G, N):
        key = (id(G), N.key())
        first = key not in self._seen_quot
        if first:
            self._seen_quot.add(key)
            self._alive.append(G)
        return {"first": first}


def _children(spans, idx):
    return [s for s in spans[idx + 1:] if s.parent == idx]


def _after_subgroups(args, kwargs, result, spans, idx):
    return {"returned": len(result)}


def _after_normals(args, kwargs, result, spans, idx):
    lattice = sum((s.info or {}).get("returned", 0) for s in _children(spans, idx)
                  if s.name == "core.subgroups_of")
    return {"kept": len(result), "lattice": lattice}


def _after_semidirect(args, kwargs, result, spans, idx):
    return {"order": result.group.n}


def _after_complement(args, kwargs, result, spans, idx):
    return {"found": result is not None}


def _after_write(args, kwargs, result, spans, idx):
    from pathlib import Path

    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": Path(path).stat().st_size}


def _after_check(args, kwargs, result, spans, idx):
    return {"checked": sum(r.checked for r in result)}


_AFTER = {
    "core.subgroups_of": _after_subgroups,
    "core.normal_subgroups": _after_normals,
    "constructions.natural_semidirect": _after_semidirect,
    "structure.complement_search": _after_complement,
    "fileio.write_report_file": _after_write,
}


def _per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    count, sec = "count", "s"
    out = [
        ("core.subgroups_of.calls", count, "lower"),
        ("core.subgroups_of.first_calls", count, "lower"),
        ("core.subgroups_of.returned", count, "lower"),
    ]
    for path in ("generic", "abelian", "elementary"):
        out += [(f"core.subgroups_of.{path}.calls", count, "lower"),
                (f"core.subgroups_of.{path}.self_s", sec, "lower")]
    out += [
        ("core.normal_subgroups.calls", count, "lower"),
        ("core.normal_subgroups.self_s", sec, "lower"),
        ("core.normal_subgroups.kept_ratio", "ratio", "higher"),
        ("core.quotient_group.calls", count, "lower"),
        ("core.quotient_group.first_calls", count, "lower"),
        ("core.quotient_group.self_s", sec, "lower"),
    ]
    for fn in ("subgroup_closure", "derived_series", "verify_group_axioms"):
        out += [(f"core.{fn}.calls", count, "lower"), (f"core.{fn}.self_s", sec, "lower")]
    out += [
        ("constructions.corpus.tables", count, "higher"),
        ("constructions.corpus.self_s", sec, "lower"),
        ("constructions.natural_semidirect.calls", count, "lower"),
        ("constructions.natural_semidirect.self_s", sec, "lower"),
        ("constructions.natural_semidirect.order_sum", "elements", "lower"),
        ("constructions.two_step_collapse_witness.calls", count, "lower"),
        ("constructions.two_step_collapse_witness.self_s", sec, "lower"),
    ]
    for fn in ("sylow_subgroup", "p_core", "fitting_data", "complement_search",
               "l4_decompose", "ca_decompose"):
        out += [(f"structure.{fn}.calls", count, "lower"),
                (f"structure.{fn}.self_s", sec, "lower")]
    out.append(("structure.complement_search.found_ratio", "ratio", "higher"))
    for fn in ("index_set", "hypothesis_check"):
        out += [(f"indices.{fn}.calls", count, "lower"), (f"indices.{fn}.self_s", sec, "lower")]
    for lemma in LEMMA_CHECKS:
        out += [(f"verifier.{lemma}.self_s", sec, "lower"),
                (f"verifier.{lemma}.group_max_ms", "ms", "lower"),
                (f"verifier.{lemma}.checked", count, "higher")]
    out += [
        ("verifier.check_bingo_pair.calls", count, "lower"),
        ("verifier.check_bingo_pair.self_s", sec, "lower"),
        ("verifier.scan.worker_idle_share", "ratio", "lower"),
        ("fileio.write_report_file.self_s", sec, "lower"),
        ("fileio.write_report_file.bytes", "bytes", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


PER_LAYER = _per_layer_names()


def call_counts(spans: list[Span]) -> dict[str, int]:
    """Calls per wrapped function; a generator counts once per item produced."""
    counts = {f"{short}.{fn}": 0 for short, fn in WRAPPED}
    for s in spans:
        if s.name != "constructions.corpus" or (s.info or {}).get("items"):
            counts[s.name] += 1
    return counts


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Reduce spans to every per-layer metric except the two taken from
    untraced runs (worker idle share and tracing overhead)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    m: dict[str, float] = {name: 0.0 if unit in ("s", "ms", "ratio") else 0
                           for name, unit, _ in PER_LAYER}
    totals = {"kept": 0, "lattice": 0, "found": 0}
    calls = call_counts(spans)
    lemma_of = {f"verifier.{fn}": lemma for lemma, fn in LEMMA_CHECKS.items()}

    for i, s in enumerate(spans):
        own = s.end - s.start - child_time[i]
        info = s.info or {}
        name = lemma_of.get(s.name)
        if name is not None:
            m[f"verifier.{name}.self_s"] += own
            m[f"verifier.{name}.checked"] += info.get("checked", 0)
            key = f"verifier.{name}.group_max_ms"
            m[key] = max(m[key], (s.end - s.start) * 1000)
            continue
        if s.name == "core.subgroups_of":
            m[f"core.subgroups_of.{info['path']}.calls"] += 1
            m[f"core.subgroups_of.{info['path']}.self_s"] += own
            m["core.subgroups_of.first_calls"] += int(info["first"])
            m["core.subgroups_of.returned"] += info.get("returned", 0)
            continue
        m[f"{s.name}.self_s"] += own
        if s.name == "core.normal_subgroups":
            totals["kept"] += info.get("kept", 0)
            totals["lattice"] += info.get("lattice", 0)
        elif s.name == "core.quotient_group":
            m["core.quotient_group.first_calls"] += int(info["first"])
        elif s.name == "constructions.natural_semidirect":
            m["constructions.natural_semidirect.order_sum"] += info.get("order", 0)
        elif s.name == "structure.complement_search":
            totals["found"] += int(info.get("found", False))
        elif s.name == "fileio.write_report_file":
            m["fileio.write_report_file.bytes"] += info.get("bytes", 0)

    for name, count in calls.items():
        if f"{name}.calls" in m:
            m[f"{name}.calls"] = count
    m["constructions.corpus.tables"] = calls["constructions.corpus"]
    if totals["lattice"]:
        m["core.normal_subgroups.kept_ratio"] = totals["kept"] / totals["lattice"]
    if calls["structure.complement_search"]:
        m["structure.complement_search.found_ratio"] = (
            totals["found"] / calls["structure.complement_search"])
    return m
