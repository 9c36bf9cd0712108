"""Spans around the calls into heckekit's public functions, from outside.

`Tracer` replaces each traced function by a wrapper in every heckekit
namespace that holds it: module globals (so `from .laurent import
div_exact` in rouquier and soergel is covered), class attributes with
their aliases (`__rmul__ = __mul__`) and module-level dicts such as
`verify.SUITES`.  Leaving the `with` block puts every original back.

Spans are kept in memory as one tree per request (one CLI invocation).
Calls along the same path of span names are merged into one node that
counts them and sums their durations: an F4 KL table makes millions of
Laurent calls, too many to keep one record each.  Merging keeps each
node's self time exact, because self time is a sum over calls.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, module, class or None, attribute, count distinct arguments)
TRACED = (
    ("laurent.mul", "laurent", "LaurentPoly", "__mul__", False),
    ("laurent.add", "laurent", "LaurentPoly", "__add__", False),
    ("laurent.str", "laurent", "LaurentPoly", "__str__", False),
    ("laurent.div_exact", "laurent", None, "div_exact", False),
    ("coxeter.build", "coxeter", None, "build", False),
    ("coxeter.word_str", "coxeter", "CoxeterSystem", "word_str", False),
    ("coxeter.bruhat_leq", "coxeter", "CoxeterSystem", "bruhat_leq", True),
    ("hecke.kl_basis", "hecke", "HeckeAlgebra", "kl_basis", True),
    ("hecke.bar", "hecke", "HeckeAlgebra", "bar", False),
    ("hecke.kl_gen_mult", "hecke", "HeckeAlgebra", "kl_gen_mult", False),
    ("hecke.pairing", "hecke", "HeckeAlgebra", "pairing", False),
    ("parabolic.kl_basis", "parabolic", "ParabolicModule", "kl_basis", True),
    ("parabolic.inverse_kl", "parabolic", "ParabolicModule", "inverse_kl", True),
    ("parabolic.embed", "parabolic", "ParabolicModule", "embed", False),
    ("parabolic.extract", "parabolic", "ParabolicModule", "extract", False),
    ("parabolic.pair_embedded", "parabolic", "ParabolicModule",
     "pair_embedded_std", False),
    ("parabolic.pair_embedded", "parabolic", "ParabolicModule",
     "pair_embedded_kl", False),
    ("rouquier.f_shape", "rouquier", None, "f_shape", False),
    ("rouquier.shape_character", "rouquier", None, "shape_character", False),
    ("rouquier.euler_hom", "rouquier", None, "euler_hom", False),
    ("soergel.graded_hom_rank", "soergel", None, "graded_hom_rank", False),
    ("soergel.bott_samelson_char", "soergel", None, "bott_samelson_char", False),
    ("soergel.kl_decompose", "soergel", None, "kl_decompose", False),
    ("verify.check", "verify", "SuiteResult", "check", False),
    ("cli.main", "cli", None, "main", False),
)


class Node:
    """All spans of one request that share a path of span names."""

    __slots__ = ("name", "parent", "children", "calls", "total")

    def __init__(self, name: str, parent: "Node | None" = None):
        self.name = name
        self.parent = parent
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.total = 0.0

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name, self)
        return node

    def self_time(self) -> float:
        """Duration minus the part covered by child spans.  Calls run one
        at a time on one thread, so children never overlap."""
        return self.total - sum(c.total for c in self.children.values())

    def walk(self):
        yield self
        for c in self.children.values():
            yield from c.walk()


def _heckekit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "heckekit" or name.startswith("heckekit."))]


def _binding_sites(obj):
    """Every (container, key) in heckekit that is bound to `obj`."""
    seen = set()
    for mod in _heckekit_modules():
        containers = [mod]
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith("heckekit"):
                containers.append(value)
            elif isinstance(value, dict):
                containers.append(value)
        for c in containers:
            items = c.items() if isinstance(c, dict) else vars(c).items()
            for key, value in list(items):
                if value is obj and (id(c), key) not in seen:
                    seen.add((id(c), key))
                    yield c, key


def _assign(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Context manager: wraps the traced functions on entry, restores
    them on exit, and collects one span tree per request."""

    def __init__(self):
        self.requests: list[tuple[list[str], Node]] = []
        self.distinct: dict[str, set] = defaultdict(set)
        self._current: Node | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- requests -----------------------------------------------------------

    def begin(self, argv: list[str]) -> None:
        root = Node("request")
        self.requests.append((list(argv), root))
        self._current = root

    def end(self) -> None:
        self._current = None

    # -- wrapping -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        import heckekit
        from heckekit import verify

        targets = []
        for name, module, cls, attr, distinct in TRACED:
            owner = getattr(heckekit, module)
            if cls is not None:
                owner = getattr(owner, cls)
            targets.append((name, vars(owner)[attr], distinct))
        for suite, fn in verify.SUITES.items():
            targets.append((f"verify.{suite}", fn, False))
        try:
            for name, fn, distinct in targets:
                wrapper = self._wrap(name, fn, distinct)
                for container, key in list(_binding_sites(fn)):
                    self._saved.append((container, key, fn))
                    _assign(container, key, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            container, key, fn = self._saved.pop()
            _assign(container, key, fn)

    def _wrap(self, name: str, fn, distinct: bool):
        tracer = self
        clock = time.perf_counter
        keys = self.distinct[name] if distinct else None

        def traced(*args, **kwargs):
            parent = tracer._current
            if parent is None:  # outside a request
                return fn(*args, **kwargs)
            node = parent.children.get(name) or parent.child(name)
            if keys is not None:
                # receiver identity and request number: each request
                # builds its own system, and ids are reused across them
                keys.add((len(tracer.requests), id(args[0]), args[1:]))
            tracer._current = node
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                node.total += clock() - t0
                node.calls += 1
                tracer._current = parent

        traced.__wrapped__ = fn
        return traced

    # -- results --------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.
        Inclusive seconds count a recursive call once per level, so they
        are read only for spans that do not recurse (the verify suites)."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for _, root in self.requests:
            for node in root.walk():
                if node is root:
                    continue
                agg = out[node.name]
                agg["calls"] += node.calls
                agg["total"] += node.total
                agg["self"] += node.self_time()
        return out

    def dump(self) -> dict:
        """The merged spans, one list per request: [id, parent id, name,
        calls, seconds, self seconds]."""
        requests = []
        for i, (argv, root) in enumerate(self.requests):
            ids = {id(n): k for k, n in enumerate(root.walk())}
            spans = [
                [ids[id(n)], None if n.parent is root else ids[id(n.parent)], n.name,
                 n.calls, n.total, n.self_time()]
                for n in root.walk() if n is not root
            ]
            requests.append({"request": i, "argv": argv, "spans": spans})
        return {"requests": requests}
