"""Per-layer tracing from outside the library.

:class:`Tracer` wraps the public functions of every ``giantnat`` module,
the methods of the ``TREE``/``BIJ``/``BIGNAT`` singletons (as instance
attributes, which shadow the class methods the generic algorithms fetch
through ``self``), and the names modules bound at import time (the tree's
``_SUCC``/``_PRED``/``_ADD`` counter aliases, ``numtheory.pair_rest``,
``codecs.vmul``, the CLI's imported helpers and its encoder tables).
Each wrapper is a span: it counts a call and charges its duration, less
the time of nested spans, to its group's self time.  :meth:`Tracer.remove`
puts every original back and checks that it did.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

CORE_SUCC_PRED = ("succ", "pred")
CORE_ARITH = ("add", "sub", "cmp", "mul", "db", "hf", "pow", "exp2", "leftshift",
              "div_and_rem", "divide", "remainder", "min2", "max2")
CORE_SPECIAL = ("dual", "bitsize", "repsize", "cons", "decons", "succ_depth",
                "to_list_alt", "from_list_alt")
CORE_VIEW = ("from_int", "to_int")
PRIMS = ("o", "i", "o_inv", "i_inv", "is_o", "is_e", "is_i")
WALK = ("o_inv", "i_inv")
# groups whose spans run core.py's generic digit loops
WALKING_GROUPS = frozenset({"core.succ_pred", "core.arith", "core.special", "core.view", "tree.counter"})

MODULE_GROUPS = {
    "tree": {
        "tree.fast": ("exp2_fast", "leftshift_fast", "bitsize_fast", "cons_fast", "decons_fast",
                      "dual_fast", "repsize_fast", "vmul"),
        "tree.fold": ("fold_to_dag", "unfold_dag", "dag_to_dot", "node_count"),
        "tree.text": ("print_tree", "parse_tree"),
    },
    "core": {"core.view": ("view",)},
    "bij": {"bij.text": ("digit_string", "parse_digit_string", "nested_form")},
    "bignat": {"bignat.decimal": ("parse_decimal", "print_decimal")},
    "codecs": {
        "codecs.pair": ("pair_encode", "pair_first", "pair_rest"),
        "codecs.list": ("to_list", "from_list", "to_mset", "from_mset", "to_set", "from_set"),
        "codecs.setop": ("set_union", "set_intersection", "set_difference", "set_symdiff"),
        "codecs.bits": ("l_op", "l_and", "l_or", "l_xor", "l_dif", "l_ite", "l_not"),
    },
    "numtheory": {
        "numtheory.ack": ("ack",),
        "numtheory.primes": ("primes",),
        "numtheory.lucas_lehmer": ("lucas_lehmer", "fastmod", "mersenne_prime_exps", "mersenne_primes"),
        "numtheory.syracuse": ("syracuse", "nsyr"),
        "numtheory.special": ("mersenne", "fermat", "perfect", "mersenne45", "perfect45"),
    },
    "cli": {"cli": ("main",)},
}

# names a module bound at import time: (module, name) -> (source module, name)
ALIASES = {
    ("numtheory", "pair_rest"): ("codecs", "pair_rest"),
    ("codecs", "vmul"): ("tree", "vmul"),
    **{("cli", n): ("tree", n) for n in ("parse_tree", "print_tree", "fold_to_dag",
                                          "dag_to_dot", "bitsize_fast")},
    ("cli", "view"): ("core", "view"),
    ("cli", "parse_decimal"): ("bignat", "parse_decimal"),
    ("cli", "print_decimal"): ("bignat", "print_decimal"),
    ("cli", "digit_string"): ("bij", "digit_string"),
    ("cli", "parse_digit_string"): ("bij", "parse_digit_string"),
}

COUNTERS = ("_SUCC", "_PRED", "_ADD")


def _group_of(module_name: str, name: str) -> str:
    return next(g for g, names in MODULE_GROUPS[module_name].items() if name in names)


class Tracer:
    def __init__(self, gn):
        self.gn = gn
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.groups: set[str] = set()  # every group with a span installed
        self.walk_steps = 0
        self.nodes_alloc = 0
        self.counter_args: set = set()
        self._child: list[float] = []  # nested-span time of each open span
        self._open: list[str] = []  # group of each open span
        self._undo: list[tuple] = []  # (target, name, original, had_own_attr)
        self._wrapped: dict[int, object] = {}  # id(original) -> wrapper
        self.missing: list[str] = []  # names to wrap that the library no longer has

    # -- wrappers -------------------------------------------------------

    def _span(self, group: str, fn, walk: bool = False, record=None):
        calls, self_s, child, open_ = self.calls, self.self_s, self._child, self._open
        clock = time.perf_counter
        self.groups.add(group)

        def wrapper(*args, **kwargs):
            if walk and open_ and open_[-1] in WALKING_GROUPS:
                self.walk_steps += 1
            calls[group] += 1
            child.append(0.0)
            open_.append(group)
            t0 = clock()
            try:
                if record is not None:  # charged to this span, not to its caller
                    record(args)
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                open_.pop()
                self_s[group] += dt - child.pop()
                if child:
                    child[-1] += dt

        return wrapper

    def _gen_span(self, group: str, fn):
        """Span per ``next`` of a generator function's iterator."""
        calls, self_s, child, open_ = self.calls, self.self_s, self._child, self._open
        clock = time.perf_counter
        self.groups.add(group)

        def wrapper(*args, **kwargs):
            calls[group] += 1
            it = fn(*args, **kwargs)

            def drive():
                while True:
                    child.append(0.0)
                    open_.append(group)
                    t0 = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        open_.pop()
                        self_s[group] += dt - child.pop()
                        if child:
                            child[-1] += dt
                    yield value

            return drive()

        return wrapper

    def _patch(self, target, name: str, wrapper, instance: bool = False):
        own = name in vars(target)
        original = vars(target)[name] if own else getattr(target, name)
        if instance and own:
            raise RuntimeError(f"{target!r} already has its own {name}")
        self._undo.append((target, name, original, own))
        setattr(target, name, wrapper)

    def _wrap_function(self, module, name: str, group: str):
        fn = getattr(module, name, None)
        if fn is None:  # renamed or removed since: trace what is left
            self.missing.append(f"{module.__name__}.{name}")
            return
        if id(fn) not in self._wrapped:
            make = self._gen_span if inspect.isgeneratorfunction(fn) else self._span
            self._wrapped[id(fn)] = make(group, fn)
        self._patch(module, name, self._wrapped[id(fn)])

    # -- install / remove -----------------------------------------------

    def install(self) -> None:
        gn = self.gn
        for rep, prefix in ((gn.tree.TREE, "tree"), (gn.bij.BIJ, "bij"), (gn.bignat.BIGNAT, "bignat")):
            for names, group in ((PRIMS, f"{prefix}.prim"), (CORE_SUCC_PRED, "core.succ_pred"),
                                 (CORE_ARITH, "core.arith"), (CORE_SPECIAL, "core.special"),
                                 (CORE_VIEW, "core.view")):
                for name in names:
                    fn = getattr(rep, name, None)
                    if fn is None:
                        self.missing.append(f"{prefix}.{name}")
                        continue
                    self._patch(rep, name, self._span(group, fn, walk=name in WALK), instance=True)
        for name in COUNTERS:
            fn = getattr(gn.tree, name, None)
            if fn is None:
                self.missing.append(f"giantnat.tree.{name}")
                continue
            record = (lambda args, name=name: self.counter_args.add((name, args)))
            self._patch(gn.tree, name, self._span("tree.counter", fn, record=record))
        for module_name, groups in MODULE_GROUPS.items():
            module = getattr(gn, module_name)
            for group, names in groups.items():
                for name in names:
                    self._wrap_function(module, name, group)
        for (module_name, name), (src_name, src) in ALIASES.items():
            self._wrap_function(getattr(gn, module_name), name, _group_of(src_name, src))
        for table_name in ("_ENCODERS", "_DECODERS"):
            table = getattr(gn.cli, table_name, {})
            for key, fn in list(table.items()):
                if id(fn) in self._wrapped:
                    self._undo.append((table, key, fn, None))
                    table[key] = self._wrapped[id(fn)]
        for cls in (gn.tree.VNode, gn.tree.WNode):
            self._patch(cls, "__init__", self._counting_init(cls.__init__))

    def _counting_init(self, init):
        def __init__(node, head, tail):
            self.nodes_alloc += 1
            init(node, head, tail)

        return __init__

    def remove(self) -> None:
        while self._undo:
            target, name, original, own = self._undo.pop()
            if own is None:
                target[name] = original
            elif own:
                setattr(target, name, original)
            else:
                delattr(target, name)
            current = target[name] if own is None else getattr(target, name)
            if own is not False and current is not original:
                raise RuntimeError(f"could not restore {name}")

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.walk_steps = 0
        self.nodes_alloc = 0
        self.counter_args.clear()

    # -- results --------------------------------------------------------

    def counts(self) -> dict[str, int | float]:
        """Deterministic counts of every group: the same inputs give the same numbers."""
        out: dict[str, int | float] = {
            "cli.commands" if g == "cli" else f"{g}.calls": self.calls.get(g, 0) for g in sorted(self.groups)}
        out["core.walk_steps"] = self.walk_steps
        out["tree.nodes_alloc"] = self.nodes_alloc
        n = self.calls.get("tree.counter", 0)
        out["tree.counter.distinct_ratio"] = len(self.counter_args) / n if n else 0.0
        return out

    def times(self) -> dict[str, float]:
        """Self time of every group, 0 for a group no span entered."""
        return {f"{g}.self_s": self.self_s.get(g, 0.0) for g in sorted(self.groups)}
