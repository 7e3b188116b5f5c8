"""Spans around the calls into each subaction layer, installed from outside.

The benchmark traces the program without changing it: `Tracer.install()`
replaces each traced function or method with a wrapper at every binding
site (the class for methods; every `subaction.*` module that holds the
function under any name for module functions), and `uninstall()` puts the
originals back. Spans stay in memory as flat arrays with parent ids; self
time is a span's duration minus the durations of its direct children.
Every span and counter is weighted by the weight of the request it ran in
(`Tracer.weight`, set before each request; see workloads.batches).

A layer is a module of the package; `_kernels` reports as `kernels`, since
metric names start with a letter. `perms`, `rationals` and `config` are
not traced; their time counts in the self time of their callers.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "search", "theorems", "setfuncs", "kernels", "linalg",
          "actions", "groups")

STATEMENTS = ("kneser", "murphy", "small_growth", "freiman", "ruzsa",
              "hamidoune", "petridis", "tao_doubling", "taod",
              "fragment_bounds")

# (module, attribute, span name); "Class.method" attributes patch the class.
# Module functions are patched wherever the package binds them. "_kernels"
# stands for every kernel backend that imports (see _backends).
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_scenario", "cli.parse"),
    ("cli", "to_jsonable", "cli.serialize"),
    ("cli", "_dump", "cli.serialize"),
    ("search", "search", "search.search"),
    ("theorems", "check_kneser", "theorems.kneser"),
    ("theorems", "check_murphy", "theorems.murphy"),
    ("theorems", "check_small_growth", "theorems.small_growth"),
    ("theorems", "check_freiman", "theorems.freiman"),
    ("theorems", "check_ruzsa_triple", "theorems.ruzsa"),
    ("theorems", "check_hamidoune", "theorems.hamidoune"),
    ("theorems", "find_petridis_witness", "theorems.petridis"),
    ("theorems", "check_tao_small_doubling", "theorems.tao_doubling"),
    ("theorems", "find_taod_witness", "theorems.taod"),
    ("theorems", "check_fragment_bounds", "theorems.fragment_bounds"),
    ("theorems", "kneser_example_instance", "theorems.kneser_example"),
    ("setfuncs", "min_image_ratio", "setfuncs.min_image_ratio"),
    ("setfuncs", "minimize_nonempty", "setfuncs.minimize_nonempty"),
    ("setfuncs", "core_set", "setfuncs.core_set"),
    ("setfuncs", "identity_atom", "setfuncs.identity_atom"),
    ("setfuncs", "_scaled_table", "setfuncs.scaled_table"),
    ("_kernels", "SubsetFold.__init__", "kernels.fold_build"),
    ("_kernels", "SubsetFold.min_affine", "kernels.min_affine"),
    ("_kernels", "SubsetFold.min_ratio", "kernels.min_ratio"),
    ("_kernels", "check_pair_ratio", "kernels.check_pair_ratio"),
    ("linalg", "enumerate_subspaces", "linalg.enumerate_subspaces"),
    ("linalg", "Subspace.sum", "linalg.subspace_sum"),
    ("linalg", "Subspace.intersect", "linalg.subspace_intersect"),
    ("linalg", "Representation.__init__", "linalg.rep_build"),
    ("linalg", "Representation.module_span", "linalg.module_span"),
    ("linalg", "Representation.act_subspace", "linalg.act_subspace"),
    ("linalg", "Representation.subspace_stabilizer", "linalg.stabilizer"),
    ("actions", "GroupAction.__init__", "actions.build"),
    ("actions", "GroupAction.act_set", "actions.act_set"),
    ("actions", "GroupAction.set_stabilizer", "actions.set_stabilizer"),
    ("actions", "GroupAction.symmetry_set", "actions.symmetry_set"),
    ("actions", "GroupAction.weak_stabilizer", "actions.weak_stabilizer"),
    ("actions", "GroupAction.orbit_decomposition", "actions.orbits"),
    ("actions", "GroupAction.profile", "actions.profile"),
    ("groups", "FiniteGroup.__init__", "groups.closure"),
    ("groups", "FiniteGroup._build_mul_table", "groups.mul_table"),
    ("groups", "FiniteGroup.mul_row", "groups.mul_row"),
    ("groups", "FiniteGroup.product_set", "groups.product_set"),
    ("groups", "FiniteGroup.generated_set", "groups.generated_set"),
    ("groups", "FiniteGroup.subgroups", "groups.subgroups"),
    ("groups", "FiniteGroup.left_cosets", "groups.left_cosets"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _m, _a, name in TARGETS))


def _fold_bytes(n: int) -> int:
    # numpy SubsetFold build: uint64 unions, uint32 index, uint8 pops, cards
    return (1 << n) * (8 + 4 + 1 + 1)


def _backends() -> list:
    """Every kernel backend module that imports: numpy always, the compiled
    one where it was built. Wrapping each, not only the active one, keeps
    the kernels layer traced whichever SUBACTION_KERNEL selects."""
    from subaction import _kernels

    out = [_kernels.numpy_backend]
    try:
        out.append(_kernels.get_backend("cython"))
    except ImportError:
        pass
    return out


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.name_of = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.name_of)}
        self._layer_of = [LAYERS.index(n.split(".")[0]) for n in self.name_of]
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.layer_top = array("b")  # 1 when no span of its layer is open
        self.errors = array("b")
        self.weights = array("d")
        self.weight = 1.0  # of the request running now
        self.counters: Counter = Counter()
        self.fold_families: set[int] = set()
        self.fold_builds_run = 0  # unweighted, for the distinct ratio
        self._stack: list[int] = []
        self._open_in_layer = [0] * len(LAYERS)
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, post=None):
        sid = self._ids[name]
        layer = self._layer_of[sid]
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        tops, errors, stack = self.layer_top, self.errors, self._stack
        weights, open_in = self.weights, self._open_in_layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and names[stack[-1]] == sid:
                return fn(*args, **kwargs)  # recursion stays in one span
            i = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            tops.append(1 if open_in[layer] == 0 else 0)
            errors.append(0)
            weights.append(self.weight)
            ends.append(0.0)
            open_in[layer] += 1
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[i] = 1
                raise
            finally:
                ends[i] = perf_counter()
                stack.pop()
                open_in[layer] -= 1
            if post is not None:
                post(args, kwargs, result)
            return result
        return wrapper

    def _wrap_mul_row(self, fn):
        # Cached rows are returned without a span: they cost a dict lookup,
        # and a span each would dominate the traced run. Misses build a row.
        spanned = self._wrap("groups.mul_row", fn)
        counters = self.counters

        @functools.wraps(fn)
        def mul_row(group, g):
            counters["groups.mul_row.calls"] += self.weight
            if group.mul_table is not None or g in group._row_cache:
                counters["groups.mul_row.hits"] += self.weight
                return fn(group, g)
            return spanned(group, g)
        return mul_row

    # -- counters read from arguments and results --------------------------

    def _post(self, name: str, owner=None):
        """Counts read from a call's arguments and result. Bytes are
        computed for the numpy backend only: the compiled backend streams
        each subset through registers and stores no per-subset arrays."""
        c = self.counters
        numpy_kernel = getattr(owner, "BACKEND_NAME", None) == "numpy"
        if name == "kernels.fold_build":
            def post(args, _kw, _res):
                masks = tuple(int(m) for m in args[1])
                c["kernels.fold_builds"] += self.weight
                if numpy_kernel:
                    c["kernels.bytes_computed"] += \
                        self.weight * _fold_bytes(len(masks))
                self.fold_families.add(hash(masks))
                self.fold_builds_run += 1
            return post
        if name in ("kernels.min_affine", "kernels.min_ratio"):
            def post(args, _kw, _res):
                n = args[0].n
                c["kernels.subsets_scanned"] += self.weight * ((1 << n) - 1)
                if numpy_kernel:
                    # three passes, each reading the uint8 pops and cards
                    c["kernels.bytes_computed"] += self.weight * 6 * (1 << n)
            return post
        if name == "kernels.check_pair_ratio":
            def post(_args, _kw, res):
                c["kernels.subsets_scanned"] += self.weight * int(res[2])
                if numpy_kernel:
                    c["kernels.bytes_computed"] += \
                        self.weight * 2 * int(res[2])
            return post
        if name.startswith("theorems.") and name != "theorems.kneser_example":
            def post(_args, _kw, res):
                c["theorems.reports"] += self.weight
                if res.exhaustiveness.kind == "sampled":
                    c["theorems.sampled_reports"] += self.weight
                    c["theorems.samples_drawn"] += \
                        self.weight * res.exhaustiveness.samples
            return post
        if name == "search.search":
            def post(_args, _kw, res):
                c["search.instances"] += self.weight * res.instances
                c["search.hypotheses_held"] += \
                    self.weight * res.hypotheses_held
            return post
        return None

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        import importlib

        owners = {mod_name: _backends() if mod_name == "_kernels" else
                  [importlib.import_module(f"subaction.{mod_name}")]
                  for mod_name, _a, _n in TARGETS}
        modules = [m for key, m in list(sys.modules.items())
                   if (key == "subaction" or key.startswith("subaction."))
                   and m is not None]
        for mod_name, attr, name in TARGETS:
            for owner in owners[mod_name]:
                self._install_one(owner, attr, name, modules)

    def _install_one(self, owner, attr: str, name: str, modules) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            fn = cls.__dict__[meth]
            wrapped = self._wrap_mul_row(fn) if name == "groups.mul_row" \
                else self._wrap(name, fn, self._post(name, owner))
            self._set(cls, meth, fn, wrapped)
            return
        fn = getattr(owner, attr)
        wrapped = self._wrap(name, fn, self._post(name, owner))
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, key, fn, wrapped)

    def _set(self, owner, attr: str, original, wrapped) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Totals per span name and per layer, plus the derived counters."""
        count = len(self.names)
        child = [0.0] * count
        dur = [0.0] * count
        for i in range(count):
            d = self.ends[i] - self.starts[i]
            dur[i] = d
            p = self.parents[i]
            if p >= 0:
                child[p] += d
        per_name = {n: {"calls": 0.0, "self_s": 0.0, "errors": 0.0}
                    for n in self.name_of}
        per_layer = {lay: {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0,
                           "errors": 0.0} for lay in LAYERS}
        for i in range(count):
            name = self.name_of[self.names[i]]
            w = self.weights[i]
            rec = per_name[name]
            rec["calls"] += w
            rec["self_s"] += w * (dur[i] - child[i])
            rec["errors"] += w * self.errors[i]
            lay = per_layer[LAYERS[self._layer_of[self.names[i]]]]
            lay["self_s"] += w * (dur[i] - child[i])
            lay["errors"] += w * self.errors[i]
            if self.layer_top[i]:
                lay["busy_s"] += w * dur[i]
        # cached mul_row hits carry no span; count them as calls
        hits = self.counters["groups.mul_row.hits"]
        per_name["groups.mul_row"]["calls"] += hits
        for name, rec in per_name.items():
            lay = per_layer[name.split(".")[0]]
            lay["calls"] += rec["calls"]
        return {"per_name": per_name, "per_layer": per_layer,
                "counters": dict(self.counters),
                "fold_distinct": len(self.fold_families),
                "fold_builds_run": self.fold_builds_run}
