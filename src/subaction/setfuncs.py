"""Invariant set functions on subsets of a group or of its domain.

The three built-in families are the cut function of the action graph, the
growth of a fixed target set under a varying actor set, and the growth of a
varying target set under a fixed actor set. All values are exact rationals.
`minimize_nonempty` enumerates every nonempty subset, so its ground sets
are capped; the growth |A.Y| - lam|A| of a fixed target is also minimised
at every order (`actor_growth_cut`), over the point sets between Y and
G.Y while they are few and by one exact s-t minimum cut past that. The
minimum ratio mu of |A.Y| / |A| has the closed form |G.Y| / |G|
(`group_image_ratio`); `min_image_ratio` checks it by up to three routes.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from . import config
from ._kernels import MAX_N, SubsetFold, exact_dtype, words
from .actions import GroupAction
from .errors import CapacityError, DomainError, InvariantError, StructuralError
from .groups import _PRODUCT_BLOCK, FiniteGroup, Subgroup, _membership
from .rationals import exact_fraction, format_fraction


def _mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << int(p)
    return m


def _chunk_rows(width: int) -> int:
    """Rows per chunk: a chunk's rows x width bit block holds at most
    _PRODUCT_BLOCK / 8 entries."""
    return max(1, _PRODUCT_BLOCK // (8 * max(1, width)))


def _union_sizes(table: Sequence[int]) -> Callable[[np.ndarray],
                                                    np.ndarray]:
    """For a table of int masks, one per group element, the function that
    maps masks C over the table's indices, held as word rows (`words`,
    ceil(len(table) / 64) words each), to the int64 array of
    |union of table[c], c in C|.

    The table is held point-major: for each point x in some table[c], the
    word row E_x of the elements c whose mask holds x. The union of C
    holds x exactly when E_x meets C, so for each block of `_chunk_rows`
    masks C the words of C are ANDed with each E_x and ORed together, and
    the nonzero results are counted.
    """
    n, count = len(table), -(-len(table) // 64)
    width = max(table).bit_length()
    held = np.unpackbits(
        words(table, max(1, -(-width // 64))).view(np.uint8), axis=1,
        count=width, bitorder="little")
    packed = np.zeros((width, 8 * count), dtype=np.uint8)
    packed[:, :-(-n // 8)] = np.packbits(held.T, axis=1, bitorder="little")
    rows = packed.view("<u8")
    # word-major: one contiguous row of every E_x per word of C
    point_words = np.ascontiguousarray(rows[rows.any(axis=1)].T)
    step = _chunk_rows(point_words.size)

    def sizes(masks: np.ndarray) -> np.ndarray:
        out = np.empty(len(masks), dtype=np.int64)
        for lo in range(0, len(masks), step):
            block = masks[lo:lo + step]
            meets = block[:, :1] & point_words[0]
            for w in range(1, count):
                meets |= block[:, w:w + 1] & point_words[w]
            out[lo:lo + step] = np.count_nonzero(meets, axis=1)
        return out
    return sizes


def _check_ground(cap_name: str, size: int, hint: str = "") -> None:
    """Refuse a subset enumeration over `size` elements past the cap
    `cap_name` or past the subset-fold kernel's fixed limit of MAX_N
    elements, which no cap override lifts; the refusal names the limit
    that stopped it."""
    config.require(cap_name, size, hint)
    fixed = "a fixed limit of the subset-fold kernel, not a cap" \
        + (hint and f"; {hint}")
    if size > MAX_N:
        raise CapacityError("kernel ground size", MAX_N, size, hint=fixed)


def _target_points(action: GroupAction, Y: Iterable[int]) -> np.ndarray:
    """The point indices of a nonempty target set Y."""
    y = action._point_indices(Y)
    if y.size == 0:
        raise DomainError("target set must be nonempty")
    return y


def _set_of(mask: int) -> frozenset[int]:
    out = []
    while mask:
        b = (mask & -mask).bit_length() - 1
        out.append(b)
        mask &= mask - 1
    return frozenset(out)


class SetFunction:
    """A rational-valued function on subsets of {0, ..., ground_size-1}.

    ``kind`` records evaluation structure: "union" holds per-point image
    masks with value |union| - lam*|S|, "cut" holds an integer weight
    matrix, "generic" holds an arbitrary exact callable on bitmasks.
    """

    def __init__(self, ground_size: int, label: str, *, kind: str = "generic",
                 union_masks: list[int] | None = None, lam: Fraction = Fraction(0),
                 cut_weights: np.ndarray | None = None,
                 fn: Callable[[int], Fraction] | None = None):
        if ground_size < 1:
            raise DomainError("ground set must be nonempty")
        self.ground_size = ground_size
        self.label = label
        self.kind = kind
        self.union_masks = union_masks
        self.lam = exact_fraction(lam)
        self.cut_weights = cut_weights
        self.fn = fn
        if kind == "union" and (union_masks is None or len(union_masks) != ground_size):
            raise StructuralError("union form needs one mask per ground point")
        if kind == "cut" and (cut_weights is None or
                              cut_weights.shape != (ground_size, ground_size)):
            raise StructuralError("cut form needs a square weight matrix")
        if kind == "generic" and fn is None:
            raise StructuralError("generic form needs a callable")

    def value_mask(self, mask: int) -> Fraction:
        if mask < 0 or mask >> self.ground_size:
            raise DomainError("subset mask outside the ground set")
        if self.kind == "union":
            u = 0
            for b in _set_of(mask):
                u |= self.union_masks[b]
            return Fraction(u.bit_count()) - self.lam * mask.bit_count()
        if self.kind == "cut":
            pts = sorted(_set_of(mask))
            if not pts:
                return Fraction(0)
            inside = np.zeros(self.ground_size, dtype=bool)
            inside[pts] = True
            w = self.cut_weights[pts]
            return Fraction(int(w[:, ~inside].sum()))
        return exact_fraction(self.fn(mask))

    def value(self, subset: Iterable[int]) -> Fraction:
        return self.value_mask(_mask_of(subset))

    def __repr__(self) -> str:
        return f"SetFunction({self.label}, ground={self.ground_size})"


# -- families ----------------------------------------------------------------


def cut_function(action: GroupAction) -> SetFunction:
    """Edge boundary weight of the action multigraph: edges u -> g.u."""
    d = action.domain_size
    W = np.zeros((d, d), dtype=np.int64)
    for g in range(action.group.order):
        row = action.table[g]
        np.add.at(W, (np.arange(d), row), 1)
    return SetFunction(d, f"cut[{action.name}]", kind="cut", cut_weights=W)


def actor_growth(action: GroupAction, Y: Iterable[int], lam) -> SetFunction:
    """On subsets A of the group: |A.Y| - lam*|A|."""
    lam = exact_fraction(lam)
    y = _target_points(action, Y)
    masks = [_mask_of(action.table[g][y].tolist())
             for g in range(action.group.order)]
    label = f"actor_growth[{action.name}, |Y|={y.size}, lam={format_fraction(lam)}]"
    return SetFunction(action.group.order, label, kind="union",
                       union_masks=masks, lam=lam)


def target_growth(action: GroupAction, A: Iterable[int], lam) -> SetFunction:
    """On subsets Y of the domain: |A.Y| - lam*|Y|."""
    lam = exact_fraction(lam)
    a = action.group._as_indices(A)
    if a.size == 0:
        raise DomainError("actor set must be nonempty")
    masks = [_mask_of(column) for column in action.table[a].T.tolist()]
    label = f"target_growth[{action.name}, |A|={a.size}, lam={format_fraction(lam)}]"
    return SetFunction(action.domain_size, label, kind="union",
                       union_masks=masks, lam=lam)


# -- exact scaled tables -------------------------------------------------------


def _scaled_table(f: SetFunction) -> tuple[np.ndarray, int]:
    """All 2^n values as (table, denominator): value = table/den. Exact:
    the table is int64 while twice its largest value fits (so a sum of two
    entries does too), and holds Python ints past that."""
    n = f.ground_size
    size = 1 << n
    if f.kind == "union":
        fold = SubsetFold(f.union_masks)
        num, den = f.lam.numerator, f.lam.denominator
        dtype = exact_dtype(2 * (den * max(fold.top, 1) + abs(num) * n))
        return (fold.pops.astype(dtype) * den
                - fold.cards.astype(dtype) * num), den
    if f.kind == "cut":
        # by doubling: cut(S + b) = cut(S) + rowsum[b] - W[b, b]
        #   - sum over w in S of (W[w, b] + W[b, w])
        W = f.cut_weights
        table = np.zeros(size, dtype=np.int64)
        for b in range(n):
            half = 1 << b
            both = W[:b, b] + W[b, :b]
            inner = np.zeros(half, dtype=np.int64)
            for w in range(b):
                inner[1 << w:2 << w] = inner[:1 << w] + both[w]
            grown = np.subtract(table[:half], inner, out=table[half:2 * half])
            grown += int(W[b].sum()) - int(W[b, b])
        return table, 1
    vals = [f.value_mask(m) for m in range(size)]
    den = math.lcm(*(v.denominator for v in vals))
    scaled = [v.numerator * (den // v.denominator) for v in vals]
    dtype = exact_dtype(2 * max(map(abs, scaled)))
    return np.array(scaled, dtype=dtype), den


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class Exhaustiveness:
    kind: str  # "exhaustive" | "sampled"
    samples: int = 0
    seed: int | None = None

    def to_json(self) -> dict:
        if self.kind == "exhaustive":
            return {"kind": "exhaustive"}
        return {"kind": "sampled", "samples": self.samples, "seed": self.seed}


_EXHAUSTIVE = Exhaustiveness("exhaustive")


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of a submodularity or invariance check, on sets or on
    subspaces; the counterexample's keys depend on the check."""
    holds: bool
    checked: Exhaustiveness
    counterexample: dict | None = None


@dataclass(frozen=True)
class MinimizationResult:
    label: str
    ground_size: int
    min_value: Fraction
    fragment_count: int
    fragments: list[frozenset[int]]
    fragments_truncated: bool
    atoms: list[frozenset[int]]
    atom_size: int
    largest_size: int = field(metadata={"reported": False})  # of a fragment


@dataclass(frozen=True)
class CoreResult:
    atoms: list[frozenset[int]]
    union: frozenset[int]


@dataclass(frozen=True)
class MuResult:
    mu: Fraction
    witness: frozenset[int]
    methods: dict
    agreed: bool = field(metadata={"reported": False})


# -- submodularity -------------------------------------------------------------


def _sampling(seed: int | None) -> tuple[random.Random, Exhaustiveness]:
    """The seeded stream of a sampled check and its report entry: the
    SAMPLE_COUNT cap's count of draws, from `seed` or the DEFAULT_SEED
    cap."""
    seed = config.cap("DEFAULT_SEED") if seed is None else int(seed)
    return random.Random(seed), Exhaustiveness(
        "sampled", config.cap("SAMPLE_COUNT"), seed)


def check_submodular(f: SetFunction, *, seed: int | None = None
                     ) -> PropertyReport:
    """Diminishing-returns check: for A1 <= A2 and s outside A2,
    f(A1+s) - f(A1) >= f(A2+s) - f(A2).

    Exhaustive up to the MAX_SUBMODULAR_EXHAUSTIVE ground cap, in the
    local form f(S+i) + f(S+j) >= f(S+i+j) + f(S), which is equivalent
    (Schrijver, Combinatorial Optimization, 2003, ch. 44): over pairs
    i < j, then S in ascending order, the first violation is reported as
    s = i, A1 = S, A2 = S + j. Sampled above the cap.
    """
    n = f.ground_size
    if n <= config.cap("MAX_SUBMODULAR_EXHAUSTIVE"):
        _check_ground("MAX_SUBMODULAR_EXHAUSTIVE", n)
        table, _den = _scaled_table(f)
        masks = np.arange(table.size)
        for i, j in itertools.combinations(range(n), 2):
            bi, bj = 1 << i, 1 << j
            S = masks[(masks & (bi | bj)) == 0]
            bad = S[table[S | bi] + table[S | bj]
                    < table[S | bi | bj] + table[S]]
            if bad.size:
                a1 = int(bad[0])
                return PropertyReport(False, _EXHAUSTIVE,
                                      _submodular_witness(f, i, a1, a1 | bj))
        return PropertyReport(True, _EXHAUSTIVE)
    rng, exh = _sampling(seed)
    for _ in range(exh.samples):
        a2 = rng.getrandbits(n)
        outside = [b for b in range(n) if not (a2 >> b) & 1]
        if not outside:
            continue
        s = rng.choice(outside)
        a1 = a2 & rng.getrandbits(n)
        if _marginal(f, s, a1) < _marginal(f, s, a2):
            return PropertyReport(False, exh,
                                  _submodular_witness(f, s, a1, a2))
    return PropertyReport(True, exh)


def _marginal(f: SetFunction, s: int, mask: int) -> Fraction:
    return f.value_mask(mask | 1 << s) - f.value_mask(mask)


def _submodular_witness(f: SetFunction, s: int, a1: int, a2: int) -> dict:
    return {
        "s": int(s),
        "A1": _set_of(a1),
        "A2": _set_of(a2),
        "marginal_A1": _marginal(f, s, a1),
        "marginal_A2": _marginal(f, s, a2),
    }


# -- invariance ------------------------------------------------------------------


def check_invariance(f: SetFunction, action: GroupAction, *,
                     seed: int | None = None) -> PropertyReport:
    """Check f(g.S) == f(S). The action's domain must be f's ground set;
    pass the left translation action to test translation invariance of a
    function on group subsets.

    Exhaustive up to the MAX_SUBMODULAR_EXHAUSTIVE ground cap, over the
    generators only: the elements that keep f form a subgroup, and the
    closure puts the generators first, so the first failing element is a
    generator. Sampled above the cap, with g drawn from every element.
    """
    if action.domain_size != f.ground_size:
        raise StructuralError(
            f"action domain {action.domain_size} != ground {f.ground_size}")
    n = f.ground_size
    if n <= config.cap("MAX_SUBMODULAR_EXHAUSTIVE"):
        _check_ground("MAX_SUBMODULAR_EXHAUSTIVE", n)
        table, _den = _scaled_table(f)
        remap = np.zeros(1 << n, dtype=np.int64)
        for g in action.group.generator_indices:
            # the mask of g.S for every mask S, by doubling
            for b, image in enumerate(action.table[g].tolist()):
                np.add(remap[:1 << b], 1 << image, out=remap[1 << b:2 << b])
            diff = np.flatnonzero(table[remap] != table)
            if diff.size:
                m = int(diff[0])
                return PropertyReport(False, _EXHAUSTIVE, _invariance_witness(
                    f, g, m, int(remap[m])))
        return PropertyReport(True, _EXHAUSTIVE)
    rng, exh = _sampling(seed)
    for _ in range(exh.samples):
        m = rng.getrandbits(n)
        g = rng.randrange(action.group.order)
        gm = _mask_of(action.table[g][sorted(_set_of(m))].tolist()) if m else 0
        if f.value_mask(m) != f.value_mask(gm):
            return PropertyReport(False, exh, _invariance_witness(f, g, m, gm))
    return PropertyReport(True, exh)


def _invariance_witness(f: SetFunction, g: int, m: int, gm: int) -> dict:
    return {"g": g, "subset": _set_of(m), "value": f.value_mask(m),
            "translated_value": f.value_mask(gm)}


# -- minimisation -----------------------------------------------------------------


def minimize_nonempty(f: SetFunction, *, fragment_cap: int | None = None
                      ) -> MinimizationResult:
    """Exact minimum of f over nonempty subsets, with every minimiser counted.

    Fragments are the nonempty minimisers (list capped, count exact);
    atoms are the minimisers of least cardinality (always complete).
    """
    n = f.ground_size
    _check_ground("MAX_EXHAUSTIVE_GROUND", n)
    cap = config.cap("FRAGMENT_LIST_CAP") if fragment_cap is None else fragment_cap
    if f.kind == "union":
        return _fold_minimum(SubsetFold(f.union_masks), f.lam, cap, f.label)
    # table path: exact scaled values
    table, den = _scaled_table(f)
    vals = table[1:]
    best = int(vals.min())
    hits = np.flatnonzero(vals == best) + 1
    count = int(hits.size)
    cards = np.bitwise_count(hits.astype(np.uint64)).astype(np.int64)
    atom_size = int(cards.min())
    atoms = [int(m) for m in hits[cards == atom_size]]
    frags = [int(m) for m in hits[:cap]]
    return MinimizationResult(
        label=f.label, ground_size=n, min_value=Fraction(best, den),
        fragment_count=count, fragments=[_set_of(m) for m in frags],
        fragments_truncated=count > len(frags),
        atoms=[_set_of(m) for m in atoms], atom_size=atom_size,
        largest_size=int(cards.max()))


def _fold_minimum(fold: SubsetFold, lam: Fraction, fragment_cap: int,
                 label: str) -> MinimizationResult:
    """`minimize_nonempty` of |join S| - lam*|S| over the subsets S of a
    fold, exact for every rational lam."""
    num, den = lam.numerator, lam.denominator
    scaled, count, frags, truncated, atoms, atom_size, largest = \
        fold.min_affine(num, den, fragment_cap)
    return MinimizationResult(
        label=label, ground_size=fold.n, min_value=Fraction(scaled, den),
        fragment_count=count, fragments=[_set_of(m) for m in frags],
        fragments_truncated=truncated, atoms=[_set_of(m) for m in atoms],
        atom_size=atom_size, largest_size=largest)


def core_set(f: SetFunction) -> CoreResult:
    """Union of the atoms. For invariant submodular functions the atoms are
    pairwise disjoint; violation raises. Only the atoms are asked for: the
    minimiser lists no fragment.
    """
    res = minimize_nonempty(f, fragment_cap=0)
    union = frozenset().union(*res.atoms)
    if sum(map(len, res.atoms)) != len(union):
        raise InvariantError(
            f"atoms of {f.label} are not pairwise disjoint")
    return CoreResult(atoms=res.atoms, union=union)


def identity_atom(f: SetFunction | None, group: FiniteGroup,
                  minimized: MinimizationResult | None = None) -> Subgroup:
    """The atom containing the identity, verified to be a subgroup.

    Defined for translation-invariant submodular functions on subsets of
    the group; the minimiser structure forces this atom to be a subgroup.
    ``minimized`` is f's ``minimize_nonempty`` result when the caller
    already has it; f may then be None.
    """
    if (minimized or f).ground_size != group.order:
        raise StructuralError("function must live on subsets of the group")
    res = minimized or minimize_nonempty(f, fragment_cap=0)
    containing = [a for a in res.atoms if 0 in a]
    if not containing:
        raise InvariantError(
            "no atom contains the identity; function is not translation "
            "invariant submodular")
    return Subgroup(group, containing[0])


# -- minimal image ratio ------------------------------------------------------------


def group_image_ratio(action: GroupAction, Y: Iterable[int]) -> Fraction:
    """mu = inf over nonempty actor sets A of |A.Y| / |A|, which is
    |G.Y| / |G| by orbit-stabilizer.

    Take one y in each orbit that meets Y. The map a -> a.y is at most
    |G_y|-to-one, and the sets A.y lie in distinct orbits, so
    |A.Y| >= sum over y of |A| / |G_y| = |A| |G.Y| / |G|, with equality at
    A = G. This is the growth constant of c_Y(A) = |A.Y| - lam|A| in the
    hamidoune and tao_doubling statements (Hamidoune, Europ. J. Combin. 5,
    1984, for the group case); `min_image_ratio`'s routes check it.
    """
    y = _target_points(action, Y)
    images = _membership(action.domain_size, action.table[:, y])
    return Fraction(int(np.count_nonzero(images)), action.group.order)


def min_image_ratio(action: GroupAction, Y: Iterable[int]) -> MuResult:
    """inf over nonempty actor sets A of |A.Y| / |A|, exact, by up to three
    routes that must agree.

    The exhaustive route enumerates the 2^(|G:G_Y| - 1) unions of left
    cosets of the setwise stabilizer G_Y that hold G_Y (gated on
    |G| <= MAX_EXHAUSTIVE_GROUND), the subgroups route takes the minimum
    over the subgroup lattice (up to MAX_SUBGROUP_ENUM_ORDER), and the
    dinkelbach route, at every order, is one `actor_growth_cut` at
    lam = `group_image_ratio`: a zero minimum certifies lam, and its least
    minimiser containing e attains it. The returned witness is the first
    route's.
    """
    G = action.group
    y = action._point_indices(Y)
    mu = group_image_ratio(action, y)
    n = G.order
    methods: dict[str, dict] = {}

    images = [_mask_of(row) for row in action.table[:, y].tolist()]
    if n <= config.cap("MAX_EXHAUSTIVE_GROUND") and n <= MAX_N:
        methods["exhaustive"] = _coset_union_ratio(images)

    if n <= config.cap("MAX_SUBGROUP_ENUM_ORDER"):
        # every |H.Y| from one batched call
        subs = G.subgroups()
        sizes = _union_sizes(images)(words(
            [_mask_of(H.members) for H in subs], -(-n // 64)))
        # least ratio, then least order, then first in lattice order
        best, _order, i = min((Fraction(img, H.order), H.order, i) for i, (
            H, img) in enumerate(zip(subs, sizes.tolist())))
        methods["subgroups"] = {"value": best, "witness": subs[i].members}

    minimum, witness = actor_growth_cut(action, y, mu)
    if minimum != 0:
        raise InvariantError(
            f"growth at lambda = |G.Y|/|G| = {format_fraction(mu)} has "
            f"minimum {format_fraction(minimum)}, not 0")
    methods["dinkelbach"] = {"value": mu, "witness": witness}

    if len({m["value"] for m in methods.values()}) != 1:
        raise InvariantError(
            f"ratio methods disagree: "
            f"{ {k: format_fraction(v['value']) for k, v in methods.items()} }")
    primary = next(iter(methods.values()))
    return MuResult(mu=mu, witness=primary["witness"], methods=methods,
                    agreed=True)


def _coset_union_ratio(images: list[int]) -> dict:
    """mu's `exhaustive` route: min |A.Y| / |A| over nonempty A, given the
    image mask g.Y of each element g (element 0 is e, so images[0] is Y).

    The elements of one image form a left coset of the stabilizer G_Y, of
    order h, and A.Y = (A G_Y).Y, so every minimiser is a union of cosets;
    |gA.Y| = |A.Y|, so some least minimiser holds e, hence G_Y. The fold
    runs over the m - 1 other cosets and minimises |Y + join S| /
    (h(|S| + 1)) over every S, the empty one (G_Y alone) included, and
    with m = 1 (Y a union of orbits) needs no fold. Cosets are ordered by
    least element, so the witness, least in cardinality and then in
    lexicographic order of cosets, is also least in lexicographic order of
    elements: it is the full power-set fold's witness.
    """
    cosets: dict[int, list[int]] = {}
    for g, image in enumerate(images):
        cosets.setdefault(image, []).append(g)
    y_mask, *others = cosets  # in order of least element
    if others:
        p, q, chosen = SubsetFold(others, base=y_mask).min_ratio(offset=1)
    else:
        p, q, chosen = y_mask.bit_count(), 1, 0
    witness = cosets[y_mask] + [g for i, image in enumerate(others)
                                if chosen >> i & 1 for g in cosets[image]]
    return {"value": Fraction(p, q * len(cosets[y_mask])),
            "witness": frozenset(witness)}


# -- exact minimum cut ---------------------------------------------------------------


def _min_cut(size: int, arcs: Sequence[tuple[int, int, int | None]],
             s: int, t: int) -> tuple[int, list[int]]:
    """The maximum s-t flow of the network on nodes range(size) with arcs
    (u, v, capacity), and the nodes reachable from s in its residual
    graph: the source side of the least minimum cut. A capacity of None
    marks an arc that no finite cut crosses.

    Dinic's algorithm on Python ints: a breadth-first level graph per
    phase, then blocking flow by an iterative depth-first walk with a
    current-arc pointer per node.
    """
    inf = 1 + sum(c for _u, _v, c in arcs if c is not None)
    out: list[list[int]] = [[] for _ in range(size)]
    head: list[int] = []
    cap: list[int] = []
    for u, v, c in arcs:  # arc e and its reverse e ^ 1
        out[u].append(len(head))
        head.append(v)
        cap.append(inf if c is None else c)
        out[v].append(len(head))
        head.append(u)
        cap.append(0)
    flow = 0
    while True:
        level = [-1] * size
        level[s] = 0
        reached = [s]
        for u in reached:
            for e in out[u]:
                if cap[e] and level[head[e]] < 0:
                    level[head[e]] = level[u] + 1
                    reached.append(head[e])
        if level[t] < 0:
            return flow, reached
        current = [0] * size
        path: list[int] = []  # arcs from s to u
        u = s
        while True:
            if u == t:
                push = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                flow += push
                path, u = [], s
                continue
            arcs_u = out[u]
            while current[u] < len(arcs_u):
                e = arcs_u[current[u]]
                if cap[e] and level[head[e]] == level[u] + 1:
                    path.append(e)
                    u = head[e]
                    break
                current[u] += 1
            else:
                if u == s:
                    break
                level[u] = -1  # no more augmenting paths through u
                u = head[path.pop() ^ 1]
                current[u] += 1


# the point side's budget of count updates per arc of the cut's network
# (see `actor_growth_cut`)
_POINT_SIDE_WORK = 256


def _saturated(images: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """A_U = {g : g.Y inside U}, ascending, from the rows g.Y of `images`
    (`table[:, Y]`) and the boolean array `inside` over the domain that
    marks U."""
    return inside[images].all(axis=1).nonzero()[0]


def actor_growth_cut(action: GroupAction, Y: Iterable[int], lam
                     ) -> tuple[Fraction, frozenset[int]]:
    """min over nonempty A of c_Y(A) = |A.Y| - lam|A|, and the least
    minimiser containing the identity, exact at every order; at lam = 0
    that is (|Y|, {e}).

    Two routes give the same answer, chosen by the work each does. The
    point side (`_point_side_minimum`) makes |X - Y| passes over
    2^|X - Y| counts, with X = G.Y; the cut (`_cut_minimum`) runs Dinic's
    algorithm in Python over |G|(|Y| + 1) arcs. The point side is taken
    while |X - Y| 2^|X - Y| <= _POINT_SIDE_WORK |G| (|Y| + 1), and the
    cut past that. Both routes, timed on the same inputs (|Y| from 1 to
    6, lam = mu/4, mu/2 and mu, best of 5, on one x86-64 core):

    | instance | cut | point side | route |
    | --- | --- | --- | --- |
    | S2 natural | 30-42 us | 35-42 us | point |
    | D4 natural | 47-108 us | 37-46 us | point |
    | D8 natural | 76-207 us | 42-68 us | point |
    | AGL(1,7) natural | 120-574 us | 38-67 us | point |
    | S7 natural | 13-88 ms | 0.12-0.71 ms | point |
    | A8 natural | 102-294 ms | 0.5-2.1 ms | point |
    | C12-C20 translation | 46-247 us | 40 us-1.9 ms | by size |
    | S4 conjugation | 72-266 us | 40 us-1.3 ms | by size |

    Past the crossover the point side grows as 2^|X - Y| (C20 with
    |Y| = 2: 9 ms against the cut's 0.1 ms), so the cut stays for large
    G.Y.
    """
    lam = exact_fraction(lam)
    if lam < 0:
        raise DomainError(f"lambda must be nonnegative; got "
                          f"{format_fraction(lam)}")
    y = _target_points(action, Y)
    if not lam:
        return Fraction(y.size), frozenset({0})
    images = action.table[:, y]
    hit = _membership(action.domain_size, images)
    free = int(np.count_nonzero(hit)) - y.size
    if free << free <= _POINT_SIDE_WORK * action.group.order * (y.size + 1):
        return _point_side_minimum(images, hit, y, lam)
    return _cut_minimum(images, hit, lam)


def _point_side_minimum(images: np.ndarray, hit: np.ndarray, y: np.ndarray,
                        lam: Fraction) -> tuple[Fraction, frozenset[int]]:
    """`actor_growth_cut` for lam > 0 from the point sets U with
    Y <= U <= X = G.Y.

    For A containing e put U = A.Y, so Y lies in U: A lies in
    A_U = {g : g.Y inside U} and A_U.Y in U, so c_Y(A_U) <= c_Y(A). The
    minimum is thus min over U of |U| - lam n(U), with n(U) = |A_U|.
    Write U = Y + S with S inside X - Y, and mask each g.Y over X - Y:
    n(U) is the sum over the subsets of S of the histogram of the masks
    (|X - Y| passes over 2^|X - Y| counts). n is supermodular, so the
    minimising U are closed under intersection; every minimiser A
    containing e is A_{A.Y}, so the least one is A_{U*}, with U* the
    intersection of the minimising U."""
    rest = hit.copy()
    rest[y] = False
    free = int(np.count_nonzero(rest))
    bits = np.zeros(hit.size, dtype=np.int64)  # 0 on Y
    bits[rest] = 1 << np.arange(free)
    masks = np.bitwise_or.reduce(bits[images], axis=1)
    counts = np.bincount(masks, minlength=1 << free)
    for b in range(free):  # sum over subsets
        pairs = counts.reshape(-1, 2, 1 << b)
        pairs[:, 1] += pairs[:, 0]
    p, q = lam.numerator, lam.denominator
    dtype = exact_dtype(q * hit.size + p * len(images))
    # the popcount is uint8: cast before scaling, or q |U| wraps
    scores = np.bitwise_count(np.arange(1 << free)).astype(dtype)
    scores += y.size
    scores *= q
    scores -= counts.astype(dtype) * p
    best = scores.min()
    least = np.bitwise_and.reduce((scores == best).nonzero()[0])
    return Fraction(int(best), q), frozenset(
        _saturated(images, bits & ~least == 0).tolist())


def _cut_minimum(images: np.ndarray, hit: np.ndarray, lam: Fraction
                 ) -> tuple[Fraction, frozenset[int]]:
    """`actor_growth_cut` from one s-t minimum cut (Picard and Queyranne,
    Math. Prog. Study 13, 1980).

    With lam = p/q the network has an arc s -> g of capacity p for each
    element g, an arc s -> e and arcs g -> x for each x in g.Y that no cut
    crosses, and an arc x -> t of capacity q for each point x of G.Y. A cut
    whose source side holds A costs at least p|G - A| + q|A.Y| =
    p|G| + q c_Y(A), so the minimum over A containing e is
    (cut - p|G|)/q. c_Y is left-invariant, c_Y(gA) = c_Y(A), so that is
    the minimum over every nonempty A, and the elements reachable from s
    in the residual graph form the least minimiser containing e, which is
    the atom of c_Y containing e.
    """
    n = len(images)
    node = np.cumsum(hit) + (n - 1)  # point x is node node[x] when hit
    s = n + int(np.count_nonzero(hit))
    t = s + 1
    p, q = lam.numerator, lam.denominator
    arcs = [(s, g, p) for g in range(n)]
    arcs.append((s, 0, None))
    arcs += [(g, x, None) for g, row in enumerate(node[images].tolist())
             for x in row]
    arcs += [(x, t, q) for x in range(n, s)]
    cut, side = _min_cut(t + 1, arcs, s, t)
    return Fraction(cut - p * n, q), frozenset(v for v in side if v < n)
