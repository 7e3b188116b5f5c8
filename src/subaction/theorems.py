"""One checker per growth statement.

Each checker validates its hypotheses on a concrete instance, evaluates the
conclusion exactly, constructs the witnesses the statement promises, and
returns a CheckReport. Statement ids double as CLI tokens: kneser, murphy,
small_growth, freiman, ruzsa, hamidoune, petridis, tao_doubling, taod,
fragment_bounds.

The kneser inequality is the one statement that is allowed to fail: finding
instances where it fails is the point. For every other statement,
hypotheses_hold=True with conclusion_holds=False is a counterexample to a
proved result and signals a bug somewhere.

murphy, small_growth, freiman, hamidoune, petridis and taod hold for a
point set Y under an action and for a subspace W under a representation
alike. Each is written once, over a `_Target` built from (action, Y) or
(representation, W): it supplies the image A.Z (`act_set` or
`module_span`), its size (`len` or `dim`), the stabilizer, the
per-element tables of the for-all-C verifier (int masks, or bases whose
spans `linalg.span_dims` measures), the witness fold (of masks, or of
span dimensions) and the linear side's report key names (`span_dim`,
`target_dim`, `subspace_stabilizer`, ...). What only one side has stays
in one marked branch: murphy's orbits, small_growth's overlap, freiman's
corollary and left-translation remark, hamidoune's A0 corollary and its
minimisation (`actor_growth_cut` on the set side, a fold of span
dimensions on the linear side), and taod's witness candidates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import config
from ._kernels import SubsetFold, check_pair_ratio, words
from .actions import GroupAction, natural_action
from .errors import DomainError, InvariantError, StructuralError
from .groups import Subgroup, _membership, _orbits, symmetric
from .linalg import (Representation, Subspace, _rref, basis_table,
                     enumerate_subspaces, span_dims)
from .rationals import exact_fraction, format_fraction
from .setfuncs import (_EXHAUSTIVE, Exhaustiveness, _check_ground,
                       _chunk_rows, _fold_minimum, _mask_of, _sampling,
                       _saturated, _set_of, _union_sizes, actor_growth_cut,
                       group_image_ratio, identity_atom, minimize_nonempty,
                       target_growth)
# perfbench/test_bench.py checks that tracing rebinds theorems.min_image_ratio
from .setfuncs import min_image_ratio  # noqa: F401

STATEMENT_IDS = ("kneser", "murphy", "small_growth", "freiman", "ruzsa",
                 "hamidoune", "petridis", "tao_doubling", "taod",
                 "fragment_bounds")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of checking one statement on one instance.

    conclusion_holds is None whenever hypotheses_hold is False; sampled
    exhaustiveness carries the seed so a report can be replayed.
    """
    statement_id: str
    hypotheses_hold: bool
    conclusion_holds: bool | None
    witnesses: dict
    counterexample: dict | None
    exhaustiveness: Exhaustiveness
    details: dict = field(default_factory=dict)

    @property
    def violated(self) -> bool:
        return self.hypotheses_hold and self.conclusion_holds is False


# -- shared helpers -----------------------------------------------------------


def _subset(items: Iterable[int], size: int, name: str = "A",
            what: str = "an element index") -> tuple[int, ...]:
    """The distinct items, sorted, of a nonempty subset of range(size):
    an actor set by default, or a point set named with what="a point"."""
    items = sorted({int(x) for x in items})
    if not items:
        raise StructuralError(f"{name} must be nonempty")
    if items[0] < 0 or items[-1] >= size:
        raise DomainError(f"{name} contains {what} out of range")
    return tuple(items)


def _sampled_sets(n: int, seed: int | None
                  ) -> tuple[Iterator[np.ndarray], Exhaustiveness]:
    """The SAMPLE_COUNT cap's count of seeded random nonempty subsets of
    range(n) as word rows (`words`), in draw order, in chunks of at most
    `_chunk_rows(n)` rows; each chunk is drawn when the previous one has
    been used. `seed` defaults to the DEFAULT_SEED cap.

    The stream is that of `rng.getrandbits(n) or 1 << rng.randrange(n)`
    per set. getrandbits(n) takes the next k = ceil(n/32) 32-bit outputs
    of the generator, low word first, and shifts the last one right by
    32k - n; getrandbits(32km) takes the next km outputs unshifted, so one
    call draws m sets as the m rows of a k-column block. A row that is 0
    ends its chunk there: the generator is set back and advanced past that
    row, and the row becomes the point randrange(n) draws."""
    rng, exh = _sampling(seed)
    k, count = -(-n // 32), exh.samples
    width = 2 * -(-n // 64)  # 32-bit halves of the 64-point words

    def chunks() -> Iterator[np.ndarray]:
        lo = 0
        while lo < count:
            m = min(_chunk_rows(n), count - lo)
            state = rng.getstate()
            block = np.zeros((m, width), dtype="<u4")
            block[:, :k] = np.frombuffer(
                rng.getrandbits(32 * k * m).to_bytes(4 * k * m, "little"),
                dtype="<u4").reshape(m, k)
            block[:, k - 1] >>= 32 * k - n
            empty = (~block.any(axis=1)).nonzero()[0]
            if empty.size:
                m = int(empty[0]) + 1
                rng.setstate(state)
                rng.getrandbits(32 * k * m)
                block = block[:m]
                b = rng.randrange(n)
                block[-1, b // 32] = 1 << b % 32
            lo += m
            yield block.view("<u8")
    return chunks(), exh


class _Side(NamedTuple):
    """One side of a for-all-C bound: an int mask of points per group
    element or, over F_p (p > 0), a `basis_table` of a subspace per group
    element. The join of C is the union of its masks, measured by
    popcount, or the span of its subspaces, measured by dimension.

    Its join sizes are read two ways, and this module reads them only
    here: `fold`, over every subset of the table, and `chunk_sizes`, over
    chunks of sampled masks given as word rows. `bounds` bounds them from
    |C| alone."""
    table: list[int] | np.ndarray
    p: int = 0

    def fold(self) -> SubsetFold:
        """The fold of the join sizes of every subset: the kernel's mask
        fold, or `span_dims` of every mask."""
        if self.p:
            return SubsetFold.from_sizes(span_dims(self.p, self.table))
        return SubsetFold(self.table)

    def chunk_sizes(self) -> Callable[[np.ndarray], np.ndarray]:
        """The map from word rows of masks C over the table's indices to
        the array of join sizes: `_union_sizes` or `span_dims`."""
        if self.p:
            return partial(span_dims, self.p, self.table)
        return _union_sizes(self.table)

    def bounds(self) -> tuple[list[int], list[int]]:
        """Lists lo and hi with lo[k] <= |join(C)| <= hi[k] for every C
        of k entries, k = 0..n; the empty join has size 0.

        Let s0 and s1 be the least and the greatest size of one entry
        (popcount, or dimension) and top the size of the join of all (the
        popcount of the union, or the rank of all basis rows by one RREF,
        which is cheaper than a `span_dims` row). The
        join of C holds each of its k entries and lies in the join of all,
        so |join(C)| >= s0 and |join(C)| <= min(top, k s1). For masks, let
        d be the most entries that hold any one point. Counting the pairs
        (c, x) with c in C and x in row c gives at least k s0 of them, and
        each point x of the join lies in at most d rows, so d |join(C)| >=
        k s0 and lo[k] = max(s0, ceil(k s0 / d)); no point is held when
        d = 0, and then s0 = 0."""
        n = len(self.table)
        if self.p:
            sizes = np.count_nonzero(self.table.any(axis=2), axis=1)
            rows = self.table.reshape(-1, self.table.shape[2])
            top, d = len(_rref(self.p, rows[rows.any(axis=1)].tolist())), 0
        else:
            union = reduce(operator.or_, self.table)
            sizes, top = [m.bit_count() for m in self.table], union.bit_count()
            held = np.unpackbits(words(self.table, max(
                1, -(-union.bit_length() // 64))).view(np.uint8), axis=1)
            d = int(held.sum(axis=0, dtype=np.int64).max())
        s0, s1 = int(min(sizes)), int(max(sizes))
        lo = [0] + [max(s0, -(-k * s0 // d)) if d else s0
                    for k in range(1, n + 1)]
        return lo, [min(top, k * s1) for k in range(n + 1)]


def _forall_actor_sets(left: _Side, right: _Side, alpha: Fraction,
                       seed: int | None
                       ) -> tuple[dict | None, Exhaustiveness]:
    """The first nonempty C whose left join size exceeds alpha times its
    right join size (`_Side`), as a counterexample {"C", "lhs", "rhs"} or
    None, with the stream's exhaustiveness.

    Up to PETRIDIS_EXHAUSTIVE_MAX_ORDER elements the stream is every C in
    ascending mask order, its sizes read from each side's fold; past the
    kernel's MAX_N elements it is refused. Above the cap it is the seeded
    `_sampled_sets` stream in draw order, its sizes from each side's
    `chunk_sizes`; each chunk is drawn as word rows, read by both sides.

    Counting comes first. A size k is settled when den hi[k] <= num lo[k]
    for the left side's upper and the right side's lower bound
    (`_Side.bounds`), alpha = num/den: then every C of k entries has
    den |left| <= den hi[k] <= num lo[k] <= num |right|. The comparison is
    in Python ints, exact for any alpha. When every size is settled the
    exhaustive stream builds no fold; the sampled stream still draws every
    chunk, so its report's seed and count are those of the sets checked.
    A violating C is never settled, so the join sizes of only the
    unsettled C of each chunk go through one `check_pair_ratio`, and each
    side's fold or chunk reader is built when the first of them is
    reached; chunks are drawn only until one has a violation.
    """
    n = len(left.table)
    sampled = n > config.cap("PETRIDIS_EXHAUSTIVE_MAX_ORDER")
    if not sampled:
        _check_ground("PETRIDIS_EXHAUSTIVE_MAX_ORDER", n,
                      "the for-all-C check enumerates every actor set")
    num, den = alpha.numerator, alpha.denominator
    upper, lower = left.bounds()[1], right.bounds()[0]
    unsettled = np.array([den * h > num * l for h, l in zip(upper, lower)])
    if sampled:
        chunks, exh = _sampled_sets(n, seed)
    elif not unsettled.any():
        return None, _EXHAUSTIVE
    else:
        step, end = _chunk_rows(n), 1 << n
        chunks = (np.arange(lo, min(lo + step, end), dtype="<i8")
                  for lo in range(1, end, step))
        exh = _EXHAUSTIVE
    sizes = None
    for chunk in chunks:
        # |C| of each mask, or of each word row
        cards = np.bitwise_count(chunk).reshape(len(chunk), -1).sum(axis=1)
        at = np.flatnonzero(unsettled[cards])
        if not at.size:
            continue
        if sizes is None:
            sizes = [side.chunk_sizes() if sampled
                     else side.fold().pops.__getitem__
                     for side in (left, right)]
        lhs, rhs = (size_of(chunk[at]) for size_of in sizes)
        ok, first, _checked = check_pair_ratio(lhs, rhs, num, den)
        if not ok:
            # C is a mask or a word row: either way its little-endian bytes
            C = int.from_bytes(chunk[at[first]].tobytes(), "little")
            return {"C": _set_of(C), "lhs": int(lhs[first]),
                    "rhs": alpha * int(rhs[first])}, exh
    return None, exh


def _failed(statement_id: str, details: dict) -> CheckReport:
    return CheckReport(statement_id=statement_id, hypotheses_hold=False,
                       conclusion_holds=None, witnesses={},
                       counterexample=None, exhaustiveness=_EXHAUSTIVE,
                       details=details)


def _verdict(statement_id: str, holds: bool | dict, witnesses: dict,
             details: dict, counterexample: dict | None = None,
             exhaustiveness: Exhaustiveness = _EXHAUSTIVE) -> CheckReport:
    """The report of an instance whose hypotheses hold.

    `holds` is the conclusion, or a dict of named checks that must all
    hold; then the counterexample is {"failed_checks": the false names,
    sorted} followed by the entries of `counterexample`. The
    counterexample is kept only when the conclusion fails."""
    if isinstance(holds, dict):
        bad = sorted(k for k, v in holds.items() if not v)
        holds, counterexample = not bad, {"failed_checks": bad,
                                          **(counterexample or {})}
    return CheckReport(statement_id=statement_id, hypotheses_hold=True,
                       conclusion_holds=holds, witnesses=witnesses,
                       counterexample=None if holds else counterexample,
                       exhaustiveness=exhaustiveness, details=details)


def is_left_translation(action: GroupAction) -> bool:
    """True when the table is exactly left multiplication on element
    indices. Both are homomorphisms into Sym(G), so they are equal when
    they agree on the generators."""
    G = action.group
    return action.domain_size == G.order and all(
        np.array_equal(action.table[g], G.mul_row(g))
        for g in G.generator_indices)


def _unit_range(alpha: Fraction, name: str = "alpha") -> Fraction:
    if not 0 < alpha <= 1:
        raise DomainError(f"{name} must lie in (0, 1]; "
                          f"got {format_fraction(alpha)}")
    return alpha


_dim = operator.attrgetter("dim")

# report keys that the linear side names after spans and subspaces
_LINEAR_KEYS = {"product_size": "span_dim", "inverse_product_size": "span_dim",
                "target_size": "target_dim",
                "set_stabilizer": "subspace_stabilizer",
                "witness_product": "witness_span"}


class _Target:
    """The target of a statement: a point set Y under an action, or a
    subspace W under a representation.

    On the set side an image A.Z is `act_set`, measured by `len`, with
    for-all-C tables of int masks and witness folds of masks under
    MAX_EXHAUSTIVE_GROUND. On the linear side it is `module_span`,
    measured by `dim`, with tables of subspace bases and folds of span
    dimensions (`span_dims`) under LINEAR_EXHAUSTIVE_MAX_ORDER.
    """

    def __init__(self, obj: GroupAction | Representation, Y):
        self.obj = obj
        self.linear = isinstance(obj, Representation)
        if self.linear:
            obj._match(Y)
            if Y.is_zero():
                raise StructuralError("W must be nonzero")
            self.Y, self.image, self.size = Y, obj.module_span, _dim
            self.stabilizer = obj.subspace_stabilizer
        else:
            self.Y = _subset(Y, obj.domain_size, "Y", "a point")
            self.image, self.size = obj.act_set, len
            self.stabilizer = obj.set_stabilizer
        self.target_size = self.size(self.Y)

    def keyed(self, fields: dict) -> dict:
        """`fields`, renamed to the linear side's report keys there."""
        if not self.linear:
            return fields
        return {_LINEAR_KEYS.get(k, k): v for k, v in fields.items()}

    def translates(self, Z) -> list:
        """c.Z for every group element c: rows of points, or subspaces."""
        if self.linear:
            return [self.obj.act_subspace(c, Z)
                    for c in range(self.obj.group.order)]
        return self.obj.table[:, sorted(Z)].tolist()

    def side(self, items: list) -> _Side:
        """The for-all-C side of `items` (point sets, or subspaces)."""
        if self.linear:
            return _Side(basis_table(items), self.obj.p)
        return _Side([_mask_of(x) for x in items])

    def fold(self, elements: Sequence[int], hint: str) -> SubsetFold:
        """The fold of g.Y over the subsets of `elements`: of masks, or of
        span dimensions, each refused past its ground cap. A fold of span
        dimensions is checked at its last entry, the span of every image,
        against the join of the images by `Subspace.sum`: n - 1 RREFs beside
        the kernel's 2^n spans, so a kernel fault raises InvariantError
        before any witness is read from the fold."""
        if not self.linear:
            _check_ground("MAX_EXHAUSTIVE_GROUND", len(elements), hint)
            rows = np.array(list(elements), dtype=np.int64)
            images = self.obj.table[rows[:, None], list(self.Y)].tolist()
            return self.side(images).fold()
        _check_ground("LINEAR_EXHAUSTIVE_MAX_ORDER", len(elements), hint)
        images = [self.obj.act_subspace(g, self.Y) for g in elements]
        fold = self.side(images).fold()
        join = reduce(Subspace.sum, images)
        if int(fold.pops[-1]) != join.dim:
            raise InvariantError(
                f"span_dims gives the span of all {len(images)} images "
                f"dimension {int(fold.pops[-1])}, their join {join.dim}")
        return fold


# -- kneser -------------------------------------------------------------------


def check_kneser(action: GroupAction, A: Iterable[int], Y: Iterable[int]
                 ) -> CheckReport:
    """Evaluate |G_{A.Y}| + |A.Y| >= |A| + |Y| and its stabilised variant.

    Both inequalities can fail for general actions; a False conclusion is a
    finding, not an error.
    """
    A = _subset(A, action.group.order)
    Y = _subset(Y, action.domain_size, "Y", "a point")
    AY = action.act_set(A, Y)
    stab = action.set_stabilizer(AY)
    lhs = stab.order + len(AY)
    holds = lhs >= len(A) + len(Y)
    HY = action.act_set(stab.member_tuple, Y)
    HA = action.group.product_set(stab.member_tuple, A)
    variant_holds = lhs >= len(HY) + len(HA)
    return _verdict(
        "kneser", holds,
        {"product_set": AY, "stabilizer": stab, "stabilized_target": HY,
         "stabilized_actor": HA},
        {"actor_size": len(A), "target_size": len(Y),
         "product_size": len(AY), "stabilizer_order": stab.order,
         "variant_holds": variant_holds, "variant_rhs": len(HY) + len(HA)},
        {"A": A, "Y": Y, "lhs": lhs, "rhs": len(A) + len(Y)})


def kneser_example_instance(n: int, k: int, ell: int,
                            action: GroupAction | None = None
                            ) -> tuple[GroupAction, tuple[int, ...],
                                       tuple[int, ...], dict]:
    """S_n natural action with A = every g mapping {0..k-1} into {0..ell-1}.

    Returns (action, A, Y, expected) where expected holds the closed counts
    |A| = ell!/(ell-k)! * (n-k)!, |A.Y| = ell, |G_{A.Y}| = ell! * (n-ell)!.
    The kneser inequality on these instances holds exactly when ell == k.
    `action`, if given, must be ``natural_action(symmetric(n))``, which is
    then not built again.
    """
    if not 1 <= k <= ell < n:
        raise DomainError("need 1 <= k <= ell < n")
    action = action or natural_action(symmetric(n))
    Y = tuple(range(k))
    # g maps Y = {0..k-1} into {0..ell-1}
    A = tuple(np.flatnonzero((action.table[:, :k] < ell).all(axis=1))
              .tolist())
    expected = {
        "actor_size": math.factorial(ell) // math.factorial(ell - k)
        * math.factorial(n - k),
        "product_size": ell,
        "stabilizer_order": math.factorial(ell) * math.factorial(n - ell),
    }
    return action, A, Y, expected


# -- murphy -------------------------------------------------------------------


def check_murphy(obj: GroupAction | Representation, A: Iterable[int],
                 Y: Iterable[int] | Subspace) -> CheckReport:
    """|A.Y| = |Y| forces <A^-1 A> inside the setwise stabilizer of Y."""
    G = obj.group
    A = _subset(A, G.order)
    t = _Target(obj, Y)
    AY = t.image(A, t.Y)
    if t.size(AY) != t.target_size:
        return _failed("murphy", t.keyed({"product_size": t.size(AY),
                                          "target_size": t.target_size}))
    quotient = G.product_set(G.inverse_set(A), A)
    H = G.generated_subgroup(quotient)
    GY = t.stabilizer(t.Y)
    outside = sorted(H.members - GY.members)
    witnesses = t.keyed({"generated_subgroup": H, "set_stabilizer": GY})
    details = {"quotient_set_size": len(quotient), "subgroup_order": H.order}
    if t.linear:
        witnesses["module_span"] = AY
    else:
        # the orbits of the quotient set's rows are the H-orbits; as
        # a.Y = b.Y for all a, b in A, H fixes Y, and those that meet Y
        # partition it, in order of least point
        points = set(t.Y)
        orbits = tuple(frozenset(o) for o in _orbits(
            obj.table[sorted(quotient)]) if not points.isdisjoint(o))
        witnesses["orbits"] = orbits
        details["orbit_count"] = len(orbits)
    return _verdict("murphy", not outside, witnesses, details,
                    {"element": outside[0]} if outside else None)


# -- small growth -> symmetry sets ---------------------------------------------


def check_small_growth(obj: GroupAction | Representation, A, Y, alpha
                       ) -> CheckReport:
    """|A.Y| <= (2 - alpha)|Y| forces A^-1 A inside Sym_alpha(Y)."""
    alpha = _unit_range(exact_fraction(alpha))
    G = obj.group
    A = _subset(A, G.order)
    t = _Target(obj, Y)
    size, bound = t.size(t.image(A, t.Y)), (2 - alpha) * t.target_size
    if size > bound:
        return _failed("small_growth", t.keyed({
            "product_size": size, "target_size": t.target_size,
            "bound": bound}))
    quotient = G.product_set(G.inverse_set(A), A)
    sym = obj.symmetry_set(t.Y, alpha)
    outside = sorted(quotient - sym)
    counterexample = {"element": outside[0]} if outside else None
    if outside and not t.linear:
        counterexample["overlap"] = len(obj.act_point_set(outside[0], t.Y)
                                        & frozenset(t.Y))
    return _verdict("small_growth", not outside,
                    {"quotient_set": quotient, "symmetry_set": sym},
                    t.keyed({"product_size": size, "bound": bound}),
                    counterexample)


# -- freiman 3/2 ----------------------------------------------------------------


def check_freiman(obj: GroupAction | Representation, A, Y, alpha
                  ) -> CheckReport:
    """|A^-1.Y| <= ((3 - alpha)/2)|Y| puts AA^-1 and (AA^-1)^2 in Sym_alpha(Y).

    On actions: when Sym_alpha(Y) lands inside AA^-1 the corollary upgrade
    applies and AA^-1 must be a subgroup. On left translation the weak
    stabilizer of A must equal AA^-1, and |A^-1 A| < (3/2)|A| again forces
    a subgroup.
    """
    alpha = _unit_range(exact_fraction(alpha))
    G = obj.group
    A = _subset(A, G.order)
    t = _Target(obj, Y)
    Ainv = G.inverse_set(A)
    size, bound = t.size(t.image(Ainv, t.Y)), (3 - alpha) / 2 * t.target_size
    if size > bound:
        return _failed("freiman", t.keyed({
            "inverse_product_size": size, "target_size": t.target_size,
            "bound": bound}))
    Q = G.product_set(A, Ainv)
    Q2 = G.product_set(Q, Q)
    sym = obj.symmetry_set(t.Y, alpha)
    checks = {"square_in_symmetry": Q2 <= sym,
              "quotient_in_symmetry": Q <= sym}
    details = t.keyed({"inverse_product_size": size, "checks": checks})
    if not t.linear:
        # the corollary and the remark are stated for actions. Q = AA^-1
        # holds e, so Q <= QQ; a finite set closed under products is a
        # subgroup, so <Q> = Q exactly when QQ <= Q, that is when Q2 == Q
        corollary_applies = sym <= Q
        if corollary_applies:
            checks["corollary_subgroup"] = Q2 == Q
        remark_applies = is_left_translation(obj)
        if remark_applies:
            checks["weak_stabilizer_equals_quotient"] = \
                obj.weak_stabilizer(A) == Q
            if 2 * len(G.product_set(Ainv, A)) < 3 * len(A):
                checks["remark_subgroup"] = Q2 == Q
        details.update(bound=bound, corollary_applies=corollary_applies,
                       remark_applies=remark_applies)
    return _verdict("freiman", checks, {"quotient_set": Q,
                                        "quotient_square": Q2,
                                        "symmetry_set": sym}, details)


# -- ruzsa triple ----------------------------------------------------------------


def check_ruzsa_triple(action: GroupAction, A, B, Y) -> CheckReport:
    """|AB.Y|^2 <= |AB| |B.Y| max_b |Ab.Y|; with |A.Y| instead of the max
    when every element of A commutes with every element of B."""
    G = action.group
    A = _subset(A, G.order)
    B = _subset(B, G.order, "B")
    Y = _subset(Y, action.domain_size, "Y", "a point")
    AB = G.product_set(A, B)
    ABY = action.act_set(AB, Y)
    BY = action.act_set(B, Y)
    per_b = {b: action.image_size(G.product_set(A, (b,)), Y) for b in B}
    worst = max(per_b.values())
    main = len(ABY) ** 2 <= len(AB) * len(BY) * worst
    commuting = all(G.mul(a, b) == G.mul(b, a) for a in A for b in B)
    checks = {"triple_bound": main}
    AY_size = None
    if commuting:
        AY_size = action.image_size(A, Y)
        checks["commuting_bound"] = \
            len(ABY) ** 2 <= len(AB) * len(BY) * AY_size
    return _verdict(
        "ruzsa", checks,
        {"product_actors": AB, "product_set": ABY, "b_images": per_b},
        {"lhs": len(ABY) ** 2, "rhs": len(AB) * len(BY) * worst,
         "max_single_image": worst, "commuting": commuting,
         "actor_image_size": AY_size})


# -- hamidoune -------------------------------------------------------------------


def check_hamidoune(obj: GroupAction | Representation, Y, lam, A0=None
                    ) -> CheckReport:
    """For lam in [0, mu] there is a subgroup H containing the stabilizer of Y
    with c_Y(A) >= c_Y(H) >= |Y| - lam|H| for every nonempty A.

    mu, the least f(A) / |A| with f(A) = |A.Y| or dim span(A.W), is
    f(G) / |G| (`group_image_ratio` on the set side): f is monotone,
    submodular and left-invariant with f(empty) = 0, and each element lies
    in exactly |A| of the translates gA, so fractional subadditivity gives
    f(G) <= sum over g of f(gA) / |A| = |G| f(A) / |A|. On the set side
    one `actor_growth_cut` gives the minimum growth and H, its least
    minimiser containing e, at every order. On the linear side one fold
    of g.W, built once lam is known to lie in range, gives the minimum
    growth, its first fragment and H, refused past
    LINEAR_EXHAUSTIVE_MAX_ORDER. At lam = 0, H is the stabilizer."""
    t = _Target(obj, Y)
    if A0 is not None and t.linear:
        raise DomainError("A0 is not supported on representations: the "
                          "corollary is stated for actions only")
    G, n = obj.group, obj.group.order
    lam = exact_fraction(lam)
    mu = Fraction(t.size(t.image(range(n), t.Y)), n)
    if not 0 <= lam <= mu:
        raise DomainError(
            f"lambda must lie in [0, mu] = [0, {format_fraction(mu)}]; "
            f"got {format_fraction(lam)}")
    GY = t.stabilizer(t.Y)
    if t.linear:
        res = _fold_minimum(
            t.fold(range(n), "linear variant enumerates all actor sets"),
            lam, 1, f"actor_growth[{obj.name}]")
        minimum, A = res.min_value, res.fragments[0]
        H = identity_atom(None, G, res) if lam else GY
    else:
        minimum, A = actor_growth_cut(obj, t.Y, lam)
        H = Subgroup(G, A) if lam else GY
    cH = t.size(t.image(H.member_tuple, t.Y)) - lam * H.order
    checks = {"stabilizer_in_subgroup": GY.members <= H.members,
              "floor_bound": cH >= t.target_size - lam * H.order,
              "minimum_at_subgroup": minimum >= cH}
    details: dict = {"mu": mu, "lambda": lam, "subgroup_growth": cH,
                     "checks": checks}
    if not t.linear:
        # the subgroup order and the A0 corollary are reported for actions
        details["subgroup_order"] = H.order
        if A0 is not None and lam > 0:
            A0 = _subset(A0, G.order, "A0")
            A0Y = obj.act_set(A0, t.Y)
            M = _saturated(obj.table[:, list(t.Y)],
                           _membership(obj.domain_size, list(A0Y)))
            checks["corollary_bound"] = \
                lam * M.size + t.target_size <= lam * H.order + len(A0Y)
            details["saturated_actor_size"] = M.size
            details["corollary_product_size"] = len(A0Y)
        elif A0 is not None:
            details["corollary_skipped"] = "corollary requires lambda > 0"
    return _verdict(
        "hamidoune", checks,
        t.keyed({"subgroup": H, "set_stabilizer": GY}), details,
        None if minimum >= cH else {"A": A, "growth": minimum,
                                    "subgroup_growth": cH})


# -- petridis --------------------------------------------------------------------


def find_petridis_witness(obj: GroupAction | Representation, A, Y, alpha,
                          *, seed: int | None = None) -> CheckReport:
    """|A.Y| <= alpha|A| yields B inside A with |CB.Y| <= alpha|CB| for all C.

    B minimises |C.Y|/|C| over nonempty C inside A (ties: smallest
    cardinality, then lexicographic).
    """
    alpha = exact_fraction(alpha)
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    G = obj.group
    A = _subset(A, G.order)
    t = _Target(obj, Y)
    size = t.size(t.image(A, t.Y))
    if size > alpha * len(A):
        return _failed("petridis", t.keyed({"product_size": size,
                                            "actor_size": len(A),
                                            "bound": alpha * len(A)}))
    p, q, wmask = t.fold(A, "witness search enumerates subsets of A"
                         ).min_ratio()
    B = tuple(a for i, a in enumerate(A) if (wmask >> i) & 1)
    ratio = Fraction(p, q)
    BY = t.image(B, t.Y)
    # the right side is G on itself: the translates cB, in one gather
    counterexample, exh = _forall_actor_sets(
        t.side(t.translates(BY)),
        _Side([_mask_of(cB) for cB in
               G._products(np.arange(G.order), B).tolist()]),
        alpha, seed)
    return _verdict(
        "petridis", {"forall_actor_sets": counterexample is None,
                     "witness_ratio_within_alpha": ratio <= alpha},
        t.keyed({"B": frozenset(B), "witness_product": BY}),
        {"witness_ratio": ratio, "alpha": alpha, "witness_size": len(B)},
        counterexample, exh)


# -- tao small doubling ------------------------------------------------------------


def check_tao_small_doubling(action: GroupAction, A, Y, eps) -> CheckReport:
    """|A| >= |Y| and |A.Y| <= (2 - eps) mu |Y| bound the subgroup H at
    lam = mu(1 - eps/2): |H| <= (2/eps - 1)|Y|, |H.Y| <= mu (2/eps - 1)|Y|,
    Y inside H.Y, and H.Y a union of H-orbits."""
    G = action.group
    eps = exact_fraction(eps)
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    A = _subset(A, G.order)
    Y = _subset(Y, action.domain_size, "Y", "a point")
    mu = group_image_ratio(action, Y)
    AY = action.act_set(A, Y)
    clauses = {
        "actor_at_least_target": len(A) >= len(Y),
        "mu_positive": mu > 0,
        "growth_bound": Fraction(len(AY)) <= (2 - eps) * mu * len(Y),
    }
    if not all(clauses.values()):
        return _failed("tao_doubling",
                       {"failed_clauses": sorted(k for k, v in clauses.items()
                                                 if not v),
                        "mu": mu, "product_size": len(AY),
                        "growth_bound": (2 - eps) * mu * len(Y)})
    lam = mu * (1 - eps / 2)
    H = Subgroup(G, actor_growth_cut(action, Y, lam)[1])
    HY = action.act_set(H.member_tuple, Y)
    budget = (Fraction(2) / eps - 1) * len(Y)
    checks = {
        "target_inside": frozenset(Y) <= HY,
        "subgroup_size": Fraction(H.order) <= budget,
        "image_size": Fraction(len(HY)) <= mu * budget,
        "orbit_union": action.act_set(H.member_tuple, HY) == HY,
    }
    return _verdict("tao_doubling", checks,
                    {"subgroup": H, "subgroup_image": HY},
                    {"mu": mu, "lambda": lam, "size_budget": budget,
                     "checks": checks})


# -- taod (Abelian transfer to the target side) --------------------------------------


def find_taod_witness(obj: GroupAction | Representation, A, Y, alpha,
                      *, n_max: int = 5, seed: int | None = None
                      ) -> CheckReport:
    """Abelian G, |A.Y| <= alpha|Y|: some nonempty Z inside Y has
    |AC.Z| <= alpha|C.Z| for all C and |A^n.Z| <= alpha^n |Z|.

    Z minimises |A.Z|/|Z| over the nonempty subsets of Y, or over the
    nonzero subspaces of W (ties: smallest size, then lexicographic)."""
    alpha = exact_fraction(alpha)
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    G = obj.group
    if not G.is_abelian():
        raise DomainError(
            "G must be Abelian: the target growth d_A is only "
            "G-invariant when actors commute")
    A = _subset(A, G.order)
    t = _Target(obj, Y)
    size = t.size(t.image(A, t.Y))
    if size > alpha * t.target_size:
        return _failed("taod", t.keyed({"product_size": size,
                                        "target_size": t.target_size,
                                        "bound": alpha * t.target_size}))
    if t.linear:
        # the nonzero subspaces of W: those of F_p^{dim W}, mapped through
        # W's basis and put in canonical form
        def in_w(U: Subspace) -> Subspace:
            return Subspace.from_vectors(obj.p, obj.dim, [
                [sum(c * w[j] for c, w in zip(row, t.Y.rows))
                 for j in range(obj.dim)] for row in U.rows])
        ratio, _key, Z = min(
            (Fraction(obj.module_span(A, S).dim, S.dim), S.sort_key(), S)
            for S in map(in_w, enumerate_subspaces(obj.p, t.Y.dim)[1:]))
    else:
        _check_ground("MAX_EXHAUSTIVE_GROUND", len(t.Y),
                      "witness search enumerates subsets of Y")
        # the mask of A.y for each y in Y: a column of one gather
        p, q, wmask = _Side([_mask_of(Ay) for Ay in obj.table[
            np.ix_(A, t.Y)].T.tolist()]).fold().min_ratio()
        Z = frozenset(y for i, y in enumerate(t.Y) if (wmask >> i) & 1)
        ratio = Fraction(p, q)
    # G is Abelian, so A.(c.Z) = c.(A.Z): the left side is the
    # translates of one image
    counterexample, exh = _forall_actor_sets(
        t.side(t.translates(t.image(A, Z))), t.side(t.translates(Z)),
        alpha, seed)

    powers, AkZ = {}, Z
    for k in range(1, n_max + 1):
        AkZ = t.image(A, AkZ)  # A^k.Z = A.(A^(k-1).Z)
        powers[k] = t.size(AkZ) <= alpha ** k * t.size(Z)
    return _verdict(
        "taod", counterexample is None and all(powers.values()), {"Z": Z},
        {"witness_ratio": ratio, "alpha": alpha, "power_checks": powers},
        counterexample or {"failed_powers": sorted(
            k for k, v in powers.items() if not v)}, exh)


# -- fragment size bounds -------------------------------------------------------


def check_fragment_bounds(action: GroupAction, A, lam, mu_param=None
                          ) -> CheckReport:
    """Size bounds on fragments of d_A(Y) = |A.Y| - lam|Y|.

    Part 1: lam < 1/|A| forces every fragment to have size at most |A|.
    Part 2: free action, |X| >= |A|, mu_param <= 1 and lam between
    (|X| - |A|)/(|X| - mu_param|A|) and 1 force size at least mu_param|A|.
    """
    G = action.group
    lam = exact_fraction(lam)
    A = _subset(A, G.order)
    size = len(A)
    domain = action.domain_size
    part1 = lam < Fraction(1, size)
    part2 = False
    threshold = None
    if mu_param is not None:
        mu_param = exact_fraction(mu_param)
        denom = domain - mu_param * size
        if action.profile().free and domain >= size and mu_param <= 1 \
                and denom > 0:
            threshold = Fraction(domain - size) / denom
            part2 = threshold <= lam <= 1
    if not (part1 or part2):
        return _failed("fragment_bounds",
                       {"part1_applies": part1, "part2_applies": part2,
                        "lambda": lam, "part2_threshold": threshold})
    res = minimize_nonempty(target_growth(action, A, lam))
    lo, hi = res.atom_size, res.largest_size
    checks = {}
    if part1:
        checks["upper_bound"] = hi <= size
    if part2:
        checks["lower_bound"] = Fraction(lo) >= mu_param * size
    return _verdict(
        "fragment_bounds", checks,
        {"atoms": tuple(res.atoms), "fragments": tuple(res.fragments)},
        {"part1_applies": part1, "part2_applies": part2,
         "part2_threshold": threshold, "minimum": res.min_value,
         "fragment_count": res.fragment_count, "smallest_fragment": lo,
         "largest_fragment": hi},
        {"smallest_fragment": lo, "largest_fragment": hi})
