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
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import config
from ._kernels import MAX_COEFF, MAX_N, SubsetFold, check_pair_ratio
from .actions import GroupAction, natural_action
from .errors import CapacityError, DomainError, StructuralError
from .groups import FiniteGroup, symmetric
from .linalg import Representation, Subspace, enumerate_subspaces
from .rationals import exact_fraction, format_fraction
from .setfuncs import (_MASK_LIMIT, Exhaustiveness, _check_samples,
                       _chunk_rows, _fits_kernel, _fold_minimum, _mask_of,
                       _set_of, _union_sizes, actor_growth, identity_atom,
                       min_image_ratio, minimize_nonempty, target_growth)

STATEMENT_IDS = ("kneser", "murphy", "small_growth", "freiman", "ruzsa",
                 "hamidoune", "petridis", "tao_doubling", "taod",
                 "fragment_bounds")

_EXHAUSTIVE = Exhaustiveness(kind="exhaustive")


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


def _group_subset(G: FiniteGroup, A: Iterable[int], name: str = "A"
                  ) -> tuple[int, ...]:
    items = sorted({int(a) for a in A})
    if not items:
        raise StructuralError(f"{name} must be nonempty")
    if items[0] < 0 or items[-1] >= G.order:
        raise DomainError(f"{name} contains an element index out of range")
    return tuple(items)


def _point_subset(action: GroupAction, Y: Iterable[int], name: str = "Y"
                  ) -> tuple[int, ...]:
    items = sorted({int(y) for y in Y})
    if not items:
        raise StructuralError(f"{name} must be nonempty")
    if items[0] < 0 or items[-1] >= action.domain_size:
        raise DomainError(f"{name} contains a point out of range")
    return tuple(items)


def _random_nonempty_mask(rng: random.Random, n: int) -> int:
    m = rng.getrandbits(n)
    if m == 0:
        m = 1 << rng.randrange(n)
    return m


def _sampled_sets(n: int, samples: int | None, seed: int | None
                  ) -> tuple[Iterator[list[int]], Exhaustiveness]:
    """Seeded random nonempty subsets of range(n) as int masks, in draw
    order, in chunks of `_chunk_rows(n)` masks; each chunk is drawn when
    the previous one has been used. `samples` and `seed` default to the
    SAMPLE_COUNT and DEFAULT_SEED caps."""
    s = config.cap("DEFAULT_SEED") if seed is None else int(seed)
    count = config.cap("SAMPLE_COUNT") if samples is None else int(samples)
    rng, rows = random.Random(s), _chunk_rows(n)

    def chunks() -> Iterator[list[int]]:
        for lo in range(0, count, rows):
            yield [_random_nonempty_mask(rng, n)
                   for _ in range(min(rows, count - lo))]
    return chunks(), Exhaustiveness(kind="sampled", samples=count, seed=s)


def _first_violation(chunks: Iterable[list[int]],
                     violates: Callable[[list[int]], np.ndarray]
                     ) -> int | None:
    """The first mask in draw order whose row `violates` marks True,
    reading chunks only until one has such a row."""
    for chunk in chunks:
        hits = np.flatnonzero(violates(chunk))
        if hits.size:
            return chunk[hits[0]]
    return None


def _exact(bound: int, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The int64 arrays as they are while products up to `bound` fit int64,
    else as arrays of Python ints, so comparisons stay exact."""
    if bound < 1 << 63:
        return arrays
    return tuple(a.astype(object) for a in arrays)


def _doubling(table: Sequence, empty, join: Callable) -> Iterator:
    """The join of table[b] over the bits b of m, for m = 0, 1, 2, ... in
    ascending order, each from m without its lowest bit."""
    joins = [empty]
    yield empty
    for m in range(1, 1 << len(table)):
        low = m & -m
        joins.append(join(joins[m ^ low], table[low.bit_length() - 1]))
        yield joins[m]


def _side(table: list) -> tuple:
    """(empty, join, size) for one side of a for-all-C bound: int masks
    join by OR and measure by popcount, subspaces by sum and dim."""
    if isinstance(table[0], Subspace):
        return (Subspace.zero(table[0].p, table[0].ambient_dim),
                Subspace.sum, operator.attrgetter("dim"))
    return 0, operator.or_, int.bit_count


def _forall_actor_sets(left: list, right: list, alpha: Fraction,
                       samples: int | None, seed: int | None
                       ) -> tuple[dict | None, Exhaustiveness]:
    """The first nonempty C with size(join of left[c], c in C) >
    alpha * size(join of right[c], c in C), one table entry per group
    element, as a counterexample {"C", "lhs", "rhs"} or None, with the
    route's exhaustiveness.

    Up to PETRIDIS_EXHAUSTIVE_MAX_ORDER elements every C is tried in
    ascending mask order: by the pair-ratio kernel when both sides are
    masks under 64 bits, else by doubling. Above it the seeded
    `_sampled_sets` stream is tried in draw order: a chunk at a time by
    `_union_sizes` when both sides are masks, taking the first violating
    row, and one C at a time by `Subspace.sum` when a side is linear.
    """
    n = len(left)
    (lempty, ljoin, lsize), (rempty, rjoin, rsize) = _side(left), _side(right)
    num, den = alpha.numerator, alpha.denominator
    masks = ljoin is rjoin is operator.or_

    def sizes(C) -> tuple[int, int]:
        return (lsize(reduce(ljoin, (left[c] for c in C), lempty)),
                rsize(reduce(rjoin, (right[c] for c in C), rempty)))

    def exceeds(lhs: int, rhs: int) -> bool:
        return den * lhs > num * rhs

    if n > config.cap("PETRIDIS_EXHAUSTIVE_MAX_ORDER"):
        chunks, exh = _sampled_sets(n, samples, seed)
        if masks:
            lsizes, rsizes = _union_sizes(left), _union_sizes(right)
            bound = max(den * max(left).bit_length(),
                        num * max(right).bit_length())

            def violates(chunk: list[int]) -> np.ndarray:
                lhs, rhs = _exact(bound, lsizes(chunk), rsizes(chunk))
                return den * lhs > num * rhs
            first = _first_violation(chunks, violates)
        else:
            first = next((m for chunk in chunks for m in chunk
                          if exceeds(*sizes(_set_of(m)))), None)
    else:
        exh = _EXHAUSTIVE
        if masks and n <= MAX_N and _fits_kernel(alpha) \
                and max(left + right) >> _MASK_LIMIT == 0:
            _ok, first, _checked = check_pair_ratio(left, right, num, den)
        else:
            joins = zip(_doubling(left, lempty, ljoin),
                        _doubling(right, rempty, rjoin))
            first = next((m for m, (lj, rj) in enumerate(joins)
                          if exceeds(lsize(lj), rsize(rj))), None)
    if first is None:
        return None, exh
    C = _set_of(first)
    lhs, rhs = sizes(C)
    return {"C": C, "lhs": lhs, "rhs": alpha * rhs}, exh


def _check_ground(cap_name: str, size: int, hint: str, points: int = 0
                  ) -> None:
    """Refuse a subset enumeration over `size` elements, on masks over
    `points` points, past the cap `cap_name` or past the subset-fold
    kernel's fixed limits of MAX_N elements and _MASK_LIMIT points, which
    no cap override lifts; the refusal names the limit that stopped it."""
    limit = config.cap(cap_name)
    if size > limit:
        raise CapacityError(cap_name, limit, size, hint=hint)
    fixed = f"a fixed limit of the subset-fold kernel, not a cap; {hint}"
    if size > MAX_N:
        raise CapacityError("kernel ground size", MAX_N, size, hint=fixed)
    if points > _MASK_LIMIT:
        raise CapacityError("kernel mask width", _MASK_LIMIT, points,
                            hint=fixed)


def _failed(statement_id: str, details: dict) -> CheckReport:
    return CheckReport(statement_id=statement_id, hypotheses_hold=False,
                       conclusion_holds=None, witnesses={},
                       counterexample=None, exhaustiveness=_EXHAUSTIVE,
                       details=details)


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


# -- kneser -------------------------------------------------------------------


def check_kneser(action: GroupAction, A: Iterable[int], Y: Iterable[int]
                 ) -> CheckReport:
    """Evaluate |G_{A.Y}| + |A.Y| >= |A| + |Y| and its stabilised variant.

    Both inequalities can fail for general actions; a False conclusion is a
    finding, not an error.
    """
    A = _group_subset(action.group, A)
    Y = _point_subset(action, Y)
    AY = action.act_set(A, Y)
    stab = action.set_stabilizer(AY)
    lhs = stab.order + len(AY)
    holds = lhs >= len(A) + len(Y)
    HY = action.act_set(stab.member_tuple, Y)
    HA = action.group.product_set(stab.member_tuple, A)
    variant_holds = lhs >= len(HY) + len(HA)
    return CheckReport(
        statement_id="kneser", hypotheses_hold=True,
        conclusion_holds=holds,
        witnesses={"product_set": AY, "stabilizer": stab,
                   "stabilized_target": HY, "stabilized_actor": HA},
        counterexample=None if holds else {
            "A": A, "Y": Y, "lhs": lhs, "rhs": len(A) + len(Y)},
        exhaustiveness=_EXHAUSTIVE,
        details={"actor_size": len(A), "target_size": len(Y),
                 "product_size": len(AY), "stabilizer_order": stab.order,
                 "variant_holds": variant_holds,
                 "variant_rhs": len(HY) + len(HA)})


def kneser_example_instance(n: int, k: int, ell: int
                            ) -> tuple[GroupAction, tuple[int, ...],
                                       tuple[int, ...], dict]:
    """S_n natural action with A = every g mapping {0..k-1} into {0..ell-1}.

    Returns (action, A, Y, expected) where expected holds the closed counts
    |A| = ell!/(ell-k)! * (n-k)!, |A.Y| = ell, |G_{A.Y}| = ell! * (n-ell)!.
    The kneser inequality on these instances holds exactly when ell == k.
    """
    if not 1 <= k <= ell < n:
        raise DomainError("need 1 <= k <= ell < n")
    action = natural_action(symmetric(n))
    Y = tuple(range(k))
    inside = set(range(ell))
    A = tuple(g for g in range(action.group.order)
              if set(action.table[g][:k].tolist()) <= inside)
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
    if isinstance(obj, Representation):
        return _murphy_linear(obj, A, Y)
    return _murphy_set(obj, A, Y)


def _murphy_set(action: GroupAction, A, Y) -> CheckReport:
    G = action.group
    A = _group_subset(G, A)
    Y = _point_subset(action, Y)
    AY = action.act_set(A, Y)
    if len(AY) != len(Y):
        return _failed("murphy", {"product_size": len(AY),
                                  "target_size": len(Y)})
    quotient = G.product_set(G.inverse_set(A), A)
    H = G.generated_subgroup(quotient)
    GY = action.set_stabilizer(Y)
    holds = H.members <= GY.members
    orbits: list[frozenset[int]] = []
    seen: set[int] = set()
    for y in Y:
        if y in seen:
            continue
        orb = action.act_set(H.member_tuple, (y,))
        orbits.append(orb)
        seen |= orb
    outside = sorted(H.members - GY.members)
    return CheckReport(
        statement_id="murphy", hypotheses_hold=True, conclusion_holds=holds,
        witnesses={"generated_subgroup": H, "set_stabilizer": GY,
                   "orbits": tuple(orbits)},
        counterexample=None if holds else {"element": outside[0]},
        exhaustiveness=_EXHAUSTIVE,
        details={"quotient_set_size": len(quotient),
                 "subgroup_order": H.order, "orbit_count": len(orbits)})


def _murphy_linear(rep: Representation, A, W: Subspace) -> CheckReport:
    G = rep.group
    A = _group_subset(G, A)
    span = rep.module_span(A, W)
    if span.dim != W.dim:
        return _failed("murphy", {"span_dim": span.dim, "target_dim": W.dim})
    quotient = G.product_set(G.inverse_set(A), A)
    H = G.generated_subgroup(quotient)
    GW = rep.subspace_stabilizer(W)
    holds = H.members <= GW.members
    outside = sorted(H.members - GW.members)
    return CheckReport(
        statement_id="murphy", hypotheses_hold=True, conclusion_holds=holds,
        witnesses={"generated_subgroup": H, "subspace_stabilizer": GW,
                   "module_span": span},
        counterexample=None if holds else {"element": outside[0]},
        exhaustiveness=_EXHAUSTIVE,
        details={"quotient_set_size": len(quotient),
                 "subgroup_order": H.order})


# -- small growth -> symmetry sets ---------------------------------------------


def check_small_growth(obj: GroupAction | Representation, A, Y, alpha
                       ) -> CheckReport:
    """|A.Y| <= (2 - alpha)|Y| forces A^-1 A inside Sym_alpha(Y)."""
    alpha = _unit_range(exact_fraction(alpha))
    if isinstance(obj, Representation):
        return _small_growth_linear(obj, A, Y, alpha)
    action = obj
    G = action.group
    A = _group_subset(G, A)
    Y = _point_subset(action, Y)
    AY = action.act_set(A, Y)
    if Fraction(len(AY)) > (2 - alpha) * len(Y):
        return _failed("small_growth",
                       {"product_size": len(AY), "target_size": len(Y),
                        "bound": (2 - alpha) * len(Y)})
    quotient = G.product_set(G.inverse_set(A), A)
    sym = action.symmetry_set(Y, alpha)
    outside = sorted(quotient - sym)
    holds = not outside
    return CheckReport(
        statement_id="small_growth", hypotheses_hold=True,
        conclusion_holds=holds,
        witnesses={"quotient_set": quotient, "symmetry_set": sym},
        counterexample=None if holds else {
            "element": outside[0],
            "overlap": len(action.act_point_set(outside[0], Y)
                           & frozenset(Y))},
        exhaustiveness=_EXHAUSTIVE,
        details={"product_size": len(AY),
                 "bound": (2 - alpha) * len(Y)})


def _small_growth_linear(rep: Representation, A, W: Subspace,
                         alpha: Fraction) -> CheckReport:
    G = rep.group
    A = _group_subset(G, A)
    span = rep.module_span(A, W)
    if Fraction(span.dim) > (2 - alpha) * W.dim:
        return _failed("small_growth",
                       {"span_dim": span.dim, "target_dim": W.dim,
                        "bound": (2 - alpha) * W.dim})
    quotient = G.product_set(G.inverse_set(A), A)
    sym = rep.symmetry_set(W, alpha)
    outside = sorted(quotient - sym)
    holds = not outside
    return CheckReport(
        statement_id="small_growth", hypotheses_hold=True,
        conclusion_holds=holds,
        witnesses={"quotient_set": quotient, "symmetry_set": sym},
        counterexample=None if holds else {"element": outside[0]},
        exhaustiveness=_EXHAUSTIVE,
        details={"span_dim": span.dim, "bound": (2 - alpha) * W.dim})


# -- freiman 3/2 ----------------------------------------------------------------


def check_freiman(obj: GroupAction | Representation, A, Y, alpha
                  ) -> CheckReport:
    """|A^-1.Y| <= ((3 - alpha)/2)|Y| puts AA^-1 and (AA^-1)^2 in Sym_alpha(Y).

    When Sym_alpha(Y) lands inside AA^-1 the corollary upgrade applies and
    AA^-1 must be a subgroup. On left translation the weak stabilizer of A
    must equal AA^-1, and |A^-1 A| < (3/2)|A| again forces a subgroup.
    """
    alpha = _unit_range(exact_fraction(alpha))
    if isinstance(obj, Representation):
        return _freiman_linear(obj, A, Y, alpha)
    action = obj
    G = action.group
    A = _group_subset(G, A)
    Y = _point_subset(action, Y)
    Ainv = G.inverse_set(A)
    AinvY = action.act_set(Ainv, Y)
    if Fraction(len(AinvY)) > (3 - alpha) / 2 * len(Y):
        return _failed("freiman",
                       {"inverse_product_size": len(AinvY),
                        "target_size": len(Y),
                        "bound": (3 - alpha) / 2 * len(Y)})
    Q = G.product_set(A, Ainv)
    Q2 = G.product_set(Q, Q)
    sym = action.symmetry_set(Y, alpha)
    inc_square = Q2 <= sym
    inc_single = Q <= sym
    checks = {"square_in_symmetry": inc_square,
              "quotient_in_symmetry": inc_single}
    corollary_applies = sym <= Q
    if corollary_applies:
        checks["corollary_subgroup"] = G.generated_set(Q) == Q
    remark_applies = is_left_translation(action)
    if remark_applies:
        gamma = action.weak_stabilizer(A)
        checks["weak_stabilizer_equals_quotient"] = gamma == Q
        AinvA = G.product_set(Ainv, A)
        if 2 * len(AinvA) < 3 * len(A):
            checks["remark_subgroup"] = G.generated_set(Q) == Q
    holds = all(checks.values())
    bad = sorted(k for k, v in checks.items() if not v)
    return CheckReport(
        statement_id="freiman", hypotheses_hold=True, conclusion_holds=holds,
        witnesses={"quotient_set": Q, "quotient_square": Q2,
                   "symmetry_set": sym},
        counterexample=None if holds else {"failed_checks": bad},
        exhaustiveness=_EXHAUSTIVE,
        details={"inverse_product_size": len(AinvY),
                 "bound": (3 - alpha) / 2 * len(Y),
                 "corollary_applies": corollary_applies,
                 "remark_applies": remark_applies, "checks": checks})


def _freiman_linear(rep: Representation, A, W: Subspace, alpha: Fraction
                    ) -> CheckReport:
    G = rep.group
    A = _group_subset(G, A)
    Ainv = G.inverse_set(A)
    span = rep.module_span(Ainv, W)
    if Fraction(span.dim) > (3 - alpha) / 2 * W.dim:
        return _failed("freiman", {"span_dim": span.dim,
                                   "target_dim": W.dim,
                                   "bound": (3 - alpha) / 2 * W.dim})
    Q = G.product_set(A, Ainv)
    Q2 = G.product_set(Q, Q)
    sym = rep.symmetry_set(W, alpha)
    checks = {"square_in_symmetry": Q2 <= sym,
              "quotient_in_symmetry": Q <= sym}
    holds = all(checks.values())
    bad = sorted(k for k, v in checks.items() if not v)
    return CheckReport(
        statement_id="freiman", hypotheses_hold=True, conclusion_holds=holds,
        witnesses={"quotient_set": Q, "quotient_square": Q2,
                   "symmetry_set": sym},
        counterexample=None if holds else {"failed_checks": bad},
        exhaustiveness=_EXHAUSTIVE,
        details={"span_dim": span.dim, "checks": checks})


# -- ruzsa triple ----------------------------------------------------------------


def check_ruzsa_triple(action: GroupAction, A, B, Y) -> CheckReport:
    """|AB.Y|^2 <= |AB| |B.Y| max_b |Ab.Y|; with |A.Y| instead of the max
    when every element of A commutes with every element of B."""
    G = action.group
    A = _group_subset(G, A, "A")
    B = _group_subset(G, B, "B")
    Y = _point_subset(action, Y)
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
    holds = all(checks.values())
    bad = sorted(k for k, v in checks.items() if not v)
    return CheckReport(
        statement_id="ruzsa", hypotheses_hold=True, conclusion_holds=holds,
        witnesses={"product_actors": AB, "product_set": ABY,
                   "b_images": per_b},
        counterexample=None if holds else {"failed_checks": bad},
        exhaustiveness=_EXHAUSTIVE,
        details={"lhs": len(ABY) ** 2,
                 "rhs": len(AB) * len(BY) * worst,
                 "max_single_image": worst, "commuting": commuting,
                 "actor_image_size": AY_size})


# -- hamidoune -------------------------------------------------------------------


def check_hamidoune(obj: GroupAction | Representation, Y, lam, A0=None,
                    *, samples: int | None = None, seed: int | None = None
                    ) -> CheckReport:
    """For lam in [0, mu] there is a subgroup H containing the stabilizer of Y
    with c_Y(A) >= c_Y(H) >= |Y| - lam|H| for every nonempty A."""
    _check_samples(samples)
    if isinstance(obj, Representation):
        if A0 is not None:
            raise DomainError("A0 is not supported on representations: the "
                              "corollary is stated for actions only")
        return _hamidoune_linear(obj, Y, lam)
    return _hamidoune_set(obj, Y, lam, A0, samples=samples, seed=seed)


def _hamidoune_set(action: GroupAction, Y, lam, A0, *, samples, seed
                   ) -> CheckReport:
    """Up to MAX_EXHAUSTIVE_GROUND elements one minimisation gives H and
    the minimum growth. Above it H is the least-order subgroup of minimal
    growth containing G_Y, and the check tries every subgroup (while the
    lattice is within MAX_SUBGROUP_ENUM_ORDER), then the `_sampled_sets`
    stream; the subgroups' growths come from one `_union_sizes` call and
    the sampled sets are compared a chunk at a time."""
    G = action.group
    lam = exact_fraction(lam)
    Y = _point_subset(action, Y)
    mu = min_image_ratio(action, Y).mu
    if not 0 <= lam <= mu:
        raise DomainError(
            f"lambda must lie in [0, mu] = [0, {format_fraction(mu)}]; "
            f"got {format_fraction(lam)}")
    GY = action.set_stabilizer(Y)

    def growth(members: Iterable[int]) -> Fraction:
        members = tuple(members)
        return action.image_size(members, Y) - lam * len(members)

    n = G.order
    exhaustive_ok = (n <= min(config.cap("MAX_EXHAUSTIVE_GROUND"), MAX_N)
                     and action.domain_size <= _MASK_LIMIT)
    if exhaustive_ok:
        # one minimisation gives the identity atom, the minimum growth and
        # its first fragment
        f = actor_growth(action, Y, lam)
        res = minimize_nonempty(f, fragment_cap=1)
    else:
        image_sizes = _union_sizes(
            [_mask_of(row) for row in action.table[:, list(Y)].tolist()])
        scan = n <= config.cap("MAX_SUBGROUP_ENUM_ORDER")
        if scan or lam != 0:
            # every subgroup's growth, from one batched call
            subs = G.subgroups()
            sub_growth = [int(size) - lam * sub.order for sub, size in zip(
                subs, image_sizes([_mask_of(s.members) for s in subs]))]
    if lam == 0:
        H = GY
    elif exhaustive_ok:
        H = identity_atom(f, G, res)
    else:
        # the identity atom is the least-order subgroup containing G_Y
        # among those of minimal growth, so subgroup enumeration is exact
        _key, i = min(((c, sub.order), i) for i, (sub, c)
                      in enumerate(zip(subs, sub_growth))
                      if GY.members <= sub.members)
        H = subs[i]

    cH = growth(H.member_tuple)
    checks = {"stabilizer_in_subgroup": GY.members <= H.members,
              "floor_bound": cH >= len(Y) - lam * H.order}
    counterexample = None

    if exhaustive_ok:
        checks["minimum_at_subgroup"] = res.min_value >= cH
        if not checks["minimum_at_subgroup"]:
            counterexample = {"A": res.fragments[0],
                              "growth": res.min_value, "subgroup_growth": cH}
        exh = _EXHAUSTIVE
    else:
        chunks, exh = _sampled_sets(n, samples, seed)
        below = next((sub for sub, c in zip(subs, sub_growth) if c < cH),
                     None) if scan else None
        if below is not None:
            counterexample = {"A": frozenset(below.members),
                              "growth": growth(below.member_tuple),
                              "subgroup_growth": cH}
        else:
            # growth(A) < cH as (|A.Y| q_lam - p_lam |A|) q_H < p_H q_lam
            p_lam, q_lam = lam.numerator, lam.denominator
            p_H, q_H = cH.numerator, cH.denominator
            bound = max((action.domain_size * q_lam + p_lam * n) * q_H,
                        abs(p_H) * q_lam)

            def violates(chunk: list[int]) -> np.ndarray:
                sizes, cards = _exact(bound, image_sizes(chunk), np.fromiter(
                    (m.bit_count() for m in chunk), np.int64, len(chunk)))
                return (sizes * q_lam - p_lam * cards) * q_H < p_H * q_lam
            first = _first_violation(chunks, violates)
            if first is not None:
                A = _set_of(first)
                counterexample = {"A": A, "growth": growth(A),
                                  "subgroup_growth": cH}
        checks["minimum_at_subgroup"] = counterexample is None

    details: dict = {"mu": mu, "lambda": lam, "subgroup_growth": cH,
                     "subgroup_order": H.order}
    if A0 is not None and lam > 0:
        A0 = _group_subset(G, A0, "A0")
        A0Y = action.act_set(A0, Y)
        M = frozenset(g for g in range(n)
                      if action.act_point_set(g, Y) <= A0Y)
        checks["corollary_bound"] = \
            lam * len(M) + len(Y) <= lam * H.order + len(A0Y)
        details["saturated_actor_size"] = len(M)
        details["corollary_product_size"] = len(A0Y)
    elif A0 is not None:
        details["corollary_skipped"] = "corollary requires lambda > 0"

    holds = all(checks.values())
    details["checks"] = checks
    return CheckReport(
        statement_id="hamidoune", hypotheses_hold=True,
        conclusion_holds=holds,
        witnesses={"subgroup": H, "set_stabilizer": GY},
        counterexample=counterexample if not holds else None,
        exhaustiveness=exh, details=details)


def _module_spans(rep: Representation, elements: Sequence[int],
                  W: Subspace, hint: str) -> list[Subspace]:
    """<C.W> for every mask C over `elements`, by doubling on the lowest
    bit; at most LINEAR_EXHAUSTIVE_MAX_ORDER (and MAX_N) elements."""
    _check_ground("LINEAR_EXHAUSTIVE_MAX_ORDER", len(elements), hint)
    images = [rep.act_subspace(g, W) for g in elements]
    return list(_doubling(images, Subspace.zero(rep.p, W.ambient_dim),
                          Subspace.sum))


def _hamidoune_linear(rep: Representation, W: Subspace, lam) -> CheckReport:
    """mu, the minimum growth and H all come from one span-dimension fold."""
    G = rep.group
    lam = exact_fraction(lam)
    fold = SubsetFold.from_sizes([s.dim for s in _module_spans(
        rep, range(G.order), W, "linear variant enumerates all actor sets")])
    mu = Fraction(*fold.min_ratio()[:2])
    if not 0 <= lam <= mu:
        raise DomainError(
            f"lambda must lie in [0, mu] = [0, {format_fraction(mu)}]; "
            f"got {format_fraction(lam)}")
    if not _fits_kernel(lam):
        raise DomainError(
            f"lambda {format_fraction(lam)} is too wide for the int64 "
            f"kernel: numerator and denominator must be below {MAX_COEFF}")
    GW = rep.subspace_stabilizer(W)
    res = _fold_minimum(fold, lam, 0, f"actor_growth_linear[{rep.name}]")
    H = identity_atom(None, G, res) if lam else GW
    cH = fold.union_pop(_mask_of(H.members)) - lam * H.order
    checks = {"stabilizer_in_subgroup": GW.members <= H.members,
              "floor_bound": cH >= W.dim - lam * H.order,
              "minimum_at_subgroup": res.min_value >= cH}
    holds = all(checks.values())
    return CheckReport(
        statement_id="hamidoune", hypotheses_hold=True,
        conclusion_holds=holds,
        witnesses={"subgroup": H, "subspace_stabilizer": GW},
        counterexample=None if holds else {"checks": checks},
        exhaustiveness=_EXHAUSTIVE,
        details={"mu": mu, "lambda": lam, "subgroup_growth": cH,
                 "checks": checks})


# -- petridis --------------------------------------------------------------------


def find_petridis_witness(obj: GroupAction | Representation, A, Y, alpha,
                          *, samples: int | None = None,
                          seed: int | None = None) -> CheckReport:
    """|A.Y| <= alpha|A| yields B inside A with |CB.Y| <= alpha|CB| for all C.

    B minimises |C.Y|/|C| over nonempty C inside A (ties: smallest
    cardinality, then lexicographic).
    """
    _check_samples(samples)
    alpha = exact_fraction(alpha)
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    if isinstance(obj, Representation):
        return _petridis_linear(obj, A, Y, alpha, samples=samples, seed=seed)
    action = obj
    G = action.group
    A = _group_subset(G, A)
    Y = _point_subset(action, Y)
    AY = action.act_set(A, Y)
    if Fraction(len(AY)) > alpha * len(A):
        return _failed("petridis", {"product_size": len(AY),
                                    "actor_size": len(A),
                                    "bound": alpha * len(A)})
    _check_ground("MAX_EXHAUSTIVE_GROUND", len(A),
                  "witness search enumerates subsets of A", action.domain_size)
    y = list(Y)
    masks = [_mask_of(action.table[a][y].tolist()) for a in A]
    p, q, wmask = SubsetFold(masks).min_ratio()
    B = tuple(A[i] for i in range(len(A)) if (wmask >> i) & 1)
    ratio = Fraction(p, q)
    BY = action.act_set(B, Y)
    counterexample, exh = _forall_actor_sets(
        [_mask_of(row) for row in action.table[:, sorted(BY)].tolist()],
        [_mask_of(G.translate_set(c, B)) for c in range(G.order)],
        alpha, samples, seed)

    holds = counterexample is None and ratio <= alpha
    return CheckReport(
        statement_id="petridis", hypotheses_hold=True,
        conclusion_holds=holds,
        witnesses={"B": frozenset(B), "witness_product": BY},
        counterexample=counterexample,
        exhaustiveness=exh,
        details={"witness_ratio": ratio, "alpha": alpha,
                 "witness_size": len(B)})


def _petridis_linear(rep: Representation, A, W: Subspace, alpha: Fraction,
                     *, samples: int | None, seed: int | None
                     ) -> CheckReport:
    G = rep.group
    A = _group_subset(G, A)
    span = rep.module_span(A, W)
    if Fraction(span.dim) > alpha * len(A):
        return _failed("petridis", {"span_dim": span.dim,
                                    "actor_size": len(A),
                                    "bound": alpha * len(A)})
    spans = _module_spans(rep, A, W, "witness search enumerates subsets of A")
    p, q, wmask = SubsetFold.from_sizes([s.dim for s in spans]).min_ratio()
    B = tuple(a for i, a in enumerate(A) if (wmask >> i) & 1)
    ratio = Fraction(p, q)
    counterexample, exh = _forall_actor_sets(
        [rep.act_subspace(c, spans[wmask]) for c in range(G.order)],
        [_mask_of(G.translate_set(c, B)) for c in range(G.order)],
        alpha, samples, seed)

    holds = counterexample is None and ratio <= alpha
    return CheckReport(
        statement_id="petridis", hypotheses_hold=True,
        conclusion_holds=holds,
        witnesses={"B": frozenset(B), "witness_span": spans[wmask]},
        counterexample=counterexample,
        exhaustiveness=exh,
        details={"witness_ratio": ratio, "alpha": alpha,
                 "witness_size": len(B)})


# -- tao small doubling ------------------------------------------------------------


def check_tao_small_doubling(action: GroupAction, A, Y, eps) -> CheckReport:
    """|A| >= |Y| and |A.Y| <= (2 - eps) mu |Y| bound the subgroup H at
    lam = mu(1 - eps/2): |H| <= (2/eps - 1)|Y|, |H.Y| <= mu (2/eps - 1)|Y|,
    Y inside H.Y, and H.Y a union of H-orbits."""
    G = action.group
    eps = exact_fraction(eps)
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    A = _group_subset(G, A)
    Y = _point_subset(action, Y)
    mu = min_image_ratio(action, Y).mu
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
    H = identity_atom(actor_growth(action, Y, lam), G)
    HY = action.act_set(H.member_tuple, Y)
    budget = (Fraction(2) / eps - 1) * len(Y)
    checks = {
        "target_inside": frozenset(Y) <= HY,
        "subgroup_size": Fraction(H.order) <= budget,
        "image_size": Fraction(len(HY)) <= mu * budget,
        "orbit_union": action.act_set(H.member_tuple, HY) == HY,
    }
    holds = all(checks.values())
    bad = sorted(k for k, v in checks.items() if not v)
    return CheckReport(
        statement_id="tao_doubling", hypotheses_hold=True,
        conclusion_holds=holds,
        witnesses={"subgroup": H, "subgroup_image": HY},
        counterexample=None if holds else {"failed_checks": bad},
        exhaustiveness=_EXHAUSTIVE,
        details={"mu": mu, "lambda": lam, "size_budget": budget,
                 "checks": checks})


# -- taod (Abelian transfer to the target side) --------------------------------------


def find_taod_witness(obj: GroupAction | Representation, A, Y, alpha,
                      *, n_max: int = 5, samples: int | None = None,
                      seed: int | None = None) -> CheckReport:
    """Abelian G, |A.Y| <= alpha|Y|: some nonempty Z inside Y has
    |AC.Z| <= alpha|C.Z| for all C and |A^n.Z| <= alpha^n |Z|."""
    _check_samples(samples)
    alpha = exact_fraction(alpha)
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    if isinstance(obj, Representation):
        return _taod_linear(obj, A, Y, alpha, n_max, samples=samples,
                            seed=seed)
    action = obj
    G = action.group
    if not G.is_abelian():
        raise DomainError(
            "G must be Abelian: the target growth d_A is only "
            "G-invariant when actors commute")
    A = _group_subset(G, A)
    Y = _point_subset(action, Y)
    AY = action.act_set(A, Y)
    if Fraction(len(AY)) > alpha * len(Y):
        return _failed("taod", {"product_size": len(AY),
                                "target_size": len(Y),
                                "bound": alpha * len(Y)})
    _check_ground("MAX_EXHAUSTIVE_GROUND", len(Y),
                  "witness search enumerates subsets of Y", action.domain_size)
    masks = [_mask_of(action.act_set(A, (pt,))) for pt in Y]
    p, q, wmask = SubsetFold(masks).min_ratio()
    Z = tuple(Y[i] for i in range(len(Y)) if (wmask >> i) & 1)
    ratio = Fraction(p, q)
    CZ = action.table[:, list(Z)].tolist()
    counterexample, exh = _forall_actor_sets(
        [_mask_of(action.act_set(A, cz)) for cz in CZ],
        [_mask_of(cz) for cz in CZ], alpha, samples, seed)

    powers = {}
    for k in range(1, n_max + 1):
        Ak = G.product_power(A, k)
        powers[k] = Fraction(action.image_size(Ak, Z)) <= alpha ** k * len(Z)
    holds = counterexample is None and all(powers.values())
    if holds is False and counterexample is None:
        counterexample = {"failed_powers":
                          sorted(k for k, v in powers.items() if not v)}
    return CheckReport(
        statement_id="taod", hypotheses_hold=True, conclusion_holds=holds,
        witnesses={"Z": frozenset(Z)},
        counterexample=counterexample,
        exhaustiveness=exh,
        details={"witness_ratio": ratio, "alpha": alpha,
                 "power_checks": powers})


def _taod_linear(rep: Representation, A, W: Subspace, alpha: Fraction,
                 n_max: int, *, samples: int | None, seed: int | None
                 ) -> CheckReport:
    G = rep.group
    if not G.is_abelian():
        raise DomainError(
            "G must be Abelian: the target growth d_A is only "
            "G-invariant when actors commute")
    A = _group_subset(G, A)
    span = rep.module_span(A, W)
    if Fraction(span.dim) > alpha * W.dim:
        return _failed("taod", {"span_dim": span.dim, "target_dim": W.dim,
                                "bound": alpha * W.dim})
    candidates = [S for S in enumerate_subspaces(rep.p, W.ambient_dim)
                  if not S.is_zero() and S <= W]
    # candidates arrive in canonical (dim, rows) order, so keeping the first
    # strict improvement realises the smallest-dim-then-lex tie rule
    best = None
    Z = None
    for S in candidates:
        r = Fraction(rep.module_span(A, S).dim, S.dim)
        if best is None or r < best:
            best, Z = r, S

    CZ = [rep.act_subspace(c, Z) for c in range(G.order)]
    counterexample, exh = _forall_actor_sets(
        [rep.module_span(A, cz) for cz in CZ], CZ, alpha, samples, seed)

    powers = {}
    for k in range(1, n_max + 1):
        Ak = G.product_power(A, k)
        powers[k] = Fraction(rep.module_span(Ak, Z).dim) \
            <= alpha ** k * Z.dim
    holds = counterexample is None and all(powers.values())
    if holds is False and counterexample is None:
        counterexample = {"failed_powers":
                          sorted(k for k, v in powers.items() if not v)}
    return CheckReport(
        statement_id="taod", hypotheses_hold=True, conclusion_holds=holds,
        witnesses={"Z": Z},
        counterexample=counterexample,
        exhaustiveness=exh,
        details={"witness_ratio": best, "alpha": alpha,
                 "power_checks": powers})


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
    A = _group_subset(G, A)
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
    holds = all(checks.values())
    bad = sorted(k for k, v in checks.items() if not v)
    return CheckReport(
        statement_id="fragment_bounds", hypotheses_hold=True,
        conclusion_holds=holds,
        witnesses={"atoms": tuple(res.atoms),
                   "fragments": tuple(res.fragments)},
        counterexample=None if holds else {
            "failed_checks": bad, "smallest_fragment": lo,
            "largest_fragment": hi},
        exhaustiveness=_EXHAUSTIVE,
        details={"part1_applies": part1, "part2_applies": part2,
                 "part2_threshold": threshold, "minimum": res.min_value,
                 "fragment_count": res.fragment_count,
                 "smallest_fragment": lo, "largest_fragment": hi})
