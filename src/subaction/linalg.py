"""Linear representations over small prime fields and the subspace lattice.

Subspaces are kept in canonical reduced row echelon form, so equality is
tuple equality. The lattice analogues of the set-side quantities replace
cardinality with dimension and union with span.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import config
from .actions import GroupAction
from .errors import DomainError, InvariantError, StructuralError
from .groups import FiniteGroup, Subgroup, _check_prime
from .rationals import exact_fraction, format_fraction
from .setfuncs import _EXHAUSTIVE, PropertyReport, SetFunction


def _check_field(p: int, dim: int) -> None:
    """Refuse F_p for dim x dim matrices unless p is prime and an entry of
    a product of two such matrices, a sum of dim terms below p^2, fits in
    int64. The size comes first, so a huge p costs no trial division."""
    if p > 1 and dim * (p - 1) ** 2 >= 1 << 63:
        raise DomainError(
            f"p = {p} is too large for dimension {dim}: matrix products over "
            f"F_p are exact in int64 only while dim*(p-1)^2 < 2^63")
    _check_prime(p)


def _rref(p: int, rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical reduced row echelon form over F_p, zero rows dropped."""
    mat = [list(int(x) % p for x in r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise StructuralError("ragged matrix")
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] % p != 0:
                sel = r
                break
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        inv = pow(mat[pivot_row][col], p - 2, p) if p > 2 else mat[pivot_row][col]
        mat[pivot_row] = [(x * inv) % p for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] % p != 0:
                c = mat[r][col]
                mat[r] = [(a - c * b) % p for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    out = [tuple(r) for r in mat[:pivot_row] if any(r)]
    return tuple(out)


@dataclass(frozen=True)
class Subspace:
    p: int
    ambient_dim: int
    rows: tuple[tuple[int, ...], ...]  # canonical RREF basis

    @staticmethod
    def from_vectors(p: int, ambient_dim: int, vectors: Iterable[Sequence[int]]
                     ) -> "Subspace":
        _check_prime(p)
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise StructuralError(
                    f"vector length {len(v)} != ambient dim {ambient_dim}")
        return Subspace(p, ambient_dim, _rref(p, vecs))

    @staticmethod
    def zero(p: int, ambient_dim: int) -> "Subspace":
        _check_prime(p)
        return Subspace(p, ambient_dim, ())

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def contains(self, vector: Sequence[int]) -> bool:
        v = [int(x) % self.p for x in vector]
        for row in self.rows:
            lead = next(i for i, x in enumerate(row) if x)
            if v[lead]:
                c = v[lead]
                v = [(a - c * b) % self.p for a, b in zip(v, row)]
        return not any(v)

    def __le__(self, other: "Subspace") -> bool:
        self._match(other)
        return all(other.contains(r) for r in self.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._match(other)
        return Subspace(self.p, self.ambient_dim,
                        _rref(self.p, [list(r) for r in self.rows + other.rows]))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: row reduce [[B1 B1],[B2 0]]; zero-left rows carry it."""
        self._match(other)
        d = self.ambient_dim
        block = [list(r) + list(r) for r in self.rows]
        block += [list(r) + [0] * d for r in other.rows]
        red = _rref(self.p, block)
        inter = [list(r[d:]) for r in red if not any(r[:d])]
        return Subspace(self.p, d, _rref(self.p, inter))

    def vectors(self) -> list[tuple[int, ...]]:
        """All p^dim vectors; small subspaces only."""
        out = []
        for coeffs in itertools.product(range(self.p), repeat=self.dim):
            v = [0] * self.ambient_dim
            for c, row in zip(coeffs, self.rows):
                v = [(a + c * b) % self.p for a, b in zip(v, row)]
            out.append(tuple(v))
        return out

    def sort_key(self) -> tuple:
        return (self.dim, self.rows)

    def _match(self, other: "Subspace") -> None:
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise StructuralError("subspaces live in different spaces")

    def __repr__(self) -> str:
        return f"Subspace(F{self.p}^{self.ambient_dim}, dim={self.dim}, rows={self.rows})"


_SPAN_BLOCK = 1 << 20  # echelon-stack entries per block of span_dims


def basis_table(spaces: Sequence[Subspace]) -> np.ndarray:
    """The n x k x d int64 table of the subspaces' RREF bases, k the
    largest dimension, each basis padded with zero rows."""
    k = max((W.dim for W in spaces), default=0)
    table = np.zeros((len(spaces), k, spaces[0].ambient_dim), dtype=np.int64)
    for basis, W in zip(table, spaces):
        if W.rows:
            basis[:W.dim] = W.rows
    return table


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in [0, p), for an int64 array, in place: numpy divides an
    array by a scalar several times faster than it takes the remainder."""
    x -= x // p * p
    return x


def _inverses(p: int, x: np.ndarray) -> np.ndarray:
    """x^(p-2) mod p for an int64 array of nonzero residues: the inverses,
    by square and multiply, every product below p^2."""
    out, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            out = _mod(out * x, p)
        x, e = _mod(x * x, p), e >> 1
    return out


def span_dims(p: int, bases: np.ndarray, rows: np.ndarray | None = None
              ) -> np.ndarray:
    """dim span(bases[c] for c in C) over F_p for each subset C of the
    table's n entries, in the least unsigned dtype that holds d.

    `bases` is an n x k x d array of residues (`basis_table`), zero rows
    spanning nothing. The subsets C are given as uint64 word rows
    (`_kernels.words`), or, when `rows` is None, are every subset in
    ascending mask order (n < 64), each block's rows made as it is reached.

    A block of subsets holds one pivot-indexed echelon stack per subset,
    d x B x d entries in all, at most max(_SPAN_BLOCK, d^2) of them (one
    subset per block when d^2 > _SPAN_BLOCK): stack[c, b] is subset b's
    row with pivot c, zero before it, its pivot 1. Each vector of each
    entry is inserted into the stacks of the subsets holding the entry,
    one column step at a time over those subsets together: where a
    subset has a pivot at c, the vector is reduced by it; where it has
    none and the vector is nonzero at c, the vector is normalised and
    becomes that pivot. A column that is zero for every subset is
    skipped, the steps stop once every vector is placed or the columns
    run out, and a subset whose stack is full takes no more vectors. A
    vector reduced to zero stays in the steps, found at no column, to the
    last one: dropping it costs more numpy calls per step than its column
    scans. A subset's dimension is its pivot count. All arithmetic is int64:
    residues stay below p, so every product is below p^2, which
    `_check_field` keeps below 2^63.
    """
    n, _k, d = bases.shape
    vectors = [(i, v, int(v.nonzero()[0][0]))
               for i in range(n) for v in bases[i] if v.any()]
    total = 1 << n if rows is None else len(rows)
    out = np.zeros(total, dtype=np.min_scalar_type(d))
    step = max(1, _SPAN_BLOCK // (d * d))
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        block = (np.arange(lo, hi, dtype=np.uint64)[:, None]
                 if rows is None else rows[lo:hi])
        stack = np.zeros((d, hi - lo, d), dtype=np.int64)
        rank = out[lo:hi]
        for i, v, lead in vectors:
            # the subsets of the block that hold entry i, less the full ones
            at = (block[:, i >> 6] >> np.uint64(i & 63) & np.uint64(1)
                  ).nonzero()[0]
            at = at[rank[at] < d]
            x = np.repeat(v[None], at.size, axis=0)
            for c in range(lead, d):
                if not at.size:
                    break
                col = x[:, c]
                live = col.nonzero()[0]
                if not live.size:
                    continue
                pivot = stack[c, at[live], c] != 0
                red = live[pivot]
                if red.size:
                    x[red, c:] = _mod(x[red, c:] - col[red, None]
                                      * stack[c, at[red], c:], p)
                new = live[~pivot]
                if new.size:
                    placed = at[new]
                    stack[c, placed, c:] = _mod(x[new, c:] * _inverses(
                        p, x[new, c])[:, None], p)
                    rank[placed] += 1
                    keep = np.ones(at.size, dtype=bool)
                    keep[new] = False
                    at, x = at[keep], x[keep]
        del stack  # before the next block's is made
    return out


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    assert num % den == 0
    return num // den


def subspace_count(p: int, d: int) -> int:
    return sum(gaussian_binomial(d, k, p) for k in range(d + 1))


def grassmannian(p: int, d: int, k: int) -> list[Subspace]:
    """All k-dimensional subspaces, enumerated through canonical RREF forms."""
    _check_prime(p)
    expected = gaussian_binomial(d, k, p)
    config.require("MAX_SUBSPACE_COUNT", expected)
    if k == 0:
        return [Subspace.zero(p, d)]
    out = []
    for pivots in itertools.combinations(range(d), k):
        free_pos = [(i, j) for i in range(k) for j in range(d)
                    if j > pivots[i] and j not in pivots]
        for fill in itertools.product(range(p), repeat=len(free_pos)):
            rows = [[0] * d for _ in range(k)]
            for i, c in enumerate(pivots):
                rows[i][c] = 1
            for (i, j), val in zip(free_pos, fill):
                rows[i][j] = val
            out.append(Subspace(p, d, tuple(tuple(r) for r in rows)))
    assert len(out) == expected
    out.sort(key=Subspace.sort_key)
    return out


def enumerate_subspaces(p: int, d: int) -> list[Subspace]:
    """Every subspace of F_p^d in (dim, basis) order, capped by total count."""
    expected = subspace_count(p, d)
    config.require("MAX_SUBSPACE_COUNT", expected)
    out: list[Subspace] = []
    for k in range(d + 1):
        out.extend(grassmannian(p, d, k))
    return out


class Representation:
    """A verified homomorphism from a finite group into GL_d(F_p).

    Construction checks the identity matrix, the rank of each generator
    matrix, and the homomorphism law for every generator against every
    element. Induction along the closure factorisation ``g = s * parent``
    gives the law for all pairs; then every matrix is a product of
    invertible generator matrices, so it is invertible too.
    """

    def __init__(self, group: FiniteGroup, p: int, matrices: np.ndarray,
                 *, name: str | None = None):
        _check_field(p, np.shape(matrices)[-1])
        matrices = np.ascontiguousarray(matrices, dtype=np.int64) % p
        if matrices.shape[0] != group.order or \
                matrices.shape[1] != matrices.shape[2]:
            raise StructuralError("need one square matrix per group element")
        self.group = group
        self.p = p
        self.dim = int(matrices.shape[1])
        self.mats = matrices
        self.name = name or f"rep<{group.name} in GL{self.dim}(F{p})>"
        self._verify()

    def _verify(self) -> None:
        d, p = self.dim, self.p
        if not np.array_equal(self.mats[0], np.eye(d, dtype=np.int64)):
            raise InvariantError("identity element must map to the identity matrix")
        gens = self.group.generator_indices
        for g in gens:
            if len(_rref(p, self.mats[g].tolist())) != d:
                raise InvariantError(f"matrix for element {g} is singular")
        for g in gens:
            row = self.group.mul_row(g)
            prods = np.matmul(self.mats[g], self.mats) % p
            if not np.array_equal(prods, self.mats[row]):
                raise InvariantError(f"homomorphism law fails at generator {g}")

    def act_subspace(self, g: int, W: Subspace) -> Subspace:
        self._match(W)
        if W.is_zero():
            return W
        rows = (np.asarray(W.rows, dtype=np.int64) @ self.mats[g].T) % self.p
        return Subspace(self.p, self.dim, _rref(self.p, rows.tolist()))

    def module_span(self, A: Iterable[int], W: Subspace) -> Subspace:
        """Span of all translates a.W for a in A."""
        self._match(W)
        a = sorted({int(x) for x in A})
        if not a:
            return Subspace.zero(self.p, self.dim)
        stacked: list[list[int]] = []
        for g in a:
            if not 0 <= g < self.group.order:
                raise DomainError("element index out of range")
            if not W.is_zero():
                rows = (np.asarray(W.rows, dtype=np.int64) @ self.mats[g].T) % self.p
                stacked.extend(rows.tolist())
        return Subspace(self.p, self.dim, _rref(self.p, stacked))

    def subspace_stabilizer(self, W: Subspace) -> Subgroup:
        members = frozenset(
            g for g in range(self.group.order)
            if self.act_subspace(g, W).rows == W.rows)
        return Subgroup(self.group, members, _verified=True)

    def symmetry_set(self, W: Subspace, alpha) -> frozenset[int]:
        """Elements g with dim(g.W meet W) >= alpha * dim W."""
        a = exact_fraction(alpha)
        if W.is_zero():
            raise DomainError("symmetry set needs a nonzero subspace")
        return frozenset(
            g for g in range(self.group.order)
            if self.act_subspace(g, W).intersect(W).dim * a.denominator
            >= a.numerator * W.dim)

    def _match(self, W: Subspace) -> None:
        if W.p != self.p or W.ambient_dim != self.dim:
            raise StructuralError("subspace does not match the representation")

    def __repr__(self) -> str:
        return f"Representation({self.name})"


def permutation_representation(action: GroupAction, p: int) -> Representation:
    """0/1 matrices permuting coordinates as the action permutes points."""
    n, d = action.group.order, action.domain_size
    _check_field(p, d)
    config.require("MAX_ACT_TABLE_ENTRIES", n * d * d)
    mats = np.zeros((n, d, d), dtype=np.int64)
    for g in range(n):
        mats[g, action.table[g], np.arange(d)] = 1
    return Representation(action.group, p, mats,
                          name=f"perm_rep<{action.name}, F{p}>")


def representation_from_generator_matrices(
        group: FiniteGroup, p: int, gen_mats: Sequence) -> Representation:
    """Extend matrices given for the group's generators along its closure."""
    gens = group.generator_indices
    if len(gen_mats) != len(gens):
        raise StructuralError(
            f"need {len(gens)} generator matrices, got {len(gen_mats)}")
    d = len(gen_mats[0])
    _check_field(p, d)
    config.require("MAX_ACT_TABLE_ENTRIES", group.order * d * d)
    mats = np.zeros((group.order, d, d), dtype=np.int64)
    mats[0] = np.eye(d, dtype=np.int64)
    by_gen = {gi: np.array([[int(x) % p for x in row] for row in m],
                           dtype=np.int64)
              for gi, m in zip(gens, gen_mats)}
    for g in range(1, group.order):
        s = group.generator_indices[group._gen_of[g]]
        f = int(group._parent_of[g])
        mats[g] = (by_gen[s] @ mats[f]) % p
    return Representation(group, p, mats)


# -- growth functions on the lattice side --------------------------------------


def actor_growth_linear(rep: Representation, W: Subspace, lam) -> SetFunction:
    """On subsets A of the group: dim(span of A.W) - lam*|A|."""
    lam = exact_fraction(lam)
    rep._match(W)
    if W.is_zero():
        raise DomainError("target subspace must be nonzero")
    cache: dict[int, int] = {}

    def fn(mask: int) -> Fraction:
        if mask not in cache:
            A = [b for b in range(rep.group.order) if (mask >> b) & 1]
            cache[mask] = rep.module_span(A, W).dim
        return Fraction(cache[mask]) - lam * mask.bit_count()

    label = (f"actor_growth_linear[{rep.name}, dimW={W.dim}, "
             f"lam={format_fraction(lam)}]")
    return SetFunction(rep.group.order, label, kind="generic", fn=fn)


@dataclass(frozen=True)
class LatticeMinimizationResult:
    label: str
    min_value: Fraction
    fragment_count: int
    fragments: list[Subspace]
    fragments_truncated: bool
    atoms: list[Subspace]
    atom_dim: int


class LatticeFunction:
    """dim(span A.Y) - lam*dim(Y) on the lattice of subspaces of F_p^d."""

    def __init__(self, rep: Representation, A: Iterable[int], lam):
        self.rep = rep
        self.actors = sorted({int(x) for x in A})
        if not self.actors:
            raise DomainError("actor set must be nonempty")
        self.lam = exact_fraction(lam)
        self.label = (f"target_growth_linear[{rep.name}, |A|={len(self.actors)}, "
                      f"lam={format_fraction(self.lam)}]")

    def value(self, W: Subspace) -> Fraction:
        return (Fraction(self.rep.module_span(self.actors, W).dim)
                - self.lam * W.dim)


def minimize_on_lattice(fn: LatticeFunction, *, fragment_cap: int | None = None
                        ) -> LatticeMinimizationResult:
    """Exact minimum over nonzero subspaces. Fragments are the minimisers in
    (dim, basis) order, listed up to the cap; atoms are those of the first
    one's dimension, the least."""
    cap = config.cap("FRAGMENT_LIST_CAP") if fragment_cap is None else fragment_cap
    subs = enumerate_subspaces(fn.rep.p, fn.rep.dim)[1:]
    values = [fn.value(W) for W in subs]
    best = min(values)
    hits = [W for W, v in zip(subs, values) if v == best]
    atom_dim = hits[0].dim
    return LatticeMinimizationResult(
        label=fn.label, min_value=best, fragment_count=len(hits),
        fragments=hits[:cap], fragments_truncated=len(hits) > cap,
        atoms=[W for W in hits if W.dim == atom_dim], atom_dim=atom_dim)


def check_lattice_submodular(fn: LatticeFunction) -> PropertyReport:
    """f(U meet V) + f(U join V) <= f(U) + f(V) over all subspace pairs."""
    subs = enumerate_subspaces(fn.rep.p, fn.rep.dim)
    values = {W.rows: fn.value(W) for W in subs}
    for U in subs:
        for V in subs:
            lhs = values[U.intersect(V).rows] + values[U.sum(V).rows]
            rhs = values[U.rows] + values[V.rows]
            if lhs > rhs:
                return PropertyReport(False, _EXHAUSTIVE, {
                    "U": U, "V": V, "lhs": lhs, "rhs": rhs})
    return PropertyReport(True, _EXHAUSTIVE)

