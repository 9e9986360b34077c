"""The lattice of closed subspaces of a low-dimensional complex space.

Subspaces are stored as orthonormal frames produced by a rank-revealing SVD;
singular values below ``RANK_TOL`` count as zero.  Equality is mutual
inclusion at ``INCLUSION_TOL``, never frame equality.  The meet comes from
the principal angles between the two subspaces (Björck & Golub, Math. Comp.
27, 1973): the singular values of the residual of a's frame against b are the
sines of those angles, and the directions of a whose sine is at most
``RANK_TOL`` span a ∧ b.  Every frame is built in the package (an SVD or QR
factor, or a frame times orthonormal vectors), so it is orthonormal to
rounding; ``Subspace(frame)`` stores it unchecked, and ``from_vectors`` is the
checked entry for outside vectors.

A pair with a zero or full side is settled by its ranks (the meet with zero
is zero, the join with full is full, and so on), and an inclusion also when
dim a > dim b; only the other pairs are factorized or projected.  The ranks
give what the numerics would: against zero a unit vector leaves a residual of
1; k orthonormal vectors leave squared residuals against a subspace of lower
dimension summing to at least 1, so one is at least 1/√k ≥ 1/√``MAX_DIM``, far
above ``INCLUSION_TOL``; a full frame spans the space, and the sines it leaves
are only its Gram error, which is rounding-level, far below ``RANK_TOL``.

The laws also come in stacked forms (``absorption_holds_stacked`` and the
rest) that check many pairs at once.  They run the same constructions on
padded frames, (n, d, d) stacks that hold each frame in its first columns and
zeros after, with each item's dimension kept as a count; one stacked SVD
serves every pair of a row block.  The per-pair functions are their oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, InvariantViolationError, PreconditionError
from .hilbert import MAX_DIM, _frozen, unit_vectors

RANK_TOL = 1e-10       # singular values below this count as zero
INCLUSION_TOL = 1e-9   # residual norm allowed when testing containment
# pairs and triples check_lattice_axioms checks at most; above it, a seeded draw
TUPLE_LIMIT = 4000

# Complex entries in one row block of a stacked computation: each temporary
# of a block stays near 128 kB for any sample size, so the stacks add nothing
# measurable to peak memory.
_BLOCK_ENTRIES = 2 ** 13


def _orthonormal_frame(columns: np.ndarray) -> np.ndarray:
    """Rank-revealing orthonormalization of a (dim, k) column stack, k >= 1."""
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    rank = np.count_nonzero(s > RANK_TOL)
    return np.ascontiguousarray(u[:, :rank])


class Subspace:
    """A closed linear subspace, held as an orthonormal frame of column vectors.

    The constructor stores a fresh complex frame built orthonormal in the
    package, made read-only; ``from_vectors`` checks outside vectors.  The
    zero subspace has an empty frame of shape (ambient_dim, 0).
    """

    __slots__ = ("frame",)

    def __init__(self, frame: np.ndarray) -> None:
        self.frame = _frozen(frame)

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> Subspace:
        """Span of arbitrary (possibly dependent, unnormalized) vectors; rank is
        decided on their unit directions, and a non-finite entry is refused."""
        try:  # a (k, d) array converts at once, other input is diagnosed vector by vector
            rows = np.asarray(vectors, dtype=complex)
        except (TypeError, ValueError):  # ragged, or not numbers
            rows = np.empty(0)
        if rows.ndim != 2 or rows.shape[1] != ambient_dim:
            vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
            for v in vecs:
                if v.size != ambient_dim:
                    raise DimensionMismatchError(
                        f"vector of length {v.size} in ambient dimension {ambient_dim}"
                    )
            rows = np.array(vecs)
        if ambient_dim < 1 or ambient_dim > MAX_DIM:
            raise InvariantViolationError(f"ambient dimension {ambient_dim} outside [1, {MAX_DIM}]")
        if not rows.size:
            return cls(np.zeros((ambient_dim, 0), dtype=complex))
        columns = np.ascontiguousarray(rows.T)  # the C-ordered columns np.column_stack builds
        if not np.isfinite(columns).all():
            raise InvariantViolationError("vector has a non-finite entry")
        return cls(_orthonormal_frame(unit_vectors(columns, axis=0)[0]))

    @classmethod
    def ray(cls, vector) -> Subspace:
        v = np.asarray(vector, dtype=complex).reshape(-1)
        return cls.from_vectors(v.size, [v])

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of C^{self.ambient_dim})"


def _require_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimension mismatch: {a.ambient_dim} vs {b.ambient_dim}"
        )


def _residual(frame: np.ndarray, onto: np.ndarray) -> np.ndarray:
    """The columns of ``frame`` minus their projections onto the span of
    ``onto``; on (n, d, k) stacks, item by item."""
    return frame - onto @ (onto.conj().swapaxes(-1, -2) @ frame)


def _residual_norms(frame: np.ndarray, onto: np.ndarray) -> np.ndarray:
    """The norm of each column of ``_residual(frame, onto)``, formed with the
    operations ``np.linalg.norm`` uses on one axis, without its dispatch."""
    residual = _residual(frame, onto)
    return np.sqrt(np.add.reduce((residual.conj() * residual).real, axis=-2))


def join(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both: b when a is zero or b full, a when
    b is zero or a full, and otherwise the span of the concatenated frames."""
    _require_same_ambient(a, b)
    if a.dim == 0 or b.dim == b.ambient_dim:
        return b
    if b.dim == 0 or a.dim == a.ambient_dim:
        return a
    return Subspace(_orthonormal_frame(np.concatenate([a.frame, b.frame], axis=1)))


def orthocomplement(a: Subspace) -> Subspace:
    """All vectors orthogonal to ``a``; dimensions are complementary.  The
    complement of zero is spanned by the standard basis and that of full by
    none of it; otherwise a stored frame is orthonormal, so its rank is its
    dimension."""
    d = a.ambient_dim
    if a.dim in (0, d):
        return Subspace(np.eye(d, dtype=complex)[:, a.dim:])
    u = np.linalg.svd(a.frame, full_matrices=True)[0]
    return Subspace(np.ascontiguousarray(u[:, a.dim:]))


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection: b when b is zero or a full, a when a is zero or b full,
    and otherwise the directions of ``a`` whose distance from ``b`` is at most
    ``RANK_TOL``.

    The singular values of the residual of a's frame against b are the sines
    of the principal angles between a and b, and the matching right singular
    vectors, taken in a's frame, are the principal directions of a.  The
    decision is made on the sines: a test of the cosines against 1 would need
    1 − cos θ ≈ θ²/2 to resolve ``RANK_TOL``, which is below machine epsilon.
    """
    _require_same_ambient(a, b)
    if b.dim == 0 or a.dim == a.ambient_dim:
        return b
    if a.dim == 0 or b.dim == b.ambient_dim:
        return a
    _, sines, vh = np.linalg.svd(_residual(a.frame, b.frame), full_matrices=False)
    return Subspace(a.frame @ vh[sines <= RANK_TOL].conj().T)


def includes(a: Subspace, b: Subspace) -> bool:
    """Is ``a`` contained in ``b``?  True iff each frame vector of ``a``
    projects onto ``b`` with residual norm at most ``INCLUSION_TOL``; true
    by rank when a is zero or b full, false when dim a > dim b."""
    _require_same_ambient(a, b)
    if a.dim == 0 or b.dim == b.ambient_dim:
        return True
    if a.dim > b.dim:
        return False
    return float(_residual_norms(a.frame, b.frame).max()) <= INCLUSION_TOL


def subspace_equal(a: Subspace, b: Subspace) -> bool:
    """Mutual inclusion, which needs equal dimensions."""
    _require_same_ambient(a, b)
    return a.dim == b.dim and includes(a, b) and includes(b, a)


def _padded_frames(subspaces) -> np.ndarray:
    """(n, d, d) stack holding each frame in its first columns and zeros after,
    so a zero column adds nothing to a residual or a projector."""
    d = subspaces[0].ambient_dim
    stack = np.zeros((len(subspaces), d, d), dtype=complex)
    for i, s in enumerate(subspaces):
        frame = s.frame
        if frame.shape[0] != d:
            raise DimensionMismatchError(f"ambient dimension mismatch: {d} vs {frame.shape[0]}")
        stack[i, :, : frame.shape[1]] = frame
    return stack


class _Stack:
    """n subspaces of one C^d: item i is spanned by the first ``dims[i]``
    columns of ``frames[i]``, and its other columns are zero."""

    __slots__ = ("frames", "dims")

    def __init__(self, frames: np.ndarray, dims: np.ndarray) -> None:
        self.frames = frames  # (n, d, d) complex
        self.dims = dims      # (n,) int

    def __getitem__(self, rows: slice | np.ndarray) -> _Stack:
        return _Stack(self.frames[rows], self.dims[rows])


def _stack(subspaces) -> _Stack:
    return _Stack(_padded_frames(subspaces), np.array([s.dim for s in subspaces]))


def _kept(frames: np.ndarray, dims: np.ndarray) -> _Stack:
    """The stack of ``frames`` with the columns of item i from ``dims[i]`` on
    set to zero."""
    return _Stack(frames * (np.arange(frames.shape[-1]) < dims[:, None])[:, None, :], dims)


def _row_blocks(n: int, row_entries: int) -> list[slice]:
    """Slices covering ``range(n)`` whose temporaries of ``row_entries``
    entries a row hold at most ``_BLOCK_ENTRIES`` entries (one row when a
    single row is larger)."""
    rows = max(1, _BLOCK_ENTRIES // row_entries)
    return [slice(start, start + rows) for start in range(0, n, rows)]


def _proper_pairs(a: _Stack, b: _Stack) -> np.ndarray:
    """Indices of the pairs with no zero or full side; of the dimensions
    0..d, d divides just 0 and d."""
    d = a.frames.shape[-1]
    return (a.dims % d * (b.dims % d)).nonzero()[0]


def _by_rank(a: _Stack, b: _Stack, take_b: np.ndarray, factorized) -> _Stack:
    """b where ``take_b`` and a elsewhere on the pairs that a zero or full
    side settles, and ``factorized`` of the other pairs in one call, if any."""
    rest = _proper_pairs(a, b)
    settled = _Stack(np.where(take_b[:, None, None], b.frames, a.frames),
                     np.where(take_b, b.dims, a.dims))
    if rest.size:
        done = factorized(a[rest], b[rest])
        settled.frames[rest], settled.dims[rest] = done.frames, done.dims
    return settled


def _join_stacked(a: _Stack, b: _Stack) -> _Stack:
    """``join`` of each pair: b where a is zero or b full, a where b is zero
    or a full, and otherwise one SVD of the (d, 2d) concatenated frames,
    whose zero columns add only zero singular values."""
    return _by_rank(a, b, (a.dims == 0) | (b.dims == b.frames.shape[-1]), _join_factorized)


def _join_factorized(a: _Stack, b: _Stack) -> _Stack:
    u, s, _ = np.linalg.svd(np.concatenate([a.frames, b.frames], axis=2), full_matrices=False)
    return _kept(u, np.sum(s > RANK_TOL, axis=1))


def _orthocomplement_stacked(a: _Stack) -> _Stack:
    """``orthocomplement`` of each item.  A complete QR of a padded frame
    spans the item with the first ``dims[i]`` columns of Q and its complement
    with the rest, which reversing the columns moves to the front; a frame
    built or checked here is orthonormal, so its rank is its dimension."""
    q = np.linalg.qr(a.frames, mode="complete")[0]
    return _kept(q[:, :, ::-1], q.shape[-1] - a.dims)


def _meet_stacked(a: _Stack, b: _Stack) -> _Stack:
    """``meet`` of each pair: b where b is zero or a full, a where a is zero
    or b full, and otherwise decided on the sines of the principal angles."""
    return _by_rank(a, b, (b.dims == 0) | (a.dims == a.frames.shape[-1]), _meet_factorized)


def _meet_factorized(a: _Stack, b: _Stack) -> _Stack:
    """``meet`` of each pair from one SVD.

    A padding column of a would add a zero sine, and a right singular vector
    mixing it into the meet.  So each padding column gets a unit entry in d
    extra rows: its singular value is 1 and it never enters a meet, while
    the genuine columns keep their sines, since the extra rows are zero under
    them.  Singular values come in descending order, so the directions at or
    below ``RANK_TOL`` are the last rows of Vᴴ; reversed, they come first.
    """
    d = a.frames.shape[-1]
    padding = np.eye(d) * (np.arange(d) >= a.dims[:, None])[:, None, :]
    extended = np.concatenate([_residual(a.frames, b.frames), padding], axis=1)
    _, sines, vh = np.linalg.svd(extended, full_matrices=False)
    directions = vh[:, ::-1].conj().swapaxes(1, 2)
    return _kept(a.frames @ directions, np.sum(sines <= RANK_TOL, axis=1))


def _includes_stacked(a: _Stack, b: _Stack) -> np.ndarray:
    """``includes(a[i], b[i])`` for each i: true where a is zero or b full,
    false on the other pairs with a zero or full side, and otherwise decided
    on the residuals."""
    included = (a.dims == 0) | (b.dims == b.frames.shape[-1])
    rest = _proper_pairs(a, b)
    if rest.size:
        included[rest] = _within(a.frames[rest], b.frames[rest])
    return included


def _equal_stacked(a: _Stack, b: _Stack) -> np.ndarray:
    """Mutual inclusion of each pair, which on a pair with a zero or full
    side holds just when the dimensions are equal."""
    equal = a.dims == b.dims
    rest = _proper_pairs(a, b)
    if rest.size:
        a, b = a.frames[rest], b.frames[rest]
        equal[rest] = _within(a, b) & _within(b, a)
    return equal


def _within(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each padded frame of a lies in the span of the matching frame
    of b; a padding column has no residual."""
    return _residual_norms(a, b).max(axis=1) <= INCLUSION_TOL


def _pairwise(law, a, b) -> np.ndarray:
    """``law`` on the stacks of a[i], b[i], in row blocks whose largest
    temporaries, (rows, d, 2d) and (rows, 2d, d), hold at most
    ``_BLOCK_ENTRIES`` entries."""
    if len(a) != len(b):
        raise PreconditionError(f"{len(a)} first and {len(b)} second subspaces")
    result = np.ones(len(a), dtype=bool)
    if not result.size:
        return result
    both = _stack([*a, *b])
    first, second = both[: len(a)], both[len(a):]
    d = both.frames.shape[-1]
    for rows in _row_blocks(len(a), 2 * d * d):
        result[rows] = law(first[rows], second[rows])
    return result


def _inclusion_matrix(inner: np.ndarray, outer_complements: np.ndarray) -> np.ndarray:
    """Boolean matrix whose (i, j) entry is ``includes(inner[i], outer[j])``,
    from the padded frames of the inner subspaces and of the complements of
    the outer ones.

    A frame vector f of inner[i] has residual norm ‖(I − P_j)f‖ = ‖C_jᴴf‖
    against outer[j], for C_j a frame of its complement.  The right side has
    no cancellation, unlike 1 − ‖F_jᴴf‖², whose errors near 1e-8 lie above
    ``INCLUSION_TOL``.  Every C_jᴴf of a row block comes from one product of
    the block's frame vectors, one a row, with every conj(C_j) column; a block
    holds at most ``_BLOCK_ENTRIES`` of those entries (one inner subspace
    when a single one has more).
    """
    n, d, _ = inner.shape
    m = len(outer_complements)
    vectors = inner.swapaxes(1, 2).reshape(n * d, d)
    complement_columns = outer_complements.conj().transpose(1, 0, 2).reshape(d, m * d)
    result = np.empty((n, m), dtype=bool)
    ones = np.ones(2 * d)  # sums a row's 2d squared parts; a sum over a short axis is slow
    for rows in _row_blocks(n, m * d * d):
        # row (i, c), column (j, a, real or imaginary part) of C_jᴴ f_ic
        parts = (vectors[rows.start * d: rows.stop * d] @ complement_columns).view(float)
        squares = (np.square(parts, out=parts).reshape(-1, 2 * d) @ ones).reshape(-1, d, m)
        result[rows] = np.sqrt(squares.max(axis=1)) <= INCLUSION_TOL
    return result


class DistributivityVerdict:
    """Both sides of a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c), plus the verdict."""

    __slots__ = ("lhs", "rhs", "distributive")

    def __init__(self, lhs: Subspace, rhs: Subspace, distributive: bool) -> None:
        self.lhs, self.rhs, self.distributive = lhs, rhs, distributive


def distributes(a: Subspace, b: Subspace, c: Subspace) -> DistributivityVerdict:
    """Evaluate a ∧ (b ∨ c) against (a ∧ b) ∨ (a ∧ c).

    The triple distributes when the two sides are equal subspaces.  Exactly,
    the right side is always contained in the left; the tolerance decisions
    near ``RANK_TOL`` are not transitive, so here it may not be, and such a
    triple is reported nondistributive rather than raised on.
    """
    _require_same_ambient(a, b)
    _require_same_ambient(a, c)
    lhs = meet(a, join(b, c))
    rhs = join(meet(a, b), meet(a, c))
    return DistributivityVerdict(lhs=lhs, rhs=rhs, distributive=subspace_equal(lhs, rhs))


def orthomodular_holds(a: Subspace, b: Subspace) -> bool:
    """For a ⊆ b, check b = a ∨ (b ∧ a')."""
    _require_same_ambient(a, b)
    if not includes(a, b):
        raise PreconditionError("orthomodular law requires a ⊆ b")
    rebuilt = join(a, meet(b, orthocomplement(a)))
    return subspace_equal(rebuilt, b)


def absorption_holds(a: Subspace, b: Subspace) -> bool:
    """a ∧ (a ∨ b) = a and a ∨ (a ∧ b) = a."""
    return subspace_equal(meet(a, join(a, b)), a) and subspace_equal(join(a, meet(a, b)), a)


def de_morgan_holds(a: Subspace, b: Subspace) -> bool:
    """(a ∧ b)' = a' ∨ b'."""
    return subspace_equal(orthocomplement(meet(a, b)),
                          join(orthocomplement(a), orthocomplement(b)))


def orthomodular_holds_stacked(a, b) -> np.ndarray:
    """``orthomodular_holds(a[i], b[i])`` for each i, in stacked calls; every
    pair must have a[i] ⊆ b[i]."""
    def law(a, b):
        if not _includes_stacked(a, b).all():
            raise PreconditionError("orthomodular law requires a ⊆ b")
        return _equal_stacked(_join_stacked(a, _meet_stacked(b, _orthocomplement_stacked(a))), b)
    return _pairwise(law, a, b)


def absorption_holds_stacked(a, b) -> np.ndarray:
    """``absorption_holds(a[i], b[i])`` for each i, in stacked calls."""
    def law(a, b):
        return (_equal_stacked(_meet_stacked(a, _join_stacked(a, b)), a)
                & _equal_stacked(_join_stacked(a, _meet_stacked(a, b)), a))
    return _pairwise(law, a, b)


def de_morgan_holds_stacked(a, b) -> np.ndarray:
    """``de_morgan_holds(a[i], b[i])`` for each i, in stacked calls."""
    def law(a, b):
        return _equal_stacked(_orthocomplement_stacked(_meet_stacked(a, b)),
                              _join_stacked(_orthocomplement_stacked(a), _orthocomplement_stacked(b)))
    return _pairwise(law, a, b)


class AxiomCheck:
    __slots__ = ("name", "checked", "passed", "counterexample")

    def __init__(self, name: str, checked: int, passed: bool,
                 counterexample: str | None) -> None:
        self.name, self.checked, self.passed = name, checked, passed
        self.counterexample = counterexample


class LatticeAxiomReport:
    __slots__ = ("checks",)

    def __init__(self, checks: tuple[AxiomCheck, ...]) -> None:
        self.checks = checks

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _index_tuples(n: int, arity: int, limit: int, rng: np.random.Generator) -> np.ndarray:
    """Every index tuple in row-major order when there are at most ``limit``,
    otherwise ``limit`` seeded draws; one tuple per row."""
    if n ** arity <= limit:
        return np.indices((n,) * arity).reshape(arity, -1).T
    return rng.integers(0, n, size=(limit, arity))


def check_lattice_axioms(sample, *, seed: int = 0) -> LatticeAxiomReport:
    """Check the ordering and complement axioms over a sample of subspaces.

    Per-element axioms run on every sample member; pair and triple axioms run
    exhaustively when the sample has at most ``TUPLE_LIMIT`` of them,
    otherwise on ``TUPLE_LIMIT`` tuples drawn from ``seed``.  Each check
    counts the tuples up to and including its first failure and names that
    failure.  The orthocomplements and the inclusion matrices of the sample
    and of its complements are computed once, so the ordering axioms are
    lookups; the involution and disjointness rows are stacked constructions
    over the whole sample.  Antisymmetry holds a pair's mutual inclusion against equality
    of their projectors, max|P_a − P_b| ≤ ``INCLUSION_TOL``, so it fails
    where two subspaces include each other within tolerance yet differ by
    more than it.
    """
    sample = list(sample)
    if not sample:
        raise PreconditionError("empty sample")
    stack = _stack(sample)
    n, d, _ = stack.frames.shape
    rng = np.random.default_rng(seed)
    singles = np.arange(n)[:, None]
    pairs = _index_tuples(n, 2, TUPLE_LIMIT, rng)
    triples = _index_tuples(n, 3, TUPLE_LIMIT, rng)
    complements = np.empty_like(stack.frames)
    involution = np.empty(n, dtype=bool)
    disjoint = np.empty(n, dtype=bool)
    for rows in _row_blocks(n, 2 * d * d):
        block = stack[rows]
        complement = _orthocomplement_stacked(block)
        complements[rows] = complement.frames
        involution[rows] = _equal_stacked(_orthocomplement_stacked(complement), block)
        disjoint[rows] = _meet_stacked(block, complement).dims == 0
    # the sample spans the complements of its complements
    inc = _inclusion_matrix(stack.frames, complements)
    inc_complements = _inclusion_matrix(complements, stack.frames)
    checks = []

    def record(name, cases, ok):
        failures = np.flatnonzero(~ok)
        if failures.size:
            first = int(failures[0])
            described = ", ".join(f"sample[{k}]" for k in cases[first])
            checks.append(AxiomCheck(name=name, checked=first + 1, passed=False,
                                     counterexample=described))
        else:
            checks.append(AxiomCheck(name=name, checked=len(cases), passed=True,
                                     counterexample=None))

    i, j = pairs.T
    projectors = stack.frames @ stack.frames.conj().swapaxes(1, 2)
    equal = np.empty(len(pairs), dtype=bool)
    for rows in _row_blocks(len(pairs), d * d):
        gap = projectors[i[rows]] - projectors[j[rows]]
        equal[rows] = np.abs(gap).max(axis=(1, 2)) <= INCLUSION_TOL
    record("reflexivity: a ⊆ a", singles, np.diagonal(inc))
    record(
        "antisymmetry: a ⊆ b and b ⊆ a imply a = b",
        pairs,
        ~(inc[i, j] & inc[j, i]) | equal,
    )
    ti, tj, tk = triples.T
    record(
        "transitivity: a ⊆ b ⊆ c implies a ⊆ c",
        triples,
        ~(inc[ti, tj] & inc[tj, tk]) | inc[ti, tk],
    )
    record("involution: (a')' = a", singles, involution)
    record("complement disjointness: a ∧ a' = 0", singles, disjoint)
    record("order reversal: a ⊆ b iff b' ⊆ a'", pairs, inc[i, j] == inc_complements[j, i])
    return LatticeAxiomReport(checks=tuple(checks))
