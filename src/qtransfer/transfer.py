"""The normalized transfer homomorphism between Iwahori-block centers.

Source: S_n-invariant Laurent polynomials in n = r*d variables z_i.
Target: S_r-invariants in r variables t_k.  On monomials the map is

    z**a  |->  v**(a . x) * t**b,      b_k = sum of the k-th block of a,

where x is the block-repeated shift vector ((d-1, d-3, ..., 1-d) r times,
stored in v-units, i.e. doubled q-exponents).  Equivalently it is the
substitution z_{(k-1)d+j} <- v**(d+1-2j) * t_k.  Both realizations are
implemented -- the monomial map as the main path, the substitution as an
independent oracle -- together with the closed forms of the images of
elementary, complete homogeneous and power-sum polynomials.  The map is
linear, so it is computed as a sum of the images of the monomial
functions m_lambda, each built once per (r, d, lambda) from the orbit of
lambda and memoized.  It is also a ring homomorphism, so the image of a
Schur polynomial is the Jacobi-Trudi determinant of the images of the h_k
(or its dual in the e_k); no tableau is walked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .algebra.partitions import as_partition, conjugate, orbit, partitions
from .algebra.qcount import qbinom, qint_balanced
from .algebra.scalars import QScalar
from .algebra.sympoly import SymPoly, multiplicative_sum, powersum

__all__ = [
    "TransferParams",
    "shift_vector",
    "transfer_sym",
    "substitution_image",
    "image_e",
    "image_h",
    "image_p",
    "image_schur",
    "surjectivity_witness",
]


@dataclass(frozen=True)
class TransferParams:
    """Source GL_n(F) with n = r*d; target the inner form of rank r,
    built from a division algebra of index d."""

    r: int
    d: int

    def __post_init__(self):
        if self.r < 1 or self.d < 1:
            raise ValueError("r and d must be >= 1")

    @property
    def n(self) -> int:
        return self.r * self.d


def shift_vector(p: TransferParams) -> tuple[int, ...]:
    """The vector x in v-units: (d-1, d-3, ..., 1-d) repeated r times.

    Each block sums to 0 and decreases in steps of 2.
    """
    block = tuple(p.d - 1 - 2 * j for j in range(p.d))
    return block * p.r


def _block_sums(p: TransferParams, a: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(a[k * p.d:(k + 1) * p.d]) for k in range(p.r))


def _v_exponent_counts(p: TransferParams, dom: tuple[int, ...]
                       ) -> dict[tuple[int, ...], dict[int, int]]:
    """Hits of the monomial map, per target key b and v-exponent a.x, over
    the exponent vectors a in the orbit of the dominant key dom."""
    x = shift_vector(p)
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for a in orbit(dom):
        hits = counts.setdefault(_block_sums(p, a), {})
        e = sum(ai * xi for ai, xi in zip(a, x))
        hits[e] = hits.get(e, 0) + 1
    return counts


@lru_cache(maxsize=None)
def _monomial_image(p: TransferParams, dom: tuple[int, ...]) -> SymPoly:
    """The image of m_dom, memoized per (p, dom): each target key b of the
    orbit costs one Laurent polynomial, and SymPoly.from_expansion folds
    them into dominant keys, checking S_r-invariance once per image.  The
    cached SymPoly is shared; callers read its terms and never mutate them."""
    return SymPoly.from_expansion(p.r, {b: QScalar.from_v_terms(hits)
                                        for b, hits in _v_exponent_counts(p, dom).items()})


def transfer_sym(p: TransferParams, f: SymPoly) -> SymPoly:
    """Linear extension of the monomial map: the sum of c * image(m_dom)
    over the terms c m_dom of f, on dominant target keys only.

    Each image(m_dom) comes from ``_monomial_image``, which checked its
    S_r-invariance when it was built; a sum of invariant images is
    invariant, so the result is assembled with the plain constructor, which
    still checks that every key is dominant.
    """
    if f.nvars != p.n:
        raise ValueError(f"input has {f.nvars} variables, expected n = {p.n}")
    image: dict[tuple[int, ...], QScalar] = {}
    for dom, c in f.terms.items():
        for b, cb in _monomial_image(p, dom).terms.items():
            term = cb * c
            acc = image.get(b)
            image[b] = term if acc is None else acc + term
    return SymPoly(p.r, image)


def substitution_image(p: TransferParams, f: SymPoly) -> SymPoly:
    """Oracle: literally substitute z_{(k-1)d+j} <- v**(d+1-2j) * t_k and collect.

    Avoids the shift-vector inner product on purpose; coefficients come from
    per-variable QScalar powers, so this is an independent computation path.
    """
    if f.nvars != p.n:
        raise ValueError(f"input has {f.nvars} variables, expected n = {p.n}")
    var_scalar = [QScalar.v_power(p.d + 1 - 2 * j) for j in range(1, p.d + 1)] * p.r
    image: dict[tuple[int, ...], QScalar] = {}
    for mono, c in f.expand().items():
        coeff = c
        b = [0] * p.r
        for i, e in enumerate(mono):
            if e:
                coeff = coeff * var_scalar[i] ** e
                b[i // p.d] += e
        key = tuple(b)
        acc = image.get(key)
        image[key] = coeff if acc is None else acc + coeff
    return SymPoly.from_expansion(p.r, image)


def image_e(p: TransferParams, k: int) -> SymPoly:
    """Closed form of the image of e_k: ``multiplicative_sum`` over the r
    blocks, where e_b of one block of the substitution is
    v^(b^2 - db) [d choose b]_q for b <= d."""
    if not 1 <= k <= p.n:
        raise ValueError(f"image_e: need 1 <= k <= n = {p.n}, got {k}")
    block = [QScalar.v_power(b * b - p.d * b) * qbinom(p.d, b)
             for b in range(min(p.d, k) + 1)]
    return multiplicative_sum(p.r, k, block)


def image_h(p: TransferParams, k: int) -> SymPoly:
    """Closed form of the image of h_k: ``multiplicative_sum`` over the r
    blocks, where h_b of one block of the substitution is
    v^(-b(d-1)) [d+b-1 choose b]_q.  h_k = 0 for k < 0."""
    if k < 0:
        return SymPoly.zero(p.r)
    block = [QScalar.v_power(-b * (p.d - 1)) * qbinom(p.d + b - 1, b) for b in range(k + 1)]
    return multiplicative_sum(p.r, k, block)


def image_p(p: TransferParams, k: int) -> SymPoly:
    """Closed form of the image of p_k: the balanced q-integer times p_k."""
    if k < 1:
        raise ValueError("image_p: need k >= 1")
    return powersum(p.r, k).scale(qint_balanced(p.d, k))


def image_schur(p: TransferParams, mu: Sequence[int]) -> SymPoly:
    """Image of the Schur polynomial s_mu by Jacobi-Trudi in the image.

    s_mu = det(h_{mu_i - i + j}) and, over the conjugate mu',
    s_mu = det(e_{mu'_i - i + j}) (Macdonald I.(3.4), (3.5)); the transfer
    is a ring homomorphism, so it maps either determinant to the same
    determinant of ``image_h`` or ``image_e``.  The dual form is taken
    unless mu has fewer rows than columns: the images of the e_k have fewer
    terms.  With more than n parts s_mu is zero.  No division occurs.
    ``transfer_sym(p, schur(p.n, mu))`` stays the oracle, and
    ``tests/tableau_oracle.py`` keeps the sum over semistandard tableaux.
    """
    mu = as_partition(mu) if mu else ()
    if len(mu) > p.n:
        return SymPoly.zero(p.r)
    dual = len(mu) >= (mu[0] if mu else 0)
    rows = conjugate(mu) if dual else mu
    minors = {(): SymPoly(p.r, {(0,) * p.r: QScalar(1)})}

    def minor(cols: tuple[int, ...]) -> SymPoly:
        # Laplace expansion along row i, the first row not yet expanded;
        # a minor depends only on the columns left, so it is memoized on them
        if cols not in minors:
            i = len(rows) - len(cols)
            total = SymPoly.zero(p.r)
            for pos, j in enumerate(cols):
                k = rows[i] - i + j
                entry = _jacobi_trudi_entry(p, k, dual)
                if entry is None:
                    continue
                rest = minor(cols[:pos] + cols[pos + 1:])
                term = rest if k == 0 else entry * rest
                total = total - term if pos % 2 else total + term
            minors[cols] = total
        return minors[cols]

    return minor(tuple(range(len(rows))))


@lru_cache(maxsize=None)
def _jacobi_trudi_entry(p: TransferParams, k: int, dual: bool) -> SymPoly | None:
    """The image of e_k (dual) or h_k, memoized: every shape of one p reads
    the same few.  None for the zero entries: k < 0, and e_k for k > n."""
    if k < 0 or dual and k > p.n:
        return None
    return image_e(p, k) if dual and k else image_h(p, k)


def _rank_of_rows(rows: list[list[QScalar]]) -> int:
    """Exact rank by Gaussian elimination over the rational-function field."""
    mat = [row[:] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if not mat[i][col].is_zero()),
                     None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col].inverse()
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and not mat[i][col].is_zero():
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def surjectivity_witness(p: TransferParams, maxdeg: int) -> dict:
    """Check that the power-sum images triangularly generate the polynomial
    part of the target invariants up to the given degree.

    The leading coefficients are the balanced q-integers qint(d, k); they are
    nonzero over the rational-function field, so monomials in the images span
    each graded piece.  The report records the coefficients and, per degree,
    the exact rank of the products' expansion against the monomial basis.
    Each product over a partition lam is one multiplication of the product
    over lam[:-1], built at a lower degree, by the image of p_{lam[-1]}.
    """
    if maxdeg < 1:
        raise ValueError("need maxdeg >= 1")
    leading = {}
    for k in range(1, maxdeg + 1):
        c = qint_balanced(p.d, k)
        if c.is_zero():
            raise AssertionError(f"vanishing leading coefficient at k = {k}")
        leading[k] = c
    images = {k: image_p(p, k) for k in range(1, maxdeg + 1)}
    products = {(): SymPoly(p.r, {(0,) * p.r: QScalar(1)})}
    degree_checks = []
    for m in range(1, maxdeg + 1):
        targets = [lam + (0,) * (p.r - len(lam))
                   for lam in partitions(m, max_length=p.r)]
        index = {key: i for i, key in enumerate(targets)}
        rows = []
        for lam in partitions(m):
            prod = products[lam] = products[lam[:-1]] * images[lam[-1]]
            row = [QScalar(0)] * len(targets)
            for key, c in prod.terms.items():
                row[index[key]] = c
            rows.append(row)
        rank = _rank_of_rows(rows)
        degree_checks.append({
            "degree": m,
            "target_dimension": len(targets),
            "rank": rank,
            "ok": rank == len(targets),
        })
    return {
        "r": p.r,
        "d": p.d,
        "maxdeg": maxdeg,
        "leading_coefficients": {k: str(c) for k, c in leading.items()},
        "degree_checks": degree_checks,
        "ok": all(ch["ok"] for ch in degree_checks),
    }
