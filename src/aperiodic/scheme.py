"""Cut-and-project schemes over Euclidean physical and internal spaces.

A scheme is a full-rank lattice in R^(d+m) whose first d coordinates project
injectively (physical space) and whose last m coordinates are treated as
internal space.  Points of a model set are enumerated exactly as integer
lattice indices; physical and star coordinates are derived columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InjectivityViolation,
    NotInL,
    RegionTooLarge,
    SingularBasis,
)
from .exactmath import QuadExact, as_quad, exact_det, rational_kernel_vector
from .pointset import Box, IndexedPointSet, _nearest_distance

DEFAULT_FLOAT_TOL = 1e-9
ENUM_BUDGET = 10_000_000  # rows one lattice_points call may build
BOUNDARY_BAND = 1e-6  # float prefilter margin before exact boundary resolution
INDEX_MARGIN = 1e-6  # float slack, in index units, on every lattice_points bound


@dataclass(frozen=True)
class LatticeScheme:
    """Lattice data for one cut-and-project scheme."""

    d: int
    m: int
    basis: np.ndarray              # (d+m, d+m), columns generate the lattice
    basis_inverse: np.ndarray
    covolume: float
    mode: str                      # "float" | "quadratic"
    tol: float = DEFAULT_FLOAT_TOL
    radicand: int | None = None
    basis_exact: tuple | None = field(default=None, repr=False)

    @property
    def k(self) -> int:
        return self.d + self.m

    @property
    def lattice_density(self) -> float:
        return 1.0 / self.covolume

    @property
    def is_exact(self) -> bool:
        return self.mode == "quadratic"

    # -- coordinate maps ------------------------------------------------------
    def lift(self, indices) -> np.ndarray:
        idx = np.atleast_2d(np.asarray(indices, dtype=np.float64))
        return idx @ self.basis.T

    def physical_of(self, indices) -> np.ndarray:
        return self.lift(indices)[:, :self.d]

    def star_of(self, indices) -> np.ndarray:
        return self.lift(indices)[:, self.d:]

    def lift_exact(self, index):
        if not self.is_exact:
            raise ValueError("exact coordinates require quadratic mode")
        out = []
        for row in self.basis_exact:
            acc = QuadExact(0, 0, self.radicand)
            for entry, n in zip(row, index):
                acc = acc + entry * int(n)
            out.append(acc)
        return tuple(out)

    def star_exact(self, index):
        return self.lift_exact(index)[self.d:]

    def point(self, index) -> "LatticePoint":
        index = tuple(int(v) for v in index)
        row = self.lift([index])[0]
        return LatticePoint(index, row[:self.d].copy(), row[self.d:].copy())

    def to_json(self):
        out = {"d": self.d, "m": self.m}
        if self.is_exact:
            out["basis"] = [[[str(e.a), str(e.b)] for e in row] for row in self.basis_exact]
            out["arithmetic"] = {"mode": "quadratic", "D": self.radicand}
        else:
            out["basis"] = self.basis.tolist()
            out["arithmetic"] = {"mode": "float", "tol": self.tol}
        return out


@dataclass(frozen=True)
class LatticePoint:
    """One lattice point; equality is equality of integer indices."""

    index: tuple
    physical: np.ndarray
    star: np.ndarray

    def __eq__(self, other):
        return isinstance(other, LatticePoint) and self.index == other.index

    def __hash__(self):
        return hash(self.index)


def make_scheme(d, m, basis, mode="float", tol=DEFAULT_FLOAT_TOL, radicand=None) -> LatticeScheme:
    """Build and sanity-check a scheme.

    In quadratic mode every basis entry must be rational-pair data
    ``(a, b)`` (meaning a + b*sqrt(radicand)), a Fraction, an int or a
    QuadExact.  Raises SingularBasis when the columns do not span.
    """
    d, m = int(d), int(m)
    k = d + m
    if d < 1 or m < 0 or d > 3 or m > 3:
        raise ValueError("supported dimensions: 1 <= d <= 3, 0 <= m <= 3")
    if mode == "quadratic":
        if radicand is None:
            raise ValueError("quadratic mode requires a radicand D")
        exact = tuple(
            tuple(as_quad(entry, radicand) for entry in row) for row in basis
        )
        if len(exact) != k or any(len(row) != k for row in exact):
            raise ValueError(f"basis must be {k}x{k}")
        det = exact_det(exact)
        if det.is_zero():
            raise SingularBasis("exact determinant is zero")
        fbasis = np.array([[float(e) for e in row] for row in exact])
        covolume = abs(float(det))
        return LatticeScheme(d, m, fbasis, np.linalg.inv(fbasis), covolume,
                             "quadratic", tol, int(radicand), exact)
    fbasis = np.asarray(basis, dtype=np.float64)
    if fbasis.shape != (k, k):
        raise ValueError(f"basis must be {k}x{k}")
    det = float(np.linalg.det(fbasis))
    if abs(det) < 1e-12:
        raise SingularBasis(f"determinant {det:g} below tolerance")
    return LatticeScheme(d, m, fbasis, np.linalg.inv(fbasis), abs(det),
                         "float", tol, None, None)


@dataclass
class ValidationReport:
    covolume: float
    lattice_density: float
    injectivity: str                 # "exact" or "scanned"
    injectivity_radius: int | None
    denseness: list                  # [(sample size, min star gap)]
    warnings: list


def validate_scheme(scheme: LatticeScheme, scan_radius: int = 8,
                    denseness_samples=(100, 1000, 10000)) -> ValidationReport:
    """Check scheme invariants; raises on violations, else returns diagnostics.

    Physical-projection injectivity is decided exactly in quadratic mode by a
    rational rank computation.  In float mode all integer vectors with sup
    norm <= scan_radius are scanned and larger indices are advisory only.
    Denseness of the internal projection has no finite certificate; the
    report gives the shrinking minimum gap of star-image samples instead.
    """
    warnings = []
    if scheme.is_exact:
        rows = []
        for i in range(scheme.d):
            rows.append([scheme.basis_exact[i][j].a for j in range(scheme.k)])
        for i in range(scheme.d):
            rows.append([scheme.basis_exact[i][j].b for j in range(scheme.k)])
        kernel = rational_kernel_vector(rows)
        if kernel is not None:
            raise InjectivityViolation(kernel)
        injectivity, radius = "exact", None
    else:
        witness = _scan_injectivity(scheme, scan_radius)
        if witness is not None:
            raise InjectivityViolation(witness)
        injectivity, radius = "scanned", scan_radius
        warnings.append(
            f"injectivity scanned only for |n|_inf <= {scan_radius} (float mode)")
    denseness = _denseness_diagnostic(scheme, denseness_samples) if scheme.m else []
    if scheme.m and len(denseness) >= 2 and not denseness[-1][1] < denseness[0][1]:
        warnings.append("star-image gaps are not shrinking; "
                        "internal projection may not be dense")
    return ValidationReport(scheme.covolume, scheme.lattice_density,
                            injectivity, radius, denseness, warnings)


def _scan_injectivity(scheme: LatticeScheme, radius: int):
    side = 2 * radius + 1
    # the index cube, one slab per value of the first coordinate
    slab = np.empty((side ** (scheme.k - 1), scheme.k), dtype=np.int64)
    slab[:, 1:] = (np.indices((side,) * (scheme.k - 1)).reshape(scheme.k - 1, len(slab)).T
                   - radius)
    phys_rows = scheme.basis[:scheme.d]
    for n0 in range(-radius, radius + 1):
        slab[:, 0] = n0
        phys = slab @ phys_rows.T
        small = np.all(np.abs(phys) <= scheme.tol, axis=1)
        nonzero = np.any(slab != 0, axis=1)
        bad = np.flatnonzero(small & nonzero)
        if len(bad):
            return slab[bad[0]].copy()
    return None


def _denseness_diagnostic(scheme: LatticeScheme, sample_sizes):
    out = []
    for size in sample_sizes:
        radius = max(1, int(round((size ** (1.0 / scheme.k)) / 2)))
        grid = lattice_points(np.eye(scheme.k), [-radius] * scheme.k, [radius] * scheme.k)
        stars = scheme.star_of(grid)
        if scheme.m == 1:
            vals = np.sort(stars[:, 0])
            gap = float(np.diff(vals).min()) if len(vals) > 1 else float("inf")
        else:
            gap = _nearest_distance(stars)
        out.append((len(grid), gap))
    return out


def lattice_points(matrix, lo, hi, budget: int = ENUM_BUDGET) -> np.ndarray:
    """Integer vectors n with ``lo <= matrix @ n <= hi``, in lexicographic order.

    A superset within INDEX_MARGIN index units; callers filter.  All
    coordinates but the widest-ranging one walk their integer bounding box,
    and for each such prefix row the widest one is solved exactly as an
    interval (Fincke-Pohst style).  Raises RegionTooLarge, before building
    them, when prefix plus candidate rows would exceed ``budget``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    k = matrix.shape[1]
    # moving every index coordinate by INDEX_MARGIN moves row i by at most slack[i]
    slack = INDEX_MARGIN * np.abs(matrix).sum(axis=1)
    lo = np.asarray(lo, dtype=np.float64) - slack
    hi = np.asarray(hi, dtype=np.float64) + slack
    inv = np.linalg.inv(matrix)
    mid, rad = inv @ ((lo + hi) / 2), np.abs(inv) @ ((hi - lo) / 2)
    nlo, nhi = np.ceil(mid - rad), np.floor(mid + rad)
    j = int(np.argmax(nhi - nlo))
    rest = [i for i in range(k) if i != j]
    sizes = np.maximum(nhi[rest] - nlo[rest] + 1, 0)
    n_prefix = float(np.prod(sizes))
    if n_prefix > budget:
        raise RegionTooLarge(f"{n_prefix:.0f} prefix rows exceed budget {budget}")
    prefix = (np.indices(sizes.astype(np.int64)).reshape(k - 1, int(n_prefix)).T
              + nlo[rest])
    first = np.full(len(prefix), -np.inf)
    last = np.full(len(prefix), np.inf)
    for i in range(k):
        base, c = prefix @ matrix[i, rest], matrix[i, j]
        if c == 0:
            last[(base < lo[i]) | (base > hi[i])] = -np.inf
            continue
        a, b = (lo[i] - base) / c, (hi[i] - base) / c
        if c < 0:
            a, b = b, a
        np.maximum(first, a, out=first)
        np.minimum(last, b, out=last)
    counts = np.maximum(np.floor(last) - np.ceil(first) + 1, 0)
    if n_prefix + counts.sum() > budget:
        raise RegionTooLarge(f"{n_prefix:.0f} prefix rows and {counts.sum():.0f} "
                             f"candidate rows exceed budget {budget}")
    counts = counts.astype(np.int64)
    first = np.ceil(np.where(counts > 0, first, 0)).astype(np.int64)
    rows = np.empty((int(counts.sum()), k), dtype=np.int64)
    rows[:, rest] = np.repeat(prefix, counts, axis=0)
    rows[:, j] = np.arange(len(rows)) + np.repeat(first - np.cumsum(counts) + counts, counts)
    if j != k - 1:
        rows = rows[np.lexsort(rows.T[::-1])]
    return rows


def model_density(scheme: LatticeScheme, window) -> float:
    """Density of the model set: window measure divided by lattice covolume."""
    measure = 1.0 if scheme.m == 0 else window.measure()
    return measure / scheme.covolume


def enumerate_cut(scheme: LatticeScheme, window, region: Box,
                  budget: int = ENUM_BUDGET) -> IndexedPointSet:
    """All lattice points with physical part in ``region`` and star in the window.

    Candidates are the ``lattice_points`` of region x window bounding box,
    padded by the scheme tolerance and by BOUNDARY_BAND, and are filtered.
    In quadratic mode, star images within a float band of the window boundary
    are resolved by exact arithmetic, so endpoint policy is decided exactly.
    Raises RegionTooLarge when the candidate rows would exceed ``budget``.
    """
    if scheme.m and window is None:
        raise ValueError("scheme with internal space needs a window")
    if region.dim != scheme.d:
        raise ValueError("region dimension must equal physical dimension")
    lo, hi = region.lo - scheme.tol, region.hi + scheme.tol
    if scheme.m:
        wlo, whi = window.bbox()
        lo = np.concatenate([lo, wlo - BOUNDARY_BAND])
        hi = np.concatenate([hi, whi + BOUNDARY_BAND])
    index = lattice_points(scheme.basis, lo, hi, budget)
    lifted = index @ scheme.basis.T
    phys = lifted[:, :scheme.d]
    mask = np.all((phys >= lo[:scheme.d]) & (phys <= hi[:scheme.d]), axis=1)
    if scheme.m:
        mask &= _window_accept(scheme, window, index, lifted[:, scheme.d:], mask)
    return IndexedPointSet(phys[mask], region, index[mask],
                           lifted[mask, scheme.d:], scheme)


def _window_accept(scheme, window, index, star, pre_mask) -> np.ndarray:
    """Vectorized window membership with exact resolution near the boundary."""
    accept = np.zeros(len(star), dtype=bool)
    near = np.zeros(len(star), dtype=bool)
    if window.dim == 1:
        s = star[:, 0]
        for c in window.components:
            accept |= (s > c.lo + BOUNDARY_BAND) & (s < c.hi - BOUNDARY_BAND)
            near |= (np.abs(s - c.lo) <= BOUNDARY_BAND) | (np.abs(s - c.hi) <= BOUNDARY_BAND)
    else:
        verts = window.vertices
        n = len(verts)
        min_signed = np.full(len(star), np.inf)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            e = b - a
            elen = np.hypot(*e)
            signed = (e[0] * (star[:, 1] - a[1]) - e[1] * (star[:, 0] - a[0])) / elen
            min_signed = np.minimum(min_signed, signed)
        accept = min_signed > BOUNDARY_BAND
        near = np.abs(min_signed) <= BOUNDARY_BAND
    undecided = np.flatnonzero(near & pre_mask & ~accept)
    for i in undecided:
        if scheme.is_exact:
            h = scheme.star_exact(index[i])
            accept[i] = window.accepts(h[0] if window.dim == 1 else h)
        else:
            accept[i] = window.accepts(star[i, 0] if window.dim == 1 else star[i])
    return accept


@dataclass
class DualCandidates:
    """Physical projections of dual-lattice vectors, the Bragg/eigenvalue candidates."""

    k: np.ndarray              # (N, d) physical components, sorted by norm
    k_internal: np.ndarray     # (N, m)
    z: np.ndarray              # (N, d+m) integer dual indices


def dual_candidates(scheme: LatticeScheme, k_max: float,
                    k_internal_max: float | None = None) -> DualCandidates:
    """Dual-lattice vectors with |k| <= k_max and bounded internal norm.

    The dual basis is the inverse-transpose of the scheme basis (rows of the
    inverse).  The physical projections of dual vectors are dense for m > 0,
    so a finite candidate list requires an internal cutoff as well; it
    defaults to the physical one.
    """
    if k_internal_max is None:
        k_internal_max = k_max
    lim = np.concatenate([np.full(scheme.d, k_max), np.full(scheme.m, k_internal_max)]) + 1e-9
    z = lattice_points(scheme.basis_inverse.T, -lim, lim)   # y = B^-T z
    y = z @ scheme.basis_inverse
    k = y[:, :scheme.d]
    kint = y[:, scheme.d:]
    ok = np.einsum("ij,ij->i", k, k) <= k_max ** 2 + 1e-12
    ok &= np.einsum("ij,ij->i", kint, kint) <= k_internal_max ** 2 + 1e-12
    z, k, kint = z[ok], k[ok], kint[ok]
    norms = np.linalg.norm(k, axis=1)
    order = np.lexsort(np.vstack([k.T[::-1], norms]))
    return DualCandidates(k[order], kint[order], z[order])


def resolve_index(scheme: LatticeScheme, t, star_lo=None, star_hi=None):
    """Lattice index whose physical part equals t, or raise NotInL.

    The search is confined to star values in [star_lo, star_hi] (defaults to
    a generous multiple of the covolume scale), which covers every
    translation arising from differences of model-set points.
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if star_lo is None or star_hi is None:
        half = 4.0 * scheme.covolume
        star_lo = np.full(scheme.m, -half)
        star_hi = np.full(scheme.m, half)
    lo = np.concatenate([t - 1e-7, np.asarray(star_lo, dtype=np.float64)])
    hi = np.concatenate([t + 1e-7, np.asarray(star_hi, dtype=np.float64)])
    grid = lattice_points(scheme.basis, lo, hi)
    phys = scheme.physical_of(grid)
    hits = np.flatnonzero(np.all(np.abs(phys - t) <= 1e-7, axis=1))
    if len(hits) == 0:
        raise NotInL(f"{t} is not a lattice projection within the star search range")
    return grid[hits[0]]
