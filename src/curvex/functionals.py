"""Gaussian-weighted functionals of localized heat-kernel test functions.

The test function is u = (4 pi t)^{-n/4} exp(-r^2/8t) * eta with
eta^2 = cutoff(r/r_s) * (1 + a_ij x^i x^j), clamped below at a tiny
floor, all in normal coordinates at a center point.  The functionals
(mass, entropy, Dirichlet energy, scalar-curvature average) are integrals
against u^2 times the Riemannian volume density.

The substitution x = 2 sqrt(t) z turns each of them into
pi^{-n/2} * integral of exp(-|z|^2) G(z), which the engine computes with
product Gauss-Hermite quadrature (n <= 4) or, in every n, a radial rule
(_radial_nodes) times the rays of ray_bundle: an ode chart's own, else
one sphere_rule.  The radial rule is generalized Gauss-Laguerre in
rho^2, exact on the Gaussian, wherever the cutoff's first kink lies past
the Gaussian's tail, and Gauss-Legendre split at the kinks
(composite_gauss_legendre) before that.  One node builder serves every
rule: unit directions d, z-radii and weights, laid out as m points or as
nd rays times nr radii.  The Hermite grid and the Laguerre radii do not
depend on t, so a 1-D array of times runs in as few kernel passes as
memory allows (_time_batches), each time summed as if alone.

The Dirichlet integrand is |grad u|^2 = u^2 g~^{ij} M_i M_j with the
covector M = grad eta^2 / (2 eta^2) - x/4t.  Along x = r d, with
q = d.a.d and P = 1 + q r^2, grad(x.a.x) = 2 r (q d + w) where
w = a d - q d is orthogonal to d, so

  M = kappa d + beta w,   kappa = d eta^2/dr / (2 eta^2) - r/4t,
                          beta  = r / P.

The Gauss lemma g~^{-1} d = d removes the cross term and fixes the radial
one: g~^{ij} M_i M_j = kappa^2 + beta^2 w.g~^{-1}w.  So each node needs
eta^2, kappa and beta^2 from the test function (one kernel) and density
and w.g~^{-1}w from the normal chart (one geometry call, which takes the
directions d: a direct sum of blocks reads each block's share of the
ray), which one ray evaluator, TestFunction.on_rays, makes together.
Only the W-functional adds t times the Sc integral; it alone reads Sc
(NormalChart.scalar), which on an ode chart costs curvature evaluations
at every exp point of its Sc grid and on a warped chart comes from its
warps.

The nodes fold as far as a and the normal chart's symmetry about the
centre (NormalChart.symmetry, a partition of the coordinates into blocks)
allow; one function, fold_level, decides, and resolve_rule alone calls
it.  A diagonal a whose equal entries fall into the blocks of a
partition (a = lambda I: one block) leaves the integrand invariant under
the block group O(n_1) x ... x O(n_k) on a geometry invariant under it
too, so the rays fold onto the orbit space (orbit_rule: n singletons
give the orthant of the sphere rule, one block the one ray e_1) and the
Hermite grid onto one node per orbit (_hermite_nodes), the same sums
regrouped.  Only a warped normal chart has a symmetry, its warps'
blocks; a chart that shoots always shoots the full sphere_rule(n, order)
(expansion.prepare_normal_chart) and folds nothing, and it, a
non-diagonal a and gaussian_integral with its arbitrary G keep the full
rule.

Every rule is built at exactly the order it names, at most _MAX_NODES
nodes per time.  One ladder, _climb, picks the order and the error
estimate of eval_components and gaussian_integral: an analytic
integrand converges geometrically in the order (Trefethen, "Is Gauss
quadrature better than Clenshaw-Curtis?", SIAM Rev. 50, 2008), so the
default, measured order stops where the next rung changes nothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, prod
from numbers import Integral, Real

import numpy as np

from ._numerics import (composite_gauss_legendre, gauss_gegenbauer, gauss_jacobi,
                        gauss_laguerre, read_only, shell_volume)
from ._spaceform import ball_volume_K, sphere_area_K
from .charts import NormalChart, Partition, common_refinement
from .errors import (
    ConfigInvalid,
    LevelSetDegenerate,
    PositivityWarning,
    QuadratureNotConverged,
    SupportTooLarge,
    TimeTooLarge,
)
from .tensor_core import CurvatureData

__all__ = [
    "QuadratureSpec",
    "TestFunction",
    "Components",
    "build_test_function",
    "cutoff",
    "cutoff_prime",
    "eval_components",
    "eval_L_normalized",
    "eval_W_normalized",
    "gaussian_integral",
    "sphere_rule",
    "orbit_rule",
    "ball_volume",
    "bishop_gromov_ratio",
]

ETA_FLOOR = 1e-300
ERR_DROP = 6  # order step of the ladder (_climb)
_FIRST_RUNG = 8  # the least order, and the measured order's first rung
# the measured order of a chart that pins its rays, which is shot along
# sphere_rule(n, _SHOT_ORDER): its spline tables keep every rung changing
# by about 1e-11 (S^3 off its centre, orders 8 to 100), above rounding
_SHOT_ORDER = 40
C_TRUNC = 10.0  # z-radius of the split radial rule's end; t <= (r_s/C_TRUNC)^2


def check_integer(x, least: int, what: str):
    """ConfigInvalid, naming what, unless x is an integer (a Python or
    numpy one, not a bool) of at least least."""
    if not (isinstance(x, Integral) and not isinstance(x, bool) and x >= least):
        raise ConfigInvalid(f"{what} {x!r} is not an integer of at least {least}")


def check_finite(x, what: str):
    """ConfigInvalid, naming what, unless x is a finite real number (a
    model curvature K of NaN or +-inf would read as flat or as NaN)."""
    if not (isinstance(x, Real) and np.isfinite(x)):
        raise ConfigInvalid(f"{what} {x!r} is not a finite number")


@dataclass(frozen=True)
class QuadratureSpec:
    # auto | hermite | radial_sphere; auto is radial_sphere for the
    # functionals, and gaussian_integral takes it as hermite for n <= 4
    rule: str = "auto"
    order: int | None = None  # an integer >= 8, or None: measured (_climb)
    # read by nothing: every rule is deterministic, but perfbench's cases
    # still pass seed=, so the field stays until that call drops it
    seed: int = 1234

    def __post_init__(self):
        if self.rule not in ("auto", "hermite", "radial_sphere"):
            raise ConfigInvalid(f"unknown quadrature rule {self.rule!r}")
        if self.order is not None:
            check_integer(self.order, _FIRST_RUNG, "quadrature order")


# arrays from this size up evaluate the smoothstep beyond s = 1/2 alone;
# below it the masking costs more than the polynomial it skips
_PLATEAU_MASK_MIN = 1024


def _smoothstep_pair(s):
    w = np.clip(2.0 * s - 1.0, 0.0, 1.0)
    return 1.0 - w**3 * (10.0 - 15.0 * w + 6.0 * w * w), -60.0 * (w * (1.0 - w)) ** 2


def _cutoff_pair(s):
    """cutoff and cutoff_prime at s, both from one clipped ramp variable.
    On the plateau s <= 1/2 they are exactly 1 and -0, which large arrays
    fill in without evaluating the smoothstep there."""
    s = np.asarray(s, dtype=float)
    if s.size < _PLATEAU_MASK_MIN:
        return _smoothstep_pair(s)
    cut, dcut = np.ones(s.shape), np.full(s.shape, -0.0)
    outer = ~(s <= 0.5)  # NaN takes the smoothstep too
    cut[outer], dcut[outer] = _smoothstep_pair(s[outer])
    return cut, dcut


def cutoff(s):
    """C^2 radial cutoff: 1 on [0, 1/2], quintic smoothstep down to 0 at 1."""
    return _cutoff_pair(s)[0]


def cutoff_prime(s):
    return _cutoff_pair(s)[1]


@dataclass
class TestFunction:
    """Localized Gaussian bump on a normal chart: the profile 1 + x.a.x,
    a a symmetric matrix of frame components, cut off at the support
    radius r_s."""

    __test__ = False  # keep pytest collection away from the Test* name

    nchart: NormalChart
    a: np.ndarray
    r_s: float

    def __post_init__(self):
        a = profile_matrix(self.nchart.n, None, self.a)
        self.a = 0.5 * (a + a.T)
        if not (self.r_s > 0):  # NaN too
            raise ConfigInvalid("support radius must be positive")
        if self.r_s > self.nchart.radius * (1 + 1e-12):
            raise SupportTooLarge(
                f"r_s={self.r_s} exceeds normal chart radius {self.nchart.radius}"
            )

    def eta2_with_grad(self, q, r, t: float):
        """(eta^2, kappa, beta^2) along rays x = r d, with q = d.a.d
        broadcast against the radii r.

        The kernel covector grad eta^2 / (2 eta^2) - x/4t is kappa d + beta w
        with w = a d - q d; see the module docstring.  eta^2 is floored at
        ETA_FLOOR, and on the clamped set its gradient is zero: kappa =
        -r/4t and beta^2 = 0 there."""
        cut, dcut = _cutoff_pair(r / self.r_s)
        poly = q * (r * r)
        poly += 1.0
        val = cut * poly
        live = val > ETA_FLOOR
        np.maximum(val, ETA_FLOOR, out=val)
        # kappa + r/4t = (d eta^2/dr) / (2 eta^2), zero on the clamped set
        kappa = (0.5 * dcut / self.r_s) * poly
        kappa += (cut * r) * q
        kappa *= live
        kappa /= val
        kappa -= r / (4.0 * t)
        beta2 = np.divide(r, poly, out=np.zeros(val.shape), where=live)
        beta2 *= beta2
        return val, kappa, beta2

    def on_rays(self, dirs, r, t: float):
        """(eta^2, kappa, beta^2, density, w.g~^{-1}w) at x = r d from the
        kernel and the chart's geometry call: unit directions (m, n)
        against radii (m,), or rays (nd, 1, n) against radii (nr,), on a
        warped chart also (nd, nr)."""
        ad = dirs @ self.a
        q = np.einsum("...i,...i->...", dirs, ad)
        eta2, kappa, beta2 = self.eta2_with_grad(q, r, t)
        dens, wgw = self.nchart.geometry(r, ad - q[..., None] * dirs, dirs)
        return eta2, kappa, beta2, dens, wgw


def profile_matrix(n: int, curv: CurvatureData | None,
                   mode: str | np.ndarray) -> np.ndarray:
    """The matrix a of build_test_function's mode: Ricci/3 at the center
    for 'optimal_a' (needs curv), zero for 'zero', an explicit matrix as
    is, which must be (n, n) (ConfigInvalid otherwise)."""
    if not isinstance(mode, str):
        a = np.asarray(mode, dtype=float)
        if a.shape != (n, n):
            raise ConfigInvalid(f"a has shape {a.shape}, chart has n={n}")
        return a
    if mode == "optimal_a":
        if curv is None:
            raise ConfigInvalid("optimal_a needs curvature data at the center")
        return curv.rc / 3.0
    if mode == "zero":
        return np.zeros((n, n))
    raise ConfigInvalid(f"unknown test-function mode {mode!r}")


def is_diagonal(a) -> bool:
    """Whether a is square with no off-diagonal entries: then x.a.x is
    even in every coordinate."""
    a = np.asarray(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and bool(
        np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)))


def _equal_entries(a) -> Partition:
    """The partition of the coordinates into the sets of equal diagonal
    entries of a, which need not be contiguous: for a diagonal a, q = d.a.d
    and |a d|^2 are invariant under the block group of the partition."""
    d = np.diagonal(a).tolist()
    blocks = {}
    for i, x in enumerate(d):
        # keyed by the first equal entry: list.index tests identity first,
        # so a NaN, equal to nothing, finds itself
        blocks.setdefault(d.index(x), []).append(i)
    return tuple(map(tuple, blocks.values()))


def fold_level(a, symmetry: Partition | None) -> Partition | None:
    """The partition the nodes fold onto (ray_bundle's orbit rule, the
    folded Hermite grid) for the profile matrix a on a geometry of the
    given symmetry about the centre, or None for the full rule: the one
    fold policy, which resolve_rule calls.

    A diagonal a keeps every integrand invariant under the block group of
    its sets of equal entries (_equal_entries; a = lambda I is one block),
    and any other a folds nothing.  The fold is the common refinement of
    that and symmetry."""
    allowed = _equal_entries(a) if is_diagonal(a) else None
    return common_refinement(symmetry, allowed)


def build_test_function(
    nchart: NormalChart,
    curv: CurvatureData | None = None,
    mode: str | np.ndarray = "optimal_a",
    alpha: float = 0.0,
    r_s: float | None = None,
) -> TestFunction:
    """Standard test-function configurations.

    mode 'optimal_a' takes a = Ricci/3 at the center (needs curv),
    'zero' takes a = 0; an explicit matrix is used as is.  A quadratic
    profile that can reach zero inside the support triggers
    PositivityWarning.  alpha accepts 0 alone: a time shift 1 + x.a.x +
    alpha t of the profile is the profile of a/(1 + alpha t), up to a
    factor that no normalized functional sees.
    """
    a = profile_matrix(nchart.n, curv, mode)
    # the keyword stays while perfbench's c08 passes alpha=0.0; it goes
    # with the next benchmark change (ROADMAP item 14)
    if not (isinstance(alpha, Real) and alpha == 0):
        raise ConfigInvalid(
            f"alpha={alpha!r}: a profile 1 + x.a.x + alpha t has the "
            "normalized functionals of a/(1 + alpha t), so pass that a")
    if r_s is None:
        r_s = nchart.radius
    lam_min = float(np.linalg.eigvalsh(0.5 * (a + a.T)).min())
    if lam_min < 0 and 1.0 + lam_min * r_s**2 <= 1e-6:
        warnings.warn(
            "quadratic profile reaches zero inside the support; "
            "values will be clamped",
            PositivityWarning,
        )
    return TestFunction(nchart, a, r_s)


# ---------------------------------------------------------------------------
# node construction


# one expansion's main and error rules, for two dimensions: a full n = 4
# order-40 grid alone is 137 MB
@lru_cache(maxsize=4)
def _hermite_nodes(n: int, order: int, fold: Partition | None = None):
    """Product Gauss-Hermite nodes z = |z| d as unit directions d (the
    zero node gets d = 0), radii |z| and weights: the full grid for fold
    None (n singleton blocks of the whole 1-D rule), else the grid folded
    onto the orbit space of fold's block group.

    The fold keeps one node per orbit of the reflections and permutations
    of each block's coordinates.  A block of size k takes the
    nondecreasing index tuples of the half rule z >= 0 (_half_rule, each
    positive node carrying its mirror's weight) on its coordinates, each
    weighted by the product weight times k!/prod(run length)!, the number
    of its distinct permutations (_sorted_tuples lists both with array
    operations); the blocks combine as a product in block order.  It
    integrates the functions invariant under that group exactly as the
    full grid does, regrouped: n singletons give the orthant,
    ceil(order/2)^n nodes, one block C(ceil(order/2) + n - 1, n)."""
    z1, w1 = np.polynomial.hermite.hermgauss(order)  # symmetric: z1 == -z1[::-1]
    if fold is None:
        fold = tuple((i,) for i in range(n))
    else:
        z1, w1 = _half_rule(z1, w1)
    idx, mult = np.zeros((1, n), dtype=np.intp), np.ones(1)
    for block in fold:
        t, orbit = _sorted_tuples(z1.size, len(block))
        idx = np.repeat(idx, len(t), axis=0)
        idx[:, list(block)] = np.tile(t, (mult.size, 1))
        mult = np.outer(mult, orbit).ravel()
    ws = np.prod(w1[idx], axis=-1) * mult
    zs = z1[idx]
    zn = np.sqrt(np.einsum("mi,mi->m", zs, zs))
    zs /= np.where(zn > 0.0, zn, 1.0)[:, None]
    return read_only(zs, zn, ws / np.pi ** (n / 2.0))


def _sorted_tuples(m: int, k: int):
    """The nondecreasing k-tuples of range(m) (C(m + k - 1, k) rows, in the
    lexicographic order of itertools.combinations_with_replacement) and
    each one's number of distinct permutations, k!/prod(run length)!.

    The columns grow one at a time: a row ending in v repeats m - v times
    and takes v, v + 1, ..., m - 1 as its next entry.  A row of j + 1
    entries whose last run has length l counts (j + 1)/l times the
    permutations of its first j, exactly in integers."""
    t = np.arange(m)[:, None]
    count, run = np.ones(m, dtype=np.intp), np.ones(m, dtype=np.intp)
    for j in range(1, k):
        last = t[:, -1]
        reps = m - last
        rows = np.repeat(np.arange(reps.size), reps)
        # each row's new entries count up from its last one
        new = np.arange(rows.size) - (np.cumsum(reps) - reps - last)[rows]
        run = np.where(new == last[rows], run[rows] + 1, 1)
        count = count[rows] * (j + 1) // run
        t = np.column_stack((t[rows], new))
    return t, count


def _half_rule(x, w):
    """A 1-D rule symmetric about 0 (nodes ascending) folded onto x >= 0
    by node index: the upper half keeps its nodes and doubles their
    weights, except the middle node of an odd count, which stays single.
    The index, not the sign, decides: cos(pi/2) is 6.1e-17, not 0."""
    m = x.size
    wf = 2.0 * w[m // 2 :]
    if m % 2:
        wf[0] = w[m // 2]
    return x[m // 2 :], wf


def _azimuth(m: int, fold: bool):
    """Trapezoid rule at the angles 2 pi k / m (m even): cosines, sines
    and weights.  fold keeps the quadrant 4k <= m, where the reflections
    of both axes leave 2 copies of k = 0 and of 4k = m and 4 of every
    other angle."""
    k = np.arange(m // 4 + 1 if fold else m)
    th = 2 * np.pi * k / m
    mult = np.where((k == 0) | (4 * k == m), 2.0, 4.0) if fold else np.ones(m)
    return np.cos(th), np.sin(th), mult * (2 * np.pi / m)


# nodes one time point of a rule may hold (directions times radial nodes,
# or the Hermite grid; orbit_rule and _nodes check it from counts): the
# full n = 4 order-40 Hermite grid holds 2,560,000, and a kernel pass
# keeps about a dozen doubles per node, 400 MB at the bound
_MAX_NODES = 2**22


def sphere_rule(n: int, order: int):
    """The product rule on S^{n-1} in hyperspherical coordinates (Stroud,
    Approximate Calculation of Multiple Integrals, 1971): directions and
    weights summing to the sphere's area, exact to degree 2 order - 1.  It
    is orbit_rule on n singleton blocks, unfolded; the folded orbit_rule
    on them is its orthant."""
    return orbit_rule(order, tuple((i,) for i in range(n)), False)


def _azimuths(o: int, n: int) -> int:
    """Trapezoid angles of a rule of order o on two leading singletons."""
    return max(4 * o, 16) if n == 2 else 2 * o


def _directions(o: int, sizes, fold: bool) -> int:
    """Directions of orbit_rule's rule at order o on blocks of these
    sizes, built folded or not."""
    pair = list(sizes[:2]) == [1, 1]
    half = -(-o // 2)
    count = prod(o if s == 1 and not fold else half
                 for s in sizes[2 if pair else 1:])
    m = _azimuths(o, sum(sizes))
    return count * (m // 4 + 1 if fold else m) if pair else count


@lru_cache(maxsize=64)
def orbit_rule(order: int, blocks: Partition, fold: bool = True):
    """The product rule of sphere_rule for the functions invariant under
    the block group O(n_1) x ... x O(n_k) of the partition blocks, on its
    orbit space: directions and weights summing to |S^{n-1}|, exact on
    those functions to the full rule's degree 2 o - 1, o = order (S^2 x
    R^3's blocks: 8 directions at order 16); more than _MAX_NODES
    directions raise ConfigInvalid before anything is built.

    A point of S^{n-1} is (s_1 y_1, ..., s_k y_k) with s on the positive
    part of S^{k-1} and y_b on S^{n_b - 1}; an invariant function depends
    on s alone, and its integral carries the weight prod_b s_b^(n_b - 1)
    |S^{n_b - 1}|.  Hyperspherical factors peel s_k, s_(k-1), ... off,
    outermost first, each as u times what the sines left so far, with N'
    the dimension of the blocks before it:
      * a singleton: the o-point Gauss-Gegenbauer rule for the weight
        (1 - u^2)^((N' - 2)/2) on [-1, 1], halved by node index when fold
        (_half_rule doubles |S^0| = 2 into its weights; fold=False, the
        full rule of sphere_rule, keeps it whole);
      * a block of two or more: u^2 = v from the ceil(o/2)-point
        Gauss-Jacobi rule for v^((n_b - 2)/2) (1 - v)^((N' - 2)/2) on
        [0, 1], exact to degree o - 1 in v as the invariant integrands of
        degree 2 o - 1 need, its weights times |S^{n_b - 1}| / 2.
    Two leading singletons share the trapezoid azimuth of sphere_rule,
    folded onto its quadrant when fold, at 2 o angles (max(4 o, 16) on
    S^1); otherwise s_2 takes a factor too and s_1 is what is left, its
    weight |S^{n_1 - 1}|.  Each s_b goes on its block's first coordinate,
    the block's other coordinates stay zero.  n singletons thus give the
    product rule (its orthant when fold) and one block the direction e_1
    carrying the whole area."""
    n = sum(map(len, blocks))
    sizes = [len(b) for b in blocks]
    pair = sizes[:2] == [1, 1]
    o = order
    count = _directions(o, sizes, fold)
    if count > _MAX_NODES:
        raise ConfigInvalid(f"the order-{o} rule on blocks of sizes {sizes} "
                            f"holds {count} directions, above {_MAX_NODES}")
    radii, sines, wts = [], np.ones(1), np.ones(1)
    for b in range(len(blocks) - 1, 1 if pair else 0, -1):
        inner = sum(sizes[:b])
        if sizes[b] == 1:
            u, wu = gauss_gegenbauer(o, (inner - 1) / 2)
            if fold:
                u, wu = _half_rule(u, wu)
            rest = np.sqrt(1 - u**2)
        else:
            x, wx = gauss_jacobi(-(-o // 2), (inner - 2) / 2, (sizes[b] - 2) / 2)
            u, rest = np.sqrt(0.5 + 0.5 * x), np.sqrt(0.5 - 0.5 * x)
            # v = (1 + x)/2 carries 2^-(alpha + beta + 1), u du = dv/2
            area = sphere_area_K(sizes[b], 0.0, 1.0)
            wu = wx * (area / 2.0 ** ((inner + sizes[b]) / 2))
        radii = [np.repeat(r, u.size) for r in radii]
        radii.append(np.outer(sines, u).ravel())
        sines = np.outer(sines, rest).ravel()
        wts = np.outer(wts, wu).ravel()
    if pair:
        c, si, wa = _azimuth(_azimuths(o, n), fold)
        radii = [np.repeat(r, c.size) for r in radii]
        radii += [np.outer(sines, si).ravel(), np.outer(sines, c).ravel()]
        wts = np.outer(wts, wa).ravel()
    else:
        radii.append(sines)
        wts = wts * sphere_area_K(sizes[0], 0.0, 1.0)
    dirs = np.zeros((wts.size, n))
    for block, r in zip(blocks, radii[::-1]):
        dirs[:, block[0]] = r
    return read_only(dirs, wts)


# the Gaussian past the first cutoff kink z_k = r_s/(4 sqrt t) is below
# rounding from z_k = 6 on (e^-36 = 2.3e-16); the default time grid has
# z_k >= 6.7
_LAGUERRE_MIN_KINK = 6.0


def _first_kink(tf, t):
    """z_k = r_s/(4 sqrt t), where the cutoff leaves 1 in z = x/(2 sqrt t)."""
    return tf.r_s / (4.0 * np.sqrt(t))


def _laguerre_m(order: int) -> int:
    """Nodes of the Laguerre radial rule at a rule order: 12 at 16, 16 at 24."""
    return order // 2 + 4


def _breaks(kink: float):
    """The pieces of the split radial rule for the first cutoff kink at
    kink: [0, min(C_TRUNC, 2 kink)], past which the integrand vanishes,
    split at 3 and at the kinks."""
    c = min(C_TRUNC, 2.0 * kink)
    return sorted({0.0, min(3.0, c), c} | {k for k in (kink, 2.0 * kink) if k < c})


def _radial_nodes(order: int, n: int, kink: float = np.inf):
    """z-radii rho and weights of the radial factor: the integral of
    rho^(n-1) e^(-rho^2) g(rho) over rho >= 0 for a g with cutoff kinks
    at kink and 2 kink (none for kink = inf).

    From kink >= _LAGUERRE_MIN_KINK on, the Gaussian is below rounding
    where the kinks start, and the rule is generalized Gauss-Laguerre in
    v = rho^2 (Golub & Welsch, Math. Comp. 23, 1969): rho^(n-1) e^(-rho^2)
    d rho is v^((n-2)/2) e^(-v) dv / 2, so the weights are half the
    Laguerre weights, exact on the Gaussian, the same for every t, with
    _laguerre_m(order) nodes.  Before that, Gauss-Legendre with order
    points on each piece of _breaks(kink), times the Gaussian factor."""
    if kink >= _LAGUERRE_MIN_KINK:
        v, w = gauss_laguerre(_laguerre_m(order), (n - 2) / 2.0)
        return np.sqrt(v), 0.5 * w
    rho, wr = composite_gauss_legendre(_breaks(kink), order)
    return rho, wr * rho ** (n - 1) * np.exp(-(rho**2))


def ray_bundle(n: int, order: int, fold: Partition | None = None, nchart=None):
    """Directions (nd, n) and weights (nd,) of a radial rule's rays: the
    bundle nchart pins (NormalChart.dirs; order then refines the radii
    alone), else sphere_rule(n, order) for fold None and the orbit rule
    of the partition fold otherwise (n singletons: the orthant; one
    block: one ray)."""
    if nchart is not None and nchart.dirs is not None:
        return nchart.dirs, nchart.weights
    if fold is None:
        return sphere_rule(n, order)
    return orbit_rule(order, fold)


def _node_count(rule, n, order, kink=np.inf, fold=None, nchart=None) -> int:
    """Nodes of one time point of _nodes's rule, from counts alone: the
    Hermite grid's size, or directions times radial nodes."""
    if rule == "hermite":
        if fold is None:
            return order**n
        half = -(-order // 2)  # _half_rule's nodes
        return prod(comb(half + len(b) - 1, len(b)) for b in fold)
    if nchart is not None and nchart.dirs is not None:
        rays = len(nchart.dirs)
    else:
        blocks = fold if fold is not None else tuple((i,) for i in range(n))
        rays = _directions(order, [len(b) for b in blocks], fold is not None)
    return rays * (_laguerre_m(order) if kink >= _LAGUERRE_MIN_KINK
                   else (len(_breaks(kink)) - 1) * order)


def _nodes(rule, n, order, kink=np.inf, fold=None, nchart=None):
    """Unit directions d, z-radii rho and weights of one rule; the weights
    carry the Gaussian factor and the pi^{-n/2} normalization.

    hermite lays m nodes out as d (m, n), rho (m,), weights (m,);
    radial_sphere as rays d (nd, 1, n) times the radii rho (nr,) of
    _radial_nodes for the first cutoff kink at kink, weights (nd, nr).  A
    fold, a partition (see resolve_rule), takes both onto the orbit space
    of its block group: the hermite grid by _hermite_nodes, the
    radial_sphere directions by ray_bundle's orbit rule.  On an nchart
    that pins its rays they are its own bundle, and fold is None.  More
    than _MAX_NODES nodes raise ConfigInvalid before anything is built."""
    if rule not in ("hermite", "radial_sphere"):
        raise ConfigInvalid(f"unknown rule {rule!r}")
    if rule == "hermite" and n > 4:  # order^n nodes: 3.3e7 at order 32 and n = 5
        raise ConfigInvalid("product Hermite grids are limited to n <= 4")
    count = _node_count(rule, n, order, kink, fold, nchart)
    if count > _MAX_NODES:
        raise ConfigInvalid(f"the order-{order} {rule} rule holds {count} "
                            f"nodes per time, above {_MAX_NODES}")
    if rule == "hermite":
        return _hermite_nodes(n, order, fold)
    rho, radial_w = _radial_nodes(order, n, kink)
    dirs, wd = ray_bundle(n, order, fold, nchart)
    wts = wd[:, None] * radial_w[None, :] / np.pi ** (n / 2.0)
    return dirs[:, None, :], rho, wts


def resolve_rule(tf: TestFunction, quad: QuadratureSpec):
    """The rule quad runs on tf's chart ('auto' resolved to radial_sphere)
    and the partition its nodes fold onto (None: no fold).

    eta^2 and its gradient enter through |x|^2, x.a.x and |a x|^2, so on a
    geometry with the normal chart's symmetry (NormalChart.symmetry) a
    diagonal a gives the nodes of one orbit of the block group of its
    equal entries identical values: fold_level decides, and both rules
    fold onto its partition.  A one-block warped chart is rotation
    invariant, so there a alone decides.  A chart that pins its rays
    (NormalChart.dirs, the full sphere rule it was shot along) has no
    symmetry, so its nodes fold onto nothing and run on those rays."""
    nc = tf.nchart
    rule = "radial_sphere" if quad.rule == "auto" else quad.rule
    if nc.dirs is not None and rule != "radial_sphere":
        raise ConfigInvalid("ode normal charts support only the radial_sphere rule")
    return rule, fold_level(tf.a, nc.symmetry)


# ---------------------------------------------------------------------------
# core evaluation


@dataclass
class Components:
    """Raw functional pieces at a time t, or at each time of a 1-D array t
    (then each piece is an array), with per-piece error estimates, and
    what eval_components ran to get them (record)."""

    t: float | np.ndarray
    mass: float | np.ndarray
    entropy: float | np.ndarray
    dirichlet: float | np.ndarray
    sc_integral: float | np.ndarray | None  # None unless asked for (want_sc)
    errs: dict = field(default_factory=dict)
    rule: str | None = None  # resolve_rule's rule and fold
    fold: Partition | None = None
    order: int | None = None  # the order kept (_climb)
    batches: int = 0  # kernel passes, every rung of the ladder included
    nodes: int = 0  # nodes evaluated, every rung of the ladder included
    # radial_sphere only: the directions that ran at the kept order, after
    # the fold, and the radial factor there ('laguerre', 'split_legendre'
    # or, for times on both sides of _LAGUERRE_MIN_KINK,
    # 'laguerre+split_legendre') with its nodes per time (the Laguerre m
    # when it ran, else the Gauss-Legendre points per piece)
    rays: int | None = None
    radial_rule: str | None = None
    radial_m: int | None = None

    def record(self) -> dict:
        """What ran, as run_expansion's meta records it."""
        rec = {
            "rule": self.rule,
            "fold": None if self.fold is None else [list(b) for b in self.fold],
            "order": self.order,
            "batches": self.batches,
        }
        if self.rays is not None:
            rec.update(rays=self.rays, radial_rule=self.radial_rule,
                       radial_m=self.radial_m)
        rec["nodes"] = self.nodes
        return rec


# nodes of one kernel pass at most, unless one time needs more: a full
# n = 4 order-24 Hermite grid (331,776 nodes) runs one time per pass
_BATCH_POINTS = 2**18


def _time_batches(tf: TestFunction, t, order: int, rule: str,
                  fold: Partition | None):
    """The kernel passes of _eval_once over the times t (1-D) at this
    order, as index arrays into t.  The Hermite grid does not depend on t,
    nor does the Laguerre radial rule, which every time whose first kink
    r_s/(4 sqrt t) lies at _LAGUERRE_MIN_KINK or beyond runs
    (_radial_nodes): those times share their nodes and run together, at
    most _BATCH_POINTS nodes per pass and one time at least.  Every other
    time runs the split rule of its own kinks, alone.  The mask of the
    times that share their nodes comes second."""
    if rule == "hermite":
        shared = np.ones(t.shape, dtype=bool)
    else:
        shared = _first_kink(tf, t) >= _LAGUERRE_MIN_KINK
    per_t = _node_count(rule, tf.nchart.n, order, fold=fold, nchart=tf.nchart)
    idx = np.flatnonzero(shared)
    step = max(1, _BATCH_POINTS // per_t)
    return ([idx[k:k + step] for k in range(0, idx.size, step)]
            + list(np.flatnonzero(~shared)[:, None])), shared


def _eval_once(tf: TestFunction, t, order: int, rule: str,
               fold: Partition | None, want_sc: bool = True):
    """The four sums over the nodes x = 2 sqrt(t) rho d of the rule
    resolve_rule gave, folded onto fold, at this order and at each time of
    the 1-D array t, (4, nt) with the Sc row NaN unless want_sc, and what
    ran: the nodes and the passes, and on radial_sphere the rays and the
    radial factor (Components).  Per node TestFunction.on_rays gives
    eta^2, kappa, beta^2, the chart density and w.g~^{-1}w, and the
    Dirichlet integrand is eta^2 (kappa^2 + beta^2 w.g~^{-1}w).

    The times of a pass share its nodes.  On the Hermite grid (m nodes)
    the radii are (nt, m); on rays (nd, 1, n) the pairs (t, rho) fold into
    one radial axis of nt nr radii, t repeated per radius, which an ode
    chart's geometry takes as it takes one time's radii.  Each time's
    block of nodes is summed on its own, contiguous, in the order of a
    pass with that time alone, so a value does not depend on the batch."""
    nc = tf.nchart
    n = nc.n
    kink = _first_kink(tf, t)
    sums = np.full((4, t.size), np.nan)
    nodes = rays = 0
    passes, shared = _time_batches(tf, t, order, rule, fold)
    for i in passes:
        dirs, rho, wts = _nodes(rule, n, order, kink[i[0]], fold, nc)
        nt, ti, per = i.size, t[i], rho.size
        s2t = 2.0 * np.sqrt(ti)
        if rule == "hermite":
            ti = ti[:, None]
            r = s2t[:, None] * rho
        else:
            ti = np.repeat(ti, per)
            r = np.outer(s2t, rho).ravel()
            rho, wts = np.tile(rho, nt), np.tile(wts, nt)
        eta2, kappa, beta2, dens, wgw = tf.on_rays(dirs, r, ti)
        # ndarray.sum, not a BLAS dot, whose last bits depend on the thread count
        wb = wts * eta2 * dens
        logu2 = np.log(eta2) - (n / 2.0) * np.log(4 * np.pi * ti) - rho * rho
        terms = [wb, wb * logu2, wb * (kappa * kappa + beta2 * wgw)]
        if want_sc:
            terms.append(wb * nc.scalar(r))
        for k, x in enumerate(terms):
            # to (nt, nodes of one time): rays (nd, nt nr) regroup by time
            x = x.reshape(-1, nt, per).swapaxes(0, 1).reshape(nt, -1)
            sums[k, i] = x.sum(axis=1)
        nodes += wb.size
        rays = len(dirs)
    ran = {"nodes": nodes, "batches": len(passes)}
    if rule == "radial_sphere":
        lag = bool(shared.any())
        names = ["laguerre"] * lag + ["split_legendre"] * bool(not shared.all())
        ran.update(rays=rays, radial_rule="+".join(names),
                   radial_m=_laguerre_m(order) if lag else order)
    return sums, ran


def check_time(tf: TestFunction, t: float, monotone: bool = False):
    """Checks, in this order, that t > 0, when monotone that u is radially
    nonincreasing (LevelSetDegenerate), and that the Gaussian fits inside
    the cutoff, t <= (r_s / C_TRUNC)^2.

    Along x = r d, with q = d.a.d and P = 1 + q r^2,
    d log u^2/dr = cut'/(r_s cut) + r (4 t q - P) / (2 t P), where
    cut' <= 0, cut = 1 on [0, r_s/2] and eta^2 is clamped (u decays with
    the Gaussian) where P <= 0; the apex, P = 1, is live.  Since
    q <= lambda_max(a), with equality along the top eigenvector, the test
    is exact: 4 t lambda_max(a) <= 1."""
    if not (t > 0):  # NaN too
        raise ConfigInvalid("t must be positive")
    if monotone:
        lam = float(np.linalg.eigvalsh(tf.a)[-1])
        if 4.0 * t * lam > 1.0:
            raise LevelSetDegenerate(
                f"u is not radially nonincreasing: 1 must be at least "
                f"4 t lambda_max(a) = {4.0 * t * lam:.6g}; the level sets "
                "are not star-shaped")
    if t > (tf.r_s / C_TRUNC) ** 2:
        raise TimeTooLarge(
            f"t={t} too large for support {tf.r_s} at truncation {C_TRUNC}: "
            "the Gaussian no longer fits inside the cutoff"
        )


def _climb(run, order, settled, want_err: bool = True):
    """(the order kept, run's result there, run's result at the rung below,
    or None for an explicit order without want_err).  Each step runs a
    rung o and the rung o - ERR_DROP below it: an explicit order takes one
    step, the measured order (None) starts at 8 and climbs by ERR_DROP
    until settled(hi, lo) accepts a rung against the one below; a rung
    past _MAX_NODES raises ConfigInvalid in _nodes before it is built."""
    o = _FIRST_RUNG if order is None else order
    hi = run(o)
    lo = run(o - ERR_DROP) if want_err or order is None else None
    while order is None and not settled(hi, lo):
        o, lo, hi = o + ERR_DROP, hi, run(o + ERR_DROP)
    return o, hi, lo


def eval_components(
    tf: TestFunction, t, quad: QuadratureSpec = QuadratureSpec(),
    want_err: bool = True, want_sc: bool = True,
) -> Components:
    """Mass, entropy, Dirichlet energy and, when want_sc, the
    scalar-curvature integral of u^2 (None otherwise) at time t, or at
    each time of a 1-D array t (then as arrays), with error estimates:
    each piece's change from the rung below the order kept (_climb).  The
    measured order keeps the first rung that moves the normalized value
    (L, or W with want_sc) by no more than its rounding floor at every
    time; on a chart that pins its rays it is _SHOT_ORDER.  Every rung
    runs all the times in as few kernel passes as their nodes allow
    (_time_batches)."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ConfigInvalid(f"t must be a number or a 1-d array, not shape {ts.shape}")
    ts = ts.reshape(-1)
    for ti in ts.tolist():
        check_time(tf, ti)
    # folded onto the blocks of a diagonal a's equal entries (lambda I: one)
    rule, fold = resolve_rule(tf, quad)
    n = tf.nchart.n
    order = quad.order
    if order is None and tf.nchart.dirs is not None:
        order = _SHOT_ORDER
    names = ("mass", "entropy", "dirichlet", "sc_integral")[:4 if want_sc else 3]
    spent = {"nodes": 0, "batches": 0}

    def run(o):
        sums, ran = _eval_once(tf, ts, o, rule, fold, want_sc)
        if np.any(sums[0] <= 0):
            raise QuadratureNotConverged("mass came out nonpositive")
        for k in spent:
            spent[k] += ran[k]
        return sums, ran

    def settled(hi, lo):
        comp = Components(ts, *hi[0][:3], hi[0][3] if want_sc else None,
                          dict(zip(names, np.abs(hi[0] - lo[0]))))
        _, err, floor = _normalized(comp, n)
        return bool(np.all(err <= floor))

    order, (hi, ran), lo = _climb(run, order, settled, want_err)
    errs = {} if lo is None else dict(zip(names, np.abs(hi - lo[0])))
    ran.update(spent, order=order)
    if np.ndim(t) == 0:  # back to numbers
        hi = hi[:, 0].tolist()
        errs = {k: float(v[0]) for k, v in errs.items()}
    else:
        t = ts
    return Components(t, *hi[:3], hi[3] if want_sc else None, errs,
                      rule=rule, fold=fold, **ran)


# an error estimate is raised to 256 eps times the size of the terms its
# functional cancels (_L_size): below that it is rounding noise, which the
# series fit would weight by its inverse square
_ROUNDING_FLOOR = 256 * np.finfo(float).eps


def _L_of(comp: Components, n: int) -> float:
    t, M = comp.t, comp.mass
    return (
        4.0 * t * comp.dirichlet
        - comp.entropy
        + M * np.log(M)
        - (n + (n / 2.0) * np.log(4 * np.pi * t)) * M
    )


def _L_size(comp: Components, n: int) -> float:
    """The sum of the sizes of the terms _L_of cancels, the two
    (n/2) log(4 pi t) M that cancel exactly (the entropy's, from log u^2,
    and the one subtracted) set aside: about 2 n M at every t, so a floor
    in its units leaves the series fit unweighted where every estimate is
    below it."""
    t, M = comp.t, comp.mass
    return (
        4.0 * t * np.abs(comp.dirichlet)
        + np.abs(comp.entropy + (n / 2.0) * np.log(4 * np.pi * t) * M)
        + M * np.abs(np.log(M))
        + n * M
    )


def _L_err(comp: Components, n: int) -> float:
    t, M = comp.t, comp.mass
    e = comp.errs
    if not e:
        return 0.0
    return (
        4.0 * t * e["dirichlet"]
        + e["entropy"]
        + (abs(np.log(M)) + 1.0 + n + (n / 2.0) * abs(np.log(4 * np.pi * t)))
        * e["mass"]
    )


def _normalized(comp: Components, n: int):
    """(value, error, rounding floor) of the unit-mass rescaling
    u / sqrt(mass): the deficit _L_of, to which W adds t times the Sc
    integral when comp has it, in its value, its error and its size; the
    floor is _ROUNDING_FLOOR of the terms the value cancels, and the
    estimate reported is the larger of error and floor."""
    t, M = comp.t, comp.mass
    val, err, size = _L_of(comp, n), _L_err(comp, n), _L_size(comp, n)
    if comp.sc_integral is not None:
        val = val + t * comp.sc_integral
        err = err + t * comp.errs.get("sc_integral", 0.0)
        size = size + t * np.abs(comp.sc_integral)
    val = val / M
    err = (err + abs(val) * comp.errs.get("mass", 0.0)) / M
    return val, err, _ROUNDING_FLOOR * size / M


def eval_L_normalized(tf, t, quad=QuadratureSpec()):
    """Log-Sobolev-type deficit of the unit-mass rescaling u / sqrt(mass)
    at time t, or at each time of a 1-D array t: (value, error estimate,
    Components.record of what ran)."""
    comp = eval_components(tf, t, quad, want_sc=False)
    val, err, floor = _normalized(comp, tf.nchart.n)
    return val, np.maximum(err, floor), comp.record()


def eval_W_normalized(tf, t, quad=QuadratureSpec()):
    """Entropy functional (deficit plus t times the curvature integral) of
    the unit-mass rescaling, as eval_L_normalized."""
    comp = eval_components(tf, t, quad, want_sc=True)
    val, err, floor = _normalized(comp, tf.nchart.n)
    return val, np.maximum(err, floor), comp.record()


# ---------------------------------------------------------------------------
# generic Gaussian integrals (the moment bridge) and volumes


def gaussian_integral(n: int, t: float, G, quad: QuadratureSpec = QuadratureSpec()):
    """pi^{-n/2} integral of exp(-|z|^2) G(x) dz with x = 2 sqrt(t) z.

    Equivalently the integral of the heat-kernel weight H^2 against G on
    flat space.  G maps (m, n) points to (m,) values.  The rule is
    quad.rule, 'auto' taken as hermite for n <= 4 and radial_sphere
    beyond, at the order _climb keeps: the measured order stops where the
    sum moves by no more than _ROUNDING_FLOOR of its terms' sizes.
    Returns (value, error estimate: the change from the rung below)."""
    rule = quad.rule
    if rule == "auto":
        rule = "hermite" if n <= 4 else "radial_sphere"

    def run(order):
        dirs, rho, W = _nodes(rule, n, order)
        X = ((2.0 * np.sqrt(t) * rho)[..., None] * dirs).reshape(-1, n)
        terms = W.ravel() * np.asarray(G(X))
        return float(terms.sum()), float(np.abs(terms).sum())  # as in _eval_once

    def settled(hi, lo):
        return abs(hi[0] - lo[0]) <= _ROUNDING_FLOOR * hi[1]

    _, (hi, _), (lo, _) = _climb(run, quad.order, settled)
    return hi, abs(hi - lo)


def ball_volume(nchart: NormalChart, r):
    """Riemannian volume of the geodesic ball of radius r at the center
    (vectorized in r): the integral of the chart's sphere areas."""
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):  # NaN too
        raise ConfigInvalid("radius must be positive")
    if np.any(r > nchart.radius * (1 + 1e-12)):
        raise SupportTooLarge("ball radius exceeds the normal chart radius")
    out = shell_volume(nchart.shell, r)
    return out if out.ndim else float(out)


def bishop_gromov_ratio(nchart: NormalChart, radii, K: float) -> np.ndarray:
    """Volume of B(p, r) divided by the space-form ball volume at each r."""
    check_finite(K, "model curvature K")
    radii = np.asarray(radii, dtype=float)
    return ball_volume(nchart, radii) / ball_volume_K(nchart.n, K, radii)
