"""Euclidean time-slicing diagnostics for the free particle in the plane.

The quantity under test: slicing the free 2D propagator in polar coordinates
with the short-time action (dr^2 + rbar^2 dphi^2)/(2 eps) and measure
r dr dphi does NOT reproduce exact heat evolution; the defect is an effective
potential

    Delta V(r) = hbar^2 / (8 r^2),

so the corrected generator H - hbar^2/(8 r^2) must be used instead.  This
module builds one-slice transfer operators for three prescriptions and
extracts Delta V numerically.

Everything is done in imaginary time: the same algebra produces the same
coefficient, and the kernels become positive Gaussians, so desk-scale
quadrature reaches 1e-10 where oscillatory real-time integrals would not.

A finding worth stating up front: with the radius of the angular term taken
as the *arithmetic* midpoint rbar = (r + r')/2, the measured coefficient is
hbar^2/(4 r^2), twice the target.  The product (geometric-mean) form
rbar = sqrt(r r') is the convention that reproduces the 1/8 coefficient, and
it is the default here; "arithmetic" remains selectable for comparison.
Both statements are pinned by tests rather than asserted.

Angular reduction used throughout: on a fixed angular mode m, the exact
2D heat kernel collapses to

    K_m(r, r') = (1/(hbar eps)) exp(-(r-r')^2/(2 hbar eps)) * E_m(z),
    E_m(z) = exp(-z) I_m(z),  z = r r' / (hbar eps),

with measure r' dr'.  Kernels use scipy's scaled Bessel function for E_m
and the closed Gaussian integral for the naive-polar angular factor; an
adaptive-doubling trapezoid of each defining angular integral is kept as an
independent oracle (it is also how the derivation is unit-tested against
full 2D quadrature).

Every kernel entry carries the Gaussian factor above, so kernels are built
and applied as bands |i - j| <= b only: b is the smallest half-width for
which every dropped entry's Gaussian factor is below 1e-40 (see
``_BAND_GAUSSIAN_BOUND``).  A kernel then costs O(n b) memory and time
instead of O(n^2); at the default grid and eps <= 1e-3, b is at most 111
of 2048 nodes.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ive

from .geometry import ModelParams

__all__ = [
    "EXACT_CARTESIAN", "NAIVE_POLAR", "CORRECTED_POLAR", "PRESCRIPTIONS",
    "MIDPOINT_RULES", "RadialGrid", "RadialWavefunction", "SliceKernelSpec",
    "KernelWidthError", "QuadratureConvergenceError", "SupportError",
    "angular_factor_exact", "angular_factor_quadrature",
    "naive_angular_factor", "naive_angular_factor_quadrature",
    "slice_kernel", "slice_step", "clear_kernel_cache", "l2_norm",
    "semigroup_defect", "mollifier_bump", "gaussian_profile",
    "default_probe_family", "EffectiveAction",
    "effective_hamiltonian_action", "EffectivePotentialTable",
    "extract_effective_potential",
]

EXACT_CARTESIAN = "exact_cartesian"
NAIVE_POLAR = "naive_polar"
CORRECTED_POLAR = "corrected_polar"
PRESCRIPTIONS = (EXACT_CARTESIAN, NAIVE_POLAR, CORRECTED_POLAR)
MIDPOINT_RULES = ("geometric", "arithmetic")


class KernelWidthError(ValueError):
    """Time step incompatible with the radial grid or the mode reduction."""


class QuadratureConvergenceError(RuntimeError):
    """Adaptive doubling failed to stabilize the angular integral."""


class SupportError(ValueError):
    """Wavefunction support reaches the grid boundary."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial nodes with trapezoid weights on [r_min, r_max]."""

    r_min: float = 0.1
    r_max: float = 8.0
    n: int = 2048

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        if self.n < 16:
            raise ValueError("need at least 16 radial nodes")

    @property
    def nodes(self):
        return np.linspace(self.r_min, self.r_max, self.n)

    @property
    def spacing(self):
        return (self.r_max - self.r_min) / (self.n - 1)

    @property
    def trapezoid_weights(self):
        w = np.full(self.n, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def key(self):
        return (self.r_min.hex(), self.r_max.hex(), self.n)


@dataclass(frozen=True)
class RadialWavefunction:
    """Samples of a fixed-angular-mode radial profile psi(r) e^{i m phi}.

    ``open_inner`` declares profiles that extend smoothly through r = 0
    (e.g. centered Gaussians with m = 0): the inner-boundary support check
    is skipped for them and slice results near r_min are then only trusted
    a few kernel widths away from it.
    """

    m: int
    grid: RadialGrid
    samples: np.ndarray
    open_inner: bool = False

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=float))
        if self.samples.shape != (self.grid.n,):
            raise ValueError("sample count must match the grid")
        if int(self.m) != self.m:
            raise ValueError("angular mode must be an integer")

    def validate(self):
        """Finite samples whose tails stay below 1e-12 of the peak."""
        if not np.all(np.isfinite(self.samples)):
            raise SupportError("non-finite samples")
        scale = float(np.max(np.abs(self.samples)))
        if scale == 0.0:
            return self
        edge = max(2, self.grid.n // 256)
        outer = float(np.max(np.abs(self.samples[-edge:])))
        if outer > 1e-12 * scale:
            raise SupportError(
                f"outer tail {outer / scale:.2e} exceeds 1e-12 of the peak")
        if not self.open_inner:
            inner = float(np.max(np.abs(self.samples[:edge])))
            if inner > 1e-12 * scale:
                raise SupportError(
                    f"inner tail {inner / scale:.2e} exceeds 1e-12 of the peak")
        return self

    @classmethod
    def from_callable(cls, fn, m, grid, open_inner=False):
        return cls(m=int(m), grid=grid, samples=fn(grid.nodes),
                   open_inner=open_inner)


@dataclass(frozen=True)
class SliceKernelSpec:
    """One Euclidean slice: step, prescription and midpoint rule."""

    eps: float
    prescription: str
    midpoint_rule: str = "geometric"

    def __post_init__(self):
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"need a finite eps > 0, got {self.eps}")
        if self.prescription not in PRESCRIPTIONS:
            raise ValueError(f"unknown prescription '{self.prescription}'")
        if self.midpoint_rule not in MIDPOINT_RULES:
            raise ValueError(f"unknown midpoint rule '{self.midpoint_rule}'")


# ---------------------------------------------------------------------------
# angular factors, each with a closed form and a doubling-quadrature route

def angular_factor_exact(z, m):
    """E_m(z) = exp(-z) I_m(z): exact-kernel angular factor (scaled Bessel)."""
    return ive(abs(int(m)), np.asarray(z, dtype=float))


def _doubling_trapezoid(sample_fn):
    """Integrate over theta in (-pi, pi] by uniform sums, doubling until stable.

    sample_fn(theta_array) -> integrand values with shape (..., ntheta);
    returns the integral along the last axis.  The integrands here are
    analytic and either periodic or exponentially small at the endpoints, so
    doubling converges geometrically; failure to stabilize indicates a
    parameter regime the kernel preconditions should have rejected.
    """
    n, tol, nmax = 256, 1e-10, 1 << 16
    prev = None
    while n <= nmax:
        theta = -math.pi + 2.0 * math.pi * (np.arange(n) + 0.5) / n
        vals = sample_fn(theta)
        cur = vals.sum(axis=-1) * (2.0 * math.pi / n)
        if prev is not None:
            scale = float(np.max(np.abs(cur))) or 1.0
            if float(np.max(np.abs(cur - prev))) <= tol * scale:
                return cur
        prev = cur
        n *= 2
    raise QuadratureConvergenceError(
        f"angular integral not stable to {tol:g} within {nmax} nodes")


def angular_factor_quadrature(z, m):
    """E_m(z) by quadrature of (1/2pi) int exp(z(cos t - 1)) cos(m t) dt."""
    z = np.asarray(z, dtype=float)
    m = abs(int(m))

    def fn(theta):
        return (np.exp(z[..., None] * (np.cos(theta) - 1.0))
                * np.cos(m * theta))

    return _doubling_trapezoid(fn) / (2.0 * math.pi)


def naive_angular_factor(a, m):
    """int_{-inf}^{inf} exp(-a t^2) cos(m t) dt = sqrt(pi/a) exp(-m^2/(4a)).

    Valid replacement for the (-pi, pi] integral only when the Gaussian tail
    beyond the cut is negligible; the kernel preconditions enforce that.
    """
    a = np.asarray(a, dtype=float)
    return np.sqrt(math.pi / a) * np.exp(-m * m / (4.0 * a))


def naive_angular_factor_quadrature(a, m):
    """The same integral restricted to (-pi, pi], by doubling quadrature."""
    a = np.asarray(a, dtype=float)
    m = abs(int(m))

    def fn(theta):
        return np.exp(-a[..., None] * theta ** 2) * np.cos(m * theta)

    return _doubling_trapezoid(fn)


# ---------------------------------------------------------------------------
# slice kernels

# At most this many kernels stay cached, least recently used evicted first.
# One extraction with three slice steps needs 12 distinct kernels (two
# prescriptions x modes 0 and 1 x three steps) and reuses 6 of them.
_KERNEL_CACHE_SIZE = 16
_KERNEL_CACHE = {}  # insertion order is recency order


def clear_kernel_cache():
    _KERNEL_CACHE.clear()


class BandedKernel:
    """Slice kernel stored as its band: ``band[i, k] = K[i, i + k - b]``.

    Entries with |i - j| > b are not stored (their Gaussian factor is below
    ``_BAND_GAUSSIAN_BOUND``); band slots that fall off the grid hold zeros.
    ``K @ v`` applies the band; ``toarray()`` rebuilds the dense matrix.
    """

    def __init__(self, band):
        self.band = band
        self.half_width = (band.shape[1] - 1) // 2

    @property
    def nbytes(self):
        return self.band.nbytes

    def __matmul__(self, v):
        b = self.half_width
        windows = np.lib.stride_tricks.sliding_window_view(np.pad(v, b), 2 * b + 1)
        return np.einsum("ik,ik->i", self.band, windows)

    def toarray(self):
        n = self.band.shape[0]
        cols, inside = _band_columns(n, self.half_width)
        dense = np.zeros((n, n))
        dense[np.nonzero(inside)[0], cols[inside]] = self.band[inside]
        return dense


def _band_columns(n, b):
    """Column index j = i + k - b of each band slot, and whether it is on the grid."""
    cols = np.arange(n)[:, None] + np.arange(-b, b + 1)
    return cols, (cols >= 0) & (cols < n)


# Kernels drop entry (i, j) only where its Gaussian factor
# exp(-(r_i - r_j)^2 / (2 hbar eps)) is below this bound, exp(-92.1).
# It sits far below double rounding on purpose.  The extraction divides
# (psi - T psi)/eps by psi at samples down to 1e-6 of the peak
# and Richardson extrapolation amplifies that further, so a truncation error
# at rounding level (1e-16) would show in the reported Delta V.  At 1e-40
# truncation is out of reach of every such amplification, and the band is
# only sqrt(92.1 / 36.8) = 1.6x wider than a cut at 1e-16.
_BAND_GAUSSIAN_BOUND = 1e-40


def _validate_widths(spec, grid, p):
    width = math.sqrt(p.hbar * spec.eps)
    span = grid.r_max - grid.r_min
    if width >= span / 8.0:
        raise KernelWidthError(
            f"kernel width {width:.3g} >= (r_max - r_min)/8 = {span / 8.0:.3g}")
    if width < 4.0 * grid.spacing:
        raise KernelWidthError(
            f"kernel width {width:.3g} under-resolved by grid spacing "
            f"{grid.spacing:.3g}; need width >= 4 spacings")
    if spec.prescription in (NAIVE_POLAR, CORRECTED_POLAR):
        # angular Gaussian must die before the +-pi cut at the innermost radius
        expo = (math.pi * grid.r_min) ** 2 / (2.0 * p.hbar * spec.eps)
        if expo < 26.0:
            raise KernelWidthError(
                f"angular tail exp(-{expo:.1f}) too heavy at r_min; "
                f"decrease eps or increase r_min")


def _band_half_width(spec, grid, p):
    """Smallest b whose dropped entries, |i - j| >= b + 1, have Gaussian
    factor below _BAND_GAUSSIAN_BOUND, capped at n - 1 (nothing dropped)."""
    reach = math.sqrt(-2.0 * p.hbar * spec.eps * math.log(_BAND_GAUSSIAN_BOUND))
    return min(int(reach / grid.spacing), grid.n - 1)


def _midpoint_radius(r, rp, rule):
    if rule == "geometric":
        return np.sqrt(r * rp)
    return 0.5 * (r + rp)


def slice_kernel(m, spec, grid, p):
    """Mode-m transfer kernel K with (T psi)_i = sum_j K_ij psi_j r_j w_j.

    Returned as a BandedKernel; a cache hit returns the same object.
    """
    m = abs(int(m))
    key = (spec.prescription, spec.midpoint_rule, m, float(spec.eps).hex(),
           float(p.hbar).hex(), grid.key())
    hit = _KERNEL_CACHE.pop(key, None)
    if hit is not None:
        _KERNEL_CACHE[key] = hit  # re-inserted as the most recently used
        return hit
    _validate_widths(spec, grid, p)
    b = _band_half_width(spec, grid, p)
    he = p.hbar * spec.eps
    nodes = grid.nodes
    cols, inside = _band_columns(grid.n, b)
    r = nodes[:, None]
    rp = nodes[np.clip(cols, 0, grid.n - 1)]
    gauss = np.exp(-((r - rp) ** 2) / (2.0 * he))
    if spec.prescription == EXACT_CARTESIAN:
        K = gauss * angular_factor_exact(r * rp / he, m) / he
    else:
        rbar = _midpoint_radius(r, rp, spec.midpoint_rule)
        a = rbar ** 2 / (2.0 * he)
        K = gauss * naive_angular_factor(a, m) / (2.0 * math.pi * he)
        if spec.prescription == CORRECTED_POLAR:
            # e^{-eps(H - hbar^2/(8r^2))/hbar} ~ e^{+eps hbar/(8 r^2)} e^{-eps H/hbar}
            K = np.exp(spec.eps * p.hbar / (8.0 * nodes ** 2))[:, None] * K
    kernel = BandedKernel(np.where(inside, K, 0.0))
    _KERNEL_CACHE[key] = kernel
    if len(_KERNEL_CACHE) > _KERNEL_CACHE_SIZE:
        del _KERNEL_CACHE[next(iter(_KERNEL_CACHE))]
    return kernel


def slice_step(psi, spec, p):
    """Propagate one Euclidean slice; returns a new RadialWavefunction."""
    psi.validate()
    K = slice_kernel(psi.m, spec, psi.grid, p)
    rw = psi.grid.nodes * psi.grid.trapezoid_weights
    out = K @ (psi.samples * rw)
    return replace(psi, samples=out)


def l2_norm(psi):
    """2D L2 norm of psi(r) e^{i m phi}: sqrt(2 pi int |psi|^2 r dr)."""
    rw = psi.grid.nodes * psi.grid.trapezoid_weights
    return math.sqrt(2.0 * math.pi * float(np.sum(psi.samples ** 2 * rw)))


def semigroup_defect(psi, spec, p):
    """sup |T_eps psi - T_{eps/2} T_{eps/2} psi| / sup |psi|.

    Composed directly from the kernels: heat evolution spreads any
    compactly supported profile, so the intermediate slice would trip the
    support validation even though the composition itself is well defined.
    """
    psi.validate()
    half = replace(spec, eps=0.5 * spec.eps)
    K1 = slice_kernel(psi.m, spec, psi.grid, p)
    Kh = slice_kernel(psi.m, half, psi.grid, p)
    rw = psi.grid.nodes * psi.grid.trapezoid_weights
    one = K1 @ (psi.samples * rw)
    two = Kh @ ((Kh @ (psi.samples * rw)) * rw)
    return float(np.max(np.abs(one - two)) / np.max(np.abs(psi.samples)))


def mollifier_bump(center, width, scale_power=0):
    """Smooth compactly supported profile exp(-1/(1-u^2)) on |u| < 1.

    u = (r - center)/width; optional r^scale_power prefactor gives mode-m
    profiles their r^{|m|} behavior without touching the compact support.
    Exact zeros outside the support satisfy the boundary-tail invariant by
    construction.  Good for norm and semigroup checks; poor as a probe for
    effective-Hamiltonian extraction, where its unbounded high derivatives
    near the support edges push the eps expansion out of its asymptotic
    regime (use gaussian_profile there).
    """

    def fn(r):
        u = (r - center) / width
        out = np.zeros_like(r)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        if scale_power:
            out *= r ** scale_power
        return out

    return fn


def gaussian_profile(center, sigma, power=0):
    """Analytic probe r^power exp(-(r-center)^2 / (2 sigma^2)).

    All derivatives stay modest, so Richardson extrapolation of the slice
    quotient reaches its asymptotic regime at desk-scale eps.  The profile
    extends smoothly through r = 0, so wrap it with open_inner=True.
    """

    def fn(r):
        out = np.exp(-((r - center) ** 2) / (2.0 * sigma ** 2))
        if power:
            out = out * r ** power
        return out

    return fn


def default_probe_family(grid):
    """Three analytic probes (modes 0, 1, 0) for potential extraction."""
    return [
        RadialWavefunction.from_callable(
            gaussian_profile(2.0, 0.45), 0, grid, open_inner=True),
        RadialWavefunction.from_callable(
            gaussian_profile(1.8, 0.5, power=1), 1, grid, open_inner=True),
        RadialWavefunction.from_callable(
            gaussian_profile(2.2, 0.5, power=2), 0, grid, open_inner=True),
    ]


# ---------------------------------------------------------------------------
# effective Hamiltonian and potential extraction

@dataclass
class EffectiveAction:
    """Extrapolated (H_eff psi)(r) samples with per-sample quality flags."""

    grid: RadialGrid
    m: int
    prescription: str
    values: np.ndarray
    flags: np.ndarray = field(repr=False)


def _check_geometric(eps_list):
    eps = sorted((float(e) for e in eps_list), reverse=True)
    if len(eps) < 3:
        raise ValueError("need at least 3 slice steps")
    ratios = [eps[i + 1] / eps[i] for i in range(len(eps) - 1)]
    if max(ratios) - min(ratios) > 1e-12:
        raise ValueError("slice steps must form a geometric sequence")
    if ratios[0] == 1.0:  # Richardson weights 1/(1 - ratio^k) would divide by 0
        raise ValueError("slice steps must be distinct")
    return eps, ratios[0]


def effective_hamiltonian_action(psi, prescription, eps_list, p,
                                 midpoint_rule="geometric"):
    """H_eff psi = hbar (psi - T_eps psi)/eps, Richardson-extrapolated to eps -> 0.

    The per-eps quotient carries an expansion in integer powers of eps;
    successive Neville stages remove eps^1 .. eps^{L-1}.  Samples whose raw
    sequence is not settling (last difference not smaller than the previous
    one) are flagged; their extrapolated values are kept but should be read
    with the flag.
    """
    eps_desc, rho = _check_geometric(eps_list)
    rows = []
    for eps in eps_desc:
        spec = SliceKernelSpec(eps=eps, prescription=prescription,
                               midpoint_rule=midpoint_rule)
        out = slice_step(psi, spec, p)
        rows.append(p.hbar * (psi.samples - out.samples) / eps)
    table = [np.array(r) for r in rows]
    L = len(table)
    for k in range(1, L):
        nxt = []
        for j in range(L - k):
            w = rho ** k
            nxt.append((table[j + 1] - w * table[j]) / (1.0 - w))
        table = nxt
    scale = float(np.max(np.abs(rows[-1]))) or 1.0
    d_last = np.abs(rows[-1] - rows[-2])
    d_prev = np.abs(rows[-2] - rows[-3])
    flags = (d_last >= d_prev) & (d_last > 1e-12 * scale)
    return EffectiveAction(grid=psi.grid, m=psi.m, prescription=prescription,
                           values=table[0], flags=flags)


@dataclass
class EffectivePotentialTable:
    """Per-radius effective potential with family spread and the 1/(8 r^2) row."""

    r: np.ndarray
    delta_v: np.ndarray
    spread: np.ndarray
    predicted: np.ndarray
    relative_error: np.ndarray
    skipped: list
    meta: dict


def extract_effective_potential(psi_family, r_samples, eps_list, p,
                                midpoint_rule="geometric",
                                prescription=NAIVE_POLAR):
    """Delta V(r) = [(H_presc - H_exact) psi](r) / psi(r), family-averaged.

    Radii are snapped to the nearest grid node (the action samples live
    there).  Samples where some family member falls below 1e-6 of its
    peak are skipped and reported.  The predicted column hbar^2/(8 r^2) is
    the comparison target, not an input to the extraction; with the
    corrected prescription the table should instead sit near zero.
    ``meta["richardson_flagged"]`` counts, over the family, the reported
    samples whose Richardson sequence was flagged as not settling, for the
    polar and the exact route.

    Every rule the slice steps would raise is checked before the first
    kernel is built: geometric steps, each step's kernel width under both
    prescriptions, each probe's support, and at least one radius where
    every probe clears 1e-6 of its peak.
    """
    if prescription == EXACT_CARTESIAN:
        raise ValueError("extraction compares a polar prescription against "
                         "the exact kernel; use naive_polar or corrected_polar")
    psi_family = list(psi_family)
    if len(psi_family) < 3:
        raise ValueError("need a family of at least 3 test profiles")
    grid = psi_family[0].grid
    for psi in psi_family:
        if psi.grid != grid:
            raise ValueError("family members must share one grid")
    for eps in _check_geometric(eps_list)[0]:
        for presc in (prescription, EXACT_CARTESIAN):
            _validate_widths(SliceKernelSpec(eps, presc, midpoint_rule), grid, p)
    for psi in psi_family:
        psi.validate()
    nodes = grid.nodes
    idx = np.array([int(np.argmin(np.abs(nodes - float(rr)))) for rr in r_samples])
    floor_ok = np.ones(len(idx), dtype=bool)
    for psi in psi_family:
        peak = float(np.max(np.abs(psi.samples)))
        floor_ok &= np.abs(psi.samples[idx]) >= 1e-6 * peak
    if not floor_ok.any():
        raise ValueError("no extraction radius where every probe exceeds "
                         "1e-6 of its peak")
    kept = idx[floor_ok]
    ratios = []
    flagged = {"polar": 0, "exact": 0}
    for psi in psi_family:
        naive = effective_hamiltonian_action(
            psi, prescription, eps_list, p, midpoint_rule=midpoint_rule)
        exact = effective_hamiltonian_action(psi, EXACT_CARTESIAN, eps_list, p)
        ratios.append((naive.values - exact.values) / np.where(
            psi.samples == 0.0, np.nan, psi.samples))
        flagged["polar"] += int(np.count_nonzero(naive.flags[kept]))
        flagged["exact"] += int(np.count_nonzero(exact.flags[kept]))
    rows_r, rows_dv, rows_spread, skipped = [], [], [], []
    for k, i in enumerate(idx):
        if not floor_ok[k]:
            skipped.append(float(nodes[i]))
            continue
        vals = np.array([ratio[i] for ratio in ratios])
        rows_r.append(float(nodes[i]))
        rows_dv.append(float(np.mean(vals)))
        rows_spread.append(float(np.max(vals) - np.min(vals)))
    r = np.array(rows_r)
    dv = np.array(rows_dv)
    predicted = p.hbar ** 2 / (8.0 * r ** 2)
    return EffectivePotentialTable(
        r=r, delta_v=dv, spread=np.array(rows_spread), predicted=predicted,
        relative_error=(dv - predicted) / predicted, skipped=skipped,
        meta={"midpoint_rule": midpoint_rule, "eps_list": sorted(map(float, eps_list), reverse=True),
              "family_size": len(psi_family), "hbar": p.hbar,
              "prescription": prescription, "richardson_flagged": flagged})
