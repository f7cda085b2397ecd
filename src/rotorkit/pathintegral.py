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
and the closed Gaussian integral for the naive-polar angular factor.  The
independent oracle for both, an adaptive-doubling trapezoid of each
defining angular integral, lives in ``tests/test_pathintegral.py``.

Every kernel entry carries the Gaussian factor above, so kernels are built
and applied as bands |i - j| <= b only: b is the smallest half-width for
which every dropped entry's Gaussian factor is below 1e-40 (see
``_BAND_GAUSSIAN_BOUND``).  A kernel then costs O(n b) memory and time
instead of O(n^2); at the default grid and eps <= 1e-3, b is at most 111
of 2048 nodes.  Every kernel is built one way: the rows its caller asks
for (every row by default), 2 b + 1 entries each, evaluated and applied in
blocks of ``_BLOCK_ROWS`` rows, so a build or an application holds its
band and one block's temporaries (see ``slice_kernel``).

The extraction reads the action only at the nodes nearest its radii, so
at every slice step it builds only those kernel rows (see
``effective_hamiltonian_action``).  At the defaults, 26 rows of 2048, an
exact kernel set costs 26 x (223 + 157 + 111) = 12,766 Bessel values over
eps = 1e-3, 5e-4 and 2.5e-4.

Kernels are owned by their caller: ``slice_kernel`` keeps nothing and
builds a new kernel on every call.  The extraction builds each kernel
once per slice step and angular mode, applies it to every probe of that
mode and frees it before it builds the next one, so it holds one band at
a time, and ``extraction_peak_bytes`` sizes that peak before any kernel
is built.

A probe's support is checked once, when its RadialWavefunction is built,
and a RadialGrid keeps its nodes and trapezoid measure r w, so no slice
step or extraction recomputes either.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.special import ive

from .geometry import MEMORY_BUDGET

__all__ = [
    "EXACT_CARTESIAN", "NAIVE_POLAR", "CORRECTED_POLAR", "PRESCRIPTIONS",
    "MIDPOINT_RULES", "RadialGrid", "RadialWavefunction", "SliceKernelSpec",
    "KernelWidthError", "SupportError", "angular_factor_exact",
    "naive_angular_factor", "slice_kernel", "slice_step", "semigroup_defect",
    "mollifier_bump", "gaussian_profile",
    "default_probe_family", "EffectiveAction",
    "effective_hamiltonian_action", "EffectivePotentialTable",
    "extraction_peak_bytes", "check_extraction_sizes",
    "extract_effective_potential",
]

EXACT_CARTESIAN = "exact_cartesian"
NAIVE_POLAR = "naive_polar"
CORRECTED_POLAR = "corrected_polar"
PRESCRIPTIONS = (EXACT_CARTESIAN, NAIVE_POLAR, CORRECTED_POLAR)
MIDPOINT_RULES = ("geometric", "arithmetic")


class KernelWidthError(ValueError):
    """Time step incompatible with the radial grid or the mode reduction."""


class SupportError(ValueError):
    """Wavefunction support reaches the grid boundary."""


def _read_only(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial nodes and their trapezoid measure on [r_min, r_max],
    each computed on first use and kept read-only."""

    r_min: float = 0.1
    r_max: float = 8.0
    n: int = 2048

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        if self.n < 16:
            raise ValueError("need at least 16 radial nodes")

    @cached_property
    def nodes(self):
        return _read_only(np.linspace(self.r_min, self.r_max, self.n))

    @property
    def spacing(self):
        return (self.r_max - self.r_min) / (self.n - 1)

    @cached_property
    def measure(self):
        """r w at each node: the radial measure r dr under the trapezoid rule."""
        w = np.full(self.n, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        w *= self.nodes
        return _read_only(w)


@dataclass(frozen=True)
class RadialWavefunction:
    """Samples of a fixed-angular-mode radial profile psi(r) e^{i m phi}.

    Checked once, when built: finite samples whose tails stay below 1e-12
    of their ``peak`` max|psi| (else SupportError), kept as a read-only copy.

    ``open_inner`` declares profiles that extend smoothly through r = 0
    (e.g. centered Gaussians with m = 0): the inner-boundary support check
    is skipped for them and slice results near r_min are then only trusted
    a few kernel widths away from it.
    """

    m: int
    grid: RadialGrid
    samples: np.ndarray
    open_inner: bool = False
    peak: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        samples = _read_only(np.array(self.samples, dtype=float))
        object.__setattr__(self, "samples", samples)
        if samples.shape != (self.grid.n,):
            raise ValueError("sample count must match the grid")
        if int(self.m) != self.m:
            raise ValueError("angular mode must be an integer")
        if not np.all(np.isfinite(samples)):
            raise SupportError("non-finite samples")
        peak = float(np.max(np.abs(samples)))
        object.__setattr__(self, "peak", peak)
        edge = max(2, self.grid.n // 256)
        outer = float(np.max(np.abs(samples[-edge:])))
        if outer > 1e-12 * peak:
            raise SupportError(
                f"outer tail {outer / peak:.2e} exceeds 1e-12 of the peak")
        if not self.open_inner:
            inner = float(np.max(np.abs(samples[:edge])))
            if inner > 1e-12 * peak:
                raise SupportError(
                    f"inner tail {inner / peak:.2e} exceeds 1e-12 of the peak")

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
# angular factors in closed form

def angular_factor_exact(z, m):
    """E_m(z) = exp(-z) I_m(z): exact-kernel angular factor (scaled Bessel)."""
    return ive(abs(int(m)), np.asarray(z, dtype=float))


def naive_angular_factor(a, m):
    """int_{-inf}^{inf} exp(-a t^2) cos(m t) dt = sqrt(pi/a) exp(-m^2/(4a)).

    Valid replacement for the (-pi, pi] integral only when the Gaussian tail
    beyond the cut is negligible; the kernel preconditions enforce that.
    """
    a = np.asarray(a, dtype=float)
    return np.sqrt(math.pi / a) * np.exp(-m * m / (4.0 * a))


# ---------------------------------------------------------------------------
# slice kernels

class BandedKernel:
    """Slice kernel stored as band rows: ``band[k, c] = K[i, i + c - b]`` for
    grid row ``i = rows[k]``.

    Entries with |i - j| > b are not stored (their Gaussian factor is below
    ``_BAND_GAUSSIAN_BOUND``); band slots that fall off the grid hold zeros.
    ``K @ v`` returns (K v) at the kernel's rows, ``_BLOCK_ROWS`` at a time.
    """

    def __init__(self, band, rows):
        self.band = band
        self.rows = rows
        self.half_width = (band.shape[1] - 1) // 2

    @property
    def nbytes(self):
        return self.band.nbytes

    def __matmul__(self, v):
        b = self.half_width
        windows = np.lib.stride_tricks.sliding_window_view(np.pad(v, b), 2 * b + 1)
        out = np.empty(len(self.rows))
        for start in range(0, len(self.rows), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            np.einsum("ik,ik->i", self.band[block], windows[self.rows[block]],
                      out=out[block])
        return out


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


def _band_half_width(eps, grid, p):
    """Smallest b whose dropped entries, |i - j| >= b + 1, have Gaussian
    factor below _BAND_GAUSSIAN_BOUND, capped at n - 1 (nothing dropped)."""
    reach = math.sqrt(-2.0 * p.hbar * eps * math.log(_BAND_GAUSSIAN_BOUND))
    return min(int(reach / grid.spacing), grid.n - 1)


def _midpoint_radius(r, rp, rule):
    if rule == "geometric":
        return np.sqrt(r * rp)
    return 0.5 * (r + rp)


def _entries(m, spec, he, r, rp, out):
    """Kernel entries at radii pairs (r, r'), before the corrected row
    factor, written to ``out``.  The angular factor is evaluated first and
    its argument freed before the Gaussian is multiplied into it, so a
    block holds at most about 5 temporary doubles per entry (see
    _build_bytes)."""
    if spec.prescription == EXACT_CARTESIAN:
        entries = angular_factor_exact(r * rp / he, m)
        norm = he
    else:
        a = _midpoint_radius(r, rp, spec.midpoint_rule) ** 2 / (2.0 * he)
        entries = naive_angular_factor(a, m)
        del a
        norm = 2.0 * math.pi * he
    entries *= np.exp(-((r - rp) ** 2) / (2.0 * he))
    np.divide(entries, norm, out=out)


# Rows of a kernel evaluated or applied at once (see _build_bytes).
_BLOCK_ROWS = 256


def slice_kernel(m, spec, grid, p, rows=None):
    """Mode-m transfer kernel K with (T psi)_i = sum_j K_ij psi_j r_j w_j.

    ``rows`` are the grid indices i whose kernel rows are built, in the
    order given, repeats allowed (None: every row).  Returned as a new
    BandedKernel on every call; the caller owns it.

    Each row i is evaluated at offsets -b..b, the pair (r_i, r_j) for
    j = i + d; slots off the grid read the nearest end node's radius and
    are zeroed.  Rows are evaluated ``_BLOCK_ROWS`` at a time into the
    band, so a build holds the band and one block's temporaries.  An entry
    depends on its own pair of radii alone, so its bits do not depend on
    which rows are built or how they are blocked.

    Before the corrected row factor, every term depends on a pair of radii
    only through (r - r')^2, r r', sqrt(r r') or (r + r')/2.  IEEE
    multiplication and addition commute exactly and r - r' = -(r' - r), so
    (r', r) rounds to the same bits as (r, r'): K[i, j] is bitwise K[j, i].
    The corrected prescription's factor exp(eps hbar / (8 r_i^2)) depends
    on the row alone, so it breaks the symmetry; it is applied last, to
    each built row.
    """
    m = abs(int(m))
    _validate_widths(spec, grid, p)
    n = grid.n
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    if rows.ndim != 1 or (rows.size and not 0 <= rows.min() <= rows.max() < n):
        raise ValueError(f"rows must be a 1-D array of indices into {n} nodes")
    b = _band_half_width(spec.eps, grid, p)
    he = p.hbar * spec.eps
    nodes = grid.nodes
    band = np.empty((len(rows), 2 * b + 1))
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        cols = block[:, None] + np.arange(-b, b + 1)
        off = (cols < 0) | (cols >= n)
        rp = nodes[np.clip(cols, 0, n - 1, out=cols)]
        del cols
        out = band[start:start + _BLOCK_ROWS]
        _entries(m, spec, he, nodes[block][:, None], rp, out)
        out[off] = 0.0
    if spec.prescription == CORRECTED_POLAR:
        # e^{-eps(H - hbar^2/(8r^2))/hbar} ~ e^{+eps hbar/(8 r^2)} e^{-eps H/hbar}
        band *= np.exp(spec.eps * p.hbar / (8.0 * nodes[rows] ** 2))[:, None]
    return BandedKernel(band, rows)


def slice_step(psi, kernel):
    """Propagate one Euclidean slice with a kernel that slice_kernel built
    for psi's mode and grid; returns (T psi) at the kernel's rows."""
    return kernel @ (psi.samples * psi.grid.measure)


def semigroup_defect(psi, spec, p):
    """sup |T_eps psi - T_{eps/2} T_{eps/2} psi| / sup |psi|.

    Composed directly from the kernels: heat evolution spreads any
    compactly supported profile, so the intermediate slice could fail
    RadialWavefunction's support rule even though the composition itself
    is well defined.
    """
    half = replace(spec, eps=0.5 * spec.eps)
    K1 = slice_kernel(psi.m, spec, psi.grid, p)
    Kh = slice_kernel(psi.m, half, psi.grid, p)
    one = slice_step(psi, K1)
    two = Kh @ (slice_step(psi, Kh) * psi.grid.measure)
    return float(np.max(np.abs(one - two)) / psi.peak)


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
    """Extrapolated (H_eff psi)(r) samples with per-sample quality flags,
    at the grid indices ``rows``."""

    rows: np.ndarray
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


def _shared_grid(psi_family):
    if not psi_family:
        raise ValueError("need at least one profile")
    grid = psi_family[0].grid
    if any(psi.grid != grid for psi in psi_family):
        raise ValueError("family members must share one grid")
    return grid


def effective_hamiltonian_action(psi_family, prescription, eps_list, p,
                                 midpoint_rule="geometric", rows=None):
    """H_eff psi = hbar (psi - T_eps psi)/eps, Richardson-extrapolated to eps -> 0.

    Returns one EffectiveAction per member of ``psi_family`` (profiles on
    one grid), in family order, at the grid indices ``rows`` (None: every
    node).  Every member's support was checked when it was built (see
    RadialWavefunction).  Each step's kernel for each angular mode |m| is
    built once, applied to every member of that mode and released before
    the next kernel is built, so one band is held at a time.  Every step
    builds only the kernel rows in ``rows``, and the flags' scale reads no
    quotient (see _extrapolate), so the values and flags at ``rows`` are
    bitwise those of the action on the whole grid.

    The per-eps quotient carries an expansion in integer powers of eps;
    successive Neville stages remove eps^1 .. eps^{L-1}.  Samples whose raw
    sequence is not settling (last difference not smaller than the previous
    one) are flagged; their extrapolated values are kept but should be read
    with the flag.
    """
    eps_desc, rho = _check_geometric(eps_list)
    psi_family = list(psi_family)
    grid = _shared_grid(psi_family)
    rows = np.arange(grid.n) if rows is None else np.asarray(rows, dtype=np.intp)
    modes = {}  # |m| -> indices of the members of that mode
    for k, psi in enumerate(psi_family):
        modes.setdefault(abs(int(psi.m)), []).append(k)
    quotients = [[] for _ in psi_family]
    for eps in eps_desc:
        spec = SliceKernelSpec(eps=eps, prescription=prescription,
                               midpoint_rule=midpoint_rule)
        for m, members in modes.items():
            kernel = slice_kernel(m, spec, grid, p, rows=rows)
            for k in members:
                psi = psi_family[k]
                quotients[k].append(
                    p.hbar * (psi.samples[rows] - slice_step(psi, kernel)) / eps)
            del kernel
    return [_extrapolate(psi.peak, psi_quotients, rho, rows, p.hbar,
                         eps_desc[-1])
            for psi, psi_quotients in zip(psi_family, quotients)]


def _extrapolate(peak, quotients, rho, rows, hbar, eps_min):
    """Neville-Richardson limit of one member's per-eps quotients at
    ``rows``, with flags.

    A flag needs the last difference to be no smaller than the previous
    one and above 1e-12 of hbar peak / eps_min (peak: max|psi|).  That scale
    is the size of each of the two terms that the smallest step's quotient
    hbar (psi - T psi) / eps subtracts, so the floor sits at that
    cancellation's rounding level; it reads the probe alone, not any
    quotient or row.
    """
    scale = hbar * peak / eps_min
    table = quotients
    L = len(table)
    for k in range(1, L):
        nxt = []
        for j in range(L - k):
            w = rho ** k
            nxt.append((table[j + 1] - w * table[j]) / (1.0 - w))
        table = nxt
    d_last = np.abs(quotients[-1] - quotients[-2])
    d_prev = np.abs(quotients[-2] - quotients[-3])
    flags = (d_last >= d_prev) & (d_last > 1e-12 * scale)
    return EffectiveAction(rows=rows, values=table[0], flags=flags)


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


# Per-unit costs of an extraction, measured with tracemalloc (probe
# construction included) at 2048 to 1,000,000 nodes and 1 to 2048 radii,
# and by peak RSS of ``rotorkit pathintegral`` at 26, 5e4 and 1e5 radii.
# A kernel of n_rows rows holds its band, n_rows x (2 b + 1) doubles.  A
# build and an application each hold beside the band one block's
# temporaries, for a block of min(n_rows, _BLOCK_ROWS) rows: the build
# 4.2 to 4.6 (exact) and 5.2 to 5.5 (polar) doubles per block slot, the
# application one block's windows; counted as 6.  Beside the kernel the
# extraction holds vectors of n doubles (grid nodes and measure, probes
# and the temporaries of building one, one slice step's weighted and
# padded input): 7.3 to 7.7 of them measured, counted as 10.  Each
# extraction radius costs about 1.9 kB through the snapped index, the
# table row and the payload row written for it.
_BUILD_TEMPORARIES = 6
_HELD_VECTORS = 10
_BYTES_PER_RADIUS = 2048


def _build_bytes(n, b, n_rows):
    """Peak bytes of one slice_kernel call with half-width b on n nodes,
    for n_rows rows, or of its application, together with the
    extraction's vectors."""
    held_rows = n_rows + _BUILD_TEMPORARIES * min(n_rows, _BLOCK_ROWS)
    return 8 * held_rows * (2 * b + 1) + 8 * _HELD_VECTORS * n


def extraction_peak_bytes(grid, eps_list, p, n_radii):
    """Peak bytes of one extraction, estimated from its sizes alone.

    The extraction holds one kernel at a time (see
    effective_hamiltonian_action), so its peak is one build.  Every step's
    kernels are built for the extraction's rows, at most one per radius
    (see slice_kernel).  A build grows with the half-width b, which grows
    with eps, so the peak is the largest step's build.  Added to that, the
    radius samples.  Pure: no array is allocated.
    """
    b = _band_half_width(max(eps_list), grid, p)
    return (_build_bytes(grid.n, b, min(grid.n, n_radii))
            + _BYTES_PER_RADIUS * n_radii)


def check_extraction_sizes(grid, eps_list, p, n_radii, prescription,
                           midpoint_rule):
    """The extraction's entry rules that need its sizes but not its probes.

    Geometric steps, each step's kernel width under the polar and the exact
    prescription, and extraction_peak_bytes within MEMORY_BUDGET.  Nothing
    is allocated, so a caller can run these before it sizes the probes and
    radii from the same inputs.
    """
    for eps in _check_geometric(eps_list)[0]:
        for presc in (prescription, EXACT_CARTESIAN):
            _validate_widths(SliceKernelSpec(eps, presc, midpoint_rule), grid, p)
    need = extraction_peak_bytes(grid, eps_list, p, n_radii)
    if need > MEMORY_BUDGET:
        raise ValueError(
            f"extraction on {grid.n} nodes at {n_radii} radii needs an "
            f"estimated {need} bytes, over the {MEMORY_BUDGET} byte budget")


def _nearest_nodes(nodes, r):
    """Index of the node nearest each radius, as ``np.argmin`` picks it.

    ``nodes`` ascends.  Left of the first node at or above r, the distance
    r - node falls as the node rises, and right of it node - r rises, so
    the nearest node is one of those two, the lower one on a tie, which is
    argmin's first-index choice.  Where rounding could tie the lower one
    with its own left neighbour (|r| far beyond the grid), or r is NaN,
    argmin itself decides.
    """
    r = np.asarray(r, dtype=float).ravel()
    last = len(nodes) - 1
    j = np.searchsorted(nodes, r)
    lo = np.maximum(j - 1, 0)
    hi = np.minimum(j, last)
    d_lo = np.abs(nodes[lo] - r)
    idx = np.where(d_lo <= np.abs(nodes[hi] - r), lo, hi)
    flat = (idx == lo) & (lo > 0) & ~(np.abs(nodes[lo - 1] - r) > d_lo)
    for k in np.flatnonzero(flat):
        idx[k] = np.argmin(np.abs(nodes - r[k]))
    return idx


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
    kernel is built: those of check_extraction_sizes (geometric steps,
    each step's kernel width under both prescriptions, the memory
    estimate) and at least one radius where every probe clears 1e-6 of
    its peak.  Each probe's support was checked when it was built (see
    RadialWavefunction).
    """
    if prescription == EXACT_CARTESIAN:
        raise ValueError("extraction compares a polar prescription against "
                         "the exact kernel; use naive_polar or corrected_polar")
    psi_family = list(psi_family)
    if len(psi_family) < 3:
        raise ValueError("need a family of at least 3 test profiles")
    grid = _shared_grid(psi_family)
    check_extraction_sizes(grid, eps_list, p, len(r_samples), prescription,
                           midpoint_rule)
    nodes = grid.nodes
    idx = _nearest_nodes(nodes, r_samples)
    floor_ok = np.ones(len(idx), dtype=bool)
    for psi in psi_family:
        floor_ok &= np.abs(psi.samples[idx]) >= 1e-6 * psi.peak
    if not floor_ok.any():
        raise ValueError("no extraction radius where every probe exceeds "
                         "1e-6 of its peak")
    kept = idx[floor_ok]
    # the action is wanted at each kept node once; at[k] locates kept[k]
    rows, at = np.unique(kept, return_inverse=True)
    polar = effective_hamiltonian_action(
        psi_family, prescription, eps_list, p, midpoint_rule=midpoint_rule,
        rows=rows)
    exact = effective_hamiltonian_action(psi_family, EXACT_CARTESIAN, eps_list,
                                         p, rows=rows)
    ratios = [(naive.values - ex.values) / np.where(
        psi.samples[rows] == 0.0, np.nan, psi.samples[rows])
        for psi, naive, ex in zip(psi_family, polar, exact)]
    flagged = {"polar": sum(int(np.count_nonzero(a.flags[at])) for a in polar),
               "exact": sum(int(np.count_nonzero(a.flags[at])) for a in exact)}
    # one row of family values per kept radius; a row reduces in the same
    # order as the 1-D array of its values, so each entry is unchanged
    vals = np.stack(ratios, axis=1)[at]
    r = nodes[kept]
    dv = np.mean(vals, axis=1)
    predicted = p.hbar ** 2 / (8.0 * r ** 2)
    return EffectivePotentialTable(
        r=r, delta_v=dv, spread=np.max(vals, axis=1) - np.min(vals, axis=1),
        predicted=predicted, relative_error=(dv - predicted) / predicted,
        skipped=nodes[idx[~floor_ok]].tolist(),
        meta={"midpoint_rule": midpoint_rule, "eps_list": sorted(map(float, eps_list), reverse=True),
              "family_size": len(psi_family), "hbar": p.hbar,
              "prescription": prescription, "richardson_flagged": flagged})
