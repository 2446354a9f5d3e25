"""Gridded estimation of the bracket invariant on 2D windows.

The invariant is the infimum, over compactly supported pairs (F, G)
with F <= 0 on X0, F >= 1 on X1, G <= 0 on Y0, G >= 1 on Y1, of the
maximum of the Poisson bracket {F, G}.  On a 2D window with coordinates
(s, u) and omega = ds^du (p = s, q = u) the bracket is

    {F, G} = dF/du * dG/ds - dF/ds * dG/du.

Grid fields are read as piecewise-linear functions on a triangulation
of the grid (periodic in u on cylinder windows); on each triangle both
gradients, hence the bracket, are exact and constant.  Any feasible
pair therefore bounds the invariant of the triangulated problem from
above, and no grid mode can hide a large bracket between nodes.  The
estimate is the validated value of the ramp interpolant of the masks,
or of a projected warm start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contact import _DEFAULT_R0, _DEFAULT_R1, CircleModel, check_radii
from .phase_core import HamiltonianSpec, PhaseChart
from .profiles import quintic, quintic_d, smoothstep, smoothstep_int


# a grid field meets a constraint when it misses it by at most this
FEASIBILITY_TOL = 1e-12

# cells per block of ``discrete_bracket``: 128 KB per float temporary
BLOCK_CELLS = 2 ** 14


class InfeasibleError(ValueError):
    """A grid field violates a constraint mask; names the mask."""


@dataclass(frozen=True)
class GridWindow:
    """Rectangle [s_lo, s_hi] x [u_lo, u_hi) gridded n_s x n_u.

    On cylinder windows (periodic_u) the u-axis has n_u cells without a
    duplicated endpoint; the s-axis always includes both endpoints.
    Both axes need at least two nodes and finite bounds with
    s_lo < s_hi and u_lo < u_hi (``ValueError``).
    """

    s_lo: float
    s_hi: float
    u_lo: float
    u_hi: float
    n_s: int
    n_u: int
    periodic_u: bool = True

    def __post_init__(self):
        if self.n_s < 2 or self.n_u < 2:
            raise ValueError(f"a grid window needs n_s, n_u >= 2, got "
                             f"n_s={self.n_s}, n_u={self.n_u}")
        bounds = (self.s_lo, self.s_hi, self.u_lo, self.u_hi)
        if not (np.isfinite(bounds).all() and self.s_lo < self.s_hi
                and self.u_lo < self.u_hi):
            raise ValueError(f"a grid window needs finite s_lo < s_hi and "
                             f"u_lo < u_hi, got {bounds}")

    @property
    def h_s(self):
        return (self.s_hi - self.s_lo) / (self.n_s - 1)

    @property
    def h_u(self):
        cells = self.n_u if self.periodic_u else self.n_u - 1
        return (self.u_hi - self.u_lo) / cells

    def s_nodes(self):
        return self.s_lo + self.h_s * np.arange(self.n_s)

    def u_nodes(self):
        return self.u_lo + self.h_u * np.arange(self.n_u)


MASK_NAMES = ("X0", "X1", "Y0", "Y1")


@dataclass(frozen=True)
class Pb4Problem:
    """Window, constraint masks and thickening radius of one instance."""

    window: GridWindow
    masks: dict
    thicken_radius: int = 0

    def __post_init__(self):
        for name in MASK_NAMES:
            if name not in self.masks:
                raise ValueError(f"missing constraint mask {name}")
            m = np.asarray(self.masks[name], dtype=bool)
            if m.shape != (self.window.n_s, self.window.n_u):
                raise ValueError(f"mask {name} has shape {m.shape}")
        r_max = min(self.window.n_s, self.window.n_u)
        if not 0 <= self.thicken_radius < r_max:
            raise ValueError(f"thicken_radius must lie in [0, {r_max}), "
                             f"got {self.thicken_radius}")
        grown = {name: self._grow(self.masks[name]) for name in MASK_NAMES}
        object.__setattr__(self, "_thickened", grown)
        for a, b in (("X0", "X1"), ("Y0", "Y1")):
            if np.any(grown[a] & grown[b]):
                raise ValueError(
                    f"thickened masks {a} and {b} are not disjoint"
                )

    def _grow(self, mask):
        """``mask`` grown by ``thicken_radius`` 4-neighbour steps (the
        Manhattan ball of that radius), wrapping in u on cylinder
        windows, and made read-only.  At radius 0 it is a view, so the
        caller's array stays writable and no grid is copied."""
        m = np.asarray(mask, dtype=bool).view()
        for _ in range(self.thicken_radius):
            g = m.copy()
            g[1:] |= m[:-1]
            g[:-1] |= m[1:]
            if self.window.periodic_u:
                g |= np.roll(m, 1, axis=1) | np.roll(m, -1, axis=1)
            else:
                g[:, 1:] |= m[:, :-1]
                g[:, :-1] |= m[:, 1:]
            m = g
        m.setflags(write=False)
        return m

    def thickened(self, name):
        """The mask ``name`` grown by ``thicken_radius``, grown once when
        the problem is built and returned read-only."""
        return self._thickened[name]

    def frame_mask(self):
        w = self.window
        f = np.zeros((w.n_s, w.n_u), dtype=bool)
        f[0, :] = f[-1, :] = True
        if not w.periodic_u:
            f[:, 0] = f[:, -1] = True
        return f


# ---------------------------------------------------------------------------
# Discrete bracket (P1 triangles)
# ---------------------------------------------------------------------------

def _bracket_blocks(problem: Pb4Problem, F, G):
    """Yield the discrete bracket a block of cell rows at a time, as
    ``(i, block)``: ``block[:, k]`` holds cell row ``i + k``.  One
    block buffer is reused, so a block is valid until the next one."""
    w = problem.window
    h_s, h_u = w.h_s, w.h_u

    def corners(A):
        if w.periodic_u:
            left, right = A, np.roll(A, -1, axis=1)
        else:
            left, right = A[:, :-1], A[:, 1:]
        return left[:-1], left[1:], right[:-1], right[1:]

    def quotient(pair, h):
        d = np.subtract(*pair)
        d /= h
        return d

    def tri(fs, fu, gs, gu, out):
        """(fu / h_u) * (gs / h_s) - (fs / h_s) * (gu / h_u) into out, each
        difference given as its (minuend, subtrahend) corners; the first
        product is formed in out, so at most two other blocks are live."""
        np.subtract(*fu, out=out)
        out /= h_u
        out *= quotient(gs, h_s)
        rest = quotient(fs, h_s)
        rest *= quotient(gu, h_u)
        out -= rest

    cells = w.n_u if w.periodic_u else w.n_u - 1
    rows = max(1, BLOCK_CELLS // cells)
    buffer = np.empty((2, rows, cells))
    for i in range(0, w.n_s - 1, rows):
        out = buffer[:, :w.n_s - 1 - i]
        f00, f10, f01, f11 = corners(F[i:i + rows + 1])
        g00, g10, g01, g11 = corners(G[i:i + rows + 1])
        tri((f10, f00), (f01, f00), (g10, g00), (g01, g00), out[0])
        tri((f11, f01), (f11, f10), (g11, g01), (g11, g10), out[1])
        yield i, out


def discrete_bracket(problem: Pb4Problem, F, G):
    """Exact {F, G} = F_u G_s - F_s G_u of the piecewise-linear pair, one
    value per triangle, shape (2, n_s - 1, cells_u).  Fields of another
    shape than the grid's, or not finite: ``InfeasibleError``.

    Each cell [i, i+1] x [j, j+1] splits into the triangles
    (i,j),(i+1,j),(i,j+1) (index 0) and (i+1,j+1),(i,j+1),(i+1,j)
    (index 1).  On cylinder windows u wraps and a row has n_u cells;
    otherwise it has n_u - 1.

    The values are computed a block of ``BLOCK_CELLS // cells_u`` cell
    rows at a time (at least one), from that block's node rows plus
    one, so every temporary stays block-sized; each triangle's value is
    the same to the bit for any block height.  ``feasible_pair_value``
    reads the same blocks and keeps only their max, so it holds no
    whole-grid bracket: at n = 1024 it allocates at most 1.8 MiB and
    takes 19-22 ms on a 2-vCPU x86-64 machine, where filling this output
    took 17.5 MiB and 22-33 ms, and one whole-grid pass 81 MiB and 69 ms.
    """
    F, G = _check_fields(problem, F, G)
    w = problem.window
    out = np.empty((2, w.n_s - 1, w.n_u if w.periodic_u else w.n_u - 1))
    for i, block in _bracket_blocks(problem, F, G):
        out[:, i:i + block.shape[1]] = block
    return out


def _check_fields(problem: Pb4Problem, F, G):
    """F and G as float arrays; ``InfeasibleError`` naming the field
    unless both have the grid's shape ``(n_s, n_u)`` and finite values."""
    grid = (problem.window.n_s, problem.window.n_u)
    F, G = np.asarray(F, dtype=float), np.asarray(G, dtype=float)
    for nm, A in (("F", F), ("G", G)):
        if A.shape != grid:
            raise InfeasibleError(
                f"{nm} has shape {A.shape}, not the grid's (n_s, n_u) = "
                f"{grid}")
        if not np.isfinite(A).all():
            raise InfeasibleError(f"{nm} has a non-finite value")
    return F, G


def feasible_pair_value(problem: Pb4Problem, F, G):
    """Max of the discrete bracket over all triangles, after checking
    that both fields have the grid's shape, are finite and meet every
    constraint to within ``FEASIBILITY_TOL``; any feasible pair
    upper-estimates the invariant of the triangulated problem."""
    F, G = _check_fields(problem, F, G)
    frame = problem.frame_mask()
    checks = [
        ("X0", F[problem.thickened("X0")], "max", 0.0),
        ("X1", F[problem.thickened("X1")], "min", 1.0),
        ("Y0", G[problem.thickened("Y0")], "max", 0.0),
        ("Y1", G[problem.thickened("Y1")], "min", 1.0),
    ]
    for name, vals, kind, bound in checks:
        if vals.size == 0:
            raise InfeasibleError(f"constraint mask {name} is empty")
        if kind == "max" and vals.max() > bound + FEASIBILITY_TOL:
            raise InfeasibleError(
                f"field violates {name}: max {vals.max():.3e} > {bound}"
            )
        if kind == "min" and vals.min() < bound - FEASIBILITY_TOL:
            raise InfeasibleError(
                f"field violates {name}: min {vals.min():.3e} < {bound}"
            )
    for nm, A in (("F", F), ("G", G)):
        if np.abs(A[frame]).max() > FEASIBILITY_TOL:
            raise InfeasibleError(f"{nm} does not vanish on the frame")
    return float(np.max([block.max()
                         for _, block in _bracket_blocks(problem, F, G)]))


def project_fields(problem: Pb4Problem, F, G):
    """Nearest feasible fields: clip on masks, zero the frame, on copies
    of F and G.  Fields of another shape than the grid's, or not finite:
    ``InfeasibleError``."""
    F, G = _check_fields(problem, F, G)
    return _project(problem, F.copy(), G.copy())


def _project(problem: Pb4Problem, F, G):
    """``project_fields``' clipping and zeroing, in place on F and G."""
    frame = problem.frame_mask()
    tX0, tX1 = problem.thickened("X0"), problem.thickened("X1")
    tY0, tY1 = problem.thickened("Y0"), problem.thickened("Y1")
    F[tX0] = np.minimum(F[tX0], 0.0)
    F[tX1] = np.maximum(F[tX1], 1.0)
    G[tY0] = np.minimum(G[tY0], 0.0)
    G[tY1] = np.maximum(G[tY1], 1.0)
    F[frame] = G[frame] = 0.0
    return F, G


# ---------------------------------------------------------------------------
# Feasible interpolant construction
# ---------------------------------------------------------------------------

def _row_range(mask):
    rows = np.where(mask.any(axis=1))[0]
    return (int(rows.min()), int(rows.max())) if rows.size else None


def _circular_arc(cols, n):
    """Longest-gap complement: the contiguous arc (start, end) covering
    a wrapped column set, as inclusive indices mod n."""
    cols = sorted(set(int(c) % n for c in cols))
    if len(cols) == n:
        return 0, n - 1
    gaps = []
    for i, c in enumerate(cols):
        nxt = cols[(i + 1) % len(cols)]
        gap = (nxt - c) % n
        gaps.append((gap, c, nxt))
    _, end_c, start_c = max(gaps)
    return start_c, end_c  # arc runs start_c .. end_c (mod n)


def _s_ramp_profile(n_s, lo_rows, hi_rows):
    """Row profile: 0 across lo_rows, 1 across hi_rows, linear between,
    returning to 0 two rows before the frame on the far side."""
    prof = np.zeros(n_s)
    (l0, l1), (h0, h1) = lo_rows, hi_rows
    if l1 < h0:  # ascending
        a, b = l1, h0
        prof[a:b + 1] = np.linspace(0.0, 1.0, b - a + 1)
        hold = min(h1 + 2, n_s - 3)
        prof[b:hold + 1] = 1.0
        prof[hold:n_s - 1] = np.linspace(1.0, 0.0, n_s - 1 - hold)
    else:  # descending: 1 on the low-index side
        a, b = h1, l0
        prof[a:b + 1] = np.linspace(1.0, 0.0, b - a + 1)
        hold = max(h0 - 2, 2)
        prof[hold:a + 1] = 1.0
        prof[1:hold + 1] = np.linspace(0.0, 1.0, hold)
    prof[0] = prof[-1] = 0.0
    return prof


def _u_ramp_profile(n_u, zero_cols, one_cols):
    """Wrapped column profile: 0 on one arc, 1 on the other, linear
    transitions over the complementary arcs."""
    z0, z1 = _circular_arc(zero_cols, n_u)
    o0, o1 = _circular_arc(one_cols, n_u)
    prof = np.zeros(n_u)

    def arc_indices(a, b):
        i = a
        out = [i]
        while i != b:
            i = (i + 1) % n_u
            out.append(i)
        return out

    up = arc_indices(z1, o0)  # rising transition
    for j, i in enumerate(up):
        prof[i] = j / max(len(up) - 1, 1)
    down = arc_indices(o1, z0)  # falling transition
    for j, i in enumerate(down):
        prof[i] = 1.0 - j / max(len(down) - 1, 1)
    for i in arc_indices(z0, z1):  # pin the constraint arcs last
        prof[i] = 0.0
    for i in arc_indices(o0, o1):
        prof[i] = 1.0
    return prof


def _build_field(problem, lo_name, hi_name):
    """A feasible field for one constraint pair, oriented automatically."""
    w = problem.window
    lo = problem.thickened(lo_name)
    hi = problem.thickened(hi_name)
    lo_rows, hi_rows = _row_range(lo), _row_range(hi)
    s_separated = (lo_rows[1] < hi_rows[0]) or (hi_rows[1] < lo_rows[0])
    if s_separated:
        prof = _s_ramp_profile(w.n_s, lo_rows, hi_rows)
        return np.repeat(prof[:, None], w.n_u, axis=1)
    zero_cols = np.where(lo.any(axis=0))[0]
    one_cols = np.where(hi.any(axis=0))[0]
    prof = _u_ramp_profile(w.n_u, zero_cols, one_cols)
    band = np.zeros(w.n_s)
    r0 = min(_row_range(lo)[0], _row_range(hi)[0])
    r1 = max(_row_range(lo)[1], _row_range(hi)[1])
    band[r0:r1 + 1] = 1.0
    return band[:, None] * prof[None, :]


def interpolant_pair(problem: Pb4Problem):
    """Deterministic feasible start: ramp interpolants of the masks."""
    F = _build_field(problem, "X0", "X1")
    G = _build_field(problem, "Y0", "Y1")
    return _project(problem, F, G)


# ---------------------------------------------------------------------------
# Estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pb4Report:
    estimate: float
    F: np.ndarray
    G: np.ndarray
    resolution: tuple
    # one entry, (("start", 0), ("value", estimate), ("iterations", 0)),
    # in the shape bench/tracing.py reads
    trace: tuple

    def describe(self):
        return {
            "estimate": self.estimate,
            "resolution": list(self.resolution),
        }


def estimate_pb4_plus(problem: Pb4Problem, warm_start=None) -> Pb4Report:
    """Validated feasible value of the interpolant pair.

    ``warm_start`` (a field pair, e.g. a previous report's fields)
    replaces the interpolant after projection onto this problem's
    constraints; since projection preserves feasibility, warm-started
    estimates are exactly monotone under constraint relaxation.
    """
    if warm_start is not None:
        F, G = project_fields(problem, warm_start[0], warm_start[1])
    else:
        F, G = interpolant_pair(problem)
    val = feasible_pair_value(problem, F, G)
    return Pb4Report(
        estimate=val,
        F=F,
        G=G,
        resolution=(problem.window.n_s, problem.window.n_u),
        trace=((("start", 0), ("value", val), ("iterations", 0)),),
    )


# ---------------------------------------------------------------------------
# Prototype instance: cylinder tetragon masks
# ---------------------------------------------------------------------------

def prototype_problem(n=128, R0=_DEFAULT_R0, R1=_DEFAULT_R1,
                      T=CircleModel.default_reeb_time,
                      thicken_radius=0) -> Pb4Problem:
    """Cylinder-window instance whose exact invariant is 1/((R1-R0)*T).

    The window reaches 0.5 beyond R0 and R1 in s.  Masks are the grid
    cells meeting the floor (X0, s=R0), ceiling (X1, s=R1), low wall
    (Y0, u=T) and high wall (Y1, u=0).  The geometry is checked as
    ``build_tetragon`` checks it (``ParameterError``).
    """
    check_radii(R0, R1)
    CircleModel().check_reeb_time(T)
    w = GridWindow(
        s_lo=R0 - 0.5, s_hi=R1 + 0.5,
        u_lo=0.0, u_hi=1.0, n_s=n, n_u=n, periodic_u=True,
    )
    s = w.s_nodes()
    u = w.u_nodes()
    row0 = np.abs(s - R0) <= w.h_s / 2 + 1e-12
    row1 = np.abs(s - R1) <= w.h_s / 2 + 1e-12
    shell = (s >= R0 - w.h_s / 2 - 1e-12) & (s <= R1 + w.h_s / 2 + 1e-12)

    def u_near(val):
        d = np.abs((u - val + 0.5) % 1.0 - 0.5)
        return d <= w.h_u / 2 + 1e-12

    def u_in_arc(lo, hi):
        du = (u - lo) % 1.0
        return (du <= hi - lo + w.h_u / 2 + 1e-12) | u_near(lo)

    arc = u_in_arc(0.0, T)
    masks = {
        "X0": row0[:, None] & arc[None, :],
        "X1": row1[:, None] & arc[None, :],
        "Y0": shell[:, None] & u_near(T)[None, :],
        "Y1": shell[:, None] & u_near(0.0)[None, :],
    }
    return Pb4Problem(window=w, masks=masks, thicken_radius=thicken_radius)


# ---------------------------------------------------------------------------
# Analytic prototype Hamiltonian pair (for the chord mean-value check)
# ---------------------------------------------------------------------------

def prototype_hamiltonian_pair(R0=_DEFAULT_R0, R1=_DEFAULT_R1,
                               T=CircleModel.default_reeb_time):
    """Smooth representatives (F, G) of the prototype feasible pair on
    the cylinder chart (p = s, q = u).

    F depends on s only (ramp 0 -> 1 across [R0, R1]); G = g(u) * b(s)
    with g descending 1 -> 0 across [0, T] and b a plateau bump equal to
    1 on a neighborhood of [R0, R1].  Along any chord of G from floor to
    ceiling, {F, G} is constant and equals the reciprocal chord time.
    """
    chart = PhaseChart(dim_pairs=1, periodic=(True,), labels=("s", "u"))
    width = R1 - R0
    lo, hi = 0.55, 0.95
    pad, roll = 0.1, 0.2

    def f_ramp(s):
        return np.clip((s - R0) / width, 0.0, 1.0)

    def f_ramp_d(s):
        return np.where((R0 <= s) & (s <= R1), 1.0 / width, 0.0)

    def g_desc(q):
        q = q % 1.0
        return np.where(q <= T, 1.0 - q / T,
                        np.clip((q - lo) / (hi - lo), 0.0, 1.0))

    def g_desc_d(q):
        q = q % 1.0
        return np.where(q <= T, -1.0 / T,
                        np.where((lo < q) & (q < hi), 1.0 / (hi - lo), 0.0))

    def bump_arg(s):
        """Quintic roll-off coordinate: <= 0 on the plateau, >= 1 past it."""
        return np.where(s > R1, (s - (R1 + pad)) / roll,
                        ((R0 - pad) - s) / roll)

    def bump(s):
        return 1.0 - quintic(bump_arg(s))

    def bump_d(s):
        d = quintic_d(bump_arg(s)) / roll
        return np.where(s > R1, -d, d)

    def g_point_gradient(x, t):
        """G's gradient at one point: the branches above on floats."""
        s, q = x
        q = q % 1.0
        if q <= T:
            g, g_d = 1.0 - q / T, -1.0 / T
        else:
            g = min(max((q - lo) / (hi - lo), 0.0), 1.0)
            g_d = 1.0 / (hi - lo) if lo < q < hi else 0.0
        arg = (s - (R1 + pad)) / roll if s > R1 else ((R0 - pad) - s) / roll
        d = quintic_d(arg) / roll
        return [g * (-d if s > R1 else d), g_d * (1.0 - quintic(arg))]

    F = HamiltonianSpec(
        chart=chart,
        value=lambda x, t: f_ramp(x[..., 0])[()],
        gradient=lambda x, t: np.stack(
            [f_ramp_d(x[..., 0]), np.zeros(np.shape(x)[:-1])], axis=-1),
        point_gradient=lambda x, t: [
            1.0 / width if R0 <= x[0] <= R1 else 0.0, 0.0],
        name="prototype-F",
    )
    G = HamiltonianSpec(
        chart=chart,
        value=lambda x, t: (g_desc(x[..., 1]) * bump(x[..., 0]))[()],
        gradient=lambda x, t: np.stack(
            [g_desc(x[..., 1]) * bump_d(x[..., 0]),
             g_desc_d(x[..., 1]) * bump(x[..., 0])], axis=-1),
        point_gradient=g_point_gradient,
        name="prototype-G",
    )
    return F, G


# ---------------------------------------------------------------------------
# Wall witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WallWitness:
    """C^2 ramp u(s): zero outside (R0+delta1, R1+delta1), u(R1) = 1,
    non-decreasing on [R0, R1] with slope <= 1/(R1-R0) + delta2."""

    R0: float
    R1: float
    delta1: float
    delta2: float
    ease_width: float

    def profile(self, s):
        s = np.asarray(s, dtype=float)
        a = self.R0 + self.delta1
        b = self.R1
        w = self.ease_width
        norm = (b - a) - w
        acc = (w * smoothstep_int((s - a) / w)
               + np.where(s > a + w, np.minimum(s, b - w) - (a + w), 0.0)
               + np.where(s > b - w, w * (0.5 - smoothstep_int((b - s) / w)),
                          0.0))
        # descent back to 0 inside (R1, R1 + delta1)
        w2 = 0.9 * self.delta1
        return np.where(s <= a, 0.0,
                        np.where(s <= b, acc / norm,
                                 1.0 - quintic((s - b) / w2)))[()]

    def slope(self, s):
        a = self.R0 + self.delta1
        b = self.R1
        w = self.ease_width
        norm = (b - a) - w
        w2 = 0.9 * self.delta1
        # ease-in, ease-out and descent are each zero off their own span
        return (smoothstep((s - a) / w) * smoothstep((b - s) / w) / norm
                - quintic_d((s - b) / w2) / w2)

    @property
    def max_slope(self):
        a = self.R0 + self.delta1
        return 1.0 / ((self.R1 - a) - self.ease_width)

    def _gradient(self, x, t):
        g = np.zeros(x.shape)
        g[..., 0] = self.slope(x[..., 0][()])
        return g

    def _point_gradient(self, x, t):
        return [self.slope(x[0]), 0.0]

    def hamiltonian(self) -> HamiltonianSpec:
        """u(s) as a Hamiltonian on the cylinder chart (p = s, q = u):
        its flow advances u at rate u'(s) along Reeb lines."""
        chart = PhaseChart(dim_pairs=1, periodic=(True,),
                           labels=("s", "u"))
        return HamiltonianSpec(
            chart=chart,
            value=lambda x, t: self.profile(x[..., 0]),
            gradient=self._gradient,
            point_gradient=self._point_gradient,
            name="wall-witness",
        )


def wall_witness(R0, R1, delta1=0.005, delta2=0.01) -> WallWitness:
    check_radii(R0, R1)
    if delta1 <= 0.0 or delta2 <= 0.0:
        raise ValueError("delta1 and delta2 must be positive")
    width = R1 - R0
    # slope bound 1/(width - delta1 - w) <= 1/width + delta2 pins the
    # ease width w; infeasible deltas are rejected.
    w_max = (width - delta1) - width / (1.0 + delta2 * width)
    if w_max <= 0.0:
        raise ValueError(
            f"delta1={delta1} too large for slope margin delta2={delta2}: "
            "no ease width satisfies the derivative bound"
        )
    return WallWitness(
        R0=float(R0), R1=float(R1),
        delta1=float(delta1), delta2=float(delta2),
        ease_width=0.8 * w_max,
    )
