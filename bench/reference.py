"""Computations the benchmark makes apart from tetralab, to check its outputs.

Nothing here imports tetralab: each function restates a closed form or a
method property from its definition, so a wrong program output cannot
also move the value it is compared with.
"""

import math

import numpy as np
from scipy.integrate import quad


def unstable_chord_time(R0, R1):
    """Diagonal chord of H = (p^2 - q^2)/2: |x|^2 = R0 e^{2t} reaches R1."""
    return 0.5 * math.log(R1 / R0)


def unstable_increment(R0, R1):
    """Norm increment along that chord, from sqrt(R0) to sqrt(R1)."""
    return math.sqrt(R1) - math.sqrt(R0)


def unstable_separation(R0):
    """Wall gap of (p^2 - q^2)/2 on the sphere model at T = pi/4.

    The high wall lies on the p-axis (H = s/2 >= R0/2), the low wall on
    the q-axis (H = -s/2 <= -R0/2).
    """
    return R0


def mechanical_separation(R0, beta):
    """Wall gap of |p|^2/2 - beta*shell(|q|^2) at T = pi/4.

    The high wall (q = 0, shell = 0) has G >= R0/2; the low wall (p = 0,
    |q|^2 in [R0, R1], shell = 1) has G = -beta.
    """
    return 0.5 * R0 + beta


def channel_time(R0, R1):
    """U = cos(2 pi q) pushes p at rate 2 pi sin(2 pi q), fastest at q = 1/4."""
    return (R1 - R0) / (2.0 * math.pi)


def budget(R0, R1, T, delta_sep, delta_pert=0.0):
    """Interlinking budget kappa / (Delta - delta), kappa = (R1 - R0) T."""
    return (R1 - R0) * T / (delta_sep - delta_pert)


def reeb_sphere_times(T, base, amp):
    """Chord times of theta' = 2 (base + amp sin theta) from theta0 = 0 and
    pi across an arc of length 2T, by quadrature of d theta/(2 f)."""
    out = []
    for th0 in (0.0, math.pi):
        val, _ = quad(lambda th: 1.0 / (2.0 * (base + amp * math.sin(th))),
                      th0, th0 + 2.0 * T, epsabs=1e-14, epsrel=1e-13)
        out.append(val)
    return out


def witness_min_crossing_time(profile, R0, R1, delta1, T, n=20001):
    """Shortest wall-to-wall time T / max u'(s) of the flow u' = u'(s),
    with u' from central differences of ``profile`` on a fine s-grid."""
    s = np.linspace(R0, R1 + delta1, n)
    u = np.array([profile(x) for x in s])
    slope = np.gradient(u, s)
    return T / float(slope.max())


def witness_budget(R0, R1, T, delta2):
    """Budget 0.01 below T / (1/(R1 - R0) + delta2), the shortest wall-to-
    wall time any ramp with that slope bound allows."""
    return T / (1.0 / (R1 - R0) + delta2) - 0.01


# ---------------------------------------------------------------------------
# Bracket-invariant prototype on the cylinder window
# ---------------------------------------------------------------------------

def prototype_grid(n, R0=1.0, R1=2.0, s_margin=0.5):
    """Node coordinates and spacings of the n x n cylinder window."""
    s = np.linspace(R0 - s_margin, R1 + s_margin, n)
    u = np.arange(n) / n
    return s, u, s[1] - s[0], 1.0 / n


def prototype_masks(n, R0=1.0, R1=2.0, T=0.25, s_margin=0.5):
    """Nodes nearest the floor (X0), ceiling (X1), low wall (Y0) and high
    wall (Y1): within half a cell of each set, u periodic."""
    s, u, hs, hu = prototype_grid(n, R0, R1, s_margin)
    eps = 1e-12

    def u_dist(val):
        return np.abs((u - val + 0.5) % 1.0 - 0.5)

    row0 = np.abs(s - R0) <= hs / 2 + eps
    row1 = np.abs(s - R1) <= hs / 2 + eps
    shell = (s >= R0 - hs / 2 - eps) & (s <= R1 + hs / 2 + eps)
    arc = (u % 1.0 <= T + hu / 2 + eps) | (u_dist(0.0) <= hu / 2 + eps)
    return {
        "X0": row0[:, None] & arc[None, :],
        "X1": row1[:, None] & arc[None, :],
        "Y0": shell[:, None] & (u_dist(T) <= hu / 2 + eps)[None, :],
        "Y1": shell[:, None] & (u_dist(0.0) <= hu / 2 + eps)[None, :],
    }


def mask_violations(F, G, masks):
    """Names of the constraints (masks and zero frame) F, G break."""
    bad = []
    if F[masks["X0"]].max() > 0.0:
        bad.append("F <= 0 on X0")
    if F[masks["X1"]].min() < 1.0:
        bad.append("F >= 1 on X1")
    if G[masks["Y0"]].max() > 0.0:
        bad.append("G <= 0 on Y0")
    if G[masks["Y1"]].min() < 1.0:
        bad.append("G >= 1 on Y1")
    for name, A in (("F", F), ("G", G)):
        if np.any(A[0] != 0.0) or np.any(A[-1] != 0.0):
            bad.append(f"{name} = 0 on the frame")
    return bad


def p1_bracket(F, G, hs, hu):
    """Max of {F, G} = F_u G_s - F_s G_u over the piecewise-linear pair.

    Each cell [i, i+1] x [j, j+1] (u periodic) splits into the triangles
    (i,j),(i+1,j),(i,j+1) and (i+1,j+1),(i,j+1),(i+1,j); on each the
    gradients, hence the bracket, are exact and constant.
    """
    Fr, Gr = np.roll(F, -1, axis=1), np.roll(G, -1, axis=1)

    def tri(fs, fu, gs, gu):
        return (fu / hu) * (gs / hs) - (fs / hs) * (gu / hu)

    lower = tri(F[1:] - F[:-1], Fr[:-1] - F[:-1],
                G[1:] - G[:-1], Gr[:-1] - G[:-1])
    upper = tri(Fr[1:] - Fr[:-1], Fr[1:] - F[1:],
                Gr[1:] - Gr[:-1], Gr[1:] - G[1:])
    return float(max(lower.max(), upper.max()))
