"""The Taylor recurrence of the radial profile (tubeke.potential_solver), term by term.

Written by tools/write_taylor_series.py; do not edit.
"""


def series(p, x, F, f, E, h):
    """The Taylor coefficients of (F, f) through a node, in the offset t = (x' - x)/h.

    x, F, f and E = e^{3F} are the node's values and h the offset's scale:
    floats, or float arrays for many nodes at once, since the recurrence
    reads only +, * and /.  Returns the lists [F_0..F_N] and [f_0..f_N],
    N = 24.  In t the ODE reads g D = h (4E + f^2) with g = df/dt, and
    order k of it, of dF/dt = h f and of dE/dt = 3h f E gives

        g_k D_0 = h (4 E_k + sum_j f_j f_{k-j}) - sum_{j<k} g_j D_{k-j},
        f_{k+1} = g_k/(k+1),   F_{k+1} = h f_k/(k+1),
        E_k = 3h sum_{j<k} f_j E_{k-1-j}/k,   D_k = (2p-1)(x f_k + h f_{k-1}),

    each sum taken from 0.0, left to right.
    """
    p2m1 = 2.0 * p - 1.0
    h3 = 3.0 * h
    f0, E0 = f, E
    D0 = p2m1 * x * f + 4.0 * p * ((2 * p + 1) / 3.0)
    g0 = h * (4.0 * E0 + (0.0 + f0 * f0)) / D0
    f1 = g0
    F1 = h * f0
    E1 = h3 * (0.0 + f0 * E0)
    D1 = p2m1 * (x * f1 + h * f0)
    g1 = (h * (4.0 * E1 + (0.0 + f0 * f1 + f1 * f0)) - (0.0 + g0 * D1)) / D0
    f2 = g1 / 2
    F2 = h * f1 / 2
    E2 = h3 * (0.0 + f0 * E1 + f1 * E0) / 2
    D2 = p2m1 * (x * f2 + h * f1)
    g2 = (h * (4.0 * E2 + (0.0 + f0 * f2 + f1 * f1 + f2 * f0)) - (0.0 + g0 * D2 + g1 * D1)) / D0
    f3 = g2 / 3
    F3 = h * f2 / 3
    E3 = h3 * (0.0 + f0 * E2 + f1 * E1 + f2 * E0) / 3
    D3 = p2m1 * (x * f3 + h * f2)
    g3 = (h * (4.0 * E3 + (0.0 + f0 * f3 + f1 * f2 + f2 * f1 + f3 * f0)) - (0.0 + g0 * D3
        + g1 * D2 + g2 * D1)) / D0
    f4 = g3 / 4
    F4 = h * f3 / 4
    E4 = h3 * (0.0 + f0 * E3 + f1 * E2 + f2 * E1 + f3 * E0) / 4
    D4 = p2m1 * (x * f4 + h * f3)
    g4 = (h * (4.0 * E4 + (0.0 + f0 * f4 + f1 * f3 + f2 * f2 + f3 * f1 + f4 * f0)) - (0.0
        + g0 * D4 + g1 * D3 + g2 * D2 + g3 * D1)) / D0
    f5 = g4 / 5
    F5 = h * f4 / 5
    E5 = h3 * (0.0 + f0 * E4 + f1 * E3 + f2 * E2 + f3 * E1 + f4 * E0) / 5
    D5 = p2m1 * (x * f5 + h * f4)
    g5 = (h * (4.0 * E5 + (0.0 + f0 * f5 + f1 * f4 + f2 * f3 + f3 * f2 + f4 * f1
        + f5 * f0)) - (0.0 + g0 * D5 + g1 * D4 + g2 * D3 + g3 * D2 + g4 * D1)) / D0
    f6 = g5 / 6
    F6 = h * f5 / 6
    E6 = h3 * (0.0 + f0 * E5 + f1 * E4 + f2 * E3 + f3 * E2 + f4 * E1 + f5 * E0) / 6
    D6 = p2m1 * (x * f6 + h * f5)
    g6 = (h * (4.0 * E6 + (0.0 + f0 * f6 + f1 * f5 + f2 * f4 + f3 * f3 + f4 * f2 + f5 * f1
        + f6 * f0)) - (0.0 + g0 * D6 + g1 * D5 + g2 * D4 + g3 * D3 + g4 * D2 + g5 * D1)) / D0
    f7 = g6 / 7
    F7 = h * f6 / 7
    E7 = h3 * (0.0 + f0 * E6 + f1 * E5 + f2 * E4 + f3 * E3 + f4 * E2 + f5 * E1 + f6 * E0) / 7
    D7 = p2m1 * (x * f7 + h * f6)
    g7 = (h * (4.0 * E7 + (0.0 + f0 * f7 + f1 * f6 + f2 * f5 + f3 * f4 + f4 * f3 + f5 * f2
        + f6 * f1 + f7 * f0)) - (0.0 + g0 * D7 + g1 * D6 + g2 * D5 + g3 * D4 + g4 * D3
        + g5 * D2 + g6 * D1)) / D0
    f8 = g7 / 8
    F8 = h * f7 / 8
    E8 = h3 * (0.0 + f0 * E7 + f1 * E6 + f2 * E5 + f3 * E4 + f4 * E3 + f5 * E2 + f6 * E1
        + f7 * E0) / 8
    D8 = p2m1 * (x * f8 + h * f7)
    g8 = (h * (4.0 * E8 + (0.0 + f0 * f8 + f1 * f7 + f2 * f6 + f3 * f5 + f4 * f4 + f5 * f3
        + f6 * f2 + f7 * f1 + f8 * f0)) - (0.0 + g0 * D8 + g1 * D7 + g2 * D6 + g3 * D5
        + g4 * D4 + g5 * D3 + g6 * D2 + g7 * D1)) / D0
    f9 = g8 / 9
    F9 = h * f8 / 9
    E9 = h3 * (0.0 + f0 * E8 + f1 * E7 + f2 * E6 + f3 * E5 + f4 * E4 + f5 * E3 + f6 * E2
        + f7 * E1 + f8 * E0) / 9
    D9 = p2m1 * (x * f9 + h * f8)
    g9 = (h * (4.0 * E9 + (0.0 + f0 * f9 + f1 * f8 + f2 * f7 + f3 * f6 + f4 * f5 + f5 * f4
        + f6 * f3 + f7 * f2 + f8 * f1 + f9 * f0)) - (0.0 + g0 * D9 + g1 * D8 + g2 * D7
        + g3 * D6 + g4 * D5 + g5 * D4 + g6 * D3 + g7 * D2 + g8 * D1)) / D0
    f10 = g9 / 10
    F10 = h * f9 / 10
    E10 = h3 * (0.0 + f0 * E9 + f1 * E8 + f2 * E7 + f3 * E6 + f4 * E5 + f5 * E4 + f6 * E3
        + f7 * E2 + f8 * E1 + f9 * E0) / 10
    D10 = p2m1 * (x * f10 + h * f9)
    g10 = (h * (4.0 * E10 + (0.0 + f0 * f10 + f1 * f9 + f2 * f8 + f3 * f7 + f4 * f6 + f5 * f5
        + f6 * f4 + f7 * f3 + f8 * f2 + f9 * f1 + f10 * f0)) - (0.0 + g0 * D10 + g1 * D9
        + g2 * D8 + g3 * D7 + g4 * D6 + g5 * D5 + g6 * D4 + g7 * D3 + g8 * D2 + g9 * D1)) / D0
    f11 = g10 / 11
    F11 = h * f10 / 11
    E11 = h3 * (0.0 + f0 * E10 + f1 * E9 + f2 * E8 + f3 * E7 + f4 * E6 + f5 * E5 + f6 * E4
        + f7 * E3 + f8 * E2 + f9 * E1 + f10 * E0) / 11
    D11 = p2m1 * (x * f11 + h * f10)
    g11 = (h * (4.0 * E11 + (0.0 + f0 * f11 + f1 * f10 + f2 * f9 + f3 * f8 + f4 * f7 + f5 * f6
        + f6 * f5 + f7 * f4 + f8 * f3 + f9 * f2 + f10 * f1 + f11 * f0)) - (0.0 + g0 * D11
        + g1 * D10 + g2 * D9 + g3 * D8 + g4 * D7 + g5 * D6 + g6 * D5 + g7 * D4 + g8 * D3
        + g9 * D2 + g10 * D1)) / D0
    f12 = g11 / 12
    F12 = h * f11 / 12
    E12 = h3 * (0.0 + f0 * E11 + f1 * E10 + f2 * E9 + f3 * E8 + f4 * E7 + f5 * E6 + f6 * E5
        + f7 * E4 + f8 * E3 + f9 * E2 + f10 * E1 + f11 * E0) / 12
    D12 = p2m1 * (x * f12 + h * f11)
    g12 = (h * (4.0 * E12 + (0.0 + f0 * f12 + f1 * f11 + f2 * f10 + f3 * f9 + f4 * f8 + f5 * f7
        + f6 * f6 + f7 * f5 + f8 * f4 + f9 * f3 + f10 * f2 + f11 * f1 + f12 * f0)) - (0.0
        + g0 * D12 + g1 * D11 + g2 * D10 + g3 * D9 + g4 * D8 + g5 * D7 + g6 * D6 + g7 * D5
        + g8 * D4 + g9 * D3 + g10 * D2 + g11 * D1)) / D0
    f13 = g12 / 13
    F13 = h * f12 / 13
    E13 = h3 * (0.0 + f0 * E12 + f1 * E11 + f2 * E10 + f3 * E9 + f4 * E8 + f5 * E7 + f6 * E6
        + f7 * E5 + f8 * E4 + f9 * E3 + f10 * E2 + f11 * E1 + f12 * E0) / 13
    D13 = p2m1 * (x * f13 + h * f12)
    g13 = (h * (4.0 * E13 + (0.0 + f0 * f13 + f1 * f12 + f2 * f11 + f3 * f10 + f4 * f9
        + f5 * f8 + f6 * f7 + f7 * f6 + f8 * f5 + f9 * f4 + f10 * f3 + f11 * f2 + f12 * f1
        + f13 * f0)) - (0.0 + g0 * D13 + g1 * D12 + g2 * D11 + g3 * D10 + g4 * D9 + g5 * D8
        + g6 * D7 + g7 * D6 + g8 * D5 + g9 * D4 + g10 * D3 + g11 * D2 + g12 * D1)) / D0
    f14 = g13 / 14
    F14 = h * f13 / 14
    E14 = h3 * (0.0 + f0 * E13 + f1 * E12 + f2 * E11 + f3 * E10 + f4 * E9 + f5 * E8 + f6 * E7
        + f7 * E6 + f8 * E5 + f9 * E4 + f10 * E3 + f11 * E2 + f12 * E1 + f13 * E0) / 14
    D14 = p2m1 * (x * f14 + h * f13)
    g14 = (h * (4.0 * E14 + (0.0 + f0 * f14 + f1 * f13 + f2 * f12 + f3 * f11 + f4 * f10
        + f5 * f9 + f6 * f8 + f7 * f7 + f8 * f6 + f9 * f5 + f10 * f4 + f11 * f3 + f12 * f2
        + f13 * f1 + f14 * f0)) - (0.0 + g0 * D14 + g1 * D13 + g2 * D12 + g3 * D11 + g4 * D10
        + g5 * D9 + g6 * D8 + g7 * D7 + g8 * D6 + g9 * D5 + g10 * D4 + g11 * D3 + g12 * D2
        + g13 * D1)) / D0
    f15 = g14 / 15
    F15 = h * f14 / 15
    E15 = h3 * (0.0 + f0 * E14 + f1 * E13 + f2 * E12 + f3 * E11 + f4 * E10 + f5 * E9 + f6 * E8
        + f7 * E7 + f8 * E6 + f9 * E5 + f10 * E4 + f11 * E3 + f12 * E2 + f13 * E1 + f14 * E0) / 15
    D15 = p2m1 * (x * f15 + h * f14)
    g15 = (h * (4.0 * E15 + (0.0 + f0 * f15 + f1 * f14 + f2 * f13 + f3 * f12 + f4 * f11
        + f5 * f10 + f6 * f9 + f7 * f8 + f8 * f7 + f9 * f6 + f10 * f5 + f11 * f4 + f12 * f3
        + f13 * f2 + f14 * f1 + f15 * f0)) - (0.0 + g0 * D15 + g1 * D14 + g2 * D13 + g3 * D12
        + g4 * D11 + g5 * D10 + g6 * D9 + g7 * D8 + g8 * D7 + g9 * D6 + g10 * D5 + g11 * D4
        + g12 * D3 + g13 * D2 + g14 * D1)) / D0
    f16 = g15 / 16
    F16 = h * f15 / 16
    E16 = h3 * (0.0 + f0 * E15 + f1 * E14 + f2 * E13 + f3 * E12 + f4 * E11 + f5 * E10 + f6 * E9
        + f7 * E8 + f8 * E7 + f9 * E6 + f10 * E5 + f11 * E4 + f12 * E3 + f13 * E2 + f14 * E1
        + f15 * E0) / 16
    D16 = p2m1 * (x * f16 + h * f15)
    g16 = (h * (4.0 * E16 + (0.0 + f0 * f16 + f1 * f15 + f2 * f14 + f3 * f13 + f4 * f12
        + f5 * f11 + f6 * f10 + f7 * f9 + f8 * f8 + f9 * f7 + f10 * f6 + f11 * f5 + f12 * f4
        + f13 * f3 + f14 * f2 + f15 * f1 + f16 * f0)) - (0.0 + g0 * D16 + g1 * D15 + g2 * D14
        + g3 * D13 + g4 * D12 + g5 * D11 + g6 * D10 + g7 * D9 + g8 * D8 + g9 * D7 + g10 * D6
        + g11 * D5 + g12 * D4 + g13 * D3 + g14 * D2 + g15 * D1)) / D0
    f17 = g16 / 17
    F17 = h * f16 / 17
    E17 = h3 * (0.0 + f0 * E16 + f1 * E15 + f2 * E14 + f3 * E13 + f4 * E12 + f5 * E11
        + f6 * E10 + f7 * E9 + f8 * E8 + f9 * E7 + f10 * E6 + f11 * E5 + f12 * E4 + f13 * E3
        + f14 * E2 + f15 * E1 + f16 * E0) / 17
    D17 = p2m1 * (x * f17 + h * f16)
    g17 = (h * (4.0 * E17 + (0.0 + f0 * f17 + f1 * f16 + f2 * f15 + f3 * f14 + f4 * f13
        + f5 * f12 + f6 * f11 + f7 * f10 + f8 * f9 + f9 * f8 + f10 * f7 + f11 * f6 + f12 * f5
        + f13 * f4 + f14 * f3 + f15 * f2 + f16 * f1 + f17 * f0)) - (0.0 + g0 * D17 + g1 * D16
        + g2 * D15 + g3 * D14 + g4 * D13 + g5 * D12 + g6 * D11 + g7 * D10 + g8 * D9 + g9 * D8
        + g10 * D7 + g11 * D6 + g12 * D5 + g13 * D4 + g14 * D3 + g15 * D2 + g16 * D1)) / D0
    f18 = g17 / 18
    F18 = h * f17 / 18
    E18 = h3 * (0.0 + f0 * E17 + f1 * E16 + f2 * E15 + f3 * E14 + f4 * E13 + f5 * E12
        + f6 * E11 + f7 * E10 + f8 * E9 + f9 * E8 + f10 * E7 + f11 * E6 + f12 * E5 + f13 * E4
        + f14 * E3 + f15 * E2 + f16 * E1 + f17 * E0) / 18
    D18 = p2m1 * (x * f18 + h * f17)
    g18 = (h * (4.0 * E18 + (0.0 + f0 * f18 + f1 * f17 + f2 * f16 + f3 * f15 + f4 * f14
        + f5 * f13 + f6 * f12 + f7 * f11 + f8 * f10 + f9 * f9 + f10 * f8 + f11 * f7 + f12 * f6
        + f13 * f5 + f14 * f4 + f15 * f3 + f16 * f2 + f17 * f1 + f18 * f0)) - (0.0 + g0 * D18
        + g1 * D17 + g2 * D16 + g3 * D15 + g4 * D14 + g5 * D13 + g6 * D12 + g7 * D11 + g8 * D10
        + g9 * D9 + g10 * D8 + g11 * D7 + g12 * D6 + g13 * D5 + g14 * D4 + g15 * D3 + g16 * D2
        + g17 * D1)) / D0
    f19 = g18 / 19
    F19 = h * f18 / 19
    E19 = h3 * (0.0 + f0 * E18 + f1 * E17 + f2 * E16 + f3 * E15 + f4 * E14 + f5 * E13
        + f6 * E12 + f7 * E11 + f8 * E10 + f9 * E9 + f10 * E8 + f11 * E7 + f12 * E6 + f13 * E5
        + f14 * E4 + f15 * E3 + f16 * E2 + f17 * E1 + f18 * E0) / 19
    D19 = p2m1 * (x * f19 + h * f18)
    g19 = (h * (4.0 * E19 + (0.0 + f0 * f19 + f1 * f18 + f2 * f17 + f3 * f16 + f4 * f15
        + f5 * f14 + f6 * f13 + f7 * f12 + f8 * f11 + f9 * f10 + f10 * f9 + f11 * f8 + f12 * f7
        + f13 * f6 + f14 * f5 + f15 * f4 + f16 * f3 + f17 * f2 + f18 * f1 + f19 * f0)) - (0.0
        + g0 * D19 + g1 * D18 + g2 * D17 + g3 * D16 + g4 * D15 + g5 * D14 + g6 * D13 + g7 * D12
        + g8 * D11 + g9 * D10 + g10 * D9 + g11 * D8 + g12 * D7 + g13 * D6 + g14 * D5 + g15 * D4
        + g16 * D3 + g17 * D2 + g18 * D1)) / D0
    f20 = g19 / 20
    F20 = h * f19 / 20
    E20 = h3 * (0.0 + f0 * E19 + f1 * E18 + f2 * E17 + f3 * E16 + f4 * E15 + f5 * E14
        + f6 * E13 + f7 * E12 + f8 * E11 + f9 * E10 + f10 * E9 + f11 * E8 + f12 * E7 + f13 * E6
        + f14 * E5 + f15 * E4 + f16 * E3 + f17 * E2 + f18 * E1 + f19 * E0) / 20
    D20 = p2m1 * (x * f20 + h * f19)
    g20 = (h * (4.0 * E20 + (0.0 + f0 * f20 + f1 * f19 + f2 * f18 + f3 * f17 + f4 * f16
        + f5 * f15 + f6 * f14 + f7 * f13 + f8 * f12 + f9 * f11 + f10 * f10 + f11 * f9
        + f12 * f8 + f13 * f7 + f14 * f6 + f15 * f5 + f16 * f4 + f17 * f3 + f18 * f2 + f19 * f1
        + f20 * f0)) - (0.0 + g0 * D20 + g1 * D19 + g2 * D18 + g3 * D17 + g4 * D16 + g5 * D15
        + g6 * D14 + g7 * D13 + g8 * D12 + g9 * D11 + g10 * D10 + g11 * D9 + g12 * D8
        + g13 * D7 + g14 * D6 + g15 * D5 + g16 * D4 + g17 * D3 + g18 * D2 + g19 * D1)) / D0
    f21 = g20 / 21
    F21 = h * f20 / 21
    E21 = h3 * (0.0 + f0 * E20 + f1 * E19 + f2 * E18 + f3 * E17 + f4 * E16 + f5 * E15
        + f6 * E14 + f7 * E13 + f8 * E12 + f9 * E11 + f10 * E10 + f11 * E9 + f12 * E8
        + f13 * E7 + f14 * E6 + f15 * E5 + f16 * E4 + f17 * E3 + f18 * E2 + f19 * E1
        + f20 * E0) / 21
    D21 = p2m1 * (x * f21 + h * f20)
    g21 = (h * (4.0 * E21 + (0.0 + f0 * f21 + f1 * f20 + f2 * f19 + f3 * f18 + f4 * f17
        + f5 * f16 + f6 * f15 + f7 * f14 + f8 * f13 + f9 * f12 + f10 * f11 + f11 * f10
        + f12 * f9 + f13 * f8 + f14 * f7 + f15 * f6 + f16 * f5 + f17 * f4 + f18 * f3 + f19 * f2
        + f20 * f1 + f21 * f0)) - (0.0 + g0 * D21 + g1 * D20 + g2 * D19 + g3 * D18 + g4 * D17
        + g5 * D16 + g6 * D15 + g7 * D14 + g8 * D13 + g9 * D12 + g10 * D11 + g11 * D10
        + g12 * D9 + g13 * D8 + g14 * D7 + g15 * D6 + g16 * D5 + g17 * D4 + g18 * D3 + g19 * D2
        + g20 * D1)) / D0
    f22 = g21 / 22
    F22 = h * f21 / 22
    E22 = h3 * (0.0 + f0 * E21 + f1 * E20 + f2 * E19 + f3 * E18 + f4 * E17 + f5 * E16
        + f6 * E15 + f7 * E14 + f8 * E13 + f9 * E12 + f10 * E11 + f11 * E10 + f12 * E9
        + f13 * E8 + f14 * E7 + f15 * E6 + f16 * E5 + f17 * E4 + f18 * E3 + f19 * E2 + f20 * E1
        + f21 * E0) / 22
    D22 = p2m1 * (x * f22 + h * f21)
    g22 = (h * (4.0 * E22 + (0.0 + f0 * f22 + f1 * f21 + f2 * f20 + f3 * f19 + f4 * f18
        + f5 * f17 + f6 * f16 + f7 * f15 + f8 * f14 + f9 * f13 + f10 * f12 + f11 * f11
        + f12 * f10 + f13 * f9 + f14 * f8 + f15 * f7 + f16 * f6 + f17 * f5 + f18 * f4
        + f19 * f3 + f20 * f2 + f21 * f1 + f22 * f0)) - (0.0 + g0 * D22 + g1 * D21 + g2 * D20
        + g3 * D19 + g4 * D18 + g5 * D17 + g6 * D16 + g7 * D15 + g8 * D14 + g9 * D13
        + g10 * D12 + g11 * D11 + g12 * D10 + g13 * D9 + g14 * D8 + g15 * D7 + g16 * D6
        + g17 * D5 + g18 * D4 + g19 * D3 + g20 * D2 + g21 * D1)) / D0
    f23 = g22 / 23
    F23 = h * f22 / 23
    E23 = h3 * (0.0 + f0 * E22 + f1 * E21 + f2 * E20 + f3 * E19 + f4 * E18 + f5 * E17
        + f6 * E16 + f7 * E15 + f8 * E14 + f9 * E13 + f10 * E12 + f11 * E11 + f12 * E10
        + f13 * E9 + f14 * E8 + f15 * E7 + f16 * E6 + f17 * E5 + f18 * E4 + f19 * E3 + f20 * E2
        + f21 * E1 + f22 * E0) / 23
    D23 = p2m1 * (x * f23 + h * f22)
    g23 = (h * (4.0 * E23 + (0.0 + f0 * f23 + f1 * f22 + f2 * f21 + f3 * f20 + f4 * f19
        + f5 * f18 + f6 * f17 + f7 * f16 + f8 * f15 + f9 * f14 + f10 * f13 + f11 * f12
        + f12 * f11 + f13 * f10 + f14 * f9 + f15 * f8 + f16 * f7 + f17 * f6 + f18 * f5
        + f19 * f4 + f20 * f3 + f21 * f2 + f22 * f1 + f23 * f0)) - (0.0 + g0 * D23 + g1 * D22
        + g2 * D21 + g3 * D20 + g4 * D19 + g5 * D18 + g6 * D17 + g7 * D16 + g8 * D15 + g9 * D14
        + g10 * D13 + g11 * D12 + g12 * D11 + g13 * D10 + g14 * D9 + g15 * D8 + g16 * D7
        + g17 * D6 + g18 * D5 + g19 * D4 + g20 * D3 + g21 * D2 + g22 * D1)) / D0
    f24 = g23 / 24
    F24 = h * f23 / 24
    Fc = [F, F1, F2, F3, F4, F5, F6, F7, F8, F9, F10, F11, F12, F13, F14, F15, F16, F17, F18,
        F19, F20, F21, F22, F23, F24]
    fc = [f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14, f15, f16, f17, f18,
        f19, f20, f21, f22, f23, f24]
    return Fc, fc
