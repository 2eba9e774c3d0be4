"""An exact oracle for the real fixed points of W on rational algebras.

W(z) = z is dim polynomial equations with rational coefficients.  On a
generic algebra their lex Groebner basis is in shape-lemma form: one
polynomial z_k - p_k(t) for every coordinate z_k but the last, t, and one
polynomial f(t).  Each real root of f then gives exactly one real fixed
point, so ``real_roots`` of the squarefree part of f counts them exactly,
and the p_k give each coordinate to any precision.

A test helper, not part of the package: it needs sympy.
"""

import numpy as np
import sympy

from gonosim.algebra import AlgebraSpec


def rational_algebra(n: int, nu: int, seed: int, drop: tuple = ()):
    """A random algebra with integer weights 1-9 per product, each row
    scaled to unit sum: its float AlgebraSpec and its exact rows, a nested
    (n, nu, n + nu) list of sympy Rationals.  The weights of the
    coordinates in drop are 0: no product produces them."""
    weights = np.random.default_rng(seed).integers(1, 10, size=(n, nu, n + nu))
    weights[:, :, list(drop)] = 0
    rows = [[[sympy.Rational(int(w), int(r.sum())) for w in r] for r in plane] for plane in weights]
    floats = weights / weights.sum(axis=2, keepdims=True)
    return AlgebraSpec(n, nu, floats[:, :, :n], floats[:, :, n:]), rows


def exact_real_roots(n: int, nu: int, rows, digits: int = 30) -> list[np.ndarray]:
    """Every real fixed point of W on the algebra with exact rows, as float
    vectors rounded from ``digits`` significant digits.

    Fails (AssertionError) unless the lex basis is in shape-lemma form, the
    case where the count is exact.
    """
    dim = n + nu
    z = sympy.symbols(f"z0:{dim}")
    W = [
        sum(z[i] * z[n + p] * rows[i][p][k] for i in range(n) for p in range(nu)) for k in range(dim)
    ]
    basis = sympy.groebner([w - zk for w, zk in zip(W, z)], *z, order="lex")
    t = z[-1]
    assert len(basis.exprs) == dim, "the lex basis is not in shape-lemma form"
    f = basis.exprs[-1]
    assert f.free_symbols <= {t}, "the last basis polynomial is not univariate"
    coords = []  # the reduced basis is monic: z_k + h_k(t), so z_k = -h_k(t)
    for k, g in enumerate(basis.exprs[:-1]):
        h = sympy.expand(g - z[k])
        assert h.free_symbols <= {t}, "basis polynomial is not z_k - p_k(t)"
        coords.append(sympy.Poly(-h, t))
    roots = []
    for r in sympy.real_roots(sympy.Poly(f, t).sqf_part()):
        tr = r.evalf(digits)
        roots.append(np.array([float(c.eval(tr)) for c in coords] + [float(tr)]))
    return roots
