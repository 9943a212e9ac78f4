"""Reference definitions that the tests check the package against.

Group elements are image tuples here as in the package, ``g[s-1]`` the image
of the point s.  These helpers are plain definitions of their own, and nothing
in ``src/`` calls them; the cycle decomposition ``cycles`` and the cycle type
counted from it share no code with ``src/``.
"""

from fractions import Fraction
from itertools import combinations, zip_longest
from math import gcd, lcm

from cycindex import (Cyclotomic, MonomialPoly, PowerSumPoly, cycle_type,
                      cyclotomic_polynomial)
from cycindex.caps import CapExceeded, DEFAULT_CAPS


def apply_perm(sigma, point):
    """sigma . (j_1, ..., j_d) = (j_{sigma^-1(1)}, ..., j_{sigma^-1(d)}), 0-based coordinates."""
    source = {t: s for s, t in enumerate(sigma)}
    return tuple(point[source[s + 1]] for s in range(len(point)))


def census_by_apply_perm(table, chi, H):
    """The census and the chi flag with every element applied through apply_perm.

    For each record of ``table``: (rep, tau_H, h_orbit_length, |H_i|, |W_i|,
    chi flag), the W-orbit of rep split into H-orbits, each seeded from the
    least point left."""
    W = table.group
    index_WH = W.order // H.order
    records = []
    for rec in table.records:
        remaining = {apply_perm(g, rec.rep) for g in W.images}
        lengths = []
        while remaining:
            h_orbit = {apply_perm(h, min(remaining)) for h in H.images}
            lengths.append(len(h_orbit))
            remaining -= h_orbit
        assert len(set(lengths)) == 1 and len(lengths) * lengths[0] == rec.size
        stab = [g for g in W.images if apply_perm(g, rec.rep) == rec.rep]
        h_stab_order = sum(1 for g in stab if g in H.image_index)
        assert index_WH * (H.order // h_stab_order) == \
            rec.size * (len(stab) // h_stab_order)
        records.append((rec.rep, len(lengths), lengths[0], h_stab_order,
                        len(stab), all(chi.exponent(g) == 0 for g in stab)))
    return records


def identity(degree):
    return tuple(range(1, degree + 1))


def cycles(g):
    """The nontrivial cycles of g, each starting at its smallest point, sorted by that point."""
    out, seen = [], set()
    for start in range(1, len(g) + 1):
        if start in seen:
            continue
        cyc = [start]
        while g[cyc[-1] - 1] != start:
            cyc.append(g[cyc[-1] - 1])
        seen.update(cyc)
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return out


def cycle_type_from_cycles(sigma):
    """(c_1,...,c_d) counted from ``cycles``, fixed points included."""
    d = len(sigma)
    counts = [0] * d
    counts[0] = d
    for cyc in cycles(sigma):
        counts[len(cyc) - 1] += 1
        counts[0] -= len(cyc)
    return tuple(counts)


def perm_order(p):
    return lcm(*map(len, cycles(p)))


def same_character(chi, psi):
    """Whether chi and psi are one function: the same group (its elements in any
    order) and equal values at every element, whatever their orders m."""
    if chi.group != psi.group:
        return False
    m = lcm(chi.order_m, psi.order_m)
    scale_a, scale_b = m // chi.order_m, m // psi.order_m
    return all((ea * scale_a - eb * scale_b) % m == 0
               for ea, eb in zip(chi.exponents, psi.exponents_in(chi.group)))


def value(chi, g):
    """chi(g) as a cyclotomic number."""
    return Cyclotomic.root_of_unity(chi.order_m, chi.exponent(g))


def multiplicative_order(z, bound=10_000):
    """Order of z as a root of unity; raises if it is not one."""
    acc = Cyclotomic.one()
    for t in range(1, bound + 1):
        acc = acc * z
        if acc == Cyclotomic.one():
            return t
    raise ValueError(f"{z!r} is not a root of unity of order <= {bound}")


def euler_phi(m):
    return len(cyclotomic_polynomial(m)) - 1


def coefficient(P, exps):
    """The coefficient of P at an exponent vector; zero when no term of P can
    have that vector (wrong length, or not isobaric of P's weight)."""
    try:
        key = P._key(exps)
    except ValueError:
        return Cyclotomic.zero()
    return P.terms.get(key, Cyclotomic.zero())


def psum_sub(a, b):
    """Difference of two power-sum polynomials of the same weight."""
    return a.add(b.scale(-1))


def evaluate_all_ones(P):
    total = Cyclotomic.zero()
    for coeff in P.terms.values():
        total = total + coeff
    return total


def elementary_symmetric(d, n):
    """e_d in the n+1 variables x_0..x_n; zero when d > n+1."""
    nvars = n + 1
    terms = {}
    for subset in combinations(range(nvars), d):
        exps = [0] * nvars
        for i in subset:
            exps[i] = 1
        terms[tuple(exps)] = Cyclotomic.one()
    return MonomialPoly(nvars, terms)


def reconstruct_wreath_element(sigma, taus, r, d):
    """Inverse of ``decompose_wreath_element``."""
    images = [0] * (d * r)
    for s in range(1, d + 1):
        for t in range(1, r + 1):
            images[(s - 1) * r + t - 1] = (sigma[s - 1] - 1) * r + taus[s - 1][t - 1]
    return tuple(images)


def monomial_mul(a, b, caps=DEFAULT_CAPS):
    """Product of two MonomialPolys in the same variables, under the term cap."""
    if len(a.terms) * len(b.terms) > caps.specialize_terms:
        raise CapExceeded("monomial product exceeds the term cap")
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out[key] + ca * cb if key in out else ca * cb
    return MonomialPoly(a.size, out)


def specialize_by_substitution(Z, n, caps=DEFAULT_CAPS):
    """g_n by polynomial substitution: each term's product of the MonomialPolys
    p_s = x_0^s + ... + x_n^s, formed with ``monomial_mul`` (and its term cap)
    from scratch, scaled by the coefficient and added in ``sorted_terms``
    order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    nvars = n + 1

    def power_sum(s):
        return MonomialPoly(nvars, {tuple(s if j == i else 0 for j in range(nvars)):
                                    Cyclotomic.one() for i in range(nvars)})

    result = MonomialPoly(nvars, {})
    for exps, coeff in Z.sorted_terms():
        prod = MonomialPoly(nvars, {(0,) * nvars: Cyclotomic.one()})
        for s, c in enumerate(exps, start=1):
            for _ in range(c):
                prod = monomial_mul(prod, power_sum(s), caps)
        result = result.add(prod.scale(coeff))
    return result


def fraction_form(c):
    """A ``Cyclotomic`` as an oracle value (conductor, Fraction coefficients in the
    power basis of Q(zeta_conductor)), read from its public ``to_json()``."""
    js = c.to_json()
    if "conductor" not in js:
        return 1, (Fraction(int(js["num"]), int(js["den"])),)
    return js["conductor"], tuple(Fraction(int(q["num"]), int(q["den"])) for q in js["coeffs"])


def fraction_json(value):
    """The ``to_json()`` form of an oracle value."""
    conductor, coeffs = value
    pairs = [{"num": str(q.numerator), "den": str(q.denominator)} for q in coeffs]
    return pairs[0] if conductor == 1 else {"conductor": conductor, "coeffs": pairs}


def rational(c):
    """The value of a rational ``Cyclotomic`` as a Fraction, read from its ``to_json()``."""
    conductor, coeffs = fraction_form(c)
    if conductor != 1:
        raise ValueError(f"{c!r} is not rational")
    return coeffs[0]


def as_cyclotomic(value):
    """The ``Cyclotomic`` of an oracle value, built at the value's own conductor."""
    conductor, coeffs = value
    den = lcm(*(q.denominator for q in coeffs))
    nums = tuple(int(q * den) for q in coeffs)
    return Cyclotomic(conductor, nums[0] if conductor == 1 else nums, den)


def reduce_mod_phi(poly, M):
    """A polynomial in zeta_M (Fraction coefficients, ascending) as an oracle value:
    its remainder by long division with the monic Phi_M, at conductor M, or at 1
    when only the constant term is left."""
    phi = cyclotomic_polynomial(M)
    deg = len(phi) - 1
    rest = list(poly) + [Fraction(0)] * (deg - len(poly))
    for i in range(len(rest) - 1, deg - 1, -1):
        top = rest[i]
        if top:
            for t, p in enumerate(phi):
                rest[i - deg + t] -= top * p
    coeffs = tuple(rest[:deg])
    return (M, coeffs) if any(coeffs[1:]) else (1, coeffs[:1])


def lift(value, M):
    """An oracle value's coefficients as a polynomial in zeta_M, its conductor m | M:
    zeta_m^j = zeta_M^(j M/m)."""
    conductor, coeffs = value
    step = M // conductor
    poly = [Fraction(0)] * ((len(coeffs) - 1) * step + 1)
    for j, c in enumerate(coeffs):
        poly[j * step] = c
    return poly


def root(m, k):
    """zeta_m^k as an oracle value, at its conductor m/gcd(k, m), or at 1 when that is <= 2."""
    g = gcd(k, m)
    return reduce_mod_phi([Fraction(0)] * (k % m // g) + [Fraction(1)], m // g)


def cyclotomic_sum(a, b):
    """a + b on oracle values: both lifted to the lcm M of their conductors, added and
    reduced mod Phi_M, and demoted to conductor 1 when rational."""
    M = lcm(a[0], b[0])
    return reduce_mod_phi([x + y for x, y in zip_longest(lift(a, M), lift(b, M),
                                                         fillvalue=Fraction(0))], M)


def cyclotomic_product(a, b):
    """a * b on oracle values: the product of their lifts to the lcm M of their
    conductors, reduced mod Phi_M, and demoted to conductor 1 when rational."""
    M = lcm(a[0], b[0])
    pa, pb = lift(a, M), lift(b, M)
    prod = [Fraction(0)] * (len(pa) + len(pb) - 1)
    for i, x in enumerate(pa):
        for j, y in enumerate(pb):
            prod[i + j] += x * y
    return reduce_mod_phi(prod, M)


def cycle_index_by_cyclotomic_sums(G, chi):
    """Z(chi) with one ``cyclotomic_sum`` of oracle ``root`` values per element of
    chi's group, in its element order, scaled by 1/|G| at the end."""
    acc = {}
    for sigma, e in zip(chi.group.images, chi.exponents):
        key = cycle_type(sigma)
        z = root(chi.order_m, e)
        acc[key] = z if key not in acc else cyclotomic_sum(acc[key], z)
    scale = (1, (Fraction(1, G.order),))
    return PowerSumPoly(G.degree, {k: as_cyclotomic(cyclotomic_product(v, scale))
                                   for k, v in acc.items()})


def module_points(M):
    """The points of [0,n]^d of the monomial module M in basis order, decoded
    from their codes sum p_k (n+1)^(d-1-k)."""
    return [tuple(i // w % (M.n + 1) for w in M.weights) for i in range(M.dim)]


def module_index(M, point):
    """The basis index (code) of a point of [0,n]^d in M; ValueError for any
    other tuple, which a bare weighted sum could read as some valid code."""
    if len(point) != M.d or not all(0 <= p <= M.n for p in point):
        raise ValueError(f"{point!r} is not a point of [0,{M.n}]^{M.d}")
    return sum(p * w for p, w in zip(point, M.weights))


def columns(A):
    """Every column of the ``SparseMatrix`` A in the power basis of Z[zeta_m], zeros dropped."""
    return [A.column(j) for j in range(A.dim)]


def entry(A, row, col):
    """Entry (row, col) of the projector held by the ``SparseMatrix`` A, in Q(zeta_m)."""
    ring = A.ring
    return ring.to_cyclotomic(A.column(col).get(row, ring.zero), A.denominator)


def multiplication_matrix(a, m):
    """The phi(m) x phi(m) integer matrix of multiplication by a in Z[zeta_m].

    ``a`` is an element of ``CyclotomicIntegers(m)`` (a tuple in the power
    basis, or an int when phi(m) = 1).  Column c holds a zeta_m^c, formed from
    column c - 1 by shifting up one power and reducing zeta_m^phi(m) with the
    monic ``cyclotomic_polynomial(m)``.
    """
    phi = cyclotomic_polynomial(m)
    column = [a] if isinstance(a, int) else list(a)
    columns = [column]
    for _ in range(len(phi) - 2):
        top = column[-1]
        column = [c - top * p for c, p in zip([0] + column[:-1], phi)]
        columns.append(column)
    return [list(row) for row in zip(*columns)]


def rank_over_cyclotomic_field(columns, m):
    """Exact rank over Q(zeta_m) of sparse columns {row: element of Z[zeta_m]}.

    Each entry becomes its ``multiplication_matrix``, so the columns become a
    rational matrix of phi(m) times the size, of rank phi(m) times the rank
    over Q(zeta_m); that matrix is row reduced with ``Fraction``s.
    """
    deg = euler_phi(m)
    where = {r: t for t, r in enumerate(sorted({r for col in columns for r in col}))}
    matrix = [[Fraction(0)] * (deg * len(columns)) for _ in range(deg * len(where))]
    for j, col in enumerate(columns):
        for r, a in col.items():
            for s, row in enumerate(multiplication_matrix(a, m)):
                matrix[where[r] * deg + s][j * deg:(j + 1) * deg] = map(Fraction, row)
    rank = 0
    for c in range(deg * len(columns)):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][c]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        lead = matrix[rank]
        for i in range(rank + 1, len(matrix)):
            if matrix[i][c]:
                f = matrix[i][c] / lead[c]
                matrix[i] = [x - f * y for x, y in zip(matrix[i], lead)]
        rank += 1
    if rank % deg:
        raise AssertionError("the rational rank is not a multiple of phi(m)")
    return rank // deg
