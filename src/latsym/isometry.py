"""Isometries of even lattices: orders, invariant lattices, classification.

The entry point for the rank-16 model is report(), which fingerprints an
isometry (order, discriminant action, invariant and coinvariant genus,
spinor norm, wall scan) and matches the result against the bundled class
table.  The supporting operations are usable on any integral lattice.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import chain
from math import gcd

from . import discform, fixtures, genus, intmat, lattice, walls


class LatticeIsometry:
    """An isometry of an integral lattice, acting on column coordinates."""

    def __init__(self, lat, matrix):
        m = [list(row) for row in matrix]
        if len(m) != lat.rank or any(len(row) != lat.rank for row in m):
            raise ValueError("matrix size does not match the lattice rank")
        if not set(map(type, chain.from_iterable(m))) <= {int}:
            raise ValueError("an isometry needs an integer matrix")
        gm = intmat.mat_mul(lat.gram, m)
        # m^T G m = G with det G != 0 forces det m = +-1
        if intmat.mat_mul(intmat.transpose(m), gm) != lat.gram:
            if intmat.det(m) not in (1, -1):
                raise ValueError("matrix is not unimodular over the integers")
            raise ValueError("matrix does not preserve the bilinear form")
        self.lattice = lat
        self.matrix = m
        self.gram_matrix = gm
        self._split = None      # kept by invariant_coinvariant

    def __call__(self, x):
        return intmat.mat_vec(self.matrix, list(x))

    def __eq__(self, other):
        return (isinstance(other, LatticeIsometry)
                and self.lattice.gram == other.lattice.gram
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.matrix))

    def __repr__(self):
        return "LatticeIsometry(%s, rank %d)" % (
            self.lattice.name or "unnamed", self.lattice.rank)

    def is_identity(self):
        return self.matrix == intmat.identity(self.lattice.rank)


def make_isometry(lat, matrix):
    """Validated isometry of lat from an integer matrix (column action)."""
    return LatticeIsometry(lat, matrix)


def identity_isometry(lat):
    return LatticeIsometry(lat, intmat.identity(lat.rank))


def reflection(lat, v):
    """The reflection x -> x - 2 <x, v> / <v, v> v, when it preserves the
    lattice: entry (i, j) of its matrix is delta_ij - 2 v_i (G v)_j / q."""
    q = lat.square(v)
    if q == 0:
        raise ValueError("cannot reflect in an isotropic vector")
    gv = intmat.mat_vec(lat.gram, v)
    m = intmat.identity(lat.rank)
    for vi, row in zip(v, m):
        for j, c in enumerate(gv):
            t, r = divmod(2 * vi * c, q)
            if r:
                raise ValueError(
                    "reflection in this vector does not preserve the lattice")
            row[j] -= t
    return LatticeIsometry(lat, m)


def _same_lattice(f, g):
    if f.lattice.gram != g.lattice.gram:
        raise ValueError("isometries act on different lattices")


def compose(f, g):
    """The isometry applying g first, then f."""
    _same_lattice(f, g)
    return LatticeIsometry(f.lattice, intmat.mat_mul(f.matrix, g.matrix))


def inverse(f):
    """M^-1 = G^-1 M^T G, from one solve G Y = D M^T G and Y / D exact."""
    d, y = intmat.solve(f.lattice.gram, intmat.transpose(f.gram_matrix))
    if any(x % d for row in y for x in row):
        raise ValueError("the inverse is not integral")
    return LatticeIsometry(f.lattice, [[x // d for x in row] for row in y])


def conjugate(f, g):
    """g o f o g^-1; carries the mirror of a reflection through g."""
    return compose(compose(g, f), inverse(g))


def power(f, k):
    """The k-th power of an isometry (k may be negative)."""
    if k < 0:
        return power(inverse(f), -k)
    return LatticeIsometry(f.lattice, _mat_power(f.matrix, k))


def _mat_power(m, k):
    out, base = None, m
    while k:
        if k & 1:
            out = base if out is None else intmat.mat_mul(out, base)
        k >>= 1
        if k:
            base = intmat.mat_mul(base, base)
    return intmat.identity(len(m)) if out is None else out


# ---------------------------------------------------------------------------
# multiplicative order

# a prime above every cyclotomic index order_of tries (d <= 2 s^2 + 1)
_P = 2**61 - 1
_INFINITE = "isometry has infinite order, beyond any cap"


def _char_poly_mod(m):
    """Coefficients of det(xI - M) mod _P, low degree first.

    M is reduced to upper Hessenberg form H by similarity mod _P, one
    inverse per column; then the leading minors p_k of xI - H satisfy
    p_k = x p_{k-1} - sum_{i<=k} h_ik (h_{i+1,i} ... h_{k,k-1}) p_{i-1}.
    """
    n = len(m)
    h = [[x % _P for x in row] for row in m]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        h[piv], h[j + 1] = h[j + 1], h[piv]
        for row in h:
            row[piv], row[j + 1] = row[j + 1], row[piv]
        inv, top = pow(h[j + 1][j], -1, _P), h[j + 1]
        for i in range(j + 2, n):
            u = h[i][j] * inv % _P
            if u:
                h[i] = [(a - u * b) % _P for a, b in zip(h[i], top)]
                for row in h:
                    row[j + 1] = (row[j + 1] + u * row[i]) % _P
    polys = [[1]]
    for k in range(n):
        p, t = [0] + polys[k], 1
        for i in range(k, -1, -1):
            c = h[i][k] * t
            for s, a in enumerate(polys[i]):
                p[s] -= c * a
            t = t * h[i][i - 1] % _P  # not used after i = 0
        polys.append([x % _P for x in p])
    return polys[n]


def _poly_divmod(a, b):
    """Quotient and remainder mod _P of polynomials, b monic."""
    a = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 1)
    for i in range(len(a) - db - 1, -1, -1):
        c = q[i] = a[i + db] % _P
        for j in range(db + 1):
            a[i + j] -= c * b[j]
    return q, [x % _P for x in a[:db]]


@lru_cache(maxsize=None)
def _cyclotomic(d):
    """Phi_d mod _P, low degree first: x^d - 1 over the Phi_e, e | d, e < d."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly, rem = _poly_divmod(poly, _cyclotomic(e))
            if any(rem):
                raise RuntimeError("cyclotomic division left a remainder")
    return poly


@lru_cache(maxsize=None)
def _cyclotomic_indices(n):
    """The d with phi(d) <= n, ascending; all lie below 2 n^2 + 2."""
    phi = list(range(2 * n * n + 2))
    for p in range(2, len(phi)):
        if phi[p] == p:     # p is prime
            for k in range(p, len(phi), p):
                phi[k] -= phi[k] // p
    return tuple(d for d in range(1, len(phi)) if phi[d] <= n)


def order_of(f, cap=10**6):
    """Multiplicative order of an isometry; error beyond the cap.

    A degenerate fixed lattice K means infinite order.  Otherwise M is the
    identity on K_Q and acts on the saturated coinvariant lattice C (rows
    c_j) by the integral s x s matrix A, M c_j = sum_i A_ij c_i, so ord(f) =
    ord(A).  C mod 2 has rank s, so its columns J independent mod 2 have an
    odd determinant, and A solves C^T[J] A = M[J] C^T, s rows of M C^T.

    Order 2 is read off G M before any polynomial: M^T G M = G gives
    M^-1 = G^-1 M^T G, so M^2 = I iff G M = M^T G = (G M)^T, and s > 0
    rules out M = I.  Otherwise the characteristic polynomial chi of A is
    divided by the cyclotomic Phi_d, phi(d) <= s, all mod the prime
    _P = 2^61 - 1; the lcm L of the d found is confirmed by one exact power
    A^L = I.  This is exact: _P exceeds
    every d tried, so the Phi_d are squarefree and pairwise coprime mod _P,
    and reduction mod _P is a ring map.  If f has finite order, chi =
    prod Phi_d^(m_d) over Z, the same factors divide out mod _P with the
    same multiplicities, L is the true order and the power check passes.
    Otherwise a factor is left over or A^L != I: infinite order.
    """
    try:
        _inv, coinv = invariant_coinvariant(f)
    except ValueError as exc:
        if str(exc) != lattice.DEGENERATE:
            raise
        raise ValueError(_INFINITE) from None
    s = coinv.rank
    if s == 0:
        return 1
    order = 2 if f.gram_matrix == intmat.transpose(f.gram_matrix) else \
        _coinvariant_order(f, coinv)
    if order > cap:
        raise ValueError("isometry order exceeds the cap of %d" % cap)
    return order


def _coinvariant_order(f, coinv):
    """order_of for an f with M^2 != I, from the action A on C."""
    s = coinv.rank
    ct = intmat.transpose(coinv.rows)
    masks = [intmat.f2_mask(col) for col in ct]
    cols = [j for j, r in enumerate(intmat.f2_relations(masks)) if not r]
    den, a = intmat.solve([ct[j] for j in cols],
                          intmat.mat_mul([f.matrix[j] for j in cols], ct))
    a = [[x // den for x in row] for row in a]
    poly = _char_poly_mod(a)
    order = 1
    for d in _cyclotomic_indices(s):
        cyc = _cyclotomic(d)
        hit = False
        while len(poly) >= len(cyc):
            quo, rem = _poly_divmod(poly, cyc)
            if any(rem):
                break
            poly = quo
            hit = True
        if hit:
            order = order * d // gcd(order, d)
        if len(poly) == 1:
            break
    if len(poly) > 1 or _mat_power(a, order) != intmat.identity(s):
        raise ValueError(_INFINITE)
    return order


# ---------------------------------------------------------------------------
# invariant and coinvariant lattices

class Sublattice:
    """A saturated sublattice, presented by basis rows in ambient coordinates."""

    def __init__(self, ambient, rows, name=None):
        self.rows = [list(r) for r in rows]
        # the pairing rows G r (G is symmetric), for the Gram, the
        # orthogonal complement and the wall scan
        self.gram_rows = intmat.mat_mul(self.rows, ambient.gram)
        self.lattice = lattice.Lattice(intmat.mat_mul(
            self.rows, intmat.transpose(self.gram_rows)), name=name)

    @property
    def rank(self):
        return len(self.rows)


def invariant_coinvariant(f):
    """The fixed sublattice of f and its orthogonal complement, found once
    per isometry and kept on it."""
    if f._split is None:
        lat = f.lattice
        delta = [[x - (i == j) for j, x in enumerate(row)]
                 for i, row in enumerate(f.matrix)]
        inv = Sublattice(lat, intmat.kernel_basis(delta), name="invariant")
        coinv_rows = ([] if inv.rank == lat.rank else lattice.orthogonal_complement(
            lat, inv.rows, inv.gram_rows))
        f._split = inv, Sublattice(lat, coinv_rows, name="coinvariant")
    return f._split


# ---------------------------------------------------------------------------
# real spinor norm

def in_O_plus(f):
    """Positive real spinor norm taken for the negated form.

    The sign convention puts every reflection in a negative-square vector
    inside O+ and puts -id outside it.  It is the orientation character on
    maximal positive definite subspaces: with p_i spanning one, f is in O+
    iff det(<p_i, f p_j>) > 0.
    """
    frame = f.lattice.positive_frame()
    images = [f(p) for p, _w in frame]
    return intmat.det([[intmat.dot(w, y) for y in images] for _p, w in frame]) > 0


# ---------------------------------------------------------------------------
# discriminant action and the wall criterion

def disc_order(f):
    """Order of the action induced on the discriminant group."""
    return discform.induced_disc_isometry(f.lattice, f).order()


def exceptional_involution(model):
    """The reflection in the second A1 generator; symplectic and regular."""
    return reflection(model.lattice, model.named["a1_second"])


def _verdict(model, f):
    """(order, in O+, coinvariant negative definite, witnesses, symplectic,
    regular) of an isometry of the model lattice.

    Symplectic means in O+ with a negative definite coinvariant lattice
    that meets no pointlike-exceptional wall; regular additionally excludes
    the other wall classes.  Raises for isometries of infinite order.
    """
    if f.lattice.gram != model.lattice.gram:
        raise ValueError("isometry does not act on the model lattice")
    order = order_of(f)
    oplus = in_O_plus(f)
    _inv, coinv = invariant_coinvariant(f)
    neg_def = coinv.lattice.signature() == (0, coinv.rank)
    witnesses = walls.coinvariant_wall_scan(model, f) if neg_def else []
    symplectic = (oplus and neg_def
                  and not any(w.wclass in walls.PEX_CLASSES for w in witnesses))
    return order, oplus, neg_def, witnesses, symplectic, symplectic and not witnesses


def symplectic_status(model, f):
    """(symplectic, regular, witnesses) for an isometry of the model lattice,
    as _verdict decides them.  Raises for isometries of infinite order,
    whose fixed lattice can be degenerate, and for those outside O+
    (non-effective).
    """
    _order, oplus, _neg_def, witnesses, symplectic, regular = _verdict(model, f)
    if not oplus:
        raise ValueError("isometry is outside O+ (non-effective)")
    return symplectic, regular, witnesses


# ---------------------------------------------------------------------------
# order-p nonsymplectic criterion by integer shifts

# integer brackets lo < 2cos(2 pi k / p) < hi, one cosine in each
_COS_BRACKETS = {
    2: {1: (-3, -1)},
    3: {1: (-2, 0)},
    5: {1: (0, 1), 2: (-2, -1)},
    7: {1: (1, 2), 2: (-1, 0), 3: (-2, -1)},
}


def _cos_signatures(f, coinv, p):
    """{k: (s+, s-)} of the form on the 2cos(2 pi k / p)-eigenspace of
    T = f + f^-1, for f of prime order p with coinvariant lattice coinv.

    The coinvariant space is ker Phi_p(f), the b-orthogonal sum of the
    eigenspaces V_k of the self-adjoint T, each of dimension
    rank / (p // 2).  On it b(x, (T - r) y) has the integer Gram
    B + B^T - r Q, with B = C G M C^T and Q = C G C^T for the basis rows C.
    By Sylvester's law of inertia its positive index is the sum of s_k+
    over t_k > r and of s_k- over t_k < r, so with t_k the only cosine in
    (lo, hi), plus(lo) - plus(hi) = s_k+ - s_k-.
    """
    c, q = coinv.rows, coinv.lattice.gram
    b = intmat.mat_mul(c, intmat.mat_mul(f.gram_matrix, intmat.transpose(c)))

    def plus(r):
        shifted = [[x + y - r * z for x, y, z in zip(row, col, qrow)]
                   for row, col, qrow in zip(b, zip(*b), q)]
        return intmat.det_signature(shifted)[1][0]

    dim = coinv.rank // (p // 2)
    out = {}
    for k, (lo, hi) in _COS_BRACKETS[p].items():
        pos = (dim + plus(lo) - plus(hi)) // 2
        out[k] = (pos, dim - pos)
    return out


def nonsymplectic_prime_profile(f, p):
    """Order-p nonsymplectic criterion at each primitive cosine value.

    Maps k to the result obtained by evaluating at 2cos(2 pi k / p), for
    k = 1 .. (p-1)/2; the values for k and p-k coincide.
    """
    if p not in _COS_BRACKETS:
        raise ValueError("p must be one of 2, 3, 5, 7")
    if order_of(f) != p:
        raise ValueError("isometry does not have order %d" % p)
    inv, coinv = invariant_coinvariant(f)
    inv_ok = inv.lattice.signature()[0] == 1
    return {k: inv_ok and pos == 2
            for k, (pos, _neg) in _cos_signatures(f, coinv, p).items()}


# ---------------------------------------------------------------------------
# classification report

_REPORT_FIELDS = (
    "order", "disc_order", "inv_genus", "coinv_genus", "in_O_plus",
    "coinv_neg_def", "symplectic", "regular", "exceptional",
    "coinv_generator_divisibility", "type_letter", "table_row")


class IsometryReport(namedtuple("IsometryReport",
                                _REPORT_FIELDS + ("witnesses",))):
    """Classification fingerprint of an isometry of the model lattice."""

    __slots__ = ()

    def as_dict(self):
        out = self._asdict()
        out["witnesses"] = [w.as_dict() for w in self.witnesses]
        return out


# the canonical genus string of D10(2), the coinvariant genus of type e
_D10_2 = "II_(0,10)2^84^2_6"


@lru_cache(maxsize=None)
def _canonical(text):
    """Canonical string of a table genus string (None for None), parsed
    once per process."""
    return None if text is None else genus.canonical_string(genus.parse_genus(text))


def _match_row(rows, order, dorder, regular, inv_genus, coinv_genus):
    """The first row whose (order, disc_order, regular) and canonical
    invariant and coinvariant genus strings are the given ones, or None."""
    key = (order, dorder, regular, inv_genus, coinv_genus)
    for row in rows:
        if ((row["order"], row["disc_order"], bool(row["regular"])) == key[:3]
                and (_canonical(row["invariant_genus"]),
                     _canonical(row["coinvariant_genus"])) == key[3:]):
            return row
    return None


def _type_letter(row, order, regular, coinv_genus):
    # Precedence matters: irregular beats everything, the order-two class
    # with coinvariant D10(2) beats the generic letters.
    if not regular:
        return "a"
    if order == 2 and coinv_genus == _D10_2:
        return "e"
    if order % 5 == 0:
        return "d"
    if row["type"] == "twist":
        return "c"
    if row["type"] in ("K3", "K3[2]"):
        return "b"
    raise ValueError("table row %d carries no realization type" % row["no"])


def report(model, f, fixture=None):
    """Full fingerprint of an isometry, matched against the class table.

    Symplectic isometries must match a table row; no match raises, since
    the table claims to be complete.  Non-symplectic ones get the type
    letter "non-symplectic" and no row.
    """
    order, oplus, neg_def, witnesses, symplectic, regular = _verdict(model, f)
    dorder = disc_order(f)
    inv, coinv = invariant_coinvariant(f)
    inv_genus, coinv_genus = (
        genus.canonical_string(genus.genus_symbol(part.lattice)) if part.rank
        else None for part in (inv, coinv))
    exceptional = (order == 2 and coinv.rank == 1
                   and coinv.lattice.gram == [[-2]])
    gen_div = (model.lattice.divisibility(coinv.rows[0])
               if coinv.rank == 1 else None)
    table_row = None
    if symplectic:
        if fixture is None:
            fixture = fixtures.load_table()
        row = _match_row(fixture, order, dorder, regular, inv_genus, coinv_genus)
        if row is None:
            raise ValueError(
                "no table row matches this symplectic isometry (outside table)")
        table_row = row["no"]
        type_letter = _type_letter(row, order, regular, coinv_genus)
    else:
        type_letter = "non-symplectic"
    return IsometryReport(
        order=order,
        disc_order=dorder,
        inv_genus=inv_genus,
        coinv_genus=coinv_genus,
        in_O_plus=oplus,
        coinv_neg_def=neg_def,
        symplectic=symplectic,
        regular=regular,
        exceptional=exceptional,
        coinv_generator_divisibility=gen_div,
        type_letter=type_letter,
        table_row=table_row,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# JSON interchange

def isometry_to_json(f):
    """Plain-dict form; the standard lattice is referenced by name."""
    model = lattice.standard_model()
    if f.lattice.gram == model.lattice.gram:
        lat_out = "Lambda"
    else:
        lat_out = lattice.lattice_to_json(f.lattice)
    return {"lattice": lat_out, "matrix": [list(row) for row in f.matrix]}


def isometry_from_json(data):
    """Inverse of isometry_to_json; validates the matrix on load."""
    if "matrix" not in data:
        raise ValueError("isometry data needs a matrix field")
    ref = data.get("lattice", "Lambda")
    if ref == "Lambda":
        lat = lattice.standard_model().lattice
    elif isinstance(ref, dict):
        lat = lattice.lattice_from_json(ref)
    else:
        raise ValueError("unknown lattice reference %r" % (ref,))
    return make_isometry(lat, lattice.parse_matrix(data["matrix"]))
