"""Discriminant groups of even lattices and their finite orthogonal groups.

The discriminant group of an even nondegenerate lattice L is D_L = L^v/L.
It carries the quadratic form q(x) = x^2 mod 2Z and the polar form
b(x, y) = q(x+y) - q(x) - q(y) mod 2Z.  Elements are coordinate tuples over
the elementary divisors of the Gram matrix.  All arithmetic is on ints:
q and b are kept in units of 1/e for the exponent e of the group, and the
action of a lattice isometry is read off integer lifts by exact division.
Groups of isometries of small modules are handled as permutations of the
element set through a stabilizer chain, so order, membership and orbits
are exact.
"""

from functools import cached_property, reduce
from itertools import product
from math import lcm, prod
from operator import index, itemgetter, mul, xor

from . import intmat


class TorsionQuadModule:
    """Finite abelian group with a Q/2Z-valued quadratic form.

    An element is a tuple (c_1, ..., c_k) with c_i taken modulo orders[i];
    the orders form a divisor chain and every entry exceeds 1.  q on the
    generators and the polar form values b(g_i, g_j), rationals mod 2Z
    with denominators dividing the exponent e = lcm(orders), are given and
    kept in units of 1/e: qunits[i] = e q(g_i) and bunits[i][j] =
    e b(g_i, g_j), ints reduced mod 2e.  For a module built from a
    lattice, lifts[i] is an integer vector u_i such that u_i / orders[i]
    represents g_i in the dual lattice.
    """

    def __init__(self, orders, qunits, bunits, source=None, lifts=None):
        k = len(orders)
        if any(d < 2 for d in orders):
            raise ValueError("orders must all exceed 1")
        for i in range(k - 1):
            if orders[i + 1] % orders[i]:
                raise ValueError("orders must form a divisor chain")
        if (len(qunits) != k or len(bunits) != k
                or any(len(r) != k for r in bunits)):
            raise ValueError("generator data does not match orders")
        self.orders = list(orders)
        e = self.exponent = lcm(*self.orders)
        self.qunits = [x % (2 * e) for x in qunits]
        self.bunits = [[x % (2 * e) for x in row] for row in bunits]
        for i in range(k):
            if self.bunits[i][i] != 2 * self.qunits[i] % (2 * e):
                raise ValueError("polar diagonal must be 2q of the generator")
            for j in range(k):
                if self.bunits[i][j] != self.bunits[j][i]:
                    raise ValueError("polar form must be symmetric")
        self.source = source
        self.lifts = lifts
        self._coords = None

    def __repr__(self):
        return "TorsionQuadModule(orders=%r)" % (self.orders,)

    def order(self):
        return prod(self.orders)

    @property
    def is_two_elementary(self):
        return all(d == 2 for d in self.orders)

    def zero(self):
        return (0,) * len(self.orders)

    def reduce(self, x):
        if len(x) != len(self.orders):
            raise ValueError("coordinate length does not match module rank")
        return tuple(index(c) % d for c, d in zip(x, self.orders))

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    @cached_property
    def _elems(self):
        return list(product(*map(range, self.orders)))

    @cached_property
    def _eidx(self):
        return {e: i for i, e in enumerate(self._elems)}

    def elements(self):
        """All elements, in lexicographic coordinate order."""
        return list(self._elems)

    def index_of(self, x):
        return self._eidx[self.reduce(x)]

    def _q_units(self, x):
        """e q(x) mod 2e for a coordinate tuple x."""
        total = 0
        for i, xi in enumerate(x):
            if xi:
                row = self.bunits[i]
                total += xi * (xi * self.qunits[i]
                               + sum(map(mul, row[i + 1:], x[i + 1:])))
        return total % (2 * self.exponent)

    def q(self, x):
        from fractions import Fraction
        return Fraction(self._q_units(self.reduce(x)), self.exponent)

    def b(self, x, y):
        from fractions import Fraction
        x, y = self.reduce(x), self.reduce(y)
        total = sum(xi * sum(map(mul, row, y))
                    for xi, row in zip(x, self.bunits) if xi)
        return Fraction(total % (2 * self.exponent), self.exponent)

    def lift(self, x):
        """(num, e) with num / e a representative of x in the dual lattice,
        num an int vector in lattice coordinates and e the exponent."""
        if self.lifts is None:
            raise ValueError("module has no source lattice")
        e = self.exponent
        num = [0] * self.source.rank
        for c, u, d in zip(self.reduce(x), self.lifts, self.orders):
            num = [a + c * (e // d) * b for a, b in zip(num, u)]
        return num, e

    def dual_class(self, num, den):
        """Class of the dual-lattice vector num / den, for an int vector num
        in lattice coordinates and a positive int den."""
        if self._coords is None:
            raise ValueError("module has no source lattice")
        return self._dual_class(intmat.mat_vec(self.source.gram, num), den)

    def _dual_class(self, gnum, den):
        """Class of the vector num / den, for an integer vector num, given
        its pairings gnum = G num.

        num / den lies in the dual lattice iff den divides G num; the
        quotient w then has class coordinates (V^T w)_i mod orders[i] for
        the right Smith transform V of G.
        """
        w = []
        for p in gnum:
            quo, rem = divmod(p, den)
            if rem:
                raise ValueError("vector is not in the dual lattice")
            w.append(quo)
        return tuple(intmat.dot(col, w) % d
                     for col, d in zip(self._coords, self.orders))


def discriminant_form(lat):
    """D_L = L^v/L with q(x) = x^2 mod 2Z, for an even lattice L.

    The module is cached on the lattice, so repeated calls return the same
    instance and induced isometries share it.
    """
    cached = getattr(lat, "_disc_form", None)
    if cached is not None:
        return cached
    if not lat.is_even:
        raise ValueError("discriminant form needs an even lattice")
    g = lat.gram
    n = lat.rank
    d, u, v = intmat.smith_normal_form(g)
    keep = [i for i in range(n) if d[i][i] > 1]
    orders = [d[i][i] for i in keep]
    lifts = [u[i] for i in keep]
    # U G V = D makes G u_i = d_i (V^-T e_i), so w_j = G u_j / d_j is
    # integral and e <u_i / d_i, u_j / d_j> = e / d_i (u_i . w_j)
    e = lcm(*orders)
    duals = [[x // dj for x in row]
             for row, dj in zip(intmat.mat_mul(lifts, g), orders)]
    inner = [[e // di * x for x in row] for row, di in zip(
        intmat.mat_mul(lifts, intmat.transpose(duals)), orders)]
    mod = TorsionQuadModule(orders, [inner[i][i] for i in range(len(keep))],
                            [[2 * x for x in row] for row in inner],
                            source=lat, lifts=lifts)
    mod._coords = [[v[i][j] for i in range(n)] for j in keep]
    lat._disc_form = mod
    return mod


# ---------------------------------------------------------------------------
# subgroups of 2-elementary modules (F2 linear algebra on bitmasks, bit i
# for coordinate i)

class Subgroup:
    """F2 subspace of a 2-elementary module, stored by a basis of the
    given vectors and the reduced bitmasks of its F2 elimination: a
    membership test is one intmat.f2_least."""

    def __init__(self, module, vectors):
        if not module.is_two_elementary:
            raise ValueError("subgroups are supported for 2-elementary modules")
        self.module, self.basis, self._pivots = module, [], []
        for x in vectors:
            x = module.reduce(x)
            mask = intmat.f2_least(self._pivots, intmat.f2_mask(x))
            if mask:
                self._pivots.append(mask)
                self.basis.append(x)

    @property
    def dim(self):
        return len(self.basis)

    def order(self):
        return 2 ** self.dim

    def contains(self, x):
        return not intmat.f2_least(self._pivots,
                                   intmat.f2_mask(self.module.reduce(x)))

    def elements(self):
        """All members, in lexicographic coordinate order."""
        out = [self.module.zero()]
        for b in self.basis:
            out += [self.module.add(x, b) for x in out]
        return sorted(out)


def _combine(masks, bits):
    """The XOR of the masks over the set bits of bits."""
    return reduce(xor, (m for i, m in enumerate(masks) if bits >> i & 1), 0)


def kernel_and_radical(mod):
    """(K, R, r) for a 2-elementary module.

    K = {x : 2q(x) = 0 mod 2Z}, R = K intersect K-perp under the polar
    form, and r is the element of R with q(r) = 1 mod 2Z.  When R is not
    one dimensional or carries no q = 1 element, r is None.

    With e = 2, 2q(g_i) = qunits[i] and b(g_i, g_j) = bunits[i][j] / 2 mod
    2, both linear over F2: K is spanned by the relations of the bits
    qunits[i] mod 2, B x is the XOR of the polar rows over the bits of x,
    and R by the relations of the columns of the pairing on K.
    """
    if not mod.is_two_elementary:
        raise ValueError("kernel/radical needs a 2-elementary module")
    kern = [rel for rel in intmat.f2_relations([qu & 1 for qu in mod.qunits])
            if rel]
    polar = [intmat.f2_mask([x // 2 for x in row]) for row in mod.bunits]
    cols = [sum((bx & y).bit_count() % 2 << i for i, y in enumerate(kern))
            for bx in (_combine(polar, x) for x in kern)]
    rad = [_combine(kern, rel) for rel in intmat.f2_relations(cols) if rel]
    kernel, radical = (
        Subgroup(mod, [[m >> j & 1 for j in range(len(mod.orders))] for m in ms])
        for ms in (kern, rad))
    r = None
    if radical.dim == 1 and mod._q_units(radical.basis[0]) == mod.exponent:
        r = radical.basis[0]
    return kernel, radical, r


# ---------------------------------------------------------------------------
# isometries of a module

class FqmIsometry:
    """Endomorphism of a torsion module given by an integer matrix.

    The matrix acts on coordinate columns: (f x)_i = sum_j m[i][j] x_j,
    reduced mod orders[i].  preserves_q records whether q survives exactly;
    only q-preserving maps are admitted into groups.
    """

    def __init__(self, module, matrix):
        k = len(module.orders)
        if len(matrix) != k or any(len(r) != k for r in matrix):
            raise ValueError("matrix shape does not match module")
        self.module = module
        self.matrix = [[index(matrix[i][j]) % module.orders[i] for j in range(k)]
                       for i in range(k)]
        # well defined on g_j of order d_j: the image must die under d_j
        for i in range(k):
            for j in range(k):
                if (self.matrix[i][j] * module.orders[j]) % module.orders[i]:
                    raise ValueError("matrix does not define a homomorphism")
        self._key = tuple(tuple(r) for r in self.matrix)

    def __eq__(self, other):
        return (isinstance(other, FqmIsometry)
                and self.module is other.module and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "FqmIsometry(%r)" % (self._key,)

    def compose(self, other):
        """self after other."""
        if other.module is not self.module:
            raise ValueError("isometries live on different modules")
        prod = intmat.mat_mul(self.matrix, other.matrix)
        return FqmIsometry(self.module, prod)

    @property
    def is_identity(self):
        return self.matrix == intmat.identity(len(self.matrix))

    @cached_property
    def preserves_q(self):
        """b and q are kept iff P = F^T B F, B = bunits, has P_ij = B_ij and
        P_jj / 2 + sum_i F_ij^2 (qunits_i - B_ii / 2) = qunits_j, mod 2e."""
        mod, f, e2 = self.module, self.matrix, 2 * self.module.exponent
        p = intmat.mat_mul(intmat.transpose(f), intmat.mat_mul(mod.bunits, f))
        t = [qu - mod.bunits[i][i] // 2 for i, qu in enumerate(mod.qunits)]
        return all(
            (p[j][j] // 2 + sum(r[j] ** 2 * ti for r, ti in zip(f, t))
             - mod.qunits[j]) % e2 == 0
            and all((x - y) % e2 == 0 for x, y in zip(p[j], mod.bunits[j]))
            for j in range(len(f)))

    def permutation(self):
        """Action on the module elements, as a tuple over element indices,
        built from the columns by f(x + c g_j) = f(x) + c f(g_j)."""
        mod = self.module
        images = [mod.zero()]
        for col, d in zip(zip(*self.matrix), mod.orders):
            steps = [mod.zero()]
            for _ in range(d - 1):
                steps.append(mod.add(steps[-1], col))
            images = [mod.add(y, s) for y in images for s in steps]
        perm = tuple(map(mod._eidx.__getitem__, images))
        if len(set(perm)) != len(perm):
            raise ValueError("map is not invertible")
        return perm

    def order(self):
        """Least n with self^n the identity, by composing the matrix; a
        power that repeats before reaching the identity means the map is
        not invertible."""
        power, n, seen = self, 1, set()
        while not power.is_identity:
            if power._key in seen:
                raise ValueError("map is not invertible")
            seen.add(power._key)
            power = power.compose(self)
            n += 1
        return n


def transvection(mod, u):
    """T_u : x -> x + b(u, x) u on a 2-elementary module.

    The map squares to the identity; it preserves q exactly when
    q(u) = 1 mod 2Z, which is what preserves_q will report.
    """
    if not mod.is_two_elementary:
        raise ValueError("transvections need a 2-elementary module")
    u = mod.reduce(u)
    if u == mod.zero():
        raise ValueError("transvection by zero")
    k = len(mod.orders)
    # b(u, g_j) = (u^T B)_j / 2 mod 2, with e = 2
    bu = [x % 4 // 2 for x in intmat.mat_vec(mod.bunits, u)]
    mat = [[(1 if i == j else 0) + u[i] * bu[j] for j in range(k)]
           for i in range(k)]
    return FqmIsometry(mod, mat)


def induced_disc_isometry(lat, f):
    """Action of a lattice isometry on the discriminant group of lat.

    Column j is the class of M u_j / d_j, the image of the lift of the
    j-th generator, read off u_j (G M)^T on the support of u_j.  f is a
    LatticeIsometry, checked when it was made.
    """
    if f.lattice.gram != lat.gram:
        raise ValueError("isometry does not act on this lattice")
    mod = discriminant_form(lat)
    cols = [mod._dual_class(g, d) for g, d in zip(
        intmat.mat_mul(mod.lifts, intmat.transpose(f.gram_matrix)), mod.orders)]
    iso = FqmIsometry(mod, [list(row) for row in zip(*cols)])
    assert iso.preserves_q
    return iso


# ---------------------------------------------------------------------------
# permutation machinery: deterministic stabilizer chain

def _pcompose(p, q):
    """Permutation doing q first, then p, as a tuple on one point too."""
    return itemgetter(*q)(p) if len(q) > 1 else tuple(p[x] for x in q)


def _pinverse(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


class _StabilizerChain:
    """Schreier-Sims chain over the points 0..n-1.

    Strong generators are stored once with the number of leading base
    points they fix; level i uses every generator fixing base[:i].  After
    construction, order() multiplies the transversal sizes and sifting
    decides membership.
    """

    def __init__(self, n, perms=()):
        self.n = n
        self.ident = tuple(range(n))
        self.base = []
        self.strong = []  # (perm, fixed_prefix_length)
        self.trans = []
        for p in perms:
            self.add(p)

    def _gens_at(self, i):
        return [p for p, lv in self.strong if lv >= i]

    def _rebuild(self, i):
        b = self.base[i]
        trans = {b: self.ident}
        queue = [b]
        gens = self._gens_at(i)
        for a in queue:
            ra = trans[a]
            for g in gens:
                c = g[a]
                if c not in trans:
                    trans[c] = _pcompose(g, ra)
                    queue.append(c)
        self.trans[i] = trans

    def _strip(self, p, start):
        for i in range(start, len(self.base)):
            rep = self.trans[i].get(p[self.base[i]])
            if rep is None:
                return p, i
            p = _pcompose(_pinverse(rep), p)
        return p, len(self.base)

    def _place(self, p, stop):
        """Record p as a strong generator fixing base[:stop]."""
        if stop == len(self.base):
            moved = min(i for i in range(self.n) if p[i] != i)
            self.base.append(moved)
            self.trans.append({moved: self.ident})
        self.strong.append((p, stop))
        return stop

    def add(self, p):
        p = tuple(p)
        if len(p) != self.n:
            raise ValueError("permutation degree mismatch")
        residue, stop = self._strip(p, 0)
        if residue == self.ident:
            return
        level = self._place(residue, stop)
        # re-verify the Schreier condition from the affected level upward
        i = level
        while i >= 0:
            self._rebuild(i)
            trans = self.trans[i]
            gens = self._gens_at(i)
            clean = True
            for a in list(trans):
                ra = trans[a]
                for g in gens:
                    rb = trans[g[a]]
                    s = _pcompose(_pinverse(rb), _pcompose(g, ra))
                    if s == self.ident:
                        continue
                    resid, where = self._strip(s, i + 1)
                    if resid == self.ident:
                        continue
                    i = self._place(resid, where)
                    clean = False
                    break
                if not clean:
                    break
            if clean:
                i -= 1

    def order(self):
        return prod(map(len, self.trans))

    def contains(self, p):
        residue, _ = self._strip(tuple(p), 0)
        return residue == self.ident


# the largest module whose isometry groups are enumerated
GROUP_CAP = 1024


class FiniteIsometryGroup:
    """Group of q-preserving isometries of one torsion module.

    The group acts on the module elements; order, membership and orbits
    come from a stabilizer chain over that action.  Modules are capped in
    size (GROUP_CAP) since the chain enumerates element indices.
    """

    def __init__(self, module, generators):
        if module.order() > GROUP_CAP:
            raise ValueError("module too large for group enumeration")
        for g in generators:
            if g.module is not module:
                raise ValueError("generators live on different modules")
            if not g.preserves_q:
                raise ValueError("generators must preserve q")
        self.module = module
        self.generators = list(generators)
        self._perms = [g.permutation() for g in self.generators]

    @cached_property
    def _chain(self):
        return _StabilizerChain(self.module.order(), self._perms)

    def order(self):
        return self._chain.order()

    def contains(self, iso):
        if iso.module is not self.module:
            raise ValueError("isometry lives on a different module")
        return self._chain.contains(iso.permutation())

    def is_central(self, iso):
        p = iso.permutation()
        return all(_pcompose(p, g) == _pcompose(g, p) for g in self._perms)

    def orbits(self, subset):
        """Orbits meeting the given elements, sorted by size then content."""
        mod = self.module
        idx = [mod.index_of(x) for x in subset]
        elems = mod.elements()
        seen = set()
        out = []
        for start in idx:
            if start in seen:
                continue
            orbit = {start}
            queue = [start]
            for a in queue:
                for g in self._perms:
                    c = g[a]
                    if c not in orbit:
                        orbit.add(c)
                        queue.append(c)
            seen |= orbit
            out.append(sorted(elems[i] for i in orbit))
        return sorted(out, key=lambda o: (len(o), o[0]))

    def quotient_order(self, sub, rad):
        """Order of the induced action on sub/rad cosets.

        Every generator must preserve both subgroups; this is checked.  A
        coset is keyed by the f2_least of its mask on rad's pivots.
        """
        elems, eidx = self.module._elems, self.module._eidx

        def key(x):
            return intmat.f2_least(rad._pivots, intmat.f2_mask(x))

        reps = {}
        for x in sub.elements():
            reps.setdefault(key(x), eidx[x])
        coset = {k: i for i, k in enumerate(reps)}
        perms = []
        for p in self._perms:
            images = [elems[p[i]] for i in reps.values()]
            if not all(map(sub.contains, images)) or not all(
                    rad.contains(elems[p[eidx[x]]]) for x in rad.basis):
                raise ValueError("generator does not preserve the subgroup")
            perms.append(tuple(coset[key(y)] for y in images))
        return _StabilizerChain(len(reps), perms).order()


def group_from_generators(gens):
    """Group generated by q-preserving isometries of one module."""
    if not gens:
        raise ValueError("need at least one generator")
    return FiniteIsometryGroup(gens[0].module, gens)


def full_reflection_group(mod):
    """Group generated by all transvections T_u with q(u) = 1 mod 2Z."""
    if not mod.is_two_elementary:
        raise ValueError("reflection groups need a 2-elementary module")
    if mod.order() > GROUP_CAP:
        raise ValueError("module too large for group enumeration")
    gens = [transvection(mod, u) for u in mod.elements()
            if mod._q_units(u) == mod.exponent]
    return FiniteIsometryGroup(mod, gens)
