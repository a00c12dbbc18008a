"""Genus symbols of integral lattices.

The symbol collects, for each prime p dividing 2*det, the Jordan
constituents of the form over Z_p: entries (p^scale, rank, sign), with a
type marker and an oddity at p = 2.  At p = 2 the per-scale signs and
oddities are not separately invariant; symbols are compared after a
canonicalization that walks signs and fuses oddities along chains of
adjacent scales.  Rendered symbols look like "II_(3,13)2^8_6".
genus_symbol and padic_jordan take a lattice.Lattice, read off its
Lattice.jordan; canonical_string takes a GenusSymbol.
"""

import re
from collections import namedtuple
from math import gcd, isqrt, prod

from . import intmat, lattice


class Constituent(namedtuple("Constituent", "scale rank eps kind oddity",
                             defaults=(None, None))):
    """One Jordan constituent: rank and sign at scale p^scale.

    kind is "I" or "II" at p = 2 and None at odd p; oddity is the trace
    invariant mod 8 at p = 2 (0 for type II) and None at odd p.
    """

    __slots__ = ()


class GenusSymbol:
    """Signature pair plus local constituent lists keyed by prime."""

    def __init__(self, pos, neg, even, local):
        self.pos = pos
        self.neg = neg
        self.even = even
        self.local = {p: sorted(cs, key=lambda c: c.scale)
                      for p, cs in local.items()}

    @property
    def rank(self):
        return self.pos + self.neg

    def __repr__(self):
        return "GenusSymbol(%s)" % render_genus(self)


# ---------------------------------------------------------------------------
# helpers on integers

def _valuation(x, p):
    """p-adic valuation of a nonzero integer."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _legendre_int(a, p):
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        raise ValueError("not a unit mod %d" % p)
    return 1 if r == 1 else -1


def _prime_factors(n):
    """Prime divisors of n, ascending: trial division below 2^10, then an
    exact k-th root or Pollard-Brent rho on a composite cofactor until
    intmat.is_prime accepts every piece (it raises on one beyond its
    proven bound).  The tests of primality and roots and the rho steps
    draw on one budget of _RHO_STEPS for the whole call; ValueError
    beyond it."""
    n, out, d = abs(n), set(), 2
    while d < 1 << 10 and d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    rest, left = [n] if n > 1 else [], _RHO_STEPS
    while rest:
        m = rest.pop()
        # is_prime's modular power and _power_root's Newton steps cost
        # about bits and bits / 3 squarings modulo a composite m, a
        # squaring about a twelfth of a rho step's charge
        left -= m.bit_length() * _step_cost(m) // 8
        if left < 0:
            raise _beyond_bound(m)
        if intmat.is_prime(m):
            out.add(m)
        elif (f := _power_root(m, 1 << 10)) is not None:
            rest.append(f)      # m = f^k has the prime divisors of f
        else:
            f, left = _rho_divisor(m, left)
            rest += [f, m // f]
    return sorted(out)


def _power_root(n, least=2):
    """r with r^k = n for the least prime k, or None if n is no power (an
    r^k is an (r^(k/q))^q for a prime q | k).  With no prime below least
    dividing n, r >= least and k <= log_least(n): bits / 10 in
    _prime_factors.  Rho needs about sqrt(q) steps on a power of a prime q."""
    for k in filter(intmat.is_prime,
                    range(2, n.bit_length() // (least.bit_length() - 1) + 1)):
        r = isqrt(n) if k == 2 else _floor_root(n, k)
        if r ** k == n:
            return r
    return None


def _floor_root(n, k):
    """The floor of the k-th root of n >= 1: the root t of m = n >> k h by
    bisection, then Newton's method from above from (t + 1) 2^h.  For h > 0,
    h = bits // k - p - 3 with 2^p > k makes t >= 2^(p + 2) > 4k, so the
    start lies within a factor 1 + 1/(4k) of the root."""
    h = max(n.bit_length() // k - k.bit_length() - 3, 0)
    m = n >> k * h
    lo, hi = 0, 1 << -(-m.bit_length() // k)     # lo^k <= m < hi^k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** k <= m else (lo, mid)
    r = hi << h
    while (y := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = y
    return r


# rho steps in all: about 2 sqrt(q) for a prime factor q of up to 40 bits;
# a step modulo a number of k * 128 bits costs k^2 as much
_RHO_STEPS, _RHO_BATCH = 1 << 21, 100


def _step_cost(m):
    return max(1, m.bit_length() // 128) ** 2


def _beyond_bound(m):
    return ValueError("cannot factor %d within the bound of %d Pollard rho "
                      "steps" % (m, _RHO_STEPS // _step_cost(m)))


def _rho_divisor(n, left):
    """(d, left less the steps taken): a proper divisor d of a
    composite n by Pollard's rho on x -> x^2 + c with Brent's cycle search
    and one gcd per _RHO_BATCH steps (a batch whose product is 0 mod n is
    gone over step by step), moving on to the next c when a cycle closes
    without one.  Each step costs _step_cost(n); raises ValueError when
    left runs out."""
    cost = _step_cost(n)
    for c in range(1, n):
        y, r, g = 2, 1, 1
        while g == 1:
            x, k = y, 0
            while k < r and g == 1:
                ys, q, batch = y, 1, min(_RHO_BATCH, r - k)
                left -= batch * cost
                if left < 0:
                    raise _beyond_bound(n)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (y - x) % n
                g, k = gcd(q, n), k + _RHO_BATCH
            r *= 2
        if g == n:
            y, g = ys, 1
            while g == 1:
                y = (y * y + c) % n
                g = gcd(y - x, n)
        if g != n:
            return g, left


# ---------------------------------------------------------------------------
# Jordan splitting over Z_p

def _row(u, k):
    """Row k of the symmetric matrix stored as upper rows u[i] = (i, i..)."""
    return [u[s][k - s] for s in range(k)] + u[k]


def _local_pieces(u, p, mod):
    """(scale, 1, pivot / p^scale) pieces of a form over Z_p, p odd, given
    as upper rows u[i] = (i, i..) modulo mod = p^N, N = v_p(det) + 3, which
    fixes the Jordan constituents (Conway-Sloane, SPLAG ch. 15).  _pieces
    hands it the Schur complement of a leading block unimodular at p: the
    one scale_pass kept at a scale boundary, or a smaller one rebuilt from
    the pivot rows.

    The pivot is the first entry of least valuation v (the first with
    x % p^(v+1) nonzero), moved to a diagonal entry of that valuation or
    else there by a row-and-column addition; when none is left, the next
    v is that of the gcd of all entries.  Dividing the pivot column by p^v
    and by the unit's inverse modulo p^N keeps each complement modulo p^N.
    """
    pieces, low = [], 0
    while u:
        q = p ** (low + 1)
        bi = next((i for i, row in enumerate(u) if gcd(q, *row) < q), None)
        if bi is None:
            g = 0
            for row in u:
                g = gcd(g, *row)
            if not g:
                raise ValueError("degenerate form")
            low = _valuation(g, p)
            continue
        pv = p ** low
        diag = next((k for k, row in enumerate(u) if row[0] % q), None)
        if diag is None:
            # a_ii + 2a_ij + a_jj has valuation v exactly, p being odd
            bj = bi + next(j for j, x in enumerate(u[bi]) if x % q)
            ri, rj = _row(u, bi), _row(u, bj)
            s = [(x + y) % mod for x, y in zip(ri, rj)]
            s[bi] = (s[bi] + ri[bj] + rj[bj]) % mod
            for r in range(bi):
                u[r][bi - r] = s[r]
            u[bi] = s[bi:]
            diag = bi
        unit = u[diag][0] // pv
        pieces.append((low, 1, unit))
        inv = pow(unit, -1, mod)
        top = _row(u, diag)
        new = []
        for r, row in enumerate(u):
            if r != diag:
                c = top[r] // pv * inv % mod
                new.append([(x - c * y) % mod for x, y in zip(row, top[r:])])
                if r < diag:
                    del new[-1][diag - r]
        u = new
    return pieces


def _odd_part(x):
    return x >> (x & -x).bit_length() - 1


def _trailing_block(rows, minors, top):
    """The trailing block B_top = D_{top-1} S of a symmetric Bareiss run, S
    the Schur complement of the leading top x top block, as upper rows,
    rebuilt backward from its pivot rows r_j = (j, j..): B_j has first row
    r_j and B_j = (r_j r_j^T + D_{j-1} B_{j+1}) / D_j on the rest, exactly."""
    u = []
    for j in range(len(rows) - 1, top - 1, -1):
        r, d, dm = rows[j], minors[j + 1], minors[j]
        u = [r] + [[(r[a] * y + dm * x) // d for y, x in zip(r[a:], row)]
                   for a, row in enumerate(u, 1)]
    return u


def _pieces(lat, p):
    """(scale, rank, det / p^(scale rank)) Jordan pieces over Z_p of an
    integral lattice, from lat.jordan.  At p = 2 a 1x1 block at k of
    scale s has (D_k / D_{k-1}) / 2^s and a pair (D_{k+1} / D_{k-1}) / 4^s,
    modulo 8.  At odd p any k with p prime to D_{k-1} (k = 0 always) leaves a
    unimodular leading block, and _local_pieces splits the Schur
    complement B / D_{k-1} of its trailing block B: the block at the last
    scale boundary k with p prime to D_{k-1} (or k = n), which the pass
    kept, or the smaller one at the last such index top, rebuilt from the
    pivot rows when that is the cheaper job, 3 (n - top)^3 < (n - k)^3."""
    pivots, steps, bounds, rows, _order = lat.jordan
    minors, n = [1] + pivots, lat.rank
    if p == 2:
        return [(s, size, _odd_part(minors[k + size]) * _odd_part(minors[k]) % 8)
                for k, s, size in steps]
    k, u = next((k, u) for k, u in reversed(bounds + [(n, [])])
                if minors[k] % p)
    top = next(j for j in range(n, k - 1, -1) if minors[j] % p)
    if 3 * (n - top) ** 3 < (n - k) ** 3:
        k, u = top, _trailing_block(rows, minors, top)
    mod = p ** (_valuation(minors[-1], p) + 3)
    inv = pow(minors[k], -1, mod)
    pieces = _local_pieces([[x * inv % mod for x in row] for row in u], p, mod)
    return pieces + [(0, k, minors[k])] if k else pieces


def _local_symbol(pieces, p):
    """Constituents from (scale, rank, unit) pieces; at p = 2 a piece of
    rank 1 is odd and one of rank 2 an even pair."""
    by_scale = {}
    for v, rank, value in pieces:
        by_scale.setdefault(v, []).append((rank, value))
    out = []
    for v in sorted(by_scale):
        group = by_scale[v]
        rank = sum(r for r, _ in group)
        if p == 2:
            eps = 1 if prod(value for _, value in group) % 8 in (1, 7) else -1
            units = [value for r, value in group if r == 1]
            out.append(Constituent(v, rank, eps, "I" if units else "II",
                                   sum(units) % 8))
        else:
            eps = prod(_legendre_int(value, p) for _, value in group)
            out.append(Constituent(v, rank, eps))
    return out


def padic_jordan(lat, p):
    """Jordan constituents of a Lattice at the prime p.

    Returns the ordered list of Constituent records for ascending scales,
    including the scale-0 unimodular part.
    """
    if not intmat.is_prime(p):
        raise ValueError("p must be prime")
    return _local_symbol(_pieces(lat, p), p)


def genus_symbol(lat):
    """The genus symbol of a Lattice."""
    pos, neg = lat.signature()
    local = {p: padic_jordan(lat, p) for p in sorted({2, *_prime_factors(lat.det())})}
    return GenusSymbol(pos, neg, lat.is_even, local)


# ---------------------------------------------------------------------------
# canonical form at p = 2

def _compartments(constituents):
    """Maximal runs of type I constituents at consecutive scales."""
    comps = []
    current = []
    by_scale = {c.scale: c for c in constituents}
    top = max(by_scale) if by_scale else -1
    for e in range(top + 1):
        c = by_scale.get(e)
        if c is not None and c.kind == "I":
            current.append(e)
        elif current:
            comps.append(current)
            current = []
    if current:
        comps.append(current)
    return comps


def _canonical_two_adic(constituents):
    """Deterministic representative of the 2-adic sign/oddity orbit.

    Allowed moves: flip the signs of two adjacent-scale constituents of
    nonzero rank, at least one of type I, adding 4 to the oddity total of
    the compartment holding an odd endpoint; or flip the signs of two
    type I constituents two scales apart with nothing in between, adding
    4 to the totals of both their compartments.  The moves commute and
    square to the identity, and adding 4 mod 8 flips bit 2, so the orbit is
    the coset state0 + span(moves) over F2 in the coordinates (signs by
    scale, then bit 2 of each compartment total), read as one int with the
    first coordinate highest.  Its least element, the lexicographically
    least state, comes from the moves in echelon form on their leading bit:
    each pivot bit set in the state, highest first, is cleared by its move.
    Compartment totals are then pushed onto the first constituent of the
    compartment.
    """
    if not constituents:
        return []
    by_scale = {c.scale: c for c in constituents}
    top = max(by_scale)
    ranks = [by_scale[e].rank if e in by_scale else 0 for e in range(top + 1)]
    kinds = [by_scale[e].kind if e in by_scale else "II" for e in range(top + 1)]
    comps = _compartments(constituents)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for e in comp:
            comp_of[e] = ci
    # coordinate k (scale k, then compartment k - top - 1) is bit width-1-k
    width = top + 1 + len(comps)

    def bit(k):
        return 1 << (width - 1 - k)

    tot0 = [sum(by_scale[e].oddity for e in comp) % 8 for comp in comps]
    state = (sum(bit(e) for e in by_scale if by_scale[e].eps != 1)
             + sum(bit(top + 1 + ci) for ci, t in enumerate(tot0) if t & 4))
    moves = []
    for e in range(top):
        if ranks[e] and ranks[e + 1] and "I" in (kinds[e], kinds[e + 1]):
            target = comp_of[e] if kinds[e] == "I" else comp_of[e + 1]
            moves.append(bit(e) ^ bit(e + 1) ^ bit(top + 1 + target))
    for e in range(top - 1):
        if (ranks[e] and ranks[e + 2] and not ranks[e + 1]
                and kinds[e] == "I" and kinds[e + 2] == "I"):
            moves.append(bit(e) ^ bit(e + 2) ^ bit(top + 1 + comp_of[e])
                         ^ bit(top + 1 + comp_of[e + 2]))
    pivots = []
    for m in moves:
        m = intmat.f2_least(pivots, m)
        if m:
            pivots.append(m)
    state = intmat.f2_least(pivots, state)
    eps = [state & bit(e) for e in range(top + 1)]
    tot = [t & 3 | (4 if state & bit(top + 1 + ci) else 0)
           for ci, t in enumerate(tot0)]
    oddity = {}
    for ci, comp in enumerate(comps):
        oddity.update((e, by_scale[e].rank % 2) for e in comp[1:])
        oddity[comp[0]] = (tot[ci] - sum(oddity[e] for e in comp[1:])) % 8
    return [Constituent(e, c.rank, -1 if eps[e] else 1, c.kind,
                        oddity.get(e, c.oddity))
            for e, c in sorted(by_scale.items())]


def canonicalize(sym):
    """A symbol with the same genus whose 2-adic data is in canonical form."""
    local = dict(sym.local)
    if 2 in local:
        local[2] = _canonical_two_adic(local[2])
    return GenusSymbol(sym.pos, sym.neg, sym.even, local)


def genus_equal(a, b):
    """Whether two symbols describe the same genus: equal canonical strings."""
    return canonical_string(a) == canonical_string(b)


# ---------------------------------------------------------------------------
# rendering and parsing

def _exp_str(eps, rank):
    val = eps * rank
    if val < 0 or val >= 10:
        return "^{%d}" % val
    return "^%d" % val


def render_genus(sym):
    """Plain-text symbol, scale-0 constituents left implicit."""
    head = "II" if sym.even else "I"
    parts = ["%s_(%d,%d)" % (head, sym.pos, sym.neg)]
    for p in sorted(sym.local):
        for c in sym.local[p]:
            if c.scale == 0 or c.rank == 0:
                continue
            tok = "%d%s" % (p ** c.scale, _exp_str(c.eps, c.rank))
            if p == 2 and c.kind == "I":
                tok += "_%d" % c.oddity
            parts.append(tok)
    return "".join(parts)


def canonical_string(sym):
    """Canonical rendered symbol of a GenusSymbol."""
    return render_genus(canonicalize(sym))


_HEAD_RE = re.compile(r"^(II|I)_\((\d+),(\d+)\)")
_TOKEN_RE = re.compile(r"(\d+)\^(?:\{(-?\d+)\}|(-?\d))(?:_(\d))?")


def _scale_of(q):
    """(p, e) with q = p^e and e >= 1, else ValueError."""
    primes = _prime_factors(q) if q > 1 else []
    if len(primes) != 1:
        raise ValueError("scale %d is not a prime power" % q)
    return primes[0], _valuation(q, primes[0])


def parse_genus(text):
    """Parse a rendered symbol, reconstructing the implicit scale-0 parts;
    the ranks are bounded (lattice.MAX_RANK) before any power is formed."""
    s = text.replace(" ", "")
    head = _HEAD_RE.match(s)
    if not head:
        raise ValueError("cannot parse genus symbol %r" % text)
    even = head.group(1) == "II"
    pos, neg = int(head.group(2)), int(head.group(3))
    rank = pos + neg
    if rank > lattice.MAX_RANK:
        raise ValueError("rank %d exceeds the cap of %d" % (rank, lattice.MAX_RANK))
    body = s[head.end():]
    pieces = {}
    pos_in = 0
    for m in _TOKEN_RE.finditer(body):
        if m.start() != pos_in:
            raise ValueError("cannot parse genus symbol %r" % text)
        pos_in = m.end()
        p, e = _scale_of(int(m.group(1)))
        signed = int(m.group(2) if m.group(2) is not None else m.group(3))
        if signed == 0:
            raise ValueError("zero-rank constituent in %r" % text)
        eps, n = (1, signed) if signed > 0 else (-1, -signed)
        if p == 2:
            kind = "I" if m.group(4) is not None else "II"
            oddity = int(m.group(4)) if kind == "I" else 0
            c = Constituent(e, n, eps, kind, oddity)
        else:
            if m.group(4) is not None:
                raise ValueError("oddity subscript at odd prime in %r" % text)
            c = Constituent(e, n, eps)
        pieces.setdefault(p, []).append(c)
    if pos_in != len(body):
        raise ValueError("cannot parse genus symbol %r" % text)
    for p, cs in pieces.items():
        scales = [c.scale for c in cs]
        if scales != sorted(scales) or len(set(scales)) != len(scales):
            raise ValueError("repeated or unsorted scales in %r" % text)
        if sum(c.rank for c in cs) > rank:
            raise ValueError("ranks exceed signature in %r" % text)
    if not even and sum(c.rank for c in pieces.get(2, [])) >= rank:
        raise ValueError("odd symbol without a unimodular part in %r" % text)
    det = 1
    for p, cs in pieces.items():
        for c in cs:
            det *= p ** (c.scale * c.rank)
    if neg % 2:
        det = -det
    local = {}
    for p in sorted(set([2]) | set(pieces)):
        cs = pieces.get(p, [])
        n0 = rank - sum(c.rank for c in cs)
        if n0 > 0:
            unit = det // p ** sum(c.scale * c.rank for c in cs)
            eps = prod(c.eps for c in cs)
            if p == 2:
                eps *= 1 if unit % 8 in (1, 7) else -1
                # an odd symbol's unimodular oddity, from the oddity formula
                odd = 0 if even else (pos - neg - _two_adic_oddity(cs) + sum(
                    _p_excess(qs, q) for q, qs in pieces.items() if q != 2)) % 8
                c0 = Constituent(0, n0, eps, "II" if even else "I", odd)
            else:
                c0 = Constituent(0, n0, eps * _legendre_int(unit, p))
            cs = [c0] + cs
        local[p] = cs
    return GenusSymbol(pos, neg, even, local)


# ---------------------------------------------------------------------------
# the signature relation mod 8

def _two_adic_oddity(constituents):
    t = 0
    for c in constituents:
        if c.kind == "I":
            t += c.oddity
        if c.eps == -1 and c.scale % 2 == 1:
            t += 4
    return t % 8


def _p_excess(constituents, p):
    t = 0
    for c in constituents:
        t += c.rank * (p ** c.scale - 1)
        if c.eps == -1 and c.scale % 2 == 1:
            t += 4
    return t % 8


def signature_consistent(sym):
    """Check signature == oddity - sum of p-excesses (mod 8).

    Every valid symbol satisfies this; a failure means the symbol data
    does not describe any lattice.
    """
    if 2 not in sym.local:
        raise ValueError("symbol has no 2-adic data")
    total = _two_adic_oddity(sym.local[2])
    for p in sym.local:
        if p != 2:
            total -= _p_excess(sym.local[p], p)
    return (sym.pos - sym.neg) % 8 == total % 8
