"""The three workloads: input generation, one operation, and its checks.

Each workload makes a pool of rounds from a seed, before any timing; a
round is a fixed list of inputs written as files.  `run` sends one input to
the program and returns what it answered; `check` judges that answer with
the independent oracles and returns the problems it found (none when the
answer is right).  Import this module only after the program's set-up, so
that the set-up time covers the import of latsym.
"""

import contextlib
import io
import json
import random

from latsym import cli, discform, genus, isometry, lattice

import oracles as O

GRAM = O.standard_gram()
WALL_CLASSES = ("PEX2", "PEX4", "WALL6", "WALL12")


def _write_json(path, data):
    path.write_text(json.dumps(data))
    return path


def _cli_json(argv):
    """Run a latsym command in this process; its last JSON line, parsed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError("latsym %s exited with %d" % (argv[0], code))
    return json.loads(buf.getvalue().splitlines()[-1])


class Input:
    """One generated input: its file, the slot it fills and what is known."""

    def __init__(self, path, slot, expect):
        self.path = path
        self.slot = slot
        self.expect = expect


# ---------------------------------------------------------------------------
# classify: conjugates g b g^-1 of base isometries, through `latsym report`

def e8_roots():
    """The 240 roots of E8 in the node basis, by closing under reflections."""
    e8 = [row[6:14] for row in GRAM[6:14]]
    simple = [tuple(1 if i == j else 0 for i in range(8)) for j in range(8)]

    def reflect(x, a):
        c = sum(x[i] * e8[i][j] * a[j] for i in range(8) for j in range(8))
        return tuple(xi + c * ai for xi, ai in zip(x, a))

    roots = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for x in frontier:
            for a in simple:
                y = reflect(x, a)
                if y not in roots:
                    roots.add(y)
                    fresh.append(y)
        frontier = fresh
    return sorted(roots)


def orthogonal_frame():
    """Eight mutually orthogonal E8 roots, as vectors of Lambda.

    The frame is fixed (the lexicographically first one), so the bases built
    from it, and their costs, do not depend on the seed.
    """
    vecs = []
    for r in e8_roots():
        v = [0] * O.RANK
        v[6:14] = r
        vecs.append(v)

    def extend(chosen, start):
        if len(chosen) == 8:
            return chosen
        for i in range(start, len(vecs)):
            if all(O.inner(GRAM, vecs[i], c) == 0 for c in chosen):
                found = extend(chosen + [vecs[i]], i + 1)
                if found:
                    return found
        return None

    return extend([], 0)


def _permutation_matrix(perm):
    """Matrix sending basis vector j to basis vector perm[j]."""
    m = [[0] * O.RANK for _ in range(O.RANK)]
    for j in range(O.RANK):
        m[perm[j]][j] = 1
    return m


def _product(mats):
    out = O.identity(O.RANK)
    for m in mats:
        out = O.mat_mul(out, m)
    return out


def classify_bases():
    """(name, matrix, expectation) for every base isometry of a round.

    Ten light bases and five copies of the one heavy base (reflections in
    six orthogonal E8 roots), so a third of each round is heavy.  The
    expectation names the marked vector whose conjugate must be the only
    witness, or the class fields known beforehand.
    """
    frame = orthogonal_frame()
    ident = list(range(O.RANK))
    swap_a1 = ident[:14] + [15, 14]
    swap_u2 = [2, 3, 0, 1] + ident[4:]
    cycle_u2 = [2, 3, 4, 5, 0, 1] + ident[6:]
    neg_a1 = O.identity(O.RANK)
    neg_a1[14][14] = neg_a1[15][15] = -1
    exceptional = O.identity(O.RANK)
    exceptional[15][15] = -1
    root = [0] * O.RANK
    root[6] = 1

    def roots(k):
        return _product([O.reflection_matrix(GRAM, v) for v in frame[:k]])

    light = [
        ("identity", O.identity(O.RANK), {"table_row": 1}),
        ("exceptional", exceptional, {"table_row": 2, "exceptional": True}),
        ("root", O.reflection_matrix(GRAM, root), {"pex2_root": root}),
        ("a1_negation", neg_a1, {"pex4": True}),
        ("a1_swap", _permutation_matrix(swap_a1), {}),
        ("u2_swap", _permutation_matrix(swap_u2), {}),
        ("u2_cycle", _permutation_matrix(cycle_u2), {}),
        ("roots2", roots(2), {}),
        ("roots3", roots(3), {}),
        ("roots4", roots(4), {}),
    ]
    heavy = ("roots6", roots(6), {})
    # a heavy input after every two light ones, so both meet the same
    # stretches of machine speed
    out = []
    for i in range(0, len(light), 2):
        out += light[i:i + 2] + [heavy]
    return out


class Classify:
    """Seeded isometries of Lambda, classified by `latsym report`."""

    name = "classify"
    pool_rounds = 4

    def __init__(self, model):
        self.sample = cli.monodromy_sample(model)
        self.bases = classify_bases()
        self.first = {}

    def generate(self, seed, workdir):
        rng = random.Random("classify:%d" % seed)
        pool = []
        for r in range(self.pool_rounds):
            batch = []
            for i, (name, base, expect) in enumerate(self.bases):
                # word lengths 1..4 spread evenly over every round
                word = [rng.choice(self.sample) for _ in range(1 + (i + r) % 4)]
                m = base
                for v in reversed(word):
                    s = O.reflection_matrix(GRAM, v)
                    m = O.mat_mul(O.mat_mul(s, m), s)
                exp = dict(expect, matrix=m, base=name)
                if "pex2_root" in expect:
                    g_root = list(expect["pex2_root"])
                    for v in reversed(word):
                        g_root = O.reflect(GRAM, v, g_root)
                    exp["pex2_root"] = g_root
                path = _write_json(workdir / ("iso-%d-%02d.json" % (r, i)),
                                   {"lattice": "Lambda", "matrix": m})
                batch.append(Input(path, name, exp))
            pool.append(batch)
        return pool

    def run(self, item):
        return _cli_json(["report", str(item.path), "--format", "json"])

    def check(self, item, out):
        exp = item.expect
        m = exp["matrix"]
        problems = []
        order = O.order_by_multiplication(m)
        if out["order"] != order:
            problems.append("order %s, expected %d" % (out["order"], order))
        if out["in_O_plus"] != O.orientation_character(GRAM, m):
            problems.append("in_O_plus disagrees with the orientation character")
        if out["disc_order"] != O.disc_order(m):
            problems.append("disc_order %s, expected %d" % (
                out["disc_order"], O.disc_order(m)))
        for w in out["witnesses"]:
            v = w["vector"]
            if not O.in_coinvariant(m, v, order):
                problems.append("witness %s is not coinvariant" % v)
            if (w["square"], w["divisibility"], w["class"]) != (
                    O.square(GRAM, v), O.divisibility(GRAM, v),
                    O.wall_class(GRAM, v)):
                problems.append("witness %s has wrong square, div or class" % v)
        classes = [w["class"] for w in out["witnesses"]]
        if "table_row" in exp and not (out["symplectic"] and out["regular"]
                                       and out["table_row"] == exp["table_row"]):
            problems.append("expected symplectic, regular, row %d" % exp["table_row"])
        if exp.get("exceptional") and not out["exceptional"]:
            problems.append("exceptional involution not flagged exceptional")
        if "pex2_root" in exp:
            neg = [-c for c in exp["pex2_root"]]
            if (out["symplectic"] or classes != ["PEX2"]
                    or out["witnesses"][0]["vector"] not in (exp["pex2_root"], neg)):
                problems.append("expected the single PEX2 witness +-g(root)")
        if exp.get("pex4") and (out["symplectic"] or "PEX4" not in classes):
            problems.append("expected a PEX4 witness")
        # conjugation keeps the class: compare with the first answer seen
        fields = {k: v for k, v in out.items() if k != "witnesses"}
        fields["witness_classes"] = [classes.count(c) for c in WALL_CLASSES]
        ref = self.first.setdefault(exp["base"], fields)
        if fields != ref:
            problems.append("class fields differ between conjugates of %s"
                            % exp["base"])
        return problems


# ---------------------------------------------------------------------------
# monodromy: discriminant-group invariants, then generation by h.S

W_E7_ORDER = 2903040      # |W(E7)|: the group the reflections induce
SP6_F2_ORDER = 1451520    # |Sp6(F2)|: its action on kernel / radical


class Monodromy:
    """The verify-discgroup invariants and the verify-monodromy generation
    check on a seeded image h.S of the 38-vector `cli.monodromy_sample`."""

    name = "monodromy"
    pool_rounds = 4
    word_length = 3

    def __init__(self, model):
        self.model = model
        self.sample = cli.monodromy_sample(model)

    def generate(self, seed, workdir):
        rng = random.Random("monodromy:%d" % seed)
        pool = []
        for r in range(self.pool_rounds):
            word = [rng.choice(self.sample) for _ in range(self.word_length)]
            vectors = []
            for v in self.sample:
                for u in reversed(word):
                    v = O.reflect(GRAM, u, v)
                vectors.append(v)
            path = _write_json(workdir / ("sample-%d.json" % r),
                               {"vectors": vectors})
            pool.append([Input(path, "h.S", {"vectors": vectors})])
        return pool

    def run(self, item):
        lam = self.model.lattice
        mod = discform.discriminant_form(lam)
        kern, rad, r = discform.kernel_and_radical(mod)
        grp = discform.full_reflection_group(mod)
        gamma = [x for x in mod.elements() if mod.q(x) == 1]
        out = {
            "disc_group_order": mod.order(),
            "kernel_dim": kern.dim,
            "radical_dim": rad.dim,
            "group_order": grp.order(),
            "orbit_sizes": sorted(len(o) for o in grp.orbits(gamma)),
            "gamma": len(gamma),
            "quotient_order": grp.quotient_order(kern, rad),
            "central": grp.is_central(discform.transvection(mod, r)),
        }
        with open(item.path) as fh:
            vectors = json.load(fh)["vectors"]
        refls = [isometry.reflection(lam, v) for v in vectors]
        out["in_O_plus"] = [isometry.in_O_plus(f) for f in refls]
        images = [discform.induced_disc_isometry(lam, f) for f in refls]
        gens = [g for g in images if not g.is_identity]
        out["generated_order"] = discform.group_from_generators(gens).order()
        out["matrices"] = [f.matrix for f in refls]
        return out

    def check(self, item, out):
        problems = []
        want = {"disc_group_order": 256, "kernel_dim": 7, "radical_dim": 1,
                "group_order": W_E7_ORDER, "generated_order": W_E7_ORDER,
                "quotient_order": SP6_F2_ORDER, "central": True}
        for key, value in want.items():
            if out[key] != value:
                problems.append("%s is %s, expected %s" % (key, out[key], value))
        if out["orbit_sizes"] != [1, out["gamma"] - 1]:
            problems.append("orbits on the q = 1 set: %s" % out["orbit_sizes"])
        vectors = item.expect["vectors"]
        for v, m, plus in zip(vectors, out["matrices"], out["in_O_plus"]):
            sq = O.square(GRAM, v)
            if not (sq == -2 or (sq == -4 and O.divisibility(GRAM, v) == 2)):
                problems.append("sample vector %s is not in the reflection set" % v)
            elif m != O.reflection_matrix(GRAM, v):
                problems.append("wrong reflection matrix for %s" % v)
            elif not (plus and O.orientation_character(GRAM, m)):
                problems.append("reflection in %s fails the orientation test" % v)
        if len(out["matrices"]) != len(vectors):
            problems.append("%d reflections for %d vectors" % (
                len(out["matrices"]), len(vectors)))
        return problems


# ---------------------------------------------------------------------------
# genus: dense Grams of rank 28-34, through `latsym info`

# A_n only where det = n + 1 has no prime above 3, so a lattice's primes
# are its row's and 2, 3, and its cost does not hang on the seed
ROOT_SUMMANDS = ("E8", "A1", "A2", "A3", "A5", "A7", "D4", "D5", "D6", "D7",
                 "D8")
MIN_RANK, MAX_RANK = 28, 34
ENTRY_CAP = 100


def _summand_rank(name):
    return 8 if name == "E8" else int(name[1:])


def _block_sum(grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    off = 0
    for g in grams:
        for i, row in enumerate(g):
            out[off + i][off:off + len(row)] = row
        off += len(g)
    return out


def rebase(gram, rng, steps, cap=ENTRY_CAP):
    """U^T G U for a seeded unimodular U, keeping entries within the cap.

    U is a product of elementary moves e_i += c e_j (c = +-1), each applied
    to both rows and columns; a move that would push an entry past the cap
    is skipped.
    """
    g = [list(row) for row in gram]
    n = len(g)
    done = 0
    for _ in range(50 * steps):
        if done == steps:
            break
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        row = [a + c * b for a, b in zip(g[i], g[j])]
        row[i] = g[i][i] + 2 * c * g[i][j] + g[j][j]
        if max(abs(x) for x in row) > cap:
            continue
        for t in range(n):
            g[t][i] += c * g[t][j]
        g[i] = row
        done += 1
    return g


class Genus:
    """Invariant lattices of the class table plus seeded root summands, in
    seeded dense bases, summarised by `latsym info`."""

    name = "genus"
    pool_rounds = 4

    def __init__(self, rows):
        self.exprs = [r["invariant_expr"] for r in rows]
        self.refs = {}

    def _slot(self, rng, expr, rank):
        """(summand expressions, plain Gram, det, pos, neg) of one sum."""
        parts = [expr]
        grams = [lattice.build_named(expr).gram]
        have = len(grams[0])
        while have < rank:
            name = rng.choice(ROOT_SUMMANDS)
            if have + _summand_rank(name) > rank:
                continue
            part = name + rng.choice(("", "(2)"))
            parts.append(part)
            grams.append(lattice.build_named(part).gram)
            have += len(grams[-1])
        det, pos, neg = 1, 0, 0
        for g in grams:
            d, p, n = O.det_and_signature(g)
            det, pos, neg = det * d, pos + p, neg + n
        return "+".join(parts), _block_sum(grams), det, pos, neg

    def generate(self, seed, workdir):
        rng = random.Random("genus:%d" % seed)
        # every round has its own sums, one per odd-numbered row, with ranks
        # spread evenly over 28..34, so a run meets many lattices per seed
        span = MAX_RANK - MIN_RANK + 1
        self.slots = {}
        pool = []
        for r in range(self.pool_rounds):
            batch = []
            for i, expr in enumerate(self.exprs[::2]):
                sums = self._slot(rng, expr, MIN_RANK + (i + r) % span)
                self.slots[r, i] = sums
                name, plain, det, pos, neg = sums
                g = rebase(plain, rng, 3 * len(plain))
                path = _write_json(workdir / ("lattice-%d-%02d.json" % (r, i)),
                                   {"name": name, "gram": g})
                batch.append(Input(path, (r, i), {"rank": len(g), "det": det,
                                                  "signature": [pos, neg]}))
            pool.append(batch)
        return pool

    def run(self, item):
        return _cli_json(["info", str(item.path), "--format", "json"])

    def reference(self, slot):
        """Canonical genus string of the slot's plain direct sum, once per
        slot (round, row)."""
        if slot not in self.refs:
            plain = self.slots[slot][1]
            self.refs[slot] = genus.canonical_string(
                genus.genus_symbol(lattice.Lattice(plain)))
        return self.refs[slot]

    def check(self, item, out):
        exp = item.expect
        problems = []
        for key in ("rank", "det", "signature"):
            if out[key] != exp[key]:
                problems.append("%s is %s, expected %s" % (key, out[key], exp[key]))
        text = out["genus"]
        if text != self.reference(item.slot):
            problems.append("genus %s differs from the plain sum's %s" % (
                text, self.reference(item.slot)))
        if O.symbol_det(text) != exp["det"]:
            problems.append("symbol %s states det %d" % (text, O.symbol_det(text)))
        if not O.oddity_formula_holds(text):
            problems.append("symbol %s violates the oddity formula" % text)
        return problems


def make(name, model, rows):
    if name == "classify":
        return Classify(model)
    if name == "monodromy":
        return Monodromy(model)
    if name == "genus":
        return Genus(rows)
    raise ValueError("unknown workload %r" % name)
