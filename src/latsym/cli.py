"""Command-line interface: inspection commands and verification pipelines.

Exit codes: 0 on success or full verification (also on an explicit skip
when the external database is absent), 1 on any verification mismatch
(mismatches are listed), 2 on input errors: main turns every ValueError
into "error: <message>" on stderr.  Output is line-oriented JSON with
--format json, otherwise human-readable text.
"""

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import discform, fixtures, genus, lattice  # isometry, walls: on first use

DB_ENV = "LATSYM_DB"


class _Emitter:
    def __init__(self, fmt):
        self.fmt = fmt

    def record(self, rec, text):
        if self.fmt == "json":
            print(json.dumps(rec, sort_keys=True))
        else:
            print(text)


def _check_records(emit, checks):
    """Emit one line per (name, ok, detail) check; return the exit code."""
    failures = 0
    for name, ok, detail in checks:
        emit.record({"check": name, "ok": bool(ok), "detail": detail},
                    "%s %s: %s" % ("ok  " if ok else "FAIL", name, detail))
        if not ok:
            failures += 1
    total = len(checks)
    emit.record({"summary": True, "passed": total - failures, "total": total},
                "%d/%d checks passed" % (total - failures, total))
    return 0 if failures == 0 else 1


# one decoder for every file; int refuses NaN and Infinity, which JSON
# does not have
_JSON = json.JSONDecoder(parse_constant=int)


def _load_json_file(path):
    try:
        data = _JSON.decode(Path(path).read_text())
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc))
    except (ValueError, RecursionError) as exc:  # huge ints, deep nesting too
        raise ValueError("%s is not valid JSON: %s" % (path, exc))
    if type(data) is not dict:
        raise ValueError("%s does not hold a JSON object" % path)
    return data


def _load_lattice(target):
    """A lattice from a JSON file path, a lattice expression, or the default.
    A target that is a file, ends in .json or holds a / is a file path."""
    if target is None:
        return lattice.standard_model().lattice
    if target.endswith(".json") or "/" in target or Path(target).is_file():
        data = _load_json_file(target)     # its errors carry their own context
        try:
            return lattice.lattice_from_json(data)
        except (ValueError, TypeError) as exc:
            raise ValueError("bad lattice file %s: %s" % (target, exc))
    try:
        return lattice.build_named(target)
    except ValueError as exc:
        raise ValueError("cannot interpret %r as a lattice: %s" % (target, exc))


def _load_isometry(path):
    from . import isometry
    data = _load_json_file(path)
    try:
        return isometry.isometry_from_json(data)
    except (ValueError, TypeError) as exc:
        raise ValueError("bad isometry file %s: %s" % (path, exc))


# ---------------------------------------------------------------------------
# inspection commands

def cmd_info(args, emit):
    lat = _load_lattice(args.target)
    sig = lat.signature()
    rec = {
        "name": lat.name,
        "rank": lat.rank,
        "signature": list(sig),
        "even": lat.is_even,
        "det": lat.det(),
        "genus": genus.canonical_string(genus.genus_symbol(lat)),
    }
    emit.record(rec, "\n".join("%s: %s" % kv for kv in rec.items()))
    return 0


def cmd_genus(args, emit):
    lat = _load_lattice(args.target)
    text = genus.canonical_string(genus.genus_symbol(lat))
    emit.record({"lattice": lat.name, "genus": text}, text)
    return 0


DISC_LIST_CAP = 1 << 16     # elements; 2^16 take about 3 s to list


def cmd_disc(args, emit):
    lat = _load_lattice(args.target)
    mod = discform.discriminant_form(lat)
    if emit.fmt == "json" and mod.order() > DISC_LIST_CAP:
        raise ValueError("the discriminant group has %d elements; --format "
                         "json lists at most %d" % (mod.order(), DISC_LIST_CAP))
    rec = {
        "lattice": lat.name,
        "orders": list(mod.orders),
        "group_order": mod.order(),
        "two_elementary": mod.is_two_elementary,
    }
    lines = ["orders: %s" % (list(mod.orders),),
             "group order: %d" % mod.order(),
             "two-elementary: %s" % mod.is_two_elementary]
    if mod.is_two_elementary and mod.orders:
        kern, rad, r = discform.kernel_and_radical(mod)
        rec.update({"kernel_dim": kern.dim, "radical_dim": rad.dim,
                    "radical_generator": list(r) if r else None})
        lines.append("kernel dim: %d, radical dim: %d" % (kern.dim, rad.dim))
        if r:
            lines.append("radical generator: %s with q = %s" % (list(r), mod.q(r)))
    emit.record(rec, "\n".join(lines))
    if emit.fmt == "json":
        for x in mod.elements():
            emit.record({"element": list(x), "q": str(mod.q(x))}, "")
    return 0


def cmd_walls(args, emit):
    from . import walls
    f = _load_isometry(args.isometry)
    model = lattice.standard_model()
    witnesses = walls.coinvariant_wall_scan(model, f, pex_only=args.pex_only)
    for w in witnesses:
        emit.record(w.as_dict(), "%s %s square %d div %d" % (
            w.wclass, list(w.vector), w.square, w.divisibility))
    emit.record({"summary": True, "witnesses": len(witnesses)},
                "%d wall witnesses" % len(witnesses))
    return 0


def _load_fixture(path):
    """Rows of the class table: the bundled one, or a checked --fixture file."""
    try:
        return fixtures.load_table(path)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError("bad class table %s: %s" % (path, exc))


def cmd_report(args, emit):
    from . import isometry
    f = _load_isometry(args.isometry)
    rows = _load_fixture(args.fixture) if args.fixture else None
    model = lattice.standard_model()
    try:
        rep = isometry.report(model, f, fixture=rows)
    except ValueError as exc:
        if "outside table" in str(exc):
            emit.record({"status": "fail", "detail": str(exc)}, "FAIL %s" % exc)
            return 1
        raise
    d = rep.as_dict()
    lines = ["%s: %s" % kv for kv in d.items()
             if kv[0] not in ("coinv_generator_divisibility", "witnesses")]
    for w in rep.witnesses:
        lines.append("witness %s %s" % (w.wclass, list(w.vector)))
    emit.record(d, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# verification pipelines

def cmd_verify_orbits(args, emit):
    checks = []
    lat = lattice.standard_model().lattice
    for row in fixtures.load_orbit_table():
        sq = lat.square(row["vector"])
        dv = lat.divisibility(row["vector"])
        ok = sq == row["square"] and dv == row["div"]
        checks.append(("orbit %d (%s)" % (row["label"], row["vector_expr"]), ok,
                       "square %d div %d, expected %d/%d" % (
                           sq, dv, row["square"], row["div"])))
    return _check_records(emit, checks)


def cmd_verify_discgroup(args, emit):
    lam = lattice.standard_model().lattice
    mod = discform.discriminant_form(lam)
    kern, rad, r = discform.kernel_and_radical(mod)
    grp = discform.full_reflection_group(mod)
    order = grp.order()
    gamma = [x for x in mod.elements() if mod.q(x) == 1]
    orbit_sizes = sorted(len(o) for o in grp.orbits(gamma))
    quot = grp.quotient_order(kern, rad)
    t_r = discform.transvection(mod, r)
    checks = [
        ("discriminant group order", mod.order() == 256, "order %d" % mod.order()),
        ("kernel dimension", kern.dim == 7, "dim %d" % kern.dim),
        ("radical dimension", rad.dim == 1, "dim %d" % rad.dim),
        ("radical class square", r is not None and mod.q(r) == 1,
         "q(r) = %s" % (mod.q(r) if r else None)),
        ("reflection group order", order == 2903040, "order %d" % order),
        ("orbits on the q=1 set", orbit_sizes == [1, len(gamma) - 1],
         "sizes %s of %d elements" % (orbit_sizes, len(gamma))),
        ("symplectic quotient order", quot == 1451520, "order %d" % quot),
        ("central radical transvection", grp.is_central(t_r), "T_r centrality"),
    ]
    return _check_records(emit, checks)


def monodromy_sample(model):
    """Vectors of square -2, or square -4 and divisibility 2, whose
    reflections exhibit the generation of the monodromy group.

    The family mixes the scaled hyperbolic blocks enough that the induced
    discriminant transvections generate the whole finite orthogonal group.
    Each vector is a fixtures.model_vector expression, as in orbits.json.
    """
    return [fixtures.model_vector(model, expr) for expr in """
        a1_sum  a1_diff  2*u2(1)+2*e8_root_pair-a1_sum
        e0-f0  e0+a1_sum  f0+a1_sum
        e1-f1  e1+a1_sum  f1+a1_sum
        e2-f2  e2+a1_sum  f2+a1_sum
        e0-f0+e1  e0-f0+f1  e0-f0+e2  e0-f0+f2
        e1-f1+e0  e1-f1+f0  e1-f1+e2  e1-f1+f2
        e2-f2+e0  e2-f2+f0  e2-f2+e1  e2-f2+f1
        e0-f0+e1-f1+e2+f2  a1_sum+e0+f1  a1_sum+e1+f2
        r0  r1  r2  r3  r4  r5  r6  r7
        a1_first  a1_second  u2(1)+e8_root_pair-a1_first
        """.split()]


def cmd_verify_monodromy(args, emit):
    from . import isometry
    model = lattice.standard_model()
    lam = model.lattice
    mod = discform.discriminant_form(lam)
    checks = []

    for row in fixtures.load_orbit_table():
        refl = isometry.reflection(lam, row["vector"])
        checks.append(("orbit reflection %d in O+" % row["label"],
                       isometry.in_O_plus(refl), row["vector_expr"]))

    sample = monodromy_sample(model)
    in_delta = all(
        lam.square(v) == -2
        or (lam.square(v) == -4 and lam.divisibility(v) == 2)
        for v in sample)
    checks.append(("sample vectors lie in the reflection set", in_delta,
                   "%d vectors" % len(sample)))
    refls = [isometry.reflection(lam, v) for v in sample]
    checks.append(("sample reflections in O+",
                   all(isometry.in_O_plus(r) for r in refls),
                   "%d reflections" % len(refls)))
    images = [discform.induced_disc_isometry(lam, r) for r in refls]
    gens = [g for g in images if not g.is_identity]
    order = discform.group_from_generators(gens).order()
    checks.append(("discriminant images generate the full group",
                   order == 2903040, "order %d" % order))

    _kern, _rad, r = discform.kernel_and_radical(mod)
    t_r = discform.transvection(mod, r)
    delta = model.named["a1_sum"]
    img = discform.induced_disc_isometry(lam, isometry.reflection(lam, delta))
    checks.append(("reflection in delta' induces T_r",
                   img.matrix == t_r.matrix, "transvection at the radical class"))

    for name, vec in (("w", model.u2_vector(-1)), ("delta'", delta)):
        cls = mod.dual_class(vec, 2)
        ok = (mod.q(cls) == 1 and lam.square(vec) == -4
              and lam.divisibility(vec) == 2)
        checks.append(("lift of %s/2" % name, ok,
                       "q = %s, square %d, div %d" % (
                           mod.q(cls), lam.square(vec), lam.divisibility(vec))))
    return _check_records(emit, checks)


def _table_file_result(model, rows, path):
    from . import isometry
    try:
        f = isometry.isometry_from_json(_load_json_file(path))
    except (ValueError, TypeError) as exc:
        return {"status": "error", "detail": str(exc)}
    try:
        rep = isometry.report(model, f, fixture=rows)
    except ValueError as exc:
        return {"status": "fail", "detail": str(exc)}
    if not rep.symplectic:
        return {"status": "fail", "detail": "isometry is not symplectic"}
    return {"status": "ok", "row": rep.table_row,
            "order": rep.order, "disc_order": rep.disc_order,
            "inv_genus": rep.inv_genus, "coinv_genus": rep.coinv_genus,
            "regular": rep.regular}


def cmd_verify_table(args, emit):
    if args.directory is not None:
        root = Path(args.directory)
        if not root.is_dir():
            raise ValueError("no such directory: %s" % args.directory)
    else:
        env = os.environ.get(DB_ENV)
        if not env or not Path(env).is_dir():
            emit.record({"status": "skip", "detail": "external data required"},
                        "skipped: external data required (set %s)" % DB_ENV)
            return 0
        root = Path(env)
    paths = sorted(p for p in root.rglob("*.json") if p.is_file())
    if not paths:
        raise ValueError("no isometry files under %s" % root)
    rows = _load_fixture(args.fixture)
    model = lattice.standard_model()
    results = [{"file": p.relative_to(root).as_posix(),
                **_table_file_result(model, rows, p)} for p in paths]
    results.sort(key=lambda r: (r.get("row", 10**9), r["file"]))

    failures = 0
    by_genus = {}
    for rec in results:
        if rec["status"] == "ok":
            emit.record(rec, "ok   row %2d %s (order %d, regular %s)" % (
                rec["row"], rec["file"], rec["order"], rec["regular"]))
            key = rec["inv_genus"]
            fingerprint = (rec["row"], rec["order"], rec["disc_order"],
                           rec["coinv_genus"], rec["regular"])
            by_genus.setdefault(key, {})[fingerprint] = rec["file"]
        else:
            failures += 1
            emit.record(rec, "FAIL %s: %s" % (rec["file"], rec["detail"]))
    for key, prints in sorted(by_genus.items(), key=lambda kv: str(kv[0])):
        if len(prints) > 1:
            failures += 1
            emit.record(
                {"status": "fail", "inv_genus": key,
                 "detail": "fingerprints differ", "files": sorted(prints.values())},
                "FAIL invariant genus %s maps to multiple fingerprints: %s"
                % (key, sorted(prints.values())))
    # complete: every row of the loaded table matched, so its regular rows too
    table = sorted({rw["no"] for rw in rows})
    matched = sorted({r["row"] for r in results if r["status"] == "ok"})
    regular = sum(1 for rw in rows if rw["no"] in matched and rw["regular"])
    complete = matched == table
    emit.record({"summary": True, "files": len(results),
                 "matched_rows": len(matched), "regular_rows": regular,
                 "failures": failures, "complete": complete},
                "%d files, %d/%d rows matched (%d regular), %d failures" % (
                    len(results), len(matched), len(table), regular, failures))
    return 0 if failures == 0 and complete else 1


# ---------------------------------------------------------------------------
# argument parsing

@functools.lru_cache(maxsize=None)
def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    ap = argparse.ArgumentParser(
        prog="latsym",
        description="Lattice isometry tools for the rank-16 Nikulin-type lattice.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, run, text):
        p = sub.add_parser(name, parents=[common], help=text)
        p.set_defaults(run=run)
        return p

    for name, run, text in (
            ("info", cmd_info, "summary of a lattice (default: the standard one)"),
            ("genus", cmd_genus, "canonical genus symbol"),
            ("disc", cmd_disc, "discriminant group data")):
        command(name, run, text).add_argument(
            "target", nargs="?", help="lattice JSON file or expression")
    p = command("walls", cmd_walls, "wall witnesses in a coinvariant lattice")
    p.add_argument("isometry", help="isometry JSON file")
    p.add_argument("--pex-only", action="store_true",
                   help="scan only the pointlike-exceptional classes")
    p = command("report", cmd_report, "classification report for an isometry")
    p.add_argument("isometry", help="isometry JSON file")
    p.add_argument("--fixture", help="alternative class-table JSON file")
    p = command("verify-table", cmd_verify_table,
                "check a database of isometries against the table")
    p.add_argument("directory", nargs="?",
                   help="database directory (default: $%s)" % DB_ENV)
    p.add_argument("--fixture", help="alternative class-table JSON file")
    command("verify-discgroup", cmd_verify_discgroup,
            "discriminant group invariants")
    command("verify-orbits", cmd_verify_orbits,
            "orbit-table squares and divisibilities")
    command("verify-monodromy", cmd_verify_monodromy,
            "reflection generation of the monodromy group")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, _Emitter(args.format))
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
