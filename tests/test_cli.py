import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from latsym import cli, discform, fixtures, intmat, isometry, lattice
from latsym.lattice import standard_model


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def write_isometry(path, f):
    path.write_text(json.dumps(isometry.isometry_to_json(f)))
    return str(path)


@pytest.fixture()
def model():
    return standard_model()


def test_info_default(capsys):
    rc, out, _err = run(capsys, ["info"])
    assert rc == 0
    assert "rank: 16" in out
    assert "signature: [3, 13]" in out
    assert "II_(3,13)2^8_6" in out


def test_info_json(capsys):
    rc, out, _err = run(capsys, ["info", "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["rank"] == 16
    assert data["det"] == -256
    assert data["signature"] == [3, 13]


def test_info_expression(capsys):
    rc, out, _err = run(capsys, ["info", "E8"])
    assert rc == 0
    assert "rank: 8" in out


def test_info_bad_expression(capsys):
    rc, _out, err = run(capsys, ["info", "U+Q9"])
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("expr", ["A2v(0)", "A4(0)", "D8v(0)+U", "U(0)"])
def test_info_zero_scale(capsys, expr):
    rc, out, err = run(capsys, ["info", expr])
    assert (rc, out) == (2, "")
    assert err == "error: cannot interpret %r as a lattice: rescale by zero\n" % expr


@pytest.mark.parametrize("expr", ["K9", "H15", "K1", "U+H25"])
def test_info_non_prime_plane(capsys, expr):
    rc, _out, err = run(capsys, ["info", expr])
    assert rc == 2
    assert "odd prime" in err


def latsym_process(argv, timeout):
    """Run `python -m latsym` on this checkout in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "latsym", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_python_m_latsym():
    done = latsym_process(["info", "A2"], timeout=60)
    assert done.returncode == 0, done.stderr
    assert "genus: II_(0,2)3^1" in done.stdout
    done = latsym_process(["info", "K9"], timeout=60)
    assert done.returncode == 2


def test_info_large_prime_plane():
    # 2^61 - 1 is prime: trial division up to its square root did not end
    # within any usable limit, Miller-Rabin decides it at once
    done = latsym_process(["info", "K2305843009213693951"], timeout=10)
    assert done.returncode == 0, done.stderr
    assert "det: 2305843009213693951" in done.stdout


def test_info_plane_beyond_prime_bound():
    # 2^89 - 1 is prime too, but lies above the bound where the test is proven
    done = latsym_process(["info", "K%d" % (2**89 - 1)], timeout=10)
    assert done.returncode == 2
    assert "proven bound" in done.stderr


def test_info_two_large_prime_factors():
    # det (10^12 + 39)(10^12 + 61): trial division up to the square root
    # did not end within the limit; Pollard-Brent rho splits it
    done = latsym_process(["info", "K1000000000039+K1000000000061"], timeout=10)
    assert done.returncode == 0, done.stderr
    assert "det: 1000000000100000000002379" in done.stdout


def test_info_two_61_bit_prime_factors():
    # det (2^61 - 1)(2^61 - 31): rho would need about 2^30 steps, so it
    # gives up at its step bound and names the cofactor it could not split
    done = latsym_process(["info", "K2305843009213693951+K2305843009213693921"],
                          timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert "cannot factor %d" % (2305843009213693951 * 2305843009213693921) \
        in done.stderr


def test_info_many_80_bit_prime_factors(tmp_path):
    # det the product of sixteen 80-bit primes, 1280 bits: one rho step
    # there costs about 100 of a 128-bit one, so rho gets 1/100 of the steps
    primes, x = [], 2**79 + 1
    while len(primes) < 16:
        if intmat.is_prime(x):
            primes.append(x)
        x += 2
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps({"gram": [[p * (i == j) for j in range(16)]
                                         for i, p in enumerate(primes)]}))
    done = latsym_process(["info", str(path)], timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert "Pollard rho steps" in done.stderr


def test_genus_of_a_long_two_adic_chain(tmp_path):
    # diag(1, 2*3, 4, 8*3, ...) to rank 24: a type I constituent at each
    # 2-adic scale 2^0 .. 2^23, so the sign/oddity orbit of its 2-adic
    # symbol has about 2^24 states, more than a search of it can visit
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"gram": [[2 ** i * (3 if i % 2 else 1) * (i == j)
                                          for j in range(24)] for i in range(24)]}))
    done = latsym_process(["genus", str(path)], timeout=10)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("I_(24,0)")

def test_info_many_120_bit_entries(tmp_path):
    # det 3,840 bits with no prime factor below 2^10: after each split the
    # cofactor is tried only for an r^k with k prime and k <= bits / 10
    rng = random.Random(120)
    entries = [rng.getrandbits(120) | 1 << 119 | 1 for _ in range(32)]
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps({"gram": [[x * (i == j) for j in range(32)]
                                         for i, x in enumerate(entries)]}))
    done = latsym_process(["info", str(path)], timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert "cannot factor" in done.stderr


def test_info_128_diagonal_120_bit_entries(tmp_path):
    # det 15,360 bits: each cofactor's primality and root tests draw on
    # the rho steps' size-scaled budget, which bounds the whole
    # factorisation rather than each split
    rng = random.Random(120)
    entries = [rng.getrandbits(120) | 1 << 119 | 1 for _ in range(128)]
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps({"gram": [[x * (i == j) for j in range(128)]
                                         for i, x in enumerate(entries)]}))
    done = latsym_process(["info", str(path)], timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert "cannot factor" in done.stderr


@pytest.mark.parametrize("expr", ["A100000", "U^100000", "E8^64+A1",
                                  "A2(%d)" % 2**130, "K%d" % (2**521 - 1)])
def test_oversized_expression_exits_quickly(expr):
    done = latsym_process(["info", expr], timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert "exceeds the cap" in done.stderr


@pytest.mark.parametrize("gram", [[[2]] * 513, [[2, 1], [1, 2**130]],
                                  [["1/%d" % 2**130]]])
def test_oversized_lattice_file_exits_quickly(tmp_path, gram):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"gram": gram}))
    done = latsym_process(["info", str(path)], timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert "exceeds the cap" in done.stderr


def _identity_with_float():
    m = intmat.identity(16)
    m[0][0] = 1.0
    return json.dumps({"lattice": "Lambda", "matrix": m})


@pytest.mark.parametrize("command, text", [
    ("info", '{"gram": [[2.0, 1], [1, 2]]}'),
    ("info", '{"gram": [[true]]}'),
    ("info", '{"gram": [["1e3"]]}'),
    ("info", '{"gram": [["1/0"]]}'),
    ("info", '{"gram": [["1/2"]]}'),
    ("info", '{"gram": [["1e500000"]]}'),
    ("info", '{"gram": [["1e5000000"]]}'),
    ("info", '{"gram": [["1e50000000"]]}'),
    ("report", _identity_with_float()),
    # beyond the interpreter's limit on digits in an int
    ("report", '{"matrix": [[%s]]}' % ("9" * 5000))],
    ids=["float", "bool", "exponent", "zero-denominator", "non-integral", "1e500000",
         "1e5000000", "1e50000000", "float-in-isometry", "5000-digit-int"])
def test_non_exact_json_numbers_exit_quickly(tmp_path, command, text):
    # floats, booleans and exponent strings are refused before conversion,
    # and a "p/q" that is not an integer once it is reduced
    path = tmp_path / "entry.json"
    path.write_text(text)
    done = latsym_process([command, str(path)], timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ")


@pytest.mark.parametrize("entry", [2**128, str(2**128), "1/%d" % 2**128],
                         ids=["int", "string", "denominator"])
def test_isometry_entry_beyond_bit_cap(capsys, tmp_path, entry):
    # 129 bits, within the digit count of 2^128
    m = intmat.identity(16)
    m[0][0] = entry
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"lattice": "Lambda", "matrix": m}))
    rc, out, err = run(capsys, ["report", str(path)])
    assert (rc, out) == (2, "")
    assert "exceeds the cap of 128 bits" in err


def test_info_of_large_dual_exits_quickly():
    # the inverse behind the dual and the symmetric elimination of its
    # Gram are fraction-free and leave the rows with multiplier 0 alone;
    # the dual is not integral
    for target in ("A2v", "A160v", "A400v", "A512v", "A20v^24", "A30v^17"):
        done = latsym_process(["info", target], timeout=10)
        assert (done.returncode, done.stdout) == (2, "")
        assert "integral Gram matrix" in done.stderr


def test_disc_of_a_large_two_elementary_group():
    # 2^300 elements, inside every input cap: the kernel (dim 299) and the
    # pairing on it come from F2 bitmasks, one popcount per pair
    done = latsym_process(["disc", "A1^300"], timeout=10)
    assert done.returncode == 0, done.stderr
    assert "kernel dim: 299, radical dim: 1" in done.stdout


@pytest.mark.parametrize("power", [2, 3])
def test_info_power_of_large_prime(power):
    # det (2^61 - 1)^2 or ^3: rho needs about 2^30 steps there, so the
    # cofactor's exact square or cube root is taken first
    q = 2**61 - 1
    done = latsym_process(["info", "+".join(["K%d" % q] * power)], timeout=10)
    assert done.returncode == 0, done.stderr
    assert "det: %d" % q**power in done.stdout
    assert "%d^%d" % (q, power) in done.stdout


def test_info_det_with_prime_factor_beyond_bound(capsys, tmp_path):
    q = 2**89 - 1
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"gram": [[2, 1], [1, (q + 1) // 2]]}))
    rc, out, err = run(capsys, ["info", str(path)])
    assert (rc, out) == (2, "")
    assert "proven bound" in err


@pytest.mark.parametrize("command", ["info", "genus"])
def test_genus_of_non_integral_lattice(capsys, command):
    rc, out, err = run(capsys, [command, "A2v"])
    assert (rc, out) == (2, "")
    assert err == ("error: cannot interpret 'A2v' as a lattice: "
                   "A2v has no integral Gram matrix\n")


@pytest.mark.parametrize("entry, det", [("4/2", 2), ("-6/3", -2), ("1/2", None)])
def test_fraction_entries_are_read_as_ints(capsys, tmp_path, entry, det):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [[entry]]}))
    rc, out, err = run(capsys, ["info", str(path), "--format", "json"])
    if det is None:
        assert (rc, out) == (2, "")
        assert err == "error: bad lattice file %s: entry %r is not an " \
            "integer\n" % (path, entry)
    else:
        assert rc == 0
        assert json.loads(out)["det"] == det


def test_info_of_unimodular_duals_keeps_their_names(capsys):
    for expr in ("E8v", "E8v(1)"):
        rc, out, _err = run(capsys, ["info", expr])
        assert rc == 0
        assert out.startswith("name: %s\n" % expr)


def test_genus_command(capsys):
    rc, out, _err = run(capsys, ["genus", "D4(2)"])
    assert rc == 0
    assert out.strip() == "II_(0,4)2^{-2}4^{-2}"

    rc, out, _err = run(capsys, ["genus", "U(2)^3+E8+A1"])
    a = out.strip()
    rc, out, _err = run(capsys, ["genus", "U^3+D8v(2)+A1"])
    assert a == out.strip() == "II_(3,12)2^7_7"


def test_disc_command(capsys):
    rc, out, _err = run(capsys, ["disc"])
    assert rc == 0
    assert "group order: 256" in out
    assert "kernel dim: 7, radical dim: 1" in out
    assert "with q = 1" in out

    rc, out, _err = run(capsys, ["disc", "--format", "json"])
    assert rc == 0
    lines = [json.loads(line) for line in out.splitlines() if line]
    assert lines[0]["group_order"] == 256
    assert lines[0]["kernel_dim"] == 7
    assert len(lines) == 1 + 256
    assert sum(1 for rec in lines[1:] if rec["q"] == "1") == 64


def test_disc_small_lattice(capsys):
    rc, out, _err = run(capsys, ["disc", "A1"])
    assert rc == 0
    assert "orders: [2]" in out


def test_disc_json_refuses_a_group_too_large_to_list():
    # 2^24 elements, one line each, are too many to list
    done = latsym_process(["disc", "A1^24", "--format", "json"], timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert "16777216 elements" in done.stderr


@st.composite
def lattice_expressions(draw):
    """Direct-sum expressions: known and unknown names, planes Kp and Hp
    with p prime or not, dual suffixes, scales (zero and negative ones
    too) and powers, the names of rank 1 and 2 to high powers, joined by
    "+" or by a malformed join."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from("UUVEEAAADDKH"))
        if name == "E":
            name = draw(st.sampled_from(("E8", "E8", "E7")))
        elif name in "AD":
            name += str(draw(st.integers(0, 16)))
        elif name in "KH":
            name += str(draw(st.sampled_from((3, 5, 7, 11, 37, 59, 1, 9, 15))))
        term = name + draw(st.sampled_from(("", "", "v")))
        if draw(st.booleans()):
            term += "(%d)" % draw(st.integers(-3, 40))
        if draw(st.booleans()):
            small = name[0] in "UVKH" or name in ("A1", "A2", "D2")
            term += "^%d" % draw(st.integers(0, 24 if small else 4))
        terms.append(term)
    join = draw(st.sampled_from(("+",) * 5 + ("++", " + ", "+(", "^", "")))
    ends = ("",) * 7 + ("+",)
    return (draw(st.sampled_from(ends)) + join.join(terms)
            + draw(st.sampled_from(ends + (")",))))


@settings(max_examples=80, deadline=None)
@given(lattice_expressions(), st.sampled_from(("info", "genus", "disc")))
@example("A1^20", "disc")
@example("U(4)^5+A2", "disc")
def test_cli_on_random_expressions(expr, command):
    """Each expression exits 0 or 2 within 10 s, with no traceback; exit 1
    is kept for verification outcomes."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([command, expr, "--format", "json"])
    assert time.perf_counter() - start < 10
    if rc == 2:
        assert (out.getvalue(), err.getvalue()[:7]) == ("", "error: ")
    else:
        assert rc == 0
        assert json.loads(out.getvalue().splitlines()[0])


# JSON values of every kind a file may hold where an exact entry belongs
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(2**128, 2**136),
    st.integers(-2**136, -2**128), st.floats(),
    st.sampled_from((float("inf"), float("-inf"), float("nan"))),
    st.sampled_from(("1e3", "1e500000", "-7", "3/4", "1/0", "0x10", "",
                     "Lambda", "gram", "matrix", str(2**130), "1/%d" % 3**90)),
    st.text(max_size=6))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda kids: st.lists(kids, max_size=4)
                           | st.dictionaries(st.sampled_from(
                               ("gram", "matrix", "lattice", "name", "blocks")),
                               kids, max_size=3), max_leaves=20)


@st.composite
def lattice_documents(draw):
    """Any JSON value, or an object with a random gram field, or a small
    int gram with up to two entries replaced by random leaves, with random
    name and blocks fields (blocks, a key latsym ignores, also as pairs of
    random leaves)."""
    kind = draw(st.sampled_from(("any", "gram", "square")))
    if kind == "any":
        return draw(JSON_VALUES)
    doc = draw(st.dictionaries(st.sampled_from(("name", "blocks")), JSON_VALUES,
                               max_size=2))
    if draw(st.booleans()):
        doc["blocks"] = draw(st.lists(st.tuples(JSON_LEAVES, JSON_LEAVES),
                                      max_size=3))
    if kind == "gram":
        doc["gram"] = draw(JSON_VALUES)
        return doc
    n = draw(st.integers(0, 4))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        gram[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
            JSON_LEAVES)
    doc["gram"] = gram
    return doc


@st.composite
def isometry_documents(draw):
    """Any JSON value, or an object whose matrix is a random value or the
    identity of Lambda with up to three entries replaced by random leaves,
    over Lambda, a random lattice reference or a lattice document."""
    if draw(st.booleans()):
        return draw(JSON_VALUES)
    if draw(st.booleans()):
        matrix = draw(JSON_VALUES)
    else:
        matrix = intmat.identity(16)
        for _ in range(draw(st.integers(0, 3))):
            matrix[draw(st.integers(0, 15))][draw(st.integers(0, 15))] = draw(
                JSON_LEAVES)
    ref = draw(st.sampled_from(("Lambda", "value", "lattice", None)))
    doc = {"matrix": matrix}
    if ref is not None:
        doc["lattice"] = {"Lambda": "Lambda", "value": draw(JSON_VALUES),
                          "lattice": draw(lattice_documents())}[ref]
    return doc


def _refuse_constant(name):
    raise ValueError("%s is not JSON" % name)


# refuses NaN and Infinity, which json.loads accepts
_STRICT_JSON = json.JSONDecoder(parse_constant=_refuse_constant)


@st.composite
def json_files(draw):
    """(command, file text): lattice documents for info and genus, isometry
    documents for report and walls, some of them nested very deeply."""
    command = draw(st.sampled_from(("info", "genus", "report", "walls")))
    text = json.dumps(draw(lattice_documents() if command in ("info", "genus")
                           else isometry_documents()))
    depth = draw(st.sampled_from((0,) * 8 + (50, 100000)))
    return command, "[" * depth + text + "]" * depth


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(json_files())
@example(("report", '["matrix"]'))
@example(("info", '{"gram": [[2]], "blocks": [["A1", Infinity]]}'))
@example(("info", '{"gram": [[2, 1], [1, 2]], "blocks": [["x", 1e400]]}'))
@example(("info", '{"gram": [[2]], "name": 1e400}'))
@example(("walls", "[" * 100000 + "]" * 100000))
def test_cli_on_malformed_json_files(tmp_path, case):
    """Each file exits 0 or 2 within 10 s, with no traceback."""
    command, text = case
    path = tmp_path / "input.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([command, str(path), "--format", "json"])
    assert time.perf_counter() - start < 10
    if rc == 2:
        assert (out.getvalue(), err.getvalue()[:7]) == ("", "error: ")
    else:
        assert rc == 0
        assert _STRICT_JSON.decode(out.getvalue().splitlines()[-1])


def test_report_exceptional(capsys, tmp_path, model):
    path = write_isometry(tmp_path / "ex.json",
                          isometry.exceptional_involution(model))
    rc, out, _err = run(capsys, ["report", path])
    assert rc == 0
    assert "table_row: 2" in out
    assert "type_letter: c" in out

    rc, out, _err = run(capsys, ["report", path, "--format", "json"])
    assert rc == 0
    data = json.loads(out.splitlines()[0])
    assert data["table_row"] == 2
    assert data["exceptional"] is True


def test_report_non_symplectic(capsys, tmp_path, model):
    refl = isometry.reflection(model.lattice, model.named["e8_root"])
    path = write_isometry(tmp_path / "refl.json", refl)
    rc, out, _err = run(capsys, ["report", path])
    assert rc == 0
    assert "type_letter: non-symplectic" in out
    assert "witness PEX2" in out


def test_report_outside_table(capsys, tmp_path, model):
    empty = tmp_path / "empty_table.json"
    empty.write_text(json.dumps({"rows": []}))
    path = write_isometry(tmp_path / "ex.json",
                          isometry.exceptional_involution(model))
    rc, out, _err = run(capsys, ["report", path, "--fixture", str(empty)])
    assert rc == 1
    assert "outside table" in out


GOLDEN = Path(__file__).parent / "data" / "golden"


def _bad_fixture(case):
    """JSON text of a malformed override class table (None: no file)."""
    rows = fixtures.load_table()
    if case == "scale 1":
        rows[0]["invariant_genus"] = "II_(3,13)1^2"
    elif case == "rank 10^8":
        rows[0]["invariant_genus"] = "II_(0,2)3^{99999999}"
    return {"missing": None, "list": "[1]", "no order": '{"rows": [{"no": 1}]}',
            "nested": "[" * 100000 + "]" * 100000}.get(
                case, json.dumps({"rows": rows}))


@pytest.mark.parametrize("command", ["report", "verify-table"])
@pytest.mark.parametrize("case", ["missing", "list", "no order", "nested",
                                  "scale 1", "rank 10^8"])
def test_bad_fixture_is_an_input_error(tmp_path, command, case):
    """An override class table is checked once, when it is loaded: each of
    these exited 1 with a traceback, or ran on until stopped, before."""
    table = tmp_path / "table.json"
    if _bad_fixture(case) is not None:
        table.write_text(_bad_fixture(case))
    target = GOLDEN / "identity.json" if command == "report" else GOLDEN
    done = latsym_process([command, str(target), "--fixture", str(table)],
                          timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: bad class table %s" % table)
    assert "Traceback" not in done.stderr


def test_report_invalid_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _out, err = run(capsys, ["report", str(bad)])
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("command, data", [
    ("info", {"gram": 5}), ("info", {"gram": [[None]]}),
    ("report", {"lattice": "Lambda", "matrix": 5})])
def test_malformed_file(capsys, tmp_path, command, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    rc, out, err = run(capsys, [command, str(bad)])
    assert (rc, out) == (2, "")
    assert err.startswith("error: bad ")


_SMALL_ISOMETRY = '{"lattice": "Lambda", "matrix": [[1, 0], [0, 1]]}'


@pytest.mark.parametrize("command, text, detail", [
    ("info", '{"gram": [[NaN]]}',
     "{p} is not valid JSON: invalid literal for int() with base 10: 'NaN'"),
    ("info", "[1, 2]", "{p} does not hold a JSON object"),
    ("info", None, "cannot read {p}: [Errno 21] Is a directory: '{p}'"),
    ("report", _SMALL_ISOMETRY, "bad isometry file {p}: matrix size does not "
     "match the lattice rank"),
    ("walls", _SMALL_ISOMETRY, "bad isometry file {p}: matrix size does not "
     "match the lattice rank")],
    ids=["nan", "list", "directory", "report-wrong-rank", "walls-wrong-rank"])
def test_bad_file_is_named_once(capsys, tmp_path, command, text, detail):
    """The exact error line: a file that is no JSON object is refused by
    the JSON loader alone, not wrapped again as a bad lattice file."""
    path = tmp_path / "input.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    rc, out, err = run(capsys, [command, str(path)])
    assert (rc, out) == (2, "")
    assert err == "error: %s\n" % detail.format(p=path)


def test_walls_of_another_lattice(capsys, tmp_path):
    e8 = lattice.root_E8()
    path = write_isometry(tmp_path / "e8.json", isometry.identity_isometry(e8))
    rc, out, err = run(capsys, ["walls", path])
    assert (rc, out) == (2, "")
    assert err == "error: isometry does not act on the model lattice\n"


def test_walls_command(capsys, tmp_path, model):
    refl = isometry.reflection(model.lattice, model.named["e8_root"])
    path = write_isometry(tmp_path / "refl.json", refl)
    rc, out, _err = run(capsys, ["walls", path])
    assert rc == 0
    assert "PEX2" in out

    rc, out, _err = run(capsys, ["walls", path, "--pex-only", "--format", "json"])
    assert rc == 0
    lines = [json.loads(line) for line in out.splitlines() if line]
    assert lines[0]["class"] == "PEX2"
    assert lines[-1] == {"summary": True, "witnesses": 1}


def test_verify_orbits(capsys):
    rc, out, _err = run(capsys, ["verify-orbits"])
    assert rc == 0
    assert "6/6 checks passed" in out


def test_verify_discgroup(capsys):
    rc, out, _err = run(capsys, ["verify-discgroup"])
    assert rc == 0
    assert "8/8 checks passed" in out


def test_verify_monodromy(capsys):
    rc, out, _err = run(capsys, ["verify-monodromy"])
    assert rc == 0
    assert "12/12 checks passed" in out


def test_verify_table_skip(capsys, monkeypatch):
    monkeypatch.delenv(cli.DB_ENV, raising=False)
    rc, out, _err = run(capsys, ["verify-table"])
    assert rc == 0
    assert "external data required" in out


def test_verify_table_missing_dir(capsys, tmp_path):
    rc, _out, err = run(capsys, ["verify-table", str(tmp_path / "nope")])
    assert rc == 2
    assert "error:" in err


def test_verify_table_empty_dir(capsys, tmp_path):
    rc, _out, err = run(capsys, ["verify-table", str(tmp_path)])
    assert rc == 2


def test_verify_table_partial_db(capsys, tmp_path, model):
    lam = model.lattice
    write_isometry(tmp_path / "row1.json", isometry.identity_isometry(lam))
    write_isometry(tmp_path / "row2.json",
                   isometry.exceptional_involution(model))
    (tmp_path / "corrupt.json").write_text('{"lattice": "Lambda"}')
    rc, out, _err = run(capsys, ["verify-table", str(tmp_path)])
    assert rc == 1
    assert "row1.json" in out
    assert "corrupt.json" in out
    # two valid representatives match, coverage of 32 rows does not
    assert out.splitlines()[-1] == "3 files, 2/32 rows matched (2 regular), 1 failures"


def test_verify_table_judges_the_loaded_table(capsys, tmp_path, model):
    """Completeness and the row count come from the --fixture table: two
    rows, both matched, is a complete run."""
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"rows": fixtures.load_table()[:2]}))
    db = tmp_path / "db"
    db.mkdir()
    write_isometry(db / "row1.json", isometry.identity_isometry(model.lattice))
    write_isometry(db / "row2.json", isometry.exceptional_involution(model))
    rc, out, _err = run(capsys, ["verify-table", str(db), "--fixture", str(table)])
    assert rc == 0
    assert out.splitlines()[-1] == "2 files, 2/2 rows matched (2 regular), 0 failures"


def test_verify_table_malformed_files(capsys, tmp_path):
    """Each malformed file is one failure, not a traceback."""
    texts = ['["matrix"]', '{"matrix": 5}', '{"matrix": [[NaN]]}',
             '{"matrix": [[1]', "[" * 100000 + "]" * 100000]
    for i, text in enumerate(texts):
        (tmp_path / ("bad%d.json" % i)).write_text(text)
    rc, out, _err = run(capsys, ["verify-table", str(tmp_path)])
    assert rc == 1
    assert out.count("FAIL bad") == len(texts)
    assert out.splitlines()[-1] == "5 files, 0/32 rows matched (0 regular), 5 failures"


def test_verify_table_env(capsys, tmp_path, monkeypatch, model):
    write_isometry(tmp_path / "row1.json",
                   isometry.identity_isometry(model.lattice))
    monkeypatch.setenv(cli.DB_ENV, str(tmp_path))
    rc, out, _err = run(capsys, ["verify-table"])
    assert rc == 1
    assert "row1.json" in out


def test_verify_table_json_lines(capsys, tmp_path, model):
    write_isometry(tmp_path / "row2.json",
                   isometry.exceptional_involution(model))
    rc, out, _err = run(capsys, ["verify-table", str(tmp_path),
                                 "--format", "json"])
    assert rc == 1
    for line in out.splitlines():
        if line:
            json.loads(line)


def test_each_command_parses_to_its_handler():
    handlers = {"info": cli.cmd_info, "genus": cli.cmd_genus,
                "disc": cli.cmd_disc, "walls": cli.cmd_walls,
                "report": cli.cmd_report, "verify-table": cli.cmd_verify_table,
                "verify-discgroup": cli.cmd_verify_discgroup,
                "verify-orbits": cli.cmd_verify_orbits,
                "verify-monodromy": cli.cmd_verify_monodromy}
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(commands) == sorted(handlers)
    for name, handler in handlers.items():
        argv = [name, "f.json"] if name in ("walls", "report") else [name]
        assert parser.parse_args(argv).run is handler


def test_value_error_in_a_verify_command_exits_2(capsys, monkeypatch):
    """main is the one boundary: a ValueError from the engine under any
    command is an error line and exit 2, not a traceback."""
    def refuse(mod):
        raise ValueError("refused by the test")
    monkeypatch.setattr(discform, "full_reflection_group", refuse)
    rc, out, err = run(capsys, ["verify-discgroup"])
    assert (rc, out, err) == (2, "", "error: refused by the test\n")


def test_unknown_command(capsys):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_parser_built_once_and_reused(capsys):
    """The argparse tree is built once per process; reusing it keeps the
    exit codes of --help and of an unknown command, call after call."""
    assert cli.build_parser() is cli.build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "verify-monodromy" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        rc, out, _err = run(capsys, ["genus", "D4(2)"])
        assert (rc, out.strip()) == (0, "II_(0,4)2^{-2}4^{-2}")
