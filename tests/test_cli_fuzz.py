"""A seeded robustness draw over the command line.

Random verbs, sources and flags meet malformed JSON files and polynomial
text.  No exception may leave `main` but argparse's own exit, every exit
code must be a documented one, and only `verify` may exit 1.  Inputs stay
small (moduli at most 64, degrees at most 8, tabulated orders at most 64)
so that each call is quick: a table grows with the square of the order, and
`build`, about 0.1 s at degree 64, grows with a power of the degree.
"""

import contextlib
import io
import json
import random

from quandles import associated_mcq, cyclic_group, dihedral, symmetric_group
from quandles.cli import main
from quandles.verify import NON_ASSOCIATIVE_LOOP

CALLS = 300
SEED = 5

GROUP = {"mult": [[0, 1], [1, 0]], "identity": 0}

# (flag, file content): valid files, files that load but fail a check, and
# malformed shapes: the wrong top level, a missing field, ragged rows,
# boolean, negative or out-of-range entries, bad labels or identity
FILES = [
    ("table", dihedral(5).quandle.to_json()),
    ("table", dihedral(6).quandle.to_json()),
    ("table", {"table": [[0, 0], [1, 1]], "labels": ["a", "b"]}),
    ("table", {"table": [[1, 0], [1, 1]]}),
    ("table", {"table": [[0, 0], [0, 1]]}),
    ("table", [[0]]),
    ("table", {}),
    ("table", {"table": [[0, 1], [1]]}),
    ("table", {"table": [[True]]}),
    ("table", {"table": [[-1]]}),
    ("table", {"table": [[3]]}),
    ("table", {"table": []}),
    ("table", {"table": "x"}),
    ("table", {"table": [[0]], "labels": 5}),
    ("table", {"table": [[0]], "labels": ["a", "b"]}),
    ("table", {"table": [[0]], "size": 2}),
    ("group", symmetric_group(3).to_json()),
    ("group", cyclic_group(4).to_json()),
    ("group", {"mult": [list(row) for row in NON_ASSOCIATIVE_LOOP], "identity": 0}),
    ("group", {"mult": [[0, 1, 2], [1, 0, 0], [2, 0, 0]], "identity": 0}),
    ("group", [[0]]),
    ("group", {"identity": 0}),
    ("group", {"mult": [[0, 1], [1]], "identity": 0}),
    ("group", {"mult": [[0, 1], [1, -1]], "identity": 0}),
    ("group", {"mult": [[0, 1], [1, 0]], "identity": True}),
    ("group", {"mult": [[0, 1], [1, 0]], "identity": -1}),
    ("group", {"mult": [[0, 1], [1, 0]], "identity": 7}),
    ("group", {"mult": [[0, 1], [1, 0]], "labels": {"a": 1}}),
    ("mcq", associated_mcq(dihedral(3).quandle).to_json()),
    ("mcq", {"groups": [GROUP], "op": [[0, 1], [1, 0]]}),
    ("mcq", {"groups": [GROUP]}),
    ("mcq", {"op": [[0]]}),
    ("mcq", {"groups": 5, "op": [[0]]}),
    ("mcq", {"groups": [GROUP], "op": [[0, 1], [1]]}),
    ("mcq", {"groups": [GROUP], "op": [[0, False], [1, 0]]}),
    ("mcq", {"groups": [{"identity": 0}], "op": [[0]]}),
    ("mcq", [GROUP]),
]
# read as raw bytes: broken JSON, an empty file, a file that is not UTF-8
RAW = [b'{"table": [[0]', b"", b"\xff\xfe", b"null", b"3"]


def _poly(rng, span, coeff):
    """Polynomial text of at most that span, in one of the accepted spellings."""
    lo = rng.randint(-2, 2)
    terms = []
    for e in range(lo, lo + span + 1):
        c = rng.randint(-coeff, coeff)
        if c == 0 and e not in (lo, lo + span):
            continue
        power = "" if e == 0 else "t" if e == 1 else f"t^{e}"
        glue = rng.choice(["*", "", " * "]) if power and abs(c) != 1 else ""
        number = "" if power and abs(c) == 1 else str(abs(c))
        terms.append(("-" if c < 0 else rng.choice(["+", " + "])) + number + glue + power)
    text = "".join(terms).lstrip(" +")
    return text or "0"


def _corrupt(rng, text):
    """text cut short, or with one character inserted that is no digit, so
    that the draw never grows a degree or a modulus."""
    if rng.randrange(2):
        return text[:rng.randrange(len(text) + 1)]
    at = rng.randrange(len(text) + 1)
    return text[:at] + rng.choice("^*+-;,t x()") + text[at:]


def _ideal(rng, max_order):
    """'n; p1; ...' with n <= 64 and each span <= 8, of order at most
    max_order when max_order is set (n^span bounds the order)."""
    span = rng.randint(0, 8)
    top = 64 if max_order is None else max(1, int(max_order ** (1 / max(span, 1)) + 1e-9))
    n = rng.randint(1, top)
    gens = [_poly(rng, span, n)] + [_poly(rng, rng.randint(0, span), n)
                                    for _ in range(rng.randrange(2))]
    text = "; ".join([str(n), *gens])
    return _corrupt(rng, text) if rng.randrange(8) == 0 else text


def _number(rng, top):
    """A count from 1 to top, and now and then one that the flag refuses."""
    return str(rng.randint(1, top)) if rng.random() < 0.9 else rng.choice(["0", "-3", "x"])


def _source(rng, files, max_order):
    kind = rng.choice(["alexander", "dihedral", "table", "symmetric", "cyclic", "group", "mcq"])
    if kind == "alexander":
        return ["--alexander", _ideal(rng, max_order)]
    if kind in ("dihedral", "symmetric", "cyclic"):
        return [f"--{kind}", _number(rng, 4 if kind == "symmetric" else max_order)]
    return [f"--{kind}", rng.choice(files["raw"] if rng.random() < 0.15 else files[kind])]


def _argv(rng, files):
    verb = rng.choice(["axioms", "components", "maxdecomp", "iso", "assoc",
                       "build", "theory", "prop56", "verify"])
    argv = [verb]
    as_json = rng.random() < 0.4
    if verb == "build":
        # JSON lists every label, text only up to order 64
        argv.append(_ideal(rng, 4096 if as_json else None))
    elif verb == "theory":
        argv.append("; ".join(_poly(rng, rng.randint(0, 8), 64)
                              for _ in range(rng.randint(1, 3))))
        if rng.randrange(8) == 0:
            argv[-1] = _corrupt(rng, argv[-1])
    elif verb == "prop56":
        argv += [_number(rng, 64), str(rng.randint(-64, 64)) if rng.random() < 0.9 else "q"]
    elif verb == "verify":
        # a substring no check group has, so verify is refused (exit 2) and
        # no check runs: the checks are the slow part
        argv += ["--only", "no-such-group"]
        argv += rng.choice([[], ["--seed", str(rng.randint(0, 99))], ["--seed", "q"]])
    else:
        count = 2 if verb == "iso" else 1
        if rng.randrange(10) == 0:
            count = rng.choice([0, count + 1])
        # the assoc carrier has order * type elements and is tabulated
        max_order = 16 if verb == "assoc" else 64
        for _ in range(count):
            argv += _source(rng, files, max_order)
        group = any(flag in argv for flag in ("--symmetric", "--cyclic", "--group"))
        for flag, share in (("--conj", 0.8 if group else 0.2), ("--assoc", 0.2),
                            ("--unchecked", 0.3)):
            if rng.random() < share:
                argv.append(flag)
    if as_json:
        argv += ["--format", "json"]
    if rng.random() < 0.05:
        argv.append(rng.choice(["--bogus", "--format", "extra"]))
    return argv


def test_random_calls_end_with_documented_codes(tmp_path):
    files = {"table": [], "group": [], "mcq": [], "raw": []}
    for k, (kind, data) in enumerate(FILES + [("raw", data) for data in RAW]):
        path = tmp_path / f"{kind}{k}.json"
        path.write_bytes(data if kind == "raw" else json.dumps(data).encode())
        files[kind].append(str(path))
    rng = random.Random(SEED)
    bad = []
    for _ in range(CALLS):
        argv = _argv(rng, files)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse ends a usage error with 2
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - every escape is a finding
                bad.append((argv, repr(exc)))
                continue
        allowed = {0, 1, 2, 3, 4, 5} if argv[0] == "verify" else {0, 2, 3, 4, 5}
        if code not in allowed:
            bad.append((argv, code, err.getvalue()))
        elif code == 0 and argv[-2:] == ["--format", "json"]:
            json.loads(out.getvalue())
    assert bad == []
