"""Seeded, stratified inputs for the three benchmark workloads.

Each workload is a fixed list of strata, and each stratum a fixed number of
calls per pass.  The seed picks parameters only inside a stratum (a
coefficient, a unit, a relabelling, an order within a narrow window), so the
amount of work in a pass hardly depends on it.  Every call carries the exit
code it must return and a check of its output against `reference`, which
never imports the library.

Workloads, and why each was chosen:

- large-tables: `components` and `maxdecomp` on orders 96-720.  Theta(n^2)
  tabulation and orbit refinement dominate and module build is negligible,
  so a table-free Alexander engine or a faster table layer shows here.  The
  conjugation strata are table-backed work that an Alexander-only engine
  bypasses.
- small-mixed: every verb except `verify` on orders <= 64, including a fixed
  share of calls that must be rejected (exit 2, 3 or 4).  Fixed per-call
  costs dominate (argument parsing, JSON, `tmodule`/`intmat`), so a table
  rewrite should show no change here.
- mcq-assoc: `assoc`, `axioms`, `components`, `maxdecomp` with `--assoc`
  (and `--mcq FILE`) on carriers of 32-300.  The O(carrier^3) MCQ axioms and
  the carrier^2 operation table dominate, and the refinement runs over the
  group index set instead of quandle blocks.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import reference as ref

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

EXIT_OK, EXIT_PARSE, EXIT_AXIOMS, EXIT_UNSUPPORTED = 0, 2, 3, 4


@dataclass
class Call:
    """One CLI invocation.  `{dir}` in argv names the input-file directory."""

    stratum: str
    argv: list
    check: Callable[[str, str], Optional[str]]
    code: int = EXIT_OK
    files: dict = field(default_factory=dict)

    def resolved_argv(self, directory: str) -> list:
        return [a.replace("{dir}", directory) for a in self.argv]


def _json_check(fn):
    """Wrap fn(payload) -> reason into a check of (stdout, stderr)."""

    def check(out, err):
        try:
            payload = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        return fn(payload)

    return check


def _stderr_check(prefix):
    def check(out, err):
        if out:
            return "rejected call wrote to stdout"
        return None if err.startswith(prefix) else f"stderr does not start with {prefix!r}"

    return check


def _partition_check(n, expected):
    def fn(payload):
        part = ref.as_partition(payload.get("blocks"), n)
        return None if part == expected else "blocks differ from the reference"

    return _json_check(fn)


def _levels_ok(payload, n, expected_levels):
    levels = payload.get("levels")
    if payload.get("depth") != len(expected_levels) - 2 or not isinstance(levels, list):
        return "depth differs from the reference"
    if len(levels) != len(expected_levels):
        return "level count differs from the reference"
    for got, want in zip(levels, expected_levels):
        if ref.as_partition(got, n) != want:
            return "a level differs from the reference"
    return None


# ---------------------------------------------------------------------------
# Alexander sources


def _unit(rng, n, exclude=()):
    return rng.choice([a for a in range(1, n) if math.gcd(a, n) == 1 and a not in exclude])


def _ideal_text(n, polys, rng):
    star = rng.random() < 0.5
    return "; ".join([str(n)] + [ref.poly_text(p, star) for p in polys])


def _linear(rng, verb, n, source="--alexander"):
    """(n; t + a) with a a unit other than -1, checked by the gcd chain."""
    a = 1 if source == "--dihedral" else _unit(rng, n, exclude=(n - 1,))
    value = str(n) if source == "--dihedral" else f"{n}; t + {a}"
    argv = [verb, source, value, "--format", "json"]
    if verb == "components":
        levels = ref.linear_levels(n, a)
        return argv, _partition_check(n, levels[1])
    return argv, _json_check(lambda p: _levels_ok(p, n, ref.linear_levels(n, a)))


def _model_check(verb, n, polys, text):
    """Counts, sizes and depth from the harness's quotient model; the
    component count is also read off the presentation text."""
    gcd_at_one = math.gcd(n, *[ref.value_at_one(ref.parse_terms(p)) for p in text.split(";")[1:]])

    def fn(payload):
        model = ref.QuotientModel(n, polys)
        counts = model.level_counts()
        if counts[1] != gcd_at_one:
            return "harness model disagrees with the gcd at t = 1"
        if verb == "components":
            part = ref.as_partition(payload.get("blocks"), model.order)
            ok = ref.block_sizes_ok(part, gcd_at_one, model.order // gcd_at_one)
            return None if ok else "components differ from gcd(n, f(1))"
        if payload.get("depth") != model.depth:
            return "depth differs from the (1 - t)^k tower"
        levels = payload.get("levels") or []
        if len(levels) != len(counts):
            return "level count differs from the (1 - t)^k tower"
        for k, level in enumerate(levels):
            part = ref.as_partition(level, model.order)
            if not ref.block_sizes_ok(part, counts[k], model.order // counts[k]):
                return f"level {k} differs from the (1 - t)^k tower"
        return None

    return _json_check(fn)


def _monic(rng, n, d, lead=1):
    """lead t^d + ... + c with c a unit mod n."""
    p = {e: rng.randrange(n) for e in range(1, d)}
    p[d] = lead
    p[0] = _unit(rng, n) if n > 1 else 1
    return p


def _presented(rng, verb, n, polys):
    text = _ideal_text(n, polys, rng)
    return [verb, "--alexander", text, "--format", "json"], _model_check(verb, n, polys, text)


def _two_generator(rng, m, p, d):
    """(m p; f; f u + m c) with f monic and c a unit mod p.

    The ideal is (m p, f, m c) = (m, f), so the order is exactly m^d while
    the library still has to reduce a genuine second generator.
    """
    n = m * p
    f = _monic(rng, n, d)
    u = {e: rng.randrange(n) for e in range(2)}
    g = {}
    for e1, c1 in f.items():
        for e2, c2 in u.items():
            g[e1 + e2] = (g.get(e1 + e2, 0) + c1 * c2) % n
    g[0] = (g.get(0, 0) + m * _unit(rng, p)) % n
    return n, [f, g]


# ---------------------------------------------------------------------------
# Groups and tables


def _conj_check(verb, g):
    if verb == "components":
        return lambda: _partition_check(g.size, g.classes())
    return lambda: _json_check(lambda p: _levels_ok(p, g.size, g.tower()))


def _lazy(factory):
    """A check whose reference is computed on first use."""
    cache = []

    def check(out, err):
        if not cache:
            cache.append(factory())
        return cache[0](out, err)

    return check


def _conj_call(stratum, rng, verb, group, source, checked=True):
    if source == "file":
        order = list(range(group.size))
        rng.shuffle(order)
        group = group.relabeled(order)
        argv = [verb, "--group", "{dir}/group.json", "--conj", "--format", "json"]
        if not checked:
            argv.append("--unchecked")
        files = {"group.json": group.to_json()}
    else:
        argv = [verb, "--conj", source[0], str(source[1]), "--format", "json"]
        files = {}
    return Call(stratum, argv, _lazy(_conj_check(verb, group)), files=files)


# ---------------------------------------------------------------------------
# large-tables


def _alternating(sizes):
    """(size, verb) pairs, the verb alternating along the size grid."""
    return [(size, ("components", "maxdecomp")[k % 2]) for k, size in enumerate(sizes)]


def _large_tables(rng_for):
    """Orders on dense grids from about 100 to 720, so that the median and
    the 90th percentile fall where many calls have similar cost."""
    calls = {}
    rng = rng_for("linear")
    sizes = (96, 120, 150, 180, 216, 256, 300, 360, 432, 512, 600, 640, 680, 720)
    calls["linear"] = [Call("linear", *_linear(rng, verb, n))
                       for n in sizes for verb in ("components", "maxdecomp")]
    rng = rng_for("quadratic")
    calls["quadratic"] = [Call("quadratic", *_presented(rng, verb, n, [_monic(rng, n, 2)]))
                          for n, verb in _alternating((10, 11, 12, 13, 14, 16, 18, 20, 22, 24, 26))]
    rng = rng_for("cubic")
    calls["cubic"] = [Call("cubic", *_presented(rng, verb, n, [_monic(rng, n, 3)]))
                      for n in (5, 6, 7, 8) for verb in ("components", "maxdecomp")]
    rng = rng_for("two-generator")
    shapes = ((10, 2, 2), (12, 3, 2), (6, 3, 3), (14, 2, 2), (16, 3, 2), (18, 2, 2),
              (20, 3, 2), (8, 2, 3), (24, 2, 2), (26, 2, 2))
    calls["two-generator"] = [
        Call("two-generator", *_presented(rng, verb, *_two_generator(rng, *shape)))
        for shape, verb in _alternating(shapes)
    ]
    rng = rng_for("conj-symmetric")
    calls["conj-symmetric"] = [
        _conj_call("conj-symmetric", rng, verb, ref.symmetric(k), ("--symmetric", k))
        for k in (5, 6) for verb in ("components", "maxdecomp")
    ]
    rng = rng_for("conj-group-file")
    # group files up to order 120 are loaded with the O(n^3) group check
    groups = ((ref.dihedral_group(50), True), (ref.symmetric_times_cyclic(4, 5), True),
              (ref.dihedral_group(150), False), (ref.symmetric_times_cyclic(5, 3), False),
              (ref.symmetric_times_cyclic(5, 4), False), (ref.symmetric_times_cyclic(5, 6), False))
    calls["conj-group-file"] = [
        _conj_call("conj-group-file", rng, verb, g, "file", checked)
        for (g, checked), verb in _alternating(groups)
    ]
    return calls


# ---------------------------------------------------------------------------
# small-mixed


def _build_call(rng, kind):
    """`build` on a presentation of one of five kinds, order <= 64."""
    if kind == "monic":
        d = rng.choice((1, 2, 3))
        n = rng.randint(2, int(round(64 ** (1 / d))))
        polys = [_monic(rng, n, d, lead=_unit(rng, n) if n > 2 else 1)]
    elif kind == "fold":
        n = rng.choice((12, 18, 20, 24, 30, 36, 40, 48, 60))
        c = rng.choice([c for c in range(2, n) if 1 < math.gcd(c, n) < n])
        m = math.gcd(n, c)
        d = 1 if m > 8 else rng.choice((1, 2))
        polys = [_monic(rng, n, d), {rng.randint(0, 2): c}]
    elif kind == "flip":
        n = rng.choice((4, 6, 8, 9, 10, 12))
        d = rng.choice((1, 2))
        p = {e: rng.randrange(n) for e in range(1, d)}
        p[d] = rng.choice([c for c in range(2, n) if math.gcd(c, n) > 1])
        p[0] = _unit(rng, n)
        polys = [p]
    elif kind == "saturate":
        n = rng.choice((4, 6, 8, 9, 10, 12))
        d = rng.choice((1, 2))
        p = {e: rng.randrange(n) for e in range(1, d)}
        p[d] = 1
        p[0] = rng.choice([c for c in range(2, n) if math.gcd(c, n) > 1])
        polys = [p]
    else:
        n = rng.randint(3, 8)
        polys = [_monic(rng, n, 2), {0: rng.randrange(n), 1: rng.randint(1, n - 1)}]
    text = _ideal_text(n, polys, rng)
    gcd_at_one = math.gcd(n, *[ref.value_at_one(p) for p in polys])
    canonical = [ref.reduced(n, p) for p in polys]
    canonical = [p for p in canonical if p]

    def fn(payload):
        model = ref.QuotientModel(n, polys)
        parts = str(payload.get("descriptor", "")).split(";")
        try:
            got = [ref.parse_terms(s) for s in parts[1:]]
        except ValueError as exc:
            return str(exc)
        if parts[0].strip() != str(n) or got != canonical:
            return "descriptor differs from the reduced presentation"
        if payload.get("component_count") != gcd_at_one:
            return "component count differs from gcd(n, f(1))"
        if payload.get("order") != model.order:
            return "order differs from the harness model"
        factors = payload.get("invariant_factors")
        if math.prod(factors) != model.order or any(n % f for f in factors):
            return "invariant factors do not multiply to the order"
        labels = payload.get("labels")
        if len(labels) != model.order or len(set(labels)) != model.order:
            return "labels are not one per element"
        return None

    return Call("build", ["build", text, "--format", "json"], _json_check(fn))


def _theory_call(rng):
    gens = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            gens.append({0: rng.randint(2, 30)})
        else:
            lo = rng.randint(-2, 0)
            gens.append({e: rng.randint(-9, 9) or 1 for e in range(lo, lo + rng.randint(1, 3) + 1)})
    values = [ref.value_at_one(p) for p in gens]
    if not any(values):
        gens.append({0: 6})
        values.append(6)
    expected = math.gcd(*values)

    def fn(payload):
        try:
            listed = [ref.parse_terms(s) for s in payload["generators"]]
            ideal = [ref.parse_terms(s) for s in payload["component_ideal"]]
        except (KeyError, TypeError, ValueError) as exc:
            return f"unreadable theory output: {exc}"
        if payload.get("orbit_count") != expected:
            return "orbit count differs from the gcd of the values at t = 1"
        if listed != gens or ideal[:len(gens)] != gens:
            return "generators differ from the input"
        if not set(payload) <= {"orbit_count", "generators", "component_ideal", "note"}:
            return "unexpected keys"
        return None

    text = "; ".join(ref.poly_text(p, rng.random() < 0.5) for p in gens)
    return Call("theory", ["theory", text, "--format", "json"], _json_check(fn))


def _prop56_call(rng):
    n0, a = rng.randint(2, 5000), rng.randint(-20, 50)
    chain = ref.gcd_chain(n0, a)
    want = {"chain": chain, "depth": len(chain) - 1,
            "block_count": n0 // chain[-1], "block_modulus": chain[-1]}
    check = _json_check(lambda p: None if p == want else "differs from the gcd chain")
    return Call("prop56", ["prop56", str(n0), str(a), "--format", "json"], check)


def _small_source_call(rng, stratum, verb, k):
    """Dihedral, linear and presented sources on a size grid from 8 to 64."""
    kind = k % 3
    if kind == 0:
        return Call(stratum, *_linear(rng, verb, 8 + 4 * k, "--dihedral"))
    if kind == 1:
        return Call(stratum, *_linear(rng, verb, 8 + 4 * k))
    # one monic generator of order n^d, or two generators of order m^d
    shape = ((4, 2), (3, 2, 3), (6, 2), (7, 2, 2), (8, 2))[k // 3]
    if len(shape) == 2:
        n, polys = shape[0], [_monic(rng, *shape)]
    else:
        n, polys = _two_generator(rng, *shape)
    return Call(stratum, *_presented(rng, verb, n, polys))


def _iso_call(rng, k):
    kind = k % 3
    if kind == 0:
        # backtracking cost grows erratically with the order (seconds at 20)
        n = (8, 9, 11, 12)[k // 3]
        a = _unit(rng, n)
        t1 = ref.linear_table(n, a)
        sigma = list(range(n))
        rng.shuffle(sigma)
        t2 = ref.relabel(t1, sigma)

        def fn(payload):
            if payload.get("isomorphic") is not True:
                return "isomorphic pair reported as not isomorphic"
            return None if ref.transports(payload.get("map"), t1, t2) else "map does not transport the table"

        argv = ["iso", "--alexander", f"{n}; t + {a}", "--table", "{dir}/iso.json", "--format", "json"]
        return Call("iso", argv, _json_check(fn), files={"iso.json": {"size": n, "table": t2}})
    no = _json_check(lambda p: None if p == {"isomorphic": False} else "expected no isomorphism")
    if kind == 1:
        # connected quandles (Z_p, t) and (Z_p, s), s != t of one order:
        # isomorphic Alexander quandles with (1 - t)M = M need isomorphic modules
        p = (7, 11, 7, 11)[k // 3]
        t = rng.choice([u for u in range(2, p) if ref.mult_order(u, p) > 2])
        s = rng.choice([u for u in range(2, p) if u != t and ref.mult_order(u, p) == ref.mult_order(t, p)])
        argv = ["iso", "--alexander", f"{p}; t + {p - t}", "--alexander", f"{p}; t + {p - s}",
                "--format", "json"]
        return Call("iso", argv, no)
    # component counts differ: gcd(n, 2) for R_n against gcd(n, 1 + a)
    n = (9, 15, 21, 27)[k // 3]
    a = rng.choice([a for a in range(1, n) if math.gcd(a, n) == 1 and math.gcd(n, 1 + a) > 1])
    return Call("iso", ["iso", "--dihedral", str(n), "--alexander", f"{n}; t + {a}",
                        "--format", "json"], no)


def _valid_table(rng, k):
    """A relabelled Alexander or Conj(D_n) table, order from 8 to 16."""
    size = 8 + 2 * (k // 4)
    if k % 2:
        table = ref.linear_table(size, _unit(rng, size))
    else:
        table = ref.conj_table(ref.dihedral_group(size // 2))
    sigma = list(range(len(table)))
    rng.shuffle(sigma)
    return ref.relabel(table, sigma)


def _corrupt(rng, table):
    """Swap two entries of one column: columns stay bijective, and the
    result is checked to break an axiom."""
    n = len(table)
    while True:
        bad = [row[:] for row in table]
        b = rng.randrange(n)
        a1, a2 = rng.sample(range(n), 2)
        bad[a1][b], bad[a2][b] = bad[a2][b], bad[a1][b]
        if not ref.is_quandle(bad):
            return bad


def _axioms_table_call(rng, k):
    kind = k % 4
    table = _valid_table(rng, k)
    files = {"table.json": {"size": len(table), "table": table}}
    argv = ["axioms", "--table", "{dir}/table.json", "--format", "json"]
    if kind < 2:
        check = _json_check(lambda p: None if p == {"ok": True} else "valid table rejected")
        return Call("axioms-table", argv, check, files=files)
    bad = _corrupt(rng, table)
    files = {"table.json": {"size": len(bad), "table": bad}}
    if kind == 2:
        return Call("axioms-table", argv, _stderr_check("invalid table:"), EXIT_AXIOMS, files)

    def fn(payload):
        if payload.get("ok") is not False:
            return "corrupted table accepted"
        ok = ref.witness_holds(bad, payload.get("axiom"), payload.get("witness") or [])
        return None if ok else "reported witness is not a violation"

    return Call("axioms-table", argv + ["--unchecked"], _json_check(fn), EXIT_AXIOMS, files)


def _conj_small_call(rng, k):
    slot = k % 4
    kk = 3 if k < 4 else 4
    if slot == 0:
        return _conj_call("conj", rng, "components", ref.symmetric(kk), ("--symmetric", kk))
    if slot == 1:
        return _conj_call("conj", rng, "maxdecomp", ref.symmetric(kk), ("--symmetric", kk))
    if slot == 2:
        check = _json_check(lambda p: None if p == {"ok": True} else "Conj(S4) rejected")
        return Call("conj", ["axioms", "--conj", "--symmetric", "4", "--format", "json"], check)
    m = rng.randint(2, 12)
    singletons = {frozenset([i]) for i in range(m)}
    return Call("conj", ["components", "--conj", "--cyclic", str(m), "--format", "json"],
                _partition_check(m, singletons))


def _parse_error_call(rng, k):
    n = rng.randint(5, 40)
    body = ref.poly_text(_monic(rng, n, rng.choice((1, 2))))
    bad = (
        f"0; {body}",
        f"; {body}",
        f"{n}; {body}".replace("t", "x", 1),
        f"{n}; {body};",
        f"{n}; {body}".replace("t", "t^", 1) if "t^" not in body else f"{n}; {body}".replace("^", "^^", 1),
    )[k % 5]
    argv = ["build", bad, "--format", "json"] if k % 2 == 0 else \
        ["components", "--alexander", bad, "--format", "json"]
    return Call("parse-error", argv, _stderr_check("parse error:"), EXIT_PARSE)


def _unsupported_call(rng, k):
    n = rng.choice((6, 10, 12, 15, 18, 20))
    nonunits = [c for c in range(2, n) if math.gcd(c, n) > 1]
    d = rng.choice((1, 2))
    p = {e: rng.randrange(n) for e in range(1, d)}
    p[d], p[0] = rng.choice(nonunits), rng.choice(nonunits)
    text = _ideal_text(n, [p], rng)
    argv = ["build", text, "--format", "json"] if k % 2 == 0 else \
        ["maxdecomp", "--alexander", text, "--format", "json"]
    return Call("unsupported", argv, _stderr_check("unsupported presentation:"), EXIT_UNSUPPORTED)


def _small_mixed(rng_for):
    kinds = ("monic", "fold", "flip", "saturate", "multi")
    spec = (
        ("build", 30, lambda rng, k: _build_call(rng, kinds[k % 5])),
        ("theory", 12, lambda rng, k: _theory_call(rng)),
        ("prop56", 8, lambda rng, k: _prop56_call(rng)),
        ("components", 15, lambda rng, k: _small_source_call(rng, "components", "components", k)),
        ("maxdecomp", 15, lambda rng, k: _small_source_call(rng, "maxdecomp", "maxdecomp", k)),
        ("iso", 12, _iso_call),
        ("axioms-table", 16, _axioms_table_call),
        ("conj", 8, _conj_small_call),
        ("parse-error", 10, _parse_error_call),
        ("unsupported", 4, _unsupported_call),
    )
    calls = {}
    for name, count, make in spec:
        rng = rng_for(name)
        calls[name] = [make(rng, k) for k in range(count)]
    return calls


# ---------------------------------------------------------------------------
# mcq-assoc


def _mcq_checks(base: ref.Base):
    """Checks for the four verbs on the associated MCQ of a base quandle."""
    carrier = base.size * base.m

    def assoc(p):
        return None if p == base.mcq_json() else "associated MCQ differs from (x *^h y, g)"

    def components(p):
        part = ref.as_partition(p.get("blocks"), base.size)
        return None if part == base.components else "index orbits differ from the base components"

    def maxdecomp(p):
        reason = _levels_ok(p, base.size, base.levels)
        if reason:
            return reason
        part = ref.as_partition(p.get("carrier_blocks"), carrier)
        return None if part == base.carrier_blocks() else "carrier blocks differ from base blocks x Z_m"

    def axioms(p):
        return None if p == {"ok": True} else "associated MCQ rejected"

    return {"assoc": assoc, "components": components, "maxdecomp": maxdecomp, "axioms": axioms}


_MCQ_VERBS = ("assoc", "axioms", "components", "maxdecomp")


def _mcq_calls(stratum, source_argv, base_factory):
    return [Call(stratum, [verb, *source_argv, "--assoc", "--format", "json"],
                 _lazy(lambda verb=verb: _json_check(_mcq_checks(base_factory())[verb])))
            for verb in _MCQ_VERBS]


def _linear_of_type(rng, n, m):
    """(n; t + a) of type m, other than dihedral: -a has multiplicative order m."""
    u = rng.choice([u for u in range(2, n - 1) if math.gcd(u, n) == 1 and ref.mult_order(u, n) == m])
    return n, n - u


_CARRIERS = (32, 48, 72, 90, 108, 130, 160, 220, 300)
# (n, type) with carrier n m on the same grid
_LINEAR_TYPES = ((16, 2), (24, 2), (36, 2), (45, 2), (36, 3), (65, 2), (40, 4), (55, 4), (75, 4))


def _mcq_assoc(rng_for):
    """Carriers on a fixed grid from 32 to 300, every verb on every source:
    the O(carrier^3) axiom check makes call cost steep in the carrier, so
    the seed picks the linear ideals but never the carrier sizes."""
    calls = {}
    out = []
    for carrier in _CARRIERS:
        m = carrier // 2
        out += _mcq_calls("dihedral", ["--dihedral", str(m)], lambda m=m: ref.Base.linear(m, 1))
    calls["dihedral"] = out
    rng = rng_for("linear")
    out = []
    for n, m in _LINEAR_TYPES:
        n, a = _linear_of_type(rng, n, m)
        out += _mcq_calls("linear", ["--alexander", f"{n}; t + {a}"],
                          lambda n=n, a=a: ref.Base.linear(n, a))
    calls["linear"] = out
    out = []
    for k in (3, 4):
        out += _mcq_calls("conj", ["--conj", "--symmetric", str(k)],
                          lambda k=k: ref.Base.conj(ref.symmetric(k)))
    calls["conj"] = out
    rng = rng_for("mcq-file")
    base = ref.Base.linear(*_linear_of_type(rng, 30, 2))
    data = base.mcq_json()
    checks = _mcq_checks(base)
    checks["assoc"] = lambda p: None if p == data else "MCQ file does not round-trip"
    calls["mcq-file"] = [
        Call("mcq-file", [verb, "--mcq", "{dir}/mcq.json", "--format", "json"],
             _json_check(checks[verb]), files={"mcq.json": data})
        for verb in _MCQ_VERBS
    ]
    return calls


WORKLOADS = {
    "large-tables": _large_tables,
    "small-mixed": _small_mixed,
    "mcq-assoc": _mcq_assoc,
}

WARMUP = {
    "large-tables": [["components", "--alexander", "5; t+2", "--format", "json"],
                     ["maxdecomp", "--conj", "--symmetric", "3", "--format", "json"]],
    "small-mixed": [["build", "5; t+2", "--format", "json"],
                    ["theory", "t+2; 5", "--format", "json"],
                    ["prop56", "12", "1", "--format", "json"],
                    ["iso", "--dihedral", "3", "--alexander", "3; t+1", "--format", "json"],
                    ["maxdecomp", "--dihedral", "6", "--format", "json"]],
    "mcq-assoc": [[verb, "--dihedral", "3", "--assoc", "--format", "json"] for verb in _MCQ_VERBS],
}


def generate(workload: str, seed: int) -> list:
    """One pass of the workload: every stratum's calls, interleaved so that
    the costly strata are spread over the pass."""
    strata = WORKLOADS[workload](lambda name: random.Random(f"{workload}/{name}/{seed}"))
    keyed = []
    for calls in strata.values():
        for j, call in enumerate(calls):
            keyed.append(((j + 0.5) / len(calls), call))
    keyed.sort(key=lambda kc: kc[0])
    calls = [call for _, call in keyed]
    # files of one call must not overwrite another's: give each a unique name
    for i, call in enumerate(calls):
        for name in list(call.files):
            unique = f"c{i:03d}-{name}"
            call.files[unique] = call.files.pop(name)
            call.argv = [a.replace("{dir}/" + name, "{dir}/" + unique) for a in call.argv]
    return calls


def stratum_counts(calls) -> dict:
    return dict(Counter(call.stratum for call in calls))
