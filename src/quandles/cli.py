"""Command line front end.

Verbs: axioms, components, maxdecomp, iso, build, theory, prop56, assoc,
verify.  Sources are given by flags; outputs are deterministic text or JSON.
Exit codes: 0 success, 1 failed verification, 2 parse error, 3 axiom
violation, 4 unsupported presentation, 5 resource limit (out of memory, of
recursion depth, or of the machine-size integers that sizes and indices
must fit), 141 (128 + SIGPIPE) output closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# dihedral, parse_poly and associated_mcq go unused here; perfbench/spans.py binds them
from .alexander import (alexander_components, alexander_decomposition, alexander_quandle,
                        component_ideal, dihedral, dihedral_presentation, gcd_chain)
from .decomposition import maximal_decomposition
from .group import (FiniteGroup, conj_components, conj_decomposition, conj_quandle, cyclic_group,
                    is_associative, symmetric_group)
from .laurent import ParseError, format_poly, parse_poly
from .mcq import (MCQ, associated_decomposition, associated_json_text, associated_mcq,
                  check_associated_axioms, check_mcq_axioms, lambda_orbits,
                  maximal_mcq_decomposition, pair_labeler)
from .quandle import (FiniteQuandle, InvalidTable, check_axioms, check_columns,
                      connected_components, find_isomorphism, type_of)
from .tmodule import FiniteTModule, UnsupportedPresentation, build, parse_generators, parse_ideal

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_AXIOMS = 3
EXIT_UNSUPPORTED = 4
EXIT_RESOURCE = 5
EXIT_BROKEN_PIPE = 141


class _Source(argparse.Action):
    """Collect source flags in command-line order."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = list(getattr(namespace, "sources", ()) or ())
        items.append((option_string.lstrip("-"), values))
        namespace.sources = items


def _add_source_flags(sub):
    sub.add_argument("--alexander", action=_Source, metavar="IDEAL",
                     help="quandle of the quotient by 'n; p1; p2; ...'")
    sub.add_argument("--dihedral", action=_Source, metavar="M",
                     help="dihedral quandle on Z_M")
    sub.add_argument("--table", action=_Source, metavar="FILE",
                     help="quandle table from a JSON file")
    sub.add_argument("--symmetric", action=_Source, metavar="N",
                     help="symmetric group of degree N (needs --conj)")
    sub.add_argument("--cyclic", action=_Source, metavar="N",
                     help="cyclic group of order N (needs --conj)")
    sub.add_argument("--group", action=_Source, metavar="FILE",
                     help="group table from a JSON file (needs --conj)")
    sub.add_argument("--mcq", action=_Source, metavar="FILE",
                     help="multiple conjugation quandle from a JSON file")
    sub.add_argument("--conj", action="store_true",
                     help="take the conjugation quandle of the group source")
    sub.add_argument("--assoc", action="store_true",
                     help="convert the quandle source to its associated "
                          "multiple conjugation quandle")


class _Ints(dict):
    """The ints of one JSON document by their spelling, each parsed once, so
    equal entries are one object: a loaded order-n table holds n ints, not
    up to n^2 (CPython shares only -5..256)."""

    def __missing__(self, text):
        value = self[text] = int(text)
        return value


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle, parse_int=_Ints().__getitem__)


def _resolve_one(kind, value, args):
    """A source as the cheapest object that answers for it: the module of
    --alexander or --dihedral, the group of a group source, the loaded table
    of --table and the loaded MCQ of --mcq.  An unchecked group file that is
    not associative becomes its conjugation table: only then can the columns
    of that table fail to be bijections, and with --unchecked every verb but
    `axioms`, which reports the violation, refuses such a table."""
    if kind == "alexander":
        return build(parse_ideal(value))
    if kind == "dihedral":
        return build(dihedral_presentation(int(value)))
    if kind == "table":
        obj = FiniteQuandle.from_json(_load_json(value), check=not args.unchecked)
    elif kind == "mcq":
        obj = MCQ.from_json(_load_json(value), check=not args.unchecked)
    elif kind == "symmetric":
        obj = symmetric_group(int(value))
    elif kind == "cyclic":
        obj = cyclic_group(int(value))
    else:
        obj = FiniteGroup.from_json(_load_json(value), check=not args.unchecked)
    if isinstance(obj, FiniteGroup):
        if not args.conj:
            raise SystemExit2("group sources need --conj", EXIT_PARSE)
        if kind != "group" or not args.unchecked or is_associative(obj):
            return obj
        obj = conj_quandle(obj)
    if args.unchecked and args.verb != "axioms":
        bad = check_columns(obj if isinstance(obj, FiniteQuandle) else FiniteQuandle._built(obj.op))
        if bad is not None:
            raise InvalidTable(f"right translations are not bijections ({bad})")
    return obj


def _resolve_sources(args, count=1):
    sources = list(getattr(args, "sources", ()) or ())
    if len(sources) != count:
        need = "exactly one source flag" if count == 1 else f"exactly {count} source flags"
        raise SystemExit2(f"this command needs {need}", EXIT_PARSE)
    return [_resolve_one(kind, value, args) for kind, value in sources]


def _quandle(src):
    """The operation table of a resolved quandle source, for the verbs that
    need one."""
    if isinstance(src, FiniteTModule):
        return alexander_quandle(src).quandle
    return conj_quandle(src) if isinstance(src, FiniteGroup) else src


class SystemExit2(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _emit(args, payload, text_fn):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text_fn())


def _labeler(src):
    """Element labels of a resolved source.  Called for text output only,
    since listing a module's labels costs O(order)."""
    return src.labels().__getitem__ if isinstance(src, FiniteTModule) else src.label


def _blocks_text(label, blocks, header):
    lines = [header]
    for block in blocks:
        lines.append("  {" + ", ".join(label(i) for i in block) + "}")
    return "\n".join(lines)


def _cmd_axioms(args):
    src = _resolve_sources(args)[0]
    if not args.unchecked or isinstance(src, (FiniteGroup, FiniteTModule)):
        # checked as it loaded, or built by the library: a group, whose
        # conjugation is a quandle (see _resolve_one), or a module, on which
        # build verified that t is invertible; the associated structure of a
        # quandle passes the MCQ axioms too (check_associated_axioms)
        bad = None
    elif isinstance(src, MCQ):
        bad = check_mcq_axioms(src)
    else:
        bad = check_associated_axioms(src) if args.assoc else check_axioms(src)
    if bad is None:
        _emit(args, {"ok": True}, lambda: "ok")
        return EXIT_OK
    payload = {"ok": False, "axiom": bad.axiom, "witness": list(bad.witness)}
    _emit(args, payload, lambda: f"violation: {bad.axiom} at {bad.witness}")
    return EXIT_AXIOMS


def _cmd_components(args):
    # with --assoc, the index orbits of the associated structure are the
    # quandle's components (see mcq.associated_decomposition)
    src = _resolve_sources(args)[0]
    if isinstance(src, MCQ):
        part = lambda_orbits(src)
    elif isinstance(src, FiniteTModule):
        part = alexander_components(src)
    elif isinstance(src, FiniteGroup):
        part = conj_components(src)
    else:
        part = connected_components(src)
    if isinstance(src, MCQ) or args.assoc:
        header = f"{len(part)} index orbit(s):"
        text = lambda: _blocks_text(str, part, header)
    else:
        header = f"{len(part)} connected component(s), sizes {list(part.sizes())}:"
        text = lambda: _blocks_text(_labeler(src), part, header)
    _emit(args, {"blocks": part.to_json()}, text)
    return EXIT_OK


def _cmd_maxdecomp(args):
    src = _resolve_sources(args)[0]
    if isinstance(src, MCQ):
        dec = maximal_mcq_decomposition(src)
    elif isinstance(src, FiniteTModule):
        dec = alexander_decomposition(src)
    elif isinstance(src, FiniteGroup):
        dec = conj_decomposition(src)
    else:
        dec = maximal_decomposition(src)
    label = lambda: _labeler(src)
    if args.assoc and not isinstance(src, MCQ):
        m = src.t_order if isinstance(src, FiniteTModule) else type_of(_quandle(src))
        dec, label = associated_decomposition(dec, m), lambda: pair_labeler(_labeler(src), m)
    if isinstance(src, MCQ) or args.assoc:  # a tower of the index set, then whole groups
        text = lambda: _tower_text(dec.index_tree, "index block(s)", _blocks_text(
            label(), dec.carrier_partition, "carrier blocks:"))
    else:
        text = lambda: _tower_text(dec, "block(s)", _blocks_text(
            label(), dec.final, "final blocks:"))
    _emit(args, dec.to_json(), text)
    return EXIT_OK


def _tower_text(tree, noun, final):
    """A refinement tower as text: its depth, the blocks of each level, then
    final, the text of its final blocks."""
    levels = [f"level {k}: {len(level)} {noun}, sizes {list(level.sizes())}"
              for k, level in enumerate(tree.levels)]
    return "\n".join([f"depth: {tree.depth}", *levels, final])


def _cmd_iso(args):
    sources = _resolve_sources(args, count=2)
    if args.assoc or any(isinstance(src, MCQ) for src in sources):
        raise SystemExit2("iso compares quandles, not MCQs", EXIT_PARSE)
    if len({src.order if isinstance(src, FiniteTModule) else src.size for src in sources}) > 1:
        phi = None  # what find_isomorphism answers, before either table is built
    else:
        q1, q2 = map(_quandle, sources)
        phi = find_isomorphism(q1, q2)
    if phi is None:
        _emit(args, {"isomorphic": False}, lambda: "no isomorphism")
    else:
        _emit(args, {"isomorphic": True, "map": list(phi)},
              lambda: "isomorphism found: " + ", ".join(
                  f"{q1.label(i)} -> {q2.label(v)}" for i, v in enumerate(phi)))
    return EXIT_OK


def _cmd_build(args):
    module = build(parse_ideal(args.ideal))
    payload = {
        "descriptor": module.descriptor(),
        "order": module.order,
        "invariant_factors": list(module.invariant_factors),
        "component_count": module.eval_modulus,
    }
    if args.format == "json":  # text lists the labels only up to order 64
        payload["labels"] = module.labels()

    def text():
        lines = [
            f"quotient by ({module.descriptor()})",
            f"order: {module.order}",
            f"invariant factors: {list(module.invariant_factors)}",
            f"components: {module.eval_modulus}",
        ]
        if module.order <= 64:
            lines.append("elements: " + ", ".join(module.labels()))
        return "\n".join(lines)

    _emit(args, payload, text)
    return EXIT_OK


def _cmd_theory(args):
    gens = parse_generators(args.generators)
    result = component_ideal(gens)
    payload = {
        "orbit_count": result.orbit_count,
        "generators": [format_poly(f) for f in gens],
        "component_ideal": [format_poly(f) for f in result.generators],
    }
    if result.note:
        payload["note"] = result.note

    def text():
        lines = [
            f"generators: {'; '.join(payload['generators'])}",
            f"component count: {result.orbit_count}"
            + ("" if result.orbit_count else " (no integer value; enumeration unsupported)"),
            f"component ideal: ({'; '.join(payload['component_ideal'])})",
        ]
        if result.note:
            lines.append(f"note: {result.note}")
        return "\n".join(lines)

    _emit(args, payload, text)
    return EXIT_OK


def _cmd_prop56(args):
    formula = gcd_chain(args.n0, args.a)
    payload = {
        "chain": list(formula.chain),
        "depth": formula.depth,
        "block_count": formula.block_count,
        "block_modulus": formula.block_modulus,
    }
    linear = f"t+{args.a}" if args.a >= 0 else f"t{args.a}"

    def text():
        return (
            f"chain: {' -> '.join(str(n) for n in formula.chain)}\n"
            f"depth: {formula.depth}\n"
            f"maximal blocks: {formula.block_count}, each the quandle of "
            f"({formula.block_modulus}; {linear})"
        )

    _emit(args, payload, text)
    return EXIT_OK


def _cmd_assoc(args):
    # a quandle source's structure is written from its base rows, and its text
    # needs no table but the base's, none for a module (the type: t's order)
    src = _resolve_sources(args)[0]
    module = isinstance(src, FiniteTModule)
    if args.format == "json":
        print(json.dumps(src.to_json(), sort_keys=True) if isinstance(src, MCQ) else
              associated_json_text(_quandle(src), src.t_order if module else None))
        return EXIT_OK
    if isinstance(src, MCQ):
        sizes, label = [g.size for g in src.groups], src.label
    else:
        base = _labeler(src)  # first: a module too large to list fails here, not in t_order
        q = None if module else _quandle(src)
        count, m = (src.order, src.t_order) if module else (q.size, type_of(q))
        sizes, label = [m] * count, pair_labeler(base, m)
    orders = sorted(set(sizes))
    order = f"order {orders[0]}" if len(orders) == 1 else f"orders {orders}"
    print(f"{len(sizes)} group(s) of {order}, carrier size {sum(sizes)}\n"
          f"carrier: " + ", ".join(map(label, range(sum(sizes)))))
    return EXIT_OK


def _cmd_verify(args):
    # imported here: every other verb would pay to load the reference code
    from .verify import CHECK_GROUPS, DEFAULT_SEED, run_checks

    names = [name for name, _ in CHECK_GROUPS]
    if args.only and not any(args.only in name for name in names):
        # else no check would run, and the empty run would pass
        raise SystemExit2(f"--only {args.only!r} matches no check group; the groups are "
                          + ", ".join(names), EXIT_PARSE)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    rows = run_checks(only=args.only, seed=seed)
    failures = [r for r in rows if not r.ok]
    if args.format == "json":
        payload = {
            "seed": seed,
            "checks": [
                {"group": r.group, "claim": r.claim, "expected": _jsonable(r.expected),
                 "computed": _jsonable(r.computed), "ok": r.ok}
                for r in rows
            ],
            "failures": len(failures),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        width = max((len(r.claim) for r in rows), default=0)
        for r in rows:
            status = "ok  " if r.ok else "FAIL"
            print(f"{status}  {r.claim.ljust(width)}  expected={_short(r.expected)}"
                  f"  computed={_short(r.computed)}")
        print(f"summary: {len(rows)} checks, {len(failures)} failure(s), seed {seed}")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def _jsonable(value):
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def _short(value):
    text = repr(_jsonable(value))
    return text if len(text) <= 60 else text[:57] + "..."


def _add_verify_flags(sub):
    sub.add_argument("--only", metavar="SUBSTR", default=None,
                     help="restrict to check groups containing this substring")
    sub.add_argument("--seed", type=int, default=None)


# verb -> (handler, add_parser keywords of the full tree, flags of its own), in usage-line order
_VERBS = {
    "axioms": (_cmd_axioms, {}, _add_source_flags),
    "components": (_cmd_components, {}, _add_source_flags),
    "maxdecomp": (_cmd_maxdecomp, {}, _add_source_flags),
    "iso": (_cmd_iso, {}, _add_source_flags),
    "assoc": (_cmd_assoc, {}, _add_source_flags),
    "build": (_cmd_build, {"help": "construct a finite quotient module"},
              lambda sub: sub.add_argument("ideal", metavar="IDEAL", help="'n; p1; p2; ...'")),
    "theory": (_cmd_theory, {"help": "symbolic component count and ideal"},
               lambda sub: sub.add_argument("generators", metavar="GENS", help="'p1; p2; ...'")),
    "prop56": (_cmd_prop56, {"help": "gcd chain decomposition of (n0; t+a)"},
               lambda sub: [sub.add_argument(name, type=int) for name in ("n0", "a")]),
    "verify": (_cmd_verify, {"help": "run the reproduction checks"}, _add_verify_flags),
}


def _verb_flags(sub, verb):
    fn, _, add_flags = _VERBS[verb]
    add_flags(sub)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--unchecked", action="store_true",
                     help="skip axiom validation when loading files")
    sub.set_defaults(fn=fn)
    return sub


def _build_parser():
    """The full tree: the top-level parser, then every verb's subparser."""
    parser = argparse.ArgumentParser(
        prog="quandles",
        description="finite quandle and multiple conjugation quandle computations",
    )
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file of flag defaults (same keys as flags)")
    subs = parser.add_subparsers(dest="verb", required=True)
    return [parser, *(_verb_flags(subs.add_parser(name, **keywords), name)
                      for name, (_, keywords, _) in _VERBS.items())]


def _parse_args(argv):
    """The namespace of argv, and the full tree's parsers if it was built.
    That tree hands all tokens after a verb to its subparser, then words two
    errors itself: leftover tokens, and a token starting --= (ambiguous between
    --help and --config); it is built only for those, or for no leading verb."""
    if argv and argv[0] in _VERBS and not any(arg.startswith("--=") for arg in argv):
        sub = _verb_flags(argparse.ArgumentParser(prog="quandles " + argv[0]), argv[0])
        sub.set_defaults(verb=argv[0], config=None)
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            return args, None
    parsers = _build_parser()
    return parsers[0].parse_args(argv), parsers


def _config_defaults(path, parsers):
    """Flag defaults from a JSON config file, refused with SystemExit2 unless
    every key is the destination of a flag and every value is one that flag
    accepts: a boolean for a switch, one of its choices, or its type."""
    try:
        data = _load_json(path)
    except (OSError, ValueError) as exc:
        raise SystemExit2(f"cannot read config file {path}: {exc}", EXIT_PARSE) from None
    if not isinstance(data, dict):
        raise SystemExit2(f"config file {path} must hold a JSON object", EXIT_PARSE)
    flags = {action.dest: action for sub in parsers for action in sub._actions
             if action.option_strings and action.dest not in ("help", "config")
             and not isinstance(action, _Source)}
    for key, value in data.items():
        action = flags.get(key)
        if action is None:
            raise SystemExit2(f"config file {path}: unknown key {key!r}", EXIT_PARSE)
        kind = bool if action.nargs == 0 else action.type or str
        if type(value) is not kind or (action.choices is not None
                                       and value not in action.choices):
            raise SystemExit2(f"config file {path}: invalid value {value!r} for {key!r}",
                              EXIT_PARSE)
    return data


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args, parsers = _parse_args(argv)
    try:
        if args.config:
            defaults = _config_defaults(args.config, parsers)
            # subparsers apply their own defaults, so push the overrides into each
            for parser in parsers:
                parser.set_defaults(**defaults)
            args = parsers[0].parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: say nothing, and keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedPresentation as exc:
        print(f"unsupported presentation: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except InvalidTable as exc:
        print(f"invalid table: {exc}", file=sys.stderr)
        return EXIT_AXIOMS
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (MemoryError, RecursionError, OverflowError) as exc:
        # last resort: the input outgrew the memory, the stack or a C integer
        detail = f": {exc}" if str(exc) else ""
        print(f"error: resource limit: {type(exc).__name__}{detail}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
