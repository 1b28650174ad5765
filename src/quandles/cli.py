"""Command line front end.

Verbs: axioms, components, maxdecomp, iso, build, theory, prop56, assoc,
verify.  Sources are given by flags; outputs are deterministic text or JSON.
Exit codes: 0 success, 1 failed verification, 2 parse error, 3 axiom
violation, 4 unsupported presentation, 141 (128 + SIGPIPE) output closed by
its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .alexander import (alexander_decomposition, alexander_quandle, component_ideal, dihedral,
                        dihedral_presentation, gcd_chain)
from .decomposition import maximal_decomposition
from .group import FiniteGroup, conj_quandle, cyclic_group, symmetric_group
from .laurent import ParseError, format_poly, parse_poly
from .mcq import (MCQ, associated_decomposition, associated_mcq, check_associated_axioms,
                  check_mcq_axioms, lambda_orbits, maximal_mcq_decomposition, pair_labeler)
from .quandle import (FiniteQuandle, InvalidTable, check_axioms, check_columns,
                      connected_components, find_isomorphism, type_of)
from .tmodule import UnsupportedPresentation, build, parse_ideal

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_AXIOMS = 3
EXIT_UNSUPPORTED = 4
EXIT_BROKEN_PIPE = 141

_QUANDLE_VERBS = ("axioms", "components", "maxdecomp", "iso", "assoc")


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


def _add_common_flags(sub):
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--unchecked", action="store_true",
                     help="skip axiom validation when loading files")


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _resolve_one(kind, value, args):
    if kind == "alexander":
        return alexander_quandle(build(parse_ideal(value))).quandle
    if kind == "dihedral":
        return dihedral(int(value)).quandle
    if kind == "table":
        return FiniteQuandle.from_json(_load_json(value), check=not args.unchecked)
    if kind == "symmetric":
        return symmetric_group(int(value))
    if kind == "cyclic":
        return cyclic_group(int(value))
    if kind == "group":
        return FiniteGroup.from_json(_load_json(value), check=not args.unchecked)
    if kind == "mcq":
        return MCQ.from_json(_load_json(value), check=not args.unchecked)
    raise AssertionError(kind)


def _resolve_sources(args, count=1):
    sources = list(getattr(args, "sources", ()) or ())
    if len(sources) != count:
        need = "exactly one source flag" if count == 1 else f"exactly {count} source flags"
        raise SystemExit2(f"this command needs {need}", EXIT_PARSE)
    out = []
    for kind, value in sources:
        obj = _resolve_one(kind, value, args)
        if isinstance(obj, FiniteGroup):
            if not args.conj:
                raise SystemExit2("group sources need --conj", EXIT_PARSE)
            obj = conj_quandle(obj)
        # only `axioms` may go on with broken columns: it reports the violation
        if args.unchecked and args.verb != "axioms":
            bad = check_columns(obj if isinstance(obj, FiniteQuandle) else FiniteQuandle(obj.op))
            if bad is not None:
                raise InvalidTable("right translations are not bijections "
                                   f"({bad.axiom} fails at {bad.witness})")
        out.append(obj)
    return out


def _alexander_module(args):
    """The module of a lone --alexander or --dihedral source, whose
    decomposition and type need no table, with or without --assoc; None for
    every other source."""
    sources = getattr(args, "sources", None) or ()
    if len(sources) != 1:
        return None
    kind, value = sources[0]
    if kind == "alexander":
        return build(parse_ideal(value))
    if kind == "dihedral":
        return build(dihedral_presentation(int(value)))
    return None


class SystemExit2(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _emit(args, payload, text_fn):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text_fn())


def _labeler(module, obj):
    """Element labels of the module's Alexander quandle, or of the quandle
    `obj` when there is no module.  Called for text output only, since
    listing a module's labels costs O(order)."""
    return module.labels().__getitem__ if module is not None else obj.label


def _blocks_text(label, blocks, header):
    lines = [header]
    for block in blocks:
        lines.append("  {" + ", ".join(label(i) for i in block) + "}")
    return "\n".join(lines)


def _cmd_axioms(args):
    obj = _resolve_sources(args)[0]
    if isinstance(obj, MCQ):
        bad = check_mcq_axioms(obj)
    elif args.assoc:
        bad = check_associated_axioms(obj)
    else:
        bad = check_axioms(obj)
    if bad is None:
        _emit(args, {"ok": True}, lambda: "ok")
        return EXIT_OK
    payload = {"ok": False, "axiom": bad.axiom, "witness": list(bad.witness)}
    _emit(args, payload, lambda: f"violation: {bad.axiom} at {bad.witness}")
    return EXIT_AXIOMS


def _cmd_components(args):
    # with --assoc, the index orbits of the associated structure are the
    # quandle's components (see mcq.associated_decomposition)
    module = _alexander_module(args)
    obj = None if module is not None else _resolve_sources(args)[0]
    if isinstance(obj, MCQ):
        part = lambda_orbits(obj)
    elif module is not None:
        part = alexander_decomposition(module).levels[1]
    else:
        part = connected_components(obj)
    if isinstance(obj, MCQ) or args.assoc:
        header = f"{len(part)} index orbit(s):"
        text = lambda: _blocks_text(str, part.blocks, header)
    else:
        header = f"{len(part)} connected component(s), sizes {list(part.sizes())}:"
        text = lambda: _blocks_text(_labeler(module, obj), part.blocks, header)
    _emit(args, {"blocks": part.to_json()}, text)
    return EXIT_OK


def _cmd_maxdecomp(args):
    module = _alexander_module(args)
    obj = None if module is not None else _resolve_sources(args)[0]
    if isinstance(obj, MCQ):
        return _emit_mcq_decomposition(args, maximal_mcq_decomposition(obj), lambda: obj.label)
    dec = alexander_decomposition(module) if module is not None else maximal_decomposition(obj)
    if args.assoc:
        m = module.t_order if module is not None else type_of(obj)
        return _emit_mcq_decomposition(args, associated_decomposition(dec, m),
                                       lambda: pair_labeler(_labeler(module, obj), m))

    def text():
        lines = [f"depth: {dec.depth}"]
        for k, level in enumerate(dec.levels):
            lines.append(f"level {k}: {len(level)} block(s), sizes {list(level.sizes())}")
        lines.append(_blocks_text(_labeler(module, obj), dec.final.blocks, "final blocks:"))
        return "\n".join(lines)

    _emit(args, dec.to_json(), text)
    return EXIT_OK


def _emit_mcq_decomposition(args, dec, labeler):
    """Print an MCQ decomposition; labeler() gives the carrier labels, and is
    called for text output only."""

    def text():
        lines = [f"depth: {dec.index_tree.depth}"]
        for k, level in enumerate(dec.index_tree.levels):
            lines.append(f"level {k}: {len(level)} index block(s), sizes {list(level.sizes())}")
        lines.append(_blocks_text(labeler(), dec.carrier_partition.blocks, "carrier blocks:"))
        return "\n".join(lines)

    _emit(args, dec.to_json(), text)
    return EXIT_OK


def _cmd_iso(args):
    q1, q2 = _resolve_sources(args, count=2)
    if args.assoc or isinstance(q1, MCQ) or isinstance(q2, MCQ):
        raise SystemExit2("iso compares quandles, not MCQs", EXIT_PARSE)
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
        "labels": module.labels(),
    }

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
    gens = []
    for chunk in args.generators.split(";"):
        if not chunk.strip():
            raise ParseError("expected a polynomial", 0)
        gens.append(parse_poly(chunk))
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
    obj = _resolve_sources(args)[0]
    x = obj if isinstance(obj, MCQ) else associated_mcq(obj)
    payload = x.to_json()

    def text():
        m = x.groups[0].size
        return (f"{x.group_count} group(s) of order {m}, carrier size {x.size}\n"
                f"carrier: " + ", ".join(x.label(i) for i in range(x.size)))

    _emit(args, payload, text)
    return EXIT_OK


def _cmd_verify(args):
    # imported here: every other verb would pay to load the reference code
    from .verify import DEFAULT_SEED, run_checks

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
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


def _short(value):
    text = repr(_jsonable(value))
    return text if len(text) <= 60 else text[:57] + "..."


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quandles",
        description="finite quandle and multiple conjugation quandle computations",
    )
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file of flag defaults (same keys as flags)")
    subs = parser.add_subparsers(dest="verb", required=True)
    all_subs = []

    for verb, fn in (("axioms", _cmd_axioms), ("components", _cmd_components),
                     ("maxdecomp", _cmd_maxdecomp), ("iso", _cmd_iso),
                     ("assoc", _cmd_assoc)):
        sub = subs.add_parser(verb)
        _add_source_flags(sub)
        _add_common_flags(sub)
        sub.set_defaults(fn=fn)
        all_subs.append(sub)

    sub = subs.add_parser("build", help="construct a finite quotient module")
    sub.add_argument("ideal", metavar="IDEAL", help="'n; p1; p2; ...'")
    _add_common_flags(sub)
    sub.set_defaults(fn=_cmd_build)
    all_subs.append(sub)

    sub = subs.add_parser("theory", help="symbolic component count and ideal")
    sub.add_argument("generators", metavar="GENS", help="'p1; p2; ...'")
    _add_common_flags(sub)
    sub.set_defaults(fn=_cmd_theory)
    all_subs.append(sub)

    sub = subs.add_parser("prop56", help="gcd chain decomposition of (n0; t+a)")
    sub.add_argument("n0", type=int)
    sub.add_argument("a", type=int)
    _add_common_flags(sub)
    sub.set_defaults(fn=_cmd_prop56)
    all_subs.append(sub)

    sub = subs.add_parser("verify", help="run the reproduction checks")
    sub.add_argument("--only", metavar="SUBSTR", default=None,
                     help="restrict to check groups containing this substring")
    sub.add_argument("--seed", type=int, default=None)
    _add_common_flags(sub)
    sub.set_defaults(fn=_cmd_verify)
    all_subs.append(sub)
    return parser, all_subs


def _config_defaults(path, parsers):
    """Flag defaults from a JSON config file, refused with SystemExit2 unless
    every key is the destination of a flag and every value is one that flag
    accepts: a boolean for a switch, one of its choices, or its type."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
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
    parser, all_subs = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            defaults = _config_defaults(args.config, [parser, *all_subs])
            # subparsers apply their own defaults, so push the overrides into each
            parser.set_defaults(**defaults)
            for sub in all_subs:
                sub.set_defaults(**defaults)
            args = parser.parse_args(argv)
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


if __name__ == "__main__":
    raise SystemExit(main())
