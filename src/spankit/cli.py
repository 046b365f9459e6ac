"""Command-line front end.

Subcommands
-----------
``enumerate``  index-shape and nerve tables (sigma, theta, path, nerve)
``compose``    compose spans or 2-morphisms given as JSON files
``verify``     run the property suites with per-check pass/fail output
``crw``        derived intersections, cohomology tables, worked examples

All output is deterministic for fixed inputs, seed, and bounds; rational
numbers are serialized as "p/q" strings.  Exit codes: 0 success, 1 a
property failed, 2 malformed or incompatible input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

# Each command imports the spankit modules it calls, so a cold run loads
# no other, and a usage error loads nothing beyond this module.


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors, so they
    exit 2 with a JSON error like any other malformed input."""

    def error(self, message):
        raise InputError("%s: %s" % (self.prog, message))


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _emit(args, text):
    if not text.endswith("\n"):
        text += "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload):
    _emit(args, json.dumps(payload, indent=2, sort_keys=True))


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise InputError("malformed JSON in %s: %s" % (path, exc))


def _check_keys(doc, allowed, what):
    """Reject a JSON object with a key outside the README format."""
    if not isinstance(doc, dict):
        raise InputError("%s must be an object" % what)
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise InputError("%s: unknown keys %r (expected %s)"
                         % (what, unknown, ", ".join(allowed)))


def _int(val, what):
    """A JSON integer (not a bool, float or string)."""
    if type(val) is not int:
        raise InputError("%s: expected an integer, got %r" % (what, val))
    return val


def _rat(s):
    from fractions import Fraction
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("bad rational %r: %s" % (s, exc))


def _poly_from_json(n_gens, obj):
    """{"e1,e2,...": "p/q"} -> exponent-tuple polynomial."""
    if not isinstance(obj, dict):
        raise InputError("polynomial must be an object, got %s"
                         % type(obj).__name__)
    out = {}
    for key, val in obj.items():
        parts = key.split(",")
        if not all(re.fullmatch("[0-9]+", p) for p in parts):
            raise InputError("bad monomial key %r: exponents must be "
                             "decimal digits" % key)
        mono = tuple(int(p) for p in parts)
        if len(mono) != n_gens:
            raise InputError("monomial %r does not fit %d generators"
                             % (key, n_gens))
        if isinstance(val, float):
            raise InputError("monomial %r: float coefficient %r; write an "
                             "integer or a \"p/q\" string" % (key, val))
        c = _rat(val)
        if c:
            out[mono] = c
    return out


def _poly_to_json(p):
    return {",".join(map(str, m)): str(c) for m, c in sorted(p.items())}


def _generators_from_json(items):
    from . import crw
    gens = []
    try:
        for it in items:
            _check_keys(it, ("name", "parity", "weight"), "generator")
            if not isinstance(it["name"], str):
                raise InputError("generator name must be a string, got %s"
                                 % type(it["name"]).__name__)
            gens.append(crw.Generator(
                it["name"], _int(it["parity"], "generator parity"),
                _int(it["weight"], "generator weight")))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad generator entry: %s" % exc)
    return gens


def _list(obj, key):
    if not isinstance(obj[key], list):
        raise InputError("%s: expected a list, got %s"
                         % (key, type(obj[key]).__name__))
    return tuple(obj[key])


def _span_from_json(obj):
    try:
        left_foot, apex, right_foot = (_list(obj, k) for k in
                                       ("left_foot", "apex", "right_foot"))
        left_map = tuple((a, obj["left_map"][a]) for a in apex)
        right_map = tuple((a, obj["right_map"][a]) for a in apex)
    except (KeyError, TypeError) as exc:
        raise InputError("bad span data: %s" % exc)
    from .spans import Span
    try:
        return Span(left_foot, apex, right_foot, left_map, right_map)
    except ValueError as exc:
        raise InputError("bad span data: %s" % exc)


def _elt(x):
    """Apex elements of composed spans are tuples; flatten for JSON."""
    return ",".join(map(str, x)) if isinstance(x, tuple) else x


def _span_to_json(s):
    return {"left_foot": [_elt(x) for x in s.left_foot],
            "apex": [_elt(a) for a in s.apex],
            "right_foot": [_elt(x) for x in s.right_foot],
            "left_map": {_elt(a): _elt(s.left(a)) for a in s.apex},
            "right_map": {_elt(a): _elt(s.right(a)) for a in s.apex}}


def _pair_key(t):
    return "%s|%s" % t


def _two_morphism_from_json(obj):
    try:
        src = _span_from_json(obj["span_source"])
        tgt = _span_from_json(obj["span_target"])
        dims = obj["dims"]
    except (KeyError, TypeError) as exc:
        raise InputError("bad 2-morphism data: %s" % exc)
    if not isinstance(dims, dict):
        raise InputError("dims: expected an object")
    bad = sorted(k for k, v in dims.items() if type(v) is not int)
    if bad:
        raise InputError("dims: expected integers at %r" % bad)
    from . import pushpull
    base = pushpull.intersection(src, tgt)
    missing = [t for t in base if _pair_key(t) not in dims]
    if missing:
        raise InputError("dims missing intersection points %r" % missing)
    stray = sorted(set(dims) - {_pair_key(t) for t in base})
    if stray:
        raise InputError("dims: %r name no intersection point" % stray)
    try:
        return pushpull.TwoMorphism.from_dims(
            src, tgt, lambda t: dims[_pair_key(t)])
    except (ValueError, TypeError) as exc:
        raise InputError("bad 2-morphism data: %s" % exc)


def _two_morphism_to_json(mm):
    return {"span_source": _span_to_json(mm.span_source),
            "span_target": _span_to_json(mm.span_target),
            "dims": {_pair_key(t): mm.payload.dim(t)
                     for t in mm.payload.base}}


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def cmd_enumerate(args):
    if args.level < 0:
        raise InputError("level must be non-negative")
    if args.level > args.bound:
        raise InputError("level %d exceeds bound %d (raise with --bound)"
                         % (args.level, args.bound))
    if args.kind == "sigma":
        from . import simplex
        p = simplex.build_sigma(args.level)
        rows = [{"offset": o.values[0], "length": o.source_size,
                 "bottom": bool(f)}
                for o, f in zip(p.objects, p.lambda_flags)]
        payload = {"kind": "sigma", "level": args.level,
                   "count": len(rows),
                   "bottom_count": sum(r["bottom"] for r in rows),
                   "objects": rows}
        csv_rows = [("offset", "length", "bottom")] + [
            (r["offset"], r["length"], int(r["bottom"])) for r in rows]
    elif args.kind == "theta":
        from . import simplex
        p = simplex.build_theta(args.level)
        rows = [{"subset": list(o), "bottom": bool(f)}
                for o, f in zip(p.objects, p.xi_flags)]
        payload = {"kind": "theta", "level": args.level,
                   "count": len(rows),
                   "bottom_count": sum(r["bottom"] for r in rows),
                   "objects": rows}
        csv_rows = [("subset", "bottom")] + [
            (" ".join(map(str, r["subset"])), int(r["bottom"]))
            for r in rows]
    elif args.kind == "path":
        from . import pathnerve
        cat = pathnerve.build_path(args.level)
        rows = []
        for i in range(args.level + 1):
            for j in range(i, args.level + 1):
                rows.append({"source": i, "target": j,
                             "hom_size": len(cat.hom(i, j))})
        payload = {"kind": "path", "level": args.level, "homs": rows}
        csv_rows = [("source", "target", "hom_size")] + [
            (r["source"], r["target"], r["hom_size"]) for r in rows]
    else:  # nerve
        from . import pathnerve
        table = pathnerve.nondegenerate_table(args.level, bound=args.bound)
        counts = {(u, v): len(cells) for (u, v), cells in table.items()}
        rows = [{"u": u, "v": v, "nondegenerate": c}
                for (u, v), c in sorted(counts.items())]
        payload = {"kind": "nerve", "level": args.level, "counts": rows}
        csv_rows = [("u", "v", "nondegenerate")] + [
            (r["u"], r["v"], r["nondegenerate"]) for r in rows]
    if args.format == "csv":
        _emit(args, "\n".join(",".join(map(str, row)) for row in csv_rows))
    else:
        _emit_json(args, payload)
    return 0


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------

def cmd_compose(args):
    docs = [_load_json(p) for p in args.files]
    try:
        return _compose_dispatch(args, docs)
    except ValueError as exc:
        raise InputError(str(exc))


def _compose_dispatch(args, docs):
    if args.kind == "span":
        if len(docs) != 2:
            raise InputError("span composition takes two files")
        from .spans import compose_spans
        s1, s2 = _span_from_json(docs[0]), _span_from_json(docs[1])
        if s1.right_foot != s2.left_foot:
            raise InputError("spans not composable: middle feet differ "
                             "(%r vs %r)" % (s1.right_foot, s2.left_foot))
        out = compose_spans(s1, s2)
        payload = {"kind": "span", "result": _span_to_json(out),
                   "witness": {"pullback_pairs": [list(a) for a in out.apex]}}
    elif args.kind == "vertical":
        if len(docs) != 2:
            raise InputError("vertical composition takes two files")
        mm = _two_morphism_from_json(docs[0])
        nn = _two_morphism_from_json(docs[1])
        if mm.span_target != nn.span_source:
            raise InputError("2-morphisms not composable: the target span "
                             "of the first differs from the source span of "
                             "the second")
        from . import pushpull
        out = pushpull.compose2_vertical(mm, nn)
        payload = {
            "kind": "vertical", "result": _two_morphism_to_json(out),
            "witness": {
                "first_intersection": [_pair_key(t)
                                       for t in mm.payload.base],
                "second_intersection": [_pair_key(t)
                                        for t in nn.payload.base],
                "formula": "pushforward along the outer intersection of "
                           "the tensor of the two pulled-back payloads"}}
    else:  # horizontal
        if len(docs) != 2:
            raise InputError("horizontal composition takes two files")
        mm = _two_morphism_from_json(docs[0])
        mp = _two_morphism_from_json(docs[1])
        if mm.span_source.right_foot != mp.span_source.left_foot:
            raise InputError("2-morphisms not composable side by side: "
                             "the feet in the middle differ")
        from . import pushpull
        out = pushpull.compose2_horizontal(mm, mp)
        payload = {
            "kind": "horizontal",
            "result": {"dims": {str(t): out.payload.dim(t)
                                for t in out.payload.base}},
            "witness": {
                "formula": "product dimensions on the image of the "
                           "pointwise pullback, zero elsewhere"}}
    _emit_json(args, payload)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args):
    from . import verify
    results = verify.run_suite(args.suite, seed=args.seed, bound=args.bound)
    failed = [r for r in results if not r[2]]
    if args.format == "csv":
        lines = ["suite,property,result"]
        for suite, prop, ok, _ in results:
            lines.append("%s,%s,%s" % (suite, prop.replace(",", ";"),
                                       "pass" if ok else "fail"))
        _emit(args, "\n".join(lines))
    else:
        payload = {"suite": args.suite, "seed": args.seed,
                   "bound": args.bound,
                   "checks": [{"suite": suite, "property": prop,
                               "result": "pass" if ok else "fail",
                               **({"counterexample": detail}
                                  if detail else {})}
                              for suite, prop, ok, detail in results],
                   "failures": len(failed)}
        _emit_json(args, payload)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# crw
# ---------------------------------------------------------------------------

def _algebra_from_json(doc):
    from . import crw
    _check_keys(doc, ("generators", "relations", "differential"),
                "presentation")
    try:
        gens = _generators_from_json(doc["generators"])
    except (KeyError, TypeError) as exc:
        raise InputError("presentation missing generators: %s" % exc)
    n = len(gens)
    relations = doc.get("relations", [])
    if not isinstance(relations, list):
        raise InputError("relations must be a list")
    differential = doc.get("differential", {})
    if not isinstance(differential, dict):
        raise InputError("differential must be an object")
    relations = [_poly_from_json(n, r) for r in relations]
    names = [g.name for g in gens]
    for name in differential:
        if name not in names:
            raise InputError("differential: unknown generator %r" % name)
    differential = {name: _poly_from_json(n, p)
                    for name, p in differential.items()}
    try:
        if relations:
            return crw.quotient_algebra(gens, relations, differential)
        return crw.GradedDGAlgebra(gens, differential=differential)
    except ValueError as exc:
        raise InputError(str(exc))


def _algebra_to_json(a):
    return {
        "generators": [{"name": g.name, "parity": g.parity,
                        "weight": g.weight} for g in a.gens],
        "power_rules": {name: {"power": k, "rewrite": _poly_to_json(p)}
                        for name, (k, p) in sorted(a.power_rules.items())},
        "differential": {name: _poly_to_json(p)
                         for name, p in sorted(a.differential.items()) if p},
    }


def cmd_crw(args):
    from . import crw
    if args.action == "intro":
        if args.n is None or args.n < 2:
            raise InputError("intro requires --n with n >= 2")
        _, algebra, report = crw.build_intro_algebras(args.n)
        payload = {"action": "intro", "n": args.n, "report": report,
                   "critical_locus_presentation": _algebra_to_json(algebra)}
    elif args.action == "cohomology":
        algebra = _algebra_from_json(_load_json(args.file))
        payload = {"action": "cohomology"}
    else:  # intersect
        doc = _load_json(args.file)
        _check_keys(doc, ("ambient", "eqs1", "eqs2"), "intersection input")
        try:
            ambient = _generators_from_json(doc["ambient"])
            n = len(ambient)
            eqs1 = [_poly_from_json(n, p) for p in doc.get("eqs1", [])]
            eqs2 = [_poly_from_json(n, p) for p in doc.get("eqs2", [])]
        except (KeyError, TypeError) as exc:
            raise InputError("bad intersection input: %s" % exc)
        try:
            algebra = crw.koszul_intersection(ambient, eqs1, eqs2)
        except ValueError as exc:
            raise InputError(str(exc))
        payload = {"action": "intersect",
                   "presentation": _algebra_to_json(algebra)}
    table = crw.cohomology(algebra, args.bound)
    if args.format == "csv":
        _emit(args, crw.cohomology_csv(table))
    else:
        payload["cohomology"] = [{"weight": w, "even_dim": e, "odd_dim": o}
                                 for (w, e, o) in table]
        _emit_json(args, payload)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(
        prog="spankit",
        description="exact-arithmetic span calculus and derived "
                    "intersection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="index-shape and nerve tables")
    p.add_argument("kind", choices=["sigma", "theta", "path", "nerve"])
    p.add_argument("level", type=int)
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("compose", help="compose spans or 2-morphisms")
    p.add_argument("--kind", choices=["span", "vertical", "horizontal"],
                   required=True)
    p.add_argument("files", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("suite", choices=["posets", "nerve", "spans",
                                     "pushpull", "crw", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=4)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    # one parser per crw action, so that its flags may stand before or
    # after its file
    p = sub.add_parser("crw", help="derived intersections and cohomology")
    actions = p.add_subparsers(dest="action", required=True)
    for action, help_text in (
            ("intersect", "Koszul model of a derived intersection"),
            ("cohomology", "cohomology of an algebra presentation"),
            ("intro", "the worked example and its report")):
        a = actions.add_parser(action, help=help_text)
        if action == "intro":
            a.add_argument("--n", type=int)
        else:
            a.add_argument("file")
        a.add_argument("--bound", type=int, default=6)
        a.add_argument("--format", choices=["json", "csv"], default="json")
        a.add_argument("--out")
        a.set_defaults(func=cmd_crw)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "bound", 0) < 0:
            raise InputError("--bound must be non-negative, got %d"
                             % args.bound)
        return args.func(args)
    except InputError as exc:
        json.dump({"error": str(exc)}, sys.stderr, indent=2, sort_keys=True)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
