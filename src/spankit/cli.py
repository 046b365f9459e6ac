"""Command-line front end.

Subcommands
-----------
``enumerate``  index-shape and nerve tables (sigma, theta, path, nerve)
``compose``    compose spans or 2-morphisms given as JSON files
``verify``     run the property suites with per-check pass/fail output
``crw``        derived intersections, cohomology tables, worked examples

Each handler builds its command's document once, and ``_write`` alone
turns it into text: the JSON document, or with ``--format csv`` one row
list of it.  All output is deterministic for fixed inputs, seed, and
bounds; rational numbers are serialized as "p/q" strings.  Exit codes:
0 success, 1 a property failed, 2 malformed or incompatible input.
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
# the writer and the JSON codec
# ---------------------------------------------------------------------------

def _cell(value):
    """One CSV cell of a JSON value: a flag as 0 or 1, a list joined with
    spaces, and a comma in text as ';'."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, list):
        return " ".join(map(_cell, value))
    return str(value).replace(",", ";")


def _write(args, doc, rows=None, columns=()):
    """Write a command's document to stdout or --out: as JSON, or with
    --format csv as the list doc[rows], one line per row, a header of
    columns and one cell per row key in columns."""
    if getattr(args, "format", "json") == "csv":
        lines = [columns] + [[_cell(row[c]) for c in columns]
                             for row in doc[rows]]
        text = "".join(",".join(line) + "\n" for line in lines)
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError("cannot write %s: %s" % (args.out, exc))
    else:
        sys.stdout.write(text)


# The README formats.  A schema is a JSON leaf (str, int, or a tuple of
# them; an int is never a bool), a one-element list (a list of that
# schema), {"*": s} (an object whose values fit s), or a record {key: s}
# in which a key ending in "?" is optional.  Feet elements and the values
# of the legs are strings or integers; apex elements are strings, because
# they key the legs.
_LABEL = (str, int)
_SPAN = {"left_foot": [_LABEL], "apex": [str], "right_foot": [_LABEL],
         "left_map": {"*": _LABEL}, "right_map": {"*": _LABEL}}
_GENERATORS = [{"name": str, "parity": int, "weight": int}]
_POLY = {"*": (int, str)}   # comma-joined exponents -> integer or "p/q"
SCHEMAS = {
    "span": _SPAN,
    "2-morphism": {"span_source": _SPAN, "span_target": _SPAN,
                   "dims": {"*": int}},
    "presentation": {"generators": _GENERATORS, "relations?": [_POLY],
                     "differential?": {"*": _POLY}},
    "intersection input": {"ambient": _GENERATORS, "eqs1?": [_POLY],
                           "eqs2?": [_POLY]},
}
_NAMES = {str: "a string", int: "an integer"}


def _check(schema, doc, path):
    """Raise an InputError naming the JSON path of the first part of doc
    that does not fit schema."""
    if isinstance(schema, list):
        if type(doc) is not list:
            raise InputError("%s: expected a list" % path)
        for i, item in enumerate(doc):
            _check(schema[0], item, "%s[%d]" % (path, i))
    elif isinstance(schema, dict):
        if type(doc) is not dict:
            raise InputError("%s: expected an object" % path)
        if "*" in schema:
            for key, item in doc.items():
                _check(schema["*"], item, "%s[%s]" % (path, json.dumps(key)))
            return
        unknown = sorted(set(doc) - {key.rstrip("?") for key in schema})
        if unknown:
            raise InputError("%s: unknown keys %r" % (path, unknown))
        for key, sub in schema.items():
            name = key.rstrip("?")
            if name in doc:
                _check(sub, doc[name], "%s.%s" % (path, name))
            elif name == key:
                raise InputError("%s: missing key %r" % (path, name))
    else:
        leaves = schema if isinstance(schema, tuple) else (schema,)
        if type(doc) not in leaves:
            raise InputError("%s: expected %s" % (
                path, " or ".join(_NAMES[t] for t in leaves)))


def _load_json(path, kind):
    """The document in the file at path, checked against SCHEMAS[kind]."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal longer than int() reads
        raise InputError("malformed JSON in %s: %s" % (path, exc))
    _check(SCHEMAS[kind], doc, kind)
    return doc


def _rat(s):
    from fractions import Fraction
    try:
        # Fraction("1e999999999") builds 10^999999999 in full; 4300 is
        # Python's default digit limit of int <-> str conversion
        exp = re.search(r"e([-+]?\d+(_\d+)*)\s*\Z", str(s), re.I)
        if exp and abs(int(exp.group(1))) > 4300:
            raise ValueError("decimal exponent beyond +-4300")
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("bad rational %r: %s" % (s, exc))


def _poly_from_json(n_gens, obj):
    """{"e1,e2,...": "p/q"} -> exponent-tuple polynomial."""
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
        c = _rat(val)
        if c:
            out[mono] = c
    return out


def _poly_to_json(p):
    return {",".join(map(str, m)): str(c) for m, c in sorted(p.items())}


def _generators_from_json(items):
    from . import crw
    return [crw.Generator(g["name"], g["parity"], g["weight"]) for g in items]


def _span_from_json(obj, path):
    for leg in ("left_map", "right_map"):
        if set(obj[leg]) != set(obj["apex"]):
            raise InputError("%s.%s: keys %r are not the apex %r" % (
                path, leg, sorted(obj[leg]), sorted(set(obj["apex"]))))
    from .spans import Span
    try:
        return Span(tuple(obj["left_foot"]), tuple(obj["apex"]),
                    tuple(obj["right_foot"]),
                    tuple((a, obj["left_map"][a]) for a in obj["apex"]),
                    tuple((a, obj["right_map"][a]) for a in obj["apex"]))
    except ValueError as exc:
        raise InputError("%s: %s" % (path, exc)) from None


def _elt(x):
    """Apex elements of composed spans are tuples; flatten for JSON."""
    return ",".join(map(str, x)) if isinstance(x, tuple) else x


def _names(points, name, what):
    """[name(p) for p in points], for distinct points.  Raises an
    InputError naming two points that name writes alike, since a
    document would merge them."""
    seen = {}
    for p in points:
        first = seen.setdefault(name(p), p)
        if first != p:
            raise InputError("%s %r and %r are both written %r"
                             % (what, first, p, name(p)))
    return list(seen)


def _span_to_json(s):
    return {"left_foot": [_elt(x) for x in s.left_foot],
            "apex": _names(s.apex, _elt, "apex points"),
            "right_foot": [_elt(x) for x in s.right_foot],
            "left_map": {_elt(a): _elt(s.left(a)) for a in s.apex},
            "right_map": {_elt(a): _elt(s.right(a)) for a in s.apex}}


def _pair_key(t):
    return "%s|%s" % t


def _two_morphism_from_json(obj):
    src, tgt = (_span_from_json(obj[k], "2-morphism." + k)
                for k in ("span_source", "span_target"))
    dims = obj["dims"]
    from . import pushpull
    base = pushpull.intersection(src, tgt)
    keys = _names(base, _pair_key, "2-morphism.dims: intersection points")
    missing = [t for t, key in zip(base, keys) if key not in dims]
    if missing:
        raise InputError("2-morphism.dims: missing intersection points %r"
                         % missing)
    stray = sorted(set(dims) - set(keys))
    if stray:
        raise InputError("2-morphism.dims: %r name no intersection point"
                         % stray)
    return pushpull.TwoMorphism.from_dims(src, tgt,
                                          lambda t: dims[_pair_key(t)])


def _two_morphism_to_json(mm):
    base = mm.payload.base
    keys = _names(base, _pair_key, "intersection points")
    return {"span_source": _span_to_json(mm.span_source),
            "span_target": _span_to_json(mm.span_target),
            "dims": {key: mm.payload.dim(t) for key, t in zip(keys, base)}}


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
        key, columns = "objects", ("offset", "length", "bottom")
    elif args.kind == "theta":
        from . import simplex
        p = simplex.build_theta(args.level)
        rows = [{"subset": list(o), "bottom": bool(f)}
                for o, f in zip(p.objects, p.xi_flags)]
        key, columns = "objects", ("subset", "bottom")
    elif args.kind == "path":
        # hom(i, j) holds the subsets of the j - i - 1 points inside
        rows = [{"source": i, "target": j,
                 "hom_size": 1 if i == j else 2 ** (j - i - 1)}
                for i in range(args.level + 1)
                for j in range(i, args.level + 1)]
        key, columns = "homs", ("source", "target", "hom_size")
    else:  # nerve
        from . import pathnerve
        rows = [{"u": u, "v": v, "nondegenerate":
                 pathnerve.count_nondegenerate(args.level, u, v)}
                for u in range(args.bound + 1)
                for v in range(args.bound + 1 - u)]
        key, columns = "counts", ("u", "v", "nondegenerate")
    doc = {"kind": args.kind, "level": args.level, key: rows}
    if key == "objects":
        doc.update(count=len(rows),
                   bottom_count=sum(r["bottom"] for r in rows))
    _write(args, doc, key, columns)
    return 0


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------

def cmd_compose(args):
    kind = "span" if args.kind == "span" else "2-morphism"
    first, second = (_load_json(p, kind) for p in args.files)
    try:
        if args.kind == "span":
            from .spans import compose_spans
            out = compose_spans(_span_from_json(first, kind),
                                _span_from_json(second, kind))
            doc = {"kind": "span", "result": _span_to_json(out),
                   "witness": {"pullback_pairs": [list(a)
                                                  for a in out.apex]}}
        elif args.kind == "vertical":
            mm = _two_morphism_from_json(first)
            nn = _two_morphism_from_json(second)
            from . import pushpull
            out = pushpull.compose2_vertical(mm, nn)
            doc = {
                "kind": "vertical", "result": _two_morphism_to_json(out),
                "witness": {
                    "first_intersection": [_pair_key(t)
                                           for t in mm.payload.base],
                    "second_intersection": [_pair_key(t)
                                            for t in nn.payload.base],
                    "formula": "pushforward along the outer intersection of "
                               "the tensor of the two pulled-back payloads"}}
        else:  # horizontal
            mm = _two_morphism_from_json(first)
            mp = _two_morphism_from_json(second)
            from . import pushpull
            out = pushpull.compose2_horizontal(mm, mp)
            doc = {
                "kind": "horizontal",
                "result": {"dims": {str(t): out.payload.dim(t)
                                    for t in out.payload.base}},
                "witness": {
                    "formula": "product dimensions on the image of the "
                               "pointwise pullback, zero elsewhere"}}
    except ValueError as exc:
        raise InputError(str(exc))
    _write(args, doc)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args):
    from . import verify
    results = verify.run_suite(args.suite, seed=args.seed, bound=args.bound)
    checks = [{"suite": suite, "property": prop,
               "result": "pass" if ok else "fail",
               **({"counterexample": detail} if detail else {})}
              for suite, prop, ok, detail in results]
    failures = sum(c["result"] == "fail" for c in checks)
    doc = {"suite": args.suite, "seed": args.seed, "bound": args.bound,
           "checks": checks, "failures": failures}
    _write(args, doc, "checks", ("suite", "property", "result"))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# crw
# ---------------------------------------------------------------------------

def _algebra_from_json(doc):
    from . import crw
    gens = _generators_from_json(doc["generators"])
    names = [g.name for g in gens]
    relations = [_poly_from_json(len(gens), r)
                 for r in doc.get("relations", [])]
    differential = {}
    for name, p in doc.get("differential", {}).items():
        if name not in names:
            raise InputError("differential: unknown generator %r" % name)
        differential[name] = _poly_from_json(len(gens), p)
    return crw.quotient_algebra(gens, relations, differential)


def _generators_to_json(gens):
    return [{"name": g.name, "parity": g.parity, "weight": g.weight}
            for g in gens]


def _algebra_to_json(a):
    """An algebra with exponent keys: the first rule led by a pure power
    of each generator under power_rules, the other rules under rules."""
    from . import crw
    power, other = {}, []
    for lead, rhs in a.rules:
        i = crw._power_of(lead)
        if i is None or a.names[i] in power:
            other.append({"lead": ",".join(map(str, lead)),
                          "rewrite": _poly_to_json(rhs)})
        else:
            power[a.names[i]] = {"power": lead[i],
                                 "rewrite": _poly_to_json(rhs)}
    out = {"generators": _generators_to_json(a.gens), "power_rules": power,
           "differential": {name: _poly_to_json(p)
                            for name, p in a.differential.items() if p}}
    if other:
        out["rules"] = other
    return out


def _algebra_to_text(a):
    """An algebra as text: each rule as lead and rewrites_to, and every
    generator's differential, 0 included."""
    from . import crw
    return {"generators": _generators_to_json(a.gens),
            "relations": [{"lead": crw.poly_str(a.gens, {lead: 1}),
                           "rewrites_to": crw.poly_str(a.gens, rhs)}
                          for lead, rhs in a.rules],
            "differential": {name: crw.poly_str(a.gens, p)
                             for name, p in a.differential.items()}}


def cmd_crw(args):
    from . import crw
    if args.action == "intro":
        if args.n is None or args.n < 2:
            raise InputError("intro requires --n with n >= 2")
        _, algebra, report = crw.build_intro_algebras(args.n)
        report["B"] = _algebra_to_text(algebra)
        doc = {"action": "intro", "n": args.n, "report": report,
               "critical_locus_presentation": _algebra_to_json(algebra)}
    else:
        given = _load_json(args.file, "presentation" if args.action ==
                           "cohomology" else "intersection input")
        try:
            if args.action == "cohomology":
                algebra = _algebra_from_json(given)
                doc = {"action": "cohomology"}
            else:
                ambient = _generators_from_json(given["ambient"])
                eqs1, eqs2 = ([_poly_from_json(len(ambient), p)
                               for p in given.get(k, [])]
                              for k in ("eqs1", "eqs2"))
                algebra = crw.koszul_intersection(ambient, eqs1, eqs2)
                doc = {"action": "intersect",
                       "presentation": _algebra_to_json(algebra)}
        except ValueError as exc:
            raise InputError(str(exc))
    table = crw.cohomology(algebra, args.bound)
    doc["cohomology"] = [{"weight": w, "even_dim": e, "odd_dim": o}
                         for (w, e, o) in table]
    _write(args, doc, "cohomology", ("weight", "even_dim", "odd_dim"))
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
    p.add_argument("files", nargs=2)
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
