"""The ``cli`` workload: cold ``python -m spankit.cli`` runs, one child
process at a time, on the README commands and on seeded JSON documents.

About one job in five is a seeded malformed document or an out-of-range
argument.  The CLI contract says such a job exits 2 with exactly one JSON
``{"error": ...}`` object on stderr; a job that exits otherwise, or prints
anything else on stderr (a warning, a traceback), fails.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

# SHA-256 of the byte-exact golden outputs of the README commands.
GOLDENS = [
    (["enumerate", "sigma", "3", "--format", "csv"],
     "94840f6f2e5c409e6e4d379b4aa83b8a631ad81dc7912c5f22d4dfe4e7ad7e22"),
    (["enumerate", "sigma", "3"],
     "2a007ca8f1b665b187024971369b7eded9de64c9bfc889707ee697ec67217abd"),
    (["enumerate", "theta", "2", "--format", "csv"],
     "95cfae9ecca1e738151a3f1fb7b9c340f82ddd3e6d76c5d55c7f2f1167d2588b"),
    (["enumerate", "path", "3", "--format", "csv"],
     "f3447c6ddf57571701b2daaa98c8805e41900ca674905bd19c064a32ac908fc1"),
    (["enumerate", "nerve", "2", "--format", "csv"],
     "0f1eef3d95593b6443e47654e8a0d7cfede034caebc3eaa18ca8e235b8065b90"),
    (["enumerate", "nerve", "2"],
     "cdc20a1f854770886eee08eecb87eaa618f005f79516db1a3182d504ad89d294"),
    (["crw", "intro", "--n", "2", "--format", "csv"],
     "53894f89826f3149bcc17d046f089e0683cd6b4aa2b3517d309880eec501f894"),
    (["crw", "intro", "--n", "3", "--format", "csv"],
     "d04dca72f82b4141a80def10c3c105c676bb86663634c249be82aeac69eb8dda"),
]

VERIFY_SUITES = ("posets", "spans", "pushpull", "crw")

# Out-of-range arguments the CLI must reject with exit 2.
BAD_ARGS = [
    ["enumerate", "sigma", "9", "--bound", "3"],
    ["enumerate", "nerve", "-1"],
    ["crw", "intro", "--n", "1"],
]

# Per pass: 20 well-formed jobs and 5 malformed ones.
COMPOSE_SPAN, COMPOSE_VERTICAL, COMPOSE_HORIZONTAL = 3, 2, 1
CRW_INTERSECT, CRW_COHOMOLOGY = 1, 1
MALFORMED = 5


class CliJob:
    """One CLI call: argv after ``-m spankit.cli``, the input documents to
    write first, and a check of (exit code, stdout, stderr)."""

    __slots__ = ("name", "spec", "argv", "docs", "check", "expect_exit2")

    def __init__(self, name, spec, argv, docs, check, expect_exit2=False):
        self.name, self.spec, self.argv, self.docs = name, spec, argv, docs
        self.check, self.expect_exit2 = check, expect_exit2


# ---------------------------------------------------------------------------
# seeded documents and their oracles
# ---------------------------------------------------------------------------

def _span_doc(rng, prefix, left_foot, right_foot, size):
    apex = ["%s%d" % (prefix, i) for i in range(size)]
    return {"left_foot": left_foot, "apex": apex, "right_foot": right_foot,
            "left_map": {a: rng.choice(left_foot) for a in apex},
            "right_map": {a: rng.choice(right_foot) for a in apex}}


def _feet(rng, name):
    return ["%s%d" % (name, i) for i in range(rng.randrange(1, 4))]


def _compose_span(rng, spec):
    x, y, z = _feet(rng, "x"), _feet(rng, "y"), _feet(rng, "z")
    s1 = _span_doc(rng, "a", x, y, rng.randrange(2, 7))
    s2 = _span_doc(rng, "b", y, z, rng.randrange(2, 7))
    want = sum(1 for a in s1["apex"] for b in s2["apex"]
               if s1["right_map"][a] == s2["left_map"][b])

    def check(out):
        got = len(out["result"]["apex"])
        return got == want, got, "apex %d, pullback count %d" % (got, want)
    return CliJob("compose span", spec,
                  ["compose", "--kind", "span", "s1.json", "s2.json"],
                  {"s1.json": s1, "s2.json": s2}, _json_check(check))


def _two_morphism_doc(rng, src, tgt):
    dims = {}
    for a in src["apex"]:
        for b in tgt["apex"]:
            if (src["left_map"][a] == tgt["left_map"][b]
                    and src["right_map"][a] == tgt["right_map"][b]):
                dims["%s|%s" % (a, b)] = rng.randrange(0, 4)
    return {"span_source": src, "span_target": tgt, "dims": dims}


def _compose_vertical(rng, spec):
    pt = ["*"]
    l, m, n = (_span_doc(rng, c, pt, pt, rng.randrange(1, 5)) for c in "lmn")
    mm, nn = _two_morphism_doc(rng, l, m), _two_morphism_doc(rng, m, n)
    want = {"%s|%s" % (a, c): sum(mm["dims"]["%s|%s" % (a, b)]
                                  * nn["dims"]["%s|%s" % (b, c)]
                                  for b in m["apex"])
            for a in l["apex"] for c in n["apex"]}

    def check(out):
        got = out["result"]["dims"]
        return (got == want, sum(got.values()),
                "dimensions differ from the matrix product")
    return CliJob("compose vertical", spec,
                  ["compose", "--kind", "vertical", "m1.json", "m2.json"],
                  {"m1.json": mm, "m2.json": nn}, _json_check(check))


def _compose_horizontal(rng, spec):
    x, y, z = _feet(rng, "x"), _feet(rng, "y"), _feet(rng, "z")
    l, m = (_span_doc(rng, c, x, y, rng.randrange(1, 4)) for c in "lm")
    lp, mp = (_span_doc(rng, c, y, z, rng.randrange(1, 4)) for c in "pq")
    mm, mq = _two_morphism_doc(rng, l, m), _two_morphism_doc(rng, lp, mp)
    points, total = 0, 0
    for a, ap, b, bp in itertools.product(l["apex"], lp["apex"], m["apex"],
                                          mp["apex"]):
        if (l["right_map"][a] == lp["left_map"][ap]
                and m["right_map"][b] == mp["left_map"][bp]
                and l["left_map"][a] == m["left_map"][b]
                and lp["right_map"][ap] == mp["right_map"][bp]):
            points += 1
            if (l["right_map"][a] == m["right_map"][b]
                    and lp["left_map"][ap] == mp["left_map"][bp]):
                total += (mm["dims"]["%s|%s" % (a, b)]
                          * mq["dims"]["%s|%s" % (ap, bp)])

    def check(out):
        got = out["result"]["dims"]
        ok = len(got) == points and sum(got.values()) == total
        return ok, sum(got.values()), "%d points of total dimension %d, " \
            "direct count %d and %d" % (len(got), sum(got.values()), points,
                                        total)
    return CliJob("compose horizontal", spec,
                  ["compose", "--kind", "horizontal", "h1.json", "h2.json"],
                  {"h1.json": mm, "h2.json": mq}, _json_check(check))


def _poly_doc(rng, nvars, degree):
    monos = [m for m in itertools.product(range(degree + 1), repeat=nvars)
             if sum(m) == degree]
    return {",".join(map(str, m)): str(Fraction(rng.randint(-3, 3) or 1,
                                                rng.randint(1, 2)))
            for m in rng.sample(monos, max(1, len(monos) // 2))}


def _chain_euler(nvars, odd_weights, w):
    """Sum of (-1)^parity over the monomials of weight w in nvars even
    generators of weight 1 and exterior odd generators of the given
    weights: the Euler characteristic the cohomology must have."""
    total = 0
    for k in range(len(odd_weights) + 1):
        for subset in itertools.combinations(odd_weights, k):
            rest = w - sum(subset)
            if rest >= 0:
                total += (-1) ** k * math.comb(rest + nvars - 1, nvars - 1)
    return total


def _euler_check(nvars, odd_weights):
    def check(out):
        rows = out["cohomology"]
        for r in rows:
            want = _chain_euler(nvars, odd_weights, r["weight"])
            if r["even_dim"] - r["odd_dim"] != want:
                return False, len(rows), "Euler characteristic at weight " \
                    "%d is %d, chains give %d" % (
                        r["weight"], r["even_dim"] - r["odd_dim"], want)
        return True, sum(r["even_dim"] + r["odd_dim"] for r in rows), None
    return _json_check(check)


def _crw_intersect(rng, spec):
    nvars = rng.choice((2, 3))
    degrees = [rng.choice((1, 2)) for _ in range(rng.choice((1, 2)))]
    doc = {"ambient": [{"name": "x%d" % i, "parity": 0, "weight": 1}
                       for i in range(nvars)],
           "eqs1": [],
           "eqs2": [_poly_doc(rng, nvars, d) for d in degrees]}
    return CliJob("crw intersect", spec,
                  ["crw", "intersect", "in.json", "--bound", "5"],
                  {"in.json": doc}, _euler_check(nvars, degrees))


def _crw_cohomology(rng, spec):
    nvars, degree = rng.choice((2, 3)), rng.choice((2, 3))
    gens = [{"name": "x%d" % i, "parity": 0, "weight": 1}
            for i in range(nvars)]
    gens.append({"name": "eps", "parity": 1, "weight": degree})
    differential = {"eps": {k + ",0": v for k, v in
                            _poly_doc(rng, nvars, degree).items()}}
    doc = {"generators": gens, "relations": [], "differential": differential}
    return CliJob("crw cohomology", spec,
                  ["crw", "cohomology", "alg.json", "--bound", "5"],
                  {"alg.json": doc}, _euler_check(nvars, [degree]))


def _verify(rng, spec, suite):
    def check(out):
        return out["failures"] == 0, len(out["checks"]), \
            "%d properties failed" % out["failures"]
    return CliJob("verify %s" % suite, spec,
                  ["verify", suite, "--seed", str(rng.randrange(1000)),
                   "--bound", "3"], {}, _json_check(check))


def _golden(argv, digest, spec):
    def check(code, stdout, stderr):
        got = hashlib.sha256(stdout).hexdigest()
        return _exit0(code, stderr) or (
            got == digest, len(stdout), "stdout differs from the golden")
    return CliJob(" ".join(argv[:2]), spec, argv, {}, check)


# ---------------------------------------------------------------------------
# malformed inputs
# ---------------------------------------------------------------------------

def _first(mapping):
    return sorted(mapping)[0]


def _span_mutations(doc):
    a = doc["apex"][0]
    return [
        lambda: doc.pop("left_map"),
        lambda: doc.pop("apex"),
        lambda: doc["left_map"].__setitem__(a, "nowhere"),
        lambda: doc.__setitem__("left_foot", 7),
    ]


def _mutations(doc):
    """Edits that each make a valid document invalid by the README
    format, for the four document kinds the CLI reads."""
    if "apex" in doc:
        return _span_mutations(doc)
    if "span_source" in doc:
        dims = doc["dims"]
        return [
            lambda: doc.pop("dims"),
            lambda: (dims.__setitem__(_first(dims), "x") if dims
                     else doc.pop("dims")),
            lambda: doc.__setitem__("span_source", []),
        ] + _span_mutations(doc["span_target"])
    if "ambient" in doc:
        eq = doc["eqs2"][0]
        return [
            lambda: doc.pop("ambient"),
            lambda: doc["ambient"][0].__setitem__("parity", 5),
            lambda: eq.__setitem__(_first(eq), "1/0"),
            lambda: eq.__setitem__("9,9,9,9,9", "1"),
            lambda: doc.__setitem__("eqs2", ["x"]),
            lambda: doc.__setitem__("ambient", 3),
        ]
    return [
        lambda: doc.pop("generators"),
        lambda: doc["differential"].__setitem__("eps", "abc"),
        lambda: doc["generators"][0].__setitem__("weight", -1),
        lambda: doc.__setitem__("relations", [5]),
    ]


def _mutate(rng, doc):
    """A seeded invalid variant of a JSON document."""
    doc = json.loads(json.dumps(doc))
    rng.choice(_mutations(doc))()
    return doc


def _malformed(rng, spec, valid):
    kind = rng.randrange(5)
    if kind == 0:
        argv = list(rng.choice(BAD_ARGS))
        docs = {}
    else:
        job = valid[rng.randrange(len(valid))]
        argv = list(job.argv)
        docs = {}
        names = sorted(job.docs)
        target = rng.choice(names)
        for name in names:
            docs[name] = job.docs[name]
        if kind == 1:
            text = json.dumps(docs[target])
            docs[target] = text[:rng.randrange(1, len(text))]
        else:
            docs[target] = _mutate(rng, docs[target])
    return CliJob("malformed " + " ".join(argv[:2]), spec, argv, docs,
                  _exit2_check, expect_exit2=True)


# ---------------------------------------------------------------------------
# checks of the exit-code contract
# ---------------------------------------------------------------------------

def _exit0(code, stderr):
    """None if the job exited 0, else a failed check result."""
    if code == 0:
        return None
    return False, 0, "exit %d: %s" % (code, stderr.decode(
        errors="replace").strip()[-200:])


def _json_check(check_payload):
    def check(code, stdout, stderr):
        bad = _exit0(code, stderr)
        if bad:
            return bad
        try:
            payload = json.loads(stdout)
        except ValueError:
            return False, 0, "stdout is not JSON"
        return check_payload(payload)
    return check


def stderr_is_json_error(stderr):
    """True when stderr holds exactly one JSON object with an "error"."""
    try:
        obj = json.loads(stderr.decode())
    except ValueError:
        return False
    return isinstance(obj, dict) and "error" in obj


def _exit2_check(code, stdout, stderr):
    if code != 2:
        return False, 0, "exit %d instead of 2" % code
    if not stderr_is_json_error(stderr):
        return False, 0, "stderr is not exactly one JSON error object: " \
            + stderr.decode(errors="replace").strip()[:200]
    return True, 1, None


# ---------------------------------------------------------------------------
# the job list and one job's run
# ---------------------------------------------------------------------------

def _spec(rng, name, **params):
    return {"name": name, "params": params, "seed": rng.getrandbits(48)}


def build(seed):
    """The seeded job list of the cli workload, in a seeded order."""
    rng = random.Random("cli/%d" % seed)
    jobs = [_golden(argv, digest, _spec(rng, "golden", argv=argv))
            for argv, digest in GOLDENS]
    makers = ([_compose_span] * COMPOSE_SPAN
              + [_compose_vertical] * COMPOSE_VERTICAL
              + [_compose_horizontal] * COMPOSE_HORIZONTAL
              + [_crw_intersect] * CRW_INTERSECT
              + [_crw_cohomology] * CRW_COHOMOLOGY)
    seeded = []
    for i, make in enumerate(makers):
        spec = _spec(rng, make.__name__.lstrip("_"), index=i)
        seeded.append(make(random.Random(spec["seed"]), spec))
    for suite in VERIFY_SUITES:
        spec = _spec(rng, "verify", suite=suite)
        seeded.append(_verify(random.Random(spec["seed"]), spec, suite))
    jobs += seeded
    for i in range(MALFORMED):
        spec = _spec(rng, "malformed", index=i)
        jobs.append(_malformed(random.Random(spec["seed"]), spec,
                               [j for j in seeded if j.docs]))
    rng.shuffle(jobs)
    return jobs


def write_inputs(jobs, workdir):
    """Write every job's documents under ``workdir/<job index>/``."""
    for i, job in enumerate(jobs):
        jobdir = os.path.join(workdir, str(i))
        os.makedirs(jobdir, exist_ok=True)
        for name, doc in job.docs.items():
            with open(os.path.join(jobdir, name), "w") as fh:
                fh.write(doc if isinstance(doc, str) else json.dumps(doc))


def run(job, jobdir, env, timeout):
    """Run one CLI job to completion; returns (code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "spankit.cli", *job.argv],
                          cwd=jobdir, env=env, capture_output=True,
                          timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr
