"""Mutation fuzz of the CLI contract, in process: ``cli.main`` on mutated
documents of the four README kinds, and on bad argv with small bounds,
exits 0 or 2, and an exit 2 leaves stdout empty and puts exactly one
``{"error": ...}`` object on stderr."""

import copy
import json
import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

GOLDEN = pathlib.Path(__file__).parent / "golden"

# argv before the files, and the valid documents that argv takes
COMMANDS = [
    (["compose", "--kind", "span"], ["compose_s1.json", "compose_s2.json"]),
    (["compose", "--kind", "vertical"], ["compose_m.json", "compose_m.json"]),
    (["compose", "--kind", "horizontal"],
     ["compose_h1.json", "compose_h2.json"]),
    (["crw", "cohomology", "--bound", "3"], ["crw_algebra.json"]),
    (["crw", "intersect", "--bound", "3"], ["crw_intersect_dependent.json"]),
]
DOCS = {name: json.loads((GOLDEN / name).read_text())
        for _, names in COMMANDS for name in names}

# values of every JSON type, to put in place of a value of another type
VALUES = [None, True, 0, 7, -1, 1.5, "", "zz", "1/0", [], [1], ["a"], {},
          {"zz": 1}]
# keys that no object of any README format may hold: not a field, an apex
# element, an intersection point, a monomial or a generator name
STRAY_KEYS = ["zz", "note"]

FUZZ = settings(derandomize=True, max_examples=150, deadline=None,
                database=None)


def _nodes(doc, path=()):
    """Every (path, value) in a JSON document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, doc):
    """doc after one to three edits: a dropped key or element, a stray
    key, a value swapped for one of another type, or a non-string apex
    element."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["drop", "stray", "swap", "apex"]))
        nodes = [(path, node) for path, node in _nodes(doc) if {
            "drop": isinstance(node, (dict, list)) and node,
            "stray": isinstance(node, dict),
            "swap": path,
            "apex": path[-1:] == ("apex",) and isinstance(node, list)
            and node}[edit]]
        if not nodes:
            continue
        path, node = draw(st.sampled_from(nodes))
        if edit == "drop":
            del node[draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))]
        elif edit == "stray":
            node[draw(st.sampled_from(STRAY_KEYS))] = draw(
                st.sampled_from(VALUES))
        elif edit == "swap":
            _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(
                [v for v in VALUES if type(v) is not type(node)]))
        else:
            node[draw(st.integers(0, len(node) - 1))] = draw(
                st.sampled_from([1, 1.5, None, True, ["a"], {"a": 1}]))
    return doc


def is_invalid(doc):
    """True when doc holds a stray key or a non-string apex element."""
    return any(isinstance(node, dict) and set(node) & set(STRAY_KEYS)
               or path[-1:] == ("apex",) and isinstance(node, list)
               and any(type(a) is not str for a in node)
               for path, node in _nodes(doc))


def assert_contract(run_cli, argv, invalid=False):
    code, out, err = run_cli(*argv)
    assert code in ((2,) if invalid else (0, 2)), (argv, code, err)
    if code == 2:
        assert out == "", argv
        assert list(json.loads(err)) == ["error"], (argv, err)
    else:
        assert err == "", (argv, err)


@st.composite
def document_jobs(draw):
    """(argv prefix, documents, whether they are a wrong number of files)
    with one document mutated."""
    prefix, names = draw(st.sampled_from(COMMANDS))
    docs = [DOCS[name] for name in names]
    i = draw(st.integers(0, len(docs) - 1))
    docs[i] = draw(mutated(docs[i]))
    count = draw(st.sampled_from([len(docs)] * 3 + [0, 1, 2, 3]))
    return prefix, (docs * 3)[:count], count != len(docs)


@FUZZ
@given(document_jobs())
def test_mutated_documents_keep_the_contract(run_cli, job):
    # a stray key, a non-string apex element or a wrong file count must
    # exit 2; any other edit may leave a valid document
    prefix, docs, wrong_count = job
    with tempfile.TemporaryDirectory() as work:
        files = []
        for i, doc in enumerate(docs):
            files.append(str(pathlib.Path(work, "%d.json" % i)))
            pathlib.Path(files[-1]).write_text(json.dumps(doc))
        assert_contract(run_cli, prefix + files,
                        wrong_count or any(map(is_invalid, docs)))


@st.composite
def bad_argv(draw):
    """A command with a level, flags and extra words drawn around the
    valid ones; a verify suite always gets a bound of at most 1."""
    head = draw(st.sampled_from(
        [["enumerate", k] for k in ("sigma", "theta", "path", "nerve")]
        + [["verify", s] for s in ("posets", "nerve", "spans", "pushpull",
                                   "crw", "nonsense")]
        + [["crw", "intro"], ["crw"], ["compose"], []]))
    argv = list(head)
    if head[:1] == ["enumerate"]:
        argv += draw(st.lists(st.sampled_from(["-1", "0", "2", "x"]),
                              max_size=2))
    flags = {"--bound": ["-1", "0", "1", "x"], "--n": ["-1", "1", "2", "x"],
             "--format": ["csv", "json", "xml"], "--seed": ["1", "x"],
             "--kind": ["span", "cube"]}
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3)):
        argv.append(flag)
        if draw(st.booleans()):
            argv.append(draw(st.sampled_from(flags[flag])))
    if head[:1] == ["verify"]:
        argv += ["--bound", draw(st.sampled_from(["-1", "0", "1"]))]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), "extra.json")
    return argv


@FUZZ
@given(bad_argv())
def test_bad_argv_keeps_the_contract(run_cli, argv):
    assert_contract(run_cli, argv)
