"""What a cold process imports: ``import spankit`` loads no submodule, and
each CLI command loads only the spankit modules it calls."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import spankit

SRC = pathlib.Path(spankit.__file__).resolve().parents[1]

# Runs cli.main on argv (sys.argv[1], JSON) with its output discarded, then
# prints the exit code and the spankit modules loaded.
CLI_PROBE = """
import contextlib, io, json, sys
from spankit import cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] == "spankit")]))
"""


def run_fresh(code, *args):
    """Run ``code`` in a new interpreter that imports spankit from SRC."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


# an endospan of {x}, so it composes with itself
SPAN = {"left_foot": ["x"], "apex": ["a", "b"], "right_foot": ["x"],
        "left_map": {"a": "x", "b": "x"}, "right_map": {"a": "x", "b": "x"}}


@pytest.mark.parametrize("argv, code, modules", [
    (["enumerate", "sigma", "2"], 0, ["simplex"]),
    (["enumerate", "nerve", "2"], 0, ["fincat", "pathnerve", "simplex"]),
    (["compose", "--kind", "span", "{span}", "{span}"], 0,
     ["fincat", "simplex", "spans"]),
    (["crw", "intro", "--n", "2"], 0, ["crw", "ratlin"]),
    (["verify", "crw", "--bound", "2"], 0, ["crw", "ratlin", "verify"]),
    (["enumerate", "sigma", "x"], 2, []),
    (["verify", "nerve", "--bound", "1"], 0,
     ["fincat", "instances", "pathnerve", "simplex", "verify"]),
    (["verify", "spans", "--bound", "1"], 0,
     ["fincat", "instances", "simplex", "spans", "verify"]),
])
def test_command_import_footprint(tmp_path, argv, code, modules):
    span = tmp_path / "span.json"
    span.write_text(json.dumps(SPAN))
    argv = [a.format(span=span) for a in argv]
    got = json.loads(run_fresh(CLI_PROBE, json.dumps(argv)))
    want = sorted(["spankit", "spankit.cli"]
                  + ["spankit." + m for m in modules])
    assert got == [code, want]


def test_submodules_load_on_first_use():
    out = run_fresh("""
import sys
import spankit
assert [m for m in sys.modules if m.startswith("spankit.")] == []
for name in spankit.__all__:
    assert getattr(spankit, name) is sys.modules["spankit." + name], name
try:
    spankit.nonsense
except AttributeError as exc:
    print(exc)
""")
    assert "nonsense" in out


def test_star_import_binds_every_module():
    out = run_fresh("""
import sys
from spankit import *
import spankit
print(sorted(n for n in spankit.__all__
             if globals()[n] is sys.modules["spankit." + n]))
""")
    assert out == "%r\n" % sorted(spankit.__all__)
    assert len(spankit.__all__) == 10
