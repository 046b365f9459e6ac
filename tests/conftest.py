"""The CLI in process: the ``run_cli`` fixture runs ``cli.main`` with its
output captured, for every test of the CLI contract that does not test the
process itself."""

import collections
import contextlib
import io

import pytest

from spankit import cli

# the fields of subprocess.CompletedProcess, so that a run in process and
# a run of python -m spankit compare as tuples
CliRun = collections.namedtuple("CliRun", "returncode stdout stderr")


def _run_cli(*argv):
    """cli.main(argv) with stdout and stderr captured; the exit code is
    what main returns, or the code of a SystemExit (as for --help)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return CliRun(code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="session")
def run_cli():
    # session scope, so that Hypothesis tests may take it
    return _run_cli
