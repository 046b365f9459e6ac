"""Span tracing inside a traced ``python -m spankit.cli`` child process.

The traced cli pass puts this directory first on PYTHONPATH and names an
output file in PERFBENCH_SPANS.  Python imports this module at start-up;
it wraps each spankit module as soon as the module has executed, and
writes the spans when the process exits.  Without PERFBENCH_SPANS it does
nothing.
"""

import atexit
import importlib.abc
import importlib.machinery
import os
import sys

_OUT = os.environ.get("PERFBENCH_SPANS")

if _OUT:
    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))))
    import spantrace

    _TRACER = spantrace.Tracer()

    class _WrapAfterExec(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path, target=None):
            if name != "spankit" and not name.startswith("spankit."):
                return None
            spec = importlib.machinery.PathFinder.find_spec(name, path)
            if spec is None or spec.loader is None:
                return spec
            exec_module = spec.loader.exec_module

            def exec_then_wrap(module):
                exec_module(module)
                _TRACER.install()
            spec.loader.exec_module = exec_then_wrap
            return spec

    sys.meta_path.insert(0, _WrapAfterExec())
    atexit.register(_TRACER.dump, _OUT)
