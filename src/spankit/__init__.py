"""Exact-arithmetic toolkit for span calculus, bisimplicial nerves of
path 2-categories, push-pull local systems, and desk-scale derived
intersections of affine schemes.

Modules
-------
``simplex``   monotone/pointed index maps, interval and subset posets
``fincat``    finite categories, limits, ends, Kan extensions
``ratlin``    exact rational matrices (Fraction entries)
``pathnerve`` path 2-categories, bisimplicial nerves, labelled limits
``spans``     generalized span diagrams and cartesian replacement
``pushpull``  local systems on spans, push-pull composition, fillings
``crw``       graded-commutative DG algebras and derived intersections
``verify``    the property suites behind the ``verify`` command
``instances`` seeded random instances and oracles for ``verify`` and tests
``cli``       command-line front end

``import spankit`` loads none of them: each submodule is imported on
first use, as ``spankit.crw``, ``from spankit import crw`` or
``from spankit import *``.  So a cold ``python -m spankit.cli`` run
loads only the modules its command calls, and does not find ``cli``
already imported.
"""

import importlib

__all__ = ["cli", "crw", "fincat", "instances", "pathnerve", "pushpull",
           "ratlin", "simplex", "spans", "verify"]

__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
