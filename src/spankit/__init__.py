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
"""

# ``cli`` is left out so that ``python -m spankit.cli`` does not find it
# already imported; ``from spankit import cli`` still works.
from . import crw, fincat, pathnerve, pushpull, ratlin, simplex, spans
from . import instances, verify

__all__ = ["cli", "crw", "fincat", "instances", "pathnerve", "pushpull",
           "ratlin", "simplex", "spans", "verify"]

__version__ = "0.1.0"
