"""Simulator for timed concurrent constraint programs.

Programs are sets of procedure declarations; an entry agent drives the
run. Execution proceeds in discrete time instants: at each instant every
active agent runs against a snapshot of the store, the snapshots merge,
and the merged store is what guards read at the next instant. `import tccp`
loads the parser alone until `run` or `ChoicePolicy` is first used.

    >>> from tccp import parse_program, run
    >>> p = parse_program("count(N) :- tell(N > 0).", entry="count(7)")
    >>> trace = run(p, steps=5)
    >>> trace[-1].status
    'quiescent'
"""

from .errors import TccpError, TccpSyntaxError
from .parser import parse_agent, parse_constraint, parse_program

__version__ = "0.1.0"

__all__ = ["ChoicePolicy", "TccpError", "TccpSyntaxError", "parse_agent",
           "parse_constraint", "parse_program", "run", "__version__"]


def __getattr__(name):
    if name not in ("ChoicePolicy", "run"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import interp
    return getattr(interp, name)
