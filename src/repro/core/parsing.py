"""One ``ast.parse`` at a time in this process.

CPython 3.11 keeps the recursion counter of the conversion that turns a
parsed module into ``ast`` objects in one process-wide state.  When the
cyclic collector runs Python code in the middle of a conversion (a
weak-key dictionary's callback, say) and another thread parses meanwhile,
both counts go wrong and a parse raises ``SystemError: AST constructor
recursion depth mismatch``.  Every parse of the package goes through
:func:`parse_module`, which holds one lock.  A forked child starts with a
fresh lock: the fork may have copied it held by a thread the child does
not have.
"""

from __future__ import annotations

import ast
import os
import threading

_PARSING = threading.RLock()


def _fresh_lock() -> None:
    global _PARSING
    _PARSING = threading.RLock()


os.register_at_fork(after_in_child=_fresh_lock)


def parse_module(source: str) -> ast.Module:
    """``ast.parse(source)``, never while another thread parses."""
    with _PARSING:
        return ast.parse(source)
