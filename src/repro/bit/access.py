"""BIT access control: the test-mode switch.

In the paper, built-in test capabilities are guarded by a *BIT access
control* "which consists in a compiler directive which includes or excludes
BIT capabilities" (sec. 3.3).  Python has no preprocessor, so the guard is a
runtime switch with the same contract:

* BIT services (``invariant_test``, ``reporter``, embedded assertions) are
  **unavailable** unless test mode is on — calling them raises
  :class:`TestModeError`, and embedded contract checks evaluate to no-ops so
  production behaviour carries no checking overhead beyond one flag read;
* test mode can be global or scoped to specific classes, mirroring compiling
  only the component under test in test mode.

The usual entry point is the :func:`test_mode` context manager::

    with test_mode():
        component.invariant_test()
"""

from __future__ import annotations

import contextlib
import threading
from typing import ContextManager, Dict, Iterator, Optional, Type

from ..core.errors import TestModeError


class _AccessState:
    """Process-wide switch state.

    Scoped enablement (:func:`test_mode`) is counted, not boolean:
    several test sessions may overlap — scopes nest, and a program may
    run suites on several threads — and one scope exiting must not
    switch the capability off under a neighbour still inside its own
    scope.  The absolute :func:`set_test_mode` switch is kept separate
    so manual on/off control behaves exactly as before.

    ``global_on`` is the global switch, ``forced or depth > 0``, updated
    under the lock by every writer.  The contract checks run inside every
    traced mutant call, so they read it as one attribute and fall back to
    the per-class lookup only when it is off.
    """

    def __init__(self):
        self.forced = False
        self.depth = 0
        self.global_on = False
        self.enabled_classes: Dict[type, int] = {}
        self.lock = threading.Lock()

    def update_global(self) -> None:
        """Recompute ``global_on``; the caller holds the lock."""
        self.global_on = self.forced or self.depth > 0

    def class_enabled(self, target: Optional[type]) -> bool:
        """Per-class enablement alone; readers check ``global_on`` first."""
        if target is None or not self.enabled_classes:
            return False
        return any(issubclass(target, enabled)
                   for enabled in self.enabled_classes)


_STATE = _AccessState()


def set_test_mode(on: bool) -> None:
    """Turn global test mode on or off (absolute, not scoped)."""
    with _STATE.lock:
        _STATE.forced = bool(on)
        _STATE.update_global()


def enable_for_class(target: Type) -> None:
    """Enable test mode for one class (and its subclasses) only."""
    with _STATE.lock:
        _STATE.enabled_classes[target] = \
            _STATE.enabled_classes.get(target, 0) + 1


def disable_for_class(target: Type) -> None:
    """Remove a per-class enablement (no-op when absent)."""
    with _STATE.lock:
        count = _STATE.enabled_classes.get(target, 0)
        if count <= 1:
            _STATE.enabled_classes.pop(target, None)
        else:
            _STATE.enabled_classes[target] = count - 1


def is_test_mode(target: Optional[type] = None) -> bool:
    """True when BIT capabilities are available.

    With a ``target`` class, per-class enablement is honoured; without one,
    only the global switches count.
    """
    return _STATE.global_on or _STATE.class_enabled(target)


def require_test_mode(target: Optional[type] = None, capability: str = "BIT") -> None:
    """Raise :class:`TestModeError` unless test mode is on."""
    if not is_test_mode(target):
        name = target.__name__ if target is not None else "component"
        raise TestModeError(
            f"{capability} capability of {name} requires test mode; "
            "wrap the call in `with test_mode():` or call set_test_mode(True)"
        )


class _GlobalScope:
    """``with test_mode():`` — one global scope.

    Stateless, so the module keeps one instance and every unscoped
    :func:`test_mode` returns it: the executor enters one per test case,
    and a plain object enters and leaves for a fraction of what a
    ``contextlib`` generator costs.  Scopes count in ``_STATE.depth``, so
    the instance nests and is shared across threads.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        with _STATE.lock:
            _STATE.depth += 1
            _STATE.update_global()

    def __exit__(self, *exc_info) -> None:
        with _STATE.lock:
            _STATE.depth -= 1
            _STATE.update_global()


_GLOBAL_SCOPE = _GlobalScope()


@contextlib.contextmanager
def _class_scope(target: Type) -> Iterator[None]:
    enable_for_class(target)
    try:
        yield
    finally:
        disable_for_class(target)


def test_mode(target: Optional[Type] = None) -> ContextManager[None]:
    """Context manager enabling test mode globally or for one class.

    Scopes nest and overlap freely (including across threads): the
    capability stays on until the last scope exits.
    """
    if target is None:
        return _GLOBAL_SCOPE
    return _class_scope(target)


def reset() -> None:
    """Restore the pristine off state (used by tests)."""
    with _STATE.lock:
        _STATE.forced = False
        _STATE.depth = 0
        _STATE.update_global()
        _STATE.enabled_classes.clear()
