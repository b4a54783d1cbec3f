"""Every parse of the package holds one lock.

CPython 3.11 counts the recursion of ``ast.parse``'s conversion into
``ast`` objects in one process-wide state, so two threads that parse at
once, while the cyclic collector runs a Python callback, make a parse
raise ``SystemError: AST constructor recursion depth mismatch``.
``parse_module`` never parses while another thread does, and a forked
child parses even when the fork copied the lock held.
"""

from __future__ import annotations

import ast
import inspect
import multiprocessing
import sys
import threading
import weakref

import pytest

from repro.core import parsing
from repro.core.parsing import parse_module
from repro.mutation.operators import base


def test_threads_parse_at_once_with_the_collector_running_callbacks():
    source = inspect.getsource(base)
    expected = ast.dump(ast.parse(source))
    dying = weakref.WeakKeyDictionary()
    barrier = threading.Barrier(3, timeout=60)
    dumps, errors = [], []

    def work():
        try:
            barrier.wait()
            for _ in range(5):
                # Classes are freed by the collector, which runs the weak
                # keys' Python callback wherever it happens to run.
                for number in range(20):
                    dying[type("Dying", (), {})] = number
                dumps.append(ast.dump(parse_module(source)))
        except BaseException as error:  # noqa: BLE001 — reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert dumps == [expected] * 15


def test_a_forked_child_parses_while_a_thread_holds_the_lock():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork is not available on this platform")
    held, release = threading.Event(), threading.Event()

    def hold():
        with parsing._PARSING:
            held.set()
            release.wait(timeout=60)

    holder = threading.Thread(target=hold)
    holder.start()
    child = None
    try:
        assert held.wait(timeout=60)
        child = multiprocessing.get_context("fork").Process(
            target=parse_module, args=("x = 1",))
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0
    finally:
        release.set()
        holder.join(timeout=60)
        if child is not None and child.is_alive():
            child.kill()
            child.join()
