"""Small self-testable classes whose mutated lines pruning could miss.

Each class puts a mutated line where a per-line coverage recorder could
miss it: a method bound under two names, a name inside a comprehension
(its own code object), a name on the continuation line of a multi-line
call, a ``functools.wraps``-decorated method, a use whose breadth-first
label names another line, and a method first reached at step 3 whose
mutants can loop forever there.  :data:`LINE_SUBJECTS` pairs each with
the method to mutate and a suite; the configuration lattice runs them.
The classes live in a module of their own so ``inspect.getsource`` and
the worker processes of the parallel engine can find them.
"""

from __future__ import annotations

import functools

from repro.bit.builtintest import BuiltInTest
from repro.generator.suite import TestSuite
from repro.generator.testcase import TestCase, TestStep
from repro.tfm.transactions import Transaction


def suite_of(class_name, *calls) -> TestSuite:
    """One case per entry of ``calls``: construct, then each
    ``(method, *arguments)`` in order."""
    cases = []
    for number, steps in enumerate(calls):
        built = [TestStep("m0", class_name, (), is_construction=True)]
        built += [TestStep(f"m{index + 1}", method, tuple(arguments))
                  for index, (method, *arguments) in enumerate(steps)]
        cases.append(TestCase(
            ident=f"TC{number}",
            transaction=Transaction(tuple(f"n{i}" for i in range(len(built)))),
            steps=tuple(built),
            class_name=class_name,
        ))
    return TestSuite(class_name=class_name, cases=tuple(cases))


class Tally(BuiltInTest):
    """``Increment`` is ``Bump`` under a second name."""

    def __init__(self):
        self.total = 0
        self.calls = 0

    def class_invariant(self):
        return self.calls >= 0

    def Bump(self, step):
        amount = step * 2
        total = self.total + amount
        count = self.calls + 1
        self.calls = count
        self.total = total
        return total - count

    Increment = Bump

    def Total(self):
        return self.total


class Basket(BuiltInTest):
    """The mutated names of ``CountAbove`` sit inside a comprehension."""

    def __init__(self):
        self.items = []

    def class_invariant(self):
        return isinstance(self.items, list)

    def Add(self, value):
        self.items.append(value)
        return len(self.items)

    def CountAbove(self, limit):
        floor = limit + 1
        matches = [item for item in self.items
                   if item >= floor]
        return len(matches)


class Scaler(BuiltInTest):
    """``Scale`` passes a local on the continuation line of a call."""

    def __init__(self):
        self.total = 1

    def class_invariant(self):
        return isinstance(self.total, int)

    def Set(self, value):
        self.total = value
        return value

    def Scale(self, factor):
        base = self.total
        offset = factor - 1
        result = self.combine(base,
                              offset)
        self.total = result
        return result

    def combine(self, left, right):
        return left * 2 + right


def logged(function):
    """A pass-through decorator that keeps the method's metadata."""

    @functools.wraps(function)
    def wrapper(self, *arguments):
        return function(self, *arguments)

    return wrapper


class Ledger(BuiltInTest):
    """``Post`` is reached through a ``functools.wraps`` wrapper."""

    def __init__(self):
        self.balance = 0

    def class_invariant(self):
        return isinstance(self.balance, int)

    @logged
    def Post(self, amount):
        fee = amount // 10
        net = amount - fee
        self.balance = self.balance + net
        return net

    def Balance(self):
        return self.balance


class Picker(BuiltInTest):
    """The first use of ``chosen`` in pre-order, the one a splice rewrites,
    is on the method's line 5; the first in breadth-first order, the one
    ``UseSite.line`` labels, is on line 6."""

    def __init__(self):
        self.picked = 0

    def class_invariant(self):
        return isinstance(self.picked, int)

    def Pick(self, flag):
        chosen = flag + 1
        if flag > 0:
            if flag > 5:
                return chosen
        return chosen * 2

    def Reset(self):
        self.picked = 0
        return self.picked


class Drainer(BuiltInTest):
    """``Drain`` counts down in a loop a mutant can make endless."""

    def __init__(self):
        self.level = 0

    def class_invariant(self):
        return self.level >= 0

    def Fill(self, amount):
        self.level = self.level + amount
        return self.level

    def Drain(self, amount):
        remaining = amount
        while remaining > 0:
            remaining = remaining - 1
        self.level = max(0, self.level - amount)
        return remaining


#: Mutated lines a per-line recorder could miss: (class, method, suite).
#: Each suite mixes cases that never call the method with cases that call
#: it first at a later step, so pruning both skips and runs prefixes
#: unguarded.
LINE_SUBJECTS = {
    # Increment is Bump under a second name; cases call either.
    "alias": (Tally, "Increment", suite_of(
        "Tally",
        [("Increment", 1), ("Bump", 2)],
        [("Total",)],
        [("Bump", 2), ("Total",), ("Increment", 3), ("Bump", 1)],
    )),
    "comprehension": (Basket, "CountAbove", suite_of(
        "Basket",
        [("Add", 3)],
        [("Add", 1), ("Add", 5), ("CountAbove", 2)],
        [("CountAbove", 0)],
        [("Add", 7), ("CountAbove", 4), ("Add", 2)],
    )),
    "continuation": (Scaler, "Scale", suite_of(
        "Scaler",
        [("Set", 3)],
        [("Set", 2), ("Scale", 3)],
        [("Scale", 1), ("Set", 4)],
        [("Set", 5), ("Set", 1), ("Scale", 2)],
    )),
    "wraps": (Ledger, "Post", suite_of(
        "Ledger",
        [("Balance",)],
        [("Balance",), ("Post", 50)],
        [("Post", 5), ("Balance",), ("Post", 120)],
    )),
    "breadth-first": (Picker, "Pick", suite_of(
        "Picker",
        [("Reset",)],
        [("Pick", 7)],
        [("Reset",), ("Pick", 2)],
        [("Pick", -1), ("Pick", 9)],
    )),
    # Drain is first reached at step 3; some of its mutants loop forever.
    "endless-loop": (Drainer, "Drain", suite_of(
        "Drainer",
        [("Fill", 3)],
        [("Fill", 4), ("Fill", 1), ("Drain", 2)],
        [("Fill", 2), ("Fill", 2), ("Drain", 1)],
    )),
}
