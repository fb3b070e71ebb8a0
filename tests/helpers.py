"""Shared test helpers."""

from giantnat import LEAF, VNode


def value_if_feasible(x, max_digits=20000):
    """Value of a tree computed straight from the run-length reading, or
    None once the digit expansion would exceed the budget.

    Independent of the library's digit primitives, so it doubles as an
    oracle for the interpretation.  Random trees routinely encode
    astronomically large numbers; those are reported as None rather than
    ever being expanded, and checked by identities instead.
    """
    if x is LEAF:
        return 0
    runs = []
    total = 0
    for counter in (x.head, *x.tail):
        cv = value_if_feasible(counter, max_digits)
        if cv is None:
            return None
        total += cv + 1
        if total > max_digits:
            return None
        runs.append(cv + 1)
    digits = []  # outermost first
    use_o = isinstance(x, VNode)
    for run in runs:
        digits.extend([use_o] * run)
        use_o = not use_o
    v = 0
    for is_o in reversed(digits):
        v = 2 * v + (1 if is_o else 2)
    return v
