"""The integer-argument check every config class shares.

A leaf module: it imports nothing, so any module may use it without
adding to what a command loads.
"""


def require_ints(owner, fields, minimum=1, error=ValueError):
    """Raise *error* naming ``owner.field`` for the first ``(field,
    value)`` pair in *fields* whose value is not an ``int`` of at least
    *minimum* (1: positive, 0: non-negative).

    ``bool`` is an ``int`` subclass, so ``True`` would otherwise pass as
    1 and ``False`` as 0; it is rejected like any other non-integer.
    """
    for field, value in fields:
        # an exact int, the common case, skips both isinstance tests:
        # every config object a job builds runs this for each field
        if type(value) is not int \
                and (isinstance(value, bool) or not isinstance(value, int)) \
                or value < minimum:
            raise error("%s.%s must be a %s integer, got %r" % (
                owner, field, "positive" if minimum == 1 else "non-negative",
                value))
