"""The argument checks every config class shares.

A leaf module: it imports nothing, so any module may use it without
adding to what a command loads.  Each check raises naming
``owner.field``.  ``bool`` is an ``int`` subclass, so ``True`` would
otherwise pass as 1 and ``False`` as 0; no integer or number check
takes it.
"""


def require_ints(owner, fields, minimum=1, error=ValueError, maximum=None):
    """Raise *error* naming ``owner.field`` for the first ``(field,
    value)`` pair in *fields* whose value is not an ``int`` of at least
    *minimum* (1: positive, 0: non-negative) and, given *maximum*, at
    most *maximum*."""
    for field, value in fields:
        # an exact int, the common case, skips both isinstance tests:
        # every config object a job builds runs this for each field
        if type(value) is not int \
                and (isinstance(value, bool) or not isinstance(value, int)) \
                or value < minimum \
                or maximum is not None and value > maximum:
            if maximum is not None:
                expected = "an integer in [%d, %d]" % (minimum, maximum)
            else:
                expected = "a %s integer" % (
                    "positive" if minimum == 1 else "non-negative")
            raise error("%s.%s must be %s, got %r" % (
                owner, field, expected, value))


def require_bools(owner, fields):
    """Raise ``ValueError`` naming ``owner.field`` for the first
    ``(field, value)`` pair in *fields* whose value is not a bool."""
    for field, value in fields:
        if type(value) is not bool:
            raise ValueError("%s.%s must be a bool, got %r"
                             % (owner, field, value))


def require_fraction(owner, field, value):
    """Raise ``ValueError`` naming ``owner.field`` unless *value* is an
    int or float (not a bool) in [0, 1]."""
    if type(value) not in (int, float) or not 0 <= value <= 1:
        raise ValueError("%s.%s must be a number in [0, 1], got %r"
                         % (owner, field, value))
