"""The one rule for integer arguments: sizes, bounds, counts and exponents."""


def check_int(value, name: str, least=None, most=None) -> None:
    """Refuse with ValueError a value whose class is not exactly int (so also
    a bool or a float), or an int outside least..most.  An end given as None
    is open; `most` is only given together with `least`."""
    if value.__class__ is int and (least is None or value >= least) and (most is None or value <= most):
        return
    span = f" in {least}..{most}" if most is not None else "" if least is None else f" >= {least}"
    raise ValueError(f"{name} must be an integer{span}, got {value!r}")


def check_instance(value, name: str, kind) -> None:
    """Refuse with ValueError a value that is not an instance of `kind`, a class
    or a tuple of them, naming the argument: `s must be a FiniteResLat, got None`."""
    if not isinstance(value, kind):
        kinds = " or ".join(("an " if k.__name__[0] in "AEIOU" else "a ") + k.__name__
                            for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ValueError(f"{name} must be {kinds}, got {value!r}")
