"""The one rule for the fields of the parameter dataclasses.

Every float field refuses NaN, and an infinity unless it is declared to admit
one. A field may also declare a domain, the values it may take, by taking its
default from ``param``. A parameter class is declared with ``checked``,
which runs ``check`` on every construction; ``check`` applies both and names
the field as "<field> must ...". Rules that tie two fields together stay
written out in their class's ``__post_init__``, which runs after ``check``.
"""

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Optional


# A domain is a pair: the words that end the message "<field> must ...", and
# the test that the values in it pass.
Domain = tuple[str, Callable[[Any], bool]]
POSITIVE: Domain = ("be > 0", lambda x: x > 0.0)
NON_NEGATIVE: Domain = ("be >= 0", lambda x: x >= 0.0)
AT_LEAST_ONE: Domain = ("be >= 1", lambda x: x >= 1)


def param(default: Any = MISSING, domain: Optional[Domain] = None,
          inf: bool = False) -> Any:
    """A dataclass field held to ``domain`` by ``check``; ``inf`` lets a float
    field take an infinity (the domain still applies to it)."""
    return field(default=default, metadata={"domain": domain, "inf": inf})


def check(obj: Any) -> None:
    """Refuse a field value of the dataclass ``obj`` that its field does not
    admit: NaN in a float field, an infinity in a float field not declared
    to take one, or a value outside the field's declared domain."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("float", float) and not math.isfinite(value):
            if math.isnan(value):
                raise ValueError(f"{f.name} must not be NaN")
            if not f.metadata.get("inf"):
                raise ValueError(f"{f.name} must be finite")
        domain = f.metadata.get("domain")
        if domain is not None and not domain[1](value):
            raise ValueError(f"{f.name} must {domain[0]}")


def checked(cls: type) -> type:
    """Declare the parameter class ``cls``: a frozen dataclass that runs
    ``check`` on every construction, then its own ``__post_init__`` rules,
    if it has any."""
    rules = vars(cls).get("__post_init__")

    def __post_init__(self) -> None:
        check(self)
        if rules is not None:
            rules(self)

    cls.__post_init__ = __post_init__
    return dataclass(frozen=True)(cls)
