"""Lexical and annotation-driven unit inference for rule R2.

The analyzer never executes the code it checks, so it infers the
physical dimension of an expression two ways:

* **annotation-driven** — a name annotated with a :mod:`repro.units`
  alias (``Seconds``, ``Joules``, ...) has that alias' dimension;
* **lexical** — identifiers whose names carry the repo's naming
  convention (``*_time``, ``*_energy``, ``nbytes``, ``bandwidth_bps``,
  ...) are assumed to hold that dimension.

Lexical inference is deliberately conservative: a *miss* only weakens
the check, a *wrong hit* creates a false positive.  Names like ``start``
or ``first_byte`` therefore infer nothing — in this codebase they are
timestamps and page indices in different modules.
"""

from __future__ import annotations

import ast

#: dimension keys (match ``repro.units.Unit.dimension``)
TIME = "time"
ENERGY = "energy"
POWER = "power"
DATA = "data"
BANDWIDTH = "bandwidth"

#: repro.units alias name -> dimension.
ALIAS_DIMENSIONS: dict[str, str] = {
    "Seconds": TIME,
    "Joules": ENERGY,
    "Watts": POWER,
    "Bytes": DATA,
    "BytesPerSecond": BANDWIDTH,
}

#: dimension -> the alias rule R2 asks for.
DIMENSION_ALIASES: dict[str, str] = {
    dim: alias for alias, dim in ALIAS_DIMENSIONS.items()
}

#: exact identifier names (underscores stripped, lowered) -> dimension.
_EXACT: dict[str, str] = {
    "now": TIME,
    "when": TIME,
    "timeout": TIME,
    "deadline": TIME,
    "duration": TIME,
    "elapsed": TIME,
    "think": TIME,
    "dt": TIME,
    "energy": ENERGY,
    "joules": ENERGY,
    "power": POWER,
    "watts": POWER,
    "nbytes": DATA,
    "bandwidth": BANDWIDTH,
    "bps": BANDWIDTH,
}

#: identifier suffixes -> dimension.
_SUFFIXES: tuple[tuple[str, str], ...] = (
    ("_time", TIME),
    ("_seconds", TIME),
    ("_timeout", TIME),
    ("_delay", TIME),
    ("_latency", TIME),
    ("_duration", TIME),
    ("_deadline", TIME),
    ("_until", TIME),
    ("_energy", ENERGY),
    ("_joules", ENERGY),
    ("_power", POWER),
    ("_watts", POWER),
    ("_bytes", DATA),
    ("_bps", BANDWIDTH),
    ("_bandwidth", BANDWIDTH),
)


def dimension_of_identifier(name: str) -> str | None:
    """Dimension a bare identifier lexically implies, if any."""
    stripped = name.lstrip("_").lower()
    exact = _EXACT.get(stripped)
    if exact is not None:
        return exact
    for suffix, dim in _SUFFIXES:
        if stripped.endswith(suffix):
            return dim
    return None


def dimension_of_annotation(annotation: ast.expr | None) -> str | None:
    """Dimension of an annotation expression using a repro.units alias.

    Recognises ``Seconds``, ``units.Seconds`` and quoted forms.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and \
            isinstance(annotation.value, str):
        name = annotation.value.strip().rsplit(".", 1)[-1]
        return ALIAS_DIMENSIONS.get(name)
    if isinstance(annotation, ast.Name):
        return ALIAS_DIMENSIONS.get(annotation.id)
    if isinstance(annotation, ast.Attribute):
        return ALIAS_DIMENSIONS.get(annotation.attr)
    return None


def is_bare_numeric_annotation(annotation: ast.expr | None) -> bool:
    """True for a literal ``float`` or ``int`` annotation."""
    return isinstance(annotation, ast.Name) and \
        annotation.id in ("float", "int")


class UnitEnv:
    """Per-function mapping of plain names to known dimensions.

    Annotation-driven facts (parameters and ``AnnAssign`` locals using
    the unit aliases) take precedence; lexical inference fills the rest.
    """

    def __init__(self) -> None:
        self._known: dict[str, str] = {}

    def bind(self, name: str, dimension: str | None) -> None:
        if dimension is not None:
            self._known[name] = dimension

    def bind_annotation(self, name: str, annotation: ast.expr | None) -> None:
        self.bind(name, dimension_of_annotation(annotation))

    def dimension_of(self, node: ast.expr) -> str | None:
        """Dimension of an expression, or None when unknown.

        Plain names consult the annotation environment first; attribute
        accesses fall back to the lexical convention on the terminal
        attribute name.  ``+``/``-`` propagate a known operand's
        dimension so chained arithmetic stays checkable.
        """
        if isinstance(node, ast.Name):
            known = self._known.get(node.id)
            if known is not None:
                return known
            return dimension_of_identifier(node.id)
        if isinstance(node, ast.Attribute):
            return dimension_of_identifier(node.attr)
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.Add, ast.Sub)):
            left = self.dimension_of(node.left)
            right = self.dimension_of(node.right)
            if left is not None and right is not None:
                return left if left == right else None
            return left if left is not None else right
        return None
