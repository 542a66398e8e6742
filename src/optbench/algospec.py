"""Algorithm composition trees and their canonical text form.

The tree is the output language of the selection wizard and the input
language of the CLI ``--algs`` flag.  Grammar::

    spec     := leaf | chain | bet | wrap
    leaf     := NAME params?                  e.g.  cma, tbpsa[seed=7]
    params   := "[" NAME "=" VALUE ("," NAME "=" VALUE)* "]"
    chain    := "chain(" spec ("," spec)* ";" alloc ("," alloc)* ")"
    alloc    := FLOAT                         budget fraction
              | INT "a"                       absolute ask count
    bet      := "bet(" spec ("," spec)* ";" FLOAT ")"
    wrap     := ("meta" | "prog" | "softmax") "(" spec ")"

Chain allocations pair up with children; absolute ask counts are honored
first and fractions split the remaining budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SpecParseError

WRAP_KINDS = ("meta", "prog", "softmax")


@dataclass(frozen=True)
class Leaf:
    name: str
    params: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class Chain:
    children: tuple
    fractions: tuple = ()  # float per child, None where an ask count pins it
    asks: tuple = ()  # int per child, None where a fraction applies

    def __post_init__(self):
        n = len(self.children)
        if n == 0:
            raise SpecParseError("chain needs at least one child")
        fractions = self.fractions if self.fractions else (None,) * n
        asks = self.asks if self.asks else (None,) * n
        if len(fractions) != n or len(asks) != n:
            raise SpecParseError("chain allocations must pair up with children")
        for frac, cnt in zip(fractions, asks):
            if (frac is None) == (cnt is None):
                raise SpecParseError("each chain child needs a fraction or an ask count")
            if frac is not None and not frac > 0:
                raise SpecParseError("chain fractions must be positive")
            if cnt is not None and cnt < 1:
                raise SpecParseError("chain ask counts must be positive")
        fracs = [f for f in fractions if f is not None]
        if fracs and abs(sum(fracs) - 1.0) > 1e-9:
            raise SpecParseError(f"chain fractions must sum to 1, got {sum(fracs)}")
        object.__setattr__(self, "fractions", tuple(fractions))
        object.__setattr__(self, "asks", tuple(asks))


@dataclass(frozen=True)
class BetAndRun:
    children: tuple
    phase_fraction: float = 0.25

    def __post_init__(self):
        if len(self.children) < 2:
            raise SpecParseError("bet-and-run needs at least two children")
        if not (0.0 < self.phase_fraction < 1.0):
            raise SpecParseError("bet-and-run phase fraction must lie in (0, 1)")


@dataclass(frozen=True)
class Wrap:
    kind: str
    child: object = field(default=None)

    def __post_init__(self):
        if self.kind not in WRAP_KINDS:
            raise SpecParseError(f"unknown wrapper kind {self.kind!r}")


AlgorithmSpec = Leaf | Chain | BetAndRun | Wrap


def _format_value(value) -> str:
    """A parameter value or a fraction as text that parses back to it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}" if float(f"{value:g}") == value else repr(value)
    return str(value)


def canonical_text(spec: AlgorithmSpec) -> str:
    """Render a spec tree to its canonical one-line form."""
    if isinstance(spec, Leaf):
        if not spec.params:
            return spec.name
        inner = ",".join(f"{k}={_format_value(v)}" for k, v in spec.params)
        return f"{spec.name}[{inner}]"
    if isinstance(spec, Chain):
        children = ",".join(canonical_text(c) for c in spec.children)
        allocs = ",".join(
            f"{cnt}a" if cnt is not None else _format_value(frac)
            for frac, cnt in zip(spec.fractions, spec.asks)
        )
        return f"chain({children};{allocs})"
    if isinstance(spec, BetAndRun):
        children = ",".join(canonical_text(c) for c in spec.children)
        return f"bet({children};{_format_value(spec.phase_fraction)})"
    if isinstance(spec, Wrap):
        return f"{spec.kind}({canonical_text(spec.child)})"
    raise SpecParseError(f"not an algorithm spec: {spec!r}")


def split_top_level(text: str, sep: str = ",") -> list[str]:
    """Split on ``sep`` outside parentheses and brackets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise SpecParseError(f"unbalanced parentheses in {text!r}")
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise SpecParseError(f"unbalanced parentheses in {text!r}")
    parts.append(text[start:])
    return parts


def _parse_param_value(text: str):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_alloc(token: str) -> tuple[float | None, int | None]:
    token = token.strip()
    if token.endswith("a"):
        try:
            return None, int(token[:-1])
        except ValueError as exc:
            raise SpecParseError(f"bad ask count {token!r}") from exc
    try:
        return float(token), None
    except ValueError as exc:
        raise SpecParseError(f"bad allocation {token!r}") from exc


def parse_algorithm(text: str) -> AlgorithmSpec:
    """Parse the canonical text form into a spec tree."""
    text = text.strip()
    if not text:
        raise SpecParseError("empty algorithm spec")
    if "(" not in text:
        return _parse_leaf(text)
    head, _, rest = text.partition("(")
    head = head.strip()
    if not rest.endswith(")"):
        raise SpecParseError(f"missing closing parenthesis in {text!r}")
    body = rest[:-1]
    if head == "chain":
        children_text, allocs_text = _split_body(body, text)
        children = tuple(parse_algorithm(c) for c in split_top_level(children_text))
        allocs = [_parse_alloc(a) for a in split_top_level(allocs_text)]
        if len(allocs) != len(children):
            raise SpecParseError(f"chain has {len(children)} children but {len(allocs)} allocations")
        fractions = tuple(a[0] for a in allocs)
        asks = tuple(a[1] for a in allocs)
        return Chain(children, fractions, asks)
    if head == "bet":
        children_text, frac_text = _split_body(body, text)
        children = tuple(parse_algorithm(c) for c in split_top_level(children_text))
        try:
            frac = float(frac_text)
        except ValueError as exc:
            raise SpecParseError(f"bad phase fraction {frac_text!r}") from exc
        return BetAndRun(children, frac)
    if head in WRAP_KINDS:
        return Wrap(head, parse_algorithm(body))
    raise SpecParseError(f"unknown combinator {head!r} in {text!r}")


def _split_body(body: str, full: str) -> tuple[str, str]:
    parts = split_top_level(body, ";")
    if len(parts) != 2:
        raise SpecParseError(f"expected exactly one ';' in {full!r}")
    return parts[0], parts[1]


def _parse_leaf(text: str) -> Leaf:
    if "[" in text:
        name, _, rest = text.partition("[")
        if not rest.endswith("]"):
            raise SpecParseError(f"missing closing bracket in {text!r}")
        params = []
        for item in split_top_level(rest[:-1]):
            key, eq, value = item.partition("=")
            if not eq:
                raise SpecParseError(f"bad parameter {item!r} in {text!r}")
            params.append((key.strip(), _parse_param_value(value.strip())))
        return Leaf(name.strip(), tuple(params))
    name = text.strip()
    if not name or any(ch in name for ch in "();"):
        raise SpecParseError(f"bad leaf name {text!r}")
    return Leaf(name)
