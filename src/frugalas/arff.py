"""Parser and serializer for the ARFF subset used by ASLib scenario tables.

Supported grammar: '@relation', '@attribute <name> (numeric|string|{v1,...})'
and '@data', all case-insensitive; '%' starts a comment line; cells are
comma-separated; '?' marks a missing value; names and nominal values may be
quoted with single or double quotes. Sparse rows and date attributes are not
supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest


class ArffError(ValueError):
    """Malformed ARFF input; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


#: Sentinel stored in rows for '?' cells.
MISSING = None


@dataclass(frozen=True)
class Attribute:
    name: str
    kind: str  # 'numeric', 'string' or 'nominal'
    values: tuple[str, ...] | None = None  # declared set for nominal attributes


@dataclass
class ArffRelation:
    name: str
    attributes: list[Attribute]
    rows: list[tuple]


def _unquote(token: str) -> str:
    token = token.strip()
    if len(token) >= 2 and token[0] == token[-1] and token[0] in ("'", '"'):
        return token[1:-1]
    return token


def _split_name_rest(body: str) -> tuple[str, str]:
    """Split an @relation or @attribute body into (name, remainder),
    honouring quotes; a body with no name is a ValueError."""
    body = body.strip()
    if body and body[0] in ("'", '"'):
        quote = body[0]
        end = body.find(quote, 1)
        if end < 0:
            raise ValueError("unterminated quoted name")
        return body[1:end], body[end + 1 :].strip()
    parts = body.split(None, 1)
    if not parts:
        raise ValueError("missing name")
    if len(parts) == 1:
        return parts[0], ""
    return parts[0], parts[1].strip()


def parse_arff(text: str) -> ArffRelation:
    name = None
    attributes: list[Attribute] = []
    rows: list[tuple] = []
    in_data = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if not in_data:
            lowered = line.lower()
            if lowered.startswith("@relation"):
                try:
                    name, _ = _split_name_rest(line[len("@relation") :])
                except ValueError as exc:
                    raise ArffError(lineno, str(exc)) from None
            elif lowered.startswith("@attribute"):
                try:
                    attr_name, rest = _split_name_rest(line[len("@attribute") :])
                except ValueError as exc:
                    raise ArffError(lineno, str(exc)) from None
                if not rest:
                    raise ArffError(lineno, f"attribute '{attr_name}' has no type")
                if rest.startswith("{"):
                    if not rest.endswith("}"):
                        raise ArffError(lineno, "unterminated nominal value set")
                    values = tuple(_unquote(v) for v in rest[1:-1].split(","))
                    attributes.append(Attribute(attr_name, "nominal", values))
                elif rest.lower() in ("numeric", "real", "integer"):
                    attributes.append(Attribute(attr_name, "numeric"))
                elif rest.lower() == "string":
                    attributes.append(Attribute(attr_name, "string"))
                else:
                    raise ArffError(lineno, f"unsupported attribute type '{rest}'")
            elif lowered.startswith("@data"):
                if name is None:
                    raise ArffError(lineno, "@data before @relation")
                if not attributes:
                    raise ArffError(lineno, "@data with no attributes declared")
                in_data = True
            else:
                raise ArffError(lineno, f"unrecognized directive '{line.split()[0]}'")
            continue

        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(attributes):
            raise ArffError(
                lineno,
                f"row has {len(cells)} cells, expected {len(attributes)}",
            )
        parsed = []
        for cell, attr in zip(cells, attributes):
            if cell == "?":
                parsed.append(MISSING)
                continue
            value = _unquote(cell)
            if attr.kind == "numeric":
                try:
                    parsed.append(float(value))
                except ValueError:
                    raise ArffError(
                        lineno, f"non-numeric value '{value}' for '{attr.name}'"
                    ) from None
            elif attr.kind == "nominal":
                if value not in attr.values:
                    raise ArffError(
                        lineno,
                        f"value '{value}' not in declared set for '{attr.name}'",
                    )
                parsed.append(value)
            else:
                parsed.append(value)
        rows.append(tuple(parsed))

    if name is None:
        raise ArffError(1, "missing @relation header")
    if not in_data:
        raise ArffError(1, "missing @data section")
    return ArffRelation(name, attributes, rows)


def _quote(name: str) -> str:
    if any(ch.isspace() or ch == "," for ch in name):
        return f"'{name}'"
    return name


def _same(a, b) -> bool:
    """Equal, where NaN equals NaN."""
    return a == b or (a != a and b != b)


def serialize_arff(rel: ArffRelation) -> str:
    """ARFF text that `parse_arff` reads back as `rel`, exactly. A relation
    it would not, such as one with a comma in a cell or a nominal value (the
    parser splits on every comma), is a ValueError."""
    if not rel.name:
        # `@relation` with no name is not ARFF that `parse_arff` reads
        raise ValueError("a relation needs a name")
    lines = [f"@relation {_quote(rel.name)}"]
    for attr in rel.attributes:
        if attr.kind == "nominal":
            spec = "{" + ",".join(_quote(v) for v in attr.values) + "}"
        else:
            spec = attr.kind
        lines.append(f"@attribute {_quote(attr.name)} {spec}")
    lines.append("@data")
    for row in rel.rows:
        cells = []
        for value, attr in zip(row, rel.attributes):
            if value is MISSING:
                cells.append("?")
            elif attr.kind == "numeric":
                cells.append(repr(float(value)))
            else:
                cells.append(_quote(str(value)))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    try:
        back = parse_arff(text)
    except ArffError as exc:
        line = text.splitlines()[exc.line - 1]
        raise ValueError(f"relation '{rel.name}' would not read back: {exc}: {line!r}") from None
    if back.name != rel.name:
        raise ValueError(f"relation name {rel.name!r} would read back as {back.name!r}")
    for ours, theirs in zip_longest(rel.attributes, back.attributes):
        if ours != theirs:
            raise ValueError(f"relation '{rel.name}': {ours!r} would read back as {theirs!r}")
    for ours, theirs in zip_longest(rel.rows, back.rows, fillvalue=()):
        if len(ours) != len(theirs) or not all(map(_same, ours, theirs)):
            raise ValueError(
                f"relation '{rel.name}': row {ours!r} would read back as {theirs!r}"
            )
    return text
