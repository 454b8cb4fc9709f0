"""Graph text and JSON formats.

Text format, one record per line:
    v <count>            optional header fixing the vertex count
    e <u> <w> <len>      one edge; <len> is an integer, a/b rational, or
                         a finite decimal, parsed exactly
    # ...                comment
Endpoint order in the file fixes the orientation of each edge.

JSON equivalent: {"vertices": n, "edges": [[u, w, "a/b"], ...]}.
"""

from __future__ import annotations

from .errors import InputError, MgtError
from .graph import MetrizedGraph, build_graph
from .rational import format_scalar, parse_scalar


def parse_graph_text(text: str) -> MetrizedGraph:
    vcount = None
    edges: list[tuple[int, int, object]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "v":
                if len(parts) != 2:
                    raise InputError("expected: v <count>")
                vcount = int(parts[1])
            elif parts[0] == "e":
                if len(parts) != 4:
                    raise InputError("expected: e <u> <w> <len>")
                edges.append((int(parts[1]), int(parts[2]), parse_scalar(parts[3])))
            else:
                raise InputError(f"unknown record {parts[0]!r}")
        except (ValueError, InputError) as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
    if not edges and vcount is None:
        raise InputError("empty graph file")
    if vcount is None:
        vcount = 1 + max(max(u, w) for u, w, _ in edges)
    try:
        return build_graph(vcount, edges)
    except MgtError as exc:
        raise InputError(str(exc)) from exc


def format_graph_text(g: MetrizedGraph) -> str:
    lines = [f"v {g.vcount}"]
    lines += [f"e {a} {b} {format_scalar(length)}" for a, b, length in g.edges]
    return "\n".join(lines) + "\n"


def _json_text(x) -> str:
    import json

    return json.dumps(x)[:40]


def _json_int(x, field: str) -> int:
    if type(x) is not int:  # a float, string or boolean is refused, not truncated
        raise ValueError(f"expected an integer for {field}, got {_json_text(x)}")
    return x


def _json_graph(doc) -> tuple[int, list]:
    """The vertex count and edge list of a parsed JSON graph; ValueError names the field at fault."""
    if type(doc) is not dict:
        raise ValueError(f'expected an object with "vertices" and "edges", got {_json_text(doc)}')
    for key in ("vertices", "edges"):
        if key not in doc:
            raise ValueError(f'missing "{key}"')
    vcount = _json_int(doc["vertices"], '"vertices"')
    rows = doc["edges"]
    if type(rows) is not list:
        raise ValueError(f'"edges" must be a list of [u, w, length], got {_json_text(rows)}')
    edges = []
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != 3:
            raise ValueError(f"edge {i} must be [u, w, length], got {_json_text(row)}")
        u, w, length = row
        if type(length) not in (str, int, float):
            raise ValueError(f"edge {i}'s length must be a string or a number, got {_json_text(length)}")
        try:
            value = parse_scalar(str(length))
        except InputError as exc:
            raise ValueError(f"edge {i}'s length: {exc}") from exc
        edges.append((_json_int(u, f"edge {i}'s u"), _json_int(w, f"edge {i}'s w"), value))
    return vcount, edges


def parse_graph_json(text: str) -> MetrizedGraph:
    import json  # loaded only when a graph is read or written as JSON

    try:
        vcount, edges = _json_graph(json.loads(text))
    except ValueError as exc:  # json.JSONDecodeError is one
        raise InputError(f"bad graph JSON: {exc}") from exc
    try:
        return build_graph(vcount, edges)
    except MgtError as exc:
        raise InputError(str(exc)) from exc


def graph_to_json(g: MetrizedGraph) -> dict:
    return {
        "vertices": g.vcount,
        "edges": [[a, b, format_scalar(length)] for a, b, length in g.edges],
    }


def load_graph(path: str) -> MetrizedGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read graph file {path!r}: {exc}") from exc
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_graph_text(text)


def save_graph(path: str, g: MetrizedGraph) -> None:
    # a pipe whose reader has gone raises BrokenPipeError here; as an InputError it
    # cannot pass for a closed stdout, which the CLI ends with exit 0
    try:
        with open(path, "w", encoding="utf-8") as fh:
            if path.endswith(".json"):
                import json

                json.dump(graph_to_json(g), fh)
                fh.write("\n")
            else:
                fh.write(format_graph_text(g))
    except OSError as exc:
        raise InputError(f"cannot write graph file {path!r}: {exc}") from exc
