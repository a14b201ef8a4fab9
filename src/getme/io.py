"""Mesh file readers and writers: Medit ASCII (.mesh) and VTK legacy ASCII
unstructured grids (.vtk), exactly one element type per file.

Medit vertex references double as boundary markers (tag != 0 means boundary).
The VTK writer stores the boundary flags as integer point data so round
trips preserve them; coordinates are written with 17 significant digits so
round trips are exact at double precision.
"""

import os

import numpy as np

from .errors import MixedElementTypes, ParseError, UnsupportedElementType
from .mesh import NODES_PER_ELEMENT, ElementType, Mesh

MEDIT_KEYWORDS = {
    "Triangles": ElementType.TRIANGLE,
    "Quadrilaterals": ElementType.QUAD,
    "Tetrahedra": ElementType.TET,
    "Hexahedra": ElementType.HEX,
}
MEDIT_SECTION = {v: k for k, v in MEDIT_KEYWORDS.items()}

VTK_CELL_TYPES = {
    5: ElementType.TRIANGLE,
    9: ElementType.QUAD,
    10: ElementType.TET,
    12: ElementType.HEX,
}
VTK_CELL_CODE = {v: k for k, v in VTK_CELL_TYPES.items()}

class _Tokens:
    """Whitespace token stream with line tracking for parse errors."""

    def __init__(self, text):
        self.items = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0]
            for tok in body.split():
                self.items.append((tok, lineno))
        self.pos = 0
        self.last_line = 1

    def next(self, expect=None):
        if self.pos >= len(self.items):
            raise ParseError(
                f"unexpected end of file (expected {expect or 'more data'})",
                line=self.last_line,
            )
        tok, line = self.items[self.pos]
        self.pos += 1
        self.last_line = line
        return tok, line

    def next_int(self, what):
        tok, line = self.next(what)
        try:
            value = int(tok)
            # Magnitudes below 2**63 still fit int64 after Medit's shift to
            # 0-based indices.
            if abs(value) < 2**63:
                return value
        except ValueError:
            pass
        raise ParseError(f"expected 64-bit integer {what}, got {tok!r}",
                         line=line, token=tok)

    def next_count(self, what, row_size):
        """A count of rows of `row_size` tokens each; it must not be
        negative, and the rows must fit in the tokens that remain."""
        count = self.next_int(what)
        if count < 0 or count * row_size > len(self.items) - self.pos:
            raise ParseError(f"{what} {count} is negative or exceeds the "
                             "data that follows", line=self.last_line)
        return count

    def next_float(self, what):
        tok, line = self.next(what)
        try:
            return float(tok)
        except ValueError:
            raise ParseError(f"expected number {what}, got {tok!r}",
                             line=line, token=tok) from None

    def exhausted(self):
        return self.pos >= len(self.items)


def _fmt(x):
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# Medit
# ---------------------------------------------------------------------------


def read_medit(text):
    tok = _Tokens(text)
    dimension = None
    vertices = None
    boundary = []
    elements = None
    element_type = None
    saw_end = False

    while not tok.exhausted():
        keyword, line = tok.next("keyword")
        if keyword == "MeshVersionFormatted":
            tok.next_int("format version")
        elif keyword == "Dimension":
            dimension = tok.next_int("dimension")
            if dimension not in (2, 3):
                raise ParseError(f"unsupported dimension {dimension}", line=line)
        elif keyword == "Vertices":
            if dimension is None:
                raise ParseError("Vertices before Dimension", line=line)
            count = tok.next_count("vertex count", dimension + 1)
            vertices = np.empty((count, dimension))
            for i in range(count):
                for d in range(dimension):
                    vertices[i, d] = tok.next_float("coordinate")
                if tok.next_int("vertex reference") != 0:
                    boundary.append(i)
        elif keyword in MEDIT_KEYWORDS:
            etype = MEDIT_KEYWORDS[keyword]
            if element_type is not None and element_type is not etype:
                raise MixedElementTypes(
                    f"{keyword} after {MEDIT_SECTION[element_type]}", line=line
                )
            element_type = etype
            k = NODES_PER_ELEMENT[etype]
            count = tok.next_count("element count", k + 1)
            elements = np.empty((count, k), dtype=np.int64)
            for i in range(count):
                for d in range(k):
                    elements[i, d] = tok.next_int("vertex index") - 1
                tok.next_int("element reference")
        elif keyword == "Edges":
            count = tok.next_count("edge count", 3)
            for _ in range(3 * count):
                tok.next_int("edge entry")
        elif keyword == "End":
            saw_end = True
            break
        else:
            raise ParseError(f"unsupported keyword {keyword!r}",
                             line=line, token=keyword)

    if not saw_end:
        raise ParseError("file is truncated (missing End keyword)",
                         line=tok.last_line)
    if vertices is None:
        raise ParseError("file has no Vertices section", line=tok.last_line)
    if elements is None:
        raise ParseError("file has no element section", line=tok.last_line)
    try:
        return Mesh(vertices, elements, element_type, boundary)
    except Exception as exc:
        raise ParseError(f"inconsistent mesh data: {exc}", line=tok.last_line)


def write_medit(mesh, fileobj):
    w = fileobj.write
    w("MeshVersionFormatted 2\n")
    w(f"Dimension\n{mesh.dimension}\n")
    w(f"Vertices\n{len(mesh.vertices)}\n")
    for coords, on_boundary in zip(mesh.vertices, mesh.boundary_mask):
        w(" ".join(_fmt(c) for c in coords))
        w(f" {1 if on_boundary else 0}\n")
    w(f"{MEDIT_SECTION[mesh.element_type]}\n{len(mesh.elements)}\n")
    for elem in mesh.elements:
        w(" ".join(str(v + 1) for v in elem))
        w(" 0\n")
    w("End\n")


# ---------------------------------------------------------------------------
# VTK legacy ASCII
# ---------------------------------------------------------------------------


def read_vtk(text):
    lines = text.splitlines()
    if len(lines) < 4:
        raise ParseError("truncated VTK header", line=len(lines) or 1)
    if not lines[0].startswith("# vtk DataFile"):
        raise ParseError("missing VTK header line", line=1, token=lines[0][:40])
    if lines[2].strip().upper() != "ASCII":
        raise ParseError("only ASCII VTK files are supported", line=3)
    dataset = lines[3].split()
    if len(dataset) != 2 or dataset[0] != "DATASET" or dataset[1] != "UNSTRUCTURED_GRID":
        raise ParseError("expected DATASET UNSTRUCTURED_GRID", line=4)

    tok = _Tokens("\n".join(lines[4:]))
    # Re-base line numbers past the header.
    tok.items = [(t, line + 4) for t, line in tok.items]
    tok.last_line = 5

    points = None
    cells = None
    cell_types = None
    boundary_flags = None
    data_section = data_count = None

    while not tok.exhausted():
        section, line = tok.next("section")
        if section == "POINTS":
            n = tok.next_count("point count", 3)
            tok.next("point data type")
            points = np.empty((n, 3))
            for i in range(n):
                for d in range(3):
                    points[i, d] = tok.next_float("coordinate")
        elif section == "CELLS":
            n = tok.next_count("cell count", 1)
            size = tok.next_count("cell list size", 1)
            start = tok.pos
            cells = []
            for _ in range(n):
                k = tok.next_count("cell size", 1)
                cells.append([tok.next_int("vertex index") for _ in range(k)])
            if tok.pos - start != size:
                raise ParseError(f"cell list size {size} does not match the "
                                 f"{tok.pos - start} tokens of the cells",
                                 line=tok.last_line)
        elif section == "CELL_TYPES":
            n = tok.next_count("cell type count", 1)
            cell_types = [tok.next_int("cell type") for _ in range(n)]
        elif section in ("POINT_DATA", "CELL_DATA"):
            owners = points if section == "POINT_DATA" else cells
            data_count = tok.next_count(f"{section} count", 1)
            if owners is None or data_count != len(owners):
                owner = "POINTS" if section == "POINT_DATA" else "CELLS"
                raise ParseError(f"{section} count does not match {owner}",
                                 line=line)
            data_section = section
        elif section == "SCALARS":
            if data_section is None:
                raise ParseError("SCALARS outside POINT_DATA or CELL_DATA",
                                 line=line)
            name, _ = tok.next("scalar name")
            tok.next("scalar type")
            components = 1
            nxt, line = tok.next("LOOKUP_TABLE")
            if nxt != "LOOKUP_TABLE":  # optional component count
                try:
                    components = int(nxt)
                except ValueError:
                    raise ParseError("expected LOOKUP_TABLE",
                                     line=line, token=nxt) from None
                if not 1 <= components <= 4:
                    raise ParseError(f"SCALARS {name} has {components} "
                                     "components, not 1 to 4", line=line)
                nxt, line = tok.next("LOOKUP_TABLE")
            if nxt != "LOOKUP_TABLE":
                raise ParseError("expected LOOKUP_TABLE", line=line, token=nxt)
            tok.next("lookup table name")
            values = [tok.next_float("scalar value")
                      for _ in range(data_count * components)]
            if name == "boundary" and data_section == "POINT_DATA":
                if components != 1:
                    raise ParseError("the boundary array must have one "
                                     "component", line=line)
                boundary_flags = np.array(values) != 0
        else:
            raise ParseError(f"unsupported section {section!r}",
                             line=line, token=section)

    if points is None or cells is None or cell_types is None:
        raise ParseError("missing POINTS, CELLS or CELL_TYPES section",
                         line=tok.last_line)
    if len(cell_types) != len(cells):
        raise ParseError("CELL_TYPES count does not match CELLS",
                         line=tok.last_line)
    types = set(cell_types)
    if len(types) > 1:
        raise MixedElementTypes(f"mixed cell types {sorted(types)}",
                                line=tok.last_line)
    code = types.pop() if types else None
    if code not in VTK_CELL_TYPES:
        raise UnsupportedElementType(f"unsupported VTK cell type {code}",
                                     line=tok.last_line)
    etype = VTK_CELL_TYPES[code]
    k = NODES_PER_ELEMENT[etype]
    if any(len(c) != k for c in cells):
        raise ParseError(f"cell size does not match type {code}",
                         line=tok.last_line)

    if etype in (ElementType.TRIANGLE, ElementType.QUAD) and np.all(points[:, 2] == 0.0):
        points = points[:, :2]
    boundary = np.flatnonzero(boundary_flags) if boundary_flags is not None else None
    try:
        return Mesh(points, np.array(cells, dtype=np.int64), etype, boundary)
    except Exception as exc:
        raise ParseError(f"inconsistent mesh data: {exc}", line=tok.last_line)


def write_vtk(mesh, fileobj):
    w = fileobj.write
    w("# vtk DataFile Version 3.0\n")
    w("getme mesh\n")
    w("ASCII\n")
    w("DATASET UNSTRUCTURED_GRID\n")
    n = len(mesh.vertices)
    w(f"POINTS {n} double\n")
    for coords in mesh.vertices:
        row = list(coords) + [0.0] * (3 - mesh.dimension)
        w(" ".join(_fmt(c) for c in row) + "\n")
    k = NODES_PER_ELEMENT[mesh.element_type]
    m = len(mesh.elements)
    w(f"CELLS {m} {m * (k + 1)}\n")
    for elem in mesh.elements:
        w(f"{k} " + " ".join(str(v) for v in elem) + "\n")
    w(f"CELL_TYPES {m}\n")
    code = VTK_CELL_CODE[mesh.element_type]
    for _ in range(m):
        w(f"{code}\n")
    w(f"POINT_DATA {n}\n")
    w("SCALARS boundary int 1\nLOOKUP_TABLE default\n")
    for flag in mesh.boundary_mask:
        w(f"{1 if flag else 0}\n")


# ---------------------------------------------------------------------------
# Format dispatch
# ---------------------------------------------------------------------------

FORMATS = ("medit", "vtk")


def detect_format(path):
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".mesh":
        return "medit"
    if ext == ".vtk":
        return "vtk"
    raise ParseError(f"cannot infer mesh format from extension {ext!r}")


def read_mesh(path, format=None):
    """Read a mesh file; the format defaults to the file extension."""
    format = format or detect_format(path)
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if format == "medit":
        return read_medit(text)
    if format == "vtk":
        return read_vtk(text)
    raise ValueError(f"unknown format {format!r}")


def write_mesh(mesh, path, format=None):
    """Write a mesh file; the format defaults to the file extension."""
    format = format or detect_format(path)
    with open(path, "w", encoding="ascii") as fh:
        if format == "medit":
            write_medit(mesh, fh)
        elif format == "vtk":
            write_vtk(mesh, fh)
        else:
            raise ValueError(f"unknown format {format!r}")
