"""Mesh file readers and writers: Medit ASCII (.mesh) and VTK legacy ASCII
unstructured grids (.vtk), exactly one element type per file.

Medit vertex references double as boundary markers (tag != 0 means boundary).
Both readers read a triangle or quad mesh whose z coordinates are all zero
as a 2D mesh.
The VTK writer stores the boundary flags as integer point data so round
trips preserve them; coordinates are written with 17 significant digits so
round trips are exact at double precision.  A section that holds vertices,
elements or cell types may appear once per file; a repeat is a ParseError.
"""

import os
import re
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import (
    InvalidMesh,
    MixedElementTypes,
    ParseError,
    UnsupportedElementType,
)
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

#: A `#` comment runs to the end of its line, where str.splitlines() ends it.
_COMMENT = re.compile("#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")


class _Tokens:
    """The whitespace tokens of a text, `#` comments cut, read front to back
    a section at a time.  Lines are counted only for an error, by bisecting
    the per-line token counts."""

    def __init__(self, text, offset=0):
        # `offset` lines of the file come before `text`.
        self.text, self.offset, self.pos = text, offset, 0
        self.items = _COMMENT.sub("", text).split()

    @cached_property
    def line_ends(self):
        """The number of tokens up to the end of each line of the text."""
        return list(accumulate(len(_COMMENT.sub("", line).split())
                               for line in self.text.splitlines()))

    def error(self, message, at=None, token=None, cls=ParseError):
        """A `cls` error on the line of the token at index `at`, by default
        the last token read (before any, the first line)."""
        at = self.pos - 1 if at is None else at
        line = self.offset + 1 + bisect_right(self.line_ends, at)
        return cls(message, line=line, token=token)

    def next(self, expect):
        """The next token and its index, for `error`."""
        if self.pos >= len(self.items):
            raise self.error(f"unexpected end of file (expected {expect})")
        self.pos += 1
        return self.items[self.pos - 1], self.pos - 1

    def once(self, value, keyword, at):
        """Refuse a repeated section: `value` is what an earlier one read."""
        if value is not None:
            raise self.error(f"repeated {keyword} section", at, keyword)

    def next_int(self, what):
        return int(self.table(1, [(int, what)])[0][0])

    def next_count(self, what, row_size):
        """A count of rows of `row_size` tokens each; it must not be
        negative, and the rows must fit in the tokens that remain."""
        count = self.next_int(what)
        if count < 0 or count * row_size > len(self.items) - self.pos:
            raise self.error(f"{what} {count} is negative or exceeds the "
                             "data that follows")
        return count

    def table(self, rows, columns):
        """The next `rows` rows of one token per column, as one array per
        column.  `columns` holds each column's (kind, what), with kind float
        or int; `_column` reads each column in one call."""
        width, start = len(columns), self.pos
        block = self.items[start:start + rows * width]
        self.pos += len(block)
        try:
            arrays = [_column(kind, block[j::width])
                      for j, (kind, _) in enumerate(columns)]
        except (ValueError, OverflowError):
            for i, token in enumerate(block):  # find the first bad token
                kind, what = columns[i % width]
                try:
                    _column(kind, [token])
                except (ValueError, OverflowError):
                    expected = "number" if kind is float else "64-bit integer"
                    message = f"expected {expected} {what}, got {token!r}"
                    raise self.error(message, start + i, token) from None
        if len(block) < rows * width:  # no tokens remain: next() raises
            self.next(columns[len(block) % width][1])
        return arrays


def _column(kind, tokens):
    """`tokens` read by Python's float() or int(), as a float or an int64
    array.  An int must lie strictly between -2**63 and 2**63, so that it
    still fits int64 after Medit's shift to 0-based indices."""
    if kind is float:
        return np.array(list(map(float, tokens)), dtype=float)
    values = np.array(list(map(int, tokens)), dtype=np.int64)
    if (values == -2**63).any():
        raise OverflowError("-2**63 is out of range")
    return values


def _table(row, *columns):
    """One section of text: the format `row` applied to each row of the
    given columns (lists from `.tolist()`)."""
    return "".join(map(row.__mod__, zip(*columns)))


def _mesh(tok, vertices, elements, element_type, boundary):
    """The Mesh a reader read.  A triangle or quad mesh whose z column is
    all zero is planar and loses that column; a Mesh error is a ParseError
    at the last token read."""
    if (element_type in (ElementType.TRIANGLE, ElementType.QUAD)
            and vertices.shape[1] == 3 and np.all(vertices[:, 2] == 0.0)):
        vertices = vertices[:, :2]
    try:
        return Mesh(vertices, elements, element_type, boundary)
    except InvalidMesh as exc:
        raise tok.error(f"inconsistent mesh data: {exc}")


# ---------------------------------------------------------------------------
# Medit
# ---------------------------------------------------------------------------


def read_medit(text):
    tok = _Tokens(text)
    dimension = vertices = elements = element_type = boundary = None
    while tok.pos < len(tok.items):
        keyword, at = tok.next("keyword")
        if keyword == "MeshVersionFormatted":
            tok.next_int("format version")
        elif keyword == "Dimension":
            dimension = tok.next_int("dimension")
            if dimension not in (2, 3):
                raise tok.error(f"unsupported dimension {dimension}", at)
        elif keyword == "Vertices":
            if dimension is None:
                raise tok.error("Vertices before Dimension", at)
            tok.once(vertices, keyword, at)
            count = tok.next_count("vertex count", dimension + 1)
            columns = [(float, "coordinate")] * dimension
            *coords, refs = tok.table(count,
                                      columns + [(int, "vertex reference")])
            vertices = np.column_stack(coords)
            boundary = np.flatnonzero(refs).tolist()
        elif keyword in MEDIT_KEYWORDS:
            etype = MEDIT_KEYWORDS[keyword]
            if element_type is not None and element_type is not etype:
                raise tok.error(
                    f"{keyword} after {MEDIT_SECTION[element_type]}", at,
                    cls=MixedElementTypes)
            tok.once(elements, keyword, at)
            element_type = etype
            k = NODES_PER_ELEMENT[etype]
            count = tok.next_count("element count", k + 1)
            *index, _ = tok.table(count, [(int, "vertex index")] * k
                                  + [(int, "element reference")])
            elements = np.column_stack(index) - 1
        elif keyword == "Edges":
            count = tok.next_count("edge count", 3)
            tok.table(count, [(int, "edge entry")] * 3)
        elif keyword == "End":
            break
        else:
            raise tok.error(f"unsupported keyword {keyword!r}", at, keyword)
    else:
        raise tok.error("file is truncated (missing End keyword)")
    if vertices is None:
        raise tok.error("file has no Vertices section")
    if elements is None:
        raise tok.error("file has no element section")
    return _mesh(tok, vertices, elements, element_type, boundary)


def write_medit(mesh, fileobj):
    dim, k = mesh.dimension, mesh.elements.shape[1]
    w = fileobj.write
    w(f"MeshVersionFormatted 2\nDimension\n{dim}\n")
    w(f"Vertices\n{len(mesh.vertices)}\n"
      + _table("%.17g " * dim + "%d\n", *mesh.vertices.T.tolist(),
               mesh.boundary_mask.tolist()))
    w(f"{MEDIT_SECTION[mesh.element_type]}\n{len(mesh.elements)}\n"
      + _table("%d " * k + "0\n", *(mesh.elements + 1).T.tolist()))
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

    tok = _Tokens("\n".join(lines[4:]), offset=4)
    points = cells = cell_types = boundary_flags = None
    data_section = data_count = None
    while tok.pos < len(tok.items):
        section, at = tok.next("section")
        if section == "POINTS":
            tok.once(points, section, at)
            n = tok.next_count("point count", 3)
            tok.next("point data type")
            points = np.column_stack(tok.table(n, [(float, "coordinate")] * 3))
        elif section == "CELLS":
            tok.once(cells, section, at)
            n = tok.next_count("cell count", 1)
            cells = _read_cells(tok, n, tok.next_count("cell list size", 1))
        elif section == "CELL_TYPES":
            tok.once(cell_types, section, at)
            n = tok.next_count("cell type count", 1)
            cell_types, = tok.table(n, [(int, "cell type")])
        elif section in ("POINT_DATA", "CELL_DATA"):
            owners = points if section == "POINT_DATA" else cells
            data_count = tok.next_count(f"{section} count", 1)
            if owners is None or data_count != len(owners):
                owner = "POINTS" if section == "POINT_DATA" else "CELLS"
                raise tok.error(f"{section} count does not match {owner}", at)
            data_section = section
        elif section == "SCALARS":
            if data_section is None:
                raise tok.error("SCALARS outside POINT_DATA or CELL_DATA", at)
            name, _ = tok.next("scalar name")
            tok.next("scalar type")
            components = 1
            nxt, at = tok.next("LOOKUP_TABLE")
            if nxt != "LOOKUP_TABLE":  # optional component count
                try:
                    components = int(nxt)
                except ValueError:
                    raise tok.error("expected LOOKUP_TABLE", at, nxt) from None
                if not 1 <= components <= 4:
                    raise tok.error(f"SCALARS {name} has {components} "
                                    "components, not 1 to 4", at)
                nxt, at = tok.next("LOOKUP_TABLE")
            if nxt != "LOOKUP_TABLE":
                raise tok.error("expected LOOKUP_TABLE", at, nxt)
            tok.next("lookup table name")
            values, = tok.table(data_count * components,
                                [(float, "scalar value")])
            if name == "boundary" and data_section == "POINT_DATA":
                if components != 1:
                    raise tok.error("the boundary array must have one "
                                    "component", at)
                boundary_flags = values != 0
        else:
            raise tok.error(f"unsupported section {section!r}", at, section)

    if points is None or cells is None or cell_types is None:
        raise tok.error("missing POINTS, CELLS or CELL_TYPES section")
    if len(cell_types) != len(cells):
        raise tok.error("CELL_TYPES count does not match CELLS")
    types = np.unique(cell_types).tolist()
    if len(types) > 1:
        raise tok.error(f"mixed cell types {types}", cls=MixedElementTypes)
    code = types[0] if types else None
    if code not in VTK_CELL_TYPES:
        raise tok.error(f"unsupported VTK cell type {code}",
                        cls=UnsupportedElementType)
    etype = VTK_CELL_TYPES[code]
    k = NODES_PER_ELEMENT[etype]
    if isinstance(cells, list) or cells.shape[1] != k:
        raise tok.error(f"cell size does not match type {code}")

    boundary = np.flatnonzero(boundary_flags) if boundary_flags is not None else None
    return _mesh(tok, points, cells, etype, boundary)


def _read_cells(tok, n, size):
    """The `n` rows `k v1 .. vk` of a CELLS section of `size` tokens, as an
    (n, k) int64 array if all rows have one k > 0.  Other lists are walked
    row by row: to raise the first error in file order, or to return their
    rows as a list, which read_vtk rejects."""
    start, k = tok.pos, size // max(n, 1) - 1
    if n * (k + 1) == size and k > 0:
        try:
            sizes, *index = tok.table(n, [(int, "cell size")]
                                      + [(int, "vertex index")] * k)
            if (sizes == k).all():
                return np.column_stack(index)
        except ParseError:
            pass
        tok.pos = start
    cells = [tok.table(tok.next_count("cell size", 1), [(int, "vertex index")])[0]
             for _ in range(n)]
    if tok.pos - start != size:
        raise tok.error(f"cell list size {size} does not match the "
                        f"{tok.pos - start} tokens of the cells")
    return cells


def write_vtk(mesh, fileobj):
    n, m = len(mesh.vertices), len(mesh.elements)
    k = NODES_PER_ELEMENT[mesh.element_type]
    point = " ".join(["%.17g"] * mesh.dimension + ["0"] * (3 - mesh.dimension))
    w = fileobj.write
    w("# vtk DataFile Version 3.0\ngetme mesh\nASCII\n"
      "DATASET UNSTRUCTURED_GRID\n")
    w(f"POINTS {n} double\n"
      + _table(point + "\n", *mesh.vertices.T.tolist()))
    w(f"CELLS {m} {m * (k + 1)}\n"
      + _table(f"{k}" + " %d" * k + "\n", *mesh.elements.T.tolist()))
    w(f"CELL_TYPES {m}\n" + f"{VTK_CELL_CODE[mesh.element_type]}\n" * m)
    w(f"POINT_DATA {n}\nSCALARS boundary int 1\nLOOKUP_TABLE default\n"
      + _table("%d\n", mesh.boundary_mask.tolist()))


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


def _codec(path, format):
    """(reader, writer) for the format, by default the extension's, checked
    before the file is opened; built per call, so rebound names are used."""
    format = format or detect_format(path)
    codecs = {"medit": (read_medit, write_medit), "vtk": (read_vtk, write_vtk)}
    if format not in codecs:
        raise ValueError(f"unknown format {format!r}")
    return codecs[format]


def read_mesh(path, format=None):
    """Read a mesh file; the format defaults to the file extension."""
    reader, _ = _codec(path, format)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:  # its line as the readers count lines
        line = len((data[:exc.start].decode("ascii") + ".").splitlines())
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not ASCII",
                         line=line) from None
    return reader(text)


def write_mesh(mesh, path, format=None):
    """Write a mesh file; the format defaults to the file extension."""
    _, writer = _codec(path, format)
    with open(path, "w", encoding="ascii") as fh:
        writer(mesh, fh)
