import io

import numpy as np
import pytest

from getme import (
    GeneratorSpec,
    Mesh,
    MixedElementTypes,
    ParseError,
    UnsupportedElementType,
    generate,
    read_mesh,
    write_mesh,
)
from getme.cli import run
from getme.io import (
    MEDIT_SECTION,
    VTK_CELL_CODE,
    detect_format,
    read_medit,
    read_vtk,
    write_medit,
    write_vtk,
)
from getme.mesh import NODES_PER_ELEMENT

ALL_KINDS = ("jittered-square-tri", "disk-tri", "quad-grid-with-hole",
             "cube-tet", "cube-hex", "two-triangle-flip")


def sample_meshes():
    return [generate(GeneratorSpec(kind, resolution=3, jitter=0.2, seed=1))
            if kind != "two-triangle-flip" else
            generate(GeneratorSpec(kind))
            for kind in ALL_KINDS]


@pytest.mark.parametrize("ext", [".mesh", ".vtk"])
def test_round_trip_identity(tmp_path, ext):
    for mesh in sample_meshes():
        path = tmp_path / f"m{ext}"
        write_mesh(mesh, path)
        assert read_mesh(path) == mesh


def test_format_detection(tmp_path):
    assert detect_format("a.mesh") == "medit"
    assert detect_format("a.VTK") == "vtk"
    with pytest.raises(ParseError):
        detect_format("a.obj")
    # explicit format overrides the extension
    mesh = sample_meshes()[0]
    path = tmp_path / "data.bin"
    write_mesh(mesh, path, format="medit")
    assert read_mesh(path, format="medit") == mesh


def test_unknown_write_format_leaves_the_target_file(tmp_path):
    path = tmp_path / "keep.mesh"
    write_mesh(sample_meshes()[0], path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_mesh(sample_meshes()[1], path, format="stl")
    assert path.read_bytes() == before


def test_medit_boundary_tags(tmp_path):
    mesh = generate(GeneratorSpec("jittered-square-tri", resolution=2))
    path = tmp_path / "m.mesh"
    write_mesh(mesh, path)
    text = path.read_text()
    # 8 boundary vertices tagged 1, the center vertex tagged 0
    tags = [line.split()[-1] for line in
            text.splitlines()[text.splitlines().index("9") + 1:][:9]]
    assert tags.count("1") == 8 and tags.count("0") == 1


def test_medit_one_based_indices():
    text = """MeshVersionFormatted 2
Dimension
2
Vertices
3
0 0 1
1 0 1
0 1 1
Triangles
1
1 2 3 0
End
"""
    mesh = read_medit(text)
    assert np.array_equal(mesh.elements, [[0, 1, 2]])
    assert mesh.boundary_vertices == {0, 1, 2}


def test_medit_parse_errors_carry_line_numbers():
    bad = "MeshVersionFormatted 2\nDimension\n2\nVertices\nthree\n"
    with pytest.raises(ParseError) as err:
        read_medit(bad)
    assert err.value.line == 5
    assert "three" in str(err.value)

    with pytest.raises(ParseError, match="keyword"):
        read_medit("MeshVersionFormatted 2\nBogusSection\n")


def test_medit_mixed_element_types_rejected():
    text = """MeshVersionFormatted 2
Dimension
2
Vertices
4
0 0 1
1 0 1
0 1 1
1 1 1
Triangles
1
1 2 3 0
Quadrilaterals
1
1 2 4 3 0
End
"""
    with pytest.raises(MixedElementTypes):
        read_medit(text)


def test_vtk_mixed_and_unsupported_cells(tmp_path):
    mesh = generate(GeneratorSpec("jittered-square-tri", resolution=2))
    path = tmp_path / "m.vtk"
    write_mesh(mesh, path)
    text = path.read_text()
    with pytest.raises(MixedElementTypes):
        read_vtk(text.replace("CELL_TYPES 8\n5\n", "CELL_TYPES 8\n9\n", 1))
    line_cell = """# vtk DataFile Version 3.0
t
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 2 double
0 0 0
1 0 0
CELLS 1 3
2 0 1
CELL_TYPES 1
3
"""
    with pytest.raises(UnsupportedElementType):
        read_vtk(line_cell)  # VTK_LINE


def test_vtk_requires_unstructured_grid():
    header = "# vtk DataFile Version 3.0\nx\nASCII\nDATASET STRUCTURED_GRID\n"
    with pytest.raises(ParseError) as err:
        read_vtk(header)
    assert err.value.line == 4


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    verts = rng.uniform(-1.0, 1.0, (3, 2)) * np.pi  # irrational coordinates
    mesh = Mesh(verts, [[0, 1, 2]], "triangle", boundary_vertices=[0, 1, 2])
    for ext in (".mesh", ".vtk"):
        path = tmp_path / f"m{ext}"
        write_mesh(mesh, path)
        back = read_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices), ext


@pytest.mark.parametrize("ext", [".mesh", ".vtk"])
def test_fuzzed_truncation_raises_parse_error(tmp_path, ext):
    mesh = generate(GeneratorSpec("cube-tet", resolution=2, jitter=0.2, seed=2))
    path = tmp_path / f"m{ext}"
    write_mesh(mesh, path)
    text = path.read_text()
    rng = np.random.default_rng(5)
    cuts = sorted(set(rng.integers(1, len(text), 60).tolist()))
    for cut in cuts:
        reader = read_medit if ext == ".mesh" else read_vtk
        try:
            back = reader(text[:cut])
        except ParseError:
            continue
        # a reader may only accept cuts that lose no geometry (for VTK the
        # trailing point-data block can go missing, for Medit at most the
        # final newline after the End keyword)
        assert np.array_equal(back.vertices, mesh.vertices), cut
        assert np.array_equal(back.elements, mesh.elements), cut
        if ext == ".mesh":
            assert back == mesh, cut


MEDIT_TRIANGLE = """MeshVersionFormatted 2
Dimension
2
Vertices
3
0 0 1
1 0 1
0 1 1
Triangles
1
1 2 3 0
End
"""

VTK_TRIANGLE = """# vtk DataFile Version 3.0
t
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 3 double
0 0 0
1 0 0
0 1 0
CELLS 1 4
3 0 1 2
CELL_TYPES 1
5
POINT_DATA 3
SCALARS boundary int 1
LOOKUP_TABLE default
1
1
1
"""

FOO_SCALARS = "SCALARS foo float\nLOOKUP_TABLE default\n0.5\n-1\n2e3\n"
CELL_IDS = "SCALARS id int 1\nLOOKUP_TABLE default\n7\n"
VECTOR_SCALARS = ("SCALARS velocity double 3\nLOOKUP_TABLE default\n"
                  "1 0 0\n0 1 0\n0 0 1\n")

#: Repeated sections, as a file name and an (old, new) text pair where the
#: new text opens with the repeat.
REPEATED = {
    "medit-repeated-vertices": ("m.mesh", "Triangles",
                                "Vertices\n3\n0 0 0\n2 0 0\n0 2 0\nTriangles"),
    "medit-repeated-triangles": ("m.mesh", "End", "Triangles\n1\n1 3 2 0\nEnd"),
    "vtk-repeated-points": ("m.vtk", "CELLS 1 4",
                            "POINTS 3 double\n0 0 0\n2 0 0\n0 2 0\nCELLS 1 4"),
    "vtk-repeated-cells": ("m.vtk", "CELL_TYPES 1",
                           "CELLS 1 4\n3 0 2 1\nCELL_TYPES 1"),
    "vtk-repeated-cell-types": ("m.vtk", "POINT_DATA 3",
                                "CELL_TYPES 1\n5\nPOINT_DATA 3"),
}

#: Malformed counts and integers, as a file name and (old, new) text pairs.
#: Before the count checks these raised bare ValueError, MemoryError or
#: OverflowError, or were accepted.
MALFORMED = {
    "medit-negative-vertices": ("m.mesh", "Vertices\n3", "Vertices\n-3"),
    "medit-negative-elements": ("m.mesh", "Triangles\n1", "Triangles\n-1"),
    "medit-huge-vertices": ("m.mesh", "Vertices\n3",
                            "Vertices\n100000000000000"),
    "medit-index-beyond-int64": ("m.mesh", "1 2 3 0",
                                 "1 2 99999999999999999999 0"),
    "vtk-negative-points": ("m.vtk", "POINTS 3", "POINTS -3"),
    "vtk-point-data-short": ("m.vtk", "POINT_DATA 3", "POINT_DATA 2",
                             "1\n1\n1\n", "1\n1\n"),
    "vtk-point-data-negative": ("m.vtk", "POINT_DATA 3", "POINT_DATA -1",
                                "1\n1\n1\n", ""),
    "vtk-cell-list-size": ("m.vtk", "CELLS 1 4", "CELLS 1 9"),
    "vtk-cell-data-count": ("m.vtk", "1\n1\n1\n",
                            "1\n1\n1\nCELL_DATA 2\n" + CELL_IDS),
    "vtk-scalars-components-short": (
        "m.vtk", "1\n1\n1\n",
        "1\n1\n1\nSCALARS velocity double 3\nLOOKUP_TABLE default\n1\n0\n0\n"),
    "vtk-boundary-components": ("m.vtk", "boundary int 1",
                                "boundary int 2", "1\n1\n1\n",
                                "1 0\n1 0\n1 0\n"),
    "medit-edges-count": ("m.mesh", "Triangles", "Edges\n5\n1 2 0\nTriangles"),
    # a repeated section would replace the first, or mix their data
    **REPEATED,
}

#: Legal additions this package does not write, as a file name and (old,
#: new) text pairs; the edited file must read as the plain one does.
EXTENDED = {
    "vtk-second-scalars": ("m.vtk", "1\n1\n1\n", "1\n1\n1\n" + FOO_SCALARS),
    "vtk-scalars-before-boundary": ("m.vtk", "POINT_DATA 3\n",
                                    "POINT_DATA 3\n" + FOO_SCALARS),
    "vtk-cell-data": ("m.vtk", "1\n1\n1\n",
                      "1\n1\n1\nCELL_DATA 1\n" + CELL_IDS),
    "vtk-cell-data-first": ("m.vtk", "POINT_DATA 3\n",
                            "CELL_DATA 1\n" + CELL_IDS + "POINT_DATA 3\n"),
    "vtk-scalar-components": ("m.vtk", "1\n1\n1\n",
                              "1\n1\n1\n" + VECTOR_SCALARS),
    "medit-edges": ("m.mesh", "Triangles", "Edges\n2\n1 2 0\n2 3 1\nTriangles"),
}


def edited(case, table):
    name, *edits = table[case]
    reader, text = ((read_medit, MEDIT_TRIANGLE) if name.endswith(".mesh")
                    else (read_vtk, VTK_TRIANGLE))
    plain = reader(text)  # the unedited file reads
    for old, new in zip(edits[::2], edits[1::2]):
        assert text.count(old) == 1
        text = text.replace(old, new)
    return name, reader, text, plain


@pytest.mark.parametrize("case", sorted(EXTENDED))
def test_legal_additions_are_skipped(tmp_path, case):
    name, reader, text, plain = edited(case, EXTENDED)
    assert reader(text) == plain
    path = tmp_path / name
    path.write_text(text)
    assert run(["quality", "--in", str(path)]) == 0


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_counts_raise_parse_error(tmp_path, capsys, case):
    name, reader, text, _ = edited(case, MALFORMED)
    with pytest.raises(ParseError):
        reader(text)
    path = tmp_path / name
    path.write_text(text)
    assert run(["quality", "--in", str(path)]) == 2
    assert "error: line" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(REPEATED))
def test_repeated_section_is_refused_on_its_line(case):
    _, reader, text, _ = edited(case, REPEATED)
    repeat = REPEATED[case][2]
    keyword = repeat.split()[0]
    with pytest.raises(ParseError) as err:
        reader(text)
    line = text[:text.index(repeat)].count("\n") + 1
    assert (err.value.line, err.value.token) == (line, keyword)
    assert f"repeated {keyword} section" in str(err.value)


#: A bad token deep inside each bulk section, as (extension, the keyword
#: that opens the section, column, token, what the error expects).
DEEP_BAD = {
    "medit-coordinate": (".mesh", "Vertices", 1, "0.5.1", "number coordinate"),
    "medit-vertex-reference": (".mesh", "Vertices", 2, "1.5",
                               "64-bit integer vertex reference"),
    "medit-index-2**63": (".mesh", "Triangles", 1, str(2**63),
                          "64-bit integer vertex index"),
    "medit-index--2**63": (".mesh", "Triangles", 2, str(-2**63),
                           "64-bit integer vertex index"),
    "medit-edge-entry": (".mesh", "Edges", 1, "x",
                         "64-bit integer edge entry"),
    "vtk-points": (".vtk", "POINTS", 2, "1e", "number coordinate"),
    "vtk-cells": (".vtk", "CELLS", 2, "2.0", "64-bit integer vertex index"),
    "vtk-cell-types": (".vtk", "CELL_TYPES", 0, "5x",
                       "64-bit integer cell type"),
    "vtk-scalars": (".vtk", "LOOKUP_TABLE", 0, "one", "number scalar value"),
}


@pytest.mark.parametrize("case", sorted(DEEP_BAD))
def test_bad_token_deep_in_a_section_names_its_line(tmp_path, capsys, case):
    ext, keyword, column, bad, expected = DEEP_BAD[case]
    mesh = generate(GeneratorSpec("jittered-square-tri", resolution=8,
                                  jitter=0.2, seed=1))
    path = tmp_path / f"m{ext}"
    write_mesh(mesh, path)
    lines = path.read_text().splitlines()
    if keyword == "Edges":
        at = lines.index("Triangles")
        lines[at:at] = ["Edges", "40"] + ["1 2 0"] * 40
    opens = next(i for i, line in enumerate(lines) if line.startswith(keyword))
    # Medit puts the count on a line of its own; row 20 of 40 or more
    row = opens + (2 if ext == ".mesh" else 1) + 20
    tokens = lines[row].split()
    tokens[column] = bad
    lines[row] = " ".join(tokens)
    text = "\n".join(lines) + "\n"
    reader = read_medit if ext == ".mesh" else read_vtk
    with pytest.raises(ParseError) as err:
        reader(text)
    assert (err.value.line, err.value.token) == (row + 1, bad)
    message = f"line {row + 1}: expected {expected}, got {bad!r}"
    assert str(err.value) == message
    path.write_text(text)
    assert run(["quality", "--in", str(path)]) == 2
    assert f"error: line {row + 1}: expected" in capsys.readouterr().err


def test_tokens_read_as_python_float_and_int():
    points = [("-0.0", "1e-320"), ("1E+2", "0_1"), ("0_1", "1E+2")]
    want = np.array([[float(x), float(y)] for x, y in points])
    medit = MEDIT_TRIANGLE.replace(
        "0 0 1\n1 0 1\n0 1 1\n",
        "".join(f"{x} {y} 0_1\n" for x, y in points)).replace(
        "1 2 3 0", "0_1 2 3 0_1")
    vtk = VTK_TRIANGLE.replace(
        "0 0 0\n1 0 0\n0 1 0\n",
        "".join(f"{x} {y} -0.0\n" for x, y in points)).replace(
        "3 0 1 2", "0_3 0 1 2").replace("\n5\n", "\n0_5\n").replace(
        "1\n1\n1\n", "-0.0\n1e-320\n1E+2\n")
    for mesh, boundary in ((read_medit(medit), {0, 1, 2}),
                           (read_vtk(vtk), {1, 2})):
        assert mesh.vertices.tobytes() == want.tobytes()
        assert np.array_equal(mesh.elements, [[0, 1, 2]])
        assert mesh.boundary_vertices == boundary


@pytest.mark.parametrize("ext", [".mesh", ".vtk"])
def test_undecodable_file_is_a_parse_error(tmp_path, capsys, ext):
    mesh = sample_meshes()[0]
    path = tmp_path / f"m{ext}"
    write_mesh(mesh, path)
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(5, "# café\n")
    path.write_bytes("".join(lines).encode("utf-8"))
    with pytest.raises(ParseError) as err:
        read_mesh(path)
    assert err.value.line == 6 and "0xc3" in str(err.value)
    out = tmp_path / f"out{ext}"
    assert run(["quality", "--in", str(path)]) == 2
    assert run(["smooth", "--in", str(path), "--out", str(out),
                "--smoother", "getme"]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.count("error: line 6: byte 0xc3") == 2


def reference_write_medit(mesh, fileobj):
    """The Medit writer as first written: one value and one write at a
    time."""
    w = fileobj.write
    w("MeshVersionFormatted 2\n")
    w(f"Dimension\n{mesh.dimension}\n")
    w(f"Vertices\n{len(mesh.vertices)}\n")
    for coords, on_boundary in zip(mesh.vertices, mesh.boundary_mask):
        w(" ".join(f"{c:.17g}" for c in coords))
        w(f" {1 if on_boundary else 0}\n")
    w(f"{MEDIT_SECTION[mesh.element_type]}\n{len(mesh.elements)}\n")
    for elem in mesh.elements:
        w(" ".join(str(v + 1) for v in elem))
        w(" 0\n")
    w("End\n")


def reference_write_vtk(mesh, fileobj):
    """The VTK writer as first written: one value and one write at a
    time."""
    w = fileobj.write
    w("# vtk DataFile Version 3.0\n")
    w("getme mesh\n")
    w("ASCII\n")
    w("DATASET UNSTRUCTURED_GRID\n")
    n = len(mesh.vertices)
    w(f"POINTS {n} double\n")
    for coords in mesh.vertices:
        row = list(coords) + [0.0] * (3 - mesh.dimension)
        w(" ".join(f"{c:.17g}" for c in row) + "\n")
    k = NODES_PER_ELEMENT[mesh.element_type]
    m = len(mesh.elements)
    w(f"CELLS {m} {m * (k + 1)}\n")
    for elem in mesh.elements:
        w(f"{k} " + " ".join(str(v) for v in elem) + "\n")
    w(f"CELL_TYPES {m}\n")
    for _ in range(m):
        w(f"{VTK_CELL_CODE[mesh.element_type]}\n")
    w(f"POINT_DATA {n}\n")
    w("SCALARS boundary int 1\nLOOKUP_TABLE default\n")
    for flag in mesh.boundary_mask:
        w(f"{1 if flag else 0}\n")


def with_edge_values(mesh):
    """`mesh` with its first coordinates set to -0.0, the smallest
    subnormal and 1e16, whose shortest forms need care."""
    verts = mesh.vertices.copy()
    verts.flat[:3] = (-0.0, 5e-324, 1e16)
    return Mesh(verts, mesh.elements, mesh.element_type,
                np.flatnonzero(mesh.boundary_mask))


@pytest.mark.parametrize("res", [2, 3, 8])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_writers_match_per_row_reference(kind, res):
    spec = (GeneratorSpec(kind) if kind == "two-triangle-flip" else
            GeneratorSpec(kind, resolution=res, jitter=0.3, seed=res))
    mesh = generate(spec)
    for m in (mesh, with_edge_values(mesh)):
        for write, reference in ((write_medit, reference_write_medit),
                                 (write_vtk, reference_write_vtk)):
            got, want = io.StringIO(), io.StringIO()
            write(m, got)
            reference(m, want)
            assert got.getvalue() == want.getvalue(), write.__name__
            assert got.tell() == want.tell()
    text = io.StringIO()
    write_vtk(with_edge_values(mesh), text)
    point = text.getvalue().split("double\n")[1].split("\n")[0]
    assert point == ("-0 4.9406564584124654e-324 10000000000000000"
                     if mesh.dimension == 3 else
                     "-0 4.9406564584124654e-324 0")


def with_z_column(mesh, z):
    """A planar `mesh` as the text of a Medit file of dimension 3 whose z
    coordinates are `z`; write_medit refuses such a quad mesh."""
    rows = [f"{x!r} {y!r} {zi!r} {int(b)}\n" for (x, y), zi, b in
            zip(mesh.vertices.tolist(), z.tolist(), mesh.boundary_mask)]
    cells = [" ".join(map(str, e)) + " 0\n"
             for e in (mesh.elements + 1).tolist()]
    return "".join(["MeshVersionFormatted 2\nDimension 3\n",
                    f"Vertices\n{len(rows)}\n", *rows,
                    f"{MEDIT_SECTION[mesh.element_type]}\n{len(cells)}\n",
                    *cells, "End\n"])


@pytest.mark.parametrize("kind", ["jittered-square-tri",
                                  "quad-grid-with-hole"])
@pytest.mark.parametrize("ext", [".mesh", ".vtk"])
def test_zero_z_column_reads_as_a_planar_mesh(tmp_path, capsys, kind, ext):
    # both readers drop an all-zero z column of a triangle or quad mesh, so
    # the mesh can be smoothed
    mesh = generate(GeneratorSpec(kind, resolution=5, jitter=0.3, seed=2))
    path, out = tmp_path / f"m{ext}", tmp_path / f"out{ext}"
    if ext == ".mesh":
        path.write_text(with_z_column(mesh, np.zeros(len(mesh.vertices))))
    else:
        write_mesh(mesh, path)   # VTK points always have three coordinates
        assert " 0\n" in path.read_text().split("CELLS")[0]
    assert read_mesh(path) == mesh
    assert run(["smooth", "--in", str(path), "--out", str(out),
                "--smoother", "getme"]) == 0
    assert read_mesh(out).dimension == 2
    capsys.readouterr()


def test_medit_quads_off_the_plane_are_refused(tmp_path, capsys):
    mesh = generate(GeneratorSpec("quad-grid-with-hole", resolution=5))
    z = np.zeros(len(mesh.vertices))
    z[3] = 1e-300
    path = tmp_path / "m.mesh"
    path.write_text(with_z_column(mesh, z))
    with pytest.raises(ParseError, match="quad meshes must be 2D"):
        read_mesh(path)
    assert run(["quality", "--in", str(path)]) == 2
    assert "quad meshes must be 2D" in capsys.readouterr().err
