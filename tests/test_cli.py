import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import getme
from getme import (
    GeneratorSpec,
    Mesh,
    detect_boundary,
    generate,
    mesh_quality,
    read_mesh,
    smart_laplace,
    smooth,
    write_mesh,
)
from getme.cli import run


def test_spectrum_standard(capsys):
    assert run(["spectrum", "--alpha0", "1", "--alpha1", "1"]) == 0
    out = capsys.readouterr().out
    assert "-0.5" in out
    assert f"{math.sqrt(3.0) / 2.0:.15g}" in out
    assert "convergent" in out


def test_spectrum_divergent(capsys):
    assert run(["spectrum", "--alpha0", "0.1", "--alpha1", "0.5"]) == 0
    assert "divergent" in capsys.readouterr().out


@pytest.mark.parametrize("gain", ["1e-200", "1e200"])
def test_spectrum_at_extreme_gains(capsys, gain):
    # the real part underflows to -0.0 at 1e-200 and overflows to -inf at
    # 1e200; the verdict comes from the gain ratio, 1
    assert run(["spectrum", "--alpha0", gain, "--alpha1", gain]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "convergent"


def test_generate_then_smooth_improves(tmp_path, capsys):
    m = tmp_path / "m.mesh"
    s = tmp_path / "s.mesh"
    report = tmp_path / "r.json"
    assert run(["generate", "--kind", "jittered-square-tri",
                "--resolution", "10", "--jitter", "0.4", "--seed", "7",
                "--out", str(m)]) == 0
    assert run(["smooth", "--in", str(m), "--smoother", "getme-adaptive",
                "--out", str(s), "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["mean"] > mesh_quality(read_mesh(m)).mean
    assert set(data) == {"mean", "min", "histogram", "trace"}


def test_smooth_equilateral_is_identity(tmp_path):
    mesh = Mesh([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]],
                [[0, 1, 2]], "triangle", boundary_vertices=[0, 1, 2])
    m = tmp_path / "eq.mesh"
    s = tmp_path / "eq_out.mesh"
    write_mesh(mesh, m)
    assert run(["smooth", "--in", str(m), "--smoother", "getme",
                "--out", str(s)]) == 0
    out = read_mesh(s)
    assert np.allclose(out.vertices, mesh.vertices, atol=1e-12)


def test_smooth_exit_3_on_remaining_invalid(tmp_path, capsys):
    # VTK stores the fixture's empty boundary set; an all-zero Medit file
    # would pin the detected boundary, here every vertex
    m = tmp_path / "flip.vtk"
    s = tmp_path / "flip_out.vtk"
    write_mesh(generate(GeneratorSpec("two-triangle-flip")), m)
    code = run(["smooth", "--in", str(m), "--smoother", "getme",
                "--guard", "none", "--max-iter", "1", "--inner", "1",
                "--out", str(s)])
    assert code == 3
    assert s.exists()  # the mesh is still written
    assert "invalid" in capsys.readouterr().err


@pytest.mark.parametrize("smoother", ["getme", "smart-laplace"])
@pytest.mark.parametrize("suffix", [".mesh", ".vtk"])
@pytest.mark.parametrize("kind", ["jittered-square-tri", "quad-grid-with-hole",
                                  "cube-tet", "cube-hex"])
def test_smooth_pins_the_detected_boundary_of_a_file_without_flags(
        tmp_path, capsys, kind, suffix, smoother):
    # a Medit file whose vertex refs are all 0, or a VTK file cut before its
    # POINT_DATA block
    mesh = generate(GeneratorSpec(kind, 6, 0.3, 7))
    m, s = tmp_path / f"in{suffix}", tmp_path / f"out{suffix}"
    write_mesh(Mesh(mesh.vertices, mesh.elements, mesh.element_type), m)
    if suffix == ".vtk":
        m.write_text(m.read_text().split("POINT_DATA")[0])
    assert run(["smooth", "--in", str(m), "--smoother", smoother,
                "--out", str(s)]) == 0
    out = read_mesh(s)
    pinned = sorted(detect_boundary(mesh))
    assert out.vertices[pinned].tobytes() == mesh.vertices[pinned].tobytes()
    assert not np.array_equal(out.vertices, mesh.vertices)
    assert "no boundary flags" in capsys.readouterr().err
    assert not read_mesh(m).boundary_given


@pytest.mark.parametrize("suffix", [".mesh", ".vtk"])
def test_smooth_exits_2_on_a_non_manifold_file(tmp_path, capsys, suffix):
    # three triangles on the edge (0, 1), without boundary flags: the input
    # file is at fault, as with a parse error
    m, s = tmp_path / f"in{suffix}", tmp_path / f"out{suffix}"
    write_mesh(Mesh([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, -1]],
                    [[0, 1, 2], [1, 0, 3], [0, 1, 4]], "triangle"), m)
    if suffix == ".vtk":
        m.write_text(m.read_text().split("POINT_DATA")[0])
    assert not read_mesh(m).boundary_given
    assert run(["smooth", "--in", str(m), "--smoother", "getme",
                "--out", str(s)]) == 2
    assert "facet (0, 1) is shared by 3 elements" in capsys.readouterr().err
    assert not s.exists()


@pytest.mark.parametrize("module", ["getme", "getme.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    out = tmp_path / "x.mesh"
    src = str(Path(getme.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", module, "generate", "--kind",
         "jittered-square-tri", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert read_mesh(out).element_type.value == "triangle"


def test_smooth_says_when_the_flags_pin_every_vertex(tmp_path, capsys):
    mesh = generate(GeneratorSpec("jittered-square-tri", 4, 0.3, 7))
    m, s = tmp_path / "in.mesh", tmp_path / "out.mesh"
    write_mesh(Mesh(mesh.vertices, mesh.elements, mesh.element_type,
                    range(len(mesh.vertices))), m)
    assert run(["smooth", "--in", str(m), "--smoother", "getme",
                "--out", str(s)]) == 0
    assert "every vertex is pinned" in capsys.readouterr().err
    assert read_mesh(s).vertices.tobytes() == read_mesh(m).vertices.tobytes()


#: A valid patch plus one element whose distinct vertex ids share one
#: coordinate, which `Mesh` and the readers accept.
COLLAPSED_ELEMENT_MESHES = {
    "triangle": ([[0.1, 0.05], [1, 0], [0, 1], [-1, 0], [0, -1]] + [[2, 2]] * 3,
                 [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1], [5, 6, 7]],
                 range(1, 5)),
    "quad": ([[0, 0], [1, 0], [2, 0], [0, 1], [1.2, 1.1], [2, 1]]
             + [[3, 3]] * 4,
             [[0, 1, 4, 3], [1, 2, 5, 4], [6, 7, 8, 9]], range(6)),
}


@pytest.mark.parametrize("etype", list(COLLAPSED_ELEMENT_MESHES))
def test_element_collapsed_to_a_point_scores_zero(tmp_path, capsys, etype):
    # the edge ratio raised DegenerateElement here, and the CLI exited 1
    verts, elems, boundary = COLLAPSED_ELEMENT_MESHES[etype]
    mesh = Mesh(verts, elems, etype, boundary)
    m, report = tmp_path / "m.mesh", tmp_path / "q.json"
    write_mesh(mesh, m)
    assert run(["quality", "--in", str(m), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["min"] == 0.0
    qualities = mesh_quality(read_mesh(m)).per_element
    assert qualities[-1] == 0.0 and np.all(qualities[:-1] > 0.0)
    for smoother in ("getme", "smart-laplace"):
        assert run(["smooth", "--in", str(m), "--smoother", smoother,
                    "--out", str(tmp_path / "s.mesh")]) == 3
        assert f"indices [{len(elems) - 1}]" in capsys.readouterr().err
    for result in (smooth(mesh), smart_laplace(mesh)):
        assert result.report.per_element[-1] == 0.0


def test_quality_subcommand(tmp_path, capsys):
    m = tmp_path / "m.vtk"
    write_mesh(generate(GeneratorSpec("cube-hex", resolution=2)), m)
    report = tmp_path / "q.json"
    assert run(["quality", "--in", str(m), "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["mean"] == pytest.approx(1.0)
    assert sum(data["histogram"]) == 8


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def test_reports_are_strict_json_when_quality_overflows(tmp_path):
    # squared edge lengths of a mesh at 1e300 overflow, so every quality
    # is NaN; the reports write it as null
    mesh = generate(GeneratorSpec("jittered-square-tri", resolution=4,
                                  jitter=0.4, seed=7))
    m = tmp_path / "huge.mesh"
    write_mesh(mesh.with_vertices(mesh.vertices * 1e300), m)
    quality, smoothed = tmp_path / "q.json", tmp_path / "s.json"
    # no errstate: an overflowed measure is NaN without a RuntimeWarning
    assert run(["quality", "--in", str(m), "--report", str(quality)]) == 0
    # 3: the overflowed elements are reported invalid
    assert run(["smooth", "--in", str(m), "--smoother", "getme",
                "--out", str(tmp_path / "s.mesh"),
                "--report", str(smoothed)]) == 3
    data = strict_json(quality.read_text())
    assert data["mean"] is None and data["min"] is None
    data = strict_json(smoothed.read_text())
    assert data["mean"] is None and data["min"] is None
    assert data["trace"][0] == {"iter": 0, "mean": None, "min": None}


def test_ode_compare_csv(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["ode-compare", "--triangle", "0,0,1,0,0.2,0.8",
                "--steps", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,t,r0_disc,r1_disc,r2_disc,R0_cont,R1_cont,R2_cont"
    assert len(lines) == 6


def test_seed_accepts_hex(tmp_path):
    a = tmp_path / "a.mesh"
    b = tmp_path / "b.mesh"
    args = ["generate", "--kind", "cube-tet", "--resolution", "2",
            "--jitter", "0.3", "--out"]
    assert run(args[:-1] + ["--seed", "255", "--out", str(a)]) == 0
    assert run(args[:-1] + ["--seed", "0xff", "--out", str(b)]) == 0
    assert read_mesh(a) == read_mesh(b)


def test_usage_errors_exit_1(capsys):
    assert run(["bogus"]) == 1
    assert run(["smooth", "--in", "x.mesh"]) == 1  # missing required flags
    assert run(["generate", "--kind", "disk-tri", "--seed", "zzz",
                "--out", "x.mesh"]) == 1
    assert run(["ode-compare", "--triangle", "1,2,3", "--steps", "2",
                "--out", "x.csv"]) == 1
    assert run(["generate", "--kind", "disk-tri", "--jitter", "0.9",
                "--out", "x.mesh"]) == 1


def test_non_finite_settings_exit_1(tmp_path):
    m, out = tmp_path / "m.mesh", tmp_path / "out.mesh"
    run(["generate", "--kind", "jittered-square-tri", "--resolution", "6",
         "--jitter", "0.3", "--seed", "3", "--out", str(m)])
    for flags in (["--error-bound", "nan"], ["--error-bound", "inf"],
                  ["--alpha0", "inf", "--alpha1", "1"]):
        assert run(["smooth", "--in", str(m), "--smoother", "getme",
                    "--out", str(out)] + flags) == 1, flags
        assert not out.exists()


def test_io_errors_exit_2(tmp_path, capsys):
    assert run(["quality", "--in", str(tmp_path / "missing.mesh")]) == 2
    bad = tmp_path / "bad.mesh"
    bad.write_text("MeshVersionFormatted 2\nDimension\n2\nVertices\noops\n")
    assert run(["quality", "--in", str(bad)]) == 2
    assert "line" in capsys.readouterr().err


def refuse(monkeypatch, *names):
    """Rebind the `getme.cli` functions `names` to record their calls and
    raise; returns the list of calls."""
    calls = []

    def called(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"cli.{name} was called")
        return call

    for name in names:
        monkeypatch.setattr(getme.cli, name, called(name))
    return calls


def test_smooth_refuses_an_unusable_out_before_reading(tmp_path, capsys,
                                                      monkeypatch):
    m, out = tmp_path / "t.mesh", tmp_path / "t.txt"
    write_mesh(generate(GeneratorSpec("jittered-square-tri", 4)), m)
    calls = refuse(monkeypatch, "read_mesh", "smooth")
    assert run(["smooth", "--in", str(m), "--out", str(out),
                "--smoother", "getme"]) == 2
    assert "cannot infer mesh format from extension '.txt'" in (
        capsys.readouterr().err)
    assert not out.exists()
    assert calls == []


def test_generate_refuses_an_unusable_out_before_generating(
        tmp_path, capsys, monkeypatch):
    out = tmp_path / "t.txt"
    calls = refuse(monkeypatch, "generate")
    assert run(["generate", "--kind", "disk-tri", "--out", str(out)]) == 2
    assert "cannot infer mesh format from extension '.txt'" in (
        capsys.readouterr().err)
    assert not out.exists()
    assert calls == []


def test_smoother_flags_forwarded(tmp_path):
    m = tmp_path / "m.mesh"
    s1 = tmp_path / "s1.mesh"
    s2 = tmp_path / "s2.mesh"
    run(["generate", "--kind", "jittered-square-tri", "--resolution", "6",
         "--jitter", "0.4", "--seed", "3", "--out", str(m)])
    assert run(["smooth", "--in", str(m), "--smoother", "getme",
                "--alpha0", "0.4", "--alpha1", "0.5", "--out", str(s1)]) == 0
    assert run(["smooth", "--in", str(m), "--smoother", "getme",
                "--out", str(s2)]) == 0
    assert read_mesh(s1) != read_mesh(s2)
    # alpha flags must come in pairs
    assert run(["smooth", "--in", str(m), "--smoother", "getme",
                "--alpha0", "0.4", "--out", str(s1)]) == 1


def test_smart_laplace_smoother(tmp_path):
    m = tmp_path / "m.mesh"
    s = tmp_path / "s.mesh"
    run(["generate", "--kind", "quad-grid-with-hole", "--resolution", "6",
         "--jitter", "0.3", "--seed", "3", "--out", str(m)])
    assert run(["smooth", "--in", str(m), "--smoother", "smart-laplace",
                "--out", str(s)]) == 0
    assert mesh_quality(read_mesh(s)).mean > mesh_quality(read_mesh(m)).mean


def test_determinism(tmp_path):
    paths = [tmp_path / "a.mesh", tmp_path / "b.mesh"]
    for p in paths:
        run(["generate", "--kind", "disk-tri", "--resolution", "4",
             "--jitter", "0.2", "--seed", "11", "--out", str(p)])
    assert paths[0].read_text() == paths[1].read_text()
