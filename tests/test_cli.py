"""End-to-end checks of the command line front end."""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import pytest

from detform.bracket import format_coefficients, import_matrix
from detform.cli import RunConfig, build_parser, config_from_args, main, run
from detform import errors, linalg, tate
from detform.ehrhart import ehrhart_pair
from detform.errors import DetformError, DimensionMismatch, InvariantViolation, UnsupportedDimension
from detform.lattice import convex_hull_with_facets, parse_support
from detform.tate import build_window
from detform.verify import CohomologyEntry, common_root_system, divisor_cohomology

from conftest import ANNULUS, ANNULUS_POINTS, BALL3_PATH, time_limit

ROOT = Path(__file__).resolve().parents[1]
CUBE = "0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 1 0\n1 0 1\n0 1 1\n1 1 1\n"
OCTA = "1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n0 0 1\n0 0 -1\n"


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cube.txt"
    path.write_text(CUBE)
    return str(path)


@pytest.fixture
def octa_file(tmp_path):
    path = tmp_path / "octa.txt"
    path.write_text(OCTA)
    return str(path)


def run_json(capsys, **kwargs):
    code = run(RunConfig(**kwargs))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_facets_schema(cube_file, capsys):
    code, out = run_json(capsys, command="facets", support_path=cube_file)
    assert code == 0
    assert out["seed"] == 0
    assert out["dimension"] == 3
    assert len(out["vertices"]) == 8
    assert len(out["facets"]) == 6
    assert len(out["lattice_points"]) == 8
    for f in out["facets"]:
        assert set(f) == {"id", "normal", "offset", "vertex_ids"}


def test_shell_reports_disk_and_boundary(cube_file, capsys):
    code, out = run_json(capsys, command="shell", support_path=cube_file,
                         shelling="indices=0,1,4", seed=9)
    assert code == 0
    assert out["seed"] == 9
    assert out["selection"] == [0, 1, 4]
    assert out["is_disk"] is True
    assert out["boundary_lattice_count"] == 8
    assert len(out["steps"]) == 3
    assert out["steps"][0]["shared_edges"] == []


@pytest.mark.parametrize("command", ["build-matrix", "evaluate", "predict-size", "verify",
                                     "cohomology", "shell"])
@pytest.mark.parametrize("spec", ["indices=0", "auto"])
def test_a_4_polytope_is_refused_up_front_by_its_dimension(tmp_path, capsys, command, spec):
    # the window and its counts need a 3-polytope, and so does the disk test
    # of a shelling (V - E + F = 1 over edges): the 4-simplex is refused
    # before any selection is searched or built, whatever the shelling
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("1 1 1 1 1\n" * 4)
    code = run(RunConfig(command=command, shelling=spec, coeffs_path=str(coeffs),
                         support_path=str(ROOT / "supports" / "simplex4.txt")))
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert json.loads(captured.err)["error"] == {
        "code": 3, "type": "UnsupportedDimension",
        "message": f"{command} needs a 3-polytope; the support spans dimension 4"}


def test_the_library_refuses_a_4_polytope_by_its_dimension():
    Q = convex_hull_with_facets(parse_support((ROOT / "supports" / "simplex4.txt").read_text()))
    for call in (lambda: build_window(Q, (0,)), lambda: ehrhart_pair(Q, (0,)),
                 lambda: divisor_cohomology(Q, (0,), 1)):
        with pytest.raises(UnsupportedDimension, match="not dimension 4"):
            call()


def test_predict_size_text_line(octa_file, capsys):
    code = run(RunConfig(command="predict-size", support_path=octa_file))
    assert code == 0
    assert capsys.readouterr().out.strip() == \
        "size 14, normalized volume 8, degree total 32"


def test_predict_size_json(octa_file, capsys):
    code, out = run_json(capsys, command="predict-size", support_path=octa_file,
                         as_json=True)
    assert code == 0
    assert out["predicted_size"] == 14
    assert out["normalized_volume"] == 8
    assert out["resultant_degree_total"] == 32
    assert out["interior_count"] == 1
    assert out["square"] is True
    assert out["size_lower_bound"] == 8
    assert out["size_ceiling_with_interior"] == 24


def test_build_matrix_cube_strip(cube_file, capsys):
    code, out = run_json(capsys, command="build-matrix", support_path=cube_file,
                         shelling="indices=0,1,4")
    assert code == 0
    assert out["size"] == 6
    assert out["blocks"]["B"] == [6, 6]
    assert out["blocks"]["L"] == [6, 0]
    assert len(out["cells"]) == 36
    assert len(out["support_order"]) == 8
    matrix = import_matrix(out)
    assert matrix.size == 6


def test_build_matrix_dump_tate(octa_file, capsys):
    code, out = run_json(capsys, command="build-matrix", support_path=octa_file,
                         shelling="indices=0,1,2,4", dump_tate=True)
    assert code == 0
    assert out["size"] == 14
    window = out["tate_window"]
    assert set(window["terms"]) == {"-1", "0", "1", "2"}
    assert set(window["maps"]) == {"0", "1", "2"}


def test_output_file_instead_of_stdout(cube_file, tmp_path, capsys):
    target = tmp_path / "out.json"
    code = run(RunConfig(command="build-matrix", support_path=cube_file,
                         shelling="indices=0,1,4", output_path=str(target)))
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["size"] == 6


def test_evaluate_common_root_prints_zero(octa_file, tmp_path, capsys):
    code, built = run_json(capsys, command="build-matrix", support_path=octa_file,
                           shelling="indices=0,1,2,4")
    support = [tuple(p) for p in built["support_order"]]
    system = common_root_system(support, (1, 2, -1), seed=5)
    coeffs = tmp_path / "root.coeffs"
    coeffs.write_text(format_coefficients(system))
    code = run(RunConfig(command="evaluate", support_path=octa_file,
                         shelling="indices=0,1,2,4", coeffs_path=str(coeffs)))
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_evaluate_json_output(octa_file, tmp_path, capsys):
    code, built = run_json(capsys, command="build-matrix", support_path=octa_file,
                           shelling="indices=0,1,2,4")
    support = [tuple(p) for p in built["support_order"]]
    system = common_root_system(support, (2, 1, 1), seed=8)
    coeffs = tmp_path / "root.coeffs"
    coeffs.write_text(format_coefficients(system))
    code, out = run_json(capsys, command="evaluate", support_path=octa_file,
                         shelling="indices=0,1,2,4", coeffs_path=str(coeffs),
                         as_json=True)
    assert code == 0
    assert out["determinant"] == "0"
    assert len(out["support_order"]) == 7


def test_evaluate_without_coeffs_is_parse_error(octa_file, capsys):
    code = run(RunConfig(command="evaluate", support_path=octa_file,
                         shelling="indices=0,1,2,4"))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ParseError"


def test_verify_all_checks_pass(octa_file, capsys):
    code, out = run_json(capsys, command="verify", support_path=octa_file,
                         seed=3, roots=2)
    assert code == 0
    assert out["all_passed"] is True
    names = [c["name"] for c in out["checks"]]
    assert "selection_is_disk" in names
    assert "common_root_determinants_vanish" in names
    assert "generic_determinant_nonzero" in names
    assert all(c["passed"] for c in out["checks"])


def test_verify_certifies_a_window_without_degree_0_generators(tmp_path, capsys):
    # 2Δ has no point off three facets, so the middle term has no degree-0
    # generator and its cover never scans degrees 0..-2: those pieces are empty
    path = tmp_path / "simplex.txt"
    path.write_text("0 0 0\n1 0 0\n0 1 0\n0 0 1\n")
    code, out = run_json(capsys, command="verify", support_path=str(path),
                         shelling="indices=0,1,2", roots=1)
    assert code == 0
    assert out["all_passed"] is True


# verify's checks in table order, each with its detail on supports/octa.txt,
# --shelling indices=0,1,2,4 --roots 1 --seed 0
OCTA_CHECKS = (
    ("selection_is_disk", True),
    ("facet_union_contractible", True),
    ("window_counts_and_exactness",
     {"-1": {"-1": 1, "-4": 10}, "0": {"0": 10, "-3": 1}, "1": {"1": 35}, "2": {"2": 84}}),
    ("matrix_size_matches_prediction", {"size": 14}),
    ("middle_cohomology_vanishes", "zero for k in -2..2"),
    ("common_root_determinants_vanish", "1 common-root systems vanish"),
    ("generic_determinant_nonzero", "nonzero on a generic system"),
)


def _raise_boom(Q, sel):
    raise DimensionMismatch("boom")


@pytest.mark.parametrize("name, stand_in, failures", [
    ("is_disk", lambda Q, sel: False,
     {"selection_is_disk": "AssertionError: not a disk"}),
    ("reduced_cohomology", lambda Q, sel: (0, 1, 0),
     {"facet_union_contractible": "AssertionError: facet union has reduced homology"}),
    ("build_window", _raise_boom,
     {"window_counts_and_exactness": "DimensionMismatch: boom",
      "matrix_size_matches_prediction": "AssertionError: matrix size None, predicted 14",
      "common_root_determinants_vanish": "AssertionError: matrix unavailable",
      "generic_determinant_nonzero": "AssertionError: matrix unavailable"}),
    ("cohomology_profile", lambda *args, **kw: [CohomologyEntry(-2, (0, 1, 0, 0), 3, True)],
     {"middle_cohomology_vanishes": "AssertionError: twist -2 has middle cohomology (0, 1, 0, 0)"}),
    ("evaluate", lambda matrix, system: 1,
     {"common_root_determinants_vanish":
      "AssertionError: determinant 1 at common root (1, 1, -3)"}),
    ("evaluate", lambda matrix, system: 0,
     {"generic_determinant_nonzero": "AssertionError: determinant vanished on 3 random systems"}),
], ids=["not-a-disk", "homology", "no-window", "middle-cohomology", "root-nonzero",
        "generic-zero"])
def test_verify_failure_output(capsys, monkeypatch, name, stand_in, failures):
    # every check runs whatever failed before it; the failed ones carry
    # "Type: message", and the common-root points are the seed's first draws
    monkeypatch.setattr(f"detform.cli.{name}", stand_in)
    code, out = run_json(capsys, command="verify", shelling="indices=0,1,2,4", roots=1,
                         support_path=str(ROOT / "supports" / "octa.txt"))
    assert code == 6
    assert out["all_passed"] is False
    assert out["checks"] == [
        {"name": check, "passed": False, "detail": failures[check]} if check in failures
        else {"name": check, "passed": True, "detail": detail}
        for check, detail in OCTA_CHECKS]


def test_cohomology_profile(octa_file, capsys):
    code, out = run_json(capsys, command="cohomology", support_path=octa_file,
                         shelling="indices=0,1,2,4", k_range="-1..1")
    assert code == 0
    by_k = {e["k"]: e for e in out["entries"]}
    assert sorted(by_k) == [-1, 0, 1]
    assert by_k[1]["cohomology_dims"] == [1, 0, 0, 0]
    assert by_k[0]["cohomology_dims"] == [0, 0, 0, 0]
    assert by_k[-1]["cohomology_dims"] == [0, 0, 0, 1]
    assert all(e["stabilized"] for e in out["entries"])


def test_cohomology_unstabilized_box_exits_six(octa_file, capsys):
    code = run(RunConfig(command="cohomology", support_path=octa_file,
                         shelling="indices=0,1,2,4", k_range="3..3",
                         box_radius=2))
    assert code == 6
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NotStabilized"


def test_bad_k_range_is_parse_error(octa_file, capsys):
    code = run(RunConfig(command="cohomology", support_path=octa_file,
                         shelling="indices=0,1,2,4", k_range="nope"))
    assert code == 2


@pytest.mark.parametrize("command, options, message", [
    ("cohomology", {"box_radius": 0}, "--box-radius must be at least 1, got 0"),
    ("cohomology", {"box_radius": -3}, "--box-radius must be at least 1, got -3"),
    ("cohomology", {"k_range": "2..-2"}, "empty twist range '2..-2'"),
    ("verify", {"roots": 0}, "--roots must be at least 1, got 0"),
    ("verify", {"roots": -2}, "--roots must be at least 1, got -2"),
    ("verify", {"box_radius": 0}, "--box-radius must be at least 1, got 0"),
], ids=["box-0", "box-neg", "empty-k-range", "roots-0", "roots-neg", "verify-box-0"])
def test_bad_arguments_exit_two(octa_file, capsys, command, options, message):
    code = run(RunConfig(command=command, support_path=octa_file,
                         shelling="indices=0,1,2,4", **options))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["type"], err["message"]) == ("ParseError", message)


def test_feasibility_dim3(cube_file, capsys):
    code, out = run_json(capsys, command="feasibility", support_path=cube_file)
    assert code == 0
    assert out["feasible"] is True
    assert len(out["selection"]) >= 1

    # a selection with no shelling order is an answer here, not exit 4
    code, out = run_json(capsys, command="feasibility", support_path=cube_file,
                         shelling="indices=2,3")
    assert code == 0
    assert out == {"seed": 0, "dimension": 3, "feasible": False,
                   "detail": "selection (2, 3) admits no shelling order"}
    assert list(out) == ["seed", "dimension", "feasible", "detail"]


def test_feasibility_dim4(tmp_path, capsys):
    def simplex_file(d):
        rows = ["0 0 0 0"] + [" ".join(str(d * (i == j)) for j in range(4))
                              for i in range(4)]
        path = tmp_path / f"simplex{d}.txt"
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    code, out = run_json(capsys, command="feasibility",
                         support_path=simplex_file(3))
    assert code == 0
    assert out["feasible"] is True
    assert out["witness_facet"] is not None

    code, out = run_json(capsys, command="feasibility",
                         support_path=simplex_file(4))
    assert code == 0
    assert out["feasible"] is False


def test_feasibility_high_dim(tmp_path, capsys):
    rows = ["0 0 0 0 0"] + [" ".join(str(2 * (i == j)) for j in range(5))
                            for i in range(5)]
    path = tmp_path / "simplex5.txt"
    path.write_text("\n".join(rows) + "\n")

    code, out = run_json(capsys, command="feasibility", support_path=str(path))
    assert code == 0
    assert out["feasible"] is True
    assert out["selection"] == [0, 1, 2]

    code, out = run_json(capsys, command="feasibility", support_path=str(path),
                         shelling="indices=0")
    assert code == 0
    assert out["feasible"] is False

    code, out = run_json(capsys, command="feasibility", support_path=str(path),
                         shelling="indices=0,1,2,3,4,5")
    assert code == 0
    assert out == {"seed": 0, "dimension": 5, "feasible": False,
                   "detail": "selection must be a nonempty proper facet subset",
                   "selection": [0, 1, 2, 3, 4, 5]}
    assert list(out) == ["seed", "dimension", "feasible", "detail", "selection"]


def test_feasibility_in_dimension_two_exits_three(tmp_path, capsys):
    path = tmp_path / "triangle.txt"
    path.write_text("0 0\n1 0\n0 1\n")
    code = run(RunConfig(command="feasibility", support_path=str(path)))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["type"], err["message"]) == ("DegenerateSpan",
                                             "feasibility undefined in dimension 2")


def test_missing_file_exits_two(capsys):
    code = run(RunConfig(command="facets", support_path="/nonexistent/f.txt"))
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == 2


def test_bad_support_token_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 0\n1 x 0\n")
    code = run(RunConfig(command="facets", support_path=str(path)))
    assert code == 2


def test_degenerate_span_exits_three(tmp_path, capsys):
    path = tmp_path / "flat.txt"
    path.write_text("0 0 0\n1 0 0\n0 1 0\n1 1 0\n")
    code = run(RunConfig(command="facets", support_path=str(path)))
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "DegenerateSpan"


def test_tied_direction_exits_three(cube_file, capsys):
    code = run(RunConfig(command="shell", support_path=cube_file,
                         shelling="direction=0,0,1:2"))
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == \
        "NonGenericDirection"


def test_no_disk_selection_exits_four(cube_file, capsys):
    code = run(RunConfig(command="shell", support_path=cube_file,
                         shelling="indices=2,3"))
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"]["code"] == 4


def test_annulus_selection_exits_four(tmp_path, capsys):
    # the shelling pass refuses the annulus without searching its orders
    path = tmp_path / "annulus.txt"
    path.write_text("".join(f"{x} {y} {z}\n" for x, y, z in ANNULUS_POINTS))
    ids = ",".join(map(str, ANNULUS))
    code = run(RunConfig(command="shell", support_path=str(path), shelling=f"indices={ids}"))
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"] == {
        "code": 4, "type": "NoDiskSelection",
        "message": f"selection {ANNULUS} admits no shelling order"}


EVERY_CUBE_FACET = "indices=0,1,2,3,4,5"


@pytest.mark.parametrize("command", ["shell", "build-matrix"])
def test_a_selection_of_every_facet_exits_four(cube_file, capsys, command):
    # the whole boundary is no disk: the shelling pass refuses its last step
    code = run(RunConfig(command=command, support_path=cube_file, shelling=EVERY_CUBE_FACET))
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "code": 4, "type": "NoDiskSelection",
        "message": "order must be a nonempty proper subset of the facets"}


def test_feasibility_of_every_facet_is_infeasible(cube_file, capsys):
    code, out = run_json(capsys, command="feasibility", support_path=cube_file,
                         shelling=EVERY_CUBE_FACET)
    assert code == 0
    assert out == {"seed": 0, "dimension": 3, "feasible": False,
                   "detail": "order must be a nonempty proper subset of the facets"}


@pytest.fixture
def cross5_file(tmp_path):
    # the 5-dimensional cross-polytope: 32 facets, past the exhaustive search
    rows = ["0 0 0 0 0"] + [" ".join(str(s * (i == j)) for j in range(5))
                            for i in range(5) for s in (1, -1)]
    path = tmp_path / "cross5.txt"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_feasibility_past_the_facet_limit_exits_three(cross5_file, capsys):
    code = run(RunConfig(command="feasibility", support_path=cross5_file))
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["code"], err["message"]) == (3, "facet count too large for exhaustive search")


def test_the_facet_limit_refusal_is_typed(cross5_file, capsys):
    assert run(RunConfig(command="feasibility", support_path=cross5_file)) == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "SearchTooLarge"


def test_shell_refuses_a_5_polytope_before_any_search(cross5_file, capsys):
    # no direction in [-9, 9]^5 sweeps the cross-polytope without a tie, so
    # a search past its 32 facets would never end
    with time_limit(10):
        code = run(RunConfig(command="shell", support_path=cross5_file))
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert json.loads(captured.err)["error"] == {
        "code": 3, "type": "UnsupportedDimension",
        "message": "shell needs a 3-polytope; the support spans dimension 5"}


@pytest.mark.parametrize("command", ["shell", "predict-size", "cohomology", "feasibility",
                                     "build-matrix", "verify"])
def test_a_support_with_no_generic_direction_exits_three(capsys, command):
    # the radius-3 ball's 56 facets are past the enumeration, and every
    # direction the sweep may draw ties two of them: the search is refused
    with time_limit(5):
        code = run(RunConfig(command=command, support_path=str(BALL3_PATH)))
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert json.loads(captured.err)["error"] == {
        "code": 3, "type": "NonGenericDirection",
        "message": "every nonzero direction in [-9, 9]^3 ties two polar vertices"}


def test_bad_shelling_spec_exits_two(cube_file, capsys):
    for spec in ("bogus", "indices=a,b", "direction=1,2,3"):
        code = run(RunConfig(command="shell", support_path=cube_file,
                             shelling=spec))
        assert code == 2, spec
        capsys.readouterr()


@pytest.mark.parametrize("coords", ["9,5,3,7", "9,5"])
def test_direction_of_another_dimension_exits_two(octa_file, capsys, coords):
    code = run(RunConfig(command="shell", support_path=octa_file,
                         shelling=f"direction={coords}:4"))
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ParseError"
    assert "needs 3 coordinates" in error["message"]


@pytest.mark.parametrize("command", ["shell", "build-matrix", "feasibility"])
@pytest.mark.parametrize("steps", [0, 8])
def test_direction_step_count_outside_the_facets_exits_two(octa_file, capsys, command, steps):
    # the octahedron has 8 facets, so a sweep takes 1..7 of them
    code = run(RunConfig(command=command, support_path=octa_file,
                         shelling=f"direction=9,5,3:{steps}"))
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ParseError"
    assert "outside 1..7" in error["message"]


@pytest.mark.parametrize("command, field", [("facets", "support_path"),
                                            ("evaluate", "coeffs_path")])
def test_undecodable_input_file_exits_two(octa_file, tmp_path, capsys, command, field):
    path = tmp_path / "undecodable.txt"
    path.write_bytes(b"\xff\xfe1 0 0\n")
    paths = {"support_path": octa_file, field: str(path)}
    code = run(RunConfig(command=command, shelling="indices=0,1,2,4", **paths))
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "UnicodeDecodeError"


@pytest.mark.parametrize("command", ["shell", "build-matrix", "feasibility"])
@pytest.mark.parametrize("spec", ["indices=99", "indices=-1"])
def test_out_of_range_facet_ids_exit_two(cube_file, capsys, command, spec):
    code = run(RunConfig(command=command, support_path=cube_file, shelling=spec))
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ParseError"
    assert "0..5" in error["message"]


@pytest.mark.parametrize("command", ["shell", "build-matrix", "feasibility"])
def test_repeated_facet_ids_exit_two(octa_file, capsys, command):
    code = run(RunConfig(command=command, support_path=octa_file, shelling="indices=0,0,1"))
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert (error["type"], error["message"]) == (
        "ParseError", "facet ids in 'indices=0,0,1' repeat")


def test_dimension_mismatch_exits_five(octa_file, capsys, monkeypatch):
    def explode(Q, sel):
        raise DimensionMismatch("forced for the error-path test")

    monkeypatch.setattr("detform.cli.build_window", explode)
    code = run(RunConfig(command="build-matrix", support_path=octa_file,
                         shelling="indices=0,1,2,4"))
    assert code == 5
    assert json.loads(capsys.readouterr().err)["error"]["code"] == 5


def test_invariant_violation_exits_seven(octa_file, capsys, monkeypatch):
    def explode(Q, sel):
        raise InvariantViolation("forced for the error-path test")

    monkeypatch.setattr("detform.cli.build_window", explode)
    code = run(RunConfig(command="build-matrix", support_path=octa_file,
                         shelling="indices=0,1,2,4"))
    assert code == 7
    assert json.loads(capsys.readouterr().err)["error"]["code"] == 7


def test_unexpected_exception_exits_seven(octa_file, capsys, monkeypatch):
    # any exception outside the typed ones is a bug: a JSON diagnosis naming
    # its type and origin, never a traceback; the origin is a path from the
    # package's parent on, or a base name outside the package, so no
    # absolute path appears and the diagnosis is the same wherever it runs
    def explode(Q, sel):
        raise KeyError("forced for the error-path test")

    def explode_inside(Q, sel):
        linalg.primitive_integer_vector({})  # min() of no columns

    line = explode.__code__.co_firstlineno + 1
    for where, kind, fault in ((rf"test_cli\.py:{line} in explode", "KeyError", explode),
                               (r"detform/linalg\.py:\d+ in primitive_integer_vector",
                                "ValueError", explode_inside)):
        monkeypatch.setattr("detform.cli.build_window", fault)
        code = run(RunConfig(command="build-matrix", support_path=octa_file,
                             shelling="indices=0,1,2,4"))
        assert code == 7
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert (err["code"], err["type"]) == (7, kind)
        assert re.fullmatch(where, err["where"])
        assert "Traceback" not in captured.err
        assert str(Path(linalg.__file__).resolve().parent) not in captured.err


def test_untyped_detform_error_exits_seven(octa_file, capsys, monkeypatch):
    # an error of the package with no exit code of its own is a bug, not a
    # failed verification
    def explode(Q, sel):
        raise DetformError("forced for the error-path test")

    monkeypatch.setattr("detform.cli.build_window", explode)
    code = run(RunConfig(command="build-matrix", support_path=octa_file,
                         shelling="indices=0,1,2,4"))
    assert code == 7
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["code"], err["type"]) == (7, "DetformError")


def test_every_detform_error_exits_with_its_exit_code(octa_file, capsys, monkeypatch):
    # the base class and each subclass, raised where the window is built,
    # with the exit codes the README lists
    classes = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, DetformError)]
    assert {cls.__name__: cls.exit_code for cls in classes} == {
        "ParseError": 2, "EmptyInput": 2, "DegenerateSpan": 3, "UnsupportedDimension": 3,
        "NonGenericDirection": 3, "SearchTooLarge": 3, "NoDiskSelection": 4,
        "DimensionMismatch": 5, "InterpolationMismatch": 5, "DegreePatternViolation": 5,
        "NotStabilized": 6, "DetformError": 7, "InvariantViolation": 7}
    for cls in classes:
        def explode(Q, sel, cls=cls):
            raise cls("forced")

        monkeypatch.setattr("detform.cli.build_window", explode)
        code = run(RunConfig(command="build-matrix", support_path=octa_file,
                             shelling="indices=0,1,2,4"))
        err = json.loads(capsys.readouterr().err)["error"]
        assert code == err["code"] == cls.exit_code, cls
        assert err["type"] == cls.__name__


def test_main_reads_the_arguments_after_the_program_name(octa_file, capsys, monkeypatch):
    # the console script calls main() with no arguments
    monkeypatch.setattr("sys.argv", ["detform", "facets", str(octa_file), "--json"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 3


def test_inhomogeneous_left_map_exits_seven(octa_file, capsys, monkeypatch):
    # a left cover whose degree -4 column also carries a degree -1 column
    # still composes to zero, so only the degree check can catch it
    real_cover = tate.minimal_free_cover

    def mixed_cover(phi, degree_floor):
        onto, dims = real_cover(phi, degree_floor)
        if degree_floor == -4:
            degrees = onto.source.degrees()
            deep, shallow = degrees.index(-4), degrees.index(-1)
            column = dict(onto.columns[deep])
            for key, v in onto.columns[shallow].items():
                column[key] = column.get(key, 0) + v
            onto.columns[deep] = {key: v for key, v in column.items() if v}
        return onto, dims

    monkeypatch.setattr("detform.tate.minimal_free_cover", mixed_cover)
    code = run(RunConfig(command="build-matrix", support_path=octa_file,
                         shelling="indices=0,1,2,4"))
    assert code == 7
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "InvariantViolation"
    assert "has degrees" in err["message"]


def test_a_phi2_coefficient_of_two_fails_the_middle_audit(octa_file, capsys, monkeypatch):
    # one coefficient of phi_2 set to 2, in the column of the first source
    # point p with every p - a_0 + a a source point: the degree-0 Koszul
    # column at m = p - a_0 is then no kernel vector, so the middle cover
    # finds 9 of the 10 degree-0 generators predicted, and the audit refuses it
    real_phi2 = tate.build_phi2

    def doubled(Q, sel):
        phi = real_phi2(Q, sel)
        at = {g.weight: j for j, g in enumerate(phi.source.generators)}
        support = tate.support_of(phi.source.algebra)
        j = next(j for p, j in at.items() if all(
            tuple(x - y + z for x, y, z in zip(p, support[0], a)) in at for a in support))
        column = phi.columns[j]
        column[next(key for key in column if key[1] != (0,))] = 2
        return phi

    monkeypatch.setattr(tate, "build_phi2", doubled)
    code = run(RunConfig(command="build-matrix", support_path=octa_file,
                         shelling="indices=0,1,2,4"))
    assert code == DimensionMismatch.exit_code == 5
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "DimensionMismatch"
    assert err["message"] == ("middle term: generator counts {0: 9, -1: 2, -3: 1},"
                              " predicted {0: 10, -3: 1}")


def test_invariant_violation_in_verify_exits_seven(octa_file, capsys, monkeypatch):
    # a broken invariant is a bug: verify must not report it as a failed check
    def explode(Q, sel):
        raise InvariantViolation("forced for the error-path test")

    monkeypatch.setattr("detform.cli.build_window", explode)
    code = run(RunConfig(command="verify", support_path=octa_file, roots=1))
    assert code == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["code"] == 7


def test_untyped_detform_error_in_verify_exits_seven(octa_file, capsys, monkeypatch):
    # an error of the package with no exit code of its own is a bug in
    # verify too: reported as in build-matrix, not as a failed check and exit 6
    def explode(Q, sel):
        raise DetformError("forced")

    monkeypatch.setattr("detform.cli.build_window", explode)
    code = run(RunConfig(command="verify", support_path=octa_file, roots=1))
    assert code == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["code"], err["type"], err["message"]) == (7, "DetformError", "forced")


def test_unexpected_exception_in_verify_exits_seven(octa_file, capsys, monkeypatch):
    # only typed errors with an exit code below 7 and _fail's AssertionError
    # are failed checks; any other exception is a bug, diagnosed as in
    # build-matrix
    def explode(Q, sel):
        raise KeyError("forced for the error-path test")

    monkeypatch.setattr("detform.cli.build_window", explode)
    code = run(RunConfig(command="verify", support_path=octa_file, roots=1))
    assert code == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["code"], err["type"]) == (7, "KeyError")
    assert err["where"].endswith(" in explode")


def _raise_value_error(Q, sel):
    raise ValueError("forced for the error-path test")


@pytest.mark.parametrize("command", ["build-matrix", "verify", "feasibility"])
def test_a_value_error_is_a_bug(octa_file, cross5_file, capsys, monkeypatch, command):
    # a ValueError the package does not type is neither bad input (exit 3),
    # nor, inside verify, a failed check (exit 6), nor, in dimension 5 and
    # up, an infeasible selection (only NoDiskSelection is)
    high_dim = command == "feasibility"
    site = "feasibility_high_dim" if high_dim else "build_window"
    monkeypatch.setattr(f"detform.cli.{site}", _raise_value_error)
    code = run(RunConfig(command=command, support_path=cross5_file if high_dim else octa_file,
                         shelling="indices=0,1,2,4", roots=1))
    assert code == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["code"], err["type"]) == (7, "ValueError")
    assert err["where"].endswith(" in _raise_value_error")


@pytest.mark.parametrize("site, command", [
    ("detform.bracket.det_bareiss", "evaluate"),
    ("detform.bracket.det_bareiss", "verify"),
    ("detform.ehrhart._differences", "predict-size"),
    ("detform.ehrhart._differences", "verify"),
])
def test_a_malformed_internal_call_exits_seven(octa_file, tmp_path, capsys, monkeypatch,
                                                site, command):
    # only the package's own code calls det_bareiss and _differences, so
    # a matrix or value list of the wrong shape there is a bug: not bad
    # geometry (exit 3) and, inside verify, not a failed check (exit 6)
    code, built = run_json(capsys, command="build-matrix", support_path=octa_file,
                           shelling="indices=0,1,2,4")
    coeffs = tmp_path / "root.coeffs"
    coeffs.write_text(format_coefficients(
        common_root_system([tuple(p) for p in built["support_order"]], (1, 2, -1), seed=5)))
    module, name = site.rsplit(".", 1)
    real = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(site, lambda arg: real(arg[:-1]))
    code = run(RunConfig(command=command, support_path=octa_file, shelling="indices=0,1,2,4",
                         coeffs_path=str(coeffs), roots=1))
    assert code == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["code"], err["type"]) == (7, "InvariantViolation")


def test_fixed_seed_is_bit_identical(octa_file, capsys):
    def capture():
        code = run(RunConfig(command="verify", support_path=octa_file,
                             seed=11, roots=2))
        return code, capsys.readouterr().out

    first = capture()
    second = capture()
    assert first == second
    assert first[0] == 0


def test_parser_round_trip(cube_file):
    args = build_parser().parse_args(
        ["build-matrix", cube_file, "--shelling", "indices=0,1,4",
         "--seed", "4", "--dump-tate"])
    config = config_from_args(args)
    assert config.command == "build-matrix"
    assert config.seed == 4
    assert config.dump_tate is True
    assert config.coeffs_path is None


def test_parser_defaults_are_run_config_defaults():
    for command in ("facets", "shell", "predict-size", "build-matrix", "evaluate",
                    "verify", "cohomology", "feasibility"):
        required = {"coeffs_path": "c"} if command == "evaluate" else {}
        argv = [command, "f"] + (["--coeffs", "c"] if required else [])
        assert config_from_args(build_parser().parse_args(argv)) == RunConfig(
            command=command, support_path="f", **required)


def test_main_exits_zero(cube_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["predict-size", cube_file, "--shelling", "indices=0,1,4"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("size 6")


def test_main_accepts_space_separated_negative_k_range(octa_file, capsys):
    # "-1..1" after a space must not be read as an option flag
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", octa_file, "--shelling", "indices=0,1,2,4",
              "--k-range", "-1..1"])
    assert exc.value.code == 0
    out = json.loads(capsys.readouterr().out)
    assert [e["k"] for e in out["entries"]] == [-1, 0, 1]
