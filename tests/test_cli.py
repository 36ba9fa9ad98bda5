"""Command-line interface: exit codes, output formats, determinism."""
import json

import pytest

from confighom.cli import EXIT_INPUT, EXIT_MISMATCH, EXIT_OK, main
from confighom.graphs import (complete_graph, cycle_graph, graph_to_json,
                              lasso_graph)


@pytest.fixture
def lasso_file(tmp_path):
    path = tmp_path / "lasso.json"
    path.write_text(json.dumps(graph_to_json(lasso_graph())))
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(graph_to_json(cycle_graph(3))))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_homology_json(capsys, lasso_file):
    code, out = run(capsys, "homology", lasso_file, "-n", "2", "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["h1"] == "Z^2"
    assert report["cells"] == [6, 8, 1]
    assert len(report["input"]) == 64


def test_predict_breakdown(capsys, lasso_file):
    code, out = run(capsys, "predict", lasso_file, "-n", "3", "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["h1"] == "Z^3"
    assert report["beta1"] == 1 and report["N1"] == 2


def test_compare_match(capsys, lasso_file):
    code, out = run(capsys, "compare", lasso_file, "-n", "2", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "MATCH"


def test_compare_mismatch_self_test(capsys, triangle_file):
    # an unsubdivided triangle cannot hold 3 particles in distinct cells
    # with room to move, so the exact computation disagrees on purpose
    code, out = run(capsys, "compare", triangle_file, "-n", "3",
                    "--no-subdivide", "--json")
    assert code == EXIT_MISMATCH
    assert json.loads(out)["verdict"] == "MISMATCH"


def test_compare_corpus(capsys, tmp_path):
    for name, g in (("k4", complete_graph(4)), ("c5", cycle_graph(5))):
        (tmp_path / f"{name}.json").write_text(json.dumps(graph_to_json(g)))
    code, out = run(capsys, "compare", "--corpus", str(tmp_path), "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert set(report["graphs"]) == {"k4.json", "c5.json"}
    assert report["verdict"] == "MATCH"


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _ = run(capsys, "homology", str(tmp_path / "nope.json"))
    assert code == EXIT_INPUT


def test_unknown_subcommand_is_input_error(capsys):
    assert main(["frobnicate"]) == EXIT_INPUT


def test_json_output_is_deterministic(capsys, lasso_file):
    _, first = run(capsys, "homology", lasso_file, "-n", "3", "--json")
    _, second = run(capsys, "homology", lasso_file, "-n", "3", "--json")
    assert first == second
    assert '"elapsed"' not in first


def test_human_output_has_timing(capsys, lasso_file):
    _, out = run(capsys, "predict", lasso_file)
    assert "elapsed:" in out


def test_subdivision_notice(capsys, lasso_file):
    _, out = run(capsys, "homology", lasso_file, "-n", "3", "--json")
    assert "auto-subdivided" in json.loads(out)["notice"]


def test_star_values(capsys):
    code, out = run(capsys, "star", "-E", "5", "-n", "4", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["beta"] == 71


def test_decompose(capsys, lasso_file):
    code, out = run(capsys, "decompose", lasso_file, "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["components"][0]["kind"] == "topological-cycle"


def test_spanning(capsys, lasso_file):
    code, out = run(capsys, "spanning", lasso_file, "-n", "2", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["spans"] is True


def test_gauge_solve_unrealizable(capsys, tmp_path):
    graph_file = tmp_path / "k5.json"
    graph_file.write_text(json.dumps(graph_to_json(complete_graph(5))))
    hexagon = [{"spectators": [1], "from": 2, "to": 0},
               {"spectators": [1], "from": 0, "to": 3},
               {"spectators": [3], "from": 1, "to": 0},
               {"spectators": [3], "from": 0, "to": 2},
               {"spectators": [2], "from": 3, "to": 0},
               {"spectators": [2], "from": 0, "to": 1}]
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps([{"cycle": hexagon, "value": "1/3"}]))
    code, _ = run(capsys, "gauge", "solve", str(graph_file), "-n", "2",
                  "--targets", str(targets))
    assert code == EXIT_INPUT


def test_gauge_check_reports_fluxes(capsys, lasso_file, tmp_path):
    import random
    from confighom.complexes import build_complex
    from confighom.gauge import (potential_to_json,
                                 random_topological_potential)
    c = build_complex(lasso_graph(), 2)
    p = random_topological_potential(c, random.Random(3))
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps(potential_to_json(p)))
    code, out = run(capsys, "gauge", "check", lasso_file, "-n", "2",
                    "--potential", str(pot), "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["topological"] is True
    assert {f["kind"] for f in report["generator_fluxes"]} == {"AB", "Y"}


@pytest.mark.parametrize("edge", [[0, 1.7], [True, 1]])
def test_non_integer_endpoint_is_input_error(capsys, tmp_path, edge):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": 3, "edges": [edge, [1, 2]]}))
    code = main(["predict", str(path)])
    assert code == EXIT_INPUT
    assert "integers" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["check"], "--potential"), (["split"], "--potential"),
    (["embed"], "--potential"), (["lift"], "--potential"),
    (["lift", "--potential", "POT"], "--edge"), (["solve"], "--targets")])
def test_gauge_missing_argument_is_input_error(capsys, lasso_file, tmp_path,
                                               argv, flag):
    pot = tmp_path / "pot.json"
    pot.write_text("[]")
    argv = [str(pot) if a == "POT" else a for a in argv]
    code = main(["gauge", argv[0], lasso_file, *argv[1:]])
    assert code == EXIT_INPUT
    assert flag in capsys.readouterr().err


def test_gauge_malformed_targets_is_input_error(capsys, lasso_file, tmp_path):
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps([{"value": "1/2"}]))
    code = main(["gauge", "solve", lasso_file, "--targets", str(targets)])
    assert code == EXIT_INPUT
    assert "malformed targets" in capsys.readouterr().err


def test_gauge_check_notes_missing_generator_fluxes(capsys, tmp_path):
    # K4 is not sufficiently subdivided for three particles, so no spanning
    # set exists; the report says so instead of dropping the key silently
    graph_file = tmp_path / "k4.json"
    graph_file.write_text(json.dumps(graph_to_json(complete_graph(4))))
    pot = tmp_path / "pot.json"
    pot.write_text("[]")
    code, out = run(capsys, "gauge", "check", str(graph_file), "-n", "3",
                    "--potential", str(pot), "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert "generator_fluxes" not in report
    assert "sufficiently subdivided" in report["notice"]


@pytest.mark.parametrize("entry", [
    {"spectators": [True], "from": 1, "to": 2, "value": "1/3"},
    {"spectators": [0], "from": 1.7, "to": 2, "value": "1/3"},
    {"spectators": [0], "from": 2, "to": "3", "value": "1/3"}])
def test_gauge_potential_non_integer_vertex_is_input_error(capsys, lasso_file,
                                                           tmp_path, entry):
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps([entry]))
    code = main(["gauge", "split", lasso_file, "--potential", str(pot)])
    assert code == EXIT_INPUT
    assert "integers" in capsys.readouterr().err


@pytest.mark.parametrize("field, bad", [
    ("spectators", [True]), ("from", 1.7), ("to", "1"), ("coeff", 1.5),
    ("coeff", True)])
def test_gauge_targets_non_integer_is_input_error(capsys, lasso_file, tmp_path,
                                                  field, bad):
    cycle = [{"spectators": [0], "from": 1, "to": 2},
             {"spectators": [0], "from": 2, "to": 3},
             {"spectators": [0], "from": 3, "to": 1}]
    cycle[0][field] = bad
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps([{"cycle": cycle, "value": "1/2"}]))
    code = main(["gauge", "solve", lasso_file, "--targets", str(targets)])
    assert code == EXIT_INPUT
    assert "integers" in capsys.readouterr().err


@pytest.mark.parametrize("edge", ["1.7,2", "true,2", "1,2,3", "1"])
def test_gauge_lift_bad_edge_is_input_error(capsys, lasso_file, tmp_path,
                                            edge):
    pot = tmp_path / "pot.json"
    pot.write_text("[]")
    code = main(["gauge", "lift", lasso_file, "--potential", str(pot),
                 "--edge", edge])
    assert code == EXIT_INPUT
    assert "--edge" in capsys.readouterr().err
