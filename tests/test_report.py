import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_scene
from obstruct import catalog, cli, config, report
from obstruct.geometry import SceneValidationError
from obstruct.liealg import RMatrix, sl2
from obstruct.report import CheckConfig, render_report, run_checks


def run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "obstruct.cli", *args],
                          capture_output=True, env=env, cwd=cwd)


class TestRunChecks:
    def test_flat_torus_all_pass(self):
        rep = run_checks(catalog.load_example("flat-torus").scene())
        assert rep.overall == "pass"
        assert {c.status for c in rep.checks} == {"pass"}
        assert rep.points_evaluated == 81
        assert rep.grid == (9, 9)

    def test_fuzzy_sphere_divergence_passes_curvature_fails(self):
        rep = run_checks(catalog.load_example("fuzzy-sphere").scene())
        by_name = {c.name: c for c in rep.checks}
        assert by_name["divergence"].status == "pass"
        assert by_name["curvature"].status == "fail"
        assert by_name["curvature"].max_defect > report.OBSTRUCTION_TOL

    def test_su2_dual_statuses(self):
        rep = run_checks(catalog.load_example("su2-dual").scene())
        by_name = {c.name: c for c in rep.checks}
        assert by_name["jacobi"].status == "pass"
        assert by_name["divergence"].status == "pass"
        assert by_name["curvature"].status == "fail"
        assert by_name["gprime_flat"].status == "skipped"
        assert "pi-degenerate" in by_name["gprime_flat"].reason

    def test_check_subset_and_tolerance_override(self):
        scene = catalog.load_example("podles-sphere").scene()
        cfg = CheckConfig(checks=("divergence",), grid=(5,),
                          tolerances={"divergence": 100.0})
        rep = run_checks(scene, cfg)
        assert [c.name for c in rep.checks] == ["divergence"]
        assert rep.checks[0].status == "pass"  # loose threshold flips it

    def test_explicit_points(self):
        scene = catalog.load_example("podles-sphere").scene()
        cfg = CheckConfig(checks=("divergence",),
                          points=((0.0, 0.0), (1.0, 0.0)))
        rep = run_checks(scene, cfg)
        assert rep.points_evaluated == 2
        assert rep.grid is None
        assert rep.checks[0].argmax_point == (1.0, 0.0)

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_checks(catalog.load_example("flat-torus").scene(),
                       CheckConfig(checks=("holonomy",)))

    def test_wrong_dimension_points_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            run_checks(catalog.load_example("flat-torus").scene(),
                       CheckConfig(points=((0.0, 0.0, 0.0),)))

    def test_scene_validation_failure_propagates(self):
        bad = make_scene(["x", "y"], [["1", "x"], ["0", "1"]],
                         [["0", "1"], ["-1", "0"]], [(-1, 1), (-1, 1)])
        with pytest.raises(SceneValidationError):
            run_checks(bad)

    def test_expression_domain_error_marks_checks(self):
        scene = make_scene(["x", "y"], [["1/x", "0"], ["0", "1"]],
                           [["0", "1"], ["-1", "0"]], [(-1, 1), (-1, 1)])
        rep = run_checks(scene, CheckConfig(checks=("divergence",), grid=(9,)))
        assert rep.overall == "error"
        assert rep.checks[0].status == "failed-to-evaluate"
        assert "at point" in rep.checks[0].reason

    def test_algebra_checks(self):
        pres = sl2()
        r = np.zeros((3, 3))
        r[1, 2], r[2, 1] = 1.0, -1.0
        rep = run_checks(pres, r=RMatrix(r), name="dj")
        by_name = {c.name: c for c in rep.checks}
        assert by_name["cybe"].status == "fail"
        assert by_name["qg_divergence"].status == "fail"
        assert by_name["qg_divergence"].max_defect == pytest.approx(1.0)

    def test_algebra_without_rmatrix_skips(self):
        rep = run_checks(sl2())
        assert {c.status for c in rep.checks} == {"skipped"}
        assert {c.reason for c in rep.checks} == {"no-r-matrix"}

    def test_scene_checks_on_algebra_marked_not_applicable(self):
        rep = run_checks(sl2(), CheckConfig(checks=("curvature", "cybe")))
        by_name = {c.name: c for c in rep.checks}
        assert by_name["curvature"].status == "skipped"
        assert by_name["curvature"].reason == "not-applicable-to-lie-algebra"

    def test_empty_check_list(self):
        rep = run_checks(catalog.load_example("flat-torus").scene(),
                         CheckConfig(checks=()))
        assert rep.checks == ()
        doc = json.loads(render_report(rep, "json"))
        assert doc["checks"] == {}
        assert doc["overall"] == "pass"


class TestRendering:
    def test_json_is_canonical_and_repeatable(self):
        rep = run_checks(catalog.load_example("flat-torus").scene())
        blob1 = render_report(rep, "json")
        blob2 = render_report(rep, "json")
        assert blob1 == blob2
        doc = json.loads(blob1)
        assert doc["kind"] == "scene"
        assert "wall" not in blob1.decode().lower()

    def test_text_contains_pass_lines(self):
        rep = run_checks(catalog.load_example("flat-torus").scene())
        text = render_report(rep, "text").decode()
        assert text.count("PASS") >= len(rep.checks)
        assert "overall: PASS" in text

    def test_csv_single_check_layout(self):
        scene = catalog.load_example("podles-sphere").scene()
        rep = run_checks(scene, CheckConfig(checks=("divergence",), grid=(5,)))
        lines = render_report(rep, "csv-points").decode().splitlines()
        assert lines[0] == "x0,x1,defect"
        assert len(lines) == 1 + 25
        defects = {float(line.split(",")[-1]) for line in lines[1:]}
        assert len(defects) > 1  # spatially varying magnitudes

    def test_csv_multiple_checks_sectioned(self):
        scene = catalog.load_example("flat-torus").scene()
        rep = run_checks(scene, CheckConfig(checks=("jacobi", "divergence"),
                                            grid=(3,)))
        text = render_report(rep, "csv-points").decode()
        assert "# check: jacobi" in text
        assert "# check: divergence" in text

    def test_unknown_format(self):
        rep = run_checks(sl2())
        with pytest.raises(ValueError):
            render_report(rep, "yaml")


class TestDigest:
    def test_whitespace_insensitive(self):
        entry = catalog.load_example("podles-sphere")
        doc = json.loads(json.dumps(entry.config))
        doc["poisson"][0][1] = "( c / 2 )*(u*u+v*v+1)"
        doc["poisson"][1][0] = "-((c/2) * (u*u + v*v + 1))"
        assert config.canonical_digest(doc) == config.canonical_digest(entry.config)

    def test_name_is_cosmetic(self):
        entry = catalog.load_example("podles-sphere")
        doc = json.loads(json.dumps(entry.config))
        doc["name"] = "renamed"
        assert config.canonical_digest(doc) == config.canonical_digest(entry.config)

    def test_semantic_changes_move_the_digest(self):
        entry = catalog.load_example("podles-sphere")
        for key, value in (("params", {"c": 3.0}),
                           ("orientation", -1),
                           ("box", [[-2.0, 2.0], [-2.0, 1.0]])):
            doc = json.loads(json.dumps(entry.config))
            doc[key] = value
            assert config.canonical_digest(doc) != config.canonical_digest(entry.config)
        doc = json.loads(json.dumps(entry.config))
        doc["poisson"][0][1] = "(c/2) * (u*u + v*v + 2)"
        doc["poisson"][1][0] = "-((c/2) * (u*u + v*v + 2))"
        assert config.canonical_digest(doc) != config.canonical_digest(entry.config)

    def test_an_algebra_is_read_before_hashing(self):
        entry = catalog.load_example("sl2-triangular")
        doc = json.loads(json.dumps(entry.config))
        for key in ("structure_constants", "metric", "r_matrix"):
            doc[key] = np.asarray(doc[key]).astype(int).tolist()
        # as written, the two documents hash differently
        assert config.hash_canonical(doc) != config.hash_canonical(entry.config)
        digest = config.canonical_digest(doc)
        assert digest == config.canonical_digest(entry.config)
        pres, r = entry.presentation()
        assert digest == run_checks(pres, r=r).digest

    def test_an_invalid_algebra_has_no_digest(self):
        doc = json.loads(json.dumps(catalog.load_example("sl2-triangular").config))
        doc["dim"] = "three"
        with pytest.raises(config.ConfigError):
            config.canonical_digest(doc)


class TestWorkers:
    def test_parallel_results_match_serial(self, monkeypatch):
        scene = catalog.load_example("podles-sphere").scene()
        monkeypatch.setenv("OBSTRUCT_WORKERS", "1")
        serial = render_report(run_checks(scene), "json")
        monkeypatch.setenv("OBSTRUCT_WORKERS", "4")
        parallel = render_report(run_checks(scene), "json")
        assert serial == parallel

    def test_zero_means_auto(self, monkeypatch):
        scene = catalog.load_example("flat-torus").scene()
        monkeypatch.setenv("OBSTRUCT_WORKERS", "1")
        serial = render_report(
            run_checks(scene, CheckConfig(checks=("jacobi",), grid=(3,))), "json")
        monkeypatch.setenv("OBSTRUCT_WORKERS", "0")
        auto = render_report(
            run_checks(scene, CheckConfig(checks=("jacobi",), grid=(3,))), "json")
        assert auto == serial

    def test_bad_worker_count_rejected(self, monkeypatch):
        monkeypatch.setenv("OBSTRUCT_WORKERS", "many")
        with pytest.raises(ValueError):
            run_checks(catalog.load_example("flat-torus").scene(),
                       CheckConfig(checks=("jacobi",), grid=(2,)))
        monkeypatch.setenv("OBSTRUCT_WORKERS", "-2")
        with pytest.raises(ValueError):
            run_checks(catalog.load_example("flat-torus").scene(),
                       CheckConfig(checks=("jacobi",), grid=(2,)))

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            run_checks(catalog.load_example("flat-torus").scene(),
                       CheckConfig(checks=("jacobi",), grid=(2,),
                                   tolerances={"jacobi": 0.0}))


class TestCli:
    def test_example_exit_codes(self):
        assert cli.main(["example", "flat-torus", "--format", "json",
                         "--out", "/dev/null"]) == 0
        assert cli.main(["example", "fuzzy-sphere", "--format", "json",
                         "--out", "/dev/null"]) == 1
        assert cli.main(["example", "no-such-entry"]) == 2

    def test_check_subcommand(self, tmp_path):
        entry = catalog.load_example("flat-torus")
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(entry.config))
        out = tmp_path / "report.json"
        code = cli.main(["check", str(path), "--format", "json",
                         "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["overall"] == "pass"
        assert doc["name"] == "flat-torus"

    def test_check_rejects_malformed_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["check", str(path)]) == 2

    def test_missing_file(self):
        assert cli.main(["check", "/nonexistent/scene.json"]) == 2

    def test_tol_flag(self, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main(["example", "podles-sphere", "--check", "divergence",
                         "--tol", "divergence=100", "--format", "json",
                         "--out", str(out)])
        assert code == 0

    def test_grid_flag(self, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main(["example", "flat-torus", "--grid", "3,4",
                         "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["grid"] == [3, 4]
        assert doc["points_evaluated"] == 12

    def test_points_file(self, tmp_path):
        pts = tmp_path / "points.txt"
        pts.write_text("0.0 0.0\n1.0 0.5  # a comment\n\n")
        out = tmp_path / "r.json"
        code = cli.main(["example", "podles-sphere", "--points", str(pts),
                         "--check", "curvature", "--format", "json",
                         "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["points_evaluated"] == 2

    def test_list_examples(self, capsys):
        assert cli.main(["list-examples"]) == 0
        listed = capsys.readouterr().out.split()
        assert set(listed) == set(catalog.example_names())

    def test_lie_algebra_config_file(self, tmp_path):
        entry = catalog.load_example("sl2-triangular")
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(entry.config))
        out = tmp_path / "r.json"
        code = cli.main(["check", str(path), "--check", "cybe",
                         "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["checks"]["cybe"]["status"] == "pass"


class TestEndToEndDeterminism:
    def test_byte_identical_across_worker_counts(self):
        runs = {}
        for workers in ("1", "8"):
            proc = run_cli(["example", "podles-sphere", "--format", "json"],
                           env_extra={"OBSTRUCT_WORKERS": workers})
            assert proc.returncode == 1  # divergence obstruction fails
            runs[workers] = proc.stdout
        assert runs["1"] == runs["8"]
        assert json.loads(runs["1"])["checks"]["divergence"]["status"] == "fail"


def test_a_repeated_check_is_reported_once(tmp_path):
    assert CheckConfig(checks=("jacobi", "divergence", "jacobi")).checks == (
        "jacobi", "divergence")
    outputs = {}
    for fmt in ("text", "csv-points"):
        out = tmp_path / f"report.{fmt}"
        code = cli.main(["example", "su2-dual", "--grid", "3", "--check",
                         "jacobi", "--check", "divergence", "--check", "jacobi",
                         "--format", fmt, "--out", str(out)])
        assert code == cli.EXIT_PASS
        outputs[fmt] = out.read_text()
    assert sum(line.startswith("jacobi ")
               for line in outputs["text"].splitlines()) == 1
    assert outputs["csv-points"].count("# check: jacobi\n") == 1
    assert outputs["csv-points"].count("# check: divergence\n") == 1
