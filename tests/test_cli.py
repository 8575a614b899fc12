import errno
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpnibble import cover_from_json, girth, graph_from_text
from dpnibble.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


class TestGenerate:
    def test_girth5_file_verifies(self, runner, tmp_path):
        out = tmp_path / "g.txt"
        r = invoke(runner, ["generate", "--kind", "girth5_regular",
                            "--n", "10", "--d", "3", "--seed", "7",
                            "--out", str(out)])
        assert r.exit_code == 0, r.output
        assert "sha256:" in r.output
        g = graph_from_text(out.read_text())
        assert girth(g) >= 5

    def test_dp_cover_rho_zero(self, runner, tmp_path):
        out = tmp_path / "c.json"
        r = invoke(runner, ["generate", "--kind", "dp_cover", "--n", "8",
                            "--d", "3", "--ell", "4", "--rho", "0.0",
                            "--seed", "3", "--out", str(out)])
        assert r.exit_code == 0, r.output
        cov = cover_from_json(out.read_text())
        assert cov.cover.num_edges == 0

    def test_list_cover_on_girth5_base(self, runner, tmp_path):
        out = tmp_path / "lc.json"
        r = invoke(runner, ["generate", "--kind", "list_cover", "--n", "10",
                            "--d", "3", "--girth5", "--ell", "5",
                            "--seed", "2", "--out", str(out)])
        assert r.exit_code == 0, r.output
        cov = cover_from_json(out.read_text())
        assert list(cov.list_sizes()) == [5] * 10
        assert girth(cov.base) >= 5

    def test_same_spec_twice_is_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["generate", "--kind", "regular", "--n", "20", "--d", "3",
                "--seed", "11"]
        invoke(runner, args + ["--out", str(a)])
        invoke(runner, args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_mandatory(self, runner):
        r = invoke(runner, ["generate", "--kind", "regular", "--n", "10", "--d", "2"])
        assert r.exit_code == 2
        assert "seed" in r.output

    def test_config_option_removed(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "regular", "n": 10, "d": 2, "seed": 1}))
        r = runner.invoke(main, ["generate", "--config", str(cfg)])
        assert r.exit_code == 2
        assert "No such option '--config'" in r.output

    def test_kind_required(self, runner):
        r = runner.invoke(main, ["generate", "--n", "10", "--d", "2", "--seed", "1"])
        assert r.exit_code == 2
        assert "Missing option '--kind'" in r.output

    def test_usage_error_on_bad_params(self, runner):
        r = invoke(runner, ["generate", "--kind", "regular", "--n", "5",
                            "--d", "3", "--seed", "1"])
        assert r.exit_code == 2

    @pytest.mark.parametrize("args, missing", [
        (["--kind", "regular"], "--n"),
        (["--kind", "girth5_regular", "--n", "10"], "--d"),
        (["--kind", "dp_cover", "--n", "10", "--d", "2"], "--ell"),
        (["--kind", "list_cover", "--d", "2", "--ell", "3"], "--n"),
        (["--kind", "kst_free_bipartite", "--m", "4", "--n", "4", "--s", "2"], "--t"),
    ])
    def test_missing_size_option_named(self, runner, args, missing):
        r = runner.invoke(main, ["generate", *args, "--seed", "1"])
        assert r.exit_code == 2
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert f"error: missing {missing}:" in r.output

    # each size asks for more than 128 TiB at once, which no 47-bit address
    # space maps, so numpy fails before touching any memory
    @pytest.mark.parametrize("args", [
        ["--kind", "regular", "--n", "100000000000000", "--d", "2"],
        ["--kind", "dp_cover", "--n", "10", "--d", "2", "--ell", "100000000000000"],
        # the edge order is drawn before the m adjacency sets are built
        ["--kind", "kst_free_bipartite", "--m", "10000000000000", "--n", "2",
         "--s", "2", "--t", "2"],
    ])
    def test_unallocatable_size_refused(self, runner, args):
        r = runner.invoke(main, ["generate", *args, "--seed", "1"])
        assert r.exit_code == 2, (r.output, r.exception)
        assert "error: not enough memory: " in r.output

    @pytest.mark.parametrize("args", [
        ["--kind", "regular", "--n", str(2 ** 63), "--d", "2"],
        ["--kind", "dp_cover", "--n", str(2 ** 63), "--d", "2", "--ell", "2"],
        ["--kind", "list_cover", "--n", str(2 ** 63), "--d", "2", "--ell", "2"],
        ["--kind", "kst_free_bipartite", "--m", str(2 ** 63), "--n", "1", "--s", "1",
         "--t", "1"],
    ])
    def test_size_beyond_int64_refused(self, runner, args):
        r = runner.invoke(main, ["generate", *args, "--seed", "1"])
        assert r.exit_code == 2, (r.output, r.exception)
        assert "error: Python int too large to convert to C long" in r.output

    def test_kst_certificate_over_budget_exits_3(self, runner, monkeypatch):
        from dpnibble import generators
        monkeypatch.setattr(generators, "contains_kst",
                            functools.partial(generators.contains_kst, budget=1000))
        r = runner.invoke(main, ["generate", "--kind", "kst_free_bipartite", "--m", "45",
                                 "--n", "45", "--s", "3", "--t", "3", "--seed", "1"])
        assert r.exit_code == 3, (r.output, r.exception)
        assert "error: K_(s,t) search spent over 1000 work units" in r.output

    def test_kst_certificate_within_budget(self, runner):
        # C(45,3)^2 subsets, but the metered search certifies it in milliseconds
        r = runner.invoke(main, ["generate", "--kind", "kst_free_bipartite", "--m", "45",
                                 "--n", "45", "--s", "3", "--t", "3", "--seed", "1"])
        assert r.exit_code == 0, (r.output, r.exception)
        g = graph_from_text(r.stdout)
        assert g.vertex_count == 90 and g.num_edges > 0


class TestSchedule:
    def test_emits_terminal_line(self, runner):
        r = invoke(runner, ["schedule", "--d", "1000000", "--epsilon", "0.1",
                            "--t", "2"])
        assert r.exit_code == 0
        assert "# i_star=" in r.output

    def test_out_of_range_epsilon(self, runner):
        r = invoke(runner, ["schedule", "--d", "100", "--epsilon", "0"])
        assert r.exit_code == 2

    def test_huge_t_refused(self, runner):
        # 1/(25t) once overflowed converting t to a float
        r = runner.invoke(main, ["schedule", "--d", "100", "--epsilon", "0.5",
                                 "--t", str(10 ** 400)])
        assert r.exit_code == 2, (r.output, r.exception)
        assert "is too large: beta = 1/(25t) rounds to 0" in r.output

    @pytest.mark.parametrize("max_iters", ["0", "-1"])
    def test_max_iters_below_one_refused(self, runner, tmp_path, max_iters):
        out = tmp_path / "s.csv"
        r = runner.invoke(main, ["schedule", "--d", "100", "--epsilon", "0.5",
                                 "--max-iters", max_iters, "--out", str(out)])
        assert r.exit_code == 2, (r.output, r.exception)
        assert "error: max_iters must be >= 1" in r.output
        assert not out.exists()

    def test_repeat_identical(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["schedule", "--d", "100000", "--epsilon", "0.05"]
        invoke(runner, args + ["--out", str(a)])
        invoke(runner, args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestColor:
    def write_cover(self, tmp_path, cov):
        from dpnibble import cover_to_json
        p = tmp_path / "cover.json"
        p.write_text(cover_to_json(cov))
        return p

    def test_edgeless_cover_exits_zero(self, runner, tmp_path):
        from dpnibble import Graph, from_list_assignment
        cov = from_list_assignment(Graph.empty(5), [range(2)] * 5)
        path = self.write_cover(tmp_path, cov)
        out = tmp_path / "res.json"
        r = invoke(runner, ["color", str(path), "--seed", "1", "--out", str(out)])
        assert r.exit_code == 0, r.output
        doc = json.loads(out.read_text())
        assert doc["ok"] is True
        assert doc["verified"] is True

    def test_infeasible_instance_nonzero_exit_writes_result(self, runner, tmp_path):
        from dpnibble import Graph, from_list_assignment
        cov = from_list_assignment(Graph.from_edges(2, [(0, 1)]), [[0], [0]])
        path = self.write_cover(tmp_path, cov)
        out = tmp_path / "res.json"
        result = runner.invoke(main, ["color", str(path), "--seed", "1",
                                      "--max-retries", "1", "--max-resamples", "1",
                                      "--out", str(out)])
        assert result.exit_code != 0
        doc = json.loads(out.read_text())
        assert doc["ok"] is False

    def test_round_budget_exhausted_exits_3(self, runner, tmp_path):
        # like --max-retries and --max-resamples, --max-rounds is a budget
        from dpnibble import uniform_list_cover
        from dpnibble.generators import incidence_graph
        cov = uniform_list_cover(incidence_graph(5, seed=0), 14)
        path = self.write_cover(tmp_path, cov)
        out = tmp_path / "res.json"
        r = runner.invoke(main, ["color", str(path), "--seed", "1",
                                 "--max-rounds", "1", "--out", str(out)])
        assert r.exit_code == 3, (r.output, r.exception)
        assert "error: round budget (1) exhausted" in r.output
        doc = json.loads(out.read_text())
        assert doc["ok"] is False and len(doc["rounds"]) == 1

    def test_round_that_empties_a_list_is_retried(self, runner, tmp_path):
        # round 296 of this run emptied a list, and color exited 1, while the
        # round gate let a list target below 0 pass every round
        from dpnibble import uniform_list_cover
        from dpnibble.generators import incidence_graph
        path = self.write_cover(tmp_path, uniform_list_cover(incidence_graph(5, seed=0), 6))
        out = tmp_path / "res.json"
        r = runner.invoke(main, ["color", str(path), "--seed", "1", "--out", str(out)])
        assert r.exit_code == 0, (r.output, r.exception)
        assert json.loads(out.read_text())["verified"] is True

    def test_cover_from_a_pipe(self, tmp_path):
        # /dev/stdin on a pipe cannot seek, so the loader reads it whole
        from dpnibble import uniform_list_cover
        from dpnibble.generators import incidence_graph
        path = self.write_cover(tmp_path, uniform_list_cover(incidence_graph(3, seed=0), 12))
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        results = []
        for name, source in (("file", str(path)), ("pipe", "/dev/stdin")):
            out = tmp_path / f"{name}.json"
            r = subprocess.run([sys.executable, "-m", "dpnibble.cli", "color", source, "--seed",
                                "9", "--out", str(out)], input=path.read_bytes(),
                               capture_output=True, env=env)
            assert r.returncode == 0, r.stderr
            results.append(out.read_bytes())
        assert results[0] == results[1]

    def test_small_real_instance(self, runner, tmp_path):
        from dpnibble import uniform_list_cover
        from dpnibble.generators import incidence_graph
        cov = uniform_list_cover(incidence_graph(3, seed=0), 12)
        path = self.write_cover(tmp_path, cov)
        out = tmp_path / "res.json"
        r = invoke(runner, ["color", str(path), "--seed", "9", "--out", str(out)])
        assert r.exit_code == 0, r.output
        doc = json.loads(out.read_text())
        assert doc["ok"] and len(doc["rounds"]) > 0

    def test_long_lists_need_no_epsilon(self, runner, tmp_path):
        # lists of 300 on a degree-2 cover: the derived margin would be 108.9,
        # outside the schedule's (0, 100); no round runs, so none is needed
        cover = tmp_path / "c.json"
        r = invoke(runner, ["generate", "--kind", "dp_cover", "--n", "10", "--d", "2",
                            "--ell", "300", "--rho", "1", "--seed", "5",
                            "--out", str(cover)])
        assert r.exit_code == 0, r.output
        out = tmp_path / "res.json"
        r = invoke(runner, ["color", str(cover), "--seed", "1", "--out", str(out)])
        assert r.exit_code == 0, r.output
        doc = json.loads(out.read_text())
        assert doc["ok"] and doc["rounds"] == []
        assert doc["config"]["schedule_input"]["epsilon"] == math.nextafter(100.0, 0.0)

    @pytest.mark.parametrize("slack", ["nan", "inf"])
    def test_non_finite_slack_refused(self, runner, tmp_path, slack):
        # NaN and infinity pass every round and are not JSON numbers
        from conftest import regular_cover
        path = self.write_cover(tmp_path, regular_cover(10, 2, 16, seed=1))
        out = tmp_path / "res.json"
        r = runner.invoke(main, ["color", str(path), "--seed", "1",
                                 "--slack", slack, "--out", str(out)])
        assert r.exit_code == 2, (r.output, r.exception)
        assert isinstance(r.exception, SystemExit)
        assert "Traceback" not in r.output
        assert f"error: slack must be finite, got {slack}" in r.output
        assert not out.exists()

    def test_huge_t_refused(self, runner, tmp_path):
        from conftest import regular_cover
        path = self.write_cover(tmp_path, regular_cover(10, 2, 16, seed=1))
        r = runner.invoke(main, ["color", str(path), "--seed", "1", "--t", str(10 ** 400)])
        assert r.exit_code == 2, (r.output, r.exception)
        assert "is too large: beta = 1/(25t) rounds to 0" in r.output

    def test_bad_cover_file_usage_error(self, runner, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"base": {"vertex_count": 2, "edges": []}, '
                     '"lists": [[0], [1]], "cover_edges": [[0, 1]]}')
        result = runner.invoke(main, ["color", str(p), "--seed", "1"])
        assert result.exit_code == 2

    def test_s_option_removed(self, runner, tmp_path):
        # no step of `color` reads s; the result still echoes s = 2
        from conftest import regular_cover
        path = self.write_cover(tmp_path, regular_cover(10, 2, 16, seed=1))
        r = runner.invoke(main, ["color", str(path), "--seed", "1", "--s", "3"])
        assert r.exit_code == 2, r.output
        assert "No such option '--s'" in r.output
        out = tmp_path / "res.json"
        r = invoke(runner, ["color", str(path), "--seed", "1", "--out", str(out)])
        assert r.exit_code == 0, r.output
        assert json.loads(out.read_text())["config"]["schedule_input"]["s"] == 2

    def test_regularize_out_of_memory_exits_2(self, runner, tmp_path, monkeypatch):
        # a large cover-degree deficiency makes the auxiliary graph of
        # `regularize` ask for more memory than there is
        from dpnibble import pipeline
        from conftest import regular_cover

        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 23.0 GiB for an array")

        monkeypatch.setattr(pipeline, "regularize", out_of_memory)
        path = self.write_cover(tmp_path, regular_cover(10, 2, 16, seed=1))
        out = tmp_path / "res.json"
        r = runner.invoke(main, ["color", str(path), "--seed", "1", "--regularize-first",
                                 "--out", str(out)])
        assert r.exit_code == 2, (r.output, r.exception)
        assert isinstance(r.exception, SystemExit)
        assert "error: not enough memory: Unable to allocate 23.0 GiB" in r.output
        doc = json.loads(out.read_text())
        assert doc["ok"] is False
        assert doc["error"] == "not enough memory: Unable to allocate 23.0 GiB for an array"

    @pytest.mark.parametrize("doc", [
        '{"base":{"edges":[],"vertex_count":1},"cover_edges":[],"lists":[[0]]}',
        '{"base":{"edges":[[0,1]],"vertex_count":2},"cover_edges":[],"lists":[[0],[1]]}',
    ], ids=["one-vertex", "one-base-edge"])
    def test_regularize_first_keeps_a_cover_without_cover_edges(self, runner, tmp_path, doc):
        # regularizing to degree 1 joined copies of these one-color lists by
        # a matching, and the schedule of d = 1 cannot color that
        path = tmp_path / "cover.json"
        path.write_text(doc)
        colorings = []
        for flag in ([], ["--regularize-first"]):
            out = tmp_path / "res.json"
            r = invoke(runner, ["color", str(path), "--seed", "1", "--out", str(out), *flag])
            assert r.exit_code == 0, r.output
            colorings.append(json.loads(out.read_text())["coloring"])
        assert colorings[0] == colorings[1]


def valid_doc():
    from dpnibble import cover_to_json
    from conftest import regular_cover
    return json.loads(cover_to_json(regular_cover(6, 2, 3, seed=1)))


def set_path(doc, path, value):
    *outer, last = path
    for key in outer:
        doc = doc[key]
    doc[last] = value


def run_both(runner, path):
    """``color`` and ``stats`` on one cover file, as click results."""
    return [runner.invoke(main, cmd) for cmd in (
        ["color", str(path), "--seed", "1"],
        ["stats", str(path), "--seed", "1", "--trials", "2", "--eta", "0.5"])]


class TestLoaderRefusals:
    """Malformed cover files end in exit 2 with a message, never a traceback."""

    def refused(self, runner, tmp_path, text):
        p = tmp_path / "cover.json"
        p.write_text(text)
        for r in run_both(runner, p):
            assert r.exit_code == 2, (r.output, r.exception)
            assert isinstance(r.exception, SystemExit)
            assert "error: cannot load cover:" in r.output

    @pytest.mark.parametrize("mutate", ["array", "number", "no_lists",
                                        "no_cover_edges", "no_vertex_count",
                                        "base_not_object", "lists_not_lists"])
    def test_not_a_cover_object(self, runner, tmp_path, mutate):
        doc = valid_doc()
        if mutate == "array":
            doc = [1, 2, 3]
        elif mutate == "number":
            doc = 7
        elif mutate == "base_not_object":
            doc["base"] = [6, []]
        elif mutate == "lists_not_lists":
            doc["lists"] = 5
        elif mutate == "no_vertex_count":
            del doc["base"]["vertex_count"]
        else:
            del doc[mutate[3:]]
        self.refused(runner, tmp_path, json.dumps(doc))

    @pytest.mark.parametrize("path", [("lists", 0, 0), ("base", "edges", 0, 1),
                                      ("cover_edges", 0, 0)])
    @pytest.mark.parametrize("value", [0.5, 1.0, True, False, "3", None, 2 ** 70])
    def test_non_integer_ids(self, runner, tmp_path, path, value):
        doc = valid_doc()
        set_path(doc, path, value)
        self.refused(runner, tmp_path, json.dumps(doc))

    @pytest.mark.parametrize("count", [-1, 5, 7, 10 ** 11, True, 6.0, "6"])
    def test_vertex_count_must_match_lists(self, runner, tmp_path, count):
        doc = valid_doc()
        assert len(doc["lists"]) == 6
        doc["base"]["vertex_count"] = count
        self.refused(runner, tmp_path, json.dumps(doc))

    def test_deeply_nested_document(self, runner, tmp_path):
        self.refused(runner, tmp_path, "[" * 100000 + "]" * 100000)

    def test_not_utf8(self, runner, tmp_path):
        p = tmp_path / "cover.json"
        p.write_bytes(b"\xff\xfe{}")
        for r in run_both(runner, p):
            assert r.exit_code == 2, (r.output, r.exception)
            assert "error: cannot load cover: 'utf-8' codec can't decode" in r.output

    def test_out_of_memory(self, runner, tmp_path, monkeypatch):
        from dpnibble import cli

        def loader(text):
            raise MemoryError
        monkeypatch.setattr(cli, "cover_from_json", loader)
        p = tmp_path / "cover.json"
        p.write_text("{}")
        for r in run_both(runner, p):
            assert r.exit_code == 2, (r.output, r.exception)
            assert isinstance(r.exception, SystemExit)
            assert "error: cannot load cover: not enough memory" in r.output

    def test_unreadable_file(self, runner, tmp_path, monkeypatch):
        from dpnibble import cli

        def loader(fh):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        p = tmp_path / "cover.json"
        p.write_text("{}")
        with monkeypatch.context() as m:
            m.setattr(cli, "cover_from_json", loader)
            results = run_both(runner, p)
        if os.path.exists("/proc/self/mem"):  # reading offset 0 fails with EIO
            results += run_both(runner, "/proc/self/mem")
        for r in results:
            assert r.exit_code == 2, (r.output, r.exception)
            assert isinstance(r.exception, SystemExit)
            assert f"error: cannot load cover: {os.strerror(errno.EIO)}" in r.output

    def test_file_changed_while_read(self, runner, tmp_path, monkeypatch):
        from dpnibble import cli, cover_to_json
        from conftest import RewrittenOnRewind, regular_cover
        text = cover_to_json(regular_cover(8, 3, 4, seed=12)).encode()
        at = text.rindex(b"1")
        changed = text[:at] + b"2" + text[at + 1:]
        monkeypatch.setattr(cli, "cover_from_json",
                            lambda fh: cover_from_json(RewrittenOnRewind(fh.read(), changed)))
        p = tmp_path / "cover.json"
        p.write_bytes(text)
        for r in run_both(runner, p):
            assert r.exit_code == 2, (r.output, r.exception)
            assert "error: cannot load cover: the cover file changed while it was read" in r.output

    def test_directory(self, runner, tmp_path):
        for r in run_both(runner, tmp_path):
            assert r.exit_code == 2, (r.output, r.exception)
            assert "is a directory" in r.output


def test_color_validates_a_loaded_cover_once(runner, tmp_path, monkeypatch):
    from dpnibble import cover, cover_to_json
    from conftest import regular_cover
    path = tmp_path / "cover.json"
    path.write_text(cover_to_json(regular_cover(10, 2, 16, seed=2)))
    calls = []
    validate = cover.validate
    monkeypatch.setattr(cover, "validate", lambda c: calls.append(c) or validate(c))
    r = invoke(runner, ["color", str(path), "--seed", "1"])
    assert r.exit_code == 0, r.output
    assert len(calls) == 1


class TestEmptyCover:
    """A cover without vertices: nothing to color, no round to measure."""

    def write(self, tmp_path):
        p = tmp_path / "cover.json"
        p.write_text('{"base": {"vertex_count": 0, "edges": []}, '
                     '"lists": [], "cover_edges": []}')
        return p

    def test_color_exits_zero(self, runner, tmp_path):
        out = tmp_path / "res.json"
        r = invoke(runner, ["color", str(self.write(tmp_path)), "--seed", "1",
                            "--out", str(out)])
        assert r.exit_code == 0, r.output
        doc = json.loads(out.read_text())
        assert doc["ok"] is True and doc["coloring"] == []

    def test_stats_refused(self, runner, tmp_path):
        r = runner.invoke(main, ["stats", str(self.write(tmp_path)), "--seed", "1",
                                 "--trials", "2", "--eta", "0.5"])
        assert r.exit_code == 2, (r.output, r.exception)
        assert "error: d and ell must be >= 1" in r.output


def test_import_warns_nothing():
    src = Path(__file__).resolve().parents[1] / "src"
    r = subprocess.run(
        [sys.executable, "-W", "error::UserWarning", "-c", "import dpnibble.cli"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert r.returncode == 0, r.stderr


def test_public_names():
    import types

    import dpnibble
    assert {name for name, value in vars(dpnibble).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)} == {
        "BudgetExceededError", "ColoringResult", "CoverValidationError", "DpCover",
        "DpnibbleError", "GenerationError", "Graph", "PipelineConfig", "PipelineError",
        "ResampleBudgetError", "RetriesExhaustedError", "RoundOutcome", "RoundParams",
        "RoundStats", "Schedule", "ScheduleError", "ScheduleInput", "ScheduleState",
        "StructureReport", "Violation", "classify_structure", "color_graph",
        "compute_schedule", "contains_kst", "cover_from_json", "cover_to_json", "d_next",
        "derive_constants", "ell_next", "exact_round_expectation", "from_list_assignment",
        "girth", "good_round_targets", "graph_from_text", "graph_to_text",
        "hat_deviation_report", "incidence_graph", "keep_fn", "kst_edge_bound",
        "kst_free_bipartite", "max_degree", "random_dp_cover", "random_girth5_regular",
        "random_regular", "regularize", "result_to_json", "round_is_good", "round_stats",
        "run_round", "run_round_until_good", "schedule_to_csv", "uncolor_fn",
        "uniform_list_cover", "validate", "verify_proper"}


class TestStats:
    def make_cover_file(self, tmp_path):
        from dpnibble import cover_to_json
        from conftest import regular_cover
        cov = regular_cover(10, 3, 4, seed=2)
        p = tmp_path / "cover.json"
        p.write_text(cover_to_json(cov))
        return p

    def test_single_trial_rows(self, runner, tmp_path):
        path = self.make_cover_file(tmp_path)
        out = tmp_path / "stats.csv"
        r = invoke(runner, ["stats", str(path), "--seed", "5", "--trials", "1",
                            "--eta", "0.4", "--out", str(out)])
        assert r.exit_code == 0, r.output
        lines = out.read_text().splitlines()
        assert lines[1] == "kind,id,mean,variance,tail_freq"
        assert sum(1 for ln in lines if ln.startswith("vertex,")) == 10

    def test_anchor_identity_rows(self, runner, tmp_path):
        path = self.make_cover_file(tmp_path)
        out = tmp_path / "stats.csv"
        r = invoke(runner, ["stats", str(path), "--seed", "5", "--trials", "50",
                            "--eta", "0.4", "--anchor", "3", "--out", str(out)])
        assert r.exit_code == 0
        for line in out.read_text().splitlines():
            if line.startswith("anchor,"):
                _, _, u, umk, res = line.split(",")
                assert int(res) == int(u) - int(umk)

    @pytest.mark.parametrize("flags, message", [
        (["--trials", "0"], "error: trials must be >= 1"),
        (["--trials", "2", "--anchor", "-5"], "error: anchor -5 is not a color id"),
        (["--trials", "2", "--t", "0"], "error: t must be >= 1"),
        (["--trials", "2", "--t", str(10 ** 400)], "is too large: beta = 1/(25t) rounds to 0"),
    ])
    def test_bad_run_arguments_refused(self, runner, tmp_path, flags, message):
        path = self.make_cover_file(tmp_path)
        r = runner.invoke(main, ["stats", str(path), "--seed", "5", "--eta", "0.4"] + flags)
        assert r.exit_code == 2, (r.output, r.exception)
        assert message in r.output

    def test_unallocatable_anchor_trials_refused(self, runner, tmp_path):
        # the anchor arrays of 10**14 trials need 728 TiB up front
        path = self.make_cover_file(tmp_path)
        r = runner.invoke(main, ["stats", str(path), "--seed", "1", "--trials",
                                 "100000000000000", "--eta", "0.1", "--anchor", "0"])
        assert r.exit_code == 2, (r.output, r.exception)
        assert "error: not enough memory: " in r.output

    def test_jobs_option_removed(self, runner, tmp_path):
        path = self.make_cover_file(tmp_path)
        r = runner.invoke(main, ["stats", str(path), "--seed", "5", "--trials", "4",
                                 "--eta", "0.4", "--jobs", "2"])
        assert r.exit_code == 2, r.output
        assert "No such option '--jobs'" in r.output

    def test_summary_json(self, runner, tmp_path):
        path = self.make_cover_file(tmp_path)
        out = tmp_path / "stats.csv"
        summ = tmp_path / "summary.json"
        r = invoke(runner, ["stats", str(path), "--seed", "5", "--trials", "30",
                            "--eta", "0.4", "--anchor", "0",
                            "--out", str(out), "--summary", str(summ)])
        assert r.exit_code == 0
        doc = json.loads(summ.read_text())
        assert doc["anchor"]["identity_holds"] is True


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 with a message."""

    @pytest.fixture(params=["directory", "missing-parent"])
    def bad(self, request, tmp_path):
        return str(tmp_path if request.param == "directory" else tmp_path / "no" / "out")

    def refused(self, runner, args):
        r = runner.invoke(main, args)
        assert r.exit_code == 2, (r.output, r.exception)
        assert isinstance(r.exception, SystemExit)
        assert "error: cannot write " in r.output

    def cover_file(self, tmp_path):
        p = tmp_path / "cover.json"
        p.write_text(json.dumps(valid_doc()))
        return str(p)

    def test_generate(self, runner, bad):
        self.refused(runner, ["generate", "--kind", "regular", "--n", "10", "--d", "3",
                              "--seed", "1", "--out", bad])

    def test_schedule(self, runner, bad):
        self.refused(runner, ["schedule", "--d", "100", "--epsilon", "0.5", "--out", bad])

    def test_color(self, runner, tmp_path, bad):
        self.refused(runner, ["color", self.cover_file(tmp_path), "--seed", "1", "--out", bad])

    def test_stats(self, runner, tmp_path, bad):
        self.refused(runner, ["stats", self.cover_file(tmp_path), "--seed", "1", "--trials",
                              "2", "--eta", "0.5", "--out", bad])

    def test_stats_summary(self, runner, tmp_path, bad):
        self.refused(runner, ["stats", self.cover_file(tmp_path), "--seed", "1", "--trials",
                              "2", "--eta", "0.5", "--out", str(tmp_path / "s.csv"),
                              "--summary", bad])


def mutated_documents():
    """A small canonical cover document with one byte replaced, or cut short."""
    from dpnibble import cover_to_json
    from conftest import regular_cover
    raw = cover_to_json(regular_cover(6, 2, 3, seed=1)).encode()
    byte = st.one_of(st.sampled_from(b'0123456789[]{},:"-.e '), st.integers(0, 255))
    replaced = st.tuples(st.integers(0, len(raw) - 1), byte).map(
        lambda pb: raw[:pb[0]] + bytes([pb[1]]) + raw[pb[0] + 1:])
    return st.one_of(replaced, st.integers(0, len(raw) - 1).map(lambda k: raw[:k]))


class TestHostileCoverFiles:
    @given(data=mutated_documents())
    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutations_exit_cleanly(self, runner, tmp_path, data):
        from dpnibble import cover_from_json
        try:
            cover_from_json(data)
            refused = False
        except Exception:
            refused = True
        p = tmp_path / "cover.json"
        p.write_bytes(data)
        for r in run_both(runner, p):
            assert 0 <= r.exit_code <= 3, (data, r.output)
            # a traceback is any exception but click's own exit
            assert r.exception is None or isinstance(r.exception, SystemExit), (data, r.output)
            if refused:
                assert r.exit_code == 2 and "error: cannot load cover:" in r.output, (
                    data, r.output)


INT_BOUNDS = (0, -1, 1, 2 ** 31, 2 ** 63, 10 ** 30)
FLOAT_BOUNDS = (0.0, -1.0, 1e-320, 100.0, math.nan, math.inf)

# one known-good invocation per command (generate once per set of size
# options), with its int and its float options; COVER stands for a small
# cover, on which even `color --epsilon 1e-320` ends within a second
BOUNDARY_INVOCATIONS = {
    "dp_cover": (["generate", "--kind", "dp_cover", "--n", "8", "--d", "3", "--ell", "4",
                  "--rho", "0.5", "--seed", "1"], ("--n", "--d", "--ell", "--seed"), ("--rho",)),
    "list_cover": (["generate", "--kind", "list_cover", "--n", "8", "--d", "3", "--ell", "4",
                    "--seed", "1"], ("--ell",), ()),
    "kst_free_bipartite": (["generate", "--kind", "kst_free_bipartite", "--m", "6", "--n", "5",
                            "--s", "2", "--t", "2", "--seed", "1"],
                           ("--m", "--n", "--s", "--t"), ()),
    "schedule": (["schedule", "--d", "1000", "--epsilon", "0.5", "--max-iters", "100"],
                 ("--d", "--s", "--t", "--max-iters"), ("--epsilon",)),
    "color": (["color", "COVER", "--seed", "1", "--max-resamples", "1000",
               "--max-rounds", "100"],
              ("--seed", "--t", "--max-retries", "--max-resamples", "--max-rounds"),
              ("--epsilon", "--slack")),
    # without --anchor a huge --trials runs trial after trial; with it the
    # anchor columns are allocated first, and numpy refuses 2**63 of them
    "stats": (["stats", "COVER", "--seed", "1", "--trials", "20", "--eta", "0.1",
               "--anchor", "0"], ("--seed", "--trials", "--t", "--anchor"), ("--eta",)),
}

# values that neither finish nor fail within a second, checked under
# `timeout 5` with the address space capped at 1.5 GB: 2**31 asks numpy for
# 16 GiB or more, which a machine with that much memory allocates and fills
BOUNDARY_LEFT_OUT = {
    ("dp_cover", "--n", 2 ** 31): "16 GiB of pairing stubs",
    ("dp_cover", "--ell", 2 ** 31): "a 16 GiB permutation per base edge",
    ("kst_free_bipartite", "--m", 2 ** 31): "an 80 GiB edge order",
    ("stats", "--trials", 2 ** 31): "16 GiB of anchor columns",
    ("list_cover", "--ell", 2 ** 31): "128 GiB of color owners",
}

BOUNDARY_CASES = [(name, opt, value)
                  for name, (_, int_opts, float_opts) in BOUNDARY_INVOCATIONS.items()
                  for opts, values in ((int_opts, INT_BOUNDS), (float_opts, FLOAT_BOUNDS))
                  for opt in opts for value in values
                  if (name, opt, value) not in BOUNDARY_LEFT_OUT]


class TestBoundaryValues:
    @pytest.fixture
    def cover(self, runner, tmp_path):
        p = tmp_path / "cover.json"
        invoke(runner, ["generate", "--kind", "dp_cover", "--n", "12", "--d", "3", "--ell",
                        "8", "--seed", "1", "--out", str(p)])
        return str(p)

    def test_every_base_invocation_succeeds(self, runner, cover):
        for args, _, _ in BOUNDARY_INVOCATIONS.values():
            r = invoke(runner, [cover if a == "COVER" else a for a in args])
            assert r.exit_code == 0, (args, r.output)

    @given(case=st.sampled_from(BOUNDARY_CASES))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_one_boundary_value_exits_cleanly(self, runner, cover, case):
        name, opt, value = case
        args = [cover if a == "COVER" else a for a in BOUNDARY_INVOCATIONS[name][0]]
        if opt in args:
            args[args.index(opt) + 1] = str(value)
        else:
            args += [opt, str(value)]
        r = runner.invoke(main, args)
        assert r.exit_code in (0, 1, 2, 3), (args, r.output)
        # a traceback is any exception but click's own exit
        assert r.exception is None or isinstance(r.exception, SystemExit), (args, r.exception)
