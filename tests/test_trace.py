"""The timing wrappers of ``perfbench/traced.py`` still find what they wrap.

The tracer patches names of the program (``_kernels.round_dispatch``,
``RoundOutcome.residual``, ``pipeline.color_graph``, ...) at run time; a
rename in ``src`` would break ``perfbench/run.py --trace 1`` without any
other test noticing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from dpnibble import analysis, cover_to_json, incidence_graph, uniform_list_cover

ROOT = Path(__file__).resolve().parents[1]


def six_regular_cover():
    """A 6-regular cover with lists of 20 (< 8 * 6, so ``color`` needs nibble
    rounds)."""
    return uniform_list_cover(incidence_graph(5, seed=0), 20)


def traced(tmp_path, *args) -> dict:
    """Run one traced command on :func:`six_regular_cover`; returns the
    recorded trace."""
    cover = tmp_path / "cover.json"
    cover.write_text(cover_to_json(six_regular_cover()))
    trace = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(trace), args[0],
         str(cover), *args[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(trace.read_text())


def test_traced_color_records_round_spans(tmp_path):
    out = tmp_path / "result.json"
    recorded = traced(tmp_path, "color", "--seed", "1", "--out", str(out))
    spans = {name for name, *_ in recorded["spans"]}
    assert {"cover.validate", "pipeline.color_graph", "kernels.round",
            "nibble.count_violations", "nibble.residual", "pipeline.finish"} <= spans
    result = json.loads(out.read_text())
    assert result["ok"]
    counts = recorded["counts"]
    assert counts["pipeline.rounds"] == len(result["rounds"]) > 0
    assert counts["nibble.round_attempts"] >= counts["pipeline.rounds"]


def test_traced_stats_records_kernel_spans(tmp_path):
    # `stats` runs its blocks of trials through the same round kernel
    recorded = traced(tmp_path, "stats", "--seed", "1", "--trials", "30", "--eta", "0.2",
                      "--out", str(tmp_path / "stats.csv"))
    spans = [(name, parent) for name, _, _, parent in recorded["spans"]]
    names = [name for name, _ in spans]
    assert names.count("analysis.round_stats") == 1
    stats = names.index("analysis.round_stats")
    # one kernel call per block of trials
    calls = -(-30 // analysis.block_size(six_regular_cover(), 30))
    assert [p for name, p in spans if name == "kernels.round"] == [stats] * calls
    assert recorded["counts"]["analysis.trials"] == 30
