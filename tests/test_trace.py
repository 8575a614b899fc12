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

from dpnibble import cover_to_json, incidence_graph, uniform_list_cover

ROOT = Path(__file__).resolve().parents[1]


def test_traced_color_records_round_spans(tmp_path):
    cover = tmp_path / "cover.json"
    # 6-regular, lists of 20 < 8 * 6: the run needs nibble rounds
    cover.write_text(cover_to_json(uniform_list_cover(incidence_graph(5, seed=0), 20)))
    trace, out = tmp_path / "trace.json", tmp_path / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(trace), "color",
         str(cover), "--seed", "1", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(trace.read_text())
    spans = {name for name, *_ in recorded["spans"]}
    assert {"cover.validate", "pipeline.color_graph", "kernels.round",
            "nibble.count_violations", "nibble.residual", "pipeline.finish"} <= spans
    result = json.loads(out.read_text())
    assert result["ok"]
    counts = recorded["counts"]
    assert counts["pipeline.rounds"] == len(result["rounds"]) > 0
    assert counts["nibble.round_attempts"] >= counts["pipeline.rounds"]
