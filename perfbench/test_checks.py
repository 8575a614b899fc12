"""Each output check accepts a correct output and rejects a planted defect.

Run from the repository root: ``python3 -m pytest -q perfbench``.
The first tests use hand-made documents; the last two plant the same
defects in real ``dpnibble`` outputs, made with the CLI from ``src``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent

# a 4-cycle base graph with lists of 2 and a perfect matching across each
# base edge: a 2-regular cover with 8 colors
SQUARE = {
    "base": {"vertex_count": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]},
    "lists": [[0, 1], [2, 3], [4, 5], [6, 7]],
    "cover_edges": [[0, 2], [1, 3], [2, 4], [3, 5], [4, 6], [5, 7], [0, 6], [1, 7]],
}


def result(coloring) -> str:
    return json.dumps({"ok": True, "coloring": coloring})


def stats_csv(means, var, anchor_rows=()) -> str:
    lines = ['# {"eta": 0.1}', "kind,id,mean,variance,tail_freq"]
    lines += [f"vertex,{v},{m!r},{var!r},0.0" for v, m in enumerate(means)]
    lines += [f"color,{c},1.0,0.5,0.0" for c in range(8)]
    if anchor_rows:
        lines.append("# anchor samples: trial,u,u_minus_k,residual_degree")
        lines += [f"anchor,{i},{u},{umk},{res}"
                  for i, (u, umk, res) in enumerate(anchor_rows)]
    return "\n".join(lines) + "\n"


def test_cover_shape():
    assert checks.cover_shape(SQUARE) == (4, 2, 2)
    lopsided = dict(SQUARE, cover_edges=SQUARE["cover_edges"][:-1])
    with pytest.raises(checks.CheckError, match="not regular"):
        checks.cover_shape(lopsided)


def test_coloring_accepts_proper():
    checks.check_coloring(SQUARE, result([0, 3, 4, 7]))


def test_coloring_rejects_conflicting_edge():
    with pytest.raises(checks.CheckError, match="cover edge"):
        checks.check_coloring(SQUARE, result([0, 2, 5, 7]))


def test_coloring_rejects_off_list_color():
    with pytest.raises(checks.CheckError, match="not in its list"):
        checks.check_coloring(SQUARE, result([0, 3, 4, 1]))
    with pytest.raises(checks.CheckError, match="not in its list"):
        checks.check_coloring(SQUARE, result([0.0, 3, 4, 7]))


def test_coloring_rejects_failed_or_short_result():
    with pytest.raises(checks.CheckError, match="failure"):
        checks.check_coloring(SQUARE, json.dumps({"ok": False, "error": "x"}))
    with pytest.raises(checks.CheckError, match="3 colors for 4"):
        checks.check_coloring(SQUARE, result([0, 3, 4]))


def test_stats_accepts_closed_form_mean():
    want = checks.expected_kept(2, 2, 0.1)
    assert want == pytest.approx(2 * 0.95 ** 2)
    checks.check_stats(SQUARE, stats_csv([want] * 4, 0.2), 0.1, 1000, None)


def test_stats_rejects_shifted_mean():
    want = checks.expected_kept(2, 2, 0.1)
    se = (0.2 / 1000) ** 0.5
    means = [want, want, want + 1.01 * checks.SE_LIMIT * se, want]
    with pytest.raises(checks.CheckError, match="vertex 2"):
        checks.check_stats(SQUARE, stats_csv(means, 0.2), 0.1, 1000, None)


def test_stats_rejects_broken_anchor_row():
    want = checks.expected_kept(2, 2, 0.1)
    good = [(2, 0, 2), (1, 1, 0), (2, 1, 1)]
    checks.check_stats(SQUARE, stats_csv([want] * 4, 0.2, good), 0.1, 3, 0)
    broken = good[:2] + [(2, 1, 2)]
    with pytest.raises(checks.CheckError, match="anchor row 2"):
        checks.check_stats(SQUARE, stats_csv([want] * 4, 0.2, broken), 0.1, 3, 0)
    with pytest.raises(checks.CheckError, match="2 anchor rows for 3"):
        checks.check_stats(SQUARE, stats_csv([want] * 4, 0.2, good[:2]), 0.1, 3, 0)


def dpnibble(tmp_path: Path, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "dpnibble.cli", *args], cwd=tmp_path,
                   env=env, check=True, capture_output=True)


needs_src = pytest.mark.skipif(not (ROOT / "src" / "dpnibble").is_dir(),
                               reason="dpnibble sources not present")


@needs_src
def test_real_color_output(tmp_path):
    dpnibble(tmp_path, "generate", "--kind", "dp_cover", "--n", "20", "--d", "3",
             "--ell", "24", "--rho", "1", "--seed", "5", "--out", "c.json")
    dpnibble(tmp_path, "color", "c.json", "--seed", "1", "--out", "r.json")
    doc = json.loads((tmp_path / "c.json").read_text())
    res = json.loads((tmp_path / "r.json").read_text())
    checks.check_coloring(doc, json.dumps(res))
    # plant a conflict: give vertex v the partner of vertex u's color
    a, b = doc["cover_edges"][0]
    u = next(i for i, lst in enumerate(doc["lists"]) if a in lst)
    v = next(i for i, lst in enumerate(doc["lists"]) if b in lst)
    res["coloring"][u], res["coloring"][v] = a, b
    with pytest.raises(checks.CheckError, match="joins two chosen"):
        checks.check_coloring(doc, json.dumps(res))


@needs_src
def test_real_stats_output(tmp_path):
    dpnibble(tmp_path, "generate", "--kind", "dp_cover", "--n", "34", "--d", "16",
             "--ell", "12", "--rho", "1", "--seed", "5", "--out", "c.json")
    dpnibble(tmp_path, "stats", "c.json", "--seed", "3", "--trials", "500",
             "--eta", "0.1", "--anchor", "0", "--out", "s.csv")
    doc = json.loads((tmp_path / "c.json").read_text())
    text = (tmp_path / "s.csv").read_text()
    checks.check_stats(doc, text, 0.1, 500, 0)
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("vertex,5,"))
    kind, v, mean, var, tail = lines[i].split(",")
    shifted = float(mean) + 2 * checks.SE_LIMIT * (float(var) / 500) ** 0.5
    bad = lines[:i] + [f"{kind},{v},{shifted!r},{var},{tail}"] + lines[i + 1:]
    with pytest.raises(checks.CheckError, match="vertex 5"):
        checks.check_stats(doc, "\n".join(bad), 0.1, 500, 0)
    j = next(k for k, line in enumerate(lines) if line.startswith("anchor,7,"))
    kind, t, u, umk, res = lines[j].split(",")
    bad = lines[:j] + [f"{kind},{t},{u},{umk},{int(res) + 1}"] + lines[j + 1:]
    with pytest.raises(checks.CheckError, match="anchor row 7"):
        checks.check_stats(doc, "\n".join(bad), 0.1, 500, 0)
