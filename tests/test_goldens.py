"""Golden digests of command-line artifacts.

For a fixed seed the ``color`` result JSON and the ``stats`` CSV must stay
byte-identical across refactors.  The digests below were recorded from the
CLI before the coloring state moved from rebuilt residual covers to masks
over the root cover, and those of the one-trial-block and thinned covers
before the rounds of ``color`` and ``stats`` shared one kernel, and those at
trial counts that are no multiple of a block or of a reduction buffer before
``stats`` reduced its trials once per buffer; a change
that alters any of them changes outputs and must say so and refresh them
on purpose.
"""

import hashlib
import math

import pytest
from click.testing import CliRunner

import dpnibble as dp
from dpnibble.cli import main
from dpnibble.generators import incidence_graph, random_dp_cover, random_regular

# incidence_graph(5): 62 vertices, 6-regular, girth 6, lists of 14 labels
NIBBLE_SEEDS = {
    0: "784d1722baa8254d393adfbab049d104271bddb978cac544314fe5c99d35cc9b",
    1: "9455e4e4b3fab4404b8ff8e0dca837829776bbdc0c7181e9ab7e1f5911a544d7",
    2: "f9937b7c95807d27e707bf16ec30eb19b1c84fef02ac50c4f4ccbb9d08e046a4",
    3: "68d325655560ab61cc462bef8b8898244c88a045a1e5f1ec4a5d47da2d7c3b9b",
    4: "ce9133c8fb77105c3ba419c73ff51ec76651a3370f9885ff1c3ba17e5f4e129f",
    5: "19dd35bd3988deca931d3c7b708f6042725667da6d7cd9c495d29a62caaf8620",
}
# the same cover minus one cover edge, colored with --regularize-first
REGULARIZED = "f06cd426c9e714d318e40c19173b1143a89ec910d9fbab03da98a2ee97851ae4"
# lists of 24 on a 3-regular cover: zero rounds, straight to the finisher
FINISH_ONLY = "d4024a80d7efc1861c24318aec07ee49624024751ca3db9cfb09a1782c6d3aba"
# 200 trials of stats --anchor 0 on a 16-regular cover with lists of 12
STATS = "067530bf15680fa03cfacef9f6d5e5619e4ff459b49ea3994933535401877402"
# 100 trials on a 4,800-color, 16-regular cover, first recorded with one
# trial per kernel call (3 since the trial blocks grew to 2^18 entries)
STATS_LARGE = "eb6d8052e0c4672bf8a6cc5fa7bcb684a3211ccb03df5ba77820c1f0f9124264"
# 200 trials of stats --anchor 3 on the 16-regular base thinned at rho = 0.8,
# so the cover rows have unequal widths
STATS_THINNED = "2c6a71d2f9e05477bb355d21194c95639bf94a1d763d9acfc1abc4f4895e9e83"
# a 6-regular base thinned at rho = 0.8, lists of 12: nibble rounds on
# unequal cover rows
THINNED = "173182d6f9412e2e9f523434ce25573d993cbdd49488cdebd41a9f6704e8f369"
# 1,003 trials on the 4,800-color cover and 5,003 trials of --anchor 0 on the
# 408-color cover: trial counts that are no multiple of a block (3 and 40
# trials) or of a reduction buffer
STATS_LARGE_ODD = "94df7c804976d9b1cb4987652a5ef99f1f68c2e070cc3d4a5bf5ec4be8965b7f"
STATS_ANCHOR_ODD = "f3ba2b257f345b6387975fc58dbf72cfcd4562c8ac8fe2d0556e28d8e89d829c"
# generate outputs, recorded before from_list_assignment was vectorized
GENERATED = {
    "list_cover_girth5": (["--kind", "list_cover", "--n", "26", "--d", "4", "--girth5",
                           "--ell", "12", "--seed", "2"],
                          "6f5c488cdb92c4af2b24193563bbe73bdba698aef0b33012f824f59f96572a25"),
    "list_cover": (["--kind", "list_cover", "--n", "40", "--d", "6", "--ell", "9",
                    "--seed", "3"],
                   "700f7c7492474c5c010e975360bbc807a4db550203ed514b2eafe31e07d837c8"),
    "dp_cover": (["--kind", "dp_cover", "--n", "50", "--d", "4", "--ell", "6",
                  "--rho", "0.8", "--seed", "1"],
                 "0bd3edde9d7d08a05f5f1335681027f60a5008e5441e18436d8b06e2513c594e"),
    # the five covers perfbench/run.py generates, recorded before the cover
    # writer formatted ids from a digit table
    "perfbench_calib": (["--kind", "list_cover", "--n", "1986", "--d", "32", "--ell", "37",
                         "--seed", "424241", "--girth5"],
                        "b5b2e6320dff22e971a215fdceb26e15e45f0b7574e209f7f7a1e24aba89d275"),
    "perfbench_finish": (["--kind", "dp_cover", "--n", "4000", "--d", "8", "--ell", "64",
                          "--seed", "8", "--rho", "1"],
                         "f6013988106e83921877e3435d3097fb154d348eab0ea321878d7cd975dd70dd"),
    "perfbench_small": (["--kind", "dp_cover", "--n", "34", "--d", "16", "--ell", "12",
                         "--seed", "77", "--rho", "1"],
                        "8c2cf735d7a0b8c96c5b33e1f965b445edd922d8d5c57344189483c77a0eda99"),
    "perfbench_large": (["--kind", "dp_cover", "--n", "400", "--d", "16", "--ell", "12",
                         "--seed", "78", "--rho", "1"],
                        "31bb918cd31ef5906bf2f0a2bfb96bcfe92f6c57c94b62112dfd9c08e27292cf"),
    "perfbench_probe": (["--kind", "dp_cover", "--n", "34", "--d", "4", "--ell", "32",
                         "--seed", "79", "--rho", "1"],
                        "4bccb6c7564e0e949a5c3f727792a22ee2cb8bc359d2e5664f40ad554b29ce27"),
}

# the primary runs of the four perfbench/run.py workloads on the covers it
# generates (the perfbench_* arguments above), `stats` at --eta 0.1
PERFBENCH_RUNS = {
    "calib-color": ("calib", ["color", "--seed", "0"],
                    "d907e7ac917f58e380c95ea1b524f86abe5fde72064942f6f13c9addd261b295"),
    "finish-color": ("finish", ["color", "--seed", "0"],
                     "deabef257b3ffb7237f6b4a01198951bbf48987e003587c2911b2d61672bfc0a"),
    "stats-small": ("small", ["stats", "--seed", "1", "--trials", "5000", "--eta", "0.1",
                              "--anchor", "0"],
                    "6f3d2e5806202a09b54c5f18864f2852c8528a6e21e63f7e619466ad5b3568fd"),
    "stats-large": ("large", ["stats", "--seed", "1", "--trials", "1000", "--eta", "0.1"],
                    "0b388c554bbed6c4e29167f40a2459f1997d7fff90241a123b132385be1d6abd"),
}


@pytest.fixture(scope="module")
def covers(tmp_path_factory):
    root = tmp_path_factory.mktemp("goldens")
    nibble = dp.uniform_list_cover(incidence_graph(5, seed=0),
                                   math.ceil(4 * 6 / math.log(6)))
    edges = nibble.cover.edge_array()
    deficient = dp.DpCover(nibble.base,
                           dp.Graph.from_edges(nibble.num_colors, edges[1:]),
                           nibble.list_sizes(), nibble.lcolors)
    docs = {
        "nibble": nibble,
        "deficient": deficient,
        "finish": random_dp_cover(random_regular(60, 3, seed=7), 24, 1.0, seed=8),
        "stats": random_dp_cover(random_regular(34, 16, seed=77), 12, 1.0, seed=78),
        "large": random_dp_cover(random_regular(400, 16, seed=78), 12, 1.0, seed=79),
        "thin": random_dp_cover(random_regular(34, 16, seed=77), 12, 0.8, seed=78),
        "thin_color": random_dp_cover(random_regular(60, 6, seed=5), 12, 0.8, seed=6),
    }
    paths = {}
    for name, cov in docs.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(dp.cover_to_json(cov))
    return paths


def digest(args, out):
    r = CliRunner().invoke(main, args + ["--out", str(out)], catch_exceptions=False)
    assert r.exit_code == 0, r.output
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", sorted(NIBBLE_SEEDS))
def test_nibble_rounds_result(covers, tmp_path, seed):
    args = ["color", str(covers["nibble"]), "--seed", str(seed)]
    assert digest(args, tmp_path / "r.json") == NIBBLE_SEEDS[seed]


def test_regularize_first_result(covers, tmp_path):
    args = ["color", str(covers["deficient"]), "--seed", "0", "--regularize-first"]
    assert digest(args, tmp_path / "r.json") == REGULARIZED


def test_finish_only_result(covers, tmp_path):
    args = ["color", str(covers["finish"]), "--seed", "1"]
    assert digest(args, tmp_path / "r.json") == FINISH_ONLY


def test_stats_anchor_csv(covers, tmp_path, monkeypatch):
    # the CSV header echoes the cover path, so pass a fixed relative one
    monkeypatch.chdir(covers["stats"].parent)
    args = ["stats", "stats.json", "--seed", "3", "--trials", "200",
            "--eta", "0.1", "--anchor", "0"]
    assert digest(args, tmp_path / "s.csv") == STATS


def test_thinned_result(covers, tmp_path):
    args = ["color", str(covers["thin_color"]), "--seed", "1"]
    assert digest(args, tmp_path / "r.json") == THINNED


@pytest.mark.parametrize("name, args, expected", [
    ("large", ["--seed", "4", "--trials", "100", "--eta", "0.1"], STATS_LARGE),
    ("thin", ["--seed", "5", "--trials", "200", "--eta", "0.1", "--anchor", "3"],
     STATS_THINNED),
    ("large", ["--seed", "6", "--trials", "1003", "--eta", "0.1"], STATS_LARGE_ODD),
    ("stats", ["--seed", "7", "--trials", "5003", "--eta", "0.1", "--anchor", "0"],
     STATS_ANCHOR_ODD),
], ids=["large-blocks", "thinned", "large-blocks-odd", "anchor-blocks-odd"])
def test_stats_csv(covers, tmp_path, monkeypatch, name, args, expected):
    monkeypatch.chdir(covers[name].parent)
    assert digest(["stats", f"{name}.json"] + args, tmp_path / "s.csv") == expected


@pytest.mark.parametrize("kind", sorted(GENERATED))
def test_generated_cover(tmp_path, kind):
    args, expected = GENERATED[kind]
    assert digest(["generate"] + args, tmp_path / "c.json") == expected


@pytest.fixture(scope="module")
def perfbench_covers(tmp_path_factory):
    root = tmp_path_factory.mktemp("perfbench")
    for name, _, _ in PERFBENCH_RUNS.values():
        args, expected = GENERATED[f"perfbench_{name}"]
        assert digest(["generate"] + args, root / f"{name}.json") == expected
    return root


@pytest.mark.parametrize("workload", sorted(PERFBENCH_RUNS))
def test_perfbench_run(perfbench_covers, tmp_path, monkeypatch, workload):
    # the stats CSV header echoes the cover path: run by the relative name
    monkeypatch.chdir(perfbench_covers)
    name, (command, *args), expected = PERFBENCH_RUNS[workload]
    # the first run parses the text and leaves the sidecar, the second reads it
    side = perfbench_covers / f"{name}.json.dpcache"
    assert not side.exists()
    assert digest([command, f"{name}.json"] + args, tmp_path / "cold") == expected
    assert side.exists()
    assert digest([command, f"{name}.json"] + args, tmp_path / "warm") == expected
