"""Golden digests of command-line artifacts.

For a fixed seed the ``color`` result JSON and the ``stats`` CSV must stay
byte-identical across refactors.  The digests below were recorded from the
CLI before the coloring state moved from rebuilt residual covers to masks
over the root cover, and those of the one-trial-block and thinned covers
before the rounds of ``color`` and ``stats`` shared one kernel, and those at
trial counts that are no multiple of a block or of a reduction buffer before
``stats`` reduced its trials once per buffer; a change
that alters any of them changes outputs and must say so and refresh them
on purpose.  The ``color`` digests were refreshed when the finisher moved
from ``numpy.random`` to the counter hash of ``_rng``; the
``--regularize-first`` one did not change, as that run's finisher colors
only vertices outside the input's copy.
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
    0: "cd25d5cdbbacf28cd923afacebcb38d7ef4737a63e6bb38208f4f10a5c28c8db",
    1: "0f1c0c3adf8e860418d967e3dc2cff6f34b8bda5bc3cd4471c2ec2e78551bc3d",
    2: "246705f425bf4a896a00614c7e30c2ce0552f7993b6cc2c7957099fc04ea87ed",
    3: "273f30372a9e9e160775cb5eabb905de3042e040c8b35c67eedf86b1b72789a8",
    4: "e264cebf5c8af692431667a8332067f469a7a9ecc67828f3c1758fa999d4c0c2",
    5: "fe1929d923e3adb8f6a980dc4d2ae7238337510c30497fff60522303cb31436a",
}
# the same cover minus one cover edge, colored with --regularize-first
REGULARIZED = "f06cd426c9e714d318e40c19173b1143a89ec910d9fbab03da98a2ee97851ae4"
# lists of 24 on a 3-regular cover: zero rounds, straight to the finisher
FINISH_ONLY = "d16c3179965d2d93132e38eb65d440ac6ddbfacbbc72bc97aea3db05bf6032dc"
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
THINNED = "b2fcb3cba398bfe385262c9742467d3c062a8734de2884d53eedc02889da3bfa"
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
                    "f9089c541bc4bb2aa7054dcc93b020d31709e9f73fcc1a9863fea6d28c83a9c5"),
    "finish-color": ("finish", ["color", "--seed", "0"],
                     "97beba4fb684b017d45d6b80bbc612cde176daa1e18cba4fee5e477bdbc9dffc"),
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
    with monkeypatch.context() as m:
        # the cold load must take the canonical fast path: json.loads of a
        # benchmark cover would multiply the load's peak memory
        m.setattr("dpnibble.cover._json_parts", lambda *a: pytest.fail("json.loads path"))
        assert digest([command, f"{name}.json"] + args, tmp_path / "cold") == expected
    assert side.exists()
    assert digest([command, f"{name}.json"] + args, tmp_path / "warm") == expected
