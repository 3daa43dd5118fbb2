"""Peak memory of whole commands, as a tier-1 contract.

Each row is a command of ROADMAP's "Where the time goes" table that exits 0,
run in-process through ``cli.main`` as ``tests/test_cli.py`` runs commands,
under tracemalloc (the ``peak_mb`` fixture).  A tracemalloc peak is exact for
a fixed input, so unlike a time it makes a bound that does not flake.

Each bound is about 1.25 x the peak measured at the commit that set it, with
Python 3.11.7 and numpy 2.4.6 on Linux x86_64; that peak is the third column.  A
later change may tighten a bound freely; raising one is a regression, to be
recorded in CHANGES.md with the parent's peak beside it.  Under tracemalloc
the file takes about 10 s on a shared 2-core VM, 8 s of it the S:3 wr S:3
export (written twice) and its load.
"""

import pytest

from wreathlab.cli import main

EXPORT = ["build", "--k", "S:3", "--h", "S:3", "--omega", "natural:3", "--out"]

# (command, bound in MB, peak measured in MB); "e.json" is a file in the test's tmp_path
PEAKS = [
    (["embed", "--mode", "omega", "--group", "C:4096", "--subgroup", "center"], 100, 80.1),
    (["embed", "--mode", "kk", "--group", "D:2048", "--normal", "C:2048"], 143, 114.4),
    ([*EXPORT, "e.json"], 96, 77.1),
    (["verify", "--group-json", "e.json"], 88, 70.7),
    (["embed", "--mode", "omega", "--group", "S:6", "--subgroup", "stab:6"], 7.8, 6.2),
    (["embed", "--mode", "tower", "--field", "2,3,5,7,11,13", "--K", "2,3,5,7,11",
      "--alpha", "13"], 0.14, 0.11),
    (["sizes", "--help"], 0.025, 0.019),
]


@pytest.mark.parametrize("argv,bound", [row[:2] for row in PEAKS],
                         ids=[" ".join(row[0]) for row in PEAKS])
def test_a_whole_command_peaks_within_its_bound(capsys, tmp_path, peak_mb, argv, bound):
    path = str(tmp_path / "e.json")
    if argv[0] == "verify":  # the export it loads is made outside the measurement
        assert main([*EXPORT, path]) == 0
    argv = [path if arg == "e.json" else arg for arg in argv]
    code, peak = peak_mb(lambda: main(argv))
    _out, err = capsys.readouterr()
    assert code == 0, err
    assert peak <= bound, f"peak {peak:.3f} MB, bound {bound} MB"
