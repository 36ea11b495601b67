import importlib.util
import math
from pathlib import Path

import pytest

import sievenorm as sn
from sievenorm.experiments import GROWTH_RATIOS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_growth_table(capsys, lo, hi):
    script = load_script("l1_growth_table")
    assert script.main(["--kind", "mobius", "--powers", str(lo), str(hi)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kind=mobius seed=0 rel_tol=0.0001"
    body = [line.split() for line in lines[3:]]
    assert [int(cells[0]) for cells in body] == [1 << k for k in range(lo, hi + 1)]
    tables = sn.build_tables(max(4096, 1 << hi))
    for cells in body:
        n, l1 = int(cells[0]), float(cells[1])
        seq = sn.coefficient_sequence(tables, "mobius", n)
        assert l1 == pytest.approx(sn.l1_norm(seq).value, rel=1e-4)
        # the growth column is the suite's mobius ratio, printed to 4 digits
        expected = GROWTH_RATIOS["mobius"](n, l1, sn.l2_norm_sq(seq))
        assert float(cells[4]) == pytest.approx(expected, rel=1e-3)
        assert float(cells[2]) == pytest.approx(l1 / math.sqrt(n), rel=1e-4)


def test_l1_growth_table_smoke(capsys):
    check_growth_table(capsys, 6, 7)


def test_l1_growth_table_above_2_16(capsys):
    # one rung past the suite's ladder, in cosets of the quadrature's chunk
    check_growth_table(capsys, 17, 17)
