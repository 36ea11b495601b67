"""Planted faults that the commands and rows a user runs must catch.

Each case scales one layer by a small factor, through ``monkeypatch``, and
asserts that the user's run fails an invariant (exit code 2 from the CLI)
while the same run without the fault (factor 1.0, the same bits) passes.  A
fault that no invariant catches yet stays as a strict xfail naming the
ROADMAP items that close it, so its fix shows as an XPASS.
"""

import pytest

import sievenorm.cli as cli
from sievenorm import experiments, largesieve, quadrature
from sievenorm.experiments import SuiteConfig, invariant_violations, run_suite

#: The README's sieve-check example at a shift far outside [0, 1).
SIEVE_CHECK = [
    "sieve-check", "--set-kind", "reduced_farey", "--param", "22",
    "--kind", "mobius", "--n", "512", "--shift", "1e6",
]
KERNEL_GAP = ["kernel-gap", "--n", "64"]
NORM = ["norm", "--kind", "mobius", "--n", "1024"]


def scale(monkeypatch, module, name, factor):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: original(*args, **kwargs) * factor)


class TestClassEnergies:
    """Every A_d 1% high: the class route's lhs is wrong, and only the
    pointwise cross-check of the sampled classes can see it."""

    @pytest.mark.parametrize("factor, code", [(1.0, 0), (1.01, 2)])
    def test_sieve_check_command(self, capsys, monkeypatch, factor, code):
        scale(monkeypatch, largesieve, "_class_energies", factor)
        assert cli.main(SIEVE_CHECK) == code
        assert ("invariant violation" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("factor, violations", [(1.0, 0), (1.01, 1)])
    def test_sieve_trials(self, tables, monkeypatch, factor, violations):
        scale(monkeypatch, largesieve, "_class_energies", factor)
        config = SuiteConfig(experiments=(("large_sieve", {"trials": 25}),))
        (row,) = run_suite(config, tables)
        assert row.experiment == "large_sieve"
        assert len(invariant_violations([row])) == violations


class TestKernelRows:
    """Every kernel's rows 25% high but T_N's: the gap max |K - T_N| grows
    past the large-sieve ceiling (gstar at N = 64 reads 1.013 of it, from
    0.810).  ``scale`` cannot spare Fejer, whose rows every kind subtracts."""

    @pytest.mark.parametrize("factor, code", [(1.0, 0), (1.25, 2)])
    def test_kernel_gap_command(self, capsys, monkeypatch, factor, code):
        original = experiments.kernel_row

        def scaled(tables, spec, *args):
            row = original(tables, spec, *args)
            return row if spec.kind == "fejer" else row * factor

        monkeypatch.setattr(experiments, "kernel_row", scaled)
        assert cli.main(KERNEL_GAP) == code
        assert ("invariant violation" in capsys.readouterr().err) == (code == 2)


class TestL1RowSums:
    """Every L1 row sum 20% low: the Cauchy-Schwarz ceiling and the
    single-frequency floor both still hold, so no invariant sees it yet."""

    @pytest.mark.parametrize(
        "factor, code",
        [
            (1.0, 0),
            pytest.param(
                0.8,
                2,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="no L1 invariant has a low side: ROADMAP items 4 (certified "
                    "lower ends) and 11 (exact anchors as rows) close this",
                ),
            ),
        ],
    )
    def test_norm_command(self, capsys, monkeypatch, factor, code):
        scale(monkeypatch, quadrature, "_row_sum", factor)
        assert cli.main(NORM) == code
        assert ("invariant violation" in capsys.readouterr().err) == (code == 2)
