"""Planted faults that the commands and rows a user runs must catch.

Each case scales one layer by a small factor, through ``monkeypatch``, and
asserts that the user's run fails an invariant (exit code 2 from the CLI)
while the same run without the fault (factor 1.0, the same bits) passes.
"""

import pytest

import sievenorm.cli as cli
from sievenorm import largesieve
from sievenorm.experiments import SuiteConfig, invariant_violations, run_suite

#: The README's sieve-check example at a shift far outside [0, 1).
SIEVE_CHECK = [
    "sieve-check", "--set-kind", "reduced_farey", "--param", "22",
    "--kind", "mobius", "--n", "512", "--shift", "1e6",
]


def scale(monkeypatch, module, name, factor):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: original(*args) * factor)


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
