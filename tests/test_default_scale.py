"""The default-scale byte ledger (see ``default_scale.py``) holds unchanged."""

from .default_scale import ledger_changes


def test_default_scale_outputs_match_the_ledger():
    assert ledger_changes() == []
