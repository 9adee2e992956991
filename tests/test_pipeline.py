"""Deployment-pipeline and miner-validation tests (Sec. 4.3)."""

import pytest

from repro.core.pipeline import run_pipeline, validate_signature
from repro.core.signature import ShardingSignature, derive_signature
from repro.contracts import CORPUS
from repro.scilla.errors import ParseError, TypeError_


def test_pipeline_times_each_stage():
    result = run_pipeline(CORPUS["HelloWorld"], "HelloWorld")
    us = result.timings.as_microseconds()
    assert us["parse"] > 0
    assert us["typecheck"] > 0
    assert us["analysis"] > 0


def test_pipeline_without_analysis():
    result = run_pipeline(CORPUS["HelloWorld"], with_analysis=False)
    assert result.summaries == {}
    assert result.timings.analysis == 0


def test_pipeline_propagates_parse_errors():
    with pytest.raises(ParseError):
        run_pipeline("scilla_version 0 contract (")


def test_pipeline_propagates_type_errors():
    bad = CORPUS["HelloWorld"].replace('welcome_msg := msg',
                                       'welcome_msg := contract_owner')
    with pytest.raises(TypeError_):
        run_pipeline(bad)


def test_validate_signature_accepts_honest_signature():
    source = CORPUS["FungibleToken"]
    result = run_pipeline(source, "FT")
    sig = result.signature(("Mint", "Transfer", "TransferFrom"))
    assert validate_signature(source, sig)


def test_validate_signature_rejects_tampered_joins():
    """A malicious deployer claiming OwnOverwrite for an IntMerge field
    (or vice versa) is caught by re-derivation."""
    from repro.core.joins import JoinKind
    source = CORPUS["FungibleToken"]
    result = run_pipeline(source, "FT")
    sig = result.signature(("Mint", "Transfer", "TransferFrom"))
    tampered = ShardingSignature(
        sig.contract, sig.selected, sig.constraints,
        {**sig.joins, "balances": JoinKind.OWN_OVERWRITE},
        sig.weak_reads)
    assert not validate_signature(source, tampered)


def test_validate_signature_rejects_dropped_constraints():
    source = CORPUS["FungibleToken"]
    result = run_pipeline(source, "FT")
    sig = result.signature(("Mint", "Transfer", "TransferFrom"))
    weakened = ShardingSignature(
        sig.contract, sig.selected,
        {**sig.constraints, "Transfer": frozenset()},
        sig.joins, sig.weak_reads)
    assert not validate_signature(source, weakened)


def test_validate_signature_rejects_wrong_contract():
    ft = CORPUS["FungibleToken"]
    result = run_pipeline(ft, "FT")
    sig = result.signature(("Mint", "Transfer"))
    assert not validate_signature(CORPUS["HelloWorld"], sig)


def test_signature_derivation_deterministic():
    result = run_pipeline(CORPUS["UD_registry"], "UD")
    a = result.signature(("Bestow", "ConfigureNode"))
    b = result.signature(("Bestow", "ConfigureNode"))
    assert a.constraints == b.constraints
    assert a.joins == b.joins
