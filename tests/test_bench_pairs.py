"""The summary that `tools/bench_pairs.py` writes from alternating pairs."""
import runpy
from pathlib import Path

import pytest

TOOL = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"))
summarize, summarize_passes = TOOL["summarize"], TOOL["summarize_passes"]


def test_summary_of_fixed_pairs():
    parent = [0.10, 0.12, 0.14, 0.16, 0.18]
    change = [0.09, 0.12, 0.15, 0.11, 0.13]
    out = summarize(parent, change)
    # inclusive quartiles of five values are the 2nd and 4th
    assert out["parent_median"] == 0.14 and out["parent_iqr"] == 0.04
    assert out["change_median"] == 0.12 and out["change_iqr"] == 0.02
    assert out["change_vs_parent"] == round(0.12 / 0.14 - 1, 4)
    # pair 2 is a tie, which counts for neither side
    assert (out["pairs_won"], out["pairs_lost"]) == ("3/5", "1/5")
    assert out["runs"] == {"parent": parent, "change": change}


def test_claim_rule_met():
    # ten pairs, nine won; the medians 1.00 and 0.80 differ by more than the
    # parent's interquartile range, 1.05 - 0.95
    parent = [0.90, 0.95, 0.95, 0.95, 1.00, 1.00, 1.05, 1.05, 1.05, 1.10]
    change = [0.70, 0.75, 0.80, 0.80, 0.80, 0.80, 0.85, 0.85, 1.10, 0.85]
    out = summarize(parent, change)
    assert (out["parent_median"], out["parent_iqr"], out["change_median"]) == (1.0, 0.1, 0.8)
    assert out["pairs_won"] == "9/10" and out["claim_rule_met"] is True


def test_claim_rule_failed_by_the_iqr():
    # every pair won, but the medians 1.00 and 0.95 differ by less than the
    # parent's interquartile range, 1.10 - 0.90
    parent = [0.80, 0.90, 0.90, 0.90, 1.00, 1.00, 1.10, 1.10, 1.10, 1.20]
    change = [p - 0.05 for p in parent]
    out = summarize(parent, change)
    assert out["pairs_won"] == "10/10" and out["parent_iqr"] == 0.2
    assert out["claim_rule_met"] is False


def test_claim_rule_failed_by_pairs_won():
    # the medians 1.00 and 0.50 are far apart, but only eight pairs of ten
    # are won
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.5, 1.5]
    out = summarize(parent, change)
    assert out["parent_iqr"] == 0 and out["change_median"] == 0.5
    assert out["pairs_won"] == "8/10" and out["claim_rule_met"] is False


def test_claim_rule_reads_higher_as_better():
    out = summarize([1.0] * 10, [2.0] * 10, better="higher")
    assert out["pairs_won"] == "10/10" and out["claim_rule_met"] is True


def test_higher_is_better_turns_the_count_round():
    out = summarize([1.0, 2.0, 3.0], [2.0, 1.0, 4.0], better="higher")
    assert (out["pairs_won"], out["pairs_lost"]) == ("2/3", "1/3")


@pytest.mark.parametrize("parent, change", [([0.1], [0.1]), ([0.1, 0.2], [0.1])])
def test_summary_needs_two_matched_pairs(parent, change):
    with pytest.raises(ValueError):
        summarize(parent, change)


def test_summary_of_passes_reads_digests_and_shares():
    def one(setup, pass_s, rss, digest):
        return {"setup_s": setup, "pass_s": pass_s, "peak_rss_mb": rss, "digest": digest,
                "verdicts": 4, "decided": 3, "defects": {"arrow-cr2": 1}}

    passes = {"parent": [one(0.2, 1.0, 20.0, "d"), one(0.3, 1.2, 20.2, "d")],
              "change": [one(0.2, 0.8, 20.1, "d"), one(0.2, 0.9, 20.1, "e")]}
    out = summarize_passes(passes, recorded="d")
    assert out["pairs"] == 2
    assert out["pass_s"]["pairs_won"] == "2/2" and out["setup_s"]["pairs_won"] == "1/2"
    assert out["parent_digests"] == ["d"] and out["change_digests"] == ["d", "e"]
    assert out["parent_digest_recorded"] and not out["change_digest_recorded"]
    assert out["change_shares"] == {"decided_share": 0.75, "correct_share": 0.75}
