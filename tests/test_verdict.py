from mdm.verdict import Verdict


def test_pass_exactly_without_failures():
    assert Verdict.of(()).status == "pass"
    assert Verdict.of([("x",)]).status == "fail"
    assert Verdict.of([("x",)]).failures == (("x",),)


def test_ok_and_its_alias():
    for status in ("pass", "fail", "unknown"):
        v = Verdict(status)
        assert v.ok == (status == "pass") == v.passed


def test_summary_text():
    v = Verdict.of((), checked=3, boundary=2, skipped=1, unknown=4, name="mink")
    assert v.summary() == "mink: pass (3 checked, 0 violation(s), boundary 2, skipped 1, unknown 4)"
    v = Verdict.of([1, 2], checked=5, name="clsubst")
    assert v.summary() == "clsubst: FAIL (5 checked, 2 violation(s), boundary 0, skipped 0, unknown 0)"
    assert Verdict("unknown", unknown=1, name="omega").summary().startswith("omega: unknown (")

