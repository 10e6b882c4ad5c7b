from qhecke.report import CheckResult, verdict


def test_no_counterexample_passes():
    assert verdict("c", iter(()), "d") == CheckResult("c", True, "d", None)
    assert verdict("c", []).as_dict() == {"name": "c", "status": "pass", "details": ""}


def test_the_first_counterexample_is_reported():
    r = verdict("c", [{"k": 0}, {"k": 1}])
    assert r == CheckResult("c", False, "", {"k": 0})
    assert r.as_dict()["counterexample"] == {"k": 0}


def test_the_scan_stops_at_the_first_counterexample():
    def failures():
        yield {"k": 0}
        raise AssertionError("resumed after the first counterexample")

    assert verdict("c", failures()).counterexample == {"k": 0}

