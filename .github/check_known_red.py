"""Exit non-zero unless the failing tests in a pytest JUnit XML report are
exactly the documented known-red acceptance tests (docs/decisions.md).

A new failure or error fails the check, and so does a known-red test that
passes or is missing, or any skipped test.

usage: python .github/check_known_red.py REPORT.xml
"""

import sys
import xml.etree.ElementTree as ET

KNOWN_RED = {
    "tests.test_acceptance::test_effective_model_energy_agreement",
    "tests.test_acceptance::test_two_block_square_norm_window",
}


def outcomes(path: str) -> dict:
    """Test id -> 'failed', 'skipped' or 'passed'."""
    out = {}
    for case in ET.parse(path).getroot().iter("testcase"):
        test_id = f"{case.get('classname')}::{case.get('name')}"
        if case.find("failure") is not None or case.find("error") is not None:
            out[test_id] = "failed"
        elif case.find("skipped") is not None:
            out[test_id] = "skipped"
        else:
            out[test_id] = "passed"
    return out


def main(path: str) -> int:
    results = outcomes(path)
    failed = {t for t, r in results.items() if r == "failed"}
    skipped = sorted(t for t, r in results.items() if r == "skipped")
    problems = [f"unexpected failure: {t}" for t in sorted(failed - KNOWN_RED)]
    problems += [f"known-red test did not fail: {t}" for t in sorted(KNOWN_RED - failed)]
    problems += [f"skipped: {t}" for t in skipped]
    passed = sum(r == "passed" for r in results.values())
    print(f"{passed} passed, {len(failed)} failed, {len(skipped)} skipped")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
