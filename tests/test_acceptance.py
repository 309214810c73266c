"""Full-scale validation criteria, one test per criterion.

Every criterion runs at its pinned tolerance and desk-scale size with
the fixed suite seed; run with ``pytest -v tests/test_acceptance.py`` to
get one pass/fail line per criterion.  The same implementations back the
command-line ``validate`` subcommand.
"""

import pytest

from quadglass.acceptance import CRITERIA, DEFAULT_SEED

ORDER = sorted(CRITERIA, key=lambda c: int(c[1:]))


@pytest.mark.parametrize("cid", ORDER)
def test_criterion(cid):
    description, criterion = CRITERIA[cid]
    measured, threshold, passed, detail = criterion(DEFAULT_SEED)
    line = (
        f"{cid}: {'pass' if passed else 'FAIL'} "
        f"measured={measured:.6g} threshold={threshold:.6g} "
        f"({description}) {detail}"
    )
    print(line)
    assert passed, line
