"""The benchmark's tracer wraps module and class attributes by name.

``bench/run.py --trace 1`` replaces each attribute ``bench/spans.py``
lists and puts it back afterwards; deleting or renaming one of them in
the package would break traced runs without failing any other test.
"""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.append(BENCH)

import spans  # noqa: E402


def test_every_probed_attribute_is_bound_where_the_tracer_looks():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in spans.probed_attributes()
        if attr not in owner.__dict__
    ]
    assert missing == []
