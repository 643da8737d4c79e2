"""The benchmark's tracer wraps program functions by name; every traced site
must exist, so a refactor that drops or renames one fails here."""

import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from supersew import sewing  # noqa: E402
from supersewbench import tracer  # noqa: E402


def test_every_traced_site_exists():
    for table in (tracer.SPANNED, tracer.COUNTED):
        for name, sites in table.items():
            for owner, attr in sites:
                assert callable(getattr(owner, attr, None)), (name, attr)


def test_retry_loops_are_named_in_sew():
    # a WindowError counts as a retry only when raised to one of these
    nested = {c.co_name for c in sewing.sew.__code__.co_consts
              if isinstance(c, types.CodeType)}
    assert tracer.RETRY_LOOPS <= nested
    assert tracer.RETRIED <= set(tracer.SPANNED)
