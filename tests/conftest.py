"""Hypothesis settings profiles, chosen by the HYPOTHESIS_PROFILE variable.

`ci` prints a failing example's reproduction blob, so a failure in the log
can be replayed with `@reproduce_failure`.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it, and they say so
    pass
else:
    settings.register_profile("ci", print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
