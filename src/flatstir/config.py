"""The two deployment defaults: the enumeration cap and the b-file directory.

`DEFAULT_BUDGET` caps a walk's size unless `budget=None` (`--force` on
the command line) lifts it; `counting`, `enumeration` and `analysis`
import it from here.  `default_cache_dir` resolves the directory that the
OEIS client reads saved b-files from (it writes nothing there) from the
environment: `FLATSTIR_CACHE_DIR`, else `$XDG_CACHE_HOME/flatstir/oeis`,
else `~/.cache/flatstir/oeis`.  Nothing else is read: there is no config
file, and any other `FLATSTIR_*` variable is ignored.
"""

from __future__ import annotations

import os
from collections.abc import Mapping

DEFAULT_BUDGET = 10**8  # the enumeration size cap; None lifts it


def default_cache_dir(env: Mapping[str, str] = os.environ) -> str:
    cache_dir = env.get("FLATSTIR_CACHE_DIR")
    if cache_dir:
        return cache_dir
    base = env.get("XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "flatstir", "oeis")
