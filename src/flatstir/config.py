"""The one deployment default: the enumeration cap.

`DEFAULT_BUDGET` caps a walk's size unless `budget=None` (`--force` on
the command line) lifts it; `counting`, `enumeration` and `analysis`
import it from here.  There is no config file.  The only setting read from
the environment, `FLATSTIR_CACHE_DIR`, the directory of saved b-files, is
read by `oeis` itself; any other `FLATSTIR_*` variable is ignored.
"""

DEFAULT_BUDGET = 10**8  # the enumeration size cap; None lifts it
