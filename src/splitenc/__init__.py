"""Split-sample forecast encompassing tests for nested direct multi-step models.

The package bundles the test statistic itself (``enc_test``), the
least-squares and expanding-window machinery behind it (``regression``),
synthetic data generators (``dgp``), a deterministic Monte Carlo harness for
size/power studies (``monte_carlo``), the quarterly inflation application
(``inflation``), the CSV/JSON/markdown table syntax every output shares
(``tables``) and a command line (``splitenc``).  The top level exports
what the one-pair workflow needs; everything else is imported from its
module.
"""

from .enc_test import ForecastErrorSet, HacConfig, SplitSpec, encompassing_test
from .errors import SplitEncError
from .regression import DirectDesign, expanding_window_forecast_errors

__version__ = "0.1.0"
