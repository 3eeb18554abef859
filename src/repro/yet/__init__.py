"""Year Event Table (YET) substrate.

The YET is "a database of pre-simulated occurrences of events from a catalog
of stochastic events" (Section II-A).  Each record — a *trial* — is one
alternative realisation of a contractual year: an ordered sequence of
``(event id, timestamp)`` pairs.  Using a pre-simulated table rather than
sampling on the fly gives every analysis a consistent view of the simulated
years, which is why the industry distributes YETs as data artefacts.

* :mod:`repro.yet.table` — the flattened CSR-style container
  (:class:`YearEventTable`),
* :mod:`repro.yet.simulator` — :class:`YETSimulator`, which samples trials
  from a catalog's occurrence rates and seasonality,
* :mod:`repro.yet.io` — a simple ``.npz`` serialization format, plus the
  memory-mapped store-directory format whose :class:`YetShardReader` is a
  trial source for any plan, one trial window resident at a time.
"""

from repro.yet.io import YetShardReader, load_yet, save_yet, save_yet_store
from repro.yet.simulator import YETSimulator
from repro.yet.table import YearEventTable

__all__ = [
    "YearEventTable",
    "YETSimulator",
    "YetShardReader",
    "save_yet",
    "save_yet_store",
    "load_yet",
]
