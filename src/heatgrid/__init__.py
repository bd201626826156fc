"""heatgrid: hourly multi-country power-sector expansion with heat pumps.

The package is organized in layers:

* ``ids``        -- canonical identifier space (countries, technologies, ...)
* ``series``     -- hourly time series types, validation, July-June windowing
* ``ingest``     -- CSV ingestion / canonical re-emission
* ``synth``      -- deterministic synthetic profile generator (desk scale)
* ``staticdata`` -- bundled cost / bounds dataset and its loaders
* ``heat``       -- heat-pump module: coverage, thermal storage, COP, sizing
* ``lp``         -- generic sparse linear-program container
* ``model``      -- cost arithmetic and assembly of the system LP
* ``mps``        -- MPS export / import with a name-map sidecar
* ``solver``     -- HiGHS solve front-end and constraint-residual verification
* ``scenarios``  -- scenario matrix, variants, batch runner, persistence
* ``analysis``   -- residual load, RLDCs, events, peaks, cost reports
* ``cli``        -- ``heatgrid ingest|run|analyze``
"""

__version__ = "0.1.0"
