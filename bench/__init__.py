"""The simulator benchmark: four study workloads timed end to end, their
outputs checked against committed references, and a traced run that
attributes the wall time to layers.  Run ``python -m bench run``; see
``bench/README.md``."""
