"""The DSI benchmark: four fixed workloads, end to end and layer by layer.

``python -m benchmarks.dsi suite`` runs everything and prints every
metric; ``run`` is the single measured run ``BENCHMARK.json`` names;
``compare`` judges two suite results.  See ``README.md`` beside this
file.
"""
