"""twinforge: a headless off-road vehicle digital twin. It runs one camera-AEB
test case at a time to deterministic telemetry and a verdict
(`episode.run_case`), and folds finished cases into per-batch and per-model
pass counts (`metrics.aggregate_report`); it has no sweep runner of its own."""

__version__ = "0.1.0"
