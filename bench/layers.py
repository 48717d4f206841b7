"""Per-layer metrics and span-completeness checks over a finished trace.

Each metric names the end-to-end figure it should move (see BENCHMARK.json
and the module docstring of run.py). Times are per paired trial unless the
unit says per CLI run.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracer import SpanStats

MS_TRIAL = "ms/trial"
MS_RUN = "ms/run"

# (metric name, span name, "total" or "self")
_TIMED_SPANS = (
    ("array_channel.simulate_reception.ms", "array_channel.simulate_reception", "total"),
    ("array_channel.synthesize_channel.ms", "array_channel.synthesize_channel", "total"),
    ("array_channel.sample_angles.ms", "array_channel.sample_angles", "total"),
    ("simharness.draw_realization.self_ms", "simharness.draw_realization", "self"),
    ("simharness.run_trial.self_ms", "simharness.run_trial", "self"),
    ("subspace.make_angle_grid.ms", "subspace.make_angle_grid", "total"),
    ("subspace.subarray_covariances.ms", "subspace.subarray_covariances", "total"),
    ("subspace.forward_backward_smooth.ms", "subspace.forward_backward_smooth", "total"),
    ("subspace.eigh.ms", "subspace.hermitian_eigendecomposition", "total"),
    ("subspace.music_spectrum.self_ms", "subspace.music_spectrum", "self"),
    ("subspace.sample_covariance.ms", "subspace.sample_covariance", "total"),
    ("subspace.bartlett_spectrum.ms", "subspace.bartlett_spectrum", "total"),
    ("subspace.find_peaks.ms", "subspace.find_peaks", "total"),
    ("subspace.scan_angles.self_ms", "subspace.scan_angles", "self"),
    ("estimators.ls_conventional.ms", "estimators.ls_conventional", "total"),
    ("estimators.estimate_gains_multipath.ms", "estimators.estimate_gains_multipath", "total"),
    ("estimators.estimate_gain_los.ms", "estimators.estimate_gain_los", "total"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: SpanStats, counts: Dict[str, int], trials: int,
                  runs: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer figures from ``runs`` traced CLI runs holding ``trials`` trials."""
    per_trial = lambda ns: ns / 1e6 / trials  # noqa: E731
    per_run = lambda ns: ns / 1e6 / runs  # noqa: E731
    metrics = {}
    for metric, span, kind in _TIMED_SPANS:
        ns = stats.total_ns(span) if kind == "total" else stats.self_ns(span)
        metrics[metric] = (per_trial(ns), MS_TRIAL)
    metrics["estimators.empirical_snr.ms"] = (
        per_trial(stats.total_ns("estimators.empirical_snr")
                  + stats.total_ns("estimators.mrc_beamformer")), MS_TRIAL)
    metrics["simharness.aggregate.ms"] = (per_run(stats.total_ns("simharness.snr_cdfs")),
                                          MS_RUN)
    metrics["cli.config.ms"] = (
        per_run(stats.total_ns("cli.load_run_config") + stats.total_ns("cli.build_spec")),
        MS_RUN)
    metrics["cli.self_ms"] = (per_run(stats.self_ns("cli.main")), MS_RUN)
    metrics["array_channel.block_bytes"] = (
        _ratio(counts.get("array_channel.block_bytes", 0), trials), "B/trial")
    metrics["subspace.grid_points"] = (
        _ratio(counts.get("subspace.grid_points", 0), trials), "count/trial")
    metrics["subspace.spectrum_macs"] = (
        _ratio(counts.get("subspace.spectrum_macs", 0), trials), "count/trial")
    metrics["subspace.find_peaks.fail_ratio"] = (
        _ratio(counts.get("subspace.find_peaks.raises", 0),
               stats.calls("subspace.find_peaks")), "ratio")
    metrics["estimators.gain_solve.collided_ratio"] = (
        _ratio(counts.get("estimators.estimate_gains_multipath.raises", 0),
               stats.calls("estimators.estimate_gains_multipath")), "ratio")
    return metrics


def span_problems(stats: SpanStats, trials: int, runs: int, multipath: bool) -> List[str]:
    """Departures from the span shape every traced workload must have.

    A public function that escaped re-binding shows up here as a missing
    span, instead of reading as 0 ms in the metrics.
    """
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    expect(stats.calls("cli.main") == runs, f"cli.main spans != {runs} runs")
    expect(stats.calls("simharness.run_trial") == trials,
           f"run_trial spans {stats.calls('simharness.run_trial')} != {trials} trials")
    for name in ("simharness.draw_realization", "array_channel.simulate_reception",
                 "estimators.ls_conventional"):
        per = stats.per_trial_calls(name)
        expect(per.size == trials and bool((per == 1).all()), f"{name}: not one span per trial")
    scans = stats.per_trial_calls("subspace.scan_angles")
    expect(scans.size == trials and bool((scans == 1).all()),
           "scan_angles: not exactly one span per trial")
    music = stats.calls("subspace.music_spectrum")
    eigh = stats.calls("subspace.hermitian_eigendecomposition")
    bartlett = stats.calls("subspace.bartlett_spectrum")
    if multipath:
        expect(music == trials and eigh == music and bartlett == 0,
               f"{music} MUSIC, {eigh} eigh, {bartlett} Bartlett spans for {trials} trials")
    else:
        expect(bartlett == trials and music == 0 and eigh == 0,
               f"{bartlett} Bartlett, {music} MUSIC, {eigh} eigh spans for {trials} trials")
    return problems
