//! The maintain-path step, the bookkeeping of what the delta stream did, and
//! small helpers the workloads and the replays share.

use std::time::Instant;

use dlearn_core::{DeltaReport, Engine, Learned, PredictorService};
use dlearn_eval::metrics::Confusion;

use crate::report::{median, ms, Report, Spans};
use crate::scenario::DeltaStep;

/// One maintain-path step: `Engine::apply_delta`, then `Engine::predictor`
/// to re-bind the definition, then `PredictorService::apply_delta` to serve
/// the new epoch. Returns the step's wall time in ms (submit to served).
pub fn delta_step(
    engine: &mut Engine,
    learned: &Learned,
    service: &PredictorService,
    step: &DeltaStep,
    spans: &mut Spans,
    totals: &mut DeltaTotals,
) -> Result<f64, String> {
    let start = Instant::now();
    let report = spans
        .span("delta.engine_apply", || engine.apply_delta(&step.tx))
        .map_err(|e| format!("apply_delta (k={}): {e}", step.k))?;
    let predictor = spans
        .span("delta.rebind", || engine.predictor(learned))
        .map_err(|e| format!("re-bind after delta: {e}"))?;
    spans
        .span("swap.apply", || service.apply_delta(predictor, &report))
        .map_err(|e| format!("service apply_delta: {e}"))?;
    let elapsed = ms(start.elapsed());
    totals.add(&report);
    Ok(elapsed)
}

/// Work counts summed over the delta reports of a run.
#[derive(Default)]
pub struct DeltaTotals {
    steps: usize,
    rescored_lefts: usize,
    patched_entries: usize,
    regrounded: usize,
    reused: usize,
    changed_match_lists: usize,
}

impl DeltaTotals {
    fn add(&mut self, report: &DeltaReport) {
        let g = &report.grounding;
        self.steps += 1;
        self.rescored_lefts += report.rescored_lefts;
        self.patched_entries += report.patched_entries;
        self.regrounded += g.positives_reground + g.negatives_reground;
        self.reused += g.positives_reused + g.negatives_reused;
        self.changed_match_lists += report.changed_match_lists();
    }

    /// Per-step means, so workloads with different step counts compare.
    pub fn emit(&self, report: &mut Report) {
        let n = self.steps.max(1) as f64;
        for (name, total) in [
            ("delta.rescored_lefts", self.rescored_lefts),
            ("delta.patched_entries", self.patched_entries),
            ("delta.regrounded", self.regrounded),
            ("delta.reused", self.reused),
            ("delta.changed_match_lists", self.changed_match_lists),
        ] {
            report.add(name, total as f64 / n, "count", self.steps);
        }
    }
}

/// Emit the maintain-path span medians of a traced run.
pub fn emit_delta_spans(report: &mut Report, spans: &Spans) {
    for (span, name) in [
        ("delta.engine_apply", "delta.engine_apply_ms"),
        ("delta.rebind", "delta.rebind_ms"),
        ("swap.apply", "swap.apply_ms"),
    ] {
        let values = spans.get(span);
        report.add(name, nonempty_median(values), "ms", values.len());
    }
}

pub fn nonempty_median(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        median(values)
    }
}

pub fn f1(positive_verdicts: &[bool], negative_verdicts: &[bool]) -> f64 {
    Confusion::from_predictions(positive_verdicts, negative_verdicts).f1()
}

/// Tracing overhead: the median of the traced replays over the median of
/// the untraced replays of the same requests, minus one.
pub fn overhead_frac(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    nonempty_median(traced_ms) / nonempty_median(untraced_ms) - 1.0
}
