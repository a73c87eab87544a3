//! The two workloads. Closed-loop callers submit Zipf(1.1) requests over
//! every `imdb_movies` id through a `Coalescer` in front of a
//! `PredictorService` whose cache holds fewer entries than the pool.
//! `serve-zipf` runs two callers (and, in traced runs, then a quiet maintain
//! stream with no readers); `serve-churn` runs one caller beside one writer
//! thread that replays the delta stream back to back.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dlearn_core::{Engine, Learned, PredictorService, PreparedClause, ServeResult};
use dlearn_relstore::Tuple;

use crate::layers;
use crate::ops::{self, DeltaTotals};
use crate::report::{ms, peak_rss_mb, percentile, timed, Raw, Report, Spans};
use crate::scenario::{self, DeltaStep, Scale, Served, ZipfStream};

struct Sample {
    tuple: Tuple,
    ms: f64,
    result: ServeResult,
}

/// What the maintain path produced during a run.
#[derive(Default)]
struct Writes {
    delta_ms: Vec<f64>,
    totals: DeltaTotals,
    problems: Vec<String>,
    /// Steps applied; odd means the last insert has not been deleted yet.
    steps: usize,
}

impl Writes {
    /// Apply steps of the stream, timing each, until `done(steps)`.
    fn run(
        &mut self,
        (engine, learned, service): (&mut Engine, &Learned, &PredictorService),
        deltas: &[DeltaStep],
        spans: &mut Spans,
        done: impl Fn(usize) -> bool,
    ) {
        while !done(self.steps) {
            let step = &deltas[self.steps % deltas.len()];
            match ops::delta_step(engine, learned, service, step, spans, &mut self.totals) {
                Ok(t) => self.delta_ms.push(t),
                Err(e) => self.problems.push(e),
            }
            self.steps += 1;
        }
    }
}

/// Run one workload in this process. Untraced runs return their raw
/// end-to-end samples; traced runs return the per-layer metrics in the
/// report.
pub fn run(scale: Scale, seed: u64, seconds: f64, traced: bool, churn: bool) -> (Report, Raw) {
    let mut report = Report::default();
    let mut raw = Raw::default();
    let data = scenario::dataset(scale);
    let fold = scenario::serve_fold(&data);
    let pool = scenario::request_pool(&data.task.database);
    let deltas = scenario::delta_stream(&data.task.database, seed);
    let sizes = scale.sizes();

    // Learn the served definition once, outside set-up (README.md says why
    // it is FOIL's); traced runs time every strategy.
    let learned =
        match Engine::prepare(fold.train.clone(), scenario::learner_config()).and_then(|engine| {
            let learned = engine.learn(scenario::SERVED)?;
            check_clause_stats(&engine, std::slice::from_ref(&learned), &mut report);
            Ok(learned)
        }) {
            Ok(learned) => learned,
            Err(e) => {
                report.problem(format!("prepare and learn {}: {e}", scenario::SERVED));
                return (report, raw);
            }
        };

    report.notes.push(format!(
        "served {} definition: {} clauses, fingerprint {:016x}",
        scenario::SERVED,
        learned.clauses().len(),
        fingerprint(learned.clauses())
    ));

    // Set up several times (prepare, bind, service, coalescer); the last
    // stack serves.
    let mut stack = None;
    for _ in 0..scenario::SETUPS {
        drop(stack.take());
        let (built, s) = timed(|| scenario::serve_stack(&fold.train, &learned, scale));
        match built {
            Ok(built) => {
                report.ops(1, 0);
                raw.setup_s.push(s);
                stack = Some(built);
            }
            Err(e) => report.problem(e),
        }
    }
    let Some(mut served) = stack else {
        return (report, raw);
    };

    // Warm up: every pool tuple once, then a stretch of the Zipf stream.
    let _ = served.coalescer.service().predict_batch(&pool);
    let mut warm = ZipfStream::new(&pool, seed, u64::MAX);
    for _ in 0..sizes.warmup_requests {
        let _ = served.coalescer.submit(warm.next_tuple());
    }

    // The measured phase: closed-loop readers, plus the writer in churn.
    let callers: u64 = if churn { 1 } else { 2 };
    let mut spans = Spans::new(traced);
    let mut writes = Writes::default();
    // Each caller and the writer run until the deadline and until they hold
    // enough samples for their tail percentile; callers also wait for the
    // writer.
    let before = (
        served.coalescer.service().metrics(),
        served.coalescer.metrics(),
    );
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_caller = sizes.min_requests.div_ceil(callers as usize);
    let writing = AtomicBool::new(churn);
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let Served { engine, coalescer } = &mut served;
        let coalescer = &*coalescer;
        let (pool, writing) = (&pool, &writing);
        let readers: Vec<_> = (0..callers)
            .map(|caller| {
                scope.spawn(move || {
                    let mut stream = ZipfStream::new(pool, seed, caller);
                    let mut out = Vec::new();
                    while Instant::now() < deadline
                        || out.len() < per_caller
                        || writing.load(Ordering::Acquire)
                    {
                        let tuple = stream.next_tuple();
                        let start = Instant::now();
                        let result = coalescer.submit(tuple.clone());
                        out.push(Sample {
                            tuple,
                            ms: ms(start.elapsed()),
                            result,
                        });
                    }
                    out
                })
            })
            .collect();
        if churn {
            let chain = (engine, &learned, &**coalescer.service());
            let enough = |steps| Instant::now() >= deadline && steps >= sizes.delta_steps;
            writes.run(chain, &deltas, &mut spans, enough);
            writing.store(false, Ordering::Release);
        }
        readers
            .into_iter()
            .flat_map(|r| r.join().expect("reader thread panicked"))
            .collect()
    });
    raw.phase_s = start.elapsed().as_secs_f64();
    let serve_ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let errors = samples.iter().filter(|s| s.result.is_err()).count();
    report.ops(samples.len(), errors);
    let degraded = samples
        .iter()
        .filter(|s| matches!(&s.result, Ok(v) if v.is_degraded()))
        .count();
    let served_tuples = distinct(samples.iter().map(|s| &s.tuple));
    let service = served.coalescer.service().clone();

    if churn {
        check_final_epoch(&served, &learned, &pool, &mut report);
        // Delete the last insert, so the database ends as it began.
        if writes.steps % 2 == 1 {
            let step = &deltas[writes.steps % deltas.len()];
            let mut off = Spans::new(false);
            let mut totals = DeltaTotals::default();
            let done = ops::delta_step(
                &mut served.engine,
                &learned,
                &service,
                step,
                &mut off,
                &mut totals,
            );
            if let Err(e) = done {
                report.problem(e);
            }
        }
    } else {
        check_served_verdicts(&served, &learned, &samples, &served_tuples, &mut report);
    }
    if traced && !churn {
        // The quiet maintain stream, with no readers, in whole pairs.
        let steps = sizes.delta_steps.next_multiple_of(2);
        let chain = (&mut served.engine, &learned, &*service);
        writes.run(chain, &deltas, &mut spans, |n| n >= steps);
    }
    report.ops(writes.delta_ms.len(), 0);
    for problem in std::mem::take(&mut writes.problems) {
        report.problem(problem);
    }

    if !traced {
        raw.serve_ms = serve_ms;
        raw.peak_rss_mb = peak_rss_mb();
        return (report, raw);
    }

    // Per-layer numbers: the measured phase's tails, the serving-tier
    // counters, then the replays.
    report.add(
        "serve.p99_ms",
        percentile(&serve_ms, 0.99),
        "ms",
        serve_ms.len(),
    );
    let delta_ms = &writes.delta_ms;
    report.add(
        "delta.p50_ms",
        percentile(delta_ms, 0.5),
        "ms",
        delta_ms.len(),
    );
    report.add(
        "delta.p75_ms",
        percentile(delta_ms, 0.75),
        "ms",
        delta_ms.len(),
    );
    // Counters first: the replays below go through the same service.
    let after = (service.metrics(), served.coalescer.metrics());
    let stream: Vec<Tuple> = samples
        .iter()
        .take(sizes.replay_requests)
        .map(|s| s.tuple.clone())
        .collect();
    // Replay the stream solo, alternately without and with a span around
    // each call: the untraced replays give the solo latencies, the pair the
    // tracing overhead.
    let (mut solo, mut traced_solo) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        solo.extend(layers::solo_replay(
            &service,
            &stream,
            &mut Spans::new(false),
            &mut report,
        ));
        traced_solo.extend(layers::solo_replay(
            &service,
            &stream,
            &mut spans,
            &mut report,
        ));
    }
    layers::emit_serving(
        &mut report,
        [before, after],
        &serve_ms,
        &solo,
        (degraded, samples.len() - errors),
    );
    let served_f1 = heldout_f1(
        &served,
        &fold.test_positives,
        &fold.test_negatives,
        &mut report,
    );
    report.add(
        "serve.heldout_f1",
        served_f1,
        "ratio",
        fold.test_positives.len() + fold.test_negatives.len(),
    );
    let all = layers::learn_all(&served.engine, &mut spans, &mut report);
    check_clause_stats(&served.engine, &all, &mut report);
    layers::emit_learn(&mut report, &spans, &served.engine, &all, &fold);
    layers::replay(
        &mut report,
        &layers::Inputs {
            engine: &served.engine,
            learned: &all,
            served: &served_tuples,
            deltas: &deltas,
        },
    );
    ops::emit_delta_spans(&mut report, &spans);
    writes.totals.emit(&mut report);
    report.add(
        "trace.overhead_frac",
        ops::overhead_frac(&solo, &traced_solo),
        "ratio",
        traced_solo.len(),
    );
    (report, raw)
}

/// Distinct tuples, in first-occurrence order.
fn distinct<'a>(tuples: impl Iterator<Item = &'a Tuple>) -> Vec<Tuple> {
    let mut seen = std::collections::HashSet::new();
    tuples.filter(|t| seen.insert(*t)).cloned().collect()
}

/// Every learned clause's `ClauseStats` must equal a fresh
/// `CoverageEngine::counts` recount under its strategy's semantics.
fn check_clause_stats(engine: &Engine, learned: &[Learned], report: &mut Report) {
    for l in learned {
        let (coverage, config) = match scenario::recount_engine(engine, l.strategy()) {
            Ok(recount) => recount,
            Err(e) => {
                report.problem(format!("recount engine for {}: {e}", l.strategy()));
                continue;
            }
        };
        for (i, (clause, stats)) in l.clauses().iter().zip(l.stats()).enumerate() {
            let counts = coverage.counts(&PreparedClause::prepare(clause.clone(), &config));
            report.ops(1, 0);
            if counts.positives != stats.positives_covered
                || counts.negatives != stats.negatives_covered
            {
                report.problem(format!(
                    "{} clause {i}: learned stats {}+/{}- but a fresh recount gives {}+/{}-",
                    l.strategy(),
                    stats.positives_covered,
                    stats.negatives_covered,
                    counts.positives,
                    counts.negatives
                ));
            }
        }
    }
}

/// serve-zipf: every served `covered` must equal `Predictor::predict_batch`
/// on the same tuple.
fn check_served_verdicts(
    served: &Served,
    learned: &Learned,
    samples: &[Sample],
    distinct: &[Tuple],
    report: &mut Report,
) {
    let expected = match served
        .engine
        .predictor(learned)
        .and_then(|p| p.predict_batch(distinct))
    {
        Ok(v) => v,
        Err(e) => {
            report.problem(format!("reference predict_batch: {e}"));
            return;
        }
    };
    let expected: HashMap<&Tuple, bool> = distinct.iter().zip(expected).collect();
    let wrong = samples
        .iter()
        .filter(|s| matches!(&s.result, Ok(v) if Some(&v.covered) != expected.get(&s.tuple)))
        .count();
    if wrong > 0 {
        report.problem(format!(
            "{wrong} served verdicts differ from Predictor::predict_batch"
        ));
    }
}

/// serve-churn: the final epoch's verdicts over the pool must equal those of
/// a fresh `Engine::prepare` on the mutated store, bound to the same
/// definition.
fn check_final_epoch(served: &Served, learned: &Learned, pool: &[Tuple], report: &mut Report) {
    let final_epoch = served.coalescer.service().predict_batch(pool);
    let fresh = Engine::prepare(served.engine.task().clone(), served.engine.config().clone())
        .and_then(|e| e.predictor(learned))
        .and_then(|p| p.predict_batch(pool));
    let fresh = match fresh {
        Ok(v) => v,
        Err(e) => {
            report.problem(format!("fresh prepare on the mutated store: {e}"));
            return;
        }
    };
    report.ops(pool.len(), 0);
    let wrong = final_epoch
        .iter()
        .zip(&fresh)
        .filter(|(got, want)| !matches!(got, Ok(v) if v.covered == **want))
        .count();
    if wrong > 0 {
        report.problem(format!(
            "{wrong} of {} final-epoch verdicts differ from a fresh prepare",
            pool.len()
        ));
    }
}

/// Held-out F1 of the verdicts the serving tier returns.
fn heldout_f1(
    served: &Served,
    positives: &[Tuple],
    negatives: &[Tuple],
    report: &mut Report,
) -> f64 {
    let mut verdicts = |tuples: &[Tuple]| -> Vec<bool> {
        tuples
            .iter()
            .map(|t| {
                let r = served.coalescer.submit(t.clone());
                report.ops(1, usize::from(r.is_err()));
                r.map(|v| v.covered).unwrap_or(false)
            })
            .collect()
    };
    let pos = verdicts(positives);
    let neg = verdicts(negatives);
    ops::f1(&pos, &neg)
}

/// A hash of the clauses' text that is the same in every process.
fn fingerprint(clauses: &[dlearn_logic::Clause]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for clause in clauses {
        clause.to_string().hash(&mut h);
    }
    h.finish()
}
