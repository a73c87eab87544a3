//! Per-layer replays of a traced run: each layer's public functions called
//! again, by the benchmark, on the run's own inputs, and timed from outside.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dlearn_constraints::MdCatalog;
use dlearn_core::{
    augment_with_target, BottomClauseBuilder, CoalesceMetrics, CoverageEngine, Engine, Learned,
    PredictorService, PreparedClause, ServiceMetrics, Strategy,
};
use dlearn_datagen::Fold;
use dlearn_logic::{subsumes_numbered_decision_controlled, Decision, GroundClause, NumberedClause};
use dlearn_relstore::Tuple;

use crate::ops::{f1, nonempty_median};
use crate::report::{median, ms, percentile, timed, Report, Spans};
use crate::scenario::{index_config, DeltaStep};

/// Repetitions of the cheap whole-structure replays (index build, database
/// clone); the reported time is their median.
const REPEATS: usize = 3;

/// The run's inputs a replay draws on.
pub struct Inputs<'a> {
    /// The prepared session the workload measured (its task, catalog and
    /// configuration).
    pub engine: &'a Engine,
    /// Every definition the run learned.
    pub learned: &'a [Learned],
    /// Distinct tuples the run served.
    pub served: &'a [Tuple],
    /// The run's delta stream.
    pub deltas: &'a [DeltaStep],
}

/// Similarity funnel, bottom-clause walk, coverage, θ-subsumption and
/// relstore replays.
pub fn replay(report: &mut Report, inputs: &Inputs<'_>) {
    let engine = inputs.engine;
    let task = engine.task();
    let config = engine.config();

    // Similarity: the `MdCatalog::build` the engine runs at prepare time.
    let augmented = augment_with_target(task);
    let mut build_s = Vec::new();
    let mut pairs = 0;
    for _ in 0..REPEATS {
        let (catalog, s) = timed(|| MdCatalog::build(&task.mds, &augmented, &index_config(config)));
        build_s.push(s);
        pairs = catalog
            .indexes()
            .iter()
            .map(|i| i.pair_count())
            .sum::<usize>();
    }
    report.add("similarity.index_build_s", median(&build_s), "s", REPEATS);
    report.add("similarity.pairs", pairs as f64, "count", 1);

    // Bottom clauses over the training examples and the served tuples.
    let builder = BottomClauseBuilder::new(task, engine.catalog(), config);
    let examples: Vec<&Tuple> = task
        .positives
        .iter()
        .chain(&task.negatives)
        .chain(inputs.served)
        .collect();
    let (mut literals, mut value_probes, mut sim_probes) = (0usize, 0usize, 0usize);
    let start = Instant::now();
    for (i, example) in examples.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(config.seed ^ i as u64);
        let (clause, probes) = builder.build_probed(example, &mut rng);
        literals += clause.body.len();
        value_probes += probes.value_probes();
        sim_probes += probes.sim_probes();
    }
    report.add(
        "bottom.build_s",
        start.elapsed().as_secs_f64(),
        "s",
        examples.len(),
    );
    report.add("bottom.literals", literals as f64, "count", examples.len());
    report.add(
        "bottom.value_probes",
        value_probes as f64,
        "count",
        examples.len(),
    );
    report.add(
        "bottom.sim_probes",
        sim_probes as f64,
        "count",
        examples.len(),
    );

    // Coverage: a fresh engine over the training examples, then counts for
    // every learned clause.
    let (coverage, build_s) = timed(|| CoverageEngine::build(task, &builder, config));
    report.add("coverage.engine_build_s", build_s, "s", 1);
    let prepared: Vec<PreparedClause> = inputs
        .learned
        .iter()
        .flat_map(|l| l.clauses().iter().cloned())
        .map(|c| PreparedClause::prepare(c, config))
        .collect();
    let (_, counts_s) = timed(|| {
        for p in &prepared {
            std::hint::black_box(coverage.counts(p));
        }
    });
    report.add("coverage.counts_s", counts_s, "s", prepared.len());

    // θ-subsumption: every learned clause against every ground example, in
    // the decision order of a coverage test (direct, then repaired).
    let ground: Vec<_> = coverage
        .positives()
        .iter()
        .chain(coverage.negatives())
        .collect();
    let (mut decisions, mut exhausted) = (0usize, 0usize);
    let start = Instant::now();
    for p in &prepared {
        for g in &ground {
            let mut decide = |c: &NumberedClause, d: &GroundClause| {
                decisions += 1;
                match subsumes_numbered_decision_controlled(c, d, &config.subsumption, None) {
                    Decision::Yes => true,
                    Decision::BudgetExhausted => {
                        exhausted += 1;
                        false
                    }
                    _ => false,
                }
            };
            if decide(p.numbered(), &g.ground) || p.repaired.is_empty() {
                continue;
            }
            for cr in p.numbered_repaired() {
                if !g.repaired.iter().any(|gr| decide(cr, gr)) {
                    break;
                }
            }
        }
    }
    report.add(
        "subsumption.decide_s",
        start.elapsed().as_secs_f64(),
        "s",
        decisions,
    );
    report.add("subsumption.decisions", decisions as f64, "count", 1);
    report.add("subsumption.exhausted", exhausted as f64, "count", 1);

    // Relstore: the whole-database clone the maintain path starts from, and
    // `Database::apply_delta` of each transaction of the stream.
    let db = &task.database;
    let mut clone_ms = Vec::new();
    for _ in 0..REPEATS {
        let start = Instant::now();
        std::hint::black_box(db.clone());
        clone_ms.push(ms(start.elapsed()));
    }
    report.add("relstore.db_clone_ms", median(&clone_ms), "ms", REPEATS);
    let mut replayed = db.clone();
    let mut apply_ms = Vec::new();
    for step in inputs.deltas {
        let start = Instant::now();
        let applied = replayed.apply_delta(&step.tx);
        apply_ms.push(ms(start.elapsed()));
        if let Err(e) = applied {
            report.problem(format!("relstore apply_delta replay: {e}"));
        }
    }
    report.add(
        "relstore.apply_ms",
        nonempty_median(&apply_ms),
        "ms",
        apply_ms.len(),
    );
}

/// Learn every strategy once on `engine`, recording per-strategy spans.
pub fn learn_all(engine: &Engine, spans: &mut Spans, report: &mut Report) -> Vec<Learned> {
    let mut learned = Vec::new();
    for strategy in Strategy::ALL {
        match spans.span(strategy_span(strategy), || engine.learn(strategy)) {
            Ok(l) => {
                report.ops(1, 0);
                learned.push(l);
            }
            Err(e) => report.problem(format!("learn {strategy}: {e}")),
        }
    }
    learned
}

/// Per-strategy learn times (median of the run's spans, in s), their sum,
/// the bottom clauses the definitions grounded, and their mean held-out F1.
pub fn emit_learn(
    report: &mut Report,
    spans: &Spans,
    engine: &Engine,
    learned: &[Learned],
    fold: &Fold,
) {
    let mut total = 0.0;
    for strategy in Strategy::ALL {
        let values = spans.get(strategy_span(strategy));
        let seconds = nonempty_median(values) / 1e3;
        total += seconds;
        let name = format!("learn.{}_s", &strategy_span(strategy)["learn.".len()..]);
        report.add(name, seconds, "s", values.len());
    }
    report.add("learn.total_s", total, "s", Strategy::ALL.len());
    let built: usize = learned.iter().map(Learned::bottom_clauses_built).sum();
    report.add("learn.bottom_clauses", built as f64, "count", learned.len());
    let mut f1_sum = 0.0;
    for l in learned {
        let verdicts = engine.predictor(l).and_then(|p| {
            Ok((
                p.predict_batch(&fold.test_positives)?,
                p.predict_batch(&fold.test_negatives)?,
            ))
        });
        match verdicts {
            Ok((pos, neg)) => f1_sum += f1(&pos, &neg),
            Err(e) => report.problem(format!("held-out predict {}: {e}", l.strategy())),
        }
    }
    let held_out = fold.test_positives.len() + fold.test_negatives.len();
    report.add(
        "learn.heldout_f1",
        f1_sum / learned.len().max(1) as f64,
        "ratio",
        held_out,
    );
}

pub fn strategy_span(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::CastorNoMd => "learn.castor_no_md",
        Strategy::CastorExact => "learn.castor_exact",
        Strategy::CastorClean => "learn.castor_clean",
        Strategy::DLearn => "learn.dlearn",
        Strategy::DLearnRepaired => "learn.dlearn_repaired",
        Strategy::Foil => "learn.foil",
        Strategy::Tilde => "learn.tilde",
    }
}

/// Replay `stream` as single-tuple `predict_batch` calls on `service`, with
/// no coalescer, each call inside a `serve.solo` span; returns the per-call
/// latencies in ms.
pub fn solo_replay(
    service: &PredictorService,
    stream: &[Tuple],
    spans: &mut Spans,
    report: &mut Report,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(stream.len());
    let mut failures = 0;
    for t in stream {
        let start = Instant::now();
        let result = spans.span("serve.solo", || {
            service.predict_batch(std::slice::from_ref(t))
        });
        latencies.push(ms(start.elapsed()));
        failures += result.iter().filter(|r| r.is_err()).count();
    }
    report.ops(stream.len(), failures);
    latencies
}

/// Serving-tier and coalescer counters over the measured phase (their state
/// before and after it), the solo-replay latencies, and the coalescer's
/// median overhead over solo serving.
pub fn emit_serving(
    report: &mut Report,
    [(m0, c0), (m, c)]: [(ServiceMetrics, CoalesceMetrics); 2],
    coalesced_ms: &[f64],
    solo_ms: &[f64],
    (degraded, verdicts): (usize, usize),
) {
    report.add(
        "service.solo_p50_ms",
        percentile(solo_ms, 0.5),
        "ms",
        solo_ms.len(),
    );
    report.add(
        "service.solo_p99_ms",
        percentile(solo_ms, 0.99),
        "ms",
        solo_ms.len(),
    );
    let hits = m.cache_hits - m0.cache_hits;
    let lookups = hits + m.cache_misses - m0.cache_misses;
    report.add(
        "service.hit_rate",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    );
    for (name, now, then) in [
        ("service.evictions", m.cache_evictions, m0.cache_evictions),
        (
            "service.delta_evictions",
            m.delta_evictions,
            m0.delta_evictions,
        ),
        (
            "service.epoch_evictions",
            m.epoch_evictions,
            m0.epoch_evictions,
        ),
    ] {
        report.add(name, (now - then) as f64, "count", 1);
    }
    report.add(
        "serve.degraded_frac",
        degraded as f64 / verdicts.max(1) as f64,
        "ratio",
        verdicts,
    );
    let batches = c.batches - c0.batches;
    report.add("coalesce.batches", batches as f64, "count", 1);
    report.add(
        "coalesce.mean_batch",
        (c.coalesced_tuples - c0.coalesced_tuples) as f64 / batches.max(1) as f64,
        "count",
        batches as usize,
    );
    report.add(
        "coalesce.timer_drain_frac",
        (c.timer_drains - c0.timer_drains) as f64 / batches.max(1) as f64,
        "ratio",
        batches as usize,
    );
    report.add(
        "coalesce.overhead_p50_ms",
        percentile(coalesced_ms, 0.5) - percentile(solo_ms, 0.5),
        "ms",
        coalesced_ms.len(),
    );
}
