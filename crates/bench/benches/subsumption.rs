//! θ-subsumption micro-benchmarks on the movie workload, with a
//! machine-readable baseline.
//!
//! Besides printing criterion-style numbers, this bench writes
//! `BENCH_subsumption.json` at the workspace root: median nanoseconds for
//! `GroundClause::new` (index construction), `subsumes` (the flat-
//! substitution matcher over a prepared-once numbering — the covering
//! loop's hot-path shape), full coverage counting, bottom-clause
//! construction and one generalization round on bottom clauses of the
//! synthetic IMDB+OMDB task — plus the `backtracking_heavy` adversarial
//! workload (an unsatisfiable chain over two disconnected graph
//! components, scrambled body order) measured under both adaptive and
//! static literal ordering, so the ordering win shows up in the committed
//! trajectory as a machine-independent ratio — plus `index_build`, the
//! similarity-index construction on a ~1k×1k dirty vocabulary (length
//! filter + top-k early exit + parallel fan-out) — plus the serving pair
//! `predict_loop`/`predict_batch`, per-example prediction vs the batched
//! `Predictor` entry point on a repetition-heavy trace — plus the grounding
//! pair `ground_example_build`/`repaired_clauses`, one labelled example's
//! full grounding next to its repaired-clause expansion alone.
//!
//! A second group, `scaling`, measures the hot paths at ~3 sizes each so
//! the committed baseline records curve *shape*, not just one point:
//! `index_build/vocab/{250,500,1000}` on the uniform benchmark vocabulary,
//! `index_build/zipf/{250,500,1000}` on a Zipf-skewed twin (the hot-key
//! blocking path), `coverage_engine_counts/examples/{24,48,96}`, and
//! `predict_batch/trace/{1,4,16}` repetitions of the training tuples.
//!
//! A fourth group, `delta_apply`, prices streaming maintenance: a 1-op and
//! a 3-op transaction round-tripped through `Engine::apply_delta` next to
//! the from-scratch `Engine::prepare` each transaction would otherwise
//! cost.
//!
//! A fifth group, `learn`, prices the extension learners on the
//! tree-shaped segments scenario: `foil_round` is one full FOIL covering
//! run (greedy information-gain specialization, clause by clause) and
//! `tilde_build` one TILDE tree build plus clause read-back, both over an
//! already-prepared engine — so the numbers isolate refinement search, not
//! preparation.
//!
//! Each JSON entry carries its own `tolerance` — the regression-gate slack
//! the entry is held to (`gate_tolerance` below is the committed table).
//! Later performance work diffs against this file to prove a trajectory; CI
//! parses it for structural integrity and runs a same-machine regression
//! gate (see `scripts/check_bench_json.py`).

use std::time::Duration;

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dlearn_constraints::MdCatalog;
use dlearn_core::{
    generalize_prepared, BottomClauseBuilder, CoverageEngine, GroundExample, LearnerConfig,
    PreparedClause,
};
use dlearn_datagen::{generate_movie_dataset, MovieConfig};
use dlearn_logic::{
    repaired_clauses, subsumes_numbered_decision, Clause, GroundClause, NumberedClause,
    SubsumptionConfig,
};
use dlearn_similarity::{IndexConfig, SimilarityIndex, SimilarityOperator};
use dlearn_test_support::backtracking_heavy_pair;
use dlearn_test_support::vocab::{dirty_vocabulary, VocabConfig};

fn bench_subsumption(c: &mut Criterion) {
    let dataset = generate_movie_dataset(&MovieConfig::tiny().with_violation_rate(0.1), 42);
    let task = &dataset.task;
    let config = LearnerConfig::fast().with_iterations(4);
    let index_config = IndexConfig {
        top_k: config.km,
        operator: SimilarityOperator::with_threshold(config.similarity_threshold),
        ..IndexConfig::default()
    };
    let catalog = MdCatalog::build(
        &task.mds,
        &dlearn_core::augment_with_target(task),
        &index_config,
    );
    let builder = BottomClauseBuilder::new(task, &catalog, &config);

    // A realistic candidate (a bottom clause) against the ground bottom
    // clauses of the full positive set — the exact shape of the covering
    // loop's hot path.
    let mut rng = StdRng::seed_from_u64(7);
    let bottom: Clause = builder.build(&task.positives[0], &mut rng);
    let grounds: Vec<GroundClause> = task
        .positives
        .iter()
        .map(|e| {
            let mut rng = StdRng::seed_from_u64(11);
            GroundClause::new(&builder.build(e, &mut rng))
        })
        .collect();
    let sub_config = SubsumptionConfig::default();

    let mut group = c.benchmark_group("subsumption");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("ground_clause_new", |b| {
        b.iter(|| criterion::black_box(GroundClause::new(&bottom)))
    });
    group.bench_function("subsumes", |b| {
        // The covering loop renumbers a candidate once and then tests it
        // against many ground clauses; measure exactly that shape.
        let numbered = NumberedClause::new(&bottom);
        b.iter(|| {
            let mut hits = 0usize;
            for g in &grounds {
                hits += subsumes_numbered_decision(&numbered, g, &sub_config).is_yes() as usize;
            }
            criterion::black_box(hits)
        })
    });
    let engine = CoverageEngine::build(task, &builder, &config);
    let prepared = PreparedClause::prepare(bottom.clone(), &config);
    group.bench_function("coverage_engine_counts", |b| {
        b.iter(|| criterion::black_box(engine.counts(&prepared)))
    });
    // Adversarial many-same-relation workload: the matcher must exhaust an
    // unsatisfiable search space. Adaptive ordering follows the bindings
    // through the chain and fail-fasts; the static twin pins the cost of
    // the order the pre-adaptive matcher would have used.
    let (heavy_c, heavy_d) = backtracking_heavy_pair();
    let heavy_ground = GroundClause::new(&heavy_d);
    let heavy_numbered = NumberedClause::new(&heavy_c);
    group.bench_function("backtracking_heavy", |b| {
        b.iter(|| {
            criterion::black_box(subsumes_numbered_decision(
                &heavy_numbered,
                &heavy_ground,
                &sub_config,
            ))
        })
    });
    let static_config = SubsumptionConfig {
        adaptive_ordering: false,
        ..sub_config
    };
    group.bench_function("backtracking_heavy_static", |b| {
        b.iter(|| {
            criterion::black_box(subsumes_numbered_decision(
                &heavy_numbered,
                &heavy_ground,
                &static_config,
            ))
        })
    });
    group.bench_function("bottom_clause_build", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            criterion::black_box(builder.build(&task.positives[0], &mut rng))
        })
    });
    // Grounding one labelled example end to end (bottom clause, indexing,
    // repaired-clause expansion), and the expansion alone, on the first
    // labelled example whose ground clause carries repair groups: the
    // expansion is most of a grounding's cost.
    let (repair_example, repair_ground) = task
        .positives
        .iter()
        .chain(&task.negatives)
        .find_map(|e| {
            let clause = builder.build(e, &mut StdRng::seed_from_u64(11));
            (!clause.repairs.is_empty()).then_some((e, clause))
        })
        .expect("some movie example grounds with repair groups");
    group.bench_function("repaired_clauses", |b| {
        b.iter(|| criterion::black_box(repaired_clauses(&repair_ground, config.expand_limits())))
    });
    group.bench_function("ground_example_build", |b| {
        b.iter(|| criterion::black_box(GroundExample::build(&builder, repair_example, &config, 11)))
    });
    // Similarity-index construction on a realistic dirty vocabulary
    // (~1k×1k distinct values): the layer the eval harness rebuilds per
    // cross-validation fold. Measures blocking + length filter + top-k
    // early exit + parallel fan-out together, at default thread count.
    let vocab = dirty_vocabulary(&VocabConfig::benchmark_1k(), 42);
    let vocab_config = IndexConfig {
        top_k: 5,
        operator: SimilarityOperator::with_threshold(0.65),
        ..IndexConfig::default()
    };
    group.bench_function("index_build", |b| {
        b.iter(|| {
            criterion::black_box(SimilarityIndex::build(
                &vocab.left,
                &vocab.right,
                &vocab_config,
            ))
        })
    });
    // Serving-shaped prediction on the movie workload: a trace of the
    // task's training tuples repeated 4x (serving traffic repeats queries).
    // `predict_loop` is the per-example baseline — one `Predictor::predict`
    // call per trace entry; `predict_batch` is the batched entry point,
    // which grounds each *distinct* tuple once behind one shared
    // bottom-clause builder and fans out across `coverage_threads` (a
    // single thread here; the fan-out multiplies on multicore).
    let serve_engine =
        dlearn_core::Engine::prepare(task.clone(), config.clone()).expect("valid task");
    let learned = serve_engine
        .learn(dlearn_core::Strategy::DLearn)
        .expect("learn");
    let predictor = serve_engine.predictor(&learned).expect("bind predictor");
    let trace: Vec<dlearn_relstore::Tuple> = (0..4)
        .flat_map(|_| task.positives.iter().chain(task.negatives.iter()).cloned())
        .collect();
    group.bench_function("predict_loop", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for e in &trace {
                hits += predictor.predict(e).expect("predict") as usize;
            }
            criterion::black_box(hits)
        })
    });
    group.bench_function("predict_batch", |b| {
        b.iter(|| criterion::black_box(predictor.predict_batch(&trace).expect("predict")))
    });
    group.bench_function("generalization_round", |b| {
        // One covering-loop round: generalize the current clause toward a
        // few sampled positives, prepare each candidate and score it.
        b.iter(|| {
            let mut best = i64::MIN;
            for ge in engine.positives().iter().take(4) {
                let Some(candidate) = generalize_prepared(
                    &bottom,
                    prepared.numbered(),
                    &ge.ground,
                    config.binding_cap,
                ) else {
                    continue;
                };
                if candidate.body.is_empty() {
                    continue;
                }
                let scored = PreparedClause::prepare(candidate, &config);
                best = best.max(engine.score(&scored));
            }
            criterion::black_box(best)
        })
    });
    group.finish();
}

/// Scaling curves: the same hot paths at ~3 sizes each, so the committed
/// baseline captures how cost *grows*, not just one operating point. The
/// curves are not regression-gated (small sizes are noisy); the per-size
/// medians exist so a super-linear blow-up shows up in the committed diff.
fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling");
    group
        .sample_size(12)
        .measurement_time(Duration::from_secs(2));

    // Index construction vs vocabulary size, on the uniform benchmark mix
    // and on a Zipf-skewed twin that concentrates values into a few huge
    // blocks (the hot-key posting path does the work there).
    for per_side in [250usize, 500, 1000] {
        let uniform = dirty_vocabulary(&VocabConfig::benchmark_sized(per_side), 42);
        let skewed = dirty_vocabulary(&VocabConfig::benchmark_sized(per_side).with_zipf_s(1.2), 42);
        let vocab_config = IndexConfig {
            top_k: 5,
            operator: SimilarityOperator::with_threshold(0.65),
            ..IndexConfig::default()
        };
        group.bench_function(format!("index_build/vocab/{per_side}"), |b| {
            b.iter(|| {
                criterion::black_box(SimilarityIndex::build(
                    &uniform.left,
                    &uniform.right,
                    &vocab_config,
                ))
            })
        });
        group.bench_function(format!("index_build/zipf/{per_side}"), |b| {
            b.iter(|| {
                criterion::black_box(SimilarityIndex::build(
                    &skewed.left,
                    &skewed.right,
                    &vocab_config,
                ))
            })
        });
    }

    // Coverage counting vs training-set size: tiny movie task with the
    // example count scaled 1x/2x/4x (named by total examples).
    for (positives, negatives) in [(8usize, 16usize), (16, 32), (32, 64)] {
        let dataset = generate_movie_dataset(
            &MovieConfig::tiny()
                .with_examples(positives, negatives)
                .with_violation_rate(0.1),
            42,
        );
        let task = &dataset.task;
        let config = LearnerConfig::fast().with_iterations(4);
        let index_config = IndexConfig {
            top_k: config.km,
            operator: SimilarityOperator::with_threshold(config.similarity_threshold),
            ..IndexConfig::default()
        };
        let catalog = MdCatalog::build(
            &task.mds,
            &dlearn_core::augment_with_target(task),
            &index_config,
        );
        let builder = BottomClauseBuilder::new(task, &catalog, &config);
        let mut rng = StdRng::seed_from_u64(7);
        let bottom: Clause = builder.build(&task.positives[0], &mut rng);
        let engine = CoverageEngine::build(task, &builder, &config);
        let prepared = PreparedClause::prepare(bottom, &config);
        group.bench_function(
            format!("coverage_engine_counts/examples/{}", positives + negatives),
            |b| b.iter(|| criterion::black_box(engine.counts(&prepared))),
        );
    }

    // Batched prediction vs trace length: the tiny task's training tuples
    // repeated 1x/4x/16x (serving traffic repeats queries, so the repeat
    // count is the real size axis — distinct tuples ground once).
    let dataset = generate_movie_dataset(&MovieConfig::tiny().with_violation_rate(0.1), 42);
    let task = dataset.task;
    let config = LearnerConfig::fast().with_iterations(4);
    let serve_engine = dlearn_core::Engine::prepare(task, config).expect("valid task");
    let learned = serve_engine
        .learn(dlearn_core::Strategy::DLearn)
        .expect("learn");
    let predictor = serve_engine.predictor(&learned).expect("bind predictor");
    for repeats in [1usize, 4, 16] {
        let trace: Vec<dlearn_relstore::Tuple> = (0..repeats)
            .flat_map(|_| {
                serve_engine
                    .task()
                    .positives
                    .iter()
                    .chain(serve_engine.task().negatives.iter())
                    .cloned()
            })
            .collect();
        group.bench_function(format!("predict_batch/trace/{repeats}"), |b| {
            b.iter(|| criterion::black_box(predictor.predict_batch(&trace).expect("predict")))
        });
    }
    group.finish();
}

/// Served throughput through the resilient `PredictorService` front-end:
/// the 4x-repeated training trace at 1/2/8 worker threads, cold cache
/// (cleared before every batch, so every serve re-grounds) vs warm cache
/// (primed once, so every serve hits the ground-example cache). Gated at a
/// widened per-entry tolerance (see `gate_tolerance`); returns the trace
/// length so `main` can report tuples/sec.
fn bench_service(c: &mut Criterion) -> usize {
    let dataset = generate_movie_dataset(&MovieConfig::tiny().with_violation_rate(0.1), 42);
    let task = dataset.task;
    let config = LearnerConfig::fast().with_iterations(4);
    let engine = dlearn_core::Engine::prepare(task, config).expect("valid task");
    let learned = engine.learn(dlearn_core::Strategy::DLearn).expect("learn");
    let trace: Vec<dlearn_relstore::Tuple> = (0..4)
        .flat_map(|_| {
            engine
                .task()
                .positives
                .iter()
                .chain(engine.task().negatives.iter())
                .cloned()
        })
        .collect();
    let mut group = c.benchmark_group("service");
    group
        .sample_size(12)
        .measurement_time(Duration::from_secs(2));
    for workers in [1usize, 2, 8] {
        let service = dlearn_core::PredictorService::new(
            engine.predictor(&learned).expect("bind predictor"),
            dlearn_core::ServiceConfig {
                worker_threads: workers,
                ..dlearn_core::ServiceConfig::default()
            },
        );
        group.bench_function(format!("cold/{workers}"), |b| {
            b.iter(|| {
                service.clear_cache();
                criterion::black_box(service.predict_batch(&trace))
            })
        });
        // Prime once; every serve afterwards hits the cache.
        service.clear_cache();
        let _ = service.predict_batch(&trace);
        group.bench_function(format!("warm/{workers}"), |b| {
            b.iter(|| criterion::black_box(service.predict_batch(&trace)))
        });
    }
    group.finish();
    trace.len()
}

/// Streaming-delta maintenance vs the rebuild it replaces: `small` round-
/// trips a 1-op transaction (insert a novel title, delete it back) through
/// `Engine::apply_delta`, `medium` round-trips a 3-op transaction touching
/// both MD-indexed relations, and `rebuild` measures the from-scratch
/// `Engine::prepare` an engine without incremental maintenance would pay per
/// transaction. Gated since graduation (0.30); the incremental/rebuild
/// ratio is additionally tracked through the committed trajectory.
fn bench_delta(c: &mut Criterion) {
    use dlearn_relstore::{tuple, DeltaTx, RelId, Value};

    let dataset = generate_movie_dataset(&MovieConfig::tiny().with_violation_rate(0.1), 42);
    let task = dataset.task;
    let config = LearnerConfig::fast().with_iterations(4);
    let imdb = RelId::intern("imdb_movies");
    let omdb = RelId::intern("omdb_movies");
    let mut group = c.benchmark_group("delta_apply");
    group
        .sample_size(12)
        .measurement_time(Duration::from_secs(2));

    let small_row = tuple(vec![
        Value::int(995_000),
        Value::str("Delta Bench: The Small Tx"),
        Value::int(2000),
    ]);
    let small_insert = DeltaTx::new().insert(imdb, small_row.clone());
    let small_delete = DeltaTx::new().delete(imdb, small_row);
    let mut engine =
        dlearn_core::Engine::prepare(task.clone(), config.clone()).expect("valid task");
    group.bench_function("small", |b| {
        b.iter(|| {
            criterion::black_box(engine.apply_delta(&small_insert).expect("insert"));
            criterion::black_box(engine.apply_delta(&small_delete).expect("delete"));
        })
    });

    let medium_rows = [
        (
            imdb,
            tuple(vec![
                Value::int(995_001),
                Value::str("Delta Bench: Medium One"),
                Value::int(2001),
            ]),
        ),
        (
            imdb,
            tuple(vec![
                Value::int(995_002),
                Value::str("Delta Bench: Medium Two"),
                Value::int(2002),
            ]),
        ),
        (
            omdb,
            tuple(vec![
                Value::int(995_003),
                Value::str("Delta Bench: Medium Three"),
                Value::int(2003),
            ]),
        ),
    ];
    let mut medium_insert = DeltaTx::new();
    let mut medium_delete = DeltaTx::new();
    for (rel, row) in &medium_rows {
        medium_insert = medium_insert.insert(*rel, row.clone());
        medium_delete = medium_delete.delete(*rel, row.clone());
    }
    let mut engine =
        dlearn_core::Engine::prepare(task.clone(), config.clone()).expect("valid task");
    group.bench_function("medium", |b| {
        b.iter(|| {
            criterion::black_box(engine.apply_delta(&medium_insert).expect("insert"));
            criterion::black_box(engine.apply_delta(&medium_delete).expect("delete"));
        })
    });

    group.bench_function("rebuild", |b| {
        b.iter(|| {
            criterion::black_box(
                dlearn_core::Engine::prepare(task.clone(), config.clone()).expect("valid task"),
            )
        })
    });
    group.finish();
}

/// Hot-swap and coalescing costs: `swap/publish` prices one full epoch
/// publication (re-bind the learned model, atomically install it in the
/// service's swap cell) — the pause-free alternative to tearing the service
/// down; `coalesced/{1,8,32}_callers` measure N concurrent callers pushing
/// 8 requests each through the queued `Coalescer` front-end (batcher drain,
/// per-budget grouping, per-caller fan-back included). Gated since
/// graduation (0.30 / 0.35), completing the path the service curves walked.
fn bench_swap(c: &mut Criterion) {
    use std::sync::Arc;

    let dataset = generate_movie_dataset(&MovieConfig::tiny().with_violation_rate(0.1), 42);
    let task = dataset.task;
    let config = LearnerConfig::fast().with_iterations(4);
    let engine = dlearn_core::Engine::prepare(task, config).expect("valid task");
    let learned = engine.learn(dlearn_core::Strategy::DLearn).expect("learn");
    let pool: Vec<dlearn_relstore::Tuple> = engine
        .task()
        .positives
        .iter()
        .chain(engine.task().negatives.iter())
        .cloned()
        .collect();

    let mut group = c.benchmark_group("swap");
    group
        .sample_size(12)
        .measurement_time(Duration::from_secs(2));
    let service = dlearn_core::PredictorService::new(
        engine.predictor(&learned).expect("bind predictor"),
        dlearn_core::ServiceConfig::default(),
    );
    // Keep the cache populated so each publish also pays the lazy
    // epoch-retirement bookkeeping a live service would.
    let _ = service.predict_batch(&pool);
    group.bench_function("publish", |b| {
        b.iter(|| {
            criterion::black_box(
                service
                    .publish(engine.predictor(&learned).expect("rebind"))
                    .expect("publish"),
            )
        })
    });
    group.finish();

    let mut group = c.benchmark_group("coalesced");
    group
        .sample_size(12)
        .measurement_time(Duration::from_secs(2));
    for callers in [1usize, 8, 32] {
        let service = Arc::new(dlearn_core::PredictorService::new(
            engine.predictor(&learned).expect("bind predictor"),
            dlearn_core::ServiceConfig::default(),
        ));
        let coalescer =
            dlearn_core::Coalescer::new(service, dlearn_core::CoalesceConfig::default());
        // Per-caller schedules: 8 requests each over the training tuples.
        let schedules: Vec<Vec<dlearn_relstore::Tuple>> = (0..callers)
            .map(|caller| {
                (0..8)
                    .map(|i| pool[(caller * 3 + i) % pool.len()].clone())
                    .collect()
            })
            .collect();
        group.bench_function(format!("{callers}_callers"), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = schedules
                        .iter()
                        .map(|schedule| {
                            let coalescer = &coalescer;
                            scope.spawn(move || {
                                for t in schedule {
                                    criterion::black_box(
                                        coalescer.submit(t.clone()).expect("serve"),
                                    );
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join().expect("caller thread");
                    }
                })
            })
        });
    }
    group.finish();
}

/// Extension-learner refinement costs on the tree-shaped segments scenario
/// (the workload `learner_diversity` evaluates): `learn/foil_round` prices
/// one full FOIL covering run, `learn/tilde_build` one TILDE tree build
/// plus clause read-back/refinement, both against a prepared engine.
/// Committed EXPECTED (ungated) with their future tolerance in-JSON — the
/// same graduation policy every serving-era entry started under.
fn bench_learn(c: &mut Criterion) {
    let dataset =
        dlearn_datagen::generate_segment_dataset(&dlearn_datagen::SegmentConfig::tiny(), 91);
    let config = LearnerConfig {
        seed: 31,
        ..LearnerConfig::fast().with_iterations(2)
    };
    let engine = dlearn_core::Engine::prepare(dataset.task, config).expect("valid task");

    let mut group = c.benchmark_group("learn");
    group
        .sample_size(12)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("foil_round", |b| {
        b.iter(|| {
            criterion::black_box(
                engine
                    .learn(dlearn_core::Strategy::Foil)
                    .expect("foil learn"),
            )
        })
    });
    group.bench_function("tilde_build", |b| {
        b.iter(|| {
            criterion::black_box(
                engine
                    .learn(dlearn_core::Strategy::Tilde)
                    .expect("tilde learn"),
            )
        })
    });
    group.finish();
}

/// The committed per-entry regression tolerance written next to each median
/// (`scripts/check_bench_json.py` reads it back in `--gate` mode). The
/// serving pair and the generalization round carry wider slack than the
/// tight hot-path benches: their medians sit on learned-model behavior with
/// more run-to-run variance.
fn gate_tolerance(name: &str) -> f64 {
    if name.starts_with("service/") {
        // Thread-scaled and cache-primed: gated (since the delta work), but
        // at the widest slack in the table.
        return 0.35;
    }
    if name.starts_with("delta_apply/") {
        // Gated since graduation; maintenance cost tracks transaction shape.
        return 0.30;
    }
    if name.starts_with("swap/") {
        // Gated since graduation; a publish is dominated by predictor
        // re-binding, hence the wider slack.
        return 0.30;
    }
    if name.starts_with("coalesced/") {
        // Gated since graduation, at the widest slack: thread spawn/join
        // and batcher wake-ups dominate on small machines.
        return 0.35;
    }
    if name.starts_with("learn/") {
        // New and ungated: refinement search cost tracks the learned tree/
        // clause shapes; the tolerance rides along for graduation.
        return 0.30;
    }
    match name {
        "subsumption/generalization_round" => 0.30,
        "subsumption/predict_loop" | "subsumption/predict_batch" => 0.25,
        _ => 0.20,
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_subsumption(&mut criterion);
    bench_scaling(&mut criterion);
    let service_trace_len = bench_service(&mut criterion);
    bench_delta(&mut criterion);
    bench_swap(&mut criterion);
    bench_learn(&mut criterion);

    // Machine-readable baseline at the workspace root.
    let results = criterion.take_results();
    for r in &results {
        if r.name.starts_with("service/") && r.median_ns > 0.0 {
            let tuples_per_sec = service_trace_len as f64 / (r.median_ns * 1e-9);
            println!("{}: {:.0} tuples/sec", r.name, tuples_per_sec);
        }
    }
    let mut json = String::from(
        "{\n  \"workload\": \"movies-tiny (IMDB+OMDB, p=0.1); index_build on dirty-vocab ~1k x 1k; predict_* on a 4x-repeated training trace; scaling curves at ~3 sizes per axis\",\n",
    );
    json.push_str("  \"unit\": \"ns (median per iteration)\",\n  \"benches\": {\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{ \"median_ns\": {:.1}, \"samples\": {}, \"tolerance\": {:.2} }}{}\n",
            r.name,
            r.median_ns,
            r.samples,
            gate_tolerance(&r.name),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_subsumption.json");
    std::fs::write(path, &json).expect("write BENCH_subsumption.json");
    println!("wrote {path}");
}
