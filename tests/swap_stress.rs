//! The hot-swap / coalescing stress suite: epoch-published models under
//! concurrent traffic.
//!
//! The contract under test has three legs:
//!
//! * **No torn reads** — while seeded scripts interleave full publications
//!   (`PredictorService::publish`), delta publications
//!   (`PredictorService::apply_delta`) and serving bursts with 1/2/8
//!   concurrent coalesced callers, *every* verdict any caller ever receives
//!   must bit-match a fresh single-caller run of the model at the epoch the
//!   verdict reports. A verdict mixing pre- and post-swap state would match
//!   neither baseline.
//! * **Coalescing is invisible** — results fanned back through the
//!   [`Coalescer`] are bit-identical ([`ServeVerdict`] `==`, epoch
//!   included) to each caller running its requests alone against the
//!   service.
//! * **The cache survives the churn** — after the stress run quiesces, a
//!   cached service still agrees verdict-for-verdict with a fresh uncached
//!   one over the final model.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dlearn::core::{
    Budget, CoalesceConfig, Coalescer, Engine, Learned, LearnerConfig, PredictorService,
    ServeVerdict, ServiceConfig, Strategy,
};
use dlearn::datagen::movies::{generate_movie_dataset, MovieConfig};
use dlearn::relstore::{RelId, Tuple};
use dlearn_test_support::swap::{coalesce_script, swap_script, SwapScriptConfig, SwapStep};

fn config(coverage_threads: usize) -> LearnerConfig {
    LearnerConfig {
        coverage_threads,
        seed: 7,
        ..LearnerConfig::fast().with_iterations(4)
    }
}

struct Fixture {
    engine: Engine,
    learned: Learned,
    pool: Vec<Tuple>,
}

fn fixture() -> Fixture {
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let engine = Engine::prepare(dataset.task.clone(), config(1)).expect("valid task");
    let learned = engine.learn(Strategy::DLearn).expect("learn");
    let pool: Vec<Tuple> = dataset
        .task
        .positives
        .iter()
        .chain(dataset.task.negatives.iter())
        .cloned()
        .collect();
    Fixture {
        engine,
        learned,
        pool,
    }
}

fn delta_relations() -> [RelId; 3] {
    [
        RelId::intern("imdb_movies"),
        RelId::intern("omdb_movies"),
        RelId::intern("imdb_mov2genres"),
    ]
}

/// Fresh single-caller verdicts of the engine's *current* model over the
/// tuple pool — the per-epoch ground truth every concurrently-served
/// verdict must bit-match on `covered`.
fn fresh_baseline(engine: &Engine, learned: &Learned, pool: &[Tuple]) -> Vec<bool> {
    engine
        .predictor(learned)
        .expect("bind predictor")
        .predict_batch(pool)
        .expect("baseline predict")
}

#[test]
fn concurrent_swaps_never_tear_a_verdict() {
    // The headline: a seeded schedule of deltas, publishes and serving
    // bursts replays on the main thread while 1/2/8 caller threads hammer
    // the coalescer. Every verdict names its epoch; every epoch was
    // baselined fresh (single caller, no cache) before it was installed —
    // so any torn read (a verdict computed half against one model, half
    // against another) shows up as a mismatch against *every* baseline.
    for callers in [1usize, 2, 8] {
        let mut fx = fixture();
        let script = swap_script(
            &fx.engine.task().database,
            &delta_relations(),
            &SwapScriptConfig::default(),
            23 + callers as u64,
        );
        let schedules = coalesce_script(fx.pool.len(), callers, 8, 17);

        let service = Arc::new(PredictorService::new(
            fx.engine.predictor(&fx.learned).expect("bind predictor"),
            ServiceConfig::default(),
        ));
        let coalescer = Coalescer::new(service.clone(), CoalesceConfig::default());
        let mut baselines: HashMap<u64, Vec<bool>> = HashMap::new();
        baselines.insert(
            service.epoch(),
            fresh_baseline(&fx.engine, &fx.learned, &fx.pool),
        );

        let done = AtomicBool::new(false);
        let collected: Vec<Vec<(usize, ServeVerdict)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = schedules
                .iter()
                .map(|schedule| {
                    let coalescer = &coalescer;
                    let pool = &fx.pool;
                    let done = &done;
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        // Cycle the schedule until the script has fully
                        // replayed, so traffic overlaps every publication.
                        while !done.load(Ordering::Acquire) {
                            for &i in schedule {
                                let verdict = coalescer
                                    .submit(pool[i].clone())
                                    .expect("stress serve must succeed");
                                seen.push((i, verdict));
                            }
                        }
                        seen
                    })
                })
                .collect();

            // Replay the script: each publication is baselined fresh
            // *before* install, then probed through the coalescer *after*
            // install so at least one verdict per epoch is deterministic.
            for step in &script {
                match step {
                    SwapStep::Delta(tx) => {
                        let report = fx.engine.apply_delta(tx).expect("engine delta");
                        fx.learned = fx.engine.learn(Strategy::DLearn).expect("re-learn");
                        let baseline = fresh_baseline(&fx.engine, &fx.learned, &fx.pool);
                        service
                            .apply_delta(fx.engine.predictor(&fx.learned).expect("rebind"), &report)
                            .expect("service delta");
                        baselines.insert(service.epoch(), baseline);
                    }
                    SwapStep::Publish => {
                        let baseline = fresh_baseline(&fx.engine, &fx.learned, &fx.pool);
                        let epoch = service
                            .publish(fx.engine.predictor(&fx.learned).expect("rebind"))
                            .expect("publish");
                        baselines.insert(epoch, baseline);
                    }
                    SwapStep::Serve { batches } => {
                        for b in 0..*batches {
                            let i = b % fx.pool.len();
                            let verdict = coalescer
                                .submit(fx.pool[i].clone())
                                .expect("main-thread serve");
                            let baseline = &baselines[&verdict.epoch];
                            assert_eq!(
                                verdict.covered, baseline[i],
                                "callers={callers}: main-thread verdict tore at epoch {}",
                                verdict.epoch
                            );
                        }
                    }
                }
                // Probe the just-installed epoch so the epoch-coverage
                // vacuity check below cannot depend on caller timing.
                let probe = coalescer.submit(fx.pool[0].clone()).expect("probe");
                assert_eq!(probe.covered, baselines[&probe.epoch][0]);
            }
            done.store(true, Ordering::Release);
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread"))
                .collect()
        });

        // Every concurrently-collected verdict must bit-match the fresh
        // baseline of exactly the epoch it reports.
        let mut checked = 0u64;
        let mut observed: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for (caller, seen) in collected.iter().enumerate() {
            assert!(!seen.is_empty(), "caller {caller} never served");
            for &(i, verdict) in seen {
                let baseline = baselines.get(&verdict.epoch).unwrap_or_else(|| {
                    panic!(
                        "callers={callers}: verdict reports unknown epoch {}",
                        verdict.epoch
                    )
                });
                assert_eq!(
                    verdict.covered, baseline[i],
                    "callers={callers} caller={caller} tuple={i}: verdict does not match \
                     the fresh model of its epoch {} (torn read)",
                    verdict.epoch
                );
                observed.insert(verdict.epoch);
                checked += 1;
            }
        }
        assert!(checked > 0);
        // Vacuity: the script installed several epochs and traffic was
        // served against more than one of them (the post-step probes make
        // this deterministic).
        assert!(
            baselines.len() >= 3,
            "callers={callers}: script installed too few epochs ({})",
            baselines.len()
        );
        assert!(service.metrics().swaps >= 2, "{:?}", service.metrics());

        // Post-quiesce: the churned cache still agrees with a fresh
        // uncached service over the final model.
        let uncached = PredictorService::new(
            fx.engine.predictor(&fx.learned).expect("rebind"),
            ServiceConfig {
                cache_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        let warm: Vec<bool> = service
            .predict_batch(&fx.pool)
            .iter()
            .map(|r| r.as_ref().expect("warm serve").covered)
            .collect();
        let cold: Vec<bool> = uncached
            .predict_batch(&fx.pool)
            .iter()
            .map(|r| r.as_ref().expect("cold serve").covered)
            .collect();
        assert_eq!(
            warm, cold,
            "callers={callers}: cache-on/off parity broke after the stress run"
        );
    }
}

#[test]
fn coalesced_results_are_bit_identical_to_solo_calls() {
    // No swaps in flight: whatever the batcher coalesces, every caller's
    // results must equal — as full `ServeVerdict`s, epoch included — the
    // results of serving its requests alone, one call at a time.
    let fx = fixture();
    for callers in [1usize, 2, 8] {
        let service = Arc::new(PredictorService::new(
            fx.engine.predictor(&fx.learned).expect("bind predictor"),
            ServiceConfig::default(),
        ));
        let solo = PredictorService::new(
            fx.engine.predictor(&fx.learned).expect("bind predictor"),
            ServiceConfig::default(),
        );
        let schedules = coalesce_script(fx.pool.len(), callers, 12, 31 + callers as u64);
        let coalescer = Coalescer::new(service.clone(), CoalesceConfig::default());

        let coalesced: Vec<Vec<ServeVerdict>> = std::thread::scope(|scope| {
            let handles: Vec<_> = schedules
                .iter()
                .map(|schedule| {
                    let coalescer = &coalescer;
                    let pool = &fx.pool;
                    scope.spawn(move || {
                        schedule
                            .iter()
                            .map(|&i| coalescer.submit(pool[i].clone()).expect("serve"))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread"))
                .collect()
        });

        for (schedule, got) in schedules.iter().zip(&coalesced) {
            let want: Vec<ServeVerdict> = schedule
                .iter()
                .map(|&i| {
                    solo.predict_batch(std::slice::from_ref(&fx.pool[i]))
                        .remove(0)
                        .expect("solo serve")
                })
                .collect();
            assert_eq!(
                &want, got,
                "callers={callers}: coalesced verdicts diverged from solo serving"
            );
        }
        let metrics = coalescer.metrics();
        assert_eq!(metrics.submitted, (callers * 12) as u64, "{metrics:?}");
        assert_eq!(metrics.coalesced_tuples, metrics.submitted, "{metrics:?}");
        if callers == 8 {
            // No timer gathers batches: eight callers queue up behind the
            // batcher while it serves cold-cache misses, so some drain must
            // take more than one request, or this parity check would pass
            // with a coalescer that never coalesces.
            assert!(metrics.largest_batch >= 2, "{metrics:?}");
        }
    }
}

#[test]
fn contiguous_submissions_actually_coalesce_into_one_batch() {
    // `submit_many_with` enqueues under one lock while the batcher sleeps,
    // so a quiesced coalescer must find all eight requests queued at its
    // next drain and serve them as a single batch — this pins that the
    // coalescing machinery does coalesce (the parity tests would pass
    // trivially with a batch size of 1).
    let fx = fixture();
    let service = Arc::new(PredictorService::new(
        fx.engine.predictor(&fx.learned).expect("bind predictor"),
        ServiceConfig::default(),
    ));
    let coalescer = Coalescer::new(service.clone(), CoalesceConfig::default());
    let items: Vec<(Tuple, Budget)> = fx
        .pool
        .iter()
        .take(8)
        .map(|t| (t.clone(), Budget::unlimited()))
        .collect();
    let results = coalescer.submit_many_with(&items);
    assert_eq!(results.len(), items.len());
    let baseline = fresh_baseline(&fx.engine, &fx.learned, &fx.pool);
    for ((i, r), _) in results.iter().enumerate().zip(&items) {
        assert_eq!(r.as_ref().expect("serve").covered, baseline[i]);
    }
    let metrics = coalescer.metrics();
    assert_eq!(metrics.largest_batch, 8, "{metrics:?}");
    assert_eq!(metrics.batches, 1, "{metrics:?}");
    assert_eq!(metrics.full_drains + metrics.timer_drains, 1, "{metrics:?}");
    assert_eq!(metrics.max_queue_depth, 8, "{metrics:?}");
    assert!(metrics.queue_wait_nanos > 0, "{metrics:?}");
}
