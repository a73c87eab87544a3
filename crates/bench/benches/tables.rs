//! Criterion benchmarks regenerating every table and figure of the paper's
//! evaluation at smoke scale, plus micro-benchmarks of the pipeline stages.
//!
//! Each benchmark group corresponds to one experiment of the paper:
//! `table4`, `table5`, `table6`, `table7`, `figure1_examples`,
//! `figure1_sample_size`. The absolute numbers differ from the paper (the
//! substrate is a synthetic in-memory database, not the authors' testbed);
//! the relative ordering of the systems is what the benches track.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use dlearn_core::{Engine, LearnerConfig, Strategy};
use dlearn_datagen::{generate_movie_dataset, MovieConfig};
use dlearn_eval::experiments::{self, Scale};

fn bench_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("paper_tables");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));

    group.bench_function("table4_smoke", |b| {
        b.iter(|| std::hint::black_box(experiments::table4(Scale::Smoke)))
    });
    group.bench_function("table5_smoke", |b| {
        b.iter(|| std::hint::black_box(experiments::table5(Scale::Smoke)))
    });
    group.bench_function("table6_smoke", |b| {
        b.iter(|| std::hint::black_box(experiments::table6(Scale::Smoke)))
    });
    group.bench_function("table7_smoke", |b| {
        b.iter(|| std::hint::black_box(experiments::table7(Scale::Smoke)))
    });
    group.bench_function("figure1_examples_smoke", |b| {
        b.iter(|| std::hint::black_box(experiments::figure1_examples(Scale::Smoke)))
    });
    group.bench_function("figure1_sample_size_smoke", |b| {
        b.iter(|| std::hint::black_box(experiments::figure1_sample_size(Scale::Smoke)))
    });
    group.finish();
}

/// Ablation / per-system micro-benchmarks: a single learning run per system
/// on the tiny movie dataset (the head-to-head that Table 4 aggregates),
/// against one prepared engine session — what the benchmark times is the
/// covering loop, not the (amortized) index construction and grounding.
fn bench_systems(c: &mut Criterion) {
    let mut group = c.benchmark_group("systems_single_run");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(15));
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let engine = Engine::prepare(dataset.task.clone(), LearnerConfig::fast()).expect("valid task");
    for strategy in Strategy::ALL {
        group.bench_function(strategy.name(), |b| {
            b.iter(|| std::hint::black_box(engine.learn(strategy).expect("learn")))
        });
    }
    group.finish();
}

/// Ablation: the cost of increasing km (the number of similarity matches per
/// value), the knob Table 4 sweeps. Each km is its own session (the index
/// depends on km), prepared once outside the timed loop.
fn bench_km_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("km_ablation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(15));
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 7);
    for km in [1usize, 2, 5, 10] {
        group.bench_function(format!("km_{km}"), |b| {
            let engine = Engine::prepare(dataset.task.clone(), LearnerConfig::fast().with_km(km))
                .expect("valid task");
            b.iter(|| std::hint::black_box(engine.learn(Strategy::DLearn).expect("learn")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tables, bench_systems, bench_km_ablation);
criterion_main!(benches);
