//! The movie scenario every workload runs on, and the seeded inputs the
//! workloads draw from it: the Zipf request stream and the insert/delete
//! delta stream.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dlearn_constraints::{enforce_md_best_match_with_index, minimal_cfd_repair, MdCatalog};
use dlearn_core::{
    augment_with_target, BottomClauseBuilder, CoalesceConfig, Coalescer, CoverageEngine, Engine,
    Learned, LearnerConfig, LearningTask, PredictorService, ServiceConfig, Strategy,
};
use dlearn_datagen::dirt::{decorate_title, perturb_name};
use dlearn_datagen::{generate_movie_dataset, Dataset, Fold, MovieConfig};
use dlearn_relstore::{tuple, Database, DeltaTx, Tuple, Value};
use dlearn_similarity::{IndexConfig, SimilarityOperator};

/// The database, labelled examples and training split are fixed, so every
/// seed serves the same definition (learning cost and quality swing widely
/// with the generated data, see README.md); the workload seed drives the
/// request stream and the delta stream.
pub const SCENARIO_SEED: u64 = 42;

/// The strategy whose definition the workloads serve. FOIL is the one
/// strategy whose learned definition is the same in every process; the
/// others' definitions change from process to process on identical inputs
/// (README.md, "Findings"), and with them every serving latency.
pub const SERVED: Strategy = Strategy::Foil;

/// Folds of the fixed example assignment; the workloads train on the
/// training part of fold 0 and hold out the rest.
pub const FOLDS: usize = 5;

/// Threshold above which an MD match counts as exact (the Castor-Exact
/// semantics of `Engine`).
const EXACT_MD_THRESHOLD: f64 = 0.9999;

/// Zipf exponent of request popularity.
const ZIPF_S: f64 = 1.1;

/// Set-ups per process; `setup_s` is the median of every set-up of a run.
pub const SETUPS: usize = 2;

/// Near-duplicate rows per transaction; the stream cycles through them.
pub const DELTA_KS: [usize; 3] = [1, 4, 16];

/// Distinct insert/delete transaction pairs in the delta stream; the stream
/// cycles through them so the interner and the database stay bounded.
const DELTA_PAIRS: usize = 24;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// `MovieConfig::paper()`: the measured scale.
    Paper,
    /// `MovieConfig::tiny()`: the smoke test of the benchmark itself.
    Tiny,
}

pub struct Sizes {
    /// Cache capacity of the serving tier (below the pool size).
    pub cache_capacity: usize,
    /// Worker processes an untraced run pools its samples from.
    pub processes: usize,
    /// Delta steps per process: the quiet stream of a traced `serve-zipf`
    /// run, and the least the `serve-churn` writer runs.
    pub delta_steps: usize,
    /// Requests per process the callers complete at the least.
    pub min_requests: usize,
    /// Untimed warm-up requests before a timed serving phase.
    pub warmup_requests: usize,
    /// Requests replayed solo and coalesced in traced runs.
    pub replay_requests: usize,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Tiny => "tiny",
        }
    }

    pub fn movie_config(self) -> MovieConfig {
        let base = match self {
            Scale::Paper => MovieConfig::paper(),
            Scale::Tiny => MovieConfig::tiny(),
        };
        base.with_three_mds().with_violation_rate(0.1)
    }

    pub fn sizes(self) -> Sizes {
        match self {
            Scale::Paper => Sizes {
                cache_capacity: 256,
                processes: 3,
                delta_steps: 40,
                min_requests: 1000,
                warmup_requests: 300,
                replay_requests: 1200,
            },
            Scale::Tiny => Sizes {
                cache_capacity: 24,
                processes: 1,
                delta_steps: 12,
                min_requests: 100,
                warmup_requests: 50,
                replay_requests: 60,
            },
        }
    }
}

pub fn learner_config() -> LearnerConfig {
    LearnerConfig::fast().with_iterations(4)
}

pub fn dataset(scale: Scale) -> Dataset {
    generate_movie_dataset(&scale.movie_config(), SCENARIO_SEED)
}

/// The training split and held-out examples (fixed for every seed).
pub fn serve_fold(data: &Dataset) -> Fold {
    data.cross_validation_folds(FOLDS, SCENARIO_SEED)
        .swap_remove(0)
}

/// Every distinct `imdb_movies` id, as a target tuple: the request pool.
pub fn request_pool(db: &Database) -> Vec<Tuple> {
    let mut ids: Vec<i64> = db
        .relation("imdb_movies")
        .expect("the movie scenario has imdb_movies")
        .iter()
        .filter_map(|(_, t)| t.value(0).and_then(Value::as_int))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter()
        .map(|id| tuple(vec![Value::int(id)]))
        .collect()
}

/// A closed-loop caller's request stream: pool tuples drawn with Zipf(1.1)
/// popularity over a seeded popularity ranking shared by all callers.
pub struct ZipfStream {
    ranked: Vec<Tuple>,
    cdf: Vec<f64>,
    rng: StdRng,
}

impl ZipfStream {
    pub fn new(pool: &[Tuple], seed: u64, caller: u64) -> ZipfStream {
        let mut ranked = pool.to_vec();
        ranked.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5eed_0f2a_9f17));
        let mut total = 0.0;
        let cdf = (1..=ranked.len())
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(ZIPF_S);
                total
            })
            .collect();
        ZipfStream {
            ranked,
            cdf,
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(caller)),
        }
    }

    pub fn next_tuple(&mut self) -> Tuple {
        let total = *self.cdf.last().expect("non-empty pool");
        let u = self.rng.gen_range(0.0..total);
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.ranked.len() - 1);
        self.ranked[rank].clone()
    }
}

/// One step of the delta stream: a transaction and the number of
/// near-duplicate rows it inserts or deletes.
pub struct DeltaStep {
    pub tx: DeltaTx,
    pub k: usize,
}

/// The seeded delta stream: alternately insert `k` decorated near-duplicate
/// rows and delete them again, with `k` cycling through 1, 4 and 16, so the
/// database size stays steady. Row `j` of a transaction goes to
/// `imdb_movies`, `omdb_movies`, `imdb_mov2cast` or `omdb_mov2cast` in turn,
/// each a near-duplicate of a seeded source movie (decorated title,
/// perturbed cast name) under a fresh id.
pub fn delta_stream(db: &Database, seed: u64) -> Vec<DeltaStep> {
    const RELATIONS: [&str; 4] = [
        "imdb_movies",
        "omdb_movies",
        "imdb_mov2cast",
        "omdb_mov2cast",
    ];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00de_17a5);
    let movies: Vec<Tuple> = db
        .relation("imdb_movies")
        .expect("imdb_movies")
        .iter()
        .map(|(_, t)| t.clone())
        .collect();
    let mut steps = Vec::with_capacity(2 * DELTA_PAIRS);
    for pair in 0..DELTA_PAIRS {
        let k = DELTA_KS[pair % DELTA_KS.len()];
        let mut insert = DeltaTx::new();
        let mut delete = DeltaTx::new();
        for j in 0..k {
            let source = &movies[rng.gen_range(0..movies.len())];
            let id = source.value(0).cloned().unwrap_or(Value::int(0));
            let title = source
                .value(1)
                .and_then(Value::as_str)
                .unwrap_or("Untitled");
            let year = source.value(2).and_then(Value::as_int).unwrap_or(2000);
            let fresh = 1_000_000 + (pair * 16 + j) as i64;
            let relation = RELATIONS[(pair + j) % RELATIONS.len()];
            let row = if relation.ends_with("movies") {
                let title = decorate_title(title, year, &mut rng);
                tuple(vec![Value::int(fresh), Value::str(title), Value::int(year)])
            } else {
                let actor = db
                    .select_eq("imdb_mov2cast", "id", &id)
                    .ok()
                    .and_then(|rows| {
                        rows.first()
                            .and_then(|t| t.value(1))
                            .and_then(Value::as_str)
                    })
                    .unwrap_or("Pat Doe");
                let actor = perturb_name(actor, &mut rng);
                tuple(vec![Value::int(fresh), Value::str(actor)])
            };
            insert = insert.insert(relation, row.clone());
            delete = delete.delete(relation, row);
        }
        steps.push(DeltaStep { tx: insert, k });
        steps.push(DeltaStep { tx: delete, k });
    }
    steps
}

pub fn service_config(scale: Scale) -> ServiceConfig {
    ServiceConfig {
        cache_capacity: scale.sizes().cache_capacity,
        ..ServiceConfig::default()
    }
}

/// The serving stack: a prepared engine and a `PredictorService` serving
/// the learned definition behind a `Coalescer`.
pub struct Served {
    pub engine: Engine,
    pub coalescer: Coalescer,
}

/// Prepare `task`, bind `learned` and stand up the serving tier.
pub fn serve_stack(task: &LearningTask, learned: &Learned, scale: Scale) -> Result<Served, String> {
    let engine =
        Engine::prepare(task.clone(), learner_config()).map_err(|e| format!("prepare: {e}"))?;
    let predictor = engine
        .predictor(learned)
        .map_err(|e| format!("bind predictor: {e}"))?;
    let service = Arc::new(PredictorService::new(predictor, service_config(scale)));
    let coalescer = Coalescer::new(service, CoalesceConfig::default());
    Ok(Served { engine, coalescer })
}

/// The similarity-index configuration `Engine` builds its catalog with.
pub fn index_config(config: &LearnerConfig) -> IndexConfig {
    let threshold = if config.exact_md_joins {
        EXACT_MD_THRESHOLD
    } else {
        config.similarity_threshold
    };
    IndexConfig {
        top_k: config.km,
        operator: SimilarityOperator::with_threshold(threshold),
        threads: config.index_threads,
        hot_key_fraction: config.index_hot_key_fraction,
    }
}

/// A fresh `CoverageEngine` with the semantics `strategy` learns under,
/// built from public pieces only (the task rewrite and catalog each
/// strategy's preprocessing applies), for recounting clause statistics.
pub fn recount_engine(
    engine: &Engine,
    strategy: Strategy,
) -> Result<(CoverageEngine, LearnerConfig), String> {
    let mut config = engine.config().clone();
    let mut task = engine.task().clone();
    match strategy {
        Strategy::DLearn | Strategy::Foil | Strategy::Tilde => {}
        Strategy::CastorNoMd => {
            config.use_mds = false;
            config.use_cfd_repairs = false;
        }
        Strategy::CastorExact => {
            config.exact_md_joins = true;
            config.use_cfd_repairs = false;
        }
        Strategy::CastorClean => {
            let mut cleaned = augment_with_target(&task);
            for md_index in engine.catalog().indexes() {
                cleaned = enforce_md_best_match_with_index(&cleaned, md_index).0;
            }
            task.database = copy_without(&cleaned, &task.target.name)?;
            config.exact_md_joins = true;
            config.use_cfd_repairs = false;
        }
        Strategy::DLearnRepaired => {
            task.database = minimal_cfd_repair(&task.database, &task.cfds).0;
            config.use_cfd_repairs = false;
        }
    }
    let catalog = if !config.use_mds || task.mds.is_empty() {
        MdCatalog::default()
    } else if strategy == Strategy::CastorClean {
        MdCatalog::build_exact(&task.mds, &augment_with_target(&task), config.km)
    } else {
        MdCatalog::build(
            &task.mds,
            &augment_with_target(&task),
            &index_config(&config),
        )
    };
    let builder = BottomClauseBuilder::new(&task, &catalog, &config);
    let coverage = CoverageEngine::build(&task, &builder, &config);
    Ok((coverage, config))
}

fn copy_without(db: &Database, skip: &str) -> Result<Database, String> {
    let mut out = Database::new();
    for rel in db.relations().filter(|rel| rel.name() != skip) {
        out.create_relation(rel.schema().clone())
            .map_err(|e| e.to_string())?;
        for (_, t) in rel.iter() {
            out.insert(rel.name(), t.clone())
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(out)
}
