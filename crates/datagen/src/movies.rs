//! Synthetic IMDB + OMDB movie-integration dataset.
//!
//! Emulates the paper's IMDB+OMDB workload: the target relation
//! `dramaRestrictedMovies(imdbId)` holds IMDB ids of drama movies rated R.
//! The id and genre live on the IMDB side, the rating only on the OMDB side,
//! and OMDB spells titles differently, so the discriminating attribute is
//! reachable only through the title matching dependency (plus cast/writer
//! MDs in the three-MD variant).

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use dlearn_constraints::{Cfd, MatchingDependency};
use dlearn_core::{LearningTask, TargetSpec};
use dlearn_relstore::{tuple, DatabaseBuilder, RelationBuilder, Value};

use crate::dataset::Dataset;
use crate::dirt::{chance, decorate_title, perturb_name};
use crate::violations::inject_cfd_violations;
use crate::vocab;

/// Configuration of the movie dataset generator.
#[derive(Debug, Clone)]
pub struct MovieConfig {
    /// Number of movies present in both sources.
    pub n_movies: usize,
    /// Number of positive training examples to emit.
    pub n_positive: usize,
    /// Number of negative training examples to emit.
    pub n_negative: usize,
    /// Use the three-MD variant (titles + cast + writers) instead of one MD.
    pub three_mds: bool,
    /// Fraction of OMDB titles spelled exactly like the IMDB title.
    pub exact_title_fraction: f64,
    /// Fraction of cross-source person names spelled identically.
    pub exact_name_fraction: f64,
    /// CFD-violation injection rate `p` (0 disables injection).
    pub cfd_violation_rate: f64,
}

impl MovieConfig {
    /// A tiny instance for unit tests and doc examples.
    pub fn tiny() -> Self {
        MovieConfig {
            n_movies: 40,
            n_positive: 8,
            n_negative: 16,
            three_mds: false,
            exact_title_fraction: 0.1,
            exact_name_fraction: 0.7,
            cfd_violation_rate: 0.0,
        }
    }

    /// A small instance for integration tests and benchmarks.
    pub fn small() -> Self {
        MovieConfig {
            n_movies: 120,
            n_positive: 24,
            n_negative: 48,
            ..MovieConfig::tiny()
        }
    }

    /// The scale used by the experiment runner to mirror the paper's tables
    /// (scaled down from the 3.3M/4.8M-tuple originals to laptop size).
    pub fn paper() -> Self {
        MovieConfig {
            n_movies: 400,
            n_positive: 60,
            n_negative: 120,
            ..MovieConfig::tiny()
        }
    }

    /// Switch to the three-MD variant.
    pub fn with_three_mds(mut self) -> Self {
        self.three_mds = true;
        self
    }

    /// Set the CFD-violation rate `p`.
    pub fn with_violation_rate(mut self, p: f64) -> Self {
        self.cfd_violation_rate = p;
        self
    }

    /// Set the number of training examples.
    pub fn with_examples(mut self, positives: usize, negatives: usize) -> Self {
        self.n_positive = positives;
        self.n_negative = negatives;
        self
    }
}

/// Generate the movie dataset.
pub fn generate_movie_dataset(config: &MovieConfig, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let genres = ["drama", "comedy", "thriller", "action", "horror"];
    let ratings = ["R", "PG-13", "PG", "G"];
    let countries = ["USA", "UK", "France", "Spain", "Japan", "India"];

    let mut builder = DatabaseBuilder::new()
        .relation(
            RelationBuilder::new("imdb_movies")
                .int_attr("id")
                .str_attr("title")
                .int_attr("year")
                .build(),
        )
        .relation(
            RelationBuilder::new("imdb_mov2genres")
                .int_attr("id")
                .str_attr("genre")
                .build(),
        )
        .relation(
            RelationBuilder::new("imdb_mov2countries")
                .int_attr("id")
                .str_attr("country")
                .build(),
        )
        .relation(
            RelationBuilder::new("imdb_mov2cast")
                .int_attr("id")
                .str_attr("actor")
                .build(),
        )
        .relation(
            RelationBuilder::new("imdb_mov2writers")
                .int_attr("id")
                .str_attr("writer")
                .build(),
        )
        .relation(
            RelationBuilder::new("omdb_movies")
                .int_attr("oid")
                .str_attr("title")
                .int_attr("year")
                .build(),
        )
        .relation(
            RelationBuilder::new("omdb_mov2ratings")
                .int_attr("oid")
                .str_attr("rating")
                .build(),
        )
        .relation(
            RelationBuilder::new("omdb_mov2genres")
                .int_attr("oid")
                .str_attr("genre")
                .build(),
        )
        .relation(
            RelationBuilder::new("omdb_mov2cast")
                .int_attr("oid")
                .str_attr("actor")
                .build(),
        )
        .relation(
            RelationBuilder::new("omdb_mov2writers")
                .int_attr("oid")
                .str_attr("writer")
                .build(),
        );

    let mut positive_ids: Vec<i64> = Vec::new();
    let mut negative_ids: Vec<i64> = Vec::new();
    let mut used_titles = std::collections::HashSet::new();

    for i in 0..config.n_movies {
        let id = i as i64;
        let oid = 100_000 + id;
        let mut title = vocab::movie_title(&mut rng);
        while !used_titles.insert(title.clone()) {
            title = format!("{} {}", vocab::movie_title(&mut rng), i);
            if used_titles.insert(title.clone()) {
                break;
            }
        }
        let year = 1950 + rng.gen_range(0..70) as i64;
        // Decide the label first so both classes are well represented, and
        // make the negatives hard: most of them are drama-but-not-R or
        // R-but-not-drama, so neither source alone separates the classes and
        // the learner must cross the title join to do well (this mirrors the
        // paper's target, whose definition needs both the IMDB genre and the
        // OMDB rating).
        let positive = chance(&mut rng, 0.4);
        let (genre, rating) = if positive {
            ("drama", "R")
        } else {
            match rng.gen_range(0..10) {
                0..=3 => (
                    "drama",
                    *["PG-13", "PG", "G"].get(rng.gen_range(0..3usize)).unwrap(),
                ),
                4..=7 => (
                    *["comedy", "thriller", "action", "horror"]
                        .get(rng.gen_range(0..4usize))
                        .unwrap(),
                    "R",
                ),
                _ => loop {
                    let g = vocab::pick(&mut rng, &genres);
                    let r = vocab::pick(&mut rng, &ratings);
                    if g != "drama" && r != "R" {
                        break (g, r);
                    }
                },
            }
        };
        let country = vocab::pick(&mut rng, &countries);
        let actor = vocab::person_name(&mut rng);
        let writer = vocab::person_name(&mut rng);

        let omdb_title = if chance(&mut rng, config.exact_title_fraction) {
            title.clone()
        } else {
            decorate_title(&title, year, &mut rng)
        };
        let omdb_actor = if chance(&mut rng, config.exact_name_fraction) {
            actor.clone()
        } else {
            perturb_name(&actor, &mut rng)
        };
        let omdb_writer = if chance(&mut rng, config.exact_name_fraction) {
            writer.clone()
        } else {
            perturb_name(&writer, &mut rng)
        };

        builder = builder
            .row(
                "imdb_movies",
                vec![Value::int(id), Value::str(&title), Value::int(year)],
            )
            .row("imdb_mov2genres", vec![Value::int(id), Value::str(genre)])
            .row(
                "imdb_mov2countries",
                vec![Value::int(id), Value::str(country)],
            )
            .row("imdb_mov2cast", vec![Value::int(id), Value::str(&actor)])
            .row(
                "imdb_mov2writers",
                vec![Value::int(id), Value::str(&writer)],
            )
            .row(
                "omdb_movies",
                vec![Value::int(oid), Value::str(&omdb_title), Value::int(year)],
            )
            .row(
                "omdb_mov2ratings",
                vec![Value::int(oid), Value::str(rating)],
            )
            .row("omdb_mov2genres", vec![Value::int(oid), Value::str(genre)])
            .row(
                "omdb_mov2cast",
                vec![Value::int(oid), Value::str(&omdb_actor)],
            )
            .row(
                "omdb_mov2writers",
                vec![Value::int(oid), Value::str(&omdb_writer)],
            );

        if positive {
            positive_ids.push(id);
        } else {
            negative_ids.push(id);
        }
    }

    let mut database = builder.build();

    let mut task = LearningTask::new(
        Database::default(),
        TargetSpec::with_attributes("dramaRestrictedMovies", vec!["imdbId"]),
    );

    // Constraints.
    task.mds.push(MatchingDependency::simple(
        "titles",
        "imdb_movies",
        "title",
        "omdb_movies",
        "title",
    ));
    if config.three_mds {
        task.mds.push(MatchingDependency::simple(
            "cast",
            "imdb_mov2cast",
            "actor",
            "omdb_mov2cast",
            "actor",
        ));
        task.mds.push(MatchingDependency::simple(
            "writers",
            "imdb_mov2writers",
            "writer",
            "omdb_mov2writers",
            "writer",
        ));
    }
    task.cfds = vec![
        Cfd::fd("imdb_year", "imdb_movies", vec!["id"], "year"),
        Cfd::fd("omdb_year", "omdb_movies", vec!["oid"], "year"),
        Cfd::fd("omdb_rating", "omdb_mov2ratings", vec!["oid"], "rating"),
        Cfd::fd("imdb_country", "imdb_mov2countries", vec!["id"], "country"),
    ];

    // Inject CFD violations before freezing the database.
    if config.cfd_violation_rate > 0.0 {
        inject_cfd_violations(
            &mut database,
            &task.cfds,
            config.cfd_violation_rate,
            &mut rng,
        );
    }
    task.database = database;

    // Mode-style declarations.
    for (rel, attr) in [
        ("imdb_mov2genres", "genre"),
        ("omdb_mov2genres", "genre"),
        ("omdb_mov2ratings", "rating"),
        ("imdb_mov2countries", "country"),
    ] {
        task.add_constant_attribute(rel, attr);
    }
    for rel in [
        "imdb_movies",
        "imdb_mov2genres",
        "imdb_mov2countries",
        "imdb_mov2cast",
        "imdb_mov2writers",
    ] {
        task.add_source(rel, "imdb");
    }
    for rel in [
        "omdb_movies",
        "omdb_mov2ratings",
        "omdb_mov2genres",
        "omdb_mov2cast",
        "omdb_mov2writers",
    ] {
        task.add_source(rel, "omdb");
    }
    task.target_source = Some("imdb".to_string());

    // Training examples.
    sample_examples(&mut rng, &mut positive_ids, config.n_positive);
    sample_examples(&mut rng, &mut negative_ids, config.n_negative);
    task.positives = positive_ids
        .iter()
        .map(|&id| tuple(vec![Value::int(id)]))
        .collect();
    task.negatives = negative_ids
        .iter()
        .map(|&id| tuple(vec![Value::int(id)]))
        .collect();

    let name = if config.three_mds {
        "IMDB + OMDB (three MDs)"
    } else {
        "IMDB + OMDB (one MD)"
    };
    Dataset::new(name, task)
}

use dlearn_relstore::Database;
use rand::seq::SliceRandom;

fn sample_examples(rng: &mut StdRng, ids: &mut Vec<i64>, n: usize) {
    ids.shuffle(rng);
    ids.truncate(n);
    ids.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_task_is_valid_and_has_requested_examples() {
        let ds = generate_movie_dataset(&MovieConfig::tiny(), 42);
        assert!(ds.task.validate().is_ok());
        assert_eq!(ds.task.positives.len(), 8);
        assert_eq!(ds.task.negatives.len(), 16);
        assert_eq!(ds.task.mds.len(), 1);
        assert_eq!(ds.task.cfds.len(), 4);
        assert!(ds.task.database.total_tuples() >= 40 * 10);
    }

    #[test]
    fn three_md_variant_declares_three_mds() {
        let ds = generate_movie_dataset(&MovieConfig::tiny().with_three_mds(), 42);
        assert_eq!(ds.task.mds.len(), 3);
        assert!(ds.name.contains("three"));
    }

    #[test]
    fn positives_are_drama_and_rated_r() {
        let ds = generate_movie_dataset(&MovieConfig::tiny(), 7);
        let db = &ds.task.database;
        for e in &ds.task.positives {
            let id = e.value(0).unwrap();
            let genres = db.select_eq("imdb_mov2genres", "id", id).unwrap();
            assert!(genres
                .iter()
                .any(|t| t.value(1) == Some(&Value::str("drama"))));
        }
    }

    #[test]
    fn violation_injection_adds_tuples() {
        let clean = generate_movie_dataset(&MovieConfig::tiny(), 3);
        let dirty = generate_movie_dataset(&MovieConfig::tiny().with_violation_rate(0.2), 3);
        assert!(dirty.task.database.total_tuples() > clean.task.database.total_tuples());
        let violated = dirty
            .task
            .cfds
            .iter()
            .any(|c| !c.satisfied_by(dirty.task.database.relation(c.relation).unwrap()));
        assert!(violated);
    }

    #[test]
    fn generation_is_deterministic() {
        // Injected violations pick replacement values from a column's
        // domain, the step that once followed hash-map order.
        let config = MovieConfig::tiny().with_violation_rate(0.2);
        let a = generate_movie_dataset(&config, 9);
        let b = generate_movie_dataset(&config, 9);
        let rows = |d: &Dataset| -> Vec<Vec<dlearn_relstore::Tuple>> {
            d.task
                .database
                .relations()
                .map(|r| r.tuples().to_vec())
                .collect()
        };
        assert_eq!(rows(&a), rows(&b));
        assert_eq!(a.task.positives, b.task.positives);
        assert_eq!(a.task.negatives, b.task.negatives);
    }
}
