//! Reproducibility of generated data and learned definitions.
//!
//! Injected CFD violations pick their replacement values from a column's
//! domain with a seeded RNG, so the domain must come back in the same order
//! every time: each generator, run twice in one process at a nonzero
//! violation rate, must produce the same database tuple for tuple. A hash
//! map's iteration order also differs *between* processes, so the second
//! test re-runs this test binary as a child process and requires it to
//! render the same definitions for all seven strategies.

use std::process::Command;

use dlearn::core::{Engine, LearnerConfig, Strategy};
use dlearn::datagen::citations::{generate_citation_dataset, CitationConfig};
use dlearn::datagen::movies::{generate_movie_dataset, MovieConfig};
use dlearn::datagen::products::{generate_product_dataset, ProductConfig};
use dlearn::datagen::{generate_segment_dataset, Dataset, SegmentConfig};
use dlearn::relstore::Tuple;

/// Every relation's tuples (in name order), then the two example lists.
fn contents(d: &Dataset) -> Vec<(String, Vec<Tuple>)> {
    let mut out: Vec<(String, Vec<Tuple>)> = d
        .task
        .database
        .relations()
        .map(|r| (r.name().to_string(), r.tuples().to_vec()))
        .collect();
    out.push(("positives".into(), d.task.positives.clone()));
    out.push(("negatives".into(), d.task.negatives.clone()));
    out
}

#[test]
fn every_generator_repeats_itself_tuple_for_tuple() {
    let generators: [(&str, &dyn Fn() -> Dataset); 4] = [
        ("movies", &|| {
            generate_movie_dataset(&MovieConfig::tiny().with_violation_rate(0.2), 3)
        }),
        ("products", &|| {
            generate_product_dataset(&ProductConfig::tiny().with_violation_rate(0.2), 3)
        }),
        ("citations", &|| {
            generate_citation_dataset(&CitationConfig::tiny().with_violation_rate(0.2), 3)
        }),
        // The segmentation task declares no CFDs, so it has no violation
        // rate to set.
        ("segments", &|| {
            generate_segment_dataset(&SegmentConfig::tiny(), 3)
        }),
    ];
    for (name, generate) in generators {
        let (first, second) = (generate(), generate());
        assert_eq!(
            contents(&first),
            contents(&second),
            "{name}: two generations from one seed differ"
        );
    }
}

const CHILD_TEST: &str = "render_every_strategy_for_the_parent_process";
const BEGIN: &str = "--- definitions ---";
const END: &str = "--- end ---";

/// The rendered definitions of all seven strategies on two tasks with
/// injected CFD violations.
fn rendered_definitions() -> String {
    let datasets = [
        generate_movie_dataset(&MovieConfig::tiny().with_violation_rate(0.3), 11),
        generate_citation_dataset(&CitationConfig::tiny().with_violation_rate(0.2), 11),
    ];
    let mut out = String::new();
    for dataset in datasets {
        let engine = Engine::prepare(dataset.task, LearnerConfig::fast()).expect("valid task");
        for strategy in Strategy::ALL {
            let learned = engine.learn(strategy).expect("learn");
            let name = strategy.name();
            out.push_str(&format!("{} {name}:\n{}\n", dataset.name, learned.render()));
        }
    }
    out
}

/// Run by [`learned_definitions_repeat_across_processes`] in a child
/// process; prints the definitions between markers.
#[test]
#[ignore = "child half of learned_definitions_repeat_across_processes"]
fn render_every_strategy_for_the_parent_process() {
    println!("{BEGIN}\n{}{END}", rendered_definitions());
}

#[test]
fn learned_definitions_repeat_across_processes() {
    let output = Command::new(std::env::current_exe().expect("test binary path"))
        .args([CHILD_TEST, "--exact", "--ignored", "--nocapture"])
        .args(["--test-threads", "1"])
        .output()
        .expect("run the child process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "child failed:\n{stdout}");
    let child = stdout
        .split_once(BEGIN)
        .and_then(|(_, rest)| rest.split_once(END))
        .map(|(body, _)| body.trim_start_matches('\n'))
        .unwrap_or_else(|| panic!("child printed no definitions:\n{stdout}"));
    assert_eq!(
        rendered_definitions(),
        child,
        "the child process learned different definitions"
    );
}
