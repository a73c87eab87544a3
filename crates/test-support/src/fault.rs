//! Deterministic fault injection for the serving tier (feature
//! `fault-injection`).
//!
//! The robustness suite needs to *prove* that one poisoned or slow example
//! cannot take down a batch — which requires making examples poisoned or
//! slow on demand, deterministically, at the exact pipeline stages the
//! service guards. This module provides named checkpoints
//! ([`Site::Grounding`], [`Site::Coverage`], [`Site::Alignment`]) that
//! production code compiles in only under the `fault-injection` feature; a
//! [`FaultPlan`] installed via [`install`] decides, from a seed and the
//! checkpoint's key, whether to panic, sleep, or force the caller's step
//! budget to zero at each visit.
//!
//! Decisions are a pure function of `(seed, rule index, site, key)` — no
//! global RNG state — so a plan injects the same faults at every thread
//! count and on every rerun.
//!
//! A plan is scoped to the thread that installs it: [`install`] makes it
//! the calling thread's plan until the returned [`FaultGuard`] drops, and
//! checkpoints on any other thread never see it. Worker threads a
//! computation fans out to adopt their caller's plan explicitly
//! ([`current`], then [`PlanHandle::enter`] on the worker), so tests that
//! inject faults run in parallel without reading each other's plans.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Marker embedded in every injected panic's message, so panic hooks and
/// assertions can tell injected panics from real bugs.
pub const PANIC_MARKER: &str = "fault-injection: injected panic";

/// A named pipeline stage where faults can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Bottom-clause grounding of one served example (key: the tuple's
    /// display form).
    Grounding,
    /// The per-example coverage test (key: the tuple's display form).
    Coverage,
    /// MD similarity-catalog construction at prepare time (key: the target
    /// relation's name).
    Alignment,
    /// Incremental delta application — index maintenance and grounding
    /// patching (key: the target relation's name).
    Delta,
    /// Model publication on the serving tier — the epoch swap in
    /// `PredictorService::publish` / `PredictorService::apply_delta` (key:
    /// `"publish@<epoch>"` / `"delta@<epoch>"`).
    Swap,
    /// Refinement search in `Engine::learn` — any strategy's refiner over
    /// the prepared plan (key: the strategy's display name).
    Learn,
}

impl Site {
    fn index(self) -> usize {
        match self {
            Site::Grounding => 0,
            Site::Coverage => 1,
            Site::Alignment => 2,
            Site::Delta => 3,
            Site::Swap => 4,
            Site::Learn => 5,
        }
    }

    /// Stable name used in hashes and messages.
    pub fn name(self) -> &'static str {
        match self {
            Site::Grounding => "grounding",
            Site::Coverage => "coverage",
            Site::Alignment => "alignment",
            Site::Delta => "delta",
            Site::Swap => "swap",
            Site::Learn => "learn",
        }
    }
}

/// What an activated rule does at its checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Panic with a message containing [`PANIC_MARKER`].
    Panic,
    /// Sleep for the given duration, then proceed.
    Delay(Duration),
    /// Tell the caller to act as if its step budget were already exhausted.
    ExhaustBudget,
}

/// What the caller of [`checkpoint`] should do next. Panics and delays are
/// executed *inside* the checkpoint; budget exhaustion cannot be (only the
/// caller knows its budget), so it is returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a checkpoint may demand budget exhaustion"]
pub enum Action {
    /// No fault (or the fault was already executed in the checkpoint).
    Proceed,
    /// Run the guarded computation with a zeroed step budget.
    ExhaustBudget,
}

/// One injection rule: fire `fault` at `site`, for keys containing
/// `key_contains` (all keys when `None`), with the given probability.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// The checkpoint this rule applies to.
    pub site: Site,
    /// Substring filter over the checkpoint key; `None` matches every key.
    pub key_contains: Option<String>,
    /// Activation probability in `[0, 1]`, evaluated deterministically from
    /// the plan seed, the rule's position, the site and the key.
    pub probability: f64,
    /// The fault to execute when the rule activates.
    pub fault: Fault,
}

/// A deterministic, seeded set of injection rules. First matching rule wins.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Add a rule that always fires at `site` for keys containing `key`.
    pub fn on_key(mut self, site: Site, key: &str, fault: Fault) -> FaultPlan {
        self.rules.push(FaultRule {
            site,
            key_contains: Some(key.to_string()),
            probability: 1.0,
            fault,
        });
        self
    }

    /// Add a rule that fires at `site` for every key with `probability`.
    pub fn with_probability(mut self, site: Site, probability: f64, fault: Fault) -> FaultPlan {
        self.rules.push(FaultRule {
            site,
            key_contains: None,
            probability,
            fault,
        });
        self
    }

    /// Add an arbitrary rule.
    pub fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// First rule matching `(site, key)` whose seeded coin flip comes up.
    fn decide(&self, site: Site, key: &str) -> Option<&Fault> {
        for (idx, rule) in self.rules.iter().enumerate() {
            if rule.site != site {
                continue;
            }
            if let Some(needle) = &rule.key_contains {
                if !key.contains(needle.as_str()) {
                    continue;
                }
            }
            if rule.probability >= 1.0 || hash01(self.seed, idx, site, key) < rule.probability {
                return Some(&rule.fault);
            }
        }
        None
    }
}

/// Deterministic hash of `(seed, rule, site, key)` into `[0, 1)`.
fn hash01(seed: u64, rule_idx: usize, site: Site, key: &str) -> f64 {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    rule_idx.hash(&mut h);
    site.name().hash(&mut h);
    key.hash(&mut h);
    (h.finish() >> 11) as f64 / (1u64 << 53) as f64
}

/// An installed plan with its injection counters.
struct Installed {
    plan: FaultPlan,
    injected: [AtomicU64; 6],
}

thread_local! {
    static ACTIVE: RefCell<Option<Arc<Installed>>> = const { RefCell::new(None) };
}

/// Make `plan` the current thread's plan, returning the one it replaces.
fn set_active(plan: Option<Arc<Installed>>) -> Option<Arc<Installed>> {
    ACTIVE.with(|active| active.replace(plan))
}

fn active() -> Option<Arc<Installed>> {
    ACTIVE.with(|active| active.borrow().clone())
}

/// Keeps a [`FaultPlan`] installed on the installing thread; dropping it
/// restores the plan that was current before. Not `Send`: the plan belongs
/// to the thread that installed it.
pub struct FaultGuard {
    previous: Option<Arc<Installed>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        // `try_with`: a guard dropped while its thread tears down its
        // thread-locals must not panic.
        let previous = self.previous.take();
        let _ = ACTIVE.try_with(|active| active.replace(previous));
    }
}

/// Install a plan on the calling thread, with fresh injection counters.
/// Also installs (once per process) a panic hook that swallows the default
/// stderr report for injected panics — they are expected and caught — while
/// delegating every other panic to the previous hook.
pub fn install(plan: FaultPlan) -> FaultGuard {
    install_quiet_hook();
    let installed = Arc::new(Installed {
        plan,
        injected: Default::default(),
    });
    FaultGuard {
        previous: set_active(Some(installed)),
        _not_send: PhantomData,
    }
}

/// The calling thread's plan (possibly none), as a handle a worker thread
/// can adopt with [`PlanHandle::enter`].
pub fn current() -> PlanHandle {
    PlanHandle(active())
}

/// A thread's fault plan, carried to the worker threads its computation
/// fans out to. Injections on a worker count towards the same plan.
pub struct PlanHandle(Option<Arc<Installed>>);

impl PlanHandle {
    /// Make this the current thread's plan until the returned guard drops.
    pub fn enter(&self) -> FaultGuard {
        FaultGuard {
            previous: set_active(self.0.clone()),
            _not_send: PhantomData,
        }
    }
}

/// Where injected panics are raised, recorded by the first one.
static INJECTION_POINT: OnceLock<&'static Location<'static>> = OnceLock::new();

/// `true` for a panic raised by [`checkpoint`]'s injection, judged by the
/// panic's source location. A message is no evidence: a failing assertion
/// that prints a caught injected panic's message must still be reported.
fn is_injected_panic(location: Option<&Location<'_>>) -> bool {
    match (location, INJECTION_POINT.get()) {
        (Some(at), Some(point)) => at == *point,
        _ => false,
    }
}

/// Raise an injected panic. `#[track_caller]` locates it at the call in
/// [`checkpoint`], which is recorded before the panic so the quiet hook can
/// recognize it.
#[track_caller]
fn raise(site: Site, key: &str) -> ! {
    let here = Location::caller();
    INJECTION_POINT.get_or_init(|| here);
    panic!("{PANIC_MARKER} at {} for `{key}`", site.name())
}

fn install_quiet_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !is_injected_panic(info.location()) {
                previous(info);
            }
        }));
    });
}

/// Number of faults injected at `site` since the calling thread's current
/// plan was installed (0 when it has none).
pub fn injected(site: Site) -> u64 {
    active().map_or(0, |installed| {
        installed.injected[site.index()].load(Ordering::Relaxed)
    })
}

/// Production checkpoint: consult the calling thread's plan (if any) for
/// `(site, key)`. Panics and delays execute here; budget exhaustion is
/// returned for the caller to honor.
pub fn checkpoint(site: Site, key: &str) -> Action {
    let Some(installed) = active() else {
        return Action::Proceed;
    };
    let Some(fault) = installed.plan.decide(site, key) else {
        return Action::Proceed;
    };
    installed.injected[site.index()].fetch_add(1, Ordering::Relaxed);
    match fault {
        Fault::Panic => raise(site, key),
        Fault::Delay(d) => {
            std::thread::sleep(*d);
            Action::Proceed
        }
        Fault::ExhaustBudget => Action::ExhaustBudget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_key_scoped() {
        let plan = FaultPlan::new(42)
            .on_key(Site::Grounding, "bad", Fault::Panic)
            .with_probability(Site::Coverage, 0.5, Fault::ExhaustBudget);
        assert_eq!(
            plan.decide(Site::Grounding, "a bad tuple"),
            Some(&Fault::Panic)
        );
        assert_eq!(plan.decide(Site::Grounding, "a good tuple"), None);
        assert_eq!(plan.decide(Site::Alignment, "bad"), None);
        // Probabilistic rules are pure functions of (seed, rule, site, key).
        for key in ["k1", "k2", "k3", "k4"] {
            assert_eq!(
                plan.decide(Site::Coverage, key).is_some(),
                plan.decide(Site::Coverage, key).is_some()
            );
        }
    }

    #[test]
    fn probability_roughly_splits_keys() {
        let plan = FaultPlan::new(7).with_probability(Site::Coverage, 0.5, Fault::Panic);
        let hits = (0..1000)
            .filter(|i| plan.decide(Site::Coverage, &format!("key-{i}")).is_some())
            .count();
        assert!((300..700).contains(&hits), "hits={hits}");
    }

    #[test]
    fn plans_are_scoped_to_the_installing_thread_and_its_adopters() {
        let guard = install(FaultPlan::new(1).on_key(Site::Coverage, "x", Fault::ExhaustBudget));
        // Another thread sees no plan...
        let bystander = std::thread::spawn(|| checkpoint(Site::Coverage, "tuple x"));
        assert_eq!(bystander.join().unwrap(), Action::Proceed);
        // ...unless it adopts the installer's, and its injections count.
        let handle = current();
        let adopter = std::thread::spawn(move || {
            let _plan = handle.enter();
            checkpoint(Site::Coverage, "tuple x")
        });
        assert_eq!(adopter.join().unwrap(), Action::ExhaustBudget);
        assert_eq!(injected(Site::Coverage), 1);
        drop(guard);
        assert_eq!(injected(Site::Coverage), 0);
    }

    #[test]
    fn quiet_hook_matches_the_injection_point_not_the_message() {
        let _guard = install(FaultPlan::new(1).on_key(Site::Learn, "x", Fault::Panic));
        let caught = std::panic::catch_unwind(|| checkpoint(Site::Learn, "x")).unwrap_err();
        let message = caught.downcast_ref::<String>().expect("formatted message");
        assert!(message.contains(PANIC_MARKER), "{message}");
        let point = INJECTION_POINT.get().expect("recorded by the injection");
        assert_eq!(point.file(), file!(), "recorded at the checkpoint: {point}");
        assert!(is_injected_panic(Some(point)));
        // A panic anywhere else — even in this file, even quoting the
        // marker — is not an injected one.
        assert!(!is_injected_panic(Some(Location::caller())));
        assert!(!is_injected_panic(None));
    }

    #[test]
    fn install_checkpoint_and_counters_round_trip() {
        let guard = install(FaultPlan::new(1).on_key(Site::Coverage, "x", Fault::ExhaustBudget));
        assert_eq!(checkpoint(Site::Coverage, "tuple x"), Action::ExhaustBudget);
        assert_eq!(checkpoint(Site::Coverage, "other"), Action::Proceed);
        assert_eq!(injected(Site::Coverage), 1);
        drop(guard);
        assert_eq!(checkpoint(Site::Coverage, "tuple x"), Action::Proceed);
    }
}
