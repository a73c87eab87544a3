//! The resilient serving tier: a long-lived front-end over [`Predictor`].
//!
//! A fleet-facing predictor must survive its traffic, not just be fast on
//! clean inputs: a pathological tuple used to pin a worker in the
//! subsumption search with no deadline, a worker panic tore down the whole
//! batch, and a binding step budget silently flipped a decision to "no".
//! [`PredictorService`] makes all three survivable and observable:
//!
//! * **Cached grounding** — a bounded, sharded cross-batch cache of
//!   `tuple → GroundExample` with clock (second-chance) eviction. Grounding
//!   is a pure function of the tuple (the RNG derives from the session seed
//!   alone), so a cache hit reuses the identical ground clause a fresh
//!   grounding would produce — verdicts are bit-identical cache-on vs
//!   cache-off, which `tests/service.rs` pins across 1/2/8 threads.
//! * **Deadlines and cooperative cancellation** — a per-call [`Budget`]
//!   threads a deadline into the subsumption search via an atomic
//!   [`CancelToken`] polled alongside the step-budget test. A slow example
//!   returns [`DlearnError::DeadlineExceeded`] *for that example only*; the
//!   rest of the batch completes.
//! * **Panic isolation** — each example runs inside `catch_unwind` at the
//!   chunk worker, so one poisoned example yields
//!   [`DlearnError::WorkerPanicked`] and lands in a quarantine that keeps
//!   its tuple out of the cache forever after.
//! * **Degradation accounting** — budget-exhausted subsumption searches no
//!   longer masquerade as clean "no"s: every verdict carries its
//!   [`ServeVerdict::exhausted_searches`] count and the service-wide
//!   [`ServiceMetrics`] aggregate them.
//! * **Hot model swap** — the service owns its model behind an
//!   epoch-versioned [`crate::swap::SwapCell`]: every batch loads one
//!   consistent `(epoch, predictor)` snapshot, and
//!   [`PredictorService::publish`] /
//!   [`PredictorService::apply_delta`] atomically install a re-learned
//!   model while in-flight batches finish on their old epoch. Cache entries
//!   are epoch-tagged, so groundings from a superseded model are lazily
//!   dropped instead of served ([`ServiceMetrics::stale_reads_prevented`]).
//!   Every [`ServeVerdict`] names the epoch that produced it. For queued
//!   request coalescing in front of the service, see [`crate::coalesce`].
//!
//! ```
//! use dlearn_core::{Engine, LearnerConfig, LearningTask, PredictorService,
//!                   ServiceConfig, Strategy, TargetSpec};
//! use dlearn_relstore::{tuple, DatabaseBuilder, RelationBuilder, Value};
//!
//! let db = DatabaseBuilder::new()
//!     .relation(RelationBuilder::new("movies").int_attr("id").str_attr("title").build())
//!     .relation(RelationBuilder::new("genres").int_attr("id").str_attr("genre").build())
//!     .row("movies", vec![Value::int(1), Value::str("Superbad")])
//!     .row("genres", vec![Value::int(1), Value::str("comedy")])
//!     .build();
//! let mut task = LearningTask::new(db, TargetSpec::new("hit", 1));
//! task.add_constant_attribute("genres", "genre");
//! task.positives.push(tuple(vec![Value::int(1)]));
//!
//! let engine = Engine::prepare(task, LearnerConfig::fast())?;
//! let learned = engine.learn(Strategy::DLearn)?;
//! let service = PredictorService::new(engine.predictor(&learned)?, ServiceConfig::default());
//! let results = service.predict_batch(&[tuple(vec![Value::int(1)])]);
//! assert!(results[0].is_ok());
//! assert!(service.metrics().served >= 1);
//!
//! // Hot swap: re-publish a (re-)learned model without stopping traffic.
//! let next = service.publish(engine.predictor(&learned)?)?;
//! assert_eq!(next, service.epoch());
//! assert_eq!(service.metrics().swaps, 1);
//! # Ok::<(), dlearn_core::DlearnError>(())
//! ```

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dlearn_logic::CancelToken;
use dlearn_relstore::Tuple;

use crate::coverage::{CoverageOutcome, GroundExample};
use crate::engine::Predictor;
use crate::error::DlearnError;
use crate::fault;
use crate::swap::SwapCell;

/// Per-call resource budget for one served example.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline per example. The subsumption search polls an
    /// atomic cancel flag derived from it, so a blown deadline surfaces as
    /// [`DlearnError::DeadlineExceeded`] within one poll interval instead of
    /// hanging.
    pub deadline: Option<Duration>,
    /// Cap on subsumption search steps per search, applied on top of (never
    /// above) the session's `subsumption.max_steps`. Exhausted searches act
    /// as "not covered" and are counted in the verdict.
    pub max_subsumption_steps: Option<usize>,
}

impl Budget {
    /// No deadline and no extra step cap.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Set the per-example deadline (builder style).
    pub fn with_deadline(mut self, deadline: Duration) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Set the per-search subsumption step cap (builder style).
    pub fn with_max_subsumption_steps(mut self, steps: usize) -> Budget {
        self.max_subsumption_steps = Some(steps);
        self
    }
}

/// Configuration of a [`PredictorService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Total ground-example cache capacity across all shards. `0` disables
    /// caching entirely (every serve re-grounds).
    pub cache_capacity: usize,
    /// Number of cache shards; rounded up to a power of two. More shards
    /// mean less lock contention under concurrent batches.
    pub cache_shards: usize,
    /// Worker threads for batch fan-out (`0` = the session config's
    /// coverage-thread resolution).
    pub worker_threads: usize,
    /// Default budget applied by [`PredictorService::predict_batch`];
    /// [`PredictorService::predict_batch_with`] overrides it per call.
    pub budget: Budget,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 4096,
            cache_shards: 8,
            worker_threads: 0,
            budget: Budget::default(),
        }
    }
}

/// One successful serving verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeVerdict {
    /// Whether the definition covers the example (Definition 3.4).
    pub covered: bool,
    /// Subsumption searches that ran out of step budget while deciding.
    /// Non-zero means the verdict may be degraded: an exhausted search acts
    /// as "not covered", exactly as in training, but here it is observable.
    pub exhausted_searches: u32,
    /// Epoch of the model snapshot that produced this verdict (the first
    /// published model is epoch 1). Under a hot swap, in-flight batches
    /// finish on their old epoch — this field says which model answered.
    pub epoch: u64,
}

impl ServeVerdict {
    /// `true` when at least one subsumption search was cut short by the
    /// step budget, i.e. the verdict is potentially weaker than the
    /// unbounded decision.
    pub fn is_degraded(&self) -> bool {
        self.exhausted_searches > 0
    }
}

/// Per-example serving result: a verdict, or a typed error scoped to this
/// example alone ([`DlearnError::DeadlineExceeded`],
/// [`DlearnError::WorkerPanicked`], [`DlearnError::PredictArity`]).
pub type ServeResult = Result<ServeVerdict, DlearnError>;

/// A point-in-time snapshot of a service's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceMetrics {
    /// Examples served to a successful verdict.
    pub served: u64,
    /// Ground-example cache hits.
    pub cache_hits: u64,
    /// Ground-example cache misses (fresh groundings).
    pub cache_misses: u64,
    /// Cache entries evicted by the clock hand.
    pub cache_evictions: u64,
    /// Serves of a quarantined tuple (served fresh, never re-cached).
    pub quarantine_hits: u64,
    /// Examples that blew their deadline.
    pub deadline_exceeded: u64,
    /// Worker panics caught and isolated.
    pub worker_panics: u64,
    /// Total budget-exhausted subsumption searches across all serves.
    pub budget_exhausted_searches: u64,
    /// Successful verdicts with at least one exhausted search.
    pub degraded_verdicts: u64,
    /// Inputs rejected before serving (wrong arity).
    pub rejected_inputs: u64,
    /// Cache entries evicted by [`PredictorService::apply_delta`] because
    /// their grounding probed a changed value.
    pub delta_evictions: u64,
    /// Successful model publications — [`PredictorService::publish`] plus
    /// committed [`PredictorService::apply_delta`] calls.
    pub swaps: u64,
    /// Cache entries from a superseded epoch dropped: lazily at lookup, or
    /// eagerly during a delta publication's cache walk.
    pub epoch_evictions: u64,
    /// Cache lookups that found an entry tagged with a *different* epoch
    /// than the reader's snapshot and refused to serve it. Without epoch
    /// tags each of these would have served a grounding from the wrong
    /// model.
    pub stale_reads_prevented: u64,
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    quarantine_hits: AtomicU64,
    deadline_exceeded: AtomicU64,
    worker_panics: AtomicU64,
    budget_exhausted_searches: AtomicU64,
    degraded_verdicts: AtomicU64,
    rejected_inputs: AtomicU64,
    delta_evictions: AtomicU64,
    swaps: AtomicU64,
    epoch_evictions: AtomicU64,
    stale_reads_prevented: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServiceMetrics {
        ServiceMetrics {
            served: self.served.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            quarantine_hits: self.quarantine_hits.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            budget_exhausted_searches: self.budget_exhausted_searches.load(Ordering::Relaxed),
            degraded_verdicts: self.degraded_verdicts.load(Ordering::Relaxed),
            rejected_inputs: self.rejected_inputs.load(Ordering::Relaxed),
            delta_evictions: self.delta_evictions.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            epoch_evictions: self.epoch_evictions.load(Ordering::Relaxed),
            stale_reads_prevented: self.stale_reads_prevented.load(Ordering::Relaxed),
        }
    }
}

/// One clock-cache entry: a grounding plus the epoch of the model it was
/// grounded under.
struct CacheEntry {
    key: Tuple,
    value: Arc<GroundExample>,
    epoch: u64,
    referenced: bool,
}

/// What an epoch-aware shard lookup found.
enum Lookup {
    /// A current-epoch grounding.
    Hit(Arc<GroundExample>),
    /// An entry from a *superseded* epoch: dropped on the spot.
    Stale,
    /// An entry from a *newer* epoch than the reader's snapshot (the reader
    /// is an in-flight batch on a pre-swap model): left in place, not
    /// served.
    Behind,
    /// Nothing cached for the tuple.
    Miss,
}

/// A fixed-capacity clock (second-chance) cache shard. The hand sweeps the
/// entry ring on eviction, clearing reference bits until it finds a victim —
/// LRU-approximating with O(1) hits and no per-hit reordering.
#[derive(Default)]
struct Shard {
    entries: Vec<CacheEntry>,
    index: HashMap<Tuple, usize>,
    hand: usize,
}

impl Shard {
    /// Epoch-aware lookup: only an entry tagged with the reader's exact
    /// epoch is a hit. Older entries are stale groundings of a superseded
    /// model and are dropped; newer entries belong to a model the reader
    /// has not swapped to yet and are left alone.
    fn get(&mut self, key: &Tuple, epoch: u64) -> Lookup {
        let Some(&i) = self.index.get(key) else {
            return Lookup::Miss;
        };
        let entry_epoch = self.entries[i].epoch;
        if entry_epoch == epoch {
            self.entries[i].referenced = true;
            Lookup::Hit(self.entries[i].value.clone())
        } else if entry_epoch < epoch {
            self.remove_at(i);
            Lookup::Stale
        } else {
            Lookup::Behind
        }
    }

    /// Insert, returning the number of clock evictions (0 or 1). An
    /// existing entry from a newer epoch is never clobbered by a lagging
    /// reader's insert.
    fn insert(
        &mut self,
        key: Tuple,
        value: Arc<GroundExample>,
        epoch: u64,
        capacity: usize,
    ) -> u64 {
        if capacity == 0 {
            return 0;
        }
        if let Some(&i) = self.index.get(&key) {
            if self.entries[i].epoch > epoch {
                return 0;
            }
            self.entries[i].value = value;
            self.entries[i].epoch = epoch;
            self.entries[i].referenced = true;
            return 0;
        }
        if self.entries.len() < capacity {
            self.index.insert(key.clone(), self.entries.len());
            self.entries.push(CacheEntry {
                key,
                value,
                epoch,
                referenced: false,
            });
            return 0;
        }
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.entries.len();
            if self.entries[i].referenced {
                self.entries[i].referenced = false;
            } else {
                self.index.remove(&self.entries[i].key);
                self.index.insert(key.clone(), i);
                self.entries[i] = CacheEntry {
                    key,
                    value,
                    epoch,
                    referenced: false,
                };
                return 1;
            }
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.hand = 0;
    }

    /// Remove one entry by ring position, keeping the index consistent.
    fn remove_at(&mut self, i: usize) {
        let entry = self.entries.swap_remove(i);
        self.index.remove(&entry.key);
        if i < self.entries.len() {
            self.index.insert(self.entries[i].key.clone(), i);
        }
        if self.hand >= self.entries.len() {
            self.hand = 0;
        }
    }

    /// The cache walk of a delta publication, migrating this shard from
    /// `current` to `new`: entries whose grounding the delta `affected` are
    /// evicted; unaffected current-epoch survivors are re-tagged to the new
    /// epoch (provably bit-identical to a fresh grounding over the mutated
    /// database); leftovers from even older epochs are dropped as stale.
    /// Returns `(delta_evicted, stale_evicted)`.
    fn retag_or_evict(
        &mut self,
        current: u64,
        new: u64,
        mut affected: impl FnMut(&GroundExample) -> bool,
    ) -> (u64, u64) {
        let before = self.entries.len();
        let mut delta_evicted = 0u64;
        self.entries.retain_mut(|entry| {
            if entry.epoch != current {
                return false;
            }
            if affected(&entry.value) {
                delta_evicted += 1;
                return false;
            }
            entry.epoch = new;
            true
        });
        let removed = (before - self.entries.len()) as u64;
        if removed > 0 {
            self.index.clear();
            for (i, entry) in self.entries.iter().enumerate() {
                self.index.insert(entry.key.clone(), i);
            }
            self.hand = 0;
        }
        (delta_evicted, removed - delta_evicted)
    }
}

/// Maximum tuples remembered by the quarantine ring; beyond it the oldest
/// entries are forgotten (they become cacheable again — bounded memory wins
/// over a perfect permanent ban).
const QUARANTINE_CAP: usize = 4096;

#[derive(Default)]
struct Quarantine {
    set: HashSet<Tuple>,
    order: VecDeque<Tuple>,
}

impl Quarantine {
    fn insert(&mut self, tuple: Tuple) {
        if self.set.insert(tuple.clone()) {
            self.order.push_back(tuple);
            while self.order.len() > QUARANTINE_CAP {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
        }
    }

    fn contains(&self, tuple: &Tuple) -> bool {
        self.set.contains(tuple)
    }
}

/// One published model: the epoch number and the predictor state serving it.
/// Readers clone the whole snapshot out of the service's [`SwapCell`], so a
/// batch never observes half of one model and half of another.
struct EpochModel {
    epoch: u64,
    predictor: Predictor,
}

/// A long-lived, `Send + Sync` serving front-end over a [`Predictor`]: see
/// the [module docs](crate::service) for the resilience contract.
pub struct PredictorService {
    /// The epoch-versioned model handle. Batches load one snapshot;
    /// publications atomically install a successor.
    model: SwapCell<EpochModel>,
    config: ServiceConfig,
    shard_count: usize,
    per_shard_capacity: usize,
    shards: Vec<Mutex<Shard>>,
    quarantine: Mutex<Quarantine>,
    counters: Counters,
    /// Serializes publications ([`PredictorService::publish`] /
    /// [`PredictorService::apply_delta`]) and guards epoch numbering.
    publish_lock: Mutex<()>,
    next_epoch: AtomicU64,
    /// Set by a panic mid-publication: the old epoch keeps serving, but
    /// selective delta publications are refused until a clean full
    /// [`PredictorService::publish`].
    swap_quarantined: AtomicBool,
}

impl PredictorService {
    /// Wrap a predictor for serving; it becomes epoch 1.
    pub fn new(predictor: Predictor, config: ServiceConfig) -> PredictorService {
        let shard_count = config.cache_shards.max(1).next_power_of_two();
        let per_shard_capacity = if config.cache_capacity == 0 {
            0
        } else {
            config.cache_capacity.div_ceil(shard_count).max(1)
        };
        let shards = (0..shard_count)
            .map(|_| Mutex::new(Shard::default()))
            .collect();
        PredictorService {
            model: SwapCell::new(Arc::new(EpochModel {
                epoch: 1,
                predictor,
            })),
            config,
            shard_count,
            per_shard_capacity,
            shards,
            quarantine: Mutex::new(Quarantine::default()),
            counters: Counters::default(),
            publish_lock: Mutex::new(()),
            next_epoch: AtomicU64::new(2),
            swap_quarantined: AtomicBool::new(false),
        }
    }

    /// The epoch of the currently installed model (the model a batch
    /// starting *now* would serve with). The first model is epoch 1.
    pub fn epoch(&self) -> u64 {
        self.model.load().epoch
    }

    /// Delta sequence of the currently installed model (see
    /// [`Predictor::delta_seq`]).
    pub fn delta_seq(&self) -> u64 {
        self.model.load().predictor.delta_seq()
    }

    /// `true` after a panic mid-publication: the previous epoch keeps
    /// serving, selective [`PredictorService::apply_delta`] calls are
    /// refused, and a clean full [`PredictorService::publish`] recovers.
    pub fn is_swap_quarantined(&self) -> bool {
        self.swap_quarantined.load(Ordering::Acquire)
    }

    /// A snapshot of the service counters.
    pub fn metrics(&self) -> ServiceMetrics {
        self.counters.snapshot()
    }

    /// Atomically publish a (re-)learned model as a fresh epoch, returning
    /// the new epoch number. In-flight batches finish on the epoch they
    /// loaded; batches starting after the publish serve the new model. Old
    /// cache entries are *not* walked — they are tagged with their dead
    /// epoch and lazily dropped on first lookup
    /// ([`ServiceMetrics::epoch_evictions`]).
    ///
    /// This is also the recovery path after a swap quarantine: a clean
    /// publish installs a fresh epoch and lifts the quarantine. A panic
    /// inside the publication (only reachable via the fault-injection
    /// harness) leaves the old epoch serving and quarantines the swap path.
    pub fn publish(&self, predictor: Predictor) -> Result<u64, DlearnError> {
        let _publishing = self.publish_lock.lock().unwrap_or_else(|e| e.into_inner());
        let epoch = self.next_epoch.load(Ordering::Relaxed);
        let key = format!("publish@{epoch}");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = fault::checkpoint(fault::Site::Swap, &key);
        }));
        if let Err(payload) = outcome {
            self.swap_quarantined.store(true, Ordering::Release);
            self.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
            return Err(DlearnError::WorkerPanicked {
                site: "swap",
                message: crate::par::panic_message(&*payload),
            });
        }
        self.next_epoch.store(epoch + 1, Ordering::Relaxed);
        self.model.store(Arc::new(EpochModel { epoch, predictor }));
        self.counters.swaps.fetch_add(1, Ordering::Relaxed);
        self.swap_quarantined.store(false, Ordering::Release);
        Ok(epoch)
    }

    /// Publish a post-delta predictor and migrate the cache across the
    /// epoch boundary: entries whose recorded probes intersect the delta's
    /// change set (see [`crate::DeltaReport::affects`]) are evicted, every
    /// surviving entry — provably bit-identical to a fresh grounding over
    /// the mutated database — is re-tagged to the new epoch, so cache-on
    /// and cache-off serving stay in parity across deltas. Returns the
    /// number of delta-evicted entries.
    ///
    /// The report must chain directly from the served model: its
    /// [`crate::DeltaReport::sequence`] has to be the served
    /// [`Predictor::delta_seq`] plus one, and `predictor` must be re-bound
    /// at that sequence — anything else (out-of-order reports, a predictor
    /// from a different engine session) is refused with
    /// [`DlearnError::DeltaEpochMismatch`] and the served model stays
    /// untouched. While the swap path is quarantined the call is refused
    /// with [`DlearnError::SwapQuarantined`];
    /// [`PredictorService::publish`] recovers.
    pub fn apply_delta(
        &self,
        predictor: Predictor,
        report: &crate::DeltaReport,
    ) -> Result<u64, DlearnError> {
        let _publishing = self.publish_lock.lock().unwrap_or_else(|e| e.into_inner());
        if self.swap_quarantined.load(Ordering::Acquire) {
            return Err(DlearnError::SwapQuarantined);
        }
        let current = self.model.load();
        let served = current.predictor.delta_seq();
        if report.sequence != served + 1 || predictor.delta_seq() != report.sequence {
            return Err(DlearnError::DeltaEpochMismatch {
                served,
                report: report.sequence,
            });
        }
        let epoch = self.next_epoch.load(Ordering::Relaxed);
        let key = format!("delta@{epoch}");
        let walk = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = fault::checkpoint(fault::Site::Swap, &key);
            let mut delta_evicted = 0u64;
            let mut stale_evicted = 0u64;
            for shard in &self.shards {
                let (delta, stale) = shard
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .retag_or_evict(current.epoch, epoch, |g| report.affects(&g.probes));
                delta_evicted += delta;
                stale_evicted += stale;
            }
            (delta_evicted, stale_evicted)
        }));
        match walk {
            Ok((delta_evicted, stale_evicted)) => {
                if delta_evicted > 0 {
                    self.counters
                        .delta_evictions
                        .fetch_add(delta_evicted, Ordering::Relaxed);
                }
                if stale_evicted > 0 {
                    self.counters
                        .epoch_evictions
                        .fetch_add(stale_evicted, Ordering::Relaxed);
                }
                self.next_epoch.store(epoch + 1, Ordering::Relaxed);
                self.model.store(Arc::new(EpochModel { epoch, predictor }));
                self.counters.swaps.fetch_add(1, Ordering::Relaxed);
                Ok(delta_evicted)
            }
            Err(payload) => {
                // The walk may have re-tagged some entries to an epoch that
                // was never installed; dropping everything is always sound
                // and keeps the old epoch serving correct verdicts.
                self.clear_cache();
                self.swap_quarantined.store(true, Ordering::Release);
                self.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
                Err(DlearnError::WorkerPanicked {
                    site: "swap",
                    message: crate::par::panic_message(&*payload),
                })
            }
        }
    }

    /// Drop every cached ground example (counters are kept). Used by the
    /// cold-cache benchmarks and by callers that know the cache has gone
    /// stale.
    pub fn clear_cache(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }

    /// Serve a batch under the service's default budget. Results are
    /// index-aligned with `examples`; every error is scoped to its example —
    /// the batch as a whole always completes.
    pub fn predict_batch(&self, examples: &[Tuple]) -> Vec<ServeResult> {
        self.predict_batch_with(examples, &self.config.budget)
    }

    /// Serve a batch under an explicit per-call budget. The whole batch
    /// runs against one model snapshot: a concurrent
    /// [`PredictorService::publish`] never splits a batch across epochs.
    pub fn predict_batch_with(&self, examples: &[Tuple], budget: &Budget) -> Vec<ServeResult> {
        // One consistent snapshot per batch; a concurrent publish retires
        // the epoch, not this batch.
        let model = self.model.load();
        // Reject malformed inputs per position, keeping the valid ones.
        let mut results: Vec<Option<ServeResult>> = examples
            .iter()
            .enumerate()
            .map(|(index, e)| match model.predictor.check_arity(e, index) {
                Ok(()) => None,
                Err(err) => {
                    self.counters
                        .rejected_inputs
                        .fetch_add(1, Ordering::Relaxed);
                    Some(Err(err))
                }
            })
            .collect();

        // Dedup the valid tuples in first-occurrence order, exactly like
        // `Predictor::predict_batch`: serving is a pure function of the
        // tuple (given the snapshot), so each distinct tuple is served once
        // per batch.
        let mut slot_of: HashMap<&Tuple, usize> = HashMap::with_capacity(examples.len());
        let mut unique: Vec<&Tuple> = Vec::new();
        let mut slots: Vec<Option<usize>> = Vec::with_capacity(examples.len());
        for (i, e) in examples.iter().enumerate() {
            if results[i].is_some() {
                slots.push(None);
                continue;
            }
            let next = unique.len();
            let slot = *slot_of.entry(e).or_insert(next);
            if slot == next {
                unique.push(e);
            }
            slots.push(Some(slot));
        }

        let threads = if self.config.worker_threads > 0 {
            self.config.worker_threads
        } else {
            model.predictor.config().effective_threads()
        };
        let builder = model.predictor.builder();
        let served = crate::par::chunked_map_catching(&unique, threads, 2, |_, e| {
            self.serve_one(&model, &builder, e, budget)
        });

        // Isolated panics become typed per-example errors, and the tuple is
        // quarantined so it can never poison the cache.
        let served: Vec<ServeResult> = served
            .into_iter()
            .zip(&unique)
            .map(|(r, e)| match r {
                Ok(result) => result,
                Err(message) => {
                    self.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
                    self.quarantine
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert((*e).clone());
                    Err(DlearnError::WorkerPanicked {
                        site: "serve",
                        message,
                    })
                }
            })
            .collect();

        for (i, slot) in slots.iter().enumerate() {
            if let Some(s) = slot {
                results[i] = Some(served[*s].clone());
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every slot is filled"))
            .collect()
    }

    /// Serve one (pre-validated) example end to end against one model
    /// snapshot: deadline setup, epoch-checked cache lookup or grounding,
    /// coverage under the effective step budget.
    fn serve_one(
        &self,
        model: &EpochModel,
        builder: &crate::bottom::BottomClauseBuilder<'_>,
        example: &Tuple,
        budget: &Budget,
    ) -> ServeResult {
        // Parity with `Predictor::predict`: an empty definition covers
        // nothing and never grounds.
        if model.predictor.definition().is_empty() {
            self.counters.served.fetch_add(1, Ordering::Relaxed);
            return Ok(ServeVerdict {
                covered: false,
                exhausted_searches: 0,
                epoch: model.epoch,
            });
        }
        let budget_ms = budget.deadline.map(|d| d.as_millis() as u64).unwrap_or(0);
        let cancel = budget
            .deadline
            .map(|d| CancelToken::with_deadline(Instant::now() + d));
        let deadline_blown =
            |c: &Option<CancelToken>| c.as_ref().map(|c| c.is_cancelled()).unwrap_or(false);
        if deadline_blown(&cancel) {
            self.counters
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            return Err(DlearnError::DeadlineExceeded { budget_ms });
        }
        // Fault checkpoints name the example; a build without the harness
        // renders nothing on this per-request path.
        #[cfg(feature = "fault-injection")]
        let rendered = example.to_string();
        #[cfg(feature = "fault-injection")]
        let key = rendered.as_str();
        #[cfg(not(feature = "fault-injection"))]
        let key = "";

        let cached = self.cache_get(example, model.epoch);
        let (ground, fresh) = match cached {
            Some(g) => {
                self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                (g, false)
            }
            None => {
                self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
                // Budget exhaustion is a coverage-site fault; at grounding
                // only panics and delays apply, both executed inside.
                let _ = fault::checkpoint(fault::Site::Grounding, key);
                let g = Arc::new(model.predictor.ground_for_serving(builder, example));
                (g, true)
            }
        };
        if deadline_blown(&cancel) {
            self.counters
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            return Err(DlearnError::DeadlineExceeded { budget_ms });
        }

        let coverage_action = fault::checkpoint(fault::Site::Coverage, key);
        // A stall before the search (the checkpoint above can sleep) may
        // burn the whole deadline in one place; the in-search poll only
        // fires every `CANCEL_CHECK_INTERVAL` steps, so a short search
        // would otherwise return a late verdict instead of timing out.
        if deadline_blown(&cancel) {
            self.counters
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            return Err(DlearnError::DeadlineExceeded { budget_ms });
        }
        let mut sub = model.predictor.config().subsumption;
        if let Some(cap) = budget.max_subsumption_steps {
            sub.max_steps = sub.max_steps.min(cap);
        }
        if coverage_action == fault::Action::ExhaustBudget {
            sub.max_steps = 0;
        }

        let mut covered = false;
        let mut exhausted: u32 = 0;
        for prepared in &model.predictor.prepared {
            match prepared.covers_ground_controlled(&ground, &sub, cancel.as_ref()) {
                CoverageOutcome::Cancelled => {
                    self.counters
                        .deadline_exceeded
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(DlearnError::DeadlineExceeded { budget_ms });
                }
                CoverageOutcome::Covered { exhausted_searches } => {
                    exhausted += exhausted_searches;
                    covered = true;
                    break;
                }
                CoverageOutcome::NotCovered { exhausted_searches } => {
                    exhausted += exhausted_searches;
                }
            }
        }

        // Only a fully successful serve populates the cache — and never for
        // a quarantined tuple.
        if fresh && self.per_shard_capacity > 0 {
            let quarantined = self
                .quarantine
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .contains(example);
            if quarantined {
                self.counters
                    .quarantine_hits
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                self.cache_insert(example.clone(), ground, model.epoch);
            }
        }

        self.counters.served.fetch_add(1, Ordering::Relaxed);
        if exhausted > 0 {
            self.counters
                .budget_exhausted_searches
                .fetch_add(exhausted as u64, Ordering::Relaxed);
            self.counters
                .degraded_verdicts
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(ServeVerdict {
            covered,
            exhausted_searches: exhausted,
            epoch: model.epoch,
        })
    }

    fn shard_for(&self, tuple: &Tuple) -> &Mutex<Shard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        tuple.hash(&mut h);
        &self.shards[(h.finish() as usize) & (self.shard_count - 1)]
    }

    fn cache_get(&self, tuple: &Tuple, epoch: u64) -> Option<Arc<GroundExample>> {
        if self.per_shard_capacity == 0 {
            return None;
        }
        let lookup = self
            .shard_for(tuple)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(tuple, epoch);
        match lookup {
            Lookup::Hit(g) => Some(g),
            Lookup::Stale => {
                self.counters
                    .epoch_evictions
                    .fetch_add(1, Ordering::Relaxed);
                self.counters
                    .stale_reads_prevented
                    .fetch_add(1, Ordering::Relaxed);
                None
            }
            Lookup::Behind => {
                self.counters
                    .stale_reads_prevented
                    .fetch_add(1, Ordering::Relaxed);
                None
            }
            Lookup::Miss => None,
        }
    }

    fn cache_insert(&self, tuple: Tuple, ground: Arc<GroundExample>, epoch: u64) {
        let evictions = self
            .shard_for(&tuple)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(tuple, ground, epoch, self.per_shard_capacity);
        if evictions > 0 {
            self.counters
                .cache_evictions
                .fetch_add(evictions, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for PredictorService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let model = self.model.load();
        f.debug_struct("PredictorService")
            .field("epoch", &model.epoch)
            .field("predictor", &model.predictor)
            .field("cache_capacity", &self.config.cache_capacity)
            .field("cache_shards", &self.shard_count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ground_stub(tag: i64) -> Arc<GroundExample> {
        use dlearn_logic::{Clause, Literal, Term};
        let clause = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        Arc::new(GroundExample::from_clause(
            dlearn_relstore::tuple(vec![dlearn_relstore::Value::int(tag)]),
            &clause,
            &crate::LearnerConfig::fast(),
        ))
    }

    fn key(tag: i64) -> Tuple {
        dlearn_relstore::tuple(vec![dlearn_relstore::Value::int(tag)])
    }

    fn hit(shard: &mut Shard, key: &Tuple, epoch: u64) -> bool {
        matches!(shard.get(key, epoch), Lookup::Hit(_))
    }

    #[test]
    fn clock_shard_evicts_unreferenced_entries_first() {
        let mut shard = Shard::default();
        assert_eq!(shard.insert(key(1), ground_stub(1), 1, 2), 0);
        assert_eq!(shard.insert(key(2), ground_stub(2), 1, 2), 0);
        // Touch key 1 so its reference bit protects it for one sweep.
        assert!(hit(&mut shard, &key(1), 1));
        assert_eq!(shard.insert(key(3), ground_stub(3), 1, 2), 1);
        assert!(hit(&mut shard, &key(1), 1), "referenced entry survived");
        assert!(!hit(&mut shard, &key(2), 1), "unreferenced entry evicted");
        assert!(hit(&mut shard, &key(3), 1));
    }

    #[test]
    fn zero_capacity_disables_the_shard() {
        let mut shard = Shard::default();
        assert_eq!(shard.insert(key(1), ground_stub(1), 1, 0), 0);
        assert!(!hit(&mut shard, &key(1), 1));
    }

    #[test]
    fn stale_epoch_entries_are_dropped_on_lookup_and_never_served() {
        let mut shard = Shard::default();
        assert_eq!(shard.insert(key(1), ground_stub(1), 1, 4), 0);
        // A reader on epoch 2 must not see the epoch-1 grounding...
        assert!(matches!(shard.get(&key(1), 2), Lookup::Stale));
        // ...and the stale entry is gone afterwards.
        assert!(matches!(shard.get(&key(1), 2), Lookup::Miss));
        assert!(shard.index.is_empty() && shard.entries.is_empty());
    }

    #[test]
    fn lagging_readers_neither_see_nor_clobber_newer_epochs() {
        let mut shard = Shard::default();
        assert_eq!(shard.insert(key(1), ground_stub(1), 3, 4), 0);
        // An in-flight batch still on epoch 2 gets a miss, not the newer
        // grounding — and the newer entry survives.
        assert!(matches!(shard.get(&key(1), 2), Lookup::Behind));
        assert!(matches!(shard.get(&key(1), 3), Lookup::Hit(_)));
        // Its lagging insert is refused.
        assert_eq!(shard.insert(key(1), ground_stub(9), 2, 4), 0);
        assert!(matches!(shard.get(&key(1), 3), Lookup::Hit(_)));
    }

    #[test]
    fn retag_or_evict_migrates_survivors_and_drops_the_rest() {
        let mut shard = Shard::default();
        shard.insert(key(1), ground_stub(1), 2, 8); // survivor
        shard.insert(key(2), ground_stub(2), 2, 8); // delta-affected
        shard.insert(key(3), ground_stub(3), 1, 8); // stale leftover
        let affected = key(2);
        let (delta, stale) = shard.retag_or_evict(2, 3, |g| g.example == affected);
        assert_eq!((delta, stale), (1, 1));
        assert!(hit(&mut shard, &key(1), 3), "survivor re-tagged to epoch 3");
        assert!(matches!(shard.get(&key(2), 3), Lookup::Miss));
        assert!(matches!(shard.get(&key(3), 3), Lookup::Miss));
    }

    #[test]
    fn quarantine_is_bounded_and_forgets_oldest() {
        let mut q = Quarantine::default();
        for i in 0..(QUARANTINE_CAP as i64 + 10) {
            q.insert(key(i));
        }
        assert!(!q.contains(&key(0)), "oldest entries are forgotten");
        assert!(q.contains(&key(QUARANTINE_CAP as i64 + 9)));
        assert_eq!(q.set.len(), QUARANTINE_CAP);
    }
}
