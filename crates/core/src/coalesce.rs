//! A queued, coalescing front-end for [`PredictorService`].
//!
//! Many independent callers each holding one tuple is the worst traffic
//! shape for a batch-oriented service: every call pays the full batch setup
//! (snapshot load, builder construction, worker fan-out) for a single
//! example. The [`Coalescer`] turns that shape back into batches: callers
//! enqueue requests on a bounded MPSC queue and block on a private reply
//! channel; a dedicated batcher thread sleeps until the queue is non-empty,
//! takes everything queued (up to [`CoalesceConfig::max_coalesce`]), groups
//! it by [`Budget`], issues one [`PredictorService::predict_batch_with`]
//! call per group, and fans the index-aligned results back to each caller.
//!
//! **Drain-on-idle batching:** the batcher never waits for stragglers.
//! Requests that arrive while a batch is being served queue up and form the
//! next batch, so batch size follows load on its own: a lone caller is
//! served at once in batches of one and pays only the service time, while
//! contending callers coalesce into larger batches because the service call
//! in flight is exactly the window in which they accumulate.
//!
//! **Determinism contract:** serving is a pure function of
//! `(tuple, model snapshot, budget)` — grounding derives its RNG from the
//! session seed alone, and the service dedups repeated tuples within a
//! batch. Coalescing therefore never changes a verdict: every caller
//! receives a result bit-identical to what a solo
//! [`PredictorService::predict_batch_with`] call with its own tuple and
//! budget would return against the same epoch. `tests/swap_stress.rs` pins
//! this coalesced-vs-sequential parity at 1/2/8 concurrent callers, with
//! and without hot swaps in flight.
//!
//! Requests in one coalesced batch may carry different budgets; budget
//! groups are served as separate batches (still under one drained queue
//! slice), so a zero deadline or a zeroed step cap degrades only the
//! requests that asked for it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use dlearn_relstore::Tuple;

use crate::error::DlearnError;
use crate::service::{Budget, PredictorService, ServeResult};

/// Configuration of a [`Coalescer`].
///
/// There is no linger or timer: the batcher drains whatever is queued the
/// moment it is idle, so how many requests share a batch is decided by the
/// arrival rate relative to the service time, bounded by `max_coalesce`.
#[derive(Debug, Clone)]
pub struct CoalesceConfig {
    /// Maximum requests coalesced into one drained batch; anything queued
    /// beyond it waits for the next drain.
    pub max_coalesce: usize,
    /// Bound on queued (not yet drained) requests; submitters block when
    /// the queue is full.
    pub queue_capacity: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            max_coalesce: 32,
            queue_capacity: 1024,
        }
    }
}

/// A point-in-time snapshot of a coalescer's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoalesceMetrics {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Drained batches handed to the service (before budget grouping).
    pub batches: u64,
    /// Total requests across all drained batches.
    pub coalesced_tuples: u64,
    /// Size of the largest single drained batch.
    pub largest_batch: u64,
    /// Drains that took a full batch: `max_coalesce` requests were queued,
    /// and any beyond them were left for the next drain.
    pub full_drains: u64,
    /// Drains that emptied the queue before reaching `max_coalesce`. With
    /// drain-on-idle batching this is every drain under light load. The
    /// name predates the removal of the linger timer; it is kept because
    /// the end-to-end benchmark (`perfbench`) reports it as
    /// `coalesce.timer_drain_frac`.
    pub timer_drains: u64,
    /// Sum, over drained requests, of the time from submit to drain: the
    /// queueing a request paid before its batch started being served.
    pub queue_wait_nanos: u64,
    /// The largest queue length seen at a drain (before taking the batch).
    pub max_queue_depth: u64,
}

/// One queued request: the tuple, the caller's budget (`None` = the
/// service's default), the channel its result goes back on, and when it
/// was submitted.
struct Request {
    tuple: Tuple,
    budget: Option<Budget>,
    reply: mpsc::Sender<ServeResult>,
    submitted: Instant,
}

struct Queue {
    items: VecDeque<Request>,
    closed: bool,
}

struct Inner {
    service: Arc<PredictorService>,
    config: CoalesceConfig,
    queue: Mutex<Queue>,
    not_empty: Condvar,
    not_full: Condvar,
    submitted: AtomicU64,
    batches: AtomicU64,
    coalesced_tuples: AtomicU64,
    largest_batch: AtomicU64,
    full_drains: AtomicU64,
    timer_drains: AtomicU64,
    queue_wait_nanos: AtomicU64,
    max_queue_depth: AtomicU64,
}

impl Inner {
    /// Enqueue pre-built requests, blocking while the queue is over
    /// capacity. All of `requests` goes in under one lock acquisition, so a
    /// multi-request submission is drained as contiguously as `max_coalesce`
    /// allows.
    fn enqueue(&self, requests: Vec<Request>) -> Result<(), DlearnError> {
        let n = requests.len() as u64;
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        while !q.closed && q.items.len() >= self.config.queue_capacity {
            q = self.not_full.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        if q.closed {
            return Err(DlearnError::CoalescerClosed);
        }
        q.items.extend(requests);
        drop(q);
        self.submitted.fetch_add(n, Ordering::Relaxed);
        self.not_empty.notify_one();
        Ok(())
    }

    /// The batcher loop: wait for work, drain a batch, serve it, fan out.
    fn run(&self) {
        loop {
            let batch = match self.next_batch() {
                Some(batch) => batch,
                None => return,
            };
            self.serve(batch);
        }
    }

    /// Block until at least one request is queued (or the queue closes and
    /// drains empty), then take up to `max_coalesce` requests at once.
    /// Whatever arrives after this point forms the next batch.
    fn next_batch(&self) -> Option<Vec<Request>> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        while q.items.is_empty() {
            if q.closed {
                return None;
            }
            q = self.not_empty.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        let depth = q.items.len();
        let take = depth.min(self.config.max_coalesce);
        let batch: Vec<Request> = q.items.drain(..take).collect();
        drop(q);
        self.not_full.notify_all();
        let drained = Instant::now();
        let waited: u128 = batch
            .iter()
            .map(|r| drained.duration_since(r.submitted).as_nanos())
            .sum();
        if take == self.config.max_coalesce {
            self.full_drains.fetch_add(1, Ordering::Relaxed);
        } else {
            self.timer_drains.fetch_add(1, Ordering::Relaxed);
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.coalesced_tuples
            .fetch_add(take as u64, Ordering::Relaxed);
        self.largest_batch.fetch_max(take as u64, Ordering::Relaxed);
        self.queue_wait_nanos
            .fetch_add(waited as u64, Ordering::Relaxed);
        self.max_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
        Some(batch)
    }

    /// Serve one drained batch: group requests by budget (first-occurrence
    /// order), moving each tuple into its group and keeping the reply
    /// senders index-aligned with it, then one `predict_batch_with` call per
    /// group with results fanned back per request. A caller that gave up
    /// waiting just drops its receiver; the failed send is ignored.
    fn serve(&self, batch: Vec<Request>) {
        type Group = (Option<Budget>, Vec<Tuple>, Vec<mpsc::Sender<ServeResult>>);
        let mut groups: Vec<Group> = Vec::new();
        for r in batch {
            match groups.iter_mut().find(|(b, ..)| *b == r.budget) {
                Some((_, tuples, replies)) => {
                    tuples.push(r.tuple);
                    replies.push(r.reply);
                }
                None => groups.push((r.budget, vec![r.tuple], vec![r.reply])),
            }
        }
        for (budget, tuples, replies) in groups {
            let results = match budget {
                Some(b) => self.service.predict_batch_with(&tuples, &b),
                None => self.service.predict_batch(&tuples),
            };
            for (reply, result) in replies.iter().zip(results) {
                let _ = reply.send(result);
            }
        }
    }

    fn close(&self) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.closed = true;
        drop(q);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// A coalescing batch front-end over a shared [`PredictorService`]: see the
/// [module docs](crate::coalesce) for the batching and determinism contract.
///
/// `Coalescer` is `Send + Sync`; callers on any thread submit through a
/// shared reference and block until their result arrives. Dropping the
/// coalescer closes the queue, serves every already-queued request, and
/// joins the batcher thread.
pub struct Coalescer {
    inner: Arc<Inner>,
    batcher: Option<JoinHandle<()>>,
}

impl Coalescer {
    /// Start a coalescer (and its batcher thread) over a shared service.
    pub fn new(service: Arc<PredictorService>, config: CoalesceConfig) -> Coalescer {
        let inner = Arc::new(Inner {
            service,
            config: CoalesceConfig {
                max_coalesce: config.max_coalesce.max(1),
                queue_capacity: config.queue_capacity.max(1),
            },
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            submitted: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            coalesced_tuples: AtomicU64::new(0),
            largest_batch: AtomicU64::new(0),
            full_drains: AtomicU64::new(0),
            timer_drains: AtomicU64::new(0),
            queue_wait_nanos: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
        });
        let worker = inner.clone();
        let batcher = std::thread::Builder::new()
            .name("dlearn-coalescer".into())
            .spawn(move || worker.run())
            .expect("spawn coalescer batcher");
        Coalescer {
            inner,
            batcher: Some(batcher),
        }
    }

    /// Submit one tuple under the service's default budget and block until
    /// its verdict arrives.
    pub fn submit(&self, tuple: Tuple) -> ServeResult {
        self.submit_inner(tuple, None)
    }

    /// Submit one tuple under an explicit budget and block until its
    /// verdict arrives.
    pub fn submit_with(&self, tuple: Tuple, budget: Budget) -> ServeResult {
        self.submit_inner(tuple, Some(budget))
    }

    /// Submit several (tuple, budget) requests in one queue transaction and
    /// block until all verdicts arrive, index-aligned with `items`. The
    /// requests enter the queue contiguously, so up to
    /// [`CoalesceConfig::max_coalesce`] of them coalesce into one batch
    /// even with no concurrent callers.
    pub fn submit_many_with(&self, items: &[(Tuple, Budget)]) -> Vec<ServeResult> {
        let mut receivers = Vec::with_capacity(items.len());
        let mut requests = Vec::with_capacity(items.len());
        let submitted = Instant::now();
        for (tuple, budget) in items {
            let (tx, rx) = mpsc::channel();
            receivers.push(rx);
            requests.push(Request {
                tuple: tuple.clone(),
                budget: Some(*budget),
                reply: tx,
                submitted,
            });
        }
        if let Err(e) = self.inner.enqueue(requests) {
            return items.iter().map(|_| Err(e.clone())).collect();
        }
        receivers
            .into_iter()
            .map(|rx| rx.recv().unwrap_or(Err(DlearnError::CoalescerClosed)))
            .collect()
    }

    fn submit_inner(&self, tuple: Tuple, budget: Option<Budget>) -> ServeResult {
        let (tx, rx) = mpsc::channel();
        self.inner.enqueue(vec![Request {
            tuple,
            budget,
            reply: tx,
            submitted: Instant::now(),
        }])?;
        rx.recv().unwrap_or(Err(DlearnError::CoalescerClosed))
    }

    /// A snapshot of the coalescer's counters.
    pub fn metrics(&self) -> CoalesceMetrics {
        CoalesceMetrics {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            batches: self.inner.batches.load(Ordering::Relaxed),
            coalesced_tuples: self.inner.coalesced_tuples.load(Ordering::Relaxed),
            largest_batch: self.inner.largest_batch.load(Ordering::Relaxed),
            full_drains: self.inner.full_drains.load(Ordering::Relaxed),
            timer_drains: self.inner.timer_drains.load(Ordering::Relaxed),
            queue_wait_nanos: self.inner.queue_wait_nanos.load(Ordering::Relaxed),
            max_queue_depth: self.inner.max_queue_depth.load(Ordering::Relaxed),
        }
    }

    /// The service this coalescer batches for.
    pub fn service(&self) -> &Arc<PredictorService> {
        &self.inner.service
    }
}

impl std::fmt::Debug for Coalescer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coalescer")
            .field("config", &self.inner.config)
            .field("metrics", &self.metrics())
            .finish()
    }
}

impl Drop for Coalescer {
    fn drop(&mut self) {
        self.inner.close();
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
    }
}
