//! Order-preserving chunked parallel map: the one fan-out of grounding,
//! coverage masks, the learners' candidate scoring and batch serving.
//!
//! Determinism lives here: items are split into contiguous chunks, each
//! chunk is mapped on one `std::thread::scope` worker, and the per-chunk
//! results are concatenated in chunk order — so the output is always
//! element-for-element identical to the serial map, at any thread count.
//!
//! Fan-outs do not nest: a map called from inside a worker of another map
//! runs serially on that worker. A learner scoring candidates in parallel
//! therefore computes each candidate's coverage masks on one thread, while
//! a mask computed outside any fan-out still spreads across the threads.

use std::cell::Cell;

thread_local! {
    /// Set on every [`chunked_map`] worker thread.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Map `f` over `items`, fanning out across at most `threads` scoped worker
/// threads in contiguous chunks. `f` receives each item's global index.
/// Runs serially when `threads <= 1`, when there are fewer than `min_items`
/// items (not worth the spawn overhead), or when called from inside another
/// map's worker. The result order always matches `items` order.
pub(crate) fn chunked_map<T, R, F>(items: &[T], threads: usize, min_items: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.min(items.len().max(1));
    if threads <= 1 || items.len() < min_items || IN_WORKER.with(Cell::get) {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<Vec<R>> = Vec::new();
    // Workers run under the caller's fault plan, so an injected fault
    // reaches every item of the computation that installed it.
    #[cfg(feature = "fault-injection")]
    let plan = crate::fault::current();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (ci, chunk_items) in items.chunks(chunk).enumerate() {
            let f = &f;
            #[cfg(feature = "fault-injection")]
            let plan = &plan;
            handles.push(scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                #[cfg(feature = "fault-injection")]
                let _plan = plan.enter();
                chunk_items
                    .iter()
                    .enumerate()
                    .map(|(i, t)| f(ci * chunk + i, t))
                    .collect::<Vec<_>>()
            }));
        }
        for h in handles {
            // Re-raise the original payload on the calling thread so callers
            // that wrap the whole map in `catch_unwind` (Engine::prepare) see
            // the worker's message, not a generic join error.
            out.push(
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
    });
    out.into_iter().flatten().collect()
}

/// [`chunked_map`] with per-item panic isolation: each item is mapped inside
/// `catch_unwind`, so one poisoned item yields `Err(message)` in its slot
/// while every other item completes normally. Output order still matches
/// `items` order at any thread count.
pub(crate) fn chunked_map_catching<T, R, F>(
    items: &[T],
    threads: usize,
    min_items: usize,
    f: F,
) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    chunked_map(items, threads, min_items, |i, t| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, t)))
            .map_err(|payload| panic_message(&*payload))
    })
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_order_matches_input_order_at_any_thread_count() {
        let items: Vec<u32> = (0..37).collect();
        let serial = chunked_map(&items, 1, 0, |i, &x| (i, x * 2));
        for threads in [2, 3, 8, 64] {
            let parallel = chunked_map(&items, threads, 0, |i, &x| (i, x * 2));
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn small_inputs_run_serially() {
        let items = [1, 2, 3];
        let mapped = chunked_map(&items, 8, 8, |i, &x| i + x);
        assert_eq!(mapped, vec![1, 3, 5]);
    }

    #[test]
    fn catching_map_isolates_a_single_panicking_item() {
        let items: Vec<u32> = (0..20).collect();
        for threads in [1, 2, 8] {
            let mapped = chunked_map_catching(&items, threads, 0, |_, &x| {
                if x == 7 {
                    panic!("poisoned item {x}");
                }
                x * 2
            });
            for (i, r) in mapped.iter().enumerate() {
                if i == 7 {
                    let msg = r.as_ref().unwrap_err();
                    assert!(msg.contains("poisoned item 7"), "threads={threads}: {msg}");
                } else {
                    assert_eq!(*r, Ok(i as u32 * 2), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn a_map_inside_a_worker_runs_on_that_worker() {
        let outer: Vec<u32> = (0..4).collect();
        let inner: Vec<u32> = (0..16).collect();
        let ids = chunked_map(&inner, 4, 0, |_, _| std::thread::current().id());
        assert!(
            ids.iter().any(|id| *id != ids[0]),
            "a top-level map must fan out"
        );
        let nested = chunked_map(&outer, 4, 0, |_, _| {
            let caller = std::thread::current().id();
            chunked_map(&inner, 4, 0, |_, _| std::thread::current().id())
                .into_iter()
                .all(|id| id == caller)
        });
        assert_eq!(nested, vec![true; 4]);
    }

    #[test]
    fn global_indices_are_correct_across_chunks() {
        let items: Vec<usize> = (0..100).collect();
        let mapped = chunked_map(&items, 7, 2, |i, &x| {
            assert_eq!(i, x);
            i
        });
        assert_eq!(mapped, items);
    }
}
