//! The workspace's one parallel map: scoped worker threads that pull items
//! off a shared index, each with its own mutable state.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Map `map` over `items` on up to `threads` worker threads, returning the
/// results in input order.
///
/// Each worker calls `init` once and threads the resulting state through
/// every item it takes:
/// [`AmfSolver::solve_batch_with`](crate::AmfSolver::solve_batch_with)
/// gives every worker one [`SolverPool`](crate::SolverPool), and
/// `amf_sim::simulate_many` one policy instance, so per-worker arenas are
/// reused within a thread and never contended across threads. `threads` is clamped to `[1, items.len()]`; with
/// one worker the map runs on the calling thread, with a single `init`
/// state and no threads spawned. A worker's panic propagates to the caller.
pub fn par_map_init<T, W, R>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> W + Sync,
    map: impl Fn(&mut W, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        let mut state = init();
        return items.iter().map(|item| map(&mut state, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (next, init, map) = (&next, &init, &map);
                scope.spawn(move || {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        done.push((i, map(&mut state, &items[i])));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, out) in done {
                        slots[i] = Some(out);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_state_per_worker() {
        // Each worker counts the items it mapped, so every worker that got
        // any item reports a 1 exactly once.
        let items: Vec<usize> = (0..64).collect();
        let inits = AtomicUsize::new(0);
        let out = par_map_init(
            &items,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |seen, _| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(inits.load(Ordering::Relaxed), 4);
        let firsts = out.iter().filter(|&&k| k == 1).count();
        assert!(
            (1..=4).contains(&firsts),
            "{firsts} workers started counting"
        );
        let sequential = par_map_init(
            &items,
            1,
            || 0usize,
            |seen, _| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(sequential, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn results_keep_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let want: Vec<u64> = items.iter().map(|&i| i * i + 1).collect();
        for threads in [0, 1, 2, 3, 8, 64] {
            let got = par_map_init(&items, threads, || (), |_, &i| i * i + 1);
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn empty_input_maps_to_nothing() {
        let inits = AtomicUsize::new(0);
        let out: Vec<u8> = par_map_init(
            &[] as &[u8],
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |_, &b| b,
        );
        assert!(out.is_empty());
        // The clamp leaves one worker, which runs inline and still
        // initialises its state once.
        assert_eq!(inits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn workers_are_clamped_to_the_item_count() {
        // More threads than items: one state per item at most, and a
        // single worker (zero or one thread asked for) stays on the
        // calling thread.
        let items = [10u32, 20, 30];
        let inits = AtomicUsize::new(0);
        let out = par_map_init(
            &items,
            16,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |_, &x| x + 1,
        );
        assert_eq!(out, vec![11, 21, 31]);
        assert!(inits.load(Ordering::Relaxed) <= items.len());
        let caller = std::thread::current().id();
        for threads in [0, 1] {
            let ids = par_map_init(&items, threads, || (), |_, _| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == caller), "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "item 5 is bad")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..16).collect();
        par_map_init(
            &items,
            2,
            || (),
            |_, &i| {
                assert!(i != 5, "item {i} is bad");
                i
            },
        );
    }
}
