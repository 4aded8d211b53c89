//! Parallel execution of per-machine local computation.
//!
//! Local computation is free in the model but real in wall-clock time; the
//! simulator runs each machine's local step concurrently on
//! `std::thread::scope` workers — plain standard-library scoped threads,
//! spawned by the call and joined before it returns, no locking crates and
//! no `unsafe`. [`par_map_machines`] hands out machine indices through one
//! shared atomic counter (work stealing for uneven loads);
//! [`par_for_each_state`] splits the per-machine state
//! slice into disjoint `&mut` chunks (machine workloads are near-uniform
//! there, so static chunking balances well). Both cap the worker count at
//! the available hardware threads: one thread per machine would
//! oversubscribe for k ≫ cores. A scope costs ~100 µs before any work
//! runs, so a caller with little work does not fan out (DESIGN.md §6).

#![warn(clippy::unwrap_used, clippy::expect_used)]
// ^ window-protocol / worker-path panic hygiene (kcheck KC05): a
// panic here kills a worker mid-window instead of failing the
// attempt cleanly. Tests opt back in below.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of worker threads to use for `k` tasks. The hardware count is
/// read once: every `available_parallelism` call re-reads the cgroup quota
/// and the affinity mask, half the cost of the two-thread scope it sizes.
fn workers(k: usize) -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    let hw = *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
    hw.min(k).max(1)
}

/// Applies `f` to every index in `0..k` in parallel, collecting results in
/// index order. `f` typically runs one machine's local computation for a
/// superstep and returns its outbox.
pub fn par_map_machines<T, F>(k: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if k == 0 {
        return Vec::new();
    }
    let nw = workers(k);
    if nw == 1 || k == 1 {
        return (0..k).map(f).collect();
    }
    let mut out: Vec<Option<T>> = (0..k).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nw)
            .map(|_| {
                let (next, f) = (&next, &f);
                scope.spawn(move || {
                    let mut produced: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= k {
                            break;
                        }
                        produced.push((i, f(i)));
                    }
                    produced
                })
            })
            .collect();
        // Join every worker before resurfacing a panic: unwinding with
        // threads still unjoined would make `scope` panic again with a
        // generic message, losing the original payload (and a panic during
        // that unwind would abort the process).
        let mut panicked = None;
        for h in handles {
            match h.join() {
                Ok(produced) => {
                    for (i, v) in produced {
                        out[i] = Some(v);
                    }
                }
                Err(payload) => panicked = panicked.or(Some(payload)),
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    });
    let filled: Vec<T> = out.into_iter().flatten().collect();
    // Every index 0..k was claimed exactly once via the atomic counter, so
    // a short result can only mean a logic bug above — fail loudly rather
    // than hand back a truncated per-machine vector.
    assert_eq!(filled.len(), k, "par_map_machines filled every slot");
    filled
}

/// Like [`par_map_machines`] but mutates per-machine state slices in
/// parallel: `f(i, &mut states[i])`.
pub fn par_for_each_state<S, F>(states: &mut [S], f: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    let k = states.len();
    if k == 0 {
        return;
    }
    let nw = workers(k);
    if nw == 1 || k == 1 {
        for (i, s) in states.iter_mut().enumerate() {
            f(i, s);
        }
        return;
    }
    // Contiguous chunks give each worker a disjoint `&mut` slice — no
    // locking needed; machine workloads are near-uniform, so static
    // chunking balances well enough.
    let chunk = k.div_ceil(nw);
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, block)| {
                let f = &f;
                let base = ci * chunk;
                scope.spawn(move || {
                    for (j, s) in block.iter_mut().enumerate() {
                        f(base + j, s);
                    }
                })
            })
            .collect();
        // Explicit joins, as in `par_map_machines`: letting `scope`
        // auto-join a panicked worker replaces the payload with its
        // generic "a scoped thread panicked" message.
        let mut panicked = None;
        for h in handles {
            if let Err(payload) = h.join() {
                panicked = panicked.or(Some(payload));
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    });
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        let out = par_map_machines(37, |i| i * i);
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_small_k() {
        assert_eq!(par_map_machines(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_machines(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn for_each_state_mutates_all() {
        let mut states: Vec<u64> = vec![0; 23];
        par_for_each_state(&mut states, |i, s| *s = i as u64 + 1);
        assert!(states.iter().enumerate().all(|(i, &s)| s == i as u64 + 1));
    }

    #[test]
    #[should_panic(expected = "machine 13 hit a distinctive wall")]
    fn map_worker_panic_payload_survives() {
        // The original panic message must reach the caller, not a generic
        // "worker panicked" relay (k > workers so the threaded path runs).
        par_map_machines(64, |i| {
            if i == 13 {
                panic!("machine 13 hit a distinctive wall");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "state 7 exploded with context")]
    fn for_each_state_worker_panic_payload_survives() {
        let mut states: Vec<u64> = vec![0; 64];
        par_for_each_state(&mut states, |i, _| {
            if i == 7 {
                panic!("state 7 exploded with context");
            }
        });
    }

    #[test]
    fn parallel_work_actually_runs_concurrently_or_at_least_correctly() {
        // Heavier closure to exercise the threaded path.
        let out = par_map_machines(64, |i| {
            let mut acc = 0u64;
            for x in 0..10_000u64 {
                acc = acc.wrapping_add(x.wrapping_mul(i as u64 + 1));
            }
            acc
        });
        for (i, &v) in out.iter().enumerate() {
            let mut acc = 0u64;
            for x in 0..10_000u64 {
                acc = acc.wrapping_add(x.wrapping_mul(i as u64 + 1));
            }
            assert_eq!(v, acc);
        }
    }
}
