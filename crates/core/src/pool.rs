//! The persistent work-stealing worker pool behind the parallel engine.
//!
//! PR 2's parallel path spawned a fresh set of scoped threads for *every*
//! BFS layer. On deep searches (hundreds of layers) the spawn/join cost
//! dominates, and on skewed layers the static even split leaves workers
//! idle while one chews through a hub state's expansions. This module
//! keeps one set of workers alive for the whole search and hands them
//! work in *epochs* (one epoch per BFS layer — the barrier the
//! level-synchronous merge genuinely requires):
//!
//! * [`EpochGate`] is the coordination point: the coordinator publishes an
//!   [`Arc`]'d epoch, workers pick it up off a condvar, drain it, and
//!   signal completion; the coordinator blocks until the epoch is fully
//!   processed and then recovers exclusive ownership of the epoch value
//!   (its `Arc` strong count is back to one), so moved-in state — the
//!   engine threads its whole [`crate::intern::Interner`] through each
//!   epoch — comes back out without cloning or locking.
//! * [`TaskQueues`] splits an epoch's task list into per-worker chunked
//!   ranges. A worker claims chunks from its own range by a `fetch_add`
//!   cursor and, when its range runs dry, *steals* chunks from the other
//!   ranges the same way. Claiming is racy by design; the engine stays
//!   bit-deterministic because workers only ever *compute* pure successor
//!   sets into distinct result slots — the sequential merge that mutates
//!   the search state replays tasks in fixed arena order afterwards.
//!
//! The pool deliberately has no unsafe code and no third-party deps: a
//! `Mutex`/`Condvar` pair and a handful of atomics are enough, because
//! epochs are coarse (one per layer) and all fine-grained parallelism
//! happens through the lock-free claim cursors.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One worker's contiguous range of the epoch's task list, claimed in
/// `chunk`-sized grabs through an atomic cursor (owner and thieves alike).
pub(crate) struct TaskQueue {
    /// One past the last task index of the range.
    end: usize,
    /// Claim cursor, starting at the range's first task index;
    /// `fetch_add(chunk)` yields `[cursor, cursor + chunk)` clamped to
    /// `end`.
    next: AtomicUsize,
}

/// The epoch's task ranges: one [`TaskQueue`] per participant plus the
/// shared chunk size.
pub(crate) struct TaskQueues {
    queues: Vec<TaskQueue>,
    chunk: usize,
    /// Tasks claimed from a queue other than the claimant's own.
    stolen: AtomicU64,
}

impl TaskQueues {
    /// The automatic steal granularity for a layer of `len` tasks drained
    /// by `parts` participants, scaled with layer width: wide layers are
    /// cut finer (about 8 chunks per participant — the claim traffic
    /// amortizes and skew hurts more), narrow layers coarser (about 4 —
    /// fewer atomic claims on work that barely covers the participants).
    pub(crate) fn auto_chunk(len: usize, parts: usize) -> usize {
        let chunks_per_part = if len >= 1024 { 8 } else { 4 };
        len.div_ceil(parts.max(1) * chunks_per_part).max(1)
    }

    /// Splits `len` tasks into `parts` contiguous ranges claimed
    /// `chunk`-at-a-time.
    pub(crate) fn split(len: usize, parts: usize, chunk: usize) -> TaskQueues {
        let parts = parts.max(1);
        let per = len.div_ceil(parts);
        let queues = (0..parts)
            .map(|p| {
                let start = (p * per).min(len);
                let end = ((p + 1) * per).min(len);
                TaskQueue {
                    end,
                    next: AtomicUsize::new(start),
                }
            })
            .collect();
        TaskQueues {
            queues,
            chunk: chunk.max(1),
            stolen: AtomicU64::new(0),
        }
    }

    /// Claims the next chunk of task indices for participant `me`: first
    /// from its own range, then — steal-on-empty — from the other ranges in
    /// round-robin order. Returns `None` when every range is drained.
    pub(crate) fn claim(&self, me: usize) -> Option<std::ops::Range<usize>> {
        let n = self.queues.len();
        for v in 0..n {
            let qi = (me + v) % n;
            let q = &self.queues[qi];
            // Cheap pre-check keeps exhausted cursors from growing without
            // bound under repeated steal probes.
            if q.next.load(Ordering::Relaxed) >= q.end {
                continue;
            }
            let start = q.next.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= q.end {
                continue;
            }
            let end = (start + self.chunk).min(q.end);
            if v != 0 {
                self.stolen
                    .fetch_add((end - start) as u64, Ordering::Relaxed);
            }
            return Some(start..end);
        }
        None
    }

    /// Total tasks claimed by theft in this epoch.
    pub(crate) fn stolen(&self) -> u64 {
        self.stolen.load(Ordering::Relaxed)
    }

    /// The sanity invariant behind [`TaskQueues::claim`]: every queue's
    /// range is fully claimed once draining returns `None`.
    #[cfg(test)]
    fn fully_claimed(&self) -> bool {
        self.queues
            .iter()
            .all(|q| q.next.load(Ordering::Relaxed) >= q.end)
    }
}

/// Gate state: the currently published epoch and the completion count.
struct GateState<E> {
    /// The epoch workers should be draining, if any.
    current: Option<Arc<E>>,
    /// Monotone epoch sequence number; lets a worker tell "new epoch" from
    /// "the one I already drained" across condvar wakeups.
    seq: u64,
    /// Spawned workers still draining the current epoch.
    remaining: usize,
    /// Set once at the end of the search; workers exit their loop.
    shutdown: bool,
}

/// The coordinator/worker rendezvous: publish an epoch, drain it, hand it
/// back. See the module docs for the protocol.
pub(crate) struct EpochGate<E> {
    state: Mutex<GateState<E>>,
    /// Signalled when a new epoch is published (or on shutdown).
    work_cv: Condvar,
    /// Signalled when the last worker finishes the current epoch.
    done_cv: Condvar,
    /// Total worker nanoseconds spent blocked waiting for work.
    idle_ns: AtomicU64,
}

impl<E> EpochGate<E> {
    pub(crate) fn new() -> EpochGate<E> {
        EpochGate {
            state: Mutex::new(GateState {
                current: None,
                seq: 0,
                remaining: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            idle_ns: AtomicU64::new(0),
        }
    }

    /// Publishes `epoch` to `workers` spawned workers and wakes them. The
    /// coordinator keeps (and drains) its own `Arc` clone in parallel.
    pub(crate) fn publish(&self, epoch: Arc<E>, workers: usize) {
        let mut st = self.state.lock().expect("pool mutex");
        debug_assert!(st.current.is_none() && st.remaining == 0);
        st.current = Some(epoch);
        st.seq += 1;
        st.remaining = workers;
        drop(st);
        self.work_cv.notify_all();
    }

    /// Worker side: blocks until an epoch newer than `last_seq` is
    /// published, returning it with its sequence number; `None` on
    /// shutdown. Wait time accrues to the pool's idle counter.
    pub(crate) fn next_epoch(&self, last_seq: u64) -> Option<(Arc<E>, u64)> {
        let t0 = Instant::now();
        let mut st = self.state.lock().expect("pool mutex");
        loop {
            if st.shutdown {
                self.idle_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                return None;
            }
            if st.seq > last_seq {
                if let Some(epoch) = st.current.clone() {
                    let seq = st.seq;
                    self.idle_ns
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    return Some((epoch, seq));
                }
            }
            st = self.work_cv.wait(st).expect("pool mutex");
        }
    }

    /// Worker side: signals that this worker is done with `epoch`. Takes
    /// the worker's `Arc` clone by value and drops it *before* decrementing
    /// the count, so when the coordinator observes zero remaining the only
    /// strong references left are the gate's and the coordinator's own.
    pub(crate) fn finish(&self, epoch: Arc<E>) {
        drop(epoch);
        let mut st = self.state.lock().expect("pool mutex");
        st.remaining -= 1;
        if st.remaining == 0 {
            drop(st);
            self.done_cv.notify_all();
        }
    }

    /// Coordinator side: blocks until every worker finished the current
    /// epoch, and unpublishes it. After this returns, the coordinator's own
    /// `Arc` clone is the last strong reference.
    pub(crate) fn wait_done(&self) {
        let mut st = self.state.lock().expect("pool mutex");
        while st.remaining > 0 {
            st = self.done_cv.wait(st).expect("pool mutex");
        }
        st.current = None;
    }

    /// Ends the pool: wakes every worker into its `None` exit path.
    pub(crate) fn shutdown(&self) {
        let mut st = self.state.lock().expect("pool mutex");
        st.shutdown = true;
        drop(st);
        self.work_cv.notify_all();
    }

    /// Total nanoseconds workers spent blocked on the gate so far.
    pub(crate) fn idle_ns(&self) -> u64 {
        self.idle_ns.load(Ordering::Relaxed)
    }
}

/// Shuts its gate down when dropped, on return and on unwinding alike.
pub(crate) struct ShutdownOnDrop<'g, E>(pub(crate) &'g EpochGate<E>);

impl<E> Drop for ShutdownOnDrop<'_, E> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_all_tasks_without_overlap() {
        for (len, parts, chunk) in [(0, 4, 1), (1, 4, 2), (10, 3, 2), (100, 4, 7), (5, 8, 1)] {
            let queues = TaskQueues::split(len, parts, chunk);
            let mut seen = vec![false; len];
            while let Some(range) = queues.claim(0) {
                for i in range {
                    assert!(!seen[i], "task {i} claimed twice");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "len={len} parts={parts}");
            assert!(queues.fully_claimed());
        }
    }

    #[test]
    fn auto_chunk_scales_with_layer_width() {
        // Narrow layers: ~4 chunks per participant, never zero.
        assert_eq!(TaskQueues::auto_chunk(1, 4), 1);
        assert_eq!(TaskQueues::auto_chunk(100, 4), 7);
        // Wide layers: ~8 chunks per participant.
        assert_eq!(TaskQueues::auto_chunk(4096, 4), 128);
        assert!(TaskQueues::auto_chunk(1024, 1) >= 128);
    }

    #[test]
    fn stealing_claims_other_ranges_and_counts() {
        let queues = TaskQueues::split(8, 2, 1);
        // Participant 1 drains everything: its own range (4..8) first, then
        // steals 0..4.
        let mut count = 0;
        while queues.claim(1).is_some() {
            count += 1;
        }
        assert_eq!(count, 8);
        assert_eq!(queues.stolen(), 4);
    }

    #[test]
    fn gate_round_trip_returns_sole_ownership() {
        let gate: EpochGate<Vec<u32>> = EpochGate::new();
        std::thread::scope(|scope| {
            let gate = &gate;
            for _ in 0..3 {
                scope.spawn(move || {
                    let mut seq = 0;
                    while let Some((epoch, s)) = gate.next_epoch(seq) {
                        seq = s;
                        assert_eq!(epoch.len(), 5);
                        gate.finish(epoch);
                    }
                });
            }
            for _ in 0..4 {
                let epoch = Arc::new(vec![0u32; 5]);
                gate.publish(epoch.clone(), 3);
                gate.wait_done();
                let owned = Arc::try_unwrap(epoch).expect("all worker clones dropped");
                assert_eq!(owned.len(), 5);
            }
            gate.shutdown();
        });
        assert!(gate.idle_ns() > 0, "workers blocked at least once");
    }
}
