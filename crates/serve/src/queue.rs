//! The admission-controlled, client-fair request queue.
//!
//! Replaces the unbounded mpsc channel of the first serving layer with a
//! structure that makes the two overload policies explicit:
//!
//! * **Admission control** — an optional depth cap on total queued
//!   requests. At the cap the queue *sheds* (the caller answers the shed
//!   client with `QueryError::Overloaded`) instead of growing without
//!   bound. Backpressure beats latent memory growth for a long-lived
//!   server: a client that is told "overloaded" can back off; a client
//!   whose request sits in a kilometre-deep queue just times out later
//!   with the memory already spent. Shedding is **longest-queue-drop**:
//!   when a push finds the queue full, the victim is the tail of the
//!   *fattest* lane — the arrival itself if its own lane is (joint-)
//!   longest, otherwise the flooding client's most recent request is
//!   displaced to admit the newcomer. The cap therefore bounds memory
//!   globally while overload cost still lands on whoever caused it.
//! * **Per-client round-robin fairness** — each client handle gets its own
//!   lane, and every pop drains lanes in rotation. One hot client
//!   submitting thousands of queries delays its *own* tail, not every
//!   other client's: a newcomer's first request is at most one rotation
//!   away from a worker regardless of how deep the hot lane is, and under
//!   a full queue the newcomer is still admitted at the flooder's expense.
//!
//! Workers pop for themselves ([`FairQueue::pop_share`]), and a client
//! waiting on a request no worker has popped yet takes it back out
//! ([`FairQueue::take`]) to run it on its own thread; either way, everything
//! not yet executing sits here, where the cap and longest-queue-drop see it,
//! and leaves it exactly once.
//!
//! The queue is generic over the request type so it can be unit-tested
//! with plain values; the server instantiates it with its `Request`.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, PoisonError};

/// Outcome of [`FairQueue::push`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Push<T> {
    /// Accepted; a worker will pop it.
    Queued,
    /// Rejected by admission control: the queue is at its depth cap and
    /// the pushing client's own lane is the (joint-)longest.
    Shed,
    /// Accepted at the depth cap by displacing the tail of the longest
    /// lane — the victim is returned so the caller can answer it with an
    /// overload error rather than silently dropping it.
    Displaced(T),
    /// Rejected because the queue was closed (server shutting down).
    Closed,
}

struct QueueState<T> {
    /// One FIFO lane per client, keyed by client id.
    lanes: HashMap<u64, VecDeque<T>>,
    /// Clients with a non-empty lane, in round-robin rotation order.
    rotation: VecDeque<u64>,
    /// Total queued requests across all lanes.
    queued: usize,
    /// No further pushes are admitted; pops drain what remains.
    closing: bool,
}

/// A multi-lane FIFO with round-robin draining, an optional depth cap, and
/// blocking share pop. All methods take `&self`; share behind an `Arc`.
pub(crate) struct FairQueue<T> {
    state: Mutex<QueueState<T>>,
    nonempty: Condvar,
    depth_cap: Option<usize>,
}

impl<T> FairQueue<T> {
    pub(crate) fn new(depth_cap: Option<usize>) -> Self {
        Self {
            state: Mutex::new(QueueState {
                lanes: HashMap::new(),
                rotation: VecDeque::new(),
                queued: 0,
                closing: false,
            }),
            nonempty: Condvar::new(),
            depth_cap,
        }
    }

    /// Enqueue onto `client`'s lane, subject to admission control
    /// (longest-queue-drop at the depth cap; see the module docs).
    pub(crate) fn push(&self, client: u64, item: T) -> Push<T> {
        let displaced = {
            let mut guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            let state = &mut *guard;
            if state.closing {
                return Push::Closed;
            }
            let mut displaced = None;
            if let Some(cap) = self.depth_cap {
                if state.queued >= cap {
                    // Longest-queue drop: the victim is the tail of the
                    // fattest lane. If the pusher's own lane is already
                    // (joint-)longest, that victim is the arrival itself —
                    // shed it. Otherwise displace the flooder's most
                    // recent request so the quieter client is admitted:
                    // overload cost lands on whoever caused it.
                    let longest = state
                        .lanes
                        .iter()
                        .max_by_key(|(c, lane)| (lane.len(), *c))
                        .map(|(&c, lane)| (c, lane.len()))
                        .expect("queued >= cap >= 1 implies a non-empty lane");
                    let own_len = state.lanes.get(&client).map_or(0, VecDeque::len);
                    if own_len >= longest.1 {
                        return Push::Shed;
                    }
                    let victim_lane = state
                        .lanes
                        .get_mut(&longest.0)
                        .expect("longest lane exists");
                    displaced = victim_lane.pop_back();
                    state.queued -= 1;
                    if victim_lane.is_empty() {
                        state.lanes.remove(&longest.0);
                        state.rotation.retain(|&c| c != longest.0);
                    }
                }
            }
            let lane = state.lanes.entry(client).or_default();
            if lane.is_empty() {
                state.rotation.push_back(client);
            }
            lane.push_back(item);
            state.queued += 1;
            displaced
        };
        self.nonempty.notify_one();
        match displaced {
            Some(victim) => Push::Displaced(victim),
            None => Push::Queued,
        }
    }

    /// Dequeue the caller's share of the backlog — `ceil(queued / workers)`,
    /// at least one and at most `max` — visiting non-empty client lanes in
    /// round-robin rotation (each visit takes one request). A share, not
    /// everything up to `max`, so a burst spreads over the pool instead of
    /// landing on the worker that woke first while the others park (with
    /// one worker the two are the same). Blocks while the queue is empty;
    /// an empty batch means closed *and* drained — the worker's exit signal.
    pub(crate) fn pop_share(&self, max: usize, workers: usize) -> Vec<T> {
        let guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut guard = self
            .nonempty
            .wait_while(guard, |s| s.queued == 0 && !s.closing)
            .unwrap_or_else(PoisonError::into_inner);
        if guard.queued == 0 {
            return Vec::new(); // closed and drained
        }
        let state = &mut *guard;
        let share = state.queued.div_ceil(workers.max(1)).min(max).max(1);
        let mut batch = Vec::with_capacity(share);
        for _ in 0..share {
            let client = state
                .rotation
                .pop_front()
                .expect("queued > 0 implies a non-empty lane in rotation");
            let lane = state
                .lanes
                .get_mut(&client)
                .expect("rotation entries have lanes");
            batch.push(lane.pop_front().expect("lanes in rotation are non-empty"));
            state.queued -= 1;
            if lane.is_empty() {
                // drop the empty lane so one-shot clients don't accumulate
                state.lanes.remove(&client);
            } else {
                state.rotation.push_back(client);
            }
        }
        batch
    }

    /// Remove the first request in `client`'s lane that `pick` selects —
    /// how a waiting client takes back its own request before any worker
    /// pops it. `None` when the lane holds no such request (a worker popped
    /// it, or it was displaced). A lane left empty leaves the rotation, as
    /// it does after [`FairQueue::pop_share`]. Taking is allowed after
    /// [`FairQueue::close`]: it is one more way of draining.
    pub(crate) fn take(&self, client: u64, pick: impl FnMut(&T) -> bool) -> Option<T> {
        let mut guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let state = &mut *guard;
        let lane = state.lanes.get_mut(&client)?;
        let at = lane.iter().position(pick)?;
        let item = lane.remove(at);
        state.queued -= 1;
        if lane.is_empty() {
            state.lanes.remove(&client);
            state.rotation.retain(|&c| c != client);
        }
        item
    }

    /// Close the queue: subsequent pushes return [`Push::Closed`], and once
    /// the remaining requests are drained, every `pop_share` returns empty.
    pub(crate) fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closing = true;
        self.nonempty.notify_all();
    }

    /// Requests currently queued (for observability; racy by nature).
    pub(crate) fn depth(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queued
    }

    /// Per-lane queue depths `(client id, queued)`, sorted by client id
    /// (for observability; racy by nature). Empty lanes are dropped from
    /// the map on drain, so every listed lane has at least one request —
    /// this is the signal adaptive admission needs to see *whose* backlog
    /// the queue is carrying.
    pub(crate) fn lane_depths(&self) -> Vec<(u64, usize)> {
        let guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut depths: Vec<(u64, usize)> = guard
            .lanes
            .iter()
            .map(|(&client, lane)| (client, lane.len()))
            .collect();
        depths.sort_unstable_by_key(|&(client, _)| client);
        depths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_interleaves_clients() {
        let q = FairQueue::new(None);
        for i in 0..5 {
            assert_eq!(q.push(1, format!("a{i}")), Push::Queued);
        }
        for i in 0..2 {
            assert_eq!(q.push(2, format!("b{i}")), Push::Queued);
        }
        // the hot client's 5 queued requests cannot starve client 2
        assert_eq!(
            q.pop_share(10, 1),
            vec!["a0", "b0", "a1", "b1", "a2", "a3", "a4"]
        );
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn share_pop_splits_the_backlog_across_the_pool() {
        let q = FairQueue::new(None);
        for i in 0..4 {
            q.push(1, format!("a{i}"));
            q.push(2, format!("b{i}"));
        }
        q.push(1, "a4".to_string());
        // 9 queued over 2 workers: ceil(9 / 2) = 5, lanes still interleaved
        assert_eq!(q.pop_share(32, 2), vec!["a0", "b0", "a1", "b1", "a2"]);
        // 4 left: the share is 2, and the rotation resumes where it stopped
        assert_eq!(q.pop_share(32, 2), vec!["b2", "a3"]);
        // `max` caps the share…
        assert_eq!(q.pop_share(1, 1), vec!["b3"]);
        // …and a non-empty queue never yields an empty pop, however many
        // workers the backlog is split between
        assert_eq!(q.pop_share(32, 64), vec!["a4"]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn close_releases_every_blocked_popper_once_drained() {
        use std::sync::{Arc, Barrier};

        let q = Arc::new(FairQueue::new(None));
        for i in 0..6u32 {
            q.push(u64::from(i % 2), i);
        }
        let parked = Arc::new(Barrier::new(5));
        let poppers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                let parked = Arc::clone(&parked);
                std::thread::spawn(move || {
                    parked.wait();
                    let mut got = Vec::new();
                    loop {
                        let batch = q.pop_share(2, 4);
                        if batch.is_empty() {
                            return got;
                        }
                        got.extend(batch);
                    }
                })
            })
            .collect();
        parked.wait();
        q.close();
        let mut drained: Vec<u32> = poppers
            .into_iter()
            .flat_map(|p| p.join().expect("popper exits after close"))
            .collect();
        drained.sort_unstable();
        assert_eq!(drained, (0..6).collect::<Vec<_>>(), "drained exactly once");
    }

    #[test]
    fn late_client_is_one_rotation_from_dispatch() {
        let q = FairQueue::new(None);
        for i in 0..100 {
            q.push(7, i);
        }
        q.push(8, 1000);
        let batch = q.pop_share(2, 1);
        assert_eq!(batch, vec![0, 1000], "newcomer served in the next slot");
    }

    #[test]
    fn depth_cap_sheds_not_queues() {
        let q = FairQueue::new(Some(2));
        assert_eq!(q.push(1, "x"), Push::Queued);
        assert_eq!(q.push(2, "y"), Push::Queued);
        assert_eq!(q.push(1, "z"), Push::Shed, "own lane is joint-longest");
        assert_eq!(q.depth(), 2, "shed requests take no memory");
        // draining reopens admission
        assert_eq!(q.pop_share(1, 1), vec!["x"]);
        assert_eq!(q.push(1, "z"), Push::Queued);
    }

    #[test]
    fn full_queue_displaces_the_flooder_not_the_newcomer() {
        let q = FairQueue::new(Some(3));
        for i in 0..3 {
            assert_eq!(q.push(7, i), Push::Queued);
        }
        // the flooder's own next push is shed…
        assert_eq!(q.push(7, 3), Push::Shed);
        // …but a newcomer is admitted by displacing the flooder's tail
        assert_eq!(q.push(8, 100), Push::Displaced(2));
        assert_eq!(q.depth(), 3, "cap still holds after displacement");
        assert_eq!(
            q.pop_share(4, 1),
            vec![0, 100, 1],
            "newcomer dispatches within one rotation; flooder keeps FIFO order"
        );
    }

    #[test]
    fn displacing_a_single_entry_lane_keeps_rotation_consistent() {
        let q = FairQueue::new(Some(1));
        assert_eq!(q.push(1, "a"), Push::Queued);
        assert_eq!(q.push(2, "b"), Push::Displaced("a"));
        assert_eq!(q.depth(), 1);
        assert_eq!(
            q.pop_share(4, 1),
            vec!["b"],
            "emptied lane left the rotation"
        );
    }

    #[test]
    fn lane_depths_report_per_client_backlog() {
        let q = FairQueue::new(None);
        assert!(q.lane_depths().is_empty());
        for i in 0..3 {
            q.push(9, i);
        }
        q.push(2, 100);
        assert_eq!(q.lane_depths(), vec![(2, 1), (9, 3)]);
        assert_eq!(q.depth(), 4);
        // draining a lane empty removes it from the report
        let _ = q.pop_share(2, 1); // takes one from each lane, round-robin
        assert_eq!(q.lane_depths(), vec![(9, 2)]);
    }

    #[test]
    fn take_removes_one_picked_request_and_keeps_the_rotation() {
        let q = FairQueue::new(None);
        for i in 0..3 {
            q.push(1, format!("a{i}"));
        }
        q.push(2, "b0".to_string());
        q.push(3, "c0".to_string());
        // from the middle of a lane: the rest of the lane keeps its order
        assert_eq!(q.take(1, |r| r == "a1"), Some("a1".to_string()));
        assert_eq!(q.take(1, |r| r == "a1"), None, "taken once");
        assert_eq!(q.take(9, |_| true), None, "no such lane");
        assert_eq!(q.take(2, |r| r == "a0"), None, "only the named lane");
        // emptying a lane takes it out of the rotation and the report
        assert_eq!(q.take(2, |_| true), Some("b0".to_string()));
        assert_eq!(q.depth(), 3);
        assert_eq!(q.lane_depths(), vec![(1, 2), (3, 1)]);
        assert_eq!(q.pop_share(10, 1), vec!["a0", "c0", "a2"]);
        assert_eq!(q.depth(), 0);
        // a take after close still drains, and what it took is not popped
        q.push(4, "d0".to_string());
        q.push(4, "d1".to_string());
        q.close();
        assert_eq!(q.take(4, |r| r == "d0"), Some("d0".to_string()));
        assert_eq!(q.pop_share(10, 1), vec!["d1"]);
        assert!(q.pop_share(10, 1).is_empty());
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = FairQueue::new(None);
        q.push(1, "a");
        q.push(1, "b");
        q.close();
        assert_eq!(q.push(1, "c"), Push::Closed);
        assert_eq!(q.pop_share(10, 1), vec!["a", "b"], "pre-close work drains");
        assert!(q.pop_share(10, 1).is_empty(), "then the empty batch = exit");
    }

    #[test]
    fn lanes_registered_mid_drain_survive_a_racing_close_exactly() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        // Pushers register a brand-new lane per request while a drainer
        // rotates and a close lands mid-flight. The invariant under all
        // interleavings: every accepted request is drained exactly once
        // with its exact payload, and everything after the close is
        // refused — nothing lost, nothing duplicated, nothing hung.
        let q = Arc::new(FairQueue::<u64>::new(None));
        let accepted = Arc::new(AtomicU64::new(0));
        let drainer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let (mut got, mut sum) = (0u64, 0u64);
                loop {
                    let batch = q.pop_share(3, 1);
                    if batch.is_empty() {
                        return (got, sum);
                    }
                    got += batch.len() as u64;
                    sum += batch.iter().sum::<u64>();
                }
            })
        };
        let pushers: Vec<_> = (0..4u64)
            .map(|t| {
                let q = Arc::clone(&q);
                let accepted = Arc::clone(&accepted);
                std::thread::spawn(move || {
                    let mut pushed_sum = 0u64;
                    for i in 0..500u64 {
                        let fresh_lane = t * 1000 + i;
                        let item = t * 1_000_000 + i;
                        match q.push(fresh_lane, item) {
                            Push::Queued => {
                                accepted.fetch_add(1, Ordering::Relaxed);
                                pushed_sum += item;
                            }
                            Push::Closed => {}
                            other => panic!("uncapped queue produced {other:?}"),
                        }
                        if i % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                    pushed_sum
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(5));
        q.close();
        let accepted_sum: u64 = pushers.into_iter().map(|p| p.join().unwrap()).sum();
        let (got, drained_sum) = drainer.join().unwrap();
        assert_eq!(
            got,
            accepted.load(Ordering::Relaxed),
            "every accepted request drained exactly once"
        );
        assert_eq!(drained_sum, accepted_sum, "…with its exact payload");
        assert_eq!(q.depth(), 0);
        assert_eq!(q.push(1, 1), Push::Closed, "the queue stays closed");
    }

    #[test]
    fn blocked_pop_wakes_on_push_and_on_close() {
        use std::sync::Arc;

        let q = Arc::new(FairQueue::new(None));
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_share(4, 1))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(3, 42);
        assert_eq!(popper.join().unwrap(), vec![42]);

        let q2 = Arc::new(FairQueue::<u32>::new(None));
        let popper = {
            let q2 = Arc::clone(&q2);
            std::thread::spawn(move || q2.pop_share(4, 1))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q2.close();
        assert!(popper.join().unwrap().is_empty());
    }
}
