//! Where a served answer's names are allocated: on the thread that waits
//! for the answer, not on the worker that computed it.
//!
//! A counting global allocator tallies every allocation made off the test's
//! own thread. With one worker and nothing else running, that is the
//! worker's share of the queries it ran. A `neighbors` answer of N names
//! and the same query with `limit 1` must cost the worker the same
//! allocations, give or take a small constant: a worker that named its
//! answers would pay about N more for each.
//!
//! A waiting thread runs its own request when no worker has popped it yet,
//! and a lone submit wakes no worker at all: the request is left to its
//! waiter. So each round submits its query twice — the second submit finds
//! the first queued and wakes the worker, which pops both — and waits on
//! the answers only once the worker has popped them. Every round must read
//! non-zero: the reading is a worker's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hin_core::HinBuilder;
use hin_serve::{ServeConfig, Server, TelemetryConfig};

/// Allocations made by any thread but the test's own.
static OFF_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the test's own thread, whose allocations are not counted.
    static HOME: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the tally is an
// atomic add and a read of a const-initialized thread-local, neither of
// which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !HOME.try_with(Cell::get).unwrap_or(false) {
            OFF_THREAD.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Papers the anchor author wrote: the answer's N.
const PAPERS: usize = 64;

/// Waited queries per reading; the fewest allocations any of them cost is
/// the reading, so a stray allocation elsewhere cannot inflate it.
const ROUNDS: usize = 20;

/// The fewest allocations off this thread that two submitted `query`s
/// cost, both waited for only once the worker has popped them.
fn worker_allocations(server: &Server, query: &str) -> u64 {
    (0..ROUNDS)
        .map(|_| {
            let before = OFF_THREAD.load(Ordering::SeqCst);
            let tickets = [server.submit(query), server.submit(query)];
            while server.queue_depth() > 0 {
                std::thread::yield_now();
            }
            for ticket in tickets {
                let answer = ticket.wait();
                assert!(answer.is_ok(), "{query}: {answer:?}");
            }
            let after = OFF_THREAD.load(Ordering::SeqCst);
            assert!(after > before, "{query}: a round the worker did not run");
            after - before
        })
        .min()
        .expect("at least one round")
}

#[test]
fn a_worker_allocates_no_name() {
    HOME.with(|home| home.set(true));
    let mut b = HinBuilder::new();
    let paper = b.add_type("paper");
    let author = b.add_type("author");
    let wrote = b.add_relation("written_by", paper, author);
    for p in 0..PAPERS {
        b.link(wrote, &format!("paper_{p}"), "a0", 1.0).unwrap();
    }
    b.link(wrote, "paper_solo", "a1", 1.0).unwrap();
    let server = Server::start(
        Arc::new(b.build()),
        ServeConfig {
            workers: 1,
            telemetry: TelemetryConfig {
                enabled: false,
                ..TelemetryConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    let all = "neighbors author-paper from a0";
    let one = "neighbors author-paper from a0 limit 1";
    assert_eq!(server.submit(all).wait().unwrap().items.len(), PAPERS);
    assert_eq!(server.submit(one).wait().unwrap().items.len(), 1);

    let (n_all, n_one) = (
        worker_allocations(&server, all),
        worker_allocations(&server, one),
    );
    println!("worker allocations: {n_all} for 2 × {PAPERS} names, {n_one} for 2 × one");
    assert!(
        n_all <= n_one + 2,
        "2 × {PAPERS} names cost the worker {n_all} allocations, 2 × one name {n_one}"
    );
    server.shutdown();
}
