//! Deterministic fault injection for the wire transport.
//!
//! A fault-tolerance claim that has never met a fault is a guess. This
//! module is the seam where the chaos suite (and the wire benchmark's
//! retry-overhead experiment) forces the failure modes a real deployment
//! sees — dropped connections, stalled frames, truncated writes, flipped
//! bits, a shard process dying mid-request — *deterministically*, from a
//! seed, so a failing run replays exactly.
//!
//! The injector sits on the **server side of the transport**, between a
//! serialized response frame and the socket ([`ShardListener`] consults it
//! before every write, and its `kill_after` budget before every accepted
//! request). Placing it there exercises the full client stack under each
//! fault: checksum validation ([`FaultKind::Corrupt`]), typed truncation
//! errors and reconnects ([`FaultKind::Truncate`], [`FaultKind::Drop`]),
//! deadline accounting ([`FaultKind::Delay`]), and retry/failover
//! ([`FaultKind::Kill`]).
//!
//! Probabilities are expressed per mille (0..=1000) and drawn from a
//! seeded linear congruential generator behind a mutex — cheap, portable,
//! and reproducible across runs and platforms. `FaultConfig::default()`
//! injects nothing; a zeroed injector takes no lock, only one relaxed load
//! and one relaxed add per frame.
//!
//! [`ShardListener`]: crate::ShardListener
//! [`FaultKind::Corrupt`]: FaultKind::Corrupt
//! [`FaultKind::Truncate`]: FaultKind::Truncate
//! [`FaultKind::Drop`]: FaultKind::Drop
//! [`FaultKind::Delay`]: FaultKind::Delay
//! [`FaultKind::Kill`]: FaultKind::Kill

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Injection probabilities and behaviors. All probabilities are per mille
/// (out of 1000); the default injects nothing.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed for the deterministic draw sequence. Two injectors with the
    /// same seed and the same draw order make the same decisions.
    pub seed: u64,
    /// Chance (‰) of dropping an outgoing frame and closing the
    /// connection — the peer sees an abrupt EOF.
    pub drop_per_mille: u16,
    /// Chance (‰) of stalling [`FaultConfig::delay`] before a frame.
    pub delay_per_mille: u16,
    /// Stall applied on a delay draw.
    pub delay: Duration,
    /// Chance (‰) of writing only a prefix of the frame, then closing —
    /// the peer sees a typed truncation error.
    pub truncate_per_mille: u16,
    /// Chance (‰) of flipping one bit of a sealed frame, head included —
    /// the peer sees a typed error, never silent corruption.
    pub corrupt_per_mille: u16,
    /// Kill the listener (abort every connection, stop accepting) after
    /// this many requests have been admitted — the crash the failover
    /// path must recover from. `None` = never.
    pub kill_after: Option<u64>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED,
            drop_per_mille: 0,
            delay_per_mille: 0,
            delay: Duration::from_millis(5),
            truncate_per_mille: 0,
            corrupt_per_mille: 0,
            kill_after: None,
        }
    }
}

/// What the injector decided for one outgoing frame. Checked by the
/// listener in declaration order: a frame suffers at most one fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Send the frame untouched.
    Deliver,
    /// Sleep, then send untouched (tests deadline budgets, not decoding).
    Delay,
    /// Close the connection without sending.
    Drop,
    /// Send only the first `n` bytes, then close.
    Truncate(usize),
    /// Flip bit `b` (mod frame length × 8) of the sealed frame — head,
    /// payload or checksum — then send in full.
    Corrupt(u32),
    /// The kill budget is exhausted: abort the whole listener.
    Kill,
}

/// Counters of what was actually injected, for test assertions and the
/// benchmark's retry-overhead accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames delivered untouched.
    pub delivered: u64,
    /// Frames delayed.
    pub delayed: u64,
    /// Frames dropped (connection closed).
    pub dropped: u64,
    /// Frames truncated.
    pub truncated: u64,
    /// Frames with a flipped bit.
    pub corrupted: u64,
    /// 1 once the kill budget fired.
    pub killed: u64,
}

/// Seeded fault decision source. Share with `Arc`; every draw mutates the
/// generator under a mutex, so concurrent connections interleave draws but
/// the total decision multiset is seed-determined.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: Mutex<u64>,
    admitted: AtomicU64,
    delivered: AtomicU64,
    delayed: AtomicU64,
    dropped: AtomicU64,
    truncated: AtomicU64,
    corrupted: AtomicU64,
    killed: AtomicU64,
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self::new(FaultConfig::default())
    }
}

impl FaultInjector {
    /// Build an injector from probabilities and a seed.
    pub fn new(config: FaultConfig) -> Self {
        Self {
            rng: Mutex::new(config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            config,
            admitted: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            killed: AtomicU64::new(0),
        }
    }

    /// The configured stall for [`FaultKind::Delay`] decisions.
    pub fn delay(&self) -> Duration {
        self.config.delay
    }

    /// One draw in `0..1000`.
    fn draw(&self) -> u64 {
        let mut x = self
            .rng
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*x >> 33) % 1000
    }

    /// Account one admitted request against the kill budget. Returns
    /// `true` when the budget just ran out — the caller must abort.
    pub fn note_request(&self) -> bool {
        let Some(budget) = self.config.kill_after else {
            return false;
        };
        let n = self.admitted.fetch_add(1, Ordering::Relaxed) + 1;
        if n == budget {
            self.killed.store(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// `true` once the kill budget has fired (sticky).
    pub fn killed(&self) -> bool {
        self.killed.load(Ordering::Relaxed) != 0
    }

    /// Decide the fate of one outgoing frame of `frame_len` bytes.
    /// Exactly one decision per frame; counters record what was chosen.
    pub fn on_frame(&self, frame_len: usize) -> FaultKind {
        if self.killed() {
            return FaultKind::Kill;
        }
        let c = &self.config;
        let kind = if c.drop_per_mille > 0 && self.draw() < c.drop_per_mille as u64 {
            FaultKind::Drop
        } else if c.truncate_per_mille > 0 && self.draw() < c.truncate_per_mille as u64 {
            // Cut somewhere strictly inside the frame so the peer sees a
            // short read, not a clean close between frames.
            FaultKind::Truncate((self.draw() as usize) % frame_len.max(1))
        } else if c.corrupt_per_mille > 0 && self.draw() < c.corrupt_per_mille as u64 {
            FaultKind::Corrupt(self.draw() as u32)
        } else if c.delay_per_mille > 0 && self.draw() < c.delay_per_mille as u64 {
            FaultKind::Delay
        } else {
            FaultKind::Deliver
        };
        let counter = match kind {
            FaultKind::Deliver => &self.delivered,
            FaultKind::Delay => &self.delayed,
            FaultKind::Drop => &self.dropped,
            FaultKind::Truncate(_) => &self.truncated,
            FaultKind::Corrupt(_) => &self.corrupted,
            FaultKind::Kill => unreachable!("killed() checked above"),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        kind
    }

    /// Snapshot the injection counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            delivered: self.delivered.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            killed: self.killed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_config_always_delivers() {
        let inj = FaultInjector::default();
        for _ in 0..1000 {
            assert_eq!(inj.on_frame(64), FaultKind::Deliver);
        }
        assert_eq!(inj.stats().delivered, 1000);
        assert!(!inj.note_request(), "no kill budget configured");
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let config = FaultConfig {
            seed: 42,
            drop_per_mille: 50,
            delay_per_mille: 100,
            truncate_per_mille: 50,
            corrupt_per_mille: 100,
            ..FaultConfig::default()
        };
        let a = FaultInjector::new(config.clone());
        let b = FaultInjector::new(config.clone());
        let run_a: Vec<FaultKind> = (0..500).map(|_| a.on_frame(128)).collect();
        let run_b: Vec<FaultKind> = (0..500).map(|_| b.on_frame(128)).collect();
        assert_eq!(run_a, run_b, "same seed, same schedule");
        assert_eq!(a.stats(), b.stats());

        let c = FaultInjector::new(FaultConfig { seed: 43, ..config });
        let run_c: Vec<FaultKind> = (0..500).map(|_| c.on_frame(128)).collect();
        assert_ne!(run_a, run_c, "different seed, different schedule");
    }

    #[test]
    fn probabilities_land_near_their_targets() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 7,
            drop_per_mille: 200,
            ..FaultConfig::default()
        });
        for _ in 0..10_000 {
            inj.on_frame(64);
        }
        let s = inj.stats();
        assert_eq!(s.dropped + s.delivered, 10_000);
        assert!(
            (1000..3000).contains(&s.dropped),
            "≈20% of 10k frames drop, got {}",
            s.dropped
        );
    }

    #[test]
    fn truncation_cuts_strictly_inside_the_frame() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 9,
            truncate_per_mille: 1000,
            ..FaultConfig::default()
        });
        for _ in 0..200 {
            match inj.on_frame(100) {
                FaultKind::Truncate(n) => assert!(n < 100),
                other => panic!("always-truncate config produced {other:?}"),
            }
        }
    }

    #[test]
    fn kill_budget_fires_once_and_is_sticky() {
        let inj = FaultInjector::new(FaultConfig {
            kill_after: Some(3),
            ..FaultConfig::default()
        });
        assert!(!inj.note_request());
        assert!(!inj.note_request());
        assert!(!inj.killed());
        assert!(inj.note_request(), "third request exhausts the budget");
        assert!(inj.killed());
        assert!(!inj.note_request(), "the budget fires exactly once");
        assert_eq!(
            inj.on_frame(64),
            FaultKind::Kill,
            "dead injectors stay dead"
        );
        assert_eq!(inj.stats().killed, 1);
    }
}
