//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! Only *transient* failures are retried: worker panics (real or
//! injected), deadline cancellations are not retried at all (the retry
//! would blow the same deadline), and deterministic failures — parse or
//! semantic errors that will fail identically every time — are never
//! retried. A request gets [`MAX_ATTEMPTS`] attempts; before retry k
//! (1-based) the service sleeps `2 ms * 2^(k-1)` plus up to 2 ms of
//! jitter. The jitter source is a seeded SplitMix64 stream, so a given
//! (seed, request) pair always backs off by the same amounts: chaos runs
//! are reproducible down to their sleep schedule.

use std::time::Duration;

/// Attempts per request: the first and two retries.
pub(crate) const MAX_ATTEMPTS: u32 = 3;
const BASE_BACKOFF: Duration = Duration::from_millis(2);
/// Upper bound on the uniform jitter added to each backoff, in µs.
const MAX_JITTER_US: u64 = 2_000;

/// The backoff to sleep before retry number `retry` (1-based), with
/// jitter drawn from `rng`.
pub(crate) fn backoff(retry: u32, rng: &mut SplitMix) -> Duration {
    let exp = BASE_BACKOFF.saturating_mul(1u32 << retry.saturating_sub(1).min(10));
    exp + Duration::from_micros(rng.next_u64() % (MAX_JITTER_US + 1))
}

/// SplitMix64 — the workspace's standard tiny deterministic PRNG.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix {
    state: u64,
}

impl SplitMix {
    pub(crate) fn new(seed: u64) -> SplitMix {
        SplitMix { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// Hash a decision coordinate into a single SplitMix draw — the
/// stateless form the chaos plan uses so every (seed, key, request,
/// attempt) coordinate rolls independently and reproducibly.
pub(crate) fn mix(parts: &[u64]) -> u64 {
    let mut acc: u64 = 0x243f6a8885a308d3;
    for &p in parts {
        acc = SplitMix::new(acc ^ p).next_u64();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_within_its_jitter_and_is_reproducible() {
        let a: Vec<Duration> = (1..=4).map(|k| backoff(k, &mut SplitMix::new(99))).collect();
        let b: Vec<Duration> = (1..=4).map(|k| backoff(k, &mut SplitMix::new(99))).collect();
        assert_eq!(a, b);
        for (k, d) in a.iter().enumerate() {
            let base = BASE_BACKOFF * (1 << k);
            assert!(*d >= base && *d <= base + Duration::from_millis(2), "{d:?}");
        }
        // the jitter is drawn, not constant
        let mut rng = SplitMix::new(1);
        assert_ne!(backoff(1, &mut rng), backoff(1, &mut rng));
    }

    #[test]
    fn mix_differs_across_coordinates() {
        let a = mix(&[1, 2, 3]);
        let b = mix(&[1, 2, 4]);
        let c = mix(&[2, 2, 3]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, mix(&[1, 2, 3]));
    }
}
