//! Retry policy for refused work: truncated exponential backoff with
//! deterministic jitter drawn from the workspace PRNG, so a seeded
//! workload replays bit-identically. The service derives the retry hint
//! of each `Overloaded` refusal from one per client.

use mfm_prng::Rng;

/// Backoff policy knobs. Delays are measured in engine *ticks* (the
/// unit of scheduling time), not wall time.
#[derive(Debug, Clone, Copy)]
pub struct BackoffConfig {
    /// Delay before the first retry, in ticks.
    pub base_ticks: u64,
    /// Multiplier applied per successive rejection.
    pub factor: u64,
    /// Ceiling the exponential is truncated at.
    pub max_ticks: u64,
    /// Rejections after which the caller gives up on the operation.
    pub max_retries: u32,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base_ticks: 1,
            factor: 2,
            max_ticks: 32,
            max_retries: 10,
        }
    }
}

/// Backoff state for one stream of refusals (the service keeps one per
/// client). Seed it from the stream's identity so the jitter sequence
/// is a pure function of the workload seed.
#[derive(Debug)]
pub struct SubmitBackoff {
    cfg: BackoffConfig,
    rng: Rng,
    attempt: u32,
}

impl SubmitBackoff {
    /// A fresh backoff sequence for one stream of refusals.
    pub fn new(cfg: BackoffConfig, seed: u64) -> Self {
        SubmitBackoff {
            cfg,
            rng: Rng::new(seed),
            attempt: 0,
        }
    }

    /// Rejections consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Rewinds the attempt counter to zero, restoring the full retry
    /// budget and the base delay. The jitter stream is deliberately
    /// *not* rewound: a client whose request was finally admitted
    /// starts its next backoff sequence from fresh draws, so repeated
    /// accept/reject cycles never replay the same delays in lockstep.
    ///
    /// Used by per-client retry budgets: the serving front-end resets a
    /// client's backoff whenever one of its requests is admitted, so
    /// only *consecutive* rejections escalate the retry-after hint.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// The next delay to wait after a rejection, or `None` once the
    /// retry budget is exhausted. The delay is the truncated exponential
    /// with "equal jitter": uniformly drawn from `[d/2, d]`, so retries
    /// never synchronize across callers yet never collapse to zero wait.
    pub fn next_delay(&mut self) -> Option<u64> {
        if self.attempt >= self.cfg.max_retries {
            return None;
        }
        // Closed-form truncated exponential: base·factorⁿ computed with
        // saturating arithmetic, O(log n) regardless of the attempt
        // count. A factor ≥ 2 saturates u64 within 64 steps, so the
        // exponent is clamped there before `saturating_pow` runs; a
        // factor ≤ 1 degenerates to the (clamped) base and must never
        // loop attempt-many times the way the old ladder did.
        let base = self.cfg.base_ticks.max(1);
        let d = if self.cfg.factor <= 1 {
            base
        } else {
            let exp = self.attempt.min(64);
            base.saturating_mul(self.cfg.factor.saturating_pow(exp))
        };
        let d = d.min(self.cfg.max_ticks).max(1);
        self.attempt += 1;
        let half = d / 2;
        Some(half + self.rng.range_u64(0, d - half + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_to_the_cap_and_stop() {
        let cfg = BackoffConfig {
            base_ticks: 1,
            factor: 2,
            max_ticks: 8,
            max_retries: 6,
        };
        let mut b = SubmitBackoff::new(cfg, 42);
        let mut prev_hi = 0u64;
        for i in 0..6 {
            let d = b.next_delay().expect("within retry budget");
            let nominal = (cfg.base_ticks << i).min(cfg.max_ticks);
            assert!(
                d >= nominal / 2 && d <= nominal,
                "attempt {i}: delay {d} outside [{}, {nominal}]",
                nominal / 2
            );
            assert!(d >= prev_hi / 2, "jitter window keeps growing");
            prev_hi = nominal;
        }
        assert_eq!(b.next_delay(), None, "budget exhausted");
        assert_eq!(b.attempts(), 6);
    }

    #[test]
    fn saturates_at_the_cap_and_never_overflows() {
        // Adversarial knobs: a base and factor whose product overflows
        // u64 after two steps, an enormous retry budget, and a cap at
        // the far end of the range. The exponential must truncate at
        // `max_ticks` and stay there — no wraparound, no panic — for
        // attempt counts far past the point where base·factorⁿ would
        // overflow.
        let cfg = BackoffConfig {
            base_ticks: u64::MAX / 2,
            factor: u64::MAX,
            max_ticks: u64::MAX,
            max_retries: 10_000,
        };
        let mut b = SubmitBackoff::new(cfg, 99);
        for i in 0..10_000 {
            let d = b.next_delay().expect("within retry budget");
            assert!(d <= cfg.max_ticks, "attempt {i}: delay {d} exceeds the cap");
            if i >= 1 {
                // One saturating multiply pins the nominal delay to the
                // cap; every later delay jitters inside [cap/2, cap].
                assert!(
                    d >= cfg.max_ticks / 2,
                    "attempt {i}: delay {d} escaped the saturated jitter window"
                );
            }
        }
        assert_eq!(b.next_delay(), None, "budget exhausted exactly at the cap");

        // A modest cap with a high attempt count: every delay after the
        // ramp sits in `[max/2, max]` and never exceeds the cap.
        let cfg = BackoffConfig {
            base_ticks: 3,
            factor: 7,
            max_ticks: 1000,
            max_retries: 500,
        };
        let mut b = SubmitBackoff::new(cfg, 7);
        let mut saturated = 0u32;
        while let Some(d) = b.next_delay() {
            assert!(d <= cfg.max_ticks, "delay {d} exceeds the cap");
            if d >= cfg.max_ticks / 2 {
                saturated += 1;
            }
        }
        assert!(saturated >= 490, "cap reached early and held: {saturated}");
    }

    /// Property: under *any* configuration — including bases, factors
    /// and caps at the edges of u64 and retry budgets in the tens of
    /// thousands — every delay stays within `[1, max(1, max_ticks)]`,
    /// the nominal window is monotone non-decreasing until it saturates,
    /// and the call never panics or wraps. Configs are drawn from a
    /// seeded PRNG so a failure replays bit-identically.
    #[test]
    fn any_config_saturates_without_overflow() {
        let mut rng = Rng::new(0xbac0_ff5a);
        let extremes = [0u64, 1, 2, 3, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        let draw = |rng: &mut Rng| -> u64 {
            if rng.next_bool(0.5) {
                extremes[rng.range_u64(0, extremes.len() as u64) as usize]
            } else {
                rng.range_u64(0, 1 << 40)
            }
        };
        for case in 0..200u64 {
            let cfg = BackoffConfig {
                base_ticks: draw(&mut rng),
                factor: draw(&mut rng),
                max_ticks: draw(&mut rng),
                max_retries: 1 + rng.range_u64(0, 20_000) as u32,
            };
            let cap = cfg.max_ticks.max(1);
            let mut b = SubmitBackoff::new(cfg, 0x5eed ^ case);
            let mut prev_nominal = 0u64;
            let mut taken = 0u32;
            while let Some(d) = b.next_delay() {
                taken += 1;
                assert!(d <= cap, "case {case}: delay {d} exceeds cap {cap}");
                // Each delay jitters in [nominal/2, nominal] and the
                // nominal window never shrinks, so no delay may fall
                // below half of any previously observed delay.
                assert!(d >= prev_nominal / 2, "case {case}: window regressed");
                prev_nominal = prev_nominal.max(d);
            }
            assert_eq!(taken, cfg.max_retries, "case {case}: budget honored");
        }
    }

    #[test]
    fn reset_restores_the_budget_without_replaying_jitter() {
        let cfg = BackoffConfig {
            base_ticks: 4,
            factor: 2,
            max_ticks: 64,
            max_retries: 3,
        };
        let mut b = SubmitBackoff::new(cfg, 11);
        let first: Vec<u64> = (0..3).map(|_| b.next_delay().unwrap()).collect();
        assert_eq!(b.next_delay(), None);
        b.reset();
        assert_eq!(b.attempts(), 0);
        // Full budget again, delays restart from the base window...
        let second: Vec<u64> = (0..3).map(|_| b.next_delay().unwrap()).collect();
        assert!(second[0] >= cfg.base_ticks / 2 && second[0] <= cfg.base_ticks);
        assert_eq!(b.next_delay(), None, "budget exhausts again after reset");
        // ...but the jitter stream advanced: the two sequences are not
        // forced into lockstep (windows are equal, draws are fresh).
        assert_eq!(first.len(), second.len());
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let cfg = BackoffConfig::default();
        let seq = |seed: u64| -> Vec<Option<u64>> {
            let mut b = SubmitBackoff::new(cfg, seed);
            (0..=cfg.max_retries).map(|_| b.next_delay()).collect()
        };
        assert_eq!(seq(7), seq(7), "same seed, same delays");
        assert_ne!(seq(7), seq(8), "different seeds decorrelate");
    }
}
