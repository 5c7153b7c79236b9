//! End-to-end chaos recovery: a seeded fault schedule applied to the
//! pool under an in-process service mid-workload. The two invariants of
//! `mfm-resilient` are asserted on a fixed seed:
//!
//! 1. **Zero escapes** — every `Ok` answer matches the softfloat
//!    reference, no matter what the chaos plan injected.
//! 2. **Degrade and recover** — capacity dips while faulty units sit in
//!    quarantine and returns once scrubbing readmits them; at least one
//!    unit completes the full `Quarantined → Probation → Healthy` cycle.
//!
//! The campaign is a pure function of the seed (no wall clock, no
//! global RNG), so the run here is bit-identical across profiles and
//! platforms — the test also replays it and compares tick-exact.

use mfm_repro::resilient::HealthState;
use mfm_repro::server::chaos::{run_chaos_campaign, ChaosCampaignConfig};
use mfm_repro::telemetry::Registry;

/// Small combinational campaign kept identical in debug and release so
/// both profiles exercise the exact same schedule. Seed 2017 is known
/// to quarantine a unit and bring it all the way back.
fn campaign() -> ChaosCampaignConfig {
    ChaosCampaignConfig {
        seed: 2017,
        units: 2,
        ops: 40,
        faults: 10,
        pipelined: false,
        ..ChaosCampaignConfig::default()
    }
}

#[test]
fn chaos_campaign_never_escapes_and_recovers_capacity() {
    let registry = Registry::new();
    let rep = run_chaos_campaign(&campaign(), Some(&registry));

    // Invariant 1: zero wrong answers escape.
    assert_eq!(rep.escapes, 0, "wrong answers escaped:\n{rep}");
    assert_eq!(registry.counter("pool.escapes").get(), 0);
    assert_eq!(rep.completed + rep.dropped, rep.ops, "ops unaccounted for");
    assert!(rep.completed > 0, "campaign delivered nothing:\n{rep}");

    // Invariant 2: capacity degrades under the plan and recovers.
    assert!(
        rep.min_hw_capacity() < rep.units as u32,
        "no unit was ever benched — the plan injected nothing:\n{rep}"
    );
    assert!(
        rep.final_hw_capacity() > rep.min_hw_capacity(),
        "capacity never recovered:\n{rep}"
    );
    assert!(
        rep.recovery_cycles >= 1,
        "no unit completed quarantine -> probation -> healthy:\n{rep}"
    );

    // The recovery cycle is visible in at least one unit's transition
    // trail as consecutive breaker states.
    let recovered = rep.unit_outcomes.iter().any(|u| {
        u.transitions.windows(2).any(|w| {
            w[0].from == HealthState::Quarantined
                && w[0].to == HealthState::Probation
                && w[1].from == HealthState::Probation
                && w[1].to == HealthState::Healthy
        })
    });
    assert!(
        recovered,
        "transition trail missing the recovery arc:\n{rep}"
    );
}

#[test]
fn chaos_campaign_is_bit_reproducible() {
    let a = run_chaos_campaign(&campaign(), None);
    let b = run_chaos_campaign(&campaign(), None);
    assert_eq!(a.timeline, b.timeline, "tick-exact replay diverged");
    assert_eq!(a.scrubs, b.scrubs);
    assert_eq!(a.recovery_cycles, b.recovery_cycles);
    assert_eq!(
        a.unit_outcomes.len(),
        b.unit_outcomes.len(),
        "pool sizes diverged"
    );
    let trail = |u: &mfm_repro::server::chaos::UnitOutcome| {
        u.transitions
            .iter()
            .map(|t| (t.tick, t.from, t.to, t.reason.clone()))
            .collect::<Vec<_>>()
    };
    for (ua, ub) in a.unit_outcomes.iter().zip(&b.unit_outcomes) {
        assert_eq!(ua.final_state, ub.final_state);
        assert_eq!(trail(ua), trail(ub), "unit {} trail diverged", ua.unit);
    }
}
