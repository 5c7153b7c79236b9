//! End-to-end redundancy chaos: the adaptive N-modular-redundancy
//! layer (TMR voting, DMR-on-suspicion, hot-spare promotion, patrol
//! scrubbing) asserted against the two faults it exists for:
//!
//! 1. **A Byzantine unit** — scrub-clean, intermittently wrong under
//!    live traffic — has each wrong ballot charged and is quarantined
//!    by them, with zero client-visible escapes.
//! 2. **A sticky physical defect** retires its unit after repeated
//!    scrub failures, a hot spare is promoted into the vacated role,
//!    and `hw_capacity` returns to its pre-fault value.
//!
//! Both runs are pure functions of one seed, taken from the
//! `MFM_REDUNDANCY_SEED` env var (default 2017) so CI can sweep a
//! small seed matrix over the same binary. When `MFM_INCIDENT_DIR` is
//! set, each run writes its flight-recorder incident reports and a
//! final `/statusz` snapshot there for upload.

use mfm_repro::gatesim::tech::TechLibrary;
use mfm_repro::gatesim::Netlist;
use mfm_repro::mfmult::structural::build_unit;
use mfm_repro::mfmult::Operation;
use mfm_repro::resilient::HealthState;
use mfm_repro::server::service::{Service, ServiceConfig};
use mfm_repro::server::wire::{Request, Response};
use mfm_repro::telemetry::{json, Registry};

/// The sweep seed: `MFM_REDUNDANCY_SEED` when set, 2017 otherwise.
fn sweep_seed() -> u64 {
    std::env::var("MFM_REDUNDANCY_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2017)
}

/// Persists a run's incident reports and `/statusz` snapshot into
/// `MFM_INCIDENT_DIR` (when set) so the CI job can upload them.
fn persist_artifacts(svc: &mut Service<'_>, run: &str, seed: u64) {
    let Ok(dir) = std::env::var("MFM_INCIDENT_DIR") else {
        return;
    };
    std::fs::create_dir_all(&dir).expect("incident dir");
    std::fs::write(
        format!("{dir}/{run}_seed{seed}_statusz.json"),
        svc.statusz_json(),
    )
    .expect("write statusz snapshot");
    for (k, report) in svc.take_incidents().iter().enumerate() {
        std::fs::write(format!("{dir}/{run}_seed{seed}_incident_{k}.json"), report)
            .expect("write incident report");
    }
}

#[test]
fn byzantine_unit_is_outvoted_with_zero_client_visible_escapes() {
    let seed = sweep_seed();
    let mut netlist = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut netlist);
    let registry = Registry::new();
    let cfg = ServiceConfig {
        seed,
        units: 3,
        pending_cap: 64,
        ..ServiceConfig::default()
    };
    let mut svc = Service::new(&netlist, &ports, cfg, &registry);
    // The victim, corruption period and flipped product bit all derive
    // from the sweep seed; the latch corrupts results *after* the
    // unit's self-checks, so scrub batteries pass and only the voting
    // tier can see the fault.
    let victim = (seed % 3) as usize;
    let period = 2 + seed % 3;
    let mask = 1u64 << (11 + seed % 40);
    svc.engine_mut().inject_byzantine(victim, period, mask);

    for k in 0..32u64 {
        let req = Request {
            id: k,
            op: Operation::int64(seed.wrapping_add(k) % 1_000_000 + 1, 6),
            deadline_micros: 0,
            critical: true,
        };
        assert!(svc.admit(1, &req).is_none(), "critical request admitted");
        svc.tick();
    }
    for _ in 0..40 {
        svc.tick();
    }

    // Zero client-visible escapes: every Ok matches the exact product.
    let out = svc.take_responses();
    let mut answered = 0u64;
    for (_, r) in &out {
        if let Response::Ok { id, ph, pl, .. } = r {
            let a = seed.wrapping_add(*id) % 1_000_000 + 1;
            let want = a as u128 * 6;
            assert_eq!(((*ph as u128) << 64) | *pl as u128, want, "id {id}");
            answered += 1;
        }
    }
    assert!(answered >= 24, "critical traffic answered: {answered}");
    assert_eq!(svc.escapes(), 0, "zero client-visible escapes");

    // The corrupted ballots failed the verdict and charged the victim's
    // breaker into quarantine at least once.
    assert!(svc.votes() > 0, "critical lanes were voted");
    assert!(svc.vote_mismatches() > 0, "the byzantine ballots lost");
    let trail = svc.engine_mut().transitions(victim).to_vec();
    assert!(
        trail
            .iter()
            .any(|t| t.from == HealthState::Healthy && t.to == HealthState::Suspect),
        "victim left Healthy (seed {seed}): {trail:?}"
    );
    assert!(
        trail
            .iter()
            .any(|t| t.from == HealthState::Suspect && t.to == HealthState::Quarantined),
        "victim was quarantined (seed {seed}): {trail:?}"
    );
    // The honest units' ballots never failed.
    for u in (0..3).filter(|&u| u != victim) {
        assert!(
            svc.engine_mut()
                .transitions(u)
                .iter()
                .all(|t| t.to != HealthState::Quarantined),
            "healthy unit {u} was quarantined"
        );
    }

    let sz = svc.statusz_json();
    json::check(&sz).expect("statusz is well-formed JSON");
    assert!(sz.contains("\"redundancy\":{"), "{sz}");
    persist_artifacts(&mut svc, "byzantine", seed);
}

#[test]
fn sticky_retirement_promotes_a_spare_and_restores_hw_capacity() {
    let seed = sweep_seed();
    let mut netlist = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut netlist);
    let registry = Registry::new();
    let mut cfg = ServiceConfig {
        seed,
        units: 2,
        pending_cap: 64,
        ..ServiceConfig::default()
    };
    cfg.engine.spares = 1;
    let mut svc = Service::new(&netlist, &ports, cfg, &registry);
    let initial_hw = svc.engine_mut().hw_capacity();
    assert_eq!(initial_hw, 2, "spares are not capacity before promotion");
    assert_eq!(svc.engine_mut().spares_available(), 1);

    // A sticky stuck-at on a check port: every batch through unit 0
    // fails verification, every scrub repair is undone by the defect,
    // so the breaker walks the unit to retirement.
    svc.engine_mut()
        .inject_stuck_at(0, ports.chk_p0[0], true, true);

    for k in 0..48u64 {
        let req = Request {
            id: k,
            op: Operation::int64(seed.wrapping_add(k) % 1_000_000 + 1, 2),
            deadline_micros: 0,
            critical: false,
        };
        assert!(svc.admit(1, &req).is_none());
        svc.tick();
    }
    for _ in 0..80 {
        svc.tick();
    }

    assert_eq!(svc.escapes(), 0, "no wrong answer during the retirement");
    assert_eq!(
        svc.engine_mut().unit_state(0),
        HealthState::Retired,
        "the sticky defect retired unit 0"
    );
    // The hot spare was promoted into the vacated role: capacity is
    // back to its pre-fault value and the standby pool is drained.
    assert!(svc.engine_mut().promotions() >= 1, "a spare was promoted");
    assert_eq!(svc.engine_mut().spares_available(), 0);
    assert_eq!(
        svc.engine_mut().hw_capacity(),
        initial_hw,
        "hw_capacity restored to its initial value (seed {seed})"
    );
    let promoted = (0..svc.engine_mut().unit_count()).any(|u| {
        svc.engine_mut()
            .transitions(u)
            .iter()
            .any(|t| t.from == HealthState::Spare && t.to == HealthState::Healthy)
    });
    assert!(promoted, "the promotion is a logged health transition");

    let sz = svc.statusz_json();
    json::check(&sz).expect("statusz is well-formed JSON");
    assert!(sz.contains("\"promotions\":"), "{sz}");
    assert!(sz.contains("\"spares_available\":"), "{sz}");
    persist_artifacts(&mut svc, "retirement", seed);
}
