//! The prover's report is a pure function of the unit and the options:
//! proving the same cones twice yields byte-identical JSON, solver
//! conflicts and sweep counters included, so a report digest can gate a
//! benchmark or a cache.

use mfm_lint::{prove_unit, standard_units, ConeVerdict, Mode, ProveOptions};

#[test]
fn dual_binary32_flags_proof_report_repeats_byte_for_byte() {
    let units = standard_units();
    let unit = units
        .iter()
        .find(|u| u.name == "mfmult")
        .expect("the standard suite builds mfmult");
    let opts = ProveOptions {
        modes: Some(vec![Mode::DualBinary32]),
        outputs: Some(vec!["flags".to_owned()]),
        ..ProveOptions::default()
    };
    let first = prove_unit(unit, &opts);
    let second = prove_unit(unit, &opts);

    let mode = &first.modes[0];
    assert!(!mode.cones.is_empty(), "the flags cones were selected");
    assert!(
        mode.cones.iter().all(|c| c.verdict == ConeVerdict::Proved),
        "every flags cone proves"
    );
    assert!(mode.sim_rounds >= opts.rounds, "{}", first.to_json());
    assert_eq!(first.to_json(), second.to_json());
    // The search itself is pinned: a solver or sweep change that keeps
    // every verdict but moves one decision shows up here.
    assert_eq!(mode.conflicts, 11_422, "{}", first.to_json());
    assert_eq!(
        (
            mode.merges_proved,
            mode.merges_refuted,
            mode.merges_sim_refuted,
            mode.merges_unknown
        ),
        (1_008, 109, 463, 28),
        "{}",
        first.to_json()
    );
    assert_eq!(mode.sim_rounds, 37, "{}", first.to_json());
    assert_eq!(mode.solver.conflicts, mode.conflicts);
}
