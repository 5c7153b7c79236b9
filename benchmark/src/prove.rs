//! `prove_cones`: `prove_unit` on a fixed subset of the `mfmult` output
//! cones, every verdict required to be `Proved`. `lint` (AIG build,
//! sweep, CDCL) does all the work here and none in the other workloads.
//!
//! The cone set is the prover's input and is fixed: the whole unit takes
//! about 16 minutes, so the subset is sized to a few seconds per pass and
//! spans three modes. The prover's own simulation-pattern seed stays at
//! its default, so verdicts and conflict counts are a fixed reference the
//! digest pins.

use std::time::Instant;

use mfm_lint::{
    prove_unit, standard_units, sweep, BuiltUnit, ConeVerdict, Mode, NetlistAig, ProveOptions,
    ProveReport,
};

use crate::stats::{median, quantile, Digest};
use crate::{Measured, RunConfig};

/// Workload sizes.
#[derive(Debug, Clone)]
pub struct ProveSizes {
    /// Set-ups before the timed phase and after each pass; `setup_s` is
    /// the median of all of them.
    pub setup_reps: usize,
    /// `(mode, output-label prefixes)` proved in every pass.
    pub cones: Vec<(Mode, Vec<&'static str>)>,
}

impl ProveSizes {
    /// The benchmark's cone set: 18 cones over three modes, a few
    /// seconds per pass on one core.
    pub fn full() -> Self {
        ProveSizes {
            setup_reps: 3,
            cones: vec![
                (Mode::Int64, vec!["pl[1"]),
                (Mode::Binary64, vec!["ph[63]"]),
                (Mode::DualBinary32, vec!["flags"]),
            ],
        }
    }
}

/// Metric-name form of a mode.
pub fn mode_name(m: Mode) -> &'static str {
    match m {
        Mode::Int64 => "int64",
        Mode::Binary64 => "binary64",
        Mode::DualBinary32 => "dual_binary32",
        Mode::QuadBinary16 => "quad_binary16",
    }
}

/// The prover's front end for every mode of the cone set: the mode's
/// ternary constant sweep and the hash-consed AIG fold of the tied
/// netlist. Returns the AIG sizes, which repeat exactly.
fn fold_modes(unit: &BuiltUnit, cones: &[(Mode, Vec<&'static str>)]) -> Vec<usize> {
    cones
        .iter()
        .map(|(mode, _)| {
            let spec = unit
                .specs
                .iter()
                .find(|s| Mode::from_name(&s.mode) == Some(*mode))
                .expect("mfmult has a spec for every wide mode");
            let values = sweep(&unit.netlist, &spec.ties).expect("unit netlists levelize");
            let fold = NetlistAig::build(&unit.netlist, &values).expect("unit netlists levelize");
            fold.aig.num_nodes()
        })
        .collect()
}

/// Repeated set-ups: the standard units and the AIG fold of every mode
/// of the cone set. A set-up takes tens of milliseconds, while the
/// host's speed shifts over seconds, so the set-ups are spread over the
/// run: a burst before the timed phase and another after every pass.
struct SetUps {
    secs: Vec<f64>,
    folds: Option<Vec<usize>>,
    folds_repeat: bool,
}

impl SetUps {
    /// Runs `cfg.sizes.prove.setup_reps` set-ups, the first timed from
    /// `t0`, and returns the last unit built.
    fn burst(&mut self, cfg: &RunConfig, t0: Instant) -> BuiltUnit {
        let tr = &cfg.tracer;
        let cones = &cfg.sizes.prove.cones;
        let mut unit = None;
        for k in 0..cfg.sizes.prove.setup_reps {
            let rep = self.secs.len() as u64;
            let t = if k == 0 { t0 } else { Instant::now() };
            let (u, f) = tr.span("setup", rep, || {
                let u = tr.span("lint.units", rep, || {
                    standard_units()
                        .into_iter()
                        .find(|u| u.name == "mfmult")
                        .expect("the standard suite builds mfmult")
                });
                let f = tr.span("lint.aig", rep, || fold_modes(&u, cones));
                (u, f)
            });
            self.secs.push(t.elapsed().as_secs_f64());
            if let Some(prev) = &self.folds {
                self.folds_repeat &= *prev == f;
            }
            self.folds = Some(f);
            unit = Some(u);
        }
        unit.expect("at least one set-up")
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, m: &mut Measured) {
    let tr = &cfg.tracer;
    let sizes = &cfg.sizes.prove;

    let mut setups = SetUps {
        secs: Vec::new(),
        folds: None,
        folds_repeat: true,
    };
    let unit = setups.burst(cfg, cfg.started);

    let opts: Vec<(Mode, ProveOptions)> = sizes
        .cones
        .iter()
        .map(|(mode, prefixes)| {
            let o = ProveOptions {
                modes: Some(vec![*mode]),
                outputs: Some(prefixes.iter().map(|p| (*p).to_owned()).collect()),
                ..ProveOptions::default()
            };
            (*mode, o)
        })
        .collect();

    let mut pass_ms = Vec::new();
    let mut first_digest: Option<u64> = None;
    let mut reports: Vec<ProveReport> = Vec::new();
    let mut cones_per_pass = 0u64;
    let end = Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds);
    let mut pass = 0u64;
    tr.span("timed", 0, || {
        while pass < 2 || Instant::now() < end {
            let t = Instant::now();
            reports = tr.span("pass", pass, || {
                opts.iter()
                    .map(|(mode, o)| {
                        tr.span(&format!("prove.mode.{}", mode_name(*mode)), pass, || {
                            prove_unit(&unit, o)
                        })
                    })
                    .collect()
            });
            pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
            setups.burst(cfg, Instant::now());
            let mut d = Digest::default();
            cones_per_pass = 0;
            for r in &reports {
                d.str(&r.to_json());
                for md in &r.modes {
                    for c in &md.cones {
                        cones_per_pass += 1;
                        m.attempted_ops += 1;
                        if c.verdict != ConeVerdict::Proved {
                            m.failed_ops += 1;
                        }
                    }
                }
            }
            match first_digest {
                None => first_digest = Some(d.value()),
                Some(first) => {
                    m.check("per-cone verdicts and conflicts repeat", d.value() == first)
                }
            }
            pass += 1;
        }
    });
    m.set("setup_s", median(&setups.secs));
    m.check("AIG folds repeat across set-ups", setups.folds_repeat);
    m.check("every cone proved", m.failed_ops == 0);
    m.check("the cone set is not empty", cones_per_pass > 0);
    m.digest.u64(first_digest.unwrap_or(0));

    let prove_ms = median(&pass_ms);
    m.set("prove_s", prove_ms / 1e3);
    m.set("ops_per_s", cones_per_pass as f64 / (prove_ms / 1e3));
    m.set("lat_p50_ms", prove_ms);
    m.set("lat_p75_ms", quantile(&pass_ms, 0.75));
    m.set("lat_p90_ms", quantile(&pass_ms, 0.9));

    // Exact solver counts of one pass (every pass repeats them).
    let modes = reports.iter().flat_map(|r| r.modes.iter());
    let (mut conflicts, mut proved, mut refuted, mut unknown) = (0u64, 0u64, 0u64, 0u64);
    let (mut nodes, mut cases, mut structural) = (0u64, 0u64, 0u64);
    for md in modes {
        conflicts += md.conflicts;
        proved += md.merges_proved as u64;
        refuted += md.merges_refuted as u64;
        unknown += md.merges_unknown as u64;
        nodes += md.aig_nodes as u64;
        structural += md.structural_proofs as u64;
        cases += md.cones.iter().map(|c| u64::from(c.cases)).sum::<u64>();
    }
    let attempts = (proved + refuted + unknown).max(1);
    m.set("prove.conflicts", conflicts as f64);
    m.set(
        "prove.conflicts_per_cone",
        conflicts as f64 / cones_per_pass.max(1) as f64,
    );
    m.set("prove.merges_proved", proved as f64);
    m.set("prove.merges_refuted", refuted as f64);
    m.set("prove.merges_unknown", unknown as f64);
    m.set("prove.sweep_useful", proved as f64 / attempts as f64);
    m.set("prove.aig_nodes", nodes as f64);
    m.set("prove.cases", cases as f64);
    m.set("prove.structural_proofs", structural as f64);
    m.set_span_median(tr, "lint.units_ms", "lint.units");
    m.set_span_median(tr, "lint.aig_ms", "lint.aig");
    for (mode, _) in &opts {
        m.set_span_median(
            tr,
            &format!("prove.mode_ms.{}", mode_name(*mode)),
            &format!("prove.mode.{}", mode_name(*mode)),
        );
    }
}
