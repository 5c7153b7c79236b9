//! Deterministic chaos plans: a seeded schedule of fault events applied
//! to an [`Engine`] pool mid-workload. Generation and application are
//! both pure functions of the seed and the netlist, so a chaos run is
//! bit-reproducible.

use mfm_gatesim::NetId;
use mfm_prng::Rng;

use crate::engine::Engine;

/// What a chaos event does to its target unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// A single-event upset: the victim net is forced, to a value drawn
    /// from the event, on the unit's lanes of its next pass only. Dropped
    /// on combinational builds, where no register can capture the pulse
    /// (see [`apply_event`]).
    Seu,
    /// Force a net. `sticky` models a physical defect that survives
    /// scrub repair; a non-sticky stuck-at models latched transient
    /// damage a scrub clears.
    StuckAt {
        /// Forced value.
        value: bool,
        /// Whether the fault is re-asserted after every scrub repair.
        sticky: bool,
    },
    /// Clear every fault on the unit — a field replacement, ending even
    /// sticky defects.
    ClearFaults,
    /// Arm a Byzantine output-latch fault: every `period`-th result the
    /// unit serves is corrupted *after* its self-checks ran, so scrub
    /// batteries pass ("scrub-clean") and only redundant execution can
    /// catch it.
    Byzantine {
        /// Corrupt every `period`-th served result.
        period: u64,
    },
}

impl ChaosKind {
    /// Stable label used in reports.
    pub const fn label(self) -> &'static str {
        match self {
            ChaosKind::Seu => "seu",
            ChaosKind::StuckAt { sticky: true, .. } => "stuck_at_sticky",
            ChaosKind::StuckAt { sticky: false, .. } => "stuck_at",
            ChaosKind::ClearFaults => "clear_faults",
            ChaosKind::Byzantine { .. } => "byzantine",
        }
    }
}

/// One scheduled event. `net_pick`/`edge_pick` are raw random draws,
/// resolved against the actual netlist and pipeline depth at
/// application time, so one plan is meaningful for any build.
#[derive(Debug, Clone, Copy)]
pub struct ChaosEvent {
    /// Workload ordinal (submission index) the event fires before.
    pub at_op: u64,
    /// Target pool slot.
    pub unit: usize,
    /// Raw draw selecting the victim net among the candidate sites.
    pub net_pick: u64,
    /// Raw draw selecting the value an SEU forces.
    pub edge_pick: u32,
    /// What happens.
    pub kind: ChaosKind,
}

/// Plan-generation knobs.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPlanConfig {
    /// Seed for the plan's private PRNG stream.
    pub seed: u64,
    /// Pool size the plan targets.
    pub units: usize,
    /// Workload length; events land in the first three quarters so
    /// their consequences (quarantine, scrub, readmission) play out
    /// inside the run.
    pub ops: u64,
    /// Fault events to schedule (clear-faults events come on top).
    pub faults: usize,
    /// Probability that a stuck-at is sticky (a physical defect).
    pub sticky_fraction: f64,
    /// Probability that a sticky defect later gets a clear-faults event
    /// (a field replacement), letting the unit recover instead of
    /// retiring.
    pub clear_fraction: f64,
    /// Probability that a fault event is a Byzantine output-latch fault
    /// instead of the classic kinds. 0 (the default) keeps the plan
    /// stream bit-identical to plans generated before the kind existed.
    pub byzantine_fraction: f64,
}

impl Default for ChaosPlanConfig {
    fn default() -> Self {
        ChaosPlanConfig {
            seed: 2017,
            units: 4,
            ops: 300,
            faults: 60,
            sticky_fraction: 0.2,
            clear_fraction: 0.5,
            byzantine_fraction: 0.0,
        }
    }
}

/// A seeded, sorted schedule of chaos events.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Events sorted by `at_op` (stable: generation order breaks ties).
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// Generates the plan for `cfg`. Pure function of the config.
    pub fn generate(cfg: &ChaosPlanConfig) -> ChaosPlan {
        let mut rng = Rng::new(cfg.seed ^ 0xc4a0_5c4a_05c4_a05c);
        let horizon = (cfg.ops.saturating_mul(3) / 4).max(1);
        let mut events = Vec::with_capacity(cfg.faults + 8);
        for _ in 0..cfg.faults {
            let at_op = rng.range_u64(1, horizon + 1);
            let unit = rng.range_u64(0, cfg.units as u64) as usize;
            let net_pick = rng.next_u64();
            let edge_pick = rng.range_u64(0, 64) as u32;
            // The Byzantine draw is gated on the knob being nonzero so a
            // fraction of 0.0 consumes no PRNG draws — plans generated
            // before the kind existed replay bit-identically.
            if cfg.byzantine_fraction > 0.0 && rng.next_bool(cfg.byzantine_fraction) {
                events.push(ChaosEvent {
                    at_op,
                    unit,
                    net_pick,
                    edge_pick,
                    kind: ChaosKind::Byzantine {
                        period: 2 + rng.range_u64(0, 4),
                    },
                });
                continue;
            }
            let roll = rng.next_f64();
            let kind = if (0.40..0.80).contains(&roll) {
                ChaosKind::StuckAt {
                    value: rng.next_bool(0.5),
                    sticky: rng.next_bool(cfg.sticky_fraction),
                }
            } else {
                if roll >= 0.80 {
                    // The draws that once armed glitch storms arm SEUs.
                    // The storm's size draw is still taken, so every
                    // other event of a seeded plan keeps its place.
                    rng.range_u64(0, 4);
                }
                ChaosKind::Seu
            };
            events.push(ChaosEvent {
                at_op,
                unit,
                net_pick,
                edge_pick,
                kind,
            });
            if let ChaosKind::StuckAt { sticky: true, .. } = kind {
                if rng.next_bool(cfg.clear_fraction) {
                    events.push(ChaosEvent {
                        at_op: at_op + rng.range_u64(8, 48),
                        unit,
                        net_pick: 0,
                        edge_pick: 0,
                        kind: ChaosKind::ClearFaults,
                    });
                }
            }
        }
        events.sort_by_key(|e| e.at_op);
        ChaosPlan { events }
    }

    /// Fault events in the plan (clear-faults maintenance not counted).
    pub fn fault_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind != ChaosKind::ClearFaults)
            .count()
    }

    /// Per-kind event counts as `(label, count)` rows, in a fixed order.
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        let labels = [
            "seu",
            "stuck_at",
            "stuck_at_sticky",
            "byzantine",
            "clear_faults",
        ];
        labels
            .iter()
            .map(|&l| {
                (
                    l,
                    self.events.iter().filter(|e| e.kind.label() == l).count() as u64,
                )
            })
            .collect()
    }
}

/// Applies one event to the engine. `sites` is the candidate victim-net
/// list (typically every cell output), `latency` the build's pipeline
/// depth. An SEU on a combinational build (`latency == 0`) is dropped:
/// with no register to capture it, the pulse is always masked.
pub fn apply_event(engine: &mut Engine<'_>, ev: &ChaosEvent, sites: &[NetId], latency: u32) {
    assert!(!sites.is_empty(), "need at least one candidate site");
    let net = sites[(ev.net_pick % sites.len() as u64) as usize];
    match ev.kind {
        ChaosKind::Seu => {
            if latency > 0 {
                engine.schedule_seu(ev.unit, net, ev.edge_pick & 1 == 1);
            }
        }
        ChaosKind::StuckAt { value, sticky } => {
            engine.inject_stuck_at(ev.unit, net, value, sticky);
        }
        ChaosKind::ClearFaults => engine.clear_unit_faults(ev.unit),
        ChaosKind::Byzantine { period } => {
            // The corrupted bit pattern is derived from the net draw so
            // different events flip different product bits.
            let mask = 1u64 << (ev.net_pick % 64);
            engine.inject_byzantine(ev.unit, period, mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_sorted() {
        let cfg = ChaosPlanConfig::default();
        let a = ChaosPlan::generate(&cfg);
        let b = ChaosPlan::generate(&cfg);
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(
                (x.at_op, x.unit, x.net_pick, x.edge_pick, x.kind),
                (y.at_op, y.unit, y.net_pick, y.edge_pick, y.kind)
            );
        }
        assert!(a.events.windows(2).all(|w| w[0].at_op <= w[1].at_op));
        assert_eq!(a.fault_count(), cfg.faults);
        let total: u64 = a.kind_counts().iter().map(|(_, c)| c).sum();
        assert_eq!(total as usize, a.events.len());
    }

    #[test]
    fn byzantine_knob_adds_events_and_zero_keeps_old_streams() {
        let base = ChaosPlanConfig::default();
        let with_byz = ChaosPlanConfig {
            byzantine_fraction: 0.5,
            ..base
        };
        let plan = ChaosPlan::generate(&with_byz);
        let byz = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, ChaosKind::Byzantine { .. }))
            .count();
        assert!(byz >= 10, "half the faults should be byzantine: {byz}");
        for e in &plan.events {
            if let ChaosKind::Byzantine { period } = e.kind {
                assert!((2..=5).contains(&period));
            }
        }
        let counted = plan
            .kind_counts()
            .iter()
            .find(|(l, _)| *l == "byzantine")
            .map(|(_, c)| *c)
            .unwrap();
        assert_eq!(counted as usize, byz, "kind_counts knows the label");
        // A zero fraction consumes no draws: the stream is identical to
        // a plan generated before the kind existed (same as default).
        let a = ChaosPlan::generate(&base);
        let b = ChaosPlan::generate(&ChaosPlanConfig {
            byzantine_fraction: 0.0,
            ..base
        });
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!((x.at_op, x.net_pick, x.kind), (y.at_op, y.net_pick, y.kind));
        }
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let mut cfg = ChaosPlanConfig::default();
        let a = ChaosPlan::generate(&cfg);
        cfg.seed ^= 1;
        let b = ChaosPlan::generate(&cfg);
        let same = a
            .events
            .iter()
            .zip(&b.events)
            .filter(|(x, y)| x.at_op == y.at_op && x.net_pick == y.net_pick)
            .count();
        assert!(same < a.events.len() / 2, "{same} identical events");
    }

    #[test]
    fn events_target_valid_units_and_window() {
        let cfg = ChaosPlanConfig {
            units: 3,
            ops: 100,
            ..ChaosPlanConfig::default()
        };
        let plan = ChaosPlan::generate(&cfg);
        for e in &plan.events {
            assert!(e.unit < cfg.units);
            if e.kind != ChaosKind::ClearFaults {
                assert!(e.at_op >= 1 && e.at_op <= cfg.ops * 3 / 4);
            }
        }
    }
}
