//! Seeded chaos campaigns through the service: a mixed-format workload
//! admitted to an in-process [`Service`] while a [`ChaosPlan`] injects
//! SEUs, stuck-ats, Byzantine output latches and field replacements into
//! its pool, judged by the two invariants of `mfm-resilient` — zero
//! escaped wrong answers and capacity that degrades and recovers.
//!
//! Each step applies the plan's due events to the service's engine,
//! admits one operation and ticks the service. Escapes are counted on
//! the client side: every `Ok` answer is compared against the bit-exact
//! [`FunctionalUnit`]. Everything (operands, plan, the service's
//! scheduling) is a pure function of the seed, so a campaign is
//! bit-reproducible. The service records wall-clock phase histograms,
//! so it gets a private registry; only its tick-driven counters and
//! gauges are copied into the caller's.

use mfm_evalkit::runreport::RunReport;
use mfm_evalkit::workload::OperandGen;
use mfm_gatesim::report::Table;
use mfm_gatesim::{NetId, Netlist, TechLibrary};
use mfm_resilient::{
    apply_event, BreakerConfig, ChaosPlan, ChaosPlanConfig, EngineConfig, HealthState,
    HealthTransition,
};
use mfm_telemetry::Registry;
use mfmult::pipeline::{build_pipelined_unit_opts, PipelinePlacement};
use mfmult::structural::{build_unit, build_unit_quad, UnitOptions};
use mfmult::{Format, FunctionalUnit, Operation};

use crate::service::{Service, ServiceConfig};
use crate::wire::{Request, Response};

/// Campaign knobs.
#[derive(Debug, Clone, Copy)]
pub struct ChaosCampaignConfig {
    /// Master seed: operands, plan and the service's streams derive
    /// from it.
    pub seed: u64,
    /// Serving pool size.
    pub units: usize,
    /// Workload length (operations admitted, one per tick).
    pub ops: u64,
    /// Fault events the plan schedules.
    pub faults: usize,
    /// Use the 3-stage pipelined build (Fig. 5); `false` uses the
    /// combinational unit (faster, but SEU events are dropped there —
    /// chaos then rides on stuck-ats and Byzantine latches).
    pub pipelined: bool,
    /// Build the quad-binary16 extension and include quad operations.
    pub quad_lanes: bool,
    /// Circuit-breaker policy.
    pub breaker: BreakerConfig,
    /// Probability a scheduled fault is a Byzantine output-latch fault
    /// (scrub-clean, caught only by the comparison against the
    /// reference). 0 keeps the plan stream bit-identical to
    /// pre-Byzantine campaigns.
    pub byzantine_fraction: f64,
    /// Cold hot-spare units promoted when an active unit retires.
    pub spares: usize,
    /// Scrub-battery operations per patrol slice; 0 disables patrol.
    pub patrol_slice: usize,
}

impl Default for ChaosCampaignConfig {
    fn default() -> Self {
        ChaosCampaignConfig {
            seed: 2017,
            units: 4,
            ops: 300,
            faults: 60,
            pipelined: true,
            quad_lanes: false,
            breaker: BreakerConfig::default(),
            byzantine_fraction: 0.0,
            spares: 0,
            patrol_slice: 0,
        }
    }
}

/// Per-unit outcome of a campaign.
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// Pool slot.
    pub unit: usize,
    /// Health state at the end of the run.
    pub final_state: HealthState,
    /// Scrubs that passed (readmissions and spare activations).
    pub scrub_passes: u64,
    /// Scrubs that failed.
    pub scrub_failures: u64,
    /// The breaker transition log.
    pub transitions: Vec<HealthTransition>,
}

/// One capacity-timeline point: `(tick, hw_capacity, backlog)`.
pub type TimelinePoint = (u64, u32, u32);

/// Everything one campaign produced.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Config echo: seed.
    pub seed: u64,
    /// Config echo: pool size.
    pub units: usize,
    /// Config echo: workload length.
    pub ops: u64,
    /// Fault events actually scheduled (excludes clear-faults).
    pub faults_injected: u64,
    /// Events by kind, as `(label, count)`.
    pub fault_kind_counts: Vec<(&'static str, u64)>,
    /// Operations answered `Ok`.
    pub completed: u64,
    /// Operations answered otherwise (refused or expired).
    pub dropped: u64,
    /// `Ok` answers that disagree with the reference. The invariant is
    /// that this is zero.
    pub escapes: u64,
    /// Served lanes that failed the verdict and were answered from the
    /// reference (would-be escapes).
    pub check_failures: u64,
    /// Batches voted in full because their routed unit was `Suspect`.
    pub dmr_batches: u64,
    /// Cold spares promoted to replace retired units.
    pub promotions: u64,
    /// Patrol slices run / slices that failed.
    pub patrol: (u64, u64),
    /// Scrubs run.
    pub scrubs: u64,
    /// Scrubs that passed.
    pub scrub_passes: u64,
    /// Completed `Quarantined → Probation → Healthy` cycles.
    pub recovery_cycles: u64,
    /// Units retired by the end.
    pub retired: u64,
    /// Service ticks consumed.
    pub ticks: u64,
    /// Per-unit outcomes, spares included.
    pub unit_outcomes: Vec<UnitOutcome>,
    /// Capacity timeline, one point per tick.
    pub timeline: Vec<TimelinePoint>,
}

impl ChaosReport {
    /// Minimum gate-level capacity observed during the run.
    pub fn min_hw_capacity(&self) -> u32 {
        self.timeline.iter().map(|p| p.1).min().unwrap_or(0)
    }

    /// Gate-level capacity at the end of the run.
    pub fn final_hw_capacity(&self) -> u32 {
        self.timeline.last().map(|p| p.1).unwrap_or(0)
    }

    /// The per-unit lifecycle table; `with_transitions` adds a column
    /// counting each unit's logged transitions.
    fn lifecycle_table(&self, with_transitions: bool) -> Table {
        let mut headers = vec!["unit", "final state", "scrubs ok/fail"];
        if with_transitions {
            headers.push("transitions");
        }
        let mut t = Table::new(&headers);
        for u in &self.unit_outcomes {
            let mut row = vec![
                u.unit.to_string(),
                u.final_state.to_string(),
                format!("{}/{}", u.scrub_passes, u.scrub_failures),
            ];
            if with_transitions {
                row.push(u.transitions.len().to_string());
            }
            t.row_owned(row);
        }
        t
    }

    /// Records the campaign into a [`RunReport`]: parameters, the
    /// per-unit lifecycle table, the transition trail and the capacity
    /// timeline series.
    pub fn to_run_report(&self, r: &mut RunReport) {
        r.param("seed", &self.seed.to_string())
            .param("units", &self.units.to_string())
            .param("ops", &self.ops.to_string())
            .param("faults", &self.faults_injected.to_string())
            .param("escapes", &self.escapes.to_string())
            .param("check_failures", &self.check_failures.to_string())
            .param("dmr_batches", &self.dmr_batches.to_string())
            .param("promotions", &self.promotions.to_string())
            .param("patrol_slices", &self.patrol.0.to_string())
            .param("recovery_cycles", &self.recovery_cycles.to_string())
            .param("retired", &self.retired.to_string());
        r.add_table("Unit lifecycle", self.lifecycle_table(false));
        let mut t = Table::new(&["unit", "tick", "from", "to", "reason", "trace"]);
        for u in &self.unit_outcomes {
            for tr in &u.transitions {
                t.row_owned(vec![
                    u.unit.to_string(),
                    tr.tick.to_string(),
                    tr.from.to_string(),
                    tr.to.to_string(),
                    tr.reason.clone(),
                    tr.trace
                        .map_or_else(|| "-".to_string(), |t| format!("{t:016x}")),
                ]);
            }
        }
        r.add_table("Health transitions", t);
        let mut t = Table::new(&["kind", "events"]);
        for (label, count) in &self.fault_kind_counts {
            t.row_owned(vec![label.to_string(), count.to_string()]);
        }
        r.add_table("Chaos plan", t);
        r.add_series(
            "pool.hw_capacity",
            self.timeline.iter().map(|p| (p.0, p.1 as f64)),
        );
        r.add_series(
            "service.backlog",
            self.timeline.iter().map(|p| (p.0, p.2 as f64)),
        );
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "chaos campaign: seed {}, {} units, {} ops, {} faults",
            self.seed, self.units, self.ops, self.faults_injected
        )?;
        writeln!(
            f,
            "  answered {} / {} (dropped {}), escapes {}",
            self.completed, self.ops, self.dropped, self.escapes
        )?;
        writeln!(
            f,
            "  scrubs {} ({} passed), recovery cycles {}, retired {}",
            self.scrubs, self.scrub_passes, self.recovery_cycles, self.retired
        )?;
        writeln!(
            f,
            "  redundancy: check failures {}, dmr batches {}, promotions {}, \
             patrol {}/{} slices failed",
            self.check_failures, self.dmr_batches, self.promotions, self.patrol.1, self.patrol.0
        )?;
        writeln!(
            f,
            "  hw capacity: min {} / final {} of {}, {} tick(s)",
            self.min_hw_capacity(),
            self.final_hw_capacity(),
            self.units,
            self.ticks
        )?;
        write!(f, "{}", self.lifecycle_table(true))
    }
}

/// Client-side tally of the service's answers.
#[derive(Default)]
struct Tally {
    completed: u64,
    dropped: u64,
    escapes: u64,
}

impl Tally {
    /// Scores one answer to the operation `op`.
    fn score(&mut self, reference: &FunctionalUnit, op: Operation, resp: &Response) {
        match resp.result(op.format) {
            Some(got) => {
                self.completed += 1;
                if !got.agrees_hw(&reference.execute(op)) {
                    self.escapes += 1;
                }
            }
            None => self.dropped += 1,
        }
    }
}

/// Runs one seeded chaos campaign (see the module docs). When a
/// registry is given, the service's counters and gauges (`service.*`,
/// `pool.*`) are copied into it at the end.
pub fn run_chaos_campaign(cfg: &ChaosCampaignConfig, registry: Option<&Registry>) -> ChaosReport {
    let mut netlist = Netlist::new(TechLibrary::cmos45lp());
    let ports = if cfg.pipelined {
        build_pipelined_unit_opts(
            &mut netlist,
            PipelinePlacement::Fig5,
            UnitOptions {
                quad_lanes: cfg.quad_lanes,
                ..UnitOptions::default()
            },
        )
    } else if cfg.quad_lanes {
        build_unit_quad(&mut netlist)
    } else {
        build_unit(&mut netlist)
    };
    let scfg = ServiceConfig {
        seed: cfg.seed,
        units: cfg.units,
        engine: EngineConfig {
            breaker: cfg.breaker,
            quad_lanes: cfg.quad_lanes,
            spares: cfg.spares,
            patrol_slice: cfg.patrol_slice,
            ..EngineConfig::default()
        },
        ..ServiceConfig::default()
    };
    let private = Registry::new();
    let mut service = Service::new(&netlist, &ports, scfg, &private);
    let plan = ChaosPlan::generate(&ChaosPlanConfig {
        seed: cfg.seed,
        units: cfg.units,
        ops: cfg.ops,
        faults: cfg.faults,
        byzantine_fraction: cfg.byzantine_fraction,
        ..ChaosPlanConfig::default()
    });
    let sites: Vec<NetId> = netlist.cells().iter().map(|c| c.output).collect();
    let formats: &[Format] = if cfg.quad_lanes {
        &[
            Format::Int64,
            Format::Binary64,
            Format::DualBinary32,
            Format::SingleBinary32,
            Format::QuadBinary16,
        ]
    } else {
        &[
            Format::Int64,
            Format::Binary64,
            Format::DualBinary32,
            Format::SingleBinary32,
        ]
    };
    let mut gen = OperandGen::new(cfg.seed ^ 0x6d66_6d5f_6f70_7321);
    let reference = FunctionalUnit::new();
    let mut ops: Vec<Operation> = Vec::with_capacity(cfg.ops as usize);
    let mut tally = Tally::default();
    let mut timeline = Vec::new();
    let mut tick = |service: &mut Service<'_>, ops: &[Operation], tally: &mut Tally| {
        service.tick();
        for (_, resp) in service.take_responses() {
            tally.score(&reference, ops[resp.id() as usize], &resp);
        }
        timeline.push((
            service.now(),
            service.engine().hw_capacity(),
            service.backlog() as u32,
        ));
    };
    let mut next_event = 0usize;
    for k in 0..cfg.ops {
        while next_event < plan.events.len() && plan.events[next_event].at_op <= k {
            apply_event(
                service.engine_mut(),
                &plan.events[next_event],
                &sites,
                ports.latency,
            );
            next_event += 1;
        }
        let op = gen.operation(formats[(k % formats.len() as u64) as usize]);
        ops.push(op);
        let req = Request {
            id: k,
            op,
            deadline_micros: 0,
            critical: false,
        };
        if let Some(refusal) = service.admit(0, &req) {
            tally.score(&reference, op, &refusal);
        }
        tick(&mut service, &ops, &mut tally);
    }
    // Drain the backlog, then let outstanding quarantines resolve so the
    // report shows every unit's terminal state (recovered or retired).
    while service.backlog() > 0 {
        tick(&mut service, &ops, &mut tally);
    }
    let settle =
        (cfg.breaker.cooldown_ticks as u64 + 1) * (cfg.breaker.max_scrub_failures as u64 + 1) + 4;
    for _ in 0..settle {
        tick(&mut service, &ops, &mut tally);
    }

    let engine = service.engine();
    let unit_outcomes: Vec<UnitOutcome> = (0..engine.unit_count())
        .map(|i| {
            let transitions = engine.transitions(i).to_vec();
            let scrubbed = |passed: bool| {
                transitions
                    .iter()
                    .filter(|t| scrub_outcome(t) == Some(passed))
                    .count() as u64
            };
            UnitOutcome {
                unit: i,
                final_state: engine.unit_state(i),
                scrub_passes: scrubbed(true),
                scrub_failures: scrubbed(false),
                transitions,
            }
        })
        .collect();
    let recovery_cycles = unit_outcomes
        .iter()
        .flat_map(|u| &u.transitions)
        .filter(|t| t.from == HealthState::Probation && t.to == HealthState::Healthy)
        .count() as u64;
    let retired = unit_outcomes
        .iter()
        .filter(|u| u.final_state == HealthState::Retired)
        .count() as u64;
    let (scrubs, scrub_passes) = engine.scrubs();
    // The zero-escape witness reads what the client saw.
    private.counter("pool.escapes").add(tally.escapes);
    if let Some(reg) = registry {
        private.copy_scalars_into(reg);
    }
    ChaosReport {
        seed: cfg.seed,
        units: cfg.units,
        ops: cfg.ops,
        faults_injected: plan.fault_count() as u64,
        fault_kind_counts: plan.kind_counts(),
        completed: tally.completed,
        dropped: tally.dropped,
        escapes: tally.escapes,
        check_failures: private.counter("service.check_failures").get(),
        dmr_batches: private.counter("service.dmr_batches").get(),
        promotions: engine.promotions(),
        patrol: engine.patrol_stats(),
        scrubs,
        scrub_passes,
        recovery_cycles,
        retired,
        ticks: engine.now(),
        unit_outcomes,
        timeline,
    }
}

/// Whether transition `t` is the verdict of a scrub — readmission or
/// spare activation (`Some(true)`), re-quarantine or retirement
/// (`Some(false)`) — or something else (`None`).
fn scrub_outcome(t: &HealthTransition) -> Option<bool> {
    match (t.from, t.to) {
        (HealthState::Probation | HealthState::Spare, HealthState::Healthy) => Some(true),
        (HealthState::Probation, HealthState::Quarantined | HealthState::Retired)
        | (HealthState::Spare, HealthState::Retired) => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChaosCampaignConfig {
        ChaosCampaignConfig {
            seed: 0xc4a0,
            units: 2,
            ops: if cfg!(debug_assertions) { 24 } else { 120 },
            faults: 8,
            pipelined: false,
            breaker: BreakerConfig {
                open_after: 2,
                heal_after: 4,
                cooldown_ticks: 2,
                max_scrub_failures: 2,
            },
            ..ChaosCampaignConfig::default()
        }
    }

    #[test]
    fn campaign_is_deterministic_and_escape_free() {
        let cfg = small();
        let a = run_chaos_campaign(&cfg, None);
        let b = run_chaos_campaign(&cfg, None);
        assert_eq!(a.escapes, 0, "zero wrong answers escape:\n{a}");
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.scrubs, b.scrubs);
        assert_eq!(a.recovery_cycles, b.recovery_cycles);
        assert_eq!(a.timeline, b.timeline, "tick-exact reproducibility");
        assert_eq!(a.completed + a.dropped, a.ops, "every op accounted for");
    }

    #[test]
    fn byzantine_campaigns_stay_escape_free_with_spares_and_patrol() {
        let mut cfg = small();
        cfg.byzantine_fraction = 0.5;
        cfg.spares = 1;
        cfg.patrol_slice = 4;
        let rep = run_chaos_campaign(&cfg, None);
        assert_eq!(rep.escapes, 0, "byzantine faults never escape:\n{rep}");
        assert!(
            rep.fault_kind_counts
                .iter()
                .any(|&(l, c)| l == "byzantine" && c > 0),
            "the plan scheduled byzantine faults: {:?}",
            rep.fault_kind_counts
        );
        assert_eq!(
            rep.unit_outcomes.len(),
            cfg.units + cfg.spares,
            "outcomes cover the spare pool too"
        );
        assert_eq!(rep.completed + rep.dropped, rep.ops);
        let text = rep.to_string();
        assert!(text.contains("redundancy: check failures"), "{text}");
    }

    #[test]
    fn report_renders_and_round_trips_json() {
        let cfg = small();
        let registry = Registry::new();
        let rep = run_chaos_campaign(&cfg, Some(&registry));
        let text = rep.to_string();
        assert!(text.contains("chaos campaign"), "{text}");
        let mut rr = RunReport::new("chaos-test");
        rep.to_run_report(&mut rr);
        rr.with_telemetry(&registry);
        let json = rr.to_json();
        mfm_telemetry::json::check(&json).expect("well-formed report JSON");
        assert!(json.contains("\"pool.hw_capacity\""));
        assert!(json.contains("\"recovery_cycles\""));
        assert!(!json.contains("phase_micros"), "no wall-clock histograms");
        assert_eq!(
            registry.counter("service.answered").get(),
            rep.completed,
            "registry mirrors the service"
        );
    }
}
