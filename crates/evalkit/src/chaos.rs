//! Seeded chaos campaigns over the resilient pool engine: a mixed-format
//! workload pushed through an [`Engine`] while a [`ChaosPlan`] injects
//! SEUs, stuck-ats and glitch storms, judged by the two invariants of
//! `mfm-resilient` — zero escaped wrong answers and capacity that
//! degrades and recovers.
//!
//! Everything (operands, plan, backoff jitter, the engine scheduler) is
//! a pure function of the seed, so a campaign is bit-reproducible.

use mfm_gatesim::report::Table;
use mfm_gatesim::{NetId, Netlist, TechLibrary};
use mfm_resilient::{
    apply_event, BackoffConfig, BreakerConfig, ChaosPlan, ChaosPlanConfig, Engine, EngineConfig,
    HealthState, HealthTransition, SubmitBackoff,
};
use mfm_telemetry::Registry;
use mfmult::pipeline::{build_pipelined_unit_opts, PipelinePlacement};
use mfmult::structural::{build_unit, build_unit_quad, UnitOptions};
use mfmult::Format;

use crate::runreport::RunReport;
use crate::workload::OperandGen;

/// Campaign knobs.
#[derive(Debug, Clone, Copy)]
pub struct ChaosCampaignConfig {
    /// Master seed: operands, plan and backoff jitter derive from it.
    pub seed: u64,
    /// Pool size.
    pub units: usize,
    /// Workload length (operations submitted).
    pub ops: u64,
    /// Fault events the plan schedules.
    pub faults: usize,
    /// Use the 3-stage pipelined build (Fig. 5); `false` uses the
    /// combinational unit (faster, but SEU events are masked there —
    /// chaos then rides on stuck-ats and glitch storms).
    pub pipelined: bool,
    /// Build the quad-binary16 extension and include quad operations.
    pub quad_lanes: bool,
    /// Submission queue depth; 0 means "same as the pool size".
    pub queue_depth: usize,
    /// Circuit-breaker policy.
    pub breaker: BreakerConfig,
    /// Caller backoff policy for `Busy` rejections.
    pub backoff: BackoffConfig,
    /// Watchdog headroom factor (see [`EngineConfig`]).
    pub watchdog_margin: u64,
    /// Probability a scheduled fault is a Byzantine output-latch fault
    /// (scrub-clean, caught only by redundant execution). 0 keeps the
    /// plan stream bit-identical to pre-Byzantine campaigns.
    pub byzantine_fraction: f64,
    /// Cold hot-spare units promoted when an active unit retires.
    pub spares: usize,
    /// Scrub-battery operations replayed per idle engine tick (patrol
    /// scrubbing); 0 disables.
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
            queue_depth: 0,
            breaker: BreakerConfig::default(),
            backoff: BackoffConfig::default(),
            watchdog_margin: 4,
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
    /// Operations served.
    pub ops: u64,
    /// Check failures observed (first attempt per operation).
    pub mismatches: u64,
    /// Operations served by the functional fallback.
    pub fallback_ops: u64,
    /// Successful recovery scrubs.
    pub recoveries: u64,
    /// Failed recovery scrubs.
    pub failed_recoveries: u64,
    /// Per-op watchdog trips.
    pub watchdog_trips: u64,
    /// The full breaker transition log.
    pub transitions: Vec<HealthTransition>,
}

/// One capacity-timeline point: `(tick, hw_capacity, dispatchable,
/// queued)`.
pub type TimelinePoint = (u64, u32, u32, u32);

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
    /// Operations accepted into the queue.
    pub submitted: u64,
    /// Operations completed (always equals `submitted`: the queue is
    /// always drained).
    pub completed: u64,
    /// Operations abandoned after the backoff budget ran out.
    pub dropped: u64,
    /// `Busy` rejections answered with backoff.
    pub busy_rejections: u64,
    /// Ticks spent waiting in backoff.
    pub backoff_wait_ticks: u64,
    /// Wrong answers delivered. The invariant is that this is zero.
    pub escapes: u64,
    /// Corrupted results caught and substituted by the masking
    /// reference vote (would-be escapes).
    pub masked: u64,
    /// DMR shadow executions run for Suspect-unit dispatches.
    pub dmr_shadows: u64,
    /// Cold spares promoted to replace retired units.
    pub promotions: u64,
    /// Patrol-scrub slices run on idle ticks / slices that failed.
    pub patrol: (u64, u64),
    /// Scrubs run / passed.
    pub scrubs: u64,
    /// Scrubs that readmitted their unit.
    pub scrub_passes: u64,
    /// Completed `Quarantined → Probation → Healthy` cycles.
    pub recovery_cycles: u64,
    /// Units retired by the end.
    pub retired: u64,
    /// Scheduler ticks consumed.
    pub ticks: u64,
    /// The calibrated per-op settle-event ceiling.
    pub watchdog_budget: u64,
    /// Per-unit outcomes.
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

    /// Records the campaign into a [`RunReport`]: parameters, the
    /// per-unit lifecycle table, the transition trail and the capacity
    /// timeline series.
    pub fn to_run_report(&self, r: &mut RunReport) {
        r.param("seed", &self.seed.to_string())
            .param("units", &self.units.to_string())
            .param("ops", &self.ops.to_string())
            .param("faults", &self.faults_injected.to_string())
            .param("escapes", &self.escapes.to_string())
            .param("masked", &self.masked.to_string())
            .param("dmr_shadows", &self.dmr_shadows.to_string())
            .param("promotions", &self.promotions.to_string())
            .param("patrol_slices", &self.patrol.0.to_string())
            .param("recovery_cycles", &self.recovery_cycles.to_string())
            .param("retired", &self.retired.to_string())
            .param("watchdog_budget", &self.watchdog_budget.to_string());
        let mut t = Table::new(&[
            "unit",
            "final state",
            "ops",
            "mismatches",
            "fallback",
            "scrubs ok/fail",
            "watchdog trips",
        ]);
        for u in &self.unit_outcomes {
            t.row_owned(vec![
                u.unit.to_string(),
                u.final_state.to_string(),
                u.ops.to_string(),
                u.mismatches.to_string(),
                u.fallback_ops.to_string(),
                format!("{}/{}", u.recoveries, u.failed_recoveries),
                u.watchdog_trips.to_string(),
            ]);
        }
        r.add_table("Unit lifecycle", t);
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
            "pool.queued",
            self.timeline.iter().map(|p| (p.0, p.3 as f64)),
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
            "  submitted {} / completed {} (busy {}, backoff wait {} tick(s), dropped {}), \
             escapes {}",
            self.submitted,
            self.completed,
            self.busy_rejections,
            self.backoff_wait_ticks,
            self.dropped,
            self.escapes
        )?;
        writeln!(
            f,
            "  scrubs {} ({} passed), recovery cycles {}, retired {}, \
             watchdog budget {} events/op",
            self.scrubs,
            self.scrub_passes,
            self.recovery_cycles,
            self.retired,
            self.watchdog_budget
        )?;
        writeln!(
            f,
            "  redundancy: masked {}, dmr shadows {}, promotions {}, \
             patrol {}/{} slices failed",
            self.masked, self.dmr_shadows, self.promotions, self.patrol.1, self.patrol.0
        )?;
        writeln!(
            f,
            "  hw capacity: min {} / final {} of {}, {} tick(s)",
            self.min_hw_capacity(),
            self.final_hw_capacity(),
            self.units,
            self.ticks
        )?;
        let mut t = Table::new(&[
            "unit",
            "final state",
            "ops",
            "mismatches",
            "fallback",
            "scrubs ok/fail",
            "watchdog trips",
            "transitions",
        ]);
        for u in &self.unit_outcomes {
            t.row_owned(vec![
                u.unit.to_string(),
                u.final_state.to_string(),
                u.ops.to_string(),
                u.mismatches.to_string(),
                u.fallback_ops.to_string(),
                format!("{}/{}", u.recoveries, u.failed_recoveries),
                u.watchdog_trips.to_string(),
                u.transitions.len().to_string(),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Runs one seeded chaos campaign (see the module docs). When a
/// registry is given the engine's pool gauges and the units' selfcheck
/// counters are registered there.
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
    let ecfg = EngineConfig {
        queue_depth: if cfg.queue_depth == 0 {
            cfg.units
        } else {
            cfg.queue_depth
        },
        breaker: cfg.breaker,
        watchdog_margin: cfg.watchdog_margin,
        quad_lanes: cfg.quad_lanes,
        spares: cfg.spares,
        patrol_slice: cfg.patrol_slice,
    };
    let mut engine = Engine::new(&netlist, &ports, cfg.units, ecfg);
    if let Some(reg) = registry {
        engine.attach_telemetry(reg);
    }
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
    let mut next_event = 0usize;
    let mut busy_rejections = 0u64;
    let mut backoff_wait_ticks = 0u64;
    let mut dropped = 0u64;
    let mut timeline = Vec::new();
    for k in 0..cfg.ops {
        while next_event < plan.events.len() && plan.events[next_event].at_op <= k {
            apply_event(&mut engine, &plan.events[next_event], &sites, ports.latency);
            next_event += 1;
        }
        let op = gen.operation(formats[(k % formats.len() as u64) as usize]);
        let mut backoff = SubmitBackoff::new(
            cfg.backoff,
            cfg.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        loop {
            match engine.submit(op) {
                Ok(_) => break,
                Err(_) => {
                    busy_rejections += 1;
                    match backoff.next_delay() {
                        Some(delay) => {
                            backoff_wait_ticks += delay;
                            for _ in 0..delay {
                                tick(&mut engine, &mut timeline);
                            }
                        }
                        None => {
                            dropped += 1;
                            break;
                        }
                    }
                }
            }
        }
        tick(&mut engine, &mut timeline);
    }
    // Drain the queue, then let outstanding quarantines resolve so the
    // report shows every unit's terminal state (recovered or retired).
    while engine.pending() > 0 {
        tick(&mut engine, &mut timeline);
    }
    let settle =
        (cfg.breaker.cooldown_ticks as u64 + 1) * (cfg.breaker.max_scrub_failures as u64 + 1) + 4;
    for _ in 0..settle {
        tick(&mut engine, &mut timeline);
    }

    let completed = engine.take_completed();
    let (submitted, _, done, scrubs, scrub_passes) = engine.totals();
    debug_assert_eq!(done as usize, completed.len());
    // Outcomes cover the whole pool, spares included.
    let pool = engine.unit_count();
    let mut unit_outcomes = Vec::with_capacity(pool);
    let mut recovery_cycles = 0u64;
    let mut retired = 0u64;
    for i in 0..pool {
        let stats = engine.unit(i).stats();
        let transitions = engine.transitions(i).to_vec();
        recovery_cycles += transitions
            .iter()
            .filter(|t| t.from == HealthState::Probation && t.to == HealthState::Healthy)
            .count() as u64;
        if engine.unit_state(i) == HealthState::Retired {
            retired += 1;
        }
        unit_outcomes.push(UnitOutcome {
            unit: i,
            final_state: engine.unit_state(i),
            ops: stats.ops,
            mismatches: stats.mismatches,
            fallback_ops: stats.fallback_ops,
            recoveries: stats.recoveries,
            failed_recoveries: stats.failed_recoveries,
            watchdog_trips: engine.watchdog_trips(i),
            transitions,
        });
    }
    ChaosReport {
        seed: cfg.seed,
        units: cfg.units,
        ops: cfg.ops,
        faults_injected: plan.fault_count() as u64,
        fault_kind_counts: plan.kind_counts(),
        submitted,
        completed: done,
        dropped,
        busy_rejections,
        backoff_wait_ticks,
        escapes: engine.escapes(),
        masked: engine.masked(),
        dmr_shadows: engine.dmr_shadows(),
        promotions: engine.promotions(),
        patrol: engine.patrol_stats(),
        scrubs,
        scrub_passes,
        recovery_cycles,
        retired,
        ticks: engine.now(),
        watchdog_budget: engine.watchdog_budget(),
        unit_outcomes,
        timeline,
    }
}

/// One engine tick, its capacity sample appended to the campaign's own
/// series (the engine keeps only a short window).
fn tick(engine: &mut Engine<'_>, timeline: &mut Vec<TimelinePoint>) {
    let s = engine.tick().sample;
    timeline.push((s.tick, s.hw_capacity, s.dispatchable, s.queued));
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
        assert_eq!(a.submitted, b.submitted);
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
        assert!(text.contains("redundancy: masked"), "{text}");
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
        assert_eq!(
            registry.counter("pool.completed").get(),
            rep.completed,
            "registry mirrors the engine"
        );
    }
}
